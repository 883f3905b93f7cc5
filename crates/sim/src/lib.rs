//! # rpu-sim — functional and cycle-level RPU simulators
//!
//! Two complementary models of the Ring Processing Unit (Section IV of
//! the paper), mirroring the paper's own methodology (Section VI-A):
//!
//! * [`FunctionalSim`] executes B512 programs against full architectural
//!   state (VRF/SRF/ARF/MRF, VDM, SDM) with no timing, for correctness
//!   validation against the `rpu-ntt` golden model — the role OpenFHE
//!   test vectors played in the paper.
//! * [`CycleSim`] is the parameterized performance model: in-order
//!   frontend with busyboard hazard tracking, three decoupled pipelines
//!   (load/store, compute, shuffle), HPLE lane throughput, exact VDM
//!   bank-conflict accounting, and configurable IP latencies (multiplier
//!   depth/II, crossbar latencies) — the knobs of Figs. 3–8.
//! * [`HbmModel`] is the 512 GB/s off-chip memory model of Fig. 9.
//!
//! The paper validated its simulator against a Palladium-emulated RTL
//! implementation to 97%; here the functional simulator provides the
//! correctness anchor and the published cycle counts provide the
//! performance anchor (see EXPERIMENTS.md).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod constants;
mod cycle;
mod fastpath;
mod func;
mod hbm;
mod stats;

pub use config::RpuConfig;
pub use constants::ConstantTables;
pub use cycle::{cost, Cost, CycleSim, InstrTrace, Unit};
pub use func::{ExecError, FunctionalSim};
pub use hbm::HbmModel;
pub use stats::SimStats;
