//! # rpu — the Ring Processing Unit
//!
//! A from-scratch Rust reproduction of *"RPU: The Ring Processing Unit"*
//! (ISPASS 2023): the B512 vector ISA, a cycle-level model of the RPU
//! microarchitecture, a SPIRAL-style NTT code generator, large-word
//! modular arithmetic, a reference RLWE polynomial library, and GF 12nm
//! area/energy models — everything needed to regenerate the paper's
//! evaluation (see EXPERIMENTS.md).
//!
//! This crate is the facade: it re-exports the workspace and adds the
//! high-level [`Rpu`] object, the session-based workload API
//! ([`RpuBuilder`] / [`RpuSession`]), the device-resident buffer
//! runtime ([`DeviceBuffer`] / [`RpuSession::dispatch`] /
//! [`RlweEvaluator`]), the multi-lane RNS execution engine
//! ([`RpuCluster`]), and design-space exploration helpers.
//!
//! # Quickstart
//!
//! Build an [`Rpu`], open a session, and run workload specs through it.
//! The `Rpu` stores generated kernels by `(op, n, q, direction, style)`
//! for all its sessions and the session memoizes NTT-prime searches, so
//! repeated and batched runs pay generation cost once:
//!
//! ```
//! use rpu::{CodegenStyle, ConvolutionSpec, Direction, NttSpec, Rpu};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's best design point: 128 HPLEs, 128 VDM banks.
//! let rpu = Rpu::builder().geometry(128, 128).build()?;
//! let mut session = rpu.session();
//!
//! // One forward NTT (the session picks the ~126-bit prime).
//! let run = session.ntt(4096, Direction::Forward, CodegenStyle::Optimized)?;
//! assert!(run.verified); // matched the golden NTT model
//! println!(
//!     "4K NTT: {} cycles = {:.2} us, {:.1} uJ on {:.1} mm2",
//!     run.stats.cycles,
//!     run.runtime_us,
//!     run.energy.total_uj(),
//!     rpu.area().total(),
//! );
//!
//! // A full negacyclic polynomial product as ONE on-RPU program
//! // (forward NTT x2 -> pointwise multiply -> inverse NTT), and a
//! // repeat of the NTT above — a cache hit, no regeneration.
//! let q = session.primes_for(4096)?;
//! let conv = session.run(&ConvolutionSpec::new(4096, q, CodegenStyle::Optimized))?;
//! let again = session.run(&NttSpec::new(4096, q, Direction::Forward, CodegenStyle::Optimized))?;
//! assert!(conv.verified && again.cache_hit);
//! # Ok(())
//! # }
//! ```
//!
//! # Resident pipelines
//!
//! The paper's execution model keeps ring data resident in the VDM
//! while kernels stream over it. Sessions expose that model directly:
//! kernels are compiled once per *shape* (no data in the cache key) and
//! dispatched over [`DeviceBuffer`]s, so an L-op pipeline costs one
//! upload, L dispatches, and one download instead of L host round
//! trips:
//!
//! ```
//! use rpu::{CodegenStyle, ElementwiseOp, ElementwiseSpec, Rpu};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rpu = Rpu::builder().build()?;
//! let mut s = rpu.session();
//! let q = s.primes_for(1024)?;
//! let mul = s.compile(&ElementwiseSpec::new(
//!     ElementwiseOp::MulMod, 1024, q, CodegenStyle::Optimized))?;
//! let x = s.upload(&vec![2u128; 1024])?;   // host → device, once
//! let w = s.upload(&vec![3u128; 1024])?;
//! let y = s.alloc(1024)?;
//! s.dispatch(&mul, &[x, w], &[y])?;        // resident, no host traffic
//! let report = s.dispatch(&mul, &[y, w], &[y])?;
//! assert_eq!(report.transfer.host_to_device, 0);
//! assert_eq!(s.download(&y)?[0], 18);      // device → host, once
//! # Ok(())
//! # }
//! ```
//!
//! [`RlweEvaluator`] builds full ciphertext pipelines on this runtime:
//! encrypt/add/sub/mul/rotate/decrypt as chains of dispatches over
//! resident ciphertexts, verified against the host
//! [`rpu_ntt::rlwe::RlweContext`]. It and the leveled RNS
//! [`LeveledEvaluator`] are one device evaluator, [`Evaluator`]: every
//! public op, the gadget key switch and the key state are written once
//! over RNS towers, and the two differ only in their ciphertext handle
//! and in which lane holds each tower's mask and payload — by component
//! for one prime, by tower for a chain.
//!
//! # Multi-lane RNS execution
//!
//! RNS towers are independent work (Section II-B), so they shard:
//! [`RpuBuilder::lanes`] builds an [`RpuCluster`] of `k` full sessions
//! (one simulated RPU die each; a lane's accounting is its session's
//! [`stats`](RpuSession::stats)) and
//! [`RpuCluster::negacyclic_mul_towers`] spreads tower jobs over them —
//! each lane, on its own thread, takes the next un-started tower —
//! with CRT recombination on the host; 8 towers on 4 lanes that balance
//! finish in a 2-tower makespan:
//!
//! ```
//! use rpu::Rpu;
//! use rpu::arith::{find_ntt_prime_chain, RnsBasis};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rpu = Rpu::builder().lanes(2).build()?;
//! let mut cluster = rpu.cluster();
//! let primes = find_ntt_prime_chain(60, 2 * 1024, 4);
//! let basis = RnsBasis::new(primes.clone())?;
//! let a = basis.split_u128_poly(&vec![7u128; 1024]);
//! let b = basis.split_u128_poly(&vec![9u128; 1024]);
//! let (products, report) = cluster.negacyclic_mul_towers(1024, &primes, &a, &b)?;
//! let wide = basis.recombine_poly(&products);
//! assert_eq!(products.len(), 4);
//! // Which lane thread takes which tower is up to the threads: between
//! // no overlap (one lane took all four) and the full two-lane gain.
//! assert!((1.0..=2.0).contains(&report.speedup()));
//! if report.lanes_used() == 2 {
//!     assert!(report.speedup() > 1.0);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! # Serving many tenants
//!
//! The `rpu-serve` crate (workspace member) layers a persistent
//! multi-tenant service on the cluster: typed encrypt/eval/decrypt jobs
//! behind ticketed submission, weighted-fair scheduling, bounded queues
//! with typed backpressure, and per-tenant key isolation. Its engine is
//! [`RpuCluster::on_lanes`] — one thread per lane, each running that
//! lane's service loop for as long as the service lives, pulling the
//! next tenant batch from the server's queues itself (no scheduler
//! thread in between). A served job runs the same evaluator op bodies
//! as the two evaluators, with everything on the tenant's home lane.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod buffer;
#[doc(hidden)]
pub mod evaluator;
mod explore;
mod lanes;
mod leveled;
#[doc(hidden)]
pub mod recipes;
mod rlwe;
mod run;
mod session;
mod snapshot;
mod store;
mod trace;

pub use buffer::{BufferAllocator, BufferError, DeviceBuffer, TransferStats};
pub use evaluator::{DeviceKeySwitchKey, Evaluator};
pub use explore::{explore_design_space, PAPER_BANKS, PAPER_HPLES};
pub use lanes::{ClusterRunReport, LaneJob, RpuCluster};
pub use leveled::{DeviceLeveledCiphertext, LeveledEvaluator};
pub use rlwe::{DeviceCiphertext, RlweEvaluator};
pub use run::{Rpu, RunReport};
pub use session::{CacheStats, LaneStats, PrimeTable, RpuBuilder, RpuSession};
pub use snapshot::SnapshotError;
pub use store::KernelStore;
pub use trace::{set_dispatch_tenant, DispatchEvent, RingTraceSink, TenantTag, TraceSink};

// Re-export the component crates under stable names.
pub use rpu_arith as arith;
pub use rpu_codegen as codegen;
pub use rpu_isa as isa;
pub use rpu_model as model;
pub use rpu_ntt as ntt;
pub use rpu_sim as sim;

// And the most-used types at the top level.
pub use rpu_codegen::{
    AutomorphismSpec, CodegenStyle, ConvolutionSpec, Direction, ElementwiseOp, ElementwiseSpec,
    EngineKind, Kernel, KernelKey, KernelOp, KernelSpec, KeySwitchSpec, NttSpec, RescaleSpec,
};
pub use rpu_model::{AreaModel, DesignPoint, EnergyModel, F1Comparison};
pub use rpu_ntt::leveled::{LeveledContext, LeveledError, NoiseBudget};
pub use rpu_ntt::{Ntt128Plan, Ntt64Plan, PeaseSchedule, Polynomial};
pub use rpu_sim::{CycleSim, FunctionalSim, HbmModel, RpuConfig, SimStats};

/// Clamps a requested ring size to `cap` for reduced-size smoke runs:
/// the cap is floored to a power of two and raised to the kernel
/// generator's minimum supported degree (1024 = 2 × the vector length).
///
/// This is the single definition of the cap rule shared by the examples
/// and the `rpu-bench` figure binaries.
pub fn clamp_ring_size(full: usize, cap: usize) -> usize {
    let cap = cap.max(2 * rpu_isa::consts::VECTOR_LEN);
    full.min(1 << cap.ilog2())
}

/// Applies the `RPU_MAX_N` environment cap to a paper ring size, if the
/// variable is set and parses; full size otherwise. See
/// [`clamp_ring_size`] for the clamping rule.
pub fn smoke_cap(full: usize) -> usize {
    std::env::var("RPU_MAX_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(full, |cap| clamp_ring_size(full, cap))
}

/// Errors from the high-level API.
#[derive(Debug)]
pub enum RpuError {
    /// Invalid microarchitectural configuration.
    Config(String),
    /// No NTT-friendly prime exists below the session's width for this
    /// ring degree.
    NoPrime {
        /// The requested ring degree.
        degree: usize,
    },
    /// Kernel generation failed.
    Codegen(rpu_codegen::CodegenError),
    /// The generated program faulted in the functional simulator.
    Exec(rpu_sim::ExecError),
    /// A device-buffer operation failed (exhausted heap, stale handle,
    /// shape mismatch at dispatch, …).
    Buffer(BufferError),
    /// The host-side ring/RLWE library rejected the parameters.
    Ring(rpu_ntt::NttError),
    /// The leveled-ciphertext layer rejected an operation (bad chain,
    /// bottom-of-chain rescale, level out of range, …).
    Leveled(rpu_ntt::leveled::LeveledError),
    /// A lane job panicked under [`RpuCluster::run_jobs`]; the panic was
    /// caught on the lane's thread and the run aborted cleanly (no
    /// poisoned lock, no wedged lanes).
    LanePanic {
        /// The lane whose job panicked.
        lane: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A device snapshot could not be decoded or restored (corrupt or
    /// future-version bytes, geometry mismatch, live buffers in the
    /// target, …).
    Snapshot(SnapshotError),
}

impl core::fmt::Display for RpuError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RpuError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            RpuError::NoPrime { degree } => {
                write!(f, "no NTT prime found for ring degree {degree}")
            }
            RpuError::Codegen(e) => write!(f, "code generation failed: {e}"),
            RpuError::Exec(e) => write!(f, "kernel execution failed: {e}"),
            RpuError::Buffer(e) => write!(f, "device buffer operation failed: {e}"),
            RpuError::Ring(e) => write!(f, "ring parameters rejected: {e}"),
            RpuError::Leveled(e) => write!(f, "leveled ciphertext operation failed: {e}"),
            RpuError::LanePanic { lane, message } => {
                write!(f, "lane {lane} worker panicked mid-job: {message}")
            }
            RpuError::Snapshot(e) => write!(f, "device snapshot operation failed: {e}"),
        }
    }
}

impl std::error::Error for RpuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RpuError::Codegen(e) => Some(e),
            RpuError::Exec(e) => Some(e),
            RpuError::Buffer(e) => Some(e),
            RpuError::Ring(e) => Some(e),
            RpuError::Leveled(e) => Some(e),
            RpuError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rpu_codegen::CodegenError> for RpuError {
    fn from(e: rpu_codegen::CodegenError) -> Self {
        RpuError::Codegen(e)
    }
}

impl From<rpu_sim::ExecError> for RpuError {
    fn from(e: rpu_sim::ExecError) -> Self {
        RpuError::Exec(e)
    }
}

impl From<BufferError> for RpuError {
    fn from(e: BufferError) -> Self {
        RpuError::Buffer(e)
    }
}

impl From<rpu_ntt::NttError> for RpuError {
    fn from(e: rpu_ntt::NttError) -> Self {
        RpuError::Ring(e)
    }
}

impl From<rpu_ntt::leveled::LeveledError> for RpuError {
    fn from(e: rpu_ntt::leveled::LeveledError) -> Self {
        RpuError::Leveled(e)
    }
}

impl From<SnapshotError> for RpuError {
    fn from(e: SnapshotError) -> Self {
        RpuError::Snapshot(e)
    }
}
