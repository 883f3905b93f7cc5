//! # rpu-codegen — SPIRAL-style B512 program generation
//!
//! The paper programs the RPU through a new SPIRAL backend (Section V):
//! the Pease/Korn–Lambiotte constant-geometry NTT breakdown, register
//! allocation, store-to-load-aware emission, and a greedy instruction
//! scheduler. This crate reproduces that flow in Rust behind one
//! contract: a [`KernelSpec`] generates a [`Kernel`] — its program, the
//! constant tables and SDM scalars of its working set, its operand map,
//! and a scalar golden model — identified by a [`KernelKey`] for
//! caching. Six generators are built in:
//!
//! * [`NttSpec`] — one forward or inverse negacyclic NTT for ring degrees
//!   1K–64K (and beyond, VDM permitting), emitted from the twiddles of a
//!   [`rpu_ntt::PeaseSchedule`] in two styles: hardware-aware
//!   **optimized** (register renaming, twiddle caching, software-pipelined
//!   "rectangles", list scheduling) and naive **unoptimized** (the Fig. 6
//!   baseline);
//! * [`ElementwiseSpec`] — lane-wise `vmulmod`/`vaddmod`/`vsubmod`
//!   streams (ciphertext add, NTT-domain multiply);
//! * [`ConvolutionSpec`] — the fused negacyclic polynomial product
//!   (forward NTT ×2 → pointwise multiply → inverse NTT) of Fig. 1,
//!   as a single B512 program;
//! * [`AutomorphismSpec`] — a Galois automorphism `x → x^g` (HE
//!   rotation) on evaluation form, a pure permutation of Pease-order
//!   evaluation points realized with the `vgather` indexed load and a
//!   baked-in index table;
//! * [`KeySwitchSpec`] — one gadget digit of a key switch folded into
//!   one accumulator (`acc' = d̂ ⊙ k̂ ⊕ acc` on the digit's evaluation
//!   form and a resident key component; the digit's forward NTT is a
//!   separate [`NttSpec`] dispatch both key components share), the inner
//!   loop of relinearization and rotation;
//! * [`RescaleSpec`] — one surviving tower's leveled rescale (forward
//!   NTT of the rounding correction → subtract → scale by the dropped
//!   prime's inverse), the device half of modulus switching.
//!
//! Every generator assembles its program from segments — an NTT, a
//! pointwise stage — each list-scheduled on its own ([`list_schedule`],
//! the standalone pass) and placed at its VDM window. A kernel verifies
//! itself end to end on the functional simulator against its golden
//! model, which transforms with the host plan ([`rpu_ntt::Ntt128Plan`])
//! and never with the schedule the emitter read.
//!
//! # Examples
//!
//! ```
//! use rpu_codegen::{CodegenStyle, Direction, KernelSpec, NttSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let q = rpu_arith::find_ntt_prime_u128(126, 2048).expect("prime exists");
//! let kernel = NttSpec::new(1024, q, Direction::Forward, CodegenStyle::Optimized).generate()?;
//! assert!(kernel.verify()?);
//! println!("{}", kernel.program().to_asm());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod automorphism;
mod elementwise;
mod gen;
mod kernel;
mod keyswitch;
mod layout;
mod pipeline;
mod rescale;
mod sched;

pub use automorphism::AutomorphismSpec;
pub use elementwise::{ElementwiseOp, ElementwiseSpec};
pub use kernel::{Kernel, KernelKey, KernelOp, KernelSpec, NttSpec};
pub use keyswitch::KeySwitchSpec;
pub use pipeline::ConvolutionSpec;
pub use rescale::RescaleSpec;
pub use sched::list_schedule;

// The engine taxonomy kernels select from (by modulus width); re-exported
// so session-layer callers can match on `Kernel::engine()` without a
// direct `rpu-arith` dependency.
pub use rpu_arith::EngineKind;

/// Transform direction of a generated kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Natural-order coefficients → Pease-ordered evaluations.
    Forward,
    /// Pease-ordered evaluations → natural-order coefficients.
    Inverse,
}

/// Code-generation style (the two programs of Fig. 6, plus an ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodegenStyle {
    /// Hardware-aware: renaming, twiddle caching, software pipelining,
    /// list scheduling.
    Optimized,
    /// No knowledge of the microarchitecture: same computation, emitted
    /// in plain dependency order with no pipelining or scheduling.
    Unoptimized,
    /// Ablation: like `Optimized` but *shuffle-free* — butterfly halves
    /// are written with stride-2 VDM stores (and the inverse reads with
    /// stride-2 loads) instead of SBAR pack/unpack shuffles. This sends
    /// the interleaving through the VDM, doubling bank pressure —
    /// quantifying why B512 has shuffle instructions at all
    /// (Section III: shuffles "take pressure off the VDM").
    StridedMemory,
}

/// Error generating a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// Ring degree not a power of two, or smaller than `2 * VLEN = 1024`
    /// (one butterfly block must fill a vector).
    UnsupportedDegree(usize),
    /// The modulus does not admit the transform.
    Schedule(rpu_ntt::NttError),
    /// The kernel working set exceeds what a kernel can address: the
    /// 32 MiB architectural VDM, and the 2²⁰ elements (16 MiB) the
    /// instructions' 20-bit static offsets reach.
    WorkingSetTooLarge {
        /// Required bytes.
        bytes: usize,
    },
}

impl core::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodegenError::UnsupportedDegree(n) => {
                write!(
                    f,
                    "ring degree {n} unsupported (need a power of two >= 1024)"
                )
            }
            CodegenError::Schedule(e) => write!(f, "schedule construction failed: {e}"),
            CodegenError::WorkingSetTooLarge { bytes } => {
                write!(
                    f,
                    "kernel working set of {bytes} bytes exceeds the addressable VDM \
                     (32 MiB capacity, 20-bit element offsets)"
                )
            }
        }
    }
}

impl std::error::Error for CodegenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodegenError::Schedule(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rpu_ntt::NttError> for CodegenError {
    fn from(e: rpu_ntt::NttError) -> Self {
        CodegenError::Schedule(e)
    }
}

/// Rebuilds the [`KernelSpec`] a [`KernelKey`] came from, so a restored
/// session can regenerate (re-pin) every kernel its cache held when the
/// snapshot was taken.
///
/// Returns `None` when the key does not correspond to any spec this
/// crate can produce — an op parameter out of range (e.g. an
/// automorphism generator that does not round-trip) or a direction that
/// the op ignores but the key records differently than the canonical
/// spec would. Callers treat `None` as a corrupt snapshot record.
pub fn spec_for_key(key: &KernelKey) -> Option<Box<dyn KernelSpec>> {
    let spec: Box<dyn KernelSpec> = match key.op {
        KernelOp::Ntt => Box::new(NttSpec::new(key.n, key.q, key.direction, key.style)),
        KernelOp::PointwiseMul => Box::new(ElementwiseSpec::new(
            ElementwiseOp::MulMod,
            key.n,
            key.q,
            key.style,
        )),
        KernelOp::PointwiseAdd => Box::new(ElementwiseSpec::new(
            ElementwiseOp::AddMod,
            key.n,
            key.q,
            key.style,
        )),
        KernelOp::PointwiseSub => Box::new(ElementwiseSpec::new(
            ElementwiseOp::SubMod,
            key.n,
            key.q,
            key.style,
        )),
        KernelOp::NegacyclicMul => Box::new(ConvolutionSpec::new(key.n, key.q, key.style)),
        KernelOp::Automorphism => {
            let g: usize = key.param.try_into().ok()?;
            Box::new(AutomorphismSpec::new(key.n, key.q, g, key.style))
        }
        KernelOp::KeySwitch => Box::new(KeySwitchSpec::new(key.n, key.q, key.style)),
        KernelOp::Rescale => Box::new(RescaleSpec::new(key.n, key.q, key.param, key.style)),
    };
    // A canonical spec must reproduce the key exactly; anything else
    // (normalized parameters, ignored fields set oddly) means the key
    // did not come from this spec and cannot be trusted for re-pinning.
    if spec.key() == *key {
        Some(spec)
    } else {
        None
    }
}
