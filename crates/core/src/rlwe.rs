//! [`RlweEvaluator`]: single-modulus RLWE ciphertexts on an
//! [`RpuCluster`](crate::RpuCluster), placed by *component* — the
//! one-prime instance of the device evaluator [`crate::evaluator`].
//!
//! Every operation is the evaluator's, written once over towers for both
//! faces; an `RlweEvaluator` runs it over a one-prime chain under
//! [`Placement::Component`]: every mask `â` lives on lane 0 and every
//! payload `b̂` on lane `1 % lanes`, so per-component dispatches land on
//! different devices and overlap, and the key-switch digits of `mul` /
//! `rotate` are work-stolen over every lane against key material
//! replicated on each. A ciphertext is one tower, so `rescale` answers
//! [`crate::LeveledError::BottomLevel`]. This module owns only the
//! face's ciphertext handle, its constructor and its placement accessor.
//!
//! Results are verified against the host-side
//! [`RlweContext`](rpu_ntt::rlwe::RlweContext) reference in
//! `tests/tests/rlwe_on_rpu.rs` and `keyswitch.rs`: the evaluator draws
//! the same randomness stream, so device ciphertexts equal host
//! ciphertexts exactly, on any lane count.

use crate::buffer::DeviceBuffer;
use crate::evaluator::{Evaluator, Placement, Resident, Towers};
use crate::run::Rpu;
use crate::RpuError;
use rpu_codegen::CodegenStyle;
use rpu_ntt::leveled::NoiseBudget;
use rpu_ntt::rlwe::{RlweContext, RlweParams};

/// A single-modulus ciphertext whose components live in device memory,
/// in the RPU kernel's NTT (evaluation) ordering, with its tracked noise
/// bound (read through [`RlweEvaluator::remaining_bits`]). On a
/// multi-lane evaluator the mask is resident on the `a` lane and the
/// payload on the `b` lane.
#[derive(Debug, Clone, Copy)]
pub struct DeviceCiphertext {
    /// The resident mask component `â`.
    pub a: DeviceBuffer,
    /// The resident payload component `b̂`.
    pub b: DeviceBuffer,
    noise: NoiseBudget,
}

impl Resident for DeviceCiphertext {
    fn parts(&self) -> (Towers, NoiseBudget) {
        ([vec![self.a], vec![self.b]], self.noise)
    }

    fn wrap([a, b]: Towers, noise: NoiseBudget) -> Self {
        let (a, b) = (a[0], b[0]);
        DeviceCiphertext { a, b, noise }
    }
}

/// Runs the toy RLWE scheme's operations as chains of kernel dispatches
/// over device-resident buffers, sharded across the lanes of an
/// [`RpuCluster`](crate::RpuCluster): the device evaluator over a
/// one-prime [`RlweContext`], placed by component.
///
/// Created over an [`Rpu`]; opens a cluster with the configured
/// ([`crate::RpuBuilder::lanes`]) lane count. The six recipe kernel
/// shapes (forward/inverse NTT, pointwise mul/add/sub, key-switch digit
/// multiply–accumulate) are compiled and golden-verified once per lane at
/// construction; after that every operation is pure dispatch traffic.
///
/// The ring degree must be one the kernel generators support (a power
/// of two ≥ 1024) and `q` an NTT prime for `2n` — use
/// `session.primes_for(n)` to pick one.
pub type RlweEvaluator<'a> = Evaluator<'a, DeviceCiphertext>;

impl<'a> RlweEvaluator<'a> {
    /// Builds an evaluator: host-side context plus the compiled,
    /// golden-verified kernel shapes on each lane.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Ring`] for invalid RLWE parameters and
    /// [`RpuError::Codegen`] if the ring degree is outside what the
    /// generators support.
    pub fn new(rpu: &'a Rpu, params: RlweParams, style: CodegenStyle) -> Result<Self, RpuError> {
        let ctx = RlweContext::new(params)?;
        Evaluator::open(rpu, Placement::Component, ctx, style)
    }

    /// The `(mask, payload)` component lanes.
    pub fn component_lanes(&self) -> (usize, usize) {
        let [a, b] = Placement::Component.homes(0, self.cluster().lane_count());
        (a, b)
    }
}
