//! [`LeveledEvaluator`]: leveled RNS ciphertexts on an
//! [`RpuCluster`](crate::RpuCluster), placed by *tower* — the
//! many-tower instance of the device evaluator [`crate::evaluator`], for
//! depth-`L` homomorphic evaluation over device-resident tower buffers.
//!
//! A leveled ciphertext is `2·(level + 1)` ring elements — mask and
//! payload towers, one pair per live prime of the
//! [`ModulusChain`](rpu_arith::ModulusChain). Every operation is the
//! evaluator's, written once over towers for both faces; a
//! `LeveledEvaluator` runs it under [`Placement::Tower`]: tower `l`
//! lives on lane `l % lanes` with its six recipe kernels compiled there,
//! a key switch (relinearization or rotation) decomposes each source
//! tower once and folds every digit into every live tower's
//! accumulators, and each tower's key share sits on the tower's lane.
//! Rescale brings the dropped tower back to the host for the exact
//! rounding correction `δ` and runs one fused `(ĉ − NTT(δ))·p⁻¹`
//! dispatch per surviving tower. This module owns only the face's
//! ciphertext handle, its constructor and its placement accessor.
//!
//! The dataflow mirrors the host oracle [`LeveledContext`] *exactly* —
//! the same pinned randomness streams, the same rounding corrections —
//! so downloaded device ciphertexts equal host ciphertexts bit-for-bit
//! at every step, on any lane count (`tests/tests/leveled.rs` pins this
//! at 1, 2, and 4 lanes).

use crate::buffer::DeviceBuffer;
use crate::evaluator::{Evaluator, Placement, Resident, Towers};
use crate::run::Rpu;
use crate::RpuError;
use rpu_codegen::CodegenStyle;
use rpu_ntt::leveled::{LeveledContext, NoiseBudget};

/// A leveled RNS ciphertext resident on the cluster: per live tower
/// `l ≤ level`, the evaluation-form mask `â_l` and payload `b̂_l` on
/// lane `l % lanes`, plus the tracked noise bound.
#[derive(Debug, Clone)]
pub struct DeviceLeveledCiphertext {
    towers: Towers,
    noise: NoiseBudget,
}

impl DeviceLeveledCiphertext {
    /// The ciphertext's level (`towers − 1`).
    pub fn level(&self) -> usize {
        self.towers[0].len() - 1
    }

    /// The resident mask towers `â_0 ..= â_level`.
    pub fn a_towers(&self) -> &[DeviceBuffer] {
        &self.towers[0]
    }

    /// The resident payload towers `b̂_0 ..= b̂_level`.
    pub fn b_towers(&self) -> &[DeviceBuffer] {
        &self.towers[1]
    }

    /// The tracked worst-case noise bound.
    pub fn noise(&self) -> NoiseBudget {
        self.noise
    }
}

impl Resident for DeviceLeveledCiphertext {
    fn parts(&self) -> (Towers, NoiseBudget) {
        (self.towers.clone(), self.noise)
    }

    fn wrap(towers: Towers, noise: NoiseBudget) -> Self {
        DeviceLeveledCiphertext { towers, noise }
    }
}

/// Runs leveled RNS ciphertext operations as chains of kernel
/// dispatches over device-resident tower buffers, sharded round-robin
/// across the lanes of an [`RpuCluster`](crate::RpuCluster), with
/// on-RPU rescaling and a per-ciphertext
/// [`NoiseBudget`] tracker: the device evaluator over a
/// [`LeveledContext`], placed by tower.
pub type LeveledEvaluator<'a> = Evaluator<'a, DeviceLeveledCiphertext>;

impl<'a> LeveledEvaluator<'a> {
    /// Builds an evaluator over `ctx`'s modulus chain: compiles and
    /// golden-verifies every per-tower kernel shape on that tower's
    /// lane.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Codegen`] if the ring degree is outside what
    /// the kernel generators support.
    pub fn new(rpu: &'a Rpu, ctx: LeveledContext, style: CodegenStyle) -> Result<Self, RpuError> {
        Evaluator::open(rpu, Placement::Tower, ctx, style)
    }

    /// The lane tower `l` is resident on.
    pub fn tower_lane(&self, l: usize) -> usize {
        Placement::Tower.homes(l, self.cluster().lane_count())[0]
    }
}
