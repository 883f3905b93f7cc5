//! [`LeveledEvaluator`]: leveled RNS ciphertexts on an
//! [`RpuCluster`](crate::RpuCluster), placed by *tower* — the
//! many-tower instance of the device core [`crate::evaluator`], for
//! depth-`L` homomorphic evaluation over device-resident tower buffers.
//!
//! A leveled ciphertext is `2·(level + 1)` ring elements — mask and
//! payload towers, one pair per live prime of the [`ModulusChain`]. Every
//! operation the single-modulus face shares — encrypt, add/sub, the
//! tensor + relinearize `mul`, the key switch, decrypt, download, free —
//! and the key state behind them are the core's, run under
//! [`Placement::Tower`]: tower `l` lives on lane `l % lanes` with its six
//! recipe kernels compiled there, and relinearization decomposes each
//! `c2` source tower once and folds every digit into every live tower's
//! accumulators, uploading it once per lane ([`DeviceLeveledRelinKey`]
//! holds tower `k`'s share of each source tower's key on tower `k`'s
//! lane). [`LeveledEvaluator`] is the core's [`Evaluator`] over a
//! [`LeveledContext`], so the accessors both faces share (context,
//! cluster, timing, gadget base, relin key) are the core's. This module
//! owns only what is specific to the leveled face:
//!
//! * **rescale** — the dropped tower comes back to the host for the
//!   exact rounding correction `δ`
//!   ([`LeveledContext::rescale_correction`]) and each surviving tower
//!   runs one fused `(ĉ − NTT(δ))·p⁻¹` dispatch ([`RescaleSpec`],
//!   compiled lazily per `(dropped level, surviving tower)` since its
//!   identity includes the dropped prime);
//! * level alignment, mod-drop, the per-ciphertext [`NoiseBudget`], and
//!   cluster snapshots.
//!
//! The dataflow mirrors the host oracle [`LeveledContext`] *exactly* —
//! the same pinned randomness streams, the same rounding corrections —
//! so downloaded device ciphertexts equal host ciphertexts bit-for-bit
//! at every step, on any lane count (`tests/tests/leveled.rs` pins this
//! at 1, 2, and 4 lanes).

use crate::buffer::DeviceBuffer;
use crate::evaluator::{Evaluator, Pick, Placement, Towers};
use crate::recipes::{self, Temps};
use crate::run::Rpu;
use crate::{DeviceKeySwitchKey, RpuError};
use rpu_arith::ModulusChain;
use rpu_codegen::{CodegenStyle, RescaleSpec};
use rpu_ntt::leveled::{
    LeveledCiphertext, LeveledContext, LeveledError, LeveledSecretKey, NoiseBudget,
};
use rpu_ntt::rlwe::Splitmix;

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

/// Leveled relinearization key material resident on the cluster: the
/// device core's one key-switch key type, holding for each source tower
/// `i` tower `k`'s share of the full-RNS key on tower `k`'s lane (as
/// [`rpu_ntt::leveled::LeveledRelinKey`] is the host's one type).
pub type DeviceLeveledRelinKey = DeviceKeySwitchKey;

/// Runs leveled RNS ciphertext operations as chains of kernel
/// dispatches over device-resident tower buffers, sharded round-robin
/// across the lanes of an [`RpuCluster`](crate::RpuCluster), with
/// on-RPU rescaling and a per-ciphertext [`NoiseBudget`] tracker: the
/// device evaluator over a [`LeveledContext`], placed by tower.
pub type LeveledEvaluator<'a> = Evaluator<'a, LeveledContext, LeveledSecretKey>;

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
        let (n, primes) = (ctx.n(), ctx.chain().primes().to_vec());
        Evaluator::open(rpu, Placement::Tower, n, &primes, ctx, style)
    }

    /// The modulus chain the evaluator runs over.
    pub fn chain(&self) -> &ModulusChain {
        self.ctx.chain()
    }

    /// The lane tower `l` is resident on.
    pub fn tower_lane(&self, l: usize) -> usize {
        Placement::Tower.homes(l, self.cluster().lane_count())[0]
    }

    /// Serializes the underlying cluster's full device state — key
    /// material, resident ciphertext towers, each lane's kernel keys — as one
    /// `SNAP_V1` cluster snapshot
    /// ([`RpuCluster::snapshot_all`](crate::RpuCluster::snapshot_all)).
    ///
    /// Every evaluator operation after key generation and encryption is
    /// deterministic (no fresh host randomness), so a mid-pipeline
    /// snapshot restored later and driven through the same remaining
    /// operations reproduces bit-identical ciphertext towers.
    pub fn snapshot(&self) -> Vec<u8> {
        self.cluster().snapshot_all()
    }

    /// Restores the underlying cluster to a snapshotted state
    /// ([`RpuCluster::restore_all_replacing`](crate::RpuCluster::restore_all_replacing)): ciphertext and key
    /// handles captured at snapshot time become valid again, and
    /// buffers created after the snapshot become stale on their lane.
    /// Host-side state (contexts, noise trackers, handle structs) is
    /// the caller's to keep from snapshot time.
    ///
    /// # Errors
    ///
    /// [`RpuError::Snapshot`] for corrupt bytes or a cluster mismatch;
    /// the evaluator is unchanged on error.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), RpuError> {
        self.cluster.restore_all_replacing(bytes)
    }

    /// Estimated noise budget left for `ct` in bits (tracker bound
    /// against the ciphertext's current live modulus). Negative means
    /// the tracker predicts decryption failure.
    pub fn remaining_bits(&self, ct: &DeviceLeveledCiphertext) -> f64 {
        ct.noise.remaining(self.ctx.chain().log2_q(ct.level()))
    }

    /// Samples a ternary secret key on the host (the stream
    /// [`LeveledContext::keygen`] draws), uploads each tower's
    /// coefficients, and transforms them on-device; the key stays
    /// resident per tower lane. Returns the host-form key for
    /// cross-checking against the oracle.
    ///
    /// Re-keying retires the previous key first — host copy, resident
    /// towers, and the relinearization key derived from it — so a failed
    /// upload leaves the evaluator keyless rather than half re-keyed.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on heap exhaustion or a dispatch fault.
    pub fn keygen(&mut self, rng: &mut Splitmix) -> Result<LeveledSecretKey, RpuError> {
        let sk = self.ctx.keygen(rng);
        let towers: Vec<_> = (0..self.ctx.chain().levels())
            .map(|l| sk.s_coeffs(l))
            .collect();
        self.install_key(&sk, &towers)?;
        Ok(sk)
    }

    /// Encrypts a plaintext vector (coefficients mod `t`) at the top
    /// level: randomness on the host, then per tower
    /// `b̂_l = â_l ⊙ ŝ_l ⊕ payload̂_l` entirely on-device.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior
    /// [`keygen`](Self::keygen), or [`RpuError`] on heap exhaustion /
    /// dispatch failure.
    ///
    /// # Panics
    ///
    /// Panics if `message.len() != n`.
    pub fn encrypt(
        &mut self,
        message: &[u128],
        rng: &mut Splitmix,
    ) -> Result<DeviceLeveledCiphertext, RpuError> {
        let towers = self.encrypt_towers(|ctx| ctx.sample_mask_and_payload(message, rng))?;
        let noise = NoiseBudget::fresh(self.ctx.chain().t());
        Ok(DeviceLeveledCiphertext { towers, noise })
    }

    /// Homomorphic addition with automatic level alignment: one
    /// pointwise dispatch per live tower, on that tower's lane.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles, heap exhaustion, or a
    /// dispatch fault.
    pub fn add(
        &mut self,
        x: &DeviceLeveledCiphertext,
        y: &DeviceLeveledCiphertext,
    ) -> Result<DeviceLeveledCiphertext, RpuError> {
        self.add_sub(x, y, |k| &k.pwadd)
    }

    /// Homomorphic subtraction with automatic level alignment.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles, heap exhaustion, or a
    /// dispatch fault.
    pub fn sub(
        &mut self,
        x: &DeviceLeveledCiphertext,
        y: &DeviceLeveledCiphertext,
    ) -> Result<DeviceLeveledCiphertext, RpuError> {
        self.add_sub(x, y, |k| &k.pwsub)
    }

    fn add_sub(
        &mut self,
        x: &DeviceLeveledCiphertext,
        y: &DeviceLeveledCiphertext,
        pick: Pick,
    ) -> Result<DeviceLeveledCiphertext, RpuError> {
        let towers = self.ops().pointwise_ct(pick, &x.towers, &y.towers)?;
        let noise = x.noise.after_add(y.noise);
        Ok(DeviceLeveledCiphertext { towers, noise })
    }

    /// Explicit mod-drop to a lower level: consumes the ciphertext,
    /// frees the towers above `level`, and returns the truncated rest.
    /// Exact while the phase magnitude stays below `Q_level / 2`.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Leveled`] if `level > ct.level` (the
    /// ciphertext is freed in full in that case — the handles would
    /// otherwise leak).
    pub fn mod_drop(
        &mut self,
        mut ct: DeviceLeveledCiphertext,
        level: usize,
    ) -> Result<DeviceLeveledCiphertext, RpuError> {
        if level > ct.level() {
            let (requested, max) = (level, ct.level());
            self.free_ciphertext(ct)?;
            return Err(LeveledError::LevelTooHigh { requested, max }.into());
        }
        let dropped = ct.towers.each_mut().map(|c| c.split_off(level + 1));
        self.ops().free(dropped)?;
        Ok(ct)
    }

    /// Rescales: divides (with rounding) by the last live prime,
    /// dropping one tower. Per component, the dropped tower is
    /// inverse-transformed and downloaded, the host derives the exact
    /// rounding correction `δ`, and every surviving tower runs one
    /// fused `(ĉ − NTT(δ̂))·p⁻¹` dispatch on its lane. The input
    /// ciphertext is untouched; the result is freshly allocated at
    /// `level − 1`.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Leveled`] at level 0, or [`RpuError`] on
    /// heap exhaustion / dispatch failure.
    pub fn rescale(
        &mut self,
        ct: &DeviceLeveledCiphertext,
    ) -> Result<DeviceLeveledCiphertext, RpuError> {
        let level = ct.level();
        if level == 0 {
            return Err(LeveledError::BottomLevel.into());
        }
        let style = self.style;
        let (mut ops, ctx) = self.ops_and_context();
        let chain = ctx.chain();
        let noise = ct
            .noise
            .after_rescale(chain.prime(level), ctx.n(), chain.t());
        let mut t = Temps::default();
        let scaled = (|| {
            let mut scaled = Towers::default();
            for (towers, out) in ct.towers.iter().zip(&mut scaled) {
                let (w, k) = ops.at(ops.homes(level)[0], level);
                let dropped = recipes::download_coeffs(w, k, towers[level])?;
                for (i, delta_i) in ctx.rescale_correction(level, &dropped).iter().enumerate() {
                    let (w, _) = ops.at(ops.homes(i)[0], i);
                    // Compiled on first use: the dropped prime is part of
                    // the kernel's identity, so the store holds one per
                    // (dropped level, surviving tower).
                    let spec = RescaleSpec::new(ctx.n(), chain.prime(i), chain.prime(level), style);
                    let kernel = w.compile(&spec)?;
                    let d = t.hold(w.upload(delta_i)?);
                    out.push(t.hold(recipes::apply(w, &kernel, &[d, towers[i]])?));
                    w.free(d)?;
                }
            }
            Ok(scaled)
        })();
        let towers = ops.settle(t, scaled)?;
        Ok(DeviceLeveledCiphertext { towers, noise })
    }

    /// Generates a leveled relinearization key — host-side gadget
    /// encryptions of `s²` drawn from `rng` (the stream
    /// [`LeveledContext::relin_keygen`] uses, so host and device key
    /// material match bit-exactly) — and uploads every part's towers to
    /// their lanes, replacing any previous key.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior
    /// [`keygen`](Self::keygen), or [`RpuError`] on heap exhaustion /
    /// dispatch failure during upload.
    pub fn relin_keygen(&mut self, rng: &mut Splitmix) -> Result<(), RpuError> {
        let base_log = self.key_base_log();
        let rk = self.ctx.relin_keygen(self.host_key()?, rng, base_log);
        self.set_relin(&rk)
    }

    /// Ciphertext×ciphertext multiplication at the operands' common
    /// level: per-tower degree-2 tensor (five pointwise dispatches per
    /// tower), then RNS relinearization — the `c2` towers are
    /// inverse-transformed and downloaded, gadget-decomposed on the
    /// host, and each digit is transformed once per live tower and
    /// multiply-accumulated against both components of the resident key
    /// on that tower's lane. The result
    /// stays at the same level; follow with [`rescale`](Self::rescale)
    /// (or use [`mul_rescale`](Self::mul_rescale)) to shed the noise
    /// growth.
    ///
    /// Bit-exactly equal to the host [`LeveledContext::mul`] on any
    /// lane count.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a relinearization key, or
    /// [`RpuError`] on heap exhaustion / dispatch failure.
    pub fn mul(
        &mut self,
        x: &DeviceLeveledCiphertext,
        y: &DeviceLeveledCiphertext,
    ) -> Result<DeviceLeveledCiphertext, RpuError> {
        let relin = self.relin()?;
        let parts = relin.parts_at_level(x.level().min(y.level()));
        let (n, t) = (self.ctx.n(), self.ctx.chain().t());
        let noise = x.noise.after_mul(y.noise, n, t, parts, relin.base_log());
        let towers = self.mul_towers(&x.towers, &y.towers)?;
        Ok(DeviceLeveledCiphertext { towers, noise })
    }

    /// Fused level-aware multiply: [`mul`](Self::mul) followed by
    /// [`rescale`](Self::rescale), freeing the intermediate product.
    /// The result lives one level below the operands' common level.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] as `mul` and `rescale` do (including
    /// [`RpuError::Leveled`] when the operands are already at level 0).
    pub fn mul_rescale(
        &mut self,
        x: &DeviceLeveledCiphertext,
        y: &DeviceLeveledCiphertext,
    ) -> Result<DeviceLeveledCiphertext, RpuError> {
        let product = self.mul(x, y)?;
        let rescaled = self.rescale(&product);
        self.free_ciphertext(product)?;
        rescaled
    }

    /// Decrypts a resident ciphertext with the resident secret key:
    /// per-tower phase on-device, CRT decode on the host.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior
    /// [`keygen`](Self::keygen), or [`RpuError`] on dispatch failure.
    pub fn decrypt(&mut self, ct: &DeviceLeveledCiphertext) -> Result<Vec<u128>, RpuError> {
        let towers = self.phase_towers(&ct.towers)?;
        Ok(self.ctx.decode_phase_towers(&towers))
    }

    /// Measures the actual noise of a resident ciphertext (floor-`log2`
    /// of the largest centered phase magnitude, in bits) — the debug
    /// path that validates the [`NoiseBudget`] tracker; measured never
    /// exceeds `ct.noise().bits()`.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] as [`decrypt`](Self::decrypt) does.
    pub fn measure_noise(&mut self, ct: &DeviceLeveledCiphertext) -> Result<f64, RpuError> {
        let towers = self.phase_towers(&ct.towers)?;
        Ok(self.ctx.phase_noise_bits(&towers))
    }

    /// Downloads a resident ciphertext into host form (via on-device
    /// inverse NTTs on each tower's lane), e.g. to cross-check ring
    /// elements against the [`LeveledContext`] oracle.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles or dispatch failure.
    pub fn download_ciphertext(
        &mut self,
        ct: &DeviceLeveledCiphertext,
    ) -> Result<LeveledCiphertext, RpuError> {
        let [a, b] = self.ops().download(&ct.towers)?;
        Ok(LeveledCiphertext::from_coeff_towers(
            &self.ctx, a, b, ct.noise,
        )?)
    }

    /// Frees every tower of a resident ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles.
    pub fn free_ciphertext(&mut self, ct: DeviceLeveledCiphertext) -> Result<(), RpuError> {
        self.ops().free(ct.towers)
    }
}
