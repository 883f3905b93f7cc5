//! [`LeveledEvaluator`]: leveled RNS ciphertexts on an [`RpuCluster`],
//! placed by *tower* — depth-`L` homomorphic evaluation over
//! device-resident tower buffers.
//!
//! A leveled ciphertext is `2·(level + 1)` ring elements — mask and
//! payload towers, one pair per live prime of the [`ModulusChain`] — and
//! every tower runs the same lane-local [`crate::recipes`] as the
//! single-modulus front ends (encrypt, phase, tensor cross terms, gadget
//! digit), each with its own modulus' kernel set. This module owns only
//! what is specific to the leveled front end:
//!
//! * **placement** — tower `l` lives on lane `l % lanes`, with the six
//!   recipe kernels compiled there once per tower at construction;
//! * **the cross-tower digit loop** — relinearization decomposes each
//!   `c2` source tower on the host and folds every digit into *every*
//!   live tower's accumulators, uploading it once per lane
//!   ([`DeviceLeveledRelinKey`] holds tower `k`'s share of each source
//!   tower's key on tower `k`'s lane);
//! * **rescale** — the dropped tower comes back to the host for the
//!   exact rounding correction `δ`
//!   ([`LeveledContext::rescale_correction`]) and each surviving tower
//!   runs one fused `(ĉ − NTT(δ))·p⁻¹` dispatch ([`RescaleSpec`],
//!   compiled lazily per `(dropped level, surviving tower)` since its
//!   identity includes the dropped prime);
//! * level alignment, mod-drop, and the per-ciphertext [`NoiseBudget`].
//!
//! The dataflow mirrors the host oracle [`LeveledContext`] *exactly* —
//! the same pinned randomness streams, the same rounding corrections —
//! so downloaded device ciphertexts equal host ciphertexts bit-for-bit
//! at every step, on any lane count (`tests/tests/leveled.rs` pins this
//! at 1, 2, and 4 lanes).

use crate::buffer::DeviceBuffer;
use crate::lanes::RpuCluster;
use crate::recipes::{self, LaneKernels, LaneKsk, Temps};
use crate::run::Rpu;
use crate::session::RpuSession;
use crate::RpuError;
use rpu_arith::{gadget_decompose, ModulusChain};
use rpu_codegen::{CodegenStyle, Kernel, RescaleSpec};
use rpu_ntt::leveled::{
    LeveledCiphertext, LeveledContext, LeveledError, LeveledRelinKey, LeveledSecretKey, NoiseBudget,
};
use rpu_ntt::rlwe::Splitmix;
use std::collections::HashMap;
use std::sync::Arc;

/// A leveled RNS ciphertext resident on the cluster: per live tower
/// `l ≤ level`, the evaluation-form mask `â_l` and payload `b̂_l` on
/// lane `l % lanes`, plus the tracked noise bound.
#[derive(Debug, Clone)]
pub struct DeviceLeveledCiphertext {
    level: usize,
    a: Vec<DeviceBuffer>,
    b: Vec<DeviceBuffer>,
    noise: NoiseBudget,
}

impl DeviceLeveledCiphertext {
    /// The ciphertext's level (`towers − 1`).
    pub fn level(&self) -> usize {
        self.level
    }

    /// The resident mask towers `â_0 ..= â_level`.
    pub fn a_towers(&self) -> &[DeviceBuffer] {
        &self.a
    }

    /// The resident payload towers `b̂_0 ..= b̂_level`.
    pub fn b_towers(&self) -> &[DeviceBuffer] {
        &self.b
    }

    /// The tracked worst-case noise bound.
    pub fn noise(&self) -> NoiseBudget {
        self.noise
    }

    /// Every tower handle, masks then payloads.
    fn handles(&self) -> Vec<DeviceBuffer> {
        [&self.a[..], &self.b[..]].concat()
    }
}

/// Leveled relinearization key material resident on the cluster: for
/// each source tower `i`, tower `k`'s share of the full-RNS key — the
/// digit-indexed `(â_{ij,k}, b̂_{ij,k})` pairs of a [`LaneKsk`] — on
/// tower `k`'s lane. Mod-dropping the key is implicit — a key switch at
/// `level` simply never touches towers above it.
#[derive(Debug, Clone)]
pub struct DeviceLeveledRelinKey {
    /// `keys[i][k]`: source tower `i`'s digits, tower `k`'s polynomials.
    keys: Vec<Vec<LaneKsk>>,
}

impl DeviceLeveledRelinKey {
    /// The digit base exponent `log2(B)`.
    pub fn base_log(&self) -> u32 {
        self.keys[0][0].base_log()
    }

    /// Total digit products `Σ_{i ≤ level} ℓ_i` a key switch at `level`
    /// performs — the `parts` factor of the noise model.
    pub fn parts_at_level(&self, level: usize) -> usize {
        self.keys[..=level].iter().map(|k| k[0].levels()).sum()
    }

    /// Total resident elements this key occupies across all lanes.
    pub fn resident_elements(&self) -> usize {
        self.handles().map(|buf| buf.len()).sum()
    }

    fn handles(&self) -> impl Iterator<Item = DeviceBuffer> + '_ {
        self.keys.iter().flatten().flat_map(LaneKsk::handles)
    }
}

fn no_key(what: &str, call: &str) -> RpuError {
    RpuError::Config(format!("no {what}: call LeveledEvaluator::{call} first"))
}

/// Runs leveled RNS ciphertext operations as chains of kernel
/// dispatches over device-resident tower buffers, sharded round-robin
/// across the lanes of an [`RpuCluster`], with on-RPU rescaling and a
/// per-ciphertext [`NoiseBudget`] tracker.
#[derive(Debug)]
pub struct LeveledEvaluator<'a> {
    cluster: RpuCluster<'a>,
    ctx: LeveledContext,
    style: CodegenStyle,
    /// Per-tower recipe kernels (index = tower = chain level).
    kernels: Vec<LaneKernels>,
    /// Fused rescale kernels by `(dropped level, surviving tower)`.
    rescale_kernels: HashMap<(usize, usize), Arc<Kernel>>,
    /// The secret key in evaluation form, one resident buffer per tower.
    sk: Vec<DeviceBuffer>,
    /// Host copy of the secret key (derives key-switch material).
    host_sk: Option<LeveledSecretKey>,
    ksk_base_log: u32,
    relin: Option<DeviceLeveledRelinKey>,
}

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
        let mut cluster = rpu.cluster();
        let lanes = cluster.lane_count();
        let kernels = (0..ctx.chain().levels())
            .map(|l| {
                let w = cluster.lane_session(l % lanes);
                LaneKernels::compile(w, ctx.n(), ctx.chain().prime(l), style)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LeveledEvaluator {
            cluster,
            ctx,
            style,
            kernels,
            rescale_kernels: HashMap::new(),
            sk: Vec::new(),
            host_sk: None,
            ksk_base_log: recipes::DEFAULT_KSK_BASE_LOG,
            relin: None,
        })
    }

    /// The host-side reference context (same chain, same plans).
    pub fn context(&self) -> &LeveledContext {
        &self.ctx
    }

    /// The modulus chain the evaluator runs over.
    pub fn chain(&self) -> &ModulusChain {
        self.ctx.chain()
    }

    /// The cluster the evaluator shards over.
    pub fn cluster(&self) -> &RpuCluster<'a> {
        &self.cluster
    }

    /// The lane tower `l` is resident on.
    pub fn tower_lane(&self, l: usize) -> usize {
        l % self.cluster.lane_count()
    }

    /// Kernels dispatched so far, across every lane.
    pub fn dispatch_count(&self) -> u64 {
        self.cluster.total_dispatches()
    }

    /// Total simulated on-RPU time of every dispatch, in microseconds —
    /// the sequential-equivalent cost.
    pub fn simulated_us(&self) -> f64 {
        self.cluster.total_busy_us()
    }

    /// The busiest lane's simulated time, in microseconds — the
    /// overlapped completion time of the multi-lane deployment.
    pub fn makespan_us(&self) -> f64 {
        self.cluster.makespan_us()
    }

    /// Serializes the underlying cluster's full device state — key
    /// material, resident ciphertext towers, kernel caches — as one
    /// `SNAP_V1` cluster snapshot ([`RpuCluster::snapshot_all`]).
    ///
    /// Every evaluator operation after key generation and encryption is
    /// deterministic (no fresh host randomness), so a mid-pipeline
    /// snapshot restored later and driven through the same remaining
    /// operations reproduces bit-identical ciphertext towers.
    pub fn snapshot(&self) -> Vec<u8> {
        self.cluster.snapshot_all()
    }

    /// Restores the underlying cluster to a snapshotted state
    /// ([`RpuCluster::restore_all_replacing`]): ciphertext and key
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
        ct.noise.remaining(self.ctx.chain().log2_q(ct.level))
    }

    /// Tower `l`'s lane session and kernel set, for one recipe call.
    fn tower(&mut self, l: usize) -> (&mut RpuSession<'a>, &LaneKernels) {
        let lane = self.tower_lane(l);
        (self.cluster.lane_session(lane), &self.kernels[l])
    }

    /// Builds a ciphertext tower by tower from `tower(self, l) →
    /// (â_l, b̂_l)`; a failure frees the towers already built.
    fn per_tower(
        &mut self,
        level: usize,
        noise: NoiseBudget,
        mut tower: impl FnMut(&mut Self, usize) -> Result<(DeviceBuffer, DeviceBuffer), RpuError>,
    ) -> Result<DeviceLeveledCiphertext, RpuError> {
        let mut t = Temps::default();
        let towers = (0..=level)
            .map(|l| tower(self, l).map(|(a, b)| (t.hold(a), t.hold(b))))
            .collect::<Result<Vec<_>, _>>();
        let ct = towers.map(|towers| {
            let (a, b) = towers.into_iter().unzip();
            DeviceLeveledCiphertext { level, a, b, noise }
        });
        t.settle(ct, |ct| ct.handles(), |buf| self.cluster.free(buf))
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
        self.host_sk = None;
        for old in std::mem::take(&mut self.sk) {
            let _ = self.cluster.free(old);
        }
        if let Some(old) = self.relin.take() {
            self.release_key(&old);
        }
        let mut t = Temps::default();
        let uploaded = (0..self.kernels.len())
            .map(|l| {
                let (w, k) = self.tower(l);
                Ok(t.hold(recipes::upload_eval(w, k, &sk.s_coeffs(l))?))
            })
            .collect::<Result<Vec<_>, _>>();
        self.sk = t.settle(uploaded, Vec::clone, |buf| self.cluster.free(buf))?;
        self.host_sk = Some(sk.clone());
        Ok(sk)
    }

    fn resident_key(&self, l: usize) -> Result<DeviceBuffer, RpuError> {
        let sk = self.sk.get(l).copied();
        sk.ok_or_else(|| no_key("resident secret key", "keygen"))
    }

    /// Best-effort release of a whole device key.
    fn release_key(&mut self, key: &DeviceLeveledRelinKey) {
        for buf in key.handles() {
            let _ = self.cluster.free(buf);
        }
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
        self.resident_key(self.ctx.max_level())?;
        let (masks, payloads) = self.ctx.sample_mask_and_payload(message, rng);
        let noise = NoiseBudget::fresh(self.ctx.chain().t());
        self.per_tower(self.ctx.max_level(), noise, |ev, l| {
            let sk = ev.sk[l];
            let (w, k) = ev.tower(l);
            recipes::encrypt(w, k, sk, &masks[l], &payloads[l])
        })
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
        pick: fn(&LaneKernels) -> &Arc<Kernel>,
    ) -> Result<DeviceLeveledCiphertext, RpuError> {
        let noise = x.noise.after_add(y.noise);
        self.per_tower(x.level.min(y.level), noise, |ev, l| {
            let (w, k) = ev.tower(l);
            recipes::pointwise_pair(w, pick(k), (x.a[l], x.b[l]), (y.a[l], y.b[l]))
        })
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
        if level > ct.level {
            let (requested, max) = (level, ct.level);
            self.free_ciphertext(ct)?;
            return Err(LeveledError::LevelTooHigh { requested, max }.into());
        }
        for buf in ct.a.drain(level + 1..).chain(ct.b.drain(level + 1..)) {
            self.cluster.free(buf)?;
        }
        ct.level = level;
        Ok(ct)
    }

    /// The fused rescale kernel for dropping `q_level` on surviving
    /// tower `i`, compiled on first use (the dropped prime is part of
    /// the kernel identity).
    fn rescale_kernel(&mut self, level: usize, i: usize) -> Result<Arc<Kernel>, RpuError> {
        if let Some(k) = self.rescale_kernels.get(&(level, i)) {
            return Ok(Arc::clone(k));
        }
        let chain = self.ctx.chain();
        let spec = RescaleSpec::new(self.ctx.n(), chain.prime(i), chain.prime(level), self.style);
        let kernel = self.cluster.compile_on(self.tower_lane(i), &spec)?;
        self.rescale_kernels.insert((level, i), Arc::clone(&kernel));
        Ok(kernel)
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
        let level = ct.level;
        if level == 0 {
            return Err(LeveledError::BottomLevel.into());
        }
        let chain = self.ctx.chain();
        let noise = ct
            .noise
            .after_rescale(chain.prime(level), self.ctx.n(), chain.t());
        let mut t = Temps::default();
        let scaled = (|| {
            let mut scaled = [Vec::with_capacity(level), Vec::with_capacity(level)];
            for (towers, out) in [&ct.a, &ct.b].into_iter().zip(&mut scaled) {
                let (w, k) = self.tower(level);
                let dropped = recipes::download_coeffs(w, k, towers[level])?;
                let delta = self.ctx.rescale_correction(level, &dropped);
                for (i, delta_i) in delta.iter().enumerate() {
                    let kernel = self.rescale_kernel(level, i)?;
                    let w = self.cluster.lane_session(i % self.cluster.lane_count());
                    let d = t.hold(w.upload(delta_i)?);
                    let out_i = t.hold(w.alloc(delta_i.len())?);
                    w.dispatch(&kernel, &[d, towers[i]], &[out_i])?;
                    w.free(d)?;
                    out.push(out_i);
                }
            }
            let [a, b] = scaled;
            let level = level - 1;
            Ok(DeviceLeveledCiphertext { level, a, b, noise })
        })();
        t.settle(scaled, |ct| ct.handles(), |buf| self.cluster.free(buf))
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
        let sk = self.host_sk.as_ref();
        let sk = sk.ok_or_else(|| no_key("resident secret key", "keygen"))?;
        let rk = self.ctx.relin_keygen(sk, rng, self.ksk_base_log);
        let mut key = DeviceLeveledRelinKey { keys: Vec::new() };
        if let Err(e) = self.upload_relin_key(&rk, &mut key) {
            // Heap exhaustion must not strand the shares uploaded so far.
            self.release_key(&key);
            return Err(e);
        }
        if let Some(old) = self.relin.replace(key) {
            self.release_key(&old);
        }
        Ok(())
    }

    /// Uploads tower `k`'s share of every source tower's key to tower
    /// `k`'s lane, appending to `key` as it goes.
    fn upload_relin_key(
        &mut self,
        rk: &LeveledRelinKey,
        key: &mut DeviceLeveledRelinKey,
    ) -> Result<(), RpuError> {
        for i in 0..rk.parts().len() {
            key.keys.push(Vec::with_capacity(self.kernels.len()));
            for k in 0..self.kernels.len() {
                let (w, kernels) = self.tower(k);
                let share = recipes::upload_ksk(w, kernels, rk.base_log(), rk.share(i, k))?;
                key.keys.last_mut().expect("just pushed").push(share);
            }
        }
        Ok(())
    }

    /// The resident relinearization key, if generated.
    pub fn relin_key(&self) -> Option<&DeviceLeveledRelinKey> {
        self.relin.as_ref()
    }

    /// The gadget digit base exponent future
    /// [`relin_keygen`](Self::relin_keygen) calls use (`log2(B)`,
    /// default 16).
    pub fn key_base_log(&self) -> u32 {
        self.ksk_base_log
    }

    /// Overrides the gadget digit base for *future* key generations.
    /// Smaller bases mean more digits (more dispatches, less noise per
    /// digit). The host oracle must be given the same base for
    /// bit-exact cross-checks.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] outside `[1, 64]`.
    pub fn set_key_base_log(&mut self, base_log: u32) -> Result<(), RpuError> {
        self.ksk_base_log = recipes::check_ksk_base_log(base_log)?;
        Ok(())
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
        let relin = self.relin.clone();
        let relin = relin.ok_or_else(|| no_key("relinearization key", "relin_keygen"))?;
        let level = x.level.min(y.level);
        let (n, lanes) = (self.ctx.n(), self.cluster.lane_count());
        let parts = relin.parts_at_level(level);
        let noise = x
            .noise
            .after_mul(y.noise, n, self.ctx.chain().t(), parts, relin.base_log());
        let mut t = Temps::default();
        let ct = (|| {
            // Per-tower tensor; c2 comes back to coefficients for the
            // host-side gadget decomposition.
            let mut c10 = Vec::with_capacity(level + 1);
            let mut c2_coeffs = Vec::with_capacity(level + 1);
            for l in 0..=level {
                let (w, k) = self.tower(l);
                let c0 = t.hold(recipes::pointwise(w, &k.pwmul, x.b[l], y.b[l])?);
                let (xl, yl) = ((x.a[l], x.b[l]), (y.a[l], y.b[l]));
                c10.push((t.hold(recipes::cross_terms(w, k, xl, yl)?), c0));
                let c2 = recipes::pointwise(w, &k.pwmul, x.a[l], y.a[l])?;
                let coeffs = recipes::download_coeffs(w, k, c2);
                w.free(c2)?;
                c2_coeffs.push(coeffs?);
            }
            // Key switch: zero accumulators per live tower, then every
            // digit of every source tower into every live tower.
            let mut acc = Vec::with_capacity(level + 1);
            for k in 0..=level {
                let pair = recipes::accumulators(self.tower(k).0, n)?;
                acc.push((t.hold(pair.0), t.hold(pair.1)));
            }
            for (src, key) in c2_coeffs.iter().zip(&relin.keys) {
                let digits = gadget_decompose(src, relin.base_log(), key[0].levels());
                for (j, digit) in digits.iter().enumerate() {
                    for lane in 0..lanes.min(level + 1) {
                        let towers = (lane..=level).step_by(lanes);
                        let targets = towers.map(|k| (&self.kernels[k], key[k].part(j), acc[k]));
                        recipes::ksw_digit(self.cluster.lane_session(lane), digit, targets)?;
                    }
                }
            }
            // Combine: a = c1 + Σ d̂·â, b = c0 + Σ d̂·b̂, per tower.
            self.per_tower(level, noise, |ev, l| {
                let (w, k) = ev.tower(l);
                recipes::pointwise_pair(w, &k.pwadd, c10[l], acc[l])
            })
        })();
        // The result towers are per_tower's; every temp here goes back.
        t.settle(ct, |_| [], |buf| self.cluster.free(buf))
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

    /// Per-tower phase coefficients `b̂_l ⊖ â_l·ŝ_l` (natural order,
    /// downloaded) — the on-device front half of decryption and noise
    /// measurement.
    fn phase_towers(&mut self, ct: &DeviceLeveledCiphertext) -> Result<Vec<Vec<u128>>, RpuError> {
        self.resident_key(ct.level)?;
        let towers = (0..=ct.level).map(|l| {
            let sk = self.sk[l];
            let (w, k) = self.tower(l);
            recipes::phase(w, k, sk, ct.a[l], ct.b[l])
        });
        towers.collect()
    }

    /// Decrypts a resident ciphertext with the resident secret key:
    /// per-tower phase on-device, CRT decode on the host.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior
    /// [`keygen`](Self::keygen), or [`RpuError`] on dispatch failure.
    pub fn decrypt(&mut self, ct: &DeviceLeveledCiphertext) -> Result<Vec<u128>, RpuError> {
        let towers = self.phase_towers(ct)?;
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
        let towers = self.phase_towers(ct)?;
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
        let mut a = Vec::with_capacity(ct.level + 1);
        let mut b = Vec::with_capacity(ct.level + 1);
        for l in 0..=ct.level {
            let (w, k) = self.tower(l);
            a.push(recipes::download_coeffs(w, k, ct.a[l])?);
            b.push(recipes::download_coeffs(w, k, ct.b[l])?);
        }
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
        for buf in ct.handles() {
            self.cluster.free(buf)?;
        }
        Ok(())
    }
}
