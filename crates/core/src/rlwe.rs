//! [`RlweEvaluator`]: single-modulus RLWE ciphertexts on an
//! [`RpuCluster`], placed by *component*.
//!
//! The dispatch chains themselves — encrypt, phase, tensor cross terms,
//! gadget digit, Galois permute, and their temp hygiene — are the shared
//! lane-local [`crate::recipes`]. This module owns only what is specific
//! to this front end:
//!
//! * **placement** — an RLWE ciphertext is two independent ring
//!   elements, so every mask `â` lives on one lane and every payload
//!   `b̂` on another (the same lane on a 1-lane cluster); per-component
//!   dispatches of `add`/`sub`/`mul_plain` and the two halves of the
//!   tensor land on different devices and overlap;
//! * **the scheduled key switch** — the `ℓ` gadget digits of `mul` /
//!   `rotate` run as work-stealing jobs over **every** lane against
//!   per-lane replicated key material ([`DeviceKeySwitchKey`]), and the
//!   per-lane partial sums are folded back onto the component lanes;
//! * **key state** — the resident secret key (one copy per component
//!   lane), the host copy key-switch keys derive from, and the resident
//!   relinearization / Galois keys, retired together on re-key;
//! * `convolve` — the fused negacyclic product ([`ConvolutionSpec`])
//!   over resident coefficient buffers.
//!
//! Results are verified against the host-side [`RlweContext`] reference
//! in `tests/tests/rlwe_on_rpu.rs` and `keyswitch.rs`: the evaluator
//! draws the same randomness stream, so device ciphertexts equal host
//! ciphertexts exactly, on any lane count.

use crate::buffer::{BufferError, DeviceBuffer};
use crate::lanes::{LaneJob, RpuCluster};
use crate::recipes::{self, LaneKernels, LaneKsk, Temps};
use crate::run::Rpu;
use crate::session::RpuSession;
use crate::RpuError;
use rpu_arith::gadget_decompose;
use rpu_codegen::{AutomorphismSpec, CodegenStyle, ConvolutionSpec, Kernel};
use rpu_ntt::rlwe::{Ciphertext, KeySwitchKey, RlweContext, RlweParams, SecretKey, Splitmix};
use std::collections::HashMap;
use std::sync::Arc;

/// A ciphertext whose components live in device memory, in the RPU
/// kernel's NTT (evaluation) ordering. On a multi-lane evaluator the
/// mask is resident on the `a` lane and the payload on the `b` lane.
#[derive(Debug, Clone, Copy)]
pub struct DeviceCiphertext {
    /// The resident mask component `â`.
    pub a: DeviceBuffer,
    /// The resident payload component `b̂`.
    pub b: DeviceBuffer,
}

/// Key-switch key material resident on the cluster: the whole key
/// ([`LaneKsk`]: per gadget digit `j`, the evaluation-form `(â_j, b̂_j)`)
/// replicated on **every** lane, so the work-stealing scheduler can run
/// digit `j`'s products on whichever lane steals the job without any
/// cross-lane traffic. Created by [`RlweEvaluator::relin_keygen`] /
/// [`RlweEvaluator::rotation_keygen`].
#[derive(Debug, Clone)]
pub struct DeviceKeySwitchKey {
    per_lane: Vec<LaneKsk>,
}

impl DeviceKeySwitchKey {
    /// The digit base exponent `log2(B)`.
    pub fn base_log(&self) -> u32 {
        self.per_lane[0].base_log()
    }

    /// Number of gadget digits `ℓ`.
    pub fn levels(&self) -> usize {
        self.per_lane[0].levels()
    }

    /// Total resident elements this key occupies across all lanes
    /// (`2 · ℓ · n · lanes` — the key-material footprint the README's
    /// size table quotes).
    pub fn resident_elements(&self) -> usize {
        self.handles().map(|buf| buf.len()).sum()
    }

    fn handles(&self) -> impl Iterator<Item = DeviceBuffer> + '_ {
        self.per_lane.iter().flat_map(LaneKsk::handles)
    }
}

/// Picks one pointwise kernel out of a lane's set.
type Pick = fn(&LaneKernels) -> &Arc<Kernel>;

fn no_key(what: &str, call: &str) -> RpuError {
    RpuError::Config(format!("no {what}: call RlweEvaluator::{call} first"))
}

/// Runs the toy RLWE scheme's operations as chains of kernel dispatches
/// over device-resident buffers, sharded across the lanes of an
/// [`RpuCluster`].
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
#[derive(Debug)]
pub struct RlweEvaluator<'a> {
    cluster: RpuCluster<'a>,
    ctx: RlweContext,
    style: CodegenStyle,
    /// Lane holding every ciphertext's mask component.
    lane_a: usize,
    /// Lane holding every ciphertext's payload component.
    lane_b: usize,
    /// The recipe kernel set of every lane (digit jobs run anywhere).
    kernels: Vec<LaneKernels>,
    /// The secret key in evaluation form on the `(mask, payload)` lanes
    /// — one shared handle on a single lane.
    sk: Option<(DeviceBuffer, DeviceBuffer)>,
    /// Host copy of the secret key (needed to derive key-switch keys).
    host_sk: Option<SecretKey>,
    /// Gadget digit base for key-switch keys generated by this
    /// evaluator.
    ksk_base_log: u32,
    /// Resident relinearization key (per-lane replicated), if generated.
    relin: Option<DeviceKeySwitchKey>,
    /// Resident Galois keys by Galois element, each with the `σ_g`
    /// permutation kernels of the `(mask, payload)` lanes.
    galois: HashMap<usize, (DeviceKeySwitchKey, [Arc<Kernel>; 2])>,
}

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
        let mut cluster = rpu.cluster();
        let kernels = (0..cluster.lane_count())
            .map(|lane| LaneKernels::compile(cluster.lane_session(lane), params.n, params.q, style))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RlweEvaluator {
            lane_a: 0,
            lane_b: 1 % cluster.lane_count(),
            cluster,
            ctx,
            style,
            kernels,
            sk: None,
            host_sk: None,
            ksk_base_log: recipes::DEFAULT_KSK_BASE_LOG,
            relin: None,
            galois: HashMap::new(),
        })
    }

    /// The host-side reference context (same parameters).
    pub fn context(&self) -> &RlweContext {
        &self.ctx
    }

    /// The mask-component lane's session (cache statistics, manual
    /// buffer work for [`convolve`](RlweEvaluator::convolve) operands).
    pub fn session(&mut self) -> &mut RpuSession<'a> {
        self.cluster.lane_session(0)
    }

    /// The cluster the evaluator shards over.
    pub fn cluster(&self) -> &RpuCluster<'a> {
        &self.cluster
    }

    /// Mutable access to the cluster (lane sessions, buffer migration).
    pub fn cluster_mut(&mut self) -> &mut RpuCluster<'a> {
        &mut self.cluster
    }

    /// The `(mask, payload)` component lanes.
    pub fn component_lanes(&self) -> (usize, usize) {
        (self.lane_a, self.lane_b)
    }

    /// Kernels dispatched so far, across every lane.
    pub fn dispatch_count(&self) -> u64 {
        self.cluster.total_dispatches()
    }

    /// Total simulated on-RPU time of every dispatch so far, in
    /// microseconds — the *sequential-equivalent* cost. With two
    /// component lanes, independent per-component dispatches overlap;
    /// [`makespan_us`](RlweEvaluator::makespan_us) is the overlapped
    /// completion time.
    pub fn simulated_us(&self) -> f64 {
        self.cluster.total_busy_us()
    }

    /// The busiest lane's simulated time, in microseconds — what the
    /// multi-lane deployment actually takes.
    pub fn makespan_us(&self) -> f64 {
        self.cluster.makespan_us()
    }

    /// `lane`'s session and kernel set, for one recipe call.
    fn lane(&mut self, lane: usize) -> (&mut RpuSession<'a>, &LaneKernels) {
        (self.cluster.lane_session(lane), &self.kernels[lane])
    }

    /// One pointwise dispatch into a fresh buffer on `lane`.
    fn pointwise_on(
        &mut self,
        lane: usize,
        pick: Pick,
        x: DeviceBuffer,
        y: DeviceBuffer,
    ) -> Result<DeviceBuffer, RpuError> {
        let (w, k) = self.lane(lane);
        recipes::pointwise(w, pick(k), x, y)
    }

    /// Ends an operation's temp scope, keeping the result's components.
    fn settle(
        &mut self,
        temps: Temps,
        ct: Result<DeviceCiphertext, RpuError>,
    ) -> Result<DeviceCiphertext, RpuError> {
        temps.settle(ct, |ct| [ct.a, ct.b], |buf| self.cluster.free(buf))
    }

    /// Samples a secret key on the host, uploads it, and transforms it
    /// to evaluation form on every component lane, where it stays
    /// resident for every later `encrypt`/`decrypt`. Returns the
    /// host-form key so results can be cross-checked against
    /// [`RlweContext`].
    ///
    /// Re-keying retires the previous key first — host copy, resident
    /// copies, and every key-switch key derived from it — so a failed
    /// upload leaves the evaluator keyless rather than half re-keyed.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] if device memory is exhausted or a dispatch
    /// faults.
    pub fn keygen(&mut self, rng: &mut Splitmix) -> Result<SecretKey, RpuError> {
        let sk = self.ctx.keygen(rng);
        self.host_sk = None;
        if let Some((a, b)) = self.sk.take() {
            // On a single lane both slots hold the same handle.
            let _ = self.cluster.free(a);
            if b != a {
                let _ = self.cluster.free(b);
            }
        }
        if let Some(old) = self.relin.take() {
            self.release_key(&old);
        }
        for (old, _) in std::mem::take(&mut self.galois).into_values() {
            self.release_key(&old);
        }
        let coeffs = sk.s_coeffs();
        let (la, lb) = (self.lane_a, self.lane_b);
        let (w, k) = self.lane(la);
        let sk_a = recipes::upload_eval(w, k, &coeffs)?;
        let sk_b = if lb == la {
            sk_a
        } else {
            let (w, k) = self.lane(lb);
            let up = recipes::upload_eval(w, k, &coeffs);
            up.inspect_err(|_| drop(self.cluster.free(sk_a)))?
        };
        self.sk = Some((sk_a, sk_b));
        self.host_sk = Some(sk.clone());
        Ok(sk)
    }

    fn resident_key(&self) -> Result<(DeviceBuffer, DeviceBuffer), RpuError> {
        self.sk
            .ok_or_else(|| no_key("resident secret key", "keygen"))
    }

    /// Encrypts a plaintext vector: randomness is sampled on the host
    /// (the same stream [`RlweContext::encrypt`] draws), then
    /// `b̂ = â ⊙ ŝ ⊕ payload̂` runs entirely on the payload lane. With
    /// two component lanes the mask is uploaded to both (replicating
    /// host-known coefficients is cheaper than a cross-lane move) and
    /// the payload lane's working copy is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior
    /// [`keygen`](RlweEvaluator::keygen), [`RpuError::Buffer`] on heap
    /// exhaustion, or [`RpuError::Exec`] if a dispatch faults.
    ///
    /// # Panics
    ///
    /// Panics if `message.len() != n`.
    pub fn encrypt(
        &mut self,
        message: &[u128],
        rng: &mut Splitmix,
    ) -> Result<DeviceCiphertext, RpuError> {
        let (_, sk) = self.resident_key()?;
        let (mask, payload) = self.ctx.sample_mask_and_payload(message, rng);
        let (la, lb) = (self.lane_a, self.lane_b);
        let mut t = Temps::default();
        let ct = (|| {
            let a = if lb == la {
                None
            } else {
                let (w, k) = self.lane(la);
                Some(t.hold(recipes::upload_eval(w, k, &mask)?))
            };
            let (w, k) = self.lane(lb);
            let (a_work, b) = recipes::encrypt(w, k, sk, &mask, &payload)?;
            t.hold(a_work);
            Ok(DeviceCiphertext {
                a: a.unwrap_or(a_work),
                b: t.hold(b),
            })
        })();
        self.settle(t, ct)
    }

    /// Homomorphic addition over resident ciphertexts: one pointwise
    /// dispatch per component, on that component's lane — with two
    /// lanes the two dispatches overlap.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles, heap exhaustion, or a
    /// dispatch fault.
    pub fn add(
        &mut self,
        x: &DeviceCiphertext,
        y: &DeviceCiphertext,
    ) -> Result<DeviceCiphertext, RpuError> {
        self.componentwise(|k| &k.pwadd, x, (y.a, y.b))
    }

    /// Homomorphic subtraction over resident ciphertexts (per-component
    /// dispatches, like [`add`](RlweEvaluator::add)).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles, heap exhaustion, or a
    /// dispatch fault.
    pub fn sub(
        &mut self,
        x: &DeviceCiphertext,
        y: &DeviceCiphertext,
    ) -> Result<DeviceCiphertext, RpuError> {
        self.componentwise(|k| &k.pwsub, x, (y.a, y.b))
    }

    /// `(op(x.a, y.0) on the mask lane, op(x.b, y.1) on the payload lane)`.
    fn componentwise(
        &mut self,
        pick: Pick,
        x: &DeviceCiphertext,
        y: (DeviceBuffer, DeviceBuffer),
    ) -> Result<DeviceCiphertext, RpuError> {
        let a = self.pointwise_on(self.lane_a, pick, x.a, y.0)?;
        let b = self.pointwise_on(self.lane_b, pick, x.b, y.1);
        let b = b.inspect_err(|_| drop(self.cluster.free(a)))?;
        Ok(DeviceCiphertext { a, b })
    }

    /// Multiplication by a plaintext polynomial (small coefficients):
    /// the plaintext is uploaded and forward-transformed once per
    /// component lane, then each component is multiplied on its own
    /// lane.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on heap exhaustion or a dispatch fault.
    ///
    /// # Panics
    ///
    /// Panics if `plain.len() != n`.
    pub fn mul_plain(
        &mut self,
        x: &DeviceCiphertext,
        plain: &[u128],
    ) -> Result<DeviceCiphertext, RpuError> {
        assert_eq!(
            plain.len(),
            self.ctx.params().n,
            "plaintext length must equal n"
        );
        let (la, lb) = (self.lane_a, self.lane_b);
        let mut t = Temps::default();
        let ct = (|| {
            let (w, k) = self.lane(la);
            let p_a = t.hold(recipes::upload_eval(w, k, plain)?);
            let p_b = if lb == la {
                p_a
            } else {
                let (w, k) = self.lane(lb);
                t.hold(recipes::upload_eval(w, k, plain)?)
            };
            self.componentwise(|k| &k.pwmul, x, (p_a, p_b))
        })();
        self.settle(t, ct)
    }

    /// Decrypts a resident ciphertext with the resident secret key:
    /// `â ⊙ ŝ` runs on the mask lane, crosses to the payload lane over
    /// the host link (the one inter-lane move of the pipeline), then
    /// `b̂ ⊖ â·ŝ` and the inverse NTT run there; only the noisy
    /// coefficient vector is downloaded, and the centered `mod t`
    /// decoding to plaintext happens on the host.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior
    /// [`keygen`](RlweEvaluator::keygen), or [`RpuError`] on dispatch
    /// failure.
    pub fn decrypt(&mut self, ct: &DeviceCiphertext) -> Result<Vec<u128>, RpuError> {
        let (sk, _) = self.resident_key()?;
        // â ⊙ ŝ on the mask lane; a failed migration leaves it live there.
        let t = self.pointwise_on(self.lane_a, |k| &k.pwmul, ct.a, sk)?;
        let moved = self.cluster.migrate(t, self.lane_b);
        let t = moved.inspect_err(|_| drop(self.cluster.free(t)))?;
        let (w, k) = self.lane(self.lane_b);
        let noisy = recipes::phase_tail(w, k, ct.b, t)?;
        Ok(self.ctx.decode_noisy(&noisy))
    }

    /// Downloads a resident ciphertext into host form (via on-device
    /// inverse NTTs on each component's lane), e.g. to cross-check
    /// against [`RlweContext`].
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles or dispatch failure.
    pub fn download_ciphertext(&mut self, ct: &DeviceCiphertext) -> Result<Ciphertext, RpuError> {
        let (w, k) = self.lane(self.lane_a);
        let a = recipes::download_coeffs(w, k, ct.a)?;
        let (w, k) = self.lane(self.lane_b);
        let b = recipes::download_coeffs(w, k, ct.b)?;
        Ok(Ciphertext::from_coeff_parts(&self.ctx, a, b)?)
    }

    /// Frees both components of a resident ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles.
    pub fn free_ciphertext(&mut self, ct: DeviceCiphertext) -> Result<(), RpuError> {
        self.cluster.free(ct.a)?;
        self.cluster.free(ct.b)
    }

    // ------------------------------------------------------------------
    // Key switching: relinearization and Galois rotation
    // ------------------------------------------------------------------

    /// The gadget digit base exponent key-switch keys are generated
    /// with (`log2(B)`, default 16).
    pub fn key_base_log(&self) -> u32 {
        self.ksk_base_log
    }

    /// Overrides the gadget digit base for *future* key generations.
    /// Smaller bases mean more digits (more dispatches, less noise per
    /// digit); the default 16 is comfortable for every supported prime.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] outside `[1, 64]`.
    pub fn set_key_base_log(&mut self, base_log: u32) -> Result<(), RpuError> {
        self.ksk_base_log = recipes::check_ksk_base_log(base_log)?;
        Ok(())
    }

    /// The resident relinearization key, if generated.
    pub fn relin_key(&self) -> Option<&DeviceKeySwitchKey> {
        self.relin.as_ref()
    }

    /// The resident Galois key for element `g`, if generated.
    pub fn galois_key(&self, g: usize) -> Option<&DeviceKeySwitchKey> {
        self.galois.get(&g).map(|(key, _)| key)
    }

    /// Best-effort release of a whole device key (handles are
    /// known-live, so the frees cannot fail in practice).
    fn release_key(&mut self, key: &DeviceKeySwitchKey) {
        for buf in key.handles() {
            let _ = self.cluster.free(buf);
        }
    }

    /// Uploads host key-switch key material to **every** lane
    /// (`2·ℓ·n` resident elements per lane — the price of letting any
    /// lane steal any digit job).
    fn upload_keyswitch_key(&mut self, ksk: &KeySwitchKey) -> Result<DeviceKeySwitchKey, RpuError> {
        let mut key = DeviceKeySwitchKey {
            per_lane: Vec::with_capacity(self.kernels.len()),
        };
        for lane in 0..self.kernels.len() {
            let (w, k) = self.lane(lane);
            match recipes::upload_ksk(w, k, ksk.base_log(), ksk.share(0, 0)) {
                Ok(lane_key) => key.per_lane.push(lane_key),
                Err(e) => {
                    // Heap exhaustion must not strand the lanes done so far.
                    self.release_key(&key);
                    return Err(e);
                }
            }
        }
        Ok(key)
    }

    /// Generates a relinearization key — host-side gadget encryptions of
    /// `s²` drawn from `rng` (the same stream [`RlweContext::relin_keygen`]
    /// uses, so host and device key material match bit-exactly) — and
    /// uploads it to every lane, replacing any previous relin key.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior
    /// [`keygen`](RlweEvaluator::keygen), or [`RpuError`] on heap
    /// exhaustion / dispatch failure during upload.
    pub fn relin_keygen(&mut self, rng: &mut Splitmix) -> Result<(), RpuError> {
        let sk = self.require_host_key()?;
        let rk = self.ctx.relin_keygen(sk, rng, self.ksk_base_log);
        let dev = self.upload_keyswitch_key(rk.key_switch_key())?;
        if let Some(old) = self.relin.replace(dev) {
            self.release_key(&old);
        }
        Ok(())
    }

    /// Generates and uploads the Galois key for the automorphism
    /// `x → x^g`, and compiles the `σ_g` coefficient-permutation kernel
    /// on both component lanes. Returns the (normalized) Galois element.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior keygen,
    /// [`RpuError::Ring`] for an even `g`, or [`RpuError`] on upload
    /// failure.
    pub fn galois_keygen(&mut self, g: usize, rng: &mut Splitmix) -> Result<usize, RpuError> {
        let sk = self.require_host_key()?;
        let gk = self.ctx.galois_keygen(sk, g, rng, self.ksk_base_log)?;
        let g = gk.galois_element();
        let params = self.ctx.params();
        let spec = AutomorphismSpec::new(params.n, params.q, g, self.style);
        let autom = [
            self.cluster.compile_on(self.lane_a, &spec)?,
            self.cluster.compile_on(self.lane_b, &spec)?,
        ];
        let dev = self.upload_keyswitch_key(gk.key_switch_key())?;
        if let Some((old, _)) = self.galois.insert(g, (dev, autom)) {
            self.release_key(&old);
        }
        Ok(g)
    }

    /// Generates the rotation key for `steps` positions
    /// (`g = 5^steps mod 2n`); see
    /// [`galois_keygen`](RlweEvaluator::galois_keygen).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] as `galois_keygen` does.
    pub fn rotation_keygen(&mut self, steps: usize, rng: &mut Splitmix) -> Result<usize, RpuError> {
        let g = self.ctx.galois_element(steps);
        self.galois_keygen(g, rng)
    }

    fn require_host_key(&self) -> Result<&SecretKey, RpuError> {
        let sk = self.host_sk.as_ref();
        sk.ok_or_else(|| no_key("resident secret key", "keygen"))
    }

    /// The gadget key-switch inner product, scheduled across **all**
    /// lanes: `src_coeffs` is decomposed into `ℓ` digits, and each digit
    /// becomes one work-stealing job ([`recipes::ksw_digit`] against
    /// the stealing lane's resident key part and accumulators). Per-lane
    /// partial sums are then folded onto the component lanes — modular
    /// addition is associative-commutative, so the result is bit-exact
    /// whatever the steal order. Returns `(Σ d̂_j·â_j on lane_a,
    /// Σ d̂_j·b̂_j on lane_b)`.
    fn key_switch(
        &mut self,
        src_coeffs: &[u128],
        key: &DeviceKeySwitchKey,
    ) -> Result<(DeviceBuffer, DeviceBuffer), RpuError> {
        let digits = gadget_decompose(src_coeffs, key.base_log(), key.levels());
        let mut t = Temps::default();
        let totals = (|| {
            let mut accs = Vec::with_capacity(self.kernels.len());
            for lane in 0..self.kernels.len() {
                let acc = recipes::accumulators(self.cluster.lane_session(lane), src_coeffs.len())?;
                accs.push((t.hold(acc.0), t.hold(acc.1)));
            }
            let (kernels, accs) = (&self.kernels, &accs);
            let jobs = digits.iter().enumerate().map(|(j, digit)| {
                Box::new(move |w: &mut RpuSession<'_>| {
                    let l = w.lane_index();
                    let target = (&kernels[l], key.per_lane[l].part(j), accs[l]);
                    recipes::ksw_digit(w, digit, [target])
                }) as LaneJob<'_, ()>
            });
            self.cluster.run_jobs(jobs.collect())?;
            let tot_a = self.fold(&mut t, accs.iter().map(|acc| acc.0), self.lane_a)?;
            let tot_b = self.fold(&mut t, accs.iter().map(|acc| acc.1), self.lane_b)?;
            Ok((tot_a, tot_b))
        })();
        t.settle(totals, |&(a, b)| [a, b], |buf| self.cluster.free(buf))
    }

    /// Sums per-lane partial accumulators into the copy on `home`
    /// (migrating the others over the host link).
    fn fold(
        &mut self,
        t: &mut Temps,
        partials: impl Iterator<Item = DeviceBuffer>,
        home: usize,
    ) -> Result<DeviceBuffer, RpuError> {
        let partials: Vec<DeviceBuffer> = partials.collect();
        let tot = partials[home];
        for (_, &acc) in partials.iter().enumerate().filter(|(l, _)| *l != home) {
            let moved = t.hold(self.cluster.migrate(acc, home)?);
            let (w, k) = self.lane(home);
            w.dispatch(&k.pwadd, &[tot, moved], &[tot])?;
            w.free(moved)?;
        }
        Ok(tot)
    }

    /// Ciphertext×ciphertext multiplication on the RPU: tensor the
    /// degree-2 ciphertext — `c2 = â_x ⊙ â_y` on the mask lane,
    /// `c0 = b̂_x ⊙ b̂_y` on the payload lane, and the cross terms
    /// `c1 = â_x ⊙ b̂_y ⊕ â_y ⊙ b̂_x` on the mask lane (the payload
    /// components are replicated across once) — then relinearize `c2`
    /// back to degree 1: inverse-NTT it, gadget-decompose on the host,
    /// and run the `ℓ` digit products through the cluster's
    /// work-stealing scheduler against the resident relinearization key
    /// ([`relin_keygen`](RlweEvaluator::relin_keygen)).
    ///
    /// Decrypts to `m_x·m_y mod (x^n + 1, t)`, bit-exactly equal to the
    /// host reference [`RlweContext::mul`] on any lane count.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a relinearization key, or
    /// [`RpuError`] on heap exhaustion / dispatch failure.
    pub fn mul(
        &mut self,
        x: &DeviceCiphertext,
        y: &DeviceCiphertext,
    ) -> Result<DeviceCiphertext, RpuError> {
        let relin = self.relin.clone();
        let relin = relin.ok_or_else(|| no_key("relinearization key", "relin_keygen"))?;
        let (la, lb) = (self.lane_a, self.lane_b);
        let mut t = Temps::default();
        let ct = (|| {
            // Tensor: c2 on the mask lane, c0 on the payload lane.
            let c2 = t.hold(self.pointwise_on(la, |k| &k.pwmul, x.a, y.a)?);
            let c0 = t.hold(self.pointwise_on(lb, |k| &k.pwmul, x.b, y.b)?);
            // Cross terms on the mask lane; replicate the payload
            // components over unless both already share one lane.
            let (xb, yb) = if lb == la {
                (x.b, y.b)
            } else {
                let xb = t.hold(self.cluster.replicate(&x.b, la)?);
                (xb, t.hold(self.cluster.replicate(&y.b, la)?))
            };
            let (w, k) = self.lane(la);
            let c1 = t.hold(recipes::cross_terms(w, k, (x.a, xb), (y.a, yb))?);
            // Relinearize: digits of c2 through the scheduled key switch.
            let c2_coeffs = recipes::download_coeffs(w, k, c2)?;
            let (ka, kb) = self.key_switch(&c2_coeffs, &relin)?;
            t.hold(ka);
            t.hold(kb);
            let a = t.hold(self.pointwise_on(la, |k| &k.pwadd, c1, ka)?);
            let b = self.pointwise_on(lb, |k| &k.pwadd, c0, kb)?;
            Ok(DeviceCiphertext { a, b })
        })();
        self.settle(t, ct)
    }

    /// Homomorphic rotation by `steps` positions: applies the Galois
    /// automorphism `x → x^{5^steps mod 2n}` via
    /// [`apply_galois`](RlweEvaluator::apply_galois). Requires the
    /// matching [`rotation_keygen`](RlweEvaluator::rotation_keygen).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without the rotation key, or
    /// [`RpuError`] on dispatch failure.
    pub fn rotate(
        &mut self,
        ct: &DeviceCiphertext,
        steps: usize,
    ) -> Result<DeviceCiphertext, RpuError> {
        let g = self.ctx.galois_element(steps);
        self.apply_galois(ct, g)
    }

    /// Applies the Galois automorphism `x → x^g` to a resident
    /// ciphertext: each component is inverse-NTT'd and permuted by the
    /// on-device `σ_g` coefficient-permutation kernel (the `vgather`
    /// program compiled at
    /// [`galois_keygen`](RlweEvaluator::galois_keygen)); the permuted
    /// payload is re-transformed on its lane while the permuted mask's
    /// coefficients feed the gadget key switch that brings the result
    /// back under the original key (the switched mask is rebuilt
    /// entirely from key material). Decrypts to `σ_g(m) mod t`,
    /// bit-exactly equal to [`RlweContext::apply_galois`] on any lane
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] if no Galois key for `g` is
    /// resident, or [`RpuError`] on dispatch failure.
    pub fn apply_galois(
        &mut self,
        ct: &DeviceCiphertext,
        g: usize,
    ) -> Result<DeviceCiphertext, RpuError> {
        let g = g % (2 * self.ctx.params().n);
        let (key, [autom_a, autom_b]) = self.galois.get(&g).cloned().ok_or_else(|| {
            RpuError::Config(format!(
                "no Galois key for g = {g}: call RlweEvaluator::galois_keygen({g}, …) first"
            ))
        })?;
        let mut t = Temps::default();
        let out = (|| {
            let (w, k) = self.lane(self.lane_a);
            let a_perm = t.hold(recipes::galois_permute(w, k, &autom_a, ct.a)?);
            let sigma_a = w.download(&a_perm)?;
            let (w, k) = self.lane(self.lane_b);
            let b_perm = t.hold(recipes::galois_permute(w, k, &autom_b, ct.b)?);
            let sigma_b = t.hold(w.alloc(b_perm.len())?);
            w.dispatch(&k.fwd, &[b_perm], &[sigma_b])?;
            // a'' is purely the accumulated mask-side product; b'' folds
            // the accumulated payload-side product into σ(b).
            let (ka, kb) = self.key_switch(&sigma_a, &key)?;
            t.hold(ka);
            t.hold(kb);
            let b = self.pointwise_on(self.lane_b, |k| &k.pwadd, sigma_b, kb)?;
            Ok(DeviceCiphertext { a: ka, b })
        })();
        self.settle(t, out)
    }

    /// The full negacyclic polynomial product `a ·_neg b` over resident
    /// *coefficient-domain* buffers, as one fused kernel dispatch
    /// (forward NTT ×2 → pointwise multiply → inverse NTT) — the
    /// dataflow of a ciphertext–ciphertext multiplication (Fig. 1).
    /// The dispatch runs on whichever lane holds the operands (the
    /// kernel is compiled there on first use); operands on different
    /// lanes are rejected ([`BufferError::ForeignLane`]) rather than
    /// silently moved.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale or cross-lane handles, heap
    /// exhaustion, or a dispatch fault.
    pub fn convolve(
        &mut self,
        a: &DeviceBuffer,
        b: &DeviceBuffer,
    ) -> Result<DeviceBuffer, RpuError> {
        let lane = self
            .cluster
            .locate(a)
            .ok_or(RpuError::Buffer(BufferError::StaleHandle { id: a.id() }))?;
        self.cluster.check_residency(lane, &[*b])?;
        let params = self.ctx.params();
        let spec = ConvolutionSpec::new(params.n, params.q, self.style);
        let conv = self.cluster.compile_on(lane, &spec)?;
        recipes::pointwise(self.cluster.lane_session(lane), &conv, *a, *b)
    }
}
