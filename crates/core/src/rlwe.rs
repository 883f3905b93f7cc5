//! [`RlweEvaluator`]: single-modulus RLWE ciphertexts on an
//! [`RpuCluster`], placed by *component* — the one-tower instance of
//! the device core [`crate::evaluator`].
//!
//! Every operation the leveled face shares — encrypt, add/sub, the
//! tensor + relinearize `mul`, the key switch, decrypt, download, free —
//! and the key state behind them are the core's, run under
//! [`Placement::Component`]: every mask `â` lives on lane 0 and every
//! payload `b̂` on lane `1 % lanes`, so per-component dispatches land on
//! different devices and overlap, and the key-switch digits of `mul` /
//! `rotate` are work-stolen over every lane against key material
//! replicated on each. [`RlweEvaluator`] is the core's [`Evaluator`]
//! over an [`RlweContext`], so the accessors both faces share (context,
//! cluster, timing, gadget base, relin key) are the core's. This module
//! owns only what is specific to the single-modulus face: `mul_plain`,
//! Galois key generation and rotation, and `convolve`, the fused
//! negacyclic product ([`ConvolutionSpec`]) over resident coefficient
//! buffers.
//!
//! Results are verified against the host-side [`RlweContext`] reference
//! in `tests/tests/rlwe_on_rpu.rs` and `keyswitch.rs`: the evaluator
//! draws the same randomness stream, so device ciphertexts equal host
//! ciphertexts exactly, on any lane count.

use crate::buffer::{BufferError, DeviceBuffer};
use crate::evaluator::{no_key, Evaluator, Pick, Placement, Towers};
use crate::lanes::RpuCluster;
use crate::recipes;
use crate::run::Rpu;
use crate::session::RpuSession;
use crate::{DeviceKeySwitchKey, RpuError};
use rpu_codegen::{AutomorphismSpec, CodegenStyle, ConvolutionSpec};
use rpu_ntt::rlwe::{Ciphertext, RlweContext, RlweParams, SecretKey, Splitmix};

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

impl From<DeviceCiphertext> for Towers {
    fn from(ct: DeviceCiphertext) -> Self {
        [vec![ct.a], vec![ct.b]]
    }
}

impl From<Towers> for DeviceCiphertext {
    fn from([a, b]: Towers) -> Self {
        DeviceCiphertext { a: a[0], b: b[0] }
    }
}

/// Runs the toy RLWE scheme's operations as chains of kernel dispatches
/// over device-resident buffers, sharded across the lanes of an
/// [`RpuCluster`]: the device evaluator over an [`RlweContext`], placed
/// by component.
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
pub type RlweEvaluator<'a> = Evaluator<'a, RlweContext, SecretKey>;

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
        Evaluator::open(rpu, Placement::Component, params.n, &[params.q], ctx, style)
    }

    /// The mask-component lane's session (cache statistics, manual
    /// buffer work for [`convolve`](RlweEvaluator::convolve) operands).
    pub fn session(&mut self) -> &mut RpuSession<'a> {
        self.cluster.lane_session(0)
    }

    /// Mutable access to the cluster (lane sessions, buffer migration).
    pub fn cluster_mut(&mut self) -> &mut RpuCluster<'a> {
        &mut self.cluster
    }

    /// The `(mask, payload)` component lanes.
    pub fn component_lanes(&self) -> (usize, usize) {
        let [a, b] = Placement::Component.homes(0, self.cluster().lane_count());
        (a, b)
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
        self.install_key(&sk, &[sk.s_coeffs()])?;
        Ok(sk)
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
        let ct = self.encrypt_towers(|ctx| {
            let (mask, payload) = ctx.sample_mask_and_payload(message, rng);
            (vec![mask], vec![payload])
        });
        ct.map(Into::into)
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
        self.componentwise(|k| &k.pwadd, x, &(*y).into())
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
        self.componentwise(|k| &k.pwsub, x, &(*y).into())
    }

    /// `(op(x.a, y's mask) on the mask lane, op(x.b, y's payload) on the
    /// payload lane)`.
    fn componentwise(
        &mut self,
        pick: Pick,
        x: &DeviceCiphertext,
        y: &Towers,
    ) -> Result<DeviceCiphertext, RpuError> {
        let ct = self.ops().pointwise_ct(pick, &(*x).into(), y);
        ct.map(Into::into)
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
        let n = self.ctx.params().n;
        assert_eq!(plain.len(), n, "plaintext length must equal n");
        let p = self.ops().upload_eval(&[plain])?;
        let ct = self.componentwise(|k| &k.pwmul, x, &p);
        self.ops().release(p.concat());
        ct
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
        let noisy = self.phase_towers(&(*ct).into())?;
        Ok(self.ctx.decode_noisy(&noisy[0]))
    }

    /// Downloads a resident ciphertext into host form (via on-device
    /// inverse NTTs on each component's lane), e.g. to cross-check
    /// against [`RlweContext`].
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] on stale handles or dispatch failure.
    pub fn download_ciphertext(&mut self, ct: &DeviceCiphertext) -> Result<Ciphertext, RpuError> {
        let [mut a, mut b] = self.ops().download(&(*ct).into())?;
        Ok(Ciphertext::from_coeff_parts(
            &self.ctx,
            a.remove(0),
            b.remove(0),
        )?)
    }

    /// Frees both components of a resident ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles.
    pub fn free_ciphertext(&mut self, ct: DeviceCiphertext) -> Result<(), RpuError> {
        self.ops().free(ct.into())
    }

    /// The resident Galois key for element `g`, if generated.
    pub fn galois_key(&self, g: usize) -> Option<&DeviceKeySwitchKey> {
        self.galois.get(&g).map(|gk| &gk.key)
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
        let base_log = self.key_base_log();
        let rk = self.ctx.relin_keygen(self.host_key()?, rng, base_log);
        self.set_relin(rk.key_switch_key())
    }

    /// Generates and uploads the Galois key for the automorphism
    /// `x → x^g`, and compiles the `σ_g` kernel — a permutation of
    /// Pease-order evaluation points — on both component lanes. Returns
    /// the (normalized) Galois element.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] without a prior keygen,
    /// [`RpuError::Ring`] for an even `g`, or [`RpuError`] on upload
    /// failure.
    pub fn galois_keygen(&mut self, g: usize, rng: &mut Splitmix) -> Result<usize, RpuError> {
        let base_log = self.key_base_log();
        let gk = self.ctx.galois_keygen(self.host_key()?, g, rng, base_log)?;
        let (g, RlweParams { n, q, .. }) = (gk.galois_element(), self.ctx.params());
        let spec = AutomorphismSpec::new(n, q, g, self.style);
        self.set_galois(g, &spec, gk.key_switch_key())?;
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
        self.mul_towers(&(*x).into(), &(*y).into()).map(Into::into)
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
    /// ciphertext without leaving evaluation form: each component is
    /// permuted on its lane by the `σ_g` kernel (the `vgather` program
    /// over Pease-order evaluation points compiled at
    /// [`galois_keygen`](RlweEvaluator::galois_keygen)). The permuted
    /// payload stays as it is; only the permuted mask is inverse-NTT'd,
    /// for its coefficients to feed the gadget key switch that brings
    /// the result back under the original key (the switched mask is
    /// rebuilt entirely from key material). Decrypts to `σ_g(m) mod t`,
    /// bit-exactly equal to [`RlweContext::apply_galois`] — which
    /// permutes coefficients, an independent routing — on any lane
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
        let gk = self.galois.get(&g).cloned();
        let gk = gk.ok_or_else(|| no_key(&format!("Galois key for g = {g}"), "galois_keygen"))?;
        self.ops().apply_galois(&gk, &(*ct).into()).map(Into::into)
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
        let cluster = &mut self.cluster;
        let lane = cluster
            .locate(a)
            .ok_or(RpuError::Buffer(BufferError::StaleHandle { id: a.id() }))?;
        cluster.check_residency(lane, &[*b])?;
        let params = self.ctx.params();
        let spec = ConvolutionSpec::new(params.n, params.q, self.style);
        let conv = cluster.compile_on(lane, &spec)?;
        recipes::apply(cluster.lane_session(lane), &conv, &[*a, *b])
    }
}
