//! A minimal RLWE symmetric encryption scheme — the workload the RPU
//! exists to accelerate (Section II-A and Fig. 1 of the paper) — over a
//! single modulus.
//!
//! The host has one scheme, written over `k ≥ 1` RNS towers in the
//! private `scheme` module; this is its one-tower face and
//! [`crate::leveled`] its chain face, and the two agree bit for bit on
//! a one-prime chain (`tests/one_scheme.rs`). Keygen, sampling,
//! encryption, the phase, key-switch keys, the gadget key switch and
//! tensor+relinearize delegate; what lives here is what a single
//! modulus adds — [`RlweParams`], the `u128` `decode_noisy`, plaintext
//! multiplication, Galois keys and rotation.
//!
//! A ciphertext is a pair `(a, b = a·s + t·e + m)` over
//! `Z_q[x]/(x^n + 1)` with a small ternary secret `s` and small error
//! `e`: the plaintext rides in the **least-significant** residues and
//! the noise is lifted by the plaintext modulus `t` (the BGV-style
//! noise placement). That choice is what makes single-modulus
//! ciphertext×ciphertext multiplication *exact*: the tensor
//! `(m1 + t·e1)(m2 + t·e2) = m1·m2 + t·(…)` needs no rescaling, so the
//! whole multiply — tensor, gadget decomposition, relinearization —
//! runs in `Z_q` end to end and decrypts with a centered `mod t`.
//! (The earlier MSB/`Δ·m` encoding cannot do this: `Δ² > q`, so a
//! BFV-exact multiply needs the `t/q` rounding of an un-reduced tensor,
//! which a single-modulus pipeline never materializes.)
//!
//! Supported homomorphic operations: addition, subtraction, plaintext
//! multiplication, ciphertext×ciphertext multiplication with
//! gadget-decomposed relinearization ([`RlweContext::mul`] /
//! [`RelinKey`]), and Galois rotation ([`RlweContext::apply_galois`] /
//! [`GaloisKey`]). Every polynomial product runs through the NTT —
//! exactly the dataflow the RPU accelerates — and every operation here
//! is the bit-exact host reference for the on-device `RlweEvaluator`.
//!
//! This is a pedagogical implementation for driving realistic RLWE
//! traffic through the stack; it makes no constant-time or
//! parameter-security claims.

pub use crate::scheme::KeySwitchKey;
use crate::scheme::{self, Pair};
use crate::{Ntt128Plan, NttError, Polynomial};
use std::slice::from_ref;
use std::sync::Arc;

/// Parameters of the toy scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RlweParams {
    /// Ring degree (power of two ≥ 2).
    pub n: usize,
    /// Ciphertext modulus (an NTT prime for `2n`).
    pub q: u128,
    /// Plaintext modulus `t << q`.
    pub t: u128,
}

/// A secret key: a ternary polynomial in NTT (evaluation) form.
#[derive(Debug, Clone)]
pub struct SecretKey {
    s: Polynomial,
}

impl SecretKey {
    /// The secret polynomial's natural-order coefficients (converted
    /// back out of evaluation form) — what an accelerator runtime
    /// uploads before transforming the key on-device.
    pub fn s_coeffs(&self) -> Vec<u128> {
        self.s.coeffs()
    }
}

/// A symmetric RLWE ciphertext `(a, b)`.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    a: Polynomial,
    b: Polynomial,
}

impl Ciphertext {
    /// The mask component `a`.
    pub fn a(&self) -> &Polynomial {
        &self.a
    }

    /// The payload component `b = a·s + t·e + m`.
    pub fn b(&self) -> &Polynomial {
        &self.b
    }

    /// Both components as one-tower ring elements.
    fn towers(&self) -> (&[Polynomial], &[Polynomial]) {
        (from_ref(&self.a), from_ref(&self.b))
    }

    /// A one-tower pair of the tower-generic scheme as a ciphertext.
    fn from_towers((a, b): Pair<Polynomial>) -> Self {
        Ciphertext {
            a: only(a),
            b: only(b),
        }
    }

    /// Rebuilds a ciphertext from natural-order coefficient vectors
    /// (e.g. downloaded from an accelerator); both components are
    /// converted to the evaluation form ciphertexts are stored in.
    ///
    /// # Errors
    ///
    /// Returns [`NttError::InvalidDegree`] if either length does not
    /// match the context's ring degree.
    pub fn from_coeff_parts(
        ctx: &RlweContext,
        a: Vec<u128>,
        b: Vec<u128>,
    ) -> Result<Self, NttError> {
        Ok(Ciphertext {
            a: scheme::lift(&ctx.plan, a)?,
            b: scheme::lift(&ctx.plan, b)?,
        })
    }
}

/// Unwraps the one tower of a result of the tower-generic scheme.
fn only<T>(towers: Vec<T>) -> T {
    towers.into_iter().next().expect("one tower")
}

/// The encryption/decryption context.
#[derive(Debug)]
pub struct RlweContext {
    params: RlweParams,
    plan: Arc<Ntt128Plan>,
}

/// A relinearization key: switches the `s²` component of a degree-2
/// tensor ciphertext back to degree 1.
#[derive(Debug, Clone)]
pub struct RelinKey {
    ksk: KeySwitchKey,
}

impl RelinKey {
    /// The underlying key-switch key.
    pub fn key_switch_key(&self) -> &KeySwitchKey {
        &self.ksk
    }
}

/// A Galois key for the automorphism `x → x^g`: switches `σ_g(s)` back
/// to `s`. The key material encrypts `−B^j·σ_g(s)` — the negation folds
/// the rotation key switch into the same accumulate-add dataflow as
/// relinearization (one fused kernel shape serves both).
#[derive(Debug, Clone)]
pub struct GaloisKey {
    g: usize,
    ksk: KeySwitchKey,
}

impl GaloisKey {
    /// The Galois element this key switches from.
    pub fn galois_element(&self) -> usize {
        self.g
    }

    /// The underlying key-switch key.
    pub fn key_switch_key(&self) -> &KeySwitchKey {
        &self.ksk
    }
}

/// A tiny deterministic PRNG (splitmix64) so tests and examples are
/// reproducible without external dependencies.
#[derive(Debug, Clone)]
pub struct Splitmix {
    state: u64,
}

impl Splitmix {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Splitmix { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform residue below `bound`.
    pub fn below(&mut self, bound: u128) -> u128 {
        (((self.next_u64() as u128) << 64) | self.next_u64() as u128) % bound
    }

    /// A small centred error in `[-4, 4]` as a signed value.
    pub(crate) fn small_error_signed(&mut self) -> i64 {
        (self.next_u64() % 9) as i64 - 4
    }
}

impl RlweContext {
    /// Builds a context.
    ///
    /// # Errors
    ///
    /// Returns [`NttError`] if `q` does not admit a degree-`n` negacyclic
    /// NTT, or if `t >= q` (no room for noise).
    pub fn new(params: RlweParams) -> Result<Self, NttError> {
        if params.t >= params.q || params.t < 2 {
            return Err(NttError::InvalidModulus);
        }
        let plan = Polynomial::context(params.n, params.q)?;
        Ok(RlweContext { params, plan })
    }

    /// The parameters.
    pub fn params(&self) -> RlweParams {
        self.params
    }

    /// The shared ring context (NTT plan) ciphertext polynomials use.
    pub fn plan(&self) -> &Arc<Ntt128Plan> {
        &self.plan
    }

    /// The context as the one-tower ring of the tower-generic scheme.
    fn ring(&self) -> &[Arc<Ntt128Plan>] {
        from_ref(&self.plan)
    }

    /// The randomness front half of [`encrypt`](RlweContext::encrypt):
    /// samples the uniform mask `a` and the payload `m + t·e`, both as
    /// natural-order coefficient vectors — `n` mask draws, then `n`
    /// error draws. Exposed so an accelerator runtime can draw the
    /// *same* randomness stream as the host path and finish
    /// `b = a·s + payload` on-device.
    ///
    /// # Panics
    ///
    /// Panics if `message.len() != n`.
    pub fn sample_mask_and_payload(
        &self,
        message: &[u128],
        rng: &mut Splitmix,
    ) -> (Vec<u128>, Vec<u128>) {
        let (masks, payloads) =
            scheme::sample_mask_and_payload(self.ring(), self.params.t, message, rng);
        (only(masks), only(payloads))
    }

    /// Samples a ternary secret key.
    pub fn keygen(&self, rng: &mut Splitmix) -> SecretKey {
        SecretKey {
            s: only(scheme::keygen(self.ring(), rng)),
        }
    }

    /// Encrypts a plaintext vector (coefficients mod `t`) as
    /// `(a, b = a·s + t·e + m)`.
    ///
    /// # Panics
    ///
    /// Panics if `message.len() != n`.
    pub fn encrypt(&self, sk: &SecretKey, message: &[u128], rng: &mut Splitmix) -> Ciphertext {
        let t = self.params.t;
        Ciphertext::from_towers(scheme::encrypt(
            self.ring(),
            t,
            from_ref(&sk.s),
            message,
            rng,
        ))
    }

    /// Decodes a noisy phase polynomial `m + t·e (mod q)` to plaintext
    /// residues: each coefficient is centered into `(-q/2, q/2]` and
    /// reduced mod `t` — exact as long as the accumulated noise stays
    /// below `q/2`. Shared by [`decrypt`](RlweContext::decrypt) and by
    /// accelerator runtimes that download the noisy vector and finish
    /// decoding host-side.
    pub fn decode_noisy(&self, noisy: &[u128]) -> Vec<u128> {
        let (q, t) = (self.params.q, self.params.t);
        noisy
            .iter()
            .map(|&c| {
                if c > q / 2 {
                    // c represents the negative value c - q, and
                    // (c - q) mod t = (c mod t) - (q mod t) mod t
                    ((c % t) + (t - q % t) % t) % t
                } else {
                    c % t
                }
            })
            .collect()
    }

    /// Decrypts a ciphertext back to coefficients mod `t`.
    pub fn decrypt(&self, sk: &SecretKey, ct: &Ciphertext) -> Vec<u128> {
        // phase = b - a*s = m + t*e, then centered mod t
        let (a, b) = ct.towers();
        self.decode_noisy(&only(scheme::phase(from_ref(&sk.s), a, b)))
    }

    /// Homomorphic addition.
    pub fn add(&self, x: &Ciphertext, y: &Ciphertext) -> Ciphertext {
        Ciphertext {
            a: x.a.add(&y.a),
            b: x.b.add(&y.b),
        }
    }

    /// Homomorphic subtraction.
    pub fn sub(&self, x: &Ciphertext, y: &Ciphertext) -> Ciphertext {
        Ciphertext {
            a: x.a.sub(&y.a),
            b: x.b.sub(&y.b),
        }
    }

    /// Multiplication by a *plaintext* polynomial with small coefficients
    /// (noise grows with the plaintext's size; keep entries tiny).
    ///
    /// # Panics
    ///
    /// Panics if `plain.len() != n`.
    pub fn mul_plain(&self, x: &Ciphertext, plain: &[u128]) -> Ciphertext {
        assert_eq!(plain.len(), self.params.n, "plaintext length must equal n");
        let p = scheme::lift(&self.plan, plain.to_vec()).expect("length matches");
        Ciphertext {
            a: x.a.mul(&p),
            b: x.b.mul(&p),
        }
    }

    /// Generates a key-switch key for target `M` (evaluation form):
    /// `ℓ` pairs `(a_j, b_j = a_j·s + t·e_j + B^j·M)`. The randomness
    /// order is fixed — per digit, `n` mask draws then `n` error draws —
    /// so an accelerator runtime replaying the same stream produces
    /// bit-identical key material.
    fn keyswitch_keygen(
        &self,
        sk: &SecretKey,
        target: &Polynomial,
        rng: &mut Splitmix,
        base_log: u32,
    ) -> KeySwitchKey {
        let (s, target) = (from_ref(&sk.s), from_ref(target));
        scheme::keyswitch_keygen(self.ring(), self.params.t, s, target, rng, base_log)
    }

    /// Generates a relinearization key: a key-switch key for `s²`, the
    /// degree-2 component a tensor ciphertext leaves behind.
    pub fn relin_keygen(&self, sk: &SecretKey, rng: &mut Splitmix, base_log: u32) -> RelinKey {
        let s2 = sk.s.mul(&sk.s);
        RelinKey {
            ksk: self.keyswitch_keygen(sk, &s2, rng, base_log),
        }
    }

    /// Generates a Galois key for the automorphism `x → x^g`: a
    /// key-switch key for `−σ_g(s)` (negated so rotation uses the same
    /// accumulate-add key-switch as relinearization).
    ///
    /// # Errors
    ///
    /// Returns [`NttError::InvalidGaloisElement`] for even `g`.
    pub fn galois_keygen(
        &self,
        sk: &SecretKey,
        g: usize,
        rng: &mut Splitmix,
        base_log: u32,
    ) -> Result<GaloisKey, NttError> {
        let sigma_s = sk.s.automorphism(g)?;
        let neg = sigma_s.scale(self.params.q - 1);
        Ok(GaloisKey {
            g: g % (2 * self.params.n),
            ksk: self.keyswitch_keygen(sk, &neg, rng, base_log),
        })
    }

    /// The Galois element realizing a rotation by `steps`
    /// ([`crate::galois_element`]: `5^steps mod 2n`).
    pub fn galois_element(&self, steps: usize) -> usize {
        crate::galois_element(self.params.n, steps)
    }

    /// The gadget-decomposed key-switch inner product: decomposes
    /// `src_coeffs` into digits and returns
    /// `(Σ_j d̂_j·â_j, Σ_j d̂_j·b̂_j)` in evaluation form — the pair the
    /// caller folds into its base ciphertext. This is the exact dataflow
    /// the RPU runs as, per digit, one NTT dispatch and two
    /// multiply-accumulate dispatches on its output.
    pub fn key_switch(&self, src_coeffs: &[u128], ksk: &KeySwitchKey) -> (Polynomial, Polynomial) {
        let (a, b) = scheme::key_switch(self.ring(), &[src_coeffs], ksk);
        (only(a), only(b))
    }

    /// Ciphertext×ciphertext multiplication: tensor to the degree-2
    /// ciphertext `(c0, c1, c2) = (b1·b2, a1·b2 + b1·a2, a1·a2)` whose
    /// phase is `c0 − c1·s + c2·s²`, then relinearize the `s²` component
    /// back to degree 1 with the gadget-decomposed key switch. Exact in
    /// `Z_q`; decrypts to `m1·m2 mod (x^n + 1, t)` while the accumulated
    /// noise stays below `q/2`.
    pub fn mul(&self, rk: &RelinKey, x: &Ciphertext, y: &Ciphertext) -> Ciphertext {
        Ciphertext::from_towers(scheme::mul(self.ring(), &rk.ksk, x.towers(), y.towers()))
    }

    /// Applies the Galois automorphism `x → x^g` homomorphically:
    /// permutes both components (an encryption of `σ_g(m)` under
    /// `σ_g(s)`), then key-switches back to `s` using the digits of the
    /// permuted mask. Decrypts to `σ_g(m) mod t`.
    ///
    /// # Errors
    ///
    /// Returns [`NttError::InvalidGaloisElement`] if `gk`'s element and
    /// the requested automorphism cannot be applied (even `g`).
    pub fn apply_galois(&self, gk: &GaloisKey, ct: &Ciphertext) -> Result<Ciphertext, NttError> {
        let sigma_a = ct.a.automorphism(gk.g)?;
        let sigma_b = ct.b.automorphism(gk.g)?;
        let (ka, kb) = self.key_switch(&sigma_a.coeffs(), &gk.ksk);
        Ok(Ciphertext {
            a: ka,
            b: sigma_b.add(&kb),
        })
    }

    /// The expected plaintext of a rotation: `σ_g(m) mod (x^n + 1, t)`
    /// — the reference tests compare decrypted rotations against.
    ///
    /// # Errors
    ///
    /// Returns [`NttError::InvalidGaloisElement`] for even `g`.
    pub fn rotate_plaintext(&self, message: &[u128], g: usize) -> Result<Vec<u128>, NttError> {
        let t = self.params.t;
        let reduced: Vec<u128> = message.iter().map(|&v| v % t).collect();
        crate::apply_automorphism(&reduced, g, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::cached_prime;

    fn ctx(n: usize) -> RlweContext {
        let q = cached_prime(100, 2 * n as u128);
        RlweContext::new(RlweParams { n, q, t: 65537 }).expect("valid params")
    }

    #[test]
    fn rejects_bad_plaintext_modulus() {
        let q = cached_prime(100, 64);
        assert!(RlweContext::new(RlweParams { n: 32, q, t: q }).is_err());
        assert!(RlweContext::new(RlweParams { n: 32, q, t: 1 }).is_err());
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let c = ctx(64);
        let mut rng = Splitmix::new(7);
        let sk = c.keygen(&mut rng);
        let msg: Vec<u128> = (0..64).map(|i| (i * 31) % 65537).collect();
        let ct = c.encrypt(&sk, &msg, &mut rng);
        assert_eq!(c.decrypt(&sk, &ct), msg);
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let c = ctx(32);
        let mut rng = Splitmix::new(1);
        let sk = c.keygen(&mut rng);
        let msg = vec![5u128; 32];
        let ct1 = c.encrypt(&sk, &msg, &mut rng);
        let ct2 = c.encrypt(&sk, &msg, &mut rng);
        assert_ne!(ct1.a.coeffs(), ct2.a.coeffs(), "fresh randomness per ct");
        assert_eq!(c.decrypt(&sk, &ct1), c.decrypt(&sk, &ct2));
    }

    #[test]
    fn homomorphic_addition() {
        let c = ctx(64);
        let mut rng = Splitmix::new(42);
        let sk = c.keygen(&mut rng);
        let m1: Vec<u128> = (0..64).map(|i| i % 100).collect();
        let m2: Vec<u128> = (0..64).map(|i| (i * 7 + 1) % 100).collect();
        let ct = c.add(
            &c.encrypt(&sk, &m1, &mut rng),
            &c.encrypt(&sk, &m2, &mut rng),
        );
        let expect: Vec<u128> = m1.iter().zip(&m2).map(|(&a, &b)| (a + b) % 65537).collect();
        assert_eq!(c.decrypt(&sk, &ct), expect);
    }

    #[test]
    fn plaintext_multiplication_by_monomial() {
        // multiply by x: a negacyclic rotation of the message
        let n = 32usize;
        let c = ctx(n);
        let mut rng = Splitmix::new(3);
        let sk = c.keygen(&mut rng);
        let msg: Vec<u128> = (1..=n as u128).collect();
        let ct = c.encrypt(&sk, &msg, &mut rng);
        let mut x_poly = vec![0u128; n];
        x_poly[1] = 1;
        let rotated = c.mul_plain(&ct, &x_poly);
        let got = c.decrypt(&sk, &rotated);
        // x * sum(m_i x^i) = -m_{n-1} + m_0 x + ...; mod t the sign flip
        // is t - m_{n-1}
        assert_eq!(got[0], 65537 - n as u128);
        assert_eq!(got[1], msg[0]);
        assert_eq!(got[n - 1], msg[n - 2]);
    }

    #[test]
    fn homomorphic_subtraction() {
        let c = ctx(64);
        let mut rng = Splitmix::new(11);
        let sk = c.keygen(&mut rng);
        let m1: Vec<u128> = (0..64).map(|i| 500 + i).collect();
        let m2: Vec<u128> = (0..64).map(|i| i % 100).collect();
        let ct = c.sub(
            &c.encrypt(&sk, &m1, &mut rng),
            &c.encrypt(&sk, &m2, &mut rng),
        );
        let expect: Vec<u128> = m1.iter().zip(&m2).map(|(&a, &b)| a - b).collect();
        assert_eq!(c.decrypt(&sk, &ct), expect);
    }

    #[test]
    fn sampling_front_half_matches_encrypt() {
        // Same seed through sample_mask_and_payload + manual assembly
        // must reproduce encrypt() exactly.
        let c = ctx(64);
        let mut rng1 = Splitmix::new(77);
        let mut rng2 = rng1.clone();
        let sk = c.keygen(&mut rng1);
        let _ = c.keygen(&mut rng2); // advance identically
        let msg: Vec<u128> = (0..64).map(|i| i * 3 % 65537).collect();
        let ct = c.encrypt(&sk, &msg, &mut rng1);
        let (a_coeffs, payload) = c.sample_mask_and_payload(&msg, &mut rng2);
        let mut a = Polynomial::from_coeffs(c.plan(), a_coeffs).unwrap();
        let mut p = Polynomial::from_coeffs(c.plan(), payload).unwrap();
        a.to_evaluation();
        p.to_evaluation();
        let b = a.mul(&sk.s).add(&p);
        assert_eq!(ct.a().values(), a.values());
        assert_eq!(ct.b().values(), b.values());
    }

    #[test]
    fn coeff_parts_round_trip() {
        let c = ctx(32);
        let mut rng = Splitmix::new(5);
        let sk = c.keygen(&mut rng);
        let msg: Vec<u128> = (0..32).map(|i| i * 7 % 65537).collect();
        let ct = c.encrypt(&sk, &msg, &mut rng);
        let rebuilt = Ciphertext::from_coeff_parts(&c, ct.a().coeffs(), ct.b().coeffs()).unwrap();
        assert_eq!(rebuilt.a().values(), ct.a().values());
        assert_eq!(c.decrypt(&sk, &rebuilt), msg);
        assert!(Ciphertext::from_coeff_parts(&c, vec![0; 31], vec![0; 32]).is_err());
    }

    #[test]
    fn ciphertext_multiplication_decrypts_to_product() {
        let n = 64usize;
        let c = ctx(n);
        let mut rng = Splitmix::new(0xC0FFEE);
        let sk = c.keygen(&mut rng);
        let rk = c.relin_keygen(&sk, &mut rng, 16);
        let m1: Vec<u128> = (0..n as u128).map(|i| (i * 3 + 1) % 50).collect();
        let m2: Vec<u128> = (0..n as u128).map(|i| (i * 7 + 2) % 50).collect();
        let prod = c.mul(
            &rk,
            &c.encrypt(&sk, &m1, &mut rng),
            &c.encrypt(&sk, &m2, &mut rng),
        );
        // reference: schoolbook negacyclic product mod t
        let t = rpu_arith::Modulus128::new(65537).unwrap();
        let expect = crate::testutil::schoolbook_negacyclic(t, &m1, &m2);
        assert_eq!(c.decrypt(&sk, &prod), expect);
    }

    #[test]
    fn multiplication_composes_with_addition() {
        let n = 64usize;
        let c = ctx(n);
        let mut rng = Splitmix::new(5);
        let sk = c.keygen(&mut rng);
        let rk = c.relin_keygen(&sk, &mut rng, 16);
        let m1 = vec![2u128; n];
        let m2 = vec![3u128; n];
        let x = c.encrypt(&sk, &m1, &mut rng);
        let y = c.encrypt(&sk, &m2, &mut rng);
        // (x*y) + x decrypts to m1*m2 + m1
        let got = c.decrypt(&sk, &c.add(&c.mul(&rk, &x, &y), &x));
        let t = rpu_arith::Modulus128::new(65537).unwrap();
        let mut expect = crate::testutil::schoolbook_negacyclic(t, &m1, &m2);
        for (e, &m) in expect.iter_mut().zip(&m1) {
            *e = (*e + m) % 65537;
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn galois_rotation_decrypts_to_rotated_plaintext() {
        let n = 64usize;
        let c = ctx(n);
        let mut rng = Splitmix::new(0xB512);
        let sk = c.keygen(&mut rng);
        let msg: Vec<u128> = (0..n as u128).map(|i| (i * 31 + 3) % 1000).collect();
        let ct = c.encrypt(&sk, &msg, &mut rng);
        for steps in [1usize, 2, 5] {
            let g = c.galois_element(steps);
            let gk = c.galois_keygen(&sk, g, &mut rng, 16).unwrap();
            assert_eq!(gk.galois_element(), g);
            let rotated = c.apply_galois(&gk, &ct).unwrap();
            assert_eq!(
                c.decrypt(&sk, &rotated),
                c.rotate_plaintext(&msg, g).unwrap(),
                "steps {steps}"
            );
        }
        // even Galois elements are rejected at keygen
        assert!(matches!(
            c.galois_keygen(&sk, 8, &mut rng, 16),
            Err(NttError::InvalidGaloisElement { g: 8 })
        ));
    }

    #[test]
    fn rotation_of_a_sum_rotates_both_terms() {
        let n = 32usize;
        let c = ctx(n);
        let mut rng = Splitmix::new(21);
        let sk = c.keygen(&mut rng);
        let g = c.galois_element(1);
        let gk = c.galois_keygen(&sk, g, &mut rng, 16).unwrap();
        let m1: Vec<u128> = (1..=n as u128).collect();
        let m2: Vec<u128> = (0..n as u128).map(|i| i * 2).collect();
        let x = c.encrypt(&sk, &m1, &mut rng);
        let y = c.encrypt(&sk, &m2, &mut rng);
        let got = c.decrypt(&sk, &c.apply_galois(&gk, &c.add(&x, &y)).unwrap());
        let sum: Vec<u128> = m1.iter().zip(&m2).map(|(&a, &b)| a + b).collect();
        assert_eq!(got, c.rotate_plaintext(&sum, g).unwrap());
    }

    #[test]
    fn keyswitch_key_shapes() {
        let c = ctx(32);
        let mut rng = Splitmix::new(1);
        let sk = c.keygen(&mut rng);
        let q_bits = 128 - c.params().q.leading_zeros();
        let rk = c.relin_keygen(&sk, &mut rng, 16);
        let ksk = rk.key_switch_key();
        assert_eq!(ksk.base_log(), 16);
        assert_eq!(ksk.levels() as u32, q_bits.div_ceil(16));
        // one source tower, one coefficient pair per digit in its only share
        assert_eq!(ksk.parts().len(), 1);
        assert_eq!(ksk.share(0, 0).count(), ksk.levels());
    }

    #[test]
    fn wrong_key_fails_to_decrypt() {
        let c = ctx(64);
        let mut rng = Splitmix::new(9);
        let sk = c.keygen(&mut rng);
        let other = c.keygen(&mut rng);
        let msg = vec![123u128; 64];
        let ct = c.encrypt(&sk, &msg, &mut rng);
        assert_ne!(c.decrypt(&other, &ct), msg);
    }
}
