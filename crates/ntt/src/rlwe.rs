//! A minimal RLWE symmetric encryption scheme — the workload the RPU
//! exists to accelerate (Section II-A and Fig. 1 of the paper) — over a
//! single modulus: the one host context over a one-prime chain.
//!
//! The host has one scheme and one context, [`LeveledContext`], written
//! over `k ≥ 1` RNS towers (the private `scheme` module); an
//! [`RlweContext`] is that type, built by [`RlweContext::new`] over the
//! one-prime chain `[params.q]`. Its ciphertexts sit at level 0; every
//! operation — keygen, sampling, encryption, decryption, add/sub,
//! plaintext multiplication, relinearization and Galois keys,
//! ciphertext×ciphertext multiplication, rotation — is the one
//! context's, and rescale answers
//! [`crate::leveled::LeveledError::BottomLevel`].
//! What lives here is the parameter set [`RlweParams`], that
//! constructor, and the deterministic [`Splitmix`] stream every pinned
//! draw comes from.
//!
//! A ciphertext is a pair `(a, b = a·s + t·e + m)` over
//! `Z_q[x]/(x^n + 1)` with a small ternary secret `s` and small error
//! `e`: the plaintext rides in the **least-significant** residues and
//! the noise is lifted by the plaintext modulus `t` (the BGV-style
//! noise placement). That choice is what makes single-modulus
//! ciphertext×ciphertext multiplication *exact*: the tensor
//! `(m1 + t·e1)(m2 + t·e2) = m1·m2 + t·(…)` needs no rescaling, so the
//! whole multiply — tensor, gadget decomposition, relinearization —
//! runs in `Z_q` end to end and decrypts with a centered `mod t`. So
//! `q` need not be `≡ 1 (mod t)`: decoding corrects a negative phase by
//! `q mod t`.
//!
//! This is a pedagogical implementation for driving realistic RLWE
//! traffic through the stack; it makes no constant-time or
//! parameter-security claims.

pub use crate::leveled::LeveledContext;
pub use crate::scheme::{Ciphertext, GaloisKey, KeySwitchKey, SecretKey};
use crate::{NttError, Polynomial};
use rpu_arith::ModulusChain;

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

/// The single-modulus context: the one host context over a one-prime
/// chain.
pub type RlweContext = LeveledContext;

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

impl LeveledContext {
    /// Builds a single-modulus context: the one-prime chain `[q]` with
    /// plaintext modulus `t`.
    ///
    /// # Errors
    ///
    /// Returns [`NttError`] if `q` does not admit a degree-`n` negacyclic
    /// NTT, and [`NttError::InvalidModulus`] if `q` is not prime or
    /// `t` is not in `[2, q)` (no room for noise).
    pub fn new(params: RlweParams) -> Result<Self, NttError> {
        let RlweParams { n, q, t } = params;
        if t >= q || t < 2 {
            return Err(NttError::InvalidModulus);
        }
        let plan = Polynomial::context(n, q)?;
        let chain = ModulusChain::new(vec![q], t).map_err(|_| NttError::InvalidModulus)?;
        let plans = vec![plan];
        Ok(LeveledContext { n, chain, plans })
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
        assert_ne!(
            ct1.a().coeffs(),
            ct2.a().coeffs(),
            "fresh randomness per ct"
        );
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
        let (mut a_coeffs, mut payload) = c.sample_mask_and_payload(&msg, &mut rng2);
        let mut a = Polynomial::from_coeffs(c.plan(0), a_coeffs.remove(0)).unwrap();
        let mut p = Polynomial::from_coeffs(c.plan(0), payload.remove(0)).unwrap();
        a.to_evaluation();
        p.to_evaluation();
        let b = a.mul(&sk.towers()[0]).add(&p);
        assert_eq!(ct.a().values(), a.values());
        assert_eq!(ct.b().values(), b.values());
    }

    #[test]
    fn eval_parts_round_trip() {
        let c = ctx(32);
        let mut rng = Splitmix::new(5);
        let sk = c.keygen(&mut rng);
        let msg: Vec<u128> = (0..32).map(|i| i * 7 % 65537).collect();
        let ct = c.encrypt(&sk, &msg, &mut rng);
        let parts = |a: &[u128], b: &[u128]| {
            Ciphertext::from_eval_towers(&c, vec![a.to_vec()], vec![b.to_vec()], ct.noise())
        };
        let rebuilt = parts(ct.a().values(), ct.b().values()).unwrap();
        assert_eq!(rebuilt.a().values(), ct.a().values());
        assert_eq!(c.decrypt(&sk, &rebuilt), msg);
        assert!(parts(&[0; 31], &[0; 32]).is_err());
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
        let q_bits = 128 - c.chain().prime(0).leading_zeros();
        let rk = c.relin_keygen(&sk, &mut rng, 16);
        let ksk = &rk;
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
