//! Leveled RNS ciphertexts — the host-reference oracle for depth-`L`
//! homomorphic evaluation, and the one host context.
//!
//! [`LeveledContext`] is the host's one RLWE context: a [`ModulusChain`]
//! plus one NTT plan per chain prime. Its scheme operations — keygen,
//! sampling, encryption, decryption, add/sub, plaintext multiplication,
//! relinearization and Galois keys, tensor + relinearize, rotation —
//! are written once over towers in the private `scheme` module; a
//! single-modulus context ([`crate::rlwe::RlweContext`]) is the same
//! type over a one-prime chain. What lives here is what a chain adds —
//! CRT decoding, level alignment, the [`NoiseBudget`] and *rescaling*:
//! after each multiplication the ciphertext is divided (with rounding)
//! by the last live prime, which both shrinks the noise by
//! ~`log2(q_l)` bits and drops one tower of work.
//!
//! Rescaling by `q_l` multiplies an LSB-encoded plaintext by
//! `q_l^{-1} mod t`, so [`rescale`](LeveledContext::rescale) requires
//! the dropped prime to be `≡ 1 (mod t)` (primes from
//! [`LeveledContext::generate`] are) and returns a typed error
//! otherwise. Mod-drop and decoding need no congruence: decoding
//! corrects a negative phase by `Q_l mod t` whatever it is.
//!
//! Everything here is the bit-exact definitional oracle for the
//! on-device evaluators in the `rpu` crate: the same rounding
//! corrections, the same pinned randomness order, the same tower
//! layouts. The [`NoiseBudget`] tracker maintains a rigorous worst-case
//! bound on the centered phase magnitude; [`measure_noise`] decrypts
//! against this oracle to validate the estimate.
//!
//! [`measure_noise`]: LeveledContext::measure_noise

use crate::scheme::{lift, Ciphertext, SecretKey};
use crate::{Ntt128Plan, NttError, Polynomial};
use rpu_arith::{ChainError, Engine, ModulusChain};
use std::sync::Arc;

/// Error from leveled-ciphertext operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeveledError {
    /// The modulus chain could not be built.
    Chain(ChainError),
    /// A chain prime does not admit the requested negacyclic NTT (or a
    /// ring parameter is invalid).
    Ntt(NttError),
    /// Rescale or mod-drop was requested at level 0 — no tower left to
    /// drop.
    BottomLevel,
    /// A level index exceeded the ciphertext's (or the chain's) level.
    LevelTooHigh {
        /// The level that was requested.
        requested: usize,
        /// The highest level available.
        max: usize,
    },
}

impl core::fmt::Display for LeveledError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LeveledError::Chain(e) => write!(f, "modulus chain: {e}"),
            LeveledError::Ntt(e) => write!(f, "ring setup: {e}"),
            LeveledError::BottomLevel => {
                write!(f, "already at level 0: no tower left to drop")
            }
            LeveledError::LevelTooHigh { requested, max } => {
                write!(f, "level {requested} exceeds maximum {max}")
            }
        }
    }
}

impl std::error::Error for LeveledError {}

impl From<ChainError> for LeveledError {
    fn from(e: ChainError) -> Self {
        LeveledError::Chain(e)
    }
}

impl From<NttError> for LeveledError {
    fn from(e: NttError) -> Self {
        LeveledError::Ntt(e)
    }
}

/// A rigorous worst-case bound on the centered phase magnitude of a
/// ciphertext, in bits.
///
/// The *phase* of a ciphertext is `b − a·s = m + t·e (mod Q_l)`;
/// decryption is exact while its centered magnitude stays below
/// `Q_l / 2`. The tracker composes worst-case inequalities per
/// operation, so the estimate is always conservative: measured noise
/// (via [`LeveledContext::measure_noise`]) never exceeds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseBudget {
    bits: f64,
}

/// `log2(2^a + 2^b)` without overflowing for large exponents.
fn log2_sum(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (1.0 + (lo - hi).exp2()).log2()
}

impl NoiseBudget {
    /// Bound for a fresh encryption: `|m + t·e| ≤ (t−1) + 4t < 5t`.
    pub fn fresh(t: u128) -> Self {
        NoiseBudget {
            bits: (5.0 * t as f64).log2(),
        }
    }

    /// The phase-magnitude bound in bits.
    pub fn bits(&self) -> f64 {
        self.bits
    }

    /// After addition or subtraction: magnitudes add.
    pub fn after_add(self, other: NoiseBudget) -> Self {
        NoiseBudget {
            bits: log2_sum(self.bits, other.bits),
        }
    }

    /// After tensor + relinearization: the negacyclic product bound
    /// `n·|x|·|y|` plus the key-switch noise `parts·n·B·4t` (each of
    /// `parts = Σ_i ℓ_i` digit products contributes a degree-`n`
    /// convolution of a `< B` digit with a `t·e` key error, `|e| ≤ 4`).
    pub fn after_mul(
        self,
        other: NoiseBudget,
        n: usize,
        t: u128,
        parts: usize,
        base_log: u32,
    ) -> Self {
        let tensor = NoiseBudget {
            bits: (n as f64).log2() + self.bits + other.bits,
        };
        tensor.after_key_switch(n, t, parts, base_log)
    }

    /// After a key switch of `parts` digit products (a rotation, or the
    /// relinearization half of [`after_mul`](Self::after_mul)): the
    /// phase keeps its magnitude (`σ_g` permutes coefficients up to
    /// sign) and gains `parts·n·B·4t`.
    pub fn after_key_switch(self, n: usize, t: u128, parts: usize, base_log: u32) -> Self {
        let switch =
            (parts as f64).log2() + (n as f64).log2() + base_log as f64 + (4.0 * t as f64).log2();
        NoiseBudget {
            bits: log2_sum(self.bits, switch),
        }
    }

    /// After multiplying by a plaintext whose coefficients are at most
    /// `max`: the negacyclic product bound `n·max·|x|`.
    pub fn after_mul_plain(self, n: usize, max: u128) -> Self {
        NoiseBudget {
            bits: self.bits + (n as f64 * max.max(1) as f64).log2(),
        }
    }

    /// After rescaling by dropped prime `p`: the phase shrinks by
    /// `log2(p)` and picks up a rounding correction bounded by
    /// `t·(n + 2)/2` (the centered `δ` terms, including the `δ_a·s`
    /// convolution with the ternary secret, `‖s‖₁ ≤ n`).
    pub fn after_rescale(self, p: u128, n: usize, t: u128) -> Self {
        let scaled = self.bits - (p as f64).log2();
        let rounding = (t as f64 * (n as f64 + 2.0) / 2.0).log2();
        NoiseBudget {
            bits: log2_sum(scaled, rounding),
        }
    }

    /// Estimated budget left in bits: `log2(Q_l) − 1 − bound`. Negative
    /// means the tracker predicts decryption failure.
    pub fn remaining(&self, log2_q: f64) -> f64 {
        log2_q - 1.0 - self.bits
    }

    /// `true` when the tracker predicts decryption may fail at a live
    /// modulus of `log2_q` bits.
    pub fn is_exhausted(&self, log2_q: f64) -> bool {
        self.remaining(log2_q) <= 0.0
    }
}

/// The host's one encryption/evaluation context: a modulus chain plus
/// one NTT plan per chain prime. The definitional host oracle for both
/// on-device evaluators; [`crate::rlwe::RlweContext`] is this type over
/// a one-prime chain.
#[derive(Debug)]
pub struct LeveledContext {
    pub(crate) n: usize,
    pub(crate) chain: ModulusChain,
    pub(crate) plans: Vec<Arc<Ntt128Plan>>,
}

impl LeveledContext {
    /// Builds a context over an existing chain.
    ///
    /// # Errors
    ///
    /// Returns [`LeveledError::Ntt`] if any chain prime does not admit
    /// a degree-`n` negacyclic NTT.
    pub fn from_chain(n: usize, chain: ModulusChain) -> Result<Self, LeveledError> {
        let plans = chain
            .primes()
            .iter()
            .map(|&q| Polynomial::context(n, q))
            .collect::<Result<_, _>>()?;
        Ok(LeveledContext { n, chain, plans })
    }

    /// Generates a chain of `levels` primes just below `2^bits` (each
    /// `≡ 1 mod 2n·t`) and builds the context over it.
    ///
    /// # Errors
    ///
    /// Returns [`LeveledError`] if prime generation or ring setup fails
    /// — for any `n`, `t`, `bits` and `levels`, never a panic.
    pub fn generate(n: usize, t: u128, bits: u32, levels: usize) -> Result<Self, LeveledError> {
        if n < 2 || !n.is_power_of_two() {
            return Err(NttError::InvalidDegree(n).into());
        }
        let chain = ModulusChain::generate(n, t, bits, levels)?;
        LeveledContext::from_chain(n, chain)
    }

    /// Ring degree `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The modulus chain.
    pub fn chain(&self) -> &ModulusChain {
        &self.chain
    }

    /// The NTT plan for tower `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not a valid tower index.
    pub fn plan(&self, l: usize) -> &Arc<Ntt128Plan> {
        &self.plans[l]
    }

    /// The highest level (`chain length − 1`) — where fresh ciphertexts
    /// start.
    pub fn max_level(&self) -> usize {
        self.chain.levels() - 1
    }

    /// Decodes per-tower phase coefficients (`m + t·e mod Q_l`,
    /// natural order) to plaintext residues: center into
    /// `(−Q_l/2, Q_l/2]` and reduce mod `t`. A negative phase `x − Q_l`
    /// decodes to `(x mod t + t − (Q_l mod t)) mod t`, for any `Q_l`. One
    /// tower decodes in plain `u128` arithmetic; several CRT-combine
    /// first. Shared by [`decrypt`](Self::decrypt) and by accelerator
    /// runtimes that download the per-tower noisy vectors and finish
    /// host-side.
    ///
    /// # Panics
    ///
    /// Panics if the tower count or a vector length is inconsistent.
    pub fn decode_phase_towers(&self, towers: &[Vec<u128>]) -> Vec<u128> {
        let t = self.chain.t();
        let decode = |m: u128, negative: bool, q_mod_t: u128| {
            if negative {
                (m + t - q_mod_t) % t
            } else {
                m
            }
        };
        if let [noisy] = towers {
            let q = self.chain.prime(0);
            let q_mod_t = q % t;
            return noisy
                .iter()
                .map(|&c| decode(c % t, c > q / 2, q_mod_t))
                .collect();
        }
        let basis = self.chain.basis(towers.len() - 1);
        let big_q = basis.product();
        let q_mod_t = big_q.rem_u128(t);
        (0..self.n)
            .map(|c| {
                let residues: Vec<u128> = towers.iter().map(|tw| tw[c]).collect();
                let x = basis.reconstruct(&residues);
                decode(x.rem_u128(t), x.mul_u128(2) > big_q, q_mod_t)
            })
            .collect()
    }

    /// Floor-`log2` of the largest centered phase magnitude across
    /// per-tower phase coefficient vectors — the measured counterpart
    /// of the [`NoiseBudget`] estimate (`measured ≤ estimate` always).
    pub fn phase_noise_bits(&self, towers: &[Vec<u128>]) -> f64 {
        let level = towers.len() - 1;
        let basis = self.chain.basis(level);
        let big_q = basis.product();
        let mut max_bits = 0u32;
        for c in 0..self.n {
            let residues: Vec<u128> = towers.iter().map(|tw| tw[c]).collect();
            let x = basis.reconstruct(&residues);
            let mag = if x.mul_u128(2) > big_q {
                big_q.checked_sub(&x).expect("x < Q")
            } else {
                x
            };
            max_bits = max_bits.max(mag.bits());
        }
        (max_bits.saturating_sub(1)) as f64
    }

    /// Measures the actual noise of a ciphertext (floor-`log2` of the
    /// largest centered phase magnitude, in bits) by decrypting against
    /// the host oracle — the debug path that validates the tracker.
    pub fn measure_noise(&self, sk: &SecretKey, ct: &Ciphertext) -> f64 {
        self.phase_noise_bits(&self.phase(sk, ct))
    }

    /// Explicit mod-drop to a lower level: truncates towers. Exact
    /// while the phase magnitude stays below `Q_level / 2`; the noise
    /// bound is unchanged (the budget shrinks because `Q` does).
    ///
    /// # Errors
    ///
    /// Returns [`LeveledError::LevelTooHigh`] if `level > x.level`.
    pub fn mod_drop(&self, x: &Ciphertext, level: usize) -> Result<Ciphertext, LeveledError> {
        if level > x.level() {
            let max = x.level();
            return Err(LeveledError::LevelTooHigh {
                requested: level,
                max,
            });
        }
        Ok(Ciphertext {
            a: x.a[..=level].to_vec(),
            b: x.b[..=level].to_vec(),
            noise: x.noise,
        })
    }

    /// The rounding-correction residues for dropping prime
    /// `p = q_level`: given the dropped tower's natural-order
    /// coefficients `d` of one component, returns for each surviving
    /// tower `i < level` the residues of
    /// `δ = t·center(t^{-1}·d mod p)` — the unique polynomial with
    /// `δ ≡ d (mod p)`, `δ ≡ 0 (mod t)`, and `|δ| ≤ t·p/2`. Subtracting
    /// `δ` makes the component divisible by `p` without disturbing the
    /// plaintext. Shared verbatim by the device rescale path, which
    /// waits on it between a download and the re-upload — so each tower
    /// computes on the [`Engine`] its width selects, as the device does.
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or out of range, or `d.len() != n`.
    pub fn rescale_correction(&self, level: usize, d: &[u128]) -> Vec<Vec<u128>> {
        assert!(level > 0, "no tower below level 0");
        assert_eq!(d.len(), self.n, "dropped tower length must equal n");
        let engine = |l| Engine::new(self.chain.prime(l)).expect("chain primes are valid moduli");
        let p = self.chain.prime(level);
        let mp = engine(level);
        let t_inv = self.chain.t_inv(level);
        let t = self.chain.t();
        // Centered u = t^{-1}·d mod p as (sign, magnitude) pairs.
        let centered: Vec<(bool, u128)> = d
            .iter()
            .map(|&c| {
                let u = mp.mul(mp.reduce(c), t_inv);
                if u > p / 2 {
                    (true, p - u) // negative: δ = −t·(p − u)
                } else {
                    (false, u)
                }
            })
            .collect();
        (0..level)
            .map(|i| {
                let mi = engine(i);
                let t_i = mi.reduce(t);
                centered
                    .iter()
                    .map(|&(neg, mag)| {
                        let v = mi.mul(t_i, mi.reduce(mag));
                        if neg {
                            mi.sub(0, v)
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Whether a ciphertext at `level` may rescale: there must be a tower
    /// below it, and the dropped prime must be `≡ 1 (mod t)` — otherwise
    /// the division would scale the plaintext by `q_level^{-1} mod t`.
    /// The one check of the host and the device rescale.
    ///
    /// # Errors
    ///
    /// Returns [`LeveledError::BottomLevel`] at level 0, and
    /// [`ChainError::NotCongruentToOneModT`] (as [`LeveledError::Chain`])
    /// for a dropped prime `≢ 1 (mod t)`.
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the chain.
    pub fn check_rescale(&self, level: usize) -> Result<(), LeveledError> {
        let (prime, t) = (self.chain.prime(level), self.chain.t());
        if level == 0 {
            Err(LeveledError::BottomLevel)
        } else if prime % t != 1 {
            Err(ChainError::NotCongruentToOneModT { prime, t }.into())
        } else {
            Ok(())
        }
    }

    /// Rescales: divides (with rounding) by the last live prime,
    /// dropping one tower. Per component and surviving tower `i`:
    /// `c'_i = (c_i − δ)·q_level^{-1} mod q_i`. The plaintext is
    /// untouched (`q_level ≡ 1 mod t`) and the noise shrinks by
    /// ~`log2(q_level)` bits.
    ///
    /// # Errors
    ///
    /// Returns the [`check_rescale`](Self::check_rescale) errors.
    pub fn rescale(&self, x: &Ciphertext) -> Result<Ciphertext, LeveledError> {
        let level = x.level();
        self.check_rescale(level)?;
        let scale_component = |towers: &[Polynomial]| -> Vec<Polynomial> {
            let dropped = towers[level].coeffs();
            let delta = self.rescale_correction(level, &dropped);
            (0..level)
                .map(|i| {
                    let d_i = lift(&self.plans[i], delta[i].clone()).expect("length matches");
                    towers[i].sub(&d_i).scale(self.chain.p_inv(level, i))
                })
                .collect()
        };
        let (p, t) = (self.chain.prime(level), self.chain.t());
        Ok(Ciphertext {
            a: scale_component(&x.a),
            b: scale_component(&x.b),
            noise: x.noise.after_rescale(p, self.n, t),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rlwe::Splitmix;
    use rpu_arith::Modulus128;

    const T: u128 = 65537;

    fn ctx(n: usize, bits: u32, levels: usize) -> LeveledContext {
        LeveledContext::generate(n, T, bits, levels).expect("chain exists")
    }

    fn msg(n: usize, seed: u128) -> Vec<u128> {
        (0..n as u128).map(|i| (i * 31 + seed) % 251).collect()
    }

    #[test]
    fn encrypt_decrypt_round_trip_at_top_level() {
        let c = ctx(64, 55, 4);
        let mut rng = Splitmix::new(7);
        let sk = c.keygen(&mut rng);
        let m = msg(64, 3);
        let ct = c.encrypt(&sk, &m, &mut rng);
        assert_eq!(ct.level(), 3);
        assert_eq!(ct.a_towers().len(), 4);
        assert_eq!(c.decrypt(&sk, &ct), m);
        // fresh noise estimate dominates the measured phase
        assert!(c.measure_noise(&sk, &ct) <= ct.noise().bits());
    }

    #[test]
    fn add_aligns_levels_automatically() {
        let c = ctx(64, 55, 3);
        let mut rng = Splitmix::new(9);
        let sk = c.keygen(&mut rng);
        let m1 = msg(64, 1);
        let m2 = msg(64, 2);
        let x = c.encrypt(&sk, &m1, &mut rng);
        let y = c.mod_drop(&c.encrypt(&sk, &m2, &mut rng), 1).unwrap();
        let sum = c.add(&x, &y);
        assert_eq!(sum.level(), 1);
        let expect: Vec<u128> = m1.iter().zip(&m2).map(|(&a, &b)| (a + b) % T).collect();
        assert_eq!(c.decrypt(&sk, &sum), expect);
        let diff = c.sub(&x, &y);
        let expect: Vec<u128> = m1
            .iter()
            .zip(&m2)
            .map(|(&a, &b)| (a + T - b % T) % T)
            .collect();
        assert_eq!(c.decrypt(&sk, &diff), expect);
    }

    #[test]
    fn mod_drop_is_exact_and_bounded() {
        let c = ctx(64, 55, 3);
        let mut rng = Splitmix::new(21);
        let sk = c.keygen(&mut rng);
        let m = msg(64, 5);
        let ct = c.encrypt(&sk, &m, &mut rng);
        for level in (0..=2).rev() {
            let dropped = c.mod_drop(&ct, level).unwrap();
            assert_eq!(dropped.level(), level);
            assert_eq!(c.decrypt(&sk, &dropped), m);
        }
        assert!(matches!(
            c.mod_drop(&ct, 3),
            Err(LeveledError::LevelTooHigh { requested: 3, .. })
        ));
    }

    #[test]
    fn rescale_preserves_plaintext_and_sheds_noise() {
        let c = ctx(64, 55, 4);
        let mut rng = Splitmix::new(0xE5);
        let sk = c.keygen(&mut rng);
        let m = msg(64, 11);
        let ct = c.encrypt(&sk, &m, &mut rng);
        let mut cur = ct;
        for expect_level in (0..=2).rev() {
            let before = c.measure_noise(&sk, &cur);
            cur = c.rescale(&cur).unwrap();
            assert_eq!(cur.level(), expect_level);
            assert_eq!(c.decrypt(&sk, &cur), m, "level {expect_level}");
            // measured stays under the tracked bound
            let measured = c.measure_noise(&sk, &cur);
            assert!(measured <= cur.noise().bits());
            // dropping ~55 bits of modulus must not grow absolute noise
            assert!(measured <= before + 1.0);
        }
        assert!(matches!(c.rescale(&cur), Err(LeveledError::BottomLevel)));
    }

    #[test]
    fn depth_3_multiply_chain_decrypts_to_product() {
        let n = 64usize;
        let c = ctx(n, 55, 4);
        let mut rng = Splitmix::new(0xC0FFEE);
        let sk = c.keygen(&mut rng);
        let rk = c.relin_keygen(&sk, &mut rng, 16);
        let tm = Modulus128::new(T).unwrap();
        let m1: Vec<u128> = (0..n as u128).map(|i| (i * 3 + 1) % 50).collect();
        let m2: Vec<u128> = (0..n as u128).map(|i| (i * 7 + 2) % 50).collect();
        let m3: Vec<u128> = (0..n as u128).map(|i| (i + 3) % 50).collect();
        let m4: Vec<u128> = (0..n as u128).map(|i| (i * 5) % 50).collect();
        let mut expect = crate::testutil::schoolbook_negacyclic(tm, &m1, &m2);
        expect = crate::testutil::schoolbook_negacyclic(tm, &expect, &m3);
        expect = crate::testutil::schoolbook_negacyclic(tm, &expect, &m4);

        let cts: Vec<Ciphertext> = [&m1, &m2, &m3, &m4]
            .iter()
            .map(|m| c.encrypt(&sk, m, &mut rng))
            .collect();
        let mut acc = c.rescale(&c.mul(&rk, &cts[0], &cts[1])).unwrap();
        acc = c.rescale(&c.mul(&rk, &acc, &cts[2])).unwrap();
        acc = c.rescale(&c.mul(&rk, &acc, &cts[3])).unwrap();
        assert_eq!(acc.level(), 0);
        assert!(
            !acc.noise().is_exhausted(c.chain().log2_q(0)),
            "tracker must still predict success at depth 3"
        );
        assert!(c.measure_noise(&sk, &acc) <= acc.noise().bits());
        assert_eq!(c.decrypt(&sk, &acc), expect);
    }

    #[test]
    fn decryption_correct_whenever_tracker_predicts_budget() {
        // Single-prime chain: repeated squaring without rescale runs the
        // budget down quickly; correctness must hold as long as the
        // tracker predicts it.
        let n = 64usize;
        let c = ctx(n, 45, 1);
        let mut rng = Splitmix::new(0xBAD5EED);
        let sk = c.keygen(&mut rng);
        let rk = c.relin_keygen(&sk, &mut rng, 16);
        let tm = Modulus128::new(T).unwrap();
        let m: Vec<u128> = (0..n as u128).map(|i| (i + 2) % 40).collect();
        let mut expect = m.clone();
        let mut cur = c.encrypt(&sk, &m, &mut rng);
        let log2_q = c.chain().log2_q(0);
        let mut exhausted_seen = false;
        for _ in 0..3 {
            cur = c.mul(&rk, &cur, &cur);
            expect = crate::testutil::schoolbook_negacyclic(tm, &expect, &expect);
            if cur.noise().is_exhausted(log2_q) {
                exhausted_seen = true;
                break;
            }
            assert_eq!(
                c.decrypt(&sk, &cur),
                expect,
                "decryption must hold while budget remains"
            );
        }
        assert!(
            exhausted_seen,
            "a 45-bit single prime must exhaust by depth 3"
        );
    }

    #[test]
    fn from_eval_towers_round_trips() {
        let c = ctx(64, 55, 2);
        let mut rng = Splitmix::new(31);
        let sk = c.keygen(&mut rng);
        let m = msg(64, 9);
        let ct = c.encrypt(&sk, &m, &mut rng);
        let a: Vec<Vec<u128>> = ct.a_towers().iter().map(|p| p.values().to_vec()).collect();
        let b: Vec<Vec<u128>> = ct.b_towers().iter().map(|p| p.values().to_vec()).collect();
        let rebuilt = Ciphertext::from_eval_towers(&c, a, b, ct.noise()).unwrap();
        for l in 0..=1 {
            assert_eq!(rebuilt.a_towers()[l].values(), ct.a_towers()[l].values());
            assert_eq!(rebuilt.b_towers()[l].values(), ct.b_towers()[l].values());
        }
        assert_eq!(c.decrypt(&sk, &rebuilt), m);
        assert!(Ciphertext::from_eval_towers(
            &c,
            vec![vec![0; 64]; 3],
            vec![vec![0; 64]; 3],
            ct.noise()
        )
        .is_err());
    }

    #[test]
    fn secret_key_towers_share_one_ternary_draw() {
        let c = ctx(32, 55, 3);
        let mut rng = Splitmix::new(2);
        let sk = c.keygen(&mut rng);
        assert_eq!(sk.towers().len(), 3);
        let q0 = c.chain().prime(0);
        let q1 = c.chain().prime(1);
        let s0 = sk.s_coeffs(0);
        let s1 = sk.s_coeffs(1);
        for i in 0..32 {
            let v0 = if s0[i] == q0 - 1 { -1i64 } else { s0[i] as i64 };
            let v1 = if s1[i] == q1 - 1 { -1i64 } else { s1[i] as i64 };
            assert_eq!(v0, v1, "towers must encode the same ternary value");
        }
    }
}
