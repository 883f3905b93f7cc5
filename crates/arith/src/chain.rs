//! Leveled modulus chains for RNS ciphertexts.
//!
//! A leveled homomorphic computation starts with a ciphertext modulus
//! `Q = q_0 q_1 ... q_{L-1}` and *rescales* after each multiplication by
//! dividing (with rounding) by the last live prime, dropping one RNS
//! tower per level. [`ModulusChain`] owns the prime ladder and every
//! constant the rescale and mod-drop paths need: prefix [`RnsBasis`]es
//! for CRT at each level, `t^{-1} mod q_l` for the rounding correction,
//! and `q_l^{-1} mod q_i` for the surviving-tower scale step.
//!
//! [`ModulusChain::generate`] picks primes `q ≡ 1 (mod 2n·t)`: the `2n`
//! part makes each tower NTT-friendly, and the `t` part makes every
//! rescale plaintext-neutral — the implicit factor `q_l^{-1} mod t` is
//! `1`, so LSB-encoded plaintexts survive any number of rescales
//! unchanged. [`ModulusChain::new`] accepts any primes above `t` (a
//! single-modulus RLWE prime is rarely `≡ 1 mod t`); the rescale that
//! would drop a prime `≢ 1 (mod t)` refuses it instead.

use crate::{find_congruent_prime_chain, is_prime_u128, Modulus128, RnsBasis, RnsError, UBig};

/// Error constructing a [`ModulusChain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The plaintext modulus was below 2 or not below every chain prime.
    BadPlaintextModulus(u128),
    /// A chain prime failed the primality test.
    NotPrime(u128),
    /// A rescale would drop a chain prime that is not `≡ 1 (mod t)`, and
    /// so scale the plaintext by `q^{-1} mod t ≠ 1`.
    NotCongruentToOneModT {
        /// The offending chain prime.
        prime: u128,
        /// The plaintext modulus it must be congruent to 1 against.
        t: u128,
    },
    /// The underlying RNS basis construction failed (empty list,
    /// out-of-range or non-coprime moduli).
    Rns(RnsError),
    /// Prime generation found fewer primes than requested.
    TooFewPrimes {
        /// How many chain primes were requested.
        wanted: usize,
        /// How many the bounded search actually found.
        found: usize,
    },
}

impl core::fmt::Display for ChainError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChainError::BadPlaintextModulus(t) => {
                write!(f, "plaintext modulus {t} must satisfy 2 <= t < every prime")
            }
            ChainError::NotPrime(q) => write!(f, "chain modulus {q} is not prime"),
            ChainError::NotCongruentToOneModT { prime, t } => {
                write!(f, "chain prime {prime} is not ≡ 1 (mod t = {t})")
            }
            ChainError::Rns(e) => write!(f, "invalid RNS basis: {e}"),
            ChainError::TooFewPrimes { wanted, found } => {
                write!(f, "found only {found} of {wanted} chain primes in budget")
            }
        }
    }
}

impl std::error::Error for ChainError {}

impl From<RnsError> for ChainError {
    fn from(e: RnsError) -> Self {
        ChainError::Rns(e)
    }
}

/// A ladder of NTT-friendly RNS primes with precomputed rescale
/// constants.
///
/// Primes are indexed `q_0 .. q_{L-1}`; *level* `l` means towers
/// `q_0 ..= q_l` are live, so a fresh ciphertext sits at level `L-1`
/// and each rescale drops the highest live tower. `q_0` survives to the
/// end and bounds the final noise budget.
///
/// # Examples
///
/// ```
/// use rpu_arith::ModulusChain;
///
/// let chain = ModulusChain::generate(1024, 65537, 60, 3).unwrap();
/// assert_eq!(chain.levels(), 3);
/// assert_eq!(chain.prime(0) % 65537, 1);
/// assert_eq!(chain.prime(0) % 2048, 1); // NTT-friendly for n = 1024
/// ```
#[derive(Debug, Clone)]
pub struct ModulusChain {
    primes: Vec<u128>,
    moduli: Vec<Modulus128>,
    t: u128,
    /// `bases[l]` spans the live primes at level `l` (`q_0 ..= q_l`).
    bases: Vec<RnsBasis>,
    /// `t_inv[l] = t^{-1} mod q_l` — the rounding-correction constant
    /// used when tower `l` is the one being dropped.
    t_inv: Vec<u128>,
    /// `p_inv[l][i] = q_l^{-1} mod q_i` for `i < l` — the surviving-tower
    /// scale constants when dropping tower `l`.
    p_inv: Vec<Vec<u128>>,
}

impl ModulusChain {
    /// Builds a chain from explicit primes (ordered `q_0` first) and a
    /// plaintext modulus `t`.
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] when `t` is out of range, a modulus is
    /// not prime, or the primes do not form a valid RNS basis.
    pub fn new(primes: Vec<u128>, t: u128) -> Result<Self, ChainError> {
        for &q in &primes {
            if !is_prime_u128(q) {
                return Err(ChainError::NotPrime(q));
            }
            if t < 2 || t >= q {
                return Err(ChainError::BadPlaintextModulus(t));
            }
        }
        let bases: Vec<RnsBasis> = (0..primes.len())
            .map(|l| RnsBasis::new(primes[..=l].to_vec()))
            .collect::<Result<_, _>>()?;
        let moduli: Vec<Modulus128> = bases
            .last()
            .ok_or(ChainError::Rns(RnsError::Empty))?
            .moduli()
            .to_vec();
        let t_inv = primes
            .iter()
            .map(|&q| crate::mod_inverse(t % q, q))
            .collect();
        let p_inv = (0..primes.len())
            .map(|l| {
                (0..l)
                    .map(|i| crate::mod_inverse(primes[l] % primes[i], primes[i]))
                    .collect()
            })
            .collect();
        Ok(ModulusChain {
            primes,
            moduli,
            t,
            bases,
            t_inv,
            p_inv,
        })
    }

    /// Generates a chain of `levels` primes just below `2^bits`, each
    /// `≡ 1 (mod 2n·t)` so every tower is NTT-friendly for ring degree
    /// `n` *and* rescale is plaintext-neutral. The largest prime found
    /// becomes `q_0`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::BadPlaintextModulus`] for `t < 2`,
    /// [`ChainError::TooFewPrimes`] when the bounded search cannot find
    /// `levels` distinct primes — none at all for `n = 0`, `bits`
    /// outside `1..=127`, or a stride `2n·t` past `u128` — or any
    /// [`ChainError`] the explicit constructor can raise. An `n` that is
    /// not a power of two still yields a chain (`q ≡ 1 mod 2n·t` needs
    /// no ring); the ring built over it rejects the degree.
    pub fn generate(n: usize, t: u128, bits: u32, levels: usize) -> Result<Self, ChainError> {
        if t < 2 {
            return Err(ChainError::BadPlaintextModulus(t));
        }
        // The search asserts its range; outside it there is nothing to find.
        let searchable = (1..=127).contains(&bits);
        let stride = (2 * n as u128).checked_mul(t);
        let stride = stride.filter(|&s| s != 0 && searchable);
        let primes = stride.map_or_else(Vec::new, |s| find_congruent_prime_chain(bits, s, levels));
        if primes.len() < levels {
            return Err(ChainError::TooFewPrimes {
                wanted: levels,
                found: primes.len(),
            });
        }
        ModulusChain::new(primes, t)
    }

    /// Number of chain primes `L` (one more than the top level index).
    pub fn levels(&self) -> usize {
        self.primes.len()
    }

    /// The plaintext modulus `t`.
    pub fn t(&self) -> u128 {
        self.t
    }

    /// The chain primes, `q_0` first.
    pub fn primes(&self) -> &[u128] {
        &self.primes
    }

    /// Chain prime `q_l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.levels()`.
    pub fn prime(&self, l: usize) -> u128 {
        self.primes[l]
    }

    /// Arithmetic context for chain prime `q_l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.levels()`.
    pub fn modulus(&self, l: usize) -> Modulus128 {
        self.moduli[l]
    }

    /// The RNS basis spanning the live towers at level `l`
    /// (`q_0 ..= q_l`).
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.levels()`.
    pub fn basis(&self, l: usize) -> &RnsBasis {
        &self.bases[l]
    }

    /// `t^{-1} mod q_l` — rounding-correction constant for dropping
    /// tower `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.levels()`.
    pub fn t_inv(&self, l: usize) -> u128 {
        self.t_inv[l]
    }

    /// `q_l^{-1} mod q_i` — scale constant on surviving tower `i` when
    /// dropping tower `l`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= l` or `l >= self.levels()`.
    pub fn p_inv(&self, l: usize, i: usize) -> u128 {
        self.p_inv[l][i]
    }

    /// The live modulus product `Q_l = q_0 ... q_l` at level `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.levels()`.
    pub fn product_at(&self, l: usize) -> UBig {
        self.bases[l].product()
    }

    /// `log2(Q_l)` — the live modulus size in bits at level `l`, the
    /// reference point for noise-budget accounting.
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.levels()`.
    pub fn log2_q(&self, l: usize) -> f64 {
        self.primes[..=l].iter().map(|&q| (q as f64).log2()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_builds_consistent_constants() {
        let chain = ModulusChain::generate(1024, 65537, 59, 4).unwrap();
        assert_eq!(chain.levels(), 4);
        for l in 0..4 {
            let q = chain.prime(l);
            assert!(is_prime_u128(q));
            assert_eq!(q % (2 * 1024 * 65537), 1);
            let m = chain.modulus(l);
            assert_eq!(m.mul(chain.t_inv(l), m.reduce(65537)), 1);
            for i in 0..l {
                let mi = chain.modulus(i);
                assert_eq!(mi.mul(chain.p_inv(l, i), mi.reduce(q)), 1);
            }
            assert_eq!(chain.basis(l).len(), l + 1);
        }
        // Q mod t = 1 because every prime is ≡ 1 mod t.
        assert_eq!(chain.product_at(3).rem_u128(65537), 1);
        let bits = chain.log2_q(3);
        assert!(bits > 4.0 * 55.0 && bits < 4.0 * 59.0);
    }

    #[test]
    fn generate_returns_typed_errors_for_caller_input_it_used_to_assert_on() {
        assert!(matches!(
            ModulusChain::generate(64, 1, 40, 2),
            Err(ChainError::BadPlaintextModulus(1))
        ));
        let nothing_to_find = [
            (64, 257, 0),
            (64, 257, 128),
            (0, 257, 40),
            (64, u128::MAX, 40),
        ];
        for (n, t, bits) in nothing_to_find {
            assert!(
                matches!(
                    ModulusChain::generate(n, t, bits, 2),
                    Err(ChainError::TooFewPrimes {
                        wanted: 2,
                        found: 0
                    })
                ),
                "n={n} t={t} bits={bits}"
            );
        }
        // q ≡ 1 (mod 2·1000·t) needs no ring; the ring setup rejects n.
        assert_eq!(
            ModulusChain::generate(1000, 257, 40, 2).unwrap().levels(),
            2
        );
    }

    #[test]
    fn new_rejects_bad_parameters() {
        let chain = ModulusChain::generate(64, 257, 40, 2).unwrap();
        let primes = chain.primes().to_vec();
        assert!(matches!(
            ModulusChain::new(primes.clone(), 1),
            Err(ChainError::BadPlaintextModulus(1))
        ));
        // q ≢ 1 (mod t) is a chain; the rescale that drops such a prime refuses.
        assert!(primes.iter().all(|&q| q % 65537 != 1));
        assert_eq!(ModulusChain::new(primes.clone(), 65537).unwrap().t(), 65537);
        assert!(matches!(
            ModulusChain::new(vec![15], 7),
            Err(ChainError::NotPrime(15))
        ));
        assert!(matches!(
            ModulusChain::new(vec![primes[0], primes[0]], 257),
            Err(ChainError::Rns(RnsError::NotCoprime(_, _)))
        ));
        assert!(matches!(
            ModulusChain::new(vec![], 257),
            Err(ChainError::Rns(RnsError::Empty))
        ));
    }

    #[test]
    fn too_few_primes_is_reported() {
        // 2n·t strides of this size leave no room below 2^bits.
        let err = ModulusChain::generate(1024, 65537, 32, 2).unwrap_err();
        assert!(matches!(err, ChainError::TooFewPrimes { wanted: 2, .. }));
    }
}
