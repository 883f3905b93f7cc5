//! Residue Number System (RNS) decomposition — Section II-B of the paper.
//!
//! A large ciphertext modulus `Q = q_0 q_1 ... q_{L-1}` is represented by
//! residues modulo pairwise-coprime "tower" primes. Each tower then runs
//! through the NTT independently, which is exactly how the RPU processes
//! wide-coefficient polynomials: the paper's example converts a 1600-bit
//! modulus into 13 towers of 128-bit arithmetic.

use crate::{Modulus128, UBig};

/// Error constructing an [`RnsBasis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RnsError {
    /// Fewer than one modulus supplied.
    Empty,
    /// A modulus was out of the supported `[2, 2^127)` range.
    ModulusOutOfRange(u128),
    /// Two moduli share a common factor (checked pairwise via gcd).
    NotCoprime(u128, u128),
}

impl core::fmt::Display for RnsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RnsError::Empty => write!(f, "RNS basis requires at least one modulus"),
            RnsError::ModulusOutOfRange(q) => write!(f, "modulus {q} out of range [2, 2^127)"),
            RnsError::NotCoprime(a, b) => write!(f, "moduli {a} and {b} are not coprime"),
        }
    }
}

impl std::error::Error for RnsError {}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A basis of pairwise-coprime moduli with precomputed Garner constants
/// for CRT reconstruction.
///
/// # Examples
///
/// ```
/// use rpu_arith::RnsBasis;
///
/// let basis = RnsBasis::new(vec![97, 193, 257]).unwrap();
/// let residues = basis.decompose_u128(1_000_000);
/// let back = basis.reconstruct(&residues);
/// assert_eq!(back.to_u128(), Some(1_000_000 % (97 * 193 * 257)));
/// ```
#[derive(Debug, Clone)]
pub struct RnsBasis {
    moduli: Vec<Modulus128>,
    /// Garner constants: `inv[j][i] = q_i^{-1} mod q_j` for `i < j`.
    inverses: Vec<Vec<u128>>,
}

impl RnsBasis {
    /// Builds a basis from tower moduli.
    ///
    /// # Errors
    ///
    /// Returns an [`RnsError`] when the list is empty, a modulus is out of
    /// range, or two moduli share a factor.
    pub fn new(moduli: Vec<u128>) -> Result<Self, RnsError> {
        if moduli.is_empty() {
            return Err(RnsError::Empty);
        }
        for (i, &a) in moduli.iter().enumerate() {
            for &b in &moduli[i + 1..] {
                if gcd(a, b) != 1 {
                    return Err(RnsError::NotCoprime(a, b));
                }
            }
        }
        let ms: Vec<Modulus128> = moduli
            .iter()
            .map(|&q| Modulus128::new(q).ok_or(RnsError::ModulusOutOfRange(q)))
            .collect::<Result<_, _>>()?;
        // Garner: inverses of earlier moduli modulo later ones. Coprimality
        // guarantees invertibility even for non-prime moduli, so use the
        // extended Euclid rather than Fermat here.
        let mut inverses = Vec::with_capacity(ms.len());
        for (j, mj) in ms.iter().enumerate() {
            let mut row = Vec::with_capacity(j);
            for mi in &ms[..j] {
                row.push(mod_inverse(mi.value() % mj.value(), mj.value()));
            }
            inverses.push(row);
        }
        Ok(RnsBasis {
            moduli: ms,
            inverses,
        })
    }

    /// Number of towers `L`.
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// Returns `true` if the basis has no moduli (never true for a
    /// successfully constructed basis).
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The tower moduli.
    pub fn moduli(&self) -> &[Modulus128] {
        &self.moduli
    }

    /// The full modulus `Q` as a big integer.
    pub fn product(&self) -> UBig {
        let mut acc = UBig::from_u128(1);
        for m in &self.moduli {
            acc = acc.mul_u128(m.value());
        }
        acc
    }

    /// Decomposes a `u128` value into its residue vector.
    pub fn decompose_u128(&self, v: u128) -> Vec<u128> {
        self.moduli.iter().map(|m| v % m.value()).collect()
    }

    /// Decomposes a big integer into its residue vector.
    pub fn decompose(&self, v: &UBig) -> Vec<u128> {
        self.moduli.iter().map(|m| v.rem_u128(m.value())).collect()
    }

    /// Splits a whole coefficient vector into its RNS towers
    /// (tower-major: one residue vector per modulus) — the host-side
    /// shard step before per-tower vectors are dispatched to parallel
    /// RPU lanes.
    pub fn split_u128_poly(&self, coeffs: &[u128]) -> Vec<Vec<u128>> {
        self.moduli
            .iter()
            .map(|m| coeffs.iter().map(|&c| c % m.value()).collect())
            .collect()
    }

    /// Recombines tower-major residue vectors into big-integer
    /// coefficients in `[0, Q)` via CRT — the host-side merge step after
    /// parallel lanes return their tower results.
    ///
    /// # Panics
    ///
    /// Panics if the tower count does not match the basis, the towers
    /// have unequal lengths, or `towers` is empty.
    pub fn recombine_poly(&self, towers: &[Vec<u128>]) -> Vec<UBig> {
        assert_eq!(
            towers.len(),
            self.moduli.len(),
            "tower count must match basis size"
        );
        let n = towers.first().map_or(0, Vec::len);
        assert!(
            towers.iter().all(|t| t.len() == n),
            "towers must have equal lengths"
        );
        (0..n)
            .map(|i| {
                let residues: Vec<u128> = towers.iter().map(|t| t[i]).collect();
                self.reconstruct(&residues)
            })
            .collect()
    }

    /// Reconstructs the unique value in `[0, Q)` from residues using
    /// Garner's algorithm (mixed-radix conversion).
    ///
    /// # Panics
    ///
    /// Panics if `residues.len() != self.len()`.
    pub fn reconstruct(&self, residues: &[u128]) -> UBig {
        assert_eq!(
            residues.len(),
            self.moduli.len(),
            "residue count must match basis size"
        );
        // Mixed-radix digits: v_j = (x_j - partial) * prod_{i<j} q_i^{-1} mod q_j
        let mut digits = Vec::with_capacity(self.moduli.len());
        for (j, mj) in self.moduli.iter().enumerate() {
            let mut u = residues[j] % mj.value();
            // subtract the contribution of earlier digits, scaling as we go:
            // u = (x_j - (v_0 + v_1 q_0 + ...)) * (q_0 q_1 ...)^{-1}
            for (i, &d) in digits.iter().enumerate() {
                u = mj.sub(u, mj.reduce(d));
                u = mj.mul(u, self.inverses[j][i]);
            }
            digits.push(u);
        }
        // x = v_0 + q_0 (v_1 + q_1 (v_2 + ...))
        let mut acc = UBig::zero();
        for j in (0..digits.len()).rev() {
            acc = acc.mul_u128(self.moduli[j].value());
            // acc += digits[j]
            let mut d = UBig::from_u128(digits[j]);
            core::mem::swap(&mut acc, &mut d);
            acc.add_assign(&d);
        }
        acc
    }
}

/// Extended-Euclid modular inverse; `a` and `m` must be coprime.
///
/// All Bezout-coefficient arithmetic is performed modulo `m` (with a wide
/// intermediate for the product), so nothing can overflow even for moduli
/// close to `2^127`.
///
/// # Panics
///
/// Debug-panics when `a` and `m` are not coprime (the result is
/// meaningless in that case).
pub fn mod_inverse(a: u128, m: u128) -> u128 {
    let mul_mod = |x: u128, y: u128| crate::U256::mul_wide(x % m, y % m).rem_u128(m);
    let (mut old_r, mut r) = (a % m, m);
    let (mut old_s, mut s): (u128, u128) = (1, 0);
    while r != 0 {
        let quot = old_r / r;
        let new_r = old_r - quot * r;
        // new_s = old_s - quot * s   (mod m)
        let t = mul_mod(quot, s);
        let new_s = if old_s >= t { old_s - t } else { old_s + m - t };
        (old_r, r) = (r, new_r);
        (old_s, s) = (s, new_s);
    }
    debug_assert_eq!(old_r, 1, "inputs must be coprime");
    old_s % m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_ntt_prime_chain;

    #[test]
    fn rejects_bad_bases() {
        assert_eq!(RnsBasis::new(vec![]).unwrap_err(), RnsError::Empty);
        assert_eq!(
            RnsBasis::new(vec![6, 9]).unwrap_err(),
            RnsError::NotCoprime(6, 9)
        );
        assert_eq!(
            RnsBasis::new(vec![1]).unwrap_err(),
            RnsError::ModulusOutOfRange(1)
        );
    }

    #[test]
    fn small_crt_round_trip() {
        let basis = RnsBasis::new(vec![3, 5, 7]).unwrap();
        for v in 0..105u128 {
            let r = basis.decompose_u128(v);
            assert_eq!(basis.reconstruct(&r).to_u128(), Some(v));
        }
    }

    #[test]
    fn mod_inverse_basic() {
        assert_eq!(mod_inverse(3, 7), 5); // 3*5 = 15 ≡ 1 (mod 7)
        assert_eq!(mod_inverse(2, 9), 5); // 2*5 = 10 ≡ 1 (mod 9)
        let m = (1u128 << 61) - 1;
        let a = 123_456_789u128;
        let inv = mod_inverse(a, m);
        assert_eq!(crate::U256::mul_wide(a, inv).rem_u128(m), 1);
    }

    #[test]
    fn paper_example_13_towers_cover_1600_bits() {
        // "a polynomial with 1,600-bit modulus is converted to 13 towers
        // where each tower has 128-bit elements" — 13 x ~125-bit primes
        // give a >1600-bit Q.
        let primes = find_ntt_prime_chain(126, 1 << 17, 13);
        assert_eq!(primes.len(), 13);
        let basis = RnsBasis::new(primes).unwrap();
        assert!(basis.product().bits() >= 1600, "Q should span 1600+ bits");
        // round-trip a large value
        let x = UBig::from_u128(u128::MAX).mul_u128(0xDEAD_BEEF_0BAD_F00D);
        let r = basis.decompose(&x);
        assert_eq!(basis.reconstruct(&r), x);
    }

    #[test]
    fn poly_split_recombine_round_trips() {
        let primes = find_ntt_prime_chain(40, 1 << 8, 3);
        let basis = RnsBasis::new(primes.clone()).unwrap();
        let coeffs: Vec<u128> = (0..16u128).map(|i| (i << 100) | (i * 7 + 1)).collect();
        let towers = basis.split_u128_poly(&coeffs);
        assert_eq!(towers.len(), 3);
        for (t, &q) in primes.iter().enumerate() {
            assert!(towers[t].iter().all(|&r| r < q), "tower {t} reduced");
        }
        let back = basis.recombine_poly(&towers);
        for (i, c) in coeffs.iter().enumerate() {
            // the inputs fit below Q, so the round trip is exact
            assert_eq!(back[i].to_u128(), Some(*c), "coefficient {i}");
        }
    }

    #[test]
    #[should_panic(expected = "tower count")]
    fn recombine_rejects_wrong_tower_count() {
        let basis = RnsBasis::new(vec![3, 5]).unwrap();
        let _ = basis.recombine_poly(&[vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn recombine_rejects_ragged_towers() {
        let basis = RnsBasis::new(vec![3, 5]).unwrap();
        let _ = basis.recombine_poly(&[vec![1, 2], vec![1]]);
    }

    #[test]
    fn reconstruct_is_least_residue() {
        let basis = RnsBasis::new(vec![11, 13]).unwrap();
        let v = 11 * 13 + 5;
        let r = basis.decompose_u128(v);
        assert_eq!(basis.reconstruct(&r).to_u128(), Some(5));
    }

    #[test]
    #[should_panic(expected = "residue count")]
    fn reconstruct_wrong_len_panics() {
        let basis = RnsBasis::new(vec![3, 5]).unwrap();
        let _ = basis.reconstruct(&[1]);
    }
}
