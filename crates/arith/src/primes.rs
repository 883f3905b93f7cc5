//! NTT-friendly prime generation and primality testing.
//!
//! RLWE rings `Z_q[x]/(x^n + 1)` need a prime `q ≡ 1 (mod 2n)` so that a
//! primitive `2n`-th root of unity exists (negacyclic NTT). This module
//! finds such primes for both word-sized and large-word (up to 127-bit)
//! targets, mirroring the parameter generation OpenFHE performs.

use crate::{Lane, ModArith, Modulus128, Modulus64};

/// Deterministic Miller–Rabin witnesses that are sufficient for all
/// 64-bit integers (Sinclair's 7-base set).
const WITNESSES_64: [u64; 7] = [2, 325, 9375, 28178, 450775, 9780504, 1795265022];

/// Fixed witness set for 128-bit candidates. Miller–Rabin with `k` random
/// bases has error `4^-k`; we use 40 small-prime bases, giving an error
/// bound below `2^-80`, far past any practical concern for generated test
/// parameters.
const WITNESSES_128: [u128; 40] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173,
];

/// Returns `true` if `n` is prime (exact for all `n < 2^63`).
pub fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    match Modulus64::new(n) {
        Some(m) => miller_rabin(m, &WITNESSES_64),
        // n >= 2^63: fall through to the 128-bit tester.
        None => is_prime_u128(n as u128),
    }
}

/// Returns `true` if `n < 2^127` passes Miller–Rabin with the fixed
/// 40-prime witness set (probabilistic, error < 2^-80).
///
/// # Panics
///
/// Panics if `n >= 2^127` (outside the range [`Modulus128`] supports).
pub fn is_prime_u128(n: u128) -> bool {
    assert!(n < 1u128 << 127, "primality test limited to n < 2^127");
    if n < 2 {
        return false;
    }
    for p in WITNESSES_128.iter().take(20) {
        if n == *p {
            return true;
        }
        if n.is_multiple_of(*p) {
            return false;
        }
    }
    miller_rabin(Modulus128::new(n).expect("2 <= n < 2^127"), &WITNESSES_128)
}

/// Miller–Rabin on the odd modulus `m > 2` with each of `witnesses`:
/// `false` as soon as one proves `m` composite.
fn miller_rabin<M: ModArith>(m: M, witnesses: &[M::Word]) -> bool {
    let n = m.value().widen();
    let s = (n - 1).trailing_zeros();
    let d = M::Word::narrow((n - 1) >> s);
    let (one, minus_one) = (M::Word::narrow(1), M::Word::narrow(n - 1));
    'witness: for &a in witnesses {
        let a = m.canon(a);
        if a == M::Word::default() {
            continue;
        }
        let mut x = m.pow(a, d);
        if x == one || x == minus_one {
            continue;
        }
        for _ in 1..s {
            x = m.mul(x, x);
            if x == minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Candidates each prime search will test before giving up. By the
/// prime number theorem a random `k·2n + 1` below `2^127` is prime with
/// probability ≳ 1/(127·ln 2) ≈ 1/88, so 65536 candidates fail with
/// probability below `(1 - 1/88)^65536 < 2^-1000` whenever *any* prime
/// exists in range — the budget turns a theoretically unbounded walk
/// into a provably terminating one without ever firing in practice.
const SEARCH_BUDGET: u32 = 1 << 16;

/// Finds the largest prime `q < 2^bits` with `q ≡ 1 (mod modulo)`.
///
/// `modulo` is typically `2n` for a ring of degree `n` (negacyclic NTT) or
/// `n` for a cyclic NTT. Returns `None` if no such prime exists below the
/// bound (only plausible for tiny `bits`) **or** if none appears within
/// the fixed search budget (65536 candidates) — the search is provably
/// bounded rather than an open-ended walk toward `k = 0`.
///
/// # Panics
///
/// Panics unless `1 <= bits <= 127` and `modulo` is a non-zero power of
/// two (the only case ring processing needs, and it keeps the stride
/// search exact).
pub fn find_ntt_prime_u128(bits: u32, modulo: u128) -> Option<u128> {
    assert_ntt_search(bits, modulo);
    walk(bits, modulo, 1).pop()
}

/// The argument checks of the power-of-two searches.
fn assert_ntt_search(bits: u32, modulo: u128) {
    assert!((1..=127).contains(&bits), "bits must be in 1..=127");
    assert!(
        modulo != 0 && modulo.is_power_of_two(),
        "modulo must be a power of two"
    );
}

/// The one descending walk every search runs: the first `count` primes
/// of the form `k·stride + 1` below `2^bits`, largest first. The budget
/// bounds the composites tested in a row and refreshes per prime found,
/// so the walk never exceeds `count × SEARCH_BUDGET` candidates.
fn walk(bits: u32, stride: u128, count: usize) -> Vec<u128> {
    let mut k = ((1u128 << bits) - 2) / stride;
    let mut out = Vec::with_capacity(count);
    let mut budget = SEARCH_BUDGET;
    while k > 0 && out.len() < count && budget > 0 {
        let q = k * stride + 1;
        if is_prime_u128(q) {
            out.push(q);
            budget = SEARCH_BUDGET;
        } else {
            budget -= 1;
        }
        k -= 1;
    }
    out
}

/// Finds the largest prime `q < 2^bits` with `q ≡ 1 (mod modulo)`, for
/// word-sized targets (`bits <= 62`).
///
/// # Panics
///
/// Panics unless `1 <= bits <= 62` and `modulo` is a non-zero power of two.
pub fn find_ntt_prime_u64(bits: u32, modulo: u64) -> Option<u64> {
    assert!((1..=62).contains(&bits), "bits must be in 1..=62");
    find_ntt_prime_u128(bits, modulo as u128).map(|q| q as u64)
}

/// Generates a chain of `count` distinct NTT-friendly primes just below
/// `2^bits`, all `≡ 1 (mod modulo)` — the RNS tower moduli of Section II-B.
///
/// Primes are returned in descending order. Returns fewer than `count`
/// primes only if the range (or the per-prime search budget) is
/// exhausted.
///
/// # Panics
///
/// Panics unless `1 <= bits <= 127` and `modulo` is a non-zero power of two.
pub fn find_ntt_prime_chain(bits: u32, modulo: u128, count: usize) -> Vec<u128> {
    assert_ntt_search(bits, modulo);
    walk(bits, modulo, count)
}

/// Finds `count` distinct primes just below `2^bits` with
/// `q ≡ 1 (mod stride)` for an **arbitrary** non-zero stride — the
/// generalization of [`find_ntt_prime_chain`] that leveled modulus
/// chains need, where the stride is `2n·t` so every chain prime is both
/// NTT-friendly (`q ≡ 1 mod 2n`) and plaintext-neutral (`q ≡ 1 mod t`,
/// making the rescale factor `q^{-1} ≡ 1 mod t`).
///
/// Primes are returned in descending order. Returns fewer than `count`
/// primes if the range below `2^bits` (or the per-prime search budget)
/// is exhausted.
///
/// # Panics
///
/// Panics unless `1 <= bits <= 127` and `stride` is non-zero.
pub fn find_congruent_prime_chain(bits: u32, stride: u128, count: usize) -> Vec<u128> {
    assert!((1..=127).contains(&bits), "bits must be in 1..=127");
    assert!(stride != 0, "stride must be non-zero");
    walk(bits, stride, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes_classified() {
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 7681, 12289, 65537];
        let composites = [0u64, 1, 4, 6, 9, 15, 91, 7682, 1 << 20];
        for p in primes {
            assert!(is_prime_u64(p), "{p} should be prime");
        }
        for c in composites {
            assert!(!is_prime_u64(c), "{c} should be composite");
        }
    }

    #[test]
    fn known_ntt_primes() {
        // Kyber's q = 3329 = 13*256 + 1 (supports 256-point NTT).
        assert!(is_prime_u64(3329));
        assert_eq!(3329 % 256, 1);
        // Classic 60-bit OpenFHE-style prime: 2^60 - 2^14 + 1.
        assert!(is_prime_u64(1152921504606830593));
    }

    #[test]
    fn carmichael_not_prime() {
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911] {
            assert!(!is_prime_u64(c), "{c} is Carmichael, not prime");
        }
    }

    #[test]
    fn strong_pseudoprime_base2_rejected() {
        // 2047 = 23 * 89 is a strong pseudoprime to base 2.
        assert!(!is_prime_u64(2047));
        assert!(!is_prime_u128(2047));
    }

    #[test]
    fn strong_pseudoprimes_to_many_bases_rejected() {
        // 3215031751 = 151 · 751 · 28351 passes bases 2, 3, 5 and 7;
        // 3825123056546413051 passes every prime base up to 23.
        for c in [3215031751u64, 3825123056546413051] {
            assert!(!is_prime_u64(c), "{c} is composite");
            assert!(!is_prime_u128(c.into()), "{c} is composite");
        }
    }

    #[test]
    fn find_prime_respects_congruence() {
        let n = 1u128 << 16; // 64K ring -> need q ≡ 1 mod 2^17
        let q = find_ntt_prime_u128(126, 2 * n).expect("prime exists");
        assert!(q < 1u128 << 126);
        assert_eq!(q % (2 * n), 1);
        assert!(is_prime_u128(q));
    }

    #[test]
    fn find_prime_u64_60bit() {
        let q = find_ntt_prime_u64(60, 1 << 17).expect("prime exists");
        assert!(q < 1u64 << 60);
        assert_eq!(q % (1 << 17), 1);
        assert!(is_prime_u64(q));
    }

    #[test]
    fn prime_chain_distinct_and_congruent() {
        let chain = find_ntt_prime_chain(59, 1 << 13, 5);
        assert_eq!(chain.len(), 5);
        for w in chain.windows(2) {
            assert!(w[0] > w[1], "descending order");
        }
        for &q in &chain {
            assert!(is_prime_u128(q));
            assert_eq!(q % (1 << 13), 1);
        }
    }

    #[test]
    fn congruent_chain_honours_arbitrary_stride() {
        // Stride 2n·t with n = 512, t = 65537 — not a power of two.
        let stride = 1024u128 * 65537;
        let chain = find_congruent_prime_chain(60, stride, 4);
        assert_eq!(chain.len(), 4);
        for w in chain.windows(2) {
            assert!(w[0] > w[1], "descending order");
        }
        for &q in &chain {
            assert!(is_prime_u128(q));
            assert_eq!(q % stride, 1);
            assert!(q < 1u128 << 60);
        }
    }

    #[test]
    fn single_prime_is_the_chains_first() {
        // One walk behind every search: the single-prime search answers
        // what a one-prime chain holds, found or not, at every width.
        for bits in (1..=127).step_by(7).chain([59, 60, 62, 126, 127]) {
            for modulo in [2u128, 1 << 11, 1 << 17] {
                let chain = find_ntt_prime_chain(bits, modulo, 1);
                assert_eq!(
                    find_ntt_prime_u128(bits, modulo),
                    chain.first().copied(),
                    "bits {bits}, modulo {modulo}"
                );
            }
        }
    }

    #[test]
    fn is_prime_u64_delegates_above_2_63() {
        // 2^63 + 29 might or might not be prime; just check it doesn't panic
        // and agrees with the u128 tester.
        let n = (1u64 << 63) + 29;
        assert_eq!(is_prime_u64(n), is_prime_u128(n as u128));
    }
}
