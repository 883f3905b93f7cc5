//! Roots of unity for NTT twiddle-factor generation.
//!
//! For a prime `q ≡ 1 (mod m)` with `m` a power of two, a primitive `m`-th
//! root of unity is obtained without factoring `q - 1`: raise a random
//! element to the `(q-1)/m` power and keep the result if its `m/2` power is
//! `-1`. This is the standard approach in lattice-crypto libraries and is
//! how the twiddle tables consumed by both the reference NTT and the RPU
//! programs are seeded.

use crate::{Lane, ModArith};

/// Error returned when a root of unity cannot be constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindRootError {
    /// `order` was zero or not a power of two.
    OrderNotPowerOfTwo,
    /// `q - 1` is not divisible by `order`, so no such root exists.
    OrderDoesNotDivide,
    /// The deterministic candidate sweep was exhausted (practically
    /// unreachable for prime `q`).
    SearchExhausted,
}

impl core::fmt::Display for FindRootError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FindRootError::OrderNotPowerOfTwo => write!(f, "order must be a power of two"),
            FindRootError::OrderDoesNotDivide => write!(f, "order does not divide q - 1"),
            FindRootError::SearchExhausted => write!(f, "no primitive root found in sweep"),
        }
    }
}

impl std::error::Error for FindRootError {}

/// Finds a primitive `order`-th root of unity modulo the prime `q`.
///
/// `order` must be a power of two dividing `q - 1`. The search is
/// deterministic (candidates 2, 3, 4, ...), so results are reproducible
/// across runs — important because generated RPU programs embed twiddles
/// in their data images.
///
/// # Errors
///
/// Returns [`FindRootError`] if `order` is invalid for `q` or the sweep
/// fails (which, for prime `q`, it cannot in practice).
///
/// # Examples
///
/// ```
/// use rpu_arith::{ModArith, Modulus128, primitive_root_of_unity};
///
/// let q = Modulus128::new(97).unwrap(); // 97 = 3 * 2^5 + 1
/// let w = primitive_root_of_unity(q, 32).unwrap();
/// assert_eq!(q.pow(w, 32), 1);
/// assert_eq!(q.pow(w, 16), 96); // w^(order/2) = -1  => primitive
/// ```
pub fn primitive_root_of_unity<M: ModArith>(q: M, order: u128) -> Result<M::Word, FindRootError> {
    if order == 0 || !order.is_power_of_two() {
        return Err(FindRootError::OrderNotPowerOfTwo);
    }
    if order == 1 {
        return Ok(M::Word::narrow(1));
    }
    let minus_one = q.value().widen() - 1;
    if !minus_one.is_multiple_of(order) {
        return Err(FindRootError::OrderDoesNotDivide);
    }
    // order divides q − 1, so both exponents fit the word.
    let (exp, half) = (
        M::Word::narrow(minus_one / order),
        M::Word::narrow(order / 2),
    );
    for candidate in 2..10_000u128 {
        let g = q.pow(M::Word::narrow(candidate), exp);
        // g has order dividing `order`; it is primitive iff g^(order/2) = -1.
        if q.pow(g, half).widen() == minus_one {
            return Ok(g);
        }
    }
    Err(FindRootError::SearchExhausted)
}

/// Precomputed powers of a root of unity: `table[i] = w^i mod q`, at
/// either modulus width.
pub fn power_table<M: ModArith>(q: M, w: M::Word, count: usize) -> Vec<M::Word> {
    let mut out = Vec::with_capacity(count);
    let mut acc = M::Word::narrow(1);
    for _ in 0..count {
        out.push(acc);
        acc = q.mul(acc, w);
    }
    out
}

/// Precomputed powers stored in bit-reversed index order:
/// `table[i] = w^bitrev(i)` for `i < count` (`count` must be a power of
/// two). Lattice NTT implementations index twiddles this way so that each
/// butterfly stage reads a contiguous slice.
///
/// # Panics
///
/// Panics if `count` is not a power of two.
pub fn power_table_bitrev<M: ModArith>(q: M, w: M::Word, count: usize) -> Vec<M::Word> {
    assert!(count.is_power_of_two(), "count must be a power of two");
    let bits = count.trailing_zeros();
    let plain = power_table(q, w, count);
    (0..count).map(|i| plain[bit_reverse(i, bits)]).collect()
}

/// Reverses the low `bits` bits of `i`.
#[inline]
pub fn bit_reverse(i: usize, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    i.reverse_bits() >> (usize::BITS - bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_ntt_prime_u128, Modulus128};

    #[test]
    fn root_in_small_field() {
        let q = Modulus128::new(7681).unwrap(); // 7681 = 15 * 2^9 + 1
        let w = primitive_root_of_unity(q, 512).unwrap();
        assert_eq!(q.pow(w, 512), 1);
        assert_ne!(q.pow(w, 256), 1);
    }

    #[test]
    fn root_orders_all_powers() {
        let q = Modulus128::new(7681).unwrap();
        for logm in 1..=9 {
            let m = 1u128 << logm;
            let w = primitive_root_of_unity(q, m).unwrap();
            assert_eq!(q.pow(w, m), 1, "order {m}");
            assert_eq!(q.pow(w, m / 2), q.value() - 1, "order {m} primitive");
        }
    }

    #[test]
    fn root_errors() {
        let q = Modulus128::new(7681).unwrap();
        assert_eq!(
            primitive_root_of_unity(q, 3).unwrap_err(),
            FindRootError::OrderNotPowerOfTwo
        );
        assert_eq!(
            primitive_root_of_unity(q, 1 << 20).unwrap_err(),
            FindRootError::OrderDoesNotDivide
        );
    }

    #[test]
    fn root_in_large_field() {
        let qv = find_ntt_prime_u128(126, 1 << 17).unwrap();
        let q = Modulus128::new(qv).unwrap();
        let w = primitive_root_of_unity(q, 1 << 17).unwrap();
        assert_eq!(q.pow(w, 1 << 17), 1);
        assert_eq!(q.pow(w, 1 << 16), qv - 1);
    }

    #[test]
    fn power_tables_consistent() {
        let q = Modulus128::new(97).unwrap();
        let w = primitive_root_of_unity(q, 8).unwrap();
        let plain = power_table(q, w, 8);
        assert_eq!(plain[0], 1);
        assert_eq!(plain[2], q.mul(w, w));
        let rev = power_table_bitrev(q, w, 8);
        assert_eq!(rev[0], plain[0]);
        assert_eq!(rev[1], plain[4]);
        assert_eq!(rev[3], plain[6]);
    }

    #[test]
    fn bit_reverse_involution() {
        for bits in 0..12u32 {
            for i in 0..(1usize << bits) {
                assert_eq!(bit_reverse(bit_reverse(i, bits), bits), i);
            }
        }
    }
}
