//! Fast modular arithmetic for word-sized (≤ 63-bit) moduli.
//!
//! This is the arithmetic used by the CPU baseline in Fig. 10 of the paper
//! (the "CPU-64b" series). It implements Barrett reduction — a
//! single-word pass for products of reduced operands, a two-word
//! reciprocal for arbitrary 128-bit values — and the Harvey/Shoup
//! butterfly trick for multiplications by a precomputed constant (twiddle
//! factors), which is what state-of-the-art CPU NTT libraries such as
//! OpenFHE use.
//!
//! Every correction — in [`add`](Modulus64::add), [`sub`](Modulus64::sub),
//! [`neg`](Modulus64::neg), [`mul_shoup`](Modulus64::mul_shoup) and the
//! end of the Barrett pass — is `Modulus128`'s mask select at half the
//! width: subtract, then add the modulus back when the difference, read
//! as `i64`, is negative. Every corrected difference lies in `[−m, m)`
//! for a modulus `m ≤ qn < 2^63`, so the sign test is exact. In an NTT
//! butterfly a compare-and-branch here is a coin flip per element; in
//! the host NTT's Shoup loop its mispredictions cost the 64K transform
//! about six times its arithmetic.

/// `d + m` when `d`, read as `i64`, is negative, else `d`.
#[inline(always)]
const fn lift(d: u64, m: u64) -> u64 {
    d.wrapping_add(m & ((d as i64) >> 63) as u64)
}

/// A modulus `2 <= q < 2^63`, prime or not, odd or even, with its
/// precomputed Barrett constants.
///
/// The `q < 2^63` bound guarantees that `a + b` for reduced operands never
/// overflows `u64` and that every correction's sign test is exact.
///
/// # Examples
///
/// ```
/// use rpu_arith::Modulus64;
///
/// let q = Modulus64::new(0x1000_0000_0000_1B01).unwrap(); // 60-bit prime
/// let a = q.mul(123456789, 987654321);
/// assert_eq!(a, (123456789u128 * 987654321 % q.value() as u128) as u64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus64 {
    q: u64,
    /// floor(2^128 / q), stored as (hi, lo) 64-bit halves.
    barrett_hi: u64,
    barrett_lo: u64,
    /// `lz(q) − 1`: the shift that brings `q` to exactly 63 bits.
    shift: u32,
    /// `q << shift`, in `[2^62, 2^63)`.
    qn: u64,
    /// `⌊(2^126 − 1) / qn⌋`, in `[2^63, 2^64)`.
    mu: u64,
}

impl Modulus64 {
    /// Creates a new modulus. Returns `None` if `q < 2` or `q >= 2^63`.
    pub fn new(q: u64) -> Option<Self> {
        if !(2..1u64 << 63).contains(&q) {
            return None;
        }
        // floor(2^128 / q) = floor((2^128 - 1) / q) + [q | 2^128]: the
        // correction is one exactly when q is a power of two, a valid
        // (even) modulus like any other.
        let max = u128::MAX;
        let mut quot = max / q as u128;
        if max % q as u128 == q as u128 - 1 {
            // q divides 2^128 exactly (q is a power of two).
            quot += 1;
        }
        let shift = q.leading_zeros() - 1;
        let qn = q << shift;
        Some(Modulus64 {
            q,
            barrett_hi: (quot >> 64) as u64,
            barrett_lo: quot as u64,
            shift,
            qn,
            mu: (((1u128 << 126) - 1) / qn as u128) as u64,
        })
    }

    /// Returns the modulus value.
    #[inline]
    pub const fn value(self) -> u64 {
        self.q
    }

    /// Reduces an arbitrary `u64` into `[0, q)`.
    #[inline]
    pub const fn reduce(self, a: u64) -> u64 {
        a % self.q
    }

    /// Reduces a 128-bit value into `[0, q)` using Barrett reduction.
    #[inline]
    pub fn reduce_wide(self, a: u128) -> u64 {
        // Estimate floor(a / q) using the precomputed reciprocal:
        //   est = floor(a * floor(2^128/q) / 2^128)
        // The estimate is off by at most 2; correct with subtractions.
        let mu = ((self.barrett_hi as u128) << 64) | self.barrett_lo as u128;
        let est = mul_u128_hi(a, mu);
        // est ∈ [Q-2, Q] where Q = floor(a/q), so the residue estimate is
        // in [0, 3q). 3q may exceed 2^64 for q close to 2^63, so correct in
        // u128 before narrowing.
        let mut r = a.wrapping_sub(est.wrapping_mul(self.q as u128));
        while r >= self.q as u128 {
            r -= self.q as u128;
        }
        r as u64
    }

    /// Modular addition of reduced operands.
    #[inline]
    pub const fn add(self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        // q < 2^63, so `a + b` cannot overflow.
        lift((a + b).wrapping_sub(self.q), self.q)
    }

    /// Modular subtraction of reduced operands.
    #[inline]
    pub const fn sub(self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        lift(a.wrapping_sub(b), self.q)
    }

    /// Modular negation of a reduced operand.
    #[inline]
    pub const fn neg(self, a: u64) -> u64 {
        debug_assert!(a < self.q);
        lift(a.wrapping_neg(), self.q)
    }

    /// Modular multiplication of reduced operands: [`Modulus128::mul`]'s
    /// normalised Barrett pass at half the width — three word multiplies
    /// where [`reduce_wide`](Modulus64::reduce_wide) on the product takes
    /// seven.
    ///
    /// [`Modulus128::mul`]: crate::Modulus128::mul
    #[inline]
    pub fn mul(self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        // Only a modulus above 2^62 has such a factor: multiply by its
        // negative, which is below 2^62, and negate the product.
        if b >> 62 != 0 {
            return self.neg(self.barrett(a, self.q - b));
        }
        self.barrett(a, b)
    }

    /// `a · b mod q` for `a < q`, `b < min(q, 2^62)`. The derivation in
    /// `mod128.rs` holds with every exponent halved: `x < 2^125`, the
    /// quotient estimate is at most one short, the remainder before
    /// correction is below `2·qn < 2^64`.
    #[inline]
    fn barrett(self, a: u64, b: u64) -> u64 {
        let x = (a << self.shift) as u128 * b as u128;
        let x1 = (x >> 61) as u64;
        let q_hat = ((x1 as u128 * self.mu as u128) >> 65) as u64;
        let r = (x as u64).wrapping_sub(q_hat.wrapping_mul(self.qn));
        lift(r.wrapping_sub(self.qn), self.qn) >> self.shift
    }

    /// Precomputes the Shoup constant `floor(w * 2^64 / q)` for a fixed
    /// multiplicand `w`, enabling [`mul_shoup`](Modulus64::mul_shoup).
    #[inline]
    pub fn shoup(self, w: u64) -> u64 {
        debug_assert!(w < self.q);
        (((w as u128) << 64) / self.q as u128) as u64
    }

    /// Multiplies `a` by the fixed constant `w < q` using its precomputed
    /// Shoup constant `w_shoup`. Roughly 2× faster than
    /// [`mul`](Modulus64::mul) on most CPUs; this is the core of the
    /// Harvey NTT butterfly. `a` may be any `u64`, reduced or not: the
    /// quotient estimate falls short of `⌊w·a/q⌋` by `w_shoup`'s
    /// truncation times `a / 2^64`, less than one, so `r < 2q < 2^64`.
    #[inline]
    pub fn mul_shoup(self, a: u64, w: u64, w_shoup: u64) -> u64 {
        debug_assert!(w < self.q);
        let quot = ((w_shoup as u128 * a as u128) >> 64) as u64;
        // The quotient estimate is at most one short: r < 2q.
        let r = (w.wrapping_mul(a)).wrapping_sub(quot.wrapping_mul(self.q));
        lift(r.wrapping_sub(self.q), self.q)
    }
}

/// Returns the high 128 bits of the 256-bit product `a * b`.
#[inline]
fn mul_u128_hi(a: u128, b: u128) -> u128 {
    crate::U256::mul_wide(a, b).hi()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModArith;

    const Q: u64 = 0xFFFF_FFFF_0000_0001; // Goldilocks, too big (2^64-ish)
    const Q60: u64 = 1152921504606830593; // 60-bit NTT prime: 2^60 - 2^14 + 1

    #[test]
    fn rejects_out_of_range() {
        assert!(Modulus64::new(0).is_none());
        assert!(Modulus64::new(1).is_none());
        assert!(Modulus64::new(Q).is_none()); // >= 2^63
        assert!(Modulus64::new(Q60).is_some());
    }

    #[test]
    fn mul_matches_naive() {
        let m = Modulus64::new(Q60).unwrap();
        let cases = [
            (0u64, 0u64),
            (1, Q60 - 1),
            (Q60 - 1, Q60 - 1),
            (123456789, 987654321),
            (Q60 / 2, Q60 / 3),
        ];
        for (a, b) in cases {
            let expect = (a as u128 * b as u128 % Q60 as u128) as u64;
            assert_eq!(m.mul(a, b), expect, "a={a} b={b}");
        }
    }

    #[test]
    fn shoup_matches_mul() {
        let m = Modulus64::new(Q60).unwrap();
        let w = 0xDEAD_BEEF_1234u64 % Q60;
        let ws = m.shoup(w);
        for a in [0u64, 1, 42, Q60 - 1, Q60 / 2] {
            assert_eq!(m.mul_shoup(a, w, ws), m.mul(a, w));
        }
    }

    #[test]
    fn add_sub_neg() {
        let m = Modulus64::new(Q60).unwrap();
        assert_eq!(m.add(Q60 - 1, 1), 0);
        assert_eq!(m.sub(0, 1), Q60 - 1);
        assert_eq!(m.neg(0), 0);
        assert_eq!(m.neg(5), Q60 - 5);
    }

    #[test]
    fn masked_corrections_at_the_top_of_the_range() {
        // At q = 2^63 − 1 a sum reaches 2^64 − 4: the sign bit of every
        // corrected value is bit 63.
        for q in [(1u64 << 63) - 1, (1u64 << 62) + 1] {
            let m = Modulus64::new(q).unwrap();
            let edge = [0, 1, 2, (1 << 62) - 1, 1 << 62, q / 2, q - 2, q - 1];
            for a in edge {
                assert_eq!(m.neg(a), (q - a) % q, "q={q} a={a}");
                for b in edge {
                    let prod = (a as u128 * b as u128 % q as u128) as u64;
                    assert_eq!(m.add(a, b), (a + b) % q, "q={q} a={a} b={b}");
                    assert_eq!(m.sub(a, b), (a + q - b) % q, "q={q} a={a} b={b}");
                    assert_eq!(m.mul(a, b), prod, "q={q} a={a} b={b}");
                    assert_eq!(m.mul_shoup(a, b, m.shoup(b)), prod, "q={q} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn pow_and_inv() {
        let m = Modulus64::new(Q60).unwrap();
        assert_eq!(m.pow(2, 10), 1024);
        assert_eq!(m.pow(7, 0), 1);
        let a = 123456789u64;
        assert_eq!(m.mul(a, m.inv(a)), 1);
    }

    #[test]
    fn reduce_wide_extremes() {
        let m = Modulus64::new(Q60).unwrap();
        assert_eq!(m.reduce_wide(0), 0);
        let big = (Q60 as u128 - 1) * (Q60 as u128 - 1);
        assert_eq!(m.reduce_wide(big), (big % Q60 as u128) as u64);
        assert_eq!(m.reduce_wide(u128::MAX), (u128::MAX % Q60 as u128) as u64);
    }
}
