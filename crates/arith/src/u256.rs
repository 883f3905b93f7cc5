//! Minimal 256-bit unsigned integer support.
//!
//! The RPU's LAW (Large Arithmetic Word) engines operate on 128-bit
//! residues, so every modular multiplication passes through a 256-bit
//! intermediate product. [`U256`] provides exactly the operations that the
//! rest of the workspace needs — wide multiplication, carrying addition,
//! borrowing subtraction, shifts, and division by a 128-bit divisor — and
//! nothing more.

/// A 256-bit unsigned integer stored as two 128-bit halves.
///
/// # Examples
///
/// ```
/// use rpu_arith::U256;
///
/// let p = U256::mul_wide(u128::MAX, u128::MAX);
/// assert_eq!(p.hi(), u128::MAX - 1);
/// assert_eq!(p.lo(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct U256 {
    hi: u128,
    lo: u128,
}

impl U256 {
    /// The value zero.
    pub const ZERO: U256 = U256 { hi: 0, lo: 0 };
    /// The value one.
    pub const ONE: U256 = U256 { hi: 0, lo: 1 };
    /// The largest representable value, `2^256 - 1`.
    pub const MAX: U256 = U256 {
        hi: u128::MAX,
        lo: u128::MAX,
    };

    /// Creates a value from its high and low 128-bit halves.
    #[inline]
    pub const fn new(hi: u128, lo: u128) -> Self {
        U256 { hi, lo }
    }

    /// Returns the high 128 bits.
    #[inline]
    pub const fn hi(self) -> u128 {
        self.hi
    }

    /// Returns the low 128 bits.
    #[inline]
    pub const fn lo(self) -> u128 {
        self.lo
    }

    /// Computes the full 256-bit product of two 128-bit values.
    ///
    /// This is the workhorse of all wide modular arithmetic in the
    /// workspace; it decomposes each operand into 64-bit limbs and
    /// accumulates the four partial products with explicit carries.
    #[inline]
    pub const fn mul_wide(a: u128, b: u128) -> Self {
        const MASK: u128 = (1u128 << 64) - 1;
        let (a0, a1) = (a & MASK, a >> 64);
        let (b0, b1) = (b & MASK, b >> 64);

        let p00 = a0 * b0;
        let p01 = a0 * b1;
        let p10 = a1 * b0;
        let p11 = a1 * b1;

        // mid = p01 + p10 + carry-in from p00's high half; may carry into hi.
        let (mid, c1) = p01.overflowing_add(p10);
        let (mid, c2) = mid.overflowing_add(p00 >> 64);
        let carry = ((c1 as u128) + (c2 as u128)) << 64;

        let lo = (p00 & MASK) | (mid << 64);
        let hi = p11 + (mid >> 64) + carry;
        U256 { hi, lo }
    }

    /// Wrapping addition, returning the carry-out flag.
    #[inline]
    pub const fn overflowing_add(self, rhs: Self) -> (Self, bool) {
        let (lo, c0) = self.lo.overflowing_add(rhs.lo);
        let (hi, c1) = self.hi.overflowing_add(rhs.hi);
        let (hi, c2) = hi.overflowing_add(c0 as u128);
        (U256 { hi, lo }, c1 || c2)
    }

    /// Wrapping addition modulo `2^256`.
    #[inline]
    pub const fn wrapping_add(self, rhs: Self) -> Self {
        self.overflowing_add(rhs).0
    }

    /// Wrapping subtraction, returning the borrow-out flag.
    #[inline]
    pub const fn overflowing_sub(self, rhs: Self) -> (Self, bool) {
        let (lo, b0) = self.lo.overflowing_sub(rhs.lo);
        let (hi, b1) = self.hi.overflowing_sub(rhs.hi);
        let (hi, b2) = hi.overflowing_sub(b0 as u128);
        (U256 { hi, lo }, b1 || b2)
    }

    /// Wrapping subtraction modulo `2^256`.
    #[inline]
    pub const fn wrapping_sub(self, rhs: Self) -> Self {
        self.overflowing_sub(rhs).0
    }

    /// Logical left shift by `n` bits.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 256`.
    #[inline]
    pub const fn shl(self, n: u32) -> Self {
        assert!(n < 256, "shift amount must be < 256");
        if n == 0 {
            self
        } else if n < 128 {
            U256 {
                hi: (self.hi << n) | (self.lo >> (128 - n)),
                lo: self.lo << n,
            }
        } else {
            U256 {
                hi: self.lo << (n - 128),
                lo: 0,
            }
        }
    }

    /// Logical right shift by `n` bits.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 256`.
    #[inline]
    pub const fn shr(self, n: u32) -> Self {
        assert!(n < 256, "shift amount must be < 256");
        if n == 0 {
            self
        } else if n < 128 {
            U256 {
                hi: self.hi >> n,
                lo: (self.lo >> n) | (self.hi << (128 - n)),
            }
        } else {
            U256 {
                hi: 0,
                lo: self.hi >> (n - 128),
            }
        }
    }

    /// Returns `true` if the value is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.hi == 0 && self.lo == 0
    }

    /// Returns bit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    #[inline]
    pub const fn bit(self, i: u32) -> bool {
        assert!(i < 256, "bit index must be < 256");
        if i < 128 {
            (self.lo >> i) & 1 == 1
        } else {
            (self.hi >> (i - 128)) & 1 == 1
        }
    }

    /// Divides `self` by a non-zero 128-bit divisor, returning
    /// `(quotient, remainder)`.
    ///
    /// Schoolbook long division on native `u128` operations: by 64-bit
    /// limbs when the divisor fits one, otherwise the high word by native
    /// division and the low word by one two-word-by-one-word step.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn div_rem_u128(self, d: u128) -> (U256, u128) {
        assert!(d != 0, "division by zero");
        if self.hi == 0 {
            return (U256::new(0, self.lo / d), self.lo % d);
        }
        // Fast path: divisor fits in 64 bits -> do limbwise long division
        // with u128 intermediates (4 limbs of 64 bits).
        if d <= u64::MAX as u128 {
            let limbs = [
                (self.lo & 0xFFFF_FFFF_FFFF_FFFF) as u64,
                (self.lo >> 64) as u64,
                (self.hi & 0xFFFF_FFFF_FFFF_FFFF) as u64,
                (self.hi >> 64) as u64,
            ];
            let mut q = [0u64; 4];
            let mut rem: u128 = 0;
            for i in (0..4).rev() {
                let cur = (rem << 64) | limbs[i] as u128;
                q[i] = (cur / d) as u64;
                rem = cur - q[i] as u128 * d;
            }
            let qlo = q[0] as u128 | ((q[1] as u128) << 64);
            let qhi = q[2] as u128 | ((q[3] as u128) << 64);
            return (U256::new(qhi, qlo), rem);
        }
        let (q_lo, rem) = div_2by1(self.hi % d, self.lo, d);
        (U256::new(self.hi / d, q_lo), rem)
    }

    /// Reduces `self` modulo a non-zero 128-bit modulus.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    #[inline]
    pub fn rem_u128(self, m: u128) -> u128 {
        self.div_rem_u128(m).1
    }
}

/// Divides the two-word value `u1·2^128 + u0` by `v`, for `u1 < v` (so
/// the quotient fits one word), returning `(quotient, remainder)`:
/// Knuth's Algorithm D in base 2^64 for a two-digit divisor (Hacker's
/// Delight §9-4, `divlu`, with `u128` for its words).
fn div_2by1(u1: u128, u0: u128, v: u128) -> (u128, u128) {
    debug_assert!(u1 < v);
    const B: u128 = 1 << 64;
    // Normalise so the divisor's top bit is set; `u1 < v` keeps the
    // shifted dividend's top word below the shifted divisor.
    let s = v.leading_zeros();
    let v = v << s;
    let (v1, v0) = (v >> 64, v % B);
    let top = if s == 0 {
        u1
    } else {
        (u1 << s) | (u0 >> (128 - s))
    };
    let low = u0 << s;
    // One quotient digit of `(num·B + next) / v` for `num < v`: estimate
    // from the divisor's top digit, then correct (at most twice).
    let digit = |num: u128, next: u128| {
        let (mut q, mut rhat) = (num / v1, num % v1);
        while q >= B || q * v0 > (rhat << 64 | next) {
            q -= 1;
            rhat += v1;
            if rhat >= B {
                break;
            }
        }
        q
    };
    // `num·B + next − q·v` is below `v`, so computing it modulo 2^128
    // loses nothing.
    let rest = |num: u128, next: u128, q: u128| (num << 64 | next).wrapping_sub(q.wrapping_mul(v));
    let q1 = digit(top, low >> 64);
    let mid = rest(top, low >> 64, q1);
    let q0 = digit(mid, low % B);
    (q1 << 64 | q0, rest(mid, low % B, q0) >> s)
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        U256::new(0, v)
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::new(0, v as u128)
    }
}

impl core::fmt::Display for U256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.hi == 0 {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "0x{:032x}{:032x}", self.hi, self.lo)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_wide_small() {
        let p = U256::mul_wide(7, 6);
        assert_eq!(p, U256::new(0, 42));
    }

    #[test]
    fn mul_wide_max() {
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let p = U256::mul_wide(u128::MAX, u128::MAX);
        assert_eq!(p.hi, u128::MAX - 1);
        assert_eq!(p.lo, 1);
    }

    #[test]
    fn mul_wide_one_sided() {
        let p = U256::mul_wide(u128::MAX, 2);
        assert_eq!(p.hi, 1);
        assert_eq!(p.lo, u128::MAX - 1);
    }

    #[test]
    fn add_with_carry() {
        let (s, c) = U256::new(0, u128::MAX).overflowing_add(U256::new(0, 1));
        assert!(!c);
        assert_eq!(s, U256::new(1, 0));
        let (_, c) = U256::MAX.overflowing_add(U256::ONE);
        assert!(c);
    }

    #[test]
    fn sub_with_borrow() {
        let (d, b) = U256::new(1, 0).overflowing_sub(U256::new(0, 1));
        assert!(!b);
        assert_eq!(d, U256::new(0, u128::MAX));
        let (_, b) = U256::ZERO.overflowing_sub(U256::ONE);
        assert!(b);
    }

    #[test]
    fn shifts_round_trip() {
        let v = U256::new(0, 0xDEAD_BEEF);
        assert_eq!(v.shl(130).shr(130), v);
        assert_eq!(v.shl(64).lo(), 0xDEAD_BEEF << 64);
    }

    #[test]
    fn div_rem_small_divisor() {
        let v = U256::mul_wide(u128::MAX, 1000);
        let (q, r) = v.div_rem_u128(1000);
        assert_eq!(q, U256::new(0, u128::MAX));
        assert_eq!(r, 0);
    }

    #[test]
    fn div_rem_large_divisor() {
        let d = (1u128 << 127) - 1; // large Mersenne-style divisor
        let v = U256::mul_wide(d, d);
        let (q, r) = v.div_rem_u128(d);
        assert_eq!(q, U256::new(0, d));
        assert_eq!(r, 0);
        let v2 = v.wrapping_add(U256::new(0, 5));
        let (q2, r2) = v2.div_rem_u128(d);
        assert_eq!(q2, U256::new(0, d));
        assert_eq!(r2, 5);
    }

    /// Restoring binary long division, one bit per step: the reference
    /// the word-level path is checked against.
    fn div_rem_bitwise(v: U256, d: u128) -> (U256, u128) {
        let mut rem: u128 = 0;
        let mut quot = U256::ZERO;
        for i in (0..256).rev() {
            // rem < d < 2^128, so `rem << 1 | bit` may spill into bit 128.
            // When it does, the true value is 2^128 + rem_new >= d, and the
            // wrapping subtraction below still yields the correct residue.
            let carry_out = rem >> 127 == 1;
            rem = (rem << 1) | v.bit(i) as u128;
            if carry_out || rem >= d {
                rem = rem.wrapping_sub(d);
                if i >= 128 {
                    quot.hi |= 1u128 << (i - 128);
                } else {
                    quot.lo |= 1u128 << i;
                }
            }
        }
        (quot, rem)
    }

    #[test]
    fn word_division_matches_bitwise_division_at_the_edges() {
        // Divisors and dividend words around every boundary the digit
        // estimate and its corrections care about: powers of two, all-ones
        // halves, a top digit of exactly 2^63, and neighbours of the
        // divisor itself.
        let mut words = vec![0u128, 1, 2, u128::MAX, u128::MAX - 1];
        for k in [62, 63, 64, 65, 126, 127] {
            let p = 1u128 << k;
            words.extend([p - 1, p, p + 1, p | (p >> 1), (p - 1) ^ ((1 << 32) - 1)]);
        }
        words.extend([
            u128::MAX << 64,
            (1 << 127) | u64::MAX as u128,
            (u64::MAX as u128) << 63,
            0x8000_0000_0000_0000_FFFF_FFFF_FFFF_FFFF,
            0x8000_0000_0000_0001_0000_0000_0000_0000,
            0xFFFF_FFFF_FFFF_FFFE_FFFF_FFFF_FFFF_FFFF,
        ]);
        for &d in words.iter().filter(|&&d| d != 0) {
            for &hi in words.iter().chain(&[d - 1, d, d.wrapping_add(1)]) {
                for &lo in &words {
                    let v = U256::new(hi, lo);
                    assert_eq!(v.div_rem_u128(d), div_rem_bitwise(v, d), "{v} / {d}");
                }
            }
        }
    }

    #[test]
    fn rem_matches_mod_for_128bit_values() {
        let m = 0xFFFF_FFFF_FFFF_FFFF_FFFF_FFFF_FFFF_FF61u128; // arbitrary
        let v = U256::from(12345u128);
        assert_eq!(v.rem_u128(m), 12345);
    }

    #[test]
    fn bit_indexing() {
        let v = U256::new(1, 2);
        assert!(v.bit(1));
        assert!(!v.bit(0));
        assert!(v.bit(128));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = U256::ONE.div_rem_u128(0);
    }
}
