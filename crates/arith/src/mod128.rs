//! Modular arithmetic for large-word (up to 127-bit) moduli.
//!
//! This is the arithmetic the RPU's LAW (Large Arithmetic Word) engines
//! implement in hardware: the paper's datapath is 128 bits wide so that a
//! single tower can hold the large coefficients demanded by 128-bit-secure
//! CKKS/BGV parameters without RNS decomposition.
//!
//! A normal-domain product ([`Modulus128::mul`]) is reduced in one
//! *normalised Barrett* pass (Barrett, CRYPTO '86; HAC Alg. 14.42) — the
//! same code for every modulus in range, odd or even: with the modulus
//! pre-shifted to exactly 127 bits, `qn = q << s`, and the reciprocal
//! `mu = ⌊(2^254 − 1) / qn⌋`,
//!
//! ```text
//! x = (a << s) · b                   < 2^253, given b < 2^126 (see below)
//! q̂ = ⌊⌊x / 2^125⌋ · mu / 2^129⌋     ⌊x / qn⌋ − 1 ≤ q̂ ≤ ⌊x / qn⌋
//! r = lo128(x) − lo128(q̂ · qn)       < 2·qn < 2^128
//! r − qn if r ≥ qn, then r >> s
//! ```
//!
//! — eleven 64×64 word multiplies (4 + 4 + 3), every shift but the two
//! by `s` a constant, and no domain to enter or leave. *Why q̂ is off by
//! at most one:* write `x = x₁·2^125 + x₀` and `2^254 − 1 = mu·qn + t` with
//! `t < qn`; then `x/qn − x₁·mu/2^129 = x₀/qn + x₁·(t + 1)/(qn·2^129)`,
//! and `x₀ < 2^125 ≤ qn/2` bounds the first term below ½ while
//! `x₁ < 2^128` (that is `x < 2^253`) and `t + 1 ≤ qn` bound the second
//! below ½. So the remainder before correction fits 128 bits and one
//! conditional subtraction of `qn` (a mask select, below) finishes it.
//! *Why `x < 2^253`:* `a << s < qn < 2^127`, and `b < q < 2^126`
//! whenever `s ≥ 1`; a modulus above `2^126` can hold a factor
//! `b ≥ 2^126`, which is multiplied as `q − b < 2^126` and the product
//! negated.
//!
//! *Branch-free corrections.* Every conditional correction here — in
//! [`add`](Modulus128::add), [`sub`](Modulus128::sub),
//! [`neg`](Modulus128::neg), the end of the Barrett pass and the end of
//! a Shoup product (below) — subtracts first and then adds the modulus
//! `m` back through a mask, `d + (m & sign(d))`, instead of comparing
//! and branching: in an NTT the outcome of each comparison is a coin
//! flip per lane, and the mispredictions cost a butterfly more than its
//! eleven-word-multiply product. The sign test is exact because every
//! corrected difference lies in `[−m, m)` — `a + b − q`, `a − b` and
//! `0 − a` for reduced operands under `m = q`, the Shoup `r − q` with
//! `r < 2q`, the Barrett `r − qn` with `r < 2·qn` — and
//! `m ≤ qn < 2^127`, so its two's-complement form is negative exactly
//! when the difference is. [`reduce`](Modulus128::reduce) keeps its
//! compare-first branch, the one exception: it guards a division, and
//! in steady state its operands are canonical, so it is always
//! predicted.
//!
//! *Multiplying by a known constant.* When one factor `w` is fixed — a
//! twiddle, a kernel's scalar — its Shoup quotient
//! `w′ = ⌊w·2^128 / q⌋` ([`Modulus128::shoup`], paid once)
//! turns every later product into [`Modulus128::mul_shoup`] (Shoup;
//! Harvey, J. Symb. Comput. 2014):
//!
//! ```text
//! q̂ = ⌊a · w′ / 2^128⌋               ⌊a·w / q⌋ − 1 ≤ q̂ ≤ ⌊a·w / q⌋
//! r = lo128(w · a) − lo128(q̂ · q)    < 2q < 2^128
//! r − q if r ≥ q                     (the same mask select)
//! ```
//!
//! — one high product and two low ones, ten word multiplies with two on
//! the critical path where the Barrett pass chains three. *Why q̂ is at
//! most one short:* `w′ > w·2^128/q − 1`, so `a·w′/2^128 > a·w/q − a/2^128`
//! and `a < 2^128` keeps the loss below one. Nothing here needs `q` odd
//! or `a` reduced: the bound holds for every `u128` factor `a` and every
//! modulus in range, and `2q < 2^128` keeps the remainder in one word.
//!
//! *The quotient without a division.* `shoup` reads `w′` off the
//! Barrett constant: with `W = w << s` (so `W·2^128/qn = w·2^128/q`,
//! the same quotient `Q`) and `mu·qn = 2^254 − 1 − t`, `t < qn`,
//!
//! ```text
//! est = ⌊W · mu / 2^126⌋             Q − 2 ≤ est ≤ Q
//! rem = W·2^128 − est·qn             in [0, 3·qn), below 2^129
//! w′ = est + [rem ≥ qn] + [rem ≥ 2·qn]
//! ```
//!
//! *Why at most two short:* `W·mu/2^126 = W·2^128/qn − W·(t + 1)/(qn·2^126)`,
//! and `W < qn`, `t + 1 ≤ qn < 2^127` bound the second term below 2;
//! `mu < 2^254/qn` keeps `est` from passing `Q`. Each `[rem ≥ m]` is a
//! borrow and an or, not a compare and a branch. Two word products
//! replace the word-level 256/128 long division a table of quotients
//! used to cost per constant.
//!
//! These two are the only products. The host NTT plan multiplies its
//! twiddles through Shoup quotients, as the simulator's fast path does,
//! and [`ModArith::pow`](crate::ModArith::pow), written once for both
//! widths, is square-and-multiply over [`mul`](Modulus128::mul).

use crate::U256;

/// `d + m` when `d`, read as `i128`, is negative, else `d`: the mask
/// select every correction ends with (exactness in the module header).
#[inline(always)]
const fn lift(d: u128, m: u128) -> u128 {
    d.wrapping_add(m & ((d as i128) >> 127) as u128)
}

/// A modulus `2 <= q < 2^127` with its precomputed Barrett constants.
///
/// The `q < 2^127` bound keeps `a + b` (reduced operands), the Barrett
/// remainder and the Shoup remainder inside `u128`/`U256` without extra
/// carry words and makes every correction's sign test
/// exact (module header); it is documented in DESIGN.md and does not
/// restrict any workload in the paper (RNS tower primes are chosen well
/// below the datapath width).
///
/// # Examples
///
/// ```
/// use rpu_arith::Modulus128;
///
/// // A 126-bit NTT-friendly prime (q ≡ 1 mod 2^17).
/// let q = Modulus128::new((59u128 << 120) + (1 << 17) + 1).unwrap_or_else(|| {
///     // fall back to a known-good small prime for the doctest
///     Modulus128::new(0x1_0000_0000_0000_1B01).unwrap()
/// });
/// let a = q.mul(3, 5);
/// assert_eq!(a, 15 % q.value());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus128 {
    q: u128,
    /// `lz(q) − 1`: the shift that brings `q` to exactly 127 bits.
    shift: u32,
    /// `q << shift`, in `[2^126, 2^127)`.
    qn: u128,
    /// `⌊(2^254 − 1) / qn⌋`, in `[2^127, 2^128)`.
    mu: u128,
}

impl Modulus128 {
    /// Creates a new modulus. Returns `None` if `q < 2` or `q >= 2^127`.
    pub fn new(q: u128) -> Option<Self> {
        if !(2..1u128 << 127).contains(&q) {
            return None;
        }
        let shift = q.leading_zeros() - 1;
        // ⌊(2^254 − 1) / (q << shift)⌋ = ⌊(2^(254 − shift) − 1) / q⌋:
        // dividing by `q` itself keeps a modulus of 64 bits or fewer on
        // `U256`'s limb path (`is_prime_u128` builds one of these per
        // candidate).
        let mu = U256::MAX.shr(2 + shift).div_rem_u128(q).0.lo();
        Some(Modulus128 {
            q,
            shift,
            qn: q << shift,
            mu,
        })
    }

    /// Returns the modulus value.
    #[inline]
    pub const fn value(self) -> u128 {
        self.q
    }

    /// The Barrett pass's constants `(s, qn, mu)`, for the vector body
    /// that repeats it eight lanes at a time.
    #[inline]
    pub(crate) const fn barrett_constants(self) -> (u32, u128, u128) {
        (self.shift, self.qn, self.mu)
    }

    /// Reduces an arbitrary `u128` into `[0, q)`.
    ///
    /// Inputs are usually already reduced (the simulators keep register
    /// values in `[0, q)`), so the common case is a branch, not a 128-bit
    /// division.
    #[inline]
    pub const fn reduce(self, a: u128) -> u128 {
        if a < self.q {
            a
        } else {
            a % self.q
        }
    }

    /// Modular addition of reduced operands.
    #[inline]
    pub const fn add(self, a: u128, b: u128) -> u128 {
        debug_assert!(a < self.q && b < self.q);
        // q < 2^127, so `a + b` cannot overflow.
        lift((a + b).wrapping_sub(self.q), self.q)
    }

    /// Modular subtraction of reduced operands.
    #[inline]
    pub const fn sub(self, a: u128, b: u128) -> u128 {
        debug_assert!(a < self.q && b < self.q);
        lift(a.wrapping_sub(b), self.q)
    }

    /// Modular negation of a reduced operand.
    #[inline]
    pub const fn neg(self, a: u128) -> u128 {
        debug_assert!(a < self.q);
        lift(a.wrapping_neg(), self.q)
    }

    /// Modular multiplication of reduced operands (normal domain): one
    /// normalised Barrett pass for every modulus, odd or even (derivation
    /// in the module header).
    #[inline]
    pub fn mul(self, a: u128, b: u128) -> u128 {
        debug_assert!(a < self.q && b < self.q);
        // Only a modulus above 2^126 has such a factor: multiply by its
        // negative, which is below 2^126, and negate the product.
        if b >> 126 != 0 {
            return self.neg(self.barrett(a, self.q - b));
        }
        self.barrett(a, b)
    }

    /// `a · b mod q` for `a < q`, `b < min(q, 2^126)`.
    #[inline]
    fn barrett(self, a: u128, b: u128) -> u128 {
        let x = U256::mul_wide(a << self.shift, b);
        let x1 = (x.hi() << 3) | (x.lo() >> 125);
        let q_hat = U256::mul_wide(x1, self.mu).hi() >> 1;
        let r = x.lo().wrapping_sub(q_hat.wrapping_mul(self.qn));
        lift(r.wrapping_sub(self.qn), self.qn) >> self.shift
    }

    /// The Shoup quotient `⌊w·2^128 / q⌋` of a reduced constant `w`,
    /// which [`mul_shoup`](Modulus128::mul_shoup) multiplies through:
    /// estimated from the Barrett constant and finished with two mask
    /// corrections, no division (derivation in the module header).
    pub fn shoup(self, w: u128) -> u128 {
        debug_assert!(w < self.q);
        let wn = w << self.shift;
        // est = ⌊wn · mu / 2^126⌋, at most two short of the quotient,
        // which is below 2^128 (w < q): so is est.
        let x = U256::mul_wide(wn, self.mu);
        let est = (x.hi() << 2) | (x.lo() >> 126);
        // rem = wn·2^128 − est·qn in [0, 3·qn), below 2^129: the high
        // word `rh` is 0 or 1.
        let p = U256::mul_wide(est, self.qn);
        let (rl, borrow) = 0u128.overflowing_sub(p.lo());
        let rh = wn.wrapping_sub(p.hi()).wrapping_sub(u128::from(borrow));
        // 1 when rem ≥ m: its high word is set, or `rl − m` does not borrow.
        let at_least = |m: u128| rh | u128::from(!rl.overflowing_sub(m).1);
        est + at_least(self.qn) + at_least(self.qn << 1)
    }

    /// `a · w mod q` for the reduced constant `w` and its quotient
    /// `w_shoup = shoup(w)`; `a` may be any `u128` (derivation in the
    /// module header).
    #[inline]
    pub fn mul_shoup(self, a: u128, w: u128, w_shoup: u128) -> u128 {
        debug_assert!(w < self.q);
        let q_hat = U256::mul_wide(w_shoup, a).hi();
        let r = w.wrapping_mul(a).wrapping_sub(q_hat.wrapping_mul(self.q));
        lift(r.wrapping_sub(self.q), self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModArith;

    use std::sync::OnceLock;

    /// A 126-bit NTT-friendly prime, found once per test binary.
    #[allow(non_snake_case)]
    fn Q126() -> u128 {
        static Q: OnceLock<u128> = OnceLock::new();
        *Q.get_or_init(|| crate::find_ntt_prime_u128(126, 1 << 20).expect("prime exists"))
    }

    fn naive_mul(a: u128, b: u128, q: u128) -> u128 {
        U256::mul_wide(a % q, b % q).rem_u128(q)
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(Modulus128::new(0).is_none());
        assert!(Modulus128::new(1).is_none());
        assert!(Modulus128::new(1u128 << 127).is_none());
        assert!(Modulus128::new(3).is_some());
    }

    #[test]
    fn mul_matches_naive_odd() {
        let q = (1u128 << 126) - 137; // arbitrary odd 126-bit value
        let m = Modulus128::new(q).unwrap();
        let cases = [
            (0u128, 0u128),
            (1, q - 1),
            (q - 1, q - 1),
            (q / 2, q / 3),
            (0x1234_5678_9ABC_DEF0, q - 12345),
        ];
        for (a, b) in cases {
            assert_eq!(m.mul(a, b), naive_mul(a, b, q), "a={a} b={b}");
        }
    }

    #[test]
    fn one_correction_after_the_quotient_estimate_is_needed() {
        // The estimate is one short here: without the conditional
        // subtraction (q − 1)² mod q comes out as q + 1.
        let q = 80809629393379699292740320869633673469;
        let m = Modulus128::new(q).unwrap();
        assert_eq!(m.mul(q - 1, q - 1), 1);
    }

    #[test]
    fn factors_of_126_bits_and_more_are_multiplied_negated() {
        // q > 2^126: operands on both sides of 2^126, the zero product
        // (whose negation must stay 0) included.
        for q in [(1u128 << 127) - 1, (1u128 << 126) + 2] {
            let m = Modulus128::new(q).unwrap();
            let edge = [0, 1, (1 << 126) - 1, 1 << 126, (1 << 126) + 1, q - 1];
            for a in edge {
                for b in edge {
                    assert_eq!(m.mul(a, b), naive_mul(a, b, q), "q={q} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn precomputed_constants_are_the_documented_quotients() {
        for q in [
            2u128,
            3,
            3329,
            (1 << 64) - 1,
            1 << 64,
            Q126(),
            (1 << 127) - 1,
        ] {
            let m = Modulus128::new(q).unwrap();
            assert_eq!(m.qn >> 126, 1, "q={q}");
            assert_eq!(m.qn >> m.shift, q);
            let top = U256::MAX.shr(2); // 2^254 − 1
            assert_eq!(U256::from(m.mu), top.div_rem_u128(m.qn).0, "q={q}");
        }
    }

    #[test]
    fn mul_matches_naive_even() {
        let q = (1u128 << 100) - 2; // even: the same Barrett pass
        let m = Modulus128::new(q).unwrap();
        for (a, b) in [(q - 1, q - 1), (12345, 678910), (q / 2, 2)] {
            assert_eq!(m.mul(a, b), naive_mul(a, b, q));
        }
    }

    #[test]
    fn masked_corrections_at_the_top_of_the_range() {
        // At q = 2^127 − 1 a sum reaches 2^128 − 4 and a difference
        // −(2^127 − 2): the sign bit of every corrected value is bit 127.
        for q in [(1u128 << 127) - 1, (1u128 << 126) + 1] {
            let m = Modulus128::new(q).unwrap();
            let top = 1u128 << 126;
            let edge = [0, 1, 2, top - 1, top, q / 2, q / 2 + 1, q - 2, q - 1];
            for a in edge {
                assert_eq!(m.neg(a), (q - a) % q, "q={q} a={a}");
                for b in edge {
                    assert_eq!(m.add(a, b), (a + b) % q, "q={q} a={a} b={b}");
                    assert_eq!(m.sub(a, b), (a + q - b) % q, "q={q} a={a} b={b}");
                    assert_eq!(m.mul(a, b), naive_mul(a, b, q), "q={q} a={a} b={b}");
                }
            }
        }
    }

    #[test]
    fn shoup_products_at_the_top_of_the_range() {
        // The quotient is one short and the remainder reaches 2q − 1 <
        // 2^128 near q = 2^127; unreduced factors up to 2^128 − 1 are
        // exact too.
        for q in [(1u128 << 127) - 1, (1u128 << 126) + 1] {
            let m = Modulus128::new(q).unwrap();
            let top = 1u128 << 126;
            let edge = [0, 1, 2, top - 1, top, q / 2, q - 2, q - 1];
            for w in edge {
                let ws = m.shoup(w);
                assert_eq!(
                    U256::from(ws),
                    U256::new(w, 0).div_rem_u128(q).0,
                    "q={q} w={w}"
                );
                for a in edge.into_iter().chain([q, u128::MAX - 1, u128::MAX]) {
                    let expect = naive_mul(a, w, q);
                    assert_eq!(m.mul_shoup(a, w, ws), expect, "q={q} a={a} w={w}");
                }
            }
        }
    }

    #[test]
    fn add_sub_wraparound() {
        let m = Modulus128::new(Q126()).unwrap();
        assert_eq!(m.add(Q126() - 1, 1), 0);
        assert_eq!(m.sub(0, 1), Q126() - 1);
        assert_eq!(m.neg(1), Q126() - 1);
    }

    #[test]
    fn pow_and_inv() {
        let m = Modulus128::new(Q126()).unwrap();
        assert_eq!(m.pow(2, 100), 1u128 << 100);
        let a = 0xFEED_FACE_CAFEu128;
        assert_eq!(m.mul(a, m.inv(a)), 1);
        // Fermat: a^(q-1) = 1
        assert_eq!(m.pow(a, Q126() - 1), 1);
    }

    #[test]
    fn pow_even_modulus() {
        let m = Modulus128::new(1u128 << 64).unwrap();
        assert_eq!(m.pow(3, 2), 9);
        assert_eq!(m.pow(2, 64), 0);
    }
}
