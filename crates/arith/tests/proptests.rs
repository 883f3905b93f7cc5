//! Property-based tests for the arithmetic substrate.
//!
//! These check algebraic laws (ring axioms, CRT bijectivity, division
//! identities) over randomly drawn operands, complementing the
//! example-based unit tests inside each module.

use proptest::prelude::*;
use rpu_arith::{ModArith, Modulus128, Modulus64, RnsBasis, UBig, U256};

/// An arbitrary odd modulus in `[3, 2^127)`.
fn arb_mod128() -> impl Strategy<Value = Modulus128> {
    (3u128..(1u128 << 127)).prop_map(|q| Modulus128::new(q | 1).expect("odd q in range"))
}

/// The five shapes of `bits`-wide modulus the at-every-width properties
/// are checked on: a random odd one, a random even one, `2^(bits−1)`,
/// `2^bits − 1` and `2^(bits−1) + 1`.
fn moduli_of_width(bits: u32, r: u128) -> [u128; 5] {
    let top = 1u128 << (bits - 1);
    let random = top | (r & (top - 1));
    [random | 1, random & !1, top, (top << 1) - 1, top + 1]
}

/// A reduced operand, half the time one of the boundary values
/// `0, 1, q/2, q − 1` (the last is at or above 2^126 for a 127-bit `q`).
fn biased_operand(sel: u8, r: u128, q: u128) -> u128 {
    match sel {
        0 => 0,
        1 => 1,
        2 => q / 2,
        3 => q - 1,
        _ => r % q,
    }
}

/// An arbitrary modulus in `[2, 2^63)`.
fn arb_mod64() -> impl Strategy<Value = Modulus64> {
    (2u64..(1u64 << 63)).prop_map(|q| Modulus64::new(q).expect("q in range"))
}

proptest! {
    #[test]
    fn u256_mul_div_round_trip(a in any::<u128>(), d in 1u128..) {
        let p = U256::mul_wide(a, d);
        let (q, r) = p.div_rem_u128(d);
        prop_assert_eq!(q, U256::from(a));
        prop_assert_eq!(r, 0);
    }

    #[test]
    fn u256_div_identity(hi in any::<u128>(), lo in any::<u128>(), d in 1u128..) {
        // v = q*d + r with r < d
        let v = U256::new(hi, lo);
        let (q, r) = v.div_rem_u128(d);
        prop_assert!(r < d);
        // reconstruct q*d + r and compare
        let qd_lo = U256::mul_wide(q.lo(), d);
        let qd_hi = U256::mul_wide(q.hi(), d);
        // q*d = qd_lo + (qd_hi << 128); overflow beyond 256 bits cannot
        // happen because q*d <= v.
        let back = qd_lo
            .wrapping_add(U256::new(qd_hi.lo(), 0))
            .wrapping_add(U256::from(r));
        prop_assert_eq!(back, v);
    }

    #[test]
    fn u256_add_sub_inverse(a_hi in any::<u128>(), a_lo in any::<u128>(),
                            b_hi in any::<u128>(), b_lo in any::<u128>()) {
        let a = U256::new(a_hi, a_lo);
        let b = U256::new(b_hi, b_lo);
        prop_assert_eq!(a.wrapping_add(b).wrapping_sub(b), a);
    }

    #[test]
    fn mod128_mul_commutative_and_matches_division(m in arb_mod128(),
                                                   a in any::<u128>(),
                                                   b in any::<u128>()) {
        let q = m.value();
        let (a, b) = (a % q, b % q);
        let expect = U256::mul_wide(a, b).rem_u128(q);
        prop_assert_eq!(m.mul(a, b), expect);
        prop_assert_eq!(m.mul(b, a), expect);
    }

    #[test]
    fn mod128_mul_is_exact_at_every_width(r in any::<u128>(),
                                          (sa, ra) in (0u8..8, any::<u128>()),
                                          (sb, rb) in (0u8..8, any::<u128>())) {
        // The interpreter, the fast path's plain arms and the golden
        // models all call `Modulus128::mul`, so this — exact 256-bit
        // division — is its only independent reference.
        for bits in 2..=127 {
            for q in moduli_of_width(bits, r) {
                let m = Modulus128::new(q).expect("2 <= q < 2^127");
                let (a, b) = (biased_operand(sa, ra, q), biased_operand(sb, rb, q));
                let expect = U256::mul_wide(a, b).rem_u128(q);
                prop_assert_eq!(m.mul(a, b), expect, "q={} a={} b={}", q, a, b);
                prop_assert_eq!(m.mul(b, a), expect, "q={} a={} b={}", q, b, a);
            }
        }
    }

    #[test]
    fn mod128_mul_shoup_is_exact_at_every_width(r in any::<u128>(),
                                                (sa, ra) in (0u8..8, any::<u128>()),
                                                (sw, rw) in (0u8..8, any::<u128>()),
                                                unreduced in any::<u128>()) {
        // The fast path multiplies every viewed table value through this:
        // its quotient is exact division, its product is `mul`'s on a
        // reduced factor and `mul` of the reduced factor on any other.
        for bits in 2..=127 {
            for q in moduli_of_width(bits, r) {
                let m = Modulus128::new(q).expect("2 <= q < 2^127");
                let (a, w) = (biased_operand(sa, ra, q), biased_operand(sw, rw, q));
                let ws = m.shoup(w);
                prop_assert_eq!(U256::from(ws), U256::new(w, 0).div_rem_u128(q).0, "q={} w={}", q, w);
                prop_assert_eq!(m.mul_shoup(a, w, ws), m.mul(a, w), "q={} a={} w={}", q, a, w);
                let expect = m.mul(unreduced % q, w);
                prop_assert_eq!(m.mul_shoup(unreduced, w, ws), expect, "q={} a={} w={}", q, unreduced, w);
            }
        }
    }

    #[test]
    fn mod128_shoup_is_exact_division(bits in 2u32..128, r in any::<u128>(), rw in any::<u128>()) {
        // `shoup` estimates from the Barrett constant and corrects by
        // masks; its reference is the long division it replaced. Each
        // case draws a modulus of a random width, one below 2^64 and one
        // above 2^126.
        let moduli = [
            (r >> (128 - bits)).max(2),
            u128::from(r as u64).max(2),
            (1 << 126) | (r & ((1 << 126) - 1)),
        ];
        for q in moduli {
            let m = Modulus128::new(q).expect("2 <= q < 2^127");
            for w in [0, 1, q / 2, q - 1, rw % q] {
                let expect = U256::new(w, 0).div_rem_u128(q).0;
                prop_assert_eq!(U256::from(m.shoup(w)), expect, "q={} w={}", q, w);
            }
        }
    }

    #[test]
    fn add_sub_neg_are_exact_at_every_width(r in any::<u128>(),
                                            (sa, ra) in (0u8..8, any::<u128>()),
                                            (sb, rb) in (0u8..8, any::<u128>())) {
        // Each result is a masked correction of a difference in [−q, q);
        // the pairs reach a sum of exactly q (`a + (q − a)`), of 2q − 2
        // (both operands q − 1) and `a == b`. `Modulus64` up to 63 bits.
        for bits in 2..=127 {
            for q in moduli_of_width(bits, r) {
                let m = Modulus128::new(q).expect("2 <= q < 2^127");
                let m64 = (bits <= 63).then(|| Modulus64::new(q as u64).expect("2 <= q < 2^63"));
                let (a, b) = (biased_operand(sa, ra, q), biased_operand(sb, rb, q));
                for (x, y) in [(a, b), (b, a), (a, a), (a, (q - a) % q)] {
                    let (sum, diff) = ((x + y) % q, (x + q - y) % q);
                    prop_assert_eq!(m.add(x, y), sum, "q={} a={} b={}", q, x, y);
                    prop_assert_eq!(m.sub(x, y), diff, "q={} a={} b={}", q, x, y);
                    if let Some(m64) = m64 {
                        prop_assert_eq!(m64.add(x as u64, y as u64) as u128, sum, "q={} a={} b={}", q, x, y);
                        prop_assert_eq!(m64.sub(x as u64, y as u64) as u128, diff, "q={} a={} b={}", q, x, y);
                    }
                }
                prop_assert_eq!(m.neg(a), (q - a) % q, "q={} a={}", q, a);
                if let Some(m64) = m64 {
                    prop_assert_eq!(m64.neg(a as u64) as u128, (q - a) % q, "q={} a={}", q, a);
                }
            }
        }
    }

    #[test]
    fn mod128_distributive(m in arb_mod128(),
                           a in any::<u128>(), b in any::<u128>(), c in any::<u128>()) {
        let q = m.value();
        let (a, b, c) = (a % q, b % q, c % q);
        let lhs = m.mul(a, m.add(b, c));
        let rhs = m.add(m.mul(a, b), m.mul(a, c));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn mod128_add_sub_inverse(m in arb_mod128(), a in any::<u128>(), b in any::<u128>()) {
        let q = m.value();
        let (a, b) = (a % q, b % q);
        prop_assert_eq!(m.sub(m.add(a, b), b), a);
        prop_assert_eq!(m.add(m.sub(a, b), b), a);
        prop_assert_eq!(m.add(a, m.neg(a)), 0);
    }

    #[test]
    fn mod128_pow_laws(r in any::<u128>(), (sa, ra) in (0u8..8, any::<u128>()),
                       e in 0u128..1000, f in 0u128..1000) {
        // `pow` is square-and-multiply over `mul` for every modulus, odd
        // or even: check it against repeated `mul` and a^e·a^f = a^(e+f).
        for bits in 2..=127 {
            for q in moduli_of_width(bits, r) {
                let m = Modulus128::new(q).expect("2 <= q < 2^127");
                let a = biased_operand(sa, ra, q);
                let mut repeated = 1 % q;
                for k in 0..8 {
                    prop_assert_eq!(m.pow(a, k), repeated, "q={} a={} e={}", q, a, k);
                    repeated = m.mul(repeated, a);
                }
                let lhs = m.mul(m.pow(a, e), m.pow(a, f));
                prop_assert_eq!(lhs, m.pow(a, e + f), "q={} a={} e={} f={}", q, a, e, f);
            }
        }
    }

    #[test]
    fn mod64_matches_mod128(q in 2u64..(1u64 << 63), a in any::<u64>(), b in any::<u64>()) {
        let m64 = Modulus64::new(q).expect("in range");
        let m128 = Modulus128::new(q as u128).expect("in range");
        let (a, b) = (a % q, b % q);
        prop_assert_eq!(m64.mul(a, b) as u128, m128.mul(a as u128, b as u128));
        prop_assert_eq!(m64.add(a, b) as u128, m128.add(a as u128, b as u128));
        prop_assert_eq!(m64.sub(a, b) as u128, m128.sub(a as u128, b as u128));
    }

    #[test]
    fn mod64_mul_is_exact_at_every_width(r in any::<u128>(),
                                         (sa, ra) in (0u8..8, any::<u128>()),
                                         (sb, rb) in (0u8..8, any::<u128>())) {
        // The same pass at half the width, against native division.
        for bits in 2..=63 {
            for q in moduli_of_width(bits, r) {
                let m = Modulus64::new(q as u64).expect("2 <= q < 2^63");
                let (a, b) = (biased_operand(sa, ra, q), biased_operand(sb, rb, q));
                let expect = a * b % q;
                prop_assert_eq!(m.mul(a as u64, b as u64) as u128, expect, "q={} a={} b={}", q, a, b);
                prop_assert_eq!(m.mul(b as u64, a as u64) as u128, expect, "q={} a={} b={}", q, b, a);
            }
        }
    }

    #[test]
    fn mod64_shoup_agrees(m in arb_mod64(), a in any::<u64>(), w in any::<u64>()) {
        let q = m.value();
        let (a, w) = (a % q, w % q);
        let ws = m.shoup(w);
        prop_assert_eq!(m.mul_shoup(a, w, ws), m.mul(a, w));
    }

    #[test]
    fn mod64_mul_shoup_takes_any_64_bit_lane(q in 2u64..(1u64 << 63), w in any::<u64>(), a in any::<u64>()) {
        // The fast path multiplies a stored lane through a table's
        // quotient without reducing it first: exact for every `a < 2^64`,
        // at the lane edges, at the top modulus and at an even one.
        for q in [q, (1 << 63) - 1, (q | 2) & !1] {
            let m = Modulus64::new(q).expect("2 <= q < 2^63");
            let w = w % q;
            let ws = m.shoup(w);
            for a in [0, q - 1, q, u64::MAX, a] {
                let expect = (a as u128 * w as u128 % q as u128) as u64;
                prop_assert_eq!(m.mul_shoup(a, w, ws), expect, "q={} a={} w={}", q, a, w);
            }
        }
    }

    #[test]
    fn mod64_reduce_wide_matches(m in arb_mod64(), x in any::<u128>()) {
        prop_assert_eq!(m.reduce_wide(x) as u128, x % m.value() as u128);
    }

    #[test]
    fn rns_round_trips_small(v in any::<u128>()) {
        // Coprime triple spanning > 128 bits so any u128 round-trips.
        let basis = RnsBasis::new(vec![
            (1u128 << 61) - 1,       // Mersenne prime
            (1u128 << 45) - 229,     // prime-ish; only coprimality matters
            (1u128 << 31) - 1,       // Mersenne prime
        ]).expect("pairwise coprime");
        let r = basis.decompose_u128(v);
        let back = basis.reconstruct(&r);
        prop_assert_eq!(back, {
            let qprod = basis.product();
            let v_mod = UBig::from_u128(v);
            if v_mod < qprod { v_mod } else { unreachable!("Q > 2^128") }
        });
    }

    #[test]
    fn ubig_mul_rem_consistent(a in any::<u128>(), b in any::<u128>(), m in 1u128..) {
        let big = UBig::from_u128(a).mul_u128(b);
        let expect = U256::mul_wide(a, b).rem_u128(m);
        prop_assert_eq!(big.rem_u128(m), expect);
    }
}
