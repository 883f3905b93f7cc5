//! The butterfly over whole vectors of lanes: `sum = a + x·w` and
//! `diff = a − x·w` mod `q`, lane by lane.
//!
//! The simulator's fast path runs a B512 `bfly` through these loops
//! once per instruction. [`bfly_into`] takes the products as they come;
//! [`bfly_shoup`] multiplies each lane by a constant through its Shoup
//! quotient ([`ModArith::mul_shoup`]), which is what a kernel's twiddles
//! are. Both are written once over [`ModArith`] and the [`Lane`] word the
//! lanes are stored in.
//!
//! [`bfly_shoup`] has a second body for [`Modulus128`](crate::Modulus128) over `u128` lanes
//! on an x86-64 CPU that reports AVX-512 IFMA (checked at run time): the
//! `ifma` module, eight lanes per iteration in 52-bit limbs. It computes
//! the scalar loop's own quotient, so its results are the same words;
//! an 8-lane chunk with an `a` or `w` lane at or above `q`, the last
//! `len % 8` lanes, every other word and modulus and every other CPU run
//! the scalar loop. `docs/arith-engines.md` ("The vector body") prices
//! both.

use crate::{Lane, ModArith};

#[cfg(target_arch = "x86_64")]
mod ifma;

/// The factors of a product by a constant under `A`: the other source's
/// lanes `x`, the constant's lanes `w` and `w`'s Shoup quotients `wq`
/// (of each `w` reduced).
pub type Factors<'a, W, A> = (&'a [W], &'a [W], &'a [<A as ModArith>::Word]);

/// The butterfly, lane by lane: `sum = a + prod` and `diff = a − prod`
/// for the canonical products `prods`.
#[inline]
pub fn bfly_into<A: ModArith, W: Lane>(
    m: A,
    a: &[W],
    prods: impl Iterator<Item = A::Word>,
    (sum, diff): (&mut [W], &mut [W]),
) {
    let outs = sum.iter_mut().zip(diff.iter_mut());
    for (((s, d), &a), prod) in outs.zip(a).zip(prods) {
        let a = m.canon(a);
        *s = W::narrow(m.add(a, prod).widen());
        *d = W::narrow(m.sub(a, prod).widen());
    }
}

/// `x · w` lane by lane, `w` multiplied through its quotients `wq`.
/// The loops over it stay out of line (`#[inline(never)]` below):
/// inlined into the simulator's instruction dispatch they moved the
/// narrow arms' code and slowed them.
pub fn shoup_products<'a, A: ModArith, W: Lane>(
    m: A,
    f: Factors<'a, W, A>,
) -> impl Iterator<Item = A::Word> + 'a {
    let lanes = f.0.iter().zip(f.1).zip(f.2);
    lanes.map(move |((&x, &w), &wq)| m.mul_shoup(x, m.canon(w), wq))
}

/// [`bfly_into`] with the product taken through `w`'s quotients, on
/// the vector body where this CPU has one for `A` and `W` (module
/// header), the scalar loop otherwise. The lanes processed are as many
/// as the shortest of the six slices holds.
#[inline(never)]
pub fn bfly_shoup<A: ModArith, W: Lane>(
    m: A,
    a: &[W],
    f: Factors<W, A>,
    outs: (&mut [W], &mut [W]),
) {
    #[cfg(target_arch = "x86_64")]
    {
        let wide = (
            (&m as &dyn core::any::Any).downcast_ref::<crate::Modulus128>(),
            (W::as_wide(a), W::as_wide(f.0), W::as_wide(f.1)),
            A::Word::as_wide(f.2),
            (W::as_wide_mut(&mut *outs.0), W::as_wide_mut(&mut *outs.1)),
        );
        if let (Some(&m), (Some(a), Some(x), Some(w)), Some(wq), (Some(sum), Some(diff))) = wide {
            return ifma::bfly_shoup(m, a, (x, w, wq), (sum, diff));
        }
    }
    scalar_bfly_shoup(m, a, f, outs);
}

/// The scalar body of [`bfly_shoup`].
fn scalar_bfly_shoup<A: ModArith, W: Lane>(
    m: A,
    a: &[W],
    f: Factors<W, A>,
    outs: (&mut [W], &mut [W]),
) {
    bfly_into(m, a, shoup_products(m, f), outs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Modulus128;

    /// [`bfly_shoup`] or its scalar body, at the vector body's types.
    type Body = fn(Modulus128, &[u128], Factors<u128, Modulus128>, (&mut [u128], &mut [u128]));

    /// SplitMix64: the test's lanes, reproducible from the seed.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn wide(&mut self) -> u128 {
            u128::from(self.next()) << 64 | u128::from(self.next())
        }
    }

    /// The vector body against the scalar loop. This CPU's
    /// [`bfly_shoup`] (the IFMA body where the CPU has one) and the
    /// scalar loop give the same words for every modulus shape and
    /// slice length. `x` ranges over all of `u128`, every fifth lane
    /// just below 2^128 against `w = q − 1`. Unreduced `a` and `w`
    /// lanes, whose chunks go to the scalar loop, sit in the middle of
    /// a chunk.
    #[test]
    fn vector_and_scalar_butterflies_agree() {
        let q126 = crate::find_ntt_prime_u128(126, 1 << 17).expect("prime exists");
        let moduli = [
            2,
            3,
            97,
            (1u128 << 64) + 13,
            0xFFFF_FFFF_0000_0001,
            (1 << 100) - 2,
            q126,
            (1 << 126) + 1,
            (1 << 127) - 1,
        ];
        let lengths = (0..=40).chain([512]);
        let mut draws = Draws(0x5EED);
        for q in moduli {
            let m = Modulus128::new(q).expect("q in range");
            for len in lengths.clone() {
                // Variant 0 is reduced throughout; 1 has an unreduced
                // `a` lane and 2 an unreduced `w` lane at index 11
                // (lane 3 of the second chunk), u128::MAX among them.
                for variant in 0..3 {
                    let edges = [0, 1, q - 1, q, u128::MAX];
                    let mut pick = |i: usize, reduce: bool| {
                        let v = match i % 7 {
                            0 => edges[(i / 7) % edges.len()],
                            _ => draws.wide(),
                        };
                        if reduce {
                            v % q
                        } else {
                            v
                        }
                    };
                    let mut a: Vec<u128> = (0..len).map(|i| pick(i, true)).collect();
                    let mut x: Vec<u128> = (0..len).map(|i| pick(i, false)).collect();
                    let mut w: Vec<u128> = (0..len).map(|i| pick(i + 3, true)).collect();
                    // Every fifth lane pairs an `x` just below 2^128
                    // with w = q − 1: near q = 2^127 the carry out of
                    // the quotient's column 1 decides its lowest bit.
                    for i in (4..len).step_by(5) {
                        (x[i], w[i]) = (u128::MAX - i as u128, q - 1);
                    }
                    if len > 11 {
                        let unreduced = [q + 1, u128::MAX][len % 2];
                        match variant {
                            1 => a[11] = unreduced,
                            2 => w[11] = unreduced,
                            _ => {}
                        }
                    }
                    let wq: Vec<u128> = w.iter().map(|&w| m.shoup(w % q)).collect();
                    let run = |body: Body| {
                        let (mut sum, mut diff) = (vec![7u128; len], vec![7u128; len]);
                        body(m, &a, (&x, &w, &wq), (&mut sum, &mut diff));
                        (sum, diff)
                    };
                    let vector = run(bfly_shoup::<Modulus128, u128>);
                    let scalar = run(scalar_bfly_shoup::<Modulus128, u128>);
                    assert_eq!(vector, scalar, "q={q} len={len} variant={variant}");
                }
            }
        }
    }
}
