//! The modular instructions over whole vectors of lanes: each function
//! is one B512 instruction's lane loop.
//!
//! The simulator's fast path runs each of these once per instruction:
//! [`vaddmod`], [`vsubmod`], [`vmulmod`] (Barrett, two data operands),
//! [`vmulmod_shoup`] (a product by constants through their Shoup
//! quotients, [`ModArith::mul_shoup`]), [`vsmulmod`] (a product by one
//! scalar through its quotient) and the butterfly [`bfly_shoup`],
//! `sum = a + x·w` and `diff = a − x·w` with the product through `w`'s
//! quotients; [`bfly_into`] takes a butterfly's products as they come.
//! Each is written once over [`ModArith`] and the [`Lane`] word the
//! lanes are stored in, and processes as many lanes as the shortest of
//! its slices holds.
//!
//! Every function but [`bfly_into`] has a second body for
//! [`Modulus128`] over `u128` lanes on an x86-64 CPU that reports
//! AVX-512 IFMA (checked at run time): the `ifma` module, eight lanes
//! per iteration in 52-bit limbs. It computes the scalar loop's own
//! steps, so its results are the same words; an 8-lane chunk with a
//! lane the scalar loop would reduce first (any operand of `vaddmod`,
//! `vsubmod` and Barrett `vmulmod`, a butterfly's `a`, a constant `w`),
//! the last `len % 8` lanes, every other word and modulus and every
//! other CPU run the scalar loop. `docs/arith-engines.md` ("The vector
//! bodies") prices both.

use crate::{Lane, ModArith};

#[cfg(target_arch = "x86_64")]
mod ifma;

/// The factors of a product by a constant under `A`: the other source's
/// lanes `x`, the constant's lanes `w` and `w`'s Shoup quotients `wq`
/// (of each `w` reduced).
pub type Factors<'a, W, A> = (&'a [W], &'a [W], &'a [<A as ModArith>::Word]);

/// `m` as a [`Modulus128`](crate::Modulus128): `Some` exactly when the
/// vector bodies serve it.
#[cfg(target_arch = "x86_64")]
#[inline]
fn wide<A: ModArith>(m: A) -> Option<crate::Modulus128> {
    (&m as &dyn core::any::Any).downcast_ref().copied()
}

/// `out = a + b` mod `q`, lane by lane.
#[inline]
pub fn vaddmod<A: ModArith, W: Lane>(m: A, a: &[W], b: &[W], out: &mut [W]) {
    #[cfg(target_arch = "x86_64")]
    if let (Some(m), Some(a), Some(b), Some(out)) =
        (wide(m), W::as_wide(a), W::as_wide(b), W::as_wide_mut(out))
    {
        return ifma::vaddmod(m, a, b, out);
    }
    scalar_vaddmod(m, a, b, out);
}

/// `out = a − b` mod `q`, lane by lane.
#[inline]
pub fn vsubmod<A: ModArith, W: Lane>(m: A, a: &[W], b: &[W], out: &mut [W]) {
    #[cfg(target_arch = "x86_64")]
    if let (Some(m), Some(a), Some(b), Some(out)) =
        (wide(m), W::as_wide(a), W::as_wide(b), W::as_wide_mut(out))
    {
        return ifma::vsubmod(m, a, b, out);
    }
    scalar_vsubmod(m, a, b, out);
}

/// `out = a · b` mod `q`, lane by lane, through [`ModArith::mul`].
#[inline]
pub fn vmulmod<A: ModArith, W: Lane>(m: A, a: &[W], b: &[W], out: &mut [W]) {
    #[cfg(target_arch = "x86_64")]
    if let (Some(m), Some(a), Some(b), Some(out)) =
        (wide(m), W::as_wide(a), W::as_wide(b), W::as_wide_mut(out))
    {
        return ifma::vmulmod(m, a, b, out);
    }
    scalar_vmulmod(m, a, b, out);
}

/// `out = x · w` mod `q`, lane by lane, `w` multiplied through its
/// quotients `wq`.
#[inline]
pub fn vmulmod_shoup<A: ModArith, W: Lane>(m: A, f: Factors<W, A>, out: &mut [W]) {
    #[cfg(target_arch = "x86_64")]
    if let (Some(m), (Some(x), Some(w)), Some(wq), Some(out)) = (
        wide(m),
        (W::as_wide(f.0), W::as_wide(f.1)),
        A::Word::as_wide(f.2),
        W::as_wide_mut(out),
    ) {
        return ifma::vmulmod_shoup(m, (x, w, wq), out);
    }
    scalar_vmulmod_shoup(m, f, out);
}

/// `out = a · s` mod `q`, lane by lane, for the reduced scalar `s`,
/// multiplied through its quotient (computed once per call).
#[inline]
pub fn vsmulmod<A: ModArith, W: Lane>(m: A, a: &[W], s: A::Word, out: &mut [W]) {
    let s = (s, m.shoup(s));
    #[cfg(target_arch = "x86_64")]
    if let (Some(m), Some(a), Some(out)) = (wide(m), W::as_wide(a), W::as_wide_mut(out)) {
        return ifma::vsmulmod(m, a, (s.0.widen(), s.1.widen()), out);
    }
    scalar_vsmulmod(m, a, s, out);
}

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

/// [`bfly_into`] with the product taken through `w`'s quotients. It
/// stays out of line (`#[inline(never)]`): inlined into the simulator's
/// instruction dispatch it moved the narrow arms' code and slowed them.
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
            wide(m),
            (W::as_wide(a), W::as_wide(f.0), W::as_wide(f.1)),
            A::Word::as_wide(f.2),
            (W::as_wide_mut(&mut *outs.0), W::as_wide_mut(&mut *outs.1)),
        );
        if let (Some(m), (Some(a), Some(x), Some(w)), Some(wq), (Some(sum), Some(diff))) = wide {
            return ifma::bfly_shoup(m, a, (x, w, wq), (sum, diff));
        }
    }
    scalar_bfly_shoup(m, a, f, outs);
}

/// `out[i] = f(a[i], b[i])`.
#[inline]
fn map2_into<W: Lane, X: Lane>(out: &mut [W], a: &[W], b: &[W], f: impl Fn(W, W) -> X) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = W::narrow(f(x, y).widen());
    }
}

/// `x · w` lane by lane, `w` multiplied through its quotients `wq`.
#[inline]
fn shoup_products<'a, A: ModArith, W: Lane>(
    m: A,
    f: Factors<'a, W, A>,
) -> impl Iterator<Item = A::Word> + 'a {
    let lanes = f.0.iter().zip(f.1).zip(f.2);
    lanes.map(move |((&x, &w), &wq)| m.mul_shoup(x, m.canon(w), wq))
}

/// The scalar body of [`vaddmod`].
#[inline]
fn scalar_vaddmod<A: ModArith, W: Lane>(m: A, a: &[W], b: &[W], out: &mut [W]) {
    map2_into(out, a, b, |a, b| m.add(m.canon(a), m.canon(b)));
}

/// The scalar body of [`vsubmod`].
#[inline]
fn scalar_vsubmod<A: ModArith, W: Lane>(m: A, a: &[W], b: &[W], out: &mut [W]) {
    map2_into(out, a, b, |a, b| m.sub(m.canon(a), m.canon(b)));
}

/// The scalar body of [`vmulmod`].
#[inline]
fn scalar_vmulmod<A: ModArith, W: Lane>(m: A, a: &[W], b: &[W], out: &mut [W]) {
    map2_into(out, a, b, |a, b| m.mul(m.canon(a), m.canon(b)));
}

/// The scalar body of [`vmulmod_shoup`], out of line for the reason
/// [`bfly_shoup`] is.
#[inline(never)]
fn scalar_vmulmod_shoup<A: ModArith, W: Lane>(m: A, f: Factors<W, A>, out: &mut [W]) {
    for (o, prod) in out.iter_mut().zip(shoup_products(m, f)) {
        *o = W::narrow(prod.widen());
    }
}

/// The scalar body of [`vsmulmod`], given the scalar and its quotient.
#[inline]
fn scalar_vsmulmod<A: ModArith, W: Lane>(
    m: A,
    a: &[W],
    (s, s_shoup): (A::Word, A::Word),
    out: &mut [W],
) {
    for (o, &a) in out.iter_mut().zip(a) {
        *o = W::narrow(m.mul_shoup(a, s, s_shoup).widen());
    }
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

    /// A test's lanes under `q`: `a` and `w` reduced but for the hostile
    /// lanes a case puts in, `x` any `u128`, `wq` the quotients of each
    /// `w mod q` and `s` a reduced scalar.
    struct Lanes {
        a: Vec<u128>,
        x: Vec<u128>,
        w: Vec<u128>,
        wq: Vec<u128>,
        s: u128,
    }

    /// A function under test or its scalar body, at the vector bodies'
    /// types, writing one output or (a butterfly) two.
    type Body = fn(Modulus128, &Lanes, (&mut [u128], &mut [u128]));

    /// Every function with a vector body, beside its scalar body.
    const BODIES: [(&str, Body, Body); 6] = [
        (
            "vaddmod",
            |m, l, (o, _)| vaddmod(m, &l.a, &l.w, o),
            |m, l, (o, _)| scalar_vaddmod(m, &l.a, &l.w, o),
        ),
        (
            "vsubmod",
            |m, l, (o, _)| vsubmod(m, &l.a, &l.w, o),
            |m, l, (o, _)| scalar_vsubmod(m, &l.a, &l.w, o),
        ),
        (
            "vmulmod",
            |m, l, (o, _)| vmulmod(m, &l.a, &l.w, o),
            |m, l, (o, _)| scalar_vmulmod(m, &l.a, &l.w, o),
        ),
        (
            "vmulmod_shoup",
            |m, l, (o, _)| vmulmod_shoup(m, (&l.x, &l.w, &l.wq), o),
            |m, l, (o, _)| scalar_vmulmod_shoup(m, (&l.x, &l.w, &l.wq), o),
        ),
        (
            "vsmulmod",
            |m, l, (o, _)| vsmulmod(m, &l.x, l.s, o),
            |m, l, (o, _)| scalar_vsmulmod(m, &l.x, (l.s, m.shoup(l.s)), o),
        ),
        (
            "bfly_shoup",
            |m, l, outs| bfly_shoup(m, &l.a, (&l.x, &l.w, &l.wq), outs),
            |m, l, outs| scalar_bfly_shoup(m, &l.a, (&l.x, &l.w, &l.wq), outs),
        ),
    ];

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

    /// The vector bodies against the scalar loops. This CPU's function
    /// (its IFMA body where the CPU has one) and the scalar loop give
    /// the same words for each of the six functions, every modulus
    /// shape and slice length. `x` ranges over all of `u128`, every
    /// fifth lane just below 2^128 against `w = q − 1`; the reduced
    /// lanes include 2^126 − 1 and 2^126 where `q` is above them, so
    /// Barrett factors at and above 2^126 meet the moduli above 2^126.
    /// Unreduced `a` and `w` lanes, whose chunks go to the scalar loop,
    /// sit in the middle of a chunk.
    #[test]
    fn vector_and_scalar_bodies_agree() {
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
                    let edges = [0, 1, q - 1, q, u128::MAX, (1 << 126) - 1, 1 << 126];
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
                    let s = pick(len, true);
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
                    let wq = w.iter().map(|&w| m.shoup(w % q)).collect();
                    let lanes = Lanes { a, x, w, wq, s };
                    for (name, vector, scalar) in BODIES {
                        let run = |body: Body| {
                            let (mut out, mut out1) = (vec![7u128; len], vec![7u128; len]);
                            body(m, &lanes, (&mut out, &mut out1));
                            (out, out1)
                        };
                        assert_eq!(
                            run(vector),
                            run(scalar),
                            "{name}: q={q} len={len} variant={variant}"
                        );
                    }
                }
            }
        }
    }
}
