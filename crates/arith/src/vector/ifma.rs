//! The wide modular instructions on AVX-512 IFMA, eight `u128` lanes
//! per iteration: the vector body of each of [`super`]'s functions.
//! This is the one module of the workspace with `unsafe` code (gate
//! row `one-unsafe-module`): the calls into the feature-enabled loops,
//! each made only after the run-time CPU check, and the unaligned
//! vector loads and stores of whole 8-lane chunks.
//!
//! *Limbs for the products, words for the rest.* Eight lanes travel as
//! two vectors, their low and their high 64-bit words. For a product a
//! value `v < 2^128` is split into three 52-bit limbs,
//! `v = v₀ + v₁·2^52 + v₂·2^104` with `v₂ < 2^24`, one vector per limb:
//! `vpmadd52luq` / `vpmadd52huq` add the low or the high 52 bits of a
//! 52×52-bit product to a 64-bit accumulator, so a column of a product
//! sums at most five halves, below 2^55, and carries once at the end
//! (`>> 52`, arithmetic where a column may be negative). Sums,
//! differences and corrections are 128-bit word arithmetic, a mask
//! register carrying between the words; `vaddmod` and `vsubmod` use
//! nothing else.
//!
//! *The scalar's own steps.* Per lane each body is the scalar
//! `Modulus128` method's, each correction the scalar's `lift`
//! (`lift(d, m) = d + m` where `d < 0`, else `d`):
//!
//! ```text
//! vaddmod  lift(a + b − q, q)         vsubmod  lift(a − b, q)
//! Shoup    q̂ = ⌊x · w′ / 2^128⌋       every column of x·w′, carried
//!          r = w·x − q̂·q  mod 2^128   the three low columns of each product
//!          p = lift(r − q, q)
//! bfly     sum = lift(a + p − q, q),  diff = lift(a − p, q)
//! Barrett  x = (a << s) · b           every column, carried: five limbs
//!          x₁ = ⌊x / 2^125⌋           three limbs read from bit 125
//!          q̂ = ⌊x₁ · mu / 2^129⌋      every column of x₁·mu, read from bit 129
//!          r = x − q̂·qn  mod 2^128    x's three low limbs less q̂·qn's low columns
//!          lift(r − qn, qn) >> s
//! ```
//!
//! The Shoup `q̂` is the exact high half of the full 256-bit product, so
//! it is the quotient the scalar computes, not an estimate of it; the
//! Shoup bound then puts `w·x − q̂·q` in `[0, 2q)`, below 2^128, so its
//! value mod 2^128 is the value itself. The Barrett `x₁` and `q̂` are the
//! scalar's exact floors too, and its `r` lies in `[0, 2·qn)`, below
//! 2^128 (`mod128`'s header). Every difference `lift` corrects lies in
//! `[−m, m)` with `m < 2^127`, so bit 127 is its sign, as in the scalar.
//! A Barrett factor `b ≥ 2^126`, which only a modulus above 2^126 has,
//! is multiplied as `q − b` and the product negated, the scalar's branch
//! turned lane mask. The shifts by `s` are variable-count shifts, which
//! give 0 for a count past 63.
//!
//! So the words are the scalar loop's for every modulus in
//! `[2, 2^127)`, given the reduced lanes a body reads: a chunk with a
//! lane at or above `q` that the scalar loop would reduce first (any
//! operand of `vaddmod`, `vsubmod` and Barrett `vmulmod`, a butterfly's
//! `a`, a constant `w`) goes to the scalar loop whole, before anything
//! of it is written. `x`, and so `vsmulmod`'s lanes, may be any `u128`.

use core::arch::x86_64::*;

use super::{
    scalar_bfly_shoup, scalar_vaddmod, scalar_vmulmod, scalar_vmulmod_shoup, scalar_vsmulmod,
    scalar_vsubmod, Factors,
};
use crate::Modulus128;

/// Eight lanes' low and high 64-bit words.
type Words = (__m512i, __m512i);

/// Eight lanes in three 52-bit limbs, or eight lanes' low columns of a
/// product.
type Limbs = [__m512i; 3];

/// Eight lanes' columns of a product below 2^256. Carried, they are its
/// five 52-bit limbs (the sixth column, the high half of `x₂·y₂ < 2^48`,
/// is zero).
type Columns = [__m512i; 5];

/// Whether this CPU runs the vector bodies (the standard library caches
/// the answer).
fn available() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
}

// The entry points: each runs its vector loop where the CPU has AVX-512
// IFMA, its scalar loop otherwise.

/// `super::vaddmod` for `u128` lanes under `m`.
pub(super) fn vaddmod(m: Modulus128, a: &[u128], b: &[u128], out: &mut [u128]) {
    binary(Binary::Add, m, (a, b), out);
}

/// `super::vsubmod` for `u128` lanes under `m`.
pub(super) fn vsubmod(m: Modulus128, a: &[u128], b: &[u128], out: &mut [u128]) {
    binary(Binary::Sub, m, (a, b), out);
}

/// `super::vmulmod` for `u128` lanes under `m`.
pub(super) fn vmulmod(m: Modulus128, a: &[u128], b: &[u128], out: &mut [u128]) {
    binary(Binary::Mul, m, (a, b), out);
}

/// The three entry points above.
fn binary(op: Binary, m: Modulus128, ab: (&[u128], &[u128]), out: &mut [u128]) {
    if available() {
        // SAFETY: `available()` saw AVX-512F and AVX-512 IFMA, the two
        // features the loop is compiled for.
        unsafe { binary_chunks(op, m, ab, out) }
    } else {
        op.scalar(m, ab, out);
    }
}

/// `super::vmulmod_shoup` for `u128` lanes under `m`.
pub(super) fn vmulmod_shoup(m: Modulus128, f: Factors<u128, Modulus128>, out: &mut [u128]) {
    if available() {
        // SAFETY: `available()` saw AVX-512F and AVX-512 IFMA, the two
        // features the loop is compiled for.
        unsafe { vmulmod_shoup_chunks(m, f, out) }
    } else {
        scalar_vmulmod_shoup(m, f, out);
    }
}

/// `super::vsmulmod` for `u128` lanes under `m`, given the scalar and
/// its quotient.
pub(super) fn vsmulmod(m: Modulus128, a: &[u128], s: (u128, u128), out: &mut [u128]) {
    if available() && s.0 < m.value() {
        // SAFETY: `available()` saw AVX-512F and AVX-512 IFMA, the two
        // features the loop is compiled for.
        unsafe { vsmulmod_chunks(m, a, s, out) }
    } else {
        scalar_vsmulmod(m, a, s, out);
    }
}

/// `super::bfly_shoup` for `u128` lanes under `m`.
pub(super) fn bfly_shoup(
    m: Modulus128,
    a: &[u128],
    f: Factors<u128, Modulus128>,
    outs: (&mut [u128], &mut [u128]),
) {
    if available() {
        // SAFETY: `available()` saw AVX-512F and AVX-512 IFMA, the two
        // features the loop is compiled for.
        unsafe { bfly_shoup_chunks(m, a, f, outs) }
    } else {
        scalar_bfly_shoup(m, a, f, outs);
    }
}

// The loops: each whole 8-lane chunk through its vector step, a chunk
// the step refuses and the last `len % 8` lanes through the scalar
// loop.

/// Eight lanes.
type Chunk = [u128; 8];

#[target_feature(enable = "avx512f,avx512ifma")]
fn binary_chunks(op: Binary, m: Modulus128, (a, b): (&[u128], &[u128]), out: &mut [u128]) {
    let n = a.len().min(b.len()).min(out.len());
    let q = Modulus::new(m);
    let ins = a[..n].as_chunks().0.iter().zip(b[..n].as_chunks().0);
    for ((a, b), out) in ins.zip(out[..n].as_chunks_mut().0) {
        if !q.binary_chunk(op, (a, b), out) {
            op.scalar(m, (a, b), out);
        }
    }
    let tail = n - n % 8..n;
    op.scalar(m, (&a[tail.clone()], &b[tail.clone()]), &mut out[tail]);
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn vmulmod_shoup_chunks(m: Modulus128, (x, w, wq): Factors<u128, Modulus128>, out: &mut [u128]) {
    let n = x.len().min(w.len()).min(wq.len()).min(out.len());
    let q = Modulus::new(m);
    let ins = x[..n].as_chunks().0.iter().zip(w[..n].as_chunks().0);
    let ins = ins.zip(wq[..n].as_chunks().0);
    for (((x, w), wq), out) in ins.zip(out[..n].as_chunks_mut().0) {
        if !q.shoup_chunk((x, w, wq), out) {
            scalar_vmulmod_shoup(m, (x, w, wq), out);
        }
    }
    let tail = n - n % 8..n;
    let f = (&x[tail.clone()], &w[tail.clone()], &wq[tail.clone()]);
    scalar_vmulmod_shoup(m, f, &mut out[tail]);
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn vsmulmod_chunks(m: Modulus128, a: &[u128], (s, s_shoup): (u128, u128), out: &mut [u128]) {
    let n = a.len().min(out.len());
    let q = Modulus::new(m);
    let (w, wq) = (limbs(splat(s)), limbs(splat(s_shoup)));
    let ins = a[..n].as_chunks().0.iter();
    for (x, out) in ins.zip(out[..n].as_chunks_mut().0) {
        store(out, q.shoup(load(x), w, wq));
    }
    let tail = n - n % 8..n;
    scalar_vsmulmod(m, &a[tail.clone()], (s, s_shoup), &mut out[tail]);
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn bfly_shoup_chunks(
    m: Modulus128,
    a: &[u128],
    (x, w, wq): Factors<u128, Modulus128>,
    (sum, diff): (&mut [u128], &mut [u128]),
) {
    let len = [a.len(), x.len(), w.len(), wq.len(), sum.len(), diff.len()];
    let n = len.into_iter().min().unwrap_or(0);
    let q = Modulus::new(m);
    let ins = a[..n].as_chunks().0.iter().zip(x[..n].as_chunks().0);
    let ins = ins.zip(w[..n].as_chunks().0).zip(wq[..n].as_chunks().0);
    let outs = sum[..n].as_chunks_mut().0.iter_mut();
    let outs = outs.zip(diff[..n].as_chunks_mut().0.iter_mut());
    for ((((a, x), w), wq), (s, d)) in ins.zip(outs) {
        if !q.bfly_chunk(a, (x, w, wq), (s, d)) {
            scalar_bfly_shoup(m, a, (x, w, wq), (s, d));
        }
    }
    let tail = n - n % 8..n;
    let f = (&x[tail.clone()], &w[tail.clone()], &wq[tail.clone()]);
    let outs = (&mut sum[tail.clone()], &mut diff[tail.clone()]);
    scalar_bfly_shoup(m, &a[tail], f, outs);
}

/// An instruction over two reduced operands.
#[derive(Clone, Copy)]
enum Binary {
    Add,
    Sub,
    Mul,
}

impl Binary {
    /// The instruction's scalar loop.
    fn scalar(self, m: Modulus128, (a, b): (&[u128], &[u128]), out: &mut [u128]) {
        match self {
            Binary::Add => scalar_vaddmod(m, a, b, out),
            Binary::Sub => scalar_vsubmod(m, a, b, out),
            Binary::Mul => scalar_vmulmod(m, a, b, out),
        }
    }
}

/// The modulus broadcast to every lane, with the Barrett pass's
/// constants.
struct Modulus {
    /// `q` in limbs and in words.
    limbs: Limbs,
    words: Words,
    /// `qn = q << s` in limbs and in words, and `mu` in limbs.
    qn: (Limbs, Words),
    mu: Limbs,
    /// The shift counts `s`, `s − 64` and `64 − s`, wrapped: a count
    /// below zero is one past 63.
    shifts: [__m512i; 3],
}

impl Modulus {
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn new(m: Modulus128) -> Modulus {
        let (s, qn, mu) = m.barrett_constants();
        let count = |c: i64| _mm512_set1_epi64(c);
        let s = i64::from(s);
        Modulus {
            limbs: limbs(splat(m.value())),
            words: splat(m.value()),
            qn: (limbs(splat(qn)), splat(qn)),
            mu: limbs(splat(mu)),
            shifts: [count(s), count(s - 64), count(64 - s)],
        }
    }

    /// The lanes of `(lo, hi)` at or above `q`, as a bit mask.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn at_or_above(&self, (lo, hi): Words) -> __mmask8 {
        let (q_lo, q_hi) = self.words;
        let above = _mm512_cmpgt_epu64_mask(hi, q_hi);
        above | (_mm512_cmpeq_epu64_mask(hi, q_hi) & _mm512_cmpge_epu64_mask(lo, q_lo))
    }

    /// `a + b mod q` for reduced lanes: the scalar `add`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn add(&self, a: Words, b: Words) -> Words {
        lift(sub(add(a, b), self.words), self.words)
    }

    /// `a − b mod q` for reduced lanes: the scalar `sub`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn sub(&self, a: Words, b: Words) -> Words {
        lift(sub(a, b), self.words)
    }

    /// `x · w mod q` through the quotients `wq`, for reduced `w` and any
    /// `x`: the scalar `mul_shoup`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn shoup(&self, x: Words, w: Limbs, wq: Limbs) -> Words {
        let x = limbs(x);
        let q_hat = bits_from(carry(columns(x, wq)), 24);
        let (wx, qq) = (low(columns(w, x)), low(columns(q_hat, self.limbs)));
        let r = words([0, 1, 2].map(|i| _mm512_sub_epi64(wx[i], qq[i])));
        lift(sub(r, self.words), self.words)
    }

    /// `a · b mod q` for reduced lanes: the scalar `mul`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul(&self, a: Words, b: Words) -> Words {
        // Only a modulus above 2^126 has a factor b ≥ 2^126: multiply
        // by q − b, which is below 2^126, and negate the product.
        let big = _mm512_cmpge_epu64_mask(b.1, _mm512_set1_epi64(1 << 62));
        let r = self.barrett(a, blend(big, b, sub(self.words, b)));
        blend(big, r, self.sub(splat(0), r))
    }

    /// `a · b mod q` for `a < q`, `b < min(q, 2^126)`: the scalar
    /// `barrett`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn barrett(&self, a: Words, b: Words) -> Words {
        let x = carry(columns(limbs(self.shl(a)), limbs(b)));
        let q_hat = bits_from(carry(columns(bits_from(x, 21), self.mu)), 25);
        let qq = low(columns(q_hat, self.qn.0));
        let r = words([0, 1, 2].map(|i| _mm512_sub_epi64(x[i], qq[i])));
        self.shr(lift(sub(r, self.qn.1), self.qn.1))
    }

    /// `v << s`, for `v << s < 2^128`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn shl(&self, (lo, hi): Words) -> Words {
        let [s, up, down] = self.shifts;
        let carried = _mm512_or_si512(_mm512_sllv_epi64(lo, up), _mm512_srlv_epi64(lo, down));
        (
            _mm512_sllv_epi64(lo, s),
            _mm512_or_si512(_mm512_sllv_epi64(hi, s), carried),
        )
    }

    /// `v >> s`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn shr(&self, (lo, hi): Words) -> Words {
        let [s, down, up] = self.shifts;
        let carried = _mm512_or_si512(_mm512_srlv_epi64(hi, down), _mm512_sllv_epi64(hi, up));
        (
            _mm512_or_si512(_mm512_srlv_epi64(lo, s), carried),
            _mm512_srlv_epi64(hi, s),
        )
    }

    // The vector steps: one chunk each, or `false` with nothing written
    // when a lane the scalar loop would reduce is not reduced.

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn binary_chunk(&self, op: Binary, (a, b): (&Chunk, &Chunk), out: &mut Chunk) -> bool {
        let (a, b) = (load(a), load(b));
        if self.at_or_above(a) | self.at_or_above(b) != 0 {
            return false;
        }
        let v = match op {
            Binary::Add => self.add(a, b),
            Binary::Sub => self.sub(a, b),
            Binary::Mul => self.mul(a, b),
        };
        store(out, v);
        true
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn shoup_chunk(&self, (x, w, wq): (&Chunk, &Chunk, &Chunk), out: &mut Chunk) -> bool {
        let w = load(w);
        if self.at_or_above(w) != 0 {
            return false;
        }
        store(out, self.shoup(load(x), limbs(w), limbs(load(wq))));
        true
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn bfly_chunk(
        &self,
        a: &Chunk,
        (x, w, wq): (&Chunk, &Chunk, &Chunk),
        (sum, diff): (&mut Chunk, &mut Chunk),
    ) -> bool {
        let (a, w) = (load(a), load(w));
        if self.at_or_above(a) | self.at_or_above(w) != 0 {
            return false;
        }
        let p = self.shoup(load(x), limbs(w), limbs(load(wq)));
        store(sum, self.add(a, p));
        store(diff, self.sub(a, p));
        true
    }
}

/// 2^52 − 1, a limb's bits.
const LIMB: u128 = (1 << 52) - 1;

/// `v` in every lane.
#[inline]
#[target_feature(enable = "avx512f")]
fn splat(v: u128) -> Words {
    (
        _mm512_set1_epi64(v as i64),
        _mm512_set1_epi64((v >> 64) as i64),
    )
}

/// The eight lanes' words.
#[inline]
#[target_feature(enable = "avx512f")]
fn load(lanes: &Chunk) -> Words {
    let at = lanes.as_ptr().cast::<__m512i>();
    // SAFETY: `lanes` is 128 readable bytes, the two vectors at `at`
    // and `at + 1`; `loadu` takes any alignment.
    let (v0, v1) = unsafe { (_mm512_loadu_si512(at), _mm512_loadu_si512(at.add(1))) };
    let even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    let odd = _mm512_add_epi64(even, _mm512_set1_epi64(1));
    let words = |ix| _mm512_permutex2var_epi64(v0, ix, v1);
    (words(even), words(odd))
}

/// Stores the words `(lo, hi)` as eight `u128` lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn store(lanes: &mut Chunk, (lo, hi): Words) {
    let first = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    let second = _mm512_add_epi64(first, _mm512_set1_epi64(4));
    let lanes_at = |ix| _mm512_permutex2var_epi64(lo, ix, hi);
    let at = lanes.as_mut_ptr().cast::<__m512i>();
    // SAFETY: `lanes` is 128 writable bytes, the two vectors at `at`
    // and `at + 1`; `storeu` takes any alignment.
    unsafe {
        _mm512_storeu_si512(at, lanes_at(first));
        _mm512_storeu_si512(at.add(1), lanes_at(second));
    }
}

/// `u + v` mod 2^128.
#[inline]
#[target_feature(enable = "avx512f")]
fn add((u_lo, u_hi): Words, (v_lo, v_hi): Words) -> Words {
    let lo = _mm512_add_epi64(u_lo, v_lo);
    let carry = _mm512_cmplt_epu64_mask(lo, u_lo);
    let hi = _mm512_add_epi64(u_hi, v_hi);
    (
        lo,
        _mm512_mask_add_epi64(hi, carry, hi, _mm512_set1_epi64(1)),
    )
}

/// `u − v` mod 2^128.
#[inline]
#[target_feature(enable = "avx512f")]
fn sub((u_lo, u_hi): Words, (v_lo, v_hi): Words) -> Words {
    let borrow = _mm512_cmplt_epu64_mask(u_lo, v_lo);
    let hi = _mm512_sub_epi64(u_hi, v_hi);
    let hi = _mm512_mask_sub_epi64(hi, borrow, hi, _mm512_set1_epi64(1));
    (_mm512_sub_epi64(u_lo, v_lo), hi)
}

/// `v` in the lanes of `mask`, `u` elsewhere.
#[inline]
#[target_feature(enable = "avx512f")]
fn blend(mask: __mmask8, u: Words, v: Words) -> Words {
    let pick = |u, v| _mm512_mask_blend_epi64(mask, u, v);
    (pick(u.0, v.0), pick(u.1, v.1))
}

/// `d + m` in the lanes where `d`, read as `i128`, is negative, `d`
/// elsewhere: the scalar `lift`, for `d` in `[−m, m)`.
#[inline]
#[target_feature(enable = "avx512f")]
fn lift(d: Words, m: Words) -> Words {
    let negative = _mm512_cmplt_epi64_mask(d.1, _mm512_setzero_si512());
    blend(negative, d, add(d, m))
}

/// The limbs of the words `(lo, hi)`.
#[inline]
#[target_feature(enable = "avx512f")]
fn limbs((lo, hi): Words) -> Limbs {
    let mid = _mm512_or_si512(_mm512_srli_epi64::<52>(lo), _mm512_slli_epi64::<12>(hi));
    [and(lo, LIMB), and(mid, LIMB), _mm512_srli_epi64::<40>(hi)]
}

/// The words of `c₀ + c₁·2^52 + c₂·2^104` mod 2^128, for signed
/// columns `c`: carried, then packed.
#[inline]
#[target_feature(enable = "avx512f")]
fn words([c0, c1, c2]: Limbs) -> Words {
    let c1 = _mm512_add_epi64(c1, _mm512_srai_epi64::<52>(c0));
    let c2 = _mm512_add_epi64(c2, _mm512_srai_epi64::<52>(c1));
    let lo = _mm512_or_si512(and(c0, LIMB), _mm512_slli_epi64::<52>(c1));
    let mid = and(_mm512_srli_epi64::<12>(c1), (1 << 40) - 1);
    (lo, _mm512_or_si512(mid, _mm512_slli_epi64::<40>(c2)))
}

#[inline]
#[target_feature(enable = "avx512f")]
fn and(v: __m512i, bits: u128) -> __m512i {
    _mm512_and_si512(v, _mm512_set1_epi64(bits as i64))
}

/// The columns of `x·y`, uncarried. What a caller does not read, the
/// compiler leaves out.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn columns([x0, x1, x2]: Limbs, [y0, y1, y2]: Limbs) -> Columns {
    let lo = _mm512_madd52lo_epu64;
    let hi = _mm512_madd52hi_epu64;
    let z = _mm512_setzero_si512();
    [
        lo(z, x0, y0),
        lo(lo(hi(z, x0, y0), x0, y1), x1, y0),
        lo(lo(lo(hi(hi(z, x0, y1), x1, y0), x0, y2), x1, y1), x2, y0),
        lo(lo(hi(hi(hi(z, x0, y2), x1, y1), x2, y0), x1, y2), x2, y1),
        lo(hi(hi(z, x1, y2), x2, y1), x2, y2),
    ]
}

/// The three low columns, uncarried: `x·y mod 2^156`.
#[inline]
fn low([c0, c1, c2, ..]: Columns) -> Limbs {
    [c0, c1, c2]
}

/// The columns carried into limbs. Column 0 is one low half, below
/// 2^52: it carries nothing.
#[inline]
#[target_feature(enable = "avx512f")]
fn carry([c0, c1, c2, c3, c4]: Columns) -> Columns {
    let c2 = _mm512_add_epi64(c2, _mm512_srli_epi64::<52>(c1));
    let c3 = _mm512_add_epi64(c3, _mm512_srli_epi64::<52>(c2));
    let c4 = _mm512_add_epi64(c4, _mm512_srli_epi64::<52>(c3));
    [c0, and(c1, LIMB), and(c2, LIMB), and(c3, LIMB), c4]
}

/// `⌊v / 2^(104 + bit)⌋` in limbs, for the limbs of a value `v` below
/// `2^(232 + bit)` and `bit < 52`: read from bit `bit` of limb 2.
#[inline]
#[target_feature(enable = "avx512f")]
fn bits_from([_, _, l2, l3, l4]: Columns, bit: u32) -> Limbs {
    let (down, up) = (
        _mm512_set1_epi64(bit.into()),
        _mm512_set1_epi64((52 - bit).into()),
    );
    let window = |low, high| {
        and(
            _mm512_or_si512(_mm512_srlv_epi64(low, down), _mm512_sllv_epi64(high, up)),
            LIMB,
        )
    };
    [window(l2, l3), window(l3, l4), _mm512_srlv_epi64(l4, down)]
}
