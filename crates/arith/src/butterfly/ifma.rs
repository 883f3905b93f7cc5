//! The wide Shoup butterfly on AVX-512 IFMA, eight `u128` lanes per
//! iteration. This is the one module of the workspace with `unsafe`
//! code (gate row `one-unsafe-module`): the call into the
//! feature-enabled loop, made only after the run-time CPU check, and
//! the unaligned vector loads and stores of whole 8-lane chunks.
//!
//! *Limbs for the products, words for the rest.* Eight lanes travel as
//! two vectors, their low and their high 64-bit words. For the two
//! products a value `v < 2^128` is split into three 52-bit limbs,
//! `v = v₀ + v₁·2^52 + v₂·2^104` with `v₂ < 2^24`, one vector per limb:
//! `vpmadd52luq` / `vpmadd52huq` add the low or the high 52 bits of a
//! 52×52-bit product to a 64-bit accumulator, so a column of a product
//! sums at most five halves, below 2^55, and carries once at the end
//! (`>> 52`, arithmetic where a column may be negative). The
//! corrections, the sum and the difference are 128-bit word
//! arithmetic, a mask register carrying between the words.
//!
//! *The scalar's own quotient.* Per lane this is
//! `Modulus128::mul_shoup` followed by `add` and `sub`, each correction
//! the scalar's `lift`:
//!
//! ```text
//! q̂ = ⌊x · w′ / 2^128⌋          every column of x·w′, carried
//! r = w·x − q̂·q  mod 2^128      the three low columns of each product
//! p = lift(r − q)                lift(d) = d + q where d < 0, else d
//! sum = lift(a + p − q),  diff = lift(a − p)
//! ```
//!
//! `q̂` is the exact high half of the full 256-bit product, so it is the
//! quotient the scalar computes, not an estimate of it. The Shoup bound
//! then puts `w·x − q̂·q` in `[0, 2q)`, below 2^128, so its value mod
//! 2^128 is the value itself, and every difference `lift` corrects lies
//! in `[−q, q)` with `q < 2^127`, so bit 127 is its sign, as in the
//! scalar. The words are the scalar loop's for every `x` and every
//! modulus in `[2, 2^127)`, given reduced `a` and `w`: a chunk with a
//! lane `a ≥ q` or `w ≥ q` (which the scalar loop reduces first) goes
//! to the scalar loop whole, before anything of it is written.

use core::arch::x86_64::*;

use super::{scalar_bfly_shoup, Factors};
use crate::Modulus128;

/// Eight lanes' low and high 64-bit words.
type Words = (__m512i, __m512i);

/// Eight lanes in three 52-bit limbs, or eight lanes' columns of a
/// product.
type Limbs = [__m512i; 3];

/// Whether this CPU runs the vector body (the standard library caches
/// the answer).
fn available() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
}

/// `super::bfly_shoup` for `u128` lanes under `m`: eight lanes at a
/// time where the CPU has AVX-512 IFMA, the scalar loop otherwise.
pub(super) fn bfly_shoup(
    m: Modulus128,
    a: &[u128],
    f: Factors<u128, Modulus128>,
    outs: (&mut [u128], &mut [u128]),
) {
    if available() {
        // SAFETY: the CPU reports AVX-512F and AVX-512 IFMA, the two
        // features `chunks` is compiled for.
        unsafe { chunks(m, a, f, outs) }
    } else {
        scalar_bfly_shoup(m, a, f, outs);
    }
}

/// The vector loop: whole 8-lane chunks through [`chunk`], a chunk it
/// refuses and the last `len % 8` lanes through the scalar loop.
#[target_feature(enable = "avx512f,avx512ifma")]
fn chunks(
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
        if !chunk(&q, a, (x, w, wq), (s, d)) {
            scalar_bfly_shoup(m, a, (x, w, wq), (s, d));
        }
    }
    let tail = n - n % 8..n;
    let f = (&x[tail.clone()], &w[tail.clone()], &wq[tail.clone()]);
    let outs = (&mut sum[tail.clone()], &mut diff[tail.clone()]);
    scalar_bfly_shoup(m, &a[tail], f, outs);
}

/// The modulus broadcast to every lane, in limbs and in words.
struct Modulus {
    limbs: Limbs,
    words: Words,
}

impl Modulus {
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn new(m: Modulus128) -> Modulus {
        let q = m.value();
        let word = |v: u128| _mm512_set1_epi64(v as i64);
        Modulus {
            limbs: [word(q & LIMB), word(q >> 52 & LIMB), word(q >> 104)],
            words: (word(q), word(q >> 64)),
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
}

/// 2^52 − 1, a limb's bits.
const LIMB: u128 = (1 << 52) - 1;

/// One chunk of the butterfly, or `false` with nothing written when an
/// `a` or `w` lane is not reduced.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn chunk(
    q: &Modulus,
    a: &[u128; 8],
    (x, w, wq): (&[u128; 8], &[u128; 8], &[u128; 8]),
    (sum, diff): (&mut [u128; 8], &mut [u128; 8]),
) -> bool {
    let (a, w) = (load(a), load(w));
    if q.at_or_above(a) | q.at_or_above(w) != 0 {
        return false;
    }
    let x = limbs(load(x));
    let q_hat = hi128(x, limbs(load(wq)));
    let (wx, qq) = (lo156(limbs(w), x), lo156(q_hat, q.limbs));
    let r = words([0, 1, 2].map(|i| _mm512_sub_epi64(wx[i], qq[i])));
    let p = lift(sub(r, q.words), q.words);
    store(sum, lift(sub(add(a, p), q.words), q.words));
    store(diff, lift(sub(a, p), q.words));
    true
}

/// The eight lanes' words.
#[inline]
#[target_feature(enable = "avx512f")]
fn load(lanes: &[u128; 8]) -> Words {
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
fn store(lanes: &mut [u128; 8], (lo, hi): Words) {
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

/// `d + m` in the lanes where `d`, read as `i128`, is negative, `d`
/// elsewhere: the scalar `lift`, for `d` in `[−m, m)`.
#[inline]
#[target_feature(enable = "avx512f")]
fn lift(d: Words, m: Words) -> Words {
    let negative = _mm512_cmplt_epi64_mask(d.1, _mm512_setzero_si512());
    let e = add(d, m);
    let pick = |d, e| _mm512_mask_blend_epi64(negative, d, e);
    (pick(d.0, e.0), pick(d.1, e.1))
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

/// `⌊x·y / 2^128⌋` in limbs, from every column of the product.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn hi128([x0, x1, x2]: Limbs, [y0, y1, y2]: Limbs) -> Limbs {
    let lo = _mm512_madd52lo_epu64;
    let hi = _mm512_madd52hi_epu64;
    let z = _mm512_setzero_si512();
    // Column 0 is one low half, below 2^52: it carries nothing. So is
    // the high half of x₂·y₂ < 2^48, zero, left out of column 5.
    let c1 = lo(lo(hi(z, x0, y0), x0, y1), x1, y0);
    let c2 = lo(lo(lo(hi(hi(z, x0, y1), x1, y0), x0, y2), x1, y1), x2, y0);
    let c3 = lo(lo(hi(hi(hi(z, x0, y2), x1, y1), x2, y0), x1, y2), x2, y1);
    let c4 = lo(hi(hi(z, x1, y2), x2, y1), x2, y2);
    let c2 = _mm512_add_epi64(c2, _mm512_srli_epi64::<52>(c1));
    let c3 = _mm512_add_epi64(c3, _mm512_srli_epi64::<52>(c2));
    let c4 = _mm512_add_epi64(c4, _mm512_srli_epi64::<52>(c3));
    let (c2, c3) = (and(c2, LIMB), and(c3, LIMB));
    // Bit 128 is bit 24 of column 2; the product is below 2^256, so
    // the carried column 4 is below 2^48.
    let at_24 = |low: __m512i, high: __m512i| {
        and(
            _mm512_or_si512(_mm512_srli_epi64::<24>(low), _mm512_slli_epi64::<28>(high)),
            LIMB,
        )
    };
    [at_24(c2, c3), at_24(c3, c4), _mm512_srli_epi64::<24>(c4)]
}

/// The three low columns of `x·y`, uncarried: `x·y mod 2^156`.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn lo156([x0, x1, x2]: Limbs, [y0, y1, y2]: Limbs) -> Limbs {
    let lo = _mm512_madd52lo_epu64;
    let hi = _mm512_madd52hi_epu64;
    let z = _mm512_setzero_si512();
    [
        lo(z, x0, y0),
        lo(lo(hi(z, x0, y0), x0, y1), x1, y0),
        lo(lo(lo(hi(hi(z, x0, y1), x1, y0), x0, y2), x1, y1), x2, y0),
    ]
}
