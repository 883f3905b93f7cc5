//! The RLWE scheme itself, written once over `k ≥ 1` RNS towers.
//!
//! The paper's ciphertext is a set of towers that operate independently
//! (Section II-A, Fig. 1), so the single-modulus scheme is the one-tower
//! case of the leveled one. A ring is `&[Arc<Ntt128Plan>]` plus the
//! plaintext modulus `t`; a ring element is `&[Polynomial]`, one
//! evaluation-form polynomial per tower. [`crate::rlwe`] and
//! [`crate::leveled`] own their parameter and ciphertext types and
//! delegate the arithmetic here, so every pinned randomness stream — the
//! order of draws an accelerator runtime replays to reproduce host keys
//! and ciphertexts bit for bit — has exactly one copy.

use crate::rlwe::Splitmix;
use crate::{Ntt128Plan, NttError, Polynomial};
use rpu_arith::{gadget_decompose, gadget_levels};
use std::sync::Arc;

/// The `(mask, payload)` halves of a pair, one entry per tower.
pub(crate) type Pair<T> = (Vec<T>, Vec<T>);

/// A gadget-decomposed key-switch key. For each source tower `i` and
/// digit `j` (base `B = 2^base_log`, `ℓ_i = ⌈bits(q_i)/base_log⌉`
/// digits) it holds a pair `(a_ij, b_ij = a_ij·s + t·e_ij + B^j·M̂_i)`
/// over every tower, where `M̂_i` is the switch target `M` (`s²` for
/// relinearization, `−σ_g(s)` for rotation) on tower `i` and zero on
/// every other tower — the RNS indicator of the digit's origin. A
/// single-modulus key is the one-tower case: one source, `ℓ` plain
/// pairs. Components are stored in evaluation form, the form an
/// accelerator keeps them resident in; mod-dropping the key is a tower
/// truncation, like the ciphertexts it serves.
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    base_log: u32,
    parts: Vec<Vec<Pair<Polynomial>>>,
}

impl KeySwitchKey {
    /// The digit base exponent `log2(B)`.
    pub fn base_log(&self) -> u32 {
        self.base_log
    }

    /// Total gadget digits `Σ_i ℓ_i` (`ℓ` for a single-modulus key).
    pub fn levels(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    /// The per-(source tower, digit) key pairs: `parts()[i][j]` serves
    /// digit `j` of source tower `i`, as `(a, b)` with one polynomial
    /// per tower.
    pub fn parts(&self) -> &[Vec<Pair<Polynomial>>] {
        &self.parts
    }

    /// Digit products `Σ_{i ≤ level} ℓ_i` a key switch at `level`
    /// performs — the `parts` factor of the noise model.
    pub fn parts_at_level(&self, level: usize) -> usize {
        self.parts[..=level].iter().map(Vec::len).sum()
    }

    /// Tower `k`'s share of source tower `i`: per digit, the `(a, b)`
    /// natural-order coefficient pair — what the lane that owns tower
    /// `k` uploads and keeps resident.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `k` is not a tower of this key.
    pub fn share(&self, i: usize, k: usize) -> impl Iterator<Item = Pair<u128>> + '_ {
        self.parts[i]
            .iter()
            .map(move |(a, b)| (a[k].coeffs(), b[k].coeffs()))
    }
}

/// Natural-order coefficients to the evaluation form elements are kept in.
pub(crate) fn lift(plan: &Arc<Ntt128Plan>, coeffs: Vec<u128>) -> Result<Polynomial, NttError> {
    let mut p = Polynomial::from_coeffs(plan, coeffs)?;
    p.to_evaluation();
    Ok(p)
}

/// [`lift`] per tower, for vectors this module sized itself.
fn lift_towers(plans: &[Arc<Ntt128Plan>], towers: Vec<Vec<u128>>) -> Vec<Polynomial> {
    let lifted = plans.iter().zip(towers).map(|(plan, c)| lift(plan, c));
    lifted.map(|p| p.expect("length matches")).collect()
}

/// Samples a ternary secret. Randomness order: `n` ternary draws, shared
/// across towers (the same `{-1, 0, 1}` value reduced modulo each prime).
pub(crate) fn keygen(plans: &[Arc<Ntt128Plan>], rng: &mut Splitmix) -> Vec<Polynomial> {
    let signs: Vec<u64> = (0..plans[0].degree()).map(|_| rng.next_u64() % 3).collect();
    let reduce = |q: u128| signs.iter().map(|&v| [0, 1, q - 1][v as usize]).collect();
    lift_towers(
        plans,
        plans.iter().map(|p| reduce(p.modulus().value())).collect(),
    )
}

/// The randomness front half of [`encrypt`]: per-tower uniform masks and
/// per-tower payloads `m + t·e`, natural order. Randomness order:
/// tower-major mask draws (`n` below `q_0`, then `n` below `q_1`, …),
/// then `n` signed error draws shared across towers. Panics if
/// `message.len() != n`.
pub(crate) fn sample_mask_and_payload(
    plans: &[Arc<Ntt128Plan>],
    t: u128,
    message: &[u128],
    rng: &mut Splitmix,
) -> Pair<Vec<u128>> {
    let n = plans[0].degree();
    assert_eq!(message.len(), n, "message length must equal n");
    let moduli = || plans.iter().map(|plan| plan.modulus().value());
    let masks = moduli()
        .map(|q| (0..n).map(|_| rng.below(q)).collect())
        .collect();
    let errors: Vec<i64> = (0..n).map(|_| rng.small_error_signed()).collect();
    let payloads = moduli()
        .map(|q| {
            let noisy = message.iter().zip(&errors).map(|(&m, &e)| {
                // |e| ≤ 4 and t < q, so t·|e| is exact in u128.
                let te = t * u128::from(e.unsigned_abs()) % q;
                (m % t + if e < 0 { q - te } else { te }) % q
            });
            noisy.collect()
        })
        .collect();
    (masks, payloads)
}

/// `(a, b = a·s + t·e + m)` on every tower, for `message` mod `t`.
pub(crate) fn encrypt(
    plans: &[Arc<Ntt128Plan>],
    t: u128,
    s: &[Polynomial],
    message: &[u128],
    rng: &mut Splitmix,
) -> Pair<Polynomial> {
    let (masks, payloads) = sample_mask_and_payload(plans, t, message, rng);
    let a = lift_towers(plans, masks);
    let masked = a.iter().zip(s).zip(lift_towers(plans, payloads));
    let b = masked.map(|((a, s), p)| a.mul(s).add(&p)).collect();
    (a, b)
}

/// Phase coefficients `b − a·s = m + t·e` on the towers `a` and `b` have.
pub(crate) fn phase(s: &[Polynomial], a: &[Polynomial], b: &[Polynomial]) -> Vec<Vec<u128>> {
    let towers = b.iter().zip(a).zip(s);
    towers
        .map(|((b, a), s)| b.sub(&a.mul(s)).coeffs())
        .collect()
}

/// Generates a key-switch key for `target` (one polynomial per tower):
/// each part is an encryption of zero with `B^j·target_i` added on the
/// digit's own tower. Randomness order is therefore [`encrypt`]'s, per
/// part `(i, j)`.
pub(crate) fn keyswitch_keygen(
    plans: &[Arc<Ntt128Plan>],
    t: u128,
    s: &[Polynomial],
    target: &[Polynomial],
    rng: &mut Splitmix,
    base_log: u32,
) -> KeySwitchKey {
    let zero = vec![0; plans[0].degree()];
    let mut part = |i: usize, j: usize| {
        let m = plans[i].modulus();
        let (a, mut b) = encrypt(plans, t, s, &zero, rng);
        let base = m.reduce(1u128 << base_log.min(127));
        b[i] = b[i].add(&target[i].scale(m.pow(base, j as u128)));
        (a, b)
    };
    let parts = (0..plans.len())
        .map(|i| {
            let levels = gadget_levels(plans[i].modulus().value(), base_log);
            (0..levels).map(|j| part(i, j)).collect()
        })
        .collect();
    KeySwitchKey { base_log, parts }
}

/// The gadget key-switch inner product on the towers of `plans`: each
/// source tower of `src` (natural-order coefficients) decomposes into
/// digits, and `(Σ_ij d̂_ij·â_ij, Σ_ij d̂_ij·b̂_ij)` accumulates on every
/// tower — digits are `< 2^base_log`, valid in every tower without
/// conversion. Panics unless `src` has one vector per tower.
pub(crate) fn key_switch(
    plans: &[Arc<Ntt128Plan>],
    src: &[impl AsRef<[u128]>],
    ksk: &KeySwitchKey,
) -> Pair<Polynomial> {
    assert_eq!(src.len(), plans.len(), "one source vector per tower");
    let zero = |plan| lift(plan, vec![0; plans[0].degree()]).expect("length matches");
    let mut acc_a: Vec<Polynomial> = plans.iter().map(zero).collect();
    let mut acc_b = acc_a.clone();
    for (src_i, parts_i) in src.iter().zip(&ksk.parts) {
        let digits = gadget_decompose(src_i.as_ref(), ksk.base_log, parts_i.len());
        for (digit, (a_ij, b_ij)) in digits.into_iter().zip(parts_i) {
            for (k, plan) in plans.iter().enumerate() {
                let d = lift(plan, digit.clone()).expect("length matches");
                acc_a[k] = acc_a[k].add(&d.mul(&a_ij[k]));
                acc_b[k] = acc_b[k].add(&d.mul(&b_ij[k]));
            }
        }
    }
    (acc_a, acc_b)
}

/// Ciphertext×ciphertext multiplication on the towers of `plans`:
/// tensor `x = (a_x, b_x)` and `y` to
/// `(c0, c1, c2) = (b_x·b_y, a_x·b_y + b_x·a_y, a_x·a_y)`, then
/// relinearize the `s²` component `c2` with [`key_switch`].
pub(crate) fn mul(
    plans: &[Arc<Ntt128Plan>],
    rk: &KeySwitchKey,
    x: (&[Polynomial], &[Polynomial]),
    y: (&[Polynomial], &[Polynomial]),
) -> Pair<Polynomial> {
    let towers = 0..plans.len();
    let c2: Vec<Vec<u128>> = towers
        .clone()
        .map(|l| x.0[l].mul(&y.0[l]).coeffs())
        .collect();
    let (ka, kb) = key_switch(plans, &c2, rk);
    let c1 = |l: usize| x.0[l].mul(&y.1[l]).add(&x.1[l].mul(&y.0[l]));
    let a = towers.clone().map(|l| c1(l).add(&ka[l])).collect();
    let b = towers.map(|l| x.1[l].mul(&y.1[l]).add(&kb[l])).collect();
    (a, b)
}
