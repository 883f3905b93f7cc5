//! The RLWE scheme itself, written once over `k ≥ 1` RNS towers: every
//! operation of the one host context, [`LeveledContext`].
//!
//! The paper's ciphertext is a set of towers that operate independently
//! (Section II-A, Fig. 1), so the single-modulus scheme is the one-tower
//! case of the leveled one: [`crate::rlwe::RlweContext`] is this context
//! over a one-prime chain. A ring element is `&[Polynomial]`, one
//! evaluation-form polynomial per live tower, and a ciphertext at level
//! `l` holds `l + 1` of them per component. Keygen, sampling,
//! encryption, decryption, add/sub, plaintext multiplication,
//! key-switch keys (relinearization and Galois), the gadget key switch,
//! tensor + relinearize and Galois rotation live here, so every pinned
//! randomness stream — the order of draws an accelerator runtime
//! replays to reproduce host keys and ciphertexts bit for bit — has
//! exactly one copy. What only a chain of several primes adds (rescale,
//! mod-drop, CRT decoding, the noise tracker) is [`crate::leveled`]'s.

use crate::leveled::{LeveledContext, LeveledError, NoiseBudget};
use crate::rlwe::Splitmix;
use crate::{Ntt128Plan, NttError, Polynomial};
use rpu_arith::{gadget_decompose, gadget_levels, ModArith};
use std::sync::Arc;

/// The `(mask, payload)` halves of a pair, one entry per tower.
pub(crate) type Pair<T> = (Vec<T>, Vec<T>);

/// A secret key: one ternary polynomial, stored per tower in evaluation
/// form (the same `{-1, 0, 1}` draw reduced modulo each chain prime).
#[derive(Debug, Clone)]
pub struct SecretKey {
    s: Vec<Polynomial>,
}

impl SecretKey {
    /// Natural-order coefficients of `s mod q_l` (an inverse NTT of
    /// [`towers`](Self::towers)`()[l]`). An accelerator runtime uploads
    /// the evaluations instead, which its forward NTT would only
    /// recompute.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not a tower of the context.
    pub fn s_coeffs(&self, l: usize) -> Vec<u128> {
        self.s[l].coeffs()
    }

    /// The per-tower secret polynomials, evaluation form.
    pub fn towers(&self) -> &[Polynomial] {
        &self.s
    }
}

/// An RLWE ciphertext `(a, b)` at some level `l`: each component holds
/// `l + 1` tower polynomials (evaluation form), the phase
/// `b − a·s ≡ m + t·e (mod Q_l)`, and the tracked noise bound. A
/// one-prime context's ciphertexts are at level 0.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    pub(crate) a: Vec<Polynomial>,
    pub(crate) b: Vec<Polynomial>,
    pub(crate) noise: NoiseBudget,
}

impl Ciphertext {
    /// The ciphertext's level (`towers − 1`).
    pub fn level(&self) -> usize {
        self.a.len() - 1
    }

    /// The mask's tower 0 — the whole mask `a` of a level-0 ciphertext.
    pub fn a(&self) -> &Polynomial {
        &self.a[0]
    }

    /// The payload's tower 0 — the whole `b = a·s + t·e + m` at level 0.
    pub fn b(&self) -> &Polynomial {
        &self.b[0]
    }

    /// The mask towers `a mod q_0 ..= q_l`, evaluation form.
    pub fn a_towers(&self) -> &[Polynomial] {
        &self.a
    }

    /// The payload towers `b mod q_0 ..= q_l`, evaluation form.
    pub fn b_towers(&self) -> &[Polynomial] {
        &self.b
    }

    /// The tracked noise bound.
    pub fn noise(&self) -> NoiseBudget {
        self.noise
    }

    /// Rebuilds a ciphertext from per-tower evaluation vectors in the
    /// bit-reversed order of [`Ntt128Plan::forward`] (e.g. downloaded
    /// from an accelerator, whose Pease order is this order), tagging it
    /// with an explicit noise estimate. No transform runs.
    ///
    /// # Errors
    ///
    /// Returns [`LeveledError`] if the tower counts disagree with each
    /// other or the chain, or a vector length differs from `n`.
    pub fn from_eval_towers(
        ctx: &LeveledContext,
        a: Vec<Vec<u128>>,
        b: Vec<Vec<u128>>,
        noise: NoiseBudget,
    ) -> Result<Self, LeveledError> {
        let max = ctx.max_level();
        if a.len() != b.len() || a.is_empty() || a.len() > max + 1 {
            let requested = a.len().max(b.len()).saturating_sub(1);
            return Err(LeveledError::LevelTooHigh { requested, max });
        }
        let wrap = |(plan, v)| Polynomial::from_evaluations(plan, v);
        let wrap_all = |towers: Vec<_>| -> Result<Vec<_>, NttError> {
            ctx.plans.iter().zip(towers).map(wrap).collect()
        };
        let (a, b) = (wrap_all(a)?, wrap_all(b)?);
        Ok(Ciphertext { a, b, noise })
    }
}

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
    /// evaluation pair (bit-reversed order, as stored) — what the lane
    /// that owns tower `k` uploads as it is (its Pease order is this
    /// order) and keeps resident. No transform runs.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `k` is not a tower of this key.
    pub fn share(&self, i: usize, k: usize) -> impl Iterator<Item = (&[u128], &[u128])> + '_ {
        self.parts[i]
            .iter()
            .map(move |(a, b)| (a[k].values(), b[k].values()))
    }
}

/// A Galois key for the automorphism `σ_g: x → x^g`: a key-switch key
/// for `−σ_g(s)`, which brings a permuted ciphertext back under `s`.
/// The negation folds the rotation key switch into the same
/// accumulate-add dataflow as relinearization.
#[derive(Debug, Clone)]
pub struct GaloisKey {
    g: usize,
    ksk: KeySwitchKey,
}

impl GaloisKey {
    /// The Galois element this key switches from.
    pub fn galois_element(&self) -> usize {
        self.g
    }

    /// The underlying key-switch key.
    pub fn key_switch_key(&self) -> &KeySwitchKey {
        &self.ksk
    }
}

/// Natural-order coefficients to the evaluation form elements are kept in.
pub(crate) fn lift(plan: &Arc<Ntt128Plan>, coeffs: Vec<u128>) -> Result<Polynomial, NttError> {
    let mut p = Polynomial::from_coeffs(plan, coeffs)?;
    p.to_evaluation();
    Ok(p)
}

/// [`lift`] per tower, for vectors of length `n`.
fn lift_towers(plans: &[Arc<Ntt128Plan>], towers: Vec<Vec<u128>>) -> Vec<Polynomial> {
    let lifted = plans.iter().zip(towers).map(|(plan, c)| lift(plan, c));
    lifted.map(|p| p.expect("length matches")).collect()
}

impl LeveledContext {
    /// Samples a ternary secret key. Randomness order: `n` ternary
    /// draws, shared across towers (an accelerator replaying the stream
    /// reproduces the key bit-exactly).
    pub fn keygen(&self, rng: &mut Splitmix) -> SecretKey {
        let signs: Vec<u64> = (0..self.n).map(|_| rng.next_u64() % 3).collect();
        let reduce = |q: u128| signs.iter().map(|&v| [0, 1, q - 1][v as usize]).collect();
        let towers = self.plans.iter().map(|p| reduce(p.modulus().value()));
        SecretKey {
            s: lift_towers(&self.plans, towers.collect()),
        }
    }

    /// The randomness front half of [`encrypt`](Self::encrypt): the
    /// per-tower uniform masks and per-tower payloads `m + t·e`, as
    /// natural-order coefficient vectors. Randomness order is pinned —
    /// tower-major mask draws (`n` below `q_0`, then `n` below `q_1`,
    /// …), then `n` shared signed error draws — so an accelerator
    /// runtime replaying the stream finishes `b_l = a_l·s_l + payload_l`
    /// on-device bit-exactly.
    ///
    /// # Panics
    ///
    /// Panics if `message.len() != n`.
    pub fn sample_mask_and_payload(&self, message: &[u128], rng: &mut Splitmix) -> Pair<Vec<u128>> {
        let (n, t) = (self.n, self.chain.t());
        assert_eq!(message.len(), n, "message length must equal n");
        let moduli = || self.chain.primes().iter().copied();
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

    /// Encrypts a plaintext vector (coefficients mod `t`) at the top
    /// level as `(a, b = a·s + t·e + m)` on every tower.
    ///
    /// # Panics
    ///
    /// Panics if `message.len() != n`.
    pub fn encrypt(&self, sk: &SecretKey, message: &[u128], rng: &mut Splitmix) -> Ciphertext {
        let (masks, payloads) = self.sample_mask_and_payload(message, rng);
        let a = lift_towers(&self.plans, masks);
        let masked = a.iter().zip(&sk.s).zip(lift_towers(&self.plans, payloads));
        let b = masked.map(|((a, s), p)| a.mul(s).add(&p)).collect();
        let noise = NoiseBudget::fresh(self.chain.t());
        Ciphertext { a, b, noise }
    }

    /// Phase coefficients `b − a·s = m + t·e` on the towers `ct` has.
    pub(crate) fn phase(&self, sk: &SecretKey, ct: &Ciphertext) -> Vec<Vec<u128>> {
        let towers = ct.b.iter().zip(&ct.a).zip(&sk.s);
        towers
            .map(|((b, a), s)| b.sub(&a.mul(s)).coeffs())
            .collect()
    }

    /// Decrypts a ciphertext back to coefficients mod `t`.
    pub fn decrypt(&self, sk: &SecretKey, ct: &Ciphertext) -> Vec<u128> {
        self.decode_phase_towers(&self.phase(sk, ct))
    }

    /// Homomorphic addition with automatic level alignment: the result
    /// lives at `min(x.level, y.level)` and higher towers of the deeper
    /// operand are implicitly mod-dropped.
    pub fn add(&self, x: &Ciphertext, y: &Ciphertext) -> Ciphertext {
        Self::zip_with(x, y, Polynomial::add)
    }

    /// Homomorphic subtraction with automatic level alignment.
    pub fn sub(&self, x: &Ciphertext, y: &Ciphertext) -> Ciphertext {
        Self::zip_with(x, y, Polynomial::sub)
    }

    /// `op` per common tower and component.
    fn zip_with(
        x: &Ciphertext,
        y: &Ciphertext,
        op: fn(&Polynomial, &Polynomial) -> Polynomial,
    ) -> Ciphertext {
        let zip = |xs: &[Polynomial], ys: &[Polynomial]| {
            xs.iter().zip(ys).map(|(p, q)| op(p, q)).collect()
        };
        let noise = x.noise.after_add(y.noise);
        Ciphertext {
            a: zip(&x.a, &y.a),
            b: zip(&x.b, &y.b),
            noise,
        }
    }

    /// Multiplication by a *plaintext* polynomial with small
    /// non-negative coefficients (noise grows with their size; keep
    /// entries tiny).
    ///
    /// # Panics
    ///
    /// Panics if `plain.len() != n`.
    pub fn mul_plain(&self, x: &Ciphertext, plain: &[u128]) -> Ciphertext {
        assert_eq!(plain.len(), self.n, "plaintext length must equal n");
        let towers = vec![plain.to_vec(); x.a.len()];
        let p = lift_towers(&self.plans, towers);
        let times = |c: &[Polynomial]| c.iter().zip(&p).map(|(c, p)| c.mul(p)).collect();
        let max = plain.iter().copied().max().unwrap_or(0);
        let noise = x.noise.after_mul_plain(self.n, max);
        Ciphertext {
            a: times(&x.a),
            b: times(&x.b),
            noise,
        }
    }

    /// Generates a key-switch key for `target` (one polynomial per
    /// tower): each part is an encryption of zero with `B^j·target_i`
    /// added on the digit's own tower. Randomness order is therefore
    /// [`encrypt`](Self::encrypt)'s, per part `(i, j)`.
    fn keyswitch_keygen(
        &self,
        sk: &SecretKey,
        target: &[Polynomial],
        rng: &mut Splitmix,
        base_log: u32,
    ) -> KeySwitchKey {
        let zero = vec![0; self.n];
        let mut part = |i: usize, j: usize| {
            let m = self.chain.modulus(i);
            let Ciphertext { a, mut b, .. } = self.encrypt(sk, &zero, rng);
            let base = m.reduce(1u128 << base_log.min(127));
            b[i] = b[i].add(&target[i].scale(m.pow(base, j as u128)));
            (a, b)
        };
        let parts = (0..self.plans.len())
            .map(|i| {
                let levels = gadget_levels(self.chain.prime(i), base_log);
                (0..levels).map(|j| part(i, j)).collect()
            })
            .collect();
        KeySwitchKey { base_log, parts }
    }

    /// Generates a relinearization key: a key-switch key for `s²`, the
    /// degree-2 component a tensor ciphertext leaves behind, one source
    /// tower per chain prime.
    pub fn relin_keygen(&self, sk: &SecretKey, rng: &mut Splitmix, base_log: u32) -> KeySwitchKey {
        let s2: Vec<Polynomial> = sk.s.iter().map(|s| s.mul(s)).collect();
        self.keyswitch_keygen(sk, &s2, rng, base_log)
    }

    /// Generates a Galois key for the automorphism `x → x^g`: a
    /// key-switch key for `−σ_g(s)` (negated so rotation uses the same
    /// accumulate-add key switch as relinearization).
    ///
    /// # Errors
    ///
    /// Returns [`NttError::InvalidGaloisElement`] for even `g`.
    pub fn galois_keygen(
        &self,
        sk: &SecretKey,
        g: usize,
        rng: &mut Splitmix,
        base_log: u32,
    ) -> Result<GaloisKey, NttError> {
        let negate = |s: &Polynomial| Ok(s.automorphism(g)?.scale(s.modulus().value() - 1));
        let target =
            sk.s.iter()
                .map(negate)
                .collect::<Result<Vec<_>, NttError>>()?;
        let ksk = self.keyswitch_keygen(sk, &target, rng, base_log);
        Ok(GaloisKey {
            g: g % (2 * self.n),
            ksk,
        })
    }

    /// The Galois element realizing a rotation by `steps`
    /// ([`crate::galois_element`]: `5^steps mod 2n`).
    pub fn galois_element(&self, steps: usize) -> usize {
        crate::galois_element(self.n, steps)
    }

    /// The gadget key-switch inner product on the towers `src` spans:
    /// each source tower (natural-order coefficients) decomposes into
    /// digits, and `(Σ_ij d̂_ij·â_ij, Σ_ij d̂_ij·b̂_ij)` accumulates on
    /// every one of those towers — digits are `< 2^base_log`, valid in
    /// every tower without conversion. This is the dataflow the RPU runs
    /// as, per digit and tower, one NTT dispatch and two
    /// multiply-accumulate dispatches on its output.
    fn key_switch(&self, src: &[Vec<u128>], ksk: &KeySwitchKey) -> Pair<Polynomial> {
        let plans = &self.plans[..src.len()];
        let zero = |plan| lift(plan, vec![0; self.n]).expect("length matches");
        let mut acc_a: Vec<Polynomial> = plans.iter().map(zero).collect();
        let mut acc_b = acc_a.clone();
        for (src_i, parts_i) in src.iter().zip(&ksk.parts) {
            let digits = gadget_decompose(src_i, ksk.base_log, parts_i.len());
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

    /// Ciphertext×ciphertext multiplication at the operands' common
    /// level: per tower, tensor to
    /// `(c0, c1, c2) = (b_x·b_y, a_x·b_y + b_x·a_y, a_x·a_y)` (phase
    /// `c0 − c1·s + c2·s²`), then relinearize the `s²` component with the
    /// gadget key switch. Exact: the plaintext rides in the low residues
    /// and the noise is lifted by `t`, so the tensor needs no rounding.
    /// The result stays at the same level — follow with
    /// [`rescale`](Self::rescale) to shed the noise growth.
    pub fn mul(&self, rk: &KeySwitchKey, x: &Ciphertext, y: &Ciphertext) -> Ciphertext {
        let level = x.level().min(y.level());
        let towers = 0..=level;
        let c2: Vec<Vec<u128>> = towers
            .clone()
            .map(|l| x.a[l].mul(&y.a[l]).coeffs())
            .collect();
        let (ka, kb) = self.key_switch(&c2, rk);
        let c1 = |l: usize| x.a[l].mul(&y.b[l]).add(&x.b[l].mul(&y.a[l]));
        let a = towers.clone().map(|l| c1(l).add(&ka[l])).collect();
        let b = towers.map(|l| x.b[l].mul(&y.b[l]).add(&kb[l])).collect();
        let (parts, t) = (rk.parts_at_level(level), self.chain.t());
        let noise = x.noise.after_mul(y.noise, self.n, t, parts, rk.base_log());
        Ciphertext { a, b, noise }
    }

    /// Applies the Galois automorphism `x → x^g` homomorphically on every
    /// live tower: permutes both components (an encryption of `σ_g(m)`
    /// under `σ_g(s)`), then key-switches back to `s` using the digits of
    /// the permuted mask towers. Decrypts to `σ_g(m) mod t`.
    ///
    /// # Errors
    ///
    /// Returns [`NttError::InvalidGaloisElement`] if `gk`'s element is
    /// even.
    pub fn apply_galois(&self, gk: &GaloisKey, x: &Ciphertext) -> Result<Ciphertext, NttError> {
        let sigma = |c: &[Polynomial]| -> Result<Vec<Polynomial>, NttError> {
            c.iter().map(|p| p.automorphism(gk.g)).collect()
        };
        let (sigma_a, sigma_b) = (sigma(&x.a)?, sigma(&x.b)?);
        let src: Vec<Vec<u128>> = sigma_a.iter().map(Polynomial::coeffs).collect();
        let (a, kb) = self.key_switch(&src, &gk.ksk);
        let b = sigma_b.iter().zip(&kb).map(|(s, k)| s.add(k)).collect();
        let (ksk, t) = (&gk.ksk, self.chain.t());
        let parts = ksk.parts_at_level(x.level());
        let noise = x.noise.after_key_switch(self.n, t, parts, ksk.base_log());
        Ok(Ciphertext { a, b, noise })
    }

    /// The expected plaintext of a rotation: `σ_g(m) mod (x^n + 1, t)`
    /// — the reference tests compare decrypted rotations against.
    ///
    /// # Errors
    ///
    /// Returns [`NttError::InvalidGaloisElement`] for even `g`.
    pub fn rotate_plaintext(&self, message: &[u128], g: usize) -> Result<Vec<u128>, NttError> {
        let t = self.chain.t();
        let reduced: Vec<u128> = message.iter().map(|&v| v % t).collect();
        crate::apply_automorphism(&reduced, g, t)
    }
}
