//! The host has one scheme and one context: on a one-prime chain,
//! `LeveledContext::generate` and `RlweContext::new` driven from the
//! same seed draw the same randomness stream and agree bit for bit.
//! Every device front end pins its bit-exactness to this context, so
//! this is what keeps those pins comparable. Both constructors also
//! answer bad caller input with a typed error, never a panic; decoding
//! is one formula for any modulus, and only rescale asks for
//! `q ≡ 1 (mod t)`.

use proptest::prelude::*;
use rpu_arith::{find_congruent_prime_chain, ChainError, ModulusChain};
use rpu_ntt::leveled::{LeveledContext, LeveledError};
use rpu_ntt::rlwe::{RlweContext, RlweParams, Splitmix};
use rpu_ntt::NttError;

const N: usize = 64;
const T: u128 = 257;

fn one_prime_chain() -> LeveledContext {
    LeveledContext::generate(N, T, 59, 1).expect("a 59-bit prime ≡ 1 mod 2n·t exists")
}

#[test]
fn one_tower_chain_and_single_modulus_context_agree_bit_for_bit() {
    let lv = one_prime_chain();
    let q = lv.chain().prime(0);
    let rl = RlweContext::new(RlweParams { n: N, q, t: T }).expect("the chain prime is valid");
    let (mut rng_l, mut rng_r) = (Splitmix::new(0x5EED), Splitmix::new(0x5EED));

    let (sk_l, sk_r) = (lv.keygen(&mut rng_l), rl.keygen(&mut rng_r));
    assert_eq!(sk_l.s_coeffs(0), sk_r.s_coeffs(0), "secret key");
    let (rk_l, rk_r) = (
        lv.relin_keygen(&sk_l, &mut rng_l, 16),
        rl.relin_keygen(&sk_r, &mut rng_r, 16),
    );

    let m1: Vec<u128> = (0..N as u128).map(|i| (i * 3 + 1) % 16).collect();
    let m2: Vec<u128> = (0..N as u128).map(|i| (i * 7 + 2) % 16).collect();
    let (x_l, x_r) = (
        lv.encrypt(&sk_l, &m1, &mut rng_l),
        rl.encrypt(&sk_r, &m1, &mut rng_r),
    );
    let (y_l, y_r) = (
        lv.encrypt(&sk_l, &m2, &mut rng_l),
        rl.encrypt(&sk_r, &m2, &mut rng_r),
    );
    for (l, r) in [(&x_l, &x_r), (&y_l, &y_r)] {
        assert_eq!(l.level(), 0);
        assert_eq!(l.a_towers()[0].values(), r.a().values(), "fresh mask");
        assert_eq!(l.b_towers()[0].values(), r.b().values(), "fresh payload");
    }

    // The relin keys are compared through the product they yield.
    let (p_l, p_r) = (lv.mul(&rk_l, &x_l, &y_l), rl.mul(&rk_r, &x_r, &y_r));
    assert_eq!(p_l.a_towers()[0].values(), p_r.a().values(), "mul mask");
    assert_eq!(p_l.b_towers()[0].values(), p_r.b().values(), "mul payload");

    let plain = rl.decrypt(&sk_r, &p_r);
    assert_eq!(lv.decrypt(&sk_l, &p_l), plain);
    assert!(plain.iter().any(|&c| c != 0), "a product worth comparing");
    assert_eq!(rng_l.next_u64(), rng_r.next_u64(), "streams stay in step");
}

fn generate_err(n: usize, t: u128, bits: u32) -> LeveledError {
    LeveledContext::generate(n, t, bits, 2).unwrap_err()
}

#[test]
fn both_faces_reject_a_bad_degree_with_a_typed_error() {
    let q = one_prime_chain().chain().prime(0);
    for n in [0, 1, 1000] {
        let bad_n = NttError::InvalidDegree(n);
        assert_eq!(
            RlweContext::new(RlweParams { n, q, t: T }).unwrap_err(),
            bad_n
        );
        assert_eq!(generate_err(n, T, 55), bad_n.into());
    }
}

#[test]
fn both_faces_reject_a_bad_plaintext_modulus_with_a_typed_error() {
    let q = one_prime_chain().chain().prime(0);
    for t in [0, 1] {
        let single = RlweContext::new(RlweParams { n: N, q, t }).unwrap_err();
        assert_eq!(single, NttError::InvalidModulus);
        assert_eq!(
            generate_err(N, t, 55),
            ChainError::BadPlaintextModulus(t).into()
        );
    }
}

#[test]
fn generate_rejects_an_unsearchable_width_with_a_typed_error() {
    for bits in [0, 128] {
        let (wanted, found) = (2, 0);
        let none = ChainError::TooFewPrimes { wanted, found };
        assert_eq!(generate_err(N, T, bits), none.into(), "bits = {bits}");
    }
}

/// Two 59-bit primes `≡ 1 (mod 2n)` and `≢ 1 (mod t)`: what a
/// single-modulus RLWE context is built over.
fn rlwe_style_primes() -> Vec<u128> {
    let candidates = find_congruent_prime_chain(59, 2 * N as u128, 8).into_iter();
    let primes: Vec<u128> = candidates.filter(|&q| q % T != 1).take(2).collect();
    assert_eq!(primes.len(), 2, "{primes:?}");
    primes
}

#[test]
fn a_chain_of_rlwe_primes_decrypts_but_its_rescale_is_refused_with_a_typed_error() {
    let primes = rlwe_style_primes();
    let chain = ModulusChain::new(primes.clone(), T).expect("any primes above t chain");
    let ctx = LeveledContext::from_chain(N, chain).expect("NTT primes for 2n");
    let mut rng = Splitmix::new(0xC4A1);
    let sk = ctx.keygen(&mut rng);
    let m: Vec<u128> = (0..N as u128).map(|i| (i * 5 + 3) % T).collect();
    let ct = ctx.encrypt(&sk, &m, &mut rng);
    // Q mod t ≠ 1 on both levels: the sign correction is Q's, not −1.
    assert_eq!(ctx.decrypt(&sk, &ct), m, "two towers");
    assert_eq!(ctx.decrypt(&sk, &ctx.mod_drop(&ct, 0).unwrap()), m, "one");
    let refused = LeveledError::Chain(ChainError::NotCongruentToOneModT {
        prime: primes[1],
        t: T,
    });
    assert_eq!(ctx.rescale(&ct).unwrap_err(), refused);
    assert_eq!(ctx.check_rescale(1), Err(refused));
    let one = ctx.mod_drop(&ct, 0).unwrap();
    assert_eq!(ctx.rescale(&one).unwrap_err(), LeveledError::BottomLevel);
}

/// `decode_noisy` as it stood for a single modulus `q`: a coefficient
/// above `q/2` is the negative value `c − q`.
fn single_modulus_decode(q: u128, t: u128, c: u128) -> u128 {
    if c > q / 2 {
        ((c % t) + (t - q % t) % t) % t
    } else {
        c % t
    }
}

/// `N` phase values below `q`: the boundary cases first, then draws.
fn phases(q: u128, seed: u64) -> Vec<u128> {
    let mut rng = Splitmix::new(seed);
    let edges = [0, q / 2, q / 2 + 1, q - 1];
    let draws = (edges.len()..N).map(|_| rng.below(q));
    edges.into_iter().chain(draws).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One decode for every context: on one tower it is the old
    /// single-modulus formula whether or not `q ≡ 1 (mod t)`; on two
    /// towers, the same formula at `Q = q_0·q_1` applied to the value
    /// the residues encode.
    #[test]
    fn one_decode_matches_the_single_modulus_formula(seed in any::<u64>()) {
        let rlwe_q = rlwe_style_primes()[0];
        let rlwe = RlweContext::new(RlweParams { n: N, q: rlwe_q, t: T }).unwrap();
        let chain_q = one_prime_chain().chain().prime(0);
        prop_assert!(rlwe_q % T != 1 && chain_q % T == 1);
        for (ctx, q) in [(rlwe, rlwe_q), (one_prime_chain(), chain_q)] {
            let c = phases(q, seed);
            let old: Vec<u128> = c.iter().map(|&c| single_modulus_decode(q, T, c)).collect();
            prop_assert_eq!(ctx.decode_phase_towers(&[c]), old, "q = {}", q);
        }
        let primes = rlwe_style_primes();
        let big_q = primes[0] * primes[1];
        let two = LeveledContext::from_chain(N, ModulusChain::new(primes.clone(), T).unwrap());
        let x = phases(big_q, seed ^ 1);
        let towers: Vec<Vec<u128>> = primes.iter().map(|&q| x.iter().map(|v| v % q).collect()).collect();
        let old: Vec<u128> = x.iter().map(|&v| single_modulus_decode(big_q, T, v)).collect();
        prop_assert_eq!(two.unwrap().decode_phase_towers(&towers), old);
    }
}
