//! The two host oracles are one scheme: on a one-prime chain,
//! `LeveledContext` and `RlweContext` driven from the same seed draw
//! the same randomness stream and agree bit for bit. Every device front
//! end pins its bit-exactness to one of the two, so this is what keeps
//! those pins comparable. Both faces also answer bad caller input with
//! a typed error, never a panic.

use rpu_arith::ChainError;
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
    assert_eq!(sk_l.s_coeffs(0), sk_r.s_coeffs(), "secret key");
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
