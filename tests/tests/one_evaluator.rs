//! The two device evaluators are one evaluator: on a one-prime chain,
//! `LeveledEvaluator` and an `RlweEvaluator` over that chain's prime,
//! driven from the same seed, hold the same secret key, encrypt to the
//! same ring elements, multiply to the same product and rotate to the
//! same rotation, word for word, at one lane and at two. The device twin of `rpu-ntt`'s
//! `one_scheme.rs`, which pins the same agreement for the host oracles.
//!
//! On one lane the two faces' placements coincide, so their `mul` must
//! also dispatch the same kernels in the same order: one body, not two
//! that happen to agree.

use rpu::ntt::rlwe::{RlweParams, Splitmix};
use rpu::{
    CodegenStyle, KernelOp, LeveledContext, LeveledEvaluator, RingTraceSink, RlweEvaluator, Rpu,
};
use std::sync::Arc;

const N: usize = 1024;
const T: u128 = 65537;
const SEED: u64 = 0x0E_E7A1;

fn message(seed: u128) -> Vec<u128> {
    (0..N as u128).map(|i| (i * 11 + seed) % 16).collect()
}

fn one_prime_chain() -> LeveledContext {
    LeveledContext::generate(N, T, 59, 1).expect("a 59-bit prime ≡ 1 mod 2n·t exists")
}

fn traced(lanes: usize) -> (Rpu, Arc<RingTraceSink>) {
    let sink = Arc::new(RingTraceSink::new(1 << 12));
    let rpu = Rpu::builder().lanes(lanes).trace(sink.clone()).build();
    (rpu.unwrap(), sink)
}

/// Lane 0's `(kernel op, modulus)` sequence since the last call.
fn lane_0_kernels(sink: &RingTraceSink) -> Vec<(KernelOp, u128)> {
    let events = sink.events().into_iter().filter(|e| e.lane == 0);
    let kernels = events.map(|e| (e.key.op, e.key.q)).collect();
    sink.clear();
    kernels
}

fn both_faces_agree(lanes: usize) {
    let q = one_prime_chain().chain().prime(0);
    let ((rpu_l, sink_l), (rpu_r, sink_r)) = (traced(lanes), traced(lanes));
    let mut lv = LeveledEvaluator::new(&rpu_l, one_prime_chain(), CodegenStyle::Optimized).unwrap();
    let params = RlweParams { n: N, q, t: T };
    let mut rl = RlweEvaluator::new(&rpu_r, params, CodegenStyle::Optimized).unwrap();
    let (mut rng_l, mut rng_r) = (Splitmix::new(SEED), Splitmix::new(SEED));

    let (sk_l, sk_r) = (
        lv.keygen(&mut rng_l).unwrap(),
        rl.keygen(&mut rng_r).unwrap(),
    );
    assert_eq!(
        sk_l.s_coeffs(0),
        sk_r.s_coeffs(0),
        "{lanes} lanes: secret key"
    );
    lv.relin_keygen(&mut rng_l).unwrap();
    rl.relin_keygen(&mut rng_r).unwrap();
    lv.rotation_keygen(1, &mut rng_l).unwrap();
    rl.rotation_keygen(1, &mut rng_r).unwrap();

    let (m1, m2) = (message(1), message(2));
    let (x_l, x_r) = (
        lv.encrypt(&m1, &mut rng_l).unwrap(),
        rl.encrypt(&m1, &mut rng_r).unwrap(),
    );
    let (y_l, y_r) = (
        lv.encrypt(&m2, &mut rng_l).unwrap(),
        rl.encrypt(&m2, &mut rng_r).unwrap(),
    );
    lane_0_kernels(&sink_l);
    lane_0_kernels(&sink_r);
    let p_l = lv.mul(&x_l, &y_l).unwrap();
    let p_r = rl.mul(&x_r, &y_r).unwrap();
    let (mul_l, mul_r) = (lane_0_kernels(&sink_l), lane_0_kernels(&sink_r));
    assert!(mul_l.len() > 5, "{lanes} lanes: mul dispatched on lane 0");
    if lanes == 1 {
        assert_eq!(mul_l, mul_r, "one lane: both faces' mul dispatch alike");
    }
    let (rot_l, rot_r) = (lv.rotate(&x_l, 1).unwrap(), rl.rotate(&x_r, 1).unwrap());
    for (what, l, r) in [
        ("fresh x", &x_l, &x_r),
        ("fresh y", &y_l, &y_r),
        ("mul", &p_l, &p_r),
        ("rotate", &rot_l, &rot_r),
    ] {
        let (l, r) = (
            lv.download_ciphertext(l).unwrap(),
            rl.download_ciphertext(r).unwrap(),
        );
        assert_eq!(l.level(), 0);
        let mask = (l.a_towers()[0].values(), r.a().values());
        assert_eq!(mask.0, mask.1, "{lanes} lanes: {what} mask");
        let payload = (l.b_towers()[0].values(), r.b().values());
        assert_eq!(payload.0, payload.1, "{lanes} lanes: {what} payload");
    }

    let plain = rl.decrypt(&p_r).unwrap();
    assert_eq!(lv.decrypt(&p_l).unwrap(), plain, "{lanes} lanes: plaintext");
    assert!(plain.iter().any(|&c| c != 0), "a product worth comparing");
}

#[test]
fn one_prime_leveled_and_rlwe_evaluators_agree_word_for_word_on_one_lane() {
    both_faces_agree(1);
}

#[test]
fn one_prime_leveled_and_rlwe_evaluators_agree_word_for_word_on_two_lanes() {
    both_faces_agree(2);
}
