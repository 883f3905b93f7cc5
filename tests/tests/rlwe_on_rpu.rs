//! `RlweEvaluator` integration tests: ciphertext pipelines dispatched
//! over device-resident buffers must agree with the host-side
//! [`rpu::ntt::rlwe::RlweContext`] reference — exactly, not just after
//! decryption, because both paths draw the same randomness stream.

use rpu::ntt::rlwe::{RlweContext, RlweParams, Splitmix};
use rpu::ntt::testutil::{schoolbook_negacyclic, test_vector};
use rpu::{
    CodegenStyle, ConvolutionSpec, Direction, KernelOp, RingTraceSink, RlweEvaluator, Rpu, RpuError,
};
use std::sync::Arc;

const N: usize = 1024;
const T: u128 = 65537;

fn params(rpu: &Rpu) -> RlweParams {
    let q = rpu.session().primes_for(N).expect("prime exists");
    RlweParams { n: N, q, t: T }
}

fn message(seed: u128) -> Vec<u128> {
    (0..N as u128).map(|i| (i * 31 + seed) % 1000).collect()
}

#[test]
fn encrypt_decrypt_round_trip_on_rpu() {
    let rpu = Rpu::builder().build().unwrap();
    let mut eval = RlweEvaluator::new(&rpu, params(&rpu), CodegenStyle::Optimized).unwrap();
    let mut rng = Splitmix::new(0xB512);
    eval.keygen(&mut rng).unwrap();
    let msg = message(1);
    let ct = eval.encrypt(&msg, &mut rng).unwrap();
    assert_eq!(eval.decrypt(&ct).unwrap(), msg);
}

#[test]
fn device_ciphertext_equals_host_ciphertext() {
    // Same seed through the evaluator and the host context: the
    // on-device ciphertext must be the *same ring elements*, and the
    // host key must decrypt what the device encrypted.
    let rpu = Rpu::builder().build().unwrap();
    let p = params(&rpu);
    let mut eval = RlweEvaluator::new(&rpu, p, CodegenStyle::Optimized).unwrap();
    let host = RlweContext::new(p).unwrap();

    let mut dev_rng = Splitmix::new(42);
    let mut host_rng = Splitmix::new(42);
    let sk = eval.keygen(&mut dev_rng).unwrap();
    let host_sk = host.keygen(&mut host_rng);
    let msg = message(7);
    let dev_ct = eval.encrypt(&msg, &mut dev_rng).unwrap();
    let host_ct = host.encrypt(&host_sk, &msg, &mut host_rng);

    let downloaded = eval.download_ciphertext(&dev_ct).unwrap();
    assert_eq!(downloaded.a().values(), host_ct.a().values());
    assert_eq!(downloaded.b().values(), host_ct.b().values());
    // cross decryption: host key opens the device ciphertext
    assert_eq!(host.decrypt(&sk, &downloaded), msg);
}

#[test]
fn a_two_lane_encrypt_transforms_its_mask_once() {
    // Under the two-lane component placement the payload lane (1)
    // transforms mask and payload and forms b̂ = â ⊙ ŝ ⊕ p̂; the mask
    // lane (0) receives â over the host link rather than transforming
    // the mask a second time, and runs nothing.
    let sink = Arc::new(RingTraceSink::new(1 << 10));
    let rpu = Rpu::builder().lanes(2).trace(sink.clone()).build().unwrap();
    let p = params(&rpu);
    let mut eval = RlweEvaluator::new(&rpu, p, CodegenStyle::Optimized).unwrap();
    let host = RlweContext::new(p).unwrap();
    let (mut dev_rng, mut host_rng) = (Splitmix::new(0xE4C), Splitmix::new(0xE4C));
    eval.keygen(&mut dev_rng).unwrap();
    let host_sk = host.keygen(&mut host_rng);
    let msg = message(9);

    sink.clear();
    let before = eval.cluster().stats();
    let ct = eval.encrypt(&msg, &mut dev_rng).unwrap();
    let after = eval.cluster().stats();
    let lane_ops = |lane| {
        let events = sink.events().into_iter().filter(move |e| e.lane == lane);
        events
            .map(|e| (e.key.op, e.key.direction))
            .collect::<Vec<_>>()
    };
    let fwd = Direction::Forward;
    assert_eq!(
        lane_ops(1),
        [
            (KernelOp::Ntt, fwd),
            (KernelOp::Ntt, fwd),
            (KernelOp::PointwiseMul, fwd),
            (KernelOp::PointwiseAdd, fwd),
        ]
    );
    assert_eq!(lane_ops(0), []);
    // Mask and payload up to lane 1, â down from it and up to lane 0.
    let moved = |l: usize| {
        let (a, b) = (after[l].transfer, before[l].transfer);
        (
            a.host_to_device - b.host_to_device,
            a.device_to_host - b.device_to_host,
        )
    };
    assert_eq!((moved(0), moved(1)), ((N, 0), (2 * N, N)));

    let want = host.encrypt(&host_sk, &msg, &mut host_rng);
    let got = eval.download_ciphertext(&ct).unwrap();
    assert_eq!(got.a().values(), want.a().values());
    assert_eq!(got.b().values(), want.b().values());
}

#[test]
fn homomorphic_ops_match_host_reference() {
    let rpu = Rpu::builder().build().unwrap();
    let p = params(&rpu);
    let mut eval = RlweEvaluator::new(&rpu, p, CodegenStyle::Optimized).unwrap();
    let host = RlweContext::new(p).unwrap();
    let mut dev_rng = Splitmix::new(9);
    let mut host_rng = Splitmix::new(9);
    // seed-identical keys: `sk` lives in the evaluator's ring context,
    // `host_sk` in the host context; same ternary polynomial either way
    let _sk = eval.keygen(&mut dev_rng).unwrap();
    let host_sk = host.keygen(&mut host_rng);

    let m1 = message(3);
    let m2 = message(0);
    let x = eval.encrypt(&m1, &mut dev_rng).unwrap();
    let y = eval.encrypt(&m2, &mut dev_rng).unwrap();
    let hx = host.encrypt(&host_sk, &m1, &mut host_rng);
    let hy = host.encrypt(&host_sk, &m2, &mut host_rng);

    // add
    let sum = eval.add(&x, &y).unwrap();
    let host_sum = host.add(&hx, &hy);
    assert_eq!(
        eval.download_ciphertext(&sum).unwrap().b().values(),
        host_sum.b().values()
    );
    assert_eq!(
        eval.decrypt(&sum).unwrap(),
        host.decrypt(&host_sk, &host_sum),
        "on-RPU add decrypts like the host add"
    );

    // sub (m1 >= m2 slot-wise by construction)
    let diff = eval.sub(&x, &y).unwrap();
    assert_eq!(
        eval.decrypt(&diff).unwrap(),
        host.decrypt(&host_sk, &host.sub(&hx, &hy))
    );

    // mul_plain by x^1 + 2 (small coefficients)
    let mut plain = vec![0u128; N];
    plain[0] = 2;
    plain[1] = 1;
    let prod = eval.mul_plain(&x, &plain).unwrap();
    let host_prod = host.mul_plain(&hx, &plain);
    assert_eq!(
        eval.decrypt(&prod).unwrap(),
        host.decrypt(&host_sk, &host_prod),
        "on-RPU mul_plain decrypts like the host mul_plain"
    );

    // freeing resident ciphertexts releases the heap
    for ct in [x, y, sum, diff, prod] {
        eval.free_ciphertext(ct).unwrap();
    }
}

#[test]
fn ciphertext_mult_dataflow_matches_schoolbook() {
    // The fused convolution dispatch over resident coefficient buffers
    // — the polynomial product inside a ciphertext-ciphertext multiply.
    let rpu = Rpu::builder().build().unwrap();
    let p = params(&rpu);
    let mut eval = RlweEvaluator::new(&rpu, p, CodegenStyle::Optimized).unwrap();
    let a = test_vector(N, p.q, 5);
    let b = test_vector(N, p.q, 6);
    let w = eval.cluster_mut().lane_session(0);
    let conv = (w.compile(&ConvolutionSpec::new(N, p.q, CodegenStyle::Optimized))).unwrap();
    let (da, db, dc) = (
        w.upload(&a).unwrap(),
        w.upload(&b).unwrap(),
        w.alloc(N).unwrap(),
    );
    w.dispatch(&conv, &[da, db], &[dc]).unwrap();
    let got = w.download(&dc).unwrap();
    let m = rpu::arith::Modulus128::new(p.q).unwrap();
    assert_eq!(got, schoolbook_negacyclic(m, &a, &b));
}

#[test]
fn rekeying_replaces_the_resident_key_on_any_lane_count() {
    // Regression: on a single lane both key slots hold the *same*
    // resident buffer; a second keygen must free it once, not twice.
    for lanes in [1usize, 2] {
        let rpu = Rpu::builder().lanes(lanes).build().unwrap();
        let mut eval = RlweEvaluator::new(&rpu, params(&rpu), CodegenStyle::Optimized).unwrap();
        let mut rng = Splitmix::new(0xD00D);
        eval.keygen(&mut rng).unwrap();
        eval.keygen(&mut rng).unwrap(); // re-key: frees the old key cleanly
        let msg = message(4);
        let ct = eval.encrypt(&msg, &mut rng).unwrap();
        assert_eq!(
            eval.decrypt(&ct).unwrap(),
            msg,
            "the new key must decrypt ({lanes} lane(s))"
        );
    }
}

#[test]
fn evaluator_requires_keygen_and_compiles_each_shape_once() {
    let rpu = Rpu::builder().build().unwrap();
    let p = params(&rpu);
    let mut eval = RlweEvaluator::new(&rpu, p, CodegenStyle::Optimized).unwrap();
    let mut rng = Splitmix::new(1);
    assert!(matches!(
        eval.encrypt(&message(0), &mut rng),
        Err(RpuError::Config(_))
    ));
    eval.keygen(&mut rng).unwrap();
    let ct1 = eval.encrypt(&message(1), &mut rng).unwrap();
    let ct2 = eval.encrypt(&message(2), &mut rng).unwrap();
    let _ = eval.add(&ct1, &ct2).unwrap();
    let stats = eval.cluster_mut().lane_session(0).cache_stats();
    assert_eq!(
        stats.misses, 6,
        "six kernel shapes compiled at construction, never again"
    );
    assert_eq!(stats.entries, 6);
}
