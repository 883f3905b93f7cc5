//! Leveled-ciphertext differential suite: the on-RPU [`LeveledEvaluator`]
//! must agree with the host oracle [`LeveledContext`] — at the *ring
//! element* level, not just after decryption — at every step of a
//! depth-3 multiply chain, on 1, 2, and 4 lanes. Both paths draw the
//! same pinned randomness streams, so every tower of every intermediate
//! ciphertext is comparable bit-for-bit.
//!
//! The property block validates the [`NoiseBudget`] tracker on the host
//! oracle across random depth-1..3 circuits: the conservative estimate
//! must dominate the measured phase magnitude after every operation,
//! and decryption must succeed whenever the tracker still predicts
//! budget.

use proptest::prelude::*;
use rpu::ntt::rlwe::Splitmix;
use rpu::ntt::testutil::schoolbook_negacyclic;
use rpu::ntt::Ciphertext;
use rpu::{
    CodegenStyle, DeviceLeveledCiphertext, LeveledContext, LeveledError, LeveledEvaluator, Rpu,
    RpuError,
};

const T: u128 = 65537;
/// Chain prime width for the device suite (4 towers ≈ a 236-bit `Q`).
const BITS: u32 = 59;
/// Gadget base for the device suite: 2 digits per 59-bit prime keeps
/// the dispatch count (and debug-mode runtime) manageable while the
/// noise analysis still clears depth 3 comfortably.
const BASE_LOG: u32 = 32;

fn message(n: usize, seed: u128) -> Vec<u128> {
    (0..n as u128).map(|i| (i * 13 + seed) % 256).collect()
}

/// Downloads the device ciphertext and asserts every tower of both
/// components equals the host ciphertext's ring elements.
fn assert_same_ring_elements(
    eval: &mut LeveledEvaluator<'_>,
    dev: &DeviceLeveledCiphertext,
    host: &Ciphertext,
    what: &str,
) {
    assert_eq!(dev.level(), host.level(), "{what}: level");
    let downloaded = eval.download_ciphertext(dev).unwrap();
    for l in 0..=host.level() {
        assert_eq!(
            downloaded.a_towers()[l].values(),
            host.a_towers()[l].values(),
            "{what}: mask tower {l}"
        );
        assert_eq!(
            downloaded.b_towers()[l].values(),
            host.b_towers()[l].values(),
            "{what}: payload tower {l}"
        );
    }
}

/// The acceptance pipeline at one lane count: a fresh → mul → rescale
/// ×3 chain over a 4-prime chain, compared tower-by-tower against the
/// host oracle after every multiply and every rescale, then decrypted
/// on both paths against the schoolbook product.
fn depth_3_chain_is_bit_exact(lanes: usize) {
    let n = rpu::smoke_cap(1024);
    let rpu = Rpu::builder().lanes(lanes).build().unwrap();
    let ctx = LeveledContext::generate(n, T, BITS, 4).unwrap();
    let host = LeveledContext::generate(n, T, BITS, 4).unwrap();
    let mut eval = LeveledEvaluator::new(&rpu, ctx, CodegenStyle::Optimized).unwrap();
    eval.set_key_base_log(BASE_LOG).unwrap();

    let mut dev_rng = Splitmix::new(0x1E7E1ED);
    let mut host_rng = Splitmix::new(0x1E7E1ED);
    let host_sk = host.keygen(&mut host_rng);
    eval.keygen(&mut dev_rng).unwrap();
    let host_rk = host.relin_keygen(&host_sk, &mut host_rng, BASE_LOG);
    eval.relin_keygen(&mut dev_rng).unwrap();

    let msgs: Vec<Vec<u128>> = (0..4).map(|s| message(n, s as u128)).collect();
    let tm = rpu::arith::Modulus128::new(T).unwrap();
    let mut expect = msgs[0].clone();
    for m in &msgs[1..] {
        expect = schoolbook_negacyclic(tm, &expect, m);
    }

    let dev_cts: Vec<DeviceLeveledCiphertext> = msgs
        .iter()
        .map(|m| eval.encrypt(m, &mut dev_rng).unwrap())
        .collect();
    let host_cts: Vec<Ciphertext> = msgs
        .iter()
        .map(|m| host.encrypt(&host_sk, m, &mut host_rng))
        .collect();
    assert_same_ring_elements(&mut eval, &dev_cts[0], &host_cts[0], "fresh encryption");

    let mut dev_acc = dev_cts[0].clone();
    let mut host_acc = host_cts[0].clone();
    for depth in 1..=3 {
        let dev_prod = eval.mul(&dev_acc, &dev_cts[depth]).unwrap();
        let host_prod = host.mul(&host_rk, &host_acc, &host_cts[depth]);
        assert_same_ring_elements(&mut eval, &dev_prod, &host_prod, "product");
        let dev_next = eval.rescale(&dev_prod).unwrap();
        let host_next = host.rescale(&host_prod).unwrap();
        assert_same_ring_elements(&mut eval, &dev_next, &host_next, "rescaled product");
        // the device tracker composes the same model as the host's
        assert!((dev_next.noise().bits() - host_next.noise().bits()).abs() < 1e-9);
        // and the measured phase magnitude stays under the bound
        let measured = eval.measure_noise(&dev_next).unwrap();
        assert!(measured <= dev_next.noise().bits(), "depth {depth}");
        eval.free_ciphertext(dev_prod).unwrap();
        if depth > 1 {
            eval.free_ciphertext(dev_acc).unwrap();
        }
        dev_acc = dev_next;
        host_acc = host_next;
    }

    assert_eq!(dev_acc.level(), 0, "3 rescales drop a 4-prime chain to 0");
    assert!(
        eval.remaining_bits(&dev_acc) > 0.0,
        "tracker must still predict success at depth 3"
    );
    assert_eq!(eval.decrypt(&dev_acc).unwrap(), expect, "lanes={lanes}");
    assert_eq!(host.decrypt(&host_sk, &host_acc), expect);
    // Keys, ciphertexts, gadget digits, rescale corrections and every
    // kernel image of a 59-bit chain fit 64 bits: no lane ever widened.
    for lane in 0..lanes {
        assert_eq!(
            eval.cluster_mut().lane_session(lane).lane_bits(),
            64,
            "lane {lane}"
        );
    }
}

#[test]
fn depth_3_chain_is_bit_exact_on_one_lane() {
    depth_3_chain_is_bit_exact(1);
}

#[test]
fn depth_3_chain_is_bit_exact_on_two_lanes() {
    depth_3_chain_is_bit_exact(2);
}

#[test]
fn depth_3_chain_is_bit_exact_on_four_lanes() {
    depth_3_chain_is_bit_exact(4);
}

#[test]
fn add_sub_and_mod_drop_align_levels_on_device() {
    let n = rpu::smoke_cap(1024);
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let ctx = LeveledContext::generate(n, T, BITS, 3).unwrap();
    let mut eval = LeveledEvaluator::new(&rpu, ctx, CodegenStyle::Optimized).unwrap();
    let mut rng = Splitmix::new(77);
    eval.keygen(&mut rng).unwrap();

    let m1 = message(n, 5);
    let m2 = message(n, 9);
    let x = eval.encrypt(&m1, &mut rng).unwrap();
    let y = eval.encrypt(&m2, &mut rng).unwrap();
    let y = eval.mod_drop(y, 1).unwrap();
    assert_eq!(y.level(), 1);

    // add auto-aligns to the shallower operand
    let sum = eval.add(&x, &y).unwrap();
    assert_eq!(sum.level(), 1);
    let expect: Vec<u128> = m1.iter().zip(&m2).map(|(&a, &b)| (a + b) % T).collect();
    assert_eq!(eval.decrypt(&sum).unwrap(), expect);

    let diff = eval.sub(&x, &y).unwrap();
    let expect: Vec<u128> = m1
        .iter()
        .zip(&m2)
        .map(|(&a, &b)| (a + T - b % T) % T)
        .collect();
    assert_eq!(eval.decrypt(&diff).unwrap(), expect);

    // mod-drop past the ciphertext's level is refused (and the
    // ciphertext consumed either way)
    assert!(matches!(eval.mod_drop(sum, 3), Err(RpuError::Leveled(_))));
    for ct in [x, y, diff] {
        eval.free_ciphertext(ct).unwrap();
    }
}

#[test]
fn rescale_is_refused_at_the_bottom_of_the_chain() {
    let n = rpu::smoke_cap(1024);
    let rpu = Rpu::builder().build().unwrap();
    let ctx = LeveledContext::generate(n, T, BITS, 2).unwrap();
    let mut eval = LeveledEvaluator::new(&rpu, ctx, CodegenStyle::Optimized).unwrap();
    let mut rng = Splitmix::new(3);
    eval.keygen(&mut rng).unwrap();
    let m = message(n, 1);
    let ct = eval.encrypt(&m, &mut rng).unwrap();
    let floor = eval.rescale(&ct).unwrap();
    assert_eq!(floor.level(), 0);
    assert_eq!(eval.decrypt(&floor).unwrap(), m, "rescale preserves m");
    assert!(matches!(eval.rescale(&floor), Err(RpuError::Leveled(_))));
    // operations without a relin key are refused with a Config error
    assert!(matches!(eval.mul(&ct, &ct), Err(RpuError::Config(_))));
}

/// A re-key that runs out of heap retires the old key on *both* sides:
/// with the host copy gone too, `relin_keygen` refuses instead of
/// uploading key material for a secret that is no longer resident.
#[test]
fn failed_rekey_leaves_no_half_key_behind() {
    let n = 1024usize;
    let rpu = Rpu::builder().device_heap_elements(16 * n).build().unwrap();
    let ctx = LeveledContext::generate(n, T, BITS, 4).unwrap();
    let mut eval = LeveledEvaluator::new(&rpu, ctx, CodegenStyle::Optimized).unwrap();
    let mut rng = Splitmix::new(0xDEAD);
    // A key uploads in evaluation form, 4n elements and no transient, so
    // with the rest of the heap full a re-key fits only if it frees the
    // live old key first.
    let keyless = eval.snapshot();
    eval.keygen(&mut rng).unwrap();
    let full = eval.cluster_mut().lane_session(0).alloc(12 * n).unwrap();
    eval.keygen(&mut rng).unwrap();
    eval.cluster_mut().free(full).unwrap();
    // So lose the resident copy instead: restore the device to before
    // the first key (the host copy stays). Then leave room for two of the
    // four towers, so the re-key uploads towers 0 and 1 before tower 2
    // fails, and must roll both back.
    eval.restore(&keyless).unwrap();
    let filler = eval.cluster_mut().lane_session(0).alloc(14 * n).unwrap();
    let before = eval.cluster().stats()[0].transfer;
    let rekey = eval.keygen(&mut rng);
    assert!(
        matches!(rekey, Err(RpuError::Buffer(_))),
        "re-key must exhaust the heap, got {rekey:?}"
    );
    let after = eval.cluster().stats()[0].transfer;
    assert_eq!(
        after.host_to_device - before.host_to_device,
        2 * n,
        "towers 0 and 1 went up first"
    );
    eval.cluster_mut().free(filler).unwrap();
    assert_eq!(
        eval.cluster_mut().lane_session(0).live_buffers(),
        0,
        "nothing stranded"
    );
    assert!(matches!(
        eval.relin_keygen(&mut rng),
        Err(RpuError::Config(_))
    ));
    assert!(matches!(
        eval.encrypt(&message(n, 2), &mut rng),
        Err(RpuError::Config(_))
    ));
    // The evaluator recovers with a fresh key.
    eval.keygen(&mut rng).unwrap();
    let msg = message(n, 3);
    let ct = eval.encrypt(&msg, &mut rng).unwrap();
    assert_eq!(eval.decrypt(&ct).unwrap(), msg);
}

/// Rotation on a depth-3 chain, before and after a rescale: the device
/// permutes every live tower and key-switches over all of them, and the
/// result equals the host oracle's ring elements and noise bound at
/// every step.
fn leveled_rotation_is_bit_exact(lanes: usize) {
    let n = rpu::smoke_cap(1024);
    let rpu = Rpu::builder().lanes(lanes).build().unwrap();
    let ctx = LeveledContext::generate(n, T, BITS, 4).unwrap();
    let host = LeveledContext::generate(n, T, BITS, 4).unwrap();
    let mut eval = LeveledEvaluator::new(&rpu, ctx, CodegenStyle::Optimized).unwrap();
    eval.set_key_base_log(BASE_LOG).unwrap();
    let (mut dev_rng, mut host_rng) = (Splitmix::new(0x207A7E), Splitmix::new(0x207A7E));
    eval.keygen(&mut dev_rng).unwrap();
    let host_sk = host.keygen(&mut host_rng);
    let g = eval.rotation_keygen(1, &mut dev_rng).unwrap();
    let host_gk = host
        .galois_keygen(&host_sk, g, &mut host_rng, BASE_LOG)
        .unwrap();
    let m = message(n, 4);
    let x = eval.encrypt(&m, &mut dev_rng).unwrap();
    let hx = host.encrypt(&host_sk, &m, &mut host_rng);

    let rotated = eval.rotate(&x, 1).unwrap();
    let host_rotated = host.apply_galois(&host_gk, &hx).unwrap();
    assert_same_ring_elements(&mut eval, &rotated, &host_rotated, "rotation at level 3");
    let rescaled = eval.rescale(&rotated).unwrap();
    let host_rescaled = host.rescale(&host_rotated).unwrap();
    let again = eval.rotate(&rescaled, 1).unwrap();
    let host_again = host.apply_galois(&host_gk, &host_rescaled).unwrap();
    assert_same_ring_elements(&mut eval, &again, &host_again, "rotation at level 2");
    assert_eq!(again.noise(), host_again.noise(), "one noise model");
    assert!(eval.measure_noise(&again).unwrap() <= again.noise().bits());

    let twice = host.rotate_plaintext(&host.rotate_plaintext(&m, g).unwrap(), g);
    assert_eq!(eval.decrypt(&again).unwrap(), twice.unwrap(), "σ_g twice");
    assert_eq!(
        host.decrypt(&host_sk, &host_again),
        eval.decrypt(&again).unwrap()
    );
    for ct in [x, rotated, rescaled, again] {
        eval.free_ciphertext(ct).unwrap();
    }
}

#[test]
fn leveled_rotation_is_bit_exact_on_one_lane() {
    leveled_rotation_is_bit_exact(1);
}

#[test]
fn leveled_rotation_is_bit_exact_on_two_lanes() {
    leveled_rotation_is_bit_exact(2);
}

/// A chain of single-modulus RLWE primes (`≡ 1 mod 2n`, `≢ 1 mod t`)
/// builds, encrypts and decrypts on the device — decoding corrects the
/// sign by `Q mod t` — but its rescale is refused with the host's typed
/// error, before any dispatch.
#[test]
fn rescale_refuses_a_dropped_prime_not_congruent_to_one_mod_t() {
    let n = rpu::smoke_cap(1024);
    let candidates = rpu::arith::find_congruent_prime_chain(BITS, 2 * n as u128, 8);
    let primes: Vec<u128> = candidates
        .into_iter()
        .filter(|&q| q % T != 1)
        .take(2)
        .collect();
    let chain = rpu::arith::ModulusChain::new(primes.clone(), T).unwrap();
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let ctx = LeveledContext::from_chain(n, chain).unwrap();
    let mut eval = LeveledEvaluator::new(&rpu, ctx, CodegenStyle::Optimized).unwrap();
    let mut rng = Splitmix::new(0x2F2);
    eval.keygen(&mut rng).unwrap();
    let m = message(n, 6);
    let ct = eval.encrypt(&m, &mut rng).unwrap();
    assert_eq!(eval.decrypt(&ct).unwrap(), m);
    let before = eval.cluster().total_dispatches();
    let refused = rpu::arith::ChainError::NotCongruentToOneModT {
        prime: primes[1],
        t: T,
    };
    assert!(matches!(
        eval.rescale(&ct),
        Err(RpuError::Leveled(LeveledError::Chain(e))) if e == refused
    ));
    assert_eq!(
        eval.cluster().total_dispatches(),
        before,
        "refused before any dispatch"
    );
    let floor = eval.mod_drop(ct, 0).unwrap();
    assert_eq!(
        eval.decrypt(&floor).unwrap(),
        m,
        "mod-drop needs no congruence"
    );
    eval.free_ciphertext(floor).unwrap();
}

// ---------------------------------------------------------------------
// Satellite: noise-budget tracker properties on the host oracle
// ---------------------------------------------------------------------

/// One random homomorphic op for the tracker property: multiply by a
/// fresh ciphertext (with or without the following rescale), or
/// add/subtract a fresh ciphertext.
#[derive(Debug, Clone, Copy)]
enum CircuitOp {
    MulRescale,
    Mul,
    Add,
    Sub,
}

fn op_strategy() -> impl Strategy<Value = CircuitOp> {
    prop_oneof![
        Just(CircuitOp::MulRescale),
        Just(CircuitOp::Mul),
        Just(CircuitOp::Add),
        Just(CircuitOp::Sub),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Across random depth-1..3 circuits: (1) the tracker's estimate
    /// dominates the measured phase magnitude after every operation,
    /// and (2) decryption is correct whenever the tracker still
    /// predicts remaining budget — i.e. decryption fails only when the
    /// tracker predicted exhaustion first.
    #[test]
    fn noise_tracker_is_conservative_and_predictive(
        ops in prop::collection::vec(op_strategy(), 1..4),
        seed in any::<u64>(),
    ) {
        let n = 64usize;
        let ctx = LeveledContext::generate(n, T, 50, 3).unwrap();
        let mut rng = Splitmix::new(seed);
        let sk = ctx.keygen(&mut rng);
        let rk = ctx.relin_keygen(&sk, &mut rng, 16);
        let tm = rpu::arith::Modulus128::new(T).unwrap();

        let m0: Vec<u128> = (0..n as u128).map(|i| (i * 7 + 1) % 64).collect();
        let mut expect = m0.clone();
        let mut ct = ctx.encrypt(&sk, &m0, &mut rng);
        prop_assert!(ctx.measure_noise(&sk, &ct) <= ct.noise().bits());

        for (step, op) in ops.into_iter().enumerate() {
            let mf: Vec<u128> =
                (0..n as u128).map(|i| (i * 3 + step as u128 + 2) % 64).collect();
            let fresh = ctx.encrypt(&sk, &mf, &mut rng);
            ct = match op {
                CircuitOp::MulRescale => {
                    let p = ctx.mul(&rk, &ct, &fresh);
                    expect = schoolbook_negacyclic(tm, &expect, &mf);
                    if p.level() > 0 { ctx.rescale(&p).unwrap() } else { p }
                }
                CircuitOp::Mul => {
                    expect = schoolbook_negacyclic(tm, &expect, &mf);
                    ctx.mul(&rk, &ct, &fresh)
                }
                CircuitOp::Add => {
                    expect = expect.iter().zip(&mf).map(|(&a, &b)| (a + b) % T).collect();
                    ctx.add(&ct, &fresh)
                }
                CircuitOp::Sub => {
                    expect = expect
                        .iter()
                        .zip(&mf)
                        .map(|(&a, &b)| (a + T - b) % T)
                        .collect();
                    ctx.sub(&ct, &fresh)
                }
            };
            // (1) conservative: measured never exceeds the estimate
            prop_assert!(
                ctx.measure_noise(&sk, &ct) <= ct.noise().bits(),
                "step {step}: measured noise above the tracked bound"
            );
            // (2) predictive: while the tracker sees budget, decryption
            // must be exact
            let log2_q = ctx.chain().log2_q(ct.level());
            if !ct.noise().is_exhausted(log2_q) {
                prop_assert_eq!(
                    ctx.decrypt(&sk, &ct),
                    expect.clone(),
                    "step {}: tracker predicted budget but decryption failed",
                    step
                );
            }
        }
    }
}
