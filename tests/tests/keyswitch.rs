//! Ciphertext×ciphertext multiplication and Galois rotation on the
//! RPU vs the host `RlweContext` reference — bit-exact, on any lane
//! count. Both paths draw the same randomness stream, so device key
//! material equals host key material and the comparison is on ring
//! elements, not just decryptions.
//!
//! Ring sizes honour `RPU_MAX_N` so the CI matrix can run the suite at
//! 1024 and 4096; the lane matrix covers 1/2/4 lanes per the
//! acceptance criteria.

use proptest::prelude::*;
use rpu::ntt::rlwe::{RlweContext, RlweParams, Splitmix};
use rpu::ntt::testutil::schoolbook_negacyclic;
use rpu::{CodegenStyle, PrimeTable, RlweEvaluator, Rpu, RpuError};

const T: u128 = 65537;

fn params(n: usize) -> RlweParams {
    let q = PrimeTable::new().ntt_prime(n).expect("prime exists");
    RlweParams { n, q, t: T }
}

fn message(n: usize, seed: u128) -> Vec<u128> {
    (0..n as u128)
        .map(|i| (i * 31 + seed * 7 + 1) % 257)
        .collect()
}

/// Builds a seed-synchronized (device evaluator, host context) pair
/// with keys, relin key, and the requested rotation keys on both sides.
fn synced<'a>(
    rpu: &'a Rpu,
    p: RlweParams,
    seed: u64,
    rotation_steps: &[usize],
) -> (
    RlweEvaluator<'a>,
    RlweContext,
    rpu::ntt::rlwe::SecretKey,
    rpu::ntt::rlwe::KeySwitchKey,
    Vec<rpu::ntt::rlwe::GaloisKey>,
    Splitmix,
    Splitmix,
) {
    let mut eval = RlweEvaluator::new(rpu, p, CodegenStyle::Optimized).unwrap();
    let host = RlweContext::new(p).unwrap();
    let mut dev_rng = Splitmix::new(seed);
    let mut host_rng = Splitmix::new(seed);
    let base_log = eval.key_base_log();
    eval.keygen(&mut dev_rng).unwrap();
    let host_sk = host.keygen(&mut host_rng);
    eval.relin_keygen(&mut dev_rng).unwrap();
    let host_rk = host.relin_keygen(&host_sk, &mut host_rng, base_log);
    let mut host_gks = Vec::new();
    for &steps in rotation_steps {
        let g = eval.rotation_keygen(steps, &mut dev_rng).unwrap();
        host_gks.push(
            host.galois_keygen(&host_sk, g, &mut host_rng, base_log)
                .unwrap(),
        );
    }
    (eval, host, host_sk, host_rk, host_gks, dev_rng, host_rng)
}

/// `mul` then `rotate` on the device equal the host reference as *ring
/// elements* (same a/b evaluations), and both decrypt to the expected
/// plaintexts — across 1, 2, and 4 lanes.
#[test]
fn mul_and_rotate_match_host_exactly_across_lane_counts() {
    let n = 1024usize;
    let p = params(n);
    for lanes in [1usize, 2, 4] {
        let rpu = Rpu::builder().lanes(lanes).build().unwrap();
        let (mut eval, host, host_sk, host_rk, host_gks, mut dev_rng, mut host_rng) =
            synced(&rpu, p, 0xB512 + lanes as u64, &[1]);

        let m1 = message(n, 3);
        let m2 = message(n, 8);
        let x = eval.encrypt(&m1, &mut dev_rng).unwrap();
        let y = eval.encrypt(&m2, &mut dev_rng).unwrap();
        let hx = host.encrypt(&host_sk, &m1, &mut host_rng);
        let hy = host.encrypt(&host_sk, &m2, &mut host_rng);

        // --- multiply ---
        let prod = eval.mul(&x, &y).unwrap();
        let host_prod = host.mul(&host_rk, &hx, &hy);
        let downloaded = eval.download_ciphertext(&prod).unwrap();
        assert_eq!(
            downloaded.a().values(),
            host_prod.a().values(),
            "{lanes} lane(s): mask of the product"
        );
        assert_eq!(
            downloaded.b().values(),
            host_prod.b().values(),
            "{lanes} lane(s): payload of the product"
        );
        let t = rpu::arith::Modulus128::new(T).unwrap();
        let expect = schoolbook_negacyclic(t, &m1, &m2);
        assert_eq!(eval.decrypt(&prod).unwrap(), expect, "{lanes} lane(s)");

        // --- rotate ---
        let g = host_gks[0].galois_element();
        let rotated = eval.rotate(&x, 1).unwrap();
        let host_rot = host.apply_galois(&host_gks[0], &hx).unwrap();
        let downloaded = eval.download_ciphertext(&rotated).unwrap();
        assert_eq!(
            downloaded.a().values(),
            host_rot.a().values(),
            "{lanes} lane(s): rotated mask"
        );
        assert_eq!(
            downloaded.b().values(),
            host_rot.b().values(),
            "{lanes} lane(s): rotated payload"
        );
        assert_eq!(
            eval.decrypt(&rotated).unwrap(),
            host.rotate_plaintext(&m1, g).unwrap(),
            "{lanes} lane(s): rotation decrypts to σ_g(m)"
        );

        for ct in [x, y, prod, rotated] {
            eval.free_ciphertext(ct).unwrap();
        }
        // A 126-bit modulus needs 128-bit lanes: every lane widened at
        // its first key upload or kernel image.
        for lane in 0..lanes {
            assert_eq!(
                eval.cluster_mut().lane_session(lane).lane_bits(),
                128,
                "lane {lane}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random messages and rotation amounts through a 2-lane evaluator:
    /// rotation decrypts to σ_g(m) and multiplication to m1·m2, always.
    #[test]
    fn random_messages_and_rotations_decrypt_correctly(
        seed in any::<u64>(),
        steps in 1usize..6,
        mseed in 0u128..1000,
    ) {
        let n = 1024usize;
        let p = params(n);
        let rpu = Rpu::builder().lanes(2).build().unwrap();
        let (mut eval, host, _sk, _rk, host_gks, mut dev_rng, _h) =
            synced(&rpu, p, seed, &[steps]);
        let g = host_gks[0].galois_element();

        let m1 = message(n, mseed);
        let m2 = message(n, mseed ^ 0x5A5A);
        let x = eval.encrypt(&m1, &mut dev_rng).unwrap();
        let y = eval.encrypt(&m2, &mut dev_rng).unwrap();

        let rotated = eval.rotate(&x, steps).unwrap();
        prop_assert_eq!(
            eval.decrypt(&rotated).unwrap(),
            host.rotate_plaintext(&m1, g).unwrap()
        );

        let prod = eval.mul(&x, &y).unwrap();
        let t = rpu::arith::Modulus128::new(T).unwrap();
        prop_assert_eq!(eval.decrypt(&prod).unwrap(), schoolbook_negacyclic(t, &m1, &m2));
    }
}

/// Multiplication composes with the existing operations: (x·y) + x and
/// rotate(x·y) both decrypt to the expected plaintexts.
#[test]
fn mul_composes_with_add_and_rotate() {
    let n = 1024usize;
    let p = params(n);
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let (mut eval, host, _sk, _rk, host_gks, mut dev_rng, _h) = synced(&rpu, p, 77, &[2]);
    let g = host_gks[0].galois_element();

    let m1 = message(n, 1);
    let m2 = message(n, 2);
    let x = eval.encrypt(&m1, &mut dev_rng).unwrap();
    let y = eval.encrypt(&m2, &mut dev_rng).unwrap();
    let prod = eval.mul(&x, &y).unwrap();

    let t = rpu::arith::Modulus128::new(T).unwrap();
    let mut prod_plus = schoolbook_negacyclic(t, &m1, &m2);

    // rotate the product
    let rotated = eval.rotate(&prod, 2).unwrap();
    assert_eq!(
        eval.decrypt(&rotated).unwrap(),
        host.rotate_plaintext(&prod_plus, g).unwrap()
    );

    // add x to the product
    let sum = eval.add(&prod, &x).unwrap();
    for (e, &m) in prod_plus.iter_mut().zip(&m1) {
        *e = (*e + m) % T;
    }
    assert_eq!(eval.decrypt(&sum).unwrap(), prod_plus);
}

/// The acceptance shape at the (possibly capped) larger ring: one
/// multiply and one rotation on 2 lanes, decrypting exactly.
#[test]
fn capped_large_ring_mul_and_rotate() {
    let n = rpu::smoke_cap(2048);
    let p = params(n);
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let (mut eval, host, _sk, _rk, host_gks, mut dev_rng, _h) = synced(&rpu, p, 5, &[1]);
    let g = host_gks[0].galois_element();

    let m1 = message(n, 9);
    let m2 = message(n, 4);
    let x = eval.encrypt(&m1, &mut dev_rng).unwrap();
    let y = eval.encrypt(&m2, &mut dev_rng).unwrap();
    let t = rpu::arith::Modulus128::new(T).unwrap();
    let prod = eval.mul(&x, &y).unwrap();
    assert_eq!(
        eval.decrypt(&prod).unwrap(),
        schoolbook_negacyclic(t, &m1, &m2)
    );
    let rotated = eval.rotate(&x, 1).unwrap();
    assert_eq!(
        eval.decrypt(&rotated).unwrap(),
        host.rotate_plaintext(&m1, g).unwrap()
    );
    // multiplication consumed nothing: operands still decrypt
    assert_eq!(eval.decrypt(&x).unwrap(), m1);
    assert_eq!(eval.decrypt(&y).unwrap(), m2);
}

/// Key discipline: mul/rotate without their keys are clean errors, and
/// a re-key invalidates old key material rather than silently using it.
#[test]
fn missing_keys_error_cleanly() {
    let n = 1024usize;
    let p = params(n);
    let rpu = Rpu::builder().build().unwrap();
    let mut eval = RlweEvaluator::new(&rpu, p, CodegenStyle::Optimized).unwrap();
    let mut rng = Splitmix::new(1);
    eval.keygen(&mut rng).unwrap();
    let m = message(n, 0);
    let x = eval.encrypt(&m, &mut rng).unwrap();
    assert!(matches!(eval.mul(&x, &x), Err(RpuError::Config(_))));
    assert!(matches!(eval.rotate(&x, 1), Err(RpuError::Config(_))));

    // generate keys, then re-key: the evaluator must drop them
    eval.relin_keygen(&mut rng).unwrap();
    eval.rotation_keygen(1, &mut rng).unwrap();
    assert!(eval.relin_key().is_some());
    let elements_with_keys = eval.relin_key().unwrap().resident_elements();
    assert!(elements_with_keys > 0);
    eval.keygen(&mut rng).unwrap();
    assert!(eval.relin_key().is_none(), "re-key must drop the relin key");
    assert!(eval.galois_key(5).is_none(), "re-key must drop Galois keys");
    let y = eval.encrypt(&m, &mut rng).unwrap();
    assert!(matches!(eval.mul(&y, &y), Err(RpuError::Config(_))));
}

/// The key-switch digit jobs really spread across lanes: on a 2-lane
/// evaluator a multiply must dispatch on both lanes beyond the
/// component split, and per-lane key material is replicated.
/// A re-key that runs out of heap retires the old key on *both* sides:
/// the host copy must not outlive the resident copy, or a following
/// `relin_keygen` would upload key material for a secret that is no
/// longer on the device.
#[test]
fn failed_rekey_leaves_no_half_key_behind() {
    let n = 1024usize;
    // Room for a relin key (2·ℓ·n = 16n), so only the key check stops it.
    let rpu = Rpu::builder()
        .lanes(2)
        .device_heap_elements(40 * n)
        .build()
        .unwrap();
    let mut eval = RlweEvaluator::new(&rpu, params(n), CodegenStyle::Optimized).unwrap();
    let mut rng = Splitmix::new(0xDEAD);
    // A key uploads in evaluation form, n elements per lane and no
    // transient, so with the rest of both heaps full a re-key fits only
    // if it frees the live old key first.
    let keyless = eval.snapshot();
    eval.keygen(&mut rng).unwrap();
    let full = [0, 1].map(|lane| eval.cluster_mut().lane_session(lane).alloc(39 * n).unwrap());
    eval.keygen(&mut rng).unwrap();
    for buf in full {
        eval.cluster_mut().free(buf).unwrap();
    }
    // So lose the resident copy instead: restore the device to before
    // the first key (the host copy stays). Then leave room for the mask
    // lane's replica only, so the re-key uploads lane 0's copy before
    // lane 1's fails, and must roll it back.
    eval.restore(&keyless).unwrap();
    let fillers = [(0, 39 * n), (1, 40 * n)]
        .map(|(lane, len)| eval.cluster_mut().lane_session(lane).alloc(len).unwrap());
    let before = eval.cluster().stats()[0].transfer;
    let rekey = eval.keygen(&mut rng);
    assert!(
        matches!(rekey, Err(RpuError::Buffer(_))),
        "re-key must exhaust the heap, got {rekey:?}"
    );
    let after = eval.cluster().stats()[0].transfer;
    assert_eq!(
        after.host_to_device - before.host_to_device,
        n,
        "lane 0's replica went up first"
    );
    for filler in fillers {
        eval.cluster_mut().free(filler).unwrap();
    }
    for lane in 0..2 {
        assert_eq!(
            eval.cluster_mut().lane_session(lane).live_buffers(),
            0,
            "nothing stranded"
        );
    }
    assert!(matches!(
        eval.relin_keygen(&mut rng),
        Err(RpuError::Config(_))
    ));
    assert!(matches!(
        eval.rotation_keygen(1, &mut rng),
        Err(RpuError::Config(_))
    ));
    assert!(matches!(
        eval.encrypt(&message(n, 1), &mut rng),
        Err(RpuError::Config(_))
    ));
    // The evaluator recovers with a fresh key.
    eval.keygen(&mut rng).unwrap();
    let msg = message(n, 2);
    let ct = eval.encrypt(&msg, &mut rng).unwrap();
    assert_eq!(eval.decrypt(&ct).unwrap(), msg);
}

#[test]
fn digit_jobs_spread_and_key_material_is_replicated() {
    let n = 1024usize;
    let p = params(n);
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let (mut eval, _host, _sk, _rk, _gks, mut dev_rng, _h) = synced(&rpu, p, 3, &[]);
    let relin = eval.relin_key().unwrap();
    let levels = relin.levels();
    // 2 components × ℓ digits × n elements × 2 lanes
    assert_eq!(relin.resident_elements(), 2 * levels * n * 2);

    let m = message(n, 6);
    let x = eval.encrypt(&m, &mut dev_rng).unwrap();
    let before: Vec<u64> = (0..2)
        .map(|l| eval.cluster().stats()[l].dispatches)
        .collect();
    let prod = eval.mul(&x, &x).unwrap();
    let after: Vec<u64> = (0..2)
        .map(|l| eval.cluster().stats()[l].dispatches)
        .collect();
    assert!(
        after.iter().zip(&before).all(|(a, b)| a > b),
        "both lanes must carry key-switch work: {before:?} -> {after:?}"
    );
    let t = rpu::arith::Modulus128::new(T).unwrap();
    assert_eq!(
        eval.decrypt(&prod).unwrap(),
        schoolbook_negacyclic(t, &m, &m)
    );
}
