//! A depth-3 **leveled** encrypted-inference pipeline run fully on the
//! simulated RPU: an encrypted dot product (weights × features), a bias
//! add, and a squared activation, over a 4-prime RNS modulus chain with
//! an on-device rescale after every multiplication.
//!
//! The circuit (all ciphertext-side, coefficient encoding):
//!
//! ```text
//! score  = <w, x>          depth 1: mul + rescale   (level 3 → 2)
//! pre    = score · scale   depth 2: mul + rescale   (level 2 → 1)
//! act    = (pre + bias)^2  depth 3: add, mul + rescale (level 1 → 0)
//! ```
//!
//! Every ciphertext carries a [`rpu::NoiseBudget`] tracker; the example
//! prints the predicted bound next to the *measured* phase magnitude at
//! each level so the conservative margin is visible, and cross-checks
//! the device against the host oracle [`rpu::LeveledContext`] — the two
//! paths share randomness streams, so the comparison is bit-exact on
//! the ring elements, not just the decrypted plaintext.
//!
//! Run with: `cargo run --release --example encrypted_inference -- --lanes 2`
//!
//! With `--snapshot-roundtrip`, the pipeline also takes a `SNAP_V1`
//! device snapshot mid-pipeline (after the depth-2 multiply), finishes
//! normally, then restores the snapshot and replays the remaining
//! steps — asserting the resumed run reproduces the same final
//! ciphertext towers and decryption bit-for-bit.

use rpu::ntt::rlwe::Splitmix;
use rpu::ntt::testutil::schoolbook_negacyclic;
use rpu::{CodegenStyle, LeveledContext, LeveledEvaluator, Rpu};

fn flag(name: &str, default: usize) -> usize {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == name {
            return args
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a positive integer"));
        }
    }
    default
}

fn has_flag(name: &str) -> bool {
    std::env::args().any(|arg| arg == name)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = rpu::smoke_cap(1024);
    let lanes = flag("--lanes", 2);
    let t: u128 = 65537;
    let levels = 4; // 4 primes => three rescales => multiplicative depth 3
    let ctx = LeveledContext::generate(n, t, 59, levels)?;
    let host = LeveledContext::generate(n, t, 59, levels)?;
    println!(
        "ring degree n = {n}, t = {t}, chain of {levels} x 59-bit primes (log2 Q = {:.0}), {lanes} lane(s)",
        ctx.chain().log2_q(levels - 1),
    );

    let rpu = Rpu::builder().lanes(lanes).build()?;
    let mut eval = LeveledEvaluator::new(&rpu, ctx, CodegenStyle::Optimized)?;
    eval.set_key_base_log(32)?;
    let mut rng = Splitmix::new(0x1F);
    let mut host_rng = Splitmix::new(0x1F);
    eval.keygen(&mut rng)?;
    let sk = host.keygen(&mut host_rng);
    eval.relin_keygen(&mut rng)?;
    let rk = host.relin_keygen(&sk, &mut host_rng, eval.key_base_log());
    let relin_elems = eval
        .relin_key()
        .expect("just generated")
        .resident_elements();
    println!("key material resident: relinearization key, {relin_elems} elements across the chain");

    // The "model" and the encrypted input: small weights and readings,
    // coefficient-encoded so <w, x> lands in coefficient n-1 of
    // w(x) * rev(x)(x).
    let weights: Vec<u128> = (0..n as u128).map(|i| (i * 7 + 3) % 8).collect();
    let features: Vec<u128> = (0..n as u128).map(|i| (i * 5 + 1) % 8).collect();
    let features_rev: Vec<u128> = features.iter().rev().copied().collect();
    let scale: Vec<u128> = {
        let mut s = vec![0u128; n];
        s[0] = 3; // multiply-by-constant as a ciphertext for full depth
        s
    };
    let bias: Vec<u128> = (0..n as u128).map(|i| (i * 11 + 5) % 16).collect();

    let tm = rpu::arith::Modulus128::new(t).expect("t is odd and > 1");
    let mut expect = schoolbook_negacyclic(tm, &weights, &features_rev);
    expect = schoolbook_negacyclic(tm, &expect, &scale);
    expect = expect
        .iter()
        .zip(&bias)
        .map(|(&a, &b)| (a + b) % t)
        .collect();
    expect = schoolbook_negacyclic(tm, &expect.clone(), &expect);

    // Encrypt everything on the device and mirror on the host oracle
    // (same randomness stream => identical ring elements).
    let ct_w = eval.encrypt(&weights, &mut rng)?;
    let ct_x = eval.encrypt(&features_rev, &mut rng)?;
    let ct_s = eval.encrypt(&scale, &mut rng)?;
    let ct_b = eval.encrypt(&bias, &mut rng)?;
    let h_w = host.encrypt(&sk, &weights, &mut host_rng);
    let h_x = host.encrypt(&sk, &features_rev, &mut host_rng);
    let h_s = host.encrypt(&sk, &scale, &mut host_rng);
    let h_b = host.encrypt(&sk, &bias, &mut host_rng);

    let report = |eval: &mut LeveledEvaluator,
                  ct: &rpu::DeviceLeveledCiphertext,
                  what: &str|
     -> Result<(), rpu::RpuError> {
        let measured = eval.measure_noise(ct)?;
        println!(
            "  {what}: level {}, noise bound {:6.1} bits (measured {measured:5.1}), {:5.1} bits of budget left",
            ct.level(),
            ct.noise().bits(),
            eval.remaining_bits(ct),
        );
        Ok(())
    };

    println!("\nencrypted inference pipeline:");
    report(&mut eval, &ct_w, "fresh encryption ")?;

    // depth 1: score = <w, x>
    let score = eval.mul_rescale(&ct_w, &ct_x)?;
    let h_score = host.rescale(&host.mul(&rk, &h_w, &h_x))?;
    report(&mut eval, &score, "score = <w, x>   ")?;

    // depth 2: pre = score * scale
    let pre = eval.mul_rescale(&score, &ct_s)?;
    let h_pre = host.rescale(&host.mul(&rk, &h_score, &h_s))?;
    report(&mut eval, &pre, "pre = score*scale")?;

    // Optionally capture the device mid-pipeline; the ledger is
    // resumed from these bytes after the normal run finishes.
    let snapshot = has_flag("--snapshot-roundtrip").then(|| {
        let bytes = eval.snapshot();
        println!("  [snapshot] captured {} bytes after depth 2", bytes.len());
        bytes
    });

    // bias add: level alignment is automatic (bias is still at level 3)
    let shifted = eval.add(&pre, &ct_b)?;
    let h_shifted = host.add(&h_pre, &host.mod_drop(&h_b, h_pre.level())?);
    report(&mut eval, &shifted, "pre + bias       ")?;

    // depth 3: squared activation
    let act = eval.mul_rescale(&shifted, &shifted)?;
    let h_act = host.rescale(&host.mul(&rk, &h_shifted, &h_shifted))?;
    report(&mut eval, &act, "act = (pre+b)^2  ")?;
    assert_eq!(act.level(), 0, "three rescales exhaust a 4-prime chain");

    // Bit-exact cross-check against the host oracle on the final ring
    // elements, then decrypt on both paths.
    let downloaded = eval.download_ciphertext(&act)?;
    assert_eq!(
        downloaded.a_towers()[0].values(),
        h_act.a_towers()[0].values(),
        "device and host mask towers must agree bit-for-bit"
    );
    assert_eq!(
        downloaded.b_towers()[0].values(),
        h_act.b_towers()[0].values(),
        "device and host payload towers must agree bit-for-bit"
    );
    let decrypted = eval.decrypt(&act)?;
    assert_eq!(decrypted, host.decrypt(&sk, &h_act));
    assert_eq!(decrypted, expect, "pipeline output mod t");
    let dot: u128 = weights
        .iter()
        .zip(&features)
        .map(|(&w, &x)| w * x)
        .sum::<u128>()
        % t;
    println!(
        "\ndevice output bit-exact vs host oracle at level 0; raw <w, x> = {dot}, activation coefficient n-1 = {}",
        decrypted[n - 1]
    );

    // Resume from the mid-pipeline snapshot and replay the remaining
    // steps: the restored device must land on the exact same ledger.
    if let Some(bytes) = snapshot {
        eval.restore(&bytes)?;
        let shifted2 = eval.add(&pre, &ct_b)?;
        let act2 = eval.mul_rescale(&shifted2, &shifted2)?;
        let resumed = eval.download_ciphertext(&act2)?;
        assert_eq!(
            resumed.a_towers()[0].values(),
            downloaded.a_towers()[0].values(),
            "resumed mask tower must match the uninterrupted run"
        );
        assert_eq!(
            resumed.b_towers()[0].values(),
            downloaded.b_towers()[0].values(),
            "resumed payload tower must match the uninterrupted run"
        );
        assert_eq!(
            eval.decrypt(&act2)?,
            decrypted,
            "resumed decryption must match the uninterrupted run"
        );
        println!("  [snapshot] restored and resumed: final towers and decryption bit-exact");
    }

    // --- accounting -----------------------------------------------
    let cluster = eval.cluster();
    let dispatches = cluster.total_dispatches();
    let us = cluster.total_busy_us();
    let makespan = cluster.makespan_us();
    println!(
        "workload traffic: {dispatches} kernel dispatches, {us:.2} us simulated RPU time;\n\
         {lanes}-lane makespan: {makespan:.2} us ({:.2}x overlap)",
        us / makespan,
    );
    Ok(())
}
