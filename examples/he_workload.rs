//! An end-to-end homomorphic-encryption workload (the application class
//! that motivates the RPU): encrypt sensor readings under a symmetric
//! RLWE key, compute an encrypted weighted sum, and decrypt — with the
//! entire ciphertext pipeline running **on the simulated RPU** through
//! [`rpu::RlweEvaluator`]. Ciphertexts stay resident in device memory
//! between operations; the host only samples randomness, uploads
//! plaintexts, and downloads the final noisy polynomial.
//!
//! Run with: `cargo run --release --example he_workload`

use rpu::ntt::rlwe::{RlweParams, Splitmix};
use rpu::{CodegenStyle, RlweEvaluator, Rpu};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Ring parameters: n = 2048 (a realistic lattice dimension the RPU
    // kernel generator supports directly), 100-bit ciphertext modulus.
    // Smoke runs may cap this via RPU_MAX_N.
    let n = rpu::smoke_cap(2048);
    let q = rpu::arith::find_ntt_prime_u128(100, 2 * n as u128).expect("prime exists");
    let params = RlweParams { n, q, t: 65537 };

    // Two lanes: ciphertext masks live on lane 0 and payloads on lane
    // 1, so the per-component dispatches of every operation overlap.
    let rpu = Rpu::builder().lanes(2).build()?;
    let mut eval = RlweEvaluator::new(&rpu, params, CodegenStyle::Optimized)?;
    let mut rng = Splitmix::new(0xB512);
    eval.keygen(&mut rng)?;

    // Three "sensor" vectors, encrypted on-device (the mask·key product
    // and payload addition are kernel dispatches, not host math).
    let readings: Vec<Vec<u128>> = (0..3)
        .map(|s| (0..n).map(|i| ((i as u128 + 1) * (s + 1)) % 1000).collect())
        .collect();
    let cts: Vec<_> = readings
        .iter()
        .map(|r| eval.encrypt(r, &mut rng))
        .collect::<Result<_, _>>()?;
    println!(
        "encrypted {} vectors of {n} values each on-RPU (q ~ 2^100, t = 65537)",
        cts.len()
    );

    // Encrypted computation: weighted sum 1*x0 + 2*x1 + 3*x2, the weights
    // applied as tiny plaintext polynomials (constant term only). Every
    // operation is a chain of dispatches over resident ciphertexts.
    let weight = |w: u128| {
        let mut p = vec![0u128; n];
        p[0] = w;
        p
    };
    let w0 = eval.mul_plain(&cts[0], &weight(1))?;
    let w1 = eval.mul_plain(&cts[1], &weight(2))?;
    let w2 = eval.mul_plain(&cts[2], &weight(3))?;
    let partial = eval.add(&w0, &w1)?;
    let combined = eval.add(&partial, &w2)?;

    // Decrypt: b - a*s and the inverse NTT run on-device too; only the
    // noisy coefficient vector is downloaded for rounding.
    let decrypted = eval.decrypt(&combined)?;
    for i in [0usize, 1, 1000.min(n - 1), n - 1] {
        let expect = (readings[0][i] + 2 * readings[1][i] + 3 * readings[2][i]) % 65537;
        assert_eq!(decrypted[i], expect, "slot {i}");
    }
    println!("homomorphic weighted sum verified after on-RPU decryption");

    // Accounting: the whole workload was served by six stored kernel
    // shapes; everything after compilation is dispatch traffic over
    // resident buffers.
    let cluster = eval.cluster();
    let dispatches = cluster.total_dispatches();
    let us = cluster.total_busy_us();
    let makespan = cluster.makespan_us();
    let lane0 = eval.cluster_mut().lane_session(0);
    let stats = lane0.cache_stats();
    println!(
        "\nworkload traffic: {dispatches} kernel dispatches, {us:.2} us simulated \
         RPU time ({:.2} us per dispatch);\n\
         two-lane makespan: {makespan:.2} us ({:.2}x overlap);\n\
         kernel shapes fetched per lane: {} (session entries: {}), resident \
         elements in use on lane 0: {}",
        us / dispatches as f64,
        us / makespan,
        stats.misses,
        stats.entries,
        lane0.device_mem_in_use(),
    );
    Ok(())
}
