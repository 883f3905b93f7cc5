//! An encrypted dot product computed **fully on the simulated RPU**,
//! exercising the two operations that make realistic HE workloads
//! possible: ciphertext×ciphertext multiplication (tensor +
//! gadget-decomposed relinearization) and Galois rotation (the
//! `vgather` kernel that permutes evaluation points + the same
//! key-switch machinery).
//!
//! Two demonstrations on one encrypted sensor vector:
//!
//! 1. **Dot product via multiply** — with coefficient-encoded
//!    plaintexts, `⟨a, b⟩` appears in coefficient `n−1` of
//!    `a(x) · rev(b)(x)`, so one on-RPU `mul` of `Enc(a)` and
//!    `Enc(rev(b))` yields the encrypted inner product.
//! 2. **Rotate-and-accumulate** — `Σ_k σ_{g_k}(Enc(a))`: each rotation
//!    is the on-device permutation kernel followed by a key switch whose
//!    per-digit products spread across the cluster's lanes.
//!
//! Run with: `cargo run --release --example rotate_dot_product -- --lanes 2`

use rpu::ntt::rlwe::{RlweParams, Splitmix};
use rpu::{CodegenStyle, RlweEvaluator, Rpu};

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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = rpu::smoke_cap(2048);
    let lanes = flag("--lanes", 2);
    let t: u128 = 65537;
    let q = rpu::arith::find_ntt_prime_u128(120, 2 * n as u128).expect("prime exists");
    let params = RlweParams { n, q, t };
    println!("ring degree n = {n}, q ~ 2^120, t = {t}, {lanes} lane(s)");

    let rpu = Rpu::builder().lanes(lanes).build()?;
    let mut eval = RlweEvaluator::new(&rpu, params, CodegenStyle::Optimized)?;
    let mut rng = Splitmix::new(0xD07);
    eval.keygen(&mut rng)?;
    eval.relin_keygen(&mut rng)?;
    let steps = [1usize, 2, 3];
    let mut rot_elems = 0;
    for &k in &steps {
        let g = eval.rotation_keygen(k, &mut rng)?;
        rot_elems = eval
            .galois_key(g)
            .expect("just generated")
            .resident_elements();
    }
    let relin_elems = eval
        .relin_key()
        .expect("just generated")
        .resident_elements();
    println!(
        "key material resident: relin {relin_elems} elements + {} rotation keys ({rot_elems} elements each)",
        steps.len(),
    );

    // Two "sensor" vectors with small readings.
    let a: Vec<u128> = (0..n as u128).map(|i| (i * 7 + 3) % 8).collect();
    let b: Vec<u128> = (0..n as u128).map(|i| (i * 5 + 1) % 8).collect();
    let b_rev: Vec<u128> = b.iter().rev().copied().collect();

    // --- 1. encrypted dot product ---------------------------------
    let ct_a = eval.encrypt(&a, &mut rng)?;
    let ct_b = eval.encrypt(&b_rev, &mut rng)?;
    let prod = eval.mul(&ct_a, &ct_b)?;
    let decrypted = eval.decrypt(&prod)?;
    let expect: u128 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum::<u128>() % t;
    assert_eq!(decrypted[n - 1], expect, "coefficient n-1 is <a, b>");
    println!(
        "encrypted dot product: <a, b> = {} (verified)",
        decrypted[n - 1]
    );

    // --- 2. rotate-and-accumulate ---------------------------------
    // acc_{k+1} = acc_k + σ_{g_k}(acc_k), starting from Enc(a).
    let mut acc = ct_a;
    let mut acc_owned = false; // acc aliases ct_a until the first sum
    let mut expect_acc: Vec<u128> = a.iter().map(|&v| v % t).collect();
    for &k in &steps {
        let rotated = eval.rotate(&acc, k)?;
        let sum = eval.add(&acc, &rotated)?;
        // host-side expectation: acc + sigma_g(acc) mod (x^n + 1, t)
        let g = eval.context().galois_element(k);
        let rot_ref = eval.context().rotate_plaintext(&expect_acc, g)?;
        expect_acc = expect_acc
            .iter()
            .zip(&rot_ref)
            .map(|(&x, &y)| (x + y) % t)
            .collect();
        if acc_owned {
            eval.free_ciphertext(acc)?;
        }
        eval.free_ciphertext(rotated)?;
        acc = sum;
        acc_owned = true;
    }
    assert_eq!(eval.decrypt(&acc)?, expect_acc);
    println!("rotate-and-accumulate over steps {steps:?} verified after on-RPU decryption");

    // --- accounting -----------------------------------------------
    let cluster = eval.cluster();
    let dispatches = cluster.total_dispatches();
    let us = cluster.total_busy_us();
    let makespan = cluster.makespan_us();
    println!(
        "\nworkload traffic: {dispatches} kernel dispatches, {us:.2} us simulated RPU time;\n\
         {lanes}-lane makespan: {makespan:.2} us ({:.2}x overlap)",
        us / makespan,
    );
    Ok(())
}
