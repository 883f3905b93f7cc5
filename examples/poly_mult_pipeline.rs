//! An RLWE-style workload end to end: homomorphic-multiplication-shaped
//! polynomial arithmetic where the RNS towers of a wide-coefficient
//! product run **in parallel across RPU lanes**. Each tower's residues
//! are uploaded once to whichever lane steals the job, the fused
//! convolution kernel (forward NTT ×2 → pointwise multiply → inverse
//! NTT) is dispatched over them with no host round trips, and only the
//! product comes back down for CRT recombination.
//!
//! The scenario follows Fig. 1 of the paper: a wide-coefficient
//! ciphertext polynomial is decomposed into RNS towers; "during
//! polynomial multiplication, each tower operates independently", so
//! the towers shard across the cluster's lanes and the multi-lane
//! makespan beats the sequential single-session loop.
//!
//! Run with: `cargo run --release --example poly_mult_pipeline -- --lanes 4 --towers 8`

use rpu::arith::{find_ntt_prime_chain, Modulus128, RnsBasis};
use rpu::ntt::testutil::test_vector;
use rpu::{Ntt128Plan, Rpu};

/// Parses `--lanes k` / `--towers t` from the command line.
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
    // Smoke runs may cap the ring size via RPU_MAX_N.
    let n = rpu::smoke_cap(4096);
    let lanes = flag("--lanes", 2);
    let towers = flag("--towers", 8);
    // RNS tower primes, each supporting the negacyclic NTT (q ≡ 1 mod 2n).
    let primes = find_ntt_prime_chain(120, 2 * n as u128, towers);
    assert_eq!(primes.len(), towers, "prime chain too short for {towers}");
    println!("ring degree n = {n}, {towers} RNS towers of ~120-bit primes, {lanes} lanes");

    // Two operand polynomials with wide coefficients (mod Q = q0*q1*...).
    let a_coeffs = test_vector(n, u128::MAX, 1);
    let b_coeffs = test_vector(n, u128::MAX, 2);

    // Host-side shard step: residues per tower.
    let basis = RnsBasis::new(primes.clone())?;
    let a_towers = basis.split_u128_poly(&a_coeffs);
    let b_towers = basis.split_u128_poly(&b_coeffs);

    // The cluster: `lanes` independent sessions (device heap +
    // functional simulator each, kernels from the `Rpu`'s one store)
    // behind one work-stealing scheduler. Every tower is one fused-kernel job.
    let rpu = Rpu::builder().lanes(lanes).build()?;
    let mut cluster = rpu.cluster();
    let (tower_products, report) =
        cluster.negacyclic_mul_towers(n, &primes, &a_towers, &b_towers)?;

    // Check every tower against the scalar golden model.
    for (t, &q) in primes.iter().enumerate() {
        let plan = Ntt128Plan::new(n, q)?;
        assert_eq!(
            tower_products[t],
            plan.negacyclic_mul(&a_towers[t], &b_towers[t]),
            "tower {t} mismatch"
        );
    }
    println!("all {towers} tower products verified against the host NTT reference");

    for lane in &report.per_lane {
        println!(
            "lane {}: {} towers, {} cycles, {:.2} us simulated, \
             {} elements up / {} down",
            lane.lane,
            lane.dispatches,
            lane.cycles,
            lane.busy_us,
            lane.transfer.host_to_device,
            lane.transfer.device_to_host,
        );
    }
    println!(
        "\nmakespan {:.2} us vs sequential {:.2} us -> {:.2}x simulated speedup \
         on {} of {} lanes ({:.0} us host wall clock)",
        report.makespan_us,
        report.sequential_us,
        report.speedup(),
        report.lanes_used(),
        report.lanes,
        report.wall_us,
    );

    // CRT-recombine the wide coefficients and spot-check coefficient 0
    // against schoolbook arithmetic in tower 0's residue field.
    let wide = basis.recombine_poly(&tower_products);
    println!("coefficient c[0] mod Q = {}", wide[0]);
    let m0 = Modulus128::new(primes[0]).expect("prime in range");
    let c0_mod_q0 = rpu::ntt::testutil::schoolbook_negacyclic(m0, &a_towers[0], &b_towers[0])[0];
    assert_eq!(
        wide[0].rem_u128(primes[0]),
        c0_mod_q0,
        "CRT recombination must agree with schoolbook mod q0"
    );

    let total: u64 = report.per_lane.iter().map(|l| l.dispatches).sum();
    let resident: usize = (0..report.lanes)
        .map(|l| cluster.lane_session(l).device_mem_in_use())
        .sum();
    println!(
        "\nRNS pipeline complete: {towers} towers as {total} fused dispatches, \
         resident elements left on the lanes: {resident}"
    );
    assert_eq!(resident, 0, "tower jobs free their buffers");
    Ok(())
}
