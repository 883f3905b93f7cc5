//! Cross-backend differential harness: every execution path that can
//! compute a negacyclic product must agree bit-exactly, whatever the
//! `(n, q)` shape and however the work is sharded.
//!
//! Backends compared:
//! * the fused RPU convolution kernel ([`ConvolutionSpec`], functional
//!   simulator);
//! * the host NTT polynomial library ([`Polynomial::mul`]);
//! * the `O(n²)` naive transform ([`baseline::naive_forward`] /
//!   [`naive_inverse`](baseline::naive_inverse)), for the smallest ring;
//! * single-lane vs multi-lane `negacyclic_mul_towers` runs (the scheduler may
//!   place towers anywhere; results must not depend on placement).
//!
//! Ring sizes honour `RPU_MAX_N` so the CI matrix can run the suite at
//! 1024 and 4096.

use proptest::prelude::*;
use rpu::arith::{find_ntt_prime_chain, Modulus128};
use rpu::ntt::baseline;
use rpu::ntt::{Ntt128Plan, Polynomial};
use rpu::{
    AutomorphismSpec, CodegenStyle, ConvolutionSpec, Direction, ElementwiseOp, ElementwiseSpec,
    KernelSpec, KeySwitchSpec, NttSpec, Rpu,
};

/// A deterministic residue vector mod `q`.
fn residues(n: usize, q: u128, seed: u64) -> Vec<u128> {
    (0..n as u128)
        .map(|i| {
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed as u128)
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                % q
        })
        .collect()
}

/// The host polynomial-library product (`Polynomial::mul` over an
/// `Ntt128Plan` context).
fn poly_mul_reference(n: usize, q: u128, a: &[u128], b: &[u128]) -> Vec<u128> {
    let ctx = Polynomial::context(n, q).expect("valid (n, q)");
    let pa = Polynomial::from_coeffs(&ctx, a.to_vec()).expect("valid coeffs");
    let pb = Polynomial::from_coeffs(&ctx, b.to_vec()).expect("valid coeffs");
    pa.mul(&pb).coeffs()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fused kernel == host polynomial library across random `(n, q)`.
    #[test]
    fn fused_kernel_matches_polynomial_mul(
        nsel in 0usize..3,
        bits in prop_oneof![Just(50u32), Just(60), Just(90), Just(120)],
        pick in 0usize..2,
        seed in any::<u64>(),
    ) {
        let n = rpu::smoke_cap([1024usize, 2048, 4096][nsel]);
        let chain = find_ntt_prime_chain(bits, 2 * n as u128, 2);
        let q = chain[pick.min(chain.len() - 1)];
        let a = residues(n, q, seed);
        let b = residues(n, q, seed ^ 0xABCD);
        let kernel = ConvolutionSpec::new(n, q, CodegenStyle::Optimized)
            .generate()
            .expect("supported shape");
        let fused = kernel.execute(&[&a, &b]).expect("kernel runs");
        prop_assert_eq!(&fused, &poly_mul_reference(n, q, &a, &b));
    }

    /// Single-lane and multi-lane executor runs are bit-exact: results
    /// must not depend on which lane stole which tower.
    #[test]
    fn lane_count_never_changes_results(
        towers in 2usize..5,
        lanes in 2usize..5,
        seed in any::<u64>(),
    ) {
        let n = rpu::smoke_cap(1024);
        let primes = find_ntt_prime_chain(60, 2 * n as u128, towers);
        prop_assert_eq!(primes.len(), towers);
        let a: Vec<Vec<u128>> =
            primes.iter().enumerate().map(|(t, &q)| residues(n, q, seed ^ t as u64)).collect();
        let b: Vec<Vec<u128>> = primes
            .iter()
            .enumerate()
            .map(|(t, &q)| residues(n, q, seed ^ (t as u64) << 16 ^ 0xF00D))
            .collect();

        let rpu = Rpu::builder().build().unwrap();
        let mut single = rpu.cluster_with(1).unwrap();
        let (seq, seq_report) = single.negacyclic_mul_towers(n, &primes, &a, &b).unwrap();

        let wide = Rpu::builder().lanes(lanes).build().unwrap();
        let mut multi = wide.cluster();
        let (par, par_report) = multi.negacyclic_mul_towers(n, &primes, &a, &b).unwrap();

        prop_assert_eq!(seq, par);
        prop_assert_eq!(seq_report.lanes_used(), 1);
        // same total work, whatever the placement
        prop_assert_eq!(seq_report.total_cycles, par_report.total_cycles);
    }
}

/// The naive `O(n²)` transform agrees with both fast paths at the base
/// ring size (golden anchoring for the whole differential chain).
#[test]
fn naive_transform_anchors_the_fast_paths() {
    let n = 1024usize;
    for bits in [60u32, 120] {
        let q = find_ntt_prime_chain(bits, 2 * n as u128, 1)[0];
        let m = Modulus128::new(q).expect("prime in range");
        let psi = Ntt128Plan::new(n, q).expect("plan exists").psi();
        let a = residues(n, q, 11);
        let b = residues(n, q, 17);

        // negacyclic product out of the naive transform
        let fa = baseline::naive_forward(m, psi, &a);
        let fb = baseline::naive_forward(m, psi, &b);
        let prod: Vec<u128> = fa.iter().zip(&fb).map(|(&x, &y)| m.mul(x, y)).collect();
        let naive = baseline::naive_inverse(m, psi, &prod);

        assert_eq!(naive, poly_mul_reference(n, q, &a, &b), "bits={bits}");
        let kernel = ConvolutionSpec::new(n, q, CodegenStyle::Optimized)
            .generate()
            .expect("supported shape");
        assert_eq!(
            kernel.execute(&[&a, &b]).expect("runs"),
            naive,
            "bits={bits}"
        );
    }
}

/// Compiles `spec`, dispatches it over resident buffers on `rpu`, and
/// returns the downloaded output (one full resident round trip through
/// whichever executor the instance selects).
fn dispatch_once(rpu: &Rpu, spec: &dyn KernelSpec, operands: &[Vec<u128>]) -> Vec<u128> {
    let mut s = rpu.session();
    let kernel = s.compile(spec).expect("spec compiles");
    let inputs: Vec<_> = operands
        .iter()
        .map(|op| s.upload(op).expect("operand uploads"))
        .collect();
    let out = s.alloc(kernel.output_range().1).expect("output allocates");
    s.dispatch(&kernel, &inputs, &[out]).expect("dispatches");
    s.download(&out).expect("downloads")
}

/// Every kernel family, dispatched on the default (pre-decoded fast
/// path) executor and on a `force_interpreter` instance, must produce
/// bit-identical outputs — and both must equal the host-side
/// interpreter run (`Kernel::execute`), closing the loop on the
/// interpreter-as-oracle contract for random inputs.
#[test]
fn fast_path_matches_interpreter_for_every_kernel_family() {
    let n = rpu::smoke_cap(2048);
    let q = find_ntt_prime_chain(120, 2 * n as u128, 1)[0];
    let style = CodegenStyle::Optimized;
    let fast = Rpu::builder().build().unwrap();
    let oracle = Rpu::builder().force_interpreter(true).build().unwrap();
    assert!(!fast.force_interpreter());
    assert!(oracle.force_interpreter());

    let families: Vec<(&str, Box<dyn KernelSpec>)> = vec![
        (
            "ntt-fwd",
            Box::new(NttSpec::new(n, q, Direction::Forward, style)),
        ),
        (
            "ntt-inv",
            Box::new(NttSpec::new(n, q, Direction::Inverse, style)),
        ),
        (
            "pwmul",
            Box::new(ElementwiseSpec::new(ElementwiseOp::MulMod, n, q, style)),
        ),
        (
            "pwadd",
            Box::new(ElementwiseSpec::new(ElementwiseOp::AddMod, n, q, style)),
        ),
        (
            "pwsub",
            Box::new(ElementwiseSpec::new(ElementwiseOp::SubMod, n, q, style)),
        ),
        ("conv", Box::new(ConvolutionSpec::new(n, q, style))),
        ("autom", Box::new(AutomorphismSpec::new(n, q, 5, style))),
        ("keyswitch", Box::new(KeySwitchSpec::new(n, q, style))),
    ];
    for (i, (label, spec)) in families.iter().enumerate() {
        let kernel = spec.generate().expect("spec generates");
        let operands: Vec<Vec<u128>> = (0..kernel.arity())
            .map(|k| residues(n, q, (i as u64) << 8 | k as u64))
            .collect();
        let refs: Vec<&[u128]> = operands.iter().map(Vec::as_slice).collect();
        let host = kernel.execute(&refs).expect("host oracle runs");
        let fast_out = dispatch_once(&fast, spec.as_ref(), &operands);
        let oracle_out = dispatch_once(&oracle, spec.as_ref(), &operands);
        assert_eq!(
            fast_out, oracle_out,
            "family {label}: fast path vs interpreter"
        );
        assert_eq!(fast_out, host, "family {label}: dispatch vs host oracle");
    }
}

/// Lane sharding composed with the fast path: tower results at lanes
/// 1, 2, and 4 must all equal a single-lane `force_interpreter` run.
#[test]
fn fast_path_is_bit_exact_across_lane_counts() {
    let n = rpu::smoke_cap(1024);
    let towers = 4usize;
    let primes = find_ntt_prime_chain(60, 2 * n as u128, towers);
    assert_eq!(primes.len(), towers);
    let a: Vec<Vec<u128>> = primes
        .iter()
        .enumerate()
        .map(|(t, &q)| residues(n, q, 300 + t as u64))
        .collect();
    let b: Vec<Vec<u128>> = primes
        .iter()
        .enumerate()
        .map(|(t, &q)| residues(n, q, 400 + t as u64))
        .collect();

    let interp = Rpu::builder().force_interpreter(true).build().unwrap();
    let mut oracle = interp.cluster_with(1).unwrap();
    let (want, _) = oracle.negacyclic_mul_towers(n, &primes, &a, &b).unwrap();

    for lanes in [1usize, 2, 4] {
        let rpu = Rpu::builder().lanes(lanes).build().unwrap();
        let mut exec = rpu.cluster();
        let (got, _) = exec.negacyclic_mul_towers(n, &primes, &a, &b).unwrap();
        assert_eq!(got, want, "lanes={lanes}");
    }
}

/// The acceptance shape: an 8-tower multiply at the (possibly capped)
/// 4K ring through a ≥2-lane cluster is bit-exact with the host
/// `Polynomial::mul` per tower, and the sharded run's simulated
/// throughput beats the sequential single-session loop.
#[test]
fn eight_tower_multiply_on_two_lanes_is_exact_and_faster() {
    let n = rpu::smoke_cap(4096);
    let towers = 8usize;
    let primes = find_ntt_prime_chain(120, 2 * n as u128, towers);
    assert_eq!(primes.len(), towers);
    let a: Vec<Vec<u128>> = primes
        .iter()
        .enumerate()
        .map(|(t, &q)| residues(n, q, 100 + t as u64))
        .collect();
    let b: Vec<Vec<u128>> = primes
        .iter()
        .enumerate()
        .map(|(t, &q)| residues(n, q, 200 + t as u64))
        .collect();

    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let mut exec = rpu.cluster();
    // A pathologically loaded host can starve one lane thread for a
    // whole run; re-running (with now-warm kernel caches) makes that
    // astronomically unlikely to repeat. Exactness is asserted on
    // every attempt — only the load split is timing-dependent.
    let mut balanced = None;
    for _ in 0..3 {
        let (got, report) = exec.negacyclic_mul_towers(n, &primes, &a, &b).unwrap();
        for (t, &q) in primes.iter().enumerate() {
            assert_eq!(
                got[t],
                poly_mul_reference(n, q, &a[t], &b[t]),
                "tower {t} must match Polynomial::mul"
            );
        }
        assert_eq!(report.towers, towers);
        // With 8 equal-cost towers on 2 lanes even a skewed 5/3 split
        // clears 1.4x (the ideal 4/4 split gives 2.0x).
        if report.lanes_used() == 2 && report.speedup() > 1.4 {
            balanced = Some(report);
            break;
        }
    }
    let report = balanced.expect("2 lanes must beat the sequential loop by >1.4x within 3 runs");
    assert!(report.makespan_us < report.sequential_us);
}
