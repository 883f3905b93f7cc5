//! Integration tests for the session-based workload API: kernel
//! caching, heterogeneous batching, the fused negacyclic-convolution
//! pipeline against the reference polynomial library, and the
//! deprecated one-shot shims.

use rpu::ntt::testutil::test_vector;
use rpu::{
    CodegenStyle, ConvolutionSpec, Direction, ElementwiseOp, ElementwiseSpec, KernelOp, KernelSpec,
    NttSpec, Polynomial, PrimeTable, Rpu,
};

fn prime(n: usize) -> u128 {
    PrimeTable::new().ntt_prime(n).expect("prime exists")
}

/// The on-RPU fused convolution pipeline must agree with the reference
/// NTT polynomial library's negacyclic product.
fn convolution_matches_reference(n: usize) {
    let q = prime(n);
    let rpu = Rpu::builder().build().unwrap();
    let mut session = rpu.session();
    let spec = ConvolutionSpec::new(n, q, CodegenStyle::Optimized);

    let report = session.run(&spec).unwrap();
    assert!(report.verified, "n={n}: golden-model verification");
    assert_eq!(report.op, KernelOp::NegacyclicMul);

    // Real data through the cached kernel vs rpu_ntt's Polynomial::mul.
    let a = test_vector(n, q, 11);
    let b = test_vector(n, q, 22);
    let kernel = session.compile(&spec).unwrap();
    let got = kernel.execute(&[&a, &b]).unwrap();

    let ctx = Polynomial::context(n, q).unwrap();
    let pa = Polynomial::from_coeffs(&ctx, a).unwrap();
    let pb = Polynomial::from_coeffs(&ctx, b).unwrap();
    let expect = pa.mul(&pb).coeffs();
    assert_eq!(got, expect, "n={n}: on-RPU product != reference poly-mult");
}

#[test]
fn convolution_matches_reference_1k() {
    convolution_matches_reference(1024);
}

#[test]
fn convolution_matches_reference_4k() {
    convolution_matches_reference(4096);
}

#[test]
fn second_run_of_identical_spec_performs_no_regeneration() {
    let rpu = Rpu::builder().build().unwrap();
    let mut session = rpu.session();
    let spec = NttSpec::new(
        1024,
        prime(1024),
        Direction::Forward,
        CodegenStyle::Optimized,
    );

    let first = session.run(&spec).unwrap();
    assert!(!first.cache_hit);
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));

    let second = session.run(&spec).unwrap();
    assert!(second.cache_hit);
    let stats = session.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (1, 1, 1),
        "second run must be a pure cache hit"
    );

    // Identical reports either way.
    assert_eq!(first.stats.cycles, second.stats.cycles);
    assert_eq!(first.verified, second.verified);

    // A *different* spec is a fresh entry, not a hit.
    let inv = NttSpec::new(
        1024,
        prime(1024),
        Direction::Inverse,
        CodegenStyle::Optimized,
    );
    session.run(&inv).unwrap();
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
}

/// Acceptance criterion: a mixed batch of ≥ 8 specs (NTT fwd/inv,
/// elementwise, convolution) completes with every report verified.
#[test]
fn mixed_batch_all_verified() {
    let q1 = prime(1024);
    let q2 = prime(2048);
    let rpu = Rpu::builder().build().unwrap();
    let mut session = rpu.session();

    let specs: Vec<Box<dyn KernelSpec>> = vec![
        Box::new(NttSpec::new(
            1024,
            q1,
            Direction::Forward,
            CodegenStyle::Optimized,
        )),
        Box::new(NttSpec::new(
            1024,
            q1,
            Direction::Inverse,
            CodegenStyle::Optimized,
        )),
        Box::new(NttSpec::new(
            2048,
            q2,
            Direction::Forward,
            CodegenStyle::Unoptimized,
        )),
        Box::new(NttSpec::new(
            2048,
            q2,
            Direction::Forward,
            CodegenStyle::StridedMemory,
        )),
        Box::new(ElementwiseSpec::new(
            ElementwiseOp::MulMod,
            1024,
            q1,
            CodegenStyle::Optimized,
        )),
        Box::new(ElementwiseSpec::new(
            ElementwiseOp::AddMod,
            2048,
            q2,
            CodegenStyle::Optimized,
        )),
        Box::new(ConvolutionSpec::new(1024, q1, CodegenStyle::Optimized)),
        Box::new(ConvolutionSpec::new(2048, q2, CodegenStyle::Optimized)),
        // duplicate of the first spec: must be served from the cache
        Box::new(NttSpec::new(
            1024,
            q1,
            Direction::Forward,
            CodegenStyle::Optimized,
        )),
    ];
    let reports: Vec<_> = (specs.iter())
        .map(|spec| session.run(spec.as_ref()).unwrap())
        .collect();

    assert_eq!(reports.len(), 9);
    for (report, spec) in reports.iter().zip(&specs) {
        assert!(
            report.verified,
            "spec {:?} must verify against its golden model",
            spec.key()
        );
        assert!(report.runtime_us > 0.0);
    }
    let ops: Vec<KernelOp> = reports.iter().map(|r| r.op).collect();
    assert!(ops.contains(&KernelOp::Ntt));
    assert!(ops.contains(&KernelOp::PointwiseMul));
    assert!(ops.contains(&KernelOp::PointwiseAdd));
    assert!(ops.contains(&KernelOp::NegacyclicMul));

    let stats = session.cache_stats();
    assert_eq!(stats.misses, 8, "eight distinct kernels generated");
    assert_eq!(stats.hits, 1, "the duplicate spec hits the cache");
}

/// A throwaway session (the pattern the removed one-shot shims
/// delegated to) must produce the same numbers as a held session — the
/// cache only amortizes cost, it never changes results.
#[test]
fn fresh_and_held_sessions_report_identical_numbers() {
    let n = 1024usize;
    let rpu = Rpu::builder().build().unwrap();

    let fresh = rpu
        .session()
        .ntt(n, Direction::Forward, CodegenStyle::Optimized)
        .unwrap();
    let mut held = rpu.session();
    let warm = {
        held.ntt(n, Direction::Forward, CodegenStyle::Optimized)
            .unwrap();
        held.ntt(n, Direction::Forward, CodegenStyle::Optimized)
            .unwrap()
    };
    assert_eq!(fresh.n, warm.n);
    assert_eq!(fresh.q, warm.q);
    assert_eq!(fresh.stats.cycles, warm.stats.cycles);
    assert_eq!(fresh.runtime_us, warm.runtime_us);
    assert_eq!(fresh.energy.total_uj(), warm.energy.total_uj());
    assert_eq!(fresh.mix, warm.mix);
    assert!(fresh.verified && warm.verified);
    assert!(!fresh.cache_hit && warm.cache_hit);

    let q = prime(n);
    let spec = NttSpec::new(n, q, Direction::Inverse, CodegenStyle::Optimized);
    let explicit = rpu.session().run(&spec).unwrap();
    let via_spec = rpu.session().run(&spec).unwrap();
    assert_eq!(explicit.stats.cycles, via_spec.stats.cycles);
    assert_eq!(explicit.runtime_us, via_spec.runtime_us);
    assert!(explicit.verified && via_spec.verified);
}

/// Cache-accounting audit pin: every `run()`/`ntt()` call performs
/// exactly ONE cache lookup (hits + misses advance by one per call,
/// never two), and throwaway sessions are stateless — each one is a
/// fresh single-lookup cache, so repeated single-use sessions report
/// `cache_hit == false` with otherwise identical numbers.
#[test]
fn session_cache_accounting_is_one_lookup_per_run() {
    let n = 1024usize;
    let rpu = Rpu::builder().build().unwrap();

    // Held session: lookups == calls, whatever mix of run()/ntt().
    let mut s = rpu.session();
    let spec = NttSpec::new(n, prime(n), Direction::Forward, CodegenStyle::Optimized);
    let mut calls = 0u64;
    for _ in 0..3 {
        s.run(&spec).unwrap();
        calls += 1;
        let st = s.cache_stats();
        assert_eq!(
            st.hits + st.misses,
            calls,
            "run() must cost exactly one lookup per call"
        );
    }
    for _ in 0..2 {
        s.ntt(n, Direction::Forward, CodegenStyle::Optimized)
            .unwrap();
        calls += 1;
        let st = s.cache_stats();
        assert_eq!(
            st.hits + st.misses,
            calls,
            "ntt() must cost exactly one lookup per call"
        );
    }
    let st = s.cache_stats();
    assert_eq!(st.misses, 1, "one distinct shape generated once");
    assert_eq!(st.hits, calls - 1);

    // Throwaway sessions: stateless, never a phantom hit, reports
    // repeat exactly.
    let first = rpu
        .session()
        .ntt(n, Direction::Forward, CodegenStyle::Optimized)
        .unwrap();
    let second = rpu
        .session()
        .ntt(n, Direction::Forward, CodegenStyle::Optimized)
        .unwrap();
    assert!(!first.cache_hit && !second.cache_hit);
    assert_eq!(first.stats.cycles, second.stats.cycles);
    assert_eq!(
        first.transfer.host_to_device,
        second.transfer.host_to_device
    );
}

#[test]
fn standalone_session_counts_what_it_moves_where_it_happens() {
    // upload → k × dispatch → download → one run_with: the lifetime
    // stats name exactly those elements, k + 1 dispatches and the
    // summed cycles — with no cluster around the session.
    let n = 1024usize;
    let q = prime(n);
    let rpu = Rpu::builder().build().unwrap();
    let mut s = rpu.session();
    assert_eq!(s.lane_index(), 0);
    assert_eq!(s.stats(), rpu::LaneStats::default());

    let spec = ElementwiseSpec::new(ElementwiseOp::AddMod, n, q, CodegenStyle::Optimized);
    let add = s.compile(&spec).unwrap();
    let x = s.upload(&test_vector(n, q, 1)).unwrap();
    let y = s.upload(&test_vector(n, q, 2)).unwrap();
    let k = 5u64;
    let (mut cycles, mut busy_us, mut copies, mut image) = (0, 0.0, 0, 0);
    let mut fold = |r: &rpu::RunReport| {
        cycles += r.stats.cycles;
        busy_us += r.runtime_us;
        copies += r.transfer.device_copies;
        image += r.transfer.image_elements;
    };
    for _ in 0..k {
        fold(&s.dispatch(&add, &[x, y], &[y]).unwrap());
    }
    let got = s.download(&y).unwrap();
    assert_eq!(got.len(), n);
    let (_, one_shot) = s.run_with(&spec, &[&got, &got]).unwrap();
    assert_eq!(one_shot.transfer.host_to_device, 2 * n);
    assert_eq!(one_shot.transfer.device_to_host, n);
    fold(&one_shot);

    let stats = s.stats();
    assert_eq!(stats.dispatches, k + 1);
    assert_eq!(stats.cycles, cycles);
    assert!((stats.busy_us - busy_us).abs() < 1e-9);
    assert_eq!(stats.transfer.host_to_device, 2 * n + 2 * n);
    assert_eq!(stats.transfer.device_to_host, n + n);
    assert_eq!(stats.transfer.device_copies, copies);
    assert_eq!(stats.transfer.image_elements, image);
    assert!(stats.transfer.image_reused);

    // An in-place overwrite is host → device traffic too; alloc, free
    // and a failed call move nothing.
    s.write(&x, &got).unwrap();
    let scratch = s.alloc(n).unwrap();
    s.free(scratch).unwrap();
    assert!(s.download(&scratch).is_err());
    assert!(s.dispatch(&add, &[x], &[y]).is_err());
    let after = s.stats();
    assert_eq!(
        after.transfer.host_to_device,
        stats.transfer.host_to_device + n
    );
    assert_eq!(after.transfer.device_to_host, stats.transfer.device_to_host);
    assert_eq!(after.dispatches, stats.dispatches);
}
