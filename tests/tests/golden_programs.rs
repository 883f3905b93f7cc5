//! Golden program fingerprints: for every kernel generator at n = 1024,
//! a hash of the encoded program and its (128, 128) cycle count, pinned
//! from the commit before the instruction table replaced the per-opcode
//! copies of encode / schedule / hazard metadata. A refactor of the
//! encoder, the list scheduler or the hazard metadata that moves a
//! single instruction or cycle fails here in milliseconds, without
//! waiting for `perf/selfcheck.sh`.
//!
//! Each kernel's Montgomery domain plan is pinned the same way: how
//! many `(First, Second)` promotion hints it carries, captured at the
//! commit before the fast path's in-place residency became a shadow
//! cache and the plan lost its flush-cost model. No n = 1024 kernel
//! reuses a multiplicative source often enough to be hinted; the two
//! larger forward NTTs below the table are the smallest and the
//! headline kernels that are.

use rpu::isa::{Program, PromoteHint};
use rpu::{
    AutomorphismSpec, CodegenStyle, ConvolutionSpec, CycleSim, Direction, ElementwiseOp,
    ElementwiseSpec, KernelSpec, KeySwitchSpec, NttSpec, RescaleSpec, RpuConfig,
};

const N: usize = 1024;

/// FNV-1a over the little-endian bytes of the instruction words.
fn fingerprint(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One generated kernel and its golden values.
struct Golden {
    name: &'static str,
    spec: Box<dyn KernelSpec>,
    instructions: usize,
    /// [`fingerprint`] of `program().to_words()`.
    words: u64,
    /// Cycle count on the (128, 128) design point.
    cycles: u64,
    /// [`hint_counts`] of the kernel's domain plan.
    hints: (usize, usize),
}

/// `(First, Second)` promotion hints in a kernel's static domain plan.
fn hint_counts(kernel: &rpu::Kernel) -> (usize, usize) {
    let plan = kernel.predecoded().domain_plan();
    let count = |hint| plan.iter().filter(|h| **h == hint).count();
    (count(PromoteHint::First), count(PromoteHint::Second))
}

/// Every generator; the moduli are the 126-bit and 59-bit NTT primes
/// the rest of the suite uses at this degree.
fn goldens() -> Vec<Golden> {
    use CodegenStyle::{Optimized, StridedMemory, Unoptimized};
    use Direction::{Forward, Inverse};
    let q = rpu::arith::find_ntt_prime_u128(126, 2 * N as u128).expect("prime exists");
    let p = u128::from(rpu::arith::find_ntt_prime_u64(59, 2 * N as u64).expect("prime exists"));
    let ntt = |d, s| -> Box<dyn KernelSpec> { Box::new(NttSpec::new(N, q, d, s)) };
    let pw = |op| -> Box<dyn KernelSpec> { Box::new(ElementwiseSpec::new(op, N, q, Optimized)) };
    let golden = |name, spec, instructions, words, cycles| Golden {
        name,
        spec,
        instructions,
        words,
        cycles,
        hints: (0, 0),
    };
    #[rustfmt::skip]
    let rows = vec![
        golden("ntt_fwd_opt", ntt(Forward, Optimized), 81, 0x8c254a24cd9b2bf6, 420),
        golden("ntt_inv_opt", ntt(Inverse, Optimized), 108, 0x8472882ef557d3d1, 537),
        golden("ntt_fwd_unopt", ntt(Forward, Unoptimized), 81, 0xaeef05f744b41d76, 429),
        golden("ntt_inv_unopt", ntt(Inverse, Unoptimized), 108, 0x5fb15fb6813bacb1, 558),
        golden("ntt_fwd_strided", ntt(Forward, StridedMemory), 61, 0xa2d261cc8483dadd, 446),
        golden("ntt_inv_strided", ntt(Inverse, StridedMemory), 88, 0xbd339e98ae8c467f, 523),
        golden("pw_mul", pw(ElementwiseOp::MulMod), 9, 0x5a86dfeaa21fcc57, 40),
        golden("pw_add", pw(ElementwiseOp::AddMod), 9, 0x568fe4f0f27026bf, 38),
        golden("pw_sub", pw(ElementwiseOp::SubMod), 9, 0xe70f38a86aaa03ff, 38),
        golden("convolution", Box::new(ConvolutionSpec::new(N, q, Optimized)), 278, 0xa77bb5ef84d34c38, 1392),
        // Re-pinned by PR 17: the digit's forward NTT left the kernel (the
        // recipes dispatch `ntt_fwd_opt` once per digit and share d̂), so
        // this row is the bare multiply–accumulate. No other row moved.
        golden("keyswitch_digit", Box::new(KeySwitchSpec::new(N, q, Optimized)), 17, 0xfbbcb4a588c85e8e, 69),
        golden("automorphism_g5", Box::new(AutomorphismSpec::new(N, q, 5, Optimized)), 11, 0x468b651dd64bdbf4, 78),
        golden("rescale", Box::new(RescaleSpec::new(N, q, p, Optimized)), 96, 0x62ee0010259fec4a, 475),
    ];
    rows
}

#[test]
fn generated_programs_match_their_golden_fingerprints() {
    let sim = CycleSim::new(RpuConfig::pareto_128x128()).expect("valid config");
    for g in goldens() {
        let kernel = g.spec.generate().expect("generates");
        let p = kernel.program();
        let name = g.name;
        assert_eq!(p.len(), g.instructions, "{name}: instruction count");
        assert_eq!(fingerprint(&p.to_words()), g.words, "{name}: encoded words");
        assert_eq!(sim.simulate(p).cycles, g.cycles, "{name}: cycle count");
        assert_eq!(hint_counts(&kernel), g.hints, "{name}: promotion hints");
    }
}

#[test]
fn larger_forward_ntts_keep_their_twiddle_promotions() {
    // n = 4096 is the smallest degree whose kernels carry hints; 65536
    // is the headline kernel, whose 40 promoted twiddle vectors are
    // what the shadow cache is kept for.
    for (n, hints) in [(4096usize, (0, 10)), (65536, (0, 40))] {
        let q = rpu::arith::find_ntt_prime_u128(126, 2 * n as u128).expect("prime exists");
        let kernel = NttSpec::new(n, q, Direction::Forward, CodegenStyle::Optimized)
            .generate()
            .expect("generates");
        assert_eq!(hint_counts(&kernel), hints, "forward NTT, n = {n}");
    }
}

#[test]
fn every_generated_instruction_survives_the_binary_encoding() {
    for g in goldens() {
        let kernel = g.spec.generate().expect("generates");
        let p = kernel.program();
        let decoded = Program::from_words(g.name, &p.to_words()).expect("decodes");
        assert_eq!(decoded.instructions(), p.instructions(), "{}", g.name);
    }
}

#[test]
fn a_working_set_beyond_the_address_field_is_a_typed_error() {
    // 3 × 397 312 elements fit the 32 MiB VDM (2²¹ elements) but not the
    // 20-bit static offsets: before the shared working-set check this
    // generated, verified, and then encoded to a different program.
    let n = 131_072usize;
    let q = rpu::arith::find_ntt_prime_u128(126, 2 * n as u128).expect("prime exists");
    let err = ConvolutionSpec::new(n, q, CodegenStyle::Optimized)
        .generate()
        .expect_err("1 191 936 elements exceed 2^20");
    assert!(
        matches!(err, rpu::codegen::CodegenError::WorkingSetTooLarge { bytes } if bytes == 1_191_936 * 16),
        "{err}"
    );
}
