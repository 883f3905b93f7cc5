//! Golden program fingerprints: for every kernel generator at n = 1024,
//! a hash of the encoded program and its (128, 128) cycle count, pinned
//! from the commit before the instruction table replaced the per-opcode
//! copies of encode / schedule / hazard metadata. A refactor of the
//! encoder, the list scheduler or the hazard metadata that moves a
//! single instruction or cycle fails here in milliseconds, without
//! waiting for `perf/selfcheck.sh`.
//!
//! Each kernel's constant-fed multiplies are checked statically beside
//! them: every `bfly` twiddle, and every `vmulmod` twiddle of an inverse
//! NTT, must come from a unit `vload` or a `vbroadcast` inside one of
//! the kernel's `constant_spans()` — the loads the fast path gives a
//! view of the tables' Shoup quotients — and how many multiplies of each
//! kind are fed that way is pinned per kernel. The two larger forward
//! NTTs below the table are checked the same way.

use rpu::isa::{AddrMode, Instruction, Program, VReg};
use rpu::{
    AutomorphismSpec, CodegenStyle, ConvolutionSpec, CycleSim, Direction, ElementwiseOp,
    ElementwiseSpec, Kernel, KernelSpec, KeySwitchSpec, NttSpec, RescaleSpec, RpuConfig,
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
    /// [`table_fed`] of the kernel.
    table_fed: (usize, usize),
}

/// `(bfly, vmulmod)` instructions whose twiddle slot — a `bfly`'s `vt1`,
/// a `vmulmod`'s `vt` — was last defined by a unit `vload` or a
/// `vbroadcast` that reads inside one of the kernel's constant spans
/// (generated programs address the VDM as `a0 + offset`, `a0 = 0`).
fn table_fed(kernel: &Kernel) -> (usize, usize) {
    let instrs = kernel.program().instructions();
    let from_table = |pc: usize, r: VReg| {
        let def = instrs[..pc]
            .iter()
            .rev()
            .find(|i| i.dst_vregs().contains(&Some(r)));
        let window = match def {
            Some(&Instruction::VLoad {
                offset,
                mode: AddrMode::Unit,
                ..
            }) => (offset, 512),
            Some(&Instruction::VBroadcast { offset, .. }) => (offset, 1),
            _ => return false,
        };
        let (start, len) = (window.0 as usize, window.1);
        kernel
            .constant_spans()
            .iter()
            .any(|&(off, span)| off <= start && start + len <= off + span)
    };
    let mut fed = (0, 0);
    for (pc, instr) in instrs.iter().enumerate() {
        match *instr {
            Instruction::Bfly { vt1, .. } => fed.0 += usize::from(from_table(pc, vt1)),
            Instruction::VMulMod { vt, .. } => fed.1 += usize::from(from_table(pc, vt)),
            _ => {}
        }
    }
    fed
}

/// How many instructions of a kernel are `bfly`s and `vmulmod`s.
fn multiplies(kernel: &Kernel) -> (usize, usize) {
    let count = |f: fn(&Instruction) -> bool| {
        kernel
            .program()
            .instructions()
            .iter()
            .filter(|i| f(i))
            .count()
    };
    (
        count(|i| matches!(i, Instruction::Bfly { .. })),
        count(|i| matches!(i, Instruction::VMulMod { .. })),
    )
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
    let golden = |name, spec, instructions, words, cycles, table_fed| Golden {
        name,
        spec,
        instructions,
        words,
        cycles,
        table_fed,
    };
    #[rustfmt::skip]
    let rows = vec![
        golden("ntt_fwd_opt", ntt(Forward, Optimized), 81, 0x8c254a24cd9b2bf6, 420, (10, 0)),
        golden("ntt_inv_opt", ntt(Inverse, Optimized), 108, 0x8472882ef557d3d1, 537, (0, 10)),
        golden("ntt_fwd_unopt", ntt(Forward, Unoptimized), 81, 0xaeef05f744b41d76, 429, (10, 0)),
        golden("ntt_inv_unopt", ntt(Inverse, Unoptimized), 108, 0x5fb15fb6813bacb1, 558, (0, 10)),
        golden("ntt_fwd_strided", ntt(Forward, StridedMemory), 61, 0xa2d261cc8483dadd, 446, (10, 0)),
        golden("ntt_inv_strided", ntt(Inverse, StridedMemory), 88, 0xbd339e98ae8c467f, 523, (0, 10)),
        golden("pw_mul", pw(ElementwiseOp::MulMod), 9, 0x5a86dfeaa21fcc57, 40, (0, 0)),
        golden("pw_add", pw(ElementwiseOp::AddMod), 9, 0x568fe4f0f27026bf, 38, (0, 0)),
        golden("pw_sub", pw(ElementwiseOp::SubMod), 9, 0xe70f38a86aaa03ff, 38, (0, 0)),
        golden("convolution", Box::new(ConvolutionSpec::new(N, q, Optimized)), 278, 0xa77bb5ef84d34c38, 1392, (20, 10)),
        // Re-pinned by PR 17: the digit's forward NTT left the kernel (the
        // recipes dispatch `ntt_fwd_opt` once per digit and share d̂), so
        // this row is the bare multiply–accumulate. No other row moved.
        golden("keyswitch_digit", Box::new(KeySwitchSpec::new(N, q, Optimized)), 17, 0xfbbcb4a588c85e8e, 69, (0, 0)),
        golden("automorphism_g5", Box::new(AutomorphismSpec::new(N, q, 5, Optimized)), 11, 0x468b651dd64bdbf4, 78, (0, 2)),
        // Re-pinned when the SDM companion slots went: p⁻¹ moved from
        // slot 3 to slot 2, so its `sload` offset changed. Counts and
        // cycles did not move.
        golden("rescale", Box::new(RescaleSpec::new(N, q, p, Optimized)), 96, 0x1a1bbc08f5ae4395, 475, (10, 0)),
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
        assert_eq!(
            table_fed(&kernel),
            g.table_fed,
            "{name}: table-fed multiplies"
        );
    }
}

#[test]
fn every_twiddle_is_loaded_from_a_constant_span() {
    // The pinned kernels, the smallest degree with several twiddle
    // vectors per stage, the headline kernel, whose last two stages
    // load a twiddle vector per butterfly, and the leveled workload's
    // 59-bit kernels (narrow twiddles multiply through their quotients
    // too): its forward and inverse NTT and its fused rescale, which
    // drops the top prime of a 4 × 59-bit chain.
    let chain = rpu::LeveledContext::generate(N, 65537, 59, 4).expect("chain exists");
    let (q, p) = (chain.chain().prime(0), chain.chain().prime(3));
    let style = CodegenStyle::Optimized;
    let leveled: [(&str, Box<dyn KernelSpec>, bool); 3] = [
        (
            "forward",
            Box::new(NttSpec::new(N, q, Direction::Forward, style)),
            false,
        ),
        (
            "inverse",
            Box::new(NttSpec::new(N, q, Direction::Inverse, style)),
            true,
        ),
        ("rescale", Box::new(RescaleSpec::new(N, q, p, style)), false),
    ];
    let leveled = leveled.into_iter().map(|(name, spec, inverse)| {
        let kernel = spec.generate().expect("generates");
        (format!("59-bit leveled {name}"), kernel, inverse)
    });
    let mut kernels: Vec<(String, Kernel, bool)> = goldens()
        .into_iter()
        .map(|g| {
            let inverse = g.name.starts_with("ntt_inv");
            (
                g.name.to_string(),
                g.spec.generate().expect("generates"),
                inverse,
            )
        })
        .collect();
    for n in [4096usize, 65536] {
        let q = rpu::arith::find_ntt_prime_u128(126, 2 * n as u128).expect("prime exists");
        let spec = NttSpec::new(n, q, Direction::Forward, CodegenStyle::Optimized);
        kernels.push((
            format!("forward NTT, n = {n}"),
            spec.generate().expect("generates"),
            false,
        ));
    }
    kernels.extend(leveled);
    for (name, kernel, inverse) in &kernels {
        let (bfly, vmulmod) = multiplies(kernel);
        let (fed_bfly, fed_vmulmod) = table_fed(kernel);
        assert_eq!(
            fed_bfly, bfly,
            "{name}: a bfly twiddle not loaded from a table"
        );
        if *inverse {
            assert_eq!(
                fed_vmulmod, vmulmod,
                "{name}: a vmulmod twiddle not loaded from a table"
            );
        }
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
