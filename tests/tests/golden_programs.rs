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
//!
//! Beyond the table, the headline 64K forward NTT, the kernels the
//! benchmark's n = 2048 workloads dispatch and one `StridedMemory` NTT
//! pin their encoded words and *every* `SimStats` field — busy cycles,
//! stalls and each event count the energy model reads — and the 64K
//! kernel's energy breakdown is pinned exactly.

use rpu::isa::{AddrMode, Instruction, Program, VReg};
use rpu::{
    AutomorphismSpec, CodegenStyle, ConvolutionSpec, CycleSim, Direction, ElementwiseOp,
    ElementwiseSpec, EnergyModel, Kernel, KernelSpec, KeySwitchSpec, NttSpec, RescaleSpec,
    RpuConfig, SimStats,
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
        // Re-pinned when σ_g moved to evaluation form (was 11
        // instructions, 78 cycles, two table-fed sign multiplies).
        golden("automorphism_g5", Box::new(AutomorphismSpec::new(N, q, 5, Optimized)), 6, 0x0aaf6ff2b6eb645d, 52, (0, 0)),
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

/// A kernel pinned beyond the n = 1024 table: its encoded words and
/// every `SimStats` field on the (128, 128) design point, so a
/// mistyped event count or occupancy in the timing model shows here
/// and not only as a shifted energy estimate.
struct PinnedStats {
    name: &'static str,
    spec: Box<dyn KernelSpec>,
    /// [`fingerprint`] of `program().to_words()`.
    words: u64,
    stats: SimStats,
}

/// The headline 64K forward NTT, the four kernels the benchmark's
/// n = 2048 workloads dispatch, and one `StridedMemory` NTT, whose
/// strided transfers meet VDM bank conflicts.
fn pinned_stats() -> Vec<PinnedStats> {
    use CodegenStyle::{Optimized, StridedMemory};
    use Direction::{Forward, Inverse};
    let q = |n: usize| rpu::arith::find_ntt_prime_u128(126, 2 * n as u128).expect("prime exists");
    let ntt = |n, d, s| -> Box<dyn KernelSpec> { Box::new(NttSpec::new(n, q(n), d, s)) };
    let pin = |name, spec, words, stats| PinnedStats {
        name,
        spec,
        words,
        stats,
    };
    #[rustfmt::skip]
    let pins = vec![
        pin("ntt_fwd_opt_65536", ntt(65536, Forward, Optimized), 0xbbafee501f5acc8f, SimStats {
            cycles: 9030,
            count_load_store: 4265, count_compute: 1024, count_shuffle: 2048,
            busy_load_store: 17_057, busy_compute: 4096, busy_shuffle: 8192,
            stall_hazard: 1392, stall_queue_full: 293, max_hazard_wait: 10, max_shuffle_hazard_wait: 10,
            vdm_elem_reads: 1_134_081, vdm_elem_writes: 1_048_576, vrf_elem_reads: 3_670_016, vrf_elem_writes: 3_231_744,
            mult_ops: 524_288, add_ops: 1_048_576, vbar_elems: 2_183_168, sbar_elems: 1_048_576,
            im_fetches: 7337, sdm_elem_accesses: 1,
        }),
        pin("ntt_fwd_opt_2048", ntt(2048, Forward, Optimized), 0x6529f18545ad8ec3, SimStats {
            cycles: 519,
            count_load_store: 101, count_compute: 22, count_shuffle: 44,
            busy_load_store: 401, busy_compute: 88, busy_shuffle: 176,
            stall_hazard: 344, stall_queue_full: 0, max_hazard_wait: 11, max_shuffle_hazard_wait: 6,
            vdm_elem_reads: 28_161, vdm_elem_writes: 22_528, vrf_elem_reads: 78_848, vrf_elem_writes: 73_728,
            mult_ops: 11_264, add_ops: 22_528, vbar_elems: 51_200, sbar_elems: 22_528,
            im_fetches: 167, sdm_elem_accesses: 1,
        }),
        // Re-pinned when the list scheduler began timing with the cycle
        // model's own costs (multiplier latency 4, not 6): a new order,
        // every SimStats field as before.
        pin("ntt_inv_opt_2048", ntt(2048, Inverse, Optimized), 0x28411ebd5ebf28d8, SimStats {
            cycles: 639,
            count_load_store: 110, count_compute: 70, count_shuffle: 44,
            busy_load_store: 434, busy_compute: 280, busy_shuffle: 176,
            stall_hazard: 407, stall_queue_full: 0, max_hazard_wait: 15, max_shuffle_hazard_wait: 15,
            vdm_elem_reads: 30_720, vdm_elem_writes: 24_576, vrf_elem_reads: 116_736, vrf_elem_writes: 89_088,
            mult_ops: 13_312, add_ops: 22_528, vbar_elems: 55_296, sbar_elems: 22_528,
            im_fetches: 224, sdm_elem_accesses: 2,
        }),
        // Re-pinned when σ_g moved to evaluation form: per vector a
        // `vload` of the index, a `vgather` and a `vstore` — no sign
        // table, no `vmulmod`, no modulus load.
        pin("automorphism_g5_2048", Box::new(AutomorphismSpec::new(2048, q(2048), 5, Optimized)), 0xa3d40d91ba36c2f5, SimStats {
            cycles: 100,
            count_load_store: 12, count_compute: 0, count_shuffle: 0,
            busy_load_store: 64, busy_compute: 0, busy_shuffle: 0,
            stall_hazard: 80, stall_queue_full: 0, max_hazard_wait: 12, max_shuffle_hazard_wait: 0,
            vdm_elem_reads: 4096, vdm_elem_writes: 2048, vrf_elem_reads: 4096, vrf_elem_writes: 4096,
            mult_ops: 0, add_ops: 0, vbar_elems: 6144, sbar_elems: 0,
            im_fetches: 12, sdm_elem_accesses: 0,
        }),
        pin("keyswitch_digit_2048", Box::new(KeySwitchSpec::new(2048, q(2048), Optimized)), 0xa4724a3e6cc49fb6, SimStats {
            cycles: 101,
            count_load_store: 25, count_compute: 8, count_shuffle: 0,
            busy_load_store: 97, busy_compute: 32, busy_shuffle: 0,
            stall_hazard: 60, stall_queue_full: 0, max_hazard_wait: 7, max_shuffle_hazard_wait: 0,
            vdm_elem_reads: 8192, vdm_elem_writes: 4096, vrf_elem_reads: 12_288, vrf_elem_writes: 12_288,
            mult_ops: 2048, add_ops: 2048, vbar_elems: 12_288, sbar_elems: 0,
            im_fetches: 33, sdm_elem_accesses: 1,
        }),
        pin("ntt_inv_strided_1024", ntt(N, Inverse, StridedMemory), 0xbd339e98ae8c467f, SimStats {
            cycles: 523,
            count_load_store: 56, count_compute: 32, count_shuffle: 0,
            busy_load_store: 298, busy_compute: 128, busy_shuffle: 0,
            stall_hazard: 427, stall_queue_full: 0, max_hazard_wait: 25, max_shuffle_hazard_wait: 0,
            vdm_elem_reads: 16_384, vdm_elem_writes: 11_264, vrf_elem_reads: 43_008, vrf_elem_writes: 32_768,
            mult_ops: 6144, add_ops: 10_240, vbar_elems: 27_648, sbar_elems: 0,
            im_fetches: 88, sdm_elem_accesses: 2,
        }),
    ];
    pins
}

#[test]
fn pinned_kernels_keep_their_words_and_every_sim_stat() {
    let sim = CycleSim::new(RpuConfig::pareto_128x128()).expect("valid config");
    for pinned in pinned_stats() {
        let kernel = pinned.spec.generate().expect("generates");
        let p = kernel.program();
        let name = pinned.name;
        assert_eq!(sim.simulate(p), pinned.stats, "{name}: SimStats");
        assert_eq!(
            fingerprint(&p.to_words()),
            pinned.words,
            "{name}: encoded words"
        );
    }
}

#[test]
fn the_headline_kernels_energy_breakdown_is_pinned() {
    let q = rpu::arith::find_ntt_prime_u128(126, 2 * 65536).expect("prime exists");
    let spec = NttSpec::new(65536, q, Direction::Forward, CodegenStyle::Optimized);
    let kernel = spec.generate().expect("generates");
    let sim = CycleSim::new(RpuConfig::pareto_128x128()).expect("valid config");
    let e = EnergyModel::default().breakdown(&sim.simulate(kernel.program()));
    let parts = [e.law, e.vrf, e.vdm, e.vbar, e.sbar, e.im, e.sdm];
    #[rustfmt::skip]
    let pinned = [
        32.8204288, 9.524428799999999, 5.151070519999999, 1.1352473600000001,
        0.49283071999999994, 0.0491579, 4.9999999999999996e-6,
    ];
    assert_eq!(parts, pinned, "law, vrf, vdm, vbar, sbar, im, sdm (µJ)");
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
