//! Constants-only image loads on a poisoned workspace.
//!
//! `Kernel::load_into` writes a kernel's constant tables
//! (`Kernel::constant_spans`) and its SDM scalars and nothing else, so a
//! kernel switch no longer zeroes operand windows or scratch. That is
//! only sound if (1) every generator declares every span it places a
//! table into and (2) no generated program reads workspace it has not
//! written. Both are pinned here, for each of the eight [`KernelOp`]s on
//! a 59-bit and a ~120-bit modulus: the whole workspace is filled with a
//! non-zero pattern before the kernel is loaded, operands are bound,
//! the program runs on both executors, and the output must equal the
//! golden model — first one kernel at a time, then with all eight
//! interleaved on one simulator, each running over whatever the
//! previous ones left behind.

use rpu::arith::find_ntt_prime_chain;
use rpu::isa::AReg;
use rpu::{
    AutomorphismSpec, CodegenStyle, ConvolutionSpec, Direction, ElementwiseOp, ElementwiseSpec,
    FunctionalSim, Kernel, KernelOp, KernelSpec, KeySwitchSpec, NttSpec, RescaleSpec,
};

const STYLE: CodegenStyle = CodegenStyle::Optimized;

/// One kernel per [`KernelOp`] over `Z_q[x]/(x^n + 1)`, `q` (and the
/// rescale kernel's dropped prime) `bits` wide.
fn kernels(bits: u32) -> Vec<Kernel> {
    let n = rpu::smoke_cap(1024);
    let chain = find_ntt_prime_chain(bits, 2 * n as u128, 2);
    let (q, p) = (chain[0], chain[1]);
    let elementwise = |op| Box::new(ElementwiseSpec::new(op, n, q, STYLE)) as Box<dyn KernelSpec>;
    let specs: [Box<dyn KernelSpec>; 8] = [
        Box::new(NttSpec::new(n, q, Direction::Forward, STYLE)),
        elementwise(ElementwiseOp::MulMod),
        elementwise(ElementwiseOp::AddMod),
        elementwise(ElementwiseOp::SubMod),
        Box::new(ConvolutionSpec::new(n, q, STYLE)),
        Box::new(AutomorphismSpec::new(n, q, 5, STYLE)),
        Box::new(KeySwitchSpec::new(n, q, STYLE)),
        Box::new(RescaleSpec::new(n, q, p, STYLE)),
    ];
    let kernels: Vec<Kernel> = specs
        .iter()
        .map(|s| s.generate().expect("supported shape"))
        .collect();
    let ops: Vec<KernelOp> = kernels.iter().map(Kernel::op).collect();
    assert_eq!(
        ops,
        [
            KernelOp::Ntt,
            KernelOp::PointwiseMul,
            KernelOp::PointwiseAdd,
            KernelOp::PointwiseSub,
            KernelOp::NegacyclicMul,
            KernelOp::Automorphism,
            KernelOp::KeySwitch,
            KernelOp::Rescale,
        ],
        "one kernel per KernelOp"
    );
    kernels
}

/// A simulator big enough for every kernel in `kernels`, both memories
/// filled with a non-zero pattern that fits 64 bits (so a 59-bit run
/// stays on 64-bit lanes) and is far above any 59-bit modulus.
fn poisoned_sim(kernels: &[Kernel]) -> FunctionalSim {
    let vdm = kernels.iter().map(Kernel::total_elements).max().unwrap();
    let sdm = kernels.iter().map(Kernel::sdm_elements).max().unwrap();
    let mut sim = FunctionalSim::new(vdm, sdm.max(16));
    let pattern = |len: usize| -> Vec<u128> {
        (0..len as u128)
            .map(|i| 0xDEAD_BEEF_0000_0001 + i * 0x1_0001)
            .collect()
    };
    sim.write_vdm(0, &pattern(vdm)).unwrap();
    sim.write_sdm(0, &pattern(sdm.max(16))).unwrap();
    sim
}

/// Deterministic residues mod `q`, different per `(seed, operand)`.
fn operands(kernel: &Kernel, seed: u128) -> Vec<Vec<u128>> {
    let q = kernel.modulus();
    kernel
        .input_ranges()
        .iter()
        .enumerate()
        .map(|(k, &(_, len))| {
            (0..len as u128)
                .map(|i| {
                    (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) + seed * 0x1234_5677 + k as u128 * 977)
                        .wrapping_mul(0x2545_F491_4F6C_DD1D)
                        % q
                })
                .collect()
        })
        .collect()
}

/// Loads `kernel` over whatever `sim` holds, binds fresh operands, runs
/// it (interpreter or fast path) and checks the output range against
/// the golden model.
fn load_run_check(sim: &mut FunctionalSim, kernel: &Kernel, seed: u128, fast: bool) {
    let label = format!(
        "{} (q = {:#x}, fast = {fast})",
        kernel.op(),
        kernel.modulus()
    );
    let tables: usize = kernel.constant_spans().iter().map(|&(_, len)| len).sum();
    let written = kernel.load_into(sim).expect("simulator holds the kernel");
    assert_eq!(
        written,
        tables + kernel.sdm_elements(),
        "{label}: load_into writes the tables and the scalars, nothing else"
    );
    let ops = operands(kernel, seed);
    for (data, &(offset, _)) in ops.iter().zip(kernel.input_ranges()) {
        sim.write_vdm(offset, data).unwrap();
    }
    sim.set_arf(AReg::at(0), 0);
    if fast {
        sim.run_predecoded(kernel.predecoded())
    } else {
        sim.run(kernel.program())
    }
    .unwrap_or_else(|e| panic!("{label}: {e}"));
    let refs: Vec<&[u128]> = ops.iter().map(Vec::as_slice).collect();
    let (offset, len) = kernel.output_range();
    assert!(
        sim.read_vdm(offset, len).unwrap() == kernel.expected_output(&refs),
        "{label}: output differs from the golden model on a poisoned workspace"
    );
}

/// The lane width a run over `bits`-bit moduli must end on: the poison
/// fits 64 bits, so only the moduli decide.
fn expected_lane_bits(bits: u32) -> u32 {
    if bits < 64 {
        64
    } else {
        128
    }
}

#[test]
fn poisoned_workspace_every_kernel_op_matches_its_golden_model() {
    for bits in [59, 120] {
        let kernels = kernels(bits);
        for (i, kernel) in kernels.iter().enumerate() {
            for fast in [false, true] {
                let mut sim = poisoned_sim(std::slice::from_ref(kernel));
                load_run_check(&mut sim, kernel, i as u128, fast);
                // The constant tables are never written by the program:
                // a second run needs only fresh operands.
                load_run_check(&mut sim, kernel, 100 + i as u128, fast);
                assert_eq!(sim.lane_bits(), expected_lane_bits(bits), "{bits}-bit");
            }
        }
    }
}

#[test]
fn poisoned_workspace_interleaved_kernels_never_read_each_others_leftovers() {
    for bits in [59, 120] {
        let kernels = kernels(bits);
        for fast in [false, true] {
            let mut sim = poisoned_sim(&kernels);
            // Forwards, backwards, then a stride that makes every kernel
            // follow a different predecessor than before.
            let forwards = 0..kernels.len();
            let order = forwards
                .clone()
                .chain(forwards.clone().rev())
                .chain(forwards.map(|i| i * 3 % kernels.len()));
            for (step, i) in order.enumerate() {
                load_run_check(&mut sim, &kernels[i], step as u128, fast);
            }
            assert_eq!(sim.lane_bits(), expected_lane_bits(bits), "{bits}-bit");
        }
    }
}

#[test]
fn constant_spans_cover_exactly_the_nonzero_image_except_index_zero() {
    // What the spans are *not* inferred from: the automorphism index
    // table legitimately holds index 0 inside its span, and every span
    // lies inside the working set, outside every operand window.
    for kernel in kernels(59) {
        let zero_ops: Vec<Vec<u128>> = kernel
            .input_ranges()
            .iter()
            .map(|&(_, len)| vec![0; len])
            .collect();
        let refs: Vec<&[u128]> = zero_ops.iter().map(Vec::as_slice).collect();
        let image = kernel.vdm_image(&refs);
        let mut outside = image.clone();
        for &(off, len) in kernel.constant_spans() {
            assert!(off + len <= kernel.total_elements(), "{}", kernel.op());
            for &(win, wlen) in kernel.input_ranges() {
                assert!(
                    off + len <= win || win + wlen <= off,
                    "{}: span ({off}, {len}) overlaps operand window ({win}, {wlen})",
                    kernel.op()
                );
            }
            outside[off..off + len].fill(0);
        }
        assert!(
            outside.iter().all(|&x| x == 0),
            "{}: a table sits outside the declared spans",
            kernel.op()
        );
        if kernel.op() == KernelOp::Automorphism {
            let (off, len) = kernel.constant_spans()[0];
            assert!(
                image[off..off + len].contains(&0),
                "index 0 is a legitimate table entry"
            );
        }
    }
}
