//! Cross-crate integration tests: the full pipeline from prime search
//! through codegen, binary encoding, functional execution, cycle timing,
//! and the hardware models.

use rpu::{
    CodegenStyle, CycleSim, Direction, FunctionalSim, Kernel, KernelSpec, NttSpec, Rpu, RpuConfig,
};

/// The complete flow for one ring size, through every crate:
/// prime (arith) → schedule (ntt) → kernel (codegen) → binary round trip
/// (isa) → functional execution (sim) → golden comparison (ntt) → cycle
/// timing (sim) → area/energy (model).
fn full_stack(n: usize) {
    let q = rpu::arith::find_ntt_prime_u128(126, 2 * n as u128).expect("prime exists");
    let kernel = NttSpec::new(n, q, Direction::Forward, CodegenStyle::Optimized)
        .generate()
        .expect("generates");

    // Binary round trip through the 64-bit instruction words.
    let words = kernel.program().to_words();
    let decoded = rpu::isa::Program::from_words("rt", &words).expect("decodes");
    assert_eq!(decoded.instructions(), kernel.program().instructions());

    // Assembly round trip.
    let asm = kernel.program().to_asm();
    let parsed = rpu::isa::parse_asm("rt", &asm).expect("parses");
    assert_eq!(parsed.instructions(), kernel.program().instructions());

    // Functional execution of the *decoded* program matches the golden
    // model (proves the encoding carries full semantics).
    let input: Vec<u128> = (0..n as u128).map(|i| (i * i + 17) % q).collect();
    let mut sim = FunctionalSim::new(kernel.total_elements(), 16);
    sim.write_vdm(0, &kernel.vdm_image(&[&input])).unwrap();
    sim.write_sdm(0, &kernel.sdm_image()).unwrap();
    sim.run(&decoded).expect("executes");
    let (off, len) = kernel.output_range();
    assert_eq!(
        sim.read_vdm(off, len).unwrap(),
        kernel.expected_output(&[&input])
    );

    // Cycle timing is positive and the energy model consumes the stats.
    let cs = CycleSim::new(RpuConfig::pareto_128x128()).expect("valid config");
    let stats = cs.simulate(&decoded);
    assert!(stats.cycles > 0);
    let energy = rpu::EnergyModel::default().breakdown(&stats);
    assert!(energy.total_uj() > 0.0);
}

#[test]
fn full_stack_1k() {
    full_stack(1024);
}

#[test]
fn full_stack_4k() {
    full_stack(4096);
}

#[test]
fn full_stack_inverse_round_trip() {
    // forward kernel output fed to inverse kernel recovers the input,
    // with both executed from their binary encodings
    let n = 1024usize;
    let q = rpu::arith::find_ntt_prime_u128(126, 2 * n as u128).unwrap();
    let ntt = |d| NttSpec::new(n, q, d, CodegenStyle::Optimized).generate();
    let (fwd, inv) = (
        ntt(Direction::Forward).unwrap(),
        ntt(Direction::Inverse).unwrap(),
    );
    let input: Vec<u128> = (0..n as u128).map(|i| (i * 31 + 5) % q).collect();

    let run = |k: &Kernel, data: &[u128]| {
        let p = rpu::isa::Program::from_words("x", &k.program().to_words()).unwrap();
        let mut sim = FunctionalSim::new(k.total_elements(), 16);
        sim.write_vdm(0, &k.vdm_image(&[data])).unwrap();
        sim.write_sdm(0, &k.sdm_image()).unwrap();
        sim.run(&p).unwrap();
        let (off, len) = k.output_range();
        sim.read_vdm(off, len).unwrap()
    };
    let transformed = run(&fwd, &input);
    assert_eq!(run(&inv, &transformed), input);
}

#[test]
fn headline_metrics_reproduced() {
    // The paper's headline: 64K, 128-bit NTT in ~6.7 us on ~20.5 mm².
    let rpu = Rpu::new(RpuConfig::pareto_128x128()).unwrap();
    let run = rpu
        .session()
        .ntt(65536, Direction::Forward, CodegenStyle::Optimized)
        .unwrap();
    assert!(run.verified, "64K kernel must validate");
    assert!(
        run.runtime_us > 3.0 && run.runtime_us < 9.0,
        "64K runtime should be in the 6.7 us ballpark, got {:.2}",
        run.runtime_us
    );
    let area = rpu.area().total();
    assert!((area - 20.5).abs() < 0.5, "got {area:.2} mm2");
    let energy = run.energy.total_uj();
    assert!(
        (energy - 49.18).abs() < 5.0,
        "64K energy should be ~49.18 uJ, got {energy:.2}"
    );
}

#[test]
fn rpu_beats_cpu_on_big_rings() {
    // Shape of Fig. 10: simulated RPU runtime far below measured CPU
    // runtime for the 128-bit 4K NTT on this host.
    let n = 4096usize;
    let rpu = Rpu::new(RpuConfig::pareto_128x128()).unwrap();
    let run = rpu
        .session()
        .ntt(n, Direction::Forward, CodegenStyle::Optimized)
        .unwrap();
    let baseline = rpu::ntt::baseline::CpuBaseline::new(n).unwrap();
    let cpu = baseline.measure(rpu::ntt::baseline::CpuWidth::Bits128, 1, 3);
    let speedup = cpu.time_per_ntt.as_secs_f64() * 1e6 / run.runtime_us;
    assert!(
        speedup > 10.0,
        "RPU should be orders of magnitude faster; got {speedup:.1}x"
    );
}

#[test]
fn mixed_tower_moduli_via_mrf() {
    // The MRF "enables modulus changing at the instruction granularity,
    // enabling the potential to process different towers simultaneously":
    // run adds on two different moduli back to back in one program.
    use rpu::isa::{AReg, AddrMode, Instruction, MReg, VReg};
    let mut p = rpu::isa::Program::new("two-towers");
    let v = VReg::at;
    p.push(Instruction::VLoad {
        vd: v(0),
        base: AReg::at(0),
        offset: 0,
        mode: AddrMode::Unit,
    });
    p.push(Instruction::VLoad {
        vd: v(1),
        base: AReg::at(0),
        offset: 512,
        mode: AddrMode::Unit,
    });
    p.push(Instruction::VAddMod {
        vd: v(2),
        vs: v(0),
        vt: v(1),
        rm: MReg::at(0),
    });
    p.push(Instruction::VAddMod {
        vd: v(3),
        vs: v(0),
        vt: v(1),
        rm: MReg::at(1),
    });

    let mut sim = FunctionalSim::new(2048, 16);
    sim.set_mrf(MReg::at(0), 97);
    sim.set_mrf(MReg::at(1), 101);
    sim.write_vdm(0, &vec![60u128; 512]).unwrap();
    sim.write_vdm(512, &vec![50u128; 512]).unwrap();
    sim.run(&p).unwrap();
    assert_eq!(sim.vreg(v(2))[0], 110 % 97);
    assert_eq!(sim.vreg(v(3))[0], 110 % 101);
}
