//! Slimmed-down versions of the figure experiments as regression tests:
//! each asserts the qualitative *shape* the paper reports, so a change
//! that silently breaks a reproduced trend fails CI rather than only
//! showing up in EXPERIMENTS.md.

use rpu::model::{best_perf_per_area, pareto_frontier, AreaModel, EnergyModel};
use rpu::{
    explore_design_space, CodegenStyle, CycleSim, Direction, HbmModel, Kernel, KernelSpec, NttSpec,
    RpuConfig,
};

fn kernel(n: usize, style: CodegenStyle) -> Kernel {
    let q = rpu::arith::find_ntt_prime_u128(126, 2 * n as u128).expect("prime exists");
    let spec = NttSpec::new(n, q, Direction::Forward, style);
    spec.generate().expect("generates")
}

fn cycles(k: &Kernel, h: usize, b: usize) -> u64 {
    CycleSim::new(RpuConfig::with_geometry(h, b))
        .expect("valid")
        .simulate(k.program())
        .cycles
}

#[test]
fn fig3_shape_pareto_cluster() {
    // Pareto points cluster where HPLEs = banks or 2x banks (paper VI-B).
    let pts = explore_design_space(8192, &[16, 32, 64, 128], &[32, 64, 128]).unwrap();
    let frontier = pareto_frontier(&pts);
    assert!(!frontier.is_empty());
    // the balanced diagonal must survive on the frontier (the paper's
    // observation; our cheaper-bank area model admits extra points too)
    for (h, b) in [(32usize, 32usize), (64, 64), (128, 128)] {
        assert!(
            frontier.iter().any(|p| p.hples == h && p.banks == b),
            "({h},{b}) should be Pareto-optimal; frontier: {frontier:?}"
        );
    }
}

#[test]
fn fig4_shape_balanced_best() {
    let pts = explore_design_space(16384, &[32, 64, 128, 256], &[32, 64, 128, 256]).unwrap();
    let best = best_perf_per_area(&pts).unwrap();
    assert_eq!((best.hples, best.banks), (128, 128), "paper's best point");
}

#[test]
fn fig5_shape_area_trends() {
    let m = AreaModel::default();
    // VBAR doubles per bank doubling beyond 64 banks at 128 HPLEs
    assert!(m.vbar_mm2(128, 256) / m.vbar_mm2(128, 128) > 1.8);
    // LAW engine dominates the energy budget at the headline point
    let k = kernel(4096, CodegenStyle::Optimized);
    let stats = CycleSim::new(RpuConfig::pareto_128x128())
        .unwrap()
        .simulate(k.program());
    let e = EnergyModel::default().breakdown(&stats);
    assert!(e.law > e.vrf && e.vrf > e.vdm, "LAW > VRF > VDM ordering");
}

#[test]
fn fig6_shape_optimized_wins() {
    let opt = kernel(8192, CodegenStyle::Optimized);
    let unopt = kernel(8192, CodegenStyle::Unoptimized);
    for h in [32usize, 128] {
        let ratio = cycles(&unopt, h, 128) as f64 / cycles(&opt, h, 128) as f64;
        assert!(
            (1.3..4.0).contains(&ratio),
            "H={h}: unopt/opt ratio {ratio:.2} out of the published ballpark"
        );
    }
}

#[test]
fn fig7_shape_ii_hurts_latency_does_not() {
    let k = kernel(8192, CodegenStyle::Optimized);
    let base = RpuConfig::pareto_128x128();
    let run = |f: fn(&mut RpuConfig)| {
        let mut c = base;
        f(&mut c);
        CycleSim::new(c).unwrap().simulate(k.program()).cycles
    };
    let baseline = run(|_| {});
    let deep_mult = run(|c| c.mult_latency = 8);
    let slow_ii = run(|c| c.mult_ii = 6);
    assert!(
        deep_mult as f64 <= baseline as f64 * 1.25,
        "latency must be cheap: {baseline} -> {deep_mult}"
    );
    assert!(
        slow_ii as f64 >= baseline as f64 * 1.5,
        "II must be expensive: {baseline} -> {slow_ii}"
    );
}

#[test]
fn fig8_shape_latency_tolerant() {
    let k = kernel(8192, CodegenStyle::Optimized);
    let base = RpuConfig::pareto_128x128();
    let mut worst = base;
    worst.ls_latency = 10;
    worst.shuffle_latency = 10;
    let b = CycleSim::new(base).unwrap().simulate(k.program()).cycles;
    let w = CycleSim::new(worst).unwrap().simulate(k.program()).cycles;
    assert!(
        (w as f64) < b as f64 * 1.25,
        "crossbar latency must stay cheap: {b} -> {w}"
    );
}

#[test]
fn fig9_shape_efficiency_grows_with_n() {
    let cfg = RpuConfig::pareto_128x128();
    let sim = CycleSim::new(cfg).unwrap();
    let ratio = |n: usize| {
        let k = kernel(n, CodegenStyle::Optimized);
        let us = cfg.cycles_to_us(sim.simulate(k.program()).cycles);
        let theo =
            (n as f64 * (n as f64).log2()) / (cfg.num_hples as f64 * cfg.frequency_ghz() * 1000.0);
        us / theo
    };
    let small = ratio(1024);
    let large = ratio(16384);
    assert!(
        small > 1.5 * large,
        "1K must be far less efficient than 16K: {small:.2} vs {large:.2}"
    );
    // HBM keeps up with the large kernel
    let k = kernel(16384, CodegenStyle::Optimized);
    let us = cfg.cycles_to_us(sim.simulate(k.program()).cycles);
    assert!(HbmModel::default().load_hidden_by(16384, us));
}

#[test]
fn ablation_shape_shuffles_relieve_vdm() {
    let shuffled = kernel(8192, CodegenStyle::Optimized);
    let strided = kernel(8192, CodegenStyle::StridedMemory);
    let penalty = cycles(&strided, 128, 128) as f64 / cycles(&shuffled, 128, 128) as f64;
    assert!(
        penalty > 1.3,
        "removing shuffles must cost VDM bandwidth, got {penalty:.2}x"
    );
}
