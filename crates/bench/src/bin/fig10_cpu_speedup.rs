//! Figure 10: RPU speedup over a CPU for 64-bit and 128-bit NTT data
//! across polynomial degrees. The paper measured OpenFHE on a 32-core
//! EPYC 7502 (545×–1484× for 128-bit data, 77×–205× for 64-bit);
//! we measure this host's CPU with the `rpu-ntt` baselines, so absolute
//! numbers differ but the two qualitative findings must hold: speedup
//! grows with ring size, and the 128-bit series sits far above 64-bit.

use rpu::ntt::baseline::{CpuBaseline, CpuWidth};
use rpu::{CodegenStyle, CycleSim, Direction, RpuConfig};
use rpu_bench::{cap_n, print_comparison, smoke_mode, KernelCache, PaperRow};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = RpuConfig::pareto_128x128();
    let sim = CycleSim::new(config).map_err(rpu::RpuError::Config)?;
    let mut cache = KernelCache::new();
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!("measuring host CPU baselines with {threads} threads...");

    println!("\nFig. 10: RPU (128,128) speedup over this host's CPU ({threads} threads)");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "n", "RPU", "CPU-64b", "CPU-128b", "speedup-64", "speedup-128"
    );
    let mut s64 = Vec::new();
    let mut s128 = Vec::new();
    let max_log = cap_n(1 << 16).ilog2();
    for log_n in [10u32, 12, 14, 16].into_iter().filter(|&l| l <= max_log) {
        let n = 1usize << log_n;
        let kernel = cache.get(n, Direction::Forward, CodegenStyle::Optimized);
        let rpu_us = config.cycles_to_us(sim.simulate(kernel.program()).cycles);
        let baseline = CpuBaseline::new(n)?;
        // keep wall time roughly constant; just a spot check under a cap
        let iters = if smoke_mode() { 2 } else { (1 << 22) / n };
        let cpu64 = baseline
            .measure(CpuWidth::Bits64, threads, iters.max(2))
            .time_per_ntt
            .as_secs_f64()
            * 1e6;
        let cpu128 = baseline
            .measure(CpuWidth::Bits128, threads, iters.max(2))
            .time_per_ntt
            .as_secs_f64()
            * 1e6;
        let sp64 = cpu64 / rpu_us;
        let sp128 = cpu128 / rpu_us;
        s64.push(sp64);
        s128.push(sp128);
        println!(
            "{n:>8} {rpu_us:>9.2} us {cpu64:>9.1} us {cpu128:>9.1} us {sp64:>11.0}x {sp128:>11.0}x"
        );
    }

    let rows = vec![
        PaperRow {
            metric: "128b speedup grows with n".into(),
            paper: "545x -> 1484x".into(),
            measured: format!("{:.0}x -> {:.0}x", s128[0], s128[s128.len() - 1]),
        },
        PaperRow {
            metric: "64b series below 128b".into(),
            paper: "77x - 205x".into(),
            measured: format!("{:.0}x - {:.0}x", s64[0], s64[s64.len() - 1]),
        },
        PaperRow {
            metric: "128b/64b gap at 64K".into(),
            paper: "~7x".into(),
            measured: format!("{:.1}x", s128[s128.len() - 1] / s64[s64.len() - 1]),
        },
    ];
    print_comparison("Fig. 10 (speedup over CPU)", &rows);
    println!(
        "\nnote: the paper's CPU is a 32-core EPYC 7502 running OpenFHE; this\n\
         host differs, so compare shapes, not absolute factors (EXPERIMENTS.md)."
    );
    Ok(())
}
