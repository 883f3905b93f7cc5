//! Figure 6: 64K NTT runtime for the hardware-aware optimized program
//! versus the unoptimized program, sweeping HPLEs at 128 VDM banks.
//! The paper reports the optimized program 1.8× faster on average, and
//! highlights how unoptimized shuffles sit blocked at the busyboard.

use rpu::{CodegenStyle, CycleSim, Direction, RpuConfig};
use rpu_bench::{cap_n, print_comparison, KernelCache, PaperRow};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = cap_n(65536);
    let mut cache = KernelCache::new();
    eprintln!("generating optimized and unoptimized 64K kernels...");
    let opt = cache.get(n, Direction::Forward, CodegenStyle::Optimized);
    let unopt = cache.get(n, Direction::Forward, CodegenStyle::Unoptimized);

    println!("\nFig. 6: 64K NTT runtime, 128 banks:");
    println!(
        "{:>6} {:>14} {:>14} {:>7} {:>22}",
        "HPLEs", "optimized", "unoptimized", "ratio", "unopt shuffle stalls"
    );
    let mut ratios = Vec::new();
    for h in [4usize, 8, 16, 32, 64, 128, 256] {
        let config = RpuConfig::with_geometry(h, 128);
        let sim = CycleSim::new(config).map_err(rpu::RpuError::Config)?;
        let so = sim.simulate(opt.program());
        let su = sim.simulate(unopt.program());
        let ratio = su.cycles as f64 / so.cycles as f64;
        ratios.push(ratio);
        println!(
            "{h:>6} {:>11.2} us {:>11.2} us {ratio:>6.2}x {:>15} cycles",
            config.cycles_to_us(so.cycles),
            config.cycles_to_us(su.cycles),
            su.stall_hazard
        );
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;

    let rows = vec![
        PaperRow {
            metric: "avg optimized speedup".into(),
            paper: "1.8x".into(),
            measured: format!("{avg:.2}x"),
        },
        PaperRow {
            metric: "optimized wins everywhere".into(),
            paper: "yes".into(),
            measured: format!("{}", ratios.iter().all(|&r| r > 1.0)),
        },
    ];
    print_comparison("Fig. 6 (code optimization impact)", &rows);
    Ok(())
}
