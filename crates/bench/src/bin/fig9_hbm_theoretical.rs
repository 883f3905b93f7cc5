//! Figure 9: NTT runtime on the (128, 128) RPU versus the theoretical
//! compute-only latency, with HBM2 load/store times. The paper's
//! findings: the runtime/theoretical ratio shrinks from 3.86× at 1K to
//! 1.38× at 64K, and a 512 GB/s HBM2 keeps up with kernel execution.

use rpu::{CodegenStyle, CycleSim, Direction, HbmModel, RpuConfig};
use rpu_bench::{cap_n, print_comparison, KernelCache, PaperRow};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = RpuConfig::pareto_128x128();
    let sim = CycleSim::new(config).map_err(rpu::RpuError::Config)?;
    let hbm = HbmModel::default();
    let mut cache = KernelCache::new();

    println!("Fig. 9: (128,128) RPU, 512 GB/s HBM2");
    println!(
        "{:>8} {:>12} {:>12} {:>7} {:>11} {:>11} {:>12}",
        "n", "NTT", "theoretical", "ratio", "HBM load", "HBM store", "load hidden"
    );
    let mut first_ratio = 0.0;
    let mut last_ratio = 0.0;
    let mut all_hidden_at_large = true;
    let max_log = cap_n(1 << 16).ilog2();
    for log_n in 10..=max_log {
        let n = 1usize << log_n;
        let kernel = cache.get(n, Direction::Forward, CodegenStyle::Optimized);
        let stats = sim.simulate(kernel.program());
        let us = config.cycles_to_us(stats.cycles);
        // theoretical latency: n*log2(n) butterflies' lanes spread over
        // the HPLEs at the clock rate (the paper's formula)
        let theo =
            (n as f64 * log_n as f64) / (config.num_hples as f64 * config.frequency_ghz() * 1000.0);
        let ratio = us / theo;
        if log_n == 10 {
            first_ratio = ratio;
        }
        if log_n == max_log {
            last_ratio = ratio;
        }
        let load = hbm.transfer_time_us(n);
        let store = hbm.transfer_time_us(n);
        let hidden = hbm.load_hidden_by(n, us);
        if log_n >= 13 && !hidden {
            all_hidden_at_large = false;
        }
        println!(
            "{n:>8} {us:>9.3} us {theo:>9.3} us {ratio:>6.2}x {load:>8.3} us {store:>8.3} us {hidden:>12}",
        );
    }

    let rows = vec![
        PaperRow {
            metric: "1K runtime/theoretical".into(),
            paper: "3.86x".into(),
            measured: format!("{first_ratio:.2}x"),
        },
        PaperRow {
            metric: "64K runtime/theoretical".into(),
            paper: "1.38x".into(),
            measured: format!("{last_ratio:.2}x"),
        },
        PaperRow {
            metric: "ratio shrinks with n".into(),
            paper: "yes".into(),
            measured: format!("{}", last_ratio < first_ratio),
        },
        PaperRow {
            metric: "HBM2 keeps up at 8K-64K".into(),
            paper: "yes".into(),
            measured: format!("{all_hidden_at_large}"),
        },
    ];
    print_comparison("Fig. 9 (theoretical latency and HBM2)", &rows);
    Ok(())
}
