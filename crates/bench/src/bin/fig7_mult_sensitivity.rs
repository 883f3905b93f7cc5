//! Figure 7: RPU sensitivity to multiplier pipeline depth (latency) and
//! initiation interval (II) for the 64K NTT on (128, 128). The paper's
//! takeaways: latency barely matters (everything is pipelined), II = 2
//! costs only ~16%, and deeper IIs cost up to ~1.5×.

use rpu::{CodegenStyle, CycleSim, Direction, RpuConfig};
use rpu_bench::{cap_n, print_comparison, KernelCache, PaperRow};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cache = KernelCache::new();
    let kernel = cache.get(cap_n(65536), Direction::Forward, CodegenStyle::Optimized);

    let cycles_at = |latency: u32, ii: u32| -> u64 {
        let mut cfg = RpuConfig::pareto_128x128();
        cfg.mult_latency = latency;
        cfg.mult_ii = ii;
        CycleSim::new(cfg)
            .expect("valid config")
            .simulate(kernel.program())
            .cycles
    };

    println!("Fig. 7: 64K NTT cycles on (128,128), multiplier latency x II");
    print!("{:>8}", "lat\\II");
    for ii in 1..=7u32 {
        print!("{ii:>9}");
    }
    println!();
    for lat in 2..=8u32 {
        print!("{lat:>8}");
        for ii in 1..=7 {
            print!("{:>9}", cycles_at(lat, ii));
        }
        println!();
    }

    let base = cycles_at(4, 1);
    let ii2 = cycles_at(4, 2);
    let ii7 = cycles_at(4, 7);
    let lat_spread = (2..=8)
        .map(|l| cycles_at(l, 1))
        .fold((u64::MAX, 0u64), |(lo, hi), c| (lo.min(c), hi.max(c)));

    let rows = vec![
        PaperRow {
            metric: "II=2 overhead".into(),
            paper: "16%".into(),
            measured: format!("{:.0}%", 100.0 * (ii2 as f64 / base as f64 - 1.0)),
        },
        PaperRow {
            metric: "II=7 overhead".into(),
            paper: "~1.5x".into(),
            measured: format!("{:.2}x", ii7 as f64 / base as f64),
        },
        PaperRow {
            metric: "latency sensitivity (2..8)".into(),
            paper: "not highly sensitive".into(),
            measured: format!(
                "{:.1}% spread",
                100.0 * (lat_spread.1 as f64 / lat_spread.0 as f64 - 1.0)
            ),
        },
    ];
    print_comparison("Fig. 7 (multiplier latency / II sensitivity)", &rows);
    println!(
        "\ntakeaway check: a small II=2 multiplier is a fine choice for the LAW\n\
         engine, matching the paper's hardware-selection conclusion."
    );
    Ok(())
}
