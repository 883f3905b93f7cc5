//! Figure 8: RPU sensitivity to shuffle-crossbar (SBAR) and load/store
//! (VBAR) latency for the 64K NTT on (128, 128). The paper: total cycles
//! rise only slightly — ~1.7% going from LS latency 4 to 10 — and
//! shuffle latency is nearly free up to 7.

use rpu::{CodegenStyle, CycleSim, Direction, RpuConfig};
use rpu_bench::{cap_n, print_comparison, KernelCache, PaperRow};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cache = KernelCache::new();
    let kernel = cache.get(cap_n(65536), Direction::Forward, CodegenStyle::Optimized);

    let cycles_at = |ls: u32, sh: u32| -> u64 {
        let mut cfg = RpuConfig::pareto_128x128();
        cfg.ls_latency = ls;
        cfg.shuffle_latency = sh;
        CycleSim::new(cfg)
            .expect("valid config")
            .simulate(kernel.program())
            .cycles
    };

    println!("Fig. 8: 64K NTT cycles on (128,128), LS latency x shuffle latency");
    print!("{:>8}", "LS\\sh");
    for sh in 4..=10u32 {
        print!("{sh:>9}");
    }
    println!();
    for ls in 4..=10u32 {
        print!("{ls:>8}");
        for sh in 4..=10 {
            print!("{:>9}", cycles_at(ls, sh));
        }
        println!();
    }

    let base = cycles_at(4, 4);
    let ls10 = cycles_at(10, 4);
    let sh7 = cycles_at(4, 7);
    let sh10 = cycles_at(4, 10);

    let rows = vec![
        PaperRow {
            metric: "LS latency 4->10".into(),
            paper: "+1.7%".into(),
            measured: format!("+{:.1}%", 100.0 * (ls10 as f64 / base as f64 - 1.0)),
        },
        PaperRow {
            metric: "shuffle latency 4->7".into(),
            paper: "~0%".into(),
            measured: format!("+{:.1}%", 100.0 * (sh7 as f64 / base as f64 - 1.0)),
        },
        PaperRow {
            metric: "shuffle latency 4->10".into(),
            paper: "marginal".into(),
            measured: format!("+{:.1}%", 100.0 * (sh10 as f64 / base as f64 - 1.0)),
        },
        PaperRow {
            metric: "more sensitive to".into(),
            paper: "LS latency".into(),
            measured: if ls10 >= sh10 {
                "LS latency".into()
            } else {
                "shuffle latency".into()
            },
        },
    ];
    print_comparison("Fig. 8 (crossbar latency sensitivity)", &rows);
    Ok(())
}
