//! Figure 5: (a) area breakdown sweeping VDM banks at 128 HPLEs,
//! (b) sweeping HPLEs at 128 banks, and (c) the 64K NTT energy
//! breakdown on the (128, 128) RPU.

use rpu::model::{AreaModel, EnergyModel};
use rpu::{CodegenStyle, CycleSim, Direction, RpuConfig};
use rpu_bench::{cap_n, print_comparison, KernelCache, PaperRow};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let area = AreaModel::default();

    // (a) fix 128 HPLEs, sweep banks
    println!("Fig. 5(a): area breakdown (mm2), 128 HPLEs, sweeping banks");
    println!(
        "{:>6} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8}",
        "banks", "IM", "VDM", "VRF", "LAW", "VBAR", "SBAR", "total"
    );
    for b in [32usize, 64, 128, 256] {
        let d = area.breakdown(128, b);
        println!(
            "{b:>6} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>8.2}",
            d.im,
            d.vdm,
            d.vrf,
            d.law,
            d.vbar,
            d.sbar,
            d.total()
        );
    }

    // (b) fix 128 banks, sweep HPLEs
    println!("\nFig. 5(b): area breakdown (mm2), 128 banks, sweeping HPLEs");
    println!(
        "{:>6} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8}",
        "HPLEs", "IM", "VDM", "VRF", "LAW", "VBAR", "SBAR", "total"
    );
    for h in [4usize, 8, 16, 32, 64, 128, 256] {
        let d = area.breakdown(h, 128);
        println!(
            "{h:>6} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>8.2}",
            d.im,
            d.vdm,
            d.vrf,
            d.law,
            d.vbar,
            d.sbar,
            d.total()
        );
    }

    // (c) energy breakdown of the 64K NTT on (128, 128)
    let mut cache = KernelCache::new();
    let kernel = cache.get(cap_n(65536), Direction::Forward, CodegenStyle::Optimized);
    let config = RpuConfig::pareto_128x128();
    let stats = CycleSim::new(config)
        .map_err(rpu::RpuError::Config)?
        .simulate(kernel.program());
    let e = EnergyModel::default().breakdown(&stats);
    let frac = |c: f64| format!("{:.1}%", 100.0 * c / e.total_uj());

    let rows = vec![
        PaperRow {
            metric: "total energy".into(),
            paper: "49.18 uJ".into(),
            measured: format!("{:.2} uJ", e.total_uj()),
        },
        PaperRow {
            metric: "LAW engine".into(),
            paper: "66.7%".into(),
            measured: frac(e.law),
        },
        PaperRow {
            metric: "VRF".into(),
            paper: "19.3%".into(),
            measured: frac(e.vrf),
        },
        PaperRow {
            metric: "VDM".into(),
            paper: "10.5%".into(),
            measured: frac(e.vdm),
        },
        PaperRow {
            metric: "VBAR".into(),
            paper: "2.3%".into(),
            measured: frac(e.vbar),
        },
        PaperRow {
            metric: "SBAR".into(),
            paper: "1.0%".into(),
            measured: frac(e.sbar),
        },
        PaperRow {
            metric: "IM".into(),
            paper: "0.1%".into(),
            measured: frac(e.im),
        },
        PaperRow {
            metric: "average power".into(),
            paper: "7.44 W".into(),
            measured: format!("{:.2} W", e.total_uj() / config.cycles_to_us(stats.cycles)),
        },
    ];
    print_comparison("Fig. 5(c) (64K NTT energy on (128,128))", &rows);
    Ok(())
}
