//! Section VII: the analytic comparison against F1 on a 16K NTT.
//! The paper scales F1's 32-bit NTT unit to 128 bits (4× area), assumes
//! one compute cluster, and reports: F1 2864 ns / 11.32 mm² vs RPU
//! 1500 ns / 12.61 mm², with F1 ~2× better in throughput/area but capped
//! at 16K polynomial degrees.

use rpu::model::F1Comparison;
use rpu::{CodegenStyle, CycleSim, Direction, RpuConfig};
use rpu_bench::{cap_n, print_comparison, KernelCache, PaperRow};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = RpuConfig::pareto_128x128();
    let sim = CycleSim::new(config).map_err(rpu::RpuError::Config)?;
    let mut cache = KernelCache::new();
    let kernel = cache.get(cap_n(16384), Direction::Forward, CodegenStyle::Optimized);
    let rpu_ns = config.cycles_to_us(sim.simulate(kernel.program()).cycles) * 1000.0;

    let area = rpu::AreaModel::default().breakdown(128, 128);
    let rpu_area = area.law_plus_vrf();

    let f1 = F1Comparison::default();
    let ratio = f1.throughput_per_area_ratio(rpu_ns, rpu_area);

    let rows = vec![
        PaperRow {
            metric: "RPU 16K NTT latency".into(),
            paper: "1500 ns".into(),
            measured: format!("{rpu_ns:.0} ns"),
        },
        PaperRow {
            metric: "RPU HPLE+VRF area".into(),
            paper: "12.61 mm2".into(),
            measured: format!("{rpu_area:.2} mm2"),
        },
        PaperRow {
            metric: "F1 16K NTT latency".into(),
            paper: "2864 ns".into(),
            measured: "2864 ns (published)".into(),
        },
        PaperRow {
            metric: "F1 area (scaled 128b)".into(),
            paper: "11.32 mm2".into(),
            measured: "11.32 mm2 (published)".into(),
        },
        PaperRow {
            metric: "F1 throughput/area advantage".into(),
            paper: "2x".into(),
            measured: format!("{ratio:.1}x"),
        },
        PaperRow {
            metric: "F1 max degree".into(),
            paper: "16K".into(),
            measured: format!(
                "16K (RPU runs 64K: {})",
                !f1.degree_exceeds_f1(16384) && f1.degree_exceeds_f1(65536)
            ),
        },
    ];
    print_comparison("Section VII (F1 comparison, 16K NTT)", &rows);
    println!(
        "\nthe RPU trades ~2x throughput/area for generality: F1's fixed NTT unit\n\
         cannot run rings beyond 16K, while the RPU runs 64K and beyond."
    );
    Ok(())
}
