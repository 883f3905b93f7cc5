//! Quickstart: build the paper's best RPU design point, open a workload
//! session, run verified NTTs across the paper's ring sizes, and print
//! the headline metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use rpu::{CodegenStyle, Direction, Rpu};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's best performance-per-area configuration:
    // 128 HPLEs and 128 VDM banks at 1.68 GHz (Section VI).
    let rpu = Rpu::builder().geometry(128, 128).build()?;

    println!(
        "RPU (128 HPLEs, 128 banks) @ {:.2} GHz",
        rpu.config().frequency_ghz()
    );
    let area = rpu.area();
    println!(
        "area: {:.1} mm2 (IM {:.2} | VDM {:.2} | VRF {:.2} | LAW {:.2} | VBAR {:.2} | SBAR {:.2})",
        area.total(),
        area.im,
        area.vdm,
        area.vrf,
        area.law,
        area.vbar,
        area.sbar
    );
    println!();

    // One session for the whole sweep: kernels are generated (and
    // functionally verified) once per size, and the NTT-prime search is
    // memoized across sizes.
    let mut session = rpu.session();
    println!(
        "{:>8} {:>10} {:>12} {:>10} {:>10}  verified",
        "n", "cycles", "runtime", "energy", "power"
    );
    // rpu::smoke_cap honours the RPU_MAX_N override for quick runs.
    for log_n in 10..=rpu::smoke_cap(1 << 16).ilog2() {
        let n = 1usize << log_n;
        let run = session.ntt(n, Direction::Forward, CodegenStyle::Optimized)?;
        println!(
            "{:>8} {:>10} {:>9.2} us {:>7.1} uJ {:>8.2} W  {}",
            n,
            run.stats.cycles,
            run.runtime_us,
            run.energy.total_uj(),
            run.energy.total_uj() / run.runtime_us,
            if run.verified { "yes" } else { "NO" },
        );
    }
    println!(
        "\nkernel store: {} kernels generated and verified, {} session hits",
        rpu.kernel_store().generated(),
        session.cache_stats().hits
    );

    println!();
    println!("(the paper's headline: 64K NTT in 6.7 us using 20.5 mm2 of GF 12nm)");
    Ok(())
}
