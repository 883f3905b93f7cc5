//! Drives a synthetic multi-tenant workload against a live server and
//! prints the throughput/latency report. The CI smoke job runs this
//! with a small ring (`RPU_MAX_N=1024`) to prove the serving layer
//! end-to-end.
//!
//! ```text
//! cargo run --release --example serve_traffic -- \
//!     --lanes 2 --tenants 3 --jobs 32 --seed 7
//! ```

use rpu::ntt::rlwe::RlweParams;
use rpu::Rpu;
use rpu_serve::{run_traffic, serve, OpMix, ServeConfig, TenantLoad, TrafficSpec};

fn flag(name: &str, default: usize) -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a numeric value"));
        }
    }
    default
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lanes = flag("--lanes", 2);
    let tenants = flag("--tenants", 3);
    let jobs = flag("--jobs", 24);
    let seed = flag("--seed", 7) as u64;

    let rpu = Rpu::builder()
        .lanes(lanes)
        .device_heap_elements(1 << 20)
        .build()?;
    let n = rpu::smoke_cap(4096);
    let q = rpu.session().primes_for(n)?;
    let params = RlweParams { n, q, t: 65537 };

    // Skew the load: tenant 0 is "hot" with 2× jobs but also 2× weight.
    let loads: Vec<TenantLoad> = (0..tenants)
        .map(|i| {
            if i == 0 {
                TenantLoad::new(jobs * 2).weight(2)
            } else {
                TenantLoad::new(jobs)
            }
        })
        .collect();
    let spec = TrafficSpec::new(seed, OpMix::eval_heavy(), loads);

    println!("serve_traffic: n={n} lanes={lanes} tenants={tenants} jobs/tenant={jobs} seed={seed}");
    let (report, serve_report) = serve(&rpu, ServeConfig::new(params), |server| {
        run_traffic(server, &spec)
    })?;
    let report = report?;
    println!(
        "ops={} retries={} wall={:?} ops/s={:.1} p50={}us p99={}us",
        report.ops, report.retries, report.wall, report.ops_per_sec, report.p50_us, report.p99_us
    );
    for t in &serve_report.tenants {
        println!(
            "  tenant {:?}: weight={} completed={} rejected={} resident={}",
            t.tenant, t.weight, t.completed, t.rejected, t.resident_cts
        );
    }
    println!(
        "served: completed={:?} of {} total, {} rejected",
        serve_report
            .tenants
            .iter()
            .map(|t| t.completed)
            .collect::<Vec<_>>(),
        serve_report.completed,
        serve_report.rejected
    );
    Ok(())
}
