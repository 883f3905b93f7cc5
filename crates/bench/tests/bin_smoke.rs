//! Smoke tests: every figure/table binary must run to completion on a
//! reduced problem size (`RPU_MAX_N=1024`), so a broken experiment fails
//! `cargo test` rather than only surfacing when someone regenerates
//! EXPERIMENTS.md.

use std::process::Command;

fn run_bin(exe: &str) {
    let out = Command::new(exe)
        .env("RPU_MAX_N", "1024")
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

macro_rules! bin_smoke_tests {
    ($($name:ident => $env:literal),+ $(,)?) => {$(
        #[test]
        fn $name() {
            run_bin(env!($env));
        }
    )+};
}

bin_smoke_tests! {
    smoke_headline => "CARGO_BIN_EXE_headline",
    smoke_table1_isa => "CARGO_BIN_EXE_table1_isa",
    smoke_listing1_kernel => "CARGO_BIN_EXE_listing1_kernel",
    smoke_fig3_area_latency => "CARGO_BIN_EXE_fig3_area_latency",
    smoke_fig4_perf_per_area => "CARGO_BIN_EXE_fig4_perf_per_area",
    smoke_fig5_breakdowns => "CARGO_BIN_EXE_fig5_breakdowns",
    smoke_fig6_code_opt => "CARGO_BIN_EXE_fig6_code_opt",
    smoke_fig7_mult_sensitivity => "CARGO_BIN_EXE_fig7_mult_sensitivity",
    smoke_fig8_xbar_sensitivity => "CARGO_BIN_EXE_fig8_xbar_sensitivity",
    smoke_fig9_hbm_theoretical => "CARGO_BIN_EXE_fig9_hbm_theoretical",
    smoke_fig10_cpu_speedup => "CARGO_BIN_EXE_fig10_cpu_speedup",
    smoke_f1_comparison => "CARGO_BIN_EXE_f1_comparison",
    smoke_ablation_strided => "CARGO_BIN_EXE_ablation_strided",
}

#[test]
fn smoke_json_output() {
    // RPU_BENCH_JSON adds a machine-readable dump; it must stay valid.
    let exe = env!("CARGO_BIN_EXE_table1_isa");
    let out = Command::new(exe)
        .env("RPU_MAX_N", "1024")
        .env("RPU_BENCH_JSON", "1")
        .output()
        .expect("spawns");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains('{'), "expected JSON in output:\n{stdout}");
}

#[test]
fn kernel_table_matches_the_committed_table() {
    // docs/kernels.tsv is kernel_table's output; a change that moves any
    // generated kernel must regenerate it and say why.
    let out = Command::new(env!("CARGO_BIN_EXE_kernel_table"))
        .output()
        .expect("spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/kernels.tsv");
    let committed = std::fs::read_to_string(path).expect("docs/kernels.tsv");
    let generated = String::from_utf8(out.stdout).expect("utf-8");
    for (line, (got, want)) in generated.lines().zip(committed.lines()).enumerate() {
        assert_eq!(got, want, "docs/kernels.tsv line {}", line + 1);
    }
    assert_eq!(generated.lines().count(), committed.lines().count());
}
