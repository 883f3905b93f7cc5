//! `perf` — the repo's benchmark. See `perf/README.md`.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (BENCHMARK.json's command)
//! perf run [--seed n] [--smoke]                                    every workload, interleaved reps
//! perf compare <a.tsv> <b.tsv> [--exact-only]                      judge b against a
//! perf manifest                                                    print BENCHMARK.json
//! ```
//!
//! Run from the repo root: output goes to `perf/out/`.

mod metrics;
mod probes;
mod runner;
mod spans;
mod stats;
mod suite;
mod w_eval;
mod w_serve;
mod w_session;
mod workload;

use std::process::ExitCode;

/// `--name value` pairs and bare flags after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for {name}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// The arguments that are not `--flags` (`compare`'s two files; its
    /// only flag takes no value).
    fn positional(&self) -> Vec<&str> {
        self.0
            .iter()
            .map(String::as_str)
            .filter(|a| !a.starts_with("--"))
            .collect()
    }
}

fn one_run(flags: &Flags) -> Result<u8, String> {
    let workload = flags
        .value("--workload")
        .ok_or("missing --workload <name>")?
        .to_string();
    let seconds: f64 = flags.parsed("--seconds", f64::from(metrics::RUN_SECONDS))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} outside (0, 60]"));
    }
    Ok(runner::run_one(&runner::RunArgs {
        workload,
        seed: flags.parsed("--seed", 1)?,
        seconds,
        trace: flags.parsed::<u8>("--trace", 0)? != 0,
        rep: flags.parsed("--rep", 0)?,
        corrupt_oracle: flags.has("--corrupt-oracle"),
    }))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let sub = match args.first() {
        Some(a) if !a.starts_with("--") => args.remove(0),
        _ => String::new(),
    };
    let flags = Flags(args);
    let outcome = match sub.as_str() {
        "" => one_run(&flags),
        "run" => suite::run_all(&flags),
        "compare" => suite::compare(&flags.positional(), flags.has("--exact-only")),
        "manifest" => metrics::validate().map(|()| {
            print!("{}", metrics::manifest_json());
            0
        }),
        other => Err(format!("unknown subcommand `{other}`")),
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}
