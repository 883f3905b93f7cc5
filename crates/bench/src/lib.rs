//! Shared helpers for the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation section and prints the measured values next to the
//! published ones. EXPERIMENTS.md records a captured run.

use rpu::{CodegenStyle, Direction, Kernel, NttSpec, PrimeTable, Rpu};
use std::sync::Arc;

/// Kernel cache: figure sweeps re-time the same program under many
/// configurations; generation (especially for 64K) is the slow part.
///
/// An [`Rpu`]'s kernel store and a [`PrimeTable`] side by side, so the
/// figure binaries time the same verified kernels production sessions
/// dispatch.
#[derive(Debug)]
pub struct KernelCache {
    rpu: Rpu,
    primes: PrimeTable,
}

impl Default for KernelCache {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelCache {
    /// Creates an empty cache over the paper's (128, 128) design point.
    ///
    /// # Panics
    ///
    /// Panics if the default design point fails to build.
    pub fn new() -> Self {
        KernelCache {
            rpu: Rpu::builder()
                .build()
                .expect("the default design point builds"),
            primes: PrimeTable::new(),
        }
    }

    /// Returns the kernel for `(n, direction, style)`, generated and
    /// verified on first use with an automatically chosen ~126-bit
    /// prime.
    ///
    /// # Panics
    ///
    /// Panics if generation or verification fails (figure parameters
    /// are all valid).
    pub fn get(&mut self, n: usize, direction: Direction, style: CodegenStyle) -> Arc<Kernel> {
        let q = (self.primes.ntt_prime(n)).expect("prime exists for paper ring sizes");
        let spec = NttSpec::new(n, q, direction, style);
        self.rpu.session().compile(&spec).expect("valid parameters")
    }
}

/// One measured-vs-published comparison row.
#[derive(Debug, Clone)]
pub struct PaperRow {
    /// What is being compared.
    pub metric: String,
    /// The paper's value (as printed).
    pub paper: String,
    /// Our measured value.
    pub measured: String,
}

/// Prints a paper-vs-measured table and optionally dumps it as JSON when
/// `RPU_BENCH_JSON` is set (for scripting).
pub fn print_comparison(title: &str, rows: &[PaperRow]) {
    println!("\n== {title}: paper vs. this reproduction ==");
    let w = rows
        .iter()
        .map(|r| r.metric.len())
        .max()
        .unwrap_or(10)
        .max(10);
    println!("{:<w$}  {:>18}  {:>18}", "metric", "paper", "measured");
    for r in rows {
        println!("{:<w$}  {:>18}  {:>18}", r.metric, r.paper, r.measured);
    }
    if std::env::var("RPU_BENCH_JSON").is_ok() {
        println!("{}", rows_json(rows));
    }
}

/// `rows` as a pretty-printed JSON array of `{metric, paper, measured}`
/// objects.
fn rows_json(rows: &[PaperRow]) -> String {
    let objects: Vec<String> = rows
        .iter()
        .map(|r| {
            let fields = [
                ("metric", &r.metric),
                ("paper", &r.paper),
                ("measured", &r.measured),
            ]
            .map(|(name, value)| format!("    \"{name}\": {}", json_string(value)));
            format!("  {{\n{}\n  }}", fields.join(",\n"))
        })
        .collect();
    format!("[\n{}\n]", objects.join(",\n"))
}

/// `s` as a JSON string literal: `"`, `\` and control characters
/// escaped, everything else verbatim.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float with sensible precision for tables.
pub fn fmt2(v: f64) -> String {
    format!("{v:.2}")
}

/// The reduced problem-size cap for smoke/CI runs, if any: a `--n <N>`
/// (or `--n=N`) command-line flag takes precedence over the `RPU_MAX_N`
/// environment variable. `None` means run the full paper sizes.
pub fn size_cap() -> Option<usize> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--n" {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return Some(v);
            }
        } else if let Some(v) = a.strip_prefix("--n=").and_then(|v| v.parse().ok()) {
            return Some(v);
        }
    }
    std::env::var("RPU_MAX_N").ok().and_then(|v| v.parse().ok())
}

/// Caps a paper ring size for reduced-size runs; the clamping rule is
/// [`rpu::clamp_ring_size`] (power-of-two floor, ≥ the generator's
/// minimum degree).
pub fn cap_n(full: usize) -> usize {
    match size_cap() {
        Some(cap) => rpu::clamp_ring_size(full, cap),
        None => full,
    }
}

/// True when a reduced-size cap is active (figure binaries shorten their
/// host-CPU timing loops accordingly).
pub fn smoke_mode() -> bool {
    size_cap().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_returns_same_kernel() {
        let mut c = KernelCache::new();
        let a = c.get(1024, Direction::Forward, CodegenStyle::Optimized);
        let b = c.get(1024, Direction::Forward, CodegenStyle::Optimized);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn json_dump_escapes_and_keeps_its_shape() {
        let row = |metric: &str| PaperRow {
            metric: metric.into(),
            paper: "17".into(),
            measured: "a\\b\t\u{1}".into(),
        };
        assert_eq!(rows_json(&[]), "[\n\n]");
        assert_eq!(
            rows_json(&[row("say \"hi\""), row("µs")]),
            "[\n  {\n    \"metric\": \"say \\\"hi\\\"\",\n    \"paper\": \"17\",\n    \
             \"measured\": \"a\\\\b\\u0009\\u0001\"\n  },\n  {\n    \"metric\": \"µs\",\n    \
             \"paper\": \"17\",\n    \"measured\": \"a\\\\b\\u0009\\u0001\"\n  }\n]"
        );
    }
}
