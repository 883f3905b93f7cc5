//! Shared helpers for the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation section and prints the measured values next to the
//! published ones. EXPERIMENTS.md records a captured run.

use rpu::{CodegenStyle, Direction, Kernel, NttSpec, PrimeTable};
use serde::Serialize;
use std::sync::{Arc, Mutex};

/// Kernel cache: figure sweeps re-time the same program under many
/// configurations; generation (especially for 64K) is the slow part.
///
/// A thread-safe wrapper over the session layer's [`rpu::KernelCache`]
/// and [`PrimeTable`], so the figure binaries share the exact cache and
/// prime-lookup machinery production sessions use.
#[derive(Debug, Default)]
pub struct KernelCache {
    inner: Mutex<(rpu::KernelCache, PrimeTable)>,
}

impl KernelCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the kernel for `(n, direction, style)`, generating it on
    /// first use with an automatically chosen ~126-bit prime.
    ///
    /// # Panics
    ///
    /// Panics if generation fails (figure parameters are all valid).
    pub fn get(&self, n: usize, direction: Direction, style: CodegenStyle) -> Arc<Kernel> {
        let mut guard = self.inner.lock().expect("cache poisoned");
        let (cache, primes) = &mut *guard;
        let q = primes
            .ntt_prime(n)
            .expect("prime exists for paper ring sizes");
        let spec = NttSpec::new(n, q, direction, style);
        // Figure sweeps only re-time programs; skip functional verification.
        let (kernel, _) = cache
            .get_or_generate(&spec, false)
            .expect("valid parameters");
        kernel
    }
}

/// One measured-vs-published comparison row.
#[derive(Debug, Clone, Serialize)]
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
        println!(
            "{}",
            serde_json::to_string_pretty(rows).unwrap_or_else(|_| "{}".into())
        );
    }
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
        let c = KernelCache::new();
        let a = c.get(1024, Direction::Forward, CodegenStyle::Optimized);
        let b = c.get(1024, Direction::Forward, CodegenStyle::Optimized);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
