//! `perf run`: every workload, repetitions interleaved, one child
//! process per (workload, rep) — and `perf compare` on two of its
//! result files.
//!
//! Built for a small shared box. Rep 1 of every workload runs before
//! rep 2 of any, so a slow phase of the machine lands on one rep of
//! each workload instead of on every rep of one. A child is this same
//! binary in single-run mode, so each rep pays a cold start and reports
//! its own `VmHWM`. Every child brackets its work with the calibration
//! spin; a rep whose slower spin exceeds the run's fastest by more than
//! [`DRIFT_LIMIT`] is run again, at most [`MAX_RERUNS`] times per
//! workload.

use crate::metrics::{self, MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::runner::OUT_DIR;
use crate::stats::{iqr_share, median};
use crate::Flags;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::Command;

/// How many untraced reps of how many seconds, and the result file.
struct Shape {
    reps: usize,
    seconds: f64,
    file: &'static str,
}

/// The run `perf/baseline.tsv` records: segments as long as the ones
/// `BENCHMARK.json` declares.
const FULL: Shape = Shape {
    reps: 5,
    seconds: RUN_SECONDS as f64,
    file: "run.tsv",
};
/// `--smoke`: the same n, the same ops and the same traced serve jobs
/// over tiny segments, so every exact metric equals the full run's.
const SMOKE: Shape = Shape {
    reps: 2,
    seconds: 0.2,
    file: "smoke.tsv",
};
const DRIFT_LIMIT: f64 = 0.15;
const MAX_RERUNS: usize = 2;
/// Traced reps per workload: two, so exact metrics can be audited.
const TRACED_REPS: usize = 2;

/// One child's parsed output.
struct Child {
    metrics: BTreeMap<String, f64>,
    /// The slower of the two bracketing spins, ms.
    spin_ms: f64,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    rep: usize,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--rep", &rep.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start a child run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} rep {rep} (trace {}) failed: {}",
            u8::from(trace),
            output.status
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let mut child = Child {
        metrics: BTreeMap::new(),
        spin_ms: 0.0,
    };
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["metric", name, value, _unit] => {
                let v = value
                    .parse()
                    .map_err(|_| format!("child printed a bad value for {name}: {value}"))?;
                child.metrics.insert((*name).to_string(), v);
            }
            // A rep is a process of its own, so its first set-up is a
            // cold one: that, not the quiet quartile of the repeated
            // set-ups a single run reports, is the rep's `setup_s`.
            ["info", "setup_s.cold", value, "s"] => {
                let v = value
                    .parse()
                    .map_err(|_| format!("child printed a bad cold set-up time: {value}"))?;
                child.metrics.insert("setup_s".to_string(), v);
            }
            ["info", "calib.spin_ms", before, "ms", "after", after] => {
                let (b, a): (f64, f64) =
                    (before.parse().unwrap_or(0.0), after.parse().unwrap_or(0.0));
                child.spin_ms = b.max(a);
            }
            _ => {}
        }
    }
    Ok(child)
}

/// One aggregated `(workload, metric)` row of a result file.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    workload: String,
    metric: String,
    unit: String,
    value: f64,
    /// Interquartile distance over the reps as a share of the median.
    spread: f64,
    min: f64,
    max: f64,
    exact: bool,
    reps: usize,
}

fn aggregate(workload: &str, def: &MetricDef, exact: bool, values: &[f64]) -> Row {
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    Row {
        workload: workload.to_string(),
        metric: def.name.to_string(),
        unit: def.unit.to_string(),
        // Memory is a high-water mark: the worst rep is the figure.
        value: if def.name == "peak_rss_mb" {
            max
        } else {
            median(values)
        },
        spread: iqr_share(values),
        min,
        max,
        exact,
        reps: values.len(),
    }
}

pub fn run_all(flags: &Flags) -> Result<u8, String> {
    metrics::validate()?;
    let seed: u64 = flags.parsed("--seed", 1)?;
    let Shape {
        reps,
        seconds,
        file,
    } = if flags.has("--smoke") { SMOKE } else { FULL };
    let out_path = Path::new(OUT_DIR).join(file);

    // Untraced reps, interleaved across workloads.
    let mut untraced: BTreeMap<&str, Vec<Child>> = BTreeMap::new();
    for rep in 0..reps {
        for w in WORKLOADS {
            eprintln!("rep {}/{reps} {}", rep + 1, w.name);
            let child = run_child(w.name, seed, seconds, false, rep)?;
            untraced.entry(w.name).or_default().push(child);
        }
    }
    // Re-run the reps the machine disturbed.
    let fastest_spin = untraced
        .values()
        .flatten()
        .map(|c| c.spin_ms)
        .fold(f64::INFINITY, f64::min);
    let mut reruns = 0usize;
    for w in WORKLOADS {
        let children = untraced.get_mut(w.name).expect("every workload ran");
        let mut budget = MAX_RERUNS;
        for (rep, child) in children.iter_mut().enumerate() {
            while budget > 0 && child.spin_ms > fastest_spin * (1.0 + DRIFT_LIMIT) {
                eprintln!(
                    "re-running {} rep {}: spin {:.2} ms against {:.2} ms",
                    w.name,
                    rep + 1,
                    child.spin_ms,
                    fastest_spin
                );
                *child = run_child(w.name, seed, seconds, false, reps + reruns)?;
                budget -= 1;
                reruns += 1;
            }
        }
    }
    // Traced reps: per-layer metrics, and the exactness audit.
    let mut traced: BTreeMap<&str, Vec<Child>> = BTreeMap::new();
    for rep in 0..TRACED_REPS {
        for w in WORKLOADS {
            eprintln!("traced rep {}/{TRACED_REPS} {}", rep + 1, w.name);
            let child = run_child(w.name, seed, seconds, true, rep)?;
            traced.entry(w.name).or_default().push(child);
        }
    }

    let mut rows = Vec::new();
    let mut audit_failures = Vec::new();
    for w in WORKLOADS {
        for (defs, children) in [
            (END_TO_END, &untraced[w.name]),
            (PER_LAYER, &traced[w.name]),
        ] {
            for def in defs {
                let values: Vec<f64> = children
                    .iter()
                    .map(|c| {
                        c.metrics
                            .get(def.name)
                            .copied()
                            .ok_or(format!("{} did not print {}", w.name, def.name))
                    })
                    .collect::<Result<_, _>>()?;
                let exact = def.exact_on(w);
                let row = aggregate(w.name, def, exact, &values);
                if exact && row.min.to_bits() != row.max.to_bits() {
                    audit_failures.push(format!(
                        "{} {}: {} != {} between reps of one commit",
                        w.name, def.name, row.min, row.max
                    ));
                }
                rows.push(row);
            }
        }
    }

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    write_rows(&out_path, &rows).map_err(|e| format!("{}: {e}", out_path.display()))?;
    for r in &rows {
        let range = if r.min.to_bits() == r.max.to_bits() {
            String::new()
        } else {
            format!(
                "  [{} .. {}], spread {:.1}%",
                r.min,
                r.max,
                r.spread * 100.0
            )
        };
        println!(
            "{:<22} {:<36} {:>16} {:<9}{}{range}",
            r.workload,
            r.metric,
            metrics::json_num(r.value),
            r.unit,
            if r.exact { " exact" } else { "" },
        );
    }
    println!("reps re-run for calibration drift: {reruns}");
    println!("results written to {}", out_path.display());
    if !audit_failures.is_empty() {
        for f in &audit_failures {
            eprintln!("exactness audit: {f}");
        }
        return Ok(1);
    }
    Ok(0)
}

const HEADER: &str = "workload\tmetric\tunit\tvalue\tspread\tmin\tmax\texact\treps";

fn write_rows(path: &Path, rows: &[Row]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{HEADER}")?;
    for r in rows {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.workload,
            r.metric,
            r.unit,
            r.value,
            r.spread,
            r.min,
            r.max,
            u8::from(r.exact),
            r.reps
        )?;
    }
    out.flush()
}

fn read_rows(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut lines = text.lines();
    if lines.next() != Some(HEADER) {
        return Err(format!("{path}: not a perf result file"));
    }
    lines
        .enumerate()
        .map(|(i, line)| {
            let bad = || format!("{path}:{}: malformed row", i + 2);
            let f: Vec<&str> = line.split('\t').collect();
            let num = |k: usize| -> Result<f64, String> {
                f.get(k).and_then(|v| v.parse().ok()).ok_or_else(bad)
            };
            Ok(Row {
                workload: f.first().ok_or_else(bad)?.to_string(),
                metric: f.get(1).ok_or_else(bad)?.to_string(),
                unit: f.get(2).ok_or_else(bad)?.to_string(),
                value: num(3)?,
                spread: num(4)?,
                min: num(5)?,
                max: num(6)?,
                exact: num(7)? != 0.0,
                reps: num(8)? as usize,
            })
        })
        .collect()
}

/// The verdict on one `(workload, metric)` pair, `b` judged against `a`.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Status {
    Ok,
    /// Worse than the bound allows.
    Worse,
    /// Either side's own spread is wider than the bound.
    Unresolved,
    /// An exact metric differs.
    ExactMismatch,
    /// A per-layer host-time metric: reported, not judged.
    Info,
}

fn judge(a: &Row, b: &Row, def: &MetricDef) -> Status {
    if a.exact || b.exact {
        // Exact rows hold one value per rep set; a range (work stealing)
        // is compared by its ends.
        let same = a.min.to_bits() == b.min.to_bits() && a.max.to_bits() == b.max.to_bits();
        return if same {
            Status::Ok
        } else {
            Status::ExactMismatch
        };
    }
    let Some(bound) = def.bound else {
        return Status::Info;
    };
    if a.spread.max(b.spread) > bound {
        return Status::Unresolved;
    }
    let worse_by = if def.higher_is_better {
        (a.value - b.value) / a.value
    } else {
        (b.value - a.value) / a.value
    };
    if worse_by > bound {
        Status::Worse
    } else {
        Status::Ok
    }
}

pub fn compare(paths: &[&str], exact_only: bool) -> Result<u8, String> {
    let [a_path, b_path] = paths else {
        return Err("usage: perf compare <a.tsv> <b.tsv> [--exact-only]".into());
    };
    let a = read_rows(a_path)?;
    let b: BTreeMap<(String, String), Row> = read_rows(b_path)?
        .into_iter()
        .map(|r| ((r.workload.clone(), r.metric.clone()), r))
        .collect();
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    let mut failed = false;
    for ra in &a {
        if exact_only && !ra.exact {
            continue;
        }
        // A row b lacks (or one the table no longer names) was renamed
        // or dropped: nothing vouches for it, so it cannot pass.
        let rb = b.get(&(ra.workload.clone(), ra.metric.clone()));
        let (Some(rb), Some(def)) = (rb, metrics::metric(&ra.metric)) else {
            let label = if ra.exact {
                "exact-mismatch"
            } else {
                "unresolved"
            };
            *counts.entry(label).or_default() += 1;
            failed |= ra.exact;
            println!(
                "{label:<15} {:<22} {:<36} missing from {b_path}",
                ra.workload, ra.metric
            );
            continue;
        };
        let status = judge(ra, rb, def);
        let label = match status {
            Status::Ok => "ok",
            Status::Worse => "worse",
            Status::Unresolved => "unresolved",
            Status::ExactMismatch => "exact-mismatch",
            Status::Info => "info",
        };
        *counts.entry(label).or_default() += 1;
        failed |= matches!(status, Status::Worse | Status::ExactMismatch);
        if status != Status::Ok || def.bound.is_some() {
            println!(
                "{label:<15} {:<22} {:<36} {:>14} -> {:<14} {}  ({:+.1}%)",
                ra.workload,
                ra.metric,
                metrics::json_num(ra.value),
                metrics::json_num(rb.value),
                ra.unit,
                (rb.value / ra.value - 1.0) * 100.0,
            );
        }
    }
    println!("{counts:?}");
    Ok(u8::from(failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(value: f64, spread: f64, exact: bool) -> Row {
        Row {
            workload: "w".into(),
            metric: "op_ms".into(),
            unit: "ms".into(),
            value,
            spread,
            min: value,
            max: value,
            exact,
            reps: 5,
        }
    }

    #[test]
    fn judge_applies_bound_spread_and_exactness() {
        let lower = metrics::metric("op_ms").unwrap();
        let higher = metrics::metric("ops_per_s").unwrap();
        let bound = lower.bound.unwrap();
        let (within, beyond) = (1.0 + bound * 0.9, 1.0 + bound * 1.1);
        let at = |v: f64| row(v, 0.01, false);
        assert_eq!(judge(&at(10.0), &at(10.0 * within), lower), Status::Ok);
        assert_eq!(judge(&at(10.0), &at(10.0 * beyond), lower), Status::Worse);
        assert_eq!(
            judge(&at(10.0), &at(10.0 * (2.0 - beyond)), higher),
            Status::Worse
        );
        assert_eq!(
            judge(&row(10.0, bound * 1.1, false), &at(10.0 * beyond), lower),
            Status::Unresolved
        );
        assert_eq!(
            judge(&row(9030.0, 0.0, true), &row(9031.0, 0.0, true), lower),
            Status::ExactMismatch
        );
    }
}
