//! The single table of workloads and metrics. `BENCHMARK.json` is
//! generated from it (`perf manifest`), the runner refuses to print a
//! metric that is not in it, and `perf/README.md` explains each row.

use std::collections::BTreeMap;

/// How far the dispatch stream of a workload's traced run repeats
/// between runs of one commit. Each level includes the ones before it.
/// On a metric: the least its workload must repeat for the metric to
/// read the same bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Repeats {
    /// The same dispatches per op, so counts and summed cycles repeat.
    /// (`rlwe_mulrot_wide_2k`: digit jobs are work-stolen between lanes.)
    Counts,
    /// ... each on the same lane, so per-lane sums repeat. (The serve
    /// workloads: tenants have home lanes, but the order in which a lane
    /// serves its two tenants depends on when their jobs arrive.)
    Lanes,
    /// ... in the same order on each lane.
    Order,
}

/// Where a metric is measured. Outside its scope a metric reads 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    All,
    Only(&'static [&'static str]),
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen.
    pub bound: Option<f64>,
    /// `None` for host time or a ratio of host times: never exact.
    pub exact: Option<Repeats>,
    pub scope: Scope,
    /// Per-layer metrics: the end-to-end metric this one should move,
    /// and on which workloads.
    pub moves: Option<(&'static str, &'static [&'static str])>,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub repeats: Repeats,
}

pub const NTT64K: &str = "ntt64k_wide";
pub const CHAIN: &str = "chain_narrow_1k";
pub const LEVELED: &str = "leveled_d3_narrow_1k";
pub const RLWE: &str = "rlwe_mulrot_wide_2k";
pub const SERVE_EVAL: &str = "serve_eval_2k";
pub const SERVE_TRANSPORT: &str = "serve_transport_2k";

const COMPUTE: &[&str] = &[NTT64K, CHAIN, LEVELED, RLWE];
const WIDE: &[&str] = &[NTT64K, RLWE, SERVE_EVAL];
const NARROW: &[&str] = &[CHAIN, LEVELED];
const EVALUATORS: &[&str] = &[LEVELED, RLWE];
const MULTI_LANE: &[&str] = &[LEVELED, RLWE, SERVE_EVAL, SERVE_TRANSPORT];
pub const SERVE: &[&str] = &[SERVE_EVAL, SERVE_TRANSPORT];
const EVERY: &[&str] = &[NTT64K, CHAIN, LEVELED, RLWE, SERVE_EVAL, SERVE_TRANSPORT];

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: NTT64K,
        why: "The paper's headline kernel: one resident 64K forward NTT dispatch, ~126-bit q, (128,128). \
              rpu-sim fast path plus the Mont128 engine do >95% of the work; session bookkeeping almost none.",
        repeats: Repeats::Order,
    },
    WorkloadDef {
        name: CHAIN,
        why: "The inverse of ntt64k_wide: 64 tiny 59-bit dispatches per op, each switching kernel, so the \
              constant image reloads and session overhead is a large share; native-u64 engine; upload+download per op.",
        repeats: Repeats::Order,
    },
    WorkloadDef {
        name: LEVELED,
        why: "Depth-3 mul_rescale chain, 4x59-bit towers on 2 lanes: LeveledEvaluator host work (gadget \
              decompose, rescale correction, per-rescale round trips) and static tower placement dominate.",
        repeats: Repeats::Order,
    },
    WorkloadDef {
        name: RLWE,
        why: "mul then rotate on RlweEvaluator, n=2048, ~120-bit q, 2 lanes: the second evaluator copy, \
              with work-stolen key-switch digit jobs and vgather automorphism kernels on Mont128.",
        repeats: Repeats::Counts,
    },
    WorkloadDef {
        name: SERVE_EVAL,
        why: "rpu-serve closed loop, 4 tenants (weights 2/1/1/1) on 2 lanes, 4 tickets in flight each, \
              eval-heavy mix: the third recipe copy under queueing, batching and weighted-fair scheduling.",
        repeats: Repeats::Lanes,
    },
    WorkloadDef {
        name: SERVE_TRANSPORT,
        why: "Same server and driver, transport mix: upload-heavy encrypt and download-heavy decrypt with \
              rare evaluation, so a batching or key-switch gain that taxes the transport path shows here.",
        repeats: Repeats::Lanes,
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound: Some(bound),
        exact: None,
        scope: Scope::All,
        moves: None,
    }
}

/// What a user of the stack sees, all on the host clock and never 0.
/// Modeled device time is deliberately *not* here: it repeats exactly,
/// and the acceptance check refuses a time that reads the same on every
/// run — it is the per-layer metric `modeled_compute_cycles_per_op`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("op_ms", "ms", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.10),
];

const fn host(
    name: &'static str,
    unit: &'static str,
    moves: Option<(&'static str, &'static [&'static str])>,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: None,
        exact: None,
        scope: Scope::All,
        moves,
    }
}

const fn count(
    name: &'static str,
    unit: &'static str,
    exact: Option<Repeats>,
    moves: Option<(&'static str, &'static [&'static str])>,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: None,
        exact,
        scope: Scope::All,
        moves,
    }
}

impl MetricDef {
    const fn higher(mut self) -> Self {
        self.higher_is_better = true;
        self
    }
    const fn only(mut self, workloads: &'static [&'static str]) -> Self {
        self.scope = Scope::Only(workloads);
        self
    }
}

const OP: &str = "op_ms";
const OPS: &str = "ops_per_s";
const SETUP: &str = "setup_s";
const RSS: &str = "peak_rss_mb";

/// One row per layer number; layers are this repo's crates, with the
/// `rpu` core crate split into its source modules.
pub const PER_LAYER: &[MetricDef] = &[
    // --- harness -----------------------------------------------------
    host("calib.spin_ms", "ms", None),
    host("calib.drift_pct", "%", None),
    host("trace.overhead_pct", "%", None),
    count("trace.events_per_op", "count", Some(Repeats::Counts), None),
    host("tail.op_ms_p50", "ms", None),
    host("tail.op_ms_p90", "ms", None),
    host("tail.op_ms_p99", "ms", None),
    host("tail.ops_per_s_segment", "1/s", None).higher(),
    // --- the modeled clock -------------------------------------------
    count(
        "modeled_compute_cycles_per_op",
        "cycles",
        Some(Repeats::Counts),
        None,
    ),
    // --- rpu-arith ---------------------------------------------------
    host("arith.mont128_mul_ns_per_lane", "ns", Some((OP, WIDE))),
    host("arith.mont128_add_ns_per_lane", "ns", Some((OP, WIDE))),
    host("arith.native64_mul_ns_per_lane", "ns", Some((OP, NARROW))),
    host("arith.native64_add_ns_per_lane", "ns", Some((OP, NARROW))),
    host(
        "arith.gadget_decompose_ns_per_coeff",
        "ns",
        Some((OP, EVALUATORS)),
    ),
    // --- rpu-isa -----------------------------------------------------
    host("isa.predecode_ms", "ms", Some((SETUP, &[NTT64K]))),
    count(
        "isa.program_instrs",
        "count",
        Some(Repeats::Counts),
        Some((SETUP, &[NTT64K])),
    ),
    // --- rpu-ntt (host oracles) --------------------------------------
    host("ntt.host_ntt_ms", "ms", None),
    host("ntt.oracle_op_ms", "ms", None),
    host(
        "ntt.rescale_correction_share",
        "ratio",
        Some((OP, &[LEVELED])),
    )
    .only(&[LEVELED]),
    // --- rpu-codegen -------------------------------------------------
    host("codegen.generate_ms", "ms", Some((SETUP, EVERY))),
    host("codegen.verify_ms", "ms", Some((SETUP, EVERY))),
    count(
        "codegen.kernels",
        "count",
        Some(Repeats::Counts),
        Some((SETUP, EVERY)),
    ),
    count(
        "codegen.image_elems",
        "elems",
        Some(Repeats::Counts),
        Some((SETUP, EVERY)),
    ),
    // --- rpu-sim -----------------------------------------------------
    host("sim.fastpath_us_per_dispatch", "us", Some((OP, &[NTT64K]))),
    host("sim.minstr_per_s", "Minstr/s", Some((OPS, &[NTT64K]))).higher(),
    host("sim.floor_ratio", "ratio", Some((OP, &[NTT64K]))),
    host("sim.interp_us_per_dispatch", "us", Some((SETUP, &[NTT64K]))),
    host("sim.cycle_model_ms", "ms", Some((SETUP, &[NTT64K]))),
    count(
        "sim.cycles_per_dispatch",
        "cycles",
        Some(Repeats::Counts),
        None,
    ),
    count("sim.ipc", "instr/cycle", Some(Repeats::Counts), None).higher(),
    count(
        "sim.stall_hazard_cycles",
        "cycles",
        Some(Repeats::Counts),
        None,
    ),
    count(
        "sim.stall_queue_full_cycles",
        "cycles",
        Some(Repeats::Counts),
        None,
    ),
    count(
        "sim.pipe_util.compute",
        "ratio",
        Some(Repeats::Counts),
        None,
    )
    .higher(),
    count(
        "sim.pipe_util.load_store",
        "ratio",
        Some(Repeats::Counts),
        None,
    )
    .higher(),
    count(
        "sim.pipe_util.shuffle",
        "ratio",
        Some(Repeats::Counts),
        None,
    )
    .higher(),
    count("sim.cycles_vs_paper_pct", "%", Some(Repeats::Counts), None).only(&[NTT64K]),
    count(
        "sim.hbm_uncharged_ratio",
        "ratio",
        Some(Repeats::Counts),
        None,
    ),
    // --- rpu-model ---------------------------------------------------
    count("model.energy_uj_per_op", "uJ", Some(Repeats::Counts), None),
    count("model.area_mm2", "mm2", Some(Repeats::Counts), None),
    // --- rpu core: session -------------------------------------------
    host("session.dispatch_us_p50", "us", Some((OP, &[CHAIN]))),
    host(
        "session.overhead_us_per_dispatch",
        "us",
        Some((OP, &[CHAIN])),
    ),
    count(
        "session.image_reuse_ratio",
        "ratio",
        Some(Repeats::Order),
        Some((OP, &[CHAIN])),
    )
    .higher(),
    host("session.alloc_free_us", "us", Some((OP, &[CHAIN]))),
    host(
        "session.upload_ns_per_elem",
        "ns",
        Some((OP, &[SERVE_TRANSPORT, CHAIN])),
    ),
    host(
        "session.download_ns_per_elem",
        "ns",
        Some((OP, &[SERVE_TRANSPORT, CHAIN])),
    ),
    host("session.compile_cold_ms", "ms", Some((SETUP, EVERY))),
    host("session.compile_warm_us", "us", Some((SETUP, EVERY))),
    count(
        "session.dispatches_per_op",
        "count",
        Some(Repeats::Counts),
        Some((OP, EVERY)),
    ),
    count(
        "session.host_elems_per_op",
        "elems",
        Some(Repeats::Counts),
        Some((OP, EVERY)),
    ),
    count(
        "session.device_copy_elems_per_op",
        "elems",
        Some(Repeats::Counts),
        Some((OP, EVERY)),
    ),
    count(
        "session.heap_resident_elems",
        "elems",
        Some(Repeats::Counts),
        Some((RSS, COMPUTE)),
    )
    .only(COMPUTE),
    count(
        "session.live_buffers_leaked",
        "count",
        Some(Repeats::Counts),
        None,
    ),
    // --- rpu core: lanes ---------------------------------------------
    count(
        "lanes.makespan_cycles_per_op",
        "cycles",
        Some(Repeats::Lanes),
        Some((OPS, MULTI_LANE)),
    ),
    count(
        "lanes.overlap",
        "ratio",
        Some(Repeats::Lanes),
        Some((OPS, MULTI_LANE)),
    )
    .higher(),
    count(
        "lanes.busy_imbalance",
        "ratio",
        Some(Repeats::Lanes),
        Some((OPS, MULTI_LANE)),
    ),
    host("lanes.wall_utilization", "ratio", Some((OPS, MULTI_LANE))).higher(),
    count("lanes.queue_peak", "count", None, Some((OPS, SERVE))).only(SERVE),
    // --- where an op's wall time goes (traced run, self times) -------
    host("share.dispatch", "ratio", None),
    host("share.session_overhead", "ratio", Some((OP, &[CHAIN]))),
    host("share.transfer", "ratio", Some((OP, &[CHAIN]))),
    host("share.evaluator_host", "ratio", Some((OP, EVALUATORS))),
    host("share.bench_self", "ratio", None),
    // --- rpu core: rlwe ----------------------------------------------
    host("rlwe.mul_share", "ratio", Some((OP, &[RLWE]))).only(&[RLWE]),
    host("rlwe.rotate_share", "ratio", Some((OP, &[RLWE]))).only(&[RLWE]),
    // --- rpu core: leveled -------------------------------------------
    host("leveled.mul_share", "ratio", Some((OP, &[LEVELED]))).only(&[LEVELED]),
    host("leveled.rescale_share", "ratio", Some((OP, &[LEVELED]))).only(&[LEVELED]),
    count(
        "leveled.noise_bits_end",
        "bits",
        Some(Repeats::Counts),
        None,
    )
    .only(&[LEVELED]),
    // --- rpu core: snapshot ------------------------------------------
    // Not exact: the snapshot holds the heap's free list, whose length
    // depends on how many ops ran before it (read 16 bytes apart).
    count("snapshot.bytes", "bytes", None, Some((RSS, &[LEVELED]))).only(&[LEVELED]),
    host("snapshot.roundtrip_x_op", "ratio", None).only(&[LEVELED]),
    // --- rpu-serve ---------------------------------------------------
    host("serve.lat_x_solo.encrypt", "ratio", Some((OP, SERVE))).only(SERVE),
    host("serve.lat_x_solo.mul", "ratio", Some((OP, SERVE))).only(SERVE),
    host(
        "serve.lat_x_solo.rotate",
        "ratio",
        Some((OP, &[SERVE_EVAL])),
    )
    .only(SERVE),
    host("serve.lat_x_solo.decrypt", "ratio", Some((OP, SERVE))).only(SERVE),
    host("serve.queue_wait_share", "ratio", Some((OP, SERVE))).only(SERVE),
    count("serve.retries", "count", None, None).only(SERVE),
    host("serve.weight2_share", "ratio", None)
        .higher()
        .only(SERVE),
    count("serve.resident_buffers_end", "count", None, None).only(SERVE),
    host(
        "serve.register_share_of_setup",
        "ratio",
        Some((SETUP, SERVE)),
    )
    .only(SERVE),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

impl MetricDef {
    /// Must this metric repeat exactly between runs on `workload`?
    pub fn exact_on(&self, workload: &WorkloadDef) -> bool {
        self.exact.is_some_and(|needs| workload.repeats >= needs)
    }

    pub fn in_scope(&self, workload: &str) -> bool {
        match self.scope {
            Scope::All => true,
            Scope::Only(ws) => ws.contains(&workload),
        }
    }
}

/// The values one run measured, keyed by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`; a name missing from the table is a
    /// bug in the benchmark, not in the program measured.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            metric(name).is_some(),
            "metric `{name}` is not in the table"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every metric of `defs` in table order. A metric out of scope on
    /// `workload` reads 0; one in scope that was not measured is a bug.
    pub fn in_table_order(
        &self,
        defs: &'static [MetricDef],
        workload: &str,
    ) -> Vec<(&'static MetricDef, f64)> {
        defs.iter()
            .map(|def| {
                let value = match self.get(def.name) {
                    Some(v) => v,
                    None if !def.in_scope(workload) => 0.0,
                    None => panic!("metric `{}` was not measured on {workload}", def.name),
                };
                (def, value)
            })
            .collect()
    }
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

const TIME_UNITS: &[&str] = &["s", "ms", "us", "ns"];

/// Checks the table against the limits `BENCHMARK.json` must keep.
pub fn validate() -> Result<(), String> {
    if !(2..=8).contains(&WORKLOADS.len()) {
        return Err(format!("{} workloads, need 2..=8", WORKLOADS.len()));
    }
    if !(1..=16).contains(&END_TO_END.len()) || !(1..=128).contains(&PER_LAYER.len()) {
        return Err("metric count outside 1..=16 end-to-end / 1..=128 per-layer".into());
    }
    let mut seen = std::collections::BTreeSet::new();
    for w in WORKLOADS {
        if !name_ok(w.name) || !seen.insert(w.name) {
            return Err(format!("bad or repeated workload name `{}`", w.name));
        }
        if w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!(
                "`why` of {} is not one line of <=200 chars",
                w.name
            ));
        }
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        if !name_ok(m.name) || !seen.insert(m.name) {
            return Err(format!("bad or repeated metric name `{}`", m.name));
        }
        if !unit_ok(m.unit) {
            return Err(format!("bad unit `{}` on {}", m.unit, m.name));
        }
        // A time that reads the same on every run is refused, so a time
        // must be measured everywhere and must not be exact.
        if TIME_UNITS.contains(&m.unit) && (m.scope != Scope::All || m.exact.is_some()) {
            return Err(format!("{} is a time but scoped or exact", m.name));
        }
        if let Scope::Only(ws) = m.scope {
            if let Some(w) = ws.iter().find(|w| workload(w).is_none()) {
                return Err(format!("{} is scoped to unknown workload {w}", m.name));
            }
        }
        if let Some((target, ws)) = m.moves {
            if !END_TO_END.iter().any(|e| e.name == target) {
                return Err(format!("{} moves unknown metric {target}", m.name));
            }
            if let Some(w) = ws.iter().find(|w| workload(w).is_none()) {
                return Err(format!("{} moves {target} on unknown workload {w}", m.name));
            }
        }
    }
    for m in END_TO_END {
        match m.bound {
            Some(b) if b > 0.0 && b <= 0.25 => {}
            _ => return Err(format!("{} needs a bound in (0, 0.25]", m.name)),
        }
    }
    if !END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better)
    {
        return Err("end_to_end must hold setup_s in s, lower is better".into());
    }
    Ok(())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, exactly as committed at the repo root.
pub fn manifest_json() -> String {
    let better = |m: &MetricDef| {
        if m.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    };
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perf\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            json_str(w.name),
            json_str(w.why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            better(m),
            m.bound.expect("validated"),
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            better(m),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The last line a run prints: the result object the driver reads.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static MetricDef, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(def, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(def.name),
                json_num(*v),
                json_str(def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number with every digit the measurement has (`{}` on
/// an `f64` prints the shortest text that reads back to the same value).
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_valid() {
        validate().unwrap();
    }

    #[test]
    fn names_and_units_are_checked() {
        assert!(name_ok("sim.pipe_util.load_store") && !name_ok(".x") && !name_ok("a b"));
        assert!(unit_ok("1/s") && unit_ok("%") && !unit_ok("µs"));
    }
}
