//! One run of one workload: what the benchmark's command does.
//!
//! Untraced (`--trace 0`): calibration spin, a cold set-up, one measured
//! segment, the oracle check outside the timed window, more cold set-ups
//! (`setup_s` is their lower quartile), the spin again; prints the
//! end-to-end metrics.
//!
//! Traced (`--trace 1`): a short untraced segment (the baseline for
//! `trace.overhead_pct` and the tails), then a second instance with the
//! stamping sink attached and the benchmark's spans on, the oracle
//! check, the layer probes; prints the per-layer metrics and writes the
//! Chrome trace.

use crate::metrics::{self, Values, END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans::{covered, write_chrome_trace, Leaf, Recorder, Span, StampSink};
use crate::stats::{median, peak_rate, peak_rss_mib, quantile, spin_ms};
use crate::w_eval::{LeveledD3, RlweMulRot};
use crate::w_serve::Serve;
use crate::w_session::{ChainNarrow, Ntt64k};
use crate::workload::{Instance, LayerCtx, Sample, Segment, Teardown, Verdict, Workload};
use rpu::HbmModel;
use rpu_serve::OpMix;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Cold set-ups per untraced run. At least `MIN_SETUPS`, then more while
/// they are cheap: a millisecond set-up needs more repetitions than a
/// 300 ms one to give a steady figure.
const MIN_SETUPS: usize = 10;
const MAX_SETUPS: usize = 40;
const SETUP_BUDGET_S: f64 = 1.0;
/// This box's noise is one-sided: a neighbour on the shared host only
/// ever takes multiplier throughput away, in phases of tens of seconds
/// (perf/README.md has the evidence). So every gated host-time figure is
/// a low quantile of many repetitions inside the run — the part of the
/// run the neighbour left alone — not a median.
const SETUP_QUANTILE: f64 = 0.25;
/// Throughput is the fastest second of the segment: long enough that
/// a serve block is not fast by drawing cheap jobs, short enough that
/// some block of a ten-second run escapes the neighbour.
const RATE_BLOCK_NS: u64 = 1_000_000_000;
/// Shares of `--seconds` the traced run spends on its two segments.
const BASELINE_SHARE: f64 = 0.3;
const TRACED_SHARE: f64 = 0.4;
/// The Chrome trace holds the first quarter second of the traced
/// segment (a few MB on the busiest workload).
const TRACE_FILE_NS: u64 = 250_000_000;
/// The paper's cycle count for the 64K NTT on the (128,128) RPU.
const PAPER_NTT64K_CYCLES: f64 = 11_200.0;
/// Jobs per unit of tenant weight in a traced serve segment: 900 and
/// 3400 jobs over the weights 2/1/1/1, about a second and a half each.
const EVAL_JOBS_PER_WEIGHT: usize = 180;
const TRANSPORT_JOBS_PER_WEIGHT: usize = 680;
/// Where raw samples, traces and `perf run`'s result files go, from the
/// repo root (git-ignored).
pub const OUT_DIR: &str = "perf/out";

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Repetition index, recorded in the samples file; rep 0 truncates
    /// the file, later reps append.
    pub rep: u32,
    /// Feed the oracle one flipped input value: the run must then fail.
    pub corrupt_oracle: bool,
}

pub fn make_workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        metrics::NTT64K => Box::new(Ntt64k::new(seed)),
        metrics::CHAIN => Box::new(ChainNarrow::new(seed)),
        metrics::LEVELED => Box::new(LeveledD3::new(seed)),
        metrics::RLWE => Box::new(RlweMulRot::new(seed)),
        metrics::SERVE_EVAL => Box::new(Serve::new(
            metrics::SERVE_EVAL,
            OpMix::eval_heavy(),
            EVAL_JOBS_PER_WEIGHT,
            seed,
        )),
        metrics::SERVE_TRANSPORT => Box::new(Serve::new(
            metrics::SERVE_TRANSPORT,
            OpMix::transport(),
            TRANSPORT_JOBS_PER_WEIGHT,
            seed,
        )),
        _ => return None,
    })
}

/// What one instance's segment and check produced.
struct Measured {
    setup_s: f64,
    segment: Segment,
    /// The sample kind latencies are read on, and `op_ms`'s quantile.
    latency: (&'static str, f64),
    verdict: Verdict,
    peak_rss_mib: f64,
}

impl Measured {
    fn op_ms(&self) -> Vec<f64> {
        self.segment
            .samples
            .iter()
            .filter(|s| s.kind == self.latency.0)
            .map(|s| s.ns as f64 / 1e6)
            .collect()
    }

    fn op_ms_typical(&self) -> f64 {
        quantile(&self.op_ms(), self.latency.1)
    }

    /// Ops completed over the whole segment's wall time.
    fn ops_per_s(&self) -> f64 {
        let seg = &self.segment;
        seg.samples.len() as f64 / ((seg.end - seg.start) as f64 * 1e-9)
    }

    fn attempted(&self) -> u64 {
        self.segment.samples.len() as u64 + self.segment.never_accepted
    }

    /// Ops that returned `Err`, submissions never accepted, and outputs
    /// the oracle rejected.
    fn failed(&self) -> u64 {
        self.segment.samples.iter().filter(|s| !s.ok).count() as u64
            + self.segment.never_accepted
            + self.verdict.mismatched
    }
}

/// Builds one instance, times its set-up, runs `inside` on it.
fn with_instance(
    w: &dyn Workload,
    sink: Option<Arc<StampSink>>,
    inside: &mut dyn FnMut(&mut dyn Instance, f64),
) -> Teardown {
    let started = Instant::now();
    w.run(sink, &mut |inst| {
        let setup_s = started.elapsed().as_secs_f64();
        inside(inst, setup_s);
    })
}

fn measure(
    w: &dyn Workload,
    sink: Option<Arc<StampSink>>,
    seconds: f64,
    rec: &mut Recorder,
    corrupt_oracle: bool,
    extra: &mut dyn FnMut(&mut dyn Instance, &Measured),
) -> Result<(Measured, Teardown), String> {
    let mut measured = None;
    let traced = sink.is_some();
    let teardown = with_instance(w, sink, &mut |inst, setup_s| {
        rec.open("rep");
        let segment = if traced {
            inst.traced_segment(seconds, rec)
        } else {
            inst.segment(seconds, rec)
        };
        rec.close();
        let peak_rss_mib = peak_rss_mib();
        let verdict = inst.verify(corrupt_oracle);
        let m = Measured {
            setup_s,
            segment,
            latency: w.latency(),
            verdict,
            peak_rss_mib,
        };
        extra(inst, &m);
        measured = Some(m);
    });
    let measured: Measured = measured.expect("the workload ran its body");
    if measured.op_ms().is_empty() {
        return Err(format!(
            "no `{}` sample in a segment of {seconds} s: run for longer",
            measured.latency.0
        ));
    }
    Ok((measured, teardown))
}

/// Runs one workload once and prints the result; the process exit code.
pub fn run_one(args: &RunArgs) -> u8 {
    let Some(w) = make_workload(&args.workload, args.seed) else {
        eprintln!("unknown workload `{}`", args.workload);
        return 2;
    };
    let t0 = Instant::now();
    let spin_before = spin_ms();
    let mut values = Values::default();
    let measured = if args.trace {
        traced(&*w, args, t0, &mut values)
    } else {
        untraced(&*w, args, t0, &mut values)
    };
    let measured = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{}: {e}", w.name());
            return 1;
        }
    };
    let spin_after = spin_ms();
    if args.trace {
        let fastest = spin_before.min(spin_after);
        values.set("calib.spin_ms", fastest);
        values.set(
            "calib.drift_pct",
            (spin_before.max(spin_after) / fastest - 1.0) * 100.0,
        );
    }
    println!("info\tcalib.spin_ms\t{spin_before}\tms\tafter\t{spin_after}");

    let failed = measured.failed();
    let correct = failed == 0 && measured.verdict.checked > 0;
    if measured.verdict.checked == 0 {
        eprintln!("no output was checked against the oracle");
    }
    if let Err(e) = write_samples(args, &measured.segment.samples) {
        eprintln!("could not write the samples file: {e}");
        return 1;
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let rows = values.in_table_order(defs, w.name());
    for (def, value) in &rows {
        println!(
            "metric\t{}\t{}\t{}",
            def.name,
            metrics::json_num(*value),
            def.unit
        );
    }
    println!(
        "{}",
        metrics::result_json(correct, measured.attempted(), failed, &rows)
    );
    if !correct {
        eprintln!(
            "{}: {failed} of {} ops failed or mismatched the oracle",
            w.name(),
            measured.attempted()
        );
        return 1;
    }
    0
}

fn untraced(
    w: &dyn Workload,
    args: &RunArgs,
    t0: Instant,
    values: &mut Values,
) -> Result<Measured, String> {
    // The measured instance comes first, so `peak_rss_mb` is one set-up
    // and one segment, not what the repeated set-ups leave behind.
    let mut rec = Recorder::new(t0, false);
    let (m, teardown) = measure(
        w,
        None,
        args.seconds,
        &mut rec,
        args.corrupt_oracle,
        &mut |_, _| {},
    )?;
    let mut setups = vec![m.setup_s];
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        with_instance(w, None, &mut |_, setup_s| setups.push(setup_s));
    }
    // The only set-up of the run that met a cold process; `perf run`,
    // where every rep is a process of its own, reports this one.
    println!("info\tsetup_s.cold\t{}\ts", m.setup_s);
    println!("info\tsetup_s.all\t{setups:?}");
    println!("info\tops_per_s.segment\t{}\t1/s", m.ops_per_s());
    println!("info\tlive_buffers_leaked\t{}", teardown.live_buffers);

    let mut done: Vec<u64> = m.segment.samples.iter().map(|s| s.start + s.ns).collect();
    done.sort_unstable();
    values.set("setup_s", quantile(&setups, SETUP_QUANTILE));
    values.set("op_ms", m.op_ms_typical());
    values.set("ops_per_s", peak_rate(&done, RATE_BLOCK_NS));
    values.set("peak_rss_mb", m.peak_rss_mib);
    Ok(m)
}

fn traced(
    w: &dyn Workload,
    args: &RunArgs,
    t0: Instant,
    values: &mut Values,
) -> Result<Measured, String> {
    // Untraced baseline: no sink, spans off.
    let mut off = Recorder::new(t0, false);
    let (base, _) = measure(
        w,
        None,
        args.seconds * BASELINE_SHARE,
        &mut off,
        false,
        &mut |_, _| {},
    )?;
    let base_ms = base.op_ms();
    values.set("tail.op_ms_p50", median(&base_ms));
    values.set("tail.op_ms_p90", quantile(&base_ms, 0.90));
    values.set("tail.op_ms_p99", quantile(&base_ms, 0.99));
    values.set("tail.ops_per_s_segment", base.ops_per_s());

    // Traced instance: the sink stamps dispatches, the recorder wraps
    // the benchmark's calls.
    let sink = Arc::new(StampSink::new(t0));
    let mut rec = Recorder::new(t0, true);
    rec.open("workload");
    let (m, teardown) = measure(
        w,
        Some(Arc::clone(&sink)),
        args.seconds * TRACED_SHARE,
        &mut rec,
        args.corrupt_oracle,
        &mut |inst, m| {
            let ctx = LayerCtx {
                op_ms: m.op_ms_typical(),
                setup_ms: m.setup_s * 1e3,
            };
            inst.layer_metrics(&ctx, values);
        },
    )?;
    rec.close();
    values.set(
        "trace.overhead_pct",
        (m.op_ms_typical() / base.op_ms_typical() - 1.0) * 100.0,
    );
    values.set("ntt.oracle_op_ms", m.verdict.oracle_ms_per_check);
    values.set("session.live_buffers_leaked", teardown.live_buffers as f64);

    let seg = &m.segment;
    let ops = seg.samples.len() as f64;
    let all_leaves = sink.leaves();
    let kernels = sink.kernels();
    let in_segment = |l: &Leaf| l.end > seg.start && l.end <= seg.end;

    // --- counts and the modeled clock, from the dispatch leaves -------
    let lanes = w.lanes();
    let mut lane_cycles = vec![0u64; lanes];
    let mut lane_wall = vec![0u64; lanes];
    let mut last_kernel = vec![u16::MAX; lanes];
    let mut per_kernel = vec![0u64; kernels.len()];
    let mut image_loads = vec![0u64; kernels.len()];
    let (mut dispatches, mut reused) = (0u64, 0u64);
    let mut wall_us = Vec::new();
    for l in &all_leaves {
        let lane = l.lane as usize;
        if in_segment(l) {
            dispatches += 1;
            if last_kernel[lane] == l.kernel {
                reused += 1;
            } else {
                image_loads[l.kernel as usize] += 1;
            }
            lane_cycles[lane] += l.cycles;
            lane_wall[lane] += l.wall_ns;
            per_kernel[l.kernel as usize] += 1;
            wall_us.push(l.wall_ns as f64 / 1e3);
        }
        last_kernel[lane] = l.kernel;
    }
    let total_cycles: u64 = lane_cycles.iter().sum();
    let busiest = *lane_cycles.iter().max().expect("at least one lane") as f64;
    let cycles_per_op = total_cycles as f64 / ops;
    values.set("modeled_compute_cycles_per_op", cycles_per_op);
    values.set("session.dispatches_per_op", dispatches as f64 / ops);
    values.set("session.dispatch_us_p50", median(&wall_us));
    values.set(
        "session.image_reuse_ratio",
        reused as f64 / dispatches as f64,
    );
    values.set("lanes.makespan_cycles_per_op", busiest / ops);
    values.set("lanes.overlap", total_cycles as f64 / busiest);
    values.set(
        "lanes.busy_imbalance",
        busiest / (total_cycles as f64 / lanes as f64) - 1.0,
    );
    let seg_wall = (seg.end - seg.start) as f64;
    values.set(
        "lanes.wall_utilization",
        lane_wall.iter().sum::<u64>() as f64 / (seg_wall * lanes as f64),
    );

    // --- data movement -----------------------------------------------
    // Serve segments cannot see lane accounting; their figures are the
    // whole server lifetime over the segment's jobs.
    let transfer = seg.transfer.or(teardown.transfer).unwrap_or_default();
    let host_elems_per_op = transfer.host_elements() as f64 / ops;
    values.set("session.host_elems_per_op", host_elems_per_op);
    values.set(
        "session.device_copy_elems_per_op",
        transfer.device_copies as f64 / ops,
    );
    if let Some(elems) = seg.resident_elems {
        values.set("session.heap_resident_elems", elems as f64);
    }
    if let Some(peak) = teardown.queue_peak {
        values.set("lanes.queue_peak", peak as f64);
        values.set("serve.retries", seg.retries as f64);
        values.set("serve.resident_buffers_end", teardown.live_buffers as f64);
    }

    // --- layer probes on the workload's own kernels -------------------
    let rpu = w.builder().build().expect("valid configuration");
    let arith = probes::arith(values);
    let primary = probes::primary_kernel(w, &rpu, &arith, values);
    probes::session(w, &rpu, &primary, values);
    let table = probes::kernel_table(&rpu, &kernels, &per_kernel);
    values.set("codegen.kernels", table.len() as f64);
    values.set("model.area_mm2", rpu.area().total());
    // Per-op counts first and in key order, so the sum rounds the same
    // whatever the op count and whichever lane dispatched first.
    let energy: f64 = table
        .iter()
        .map(|k| k.dispatches as f64 / ops * k.energy_uj)
        .sum();
    values.set("model.energy_uj_per_op", energy);
    let instrs: f64 = table
        .iter()
        .map(|k| (k.dispatches * k.stats.instructions()) as f64)
        .sum();
    let dispatch_wall_ns = lane_wall.iter().sum::<u64>() as f64;
    values.set("sim.minstr_per_s", instrs / (dispatch_wall_ns / 1e9) / 1e6);
    let compute_us = rpu.cycles_to_us(1) * cycles_per_op;
    values.set(
        "sim.hbm_uncharged_ratio",
        HbmModel::default().transfer_time_us(host_elems_per_op.round() as usize) / compute_us,
    );
    if w.name() == metrics::NTT64K {
        let cycles = values.get("sim.cycles_per_dispatch").expect("probed");
        values.set(
            "sim.cycles_vs_paper_pct",
            (cycles / PAPER_NTT64K_CYCLES - 1.0) * 100.0,
        );
    }
    println!(
        "info\tmodeled_compute_us_per_op\t{compute_us}\tus\tat\t{}\tGHz",
        rpu.clock_ghz()
    );

    // --- where an op's wall time goes ---------------------------------
    // What the session adds to the bare executor over the segment:
    // per dispatch its bookkeeping and operand copies, per image switch
    // the constant-image load. Both are measured per kernel, paired
    // against the executor, so the sum is well-conditioned even where
    // it is a few percent of a 15 ms dispatch.
    let mut quiet = QuietCosts {
        session_ns: 0.0,
        executor_ns: 0.0,
    };
    for k in &table {
        let id = k.id;
        let of_kernel = || all_leaves.iter().filter(move |l| l.kernel as usize == id);
        assert!(
            of_kernel().all(|l| l.cycles == k.stats.cycles),
            "dispatch events and the cycle model disagree on {:?}",
            k.key
        );
        let walls: Vec<f64> = of_kernel()
            .filter(|l| in_segment(l))
            .map(|l| l.wall_ns as f64 / 1e3)
            .collect();
        println!(
            "info\tkernel\t{}\tn={}\tdispatches/op\t{}\timage loads/op\t{}\tdispatch_us_p10\t{}\tfastpath_us\t{}\toverhead_us\t{}\timage_load_us\t{}",
            k.key.op,
            k.key.n,
            k.dispatches as f64 / ops,
            image_loads[id] as f64 / ops,
            quantile(&walls, 0.1),
            k.fastpath_us,
            k.overhead_us,
            k.image_load_us,
        );
        quiet.session_ns +=
            (k.dispatches as f64 * k.overhead_us + image_loads[id] as f64 * k.image_load_us) * 1e3;
        quiet.executor_ns += k.dispatches as f64 * k.fastpath_us * 1e3;
    }
    shares(w.name(), &rec.spans, &all_leaves, seg, &quiet, values);
    let events = rec
        .spans
        .iter()
        .filter(|s| s.start >= seg.start && s.end <= seg.end)
        .count() as u64
        + dispatches;
    values.set("trace.events_per_op", events as f64 / ops);

    let path = Path::new(OUT_DIR).join(format!("{}.trace.json", w.name()));
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        write_chrome_trace(
            &path,
            w.name(),
            &rec.spans,
            &all_leaves,
            &kernels,
            seg.start + TRACE_FILE_NS,
        )
    });
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
    Ok(m)
}

/// What the traced segment's dispatches would cost at the speed the
/// per-kernel probes saw, split by who spends it.
struct QuietCosts {
    /// Session bookkeeping, operand copies and image loads.
    session_ns: f64,
    /// Bare fast-path time.
    executor_ns: f64,
}

/// Self-time shares of the op spans of the traced segment.
fn shares(
    workload: &str,
    spans: &[Span],
    leaves: &[Leaf],
    seg: &Segment,
    quiet: &QuietCosts,
    values: &mut Values,
) {
    let serve = metrics::SERVE.contains(&workload);
    // A lane runs one dispatch at a time, so each lane's leaves are
    // disjoint and already in time order.
    let lanes = leaves
        .iter()
        .map(|l| l.lane as usize + 1)
        .max()
        .unwrap_or(1);
    let mut per_lane: Vec<Vec<&Leaf>> = vec![Vec::new(); lanes];
    for l in leaves {
        per_lane[l.lane as usize].push(l);
    }
    let covered_by = |lo: u64, hi: u64, tenant: Option<u32>| -> u64 {
        let mut inside: Vec<(u64, u64)> = per_lane
            .iter()
            .flat_map(|lane| {
                lane[lane.partition_point(|l| l.end <= lo)..]
                    .iter()
                    .take_while(|l| l.start() < hi)
                    .filter(|l| tenant.is_none_or(|t| l.tenant == t))
                    .map(|l| (l.start(), l.end))
            })
            .collect();
        inside.sort_unstable();
        covered(inside.into_iter(), lo, hi)
    };

    let (mut op_ns, mut dispatch_ns, mut child_ns) = (0u64, 0u64, 0u64);
    let (mut transfer_ns, mut eval_self_ns) = (0u64, 0u64);
    let mut by_name: std::collections::BTreeMap<&str, u64> = Default::default();
    if serve {
        // A job's span is submit → resolve; the dispatches that can be
        // laid to it are its tenant's, on its lane, inside that window.
        for s in &seg.samples {
            op_ns += s.ns;
            dispatch_ns += covered_by(s.start, s.start + s.ns, Some(s.tenant));
        }
        child_ns = op_ns;
    } else {
        let ops: Vec<(usize, &Span)> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "op" && s.start >= seg.start && s.end <= seg.end)
            .collect();
        let first = ops.first().map_or(0, |(i, _)| *i);
        for (_, op) in &ops {
            op_ns += op.end - op.start;
            dispatch_ns += covered_by(op.start, op.end, None);
        }
        for call in spans[first..]
            .iter()
            .filter(|s| s.parent != u32::MAX && spans[s.parent as usize].name == "op")
            .filter(|s| s.start >= seg.start && s.end <= seg.end)
        {
            let dur = call.end - call.start;
            child_ns += dur;
            *by_name.entry(call.name).or_default() += dur;
            match call.name {
                "upload" | "download" => transfer_ns += dur,
                "mul" | "rotate" | "rescale" => {
                    eval_self_ns += dur - covered_by(call.start, call.end, None)
                }
                _ => {}
            }
        }
    }
    let op_ns = op_ns as f64;
    let share = |ns: u64| ns as f64 / op_ns;
    values.set("share.dispatch", share(dispatch_ns));
    values.set("share.transfer", share(transfer_ns));
    values.set("share.evaluator_host", share(eval_self_ns));
    values.set("share.bench_self", 1.0 - share(child_ns));
    // The probes and the segment ran seconds apart, in different phases
    // of the machine, so only the *proportion* of session to executor —
    // both probed in the same breath — is carried over, and applied to
    // the time the traced ops really spent inside dispatches.
    let session = share(dispatch_ns) * quiet.session_ns / (quiet.session_ns + quiet.executor_ns);
    values.set("share.session_overhead", session);
    println!(
        "info\tshare.sim_executor\t{}\tratio",
        share(dispatch_ns) - session
    );
    let named = |name: &str| by_name.get(name).copied().unwrap_or(0);
    match workload {
        metrics::RLWE => {
            values.set("rlwe.mul_share", share(named("mul")));
            values.set("rlwe.rotate_share", share(named("rotate")));
        }
        metrics::LEVELED => {
            values.set("leveled.mul_share", share(named("mul")));
            values.set("leveled.rescale_share", share(named("rescale")));
        }
        _ => {}
    }
}

/// Appends this run's raw per-op samples to `<workload>.samples.csv`:
/// rep, op index, start (ns on the run's clock), ns, job kind, tenant, ok.
fn write_samples(args: &RunArgs, samples: &[Sample]) -> std::io::Result<()> {
    if args.trace {
        return Ok(()); // end-to-end samples come from the untraced runs
    }
    std::fs::create_dir_all(OUT_DIR)?;
    let path = Path::new(OUT_DIR).join(format!("{}.samples.csv", args.workload));
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(args.rep > 0)
        .truncate(args.rep == 0)
        .open(path)?;
    let mut out = std::io::BufWriter::new(&mut file);
    if args.rep == 0 {
        writeln!(out, "rep,op,start_ns,ns,kind,tenant,ok")?;
    }
    for (i, s) in samples.iter().enumerate() {
        writeln!(
            out,
            "{},{i},{},{},{},{},{}",
            args.rep,
            s.start,
            s.ns,
            s.kind,
            s.tenant,
            u8::from(s.ok)
        )?;
    }
    out.flush()
}
