//! What the runner needs from a workload, and the pieces the six
//! workloads share.

use crate::metrics::Values;
use crate::spans::{Recorder, StampSink};
use rpu::ntt::rlwe::Splitmix;
use rpu::{KernelSpec, RpuError, TransferStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed unit of work: an op of a compute workload, a job of a
/// serve workload.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Start, in ns on the recorder's clock.
    pub start: u64,
    pub ns: u64,
    /// `"op"` for compute workloads, the job kind for serve.
    pub kind: &'static str,
    /// Serve tenant index, 0 for compute workloads.
    pub tenant: u32,
    /// The call (or the ticket) returned `Ok`.
    pub ok: bool,
}

/// The measured segment of one run.
#[derive(Debug, Default)]
pub struct Segment {
    pub samples: Vec<Sample>,
    /// Recorder-clock bounds of the segment.
    pub start: u64,
    pub end: u64,
    /// Submissions a serve queue never accepted.
    pub never_accepted: u64,
    /// Data movement over the segment, where the instance can see it.
    pub transfer: Option<TransferStats>,
    /// Device-heap elements in use when the segment ended.
    pub resident_elems: Option<usize>,
    /// Submissions retried after a full queue (serve).
    pub retries: u64,
}

/// Result of comparing retained outputs with the host oracle.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    pub checked: u64,
    pub mismatched: u64,
    /// Host time the oracle spent per checked output.
    pub oracle_ms_per_check: f64,
}

/// What is only known once the instance is torn down.
#[derive(Debug, Default, Clone, Copy)]
pub struct Teardown {
    /// Device buffers still live after everything was freed.
    pub live_buffers: usize,
    /// Whole-run data movement (serve, where segments cannot see it).
    pub transfer: Option<TransferStats>,
    /// Deepest pending-job backlog of the lane pool (serve).
    pub queue_peak: Option<usize>,
}

/// What the runner measured before it asks for layer metrics.
#[derive(Debug, Clone, Copy)]
pub struct LayerCtx {
    /// The traced segment's `op_ms`.
    pub op_ms: f64,
    pub setup_ms: f64,
}

/// A built, keyed, warmed-up system ready to be measured.
pub trait Instance {
    /// Runs ops for `seconds` (and at least once per retained output
    /// slot), timing each.
    fn segment(&mut self, seconds: f64, rec: &mut Recorder) -> Segment;

    /// The segment of a traced run. A workload whose ops differ from one
    /// to the next (the serve job mixes) runs a fixed, seed-determined
    /// sequence here instead of a timed one, so that the traced run's
    /// counts and modeled cycles repeat exactly.
    fn traced_segment(&mut self, seconds: f64, rec: &mut Recorder) -> Segment {
        self.segment(seconds, rec)
    }

    /// Checks every retained output of the last segment against the
    /// host oracle. Outside any timed window. With `corrupt` the oracle
    /// is fed one flipped input value, so the check must fail — the
    /// proof that it can.
    fn verify(&mut self, corrupt: bool) -> Verdict;

    /// Per-layer metrics only this workload can measure, from the live
    /// instance after a traced segment.
    fn layer_metrics(&mut self, _ctx: &LayerCtx, _out: &mut Values) {}
}

/// One of the six named workloads.
pub trait Workload {
    fn name(&self) -> &'static str;

    /// Cold set-up (build the `Rpu`, compile and verify kernels, keygen,
    /// key upload, one warm-up op), then `body` on the live instance,
    /// then teardown. The caller times set-up as call → `body` entry.
    fn run(
        &self,
        sink: Option<Arc<StampSink>>,
        body: &mut dyn FnMut(&mut dyn Instance),
    ) -> Teardown;

    /// The kernel that does most of this workload's device work, for the
    /// per-kernel layer probes.
    fn primary_spec(&self) -> Box<dyn KernelSpec>;

    /// The `Rpu` configuration the workload runs on (probe sessions are
    /// built the same way).
    fn builder(&self) -> rpu::RpuBuilder;

    fn lanes(&self) -> usize;

    /// What `op_ms` reads: the sample kind, and the quantile of its
    /// wall times. An op of a compute workload costs the same every
    /// time, so the low decile is its cost on an undisturbed machine
    /// (perf/README.md, "Why low quantiles").
    fn latency(&self) -> (&'static str, f64) {
        ("op", 0.10)
    }
}

/// Builds the workload's `Rpu`, with the traced run's sink attached.
pub fn build_rpu(builder: rpu::RpuBuilder, sink: Option<Arc<StampSink>>) -> rpu::Rpu {
    match sink {
        Some(sink) => builder.trace(sink),
        None => builder,
    }
    .build()
    .expect("valid configuration")
}

/// `n` residues below `bound` from the seeded stream.
pub fn random_poly(rng: &mut Splitmix, n: usize, bound: u128) -> Vec<u128> {
    (0..n).map(|_| rng.below(bound)).collect()
}

/// The sequential measured loop of the compute workloads: calls `op`
/// until `seconds` have passed and at least `min_ops` ops ran, one
/// `"op"` span and one sample per call.
pub fn timed_loop(
    seconds: f64,
    min_ops: usize,
    rec: &mut Recorder,
    mut op: impl FnMut(usize, &mut Recorder) -> Result<(), RpuError>,
) -> Segment {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut seg = Segment {
        start: rec.now(),
        ..Segment::default()
    };
    let mut i = 0;
    while i < min_ops || started.elapsed() < budget {
        let start = rec.now();
        rec.open("op");
        let t = Instant::now();
        let result = op(i, rec);
        let ns = t.elapsed().as_nanos() as u64;
        rec.close();
        if let Err(e) = &result {
            eprintln!("op {i} failed: {e}");
        }
        seg.samples.push(Sample {
            start,
            ns,
            kind: "op",
            tenant: 0,
            ok: result.is_ok(),
        });
        i += 1;
    }
    seg.end = rec.now();
    seg
}

/// Host time of `f`, in milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}
