//! The two `rpu-serve` workloads: one server, one closed-loop driver,
//! two job mixes.
//!
//! Closed loop, because tenants are in-process callers that wait on
//! tickets behind bounded queues: two generator threads (one per lane)
//! each drive the two tenants homed on their lane, keep
//! [`IN_FLIGHT`] tickets per tenant outstanding, and block on the
//! oldest. Tenant 0 has weight 2 and shares lane 0 with weight-1
//! tenant 2, so the weighted-fair queue really arbitrates.
//!
//! A tenant's job stream is a function of the seed alone: job `k` picks
//! its operands among what jobs up to `k - IN_FLIGHT` produced, which
//! have been collected whenever job `k` is drawn, however fast tickets
//! resolve. An untraced segment submits until its time is up; a traced
//! one submits a fixed number of jobs per tenant, so its dispatch counts
//! and modeled cycles repeat exactly.

use crate::metrics::Values;
use crate::spans::{Recorder, StampSink};
use crate::stats::median;
use crate::workload::{
    build_rpu, random_poly, time_ms, Instance, LayerCtx, Sample, Segment, Teardown, Verdict,
    Workload,
};
use rpu::ntt::rlwe::{Ciphertext, RlweContext, RlweParams, Splitmix};
use rpu::{CodegenStyle, KernelSpec, KeySwitchSpec, PrimeTable, Rpu, RpuBuilder};
use rpu_serve::{
    serve, CtHandle, JobOutput, JobRequest, JobTicket, OpMix, ServeConfig, ServeError,
    ServerHandle, TenantId, TenantSpec,
};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 2048;
const T: u128 = 65537;
const LANES: usize = 2;
const HEAP_ELEMS: usize = 1 << 20;
const WEIGHTS: [u32; 4] = [2, 1, 1, 1];
/// Tickets each tenant keeps outstanding.
const IN_FLIGHT: usize = 4;
/// Past this many resident ciphertexts a tenant's next job is a `Free`
/// (the rule `rpu_serve::run_traffic` uses to bound device memory).
const MAX_LIVE_CTS: usize = 16;
/// The server's default gadget base, named so the host mirror derives
/// the same key material.
const BASE_LOG: u32 = 16;

pub struct Serve {
    name: &'static str,
    mix: OpMix,
    /// Jobs per unit of tenant weight in a traced segment.
    traced_jobs_per_weight: usize,
    seed: u64,
    params: RlweParams,
}

impl Serve {
    pub fn new(name: &'static str, mix: OpMix, traced_jobs_per_weight: usize, seed: u64) -> Self {
        let q = PrimeTable::new().ntt_prime(N).expect("prime exists");
        Serve {
            name,
            mix,
            traced_jobs_per_weight,
            seed,
            params: RlweParams { n: N, q, t: T },
        }
    }

    fn tenant_seed(&self, index: usize) -> u64 {
        self.seed
            .wrapping_add((index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

impl Workload for Serve {
    fn name(&self) -> &'static str {
        self.name
    }

    fn builder(&self) -> RpuBuilder {
        Rpu::builder().lanes(LANES).device_heap_elements(HEAP_ELEMS)
    }

    fn lanes(&self) -> usize {
        LANES
    }

    /// The median `mul` job. `mul` is the heaviest kind of both mixes;
    /// the cheap kinds resolve in a fraction of its time, so a figure
    /// over all jobs pooled would mostly read them. A job waits behind
    /// zero, one, two, ... others, so its latencies come in steps and a
    /// low quantile sits on the edge of one (the 10th percentile of
    /// `mul` moved by half between seeds); the median lies in the bulk.
    fn latency(&self) -> (&'static str, f64) {
        ("mul", 0.50)
    }

    fn primary_spec(&self) -> Box<dyn KernelSpec> {
        Box::new(KeySwitchSpec::new(
            N,
            self.params.q,
            CodegenStyle::Optimized,
        ))
    }

    fn run(
        &self,
        sink: Option<Arc<StampSink>>,
        body: &mut dyn FnMut(&mut dyn Instance),
    ) -> Teardown {
        let rpu = build_rpu(self.builder(), sink);
        let q = rpu.session().primes_for(N).expect("prime exists");
        assert_eq!(q, self.params.q);
        let config = ServeConfig::new(self.params);
        assert_eq!(config.ksk_base_log, BASE_LOG);
        let ((), report) = serve(&rpu, config, |server| {
            // Tenant `i` is homed on lane `i % LANES`; each generator
            // thread gets one lane's tenants.
            let mut by_lane: Vec<Vec<TenantDriver>> = (0..LANES).map(|_| Vec::new()).collect();
            let ((), register_ms) = time_ms(|| {
                for (i, &weight) in WEIGHTS.iter().enumerate() {
                    let spec = TenantSpec::new(self.tenant_seed(i))
                        .weight(weight)
                        .rotations(vec![1]);
                    let id = server.register_tenant(spec).expect("tenant registers");
                    by_lane[i % LANES].push(TenantDriver::new(id, i, weight, self.seed));
                }
            });
            let mut inst = ServeInstance {
                workload: self,
                server: server.clone(),
                by_lane,
                register_ms,
                last: Vec::new(),
            };
            inst.warm_up();
            body(&mut inst);
            for t in inst.by_lane.iter().flatten() {
                server.teardown(t.id).expect("tenant tears down");
            }
        })
        .expect("server starts");
        Teardown {
            live_buffers: report.resident_buffers.iter().sum(),
            transfer: Some(report.cluster.transfer),
            queue_peak: Some(report.cluster.queue_peak),
        }
    }
}

struct InFlight {
    ticket: JobTicket,
    kind: &'static str,
    submitted: u64,
    /// Position in the tenant's job stream.
    job: usize,
    /// Index into the tenant's replay log, for the logged tenant.
    log_index: Option<usize>,
}

/// A job as the driver plans it: a `JobRequest` without its message.
#[derive(Clone, Copy)]
enum Plan {
    Encrypt,
    Mul { x: CtHandle, y: CtHandle },
    Rotate { ct: CtHandle },
    Decrypt { ct: CtHandle },
    Free { ct: CtHandle },
}

impl Plan {
    fn kind(&self) -> &'static str {
        match self {
            Plan::Encrypt => "encrypt",
            Plan::Mul { .. } => "mul",
            Plan::Rotate { .. } => "rotate",
            Plan::Decrypt { .. } => "decrypt",
            Plan::Free { .. } => "free",
        }
    }
}

/// One logged job, kept small so the log does not show in `peak_rss_mb`:
/// a message is remembered as the generator state that drew it, a
/// decrypted plaintext as its digest.
struct Logged {
    plan: Plan,
    /// The tenant's traffic stream just before this job drew from it.
    drawn_from: Splitmix,
    output: Option<LoggedOutput>,
}

#[derive(PartialEq)]
enum LoggedOutput {
    Ciphertext(CtHandle),
    PlaintextDigest(u64),
    Freed,
}

fn digest(plaintext: &[u128]) -> u64 {
    plaintext.iter().fold(0xcbf2_9ce4_8422_2325, |h, &v| {
        (h ^ v as u64 ^ (v >> 64) as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One tenant as its generator thread sees it.
struct TenantDriver {
    id: TenantId,
    index: usize,
    weight: u32,
    /// The tenant's traffic stream: job kinds, operand picks, messages.
    rng: Splitmix,
    /// Resident ciphertexts, each with the position of the job that
    /// produced it, in that order.
    live: Vec<(usize, CtHandle)>,
    /// Jobs submitted so far: the next job's position in the stream.
    submitted: usize,
    /// The server refused a submission; the tenant submits no more.
    refused: bool,
    inflight: VecDeque<InFlight>,
    /// Tenant 0 only: every job it ever submitted, in submission order,
    /// with what the ticket resolved to — the host mirror replays
    /// exactly this.
    log: Option<Vec<Logged>>,
}

impl TenantDriver {
    fn new(id: TenantId, index: usize, weight: u32, seed: u64) -> Self {
        TenantDriver {
            id,
            index,
            weight,
            rng: Splitmix::new(
                seed.wrapping_add((index as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03)),
            ),
            live: Vec::new(),
            submitted: 0,
            refused: false,
            inflight: VecDeque::new(),
            log: (index == 0).then(Vec::new),
        }
    }

    /// Draws the next job from `mix`. Kinds that need resident
    /// ciphertexts degrade to `Encrypt` while the tenant holds too few.
    fn next_plan(&mut self, mix: &OpMix) -> Plan {
        // Tickets are collected oldest first and at most `IN_FLIGHT` are
        // out, so what jobs this far back produced is in `live` whenever
        // this job is drawn; anything later may or may not be yet.
        let settled = self
            .live
            .partition_point(|&(job, _)| job + IN_FLIGHT <= self.submitted);
        let live: Vec<CtHandle> = self.live[..settled].iter().map(|&(_, ct)| ct).collect();
        let rng = &mut self.rng;
        let mut pick = |len: usize| rng.below(len as u128) as usize;
        if live.len() > MAX_LIVE_CTS {
            return Plan::Free {
                ct: live[pick(live.len())],
            };
        }
        let weights = [mix.encrypt, mix.mul, mix.rotate, mix.decrypt, mix.free];
        let total: usize = weights.iter().map(|&w| w as usize).sum();
        let mut draw = pick(total.max(1));
        let mut kind = weights.len() - 1;
        for (k, &w) in weights.iter().enumerate() {
            if draw < w as usize {
                kind = k;
                break;
            }
            draw -= w as usize;
        }
        match kind {
            1 if live.len() >= 2 => Plan::Mul {
                x: live[pick(live.len())],
                y: live[pick(live.len())],
            },
            2 if !live.is_empty() => Plan::Rotate {
                ct: live[pick(live.len())],
            },
            3 if !live.is_empty() => Plan::Decrypt {
                ct: live[pick(live.len())],
            },
            4 if !live.is_empty() => Plan::Free {
                ct: live[pick(live.len())],
            },
            _ => Plan::Encrypt,
        }
    }

    /// Submits `plan` (drawing the message of an `Encrypt` now); `false`
    /// means the server refused it, which ends the tenant's stream.
    fn submit(&mut self, server: &ServerHandle, plan: Plan, now: u64) -> bool {
        let drawn_from = self.rng.clone();
        let request = match plan {
            Plan::Encrypt => JobRequest::Encrypt {
                message: random_poly(&mut self.rng, N, T),
            },
            Plan::Mul { x, y } => JobRequest::Mul { x, y },
            Plan::Rotate { ct } => JobRequest::Rotate { ct, steps: 1 },
            Plan::Decrypt { ct } => JobRequest::Decrypt { ct },
            Plan::Free { ct } => JobRequest::Free { ct },
        };
        match server.submit(self.id, request) {
            Ok(ticket) => {
                if let Plan::Free { ct } = plan {
                    self.live.retain(|&(_, live)| live != ct);
                }
                let log_index = self.log.as_mut().map(|log| {
                    log.push(Logged {
                        plan,
                        drawn_from,
                        output: None,
                    });
                    log.len() - 1
                });
                self.inflight.push_back(InFlight {
                    ticket,
                    kind: plan.kind(),
                    submitted: now,
                    job: self.submitted,
                    log_index,
                });
                self.submitted += 1;
                true
            }
            Err(e) => {
                eprintln!("tenant {} submission refused: {e}", self.index);
                self.refused = true;
                false
            }
        }
    }

    /// Submits `plan` and waits for it: the warm-up and solo jobs.
    fn submit_and_wait(&mut self, server: &ServerHandle, plan: Plan) -> Sample {
        let started = Instant::now();
        assert!(self.submit(server, plan, 0), "an idle queue accepts");
        let result = self.inflight[0].ticket.wait();
        self.collect(result, started.elapsed().as_nanos() as u64)
    }

    /// Takes the oldest ticket's `result` and turns it into a sample.
    fn collect(&mut self, result: Result<JobOutput, ServeError>, now: u64) -> Sample {
        let job = self.inflight.pop_front().expect("a ticket is in flight");
        let output = match &result {
            Ok(JobOutput::Ciphertext(ct)) => {
                self.live.push((job.job, *ct));
                Some(LoggedOutput::Ciphertext(*ct))
            }
            Ok(JobOutput::Plaintext(p)) => Some(LoggedOutput::PlaintextDigest(digest(p))),
            Ok(JobOutput::Freed) => Some(LoggedOutput::Freed),
            Err(e) => {
                eprintln!("tenant {} {} job failed: {e}", self.index, job.kind);
                None
            }
        };
        if let (Some(log), Some(at)) = (self.log.as_mut(), job.log_index) {
            log[at].output = output;
        }
        Sample {
            start: job.submitted,
            ns: now - job.submitted,
            kind: job.kind,
            tenant: self.index as u32,
            ok: result.is_ok(),
        }
    }
}

#[derive(Default)]
struct GeneratorOutput {
    samples: Vec<Sample>,
    never_accepted: u64,
}

/// When a generator stops submitting.
#[derive(Clone, Copy)]
enum Stop {
    After(Duration),
    /// Once each tenant has submitted this many jobs per unit of its
    /// weight, so tenants sharing a lane stay busy about equally long.
    JobsPerWeight(usize),
}

/// One generator thread: keeps every tenant it owns at [`IN_FLIGHT`]
/// tickets until `stop`, then drains.
fn generate(
    server: &ServerHandle,
    tenants: &mut [TenantDriver],
    mix: &OpMix,
    t0: Instant,
    stop: Stop,
) -> GeneratorOutput {
    let now = || t0.elapsed().as_nanos() as u64;
    let started = Instant::now();
    let first_job: Vec<usize> = tenants.iter().map(|t| t.submitted).collect();
    let mut out = GeneratorOutput::default();
    loop {
        for (t, first_job) in tenants.iter_mut().zip(&first_job) {
            while t.inflight.len() < IN_FLIGHT
                && !t.refused
                && match stop {
                    Stop::After(budget) => started.elapsed() < budget,
                    Stop::JobsPerWeight(jobs) => t.submitted - first_job < jobs * t.weight as usize,
                }
            {
                let plan = t.next_plan(mix);
                if !t.submit(server, plan, now()) {
                    out.never_accepted += 1;
                }
            }
        }
        // Block on whichever tenant's oldest ticket was submitted first,
        // then sweep up everything else that resolved meanwhile.
        let Some(oldest) = tenants
            .iter_mut()
            .filter(|t| !t.inflight.is_empty())
            .min_by_key(|t| t.inflight[0].submitted)
        else {
            break;
        };
        let result = oldest.inflight[0].ticket.wait();
        out.samples.push(oldest.collect(result, now()));
        for t in tenants.iter_mut() {
            while let Some(result) = t.inflight.front().and_then(|j| j.ticket.poll()) {
                out.samples.push(t.collect(result, now()));
            }
        }
    }
    out
}

struct ServeInstance<'a> {
    workload: &'a Serve,
    server: ServerHandle,
    by_lane: Vec<Vec<TenantDriver>>,
    register_ms: f64,
    /// Samples of the last segment, for the per-kind layer metrics.
    last: Vec<Sample>,
}

impl ServeInstance<'_> {
    /// One job of every kind per tenant, so every lane's kernels and
    /// every tenant's keys have been used once before anything is timed.
    fn warm_up(&mut self) {
        for t in self.by_lane.iter_mut().flatten() {
            for step in 0..6 {
                let plan = match step {
                    0 | 1 => Plan::Encrypt,
                    2 => Plan::Mul {
                        x: t.live[0].1,
                        y: t.live[1].1,
                    },
                    3 => Plan::Rotate { ct: t.live[2].1 },
                    4 => Plan::Decrypt { ct: t.live[3].1 },
                    _ => Plan::Free { ct: t.live[3].1 },
                };
                assert!(
                    t.submit_and_wait(&self.server, plan).ok,
                    "warm-up job failed"
                );
            }
        }
    }

    /// Median submit→resolve time of `kind` alone on an idle server,
    /// through the last tenant (tenant 0's stream stays exactly its log).
    fn solo_ms(&mut self, kind: &'static str) -> f64 {
        let server = &self.server;
        let t = self.by_lane[LANES - 1].last_mut().expect("four tenants");
        while t.live.len() < 2 {
            t.submit_and_wait(server, Plan::Encrypt);
        }
        let ms: Vec<f64> = (0..8)
            .map(|_| {
                let plan = match kind {
                    "encrypt" => Plan::Encrypt,
                    "mul" => Plan::Mul {
                        x: t.live[0].1,
                        y: t.live[1].1,
                    },
                    "rotate" => Plan::Rotate { ct: t.live[0].1 },
                    _ => Plan::Decrypt { ct: t.live[0].1 },
                };
                let resident = t.live.len();
                let sample = t.submit_and_wait(server, plan);
                // Keep the resident set where it was.
                if let Some(&(_, ct)) = t.live.get(resident) {
                    t.submit_and_wait(server, Plan::Free { ct });
                }
                sample.ns as f64 / 1e6
            })
            .collect();
        median(&ms)
    }
}

impl ServeInstance<'_> {
    /// One segment: both generator threads until `stop`, then drained.
    fn drive(&mut self, stop: Stop, rec: &mut Recorder) -> Segment {
        let mut seg = Segment {
            start: rec.now(),
            ..Segment::default()
        };
        let (t0, server, mix) = (rec.t0(), &self.server, &self.workload.mix);
        let outputs: Vec<GeneratorOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .by_lane
                .iter_mut()
                .map(|tenants| scope.spawn(move || generate(server, tenants, mix, t0, stop)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread does not panic"))
                .collect()
        });
        for out in outputs {
            seg.samples.extend(out.samples);
            seg.never_accepted += out.never_accepted;
        }
        seg.samples.sort_by_key(|s| s.start + s.ns);
        seg.end = rec.now();
        for s in &seg.samples {
            rec.closed(s.kind, s.start, s.start + s.ns);
        }
        seg.retries = self.server.stats().iter().map(|t| t.rejected).sum();
        self.last = seg.samples.clone();
        seg
    }
}

impl Instance for ServeInstance<'_> {
    fn segment(&mut self, seconds: f64, rec: &mut Recorder) -> Segment {
        self.drive(Stop::After(Duration::from_secs_f64(seconds)), rec)
    }

    fn traced_segment(&mut self, _seconds: f64, rec: &mut Recorder) -> Segment {
        self.drive(
            Stop::JobsPerWeight(self.workload.traced_jobs_per_weight),
            rec,
        )
    }

    fn verify(&mut self, corrupt: bool) -> Verdict {
        let log = self.by_lane[0][0].log.as_ref().expect("tenant 0 is logged");
        let mut verdict = Verdict::default();
        let ((), oracle_ms) = time_ms(|| {
            // Same stream, same draw order: keys at registration, then
            // encryption randomness in submission order.
            let ctx = RlweContext::new(self.workload.params).expect("valid parameters");
            let mut rng = Splitmix::new(self.workload.tenant_seed(0));
            let sk = ctx.keygen(&mut rng);
            let rk = ctx.relin_keygen(&sk, &mut rng, BASE_LOG);
            let gk = ctx
                .galois_keygen(&sk, ctx.galois_element(1), &mut rng, BASE_LOG)
                .expect("odd galois element");
            let mut mirror: HashMap<CtHandle, Ciphertext> = HashMap::new();
            for job in log {
                let expect = match job.plan {
                    Plan::Encrypt => {
                        let message = random_poly(&mut job.drawn_from.clone(), N, T);
                        Ok(ctx.encrypt(&sk, &message, &mut rng))
                    }
                    Plan::Mul { x, y } => Ok(ctx.mul(&rk, &mirror[&x], &mirror[&y])),
                    Plan::Rotate { ct } => {
                        Ok(ctx.apply_galois(&gk, &mirror[&ct]).expect("key matches"))
                    }
                    Plan::Decrypt { ct } => {
                        verdict.checked += 1;
                        let mut plaintext = ctx.decrypt(&sk, &mirror[&ct]);
                        plaintext[0] ^= u128::from(corrupt);
                        Err(LoggedOutput::PlaintextDigest(digest(&plaintext)))
                    }
                    Plan::Free { ct } => {
                        mirror.remove(&ct);
                        Err(LoggedOutput::Freed)
                    }
                };
                match (expect, &job.output) {
                    (Ok(ct), Some(LoggedOutput::Ciphertext(handle))) => {
                        mirror.insert(*handle, ct);
                    }
                    (Err(expect), Some(got)) if expect == *got => {}
                    _ => verdict.mismatched += 1,
                }
            }
        });
        verdict.oracle_ms_per_check = oracle_ms / verdict.checked.max(1) as f64;
        verdict
    }

    fn layer_metrics(&mut self, ctx: &LayerCtx, out: &mut Values) {
        let kinds: [(&'static str, &'static str); 4] = [
            ("encrypt", "serve.lat_x_solo.encrypt"),
            ("mul", "serve.lat_x_solo.mul"),
            ("rotate", "serve.lat_x_solo.rotate"),
            ("decrypt", "serve.lat_x_solo.decrypt"),
        ];
        let (mut loaded_sum, mut solo_sum) = (0.0, 0.0);
        for (kind, metric) in kinds {
            let loaded: Vec<f64> = self
                .last
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.ns as f64 / 1e6)
                .collect();
            if loaded.is_empty() {
                out.set(metric, 0.0);
                continue;
            }
            let (loaded_ms, solo_ms) = (median(&loaded), self.solo_ms(kind));
            println!("info\tserve.lat_ms_p50.{kind}\t{loaded_ms}\tms\tsolo\t{solo_ms}");
            out.set(metric, loaded_ms / solo_ms);
            loaded_sum += loaded_ms * loaded.len() as f64;
            solo_sum += solo_ms * loaded.len() as f64;
        }
        out.set("serve.queue_wait_share", 1.0 - solo_sum / loaded_sum);

        // Tenants 0 (weight 2) and 2 (weight 1) share lane 0: tenant 0's
        // share of what the two completed while both still had jobs out.
        let resolved = |s: &&Sample| s.start + s.ns;
        let of = |tenant: u32| self.last.iter().filter(move |s| s.tenant == tenant);
        let both_busy = of(0)
            .map(|s| resolved(&s))
            .max()
            .min(of(2).map(|s| resolved(&s)).max());
        let done = |tenant: u32| {
            of(tenant)
                .filter(|s| Some(resolved(s)) <= both_busy)
                .count() as f64
        };
        out.set("serve.weight2_share", done(0) / (done(0) + done(2)));
        out.set(
            "serve.register_share_of_setup",
            self.register_ms / ctx.setup_ms,
        );
    }
}
