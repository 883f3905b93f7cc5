//! Deterministic synthetic traffic for the serving layer.
//!
//! [`run_traffic`] registers one tenant per [`TenantLoad`], spawns one
//! client thread per tenant, and drives a seeded stream of jobs whose
//! kind is drawn from a weighted [`OpMix`]. Every random draw comes
//! from a [`Splitmix`] stream derived from [`TrafficSpec::seed`], so a
//! given spec replays the identical job sequence run after run, so two
//! configurations can be compared on the same jobs.
//!
//! Clients submit in bursts of [`TrafficSpec::burst`] tickets before
//! draining, modelling arrival pressure; a [`ServeError::QueueFull`]
//! rejection drains one in-flight ticket and retries (the retry count
//! is reported, so backpressure is visible in the results).

use crate::server::{CtHandle, JobOutput, JobRequest, ServerHandle, TenantId, TenantSpec};
use crate::ServeError;
use rpu::ntt::rlwe::Splitmix;
use std::time::{Duration, Instant};

/// Relative weights of the job kinds a client draws from. Kinds that
/// need a resident ciphertext fall back to `Encrypt` while the client
/// holds none.
#[derive(Debug, Clone, Copy)]
pub struct OpMix {
    /// Weight of [`JobRequest::Encrypt`].
    pub encrypt: u32,
    /// Weight of [`JobRequest::Mul`].
    pub mul: u32,
    /// Weight of [`JobRequest::Rotate`] (by one slot).
    pub rotate: u32,
    /// Weight of [`JobRequest::Dot`] (over [`OpMix::dot_len`] slots).
    pub dot: u32,
    /// Weight of [`JobRequest::Decrypt`].
    pub decrypt: u32,
    /// Weight of [`JobRequest::Free`].
    pub free: u32,
    /// Slot count for dot-product jobs.
    pub dot_len: usize,
}

impl OpMix {
    /// Transport-dominated mix: encrypt/decrypt traffic with light
    /// evaluation.
    pub fn transport() -> Self {
        OpMix {
            encrypt: 6,
            mul: 1,
            rotate: 0,
            dot: 0,
            decrypt: 4,
            free: 2,
            dot_len: 4,
        }
    }

    /// Evaluation-dominated mix: multiply and rotate heavy.
    pub fn eval_heavy() -> Self {
        OpMix {
            encrypt: 2,
            mul: 4,
            rotate: 3,
            dot: 0,
            decrypt: 1,
            free: 2,
            dot_len: 4,
        }
    }

    fn total(&self) -> u128 {
        u128::from(self.encrypt)
            + u128::from(self.mul)
            + u128::from(self.rotate)
            + u128::from(self.dot)
            + u128::from(self.decrypt)
            + u128::from(self.free)
    }
}

/// One tenant's share of the synthetic load.
#[derive(Debug, Clone, Copy)]
pub struct TenantLoad {
    /// Jobs this tenant's client submits.
    pub jobs: usize,
    /// The tenant's weighted-fair share.
    pub weight: u32,
}

impl TenantLoad {
    /// A weight-1 tenant submitting `jobs` jobs.
    pub fn new(jobs: usize) -> Self {
        TenantLoad { jobs, weight: 1 }
    }

    /// Sets the fair-share weight.
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }
}

/// A complete synthetic workload description. Identical specs replay
/// identical job streams.
#[derive(Debug, Clone)]
pub struct TrafficSpec {
    /// Master seed every per-tenant stream derives from.
    pub seed: u64,
    /// The job-kind mix all clients draw from.
    pub mix: OpMix,
    /// One entry per tenant (skewed loads model hot tenants).
    pub tenants: Vec<TenantLoad>,
    /// Tickets a client keeps in flight before draining — the arrival
    /// burst size.
    pub burst: usize,
}

impl TrafficSpec {
    /// A spec with the given seed, mix, and tenant loads, bursting 8
    /// jobs at a time.
    pub fn new(seed: u64, mix: OpMix, tenants: Vec<TenantLoad>) -> Self {
        TrafficSpec {
            seed,
            mix,
            tenants,
            burst: 8,
        }
    }
}

/// What a traffic run measured.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// Jobs completed over all tenants.
    pub ops: u64,
    /// Submissions retried after a [`ServeError::QueueFull`].
    pub retries: u64,
    /// Wall-clock time from first submission to full drain.
    pub wall: Duration,
    /// Jobs per second over `wall`.
    pub ops_per_sec: f64,
    /// Median job latency (submit → resolve), microseconds.
    pub p50_us: u128,
    /// 99th-percentile job latency, microseconds.
    pub p99_us: u128,
}

struct ClientStats {
    /// One submit → resolve sample per completed job.
    latencies_us: Vec<u128>,
    retries: u64,
}

/// Runs the workload against a live server: registers the tenants,
/// drives one client thread each, waits for the drain, and aggregates
/// throughput and latency percentiles.
///
/// # Errors
///
/// Registration failures and hard execution errors (anything other
/// than the [`ServeError::QueueFull`] rejections the clients absorb)
/// propagate.
pub fn run_traffic(server: &ServerHandle, spec: &TrafficSpec) -> Result<TrafficReport, ServeError> {
    let mut tenants: Vec<(TenantId, TenantLoad)> = Vec::with_capacity(spec.tenants.len());
    for (i, load) in spec.tenants.iter().enumerate() {
        let seed = spec
            .seed
            .wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let tid =
            server.register_tenant(TenantSpec::new(seed).weight(load.weight).rotations(vec![1]))?;
        tenants.push((tid, *load));
    }
    let start = Instant::now();
    let outcomes: Vec<Result<ClientStats, ServeError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(i, &(tid, load))| {
                let server = server.clone();
                let mix = spec.mix;
                let burst = spec.burst.max(1);
                let seed = spec
                    .seed
                    .wrapping_add((i as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03));
                scope.spawn(move || drive_client(&server, tid, load.jobs, burst, mix, seed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    server.wait_all();
    let wall = start.elapsed();
    let mut latencies: Vec<u128> = Vec::new();
    let mut retries = 0u64;
    for outcome in outcomes {
        let stats = outcome?;
        latencies.extend(stats.latencies_us);
        retries += stats.retries;
    }
    latencies.sort_unstable();
    let completed = latencies.len() as u64;
    let pct = |p: f64| -> u128 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx.min(latencies.len() - 1)]
    };
    let secs = wall.as_secs_f64();
    Ok(TrafficReport {
        ops: completed,
        retries,
        wall,
        ops_per_sec: if secs > 0.0 {
            completed as f64 / secs
        } else {
            0.0
        },
        p50_us: pct(0.50),
        p99_us: pct(0.99),
    })
}

/// One client: draws job kinds from the mix, keeps a pool of live
/// ciphertext handles for eval/decrypt/free draws, submits in bursts,
/// and measures submit-to-resolve latency per job.
fn drive_client(
    server: &ServerHandle,
    tenant: TenantId,
    jobs: usize,
    burst: usize,
    mix: OpMix,
    seed: u64,
) -> Result<ClientStats, ServeError> {
    let n = server.params().n;
    let mut rng = Splitmix::new(seed);
    let mut live: Vec<CtHandle> = Vec::new();
    let mut inflight: Vec<(Instant, crate::server::JobTicket)> = Vec::new();
    let mut stats = ClientStats {
        latencies_us: Vec::with_capacity(jobs),
        retries: 0,
    };
    let total_weight = mix.total().max(1);

    let drain_one = |inflight: &mut Vec<(Instant, crate::server::JobTicket)>,
                     live: &mut Vec<CtHandle>,
                     stats: &mut ClientStats|
     -> Result<(), ServeError> {
        let (submitted, ticket) = inflight.remove(0);
        let out = ticket.wait()?;
        stats
            .latencies_us
            .push(submitted.elapsed().as_micros().max(1));
        if let JobOutput::Ciphertext(ct) = out {
            live.push(ct);
        }
        Ok(())
    };

    for _ in 0..jobs {
        let request = pick_request(&mut rng, &mix, total_weight, n, &mut live);
        let submitted = Instant::now();
        let ticket = loop {
            match server.submit(tenant, request.clone()) {
                Ok(t) => break t,
                Err(ServeError::QueueFull { .. }) => {
                    stats.retries += 1;
                    if inflight.is_empty() {
                        // Another thread holds the capacity; yield.
                        std::thread::yield_now();
                    } else {
                        drain_one(&mut inflight, &mut live, &mut stats)?;
                    }
                }
                Err(e) => return Err(e),
            }
        };
        inflight.push((submitted, ticket));
        if inflight.len() >= burst {
            while !inflight.is_empty() {
                drain_one(&mut inflight, &mut live, &mut stats)?;
            }
        }
    }
    while !inflight.is_empty() {
        drain_one(&mut inflight, &mut live, &mut stats)?;
    }
    Ok(stats)
}

/// Resident-ciphertext cap per client: past this many live handles the
/// next draw is forced to `Free`, bounding device-heap pressure (keys
/// alone are ~33 ring-size buffers per tenant).
const MAX_LIVE_CTS: usize = 16;

/// Draws the next job. Eval/decrypt/free kinds need live ciphertexts;
/// with too few resident the draw degrades to `Encrypt`, and past
/// [`MAX_LIVE_CTS`] resident handles it forces a `Free` so device
/// memory stays bounded.
fn pick_request(
    rng: &mut Splitmix,
    mix: &OpMix,
    total_weight: u128,
    n: usize,
    live: &mut Vec<CtHandle>,
) -> JobRequest {
    if live.len() > MAX_LIVE_CTS {
        let ct = live.swap_remove(rng.below(live.len() as u128) as usize);
        return JobRequest::Free { ct };
    }
    let mut draw = rng.below(total_weight);
    let mut pick = |w: u32| -> bool {
        let w = u128::from(w);
        if draw < w {
            true
        } else {
            draw -= w;
            false
        }
    };
    let fresh_message =
        |rng: &mut Splitmix| -> Vec<u128> { (0..n).map(|_| rng.below(65537)).collect() };
    let grab = |rng: &mut Splitmix, live: &Vec<CtHandle>| -> CtHandle {
        live[rng.below(live.len() as u128) as usize]
    };
    if pick(mix.encrypt) {
        JobRequest::Encrypt {
            message: fresh_message(rng),
        }
    } else if pick(mix.mul) {
        if live.len() < 2 {
            JobRequest::Encrypt {
                message: fresh_message(rng),
            }
        } else {
            JobRequest::Mul {
                x: grab(rng, live),
                y: grab(rng, live),
            }
        }
    } else if pick(mix.rotate) {
        if live.is_empty() {
            JobRequest::Encrypt {
                message: fresh_message(rng),
            }
        } else {
            JobRequest::Rotate {
                ct: grab(rng, live),
                steps: 1,
            }
        }
    } else if pick(mix.dot) {
        if live.len() < 2 {
            JobRequest::Encrypt {
                message: fresh_message(rng),
            }
        } else {
            JobRequest::Dot {
                x: grab(rng, live),
                y: grab(rng, live),
                len: mix.dot_len.clamp(1, n),
            }
        }
    } else if pick(mix.decrypt) {
        if live.is_empty() {
            JobRequest::Encrypt {
                message: fresh_message(rng),
            }
        } else {
            JobRequest::Decrypt {
                ct: grab(rng, live),
            }
        }
    } else {
        // Free.
        if live.is_empty() {
            JobRequest::Encrypt {
                message: fresh_message(rng),
            }
        } else {
            let idx = rng.below(live.len() as u128) as usize;
            JobRequest::Free {
                ct: live.swap_remove(idx),
            }
        }
    }
}
