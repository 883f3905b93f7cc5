//! Multi-lane RNS execution: [`RpuCluster`].
//!
//! The paper's central observation (Section II-B) is that a
//! wide-coefficient ring operation decomposes into **independent** RNS
//! towers — "during polynomial multiplication, each tower operates
//! independently" — so towers are the natural unit for scaling *out* as
//! well as up. This module adds that scale-out layer:
//!
//! * [`RpuCluster`] — `k` independent lanes over one [`Rpu`]
//!   configuration. A lane *is* an [`RpuSession`]: its own device heap,
//!   functional simulator and lifetime accounting
//!   ([`RpuSession::stats`]), modeling `k` RPU dies fed by one host.
//!   Lanes share the cluster's [`PrimeTable`] and the `Rpu`'s
//!   [`KernelStore`](crate::KernelStore). Buffer ids are global and
//!   never reused, so a handle used on the wrong lane is one that
//!   lane's heap has never held: it fails as
//!   [`BufferError::StaleHandle`] instead of corrupting a foreign heap.
//!   Its one concurrency primitive is [`RpuCluster::on_lanes`]: a
//!   closure runs once per lane on that lane's own scoped OS thread
//!   while the calling thread runs the host's side;
//!   [`run_jobs`](RpuCluster::run_jobs) is the batch form on top of it.
//! * [`RpuCluster::negacyclic_mul_towers`] — shards an RNS-decomposed
//!   product (tower-major residue vectors) across the lanes: every lane
//!   takes the next un-started tower the moment it finishes the last —
//!   so lanes never idle while work remains, whatever the tower/lane
//!   ratio. Results are CRT-recombined on the host.
//!
//! ```
//! use rpu::Rpu;
//! use rpu::arith::{find_ntt_prime_chain, RnsBasis};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rpu = Rpu::builder().lanes(2).build()?;
//! let mut cluster = rpu.cluster();
//! let n = 1024;
//! let primes = find_ntt_prime_chain(60, 2 * n as u128, 4);
//! let basis = RnsBasis::new(primes.clone())?;
//! let a = basis.split_u128_poly(&vec![3u128; n]);
//! let b = basis.split_u128_poly(&vec![5u128; n]);
//! let (towers, report) = cluster.negacyclic_mul_towers(n, &primes, &a, &b)?;
//! assert_eq!(towers.len(), 4);
//! // One lane thread may take every tower; when both take some, the
//! // 4 towers over 2 lanes overlap.
//! assert!((1.0..=2.0).contains(&report.speedup()));
//! if report.lanes_used() == 2 {
//!     assert!(report.speedup() > 1.0);
//! }
//! assert_eq!(cluster.total_dispatches(), 4); // a lane's totals are its session's
//! # Ok(())
//! # }
//! ```

use crate::buffer::{BufferError, DeviceBuffer, TransferStats};
use crate::recipes::Temps;
use crate::run::Rpu;
use crate::session::{LaneStats, PrimeTable, RpuSession};
use crate::snapshot::{self, SnapshotError};
use crate::trace::DispatchEvent;
use crate::RpuError;
use rpu_codegen::{CodegenStyle, ConvolutionSpec};
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One generic unit of work for [`RpuCluster::run_jobs`]: runs on
/// whichever lane takes it, driving that lane's session.
pub type LaneJob<'j, T> = Box<dyn FnOnce(&mut RpuSession<'_>) -> Result<T, RpuError> + Send + 'j>;

impl LaneStats {
    /// The per-lane delta `after - before` (what one sharded run added).
    fn delta(after: &LaneStats, before: &LaneStats) -> LaneStats {
        let dispatches = after.dispatches - before.dispatches;
        let image_elements = after.transfer.image_elements - before.transfer.image_elements;
        LaneStats {
            lane: after.lane,
            dispatches,
            cycles: after.cycles - before.cycles,
            busy_us: after.busy_us - before.busy_us,
            transfer: TransferStats {
                host_to_device: after.transfer.host_to_device - before.transfer.host_to_device,
                device_to_host: after.transfer.device_to_host - before.transfer.device_to_host,
                device_copies: after.transfer.device_copies - before.transfer.device_copies,
                image_elements,
                // This run reused resident images iff it dispatched
                // without writing any new constant image (the lane's
                // lifetime flag would leak earlier runs' reuse).
                image_reused: dispatches > 0 && image_elements == 0,
            },
        }
    }
}

/// The aggregated report of one sharded run: per-lane statistics plus
/// the makespan/sequential comparison that quantifies the overlap.
#[derive(Debug, Clone)]
pub struct ClusterRunReport {
    /// Independent units executed: the jobs of a
    /// [`run_jobs`](RpuCluster::run_jobs) call, or one per lane under a
    /// bare [`on_lanes`](RpuCluster::on_lanes).
    pub towers: usize,
    /// Lanes in the cluster (idle lanes included).
    pub lanes: usize,
    /// What each lane contributed to *this* run.
    pub per_lane: Vec<LaneStats>,
    /// Simulated completion time: the busiest lane's on-RPU time, in
    /// microseconds — what a `k`-die deployment would take.
    pub makespan_us: f64,
    /// Simulated time of the same towers run back-to-back through one
    /// session, in microseconds (the sum over all lanes).
    pub sequential_us: f64,
    /// Total simulated cycles across every lane.
    pub total_cycles: u64,
    /// Data movement summed over every lane.
    pub transfer: TransferStats,
    /// Host wall-clock of the sharded run, in microseconds (the lanes'
    /// functional simulators really do run on parallel OS threads).
    pub wall_us: f64,
    /// Jobs handed to the [`run_jobs`](RpuCluster::run_jobs) call — all
    /// of them are pending before the first lane starts; 0 under a bare
    /// [`on_lanes`](RpuCluster::on_lanes), which queues nothing (the
    /// serving layer queues served work itself).
    pub queue_peak: usize,
    /// The first lane (lowest index) whose closure panicked, as
    /// `(lane, message)`. The panic is contained on that lane's thread
    /// and the other lanes run on, so long-lived callers read this to
    /// learn that a lane died.
    pub panicked: Option<(usize, String)>,
    /// The structured dispatch events this run recorded, in dispatch
    /// order — empty unless a sink was installed via
    /// [`RpuBuilder::trace`](crate::RpuBuilder::trace) (and the sink
    /// retains events).
    pub trace: Vec<DispatchEvent>,
}

impl ClusterRunReport {
    /// Simulated throughput gain of the sharded run over the sequential
    /// single-session loop (`sequential_us / makespan_us`; 1.0 for one
    /// lane, approaching the lane count as towers balance).
    pub fn speedup(&self) -> f64 {
        if self.makespan_us > 0.0 {
            self.sequential_us / self.makespan_us
        } else {
            1.0
        }
    }

    /// Lanes that executed at least one tower of this run.
    pub fn lanes_used(&self) -> usize {
        self.per_lane.iter().filter(|l| l.dispatches > 0).count()
    }
}

/// Best-effort text out of a caught panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "lane job panicked".into())
}

/// `k` independent RPU lanes behind one host: each lane owns a full
/// [`RpuSession`] (device heap + functional simulator), the cluster owns
/// the shared [`PrimeTable`], and every lane loads its programs from the
/// `Rpu`'s one [`KernelStore`](crate::KernelStore).
///
/// Created by [`Rpu::cluster`] (the [`RpuBuilder::lanes`] count) or
/// [`Rpu::cluster_with`] (explicit count). Lanes are separate devices:
/// buffers never travel between them, and a lane's session refuses a
/// handle its heap never held ([`BufferError::StaleHandle`]). Per-lane
/// work goes through [`lane_session`](RpuCluster::lane_session), and
/// per-lane accounting is [`stats`](RpuCluster::stats)`()[lane]`.
///
/// [`RpuBuilder::lanes`]: crate::RpuBuilder::lanes
#[derive(Debug)]
pub struct RpuCluster<'a> {
    rpu: &'a Rpu,
    lanes: Vec<RpuSession<'a>>,
    primes: PrimeTable,
}

impl<'a> RpuCluster<'a> {
    /// Builds a `k`-lane cluster; [`Rpu::cluster`] and
    /// [`Rpu::cluster_with`] have checked `k` against `[1, 64]`.
    pub(crate) fn new(rpu: &'a Rpu, k: usize) -> Self {
        RpuCluster {
            rpu,
            lanes: (0..k).map(|lane| RpuSession::new(rpu, lane)).collect(),
            primes: PrimeTable::with_bits(rpu.prime_bits()),
        }
    }

    /// The RPU configuration every lane instantiates.
    pub fn rpu(&self) -> &Rpu {
        self.rpu
    }

    /// Number of lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The cluster-shared NTT prime for ring degree `n` — one search,
    /// whatever the lane count.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::NoPrime`] if no such prime exists.
    pub fn primes_for(&mut self, n: usize) -> Result<u128, RpuError> {
        self.primes.ntt_prime(n)
    }

    /// One lane's session, driven synchronously from the calling
    /// thread — the same session a lane thread gets under
    /// [`on_lanes`](RpuCluster::on_lanes), so whatever is allocated,
    /// uploaded, compiled, dispatched or downloaded through it lands in
    /// [`stats`](RpuCluster::stats)`()[lane]`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_session(&mut self, lane: usize) -> &mut RpuSession<'a> {
        &mut self.lanes[lane]
    }

    /// The lane whose heap `buf` is live on, whoever allocated it —
    /// the lane heaps are the only record of placement. (Buffer ids are
    /// global and never reused, so at most one lane answers.)
    pub fn locate(&self, buf: &DeviceBuffer) -> Option<usize> {
        self.lanes.iter().position(|lane| lane.owns(buf))
    }

    /// Downloads a buffer from whichever lane owns it.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles.
    pub fn download(&mut self, buf: &DeviceBuffer) -> Result<Vec<u128>, RpuError> {
        let lane = self
            .locate(buf)
            .ok_or(RpuError::Buffer(BufferError::StaleHandle { id: buf.id() }))?;
        self.lanes[lane].download(buf)
    }

    /// Frees a buffer on whichever lane owns it.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles (double frees
    /// included).
    pub fn free(&mut self, buf: DeviceBuffer) -> Result<(), RpuError> {
        let lane = self
            .locate(&buf)
            .ok_or(RpuError::Buffer(BufferError::StaleHandle { id: buf.id() }))?;
        self.lanes[lane].free(buf)
    }

    /// Moves a buffer to another lane through the host link (lanes share
    /// no memory, so this is a download + upload + free), returning the
    /// new handle. A no-op move (same lane) returns the original handle.
    ///
    /// The move is **failure-atomic**: the source is freed only after
    /// the destination copy exists, so when the destination lane's
    /// allocation fails (heap exhausted) the source stays live and
    /// downloadable on its lane — nothing leaks and nothing
    /// half-moves. If freeing the source somehow fails, the
    /// destination copy is rolled back before the error propagates.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles or an exhausted
    /// target heap.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range.
    pub fn migrate(&mut self, buf: DeviceBuffer, to: usize) -> Result<DeviceBuffer, RpuError> {
        let from = self
            .locate(&buf)
            .ok_or(RpuError::Buffer(BufferError::StaleHandle { id: buf.id() }))?;
        if from == to {
            return Ok(buf);
        }
        let data = self.download(&buf)?;
        let moved = self.lanes[to].upload(&data)?;
        if let Err(e) = self.free(buf) {
            // Never leak the copy when the source release fails: roll
            // the destination back and surface the original error.
            let _ = self.free(moved);
            return Err(e);
        }
        Ok(moved)
    }

    /// Every lane's lifetime accounting.
    pub fn stats(&self) -> Vec<LaneStats> {
        self.lanes.iter().map(RpuSession::stats).collect()
    }

    /// The busiest lane's total simulated time, in microseconds — the
    /// cluster's completion time so far.
    pub fn makespan_us(&self) -> f64 {
        self.lanes
            .iter()
            .map(|l| l.stats().busy_us)
            .fold(0.0, f64::max)
    }

    /// Total simulated time across every lane, in microseconds (what one
    /// lane running everything sequentially would take).
    pub fn total_busy_us(&self) -> f64 {
        self.lanes.iter().map(|l| l.stats().busy_us).sum()
    }

    /// Kernels dispatched across every lane.
    pub fn total_dispatches(&self) -> u64 {
        self.lanes.iter().map(|l| l.stats().dispatches).sum()
    }

    /// Serializes every lane's device state plus the buffer → lane
    /// placement map (derived from the lane heaps) as one versioned
    /// `SNAP_V1` cluster snapshot (see [`RpuSession::snapshot`] for what
    /// each lane records).
    pub fn snapshot_all(&self) -> Vec<u8> {
        let mut owners: Vec<(u64, u64)> = (0u64..)
            .zip(&self.lanes)
            .flat_map(|(i, lane)| lane.live_ids().map(move |id| (id, i)))
            .collect();
        owners.sort_unstable();
        let lanes: Vec<Vec<u8>> = self.lanes.iter().map(RpuSession::snapshot).collect();
        snapshot::encode_cluster(&owners, &lanes)
    }

    /// Restores every lane from a cluster snapshot, live buffers or
    /// not: every lane is prepared (decoded, geometry-checked, kernels
    /// fetched) before *any* lane is mutated, so a multi-lane restore
    /// is all-or-nothing. Buffers allocated after the snapshot become
    /// stale on their lane (never double-freed); handles held since the
    /// snapshot keep resolving.
    ///
    /// # Errors
    ///
    /// [`RpuError::Snapshot`] for corrupt or future-version bytes
    /// (including a placement map that disagrees with the lane heaps),
    /// a lane-count or geometry mismatch, or a kernel that cannot be
    /// rebuilt. The cluster is unchanged on error.
    pub fn restore_all(&mut self, bytes: &[u8]) -> Result<(), RpuError> {
        let (owners, lane_bytes) = snapshot::decode_cluster(bytes)?;
        if lane_bytes.len() != self.lanes.len() {
            return Err(SnapshotError::LaneCountMismatch {
                snapshot: lane_bytes.len(),
                cluster: self.lanes.len(),
            }
            .into());
        }
        let prepared = self
            .lanes
            .iter()
            .zip(&lane_bytes)
            .map(|(lane, bytes)| lane.prepare_restore(bytes))
            .collect::<Result<Vec<_>, _>>()?;
        // The placement map is redundant with the lane heaps; a snapshot
        // whose two copies disagree is corrupt.
        for &(id, lane) in &owners {
            let named = usize::try_from(lane).ok().and_then(|l| prepared.get(l));
            if !named.is_some_and(|lane| lane.holds(id)) {
                return Err(SnapshotError::Corrupt(format!(
                    "placement map points buffer {id} at lane {lane} of {}, where it is not live",
                    self.lanes.len()
                ))
                .into());
            }
        }
        for (lane, p) in self.lanes.iter_mut().zip(prepared) {
            lane.apply_restore(p);
        }
        Ok(())
    }

    /// The cluster's one concurrency primitive: runs `lane_main` once
    /// per lane, each on that lane's own scoped OS thread with the
    /// lane's session, while `host` runs on the calling thread.
    /// Returns `host`'s result once every lane has returned, with the
    /// aggregated [`ClusterRunReport`] for everything the lanes did.
    ///
    /// Nothing here tells a lane to stop: a `lane_main` that loops must
    /// watch state `host` can reach (the serving layer arms a shutdown
    /// guard first thing in `host`, so its lane loops are released even
    /// when `host` unwinds — the scope joins before the panic resumes).
    ///
    /// A `lane_main` that **panics** takes only its own thread down:
    /// the other lanes and `host` run on, and the report names the lane
    /// ([`ClusterRunReport::panicked`]). Buffers it had allocated on its
    /// lane are leaked (their handles died with it); the cluster itself
    /// stays usable.
    pub fn on_lanes<R>(
        &mut self,
        lane_main: impl Fn(&mut RpuSession<'a>) + Sync,
        host: impl FnOnce() -> R,
    ) -> (R, ClusterRunReport) {
        let before: Vec<LaneStats> = self.stats();
        let trace_start = self.rpu.trace_sink().map(|sink| sink.next_seq());
        let nlanes = self.lanes.len();
        let started = Instant::now();
        let (out, panicked) = std::thread::scope(|scope| {
            let lane_main = &lane_main;
            let threads: Vec<_> = (self.lanes.iter_mut())
                .map(|lane| scope.spawn(move || lane_main(lane)))
                .collect();
            let out = host();
            // Joining by hand is what contains a lane's panic: the scope
            // re-raises only panics of threads nobody joined.
            let mut panicked = None;
            for (index, thread) in threads.into_iter().enumerate() {
                if let Err(payload) = thread.join() {
                    panicked.get_or_insert((index, panic_message(payload.as_ref())));
                }
            }
            (out, panicked)
        });
        let wall_us = started.elapsed().as_secs_f64() * 1e6;

        let per_lane: Vec<LaneStats> = self
            .stats()
            .iter()
            .zip(&before)
            .map(|(a, b)| LaneStats::delta(a, b))
            .collect();
        let makespan_us = per_lane.iter().map(|l| l.busy_us).fold(0.0, f64::max);
        let sequential_us = per_lane.iter().map(|l| l.busy_us).sum();
        let total_cycles = per_lane.iter().map(|l| l.cycles).sum();
        let mut transfer = TransferStats::default();
        for l in &per_lane {
            transfer.absorb(&l.transfer);
        }
        let report = ClusterRunReport {
            towers: nlanes,
            lanes: nlanes,
            per_lane,
            makespan_us,
            sequential_us,
            total_cycles,
            transfer,
            wall_us,
            queue_peak: 0,
            panicked,
            trace: match (self.rpu.trace_sink(), trace_start) {
                (Some(sink), Some(start)) => sink.events_since(start),
                _ => Vec::new(),
            },
        };
        (out, report)
    }

    /// Runs `jobs.len()` independent lane jobs across the lanes — the
    /// engine behind the tower sharding of
    /// [`negacyclic_mul_towers`](RpuCluster::negacyclic_mul_towers) *and*
    /// the per-digit key-switch products of `RlweEvaluator::mul`/`rotate`.
    /// Every lane runs on its own OS thread
    /// ([`on_lanes`](RpuCluster::on_lanes)), taking the next un-started
    /// job until none is left, so no lane idles while work remains;
    /// results come back in job order plus the aggregated report.
    ///
    /// A job that **panics** (as opposed to returning an error) is
    /// caught on its lane's thread and surfaced as
    /// [`RpuError::LanePanic`] — no mutex is poisoned, so the remaining
    /// lanes stop instead of wedging. Buffers the panicking job had
    /// allocated on its lane are leaked (their handles died with the
    /// job); the cluster itself stays usable.
    ///
    /// # Errors
    ///
    /// Returns the first job error or panic (un-started jobs are
    /// abandoned; in-flight jobs finish their current dispatch).
    pub fn run_jobs<'j, T: Send>(
        &mut self,
        jobs: Vec<LaneJob<'j, T>>,
    ) -> Result<(Vec<T>, ClusterRunReport), RpuError> {
        /// The whole run behind one mutex with one lock site. Job
        /// panics are caught before they can cross a guard, and each
        /// write is a single assignment, so poison is recovered.
        struct Run<J, T> {
            unstarted: J,
            results: Vec<Option<T>>,
            failure: Option<RpuError>,
        }
        let total = jobs.len();
        let run = Mutex::new(Run {
            unstarted: jobs.into_iter().enumerate(),
            results: (0..total).map(|_| None).collect(),
            failure: None,
        });
        let run_now = || run.lock().unwrap_or_else(PoisonError::into_inner);
        let ((), mut report) = self.on_lanes(
            |w| loop {
                // One-shot batches stop on the first failure.
                let next = {
                    let mut run = run_now();
                    run.failure
                        .is_none()
                        .then(|| run.unstarted.next())
                        .flatten()
                };
                let Some((t, job)) = next else { break };
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| job(w)));
                let result = result.unwrap_or_else(|payload| {
                    Err(RpuError::LanePanic {
                        lane: w.lane_index(),
                        message: panic_message(payload.as_ref()),
                    })
                });
                let mut run = run_now();
                match result {
                    Ok(v) => run.results[t] = Some(v),
                    Err(e) => drop(run.failure.get_or_insert(e)),
                }
            },
            || (),
        );
        report.towers = total;
        report.queue_peak = total;

        let run = run.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = run.failure {
            return Err(e);
        }
        let outputs = (run.results.into_iter()).map(|v| v.expect("every job completed"));
        Ok((outputs.collect(), report))
    }

    /// The tower-sharded negacyclic multiply — the paper's Fig. 1
    /// dataflow with the per-tower kernels spread over parallel lanes
    /// instead of looped through one session: tower `t` of the result is
    /// `a_towers[t] ·_neg b_towers[t] (mod moduli[t])`, each tower one
    /// fused-convolution dispatch (forward NTT ×2 → pointwise multiply →
    /// inverse NTT) on whichever lane takes it: upload both operands,
    /// dispatch, download the product, free — entirely lane-local. CRT
    /// recombination (`RnsBasis::recombine_poly`) is the host's.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] for mismatched tower counts or
    /// lengths, or the first lane error.
    pub fn negacyclic_mul_towers(
        &mut self,
        n: usize,
        moduli: &[u128],
        a_towers: &[Vec<u128>],
        b_towers: &[Vec<u128>],
    ) -> Result<(Vec<Vec<u128>>, ClusterRunReport), RpuError> {
        if a_towers.len() != moduli.len() || b_towers.len() != moduli.len() {
            return Err(RpuError::Config(format!(
                "tower count mismatch: {} moduli, {} / {} operand towers",
                moduli.len(),
                a_towers.len(),
                b_towers.len()
            )));
        }
        if let Some(t) = a_towers.iter().chain(b_towers).position(|t| t.len() != n) {
            return Err(RpuError::Config(format!(
                "tower {t} has the wrong length for ring degree {n}"
            )));
        }
        let jobs = moduli.iter().zip(a_towers.iter().zip(b_towers));
        let jobs = jobs.map(|(&q, (a, b))| {
            Box::new(move |w: &mut RpuSession<'_>| {
                let kernel = w.compile(&ConvolutionSpec::new(n, q, CodegenStyle::Optimized))?;
                let mut t = Temps::default();
                let result = (|| {
                    let da = t.hold(w.upload(a)?);
                    let db = t.hold(w.upload(b)?);
                    let dc = t.hold(w.alloc(n)?);
                    w.dispatch(&kernel, &[da, db], &[dc])?;
                    w.download(&dc)
                })();
                // Tower buffers never outlive the job, success or not.
                t.settle(result, |_| [], |buf| w.free(buf))
            }) as LaneJob<'_, Vec<u128>>
        });
        self.run_jobs(jobs.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_arith::find_ntt_prime_chain;

    /// Lanes must be shippable to their threads: a compile-time
    /// property `on_lanes` rests on.
    #[test]
    fn sessions_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<RpuSession<'static>>();
        assert_send::<RpuError>();
    }

    #[test]
    fn cluster_builds_independent_lanes() {
        let rpu = Rpu::builder().lanes(3).build().unwrap();
        let mut c = rpu.cluster();
        assert_eq!(c.lane_count(), 3);
        let x = c.lane_session(0).upload(&vec![7u128; 64]).unwrap();
        assert_eq!(c.locate(&x), Some(0));
        assert_eq!(c.lane_session(0).device_mem_in_use(), 64);
        assert_eq!(c.lane_session(1).device_mem_in_use(), 0);
        assert_eq!(c.download(&x).unwrap(), vec![7u128; 64]);
        c.free(x).unwrap();
        assert_eq!(c.locate(&x), None);
    }

    #[test]
    fn migrate_moves_data_between_lanes() {
        let rpu = Rpu::builder().lanes(2).build().unwrap();
        let mut c = rpu.cluster();
        let data: Vec<u128> = (0..256).collect();
        let x = c.lane_session(0).upload(&data).unwrap();
        let y = c.migrate(x, 1).unwrap();
        assert_eq!(c.locate(&y), Some(1));
        assert_eq!(c.download(&y).unwrap(), data);
        // the source handle is gone
        assert!(matches!(
            c.download(&x),
            Err(RpuError::Buffer(BufferError::StaleHandle { .. }))
        ));
        // same-lane migration is the identity
        let z = c.migrate(y, 1).unwrap();
        assert_eq!(z, y);
    }

    #[test]
    fn executor_matches_host_towers_and_balances_lanes() {
        let n = 1024usize;
        let towers = 4usize;
        let primes = find_ntt_prime_chain(60, 2 * n as u128, towers);
        let a: Vec<Vec<u128>> = primes
            .iter()
            .map(|&q| (0..n as u128).map(|i| (i * 31 + 7) % q).collect())
            .collect();
        let b: Vec<Vec<u128>> = primes
            .iter()
            .map(|&q| (0..n as u128).map(|i| (i * 17 + 3) % q).collect())
            .collect();

        let rpu = Rpu::builder().lanes(2).build().unwrap();
        let mut c = rpu.cluster();
        // Retry a pathologically starved split (timing-dependent);
        // exactness and traffic accounting are asserted every attempt.
        let mut balanced = None;
        for _ in 0..3 {
            let (got, report) = c.negacyclic_mul_towers(n, &primes, &a, &b).unwrap();
            for (t, &q) in primes.iter().enumerate() {
                let plan = rpu_ntt::Ntt128Plan::new(n, q).unwrap();
                assert_eq!(got[t], plan.negacyclic_mul(&a[t], &b[t]), "tower {t}");
            }
            assert_eq!(report.towers, towers);
            assert_eq!(report.lanes, 2);
            assert_eq!(report.per_lane.iter().map(|l| l.dispatches).sum::<u64>(), 4);
            // per-tower traffic: 2n up, n down, nothing left resident
            assert_eq!(report.transfer.host_to_device, 2 * n * towers);
            assert_eq!(report.transfer.device_to_host, n * towers);
            // even a skewed 3/1 split beats sequential
            if report.lanes_used() == 2 && report.speedup() > 1.2 {
                balanced = Some(report);
                break;
            }
        }
        let report = balanced.expect("both lanes must steal work within 3 runs");
        assert!(report.makespan_us > 0.0 && report.wall_us > 0.0);
        for lane in 0..2 {
            assert_eq!(c.lane_session(lane).device_mem_in_use(), 0);
        }
    }

    #[test]
    fn executor_shape_errors() {
        let rpu = Rpu::builder().build().unwrap();
        let mut c = rpu.cluster();
        let bad = c.negacyclic_mul_towers(1024, &[97, 193], &[vec![0; 1024]], &[vec![0; 1024]]);
        assert!(matches!(bad, Err(RpuError::Config(_))));
        let bad = c.negacyclic_mul_towers(
            1024,
            &[97],
            &[vec![0; 512]], // wrong length
            &[vec![0; 1024]],
        );
        assert!(matches!(bad, Err(RpuError::Config(_))));
    }
}
