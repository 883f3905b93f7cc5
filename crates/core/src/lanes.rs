//! Multi-lane RNS execution: [`RpuCluster`] and [`RnsExecutor`].
//!
//! The paper's central observation (Section II-B) is that a
//! wide-coefficient ring operation decomposes into **independent** RNS
//! towers — "during polynomial multiplication, each tower operates
//! independently" — so towers are the natural unit for scaling *out* as
//! well as up. This module adds that scale-out layer:
//!
//! * [`RpuCluster`] — `k` independent lanes over one [`Rpu`]
//!   configuration. Each lane is a full [`RpuSession`]: its own device
//!   heap, kernel cache, and functional simulator, modeling `k` RPU dies
//!   fed by one host. Lanes share the cluster's [`PrimeTable`], and the
//!   cluster looks up which lane's heap a buffer lives on so a handle
//!   used on the wrong lane fails fast ([`BufferError::ForeignLane`])
//!   instead of corrupting a foreign heap.
//! * [`RnsExecutor`] — shards an RNS-decomposed workload (tower-major
//!   residue vectors, [`RnsPolynomial`] towers) across the lanes with a
//!   work-stealing scheduler: tower jobs go into one shared queue and
//!   every lane runs on its own OS thread, pulling the next tower the
//!   moment it finishes the last — so lanes never idle while work
//!   remains, whatever the tower/lane ratio. Results are CRT-recombined
//!   on the host.
//!
//! ```
//! use rpu::{RnsExecutor, Rpu};
//! use rpu::arith::{find_ntt_prime_chain, RnsBasis};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rpu = Rpu::builder().lanes(2).build()?;
//! let mut exec = RnsExecutor::new(rpu.cluster());
//! let n = 1024;
//! let primes = find_ntt_prime_chain(60, 2 * n as u128, 4);
//! let basis = RnsBasis::new(primes.clone())?;
//! let a = basis.split_u128_poly(&vec![3u128; n]);
//! let b = basis.split_u128_poly(&vec![5u128; n]);
//! let (towers, report) = exec.negacyclic_mul_towers(n, &primes, &a, &b)?;
//! assert_eq!(towers.len(), 4);
//! assert!(report.speedup() > 1.0); // 4 towers over 2 lanes overlap
//! # Ok(())
//! # }
//! ```

use crate::buffer::{BufferError, DeviceBuffer, TransferStats};
use crate::recipes::Temps;
use crate::run::{Rpu, RunReport};
use crate::session::{CacheStats, PrimeTable, RpuSession};
use crate::snapshot::{self, SnapshotError};
use crate::trace::DispatchEvent;
use crate::RpuError;
use rpu_codegen::{CodegenStyle, ConvolutionSpec, Kernel, KernelSpec};
use rpu_ntt::{RnsContext, RnsPolynomial};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One lane: a session plus its lifetime dispatch accounting.
#[derive(Debug)]
struct Lane<'a> {
    session: RpuSession<'a>,
    dispatches: u64,
    cycles: u64,
    busy_us: f64,
    /// Jobs this lane executed through a worker pool.
    jobs: u64,
    /// Host wall-clock spent *executing* pool jobs on this lane, in
    /// microseconds (excludes time parked waiting for work).
    wall_busy_us: f64,
    transfer: TransferStats,
}

impl<'a> Lane<'a> {
    fn new(rpu: &'a Rpu, index: usize) -> Self {
        let mut session = rpu.session();
        session.set_lane(index);
        Lane {
            session,
            dispatches: 0,
            cycles: 0,
            busy_us: 0.0,
            jobs: 0,
            wall_busy_us: 0.0,
            transfer: TransferStats::default(),
        }
    }

    /// Folds one dispatch report into the lane's running totals.
    fn account(&mut self, report: &RunReport) {
        self.dispatches += 1;
        self.cycles += report.stats.cycles;
        self.busy_us += report.runtime_us;
        self.transfer.absorb(&report.transfer);
    }
}

/// One generic unit of work for [`RpuCluster::run_jobs`]: runs on
/// whichever lane steals it, driving that lane through the
/// [`LaneWorker`] it is handed.
pub type LaneJob<'j, T> =
    Box<dyn FnOnce(&mut LaneWorker<'_, '_>) -> Result<T, RpuError> + Send + 'j>;

/// A lane as seen from inside a work-stealing job: the lane's session
/// plus per-lane accounting, so everything a job uploads, dispatches,
/// and downloads lands in that lane's [`LaneStats`] (and therefore in
/// the run's [`ClusterRunReport`]).
#[derive(Debug)]
pub struct LaneWorker<'l, 'a> {
    index: usize,
    lane: &'l mut Lane<'a>,
}

impl<'l, 'a> LaneWorker<'l, 'a> {
    /// The lane this worker drives (jobs use it to pick lane-resident
    /// key material, kernels, or accumulators out of per-lane tables).
    pub fn lane_index(&self) -> usize {
        self.index
    }

    /// Raw access to the lane's session — traffic through it bypasses
    /// the per-lane transfer accounting (dispatch accounting still
    /// happens inside the session's reports only). Prefer the worker's
    /// own methods.
    pub fn session(&mut self) -> &mut RpuSession<'a> {
        &mut self.lane.session
    }

    /// Compiles (or recalls) `spec` on this lane's kernel cache.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] if generation fails or verification faults.
    pub fn compile<S: KernelSpec + ?Sized>(&mut self, spec: &S) -> Result<Arc<Kernel>, RpuError> {
        self.lane.session.compile(spec)
    }

    /// Uploads `data` into a fresh lane-local buffer, with accounting.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] when the lane's heap is exhausted.
    pub fn upload(&mut self, data: &[u128]) -> Result<DeviceBuffer, RpuError> {
        let buf = self.lane.session.upload(data)?;
        self.lane.transfer.host_to_device += data.len();
        Ok(buf)
    }

    /// Allocates `len` elements on this lane.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] when the lane's heap is exhausted.
    pub fn alloc(&mut self, len: usize) -> Result<DeviceBuffer, RpuError> {
        self.lane.session.alloc(len)
    }

    /// Downloads a lane-local buffer, with accounting.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles.
    pub fn download(&mut self, buf: &DeviceBuffer) -> Result<Vec<u128>, RpuError> {
        let data = self.lane.session.download(buf)?;
        self.lane.transfer.device_to_host += data.len();
        Ok(data)
    }

    /// Frees a lane-local buffer.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles.
    pub fn free(&mut self, buf: DeviceBuffer) -> Result<(), RpuError> {
        self.lane.session.free(buf)
    }

    /// Dispatches a compiled kernel over this lane's resident buffers,
    /// folding the report into the lane's accounting.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles or shape
    /// mismatches, [`RpuError::Exec`] if the program faults.
    pub fn dispatch(
        &mut self,
        kernel: &Arc<Kernel>,
        inputs: &[DeviceBuffer],
        outputs: &[DeviceBuffer],
    ) -> Result<RunReport, RpuError> {
        let report = self.lane.session.dispatch(kernel, inputs, outputs)?;
        self.lane.account(&report);
        Ok(report)
    }

    /// Uploads, dispatches the tower's fused convolution, downloads, and
    /// frees — one complete tower job, entirely lane-local.
    fn run_tower(
        &mut self,
        n: usize,
        q: u128,
        a: &[u128],
        b: &[u128],
        style: CodegenStyle,
    ) -> Result<Vec<u128>, RpuError> {
        let kernel = self.compile(&ConvolutionSpec::new(n, q, style))?;
        let mut t = Temps::default();
        let result = (|| {
            let da = t.hold(self.upload(a)?);
            let db = t.hold(self.upload(b)?);
            let dc = t.hold(self.alloc(n)?);
            self.dispatch(&kernel, &[da, db], &[dc])?;
            self.download(&dc)
        })();
        // Tower buffers never outlive the job, success or not.
        t.settle(result, |_| [], |buf| self.free(buf))
    }
}

/// A snapshot of one lane's accounting: how much work it has absorbed
/// and what data movement that cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneStats {
    /// The lane index.
    pub lane: usize,
    /// Kernels dispatched on this lane.
    pub dispatches: u64,
    /// Total simulated cycles across those dispatches.
    pub cycles: u64,
    /// Total simulated on-RPU time, in microseconds.
    pub busy_us: f64,
    /// Pool jobs executed on this lane ([`RpuCluster::run_jobs`] /
    /// [`RpuCluster::with_workers`]); direct `dispatch_on` traffic does
    /// not count as a job.
    pub jobs: u64,
    /// Host wall-clock spent executing pool jobs on this lane, in
    /// microseconds — the lane's *occupancy*, as opposed to `busy_us`
    /// which is simulated device time. Time parked waiting for work is
    /// excluded, so `wall_busy_us / report.wall_us` is the lane's
    /// utilization over a run.
    pub wall_busy_us: f64,
    /// Aggregated data movement (uploads, downloads, on-device copies).
    pub transfer: TransferStats,
}

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
            jobs: after.jobs - before.jobs,
            wall_busy_us: after.wall_busy_us - before.wall_busy_us,
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
    /// Towers (independent jobs) executed.
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
    /// High-water mark of the pool's pending-job queues over the run
    /// (pinned + shared, jobs submitted but not yet started) — how deep
    /// the backlog got. (The serving layer queues served work itself and
    /// seats only its per-lane init and loop jobs here, so under
    /// `rpu-serve` this reads at most `2·lanes`.)
    pub queue_peak: usize,
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

/// One unit of work for a persistent [`LanePool`]: it runs on a worker
/// thread, driving whichever lane it lands on through the
/// [`LaneWorker`] it is handed. Pool jobs carry no return channel —
/// callers thread results out through whatever shared state the closure
/// captures (a ticket cell, a `Mutex<Vec<_>>` slot, a condvar).
pub type PoolJob<'j> = Box<dyn FnOnce(&mut LaneWorker<'_, '_>) + Send + 'j>;

/// Everything the pool's mutex guards: the queues plus the counters the
/// workers and the report read from one place.
struct PoolState<'j> {
    /// Lane-affine queues: jobs that must run on one particular lane, in
    /// submission order (lane-resident ciphertexts, ordered frees).
    pinned: Vec<VecDeque<PoolJob<'j>>>,
    /// The work-stealing queue: any lane takes the next job the moment
    /// it goes idle.
    shared: VecDeque<PoolJob<'j>>,
    /// Still accepting work; flips when the owning scope shuts down, at
    /// which point workers drain what is queued and exit.
    open: bool,
    /// Jobs currently executing on some worker.
    active: usize,
    /// Jobs submitted but not yet started (pinned + shared).
    pending: usize,
    /// Jobs finished — successfully or by caught panic — over the
    /// pool's lifetime.
    executed: usize,
    /// High-water mark of `pending`.
    depth_peak: usize,
    /// First caught job panic, as `(lane, message)`.
    panic: Option<(usize, String)>,
}

impl std::fmt::Debug for PoolState<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolState")
            .field(
                "pinned",
                &self.pinned.iter().map(VecDeque::len).collect::<Vec<_>>(),
            )
            .field("shared", &self.shared.len())
            .field("open", &self.open)
            .field("active", &self.active)
            .field("pending", &self.pending)
            .field("executed", &self.executed)
            .field("depth_peak", &self.depth_peak)
            .field("panic", &self.panic)
            .finish()
    }
}

/// A persistent per-lane worker pool over an [`RpuCluster`], created by
/// [`RpuCluster::with_workers`]. One OS thread per lane stays parked on
/// the pool for the scope's lifetime; callers feed it two kinds of work:
///
/// * [`submit`](LanePool::submit) — any-lane jobs, work-stealing: the
///   next idle lane takes the next job, so throughput work balances
///   itself whatever the job/lane ratio;
/// * [`submit_to`](LanePool::submit_to) — lane-pinned jobs, FIFO per
///   lane: for work that must touch one lane's resident state. A pinned
///   job may be as long-lived as the scope: the serving layer seats one
///   service loop per lane this way and lets each loop pull tenant
///   batches from the server's own queues, rather than submitting a
///   pool job per batch.
///
/// The pool is `Sync`: many client threads may submit concurrently
/// while the workers drain. A job that panics is caught on its worker
/// thread and recorded ([`panicked`](LanePool::panicked)); the pool
/// keeps draining — long-lived callers decide whether that is fatal.
#[derive(Debug)]
pub struct LanePool<'j> {
    lanes: usize,
    queues: Mutex<PoolState<'j>>,
    /// Signals workers: new work, or shutdown.
    work: Condvar,
    /// Signals waiters: the pool just went idle.
    idle: Condvar,
}

impl<'j> LanePool<'j> {
    fn new(lanes: usize) -> Self {
        LanePool {
            lanes,
            queues: Mutex::new(PoolState {
                pinned: (0..lanes).map(|_| VecDeque::new()).collect(),
                shared: VecDeque::new(),
                open: true,
                active: 0,
                pending: 0,
                executed: 0,
                depth_peak: 0,
                panic: None,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    /// Number of lanes (worker threads) feeding from this pool.
    pub fn lane_count(&self) -> usize {
        self.lanes
    }

    /// Submits a job any lane may steal.
    ///
    /// # Panics
    ///
    /// Panics if the pool has already shut down (impossible through
    /// [`RpuCluster::with_workers`], which closes the pool only after
    /// the caller's closure returns).
    pub fn submit(&self, job: PoolJob<'j>) {
        self.push(None, job);
    }

    /// Submits a job pinned to `lane`: it runs there and nowhere else,
    /// after every pinned job submitted to that lane before it.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or the pool has shut down.
    pub fn submit_to(&self, lane: usize, job: PoolJob<'j>) {
        assert!(
            lane < self.lanes,
            "pinned submit to lane {lane} of a {}-lane pool",
            self.lanes
        );
        self.push(Some(lane), job);
    }

    /// Locks the pool state once `ready` holds, parking on `cv` until
    /// then — the one place a lock or wait result of the pool's mutex is
    /// handled. Poison is recovered rather than propagated: jobs run
    /// with the lock released, and every critical section below is a
    /// few counter and queue updates that leave the state valid at each
    /// step, so one panicking thread must not wedge the other lanes.
    fn state_when(
        &self,
        cv: &Condvar,
        ready: impl Fn(&PoolState<'j>) -> bool,
    ) -> MutexGuard<'_, PoolState<'j>> {
        let guard = self.queues.lock().unwrap_or_else(PoisonError::into_inner);
        cv.wait_while(guard, |q| !ready(q))
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn state(&self) -> MutexGuard<'_, PoolState<'j>> {
        self.state_when(&self.idle, |_| true)
    }

    fn push(&self, lane: Option<usize>, job: PoolJob<'j>) {
        let mut q = self.state();
        assert!(q.open, "job submitted to a closed pool");
        match lane {
            Some(l) => q.pinned[l].push_back(job),
            None => q.shared.push_back(job),
        }
        q.pending += 1;
        if q.pending > q.depth_peak {
            q.depth_peak = q.pending;
        }
        drop(q);
        // Pinned work must reach one specific parked worker, and the
        // condvar cannot aim — wake them all, the others re-park.
        self.work.notify_all();
    }

    /// Blocks until every job submitted so far has finished.
    pub fn wait_idle(&self) {
        drop(self.state_when(&self.idle, |q| q.pending == 0 && q.active == 0));
    }

    /// Jobs submitted but not yet started (pinned + shared).
    pub fn queued(&self) -> usize {
        self.state().pending
    }

    /// Jobs finished over the pool's lifetime.
    pub fn executed(&self) -> usize {
        self.state().executed
    }

    /// High-water mark of the pending-job backlog so far.
    pub fn queue_peak(&self) -> usize {
        self.state().depth_peak
    }

    /// The first job panic the pool caught, as `(lane, message)` — the
    /// pool keeps draining after a panic, so check this where a panic
    /// must be fatal ([`RpuCluster::run_jobs`] turns it into
    /// [`RpuError::LanePanic`]).
    pub fn panicked(&self) -> Option<(usize, String)> {
        self.state().panic.clone()
    }

    /// Worker side: the next job for `lane` (its pinned queue first,
    /// then the shared queue), parking until one arrives. `None` means
    /// the pool shut down and drained — the worker loop exits.
    fn next_job(&self, lane: usize) -> Option<PoolJob<'j>> {
        let mut q = self.state_when(&self.work, |q| {
            !q.pinned[lane].is_empty() || !q.shared.is_empty() || !q.open
        });
        let job = match q.pinned[lane].pop_front() {
            Some(j) => j,
            None => q.shared.pop_front()?,
        };
        q.pending -= 1;
        q.active += 1;
        Some(job)
    }

    /// Worker side: accounts a finished job (and its panic, if caught).
    fn finish(&self, lane: usize, panic: Option<Box<dyn Any + Send>>) {
        let mut q = self.state();
        q.active -= 1;
        q.executed += 1;
        if let Some(payload) = panic {
            if q.panic.is_none() {
                q.panic = Some((lane, panic_message(payload.as_ref())));
            }
        }
        if q.pending == 0 && q.active == 0 {
            drop(q);
            self.idle.notify_all();
        }
    }

    /// Stops accepting work and wakes every parked worker; they drain
    /// what is already queued, then exit.
    fn close(&self) {
        self.state().open = false;
        self.work.notify_all();
    }
}

/// Closes the pool even if the caller's closure unwinds — parked
/// workers would otherwise never observe shutdown and the owning thread
/// scope would join forever.
struct PoolCloseGuard<'p, 'j>(&'p LanePool<'j>);

impl Drop for PoolCloseGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.close();
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
/// [`RpuSession`] (device heap + kernel cache + functional simulator),
/// the cluster owns the shared [`PrimeTable`].
///
/// Created by [`Rpu::cluster`] (the [`RpuBuilder::lanes`] count) or
/// [`Rpu::cluster_with`] (explicit count). Lanes are separate devices:
/// buffers never travel between them, and the cluster rejects a handle
/// used on the wrong lane with [`BufferError::ForeignLane`] before it
/// can touch a foreign heap.
///
/// [`RpuBuilder::lanes`]: crate::RpuBuilder::lanes
#[derive(Debug)]
pub struct RpuCluster<'a> {
    rpu: &'a Rpu,
    lanes: Vec<Lane<'a>>,
    primes: PrimeTable,
}

impl<'a> RpuCluster<'a> {
    /// Builds a `k`-lane cluster (used by [`Rpu::cluster`] /
    /// [`Rpu::cluster_with`]).
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `[1, 64]` — the same bound
    /// [`RpuBuilder::lanes`](crate::RpuBuilder::lanes) enforces as a
    /// build error.
    pub(crate) fn new(rpu: &'a Rpu, k: usize) -> Self {
        assert!(
            (1..=crate::session::MAX_LANES).contains(&k),
            "cluster lane count must be in [1, {}], got {k}",
            crate::session::MAX_LANES
        );
        RpuCluster {
            rpu,
            lanes: (0..k).map(|index| Lane::new(rpu, index)).collect(),
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

    /// Direct access to one lane's session.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_session(&mut self, lane: usize) -> &mut RpuSession<'a> {
        &mut self.lanes[lane].session
    }

    /// Drives `lane` synchronously from the calling thread: the same
    /// [`LaneWorker`] surface (and accounting) a pool job gets. The
    /// cluster's own per-lane methods are thin calls through it.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane(&mut self, lane: usize) -> LaneWorker<'_, 'a> {
        LaneWorker {
            index: lane,
            lane: &mut self.lanes[lane],
        }
    }

    /// The lane whose heap `buf` is live on, whoever allocated it —
    /// the lane heaps are the only record of placement. (Buffer ids are
    /// global and never reused, so at most one lane answers.)
    pub fn locate(&self, buf: &DeviceBuffer) -> Option<usize> {
        self.lanes.iter().position(|lane| lane.session.owns(buf))
    }

    /// Rejects buffers that are known to live on a different lane.
    pub(crate) fn check_residency(
        &self,
        lane: usize,
        bufs: &[DeviceBuffer],
    ) -> Result<(), RpuError> {
        for buf in bufs {
            if let Some(owner) = self.locate(buf) {
                if owner != lane {
                    return Err(BufferError::ForeignLane {
                        id: buf.id(),
                        owner,
                        used_on: lane,
                    }
                    .into());
                }
            }
        }
        Ok(())
    }

    /// Allocates `len` elements on `lane`.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] when the lane's heap is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn alloc_on(&mut self, lane: usize, len: usize) -> Result<DeviceBuffer, RpuError> {
        self.lane(lane).alloc(len)
    }

    /// Uploads `data` into a fresh buffer on `lane`.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] when the lane's heap is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn upload_to(&mut self, lane: usize, data: &[u128]) -> Result<DeviceBuffer, RpuError> {
        self.lane(lane).upload(data)
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
        self.lane(lane).download(buf)
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
        self.lane(lane).free(buf)
    }

    /// Moves a buffer to another lane through the host link (lanes share
    /// no memory, so this is a download + upload + free), returning the
    /// new handle. A no-op move (same lane) returns the original handle.
    ///
    /// The move is **failure-atomic**: the source is freed only after
    /// the destination copy exists, so when the destination lane's
    /// allocation fails (heap exhausted) the source stays live and
    /// downloadable with its placement-map entry intact — nothing leaks
    /// and nothing half-moves. If freeing the source somehow fails, the
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
        let moved = self.upload_to(to, &data)?;
        if let Err(e) = self.free(buf) {
            // Never leak the copy when the source release fails: roll
            // the destination back and surface the original error.
            let _ = self.free(moved);
            return Err(e);
        }
        Ok(moved)
    }

    /// Copies a buffer to another lane over the host link **without**
    /// freeing the source — the replication primitive ciphertext
    /// operations use when both lanes need the same operand (lanes share
    /// no memory). Same-lane replication produces an independent copy.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles or an exhausted
    /// target heap.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range.
    pub fn replicate(&mut self, buf: &DeviceBuffer, to: usize) -> Result<DeviceBuffer, RpuError> {
        let data = self.download(buf)?;
        self.upload_to(to, &data)
    }

    /// Compiles (or recalls) `spec` on `lane`'s kernel cache, verifying
    /// it once against the golden model — lane caches are independent,
    /// exactly as `k` devices each holding their own program store.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] if generation fails or verification faults.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn compile_on<S: KernelSpec + ?Sized>(
        &mut self,
        lane: usize,
        spec: &S,
    ) -> Result<Arc<Kernel>, RpuError> {
        self.lane(lane).compile(spec)
    }

    /// Dispatches a compiled kernel on `lane` over that lane's resident
    /// buffers, with per-lane accounting. Buffers known to live on a
    /// different lane are rejected with [`BufferError::ForeignLane`].
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for foreign or stale handles and
    /// shape mismatches, [`RpuError::Exec`] if the program faults.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn dispatch_on(
        &mut self,
        lane: usize,
        kernel: &Arc<Kernel>,
        inputs: &[DeviceBuffer],
        outputs: &[DeviceBuffer],
    ) -> Result<RunReport, RpuError> {
        self.check_residency(lane, inputs)?;
        self.check_residency(lane, outputs)?;
        self.lane(lane).dispatch(kernel, inputs, outputs)
    }

    /// One lane's lifetime accounting.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_stats(&self, lane: usize) -> LaneStats {
        let l = &self.lanes[lane];
        LaneStats {
            lane,
            dispatches: l.dispatches,
            cycles: l.cycles,
            busy_us: l.busy_us,
            jobs: l.jobs,
            wall_busy_us: l.wall_busy_us,
            transfer: l.transfer,
        }
    }

    /// Every lane's lifetime accounting.
    pub fn stats(&self) -> Vec<LaneStats> {
        (0..self.lanes.len()).map(|i| self.lane_stats(i)).collect()
    }

    /// One lane's kernel-cache counters.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn cache_stats(&self, lane: usize) -> CacheStats {
        self.lanes[lane].session.cache_stats()
    }

    /// Live device buffers on `lane` — what the lane is holding.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn live_buffers(&self, lane: usize) -> usize {
        self.lanes[lane].session.live_buffers()
    }

    /// The word width `lane`'s simulator stores its elements in
    /// ([`RpuSession::lane_bits`]): 64 or 128.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_bits(&self, lane: usize) -> u32 {
        self.lanes[lane].session.lane_bits()
    }

    /// The busiest lane's total simulated time, in microseconds — the
    /// cluster's completion time so far.
    pub fn makespan_us(&self) -> f64 {
        self.lanes.iter().map(|l| l.busy_us).fold(0.0, f64::max)
    }

    /// Total simulated time across every lane, in microseconds (what one
    /// lane running everything sequentially would take).
    pub fn total_busy_us(&self) -> f64 {
        self.lanes.iter().map(|l| l.busy_us).sum()
    }

    /// Kernels dispatched across every lane.
    pub fn total_dispatches(&self) -> u64 {
        self.lanes.iter().map(|l| l.dispatches).sum()
    }

    /// Serializes every lane's device state plus the buffer → lane
    /// placement map (derived from the lane heaps) as one versioned
    /// `SNAP_V1` cluster snapshot (see [`RpuSession::snapshot`] for what
    /// each lane records).
    pub fn snapshot_all(&self) -> Vec<u8> {
        let mut owners: Vec<(u64, u64)> = (0u64..)
            .zip(&self.lanes)
            .flat_map(|(i, lane)| lane.session.live_ids().map(move |id| (id, i)))
            .collect();
        owners.sort_unstable();
        let lanes: Vec<Vec<u8>> = self.lanes.iter().map(|l| l.session.snapshot()).collect();
        snapshot::encode_cluster(&owners, &lanes)
    }

    /// Restores every lane from a cluster snapshot. Refuses while any
    /// lane still has live buffers — use
    /// [`restore_all_replacing`](RpuCluster::restore_all_replacing) to
    /// swap state out from under live handles atomically.
    ///
    /// # Errors
    ///
    /// [`RpuError::Snapshot`] — [`SnapshotError::LiveBuffers`] when any
    /// lane has live allocations, plus every failure
    /// [`restore_all_replacing`](RpuCluster::restore_all_replacing) can
    /// return. The cluster is unchanged on error.
    pub fn restore_all(&mut self, bytes: &[u8]) -> Result<(), RpuError> {
        let live: usize = self.lanes.iter().map(|l| l.session.live_buffers()).sum();
        if live > 0 {
            return Err(SnapshotError::LiveBuffers { live }.into());
        }
        self.restore_all_replacing(bytes)
    }

    /// Restores every lane from a cluster snapshot even if lanes have
    /// live buffers: every lane is prepared (decoded, geometry-checked,
    /// kernels regenerated) before *any* lane is mutated, so a
    /// multi-lane restore is all-or-nothing. Buffers allocated after
    /// the snapshot become stale on their lane (never double-freed);
    /// handles held since the snapshot keep resolving.
    ///
    /// # Errors
    ///
    /// [`RpuError::Snapshot`] for corrupt or future-version bytes
    /// (including a placement map that disagrees with the lane heaps),
    /// a lane-count or geometry mismatch, or a kernel that cannot be
    /// rebuilt. The cluster is unchanged on error.
    pub fn restore_all_replacing(&mut self, bytes: &[u8]) -> Result<(), RpuError> {
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
            .map(|(lane, bytes)| lane.session.prepare_restore(bytes))
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
            lane.session.apply_restore(p);
        }
        Ok(())
    }

    /// Spawns one persistent worker thread per lane and hands the
    /// calling thread a [`LanePool`] to feed: `f` submits shared
    /// (any-lane, work-stealing) or pinned (lane-affine, per-lane FIFO)
    /// jobs while the workers drain them concurrently. When `f` returns
    /// the pool closes, the workers finish whatever is still queued and
    /// exit, and `f`'s result comes back with the aggregated
    /// [`ClusterRunReport`] for everything that ran.
    ///
    /// This is the persistent engine behind
    /// [`run_jobs`](RpuCluster::run_jobs) — and behind the serving
    /// layer, which pins one long-lived service loop to each lane's
    /// worker for the lifetime of the service (the worker threads are
    /// the only threads it runs on). The pool is `Sync`, so `f` may
    /// share it with client threads of its own (e.g. via
    /// [`std::thread::scope`]).
    ///
    /// A job that **panics** is caught on its worker thread and recorded
    /// ([`LanePool::panicked`]); no mutex is poisoned and the pool keeps
    /// draining, so a faulty job cannot wedge the cluster — long-lived
    /// callers decide whether a panic is fatal. Buffers the panicking
    /// job had allocated on its lane are leaked (their handles died with
    /// the job); the cluster itself stays usable.
    pub fn with_workers<'j, R>(
        &mut self,
        f: impl FnOnce(&LanePool<'j>) -> R,
    ) -> (R, ClusterRunReport) {
        let before: Vec<LaneStats> = self.stats();
        let trace_start = self.rpu.trace_sink().map(|sink| sink.next_seq());
        let nlanes = self.lanes.len();
        let pool = LanePool::new(nlanes);
        // Release `f` only once every worker thread is actually parked
        // on the pool, so a fast caller cannot fill *and* observe the
        // queues before all lanes exist.
        let start = std::sync::Barrier::new(nlanes + 1);
        let started = Instant::now();
        let out = std::thread::scope(|scope| {
            let pool = &pool;
            let start = &start;
            for (index, lane) in self.lanes.iter_mut().enumerate() {
                scope.spawn(move || {
                    start.wait();
                    let mut worker = LaneWorker { index, lane };
                    while let Some(job) = pool.next_job(index) {
                        // No lock is held across the job, and a panic is
                        // caught right here on the worker thread — so a
                        // faulty job can never poison the queue state
                        // the other lanes are draining.
                        let t0 = Instant::now();
                        let outcome =
                            std::panic::catch_unwind(AssertUnwindSafe(|| job(&mut worker)));
                        worker.lane.jobs += 1;
                        worker.lane.wall_busy_us += t0.elapsed().as_secs_f64() * 1e6;
                        pool.finish(index, outcome.err());
                    }
                });
            }
            start.wait();
            let _close = PoolCloseGuard(pool);
            f(pool)
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
            towers: pool.executed(),
            lanes: nlanes,
            per_lane,
            makespan_us,
            sequential_us,
            total_cycles,
            transfer,
            wall_us,
            queue_peak: pool.queue_peak(),
            trace: match (self.rpu.trace_sink(), trace_start) {
                (Some(sink), Some(start)) => sink.events_since(start),
                _ => Vec::new(),
            },
        };
        (out, report)
    }

    /// Runs `jobs.len()` independent lane jobs across the lanes with the
    /// work-stealing scheduler — the engine behind [`RnsExecutor`]'s
    /// tower sharding *and* the per-digit key-switch products of
    /// `RlweEvaluator::mul`/`rotate`. Every lane runs on its own OS
    /// thread, pulling the next un-started job from the shared queue
    /// until it drains; results come back in job order plus the
    /// aggregated report. (A one-shot convenience over
    /// [`with_workers`](RpuCluster::with_workers).)
    ///
    /// A job that **panics** (as opposed to returning an error) is
    /// caught on the worker thread and surfaced as
    /// [`RpuError::LanePanic`] — the queue drains cleanly and no mutex
    /// is poisoned, so the remaining lanes stop instead of wedging.
    /// Buffers the panicking job had allocated on its lane are leaked
    /// (their handles died with the job); the cluster itself stays
    /// usable.
    ///
    /// # Errors
    ///
    /// Returns the first job error or panic (remaining queued work is
    /// abandoned; in-flight jobs finish their current dispatch).
    pub fn run_jobs<'j, T: Send>(
        &mut self,
        jobs: Vec<LaneJob<'j, T>>,
    ) -> Result<(Vec<T>, ClusterRunReport), RpuError> {
        // The run's outcome — per-job results and the first failure —
        // behind one mutex with one lock site. Job panics are caught
        // before they can cross a guard, and each write is a single
        // assignment, so poison is recovered.
        let outcome: Mutex<(Vec<Option<T>>, Option<RpuError>)> =
            Mutex::new(((0..jobs.len()).map(|_| None).collect(), None));
        let outcome_now = || outcome.lock().unwrap_or_else(PoisonError::into_inner);
        let ((), report) = self.with_workers(|pool| {
            for (t, job) in jobs.into_iter().enumerate() {
                pool.submit(Box::new(move |w| {
                    // Abandon still-queued work the moment anything has
                    // failed — one-shot batches stop on first error.
                    if outcome_now().1.is_some() {
                        return;
                    }
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| job(w)));
                    let result = result.unwrap_or_else(|payload| {
                        Err(RpuError::LanePanic {
                            lane: w.lane_index(),
                            message: panic_message(payload.as_ref()),
                        })
                    });
                    let mut out = outcome_now();
                    match result {
                        Ok(v) => out.0[t] = Some(v),
                        Err(e) => drop(out.1.get_or_insert(e)),
                    }
                }));
            }
            pool.wait_idle();
        });

        let (results, failure) = outcome.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = failure {
            return Err(e);
        }
        let outputs = results.into_iter().map(|v| v.expect("every job completed"));
        Ok((outputs.collect(), report))
    }

    /// Runs `towers.len()` independent tower jobs across the lanes (a
    /// [`run_jobs`](RpuCluster::run_jobs) convenience for the fused
    /// negacyclic convolution).
    ///
    /// # Errors
    ///
    /// Returns the first tower error (remaining queued work is
    /// abandoned; in-flight towers finish their dispatch).
    pub fn run_towers(
        &mut self,
        towers: &[TowerJob<'_>],
        style: CodegenStyle,
    ) -> Result<(Vec<Vec<u128>>, ClusterRunReport), RpuError> {
        let jobs: Vec<LaneJob<'_, Vec<u128>>> = towers
            .iter()
            .map(|job| {
                let job = *job;
                Box::new(move |w: &mut LaneWorker<'_, '_>| {
                    w.run_tower(job.n, job.q, job.a, job.b, style)
                }) as LaneJob<'_, Vec<u128>>
            })
            .collect();
        self.run_jobs(jobs)
    }
}

/// One independent unit of sharded work: a negacyclic product in tower
/// `q`'s residue field.
#[derive(Debug, Clone, Copy)]
pub struct TowerJob<'t> {
    /// Ring degree.
    pub n: usize,
    /// The tower modulus.
    pub q: u128,
    /// First operand's residues mod `q` (length `n`).
    pub a: &'t [u128],
    /// Second operand's residues mod `q` (length `n`).
    pub b: &'t [u128],
}

/// Shards RNS-decomposed ring workloads across an [`RpuCluster`] and
/// CRT-recombines on the host — the paper's Fig. 1 dataflow, with the
/// per-tower kernels spread over parallel lanes instead of looped
/// through one session.
#[derive(Debug)]
pub struct RnsExecutor<'a> {
    cluster: RpuCluster<'a>,
    style: CodegenStyle,
}

impl<'a> RnsExecutor<'a> {
    /// Wraps a cluster with the default ([`CodegenStyle::Optimized`])
    /// kernel style.
    pub fn new(cluster: RpuCluster<'a>) -> Self {
        Self::with_style(cluster, CodegenStyle::Optimized)
    }

    /// Wraps a cluster with an explicit kernel style.
    pub fn with_style(cluster: RpuCluster<'a>, style: CodegenStyle) -> Self {
        RnsExecutor { cluster, style }
    }

    /// The underlying cluster (lane statistics, manual buffer work).
    pub fn cluster(&self) -> &RpuCluster<'a> {
        &self.cluster
    }

    /// Mutable access to the underlying cluster.
    pub fn cluster_mut(&mut self) -> &mut RpuCluster<'a> {
        &mut self.cluster
    }

    /// The full tower-sharded negacyclic multiply: tower `t` of the
    /// result is `a_towers[t] ·_neg b_towers[t] (mod moduli[t])`, each
    /// tower one fused-convolution dispatch (forward NTT ×2 → pointwise
    /// multiply → inverse NTT) on whichever lane steals it. One upload
    /// per tower operand, one download per tower product.
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
        let jobs: Vec<TowerJob<'_>> = moduli
            .iter()
            .zip(a_towers.iter().zip(b_towers))
            .map(|(&q, (a, b))| TowerJob { n, q, a, b })
            .collect();
        self.cluster.run_towers(&jobs, self.style)
    }

    /// Multiplies two [`RnsPolynomial`]s on the cluster: towers are
    /// sharded across lanes, and the products are lifted back into an
    /// `RnsPolynomial` over the same context (CRT reconstruction — e.g.
    /// [`RnsPolynomial::to_big_coeffs`] — then happens on the host
    /// whenever the caller wants wide coefficients).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] if the operands use different
    /// contexts, [`RpuError::Ring`] if the products cannot be lifted, or
    /// the first lane error.
    pub fn mul(
        &mut self,
        a: &RnsPolynomial,
        b: &RnsPolynomial,
    ) -> Result<(RnsPolynomial, ClusterRunReport), RpuError> {
        let ctx: &Arc<RnsContext> = a.rns_context();
        if !Arc::ptr_eq(ctx, b.rns_context()) {
            return Err(RpuError::Config(
                "operands must share an RNS context".into(),
            ));
        }
        let n = ctx.degree();
        let moduli = ctx.modulus_values();
        let a_towers = a.tower_coeffs();
        let b_towers = b.tower_coeffs();
        let (products, report) = self.negacyclic_mul_towers(n, &moduli, &a_towers, &b_towers)?;
        let lifted = RnsPolynomial::from_tower_coeffs(ctx, &products)?;
        Ok((lifted, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_arith::find_ntt_prime_chain;

    /// Lanes must be shippable to worker threads: a compile-time
    /// property the work-stealing scheduler rests on.
    #[test]
    fn sessions_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Lane<'static>>();
        assert_send::<RpuSession<'static>>();
        assert_send::<RpuError>();
    }

    #[test]
    fn cluster_builds_independent_lanes() {
        let rpu = Rpu::builder().lanes(3).build().unwrap();
        let mut c = rpu.cluster();
        assert_eq!(c.lane_count(), 3);
        let x = c.upload_to(0, &vec![7u128; 64]).unwrap();
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
        let x = c.upload_to(0, &data).unwrap();
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
        let mut exec = RnsExecutor::new(rpu.cluster());
        // Retry a pathologically starved split (timing-dependent);
        // exactness and traffic accounting are asserted every attempt.
        let mut balanced = None;
        for _ in 0..3 {
            let (got, report) = exec.negacyclic_mul_towers(n, &primes, &a, &b).unwrap();
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
            assert_eq!(exec.cluster().lane_session_mem(lane), 0);
        }
    }

    #[test]
    fn executor_shape_errors() {
        let rpu = Rpu::builder().build().unwrap();
        let mut exec = RnsExecutor::new(rpu.cluster());
        let bad = exec.negacyclic_mul_towers(1024, &[97, 193], &[vec![0; 1024]], &[vec![0; 1024]]);
        assert!(matches!(bad, Err(RpuError::Config(_))));
        let bad = exec.negacyclic_mul_towers(
            1024,
            &[97],
            &[vec![0; 512]], // wrong length
            &[vec![0; 1024]],
        );
        assert!(matches!(bad, Err(RpuError::Config(_))));
    }

    impl<'a> RpuCluster<'a> {
        /// Test helper: a lane's resident element count without taking
        /// `&mut self`.
        fn lane_session_mem(&self, lane: usize) -> usize {
            self.lanes[lane].session.device_mem_in_use()
        }
    }
}
