//! The serving core: tenant registry, weighted-fair batching
//! scheduler, ticketed submission, and the [`serve`] entry point that
//! keeps an [`rpu::RpuCluster`] worker pool alive for the lifetime of
//! the service.
//!
//! # Architecture
//!
//! ```text
//! clients ──submit()──▶ per-tenant bounded queues ─┐
//!                                                  │ WFQ pick + batch
//!                                   scheduler thread ──submit_to(lane)──▶ LanePool
//!                                                  ▲                        │
//!                                                  └──── lane-free notify ──┘
//! ```
//!
//! All shared state lives in one [`ServerCore`] behind a single mutex;
//! device work never runs under that lock. A batch job resolves its
//! operands under a brief lock, runs its dispatch chain on the lane
//! worker lock-free (safe because a tenant is homed to exactly one lane
//! and a lane runs one batch at a time), then re-locks to publish
//! results and wake the scheduler.

use crate::ops;
use crate::ServeError;
use rpu::ntt::rlwe::{RlweContext, RlweParams, Splitmix};
use rpu::recipes::{self, LaneKernels, LaneKsk, Temps};
use rpu::{
    AutomorphismSpec, ClusterRunReport, CodegenStyle, DeviceBuffer, DeviceCiphertext, LanePool,
    LaneWorker, Rpu, RpuError,
};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

/// Fixed-point shift for virtual-time arithmetic (`vtime += cost ≪ 16
/// / weight`), so integer weights divide without rounding the fairness
/// away.
const VTIME_SHIFT: u32 = 16;

/// A registered tenant, by registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(u32);

impl TenantId {
    /// The tenant's registration index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// A handle to a ciphertext resident on its owning tenant's home lane.
/// Handles are opaque and tenant-scoped: using one under a different
/// tenant is rejected at submission ([`ServeError::ForeignCiphertext`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CtHandle {
    pub(crate) tenant: TenantId,
    pub(crate) id: u64,
}

impl CtHandle {
    /// The tenant this ciphertext belongs to.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }
}

/// Server-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// RLWE ring parameters every tenant shares (key material and
    /// ciphertexts are still strictly per-tenant).
    pub params: RlweParams,
    /// Code-generation style for every compiled kernel.
    pub style: CodegenStyle,
    /// Per-tenant bound on outstanding jobs (queued + in flight);
    /// submissions beyond it get [`ServeError::QueueFull`].
    pub capacity: usize,
    /// Scheduler batching quantum: up to this many consecutive
    /// *same-kind* jobs of one tenant dispatch as a single lane batch
    /// (shared warm kernels), before fairness re-evaluates.
    pub quantum: usize,
    /// Gadget digit base exponent for tenant key-switch keys, in
    /// `[1, 64]` ([`serve`] rejects anything else).
    pub ksk_base_log: u32,
}

impl ServeConfig {
    /// Defaults: optimized kernels, 64-job queues, quantum of 4,
    /// `B = 2^16` gadget digits.
    pub fn new(params: RlweParams) -> Self {
        ServeConfig {
            params,
            style: CodegenStyle::Optimized,
            capacity: 64,
            quantum: 4,
            ksk_base_log: recipes::DEFAULT_KSK_BASE_LOG,
        }
    }
}

/// Per-tenant registration parameters.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Weighted-fair share (≥ 1): a weight-3 tenant gets 3× the lane
    /// time of a weight-1 tenant under contention.
    pub weight: u32,
    /// Rotation step counts to prepare Galois keys for at registration
    /// ([`JobRequest::Rotate`] / [`JobRequest::Dot`] need them).
    pub rotations: Vec<usize>,
    /// Seed of the tenant's private randomness stream (keys, encrypt
    /// masks) — the whole tenant history is deterministic given the
    /// seed and the submission order.
    pub seed: u64,
}

impl TenantSpec {
    /// Weight-1 tenant with no rotation keys.
    pub fn new(seed: u64) -> Self {
        TenantSpec {
            weight: 1,
            rotations: Vec::new(),
            seed,
        }
    }

    /// Sets the fair-share weight.
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the rotation step counts to prepare keys for.
    pub fn rotations(mut self, steps: Vec<usize>) -> Self {
        self.rotations = steps;
        self
    }
}

/// A typed job submitted through [`ServerHandle::submit`].
#[derive(Debug, Clone)]
pub enum JobRequest {
    /// Encrypt an `n`-slot message under the tenant's key; resolves to
    /// [`JobOutput::Ciphertext`].
    Encrypt {
        /// The plaintext slots (length must equal the ring degree).
        message: Vec<u128>,
    },
    /// Homomorphic multiply (with relinearization) of two resident
    /// ciphertexts; resolves to [`JobOutput::Ciphertext`].
    Mul {
        /// Left operand.
        x: CtHandle,
        /// Right operand.
        y: CtHandle,
    },
    /// Homomorphic rotation by `steps` slots (requires the matching
    /// [`TenantSpec::rotations`] entry); resolves to
    /// [`JobOutput::Ciphertext`].
    Rotate {
        /// The ciphertext to rotate.
        ct: CtHandle,
        /// Rotation amount in slots.
        steps: usize,
    },
    /// Encrypted dot product over the first `len` slots: multiply, then
    /// rotate-by-1 and accumulate `len − 1` times (slot 0 of the result
    /// holds the sum). `len > 1` requires a 1-step rotation key.
    Dot {
        /// Left operand.
        x: CtHandle,
        /// Right operand.
        y: CtHandle,
        /// Number of slots to reduce over (≥ 1).
        len: usize,
    },
    /// Decrypt a resident ciphertext; resolves to
    /// [`JobOutput::Plaintext`].
    Decrypt {
        /// The ciphertext to decrypt.
        ct: CtHandle,
    },
    /// Release a resident ciphertext's device buffers; resolves to
    /// [`JobOutput::Freed`].
    Free {
        /// The ciphertext to free.
        ct: CtHandle,
    },
}

/// The kind of a job, for the dispatch log and batching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// An encryption.
    Encrypt,
    /// A ciphertext multiply.
    Mul,
    /// A rotation.
    Rotate,
    /// A dot product.
    Dot,
    /// A decryption.
    Decrypt,
    /// A buffer release.
    Free,
}

/// What a finished job resolves to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutput {
    /// A fresh resident ciphertext.
    Ciphertext(CtHandle),
    /// Decrypted plaintext slots.
    Plaintext(Vec<u128>),
    /// The buffers were released.
    Freed,
}

/// Per-tenant accounting snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSummary {
    /// The tenant.
    pub tenant: TenantId,
    /// Its fair-share weight.
    pub weight: u32,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Submissions rejected with [`ServeError::QueueFull`].
    pub rejected: u64,
    /// Ciphertexts currently resident on its home lane.
    pub resident_cts: usize,
}

/// The report [`serve`] returns once the service drains: job totals,
/// per-tenant summaries, and the cluster-level accounting
/// (per-lane utilization, queue peak, makespan) of everything that ran.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Jobs completed successfully, over all tenants.
    pub completed: u64,
    /// Submissions rejected by backpressure.
    pub rejected: u64,
    /// Per-tenant summaries, in registration order.
    pub tenants: Vec<TenantSummary>,
    /// The underlying cluster run report.
    pub cluster: ClusterRunReport,
    /// Live device buffers per lane after the drain — the
    /// key-isolation tests assert this returns to zero once every
    /// tenant is torn down.
    pub resident_buffers: Vec<usize>,
}

// ---------------------------------------------------------------------
// Tickets
// ---------------------------------------------------------------------

#[derive(Debug)]
struct TicketCell {
    slot: Mutex<Option<Result<JobOutput, ServeError>>>,
    cv: Condvar,
}

impl TicketCell {
    fn new() -> Self {
        TicketCell {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn resolve(&self, result: Result<JobOutput, ServeError>) {
        *self.slot.lock().expect("not poisoned") = Some(result);
        self.cv.notify_all();
    }
}

/// A claim on one submitted job's result. Cheap to clone; every clone
/// observes the same resolution.
#[derive(Debug, Clone)]
pub struct JobTicket {
    cell: Arc<TicketCell>,
}

impl JobTicket {
    /// Non-blocking check: `None` while the job is still queued or
    /// running.
    pub fn poll(&self) -> Option<Result<JobOutput, ServeError>> {
        self.cell.slot.lock().expect("not poisoned").clone()
    }

    /// Blocks until the job resolves.
    pub fn wait(&self) -> Result<JobOutput, ServeError> {
        let mut slot = self.cell.slot.lock().expect("not poisoned");
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.cell.cv.wait(slot).expect("not poisoned");
        }
    }
}

#[derive(Debug)]
struct AdminLatch {
    slot: Mutex<Option<Result<(), ServeError>>>,
    cv: Condvar,
}

impl AdminLatch {
    fn new() -> Self {
        AdminLatch {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn resolve(&self, result: Result<(), ServeError>) {
        *self.slot.lock().expect("not poisoned") = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<(), ServeError> {
        let mut slot = self.slot.lock().expect("not poisoned");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.cv.wait(slot).expect("not poisoned");
        }
    }
}

// ---------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------

/// A validated, ready-to-run job (randomness already drawn).
#[derive(Debug)]
enum WorkItem {
    Encrypt {
        a_coeffs: Vec<u128>,
        payload: Vec<u128>,
    },
    Mul {
        x: u64,
        y: u64,
    },
    Rotate {
        ct: u64,
        g: usize,
    },
    Dot {
        x: u64,
        y: u64,
        len: usize,
        /// Galois element of the 1-step rotation; `None` iff `len == 1`.
        g: Option<usize>,
    },
    Decrypt {
        ct: u64,
    },
    Free {
        ct: u64,
    },
}

impl WorkItem {
    fn kind(&self) -> JobKind {
        match self {
            WorkItem::Encrypt { .. } => JobKind::Encrypt,
            WorkItem::Mul { .. } => JobKind::Mul,
            WorkItem::Rotate { .. } => JobKind::Rotate,
            WorkItem::Dot { .. } => JobKind::Dot,
            WorkItem::Decrypt { .. } => JobKind::Decrypt,
            WorkItem::Free { .. } => JobKind::Free,
        }
    }

    /// Relative cost proxy for virtual-time accounting (roughly the
    /// dispatch count of the recipe; exact ratios only shape fairness,
    /// not correctness).
    fn cost(&self) -> u64 {
        match self {
            WorkItem::Encrypt { .. } | WorkItem::Decrypt { .. } => 4,
            WorkItem::Mul { .. } => 26,
            WorkItem::Rotate { .. } => 24,
            WorkItem::Dot { len, .. } => 26 + 26 * (len.saturating_sub(1) as u64),
            WorkItem::Free { .. } => 1,
        }
    }
}

#[derive(Debug)]
struct QueuedJob {
    ticket: Arc<TicketCell>,
    work: WorkItem,
}

/// A tenant's resident key material.
#[derive(Debug)]
struct TenantKeys {
    sk_hat: DeviceBuffer,
    relin: LaneKsk,
    /// Galois element → (compiled `σ_g` kernel, resident key).
    galois: HashMap<usize, (Arc<rpu::Kernel>, LaneKsk)>,
    /// Rotation steps → Galois element.
    steps_to_g: HashMap<usize, usize>,
}

impl TenantKeys {
    fn handles(&self) -> Vec<DeviceBuffer> {
        let rotations = self.galois.values().map(|(_, ksk)| ksk);
        let ksks = [&self.relin].into_iter().chain(rotations);
        let ksks = ksks.flat_map(LaneKsk::handles);
        [self.sk_hat].into_iter().chain(ksks).collect()
    }
}

#[derive(Debug)]
struct TenantState {
    id: TenantId,
    home: usize,
    weight: u32,
    active: bool,
    vtime: u128,
    queue: VecDeque<QueuedJob>,
    /// Queued + in-flight jobs; the backpressure counter.
    outstanding: usize,
    rng: Splitmix,
    rotations: Vec<usize>,
    keys: Option<TenantKeys>,
    cts: HashMap<u64, DeviceCiphertext>,
    next_ct: u64,
    completed: u64,
    rejected: u64,
}

impl TenantState {
    fn new(id: TenantId, home: usize, spec: &TenantSpec) -> Self {
        TenantState {
            id,
            home,
            weight: spec.weight.max(1),
            active: true,
            vtime: 0,
            queue: VecDeque::new(),
            outstanding: 0,
            rng: Splitmix::new(spec.seed),
            rotations: spec.rotations.clone(),
            keys: None,
            cts: HashMap::new(),
            next_ct: 0,
            completed: 0,
            rejected: 0,
        }
    }

    fn ct(&self, id: u64) -> Result<DeviceCiphertext, ServeError> {
        self.cts
            .get(&id)
            .copied()
            .ok_or(ServeError::UnknownCiphertext(CtHandle {
                tenant: self.id,
                id,
            }))
    }

    fn take_ct(&mut self, id: u64) -> Result<DeviceCiphertext, ServeError> {
        self.cts
            .remove(&id)
            .ok_or(ServeError::UnknownCiphertext(CtHandle {
                tenant: self.id,
                id,
            }))
    }

    /// Takes every device buffer the tenant holds — key material and
    /// resident ciphertexts — for release on its home lane.
    fn take_buffers(&mut self) -> Vec<DeviceBuffer> {
        let keys = self.keys.take().map_or_else(Vec::new, |k| k.handles());
        let cts = self.cts.drain().flat_map(|(_, ct)| [ct.a, ct.b]);
        keys.into_iter().chain(cts).collect()
    }

    fn keys(&self) -> Result<&TenantKeys, ServeError> {
        self.keys
            .as_ref()
            .ok_or_else(|| ServeError::BadRequest("tenant has no key material".into()))
    }

    fn summary(&self) -> TenantSummary {
        TenantSummary {
            tenant: self.id,
            weight: self.weight,
            completed: self.completed,
            rejected: self.rejected,
            resident_cts: self.cts.len(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AdminKind {
    /// Generate (or regenerate) the tenant's keys. Re-keying releases
    /// the old material and invalidates every resident ciphertext.
    Keygen,
    /// Release everything the tenant holds and deactivate it.
    Teardown,
}

#[derive(Debug)]
struct AdminTask {
    lane: usize,
    tenant: TenantId,
    kind: AdminKind,
    latch: Arc<AdminLatch>,
}

/// What the scheduler hands a lane.
#[derive(Debug)]
enum Work {
    Admin(AdminTask),
    Batch {
        tenant: TenantId,
        items: Vec<QueuedJob>,
    },
}

#[derive(Debug)]
struct ServerState {
    shutdown: bool,
    paused: bool,
    lane_busy: Vec<bool>,
    /// Per-lane compiled kernel sets (populated by the init jobs).
    kernels: Vec<Option<Arc<LaneKernels>>>,
    tenants: Vec<TenantState>,
    admin: VecDeque<AdminTask>,
    /// Per-lane virtual clock: the vtime of the last tenant served
    /// there, so a newly-backlogged tenant starts at "now" instead of
    /// cashing in idle time as a burst.
    lane_vclock: Vec<u128>,
    completed: u64,
    rejected: u64,
}

impl ServerState {
    fn new(lanes: usize) -> Self {
        ServerState {
            shutdown: false,
            paused: false,
            lane_busy: vec![false; lanes],
            kernels: vec![None; lanes],
            tenants: Vec::new(),
            admin: VecDeque::new(),
            lane_vclock: vec![0; lanes],
            completed: 0,
            rejected: 0,
        }
    }

    fn tenant(&self, id: TenantId) -> Result<&TenantState, ServeError> {
        self.tenants
            .get(id.index())
            .filter(|t| t.active)
            .ok_or(ServeError::UnknownTenant(id))
    }

    fn tenant_mut(&mut self, id: TenantId) -> Result<&mut TenantState, ServeError> {
        self.tenants
            .get_mut(id.index())
            .filter(|t| t.active)
            .ok_or(ServeError::UnknownTenant(id))
    }

    fn lane_kernels(&self, lane: usize) -> Result<Arc<LaneKernels>, ServeError> {
        self.kernels[lane]
            .clone()
            .ok_or_else(|| ServeError::BadRequest(format!("lane {lane} kernels not initialized")))
    }

    /// All work drained and nothing running: safe to exit at shutdown.
    fn idle(&self) -> bool {
        self.admin.is_empty()
            && self.tenants.iter().all(|t| t.queue.is_empty())
            && self.lane_busy.iter().all(|b| !b)
    }

    /// One scheduling decision: for the first free lane with work,
    /// admin tasks first (they bypass pause), else the min-virtual-time
    /// active tenant homed there, popping up to `quantum` consecutive
    /// same-kind jobs as one batch. Marks the lane busy. (There is no
    /// scheduler-side dispatch log: batch jobs run under a tenant tag,
    /// so the structured dispatch trace — [`rpu::RpuBuilder::trace`] —
    /// is the audit trail.)
    fn pick_work(&mut self, config: &ServeConfig) -> Option<(usize, Work)> {
        for lane in 0..self.lane_busy.len() {
            if self.lane_busy[lane] {
                continue;
            }
            if let Some(pos) = self.admin.iter().position(|a| a.lane == lane) {
                let task = self.admin.remove(pos).expect("position is valid");
                self.lane_busy[lane] = true;
                return Some((lane, Work::Admin(task)));
            }
            if self.paused {
                continue;
            }
            let best = self
                .tenants
                .iter()
                .enumerate()
                .filter(|(_, t)| t.active && t.home == lane && !t.queue.is_empty())
                .min_by_key(|(_, t)| (t.vtime, t.id))
                .map(|(i, _)| i);
            let Some(i) = best else { continue };
            let kind = self.tenants[i]
                .queue
                .front()
                .expect("queue is nonempty")
                .work
                .kind();
            let mut items = Vec::new();
            while items.len() < config.quantum.max(1) {
                match self.tenants[i].queue.front() {
                    Some(next) if next.work.kind() == kind => {
                        items.push(self.tenants[i].queue.pop_front().expect("front exists"));
                    }
                    _ => break,
                }
            }
            let cost: u128 = items.iter().map(|j| u128::from(j.work.cost())).sum();
            let tenant = self.tenants[i].id;
            self.lane_vclock[lane] = self.tenants[i].vtime;
            let weight = u128::from(self.tenants[i].weight.max(1));
            self.tenants[i].vtime += (cost << VTIME_SHIFT) / weight;
            self.lane_busy[lane] = true;
            return Some((lane, Work::Batch { tenant, items }));
        }
        None
    }
}

/// Everything the server shares between clients, the scheduler, and
/// lane jobs.
#[derive(Debug)]
pub(crate) struct ServerCore {
    ctx: RlweContext,
    config: ServeConfig,
    state: Mutex<ServerState>,
    /// Wakes the scheduler: new work, a lane freed, or shutdown.
    sched: Condvar,
    /// Wakes [`ServerHandle::wait_all`] waiters.
    drain: Condvar,
}

impl ServerCore {
    fn new(ctx: RlweContext, config: ServeConfig, lanes: usize) -> Self {
        ServerCore {
            ctx,
            config,
            state: Mutex::new(ServerState::new(lanes)),
            sched: Condvar::new(),
            drain: Condvar::new(),
        }
    }
}

// ---------------------------------------------------------------------
// The client-facing handle
// ---------------------------------------------------------------------

/// A clonable, thread-safe handle to a running server (valid inside the
/// closure [`serve`] runs). Many client threads may hold clones and
/// submit concurrently.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    core: Arc<ServerCore>,
}

impl ServerHandle {
    /// Registers a tenant: allocates its home lane (round-robin),
    /// seeds its private randomness stream, and generates + uploads its
    /// key material (secret, relinearization, and requested rotation
    /// keys) on that lane. Blocks until the keys are resident.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] after shutdown began, or the
    /// rendered RPU error if key upload fails.
    pub fn register_tenant(&self, spec: TenantSpec) -> Result<TenantId, ServeError> {
        let latch = Arc::new(AdminLatch::new());
        {
            let mut st = self.core.state.lock().expect("not poisoned");
            if st.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            let id = TenantId(u32::try_from(st.tenants.len()).expect("tenant count fits u32"));
            let home = st.tenants.len() % st.lane_busy.len();
            st.tenants.push(TenantState::new(id, home, &spec));
            st.admin.push_back(AdminTask {
                lane: home,
                tenant: id,
                kind: AdminKind::Keygen,
                latch: Arc::clone(&latch),
            });
            drop(st);
            self.core.sched.notify_all();
            latch.wait()?;
            Ok(id)
        }
    }

    /// Rotates the tenant's keys: fresh secret/relin/rotation keys from
    /// its randomness stream replace the old material, whose device
    /// buffers are released. Every resident ciphertext of the tenant is
    /// **invalidated** (they were encrypted under the old key) and its
    /// buffers released. Blocks until the new keys are resident; call
    /// [`wait_all`](ServerHandle::wait_all) first if jobs referencing
    /// old ciphertexts are still in flight.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`], [`ServeError::ShuttingDown`], or
    /// a rendered RPU error from the upload.
    pub fn rekey(&self, tenant: TenantId) -> Result<(), ServeError> {
        self.admin(tenant, AdminKind::Keygen)
    }

    /// Tears a tenant down: fails its queued jobs with
    /// [`ServeError::UnknownTenant`], releases every device buffer it
    /// holds (ciphertexts and keys), and deactivates it. Blocks until
    /// the lane has reclaimed the memory.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] or [`ServeError::ShuttingDown`].
    pub fn teardown(&self, tenant: TenantId) -> Result<(), ServeError> {
        self.admin(tenant, AdminKind::Teardown)
    }

    fn admin(&self, tenant: TenantId, kind: AdminKind) -> Result<(), ServeError> {
        let latch = Arc::new(AdminLatch::new());
        {
            let mut st = self.core.state.lock().expect("not poisoned");
            if st.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            let home = st.tenant(tenant)?.home;
            st.admin.push_back(AdminTask {
                lane: home,
                tenant,
                kind,
                latch: Arc::clone(&latch),
            });
        }
        self.core.sched.notify_all();
        latch.wait()
    }

    /// Submits a job for `tenant`, returning a [`JobTicket`]
    /// immediately. Validation (ownership, rotation keys, message
    /// shape) and backpressure happen here; execution is asynchronous.
    /// Encrypt randomness is drawn from the tenant's stream *now*, in
    /// submission order — the property that makes a host-side replay
    /// bit-exact.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] at the capacity bound (the tenant's
    /// queue and memory stop growing), [`ServeError::ForeignCiphertext`]
    /// / [`ServeError::NoRotationKey`] / [`ServeError::BadRequest`] for
    /// invalid requests, [`ServeError::UnknownTenant`],
    /// [`ServeError::ShuttingDown`].
    pub fn submit(&self, tenant: TenantId, request: JobRequest) -> Result<JobTicket, ServeError> {
        let core = &self.core;
        let n = core.ctx.params().n;
        let mut st = core.state.lock().expect("not poisoned");
        if st.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        let capacity = core.config.capacity;
        st.tenant(tenant)?; // exists and active
        let ti = tenant.index();
        if st.tenants[ti].outstanding >= capacity {
            st.rejected += 1;
            st.tenants[ti].rejected += 1;
            return Err(ServeError::QueueFull { tenant, capacity });
        }
        let own = |ct: CtHandle| -> Result<u64, ServeError> {
            if ct.tenant == tenant {
                Ok(ct.id)
            } else {
                Err(ServeError::ForeignCiphertext { tenant, ct })
            }
        };
        let work = match request {
            JobRequest::Encrypt { message } => {
                if message.len() != n {
                    return Err(ServeError::BadRequest(format!(
                        "message has {} slots, ring degree is {n}",
                        message.len()
                    )));
                }
                st.tenants[ti].keys()?;
                let (a_coeffs, payload) = core
                    .ctx
                    .sample_mask_and_payload(&message, &mut st.tenants[ti].rng);
                WorkItem::Encrypt { a_coeffs, payload }
            }
            JobRequest::Mul { x, y } => WorkItem::Mul {
                x: own(x)?,
                y: own(y)?,
            },
            JobRequest::Rotate { ct, steps } => {
                let g = *st.tenants[ti]
                    .keys()?
                    .steps_to_g
                    .get(&steps)
                    .ok_or(ServeError::NoRotationKey { tenant, steps })?;
                WorkItem::Rotate { ct: own(ct)?, g }
            }
            JobRequest::Dot { x, y, len } => {
                if len == 0 {
                    return Err(ServeError::BadRequest("dot over zero slots".into()));
                }
                let g = if len > 1 {
                    Some(
                        *st.tenants[ti]
                            .keys()?
                            .steps_to_g
                            .get(&1)
                            .ok_or(ServeError::NoRotationKey { tenant, steps: 1 })?,
                    )
                } else {
                    None
                };
                WorkItem::Dot {
                    x: own(x)?,
                    y: own(y)?,
                    len,
                    g,
                }
            }
            JobRequest::Decrypt { ct } => WorkItem::Decrypt { ct: own(ct)? },
            JobRequest::Free { ct } => WorkItem::Free { ct: own(ct)? },
        };
        let cell = Arc::new(TicketCell::new());
        let clock = st.lane_vclock[st.tenants[ti].home];
        let t = &mut st.tenants[ti];
        if t.queue.is_empty() && t.vtime < clock {
            t.vtime = clock;
        }
        t.queue.push_back(QueuedJob {
            ticket: Arc::clone(&cell),
            work,
        });
        t.outstanding += 1;
        drop(st);
        core.sched.notify_all();
        Ok(JobTicket { cell })
    }

    /// The ring parameters every tenant on this server shares.
    pub fn params(&self) -> RlweParams {
        self.core.ctx.params()
    }

    /// Blocks until every submitted job has resolved and no lane is
    /// running server work.
    pub fn wait_all(&self) {
        let mut st = self.core.state.lock().expect("not poisoned");
        while st.tenants.iter().any(|t| t.outstanding > 0)
            || !st.admin.is_empty()
            || st.lane_busy.iter().any(|b| *b)
        {
            st = self.core.drain.wait(st).expect("not poisoned");
        }
    }

    /// Stops dispatching tenant batches (admin tasks still run); queued
    /// jobs stay queued. For tests that prefill queues deterministically.
    pub fn pause(&self) {
        self.core.state.lock().expect("not poisoned").paused = true;
    }

    /// Resumes dispatching after [`pause`](ServerHandle::pause).
    pub fn resume(&self) {
        self.core.state.lock().expect("not poisoned").paused = false;
        self.core.sched.notify_all();
    }

    /// One tenant's accounting snapshot.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] for unregistered ids (torn-down
    /// tenants still report).
    pub fn tenant_stats(&self, tenant: TenantId) -> Result<TenantSummary, ServeError> {
        let st = self.core.state.lock().expect("not poisoned");
        st.tenants
            .get(tenant.index())
            .map(TenantState::summary)
            .ok_or(ServeError::UnknownTenant(tenant))
    }

    /// Every tenant's accounting snapshot, in registration order.
    pub fn stats(&self) -> Vec<TenantSummary> {
        let st = self.core.state.lock().expect("not poisoned");
        st.tenants.iter().map(TenantState::summary).collect()
    }

    /// Jobs outstanding (queued + in flight) for `tenant`.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn outstanding(&self, tenant: TenantId) -> Result<usize, ServeError> {
        let st = self.core.state.lock().expect("not poisoned");
        Ok(st.tenant(tenant)?.outstanding)
    }
}

// ---------------------------------------------------------------------
// Scheduler + lane-job bodies
// ---------------------------------------------------------------------

fn finish_lane(core: &ServerCore, lane: usize) {
    core.state.lock().expect("not poisoned").lane_busy[lane] = false;
    core.sched.notify_all();
    core.drain.notify_all();
}

/// The scheduler thread: waits for work or a freed lane, dispatches one
/// batch per wakeup iteration, exits when shutdown has drained.
fn scheduler_loop(pool: &LanePool<'_>, core: &Arc<ServerCore>) {
    let mut st = core.state.lock().expect("not poisoned");
    loop {
        if let Some((lane, work)) = st.pick_work(&core.config) {
            drop(st);
            let job_core = Arc::clone(core);
            match work {
                Work::Admin(task) => pool.submit_to(
                    lane,
                    Box::new(move |w| {
                        run_admin(w, &job_core, task);
                        finish_lane(&job_core, lane);
                    }),
                ),
                Work::Batch { tenant, items } => pool.submit_to(
                    lane,
                    Box::new(move |w| {
                        // Tag the batch's dispatches with the tenant so
                        // the structured trace is the fairness audit
                        // trail; admin work stays untagged. The guard
                        // restores the previous tag even on panic —
                        // lane worker threads outlive the job.
                        let _tag = rpu::TenantTag::new(tenant.index() as u32);
                        for item in items {
                            exec_item(w, &job_core, tenant, item);
                        }
                        drop(_tag);
                        finish_lane(&job_core, lane);
                    }),
                ),
            }
            st = core.state.lock().expect("not poisoned");
            continue;
        }
        if st.shutdown && st.idle() {
            return;
        }
        st = core.sched.wait(st).expect("not poisoned");
    }
}

enum RawOut {
    Ct(DeviceCiphertext),
    Plain(Vec<u128>),
    Freed,
}

/// Runs one job on the tenant's home lane and resolves its ticket.
fn exec_item(w: &mut LaneWorker<'_, '_>, core: &ServerCore, tenant: TenantId, job: QueuedJob) {
    let QueuedJob { ticket, work } = job;
    let raw = exec_work(w, core, tenant, work);
    let mut st = core.state.lock().expect("not poisoned");
    let result = match st.tenant_mut(tenant) {
        Err(e) => Err(e), // torn down mid-flight
        Ok(t) => {
            t.outstanding = t.outstanding.saturating_sub(1);
            match raw {
                Ok(RawOut::Ct(ct)) => {
                    let id = t.next_ct;
                    t.next_ct += 1;
                    t.cts.insert(id, ct);
                    t.completed += 1;
                    Ok(JobOutput::Ciphertext(CtHandle { tenant, id }))
                }
                Ok(RawOut::Plain(p)) => {
                    t.completed += 1;
                    Ok(JobOutput::Plaintext(p))
                }
                Ok(RawOut::Freed) => {
                    t.completed += 1;
                    Ok(JobOutput::Freed)
                }
                Err(e) => Err(e),
            }
        }
    };
    if result.is_ok() {
        st.completed += 1;
    }
    drop(st);
    core.drain.notify_all();
    ticket.resolve(result);
}

/// The device side of one job: resolve operands under a brief lock,
/// run the dispatch chain lock-free.
fn exec_work(
    w: &mut LaneWorker<'_, '_>,
    core: &ServerCore,
    tenant: TenantId,
    work: WorkItem,
) -> Result<RawOut, ServeError> {
    let lane = w.lane_index();
    let galois = |t: &TenantState, g: usize| {
        let key = t.keys()?.galois.get(&g).cloned();
        key.ok_or_else(|| ServeError::BadRequest(format!("no resident Galois key for g = {g}")))
    };
    match work {
        WorkItem::Encrypt { a_coeffs, payload } => {
            let (k, sk) = {
                let st = core.state.lock().expect("not poisoned");
                (st.lane_kernels(lane)?, st.tenant(tenant)?.keys()?.sk_hat)
            };
            let (a, b) = recipes::encrypt(w, &k, sk, &a_coeffs, &payload)?;
            Ok(RawOut::Ct(DeviceCiphertext { a, b }))
        }
        WorkItem::Mul { x, y } => {
            let (k, relin, cx, cy) = {
                let st = core.state.lock().expect("not poisoned");
                let t = st.tenant(tenant)?;
                (
                    st.lane_kernels(lane)?,
                    t.keys()?.relin.clone(),
                    t.ct(x)?,
                    t.ct(y)?,
                )
            };
            Ok(RawOut::Ct(ops::mul(w, &k, &relin, cx, cy)?))
        }
        WorkItem::Rotate { ct, g } => {
            let (k, (autom, gk), c) = {
                let st = core.state.lock().expect("not poisoned");
                let t = st.tenant(tenant)?;
                (st.lane_kernels(lane)?, galois(t, g)?, t.ct(ct)?)
            };
            Ok(RawOut::Ct(ops::apply_galois(w, &k, &autom, &gk, c)?))
        }
        WorkItem::Dot { x, y, len, g } => {
            let (k, relin, rot, cx, cy) = {
                let st = core.state.lock().expect("not poisoned");
                let t = st.tenant(tenant)?;
                (
                    st.lane_kernels(lane)?,
                    t.keys()?.relin.clone(),
                    g.map(|g| galois(t, g)).transpose()?,
                    t.ct(x)?,
                    t.ct(y)?,
                )
            };
            let out = ops::dot(w, &k, &relin, rot.as_ref(), cx, cy, len)?;
            Ok(RawOut::Ct(out))
        }
        WorkItem::Decrypt { ct } => {
            let (k, sk, c) = {
                let st = core.state.lock().expect("not poisoned");
                let t = st.tenant(tenant)?;
                (st.lane_kernels(lane)?, t.keys()?.sk_hat, t.ct(ct)?)
            };
            let noisy = recipes::phase(w, &k, sk, c.a, c.b)?;
            Ok(RawOut::Plain(core.ctx.decode_noisy(&noisy)))
        }
        WorkItem::Free { ct } => {
            let c = {
                let mut st = core.state.lock().expect("not poisoned");
                st.tenant_mut(tenant)?.take_ct(ct)?
            };
            ops::free_ct(w, c)?;
            Ok(RawOut::Freed)
        }
    }
}

fn run_admin(w: &mut LaneWorker<'_, '_>, core: &ServerCore, task: AdminTask) {
    let result = match task.kind {
        AdminKind::Keygen => run_keygen(w, core, task.tenant),
        AdminKind::Teardown => run_teardown(w, core, task.tenant),
    };
    task.latch.resolve(result);
    core.drain.notify_all();
}

/// Generates the tenant's keys from its randomness stream (under the
/// state lock, so the draw order is the submission order a host mirror
/// replays: secret key, relin key, then rotation keys in spec order),
/// releases stale material, and uploads the new keys to the home lane.
fn run_keygen(
    w: &mut LaneWorker<'_, '_>,
    core: &ServerCore,
    tenant: TenantId,
) -> Result<(), ServeError> {
    let base_log = core.config.ksk_base_log;
    let (sk_coeffs, relin_key, galois_keys, stale) = {
        let mut st = core.state.lock().expect("not poisoned");
        let t = st.tenant_mut(tenant)?;
        let rotations = t.rotations.clone();
        let sk = core.ctx.keygen(&mut t.rng);
        let rk = core.ctx.relin_keygen(&sk, &mut t.rng, base_log);
        let mut gks = Vec::with_capacity(rotations.len());
        for &steps in &rotations {
            let g = core.ctx.galois_element(steps);
            let gk = core
                .ctx
                .galois_keygen(&sk, g, &mut t.rng, base_log)
                .map_err(RpuError::from)?;
            gks.push((steps, gk));
        }
        // Old-key ciphertexts are meaningless now: reclaim them too.
        (sk.s_coeffs(), rk, gks, t.take_buffers())
    };
    for buf in stale {
        let _ = w.free(buf);
    }
    let k = {
        core.state
            .lock()
            .expect("not poisoned")
            .lane_kernels(w.lane_index())?
    };
    let params = core.ctx.params();
    let style = core.config.style;
    let mut t = Temps::default();
    let built = (|| {
        let sk_hat = t.hold(recipes::upload_eval(w, &k, &sk_coeffs)?);
        let relin = ops::upload_ksk(w, &k, &mut t, relin_key.key_switch_key())?;
        let mut galois = HashMap::new();
        let mut steps_to_g = HashMap::new();
        for (steps, gk) in &galois_keys {
            let g = gk.galois_element();
            let kern = w.compile(&AutomorphismSpec::new(params.n, params.q, g, style))?;
            let dev = ops::upload_ksk(w, &k, &mut t, gk.key_switch_key())?;
            galois.insert(g, (kern, dev));
            steps_to_g.insert(*steps, g);
        }
        Ok(TenantKeys {
            sk_hat,
            relin,
            galois,
            steps_to_g,
        })
    })();
    // Heap exhaustion mid-upload must not strand half a key set.
    let keys = t.settle(built, TenantKeys::handles, |buf| w.free(buf))?;
    let mut st = core.state.lock().expect("not poisoned");
    st.tenant_mut(tenant)?.keys = Some(keys);
    Ok(())
}

fn run_teardown(
    w: &mut LaneWorker<'_, '_>,
    core: &ServerCore,
    tenant: TenantId,
) -> Result<(), ServeError> {
    let (stale, dropped) = {
        let mut st = core.state.lock().expect("not poisoned");
        let t = st.tenant_mut(tenant)?;
        t.active = false;
        let stale = t.take_buffers();
        let dropped: Vec<Arc<TicketCell>> = t.queue.drain(..).map(|j| j.ticket).collect();
        t.outstanding = t.outstanding.saturating_sub(dropped.len());
        (stale, dropped)
    };
    for ticket in dropped {
        ticket.resolve(Err(ServeError::UnknownTenant(tenant)));
    }
    for buf in stale {
        let _ = w.free(buf);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

/// Runs a multi-tenant server over `rpu`'s cluster for the duration of
/// `f`: compiles the kernel set on every lane, starts the scheduler,
/// and hands `f` a [`ServerHandle`] to register tenants and submit
/// jobs through (clone it into as many client threads as you like).
/// When `f` returns, the server drains every queued job, shuts down,
/// and returns `f`'s result with the [`ServeReport`].
///
/// # Errors
///
/// Returns [`ServeError::Rpu`] if the ring parameters or
/// [`ServeConfig::ksk_base_log`] are rejected, or a lane fails to
/// compile its kernel set.
pub fn serve<R>(
    rpu: &Rpu,
    config: ServeConfig,
    f: impl FnOnce(&ServerHandle) -> R,
) -> Result<(R, ServeReport), ServeError> {
    let ctx = RlweContext::new(config.params).map_err(RpuError::from)?;
    // An out-of-range base would only surface as a panic inside a
    // keygen job — under the state lock, poisoning every client.
    recipes::check_ksk_base_log(config.ksk_base_log)?;
    let mut cluster = rpu.cluster();
    let lanes = cluster.lane_count();
    let core = Arc::new(ServerCore::new(ctx, config, lanes));
    let init_failure: Mutex<Option<RpuError>> = Mutex::new(None);
    let (out, cluster_report) = cluster.with_workers(|pool| {
        let params = core.ctx.params();
        let style = core.config.style;
        for lane in 0..lanes {
            let job_core = Arc::clone(&core);
            let init_failure = &init_failure;
            pool.submit_to(
                lane,
                Box::new(
                    move |w| match LaneKernels::compile(w, params.n, params.q, style) {
                        Ok(k) => {
                            job_core.state.lock().expect("not poisoned").kernels[lane] =
                                Some(Arc::new(k));
                        }
                        Err(e) => {
                            init_failure.lock().expect("not poisoned").get_or_insert(e);
                        }
                    },
                ),
            );
        }
        pool.wait_idle();
        if let Some(e) = init_failure.lock().expect("not poisoned").take() {
            return Err(ServeError::from(e));
        }
        let result = std::thread::scope(|scope| {
            let sched = {
                let core = Arc::clone(&core);
                scope.spawn(move || scheduler_loop(pool, &core))
            };
            let handle = ServerHandle {
                core: Arc::clone(&core),
            };
            let result = f(&handle);
            core.state.lock().expect("not poisoned").shutdown = true;
            core.sched.notify_all();
            sched.join().expect("scheduler thread does not panic");
            result
        });
        Ok(result)
    });
    let result = out?;
    let resident_buffers = (0..lanes).map(|l| cluster.live_buffers(l)).collect();
    let st = core.state.lock().expect("not poisoned");
    let tenants = st.tenants.iter().map(TenantState::summary).collect();
    Ok((
        result,
        ServeReport {
            completed: st.completed,
            rejected: st.rejected,
            tenants,
            cluster: cluster_report,
            resident_buffers,
        },
    ))
}
