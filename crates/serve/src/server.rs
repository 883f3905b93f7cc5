//! The serving core: tenant registry, weighted-fair batching, ticketed
//! submission, and the [`serve`] entry point, which runs one service
//! loop per lane on an [`rpu::RpuCluster`]'s lane threads for the
//! lifetime of the service.
//!
//! # Architecture
//!
//! ```text
//! clients ──submit()──▶ per-tenant bounded queues     ServerState,
//!                            │            ▲           one mutex
//!     next_for(lane): admin  │            │ complete(job)
//!     first, else min-vtime  ▼            │
//!     tenant, ≤ quantum     lane loop 0 … lane loop k−1
//!     same-kind jobs        (one per lane thread, for the service's life)
//! ```
//!
//! There is one queue tier and no scheduler thread: lanes pull. Each
//! lane's loop locks the state, asks [`ServerState::next_for`] for its
//! next turn (a tenant batch or an admin task), unlocks, runs it on its
//! own [`RpuSession`], and re-locks only to publish each job's result.
//! A tenant is homed to exactly one lane and a lane runs one turn at a
//! time, so a tenant's device state is never touched concurrently.
//!
//! All shared state lives in one [`ServerCore`] behind a single mutex,
//! reached only through [`ServerCore::lock`]; device work never runs
//! under it. [`ServerState`] itself is a plain state machine — admit
//! (`register` / `submit` / `admin`), `next_for(lane)`, `complete` —
//! that knows no thread, condvar or device, which is what lets the
//! scheduler suite at the bottom of this file drive it from seeded
//! interleavings. Lock and wait results are handled in one function per
//! mutex-owning type ([`ServerCore::lock_when`], [`Slot::value`]), and
//! both recover from poison: every update leaves the guarded data valid
//! at each step, so a panic on one thread must not take the others.

use crate::ops;
use crate::ServeError;
use rpu::evaluator::{GaloisKey, Ops, Towers};
use rpu::ntt::rlwe::{RlweContext, RlweParams, Splitmix};
use rpu::ntt::Domain;
use rpu::recipes::{self, LaneKernels, Temps};
use rpu::{
    AutomorphismSpec, ClusterRunReport, CodegenStyle, DeviceBuffer, DeviceKeySwitchKey, Rpu,
    RpuError, RpuSession,
};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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
        /// Number of slots to reduce over, in `[1, n]` for ring degree
        /// `n` (slots past the ring degree do not exist).
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
    /// The underlying cluster run report. Dispatches, cycles and
    /// transfers are per lane as usual; `panicked` names a lane whose
    /// thread died outside a turn (its tenants stop being served).
    /// Served jobs are counted in [`ServeReport::tenants`].
    pub cluster: ClusterRunReport,
    /// Live device buffers per lane after the drain — the
    /// key-isolation tests assert this returns to zero once every
    /// tenant is torn down.
    pub resident_buffers: Vec<usize>,
}

// ---------------------------------------------------------------------
// Tickets
// ---------------------------------------------------------------------

/// A resolve-once result slot shared by a job ticket or an admin call
/// and whoever runs the work: the first resolution wins, and every
/// waiter sees it.
#[derive(Debug)]
struct Slot<T> {
    value: Mutex<Option<Result<T, ServeError>>>,
    cv: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot {
            value: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// The slot's one lock accessor: its value now, or with `block`
    /// once resolved. Poison is recovered — the only write is a single
    /// assignment.
    fn value(&self, block: bool) -> MutexGuard<'_, Option<Result<T, ServeError>>> {
        let guard = self.value.lock().unwrap_or_else(PoisonError::into_inner);
        self.cv
            .wait_while(guard, |v| block && v.is_none())
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn resolve(&self, result: Result<T, ServeError>) {
        self.value(false).get_or_insert(result);
        self.cv.notify_all();
    }
}

impl<T: Clone> Slot<T> {
    fn poll(&self) -> Option<Result<T, ServeError>> {
        self.value(false).clone()
    }

    fn wait(&self) -> Result<T, ServeError> {
        let resolved = self.value(true).clone();
        resolved.expect("a blocking read returns a resolved slot")
    }
}

/// The producer's end of a [`Slot`], held by whatever will produce the
/// result: a queued job, an admin task, a lane's kernel compile.
/// Dropping it unresolved — its holder unwinding, a lane loop gone —
/// fails the slot, so nobody waits on work that will never finish.
#[derive(Debug)]
struct Resolver<T>(Arc<Slot<T>>);

impl<T> Resolver<T> {
    fn new() -> (Self, Arc<Slot<T>>) {
        let slot = Arc::new(Slot::new());
        (Resolver(Arc::clone(&slot)), slot)
    }

    fn resolve(&self, result: Result<T, ServeError>) {
        self.0.resolve(result);
    }
}

impl<T> Drop for Resolver<T> {
    fn drop(&mut self) {
        if self.0.value(false).is_none() {
            self.resolve(Err(ServeError::Rpu(
                "abandoned: the work panicked or its lane stopped".into(),
            )));
        }
    }
}

/// A claim on one submitted job's result. Cheap to clone; every clone
/// observes the same resolution.
#[derive(Debug, Clone)]
pub struct JobTicket {
    cell: Arc<Slot<JobOutput>>,
}

impl JobTicket {
    /// Non-blocking check: `None` while the job is still queued or
    /// running.
    pub fn poll(&self) -> Option<Result<JobOutput, ServeError>> {
        self.cell.poll()
    }

    /// Blocks until the job resolves.
    pub fn wait(&self) -> Result<JobOutput, ServeError> {
        self.cell.wait()
    }
}

// ---------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------

/// A validated, ready-to-run job (randomness already drawn).
#[derive(Debug)]
enum WorkItem {
    Encrypt {
        masks: Vec<Vec<u128>>,
        payloads: Vec<Vec<u128>>,
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
            WorkItem::Dot { len, .. } => 26u64.saturating_mul((*len).max(1) as u64),
            WorkItem::Free { .. } => 1,
        }
    }
}

#[derive(Debug)]
struct QueuedJob {
    ticket: Resolver<JobOutput>,
    work: WorkItem,
}

/// A tenant's resident key material, in the device core's key types.
#[derive(Debug)]
struct TenantKeys {
    /// The secret key; both components share the one home-lane copy.
    sk: Towers,
    relin: DeviceKeySwitchKey,
    /// Galois element → resident key (with its compiled `σ_g` kernel).
    galois: HashMap<usize, GaloisKey>,
    /// Rotation steps → Galois element.
    steps_to_g: HashMap<usize, usize>,
}

impl TenantKeys {
    fn handles(&self) -> Vec<DeviceBuffer> {
        let rotations = self.galois.values().map(|gk| &gk.key);
        let ksks = [&self.relin].into_iter().chain(rotations);
        let mut sk = self.sk.concat();
        sk.dedup();
        sk.into_iter()
            .chain(ksks.flat_map(DeviceKeySwitchKey::handles))
            .collect()
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
    cts: HashMap<u64, Towers>,
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

    fn unknown_ct(&self, id: u64) -> ServeError {
        let tenant = self.id;
        ServeError::UnknownCiphertext(CtHandle { tenant, id })
    }

    fn ct(&self, id: u64) -> Result<Towers, ServeError> {
        self.cts.get(&id).cloned().ok_or(self.unknown_ct(id))
    }

    fn take_ct(&mut self, id: u64) -> Result<Towers, ServeError> {
        self.cts.remove(&id).ok_or(self.unknown_ct(id))
    }

    /// Takes every device buffer the tenant holds — key material and
    /// resident ciphertexts — for release on its home lane.
    fn take_buffers(&mut self) -> Vec<DeviceBuffer> {
        let keys = self.keys.take().map_or_else(Vec::new, |k| k.handles());
        let cts = self.cts.drain().flat_map(|(_, ct)| ct.concat());
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
    latch: Resolver<()>,
}

/// A lane's next piece of work, as [`ServerState::next_for`] hands it
/// out.
#[derive(Debug)]
enum Turn {
    Admin(AdminTask),
    Batch {
        tenant: TenantId,
        jobs: Vec<QueuedJob>,
    },
}

/// What a finished job produced on the device, before
/// [`ServerState::complete`] turns it into a [`JobOutput`].
#[derive(Debug)]
enum RawOut {
    Ct(Towers),
    Plain(Vec<u128>),
    Freed,
}

#[derive(Debug)]
struct ServerState {
    shutdown: bool,
    paused: bool,
    /// Per lane: a turn handed out by `next_for` is still running.
    lane_busy: Vec<bool>,
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

    fn open(&self) -> Result<(), ServeError> {
        if self.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        Ok(())
    }

    /// Admits a tenant, homed round-robin; it has no keys until its
    /// first `Keygen` admin task has run.
    fn register(&mut self, spec: &TenantSpec) -> Result<TenantId, ServeError> {
        self.open()?;
        let id = TenantId(u32::try_from(self.tenants.len()).expect("tenant count fits u32"));
        let home = self.tenants.len() % self.lane_vclock.len();
        self.tenants.push(TenantState::new(id, home, spec));
        Ok(id)
    }

    /// Admits an admin task for the tenant's home lane; returns that
    /// lane (to wake) and the slot the task resolves.
    fn admin(
        &mut self,
        tenant: TenantId,
        kind: AdminKind,
    ) -> Result<(usize, Arc<Slot<()>>), ServeError> {
        self.open()?;
        let lane = self.tenant(tenant)?.home;
        let (latch, slot) = Resolver::new();
        self.admin.push_back(AdminTask {
            lane,
            tenant,
            kind,
            latch,
        });
        Ok((lane, slot))
    }

    /// Admits a job: backpressure, then validation (ownership, rotation
    /// keys, shapes — drawing encrypt randomness from the tenant's
    /// stream), then the queue. Returns the tenant's home lane (to
    /// wake) and the ticket.
    fn submit(
        &mut self,
        ctx: &RlweContext,
        capacity: usize,
        tenant: TenantId,
        request: JobRequest,
    ) -> Result<(usize, JobTicket), ServeError> {
        self.open()?;
        let n = ctx.n();
        let home = self.tenant(tenant)?.home;
        let clock = self.lane_vclock[home];
        let t = &mut self.tenants[tenant.index()];
        if t.outstanding >= capacity {
            t.rejected += 1;
            self.rejected += 1;
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
                t.keys()?;
                let (masks, payloads) = ctx.sample_mask_and_payload(&message, &mut t.rng);
                WorkItem::Encrypt { masks, payloads }
            }
            JobRequest::Mul { x, y } => WorkItem::Mul {
                x: own(x)?,
                y: own(y)?,
            },
            JobRequest::Rotate { ct, steps } => {
                let g = *t
                    .keys()?
                    .steps_to_g
                    .get(&steps)
                    .ok_or(ServeError::NoRotationKey { tenant, steps })?;
                WorkItem::Rotate { ct: own(ct)?, g }
            }
            JobRequest::Dot { x, y, len } => {
                if len == 0 || len > n {
                    return Err(ServeError::BadRequest(format!(
                        "dot over {len} slots, ring degree is {n}"
                    )));
                }
                let g = if len > 1 {
                    let rot1 = t.keys()?.steps_to_g.get(&1);
                    Some(*rot1.ok_or(ServeError::NoRotationKey { tenant, steps: 1 })?)
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
        let (ticket, cell) = Resolver::new();
        if t.queue.is_empty() && t.vtime < clock {
            t.vtime = clock;
        }
        t.queue.push_back(QueuedJob { ticket, work });
        t.outstanding += 1;
        Ok((home, JobTicket { cell }))
    }

    /// The scheduling decision for one lane, asked by that lane's loop
    /// between turns — so asking also says the lane's previous turn is
    /// over. Admin tasks go first (they bypass pause; shutdown overrides
    /// pause so a paused server still drains), else the weighted-fair
    /// batch. `None` leaves the lane idle. (There is no scheduler-side
    /// dispatch log: batches run under a tenant tag, so the structured
    /// dispatch trace — [`rpu::RpuBuilder::trace`] — is the audit
    /// trail.)
    fn next_for(&mut self, lane: usize, quantum: usize) -> Option<Turn> {
        let turn = if let Some(pos) = self.admin.iter().position(|a| a.lane == lane) {
            self.admin.remove(pos).map(Turn::Admin)
        } else if self.paused && !self.shutdown {
            None
        } else {
            self.next_batch(lane, quantum)
        };
        self.lane_busy[lane] = turn.is_some();
        turn
    }

    /// The min-virtual-time backlogged tenant homed on `lane`, and up
    /// to `quantum` consecutive same-kind jobs off the front of its
    /// queue, charged to its virtual time at `cost / weight`.
    fn next_batch(&mut self, lane: usize, quantum: usize) -> Option<Turn> {
        let backlogged = self
            .tenants
            .iter_mut()
            .filter(|t| t.active && t.home == lane && !t.queue.is_empty());
        let t = backlogged.min_by_key(|t| (t.vtime, t.id))?;
        let kind = t.queue.front()?.work.kind();
        let mut jobs = Vec::new();
        let same_kind = |job: &QueuedJob| job.work.kind() == kind;
        while jobs.len() < quantum.max(1) && t.queue.front().is_some_and(same_kind) {
            jobs.extend(t.queue.pop_front());
        }
        let cost: u128 = jobs.iter().map(|j| u128::from(j.work.cost())).sum();
        self.lane_vclock[lane] = t.vtime;
        t.vtime += (cost << VTIME_SHIFT) / u128::from(t.weight);
        Some(Turn::Batch { tenant: t.id, jobs })
    }

    /// Publishes one finished job: releases its backpressure slot,
    /// registers a produced ciphertext, counts a success.
    fn complete(
        &mut self,
        tenant: TenantId,
        raw: Result<RawOut, ServeError>,
    ) -> Result<JobOutput, ServeError> {
        let t = self.tenant_mut(tenant)?;
        t.outstanding = t.outstanding.saturating_sub(1);
        let output = match raw? {
            RawOut::Ct(ct) => {
                let id = t.next_ct;
                t.next_ct += 1;
                t.cts.insert(id, ct);
                JobOutput::Ciphertext(CtHandle { tenant, id })
            }
            RawOut::Plain(p) => JobOutput::Plaintext(p),
            RawOut::Freed => JobOutput::Freed,
        };
        t.completed += 1;
        self.completed += 1;
        Ok(output)
    }

    /// Teardown's state half: deactivates the tenant, fails its queued
    /// jobs, and hands back every device buffer it held for release on
    /// its home lane.
    fn retire(&mut self, tenant: TenantId) -> Result<Vec<DeviceBuffer>, ServeError> {
        let t = self.tenant_mut(tenant)?;
        t.active = false;
        t.outstanding = t.outstanding.saturating_sub(t.queue.len());
        for job in t.queue.drain(..) {
            job.ticket.resolve(Err(ServeError::UnknownTenant(tenant)));
        }
        Ok(t.take_buffers())
    }

    /// Nothing queued, nothing running: what `wait_all` waits for.
    fn quiescent(&self) -> bool {
        self.admin.is_empty()
            && !self.lane_busy.contains(&true)
            && self.tenants.iter().all(|t| t.outstanding == 0)
    }
}

/// Everything the server shares between clients and lane loops.
#[derive(Debug)]
pub(crate) struct ServerCore {
    ctx: RlweContext,
    config: ServeConfig,
    state: Mutex<ServerState>,
    /// Per lane, wakes that lane's loop: work admitted for it, resume,
    /// or shutdown.
    wake: Vec<Condvar>,
    /// Wakes [`ServerHandle::wait_all`] waiters: a lane went idle.
    drain: Condvar,
}

impl ServerCore {
    fn new(ctx: RlweContext, config: ServeConfig, lanes: usize) -> Self {
        ServerCore {
            ctx,
            config,
            state: Mutex::new(ServerState::new(lanes)),
            wake: (0..lanes).map(|_| Condvar::new()).collect(),
            drain: Condvar::new(),
        }
    }

    /// Locks the state once `ready` holds, parking on `cv` until then —
    /// the one place a lock or wait result of the state mutex is
    /// handled. Poison is recovered: see the module header.
    fn lock_when(
        &self,
        cv: &Condvar,
        mut ready: impl FnMut(&mut ServerState) -> bool,
    ) -> MutexGuard<'_, ServerState> {
        let guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        cv.wait_while(guard, |st| !ready(st))
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn lock(&self) -> MutexGuard<'_, ServerState> {
        self.lock_when(&self.drain, |_| true)
    }

    fn wake_lanes(&self) {
        for cv in &self.wake {
            cv.notify_one();
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
        let id = self.core.lock().register(&spec)?;
        self.admin(id, AdminKind::Keygen)?;
        Ok(id)
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
        let (lane, done) = self.core.lock().admin(tenant, kind)?;
        self.core.wake[lane].notify_one();
        done.wait()
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
        let capacity = core.config.capacity;
        let (lane, ticket) = core.lock().submit(&core.ctx, capacity, tenant, request)?;
        core.wake[lane].notify_one();
        Ok(ticket)
    }

    /// The ring parameters every tenant on this server shares.
    pub fn params(&self) -> RlweParams {
        self.core.config.params
    }

    /// Blocks until every submitted job has resolved and no lane is
    /// running server work.
    pub fn wait_all(&self) {
        drop(self.core.lock_when(&self.core.drain, |st| st.quiescent()));
    }

    /// Stops dispatching tenant batches (admin tasks still run); queued
    /// jobs stay queued until [`resume`](ServerHandle::resume) or
    /// shutdown. For tests that prefill queues deterministically.
    pub fn pause(&self) {
        self.core.lock().paused = true;
    }

    /// Resumes dispatching after [`pause`](ServerHandle::pause).
    pub fn resume(&self) {
        self.core.lock().paused = false;
        self.core.wake_lanes();
    }

    /// One tenant's accounting snapshot.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] for unregistered ids (torn-down
    /// tenants still report).
    pub fn tenant_stats(&self, tenant: TenantId) -> Result<TenantSummary, ServeError> {
        let st = self.core.lock();
        st.tenants
            .get(tenant.index())
            .map(TenantState::summary)
            .ok_or(ServeError::UnknownTenant(tenant))
    }

    /// Every tenant's accounting snapshot, in registration order.
    pub fn stats(&self) -> Vec<TenantSummary> {
        let st = self.core.lock();
        st.tenants.iter().map(TenantState::summary).collect()
    }

    /// Jobs outstanding (queued + in flight) for `tenant`.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn outstanding(&self, tenant: TenantId) -> Result<usize, ServeError> {
        Ok(self.core.lock().tenant(tenant)?.outstanding)
    }
}

// ---------------------------------------------------------------------
// The lane loop and what it runs
// ---------------------------------------------------------------------

/// One lane's service loop, run on the lane's thread for the life of
/// the service: take the next turn, run it with the state
/// unlocked, repeat; return once shutdown finds the lane drained. Each
/// turn runs under `catch_unwind`, so a panic costs that batch — the
/// jobs it had not resolved fail through their [`Resolver`]s — not the
/// lane.
fn lane_loop(w: &mut RpuSession<'_>, core: &ServerCore, k: &LaneKernels) {
    let lane = w.lane_index();
    loop {
        // With nothing to do, tell `wait_all` this lane is idle, then
        // park until a submit, resume or shutdown wakes it.
        let mut turn = None;
        drop(core.lock_when(&core.wake[lane], |st| {
            turn = st.next_for(lane, core.config.quantum);
            if turn.is_none() {
                core.drain.notify_all();
            }
            turn.is_some() || st.shutdown
        }));
        match turn {
            None => return,
            Some(Turn::Admin(task)) => {
                let _ = catch_unwind(AssertUnwindSafe(|| run_admin(w, core, k, task)));
            }
            Some(Turn::Batch { tenant, jobs }) => {
                let mut jobs = jobs.into_iter();
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    // Tag the batch's dispatches with the tenant so the
                    // structured trace is the fairness audit trail;
                    // admin work stays untagged. The guard restores the
                    // previous tag even on panic.
                    let _tag = rpu::TenantTag::new(tenant.index() as u32);
                    for job in jobs.by_ref() {
                        let raw = exec_work(w, core, k, tenant, &job.work);
                        let result = core.lock().complete(tenant, raw);
                        job.ticket.resolve(result);
                    }
                }));
                if ran.is_err() {
                    // The job that unwound took its resolver (which
                    // failed its ticket) with it and never reached
                    // `complete`; the ones behind it never started.
                    let lost = ServeError::Rpu(format!("lane {lane} panicked running the batch"));
                    let mut st = core.lock();
                    let _ = st.complete(tenant, Err(lost.clone()));
                    for job in jobs {
                        let result = st.complete(tenant, Err(lost.clone()));
                        job.ticket.resolve(result);
                    }
                }
            }
        }
    }
}

/// The device side of one job: resolve operands under a brief lock,
/// run the dispatch chain lock-free.
fn exec_work(
    w: &mut RpuSession<'_>,
    core: &ServerCore,
    k: &LaneKernels,
    tenant: TenantId,
    work: &WorkItem,
) -> Result<RawOut, ServeError> {
    let galois = |t: &TenantState, g: usize| {
        let key = t.keys()?.galois.get(&g).cloned();
        key.ok_or_else(|| ServeError::BadRequest(format!("no resident Galois key for g = {g}")))
    };
    let mut ops = Ops::single(w, k);
    match work {
        WorkItem::Encrypt { masks, payloads } => {
            let sk = core.lock().tenant(tenant)?.keys()?.sk.clone();
            Ok(RawOut::Ct(ops.encrypt(&sk, masks, payloads)?))
        }
        WorkItem::Mul { x, y } => {
            let (relin, cx, cy) = {
                let st = core.lock();
                let t = st.tenant(tenant)?;
                (t.keys()?.relin.clone(), t.ct(*x)?, t.ct(*y)?)
            };
            Ok(RawOut::Ct(ops.mul(&relin, &cx, &cy)?))
        }
        WorkItem::Rotate { ct, g } => {
            let (gk, c) = {
                let st = core.lock();
                let t = st.tenant(tenant)?;
                (galois(t, *g)?, t.ct(*ct)?)
            };
            Ok(RawOut::Ct(ops.apply_galois(&gk, &c)?))
        }
        WorkItem::Dot { x, y, len, g } => {
            let (relin, rot, cx, cy) = {
                let st = core.lock();
                let t = st.tenant(tenant)?;
                (
                    t.keys()?.relin.clone(),
                    g.map(|g| galois(t, g)).transpose()?,
                    t.ct(*x)?,
                    t.ct(*y)?,
                )
            };
            let out = ops::dot(ops, &relin, rot.as_ref(), &cx, &cy, *len)?;
            Ok(RawOut::Ct(out))
        }
        WorkItem::Decrypt { ct } => {
            let (sk, c) = {
                let st = core.lock();
                let t = st.tenant(tenant)?;
                (t.keys()?.sk.clone(), t.ct(*ct)?)
            };
            let noisy = ops.phase(&sk, &c)?;
            Ok(RawOut::Plain(core.ctx.decode_phase_towers(&noisy)))
        }
        WorkItem::Free { ct } => {
            let c = core.lock().tenant_mut(tenant)?.take_ct(*ct)?;
            ops.free(c)?;
            Ok(RawOut::Freed)
        }
    }
}

fn run_admin(w: &mut RpuSession<'_>, core: &ServerCore, k: &LaneKernels, task: AdminTask) {
    let result = match task.kind {
        AdminKind::Keygen => run_keygen(w, core, k, task.tenant),
        AdminKind::Teardown => {
            let stale = core.lock().retire(task.tenant);
            stale.map(|buffers| {
                for buf in buffers {
                    let _ = w.free(buf);
                }
            })
        }
    };
    task.latch.resolve(result);
}

/// Generates the tenant's keys from its randomness stream (under the
/// state lock, so the draw order is the submission order a host mirror
/// replays: secret key, relin key, then rotation keys in spec order),
/// releases stale material, and uploads the new keys to the home lane
/// in evaluation form, outside the lock (no transform, no dispatch).
fn run_keygen(
    w: &mut RpuSession<'_>,
    core: &ServerCore,
    k: &LaneKernels,
    tenant: TenantId,
) -> Result<(), ServeError> {
    let base_log = core.config.ksk_base_log;
    let (sk, relin_key, galois_keys, stale) = {
        let mut st = core.lock();
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
        (sk, rk, gks, t.take_buffers())
    };
    for buf in stale {
        let _ = w.free(buf);
    }
    let params = core.config.params;
    let style = core.config.style;
    let mut ops = Ops::single(w, k);
    let mut t = Temps::default();
    let built = (|| {
        let sk = ops.upload(&[sk.towers()[0].values()], Domain::Evaluation)?;
        t.hold_all(sk.concat());
        let relin = ops.upload_key(&relin_key)?;
        t.hold_all(relin.handles());
        let mut galois = HashMap::new();
        let mut steps_to_g = HashMap::new();
        for (steps, gk) in &galois_keys {
            let g = gk.galois_element();
            let spec = AutomorphismSpec::new(params.n, params.q, g, style);
            let dev = ops.galois_key(&[spec], gk.key_switch_key())?;
            t.hold_all(dev.key.handles());
            galois.insert(g, dev);
            steps_to_g.insert(*steps, g);
        }
        Ok(TenantKeys {
            sk,
            relin,
            galois,
            steps_to_g,
        })
    })();
    // Heap exhaustion mid-upload must not strand half a key set.
    let keys = t.settle(built, TenantKeys::handles, |buf| w.free(buf))?;
    core.lock().tenant_mut(tenant)?.keys = Some(keys);
    Ok(())
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

/// Begins shutdown when the [`serve`] closure returns *or unwinds*: the
/// lane loops exit only once told to, and `on_lanes` would otherwise
/// wait on them forever.
struct ShutdownOnDrop<'a>(&'a ServerCore);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.lock().shutdown = true;
        self.0.wake_lanes();
    }
}

/// Runs a multi-tenant server over `rpu`'s cluster for the duration of
/// `f`: compiles the kernel set on every lane, starts each lane's
/// service loop, and hands `f` a [`ServerHandle`] to register tenants
/// and submit jobs through (clone it into as many client threads as you
/// like). When `f` returns, the server drains every queued job (paused
/// or not), shuts down, and returns `f`'s result with the
/// [`ServeReport`].
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
    // keygen task, under the state lock.
    recipes::check_ksk_base_log(config.ksk_base_log)?;
    let mut cluster = rpu.cluster();
    let lanes = cluster.lane_count();
    let core = Arc::new(ServerCore::new(ctx, config, lanes));
    let RlweParams { n, q, .. } = config.params;
    let compiled: Vec<_> = (0..lanes).map(|_| Arc::new(Slot::new())).collect();
    let (out, cluster_report) = cluster.on_lanes(
        |w| {
            // Dropped unresolved — the compile panicked — it fails the
            // slot, so the host below never waits on a dead lane.
            let verdict = Resolver(Arc::clone(&compiled[w.lane_index()]));
            match LaneKernels::compile(w, n, q, config.style) {
                Ok(k) => {
                    verdict.resolve(Ok(()));
                    lane_loop(w, &core, &k);
                }
                Err(e) => verdict.resolve(Err(e.into())),
            }
        },
        || -> Result<R, ServeError> {
            // Armed before the wait: when one lane fails to compile,
            // the lanes that did compile are already in their loops and
            // leave only once told to.
            let _shutdown = ShutdownOnDrop(&core);
            compiled.iter().try_for_each(|lane| lane.wait())?;
            Ok(f(&ServerHandle {
                core: Arc::clone(&core),
            }))
        },
    );
    let result = out?;
    let resident_buffers = (0..lanes)
        .map(|l| cluster.lane_session(l).live_buffers())
        .collect();
    let st = core.lock();
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

#[cfg(test)]
mod tests {
    //! The drop guards, a `serve` whose lanes cannot compile, and the
    //! deterministic scheduler suite: seeded
    //! random interleavings of admit / `next_for` / complete / pause /
    //! resume / teardown against a bare [`ServerState`] — no thread, no
    //! device — checked step by step against a model kept beside it.

    use super::*;

    fn params() -> RlweParams {
        let n = 16;
        let q = rpu::PrimeTable::new().ntt_prime(n).expect("prime exists");
        RlweParams { n, q, t: 257 }
    }

    fn ring() -> RlweContext {
        RlweContext::new(params()).expect("valid parameters")
    }

    #[test]
    fn a_job_dropped_unresolved_fails_its_ticket() {
        let ctx = ring();
        let mut st = ServerState::new(1);
        let tenant = st.register(&TenantSpec::new(1)).unwrap();
        let ct = CtHandle { tenant, id: 0 };
        let (_, queued) = st
            .submit(&ctx, 4, tenant, JobRequest::Decrypt { ct })
            .unwrap();
        let Some(Turn::Batch { jobs, .. }) = st.next_for(0, 4) else {
            panic!("the queued job is the lane's next turn");
        };
        assert_eq!(queued.poll(), None);
        drop(jobs); // what a batch unwinding does to the jobs it held
        assert!(matches!(queued.wait(), Err(ServeError::Rpu(_))));

        // Same for a job still queued when the state itself goes away.
        let (_, queued) = st.submit(&ctx, 4, tenant, JobRequest::Free { ct }).unwrap();
        drop(st);
        assert!(matches!(queued.wait(), Err(ServeError::Rpu(_))));
    }

    #[test]
    fn an_admin_task_dropped_unresolved_fails_its_latch() {
        let mut st = ServerState::new(2);
        let tenant = st.register(&TenantSpec::new(1)).unwrap();
        let (lane, done) = st.admin(tenant, AdminKind::Keygen).unwrap();
        let Some(Turn::Admin(task)) = st.next_for(lane, 4) else {
            panic!("the admin task is the lane's next turn");
        };
        assert_eq!(done.poll(), None);
        drop(task);
        assert!(matches!(done.wait(), Err(ServeError::Rpu(_))));
    }

    /// The generators need n ≥ 1024, so every lane of a 16-coefficient
    /// ring fails its compile: `serve` returns that error, having joined
    /// its lanes, and never calls `f`.
    #[test]
    fn a_lane_that_cannot_compile_fails_serve_without_hanging() {
        let rpu = Rpu::builder().lanes(2).build().expect("default device");
        let config = ServeConfig::new(params());
        let served = serve(&rpu, config, |_| panic!("no lane compiled"));
        assert!(matches!(served, Err(ServeError::Rpu(_))), "{served:?}");
    }

    const CAPACITY: usize = 5;
    /// The dearest job kind the suite submits (`Mul`, `Dot` over one
    /// slot); `Decrypt` costs 4 and `Free` 1.
    const MAX_JOB_COST: u64 = 26;

    struct Admitted {
        ticket: JobTicket,
        kind: JobKind,
        cost: u64,
        handed_out: bool,
    }

    struct AdmittedAdmin {
        tenant: TenantId,
        kind: AdminKind,
        done: Arc<Slot<()>>,
    }

    /// One interleaving: the state under test plus the suite's own
    /// picture of what it should hold.
    struct Sim<'a> {
        st: ServerState,
        ctx: &'a RlweContext,
        rng: Splitmix,
        lanes: usize,
        quantum: usize,
        jobs: Vec<Admitted>,
        /// Per tenant: admitted and not yet handed out, oldest first.
        queued: Vec<VecDeque<usize>>,
        /// Per tenant: handed out and not yet completed.
        in_flight: Vec<usize>,
        retired: Vec<bool>,
        /// Per tenant: the vtime last seen, which must never decrease.
        vtime_seen: Vec<u128>,
        /// Per tenant: total cost handed out.
        served: Vec<u64>,
        /// Per lane: admitted admin tasks, oldest first.
        admin: Vec<VecDeque<AdmittedAdmin>>,
        /// Per lane: the turn it is running.
        running: Vec<Option<Turn>>,
        /// Per pair of tenants: what each had been served when the
        /// current stretch of picks with both backlogged began.
        both_backlogged_since: HashMap<(usize, usize), (u64, u64)>,
    }

    impl<'a> Sim<'a> {
        fn new(ctx: &'a RlweContext, seed: u64) -> Self {
            let mut rng = Splitmix::new(seed);
            let lanes = 1 + rng.below(3) as usize;
            let quantum = 1 + rng.below(4) as usize;
            let mut sim = Sim {
                st: ServerState::new(lanes),
                ctx,
                rng,
                lanes,
                quantum,
                jobs: Vec::new(),
                queued: Vec::new(),
                in_flight: Vec::new(),
                retired: Vec::new(),
                vtime_seen: Vec::new(),
                served: Vec::new(),
                admin: (0..lanes).map(|_| VecDeque::new()).collect(),
                running: (0..lanes).map(|_| None).collect(),
                both_backlogged_since: HashMap::new(),
            };
            for _ in 0..1 + sim.rng.below(3) {
                sim.register();
            }
            sim
        }

        fn pick(&mut self, n: usize) -> usize {
            self.rng.below(n as u128) as usize
        }

        fn tenants(&self) -> usize {
            self.queued.len()
        }

        fn register(&mut self) {
            let spec = TenantSpec::new(self.rng.next_u64()).weight(1 + self.pick(4) as u32);
            let id = self.st.register(&spec).unwrap();
            assert_eq!(id.index(), self.tenants());
            assert_eq!(self.st.tenants[id.index()].home, id.index() % self.lanes);
            self.queued.push(VecDeque::new());
            self.in_flight.push(0);
            self.retired.push(false);
            self.vtime_seen.push(0);
            self.served.push(0);
            self.admit_admin(id, AdminKind::Keygen);
        }

        fn admit_admin(&mut self, tenant: TenantId, kind: AdminKind) {
            match self.st.admin(tenant, kind) {
                Ok((lane, done)) => {
                    assert!(!self.st.shutdown && !self.retired[tenant.index()]);
                    assert_eq!(lane, tenant.index() % self.lanes);
                    self.admin[lane].push_back(AdmittedAdmin { tenant, kind, done });
                }
                Err(ServeError::ShuttingDown) => assert!(self.st.shutdown),
                Err(e) => {
                    assert_eq!(e, ServeError::UnknownTenant(tenant));
                    assert!(self.retired[tenant.index()]);
                }
            }
        }

        fn submit(&mut self) {
            let t = self.pick(self.tenants());
            let tenant = TenantId(t as u32);
            let own = CtHandle { tenant, id: 0 };
            let (request, kind, cost) = match self.pick(5) {
                0 => (JobRequest::Mul { x: own, y: own }, JobKind::Mul, 26),
                1 => (JobRequest::Decrypt { ct: own }, JobKind::Decrypt, 4),
                2 => (JobRequest::Free { ct: own }, JobKind::Free, 1),
                3 => {
                    let dot = JobRequest::Dot {
                        x: own,
                        y: own,
                        len: 1,
                    };
                    (dot, JobKind::Dot, 26)
                }
                _ => {
                    // Never admissible: somebody else's ciphertext.
                    let ct = CtHandle {
                        tenant: TenantId(t as u32 + 1),
                        id: 0,
                    };
                    (JobRequest::Decrypt { ct }, JobKind::Decrypt, 0)
                }
            };
            let home = t % self.lanes;
            let newly_backlogged = self.queued[t].is_empty();
            let (vtime, clock) = (self.st.tenants[t].vtime, self.st.lane_vclock[home]);
            let rejected = self.st.tenants[t].rejected;
            match self.st.submit(self.ctx, CAPACITY, tenant, request) {
                Err(ServeError::ShuttingDown) => assert!(self.st.shutdown),
                Err(ServeError::UnknownTenant(id)) => assert!(id == tenant && self.retired[t]),
                Err(ServeError::QueueFull { capacity, .. }) => {
                    assert_eq!(capacity, CAPACITY);
                    assert_eq!(self.queued[t].len() + self.in_flight[t], CAPACITY);
                    assert_eq!(self.st.tenants[t].rejected, rejected + 1);
                }
                Err(e) => {
                    assert!(matches!(e, ServeError::ForeignCiphertext { .. }), "{e}");
                    assert_eq!(cost, 0);
                }
                Ok((lane, ticket)) => {
                    assert!(cost > 0 && !self.st.shutdown && !self.retired[t]);
                    assert_eq!(lane, home);
                    // A newly backlogged tenant starts at its lane's
                    // clock, not in the past.
                    let start = if newly_backlogged {
                        vtime.max(clock)
                    } else {
                        vtime
                    };
                    assert_eq!(self.st.tenants[t].vtime, start);
                    self.queued[t].push_back(self.jobs.len());
                    self.jobs.push(Admitted {
                        ticket,
                        kind,
                        cost,
                        handed_out: false,
                    });
                }
            }
        }

        /// Lane `lane`, between turns, asks for its next one.
        fn ask(&mut self, lane: usize) {
            assert!(self.running[lane].is_none());
            let backlogged: Vec<usize> = (0..self.tenants())
                .filter(|&t| t % self.lanes == lane && !self.retired[t])
                .filter(|&t| !self.queued[t].is_empty())
                .collect();
            let vtimes: Vec<u128> = self.st.tenants.iter().map(|t| t.vtime).collect();
            let turn = self.st.next_for(lane, self.quantum);
            assert_eq!(self.st.lane_busy[lane], turn.is_some());
            match &turn {
                None => {
                    assert!(self.admin[lane].is_empty());
                    let held = self.st.paused && !self.st.shutdown;
                    assert!(held || backlogged.is_empty());
                }
                Some(Turn::Admin(task)) => {
                    let oldest = self.admin[lane].front().expect("one was admitted");
                    let expected = (lane, oldest.tenant, oldest.kind);
                    assert_eq!((task.lane, task.tenant, task.kind), expected);
                    assert!(Arc::ptr_eq(&task.latch.0, &oldest.done));
                }
                Some(Turn::Batch { tenant, jobs }) => {
                    assert!(self.admin[lane].is_empty(), "admin tasks go first");
                    assert!(!self.st.paused || self.st.shutdown);
                    let t = tenant.index();
                    let least = backlogged.iter().min_by_key(|&&b| (vtimes[b], b));
                    assert_eq!(Some(&t), least, "the least virtual time is served");
                    // One tenant, one kind, at most a quantum, oldest
                    // first, and as long as those three allow.
                    let kind = jobs[0].work.kind();
                    assert!(jobs.len() <= self.quantum);
                    let mut cost = 0;
                    for job in jobs {
                        let next = self.queued[t].pop_front().expect("FIFO: it was queued");
                        let admitted = &mut self.jobs[next];
                        assert!(Arc::ptr_eq(&job.ticket.0, &admitted.ticket.cell));
                        assert!(!admitted.handed_out, "handed out twice");
                        admitted.handed_out = true;
                        assert_eq!((job.work.kind(), admitted.kind), (kind, kind));
                        assert_eq!(job.work.cost(), admitted.cost);
                        cost += admitted.cost;
                    }
                    if let (true, Some(&next)) = (jobs.len() < self.quantum, self.queued[t].front())
                    {
                        assert_ne!(self.jobs[next].kind, kind, "the batch stopped early");
                    }
                    self.in_flight[t] += jobs.len();
                    // Virtual time: the lane clock reads the served
                    // tenant's start, which then advances by cost/weight.
                    let weight = u128::from(self.st.tenants[t].weight);
                    assert_eq!(self.st.lane_vclock[lane], vtimes[t]);
                    let charged = (u128::from(cost) << VTIME_SHIFT) / weight;
                    assert_eq!(self.st.tenants[t].vtime, vtimes[t] + charged);
                    self.check_fairness(lane, &backlogged, t, cost);
                    self.served[t] += cost;
                }
            }
            self.running[lane] = turn;
        }

        /// Between two tenants of one lane, over any stretch of picks
        /// with both backlogged, served cost per unit weight differs by
        /// at most one maximal batch of each (the start-time fair
        /// queueing bound). Called with `cost` just handed to `served`
        /// and not yet added to `self.served`.
        fn check_fairness(&mut self, lane: usize, backlogged: &[usize], served: usize, cost: u64) {
            let on_lane: Vec<usize> = (lane..self.tenants()).step_by(self.lanes).collect();
            let max_batch = self.quantum as u64 * MAX_JOB_COST;
            for (a, &i) in on_lane.iter().enumerate() {
                for &j in &on_lane[a + 1..] {
                    if !(backlogged.contains(&i) && backlogged.contains(&j)) {
                        self.both_backlogged_since.remove(&(i, j));
                        continue;
                    }
                    let stretch = self.both_backlogged_since.entry((i, j));
                    let (si, sj) = *stretch.or_insert((self.served[i], self.served[j]));
                    let now = |t: usize| self.served[t] + if t == served { cost } else { 0 };
                    let (di, dj) = (now(i) - si, now(j) - sj);
                    let (wi, wj) = (self.st.tenants[i].weight, self.st.tenants[j].weight);
                    let (wi, wj) = (u64::from(wi), u64::from(wj));
                    assert!(
                        (di * wj).abs_diff(dj * wi) <= max_batch * (wi + wj),
                        "tenants {i} (weight {wi}) and {j} (weight {wj}) were served {di} and {dj}"
                    );
                }
            }
        }

        /// Lane `lane` makes progress on its turn: finishes the next
        /// job of its batch, or runs its admin task.
        fn advance(&mut self, lane: usize) {
            match self.running[lane].take().expect("the lane has a turn") {
                Turn::Admin(task) => {
                    let admitted = self.admin[lane].pop_front().expect("admitted");
                    let AdmittedAdmin { tenant, kind, done } = admitted;
                    let t = tenant.index();
                    let result = match kind {
                        AdminKind::Keygen => Ok(()), // device work only
                        AdminKind::Teardown => self.st.retire(tenant).map(|buffers| {
                            assert!(buffers.is_empty() && !self.retired[t]);
                            assert_eq!(self.in_flight[t], 0, "same lane: nothing mid-batch");
                            let gone = ServeError::UnknownTenant(tenant);
                            for job in self.queued[t].drain(..) {
                                assert_eq!(self.jobs[job].ticket.poll(), Some(Err(gone.clone())));
                            }
                            self.retired[t] = true;
                        }),
                    };
                    if let Err(e) = &result {
                        assert!(self.retired[t] && *e == ServeError::UnknownTenant(tenant));
                    }
                    task.latch.resolve(result.clone());
                    assert_eq!(done.poll(), Some(result));
                }
                Turn::Batch { tenant, mut jobs } => {
                    let job = jobs.remove(0);
                    let result = self.st.complete(tenant, Ok(RawOut::Freed));
                    assert_eq!(result, Ok(JobOutput::Freed));
                    self.in_flight[tenant.index()] -= 1;
                    job.ticket.resolve(result);
                    if !jobs.is_empty() {
                        self.running[lane] = Some(Turn::Batch { tenant, jobs });
                    }
                }
            }
        }

        /// What must hold after every step.
        fn check(&mut self) {
            for (t, tenant) in self.st.tenants.iter().enumerate() {
                assert!(tenant.vtime >= self.vtime_seen[t], "vtime went backwards");
                self.vtime_seen[t] = tenant.vtime;
                assert_eq!(tenant.active, !self.retired[t]);
                assert!(tenant.outstanding <= CAPACITY);
                if tenant.active {
                    let expected = self.queued[t].len() + self.in_flight[t];
                    assert_eq!(tenant.outstanding, expected);
                }
            }
        }

        fn step(&mut self) {
            let lane = self.pick(self.lanes);
            match self.pick(100) {
                0..=39 => self.submit(),
                40..=87 => match self.running[lane] {
                    None => self.ask(lane),
                    Some(_) => self.advance(lane),
                },
                88..=89 => self.st.paused = true,
                90..=92 => self.st.paused = false,
                93..=94 => {
                    let tenant = TenantId(self.pick(self.tenants()) as u32);
                    self.admit_admin(tenant, AdminKind::Teardown);
                }
                95..=96 => {
                    let tenant = TenantId(self.pick(self.tenants()) as u32);
                    self.admit_admin(tenant, AdminKind::Keygen);
                }
                _ if self.tenants() < 6 => self.register(),
                _ => {}
            }
            self.check();
        }

        /// Shutdown, as [`serve`] does it — paused or not — then every
        /// lane runs until it is told there is nothing left.
        fn drain(mut self) -> usize {
            self.st.shutdown = true;
            self.submit();
            self.admit_admin(TenantId(0), AdminKind::Teardown);
            assert!(self.st.register(&TenantSpec::new(0)).is_err());
            for lane in 0..self.lanes {
                loop {
                    while self.running[lane].is_some() {
                        self.advance(lane);
                        self.check();
                    }
                    self.ask(lane);
                    if self.running[lane].is_none() {
                        break;
                    }
                }
            }
            assert!(self.st.quiescent());
            // Every admitted job was handed out exactly once (and then
            // completed), or failed by its tenant's teardown.
            let mut handed_out = 0;
            for job in &self.jobs {
                match job.ticket.poll().expect("every ticket resolves") {
                    Ok(_) => assert!(job.handed_out),
                    Err(e) => assert!(!job.handed_out, "failed after hand-out: {e}"),
                }
                handed_out += usize::from(job.handed_out);
            }
            assert_eq!(self.st.completed, handed_out as u64);
            self.jobs.len()
        }
    }

    /// Seeds are consecutive from here, so a failure's printed seed
    /// replays alone with `interleaving(&ring(), seed)`.
    const FIRST_SEED: u64 = 0x5EED_0000;
    const INTERLEAVINGS: u64 = 10_000;

    fn interleaving(ctx: &RlweContext, seed: u64) -> usize {
        let mut sim = Sim::new(ctx, seed);
        for _ in 0..100 {
            sim.step();
        }
        sim.drain()
    }

    #[test]
    fn scheduler_invariants_hold_over_seeded_interleavings() {
        let ctx = ring();
        let mut jobs = 0;
        for seed in FIRST_SEED..FIRST_SEED + INTERLEAVINGS {
            let run = catch_unwind(AssertUnwindSafe(|| interleaving(&ctx, seed)));
            jobs += run.unwrap_or_else(|panic| {
                eprintln!("scheduler suite: seed {seed:#x} failed");
                std::panic::resume_unwind(panic)
            });
        }
        println!("scheduler suite: {INTERLEAVINGS} interleavings, {jobs} jobs admitted");
        assert!(
            jobs as u64 > 10 * INTERLEAVINGS,
            "the interleavings barely admit work"
        );
    }
}
