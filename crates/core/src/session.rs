//! The session-based workload API: [`RpuBuilder`], [`RpuSession`] and
//! [`PrimeTable`].
//!
//! Real RLWE traffic runs the *same* handful of kernels over and over —
//! the same ring degrees, the same RNS tower primes, forward and inverse
//! transforms, pointwise ciphertext arithmetic. What is per-*kernel*
//! rather than per-*run* — SPIRAL-style program generation, functional
//! verification against the golden model and cycle timing — happens
//! once per [`Rpu`], in its [`KernelStore`](crate::KernelStore); a
//! session keeps the kernels it asked for and memoizes the NTT-prime
//! search. Beyond that, a session owns the **device state** of a
//! simulated RPU: ring data uploaded once lives in
//! a resident-buffer heap ([`RpuSession::alloc`] /
//! [`upload`](RpuSession::upload)) and a stream of compiled kernels is
//! [`dispatch`](RpuSession::dispatch)ed over it without any host round
//! trips — the paper's execution model (Section II), where the VDM holds
//! the working set and the host only uploads inputs and downloads final
//! results.
//!
//! ```
//! use rpu::{CodegenStyle, Direction, Rpu};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rpu = Rpu::builder().geometry(128, 128).build()?;
//! let mut session = rpu.session();
//! let cold = session.ntt(1024, Direction::Forward, CodegenStyle::Optimized)?;
//! let warm = session.ntt(1024, Direction::Forward, CodegenStyle::Optimized)?;
//! assert!(!cold.cache_hit && warm.cache_hit);
//! assert_eq!(cold.stats.cycles, warm.stats.cycles);
//! # Ok(())
//! # }
//! ```
//!
//! A resident pipeline — upload once, dispatch a chain, download once:
//!
//! ```
//! use rpu::{CodegenStyle, ElementwiseOp, ElementwiseSpec, Rpu};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rpu = Rpu::builder().build()?;
//! let mut s = rpu.session();
//! let q = s.primes_for(1024)?;
//! let mul = s.compile(&ElementwiseSpec::new(
//!     ElementwiseOp::MulMod, 1024, q, CodegenStyle::Optimized))?;
//! let x = s.upload(&vec![3u128; 1024])?;        // host → device, once
//! let w = s.upload(&vec![5u128; 1024])?;
//! let y = s.alloc(1024)?;
//! s.dispatch(&mul, &[x, w], &[y])?;             // no host traffic
//! let r = s.dispatch(&mul, &[y, w], &[x])?;     // chain over residents
//! assert!(r.transfer.image_reused && r.transfer.host_to_device == 0);
//! assert_eq!(s.download(&x)?[0], 75);           // device → host, once
//! // The session counted all of it where it happened.
//! let total = s.stats();
//! assert_eq!((total.dispatches, total.transfer.host_elements()), (2, 3 * 1024));
//! # Ok(())
//! # }
//! ```

use crate::buffer::{BufferAllocator, BufferError, DeviceBuffer, TransferStats};
use crate::run::{Rpu, RunReport};
use crate::snapshot::{self, SessionImage, SnapshotError};
use crate::store::Stored;
use crate::trace::{self, DispatchEvent, TraceSink};
use crate::RpuError;
use rpu_codegen::{CodegenStyle, Direction, Kernel, KernelKey, KernelSpec, NttSpec};
use rpu_isa::AReg;
use rpu_model::{AreaModel, EnergyModel};
use rpu_sim::{FunctionalSim, RpuConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Default bit width of session-chosen NTT primes (the paper's 128-bit
/// coefficient pipeline leaves headroom for lazy reduction).
const DEFAULT_PRIME_BITS: u32 = 126;

/// Widest prime the 128-bit datapath supports: moduli must stay below
/// 2^127 for the lazy-reduction headroom the compute units assume.
const MAX_PRIME_BITS: u32 = 126;

/// Builder for a configured [`Rpu`]: microarchitecture, hardware models,
/// clock, and session policies (prime width, device heap size, lanes).
///
/// # Examples
///
/// ```
/// use rpu::Rpu;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The paper's (128, 128) design point at its derived 1.68 GHz clock.
/// let rpu = Rpu::builder().build()?;
/// // A what-if: the same machine clocked at 2 GHz with 60-bit primes.
/// let fast = Rpu::builder().clock_ghz(2.0).prime_bits(60).build()?;
/// assert!(fast.clock_ghz() > rpu.clock_ghz());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RpuBuilder {
    pub(crate) config: RpuConfig,
    pub(crate) area_model: AreaModel,
    pub(crate) energy_model: EnergyModel,
    pub(crate) clock_ghz: Option<f64>,
    pub(crate) prime_bits: u32,
    device_heap_elements: Option<usize>,
    pub(crate) lanes: usize,
    pub(crate) force_interpreter: bool,
    pub(crate) trace: Option<Arc<dyn TraceSink>>,
}

/// Most lanes a cluster may be built with: past this the simulated VDM
/// heaps dwarf any host the simulator runs on.
const MAX_LANES: usize = 64;

/// The one lane-count check, for [`RpuBuilder::build`] and
/// [`Rpu::cluster_with`].
pub(crate) fn check_lanes(k: usize) -> Result<usize, RpuError> {
    if (1..=MAX_LANES).contains(&k) {
        Ok(k)
    } else {
        Err(RpuError::Config(format!(
            "lanes must be in [1, {MAX_LANES}], got {k}"
        )))
    }
}

impl Default for RpuBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl RpuBuilder {
    /// Starts from the paper's best design point ((128, 128), default
    /// models, VDM-derived clock).
    pub fn new() -> Self {
        RpuBuilder {
            config: RpuConfig::pareto_128x128(),
            area_model: AreaModel::default(),
            energy_model: EnergyModel::default(),
            clock_ghz: None,
            prime_bits: DEFAULT_PRIME_BITS,
            device_heap_elements: None,
            lanes: 1,
            force_interpreter: false,
            trace: None,
        }
    }

    /// Sets the full microarchitectural configuration.
    pub fn config(mut self, config: RpuConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the (HPLEs, VDM banks) geometry, keeping other parameters at
    /// their defaults.
    pub fn geometry(mut self, hples: usize, banks: usize) -> Self {
        self.config = RpuConfig::with_geometry(hples, banks);
        self
    }

    /// Overrides the area model.
    pub fn area_model(mut self, model: AreaModel) -> Self {
        self.area_model = model;
        self
    }

    /// Overrides the energy model.
    pub fn energy_model(mut self, model: EnergyModel) -> Self {
        self.energy_model = model;
        self
    }

    /// Overrides the clock. By default the clock is derived from the VDM
    /// geometry ([`RpuConfig::frequency_ghz`]); an explicit value models
    /// a different process corner without touching cycle counts.
    pub fn clock_ghz(mut self, ghz: f64) -> Self {
        self.clock_ghz = Some(ghz);
        self
    }

    /// Sets the bit width of session-chosen NTT primes (default 126).
    /// Narrower primes model cheaper RNS towers; widths above 126 are
    /// rejected at [`build`](RpuBuilder::build) because the 128-bit
    /// pipeline needs lazy-reduction headroom below 2^127.
    pub fn prime_bits(mut self, bits: u32) -> Self {
        self.prime_bits = bits;
        self
    }

    /// Sets the capacity, in 128-bit elements, of the device-resident
    /// buffer heap each session lays out above its kernel workspace
    /// (default: one configured-VDM's worth). Workspace + heap must fit
    /// the 32 MiB architectural VDM maximum.
    pub fn device_heap_elements(mut self, elements: usize) -> Self {
        self.device_heap_elements = Some(elements);
        self
    }

    /// Sets how many independent RPU lanes `Rpu::cluster` builds
    /// (default 1). Each lane is a full session — its own device heap
    /// and functional simulator — so `k` lanes model `k` RPU dies fed by
    /// one host, the scale-out axis of the paper's RNS decomposition
    /// (every tower is independent work). The lanes load their programs
    /// from the one [`KernelStore`](crate::KernelStore) of the `Rpu`.
    pub fn lanes(mut self, k: usize) -> Self {
        self.lanes = k;
        self
    }

    /// Forces sessions to execute kernels with the step-by-step
    /// reference interpreter instead of the pre-decoded fast path.
    ///
    /// Dispatch results are bit-identical either way (the interpreter is
    /// the fast path's oracle — see `FunctionalSim`'s
    /// interpreter-as-oracle contract); this switch exists for
    /// differential testing and for debugging suspected fast-path
    /// divergences at the cost of much slower dispatches.
    pub fn force_interpreter(mut self, force: bool) -> Self {
        self.force_interpreter = force;
        self
    }

    /// Installs a structured dispatch-trace sink: every session (and
    /// every cluster lane) on the built RPU records one
    /// [`DispatchEvent`] per successful dispatch to it. The default
    /// [`RingTraceSink`](crate::RingTraceSink) keeps a bounded ring of
    /// recent events in faithful dispatch order; keep your own clone of
    /// the [`Arc`] to read them back.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Builds the [`Rpu`].
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] for invalid configurations, a
    /// non-positive clock override, an unsupported prime width, a lane
    /// count outside `[1, 64]`, or a device heap that overflows the
    /// architectural VDM.
    pub fn build(self) -> Result<Rpu, RpuError> {
        if let Some(ghz) = self.clock_ghz {
            if !(ghz.is_finite() && ghz > 0.0) {
                return Err(RpuError::Config(format!(
                    "clock override must be a positive frequency, got {ghz}"
                )));
            }
        }
        if !(2..=MAX_PRIME_BITS).contains(&self.prime_bits) {
            return Err(RpuError::Config(format!(
                "prime_bits must be in [2, {MAX_PRIME_BITS}] (the 128-bit pipeline \
                 keeps moduli below 2^127 for lazy reduction), got {}",
                self.prime_bits
            )));
        }
        check_lanes(self.lanes)?;
        let max = rpu_isa::consts::VDM_MAX_BYTES / rpu_isa::consts::ELEM_BYTES;
        let workspace = self.config.vdm_elements();
        let heap = match self.device_heap_elements {
            Some(heap) => {
                if workspace + heap > max {
                    return Err(RpuError::Config(format!(
                        "workspace ({workspace}) + device heap ({heap}) elements exceed \
                         the {max}-element (32 MiB) architectural VDM"
                    )));
                }
                heap
            }
            // Default: one configured-VDM's worth, clamped so workspace +
            // heap never exceeds the architectural maximum.
            None => workspace.min(max.saturating_sub(workspace)),
        };
        Rpu::from_builder(self, heap)
    }
}

/// Memoized NTT-prime lookup: one [`rpu_arith::find_ntt_prime_u128`]
/// search per ring degree, shared by every spec the session builds.
#[derive(Debug, Clone)]
pub struct PrimeTable {
    primes: HashMap<usize, u128>,
    bits: u32,
}

impl Default for PrimeTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PrimeTable {
    /// Creates an empty table of default (~126-bit) primes.
    pub fn new() -> Self {
        Self::with_bits(DEFAULT_PRIME_BITS)
    }

    /// Creates an empty table searching `bits`-bit primes (what sessions
    /// on an [`RpuBuilder::prime_bits`]-configured RPU use).
    pub fn with_bits(bits: u32) -> Self {
        PrimeTable {
            primes: HashMap::new(),
            bits,
        }
    }

    /// The prime width this table searches.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The table's NTT prime for ring degree `n` (`q ≡ 1 (mod 2n)`),
    /// memoized across calls. The search itself is bounded (see
    /// [`rpu_arith::find_ntt_prime_u128`]), and impossible requests —
    /// a degree that is not a power of two, or a `prime_bits` width too
    /// narrow to hold any `k·2n + 1` — come back as clean errors instead
    /// of panicking inside the searcher or walking forever.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] for a zero / non-power-of-two degree
    /// or a width outside `[2, 126]`, and [`RpuError::NoPrime`] if no
    /// prime `q < 2^bits` with `q ≡ 1 (mod 2n)` exists (e.g. 8-bit
    /// primes for n = 4096: the smallest candidate, `2n + 1 = 8193`,
    /// already overflows the width).
    pub fn ntt_prime(&mut self, n: usize) -> Result<u128, RpuError> {
        if let Some(&q) = self.primes.get(&n) {
            return Ok(q);
        }
        if n == 0 || !n.is_power_of_two() || n > 1 << 40 {
            return Err(RpuError::Config(format!(
                "NTT ring degree must be a power of two (got {n})"
            )));
        }
        if !(2..=MAX_PRIME_BITS).contains(&self.bits) {
            return Err(RpuError::Config(format!(
                "prime table width must be in [2, {MAX_PRIME_BITS}] bits, got {}",
                self.bits
            )));
        }
        // Reject widths that cannot even represent the smallest
        // candidate 2n + 1 up front — the stride search would scan
        // nothing, but the error should say *why*.
        if (1u128 << self.bits) <= 2 * n as u128 + 1 {
            return Err(RpuError::NoPrime { degree: n });
        }
        let q = rpu_arith::find_ntt_prime_u128(self.bits, 2 * n as u128)
            .ok_or(RpuError::NoPrime { degree: n })?;
        self.primes.insert(n, q);
        Ok(q)
    }
}

/// A snapshot of one session's lifetime accounting
/// ([`RpuSession::stats`]): how much work it has absorbed and what data
/// movement that cost. A cluster lane *is* its session, so this is also
/// the per-lane record of a [`ClusterRunReport`](crate::ClusterRunReport).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LaneStats {
    /// The lane index (0 for a standalone session).
    pub lane: usize,
    /// Kernels dispatched on this lane.
    pub dispatches: u64,
    /// Total simulated cycles across those dispatches.
    pub cycles: u64,
    /// Total simulated on-RPU time, in microseconds.
    pub busy_us: f64,
    /// Aggregated data movement (uploads, downloads, on-device copies).
    pub transfer: TransferStats,
}

/// A session's kernel counters ([`RpuSession::cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests for a key the session had asked for before.
    pub hits: u64,
    /// First requests for a key (the kernel came from the `Rpu`'s
    /// store, built there if no session had asked for it yet).
    pub misses: u64,
    /// Keys the session holds.
    pub entries: usize,
}

/// The persistent device state of a session: the functional simulator
/// holding VDM/SDM contents across dispatches, the resident-buffer
/// allocator above the kernel workspace, and the identity of the kernel
/// image currently loaded in the workspace.
#[derive(Debug)]
struct DeviceState {
    sim: FunctionalSim,
    /// Elements reserved for kernel working sets at the bottom of the
    /// VDM (the configured VDM capacity).
    workspace: usize,
    heap: BufferAllocator,
    /// The kernel whose constant image currently occupies the
    /// workspace; dispatches of the same kernel skip the image rewrite.
    loaded: Option<KernelKey>,
    /// Heap offsets of the operands of the dispatch in flight (kept so
    /// binding them allocates nothing).
    in_locs: Vec<usize>,
}

impl DeviceState {
    fn new(workspace: usize, heap_elements: usize) -> Self {
        DeviceState {
            // Lazily grown: nothing is allocated until a dispatch or an
            // upload actually needs device memory.
            sim: FunctionalSim::new(0, 0),
            workspace,
            heap: BufferAllocator::new(workspace, heap_elements),
            loaded: None,
            in_locs: Vec::new(),
        }
    }

    /// Grows the simulator to cover the workspace requirement plus every
    /// heap offset ever allocated.
    fn ensure(&mut self, workspace_needed: usize, sdm_needed: usize) {
        self.sim
            .ensure_vdm(workspace_needed.max(self.heap.high_water_end()));
        self.sim.ensure_sdm(sdm_needed.max(16));
    }
}

/// A workload session on an [`Rpu`]: the kernels it asked for (fetched
/// from the `Rpu`'s [`KernelStore`](crate::KernelStore)), a
/// [`PrimeTable`], and the device state — resident buffers plus the
/// functional simulator they live in — so repeated, batched, and
/// pipelined runs amortize generation *and* data movement.
///
/// Created by [`Rpu::session`]. Two styles of use:
///
/// * **One-shot**: [`run`](RpuSession::run) / [`ntt`](RpuSession::ntt)
///   — upload-dispatch-download per call, kernel generation amortized by
///   the store. Every call pays the full host round trip.
/// * **Resident**: [`upload`](RpuSession::upload) operands once,
///   [`compile`](RpuSession::compile) kernels once per shape, then
///   [`dispatch`](RpuSession::dispatch) chains over [`DeviceBuffer`]s;
///   an L-op pipeline costs 1 upload + L dispatches + 1
///   [`download`](RpuSession::download) instead of L round trips.
#[derive(Debug)]
pub struct RpuSession<'a> {
    rpu: &'a Rpu,
    /// The store entries this session asked for, by key: what a
    /// snapshot's key section lists and a dispatch reads its timing from.
    kernels: HashMap<KernelKey, Arc<Stored>>,
    /// The hits and misses of [`cache_stats`](RpuSession::cache_stats).
    counts: CacheStats,
    primes: PrimeTable,
    device: DeviceState,
    /// Lifetime accounting, updated where each thing happens (`upload`,
    /// `write`, `download`, `finish`). `stats.lane` is the index stamped
    /// on trace events: 0 for a standalone session, the lane's own in a
    /// cluster. A diagnostic like the kernel counters: kept across
    /// `restore`, never serialized.
    stats: LaneStats,
}

impl<'a> RpuSession<'a> {
    pub(crate) fn new(rpu: &'a Rpu, lane: usize) -> Self {
        RpuSession {
            rpu,
            kernels: HashMap::new(),
            counts: CacheStats::default(),
            primes: PrimeTable::with_bits(rpu.prime_bits()),
            device: DeviceState::new(rpu.config().vdm_elements(), rpu.device_heap_elements()),
            stats: LaneStats {
                lane,
                ..LaneStats::default()
            },
        }
    }

    /// The session's lifetime accounting: kernels dispatched (one-shot
    /// [`run_with`](RpuSession::run_with) round trips included), their
    /// simulated cycles and time, and every element moved over the host
    /// link or copied on-device.
    pub fn stats(&self) -> LaneStats {
        self.stats
    }

    /// The lane this session is in its cluster (0 when standalone) —
    /// jobs use it to pick lane-resident key material, kernels, or
    /// accumulators out of per-lane tables.
    pub fn lane_index(&self) -> usize {
        self.stats.lane
    }

    /// The RPU this session runs on.
    pub fn rpu(&self) -> &Rpu {
        self.rpu
    }

    /// The session's memoized default NTT prime for ring degree `n` —
    /// the prime [`ntt`](RpuSession::ntt) and the figure binaries use
    /// ([`Rpu::prime_bits`] wide).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::NoPrime`] if no such prime exists.
    pub fn primes_for(&mut self, n: usize) -> Result<u128, RpuError> {
        self.primes.ntt_prime(n)
    }

    // ------------------------------------------------------------------
    // Resident-buffer API
    // ------------------------------------------------------------------

    /// Allocates `len` elements of device-resident memory (contents
    /// undefined until written).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] when the heap is exhausted.
    pub fn alloc(&mut self, len: usize) -> Result<DeviceBuffer, RpuError> {
        let buf = self.device.heap.alloc(len)?;
        self.device.ensure(0, 0);
        Ok(buf)
    }

    /// Uploads `data` into a freshly allocated device buffer (the one
    /// host → device transfer of a resident pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] when the heap is exhausted.
    pub fn upload(&mut self, data: &[u128]) -> Result<DeviceBuffer, RpuError> {
        let buf = self.alloc(data.len())?;
        self.device.sim.write_vdm(buf.offset_elements(), data)?;
        self.stats.transfer.host_to_device += data.len();
        Ok(buf)
    }

    /// Overwrites an existing device buffer with `data` (buffer reuse
    /// instead of free + upload).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles or a length
    /// mismatch.
    pub fn write(&mut self, buf: &DeviceBuffer, data: &[u128]) -> Result<(), RpuError> {
        let (offset, len) = self.device.heap.resolve(buf)?;
        if data.len() != len {
            return Err(BufferError::LengthMismatch {
                expected: len,
                got: data.len(),
            }
            .into());
        }
        self.device.sim.write_vdm(offset, data)?;
        self.stats.transfer.host_to_device += len;
        Ok(())
    }

    /// Downloads a device buffer's contents (the one device → host
    /// transfer of a resident pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles.
    pub fn download(&mut self, buf: &DeviceBuffer) -> Result<Vec<u128>, RpuError> {
        let (offset, len) = self.device.heap.resolve(buf)?;
        let data = self.device.sim.read_vdm(offset, len)?;
        self.stats.transfer.device_to_host += len;
        Ok(data)
    }

    /// Frees a device buffer; the handle becomes stale and the space is
    /// immediately reusable.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles (double frees
    /// included).
    pub fn free(&mut self, buf: DeviceBuffer) -> Result<(), RpuError> {
        Ok(self.device.heap.free(&buf)?)
    }

    /// `true` if `buf` is a live allocation of *this* session's heap
    /// (lane-locating probe for the cluster layer).
    pub(crate) fn owns(&self, buf: &DeviceBuffer) -> bool {
        self.device.heap.resolve(buf).is_ok()
    }

    /// The id of every live allocation, in increasing order (what a
    /// cluster snapshot's placement map lists for this lane).
    pub(crate) fn live_ids(&self) -> impl Iterator<Item = u64> {
        self.device.heap.live_entries().into_iter().map(|e| e.0)
    }

    /// Device-heap elements currently allocated.
    pub fn device_mem_in_use(&self) -> usize {
        self.device.heap.in_use()
    }

    /// Number of live device buffers.
    pub fn live_buffers(&self) -> usize {
        self.device.heap.live_buffers()
    }

    /// Device-heap capacity in elements
    /// ([`RpuBuilder::device_heap_elements`]).
    pub fn device_heap_capacity(&self) -> usize {
        self.device.heap.capacity()
    }

    /// The width, in bits, of the words the session's simulator stores
    /// its elements in ([`FunctionalSim::lane_bits`]): 64 until an
    /// upload, write, kernel image or restore brings a value of 2⁶⁴ or
    /// more, 128 from then on. A session over sub-64-bit moduli stays
    /// at 64 and moves half the bytes per element.
    pub fn lane_bits(&self) -> u32 {
        self.device.sim.lane_bits()
    }

    /// The kernel for `spec` from the `Rpu`'s store, which generates,
    /// verifies against its golden model and cycle-times each key once
    /// for every session — the per-*shape* step of the
    /// accelerator-runtime model. The result is what
    /// [`dispatch`](RpuSession::dispatch) binds data to.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] if generation fails or verification
    /// *faults*. A clean verification mismatch is not an error: the
    /// verdict is memoized on the kernel ([`Kernel::verification`]) and
    /// surfaces as `verified: false` on every report.
    pub fn compile<S: KernelSpec + ?Sized>(&mut self, spec: &S) -> Result<Arc<Kernel>, RpuError> {
        Ok(Arc::clone(&self.fetch(spec)?.0.kernel))
    }

    /// The store entry for `spec` and whether this session had asked
    /// for its key before (a hit).
    fn fetch<S: KernelSpec + ?Sized>(&mut self, spec: &S) -> Result<(Arc<Stored>, bool), RpuError> {
        let key = spec.key();
        if let Some(stored) = self.kernels.get(&key) {
            self.counts.hits += 1;
            return Ok((Arc::clone(stored), true));
        }
        self.counts.misses += 1;
        let stored = self.rpu.kernel_store().get(spec)?;
        self.kernels.insert(key, Arc::clone(&stored));
        Ok((stored, false))
    }

    /// Dispatches a compiled kernel over device-resident buffers: binds
    /// `inputs` to the kernel's operand windows with on-device copies,
    /// executes the program on the session's persistent simulator, and
    /// writes the result into `outputs[0]` — **no host data movement**.
    /// Consecutive dispatches of the same kernel also skip reloading its
    /// constant image (`transfer.image_reused`).
    ///
    /// The report's `verified` flag is the verdict memoized on the
    /// kernel itself ([`Kernel::verification`]); `cache_hit` is always
    /// `true` — a dispatch never generates anything.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Buffer`] for stale handles, operand-count or
    /// length mismatches, or a kernel too large for the workspace, and
    /// [`RpuError::Exec`] if the program faults.
    pub fn dispatch(
        &mut self,
        kernel: &Arc<Kernel>,
        inputs: &[DeviceBuffer],
        outputs: &[DeviceBuffer],
    ) -> Result<RunReport, RpuError> {
        // The clock is read only for a sink that will record it.
        let traced = self.rpu.trace_sink().map(|sink| (sink, Instant::now()));
        let moved = self.dispatch_raw(kernel, inputs, outputs)?;
        let report = self.finish(kernel, true, moved);
        if let Some((sink, started)) = traced {
            sink.record(DispatchEvent {
                seq: 0, // the sink assigns the real sequence number
                key: kernel.key(),
                engine: kernel.engine(),
                lane: self.stats.lane,
                inputs: inputs.iter().map(DeviceBuffer::id).collect(),
                outputs: outputs.iter().map(DeviceBuffer::id).collect(),
                cycles: report.stats.cycles,
                wall_ns: started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                tenant: trace::current_tenant(),
            });
        }
        Ok(report)
    }

    /// The shared tail of [`dispatch`](RpuSession::dispatch) and the
    /// one-shot round trip: the report of one executed kernel (its
    /// stored timing, its verdict, what `dispatch_raw` `moved`), folded
    /// into the session's lifetime [`stats`](RpuSession::stats).
    fn finish(&mut self, kernel: &Kernel, cache_hit: bool, moved: TransferStats) -> RunReport {
        let (stats, mix) = match self.kernels.get(&kernel.key()) {
            Some(stored) => (stored.stats.clone(), stored.mix),
            None => self.rpu.kernel_store().timing(kernel),
        };
        let verified = kernel.verification().unwrap_or(false);
        let mut report = self
            .rpu
            .assemble_report(mix, kernel.key(), stats, verified, cache_hit);
        report.transfer = moved;
        self.stats.dispatches += 1;
        self.stats.cycles += report.stats.cycles;
        self.stats.busy_us += report.runtime_us;
        self.stats.transfer.absorb(&moved);
        report
    }

    /// The data-movement core of a dispatch (no timing, no report).
    fn dispatch_raw(
        &mut self,
        kernel: &Kernel,
        inputs: &[DeviceBuffer],
        outputs: &[DeviceBuffer],
    ) -> Result<TransferStats, RpuError> {
        if inputs.len() != kernel.arity() {
            return Err(BufferError::ArityMismatch {
                expected: kernel.arity(),
                got: inputs.len(),
            }
            .into());
        }
        if outputs.len() != 1 {
            return Err(BufferError::ArityMismatch {
                expected: 1,
                got: outputs.len(),
            }
            .into());
        }
        let workspace_needed = kernel.total_elements();
        if workspace_needed > self.device.workspace {
            return Err(BufferError::WorkspaceOverflow {
                required: workspace_needed,
                capacity: self.device.workspace,
            }
            .into());
        }
        // Resolve every handle before touching device state.
        self.device.in_locs.clear();
        for (buf, &(_, need)) in inputs.iter().zip(kernel.input_ranges()) {
            let (offset, len) = self.device.heap.resolve(buf)?;
            if len != need {
                return Err(BufferError::LengthMismatch {
                    expected: need,
                    got: len,
                }
                .into());
            }
            self.device.in_locs.push(offset);
        }
        let (out_ws, out_len) = kernel.output_range();
        let (out_offset, got) = self.device.heap.resolve(&outputs[0])?;
        if got != out_len {
            return Err(BufferError::LengthMismatch {
                expected: out_len,
                got,
            }
            .into());
        }

        self.device.ensure(workspace_needed, kernel.sdm_elements());
        let mut transfer = TransferStats::default();

        // Load the kernel's constant image unless it is already resident.
        if self.device.loaded != Some(kernel.key()) {
            // The workspace may hold a partial image if this fails.
            self.device.loaded = None;
            transfer.image_elements = kernel.load_into(&mut self.device.sim)?;
            self.device.loaded = Some(kernel.key());
        } else {
            transfer.image_reused = true;
        }

        // Bind operands: heap → workspace, entirely on-device.
        for (&src, &(dst, len)) in self.device.in_locs.iter().zip(kernel.input_ranges()) {
            self.device.sim.copy_vdm(dst, src, len)?;
            transfer.device_copies += len;
        }

        // Generated programs assume `a0 = 0`; re-assert it in case a
        // previous program loaded address registers.
        self.device.sim.set_arf(AReg::at(0), 0);
        // The pre-decoded fast path is the production executor; the
        // interpreter is the bit-exact oracle, selectable for
        // differential runs via `RpuBuilder::force_interpreter`.
        let ran = if self.rpu.force_interpreter() {
            self.device.sim.run(kernel.program())
        } else {
            self.device.sim.run_predecoded(kernel.predecoded())
        };
        if let Err(e) = ran {
            // The workspace may hold a partial image now.
            self.device.loaded = None;
            return Err(RpuError::Exec(e));
        }

        // Result write-back: workspace → heap, still on-device.
        self.device.sim.copy_vdm(out_offset, out_ws, out_len)?;
        transfer.device_copies += out_len;
        Ok(transfer)
    }

    // ------------------------------------------------------------------
    // One-shot conveniences (upload-dispatch-download per call)
    // ------------------------------------------------------------------

    /// Runs one workload spec on caller-supplied operands: compiles (or
    /// recalls) the kernel, uploads the operands, dispatches, and
    /// downloads the result — one full round trip. Chained workloads
    /// should hold [`DeviceBuffer`]s and [`dispatch`](RpuSession::dispatch)
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] if generation, allocation, or execution
    /// fails, or if operand counts/lengths mismatch the kernel.
    pub fn run_with<S: KernelSpec + ?Sized>(
        &mut self,
        spec: &S,
        operands: &[&[u128]],
    ) -> Result<(Vec<u128>, RunReport), RpuError> {
        let (stored, hit) = self.fetch(spec)?;
        self.round_trip(&stored.kernel, hit, operands)
    }

    /// Shared upload-dispatch-download core of [`run`](RpuSession::run)
    /// and [`run_with`](RpuSession::run_with) (the kernel already
    /// fetched by the caller).
    fn round_trip(
        &mut self,
        kernel: &Kernel,
        hit: bool,
        operands: &[&[u128]],
    ) -> Result<(Vec<u128>, RunReport), RpuError> {
        if operands.len() != kernel.arity() {
            return Err(BufferError::ArityMismatch {
                expected: kernel.arity(),
                got: operands.len(),
            }
            .into());
        }
        let mut buffers = Vec::with_capacity(operands.len() + 1);
        let result: Result<_, RpuError> = (|| {
            for op in operands {
                buffers.push(self.upload(op)?);
            }
            let out = self.alloc(kernel.output_range().1)?;
            buffers.push(out);
            let moved = self.dispatch_raw(kernel, &buffers[..operands.len()], &[out])?;
            Ok((self.download(&out)?, moved))
        })();
        // Scratch buffers never outlive the call, success or not.
        for buf in buffers {
            let _ = self.device.heap.free(&buf);
        }
        let (data, moved) = result?;
        // `upload` and `download` have already counted the host link in
        // the lifetime stats; the report of this run names it too.
        let mut report = self.finish(kernel, hit, moved);
        report.transfer.host_to_device = operands.iter().map(|op| op.len()).sum();
        report.transfer.device_to_host = data.len();
        Ok((data, report))
    }

    /// Runs one workload spec end to end on deterministic synthetic
    /// operands — a thin upload-dispatch-download convenience over the
    /// resident-buffer path. The first run of a spec pays kernel
    /// generation + golden-model verification unless the `Rpu`'s store
    /// already holds it; warm runs reuse the kernel and its stored cycle
    /// timing but still pay the full
    /// per-call data round trip, *including* a lane-exact functional
    /// execution of the kernel (that is what a run now is). Chained
    /// workloads should [`dispatch`](RpuSession::dispatch) over resident
    /// buffers; sweeps that only need cycle timing can hold the kernel
    /// [`compile`](RpuSession::compile) returns and reuse one report's
    /// `stats`.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] if generation, verification, or execution
    /// fails.
    pub fn run<S: KernelSpec + ?Sized>(&mut self, spec: &S) -> Result<RunReport, RpuError> {
        let (stored, hit) = self.fetch(spec)?;
        let operands = stored.kernel.synthetic_operands();
        let refs: Vec<&[u128]> = operands.iter().map(Vec::as_slice).collect();
        let (_, report) = self.round_trip(&stored.kernel, hit, &refs)?;
        Ok(report)
    }

    /// Convenience: run an NTT with the session's default prime for `n`.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError`] if no prime exists or generation fails.
    pub fn ntt(
        &mut self,
        n: usize,
        direction: Direction,
        style: CodegenStyle,
    ) -> Result<RunReport, RpuError> {
        let q = self.primes_for(n)?;
        self.run(&NttSpec::new(n, q, direction, style))
    }

    /// The session's kernel counters: a session's first request for a
    /// key is its miss, every later one a hit.
    pub fn cache_stats(&self) -> CacheStats {
        let entries = self.kernels.len();
        CacheStats {
            entries,
            ..self.counts
        }
    }

    // ------------------------------------------------------------------
    // Snapshot / restore
    // ------------------------------------------------------------------

    /// Serializes the session's full persistent device state — VDM/SDM
    /// contents, the heap map (live and free blocks), the keys of the
    /// kernels the session asked for, and the loaded-image identity — as versioned `SNAP_V1`
    /// bytes (see `docs/snapshot-format.md`). Identical device state
    /// always produces identical bytes.
    ///
    /// Kernel hit/miss counters are diagnostics, not device state, and
    /// are not serialized; register
    /// files are not serialized either, because every generated program
    /// initializes the registers it reads.
    pub fn snapshot(&self) -> Vec<u8> {
        // Sorted by wire encoding, so equal state gives equal bytes.
        let mut keys: Vec<KernelKey> = self.kernels.keys().copied().collect();
        keys.sort_unstable_by_key(|k| k.to_bytes());
        let sim = &self.device.sim;
        let vdm = sim.read_vdm(0, sim.vdm_capacity()).expect("full range");
        let sdm = sim.read_sdm(0, sim.sdm_capacity()).expect("full range");
        let image = SessionImage {
            workspace: self.device.workspace as u64,
            heap_base: self.device.heap.base() as u64,
            heap_capacity: self.device.heap.capacity() as u64,
            high_water: self.device.heap.high_water() as u64,
            vdm,
            sdm,
            live: self
                .device
                .heap
                .live_entries()
                .into_iter()
                .map(|(id, offset, len)| (id, offset as u64, len as u64))
                .collect(),
            free: self
                .device
                .heap
                .free_blocks()
                .into_iter()
                .map(|(offset, len)| (offset as u64, len as u64))
                .collect(),
            keys,
            loaded: self.device.loaded,
        };
        snapshot::encode_session(&image)
    }

    /// Restores the session to a snapshotted state, returning handles
    /// to the buffers that were live when the snapshot was taken (same
    /// ids, offsets, and lengths — handles held since the snapshot keep
    /// resolving).
    ///
    /// Live buffers are no obstacle: the entire device state (heap map
    /// included) is replaced in one step, every buffer allocated after
    /// the snapshot becomes stale (its id is absent from the restored
    /// heap, so use returns [`BufferError::StaleHandle`] — never a
    /// double free), and ids are never recycled.
    ///
    /// All fallible work (decode, geometry checks, fetching the kernels)
    /// happens before any mutation, so the session is unchanged on
    /// error.
    ///
    /// # Errors
    ///
    /// [`RpuError::Snapshot`] for corrupt or future-version bytes, a
    /// geometry mismatch with this session, or a kernel that cannot be
    /// built (see [`SnapshotError`]).
    pub fn restore(&mut self, bytes: &[u8]) -> Result<Vec<DeviceBuffer>, RpuError> {
        let prepared = self.prepare_restore(bytes)?;
        Ok(self.apply_restore(prepared))
    }

    /// The fallible half of a restore: decode, geometry checks against
    /// this session, heap-map validation, and each snapshotted kernel
    /// from the `Rpu`'s store (built there only if it lacks the key) —
    /// no mutation. Clusters prepare every lane before applying any, so a
    /// multi-lane restore is all-or-nothing.
    pub(crate) fn prepare_restore(&self, bytes: &[u8]) -> Result<PreparedRestore, RpuError> {
        let image = snapshot::decode_session(bytes)?;
        let checks: [(&'static str, u64, u64); 3] = [
            (
                "workspace size",
                image.workspace,
                self.device.workspace as u64,
            ),
            ("heap base", image.heap_base, self.device.heap.base() as u64),
            (
                "heap capacity",
                image.heap_capacity,
                self.device.heap.capacity() as u64,
            ),
        ];
        for (what, snap, target) in checks {
            if snap != target {
                return Err(SnapshotError::GeometryMismatch {
                    what,
                    snapshot: snap,
                    target,
                }
                .into());
            }
        }
        let (live, free, high_water) = convert_heap_map(&image)?;
        // Validate the heap map against a scratch allocator so applying
        // it later cannot fail.
        let mut scratch =
            BufferAllocator::new(self.device.heap.base(), self.device.heap.capacity());
        scratch
            .restore_state(live, free, high_water)
            .map_err(|detail| SnapshotError::Corrupt(format!("heap map: {detail}")))?;
        let kernels = image.keys.iter().map(|key| {
            let spec = rpu_codegen::spec_for_key(key)
                .ok_or_else(|| format!("no kernel spec reproduces the snapshotted key {key:?}"))?;
            let stored = self.rpu.kernel_store().get(&*spec);
            stored.map_err(|e| format!("building {key:?} failed: {e}"))
        });
        let kernels = kernels
            .collect::<Result<_, _>>()
            .map_err(|detail| SnapshotError::KernelRebuild { detail })?;
        Ok(PreparedRestore { image, kernels })
    }

    /// The infallible half of a restore: swaps the prepared state in
    /// and returns the snapshot's live-buffer handles.
    pub(crate) fn apply_restore(&mut self, prepared: PreparedRestore) -> Vec<DeviceBuffer> {
        let PreparedRestore { image, kernels } = prepared;
        let (live, free, high_water) =
            convert_heap_map(&image).expect("prepare validated the heap map");
        self.device
            .heap
            .restore_state(live.clone(), free, high_water)
            .expect("prepare validated the heap map");
        // The memories become exactly the image's, so the restored
        // session snapshots to the bytes it was restored from.
        let sim = &mut self.device.sim;
        sim.restore_memories(&image.vdm, &image.sdm);
        // The restore dropped the loaded kernel's tables: take them back
        // if the image holds them, so its twiddles keep their quotients.
        // An image that does not hold them (a writer whose kernel for
        // that key had other tables) is not resident: the next dispatch
        // loads this build's.
        let held = (kernels.iter())
            .find(|s| Some(s.kernel.key()) == image.loaded)
            .is_some_and(|s| sim.adopt_constants(s.kernel.constant_tables()));
        self.device.loaded = image.loaded.filter(|_| held);
        self.kernels = kernels.into_iter().map(|s| (s.kernel.key(), s)).collect();
        live.into_iter()
            .map(|(id, offset, len)| DeviceBuffer::from_raw(id, offset, len))
            .collect()
    }
}

/// A decoded, validated restore with its kernels fetched, ready to
/// apply infallibly (see [`RpuSession::prepare_restore`]).
#[derive(Debug)]
pub(crate) struct PreparedRestore {
    image: SessionImage,
    kernels: Vec<Arc<Stored>>,
}

impl PreparedRestore {
    /// `true` if buffer `id` is live in the prepared heap.
    pub(crate) fn holds(&self, id: u64) -> bool {
        self.image.live.iter().any(|entry| entry.0 == id)
    }
}

/// Converts a decoded image's heap map to allocator-native types,
/// rejecting values that overflow `usize`.
#[allow(clippy::type_complexity)]
fn convert_heap_map(
    image: &SessionImage,
) -> Result<(Vec<(u64, usize, usize)>, Vec<(usize, usize)>, usize), RpuError> {
    let overflow = || RpuError::from(SnapshotError::Corrupt("heap map overflows usize".into()));
    let mut live = Vec::with_capacity(image.live.len());
    for &(id, offset, len) in &image.live {
        live.push((
            id,
            usize::try_from(offset).map_err(|_| overflow())?,
            usize::try_from(len).map_err(|_| overflow())?,
        ));
    }
    let mut free = Vec::with_capacity(image.free.len());
    for &(offset, len) in &image.free {
        free.push((
            usize::try_from(offset).map_err(|_| overflow())?,
            usize::try_from(len).map_err(|_| overflow())?,
        ));
    }
    let high_water = usize::try_from(image.high_water).map_err(|_| overflow())?;
    Ok((live, free, high_water))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_codegen::{ElementwiseOp, ElementwiseSpec};

    #[test]
    fn builder_defaults_match_legacy_constructor() {
        let a = Rpu::builder().build().unwrap();
        let b = Rpu::new(RpuConfig::pareto_128x128()).unwrap();
        assert_eq!(a.config(), b.config());
        assert_eq!(a.clock_ghz(), b.clock_ghz());
        assert_eq!(a.area().total(), b.area().total());
    }

    #[test]
    fn builder_rejects_bad_clock() {
        assert!(matches!(
            Rpu::builder().clock_ghz(0.0).build(),
            Err(RpuError::Config(_))
        ));
        assert!(matches!(
            Rpu::builder().clock_ghz(f64::NAN).build(),
            Err(RpuError::Config(_))
        ));
    }

    #[test]
    fn builder_validates_prime_bits() {
        for bad in [0, 1, 127, 128, 200] {
            assert!(
                matches!(
                    Rpu::builder().prime_bits(bad).build(),
                    Err(RpuError::Config(_))
                ),
                "prime_bits({bad}) must be rejected"
            );
        }
        let rpu = Rpu::builder().prime_bits(60).build().unwrap();
        assert_eq!(rpu.prime_bits(), 60);
        let q = rpu.session().primes_for(1024).unwrap();
        assert_eq!(q, rpu_arith::find_ntt_prime_u128(60, 2048).unwrap());
        assert!(q < 1u128 << 61);
    }

    #[test]
    fn builder_validates_cache_and_heap() {
        // workspace (default 4 MiB = 262144 elements) + 2M-element heap
        // exceeds the 32 MiB architectural VDM
        assert!(matches!(
            Rpu::builder().device_heap_elements(2 << 20).build(),
            Err(RpuError::Config(_))
        ));
        let rpu = Rpu::builder().device_heap_elements(8192).build().unwrap();
        assert_eq!(rpu.session().device_heap_capacity(), 8192);
    }

    #[test]
    fn clock_override_scales_runtime_not_cycles() {
        let slow = Rpu::builder().build().unwrap();
        let fast = Rpu::builder()
            .clock_ghz(2.0 * slow.clock_ghz())
            .build()
            .unwrap();
        let spec = |rpu: &Rpu| {
            let mut s = rpu.session();
            s.ntt(1024, Direction::Forward, CodegenStyle::Optimized)
                .unwrap()
        };
        let a = spec(&slow);
        let b = spec(&fast);
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert!((a.runtime_us / b.runtime_us - 2.0).abs() < 1e-9);
    }

    #[test]
    fn prime_table_memoizes() {
        let mut t = PrimeTable::new();
        let q1 = t.ntt_prime(1024).unwrap();
        let q2 = t.ntt_prime(1024).unwrap();
        assert_eq!(q1, q2);
        assert_eq!(
            q1,
            rpu_arith::find_ntt_prime_u128(126, 2048).unwrap(),
            "table must agree with the direct search"
        );
    }

    #[test]
    fn prime_table_impossible_requests_error_cleanly() {
        // Regression: a width too narrow for q ≡ 1 (mod 2n) to exist —
        // e.g. 8-bit primes with n = 4096 — must come back as a prompt
        // NoPrime, and malformed widths/degrees as Config errors; none
        // of these may panic inside the searcher or spin.
        let mut t = PrimeTable::with_bits(8);
        assert!(matches!(
            t.ntt_prime(4096),
            Err(RpuError::NoPrime { degree: 4096 })
        ));
        assert!(matches!(
            PrimeTable::with_bits(0).ntt_prime(1024),
            Err(RpuError::Config(_))
        ));
        assert!(matches!(
            PrimeTable::with_bits(200).ntt_prime(1024),
            Err(RpuError::Config(_))
        ));
        let mut t = PrimeTable::new();
        assert!(matches!(t.ntt_prime(0), Err(RpuError::Config(_))));
        assert!(matches!(t.ntt_prime(1000), Err(RpuError::Config(_))));
        // narrow-but-possible widths still succeed (65537 ≡ 1 mod 8192)
        let mut t = PrimeTable::with_bits(17);
        let q = t.ntt_prime(4096).unwrap();
        assert!(q < 1 << 17 && q % 8192 == 1);
    }

    #[test]
    fn cache_hits_skip_generation() {
        let rpu = Rpu::builder().build().unwrap();
        let mut s = rpu.session();
        let q = s.primes_for(1024).unwrap();
        let spec = ElementwiseSpec::new(ElementwiseOp::MulMod, 1024, q, CodegenStyle::Optimized);
        let first = s.run(&spec).unwrap();
        let second = s.run(&spec).unwrap();
        assert!(!first.cache_hit && second.cache_hit);
        assert!(first.verified && second.verified);
        let stats = s.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        // the one-shot path pays the round trip both times
        assert_eq!(first.transfer.host_to_device, 2048);
        assert_eq!(second.transfer.host_to_device, 2048);
        assert_eq!(second.transfer.device_to_host, 1024);
        // …but reuses the resident kernel image on the warm run
        assert!(!first.transfer.image_reused);
        assert!(second.transfer.image_reused);
        // scratch buffers are freed after each run
        assert_eq!(s.device_mem_in_use(), 0);
    }

    #[test]
    fn resident_chain_avoids_host_traffic() {
        let rpu = Rpu::builder().build().unwrap();
        let mut s = rpu.session();
        let q = s.primes_for(1024).unwrap();
        let add = s
            .compile(&ElementwiseSpec::new(
                ElementwiseOp::AddMod,
                1024,
                q,
                CodegenStyle::Optimized,
            ))
            .unwrap();
        let ones = vec![1u128; 1024];
        let x = s.upload(&ones).unwrap();
        let acc = s.upload(&ones).unwrap();
        let tmp = s.alloc(1024).unwrap();
        // acc += x, seven times, ping-ponging acc <-> tmp
        let (mut cur, mut other) = (acc, tmp);
        for i in 0..7 {
            let r = s.dispatch(&add, &[cur, x], &[other]).unwrap();
            assert_eq!(r.transfer.host_to_device, 0, "dispatch is host-free");
            assert_eq!(r.transfer.device_to_host, 0);
            assert_eq!(r.transfer.image_reused, i > 0);
            std::mem::swap(&mut cur, &mut other);
        }
        assert_eq!(s.download(&cur).unwrap(), vec![8u128; 1024]);
        // the dispatch-path report carries the same timing as run()
        let via_run = s
            .run(&ElementwiseSpec::new(
                ElementwiseOp::AddMod,
                1024,
                q,
                CodegenStyle::Optimized,
            ))
            .unwrap();
        let via_dispatch = s.dispatch(&add, &[cur, x], &[other]).unwrap();
        assert_eq!(via_run.stats.cycles, via_dispatch.stats.cycles);
    }

    #[test]
    fn default_heap_respects_architectural_vdm() {
        // A maximal 32 MiB configured VDM leaves no room for a resident
        // heap: the default must clamp to zero rather than model 64 MiB.
        let config = RpuConfig {
            vdm_bytes: rpu_isa::consts::VDM_MAX_BYTES,
            ..RpuConfig::pareto_128x128()
        };
        let max_elems = rpu_isa::consts::VDM_MAX_BYTES / rpu_isa::consts::ELEM_BYTES;
        let rpu = Rpu::builder().config(config).build().unwrap();
        assert_eq!(rpu.device_heap_elements(), 0);
        // an explicit heap that would overflow is still an error
        assert!(matches!(
            Rpu::builder()
                .config(config)
                .device_heap_elements(1)
                .build(),
            Err(RpuError::Config(_))
        ));
        // a half-max VDM gets the full complementary heap by default
        let half = RpuConfig {
            vdm_bytes: rpu_isa::consts::VDM_MAX_BYTES / 2,
            ..RpuConfig::pareto_128x128()
        };
        let rpu = Rpu::builder().config(half).build().unwrap();
        assert_eq!(rpu.device_heap_elements(), max_elems / 2);
    }
}
