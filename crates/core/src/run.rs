//! The high-level `Rpu` object: one handle that ties together code
//! generation, functional validation, cycle simulation, and the
//! area/energy models.

use crate::buffer::TransferStats;
use crate::session::{check_lanes, RpuBuilder, RpuSession};
use crate::store::KernelStore;
use crate::trace::TraceSink;
use crate::RpuError;
use rpu_codegen::{CodegenStyle, Direction, KernelOp};
use rpu_model::{AreaBreakdown, AreaModel, EnergyBreakdown, EnergyModel};
use rpu_sim::{CycleSim, RpuConfig, SimStats};
use std::sync::Arc;

/// A configured Ring Processing Unit instance.
///
/// Construct one with [`Rpu::new`] (configuration only) or
/// [`Rpu::builder`] (configuration + models + clock), then open an
/// [`RpuSession`] to run workloads:
///
/// # Examples
///
/// ```
/// use rpu::{CodegenStyle, Direction, Rpu, RpuConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rpu = Rpu::new(RpuConfig::pareto_128x128())?;
/// let mut session = rpu.session();
/// let run = session.ntt(1024, rpu::Direction::Forward, rpu::CodegenStyle::Optimized)?;
/// assert!(run.verified);
/// assert!(run.runtime_us > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Rpu {
    config: RpuConfig,
    kernels: KernelStore,
    area_model: AreaModel,
    energy_model: EnergyModel,
    clock_ghz: f64,
    prime_bits: u32,
    device_heap_elements: usize,
    lanes: usize,
    force_interpreter: bool,
    trace: Option<Arc<dyn TraceSink>>,
}

/// The result of running one kernel on an [`Rpu`] — the uniform report
/// every session [`run`](RpuSession::run) returns, whatever the
/// workload.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload class of the kernel.
    pub op: KernelOp,
    /// Ring degree / vector length.
    pub n: usize,
    /// The modulus used.
    pub q: u128,
    /// Transform direction ([`Direction::Forward`] for non-NTT ops).
    pub direction: Direction,
    /// Code-generation style.
    pub style: CodegenStyle,
    /// Cycle-level statistics.
    pub stats: SimStats,
    /// Runtime in microseconds at the instance's clock.
    pub runtime_us: f64,
    /// Energy breakdown for the run.
    pub energy: EnergyBreakdown,
    /// `true` if the functional simulation matched the golden model.
    pub verified: bool,
    /// Instruction mix of the executed program.
    pub mix: rpu_isa::InstructionMix,
    /// `true` if the kernel came from the session cache (no generation
    /// or re-verification happened for this run).
    pub cache_hit: bool,
    /// Data-movement accounting: what this run uploaded, downloaded,
    /// copied on-device, and — for resident dispatches — avoided moving
    /// entirely.
    pub transfer: TransferStats,
}

impl Rpu {
    /// Creates an RPU with the given microarchitectural configuration and
    /// default (paper-calibrated) area/energy models.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] for invalid configurations.
    pub fn new(config: RpuConfig) -> Result<Self, RpuError> {
        RpuBuilder::new().config(config).build()
    }

    /// Starts a [`RpuBuilder`] at the paper's best design point.
    pub fn builder() -> RpuBuilder {
        RpuBuilder::new()
    }

    /// The built instance of a checked `builder`, with its resolved
    /// heap size.
    pub(crate) fn from_builder(
        builder: RpuBuilder,
        device_heap_elements: usize,
    ) -> Result<Self, RpuError> {
        let config = builder.config;
        let cycle_sim = CycleSim::new(config).map_err(RpuError::Config)?;
        Ok(Rpu {
            config,
            kernels: KernelStore::new(cycle_sim),
            area_model: builder.area_model,
            energy_model: builder.energy_model,
            clock_ghz: builder.clock_ghz.unwrap_or_else(|| config.frequency_ghz()),
            prime_bits: builder.prime_bits,
            device_heap_elements,
            lanes: builder.lanes,
            force_interpreter: builder.force_interpreter,
            trace: builder.trace,
        })
    }

    /// Opens a workload session over this instance: its own device
    /// heap and prime table, fetching kernels from the instance's
    /// [`KernelStore`], which every session and lane of it shares.
    pub fn session(&self) -> RpuSession<'_> {
        RpuSession::new(self, 0)
    }

    /// Opens a multi-lane cluster with the configured
    /// ([`RpuBuilder::lanes`]) lane count: `k` independent sessions —
    /// each its own device heap and functional simulator, all fetching
    /// kernels from this instance's [`KernelStore`]. See
    /// [`crate::RpuCluster`].
    pub fn cluster(&self) -> crate::RpuCluster<'_> {
        crate::RpuCluster::new(self, self.lanes)
    }

    /// Opens a cluster with an explicit lane count, overriding the
    /// configured default (sweeps over lane counts reuse one `Rpu`).
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Config`] if `k` is outside `[1, 64]` (the
    /// [`RpuBuilder::lanes`] bound).
    pub fn cluster_with(&self, k: usize) -> Result<crate::RpuCluster<'_>, RpuError> {
        Ok(crate::RpuCluster::new(self, check_lanes(k)?))
    }

    /// The lane count [`Rpu::cluster`] builds
    /// ([`RpuBuilder::lanes`], default 1).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The configuration.
    pub fn config(&self) -> &RpuConfig {
        &self.config
    }

    /// The clock this instance is timed at, in GHz (the configuration's
    /// derived frequency unless overridden via the builder).
    pub fn clock_ghz(&self) -> f64 {
        self.clock_ghz
    }

    /// Bit width of session-chosen NTT primes (126 unless overridden via
    /// [`RpuBuilder::prime_bits`]).
    pub fn prime_bits(&self) -> u32 {
        self.prime_bits
    }

    /// Capacity, in 128-bit elements, of the device-resident buffer heap
    /// each session lays out above its kernel workspace.
    pub fn device_heap_elements(&self) -> usize {
        self.device_heap_elements
    }

    /// `true` if sessions on this instance execute kernels with the
    /// step-by-step reference interpreter instead of the pre-decoded
    /// fast path ([`RpuBuilder::force_interpreter`]).
    pub fn force_interpreter(&self) -> bool {
        self.force_interpreter
    }

    /// The dispatch-trace sink every session on this instance records
    /// to, if one was installed via [`RpuBuilder::trace`].
    pub fn trace_sink(&self) -> Option<&Arc<dyn TraceSink>> {
        self.trace.as_ref()
    }

    /// Converts a cycle count to microseconds at this instance's clock.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1000.0)
    }

    /// The area breakdown of this instance.
    pub fn area(&self) -> AreaBreakdown {
        self.area_model
            .breakdown(self.config.num_hples, self.config.vdm_banks)
    }

    /// The area model (for sweeps with custom parameters).
    pub fn area_model(&self) -> &AreaModel {
        &self.area_model
    }

    /// The energy model.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }

    /// The instance's kernel store: every kernel its sessions and lanes
    /// compile, each generated, verified and cycle-timed once.
    pub fn kernel_store(&self) -> &KernelStore {
        &self.kernels
    }

    /// The single `RunReport` construction site: attaches the identity
    /// and verdict flags to a kernel's stored cycle `stats` and
    /// instruction `mix`.
    pub(crate) fn assemble_report(
        &self,
        mix: rpu_isa::InstructionMix,
        key: rpu_codegen::KernelKey,
        stats: SimStats,
        verified: bool,
        cache_hit: bool,
    ) -> RunReport {
        RunReport {
            op: key.op,
            n: key.n,
            q: key.q,
            direction: key.direction,
            style: key.style,
            mix,
            runtime_us: self.cycles_to_us(stats.cycles),
            energy: self.energy_model.breakdown(&stats),
            verified,
            cache_hit,
            transfer: TransferStats::default(),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_run() {
        let rpu = Rpu::new(RpuConfig::pareto_128x128()).unwrap();
        let run = rpu
            .session()
            .ntt(1024, Direction::Forward, CodegenStyle::Optimized)
            .unwrap();
        assert!(run.verified, "functional validation must pass");
        assert!(run.runtime_us > 0.0);
        assert!(run.energy.total_uj() > 0.0);
        assert_eq!(run.mix.compute, 10); // (1024/1024) * log2(1024)
        assert_eq!(run.op, KernelOp::Ntt);
    }

    #[test]
    fn headline_area() {
        let rpu = Rpu::new(RpuConfig::pareto_128x128()).unwrap();
        let area = rpu.area().total();
        assert!((area - 20.5).abs() < 0.5, "got {area:.2}");
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(matches!(
            Rpu::new(RpuConfig::with_geometry(3, 32)),
            Err(RpuError::Config(_))
        ));
    }

    #[test]
    fn optimized_beats_unoptimized() {
        let rpu = Rpu::new(RpuConfig::pareto_128x128()).unwrap();
        let mut session = rpu.session();
        let opt = session
            .ntt(2048, Direction::Forward, CodegenStyle::Optimized)
            .unwrap();
        let unopt = session
            .ntt(2048, Direction::Forward, CodegenStyle::Unoptimized)
            .unwrap();
        assert!(unopt.stats.cycles > opt.stats.cycles);
    }
}
