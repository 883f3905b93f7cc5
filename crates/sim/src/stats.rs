//! Execution statistics collected by the cycle-level simulator.
//!
//! The counters feed three consumers: the performance figures (cycles →
//! runtime), the energy model in `rpu-model` (event counts × per-event
//! energy), and the stall-attribution analysis behind Fig. 6.

use rpu_isa::{Events, PipeClass};

/// Cycle-level statistics for one kernel execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total cycles from first fetch to last completion.
    pub cycles: u64,
    /// Instructions executed per pipeline class.
    pub count_load_store: u64,
    /// Compute instruction count.
    pub count_compute: u64,
    /// Shuffle instruction count.
    pub count_shuffle: u64,
    /// Issue-occupancy cycles per pipeline (busy time).
    pub busy_load_store: u64,
    /// Compute pipeline busy cycles.
    pub busy_compute: u64,
    /// Shuffle pipeline busy cycles.
    pub busy_shuffle: u64,
    /// Cycles the frontend stalled on busyboard hazards.
    pub stall_hazard: u64,
    /// Cycles the frontend stalled on full queues.
    pub stall_queue_full: u64,
    /// Longest time any single instruction waited on the busyboard
    /// (the paper quotes 3,840 cycles for unoptimized shuffles).
    pub max_hazard_wait: u64,
    /// Longest busyboard wait among shuffle instructions specifically.
    pub max_shuffle_hazard_wait: u64,

    // --- event counts for the energy model ---
    /// 128-bit elements read from the VDM.
    pub vdm_elem_reads: u64,
    /// 128-bit elements written to the VDM.
    pub vdm_elem_writes: u64,
    /// 128-bit elements read from VRF slices.
    pub vrf_elem_reads: u64,
    /// 128-bit elements written to VRF slices.
    pub vrf_elem_writes: u64,
    /// Modular multiplications performed (lane-level).
    pub mult_ops: u64,
    /// Modular additions/subtractions performed (lane-level).
    pub add_ops: u64,
    /// Elements moved through the vector crossbar (VBAR).
    pub vbar_elems: u64,
    /// Elements moved through the shuffle crossbar (SBAR).
    pub sbar_elems: u64,
    /// Instructions fetched from the IM.
    pub im_fetches: u64,
    /// Scalar memory (SDM) element accesses.
    pub sdm_elem_accesses: u64,
}

impl SimStats {
    /// Total instruction count.
    pub fn instructions(&self) -> u64 {
        self.count_load_store + self.count_compute + self.count_shuffle
    }

    /// Records one fetched and executed instruction: its class, the
    /// cycles it held its pipeline, and the events of its cost class.
    pub(crate) fn record(&mut self, class: PipeClass, occupancy: u64, e: &Events) {
        let (count, busy) = match class {
            PipeClass::LoadStore => (&mut self.count_load_store, &mut self.busy_load_store),
            PipeClass::Compute => (&mut self.count_compute, &mut self.busy_compute),
            PipeClass::Shuffle => (&mut self.count_shuffle, &mut self.busy_shuffle),
        };
        *count += 1;
        *busy += occupancy;
        self.im_fetches += 1;
        self.vrf_elem_reads += u64::from(e.vrf_reads);
        self.vrf_elem_writes += u64::from(e.vrf_writes);
        self.vdm_elem_reads += u64::from(e.vdm_reads);
        self.vdm_elem_writes += u64::from(e.vdm_writes);
        self.sdm_elem_accesses += u64::from(e.sdm_accesses);
        self.mult_ops += u64::from(e.mult_ops);
        self.add_ops += u64::from(e.add_ops);
        self.vbar_elems += u64::from(e.vbar);
        self.sbar_elems += u64::from(e.sbar);
    }

    /// Utilization of a pipeline as busy-cycles / total-cycles.
    pub fn utilization(&self, class: PipeClass) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let busy = match class {
            PipeClass::LoadStore => self.busy_load_store,
            PipeClass::Compute => self.busy_compute,
            PipeClass::Shuffle => self.busy_shuffle,
        };
        busy as f64 / self.cycles as f64
    }
}

impl core::fmt::Display for SimStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "cycles: {}", self.cycles)?;
        writeln!(
            f,
            "instructions: {} (LSI {}, CI {}, SI {})",
            self.instructions(),
            self.count_load_store,
            self.count_compute,
            self.count_shuffle
        )?;
        writeln!(
            f,
            "busy: ls {} / ci {} / si {}",
            self.busy_load_store, self.busy_compute, self.busy_shuffle
        )?;
        writeln!(
            f,
            "stalls: hazard {} (max wait {}), queue-full {}",
            self.stall_hazard, self.max_hazard_wait, self.stall_queue_full
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_bounds() {
        let mut s = SimStats::default();
        assert_eq!(s.utilization(PipeClass::Compute), 0.0);
        s.cycles = 100;
        s.busy_compute = 50;
        assert!((s.utilization(PipeClass::Compute) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        let s = SimStats::default();
        assert!(!s.to_string().is_empty());
    }
}
