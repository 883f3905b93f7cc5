//! Cycle-level performance simulator (Section VI-A's "detailed
//! cycle-level simulator").
//!
//! Models the RPU frontend and the three decoupled backend pipelines:
//!
//! * **Frontend** — fetches and decodes one instruction per cycle, in
//!   order. A *busyboard* tracks registers written by in-flight
//!   instructions (plus registers still being read, to block
//!   write-after-read); any hazard stalls the entire frontend, exactly
//!   as Section IV-A describes. No renaming.
//! * **Queues** — each pipeline has a fixed-depth FIFO; a full queue also
//!   stalls the frontend.
//! * **Compute pipeline** — a CI occupies issue slots for
//!   `ceil(512 / HPLEs) × II` cycles (II applies to multiplier-using
//!   instructions) and completes after the unit latency.
//! * **Load/store pipeline** — vector transfers stream through the VBAR;
//!   per-cycle throughput is bounded by the HPLE-side VRF ports and by
//!   VDM bank conflicts, computed exactly from the addressing mode.
//!   Loads and stores use separate VBAR paths and can overlap.
//! * **Shuffle pipeline** — SIs stream `HPLEs` elements per cycle
//!   through the SBAR.
//!
//! What each instruction costs is its row's `CostClass` in the ISA
//! table, evaluated against the configuration by [`cost`] — the one
//! timing function, which the list scheduler calls too. The events the
//! energy model prices accrue from the same row.
//!
//! Because dispatch and issue are in order within each pipeline, the
//! whole schedule is computable in a single pass over the program; the
//! simulator is event-driven rather than cycle-stepped, which makes the
//! design-space sweeps of Figs. 3–4 (28 configurations × large kernels)
//! essentially free.

use crate::{RpuConfig, SimStats};
use rpu_isa::consts::VECTOR_LEN;
use rpu_isa::{
    AddrMode, Instruction, Latency, Occupancy, PipeClass, Program, VdmFootprint, NUM_FLAT_REGS,
};
use std::collections::VecDeque;

/// An issue unit. The load/store pipeline has separate load and store
/// paths through the VBAR, so a load and a store can stream at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// The load path: vector and scalar loads.
    Load,
    /// The store path: whatever writes the VDM.
    Store,
    /// The HPLEs.
    Compute,
    /// The SBAR.
    Shuffle,
}

/// What one instruction costs on one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cost {
    /// The unit it issues on.
    pub unit: Unit,
    /// Cycles it holds that unit.
    pub occupancy: u64,
    /// Cycles after the occupancy until its results are visible.
    pub latency: u64,
}

/// Evaluates an instruction's cost class (its `ISA` row) against a
/// configuration. `cfg` must be valid ([`RpuConfig::validate`]).
pub fn cost(instr: &Instruction, cfg: &RpuConfig) -> Cost {
    let info = instr.info();
    let vl = VECTOR_LEN as u64;
    let banks = cfg.vdm_banks as u64;
    // One element per HPLE slice (lane, VRF port) per cycle.
    let lanes = vl.div_ceil(cfg.num_hples as u64);
    let occupancy = match info.cost.occupancy {
        Occupancy::Lanes => lanes,
        Occupancy::Multiplier => lanes * u64::from(cfg.mult_ii),
        Occupancy::Banks => lanes.max(instr.addr_mode().map_or(0, |m| busiest_bank(m, banks))),
        Occupancy::Gather => 2 * lanes.max(vl.div_ceil(banks)),
        Occupancy::Sdm => 1,
    };
    let latency = match info.cost.latency {
        Latency::LoadStore => cfg.ls_latency,
        Latency::Add => cfg.add_latency,
        Latency::Mult => cfg.mult_latency,
        Latency::MultAdd => cfg.mult_latency + cfg.add_latency,
        Latency::Shuffle => cfg.shuffle_latency,
    };
    let unit = match info.pipe {
        // What writes the VDM takes the store path.
        PipeClass::LoadStore if info.cost.events.vdm_writes > 0 => Unit::Store,
        PipeClass::LoadStore => Unit::Load,
        PipeClass::Compute => Unit::Compute,
        PipeClass::Shuffle => Unit::Shuffle,
    };
    Cost {
        unit,
        occupancy,
        latency: latency.into(),
    }
}

/// Elements the busiest of `banks` (a power of two) element-interleaved
/// VDM banks serves when one vector moves under `mode`. Every mode
/// spreads the 512 elements evenly over the banks it reaches, so this
/// is 512 over that number (`tests::busiest_bank_counts_every_element`
/// checks it against counting).
fn busiest_bank(mode: AddrMode, banks: u64) -> u64 {
    let block = |log2: u8| 1u64.checked_shl(log2.into()).unwrap_or(u64::MAX);
    let reached = match mode {
        AddrMode::Unit => banks,
        AddrMode::Strided { log2_stride } => (banks / block(log2_stride)).max(1),
        // Each block is followed by an equal gap: blocks narrower than
        // the bank count never reach half of the banks.
        AddrMode::StridedSkip { log2_block } if block(log2_block) < banks => banks / 2,
        AddrMode::StridedSkip { .. } => banks,
        AddrMode::Repeated { log2_block } => banks.min(block(log2_block)),
    };
    VECTOR_LEN as u64 / reached.min(VECTOR_LEN as u64)
}

/// Cycle-accurate simulator for one RPU configuration.
///
/// # Examples
///
/// ```
/// use rpu_sim::{CycleSim, RpuConfig};
/// use rpu_isa::parse_asm;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sim = CycleSim::new(RpuConfig::pareto_128x128())?;
/// let p = parse_asm(
///     "k",
///     "vload v0, [a0 + 0], unit\n\
///      vload v1, [a0 + 512], unit\n\
///      vmulmod v2, v0, v1, m0\n\
///      vstore v2, [a0 + 1024], unit",
/// )?;
/// let stats = sim.simulate(&p);
/// assert!(stats.cycles > 0);
/// assert_eq!(stats.count_compute, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CycleSim {
    config: RpuConfig,
}

/// One instruction's timeline from a traced simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrTrace {
    /// Position in the program.
    pub index: usize,
    /// Pipeline class.
    pub class: PipeClass,
    /// Cycle the frontend dispatched it (after busyboard clearance).
    pub dispatch: u64,
    /// Cycle its pipeline began issuing it.
    pub issue: u64,
    /// Cycle its results became architecturally visible.
    pub complete: u64,
    /// Cycles the frontend stalled on this instruction's hazards.
    pub hazard_wait: u64,
}

impl CycleSim {
    /// Creates a simulator for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns the validation message if the configuration is invalid.
    pub fn new(config: RpuConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(CycleSim { config })
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &RpuConfig {
        &self.config
    }

    /// Runs the timing model over a program and returns statistics.
    pub fn simulate(&self, program: &Program) -> SimStats {
        self.simulate_inner(program, None)
    }

    /// Like [`simulate`](CycleSim::simulate), additionally returning a
    /// per-instruction timeline — dispatch, issue, and completion cycles
    /// plus the stall the frontend suffered — for schedule debugging and
    /// pipeline visualization.
    pub fn simulate_traced(&self, program: &Program) -> (SimStats, Vec<InstrTrace>) {
        let mut trace = Vec::with_capacity(program.len());
        let stats = self.simulate_inner(program, Some(&mut trace));
        (stats, trace)
    }

    fn simulate_inner(
        &self,
        program: &Program,
        mut trace: Option<&mut Vec<InstrTrace>>,
    ) -> SimStats {
        let mut stats = SimStats::default();
        let cfg = &self.config;

        // Busyboard state: earliest cycle each register's pending write
        // completes, and earliest cycle its pending reads release.
        let mut write_ready = [0u64; NUM_FLAT_REGS];
        let mut read_release = [0u64; NUM_FLAT_REGS];

        // Issue availability of each unit, indexed by `Unit`.
        let mut unit_free = [0u64; 4];

        // Queue occupancy: issue-start times of instructions that have
        // been dispatched to each pipeline's queue, indexed by class.
        let mut queues: [VecDeque<u64>; 3] = [VecDeque::new(), VecDeque::new(), VecDeque::new()];

        // Memory ordering through the VDM: in-flight store/load element
        // ranges with their completion times. Ranges are resolved with the
        // kernel convention ARF base = 0 (all generated kernels use
        // absolute offsets; see rpu-codegen). Loads must wait for earlier
        // overlapping stores (RAW), stores for earlier overlapping loads
        // (WAR) and stores (WAW).
        let mut inflight_stores: Vec<(VdmFootprint, u64)> = Vec::new();
        let mut inflight_loads: Vec<(VdmFootprint, u64)> = Vec::new();

        let mut fetch_time = 0u64; // cycle the current instruction is decoded
        let mut makespan = 0u64;

        for instr in program.instructions() {
            let info = instr.info();
            let class = info.pipe;
            let c = cost(instr, cfg);
            stats.record(class, c.occupancy, &info.cost.events);

            // --- busyboard check: sources need pending writes done;
            // destinations need pending writes done AND pending reads
            // released (WAR) ---
            let mut hazard_ready = fetch_time;
            for r in instr.reg_reads() {
                hazard_ready = hazard_ready.max(write_ready[r]);
            }
            for r in instr.reg_writes() {
                hazard_ready = hazard_ready.max(write_ready[r]).max(read_release[r]);
            }

            // --- queue-full check ---
            let queue = &mut queues[class as usize];
            let queue_ready = if queue.len() >= cfg.queue_depth {
                // frontend must wait until the oldest queued entry issues
                *queue.front().expect("non-empty at capacity")
            } else {
                fetch_time
            };

            let dispatch = fetch_time.max(hazard_ready).max(queue_ready);
            let hazard_wait = hazard_ready.saturating_sub(fetch_time);
            let queue_wait = queue_ready.saturating_sub(fetch_time.max(hazard_ready));
            stats.stall_hazard += hazard_wait;
            stats.stall_queue_full += queue_wait;
            stats.max_hazard_wait = stats.max_hazard_wait.max(hazard_wait);
            if class == PipeClass::Shuffle {
                stats.max_shuffle_hazard_wait = stats.max_shuffle_hazard_wait.max(hazard_wait);
            }

            // Drain queue entries that have issued by dispatch time.
            while queue.front().is_some_and(|&s| s <= dispatch) {
                queue.pop_front();
            }

            // Memory-ordering floor for VDM transfers.
            let footprint = instr.vdm_footprint();
            let is_store = c.unit == Unit::Store;
            let mut mem_ready = 0u64;
            if let Some(acc) = footprint {
                let earlier_loads = if is_store { &inflight_loads[..] } else { &[] };
                for &(prev, t) in inflight_stores.iter().chain(earlier_loads) {
                    if acc.conflicts(&prev) {
                        mem_ready = mem_ready.max(t);
                    }
                }
            }

            // +1 models the dispatch-to-issue handoff through the queue.
            let unit_free = &mut unit_free[c.unit as usize];
            let issue = (dispatch + 1).max(*unit_free).max(mem_ready);
            let read_done = issue + c.occupancy;
            let write_done = read_done + c.latency;
            *unit_free = read_done;
            queue.push_back(issue);

            if let Some(acc) = footprint {
                let list = if is_store {
                    &mut inflight_stores
                } else {
                    &mut inflight_loads
                };
                list.push((acc, write_done));
                // prune entries that can no longer constrain anything
                if list.len() > 256 {
                    let floor = dispatch;
                    list.retain(|&(_, t)| t > floor);
                }
            }

            // --- busyboard updates ---
            for r in instr.reg_reads() {
                read_release[r] = read_release[r].max(read_done);
            }
            for r in instr.reg_writes() {
                write_ready[r] = write_ready[r].max(write_done);
            }
            makespan = makespan.max(write_done);

            if let Some(tr) = trace.as_deref_mut() {
                tr.push(InstrTrace {
                    index: tr.len(),
                    class,
                    dispatch,
                    issue,
                    complete: write_done,
                    hazard_wait,
                });
            }

            // Frontend moves to the next instruction the cycle after this
            // one dispatched.
            fetch_time = dispatch + 1;
        }

        stats.cycles = makespan;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_isa::parse_asm;

    fn sim(h: usize, b: usize) -> CycleSim {
        CycleSim::new(RpuConfig::with_geometry(h, b)).unwrap()
    }

    #[test]
    fn rejects_invalid_config() {
        assert!(CycleSim::new(RpuConfig::with_geometry(3, 32)).is_err());
    }

    #[test]
    fn dependent_chain_serializes() {
        // v1 <- v0*v0 ; v2 <- v1*v1 : the second mul must wait for the
        // first one's full latency.
        let p = parse_asm("chain", "vmulmod v1, v0, v0, m0\nvmulmod v2, v1, v1, m0\n").unwrap();
        let s = sim(128, 128).simulate(&p);
        let cfg = RpuConfig::with_geometry(128, 128);
        let occ = 512 / 128;
        // issue1 at 1, done at 1+occ+lat; issue2 >= that +1
        let min_cycles = (1 + occ + cfg.mult_latency as u64) + occ + cfg.mult_latency as u64;
        assert!(
            s.cycles >= min_cycles,
            "cycles={} min={min_cycles}",
            s.cycles
        );
        assert!(s.stall_hazard > 0);
    }

    #[test]
    fn independent_instrs_overlap_across_pipes() {
        // a load, a mul, and a shuffle on disjoint registers overlap.
        let p = parse_asm(
            "overlap",
            "vload v0, [a0 + 0], unit\n\
             vmulmod v3, v1, v2, m0\n\
             unpklo v6, v4, v5\n",
        )
        .unwrap();
        let s = sim(128, 128).simulate(&p);
        // serial execution would be ~3*(4+lat); overlap keeps it short
        assert!(s.cycles < 20, "cycles={}", s.cycles);
        assert_eq!(s.stall_hazard, 0);
    }

    #[test]
    fn more_hples_speed_up_compute() {
        let text: String = (0..32)
            .map(|i| {
                format!(
                    "vmulmod v{}, v{}, v{}, m0\n",
                    (i * 3 + 2) % 60,
                    (i * 3) % 60,
                    (i * 3 + 1) % 60
                )
            })
            .collect();
        let p = parse_asm("mulheavy", &text).unwrap();
        let slow = sim(16, 128).simulate(&p);
        let fast = sim(256, 128).simulate(&p);
        assert!(
            slow.cycles > 2 * fast.cycles,
            "16 HPLEs {} vs 256 HPLEs {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn more_banks_speed_up_loads() {
        let text: String = (0..32)
            .map(|i| format!("vload v{}, [a0 + {}], unit\n", i % 60, i * 512))
            .collect();
        let p = parse_asm("loadheavy", &text).unwrap();
        let slow = sim(128, 32).simulate(&p);
        let fast = sim(128, 256).simulate(&p);
        assert!(
            slow.cycles > fast.cycles,
            "32 banks {} vs 256 banks {}",
            slow.cycles,
            fast.cycles
        );
    }

    #[test]
    fn stride_bank_conflicts_hurt() {
        // stride equal to the bank count hammers a single bank
        let conflict = parse_asm("c", "vload v0, [a0 + 0], stride:128\n").unwrap();
        let clean = parse_asm("u", "vload v0, [a0 + 0], unit\n").unwrap();
        let s = sim(128, 128);
        let sc = s.simulate(&conflict);
        let su = s.simulate(&clean);
        assert!(
            sc.cycles > 10 * su.cycles,
            "conflict {} vs unit {}",
            sc.cycles,
            su.cycles
        );
    }

    #[test]
    fn loads_and_stores_overlap() {
        // alternating loads and stores on disjoint registers: separate
        // VBAR paths let them stream concurrently
        let text: String = (0..16)
            .map(|i| {
                format!(
                    "vload v{}, [a0 + {}], unit\nvstore v{}, [a0 + {}], unit\n",
                    i + 16,
                    i * 512,
                    i,
                    (i + 32) * 512
                )
            })
            .collect();
        let p = parse_asm("ls", &text).unwrap();
        let s = sim(128, 128).simulate(&p);
        // 32 transfers x 4 cycles = 128 serial; overlap should halve it
        assert!(s.cycles < 100, "cycles={}", s.cycles);
    }

    #[test]
    fn war_hazard_blocks_overwrite() {
        // store reads v0; following load overwrites v0 -> must wait
        let p = parse_asm(
            "war",
            "vstore v0, [a0 + 0], unit\nvload v0, [a0 + 512], unit\n",
        )
        .unwrap();
        let s = sim(4, 32).simulate(&p); // slow store: 512/4 = 128 cycles
        assert!(s.stall_hazard > 0, "WAR must stall the frontend");
    }

    #[test]
    fn ii_scales_mul_occupancy() {
        let p = parse_asm(
            "muls",
            &(0..8)
                .map(|i| format!("vmulmod v{}, v60, v61, m0\n", i))
                .collect::<String>(),
        )
        .unwrap();
        let mut c1 = RpuConfig::with_geometry(128, 128);
        c1.mult_ii = 1;
        let mut c4 = c1;
        c4.mult_ii = 4;
        let s1 = CycleSim::new(c1).unwrap().simulate(&p);
        let s4 = CycleSim::new(c4).unwrap().simulate(&p);
        assert!(
            s4.cycles > 3 * s1.cycles,
            "II=4 {} vs II=1 {}",
            s4.cycles,
            s1.cycles
        );
    }

    #[test]
    fn queue_depth_limits_runahead() {
        // Many independent loads: with depth 1 the frontend rate-limits.
        let text: String = (0..64)
            .map(|i| format!("vload v{}, [a0 + {}], unit\n", i % 60, i * 512))
            .collect();
        let p = parse_asm("q", &text).unwrap();
        let mut deep = RpuConfig::with_geometry(4, 32); // slow LS unit
        deep.queue_depth = 64;
        let mut shallow = deep;
        shallow.queue_depth = 1;
        let sd = CycleSim::new(deep).unwrap().simulate(&p);
        let ss = CycleSim::new(shallow).unwrap().simulate(&p);
        assert!(ss.stall_queue_full > 0, "shallow queue must backpressure");
        // total makespan is LS-bound either way
        assert_eq!(sd.count_load_store, 64);
        assert!(ss.cycles >= sd.cycles);
    }

    #[test]
    fn busiest_bank_counts_every_element() {
        let values = 0..64u8;
        let modes = values.flat_map(|v| {
            [
                AddrMode::Strided { log2_stride: v },
                AddrMode::StridedSkip { log2_block: v },
                AddrMode::Repeated { log2_block: v },
            ]
        });
        let modes: Vec<AddrMode> = modes.chain([AddrMode::Unit]).collect();
        for banks in (3..=9).map(|b| 1usize << b) {
            for &mode in &modes {
                let mut load = vec![0u64; banks];
                for i in 0..VECTOR_LEN {
                    load[mode.element_offset(i) % banks] += 1;
                }
                let counted = load.into_iter().max().unwrap();
                let got = busiest_bank(mode, banks as u64);
                assert_eq!(got, counted, "{mode} over {banks} banks");
            }
        }
    }

    #[test]
    fn stats_event_counts() {
        let p = parse_asm(
            "ev",
            "vload v0, [a0 + 0], unit\n\
             bfly v1, v2, v0, v0, v0, m0\n\
             unpklo v3, v1, v2\n\
             vstore v3, [a0 + 512], unit\n",
        )
        .unwrap();
        let s = sim(128, 128).simulate(&p);
        assert_eq!(s.vdm_elem_reads, 512);
        assert_eq!(s.vdm_elem_writes, 512);
        assert_eq!(s.mult_ops, 512);
        assert_eq!(s.add_ops, 1024);
        assert_eq!(s.sbar_elems, 512);
        assert_eq!(s.vbar_elems, 1024);
        assert_eq!(s.im_fetches, 4);
    }
}

#[cfg(test)]
mod memory_ordering_tests {
    use super::*;
    use rpu_isa::parse_asm;

    #[test]
    fn aliasing_store_load_serialize() {
        let s = CycleSim::new(RpuConfig::with_geometry(128, 128)).unwrap();
        let aliased =
            parse_asm("a", "vstore v0, [a0 + 0], unit\nvload v1, [a0 + 0], unit\n").unwrap();
        let disjoint = parse_asm(
            "d",
            "vstore v0, [a0 + 0], unit\nvload v1, [a0 + 512], unit\n",
        )
        .unwrap();
        let sa = s.simulate(&aliased);
        let sd = s.simulate(&disjoint);
        assert!(
            sa.cycles > sd.cycles,
            "aliased {} must exceed disjoint {}",
            sa.cycles,
            sd.cycles
        );
    }

    #[test]
    fn war_through_memory_orders_store_after_load() {
        let s = CycleSim::new(RpuConfig::with_geometry(4, 32)).unwrap(); // slow transfers
        let p = parse_asm(
            "warm",
            "vload v1, [a0 + 0], unit\nvstore v2, [a0 + 0], unit\n",
        )
        .unwrap();
        let stats = s.simulate(&p);
        // store must issue after the load completes: at 4 HPLEs a transfer
        // takes 128 cycles, so the makespan must exceed two transfers.
        assert!(stats.cycles >= 256, "cycles={}", stats.cycles);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use rpu_isa::parse_asm;

    #[test]
    fn trace_covers_every_instruction_in_order() {
        let p = parse_asm(
            "t",
            "vload v0, [a0 + 0], unit\n\
             vmulmod v1, v0, v0, m0\n\
             vstore v1, [a0 + 512], unit\n",
        )
        .unwrap();
        let sim = CycleSim::new(RpuConfig::pareto_128x128()).unwrap();
        let (stats, trace) = sim.simulate_traced(&p);
        assert_eq!(trace.len(), 3);
        // dispatch order is program order; times are monotone per entry
        for (i, e) in trace.iter().enumerate() {
            assert_eq!(e.index, i);
            assert!(e.dispatch <= e.issue && e.issue < e.complete);
        }
        // the dependent multiply records its stall
        assert!(trace[1].hazard_wait > 0);
        // traced and untraced agree
        assert_eq!(sim.simulate(&p), stats);
    }

    #[test]
    fn makespan_equals_last_completion() {
        let p = parse_asm(
            "m",
            "vload v0, [a0 + 0], unit\nvload v1, [a0 + 512], unit\n",
        )
        .unwrap();
        let sim = CycleSim::new(RpuConfig::pareto_128x128()).unwrap();
        let (stats, trace) = sim.simulate_traced(&p);
        let max_complete = trace.iter().map(|e| e.complete).max().unwrap();
        assert_eq!(stats.cycles, max_complete);
    }
}
