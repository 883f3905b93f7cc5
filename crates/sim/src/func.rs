//! Functional (architectural) simulator for B512.
//!
//! Executes programs against full architectural state — VRF, SRF, ARF,
//! MRF, VDM, SDM — with no timing. This is the component the paper used
//! to check SPIRAL-generated code against OpenFHE before ever caring
//! about cycles; here it validates `rpu-codegen` kernels against
//! `rpu-ntt`.

use crate::constants::ConstantTables;
use crate::fastpath::Views;
use rpu_arith::{Engine, Modulus128};
use rpu_isa::consts::{NUM_AREGS, NUM_MREGS, NUM_SREGS, NUM_VREGS, VECTOR_LEN};
use rpu_isa::{AReg, Instruction, MReg, PredecodedProgram, Program, SReg, VReg};
use std::collections::HashMap;

/// Error raised during functional execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A VDM access fell outside the configured capacity.
    VdmOutOfBounds {
        /// Element address that was accessed.
        address: usize,
        /// VDM capacity in elements.
        capacity: usize,
        /// Index of the offending instruction.
        pc: usize,
    },
    /// An SDM access fell outside the configured capacity.
    SdmOutOfBounds {
        /// Element address that was accessed.
        address: usize,
        /// SDM capacity in elements.
        capacity: usize,
        /// Index of the offending instruction.
        pc: usize,
    },
    /// A compute instruction named an MRF entry holding an invalid
    /// modulus (zero, one, or ≥ 2^127).
    InvalidModulus {
        /// The MRF index.
        mreg: u8,
        /// Index of the offending instruction.
        pc: usize,
    },
    /// A host-side transfer ([`FunctionalSim::write_vdm`] and friends)
    /// fell outside the memory's capacity. Unlike the program-fault
    /// variants there is no `pc`: the fault is in the dispatch-side
    /// operand binding, not in any instruction.
    HostTransferOutOfBounds {
        /// Which memory was addressed (`"VDM"` or `"SDM"`).
        memory: &'static str,
        /// Element offset of the transfer.
        offset: usize,
        /// Length of the transfer in elements.
        len: usize,
        /// Capacity of the memory in elements.
        capacity: usize,
    },
}

impl core::fmt::Display for ExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecError::VdmOutOfBounds {
                address,
                capacity,
                pc,
            } => write!(
                f,
                "instruction {pc}: VDM access at element {address} exceeds capacity {capacity}"
            ),
            ExecError::SdmOutOfBounds {
                address,
                capacity,
                pc,
            } => write!(
                f,
                "instruction {pc}: SDM access at element {address} exceeds capacity {capacity}"
            ),
            ExecError::InvalidModulus { mreg, pc } => {
                write!(
                    f,
                    "instruction {pc}: MRF[{mreg}] does not hold a valid modulus"
                )
            }
            ExecError::HostTransferOutOfBounds {
                memory,
                offset,
                len,
                capacity,
            } => write!(
                f,
                "host transfer of {len} element(s) at offset {offset} exceeds \
                 the {capacity}-element {memory}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// The word a lane is stored in. Architecturally every B512 element is
/// 128 bits wide; the simulator stores elements in `u64` for as long as
/// every value fits (see "Lane storage width" on [`FunctionalSim`]), and
/// both executors are written once over this trait.
pub(crate) trait Lane: Copy + Default {
    /// The architectural value of the lane.
    fn widen(self) -> u128;
    /// Stores a value known to fit the word: any value for `u128`; for
    /// `u64` a value below 2⁶⁴, which the narrow invariant guarantees of
    /// everything an instruction can produce.
    fn narrow(x: u128) -> Self;
}

impl Lane for u64 {
    #[inline]
    fn widen(self) -> u128 {
        u128::from(self)
    }
    #[inline]
    fn narrow(x: u128) -> u64 {
        debug_assert!(x <= u128::from(u64::MAX), "narrow invariant broken");
        x as u64
    }
}

impl Lane for u128 {
    #[inline]
    fn widen(self) -> u128 {
        self
    }
    #[inline]
    fn narrow(x: u128) -> u128 {
        x
    }
}

/// The architectural state in one lane width, plus the fast path's two
/// full-vector scratch buffers (destination registers are replaced by
/// pointer swap, so steady-state execution allocates nothing).
#[derive(Debug, Clone)]
pub(crate) struct Store<W> {
    pub(crate) vrf: Vec<Vec<W>>,
    pub(crate) srf: [W; NUM_SREGS],
    pub(crate) arf: [u64; NUM_AREGS],
    pub(crate) mrf: [W; NUM_MREGS],
    pub(crate) vdm: Vec<W>,
    pub(crate) sdm: Vec<W>,
    pub(crate) scratch: [Vec<W>; 2],
}

/// The state in whichever width it currently has. (One per simulator,
/// never in a collection: the variants' size difference costs nothing.)
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
enum Lanes {
    Narrow(Store<u64>),
    Wide(Store<u128>),
}

/// Evaluates `$body` with `$s` bound to the live [`Store`]: the one
/// width dispatch of a host call or a run.
macro_rules! on_store {
    ($lanes:expr, $s:ident => $body:expr) => {
        match $lanes {
            Lanes::Narrow($s) => $body,
            Lanes::Wide($s) => $body,
        }
    };
}

/// The prepared arithmetic of one modulus: the fast path's engine and
/// the interpreter's reference.
pub(crate) type Prepared = (Engine, Modulus128);

/// Prepared arithmetic per modulus value (Barrett constants are
/// expensive to derive), shared by both executors, behind a one-entry
/// memo: a kernel names one modulus in nearly every compute
/// instruction, and the memo spares those the hash of a `u128`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Engines {
    map: HashMap<u128, Prepared>,
    last: Option<(u128, Prepared)>,
}

impl Engines {
    /// The fast path's engine and the interpreter's `Modulus128` for
    /// modulus `q`, or `None` when `q` is invalid. `Engine::new` and
    /// `Modulus128::new` accept exactly the same range, [2, 2^127), so
    /// the two executors fault on the same moduli.
    #[inline]
    pub(crate) fn get(&mut self, q: u128) -> Option<Prepared> {
        if self.last.map(|(last, _)| last) != Some(q) {
            let p = match self.map.get(&q) {
                Some(&p) => p,
                None => *self
                    .map
                    .entry(q)
                    .or_insert((Engine::new(q)?, Modulus128::new(q)?)),
            };
            self.last = Some((q, p));
        }
        self.last.map(|(_, p)| p)
    }
}

/// Architectural state of an RPU plus the functional executor.
///
/// # The interpreter-as-oracle contract
///
/// [`run`](FunctionalSim::run) steps the program one instruction at a
/// time, matching each instruction afresh — slow, but *definitional*:
/// its observable behavior (final VRF/SRF/ARF/MRF/VDM/SDM state, the
/// exact [`ExecError`] on a fault, and the partial architectural state
/// left behind by a mid-instruction fault) is the reference semantics of
/// the ISA. The pre-decoded fast path
/// ([`run_predecoded`](FunctionalSim::run_predecoded)) must be
/// bit-exactly indistinguishable from it on **every** program, success
/// or fault; the differential and fuzz suites in `tests/` hold it to
/// that. Changes to instruction semantics must be made here first — the
/// fast path follows the oracle, never the other way round.
///
/// The interpreter computes every modular instruction with
/// [`Modulus128`], whatever the modulus's width, and never selects an
/// [`Engine`]. So for a modulus below 2⁶³ those suites check the fast
/// path's narrow engine (`Modulus64`) against a second, independent
/// implementation. The wide engine is `Modulus128` itself; its own
/// reference is exact division, in `rpu-arith`'s property tests.
///
/// # Lane storage width
///
/// Elements are 128 bits architecturally and every host-facing method
/// speaks `u128`, but a new simulator *stores* them in 64-bit words. That
/// is exact as long as every architectural value is below 2⁶⁴, a set all
/// 18 instructions are closed under: loads, stores, gathers, broadcasts
/// and shuffles copy; every `*mod` result is below `q = MRF[rm] < 2⁶⁴`;
/// `aload` truncates to `u64` anyway. A wider value can therefore only
/// arrive from the host, so the host writes
/// ([`write_vdm`](FunctionalSim::write_vdm),
/// [`write_sdm`](FunctionalSim::write_sdm),
/// [`set_mrf`](FunctionalSim::set_mrf),
/// [`set_srf`](FunctionalSim::set_srf)) check their data and, on the
/// first value that does not fit, re-store the whole state in 128-bit
/// words, once and for good ([`lane_bits`](FunctionalSim::lane_bits)
/// reports which). Nothing observable depends on the width.
///
/// # Examples
///
/// ```
/// use rpu_sim::FunctionalSim;
/// use rpu_isa::{parse_asm, AReg, MReg, VReg};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sim = FunctionalSim::new(1 << 20, 1 << 10);
/// sim.set_mrf(MReg::at(0), 97);
/// sim.write_vdm(0, &vec![5u128; 512])?;
/// sim.write_vdm(512, &vec![6u128; 512])?;
/// let p = parse_asm(
///     "add",
///     "vload v0, [a0 + 0], unit\n\
///      vload v1, [a0 + 512], unit\n\
///      vaddmod v2, v0, v1, m0\n\
///      vstore v2, [a0 + 1024], unit",
/// )?;
/// sim.run(&p)?;
/// assert_eq!(sim.read_vdm(1024, 512)?, vec![11u128; 512]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FunctionalSim {
    lanes: Lanes,
    engines: Engines,
    /// Tables [`load_constants`](FunctionalSim::load_constants) wrote
    /// whose spans the host has not written over since (only tables
    /// with quotients: nothing else reads them).
    pub(crate) constants: Vec<ConstantTables>,
    /// The fast path's run-local views of their quotients (kept here so
    /// a run allocates nothing).
    pub(crate) views: Views,
}

/// Host → device copy into `dst[..src.len()]`.
fn put<W: Lane>(dst: &mut [W], src: &[u128]) {
    for (o, &x) in dst.iter_mut().zip(src) {
        *o = W::narrow(x);
    }
}

/// Device → host copy.
fn get<W: Lane>(src: &[W]) -> Vec<u128> {
    src.iter().map(|x| x.widen()).collect()
}

/// Grows a memory to at least `elements`, zero-filling the new tail. A
/// memory's first allocation comes zeroed from the allocator rather than
/// filled here, so the pages of a workspace no kernel ever touches are
/// never made resident.
fn grow<W: Lane>(memory: &mut Vec<W>, elements: usize) {
    if memory.is_empty() {
        *memory = vec![W::default(); elements];
    } else if elements > memory.len() {
        memory.resize(elements, W::default());
    }
}

impl FunctionalSim {
    /// Creates a simulator with the given VDM and SDM capacities in
    /// 128-bit **elements**.
    pub fn new(vdm_elements: usize, sdm_elements: usize) -> Self {
        FunctionalSim {
            lanes: Lanes::Narrow(Store::new(vdm_elements, sdm_elements)),
            engines: Engines::default(),
            constants: Vec::new(),
            views: Views::default(),
        }
    }

    /// Creates a simulator sized from an [`RpuConfig`](crate::RpuConfig).
    pub fn for_config(config: &crate::RpuConfig) -> Self {
        FunctionalSim::new(config.vdm_elements(), config.sdm_elements())
    }

    /// The width, in bits, of the words the state is currently stored
    /// in: 64 until the host writes a value that needs more, 128 from
    /// then on (see "Lane storage width" above).
    pub fn lane_bits(&self) -> u32 {
        match self.lanes {
            Lanes::Narrow(_) => 64,
            Lanes::Wide(_) => 128,
        }
    }

    /// Current VDM capacity in elements.
    pub fn vdm_capacity(&self) -> usize {
        on_store!(&self.lanes, s => s.vdm.len())
    }

    /// Current SDM capacity in elements.
    pub fn sdm_capacity(&self) -> usize {
        on_store!(&self.lanes, s => s.sdm.len())
    }

    /// Grows the VDM to at least `elements` (zero-filling the new tail);
    /// never shrinks, and existing contents are preserved. This models a
    /// host that instantiated a larger VDM macro — the session layer uses
    /// it to lay out a resident-buffer heap above kernel workspaces.
    pub fn ensure_vdm(&mut self, elements: usize) {
        on_store!(&mut self.lanes, s => grow(&mut s.vdm, elements))
    }

    /// Grows the SDM to at least `elements`; see
    /// [`ensure_vdm`](FunctionalSim::ensure_vdm).
    pub fn ensure_sdm(&mut self, elements: usize) {
        on_store!(&mut self.lanes, s => grow(&mut s.sdm, elements))
    }

    /// Checks a host-transfer range against a memory's capacity (shared
    /// by the fallible transfer methods below).
    fn check_transfer(
        memory: &'static str,
        capacity: usize,
        offset: usize,
        len: usize,
    ) -> Result<(), ExecError> {
        let oob = ExecError::HostTransferOutOfBounds {
            memory,
            offset,
            len,
            capacity,
        };
        match offset.checked_add(len) {
            Some(end) if end <= capacity => Ok(()),
            _ => Err(oob),
        }
    }

    /// The one-way widening rule: host data about to enter a narrow
    /// state that holds any value of 2⁶⁴ or more re-stores the whole
    /// state in 128-bit words first. Callers bounds-check before this,
    /// so a rejected transfer leaves the width alone.
    fn admit(&mut self, data: &[u128]) {
        if let Lanes::Narrow(s) = &self.lanes {
            if data.iter().fold(0, |hi, &x| hi | (x >> 64)) != 0 {
                self.lanes = Lanes::Wide(s.widened());
            }
        }
    }

    /// Copies `len` elements inside the VDM from `src` to `dst` (the
    /// on-device transfer a dispatch uses to bind resident buffers to a
    /// kernel's operand windows — no host round trip). Overlapping
    /// ranges behave like `memmove`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::HostTransferOutOfBounds`] if either range
    /// exceeds VDM capacity; the VDM is untouched.
    pub fn copy_vdm(&mut self, dst: usize, src: usize, len: usize) -> Result<(), ExecError> {
        Self::check_transfer("VDM", self.vdm_capacity(), src, len)?;
        Self::check_transfer("VDM", self.vdm_capacity(), dst, len)?;
        self.forget_constants(dst, len);
        on_store!(&mut self.lanes, s => s.vdm.copy_within(src..src + len, dst));
        Ok(())
    }

    /// Writes elements into the VDM at an element offset.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::HostTransferOutOfBounds`] if the write
    /// exceeds VDM capacity; the VDM is untouched.
    pub fn write_vdm(&mut self, offset: usize, data: &[u128]) -> Result<(), ExecError> {
        Self::check_transfer("VDM", self.vdm_capacity(), offset, data.len())?;
        self.forget_constants(offset, data.len());
        self.admit(data);
        on_store!(&mut self.lanes, s => put(&mut s.vdm[offset..], data));
        Ok(())
    }

    /// Writes a kernel's constant tables at their spans, like
    /// [`write_vdm`](FunctionalSim::write_vdm) per span, and remembers
    /// the tables until the host writes over any of their spans, so the
    /// fast path can multiply a register loaded from one through the
    /// tables' quotients. Returns the number of elements written.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::HostTransferOutOfBounds`] if a span exceeds
    /// VDM capacity; nothing is written.
    pub fn load_constants(&mut self, tables: &ConstantTables) -> Result<usize, ExecError> {
        for &(off, len) in tables.spans() {
            Self::check_transfer("VDM", self.vdm_capacity(), off, len)?;
        }
        for (off, values) in tables.placed() {
            self.write_vdm(off, values)?;
        }
        if !tables.tables().quotients.is_empty() {
            self.constants.push(tables.clone());
        }
        Ok(tables.tables().values.len())
    }

    /// Forgets every loaded table with a span `[off, off + len)` writes
    /// over.
    fn forget_constants(&mut self, off: usize, len: usize) {
        let apart = |&(o, l): &(usize, usize)| o + l <= off || off + len <= o;
        self.constants.retain(|t| t.spans().iter().all(apart));
    }

    /// Reads `len` elements from the VDM at an element offset.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::HostTransferOutOfBounds`] if the read
    /// exceeds VDM capacity.
    pub fn read_vdm(&self, offset: usize, len: usize) -> Result<Vec<u128>, ExecError> {
        Self::check_transfer("VDM", self.vdm_capacity(), offset, len)?;
        Ok(on_store!(&self.lanes, s => get(&s.vdm[offset..offset + len])))
    }

    /// Reads `len` elements from the SDM at an element offset — the
    /// image-export half of device snapshotting (the session layer
    /// serializes full VDM/SDM contents behind a versioned format).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::HostTransferOutOfBounds`] if the read
    /// exceeds SDM capacity.
    pub fn read_sdm(&self, offset: usize, len: usize) -> Result<Vec<u128>, ExecError> {
        Self::check_transfer("SDM", self.sdm_capacity(), offset, len)?;
        Ok(on_store!(&self.lanes, s => get(&s.sdm[offset..offset + len])))
    }

    /// Writes elements into the SDM at an element offset.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::HostTransferOutOfBounds`] if the write
    /// exceeds SDM capacity; the SDM is untouched.
    pub fn write_sdm(&mut self, offset: usize, data: &[u128]) -> Result<(), ExecError> {
        Self::check_transfer("SDM", self.sdm_capacity(), offset, data.len())?;
        self.admit(data);
        on_store!(&mut self.lanes, s => put(&mut s.sdm[offset..], data));
        Ok(())
    }

    /// Sets a modulus register directly (hosts do this before launching a
    /// kernel, like the controlling RISC-V core in Section IV-A).
    pub fn set_mrf(&mut self, reg: MReg, value: u128) {
        self.admit(&[value]);
        on_store!(&mut self.lanes, s => s.mrf[reg.index() as usize] = Lane::narrow(value))
    }

    /// Sets an address register directly.
    pub fn set_arf(&mut self, reg: AReg, value: u64) {
        on_store!(&mut self.lanes, s => s.arf[reg.index() as usize] = value)
    }

    /// Sets a scalar register directly.
    pub fn set_srf(&mut self, reg: SReg, value: u128) {
        self.admit(&[value]);
        on_store!(&mut self.lanes, s => s.srf[reg.index() as usize] = Lane::narrow(value))
    }

    /// Reads a vector register.
    pub fn vreg(&self, reg: VReg) -> Vec<u128> {
        on_store!(&self.lanes, s => get(&s.vrf[reg.index() as usize]))
    }

    /// Reads a scalar register.
    pub fn sreg(&self, reg: SReg) -> u128 {
        on_store!(&self.lanes, s => s.srf[reg.index() as usize].widen())
    }

    /// Reads a modulus register.
    pub fn mreg(&self, reg: MReg) -> u128 {
        on_store!(&self.lanes, s => s.mrf[reg.index() as usize].widen())
    }

    /// Reads an address register.
    pub fn areg(&self, reg: AReg) -> u64 {
        on_store!(&self.lanes, s => s.arf[reg.index() as usize])
    }

    /// Executes a program to completion.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on out-of-bounds memory access or invalid
    /// modulus; architectural state up to the faulting instruction is
    /// retained.
    pub fn run(&mut self, program: &Program) -> Result<(), ExecError> {
        let (engines, instrs) = (&mut self.engines, program.instructions());
        on_store!(&mut self.lanes, s => {
            instrs.iter().enumerate().try_for_each(|(pc, instr)| s.step(instr, pc, engines))
        })
    }

    /// Executes a pre-decoded program to completion on the fast path
    /// (`fastpath.rs`).
    ///
    /// Observationally identical to running
    /// [`run`](FunctionalSim::run) on the source program (see the
    /// interpreter-as-oracle contract above), at a small fraction of the
    /// wall-clock cost.
    ///
    /// # Errors
    ///
    /// Returns the same [`ExecError`] the interpreter would, with the
    /// same architectural state retained up to the fault.
    pub fn run_predecoded(&mut self, program: &PredecodedProgram) -> Result<(), ExecError> {
        let (engines, views, constants) = (&mut self.engines, &mut self.views, &self.constants);
        on_store!(&mut self.lanes, s => s.run_predecoded(program, engines, views, constants))
    }
}

impl Store<u64> {
    /// Every value re-stored in 128-bit words. Zero lanes are skipped
    /// rather than copied, so an untouched stretch of a memory stays
    /// untouched (not resident) in its wide copy.
    fn widened(&self) -> Store<u128> {
        let wide = |v: &Vec<u64>| {
            let mut out = vec![0u128; v.len()];
            for (o, &x) in out.iter_mut().zip(v).filter(|(_, &x)| x != 0) {
                *o = u128::from(x);
            }
            out
        };
        Store {
            vrf: self.vrf.iter().map(wide).collect(),
            srf: self.srf.map(u128::from),
            arf: self.arf,
            mrf: self.mrf.map(u128::from),
            vdm: wide(&self.vdm),
            sdm: wide(&self.sdm),
            scratch: [wide(&self.scratch[0]), wide(&self.scratch[1])],
        }
    }
}

impl<W: Lane> Store<W> {
    fn new(vdm_elements: usize, sdm_elements: usize) -> Self {
        let vector = vec![W::default(); VECTOR_LEN];
        Store {
            vrf: vec![vector.clone(); NUM_VREGS],
            srf: [W::default(); NUM_SREGS],
            arf: [0; NUM_AREGS],
            mrf: [W::default(); NUM_MREGS],
            vdm: vec![W::default(); vdm_elements],
            sdm: vec![W::default(); sdm_elements],
            scratch: [vector.clone(), vector],
        }
    }

    /// The reference arithmetic of the modulus in `MRF[rm]`.
    fn modulus(&self, rm: MReg, pc: usize, engines: &mut Engines) -> Result<Modulus128, ExecError> {
        let (mreg, q) = (rm.index(), self.mrf[rm.index() as usize].widen());
        let invalid = ExecError::InvalidModulus { mreg, pc };
        engines.get(q).map(|(_, m)| m).ok_or(invalid)
    }

    fn vdm_addr(
        &self,
        base: AReg,
        offset: u32,
        lane_off: usize,
        pc: usize,
    ) -> Result<usize, ExecError> {
        // An `aload` can plant any u64 in the ARF (the SDM is 128 bits
        // wide), so the effective address must be computed checked: an
        // overflowing address is out of bounds by definition and is
        // reported saturated, never wrapped.
        let addr = (self.arf[base.index() as usize] as usize)
            .saturating_add(offset as usize)
            .saturating_add(lane_off);
        if addr >= self.vdm.len() {
            return Err(ExecError::VdmOutOfBounds {
                address: addr,
                capacity: self.vdm.len(),
                pc,
            });
        }
        Ok(addr)
    }

    fn sdm_addr(&self, base: AReg, offset: u32, pc: usize) -> Result<usize, ExecError> {
        let addr = (self.arf[base.index() as usize] as usize).saturating_add(offset as usize);
        if addr >= self.sdm.len() {
            return Err(ExecError::SdmOutOfBounds {
                address: addr,
                capacity: self.sdm.len(),
                pc,
            });
        }
        Ok(addr)
    }

    /// Executes one instruction with full reference semantics. The fast
    /// path falls back to this for any op it cannot prove safe, so
    /// faulting instructions report errors (and leave partial state)
    /// exactly as the oracle does. Arithmetic is on the architectural
    /// `u128` values whatever the storage width.
    pub(crate) fn step(
        &mut self,
        instr: &Instruction,
        pc: usize,
        engines: &mut Engines,
    ) -> Result<(), ExecError> {
        use Instruction::*;
        match *instr {
            VLoad {
                vd,
                base,
                offset,
                mode,
            } => {
                for i in 0..VECTOR_LEN {
                    let addr = self.vdm_addr(base, offset, mode.element_offset(i), pc)?;
                    self.vrf[vd.index() as usize][i] = self.vdm[addr];
                }
            }
            VStore {
                vs,
                base,
                offset,
                mode,
            } => {
                for i in 0..VECTOR_LEN {
                    let addr = self.vdm_addr(base, offset, mode.element_offset(i), pc)?;
                    self.vdm[addr] = self.vrf[vs.index() as usize][i];
                }
            }
            VGather {
                vd,
                base,
                offset,
                vi,
            } => {
                // Per-lane indexed load: indices come from a register, so
                // every lane can read an arbitrary VDM element.
                for i in 0..VECTOR_LEN {
                    let idx = self.vrf[vi.index() as usize][i].widen();
                    let lane_off = usize::try_from(idx).map_err(|_| ExecError::VdmOutOfBounds {
                        address: usize::MAX,
                        capacity: self.vdm.len(),
                        pc,
                    })?;
                    let addr = self.vdm_addr(base, offset, lane_off, pc)?;
                    self.vrf[vd.index() as usize][i] = self.vdm[addr];
                }
            }
            VBroadcast { vd, base, offset } => {
                let addr = self.vdm_addr(base, offset, 0, pc)?;
                let value = self.vdm[addr];
                self.vrf[vd.index() as usize].fill(value);
            }
            SLoad { rt, base, offset } => {
                let addr = self.sdm_addr(base, offset, pc)?;
                self.srf[rt.index() as usize] = self.sdm[addr];
            }
            MLoad { rt, base, offset } => {
                let addr = self.sdm_addr(base, offset, pc)?;
                self.mrf[rt.index() as usize] = self.sdm[addr];
            }
            ALoad { rt, base, offset } => {
                let addr = self.sdm_addr(base, offset, pc)?;
                self.arf[rt.index() as usize] = self.sdm[addr].widen() as u64;
            }
            // Every modulus, narrow or wide, computes with `Modulus128`
            // (see the oracle contract on `FunctionalSim`).
            VAddMod { vd, vs, vt, rm } => {
                let m = self.modulus(rm, pc, engines)?;
                self.lanewise_vv(vd, vs, vt, |a, b| m.add(m.reduce(a), m.reduce(b)));
            }
            VSubMod { vd, vs, vt, rm } => {
                let m = self.modulus(rm, pc, engines)?;
                self.lanewise_vv(vd, vs, vt, |a, b| m.sub(m.reduce(a), m.reduce(b)));
            }
            VMulMod { vd, vs, vt, rm } => {
                let m = self.modulus(rm, pc, engines)?;
                self.lanewise_vv(vd, vs, vt, |a, b| m.mul(m.reduce(a), m.reduce(b)));
            }
            VSAddMod { vd, vs, rt, rm } => {
                let m = self.modulus(rm, pc, engines)?;
                let s = m.reduce(self.srf[rt.index() as usize].widen());
                self.lanewise_vs(vd, vs, |a| m.add(m.reduce(a), s));
            }
            VSSubMod { vd, vs, rt, rm } => {
                let m = self.modulus(rm, pc, engines)?;
                let s = m.reduce(self.srf[rt.index() as usize].widen());
                self.lanewise_vs(vd, vs, |a| m.sub(m.reduce(a), s));
            }
            VSMulMod { vd, vs, rt, rm } => {
                let m = self.modulus(rm, pc, engines)?;
                let s = m.reduce(self.srf[rt.index() as usize].widen());
                self.lanewise_vs(vd, vs, |a| m.mul(m.reduce(a), s));
            }
            Bfly {
                vd,
                vd1,
                vs,
                vt,
                vt1,
                rm,
            } => {
                let m = self.modulus(rm, pc, engines)?;
                // vd = vs + vt1*vt ; vd1 = vs - vt1*vt (CT butterfly).
                // Read all sources before writing: vd/vd1 may alias them.
                let a = get(&self.vrf[vs.index() as usize]);
                let b = get(&self.vrf[vt.index() as usize]);
                let t = get(&self.vrf[vt1.index() as usize]);
                for i in 0..VECTOR_LEN {
                    let prod = m.mul(m.reduce(b[i]), m.reduce(t[i]));
                    let ai = m.reduce(a[i]);
                    self.vrf[vd.index() as usize][i] = W::narrow(m.add(ai, prod));
                    self.vrf[vd1.index() as usize][i] = W::narrow(m.sub(ai, prod));
                }
            }
            UnpkLo { vd, vs, vt } => self.shuffle(vd, vs, vt, ShuffleKind::UnpkLo),
            UnpkHi { vd, vs, vt } => self.shuffle(vd, vs, vt, ShuffleKind::UnpkHi),
            PkLo { vd, vs, vt } => self.shuffle(vd, vs, vt, ShuffleKind::PkLo),
            PkHi { vd, vs, vt } => self.shuffle(vd, vs, vt, ShuffleKind::PkHi),
        }
        Ok(())
    }

    fn lanewise_vv(&mut self, vd: VReg, vs: VReg, vt: VReg, f: impl Fn(u128, u128) -> u128) {
        for i in 0..VECTOR_LEN {
            let a = self.vrf[vs.index() as usize][i].widen();
            let b = self.vrf[vt.index() as usize][i].widen();
            self.vrf[vd.index() as usize][i] = W::narrow(f(a, b));
        }
    }

    fn lanewise_vs(&mut self, vd: VReg, vs: VReg, f: impl Fn(u128) -> u128) {
        for i in 0..VECTOR_LEN {
            let a = self.vrf[vs.index() as usize][i].widen();
            self.vrf[vd.index() as usize][i] = W::narrow(f(a));
        }
    }

    fn shuffle(&mut self, vd: VReg, vs: VReg, vt: VReg, kind: ShuffleKind) {
        let s = self.vrf[vs.index() as usize].clone();
        let t = self.vrf[vt.index() as usize].clone();
        let out = &mut self.vrf[vd.index() as usize];
        shuffle_into(&s, &t, kind, out);
    }
}

/// The four SBAR shuffle operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShuffleKind {
    UnpkLo,
    UnpkHi,
    PkLo,
    PkHi,
}

/// Applies a shuffle to full-length source vectors (Section III's
/// definitions):
///
/// * `UNPKLO`: interleave the first halves of `vs` and `vt`.
/// * `UNPKHI`: interleave the second halves of `vs` and `vt`.
/// * `PKLO`: even-indexed `vs` elements then even-indexed `vt` elements.
/// * `PKHI`: odd-indexed `vs` elements then odd-indexed `vt` elements.
pub(crate) fn shuffle_into<T: Copy>(s: &[T], t: &[T], kind: ShuffleKind, out: &mut [T]) {
    let n = s.len();
    let half = n / 2;
    match kind {
        ShuffleKind::UnpkLo | ShuffleKind::UnpkHi => {
            let from = if kind == ShuffleKind::UnpkLo { 0 } else { half };
            let pairs = out.chunks_exact_mut(2).zip(&s[from..]).zip(&t[from..]);
            for ((o, &x), &y) in pairs {
                o[0] = x;
                o[1] = y;
            }
        }
        ShuffleKind::PkLo => {
            for i in 0..half {
                out[i] = s[2 * i];
                out[half + i] = t[2 * i];
            }
        }
        ShuffleKind::PkHi => {
            for i in 0..half {
                out[i] = s[2 * i + 1];
                out[half + i] = t[2 * i + 1];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_isa::parse_asm;

    fn sim() -> FunctionalSim {
        let mut s = FunctionalSim::new(1 << 16, 1 << 10);
        s.set_mrf(MReg::at(0), 0xFFFF_FFFF_0000_0001u128); // any valid odd modulus
        s
    }

    #[test]
    fn shuffle_semantics_small() {
        // check the four kinds on an 8-lane example
        let s: Vec<u128> = (0..8).collect();
        let t: Vec<u128> = (8..16).collect();
        let mut out = vec![0u128; 8];
        shuffle_into(&s, &t, ShuffleKind::UnpkLo, &mut out);
        assert_eq!(out, vec![0, 8, 1, 9, 2, 10, 3, 11]);
        shuffle_into(&s, &t, ShuffleKind::UnpkHi, &mut out);
        assert_eq!(out, vec![4, 12, 5, 13, 6, 14, 7, 15]);
        shuffle_into(&s, &t, ShuffleKind::PkLo, &mut out);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
        shuffle_into(&s, &t, ShuffleKind::PkHi, &mut out);
        assert_eq!(out, vec![1, 3, 5, 7, 9, 11, 13, 15]);
    }

    #[test]
    fn pack_inverts_unpack() {
        let mut f = sim();
        let a: Vec<u128> = (0..512).collect();
        let b: Vec<u128> = (512..1024).collect();
        f.write_vdm(0, &a).unwrap();
        f.write_vdm(512, &b).unwrap();
        let p = parse_asm(
            "inv",
            "vload v0, [a0 + 0], unit\n\
             vload v1, [a0 + 512], unit\n\
             unpklo v2, v0, v1\n\
             unpkhi v3, v0, v1\n\
             pklo v4, v2, v3\n\
             pkhi v5, v2, v3\n",
        )
        .unwrap();
        f.run(&p).unwrap();
        assert_eq!(f.vreg(VReg::at(4)), &a[..]);
        assert_eq!(f.vreg(VReg::at(5)), &b[..]);
    }

    #[test]
    fn bfly_matches_mul_add_sub_sequence() {
        let mut f1 = sim();
        let mut f2 = sim();
        let q = 0xFFFF_FFFF_0000_0001u128;
        let a: Vec<u128> = (0..512u128).map(|i| i * 999 % q).collect();
        let b: Vec<u128> = (0..512u128).map(|i| (i * 777 + 5) % q).collect();
        let t: Vec<u128> = (0..512u128).map(|i| (i * 31 + 1) % q).collect();
        for f in [&mut f1, &mut f2] {
            f.write_vdm(0, &a).unwrap();
            f.write_vdm(512, &b).unwrap();
            f.write_vdm(1024, &t).unwrap();
        }
        let fused = parse_asm(
            "fused",
            "vload v0, [a0 + 0], unit\n\
             vload v1, [a0 + 512], unit\n\
             vload v2, [a0 + 1024], unit\n\
             bfly v3, v4, v0, v1, v2, m0\n",
        )
        .unwrap();
        let split = parse_asm(
            "split",
            "vload v0, [a0 + 0], unit\n\
             vload v1, [a0 + 512], unit\n\
             vload v2, [a0 + 1024], unit\n\
             vmulmod v5, v1, v2, m0\n\
             vaddmod v3, v0, v5, m0\n\
             vsubmod v4, v0, v5, m0\n",
        )
        .unwrap();
        f1.run(&fused).unwrap();
        f2.run(&split).unwrap();
        assert_eq!(f1.vreg(VReg::at(3)), f2.vreg(VReg::at(3)));
        assert_eq!(f1.vreg(VReg::at(4)), f2.vreg(VReg::at(4)));
    }

    #[test]
    fn addressing_modes_load() {
        let mut f = sim();
        let data: Vec<u128> = (0..2048).collect();
        f.write_vdm(0, &data).unwrap();
        let p = parse_asm(
            "modes",
            "vload v0, [a0 + 0], stride:2\n\
             vload v1, [a0 + 0], skip:256\n\
             vload v2, [a0 + 0], rep:4\n",
        )
        .unwrap();
        f.run(&p).unwrap();
        assert_eq!(f.vreg(VReg::at(0))[5], 10);
        // skip:256 -> lanes 0..256 from 0..256, lanes 256..512 from 512..768
        assert_eq!(f.vreg(VReg::at(1))[255], 255);
        assert_eq!(f.vreg(VReg::at(1))[256], 512);
        assert_eq!(f.vreg(VReg::at(2))[7], 3); // repeats 0,1,2,3
    }

    #[test]
    fn scalar_and_modulus_loads() {
        let mut f = sim();
        f.write_sdm(0, &[41, 97, 7]).unwrap();
        let p = parse_asm(
            "scalar",
            "sload s1, [a0 + 0]\n\
             mload m2, [a0 + 1]\n\
             aload a3, [a0 + 2]\n",
        )
        .unwrap();
        f.run(&p).unwrap();
        assert_eq!(f.sreg(SReg::at(1)), 41);
        // use m2 in a computation to observe it
        let p2 = parse_asm("use", "vsaddmod v1, v0, s1, m2\n").unwrap();
        f.run(&p2).unwrap();
        assert_eq!(f.vreg(VReg::at(1))[0], 41); // 0 + 41 mod 97
    }

    #[test]
    fn vector_scalar_ops() {
        let mut f = sim();
        f.set_mrf(MReg::at(1), 101);
        f.set_srf(SReg::at(0), 100);
        f.write_vdm(0, &vec![3u128; 512]).unwrap();
        let p = parse_asm(
            "vs",
            "vload v0, [a0 + 0], unit\n\
             vsaddmod v1, v0, s0, m1\n\
             vssubmod v2, v0, s0, m1\n\
             vsmulmod v3, v0, s0, m1\n",
        )
        .unwrap();
        f.run(&p).unwrap();
        assert_eq!(f.vreg(VReg::at(1))[0], 2); // 3+100 mod 101
        assert_eq!(f.vreg(VReg::at(2))[0], 4); // 3-100 mod 101
        assert_eq!(f.vreg(VReg::at(3))[0], 300 % 101);
    }

    #[test]
    fn gather_routes_arbitrary_elements() {
        let mut f = sim();
        let data: Vec<u128> = (100..612).collect();
        f.write_vdm(64, &data).unwrap();
        // index vector: lane i reads element (511 - i) — a full reversal,
        // inexpressible with any static addressing mode
        let rev: Vec<u128> = (0..512u128).map(|i| 511 - i).collect();
        f.write_vdm(1024, &rev).unwrap();
        let p = parse_asm(
            "gather",
            "vload v1, [a0 + 1024], unit\n\
             vgather v2, [a0 + 64], v1\n",
        )
        .unwrap();
        f.run(&p).unwrap();
        let got = f.vreg(VReg::at(2));
        for i in 0..512 {
            assert_eq!(got[i], data[511 - i], "lane {i}");
        }
    }

    #[test]
    fn gather_bounds_checked_per_lane() {
        let mut f = FunctionalSim::new(600, 16);
        // lane 7's index points past the VDM
        let mut idx = vec![0u128; 512];
        idx[7] = 10_000;
        f.write_vdm(0, &idx).unwrap();
        let p = parse_asm(
            "oob",
            "vload v0, [a0 + 0], unit\nvgather v1, [a0 + 0], v0\n",
        )
        .unwrap();
        let err = f.run(&p).unwrap_err();
        assert!(matches!(err, ExecError::VdmOutOfBounds { pc: 1, .. }));
        // an index that does not even fit usize is caught, not wrapped
        idx[7] = u128::MAX;
        f.write_vdm(0, &idx).unwrap();
        assert!(f.run(&p).is_err());
    }

    #[test]
    fn broadcast_replicates() {
        let mut f = sim();
        f.write_vdm(7, &[1234]).unwrap();
        let p = parse_asm("b", "vbroadcast v9, [a0 + 7]\n").unwrap();
        f.run(&p).unwrap();
        assert!(f.vreg(VReg::at(9)).iter().all(|&v| v == 1234));
    }

    #[test]
    fn growth_preserves_contents_and_copy_moves_data() {
        let mut f = FunctionalSim::new(16, 4);
        f.write_vdm(0, &[1, 2, 3, 4]).unwrap();
        f.ensure_vdm(1024);
        assert_eq!(f.vdm_capacity(), 1024);
        assert_eq!(f.read_vdm(0, 4).unwrap(), vec![1, 2, 3, 4]);
        f.ensure_vdm(8); // never shrinks
        assert_eq!(f.vdm_capacity(), 1024);
        f.copy_vdm(1000, 0, 4).unwrap();
        assert_eq!(f.read_vdm(1000, 4).unwrap(), vec![1, 2, 3, 4]);
        // overlapping copy behaves like memmove
        f.copy_vdm(1, 0, 4).unwrap();
        assert_eq!(f.read_vdm(0, 5).unwrap(), vec![1, 1, 2, 3, 4]);
        f.ensure_sdm(64);
        assert_eq!(f.sdm_capacity(), 64);
    }

    #[test]
    fn host_transfers_fail_closed_on_out_of_bounds() {
        // Regression: these used to panic (assert!/slice index), killing
        // the host process on a bad operand binding. They must now fail
        // with a typed error and leave the memories untouched.
        let mut f = FunctionalSim::new(16, 4);
        f.write_vdm(0, &[7; 16]).unwrap();
        let err = f.copy_vdm(14, 0, 4).unwrap_err();
        assert_eq!(
            err,
            ExecError::HostTransferOutOfBounds {
                memory: "VDM",
                offset: 14,
                len: 4,
                capacity: 16,
            }
        );
        assert!(f.copy_vdm(0, 14, 4).is_err(), "source range checked too");
        assert!(f.write_vdm(15, &[1, 2]).is_err());
        assert!(f.read_vdm(10, 7).is_err());
        assert!(f.write_sdm(3, &[1, 2]).is_err());
        // offset + len overflowing usize must not wrap into "in bounds"
        assert!(f.write_vdm(usize::MAX, &[1]).is_err());
        assert!(f.read_vdm(usize::MAX, 2).is_err());
        assert!(f.copy_vdm(usize::MAX, 0, 2).is_err());
        // nothing was clobbered by the rejected transfers
        assert_eq!(f.read_vdm(0, 16).unwrap(), vec![7u128; 16]);
        // the error carries a readable message
        assert!(err.to_string().contains("host transfer"));
    }

    #[test]
    fn oob_vdm_detected() {
        let mut f = FunctionalSim::new(600, 16);
        f.set_mrf(MReg::at(0), 97);
        let p = parse_asm("oob", "vload v0, [a0 + 512], unit\n").unwrap();
        let err = f.run(&p).unwrap_err();
        assert!(matches!(err, ExecError::VdmOutOfBounds { pc: 0, .. }));
    }

    #[test]
    fn invalid_modulus_detected() {
        let mut f = FunctionalSim::new(1024, 16);
        // MRF[0] left at zero
        let p = parse_asm("bad", "vaddmod v0, v1, v2, m0\n").unwrap();
        let err = f.run(&p).unwrap_err();
        assert_eq!(err, ExecError::InvalidModulus { mreg: 0, pc: 0 });
    }

    #[test]
    fn arf_indirection_moves_data_window() {
        // Same program, different ARF base: the paper's motivation for
        // the ARF ("moving the location of stored data in the VDM
        // without changing instructions").
        let p = parse_asm("win", "vload v0, [a1 + 0], unit\n").unwrap();
        let mut f = sim();
        f.write_vdm(0, &vec![1u128; 512]).unwrap();
        f.write_vdm(512, &vec![2u128; 512]).unwrap();
        f.set_arf(AReg::at(1), 0);
        f.run(&p).unwrap();
        assert_eq!(f.vreg(VReg::at(0))[0], 1);
        f.set_arf(AReg::at(1), 512);
        f.run(&p).unwrap();
        assert_eq!(f.vreg(VReg::at(0))[0], 2);
    }
}
