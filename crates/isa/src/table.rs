//! The one description of each B512 instruction.
//!
//! [`ISA`] has one row per instruction — mnemonic, 4-bit opcode and flag
//! bit, the operands in assembly order (each naming the encoding field
//! that carries it), pipeline class, cost class — and
//! `Instruction::parts` / `Instruction::from_parts` convert between an
//! [`Instruction`] and `(row, operand values)`. Everything about an
//! instruction that is not its semantics is a function over those three:
//! the binary encoder and strict decoder, the assembler and `Display`,
//! the register-set accessors, VDM relocation, the hazard metadata
//! (registers read/written, VDM footprint) and the timing (`rpu_sim::cost`
//! evaluates a row's [`CostClass`] against a configuration) that the
//! cycle model, the energy counts and the list scheduler share. What
//! remains hand-written per opcode is the enum, the two conversions,
//! and the two semantic walkers in `rpu-sim` (interpreter, fast path).
//!
//! Word layout (bit ranges inclusive):
//!
//! ```text
//! [63:55] [54:49] [48]  [47:44] [43:24]  [23:18] [17:12]   [11:6]      [5:0]
//!   VD1     VT1   FLAG  Opcode  Address    VD    VS/Mode  VT/RT/Value   RM
//! ```

use crate::consts::{NUM_AREGS, NUM_INSTRUCTIONS, NUM_MREGS, NUM_SREGS, NUM_VREGS, VECTOR_LEN};
use crate::instr::{AddrMode, Instruction, PipeClass};
use crate::regs::{AReg, MReg, SReg, VReg};

/// Width of the static element offset of memory instructions.
pub const ADDRESS_BITS: u32 = 20;
/// Mask of a 6-bit register field.
pub(crate) const REG_MASK: u64 = 0x3F;
/// Bit position of the address field.
pub(crate) const ADDRESS_SHIFT: u32 = 24;
/// Bit position of the 4-bit opcode field.
pub(crate) const OPCODE_SHIFT: u32 = 44;
/// Bit position of the flag (BFLY) bit.
pub(crate) const FLAG_SHIFT: u32 = 48;

/// Registers per file: every file fills one 6-bit field.
pub(crate) const REGS_PER_FILE: usize = REG_MASK as usize + 1;
const _: () = assert!(NUM_VREGS == REGS_PER_FILE && NUM_SREGS == REGS_PER_FILE);
const _: () = assert!(NUM_AREGS == REGS_PER_FILE && NUM_MREGS == REGS_PER_FILE);

/// Size of the flat register-id space of [`Instruction::reg_reads`] /
/// [`Instruction::reg_writes`]: four files of 64 registers.
pub const NUM_FLAT_REGS: usize = 4 * REGS_PER_FILE;

/// The four architectural register files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegFile {
    /// VRF, `vN`.
    Vector,
    /// SRF, `sN`.
    Scalar,
    /// ARF, `aN`.
    Address,
    /// MRF, `mN`.
    Modulus,
}

impl RegFile {
    pub(crate) const fn name(self) -> &'static str {
        match self {
            RegFile::Vector => "vector",
            RegFile::Scalar => "scalar",
            RegFile::Address => "address",
            RegFile::Modulus => "modulus",
        }
    }

    /// The assembly prefix of this file's registers: its initial.
    pub const fn prefix(self) -> char {
        self.name().as_bytes()[0] as char
    }

    /// Flat id of register `index` of this file (`file * 64 + index`).
    pub(crate) const fn flat(self, index: u8) -> usize {
        self as usize * REGS_PER_FILE + index as usize
    }
}

/// A 6-bit register field of the instruction word; the discriminant is
/// its bit position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // named after the layout diagram in the module docs
pub enum Field {
    Vd1 = 55,
    Vt1 = 49,
    Vd = 18,
    Vs = 12,
    Vt = 6,
    Rm = 0,
}

/// What the memory operand of a load/store reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// The VDM lanes selected by the instruction's [`Operand::Mode`].
    Mode,
    /// One VDM element.
    Element,
    /// VDM elements at data-dependent (unsigned) indices: anything at
    /// or above the static offset.
    Indexed,
    /// One SDM element: no VDM footprint, never relocated.
    Sdm,
}

/// One operand of an instruction, as the table describes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A register of `file`, carried in `field`, written or read.
    Reg {
        /// The register file.
        file: RegFile,
        /// The encoding field.
        field: Field,
        /// `true` for a destination.
        written: bool,
    },
    /// `[aN + offset]`: the base address register (read) in the RM
    /// field, the static offset in the address field.
    Mem {
        /// What the access reaches.
        reach: Reach,
        /// `true` if the access writes memory.
        store: bool,
    },
    /// A vector addressing mode: MODE in the VS field, VALUE in VT.
    Mode,
}

/// Row index into [`ISA`]: which instruction, without its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // one per `Instruction` variant, same names
pub enum Op {
    VLoad,
    VStore,
    VGather,
    VBroadcast,
    SLoad,
    MLoad,
    ALoad,
    VAddMod,
    VSubMod,
    VMulMod,
    VSAddMod,
    VSSubMod,
    VSMulMod,
    Bfly,
    UnpkLo,
    UnpkHi,
    PkLo,
    PkHi,
}

impl Op {
    /// This instruction's table row.
    pub fn info(self) -> &'static OpInfo {
        &ISA[self as usize]
    }
}

/// One row of the instruction table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpInfo {
    /// Which instruction this row describes (its own index).
    pub op: Op,
    /// The assembly mnemonic.
    pub mnemonic: &'static str,
    /// The 4-bit opcode field.
    pub opcode: u8,
    /// The flag bit (`bfly` on the `vaddmod` opcode, `vgather` on the
    /// `vload` opcode).
    pub flag: bool,
    /// The operands, in assembly order.
    pub operands: &'static [Operand],
    /// The backend pipeline the instruction dispatches to.
    pub pipe: PipeClass,
    /// What the instruction costs: its timing and its events.
    pub cost: CostClass,
}

impl OpInfo {
    /// A representative instruction of this row — distinct registers in
    /// every operand, a nonzero offset, a non-unit addressing mode —
    /// for listings and round-trip checks that must cover every row.
    pub fn sample(&self) -> Instruction {
        let k = self.op as u8;
        let operands = Operands {
            regs: [1, 2, 3, 4, 5, 6].map(|i| (3 * k + i) % REGS_PER_FILE as u8),
            offset: 512 * (u32::from(k) + 1),
            mode: AddrMode::StridedSkip { log2_block: 3 },
        };
        Instruction::from_parts(self.op, &operands)
    }
}

const fn dst(file: RegFile, field: Field) -> Operand {
    Operand::Reg {
        file,
        field,
        written: true,
    }
}

const fn src(file: RegFile, field: Field) -> Operand {
    Operand::Reg {
        file,
        field,
        written: false,
    }
}

const fn mem(reach: Reach, store: bool) -> Operand {
    Operand::Mem { reach, store }
}

use Field::{Rm, Vd, Vd1, Vs, Vt, Vt1};
use RegFile::{Address as A, Modulus as M, Scalar as S, Vector as V};

// Operand formats, shared between rows of the same shape. Stores carry
// their source vector in the VD field.
const LOAD: &[Operand] = &[dst(V, Vd), mem(Reach::Mode, false), Operand::Mode];
const STORE: &[Operand] = &[src(V, Vd), mem(Reach::Mode, true), Operand::Mode];
const GATHER: &[Operand] = &[dst(V, Vd), mem(Reach::Indexed, false), src(V, Vt)];
const BROADCAST: &[Operand] = &[dst(V, Vd), mem(Reach::Element, false)];
const SLOAD: &[Operand] = &[dst(S, Vt), mem(Reach::Sdm, false)];
const MLOAD: &[Operand] = &[dst(M, Vt), mem(Reach::Sdm, false)];
const ALOAD: &[Operand] = &[dst(A, Vt), mem(Reach::Sdm, false)];
const VV: &[Operand] = &[dst(V, Vd), src(V, Vs), src(V, Vt), src(M, Rm)];
const VS: &[Operand] = &[dst(V, Vd), src(V, Vs), src(S, Vt), src(M, Rm)];
const BFLY: &[Operand] = &[
    dst(V, Vd),
    dst(V, Vd1),
    src(V, Vs),
    src(V, Vt),
    src(V, Vt1),
    src(M, Rm),
];
const SHUFFLE: &[Operand] = &[dst(V, Vd), src(V, Vs), src(V, Vt)];

/// How long an instruction holds its pipeline's issue slot, as a
/// function of the configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occupancy {
    /// `⌈512 / HPLEs⌉` cycles: one element per HPLE slice per cycle
    /// (a lane-limited compute, a shuffle through the SBAR, or a
    /// broadcast bound by the per-slice VRF write port).
    Lanes,
    /// [`Lanes`](Occupancy::Lanes) times the multiplier's initiation
    /// interval.
    Multiplier,
    /// A vector transfer under its addressing mode: the slower of the
    /// per-slice VRF ports and the busiest (element-interleaved) VDM
    /// bank.
    Banks,
    /// An indexed load, whose bank pattern is data: a double-pumped
    /// VBAR pass, twice the port- or bank-limited unit-stride cost,
    /// rather than a conflict-free spread the hardware cannot promise.
    Gather,
    /// One cycle: a scalar (SDM) access.
    Sdm,
}

/// Which configured latency an instruction's results land after,
/// counted from the end of its occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Latency {
    /// Through the VBAR (`ls_latency`).
    LoadStore,
    /// The modular adder (`add_latency`).
    Add,
    /// The modular multiplier (`mult_latency`).
    Mult,
    /// A multiply feeding an add (`mult_latency + add_latency`).
    MultAdd,
    /// Through the SBAR (`shuffle_latency`).
    Shuffle,
}

/// What one instruction does to each energy-priced structure, in
/// 128-bit elements (lane operations for `mult` and `add`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // each field is the `SimStats` counter of that name
pub struct Events {
    pub vrf_reads: u32,
    pub vrf_writes: u32,
    pub vdm_reads: u32,
    pub vdm_writes: u32,
    pub sdm_accesses: u32,
    pub mult_ops: u32,
    pub add_ops: u32,
    pub vbar: u32,
    pub sbar: u32,
}

/// An instruction's cost class: its timing, and the events it causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostClass {
    /// How long it holds its pipeline.
    pub occupancy: Occupancy,
    /// How long after that its results land.
    pub latency: Latency,
    /// What it reads, writes, moves and computes.
    pub events: Events,
}

/// The cost classes, shared between rows of the same timing. Events
/// are per instruction, in elements of a `VL`-lane vector.
#[rustfmt::skip]
mod costs {
    use super::{CostClass, Events, Latency, Occupancy, VECTOR_LEN};
    use Latency::{Add, LoadStore, Mult, MultAdd, Shuffle};
    use Occupancy::{Banks, Gather, Lanes, Multiplier, Sdm};

    const VL: u32 = VECTOR_LEN as u32;
    const fn class(
        occupancy: Occupancy,
        latency: Latency,
        [vrf_reads, vrf_writes, vdm_reads, vdm_writes, sdm_accesses, mult_ops, add_ops, vbar, sbar]: [u32; 9],
    ) -> CostClass {
        let events = Events { vrf_reads, vrf_writes, vdm_reads, vdm_writes, sdm_accesses, mult_ops, add_ops, vbar, sbar };
        CostClass { occupancy, latency, events }
    }

    //                                                                    VRF r   VRF w   VDM r  VDM w  SDM  mult  add     VBAR  SBAR
    pub(super) const LOAD: CostClass      = class(Banks,      LoadStore, [0,      VL,     VL,    0,     0,   0,    0,      VL,   0]);
    pub(super) const STORE: CostClass     = class(Banks,      LoadStore, [VL,     0,      0,     VL,    0,   0,    0,      VL,   0]);
    // Reads its index vector (VT) from the VRF.
    pub(super) const GATHER: CostClass    = class(Gather,     LoadStore, [VL,     VL,     VL,    0,     0,   0,    0,      VL,   0]);
    // One VDM read, fanned out on the VBAR.
    pub(super) const BROADCAST: CostClass = class(Lanes,      LoadStore, [0,      VL,     1,     0,     0,   0,    0,      VL,   0]);
    pub(super) const SCALAR: CostClass    = class(Sdm,        LoadStore, [0,      0,      0,     0,     1,   0,    0,      0,    0]);
    pub(super) const VV_ADD: CostClass    = class(Lanes,      Add,       [2 * VL, VL,     0,     0,     0,   0,    VL,     0,    0]);
    pub(super) const VS_ADD: CostClass    = class(Lanes,      Add,       [VL,     VL,     0,     0,     0,   0,    VL,     0,    0]);
    pub(super) const VV_MUL: CostClass    = class(Multiplier, Mult,      [2 * VL, VL,     0,     0,     0,   VL,   0,      0,    0]);
    pub(super) const VS_MUL: CostClass    = class(Multiplier, Mult,      [VL,     VL,     0,     0,     0,   VL,   0,      0,    0]);
    pub(super) const BFLY: CostClass      = class(Multiplier, MultAdd,   [3 * VL, 2 * VL, 0,     0,     0,   VL,   2 * VL, 0,    0]);
    pub(super) const SHUFFLE: CostClass   = class(Lanes,      Shuffle,   [VL,     VL,     0,     0,     0,   0,    0,      0,    VL]);
}

const fn row(
    op: Op,
    mnemonic: &'static str,
    opcode: u8,
    flag: bool,
    operands: &'static [Operand],
    pipe: PipeClass,
    cost: CostClass,
) -> OpInfo {
    OpInfo {
        op,
        mnemonic,
        opcode,
        flag,
        operands,
        pipe,
        cost,
    }
}

use PipeClass::{Compute, LoadStore, Shuffle};

/// The B512 instruction table (Table I plus the `vgather` extension),
/// indexed by [`Op`]. Sixteen opcode values plus the flag bit cover the
/// paper's 17 instructions; the flag on the `vload` opcode encodes
/// `vgather`, whose MODE field is free because an indexed load has no
/// static addressing mode.
#[rustfmt::skip]
pub static ISA: [OpInfo; NUM_INSTRUCTIONS] = [
    //  op            mnemonic      opcode flag   operands   pipe       cost class
    row(Op::VLoad,      "vload",       0,  false, LOAD,      LoadStore, costs::LOAD),
    row(Op::VStore,     "vstore",      1,  false, STORE,     LoadStore, costs::STORE),
    row(Op::VGather,    "vgather",     0,  true,  GATHER,    LoadStore, costs::GATHER),
    row(Op::VBroadcast, "vbroadcast",  2,  false, BROADCAST, LoadStore, costs::BROADCAST),
    row(Op::SLoad,      "sload",       3,  false, SLOAD,     LoadStore, costs::SCALAR),
    row(Op::MLoad,      "mload",       4,  false, MLOAD,     LoadStore, costs::SCALAR),
    row(Op::ALoad,      "aload",       5,  false, ALOAD,     LoadStore, costs::SCALAR),
    row(Op::VAddMod,    "vaddmod",     6,  false, VV,        Compute,   costs::VV_ADD),
    row(Op::VSubMod,    "vsubmod",     7,  false, VV,        Compute,   costs::VV_ADD),
    row(Op::VMulMod,    "vmulmod",     8,  false, VV,        Compute,   costs::VV_MUL),
    row(Op::VSAddMod,   "vsaddmod",    9,  false, VS,        Compute,   costs::VS_ADD),
    row(Op::VSSubMod,   "vssubmod",   10,  false, VS,        Compute,   costs::VS_ADD),
    row(Op::VSMulMod,   "vsmulmod",   11,  false, VS,        Compute,   costs::VS_MUL),
    row(Op::Bfly,       "bfly",        6,  true,  BFLY,      Compute,   costs::BFLY),
    row(Op::UnpkLo,     "unpklo",     12,  false, SHUFFLE,   Shuffle,   costs::SHUFFLE),
    row(Op::UnpkHi,     "unpkhi",     13,  false, SHUFFLE,   Shuffle,   costs::SHUFFLE),
    row(Op::PkLo,       "pklo",       14,  false, SHUFFLE,   Shuffle,   costs::SHUFFLE),
    row(Op::PkHi,       "pkhi",       15,  false, SHUFFLE,   Shuffle,   costs::SHUFFLE),
];

/// The operand values of one instruction, in the row's assembly order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Operands {
    /// `regs[k]`: the register index of operand `k` (the base register
    /// for [`Operand::Mem`]; unused for [`Operand::Mode`]).
    pub(crate) regs: [u8; 6],
    /// The static offset of the memory operand, if there is one.
    pub(crate) offset: u32,
    /// The addressing mode, if there is a [`Operand::Mode`] operand.
    pub(crate) mode: AddrMode,
}

impl Operands {
    pub(crate) const NONE: Operands = Operands {
        regs: [0; 6],
        offset: 0,
        mode: AddrMode::Unit,
    };

    fn regs<const N: usize>(regs: [u8; N]) -> Self {
        let mut o = Operands::NONE;
        o.regs[..N].copy_from_slice(&regs);
        o
    }

    /// `reg, [base + offset]` and whatever follows.
    fn mem(reg: u8, base: AReg, offset: u32) -> Self {
        Operands {
            offset,
            ..Operands::regs([reg, base.index()])
        }
    }

    fn with(self, mode: AddrMode) -> Self {
        Operands { mode, ..self }
    }

    /// `vd, vs, <vt or rt>, rm`: the two compute shapes.
    fn alu(vd: VReg, vs: VReg, third: u8, rm: MReg) -> Self {
        Operands::regs([vd.index(), vs.index(), third, rm.index()])
    }
}

impl Instruction {
    /// Splits the instruction into its table row and operand values.
    pub(crate) fn parts(&self) -> (Op, Operands) {
        use Instruction::*;
        match *self {
            VLoad {
                vd,
                base,
                offset,
                mode,
            } => (
                Op::VLoad,
                Operands::mem(vd.index(), base, offset).with(mode),
            ),
            VStore {
                vs,
                base,
                offset,
                mode,
            } => (
                Op::VStore,
                Operands::mem(vs.index(), base, offset).with(mode),
            ),
            VGather {
                vd,
                base,
                offset,
                vi,
            } => (
                Op::VGather,
                Operands {
                    offset,
                    ..Operands::regs([vd.index(), base.index(), vi.index()])
                },
            ),
            VBroadcast { vd, base, offset } => {
                (Op::VBroadcast, Operands::mem(vd.index(), base, offset))
            }
            SLoad { rt, base, offset } => (Op::SLoad, Operands::mem(rt.index(), base, offset)),
            MLoad { rt, base, offset } => (Op::MLoad, Operands::mem(rt.index(), base, offset)),
            ALoad { rt, base, offset } => (Op::ALoad, Operands::mem(rt.index(), base, offset)),
            VAddMod { vd, vs, vt, rm } => (Op::VAddMod, Operands::alu(vd, vs, vt.index(), rm)),
            VSubMod { vd, vs, vt, rm } => (Op::VSubMod, Operands::alu(vd, vs, vt.index(), rm)),
            VMulMod { vd, vs, vt, rm } => (Op::VMulMod, Operands::alu(vd, vs, vt.index(), rm)),
            VSAddMod { vd, vs, rt, rm } => (Op::VSAddMod, Operands::alu(vd, vs, rt.index(), rm)),
            VSSubMod { vd, vs, rt, rm } => (Op::VSSubMod, Operands::alu(vd, vs, rt.index(), rm)),
            VSMulMod { vd, vs, rt, rm } => (Op::VSMulMod, Operands::alu(vd, vs, rt.index(), rm)),
            Bfly {
                vd,
                vd1,
                vs,
                vt,
                vt1,
                rm,
            } => {
                let mut o = Operands::regs([vd, vd1, vs, vt, vt1].map(VReg::index));
                o.regs[5] = rm.index();
                (Op::Bfly, o)
            }
            UnpkLo { vd, vs, vt } => (Op::UnpkLo, Operands::regs([vd, vs, vt].map(VReg::index))),
            UnpkHi { vd, vs, vt } => (Op::UnpkHi, Operands::regs([vd, vs, vt].map(VReg::index))),
            PkLo { vd, vs, vt } => (Op::PkLo, Operands::regs([vd, vs, vt].map(VReg::index))),
            PkHi { vd, vs, vt } => (Op::PkHi, Operands::regs([vd, vs, vt].map(VReg::index))),
        }
    }

    /// Rebuilds an instruction from a table row and operand values —
    /// the inverse of [`parts`](Instruction::parts). Register indices
    /// must be in range (the decoder and the assembler guarantee it).
    pub(crate) fn from_parts(op: Op, o: &Operands) -> Instruction {
        use Instruction::*;
        let v = |k: usize| VReg::at(o.regs[k]);
        let s = |k: usize| SReg::at(o.regs[k]);
        let a = |k: usize| AReg::at(o.regs[k]);
        let m = |k: usize| MReg::at(o.regs[k]);
        let (offset, mode) = (o.offset, o.mode);
        match op {
            Op::VLoad => VLoad {
                vd: v(0),
                base: a(1),
                offset,
                mode,
            },
            Op::VStore => VStore {
                vs: v(0),
                base: a(1),
                offset,
                mode,
            },
            Op::VGather => VGather {
                vd: v(0),
                base: a(1),
                offset,
                vi: v(2),
            },
            Op::VBroadcast => VBroadcast {
                vd: v(0),
                base: a(1),
                offset,
            },
            Op::SLoad => SLoad {
                rt: s(0),
                base: a(1),
                offset,
            },
            Op::MLoad => MLoad {
                rt: m(0),
                base: a(1),
                offset,
            },
            Op::ALoad => ALoad {
                rt: a(0),
                base: a(1),
                offset,
            },
            Op::VAddMod => VAddMod {
                vd: v(0),
                vs: v(1),
                vt: v(2),
                rm: m(3),
            },
            Op::VSubMod => VSubMod {
                vd: v(0),
                vs: v(1),
                vt: v(2),
                rm: m(3),
            },
            Op::VMulMod => VMulMod {
                vd: v(0),
                vs: v(1),
                vt: v(2),
                rm: m(3),
            },
            Op::VSAddMod => VSAddMod {
                vd: v(0),
                vs: v(1),
                rt: s(2),
                rm: m(3),
            },
            Op::VSSubMod => VSSubMod {
                vd: v(0),
                vs: v(1),
                rt: s(2),
                rm: m(3),
            },
            Op::VSMulMod => VSMulMod {
                vd: v(0),
                vs: v(1),
                rt: s(2),
                rm: m(3),
            },
            Op::Bfly => Bfly {
                vd: v(0),
                vd1: v(1),
                vs: v(2),
                vt: v(3),
                vt1: v(4),
                rm: m(5),
            },
            Op::UnpkLo => UnpkLo {
                vd: v(0),
                vs: v(1),
                vt: v(2),
            },
            Op::UnpkHi => UnpkHi {
                vd: v(0),
                vs: v(1),
                vt: v(2),
            },
            Op::PkLo => PkLo {
                vd: v(0),
                vs: v(1),
                vt: v(2),
            },
            Op::PkHi => PkHi {
                vd: v(0),
                vs: v(1),
                vt: v(2),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode, encode, parse_asm};
    use std::collections::HashSet;

    #[test]
    fn rows_are_indexed_by_op_and_unique() {
        assert_eq!(ISA.len(), NUM_INSTRUCTIONS);
        for (i, info) in ISA.iter().enumerate() {
            assert_eq!(info.op as usize, i, "{}", info.mnemonic);
            assert!(info.opcode < 16, "{}", info.mnemonic);
        }
        let encodings: HashSet<_> = ISA.iter().map(|i| (i.opcode, i.flag)).collect();
        assert_eq!(encodings.len(), NUM_INSTRUCTIONS, "(opcode, flag) pairs");
        let mnemonics: HashSet<_> = ISA.iter().map(|i| i.mnemonic).collect();
        assert_eq!(mnemonics.len(), NUM_INSTRUCTIONS, "mnemonics");
        // `decode` reports a failed row lookup as a stray flag bit, which
        // is only right if every opcode value has a flag-clear row.
        for opcode in 0..16 {
            assert!(encodings.contains(&(opcode, false)), "opcode {opcode}");
        }
    }

    #[test]
    fn operands_claim_disjoint_fields() {
        for info in &ISA {
            let mut fields = Vec::new();
            for operand in info.operands {
                match *operand {
                    Operand::Reg { field, .. } => fields.push(field),
                    Operand::Mem { .. } => fields.push(Field::Rm),
                    Operand::Mode => fields.extend([Field::Vs, Field::Vt]),
                }
            }
            let distinct: HashSet<u32> = fields.iter().map(|&f| f as u32).collect();
            assert_eq!(distinct.len(), fields.len(), "{}", info.mnemonic);
            assert!(info.operands.len() <= Operands::NONE.regs.len());
        }
    }

    #[test]
    fn every_row_round_trips_and_has_its_declared_register_sets() {
        for info in &ISA {
            let sample = info.sample();
            let (op, o) = sample.parts();
            assert_eq!(op, info.op);
            assert_eq!(Instruction::from_parts(op, &o), sample);
            assert_eq!(sample.info(), info);

            let word = encode(&sample);
            assert_eq!(decode(word), Ok(sample), "{sample}: {word:#018x}");
            let text = sample.to_string();
            assert!(text.starts_with(info.mnemonic), "{text}");
            let parsed = parse_asm("row", &text).expect("sample parses");
            assert_eq!(parsed.instructions(), [sample], "{text}");

            // Every operand sits in the word where its format says, and
            // shows up in exactly the register set its role says.
            let reads: Vec<usize> = sample.reg_reads().collect();
            let writes: Vec<usize> = sample.reg_writes().collect();
            let (mut n_reads, mut n_writes) = (0, 0);
            for (k, operand) in info.operands.iter().enumerate() {
                let (file, field, written) = match *operand {
                    Operand::Reg {
                        file,
                        field,
                        written,
                    } => (file, field, written),
                    Operand::Mem { .. } => {
                        assert_eq!((word >> ADDRESS_SHIFT) & 0xF_FFFF, u64::from(o.offset));
                        (RegFile::Address, Field::Rm, false)
                    }
                    Operand::Mode => continue,
                };
                assert_eq!((word >> field as u32) & REG_MASK, u64::from(o.regs[k]));
                let id = file.flat(o.regs[k]);
                assert!(id < NUM_FLAT_REGS);
                if written {
                    assert!(writes.contains(&id) && !reads.contains(&id), "{text}");
                    n_writes += 1;
                } else {
                    assert!(reads.contains(&id) && !writes.contains(&id), "{text}");
                    n_reads += 1;
                }
            }
            assert_eq!((reads.len(), writes.len()), (n_reads, n_writes), "{text}");
            // The typed accessors are views of the same sets.
            let typed = |file: RegFile, ids: &[usize]| -> Vec<u8> {
                let of_file = ids
                    .iter()
                    .filter(|&&id| id / REGS_PER_FILE == file as usize);
                of_file.map(|&id| (id % REGS_PER_FILE) as u8).collect()
            };
            let indices = |regs: &[Option<VReg>]| -> Vec<u8> {
                regs.iter().flatten().map(|r| r.index()).collect()
            };
            assert_eq!(indices(&sample.src_vregs()), typed(RegFile::Vector, &reads));
            assert_eq!(
                indices(&sample.dst_vregs()),
                typed(RegFile::Vector, &writes)
            );
            let mreg = sample.src_mreg().map(|r| r.index());
            assert_eq!(mreg, typed(RegFile::Modulus, &reads).first().copied());
            let areg = sample.src_areg().map(|r| r.index());
            assert_eq!(areg, typed(RegFile::Address, &reads).first().copied());
            assert_eq!(sample.pipe_class(), info.pipe);
        }
    }

    #[test]
    fn cost_classes_agree_with_their_rows() {
        for info in &ISA {
            let (c, e) = (info.cost, info.cost.events);
            let name = info.mnemonic;
            let has_mode = info.operands.contains(&Operand::Mode);
            assert_eq!(c.occupancy == Occupancy::Banks, has_mode, "{name}");
            assert_eq!(
                c.occupancy == Occupancy::Multiplier,
                e.mult_ops > 0,
                "{name}"
            );
            let stores =
                (info.operands.iter()).any(|o| matches!(o, Operand::Mem { store: true, .. }));
            assert_eq!(stores, e.vdm_writes > 0, "{name}");
            let pipe = match c.latency {
                Latency::LoadStore => PipeClass::LoadStore,
                Latency::Add | Latency::Mult | Latency::MultAdd => PipeClass::Compute,
                Latency::Shuffle => PipeClass::Shuffle,
            };
            assert_eq!(pipe, info.pipe, "{name}");
        }
    }

    #[test]
    fn footprints_follow_the_memory_operand() {
        for info in &ISA {
            let sample = info.sample();
            let reach = info.operands.iter().find_map(|x| match *x {
                Operand::Mem { reach, store } => Some((reach, store)),
                _ => None,
            });
            let moved = sample.relocated(4096);
            match (reach, sample.vdm_footprint()) {
                (None | Some((Reach::Sdm, _)), None) => assert_eq!(moved, sample),
                (Some((_, store)), Some(fp)) => {
                    assert_eq!(fp.store, store, "{sample}");
                    assert_eq!(moved.parts().1.offset, sample.parts().1.offset + 4096);
                    assert!(fp.conflicts(&fp));
                }
                (r, f) => panic!("{sample}: operand {r:?} vs footprint {f:?}"),
            }
        }
    }
}
