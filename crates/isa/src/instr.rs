//! The B512 instructions and their semantics metadata: the paper's 17
//! (Section III) plus the `vgather` indexed-load extension that exposes
//! the VBAR's per-lane routing to software (the permutation side of the
//! vector ISA that Galois automorphisms need).

use crate::consts::VECTOR_LEN;
use crate::regs::{AReg, MReg, SReg, VReg};
use crate::table::{OpInfo, Operand, Reach, RegFile};

/// Vector load/store addressing modes (Section III, "MODE and VALUE
/// together implement four different addressing modes").
///
/// Element `i` of the architectural vector maps to the VDM element offset
/// given by [`AddrMode::element_offset`], relative to `ARF[base] + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrMode {
    /// Consecutive elements.
    Unit,
    /// Elements at stride `2^log2_stride`.
    Strided {
        /// log2 of the element stride (0..=63 encodable; ≤ 20 meaningful).
        log2_stride: u8,
    },
    /// Transfer `2^log2_block` contiguous elements, then skip the next
    /// `2^log2_block`, and repeat — the NTT gather pattern.
    StridedSkip {
        /// log2 of the transfer/skip block size.
        log2_block: u8,
    },
    /// Repeat the first `2^log2_block` elements for the whole vector —
    /// used to replicate short twiddle patterns.
    Repeated {
        /// log2 of the repeated block size.
        log2_block: u8,
    },
}

impl AddrMode {
    /// VDM element offset (relative to the effective base) accessed by
    /// architectural lane `i`.
    #[inline]
    pub fn element_offset(self, i: usize) -> usize {
        match self {
            AddrMode::Unit => i,
            AddrMode::Strided { log2_stride } => i << log2_stride,
            AddrMode::StridedSkip { log2_block } => {
                let b = 1usize << log2_block;
                let chunk = i / b;
                let pos = i % b;
                chunk * 2 * b + pos
            }
            AddrMode::Repeated { log2_block } => i % (1usize << log2_block),
        }
    }

    /// Worst-case reach of the mode: the largest `element_offset(i)`
    /// over the vector, plus one. Every mode's offset sequence is
    /// bounded by its value at the top lane (`Unit`, `Strided`,
    /// `StridedSkip` are monotonic; `Repeated` is capped by its block),
    /// so `effective_base + span <= capacity` proves a whole access in
    /// bounds. Returns `usize::MAX` if the reach overflows `usize`
    /// (degenerate encodings — executors fall back to per-element
    /// checking).
    #[inline]
    pub fn span(self) -> usize {
        let top = VECTOR_LEN - 1;
        let block = |log2: u8| 1usize.checked_shl(log2.into());
        let max_off = match self {
            AddrMode::Unit => Some(top),
            AddrMode::Strided { log2_stride } => {
                block(log2_stride).and_then(|s| top.checked_mul(s))
            }
            AddrMode::StridedSkip { log2_block } => block(log2_block).and_then(|b| {
                (top / b)
                    .checked_mul(2)
                    .and_then(|c| c.checked_mul(b))
                    .and_then(|c| c.checked_add(top % b))
            }),
            AddrMode::Repeated { log2_block } => block(log2_block).map(|b| top.min(b - 1)),
        };
        max_off.and_then(|m| m.checked_add(1)).unwrap_or(usize::MAX)
    }

    /// The MODE field encoding.
    pub(crate) fn mode_bits(self) -> u8 {
        match self {
            AddrMode::Unit => 0,
            AddrMode::Strided { .. } => 1,
            AddrMode::StridedSkip { .. } => 2,
            AddrMode::Repeated { .. } => 3,
        }
    }

    /// The VALUE field encoding.
    pub(crate) fn value_bits(self) -> u8 {
        match self {
            AddrMode::Unit => 0,
            AddrMode::Strided { log2_stride } => log2_stride,
            AddrMode::StridedSkip { log2_block } => log2_block,
            AddrMode::Repeated { log2_block } => log2_block,
        }
    }

    pub(crate) fn from_bits(mode: u8, value: u8) -> Option<Self> {
        match mode {
            0 if value == 0 => Some(AddrMode::Unit),
            0 => None, // non-canonical: unit mode must encode value 0
            1 => Some(AddrMode::Strided { log2_stride: value }),
            2 => Some(AddrMode::StridedSkip { log2_block: value }),
            3 => Some(AddrMode::Repeated { log2_block: value }),
            _ => None,
        }
    }
}

impl core::fmt::Display for AddrMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AddrMode::Unit => write!(f, "unit"),
            AddrMode::Strided { log2_stride } => write!(f, "stride:{}", 1u64 << log2_stride),
            AddrMode::StridedSkip { log2_block } => write!(f, "skip:{}", 1u64 << log2_block),
            AddrMode::Repeated { log2_block } => write!(f, "rep:{}", 1u64 << log2_block),
        }
    }
}

/// Which decoupled backend pipeline an instruction dispatches to
/// (Section IV-A: load/store, compute, shuffle queues).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipeClass {
    /// Load/Store Instructions — VDM/SDM ↔ register files via the VBAR.
    LoadStore,
    /// Compute Instructions — HPLE modular arithmetic.
    Compute,
    /// Shuffle Instructions — register-register moves via the SBAR.
    Shuffle,
}

impl core::fmt::Display for PipeClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PipeClass::LoadStore => write!(f, "load/store"),
            PipeClass::Compute => write!(f, "compute"),
            PipeClass::Shuffle => write!(f, "shuffle"),
        }
    }
}

/// A B512 instruction.
///
/// Semantics summary (`VL` = 512 lanes, all arithmetic mod `MRF[rm]`):
///
/// | Mnemonic | Effect |
/// |---|---|
/// | `vload`  | `VRF[vd][i] = VDM[ARF[base] + offset + mode(i)]` |
/// | `vstore` | `VDM[ARF[base] + offset + mode(i)] = VRF[vs][i]` |
/// | `vgather` | `VRF[vd][i] = VDM[ARF[base] + offset + VRF[vi][i]]` |
/// | `vbroadcast` | `VRF[vd][i] = VDM[ARF[base] + offset]` |
/// | `sload`  | `SRF[rt] = SDM[ARF[base] + offset]` |
/// | `mload`  | `MRF[rt] = SDM[ARF[base] + offset]` |
/// | `aload`  | `ARF[rt] = SDM[ARF[base] + offset]` |
/// | `vaddmod`/`vsubmod`/`vmulmod` | lane-wise `vd = vs ∘ vt` |
/// | `vsaddmod`/`vssubmod`/`vsmulmod` | lane-wise `vd = vs ∘ SRF[rt]` |
/// | `bfly`   | `vd = vs + vt1·vt`, `vd1 = vs − vt1·vt` |
/// | `unpklo` | interleave first halves of `vs`,`vt` |
/// | `unpkhi` | interleave second halves of `vs`,`vt` |
/// | `pklo`   | even lanes of `vs` ‖ even lanes of `vt` |
/// | `pkhi`   | odd lanes of `vs` ‖ odd lanes of `vt` |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // field meanings documented in the table above
pub enum Instruction {
    // --- Load/Store Instructions (LSI) ---
    VLoad {
        vd: VReg,
        base: AReg,
        offset: u32,
        mode: AddrMode,
    },
    VStore {
        vs: VReg,
        base: AReg,
        offset: u32,
        mode: AddrMode,
    },
    /// Indexed (per-lane) load: lane `i` reads the VDM element at
    /// `ARF[base] + offset + VRF[vi][i]`. The index vector is data, so
    /// one instruction realizes an arbitrary element permutation — the
    /// coefficient shuffles of Galois automorphisms that no static
    /// addressing mode can express.
    VGather {
        vd: VReg,
        base: AReg,
        offset: u32,
        vi: VReg,
    },
    VBroadcast {
        vd: VReg,
        base: AReg,
        offset: u32,
    },
    SLoad {
        rt: SReg,
        base: AReg,
        offset: u32,
    },
    MLoad {
        rt: MReg,
        base: AReg,
        offset: u32,
    },
    ALoad {
        rt: AReg,
        base: AReg,
        offset: u32,
    },
    // --- Compute Instructions (CI) ---
    VAddMod {
        vd: VReg,
        vs: VReg,
        vt: VReg,
        rm: MReg,
    },
    VSubMod {
        vd: VReg,
        vs: VReg,
        vt: VReg,
        rm: MReg,
    },
    VMulMod {
        vd: VReg,
        vs: VReg,
        vt: VReg,
        rm: MReg,
    },
    VSAddMod {
        vd: VReg,
        vs: VReg,
        rt: SReg,
        rm: MReg,
    },
    VSSubMod {
        vd: VReg,
        vs: VReg,
        rt: SReg,
        rm: MReg,
    },
    VSMulMod {
        vd: VReg,
        vs: VReg,
        rt: SReg,
        rm: MReg,
    },
    Bfly {
        vd: VReg,
        vd1: VReg,
        vs: VReg,
        vt: VReg,
        vt1: VReg,
        rm: MReg,
    },
    // --- Shuffle Instructions (SI) ---
    UnpkLo {
        vd: VReg,
        vs: VReg,
        vt: VReg,
    },
    UnpkHi {
        vd: VReg,
        vs: VReg,
        vt: VReg,
    },
    PkLo {
        vd: VReg,
        vs: VReg,
        vt: VReg,
    },
    PkHi {
        vd: VReg,
        vs: VReg,
        vt: VReg,
    },
}

/// The VDM elements a vector transfer may touch, with the address
/// register resolved as 0 (the generated-kernel convention): what the
/// cycle model and the list scheduler order memory accesses by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VdmFootprint {
    /// First element: the static offset (every mode starts at lane 0).
    offset: usize,
    /// One past the last element the access can reach.
    end: usize,
    mode: AddrMode,
    /// `true` if the access writes the VDM.
    pub store: bool,
}

impl VdmFootprint {
    /// Conservative may-alias check with one precision upgrade: two
    /// equal-stride strided accesses whose bases are incongruent modulo
    /// the stride touch interleaved, disjoint element sets (the
    /// shuffle-free kernel's lo/hi store pairs).
    #[inline]
    pub fn conflicts(&self, other: &VdmFootprint) -> bool {
        if self.end <= other.offset || other.end <= self.offset {
            return false;
        }
        match self.mode {
            AddrMode::Strided { log2_stride } if self.mode == other.mode => {
                let stride = 1usize << log2_stride;
                self.offset % stride == other.offset % stride
            }
            _ => true,
        }
    }
}

impl Instruction {
    /// This instruction's row of the instruction table.
    pub fn info(&self) -> &'static OpInfo {
        self.parts().0.info()
    }

    /// The backend pipeline this instruction dispatches to.
    pub fn pipe_class(&self) -> PipeClass {
        self.info().pipe
    }

    /// The assembly mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        self.info().mnemonic
    }

    /// The addressing mode of a vector load or store; `None` for every
    /// instruction without one.
    pub fn addr_mode(&self) -> Option<AddrMode> {
        let (op, o) = self.parts();
        op.info()
            .operands
            .contains(&Operand::Mode)
            .then_some(o.mode)
    }

    /// Every register operand as `(file, index, written)`; the base of
    /// a memory operand is an address-register read.
    fn reg_operands(&self) -> impl Iterator<Item = (RegFile, u8, bool)> {
        let (op, o) = self.parts();
        let operands = op.info().operands.iter().zip(o.regs);
        operands.filter_map(|(operand, r)| match *operand {
            Operand::Reg { file, written, .. } => Some((file, r, written)),
            Operand::Mem { .. } => Some((RegFile::Address, r, false)),
            Operand::Mode => None,
        })
    }

    /// Flat ids (`file * 64 + index`, files in [`RegFile`] order, below
    /// [`NUM_FLAT_REGS`](crate::NUM_FLAT_REGS)) of every register this
    /// instruction reads, address-register bases included.
    #[inline]
    pub fn reg_reads(&self) -> impl Iterator<Item = usize> {
        let reads = self.reg_operands().filter(|&(_, _, written)| !written);
        reads.map(|(file, r, _)| file.flat(r))
    }

    /// Flat ids of every register this instruction writes.
    #[inline]
    pub fn reg_writes(&self) -> impl Iterator<Item = usize> {
        let writes = self.reg_operands().filter(|&(_, _, written)| written);
        writes.map(|(file, r, _)| file.flat(r))
    }

    /// The first `N` registers of `file` this instruction reads or writes.
    fn file_regs<const N: usize>(&self, file: RegFile, written: bool) -> [Option<u8>; N] {
        let mut regs = self
            .reg_operands()
            .filter(|&(f, _, w)| f == file && w == written);
        [(); N].map(|()| regs.next().map(|(_, r, _)| r))
    }

    /// Vector registers read by this instruction (up to 3).
    pub fn src_vregs(&self) -> [Option<VReg>; 3] {
        self.file_regs(RegFile::Vector, false)
            .map(|r| r.map(VReg::at))
    }

    /// Vector registers written by this instruction (up to 2).
    pub fn dst_vregs(&self) -> [Option<VReg>; 2] {
        self.file_regs(RegFile::Vector, true)
            .map(|r| r.map(VReg::at))
    }

    /// Address register read (the load/store base), if any.
    pub fn src_areg(&self) -> Option<AReg> {
        self.file_regs::<1>(RegFile::Address, false)[0].map(AReg::at)
    }

    /// Modulus register read, if any.
    pub fn src_mreg(&self) -> Option<MReg> {
        self.file_regs::<1>(RegFile::Modulus, false)[0].map(MReg::at)
    }

    /// The VDM footprint of a vector transfer; `None` for everything
    /// that does not touch the VDM.
    #[inline]
    pub fn vdm_footprint(&self) -> Option<VdmFootprint> {
        let (op, o) = self.parts();
        let (reach, store) = op.info().operands.iter().find_map(|x| match *x {
            Operand::Mem { reach, store } => Some((reach, store)),
            _ => None,
        })?;
        let (span, mode) = match reach {
            Reach::Mode => (o.mode.span(), o.mode),
            Reach::Element => (1, AddrMode::Unit),
            // Indices are unsigned register data, so `[offset, ∞)` is
            // exact: ordered conservatively against every store above.
            Reach::Indexed => (usize::MAX, AddrMode::Unit),
            Reach::Sdm => return None,
        };
        let offset = o.offset as usize;
        Some(VdmFootprint {
            offset,
            end: offset.saturating_add(span),
            mode,
            store,
        })
    }

    /// This instruction with its VDM reference, if it has one, shifted
    /// by `delta` elements. SDM references (`sload`/`mload`/`aload`) are
    /// left untouched.
    pub fn relocated(&self, delta: u32) -> Instruction {
        let (op, mut o) = self.parts();
        if self.vdm_footprint().is_some() {
            o.offset += delta;
        }
        Instruction::from_parts(op, &o)
    }
}

impl core::fmt::Display for Instruction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let (op, o) = self.parts();
        let info = op.info();
        write!(f, "{:<7}", info.mnemonic)?;
        for (k, operand) in info.operands.iter().enumerate() {
            f.write_str(if k == 0 { " " } else { ", " })?;
            match *operand {
                Operand::Reg { file, .. } => write!(f, "{}{}", file.prefix(), o.regs[k])?,
                Operand::Mem { .. } => write!(f, "[a{} + {}]", o.regs[k], o.offset)?,
                Operand::Mode => write!(f, "{}", o.mode)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_mode_offsets() {
        assert_eq!(AddrMode::Unit.element_offset(5), 5);
        assert_eq!(AddrMode::Strided { log2_stride: 2 }.element_offset(3), 12);
        // StridedSkip with block 4: elements 0..4 from offsets 0..4,
        // elements 4..8 from offsets 8..12 (skipping 4..8).
        let ss = AddrMode::StridedSkip { log2_block: 2 };
        assert_eq!(ss.element_offset(0), 0);
        assert_eq!(ss.element_offset(3), 3);
        assert_eq!(ss.element_offset(4), 8);
        assert_eq!(ss.element_offset(7), 11);
        assert_eq!(ss.element_offset(8), 16);
        // Repeated block 2: 0,1,0,1,...
        let r = AddrMode::Repeated { log2_block: 1 };
        assert_eq!(r.element_offset(0), 0);
        assert_eq!(r.element_offset(1), 1);
        assert_eq!(r.element_offset(2), 0);
        assert_eq!(r.element_offset(513), 1);
    }

    #[test]
    fn pipe_classes_partition_isa() {
        let v = VReg::at(0);
        let a = AReg::at(0);
        let m = MReg::at(0);
        let s = SReg::at(0);
        let samples = [
            Instruction::VLoad {
                vd: v,
                base: a,
                offset: 0,
                mode: AddrMode::Unit,
            },
            Instruction::SLoad {
                rt: s,
                base: a,
                offset: 0,
            },
            Instruction::VAddMod {
                vd: v,
                vs: v,
                vt: v,
                rm: m,
            },
            Instruction::Bfly {
                vd: v,
                vd1: v,
                vs: v,
                vt: v,
                vt1: v,
                rm: m,
            },
            Instruction::PkHi {
                vd: v,
                vs: v,
                vt: v,
            },
        ];
        use PipeClass::*;
        let expect = [LoadStore, LoadStore, Compute, Compute, Shuffle];
        for (i, e) in samples.iter().zip(expect) {
            assert_eq!(i.pipe_class(), e);
        }
    }

    #[test]
    fn bfly_register_sets() {
        let i = Instruction::Bfly {
            vd: VReg::at(1),
            vd1: VReg::at(2),
            vs: VReg::at(3),
            vt: VReg::at(4),
            vt1: VReg::at(5),
            rm: MReg::at(0),
        };
        assert_eq!(
            i.src_vregs(),
            [Some(VReg::at(3)), Some(VReg::at(4)), Some(VReg::at(5))]
        );
        assert_eq!(i.dst_vregs(), [Some(VReg::at(1)), Some(VReg::at(2))]);
        assert_eq!(i.info().cost.occupancy, crate::table::Occupancy::Multiplier);
        assert_eq!(i.src_mreg(), Some(MReg::at(0)));
    }

    #[test]
    fn store_reads_its_vector() {
        let i = Instruction::VStore {
            vs: VReg::at(7),
            base: AReg::at(1),
            offset: 42,
            mode: AddrMode::Unit,
        };
        assert_eq!(i.src_vregs()[0], Some(VReg::at(7)));
        assert_eq!(i.dst_vregs(), [None, None]);
        assert_eq!(i.src_areg(), Some(AReg::at(1)));
    }

    #[test]
    fn display_is_parseable_shape() {
        let i = Instruction::VMulMod {
            vd: VReg::at(59),
            vs: VReg::at(20),
            vt: VReg::at(19),
            rm: MReg::at(1),
        };
        assert_eq!(i.to_string(), "vmulmod v59, v20, v19, m1");
    }
}
