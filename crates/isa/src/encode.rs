//! 64-bit binary encoding of B512 instructions, following Table I.
//!
//! The field layout and the per-instruction field assignment live in
//! the instruction table ([`crate::table`]); this module only walks a
//! row's operands. Decoding is strict: any bits that an instruction
//! does not use must be zero, so `decode(encode(i)) == i` and every
//! valid word has exactly one meaning.

use crate::instr::{AddrMode, Instruction};
use crate::table::{Field, Operand, Operands, ADDRESS_BITS, ADDRESS_SHIFT, FLAG_SHIFT, ISA};
use crate::table::{OPCODE_SHIFT, REG_MASK};

/// Error decoding a 64-bit instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Bits that must be zero for the decoded opcode were set.
    NonCanonical {
        /// The offending word.
        word: u64,
    },
    /// The BFLY bit was set on a non-butterfly opcode.
    StrayButterflyBit {
        /// The offending word.
        word: u64,
    },
    /// An addressing-mode field combination was invalid.
    InvalidAddrMode {
        /// The offending word.
        word: u64,
    },
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::NonCanonical { word } => {
                write!(f, "non-canonical encoding: {word:#018x}")
            }
            DecodeError::StrayButterflyBit { word } => {
                write!(f, "BFLY bit set on non-butterfly opcode: {word:#018x}")
            }
            DecodeError::InvalidAddrMode { word } => {
                write!(f, "invalid addressing mode fields: {word:#018x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

const ADDRESS_MASK: u64 = (1 << ADDRESS_BITS) - 1;

/// Encodes an instruction into its 64-bit word.
///
/// The `offset` of memory instructions must fit the 20-bit address
/// field (the assembler and the code generators check it); a wider
/// offset is a caller bug, caught in debug builds and truncated in
/// release builds.
pub fn encode(instr: &Instruction) -> u64 {
    let (op, o) = instr.parts();
    let info = op.info();
    debug_assert!(
        u64::from(o.offset) <= ADDRESS_MASK,
        "offset {} exceeds the {ADDRESS_BITS}-bit address field",
        o.offset
    );
    let mut word = u64::from(info.flag) << FLAG_SHIFT | u64::from(info.opcode) << OPCODE_SHIFT;
    for (operand, r) in info.operands.iter().zip(o.regs) {
        word |= match *operand {
            Operand::Reg { field, .. } => u64::from(r) << field as u32,
            Operand::Mem { .. } => {
                u64::from(r) << Field::Rm as u32
                    | (u64::from(o.offset) & ADDRESS_MASK) << ADDRESS_SHIFT
            }
            Operand::Mode => {
                u64::from(o.mode.mode_bits()) << Field::Vs as u32
                    | u64::from(o.mode.value_bits()) << Field::Vt as u32
            }
        };
    }
    word
}

/// Decodes a 64-bit word into an instruction.
///
/// # Errors
///
/// Returns a [`DecodeError`] for non-canonical words (unused bits set,
/// stray BFLY bit, or invalid addressing-mode fields).
pub fn decode(word: u64) -> Result<Instruction, DecodeError> {
    let reg = |field: Field| ((word >> field as u32) & REG_MASK) as u8;
    // The VD1 field is 9 bits wide in the layout but registers are 6
    // bits; the top 3 bits must always be zero.
    if (word >> Field::Vd1 as u32) > REG_MASK {
        return Err(DecodeError::NonCanonical { word });
    }
    let (opcode, flag) = ((word >> OPCODE_SHIFT) & 0xF, (word >> FLAG_SHIFT) & 1 == 1);
    // Every opcode value has a flag-clear row, so only a stray flag bit
    // can fail the lookup.
    let info = ISA
        .iter()
        .find(|i| u64::from(i.opcode) == opcode && i.flag == flag)
        .ok_or(DecodeError::StrayButterflyBit { word })?;
    // The flag and opcode fields are always meaningful; every other set
    // bit must be claimed by one of the row's operands.
    let mut used = 1 << FLAG_SHIFT | 0xF << OPCODE_SHIFT;
    let mut o = Operands::NONE;
    let mut has_mode = false;
    for (k, operand) in info.operands.iter().enumerate() {
        match *operand {
            Operand::Reg { field, .. } => {
                o.regs[k] = reg(field);
                used |= REG_MASK << field as u32;
            }
            Operand::Mem { .. } => {
                o.regs[k] = reg(Field::Rm);
                o.offset = ((word >> ADDRESS_SHIFT) & ADDRESS_MASK) as u32;
                used |= REG_MASK << Field::Rm as u32 | ADDRESS_MASK << ADDRESS_SHIFT;
            }
            Operand::Mode => {
                has_mode = true;
                used |= REG_MASK << Field::Vs as u32 | REG_MASK << Field::Vt as u32;
            }
        }
    }
    if word & !used != 0 {
        return Err(DecodeError::NonCanonical { word });
    }
    if has_mode {
        o.mode = AddrMode::from_bits(reg(Field::Vs), reg(Field::Vt))
            .ok_or(DecodeError::InvalidAddrMode { word })?;
    }
    Ok(Instruction::from_parts(info.op, &o))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::{AReg, MReg, SReg, VReg};

    fn all_sample_instructions() -> Vec<Instruction> {
        use Instruction::*;
        let v = |i| VReg::at(i);
        let a = AReg::at(9);
        let m = MReg::at(4);
        let s = SReg::at(17);
        vec![
            VLoad {
                vd: v(60),
                base: a,
                offset: 8192,
                mode: AddrMode::Unit,
            },
            VLoad {
                vd: v(1),
                base: a,
                offset: 0,
                mode: AddrMode::StridedSkip { log2_block: 5 },
            },
            VLoad {
                vd: v(2),
                base: a,
                offset: 7,
                mode: AddrMode::Repeated { log2_block: 3 },
            },
            VStore {
                vs: v(21),
                base: a,
                offset: 16,
                mode: AddrMode::Strided { log2_stride: 1 },
            },
            VGather {
                vd: v(33),
                base: a,
                offset: 4096,
                vi: v(34),
            },
            VBroadcast {
                vd: v(19),
                base: a,
                offset: 1,
            },
            SLoad {
                rt: s,
                base: a,
                offset: 3,
            },
            MLoad {
                rt: m,
                base: a,
                offset: 4,
            },
            ALoad {
                rt: AReg::at(5),
                base: a,
                offset: 5,
            },
            VAddMod {
                vd: v(58),
                vs: v(60),
                vt: v(59),
                rm: m,
            },
            VSubMod {
                vd: v(57),
                vs: v(60),
                vt: v(59),
                rm: m,
            },
            VMulMod {
                vd: v(59),
                vs: v(20),
                vt: v(19),
                rm: m,
            },
            VSAddMod {
                vd: v(3),
                vs: v(4),
                rt: s,
                rm: m,
            },
            VSSubMod {
                vd: v(5),
                vs: v(6),
                rt: s,
                rm: m,
            },
            VSMulMod {
                vd: v(7),
                vs: v(8),
                rt: s,
                rm: m,
            },
            Bfly {
                vd: v(10),
                vd1: v(11),
                vs: v(12),
                vt: v(13),
                vt1: v(14),
                rm: m,
            },
            UnpkLo {
                vd: v(56),
                vs: v(58),
                vt: v(57),
            },
            UnpkHi {
                vd: v(55),
                vs: v(58),
                vt: v(57),
            },
        ]
    }

    #[test]
    fn covers_all_instructions() {
        let mut sample = all_sample_instructions();
        sample.push(Instruction::PkLo {
            vd: VReg::at(0),
            vs: VReg::at(1),
            vt: VReg::at(2),
        });
        sample.push(Instruction::PkHi {
            vd: VReg::at(0),
            vs: VReg::at(1),
            vt: VReg::at(2),
        });
        let mnemonics: std::collections::HashSet<_> = sample.iter().map(|i| i.mnemonic()).collect();
        assert_eq!(mnemonics.len(), crate::consts::NUM_INSTRUCTIONS);
    }

    #[test]
    fn round_trip_all() {
        for i in all_sample_instructions() {
            let w = encode(&i);
            assert_eq!(decode(w), Ok(i), "word={w:#018x}");
        }
    }

    #[test]
    fn butterfly_uses_flag_bit() {
        let b = Instruction::Bfly {
            vd: VReg::at(1),
            vd1: VReg::at(2),
            vs: VReg::at(3),
            vt: VReg::at(4),
            vt1: VReg::at(5),
            rm: MReg::at(0),
        };
        let w = encode(&b);
        assert_eq!((w >> 48) & 1, 1, "BFLY bit");
        assert_eq!((w >> 44) & 0xF, 6, "shares the vaddmod opcode");
    }

    #[test]
    fn stray_bfly_bit_rejected() {
        let i = Instruction::UnpkLo {
            vd: VReg::at(0),
            vs: VReg::at(1),
            vt: VReg::at(2),
        };
        let w = encode(&i) | (1 << 48);
        assert_eq!(decode(w), Err(DecodeError::StrayButterflyBit { word: w }));
        // …including on a store: only loads have the indexed form.
        let s = Instruction::VStore {
            vs: VReg::at(0),
            base: AReg::at(0),
            offset: 0,
            mode: AddrMode::Unit,
        };
        let w = encode(&s) | (1 << 48);
        assert_eq!(decode(w), Err(DecodeError::StrayButterflyBit { word: w }));
    }

    #[test]
    fn gather_uses_flag_bit_on_load_opcode() {
        let g = Instruction::VGather {
            vd: VReg::at(1),
            base: AReg::at(2),
            offset: 77,
            vi: VReg::at(3),
        };
        let w = encode(&g);
        assert_eq!((w >> 48) & 1, 1, "flag bit");
        assert_eq!((w >> 44) & 0xF, 0, "shares the vload opcode");
        assert_eq!(decode(w), Ok(g));
        // a nonzero MODE field on the indexed form is non-canonical
        let bad = w | (3 << 12);
        assert_eq!(decode(bad), Err(DecodeError::NonCanonical { word: bad }));
    }

    #[test]
    fn noncanonical_rejected() {
        // set VT1 bits on a plain vaddmod
        let i = Instruction::VAddMod {
            vd: VReg::at(0),
            vs: VReg::at(1),
            vt: VReg::at(2),
            rm: MReg::at(3),
        };
        let w = encode(&i) | (5 << 49);
        assert_eq!(decode(w), Err(DecodeError::NonCanonical { word: w }));
        // unit-mode vload with a nonzero VALUE field
        let l = Instruction::VLoad {
            vd: VReg::at(0),
            base: AReg::at(0),
            offset: 0,
            mode: AddrMode::Unit,
        };
        let w = encode(&l) | (3 << 6);
        assert_eq!(decode(w), Err(DecodeError::InvalidAddrMode { word: w }));
    }

    #[test]
    fn address_field_width() {
        let i = Instruction::VLoad {
            vd: VReg::at(0),
            base: AReg::at(0),
            offset: (1 << 20) - 1,
            mode: AddrMode::Unit,
        };
        let w = encode(&i);
        assert_eq!(decode(w), Ok(i));
    }
}
