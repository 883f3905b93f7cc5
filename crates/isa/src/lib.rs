//! # rpu-isa — the B512 vector instruction set
//!
//! B512 (Section III of *"RPU: The Ring Processing Unit"*, ISPASS 2023)
//! is a vector ISA tailored to ring processing: 512-element vectors of
//! 128-bit words, native modular arithmetic (including a fused NTT
//! butterfly), four load/store addressing modes, register-register
//! shuffles, and four 64-entry register files (vector, scalar, address,
//! modulus). The ISA has exactly 17 instructions in 64-bit words.
//!
//! This crate defines the [`Instruction`] set, its Table-I-faithful
//! binary [`encode`]/[`decode`], register-index newtypes, the [`Program`]
//! container, and a two-way assembler ([`parse_asm`] /
//! [`Program::to_asm`]). Each instruction is described once, in the
//! [`ISA`] table ([`table`]); the encoder, decoder, assembler, printer,
//! register-set accessors and hazard metadata are derived from it.
//!
//! # Examples
//!
//! ```
//! use rpu_isa::{parse_asm, Instruction};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_asm("bfly_demo", "bfly v2, v3, v4, v5, v6, m0")?;
//! let words = program.to_words();
//! assert_eq!(rpu_isa::decode(words[0])?, program.instructions()[0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod asm;
pub mod consts;
pub mod decoded;
mod encode;
mod instr;
mod program;
mod regs;
pub mod table;

pub use asm::{parse_asm, ParseAsmError};
pub use decoded::PredecodedProgram;
pub use encode::{decode, encode, DecodeError};
pub use instr::{AddrMode, Instruction, PipeClass, VdmFootprint};
pub use program::{InstructionMix, Program};
pub use regs::{AReg, MReg, SReg, VReg};
pub use table::{
    CostClass, Events, Latency, Occupancy, Op, OpInfo, Operand, RegFile, ADDRESS_BITS, ISA,
    NUM_FLAT_REGS,
};
