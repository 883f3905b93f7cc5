//! A [`Program`] prepared for repeated execution.
//!
//! A compiled kernel never changes after `compile()`; this wrapper is
//! the type the fast-path executor (`FunctionalSim::run_predecoded`)
//! takes and the kernel store hands out, so anything later derived from
//! the instruction sequence alone is derived once, here. Today nothing
//! is: executors match [`Instruction`](crate::Instruction)s directly —
//! there is no second op representation — and recompute effective
//! addresses from `ARF[base] + offset` on every access (`aload` can
//! retarget a base mid-program and the VDM may have grown since compile
//! time), using [`AddrMode::span`](crate::AddrMode::span) to hoist one
//! bounds check per vector access.

use crate::program::Program;

/// A [`Program`] prepared once at compile time and reusable across any
/// number of executions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredecodedProgram {
    program: Program,
}

impl PredecodedProgram {
    /// Prepares a program, taking ownership of it.
    pub fn new(program: Program) -> Self {
        PredecodedProgram { program }
    }

    /// The source program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.program.len()
    }

    /// `true` if the program is empty.
    pub fn is_empty(&self) -> bool {
        self.program.is_empty()
    }
}

impl From<Program> for PredecodedProgram {
    fn from(program: Program) -> Self {
        PredecodedProgram::new(program)
    }
}

impl From<&Program> for PredecodedProgram {
    fn from(program: &Program) -> Self {
        PredecodedProgram::new(program.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::VECTOR_LEN;
    use crate::table::{OpInfo, ISA};
    use crate::AddrMode;

    #[test]
    fn spans_match_the_addressing_mode_reach() {
        // span must equal max_i element_offset(i) + 1, brute-forced
        for mode in [
            AddrMode::Unit,
            AddrMode::Strided { log2_stride: 0 },
            AddrMode::Strided { log2_stride: 3 },
            AddrMode::StridedSkip { log2_block: 2 },
            AddrMode::StridedSkip { log2_block: 8 },
            AddrMode::StridedSkip { log2_block: 10 },
            AddrMode::Repeated { log2_block: 2 },
            AddrMode::Repeated { log2_block: 11 },
        ] {
            let brute = (0..VECTOR_LEN)
                .map(|i| mode.element_offset(i))
                .max()
                .unwrap()
                + 1;
            assert_eq!(mode.span(), brute, "{mode:?}");
        }
        // degenerate reach saturates instead of overflowing
        assert_eq!(AddrMode::Strided { log2_stride: 60 }.span(), usize::MAX);
    }

    #[test]
    fn predecoded_program_preserves_the_source() {
        let program: Program = ISA.iter().map(OpInfo::sample).collect();
        let n = program.len();
        let pre = PredecodedProgram::new(program.clone());
        assert_eq!(pre.program(), &program);
        assert_eq!(pre.len(), n);
        assert!(!pre.is_empty());
        assert_eq!(PredecodedProgram::from(&program), pre);
    }
}
