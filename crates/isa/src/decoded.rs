//! A [`Program`] prepared for repeated execution: the program plus its
//! static Montgomery domain plan.
//!
//! A compiled kernel never changes after `compile()`, so whatever can be
//! derived from the instruction sequence alone is derived once, here,
//! and reused by every dispatch. Today that is the domain plan: one
//! advisory [`PromoteHint`] per instruction telling a Montgomery
//! executor which multiplicative source is worth caching in Montgomery
//! form. Executors match [`Instruction`]s directly — there is no second
//! op representation — and recompute effective addresses from
//! `ARF[base] + offset` on every access (`aload` can retarget a base
//! mid-program and the VDM may have grown since compile time), using
//! [`AddrMode::span`](crate::AddrMode::span) to hoist one bounds check
//! per vector access.

use crate::consts::NUM_VREGS;
use crate::instr::Instruction;
use crate::program::Program;
use crate::regs::VReg;

/// Advice attached to one multiply-class instruction by the static
/// domain plan: which multiplicative source (if either) an executor
/// should start caching in Montgomery form when it reaches it.
///
/// Hints are *advisory*. They never change semantics: an executor that
/// ignores them (or one servicing an even modulus, which has no
/// Montgomery form) computes the same results through the plain
/// multiply. They exist so a Montgomery executor converts exactly the
/// registers whose remaining static multiply uses pay for the
/// conversion, instead of converting on every multiply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PromoteHint {
    /// No promotion at this instruction.
    #[default]
    None,
    /// Promote the first multiplicative source: `vs` of a `vmulmod`,
    /// `vt` (the multiplicand) of a `bfly`.
    First,
    /// Promote the second multiplicative source: `vt` of a `vmulmod`,
    /// `vt1` (the twiddle) of a `bfly`.
    Second,
}

/// How one instruction uses vector registers, as the domain plan sees
/// it (raw VRF indices).
struct DomainUses {
    /// Multiplicative sources — the operands a Montgomery executor can
    /// read from a cached Montgomery copy — in [`PromoteHint`] slot
    /// order. `vsmulmod` has none: its other factor is a scalar.
    mul: Option<[usize; 2]>,
    /// Registers (re)defined, which drops their cached copy.
    defs: [Option<usize>; 2],
}

impl DomainUses {
    fn of(instr: &Instruction) -> Self {
        let ix = |r: VReg| usize::from(r.index());
        let mul = match *instr {
            Instruction::VMulMod { vs, vt, .. } => Some([ix(vs), ix(vt)]),
            Instruction::Bfly { vt, vt1, .. } => Some([ix(vt), ix(vt1)]),
            _ => None,
        };
        DomainUses {
            mul,
            defs: instr.dst_vregs().map(|r| r.map(ix)),
        }
    }
}

/// How many instructions in `uses[start + 1..]` use register `r` as a
/// multiplicative source before its next redefinition; each one is
/// cheaper if `r` has a cached Montgomery copy.
fn future_mul_uses(uses: &[DomainUses], start: usize, r: usize) -> usize {
    let mut count = 0;
    for u in &uses[start + 1..] {
        count += usize::from(u.mul.is_some_and(|m| m.contains(&r)));
        if u.defs.contains(&Some(r)) {
            break;
        }
    }
    count
}

/// Computes the static domain plan: one [`PromoteHint`] per instruction.
///
/// A source is promoted at a multiply only when at least two further
/// multiplicative uses follow before its redefinition. Building the
/// copy costs one Montgomery multiply per lane (~7.5 ns) and each use
/// saves about a third of one (a butterfly reads ~9.7 ns per lane
/// shadowed against ~12.3 plain), so a copy pays from about three
/// uses — the promoting multiply plus the two the threshold asks for
/// (a bare `vmulmod` saves less and needs about five). Every hint
/// in a generated kernel has at least four (`docs/arith-engines.md`),
/// and moving the threshold re-pins the golden hint counts. A
/// multiply needs only one cached side, so an instruction
/// with a cached source gets no hint, and one without promotes at most
/// its more reused source.
fn domain_plan(program: &Program) -> Vec<PromoteHint> {
    const SLOTS: [PromoteHint; 2] = [PromoteHint::First, PromoteHint::Second];
    let uses: Vec<DomainUses> = program.instructions().iter().map(DomainUses::of).collect();
    let mut plan = vec![PromoteHint::None; uses.len()];
    // Static view of which registers hold a cached Montgomery copy.
    let mut cached = [false; NUM_VREGS];
    for (i, u) in uses.iter().enumerate() {
        if let Some(mul) = u.mul.filter(|m| !m.iter().any(|&r| cached[r])) {
            let mut best: Option<(usize, usize, PromoteHint)> = None; // (later uses, reg, hint)
            for (r, hint) in mul.into_iter().zip(SLOTS) {
                let count = future_mul_uses(&uses, i, r);
                if count > best.map_or(1, |b| b.0) {
                    best = Some((count, r, hint));
                }
            }
            if let Some((_, r, hint)) = best {
                plan[i] = hint;
                cached[r] = true;
            }
        }
        for reg in u.defs.into_iter().flatten() {
            cached[reg] = false;
        }
    }
    plan
}

/// A [`Program`] together with its static domain plan, built once at
/// compile time and reusable across any number of executions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredecodedProgram {
    program: Program,
    domain: Vec<PromoteHint>,
}

impl PredecodedProgram {
    /// Analyses a program, taking ownership of it.
    pub fn new(program: Program) -> Self {
        let domain = domain_plan(&program);
        PredecodedProgram { program, domain }
    }

    /// The source program (unchanged by the analysis).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The static domain plan: one advisory [`PromoteHint`] per
    /// instruction.
    pub fn domain_plan(&self) -> &[PromoteHint] {
        &self.domain
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
    use crate::regs::{AReg, MReg};
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

    fn vload(vd: u8) -> Instruction {
        Instruction::VLoad {
            vd: VReg::at(vd),
            base: AReg::at(0),
            offset: 0,
            mode: AddrMode::Unit,
        }
    }

    fn vmul(vd: u8, vs: u8, vt: u8) -> Instruction {
        Instruction::VMulMod {
            vd: VReg::at(vd),
            vs: VReg::at(vs),
            vt: VReg::at(vt),
            rm: MReg::at(0),
        }
    }

    fn plan_of(instrs: Vec<Instruction>) -> Vec<PromoteHint> {
        PredecodedProgram::new(instrs.into_iter().collect::<Program>())
            .domain_plan()
            .to_vec()
    }

    #[test]
    fn fanout_multiplies_promote_the_shared_source_once() {
        // v1 feeds four multiplies and is then stored: caching it at the
        // first multiply saves three reductions for one conversion (the
        // store reads the register itself, which is never disturbed).
        let mut instrs = vec![vload(1), vload(2)];
        for vd in 3..7 {
            instrs.push(vmul(vd, 1, 2));
        }
        instrs.push(Instruction::VStore {
            vs: VReg::at(1),
            base: AReg::at(0),
            offset: 0,
            mode: AddrMode::Unit,
        });
        let plan = plan_of(instrs);
        assert_eq!(plan[2], PromoteHint::First, "promote v1 at first multiply");
        assert_eq!(&plan[3..], &[PromoteHint::None; 4], "promote only once");
    }

    #[test]
    fn left_fold_chains_are_never_promoted() {
        // x = a·b; y = x·c; z = y·d — every intermediate is used exactly
        // once as a multiply source, so no promotion ever pays.
        let instrs = vec![
            vload(1),
            vload(2),
            vload(3),
            vload(4),
            vmul(5, 1, 2),
            vmul(6, 5, 3),
            vmul(7, 6, 4),
        ];
        assert!(plan_of(instrs).iter().all(|h| *h == PromoteHint::None));
    }

    #[test]
    fn butterfly_promotes_a_reused_multiplicative_source() {
        // Four butterflies sharing the same multiplicand/twiddle pair:
        // one promotion at the first butterfly covers all four.
        let mut instrs = vec![vload(1), vload(2), vload(3)];
        for i in 0..4u8 {
            instrs.push(Instruction::Bfly {
                vd: VReg::at(10 + 2 * i),
                vd1: VReg::at(11 + 2 * i),
                vs: VReg::at(1),
                vt: VReg::at(2),
                vt1: VReg::at(3),
                rm: MReg::at(0),
            });
        }
        let plan = plan_of(instrs);
        assert_eq!(plan[3], PromoteHint::First);
        assert_eq!(&plan[4..], &[PromoteHint::None; 3]);
    }

    #[test]
    fn redefinition_ends_the_profitability_window() {
        // v1 and v2 each have two future multiply uses but are reloaded
        // between them: only the use before the reload counts, so no
        // promotion. (Both are reloaded because a copy costs nothing to
        // drop: a source that merely survives to the end of the program
        // with two later uses *is* worth caching.)
        let instrs = vec![
            vload(1),
            vload(2),
            vmul(3, 1, 2),
            vmul(4, 1, 2),
            vload(1),
            vload(2),
            vmul(5, 1, 2),
        ];
        assert!(plan_of(instrs).iter().all(|h| *h == PromoteHint::None));
    }
}
