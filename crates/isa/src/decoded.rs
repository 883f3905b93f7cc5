//! A [`Program`] prepared for repeated execution: the program plus its
//! static Montgomery domain plan.
//!
//! A compiled kernel never changes after `compile()`, so whatever can be
//! derived from the instruction sequence alone is derived once, here,
//! and reused by every dispatch. Today that is the domain plan: one
//! advisory [`PromoteHint`] per instruction telling a Montgomery
//! executor which multiplicative source is worth converting to resident
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
/// should convert to Montgomery residence when it reaches it.
///
/// Hints are *advisory*. They never change semantics: an executor that
/// ignores them (or one whose runtime check — all lanes canonical, odd
/// modulus — fails) computes the same results through the normal-domain
/// path. They exist so a Montgomery executor promotes exactly the
/// registers whose remaining static multiply uses pay for the
/// conversion, instead of thrashing the domain on every multiply.
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
    /// take resident — in [`PromoteHint`] slot order.
    mul: [Option<usize>; 2],
    /// Registers read in *normal* form: uses that force a resident
    /// register to be flushed back first.
    normal: [Option<usize>; 3],
    /// Registers (re)defined, ending any residence.
    defs: [Option<usize>; 2],
    /// `true` for `vmulmod`, whose product of two resident sources is
    /// itself resident.
    product: bool,
}

impl DomainUses {
    fn of(instr: &Instruction) -> Self {
        let ix = |r: VReg| usize::from(r.index());
        let srcs = instr.src_vregs().map(|r| r.map(ix));
        let (mul, normal, product) = match *instr {
            Instruction::VMulMod { .. } => ([srcs[0], srcs[1]], [None; 3], true),
            // The addend is consumed in normal form.
            Instruction::Bfly { .. } => ([srcs[1], srcs[2]], [srcs[0], None, None], false),
            // A mixed-domain multiply consumes its vector source
            // resident at no cost: neither promotable nor a flush.
            Instruction::VSMulMod { .. } => ([None; 2], [None; 3], false),
            // Everything else reads its vector sources in normal form.
            _ => ([None; 2], srcs, false),
        };
        DomainUses {
            mul,
            normal,
            defs: instr.dst_vregs().map(|r| r.map(ix)),
            product,
        }
    }
}

/// Profiles register `r` forward from `uses[start + 1..]` until its next
/// redefinition: how many later instructions use it as a multiplicative
/// source (each saves one Montgomery reduction if `r` is resident), and
/// whether the residence would have to be flushed (a normal-form use,
/// or survival to the end of the program) rather than dying with a
/// redefinition.
fn future_mul_profile(uses: &[DomainUses], start: usize, r: usize) -> (usize, bool) {
    let mut count = 0usize;
    for u in &uses[start + 1..] {
        if u.mul.contains(&Some(r)) {
            count += 1;
        }
        if u.normal.contains(&Some(r)) {
            return (count, true);
        }
        if u.defs.contains(&Some(r)) {
            return (count, false);
        }
    }
    (count, true) // still resident at program end: flushed by the epilogue
}

/// Computes the static domain plan: one [`PromoteHint`] per instruction.
///
/// A source is promoted at a multiply only when the conversion pays for
/// itself — promotion costs one extra reduction now and (when the value
/// is later needed in normal form) one flush, while every further
/// multiplicative use before redefinition saves one reduction. At most
/// one side of an instruction is ever promoted: a mixed-domain
/// Montgomery multiply already folds two reductions into one, so
/// promoting the second side buys nothing there.
fn domain_plan(program: &Program) -> Vec<PromoteHint> {
    let uses: Vec<DomainUses> = program.instructions().iter().map(DomainUses::of).collect();
    let mut plan = vec![PromoteHint::None; uses.len()];
    // Optimistic static view of which registers are Montgomery-resident.
    let mut resident = [false; NUM_VREGS];
    for (i, u) in uses.iter().enumerate() {
        for reg in u.normal.into_iter().flatten() {
            resident[reg] = false; // executor flushes before the instruction
        }
        let mut best: Option<(usize, usize)> = None; // (slot, net saving)
        for (slot, r) in u.mul.iter().enumerate() {
            let Some(r) = *r else { continue };
            if resident[r] {
                continue;
            }
            let (count, flushed) = future_mul_profile(&uses, i, r);
            let cost = 1 + usize::from(flushed);
            if count > cost && best.is_none_or(|(_, saving)| count - cost > saving) {
                best = Some((slot, count - cost));
            }
        }
        if let Some((slot, _)) = best {
            plan[i] = [PromoteHint::First, PromoteHint::Second][slot];
            resident[u.mul[slot].expect("chosen slot is a source")] = true;
        }
        // A `vmulmod` of two resident sources yields a resident product;
        // every other definition lands normal-form.
        let product_resident = u.product && u.mul.iter().all(|r| r.is_some_and(|r| resident[r]));
        for (di, reg) in u.defs.into_iter().enumerate() {
            if let Some(reg) = reg {
                resident[reg] = product_resident && di == 0;
            }
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
        // v1 feeds four multiplies and is then stored: promoting it at
        // the first multiply saves three reductions for one promote and
        // one flush.
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
        // v1 has two future multiply uses but is reloaded between them:
        // only the use before the reload counts, so no promotion.
        let instrs = vec![
            vload(1),
            vload(2),
            vmul(3, 1, 2),
            vmul(4, 1, 2),
            vload(1),
            vmul(5, 1, 2),
        ];
        assert!(plan_of(instrs).iter().all(|h| *h == PromoteHint::None));
    }
}
