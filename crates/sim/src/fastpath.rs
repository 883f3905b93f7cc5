//! Fast-path executor over the same architectural state as the
//! reference interpreter.
//!
//! [`FunctionalSim::run`] bounds-checks every lane of every access and
//! dispatches arithmetic per element. This module executes a
//! [`PredecodedProgram`] instead: one match per [`Instruction`], one
//! hoisted bounds check per vector access (against the addressing
//! mode's [`span`](AddrMode::span)), and mod-arith inner loops over
//! whole vectors with no per-element dispatch — written once over the
//! [`Lane`] word the state is stored in, so a session whose values all
//! fit 64 bits moves and computes on 8-byte lanes.
//!
//! Two arithmetic tiers service the compute instructions, selected per
//! modulus through the shared [`Engine`] cache:
//!
//! * **Native u64** (`q < 2^63`): lanes are reduced to canonical `u64`
//!   and multiplied with one widening multiply plus a Barrett (or, for
//!   vector-scalar, Shoup) reduction. On 64-bit lanes this tier does no
//!   `u128` work beyond that multiply.
//! * **Montgomery 128** (everything else): the [`Modulus128`] path —
//!   one Barrett pass per product, the multiply the interpreter uses —
//!   extended with a *Montgomery shadow cache*: a register the
//!   program's static [`PromoteHint`] plan marks as a reused
//!   multiplicative source gets a run-local copy of its lanes in
//!   Montgomery form ([`Shadows`]), and multiplies that read the copy
//!   take one Montgomery reduction per lane — the same eleven word
//!   multiplies as the Barrett pass without its shifts, which
//!   `docs/arith-engines.md` prices on the 64K NTT. The register itself
//!   always holds its architectural lanes; writing it drops the copy.
//!   On 64-bit lanes (`q` in `[2^63, 2^64)`) each lane is widened going
//!   in and narrowed coming out.
//!
//! **Exactness contract:** the fast path is observationally identical to
//! the interpreter — same results, same [`ExecError`]s, same partial
//! architectural state after a fault. Two design rules make that cheap
//! to maintain:
//!
//! 1. Effective addresses are recomputed from `ARF[base] + offset` at
//!    every execution of every instruction — never cached — so `aload`
//!    indirection and VDM/SDM growth between dispatches
//!    ([`FunctionalSim::ensure_vdm`]) are handled by construction.
//! 2. Any instruction the fast path cannot prove safe (a failed span
//!    check, a gather with a hostile index, an invalid modulus) is
//!    re-executed through the interpreter's own `step`, which raises the
//!    exact error and leaves the exact partial state the oracle would.
//!
//! Nothing the fast path keeps for itself is architectural state, so
//! the fallback in rule 2 needs no preparation and a fault no repair.
//!
//! [`PromoteHint`]: rpu_isa::PromoteHint
//! [`FunctionalSim::run`]: crate::FunctionalSim::run
//! [`FunctionalSim::ensure_vdm`]: crate::FunctionalSim::ensure_vdm
//! [`ExecError`]: crate::ExecError

use crate::func::{shuffle_into, Engines, ExecError, Lane, ShuffleKind, Store};
use rpu_arith::{Engine, Modulus128};
use rpu_isa::consts::{NUM_VREGS, VECTOR_LEN};
use rpu_isa::{AReg, AddrMode, Instruction, MReg, PredecodedProgram, PromoteHint, VReg};

#[inline]
fn ix(r: VReg) -> usize {
    usize::from(r.index())
}

/// Lane-wise vector-vector loop: `f`'s results (values that fit the
/// lane word) are written into `scratch`, then the destination is
/// replaced by pointer swap — alias-safe (`vd` may equal `vs`/`vt`) with
/// no per-lane bounds checks and no copies.
#[inline]
fn vv_into<W: Lane>(
    vrf: &mut [Vec<W>],
    scratch: &mut Vec<W>,
    vd: VReg,
    vs: VReg,
    vt: VReg,
    f: impl Fn(W, W) -> u128,
) {
    {
        let a = &vrf[ix(vs)];
        let b = &vrf[ix(vt)];
        for ((o, &x), &y) in scratch.iter_mut().zip(a).zip(b) {
            *o = W::narrow(f(x, y));
        }
    }
    std::mem::swap(&mut vrf[ix(vd)], scratch);
}

/// Lane-wise vector-scalar loop (same swap discipline as [`vv_into`]).
#[inline]
fn vs_into<W: Lane>(
    vrf: &mut [Vec<W>],
    scratch: &mut Vec<W>,
    vd: VReg,
    vs: VReg,
    f: impl Fn(W) -> u128,
) {
    {
        let a = &vrf[ix(vs)];
        for (o, &x) in scratch.iter_mut().zip(a) {
            *o = W::narrow(f(x));
        }
    }
    std::mem::swap(&mut vrf[ix(vd)], scratch);
}

/// The Montgomery-tier butterfly, lane by lane: `sum = a + x·y` and
/// `diff = a - x·y`, with `mul` supplying the canonical product (`x` is
/// a register's lanes or its Montgomery shadow).
#[inline]
fn bfly_into<W: Lane, X: Copy>(
    m: Modulus128,
    (a, x, y): (&[W], &[X], &[W]),
    (sum, diff): (&mut [W], &mut [W]),
    mul: impl Fn(X, W) -> u128,
) {
    let outs = sum.iter_mut().zip(diff.iter_mut());
    for (((s, d), &a), (&x, &y)) in outs.zip(a).zip(x.iter().zip(y)) {
        let (a, prod) = (m.reduce(a.widen()), mul(x, y));
        *s = W::narrow(m.add(a, prod));
        *d = W::narrow(m.sub(a, prod));
    }
}

/// Run-local Montgomery copies of vector registers: for a shadowed
/// register `r`, `lanes[r][i] = to_mont(reduce(vrf[r][i]))` under the
/// modulus recorded in `q[r]` — always `u128`, whatever width the
/// registers are stored in. The registers themselves are never touched,
/// so the only duty is to [`forget`](Shadows::forget) the copy whenever
/// its register is written.
#[derive(Debug, Clone)]
pub(crate) struct Shadows {
    q: [Option<u128>; NUM_VREGS],
    lanes: [Vec<u128>; NUM_VREGS],
}

impl Default for Shadows {
    fn default() -> Self {
        Shadows {
            q: [None; NUM_VREGS],
            lanes: std::array::from_fn(|_| Vec::new()),
        }
    }
}

impl Shadows {
    /// Forgets the copy of `r`, which is about to be (or was just)
    /// overwritten.
    #[inline]
    fn forget(&mut self, r: VReg) {
        self.q[ix(r)] = None;
    }

    /// For a multiply of `sources` under the odd modulus `m`: the
    /// Montgomery copy of one source and the register holding the other
    /// factor, or `None` when neither source has a copy. The source the
    /// static plan hints at is copied first.
    fn factor<W: Lane>(
        &mut self,
        vrf: &[Vec<W>],
        sources: [VReg; 2],
        m: Modulus128,
        hint: PromoteHint,
    ) -> Option<(&[u128], VReg)> {
        if !m.is_odd() {
            return None; // no Montgomery form
        }
        let q = Some(m.value());
        let hinted = match hint {
            PromoteHint::None => None,
            PromoteHint::First => Some(ix(sources[0])),
            PromoteHint::Second => Some(ix(sources[1])),
        };
        if let Some(r) = hinted.filter(|&r| self.q[r] != q) {
            self.lanes[r].clear();
            self.lanes[r].extend(vrf[r].iter().map(|x| m.to_mont(m.reduce(x.widen()))));
            self.q[r] = q;
        }
        let slot = sources.iter().position(|&r| self.q[ix(r)] == q)?;
        Some((&self.lanes[ix(sources[slot])], sources[1 - slot]))
    }
}

impl<W: Lane> Store<W> {
    /// The body of [`FunctionalSim::run_predecoded`] in one lane width.
    ///
    /// [`FunctionalSim::run_predecoded`]: crate::FunctionalSim::run_predecoded
    pub(crate) fn run_predecoded(
        &mut self,
        program: &PredecodedProgram,
        engines: &mut Engines,
        shadows: &mut Shadows,
    ) -> Result<(), ExecError> {
        // Shadows are run-local: since the last run the registers may
        // have been rewritten by the interpreter or re-stored wider.
        shadows.q.fill(None);
        let plan = program.domain_plan();
        for (pc, instr) in program.program().instructions().iter().enumerate() {
            if !self.fast_op(instr, plan[pc], engines, shadows) {
                // Slow path: re-run the instruction through the
                // interpreter for oracle-exact errors and partial state.
                self.step(instr, pc, engines)?;
                for vd in instr.dst_vregs().into_iter().flatten() {
                    shadows.forget(vd);
                }
            }
        }
        Ok(())
    }

    /// The engine for the modulus in `MRF[rm]`, from the cache the
    /// interpreter shares. `None` (invalid modulus) sends the caller to
    /// the interpreter fallback for the exact error.
    #[inline]
    fn fast_modulus(&self, rm: MReg, engines: &mut Engines) -> Option<Engine> {
        engines.get(self.mrf[usize::from(rm.index())].widen())
    }

    /// Effective VDM window of a static-mode access, if provably in
    /// bounds: `Some(start)` means every lane of the access lands in
    /// `vdm[start .. start + span]`.
    #[inline]
    fn vdm_window(&self, base: AReg, offset: u32, span: usize) -> Option<usize> {
        let start = self.effective(base, offset)?;
        let end = start.checked_add(span)?;
        (end <= self.vdm.len()).then_some(start)
    }

    /// Effective SDM address of a scalar load, if in bounds.
    #[inline]
    fn sdm_window(&self, base: AReg, offset: u32) -> Option<usize> {
        let addr = self.effective(base, offset)?;
        (addr < self.sdm.len()).then_some(addr)
    }

    /// `ARF[base] + offset`, unless it overflows.
    #[inline]
    fn effective(&self, base: AReg, offset: u32) -> Option<usize> {
        (self.arf[usize::from(base.index())] as usize).checked_add(offset as usize)
    }

    /// Executes one instruction on the fast path. Returns `false` if it
    /// must be replayed through the interpreter (possible fault or
    /// unsupported corner) — in that case no architectural state has
    /// been mutated.
    #[inline]
    fn fast_op(
        &mut self,
        instr: &Instruction,
        hint: PromoteHint,
        engines: &mut Engines,
        shadows: &mut Shadows,
    ) -> bool {
        use Instruction::*;
        match *instr {
            VLoad {
                vd,
                base,
                offset,
                mode,
            } => {
                let Some(start) = self.vdm_window(base, offset, mode.span()) else {
                    return false;
                };
                shadows.forget(vd);
                let dst = &mut self.vrf[ix(vd)];
                let vdm = &self.vdm;
                match mode {
                    AddrMode::Unit => dst.copy_from_slice(&vdm[start..start + VECTOR_LEN]),
                    AddrMode::Strided { log2_stride } => {
                        let stride = 1usize << log2_stride;
                        for (o, v) in dst.iter_mut().zip(vdm[start..].iter().step_by(stride)) {
                            *o = *v;
                        }
                    }
                    AddrMode::StridedSkip { log2_block } => {
                        let block = (1usize << log2_block).min(VECTOR_LEN);
                        for (c, chunk) in dst.chunks_exact_mut(block).enumerate() {
                            let s0 = start + c * 2 * block;
                            chunk.copy_from_slice(&vdm[s0..s0 + block]);
                        }
                    }
                    AddrMode::Repeated { log2_block } => {
                        let block = (1usize << log2_block).min(VECTOR_LEN);
                        let src = &vdm[start..start + block];
                        for chunk in dst.chunks_exact_mut(block) {
                            chunk.copy_from_slice(src);
                        }
                    }
                }
                true
            }
            VStore {
                vs,
                base,
                offset,
                mode,
            } => {
                let Some(start) = self.vdm_window(base, offset, mode.span()) else {
                    return false;
                };
                let src = &self.vrf[ix(vs)];
                let vdm = &mut self.vdm;
                match mode {
                    AddrMode::Unit => vdm[start..start + VECTOR_LEN].copy_from_slice(src),
                    AddrMode::Strided { log2_stride } => {
                        let stride = 1usize << log2_stride;
                        for (v, &x) in vdm[start..].iter_mut().step_by(stride).zip(src) {
                            *v = x;
                        }
                    }
                    AddrMode::StridedSkip { log2_block } => {
                        let block = (1usize << log2_block).min(VECTOR_LEN);
                        for (c, chunk) in src.chunks_exact(block).enumerate() {
                            let s0 = start + c * 2 * block;
                            vdm[s0..s0 + block].copy_from_slice(chunk);
                        }
                    }
                    AddrMode::Repeated { log2_block } => {
                        let block = (1usize << log2_block).min(VECTOR_LEN);
                        // The interpreter writes lanes in order, so lane
                        // i lands on offset i % block and the *last*
                        // writer of each offset wins: the top `block`
                        // lanes.
                        vdm[start..start + block].copy_from_slice(&src[VECTOR_LEN - block..]);
                    }
                }
                true
            }
            VGather {
                vd,
                base,
                offset,
                vi,
            } => {
                if vd == vi {
                    // The interpreter reads indices lane by lane while
                    // writing the destination, so a self-referential
                    // gather sees its own partial output. Rare and
                    // weird: let the oracle handle it.
                    return false;
                }
                let Some(start) = self.effective(base, offset) else {
                    return false;
                };
                let len = self.vdm.len();
                // Prove every lane in bounds first; any hostile index
                // goes back to the interpreter, which reports the fault
                // after committing exactly the preceding lanes.
                for idx in self.vrf[ix(vi)].iter() {
                    let idx = usize::try_from(idx.widen()).ok();
                    match idx.and_then(|i| start.checked_add(i)) {
                        Some(addr) if addr < len => {}
                        _ => return false,
                    }
                }
                let scratch = &mut self.scratch[0];
                for (o, idx) in scratch.iter_mut().zip(&self.vrf[ix(vi)]) {
                    *o = self.vdm[start + idx.widen() as usize];
                }
                std::mem::swap(&mut self.vrf[ix(vd)], scratch);
                shadows.forget(vd);
                true
            }
            VBroadcast { vd, base, offset } => {
                let Some(start) = self.vdm_window(base, offset, 1) else {
                    return false;
                };
                let value = self.vdm[start];
                self.vrf[ix(vd)].fill(value);
                shadows.forget(vd);
                true
            }
            SLoad { rt, base, offset } => {
                let Some(addr) = self.sdm_window(base, offset) else {
                    return false;
                };
                self.srf[usize::from(rt.index())] = self.sdm[addr];
                true
            }
            MLoad { rt, base, offset } => {
                let Some(addr) = self.sdm_window(base, offset) else {
                    return false;
                };
                self.mrf[usize::from(rt.index())] = self.sdm[addr];
                true
            }
            ALoad { rt, base, offset } => {
                let Some(addr) = self.sdm_window(base, offset) else {
                    return false;
                };
                self.arf[usize::from(rt.index())] = self.sdm[addr].widen() as u64;
                true
            }
            VAddMod { vd, vs, vt, rm } | VSubMod { vd, vs, vt, rm } => {
                let Some(e) = self.fast_modulus(rm, engines) else {
                    return false;
                };
                let (vrf, scratch) = (&mut self.vrf, &mut self.scratch[0]);
                match (e, matches!(instr, VSubMod { .. })) {
                    (Engine::Native64(m), false) => vv_into(vrf, scratch, vd, vs, vt, |a, b| {
                        m.add(a.canon(m), b.canon(m)).into()
                    }),
                    (Engine::Native64(m), true) => vv_into(vrf, scratch, vd, vs, vt, |a, b| {
                        m.sub(a.canon(m), b.canon(m)).into()
                    }),
                    (Engine::Mont128(m), false) => vv_into(vrf, scratch, vd, vs, vt, |a, b| {
                        m.add(m.reduce(a.widen()), m.reduce(b.widen()))
                    }),
                    (Engine::Mont128(m), true) => vv_into(vrf, scratch, vd, vs, vt, |a, b| {
                        m.sub(m.reduce(a.widen()), m.reduce(b.widen()))
                    }),
                }
                shadows.forget(vd);
                true
            }
            VMulMod { vd, vs, vt, rm } => {
                let Some(e) = self.fast_modulus(rm, engines) else {
                    return false;
                };
                let (vrf, scratch) = (&mut self.vrf, &mut self.scratch[0]);
                match e {
                    Engine::Native64(m) => vv_into(vrf, scratch, vd, vs, vt, |a, b| {
                        m.mul(a.canon(m), b.canon(m)).into()
                    }),
                    Engine::Mont128(m) => match shadows.factor(vrf, [vs, vt], m, hint) {
                        // One Montgomery reduction lands the product
                        // directly in normal form (aR · b · R^{-1} = ab).
                        Some((mont, other)) => {
                            for ((o, &a), b) in scratch.iter_mut().zip(mont).zip(&vrf[ix(other)]) {
                                *o = W::narrow(m.mont_mul_raw(a, m.reduce(b.widen())));
                            }
                            std::mem::swap(&mut vrf[ix(vd)], scratch);
                        }
                        // The oracle's multiply.
                        None => vv_into(vrf, scratch, vd, vs, vt, |a, b| {
                            m.mul(m.reduce(a.widen()), m.reduce(b.widen()))
                        }),
                    },
                }
                shadows.forget(vd);
                true
            }
            VSAddMod { vd, vs, rt, rm } | VSSubMod { vd, vs, rt, rm } => {
                let Some(e) = self.fast_modulus(rm, engines) else {
                    return false;
                };
                let s = self.srf[usize::from(rt.index())];
                let (vrf, scratch) = (&mut self.vrf, &mut self.scratch[0]);
                let sub = matches!(instr, VSSubMod { .. });
                match e {
                    Engine::Native64(m) => {
                        let s = s.canon(m);
                        if sub {
                            vs_into(vrf, scratch, vd, vs, |a| m.sub(a.canon(m), s).into());
                        } else {
                            vs_into(vrf, scratch, vd, vs, |a| m.add(a.canon(m), s).into());
                        }
                    }
                    Engine::Mont128(m) => {
                        let s = m.reduce(s.widen());
                        if sub {
                            vs_into(vrf, scratch, vd, vs, |a| m.sub(m.reduce(a.widen()), s));
                        } else {
                            vs_into(vrf, scratch, vd, vs, |a| m.add(m.reduce(a.widen()), s));
                        }
                    }
                }
                shadows.forget(vd);
                true
            }
            VSMulMod { vd, vs, rt, rm } => {
                let Some(e) = self.fast_modulus(rm, engines) else {
                    return false;
                };
                let s = self.srf[usize::from(rt.index())];
                let (vrf, scratch) = (&mut self.vrf, &mut self.scratch[0]);
                match e {
                    Engine::Native64(m) => {
                        // Shoup: precompute the scalar's quotient once,
                        // then one widening multiply per lane.
                        let s = s.canon(m);
                        let s_shoup = m.shoup(s);
                        vs_into(vrf, scratch, vd, vs, |a| {
                            m.mul_shoup(a.canon(m), s, s_shoup).into()
                        });
                    }
                    Engine::Mont128(m) => {
                        let s = m.reduce(s.widen());
                        vs_into(vrf, scratch, vd, vs, |a| m.mul(m.reduce(a.widen()), s));
                    }
                }
                shadows.forget(vd);
                true
            }
            Bfly {
                vd,
                vd1,
                vs,
                vt,
                vt1,
                rm,
            } => {
                let Some(e) = self.fast_modulus(rm, engines) else {
                    return false;
                };
                let [scratch, scratch2] = &mut self.scratch;
                let a = &self.vrf[ix(vs)];
                match e {
                    Engine::Native64(m) => {
                        let (b, t) = (&self.vrf[ix(vt)], &self.vrf[ix(vt1)]);
                        for i in 0..VECTOR_LEN {
                            let prod = m.mul(b[i].canon(m), t[i].canon(m));
                            let ai = a[i].canon(m);
                            scratch[i] = W::narrow(m.add(ai, prod).into());
                            scratch2[i] = W::narrow(m.sub(ai, prod).into());
                        }
                    }
                    Engine::Mont128(m) => {
                        let outs = (&mut scratch[..], &mut scratch2[..]);
                        match shadows.factor(&self.vrf, [vt, vt1], m, hint) {
                            // A shadowed side multiplies through
                            // Montgomery.
                            Some((mont, other)) => {
                                let ins = (&a[..], mont, &self.vrf[ix(other)][..]);
                                bfly_into(m, ins, outs, |x, y| {
                                    m.mont_mul_raw(x, m.reduce(y.widen()))
                                });
                            }
                            None => {
                                let ins = (&a[..], &self.vrf[ix(vt)][..], &self.vrf[ix(vt1)][..]);
                                bfly_into(m, ins, outs, |x, y| {
                                    m.mul(m.reduce(x.widen()), m.reduce(y.widen()))
                                });
                            }
                        }
                    }
                }
                // Swap the sum first, the difference second: if vd == vd1
                // the difference wins, matching the interpreter's
                // per-lane write order.
                std::mem::swap(&mut self.vrf[ix(vd)], scratch);
                std::mem::swap(&mut self.vrf[ix(vd1)], scratch2);
                shadows.forget(vd);
                shadows.forget(vd1);
                true
            }
            UnpkLo { vd, vs, vt } => self.fast_shuffle(shadows, vd, vs, vt, ShuffleKind::UnpkLo),
            UnpkHi { vd, vs, vt } => self.fast_shuffle(shadows, vd, vs, vt, ShuffleKind::UnpkHi),
            PkLo { vd, vs, vt } => self.fast_shuffle(shadows, vd, vs, vt, ShuffleKind::PkLo),
            PkHi { vd, vs, vt } => self.fast_shuffle(shadows, vd, vs, vt, ShuffleKind::PkHi),
        }
    }

    fn fast_shuffle(
        &mut self,
        shadows: &mut Shadows,
        vd: VReg,
        vs: VReg,
        vt: VReg,
        kind: ShuffleKind,
    ) -> bool {
        let scratch = &mut self.scratch[0];
        shuffle_into(&self.vrf[ix(vs)], &self.vrf[ix(vt)], kind, scratch);
        std::mem::swap(&mut self.vrf[ix(vd)], scratch);
        shadows.forget(vd);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FunctionalSim;
    use rpu_isa::{parse_asm, Program, SReg};

    const Q: u128 = 0xFFFF_FFFF_0000_0001;
    /// 60-bit NTT prime (2^60 - 2^14 + 1): exercises the native-u64 tier.
    const Q60: u128 = 1152921504606830593;

    fn predecoded(asm: &str) -> PredecodedProgram {
        PredecodedProgram::new(parse_asm("t", asm).unwrap())
    }

    fn seeded_pair_mod(q: u128, vdm: usize, sdm: usize) -> (FunctionalSim, FunctionalSim) {
        let mut sim = FunctionalSim::new(vdm, sdm);
        sim.set_mrf(MReg::at(0), q);
        let data: Vec<u128> = (0..vdm as u128).map(|i| (i * 0x9E37 + 7) % q).collect();
        sim.write_vdm(0, &data).unwrap();
        let scalars: Vec<u128> = (0..sdm as u128).map(|i| (i * 13 + 97) % 1000).collect();
        sim.write_sdm(0, &scalars).unwrap();
        (sim.clone(), sim)
    }

    fn seeded_pair(vdm: usize, sdm: usize) -> (FunctionalSim, FunctionalSim) {
        seeded_pair_mod(Q, vdm, sdm)
    }

    /// Runs `asm` through both engines and asserts identical outcomes
    /// and identical full architectural state.
    fn assert_differential_mod(q: u128, asm: &str, vdm: usize, sdm: usize) {
        let (mut interp, mut fast) = seeded_pair_mod(q, vdm, sdm);
        let program = predecoded(asm);
        let a = interp.run(program.program());
        let b = fast.run_predecoded(&program);
        assert_eq!(a, b, "outcomes must match for {asm:?} (q={q})");
        assert_state_eq(&interp, &fast, asm);
    }

    fn assert_differential(asm: &str, vdm: usize, sdm: usize) {
        assert_differential_mod(Q, asm, vdm, sdm);
        assert_differential_mod(Q60, asm, vdm, sdm);
    }

    fn assert_state_eq(interp: &FunctionalSim, fast: &FunctionalSim, label: &str) {
        let vdm = |s: &FunctionalSim| s.read_vdm(0, s.vdm_capacity()).unwrap();
        let sdm = |s: &FunctionalSim| s.read_sdm(0, s.sdm_capacity()).unwrap();
        let regs = |s: &FunctionalSim| {
            let each = |f: &dyn Fn(u8) -> u128| (0..64).map(f).collect::<Vec<_>>();
            (
                (0..64).map(|r| s.vreg(VReg::at(r))).collect::<Vec<_>>(),
                each(&|r| s.sreg(SReg::at(r))),
                each(&|r| s.areg(AReg::at(r)).into()),
                each(&|r| s.mreg(MReg::at(r))),
            )
        };
        assert_eq!(vdm(interp), vdm(fast), "VDM diverged: {label}");
        assert_eq!(sdm(interp), sdm(fast), "SDM diverged: {label}");
        let ((iv, is, ia, im), (fv, fs, fa, fm)) = (regs(interp), regs(fast));
        assert_eq!(iv, fv, "VRF diverged: {label}");
        assert_eq!(is, fs, "SRF diverged: {label}");
        assert_eq!(ia, fa, "ARF diverged: {label}");
        assert_eq!(im, fm, "MRF diverged: {label}");
    }

    #[test]
    fn every_addressing_mode_round_trips() {
        for mode in [
            "unit", "stride:2", "stride:8", "skip:4", "skip:256", "rep:8",
        ] {
            assert_differential(
                &format!(
                    "vload v1, [a0 + 3], {mode}\n\
                     vstore v1, [a0 + 8192], {mode}\n"
                ),
                1 << 15,
                16,
            );
        }
    }

    #[test]
    fn compute_and_shuffle_ops_match() {
        assert_differential(
            "vload v0, [a0 + 0], unit\n\
             vload v1, [a0 + 512], unit\n\
             vaddmod v2, v0, v1, m0\n\
             vsubmod v3, v0, v1, m0\n\
             vmulmod v4, v0, v1, m0\n\
             bfly v5, v6, v0, v1, v4, m0\n\
             sload s1, [a0 + 2]\n\
             vsaddmod v7, v0, s1, m0\n\
             vssubmod v8, v0, s1, m0\n\
             vsmulmod v9, v0, s1, m0\n\
             unpklo v10, v0, v1\n\
             unpkhi v11, v0, v1\n\
             pklo v12, v10, v11\n\
             pkhi v13, v10, v11\n\
             vstore v13, [a0 + 4096], unit\n",
            1 << 14,
            16,
        );
    }

    #[test]
    fn aliased_destinations_match_the_oracle() {
        // vd == vs, vd == vt, bfly with vd == vd1, shuffle onto a source
        assert_differential(
            "vload v0, [a0 + 0], unit\n\
             vload v1, [a0 + 512], unit\n\
             vaddmod v0, v0, v1, m0\n\
             vmulmod v1, v0, v1, m0\n\
             bfly v2, v2, v0, v1, v0, m0\n\
             unpklo v0, v0, v1\n\
             vstore v0, [a0 + 1024], unit\n",
            1 << 13,
            16,
        );
    }

    #[test]
    fn gather_broadcast_and_scalar_loads_match() {
        assert_differential(
            "vload v1, [a0 + 0], unit\n\
             vgather v2, [a0 + 100], v1\n\
             vbroadcast v3, [a0 + 5]\n\
             sload s2, [a0 + 1]\n\
             mload m2, [a0 + 3]\n\
             aload a2, [a0 + 2]\n\
             vload v4, [a2 + 0], unit\n",
            1 << 13,
            16,
        );
    }

    #[test]
    fn self_referential_gather_matches() {
        // vd == vi exercises the interpreter-fallback path
        assert_differential(
            "vload v1, [a0 + 0], unit\n\
             vgather v1, [a0 + 0], v1\n",
            1 << 13,
            16,
        );
    }

    #[test]
    fn montgomery_residency_survives_fanout_chains() {
        // v0 feeds five multiplies (the domain plan promotes it), the
        // products are stored, v0 itself is stored and reused in an add:
        // every kind of read of a shadowed register in one program, on
        // both tiers.
        assert_differential(
            "vload v0, [a0 + 0], unit\n\
             vload v1, [a0 + 512], unit\n\
             vmulmod v2, v0, v1, m0\n\
             vmulmod v3, v0, v2, m0\n\
             vmulmod v4, v0, v3, m0\n\
             vmulmod v5, v0, v4, m0\n\
             vmulmod v6, v0, v5, m0\n\
             vaddmod v7, v0, v6, m0\n\
             vsmulmod v8, v0, s1, m0\n\
             vstore v0, [a0 + 1024], unit\n\
             vstore v6, [a0 + 2048], unit\n\
             vstore v7, [a0 + 3072], unit\n",
            1 << 13,
            16,
        );
    }

    #[test]
    fn resident_product_chains_match() {
        // Both inputs are reused often enough to be shadowed, in either
        // operand order, and a product of theirs is squared.
        assert_differential(
            "vload v0, [a0 + 0], unit\n\
             vload v1, [a0 + 512], unit\n\
             vmulmod v2, v0, v1, m0\n\
             vmulmod v3, v0, v1, m0\n\
             vmulmod v4, v0, v1, m0\n\
             vmulmod v5, v1, v0, m0\n\
             vmulmod v6, v2, v2, m0\n\
             vstore v2, [a0 + 1024], unit\n\
             vstore v6, [a0 + 2048], unit\n",
            1 << 13,
            16,
        );
    }

    #[test]
    fn squaring_a_promoted_source_matches() {
        // `vmulmod v2, v0, v0` with v0 reused by three later multiplies:
        // the plan promotes v0 at the squaring, where both
        // multiplicative sources are the *same* register: the shadow
        // stands in for one side only, the register supplies the other.
        assert_differential(
            "vload v0, [a0 + 0], unit\n\
             vload v1, [a0 + 512], unit\n\
             vmulmod v2, v0, v0, m0\n\
             vmulmod v3, v0, v1, m0\n\
             vmulmod v4, v0, v1, m0\n\
             vmulmod v5, v0, v1, m0\n\
             bfly v6, v7, v1, v0, v0, m0\n\
             vstore v2, [a0 + 1024], unit\n\
             vstore v6, [a0 + 2048], unit\n",
            1 << 13,
            16,
        );
    }

    #[test]
    fn mixed_width_moduli_in_one_program_match() {
        // m0 is seeded with the test modulus; m2 is loaded from SDM slot
        // 3 (a small value, servicing the native tier). Registers cross
        // between the two moduli: a shadow taken under m0 must not serve
        // a multiply under m2.
        assert_differential(
            "mload m2, [a0 + 3]\n\
             vload v0, [a0 + 0], unit\n\
             vload v1, [a0 + 512], unit\n\
             vmulmod v2, v0, v1, m0\n\
             vmulmod v3, v0, v1, m0\n\
             vmulmod v4, v0, v1, m2\n\
             vmulmod v5, v0, v1, m0\n\
             vstore v4, [a0 + 1024], unit\n\
             vstore v5, [a0 + 2048], unit\n",
            1 << 13,
            16,
        );
    }

    #[test]
    fn unreduced_lanes_are_shadowed_through_reduce() {
        // VDM holds values far above q: the shadow holds
        // to_mont(reduce(x)), the register keeps x itself, and results
        // must still match the oracle exactly.
        let (mut interp, mut fast) = seeded_pair(1 << 13, 16);
        let huge: Vec<u128> = (0..1024u128).map(|i| u128::MAX - i * 0x1234_5678).collect();
        interp.write_vdm(0, &huge).unwrap();
        fast.write_vdm(0, &huge).unwrap();
        let program = predecoded(
            "vload v0, [a0 + 0], unit\n\
             vload v1, [a0 + 512], unit\n\
             vmulmod v2, v0, v1, m0\n\
             vmulmod v3, v0, v1, m0\n\
             vmulmod v4, v0, v1, m0\n\
             vstore v0, [a0 + 1024], unit\n\
             vstore v4, [a0 + 2048], unit\n",
        );
        interp.run(program.program()).unwrap();
        fast.run_predecoded(&program).unwrap();
        assert_state_eq(&interp, &fast, "unreduced lanes");
        // The store of v0 must write back the original unreduced values.
        assert_eq!(fast.read_vdm(1024, 512).unwrap(), huge[..512]);
    }

    #[test]
    fn writing_a_shadowed_register_drops_its_shadow() {
        // v0 is promoted at the first multiply, then redefined by every
        // kind of write the fast path has — the interpreter fallback of
        // a self-referential gather included — and multiplied again: a
        // stale shadow would supply the old lanes.
        let writes = [
            "vload v0, [a0 + 512], unit",
            "vgather v0, [a0 + 512], v11",
            "vgather v0, [a0 + 512], v0",
            "vbroadcast v0, [a0 + 700]",
            "vaddmod v0, v1, v6, m0",
            "vsubmod v0, v1, v6, m0",
            "vmulmod v0, v0, v1, m0",
            "vsaddmod v0, v1, s1, m0",
            "vssubmod v0, v1, s1, m0",
            "vsmulmod v0, v1, s1, m0",
            "bfly v0, v10, v1, v6, v8, m0",
            "bfly v10, v0, v1, v6, v8, m0",
            "unpklo v0, v1, v6",
            "unpkhi v0, v1, v6",
            "pklo v0, v1, v6",
            "pkhi v0, v1, v6",
        ];
        for write in writes {
            let (mut interp, mut fast) = seeded_pair(1 << 13, 16);
            let indices: Vec<u128> = (0..512u128).map(|i| i * 5 % 512).collect();
            interp.write_vdm(0, &indices).unwrap();
            fast.write_vdm(0, &indices).unwrap();
            let program = predecoded(&format!(
                "vload v0, [a0 + 0], unit\n\
                 vload v11, [a0 + 0], unit\n\
                 vload v1, [a0 + 1024], unit\n\
                 vload v6, [a0 + 1536], unit\n\
                 vload v8, [a0 + 2048], unit\n\
                 sload s1, [a0 + 2]\n\
                 vmulmod v2, v0, v1, m0\n\
                 vmulmod v3, v0, v6, m0\n\
                 vmulmod v4, v0, v8, m0\n\
                 {write}\n\
                 vmulmod v5, v0, v11, m0\n\
                 vstore v5, [a0 + 4096], unit\n"
            ));
            assert_eq!(program.domain_plan()[6], PromoteHint::First, "{write}");
            interp.run(program.program()).unwrap();
            fast.run_predecoded(&program).unwrap();
            assert_state_eq(&interp, &fast, write);
        }
    }

    #[test]
    fn a_shadow_serves_only_the_modulus_it_was_taken_under() {
        // m2 is a second wide odd modulus: v0's shadow under m0 must not
        // stand in for v0 in a multiply under m2.
        let (mut interp, mut fast) = seeded_pair(1 << 13, 16);
        for sim in [&mut interp, &mut fast] {
            sim.write_sdm(3, &[Q - 0x1234_5678]).unwrap();
        }
        let program = predecoded(
            "mload m2, [a0 + 3]\n\
             vload v0, [a0 + 0], unit\n\
             vload v1, [a0 + 512], unit\n\
             vmulmod v2, v0, v1, m0\n\
             vmulmod v3, v0, v1, m0\n\
             vmulmod v4, v0, v1, m2\n\
             vmulmod v5, v0, v1, m0\n\
             vstore v4, [a0 + 1024], unit\n\
             vstore v5, [a0 + 2048], unit\n",
        );
        assert_eq!(program.domain_plan()[3], PromoteHint::First);
        interp.run(program.program()).unwrap();
        fast.run_predecoded(&program).unwrap();
        assert_state_eq(&interp, &fast, "two wide moduli");
    }

    #[test]
    fn shadows_do_not_outlive_a_run() {
        // The shadow table lives in the simulator (a run allocates
        // nothing), but its contents are run-local: v0 is shadowed by
        // the first fast-path run, rewritten by an interpreter run in
        // between, and multiplied again — without being reloaded — by a
        // second fast-path run, which must see the new lanes.
        let (mut interp, mut fast) = seeded_pair(1 << 13, 16);
        let promote = predecoded(
            "vload v0, [a0 + 0], unit\n\
             vload v1, [a0 + 512], unit\n\
             vmulmod v2, v0, v1, m0\n\
             vmulmod v3, v0, v1, m0\n\
             vmulmod v4, v0, v1, m0\n",
        );
        assert_eq!(promote.domain_plan()[2], PromoteHint::First);
        let rewrite = parse_asm("t", "vload v0, [a0 + 1024], unit\n").unwrap();
        let reuse = predecoded(
            "vmulmod v5, v0, v1, m0\n\
             vstore v5, [a0 + 2048], unit\n",
        );
        interp.run(promote.program()).unwrap();
        fast.run_predecoded(&promote).unwrap();
        for sim in [&mut interp, &mut fast] {
            sim.run(&rewrite).unwrap();
        }
        interp.run(reuse.program()).unwrap();
        fast.run_predecoded(&reuse).unwrap();
        assert_state_eq(&interp, &fast, "stale shadow across runs");
    }

    #[test]
    fn shadowed_registers_store_and_gather_as_themselves() {
        // v0 (valid gather indices) and v6 (valid indices, then lanes far
        // above q) are both promoted. Stores, a gather through v0 and
        // the gather through v6 — which faults mid-vector at the first
        // huge lane — must all see the registers' own lanes, never
        // reduced or Montgomery-form ones.
        let (mut interp, mut fast) = seeded_pair(1 << 13, 16);
        let mut lanes: Vec<u128> = (0..1024u128).map(|i| i * 5 % 512).collect();
        for (i, lane) in lanes.iter_mut().enumerate().skip(512 + 256) {
            *lane = u128::MAX - i as u128 * 0x1234_5678;
        }
        interp.write_vdm(0, &lanes).unwrap();
        fast.write_vdm(0, &lanes).unwrap();
        let program = predecoded(
            "vload v0, [a0 + 0], unit\n\
             vload v6, [a0 + 512], unit\n\
             vload v1, [a0 + 1024], unit\n\
             vmulmod v2, v0, v1, m0\n\
             vmulmod v3, v0, v1, m0\n\
             vmulmod v7, v6, v2, m0\n\
             vmulmod v8, v6, v3, m0\n\
             vmulmod v9, v6, v3, m0\n\
             vstore v0, [a0 + 2048], unit\n\
             vstore v6, [a0 + 2560], unit\n\
             vgather v4, [a0 + 1024], v0\n\
             vmulmod v5, v0, v4, m0\n\
             vstore v5, [a0 + 3072], unit\n\
             vstore v9, [a0 + 3584], unit\n\
             vgather v10, [a0 + 1024], v6\n",
        );
        assert_eq!(program.domain_plan()[3], PromoteHint::First, "v0");
        assert_eq!(program.domain_plan()[5], PromoteHint::First, "v6");
        let a = interp.run(program.program());
        let b = fast.run_predecoded(&program);
        assert!(a.is_err(), "the last gather walks out of bounds");
        assert_eq!(a, b);
        assert_state_eq(&interp, &fast, "shadowed index registers");
        assert_eq!(fast.read_vdm(2048, 1024).unwrap(), lanes);
    }

    #[test]
    fn faults_leave_identical_partial_state() {
        // mid-vector OOB store: lanes before the faulting lane are
        // committed by the oracle; the fast path must match exactly
        let cases = [
            // store whose tail crosses the VDM end
            (
                "vload v0, [a0 + 0], unit\nvstore v0, [a0 + 300], unit\n",
                600,
                1,
            ),
            // strided load reaching past the end
            ("vload v0, [a0 + 0], stride:2\n", 600, 1),
            // gather whose index vector walks out of bounds mid-vector
            (
                "vload v0, [a0 + 0], unit\nvgather v1, [a0 + 0], v0\n",
                600,
                2,
            ),
        ];
        for (asm, vdm, mult) in cases {
            let mut interp = FunctionalSim::new(vdm, 16);
            interp.set_mrf(MReg::at(0), Q);
            let data: Vec<u128> = (0..vdm as u128).map(|i| i * mult).collect();
            interp.write_vdm(0, &data).unwrap();
            let mut fast = interp.clone();
            let program = predecoded(asm);
            let a = interp.run(program.program());
            let b = fast.run_predecoded(&program);
            assert!(a.is_err(), "case must fault: {asm:?}");
            assert_eq!(a, b, "fault must match for {asm:?}");
            assert_state_eq(&interp, &fast, asm);
        }
    }

    #[test]
    fn faults_at_conversion_points_leave_identical_partial_state() {
        // v0 is shadowed when the store faults: the register file the
        // fault leaves behind must match the oracle bit for bit.
        for q in [Q, Q60] {
            let vdm = 4 * 512 + 100; // final store's tail is out of bounds
            let mut interp = FunctionalSim::new(vdm, 16);
            interp.set_mrf(MReg::at(0), q);
            let data: Vec<u128> = (0..vdm as u128).map(|i| (i * 31 + 5) % q).collect();
            interp.write_vdm(0, &data).unwrap();
            let mut fast = interp.clone();
            let program = predecoded(
                "vload v0, [a0 + 0], unit\n\
                 vload v1, [a0 + 512], unit\n\
                 vmulmod v2, v0, v1, m0\n\
                 vmulmod v3, v0, v1, m0\n\
                 vmulmod v4, v0, v1, m0\n\
                 vstore v4, [a0 + 2048], unit\n",
            );
            let a = interp.run(program.program());
            let b = fast.run_predecoded(&program);
            assert!(a.is_err(), "store must fault (q={q})");
            assert_eq!(a, b, "fault must match (q={q})");
            assert_state_eq(&interp, &fast, "fault at conversion point");
        }
    }

    #[test]
    fn invalid_modulus_reports_like_the_oracle() {
        let program = predecoded("vaddmod v0, v1, v2, m7\n");
        let mut fast = FunctionalSim::new(1024, 16);
        assert_eq!(
            fast.run_predecoded(&program),
            Err(ExecError::InvalidModulus { mreg: 7, pc: 0 })
        );
    }

    #[test]
    fn repeated_store_last_writer_wins() {
        // rep:4 store: all 512 lanes fold onto 4 slots; the oracle's
        // lane order means lanes 508..512 win
        let (mut interp, mut fast) = seeded_pair(4096, 16);
        let program = predecoded(
            "vload v0, [a0 + 0], unit\n\
             vstore v0, [a0 + 2048], rep:4\n",
        );
        interp.run(program.program()).unwrap();
        fast.run_predecoded(&program).unwrap();
        assert_eq!(
            fast.read_vdm(2048, 4).unwrap(),
            interp.read_vdm(2048, 4).unwrap()
        );
        assert_state_eq(&interp, &fast, "rep store");
    }

    #[test]
    fn growth_between_runs_is_picked_up() {
        // Satellite of the invalidation-safety requirement: the same
        // PredecodedProgram must see a grown VDM on its next run because
        // nothing absolute is cached at decode time.
        let mut sim = FunctionalSim::new(600, 16);
        sim.set_mrf(MReg::at(0), Q);
        let program = predecoded("vload v0, [a0 + 0], unit\nvstore v0, [a0 + 512], unit\n");
        assert!(sim.run_predecoded(&program).is_err(), "1024 > 600");
        sim.ensure_vdm(2048);
        sim.write_vdm(0, &vec![9u128; 512]).unwrap();
        sim.run_predecoded(&program).unwrap();
        assert_eq!(sim.read_vdm(512, 512).unwrap(), vec![9u128; 512]);
    }

    #[test]
    fn empty_program_is_a_no_op() {
        let mut sim = FunctionalSim::new(16, 4);
        let before = sim.clone();
        sim.run_predecoded(&PredecodedProgram::new(Program::new("empty")))
            .unwrap();
        assert_state_eq(&before, &sim, "empty");
    }
}
