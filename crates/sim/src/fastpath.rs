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
//! Two engines service the modular instructions, selected per modulus
//! through the shared [`Engine`] cache. Each instruction is written
//! once, over [`ModArith`], and monomorphised per engine at the one
//! `match` on [`Engine`] in `fast_op`:
//!
//! * **Narrow** ([`Modulus64`], `q < 2^63`): lanes are reduced to
//!   canonical `u64` and multiplied with one widening multiply plus a
//!   Barrett (or, for vector-scalar, Shoup) reduction. On 64-bit lanes
//!   this engine does no `u128` work beyond that multiply.
//! * **Wide** ([`Modulus128`], everything else): one Barrett pass per
//!   product, the multiply the interpreter uses, except where one factor
//!   is a known constant, which multiplies through its Shoup quotient
//!   ([`Modulus128::mul_shoup`], one high product and two low ones;
//!   `docs/arith-engines.md` prices it). A `vsmulmod` computes its
//!   scalar's quotient once per instruction, on either engine. A vector
//!   register gets the quotients of its lanes by *viewing* a kernel's
//!   constant table ([`Views`]): a unit `vload` or a `vbroadcast` whose
//!   window lies inside a span [`FunctionalSim::load_constants`]
//!   recorded, and whose loaded lanes equal the table's values there,
//!   points the register at the table's quotients, computed once when
//!   the kernel was generated. The view is keyed by the table's modulus,
//!   is run-local, and is dropped by any write to the register; the
//!   register itself always holds its architectural lanes, and the
//!   interpreter never reads a quotient. Only a wide modulus's tables
//!   carry quotients. On 64-bit lanes (`q` in `[2^63, 2^64)`) each lane
//!   is widened going in and narrowed coming out.
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
//! [`FunctionalSim::run`]: crate::FunctionalSim::run
//! [`FunctionalSim::ensure_vdm`]: crate::FunctionalSim::ensure_vdm
//! [`FunctionalSim::load_constants`]: crate::FunctionalSim::load_constants
//! [`ExecError`]: crate::ExecError

use crate::constants::ConstantTables;
use crate::func::{shuffle_into, Engines, ExecError, Lane, ShuffleKind, Store};
use rpu_arith::{Engine, Modulus128, Modulus64};
use rpu_isa::consts::{NUM_VREGS, VECTOR_LEN};
use rpu_isa::{AReg, AddrMode, Instruction, MReg, PredecodedProgram, SReg, VReg};

#[inline]
fn ix(r: VReg) -> usize {
    usize::from(r.index())
}

/// One engine's modular arithmetic, over its own word: the fast path
/// writes each modular instruction once, over this trait. `canon`
/// reduces a stored lane of either width into `[0, q)`; `add`, `sub`,
/// `mul` and `shoup` take canonical words; `mul_shoup` takes the lane
/// itself, which the narrow engine reduces first and the wide engine's
/// Shoup product takes as it is.
pub(crate) trait ModArith: Copy {
    /// `u64` for the narrow engine, `u128` for the wide one.
    type Word: Lane;
    fn canon<W: Lane>(self, x: W) -> Self::Word;
    fn add(self, a: Self::Word, b: Self::Word) -> Self::Word;
    fn sub(self, a: Self::Word, b: Self::Word) -> Self::Word;
    fn mul(self, a: Self::Word, b: Self::Word) -> Self::Word;
    fn shoup(self, w: Self::Word) -> Self::Word;
    fn mul_shoup<W: Lane>(self, a: W, w: Self::Word, w_shoup: Self::Word) -> Self::Word;
    /// The modulus as the engine whose constant tables carry Shoup
    /// quotients (the wide one), or `None`: a register never views a
    /// narrow table.
    fn viewable(self) -> Option<Modulus128>;
}

/// Implements [`ModArith`] for `$m`: the four methods that are the
/// modulus's own, then the `$rest` that differ.
macro_rules! mod_arith {
    ($m:ty => $word:ty; $($rest:tt)*) => {
        impl ModArith for $m {
            type Word = $word;
            #[inline]
            fn add(self, a: $word, b: $word) -> $word {
                <$m>::add(self, a, b)
            }
            #[inline]
            fn sub(self, a: $word, b: $word) -> $word {
                <$m>::sub(self, a, b)
            }
            #[inline]
            fn mul(self, a: $word, b: $word) -> $word {
                <$m>::mul(self, a, b)
            }
            #[inline]
            fn shoup(self, w: $word) -> $word {
                <$m>::shoup(self, w)
            }
            $($rest)*
        }
    };
}

mod_arith! { Modulus64 => u64;
    /// The compare-first branch keeps already-canonical lanes (the
    /// overwhelmingly common case) to one comparison.
    #[inline]
    fn canon<W: Lane>(self, x: W) -> u64 {
        let x = x.widen();
        if x < u128::from(self.value()) {
            x as u64
        } else {
            self.reduce_wide(x)
        }
    }
    #[inline]
    fn mul_shoup<W: Lane>(self, a: W, w: u64, w_shoup: u64) -> u64 {
        Modulus64::mul_shoup(self, self.canon(a), w, w_shoup)
    }
    #[inline]
    fn viewable(self) -> Option<Modulus128> {
        None
    }
}

mod_arith! { Modulus128 => u128;
    #[inline]
    fn canon<W: Lane>(self, x: W) -> u128 {
        self.reduce(x.widen())
    }
    #[inline]
    fn mul_shoup<W: Lane>(self, a: W, w: u128, w_shoup: u128) -> u128 {
        Modulus128::mul_shoup(self, a.widen(), w, w_shoup)
    }
    #[inline]
    fn viewable(self) -> Option<Modulus128> {
        Some(self)
    }
}

/// `out[i] = f(a[i], b[i])`.
#[inline]
fn map2_into<W: Lane, X: Lane>(out: &mut [W], a: &[W], b: &[W], f: impl Fn(W, W) -> X) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = W::narrow(f(x, y).widen());
    }
}

/// `out[i] = f(a[i])`.
#[inline]
fn map_into<W: Lane, X: Lane>(out: &mut [W], a: &[W], f: impl Fn(W) -> X) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = W::narrow(f(x).widen());
    }
}

/// The butterfly, lane by lane: `sum = a + prod` and `diff = a − prod`
/// for the canonical products `prods`.
#[inline]
fn bfly_into<A: ModArith, W: Lane>(
    m: A,
    a: &[W],
    prods: impl Iterator<Item = A::Word>,
    (sum, diff): (&mut [W], &mut [W]),
) {
    let outs = sum.iter_mut().zip(diff.iter_mut());
    for (((s, d), &a), prod) in outs.zip(a).zip(prods) {
        let a = m.canon(a);
        *s = W::narrow(m.add(a, prod).widen());
        *d = W::narrow(m.sub(a, prod).widen());
    }
}

/// The factors of a product by a viewed register: the other source's
/// lanes `x`, the viewed lanes `w`, and `w`'s quotients `wq`.
type Factors<'a, W> = (&'a [W], &'a [W], &'a [u128]);

/// `x · w` lane by lane, `w` multiplied through its quotients `wq`.
/// The loops over it, like every view lookup, stay out of line
/// (`#[inline(never)]` below): inlined into `fast_op` they moved the
/// narrow arms' code and slowed them.
fn shoup_products<W: Lane>(m: Modulus128, f: Factors<'_, W>) -> impl Iterator<Item = u128> + '_ {
    let lanes = f.0.iter().zip(f.1).zip(f.2);
    lanes.map(move |((&x, &w), &wq)| m.mul_shoup(x.widen(), m.reduce(w.widen()), wq))
}

/// [`bfly_into`] with the product taken through `w`'s quotients.
#[inline(never)]
fn bfly_shoup<W: Lane>(m: Modulus128, a: &[W], f: Factors<W>, outs: (&mut [W], &mut [W])) {
    bfly_into(m, a, shoup_products(m, f), outs);
}

/// `out = x · w` through `w`'s quotients.
#[inline(never)]
fn mul_shoup_into<W: Lane>(m: Modulus128, f: Factors<W>, out: &mut [W]) {
    for (o, prod) in out.iter_mut().zip(shoup_products(m, f)) {
        *o = W::narrow(prod);
    }
}

/// Where a viewing register's lanes sit in loaded tables.
#[derive(Debug, Clone, Copy)]
struct View {
    /// Index into the simulator's loaded tables, whose modulus is the
    /// only one the quotients serve.
    table: usize,
    /// Index of lane 0's value in the tables.
    at: usize,
    /// Loaded by `vbroadcast`: every lane is the value at `at`.
    splat: bool,
}

/// Run-local views, per vector register, of the Shoup quotients of the
/// constant tables the host loaded (module header). The registers
/// themselves are never touched, so the only duty is to
/// [`forget`](Views::forget) a view whenever its register is written.
#[derive(Debug, Clone, Default)]
pub(crate) struct Views {
    /// One entry per vector register (sized by each run).
    of: Vec<Option<View>>,
    /// A broadcast view's one quotient, spread over every lane.
    splat: Vec<u128>,
}

impl Views {
    /// Forgets the view of `r`, which is about to be (or was just)
    /// overwritten.
    #[inline]
    fn forget(&mut self, r: VReg) {
        self.of[ix(r)] = None;
    }

    /// `vd` was just loaded from `vdm[start..]` with `lanes` (one lane:
    /// a broadcast): it views a loaded table if the window lies inside
    /// one of its spans and every lane equals the table's value there.
    /// (Callers skip the call when no table is loaded.)
    #[inline(never)]
    fn take<W: Lane>(&mut self, vd: VReg, constants: &[ConstantTables], start: usize, lanes: &[W]) {
        self.of[ix(vd)] = constants.iter().enumerate().find_map(|(table, c)| {
            let at = c.find(start, lanes.len())?;
            let values = &c.tables().values[at..at + lanes.len()];
            let same = values.iter().zip(lanes).all(|(&v, x)| x.widen() == v);
            let splat = lanes.len() == 1;
            same.then_some(View { table, at, splat })
        });
    }

    /// For a multiply of `sources` under the wide modulus `m`: `m`, and
    /// the lanes of the other source, of the first source with a view
    /// under `m`, and that view's quotients — or `None` when neither
    /// source has such a view.
    #[inline(never)]
    fn factor<'a, W: Lane>(
        &'a mut self,
        (vrf, constants): (&'a [Vec<W>], &'a [ConstantTables]),
        sources: [VReg; 2],
        m: Modulus128,
    ) -> Option<(Modulus128, Factors<'a, W>)> {
        let keyed = |v: &View| constants[v.table].tables().q == m.value();
        let viewed = |i: usize| Some((i, self.of[ix(sources[i])].filter(keyed)?));
        let (slot, v) = viewed(0).or_else(|| viewed(1))?;
        let all = &constants[v.table].tables().quotients;
        let quotients = if v.splat {
            self.splat.clear();
            self.splat.resize(VECTOR_LEN, all[v.at]);
            &self.splat[..]
        } else {
            &all[v.at..v.at + VECTOR_LEN]
        };
        let (x, w) = (&vrf[ix(sources[1 - slot])], &vrf[ix(sources[slot])]);
        Some((m, (x, w, quotients)))
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
        views: &mut Views,
        constants: &[ConstantTables],
    ) -> Result<(), ExecError> {
        // Views are run-local: since the last run the registers may
        // have been rewritten by the interpreter or the spans by the
        // host.
        views.of.clear();
        views.of.resize(NUM_VREGS, None);
        for (pc, instr) in program.program().instructions().iter().enumerate() {
            if !self.fast_op(instr, engines, views, constants) {
                // Slow path: re-run the instruction through the
                // interpreter for oracle-exact errors and partial state.
                self.step(instr, pc, engines)?;
                for vd in instr.dst_vregs().into_iter().flatten() {
                    views.forget(vd);
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
        let q = self.mrf[usize::from(rm.index())].widen();
        engines.get(q).map(|(e, _)| e)
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
        engines: &mut Engines,
        views: &mut Views,
        constants: &[ConstantTables],
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
                views.forget(vd);
                let dst = &mut self.vrf[ix(vd)];
                let vdm = &self.vdm;
                match mode {
                    AddrMode::Unit => {
                        dst.copy_from_slice(&vdm[start..start + VECTOR_LEN]);
                        if !constants.is_empty() {
                            views.take(vd, constants, start, dst);
                        }
                    }
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
                views.forget(vd);
                true
            }
            VBroadcast { vd, base, offset } => {
                let Some(start) = self.vdm_window(base, offset, 1) else {
                    return false;
                };
                let value = self.vdm[start];
                self.vrf[ix(vd)].fill(value);
                views.forget(vd);
                if !constants.is_empty() {
                    views.take(vd, constants, start, &[value]);
                }
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
            VAddMod { rm, vd, .. }
            | VSubMod { rm, vd, .. }
            | VMulMod { rm, vd, .. }
            | VSAddMod { rm, vd, .. }
            | VSSubMod { rm, vd, .. }
            | VSMulMod { rm, vd, .. }
            | Bfly { rm, vd, .. } => {
                match self.fast_modulus(rm, engines) {
                    Some(Engine::Narrow(m)) => self.modular(instr, vd, m, views, constants),
                    Some(Engine::Wide(m)) => self.modular(instr, vd, m, views, constants),
                    None => return false,
                }
                true
            }
            UnpkLo { vd, vs, vt } => self.fast_shuffle(views, vd, vs, vt, ShuffleKind::UnpkLo),
            UnpkHi { vd, vs, vt } => self.fast_shuffle(views, vd, vs, vt, ShuffleKind::UnpkHi),
            PkLo { vd, vs, vt } => self.fast_shuffle(views, vd, vs, vt, ShuffleKind::PkLo),
            PkHi { vd, vs, vt } => self.fast_shuffle(views, vd, vs, vt, ShuffleKind::PkHi),
        }
    }

    /// Executes a modular instruction under `m`, one of the seven
    /// `fast_op` hands over: the results go to the scratch buffers,
    /// which then replace the destination `vd` (and a butterfly's `vd1`).
    #[inline]
    fn modular<A: ModArith>(
        &mut self,
        instr: &Instruction,
        vd: VReg,
        m: A,
        views: &mut Views,
        constants: &[ConstantTables],
    ) {
        use Instruction::*;
        let ([out, out1], vrf) = (&mut self.scratch, &self.vrf);
        let lanes = |r: VReg| &vrf[ix(r)][..];
        let scalar = |rt: SReg| m.canon(self.srf[usize::from(rt.index())]);
        match *instr {
            VAddMod { vs, vt, .. } => map2_into(out, lanes(vs), lanes(vt), |a, b| {
                m.add(m.canon(a), m.canon(b))
            }),
            VSubMod { vs, vt, .. } => map2_into(out, lanes(vs), lanes(vt), |a, b| {
                m.sub(m.canon(a), m.canon(b))
            }),
            VMulMod { vs, vt, .. } => match m
                .viewable()
                .and_then(|w| views.factor((vrf, constants), [vt, vs], w))
            {
                Some((w, factors)) => mul_shoup_into(w, factors, out),
                None => map2_into(out, lanes(vs), lanes(vt), |a, b| {
                    m.mul(m.canon(a), m.canon(b))
                }),
            },
            VSAddMod { vs, rt, .. } => {
                let s = scalar(rt);
                map_into(out, lanes(vs), |a| m.add(m.canon(a), s));
            }
            VSSubMod { vs, rt, .. } => {
                let s = scalar(rt);
                map_into(out, lanes(vs), |a| m.sub(m.canon(a), s));
            }
            VSMulMod { vs, rt, .. } => {
                // Shoup: the scalar's quotient once, then one high
                // product per lane.
                let s = scalar(rt);
                let s_shoup = m.shoup(s);
                map_into(out, lanes(vs), |a| m.mul_shoup(a, s, s_shoup));
            }
            Bfly { vs, vt, vt1, .. } => {
                let outs = (&mut out[..], &mut out1[..]);
                match m
                    .viewable()
                    .and_then(|w| views.factor((vrf, constants), [vt1, vt], w))
                {
                    Some((w, factors)) => bfly_shoup(w, lanes(vs), factors, outs),
                    None => {
                        let prod = |(&x, &y)| m.mul(m.canon(x), m.canon(y));
                        let prods = lanes(vt).iter().zip(lanes(vt1)).map(prod);
                        bfly_into(m, lanes(vs), prods, outs);
                    }
                }
            }
            _ => unreachable!("{instr:?} is not a modular instruction"),
        }
        // A butterfly's sum first, its difference second: if vd == vd1
        // the difference wins, matching the interpreter's per-lane write
        // order.
        std::mem::swap(&mut self.vrf[ix(vd)], &mut self.scratch[0]);
        views.forget(vd);
        if let Bfly { vd1, .. } = *instr {
            std::mem::swap(&mut self.vrf[ix(vd1)], &mut self.scratch[1]);
            views.forget(vd1);
        }
    }

    fn fast_shuffle(
        &mut self,
        views: &mut Views,
        vd: VReg,
        vs: VReg,
        vt: VReg,
        kind: ShuffleKind,
    ) -> bool {
        let scratch = &mut self.scratch[0];
        shuffle_into(&self.vrf[ix(vs)], &self.vrf[ix(vt)], kind, scratch);
        std::mem::swap(&mut self.vrf[ix(vd)], scratch);
        views.forget(vd);
        true
    }
}

#[cfg(test)]
mod tests {
    //! The tests named for a *shadow* pin a register's view: run-local
    //! quotients the register does not hold itself, which every write
    //! to it must drop.

    use super::*;
    use crate::{ConstantTables, FunctionalSim};
    use rpu_isa::{parse_asm, Program, SReg};

    /// The wide engine on 64-bit lanes.
    const Q: u128 = 0xFFFF_FFFF_0000_0001;
    /// 60-bit NTT prime (2^60 - 2^14 + 1): exercises the native-u64 tier.
    const Q60: u128 = 1152921504606830593;
    /// A 126-bit modulus (any modulus in range is valid): the wide engine
    /// on 128-bit lanes.
    const Q126: u128 = (1 << 126) - 137;
    /// An even wide modulus: Shoup quotients need no odd `q`.
    const EVEN: u128 = (1 << 100) - 2;

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

    /// Table values below `q`, spread over its whole range.
    fn table_values(q: u128, len: usize) -> Vec<u128> {
        let spread = |i: u128| i.wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835);
        (0..len as u128).map(|i| spread(i + 1) % q).collect()
    }

    /// Loads `values` at VDM offset `off` as a one-span constant table
    /// under modulus `q`.
    fn attach(sim: &mut FunctionalSim, q: u128, off: usize, values: &[u128]) {
        let tables = ConstantTables::new(q, vec![(off, values.len())], values.to_vec());
        assert_eq!(sim.load_constants(&tables), Ok(values.len()));
    }

    /// Whether `v{r}` views a table after the last fast-path run.
    fn viewed(sim: &FunctionalSim, r: u8) -> bool {
        sim.views.of[usize::from(r)].is_some()
    }

    /// A seeded pair under `q` whose VDM `[0, 1024)` is a constant table
    /// of [`table_values`] and `[2048, 4096)` data spread over `[0, q)`
    /// too: a small multiplicand can hide a wrong quotient.
    fn table_pair(q: u128) -> (FunctionalSim, FunctionalSim) {
        let (mut interp, mut fast) = seeded_pair_mod(q, 1 << 13, 16);
        let values = table_values(q, 3072);
        for sim in [&mut interp, &mut fast] {
            attach(sim, q, 0, &values[..1024]);
            sim.write_vdm(2048, &values[1024..]).unwrap();
        }
        (interp, fast)
    }

    /// Runs `asm` on both sims and asserts identical outcomes and state.
    fn run_both(interp: &mut FunctionalSim, fast: &mut FunctionalSim, asm: &str) {
        let program = predecoded(asm);
        let a = interp.run(program.program());
        let b = fast.run_predecoded(&program);
        assert_eq!(a, b, "outcomes must match for {asm:?}");
        assert_state_eq(interp, fast, asm);
    }

    /// [`run_both`] on a [`table_pair`]; returns the fast sim.
    fn assert_differential_with_table(q: u128, asm: &str) -> FunctionalSim {
        let (mut interp, mut fast) = table_pair(q);
        run_both(&mut interp, &mut fast, asm);
        fast
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
        // v0 views the table through a unit load, v9 through a
        // broadcast; together they feed five multiplies and a butterfly,
        // v0 itself is stored and reused in an add and a vector-scalar
        // multiply: every kind of read of a viewing register, on the
        // wide engine over 64-bit lanes, 128-bit lanes and an even
        // modulus.
        for q in [Q, Q126, EVEN] {
            let fast = assert_differential_with_table(
                q,
                "vload v0, [a0 + 0], unit\n\
                 vload v1, [a0 + 2048], unit\n\
                 vbroadcast v9, [a0 + 600]\n\
                 vmulmod v2, v0, v1, m0\n\
                 vmulmod v3, v0, v2, m0\n\
                 vmulmod v4, v3, v0, m0\n\
                 vmulmod v5, v9, v4, m0\n\
                 bfly v6, v7, v1, v2, v9, m0\n\
                 vaddmod v8, v0, v6, m0\n\
                 vsmulmod v10, v0, s1, m0\n\
                 vstore v0, [a0 + 4096], unit\n\
                 vstore v5, [a0 + 4608], unit\n\
                 vstore v7, [a0 + 5120], unit\n\
                 vstore v10, [a0 + 5632], unit\n",
            );
            assert!(viewed(&fast, 0) && viewed(&fast, 9), "q={q}");
            assert!(
                !viewed(&fast, 1) && !viewed(&fast, 2),
                "data is not a table (q={q})"
            );
        }
    }

    #[test]
    fn resident_product_chains_match() {
        // Both inputs view the table, in either operand order, and a
        // product of theirs (no view) is squared.
        let fast = assert_differential_with_table(
            Q126,
            "vload v0, [a0 + 0], unit\n\
             vload v1, [a0 + 512], unit\n\
             vmulmod v2, v0, v1, m0\n\
             vmulmod v3, v1, v0, m0\n\
             vmulmod v6, v2, v2, m0\n\
             vstore v3, [a0 + 1024], unit\n\
             vstore v6, [a0 + 2048], unit\n",
        );
        assert!(viewed(&fast, 0) && viewed(&fast, 1) && !viewed(&fast, 2));
    }

    #[test]
    fn squaring_a_promoted_source_matches() {
        // Both multiplicative sources are the *same* viewing register:
        // the view supplies one side's quotients, the register both
        // sides' lanes.
        for q in [Q, Q126, EVEN] {
            let fast = assert_differential_with_table(
                q,
                "vload v0, [a0 + 0], unit\n\
                 vload v1, [a0 + 2048], unit\n\
                 vmulmod v2, v0, v0, m0\n\
                 bfly v6, v7, v1, v0, v0, m0\n\
                 vstore v2, [a0 + 4096], unit\n\
                 vstore v6, [a0 + 4608], unit\n\
                 vstore v7, [a0 + 5120], unit\n",
            );
            assert!(viewed(&fast, 0), "q={q}");
        }
    }

    #[test]
    fn mixed_width_moduli_in_one_program_match() {
        // m0 is seeded with the table's modulus; m2 is loaded from SDM
        // slot 3 (a small value, servicing the native tier): a view taken
        // under m0 must not serve a multiply under m2.
        for q in [Q, Q126] {
            assert_differential_with_table(
                q,
                "mload m2, [a0 + 3]\n\
                 vload v0, [a0 + 0], unit\n\
                 vload v1, [a0 + 2048], unit\n\
                 vmulmod v2, v0, v1, m0\n\
                 vmulmod v4, v0, v1, m2\n\
                 bfly v5, v6, v1, v1, v0, m2\n\
                 vstore v4, [a0 + 4096], unit\n\
                 vstore v5, [a0 + 4608], unit\n",
            );
        }
    }

    #[test]
    fn unreduced_lanes_are_shadowed_through_reduce() {
        // The table holds values far above q: its quotients are those of
        // the values reduced, the register keeps the values themselves,
        // and results must still match the oracle exactly.
        let huge: Vec<u128> = (0..512u128).map(|i| u128::MAX - i * 0x1234_5678).collect();
        for q in [Q, Q126, EVEN] {
            let (mut interp, mut fast) = seeded_pair_mod(q, 1 << 13, 16);
            attach(&mut interp, q, 0, &huge);
            attach(&mut fast, q, 0, &huge);
            run_both(
                &mut interp,
                &mut fast,
                "vload v0, [a0 + 0], unit\n\
                 vload v1, [a0 + 2048], unit\n\
                 vmulmod v2, v1, v0, m0\n\
                 bfly v3, v4, v1, v1, v0, m0\n\
                 vstore v0, [a0 + 1024], unit\n\
                 vstore v2, [a0 + 1536], unit\n\
                 vstore v4, [a0 + 2560], unit\n",
            );
            assert!(viewed(&fast, 0), "q={q}");
            // The store of v0 must write back the original unreduced values.
            assert_eq!(fast.read_vdm(1024, 512).unwrap(), huge);
        }
    }

    #[test]
    fn writing_a_shadowed_register_drops_its_shadow() {
        // v0 views the table (gather indices), then is redefined by every
        // kind of write the fast path has — the interpreter fallback of a
        // self-referential gather included — and multiplied again by a
        // register with no view: a stale view would supply the old
        // lanes' quotients.
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
        let indices: Vec<u128> = (0..512u128).map(|i| i * 5 % 512).collect();
        for (k, write) in [""].into_iter().chain(writes).enumerate() {
            let (mut interp, mut fast) = seeded_pair(1 << 13, 16);
            for sim in [&mut interp, &mut fast] {
                attach(sim, Q, 0, &indices);
                sim.write_vdm(4096, &indices).unwrap();
            }
            run_both(
                &mut interp,
                &mut fast,
                &format!(
                    "vload v0, [a0 + 0], unit\n\
                     vload v11, [a0 + 4096], unit\n\
                     vload v1, [a0 + 1024], unit\n\
                     vload v6, [a0 + 1536], unit\n\
                     vload v8, [a0 + 2048], unit\n\
                     sload s1, [a0 + 2]\n\
                     vmulmod v2, v0, v1, m0\n\
                     {write}\n\
                     vmulmod v5, v0, v11, m0\n\
                     vstore v5, [a0 + 4608], unit\n"
                ),
            );
            // The first case writes nothing: v0 keeps its view.
            assert_eq!(viewed(&fast, 0), k == 0, "{write:?}");
        }
    }

    #[test]
    fn a_shadow_serves_only_the_modulus_it_was_taken_under() {
        // m2 is a second wide modulus: v0's view under m0 must not stand
        // in for v0 in a multiply under m2.
        let (mut interp, mut fast) = table_pair(Q);
        for sim in [&mut interp, &mut fast] {
            sim.write_sdm(3, &[Q - 0x1234_5678]).unwrap();
        }
        run_both(
            &mut interp,
            &mut fast,
            "mload m2, [a0 + 3]\n\
             vload v0, [a0 + 0], unit\n\
             vload v1, [a0 + 2048], unit\n\
             vmulmod v2, v0, v1, m0\n\
             vmulmod v4, v0, v1, m2\n\
             bfly v5, v6, v1, v1, v0, m2\n\
             vsmulmod v7, v0, s1, m2\n\
             vstore v4, [a0 + 4096], unit\n\
             vstore v6, [a0 + 4608], unit\n",
        );
        assert!(viewed(&fast, 0));
    }

    #[test]
    fn shadows_do_not_outlive_a_run() {
        // The view table lives in the simulator (a run allocates
        // nothing), but its contents are run-local: v0 views the table
        // after the first fast-path run, is rewritten by an interpreter
        // run in between, and multiplied again — without being reloaded
        // — by a second fast-path run, which must see the new lanes.
        let (mut interp, mut fast) = table_pair(Q126);
        run_both(
            &mut interp,
            &mut fast,
            "vload v0, [a0 + 0], unit\n\
             vload v1, [a0 + 2048], unit\n\
             vmulmod v2, v0, v1, m0\n",
        );
        assert!(viewed(&fast, 0));
        let rewrite = parse_asm("t", "vload v0, [a0 + 3072], unit\n").unwrap();
        for sim in [&mut interp, &mut fast] {
            sim.run(&rewrite).unwrap();
        }
        run_both(
            &mut interp,
            &mut fast,
            "vmulmod v5, v1, v0, m0\n\
             vstore v5, [a0 + 4096], unit\n",
        );
        assert!(!viewed(&fast, 0));
    }

    #[test]
    fn shadowed_registers_store_and_gather_as_themselves() {
        // v0 (valid gather indices) and v6 (valid indices, then lanes far
        // above q) both view the table. Stores, a gather through v0 and
        // the gather through v6 — which faults mid-vector at the first
        // huge lane — must all see the registers' own lanes.
        let (mut interp, mut fast) = seeded_pair(1 << 13, 16);
        let mut lanes: Vec<u128> = (0..1024u128).map(|i| i * 5 % 512).collect();
        for (i, lane) in lanes.iter_mut().enumerate().skip(512 + 256) {
            *lane = u128::MAX - i as u128 * 0x1234_5678;
        }
        for sim in [&mut interp, &mut fast] {
            attach(sim, Q, 0, &lanes);
        }
        let program = predecoded(
            "vload v0, [a0 + 0], unit\n\
             vload v6, [a0 + 512], unit\n\
             vload v1, [a0 + 1024], unit\n\
             vmulmod v2, v0, v1, m0\n\
             vmulmod v7, v6, v2, m0\n\
             vstore v0, [a0 + 2048], unit\n\
             vstore v6, [a0 + 2560], unit\n\
             vgather v4, [a0 + 1024], v0\n\
             vmulmod v5, v0, v4, m0\n\
             vstore v5, [a0 + 3072], unit\n\
             vstore v7, [a0 + 3584], unit\n\
             vgather v10, [a0 + 1024], v6\n",
        );
        let a = interp.run(program.program());
        let b = fast.run_predecoded(&program);
        assert!(a.is_err(), "the last gather walks out of bounds");
        assert_eq!(a, b);
        assert_state_eq(&interp, &fast, "viewing index registers");
        assert!(viewed(&fast, 0) && viewed(&fast, 6));
        assert_eq!(fast.read_vdm(2048, 1024).unwrap(), lanes);
    }

    #[test]
    fn no_view_of_a_table_the_program_or_the_host_changed() {
        // Each case changes part of the table at [0, 1024) — a program
        // store with and without new values, a host write, an on-device
        // copy, a second table over its top half — or reads a window
        // straddling its end; v0 then multiplies. Only lanes that still
        // equal a recorded table's values may view it.
        let other = table_values(Q126 - 2, 512);
        let unit = "vload v0, [a0 + 0], unit";
        type Host<'a> = &'a dyn Fn(&mut FunctionalSim);
        let cases: [(&str, Host, &str, &str, bool); 7] = [
            (
                "store of other values",
                &|_| {},
                "vstore v1, [a0 + 0], unit",
                unit,
                false,
            ),
            (
                "store of the same values",
                &|_| {},
                "vstore v3, [a0 + 0], unit",
                unit,
                true,
            ),
            (
                "host write",
                &|s| s.write_vdm(100, &[7]).unwrap(),
                "",
                unit,
                false,
            ),
            (
                "on-device copy",
                &|s| s.copy_vdm(0, 2048, 512).unwrap(),
                "",
                unit,
                false,
            ),
            (
                "host write elsewhere",
                &|s| s.write_vdm(1024, &[7]).unwrap(),
                "",
                unit,
                true,
            ),
            (
                "second table",
                &|s| attach(s, Q126 - 2, 512, &other),
                "",
                unit,
                false,
            ),
            (
                "straddling window",
                &|_| {},
                "",
                "vload v0, [a0 + 768], unit",
                false,
            ),
        ];
        for (name, host, store, load, view) in cases {
            let (mut interp, mut fast) = table_pair(Q126);
            for sim in [&mut interp, &mut fast] {
                host(sim);
            }
            run_both(
                &mut interp,
                &mut fast,
                &format!(
                    "vload v1, [a0 + 2048], unit\n\
                     vload v3, [a0 + 0], unit\n\
                     {store}\n\
                     {load}\n\
                     vmulmod v2, v1, v0, m0\n\
                     bfly v4, v5, v1, v1, v0, m0\n\
                     vstore v2, [a0 + 4096], unit\n\
                     vstore v5, [a0 + 4608], unit\n"
                ),
            );
            assert_eq!(viewed(&fast, 0), view, "{name}");
        }
        // The second table's own lanes view it, under its own modulus.
        let (mut interp, mut fast) = table_pair(Q126);
        for sim in [&mut interp, &mut fast] {
            attach(sim, Q126 - 2, 512, &other);
            sim.set_mrf(MReg::at(1), Q126 - 2);
        }
        run_both(
            &mut interp,
            &mut fast,
            "vload v0, [a0 + 512], unit\n\
             vload v1, [a0 + 2048], unit\n\
             vmulmod v2, v1, v0, m1\n\
             vmulmod v3, v1, v0, m0\n\
             vstore v2, [a0 + 4096], unit\n",
        );
        assert!(viewed(&fast, 0));
        assert_eq!(fast.constants.len(), 1, "the first table's span is gone");
        // A narrow modulus's tables carry no quotients, so nothing is
        // recorded for them.
        let mut narrow = FunctionalSim::new(1024, 16);
        attach(&mut narrow, Q60, 0, &[1, 2, 3]);
        assert!(narrow.constants.is_empty());
    }

    #[test]
    fn faults_at_conversion_points_leave_identical_partial_state() {
        // v0 views the table when the store faults: the register file
        // the fault leaves behind must match the oracle bit for bit.
        for q in [Q, Q60] {
            let vdm = 4 * 512 + 100; // final store's tail is out of bounds
            let mut interp = FunctionalSim::new(vdm, 16);
            interp.set_mrf(MReg::at(0), q);
            let data: Vec<u128> = (0..vdm as u128).map(|i| (i * 31 + 5) % q).collect();
            interp.write_vdm(0, &data).unwrap();
            attach(&mut interp, q, 0, &table_values(q, 512));
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
    fn both_engines_agree_on_hostile_lanes() {
        // Under a narrow modulus both `ModArith` impls apply, and they
        // must agree on lanes at and past the edges of [0, q), in either
        // storage width; `mul_shoup` takes its lane unreduced.
        fn agree<W: Lane + std::fmt::Debug>(q: u64, lanes: &[W]) {
            let (n, w) = (
                Modulus64::new(q).unwrap(),
                Modulus128::new(q.into()).unwrap(),
            );
            for &x in lanes {
                let c = n.canon(x);
                assert_eq!(u128::from(c), w.canon(x), "canon {x:?} mod {q}");
                assert_eq!(
                    u128::from(c),
                    x.widen() % u128::from(q),
                    "canon {x:?} mod {q}"
                );
                for &y in lanes {
                    let (d, e) = (n.canon(y), w.canon(y));
                    let label = format!("{x:?}, {y:?} mod {q}");
                    assert_eq!(u128::from(n.add(c, d)), w.add(w.canon(x), e), "add {label}");
                    assert_eq!(u128::from(n.sub(c, d)), w.sub(w.canon(x), e), "sub {label}");
                    assert_eq!(u128::from(n.mul(c, d)), w.mul(w.canon(x), e), "mul {label}");
                    let (nq, wq) = (n.shoup(d), w.shoup(e));
                    let shoup = ModArith::mul_shoup(w, x, e, wq);
                    let narrow = ModArith::mul_shoup(n, x, d, nq);
                    assert_eq!(u128::from(narrow), shoup, "mul_shoup {label}");
                    assert_eq!(shoup, w.mul(w.canon(x), e), "mul_shoup {label}");
                }
            }
        }
        for q in [97, (1 << 60) - (1 << 14) + 1, (1 << 63) - 25] {
            let narrow = [0, q - 1, q, u64::MAX];
            agree(q, &narrow);
            let wide = narrow.map(u128::from);
            agree(q, &[&wide[..], &[1 << 64, u128::MAX]].concat());
        }
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
