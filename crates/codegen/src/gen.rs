//! The NTT emitter — our stand-in for the paper's SPIRAL backend
//! (Section V). [`Ntt::emit`] writes one forward or inverse transform
//! from the twiddles of a [`PeaseSchedule`]; [`NttSpec`](crate::NttSpec)
//! and the fused kernels place it in their programs and verify it
//! against the host plan, [`rpu_ntt::Ntt128Plan`], which shares no
//! table with the schedule.
//!
//! Two program flavours are emitted for every (n, direction):
//!
//! * [`CodegenStyle::Unoptimized`] — the same computation emitted in
//!   plain dependency order, with no software pipelining and no list
//!   scheduling: the "program with no knowledge of the RPU
//!   micro-architecture" of Fig. 6, whose chains stall the in-order
//!   busyboard frontend.
//! * [`CodegenStyle::Optimized`] — the hardware-aware program: precise
//!   live-range register allocation over a 47-register pool (renaming),
//!   per-stage twiddle caching in dedicated registers, and a software
//!   pipeline that issues the loads of butterfly group `g+1` before the
//!   compute/shuffle/store phase of group `g` — the "rectangles"
//!   decomposition of Section V — followed by the greedy time-aware list
//!   scheduling pass every segment of a kernel gets.

use crate::layout::{check_working_set, KernelLayout};
use crate::{CodegenError, CodegenStyle, Direction};
use rpu_isa::consts::VECTOR_LEN;
use rpu_isa::{AReg, AddrMode, Instruction, MReg, Program, SReg, VReg};
use rpu_ntt::PeaseSchedule;
use std::collections::VecDeque;

/// How many distinct twiddle vectors a stage may cache in registers.
const TW_CACHE_MAX: usize = 16;
/// First register of the twiddle cache window (v48..v63).
const TW_CACHE_BASE: u8 = 48;
/// Software-pipeline group size (butterfly blocks per "rectangle").
const GROUP: usize = 4;

/// One emitted NTT, ready to place in a kernel at a window offset: its
/// program (not yet list-scheduled), the extent of its window, and the
/// twiddle table and scalars the program reads.
#[derive(Debug)]
pub(crate) struct Ntt {
    pub(crate) program: Program,
    /// VDM elements of the window: two ping-pong buffers, then the
    /// twiddle table.
    pub(crate) window: usize,
    /// Where the output lands: the buffer the last stage wrote.
    pub(crate) output: usize,
    /// Where the twiddle table starts, after the two buffers.
    pub(crate) twiddle_at: usize,
    /// Every stage's distinct twiddle vectors, in stage order.
    pub(crate) twiddles: Vec<u128>,
    /// The SDM scalars the program reads: `[n^{-1}, q]`.
    sdm: [u128; 2],
}

impl Ntt {
    /// The schedule a transform of degree `n` (a power of two, ≥ 1024
    /// so a butterfly block fills the 512-lane vectors) under a prime
    /// `q ≡ 1 (mod 2n)` is emitted from. One schedule serves both
    /// directions, so a kernel that emits both builds it once.
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError`] for unsupported degrees/moduli.
    pub(crate) fn schedule(n: usize, q: u128) -> Result<PeaseSchedule, CodegenError> {
        if n < 2 * VECTOR_LEN || !n.is_power_of_two() {
            return Err(CodegenError::UnsupportedDegree(n));
        }
        Ok(PeaseSchedule::new(n, q)?)
    }

    /// Emits a transform in `direction` from `schedule`
    /// ([`Ntt::schedule`]).
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError`] if the working set would not fit the
    /// addressable VDM.
    pub(crate) fn emit(
        schedule: &PeaseSchedule,
        direction: Direction,
        style: CodegenStyle,
    ) -> Result<Self, CodegenError> {
        let (n, stages) = (schedule.degree(), schedule.stages());
        let twiddle_counts: Vec<usize> = (0..stages)
            .map(|s| ((1usize << s) / VECTOR_LEN).max(1))
            .collect();
        let layout = KernelLayout::new(n, twiddle_counts);
        check_working_set(layout.total_elements)?;
        let mut e = Emitter {
            program: Program::new("ntt"),
            layout,
            schedule,
            direction,
            style,
        };
        match direction {
            Direction::Forward => e.emit_forward(style != CodegenStyle::Unoptimized),
            Direction::Inverse => e.emit_inverse(style != CodegenStyle::Unoptimized),
        }
        let Emitter {
            program, layout, ..
        } = e;
        let twiddles = (0..stages)
            .flat_map(|s| match direction {
                Direction::Forward => schedule.twiddle_vectors(s, VECTOR_LEN),
                Direction::Inverse => schedule.twiddle_inv_vectors(s, VECTOR_LEN),
            })
            .flatten()
            .collect();
        Ok(Ntt {
            program,
            window: layout.total_elements,
            output: layout.output_offset,
            twiddle_at: layout.twiddle_bases[0],
            twiddles,
            sdm: [schedule.n_inv(), schedule.modulus().value()],
        })
    }

    /// The SDM image the program reads: `[n^{-1}, q]`. Fused kernels
    /// append further scalars after it.
    pub(crate) fn sdm(&self) -> Vec<u128> {
        self.sdm.to_vec()
    }
}

/// The state of one NTT's emission.
#[derive(Debug)]
struct Emitter<'s> {
    program: Program,
    layout: KernelLayout,
    schedule: &'s PeaseSchedule,
    direction: Direction,
    style: CodegenStyle,
}

/// The base address register all kernels use (host sets it to relocate).
const BASE: AReg = AReg::at(0);
/// The modulus register all kernels use.
const MOD: MReg = MReg::at(0);
/// Scalar register holding `n^{-1}` for inverse kernels.
const NINV: SReg = SReg::at(0);

/// Free-list register allocator with precise live ranges: values are
/// freed after their last consumer is emitted, and the FIFO free list
/// maximizes reuse distance so busyboard WAR stalls stay short.
#[derive(Debug)]
pub(crate) struct RegPool {
    free: VecDeque<VReg>,
}

impl RegPool {
    pub(crate) fn new(lo: u8, hi: u8) -> Self {
        RegPool {
            free: (lo..hi).map(VReg::at).collect(),
        }
    }

    pub(crate) fn alloc(&mut self) -> VReg {
        self.free
            .pop_front()
            .expect("register pool exhausted: GROUP sized beyond capacity")
    }

    pub(crate) fn release(&mut self, r: VReg) {
        self.free.push_back(r);
    }
}

impl Emitter<'_> {
    // ------------------------------------------------------------------
    // emission helpers
    // ------------------------------------------------------------------

    fn push(&mut self, i: Instruction) {
        self.program.push(i);
    }

    fn prologue(&mut self) {
        // MRF[0] <- q, SRF[0] <- n^{-1}; SDM image is [n_inv, q].
        self.push(Instruction::MLoad {
            rt: MOD,
            base: BASE,
            offset: 1,
        });
        if self.direction == Direction::Inverse {
            self.push(Instruction::SLoad {
                rt: NINV,
                base: BASE,
                offset: 0,
            });
        }
    }

    /// Number of 512-pair butterfly blocks per stage.
    fn blocks(&self) -> usize {
        self.layout.n / (2 * VECTOR_LEN)
    }

    fn load_instr(vd: VReg, offset: usize) -> Instruction {
        Instruction::VLoad {
            vd,
            base: BASE,
            offset: offset as u32,
            mode: AddrMode::Unit,
        }
    }

    fn store_instr(vs: VReg, offset: usize) -> Instruction {
        Instruction::VStore {
            vs,
            base: BASE,
            offset: offset as u32,
            mode: AddrMode::Unit,
        }
    }

    /// Loads the per-stage twiddle cache; returns the cache registers
    /// (empty when the stage has too many distinct vectors to cache).
    fn load_twiddle_cache(&mut self, s: u32, broadcast_stage0: bool) -> Vec<VReg> {
        let count = self.layout.twiddle_counts[s as usize];
        if count > TW_CACHE_MAX {
            return Vec::new();
        }
        (0..count)
            .map(|v| {
                let reg = VReg::at(TW_CACHE_BASE + v as u8);
                let off = self.layout.twiddle_vector_offset(s, v);
                let instr = if s == 0 && broadcast_stage0 {
                    // stage 0 has a single scalar twiddle: exercise the
                    // broadcast path like Listing 1 does
                    Instruction::VBroadcast {
                        vd: reg,
                        base: BASE,
                        offset: off as u32,
                    }
                } else {
                    Self::load_instr(reg, off)
                };
                self.push(instr);
                reg
            })
            .collect()
    }

    /// Emits the twiddle fetch for (stage, block): `(register, pooled?)`.
    fn fetch_twiddle(
        &mut self,
        s: u32,
        block: usize,
        cached: &[VReg],
        pool: &mut RegPool,
    ) -> (VReg, bool) {
        let v = self.schedule.twiddle_vector_index(s, block, VECTOR_LEN);
        if !cached.is_empty() {
            (cached[v], false)
        } else {
            let reg = pool.alloc();
            let off = self.layout.twiddle_vector_offset(s, v);
            self.push(Self::load_instr(reg, off));
            (reg, true)
        }
    }

    // ------------------------------------------------------------------
    // forward kernels
    // ------------------------------------------------------------------

    /// Emits the forward kernel. With `pipelined = true` (the optimized
    /// program), loads of butterfly group `g+1` are dispatched before the
    /// compute/shuffle/store phase of group `g`. Without it — the Fig. 6
    /// baseline: the same SPIRAL computation, renamed registers and
    /// cached twiddles, with no knowledge of the microarchitecture and
    /// no list scheduling — each group is emitted in plain dependency
    /// order, so "the shuffle, like other instructions, is always
    /// stalled waiting for the result of the previous instruction".
    fn emit_forward(&mut self, pipelined: bool) {
        self.prologue();
        let half = self.layout.n / 2;
        let blocks = self.blocks();
        let mut pool = RegPool::new(1, TW_CACHE_BASE);
        for s in 0..self.schedule.stages() {
            let (inb, outb) = self.layout.stage_buffers(s);
            let cached = self.load_twiddle_cache(s, true);

            let mut prev: Option<Vec<FwdBlock>> = None;
            let mut m = 0;
            while m < blocks {
                let g = GROUP.min(blocks - m);
                let mut cur = Vec::with_capacity(g);
                for i in 0..g {
                    let blk = m + i;
                    let a = pool.alloc();
                    let b = pool.alloc();
                    self.push(Self::load_instr(a, inb + blk * VECTOR_LEN));
                    self.push(Self::load_instr(b, inb + half + blk * VECTOR_LEN));
                    let (tw, pooled) = self.fetch_twiddle(s, blk, &cached, &mut pool);
                    cur.push(FwdBlock {
                        a,
                        b,
                        tw,
                        pooled,
                        blk,
                    });
                }
                if pipelined {
                    if let Some(group) = prev.take() {
                        self.forward_compute_and_store(group, outb, &mut pool);
                    }
                    prev = Some(cur);
                } else {
                    self.forward_compute_and_store(cur, outb, &mut pool);
                }
                m += g;
            }
            if let Some(group) = prev.take() {
                self.forward_compute_and_store(group, outb, &mut pool);
            }
        }
    }

    /// Butterfly + interleave + store phase for one group of blocks.
    ///
    /// The `StridedMemory` ablation skips the SBAR entirely: butterfly
    /// halves go straight to the VDM with stride-2 stores, pushing the
    /// interleave work onto the banks.
    fn forward_compute_and_store(&mut self, group: Vec<FwdBlock>, outb: usize, pool: &mut RegPool) {
        let strided = self.style == CodegenStyle::StridedMemory;
        let mut outs = Vec::with_capacity(group.len());
        for FwdBlock {
            a,
            b,
            tw,
            pooled,
            blk,
        } in group
        {
            let lo = pool.alloc();
            let hi = pool.alloc();
            self.push(Instruction::Bfly {
                vd: lo,
                vd1: hi,
                vs: a,
                vt: b,
                vt1: tw,
                rm: MOD,
            });
            pool.release(a);
            pool.release(b);
            if pooled {
                pool.release(tw);
            }
            outs.push((lo, hi, blk));
        }
        if strided {
            for (lo, hi, blk) in outs {
                let base = outb + 2 * blk * VECTOR_LEN;
                // lo[i] -> base + 2i (positions 2j), hi[i] -> base + 1 + 2i
                self.push(Instruction::VStore {
                    vs: lo,
                    base: BASE,
                    offset: base as u32,
                    mode: AddrMode::Strided { log2_stride: 1 },
                });
                self.push(Instruction::VStore {
                    vs: hi,
                    base: BASE,
                    offset: (base + 1) as u32,
                    mode: AddrMode::Strided { log2_stride: 1 },
                });
                pool.release(lo);
                pool.release(hi);
            }
            return;
        }
        let mut stores = Vec::with_capacity(outs.len());
        for (lo, hi, blk) in outs {
            let u1 = pool.alloc();
            let u2 = pool.alloc();
            self.push(Instruction::UnpkLo {
                vd: u1,
                vs: lo,
                vt: hi,
            });
            self.push(Instruction::UnpkHi {
                vd: u2,
                vs: lo,
                vt: hi,
            });
            pool.release(lo);
            pool.release(hi);
            stores.push((u1, u2, blk));
        }
        for (u1, u2, blk) in stores {
            self.push(Self::store_instr(u1, outb + 2 * blk * VECTOR_LEN));
            self.push(Self::store_instr(u2, outb + (2 * blk + 1) * VECTOR_LEN));
            pool.release(u1);
            pool.release(u2);
        }
    }

    // ------------------------------------------------------------------
    // inverse kernels
    // ------------------------------------------------------------------

    /// Emits the inverse kernel; `pipelined` as in
    /// [`emit_forward`](Self::emit_forward).
    fn emit_inverse(&mut self, pipelined: bool) {
        self.prologue();
        let half = self.layout.n / 2;
        let blocks = self.blocks();
        let stages = self.schedule.stages();
        let mut pool = RegPool::new(1, TW_CACHE_BASE);
        for (pass, s) in (0..stages).rev().enumerate() {
            let (inb, outb) = self.layout.stage_buffers(pass as u32);
            let cached = self.load_twiddle_cache(s, false);

            let mut prev: Option<Vec<InvBlock>> = None;
            let mut m = 0;
            while m < blocks {
                let g = GROUP.min(blocks - m);
                let mut cur = Vec::with_capacity(g);
                for i in 0..g {
                    let blk = m + i;
                    let y1 = pool.alloc();
                    let y2 = pool.alloc();
                    let base = inb + 2 * blk * VECTOR_LEN;
                    if self.style == CodegenStyle::StridedMemory {
                        // gather even/odd positions directly from the VDM
                        self.push(Instruction::VLoad {
                            vd: y1,
                            base: BASE,
                            offset: base as u32,
                            mode: AddrMode::Strided { log2_stride: 1 },
                        });
                        self.push(Instruction::VLoad {
                            vd: y2,
                            base: BASE,
                            offset: (base + 1) as u32,
                            mode: AddrMode::Strided { log2_stride: 1 },
                        });
                    } else {
                        self.push(Self::load_instr(y1, base));
                        self.push(Self::load_instr(y2, base + VECTOR_LEN));
                    }
                    let (tw, pooled) = self.fetch_twiddle(s, blk, &cached, &mut pool);
                    cur.push(InvBlock {
                        y1,
                        y2,
                        tw,
                        pooled,
                        blk,
                    });
                }
                if pipelined {
                    if let Some(group) = prev.take() {
                        self.inverse_compute_and_store(group, outb, half, &mut pool);
                    }
                    prev = Some(cur);
                } else {
                    self.inverse_compute_and_store(cur, outb, half, &mut pool);
                }
                m += g;
            }
            if let Some(group) = prev.take() {
                self.inverse_compute_and_store(group, outb, half, &mut pool);
            }
        }
        self.emit_final_scale(&mut pool);
    }

    /// De-interleave + GS butterfly + store phase for one inverse group.
    fn inverse_compute_and_store(
        &mut self,
        group: Vec<InvBlock>,
        outb: usize,
        half: usize,
        pool: &mut RegPool,
    ) {
        let strided = self.style == CodegenStyle::StridedMemory;
        let mut split = Vec::with_capacity(group.len());
        for InvBlock {
            y1,
            y2,
            tw,
            pooled,
            blk,
        } in group
        {
            if strided {
                // strided loads already separated even/odd positions
                split.push((y1, y2, tw, pooled, blk));
                continue;
            }
            let ev = pool.alloc();
            let od = pool.alloc();
            self.push(Instruction::PkLo {
                vd: ev,
                vs: y1,
                vt: y2,
            });
            self.push(Instruction::PkHi {
                vd: od,
                vs: y1,
                vt: y2,
            });
            pool.release(y1);
            pool.release(y2);
            split.push((ev, od, tw, pooled, blk));
        }
        let mut outs = Vec::with_capacity(split.len());
        for (ev, od, tw, pooled, blk) in split {
            let u = pool.alloc();
            let d = pool.alloc();
            self.push(Instruction::VAddMod {
                vd: u,
                vs: ev,
                vt: od,
                rm: MOD,
            });
            self.push(Instruction::VSubMod {
                vd: d,
                vs: ev,
                vt: od,
                rm: MOD,
            });
            pool.release(ev);
            pool.release(od);
            let v = pool.alloc();
            self.push(Instruction::VMulMod {
                vd: v,
                vs: d,
                vt: tw,
                rm: MOD,
            });
            pool.release(d);
            if pooled {
                pool.release(tw);
            }
            outs.push((u, v, blk));
        }
        for (u, v, blk) in outs {
            self.push(Self::store_instr(u, outb + blk * VECTOR_LEN));
            self.push(Self::store_instr(v, outb + half + blk * VECTOR_LEN));
            pool.release(u);
            pool.release(v);
        }
    }

    /// Scales the output buffer by `n^{-1}` (SRF[0]) in place — the /n of
    /// the inverse transform, folded out of the per-stage butterflies.
    fn emit_final_scale(&mut self, pool: &mut RegPool) {
        let out = self.layout.output_offset;
        for v in 0..(self.layout.n / VECTOR_LEN) {
            let reg = pool.alloc();
            self.push(Self::load_instr(reg, out + v * VECTOR_LEN));
            let scaled = pool.alloc();
            self.push(Instruction::VSMulMod {
                vd: scaled,
                vs: reg,
                rt: NINV,
                rm: MOD,
            });
            self.push(Self::store_instr(scaled, out + v * VECTOR_LEN));
            pool.release(reg);
            pool.release(scaled);
        }
    }
}

/// Loaded operands of one forward butterfly block.
#[derive(Debug)]
struct FwdBlock {
    a: VReg,
    b: VReg,
    tw: VReg,
    pooled: bool,
    blk: usize,
}

/// Loaded operands of one inverse butterfly block.
#[derive(Debug)]
struct InvBlock {
    y1: VReg,
    y2: VReg,
    tw: VReg,
    pooled: bool,
    blk: usize,
}

impl core::fmt::Display for Direction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Direction::Forward => write!(f, "fwd"),
            Direction::Inverse => write!(f, "inv"),
        }
    }
}

impl core::fmt::Display for CodegenStyle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodegenStyle::Optimized => write!(f, "opt"),
            CodegenStyle::Unoptimized => write!(f, "unopt"),
            CodegenStyle::StridedMemory => write!(f, "strided"),
        }
    }
}
