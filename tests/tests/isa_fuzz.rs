//! Random-program differential fuzzing over the whole ISA — the seed of
//! the ROADMAP's "ISA fuzz" item.
//!
//! A deterministic generator builds random *legal* B512 programs (every
//! register index valid, every instruction encodable; execution may
//! still fault, and fault parity is part of the contract). Each program
//! is run three ways:
//!
//! 1. the reference interpreter ([`FunctionalSim::run`]) — the oracle;
//! 2. the pre-decoded fast path ([`FunctionalSim::run_predecoded`]);
//! 3. the interpreter again, on the program after an encode → decode
//!    round trip through its binary form.
//!
//! All three must agree on the outcome (`Ok` or the exact `ExecError`)
//! and on every piece of publicly observable architectural state.
//!
//! Programs are drawn from **weighted shape profiles** rather than a
//! uniform instruction mix: memory-heavy, compute-heavy,
//! butterfly/pack, and gather-heavy programs stress different simulator
//! paths (address generation, the modular ALUs, the permute network,
//! and indexed access respectively) far harder than uniform draws do.
//! Two additional **fault-injection shapes** deliberately steer
//! programs into typed runtime faults — gathers fed out-of-range
//! indices from a poisoned VDM region, and scalar/modulus/address
//! loads aimed past the end of the SDM — so error parity between the
//! interpreter and the fast path is exercised as hard as success
//! parity. A **constants shape** aims its loads, broadcasts and stores
//! at two constant tables every seeded simulator carries
//! (`FunctionalSim::load_constants`, one under `m0`'s modulus and one
//! under `m3`'s) and multiplies by what it loaded: the fast path
//! multiplies a register loaded unchanged from a table through the
//! table's Shoup quotients, and the stores make sure a changed table
//! is not.
//!
//! Programs are also drawn across two **modulus-width classes**, since
//! the fast path services them with different arithmetic engines: the
//! *small* class seeds the MRF/SDM with ≤63-bit primes (tiny towers
//! plus a 60-bit NTT prime, dispatched to native u64 lanes) and the
//! *wide* class with 120/126/127-bit primes and one even 126-bit
//! modulus (dispatched to the `Modulus128` engine). The wide class is a
//! genuinely **two-implementation** check of the wide multiply: the
//! interpreter reduces every product in one Barrett pass
//! (`Modulus128::mul`), while the fast path multiplies through Shoup
//! quotients (`Modulus128::mul_shoup`) wherever a source was loaded
//! from a constant table — what the constants shape does constantly and
//! every generated kernel does with its twiddles — and in every
//! `vsmulmod`. The 127-bit primes put factors on both sides of 2¹²⁶
//! (the Barrett pass multiplies those negated); the even modulus
//! carries the second table: Shoup needs no odd modulus. The small
//! class checks the narrow engine the same way: its second table is
//! under the 60-bit prime, whose `u64` quotients the fast path
//! multiplies through with `Modulus64::mul_shoup`. `RPU_FUZZ_WIDTH` (`small` | `wide` |
//! `both`, default `both`) pins the classes a run samples — CI's
//! small-prime leg sets `small`.
//!
//! The classes also differ in **lane storage width**: a small-class
//! simulator holds no value of 2⁶⁴ or more, so it stores (and must keep
//! storing — every case asserts it) its state in 64-bit words, while the
//! wide class widens to 128-bit words as soon as its primes are seeded.
//! Three further groups pin that mechanism itself: `narrow_closure_*`
//! (random programs over a hostile all-below-2⁶⁴ state stay narrow and
//! match a wide twin), `widening_*` (a wide value arriving through any
//! host entry point between two programs) and the out-of-bounds
//! host-write case.
//!
//! The case count defaults to 256 and is tunable with `RPU_FUZZ_CASES`
//! (a long soak sets thousands); the generic `PROPTEST_CASES` variable
//! still wins over both when set, since the proptest runner reads it
//! last.
//!
//! On divergence the harness does not hand proptest the raw
//! several-dozen-instruction program: a **greedy shrinker** first cuts
//! the program down (suffix truncation, then single-instruction
//! deletion) while the divergence still reproduces, and the failure
//! message carries the minimal reproducer as an assembly listing.

use std::sync::OnceLock;

use proptest::prelude::*;
use rpu::isa::{AReg, AddrMode, Instruction, MReg, PredecodedProgram, Program, SReg, VReg};
use rpu::sim::ConstantTables;
use rpu::FunctionalSim;

const VDM_ELEMS: usize = 1 << 14;
const SDM_ELEMS: usize = 64;

/// Top-of-VDM region seeded with out-of-range values: a `vload` from
/// here followed by a `vgather` through the loaded register faults on
/// the per-lane index bounds check. Two vectors wide so a Unit-mode
/// load anywhere in the first half stays in bounds itself.
const POISON_LEN: usize = 1024;
const POISON_BASE: usize = VDM_ELEMS - POISON_LEN;

/// Two constant tables of this many elements each sit just below the
/// poison region, above where ordinary unit loads reach.
const TABLE_LEN: usize = 1024;
const TABLE_BASE: usize = POISON_BASE - 2 * TABLE_LEN;

/// ≤63-bit moduli pre-seeded into `m0..m3` and cycled through the SDM
/// in the **small** width class (so `mload`/`aload` pick up values that
/// keep programs mostly alive while still exercising invalid-modulus
/// and OOB faults). The last entry is a 60-bit NTT prime
/// (2⁶⁰ − 2¹⁴ + 1), so the class reaches the fast path's native-u64
/// engine with a full-width operand, not just toy towers.
const SMALL_PRIMES: [u128; 4] = [97, 193, 3329, 1_152_921_504_606_830_593];

/// The two modulus-width classes programs are fuzzed under. They differ
/// only in which primes seed the MRF/SRF/SDM — the VDM image stays
/// below 3329 in both, so gather-index safety is identical and the
/// fault-injection shapes keep their teeth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WidthClass {
    /// ≤63-bit primes: the fast path uses native u64 lanes.
    Small,
    /// 120/126/127-bit primes and an even 126-bit modulus: the fast path
    /// uses the `Modulus128` engine, Shoup quotients included.
    Wide,
}

impl WidthClass {
    /// The word width a simulator seeded for this class stores its state
    /// in — before *and* after any program: no instruction can produce a
    /// value of 2⁶⁴ or more from a state that holds none.
    fn lane_bits(self) -> u32 {
        match self {
            WidthClass::Small => 64,
            WidthClass::Wide => 128,
        }
    }

    /// Moduli seeded into `m0..` (the generator mostly draws `m0..m3`)
    /// and cycled through the SDM. The wide class leads with one of each
    /// kind — 120-, 126-, 127-bit prime, even — so all four sit in the
    /// registers programs favour; the second prime of each width arrives
    /// through `mload` and the roaming MRF draw.
    fn primes(self) -> &'static [u128] {
        match self {
            WidthClass::Small => &SMALL_PRIMES,
            WidthClass::Wide => {
                static WIDE: OnceLock<[u128; 7]> = OnceLock::new();
                WIDE.get_or_init(|| {
                    let p120 = rpu::arith::find_ntt_prime_chain(120, 2048, 2);
                    let p126 = rpu::arith::find_ntt_prime_chain(126, 2048, 2);
                    let p127 = rpu::arith::find_ntt_prime_chain(127, 2048, 2);
                    let even = p126[1] - 1;
                    [p120[0], p126[0], p127[0], even, p120[1], p126[1], p127[1]]
                })
            }
        }
    }
}

/// Width classes this run samples: `RPU_FUZZ_WIDTH` set to `small` or
/// `wide` pins one class (CI's small-prime leg sets `small`); anything
/// else — including unset — enables both.
fn enabled_classes() -> &'static [WidthClass] {
    static CLASSES: OnceLock<Vec<WidthClass>> = OnceLock::new();
    CLASSES.get_or_init(|| match std::env::var("RPU_FUZZ_WIDTH").as_deref() {
        Ok("small") => vec![WidthClass::Small],
        Ok("wide") => vec![WidthClass::Wide],
        _ => vec![WidthClass::Small, WidthClass::Wide],
    })
}

/// Maps a proptest-drawn coin to a width class, respecting
/// [`enabled_classes`]: with one class pinned the coin is ignored, with
/// both enabled it picks between them.
fn class_for(wide: bool) -> WidthClass {
    let classes = enabled_classes();
    if classes.len() == 1 {
        classes[0]
    } else if wide {
        WidthClass::Wide
    } else {
        WidthClass::Small
    }
}

/// splitmix64 — deterministic, seedable, no external dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn sreg(&mut self) -> SReg {
        SReg::at(self.below(64) as u8)
    }

    fn areg(&mut self) -> AReg {
        // Bias towards a0 (= 0) so most addresses stay in bounds, but
        // roam the whole ARF to exercise `aload`-indirected addressing.
        if self.below(4) == 0 {
            AReg::at(self.below(64) as u8)
        } else {
            AReg::at(0)
        }
    }

    fn mreg(&mut self) -> MReg {
        // Mostly the pre-seeded valid moduli; occasionally any MRF entry
        // (usually zero → InvalidModulus, checking fault parity).
        if self.below(8) == 0 {
            MReg::at(self.below(64) as u8)
        } else {
            MReg::at(self.below(4) as u8)
        }
    }

    fn offset(&mut self) -> u32 {
        // Mostly in-bounds for the 2^14-element VDM; occasionally up to
        // the 20-bit architectural field so span checks must fault.
        if self.below(6) == 0 {
            self.below(1 << 20) as u32
        } else {
            self.below(1 << 13) as u32
        }
    }

    fn sdm_offset(&mut self) -> u32 {
        if self.below(8) == 0 {
            self.below(1 << 10) as u32 // usually OOB for the 64-entry SDM
        } else {
            self.below(SDM_ELEMS as u64) as u32
        }
    }

    fn mode(&mut self) -> AddrMode {
        match self.below(4) {
            0 => AddrMode::Unit,
            1 => AddrMode::Strided {
                log2_stride: self.below(5) as u8,
            },
            2 => AddrMode::StridedSkip {
                log2_block: self.below(10) as u8,
            },
            _ => AddrMode::Repeated {
                log2_block: self.below(10) as u8,
            },
        }
    }
}

/// Fuzz case count: `RPU_FUZZ_CASES` overrides the default of 256
/// (raise it for soak runs; CI's scheduled fuzz job sets 512). The
/// proptest runner's own `PROPTEST_CASES` variable still takes
/// precedence over both.
fn fuzz_cases() -> u32 {
    std::env::var("RPU_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// A program shape: relative weights over the 18 instruction kinds
/// (indexed as in the generator's match below). Skewed mixes reach
/// deeper into single subsystems than uniform draws — long load/store
/// runs hit address-generation corner cases, dense compute runs hit
/// ALU/fault parity, butterfly/pack runs hit the permute network, and
/// gather runs hit indexed addressing. Shapes 4 and 5 are **fault
/// injectors**: they steer programs into typed runtime errors
/// (out-of-range gather indices, SDM accesses past the end) so both
/// execution paths must agree on the exact `ExecError`, not just on
/// successful results. The last shape aims at the constant tables.
const SHAPES: [[u32; 18]; 7] = [
    // Memory-heavy: loads, stores, broadcasts, scalar/modulus/address
    // loads dominate.
    [8, 8, 2, 6, 5, 5, 5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    // Compute-heavy: the six modular-arithmetic kinds dominate.
    [2, 1, 1, 1, 1, 2, 1, 8, 8, 8, 6, 6, 6, 2, 1, 1, 1, 1],
    // Butterfly/pack: Bfly and the pack/unpack quartet dominate.
    [2, 1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 10, 6, 6, 6, 6],
    // Gather-heavy: indexed access plus the loads that feed it.
    [6, 3, 12, 3, 2, 2, 4, 2, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1],
    // Fault injector: loads from the poison region feed gathers with
    // out-of-range indices.
    [12, 2, 12, 2, 2, 2, 2, 2, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1],
    // Fault injector: scalar/modulus/address loads roam past the end
    // of the SDM mid-program.
    [2, 1, 1, 1, 10, 10, 10, 3, 2, 3, 3, 2, 3, 1, 1, 1, 1, 1],
    // Constants: loads, broadcasts and stores aimed at the tables, and
    // the multiplies that read what they loaded.
    [10, 8, 1, 3, 1, 1, 1, 1, 1, 10, 1, 1, 2, 10, 1, 1, 1, 1],
];

/// Index of the gather-fault shape in [`SHAPES`].
const GATHER_FAULT_SHAPE: usize = 4;
/// Index of the SDM-exhaustion shape in [`SHAPES`].
const SDM_FAULT_SHAPE: usize = 5;
/// Index of the constants shape in [`SHAPES`].
const CONSTANTS_SHAPE: usize = 6;

/// A VDM offset for the constants shape, three times in four: a window
/// starting at one of eight quarter-table steps through the two tables,
/// so windows meet — inside one table, straddling both, or running off
/// the second into the poison region.
fn table_offset(r: &mut Rng, shape_idx: usize) -> Option<u32> {
    let step = TABLE_LEN as u64 / 4;
    (shape_idx == CONSTANTS_SHAPE && r.below(4) != 0)
        .then(|| (TABLE_BASE as u64 + step * r.below(8)) as u32)
}

/// SDM offset draw, specialized by shape: the exhaustion shape spreads
/// offsets over `[0, SDM_ELEMS * 3/2)` so roughly a third of its
/// scalar/modulus/address loads fault past the end of the SDM
/// mid-program; every other shape uses the default mostly-in-bounds
/// distribution.
fn sdm_shaped_offset(r: &mut Rng, shape_idx: usize) -> u32 {
    if shape_idx == SDM_FAULT_SHAPE {
        r.below(SDM_ELEMS as u64 * 3 / 2) as u32
    } else {
        r.sdm_offset()
    }
}

/// Draws an instruction-kind index from a weight table.
fn weighted_kind(r: &mut Rng, weights: &[u32; 18]) -> u64 {
    let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    let mut draw = r.below(total);
    for (kind, &w) in weights.iter().enumerate() {
        let w = u64::from(w);
        if draw < w {
            return kind as u64;
        }
        draw -= w;
    }
    unreachable!("draw is below the weight total")
}

/// Generates a random well-formed program of `len` instructions, with
/// the instruction mix drawn from a seed-selected shape profile.
fn random_legal_program(seed: u64, len: usize) -> Program {
    let mut r = Rng(seed);
    let shape_idx = r.below(SHAPES.len() as u64) as usize;
    random_shaped_program(seed.wrapping_add(1), len, shape_idx)
}

/// Generates a random well-formed program from an explicit shape
/// profile — the entry point for the deterministic fault-injection
/// tests, which need to target one shape rather than sample them.
fn random_shaped_program(seed: u64, len: usize, shape_idx: usize) -> Program {
    let mut r = Rng(seed);
    let shape = &SHAPES[shape_idx];
    // The constants shape keeps to eight registers, so its loads,
    // stores and multiplies meet.
    let pool = if shape_idx == CONSTANTS_SHAPE { 8 } else { 64 };
    let vreg = |r: &mut Rng| VReg::at(r.below(pool) as u8);
    // ... and to the tables' moduli, `m0` and `m3`, three times in four.
    let mreg = |r: &mut Rng| match shape_idx == CONSTANTS_SHAPE && r.below(4) != 0 {
        true => MReg::at(3 * r.below(2) as u8),
        false => r.mreg(),
    };
    let mut p = Program::new(format!("fuzz_{seed:x}_s{shape_idx}"));
    if shape_idx == CONSTANTS_SHAPE {
        // Non-zero multiplicands, half of them full-width table lanes: a
        // product by zero hides a wrong quotient, and a product by a small
        // lane one that is off by one.
        for vd in 0..pool as u8 {
            let offset = match vd % 2 {
                0 => (TABLE_BASE as u64 + r.below(2 * TABLE_LEN as u64 - 512)) as u32,
                _ => r.below(VDM_ELEMS as u64 / 2) as u32,
            };
            let (base, mode) = (AReg::at(0), AddrMode::Unit);
            p.push(Instruction::VLoad {
                vd: VReg::at(vd),
                base,
                offset,
                mode,
            });
        }
    }
    for _ in 0..len {
        let instr = match weighted_kind(&mut r, shape) {
            0 => {
                // The gather-fault shape aims half its loads into the
                // poison region, so gather index registers pick up
                // out-of-range values.
                let (offset, mode) = if shape_idx == GATHER_FAULT_SHAPE && r.below(2) == 0 {
                    (
                        (POISON_BASE as u64 + r.below(POISON_LEN as u64 / 2)) as u32,
                        AddrMode::Unit,
                    )
                } else if let Some(offset) = table_offset(&mut r, shape_idx) {
                    (offset, AddrMode::Unit)
                } else {
                    (r.offset(), r.mode())
                };
                Instruction::VLoad {
                    vd: vreg(&mut r),
                    base: r.areg(),
                    offset,
                    mode,
                }
            }
            1 => match table_offset(&mut r, shape_idx) {
                Some(offset) => Instruction::VStore {
                    vs: vreg(&mut r),
                    base: AReg::at(0),
                    offset,
                    mode: AddrMode::Unit,
                },
                None => Instruction::VStore {
                    vs: vreg(&mut r),
                    base: r.areg(),
                    offset: r.offset(),
                    mode: r.mode(),
                },
            },
            2 => Instruction::VGather {
                vd: vreg(&mut r),
                base: r.areg(),
                offset: r.offset(),
                vi: vreg(&mut r),
            },
            3 => match table_offset(&mut r, shape_idx) {
                Some(offset) => Instruction::VBroadcast {
                    vd: vreg(&mut r),
                    base: AReg::at(0),
                    offset,
                },
                None => Instruction::VBroadcast {
                    vd: vreg(&mut r),
                    base: r.areg(),
                    offset: r.offset(),
                },
            },
            4 => Instruction::SLoad {
                rt: r.sreg(),
                base: r.areg(),
                offset: sdm_shaped_offset(&mut r, shape_idx),
            },
            5 => Instruction::MLoad {
                rt: r.mreg(),
                base: r.areg(),
                offset: sdm_shaped_offset(&mut r, shape_idx),
            },
            6 => Instruction::ALoad {
                rt: r.areg(),
                base: r.areg(),
                offset: sdm_shaped_offset(&mut r, shape_idx),
            },
            7 => Instruction::VAddMod {
                vd: vreg(&mut r),
                vs: vreg(&mut r),
                vt: vreg(&mut r),
                rm: mreg(&mut r),
            },
            8 => Instruction::VSubMod {
                vd: vreg(&mut r),
                vs: vreg(&mut r),
                vt: vreg(&mut r),
                rm: mreg(&mut r),
            },
            9 => Instruction::VMulMod {
                vd: vreg(&mut r),
                vs: vreg(&mut r),
                vt: vreg(&mut r),
                rm: mreg(&mut r),
            },
            10 => Instruction::VSAddMod {
                vd: vreg(&mut r),
                vs: vreg(&mut r),
                rt: r.sreg(),
                rm: mreg(&mut r),
            },
            11 => Instruction::VSSubMod {
                vd: vreg(&mut r),
                vs: vreg(&mut r),
                rt: r.sreg(),
                rm: mreg(&mut r),
            },
            12 => Instruction::VSMulMod {
                vd: vreg(&mut r),
                vs: vreg(&mut r),
                rt: r.sreg(),
                rm: mreg(&mut r),
            },
            13 => Instruction::Bfly {
                vd: vreg(&mut r),
                vd1: vreg(&mut r),
                vs: vreg(&mut r),
                vt: vreg(&mut r),
                vt1: vreg(&mut r),
                rm: mreg(&mut r),
            },
            14 => Instruction::UnpkLo {
                vd: vreg(&mut r),
                vs: vreg(&mut r),
                vt: vreg(&mut r),
            },
            15 => Instruction::UnpkHi {
                vd: vreg(&mut r),
                vs: vreg(&mut r),
                vt: vreg(&mut r),
            },
            16 => Instruction::PkLo {
                vd: vreg(&mut r),
                vs: vreg(&mut r),
                vt: vreg(&mut r),
            },
            _ => Instruction::PkHi {
                vd: vreg(&mut r),
                vs: vreg(&mut r),
                vt: vreg(&mut r),
            },
        };
        p.push(instr);
    }
    p
}

/// A fully seeded simulator: non-trivial VDM image, SDM holding the
/// width class's valid moduli, one `m` and one `s` register preset per
/// modulus. The top
/// [`POISON_LEN`] VDM elements hold out-of-range gather indices (just
/// past the VDM, and the largest values the class's lane width holds:
/// `u64::MAX` down in the small class, so its state stays below 2⁶⁴;
/// `u128::MAX` down in the wide class) for the fault-injection shape.
/// Below them sit the two constant tables, residues spread over the
/// whole range of `m0`'s and `m3`'s moduli; the rest of the image stays
/// below 3329 in **both** width classes, so ordinary gathers never
/// fault on it — wide values reach vector state only through the
/// tables, the SDM (`sload`/`mload`) and the SRF.
fn fresh_sim(width: WidthClass) -> FunctionalSim {
    let primes = width.primes();
    let mut sim = FunctionalSim::new(VDM_ELEMS, SDM_ELEMS);
    let mut image: Vec<u128> = (0..VDM_ELEMS as u128)
        .map(|i| (i * 37 + 11) % 3329)
        .collect();
    let top = match width {
        WidthClass::Small => u128::from(u64::MAX),
        WidthClass::Wide => u128::MAX,
    };
    for (i, slot) in image[POISON_BASE..].iter_mut().enumerate() {
        *slot = if i % 2 == 0 {
            (VDM_ELEMS + i) as u128
        } else {
            top - i as u128
        };
    }
    sim.write_vdm(0, &image).unwrap();
    for (t, q) in [primes[0], primes[3]].into_iter().enumerate() {
        let spread = |i: u128| i.wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835);
        let values = (1..=TABLE_LEN as u128)
            .map(|i| spread(i + t as u128) % q)
            .collect();
        let span = (TABLE_BASE + t * TABLE_LEN, TABLE_LEN);
        let tables = ConstantTables::new(q, vec![span], values);
        sim.load_constants(&tables).unwrap();
    }
    let sdm: Vec<u128> = (0..SDM_ELEMS).map(|i| primes[i % primes.len()]).collect();
    sim.write_sdm(0, &sdm).unwrap();
    for (i, &q) in primes.iter().enumerate() {
        sim.set_mrf(MReg::at(i as u8), q);
        sim.set_srf(SReg::at(i as u8), q / 3);
    }
    assert_eq!(sim.lane_bits(), width.lane_bits(), "{width:?} seed state");
    sim
}

/// Everything an integration test can observe of a simulator's state:
/// both memories and all four register files.
type Observed = (Vec<u128>, Vec<u128>, Vec<Vec<u128>>, [Vec<u128>; 3]);

fn observable_state(sim: &FunctionalSim) -> Observed {
    let vdm = sim.read_vdm(0, VDM_ELEMS).unwrap();
    let sdm = sim.read_sdm(0, SDM_ELEMS).unwrap();
    let vregs: Vec<Vec<u128>> = (0..64).map(|v| sim.vreg(VReg::at(v)).to_vec()).collect();
    let sregs: Vec<u128> = (0..64).map(|s| sim.sreg(SReg::at(s))).collect();
    let mregs: Vec<u128> = (0..64).map(|m| sim.mreg(MReg::at(m))).collect();
    let aregs: Vec<u128> = (0..64).map(|a| sim.areg(AReg::at(a)).into()).collect();
    (vdm, sdm, vregs, [sregs, mregs, aregs])
}

/// Runs a program through all three execution paths and returns a
/// description of the **first divergence** — interpreter vs fast path,
/// interpreter vs decode(encode(p)) replay, or a round-trip decode
/// mismatch — or `None` when all paths agree on the outcome and every
/// piece of observable state.
fn divergence(program: &Program, width: WidthClass) -> Option<String> {
    let mut interp = fresh_sim(width);
    let oracle = interp.run(program);

    let mut fast = fresh_sim(width);
    let fast_out = fast.run_predecoded(&PredecodedProgram::new(program.clone()));
    if oracle != fast_out {
        return Some(format!(
            "outcome mismatch, interpreter {oracle:?} vs fast path {fast_out:?}"
        ));
    }
    if observable_state(&interp) != observable_state(&fast) {
        return Some("state mismatch, interpreter vs fast path".into());
    }
    for (path, sim) in [("interpreter", &interp), ("fast path", &fast)] {
        if sim.lane_bits() != width.lane_bits() {
            return Some(format!(
                "{path} ended on {}-bit lanes, the {width:?} class runs on {}",
                sim.lane_bits(),
                width.lane_bits()
            ));
        }
    }

    let rt = match Program::from_words("rt", &program.to_words()) {
        Ok(rt) => rt,
        Err(e) => return Some(format!("binary round trip failed to decode: {e}")),
    };
    if rt.instructions() != program.instructions() {
        return Some("binary round trip decoded different instructions".into());
    }
    let mut replay = fresh_sim(width);
    let rt_out = replay.run(&rt);
    if oracle != rt_out {
        return Some(format!(
            "outcome mismatch, interpreter {oracle:?} vs round-trip replay {rt_out:?}"
        ));
    }
    if observable_state(&interp) != observable_state(&replay) {
        return Some("state mismatch, interpreter vs round-trip replay".into());
    }
    None
}

/// Rebuilds a program from an instruction subset (same name).
fn rebuild(name: &str, instrs: &[Instruction]) -> Program {
    let mut p = Program::new(name);
    for &i in instrs {
        p.push(i);
    }
    p
}

/// Greedily shrinks `program` while `fails` keeps returning `true`:
/// first binary suffix truncation (a divergence usually only needs the
/// prefix up to the offending instruction), then repeated
/// single-instruction deletion to a fixed point. The result still
/// satisfies `fails`; deterministic, worst case `O(len²)` executions.
fn shrink_program(program: &Program, fails: &dyn Fn(&Program) -> bool) -> Program {
    let mut current: Vec<Instruction> = program.instructions().to_vec();
    debug_assert!(fails(&rebuild("shrink", &current)));

    // Phase 1: find the shortest failing prefix by bisection.
    let mut lo = 1usize; // shortest length known to be able to fail
    let mut hi = current.len(); // a length that definitely fails
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fails(&rebuild("shrink", &current[..mid])) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    current.truncate(hi);

    // Phase 2: drop single instructions while the failure reproduces.
    // Restart after each successful deletion — removals can enable each
    // other (e.g. a store only mattered because a later load read it).
    loop {
        let mut improved = false;
        for i in (0..current.len()).rev() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if !candidate.is_empty() && fails(&rebuild("shrink", &candidate)) {
                current = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    rebuild("minimal_reproducer", &current)
}

#[test]
fn shrinker_isolates_a_single_offending_instruction() {
    // Plant one gather in a 24-instruction memory-shape program and ask
    // the shrinker to isolate it via a synthetic "fails if any gather"
    // predicate — the greedy pass must reach exactly one instruction.
    let mut p = random_legal_program(7, 24);
    let has_gather = |p: &Program| {
        p.instructions()
            .iter()
            .any(|i| matches!(i, Instruction::VGather { .. }))
    };
    if !has_gather(&p) {
        p.push(Instruction::VGather {
            vd: VReg::at(1),
            base: AReg::at(0),
            offset: 0,
            vi: VReg::at(2),
        });
    }
    let minimal = shrink_program(&p, &has_gather);
    assert_eq!(minimal.instructions().len(), 1, "{}", minimal.to_asm());
    assert!(has_gather(&minimal));
}

#[test]
fn shrinker_keeps_codependent_pairs() {
    // A predicate that needs both a store *and* a later load survives
    // shrinking with both halves intact, in order.
    let mut p = random_legal_program(21, 32);
    let pair = |p: &Program| {
        let is = p.instructions();
        is.iter()
            .position(|i| matches!(i, Instruction::VStore { .. }))
            .is_some_and(|s| {
                is[s + 1..]
                    .iter()
                    .any(|i| matches!(i, Instruction::VLoad { .. }))
            })
    };
    if !pair(&p) {
        p.push(Instruction::VStore {
            vs: VReg::at(3),
            base: AReg::at(0),
            offset: 0,
            mode: AddrMode::Unit,
        });
        p.push(Instruction::VLoad {
            vd: VReg::at(4),
            base: AReg::at(0),
            offset: 0,
            mode: AddrMode::Unit,
        });
    }
    let minimal = shrink_program(&p, &pair);
    assert_eq!(minimal.instructions().len(), 2, "{}", minimal.to_asm());
    assert!(matches!(
        minimal.instructions()[0],
        Instruction::VStore { .. }
    ));
    assert!(matches!(
        minimal.instructions()[1],
        Instruction::VLoad { .. }
    ));
}

/// The gather fault-injection shape must actually fault (otherwise it
/// tests nothing), and on every fault the interpreter and the fast
/// path must return the *same* typed [`ExecError`] — checked here both
/// via the full three-way [`divergence`] oracle and by comparing the
/// error values directly.
#[test]
fn gather_fault_shape_faults_with_error_parity() {
    for &width in enabled_classes() {
        let mut faults = 0usize;
        for seed in 0..48u64 {
            let program = random_shaped_program(seed, 32, GATHER_FAULT_SHAPE);
            assert!(
                divergence(&program, width).is_none(),
                "seed {seed} ({width:?}): paths diverged on a gather-fault program"
            );
            let oracle = fresh_sim(width).run(&program);
            let fast = fresh_sim(width).run_predecoded(&PredecodedProgram::new(program));
            assert_eq!(
                oracle, fast,
                "seed {seed} ({width:?}): typed outcome parity"
            );
            if oracle.is_err() {
                faults += 1;
            }
        }
        assert!(
            faults >= 8,
            "gather fault shape ({width:?}) faulted only {faults}/48 times — injection is toothless"
        );
    }
}

/// Same contract for the SDM-exhaustion shape: scalar/modulus/address
/// loads past the end of the SDM must fault identically (and with the
/// same typed error) on both execution paths.
#[test]
fn sdm_exhaustion_shape_faults_with_error_parity() {
    for &width in enabled_classes() {
        let mut faults = 0usize;
        for seed in 0..48u64 {
            let program = random_shaped_program(seed, 32, SDM_FAULT_SHAPE);
            assert!(
                divergence(&program, width).is_none(),
                "seed {seed} ({width:?}): paths diverged on an SDM-exhaustion program"
            );
            let oracle = fresh_sim(width).run(&program);
            let fast = fresh_sim(width).run_predecoded(&PredecodedProgram::new(program));
            assert_eq!(
                oracle, fast,
                "seed {seed} ({width:?}): typed outcome parity"
            );
            if oracle.is_err() {
                faults += 1;
            }
        }
        assert!(
            faults >= 8,
            "SDM exhaustion shape ({width:?}) faulted only {faults}/48 times — injection is toothless"
        );
    }
}

/// The shrinker keeps working on fault-shape programs: given a
/// faulting reproducer and the predicate "still fails with the same
/// typed error", it reaches a small program whose fault both paths
/// still agree on exactly.
#[test]
fn shrinker_minimizes_fault_injection_reproducers() {
    for &width in enabled_classes() {
        let (program, err) = (0..64u64)
            .find_map(|seed| {
                let p = random_shaped_program(seed, 32, GATHER_FAULT_SHAPE);
                let e = fresh_sim(width).run(&p).err()?;
                Some((p, e))
            })
            .expect("some gather-shape program faults");
        let same_fault = |p: &Program| fresh_sim(width).run(p).err().is_some_and(|e| e == err);
        let minimal = shrink_program(&program, &same_fault);
        assert!(
            minimal.instructions().len() <= 4,
            "shrinker ({width:?}) left {} instructions:\n{}",
            minimal.instructions().len(),
            minimal.to_asm()
        );
        assert!(same_fault(&minimal));
        // The fast path agrees on the minimal reproducer's typed error too.
        let fast = fresh_sim(width).run_predecoded(&PredecodedProgram::new(minimal.clone()));
        assert_eq!(
            fast.err(),
            Some(err),
            "fast path ({width:?}) disagrees on the minimal reproducer:\n{}",
            minimal.to_asm()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Interpreter == fast path == encode/decode round trip, on outcome
    /// and on all observable state, for random legal programs in both
    /// modulus-width classes (native-u64 and 128-bit engines). On
    /// divergence, the failure message carries a greedily shrunken
    /// minimal reproducer instead of the raw random program.
    #[test]
    fn three_executions_of_a_random_program_agree(
        seed in any::<u64>(),
        len in 1usize..48,
        wide in any::<bool>(),
    ) {
        let width = class_for(wide);
        let program = random_legal_program(seed, len);
        if let Some(reason) = divergence(&program, width) {
            let minimal = shrink_program(&program, &|p| divergence(p, width).is_some());
            let final_reason =
                divergence(&minimal, width).expect("shrinker preserves failure");
            prop_assert!(
                false,
                "seed {seed:#x}, len {len}, width {width:?}: {reason}\n\
                 minimal reproducer ({} of {} instructions, {final_reason}):\n{}",
                minimal.instructions().len(),
                len,
                minimal.to_asm(),
            );
        }
    }

    /// The same `PredecodedProgram` value stays oracle-exact when run
    /// repeatedly with evolving state (nothing may be cached between
    /// runs that depends on a particular VDM size or ARF contents).
    #[test]
    fn predecoded_programs_are_reusable(seed in any::<u64>(), wide in any::<bool>()) {
        let width = class_for(wide);
        let program = random_legal_program(seed, 16);
        let pre = PredecodedProgram::new(program.clone());
        let mut interp = fresh_sim(width);
        let mut fast = fresh_sim(width);
        for growth in [0usize, 0, 4096] {
            if growth > 0 {
                interp.ensure_vdm(VDM_ELEMS + growth);
                fast.ensure_vdm(VDM_ELEMS + growth);
            }
            let a = interp.run(&program);
            let b = fast.run_predecoded(&pre);
            prop_assert_eq!(a, b);
            prop_assert_eq!(
                interp.read_vdm(0, VDM_ELEMS).unwrap(),
                fast.read_vdm(0, VDM_ELEMS).unwrap()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Lane storage width: the narrow invariant and the one-way widening
// ---------------------------------------------------------------------

/// Moduli for the narrow-closure state, up to the top of the 64-bit
/// range: a toy prime and the Mersenne prime 2⁶¹ − 1 (native-u64
/// engine), then three the Montgomery-128 engine services on 64-bit
/// lanes — the largest prime below 2⁶⁴, 2⁶⁴ − 1 itself (odd, composite)
/// and an even one.
const NARROW_MODULI: [u128; 5] = [
    97,
    (1 << 61) - 1,
    (1 << 64) - 59,
    (1 << 64) - 1,
    (1 << 63) + 2,
];

/// A hostile all-below-2⁶⁴ state: every seventh VDM vector and the
/// poison region hold arbitrary 64-bit values — non-canonical under
/// every modulus, out of range as gather indices — the rest stays small
/// so most programs run to completion; the SDM cycles through
/// [`NARROW_MODULI`] and small scalars (so `aload` plants both sane and
/// hostile addresses), and `m0..m3` / `s0..s3` are preset.
fn narrow_sim(seed: u64) -> FunctionalSim {
    let mut r = Rng(seed ^ 0x6e61_7272_6f77);
    let mut sim = FunctionalSim::new(VDM_ELEMS, SDM_ELEMS);
    let image: Vec<u128> = (0..VDM_ELEMS)
        .map(|i| {
            if (i / 512) % 7 == 6 || i >= POISON_BASE {
                r.next().into()
            } else {
                (i as u128 * 37 + 11) % 3329
            }
        })
        .collect();
    sim.write_vdm(0, &image).unwrap();
    let sdm: Vec<u128> = (0..SDM_ELEMS)
        .map(|i| match i % 8 {
            k @ 0..=4 => NARROW_MODULI[k],
            _ => r.below(1 << 12).into(),
        })
        .collect();
    sim.write_sdm(0, &sdm).unwrap();
    for i in 0..4u8 {
        sim.set_mrf(MReg::at(i), NARROW_MODULI[usize::from(i) + 1]);
        sim.set_srf(SReg::at(i), r.next().into());
    }
    assert_eq!(sim.lane_bits(), 64, "nothing here needs more than 64 bits");
    sim
}

/// The same architectural state on 128-bit lanes: widening is one-way,
/// so writing one value of 2⁶⁴ or more and then the original back
/// leaves an always-wide twin.
fn wide_twin(sim: &FunctionalSim) -> FunctionalSim {
    let mut twin = sim.clone();
    let original = twin.sreg(SReg::at(63));
    twin.set_srf(SReg::at(63), u128::MAX);
    twin.set_srf(SReg::at(63), original);
    assert_eq!(twin.lane_bits(), 128);
    assert_eq!(observable_state(&twin), observable_state(sim));
    twin
}

/// Runs `program` on a copy of `start` through the interpreter and
/// through the fast path: `(outcome, state, lane width)` of each.
fn both_paths(
    start: &FunctionalSim,
    program: &Program,
) -> [(Result<(), rpu::sim::ExecError>, Observed, u32); 2] {
    let mut interp = start.clone();
    let oracle = interp.run(program);
    let mut fast = start.clone();
    let fast_out = fast.run_predecoded(&PredecodedProgram::new(program.clone()));
    [
        (oracle, observable_state(&interp), interp.lane_bits()),
        (fast_out, observable_state(&fast), fast.lane_bits()),
    ]
}

/// The four host entry points a value of 2⁶⁴ or more can arrive through.
const HOST_ENTRY_POINTS: [&str; 4] = ["write_vdm", "write_sdm", "set_mrf", "set_srf"];

/// Writes `value` through host entry point `entry` (an index into
/// [`HOST_ENTRY_POINTS`]) at a fixed place.
fn host_write(sim: &mut FunctionalSim, entry: usize, value: u128) {
    match HOST_ENTRY_POINTS[entry] {
        "write_vdm" => sim.write_vdm(700, &[3, value, 5]).unwrap(),
        "write_sdm" => sim.write_sdm(9, &[value]).unwrap(),
        "set_mrf" => sim.set_mrf(MReg::at(2), value),
        _ => sim.set_srf(SReg::at(1), value),
    }
}

/// An out-of-bounds host write is refused before the width is decided:
/// the state keeps its 64-bit lanes and every value it held.
#[test]
fn widening_is_not_triggered_by_a_refused_host_write() {
    let mut sim = narrow_sim(11);
    let before = observable_state(&sim);
    assert!(sim.write_vdm(VDM_ELEMS - 1, &[1, u128::MAX]).is_err());
    assert!(sim.write_sdm(SDM_ELEMS, &[u128::MAX]).is_err());
    assert!(sim.write_vdm(usize::MAX, &[u128::MAX]).is_err());
    assert_eq!(sim.lane_bits(), 64, "a refused write must not widen");
    assert_eq!(observable_state(&sim), before, "nor touch anything");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// The narrow invariant is closed under the ISA: from a state that
    /// holds no value of 2⁶⁴ or more — non-canonical lanes and moduli up
    /// to 2⁶⁴ − 1 included — no program widens the store, and on 64-bit
    /// lanes both executors end exactly where they end on the wide twin:
    /// lane for lane, register for register, fault for fault.
    #[test]
    fn narrow_closure_random_programs_stay_narrow_and_match_the_wide_twin(
        seed in any::<u64>(),
        len in 1usize..48,
    ) {
        let program = random_legal_program(seed, len);
        let narrow = narrow_sim(seed);
        let wide = wide_twin(&narrow);
        let [n_interp, n_fast] = both_paths(&narrow, &program);
        let [w_interp, w_fast] = both_paths(&wide, &program);
        prop_assert_eq!((n_interp.2, n_fast.2), (64, 64), "a program widened the store");
        prop_assert_eq!((w_interp.2, w_fast.2), (128, 128));
        for (name, run) in [("narrow fast path", &n_fast), ("wide oracle", &w_interp), ("wide fast path", &w_fast)] {
            prop_assert_eq!(&n_interp.0, &run.0, "outcome, narrow oracle vs {}:\n{}", name, program.to_asm());
            prop_assert!(n_interp.1 == run.1, "state, narrow oracle vs {}:\n{}", name, program.to_asm());
        }
    }

    /// A value of 2⁶⁴ or more arriving through any host entry point
    /// between two programs widens the store there and then, and from
    /// that point both executors track the always-wide twin exactly.
    #[test]
    fn widening_between_two_programs_matches_the_always_wide_twin(
        seed in any::<u64>(),
        entry in 0usize..4,
        value in (1u128 << 64)..(1u128 << 127),
    ) {
        let first = random_legal_program(seed, 12);
        let second = random_legal_program(seed ^ 0x5eed, 24);
        let start = narrow_sim(seed);
        let twin_start = wide_twin(&start);
        // First program (its outcome is the closure property's business).
        let mut sims = [start.clone(), start, twin_start.clone(), twin_start];
        for (i, sim) in sims.iter_mut().enumerate() {
            let _ = if i % 2 == 0 {
                sim.run(&first)
            } else {
                sim.run_predecoded(&PredecodedProgram::new(first.clone()))
            };
            prop_assert_eq!(sim.lane_bits(), if i < 2 { 64 } else { 128 });
            host_write(sim, entry, value);
            prop_assert_eq!(sim.lane_bits(), 128, "{} must widen", HOST_ENTRY_POINTS[entry]);
        }
        let reference = both_paths(&sims[0], &second);
        for sim in &sims {
            let runs = both_paths(sim, &second);
            for (got, want) in runs.iter().zip(&reference) {
                prop_assert_eq!(&got.0, &want.0, "outcome after {}", HOST_ENTRY_POINTS[entry]);
                prop_assert!(got.1 == want.1, "state after {}", HOST_ENTRY_POINTS[entry]);
            }
        }
    }
}
