//! The uniform spec → kernel contract behind which all generators live.
//!
//! The paper's RPU is not an NTT ASIC: the B512 ISA runs arbitrary
//! vectorized modular arithmetic, and RLWE traffic mixes transforms with
//! pointwise ciphertext operations (Section II-A, Fig. 1). Every
//! generator therefore produces the same shape:
//!
//! * [`Kernel`] — a generated program together with everything needed to
//!   run and check it: its constant tables and SDM image, operand input
//!   ranges, the output range, and a scalar golden model.
//! * [`KernelSpec`] — the object-safe trait each workload generator
//!   implements ([`NttSpec`] here, the others in their own modules); a
//!   spec is a pure value whose [`KernelKey`] identifies the generated
//!   kernel for caching.

use crate::gen::Ntt;
use crate::sched::push_segment;
use crate::{CodegenError, CodegenStyle, Direction};
use rpu_arith::EngineKind;
use rpu_isa::consts::VECTOR_LEN;
use rpu_isa::{PredecodedProgram, Program};
use rpu_ntt::Ntt128Plan;
use rpu_sim::{ConstantTables, ExecError, FunctionalSim};
use std::sync::OnceLock;

/// The workload class of a generated kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelOp {
    /// A forward or inverse negacyclic NTT.
    Ntt,
    /// Lane-wise modular multiplication of two VDM vectors.
    PointwiseMul,
    /// Lane-wise modular addition of two VDM vectors.
    PointwiseAdd,
    /// Lane-wise modular subtraction of two VDM vectors.
    PointwiseSub,
    /// The full negacyclic polynomial product: forward NTT of both
    /// operands, pointwise multiply, inverse NTT — one B512 program.
    NegacyclicMul,
    /// A Galois automorphism `x → x^g` over `Z_q[x]/(x^n + 1)` on
    /// evaluation form: a permutation of Pease-order evaluation points
    /// (indexed gather).
    Automorphism,
    /// One gadget digit of a key switch on evaluation form: pointwise
    /// multiply of the transformed digit by a resident key component,
    /// accumulate (the digit's forward NTT is a separate `Ntt`
    /// dispatch).
    KeySwitch,
    /// One surviving tower's share of a leveled rescale: forward NTT of
    /// the rounding correction `δ`, subtract from the evaluation-form
    /// component, scale by the dropped prime's inverse — one fused B512
    /// program.
    Rescale,
}

impl core::fmt::Display for KernelOp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KernelOp::Ntt => write!(f, "ntt"),
            KernelOp::PointwiseMul => write!(f, "pwmul"),
            KernelOp::PointwiseAdd => write!(f, "pwadd"),
            KernelOp::PointwiseSub => write!(f, "pwsub"),
            KernelOp::NegacyclicMul => write!(f, "negamul"),
            KernelOp::Automorphism => write!(f, "autom"),
            KernelOp::KeySwitch => write!(f, "keyswitch"),
            KernelOp::Rescale => write!(f, "rescale"),
        }
    }
}

/// The identity of a generated kernel — the cache key of the session
/// layer. Two specs with equal keys generate interchangeable kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelKey {
    /// Workload class.
    pub op: KernelOp,
    /// Ring degree / vector length.
    pub n: usize,
    /// The modulus.
    pub q: u128,
    /// Transform direction ([`Direction::Forward`] for non-NTT ops).
    pub direction: Direction,
    /// Code-generation style.
    pub style: CodegenStyle,
    /// Op-specific parameter: the Galois element `g` for
    /// [`KernelOp::Automorphism`] kernels, the dropped prime for
    /// [`KernelOp::Rescale`] kernels, `0` for every other op. Part of
    /// the identity so kernels for different automorphisms (or
    /// different dropped towers) never collide in a cache.
    pub param: u128,
}

impl KernelKey {
    /// Size in bytes of the fixed-width wire encoding: one byte each for
    /// op / direction / style, a `u64` ring degree, and two `u128`s
    /// (modulus, op parameter), all little-endian.
    pub const ENCODED_LEN: usize = 43;

    /// Serializes the key into its fixed-width little-endian wire form —
    /// the kernel-cache-key encoding the snapshot format records so a
    /// restored session can re-pin every cached kernel.
    pub fn to_bytes(&self) -> [u8; Self::ENCODED_LEN] {
        let mut out = [0u8; Self::ENCODED_LEN];
        out[0] = match self.op {
            KernelOp::Ntt => 0,
            KernelOp::PointwiseMul => 1,
            KernelOp::PointwiseAdd => 2,
            KernelOp::PointwiseSub => 3,
            KernelOp::NegacyclicMul => 4,
            KernelOp::Automorphism => 5,
            KernelOp::KeySwitch => 6,
            KernelOp::Rescale => 7,
        };
        out[1..9].copy_from_slice(&(self.n as u64).to_le_bytes());
        out[9..25].copy_from_slice(&self.q.to_le_bytes());
        out[25] = match self.direction {
            Direction::Forward => 0,
            Direction::Inverse => 1,
        };
        out[26] = match self.style {
            CodegenStyle::Optimized => 0,
            CodegenStyle::Unoptimized => 1,
            CodegenStyle::StridedMemory => 2,
        };
        out[27..43].copy_from_slice(&self.param.to_le_bytes());
        out
    }

    /// Decodes a key from its [`to_bytes`](KernelKey::to_bytes) form.
    /// Returns `None` for unknown op / direction / style codes (a
    /// corrupt or future-format record) instead of panicking.
    pub fn from_bytes(bytes: &[u8; Self::ENCODED_LEN]) -> Option<KernelKey> {
        let op = match bytes[0] {
            0 => KernelOp::Ntt,
            1 => KernelOp::PointwiseMul,
            2 => KernelOp::PointwiseAdd,
            3 => KernelOp::PointwiseSub,
            4 => KernelOp::NegacyclicMul,
            5 => KernelOp::Automorphism,
            6 => KernelOp::KeySwitch,
            7 => KernelOp::Rescale,
            _ => return None,
        };
        let n = u64::from_le_bytes(bytes[1..9].try_into().expect("8 bytes"));
        let n: usize = n.try_into().ok()?;
        let q = u128::from_le_bytes(bytes[9..25].try_into().expect("16 bytes"));
        let direction = match bytes[25] {
            0 => Direction::Forward,
            1 => Direction::Inverse,
            _ => return None,
        };
        let style = match bytes[26] {
            0 => CodegenStyle::Optimized,
            1 => CodegenStyle::Unoptimized,
            2 => CodegenStyle::StridedMemory,
            _ => return None,
        };
        let param = u128::from_le_bytes(bytes[27..43].try_into().expect("16 bytes"));
        Some(KernelKey {
            op,
            n,
            q,
            direction,
            style,
            param,
        })
    }
}

/// A specification of one RPU workload: a pure value that knows its
/// [`KernelKey`] and how to generate the corresponding [`Kernel`].
///
/// The trait is object-safe so heterogeneous workloads can be held as
/// one batch (`&[&dyn KernelSpec]`), each run through `RpuSession::run`
/// in the `rpu` facade crate.
pub trait KernelSpec {
    /// The cache identity of the kernel this spec generates.
    fn key(&self) -> KernelKey;

    /// Generates the kernel (the expensive step the session cache
    /// amortizes).
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError`] for unsupported parameters.
    fn generate(&self) -> Result<Kernel, CodegenError>;
}

/// The golden-model closure: operand slices in, expected output out.
pub(crate) type GoldenFn = Box<dyn Fn(&[&[u128]]) -> Vec<u128> + Send + Sync>;

/// The host plan a golden model transforms with, built from `(n, q)`
/// alone when the model runs: it shares no table with the emitter, and
/// a kernel keeps no plan between verdicts.
///
/// # Panics
///
/// Never for an `(n, q)` the emitter accepted: the plan checks the
/// same degree, modulus and root of unity.
pub(crate) fn host_plan(n: usize, q: u128) -> Ntt128Plan {
    Ntt128Plan::new(n, q).expect("the emitter accepted (n, q)")
}

/// A generated kernel: a **data-free** compiled program plus everything
/// needed to bind operands to it at dispatch time — the constant-only
/// VDM/SDM images, the operand map, and a scalar golden model.
///
/// A kernel is keyed purely by *shape* ([`KernelKey`]: op, n, q,
/// direction, style); no operand values are baked into the program or
/// its images. Binding data is a separate, cheap step: either
/// host-side via [`vdm_image`](Kernel::vdm_image)/[`execute`](Kernel::execute),
/// or on-device by [`load_into`](Kernel::load_into)-ing the constants once
/// and copying operands into [`input_ranges`](Kernel::input_ranges)
/// per dispatch (what `RpuSession::dispatch` in the `rpu` facade does
/// over resident buffers).
pub struct Kernel {
    key: KernelKey,
    /// The generated program, prepared once for the fast-path executor.
    program: PredecodedProgram,
    /// VDM elements of the working set.
    total: usize,
    /// Every span of the working set the generator placed a table into —
    /// recorded by the generator, never inferred from non-zero values
    /// (an automorphism's index table legitimately contains index 0) —
    /// with its values and their Shoup quotients:
    /// the only part of the image worth keeping (a 64K NTT's working set
    /// is nearly three times its twiddle tables). Everything outside is
    /// scratch or an operand window and is zero in the image.
    tables: ConstantTables,
    sdm: Vec<u128>,
    /// `(element offset, length)` of each operand in the VDM.
    input_ranges: Vec<(usize, usize)>,
    output_range: (usize, usize),
    golden: GoldenFn,
    /// Memoized golden-model verdict (set by [`Kernel::verify`]).
    verdict: OnceLock<bool>,
}

impl core::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Kernel")
            .field("key", &self.key)
            .field("instructions", &self.program.len())
            .field("total_elements", &self.total)
            .field("inputs", &self.input_ranges)
            .field("output_range", &self.output_range)
            .finish_non_exhaustive()
    }
}

impl Kernel {
    /// Assembles a kernel from what its generator declares: a working
    /// set of `total` VDM elements and, at their offsets, the tables the
    /// program reads (generator-internal).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        key: KernelKey,
        program: Program,
        total: usize,
        tables: &[(usize, &[u128])],
        sdm: Vec<u128>,
        input_ranges: Vec<(usize, usize)>,
        output_range: (usize, usize),
        golden: GoldenFn,
    ) -> Self {
        let spans = tables.iter().map(|&(off, t)| (off, t.len())).collect();
        let values = tables.iter().flat_map(|&(_, t)| t).copied().collect();
        Kernel {
            key,
            program: PredecodedProgram::new(program),
            total,
            tables: ConstantTables::new(key.q, spans, values),
            sdm,
            input_ranges,
            output_range,
            golden,
            verdict: OnceLock::new(),
        }
    }

    /// The cache identity of this kernel.
    pub fn key(&self) -> KernelKey {
        self.key
    }

    /// The workload class.
    pub fn op(&self) -> KernelOp {
        self.key.op
    }

    /// Ring degree / vector length.
    pub fn degree(&self) -> usize {
        self.key.n
    }

    /// The modulus.
    pub fn modulus(&self) -> u128 {
        self.key.q
    }

    /// The arithmetic engine dispatch selects for this kernel, derived
    /// from the modulus width: [`EngineKind::NativeU64`] below 2⁶³,
    /// [`EngineKind::Montgomery128`] otherwise. Recorded per dispatch in
    /// `DispatchEvent`.
    pub fn engine(&self) -> EngineKind {
        EngineKind::for_modulus(self.key.q)
    }

    /// The generated B512 program.
    pub fn program(&self) -> &Program {
        self.program.program()
    }

    /// The program prepared for the fast-path executor
    /// (`FunctionalSim::run_predecoded`).
    pub fn predecoded(&self) -> &PredecodedProgram {
        &self.program
    }

    /// Number of input operands the kernel consumes.
    pub fn arity(&self) -> usize {
        self.input_ranges.len()
    }

    /// `(element offset, length)` of each operand in the VDM.
    pub fn input_ranges(&self) -> &[(usize, usize)] {
        &self.input_ranges
    }

    /// Where the kernel's output lives in the VDM (element offset, length).
    pub fn output_range(&self) -> (usize, usize) {
        self.output_range
    }

    /// Total VDM elements the kernel's working set occupies.
    pub fn total_elements(&self) -> usize {
        self.total
    }

    /// `(element offset, length)` of each constant table in the VDM
    /// working set (twiddles, gather indices) — what
    /// [`load_into`](Kernel::load_into) writes. Empty for kernels whose
    /// only constants are SDM scalars.
    pub fn constant_spans(&self) -> &[(usize, usize)] {
        self.tables.spans()
    }

    /// The constant tables [`load_into`](Kernel::load_into) writes, with
    /// their Shoup quotients.
    pub fn constant_tables(&self) -> &ConstantTables {
        &self.tables
    }

    /// Builds the initial VDM image for the given operands: zeros, the
    /// constant tables at their spans, each operand copied into its
    /// input range.
    ///
    /// # Panics
    ///
    /// Panics if the operand count or any operand length does not match
    /// [`input_ranges`](Kernel::input_ranges).
    pub fn vdm_image(&self, operands: &[&[u128]]) -> Vec<u128> {
        assert_eq!(
            operands.len(),
            self.input_ranges.len(),
            "kernel takes {} operand(s)",
            self.input_ranges.len()
        );
        let mut image = vec![0u128; self.total];
        self.tables.place(&mut image);
        for (op, &(off, len)) in operands.iter().zip(&self.input_ranges) {
            assert_eq!(op.len(), len, "operand length must match its range");
            image[off..off + len].copy_from_slice(op);
        }
        image
    }

    /// The SDM image (scalar constants such as `q` and `n^{-1}`).
    pub fn sdm_image(&self) -> Vec<u128> {
        self.sdm.clone()
    }

    /// Number of SDM elements the kernel's scalar constants occupy.
    pub fn sdm_elements(&self) -> usize {
        self.sdm.len()
    }

    /// Loads the kernel's *data-free* state into a simulator: its
    /// constant tables ([`constant_spans`](Kernel::constant_spans)) at
    /// their working-set offsets, through
    /// [`FunctionalSim::load_constants`] so the fast path multiplies by
    /// them through their quotients, and the SDM constants at element 0 —
    /// and nothing else: operand windows and scratch keep whatever they
    /// held (programs write scratch before reading it, and a dispatch
    /// binds every operand window). Returns the number of elements
    /// written. After this, the kernel can be dispatched repeatedly by
    /// refreshing only its operand ranges — constants such as twiddle
    /// tables are never written by the generated programs, so they stay
    /// valid across runs.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::HostTransferOutOfBounds`] if the simulator's
    /// VDM or SDM is smaller than the kernel's working set (grow it
    /// first with `ensure_vdm`/`ensure_sdm`); nothing is written.
    pub fn load_into(&self, sim: &mut FunctionalSim) -> Result<usize, ExecError> {
        // The whole working set must fit, not just the tables: a kernel
        // with no VDM constants still runs over `total_elements`.
        let fits = |memory, len, capacity| {
            let oob = ExecError::HostTransferOutOfBounds {
                memory,
                offset: 0,
                len,
                capacity,
            };
            (len <= capacity).then_some(()).ok_or(oob)
        };
        fits("VDM", self.total, sim.vdm_capacity())?;
        fits("SDM", self.sdm.len(), sim.sdm_capacity())?;
        let tables = sim.load_constants(&self.tables)?;
        sim.write_sdm(0, &self.sdm)?;
        Ok(tables + self.sdm.len())
    }

    /// Golden output for the given operands, from the scalar model.
    ///
    /// # Panics
    ///
    /// Panics if the operand count or lengths mismatch the kernel.
    pub fn expected_output(&self, operands: &[&[u128]]) -> Vec<u128> {
        assert_eq!(
            operands.len(),
            self.input_ranges.len(),
            "kernel takes {} operand(s)",
            self.input_ranges.len()
        );
        (self.golden)(operands)
    }

    /// Runs the kernel on a functional RPU with the given operands and
    /// returns the output range.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the program faults.
    ///
    /// # Panics
    ///
    /// Panics if the operand count or lengths mismatch the kernel.
    pub fn execute(&self, operands: &[&[u128]]) -> Result<Vec<u128>, ExecError> {
        let mut sim = FunctionalSim::new(self.total_elements(), self.sdm.len().max(16));
        sim.write_vdm(0, &self.vdm_image(operands))?;
        sim.write_sdm(0, &self.sdm)?;
        // The interpreter, deliberately: `execute`/`verify` are the
        // oracle side of the differential contract, so they must not
        // share an executor with the fast path they check.
        sim.run(self.program.program())?;
        let (off, len) = self.output_range;
        sim.read_vdm(off, len)
    }

    /// The deterministic synthetic operand family [`verify`](Kernel::verify)
    /// executes on (one vector per input range, residues mod `q`).
    pub fn synthetic_operands(&self) -> Vec<Vec<u128>> {
        let q = self.key.q;
        self.input_ranges
            .iter()
            .enumerate()
            .map(|(k, &(_, len))| {
                (0..len as u128)
                    .map(|i| (i * 0x9E37_79B9 + 12345 + k as u128 * 0x1000_0001) % q)
                    .collect()
            })
            .collect()
    }

    /// Executes the kernel on [`synthetic_operands`](Kernel::synthetic_operands)
    /// and compares the result against the golden model. The verdict is
    /// memoized on the kernel ([`verification`](Kernel::verification)),
    /// so it travels with every `Arc<Kernel>` clone.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the program faults.
    pub fn verify(&self) -> Result<bool, ExecError> {
        if let Some(&v) = self.verdict.get() {
            return Ok(v);
        }
        let operands = self.synthetic_operands();
        let refs: Vec<&[u128]> = operands.iter().map(Vec::as_slice).collect();
        let v = self.execute(&refs)? == self.expected_output(&refs);
        let _ = self.verdict.set(v);
        Ok(v)
    }

    /// The memoized golden-model verdict, if [`verify`](Kernel::verify)
    /// has completed: `Some(true)` matched, `Some(false)` mismatched,
    /// `None` not yet verified.
    pub fn verification(&self) -> Option<bool> {
        self.verdict.get().copied()
    }
}

/// Specification of a single forward or inverse negacyclic NTT: the
/// input in natural-order coefficients, the output in Pease-order
/// evaluations (or the reverse for [`Direction::Inverse`]).
///
/// # Examples
///
/// ```
/// use rpu_codegen::{CodegenStyle, Direction, KernelSpec, NttSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = rpu_arith::find_ntt_prime_u128(126, 2048).expect("prime exists");
/// let spec = NttSpec::new(1024, q, Direction::Forward, CodegenStyle::Optimized);
/// let kernel = spec.generate()?;
/// assert!(kernel.verify()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NttSpec {
    /// Ring degree (power of two ≥ 1024).
    pub n: usize,
    /// Prime modulus with `q ≡ 1 (mod 2n)`.
    pub q: u128,
    /// Transform direction.
    pub direction: Direction,
    /// Code-generation style.
    pub style: CodegenStyle,
}

impl NttSpec {
    /// Creates an NTT spec.
    pub fn new(n: usize, q: u128, direction: Direction, style: CodegenStyle) -> Self {
        NttSpec {
            n,
            q,
            direction,
            style,
        }
    }
}

impl KernelSpec for NttSpec {
    fn key(&self) -> KernelKey {
        KernelKey {
            op: KernelOp::Ntt,
            n: self.n,
            q: self.q,
            direction: self.direction,
            style: self.style,
            param: 0,
        }
    }

    fn generate(&self) -> Result<Kernel, CodegenError> {
        let NttSpec {
            n,
            q,
            direction,
            style,
        } = *self;
        let ntt = Ntt::emit(&Ntt::schedule(n, q)?, direction, style)?;
        let mut program = Program::new(format!("ntt{n}x{VECTOR_LEN}_{direction}_{style}"));
        push_segment(&mut program, &ntt.program, style, &[0]);
        let sdm = ntt.sdm();
        let tables = [(ntt.twiddle_at, &ntt.twiddles[..])];
        let golden: GoldenFn = Box::new(move |ops: &[&[u128]]| {
            let plan = host_plan(n, q);
            let mut x = ops[0].to_vec();
            match direction {
                Direction::Forward => plan.forward(&mut x),
                Direction::Inverse => plan.inverse(&mut x),
            }
            x
        });
        Ok(Kernel::new(
            self.key(),
            program,
            ntt.window,
            &tables,
            sdm,
            vec![(0, n)],
            (ntt.output, n),
            golden,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prime(n: usize) -> u128 {
        rpu_arith::find_ntt_prime_u128(126, 2 * n as u128).expect("prime exists")
    }

    #[test]
    fn ntt_spec_round_trips_through_kernel_contract() {
        let n = 1024usize;
        let spec = NttSpec::new(n, prime(n), Direction::Forward, CodegenStyle::Optimized);
        let kernel = spec.generate().unwrap();
        assert_eq!(kernel.arity(), 1);
        assert_eq!(kernel.degree(), n);
        assert_eq!(kernel.key(), spec.key());
        assert!(kernel.verify().unwrap());
    }

    #[test]
    fn ntt_kernel_twiddles_and_output_follow_the_schedule() {
        // 10 stages leave the output in buffer A, 11 in buffer B.
        for (n, output) in [(1024usize, 0), (2048, 2048)] {
            let q = prime(n);
            let schedule = rpu_ntt::PeaseSchedule::new(n, q).unwrap();
            let plan = Ntt128Plan::new(n, q).unwrap();
            let input: Vec<u128> = (0..n as u128).map(|i| (i * 31 + 5) % q).collect();
            for direction in [Direction::Forward, Direction::Inverse] {
                let spec = NttSpec::new(n, q, direction, CodegenStyle::Optimized);
                let kernel = spec.generate().unwrap();
                // One table after the two ping-pong buffers: each stage's
                // distinct twiddle vectors, stage by stage.
                let table: Vec<u128> = (0..schedule.stages())
                    .flat_map(|s| match direction {
                        Direction::Forward => schedule.twiddle_vectors(s, VECTOR_LEN),
                        Direction::Inverse => schedule.twiddle_inv_vectors(s, VECTOR_LEN),
                    })
                    .flatten()
                    .collect();
                assert_eq!(kernel.constant_spans(), [(2 * n, table.len())]);
                assert_eq!(kernel.total_elements(), 2 * n + table.len());
                let image = kernel.vdm_image(&[&input]);
                assert_eq!(image[..n], input[..]);
                assert!(image[n..2 * n].iter().all(|&x| x == 0));
                assert_eq!(image[2 * n..], table[..]);
                assert_eq!(kernel.sdm_image(), [schedule.n_inv(), q]);
                let mut want = input.clone();
                match direction {
                    Direction::Forward => plan.forward(&mut want),
                    Direction::Inverse => plan.inverse(&mut want),
                }
                assert_eq!(kernel.expected_output(&[&input]), want);
                assert_eq!(kernel.output_range(), (output, n));
                assert_eq!(kernel.execute(&[&input]).unwrap(), want, "{direction:?}");
            }
        }
    }

    #[test]
    fn engine_selection_follows_modulus_width() {
        let n = 1024usize;
        let wide = NttSpec::new(n, prime(n), Direction::Forward, CodegenStyle::Optimized)
            .generate()
            .unwrap();
        assert_eq!(wide.engine(), EngineKind::Montgomery128);
        let q59 = rpu_arith::find_ntt_prime_u64(59, 2 * n as u64).expect("prime exists");
        let narrow = NttSpec::new(n, q59 as u128, Direction::Forward, CodegenStyle::Optimized)
            .generate()
            .unwrap();
        assert_eq!(narrow.engine(), EngineKind::NativeU64);
    }

    #[test]
    fn relocation_shifts_only_vdm_references() {
        let p = rpu_isa::parse_asm(
            "r",
            "mload m0, [a0 + 1]\n\
             vload v0, [a0 + 16], unit\n\
             vstore v0, [a0 + 32], unit",
        )
        .unwrap();
        let mut out = Program::new("out");
        push_segment(&mut out, &p, CodegenStyle::Unoptimized, &[1000, 2000]);
        let asm = out.to_asm();
        assert!(asm.contains("mload   m0, [a0 + 1]"), "asm: {asm}");
        assert!(asm.contains("[a0 + 1016]"), "asm: {asm}");
        assert!(asm.contains("[a0 + 1032]"), "asm: {asm}");
        // one copy per window, in window order
        assert_eq!(out.len(), 2 * p.len());
        assert_eq!(out.instructions()[3], p.instructions()[0]);
        assert!(asm.contains("[a0 + 2016]"), "asm: {asm}");
    }
}
