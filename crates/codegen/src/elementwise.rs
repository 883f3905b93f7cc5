//! Elementwise kernels: lane-wise modular arithmetic over VDM vectors.
//!
//! RLWE traffic is not only NTTs — ciphertext addition, plaintext
//! multiplication, and the pointwise stage of every polynomial product
//! are streams of `vaddmod`/`vmulmod` over full rings (Fig. 1). These
//! kernels are memory-bound (one compute instruction per three VDM
//! transfers), the opposite corner of the design space from the
//! compute-dense NTT, which makes them a useful second calibration
//! point for the cycle model.
//!
//! Layout: operand A at element 0, operand B at `n`, output at `2n`.

use crate::gen::RegPool;
use crate::kernel::{GoldenFn, Kernel, KernelKey, KernelOp, KernelSpec};
use crate::layout::check_working_set;
use crate::sched::push_segment;
use crate::{CodegenError, CodegenStyle, Direction};
use rpu_arith::Modulus128;
use rpu_isa::consts::VECTOR_LEN;
use rpu_isa::{AReg, AddrMode, Instruction, MReg, Program};

/// Software-pipeline group size (vectors in flight per "rectangle"),
/// mirroring the NTT generator's rectangles decomposition.
const GROUP: usize = 4;

/// The lane-wise operation of an [`ElementwiseSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementwiseOp {
    /// `out[i] = a[i] * b[i] mod q` — the pointwise stage of a
    /// negacyclic product, or an NTT-domain ciphertext multiply.
    MulMod,
    /// `out[i] = a[i] + b[i] mod q` — ciphertext addition.
    AddMod,
    /// `out[i] = a[i] - b[i] mod q` — ciphertext subtraction (and the
    /// `b - a·s` step of decryption).
    SubMod,
}

impl ElementwiseOp {
    fn kernel_op(self) -> KernelOp {
        match self {
            ElementwiseOp::MulMod => KernelOp::PointwiseMul,
            ElementwiseOp::AddMod => KernelOp::PointwiseAdd,
            ElementwiseOp::SubMod => KernelOp::PointwiseSub,
        }
    }
}

/// Specification of an elementwise kernel over two `n`-element vectors.
///
/// # Examples
///
/// ```
/// use rpu_codegen::{CodegenStyle, ElementwiseOp, ElementwiseSpec, KernelSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = rpu_arith::find_ntt_prime_u128(126, 2048).expect("prime exists");
/// let spec = ElementwiseSpec::new(ElementwiseOp::MulMod, 1024, q, CodegenStyle::Optimized);
/// assert!(spec.generate()?.verify()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementwiseSpec {
    /// The lane-wise operation.
    pub op: ElementwiseOp,
    /// Vector length in elements (multiple of 512).
    pub n: usize,
    /// The modulus (any valid 127-bit-or-less modulus > 1).
    pub q: u128,
    /// Code-generation style ([`CodegenStyle::Unoptimized`] emits each
    /// load–compute–store chain in plain dependency order; anything else
    /// software-pipelines and list-schedules).
    pub style: CodegenStyle,
}

impl ElementwiseSpec {
    /// Creates an elementwise spec.
    pub fn new(op: ElementwiseOp, n: usize, q: u128, style: CodegenStyle) -> Self {
        ElementwiseSpec { op, n, q, style }
    }
}

impl KernelSpec for ElementwiseSpec {
    fn key(&self) -> KernelKey {
        KernelKey {
            op: self.op.kernel_op(),
            n: self.n,
            q: self.q,
            direction: Direction::Forward,
            style: self.style,
            param: 0,
        }
    }

    fn generate(&self) -> Result<Kernel, CodegenError> {
        let ElementwiseSpec { op, n, q, style } = *self;
        let (mut seg, modulus) = pointwise_prologue(n, q, 3)?;
        emit_pointwise(&mut seg, op, n, style, 0, n, 2 * n);
        let mut program = Program::new(format!("{}{}_{}", self.key().op, n, style));
        push_segment(&mut program, &seg, style, &[0]);

        let golden: GoldenFn = Box::new(move |ops: &[&[u128]]| {
            ops[0]
                .iter()
                .zip(ops[1])
                .map(|(&a, &b)| match op {
                    ElementwiseOp::MulMod => modulus.mul(a % q, b % q),
                    ElementwiseOp::AddMod => modulus.add(a % q, b % q),
                    ElementwiseOp::SubMod => modulus.sub(a % q, b % q),
                })
                .collect()
        });
        Ok(Kernel::new(
            self.key(),
            program,
            3 * n,
            &[], // no VDM tables: the image is all operand windows
            vec![0, q],
            vec![(0, n), (n, n)],
            (2 * n, n),
            golden,
        ))
    }
}

/// What every kernel made only of pointwise stages starts with: the
/// checks (`n` a non-zero multiple of the vector length, a valid
/// modulus, a working set of `regions` `n`-element windows within the
/// address field) and a segment whose first instruction loads `q` into
/// `m0`. The SDM image is `[0, q]`: the NTT kernels' slot convention.
pub(crate) fn pointwise_prologue(
    n: usize,
    q: u128,
    regions: usize,
) -> Result<(Program, Modulus128), CodegenError> {
    if n == 0 || !n.is_multiple_of(VECTOR_LEN) {
        return Err(CodegenError::UnsupportedDegree(n));
    }
    let modulus =
        Modulus128::new(q).ok_or(CodegenError::Schedule(rpu_ntt::NttError::InvalidModulus))?;
    check_working_set(regions * n)?;
    let mut program = Program::new("pointwise");
    program.push(Instruction::MLoad {
        rt: MReg::at(0),
        base: AReg::at(0),
        offset: 1,
    });
    Ok((program, modulus))
}

/// Emits the shared pipelined load–compute–store stream:
/// `dst[i] = op(a_src[i], b_src[i])` over `n / 512` vectors, addressed
/// as static element offsets off `a0`. With a non-unoptimized `style`,
/// loads of group `g+1` are issued before the compute/store phase of
/// group `g` (the NTT generator's "rectangles" pipelining); callers
/// append the stream with `push_segment`, which list-schedules it. `m0`
/// must already hold the modulus.
///
/// Used by [`ElementwiseSpec`] (offsets `0, n, 2n`), the key-switch
/// multiply–accumulate, and the pointwise stages of the fused
/// convolution and rescale pipelines.
pub(crate) fn emit_pointwise(
    program: &mut Program,
    op: ElementwiseOp,
    n: usize,
    style: CodegenStyle,
    a_src: usize,
    b_src: usize,
    dst: usize,
) {
    let base = AReg::at(0);
    let m0 = MReg::at(0);
    let compute = |vd, vs, vt| match op {
        ElementwiseOp::MulMod => Instruction::VMulMod { vd, vs, vt, rm: m0 },
        ElementwiseOp::AddMod => Instruction::VAddMod { vd, vs, vt, rm: m0 },
        ElementwiseOp::SubMod => Instruction::VSubMod { vd, vs, vt, rm: m0 },
    };
    let vload = |vd, off: usize| Instruction::VLoad {
        vd,
        base,
        offset: off as u32,
        mode: AddrMode::Unit,
    };
    let pipelined = style != CodegenStyle::Unoptimized;
    let vectors = n / VECTOR_LEN;
    let mut pool = RegPool::new(1, 48);
    let drain = |program: &mut Program, group: Vec<(_, _, usize)>, pool: &mut RegPool| {
        for (a, b, v) in group {
            let c = pool.alloc();
            program.push(compute(c, a, b));
            pool.release(a);
            pool.release(b);
            program.push(Instruction::VStore {
                vs: c,
                base,
                offset: (dst + v * VECTOR_LEN) as u32,
                mode: AddrMode::Unit,
            });
            pool.release(c);
        }
    };
    let mut prev: Option<Vec<_>> = None;
    let mut v = 0;
    while v < vectors {
        let g = GROUP.min(vectors - v);
        let mut cur = Vec::with_capacity(g);
        for i in 0..g {
            let a = pool.alloc();
            let b = pool.alloc();
            program.push(vload(a, a_src + (v + i) * VECTOR_LEN));
            program.push(vload(b, b_src + (v + i) * VECTOR_LEN));
            cur.push((a, b, v + i));
        }
        if pipelined {
            if let Some(group) = prev.take() {
                drain(program, group, &mut pool);
            }
            prev = Some(cur);
        } else {
            drain(program, cur, &mut pool);
        }
        v += g;
    }
    if let Some(group) = prev.take() {
        drain(program, group, &mut pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prime() -> u128 {
        rpu_arith::find_ntt_prime_u128(126, 2048).expect("prime exists")
    }

    #[test]
    fn rejects_non_vector_multiple() {
        let spec =
            ElementwiseSpec::new(ElementwiseOp::MulMod, 100, prime(), CodegenStyle::Optimized);
        assert!(matches!(
            spec.generate(),
            Err(CodegenError::UnsupportedDegree(100))
        ));
    }

    #[test]
    fn all_ops_verify_both_styles() {
        for op in [
            ElementwiseOp::MulMod,
            ElementwiseOp::AddMod,
            ElementwiseOp::SubMod,
        ] {
            for style in [CodegenStyle::Optimized, CodegenStyle::Unoptimized] {
                let spec = ElementwiseSpec::new(op, 2048, prime(), style);
                let kernel = spec.generate().unwrap();
                assert!(kernel.verify().unwrap(), "{op:?} {style:?}");
                assert_eq!(kernel.arity(), 2);
            }
        }
    }

    #[test]
    fn computes_the_documented_function() {
        let q = prime();
        let m = Modulus128::new(q).unwrap();
        let n = 1024usize;
        let a: Vec<u128> = (0..n as u128).map(|i| (i * 7 + 1) % q).collect();
        let b: Vec<u128> = (0..n as u128).map(|i| (i * 13 + 2) % q).collect();
        let spec = ElementwiseSpec::new(ElementwiseOp::MulMod, n, q, CodegenStyle::Optimized);
        let out = spec.generate().unwrap().execute(&[&a, &b]).unwrap();
        for i in (0..n).step_by(111) {
            assert_eq!(out[i], m.mul(a[i], b[i]), "lane {i}");
        }
    }

    #[test]
    fn optimized_not_slower_than_unoptimized() {
        use rpu_sim::{CycleSim, RpuConfig};
        let q = prime();
        let sim = CycleSim::new(RpuConfig::pareto_128x128()).unwrap();
        let cycles = |style| {
            let spec = ElementwiseSpec::new(ElementwiseOp::MulMod, 8192, q, style);
            sim.simulate(spec.generate().unwrap().program()).cycles
        };
        assert!(cycles(CodegenStyle::Optimized) <= cycles(CodegenStyle::Unoptimized));
    }
}
