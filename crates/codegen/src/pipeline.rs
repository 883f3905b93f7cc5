//! The negacyclic convolution pipeline — the paper's actual poly-mult
//! dataflow as a single on-RPU program.
//!
//! Fig. 1 of the paper decomposes an RLWE ciphertext multiplication
//! into forward NTTs of both operands, a pointwise multiply, and an
//! inverse NTT. [`ConvolutionSpec`] fuses that whole chain into one
//! B512 program so the session layer can run (and cache) a complete
//! polynomial product per kernel launch:
//!
//! ```text
//! VDM:  [ fwd-NTT(A) region ][ fwd-NTT(B) region ][ inv-NTT region ]
//!        A in, Â out          B in, B̂ out          Â·B̂ in, C out
//! ```
//!
//! The three NTT regions are independently generated [`NttKernel`]s
//! relocated to disjoint VDM windows (generated kernels address memory
//! as `a0 + static offset`, so relocation is a static offset shift);
//! the pointwise stage bridges the two forward outputs into the inverse
//! input. All segments share one SDM block `[n^{-1}, q]`.

use crate::elementwise::emit_pointwise;
use crate::kernel::{push_relocated, GoldenFn, Kernel, KernelKey, KernelOp, KernelSpec};
use crate::layout::check_working_set;
use crate::sched::list_schedule;
use crate::{CodegenError, CodegenStyle, Direction, ElementwiseOp, NttKernel};
use rpu_isa::Program;

/// Specification of a fused negacyclic polynomial multiplication:
/// `C = A ·_neg B` in `Z_q[x]/(x^n + 1)`, computed entirely on the RPU
/// as forward NTT ×2 → pointwise multiply → inverse NTT.
///
/// # Examples
///
/// ```
/// use rpu_codegen::{CodegenStyle, ConvolutionSpec, KernelSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = rpu_arith::find_ntt_prime_u128(126, 2048).expect("prime exists");
/// let kernel = ConvolutionSpec::new(1024, q, CodegenStyle::Optimized).generate()?;
/// assert_eq!(kernel.arity(), 2);
/// assert!(kernel.verify()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvolutionSpec {
    /// Ring degree (power of two ≥ 1024).
    pub n: usize,
    /// Prime modulus with `q ≡ 1 (mod 2n)`.
    pub q: u128,
    /// Code-generation style applied to every segment.
    pub style: CodegenStyle,
}

impl ConvolutionSpec {
    /// Creates a convolution spec.
    pub fn new(n: usize, q: u128, style: CodegenStyle) -> Self {
        ConvolutionSpec { n, q, style }
    }
}

impl KernelSpec for ConvolutionSpec {
    fn key(&self) -> KernelKey {
        KernelKey {
            op: KernelOp::NegacyclicMul,
            n: self.n,
            q: self.q,
            direction: Direction::Forward,
            style: self.style,
            param: 0,
        }
    }

    fn generate(&self) -> Result<Kernel, CodegenError> {
        let ConvolutionSpec { n, q, style } = *self;
        let fwd = NttKernel::generate(n, q, Direction::Forward, style)?;
        let inv = NttKernel::generate(n, q, Direction::Inverse, style)?;
        let fwd_total = fwd.layout().total_elements;
        let region_b = fwd_total;
        let region_inv = 2 * fwd_total;
        let total = 2 * fwd_total + inv.layout().total_elements;
        check_working_set(total)?;

        let (fwd_out, _) = fwd.output_range();
        let (inv_out, _) = inv.output_range();
        let mut program = Program::new(format!("negamul{}_{}", n, style));
        // Forward transforms of A (window 0) and B (window fwd_total).
        push_relocated(&mut program, fwd.program(), 0);
        push_relocated(&mut program, fwd.program(), region_b);
        // Pointwise multiply Â·B̂ into the inverse segment's input buffer
        // (its ping-pong buffer A, at the start of its window). m0 still
        // holds q from the forward prologues.
        program = pointwise_bridge(program, n, style, fwd_out, region_b + fwd_out, region_inv);
        // Inverse transform back to coefficients (window 2 * fwd_total).
        push_relocated(&mut program, inv.program(), region_inv);

        // Constant tables: each window keeps its own twiddles (duplicated
        // across the two forward windows; VDM capacity is checked above).
        let mut base_image = vec![0u128; total];
        let zero = vec![0u128; n];
        let fwd_consts = fwd.vdm_image(&zero);
        base_image[..fwd_total].copy_from_slice(&fwd_consts);
        base_image[region_b..region_b + fwd_total].copy_from_slice(&fwd_consts);
        base_image[region_inv..].copy_from_slice(&inv.vdm_image(&zero));
        let at = |region: usize, (off, len): (usize, usize)| (region + off, len);
        let constants = vec![
            fwd.layout().twiddle_span(),
            at(region_b, fwd.layout().twiddle_span()),
            at(region_inv, inv.layout().twiddle_span()),
        ];

        let sdm = fwd.sdm_image(); // [n_inv, q], shared by all NTT segments
        let (_, schedule) = fwd.into_parts();
        let modulus = schedule.modulus();
        let golden: GoldenFn = Box::new(move |ops: &[&[u128]]| {
            let fa = schedule.forward(ops[0]);
            let fb = schedule.forward(ops[1]);
            let prod: Vec<u128> = fa
                .iter()
                .zip(&fb)
                .map(|(&x, &y)| modulus.mul(x, y))
                .collect();
            schedule.inverse(&prod)
        });
        Ok(Kernel::new(
            self.key(),
            program,
            base_image,
            constants,
            sdm,
            vec![(0, n), (region_b, n)],
            (region_inv + inv_out, n),
            golden,
        ))
    }
}

/// Appends the pointwise-multiply stage: `dst[v] = a_src[v] * b_src[v]`
/// over `n / 512` vectors, via the shared
/// [`emit_pointwise`](crate::elementwise::emit_pointwise) emitter. The
/// segment is scheduled in isolation (the NTT segments were already
/// scheduled at generation) so the list scheduler never reorders across
/// the memory barrier between stages.
fn pointwise_bridge(
    mut program: Program,
    n: usize,
    style: CodegenStyle,
    a_src: usize,
    b_src: usize,
    dst: usize,
) -> Program {
    let mut stage = Program::new("pointwise");
    emit_pointwise(
        &mut stage,
        ElementwiseOp::MulMod,
        n,
        style,
        a_src,
        b_src,
        dst,
    );
    if style != CodegenStyle::Unoptimized {
        stage = list_schedule(&stage);
    }
    push_relocated(&mut program, &stage, 0);
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_isa::consts::VECTOR_LEN;
    use rpu_ntt::testutil::{schoolbook_negacyclic, test_vector};

    fn prime(n: usize) -> u128 {
        rpu_arith::find_ntt_prime_u128(126, 2 * n as u128).expect("prime exists")
    }

    #[test]
    fn convolution_verifies_and_matches_schoolbook() {
        let n = 1024usize;
        let q = prime(n);
        let kernel = ConvolutionSpec::new(n, q, CodegenStyle::Optimized)
            .generate()
            .unwrap();
        assert!(kernel.verify().unwrap());
        let a = test_vector(n, q, 3);
        let b = test_vector(n, q, 4);
        let got = kernel.execute(&[&a, &b]).unwrap();
        let m = rpu_arith::Modulus128::new(q).unwrap();
        assert_eq!(got, schoolbook_negacyclic(m, &a, &b));
    }

    #[test]
    fn unoptimized_style_also_verifies() {
        let n = 1024usize;
        let kernel = ConvolutionSpec::new(n, prime(n), CodegenStyle::Unoptimized)
            .generate()
            .unwrap();
        assert!(kernel.verify().unwrap());
    }

    #[test]
    fn program_is_three_ntts_plus_pointwise() {
        let n = 2048usize;
        let q = prime(n);
        let conv = ConvolutionSpec::new(n, q, CodegenStyle::Optimized)
            .generate()
            .unwrap();
        let fwd = NttKernel::generate(n, q, Direction::Forward, CodegenStyle::Optimized).unwrap();
        let inv = NttKernel::generate(n, q, Direction::Inverse, CodegenStyle::Optimized).unwrap();
        let pointwise = 4 * (n / VECTOR_LEN); // 2 loads + 1 mul + 1 store per vector
        assert_eq!(
            conv.program().len(),
            2 * fwd.program().len() + inv.program().len() + pointwise,
        );
        // the working set is three NTT windows
        assert_eq!(
            conv.total_elements(),
            2 * fwd.layout().total_elements + inv.layout().total_elements
        );
    }
}
