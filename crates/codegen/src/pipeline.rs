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
//! The three NTT regions are the NTT emitter's programs placed in
//! disjoint VDM windows (generated kernels address memory as
//! `a0 + static offset`, so placing a segment is a static offset
//! shift), each window with its own twiddle table; a pointwise stage
//! bridges the two forward outputs into the inverse input. All segments
//! share one SDM block `[n^{-1}, q]`.

use crate::elementwise::emit_pointwise;
use crate::gen::Ntt;
use crate::kernel::{host_plan, GoldenFn, Kernel, KernelKey, KernelOp, KernelSpec};
use crate::layout::check_working_set;
use crate::sched::push_segment;
use crate::ElementwiseOp::MulMod;
use crate::{CodegenError, CodegenStyle, Direction};
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
        let schedule = Ntt::schedule(n, q)?;
        let fwd = Ntt::emit(&schedule, Direction::Forward, style)?;
        let inv = Ntt::emit(&schedule, Direction::Inverse, style)?;
        let (region_b, region_inv) = (fwd.window, 2 * fwd.window);
        let total = region_inv + inv.window;
        check_working_set(total)?;

        let mut program = Program::new(format!("negamul{}_{}", n, style));
        // Forward transforms of A (window 0) and B (window region_b).
        push_segment(&mut program, &fwd.program, style, &[0, region_b]);
        // Pointwise multiply Â·B̂ into the inverse segment's input buffer
        // (its ping-pong buffer A, at the start of its window). m0 still
        // holds q from the forward prologues.
        let mut pointwise = Program::new("pointwise");
        let (a_hat, b_hat) = (fwd.output, region_b + fwd.output);
        emit_pointwise(&mut pointwise, MulMod, n, style, a_hat, b_hat, region_inv);
        push_segment(&mut program, &pointwise, style, &[0]);
        // Inverse transform back to coefficients (window region_inv).
        push_segment(&mut program, &inv.program, style, &[region_inv]);

        // Each window keeps its own twiddles (the forward table twice;
        // VDM capacity is checked above). All segments share one SDM
        // block [n^{-1}, q].
        let sdm = fwd.sdm();
        let tables = [
            (fwd.twiddle_at, &fwd.twiddles[..]),
            (region_b + fwd.twiddle_at, &fwd.twiddles[..]),
            (region_inv + inv.twiddle_at, &inv.twiddles[..]),
        ];
        let golden: GoldenFn =
            Box::new(move |ops: &[&[u128]]| host_plan(n, q).negacyclic_mul(ops[0], ops[1]));
        Ok(Kernel::new(
            self.key(),
            program,
            total,
            &tables,
            sdm,
            vec![(0, n), (region_b, n)],
            (region_inv + inv.output, n),
            golden,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NttSpec;
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
        let style = CodegenStyle::Optimized;
        let conv = ConvolutionSpec::new(n, q, style).generate().unwrap();
        let fwd = NttSpec::new(n, q, Direction::Forward, style)
            .generate()
            .unwrap();
        let inv = NttSpec::new(n, q, Direction::Inverse, style)
            .generate()
            .unwrap();
        let pointwise = 4 * (n / VECTOR_LEN); // 2 loads + 1 mul + 1 store per vector
        assert_eq!(
            conv.program().len(),
            2 * fwd.program().len() + inv.program().len() + pointwise,
        );
        // the working set is three NTT windows
        assert_eq!(
            conv.total_elements(),
            2 * fwd.total_elements() + inv.total_elements()
        );
    }
}
