//! The fused key-switch digit kernel: `acc' = NTT(d) ⊙ k̂ ⊕ acc`.
//!
//! Gadget-decomposed key switching (relinearization after a
//! ciphertext×ciphertext multiply, and the tail of every Galois
//! rotation) is an inner product over gadget digits: the switched
//! component is `Σ_j NTT(d_j) ⊙ k̂_j` for coefficient-domain digits
//! `d_j` and resident evaluation-form key components `k̂_j`. One digit's
//! contribution is exactly the fusion this kernel compiles into a single
//! B512 program:
//!
//! ```text
//! VDM:  [ fwd-NTT window: d in, d̂ out ][ k̂ ][ acc ][ d̂·k̂ ][ out ]
//! ```
//!
//! forward NTT of the digit → pointwise multiply by the key component →
//! pointwise add into the running accumulator. The session dispatches it
//! `ℓ` times per switched component (once per digit), which is what the
//! multi-lane scheduler shards: every digit is independent work.

use crate::elementwise::emit_pointwise;
use crate::kernel::{push_relocated, GoldenFn, Kernel, KernelKey, KernelOp, KernelSpec};
use crate::layout::check_working_set;
use crate::sched::list_schedule;
use crate::{CodegenError, CodegenStyle, Direction, ElementwiseOp, NttKernel};
use rpu_isa::Program;

/// Specification of one fused key-switch digit step over
/// `Z_q[x]/(x^n + 1)`: operands are the digit's natural-order
/// coefficients, the evaluation-form key component, and the
/// evaluation-form accumulator; the output is the updated accumulator.
///
/// # Examples
///
/// ```
/// use rpu_codegen::{CodegenStyle, KernelSpec, KeySwitchSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = rpu_arith::find_ntt_prime_u128(126, 2048).expect("prime exists");
/// let kernel = KeySwitchSpec::new(1024, q, CodegenStyle::Optimized).generate()?;
/// assert_eq!(kernel.arity(), 3);
/// assert!(kernel.verify()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeySwitchSpec {
    /// Ring degree (power of two ≥ 1024).
    pub n: usize,
    /// Prime modulus with `q ≡ 1 (mod 2n)`.
    pub q: u128,
    /// Code-generation style applied to every segment.
    pub style: CodegenStyle,
}

impl KeySwitchSpec {
    /// Creates a key-switch digit spec.
    pub fn new(n: usize, q: u128, style: CodegenStyle) -> Self {
        KeySwitchSpec { n, q, style }
    }
}

impl KernelSpec for KeySwitchSpec {
    fn key(&self) -> KernelKey {
        KernelKey {
            op: KernelOp::KeySwitch,
            n: self.n,
            q: self.q,
            direction: Direction::Forward,
            style: self.style,
            param: 0,
        }
    }

    fn generate(&self) -> Result<Kernel, CodegenError> {
        let KeySwitchSpec { n, q, style } = *self;
        let fwd = NttKernel::generate(n, q, Direction::Forward, style)?;
        let w = fwd.layout().total_elements;
        // Extra regions above the NTT window; every stage reads and
        // writes disjoint ranges so the list scheduler stays honest.
        let (key_off, acc_off, prod_off, out_off) = (w, w + n, w + 2 * n, w + 3 * n);
        let total = w + 4 * n;
        check_working_set(total)?;

        let (fwd_out, _) = fwd.output_range();
        let mut program = Program::new(format!("keyswitch{n}_{style}"));
        // Forward transform of the digit (window 0); its prologue leaves
        // q in m0 for the pointwise stages.
        push_relocated(&mut program, fwd.program(), 0);
        program = stage(
            program,
            n,
            style,
            ElementwiseOp::MulMod,
            fwd_out,
            key_off,
            prod_off,
        );
        program = stage(
            program,
            n,
            style,
            ElementwiseOp::AddMod,
            prod_off,
            acc_off,
            out_off,
        );

        let mut base_image = vec![0u128; total];
        base_image[..w].copy_from_slice(&fwd.vdm_image(&vec![0u128; n]));

        let schedule = fwd.schedule().clone();
        let modulus = schedule.modulus();
        let golden: GoldenFn = Box::new(move |ops: &[&[u128]]| {
            let hat = schedule.forward(ops[0]);
            hat.iter()
                .zip(ops[1])
                .zip(ops[2])
                .map(|((&d, &k), &a)| {
                    modulus.add(modulus.mul(d, modulus.reduce(k)), modulus.reduce(a))
                })
                .collect()
        });
        Ok(Kernel::new(
            self.key(),
            program,
            base_image,
            vec![fwd.layout().twiddle_span()], // the NTT window sits at 0
            fwd.sdm_image(), // [n_inv, q, companion(n_inv)], shared slot convention
            vec![(0, n), (key_off, n), (acc_off, n)],
            (out_off, n),
            golden,
        ))
    }
}

/// Appends one pointwise stage, scheduled in isolation so the list
/// scheduler never reorders across the barrier between segments (the
/// same discipline as the fused convolution pipeline).
fn stage(
    mut program: Program,
    n: usize,
    style: CodegenStyle,
    op: ElementwiseOp,
    a_src: usize,
    b_src: usize,
    dst: usize,
) -> Program {
    let mut seg = Program::new("stage");
    emit_pointwise(&mut seg, op, n, style, a_src, b_src, dst);
    if style != CodegenStyle::Unoptimized {
        seg = list_schedule(&seg);
    }
    push_relocated(&mut program, &seg, 0);
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_ntt::PeaseSchedule;

    fn prime(n: usize) -> u128 {
        rpu_arith::find_ntt_prime_u128(126, 2 * n as u128).expect("prime exists")
    }

    #[test]
    fn verifies_against_golden_model() {
        let n = 1024usize;
        for style in [CodegenStyle::Optimized, CodegenStyle::Unoptimized] {
            let kernel = KeySwitchSpec::new(n, prime(n), style).generate().unwrap();
            assert!(kernel.verify().unwrap(), "{style:?}");
            assert_eq!(kernel.arity(), 3);
        }
    }

    #[test]
    fn computes_ntt_multiply_accumulate() {
        let n = 1024usize;
        let q = prime(n);
        let kernel = KeySwitchSpec::new(n, q, CodegenStyle::Optimized)
            .generate()
            .unwrap();
        let m = rpu_arith::Modulus128::new(q).unwrap();
        let d: Vec<u128> = (0..n as u128).map(|i| (i * 17 + 1) % q).collect();
        let k: Vec<u128> = (0..n as u128).map(|i| (i * 29 + 2) % q).collect();
        let acc: Vec<u128> = (0..n as u128).map(|i| (i * 41 + 3) % q).collect();
        let got = kernel.execute(&[&d, &k, &acc]).unwrap();
        let sched = PeaseSchedule::new(n, q).unwrap();
        let hat = sched.forward(&d);
        for i in (0..n).step_by(97) {
            assert_eq!(got[i], m.add(m.mul(hat[i], k[i]), acc[i]), "lane {i}");
        }
    }

    #[test]
    fn accumulation_chain_is_exact() {
        // Three dispatches chained through the accumulator equal the
        // host-side sum of three digit products — the relinearization
        // inner product in miniature.
        let n = 1024usize;
        let q = prime(n);
        let m = rpu_arith::Modulus128::new(q).unwrap();
        let kernel = KeySwitchSpec::new(n, q, CodegenStyle::Optimized)
            .generate()
            .unwrap();
        let sched = PeaseSchedule::new(n, q).unwrap();
        let digit = |s: u128| -> Vec<u128> { (0..n as u128).map(|i| (i * s + 5) % q).collect() };
        let key = |s: u128| -> Vec<u128> { (0..n as u128).map(|i| (i + s) % q).collect() };
        let mut acc = vec![0u128; n];
        let mut expect = vec![0u128; n];
        for j in 0..3u128 {
            let d = digit(j + 2);
            let k = key(j * 7 + 1);
            acc = kernel.execute(&[&d, &k, &acc]).unwrap();
            let hat = sched.forward(&d);
            for i in 0..n {
                expect[i] = m.add(expect[i], m.mul(hat[i], k[i]));
            }
        }
        assert_eq!(acc, expect);
    }
}
