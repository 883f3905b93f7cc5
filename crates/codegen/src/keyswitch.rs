//! The key-switch digit kernel: `acc' = d̂ ⊙ k̂ ⊕ acc`.
//!
//! Gadget-decomposed key switching (relinearization after a
//! ciphertext×ciphertext multiply, and the tail of every Galois
//! rotation) is an inner product over gadget digits: the switched
//! component is `Σ_j d̂_j ⊙ k̂_j` for evaluation-form digits
//! `d̂_j = NTT(d_j)` and resident evaluation-form key components `k̂_j`.
//! One digit's contribution to one component is this kernel, an
//! evaluation-domain multiply–accumulate with no table of its own:
//!
//! ```text
//! VDM:  [ d̂ ][ k̂ ][ acc ][ d̂·k̂ ][ out ]
//! ```
//!
//! pointwise multiply by the key component → pointwise add into the
//! running accumulator. The forward transform of the digit is *not* in
//! here: a key has two components (`â_j`, `b̂_j`) per digit, so the
//! session transforms the digit once with the lane's forward [`NttSpec`]
//! kernel and dispatches this kernel twice on the shared `d̂` (the
//! hoisting of Halevi & Shoup, CRYPTO 2018) — `2ℓ` dispatches per key
//! switch, which is what the multi-lane scheduler shards: every digit is
//! independent work.
//!
//! [`NttSpec`]: crate::NttSpec

use crate::elementwise::{emit_pointwise, pointwise_prologue};
use crate::kernel::{GoldenFn, Kernel, KernelKey, KernelOp, KernelSpec};
use crate::sched::push_segment;
use crate::{CodegenError, CodegenStyle, Direction, ElementwiseOp};
use rpu_isa::Program;

/// Specification of one key-switch digit step over `Z_q^n`: operands are
/// the digit's evaluation form `d̂`, the evaluation-form key component
/// `k̂`, and the evaluation-form accumulator; the output is the updated
/// accumulator `d̂ ⊙ k̂ ⊕ acc`.
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
/// assert!(kernel.constant_spans().is_empty());
/// assert!(kernel.verify()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeySwitchSpec {
    /// Vector length in elements (multiple of 512).
    pub n: usize,
    /// The modulus (any valid 127-bit-or-less modulus > 1).
    pub q: u128,
    /// Code-generation style applied to both stages.
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
        let (prologue, modulus) = pointwise_prologue(n, q, 5)?;
        let mut program = Program::new(format!("keyswitch{n}_{style}"));
        push_segment(&mut program, &prologue, style, &[0]);
        let (key_off, acc_off, prod_off, out_off) = (n, 2 * n, 3 * n, 4 * n);
        // Each stage is its own segment (the same discipline as the fused
        // convolution pipeline); within a stage every load and store
        // touches a disjoint range.
        for (op, a_src, b_src, dst) in [
            (ElementwiseOp::MulMod, 0, key_off, prod_off),
            (ElementwiseOp::AddMod, prod_off, acc_off, out_off),
        ] {
            let mut seg = Program::new("stage");
            emit_pointwise(&mut seg, op, n, style, a_src, b_src, dst);
            push_segment(&mut program, &seg, style, &[0]);
        }

        let golden: GoldenFn = Box::new(move |ops: &[&[u128]]| {
            let r = |x| modulus.reduce(x);
            (ops[0].iter().zip(ops[1]).zip(ops[2]))
                .map(|((&d, &k), &a)| modulus.add(modulus.mul(r(d), r(k)), r(a)))
                .collect()
        });
        Ok(Kernel::new(
            self.key(),
            program,
            5 * n,
            &[], // no VDM tables: the image is all operand windows
            vec![0, q],
            vec![(0, n), (key_off, n), (acc_off, n)],
            (out_off, n),
            golden,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NttSpec;
    use rpu_arith::Modulus128;
    use rpu_isa::consts::VECTOR_LEN;
    use rpu_ntt::Ntt128Plan;

    fn prime(n: usize) -> u128 {
        rpu_arith::find_ntt_prime_u128(126, 2 * n as u128).expect("prime exists")
    }

    /// The two kernels a lane dispatches per digit: the forward NTT and
    /// the multiply–accumulate that consumes its output.
    fn fwd_and_ksw(n: usize, q: u128) -> (Kernel, Kernel) {
        let style = CodegenStyle::Optimized;
        let fwd = NttSpec::new(n, q, Direction::Forward, style).generate();
        let ksw = KeySwitchSpec::new(n, q, style).generate();
        (fwd.unwrap(), ksw.unwrap())
    }

    #[test]
    fn verifies_against_golden_model() {
        let n = 1024usize;
        for style in [CodegenStyle::Optimized, CodegenStyle::Unoptimized] {
            let kernel = KeySwitchSpec::new(n, prime(n), style).generate().unwrap();
            assert!(kernel.verify().unwrap(), "{style:?}");
            assert_eq!(kernel.arity(), 3);
            assert_eq!(kernel.total_elements(), 5 * n);
            assert!(kernel.constant_spans().is_empty());
            assert_eq!(kernel.sdm_image(), [0, prime(n)]);
        }
    }

    #[test]
    fn computes_ntt_multiply_accumulate() {
        // The composition the recipes dispatch: NTT(d), then d̂·k + acc.
        let n = 1024usize;
        let q = prime(n);
        let (fwd, kernel) = fwd_and_ksw(n, q);
        let m = Modulus128::new(q).unwrap();
        let d: Vec<u128> = (0..n as u128).map(|i| (i * 17 + 1) % q).collect();
        let k: Vec<u128> = (0..n as u128).map(|i| (i * 29 + 2) % q).collect();
        let acc: Vec<u128> = (0..n as u128).map(|i| (i * 41 + 3) % q).collect();
        let d_hat = fwd.execute(&[&d]).unwrap();
        let got = kernel.execute(&[&d_hat, &k, &acc]).unwrap();
        let mut hat = d.clone();
        Ntt128Plan::new(n, q).unwrap().forward(&mut hat);
        for i in (0..n).step_by(97) {
            assert_eq!(got[i], m.add(m.mul(hat[i], k[i]), acc[i]), "lane {i}");
        }
    }

    #[test]
    fn multiply_accumulates_non_canonical_operands() {
        // Operands at or above q (an unreduced host upload): the golden
        // model reduces them, and so must the program.
        let n = 1024usize;
        let q = prime(n);
        let kernel = KeySwitchSpec::new(n, q, CodegenStyle::Optimized)
            .generate()
            .unwrap();
        let m = Modulus128::new(q).unwrap();
        let d_hat: Vec<u128> = (0..n as u128).map(|i| q + i * 17).collect();
        let k: Vec<u128> = (0..n as u128).map(|i| 2 * q + i * 29 + 2).collect();
        let acc: Vec<u128> = (0..n as u128).map(|i| u128::MAX - i * 41).collect();
        let got = kernel.execute(&[&d_hat, &k, &acc]).unwrap();
        assert_eq!(got, kernel.expected_output(&[&d_hat, &k, &acc]));
        for i in 0..n {
            let expect = m.add(m.mul(d_hat[i] % q, k[i] % q), acc[i] % q);
            assert_eq!(got[i], expect, "lane {i}");
        }
    }

    #[test]
    fn accumulation_chain_is_exact() {
        // Three digits chained through the accumulator equal the
        // host-side sum of three digit products — the relinearization
        // inner product in miniature.
        let n = 1024usize;
        let q = prime(n);
        let m = Modulus128::new(q).unwrap();
        let (fwd, kernel) = fwd_and_ksw(n, q);
        let plan = Ntt128Plan::new(n, q).unwrap();
        let digit = |s: u128| -> Vec<u128> { (0..n as u128).map(|i| (i * s + 5) % q).collect() };
        let key = |s: u128| -> Vec<u128> { (0..n as u128).map(|i| (i + s) % q).collect() };
        let mut acc = vec![0u128; n];
        let mut expect = vec![0u128; n];
        for j in 0..3u128 {
            let d = digit(j + 2);
            let k = key(j * 7 + 1);
            let d_hat = fwd.execute(&[&d]).unwrap();
            acc = kernel.execute(&[&d_hat, &k, &acc]).unwrap();
            let mut hat = d.clone();
            plan.forward(&mut hat);
            for i in 0..n {
                expect[i] = m.add(expect[i], m.mul(hat[i], k[i]));
            }
        }
        assert_eq!(acc, expect);
    }

    #[test]
    fn needs_no_ntt_friendly_modulus() {
        // 2^61 - 1 is prime but 2^61 - 2 has no factor 2048: no NTT of
        // degree 1024 exists under it, the multiply–accumulate does.
        let q = (1u128 << 61) - 1;
        let style = CodegenStyle::Optimized;
        assert!(NttSpec::new(1024, q, Direction::Forward, style)
            .generate()
            .is_err());
        let kernel = KeySwitchSpec::new(1024, q, style).generate().unwrap();
        assert!(kernel.verify().unwrap());
    }

    #[test]
    fn rejects_degrees_that_are_not_whole_vectors() {
        for n in [0usize, 100, 1000, 1536 + 1] {
            let spec = KeySwitchSpec::new(n, prime(1024), CodegenStyle::Optimized);
            assert!(
                matches!(spec.generate(), Err(CodegenError::UnsupportedDegree(m)) if m == n),
                "n = {n}"
            );
        }
    }

    #[test]
    fn rejects_an_invalid_modulus() {
        for q in [0u128, 1, 1 << 127, u128::MAX] {
            let spec = KeySwitchSpec::new(1024, q, CodegenStyle::Optimized);
            let invalid = CodegenError::Schedule(rpu_ntt::NttError::InvalidModulus);
            assert_eq!(spec.generate().err(), Some(invalid), "q = {q}");
        }
    }

    #[test]
    fn rejects_a_working_set_past_the_address_field() {
        // 5 × 209 920 = 1 049 600 elements: one vector per region past
        // the 2²⁰ the static offsets reach.
        let n = 410 * VECTOR_LEN;
        let spec = KeySwitchSpec::new(n, prime(1024), CodegenStyle::Optimized);
        assert!(matches!(
            spec.generate(),
            Err(CodegenError::WorkingSetTooLarge { bytes }) if bytes == 5 * n * 16
        ));
    }
}
