//! The Galois-automorphism kernel: an on-device permutation of Pease-order
//! evaluation vectors.
//!
//! HE rotation applies `σ_g : a(x) → a(x^g)` to every ciphertext
//! component. The device keeps ciphertexts in evaluation form, where
//! `σ_g` is a pure permutation of evaluation points with no signs
//! ([`rpu_ntt::evaluation_map`]): the forward transform leaves `a(ψ^{e_k})`
//! at position `k`, and `σ_g(a)(ψ^{e_k}) = a(ψ^{g·e_k})`. So a rotation
//! needs no transform around its permutation. No static B512 addressing
//! mode can express the routing, which is what the `vgather` indexed
//! load exists for: the generator bakes the permutation's index table
//! into the kernel image as a constant, and the program streams
//!
//! ```text
//! vload   vi, index[v]     ; where does lane i read from?
//! vgather vg, input, vi    ; route: one VBAR pass per vector
//! vstore  vg, output[v]
//! ```
//!
//! The routing comes from [`rpu_ntt::evaluation_map`], which derives it
//! from the output exponents `2·bitrev(p) + 1` of the forward transform,
//! in the same module as the coefficient routing the host reference
//! uses.

use crate::gen::RegPool;
use crate::kernel::{GoldenFn, Kernel, KernelKey, KernelOp, KernelSpec};
use crate::layout::check_working_set;
use crate::sched::push_segment;
use crate::{CodegenError, CodegenStyle, Direction};
use rpu_arith::Modulus128;
use rpu_isa::consts::VECTOR_LEN;
use rpu_isa::{AReg, AddrMode, Instruction, Program};
use rpu_ntt::evaluation_map;

/// Specification of `σ_g` over `Z_q[x]/(x^n + 1)` on evaluation form:
/// input and output are Pease-order evaluation vectors (the forward NTT
/// kernel's output order). The Galois element is part of the kernel
/// identity ([`KernelKey::param`]), so rotations by different amounts
/// cache as distinct kernels.
///
/// # Examples
///
/// ```
/// use rpu_codegen::{AutomorphismSpec, CodegenStyle, KernelSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = rpu_arith::find_ntt_prime_u128(126, 2048).expect("prime exists");
/// let kernel = AutomorphismSpec::new(1024, q, 5, CodegenStyle::Optimized).generate()?;
/// assert_eq!(kernel.arity(), 1);
/// assert!(kernel.verify()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AutomorphismSpec {
    /// Ring degree (a power of two, multiple of 512).
    pub n: usize,
    /// The modulus (any valid 127-bit-or-less modulus > 1).
    pub q: u128,
    /// The Galois element (odd; reduced mod `2n` at construction).
    pub g: usize,
    /// Code-generation style.
    pub style: CodegenStyle,
}

impl AutomorphismSpec {
    /// Creates an automorphism spec; `g` is normalized mod `2n` so equal
    /// automorphisms share one cache identity.
    pub fn new(n: usize, q: u128, g: usize, style: CodegenStyle) -> Self {
        let g = if n > 0 { g % (2 * n) } else { g };
        AutomorphismSpec { n, q, g, style }
    }
}

impl KernelSpec for AutomorphismSpec {
    fn key(&self) -> KernelKey {
        KernelKey {
            op: KernelOp::Automorphism,
            n: self.n,
            q: self.q,
            direction: Direction::Forward,
            style: self.style,
            param: self.g as u128,
        }
    }

    fn generate(&self) -> Result<Kernel, CodegenError> {
        let AutomorphismSpec { n, q, g, style } = *self;
        if n == 0 || !n.is_multiple_of(VECTOR_LEN) {
            return Err(CodegenError::UnsupportedDegree(n));
        }
        // The permutation reads no modulus, but the index table is a
        // constant table keyed under it.
        Modulus128::new(q).ok_or(CodegenError::Schedule(rpu_ntt::NttError::InvalidModulus))?;
        let map = evaluation_map(n, g).map_err(CodegenError::Schedule)?;
        // Layout: [input n][output n][index table n].
        let (out_off, idx_off) = (n, 2 * n);
        let total = 3 * n;
        check_working_set(total)?;

        let index: Vec<u128> = map.iter().map(|&src| src as u128).collect();

        let base = AReg::at(0);
        let mut seg = Program::new("autom");
        let mut pool = RegPool::new(1, 48);
        for v in 0..n / VECTOR_LEN {
            let at = |region: usize| (region + v * VECTOR_LEN) as u32;
            let vi = pool.alloc();
            seg.push(Instruction::VLoad {
                vd: vi,
                base,
                offset: at(idx_off),
                mode: AddrMode::Unit,
            });
            let vg = pool.alloc();
            seg.push(Instruction::VGather {
                vd: vg,
                base,
                offset: 0, // indices are absolute within the input region
                vi,
            });
            pool.release(vi);
            seg.push(Instruction::VStore {
                vs: vg,
                base,
                offset: at(out_off),
                mode: AddrMode::Unit,
            });
            pool.release(vg);
        }
        let mut program = Program::new(format!("autom{n}_g{g}_{style}"));
        push_segment(&mut program, &seg, style, &[0]);

        let golden: GoldenFn =
            Box::new(move |ops: &[&[u128]]| map.iter().map(|&src| ops[0][src]).collect());
        Ok(Kernel::new(
            self.key(),
            program,
            total,
            &[(idx_off, &index)],
            Vec::new(),
            vec![(0, n)],
            (out_off, n),
            golden,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_ntt::{apply_automorphism, Ntt128Plan};

    fn prime(n: usize) -> u128 {
        rpu_arith::find_ntt_prime_u128(126, 2 * n as u128).expect("prime exists")
    }

    #[test]
    fn rejects_invalid_parameters() {
        let q = prime(1024);
        assert!(matches!(
            AutomorphismSpec::new(100, q, 5, CodegenStyle::Optimized).generate(),
            Err(CodegenError::UnsupportedDegree(100))
        ));
        assert!(matches!(
            AutomorphismSpec::new(1024, q, 6, CodegenStyle::Optimized).generate(),
            Err(CodegenError::Schedule(_))
        ));
        // A multiple of 512 that is no power of two has no Pease order.
        assert!(matches!(
            AutomorphismSpec::new(1536, q, 5, CodegenStyle::Optimized).generate(),
            Err(CodegenError::Schedule(_))
        ));
    }

    #[test]
    fn verifies_and_matches_reference_for_many_elements() {
        // The reference: σ_g on coefficients, then the forward transform.
        let n = 1024usize;
        let q = prime(n);
        let plan = Ntt128Plan::new(n, q).unwrap();
        let forward = |mut x: Vec<u128>| {
            plan.forward(&mut x);
            x
        };
        let coeffs: Vec<u128> = (0..n as u128).map(|i| (i * 31 + 7) % q).collect();
        let input = forward(coeffs.clone());
        for g in [1usize, 3, 5, 25, 2 * n - 1] {
            let want = forward(apply_automorphism(&coeffs, g, q).unwrap());
            for style in [CodegenStyle::Optimized, CodegenStyle::Unoptimized] {
                let kernel = AutomorphismSpec::new(n, q, g, style).generate().unwrap();
                assert!(kernel.verify().unwrap(), "g={g} {style:?}");
                assert_eq!(kernel.execute(&[&input]).unwrap(), want, "g={g} {style:?}");
            }
        }
    }

    #[test]
    fn galois_element_is_part_of_the_identity() {
        let n = 1024usize;
        let q = prime(n);
        let a = AutomorphismSpec::new(n, q, 5, CodegenStyle::Optimized);
        let b = AutomorphismSpec::new(n, q, 25, CodegenStyle::Optimized);
        assert_ne!(a.key(), b.key(), "different g must not collide in caches");
        // normalization: g and g + 2n are the same automorphism
        let c = AutomorphismSpec::new(n, q, 5 + 2 * n, CodegenStyle::Optimized);
        assert_eq!(a.key(), c.key());
    }

    #[test]
    fn identity_automorphism_copies() {
        let n = 1024usize;
        let q = prime(n);
        let kernel = AutomorphismSpec::new(n, q, 1, CodegenStyle::Optimized)
            .generate()
            .unwrap();
        let input: Vec<u128> = (0..n as u128).map(|i| (i * 7 + 3) % q).collect();
        assert_eq!(kernel.execute(&[&input]).unwrap(), input);
    }

    #[test]
    fn streams_a_load_a_gather_and_a_store_per_vector() {
        // No sign table, no multiply: three instructions per vector over
        // a three-region working set.
        let n = 2048usize;
        let kernel = AutomorphismSpec::new(n, prime(n), 5, CodegenStyle::Optimized)
            .generate()
            .unwrap();
        let mut mnemonics: Vec<&str> = kernel
            .program()
            .instructions()
            .iter()
            .map(|i| i.mnemonic())
            .collect();
        mnemonics.sort_unstable();
        let vectors = n / VECTOR_LEN;
        let want: Vec<&str> = ["vgather", "vload", "vstore"]
            .iter()
            .flat_map(|&m| std::iter::repeat_n(m, vectors))
            .collect();
        assert_eq!(mnemonics, want);
        assert_eq!(kernel.total_elements(), 3 * n);
        assert_eq!(kernel.constant_spans(), [(2 * n, n)]);
        assert_eq!(kernel.sdm_elements(), 0);
    }
}
