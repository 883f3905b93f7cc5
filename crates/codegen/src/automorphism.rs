//! The Galois-automorphism kernel: an on-device coefficient permutation.
//!
//! HE rotation applies `σ_g : a(x) → a(x^g)` to every ciphertext
//! component — on coefficients, an arbitrary permutation with sign
//! fix-ups (`x^{ig mod 2n} = ±x^{ig mod n}`). No static B512 addressing
//! mode can express it, which is exactly what the `vgather` indexed
//! load exists for: the generator bakes the permutation's index table
//! and a `{1, q-1}` sign table into the kernel image as constants, and
//! the program streams
//!
//! ```text
//! vload   vi, index[v]     ; where does lane i read from?
//! vgather vg, input, vi    ; route: one VBAR pass per vector
//! vload   vs, sign[v]      ; +1 or q-1 per lane
//! vmulmod vo, vg, vs, m0   ; apply the negacyclic sign
//! vstore  vo, output[v]
//! ```
//!
//! The permutation itself comes from [`rpu_ntt::automorphism_map`] — the
//! same single definition the host reference and every golden model use.

use crate::gen::RegPool;
use crate::kernel::{GoldenFn, Kernel, KernelKey, KernelOp, KernelSpec};
use crate::layout::check_working_set;
use crate::sched::list_schedule;
use crate::{CodegenError, CodegenStyle, Direction};
use rpu_arith::Modulus128;
use rpu_isa::consts::VECTOR_LEN;
use rpu_isa::{AReg, AddrMode, Instruction, MReg, Program};
use rpu_ntt::{apply_automorphism, automorphism_map};

/// Specification of the coefficient permutation of `σ_g` over
/// `Z_q[x]/(x^n + 1)`: input and output are natural-order coefficient
/// vectors. The Galois element is part of the kernel identity
/// ([`KernelKey::param`]), so rotations by different amounts cache as
/// distinct kernels.
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
    /// Ring degree (multiple of 512).
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
        let modulus =
            Modulus128::new(q).ok_or(CodegenError::Schedule(rpu_ntt::NttError::InvalidModulus))?;
        let map = automorphism_map(n, g).map_err(CodegenError::Schedule)?;
        // Layout: [input n][output n][index table n][sign table n].
        let (out_off, idx_off, sign_off) = (n, 2 * n, 3 * n);
        let total = 4 * n;
        check_working_set(total)?;

        let mut base_image = vec![0u128; total];
        for (j, &(src, negate)) in map.iter().enumerate() {
            base_image[idx_off + j] = src as u128;
            base_image[sign_off + j] = if negate { q - 1 } else { 1 };
        }

        let base = AReg::at(0);
        let m0 = MReg::at(0);
        let mut program = Program::new(format!("autom{n}_g{g}_{style}"));
        // SDM image is [0, q]: the elementwise slot convention. The
        // sign fix-up constants (±1) live in the VDM as vectors.
        program.push(Instruction::MLoad {
            rt: m0,
            base,
            offset: 1,
        });
        let mut pool = RegPool::new(1, 48);
        for v in 0..n / VECTOR_LEN {
            let at = |region: usize| (region + v * VECTOR_LEN) as u32;
            let vi = pool.alloc();
            program.push(Instruction::VLoad {
                vd: vi,
                base,
                offset: at(idx_off),
                mode: AddrMode::Unit,
            });
            let vg = pool.alloc();
            program.push(Instruction::VGather {
                vd: vg,
                base,
                offset: 0, // indices are absolute within the input region
                vi,
            });
            pool.release(vi);
            let vs = pool.alloc();
            program.push(Instruction::VLoad {
                vd: vs,
                base,
                offset: at(sign_off),
                mode: AddrMode::Unit,
            });
            let vo = pool.alloc();
            program.push(Instruction::VMulMod {
                vd: vo,
                vs: vg,
                vt: vs,
                rm: m0,
            });
            pool.release(vg);
            pool.release(vs);
            program.push(Instruction::VStore {
                vs: vo,
                base,
                offset: at(out_off),
                mode: AddrMode::Unit,
            });
            pool.release(vo);
        }
        if style != CodegenStyle::Unoptimized {
            program = list_schedule(&program);
        }

        let golden: GoldenFn = Box::new(move |ops: &[&[u128]]| {
            let reduced: Vec<u128> = ops[0].iter().map(|&c| modulus.reduce(c)).collect();
            apply_automorphism(&reduced, g, q).expect("spec validated g at generation")
        });
        Ok(Kernel::new(
            self.key(),
            program,
            base_image,
            vec![(idx_off, 2 * n)], // index table, then sign table
            vec![0, q],
            vec![(0, n)],
            (out_off, n),
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
    }

    #[test]
    fn verifies_and_matches_reference_for_many_elements() {
        let n = 1024usize;
        let q = prime(n);
        for g in [1usize, 3, 5, 25, 2 * n - 1] {
            for style in [CodegenStyle::Optimized, CodegenStyle::Unoptimized] {
                let kernel = AutomorphismSpec::new(n, q, g, style).generate().unwrap();
                assert!(kernel.verify().unwrap(), "g={g} {style:?}");
            }
            let kernel = AutomorphismSpec::new(n, q, g, CodegenStyle::Optimized)
                .generate()
                .unwrap();
            let input: Vec<u128> = (0..n as u128).map(|i| (i * 31 + 7) % q).collect();
            let got = kernel.execute(&[&input]).unwrap();
            assert_eq!(got, apply_automorphism(&input, g, q).unwrap(), "g={g}");
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
}
