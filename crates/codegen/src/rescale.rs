//! The fused rescale kernel: `out = (ĉ − NTT(δ)) · p⁻¹ mod q`.
//!
//! Dropping the last live prime `p` of a leveled RNS ciphertext is,
//! per surviving tower `q`, a three-step dataflow on the evaluation-form
//! component `ĉ`: transform the host-computed rounding correction `δ`
//! (natural-order coefficients, `δ ≡ c mod p`, `δ ≡ 0 mod t`) into the
//! evaluation domain, subtract it, and scale every lane by the constant
//! `p⁻¹ mod q`. This module fuses the three into one B512 program —
//! the same NTT-plus-staged-pointwise shape as the key-switch kernel,
//! with a scalar-broadcast multiply (`vsmulmod`) as the final stage:
//!
//! ```text
//! VDM:  [ fwd-NTT window: δ in, δ̂ out ][ ĉ ][ ĉ − δ̂ ][ out ]
//! SDM:  [ n⁻¹, q, p⁻¹ ]
//! ```
//!
//! Because the NTT is linear and `δ`, `p⁻¹` are exact integers, the
//! device result is bit-identical to the host oracle's coefficient-
//! domain divide-and-round — the differential suites pin this.

use crate::elementwise::emit_pointwise;
use crate::gen::Ntt;
use crate::kernel::{host_plan, GoldenFn, Kernel, KernelKey, KernelOp, KernelSpec};
use crate::layout::check_working_set;
use crate::sched::push_segment;
use crate::ElementwiseOp::SubMod;
use crate::{CodegenError, CodegenStyle, Direction};
use rpu_isa::consts::VECTOR_LEN;
use rpu_isa::{AReg, AddrMode, Instruction, MReg, Program, SReg, VReg};

/// Specification of one surviving tower's rescale step over
/// `Z_q[x]/(x^n + 1)` when dropping prime `p`: operands are the
/// rounding correction `δ` (natural-order coefficients mod `q`) and the
/// evaluation-form component `ĉ`; the output is the rescaled
/// evaluation-form component.
///
/// # Examples
///
/// ```
/// use rpu_codegen::{CodegenStyle, KernelSpec, RescaleSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let chain = rpu_arith::ModulusChain::generate(1024, 65537, 59, 2)?;
/// let spec = RescaleSpec::new(1024, chain.prime(0), chain.prime(1), CodegenStyle::Optimized);
/// let kernel = spec.generate()?;
/// assert_eq!(kernel.arity(), 2);
/// assert!(kernel.verify()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RescaleSpec {
    /// Ring degree (power of two ≥ 1024).
    pub n: usize,
    /// The surviving tower's prime modulus (`q ≡ 1 (mod 2n)`).
    pub q: u128,
    /// The dropped prime `p` (coprime to `q`).
    pub p: u128,
    /// Code-generation style applied to every segment.
    pub style: CodegenStyle,
}

impl RescaleSpec {
    /// Creates a rescale spec for surviving modulus `q`, dropped prime `p`.
    pub fn new(n: usize, q: u128, p: u128, style: CodegenStyle) -> Self {
        RescaleSpec { n, q, p, style }
    }
}

impl KernelSpec for RescaleSpec {
    fn key(&self) -> KernelKey {
        KernelKey {
            op: KernelOp::Rescale,
            n: self.n,
            q: self.q,
            direction: Direction::Forward,
            style: self.style,
            param: self.p,
        }
    }

    fn generate(&self) -> Result<Kernel, CodegenError> {
        let RescaleSpec { n, q, p, style } = *self;
        if p < 2 || p % q == 0 || q % p == 0 {
            // p must be invertible mod q for the scale stage to exist.
            return Err(CodegenError::Schedule(rpu_ntt::NttError::InvalidModulus));
        }
        let fwd = Ntt::emit(&Ntt::schedule(n, q)?, Direction::Forward, style)?;
        let w = fwd.window;
        // Regions above the NTT window; each stage reads and writes
        // disjoint ranges so the list scheduler stays honest.
        let (hat_off, diff_off, out_off) = (w, w + n, w + 2 * n);
        let total = w + 3 * n;
        check_working_set(total)?;

        let p_inv = rpu_arith::mod_inverse(p % q, q);
        // SDM layout: the NTT slots [n⁻¹, q], then p⁻¹.
        let mut sdm = fwd.sdm();
        let p_inv_slot = sdm.len();
        sdm.push(p_inv);
        let mut program = Program::new(format!("rescale{n}_{style}"));
        // Forward transform of δ (window 0); its prologue leaves q in m0
        // for the pointwise stages.
        push_segment(&mut program, &fwd.program, style, &[0]);
        // ĉ − δ̂ → diff.
        let mut sub = Program::new("sub");
        emit_pointwise(&mut sub, SubMod, n, style, hat_off, fwd.output, diff_off);
        push_segment(&mut program, &sub, style, &[0]);
        // diff · p⁻¹ → out, p⁻¹ broadcast from its SDM slot.
        let mut scale = Program::new("scale");
        emit_scale_by_scalar(&mut scale, n, diff_off, out_off, p_inv_slot);
        push_segment(&mut program, &scale, style, &[0]);

        let tables = [(fwd.twiddle_at, &fwd.twiddles[..])]; // the NTT window sits at 0
        let golden: GoldenFn = Box::new(move |ops: &[&[u128]]| {
            let plan = host_plan(n, q);
            let modulus = plan.modulus();
            let mut delta_hat = ops[0].to_vec();
            plan.forward(&mut delta_hat);
            ops[1]
                .iter()
                .zip(&delta_hat)
                .map(|(&c, &d)| modulus.mul(modulus.sub(modulus.reduce(c), d), p_inv))
                .collect()
        });
        Ok(Kernel::new(
            self.key(),
            program,
            total,
            &tables,
            sdm,
            vec![(0, n), (hat_off, n)],
            (out_off, n),
            golden,
        ))
    }
}

/// Emits the scalar-broadcast scale stage: `dst[i] = src[i] · s0 mod q`
/// over `n / 512` vectors, with `s0` loaded once from SDM slot
/// `scalar_slot` and `m0` already holding the modulus.
fn emit_scale_by_scalar(
    program: &mut Program,
    n: usize,
    src: usize,
    dst: usize,
    scalar_slot: usize,
) {
    let base = AReg::at(0);
    let m0 = MReg::at(0);
    let s0 = SReg::at(0);
    program.push(Instruction::SLoad {
        rt: s0,
        base,
        offset: scalar_slot as u32,
    });
    for v in 0..n / VECTOR_LEN {
        let r = VReg::at(1 + (v % 4) as u8);
        program.push(Instruction::VLoad {
            vd: r,
            base,
            offset: (src + v * VECTOR_LEN) as u32,
            mode: AddrMode::Unit,
        });
        program.push(Instruction::VSMulMod {
            vd: r,
            vs: r,
            rt: s0,
            rm: m0,
        });
        program.push(Instruction::VStore {
            vs: r,
            base,
            offset: (dst + v * VECTOR_LEN) as u32,
            mode: AddrMode::Unit,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_arith::{Modulus128, ModulusChain};
    use rpu_ntt::Ntt128Plan;

    fn chain(n: usize) -> ModulusChain {
        ModulusChain::generate(n, 65537, 59, 2).expect("chain exists")
    }

    #[test]
    fn verifies_against_golden_model_both_styles() {
        let n = 1024usize;
        let c = chain(n);
        for style in [CodegenStyle::Optimized, CodegenStyle::Unoptimized] {
            let kernel = RescaleSpec::new(n, c.prime(0), c.prime(1), style)
                .generate()
                .unwrap();
            assert!(kernel.verify().unwrap(), "{style:?}");
            assert_eq!(kernel.arity(), 2);
        }
    }

    #[test]
    fn computes_subtract_then_scale() {
        let n = 1024usize;
        let c = chain(n);
        let (q, p) = (c.prime(0), c.prime(1));
        let kernel = RescaleSpec::new(n, q, p, CodegenStyle::Optimized)
            .generate()
            .unwrap();
        let m = Modulus128::new(q).unwrap();
        let p_inv = rpu_arith::mod_inverse(p % q, q);
        assert_eq!(m.mul(p_inv, m.reduce(p)), 1);
        let delta: Vec<u128> = (0..n as u128).map(|i| (i * 17 + 1) % q).collect();
        let chat: Vec<u128> = (0..n as u128).map(|i| (i * 29 + 2) % q).collect();
        let got = kernel.execute(&[&delta, &chat]).unwrap();
        let mut hat = delta.clone();
        Ntt128Plan::new(n, q).unwrap().forward(&mut hat);
        for i in (0..n).step_by(97) {
            assert_eq!(got[i], m.mul(m.sub(chat[i], hat[i]), p_inv), "lane {i}");
        }
    }

    #[test]
    fn distinct_dropped_primes_have_distinct_keys() {
        let n = 1024usize;
        let c = ModulusChain::generate(n, 65537, 59, 3).expect("chain exists");
        let a = RescaleSpec::new(n, c.prime(0), c.prime(1), CodegenStyle::Optimized).key();
        let b = RescaleSpec::new(n, c.prime(0), c.prime(2), CodegenStyle::Optimized).key();
        assert_ne!(a, b, "dropped prime is part of the cache identity");
        assert_eq!(a.param, c.prime(1));
    }

    #[test]
    fn rejects_non_invertible_dropped_prime() {
        let n = 1024usize;
        let c = chain(n);
        assert!(
            RescaleSpec::new(n, c.prime(0), c.prime(0), CodegenStyle::Optimized)
                .generate()
                .is_err()
        );
        assert!(RescaleSpec::new(n, c.prime(0), 0, CodegenStyle::Optimized)
            .generate()
            .is_err());
    }
}
