//! Ring polynomials over `Z_q[x]/(x^n + 1)`.
//!
//! The basic data type RLWE ciphertext towers are made of. Coefficients
//! are `u128` residues; arithmetic is delegated to a shared
//! [`Ntt128Plan`] so repeated products amortize twiddle setup, mirroring
//! how OpenFHE caches "CRT tables" per (n, q) pair.

use crate::{Ntt128Plan, NttError};
use rpu_arith::Modulus128;
use std::sync::Arc;

/// A polynomial in `Z_q[x]/(x^n + 1)`, in either coefficient or
/// evaluation (NTT) representation.
///
/// The representation is tracked at runtime so that mixing
/// domains is a checked error rather than silent corruption.
///
/// # Examples
///
/// ```
/// use rpu_ntt::Polynomial;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = rpu_arith::find_ntt_prime_u128(60, 32).expect("prime exists");
/// let ctx = Polynomial::context(16, q)?;
/// let a = Polynomial::from_coeffs(&ctx, (0..16).collect())?;
/// let b = Polynomial::from_coeffs(&ctx, vec![1; 16])?;
/// let c = a.mul(&b); // negacyclic product via NTT
/// assert_eq!(c.coeffs().len(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Polynomial {
    ctx: Arc<Ntt128Plan>,
    /// Coefficients (natural order) or evaluations (bit-reversed order),
    /// depending on `domain`.
    values: Vec<u128>,
    domain: Domain,
}

/// Which representation a [`Polynomial`]'s values are in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Natural-order coefficients.
    Coefficient,
    /// Bit-reversed-order NTT evaluations.
    Evaluation,
}

impl Polynomial {
    /// Creates a shared ring context (an NTT plan) for degree `n` and
    /// modulus `q`.
    ///
    /// # Errors
    ///
    /// Returns [`NttError`] if the parameters do not admit an NTT.
    pub fn context(n: usize, q: u128) -> Result<Arc<Ntt128Plan>, NttError> {
        Ok(Arc::new(Ntt128Plan::new(n, q)?))
    }

    /// Wraps natural-order coefficients (reduced automatically).
    ///
    /// # Errors
    ///
    /// Returns [`NttError::InvalidDegree`] if the length does not match
    /// the context's ring degree.
    pub fn from_coeffs(ctx: &Arc<Ntt128Plan>, mut coeffs: Vec<u128>) -> Result<Self, NttError> {
        if coeffs.len() != ctx.degree() {
            return Err(NttError::InvalidDegree(coeffs.len()));
        }
        let q = ctx.modulus();
        for c in coeffs.iter_mut() {
            *c = q.reduce(*c);
        }
        Ok(Polynomial {
            ctx: Arc::clone(ctx),
            values: coeffs,
            domain: Domain::Coefficient,
        })
    }

    /// Wraps evaluations in the bit-reversed order of
    /// [`Ntt128Plan::forward`] (reduced automatically) — the values of a
    /// [`Domain::Evaluation`] polynomial. No transform runs.
    ///
    /// # Errors
    ///
    /// Returns [`NttError::InvalidDegree`] if the length does not match
    /// the context's ring degree.
    pub fn from_evaluations(ctx: &Arc<Ntt128Plan>, values: Vec<u128>) -> Result<Self, NttError> {
        let mut p = Self::from_coeffs(ctx, values)?;
        p.domain = Domain::Evaluation;
        Ok(p)
    }

    /// The zero polynomial.
    pub fn zero(ctx: &Arc<Ntt128Plan>) -> Self {
        Polynomial {
            ctx: Arc::clone(ctx),
            values: vec![0; ctx.degree()],
            domain: Domain::Coefficient,
        }
    }

    /// Current representation.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The ring modulus.
    pub fn modulus(&self) -> Modulus128 {
        self.ctx.modulus()
    }

    /// Ring degree.
    pub fn degree(&self) -> usize {
        self.ctx.degree()
    }

    /// Natural-order coefficients (converting out of the evaluation
    /// domain if needed).
    pub fn coeffs(&self) -> Vec<u128> {
        match self.domain {
            Domain::Coefficient => self.values.clone(),
            Domain::Evaluation => {
                let mut v = self.values.clone();
                self.ctx.inverse(&mut v);
                v
            }
        }
    }

    /// Raw values in the current domain.
    pub fn values(&self) -> &[u128] {
        &self.values
    }

    /// Converts to the evaluation (NTT) domain in place; a no-op if
    /// already there.
    pub fn to_evaluation(&mut self) {
        if self.domain == Domain::Coefficient {
            self.ctx.forward(&mut self.values);
            self.domain = Domain::Evaluation;
        }
    }

    /// Converts to the coefficient domain in place; a no-op if already
    /// there.
    pub fn to_coefficient(&mut self) {
        if self.domain == Domain::Evaluation {
            self.ctx.inverse(&mut self.values);
            self.domain = Domain::Coefficient;
        }
    }

    /// Pointwise addition (any matching domain).
    ///
    /// # Panics
    ///
    /// Panics if the operands use different contexts or domains.
    pub fn add(&self, rhs: &Polynomial) -> Polynomial {
        self.check_compatible(rhs);
        let q = self.ctx.modulus();
        let values = self
            .values
            .iter()
            .zip(&rhs.values)
            .map(|(&a, &b)| q.add(a, b))
            .collect();
        Polynomial {
            ctx: Arc::clone(&self.ctx),
            values,
            domain: self.domain,
        }
    }

    /// Pointwise subtraction (any matching domain).
    ///
    /// # Panics
    ///
    /// Panics if the operands use different contexts or domains.
    pub fn sub(&self, rhs: &Polynomial) -> Polynomial {
        self.check_compatible(rhs);
        let q = self.ctx.modulus();
        let values = self
            .values
            .iter()
            .zip(&rhs.values)
            .map(|(&a, &b)| q.sub(a, b))
            .collect();
        Polynomial {
            ctx: Arc::clone(&self.ctx),
            values,
            domain: self.domain,
        }
    }

    /// Negacyclic product. Operands may be in either domain; the result
    /// is returned in the evaluation domain (call
    /// [`to_coefficient`](Polynomial::to_coefficient) or
    /// [`coeffs`](Polynomial::coeffs) to convert back).
    ///
    /// # Panics
    ///
    /// Panics if the operands use different contexts.
    pub fn mul(&self, rhs: &Polynomial) -> Polynomial {
        assert!(
            Arc::ptr_eq(&self.ctx, &rhs.ctx),
            "operands must share a ring context"
        );
        let mut a = self.clone();
        let mut b = rhs.clone();
        a.to_evaluation();
        b.to_evaluation();
        let q = self.ctx.modulus();
        let values = a
            .values
            .iter()
            .zip(&b.values)
            .map(|(&x, &y)| q.mul(x, y))
            .collect();
        Polynomial {
            ctx: Arc::clone(&self.ctx),
            values,
            domain: Domain::Evaluation,
        }
    }

    /// Multiplies by a scalar residue.
    pub fn scale(&self, s: u128) -> Polynomial {
        let q = self.ctx.modulus();
        let s = q.reduce(s);
        let values = self.values.iter().map(|&a| q.mul(a, s)).collect();
        Polynomial {
            ctx: Arc::clone(&self.ctx),
            values,
            domain: self.domain,
        }
    }

    /// Multiplies by the monomial `x^k` (negacyclic rotation): useful for
    /// HE "rotate" style operations.
    ///
    /// Only valid in the coefficient domain.
    ///
    /// # Panics
    ///
    /// Panics if called in the evaluation domain.
    pub fn mul_monomial(&self, k: usize) -> Polynomial {
        assert_eq!(
            self.domain,
            Domain::Coefficient,
            "monomial multiplication requires the coefficient domain"
        );
        let n = self.degree();
        let q = self.ctx.modulus();
        let k = k % (2 * n);
        let mut values = vec![0u128; n];
        for (i, &c) in self.values.iter().enumerate() {
            let raw = i + k;
            let (pos, negate) = if raw < n {
                (raw, false)
            } else if raw < 2 * n {
                (raw - n, true)
            } else {
                (raw - 2 * n, false)
            };
            values[pos] = if negate { q.neg(c) } else { c };
        }
        Polynomial {
            ctx: Arc::clone(&self.ctx),
            values,
            domain: Domain::Coefficient,
        }
    }

    /// The Galois automorphism `σ_g : a(x) → a(x^g)` (odd `g`): the
    /// coefficient permutation with sign fix-ups that HE rotation is
    /// built on. Domain-preserving — an evaluation-form operand is
    /// converted, permuted in the coefficient domain, and converted
    /// back.
    ///
    /// # Errors
    ///
    /// Returns [`NttError::InvalidGaloisElement`] for even `g`.
    pub fn automorphism(&self, g: usize) -> Result<Polynomial, NttError> {
        let rotated = crate::apply_automorphism(&self.coeffs(), g, self.ctx.modulus().value())?;
        let mut out = Polynomial::from_coeffs(&self.ctx, rotated).expect("length preserved");
        if self.domain == Domain::Evaluation {
            out.to_evaluation();
        }
        Ok(out)
    }

    fn check_compatible(&self, rhs: &Polynomial) {
        assert!(
            Arc::ptr_eq(&self.ctx, &rhs.ctx),
            "operands must share a ring context"
        );
        assert_eq!(self.domain, rhs.domain, "operands must share a domain");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{cached_prime, schoolbook_negacyclic, test_vector};

    fn ctx(n: usize) -> Arc<Ntt128Plan> {
        Polynomial::context(n, cached_prime(126, 2 * n as u128)).unwrap()
    }

    #[test]
    fn mul_matches_schoolbook() {
        let c = ctx(32);
        let q = c.modulus();
        let av = test_vector(32, q.value(), 1);
        let bv = test_vector(32, q.value(), 2);
        let a = Polynomial::from_coeffs(&c, av.clone()).unwrap();
        let b = Polynomial::from_coeffs(&c, bv.clone()).unwrap();
        assert_eq!(a.mul(&b).coeffs(), schoolbook_negacyclic(q, &av, &bv));
    }

    #[test]
    fn add_in_both_domains_agrees() {
        let c = ctx(16);
        let q = c.modulus();
        let a = Polynomial::from_coeffs(&c, test_vector(16, q.value(), 3)).unwrap();
        let b = Polynomial::from_coeffs(&c, test_vector(16, q.value(), 4)).unwrap();
        let coeff_sum = a.add(&b).coeffs();
        let mut ae = a.clone();
        let mut be = b.clone();
        ae.to_evaluation();
        be.to_evaluation();
        assert_eq!(ae.add(&be).coeffs(), coeff_sum);
    }

    #[test]
    fn monomial_wraps_with_sign() {
        let c = ctx(4);
        let q = c.modulus();
        let a = Polynomial::from_coeffs(&c, vec![0, 0, 0, 1]).unwrap(); // x^3
        let rotated = a.mul_monomial(2); // x^5 = -x
        assert_eq!(rotated.coeffs(), vec![0, q.value() - 1, 0, 0]);
        // and it matches an actual ring product with x^2
        let x2 = Polynomial::from_coeffs(&c, vec![0, 0, 1, 0]).unwrap();
        assert_eq!(a.mul(&x2).coeffs(), rotated.coeffs());
    }

    #[test]
    fn scale_distributes() {
        let c = ctx(8);
        let q = c.modulus();
        let a = Polynomial::from_coeffs(&c, test_vector(8, q.value(), 5)).unwrap();
        let b = Polynomial::from_coeffs(&c, test_vector(8, q.value(), 6)).unwrap();
        let lhs = a.add(&b).scale(7).coeffs();
        let rhs = a.scale(7).add(&b.scale(7)).coeffs();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn domain_round_trip() {
        let c = ctx(8);
        let a0 = Polynomial::from_coeffs(&c, (0..8).collect()).unwrap();
        let mut a = a0.clone();
        a.to_evaluation();
        assert_eq!(a.domain(), Domain::Evaluation);
        a.to_coefficient();
        assert_eq!(a.values(), a0.values());
    }

    #[test]
    #[should_panic(expected = "share a domain")]
    fn mixed_domain_add_panics() {
        let c = ctx(8);
        let a = Polynomial::from_coeffs(&c, vec![1; 8]).unwrap();
        let mut b = Polynomial::from_coeffs(&c, vec![2; 8]).unwrap();
        b.to_evaluation();
        let _ = a.add(&b);
    }

    #[test]
    fn wrong_length_rejected() {
        let c = ctx(8);
        assert!(matches!(
            Polynomial::from_coeffs(&c, vec![0; 7]),
            Err(NttError::InvalidDegree(7))
        ));
    }
}
