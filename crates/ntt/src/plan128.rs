//! Large-word (up to 127-bit) negacyclic NTT — the RPU's native precision.
//!
//! Used two ways in this reproduction: as the golden reference the RPU's
//! functional simulator is validated against (the role OpenFHE outputs
//! played in the paper), and as the "CPU-128b" baseline of Fig. 10. It
//! is [`Ntt64Plan`](crate::Ntt64Plan)'s algorithm at twice the width:
//! every twiddle carries its Shoup quotient, so each butterfly multiply
//! is one [`Modulus128::mul_shoup`] on normal-domain data.

use crate::NttError;
use rpu_arith::{power_table_bitrev, primitive_root_of_unity, Modulus128};

/// A planned negacyclic NTT over `Z_q[x]/(x^n + 1)` with a prime
/// `q < 2^127`.
///
/// Same ordering conventions as [`Ntt64Plan`](crate::Ntt64Plan): forward
/// is natural → bit-reversed, inverse is bit-reversed → natural.
///
/// # Examples
///
/// ```
/// use rpu_ntt::Ntt128Plan;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = rpu_arith::find_ntt_prime_u128(126, 2048).expect("prime exists");
/// let plan = Ntt128Plan::new(1024, q)?;
/// let mut x: Vec<u128> = (0..1024).collect();
/// let original = x.clone();
/// plan.forward(&mut x);
/// plan.inverse(&mut x);
/// assert_eq!(x, original);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Ntt128Plan {
    n: usize,
    log_n: u32,
    q: Modulus128,
    psi: u128,
    /// `psi^bitrev(i)` for CT stages, with Shoup quotients.
    fwd: Vec<u128>,
    fwd_shoup: Vec<u128>,
    /// `psi^{-bitrev(i)}` for GS stages, with Shoup quotients.
    inv: Vec<u128>,
    inv_shoup: Vec<u128>,
    n_inv: u128,
    n_inv_shoup: u128,
}

impl Ntt128Plan {
    /// Plans a transform for ring degree `n` (power of two ≥ 2) and prime
    /// modulus `q ≡ 1 (mod 2n)`, `q < 2^127`.
    ///
    /// # Errors
    ///
    /// Returns [`NttError`] if the degree or modulus is unsupported.
    pub fn new(n: usize, q: u128) -> Result<Self, NttError> {
        if n < 2 || !n.is_power_of_two() {
            return Err(NttError::InvalidDegree(n));
        }
        let modulus = Modulus128::new(q).ok_or(NttError::InvalidModulus)?;
        let psi = primitive_root_of_unity(modulus, 2 * n as u128)
            .map_err(|_| NttError::NoRootOfUnity { degree: n })?;
        let log_n = n.trailing_zeros();
        let psi_inv = modulus.inv(psi);

        // Twiddle tables come from the shared rpu-arith power-table
        // helper, each entry beside its Shoup quotient.
        let fwd = power_table_bitrev(modulus, psi, n);
        let inv = power_table_bitrev(modulus, psi_inv, n);
        let fwd_shoup = fwd.iter().map(|&w| modulus.shoup(w)).collect();
        let inv_shoup = inv.iter().map(|&w| modulus.shoup(w)).collect();
        let n_inv = modulus.inv(n as u128 % q);
        Ok(Ntt128Plan {
            n,
            log_n,
            q: modulus,
            psi,
            fwd,
            fwd_shoup,
            inv,
            inv_shoup,
            n_inv,
            n_inv_shoup: modulus.shoup(n_inv),
        })
    }

    /// Ring degree `n`.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// `log2(n)`.
    pub fn log_degree(&self) -> u32 {
        self.log_n
    }

    /// The modulus.
    pub fn modulus(&self) -> Modulus128 {
        self.q
    }

    /// The primitive `2n`-th root of unity used by this plan.
    pub fn psi(&self) -> u128 {
        self.psi
    }

    /// In-place forward negacyclic NTT (natural order → bit-reversed).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.degree()`.
    pub fn forward(&self, x: &mut [u128]) {
        assert_eq!(x.len(), self.n, "input length must equal ring degree");
        let q = self.q;
        let mut t = self.n;
        let mut m = 1usize;
        while m < self.n {
            t >>= 1;
            for i in 0..m {
                let j1 = 2 * i * t;
                let s = self.fwd[m + i];
                let s_sh = self.fwd_shoup[m + i];
                for j in j1..j1 + t {
                    let u = x[j];
                    let v = q.mul_shoup(x[j + t], s, s_sh);
                    x[j] = q.add(u, v);
                    x[j + t] = q.sub(u, v);
                }
            }
            m <<= 1;
        }
    }

    /// In-place inverse negacyclic NTT (bit-reversed → natural order),
    /// including the `n^{-1}` scaling.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.degree()`.
    pub fn inverse(&self, x: &mut [u128]) {
        assert_eq!(x.len(), self.n, "input length must equal ring degree");
        let q = self.q;
        let mut t = 1usize;
        let mut m = self.n;
        while m > 1 {
            let h = m / 2;
            let mut j1 = 0usize;
            for i in 0..h {
                let s = self.inv[h + i];
                let s_sh = self.inv_shoup[h + i];
                for j in j1..j1 + t {
                    let u = x[j];
                    let v = x[j + t];
                    x[j] = q.add(u, v);
                    x[j + t] = q.mul_shoup(q.sub(u, v), s, s_sh);
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        for v in x.iter_mut() {
            *v = q.mul_shoup(*v, self.n_inv, self.n_inv_shoup);
        }
    }

    /// Pointwise modular multiplication of two transformed polynomials.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ from the ring degree.
    pub fn pointwise(&self, a: &[u128], b: &[u128], out: &mut [u128]) {
        assert_eq!(a.len(), self.n);
        assert_eq!(b.len(), self.n);
        assert_eq!(out.len(), self.n);
        for i in 0..self.n {
            out[i] = self.q.mul(a[i], b[i]);
        }
    }

    /// Negacyclic product of two natural-order polynomials.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ from the ring degree.
    pub fn negacyclic_mul(&self, a: &[u128], b: &[u128]) -> Vec<u128> {
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        self.forward(&mut fa);
        self.forward(&mut fb);
        let mut out = vec![0u128; self.n];
        self.pointwise(&fa, &fb, &mut out);
        self.inverse(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{plan128, schoolbook_negacyclic};

    #[test]
    fn rejects_an_even_modulus() {
        // q − 1 is odd, so no 2n divides it: root search finds none.
        for q in [98u128, (1 << 126) + 2] {
            assert_eq!(
                Ntt128Plan::new(8, q).unwrap_err(),
                NttError::NoRootOfUnity { degree: 8 }
            );
        }
    }

    #[test]
    fn round_trip_many_sizes() {
        for log_n in [1usize, 3, 8, 11] {
            let n = 1 << log_n;
            let p = plan128(n);
            let q = p.modulus().value();
            let orig: Vec<u128> = (0..n as u128).map(|i| (i * i * 7 + 13) % q).collect();
            let mut x = orig.clone();
            p.forward(&mut x);
            p.inverse(&mut x);
            assert_eq!(x, orig, "n={n}");
        }
    }

    #[test]
    fn matches_schoolbook() {
        let n = 32;
        let p = plan128(n);
        let q = p.modulus().value();
        let a: Vec<u128> = (0..n as u128).map(|i| (i * 1_000_003 + 5) % q).collect();
        let b: Vec<u128> = (0..n as u128).map(|i| (i * 37 + 11) % q).collect();
        assert_eq!(
            p.negacyclic_mul(&a, &b),
            schoolbook_negacyclic(p.modulus(), &a, &b)
        );
    }

    #[test]
    fn agrees_with_64bit_plan_on_shared_modulus() {
        // A prime small enough for both backends.
        let n = 64usize;
        let q = rpu_arith::find_ntt_prime_u64(59, 2 * n as u64).unwrap();
        let p64 = crate::Ntt64Plan::new(n, q).unwrap();
        let p128 = Ntt128Plan::new(n, q as u128).unwrap();
        let a64: Vec<u64> = (0..n as u64).map(|i| (i * 123 + 7) % q).collect();
        let a128: Vec<u128> = a64.iter().map(|&v| v as u128).collect();
        let mut f64v = a64.clone();
        let mut f128v = a128.clone();
        p64.forward(&mut f64v);
        p128.forward(&mut f128v);
        let widened: Vec<u128> = f64v.iter().map(|&v| v as u128).collect();
        assert_eq!(widened, f128v);
    }

    #[test]
    fn forward_output_is_evaluation_at_odd_psi_powers() {
        // out[bitrev(i)] should equal a(psi^(2i+1)) — verify directly for
        // a small ring.
        let n = 8usize;
        let p = plan128(n);
        let q = p.modulus();
        let a: Vec<u128> = (1..=n as u128).collect();
        let mut f = a.clone();
        p.forward(&mut f);
        for i in 0..n {
            let point = q.pow(p.psi(), (2 * i + 1) as u128);
            let mut acc = 0u128;
            for j in (0..n).rev() {
                acc = q.add(q.mul(acc, point), a[j]);
            }
            let r = rpu_arith::bit_reverse(i, p.log_degree());
            assert_eq!(f[r], acc, "i={i}");
        }
    }
}
