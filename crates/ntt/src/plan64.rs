//! Word-sized (64-bit) negacyclic NTT — the CPU baseline arithmetic.
//!
//! This is a faithful Rust port of the algorithm used by OpenFHE/SEAL on
//! CPUs: the Cooley–Tukey forward transform and Gentleman–Sande inverse
//! with Harvey's lazy butterflies via Shoup-precomputed twiddles. It is
//! the "CPU-64b" series of the paper's Fig. 10.

use crate::NttError;
use rpu_arith::{power_table_bitrev, primitive_root_of_unity, Modulus128, Modulus64};

/// A planned negacyclic NTT over `Z_q[x]/(x^n + 1)` with `q < 2^62`.
///
/// The forward transform maps natural-order coefficients to a
/// bit-reversed evaluation order; the inverse accepts that order and
/// returns natural-order coefficients. Pointwise multiplication between
/// two forward-transformed polynomials therefore implements negacyclic
/// convolution.
///
/// # Examples
///
/// ```
/// use rpu_ntt::Ntt64Plan;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = rpu_arith::find_ntt_prime_u64(60, 2048).expect("prime exists");
/// let plan = Ntt64Plan::new(1024, q)?; // q ≡ 1 mod 2n
/// let mut x: Vec<u64> = (0..1024).collect();
/// let original = x.clone();
/// plan.forward(&mut x);
/// plan.inverse(&mut x);
/// assert_eq!(x, original);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Ntt64Plan {
    n: usize,
    log_n: u32,
    q: Modulus64,
    psi: u64,
    /// `psi^bitrev(i)` for CT stages, with Shoup quotients.
    fwd: Vec<u64>,
    fwd_shoup: Vec<u64>,
    /// `psi^{-bitrev(i)}` for GS stages, with Shoup quotients.
    inv: Vec<u64>,
    inv_shoup: Vec<u64>,
    n_inv: u64,
    n_inv_shoup: u64,
}

impl Ntt64Plan {
    /// Plans a transform for ring degree `n` (power of two ≥ 2) and prime
    /// modulus `q ≡ 1 (mod 2n)`, `q < 2^62`.
    ///
    /// # Errors
    ///
    /// Returns [`NttError`] if the degree or modulus is unsupported.
    pub fn new(n: usize, q: u64) -> Result<Self, NttError> {
        if n < 2 || !n.is_power_of_two() {
            return Err(NttError::InvalidDegree(n));
        }
        let modulus = Modulus64::new(q).ok_or(NttError::InvalidModulus)?;
        // Root search runs in the 128-bit field (shared helper), values fit u64.
        let m128 = Modulus128::new(q as u128).ok_or(NttError::InvalidModulus)?;
        let psi = primitive_root_of_unity(m128, 2 * n as u128)
            .map_err(|_| NttError::NoRootOfUnity { degree: n })? as u64;
        let log_n = n.trailing_zeros();

        // Twiddle tables come from the shared rpu-arith power-table
        // helper (in the 128-bit field), so all NTT plans precompute
        // through the same code.
        let psi_inv = modulus.inv(psi);
        let fwd: Vec<u64> = power_table_bitrev(m128, psi as u128, n)
            .into_iter()
            .map(|w| w as u64)
            .collect();
        let inv: Vec<u64> = power_table_bitrev(m128, psi_inv as u128, n)
            .into_iter()
            .map(|w| w as u64)
            .collect();
        let fwd_shoup = fwd.iter().map(|&w| modulus.shoup(w)).collect();
        let inv_shoup = inv.iter().map(|&w| modulus.shoup(w)).collect();
        let n_inv = modulus.inv(n as u64 % q);
        Ok(Ntt64Plan {
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
    pub fn modulus(&self) -> Modulus64 {
        self.q
    }

    /// The primitive `2n`-th root of unity used by this plan.
    pub fn psi(&self) -> u64 {
        self.psi
    }

    /// In-place forward negacyclic NTT (natural order → bit-reversed).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.degree()`.
    pub fn forward(&self, x: &mut [u64]) {
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
    pub fn inverse(&self, x: &mut [u64]) {
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
    pub fn pointwise(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        assert_eq!(b.len(), self.n);
        assert_eq!(out.len(), self.n);
        for i in 0..self.n {
            out[i] = self.q.mul(a[i], b[i]);
        }
    }

    /// Negacyclic product of two natural-order polynomials (convenience
    /// wrapper: forward both, pointwise, inverse).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ from the ring degree.
    pub fn negacyclic_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        self.forward(&mut fa);
        self.forward(&mut fb);
        let mut out = vec![0u64; self.n];
        self.pointwise(&fa, &fb, &mut out);
        self.inverse(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_arith::find_ntt_prime_u64;

    fn plan(n: usize) -> Ntt64Plan {
        let q = find_ntt_prime_u64(60, 2 * n as u64).unwrap();
        Ntt64Plan::new(n, q).unwrap()
    }

    #[test]
    fn rejects_bad_degree() {
        assert_eq!(
            Ntt64Plan::new(3, 97).unwrap_err(),
            NttError::InvalidDegree(3)
        );
        assert_eq!(
            Ntt64Plan::new(0, 97).unwrap_err(),
            NttError::InvalidDegree(0)
        );
    }

    #[test]
    fn rejects_bad_modulus() {
        // 13 ≡ 1 mod 4 fails for n=4 (needs mod 8).
        assert_eq!(
            Ntt64Plan::new(4, 13).unwrap_err(),
            NttError::NoRootOfUnity { degree: 4 }
        );
    }

    #[test]
    fn round_trip_many_sizes() {
        for log_n in [1usize, 2, 5, 10, 12] {
            let n = 1 << log_n;
            let p = plan(n);
            let orig: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9))
                .map(|v| v % p.modulus().value())
                .collect();
            let mut x = orig.clone();
            p.forward(&mut x);
            assert_ne!(x, orig, "transform must not be identity");
            p.inverse(&mut x);
            assert_eq!(x, orig, "n={n}");
        }
    }

    #[test]
    fn negacyclic_wraparound_sign() {
        // (x^(n-1)) * x = x^n = -1 mod x^n + 1.
        let n = 8;
        let p = plan(n);
        let mut a = vec![0u64; n];
        a[n - 1] = 1;
        let mut b = vec![0u64; n];
        b[1] = 1;
        let c = p.negacyclic_mul(&a, &b);
        let mut expect = vec![0u64; n];
        expect[0] = p.modulus().value() - 1; // -1
        assert_eq!(c, expect);
    }

    #[test]
    fn matches_schoolbook() {
        let n = 16;
        let p = plan(n);
        let q = p.modulus().value();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * i + 3) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (7 * i + 1) % q).collect();
        let fast = p.negacyclic_mul(&a, &b);
        // schoolbook negacyclic
        let mut slow = vec![0u64; n];
        let m = p.modulus();
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                let prod = m.mul(ai, bj);
                let k = (i + j) % n;
                if i + j < n {
                    slow[k] = m.add(slow[k], prod);
                } else {
                    slow[k] = m.sub(slow[k], prod);
                }
            }
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn linearity() {
        let n = 64;
        let p = plan(n);
        let q = p.modulus();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 31 + 5) % q.value()).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 17 + 2) % q.value()).collect();
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| q.add(x, y)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum.clone();
        p.forward(&mut fa);
        p.forward(&mut fb);
        p.forward(&mut fs);
        for i in 0..n {
            assert_eq!(fs[i], q.add(fa[i], fb[i]));
        }
    }
}
