//! The negacyclic NTT plan of the host side, written once over the
//! modular word ([`ModArith`]) and planned at two widths:
//!
//! * [`Ntt128Plan`] (`NttPlan<Modulus128>`, `q < 2^127`) — the RPU's
//!   native precision: the golden reference the functional simulator is
//!   validated against (the role OpenFHE outputs played in the paper)
//!   and the "CPU-128b" baseline of Fig. 10;
//! * [`Ntt64Plan`] (`NttPlan<Modulus64>`, `q < 2^63`) — the "CPU-64b"
//!   baseline of Fig. 10.
//!
//! The algorithm is the one OpenFHE and SEAL run on CPUs: the
//! Cooley–Tukey forward transform and Gentleman–Sande inverse with
//! Harvey's butterflies, every twiddle beside its Shoup quotient, so
//! each butterfly multiply is one `mul_shoup` on normal-domain data.
//! Fig. 10's 128b/64b gap therefore compares the same code at two word
//! widths.

use crate::NttError;
use rpu_arith::{
    bit_reverse, power_table_bitrev, primitive_root_of_unity, ModArith, Modulus128, Modulus64,
};

/// A planned negacyclic NTT over `Z_q[x]/(x^n + 1)` for a prime `q` in
/// the range of the modulus type `M`.
///
/// The forward transform maps natural-order coefficients to a
/// bit-reversed evaluation order; the inverse accepts that order and
/// returns natural-order coefficients. Pointwise multiplication between
/// two forward-transformed polynomials therefore implements negacyclic
/// convolution.
#[derive(Debug, Clone)]
pub struct NttPlan<M: ModArith> {
    n: usize,
    log_n: u32,
    q: M,
    psi: M::Word,
    /// `psi^bitrev(i)` for CT stages, with Shoup quotients.
    fwd: Vec<M::Word>,
    fwd_shoup: Vec<M::Word>,
    /// `psi^{-bitrev(i)}` for GS stages, with Shoup quotients.
    inv: Vec<M::Word>,
    inv_shoup: Vec<M::Word>,
    n_inv: M::Word,
    n_inv_shoup: M::Word,
}

/// The plan at 64 bits, `q < 2^63`: the CPU-64b baseline.
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
pub type Ntt64Plan = NttPlan<Modulus64>;

/// The plan at 128 bits, `q < 2^127`: the golden model and the
/// CPU-128b baseline.
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
pub type Ntt128Plan = NttPlan<Modulus128>;

impl<M: ModArith> NttPlan<M> {
    /// Plans a transform for ring degree `n` (power of two ≥ 2) and prime
    /// modulus `q ≡ 1 (mod 2n)` in `M`'s range.
    ///
    /// # Errors
    ///
    /// Returns [`NttError`] if the degree or modulus is unsupported.
    pub fn new(n: usize, q: M::Word) -> Result<Self, NttError> {
        if n < 2 || !n.is_power_of_two() {
            return Err(NttError::InvalidDegree(n));
        }
        let modulus = M::new(q).ok_or(NttError::InvalidModulus)?;
        let psi = primitive_root_of_unity(modulus, 2 * n as u128)
            .map_err(|_| NttError::NoRootOfUnity { degree: n })?;
        let log_n = n.trailing_zeros();

        // The forward table comes from the shared rpu-arith power-table
        // helper, each entry beside its Shoup quotient. The inverse table
        // is read off it: psi^(−j) = −psi^(n − j) for 0 < j < n, and the
        // quotient of q − w is !shoup(w) for w ≠ 0 (every power of psi).
        let fwd = power_table_bitrev(modulus, psi, n);
        let fwd_shoup: Vec<_> = fwd.iter().map(|&w| modulus.shoup(w)).collect();
        let zero = M::Word::default();
        let (inv, inv_shoup) = (0..n)
            .map(|k| match k {
                0 => (fwd[0], fwd_shoup[0]),
                _ => {
                    let at = bit_reverse(n - bit_reverse(k, log_n), log_n);
                    (modulus.sub(zero, fwd[at]), !fwd_shoup[at])
                }
            })
            .unzip();
        let n_inv = modulus.inv(modulus.canon(n as u128));
        Ok(NttPlan {
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
    pub fn modulus(&self) -> M {
        self.q
    }

    /// The primitive `2n`-th root of unity used by this plan.
    pub fn psi(&self) -> M::Word {
        self.psi
    }

    /// In-place forward negacyclic NTT (natural order → bit-reversed).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.degree()`.
    pub fn forward(&self, x: &mut [M::Word]) {
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
    pub fn inverse(&self, x: &mut [M::Word]) {
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
    pub fn pointwise(&self, a: &[M::Word], b: &[M::Word], out: &mut [M::Word]) {
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
    pub fn negacyclic_mul(&self, a: &[M::Word], b: &[M::Word]) -> Vec<M::Word> {
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        self.forward(&mut fa);
        self.forward(&mut fb);
        let mut out = vec![M::Word::default(); self.n];
        self.pointwise(&fa, &fb, &mut out);
        self.inverse(&mut out);
        out
    }
}

#[cfg(test)]
impl<M: ModArith> NttPlan<M> {
    /// The inverse twiddle table and its Shoup quotients.
    pub(crate) fn inverse_table(&self) -> (&[M::Word], &[M::Word]) {
        (&self.inv, &self.inv_shoup)
    }
}

/// The plan's tests, written once over the word and instantiated once
/// per width: `plan128::tests` runs them on [`Modulus128`],
/// `plan64::tests` (in the crate root) on [`Modulus64`].
#[cfg(test)]
macro_rules! plan_tests {
    ($m:ty) => {
        use rpu_arith::{Lane, ModArith};
        use $crate::testutil::{cached_prime, schoolbook_negacyclic};
        use $crate::{NttError, NttPlan};

        type M = $m;
        type Word = <M as ModArith>::Word;

        /// A `2n`-NTT prime of 60 bits for `Modulus64`, of 126 for
        /// `Modulus128`.
        fn plan(n: usize) -> NttPlan<M> {
            let bits = if size_of::<Word>() == 8 { 60 } else { 126 };
            let q = cached_prime(bits, 2 * n as u128);
            NttPlan::new(n, Word::narrow(q)).expect("plan parameters are valid")
        }

        /// `f(i) mod q` for `i < n`.
        fn residues(q: M, n: usize, f: impl Fn(u128) -> u128) -> Vec<Word> {
            (0..n as u128).map(|i| q.canon(f(i))).collect()
        }

        #[test]
        fn rejects_bad_degree() {
            for n in [0, 3] {
                let err = NttPlan::<M>::new(n, Word::narrow(97)).unwrap_err();
                assert_eq!(err, NttError::InvalidDegree(n));
            }
        }

        #[test]
        fn rejects_bad_modulus() {
            // 13 ≡ 1 mod 4 fails for n=4 (needs mod 8).
            let err = NttPlan::<M>::new(4, Word::narrow(13)).unwrap_err();
            assert_eq!(err, NttError::NoRootOfUnity { degree: 4 });
        }

        #[test]
        fn rejects_an_even_modulus() {
            // q − 1 is odd, so no 2n divides it: root search finds none.
            let top = 1u128 << (8 * size_of::<Word>() - 2);
            for q in [98, top + 2] {
                let err = NttPlan::<M>::new(8, Word::narrow(q)).unwrap_err();
                assert_eq!(err, NttError::NoRootOfUnity { degree: 8 });
            }
        }

        #[test]
        fn inverse_table_is_the_power_table_of_psi_inverse() {
            // The table read off the forward one, word for word what
            // powering psi⁻¹ and dividing for every quotient gives.
            for n in [2usize, 4, 1024, 2048, 65536] {
                let p = plan(n);
                let q = p.modulus();
                let want = rpu_arith::power_table_bitrev(q, q.inv(p.psi()), n);
                let want_shoup: Vec<Word> = want.iter().map(|&w| q.shoup(w)).collect();
                let (inv, inv_shoup) = p.inverse_table();
                assert_eq!(inv, want, "n={n}");
                assert_eq!(inv_shoup, want_shoup, "n={n}");
            }
        }

        #[test]
        fn round_trip_many_sizes() {
            for log_n in [1usize, 2, 3, 5, 8, 10, 11, 12] {
                let n = 1 << log_n;
                let p = plan(n);
                let orig = residues(p.modulus(), n, |i| i * i * 7 + 13);
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
            let (zero, one) = (Word::default(), Word::narrow(1));
            let mut a = vec![zero; n];
            a[n - 1] = one;
            let mut b = vec![zero; n];
            b[1] = one;
            let mut expect = vec![zero; n];
            expect[0] = p.modulus().sub(zero, one);
            assert_eq!(p.negacyclic_mul(&a, &b), expect);
        }

        #[test]
        fn matches_schoolbook() {
            let n = 32;
            let p = plan(n);
            let a = residues(p.modulus(), n, |i| i * 1_000_003 + 5);
            let b = residues(p.modulus(), n, |i| i * 37 + 11);
            let expect = schoolbook_negacyclic(p.modulus(), &a, &b);
            assert_eq!(p.negacyclic_mul(&a, &b), expect);
        }

        #[test]
        fn linearity() {
            let n = 64;
            let p = plan(n);
            let q = p.modulus();
            let a = residues(q, n, |i| i * 31 + 5);
            let b = residues(q, n, |i| i * 17 + 2);
            let sum: Vec<_> = a.iter().zip(&b).map(|(&x, &y)| q.add(x, y)).collect();
            let [mut fa, mut fb, mut fs] = [a, b, sum];
            for x in [&mut fa, &mut fb, &mut fs] {
                p.forward(x);
            }
            for i in 0..n {
                assert_eq!(fs[i], q.add(fa[i], fb[i]));
            }
        }

        #[test]
        fn forward_output_is_evaluation_at_odd_psi_powers() {
            // out[bitrev(i)] should equal a(psi^(2i+1)) — verify directly
            // for a small ring.
            let n = 8usize;
            let p = plan(n);
            let q = p.modulus();
            let a = residues(q, n, |i| i + 1);
            let mut f = a.clone();
            p.forward(&mut f);
            for i in 0..n {
                let point = q.pow(p.psi(), Word::narrow(2 * i as u128 + 1));
                let zero = Word::default();
                let acc = (a.iter().rev()).fold(zero, |acc, &c| q.add(q.mul(acc, point), c));
                let r = rpu_arith::bit_reverse(i, p.log_degree());
                assert_eq!(f[r], acc, "i={i}");
            }
        }
    };
}
#[cfg(test)]
pub(crate) use plan_tests;

#[cfg(test)]
mod tests {
    use crate::baseline::naive_forward;
    use crate::testutil::{plan128, test_vector};
    use crate::{Ntt128Plan, Ntt64Plan};
    use rpu_arith::bit_reverse;

    plan_tests!(rpu_arith::Modulus128);

    #[test]
    fn output_exponent_is_two_bitrev_plus_one() {
        // Position p of the forward transform holds x(psi^(2·bitrev(p)+1)).
        // Every NTT kernel is verified against this plan, so this is the
        // order a lane's evaluations are in too. Every position against
        // the naive transform up to n = 4096 …
        for log_n in 1..=12u32 {
            let n = 1usize << log_n;
            let p = plan128(n);
            let x = test_vector(n, p.modulus().value(), n as u64);
            let naive = naive_forward(p.modulus(), p.psi(), &x);
            let mut f = x.clone();
            p.forward(&mut f);
            for (pos, &v) in f.iter().enumerate() {
                assert_eq!(v, naive[bit_reverse(pos, log_n)], "n={n} p={pos}");
            }
        }
        // … and sampled positions by Horner evaluation at n = 2^16.
        let n = 1usize << 16;
        let p = plan128(n);
        let q = p.modulus();
        let x = test_vector(n, q.value(), n as u64);
        let mut f = x.clone();
        p.forward(&mut f);
        for pos in (0..n).step_by(4093).chain([1, n - 1]) {
            let point = q.pow(p.psi(), 2 * bit_reverse(pos, 16) as u128 + 1);
            let want = (x.iter().rev()).fold(0, |acc, &c| q.add(q.mul(acc, point), c));
            assert_eq!(f[pos], want, "n={n} p={pos}");
        }
    }

    #[test]
    fn agrees_with_64bit_plan_on_shared_modulus() {
        // A prime small enough for both backends.
        let n = 64usize;
        let q = rpu_arith::find_ntt_prime_u64(59, 2 * n as u64).unwrap();
        let p64 = Ntt64Plan::new(n, q).unwrap();
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
}
