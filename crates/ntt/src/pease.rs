//! Pease constant-geometry negacyclic NTT schedule.
//!
//! Section V of the paper explains that the long 512-element vectors of
//! the RPU forced a reformulation of the NTT dataflow, and that the
//! Pease and Korn–Lambiotte algorithms were added to SPIRAL as breakdown
//! rules. The Pease form is ideal for a long-vector machine because
//! **every stage has identical geometry**: butterflies always pair
//! element `j` with element `j + n/2`, and outputs are written
//! interleaved at `2j` / `2j+1` — precisely an `UNPKLO`/`UNPKHI` pair on
//! vector registers.
//!
//! This module holds what the `rpu-codegen` emitter reads to write that
//! dataflow as B512 programs: each stage's twiddles, laid out as the
//! vectors a kernel keeps in its VDM, plus `psi`, `n⁻¹` and the
//! modulus. It is not a second definition of the transform: every
//! emitted kernel is verified against [`Ntt128Plan`](crate::Ntt128Plan),
//! which shares no table with this schedule, and the Pease output order
//! is the plan's bit-reversed order.
//!
//! # The ring-splitting view
//!
//! Working in `Z_q[x]/(x^n + 1)` with `psi` a primitive `2n`-th root of
//! unity, note `x^n + 1 = x^n - psi^n`. Reduction modulo
//! `(x^m - psi^e)` splits into `(x^{m/2} - psi^{e/2})` and
//! `(x^{m/2} - psi^{e/2 + n})`, and the reduction of coefficients is the
//! Cooley–Tukey butterfly `a ± psi^{e/2}·b` — multiply **then** add/sub,
//! which is exactly the RPU's fused `bfly` instruction. Each sub-ring at
//! stage `s` uses a *single* twiddle, which is why small stages can
//! broadcast a scalar twiddle (Listing 1's `_vbroadcast`).

use crate::NttError;
use rpu_arith::{power_table, primitive_root_of_unity, ModArith, Modulus128};

/// The constant-geometry NTT schedule: the per-stage twiddles the
/// emitter writes into a kernel.
///
/// # Examples
///
/// ```
/// use rpu_ntt::PeaseSchedule;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = rpu_arith::find_ntt_prime_u128(126, 2048).expect("prime exists");
/// let sched = PeaseSchedule::new(1024, q)?;
/// assert_eq!(sched.stages(), 10);
/// // Stage 0 has one sub-ring, so one twiddle vector of 512 lanes.
/// assert_eq!(sched.twiddle_vectors(0, 512), [vec![sched.twiddle(0, 0); 512]]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PeaseSchedule {
    n: usize,
    log_n: u32,
    q: Modulus128,
    psi: u128,
    /// `stage_tw[s][r]` = twiddle for sub-ring `r` at stage `s`
    /// (`r = j mod 2^s` for pair index `j`): the one table both
    /// [`twiddle_vectors`](PeaseSchedule::twiddle_vectors) and
    /// [`twiddle_inv_vectors`](PeaseSchedule::twiddle_inv_vectors)
    /// read. Sub-ring `r` at stage `s` is `(x^{n/2^s} − psi^e)` with
    /// `e = (2·bitrev_s(r) + 1)·n/2^s`, so its inverse twiddle
    /// `psi^{−e/2} = −psi^{n − e/2}` is the negated twiddle of sub-ring
    /// `r ^ (2^s − 1)`, whose exponent is `n − e/2`. A schedule holds
    /// one table and nothing derivable.
    stage_tw: Vec<Vec<u128>>,
    n_inv: u128,
}

impl PeaseSchedule {
    /// Builds the schedule for ring degree `n` (power of two ≥ 2) and
    /// prime `q ≡ 1 (mod 2n)`.
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

        // Every sub-ring exponent is below 2n, so its twiddle psi^(e/2)
        // is an entry of one table of psi's first n powers.
        let powers = power_table(modulus, psi, n);
        let mut stage_tw = Vec::with_capacity(log_n as usize);
        // The sub-ring exponents of stage s (`exponents` below).
        let mut exps = vec![n as u128];
        for _ in 0..log_n {
            stage_tw.push(exps.iter().map(|&e| powers[(e / 2) as usize]).collect());
            exps = exps.iter().flat_map(|&e| exponents(e, n)).collect();
        }
        let n_inv = modulus.inv(n as u128 % q);
        Ok(PeaseSchedule {
            n,
            log_n,
            q: modulus,
            psi,
            stage_tw,
            n_inv,
        })
    }

    /// Ring degree `n`.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// Number of stages, `log2(n)`.
    pub fn stages(&self) -> u32 {
        self.log_n
    }

    /// The modulus.
    pub fn modulus(&self) -> Modulus128 {
        self.q
    }

    /// The primitive `2n`-th root of unity.
    pub fn psi(&self) -> u128 {
        self.psi
    }

    /// `n^{-1} mod q` (the inverse-transform scale factor).
    pub fn n_inv(&self) -> u128 {
        self.n_inv
    }

    /// Forward twiddle for butterfly pair `j` at stage `s` (normal domain).
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.stages()` or `j >= n/2`.
    #[inline]
    pub fn twiddle(&self, s: u32, j: usize) -> u128 {
        assert!(j < self.n / 2, "pair index out of range");
        self.sub_ring_twiddle(s, j & ((1 << s) - 1))
    }

    /// Sub-ring `r`'s twiddle at stage `s`.
    fn sub_ring_twiddle(&self, s: u32, r: usize) -> u128 {
        self.stage_tw[s as usize][r]
    }

    /// The distinct twiddle vectors needed at stage `s` for vector length
    /// `vlen`: entry `v` holds the twiddles for pair block `j0 = m*vlen`
    /// with `m ≡ v (mod len)`. Stages with `2^s <= vlen` need exactly one
    /// vector (the pattern repeats); larger stages need `2^s / vlen`.
    ///
    /// This is the layout the code generator materializes into the VDM.
    ///
    /// # Panics
    ///
    /// Panics if `vlen` is not a power of two or `s >= self.stages()`.
    pub fn twiddle_vectors(&self, s: u32, vlen: usize) -> Vec<Vec<u128>> {
        self.twiddle_vectors_from(s, vlen, |r| self.sub_ring_twiddle(s, r))
    }

    /// Inverse-twiddle analogue of
    /// [`twiddle_vectors`](PeaseSchedule::twiddle_vectors).
    ///
    /// # Panics
    ///
    /// Panics if `vlen` is not a power of two or `s >= self.stages()`.
    pub fn twiddle_inv_vectors(&self, s: u32, vlen: usize) -> Vec<Vec<u128>> {
        let mask = (1 << s) - 1;
        self.twiddle_vectors_from(s, vlen, |r| self.q.neg(self.sub_ring_twiddle(s, r ^ mask)))
    }

    /// The vectors of `twiddle(r)` over stage `s`'s sub-rings `r`.
    fn twiddle_vectors_from(
        &self,
        s: u32,
        vlen: usize,
        twiddle: impl Fn(usize) -> u128,
    ) -> Vec<Vec<u128>> {
        assert!(
            vlen.is_power_of_two(),
            "vector length must be a power of two"
        );
        let period = self.stage_tw[s as usize].len(); // 2^s
        let count = (period / vlen).max(1);
        (0..count)
            .map(|v| {
                (0..vlen)
                    .map(|i| twiddle((v * vlen + i) & (period - 1)))
                    .collect()
            })
            .collect()
    }

    /// Which distinct twiddle vector (index into
    /// [`twiddle_vectors`](PeaseSchedule::twiddle_vectors)) pair block `m`
    /// (pairs `m*vlen .. (m+1)*vlen`) uses at stage `s`.
    pub fn twiddle_vector_index(&self, s: u32, block: usize, vlen: usize) -> usize {
        let period = self.stage_tw[s as usize].len();
        let count = (period / vlen).max(1);
        block % count
    }

    /// Permutation mapping Pease output positions to the standard
    /// bit-reversed order produced by
    /// [`Ntt128Plan::forward`](crate::Ntt128Plan::forward):
    /// `standard[perm[p]] == pease[p]`.
    ///
    /// It is the identity at every degree: position `p` evaluates at
    /// `psi^(2·bitrev(p) + 1)` in both orders. What makes that hold for
    /// the RPU's NTT kernels is that each one is verified word for word
    /// against the plan. So a Pease-order vector already is a
    /// [`Domain::Evaluation`](crate::Domain::Evaluation) polynomial's
    /// values, and evaluation-form data crosses between host and device
    /// as it is. The method stays only while the benchmark's oracle
    /// gathers through it, and goes with the benchmark-only change that
    /// drops that gather.
    pub fn to_standard_permutation(&self) -> Vec<usize> {
        (0..self.n).collect()
    }
}

/// The exponent tree: the ring at stage 0 is `(x^n − psi^n)`, and the
/// sub-ring `(x^m − psi^e)` splits into `(x^{m/2} − psi^{e/2})` and
/// `(x^{m/2} − psi^{e/2 + n})` — its children's exponents, whose ids
/// append branch bit 0 or 1 at the LSB.
fn exponents(e: u128, n: usize) -> [u128; 2] {
    debug_assert_eq!(e % 2, 0, "exponent must stay even pre-leaf");
    [e / 2, e / 2 + n as u128]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::pease128;

    #[test]
    fn rejects_bad_parameters() {
        assert!(matches!(
            PeaseSchedule::new(3, 97),
            Err(NttError::InvalidDegree(3))
        ));
        // 97 ≡ 1 mod 16 (96 = 16·6), so n = 8 is accepted.
        assert!(PeaseSchedule::new(8, 97).is_ok());
        assert!(matches!(
            PeaseSchedule::new(64, 97), // 97 ≢ 1 mod 128
            Err(NttError::NoRootOfUnity { degree: 64 })
        ));
        // An even q: q − 1 is odd, so no 2n divides it.
        assert!(matches!(
            PeaseSchedule::new(8, 98),
            Err(NttError::NoRootOfUnity { degree: 8 })
        ));
    }

    #[test]
    fn first_stage_twiddle_is_sqrt_minus_one() {
        let s = pease128(16);
        let q = s.modulus();
        let t0 = s.twiddle(0, 0);
        // stage-0 twiddle is psi^{n/2}, whose square is psi^n = -1.
        assert_eq!(q.mul(t0, t0), q.value() - 1);
        // all pairs share it
        for j in 0..8 {
            assert_eq!(s.twiddle(0, j), t0);
        }
    }

    #[test]
    fn permutation_is_bijective() {
        let s = pease128(256);
        let perm = s.to_standard_permutation();
        let mut seen = vec![false; 256];
        for &p in &perm {
            assert!(!seen[p], "duplicate target {p}");
            seen[p] = true;
        }
    }

    #[test]
    fn twiddle_vectors_dedup_counts() {
        let s = pease128(1 << 12); // n=4096, 12 stages, half = 2048
        let vlen = 512;
        for stage in 0..s.stages() {
            let vecs = s.twiddle_vectors(stage, vlen);
            let expect = ((1usize << stage) / vlen).max(1);
            assert_eq!(vecs.len(), expect, "stage {stage}");
            // spot-check contents against the scalar accessor
            for (v, vecv) in vecs.iter().enumerate() {
                for i in (0..vlen).step_by(97) {
                    assert_eq!(vecv[i], s.twiddle(stage, v * vlen + i));
                }
            }
        }
    }

    #[test]
    fn inverse_twiddles_come_from_the_forward_table() {
        // Each inverse twiddle is read as a negated forward twiddle of
        // another sub-ring; it must be the forward twiddle's inverse.
        let s = pease128(1 << 12);
        let q = s.modulus();
        for stage in 0..s.stages() {
            let fwd = s.twiddle_vectors(stage, 512);
            let inv = s.twiddle_inv_vectors(stage, 512);
            for (f, i) in fwd.iter().flatten().zip(inv.iter().flatten()) {
                assert_eq!(q.mul(*f, *i), 1, "stage {stage}");
            }
        }
    }

    #[test]
    fn twiddle_vector_index_wraps() {
        let s = pease128(1 << 12);
        let vlen = 512;
        // stage 11: period 2048 -> 4 distinct vectors
        assert_eq!(s.twiddle_vector_index(11, 0, vlen), 0);
        assert_eq!(s.twiddle_vector_index(11, 5, vlen), 1);
        // stage 3: one vector for all blocks
        assert_eq!(s.twiddle_vector_index(3, 3, vlen), 0);
    }
}
