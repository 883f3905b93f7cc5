//! Timed CPU NTT baselines — the comparator of Fig. 10.
//!
//! The paper measured OpenFHE NTTs on a 32-core AMD EPYC 7502 for 64-bit
//! and 128-bit data. We reproduce the *shape* of that comparison on the
//! host CPU: the same Shoup-twiddle transform at 64 and at 128 bits,
//! single-threaded or multi-threaded (one thread per contiguous block
//! of butterfly work inside every stage).
//!
//! Absolute numbers differ from the paper's testbed, which EXPERIMENTS.md
//! records; the qualitative findings — speedup grows with ring size and
//! 128-bit CPU arithmetic widens the accelerator's advantage — are
//! host-independent.

use crate::{Ntt128Plan, Ntt64Plan, NttError, NttPlan};
use rpu_arith::{ModArith, Modulus128};
use std::time::{Duration, Instant};

/// Naive `O(n²)` negacyclic forward transform — the golden-vector
/// reference every fast path is cross-checked against.
///
/// Returns `X` in natural index order: `X[i] = x(psi^(2i+1))`, i.e. the
/// polynomial evaluated at the odd powers of the primitive `2n`-th root
/// `psi`. Note [`Ntt128Plan::forward`] leaves this value at position
/// `bit_reverse(i)`.
///
/// # Panics
///
/// Panics if `psi` is not invertible or `x` is empty.
pub fn naive_forward(m: Modulus128, psi: u128, x: &[u128]) -> Vec<u128> {
    assert!(!x.is_empty());
    (0..x.len())
        .map(|i| {
            let point = m.pow(psi, (2 * i + 1) as u128);
            // Horner evaluation, highest coefficient first.
            x.iter()
                .rev()
                .fold(0u128, |acc, &c| m.add(m.mul(acc, point), c))
        })
        .collect()
}

/// Naive `O(n²)` negacyclic inverse transform: consumes natural-order
/// evaluations (`X[i] = x(psi^(2i+1))`, the [`naive_forward`] layout)
/// and returns the coefficients, including the `n^{-1}` scale.
///
/// # Panics
///
/// Panics if `psi` is not invertible or `x` is empty.
pub fn naive_inverse(m: Modulus128, psi: u128, x: &[u128]) -> Vec<u128> {
    assert!(!x.is_empty());
    let n = x.len();
    let n_inv = m.inv(n as u128 % m.value());
    let psi_inv = m.inv(psi);
    (0..n)
        .map(|j| {
            let mut acc = 0u128;
            for (i, &v) in x.iter().enumerate() {
                let w = m.pow(psi_inv, ((2 * i + 1) * j) as u128);
                acc = m.add(acc, m.mul(v, w));
            }
            m.mul(acc, n_inv)
        })
        .collect()
}

/// Which CPU data width to benchmark (the two series of Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuWidth {
    /// 64-bit residues with Shoup butterflies.
    Bits64,
    /// 128-bit residues with Shoup butterflies.
    Bits128,
}

impl core::fmt::Display for CpuWidth {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CpuWidth::Bits64 => write!(f, "CPU-64b"),
            CpuWidth::Bits128 => write!(f, "CPU-128b"),
        }
    }
}

/// Result of a timed baseline run.
#[derive(Debug, Clone, Copy)]
pub struct BaselineMeasurement {
    /// Data width used.
    pub width: CpuWidth,
    /// Ring degree.
    pub degree: usize,
    /// Threads used.
    pub threads: usize,
    /// Wall-clock time per forward transform (averaged over iterations).
    pub time_per_ntt: Duration,
}

/// A reusable CPU NTT baseline for one ring degree.
#[derive(Debug)]
pub struct CpuBaseline {
    plan64: Ntt64Plan,
    plan128: Ntt128Plan,
}

impl CpuBaseline {
    /// Plans baselines for degree `n`, choosing a ~60-bit and a ~126-bit
    /// NTT prime automatically.
    ///
    /// # Errors
    ///
    /// Returns [`NttError`] if `n` is not a power of two ≥ 2.
    pub fn new(n: usize) -> Result<Self, NttError> {
        let q64 = rpu_arith::find_ntt_prime_u64(60, 2 * n as u64)
            .ok_or(NttError::NoRootOfUnity { degree: n })?;
        let q128 = rpu_arith::find_ntt_prime_u128(126, 2 * n as u128)
            .ok_or(NttError::NoRootOfUnity { degree: n })?;
        Ok(CpuBaseline {
            plan64: Ntt64Plan::new(n, q64)?,
            plan128: Ntt128Plan::new(n, q128)?,
        })
    }

    /// The 64-bit plan.
    pub fn plan64(&self) -> &Ntt64Plan {
        &self.plan64
    }

    /// The 128-bit plan.
    pub fn plan128(&self) -> &Ntt128Plan {
        &self.plan128
    }

    /// Times `iters` forward transforms at the given width, multi-threaded
    /// across `threads` worker threads (each thread transforms its own
    /// polynomial instance, modelling the throughput-oriented OpenFHE
    /// benchmark setup).
    ///
    /// # Panics
    ///
    /// Panics if `iters == 0` or `threads == 0`.
    pub fn measure(&self, width: CpuWidth, threads: usize, iters: usize) -> BaselineMeasurement {
        assert!(iters > 0, "need at least one iteration");
        assert!(threads > 0, "need at least one thread");
        let elapsed = match width {
            CpuWidth::Bits64 => time_forward(&self.plan64, threads, iters),
            CpuWidth::Bits128 => time_forward(&self.plan128, threads, iters),
        };
        // Throughput view: `threads * iters` transforms completed in the
        // max thread time.
        let per_ntt = elapsed / (iters as u32 * threads as u32);
        BaselineMeasurement {
            width,
            degree: self.plan64.degree(),
            threads,
            time_per_ntt: per_ntt,
        }
    }
}

/// Times `iters` forward transforms by `plan` on each of `threads`
/// threads, each on its own polynomial: the slowest thread's time.
fn time_forward<M: ModArith>(plan: &NttPlan<M>, threads: usize, iters: usize) -> Duration {
    let q = plan.modulus();
    let data: Vec<M::Word> = (0..plan.degree() as u128)
        .map(|i| q.canon(i * 7 + 3))
        .collect();
    run_threads(threads, || {
        let mut x = data.clone();
        let start = Instant::now();
        for _ in 0..iters {
            plan.forward(&mut x);
            std::hint::black_box(&x);
        }
        start.elapsed()
    })
}

/// Runs `f` on `threads` threads, returning the maximum wall time.
fn run_threads(threads: usize, f: impl Fn() -> Duration + Sync) -> Duration {
    if threads == 1 {
        return f();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(&f)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("baseline worker panicked"))
            .max()
            .unwrap_or_default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_sane_durations() {
        // Each width's best of many interleaved repetitions: a loaded
        // host stretches some repetitions of either width, but rarely
        // every one, so the two minima compare the unloaded times.
        let b = CpuBaseline::new(4096).unwrap();
        let (mut m64, mut m128) = (Duration::MAX, Duration::MAX);
        for _ in 0..16 {
            m64 = m64.min(b.measure(CpuWidth::Bits64, 1, 4).time_per_ntt);
            m128 = m128.min(b.measure(CpuWidth::Bits128, 1, 4).time_per_ntt);
        }
        assert!(m64 > Duration::ZERO);
        assert!(m128 > Duration::ZERO);
        // 128-bit butterflies are strictly more work than 64-bit ones.
        assert!(
            m128 > m64,
            "128b ({m128:?}) should be slower than 64b ({m64:?})"
        );
    }

    #[test]
    fn multithreaded_runs() {
        let b = CpuBaseline::new(256).unwrap();
        let m = b.measure(CpuWidth::Bits64, 2, 2);
        assert_eq!(m.threads, 2);
        assert!(m.time_per_ntt > Duration::ZERO);
    }

    #[test]
    fn display_names_match_figure() {
        assert_eq!(CpuWidth::Bits64.to_string(), "CPU-64b");
        assert_eq!(CpuWidth::Bits128.to_string(), "CPU-128b");
    }
}
