//! # rpu-ntt — reference NTT and RLWE polynomial library
//!
//! The OpenFHE substitute of this reproduction: a scalar, CPU-side
//! implementation of the Number Theoretic Transform and the polynomial
//! operations RLWE workloads are built from. It serves four roles:
//!
//! 1. **Golden model** — every generated kernel is checked against
//!    [`Ntt128Plan`] (and the plan against O(n²) direct evaluation);
//!    [`PeaseSchedule`] only lays out the twiddles the emitter writes.
//! 2. **CPU baseline** — [`baseline`] times one NTT plan, [`NttPlan`],
//!    written once over `rpu-arith`'s `ModArith` and planned at 64 bits
//!    ([`Ntt64Plan`]) and at 128 ([`Ntt128Plan`]), for the paper's
//!    Fig. 10 speedup comparison.
//! 3. **Workload substrate** — [`Polynomial`] implements the ring
//!    operations (negacyclic multiplication, domain tracking) that the
//!    examples and the `perf` workloads exercise end-to-end; a
//!    multi-tower element is a `&[Polynomial]`, one per tower, as the
//!    `scheme` module writes it.
//! 4. **Host oracle** — one RLWE scheme and one context,
//!    [`LeveledContext`](leveled::LeveledContext) over a modulus chain:
//!    its operations are written once over `k ≥ 1` RNS towers in the
//!    private `scheme` module, [`leveled`] adds what a chain of several
//!    primes needs (rescaling, level alignment, the noise tracker), and
//!    [`rlwe`] builds the same context over a one-prime chain. One type
//!    each for the secret key, the ciphertext, the key-switch key and the
//!    Galois key, one copy of every pinned randomness stream, and every
//!    device front end (`RlweEvaluator`, `LeveledEvaluator`,
//!    `rpu-serve`) is bit-exact against it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod automorphism;
pub mod baseline;
mod error;
pub mod leveled;
mod pease;
mod plan128;
/// The plan's tests at 64 bits; `plan128`'s tests run them at 128.
#[cfg(test)]
mod plan64 {
    mod tests {
        crate::plan128::plan_tests!(rpu_arith::Modulus64);
    }
}
mod poly;
pub mod rlwe;
mod scheme;

#[doc(hidden)]
pub mod testutil;

pub use automorphism::{apply_automorphism, automorphism_map, evaluation_map, galois_element};
pub use error::NttError;
pub use pease::PeaseSchedule;
pub use plan128::{Ntt128Plan, Ntt64Plan, NttPlan};
pub use poly::{Domain, Polynomial};
pub use scheme::{Ciphertext, GaloisKey, KeySwitchKey, SecretKey};
