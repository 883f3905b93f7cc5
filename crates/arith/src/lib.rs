//! # rpu-arith — large-word modular arithmetic for ring processing
//!
//! This crate is the arithmetic substrate of the RPU reproduction
//! (ISPASS 2023, *"RPU: The Ring Processing Unit"*). It provides exactly
//! what the paper's LAW — Large Arithmetic Word — engines and the software
//! stack around them need:
//!
//! * [`U256`] — 256-bit intermediates for 128-bit modular multiplication.
//! * [`Modulus64`] — Barrett/Shoup arithmetic for word-sized moduli (the
//!   CPU-64b baseline of Fig. 10).
//! * [`Modulus128`] — Barrett/Shoup arithmetic for up-to-127-bit moduli
//!   (the RPU's native 128-bit datapath).
//! * [`ModArith`] and [`Lane`] — one modular word: both moduli implement
//!   `ModArith` over their own [`Lane`] word (`u64`, `u128`), so every
//!   algorithm that differs only by width — the host NTT plan, `pow`,
//!   `inv`, Miller–Rabin, the simulator's fast path — is written once.
//! * [`bfly_shoup`] — the butterfly over whole vectors of lanes, each
//!   product through a constant's Shoup quotient; on a CPU with AVX-512
//!   IFMA, `u128` lanes under a [`Modulus128`] run eight at a time.
//! * NTT-friendly prime generation ([`find_ntt_prime_u128`]) and roots of
//!   unity ([`primitive_root_of_unity`]) for twiddle tables.
//! * [`RnsBasis`] — the Residue Number System decomposition of
//!   Section II-B, with CRT reconstruction via [`UBig`].
//!
//! # Examples
//!
//! Find a 126-bit NTT prime for a 64K ring and build its negacyclic root:
//!
//! ```
//! use rpu_arith::{find_ntt_prime_u128, ModArith, Modulus128, primitive_root_of_unity};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 1u128 << 16; // ring degree 65536
//! let q = find_ntt_prime_u128(126, 2 * n).expect("prime exists");
//! let modulus = Modulus128::new(q).expect("in range");
//! let psi = primitive_root_of_unity(modulus, 2 * n)?; // negacyclic root
//! assert_eq!(modulus.pow(psi, n), q - 1); // psi^n = -1
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bigint;
mod butterfly;
mod chain;
mod engine;
mod gadget;
mod mod128;
mod mod64;
mod modarith;
mod primes;
mod rns;
mod roots;
mod u256;

pub use bigint::UBig;
pub use butterfly::{bfly_into, bfly_shoup, shoup_products, Factors};
pub use chain::{ChainError, ModulusChain};
pub use engine::{Engine, EngineKind};
pub use gadget::{gadget_decompose, gadget_levels};
pub use mod128::Modulus128;
pub use mod64::Modulus64;
pub use modarith::{Lane, ModArith};
pub use primes::{
    find_congruent_prime_chain, find_ntt_prime_chain, find_ntt_prime_u128, find_ntt_prime_u64,
    is_prime_u128, is_prime_u64,
};
pub use rns::{mod_inverse, RnsBasis, RnsError};
pub use roots::{
    bit_reverse, power_table, power_table_bitrev, primitive_root_of_unity, FindRootError,
};
pub use u256::U256;
