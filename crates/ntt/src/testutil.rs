//! Shared helpers for tests across the workspace.
//!
//! Exposed (but `doc(hidden)`) so the codegen and simulator crates can
//! validate against the same golden implementations.

use crate::{Ntt128Plan, PeaseSchedule};
use rpu_arith::ModArith;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Returns a cached NTT-friendly prime `q ≡ 1 (mod modulo)` just below
/// `2^bits`. Prime search is deterministic, so caching is sound.
pub fn cached_prime(bits: u32, modulo: u128) -> u128 {
    static CACHE: OnceLock<Mutex<HashMap<(u32, u128), u128>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    // Every entry is inserted whole, so a panic elsewhere in a test
    // leaves the cache valid.
    let mut guard = cache.lock().unwrap_or_else(PoisonError::into_inner);
    *guard
        .entry((bits, modulo))
        .or_insert_with(|| rpu_arith::find_ntt_prime_u128(bits, modulo).expect("prime exists"))
}

/// Builds a 126-bit [`Ntt128Plan`] for degree `n`.
pub fn plan128(n: usize) -> Ntt128Plan {
    let q = cached_prime(126, 2 * n as u128);
    Ntt128Plan::new(n, q).expect("plan parameters are valid")
}

/// Builds a 126-bit [`PeaseSchedule`] for degree `n`.
pub fn pease128(n: usize) -> PeaseSchedule {
    let q = cached_prime(126, 2 * n as u128);
    PeaseSchedule::new(n, q).expect("schedule parameters are valid")
}

/// O(n²) schoolbook negacyclic product, the ground truth for all fast
/// polynomial multiplication paths, at either modulus width.
pub fn schoolbook_negacyclic<M: ModArith>(m: M, a: &[M::Word], b: &[M::Word]) -> Vec<M::Word> {
    let n = a.len();
    assert_eq!(b.len(), n);
    let mut out = vec![M::Word::default(); n];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let prod = m.mul(m.canon(ai), m.canon(bj));
            let k = (i + j) % n;
            if i + j < n {
                out[k] = m.add(out[k], prod);
            } else {
                out[k] = m.sub(out[k], prod);
            }
        }
    }
    out
}

/// Deterministic pseudo-random residue vector (splitmix-style), handy for
/// tests that want "random-looking" but reproducible data.
pub fn test_vector(n: usize, q: u128, seed: u64) -> Vec<u128> {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(1);
            let hi = state;
            state = state.wrapping_mul(0x94D0_49BB_1331_11EB).wrapping_add(3);
            ((hi as u128) << 64 | state as u128) % q
        })
        .collect()
}
