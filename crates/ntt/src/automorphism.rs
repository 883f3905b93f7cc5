//! Galois automorphisms of the negacyclic ring `Z_q[x]/(x^n + 1)`.
//!
//! The map `σ_g : a(x) → a(x^g)` (for odd `g`, invertible mod `2n`) is a
//! ring automorphism — the algebraic core of HE "rotation": applying
//! `σ_g` to both components of an RLWE ciphertext yields an encryption
//! of `σ_g(m)` under the rotated key `σ_g(s)`, which a key switch brings
//! back to `s`. It has two routings, both defined here:
//!
//! * on coefficients ([`automorphism_map`]), a permutation with sign
//!   fix-ups: `x^{ig mod 2n} = (-1)^{⌊ig/n⌋} x^{ig mod n}`;
//! * on evaluation vectors ([`evaluation_map`]), a pure permutation of
//!   evaluation points without signs: position `k` holds `a(ψ^{e_k})`,
//!   so `σ_g(a)(ψ^{e_k}) = a(ψ^{g·e_k})` is the value at the position
//!   whose exponent is `g·e_k mod 2n`.
//!
//! This module is the *single* definition of `σ_g`: the host reference
//! ([`Polynomial::automorphism`] and the RLWE oracle) permutes
//! coefficients, and the RPU kernel generator bakes the evaluation
//! routing into its index table and golden model.
//!
//! [`Polynomial::automorphism`]: crate::Polynomial::automorphism

use crate::NttError;
use rpu_arith::bit_reverse;

/// The coefficient routing of `σ_g` on a degree-`n` negacyclic ring:
/// entry `j` of the result is `(i, negate)` meaning output coefficient
/// `j` equals `±input[i]` (negated when `negate` is set).
///
/// # Errors
///
/// Returns [`NttError::InvalidDegree`] unless `n` is a power of two ≥ 2,
/// and [`NttError::InvalidGaloisElement`] unless `g` is odd (even `g`
/// are not units mod `2n`, so they are not automorphisms).
pub fn automorphism_map(n: usize, g: usize) -> Result<Vec<(usize, bool)>, NttError> {
    check(n, g)?;
    let two_n = 2 * n;
    let g = g % two_n;
    // i → i·g mod 2n is a bijection on Z_2n for odd g; restricted to
    // i ∈ [0, n) it hits every residue class mod n exactly once, so the
    // forward walk fills every output slot exactly once.
    let mut map = vec![(usize::MAX, false); n];
    for (i, slot) in (0..n).map(|i| (i * g) % two_n).enumerate() {
        if slot < n {
            map[slot] = (i, false);
        } else {
            map[slot - n] = (i, true);
        }
    }
    debug_assert!(map.iter().all(|&(i, _)| i != usize::MAX));
    Ok(map)
}

/// The evaluation-point routing of `σ_g` on a degree-`n` evaluation
/// vector in the bit-reversed order of
/// [`Ntt128Plan::forward`](crate::Ntt128Plan::forward), which is the
/// Pease order the RPU's forward NTT kernels write: entry `k` of the
/// result is the position `π(k)` with `forward(σ_g a)[k] =
/// forward(a)[π(k)]`, where `e_{π(k)} = g·e_k mod 2n` and position `p`
/// holds the evaluation at `psi^(e_p)`, `e_p = 2·bitrev(p) + 1`. The
/// routing depends on `n` and `g` only, and it is exact on residues: no
/// value is computed.
///
/// # Errors
///
/// Returns [`NttError::InvalidDegree`] unless `n` is a power of two ≥ 2,
/// and [`NttError::InvalidGaloisElement`] unless `g` is odd.
pub fn evaluation_map(n: usize, g: usize) -> Result<Vec<usize>, NttError> {
    check(n, g)?;
    let log_n = n.trailing_zeros();
    let two_n = 2 * n as u128;
    let g = g as u128 % two_n;
    // Exponent e sits at position bitrev((e − 1) / 2).
    Ok((0..n)
        .map(|k| {
            let e = 2 * bit_reverse(k, log_n) as u128 + 1;
            bit_reverse((g * e % two_n / 2) as usize, log_n)
        })
        .collect())
}

/// Applies `σ_g` to a natural-order coefficient vector mod `q`
/// (coefficients must already be residues below `q`).
///
/// # Errors
///
/// Returns [`NttError`] for an invalid degree or an even `g`.
pub fn apply_automorphism(coeffs: &[u128], g: usize, q: u128) -> Result<Vec<u128>, NttError> {
    let map = automorphism_map(coeffs.len(), g)?;
    Ok(map
        .into_iter()
        .map(|(i, negate)| {
            let c = coeffs[i];
            if negate && c != 0 {
                q - c
            } else {
                c
            }
        })
        .collect())
}

/// Rejects a degree that is not a power of two ≥ 2 and an even `g`
/// (even `g` are not units mod `2n`, so they are not automorphisms).
fn check(n: usize, g: usize) -> Result<(), NttError> {
    if n < 2 || !n.is_power_of_two() {
        return Err(NttError::InvalidDegree(n));
    }
    if g.is_multiple_of(2) {
        return Err(NttError::InvalidGaloisElement { g });
    }
    Ok(())
}

/// The Galois element realizing a rotation by `steps` positions in the
/// odd-power orbit: `5^steps mod 2n`. (With CRT slot packing this is the
/// classic "rotate the slot vector by `steps`"; on coefficient-encoded
/// plaintexts it is the matching fixed automorphism.)
pub fn galois_element(n: usize, steps: usize) -> usize {
    let two_n = 2 * n;
    let mut g = 1usize;
    for _ in 0..steps {
        g = (g * 5) % two_n;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_validation() {
        let map = automorphism_map(8, 1).unwrap();
        assert!(map.iter().enumerate().all(|(j, &(i, neg))| i == j && !neg));
        assert!(matches!(
            automorphism_map(8, 4),
            Err(NttError::InvalidGaloisElement { g: 4 })
        ));
        assert!(matches!(
            automorphism_map(12, 3),
            Err(NttError::InvalidDegree(12))
        ));
        let eval = evaluation_map(8, 1 + 16).unwrap();
        assert!(eval.iter().enumerate().all(|(k, &p)| k == p));
        assert!(matches!(
            evaluation_map(8, 4),
            Err(NttError::InvalidGaloisElement { g: 4 })
        ));
        assert!(matches!(
            evaluation_map(12, 3),
            Err(NttError::InvalidDegree(12))
        ));
    }

    #[test]
    fn matches_direct_polynomial_substitution() {
        // n = 8, g = 3, q = 17: evaluate a(x^3) mod x^8 + 1 by hand.
        let n = 8usize;
        let q = 17u128;
        let a: Vec<u128> = (1..=8).collect();
        let got = apply_automorphism(&a, 3, q).unwrap();
        // direct: out[ig mod 2n (folded)] ± a_i
        let mut want = vec![0u128; n];
        for (i, &c) in a.iter().enumerate() {
            let e = (i * 3) % (2 * n);
            if e < n {
                want[e] = (want[e] + c) % q;
            } else {
                want[e - n] = (want[e - n] + q - c) % q;
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn composes_and_inverts() {
        let n = 64usize;
        let q = 97u128;
        let a: Vec<u128> = (0..n as u128).map(|i| (i * 13 + 5) % q).collect();
        // σ_g then σ_{g^{-1}} is the identity; find the inverse by walking
        // the odd units.
        let g = 5usize;
        let mut ginv = 1usize;
        while (g * ginv) % (2 * n) != 1 {
            ginv += 2;
        }
        let rotated = apply_automorphism(&a, g, q).unwrap();
        let back = apply_automorphism(&rotated, ginv, q).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn galois_elements_are_odd_powers_of_five() {
        let n = 1024usize;
        assert_eq!(galois_element(n, 0), 1);
        assert_eq!(galois_element(n, 1), 5);
        assert_eq!(galois_element(n, 2), 25);
        for k in 0..10 {
            assert_eq!(galois_element(n, k) % 2, 1);
        }
    }
}
