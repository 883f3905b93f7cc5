//! Per-modulus lane arithmetic: which strategy services a modulus, and
//! the one type that dispatches to it.
//!
//! Every lane of a B512 compute instruction evaluates the same scalar
//! function `a ⊙ b mod q`; what differs between moduli is *how cheaply*
//! that function can be computed. [`Engine`] is a `Copy` dispatch enum
//! over the two concrete implementations, selected by modulus width,
//! that the simulator's fast path matches on once per instruction:
//!
//! * [`Engine::Wide`] — [`Modulus128`]: a multiply is one normalised
//!   Barrett pass (eleven word multiplies, odd or even modulus alike),
//!   and a factor whose Shoup quotient is known — a kernel's twiddles,
//!   a vector-scalar multiply's scalar — multiplies through
//!   [`Modulus128::mul_shoup`], one high product and two low ones.
//! * [`Engine::Narrow`] — [`Modulus64`] applied lane-wise to the
//!   simulator's register files: each lane is reduced to a canonical
//!   `u64`, multiplied with one 64×64→128 widening multiply plus a
//!   single-word Barrett (or Shoup) reduction, and widened back.
//!   Selected whenever the modulus fits 63 bits.
//!
//! Both compute the *same* canonical results for the same inputs. The
//! simulator's interpreter, the reference the fast path is checked
//! against, computes every modulus with [`Modulus128`] and never selects
//! an engine, so the differential and `isa_fuzz` suites compare the
//! narrow engine with an independent arithmetic. Host-side code that
//! knows its width (NTT plans, golden models) calls [`Modulus64`] /
//! [`Modulus128`] directly.

use crate::mod128::Modulus128;
use crate::mod64::Modulus64;

/// Identifies which arithmetic engine services a modulus. Recorded in
/// dispatch traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// 128-bit lanes (`Modulus128`: Barrett products, Shoup products by
    /// known constants), the only engine valid for moduli of 64..127
    /// bits. The name, and its `"mont128"` display, are historical: the
    /// benchmark's metric names carry them.
    Montgomery128,
    /// Lane-wise native `u64` arithmetic (`Modulus64`) over the
    /// simulator's `u128` registers, for moduli below 2⁶³.
    NativeU64,
}

impl EngineKind {
    /// The engine the simulator and dispatcher select for modulus `q`:
    /// [`EngineKind::NativeU64`] whenever `q` fits 63 bits, otherwise
    /// [`EngineKind::Montgomery128`].
    pub fn for_modulus(q: u128) -> EngineKind {
        if q < (1u128 << 63) {
            EngineKind::NativeU64
        } else {
            EngineKind::Montgomery128
        }
    }
}

impl core::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineKind::Montgomery128 => write!(f, "mont128"),
            EngineKind::NativeU64 => write!(f, "native64"),
        }
    }
}

/// The lane engine the simulator selects for one modulus: a `Copy`
/// dispatch enum so hot loops can match once per instruction instead of
/// calling through a vtable per lane.
///
/// Selection rule (shared with [`EngineKind::for_modulus`]): moduli
/// below 2⁶³ run on [`Engine::Narrow`]; everything else runs on
/// [`Engine::Wide`]. Validity is *exactly* the [`Modulus128::new`]
/// range `[2, 2^127)`, so the moduli an engine refuses are the ones the
/// interpreter's `Modulus128` faults on (`InvalidModulus`).
#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// 128-bit lanes: Barrett products, Shoup products by known
    /// constants.
    Wide(Modulus128),
    /// Native `u64` lanes (q < 2⁶³).
    Narrow(Modulus64),
}

impl Engine {
    /// Builds the engine for modulus `q`, or `None` when `q` is outside
    /// `[2, 2^127)` — the same validity predicate as [`Modulus128::new`].
    pub fn new(q: u128) -> Option<Engine> {
        if q < (1u128 << 63) {
            // In-range for the native tier iff in-range for Modulus128:
            // both reject q < 2. u64 conversion cannot fail below 2^63.
            Modulus64::new(q as u64).map(Engine::Narrow)
        } else {
            Modulus128::new(q).map(Engine::Wide)
        }
    }

    /// Which strategy this engine dispatches to.
    pub fn kind(self) -> EngineKind {
        match self {
            Engine::Wide(_) => EngineKind::Montgomery128,
            Engine::Narrow(_) => EngineKind::NativeU64,
        }
    }

    /// The modulus `q`.
    pub fn value(self) -> u128 {
        match self {
            Engine::Wide(m) => m.value(),
            Engine::Narrow(m) => m.value() as u128,
        }
    }

    /// `a mod q` for arbitrary `a`.
    #[inline]
    pub fn reduce(self, a: u128) -> u128 {
        match self {
            Engine::Wide(m) => m.reduce(a),
            Engine::Narrow(m) => m.reduce_wide(a) as u128,
        }
    }

    /// `(a + b) mod q` for canonical inputs.
    #[inline]
    pub fn add(self, a: u128, b: u128) -> u128 {
        match self {
            Engine::Wide(m) => m.add(a, b),
            Engine::Narrow(m) => m.add(a as u64, b as u64) as u128,
        }
    }

    /// `(a - b) mod q` for canonical inputs.
    #[inline]
    pub fn sub(self, a: u128, b: u128) -> u128 {
        match self {
            Engine::Wide(m) => m.sub(a, b),
            Engine::Narrow(m) => m.sub(a as u64, b as u64) as u128,
        }
    }

    /// `a · b mod q` for canonical inputs.
    #[inline]
    pub fn mul(self, a: u128, b: u128) -> u128 {
        match self {
            Engine::Wide(m) => m.mul(a, b),
            Engine::Narrow(m) => m.mul(a as u64, b as u64) as u128,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::{find_ntt_prime_u128, find_ntt_prime_u64};

    /// 60-bit NTT prime: 2^60 - 2^14 + 1.
    const Q60: u64 = 1152921504606830593;

    /// The three ways to compute mod a sub-63-bit `q`: the 128-bit
    /// tier, the bare `Modulus64`, and the engine selected for `q`.
    fn tiers_for(q: u64) -> (Modulus128, Modulus64, Engine) {
        let engine = Engine::new(q as u128).unwrap();
        assert_eq!(engine.kind(), EngineKind::NativeU64);
        assert_eq!(engine.value(), q as u128);
        (
            Modulus128::new(q as u128).unwrap(),
            Modulus64::new(q).unwrap(),
            engine,
        )
    }

    #[test]
    fn selection_rule_splits_at_63_bits() {
        assert_eq!(EngineKind::for_modulus(3329), EngineKind::NativeU64);
        assert_eq!(EngineKind::for_modulus(Q60 as u128), EngineKind::NativeU64);
        assert_eq!(
            EngineKind::for_modulus((1u128 << 63) - 1),
            EngineKind::NativeU64
        );
        assert_eq!(
            EngineKind::for_modulus(1u128 << 63),
            EngineKind::Montgomery128
        );
        let wide = find_ntt_prime_u128(126, 2048).unwrap();
        assert_eq!(EngineKind::for_modulus(wide), EngineKind::Montgomery128);
        assert!(matches!(Engine::new(3329), Some(Engine::Narrow(_))));
        assert!(matches!(Engine::new(wide), Some(Engine::Wide(_))));
    }

    #[test]
    fn validity_matches_modulus128_exactly() {
        for q in [0u128, 1, 2, 3, 4, 3328, 3329, u64::MAX as u128] {
            assert_eq!(
                Engine::new(q).is_some(),
                Modulus128::new(q).is_some(),
                "{q}"
            );
        }
        assert_eq!(
            Engine::new((1u128 << 127) - 1).is_some(),
            Modulus128::new((1u128 << 127) - 1).is_some()
        );
        assert_eq!(
            Engine::new(1u128 << 127).is_some(),
            Modulus128::new(1u128 << 127).is_some()
        );
    }

    #[test]
    fn all_engines_agree_on_a_shared_modulus() {
        let q = find_ntt_prime_u64(59, 2048).unwrap();
        let (m128, m64, engine) = tiers_for(q);
        let wide = Engine::Wide(m128);
        let samples = [0u128, 1, 2, 17, q as u128 - 2, q as u128 - 1];
        for &a in &samples {
            for &b in &samples {
                let (a64, b64) = (a as u64, b as u64);
                for e in [wide, engine] {
                    assert_eq!(e.mul(a, b), m128.mul(a, b), "mul {a} {b} via {}", e.kind());
                    assert_eq!(e.add(a, b), m128.add(a, b), "add {a} {b} via {}", e.kind());
                    assert_eq!(e.sub(a, b), m128.sub(a, b), "sub {a} {b} via {}", e.kind());
                }
                assert_eq!(m64.mul(a64, b64) as u128, m128.mul(a, b), "mul {a} {b}");
                assert_eq!(m64.add(a64, b64) as u128, m128.add(a, b), "add {a} {b}");
                assert_eq!(m64.sub(a64, b64) as u128, m128.sub(a, b), "sub {a} {b}");
            }
            let unreduced = a + q as u128;
            assert_eq!(wide.reduce(unreduced), m128.reduce(unreduced));
            assert_eq!(engine.reduce(unreduced), m128.reduce(unreduced));
            assert_eq!(m64.reduce_wide(unreduced) as u128, m128.reduce(unreduced));
            if a != 0 {
                assert_eq!(m64.inv(a as u64) as u128, m128.inv(a), "inv {a}");
                assert_eq!(engine.mul(m128.inv(a), a), 1);
            }
            assert_eq!(m64.pow(a as u64, 5) as u128, m128.pow(a, 5));
        }
    }

    #[test]
    fn even_moduli_agree_across_tiers() {
        // Modulus64 and Modulus128 both accept even moduli; the tiers
        // must still agree (both run the same Barrett pass as for odd q).
        let q = 3328u64; // even
        let (m128, m64, engine) = tiers_for(q);
        for a in [0u128, 1, 2, 1663, 1664, 3327] {
            for b in [1u128, 2, 1664, 3327] {
                assert_eq!(m128.mul(a, b), m64.mul(a as u64, b as u64) as u128);
                assert_eq!(m128.mul(a, b), engine.mul(a, b));
                assert_eq!(m128.mul(a, b), Engine::Wide(m128).mul(a, b));
            }
        }
        // An even modulus has a Shoup quotient all the same.
        let c = m128.shoup(5);
        assert_eq!(m128.mul_shoup(1663, 5, c), m128.mul(1663, 5));
    }
}
