//! One modular word: the two traits every width-generic algorithm is
//! written over.
//!
//! [`Lane`] is the word a residue is stored in, `u64` or `u128`;
//! [`ModArith`] is a modulus's arithmetic over its own word,
//! implemented by [`Modulus64`] (`u64`) and [`Modulus128`] (`u128`).
//! The host NTT plan (`rpu_ntt::NttPlan`), Miller–Rabin, `pow` and `inv`
//! are written once over `ModArith` and monomorphised per width, and
//! the simulator's fast path writes each modular instruction once over
//! it, and each executor once over the `Lane` it stores state in.
//!
//! Every method a hot loop calls is `#[inline]`: callers live in other
//! crates, and the workspace builds without LTO.

use crate::{Modulus128, Modulus64};

/// The word a residue or a simulator lane is stored in. Architecturally
/// every B512 element is 128 bits wide; a narrower word holds a value
/// for as long as it fits. `!w` complements all of the word's bits, so
/// the Shoup quotient of `q − w` is `!shoup(w)` at either width.
pub trait Lane:
    Copy + Default + Eq + core::ops::Not<Output = Self> + core::fmt::Debug + Send + Sync + 'static
{
    /// The value of the word.
    fn widen(self) -> u128;
    /// Stores a value known to fit the word: any value for `u128`; for
    /// `u64` a value below 2⁶⁴ (checked in debug builds only).
    fn narrow(x: u128) -> Self;
    /// The lanes as `u128` words: `Some` exactly when the word is
    /// `u128`. A loop written for `u128` lanes alone (the vector
    /// butterfly) reaches them through these two.
    fn as_wide(lanes: &[Self]) -> Option<&[u128]>;
    /// [`as_wide`](Lane::as_wide) for lanes to write.
    fn as_wide_mut(lanes: &mut [Self]) -> Option<&mut [u128]>;
}

impl Lane for u64 {
    #[inline]
    fn widen(self) -> u128 {
        u128::from(self)
    }
    #[inline]
    fn narrow(x: u128) -> u64 {
        debug_assert!(x <= u128::from(u64::MAX), "narrow invariant broken");
        x as u64
    }
    #[inline]
    fn as_wide(_: &[u64]) -> Option<&[u128]> {
        None
    }
    #[inline]
    fn as_wide_mut(_: &mut [u64]) -> Option<&mut [u128]> {
        None
    }
}

impl Lane for u128 {
    #[inline]
    fn widen(self) -> u128 {
        self
    }
    #[inline]
    fn narrow(x: u128) -> u128 {
        x
    }
    #[inline]
    fn as_wide(lanes: &[u128]) -> Option<&[u128]> {
        Some(lanes)
    }
    #[inline]
    fn as_wide_mut(lanes: &mut [u128]) -> Option<&mut [u128]> {
        Some(lanes)
    }
}

/// A modulus's arithmetic over its own word. `canon` reduces a word of
/// either width into `[0, q)`; `add`, `sub`, `mul` and `shoup` take
/// canonical words; `mul_shoup` takes its first factor as it is stored,
/// which [`Modulus64`] reduces only when it does not fit 64 bits and
/// [`Modulus128`]'s Shoup product takes as it is.
pub trait ModArith: Copy + core::fmt::Debug + Send + Sync + 'static {
    /// `u64` for [`Modulus64`], `u128` for [`Modulus128`].
    type Word: Lane;
    /// The modulus `q`, or `None` outside the type's range.
    fn new(q: Self::Word) -> Option<Self>;
    /// The modulus value `q`.
    fn value(self) -> Self::Word;
    /// `x mod q` for a word of either width.
    fn canon<W: Lane>(self, x: W) -> Self::Word;
    /// `(a + b) mod q`.
    fn add(self, a: Self::Word, b: Self::Word) -> Self::Word;
    /// `(a − b) mod q`.
    fn sub(self, a: Self::Word, b: Self::Word) -> Self::Word;
    /// `a · b mod q`.
    fn mul(self, a: Self::Word, b: Self::Word) -> Self::Word;
    /// The Shoup quotient of the constant `w`.
    fn shoup(self, w: Self::Word) -> Self::Word;
    /// `a · w mod q` through `w`'s Shoup quotient `w_shoup`.
    fn mul_shoup<W: Lane>(self, a: W, w: Self::Word, w_shoup: Self::Word) -> Self::Word;

    /// Modular exponentiation by squaring.
    fn pow(self, base: Self::Word, exp: Self::Word) -> Self::Word {
        let (mut base, mut exp) = (self.canon(base), exp.widen());
        // q ≥ 2, so 1 is canonical.
        let mut acc = Self::Word::narrow(1);
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse via Fermat's little theorem.
    ///
    /// # Panics
    ///
    /// Panics if `a ≡ 0 (mod q)`. The result is only a true inverse when
    /// `q` is prime (which all NTT moduli in this workspace are).
    fn inv(self, a: Self::Word) -> Self::Word {
        assert!(
            self.canon(a) != Self::Word::default(),
            "zero has no modular inverse"
        );
        self.pow(a, Self::Word::narrow(self.value().widen() - 2))
    }
}

/// Implements [`ModArith`] for `$m` over `$word`: the methods each
/// modulus defines inherently, forwarded, then the `$rest` that differ.
macro_rules! mod_arith {
    ($m:ty => $word:ty; $($rest:tt)*) => {
        impl ModArith for $m {
            type Word = $word;
            #[inline]
            fn new(q: $word) -> Option<Self> {
                <$m>::new(q)
            }
            #[inline]
            fn value(self) -> $word {
                <$m>::value(self)
            }
            #[inline]
            fn add(self, a: $word, b: $word) -> $word {
                <$m>::add(self, a, b)
            }
            #[inline]
            fn sub(self, a: $word, b: $word) -> $word {
                <$m>::sub(self, a, b)
            }
            #[inline]
            fn mul(self, a: $word, b: $word) -> $word {
                <$m>::mul(self, a, b)
            }
            #[inline]
            fn shoup(self, w: $word) -> $word {
                <$m>::shoup(self, w)
            }
            $($rest)*
        }
    };
}

mod_arith! { Modulus64 => u64;
    /// The compare-first branch keeps already-canonical words (the
    /// overwhelmingly common case) to one comparison.
    #[inline]
    fn canon<W: Lane>(self, x: W) -> u64 {
        let x = x.widen();
        if x < u128::from(self.value()) {
            x as u64
        } else {
            self.reduce_wide(x)
        }
    }
    /// Shoup's product is exact for any 64-bit factor.
    #[inline]
    fn mul_shoup<W: Lane>(self, a: W, w: u64, w_shoup: u64) -> u64 {
        let a = u64::try_from(a.widen()).unwrap_or_else(|_| self.canon(a));
        Modulus64::mul_shoup(self, a, w, w_shoup)
    }
}

mod_arith! { Modulus128 => u128;
    #[inline]
    fn canon<W: Lane>(self, x: W) -> u128 {
        self.reduce(x.widen())
    }
    #[inline]
    fn mul_shoup<W: Lane>(self, a: W, w: u128, w_shoup: u128) -> u128 {
        Modulus128::mul_shoup(self, a.widen(), w, w_shoup)
    }
}
