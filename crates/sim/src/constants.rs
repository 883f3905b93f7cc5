//! A kernel's constant VDM tables, each value beside the Shoup quotient
//! the fast path multiplies it through, in its engine's own words.

use crate::func::put;
use rpu_arith::{Engine, ModArith};
use std::sync::Arc;

/// The constant tables of one kernel's VDM working set — twiddles,
/// gather indices — as `(element offset, length)` spans
/// and their values, each with its Shoup quotient (of the value
/// reduced), computed once here in the words of the engine the modulus
/// selects: under a narrow modulus a `u64` value and a `u64` quotient
/// `⌊w·2⁶⁴/q⌋`, 16 bytes per element; under a wide one a `u128` value
/// and a `u128` quotient `⌊w·2¹²⁸/q⌋`.
///
/// [`FunctionalSim::load_constants`](crate::FunctionalSim::load_constants)
/// writes the values and registers the tables until something writes
/// over one of their spans, so the fast path can multiply a register
/// loaded from them through `mul_shoup` on either engine; the
/// interpreter never reads a quotient. Tables with no quotients — under
/// an invalid modulus, or a narrow one with a value of 2⁶⁴ or more —
/// keep `u128` values and serve no multiply. Clones share the data.
///
/// # Examples
///
/// ```
/// use rpu_sim::{ConstantTables, FunctionalSim};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tables = ConstantTables::new(97, vec![(512, 2), (1024, 1)], vec![5, 6, 7]);
/// let mut sim = FunctionalSim::new(2048, 16);
/// assert_eq!(sim.load_constants(&tables)?, 3);
/// assert_eq!(sim.read_vdm(512, 2)?, vec![5, 6]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ConstantTables(pub(crate) Arc<Tables>);

#[derive(Debug)]
pub(crate) struct Tables {
    /// The modulus the quotients serve.
    pub(crate) q: u128,
    spans: Vec<(usize, usize)>,
    pub(crate) words: Words,
}

/// `(quotients, values)`: the spans' contents, concatenated in span
/// order, and at the same index each value's quotient.
#[derive(Debug)]
pub(crate) enum Words {
    /// Under a narrow modulus.
    Narrow(Vec<u64>, Vec<u64>),
    /// Otherwise; no quotients unless the modulus is a valid wide one.
    Wide(Vec<u128>, Vec<u128>),
}

/// Evaluates `$body` with the patterns `$q` and `$v` bound to the
/// quotients and values of the tables `$t`, in whichever word they are
/// stored.
macro_rules! on_words {
    ($t:expr, ($q:pat, $v:pat) => $body:expr) => {
        match &$t.0.words {
            $crate::constants::Words::Narrow($q, $v) => $body,
            $crate::constants::Words::Wide($q, $v) => $body,
        }
    };
}
pub(crate) use on_words;

/// Each value's Shoup quotient under `m`, of the value reduced.
fn quotients<M: ModArith>(m: M, values: &[M::Word]) -> Vec<M::Word> {
    values.iter().map(|&w| m.shoup(m.canon(w))).collect()
}

impl ConstantTables {
    /// Tables for a kernel under modulus `q`: `values` holds the
    /// contents of `spans`, concatenated in span order. This computes
    /// every value's quotient, one division each.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` is not the spans' total length, or if
    /// the spans do not ascend without overlapping: a registered table
    /// must hold what its spans hold.
    pub fn new(q: u128, spans: Vec<(usize, usize)>, values: Vec<u128>) -> Self {
        let total: usize = spans.iter().map(|&(_, len)| len).sum();
        assert_eq!(values.len(), total, "one value per span element");
        let disjoint = spans.windows(2).all(|p| p[0].0 + p[0].1 <= p[1].0);
        assert!(disjoint, "spans ascend without overlapping");
        let words = match Engine::new(q) {
            Some(Engine::Narrow(m)) if values.iter().all(|&w| w >> 64 == 0) => {
                let values: Vec<u64> = values.iter().map(|&w| w as u64).collect();
                Words::Narrow(quotients(m, &values), values)
            }
            Some(Engine::Wide(m)) => Words::Wide(quotients(m, &values), values),
            _ => Words::Wide(Vec::new(), values),
        };
        ConstantTables(Arc::new(Tables { q, spans, words }))
    }

    /// `(element offset, length)` of every table.
    pub fn spans(&self) -> &[(usize, usize)] {
        &self.0.spans
    }

    /// Writes every table's values at its span of `image`.
    ///
    /// # Panics
    ///
    /// Panics if a span reaches past the end of `image`.
    pub fn place(&self, image: &mut [u128]) {
        on_words!(self, (_, values) => for (off, table) in self.placed(values) {
            put(&mut image[off..off + table.len()], table);
        })
    }

    /// Each span's offset with its slice of the words `w` (one per span
    /// element, in span order).
    pub(crate) fn placed<'a, T>(&'a self, w: &'a [T]) -> impl Iterator<Item = (usize, &'a [T])> {
        let mut rest = w;
        self.0.spans.iter().map(move |&(off, len)| {
            let (table, tail) = rest.split_at(len);
            rest = tail;
            (off, table)
        })
    }

    /// The index in the values of VDM element `start`, if the window
    /// `[start, start + len)` lies inside one span.
    pub(crate) fn find(&self, start: usize, len: usize) -> Option<usize> {
        let mut at = 0;
        for &(off, span) in &self.0.spans {
            match start.checked_sub(off) {
                Some(skip) if skip + len <= span => return Some(at + skip),
                _ => at += span,
            }
        }
        None
    }
}
