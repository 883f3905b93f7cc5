//! A kernel's constant VDM tables, with the Shoup quotients the fast
//! path multiplies them through.

use rpu_arith::Engine;
use std::sync::Arc;

/// The constant tables of one kernel's VDM working set — twiddles,
/// gather indices, sign vectors — as `(element offset, length)` spans
/// and their values, plus, under a modulus the wide engine services,
/// each value's Shoup quotient `⌊w·2¹²⁸/q⌋` (of the value reduced),
/// computed once here.
///
/// [`FunctionalSim::load_constants`](crate::FunctionalSim::load_constants)
/// writes the values and remembers the spans, so the fast path can
/// multiply a register loaded from them through
/// [`Modulus128::mul_shoup`](rpu_arith::Modulus128::mul_shoup); the
/// interpreter never reads a quotient. A narrow modulus keeps Barrett
/// and gets no quotients: on the 59-bit leveled workload, where each
/// twiddle vector is loaded for a single butterfly, they cost more
/// memory than the time they won (`docs/arith-engines.md`). Clones
/// share the data.
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
pub struct ConstantTables(Arc<Tables>);

#[derive(Debug)]
pub(crate) struct Tables {
    /// The modulus the quotients serve.
    pub(crate) q: u128,
    spans: Vec<(usize, usize)>,
    /// The spans' contents, concatenated in span order.
    pub(crate) values: Vec<u128>,
    /// `values[i]`'s quotient at index `i`; empty unless `q` is wide.
    pub(crate) quotients: Vec<u128>,
}

impl ConstantTables {
    /// Tables for a kernel under modulus `q`: `values` holds the
    /// contents of `spans`, concatenated in span order. Under a wide
    /// modulus this computes every value's quotient, one division each.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` is not the spans' total length.
    pub fn new(q: u128, spans: Vec<(usize, usize)>, values: Vec<u128>) -> Self {
        let total: usize = spans.iter().map(|&(_, len)| len).sum();
        assert_eq!(values.len(), total, "one value per span element");
        let quotients = match Engine::new(q) {
            Some(Engine::Mont128(m)) => values.iter().map(|&w| m.shoup(m.reduce(w))).collect(),
            _ => Vec::new(),
        };
        ConstantTables(Arc::new(Tables {
            q,
            spans,
            values,
            quotients,
        }))
    }

    /// `(element offset, length)` of every table.
    pub fn spans(&self) -> &[(usize, usize)] {
        &self.0.spans
    }

    /// Each span's offset with its values, in span order.
    pub fn placed(&self) -> impl Iterator<Item = (usize, &[u128])> {
        let mut rest = self.0.values.as_slice();
        self.0.spans.iter().map(move |&(off, len)| {
            let (table, tail) = rest.split_at(len);
            rest = tail;
            (off, table)
        })
    }

    /// The tables' data, for the simulator.
    pub(crate) fn tables(&self) -> &Tables {
        &self.0
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
