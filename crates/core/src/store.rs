//! [`KernelStore`]: the one kernel store of an [`Rpu`](crate::Rpu).
//!
//! A kernel is a data-free program keyed by its [`KernelKey`], so every
//! session and every lane of an `Rpu` can share one copy — as the
//! paper's SPIRAL generates a program once and it is loaded onto each
//! device. The first request for a key generates its kernel, verifies it
//! against the golden model and cycle-times it under the `Rpu`'s
//! [`CycleSim`]; every later request, from any lane, gets that entry.

use crate::RpuError;
use rpu_codegen::{Kernel, KernelKey, KernelSpec};
use rpu_isa::InstructionMix;
use rpu_sim::{CycleSim, SimStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A built kernel beside its cycle timing and instruction mix, both
/// pure functions of the program and the `Rpu`'s configuration.
#[derive(Debug)]
pub(crate) struct Stored {
    pub(crate) kernel: Arc<Kernel>,
    pub(crate) stats: SimStats,
    pub(crate) mix: InstructionMix,
}

/// One key's entry, empty until its kernel is built. The build holds
/// the lock, so a second request for the key waits for it instead of
/// building the key again.
type Slot = Mutex<Option<Arc<Stored>>>;

/// The kernels of one [`Rpu`](crate::Rpu), each generated, verified and
/// cycle-timed once ([`Rpu::kernel_store`](crate::Rpu::kernel_store)).
/// Sessions fetch from it through [`RpuSession::compile`](crate::RpuSession::compile)
/// and keep only the keys they asked for.
#[derive(Debug)]
pub struct KernelStore {
    cycle_sim: CycleSim,
    slots: Mutex<HashMap<KernelKey, Arc<Slot>>>,
    generated: AtomicU64,
    verified: AtomicU64,
}

/// Every guarded update here is one assignment — a build that panics
/// leaves its slot empty — so a poisoned lock still guards valid data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl KernelStore {
    pub(crate) fn new(cycle_sim: CycleSim) -> Self {
        KernelStore {
            cycle_sim,
            slots: Mutex::default(),
            generated: AtomicU64::new(0),
            verified: AtomicU64::new(0),
        }
    }

    /// The entry for `spec`, built on its key's first request. A clean
    /// verification mismatch is stored like a pass (the verdict is
    /// memoized on the kernel, [`Kernel::verification`]); a failed build
    /// stores nothing, so a waiting request builds again and gets its
    /// own error.
    ///
    /// # Errors
    ///
    /// Returns [`RpuError::Codegen`] if generation fails or
    /// [`RpuError::Exec`] if verification faults.
    pub(crate) fn get<S: KernelSpec + ?Sized>(&self, spec: &S) -> Result<Arc<Stored>, RpuError> {
        let slot = Arc::clone(lock(&self.slots).entry(spec.key()).or_default());
        let mut entry = lock(&slot);
        if let Some(stored) = &*entry {
            return Ok(Arc::clone(stored));
        }
        let kernel = spec.generate()?;
        self.generated.fetch_add(1, Ordering::Relaxed);
        kernel.verify()?;
        self.verified.fetch_add(1, Ordering::Relaxed);
        let (stats, mix) = self.time(&kernel);
        let kernel = Arc::new(kernel);
        let stored = Arc::new(Stored { kernel, stats, mix });
        *entry = Some(Arc::clone(&stored));
        Ok(stored)
    }

    /// `kernel`'s stored timing when the store built its key, else a
    /// fresh one (a kernel generated outside the store).
    pub(crate) fn timing(&self, kernel: &Kernel) -> (SimStats, InstructionMix) {
        let stored = self.stored(&kernel.key());
        stored.map_or_else(|| self.time(kernel), |s| (s.stats.clone(), s.mix))
    }

    fn stored(&self, key: &KernelKey) -> Option<Arc<Stored>> {
        let slot = lock(&self.slots).get(key).cloned()?;
        let entry = lock(&slot);
        entry.clone()
    }

    fn time(&self, kernel: &Kernel) -> (SimStats, InstructionMix) {
        (
            self.cycle_sim.simulate(kernel.program()),
            kernel.program().mix(),
        )
    }

    /// `true` if a kernel for `key` is stored (a failed build leaves
    /// none).
    pub fn contains(&self, key: &KernelKey) -> bool {
        self.stored(key).is_some()
    }

    /// Kernels generated so far: one per key, whatever the number of
    /// sessions and lanes that asked for it.
    pub fn generated(&self) -> u64 {
        self.generated.load(Ordering::Relaxed)
    }

    /// Kernels verified against their golden model so far: one per
    /// stored key.
    pub fn verified(&self) -> u64 {
        self.verified.load(Ordering::Relaxed)
    }
}
