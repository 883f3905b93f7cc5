//! Structured per-dispatch tracing.
//!
//! Every successful kernel dispatch on an [`RpuSession`] can emit one
//! [`DispatchEvent`] to a [`TraceSink`] installed through
//! [`RpuBuilder::trace`]. The default implementation,
//! [`RingTraceSink`], keeps a bounded ring of the most recent events
//! and assigns each a monotone sequence number under its lock, so the
//! recorded order is the dispatch order even when several lane worker
//! threads record concurrently.
//!
//! The serve layer tags the events of a batch with the submitting
//! tenant (see [`TenantTag`]); fairness tests then assert scheduling
//! properties directly on the trace instead of on an ad-hoc dispatch
//! log inside the scheduler.
//!
//! [`RpuSession`]: crate::RpuSession
//! [`RpuBuilder::trace`]: crate::RpuBuilder::trace

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

use rpu_codegen::{EngineKind, KernelKey};

/// One structured record of a successful kernel dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchEvent {
    /// Global dispatch order assigned by the sink: the `seq`-th event
    /// it recorded (0-based). Events with consecutive `seq` values were
    /// recorded back to back.
    pub seq: u64,
    /// Kernel-cache key of the dispatched kernel.
    pub key: KernelKey,
    /// The arithmetic engine that serviced the dispatch, selected from
    /// the kernel's modulus width (`Kernel::engine()`): native u64
    /// lanes below 2⁶³, 128-bit lanes otherwise. Stable across
    /// snapshot/restore — a restored session re-derives the same engine
    /// from the re-pinned kernel's key.
    pub engine: EngineKind,
    /// Index of the lane (cluster session) that ran the dispatch; 0 for
    /// a standalone session.
    pub lane: usize,
    /// Stable ids of the input device buffers, in operand order.
    pub inputs: Vec<u64>,
    /// Stable ids of the output device buffers, in operand order.
    pub outputs: Vec<u64>,
    /// Modeled device cycles for the dispatch.
    pub cycles: u64,
    /// Host wall-clock nanoseconds the dispatch took (simulation time,
    /// not modeled device time).
    pub wall_ns: u64,
    /// Tenant that submitted the work, when the dispatch ran inside a
    /// serve-layer batch tagged via [`TenantTag`]; `None` for untagged
    /// work (admin traffic, direct session use).
    pub tenant: Option<u32>,
}

/// Consumer of [`DispatchEvent`]s.
///
/// Implementations must be thread-safe: cluster runs record from
/// several lane worker threads concurrently. `Debug` is required so the
/// owning [`Rpu`](crate::Rpu) stays debuggable.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Records one event. The `seq` field of the passed event is 0; a
    /// sink that exposes ordering assigns its own sequence numbers.
    fn record(&self, event: DispatchEvent);

    /// Sequence number the *next* recorded event will receive. Sinks
    /// without ordering may leave the default (always 0).
    fn next_seq(&self) -> u64 {
        0
    }

    /// Returns the retained events with `seq >= since`, oldest first.
    /// Sinks that do not retain events return an empty vec.
    fn events_since(&self, since: u64) -> Vec<DispatchEvent> {
        let _ = since;
        Vec::new()
    }
}

#[derive(Debug)]
struct RingState {
    events: VecDeque<DispatchEvent>,
    /// Total events ever recorded == seq of the next event.
    recorded: u64,
}

/// Default [`TraceSink`]: a bounded ring buffer of the most recent
/// events. Recording assigns sequence numbers under the same lock that
/// appends, so `events()` is faithful to global dispatch order.
#[derive(Debug)]
pub struct RingTraceSink {
    capacity: usize,
    inner: Mutex<RingState>,
}

impl RingTraceSink {
    /// Creates a sink retaining at most `capacity` events (older events
    /// are dropped first). A capacity of 0 records ordering only.
    pub fn new(capacity: usize) -> Self {
        RingTraceSink {
            capacity,
            inner: Mutex::new(RingState {
                events: VecDeque::new(),
                recorded: 0,
            }),
        }
    }

    /// The ring, recovered if a thread panicked while holding it:
    /// [`record`](TraceSink::record) assigns `seq` and counts the event
    /// before it pushes, so every guarded update leaves valid data.
    fn state(&self) -> MutexGuard<'_, RingState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Total number of events ever recorded (including ones the ring
    /// has since dropped).
    pub fn recorded(&self) -> u64 {
        self.state().recorded
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.state().events.len()
    }

    /// True if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<DispatchEvent> {
        self.state().events.iter().cloned().collect()
    }

    /// Drops all retained events (sequence numbering continues).
    pub fn clear(&self) {
        self.state().events.clear();
    }
}

impl Default for RingTraceSink {
    /// A ring retaining the most recent 4096 events.
    fn default() -> Self {
        RingTraceSink::new(4096)
    }
}

impl TraceSink for RingTraceSink {
    fn record(&self, mut event: DispatchEvent) {
        let mut inner = self.state();
        event.seq = inner.recorded;
        inner.recorded += 1;
        if self.capacity == 0 {
            return;
        }
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
        }
        inner.events.push_back(event);
    }

    fn next_seq(&self) -> u64 {
        self.state().recorded
    }

    fn events_since(&self, since: u64) -> Vec<DispatchEvent> {
        self.state()
            .events
            .iter()
            .filter(|e| e.seq >= since)
            .cloned()
            .collect()
    }
}

thread_local! {
    static DISPATCH_TENANT: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Sets the tenant tag recorded on dispatches made by *this thread*
/// until changed again; returns the previous tag. Prefer the RAII
/// [`TenantTag`] guard, which restores the previous tag even on panic.
pub fn set_dispatch_tenant(tenant: Option<u32>) -> Option<u32> {
    DISPATCH_TENANT.with(|t| t.replace(tenant))
}

/// Tenant tag dispatches on this thread currently record.
pub(crate) fn current_tenant() -> Option<u32> {
    DISPATCH_TENANT.with(|t| t.get())
}

/// RAII guard tagging all dispatches made by the current thread with a
/// tenant id; the previous tag is restored on drop (including unwind),
/// so long-lived lane threads never leak a stale tag across jobs.
#[derive(Debug)]
pub struct TenantTag {
    prev: Option<u32>,
}

impl TenantTag {
    /// Tags subsequent dispatches on this thread with `tenant`.
    pub fn new(tenant: u32) -> Self {
        TenantTag {
            prev: set_dispatch_tenant(Some(tenant)),
        }
    }
}

impl Drop for TenantTag {
    fn drop(&mut self) {
        set_dispatch_tenant(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_codegen::{CodegenStyle, Direction, KernelKey, KernelOp};

    fn event() -> DispatchEvent {
        DispatchEvent {
            seq: 0,
            key: KernelKey {
                op: KernelOp::Ntt,
                n: 1024,
                q: 12289,
                direction: Direction::Forward,
                style: CodegenStyle::Optimized,
                param: 0,
            },
            engine: EngineKind::for_modulus(12289),
            lane: 0,
            inputs: vec![1],
            outputs: vec![2],
            cycles: 10,
            wall_ns: 100,
            tenant: None,
        }
    }

    #[test]
    fn ring_assigns_monotone_seq_and_bounds_retention() {
        let sink = RingTraceSink::new(3);
        for _ in 0..5 {
            sink.record(event());
        }
        assert_eq!(sink.recorded(), 5);
        assert_eq!(sink.len(), 3);
        let seqs: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(sink.next_seq(), 5);
        assert_eq!(sink.events_since(4).len(), 1);
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.recorded(), 5);
    }

    #[test]
    fn a_poisoned_ring_keeps_recording_and_reading() {
        let sink = RingTraceSink::new(2);
        sink.record(event());
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = sink.inner.lock();
                panic!("a lane dies holding the trace lock");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(sink.inner.is_poisoned());
        sink.record(event());
        sink.record(event());
        assert_eq!(sink.recorded(), 3);
        let seqs: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        assert_eq!(sink.events_since(2).len(), 1);
        assert_eq!(sink.next_seq(), 3);
    }

    #[test]
    fn tenant_tag_restores_previous_on_drop() {
        assert_eq!(current_tenant(), None);
        {
            let _outer = TenantTag::new(7);
            assert_eq!(current_tenant(), Some(7));
            {
                let _inner = TenantTag::new(9);
                assert_eq!(current_tenant(), Some(9));
            }
            assert_eq!(current_tenant(), Some(7));
        }
        assert_eq!(current_tenant(), None);
    }

    #[test]
    fn tenant_tag_survives_panic_unwind() {
        let caught = std::panic::catch_unwind(|| {
            let _tag = TenantTag::new(3);
            panic!("boom");
        });
        assert!(caught.is_err());
        assert_eq!(current_tenant(), None);
    }
}
