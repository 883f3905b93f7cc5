//! Device-resident buffers: typed handles into a session-owned VDM
//! heap, plus the allocator behind them.
//!
//! The RPU's execution model (Section II of the paper) keeps ring data
//! resident in the VDM while a stream of B512 kernels is dispatched
//! over it; the host only uploads inputs once and downloads final
//! results. This module supplies the runtime half of that model:
//! [`DeviceBuffer`] handles returned by `RpuSession::alloc`/`upload`,
//! the first-fit [`BufferAllocator`] that backs them, and the
//! [`TransferStats`] accounting that shows what a dispatch *didn't*
//! have to move.
//!
//! The session lays its device memory out as
//!
//! ```text
//! 0 ............. workspace ............ workspace + heap
//! [ kernel working sets (transient) ][ resident buffers (heap) ]
//! ```
//!
//! Kernels address their working set at element 0 (`a0 = 0`); a
//! dispatch binds resident buffers by copying them into the loaded
//! kernel's operand windows on-device — never through the host.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Session-unique ids so a handle from one session (or a freed handle)
/// can never alias a live allocation in another.
static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(1);

/// A typed handle to `len` 128-bit elements resident in a session's
/// device heap.
///
/// Handles are `Copy` tokens; the data lives in the session. A handle
/// is invalidated by `RpuSession::free` — later use returns
/// [`BufferError::StaleHandle`] rather than touching recycled memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceBuffer {
    id: u64,
    offset: usize,
    len: usize,
}

impl DeviceBuffer {
    /// Length in 128-bit elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the buffer holds no elements (never produced by the
    /// allocator, which rejects zero-length requests).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Absolute VDM element offset of the buffer (diagnostics; the
    /// session resolves and validates handles itself).
    pub fn offset_elements(&self) -> usize {
        self.offset
    }

    /// The session-unique allocation id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Rebuilds a handle from its serialized identity — snapshot
    /// restore only. The triple must come from a live entry of a
    /// snapshotted allocator so the restored allocator resolves it.
    pub(crate) fn from_raw(id: u64, offset: usize, len: usize) -> Self {
        DeviceBuffer { id, offset, len }
    }
}

/// Errors from the device-buffer layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BufferError {
    /// The heap cannot satisfy the allocation.
    OutOfMemory {
        /// Requested elements.
        requested: usize,
        /// Largest contiguous free block, in elements.
        largest_free: usize,
        /// Total free elements (may be fragmented).
        free_total: usize,
    },
    /// Zero-length allocations are rejected.
    ZeroLength,
    /// The handle was freed, or belongs to a different session (another
    /// lane of a cluster included): buffer ids are global and never
    /// reused, so no other heap can mistake it for one of its own.
    StaleHandle {
        /// The offending handle's id.
        id: u64,
    },
    /// A buffer's length does not match what the operation needs.
    LengthMismatch {
        /// Required elements.
        expected: usize,
        /// The buffer's elements.
        got: usize,
    },
    /// The kernel takes a different number of operands (or outputs).
    ArityMismatch {
        /// What the kernel requires.
        expected: usize,
        /// What the caller passed.
        got: usize,
    },
    /// The kernel's working set exceeds the session's workspace region.
    WorkspaceOverflow {
        /// Elements the kernel needs.
        required: usize,
        /// Workspace capacity in elements.
        capacity: usize,
    },
}

impl core::fmt::Display for BufferError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BufferError::OutOfMemory {
                requested,
                largest_free,
                free_total,
            } => write!(
                f,
                "device heap exhausted: requested {requested} elements, largest \
                 free block {largest_free} ({free_total} free in total)"
            ),
            BufferError::ZeroLength => write!(f, "zero-length device buffers are not allowed"),
            BufferError::StaleHandle { id } => write!(
                f,
                "device buffer {id} is not live in this session (freed, or from \
                 another session)"
            ),
            BufferError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "buffer length mismatch: need {expected} elements, got {got}"
                )
            }
            BufferError::ArityMismatch { expected, got } => {
                write!(f, "kernel binds {expected} buffer(s) here, got {got}")
            }
            BufferError::WorkspaceOverflow { required, capacity } => write!(
                f,
                "kernel working set of {required} elements exceeds the session \
                 workspace of {capacity}"
            ),
        }
    }
}

impl std::error::Error for BufferError {}

/// Data-movement accounting for one run — the evidence that a resident
/// pipeline skipped per-op re-uploads.
///
/// All counts are in 128-bit elements. `RpuSession::dispatch` moves no
/// host data at all (`host_to_device`/`device_to_host` stay 0; uploads
/// happened once, earlier); the one-shot `RpuSession::run` convenience
/// pays the full round trip every call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransferStats {
    /// Elements uploaded host → device for this run.
    pub host_to_device: usize,
    /// Elements downloaded device → host for this run.
    pub device_to_host: usize,
    /// Elements moved VDM → VDM on-device (operand binding + result
    /// write-back).
    pub device_copies: usize,
    /// Constant-image elements written on a kernel switch: the kernel's
    /// VDM tables plus its SDM scalars — not its operand windows or
    /// scratch, which a load leaves alone (0 when the kernel image was
    /// already resident).
    pub image_elements: usize,
    /// `true` when the kernel's constant image was already loaded from a
    /// previous dispatch and did not have to be rewritten.
    pub image_reused: bool,
}

impl TransferStats {
    /// Total host-link traffic (upload + download) in elements.
    pub fn host_elements(&self) -> usize {
        self.host_to_device + self.device_to_host
    }

    /// Accumulates another run's counts into this one (aggregate
    /// accounting across a lane's dispatches). `image_reused` becomes
    /// `true` if any absorbed run reused a resident image.
    pub fn absorb(&mut self, other: &TransferStats) {
        self.host_to_device += other.host_to_device;
        self.device_to_host += other.device_to_host;
        self.device_copies += other.device_copies;
        self.image_elements += other.image_elements;
        self.image_reused |= other.image_reused;
    }
}

/// First-fit free-list allocator over the session's heap region
/// `[base, base + capacity)`, with coalescing on free.
#[derive(Debug)]
pub struct BufferAllocator {
    base: usize,
    capacity: usize,
    /// Free blocks as `(offset, len)`, sorted by offset, coalesced.
    free: Vec<(usize, usize)>,
    /// Live allocations: id → `(offset, len)`.
    live: HashMap<u64, (usize, usize)>,
    /// Highest heap-relative end offset ever allocated (how much of the
    /// region the backing simulator must actually cover).
    high_water: usize,
}

impl BufferAllocator {
    /// An empty allocator over `[base, base + capacity)`.
    pub fn new(base: usize, capacity: usize) -> Self {
        let free = if capacity > 0 {
            vec![(base, capacity)]
        } else {
            Vec::new()
        };
        BufferAllocator {
            base,
            capacity,
            free,
            live: HashMap::new(),
            high_water: 0,
        }
    }

    /// Heap capacity in elements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Absolute VDM element offset where the heap region begins.
    pub(crate) fn base(&self) -> usize {
        self.base
    }

    /// Heap-relative high-water mark (see [`high_water_end`]).
    ///
    /// [`high_water_end`]: BufferAllocator::high_water_end
    pub(crate) fn high_water(&self) -> usize {
        self.high_water
    }

    /// Every live allocation as `(id, offset, len)`, sorted by id —
    /// the identity-preserving form snapshots record so restored
    /// handles resolve exactly as before.
    pub(crate) fn live_entries(&self) -> Vec<(u64, usize, usize)> {
        let mut entries: Vec<(u64, usize, usize)> = self
            .live
            .iter()
            .map(|(&id, &(offset, len))| (id, offset, len))
            .collect();
        entries.sort_unstable();
        entries
    }

    /// Replaces the allocator's entire state with a snapshotted one.
    ///
    /// Validates everything before touching `self` (all blocks inside
    /// `[base, base + capacity)`, live + free exactly partition the
    /// heap with no overlap), so a rejected restore leaves the
    /// allocator unchanged. On success the global id counter is bumped
    /// past every restored id, so buffers allocated later can never
    /// alias a restored handle.
    pub(crate) fn restore_state(
        &mut self,
        live: Vec<(u64, usize, usize)>,
        free: Vec<(usize, usize)>,
        high_water: usize,
    ) -> Result<(), String> {
        let end = self.base + self.capacity;
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(live.len() + free.len());
        for &(id, offset, len) in &live {
            if len == 0 {
                return Err(format!("live buffer {id} has zero length"));
            }
            if offset < self.base || offset + len > end {
                return Err(format!(
                    "live buffer {id} at [{offset}, {}) escapes the heap [{}, {end})",
                    offset + len,
                    self.base
                ));
            }
            if offset + len - self.base > high_water {
                return Err(format!(
                    "live buffer {id} ends past the high-water mark {high_water}"
                ));
            }
            spans.push((offset, len));
        }
        for &(offset, len) in &free {
            if len == 0 {
                return Err(format!("free block at {offset} has zero length"));
            }
            if offset < self.base || offset + len > end {
                return Err(format!(
                    "free block [{offset}, {}) escapes the heap [{}, {end})",
                    offset + len,
                    self.base
                ));
            }
            spans.push((offset, len));
        }
        spans.sort_unstable();
        let mut covered = self.base;
        for &(offset, len) in &spans {
            if offset != covered {
                return Err(format!(
                    "heap blocks overlap or leave a gap at element {covered}"
                ));
            }
            covered = offset + len;
        }
        if covered != end && !(self.capacity == 0 && spans.is_empty()) {
            return Err(format!(
                "heap blocks cover [{}, {covered}) but the heap ends at {end}",
                self.base
            ));
        }
        if high_water > self.capacity {
            return Err(format!(
                "high-water mark {high_water} exceeds heap capacity {}",
                self.capacity
            ));
        }
        let mut ids = std::collections::HashSet::with_capacity(live.len());
        let mut max_id = 0u64;
        for &(id, _, _) in &live {
            if !ids.insert(id) {
                return Err(format!("duplicate live buffer id {id}"));
            }
            max_id = max_id.max(id);
        }
        // All checks passed — swap in the new state atomically.
        let mut new_free = free;
        new_free.sort_unstable();
        let mut coalesced: Vec<(usize, usize)> = Vec::with_capacity(new_free.len());
        for (offset, len) in new_free {
            match coalesced.last_mut() {
                Some(last) if last.0 + last.1 == offset => last.1 += len,
                _ => coalesced.push((offset, len)),
            }
        }
        self.free = coalesced;
        self.live = live
            .into_iter()
            .map(|(id, offset, len)| (id, (offset, len)))
            .collect();
        self.high_water = high_water;
        NEXT_BUFFER_ID.fetch_max(max_id + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Elements currently allocated.
    pub fn in_use(&self) -> usize {
        self.live.values().map(|&(_, len)| len).sum()
    }

    /// Number of live buffers.
    pub fn live_buffers(&self) -> usize {
        self.live.len()
    }

    /// Highest absolute VDM element the heap has ever reached (the
    /// backing simulator is grown to cover exactly this).
    pub fn high_water_end(&self) -> usize {
        self.base + self.high_water
    }

    /// The free list as `(offset, len)` blocks, sorted by offset and
    /// fully coalesced — introspection for invariant checking (the
    /// device-buffer property tests assert that free and live blocks
    /// partition the heap with no overlap and no adjacent free blocks).
    pub fn free_blocks(&self) -> Vec<(usize, usize)> {
        self.free.clone()
    }

    /// Every live allocation as `(offset, len)`, sorted by offset —
    /// introspection for invariant checking.
    pub fn live_blocks(&self) -> Vec<(usize, usize)> {
        let mut blocks: Vec<(usize, usize)> = self.live.values().copied().collect();
        blocks.sort_unstable();
        blocks
    }

    fn largest_free(&self) -> usize {
        self.free.iter().map(|&(_, len)| len).max().unwrap_or(0)
    }

    fn free_total(&self) -> usize {
        self.free.iter().map(|&(_, len)| len).sum()
    }

    /// Allocates `len` elements, first-fit.
    ///
    /// # Errors
    ///
    /// [`BufferError::ZeroLength`] for empty requests,
    /// [`BufferError::OutOfMemory`] when no free block fits.
    pub fn alloc(&mut self, len: usize) -> Result<DeviceBuffer, BufferError> {
        if len == 0 {
            return Err(BufferError::ZeroLength);
        }
        let slot = self.free.iter().position(|&(_, flen)| flen >= len).ok_or(
            BufferError::OutOfMemory {
                requested: len,
                largest_free: self.largest_free(),
                free_total: self.free_total(),
            },
        )?;
        let (offset, flen) = self.free[slot];
        if flen == len {
            self.free.remove(slot);
        } else {
            self.free[slot] = (offset + len, flen - len);
        }
        let id = NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed);
        self.live.insert(id, (offset, len));
        self.high_water = self.high_water.max(offset + len - self.base);
        Ok(DeviceBuffer { id, offset, len })
    }

    /// Validates a handle and returns its `(offset, len)`.
    ///
    /// # Errors
    ///
    /// [`BufferError::StaleHandle`] if the handle is not live here.
    pub fn resolve(&self, buf: &DeviceBuffer) -> Result<(usize, usize), BufferError> {
        match self.live.get(&buf.id) {
            Some(&(offset, len)) if offset == buf.offset && len == buf.len => Ok((offset, len)),
            _ => Err(BufferError::StaleHandle { id: buf.id }),
        }
    }

    /// Frees a buffer, coalescing with adjacent free blocks.
    ///
    /// # Errors
    ///
    /// [`BufferError::StaleHandle`] if the handle is not live here
    /// (double frees included).
    pub fn free(&mut self, buf: &DeviceBuffer) -> Result<(), BufferError> {
        self.resolve(buf)?;
        self.live.remove(&buf.id);
        let (mut offset, mut len) = (buf.offset, buf.len);
        // Insertion point by offset.
        let idx = self.free.partition_point(|&(o, _)| o < offset);
        // Coalesce with the successor…
        if idx < self.free.len() && offset + len == self.free[idx].0 {
            len += self.free[idx].1;
            self.free.remove(idx);
        }
        // …and with the predecessor.
        if idx > 0 && self.free[idx - 1].0 + self.free[idx - 1].1 == offset {
            let (po, plen) = self.free[idx - 1];
            offset = po;
            len += plen;
            self.free[idx - 1] = (offset, len);
        } else {
            self.free.insert(idx, (offset, len));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fit_and_oom() {
        let mut a = BufferAllocator::new(1000, 100);
        let x = a.alloc(60).unwrap();
        assert_eq!(x.offset_elements(), 1000);
        let y = a.alloc(40).unwrap();
        assert_eq!(y.offset_elements(), 1060);
        let err = a.alloc(1).unwrap_err();
        assert_eq!(
            err,
            BufferError::OutOfMemory {
                requested: 1,
                largest_free: 0,
                free_total: 0
            }
        );
        assert_eq!(a.in_use(), 100);
        assert_eq!(a.high_water_end(), 1100);
    }

    #[test]
    fn free_coalesces_in_both_directions() {
        let mut a = BufferAllocator::new(0, 120);
        let x = a.alloc(40).unwrap();
        let y = a.alloc(40).unwrap();
        let z = a.alloc(40).unwrap();
        a.free(&y).unwrap();
        a.free(&x).unwrap(); // merges with y's hole
        a.free(&z).unwrap(); // merges everything back
        assert_eq!(a.free, vec![(0, 120)]);
        // and the full capacity is allocatable again
        assert!(a.alloc(120).is_ok());
    }

    #[test]
    fn freed_space_is_reused() {
        let mut a = BufferAllocator::new(0, 100);
        let x = a.alloc(50).unwrap();
        let _y = a.alloc(50).unwrap();
        a.free(&x).unwrap();
        let z = a.alloc(30).unwrap();
        assert_eq!(z.offset_elements(), 0, "first fit reuses the hole");
        assert!(a.alloc(30).is_err(), "only 20 contiguous remain");
        assert!(a.alloc(20).is_ok());
    }

    #[test]
    fn stale_handles_are_rejected() {
        let mut a = BufferAllocator::new(0, 100);
        let x = a.alloc(10).unwrap();
        a.free(&x).unwrap();
        assert!(matches!(a.free(&x), Err(BufferError::StaleHandle { .. })));
        assert!(matches!(
            a.resolve(&x),
            Err(BufferError::StaleHandle { .. })
        ));
        // handles from a *different* allocator never resolve (global ids)
        let mut b = BufferAllocator::new(0, 100);
        let foreign = b.alloc(10).unwrap();
        assert!(matches!(
            a.resolve(&foreign),
            Err(BufferError::StaleHandle { .. })
        ));
    }

    #[test]
    fn zero_length_and_zero_capacity() {
        let mut a = BufferAllocator::new(0, 0);
        assert_eq!(a.alloc(0), Err(BufferError::ZeroLength));
        assert!(matches!(a.alloc(1), Err(BufferError::OutOfMemory { .. })));
    }
}
