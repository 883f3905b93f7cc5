//! The VDM layout of an emitted NTT, and the working-set check every
//! generator runs.
//!
//! Generated kernels use absolute element offsets with the convention
//! `ARF[a0] = 0` (the reset state), which the host can relocate by
//! setting `a0` — the paper's stated purpose for the ARF. The layout is
//! a ping-pong pair of ring buffers followed by the per-stage twiddle
//! tables:
//!
//! ```text
//! 0 ........ n ........ 2n ......................... total
//! [ buffer A ][ buffer B ][ stage-0 tw ][ stage-1 tw ] ...
//! ```

use crate::CodegenError;
use rpu_isa::consts::{ELEM_BYTES, VDM_MAX_BYTES, VECTOR_LEN};
use rpu_isa::ADDRESS_BITS;

/// The one working-set check every generator runs before emitting code:
/// a kernel of `total_elements` VDM elements must fit the architectural
/// VDM, and — since generated kernels address memory as `a0 + offset`
/// with `a0 = 0` — every element must be reachable by the instructions'
/// static offset field, or the encoded program would address different
/// memory than the one that was verified.
pub(crate) fn check_working_set(total_elements: usize) -> Result<(), CodegenError> {
    if total_elements > (VDM_MAX_BYTES / ELEM_BYTES).min(1 << ADDRESS_BITS) {
        return Err(CodegenError::WorkingSetTooLarge {
            bytes: total_elements * ELEM_BYTES,
        });
    }
    Ok(())
}

/// Element-offset map of an NTT's VDM window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct KernelLayout {
    /// Ring degree.
    pub(crate) n: usize,
    /// Offset of ping-pong buffer A (the input lives here).
    pub(crate) buffer_a: usize,
    /// Offset of ping-pong buffer B.
    pub(crate) buffer_b: usize,
    /// Per-stage twiddle-table base offsets.
    pub(crate) twiddle_bases: Vec<usize>,
    /// Number of distinct 512-element twiddle vectors per stage.
    pub(crate) twiddle_counts: Vec<usize>,
    /// Offset of the buffer holding the output.
    pub(crate) output_offset: usize,
    /// Total VDM elements used.
    pub(crate) total_elements: usize,
}

impl KernelLayout {
    /// Builds the layout for an `n`-point kernel whose stage `s` needs
    /// `twiddle_counts[s]` distinct twiddle vectors.
    ///
    /// The output lands in buffer A when the stage count is even, B when
    /// odd (the ping-pong parity).
    pub(crate) fn new(n: usize, twiddle_counts: Vec<usize>) -> Self {
        let stages = twiddle_counts.len();
        let mut next = 2 * n;
        let mut twiddle_bases = Vec::with_capacity(stages);
        for &c in &twiddle_counts {
            twiddle_bases.push(next);
            next += c * VECTOR_LEN;
        }
        let output_offset = if stages.is_multiple_of(2) { 0 } else { n };
        KernelLayout {
            n,
            buffer_a: 0,
            buffer_b: n,
            twiddle_bases,
            twiddle_counts,
            output_offset,
            total_elements: next,
        }
    }

    /// The input/output buffer offsets at stage `s` (ping-pong parity).
    pub(crate) fn stage_buffers(&self, s: u32) -> (usize, usize) {
        if s.is_multiple_of(2) {
            (self.buffer_a, self.buffer_b)
        } else {
            (self.buffer_b, self.buffer_a)
        }
    }

    /// Offset of distinct twiddle vector `v` of stage `s`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the stage.
    pub(crate) fn twiddle_vector_offset(&self, s: u32, v: usize) -> usize {
        assert!(v < self.twiddle_counts[s as usize], "twiddle vector index");
        self.twiddle_bases[s as usize] + v * VECTOR_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous() {
        let l = KernelLayout::new(4096, vec![1, 1, 2, 4]);
        assert_eq!(l.buffer_a, 0);
        assert_eq!(l.buffer_b, 4096);
        assert_eq!(l.twiddle_bases[0], 8192);
        assert_eq!(l.twiddle_bases[1], 8192 + 512);
        assert_eq!(l.twiddle_bases[2], 8192 + 1024);
        assert_eq!(l.twiddle_bases[3], 8192 + 2048);
        assert_eq!(l.total_elements, 8192 + 1024 + 1024 + 2048);
    }

    #[test]
    fn output_parity() {
        // even stage count -> output back in A
        assert_eq!(KernelLayout::new(16, vec![1, 1]).output_offset, 0);
        // odd -> B
        assert_eq!(KernelLayout::new(16, vec![1, 1, 1]).output_offset, 16);
    }

    #[test]
    fn stage_buffers_ping_pong() {
        let l = KernelLayout::new(1024, vec![1; 10]);
        assert_eq!(l.stage_buffers(0), (0, 1024));
        assert_eq!(l.stage_buffers(1), (1024, 0));
        assert_eq!(l.stage_buffers(2), (0, 1024));
    }
}
