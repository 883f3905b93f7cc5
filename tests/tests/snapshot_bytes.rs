//! The `SNAP_V1` bytes of one fixed session, pinned by length and
//! FNV-1a as the tree wrote them before sessions kept lifetime stats
//! (PR 20): accounting is a diagnostic and must never reach a snapshot.
//!
//! Buffer ids are process-global and land in the heap map, so this test
//! has a binary to itself — a second test allocating beside it would
//! make the bytes depend on thread timing.

use rpu::Rpu;

#[test]
fn a_sessions_snapshot_bytes_are_what_they_were_before_it_kept_stats() {
    let data = |len: u128, seed: u128| -> Vec<u128> {
        (0..len)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed))
            .collect()
    };
    let rpu = Rpu::builder().build().unwrap();
    let mut s = rpu.session();
    let kept = s.upload(&data(700, 1)).unwrap();
    let hole = s.upload(&data(300, 2)).unwrap();
    s.free(hole).unwrap();
    s.download(&kept).unwrap();
    assert_ne!(s.stats().transfer.host_elements(), 0);
    let bytes = s.snapshot();
    let fnv1a = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!((bytes.len(), fnv1a), (4_210_757, 0xcaa0_a853_7608_9148));
}
