//! Snapshot/restore integration suite: `SNAP_V1` round trips (byte
//! determinism, re-snapshot equality, random heap layouts), bit-exact
//! dispatch after restore into a fresh instance, mid-pipeline restore
//! equivalence for leveled multiply chains at 1/2/4 lanes, typed
//! negative paths (truncation, bad magic, future versions, kind
//! mismatch), and the live-buffer double-free pin: restoring under
//! live handles makes post-snapshot handles stale instead of dangling.

use proptest::prelude::*;
use rpu::ntt::rlwe::{RlweParams, Splitmix};
use rpu::ntt::{automorphism_map, evaluation_map};
use rpu::{
    AutomorphismSpec, BufferError, CodegenStyle, DeviceLeveledCiphertext, ElementwiseOp,
    ElementwiseSpec, EngineKind, LeveledContext, LeveledEvaluator, RingTraceSink, RlweEvaluator,
    Rpu, RpuError, SnapshotError,
};
use std::sync::Arc;

const T: u128 = 65537;
/// Chain prime width for the leveled restore suite (matches the
/// leveled differential suite so noise analysis clears depth 3).
const BITS: u32 = 59;
/// Gadget base: 2 digits per 59-bit prime keeps dispatch counts low.
const BASE_LOG: u32 = 32;

fn test_data(len: usize, seed: u64) -> Vec<u128> {
    (0..len as u128)
        .map(|i| {
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed as u128)
        })
        .collect()
}

fn message(n: usize, seed: u128) -> Vec<u128> {
    (0..n as u128).map(|i| (i * 13 + seed) % 256).collect()
}

/// Unwraps an [`RpuError`] down to its snapshot cause.
fn snap_err(e: RpuError) -> SnapshotError {
    match e {
        RpuError::Snapshot(s) => s,
        other => panic!("expected a snapshot error, got {other}"),
    }
}

// ---------------------------------------------------------------------
// Session round trips
// ---------------------------------------------------------------------

/// Snapshotting is a pure read: taking a snapshot twice yields
/// identical bytes, and restoring those bytes into a fresh instance
/// yields a session whose own snapshot is byte-identical (the format
/// is canonical — no map-iteration nondeterminism leaks in).
#[test]
fn snapshots_are_deterministic_and_restore_is_exact() {
    let rpu = Rpu::builder().build().unwrap();
    let mut s = rpu.session();
    let a = test_data(700, 1);
    let b = test_data(300, 2);
    let ba = s.upload(&a).unwrap();
    let bb = s.upload(&b).unwrap();
    s.free(bb).unwrap(); // leave a hole so the free list is non-trivial
    let bytes = s.snapshot();
    assert_eq!(bytes, s.snapshot(), "snapshot must be a pure read");

    let rpu2 = Rpu::builder().build().unwrap();
    let mut s2 = rpu2.session();
    let restored = s2.restore(&bytes).unwrap();
    assert_eq!(s2.snapshot(), bytes, "re-snapshot equality");
    assert_eq!(restored.len(), 1);
    // Both the returned handle and the original one resolve to the
    // snapshotted contents.
    assert_eq!(s2.download(&restored[0]).unwrap(), a);
    assert_eq!(s2.download(&ba).unwrap(), a);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random heap layouts (mixed sizes, random frees leaving holes)
    /// survive a snapshot → restore → re-snapshot round trip with
    /// byte-identical snapshots, identical live-buffer handles, and
    /// bit-identical buffer contents in a fresh instance.
    #[test]
    fn random_heaps_round_trip_through_snapshots(
        lens in prop::collection::vec(1usize..1500, 1..8),
        drop_mask in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let rpu = Rpu::builder().build().unwrap();
        let mut s = rpu.session();
        let data: Vec<Vec<u128>> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| test_data(l, seed ^ i as u64))
            .collect();
        let bufs: Vec<_> = data.iter().map(|d| s.upload(d).unwrap()).collect();
        let mut kept = Vec::new();
        for (i, buf) in bufs.into_iter().enumerate() {
            if drop_mask >> (i % 64) & 1 == 1 {
                s.free(buf).unwrap();
            } else {
                kept.push((buf, &data[i]));
            }
        }
        let bytes = s.snapshot();

        let rpu2 = Rpu::builder().build().unwrap();
        let mut s2 = rpu2.session();
        let restored = s2.restore(&bytes).unwrap();
        prop_assert_eq!(s2.snapshot(), bytes, "re-snapshot equality");
        let kept_handles: Vec<_> = kept.iter().map(|&(b, _)| b).collect();
        prop_assert_eq!(restored, kept_handles, "same ids, offsets, lengths");
        for (buf, expect) in &kept {
            prop_assert_eq!(&s2.download(buf).unwrap(), *expect);
        }
    }
}

/// A dispatch replayed after restoring into a fresh instance is
/// bit-exact with the original session's continuation, and the
/// regenerated kernel cache answers the compile without a miss. The
/// dispatch traces on both sides must also report the *same* arithmetic
/// engine: the engine is derived from the kernel key, so a restored
/// session re-pins it deterministically.
#[test]
fn dispatch_after_restore_is_bit_exact() {
    let n = rpu::smoke_cap(1024);
    let style = CodegenStyle::Optimized;
    let sink = Arc::new(RingTraceSink::default());
    let rpu = Rpu::builder().trace(sink.clone()).build().unwrap();
    let mut s = rpu.session();
    let q = s.primes_for(n).unwrap();
    let spec = ElementwiseSpec::new(ElementwiseOp::MulMod, n, q, style);
    let kernel = s.compile(&spec).unwrap();
    let a: Vec<u128> = (0..n as u128).map(|i| (i * 31 + 7) % q).collect();
    let b: Vec<u128> = (0..n as u128).map(|i| (i * 57 + 3) % q).collect();
    let ba = s.upload(&a).unwrap();
    let bb = s.upload(&b).unwrap();
    let out = s.alloc(kernel.output_range().1).unwrap();
    s.dispatch(&kernel, &[ba, bb], &[out]).unwrap();
    let bytes = s.snapshot();
    let pre_snapshot_engines: Vec<EngineKind> = sink.events().iter().map(|e| e.engine).collect();
    assert!(!pre_snapshot_engines.is_empty());
    assert!(
        pre_snapshot_engines
            .iter()
            .all(|&e| e == EngineKind::for_modulus(q)),
        "traced engine must follow the kernel's modulus width"
    );

    // Continue on the original: a second, different dispatch.
    s.dispatch(&kernel, &[out, bb], &[out]).unwrap();
    let continued = s.download(&out).unwrap();

    // Restore elsewhere and replay the same continuation.
    let sink2 = Arc::new(RingTraceSink::default());
    let rpu2 = Rpu::builder().trace(sink2.clone()).build().unwrap();
    let mut s2 = rpu2.session();
    s2.restore(&bytes).unwrap();
    let kernel2 = s2.compile(&spec).unwrap();
    assert_eq!(
        s2.cache_stats().misses,
        0,
        "restore must re-pin the kernel cache, not regenerate on use"
    );
    s2.dispatch(&kernel2, &[out, bb], &[out]).unwrap();
    assert_eq!(s2.download(&out).unwrap(), continued, "bit-exact replay");
    let post_restore = sink2.events();
    assert!(!post_restore.is_empty());
    for event in &post_restore {
        assert_eq!(
            event.engine, pre_snapshot_engines[0],
            "post-restore dispatches must report the same engine as pre-snapshot"
        );
    }
}

/// A snapshot names its resident kernel by key, and a key's kernel is
/// whatever this build generates for it. An image written by a build
/// whose kernel for the key had other tables — an `Automorphism` key's
/// coefficient routing, from before `σ_g` moved to evaluation form — is
/// not trusted as resident: the next dispatch loads this build's tables
/// and permutes correctly.
#[test]
fn a_restored_image_without_its_kernels_tables_is_reloaded() {
    let n = 1024usize;
    let rpu = Rpu::builder().build().unwrap();
    let mut s = rpu.session();
    let q = s.primes_for(n).unwrap();
    let spec = AutomorphismSpec::new(n, q, 5, CodegenStyle::Optimized);
    let kernel = s.compile(&spec).unwrap();
    let x: Vec<u128> = (0..n as u128).map(|i| (i * 31 + 7) % q).collect();
    let bx = s.upload(&x).unwrap();
    let out = s.alloc(n).unwrap();
    s.dispatch(&kernel, &[bx], &[out]).unwrap();
    let want: Vec<u128> = (evaluation_map(n, 5).unwrap().iter())
        .map(|&p| x[p])
        .collect();
    assert_eq!(s.download(&out).unwrap(), want);

    // The earlier writer's image: the coefficient routing in the index
    // table's span. The VDM section's payload starts at byte 84 (header
    // 12, `META` 12 + 48, `VDM ` tag and length 12), 16 bytes a word.
    let mut bytes = s.snapshot();
    let (span, len) = kernel.constant_spans()[0];
    let old = automorphism_map(n, 5).unwrap();
    assert_eq!(old.len(), len);
    for (j, &(src, _)) in old.iter().enumerate() {
        let at = 84 + 16 * (span + j);
        bytes[at..at + 16].copy_from_slice(&(src as u128).to_le_bytes());
    }

    let rpu2 = Rpu::builder().build().unwrap();
    let mut s2 = rpu2.session();
    s2.restore(&bytes).unwrap();
    let kernel2 = s2.compile(&spec).unwrap();
    let report = s2.dispatch(&kernel2, &[bx], &[out]).unwrap();
    assert!(!report.transfer.image_reused, "the image held other tables");
    assert_eq!(s2.download(&out).unwrap(), want);

    // The same build's image is resident as it was.
    s2.restore(&s.snapshot()).unwrap();
    let report = s2.dispatch(&kernel2, &[bx], &[out]).unwrap();
    assert!(report.transfer.image_reused);
    assert_eq!(s2.download(&out).unwrap(), want);
}

/// Lane storage width is not device state: a 59-bit session that never
/// left 64-bit lanes and its wide twin — the same op history, widened
/// up front by writing one value of 2⁶⁴ or more into an operand and then
/// the operand back — snapshot to identical `SNAP_V1` bytes (compared
/// once every buffer is freed: live-buffer ids are process-global, so
/// two sessions never share them), and each one's snapshot restores
/// bit-exactly into a fresh session, which is narrow because every
/// restored value fits.
#[test]
fn narrow_session_and_its_wide_twin_snapshot_to_the_same_bytes() {
    use rpu::{Direction, NttSpec};
    let n = rpu::smoke_cap(1024);
    let style = CodegenStyle::Optimized;
    let rpu = Rpu::builder().prime_bits(59).build().unwrap();
    let history = |widen_first: bool| {
        let mut s = rpu.session();
        let q = s.primes_for(n).unwrap();
        let a: Vec<u128> = (0..n as u128).map(|i| (i * 31 + 7) % q).collect();
        let b: Vec<u128> = (0..n as u128).map(|i| (i * 57 + 3) % q).collect();
        let ba = s.upload(&a).unwrap();
        if widen_first {
            s.write(&ba, &vec![u128::MAX; n]).unwrap();
            s.write(&ba, &a).unwrap();
        }
        let bb = s.upload(&b).unwrap();
        let out = s.alloc(n).unwrap();
        // Two kernels, interleaved, so the workspace holds one kernel's
        // leftovers under the other's constants.
        let mul = s
            .compile(&ElementwiseSpec::new(ElementwiseOp::MulMod, n, q, style))
            .unwrap();
        let ntt = s
            .compile(&NttSpec::new(n, q, Direction::Forward, style))
            .unwrap();
        s.dispatch(&mul, &[ba, bb], &[out]).unwrap();
        s.dispatch(&ntt, &[out], &[ba]).unwrap();
        s.dispatch(&mul, &[ba, bb], &[out]).unwrap();
        let (live, result) = (s.snapshot(), s.download(&out).unwrap());
        for buf in [ba, bb, out] {
            s.free(buf).unwrap();
        }
        (s.lane_bits(), s.snapshot(), live, result, out)
    };
    let narrow = history(false);
    let wide = history(true);
    assert_eq!((narrow.0, wide.0), (64, 128));
    assert_eq!(narrow.3, wide.3, "same results on either width");
    assert!(
        narrow.1 == wide.1,
        "lane storage width leaked into SNAP_V1 bytes"
    );
    for (_, _, live, result, out) in [&narrow, &wide] {
        let mut fresh = rpu.session();
        fresh.restore(live).unwrap();
        assert_eq!(fresh.lane_bits(), 64, "every restored value fits 64 bits");
        assert!(&fresh.snapshot() == live, "re-snapshot equality");
        assert_eq!(&fresh.download(out).unwrap(), result);
    }
    // Restoring over a session that already widened keeps it wide
    // (widening is one-way) and is just as exact.
    let mut widened = rpu.session();
    let scratch = widened.upload(&[u128::MAX]).unwrap();
    widened.free(scratch).unwrap();
    widened.restore(&narrow.2).unwrap();
    assert_eq!(widened.lane_bits(), 128);
    assert!(widened.snapshot() == narrow.2, "re-snapshot equality");
    assert_eq!(widened.download(&narrow.4).unwrap(), narrow.3);
}

// ---------------------------------------------------------------------
// Mid-pipeline leveled restore equivalence
// ---------------------------------------------------------------------

/// Downloads every tower of both ciphertext components for bit-exact
/// comparison.
fn towers(
    eval: &mut LeveledEvaluator<'_>,
    ct: &DeviceLeveledCiphertext,
) -> Vec<(Vec<u128>, Vec<u128>)> {
    let host = eval.download_ciphertext(ct).unwrap();
    (0..=host.level())
        .map(|l| {
            (
                host.a_towers()[l].values().to_vec(),
                host.b_towers()[l].values().to_vec(),
            )
        })
        .collect()
}

/// A depth-`depth` multiply-rescale chain, snapshotted after the first
/// level: continuing from the live state and continuing from the
/// restored snapshot must produce identical final ciphertext towers
/// (and decryptions), because nothing after encryption draws host
/// randomness.
fn mid_pipeline_restore_matches(lanes: usize, depth: usize) {
    let n = rpu::smoke_cap(1024);
    let rpu = Rpu::builder().lanes(lanes).build().unwrap();
    let ctx = LeveledContext::generate(n, T, BITS, depth + 1).unwrap();
    let mut eval = LeveledEvaluator::new(&rpu, ctx, CodegenStyle::Optimized).unwrap();
    eval.set_key_base_log(BASE_LOG).unwrap();
    let mut rng = Splitmix::new(0x005E_ED0F_5EED);
    eval.keygen(&mut rng).unwrap();
    eval.relin_keygen(&mut rng).unwrap();
    let msgs: Vec<Vec<u128>> = (0..=depth).map(|s| message(n, s as u128)).collect();
    let cts: Vec<DeviceLeveledCiphertext> = msgs
        .iter()
        .map(|m| eval.encrypt(m, &mut rng).unwrap())
        .collect();

    // Level 1 runs before the snapshot; the rest is the continuation.
    let prod = eval.mul(&cts[0], &cts[1]).unwrap();
    let acc = eval.rescale(&prod).unwrap();
    let bytes = eval.snapshot();

    // Continuation A: straight through on the live state.
    let mut acc_a = acc.clone();
    for ct in cts.iter().take(depth + 1).skip(2) {
        let p = eval.mul(&acc_a, ct).unwrap();
        acc_a = eval.rescale(&p).unwrap();
    }
    let towers_a = towers(&mut eval, &acc_a);
    let plain_a = eval.decrypt(&acc_a).unwrap();

    // Continuation B: rewind the device to the snapshot and replay.
    // Host-side handles from snapshot time (`acc`, `cts`) stay valid;
    // everything allocated after it (`acc_a`'s buffers) goes stale.
    eval.restore(&bytes).unwrap();
    let mut acc_b = acc;
    for ct in cts.iter().take(depth + 1).skip(2) {
        let p = eval.mul(&acc_b, ct).unwrap();
        acc_b = eval.rescale(&p).unwrap();
    }
    let towers_b = towers(&mut eval, &acc_b);
    let plain_b = eval.decrypt(&acc_b).unwrap();

    assert_eq!(
        towers_a, towers_b,
        "lanes={lanes} depth={depth}: restored continuation must reproduce every tower"
    );
    assert_eq!(plain_a, plain_b, "lanes={lanes} depth={depth}: decryption");
}

#[test]
fn depth_2_chain_restores_mid_pipeline_on_one_lane() {
    mid_pipeline_restore_matches(1, 2);
}

#[test]
fn depth_2_chain_restores_mid_pipeline_on_two_lanes() {
    mid_pipeline_restore_matches(2, 2);
}

#[test]
fn depth_2_chain_restores_mid_pipeline_on_four_lanes() {
    mid_pipeline_restore_matches(4, 2);
}

#[test]
fn depth_3_chain_restores_mid_pipeline_on_one_lane() {
    mid_pipeline_restore_matches(1, 3);
}

#[test]
fn depth_3_chain_restores_mid_pipeline_on_two_lanes() {
    mid_pipeline_restore_matches(2, 3);
}

#[test]
fn depth_3_chain_restores_mid_pipeline_on_four_lanes() {
    mid_pipeline_restore_matches(4, 3);
}

/// An `RlweEvaluator` snapshots its cluster like a leveled one: a
/// restored state snapshots to the same bytes, work done after the
/// snapshot (a rotation) is undone by the restore, and the handles held
/// from snapshot time still decrypt and rotate.
#[test]
fn an_rlwe_evaluator_snapshot_restores_to_the_same_bytes() {
    let n = rpu::smoke_cap(1024);
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let q = rpu.session().primes_for(n).unwrap();
    let params = RlweParams { n, q, t: T };
    let mut eval = RlweEvaluator::new(&rpu, params, CodegenStyle::Optimized).unwrap();
    let mut rng = Splitmix::new(0x05A0_F71E);
    eval.keygen(&mut rng).unwrap();
    eval.relin_keygen(&mut rng).unwrap();
    eval.rotation_keygen(1, &mut rng).unwrap();
    let m = message(n, 2);
    let x = eval.encrypt(&m, &mut rng).unwrap();
    let product = eval.mul(&x, &x).unwrap();
    let bytes = eval.snapshot();
    eval.restore(&bytes).unwrap();
    assert!(eval.snapshot() == bytes, "snapshot → restore → snapshot");

    let rotated = eval.rotate(&product, 1).unwrap();
    assert!(eval.snapshot() != bytes, "the rotation is device state");
    eval.restore(&bytes).unwrap();
    assert!(eval.snapshot() == bytes, "rotate → restore → snapshot");
    assert!(matches!(eval.decrypt(&rotated), Err(RpuError::Buffer(_))));
    assert_eq!(eval.decrypt(&x).unwrap(), m, "snapshot-time handles live");
    let again = eval.rotate(&product, 1).unwrap();
    let (plain, g) = (
        eval.decrypt(&product).unwrap(),
        eval.context().galois_element(1),
    );
    let expect = eval.context().rotate_plaintext(&plain, g).unwrap();
    assert_eq!(eval.decrypt(&again).unwrap(), expect);
}

// ---------------------------------------------------------------------
// Negative paths: every bad input is a typed error, never a panic
// ---------------------------------------------------------------------

/// Truncations at every prefix length, a corrupted magic, a trailing
/// byte, and a future format version all fail with typed
/// [`SnapshotError`]s and leave the target session untouched.
#[test]
fn corrupt_snapshots_fail_typed_and_leave_the_session_unchanged() {
    let rpu = Rpu::builder().build().unwrap();
    let mut s = rpu.session();
    let buf = s.upload(&test_data(200, 9)).unwrap();
    let bytes = s.snapshot();

    let rpu2 = Rpu::builder().build().unwrap();
    let mut s2 = rpu2.session();
    let pristine = s2.snapshot();

    // Bad magic.
    let mut bad = bytes.clone();
    bad[0] = b'X';
    assert_eq!(
        snap_err(s2.restore(&bad).unwrap_err()),
        SnapshotError::BadMagic
    );

    // Future version: header declares VERSION + 1.
    let mut future = bytes.clone();
    future[4] = future[4].wrapping_add(1);
    assert!(matches!(
        snap_err(s2.restore(&future).unwrap_err()),
        SnapshotError::UnsupportedVersion { found, supported } if found == supported + 1
    ));

    // Every truncation of the valid bytes fails (Truncated or Corrupt
    // depending on where the cut lands) without panicking. Step past
    // single bytes to keep the sweep fast on big images.
    for cut in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
        match snap_err(s2.restore(&bytes[..cut]).unwrap_err()) {
            SnapshotError::BadMagic
            | SnapshotError::Truncated { .. }
            | SnapshotError::Corrupt(_) => {}
            other => panic!("truncation at {cut} gave {other}"),
        }
    }

    // A trailing byte is corruption, not slack.
    let mut trailing = bytes.clone();
    trailing.push(0);
    assert!(matches!(
        snap_err(s2.restore(&trailing).unwrap_err()),
        SnapshotError::Corrupt(_)
    ));

    // A cluster restore refuses session-kind bytes (and vice versa).
    let mut cluster2 = rpu2.cluster_with(1).unwrap();
    assert!(matches!(
        snap_err(cluster2.restore_all(&bytes).unwrap_err()),
        SnapshotError::Corrupt(_)
    ));
    let cluster_bytes = cluster2.snapshot_all();
    assert!(matches!(
        snap_err(s2.restore(&cluster_bytes).unwrap_err()),
        SnapshotError::Corrupt(_)
    ));

    // None of the failures mutated the target session.
    assert_eq!(s2.snapshot(), pristine, "failed restores must not mutate");

    // The source session is also intact.
    assert_eq!(s.download(&buf).unwrap(), test_data(200, 9));
}

/// Restoring into a session whose device geometry differs (here: a
/// different heap size) is refused with the typed mismatch, naming
/// both sides.
#[test]
fn geometry_mismatch_is_typed() {
    let rpu = Rpu::builder().build().unwrap();
    let bytes = rpu.session().snapshot();
    let small = Rpu::builder()
        .device_heap_elements(1 << 12)
        .build()
        .unwrap();
    match snap_err(small.session().restore(&bytes).unwrap_err()) {
        SnapshotError::GeometryMismatch {
            what,
            snapshot,
            target,
        } => {
            assert!(snapshot != target, "{what}: sides must differ");
        }
        other => panic!("expected a geometry mismatch, got {other}"),
    }
}

// ---------------------------------------------------------------------
// Live-buffer safety: the double-free pin
// ---------------------------------------------------------------------

/// `restore` swaps the state atomically under live handles: handles
/// allocated after the snapshot go stale (download *and* free are typed
/// errors — never a double free), while snapshot-time handles keep
/// resolving.
#[test]
fn restore_under_live_buffers_stales_them_and_pins_double_free() {
    let rpu = Rpu::builder().build().unwrap();
    let mut s = rpu.session();
    let keep = s.upload(&test_data(500, 4)).unwrap();
    let bytes = s.snapshot();
    let late = s.upload(&test_data(64, 5)).unwrap();

    let restored = s.restore(&bytes).unwrap();
    assert_eq!(restored, vec![keep]);
    // The post-snapshot handle is stale: use is a typed error, and
    // freeing it is *also* a typed error rather than a double free
    // corrupting the restored heap map.
    assert!(matches!(
        s.download(&late),
        Err(RpuError::Buffer(BufferError::StaleHandle { .. }))
    ));
    assert!(matches!(s.free(late), Err(RpuError::Buffer(_))));
    // The snapshot-time handle still resolves, exactly once.
    assert_eq!(s.download(&keep).unwrap(), test_data(500, 4));
    s.free(keep).unwrap();
    assert!(matches!(s.free(keep), Err(RpuError::Buffer(_))));
    assert_eq!(s.device_mem_in_use(), 0);

    // With nothing live, the same bytes restore the same handle.
    let again = s.restore(&bytes).unwrap();
    assert_eq!(again, vec![keep]);
    assert_eq!(s.download(&again[0]).unwrap(), test_data(500, 4));
}

/// Buffer ids are never recycled across a restore: a fresh allocation
/// after restoring gets an id the snapshot has never seen, so a
/// pre-restore handle can never alias it.
#[test]
fn restore_never_recycles_buffer_ids() {
    let rpu = Rpu::builder().build().unwrap();
    let mut s = rpu.session();
    let old = s.upload(&test_data(100, 6)).unwrap();
    let bytes = s.snapshot();
    let late = s.upload(&test_data(100, 7)).unwrap();
    s.restore(&bytes).unwrap();
    let fresh = s.upload(&test_data(100, 8)).unwrap();
    assert_ne!(fresh, late, "fresh ids must not revive stale handles");
    assert!(matches!(s.download(&late), Err(RpuError::Buffer(_))));
    assert_eq!(s.download(&old).unwrap(), test_data(100, 6));
    assert_eq!(s.download(&fresh).unwrap(), test_data(100, 8));
}

// ---------------------------------------------------------------------
// Cluster snapshots
// ---------------------------------------------------------------------

/// A cluster snapshot restores every lane and the ownership map into a
/// fresh cluster: handles resolve on their original lanes through the
/// cluster-level API, and a second snapshot is byte-identical.
#[test]
fn cluster_snapshot_restores_lanes_and_ownership() {
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let mut cluster = rpu.cluster();
    let d0 = test_data(300, 10);
    let d1 = test_data(400, 11);
    let b0 = cluster.lane_session(0).upload(&d0).unwrap();
    let b1 = cluster.lane_session(1).upload(&d1).unwrap();
    let bytes = cluster.snapshot_all();

    let rpu2 = Rpu::builder().lanes(2).build().unwrap();
    let mut cluster2 = rpu2.cluster();
    cluster2.restore_all(&bytes).unwrap();
    assert_eq!(cluster2.snapshot_all(), bytes, "re-snapshot equality");
    // The ownership map came back: cluster-level download locates each
    // buffer on its lane.
    assert_eq!(cluster2.download(&b0).unwrap(), d0);
    assert_eq!(cluster2.download(&b1).unwrap(), d1);
    assert_eq!(cluster2.locate(&b0), Some(0));
    assert_eq!(cluster2.locate(&b1), Some(1));
    cluster2.free(b0).unwrap();
    cluster2.free(b1).unwrap();
}

/// Lifetime stats are diagnostics like the cache counters: a restore
/// neither rolls them back nor zeroes them, and they are never
/// serialized — traffic that moves only the counters leaves a session's
/// snapshot bytes alone (`snapshot_bytes.rs` pins the bytes themselves).
#[test]
fn stats_survive_a_restore_and_never_reach_the_snapshot_bytes() {
    let n = 1024usize;
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let mut cluster = rpu.cluster();
    let q = cluster.primes_for(n).unwrap();
    let spec = ElementwiseSpec::new(ElementwiseOp::AddMod, n, q, CodegenStyle::Optimized);
    let add = cluster.lane_session(0).compile(&spec).unwrap();
    let x = cluster.lane_session(0).upload(&test_data(n, 3)).unwrap();
    cluster.lane_session(1).upload(&test_data(n, 4)).unwrap();
    cluster
        .lane_session(0)
        .dispatch(&add, &[x, x], &[x])
        .unwrap();
    let bytes = cluster.snapshot_all();
    let at_snapshot = cluster.stats();

    let late = cluster.lane_session(1).upload(&test_data(n, 5)).unwrap();
    cluster
        .lane_session(0)
        .dispatch(&add, &[x, x], &[x])
        .unwrap();
    cluster.download(&late).unwrap();
    let before_restore = cluster.stats();
    assert_ne!(before_restore, at_snapshot);
    cluster.restore_all(&bytes).unwrap();
    assert_eq!(
        cluster.stats(),
        before_restore,
        "restore leaves stats alone"
    );
    assert!(cluster.download(&late).is_err(), "device state did go back");

    let mut s = rpu.session();
    let ba = s.upload(&test_data(700, 1)).unwrap();
    let bb = s.upload(&test_data(300, 2)).unwrap();
    s.free(bb).unwrap();
    let bytes = s.snapshot();
    s.download(&ba).unwrap();
    assert_ne!(s.stats().transfer.device_to_host, 0);
    assert!(s.snapshot() == bytes, "counters are not device state");
}

/// Restoring a 2-lane snapshot into a 3-lane cluster is the typed lane
/// mismatch; a placement map that disagrees with the lane heaps is
/// corrupt; restoring under live buffers stales them on their lane.
#[test]
fn cluster_restore_mismatches_are_typed() {
    let rpu = Rpu::builder().lanes(2).build().unwrap();
    let mut cluster = rpu.cluster();
    let bytes = cluster.snapshot_all();

    let rpu3 = Rpu::builder().lanes(3).build().unwrap();
    let mut cluster3 = rpu3.cluster();
    assert_eq!(
        snap_err(cluster3.restore_all(&bytes).unwrap_err()),
        SnapshotError::LaneCountMismatch {
            snapshot: 2,
            cluster: 3
        }
    );

    let live = cluster.lane_session(0).upload(&test_data(50, 12)).unwrap();

    // The placement map is checked against the lane heaps it is derived
    // from: an entry naming a lane the buffer is not live on (1), or a
    // lane that does not exist (7), is corrupt. `OWNR` is the first
    // section: header 12, tag + length 12, count 8, buffer id 8, lane.
    let with_one = cluster.snapshot_all();
    assert_eq!(with_one[12..16], *b"OWNR");
    assert_eq!(with_one[40..48], 0u64.to_le_bytes());
    for lane in [1u64, 7] {
        let mut moved = with_one.clone();
        moved[40..48].copy_from_slice(&lane.to_le_bytes());
        assert!(matches!(
            snap_err(cluster.restore_all(&moved).unwrap_err()),
            SnapshotError::Corrupt(_)
        ));
        assert_eq!(cluster.snapshot_all(), with_one, "unchanged on error");
    }

    cluster.restore_all(&bytes).unwrap();
    assert_eq!(cluster.locate(&live), None);
    assert!(matches!(
        cluster.free(live),
        Err(RpuError::Buffer(BufferError::StaleHandle { .. }))
    ));
    assert_eq!(cluster.snapshot_all(), bytes);
}
