//! The `SNAP_V1` versioned device-snapshot wire format.
//!
//! A snapshot serializes the full persistent device state of a session
//! — VDM/SDM images, the heap map (live and free blocks), the keys of
//! the kernels it asked for, and the loaded-image identity — behind a
//! versioned header with explicit endianness and length-prefixed
//! sections. Cluster snapshots wrap one session snapshot per lane plus
//! the buffer→lane placement map.
//!
//! Layout (all integers little-endian; see `docs/snapshot-format.md`
//! for the normative description):
//!
//! ```text
//! header   := magic "SNAP" | version u16 | endianness u8 (0x01 = LE)
//!           | kind u8 ('S' session, 'C' cluster) | section count u32
//! section  := tag [u8; 4] | payload len u64 | payload
//! ```
//!
//! Versioning policy: within a version, sections are **additive only**
//! — decoders skip unknown tags, so newer writers stay readable by the
//! same-version decoder. Any change to an existing section's layout
//! bumps the version, and a decoder seeing a version it does not
//! support fails with [`SnapshotError::UnsupportedVersion`], never a
//! panic or a misparse.
//!
//! This module owns the pure format (encode/decode to plain images);
//! the session layer owns the semantics (geometry checks, kernel
//! re-pinning, atomic state swap).

use rpu_codegen::KernelKey;

/// Magic bytes opening every snapshot.
pub(crate) const MAGIC: [u8; 4] = *b"SNAP";
/// The format version this build writes and reads.
pub(crate) const VERSION: u16 = 1;
/// Endianness marker: all multi-byte integers are little-endian.
const LITTLE_ENDIAN: u8 = 0x01;
/// Header kind byte for a single-session snapshot.
pub(crate) const KIND_SESSION: u8 = b'S';
/// Header kind byte for a cluster snapshot (one session per lane).
pub(crate) const KIND_CLUSTER: u8 = b'C';

/// Errors decoding or applying a device snapshot. Corrupted or
/// future-version bytes always surface here — restore never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not begin with the `SNAP` magic.
    BadMagic,
    /// The snapshot was written by a newer (or unknown) format version.
    UnsupportedVersion {
        /// Version recorded in the header.
        found: u16,
        /// Newest version this build decodes.
        supported: u16,
    },
    /// The bytes end before a section or header field is complete.
    Truncated {
        /// What was being decoded when the bytes ran out.
        section: &'static str,
    },
    /// The bytes parse but describe an inconsistent state (bad
    /// endianness marker, wrong kind, missing section, malformed heap
    /// map, …).
    Corrupt(String),
    /// A cluster snapshot's lane count does not match the target
    /// cluster.
    LaneCountMismatch {
        /// Lanes recorded in the snapshot.
        snapshot: usize,
        /// Lanes in the target cluster.
        cluster: usize,
    },
    /// The snapshot was taken on a device with a different geometry
    /// than the restore target (workspace size, heap base, capacity).
    GeometryMismatch {
        /// Which geometry parameter disagrees.
        what: &'static str,
        /// The snapshot's value.
        snapshot: u64,
        /// The target session's value.
        target: u64,
    },
    /// A kernel recorded in the snapshot could not be built on the
    /// target (unknown key, or generation or verification failed).
    KernelRebuild {
        /// Human-readable cause.
        detail: String,
    },
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a device snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot version {found} is not supported (this build reads up to \
                 version {supported})"
            ),
            SnapshotError::Truncated { section } => {
                write!(f, "snapshot truncated while decoding {section}")
            }
            SnapshotError::Corrupt(detail) => write!(f, "snapshot is corrupt: {detail}"),
            SnapshotError::LaneCountMismatch { snapshot, cluster } => write!(
                f,
                "cluster snapshot has {snapshot} lane(s) but the target cluster has \
                 {cluster}"
            ),
            SnapshotError::GeometryMismatch {
                what,
                snapshot,
                target,
            } => write!(
                f,
                "snapshot {what} is {snapshot} but the target session's is {target}"
            ),
            SnapshotError::KernelRebuild { detail } => {
                write!(f, "could not re-pin a snapshotted kernel: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Live allocations as `(id, offset, len)` tuples.
pub(crate) type LiveBlocks = Vec<(u64, u64, u64)>;
/// Free heap blocks as `(offset, len)` tuples.
pub(crate) type FreeBlocks = Vec<(u64, u64)>;
/// The buffer→lane placement map from a cluster snapshot.
pub(crate) type OwnerMap = Vec<(u64, u64)>;

/// The decoded persistent state of one session — the pure-data form
/// between the wire format and the session that applies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SessionImage {
    /// Elements reserved for kernel working sets (VDM bottom).
    pub workspace: u64,
    /// Absolute element offset where the buffer heap begins.
    pub heap_base: u64,
    /// Heap capacity in elements.
    pub heap_capacity: u64,
    /// Heap-relative high-water mark at snapshot time.
    pub high_water: u64,
    /// Full VDM contents at snapshot time.
    pub vdm: Vec<u128>,
    /// Full SDM contents at snapshot time.
    pub sdm: Vec<u128>,
    /// Live allocations as `(id, offset, len)`, sorted by id.
    pub live: LiveBlocks,
    /// Free blocks as `(offset, len)`, sorted by offset.
    pub free: FreeBlocks,
    /// Keys of every kernel the session asked for, sorted by encoding.
    pub keys: Vec<KernelKey>,
    /// Identity of the kernel image resident in the workspace, if any.
    pub loaded: Option<KernelKey>,
}

fn push_header(out: &mut Vec<u8>, kind: u8, sections: u32) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(LITTLE_ENDIAN);
    out.push(kind);
    out.extend_from_slice(&sections.to_le_bytes());
}

fn push_section(out: &mut Vec<u8>, tag: &[u8; 4], payload: &[u8]) {
    out.extend_from_slice(tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encodes a session image as `SNAP_V1` bytes.
pub(crate) fn encode_session(image: &SessionImage) -> Vec<u8> {
    let mut meta = Vec::with_capacity(48);
    meta.extend_from_slice(&image.workspace.to_le_bytes());
    meta.extend_from_slice(&image.heap_base.to_le_bytes());
    meta.extend_from_slice(&image.heap_capacity.to_le_bytes());
    meta.extend_from_slice(&image.high_water.to_le_bytes());
    meta.extend_from_slice(&(image.vdm.len() as u64).to_le_bytes());
    meta.extend_from_slice(&(image.sdm.len() as u64).to_le_bytes());

    let mut vdm = Vec::with_capacity(image.vdm.len() * 16);
    for &x in &image.vdm {
        vdm.extend_from_slice(&x.to_le_bytes());
    }
    let mut sdm = Vec::with_capacity(image.sdm.len() * 16);
    for &x in &image.sdm {
        sdm.extend_from_slice(&x.to_le_bytes());
    }

    let mut heap = Vec::new();
    heap.extend_from_slice(&(image.live.len() as u64).to_le_bytes());
    for &(id, offset, len) in &image.live {
        heap.extend_from_slice(&id.to_le_bytes());
        heap.extend_from_slice(&offset.to_le_bytes());
        heap.extend_from_slice(&len.to_le_bytes());
    }
    heap.extend_from_slice(&(image.free.len() as u64).to_le_bytes());
    for &(offset, len) in &image.free {
        heap.extend_from_slice(&offset.to_le_bytes());
        heap.extend_from_slice(&len.to_le_bytes());
    }

    let mut keys = Vec::new();
    keys.extend_from_slice(&(image.keys.len() as u64).to_le_bytes());
    for key in &image.keys {
        keys.extend_from_slice(&key.to_bytes());
    }

    let mut lodk = Vec::with_capacity(1 + KernelKey::ENCODED_LEN);
    match &image.loaded {
        Some(key) => {
            lodk.push(1);
            lodk.extend_from_slice(&key.to_bytes());
        }
        None => lodk.push(0),
    }

    let mut out = Vec::new();
    push_header(&mut out, KIND_SESSION, 6);
    push_section(&mut out, b"META", &meta);
    push_section(&mut out, b"VDM ", &vdm);
    push_section(&mut out, b"SDM ", &sdm);
    push_section(&mut out, b"HEAP", &heap);
    push_section(&mut out, b"KEYS", &keys);
    push_section(&mut out, b"LODK", &lodk);
    out
}

/// Encodes a cluster snapshot: the placement map plus one full session
/// snapshot per lane (in lane order).
pub(crate) fn encode_cluster(owners: &[(u64, u64)], lanes: &[Vec<u8>]) -> Vec<u8> {
    let mut ownr = Vec::new();
    ownr.extend_from_slice(&(owners.len() as u64).to_le_bytes());
    for &(id, lane) in owners {
        ownr.extend_from_slice(&id.to_le_bytes());
        ownr.extend_from_slice(&lane.to_le_bytes());
    }
    let mut out = Vec::new();
    push_header(&mut out, KIND_CLUSTER, 1 + lanes.len() as u32);
    push_section(&mut out, b"OWNR", &ownr);
    for lane in lanes {
        push_section(&mut out, b"LANE", lane);
    }
    out
}

/// Cursor over snapshot bytes with typed, bounds-checked reads.
struct Reader<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl<'b> Reader<'b> {
    fn new(bytes: &'b [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, section: &'static str) -> Result<&'b [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(SnapshotError::Truncated { section })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u16(&mut self, section: &'static str) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(
            self.take(2, section)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self, section: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4, section)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, section: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8, section)?.try_into().expect("8 bytes"),
        ))
    }

    fn u128(&mut self, section: &'static str) -> Result<u128, SnapshotError> {
        Ok(u128::from_le_bytes(
            self.take(16, section)?.try_into().expect("16 bytes"),
        ))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Decodes the common header; returns the kind byte and a reader
/// positioned at the first section, plus the section count.
fn decode_header(bytes: &[u8]) -> Result<(u8, u32, Reader<'_>), SnapshotError> {
    let mut r = Reader::new(bytes);
    if r.take(4, "header").map_err(|_| SnapshotError::BadMagic)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u16("header")?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let endian = r.take(1, "header")?[0];
    if endian != LITTLE_ENDIAN {
        return Err(SnapshotError::Corrupt(format!(
            "unknown endianness marker 0x{endian:02x}"
        )));
    }
    let kind = r.take(1, "header")?[0];
    let sections = r.u32("header")?;
    Ok((kind, sections, r))
}

fn expect_kind(found: u8, want: u8) -> Result<(), SnapshotError> {
    if found == want {
        return Ok(());
    }
    let describe = |k: u8| match k {
        KIND_SESSION => "a session snapshot".to_string(),
        KIND_CLUSTER => "a cluster snapshot".to_string(),
        other => format!("an unknown snapshot kind 0x{other:02x}"),
    };
    Err(SnapshotError::Corrupt(format!(
        "expected {}, found {}",
        describe(want),
        describe(found)
    )))
}

fn decode_key(bytes: &[u8], section: &'static str) -> Result<KernelKey, SnapshotError> {
    let arr: &[u8; KernelKey::ENCODED_LEN] = bytes
        .try_into()
        .map_err(|_| SnapshotError::Truncated { section })?;
    KernelKey::from_bytes(arr)
        .ok_or_else(|| SnapshotError::Corrupt(format!("unknown kernel-key encoding in {section}")))
}

/// Decodes `SNAP_V1` session bytes into a [`SessionImage`]. Unknown
/// section tags are skipped (additive forward compatibility); missing
/// known sections are an error.
pub(crate) fn decode_session(bytes: &[u8]) -> Result<SessionImage, SnapshotError> {
    let (kind, sections, mut r) = decode_header(bytes)?;
    expect_kind(kind, KIND_SESSION)?;

    let mut meta: Option<[u64; 6]> = None;
    let mut vdm: Option<Vec<u128>> = None;
    let mut sdm: Option<Vec<u128>> = None;
    let mut heap: Option<(LiveBlocks, FreeBlocks)> = None;
    let mut keys: Option<Vec<KernelKey>> = None;
    let mut loaded: Option<Option<KernelKey>> = None;

    for _ in 0..sections {
        let tag: [u8; 4] = r.take(4, "section tag")?.try_into().expect("4 bytes");
        let len = r.u64("section length")?;
        let len: usize = len
            .try_into()
            .map_err(|_| SnapshotError::Corrupt("section length overflows usize".into()))?;
        let payload = r.take(len, "section payload")?;
        let mut p = Reader::new(payload);
        match &tag {
            b"META" => {
                let mut fields = [0u64; 6];
                for f in &mut fields {
                    *f = p.u64("META")?;
                }
                meta = Some(fields);
            }
            b"VDM " => {
                if payload.len() % 16 != 0 {
                    return Err(SnapshotError::Corrupt(
                        "VDM section not element-sized".into(),
                    ));
                }
                let mut elems = Vec::with_capacity(payload.len() / 16);
                while !p.done() {
                    elems.push(p.u128("VDM")?);
                }
                vdm = Some(elems);
            }
            b"SDM " => {
                if payload.len() % 16 != 0 {
                    return Err(SnapshotError::Corrupt(
                        "SDM section not element-sized".into(),
                    ));
                }
                let mut elems = Vec::with_capacity(payload.len() / 16);
                while !p.done() {
                    elems.push(p.u128("SDM")?);
                }
                sdm = Some(elems);
            }
            b"HEAP" => {
                let live_count = p.u64("HEAP")?;
                let mut live = Vec::new();
                for _ in 0..live_count {
                    live.push((p.u64("HEAP")?, p.u64("HEAP")?, p.u64("HEAP")?));
                }
                let free_count = p.u64("HEAP")?;
                let mut free = Vec::new();
                for _ in 0..free_count {
                    free.push((p.u64("HEAP")?, p.u64("HEAP")?));
                }
                if !p.done() {
                    return Err(SnapshotError::Corrupt(
                        "HEAP section has trailing bytes".into(),
                    ));
                }
                heap = Some((live, free));
            }
            b"KEYS" => {
                let count = p.u64("KEYS")?;
                let mut out = Vec::new();
                for _ in 0..count {
                    out.push(decode_key(p.take(KernelKey::ENCODED_LEN, "KEYS")?, "KEYS")?);
                }
                if !p.done() {
                    return Err(SnapshotError::Corrupt(
                        "KEYS section has trailing bytes".into(),
                    ));
                }
                keys = Some(out);
            }
            b"LODK" => {
                let flag = p.take(1, "LODK")?[0];
                loaded = Some(match flag {
                    0 => None,
                    1 => Some(decode_key(p.take(KernelKey::ENCODED_LEN, "LODK")?, "LODK")?),
                    other => {
                        return Err(SnapshotError::Corrupt(format!(
                            "LODK flag must be 0 or 1, got {other}"
                        )))
                    }
                });
            }
            // Unknown tags are future additive sections: skip.
            _ => {}
        }
    }
    if !r.done() {
        return Err(SnapshotError::Corrupt(
            "trailing bytes after the last section".into(),
        ));
    }

    let meta = meta.ok_or_else(|| SnapshotError::Corrupt("missing META section".into()))?;
    let vdm = vdm.ok_or_else(|| SnapshotError::Corrupt("missing VDM section".into()))?;
    let sdm = sdm.ok_or_else(|| SnapshotError::Corrupt("missing SDM section".into()))?;
    let (live, free) = heap.ok_or_else(|| SnapshotError::Corrupt("missing HEAP section".into()))?;
    let keys = keys.ok_or_else(|| SnapshotError::Corrupt("missing KEYS section".into()))?;
    let loaded = loaded.ok_or_else(|| SnapshotError::Corrupt("missing LODK section".into()))?;
    let [workspace, heap_base, heap_capacity, high_water, vdm_len, sdm_len] = meta;
    if vdm.len() as u64 != vdm_len {
        return Err(SnapshotError::Corrupt(format!(
            "META says {vdm_len} VDM elements but the VDM section holds {}",
            vdm.len()
        )));
    }
    if sdm.len() as u64 != sdm_len {
        return Err(SnapshotError::Corrupt(format!(
            "META says {sdm_len} SDM elements but the SDM section holds {}",
            sdm.len()
        )));
    }
    Ok(SessionImage {
        workspace,
        heap_base,
        heap_capacity,
        high_water,
        vdm,
        sdm,
        live,
        free,
        keys,
        loaded,
    })
}

/// Decodes `SNAP_V1` cluster bytes into the placement map and the raw
/// per-lane session snapshots (still encoded; the session layer decodes
/// and applies each).
pub(crate) fn decode_cluster(bytes: &[u8]) -> Result<(OwnerMap, Vec<Vec<u8>>), SnapshotError> {
    let (kind, sections, mut r) = decode_header(bytes)?;
    expect_kind(kind, KIND_CLUSTER)?;
    let mut owners: Option<OwnerMap> = None;
    let mut lanes: Vec<Vec<u8>> = Vec::new();
    for _ in 0..sections {
        let tag: [u8; 4] = r.take(4, "section tag")?.try_into().expect("4 bytes");
        let len = r.u64("section length")?;
        let len: usize = len
            .try_into()
            .map_err(|_| SnapshotError::Corrupt("section length overflows usize".into()))?;
        let payload = r.take(len, "section payload")?;
        match &tag {
            b"OWNR" => {
                let mut p = Reader::new(payload);
                let count = p.u64("OWNR")?;
                let mut out = Vec::new();
                for _ in 0..count {
                    out.push((p.u64("OWNR")?, p.u64("OWNR")?));
                }
                if !p.done() {
                    return Err(SnapshotError::Corrupt(
                        "OWNR section has trailing bytes".into(),
                    ));
                }
                owners = Some(out);
            }
            b"LANE" => lanes.push(payload.to_vec()),
            _ => {}
        }
    }
    if !r.done() {
        return Err(SnapshotError::Corrupt(
            "trailing bytes after the last section".into(),
        ));
    }
    let owners = owners.ok_or_else(|| SnapshotError::Corrupt("missing OWNR section".into()))?;
    Ok((owners, lanes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_codegen::{CodegenStyle, Direction, KernelOp};

    fn image() -> SessionImage {
        SessionImage {
            workspace: 100,
            heap_base: 100,
            heap_capacity: 50,
            high_water: 30,
            vdm: vec![1, 2, 3],
            sdm: vec![4, 5],
            live: vec![(7, 100, 10), (9, 110, 20)],
            free: vec![(130, 20)],
            keys: vec![KernelKey {
                op: KernelOp::Ntt,
                n: 1024,
                q: 12289,
                direction: Direction::Forward,
                style: CodegenStyle::Optimized,
                param: 0,
            }],
            loaded: None,
        }
    }

    #[test]
    fn session_round_trip() {
        let img = image();
        let bytes = encode_session(&img);
        assert_eq!(decode_session(&bytes).unwrap(), img);
    }

    #[test]
    fn cluster_round_trip() {
        let lane = encode_session(&image());
        let bytes = encode_cluster(&[(7, 0), (9, 1)], &[lane.clone(), lane.clone()]);
        let (owners, lanes) = decode_cluster(&bytes).unwrap();
        assert_eq!(owners, vec![(7, 0), (9, 1)]);
        assert_eq!(lanes, vec![lane.clone(), lane]);
    }

    #[test]
    fn bad_magic_truncation_and_future_version_are_typed() {
        let bytes = encode_session(&image());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode_session(&bad).unwrap_err(), SnapshotError::BadMagic);
        let mut future = bytes.clone();
        future[4..6].copy_from_slice(&2u16.to_le_bytes());
        assert_eq!(
            decode_session(&future).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 2,
                supported: 1
            }
        );
        for cut in [0, 3, 7, 11, bytes.len() - 1] {
            let err = decode_session(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::BadMagic
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let img = image();
        let mut bytes = encode_session(&img);
        // Append a future additive section and patch the count.
        push_section(&mut bytes, b"XTRA", &[1, 2, 3]);
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) + 1;
        bytes[8..12].copy_from_slice(&count.to_le_bytes());
        assert_eq!(decode_session(&bytes).unwrap(), img);
    }

    #[test]
    fn kind_mismatch_is_corrupt() {
        let session = encode_session(&image());
        assert!(matches!(
            decode_cluster(&session).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        let cluster = encode_cluster(&[], &[]);
        assert!(matches!(
            decode_session(&cluster).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }
}
