//! Incremental **delta segments**: publish-back without full rewrites.
//!
//! A delta segment is a v5 snapshot file with
//! [`FLAG_DELTA_SEGMENT`] set. It
//! carries the complete current contents of every *PC group* (records
//! sharing `start_pc`) that changed since the previous spill, plus a
//! tombstone list of PCs whose groups emptied. Applying a delta to a
//! base snapshot replaces those groups wholesale — replacement, not
//! record-level patching, is what makes reconstruction exact under
//! capacity eviction and independent of replacement policy.
//!
//! Binary layout after the 16-byte header:
//!
//! | field | size |
//! |---|---|
//! | geometry: sets, ways, per-PC | 3 × u32 |
//! | trace count | u64 |
//! | sequence number | u64 |
//! | tombstone count | u64 |
//! | tombstones | count × u32 start PCs |
//! | traces | count × v5 entry frames (record + meta + mix) |
//! | trailer | u32 zero marker, u64 count, u64 checksum |
//!
//! The checksum covers the prelude, the tombstones, and every frame.
//! Frames compress under [`FLAG_COMPRESSED_FRAMES`] exactly like
//! full-snapshot frames.
//!
//! The compaction invariant: for any base `B` and deltas `D1..Dn` in
//! sequence order, loading `B, D1..Dn` yields the same trace/provenance
//! *set* as the full snapshot the last spill saw — so folding them into
//! a fresh base (the registry's `compact`, which `tlrsim compact` runs,
//! or its spill once `compact_threshold` deltas accumulate) never
//! changes served state. Because a delta replaces whole groups, any
//! suffix `Dk..Dn` replayed over that fresh base changes nothing
//! either, which is why the fold deletes deltas in ascending order.

use crate::error::{PersistError, Result};
use crate::format::{
    FileFormat, Header, FLAG_COMPRESSED_FRAMES, FLAG_DELTA_SEGMENT, KIND_RTM_SNAPSHOT,
};
use crate::json::{self, Json};
use crate::snapshot::{
    decode_entry, emit_frame, next_frame, snapshot_from_json_core, snapshot_to_json,
    validate_geometry, MAX_GEOMETRY_CAPACITY,
};
use crate::wire;
use std::collections::BTreeMap;
use std::fs::File;
use std::hash::Hasher;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use tlr_core::{RtmConfig, RtmSnapshot, SetAssocGeometry, TraceMeta, TraceRecord};
use tlr_util::fxhash::FxHasher64;

/// One incremental spill: full replacement contents for the PC groups
/// that changed, and tombstones for the groups that emptied.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaSegment {
    /// Replay position among this base's deltas (strictly increasing
    /// per spill; ties broken by file order on load).
    pub seq: u64,
    /// Geometry, which must match the base being overlaid.
    pub config: RtmConfig,
    /// Start PCs whose groups are now empty and must be dropped.
    pub tombstones: Vec<u32>,
    /// Records of every changed group (grouped, base-export order).
    pub traces: Vec<TraceRecord>,
    /// Provenance parallel to `traces`.
    pub meta: Vec<TraceMeta>,
}

impl DeltaSegment {
    /// `true` when applying this delta would change nothing.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty() && self.tombstones.is_empty()
    }
}

/// Order-insensitive digest of each PC group's records + provenance.
/// Two snapshots whose digests agree for a PC hold the same group
/// contents; [`diff_snapshots`] spills exactly the PCs that disagree.
pub fn group_digests(snapshot: &RtmSnapshot) -> Result<BTreeMap<u32, u64>> {
    let mut digests: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    let mut scratch = Vec::with_capacity(256);
    for (trace, meta) in snapshot.entries() {
        scratch.clear();
        wire::put_trace_record(&mut scratch, trace)?;
        wire::put_trace_meta(&mut scratch, &meta);
        wire::put_class_mix(&mut scratch, trace.mix);
        let mut h = FxHasher64::new();
        h.write(&scratch);
        let entry = digests.entry(trace.start_pc).or_insert((0, 0));
        // Commutative fold: group membership is a set, and the spiller
        // and loader may see the same group in different orders.
        entry.0 = entry.0.wrapping_add(h.finish());
        entry.1 += 1;
    }
    Ok(digests
        .into_iter()
        .map(|(pc, (sum, count))| (pc, sum ^ count.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect())
}

/// Compute the delta that takes the state summarized by `old` (a prior
/// [`group_digests`]) to `new`. Changed or new groups are carried in
/// full; groups present in `old` but gone from `new` become tombstones.
/// Also returns `group_digests(new)`, which the diff computes anyway —
/// the summary the next diff starts from.
pub fn diff_snapshots(
    old: &BTreeMap<u32, u64>,
    new: &RtmSnapshot,
    seq: u64,
) -> Result<(DeltaSegment, BTreeMap<u32, u64>)> {
    let fresh = group_digests(new)?;
    let changed: std::collections::BTreeSet<u32> = fresh
        .iter()
        .filter(|(pc, digest)| old.get(pc) != Some(digest))
        .map(|(pc, _)| *pc)
        .collect();
    let tombstones: Vec<u32> = old
        .keys()
        .filter(|pc| !fresh.contains_key(pc))
        .copied()
        .collect();
    let mut traces = Vec::new();
    let mut meta = Vec::new();
    for (trace, m) in new.entries() {
        if changed.contains(&trace.start_pc) {
            traces.push(trace.clone());
            meta.push(m);
        }
    }
    let delta = DeltaSegment {
        seq,
        config: new.config,
        tombstones,
        traces,
        meta,
    };
    Ok((delta, fresh))
}

/// Overlay `delta` onto `base`: drop every base record whose PC the
/// delta replaces or tombstones, then append the delta's records.
pub fn apply_delta(base: &mut RtmSnapshot, delta: &DeltaSegment) -> Result<()> {
    if base.config.geometry != delta.config.geometry {
        return Err(PersistError::Merge(
            tlr_core::MergeError::GeometryMismatch {
                first: base.config,
                other: delta.config,
            },
        ));
    }
    let mut replaced: std::collections::BTreeSet<u32> = delta.tombstones.iter().copied().collect();
    replaced.extend(delta.traces.iter().map(|t| t.start_pc));
    let mut traces = Vec::with_capacity(base.traces.len() + delta.traces.len());
    let mut meta = Vec::with_capacity(traces.capacity());
    for (i, trace) in base.traces.iter().enumerate() {
        if !replaced.contains(&trace.start_pc) {
            traces.push(trace.clone());
            meta.push(base.meta.get(i).copied().unwrap_or_default());
        }
    }
    traces.extend(delta.traces.iter().cloned());
    meta.extend(delta.meta.iter().copied());
    base.traces = traces;
    base.meta = meta;
    Ok(())
}

/// Reorder an overlaid snapshot into canonical replay order: ascending
/// last-use tick (global LRU→MRU, matching a live RTM's export), PC and
/// shape breaking ties deterministically. Overlay application loses the
/// base's interleaving; re-sorting keeps delta loads reproducible.
pub fn canonicalize(snapshot: &mut RtmSnapshot) {
    let mut entries: Vec<(TraceRecord, TraceMeta)> = snapshot
        .traces
        .drain(..)
        .zip(snapshot.meta.drain(..))
        .collect();
    entries.sort_by_key(|(t, m)| (m.last_use, t.start_pc, t.next_pc, t.len));
    for (trace, meta) in entries {
        snapshot.traces.push(trace);
        snapshot.meta.push(meta);
    }
}

/// Canonical base-file name for a fingerprint's compacted snapshot.
pub fn base_file_name(fingerprint: u64) -> String {
    format!("{fingerprint:016x}-base.{}", crate::format::SNAPSHOT_EXT)
}

/// Canonical delta-segment file name for a fingerprint at `seq`.
pub fn delta_file_name(fingerprint: u64, seq: u64) -> String {
    format!(
        "{fingerprint:016x}-delta-{seq:06}.{}",
        crate::format::SNAPSHOT_EXT
    )
}

/// Parse the sequence number out of a [`delta_file_name`]-shaped path.
/// Foreign file names return `None`; loaders fall back to the sequence
/// number carried in the payload, which is authoritative.
pub fn delta_seq_from_path(path: &Path) -> Option<u64> {
    let stem = path.file_stem()?.to_str()?;
    let (_, seq) = stem.rsplit_once("-delta-")?;
    seq.parse().ok()
}

/// Save a delta segment to `path` (binary or JSON by extension).
pub fn save_delta_segment(
    path: &Path,
    fingerprint: u64,
    delta: &DeltaSegment,
    compress: bool,
) -> Result<()> {
    match FileFormat::detect(path) {
        FileFormat::Binary => {
            let mut out = BufWriter::new(File::create(path)?);
            write_delta_segment(&mut out, fingerprint, delta, compress)?;
            out.flush()?;
            Ok(())
        }
        FileFormat::Json => {
            let text = json::to_string_pretty(&delta_to_json(fingerprint, delta));
            std::fs::write(path, text)?;
            Ok(())
        }
    }
}

/// Serialize a delta segment to any writer (binary format).
pub fn write_delta_segment(
    w: &mut impl Write,
    fingerprint: u64,
    delta: &DeltaSegment,
    compress: bool,
) -> Result<()> {
    let mut flags = FLAG_DELTA_SEGMENT;
    if compress {
        flags |= FLAG_COMPRESSED_FRAMES;
    }
    Header::with_flags(KIND_RTM_SNAPSHOT, fingerprint, flags).write_to(w)?;
    let geometry = delta.config.geometry;
    // The fixed prelude and the tombstone list are hashed as separate
    // chunks — the reader consumes them in two reads, and the hasher is
    // chunk-boundary sensitive.
    let mut fixed = Vec::with_capacity(36);
    wire::put_u32(&mut fixed, geometry.sets);
    wire::put_u32(&mut fixed, geometry.ways);
    wire::put_u32(&mut fixed, geometry.per_pc);
    wire::put_u64(&mut fixed, delta.traces.len() as u64);
    wire::put_u64(&mut fixed, delta.seq);
    wire::put_u64(&mut fixed, delta.tombstones.len() as u64);
    let mut tombstone_bytes = Vec::with_capacity(delta.tombstones.len() * 4);
    for pc in &delta.tombstones {
        wire::put_u32(&mut tombstone_bytes, *pc);
    }
    w.write_all(&fixed)?;
    w.write_all(&tombstone_bytes)?;
    let mut checksum = FxHasher64::new();
    checksum.write(&fixed);
    checksum.write(&tombstone_bytes);
    let mut scratch = Vec::with_capacity(256);
    for (i, trace) in delta.traces.iter().enumerate() {
        scratch.clear();
        wire::put_trace_record(&mut scratch, trace)?;
        wire::put_trace_meta(
            &mut scratch,
            &delta.meta.get(i).copied().unwrap_or_default(),
        );
        wire::put_class_mix(&mut scratch, trace.mix);
        emit_frame(w, &scratch, compress, &mut checksum)?;
    }
    let mut trailer = Vec::with_capacity(20);
    wire::put_u32(&mut trailer, 0);
    wire::put_u64(&mut trailer, delta.traces.len() as u64);
    wire::put_u64(&mut trailer, checksum.finish());
    w.write_all(&trailer)?;
    Ok(())
}

/// Parse a delta segment's body, the header already consumed.
pub(crate) fn read_delta_body(r: &mut impl Read, header: &Header) -> Result<DeltaSegment> {
    let compressed = header.flags & FLAG_COMPRESSED_FRAMES != 0;
    let fixed: [u8; 36] = wire::read_exact(r)?;
    let mut cursor = fixed.as_slice();
    let geometry = SetAssocGeometry {
        sets: wire::get_u32(&mut cursor)?,
        ways: wire::get_u32(&mut cursor)?,
        per_pc: wire::get_u32(&mut cursor)?,
    };
    validate_geometry(&geometry)?;
    let declared = wire::get_u64(&mut cursor)?;
    let seq = wire::get_u64(&mut cursor)?;
    let tombstone_count = wire::get_u64(&mut cursor)?;
    if tombstone_count > MAX_GEOMETRY_CAPACITY {
        return Err(PersistError::Corrupt(format!(
            "delta segment declares {tombstone_count} tombstones, \
             over the {MAX_GEOMETRY_CAPACITY} cap"
        )));
    }
    let mut tombstone_bytes = vec![0u8; tombstone_count as usize * 4];
    r.read_exact(&mut tombstone_bytes)?;
    let mut tcursor = tombstone_bytes.as_slice();
    let mut tombstones = Vec::with_capacity(tombstone_count as usize);
    for _ in 0..tombstone_count {
        tombstones.push(wire::get_u32(&mut tcursor)?);
    }
    let mut checksum = FxHasher64::new();
    checksum.write(&fixed);
    checksum.write(&tombstone_bytes);
    let mut traces = Vec::with_capacity(declared.min(1 << 20) as usize);
    let mut meta = Vec::with_capacity(declared.min(1 << 20) as usize);
    while let Some(frame) = next_frame(r, compressed, &mut checksum)? {
        let (trace, trace_meta) = decode_entry(&frame, header.version, traces.len())?;
        traces.push(trace);
        meta.push(trace_meta);
    }
    let count = wire::get_u64(r)?;
    let stored_checksum = wire::get_u64(r)?;
    if count != traces.len() as u64 || declared != count {
        return Err(PersistError::Corrupt(format!(
            "delta segment declared {declared} traces, trailer says {count}, file held {}",
            traces.len()
        )));
    }
    if stored_checksum != checksum.finish() {
        return Err(PersistError::Corrupt(
            "delta segment checksum mismatch (file is damaged)".into(),
        ));
    }
    Ok(DeltaSegment {
        seq,
        config: RtmConfig { geometry },
        tombstones,
        traces,
        meta,
    })
}

/// JSON debug encoding: the full-snapshot document plus a `"delta"`
/// object carrying the sequence number and tombstones.
pub fn delta_to_json(fingerprint: u64, delta: &DeltaSegment) -> Json {
    let as_snapshot = RtmSnapshot {
        config: delta.config,
        traces: delta.traces.clone(),
        meta: delta.meta.clone(),
        shape: 0,
    };
    let Json::Obj(mut doc) = snapshot_to_json(fingerprint, &as_snapshot) else {
        unreachable!("snapshot_to_json returns an object");
    };
    let mut meta = BTreeMap::new();
    meta.insert("seq".into(), Json::Num(delta.seq));
    meta.insert(
        "tombstones".into(),
        Json::Arr(
            delta
                .tombstones
                .iter()
                .map(|pc| Json::Num(u64::from(*pc)))
                .collect(),
        ),
    );
    doc.insert("delta".into(), Json::Obj(meta));
    Json::Obj(doc)
}

/// Parse the JSON debug encoding produced by [`delta_to_json`].
pub fn delta_from_json(
    doc: &Json,
    expected_fingerprint: Option<u64>,
) -> Result<(u64, DeltaSegment)> {
    let (fingerprint, snapshot) = snapshot_from_json_core(doc, expected_fingerprint)?;
    let d = doc.field("delta")?;
    let seq = d.field("seq")?.as_u64("delta.seq")?;
    let lanes = d.field("tombstones")?.as_arr("delta.tombstones")?;
    if lanes.len() as u64 > MAX_GEOMETRY_CAPACITY {
        return Err(PersistError::Corrupt(format!(
            "delta segment declares {} tombstones, over the {MAX_GEOMETRY_CAPACITY} cap",
            lanes.len()
        )));
    }
    let mut tombstones = Vec::with_capacity(lanes.len());
    for pc in lanes {
        tombstones.push(pc.as_u32("delta.tombstones")?);
    }
    Ok((
        fingerprint,
        DeltaSegment {
            seq,
            config: snapshot.config,
            tombstones,
            traces: snapshot.traces,
            meta: snapshot.meta,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{load_merged_snapshots, load_snapshot, save_snapshot};
    use tlr_core::{ReplacementPolicy, LFU_HALF_LIFE};
    use tlr_isa::Loc;

    fn record(pc: u32, val: u64) -> TraceRecord {
        TraceRecord {
            start_pc: pc,
            next_pc: pc + 4,
            len: 2,
            ins: vec![(Loc::IntReg(1), val)].into_boxed_slice(),
            outs: vec![(Loc::IntReg(2), val * 2)].into_boxed_slice(),
            mix: tlr_isa::ClassMix::EMPTY,
        }
    }

    fn snapshot(pcs: &[(u32, u64)]) -> RtmSnapshot {
        let mut s = RtmSnapshot::from_traces(
            RtmConfig::RTM_512,
            pcs.iter().map(|(pc, v)| record(*pc, *v)).collect(),
        );
        for (i, m) in s.meta.iter_mut().enumerate() {
            m.hits = i as u64;
            m.last_use = 100 + i as u64;
            m.source_run = 1;
        }
        s
    }

    /// Order-insensitive equality: delta loads canonicalize by
    /// last-use, so compare the (record, meta) multiset.
    fn canonical(s: &RtmSnapshot) -> Vec<(TraceRecord, TraceMeta)> {
        let mut v: Vec<_> = s.entries().map(|(t, m)| (t.clone(), m)).collect();
        v.sort_by_key(|(t, m)| (t.start_pc, t.next_pc, t.len, m.last_use, m.hits));
        v
    }

    #[test]
    fn diff_then_apply_reconstructs_exactly() {
        let old = snapshot(&[(0, 1), (4, 2), (8, 3)]);
        // pc 0 keeps its group, pc 4 changes a value, pc 8 disappears,
        // pc 12 is new.
        let new = snapshot(&[(0, 1), (4, 99), (12, 5)]);
        let (delta, fresh) = diff_snapshots(&group_digests(&old).unwrap(), &new, 1).unwrap();
        assert_eq!(fresh, group_digests(&new).unwrap());
        assert_eq!(delta.tombstones, vec![8]);
        assert_eq!(delta.traces.len(), 2, "only pc 4 and pc 12 spill");
        let mut rebuilt = old.clone();
        apply_delta(&mut rebuilt, &delta).unwrap();
        canonicalize(&mut rebuilt);
        assert_eq!(canonical(&rebuilt), canonical(&new));
    }

    #[test]
    fn meta_only_changes_spill_their_group() {
        let old = snapshot(&[(0, 1), (4, 2)]);
        let mut new = old.clone();
        new.meta[1].hits += 7; // same records, hotter provenance
        let (delta, _) = diff_snapshots(&group_digests(&old).unwrap(), &new, 1).unwrap();
        assert_eq!(delta.traces.len(), 1);
        assert_eq!(delta.traces[0].start_pc, 4);
        assert!(delta.tombstones.is_empty());
    }

    #[test]
    fn unchanged_snapshot_diffs_empty() {
        let s = snapshot(&[(0, 1), (4, 2)]);
        let (delta, _) = diff_snapshots(&group_digests(&s).unwrap(), &s, 3).unwrap();
        assert!(delta.is_empty());
    }

    #[test]
    fn binary_roundtrip_compressed_and_plain() {
        let old = snapshot(&[(0, 1), (4, 2), (8, 3)]);
        let new = snapshot(&[(0, 1), (4, 99), (12, 5)]);
        let (delta, _) = diff_snapshots(&group_digests(&old).unwrap(), &new, 42).unwrap();
        for compress in [false, true] {
            let mut buf = Vec::new();
            write_delta_segment(&mut buf, 7, &delta, compress).unwrap();
            let mut r = buf.as_slice();
            let header = Header::read_from(&mut r).unwrap();
            assert_eq!(header.flags & FLAG_DELTA_SEGMENT, FLAG_DELTA_SEGMENT);
            let again = read_delta_body(&mut r, &header).unwrap();
            assert_eq!(again, delta, "compress={compress}");
        }
    }

    #[test]
    fn json_roundtrip_with_tombstones() {
        let delta = DeltaSegment {
            seq: 9,
            config: RtmConfig::RTM_512,
            tombstones: vec![16, 32],
            traces: vec![record(4, 7)],
            meta: vec![TraceMeta {
                hits: 3,
                last_use: 11,
                source_run: 2,
            }],
        };
        let doc = delta_to_json(5, &delta);
        let text = json::to_string_pretty(&doc);
        let (fp, again) = delta_from_json(&json::parse(&text).unwrap(), Some(5)).unwrap();
        assert_eq!(fp, 5);
        assert_eq!(again, delta);
    }

    #[test]
    fn merged_load_replays_base_plus_deltas() {
        let dir = std::env::temp_dir().join(format!("tlr-delta-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s0 = snapshot(&[(0, 1), (4, 2), (8, 3)]);
        let s1 = snapshot(&[(0, 1), (4, 99), (12, 5)]);
        let s2 = snapshot(&[(0, 1), (4, 99), (12, 6), (16, 7)]);
        let base = dir.join(base_file_name(7));
        save_snapshot(&base, 7, &s0).unwrap();
        let (d1, _) = diff_snapshots(&group_digests(&s0).unwrap(), &s1, 1).unwrap();
        let (d2, _) = diff_snapshots(&group_digests(&s1).unwrap(), &s2, 2).unwrap();
        let p1 = dir.join(delta_file_name(7, 1));
        let p2 = dir.join(delta_file_name(7, 2));
        save_delta_segment(&p1, 7, &d1, true).unwrap();
        save_delta_segment(&p2, 7, &d2, true).unwrap();

        for policy in ReplacementPolicy::ALL {
            // Deltas listed out of order: the payload seq sorts them.
            let (fp, merged) =
                load_merged_snapshots(&[&base, &p2, &p1], Some(7), policy, LFU_HALF_LIFE).unwrap();
            assert_eq!(fp, 7);
            assert_eq!(canonical(&merged), canonical(&s2), "policy {policy:?}");
        }

        // A delta alone is rejected by the single-file loader by name.
        match load_snapshot(&p1, None) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("delta segment"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_name_helpers_roundtrip() {
        let name = delta_file_name(0xabcd, 17);
        assert_eq!(delta_seq_from_path(Path::new(&name)), Some(17));
        assert_eq!(delta_seq_from_path(Path::new("foo.tlrsnap")), None);
        assert_eq!(
            delta_seq_from_path(Path::new(&base_file_name(0xabcd))),
            None
        );
    }

    #[test]
    fn geometry_mismatch_rejected_on_apply() {
        let mut base = snapshot(&[(0, 1)]);
        let mut delta = DeltaSegment {
            seq: 1,
            config: RtmConfig::RTM_512,
            tombstones: Vec::new(),
            traces: Vec::new(),
            meta: Vec::new(),
        };
        delta.config.geometry.sets *= 2;
        assert!(matches!(
            apply_delta(&mut base, &delta),
            Err(PersistError::Merge(
                tlr_core::MergeError::GeometryMismatch { .. }
            ))
        ));
    }
}
