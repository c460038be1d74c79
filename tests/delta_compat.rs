//! Format-v5 compatibility and delta-segment hardening: v4 files
//! (provenance + class mix, zero flags byte) must still load exactly,
//! a base plus its delta segments must reconstruct the same state as a
//! full snapshot of the final RTM under every replacement policy, and
//! corrupt delta segments — truncation, bit flips, cap-busting
//! geometry, mangled JSON — must be rejected with a descriptive
//! `PersistError` on both the binary and JSON paths.
//!
//! The v4 writer here is hand-rolled byte-for-byte from the historical
//! layout (like `snapshot_compat.rs` does for v2/v3), so these tests
//! keep failing loudly if the reader ever drops v4 support by
//! accident.

use proptest::prelude::*;
use std::hash::Hasher;
use std::path::PathBuf;
use tlr_core::{
    ReplacementPolicy, ReuseTraceMemory, RtmConfig, RtmSnapshot, SetAssocGeometry, TraceMeta,
    TraceRecord, LFU_HALF_LIFE,
};
use tlr_isa::Loc;
use tlr_persist::snapshot::MAX_GEOMETRY_CAPACITY;
use tlr_persist::{
    base_file_name, delta_file_name, diff_snapshots, group_digests, load_merged_snapshots,
    load_snapshot, save_delta_segment, save_snapshot, DeltaSegment, Header, PersistError,
    FLAG_DELTA_SEGMENT, FORMAT_VERSION, KIND_RTM_SNAPSHOT, MIN_SUPPORTED_VERSION,
};
use tlr_util::fxhash::FxHasher64;

/// Per-test temp directory: each test function uses its own tag so the
/// deterministic `{fingerprint}-base` / `{fingerprint}-delta-NNNNNN`
/// file names never race across parallel test threads.
const LRU: ReplacementPolicy = ReplacementPolicy::Lru;

fn temp_path(tag: &str, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlr-delta-compat-{tag}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn rec(pc: u32, v: u64) -> TraceRecord {
    TraceRecord {
        start_pc: pc,
        next_pc: pc + 3,
        len: 3,
        ins: vec![(Loc::IntReg(1), v), (Loc::Mem(64 + v * 8), v)].into_boxed_slice(),
        outs: vec![(Loc::IntReg(2), v * 7)].into_boxed_slice(),
        mix: Default::default(),
    }
}

/// A snapshot with one record per `(pc, value)` and distinct, non-zero
/// provenance, so delta diffs and digests cover the meta bytes too.
fn snapshot(pcs: &[(u32, u64)]) -> RtmSnapshot {
    let mut s = RtmSnapshot::from_traces(
        RtmConfig::RTM_512,
        pcs.iter().map(|(pc, v)| rec(*pc, *v)).collect(),
    );
    for (i, m) in s.meta.iter_mut().enumerate() {
        m.hits = i as u64 + 1;
        m.last_use = 100 + i as u64;
        m.source_run = 0x5eed;
    }
    s
}

// ---- a byte-level writer for the historical v4 layout ---------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_loc(out: &mut Vec<u8>, loc: Loc) {
    match loc {
        Loc::IntReg(n) => {
            out.push(0);
            out.push(n);
        }
        Loc::FpReg(n) => {
            out.push(1);
            out.push(n);
        }
        Loc::Mem(addr) => {
            out.push(2);
            put_u64(out, addr);
        }
    }
}

fn encode_record(rec: &TraceRecord) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, rec.start_pc);
    put_u32(&mut out, rec.next_pc);
    put_u32(&mut out, rec.len);
    put_u16(&mut out, rec.ins.len() as u16);
    put_u16(&mut out, rec.outs.len() as u16);
    for (loc, val) in rec.ins.iter().chain(rec.outs.iter()) {
        put_loc(&mut out, *loc);
        put_u64(&mut out, *val);
    }
    out
}

/// A v4 entry frame: record, then 24 bytes of provenance, then the
/// lane-count-prefixed class mix — exactly what a v4 build wrote.
fn encode_v4_frame(rec: &TraceRecord, meta: &TraceMeta) -> Vec<u8> {
    let mut frame = encode_record(rec);
    put_u64(&mut frame, meta.hits);
    put_u64(&mut frame, meta.last_use);
    put_u64(&mut frame, meta.source_run);
    frame.push(tlr_isa::OpClass::COUNT as u8);
    for (_, count) in rec.mix.iter() {
        put_u32(&mut frame, count);
    }
    frame
}

/// Serialize a snapshot file of the given header `version` from raw
/// per-trace frame payloads. The flags byte (offset 7, reserved before
/// v5) is written as 0, the only legal value for v2–v4.
fn encode_snapshot_file(version: u16, fingerprint: u64, frames: &[Vec<u8>]) -> Vec<u8> {
    let geometry = RtmConfig::RTM_512.geometry;
    let mut out = Vec::new();
    out.extend_from_slice(b"TLRP");
    put_u16(&mut out, version);
    out.push(2); // kind: RTM snapshot
    out.push(0); // flags (reserved before v5)
    put_u64(&mut out, fingerprint);

    let mut prelude = Vec::new();
    put_u32(&mut prelude, geometry.sets);
    put_u32(&mut prelude, geometry.ways);
    put_u32(&mut prelude, geometry.per_pc);
    put_u64(&mut prelude, frames.len() as u64);
    out.extend_from_slice(&prelude);

    let mut checksum = FxHasher64::new();
    checksum.write(&prelude);
    for frame in frames {
        put_u32(&mut out, frame.len() as u32);
        out.extend_from_slice(frame);
        checksum.write(frame);
    }
    put_u32(&mut out, 0);
    put_u64(&mut out, frames.len() as u64);
    put_u64(&mut out, checksum.finish());
    out
}

// ---- v4 back-compat -------------------------------------------------------

#[test]
fn v4_snapshot_with_provenance_and_mix_still_loads() {
    // The v5 bump repurposed the reserved byte as flags; a v4 file's
    // content (record + provenance + mix, flags byte 0) must survive
    // unchanged. Anchor the version pair so this test is rewritten
    // deliberately on the next bump, not silently skipped.
    assert_eq!(FORMAT_VERSION, 6);
    assert_eq!(MIN_SUPPORTED_VERSION, 2);

    let mut counts = [0u32; tlr_isa::OpClass::COUNT];
    counts[tlr_isa::OpClass::IntAlu.index()] = 2;
    counts[tlr_isa::OpClass::Load.index()] = 1;
    let mix = tlr_isa::ClassMix::from_counts(counts);
    let records = [TraceRecord { mix, ..rec(8, 1) }, rec(16, 2)];
    let metas = [
        TraceMeta {
            hits: 5,
            last_use: 123,
            source_run: 9001,
        },
        TraceMeta {
            hits: 1,
            last_use: 200,
            source_run: 9001,
        },
    ];
    let frames: Vec<Vec<u8>> = records
        .iter()
        .zip(metas.iter())
        .map(|(r, m)| encode_v4_frame(r, m))
        .collect();
    let bytes = encode_snapshot_file(4, 77, &frames);
    let path = temp_path("v4", "v4.tlrsnap");
    std::fs::write(&path, &bytes).unwrap();

    let (fp, loaded) = load_snapshot(&path, Some(77)).expect("v4 snapshot must still load");
    assert_eq!(fp, 77);
    assert_eq!(loaded.traces, records.to_vec());
    assert_eq!(loaded.meta, metas.to_vec(), "v4 provenance lost");
    // Trace identity ignores the mix, so check it explicitly.
    assert_eq!(loaded.traces[0].mix, mix, "v4 class mix lost");
    assert!(loaded.traces[1].mix.is_empty());
}

#[test]
fn v5_snapshot_loads_as_value_pinned() {
    // The v6 bump appended the shape fingerprint to the full-snapshot
    // prelude; a v5 file (20-byte prelude, same frame layout) must
    // still load, with shape 0 — value-pinned, never shape-shared.
    let records = [rec(8, 1), rec(16, 2)];
    let frames: Vec<Vec<u8>> = records
        .iter()
        .map(|r| encode_v4_frame(r, &TraceMeta::default()))
        .collect();
    let bytes = encode_snapshot_file(5, 78, &frames);
    let path = temp_path("v5", "v5.tlrsnap");
    std::fs::write(&path, &bytes).unwrap();

    let (fp, loaded) = load_snapshot(&path, Some(78)).expect("v5 snapshot must still load");
    assert_eq!(fp, 78);
    assert_eq!(loaded.traces, records.to_vec());
    assert_eq!(loaded.shape, 0, "pre-v6 snapshots must be value-pinned");
}

#[test]
fn v4_header_with_flag_bits_rejected() {
    // Byte 7 was reserved-must-be-zero before v5: a v4 file claiming a
    // v5 flag is damaged, not "an old file with compression".
    let frames = vec![encode_v4_frame(&rec(8, 1), &TraceMeta::default())];
    let mut bytes = encode_snapshot_file(4, 77, &frames);
    bytes[7] = FLAG_DELTA_SEGMENT;
    let path = temp_path("v4", "v4-flagged.tlrsnap");
    std::fs::write(&path, &bytes).unwrap();
    match load_snapshot(&path, None) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(
                msg.contains("reserved header byte"),
                "unhelpful error: {msg}"
            )
        }
        other => panic!("expected Corrupt(reserved header byte), got {other:?}"),
    }
}

#[test]
fn v5_header_with_unknown_flag_rejected() {
    let path = temp_path("v5", "unknown-flag.tlrsnap");
    save_snapshot(&path, 9, &snapshot(&[(8, 1)])).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[7] |= 0x80; // a flag bit this build does not define
    std::fs::write(&path, &bytes).unwrap();
    match load_snapshot(&path, None) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(
                msg.contains("unknown header flags"),
                "unhelpful error: {msg}"
            )
        }
        other => panic!("expected Corrupt(unknown header flags), got {other:?}"),
    }
}

// ---- base ⊕ deltas == full snapshot, under every policy -------------------

/// A deliberately tiny geometry so capacity eviction — the thing that
/// makes whole-group replacement necessary — happens constantly.
const TINY: RtmConfig = RtmConfig {
    geometry: SetAssocGeometry {
        sets: 2,
        ways: 2,
        per_pc: 2,
    },
};

fn record_strategy() -> impl Strategy<Value = TraceRecord> {
    // Few PCs and few values: group churn, tombstones (groups evicted
    // whole), and unchanged groups all occur under the tiny geometry.
    (0u32..6, 1u32..5, 0u64..4, 0u64..4).prop_map(|(start_pc, len, in_val, out_val)| TraceRecord {
        start_pc,
        next_pc: start_pc + len,
        len,
        ins: vec![(Loc::IntReg(1), in_val)].into_boxed_slice(),
        outs: vec![(Loc::IntReg(2), out_val)].into_boxed_slice(),
        mix: Default::default(),
    })
}

/// One RTM evolving through 2–4 insert/use batches, exported after each
/// batch — the exact state sequence an engine's publish-backs see.
fn evolution_strategy() -> impl Strategy<Value = Vec<RtmSnapshot>> {
    proptest::collection::vec(
        proptest::collection::vec((record_strategy(), 0u8..4), 1..10),
        2..5,
    )
    .prop_map(|batches| {
        let mut rtm = ReuseTraceMemory::new(TINY);
        batches
            .into_iter()
            .map(|batch| {
                for (record, hits) in batch {
                    let (pc, in_val) = (record.start_pc, record.ins[0].1);
                    rtm.insert(record);
                    for _ in 0..hits {
                        rtm.lookup(pc, |l| if l == Loc::IntReg(1) { in_val } else { 0 });
                    }
                }
                rtm.export()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The compaction invariant, end to end through real files: a base
    /// plus the delta chain diffed from consecutive exports loads to
    /// the same trace/provenance/mix state as a full snapshot of the
    /// final export, under every replacement policy. Serialization
    /// order is *not* part of the contract (overlay application loses
    /// the base's interleaving), so equality is judged on the
    /// order-insensitive per-group digests.
    #[test]
    fn base_plus_deltas_match_full_load_under_every_policy(states in evolution_strategy()) {
        let fp = 7u64;
        let base = temp_path("prop", &base_file_name(fp));
        save_snapshot(&base, fp, &states[0]).unwrap();
        let mut split = vec![base];
        for (i, pair) in states.windows(2).enumerate() {
            let seq = i as u64 + 1;
            let (delta, _) = diff_snapshots(&group_digests(&pair[0]).unwrap(), &pair[1], seq).unwrap();
            let path = temp_path("prop", &delta_file_name(fp, seq));
            // Alternate the codec so both frame encodings are replayed.
            save_delta_segment(&path, fp, &delta, i % 2 == 0).unwrap();
            split.push(path);
        }
        let full = temp_path("prop", "full.tlrsnap");
        save_snapshot(&full, fp, states.last().unwrap()).unwrap();

        for policy in ReplacementPolicy::ALL {
            let (_, from_split) = load_merged_snapshots(&split, Some(fp), policy, LFU_HALF_LIFE).unwrap();
            let (_, from_full) =
                load_merged_snapshots(std::slice::from_ref(&full), Some(fp), policy, LFU_HALF_LIFE).unwrap();
            prop_assert_eq!(
                from_split.len(),
                from_full.len(),
                "{}: split load holds a different trace count",
                policy
            );
            prop_assert_eq!(
                group_digests(&from_split).unwrap(),
                group_digests(&from_full).unwrap(),
                "{}: base + deltas reconstructed different state",
                policy
            );
        }
    }

    /// Random single-bit corruption anywhere in a delta segment is
    /// never silently accepted as different merged content: either the
    /// merged load fails, or the flip missed everything the codec reads
    /// and the reconstruction is unchanged.
    #[test]
    fn delta_bit_flips_never_alter_merged_content(
        offset in any::<u64>(),
        bit in 0u32..8,
        compress in any::<bool>(),
    ) {
        let old = snapshot(&[(0, 1), (4, 2), (8, 3)]);
        let new = snapshot(&[(0, 1), (4, 99), (12, 5)]);
        let (delta, _) = diff_snapshots(&group_digests(&old).unwrap(), &new, 42).unwrap();
        let base = temp_path("bitflip", &base_file_name(7));
        let delta_path = temp_path("bitflip", &delta_file_name(7, 42));
        save_snapshot(&base, 7, &old).unwrap();
        save_delta_segment(&delta_path, 7, &delta, compress).unwrap();
        let paths = [base, delta_path.clone()];
        let (_, clean) = load_merged_snapshots(&paths, None, LRU, LFU_HALF_LIFE).unwrap();
        let clean_digests = group_digests(&clean).unwrap();

        let mut bytes = std::fs::read(&delta_path).unwrap();
        let offset = (offset % bytes.len() as u64) as usize;
        bytes[offset] ^= 1 << bit;
        std::fs::write(&delta_path, &bytes).unwrap();
        if let Ok((_, merged)) = load_merged_snapshots(&paths, None, LRU, LFU_HALF_LIFE) {
            prop_assert_eq!(
                group_digests(&merged).unwrap(),
                clean_digests,
                "flipped bit {} of byte {} changed the merged state",
                bit,
                offset
            );
        }
    }

    /// Truncating a delta segment anywhere is always detected by the
    /// merged load — a half-written spill can never half-apply.
    #[test]
    fn delta_truncation_always_detected(cut in 0u64..u64::MAX, compress in any::<bool>()) {
        let old = snapshot(&[(0, 1), (4, 2), (8, 3)]);
        let new = snapshot(&[(0, 1), (4, 99), (12, 5)]);
        let (delta, _) = diff_snapshots(&group_digests(&old).unwrap(), &new, 1).unwrap();
        let base = temp_path("truncate", &base_file_name(7));
        let delta_path = temp_path("truncate", &delta_file_name(7, 1));
        save_snapshot(&base, 7, &old).unwrap();
        save_delta_segment(&delta_path, 7, &delta, compress).unwrap();

        let mut bytes = std::fs::read(&delta_path).unwrap();
        let cut = (cut % (bytes.len() as u64 - 1) + 1) as usize; // 1..len
        bytes.truncate(bytes.len() - cut);
        std::fs::write(&delta_path, &bytes).unwrap();
        prop_assert!(
            load_merged_snapshots(&[base, delta_path], None, LRU, LFU_HALF_LIFE).is_err(),
            "truncated delta segment accepted ({cut} bytes cut)"
        );
    }
}

// ---- hostile delta segments -----------------------------------------------

#[test]
fn cap_busting_delta_geometry_rejected() {
    // The writer serializes whatever struct it is given, which is
    // exactly what a hostile producer would do; the reader's geometry
    // bounds must refuse it before any capacity-sized allocation.
    for (mutate, tag) in [
        (
            (|g: &mut SetAssocGeometry| g.sets = 1 << 30) as fn(&mut SetAssocGeometry),
            "sets",
        ),
        (|g: &mut SetAssocGeometry| g.ways = 1 << 30, "ways"),
        (|g: &mut SetAssocGeometry| g.per_pc = 1 << 30, "per_pc"),
    ] {
        let mut delta = DeltaSegment {
            seq: 1,
            config: RtmConfig::RTM_512,
            tombstones: vec![16],
            traces: vec![rec(4, 7)],
            meta: vec![TraceMeta::default()],
        };
        mutate(&mut delta.config.geometry);
        for ext in ["tlrsnap", "json"] {
            let path = temp_path("hostile", &format!("geom-{tag}.{ext}"));
            save_delta_segment(&path, 7, &delta, false).unwrap();
            match load_merged_snapshots(&[path], None, LRU, LFU_HALF_LIFE) {
                Err(PersistError::Corrupt(msg)) => {
                    assert!(
                        msg.contains("oversized"),
                        "{tag}/{ext}: unhelpful error: {msg}"
                    )
                }
                other => panic!(
                    "{tag}/{ext}: expected Corrupt(oversized), got {:?}",
                    other.map(|(fp, s)| (fp, s.len()))
                ),
            }
        }
    }
}

#[test]
fn cap_busting_tombstone_count_rejected_before_allocation() {
    // Hand-rolled: a valid delta header whose prelude declares more
    // tombstones than any geometry admits, with no tombstone bytes
    // behind it. The reader must refuse on the declared count — if it
    // tried to read (or worse, allocate) first, this file would hang it
    // on EOF instead of producing the named error.
    let mut bytes = Vec::new();
    Header::with_flags(KIND_RTM_SNAPSHOT, 7, FLAG_DELTA_SEGMENT)
        .write_to(&mut bytes)
        .unwrap();
    let geometry = RtmConfig::RTM_512.geometry;
    put_u32(&mut bytes, geometry.sets);
    put_u32(&mut bytes, geometry.ways);
    put_u32(&mut bytes, geometry.per_pc);
    put_u64(&mut bytes, 0); // trace count
    put_u64(&mut bytes, 1); // seq
    put_u64(&mut bytes, MAX_GEOMETRY_CAPACITY + 1);
    let path = temp_path("hostile", "tombstone-cap.tlrsnap");
    std::fs::write(&path, &bytes).unwrap();
    match load_merged_snapshots(&[path], None, LRU, LFU_HALF_LIFE) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(
                msg.contains("tombstones") && msg.contains("cap"),
                "unhelpful error: {msg}"
            )
        }
        other => panic!(
            "expected Corrupt(tombstones over cap), got {:?}",
            other.map(|(fp, s)| (fp, s.len()))
        ),
    }
}

#[test]
fn json_corrupt_delta_rejected() {
    let delta = DeltaSegment {
        seq: 42,
        config: RtmConfig::RTM_512,
        tombstones: vec![77777],
        traces: vec![rec(4, 7)],
        meta: vec![TraceMeta {
            hits: 3,
            last_use: 11,
            source_run: 2,
        }],
    };
    let path = temp_path("json", "delta.json");
    save_delta_segment(&path, 5, &delta, false).unwrap();
    let good = std::fs::read_to_string(&path).unwrap();
    assert!(
        good.contains("\"delta\""),
        "JSON dump lost its delta object"
    );

    // A delta alone is rejected by the single-file loader by name, on
    // the JSON path just like the binary one.
    match load_snapshot(&path, None) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(msg.contains("delta segment"), "unhelpful error: {msg}")
        }
        other => panic!("expected Corrupt(delta segment), got {other:?}"),
    }

    // Each mutation corrupts only the delta object.
    for (tag, find, replace) in [
        ("seq-type", "\"seq\": 42", "\"seq\": \"many\""),
        ("missing-seq", "\"seq\"", "\"seqq\""),
        ("tombstones-shape", "\"tombstones\": [", "\"tombstones\": {"),
        ("tombstone-range", "77777", "4294967296"),
    ] {
        assert!(good.contains(find), "{tag}: fixture drifted ({find:?})");
        let bad = good.replacen(find, replace, 1);
        std::fs::write(&path, &bad).unwrap();
        assert!(
            load_merged_snapshots(std::slice::from_ref(&path), None, LRU, LFU_HALF_LIFE).is_err(),
            "{tag}: corrupt delta accepted"
        );
    }
}
