//! Snapshot format-version compatibility: v3 carries per-trace
//! provenance, v4 appends a per-trace class mix, v2 files (written
//! before either existed) must still load as zero-provenance state,
//! and corrupt provenance or mixes — on the binary and the JSON path —
//! must be rejected with a named error, never silently zeroed or
//! misparsed.
//!
//! The v2/v3 writer here is hand-rolled byte-for-byte from the
//! historical layouts (header, geometry prelude, checksummed record
//! frames, trailer), so these tests keep failing loudly if the reader
//! ever drops old-version support by accident.

use std::hash::Hasher;
use std::path::PathBuf;
use tlr_core::{ReplacementPolicy, ReuseTraceMemory, RtmConfig, TraceRecord, LFU_HALF_LIFE};
use tlr_isa::Loc;
use tlr_persist::{
    load_snapshot, save_snapshot, PersistError, FORMAT_VERSION, MIN_SUPPORTED_VERSION,
};
use tlr_util::fxhash::FxHasher64;
use trace_reuse::prelude::*;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tlr-snapshot-compat");
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

// ---- a byte-level writer for historical format versions -------------------

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

/// Serialize a snapshot file of the given header `version` from raw
/// per-trace frame payloads (checksum and trailer computed the way the
/// reader expects them).
fn encode_snapshot_file(version: u16, fingerprint: u64, frames: &[Vec<u8>]) -> Vec<u8> {
    let geometry = RtmConfig::RTM_512.geometry;
    let mut out = Vec::new();
    out.extend_from_slice(b"TLRP");
    put_u16(&mut out, version);
    out.push(2); // kind: RTM snapshot
    out.push(0); // reserved
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

// ---- version compatibility ------------------------------------------------

#[test]
fn v2_snapshot_loads_as_zero_provenance() {
    assert_eq!(MIN_SUPPORTED_VERSION, 2);
    let records = [rec(8, 1), rec(16, 2), rec(24, 3)];
    let frames: Vec<Vec<u8>> = records.iter().map(encode_record).collect();
    let bytes = encode_snapshot_file(2, 77, &frames);
    let path = temp_path("v2.tlrsnap");
    std::fs::write(&path, &bytes).unwrap();

    let (fp, snapshot) = load_snapshot(&path, Some(77)).expect("v2 snapshot must still load");
    assert_eq!(fp, 77);
    assert_eq!(snapshot.traces, records.to_vec());
    assert_eq!(snapshot.meta.len(), snapshot.traces.len());
    assert!(
        snapshot.meta.iter().all(|m| *m == TraceMeta::default()),
        "v2 snapshots carry no provenance; loading must zero it"
    );
    assert_eq!(snapshot.total_hits(), 0);

    // A v2 pool still warm-starts and merges under every policy.
    for policy in ReplacementPolicy::ALL {
        let merged = RtmSnapshot::merge_detailed(
            &[snapshot.clone(), snapshot.clone()],
            policy,
            LFU_HALF_LIFE,
        )
        .expect("v2 state must merge")
        .snapshot;
        assert_eq!(merged.len(), 3, "{policy}");
        assert_eq!(
            ReuseTraceMemory::import_with(&merged, policy).resident(),
            3,
            "{policy}"
        );
    }
}

#[test]
fn v3_roundtrip_preserves_provenance_on_disk() {
    // Provenance born from real hits, through a real file.
    let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
    rtm.set_source_run(9001);
    rtm.insert(rec(8, 1));
    rtm.insert(rec(16, 2));
    for _ in 0..4 {
        assert!(rtm
            .lookup(8, |l| match l {
                Loc::IntReg(1) => 1,
                Loc::Mem(72) => 1,
                _ => 0,
            })
            .is_some());
    }
    let snapshot = rtm.export();
    assert_eq!(snapshot.total_hits(), 4);

    for name in ["v3.tlrsnap", "v3.json"] {
        let path = temp_path(name);
        save_snapshot(&path, 5, &snapshot).unwrap();
        let (_, loaded) = load_snapshot(&path, Some(5)).unwrap();
        assert_eq!(loaded, snapshot, "{name}: provenance lost");
        assert_eq!(loaded.total_hits(), 4, "{name}");
        assert!(
            loaded.meta.iter().all(|m| m.source_run == 9001),
            "{name}: source run lost"
        );
    }
}

#[test]
fn v1_and_future_versions_rejected_with_named_error() {
    for version in [1u16, FORMAT_VERSION + 1] {
        let bytes = encode_snapshot_file(version, 1, &[encode_record(&rec(8, 1))]);
        let path = temp_path(&format!("v{version}.tlrsnap"));
        std::fs::write(&path, &bytes).unwrap();
        match load_snapshot(&path, None) {
            Err(PersistError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, version);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("v{version}: expected UnsupportedVersion, got {other:?}"),
        }
    }
}

// ---- corrupt provenance ---------------------------------------------------

#[test]
fn v3_frame_without_provenance_rejected() {
    // Header says v3, but the frames are v2-shaped (record only): the
    // reader must name the missing provenance, not misparse I/O pairs.
    let frames: Vec<Vec<u8>> = [rec(8, 1), rec(16, 2)].iter().map(encode_record).collect();
    let bytes = encode_snapshot_file(3, 1, &frames);
    let path = temp_path("v3-no-meta.tlrsnap");
    std::fs::write(&path, &bytes).unwrap();
    match load_snapshot(&path, None) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(msg.contains("provenance"), "unhelpful error: {msg}")
        }
        other => panic!("expected Corrupt(provenance), got {other:?}"),
    }
}

#[test]
fn v3_frame_with_truncated_provenance_rejected() {
    let mut frame = encode_record(&rec(8, 1));
    // 16 of the 24 provenance bytes: parseable as neither v2 nor v3.
    frame.extend_from_slice(&[0u8; 16]);
    let bytes = encode_snapshot_file(3, 1, &[frame]);
    let path = temp_path("v3-short-meta.tlrsnap");
    std::fs::write(&path, &bytes).unwrap();
    match load_snapshot(&path, None) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(msg.contains("provenance"), "unhelpful error: {msg}")
        }
        other => panic!("expected Corrupt(provenance), got {other:?}"),
    }
}

#[test]
fn v3_frame_with_stray_bytes_after_provenance_rejected() {
    let mut frame = encode_record(&rec(8, 1));
    frame.extend_from_slice(&[0u8; 24]); // valid zero provenance
    frame.extend_from_slice(&[0xab; 5]); // trailing garbage
    let bytes = encode_snapshot_file(3, 1, &[frame]);
    let path = temp_path("v3-stray.tlrsnap");
    std::fs::write(&path, &bytes).unwrap();
    match load_snapshot(&path, None) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(msg.contains("stray bytes"), "unhelpful error: {msg}")
        }
        other => panic!("expected Corrupt(stray bytes), got {other:?}"),
    }
}

// ---- class mixes (v4) -----------------------------------------------------

/// A v3-shaped frame: record followed by zeroed provenance, no mix.
fn encode_v3_frame(rec: &TraceRecord) -> Vec<u8> {
    let mut frame = encode_record(rec);
    frame.extend_from_slice(&[0u8; 24]);
    frame
}

#[test]
fn v3_snapshot_loads_as_empty_mix() {
    let records = [rec(8, 1), rec(16, 2)];
    let frames: Vec<Vec<u8>> = records.iter().map(encode_v3_frame).collect();
    let bytes = encode_snapshot_file(3, 42, &frames);
    let path = temp_path("v3-no-mix.tlrsnap");
    std::fs::write(&path, &bytes).unwrap();
    let (fp, snapshot) = load_snapshot(&path, Some(42)).expect("v3 snapshot must still load");
    assert_eq!(fp, 42);
    assert_eq!(snapshot.traces, records.to_vec());
    assert!(
        snapshot.traces.iter().all(|t| t.mix.is_empty()),
        "v3 snapshots carry no class mix; loading must leave it empty"
    );
}

#[test]
fn v4_roundtrip_preserves_mix_on_disk() {
    let mut counts = [0u32; tlr_isa::OpClass::COUNT];
    counts[tlr_isa::OpClass::IntAlu.index()] = 2;
    counts[tlr_isa::OpClass::Load.index()] = 1;
    let mix = tlr_isa::ClassMix::from_counts(counts);
    let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
    rtm.insert(TraceRecord { mix, ..rec(8, 1) });
    rtm.insert(rec(16, 2));
    let snapshot = rtm.export();

    for name in ["v4.tlrsnap", "v4.json"] {
        let path = temp_path(name);
        save_snapshot(&path, 5, &snapshot).unwrap();
        let (_, loaded) = load_snapshot(&path, Some(5)).unwrap();
        assert_eq!(loaded, snapshot, "{name}");
        // Trace identity ignores the mix, so check it explicitly.
        let by_pc = |s: &RtmSnapshot, pc| s.traces.iter().find(|t| t.start_pc == pc).unwrap().mix;
        assert_eq!(by_pc(&loaded, 8), mix, "{name}: class mix lost");
        assert!(by_pc(&loaded, 16).is_empty(), "{name}");
    }
}

#[test]
fn v4_frame_without_mix_rejected() {
    // Header says v4, frames are v3-shaped: the reader must name the
    // missing mix rather than misparse the next frame's length prefix.
    let bytes = encode_snapshot_file(4, 1, &[encode_v3_frame(&rec(8, 1))]);
    let path = temp_path("v4-no-mix.tlrsnap");
    std::fs::write(&path, &bytes).unwrap();
    match load_snapshot(&path, None) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(msg.contains("class mix"), "unhelpful error: {msg}")
        }
        other => panic!("expected Corrupt(class mix), got {other:?}"),
    }
}

#[test]
fn v4_frame_with_truncated_mix_rejected() {
    let mut frame = encode_v3_frame(&rec(8, 1));
    frame.push(tlr_isa::OpClass::COUNT as u8);
    put_u32(&mut frame, 3); // one lane of eleven
    let bytes = encode_snapshot_file(4, 1, &[frame]);
    let path = temp_path("v4-short-mix.tlrsnap");
    std::fs::write(&path, &bytes).unwrap();
    match load_snapshot(&path, None) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(msg.contains("class mix"), "unhelpful error: {msg}")
        }
        other => panic!("expected Corrupt(class mix), got {other:?}"),
    }
}

#[test]
fn v4_frame_with_wrong_class_count_rejected() {
    // A file written by a build with a different ISA class list must be
    // refused, not reinterpreted lane-by-lane.
    let mut frame = encode_v3_frame(&rec(8, 1));
    frame.push(7);
    for _ in 0..7 {
        put_u32(&mut frame, 0);
    }
    let bytes = encode_snapshot_file(4, 1, &[frame]);
    let path = temp_path("v4-wrong-lanes.tlrsnap");
    std::fs::write(&path, &bytes).unwrap();
    match load_snapshot(&path, None) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(
                msg.contains("instruction classes"),
                "unhelpful error: {msg}"
            )
        }
        other => panic!("expected Corrupt(instruction classes), got {other:?}"),
    }
}

#[test]
fn json_corrupt_provenance_rejected() {
    let snapshot = {
        let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
        rtm.insert(rec(8, 1));
        rtm.export()
    };
    let path = temp_path("meta-fuzz.json");
    save_snapshot(&path, 3, &snapshot).unwrap();
    let good = std::fs::read_to_string(&path).unwrap();
    assert!(good.contains("\"meta\""), "JSON dump lost its meta field");

    // Each mutation corrupts only the provenance object.
    for (tag, find, replace) in [
        ("type", "\"hits\": 0", "\"hits\": \"lots\""),
        ("missing-key", "\"hits\"", "\"hitz\""),
        (
            "shape",
            "{\n        \"hits\": 0,",
            "[\n        {\"hits\": 0,",
        ),
    ] {
        assert!(good.contains(find), "{tag}: fixture drifted ({find:?})");
        let bad = good.replacen(find, replace, 1);
        std::fs::write(&path, &bad).unwrap();
        assert!(
            load_snapshot(&path, None).is_err(),
            "{tag}: corrupt provenance accepted"
        );
    }

    // Removing the whole meta object is *legal* — that is exactly what
    // a pre-v3 JSON dump looks like — and loads as zero provenance.
    // In the sorted pretty layout "meta" is a mid-object field: strip
    // from `"meta": {` through its closing `},` inclusive.
    let start = good.find("\"meta\"").expect("meta field present");
    let end = start + good[start..].find('}').expect("meta closes") + 1;
    let tail = good[end..].strip_prefix(',').expect("meta is mid-object");
    let stripped = format!("{}{}", &good[..start].trim_end(), tail.trim_start());
    std::fs::write(&path, &stripped).unwrap();
    let (_, loaded) = load_snapshot(&path, None).expect("meta-less JSON must load");
    assert_eq!(loaded.total_hits(), 0);
    assert_eq!(loaded.traces, snapshot.traces);
}
