//! Saving and loading full [`RtmSnapshot`]s.
//!
//! Binary layout after the 16-byte header (see [`crate::format`]):
//!
//! | field | size |
//! |---|---|
//! | geometry: sets, ways, per-PC | 3 × u32 |
//! | trace count | u64 |
//! | traces | count × length-prefixed frames: [`tlr_core::TraceRecord`] + (v3) [`tlr_core::TraceMeta`] + (v4) [`tlr_isa::ClassMix`] |
//! | trailer | u32 zero marker, u64 count, u64 checksum |
//!
//! Format v3 appends the 24-byte per-trace provenance
//! ([`tlr_core::TraceMeta`]: hits, last-use tick, source-run id) inside
//! each trace's frame, covered by the frame checksum; v4 additionally
//! appends the trace's per-class instruction mix. v2/v3 files still
//! load; their traces carry zero provenance and/or an empty mix.
//!
//! Format v5 adds two header flags: [`FLAG_COMPRESSED_FRAMES`] (each
//! frame payload becomes `u32` raw length + the [`crate::compress`]
//! stream) and [`FLAG_DELTA_SEGMENT`] (the file is an incremental
//! *delta segment*, see [`crate::delta`]). Binary loads read the whole
//! file into memory up front and parse from the buffer — one syscall
//! per file on the serving path instead of `BufReader` chatter.

use crate::compress;
use crate::error::{PersistError, Result};
use crate::format::{
    FileFormat, Header, FLAG_COMPRESSED_FRAMES, FLAG_DELTA_SEGMENT, KIND_RTM_SNAPSHOT,
};
use crate::json::{self, Json};
use crate::stream::json_pairs;
use crate::wire;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use tlr_core::{
    IoCaps, ReplacementPolicy, RtmConfig, RtmSnapshot, SetAssocGeometry, TraceMeta, TraceRecord,
};
use tlr_util::fxhash::FxHasher64;

/// JSON format tag for RTM snapshots.
pub const JSON_SNAPSHOT_FORMAT: &str = "tlr-rtm-v1";

/// Largest RTM geometry a snapshot may declare, per dimension. A factor
/// above the paper's biggest configuration (`RTM_256K`: 2048 × 8 × 16)
/// to leave headroom for experiments, but small enough that a corrupt or
/// hostile header can never trigger a huge allocation on import.
pub const MAX_GEOMETRY_SETS: u32 = 1 << 12;
/// Cap on the `ways` dimension (see [`MAX_GEOMETRY_SETS`]).
pub const MAX_GEOMETRY_WAYS: u32 = 64;
/// Cap on the `per_pc` dimension (see [`MAX_GEOMETRY_SETS`]).
pub const MAX_GEOMETRY_PER_PC: u32 = 64;
/// Cap on total declared trace capacity (4× `RTM_256K`).
pub const MAX_GEOMETRY_CAPACITY: u64 = 1 << 20;

/// Per-side I/O bounds a loaded trace record must satisfy. Generous
/// relative to collection (the paper caps at 8 registers + 4 memory
/// values a side; the register files only hold 64 locations total) but
/// bounded, so cap-busting records are rejected instead of corrupting
/// RTM accounting downstream.
pub const SNAPSHOT_IO_CAPS: IoCaps = IoCaps {
    reg_in: 64,
    mem_in: 1024,
    reg_out: 64,
    mem_out: 1024,
};

/// Save `snapshot` to `path`, choosing binary or JSON by extension
/// (binary frames uncompressed).
pub fn save_snapshot(path: &Path, fingerprint: u64, snapshot: &RtmSnapshot) -> Result<()> {
    save_snapshot_with(path, fingerprint, snapshot, false)
}

/// [`save_snapshot`], run-length compressing every binary trace frame
/// ([`FLAG_COMPRESSED_FRAMES`]) when `compress` is set, as
/// [`crate::save_delta_segment`] does; the JSON debug format ignores
/// `compress`. The registry writes every base file this way.
pub fn save_snapshot_with(
    path: &Path,
    fingerprint: u64,
    snapshot: &RtmSnapshot,
    compress: bool,
) -> Result<()> {
    match FileFormat::detect(path) {
        FileFormat::Binary => {
            let mut out = BufWriter::new(File::create(path)?);
            write_snapshot_with(&mut out, fingerprint, snapshot, compress)?;
            out.flush()?;
            Ok(())
        }
        FileFormat::Json => {
            let text = json::to_string_pretty(&snapshot_to_json(fingerprint, snapshot));
            std::fs::write(path, text)?;
            Ok(())
        }
    }
}

/// Move the fully written `tmp` over `path` so that after a crash `path`
/// holds either what it held before or the complete new file: the temp
/// file's data reaches the disk before the rename, and the directory
/// entry after it.
pub fn commit_file(tmp: &Path, path: &Path) -> Result<()> {
    OpenOptions::new().write(true).open(tmp)?.sync_all()?;
    std::fs::rename(tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    sync_dir(dir.unwrap_or(Path::new(".")))
}

/// Sync directory `dir`, making renames and deletions in it durable.
pub fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Load a snapshot from `path` (format by extension), optionally pinning
/// the expected program fingerprint. Returns the file's fingerprint and
/// the snapshot. Delta segments are rejected with a named error — load
/// them through [`load_merged_snapshots`] next to their base.
pub fn load_snapshot(path: &Path, expected_fingerprint: Option<u64>) -> Result<(u64, RtmSnapshot)> {
    match load_snapshot_payload(path, expected_fingerprint)? {
        (fp, SnapshotPayload::Full(snapshot)) => Ok((fp, snapshot)),
        (_, SnapshotPayload::Delta(_)) => Err(PersistError::Corrupt(format!(
            "{} is a delta segment; load it with its base via load_merged_snapshots, \
             or fold it with `tlrsim compact`",
            path.display()
        ))),
    }
}

/// What a snapshot file holds: a full snapshot, or an incremental delta
/// segment that overlays one (see [`crate::delta`]).
#[derive(Clone, Debug)]
pub enum SnapshotPayload {
    /// A complete snapshot (formats v2–v5 without the delta flag).
    Full(RtmSnapshot),
    /// A v5 delta segment ([`FLAG_DELTA_SEGMENT`]).
    Delta(crate::delta::DeltaSegment),
}

/// Load either payload kind from `path` (format by extension). Binary
/// files are read whole into memory and parsed from the buffer.
pub fn load_snapshot_payload(
    path: &Path,
    expected_fingerprint: Option<u64>,
) -> Result<(u64, SnapshotPayload)> {
    match FileFormat::detect(path) {
        FileFormat::Binary => {
            let bytes = std::fs::read(path)?;
            let mut r = bytes.as_slice();
            let header = Header::read_from(&mut r)?;
            header.expect(KIND_RTM_SNAPSHOT, expected_fingerprint)?;
            if header.flags & FLAG_DELTA_SEGMENT != 0 {
                let delta = crate::delta::read_delta_body(&mut r, &header)?;
                Ok((header.fingerprint, SnapshotPayload::Delta(delta)))
            } else {
                let snapshot = read_snapshot_body(&mut r, &header)?;
                Ok((header.fingerprint, SnapshotPayload::Full(snapshot)))
            }
        }
        FileFormat::Json => {
            let doc = json::parse(&std::fs::read_to_string(path)?)?;
            if doc.opt_field("delta").is_some() {
                let (fp, delta) = crate::delta::delta_from_json(&doc, expected_fingerprint)?;
                Ok((fp, SnapshotPayload::Delta(delta)))
            } else {
                let (fp, snapshot) = snapshot_from_json(&doc, expected_fingerprint)?;
                Ok((fp, SnapshotPayload::Full(snapshot)))
            }
        }
    }
}

/// Load several snapshot files of the **same program** and merge them
/// into one pooled snapshot ([`RtmSnapshot::merge_detailed`] semantics
/// under `policy` and `lfu_half_life`: shared geometry required, MRU
/// priority follows file order, so list the freshest run last; the
/// non-recency policies rank the pooled traces by their persisted
/// provenance). Delta segments among the files are replayed over the
/// merged full snapshots in sequence order.
///
/// Every file's fingerprint must agree — with `expected_fingerprint`
/// when given, otherwise with the first file's. Returns that fingerprint
/// and the merged snapshot.
pub fn load_merged_snapshots(
    paths: &[impl AsRef<Path>],
    expected_fingerprint: Option<u64>,
    policy: ReplacementPolicy,
    lfu_half_life: u64,
) -> Result<(u64, RtmSnapshot)> {
    if paths.is_empty() {
        return Err(PersistError::Merge(tlr_core::MergeError::Empty));
    }
    let mut pinned = expected_fingerprint;
    let mut snapshots = Vec::with_capacity(paths.len());
    let mut deltas: Vec<(usize, crate::delta::DeltaSegment)> = Vec::new();
    for (order, path) in paths.iter().enumerate() {
        let (fp, payload) = load_snapshot_payload(path.as_ref(), pinned)?;
        pinned = Some(fp);
        match payload {
            SnapshotPayload::Full(snapshot) => snapshots.push(snapshot),
            SnapshotPayload::Delta(delta) => deltas.push((order, delta)),
        }
    }
    let fingerprint = pinned.expect("at least one file loaded");
    let mut merged = if snapshots.is_empty() {
        // Delta-only directory (the base was compacted away elsewhere,
        // or never written): overlay onto an empty snapshot of the
        // deltas' geometry.
        let config = deltas[0].1.config;
        RtmSnapshot {
            config,
            traces: Vec::new(),
            meta: Vec::new(),
            shape: 0,
        }
    } else {
        RtmSnapshot::merge_detailed(&snapshots, policy, lfu_half_life)?.snapshot
    };
    if !deltas.is_empty() {
        // Replay deltas in sequence order (file order breaks ties), then
        // re-import through a single-input merge so recency seeding and
        // capacity enforcement match a full-snapshot load exactly.
        deltas.sort_by_key(|(order, delta)| (delta.seq, *order));
        for (_, delta) in &deltas {
            crate::delta::apply_delta(&mut merged, delta)?;
        }
        crate::delta::canonicalize(&mut merged);
        merged = RtmSnapshot::merge_detailed(&[merged], policy, lfu_half_life)?.snapshot;
    }
    Ok((fingerprint, merged))
}

/// Read a snapshot file's program fingerprint *and* shape fingerprint
/// without deserializing any traces. The shape is 0 (value-pinned) for
/// pre-v6 files, delta segments, and JSON dumps without a `"shape"`
/// field. Binary files cost one header + prelude read; JSON files one
/// parse.
pub fn peek_snapshot_identity(path: &Path) -> Result<(u64, u64)> {
    match FileFormat::detect(path) {
        FileFormat::Binary => {
            let mut r = BufReader::new(File::open(path)?);
            let header = Header::read_from(&mut r)?;
            header.expect(KIND_RTM_SNAPSHOT, None)?;
            if header.version < 6 || header.flags & FLAG_DELTA_SEGMENT != 0 {
                return Ok((header.fingerprint, 0));
            }
            // Full v6 prelude: geometry (12 B) + count (8 B) + shape.
            let mut prelude = [0u8; 28];
            r.read_exact(&mut prelude)?;
            let mut cursor = &prelude[20..];
            let shape = wire::get_u64(&mut cursor)?;
            Ok((header.fingerprint, shape))
        }
        FileFormat::Json => {
            let doc = json::parse(&std::fs::read_to_string(path)?)?;
            let format = doc.field("format")?.as_str("format")?;
            if format != JSON_SNAPSHOT_FORMAT {
                return Err(PersistError::Corrupt(format!(
                    "\"format\" is {format:?}, expected {JSON_SNAPSHOT_FORMAT:?}"
                )));
            }
            let fingerprint = doc.field("fingerprint")?.as_u64("fingerprint")?;
            let shape = if doc.opt_field("delta").is_some() {
                0
            } else {
                match doc.opt_field("shape") {
                    Some(s) => s.as_u64("shape")?,
                    None => 0,
                }
            };
            Ok((fingerprint, shape))
        }
    }
}

/// Serialize a snapshot to any writer (binary format, uncompressed).
pub fn write_snapshot(w: &mut impl Write, fingerprint: u64, snapshot: &RtmSnapshot) -> Result<()> {
    write_snapshot_with(w, fingerprint, snapshot, false)
}

/// [`write_snapshot`], compressing every trace frame when `compress` is
/// set (see [`save_snapshot_with`]).
pub fn write_snapshot_with(
    w: &mut impl Write,
    fingerprint: u64,
    snapshot: &RtmSnapshot,
    compress: bool,
) -> Result<()> {
    let flags = if compress { FLAG_COMPRESSED_FRAMES } else { 0 };
    Header::with_flags(KIND_RTM_SNAPSHOT, fingerprint, flags).write_to(w)?;
    let geometry = snapshot.config.geometry;
    let mut prelude = Vec::with_capacity(28);
    wire::put_u32(&mut prelude, geometry.sets);
    wire::put_u32(&mut prelude, geometry.ways);
    wire::put_u32(&mut prelude, geometry.per_pc);
    wire::put_u64(&mut prelude, snapshot.traces.len() as u64);
    // v6: the producing program's shape fingerprint (0 = value-pinned),
    // covered by the checksum like the rest of the prelude.
    wire::put_u64(&mut prelude, snapshot.shape);
    w.write_all(&prelude)?;

    // The checksum covers the geometry prelude too: a bit flip in
    // `ways` would otherwise still parse as a (different) valid
    // geometry and silently re-shape the import.
    let mut checksum = FxHasher64::new();
    checksum.write(&prelude);
    let mut scratch = Vec::with_capacity(256);
    for (trace, meta) in snapshot.entries() {
        scratch.clear();
        wire::put_trace_record(&mut scratch, trace)?;
        wire::put_trace_meta(&mut scratch, &meta);
        wire::put_class_mix(&mut scratch, trace.mix);
        emit_frame(w, &scratch, compress, &mut checksum)?;
    }
    let mut trailer = Vec::with_capacity(20);
    wire::put_u32(&mut trailer, 0);
    wire::put_u64(&mut trailer, snapshot.traces.len() as u64);
    wire::put_u64(&mut trailer, checksum.finish());
    w.write_all(&trailer)?;
    Ok(())
}

/// Write one entry frame, compressing the payload when asked. The frame
/// checksum always covers the on-disk bytes, so damage to a compressed
/// stream is caught before decompression output reaches the parser.
pub(crate) fn emit_frame(
    w: &mut impl Write,
    raw: &[u8],
    compress_payload: bool,
    checksum: &mut FxHasher64,
) -> Result<()> {
    if compress_payload {
        let mut payload = Vec::with_capacity(raw.len() / 2 + 8);
        wire::put_u32(&mut payload, raw.len() as u32);
        payload.extend_from_slice(&compress::compress(raw));
        wire::write_frame(w, &payload, checksum)
    } else {
        wire::write_frame(w, raw, checksum)
    }
}

/// Read one entry frame, inverting [`emit_frame`]. Returns `None` at
/// the trailer marker.
pub(crate) fn next_frame(
    r: &mut impl Read,
    compressed: bool,
    checksum: &mut FxHasher64,
) -> Result<Option<Vec<u8>>> {
    let Some(frame) = wire::read_frame(r, checksum)? else {
        return Ok(None);
    };
    if !compressed {
        return Ok(Some(frame));
    }
    let mut slice = frame.as_slice();
    let raw_len = wire::get_u32(&mut slice)?;
    if raw_len > wire::MAX_FRAME {
        return Err(PersistError::Corrupt(format!(
            "compressed frame declares {raw_len} raw bytes, over the {} cap",
            wire::MAX_FRAME
        )));
    }
    Ok(Some(compress::decompress(slice, raw_len as usize)?))
}

/// Decode one entry frame's payload into record + provenance, with the
/// per-version field layout and the loader's named corruption errors.
pub(crate) fn decode_entry(
    frame: &[u8],
    version: u16,
    index: usize,
) -> Result<(TraceRecord, TraceMeta)> {
    // v2 frames hold the bare record; v3 frames append provenance; v4+
    // frames append the class mix after the provenance.
    let with_provenance = version >= 3;
    let with_mix = version >= 4;
    let mut slice = frame;
    let mut trace = wire::get_trace_record(&mut slice)?;
    let trace_meta = if with_provenance {
        wire::get_trace_meta(&mut slice).map_err(|_| {
            PersistError::Corrupt(format!(
                "trace {index} (pc={:#x}) is missing its provenance record",
                trace.start_pc
            ))
        })?
    } else {
        TraceMeta::default()
    };
    if with_mix {
        trace.mix = wire::get_class_mix(&mut slice).map_err(|e| match e {
            corrupt @ PersistError::Corrupt(_) => corrupt,
            _ => PersistError::Corrupt(format!(
                "trace {index} (pc={:#x}) is missing its class mix",
                trace.start_pc
            )),
        })?;
    }
    if !slice.is_empty() {
        return Err(PersistError::Corrupt(format!(
            "{} stray bytes after trace {index}",
            slice.len()
        )));
    }
    validate_record(index, &trace)?;
    Ok((trace, trace_meta))
}

/// Deserialize a snapshot from any reader (binary format). Rejects
/// delta segments with a named error; see [`load_snapshot_payload`].
pub fn read_snapshot(
    r: &mut impl Read,
    expected_fingerprint: Option<u64>,
) -> Result<(u64, RtmSnapshot)> {
    let header = Header::read_from(r)?;
    header.expect(KIND_RTM_SNAPSHOT, expected_fingerprint)?;
    if header.flags & FLAG_DELTA_SEGMENT != 0 {
        return Err(PersistError::Corrupt(
            "stream holds a delta segment, not a full snapshot; \
             load it with its base via load_merged_snapshots"
                .into(),
        ));
    }
    let snapshot = read_snapshot_body(r, &header)?;
    Ok((header.fingerprint, snapshot))
}

/// Parse a full snapshot's body, the header already consumed.
pub(crate) fn read_snapshot_body(r: &mut impl Read, header: &Header) -> Result<RtmSnapshot> {
    let compressed = header.flags & FLAG_COMPRESSED_FRAMES != 0;
    // v2–v5 preludes are 20 bytes; v6 appends the shape fingerprint.
    let mut prelude = [0u8; 28];
    let prelude = if header.version >= 6 {
        r.read_exact(&mut prelude)?;
        &prelude[..]
    } else {
        r.read_exact(&mut prelude[..20])?;
        &prelude[..20]
    };
    let mut cursor = prelude;
    let geometry = SetAssocGeometry {
        sets: wire::get_u32(&mut cursor)?,
        ways: wire::get_u32(&mut cursor)?,
        per_pc: wire::get_u32(&mut cursor)?,
    };
    validate_geometry(&geometry)?;
    let declared = wire::get_u64(&mut cursor)?;
    // Pre-v6 snapshots load as value-pinned.
    let shape = if header.version >= 6 {
        wire::get_u64(&mut cursor)?
    } else {
        0
    };
    let mut checksum = FxHasher64::new();
    checksum.write(prelude);
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
            "snapshot declared {declared} traces, trailer says {count}, file held {}",
            traces.len()
        )));
    }
    if stored_checksum != checksum.finish() {
        return Err(PersistError::Corrupt(
            "snapshot checksum mismatch (file is damaged)".into(),
        ));
    }
    Ok(RtmSnapshot {
        config: RtmConfig { geometry },
        traces,
        meta,
        shape,
    })
}

pub(crate) fn validate_geometry(g: &SetAssocGeometry) -> Result<()> {
    if !g.sets.is_power_of_two() || g.ways == 0 || g.per_pc == 0 {
        return Err(PersistError::Corrupt(format!(
            "invalid RTM geometry: {} sets x {} ways x {} per PC",
            g.sets, g.ways, g.per_pc
        )));
    }
    // Bound every dimension: a corrupt or hostile snapshot declaring e.g.
    // sets = 2^30 would otherwise pass the power-of-two check and trigger
    // a multi-GiB allocation in the RTM constructor on import.
    if g.sets > MAX_GEOMETRY_SETS
        || g.ways > MAX_GEOMETRY_WAYS
        || g.per_pc > MAX_GEOMETRY_PER_PC
        || g.capacity() > MAX_GEOMETRY_CAPACITY
    {
        return Err(PersistError::Corrupt(format!(
            "oversized RTM geometry: {} sets x {} ways x {} per PC \
             (limits: {MAX_GEOMETRY_SETS} x {MAX_GEOMETRY_WAYS} x {MAX_GEOMETRY_PER_PC}, \
             {MAX_GEOMETRY_CAPACITY} traces total)",
            g.sets, g.ways, g.per_pc
        )));
    }
    Ok(())
}

/// Re-check the invariants collection guarantees: at least one covered
/// instruction and live-in/live-out sets within [`SNAPSHOT_IO_CAPS`].
/// Without this a `len = 0` or cap-busting record from a damaged file
/// would enter the RTM and corrupt `pct_reused()` /
/// `avg_reused_trace_size()` accounting.
pub(crate) fn validate_record(index: usize, rec: &TraceRecord) -> Result<()> {
    if rec.len == 0 {
        return Err(PersistError::Corrupt(format!(
            "trace {index} (pc={:#x}) covers zero instructions",
            rec.start_pc
        )));
    }
    if !rec.within_caps(&SNAPSHOT_IO_CAPS) {
        return Err(PersistError::Corrupt(format!(
            "trace {index} (pc={:#x}) declares {} reg / {} mem live-ins and \
             {} reg / {} mem live-outs, over the load caps \
             ({} reg / {} mem per side)",
            rec.start_pc,
            rec.reg_ins(),
            rec.mem_ins(),
            rec.reg_outs(),
            rec.mem_outs(),
            SNAPSHOT_IO_CAPS.reg_in,
            SNAPSHOT_IO_CAPS.mem_in,
        )));
    }
    if rec.mix.total() > u64::from(rec.len) {
        return Err(PersistError::Corrupt(format!(
            "trace {index} (pc={:#x}) attributes {} instructions by class \
             but covers only {}",
            rec.start_pc,
            rec.mix.total(),
            rec.len
        )));
    }
    Ok(())
}

pub(crate) fn snapshot_to_json(fingerprint: u64, snapshot: &RtmSnapshot) -> Json {
    let geometry = snapshot.config.geometry;
    let mut geom = BTreeMap::new();
    geom.insert("sets".into(), Json::Num(geometry.sets as u64));
    geom.insert("ways".into(), Json::Num(geometry.ways as u64));
    geom.insert("per_pc".into(), Json::Num(geometry.per_pc as u64));

    let pairs = |items: &[(tlr_isa::Loc, u64)]| {
        Json::Arr(
            items
                .iter()
                .map(|(loc, val)| {
                    let (tag, n) = wire::loc_tag(*loc);
                    Json::Arr(vec![Json::Num(tag), Json::Num(n), Json::Num(*val)])
                })
                .collect(),
        )
    };
    let traces = snapshot
        .entries()
        .map(|(t, m)| {
            let mut obj = BTreeMap::new();
            obj.insert("start_pc".into(), Json::Num(t.start_pc as u64));
            obj.insert("next_pc".into(), Json::Num(t.next_pc as u64));
            obj.insert("len".into(), Json::Num(t.len as u64));
            obj.insert("ins".into(), pairs(&t.ins));
            obj.insert("outs".into(), pairs(&t.outs));
            let mut meta = BTreeMap::new();
            meta.insert("hits".into(), Json::Num(m.hits));
            meta.insert("last_use".into(), Json::Num(m.last_use));
            meta.insert("source_run".into(), Json::Num(m.source_run));
            obj.insert("meta".into(), Json::Obj(meta));
            obj.insert(
                "mix".into(),
                Json::Arr(
                    t.mix
                        .iter()
                        .map(|(_, count)| Json::Num(u64::from(count)))
                        .collect(),
                ),
            );
            Json::Obj(obj)
        })
        .collect();

    let mut doc = BTreeMap::new();
    doc.insert("format".into(), Json::Str(JSON_SNAPSHOT_FORMAT.into()));
    doc.insert("fingerprint".into(), Json::Num(fingerprint));
    doc.insert("geometry".into(), Json::Obj(geom));
    doc.insert("shape".into(), Json::Num(snapshot.shape));
    doc.insert("traces".into(), Json::Arr(traces));
    Json::Obj(doc)
}

fn snapshot_from_json(doc: &Json, expected_fingerprint: Option<u64>) -> Result<(u64, RtmSnapshot)> {
    if doc.opt_field("delta").is_some() {
        return Err(PersistError::Corrupt(
            "JSON document holds a delta segment, not a full snapshot; \
             load it with its base via load_merged_snapshots"
                .into(),
        ));
    }
    snapshot_from_json_core(doc, expected_fingerprint)
}

/// JSON snapshot parsing shared by full snapshots and delta segments
/// (which reuse the geometry/trace layout and add a `"delta"` object).
pub(crate) fn snapshot_from_json_core(
    doc: &Json,
    expected_fingerprint: Option<u64>,
) -> Result<(u64, RtmSnapshot)> {
    let format = doc.field("format")?.as_str("format")?;
    if format != JSON_SNAPSHOT_FORMAT {
        return Err(PersistError::Corrupt(format!(
            "\"format\" is {format:?}, expected {JSON_SNAPSHOT_FORMAT:?}"
        )));
    }
    let fingerprint = doc.field("fingerprint")?.as_u64("fingerprint")?;
    if let Some(expected) = expected_fingerprint {
        if fingerprint != expected {
            return Err(PersistError::FingerprintMismatch {
                found: fingerprint,
                expected,
            });
        }
    }
    let geom = doc.field("geometry")?;
    let geometry = SetAssocGeometry {
        sets: geom.field("sets")?.as_u32("sets")?,
        ways: geom.field("ways")?.as_u32("ways")?,
        per_pc: geom.field("per_pc")?.as_u32("per_pc")?,
    };
    validate_geometry(&geometry)?;
    // The shape fingerprint arrived with format v6; older JSON dumps
    // lack the field and load as value-pinned.
    let shape = match doc.opt_field("shape") {
        Some(s) => s.as_u64("shape")?,
        None => 0,
    };
    let mut traces = Vec::new();
    let mut meta = Vec::new();
    for (index, t) in doc.field("traces")?.as_arr("traces")?.iter().enumerate() {
        // The class mix arrived with format v4; older JSON dumps lack
        // the field and load as an empty (unattributed) mix.
        let mix = match t.opt_field("mix") {
            Some(m) => {
                let lanes = m.as_arr("mix")?;
                if lanes.len() != tlr_isa::OpClass::COUNT {
                    return Err(PersistError::Corrupt(format!(
                        "trace {index}: \"mix\" holds {} class counts; this ISA has {}",
                        lanes.len(),
                        tlr_isa::OpClass::COUNT
                    )));
                }
                let mut counts = [0u32; tlr_isa::OpClass::COUNT];
                for (lane, value) in counts.iter_mut().zip(lanes) {
                    *lane = value.as_u32("mix")?;
                }
                tlr_isa::ClassMix::from_counts(counts)
            }
            None => tlr_isa::ClassMix::EMPTY,
        };
        let trace = TraceRecord {
            start_pc: t.field("start_pc")?.as_u32("start_pc")?,
            next_pc: t.field("next_pc")?.as_u32("next_pc")?,
            len: t.field("len")?.as_u32("len")?,
            ins: json_pairs(t.field("ins")?, "ins")?.into_boxed_slice(),
            outs: json_pairs(t.field("outs")?, "outs")?.into_boxed_slice(),
            mix,
        };
        validate_record(index, &trace)?;
        // Provenance arrived with format v3; older JSON dumps lack the
        // field and load as zero provenance.
        let trace_meta = match t.opt_field("meta") {
            Some(m) => TraceMeta {
                hits: m.field("hits")?.as_u64("meta.hits")?,
                last_use: m.field("last_use")?.as_u64("meta.last_use")?,
                source_run: m.field("source_run")?.as_u64("meta.source_run")?,
            },
            None => TraceMeta::default(),
        };
        traces.push(trace);
        meta.push(trace_meta);
    }
    Ok((
        fingerprint,
        RtmSnapshot {
            config: RtmConfig { geometry },
            traces,
            meta,
            shape,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_core::LFU_HALF_LIFE;
    use tlr_isa::Loc;

    const LRU: ReplacementPolicy = ReplacementPolicy::Lru;

    fn sample_snapshot() -> RtmSnapshot {
        let mut snapshot = RtmSnapshot::from_traces(
            RtmConfig::RTM_512,
            (0..20)
                .map(|i| {
                    // Non-trivial, per-trace-distinct mix summing to `len`.
                    let mut counts = [0u32; tlr_isa::OpClass::COUNT];
                    counts[tlr_isa::OpClass::IntAlu.index()] = 3;
                    counts[tlr_isa::OpClass::ALL[(i % 11) as usize].index()] += 1;
                    TraceRecord {
                        start_pc: i,
                        next_pc: i + 4,
                        len: 4,
                        ins: vec![(Loc::IntReg(1), i as u64), (Loc::Mem(64 + i as u64), 7)]
                            .into_boxed_slice(),
                        outs: vec![(Loc::IntReg(2), i as u64 * 2)].into_boxed_slice(),
                        mix: tlr_isa::ClassMix::from_counts(counts),
                    }
                })
                .collect(),
        );
        // Non-trivial provenance, so roundtrips prove it is carried.
        for (i, m) in snapshot.meta.iter_mut().enumerate() {
            m.hits = i as u64 * 3;
            m.last_use = 1000 + i as u64;
            m.source_run = 0xabcd;
        }
        snapshot
    }

    /// `RtmSnapshot` equality ignores class mixes (trace identity
    /// excludes them), so roundtrip tests must compare them explicitly.
    fn assert_mixes_match(again: &RtmSnapshot, snapshot: &RtmSnapshot, tag: &str) {
        for (a, b) in again.traces.iter().zip(&snapshot.traces) {
            assert_eq!(a.mix, b.mix, "{tag}: class mix lost at pc={}", a.start_pc);
        }
        assert!(
            snapshot.traces.iter().any(|t| !t.mix.is_empty()),
            "{tag}: fixture must carry non-empty mixes"
        );
    }

    #[test]
    fn binary_roundtrip() {
        let snapshot = sample_snapshot();
        let mut buf = Vec::new();
        write_snapshot(&mut buf, 77, &snapshot).unwrap();
        let (fp, again) = read_snapshot(&mut buf.as_slice(), Some(77)).unwrap();
        assert_eq!(fp, 77);
        assert_eq!(again, snapshot);
        assert_mixes_match(&again, &snapshot, "binary");
    }

    #[test]
    fn json_roundtrip() {
        let snapshot = sample_snapshot();
        let doc = snapshot_to_json(5, &snapshot);
        let text = json::to_string_pretty(&doc);
        let (fp, again) = snapshot_from_json(&json::parse(&text).unwrap(), Some(5)).unwrap();
        assert_eq!(fp, 5);
        assert_eq!(again, snapshot);
        assert_mixes_match(&again, &snapshot, "json");
    }

    #[test]
    fn overclaiming_mix_rejected_both_formats() {
        let mut snapshot = sample_snapshot();
        let mut counts = [0u32; tlr_isa::OpClass::COUNT];
        counts[tlr_isa::OpClass::IntAlu.index()] = snapshot.traces[2].len + 1;
        snapshot.traces[2].mix = tlr_isa::ClassMix::from_counts(counts);
        let mut buf = Vec::new();
        write_snapshot(&mut buf, 0, &snapshot).unwrap();
        match read_snapshot(&mut buf.as_slice(), None) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("attributes"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let doc = snapshot_to_json(0, &snapshot);
        match snapshot_from_json(&json::parse(&json::to_string_pretty(&doc)).unwrap(), None) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("attributes"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn wrong_arity_json_mix_rejected() {
        let snapshot = sample_snapshot();
        let text = json::to_string_pretty(&snapshot_to_json(0, &snapshot));
        // Drop one lane from the first mix array: 11 counts become 10.
        let start = text.find("\"mix\"").expect("mix field present");
        let open = start + text[start..].find('[').unwrap();
        let close = open + text[open..].find(']').unwrap();
        let mut lanes: Vec<&str> = text[open + 1..close].split(',').collect();
        assert_eq!(lanes.len(), tlr_isa::OpClass::COUNT);
        lanes.pop();
        let bad = format!("{}[{}{}", &text[..open], lanes.join(","), &text[close..]);
        match snapshot_from_json(&json::parse(&bad).unwrap(), None) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("class counts"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_payload_rejected() {
        let mut buf = Vec::new();
        write_snapshot(&mut buf, 0, &sample_snapshot()).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 1;
        assert!(read_snapshot(&mut buf.as_slice(), None).is_err());
    }

    #[test]
    fn invalid_geometry_rejected() {
        let mut snapshot = sample_snapshot();
        snapshot.config.geometry.sets = 33; // not a power of two
        let mut buf = Vec::new();
        write_snapshot(&mut buf, 0, &snapshot).unwrap();
        match read_snapshot(&mut buf.as_slice(), None) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("geometry"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn oversized_geometry_rejected_both_formats() {
        // 2^30 sets is a power of two, so it passed the old validation
        // and would allocate gigabytes in the RTM constructor on import.
        let mut snapshot = sample_snapshot();
        snapshot.config.geometry.sets = 1 << 30;
        let mut buf = Vec::new();
        write_snapshot(&mut buf, 0, &snapshot).unwrap();
        match read_snapshot(&mut buf.as_slice(), None) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("oversized"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let doc = snapshot_to_json(0, &snapshot);
        match snapshot_from_json(&json::parse(&json::to_string_pretty(&doc)).unwrap(), None) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("oversized"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn zero_length_trace_rejected_both_formats() {
        let mut snapshot = sample_snapshot();
        snapshot.traces[3].len = 0;
        let mut buf = Vec::new();
        write_snapshot(&mut buf, 0, &snapshot).unwrap();
        match read_snapshot(&mut buf.as_slice(), None) {
            Err(PersistError::Corrupt(msg)) => {
                assert!(msg.contains("zero instructions"), "{msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let doc = snapshot_to_json(0, &snapshot);
        match snapshot_from_json(&json::parse(&json::to_string_pretty(&doc)).unwrap(), None) {
            Err(PersistError::Corrupt(msg)) => {
                assert!(msg.contains("zero instructions"), "{msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn cap_busting_io_lists_rejected_both_formats() {
        let mut snapshot = sample_snapshot();
        snapshot.traces[0].ins = (0..SNAPSHOT_IO_CAPS.mem_in as u64 + 1)
            .map(|i| (Loc::Mem(i * 8), i))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let mut buf = Vec::new();
        write_snapshot(&mut buf, 0, &snapshot).unwrap();
        match read_snapshot(&mut buf.as_slice(), None) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("load caps"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let doc = snapshot_to_json(0, &snapshot);
        match snapshot_from_json(&json::parse(&json::to_string_pretty(&doc)).unwrap(), None) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("load caps"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn peek_reads_fingerprint_without_loading() {
        let dir = std::env::temp_dir().join("tlr-snapshot-peek-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bin = dir.join("peek.tlrsnap");
        save_snapshot(&bin, 0xfeed, &sample_snapshot()).unwrap();
        assert_eq!(peek_snapshot_identity(&bin).unwrap().0, 0xfeed);
        let jsn = dir.join("peek.json");
        save_snapshot(&jsn, 0xbeef, &sample_snapshot()).unwrap();
        assert_eq!(peek_snapshot_identity(&jsn).unwrap().0, 0xbeef);
    }

    #[test]
    fn merged_load_pools_files_and_pins_fingerprint() {
        let dir = std::env::temp_dir().join("tlr-snapshot-merge-load-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.tlrsnap");
        let b = dir.join("b.tlrsnap");
        let mut snap_b = sample_snapshot();
        for t in snap_b.traces.iter_mut() {
            t.start_pc += 1000; // disjoint PCs: clean union
            t.next_pc += 1000;
        }
        save_snapshot(&a, 7, &sample_snapshot()).unwrap();
        save_snapshot(&b, 7, &snap_b).unwrap();

        let (fp, merged) = load_merged_snapshots(&[&a, &b], Some(7), LRU, LFU_HALF_LIFE).unwrap();
        assert_eq!(fp, 7);
        assert_eq!(merged.len(), 40);

        // A file from a different program is rejected even when the
        // caller did not pin a fingerprint: the first file pins it.
        save_snapshot(&b, 8, &snap_b).unwrap();
        assert!(matches!(
            load_merged_snapshots(&[&a, &b], None, LRU, LFU_HALF_LIFE),
            Err(PersistError::FingerprintMismatch {
                found: 8,
                expected: 7
            })
        ));
        let empty: &[&Path] = &[];
        assert!(matches!(
            load_merged_snapshots(empty, None, LRU, LFU_HALF_LIFE),
            Err(PersistError::Merge(tlr_core::MergeError::Empty))
        ));
    }

    #[test]
    fn kind_mismatch_rejected() {
        // A trace-stream header is not a snapshot.
        let mut buf = Vec::new();
        let w = crate::stream::TraceWriter::new(&mut buf, 3).unwrap();
        w.close().unwrap();
        assert!(matches!(
            read_snapshot(&mut buf.as_slice(), None),
            Err(PersistError::KindMismatch { .. })
        ));
    }
}
