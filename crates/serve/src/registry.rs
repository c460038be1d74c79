//! The sharded snapshot registry.
//!
//! Concurrency model: the fingerprint → path index is built at
//! [`SnapshotRegistry::open`] and changed only by
//! [`SnapshotRegistry::refresh`], [`SnapshotRegistry::spill`] and
//! [`SnapshotRegistry::compact`], which run one at a time, so it sits
//! behind an `RwLock` that is almost always read-locked; it is also the
//! one record of a program's files, from which spills read their next
//! delta number and delta count. Resident state lives in `N` shards,
//! each a `Mutex` over its own map; a fingerprint is pinned to one
//! shard by a remix of its bits, so fetches for different programs
//! contend only when they land on the same shard (1/N of the time).
//! Snapshot files are loaded and merged *outside* the shard lock — a
//! slow disk never stalls other programs on the shard — with a
//! double-check on insert so a racing loader's result is reused instead
//! of clobbered. The index lock and a shard lock are never held at the
//! same time.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::SystemTime;
use tlr_core::{ReplacementPolicy, RtmSnapshot};
use tlr_persist::snapshot::write_snapshot;
use tlr_persist::{
    base_file_name, commit_file, delta_file_name, delta_seq_from_path, diff_snapshots,
    group_digests, load_merged_snapshots, load_snapshot_payload, peek_snapshot_identity,
    save_delta_segment, save_snapshot_with, sync_dir, PersistError, SnapshotPayload,
};
use tlr_util::FxHashMap;

/// File extension the directory scan considers ([`SnapshotRegistry::open`]):
/// binary RTM snapshots only; JSON debug dumps are ignored.
pub const SNAPSHOT_FILE_EXT: &str = "tlrsnap";

/// Registry sizing and policy.
#[derive(Clone, Copy, Debug)]
pub struct RegistryConfig {
    /// Number of shards (one lock each). Use at least the expected
    /// number of concurrently serving threads.
    pub shards: usize,
    /// Resident programs a shard may hold before evicting its least
    /// recently fetched entry.
    pub max_resident_per_shard: usize,
    /// Replacement policy applied when pooling reuse state: both the
    /// merge-on-load of several snapshot files and every publish-back
    /// merge resolve capacity contention under this policy, ranking by
    /// the persisted per-trace provenance for the non-recency policies.
    pub policy: ReplacementPolicy,
    /// LFU aging half-life (ticks) used by every pooling merge when
    /// `policy` is [`ReplacementPolicy::Lfu`]; the other policies
    /// ignore it. Defaults to [`tlr_core::LFU_HALF_LIFE`].
    pub lfu_half_life: u64,
    /// Delta segments a fingerprint's files may hold before
    /// [`spill`](SnapshotRegistry::spill), having written one more,
    /// folds them all into a fresh base file (LSM level-0 style). The
    /// count is read off the index, so deltas other processes spilled
    /// and [`refresh`](SnapshotRegistry::refresh) indexed count too.
    /// Every file the registry writes is run-length compressed.
    pub compact_threshold: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            max_resident_per_shard: 64,
            policy: ReplacementPolicy::Lru,
            lfu_half_life: tlr_core::LFU_HALF_LIFE,
            compact_threshold: 8,
        }
    }
}

/// Per-entry behaviour counters and residency gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EntryStats {
    /// Fetches answered from the resident entry.
    pub hits: u64,
    /// Fetches that had to load from the snapshot directory.
    pub misses: u64,
    /// Publish-back merges applied to the resident entry.
    pub refreshes: u64,
    /// Traces resident for this program (gauge, read off the resident
    /// snapshot by [`SnapshotRegistry::entry_stats`]).
    pub resident_traces: u64,
    /// Hit-weighted residency: the sum of resident traces' provenance
    /// hit counts — how much *observed* reuse the resident state
    /// represents, not just how many traces it holds (gauge, read off
    /// the resident snapshot like `resident_traces`).
    pub resident_hits: u64,
    /// Image fetches answered from the cached serialized image.
    pub image_hits: u64,
    /// Serialized images built (first fetch after load/invalidation).
    pub image_builds: u64,
    /// Cached images dropped because the resident state changed
    /// (publish/refresh merge).
    pub image_invalidations: u64,
    /// Fetches answered by *shape resolution*: the exact fingerprint was
    /// unknown, but another program with the same shape fingerprint
    /// (same code, different data) had published state this entry was
    /// warm-started from.
    pub shape_hits: u64,
}

/// Registry-wide aggregates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Programs currently resident across all shards.
    pub resident: u64,
    /// Sum of per-entry hits (evicted entries included).
    pub hits: u64,
    /// Sum of per-entry misses (evicted entries included).
    pub misses: u64,
    /// Sum of per-entry refreshes (evicted entries included).
    pub refreshes: u64,
    /// Resident entries evicted by the LRU bound.
    pub evicted: u64,
    /// Fetches for fingerprints with no snapshot on disk.
    pub unknown: u64,
    /// Sum of per-entry image-cache hits (evicted entries included).
    pub image_hits: u64,
    /// Sum of per-entry image builds (evicted entries included).
    pub image_builds: u64,
    /// Sum of per-entry image invalidations (evicted entries included).
    pub image_invalidations: u64,
    /// Sum of per-entry shape-resolved fetches (evicted entries
    /// included): warm starts served to a data-varied client from
    /// another seed's published state.
    pub shape_hits: u64,
    /// Shape lookups that found same-shape donors but could not pool
    /// them (load or merge failure). Before these were counted, such a
    /// fetch was indistinguishable from an unknown program — the miss
    /// was silent.
    pub shape_rejects: u64,
}

/// What one [`SnapshotRegistry::refresh`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshOutcome {
    /// Snapshot files discovered and indexed this pass.
    pub new_files: u64,
    /// Resident entries that absorbed newly discovered files.
    pub refreshed: u64,
    /// Files with the snapshot extension that could not be indexed this
    /// pass (unreadable or mid-write); they are left unindexed and will
    /// be retried on the next refresh.
    pub skipped: u64,
    /// Known files whose (mtime, length) stamp matched the last scan —
    /// not re-read at all this pass.
    pub unchanged: u64,
}

/// How [`SnapshotRegistry::spill`] or [`SnapshotRegistry::compact`]
/// persisted an entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpillKind {
    /// Nothing to write: the program is not resident (spill), nothing
    /// changed since the last spill, or (compact) its files are already
    /// a lone base or none at all.
    #[default]
    NoChange,
    /// A full base file was written (the entry had no durable state to
    /// diff against).
    Base,
    /// A delta segment holding only changed PC groups was appended next
    /// to the base.
    Delta,
    /// The program's files were folded into a fresh base and the
    /// superseded files deleted: by a spill once its deltas reached
    /// [`RegistryConfig::compact_threshold`], or by
    /// [`SnapshotRegistry::compact`].
    Compacted,
}

/// What one [`SnapshotRegistry::spill`] or
/// [`SnapshotRegistry::compact`] call wrote.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpillOutcome {
    /// The kind of write performed.
    pub kind: SpillKind,
    /// Bytes this spill put on disk (0 for [`SpillKind::NoChange`]).
    pub bytes_written: u64,
    /// Changed PC groups a delta spill carried.
    pub delta_groups: u64,
    /// Emptied PC groups a delta spill tombstoned.
    pub tombstones: u64,
    /// Superseded files a compaction deleted.
    pub removed_files: u64,
    /// The file written, if any.
    pub path: Option<PathBuf>,
}

/// Why the registry could not serve.
#[derive(Debug)]
pub enum ServeError {
    /// A snapshot file failed to load, validate, or merge.
    Persist(PersistError),
    /// A published snapshot's geometry disagrees with the resident
    /// entry's.
    Merge(tlr_core::MergeError),
    /// A `tlrd` protocol exchange failed (see [`crate::proto`]).
    Proto(crate::proto::ProtoError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Persist(e) => write!(f, "{e}"),
            ServeError::Merge(e) => write!(f, "{e}"),
            ServeError::Proto(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Persist(e) => Some(e),
            ServeError::Merge(e) => Some(e),
            ServeError::Proto(e) => Some(e),
        }
    }
}

impl From<crate::proto::ProtoError> for ServeError {
    fn from(e: crate::proto::ProtoError) -> Self {
        ServeError::Proto(e)
    }
}

impl From<PersistError> for ServeError {
    fn from(e: PersistError) -> Self {
        ServeError::Persist(e)
    }
}

impl From<tlr_core::MergeError> for ServeError {
    fn from(e: tlr_core::MergeError) -> Self {
        ServeError::Merge(e)
    }
}

/// Per-PC-group digests of a state ([`group_digests`]).
type GroupDigests = BTreeMap<u32, u64>;

/// One resident program: its pooled reuse state, shared with engines,
/// and behaviour counters.
struct Entry {
    /// The resident reuse state, always a pooling merge's output and so
    /// canonical. Replaced, never mutated: pointer identity tells states
    /// apart.
    snap: Arc<RtmSnapshot>,
    /// Cached serialized snapshot file image of `snap`, built lazily by
    /// [`SnapshotRegistry::get_image`] and dropped whenever `snap` is
    /// replaced.
    image: Option<Arc<[u8]>>,
    /// Per-PC-group digests of the state the program's files load to;
    /// the next spill diffs `snap` against these. `None` until the
    /// entry has a durable representation (publish-born and
    /// shape-resolved entries before their first spill). Sequence
    /// numbers and delta counts are not kept here: the index's paths
    /// tell them.
    durable: Option<GroupDigests>,
    /// Lifetime counters; the residency gauges are read off `snap`.
    stats: EntryStats,
    /// Fetch-recency stamp for the shard's LRU bound.
    last_touch: u64,
}

impl Entry {
    fn new(snap: RtmSnapshot, stats: EntryStats, durable: Option<GroupDigests>) -> Self {
        Self {
            snap: Arc::new(snap),
            image: None,
            durable,
            stats,
            last_touch: 0,
        }
    }

    /// Count a fetch answered by this resident entry and hand out its
    /// state.
    fn hit(&mut self) -> Arc<RtmSnapshot> {
        self.stats.hits += 1;
        Arc::clone(&self.snap)
    }

    /// Drop the cached image because `snap` was replaced.
    fn invalidate_image(&mut self) {
        if self.image.take().is_some() {
            self.stats.image_invalidations += 1;
        }
    }
}

impl EntryStats {
    /// Add `other`'s lifetime counters (not its gauges) into `self`.
    fn add_counters(&mut self, other: &EntryStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.refreshes += other.refreshes;
        self.image_hits += other.image_hits;
        self.image_builds += other.image_builds;
        self.image_invalidations += other.image_invalidations;
        self.shape_hits += other.shape_hits;
    }
}

#[derive(Default)]
struct Shard {
    entries: FxHashMap<u64, Entry>,
    tick: u64,
    /// Stats of entries that were evicted, so aggregates never go
    /// backwards.
    retired: EntryStats,
}

impl Shard {
    fn touch(&mut self, fingerprint: u64) -> Option<&mut Entry> {
        self.tick += 1;
        let entry = self.entries.get_mut(&fingerprint)?;
        entry.last_touch = self.tick;
        Some(entry)
    }

    /// Enforce the LRU bound after an insert. Returns entries evicted.
    fn enforce_bound(&mut self, max_resident: usize) -> u64 {
        let mut evicted = 0;
        while self.entries.len() > max_resident.max(1) {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_touch)
                .map(|(fp, _)| *fp)
                .expect("len > 1, so a victim exists");
            if let Some(e) = self.entries.remove(&victim) {
                self.retired.add_counters(&e.stats);
            }
            evicted += 1;
        }
        evicted
    }
}

/// The (mtime, length) identity a refresh scan uses to tell whether a
/// known file changed without re-reading it.
type FileStamp = (SystemTime, u64);

/// Stat `path` into a [`FileStamp`]; `None` when the file vanished or
/// the filesystem reports no mtime (treated as "changed").
fn file_stamp(path: &Path) -> Option<FileStamp> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

/// Bytes a just-written file holds (0 if it cannot be stat'ed).
fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// The fingerprint → snapshot-file index, extended by refresh passes
/// and spills, pruned by folds.
#[derive(Default)]
struct Index {
    /// fingerprint → snapshot files of that program, in deterministic
    /// (sorted-path) order so merge MRU priority is stable.
    by_fingerprint: FxHashMap<u64, Vec<PathBuf>>,
    /// shape fingerprint → value fingerprints of programs whose
    /// snapshots carry that shape (v6+ files only). Shape 0
    /// (value-pinned) is never indexed.
    by_shape: FxHashMap<u64, Vec<u64>>,
    /// Every indexed path with its last-seen (mtime, length) stamp, so
    /// a refresh scan tells new files (absent) from known ones and
    /// skips those whose stamp is unchanged (`None`: no stamp, treated
    /// as changed).
    stamps: FxHashMap<PathBuf, Option<FileStamp>>,
}

impl Index {
    /// Index `path` under `fingerprint` (idempotent), record its
    /// current stamp, and — when the file carries a nonzero `shape` —
    /// register the fingerprint under that shape for cross-seed
    /// resolution.
    fn add(&mut self, fingerprint: u64, shape: u64, path: PathBuf) {
        let paths = self.by_fingerprint.entry(fingerprint).or_default();
        if !paths.contains(&path) {
            paths.push(path.clone());
            paths.sort();
        }
        let stamp = file_stamp(&path);
        self.stamps.insert(path, stamp);
        self.add_shape(fingerprint, shape);
    }

    /// Register `fingerprint` under a nonzero shape (idempotent, sorted
    /// for deterministic donor order).
    fn add_shape(&mut self, fingerprint: u64, shape: u64) {
        if shape == 0 {
            return;
        }
        let fps = self.by_shape.entry(shape).or_default();
        if !fps.contains(&fingerprint) {
            fps.push(fingerprint);
            fps.sort_unstable();
        }
    }

    /// Value fingerprints sharing `shape`, excluding `not` (the asking
    /// program itself).
    fn shape_donors(&self, shape: u64, not: u64) -> Vec<u64> {
        if shape == 0 {
            return Vec::new();
        }
        self.by_shape
            .get(&shape)
            .map(|fps| fps.iter().copied().filter(|fp| *fp != not).collect())
            .unwrap_or_default()
    }

    /// Drop `path` from the index (a fold deleted it, or it vanished),
    /// and the fingerprint with its last file.
    fn forget(&mut self, fingerprint: u64, path: &Path) {
        if let Some(paths) = self.by_fingerprint.get_mut(&fingerprint) {
            paths.retain(|p| p != path);
            if paths.is_empty() {
                self.by_fingerprint.remove(&fingerprint);
            }
        }
        self.stamps.remove(path);
    }
}

/// A concurrent, sharded cache of pooled reuse state keyed by program
/// fingerprint, backed by a directory of `.tlrsnap` files. See the
/// crate docs for the full model.
pub struct SnapshotRegistry {
    config: RegistryConfig,
    /// The snapshot directory, rescanned by [`SnapshotRegistry::refresh`].
    dir: PathBuf,
    index: RwLock<Index>,
    /// Serializes [`SnapshotRegistry::refresh`] passes (see its docs).
    refresh_serial: Mutex<()>,
    shards: Vec<Mutex<Shard>>,
    evicted: AtomicU64,
    unknown: AtomicU64,
    /// Shape lookups that found same-shape donors but failed to pool
    /// them (see [`RegistryStats::shape_rejects`]).
    shape_rejects: AtomicU64,
}

/// Scan `dir` for snapshot files, sorted for deterministic merge order.
fn scan_snapshot_files(dir: &Path) -> Result<Vec<PathBuf>, ServeError> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(PersistError::from)?
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(PersistError::from)?
        .into_iter()
        .map(|entry| entry.path())
        .filter(|p| {
            p.is_file()
                && p.extension()
                    .and_then(|e| e.to_str())
                    .is_some_and(|e| e.eq_ignore_ascii_case(SNAPSHOT_FILE_EXT))
        })
        .collect();
    paths.sort();
    Ok(paths)
}

impl SnapshotRegistry {
    /// Build a registry over `dir`: every `*.tlrsnap` file is indexed
    /// by the fingerprint in its header (a 16-byte read per file; no
    /// traces are deserialized until a program is actually fetched).
    /// Several files may carry the same fingerprint — they are merged
    /// at first fetch. Non-snapshot extensions are ignored; a file with
    /// the snapshot extension but an invalid header is a hard error.
    pub fn open(dir: &Path, config: RegistryConfig) -> Result<Self, ServeError> {
        let mut index = Index::default();
        for path in scan_snapshot_files(dir)? {
            let (fingerprint, shape) = peek_snapshot_identity(&path)?;
            index.add(fingerprint, shape, path);
        }
        Ok(Self {
            shards: (0..config.shards.max(1))
                .map(|_| Mutex::default())
                .collect(),
            config,
            dir: dir.to_path_buf(),
            index: RwLock::new(index),
            refresh_serial: Mutex::new(()),
            evicted: AtomicU64::new(0),
            unknown: AtomicU64::new(0),
            shape_rejects: AtomicU64::new(0),
        })
    }

    /// The snapshot directory this registry was opened over.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Fingerprints the snapshot directory holds state for (sorted).
    pub fn fingerprints(&self) -> Vec<u64> {
        let index = self.index.read().unwrap();
        let mut fps: Vec<u64> = index.by_fingerprint.keys().copied().collect();
        fps.sort_unstable();
        fps
    }

    /// Snapshot files indexed for `fingerprint`.
    pub fn paths(&self, fingerprint: u64) -> Vec<PathBuf> {
        self.index
            .read()
            .unwrap()
            .by_fingerprint
            .get(&fingerprint)
            .cloned()
            .unwrap_or_default()
    }

    /// Rescan the snapshot directory for files that appeared (or
    /// changed) after [`open`](SnapshotRegistry::open) or the last
    /// refresh: new and changed files are validated, indexed, and any
    /// whose program is currently *resident* are merged into the
    /// resident entry immediately — so a long-lived registry (or a
    /// `tlrd` daemon) picks up snapshots other processes drop into the
    /// directory without a restart. Known files whose (mtime, length)
    /// stamp matches the previous scan are counted as `unchanged` and
    /// not re-read at all. Delta segments contribute their changed
    /// groups (an absorb merge can only add state; tombstones matter
    /// only to the merge-on-load path). Indexed files that vanished —
    /// another process folded the directory — are unindexed first, so
    /// a later load does not open them; resident entries keep their
    /// state.
    ///
    /// Ordering is deliberate, per file: a new file is **fully loaded
    /// and validated before it is indexed**, so an unreadable,
    /// mid-write, or damaged file is skipped (and counted) this pass
    /// and retried on the next one instead of poisoning later fetches;
    /// and a resident entry absorbs the new state **before** the file
    /// becomes visible to [`get`](SnapshotRegistry::get), so a racing
    /// fetch can never load a file that is then merged a second time.
    /// Refresh passes are serialized against each other for the same
    /// reason.
    pub fn refresh(&self) -> Result<RefreshOutcome, ServeError> {
        let _pass = self.refresh_serial.lock().unwrap();
        let on_disk = scan_snapshot_files(&self.dir)?;
        self.forget_vanished(&on_disk);
        let mut outcome = RefreshOutcome::default();
        // Partition the scan against the index: unseen paths, known
        // paths whose stamp moved, and stamp-stable paths (skipped
        // without a read).
        let (new_paths, changed_paths) = {
            let index = self.index.read().unwrap();
            let mut new_paths = Vec::new();
            let mut changed_paths = Vec::new();
            for path in on_disk {
                match index.stamps.get(&path) {
                    None => new_paths.push(path),
                    Some(Some(known)) if file_stamp(&path) == Some(*known) => {
                        outcome.unchanged += 1;
                    }
                    Some(_) => changed_paths.push(path),
                }
            }
            (new_paths, changed_paths)
        };
        if new_paths.is_empty() && changed_paths.is_empty() {
            return Ok(outcome);
        }
        // Validation loads happen outside every lock: disk latency must
        // not stall index readers or the shards.
        let mut discovered: FxHashMap<u64, Vec<(PathBuf, RtmSnapshot, bool)>> =
            FxHashMap::default();
        for (path, known) in new_paths
            .into_iter()
            .map(|p| (p, false))
            .chain(changed_paths.into_iter().map(|p| (p, true)))
        {
            match load_snapshot_payload(&path, None) {
                Ok((fingerprint, SnapshotPayload::Full(snapshot))) => discovered
                    .entry(fingerprint)
                    .or_default()
                    .push((path, snapshot, known)),
                Ok((fingerprint, SnapshotPayload::Delta(delta))) => {
                    let partial = RtmSnapshot {
                        config: delta.config,
                        traces: delta.traces,
                        meta: delta.meta,
                        shape: 0,
                    };
                    discovered
                        .entry(fingerprint)
                        .or_default()
                        .push((path, partial, known));
                }
                Err(_) => outcome.skipped += 1,
            }
        }
        // Per fingerprint: pool the new state, fold it into the
        // resident entry if there is one, then (and only then) index
        // and stamp — a load error leaves a changed file's old stamp in
        // place so it is retried. A failure affects its own fingerprint
        // only; the first one is reported after every other fingerprint
        // has been processed.
        let mut first_err: Option<ServeError> = None;
        for (fingerprint, entries) in discovered {
            let mut paths_known = Vec::with_capacity(entries.len());
            let mut snapshots = Vec::with_capacity(entries.len());
            for (path, snapshot, known) in entries {
                paths_known.push((path, snapshot.shape, known));
                snapshots.push(snapshot);
            }
            let pooled = match self.pool(&snapshots) {
                Ok(pooled) => pooled,
                Err(e) => {
                    outcome.skipped += paths_known.len() as u64;
                    first_err.get_or_insert(e.into());
                    continue;
                }
            };
            match self.merge_into_resident(fingerprint, &pooled) {
                Ok(true) => outcome.refreshed += 1,
                Ok(false) => {}
                Err(e) => {
                    outcome.skipped += paths_known.len() as u64;
                    first_err.get_or_insert(e);
                    continue;
                }
            }
            let mut index = self.index.write().unwrap();
            for (path, shape, known) in paths_known {
                index.add(fingerprint, shape, path);
                if !known {
                    outcome.new_files += 1;
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(outcome),
        }
    }

    /// Unindex every indexed file missing from `on_disk` (sorted), so
    /// a load never opens a file another process folded away; a
    /// fingerprint left with no files is dropped. Resident entries keep
    /// their state.
    fn forget_vanished(&self, on_disk: &[PathBuf]) {
        let vanished: Vec<(u64, PathBuf)> = {
            let index = self.index.read().unwrap();
            index
                .by_fingerprint
                .iter()
                .flat_map(|(fp, paths)| paths.iter().map(move |p| (*fp, p)))
                .filter(|(_, p)| on_disk.binary_search(p).is_err())
                .map(|(fp, p)| (fp, p.clone()))
                .collect()
        };
        if vanished.is_empty() {
            return;
        }
        let mut index = self.index.write().unwrap();
        for (fingerprint, path) in &vanished {
            index.forget(*fingerprint, path);
        }
    }

    /// Pool several snapshots under the registry's policy and LFU
    /// half-life — the one merge rule every path (load, refresh,
    /// publish, shape resolution) shares, and the only way resident
    /// state is made.
    fn pool<S: Borrow<RtmSnapshot>>(
        &self,
        snapshots: &[S],
    ) -> Result<RtmSnapshot, tlr_core::MergeError> {
        Ok(
            RtmSnapshot::merge_detailed(snapshots, self.config.policy, self.config.lfu_half_life)?
                .snapshot,
        )
    }

    /// Install `fresh`, built outside the shard lock, as `fingerprint`'s
    /// resident entry — the one insert path `get`, `get_by_shape` and
    /// `publish` share. If a racing caller installed one first, `fresh`
    /// is dropped and `resident` is applied to that entry instead.
    /// Returns `None` when `fresh` was installed.
    fn install<R>(
        &self,
        fingerprint: u64,
        mut fresh: Entry,
        resident: impl FnOnce(&mut Entry) -> R,
    ) -> Option<R> {
        let mut shard = self.shard_of(fingerprint).lock().unwrap();
        if let Some(entry) = shard.touch(fingerprint) {
            return Some(resident(entry));
        }
        shard.tick += 1;
        fresh.last_touch = shard.tick;
        shard.entries.insert(fingerprint, fresh);
        let evicted = shard.enforce_bound(self.config.max_resident_per_shard);
        drop(shard);
        if evicted > 0 {
            self.evicted.fetch_add(evicted, Ordering::Relaxed);
        }
        None
    }

    fn shard_of(&self, fingerprint: u64) -> &Mutex<Shard> {
        // The fingerprint is already a hash; remix so shard choice does
        // not depend on its low bits alone.
        let mixed = (fingerprint ^ (fingerprint >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> 32) as usize % self.shards.len()]
    }

    /// The warm reuse state for `fingerprint`: the resident entry on a
    /// hit — whether it became resident via a disk load or via
    /// [`publish`](SnapshotRegistry::publish) — otherwise loaded (and,
    /// when several files exist, merged) from the snapshot directory.
    /// `Ok(None)` when the program is neither resident nor on disk —
    /// the caller runs cold.
    ///
    /// The returned [`RtmSnapshot`] is shared (`Arc`) and immutable;
    /// feed it to [`tlr_core::TraceReuseEngine::new_warm`].
    pub fn get(&self, fingerprint: u64) -> Result<Option<Arc<RtmSnapshot>>, ServeError> {
        // Resident state first: a program that only ever arrived via
        // publish-back has no snapshot file but must still be served.
        {
            let mut shard = self.shard_of(fingerprint).lock().unwrap();
            if let Some(entry) = shard.touch(fingerprint) {
                return Ok(Some(entry.hit()));
            }
        }
        let Some(loaded) = self.load(fingerprint)? else {
            self.unknown.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        };
        let snap = Arc::clone(&loaded.snap);
        // A racing fetch may have resolved the miss first; then its
        // entry serves.
        let raced = self.install(fingerprint, loaded, Entry::hit);
        Ok(Some(raced.unwrap_or(snap)))
    }

    /// Load and merge `fingerprint`'s snapshot files, outside every
    /// lock and under the configured policy, into an entry counting one
    /// miss; `None` when the program has no files. The loaded state
    /// *is* the durable state, so its digests seed the entry's spills:
    /// the first publish-back spills a delta against these files
    /// instead of a full rewrite.
    fn load(&self, fingerprint: u64) -> Result<Option<Entry>, ServeError> {
        let paths = self.paths(fingerprint);
        if paths.is_empty() {
            return Ok(None);
        }
        let (_, merged) = load_merged_snapshots(
            &paths,
            Some(fingerprint),
            self.config.policy,
            self.config.lfu_half_life,
        )?;
        let durable = group_digests(&merged)?;
        let stats = EntryStats {
            misses: 1,
            ..EntryStats::default()
        };
        Ok(Some(Entry::new(merged, stats, Some(durable))))
    }

    /// [`get`](SnapshotRegistry::get), falling back to *shape
    /// resolution* when the exact fingerprint is unknown: programs
    /// whose published snapshots carry the same nonzero `shape`
    /// fingerprint (same code, different data image) donate their warm
    /// state, pooled under the registry's policy and installed as a
    /// resident entry under `fingerprint`. The shared traces are only
    /// *candidates* — the RTM's live-in value comparison validates
    /// every reuse at fetch time, so a donor's data-dependent traces
    /// can never corrupt the client's run.
    ///
    /// `Ok(None)` when neither the fingerprint nor any same-shape donor
    /// resolves. Donors that exist but fail to load or pool are not a
    /// silent miss: each such fetch is logged, counted in
    /// [`RegistryStats::shape_rejects`], and still returns `Ok(None)`.
    pub fn get_by_shape(
        &self,
        fingerprint: u64,
        shape: u64,
    ) -> Result<Option<Arc<RtmSnapshot>>, ServeError> {
        if let Some(snap) = self.get(fingerprint)? {
            return Ok(Some(snap));
        }
        if shape == 0 {
            return Ok(None);
        }
        let donors = self.index.read().unwrap().shape_donors(shape, fingerprint);
        if donors.is_empty() {
            return Ok(None);
        }
        // Pool every donor's warm state (resident or disk-loaded) under
        // the registry's policy. A donor that fails to load or a pool
        // that fails to merge is a *shape reject* — the fetch falls
        // back to cold, but visibly.
        let mut pooled_inputs = Vec::with_capacity(donors.len());
        for donor in &donors {
            match self.get(*donor) {
                Ok(Some(snap)) => pooled_inputs.push(snap),
                Ok(None) => {}
                Err(e) => {
                    eprintln!(
                        "tlr-serve: shape {shape:#018x} donor {donor:#018x} \
                         failed to load for {fingerprint:#018x}: {e}"
                    );
                    self.shape_rejects.fetch_add(1, Ordering::Relaxed);
                    return Ok(None);
                }
            }
        }
        if pooled_inputs.is_empty() {
            eprintln!(
                "tlr-serve: shape {shape:#018x} has {} indexed donor(s) for \
                 {fingerprint:#018x} but none produced warm state",
                donors.len()
            );
            self.shape_rejects.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        let mut merged = match self.pool(&pooled_inputs) {
            Ok(merged) => merged,
            Err(e) => {
                eprintln!(
                    "tlr-serve: shape {shape:#018x} donors failed to pool for \
                     {fingerprint:#018x}: {e}"
                );
                self.shape_rejects.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
        };
        merged.shape = shape;
        // Install under the *client's* fingerprint so its own
        // publish-backs land on this entry. No spill seeding: the donor
        // files belong to the donors, and this entry's first spill must
        // write its own base.
        let entry = Entry::new(
            merged,
            EntryStats {
                misses: 1,
                shape_hits: 1,
                ..EntryStats::default()
            },
            None,
        );
        let snap = Arc::clone(&entry.snap);
        self.index.write().unwrap().add_shape(fingerprint, shape);
        let raced = self.install(fingerprint, entry, Entry::hit);
        Ok(Some(raced.unwrap_or(snap)))
    }

    /// The serialized snapshot file image for `fingerprint` — the exact
    /// bytes [`tlr_persist::save_snapshot`] would write, and what the
    /// `tlrd` `Snapshot` reply embeds — from a per-entry cache, so
    /// repeated fetches share one immutable buffer instead of
    /// re-serializing the resident state per call. The image is built
    /// at most once per resident state: publish/refresh merges
    /// invalidate it, and an image serialized outside the lock is cached
    /// only if the entry still holds the very state it encoded.
    /// `Ok(None)` mirrors [`get`](SnapshotRegistry::get).
    pub fn get_image(&self, fingerprint: u64) -> Result<Option<Arc<[u8]>>, ServeError> {
        let mut counted = false;
        loop {
            let staged = {
                let mut shard = self.shard_of(fingerprint).lock().unwrap();
                match shard.touch(fingerprint) {
                    Some(entry) => {
                        if !counted {
                            entry.stats.hits += 1;
                            counted = true;
                        }
                        if let Some(image) = &entry.image {
                            entry.stats.image_hits += 1;
                            return Ok(Some(Arc::clone(image)));
                        }
                        Some(Arc::clone(&entry.snap))
                    }
                    None => None,
                }
            };
            let Some(snap) = staged else {
                // Not resident: run the ordinary load-or-unknown path
                // (which does its own hit/miss accounting), then retry
                // the image build against the now-resident entry.
                if self.get(fingerprint)?.is_none() {
                    return Ok(None);
                }
                counted = true;
                continue;
            };
            // Serialize outside the shard lock — a large snapshot must
            // not stall other fetches on this shard.
            let mut bytes = Vec::with_capacity(64 + snap.len() * 64);
            write_snapshot(&mut bytes, fingerprint, &snap)?;
            let image: Arc<[u8]> = bytes.into();
            let mut shard = self.shard_of(fingerprint).lock().unwrap();
            match shard.entries.get_mut(&fingerprint) {
                // `snap` is still alive, so its address cannot belong to
                // any other state: pointer identity is exact.
                Some(entry) if Arc::ptr_eq(&entry.snap, &snap) => {
                    entry.image = Some(Arc::clone(&image));
                    entry.stats.image_builds += 1;
                    return Ok(Some(image));
                }
                // The state moved while we serialized; rebuild.
                Some(_) => continue,
                // Evicted while we serialized: the bytes are still the
                // right answer, just not cacheable.
                None => return Ok(Some(image)),
            }
        }
    }

    /// Persist the resident entry for `fingerprint` incrementally:
    /// the first spill of a publish-born entry writes a full base
    /// file; later spills diff the resident state against the
    /// per-group digests of what is already durable and append a
    /// delta segment carrying only changed groups (plus tombstones
    /// for emptied ones), numbered one past the highest delta the index
    /// holds for the program. Once the program's deltas reach
    /// [`RegistryConfig::compact_threshold`], the spill that wrote the
    /// last one folds the files into a fresh base and deletes the
    /// superseded ones, as [`compact`](SnapshotRegistry::compact) does
    /// (LSM level-0 style). An entry loaded from disk seeds its
    /// digests from the loaded state, so its first spill is already a
    /// delta. No-ops (with [`SpillKind::NoChange`]) when the program is
    /// not resident or nothing changed.
    ///
    /// Spills serialize against [`refresh`](SnapshotRegistry::refresh)
    /// passes, so a spilled file is always indexed and stamped before a
    /// scan can see it — the registry never re-absorbs its own spill.
    pub fn spill(&self, fingerprint: u64) -> Result<SpillOutcome, ServeError> {
        let _pass = self.refresh_serial.lock().unwrap();
        self.spill_serial(fingerprint)
    }

    /// Fold `fingerprint`'s snapshot files into one fresh base file
    /// holding the program's pooled state — the resident entry's, else
    /// what [`get`](SnapshotRegistry::get) loads — and delete every
    /// other file of the program. A resident entry's unspilled changes
    /// are spilled first, so the fold covers durable state only: the
    /// new base equals the old base ⊕ its deltas group for group, and
    /// for a base + delta layout a crash at any point loads as the old
    /// state or the new one (other full files pool with the new base
    /// until they are deleted).
    /// `tlrsim compact` runs this for every program of a directory.
    /// Returns [`SpillKind::NoChange`] when the program has no files or
    /// only its base (and nothing unspilled).
    pub fn compact(&self, fingerprint: u64) -> Result<SpillOutcome, ServeError> {
        let _pass = self.refresh_serial.lock().unwrap();
        let spilled = self.spill_serial(fingerprint)?;
        let base = self.dir.join(base_file_name(fingerprint));
        if self.paths(fingerprint).iter().all(|p| *p == base) {
            return Ok(spilled);
        }
        let snap = match self.resident(fingerprint) {
            Some((snap, _)) => snap,
            None => match self.get(fingerprint)? {
                Some(snap) => snap,
                None => return Ok(spilled),
            },
        };
        let folded = self.fold(fingerprint, &snap, SpillKind::Compacted)?;
        Ok(SpillOutcome {
            bytes_written: spilled.bytes_written + folded.bytes_written,
            ..folded
        })
    }

    /// `fingerprint`'s resident state and durable digests, without
    /// counting a fetch.
    fn resident(&self, fingerprint: u64) -> Option<(Arc<RtmSnapshot>, Option<GroupDigests>)> {
        let shard = self.shard_of(fingerprint).lock().unwrap();
        let entry = shard.entries.get(&fingerprint)?;
        Some((Arc::clone(&entry.snap), entry.durable.clone()))
    }

    /// [`spill`](SnapshotRegistry::spill) with `refresh_serial` held,
    /// which keeps the index's paths for the program current.
    fn spill_serial(&self, fingerprint: u64) -> Result<SpillOutcome, ServeError> {
        let Some((snap, durable)) = self.resident(fingerprint) else {
            return Ok(SpillOutcome::default());
        };
        let Some(durable) = durable else {
            // First durable representation: a full base file.
            let groups = group_digests(&snap)?;
            let outcome = self.fold(fingerprint, &snap, SpillKind::Base)?;
            self.set_durable(fingerprint, groups);
            return Ok(outcome);
        };
        let (deltas, last_seq) = self
            .paths(fingerprint)
            .iter()
            .filter_map(|p| delta_seq_from_path(p))
            .fold((0, 0), |(n, last), seq| (n + 1, last.max(seq)));
        let (delta, groups) = diff_snapshots(&durable, &snap, last_seq + 1)?;
        if delta.is_empty() {
            return Ok(SpillOutcome::default());
        }
        let path = self.dir.join(delta_file_name(fingerprint, delta.seq));
        let tmp = path.with_extension("tmp");
        save_delta_segment(&tmp, fingerprint, &delta, true)?;
        commit_file(&tmp, &path)?;
        // Delta segments carry no shape; the fingerprint's shape mapping
        // (if any) was recorded when its base was indexed.
        self.index
            .write()
            .unwrap()
            .add(fingerprint, 0, path.clone());
        self.set_durable(fingerprint, groups);
        let bytes = file_len(&path);
        if deltas + 1 >= self.config.compact_threshold.max(1) {
            let folded = self.fold(fingerprint, &snap, SpillKind::Compacted)?;
            return Ok(SpillOutcome {
                bytes_written: bytes + folded.bytes_written,
                ..folded
            });
        }
        Ok(SpillOutcome {
            kind: SpillKind::Delta,
            bytes_written: bytes,
            delta_groups: delta
                .traces
                .iter()
                .map(|t| t.start_pc)
                .collect::<std::collections::BTreeSet<u32>>()
                .len() as u64,
            tombstones: delta.tombstones.len() as u64,
            path: Some(path),
            ..SpillOutcome::default()
        })
    }

    /// The one writer of base files: commit `snap` as `fingerprint`'s
    /// base through a temp file (a concurrent reader never sees a
    /// half-written snapshot), then unindex and delete every other file
    /// of the program and sync the directory. Caller holds
    /// `refresh_serial`.
    fn fold(
        &self,
        fingerprint: u64,
        snap: &RtmSnapshot,
        kind: SpillKind,
    ) -> Result<SpillOutcome, ServeError> {
        let base = self.dir.join(base_file_name(fingerprint));
        let tmp = base.with_extension("tmp");
        save_snapshot_with(&tmp, fingerprint, snap, true)?;
        commit_file(&tmp, &base)?;
        let mut superseded: Vec<PathBuf> = self
            .paths(fingerprint)
            .into_iter()
            .filter(|p| *p != base)
            .collect();
        // Full files first, then deltas in ascending sequence: a crash
        // mid-way leaves the new base plus a suffix of its deltas, which
        // replays over it as a no-op.
        superseded.sort_by_key(|p| delta_seq_from_path(p));
        {
            let mut index = self.index.write().unwrap();
            for path in &superseded {
                index.forget(fingerprint, path);
            }
            index.add(fingerprint, snap.shape, base.clone());
        }
        // Unindexed first, deleted second: a racing fetch can no longer
        // pick up a path that is about to vanish.
        let mut removed = 0;
        for path in &superseded {
            if std::fs::remove_file(path).is_ok() {
                removed += 1;
            }
        }
        // A deleted delta that came back after a crash would replay its
        // stale groups over the new base.
        sync_dir(&self.dir)?;
        Ok(SpillOutcome {
            kind,
            bytes_written: file_len(&base),
            removed_files: removed,
            path: Some(base),
            ..SpillOutcome::default()
        })
    }

    /// Record that `fingerprint`'s files now load to the state with
    /// these digests, if it is still resident (a concurrent eviction
    /// simply drops them — the next load reseeds them from disk, which
    /// now includes the spill).
    fn set_durable(&self, fingerprint: u64, groups: GroupDigests) {
        let mut shard = self.shard_of(fingerprint).lock().unwrap();
        if let Some(entry) = shard.entries.get_mut(&fingerprint) {
            entry.durable = Some(groups);
        }
    }

    /// Merge `snapshot` into an already-locked resident `entry` under
    /// the registry policy, replacing its state. A geometry mismatch is
    /// the merge's own error and leaves the entry as it was.
    fn merge_into_entry(
        &self,
        entry: &mut Entry,
        snapshot: &RtmSnapshot,
    ) -> Result<(), ServeError> {
        // The proper interleaved union, not a sequential replay: a
        // near-capacity publish must not wholesale-evict the pooled
        // hot state of every prior run. The configured policy
        // decides what survives contention.
        entry.snap = Arc::new(self.pool(&[&*entry.snap, snapshot])?);
        entry.invalidate_image();
        entry.stats.refreshes += 1;
        Ok(())
    }

    /// Merge `snapshot` into the resident entry for `fingerprint`, if
    /// one exists. Returns whether the program was resident. Shared by
    /// [`publish`](SnapshotRegistry::publish) and
    /// [`refresh`](SnapshotRegistry::refresh).
    fn merge_into_resident(
        &self,
        fingerprint: u64,
        snapshot: &RtmSnapshot,
    ) -> Result<bool, ServeError> {
        let mut shard = self.shard_of(fingerprint).lock().unwrap();
        let Some(entry) = shard.touch(fingerprint) else {
            return Ok(false);
        };
        self.merge_into_entry(entry, snapshot)?;
        Ok(true)
    }

    /// Contribute a finished run's RTM export back to the registry:
    /// merged into the resident entry, so the *next* fetch serves the
    /// pooled state of every run so far. A program that is not resident
    /// but has snapshot files is loaded first (one miss, as
    /// [`get`](SnapshotRegistry::get) would), so the publish adds to its
    /// durable state instead of hiding it; a program with no files gets
    /// a new entry pooled from `snapshot` alone, so what it serves is
    /// canonical even when the client's snapshot is not (say, it repeats
    /// a record). Publishing changes resident state only;
    /// [`spill`](SnapshotRegistry::spill) writes it to the snapshot
    /// directory.
    pub fn publish(&self, fingerprint: u64, snapshot: &RtmSnapshot) -> Result<(), ServeError> {
        // Record the shape mapping first (index lock and shard lock are
        // never held together), so a later `get_by_shape` from a
        // data-varied client can discover this entry as a donor.
        if snapshot.shape != 0 {
            self.index
                .write()
                .unwrap()
                .add_shape(fingerprint, snapshot.shape);
        }
        if self.merge_into_resident(fingerprint, snapshot)? {
            return Ok(());
        }
        let entry = match self.load(fingerprint)? {
            Some(mut loaded) => {
                self.merge_into_entry(&mut loaded, snapshot)?;
                loaded
            }
            // No durable representation yet: the first spill writes a
            // full base file.
            None => Entry::new(
                self.pool(&[snapshot])?,
                EntryStats {
                    refreshes: 1,
                    ..EntryStats::default()
                },
                None,
            ),
        };
        // A racing publish or fetch may have installed the program
        // first; then this snapshot merges into that entry.
        self.install(fingerprint, entry, |resident| {
            self.merge_into_entry(resident, snapshot)
        })
        .unwrap_or(Ok(()))
    }

    /// Behaviour counters and residency gauges for one resident
    /// program, `None` if it is not (or no longer) resident.
    pub fn entry_stats(&self, fingerprint: u64) -> Option<EntryStats> {
        let shard = self.shard_of(fingerprint).lock().unwrap();
        shard.entries.get(&fingerprint).map(|e| EntryStats {
            resident_traces: e.snap.len() as u64,
            resident_hits: e.snap.total_hits(),
            ..e.stats
        })
    }

    /// Registry-wide aggregates. Counters of evicted entries are folded
    /// in, so hits/misses/refreshes are lifetime totals.
    pub fn stats(&self) -> RegistryStats {
        let mut resident = 0;
        let mut totals = EntryStats::default();
        for shard in &self.shards {
            let shard = shard.lock().unwrap();
            resident += shard.entries.len() as u64;
            totals.add_counters(&shard.retired);
            for entry in shard.entries.values() {
                totals.add_counters(&entry.stats);
            }
        }
        RegistryStats {
            resident,
            hits: totals.hits,
            misses: totals.misses,
            refreshes: totals.refreshes,
            evicted: self.evicted.load(Ordering::Relaxed),
            unknown: self.unknown.load(Ordering::Relaxed),
            image_hits: totals.image_hits,
            image_builds: totals.image_builds,
            image_invalidations: totals.image_invalidations,
            shape_hits: totals.shape_hits,
            shape_rejects: self.shape_rejects.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_core::{RtmConfig, TraceRecord};
    use tlr_isa::Loc;
    use tlr_persist::save_snapshot;

    fn rec(pc: u32, v: u64) -> TraceRecord {
        TraceRecord {
            start_pc: pc,
            next_pc: pc + 2,
            len: 2,
            ins: vec![(Loc::IntReg(1), v)].into_boxed_slice(),
            outs: vec![(Loc::IntReg(2), v * 3)].into_boxed_slice(),
            mix: Default::default(),
        }
    }

    fn snapshot_of(records: &[TraceRecord]) -> RtmSnapshot {
        let mut rtm = tlr_core::ReuseTraceMemory::new(RtmConfig::RTM_512);
        for r in records {
            rtm.insert(r.clone());
        }
        rtm.export()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("tlr-serve-registry-unit")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn get_warm_loads_and_caches() {
        let dir = temp_dir("warm-load");
        save_snapshot(&dir.join("p1.tlrsnap"), 1, &snapshot_of(&[rec(8, 5)])).unwrap();
        let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        assert_eq!(registry.fingerprints(), vec![1]);

        let first = registry.get(1).unwrap().expect("snapshot on disk");
        assert_eq!(first.len(), 1);
        let second = registry.get(1).unwrap().unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "second fetch not served resident"
        );
        let stats = registry.entry_stats(1).unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        assert!(registry.get(999).unwrap().is_none());
        assert_eq!(registry.stats().unknown, 1);
    }

    #[test]
    fn multiple_files_for_one_fingerprint_merge_on_load() {
        let dir = temp_dir("pooled");
        save_snapshot(&dir.join("run-a.tlrsnap"), 7, &snapshot_of(&[rec(8, 1)])).unwrap();
        save_snapshot(
            &dir.join("run-b.tlrsnap"),
            7,
            &snapshot_of(&[rec(8, 2), rec(40, 3)]),
        )
        .unwrap();
        let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        assert_eq!(registry.paths(7).len(), 2);
        let snap = registry.get(7).unwrap().unwrap();
        assert_eq!(snap.len(), 3, "union of both runs");
    }

    #[test]
    fn publish_refreshes_resident_state() {
        let dir = temp_dir("publish");
        save_snapshot(&dir.join("p.tlrsnap"), 3, &snapshot_of(&[rec(8, 1)])).unwrap();
        let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        assert_eq!(registry.get(3).unwrap().unwrap().len(), 1);

        registry
            .publish(3, &snapshot_of(&[rec(8, 1), rec(8, 9)]))
            .unwrap();
        assert_eq!(registry.get(3).unwrap().unwrap().len(), 2);
        let stats = registry.entry_stats(3).unwrap();
        assert_eq!(stats.refreshes, 1);

        // Geometry disagreement is rejected loudly.
        let other = tlr_core::ReuseTraceMemory::new(RtmConfig::RTM_4K).export();
        assert!(matches!(
            registry.publish(3, &other),
            Err(ServeError::Merge(
                tlr_core::MergeError::GeometryMismatch { .. }
            ))
        ));

        // Publishing an unknown program makes it resident, and `get`
        // serves it even though no snapshot file exists for it.
        registry.publish(77, &snapshot_of(&[rec(4, 4)])).unwrap();
        assert_eq!(registry.entry_stats(77).unwrap().refreshes, 1);
        let unknown_before = registry.stats().unknown;
        let served = registry
            .get(77)
            .unwrap()
            .expect("published entry not served");
        assert_eq!(served.len(), 1);
        assert_eq!(registry.entry_stats(77).unwrap().hits, 1);
        assert_eq!(registry.stats().unknown, unknown_before);
    }

    #[test]
    fn lru_bound_evicts_least_recently_fetched() {
        let dir = temp_dir("lru");
        for fp in 1..=3u64 {
            save_snapshot(
                &dir.join(format!("p{fp}.tlrsnap")),
                fp,
                &snapshot_of(&[rec(8, fp)]),
            )
            .unwrap();
        }
        let registry = SnapshotRegistry::open(
            &dir,
            RegistryConfig {
                shards: 1,
                max_resident_per_shard: 2,
                ..RegistryConfig::default()
            },
        )
        .unwrap();
        registry.get(1).unwrap();
        registry.get(2).unwrap();
        registry.get(1).unwrap(); // 2 is now LRU
        registry.get(3).unwrap(); // evicts 2
        let stats = registry.stats();
        assert_eq!(stats.resident, 2);
        assert_eq!(stats.evicted, 1);
        assert!(registry.entry_stats(2).is_none());
        assert!(registry.entry_stats(1).is_some());
        // Lifetime hit/miss totals include the evicted entry's.
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 1);
        // Refetching 2 reloads from disk.
        assert!(registry.get(2).unwrap().is_some());
        assert_eq!(registry.stats().misses, 4);
    }

    #[test]
    fn residency_gauges_expose_hit_weighted_state() {
        let dir = temp_dir("gauges");
        // A producer whose traces have real hit history.
        let mut rtm = tlr_core::ReuseTraceMemory::new(RtmConfig::RTM_512);
        rtm.insert(rec(8, 1));
        rtm.insert(rec(8, 2));
        for _ in 0..3 {
            assert!(rtm
                .lookup(8, |l| if l == tlr_isa::Loc::IntReg(1) { 1 } else { 0 })
                .is_some());
        }
        save_snapshot(&dir.join("hot.tlrsnap"), 5, &rtm.export()).unwrap();

        let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        registry.get(5).unwrap().unwrap();
        let stats = registry.entry_stats(5).unwrap();
        assert_eq!(stats.resident_traces, 2);
        assert_eq!(stats.resident_hits, 3, "persisted hit history lost");

        // Publish-back folds in more observed reuse.
        let mut update = tlr_core::ReuseTraceMemory::new(RtmConfig::RTM_512);
        update.insert(rec(8, 1));
        for _ in 0..2 {
            assert!(update
                .lookup(8, |l| if l == tlr_isa::Loc::IntReg(1) { 1 } else { 0 })
                .is_some());
        }
        registry.publish(5, &update.export()).unwrap();
        let stats = registry.entry_stats(5).unwrap();
        assert_eq!(stats.resident_traces, 2);
        assert_eq!(stats.resident_hits, 5, "publish must absorb hit history");
    }

    #[test]
    fn policy_is_applied_to_pooling() {
        // Under capacity contention (per_pc = 4 at one PC), an LFU
        // registry keeps all of the publisher's hot traces over the
        // on-disk cold ones; an LRU registry's interleaved recency
        // merge keeps only half of them.
        let dir = temp_dir("policy");
        let cold: Vec<TraceRecord> = (0..4u64).map(|v| rec(8, v)).collect();
        save_snapshot(&dir.join("cold.tlrsnap"), 9, &snapshot_of(&cold)).unwrap();

        let mut hot_rtm = tlr_core::ReuseTraceMemory::new(RtmConfig::RTM_512);
        for v in 100..104u64 {
            hot_rtm.insert(rec(8, v));
            for _ in 0..4 {
                assert!(hot_rtm
                    .lookup(8, |l| if l == tlr_isa::Loc::IntReg(1) { v } else { 0 })
                    .is_some());
            }
        }
        let hot = hot_rtm.export();

        for (policy, expect_hot_survivors) in
            [(ReplacementPolicy::Lfu, 4), (ReplacementPolicy::Lru, 2)]
        {
            let registry = SnapshotRegistry::open(
                &dir,
                RegistryConfig {
                    policy,
                    ..RegistryConfig::default()
                },
            )
            .unwrap();
            registry.get(9).unwrap().unwrap();
            registry.publish(9, &hot).unwrap();
            let snap = registry.get(9).unwrap().unwrap();
            let hot_survivors = snap.traces.iter().filter(|t| t.ins[0].1 >= 100).count();
            assert_eq!(
                hot_survivors, expect_hot_survivors,
                "{policy}: hot traces lost in publish merge"
            );
            if policy == ReplacementPolicy::Lfu {
                // LFU keeps observed-reuse weight across the merge.
                assert_eq!(registry.entry_stats(9).unwrap().resident_hits, 16);
            }
        }
    }

    #[test]
    fn lfu_half_life_reaches_pooling_merges() {
        assert_eq!(
            RegistryConfig::default().lfu_half_life,
            tlr_core::LFU_HALF_LIFE
        );
        // The knob must not change *what state exists* for an
        // uncontended pool — only how contention is ranked — so a
        // registry tuned to an extreme half-life still pools and
        // publishes identically here.
        let dir = temp_dir("half-life");
        save_snapshot(&dir.join("p.tlrsnap"), 4, &snapshot_of(&[rec(8, 1)])).unwrap();
        for half_life in [1, u64::MAX] {
            let registry = SnapshotRegistry::open(
                &dir,
                RegistryConfig {
                    policy: ReplacementPolicy::Lfu,
                    lfu_half_life: half_life,
                    ..RegistryConfig::default()
                },
            )
            .unwrap();
            assert_eq!(registry.get(4).unwrap().unwrap().len(), 1, "{half_life}");
            registry
                .publish(4, &snapshot_of(&[rec(8, 1), rec(40, 2)]))
                .unwrap();
            assert_eq!(registry.get(4).unwrap().unwrap().len(), 2, "{half_life}");
        }
    }

    #[test]
    fn refresh_indexes_new_files_and_updates_resident_entries() {
        let dir = temp_dir("refresh");
        save_snapshot(&dir.join("p1.tlrsnap"), 1, &snapshot_of(&[rec(8, 1)])).unwrap();
        let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        // Nothing new: the known file's stamp matches, so it is counted
        // as unchanged and never re-read.
        assert_eq!(
            registry.refresh().unwrap(),
            RefreshOutcome {
                unchanged: 1,
                ..RefreshOutcome::default()
            }
        );

        // Program 1 becomes resident; program 2 is never fetched.
        assert_eq!(registry.get(1).unwrap().unwrap().len(), 1);

        // New files appear after open: more state for resident program
        // 1, a first file for unknown program 2, and one mid-write junk
        // file that must be skipped, not fatal.
        save_snapshot(&dir.join("p1-more.tlrsnap"), 1, &snapshot_of(&[rec(40, 2)])).unwrap();
        save_snapshot(&dir.join("p2.tlrsnap"), 2, &snapshot_of(&[rec(8, 3)])).unwrap();
        std::fs::write(dir.join("partial.tlrsnap"), b"TL").unwrap();

        let outcome = registry.refresh().unwrap();
        assert_eq!(outcome.new_files, 2);
        assert_eq!(outcome.refreshed, 1, "resident entry not refreshed");
        assert_eq!(outcome.skipped, 1, "mid-write file not skipped");
        assert_eq!(outcome.unchanged, 1, "stamp-stable file re-read");

        // The resident entry absorbed the new file without a re-fetch.
        let stats = registry.entry_stats(1).unwrap();
        assert_eq!(stats.refreshes, 1);
        assert_eq!(stats.resident_traces, 2);
        assert_eq!(registry.get(1).unwrap().unwrap().len(), 2);

        // The unknown program is now indexed and warm-loads on fetch.
        assert_eq!(registry.paths(2).len(), 1);
        assert_eq!(registry.get(2).unwrap().unwrap().len(), 1);

        // A second pass with nothing new (the junk file is retried and
        // skipped again, still not indexed; every indexed file is
        // stamp-stable).
        let outcome = registry.refresh().unwrap();
        assert_eq!((outcome.new_files, outcome.refreshed), (0, 0));
        assert_eq!(outcome.skipped, 1);
        assert_eq!(outcome.unchanged, 3);
    }

    #[test]
    fn refresh_reabsorbs_changed_files() {
        let dir = temp_dir("refresh-changed");
        let path = dir.join("p1.tlrsnap");
        save_snapshot(&path, 1, &snapshot_of(&[rec(8, 1)])).unwrap();
        let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        assert_eq!(registry.get(1).unwrap().unwrap().len(), 1);

        // Another process rewrites the file with more state (the length
        // changes, so the stamp moves even on coarse-mtime systems).
        save_snapshot(&path, 1, &snapshot_of(&[rec(8, 1), rec(40, 2)])).unwrap();
        let outcome = registry.refresh().unwrap();
        assert_eq!(outcome.refreshed, 1, "changed file not re-absorbed");
        assert_eq!(outcome.new_files, 0, "changed file is not new");
        assert_eq!(registry.get(1).unwrap().unwrap().len(), 2);

        // The rewritten stamp was recorded: the next pass skips it.
        let outcome = registry.refresh().unwrap();
        assert_eq!(outcome.refreshed, 0);
        assert_eq!(outcome.unchanged, 1);
    }

    #[test]
    fn image_cache_serves_built_bytes_until_invalidated() {
        let dir = temp_dir("image-cache");
        save_snapshot(&dir.join("p.tlrsnap"), 6, &snapshot_of(&[rec(8, 1)])).unwrap();
        let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();

        // First image fetch loads (miss) and builds; the bytes are a
        // complete snapshot file image.
        let first = registry.get_image(6).unwrap().expect("image");
        let (fp, decoded) = tlr_persist::snapshot::read_snapshot(&mut &first[..], Some(6)).unwrap();
        assert_eq!(fp, 6);
        assert_eq!(decoded.len(), 1);
        let stats = registry.entry_stats(6).unwrap();
        assert_eq!((stats.image_builds, stats.image_hits), (1, 0));
        assert_eq!((stats.misses, stats.hits), (1, 0));

        // Second fetch is the zero-copy path: same buffer, no rebuild.
        let second = registry.get_image(6).unwrap().unwrap();
        assert!(Arc::ptr_eq(&first, &second), "image not served from cache");
        let stats = registry.entry_stats(6).unwrap();
        assert_eq!((stats.image_builds, stats.image_hits), (1, 1));

        // Publish invalidates: the next image is rebuilt over the
        // merged state.
        registry.publish(6, &snapshot_of(&[rec(40, 2)])).unwrap();
        let stats = registry.entry_stats(6).unwrap();
        assert_eq!(stats.image_invalidations, 1);
        let third = registry.get_image(6).unwrap().unwrap();
        assert!(!Arc::ptr_eq(&first, &third), "stale image after publish");
        let (_, decoded) = tlr_persist::snapshot::read_snapshot(&mut &third[..], Some(6)).unwrap();
        assert_eq!(decoded.len(), 2);
        let stats = registry.entry_stats(6).unwrap();
        assert_eq!(stats.image_builds, 2);

        // Unknown programs mirror `get`.
        assert!(registry.get_image(999).unwrap().is_none());

        // Registry-wide aggregates carry the image counters.
        let totals = registry.stats();
        assert_eq!(totals.image_builds, 2);
        assert_eq!(totals.image_hits, 1);
        assert_eq!(totals.image_invalidations, 1);
    }

    #[test]
    fn spill_writes_base_then_deltas_then_compacts() {
        let dir = temp_dir("spill");
        let registry = SnapshotRegistry::open(
            &dir,
            RegistryConfig {
                compact_threshold: 3,
                ..RegistryConfig::default()
            },
        )
        .unwrap();

        // Not resident: nothing to spill.
        assert_eq!(registry.spill(11).unwrap().kind, SpillKind::NoChange);

        // A publish-born entry's first spill is a full base.
        registry.publish(11, &snapshot_of(&[rec(8, 1)])).unwrap();
        let outcome = registry.spill(11).unwrap();
        assert_eq!(outcome.kind, SpillKind::Base);
        assert!(dir.join(base_file_name(11)).is_file());

        // No change since the base: nothing written.
        assert_eq!(registry.spill(11).unwrap().kind, SpillKind::NoChange);

        // New state spills an incremental delta, much smaller than the
        // base rewrite would be.
        registry.publish(11, &snapshot_of(&[rec(40, 2)])).unwrap();
        let outcome = registry.spill(11).unwrap();
        assert_eq!(outcome.kind, SpillKind::Delta);
        assert_eq!(outcome.delta_groups, 1);
        let delta_path = dir.join(delta_file_name(11, 1));
        assert!(delta_path.is_file());

        // Second delta (seq 2).
        registry.publish(11, &snapshot_of(&[rec(72, 3)])).unwrap();
        assert_eq!(registry.spill(11).unwrap().kind, SpillKind::Delta);

        // The third delta reaches compact_threshold = 3: the spill
        // writes it, then folds everything into a fresh base and deletes
        // all three deltas.
        registry.publish(11, &snapshot_of(&[rec(104, 4)])).unwrap();
        let outcome = registry.spill(11).unwrap();
        assert_eq!(outcome.kind, SpillKind::Compacted);
        assert_eq!(outcome.removed_files, 3);
        assert!(!delta_path.exists(), "compaction left a delta behind");
        assert_eq!(registry.paths(11), vec![dir.join(base_file_name(11))]);

        // A cold registry over the same directory reconstructs the full
        // state from the compacted base.
        let cold = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        assert_eq!(cold.get(11).unwrap().unwrap().len(), 4);
    }

    #[test]
    fn disk_loaded_entry_spills_delta_against_loaded_state() {
        let dir = temp_dir("spill-seeded");
        save_snapshot(&dir.join("p.tlrsnap"), 12, &snapshot_of(&[rec(8, 1)])).unwrap();
        let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        assert_eq!(registry.get(12).unwrap().unwrap().len(), 1);

        // Nothing beyond the on-disk state: no write at all.
        assert_eq!(registry.spill(12).unwrap().kind, SpillKind::NoChange);

        // Publish new state: the spill is a delta next to the existing
        // file, not a full rewrite.
        registry.publish(12, &snapshot_of(&[rec(40, 2)])).unwrap();
        let outcome = registry.spill(12).unwrap();
        assert_eq!(outcome.kind, SpillKind::Delta);

        // The spilled delta is already indexed and stamped: a refresh
        // pass does not re-absorb it.
        let outcome = registry.refresh().unwrap();
        assert_eq!(outcome.new_files, 0);
        assert_eq!(outcome.refreshed, 0);
        assert_eq!(outcome.unchanged, 2);

        // A cold registry merges base + delta back to the full state.
        let cold = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        assert_eq!(cold.get(12).unwrap().unwrap().len(), 2);
    }

    #[test]
    fn corrupt_snapshot_file_fails_open() {
        let dir = temp_dir("corrupt");
        std::fs::write(dir.join("bad.tlrsnap"), b"not a snapshot").unwrap();
        assert!(matches!(
            SnapshotRegistry::open(&dir, RegistryConfig::default()),
            Err(ServeError::Persist(PersistError::BadMagic { .. }))
        ));
    }
}
