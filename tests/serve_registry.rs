//! `tlr-serve` integration: concurrent fetches from a snapshot
//! directory, merged-warm acceptance (pooled reuse state beats either
//! contributor alone without perturbing architectural state),
//! publish-back pooling, including a publish-born entry's canonical
//! state and a publish that finds only files, and the durable-state
//! path: spill sequence numbers read from the index, compaction that
//! loads as the old state or the new one at every crash point, and a
//! refresh that forgets the files another registry's fold deleted.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use trace_reuse::core::TraceRecord;
use trace_reuse::persist::{
    base_file_name, delta_file_name, group_digests, program_fingerprint, save_snapshot,
};
use trace_reuse::prelude::*;
use trace_reuse::serve::{RegistryStats, SpillKind};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tlr-serve-test").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A two-instruction trace at `pc` whose live-in r1 holds `v`.
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

/// A raw client snapshot of `(pc, v)` traces; registries pool it.
fn snap(traces: &[(u32, u64)]) -> RtmSnapshot {
    RtmSnapshot::from_traces(
        RtmConfig::RTM_512,
        traces.iter().map(|&(pc, v)| rec(pc, v)).collect(),
    )
}

/// What a cold registry over `dir` loads for `fingerprint`, as
/// per-PC-group digests.
fn cold_groups(dir: &Path, fingerprint: u64) -> BTreeMap<u32, u64> {
    let registry = SnapshotRegistry::open(dir, RegistryConfig::default()).unwrap();
    group_digests(&registry.get(fingerprint).unwrap().expect("files on disk")).unwrap()
}

/// The `*.tlrsnap` files in `dir`, sorted.
fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "tlrsnap"))
        .collect();
    files.sort();
    files
}

/// Spill program `fingerprint` as a base holding pc 8 and 16 followed
/// by a delta holding pc 24, from a registry that is then dropped.
fn spill_base_and_delta(dir: &Path, fingerprint: u64) {
    let registry = SnapshotRegistry::open(dir, RegistryConfig::default()).unwrap();
    registry
        .publish(fingerprint, &snap(&[(8, 1), (16, 2)]))
        .unwrap();
    assert_eq!(registry.spill(fingerprint).unwrap().kind, SpillKind::Base);
    registry.publish(fingerprint, &snap(&[(24, 3)])).unwrap();
    assert_eq!(registry.spill(fingerprint).unwrap().kind, SpillKind::Delta);
}

fn cold_snapshot(
    program: &Program,
    config: EngineConfig,
    budget: u64,
) -> (EngineStats, RtmSnapshot) {
    let mut engine = TraceReuseEngine::new(program, config);
    let stats = engine.run(budget).unwrap();
    (
        stats,
        engine.export_rtm().expect("value-compare RTM snapshots"),
    )
}

/// The acceptance scenario: N threads fetch RTMs for distinct
/// fingerprints concurrently from one snapshot directory, warm-run
/// their workload, and publish back — while the registry's counters
/// stay exact.
#[test]
fn threads_fetch_distinct_fingerprints_concurrently() {
    let names = ["compress", "ijpeg", "li", "tomcatv", "vortex", "gcc"];
    let dir = temp_dir("concurrent");
    let config = EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4));
    let budget = 25_000;

    let mut programs = Vec::new();
    for name in names {
        let program = tlr_workloads::by_name(name).unwrap().program(11);
        let fingerprint = program_fingerprint(&program);
        let (_, snapshot) = cold_snapshot(&program, config, budget);
        assert!(!snapshot.is_empty(), "{name}: cold run collected nothing");
        save_snapshot(&dir.join(format!("{name}.tlrsnap")), fingerprint, &snapshot).unwrap();
        programs.push((name, program, fingerprint));
    }

    let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
    assert_eq!(registry.fingerprints().len(), names.len());

    const ROUNDS: u64 = 3;
    let warm_hits = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for (name, program, fingerprint) in &programs {
            let registry = &registry;
            let warm_hits = &warm_hits;
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    let snapshot = registry
                        .get(*fingerprint)
                        .unwrap()
                        .unwrap_or_else(|| panic!("{name}: no snapshot served"));
                    assert!(!snapshot.is_empty(), "{name}: empty snapshot served");
                    let stats = TraceReuseEngine::new_warm(program, config, &snapshot)
                        .run(budget)
                        .unwrap();
                    if stats.reuse_ops > 0 {
                        warm_hits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert!(
        warm_hits.load(Ordering::Relaxed) > 0,
        "no warm run reused anything"
    );

    // Each fingerprint: exactly one load, ROUNDS - 1 resident hits.
    let stats: RegistryStats = registry.stats();
    assert_eq!(stats.resident, names.len() as u64);
    assert_eq!(stats.misses, names.len() as u64);
    assert_eq!(stats.hits, names.len() as u64 * (ROUNDS - 1));
    assert_eq!(stats.unknown, 0);
    for (name, _, fingerprint) in &programs {
        let entry = registry.entry_stats(*fingerprint).unwrap();
        assert_eq!((entry.misses, entry.hits), (1, ROUNDS - 1), "{name}");
    }
}

/// Acceptance: a workload warm-started from `merge(cold_a, cold_b)`
/// reuses at least as much as from either snapshot alone, and its
/// architectural state is identical to a plain (reuse-free) run.
#[test]
fn merged_warm_start_beats_solo_and_preserves_state() {
    // Looping kernels whose trace unions fit RTM_32K: the pooled
    // snapshot strictly dominates each contributor. Short iteration
    // counts so every run reaches `halt` — architectural state is only
    // comparable at a common stopping point (a budget-exhausted engine
    // run overshoots the budget by up to one reused trace).
    for name in ["ijpeg", "go"] {
        let program = tlr_workloads::by_name(name)
            .unwrap()
            .program_with(20260611, 10);
        let rtm = RtmConfig::RTM_32K;
        let budget = 200_000;

        // Two cold runs with different collection heuristics stand in
        // for two fleet runs exploring different traces.
        let (_, snap_a) = cold_snapshot(
            &program,
            EngineConfig::paper(rtm, Heuristic::FixedExp(2)),
            budget,
        );
        let (_, snap_b) = cold_snapshot(
            &program,
            EngineConfig::paper(rtm, Heuristic::FixedExp(6)),
            budget,
        );
        let merged = RtmSnapshot::merge(&[snap_a.clone(), snap_b.clone()]).unwrap();

        let warm_config = EngineConfig::paper(rtm, Heuristic::FixedExp(4));
        let warm = |snapshot: &RtmSnapshot| {
            let mut engine = TraceReuseEngine::new_warm(&program, warm_config, snapshot);
            let stats = engine.run(budget).unwrap();
            (stats, engine)
        };
        let (stats_a, _) = warm(&snap_a);
        let (stats_b, _) = warm(&snap_b);
        let (stats_m, engine_m) = warm(&merged);

        let best_solo = stats_a.pct_reused().max(stats_b.pct_reused());
        assert!(
            stats_m.pct_reused() >= best_solo - 1e-9,
            "{name}: merged-warm {:.3}% < best solo-warm {:.3}%",
            stats_m.pct_reused(),
            best_solo
        );

        // Architectural state must be exactly the plain run's.
        assert!(stats_m.halted, "{name}: merged-warm run did not halt");
        let mut plain = Vm::new(&program);
        plain.run(budget, &mut NullSink).unwrap();
        assert_eq!(
            stats_m.total(),
            plain.executed(),
            "{name}: progress accounting diverged"
        );
        for r in 0..32u8 {
            assert_eq!(
                engine_m.vm().peek_loc(Loc::IntReg(r)),
                plain.peek_loc(Loc::IntReg(r)),
                "{name}: r{r} differs after merged-warm run"
            );
            assert_eq!(
                engine_m.vm().peek_loc(Loc::FpReg(r)),
                plain.peek_loc(Loc::FpReg(r)),
                "{name}: f{r} differs after merged-warm run"
            );
        }
    }
}

/// Publish-back pools state: after a run contributes its RTM, the next
/// fetch serves the union, and the refresh is visible in the stats.
#[test]
fn publish_back_pools_state_for_next_fetch() {
    let name = "compress";
    let program = tlr_workloads::by_name(name).unwrap().program(5);
    let config = EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4));
    let fingerprint = program_fingerprint(&program);
    let dir = temp_dir("publish-back");
    let (_, seed_snapshot) = cold_snapshot(&program, config, 10_000);
    save_snapshot(&dir.join("seed.tlrsnap"), fingerprint, &seed_snapshot).unwrap();

    let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
    let first = registry.get(fingerprint).unwrap().unwrap();

    // A longer run collects more traces; publish them back.
    let mut engine = TraceReuseEngine::new_warm(&program, config, &first);
    engine.run(40_000).unwrap();
    let export = engine.export_rtm().unwrap();
    registry.publish(fingerprint, &export).unwrap();

    let second = registry.get(fingerprint).unwrap().unwrap();
    assert!(
        second.len() >= first.len(),
        "pooled state shrank: {} -> {}",
        first.len(),
        second.len()
    );
    let entry = registry.entry_stats(fingerprint).unwrap();
    assert_eq!(entry.refreshes, 1);
    assert_eq!(entry.misses, 1);
    assert_eq!(entry.hits, 1);
}

/// A publish-born entry is pooled once: a client snapshot that repeats
/// a record is served as its canonical merge, and a later publish
/// leaves the same state as for an entry loaded from a file holding
/// that canonical snapshot.
#[test]
fn publish_born_entry_is_pooled_once() {
    let config = RtmConfig::RTM_512;
    let raw = RtmSnapshot::from_traces(config, vec![rec(8, 1), rec(8, 2), rec(8, 1)]);
    let canonical = RtmSnapshot::merge(std::slice::from_ref(&raw)).unwrap();
    assert_eq!(canonical.len(), raw.len() - 1);

    let published =
        SnapshotRegistry::open(&temp_dir("publish-born"), RegistryConfig::default()).unwrap();
    published.publish(1, &raw).unwrap();
    assert_eq!(*published.get(1).unwrap().unwrap(), canonical);

    let dir = temp_dir("publish-born-loaded");
    save_snapshot(&dir.join("p.tlrsnap"), 1, &canonical).unwrap();
    let loaded = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
    assert_eq!(*loaded.get(1).unwrap().unwrap(), canonical);

    let update = RtmSnapshot::from_traces(config, vec![rec(8, 3), rec(40, 4)]);
    published.publish(1, &update).unwrap();
    loaded.publish(1, &update).unwrap();
    assert_eq!(published.get(1).unwrap(), loaded.get(1).unwrap());
}

/// A publish for a program that is not resident but has files pools
/// those files first (one miss), so it neither hides the durable state
/// from fetches nor makes the next spill write a base over it — also
/// when the program was evicted by the LRU bound. A program with no
/// files still gets a publish-born entry, and no unknown fetch.
#[test]
fn publish_to_non_resident_program_pools_its_files() {
    for evicted in [false, true] {
        let dir = temp_dir(&format!("publish-non-resident-{evicted}"));
        spill_base_and_delta(&dir, 1);
        let registry = if evicted {
            save_snapshot(&dir.join("other.tlrsnap"), 2, &snap(&[(8, 9)])).unwrap();
            let config = RegistryConfig {
                shards: 1,
                max_resident_per_shard: 1,
                ..RegistryConfig::default()
            };
            let registry = SnapshotRegistry::open(&dir, config).unwrap();
            registry.get(1).unwrap().unwrap();
            registry.get(2).unwrap().unwrap();
            assert!(registry.entry_stats(1).is_none(), "program 1 not evicted");
            registry
        } else {
            SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap()
        };
        let misses = registry.stats().misses;

        registry.publish(1, &snap(&[(40, 4)])).unwrap();
        assert_eq!(registry.get(1).unwrap().unwrap().len(), 4, "{evicted}");
        let entry = registry.entry_stats(1).unwrap();
        assert_eq!((entry.refreshes, entry.hits), (1, 1), "{evicted}");
        assert_eq!(registry.stats().misses, misses + 1, "{evicted}");

        // The first spill is a delta next to the files, not a base
        // written over them.
        let outcome = registry.spill(1).unwrap();
        assert_eq!(outcome.kind, SpillKind::Delta, "{evicted}");
        assert_eq!(outcome.path, Some(dir.join(delta_file_name(1, 2))));
        let cold = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        assert_eq!(cold.get(1).unwrap().unwrap().len(), 4, "{evicted}");

        registry.publish(99, &snap(&[(8, 1)])).unwrap();
        let born = registry.entry_stats(99).unwrap();
        assert_eq!((born.misses, born.refreshes), (0, 1), "{evicted}");
        assert_eq!(registry.stats().unknown, 0, "{evicted}");
    }
}

/// Compaction folds durable state only, and superseded files go in
/// ascending sequence order: with the new base put in, the old base
/// and deltas' directory loads as the same state after every prefix of
/// the unlinks a crash could cut. A spill that reaches
/// `compact_threshold` writes its delta first and then runs the same
/// fold, so it deletes that delta too and commits the same base.
#[test]
fn compaction_crash_points_load_old_or_new_state() {
    // Base pc 8 {1, 2}; delta 1 adds pc 40; delta 2 grows pc 8.
    let spill_three = |dir: &Path, compact_threshold: usize| {
        let config = RegistryConfig {
            compact_threshold,
            ..RegistryConfig::default()
        };
        let registry = SnapshotRegistry::open(dir, config).unwrap();
        let mut kinds = Vec::new();
        for published in [snap(&[(8, 1), (8, 2)]), snap(&[(40, 4)]), snap(&[(8, 3)])] {
            registry.publish(5, &published).unwrap();
            kinds.push(registry.spill(5).unwrap());
        }
        (registry, kinds)
    };
    let dir = temp_dir("compact-crash");
    let (registry, spills) = spill_three(&dir, 8);
    let kinds: Vec<SpillKind> = spills.iter().map(|o| o.kind).collect();
    assert_eq!(kinds, [SpillKind::Base, SpillKind::Delta, SpillKind::Delta]);
    let resident = group_digests(&registry.get(5).unwrap().unwrap()).unwrap();
    assert_eq!(cold_groups(&dir, 5), resident);

    let crash = temp_dir("compact-crash-copy");
    for file in snapshot_files(&dir) {
        std::fs::copy(&file, crash.join(file.file_name().unwrap())).unwrap();
    }
    let outcome = registry.compact(5).unwrap();
    assert_eq!(outcome.kind, SpillKind::Compacted);
    assert_eq!(outcome.removed_files, 2);
    let base = dir.join(base_file_name(5));
    assert_eq!(snapshot_files(&dir), vec![base.clone()]);
    assert_eq!(cold_groups(&dir, 5), resident);

    // Crash after the new base is committed, before any unlink; then
    // after each ascending unlink.
    std::fs::copy(&base, crash.join(base_file_name(5))).unwrap();
    assert_eq!(cold_groups(&crash, 5), resident, "no delta unlinked");
    for seq in 1..=2 {
        std::fs::remove_file(crash.join(delta_file_name(5, seq))).unwrap();
        assert_eq!(
            cold_groups(&crash, 5),
            resident,
            "deltas up to {seq} unlinked"
        );
    }

    let threshold = temp_dir("compact-crash-threshold");
    let (_, spills) = spill_three(&threshold, 2);
    assert_eq!(spills[2].kind, SpillKind::Compacted);
    assert_eq!(spills[2].removed_files, 2, "the fold skipped its own delta");
    assert_eq!(
        std::fs::read(threshold.join(base_file_name(5))).unwrap(),
        std::fs::read(&base).unwrap()
    );
}

/// `compact` on a resident entry whose state is ahead of its files
/// spills that state first, then leaves one base that loads as it.
#[test]
fn compact_writes_resident_state_ahead_of_its_files() {
    let dir = temp_dir("compact-ahead");
    let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
    registry.publish(6, &snap(&[(8, 1)])).unwrap();
    assert_eq!(registry.spill(6).unwrap().kind, SpillKind::Base);
    registry.publish(6, &snap(&[(8, 2), (40, 3)])).unwrap();

    let outcome = registry.compact(6).unwrap();
    assert_eq!(outcome.kind, SpillKind::Compacted);
    assert_eq!(outcome.removed_files, 1, "the pending delta");
    assert_eq!(snapshot_files(&dir), vec![dir.join(base_file_name(6))]);
    let resident = registry.get(6).unwrap().unwrap();
    assert_eq!(resident.len(), 3);
    let cold = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
    assert_eq!(*cold.get(6).unwrap().unwrap(), *resident);
}

/// `compact` on a program that is not resident folds its base and
/// deltas into exactly its base, which loads as the state before; a
/// second `compact` has nothing to fold.
#[test]
fn compact_folds_a_non_resident_program_into_its_base() {
    let dir = temp_dir("compact-cold");
    spill_base_and_delta(&dir, 3);
    {
        let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        registry.get(3).unwrap().unwrap();
        registry.publish(3, &snap(&[(32, 4)])).unwrap();
        assert_eq!(registry.spill(3).unwrap().kind, SpillKind::Delta);
    }
    let before = cold_groups(&dir, 3);
    assert_eq!(before.len(), 4);

    let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
    let outcome = registry.compact(3).unwrap();
    assert_eq!(outcome.kind, SpillKind::Compacted);
    assert_eq!(outcome.removed_files, 2);
    assert_eq!(snapshot_files(&dir), vec![dir.join(base_file_name(3))]);
    assert_eq!(registry.paths(3), vec![dir.join(base_file_name(3))]);
    assert_eq!(cold_groups(&dir, 3), before);
    assert_eq!(registry.compact(3).unwrap().kind, SpillKind::NoChange);
    assert_eq!(registry.compact(404).unwrap().kind, SpillKind::NoChange);
}

/// The next delta's sequence number is read from the index: a delta
/// another registry spilled, once `refresh` indexed it, is not
/// overwritten by this registry's next delta.
#[test]
fn next_delta_number_follows_indexed_deltas() {
    let dir = temp_dir("delta-seq");
    save_snapshot(&dir.join(base_file_name(4)), 4, &snap(&[(8, 1)])).unwrap();
    let ours = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
    ours.get(4).unwrap().unwrap();

    let theirs = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
    theirs.get(4).unwrap().unwrap();
    theirs.publish(4, &snap(&[(40, 2)])).unwrap();
    let their_delta = theirs.spill(4).unwrap().path.unwrap();
    assert_eq!(their_delta, dir.join(delta_file_name(4, 1)));
    let their_bytes = std::fs::read(&their_delta).unwrap();

    let outcome = ours.refresh().unwrap();
    assert_eq!((outcome.new_files, outcome.refreshed), (1, 1));
    ours.publish(4, &snap(&[(72, 3)])).unwrap();
    let outcome = ours.spill(4).unwrap();
    assert_eq!(outcome.kind, SpillKind::Delta);
    assert_eq!(outcome.path, Some(dir.join(delta_file_name(4, 2))));
    assert_eq!(std::fs::read(&their_delta).unwrap(), their_bytes);
    let cold = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
    assert_eq!(cold.get(4).unwrap().unwrap().len(), 3);
}

/// A registry whose directory another registry folds (`tlrsim compact`
/// beside a running daemon) unindexes the deleted files on its next
/// `refresh`, and serves the folded state; a program whose files all
/// vanished is forgotten.
#[test]
fn refresh_forgets_files_a_fold_deleted() {
    let dir = temp_dir("refresh-vanished");
    spill_base_and_delta(&dir, 9);
    save_snapshot(&dir.join(base_file_name(10)), 10, &snap(&[(8, 1)])).unwrap();
    let daemon = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
    assert_eq!(daemon.paths(9).len(), 2);

    let folder = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
    assert_eq!(folder.compact(9).unwrap().kind, SpillKind::Compacted);
    std::fs::remove_file(dir.join(base_file_name(10))).unwrap();

    daemon.refresh().unwrap();
    assert_eq!(daemon.paths(9), vec![dir.join(base_file_name(9))]);
    let served = daemon.get(9).unwrap().expect("the folded base");
    assert_eq!(group_digests(&served).unwrap(), cold_groups(&dir, 9));
    assert_eq!(daemon.fingerprints(), vec![9]);
    assert!(daemon.get(10).unwrap().is_none());
}
