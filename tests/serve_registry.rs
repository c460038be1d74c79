//! `tlr-serve` integration: concurrent fetches from a snapshot
//! directory, merged-warm acceptance (pooled reuse state beats either
//! contributor alone without perturbing architectural state), and
//! publish-back pooling, including a publish-born entry's canonical
//! state.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use trace_reuse::core::TraceRecord;
use trace_reuse::persist::{program_fingerprint, save_snapshot};
use trace_reuse::prelude::*;
use trace_reuse::serve::RegistryStats;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tlr-serve-test").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
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
    let rec = |pc: u32, v: u64| TraceRecord {
        start_pc: pc,
        next_pc: pc + 2,
        len: 2,
        ins: vec![(Loc::IntReg(1), v)].into_boxed_slice(),
        outs: vec![(Loc::IntReg(2), v * 3)].into_boxed_slice(),
        mix: Default::default(),
    };
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
