//! Snapshot-merge properties: determinism, capacity, the unanimity
//! guarantee, and warm-start dominance of pooled snapshots on looping
//! workloads.
//!
//! Input snapshots are produced the only way real ones can be — by
//! inserting records into an RTM and exporting — so every generated
//! snapshot satisfies the exporter's invariants (no duplicate records,
//! per-group and per-set occupancy within geometry).

use proptest::prelude::*;
use tlr_core::{
    EngineConfig, Heuristic, MergeError, ReplacementPolicy, ReuseTraceMemory, RtmConfig,
    RtmSnapshot, SetAssocGeometry, TraceRecord, TraceReuseEngine, LFU_HALF_LIFE,
};
use tlr_isa::Loc;

/// A deliberately tiny geometry so capacity contention is the common
/// case, not the corner case: 2 sets x 2 ways x 2 per PC = 8 traces.
const TINY: RtmConfig = RtmConfig {
    geometry: SetAssocGeometry {
        sets: 2,
        ways: 2,
        per_pc: 2,
    },
};

fn record_strategy() -> impl Strategy<Value = TraceRecord> {
    // Few PCs and few values: collisions (same PC, same/different
    // live-ins) happen constantly under the tiny geometry.
    (0u32..6, 1u32..5, 0u64..4, 0u64..4).prop_map(|(start_pc, len, in_val, out_val)| TraceRecord {
        start_pc,
        next_pc: start_pc + len,
        len,
        ins: vec![(Loc::IntReg(1), in_val)].into_boxed_slice(),
        outs: vec![(Loc::IntReg(2), out_val)].into_boxed_slice(),
        mix: Default::default(),
    })
}

fn snapshot_strategy() -> impl Strategy<Value = RtmSnapshot> {
    proptest::collection::vec(record_strategy(), 0..24).prop_map(|records| {
        let mut rtm = ReuseTraceMemory::new(TINY);
        for record in records {
            rtm.insert(record);
        }
        rtm.export()
    })
}

/// Like [`snapshot_strategy`], but each record is also *used* a few
/// times after insertion, so exports carry non-trivial provenance for
/// the frequency-weighted policies to rank by.
fn warm_snapshot_strategy() -> impl Strategy<Value = RtmSnapshot> {
    proptest::collection::vec((record_strategy(), 0u8..4), 0..24).prop_map(|records| {
        let mut rtm = ReuseTraceMemory::new(TINY);
        for (record, hits) in records {
            let (pc, in_val) = (record.start_pc, record.ins[0].1);
            rtm.insert(record);
            for _ in 0..hits {
                rtm.lookup(pc, |l| if l == Loc::IntReg(1) { in_val } else { 0 });
            }
        }
        rtm.export()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Merging is a pure function of its inputs.
    #[test]
    fn merge_is_deterministic(a in snapshot_strategy(), b in snapshot_strategy()) {
        let first = RtmSnapshot::merge(&[a.clone(), b.clone()]).unwrap();
        let second = RtmSnapshot::merge(&[a, b]).unwrap();
        prop_assert_eq!(first, second);
    }

    /// The merge respects geometry: never more traces than capacity,
    /// and the result is a fixed point of import/export (it *is* a
    /// valid resident configuration, not just a trace list).
    #[test]
    fn merge_respects_capacity(a in snapshot_strategy(), b in snapshot_strategy()) {
        let merged = RtmSnapshot::merge(&[a, b]).unwrap();
        prop_assert!(merged.len() as u64 <= TINY.capacity());
        let canonical = ReuseTraceMemory::import(&merged).export();
        prop_assert_eq!(canonical, merged);
    }

    /// A trace both inputs kept survives any capacity contention.
    #[test]
    fn merge_never_loses_a_unanimous_trace(a in snapshot_strategy(), b in snapshot_strategy()) {
        let merged = RtmSnapshot::merge(&[a.clone(), b.clone()]).unwrap();
        for trace in a.traces.iter() {
            if b.traces.contains(trace) {
                prop_assert!(
                    merged.traces.contains(trace),
                    "merge dropped a trace both inputs agree on: {:?}",
                    trace
                );
            }
        }
    }

    /// Merging a snapshot with itself is the identity (modulo LRU
    /// canonicalization, which exports already apply).
    #[test]
    fn merge_with_self_is_identity(a in snapshot_strategy()) {
        let merged = RtmSnapshot::merge(&[a.clone(), a.clone()]).unwrap();
        prop_assert_eq!(merged, a);
    }

    /// The acceptance property of the policy refactor: under **every**
    /// replacement policy — including the frequency-weighted ones,
    /// whose victim ranking actively disfavours cold traces — a merge
    /// is deterministic, respects capacity, is a fixed point of
    /// same-policy import/export, and never drops a trace all inputs
    /// kept; and an export or a merge pooled alone comes back unchanged.
    #[test]
    fn policy_merges_uphold_unanimity_and_capacity(
        a in warm_snapshot_strategy(),
        b in warm_snapshot_strategy(),
    ) {
        for policy in ReplacementPolicy::ALL {
            let merge = || {
                RtmSnapshot::merge_detailed(&[a.clone(), b.clone()], policy, LFU_HALF_LIFE)
                    .unwrap()
                    .snapshot
            };
            let (merged, again) = (merge(), merge());
            prop_assert_eq!(&merged, &again, "{} merge not deterministic", policy);
            prop_assert!(merged.len() as u64 <= TINY.capacity());
            let canonical = ReuseTraceMemory::import_with(&merged, policy).export();
            prop_assert_eq!(&canonical, &merged, "{} merge not a fixed point", policy);
            // Pooling an export or a merge alone gives it back, shape
            // included: resident state can be pooled straight from.
            for mut s in [a.clone(), b.clone(), merged.clone()] {
                s.shape = 0x5eed;
                let pooled = RtmSnapshot::merge_detailed(&[&s], policy, LFU_HALF_LIFE)
                    .unwrap()
                    .snapshot;
                prop_assert_eq!(&pooled, &s, "{} pooling alone not a fixed point", policy);
            }
            for trace in a.traces.iter() {
                if b.traces.contains(trace) {
                    prop_assert!(
                        merged.traces.contains(trace),
                        "{} merge dropped a unanimous trace: {:?}",
                        policy,
                        trace
                    );
                }
            }
        }
    }
}

#[test]
fn merge_rejects_mismatched_geometry() {
    let tiny = ReuseTraceMemory::new(TINY).export();
    let big = ReuseTraceMemory::new(RtmConfig::RTM_512).export();
    assert!(matches!(
        RtmSnapshot::merge(&[tiny, big]),
        Err(MergeError::GeometryMismatch { .. })
    ));
    assert_eq!(RtmSnapshot::merge(&[]), Err(MergeError::Empty));
}

/// Cross-geometry warm start: `new_warm` adopts the snapshot's
/// geometry regardless of the configured one, so pooled state from a
/// bigger RTM serves a run configured smaller, and vice versa.
#[test]
fn warm_start_adopts_snapshot_geometry() {
    let program = tlr_workloads::by_name("compress")
        .unwrap()
        .program_with(3, 8);
    for (collect_rtm, serve_rtm) in [
        (RtmConfig::RTM_32K, RtmConfig::RTM_512),
        (RtmConfig::RTM_512, RtmConfig::RTM_32K),
    ] {
        let mut cold = TraceReuseEngine::new(
            &program,
            EngineConfig::paper(collect_rtm, Heuristic::FixedExp(4)),
        );
        cold.run(100_000).unwrap();
        let snapshot = cold.export_rtm().unwrap();
        assert_eq!(snapshot.config, collect_rtm);

        let warm = TraceReuseEngine::new_warm(
            &program,
            EngineConfig::paper(serve_rtm, Heuristic::FixedExp(4)),
            &snapshot,
        );
        assert_eq!(
            warm.rtm().resident(),
            snapshot.len() as u64,
            "warm RTM did not adopt the snapshot's geometry"
        );
    }
}

/// On looping workloads whose union fits the geometry, a merged
/// snapshot warm-starts at least as well as either input alone.
#[test]
fn merged_warm_start_dominates_inputs_on_looping_workloads() {
    for name in ["ijpeg", "go"] {
        let program = tlr_workloads::by_name(name)
            .unwrap()
            .program_with(20260611, 10);
        let rtm = RtmConfig::RTM_32K;
        let snap = |heuristic| {
            let mut engine = TraceReuseEngine::new(&program, EngineConfig::paper(rtm, heuristic));
            engine.run(200_000).unwrap();
            engine.export_rtm().unwrap()
        };
        let a = snap(Heuristic::FixedExp(2));
        let b = snap(Heuristic::FixedExp(6));
        let merged = RtmSnapshot::merge(&[a.clone(), b.clone()]).unwrap();
        let warm = |snapshot: &RtmSnapshot| {
            TraceReuseEngine::new_warm(
                &program,
                EngineConfig::paper(rtm, Heuristic::FixedExp(4)),
                snapshot,
            )
            .run(200_000)
            .unwrap()
            .pct_reused()
        };
        let (wa, wb, wm) = (warm(&a), warm(&b), warm(&merged));
        assert!(
            wm >= wa.max(wb) - 1e-9,
            "{name}: merged-warm {wm:.3}% < best solo {:.3}%",
            wa.max(wb)
        );
    }
}
