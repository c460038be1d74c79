//! Property tests for value-independent trace identity: the shape
//! fingerprint, [`TraceKey`], the live-in value check at reuse time,
//! and shape preservation through merge and both persist codecs.
//!
//! The invariant under test, end to end: *identity* (which program,
//! which trace shape) is value-independent, while *validity* (may this
//! trace be reused right now) is decided only by comparing live-in
//! values at the fetch point. Sharing reuse state across data seeds is
//! safe exactly because the identity layer never weakens the validity
//! layer.

use proptest::prelude::*;
use tlr_core::{
    ReplacementPolicy, ReuseTraceMemory, RtmConfig, RtmSnapshot, TraceRecord, LFU_HALF_LIFE,
};
use tlr_isa::Loc;
use tlr_persist::snapshot::{read_snapshot, write_snapshot};
use tlr_persist::{load_snapshot, program_fingerprint, program_shape_fingerprint, save_snapshot};

/// A minimal one-trace record with every live-in/live-out pinned to
/// `v`-derived values: same code shape for every `v`.
fn record(start_pc: u32, v: u64) -> TraceRecord {
    TraceRecord {
        start_pc,
        next_pc: start_pc + 2,
        len: 2,
        ins: vec![(Loc::IntReg(1), v), (Loc::Mem(0x40), v ^ 0x5a)].into_boxed_slice(),
        outs: vec![(Loc::IntReg(2), v.wrapping_mul(3))].into_boxed_slice(),
        mix: Default::default(),
    }
}

fn snapshot_with_shape(v: u64, shape: u64) -> RtmSnapshot {
    let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
    rtm.insert(record(8, v));
    let mut snap = rtm.export();
    snap.shape = shape;
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same workload under different data seeds: the shape fingerprint
    /// is identical (the code is), while the value fingerprint tracks
    /// the data image.
    #[test]
    fn shape_fingerprint_is_data_independent(
        ix in 0usize..14,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let w = tlr_workloads::all()[ix];
        let a = w.program(seed_a);
        let b = w.program(seed_b);
        prop_assert_eq!(
            program_shape_fingerprint(&a),
            program_shape_fingerprint(&b),
            "{}: data seed changed the shape fingerprint", w.name
        );
        if a.data == b.data {
            prop_assert_eq!(program_fingerprint(&a), program_fingerprint(&b));
        } else {
            prop_assert!(
                program_fingerprint(&a) != program_fingerprint(&b),
                "{}: different data images collided on the value fingerprint", w.name
            );
        }
    }

    /// Different workloads never share a shape fingerprint, under any
    /// seed: shape resolution can only ever pool state across data
    /// variants of the *same* code.
    #[test]
    fn distinct_programs_have_distinct_shapes(seed in any::<u64>()) {
        let shapes: Vec<(String, u64)> = tlr_workloads::all()
            .iter()
            .map(|w| (w.name.to_string(), program_shape_fingerprint(&w.program(seed))))
            .collect();
        for (i, (name_a, shape_a)) in shapes.iter().enumerate() {
            for (name_b, shape_b) in &shapes[i + 1..] {
                prop_assert!(
                    shape_a != shape_b,
                    "{} and {} share a shape fingerprint", name_a, name_b
                );
            }
        }
    }

    /// [`TraceKey`] strips live-in values — records differing only in
    /// data have equal keys — but the RTM's reuse test still rejects a
    /// lookup whose current state disagrees with the stored live-ins,
    /// and counts the rejection.
    #[test]
    fn trace_key_ignores_values_but_the_reuse_test_does_not(
        pc in 0u32..1_000,
        x in any::<u64>(),
        y in any::<u64>(),
    ) {
        let y = if x == y { y.wrapping_add(1) } else { y };
        let stored = record(pc, x);
        let incoming = record(pc, y);
        prop_assert_eq!(stored.key(), incoming.key());

        let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
        rtm.insert(stored);
        // State pinned to the wrong data: the shape-identical trace
        // must NOT be reused, and the miss is attributed to the value
        // check rather than absence.
        let miss = rtm.lookup(pc, |loc| match loc {
            Loc::IntReg(1) => y,
            Loc::Mem(0x40) => y ^ 0x5a,
            _ => 0,
        });
        prop_assert!(miss.is_none(), "stale live-ins were reused");
        prop_assert!(rtm.stats().value_rejects >= 1, "value rejection not counted");
        // State matching the stored live-ins: the same trace is valid.
        let hit = rtm.lookup(pc, |loc| match loc {
            Loc::IntReg(1) => x,
            Loc::Mem(0x40) => x ^ 0x5a,
            _ => 0,
        });
        prop_assert!(hit.is_some(), "matching live-ins were rejected");
    }

    /// Keys separate code: a different start PC or a different live-in
    /// location set is a different trace identity.
    #[test]
    fn trace_key_distinguishes_code(
        pc_a in 0u32..1_000,
        pc_b in 0u32..1_000,
        v in any::<u64>(),
    ) {
        let pc_b = if pc_a == pc_b { pc_b + 1 } else { pc_b };
        prop_assert_ne!(record(pc_a, v).key(), record(pc_b, v).key());
        let narrow = TraceRecord {
            ins: vec![(Loc::IntReg(1), v)].into_boxed_slice(),
            ..record(pc_a, v)
        };
        prop_assert_ne!(record(pc_a, v).key(), narrow.key());
    }

    /// The shape fingerprint survives the full persistence surface
    /// under every replacement policy: merge (agreeing shapes), the
    /// binary codec, and the JSON codec. Disagreeing shapes poison the
    /// merge to 0 (value-pinned), and a 0 participant never vetoes.
    #[test]
    fn shape_survives_merge_and_both_codecs(
        shape_a in 1u64..u64::MAX,
        shape_b in 1u64..u64::MAX,
        v in any::<u64>(),
    ) {
        for &policy in &ReplacementPolicy::ALL {
            let merged = RtmSnapshot::merge_detailed(
                &[snapshot_with_shape(v, shape_a), snapshot_with_shape(v ^ 1, shape_a)],
                policy,
                LFU_HALF_LIFE,
            ).unwrap().snapshot;
            prop_assert_eq!(merged.shape, shape_a, "[{}] agreeing merge lost the shape", policy);

            let with_unknown = RtmSnapshot::merge_detailed(
                &[snapshot_with_shape(v, 0), snapshot_with_shape(v ^ 1, shape_a)],
                policy,
                LFU_HALF_LIFE,
            ).unwrap().snapshot;
            prop_assert_eq!(with_unknown.shape, shape_a, "[{}] a value-pinned input vetoed", policy);

            if shape_a != shape_b {
                let conflicted = RtmSnapshot::merge_detailed(
                    &[snapshot_with_shape(v, shape_a), snapshot_with_shape(v ^ 1, shape_b)],
                    policy,
                    LFU_HALF_LIFE,
                ).unwrap().snapshot;
                prop_assert_eq!(conflicted.shape, 0, "[{}] conflicting shapes not poisoned", policy);
            }

            // Binary round-trip.
            let mut bytes = Vec::new();
            write_snapshot(&mut bytes, 0xfeed, &merged).unwrap();
            let (_, loaded) = read_snapshot(&mut bytes.as_slice(), Some(0xfeed)).unwrap();
            prop_assert_eq!(loaded.shape, shape_a, "[{}] binary codec lost the shape", policy);
            prop_assert_eq!(&loaded, &merged);

            // JSON round-trip (the debug format, selected by extension).
            let path = std::env::temp_dir().join(format!(
                "tlr-prop-identity-{}.json",
                std::process::id()
            ));
            save_snapshot(&path, 0xfeed, &merged).unwrap();
            let (_, loaded) = load_snapshot(&path, Some(0xfeed)).unwrap();
            let _ = std::fs::remove_file(&path);
            prop_assert_eq!(loaded.shape, shape_a, "[{}] JSON codec lost the shape", policy);
            prop_assert_eq!(&loaded, &merged);
        }
    }
}
