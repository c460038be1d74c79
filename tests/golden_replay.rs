//! Golden-trace regression corpus replay (satellite of the cross-seed
//! trace-identity work).
//!
//! `tests/golden/` holds one recorded trace per built-in workload plus
//! a manifest of expected architectural-state and decision digests and
//! RTM counters (lookups, hits, value rejects, stores, evictions),
//! generated by `tlrsim golden --regen` under pinned parameters. This
//! suite replays every corpus entry through both persist formats
//! (binary streaming and JSON debug) and re-runs the reuse engine
//! under every replacement policy, comparing digests and counters
//! against the manifest. Any divergence is a failure naming the
//! workload and the first divergent PC — the corpus is the
//! cross-version contract that engine, VM and persist changes cannot
//! silently alter what the simulator computes.
//!
//! Corpus staleness (regeneration producing different bytes than the
//! checked-in files) is gated separately by `tlrsim golden` in CI.

use std::path::{Path, PathBuf};
use trace_reuse::persist::json::{self, Json};
use trace_reuse::persist::{
    load_trace, program_fingerprint, program_shape_fingerprint, replay, save_trace, MemorySource,
    PersistError, ReplayStats, TraceReader,
};
use trace_reuse::prelude::*;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn manifest() -> Json {
    let path = corpus_dir().join("manifest.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run `tlrsim golden --regen`)", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A digest stored in the manifest as a 16-digit hex string.
fn hex_field(obj: &Json, key: &str) -> u64 {
    let s = obj.field(key).unwrap().as_str(key).unwrap();
    u64::from_str_radix(s, 16).unwrap_or_else(|e| panic!("manifest {key} '{s}': {e}"))
}

fn bool_field(obj: &Json, key: &str) -> bool {
    match obj.field(key).unwrap() {
        Json::Bool(b) => *b,
        other => panic!("manifest {key}: expected bool, got {other:?}"),
    }
}

/// Replay, turning a divergence error into a failure that names the
/// workload, the format, and the first divergent PC.
fn replay_checked(
    name: &str,
    format: &str,
    program: &Program,
    source: &mut dyn trace_reuse::persist::RecordSource,
    records: &[DynInstr],
) -> (ReplayStats, Vm) {
    match replay(program, source) {
        Ok(out) => out,
        Err(PersistError::Divergence {
            index,
            expected,
            actual,
        }) => {
            let pc = records
                .get(usize::try_from(index).unwrap())
                .map(|d| format!("{:#x}", d.pc))
                .unwrap_or_else(|| "<beyond recording>".into());
            panic!(
                "{name} [{format}]: replay diverged, first divergent PC {pc} \
                 (record {index}: recorded {expected}, executed {actual})"
            );
        }
        Err(e) => panic!("{name} [{format}]: {e}"),
    }
}

#[test]
fn golden_manifest_covers_every_workload() {
    let doc = manifest();
    assert_eq!(
        doc.field("format").unwrap().as_str("format").unwrap(),
        "tlr-golden-v1"
    );
    let config = doc.field("config").unwrap();
    // The corpus is only meaningful under the engine parameters it was
    // generated with; pin them so the replay tests below and the
    // generator cannot drift apart silently.
    assert_eq!(
        config.field("rtm").unwrap().as_str("rtm").unwrap(),
        RtmConfig::RTM_4K.label()
    );
    assert_eq!(
        config
            .field("heuristic")
            .unwrap()
            .as_str("heuristic")
            .unwrap(),
        Heuristic::FixedExp(4).label()
    );
    let entries = doc.field("entries").unwrap();
    for w in tlr_workloads::all() {
        let entry = entries.field(w.name).unwrap_or_else(|_| {
            panic!("{}: no golden entry (run `tlrsim golden --regen`)", w.name)
        });
        let trace = entry.field("trace").unwrap().as_str("trace").unwrap();
        assert!(
            corpus_dir().join(trace).is_file(),
            "{}: trace file {trace} missing from tests/golden/",
            w.name
        );
    }
}

#[test]
fn golden_corpus_replays_in_both_formats() {
    let doc = manifest();
    let config = doc.field("config").unwrap();
    let seed = config.field("seed").unwrap().as_u64("seed").unwrap();
    let entries = doc.field("entries").unwrap();
    for w in tlr_workloads::all() {
        let entry = entries.field(w.name).unwrap();
        let program = w.program(seed);
        let fingerprint = program_fingerprint(&program);
        assert_eq!(
            hex_field(entry, "fingerprint"),
            fingerprint,
            "{}: program fingerprint drifted from the recorded corpus",
            w.name
        );
        assert_eq!(
            hex_field(entry, "shape"),
            program_shape_fingerprint(&program),
            "{}: program shape fingerprint drifted from the recorded corpus",
            w.name
        );
        let expected_records = entry.field("records").unwrap().as_u64("records").unwrap();
        let expected_halted = bool_field(entry, "halted");
        let expected_digest = hex_field(entry, "vm_digest");
        let trace_path = corpus_dir().join(entry.field("trace").unwrap().as_str("trace").unwrap());

        // Record index → PC map for divergence reporting.
        let records = TraceReader::open(&trace_path, Some(fingerprint))
            .and_then(|mut r| r.read_to_end())
            .unwrap_or_else(|e| panic!("{}: {e}", trace_path.display()));

        // Binary, streaming — the reader itself is the replay source.
        let mut reader = TraceReader::open(&trace_path, Some(fingerprint))
            .unwrap_or_else(|e| panic!("{}: {e}", trace_path.display()));
        let (stats, vm) = replay_checked(w.name, "binary", &program, &mut reader, &records);
        assert_eq!(stats.replayed, expected_records, "{}: replay count", w.name);
        assert_eq!(stats.halted, expected_halted, "{}: halt state", w.name);
        assert_eq!(
            vm.state_digest(),
            expected_digest,
            "{}: architectural state after binary replay",
            w.name
        );

        // JSON debug format: same records through the one-shot codec.
        let json_path = std::env::temp_dir().join(format!(
            "tlr-golden-replay-{}-{}.json",
            std::process::id(),
            w.name
        ));
        save_trace(&json_path, fingerprint, &records, expected_halted)
            .unwrap_or_else(|e| panic!("{}: {e}", json_path.display()));
        let file = load_trace(&json_path, Some(fingerprint))
            .unwrap_or_else(|e| panic!("{}: {e}", json_path.display()));
        let _ = std::fs::remove_file(&json_path);
        let mut source = MemorySource::from(file);
        let (stats, vm) = replay_checked(w.name, "json", &program, &mut source, &records);
        assert_eq!(stats.replayed, expected_records);
        assert_eq!(
            vm.state_digest(),
            expected_digest,
            "{}: architectural state after JSON replay",
            w.name
        );
    }
}

#[test]
fn golden_digests_match_under_every_policy() {
    let doc = manifest();
    let config = doc.field("config").unwrap();
    let seed = config.field("seed").unwrap().as_u64("seed").unwrap();
    let budget = config.field("budget").unwrap().as_u64("budget").unwrap();
    let entries = doc.field("entries").unwrap();
    for w in tlr_workloads::all() {
        let entry = entries.field(w.name).unwrap();
        let program = w.program(seed);
        let policies = entry.field("policies").unwrap();
        for &policy in &ReplacementPolicy::ALL {
            let expected = policies.field(policy.label()).unwrap_or_else(|_| {
                panic!("{} [{policy}]: no golden digests for this policy", w.name)
            });
            let engine_config =
                EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4)).with_policy(policy);
            let mut engine = TraceReuseEngine::new(&program, engine_config);
            engine.enable_tap_with_cap(usize::try_from(budget).unwrap());
            engine
                .run(budget)
                .unwrap_or_else(|e| panic!("{} [{policy}]: engine error: {e}", w.name));
            assert_eq!(
                engine.vm().state_digest(),
                hex_field(expected, "state"),
                "{} [{policy}]: architectural-state digest diverged from golden",
                w.name
            );
            assert_eq!(
                engine.tap().expect("tap was enabled").digest(),
                hex_field(expected, "decisions"),
                "{} [{policy}]: reuse-decision digest diverged from golden",
                w.name
            );
            // Both engines share one RTM probe, so the fast-vs-reference
            // cross-checks cannot see a counting change both make; the
            // corpus pins the counters themselves.
            let rtm = engine.stats().rtm;
            let counters = expected.field("rtm").unwrap();
            for (name, actual) in [
                ("lookups", rtm.lookups),
                ("hits", rtm.hits),
                ("value_rejects", rtm.value_rejects),
                ("stores", rtm.stores),
                ("evictions", rtm.evictions),
            ] {
                assert_eq!(
                    actual,
                    counters.field(name).unwrap().as_u64(name).unwrap(),
                    "{} [{policy}]: RTM {name} diverged from golden",
                    w.name
                );
            }
        }
    }
}
