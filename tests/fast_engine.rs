//! Cross-check harness for the predecoded throughput engine: the fast
//! substrate (predecode tables, straight-line trace blocks) must be
//! *invisible* — every workload, every replacement
//! policy, cold and warm starts, and arbitrary valid programs must end
//! in exactly the state the reference engine and the plain interpreter
//! produce, with identical instruction accounting and identical reuse
//! decisions.

use proptest::prelude::*;
use tlr_bench::fleet::{FLEET_COLD_A, FLEET_COLD_B, FLEET_WARM};
use tlr_core::{
    EngineConfig, Heuristic, ReplacementPolicy, RtmConfig, RtmSnapshot, ThroughputEngine,
    TraceReuseEngine,
};
use tlr_isa::NullSink;
use tlr_vm::{ExecMode, Vm};
use trace_reuse::asm::{assemble, Program};

const BUDGET: u64 = 60_000;

/// The plain VM's state digest after `total` instructions: where every
/// engine that made that much progress must be.
fn plain_digest(prog: &Program, total: u64) -> u64 {
    let mut vm = Vm::new(prog);
    vm.run_fast(total).expect("plain run");
    vm.state_digest()
}

#[test]
fn fast_engine_matches_reference_on_every_workload() {
    let config = EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4));
    for w in tlr_workloads::all() {
        let prog = w.program(13);

        let mut reference = TraceReuseEngine::new(&prog, config);
        let ref_stats = reference
            .run(BUDGET)
            .unwrap_or_else(|e| panic!("{}: reference: {e}", w.name));

        for mode in [ExecMode::Fast, ExecMode::Observed] {
            let mut engine = ThroughputEngine::new(&prog, config).with_mode(mode);
            let stats = engine
                .run(BUDGET)
                .unwrap_or_else(|e| panic!("{}/{mode:?}: throughput: {e}", w.name));
            assert_eq!(stats, ref_stats, "{}/{mode:?}: stats diverged", w.name);
            assert_eq!(
                engine.vm().state_digest(),
                reference.vm().state_digest(),
                "{}/{mode:?}: architectural state diverged",
                w.name
            );
        }
    }
}

#[test]
fn fast_engine_matches_reference_across_policies() {
    // Policies change *which* traces survive eviction, so each policy is
    // its own decision stream — the fast substrate must reproduce all of
    // them. Small RTM to force evictions.
    for w in tlr_workloads::all() {
        let prog = w.program(29);
        for policy in ReplacementPolicy::ALL {
            let config =
                EngineConfig::paper(RtmConfig::RTM_512, Heuristic::FixedExp(4)).with_policy(policy);
            let mut reference = TraceReuseEngine::new(&prog, config);
            let ref_stats = reference
                .run(BUDGET)
                .unwrap_or_else(|e| panic!("{} [{policy}]: reference: {e}", w.name));
            let mut engine = ThroughputEngine::new(&prog, config);
            let stats = engine
                .run(BUDGET)
                .unwrap_or_else(|e| panic!("{} [{policy}]: throughput: {e}", w.name));
            assert_eq!(stats, ref_stats, "{} [{policy}]: stats diverged", w.name);
            assert_eq!(
                engine.vm().state_digest(),
                reference.vm().state_digest(),
                "{} [{policy}]: architectural state diverged",
                w.name
            );
        }
    }
}

#[test]
fn fast_engine_matches_reference_on_warm_starts() {
    // Warm starts from one producer's export and from the merge of the
    // fleet's two diverse producers: the fast engine in both modes takes
    // the reference engine's decisions, and a serving-only engine runs
    // the same course; every engine ends where the plain VM does.
    const WARM_BUDGET: u64 = 30_000;
    let config = |heuristic| EngineConfig::paper(RtmConfig::RTM_4K, heuristic);
    for w in tlr_workloads::all() {
        let prog = w.program(17);
        let export = |heuristic| {
            let mut producer = TraceReuseEngine::new(&prog, config(heuristic));
            producer
                .run(WARM_BUDGET)
                .unwrap_or_else(|e| panic!("{}: producer: {e}", w.name));
            producer.export_rtm().expect("value-comparison RTM exports")
        };
        let solo = export(FLEET_COLD_A);
        let merged = RtmSnapshot::merge(&[solo.clone(), export(FLEET_COLD_B)])
            .unwrap_or_else(|e| panic!("{}: merge: {e}", w.name));
        for (source, snapshot) in [("solo", &solo), ("merged", &merged)] {
            let label = format!("{}/{source}", w.name);
            let mut reference = TraceReuseEngine::new_warm(&prog, config(FLEET_WARM), snapshot);
            reference.enable_tap();
            let ref_stats = reference
                .run(WARM_BUDGET)
                .unwrap_or_else(|e| panic!("{label}: reference: {e}"));
            let ref_decisions = reference.take_tap().expect("tap enabled").digest();
            let plain = plain_digest(&prog, ref_stats.total());
            assert_eq!(reference.vm().state_digest(), plain, "{label}: reference");

            for mode in [ExecMode::Fast, ExecMode::Observed] {
                let mut engine =
                    ThroughputEngine::new_warm(&prog, config(FLEET_WARM), snapshot).with_mode(mode);
                engine.enable_tap();
                let stats = engine
                    .run(WARM_BUDGET)
                    .unwrap_or_else(|e| panic!("{label}/{mode:?}: throughput: {e}"));
                assert_eq!(stats, ref_stats, "{label}/{mode:?}: stats diverged");
                assert_eq!(
                    engine.take_tap().expect("tap enabled").digest(),
                    ref_decisions,
                    "{label}/{mode:?}: decisions diverged"
                );
                assert_eq!(engine.vm().state_digest(), plain, "{label}/{mode:?}");
            }

            let mut serving = ThroughputEngine::new_warm(&prog, config(FLEET_WARM), snapshot)
                .without_collection();
            let stats = serving
                .run(WARM_BUDGET)
                .unwrap_or_else(|e| panic!("{label}: serving: {e}"));
            // Without collection it hits other traces, so the last hit
            // may carry it past the budget by a different amount; a run
            // to `halt` must end at the same total.
            assert_eq!(stats.halted, ref_stats.halted, "{label}: serving halt");
            if stats.halted {
                assert_eq!(stats.total(), ref_stats.total(), "{label}: serving total");
            }
            assert_eq!(
                serving.vm().state_digest(),
                plain_digest(&prog, stats.total()),
                "{label}: serving"
            );
        }
    }
}

/// One random but always-valid instruction, rendered as assembly. Every
/// line carries a label so branch targets generated as `imm % (n + 1)`
/// always resolve (index `n` is the trailing `halt`).
fn render_instr(
    i: usize,
    n: usize,
    (kind, a, b, c, disp, imm): (u8, u8, u8, u8, u64, u16),
) -> String {
    let target = (imm as usize) % (n + 1);
    let body = match kind {
        0 => format!("addq r{a}, r{b}, r{c}"),
        1 => format!("subq r{a}, r{b}, r{c}"),
        2 => format!("mulq r{a}, r{b}, r{c}"),
        3 => format!("and r{a}, r{b}, r{c}"),
        4 => format!("xor r{a}, r{b}, r{c}"),
        5 => format!("addq r{a}, r{b}, {imm}"),
        6 => format!("li r{a}, {imm}"),
        7 => format!("ldq r{a}, {disp}(r{b})"),
        8 => format!("stq r{a}, {disp}(r{b})"),
        9 => format!("beqz r{a}, L{target}"),
        10 => format!("bnez r{a}, L{target}"),
        11 => format!("addt f{a}, f{b}, f{c}"),
        12 => format!("itof f{a}, r{b}"),
        13 => format!("cmplt r{a}, r{b}, r{c}"),
        _ => "nop".to_string(),
    };
    format!("L{i}: {body}\n")
}

fn arb_program() -> impl Strategy<Value = String> {
    let instr = (0u8..15, 1u8..10, 1u8..10, 1u8..10, 0u64..64, any::<u16>());
    proptest::collection::vec(instr, 8..60).prop_map(|instrs| {
        let n = instrs.len();
        let mut text = String::new();
        for (i, spec) in instrs.into_iter().enumerate() {
            text.push_str(&render_instr(i, n, spec));
        }
        text.push_str(&format!("L{n}: halt\n"));
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Predecoded execution is the interpreter: same final state, same
    /// instruction count, on arbitrary valid programs (including ones
    /// that loop forever and exhaust the budget).
    #[test]
    fn predecoded_vm_matches_observing_vm(source in arb_program()) {
        let prog = assemble(&source).expect("generated programs are valid");
        let mut observed = Vm::new(&prog);
        observed.run(5_000, &mut NullSink).expect("observing run");
        let mut fast = Vm::new(&prog);
        fast.run_fast(5_000).expect("fast run");
        prop_assert_eq!(observed.executed(), fast.executed());
        prop_assert_eq!(observed.state_digest(), fast.state_digest());
    }

    /// The throughput engine is the reference engine, on arbitrary valid
    /// programs under all three replacement policies, cold and then warm
    /// from the cold run's export: same executed/skipped counts, same
    /// number of reuse decisions, and the plain VM's state at the same
    /// progress.
    #[test]
    fn fast_engine_matches_reference_on_random_programs(source in arb_program()) {
        let prog = assemble(&source).expect("generated programs are valid");
        for policy in ReplacementPolicy::ALL {
            let config = EngineConfig::paper(RtmConfig::RTM_512, Heuristic::FixedExp(2))
                .with_policy(policy);
            let mut reference = TraceReuseEngine::new(&prog, config);
            let ref_stats = reference.run(5_000).expect("reference run");
            let mut engine = ThroughputEngine::new(&prog, config);
            let stats = engine.run(5_000).expect("throughput run");
            prop_assert_eq!(stats.executed, ref_stats.executed, "{}", policy);
            prop_assert_eq!(stats.skipped, ref_stats.skipped, "{}", policy);
            prop_assert_eq!(stats.reuse_ops, ref_stats.reuse_ops, "{}", policy);
            let plain = plain_digest(&prog, stats.total());
            prop_assert_eq!(reference.vm().state_digest(), plain, "{}", policy);
            prop_assert_eq!(engine.vm().state_digest(), plain, "{}", policy);

            let snapshot = engine.export_rtm();
            let mut warm_reference = TraceReuseEngine::new_warm(&prog, config, &snapshot);
            let warm_ref_stats = warm_reference.run(5_000).expect("warm reference run");
            let mut warm = ThroughputEngine::new_warm(&prog, config, &snapshot);
            let warm_stats = warm.run(5_000).expect("warm throughput run");
            prop_assert_eq!(&warm_stats, &warm_ref_stats, "{} warm", policy);
            let plain = plain_digest(&prog, warm_stats.total());
            prop_assert_eq!(warm_reference.vm().state_digest(), plain, "{} warm", policy);
            prop_assert_eq!(warm.vm().state_digest(), plain, "{} warm", policy);
        }
    }
}
