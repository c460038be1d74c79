//! The engine's cardinal correctness property: **reuse is invisible to
//! architecture**. Running any workload under any RTM configuration and
//! any collection heuristic must leave byte-identical architectural
//! state (all of memory, all registers) and account for exactly the same
//! number of dynamic instructions as a plain run.
//!
//! This is the executable form of the §3.3 argument that applying a
//! matching trace's recorded outputs is equivalent to executing it.

use tlr_core::{Engine, EngineConfig, Heuristic, InvalidatingRtm, RtmConfig, TraceReuseEngine};
use tlr_isa::{Loc, NullSink};
use tlr_vm::Vm;

/// Full architectural fingerprint: every nonzero memory word + all
/// integer and FP registers.
fn fingerprint(vm: &Vm) -> (Vec<(u64, u64)>, Vec<u64>) {
    let mut words: Vec<(u64, u64)> = vm.memory().iter_words().collect();
    words.sort_unstable();
    let mut regs = Vec::with_capacity(64);
    for r in 0..32 {
        regs.push(vm.peek_loc(Loc::IntReg(r)));
    }
    for r in 0..32 {
        regs.push(vm.peek_loc(Loc::FpReg(r)));
    }
    (words, regs)
}

#[test]
fn every_workload_every_heuristic_preserves_state() {
    let heuristics = [
        Heuristic::IlrNe,
        Heuristic::IlrExp,
        Heuristic::FixedExp(1),
        Heuristic::FixedExp(4),
        Heuristic::FixedExp(8),
    ];
    for w in tlr_workloads::all() {
        let prog = w.program_with(17, 3);
        let mut plain = Vm::new(&prog);
        plain
            .run(10_000_000, &mut NullSink)
            .unwrap_or_else(|e| panic!("{}: plain run failed: {e}", w.name));
        let expect = fingerprint(&plain);
        let expect_instrs = plain.executed();

        for h in heuristics {
            let mut engine =
                TraceReuseEngine::new(&prog, EngineConfig::paper(RtmConfig::RTM_512, h));
            let stats = engine
                .run(20_000_000)
                .unwrap_or_else(|e| panic!("{}/{h:?}: engine failed: {e}", w.name));
            assert!(stats.halted, "{}/{h:?}: did not halt", w.name);
            assert_eq!(
                stats.total(),
                expect_instrs,
                "{}/{h:?}: instruction accounting diverged",
                w.name
            );
            assert_eq!(
                fingerprint(engine.vm()),
                expect,
                "{}/{h:?}: architectural state diverged",
                w.name
            );
        }
    }
}

#[test]
fn larger_rtms_also_preserve_state() {
    // Spot-check the bigger geometries on the two most reuse-heavy
    // workloads.
    for name in ["hydro2d", "ijpeg"] {
        let w = tlr_workloads::by_name(name).unwrap();
        let prog = w.program_with(5, 2);
        let mut plain = Vm::new(&prog);
        plain.run(10_000_000, &mut NullSink).unwrap();
        let expect = fingerprint(&plain);
        for rtm in [RtmConfig::RTM_4K, RtmConfig::RTM_32K] {
            let mut engine =
                TraceReuseEngine::new(&prog, EngineConfig::paper(rtm, Heuristic::FixedExp(6)));
            let stats = engine.run(20_000_000).unwrap();
            assert!(stats.halted);
            assert_eq!(fingerprint(engine.vm()), expect, "{name}/{}", rtm.label());
        }
    }
}

#[test]
fn valid_bit_backend_is_sound() {
    // The valid-bit reuse test is conservative but must be *sound*:
    // every hit it takes must still reproduce execution exactly.
    for w in tlr_workloads::all() {
        let prog = w.program_with(17, 3);
        let mut plain = Vm::new(&prog);
        plain.run(10_000_000, &mut NullSink).unwrap();
        let expect = fingerprint(&plain);
        let mut engine = Engine::<InvalidatingRtm>::new(
            &prog,
            EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4)),
        );
        let stats = engine.run(20_000_000).unwrap();
        assert!(stats.halted, "{}: did not halt", w.name);
        assert_eq!(stats.total(), plain.executed(), "{}", w.name);
        assert_eq!(
            fingerprint(engine.vm()),
            expect,
            "{}: valid-bit reuse corrupted state",
            w.name
        );
    }
}

#[test]
fn valid_bit_never_reuses_more_than_value_comparison() {
    for name in ["ijpeg", "turb3d", "gcc"] {
        let w = tlr_workloads::by_name(name).unwrap();
        let prog = w.program_with(17, 12);
        let base = EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4));
        let value = TraceReuseEngine::new(&prog, base).run(150_000).unwrap();
        let vb = Engine::<InvalidatingRtm>::new(&prog, base)
            .run(150_000)
            .unwrap();
        assert!(
            vb.pct_reused() <= value.pct_reused() + 1e-9,
            "{name}: valid-bit ({}) beat value comparison ({})",
            vb.pct_reused(),
            value.pct_reused()
        );
    }
}

#[test]
fn basic_block_heuristic_works_and_preserves_state() {
    for name in ["compress", "li"] {
        let w = tlr_workloads::by_name(name).unwrap();
        let prog = w.program_with(17, 6);
        let mut plain = Vm::new(&prog);
        plain.run(10_000_000, &mut NullSink).unwrap();
        let mut engine = TraceReuseEngine::new(
            &prog,
            EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::BasicBlock),
        );
        let stats = engine.run(20_000_000).unwrap();
        assert!(stats.halted);
        assert!(stats.reuse_ops > 0, "{name}: basic blocks never reused");
        assert_eq!(fingerprint(engine.vm()), fingerprint(&plain), "{name}");
    }
}

#[test]
fn engine_actually_reuses_on_every_workload() {
    // The equivalence test would pass trivially if the RTM never hit;
    // verify reuse actually happens for every benchmark at realistic
    // budgets.
    for w in tlr_workloads::all() {
        let prog = w.program_with(17, 8);
        let mut engine = TraceReuseEngine::new(
            &prog,
            EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4)),
        );
        let stats = engine.run(100_000).unwrap();
        assert!(
            stats.reuse_ops > 0,
            "{}: no reuse at all (pct_reused {:.2})",
            w.name,
            stats.pct_reused()
        );
    }
}
