//! `warm-serve`: per kernel, two serving-only
//! `ThroughputEngine::new_warm(..).without_collection()` runs. The
//! `exact` half (`mips`) starts from the kernel's own-seed export; the
//! `xseed` half (`mips_alt`) from the merge of the two donor seeds'
//! exports, the way `get_by_shape` pools donors. No collector, no insert,
//! no serving tier: only `lookup_fast`/`TraceBlock` and `step_fast` run.

use std::time::Instant;

use tlr_core::{RtmSnapshot, ThroughputEngine};
use tlr_vm::Vm;

use crate::layers::{self, ClockCost, Replica, StepTrace};
use crate::measure::ns_since;
use crate::{
    end_to_end, engine_config, kernels, timed_setup, BenchError, Kernel, Options, Outcome,
    PassClock, Reference, Session, Workload,
};

/// Simulated instructions per serving run, and per export in set-up.
pub const BUDGET: u64 = 200_000;
const QUICK_BUDGET: u64 = 4_000;

const VARIANT_NAMES: [&str; 2] = ["exact half", "xseed half"];

/// A kernel with the two warm states it is served from.
struct Served {
    kernel: Kernel,
    /// `[exact, xseed]`.
    snapshots: [RtmSnapshot; 2],
}

/// The collected RTM export of `kernel` after `budget` instructions.
fn export(kernel: &Kernel, budget: u64) -> RtmSnapshot {
    let mut engine = ThroughputEngine::new(&kernel.program, engine_config());
    engine
        .run(budget)
        .unwrap_or_else(|e| panic!("set-up collection of {} failed: {e}", kernel.name));
    engine.export_rtm()
}

fn setup(seed: u64, budget: u64) -> Vec<Served> {
    let donors = [kernels(seed + 1), kernels(seed + 2)];
    kernels(seed)
        .into_iter()
        .enumerate()
        .map(|(k, kernel)| {
            let exact = export(&kernel, budget);
            let pooled = [export(&donors[0][k], budget), export(&donors[1][k], budget)];
            let xseed = RtmSnapshot::merge(&pooled)
                .unwrap_or_else(|e| panic!("set-up merge of {} failed: {e}", kernel.name));
            Served {
                kernel,
                snapshots: [exact, xseed],
            }
        })
        .collect()
}

pub fn run(opts: &Options) -> Result<Outcome, BenchError> {
    let budget = if opts.quick { QUICK_BUDGET } else { BUDGET };
    let ((served, mut reference), setup_s) = timed_setup(opts.quick, || {
        let served = setup(opts.seed, budget);
        let mut reference = Reference::new(Workload::WarmServe, opts.corrupt_reference.clone());
        for s in &served {
            reference.prepare(std::slice::from_ref(&s.kernel), budget);
        }
        (served, reference)
    });
    let config = engine_config();
    let mut out = Outcome::default();
    let mut passes = Vec::new();
    let mut trace = StepTrace::default();
    // Bare `Vm::run_fast` on the same kernels in traced runs: the
    // serving ceiling.
    let (mut bare_instructions, mut bare_ns) = (0u64, 0u64);
    let mut clock = PassClock::new(opts);
    while clock.next_pass() {
        let mut pass = Vec::new();
        for (k, s) in served.iter().enumerate() {
            let order = if (clock.passes + k).is_multiple_of(2) {
                [0, 1]
            } else {
                [1, 0]
            };
            for variant in order {
                out.attempted += 1;
                let snapshot = &s.snapshots[variant];
                let t0 = Instant::now();
                let mut engine = ThroughputEngine::new_warm(&s.kernel.program, config, snapshot)
                    .without_collection();
                let t1 = Instant::now();
                let result = engine.run(budget);
                let t2 = Instant::now();
                let exported = engine.export_rtm();
                let t3 = Instant::now();
                // The hand-off ends once the state is out; freeing it is
                // not part of it.
                let resident = exported.len();
                drop(exported);
                let stats = match result {
                    Ok(stats) => stats,
                    Err(e) => {
                        eprintln!(
                            "warm-serve {} {}: {e}",
                            s.kernel.name, VARIANT_NAMES[variant]
                        );
                        out.failed += 1;
                        pass.push(Session::failed(variant));
                        continue;
                    }
                };
                pass.push(Session::timed(variant, [t0, t1, t2, t3], &stats));
                let digest = engine.vm().state_digest();
                reference.check(&s.kernel, stats.total(), digest, VARIANT_NAMES[variant])?;
                if opts.trace {
                    let replica = Replica::serving(&s.kernel.program, config, snapshot);
                    trace.replay(replica, budget, &stats, digest, |detail| {
                        reference.fail(
                            s.kernel.name,
                            format!("{}: {detail}", VARIANT_NAMES[variant]),
                        )
                    })?;
                    let first = (clock.passes == 1).then(|| stats.clone());
                    trace.session("new_warm", [t0, t1, t2, t3], resident, first, variant);
                }
            }
            if opts.trace {
                let mut vm = Vm::new(&s.kernel.program);
                let t = Instant::now();
                if let Ok(outcome) = vm.run_fast(budget) {
                    bare_ns += ns_since(t);
                    bare_instructions += outcome.executed();
                }
            }
        }
        passes.push(pass);
    }
    if opts.trace {
        let cost = ClockCost::calibrate();
        let mut m = trace.metrics(&passes, cost);
        let stats: Vec<_> = trace.first_pass.iter().flatten().cloned().collect();
        layers::set_probe_ratios(&mut m, "rtm.lookup_fast", &stats);
        m.set(
            "vm.run_fast_mips",
            bare_instructions as f64 * 1e3 / bare_ns.max(1) as f64,
        );
        // A warm session's start is the RTM import.
        let sessions = passes.iter().flatten().filter(|s| !s.failed);
        let (n, start_ns) = sessions.fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.start_ns));
        m.set("rtm.import.us", start_ns as f64 / n as f64 / 1e3);
        out.report = layers::layer_report("warm-serve", &m, &trace.clocks, cost, Vec::new());
        layers::write_spans(opts, &trace.spans, &mut out.report);
        out.metrics = m.0;
    } else {
        end_to_end(&passes, &clock, setup_s, &mut out);
    }
    Ok(out)
}
