//! `cold-collect`: every kernel from an empty RTM, collecting, on both
//! engines — `TraceReuseEngine` (`mips`) as the `reproduce` figures run
//! it and `ThroughputEngine` (`mips_alt`) as `tlrsim run --fast` runs it.
//! One thread, no files, no sockets: the VM step, the collector and RTM
//! insert/evict/probe do all the work.

use std::time::Instant;

use tlr_core::EngineStats;

use crate::layers::{self, Call, ClockCost, Replica, StepLoop, StepTrace};
use crate::{
    end_to_end, engine_config, kernels, timed_setup, AnyEngine, BenchError, Options, Outcome,
    PassClock, Reference, Session, Workload,
};

/// Simulated instructions per kernel per engine run.
pub const BUDGET: u64 = 50_000;
const QUICK_BUDGET: u64 = 4_000;

const VARIANT_NAMES: [&str; 2] = ["reference engine", "throughput engine"];
const STEP_LOOPS: [StepLoop; 2] = [StepLoop::Reference, StepLoop::FastCollecting];

pub fn run(opts: &Options) -> Result<Outcome, BenchError> {
    let budget = if opts.quick { QUICK_BUDGET } else { BUDGET };
    let ((kernels, mut reference), setup_s) = timed_setup(opts.quick, || {
        let kernels = kernels(opts.seed);
        let mut reference = Reference::new(Workload::ColdCollect, opts.corrupt_reference.clone());
        reference.prepare(&kernels, budget);
        (kernels, reference)
    });
    let config = engine_config();
    let mut out = Outcome::default();
    let mut passes = Vec::new();
    let mut trace = StepTrace::default();
    let mut clock = PassClock::new(opts);
    while clock.next_pass() {
        let mut pass = Vec::new();
        for (k, kernel) in kernels.iter().enumerate() {
            let mut results: [Option<EngineStats>; 2] = [None, None];
            // Interleave the engines kernel by kernel, alternating which
            // goes first, so drift hits both alike.
            let order = if (clock.passes + k).is_multiple_of(2) {
                [0, 1]
            } else {
                [1, 0]
            };
            for variant in order {
                out.attempted += 1;
                let t0 = Instant::now();
                let mut engine = AnyEngine::cold(variant, &kernel.program, config);
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
                            "cold-collect {} {}: {e}",
                            kernel.name, VARIANT_NAMES[variant]
                        );
                        out.failed += 1;
                        pass.push(Session::failed(variant));
                        continue;
                    }
                };
                pass.push(Session::timed(variant, [t0, t1, t2, t3], &stats));
                let digest = engine.digest();
                reference.check(kernel, stats.total(), digest, VARIANT_NAMES[variant])?;
                if opts.trace {
                    let replica = Replica::cold(&kernel.program, config, STEP_LOOPS[variant]);
                    trace.replay(replica, budget, &stats, digest, |detail| {
                        reference.fail(kernel.name, format!("{}: {detail}", VARIANT_NAMES[variant]))
                    })?;
                    let first = (clock.passes == 1).then(|| stats.clone());
                    trace.session("new", [t0, t1, t2, t3], resident, first, variant);
                }
                results[variant] = Some(stats);
            }
            if let [Some(a), Some(b)] = &results {
                if a != b {
                    return Err(reference.fail(
                        kernel.name,
                        format!("engines disagree: reference {a:?}, throughput {b:?}"),
                    ));
                }
            }
        }
        passes.push(pass);
    }
    if opts.trace {
        let cost = ClockCost::calibrate();
        let mut m = trace.metrics(&passes, cost);
        layers::set_engine_counts(&mut m, trace.first_pass.iter().flatten());
        layers::set_probe_ratios(&mut m, "rtm.lookup", &trace.first_pass[0]);
        layers::set_probe_ratios(&mut m, "rtm.lookup_fast", &trace.first_pass[1]);
        let engine_ns: f64 = passes.iter().flatten().map(|s| s.run_ns as f64).sum();
        let collect_insert_lookup: f64 = [
            Call::OnExecuted,
            Call::OnReuseHit,
            Call::Insert,
            Call::Lookup,
            Call::LookupFast,
        ]
        .iter()
        .map(|c| trace.clocks.estimate_ns(*c, cost))
        .sum();
        let share = format!(
            "collect + rtm.insert + rtm.lookup(_fast): {:.1}% of engine time",
            100.0 * collect_insert_lookup / engine_ns
        );
        out.report = layers::layer_report("cold-collect", &m, &trace.clocks, cost, vec![share]);
        layers::write_spans(opts, &trace.spans, &mut out.report);
        out.metrics = m.0;
    } else {
        end_to_end(&passes, &clock, setup_s, &mut out);
    }
    Ok(out)
}
