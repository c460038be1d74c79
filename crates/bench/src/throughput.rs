//! Raw simulation throughput: reference interpreter vs predecoded fast
//! path, at both the VM and the reuse-engine layer (ours).
//!
//! Every other `reproduce` target measures *what* trace-level reuse
//! saves; this one measures how fast the simulator itself goes, because
//! the limit studies and RTM sweeps are bounded by simulator throughput,
//! not by analysis. Four configurations are timed per workload over the
//! same dynamic instruction budget:
//!
//! 1. **vm-ref** — the observing interpreter ([`Vm::run`] with a
//!    [`NullSink`]): materializes a full `DynInstr` with read/write
//!    records per step, the substrate the limit studies consume.
//! 2. **vm-fast** — the predecoded fast path ([`Vm::run_fast`]): flat
//!    dispatch over the predecode table, no records.
//! 3. **engine-ref** — [`TraceReuseEngine`], the reference reuse engine
//!    behind Figure 9.
//! 4. **engine-fast** — [`ThroughputEngine`], the same reuse semantics
//!    on the fast substrate with straight-line trace blocks, plus a
//!    fifth **serve** column: a warm serving-only instance
//!    ([`ThroughputEngine::without_collection`]), the fleet steady state.
//!
//! Speed is reported in MIPS (millions of dynamic instructions per
//! wall-clock second). Fast and reference members of each pair must end
//! in the same architectural state — digests (and, for the engine pair,
//! executed/skipped/reuse-op counts) are compared on every row and
//! gated hard by `--check`; speedups are gated on the suite mean so a
//! single noisy CI row cannot flip the verdict.

use std::time::Instant;

use crate::harness::HarnessConfig;
use tlr_core::{
    EngineConfig, EngineStats, Heuristic, RtmConfig, ThroughputEngine, TraceReuseEngine,
};
use tlr_isa::NullSink;
use tlr_stats::Table;
use tlr_vm::Vm;

/// Collection heuristic used for every timed engine configuration.
pub const THROUGHPUT_HEURISTIC: Heuristic = Heuristic::FixedExp(4);

/// One workload's timed comparison.
pub struct ThroughputCell {
    /// Benchmark name.
    pub name: &'static str,
    /// Observing interpreter MIPS.
    pub vm_ref_mips: f64,
    /// Predecoded fast-path MIPS.
    pub vm_fast_mips: f64,
    /// Reference reuse-engine MIPS.
    pub eng_ref_mips: f64,
    /// Throughput (fast) reuse-engine MIPS.
    pub eng_fast_mips: f64,
    /// Warm serving-only throughput-engine MIPS.
    pub serve_mips: f64,
    /// Dynamic instructions executed by each VM run.
    pub vm_instrs: u64,
    /// Dynamic progress (executed + skipped) of each engine run.
    pub eng_total: u64,
    /// `pct_reused()` of the fast engine run.
    pub pct_reused: f64,
    /// Fast and reference ended in identical architectural state, at
    /// both the VM pair and the engine pair.
    pub digest_ok: bool,
    /// Engine pair agreed on executed / skipped / reuse-op counts.
    pub counts_ok: bool,
}

impl ThroughputCell {
    /// vm-fast over vm-ref.
    pub fn vm_speedup(&self) -> f64 {
        self.vm_fast_mips / self.vm_ref_mips
    }

    /// engine-fast over engine-ref.
    pub fn engine_speedup(&self) -> f64 {
        self.eng_fast_mips / self.eng_ref_mips
    }
}

fn mips(instrs: u64, secs: f64) -> f64 {
    instrs as f64 / secs.max(1e-9) / 1e6
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn engine_counts(stats: &EngineStats) -> (u64, u64, u64) {
    (stats.executed, stats.skipped, stats.reuse_ops)
}

/// Time the four configurations (plus warm serving) on every workload,
/// serially — timing runs share nothing so wall-clock stays honest.
pub fn run_throughput(cfg: &HarnessConfig, rtm: RtmConfig) -> Vec<ThroughputCell> {
    let config = EngineConfig::paper(rtm, THROUGHPUT_HEURISTIC);
    tlr_workloads::all()
        .iter()
        .map(|w| {
            let prog = w.program(cfg.seed);

            let (vm_ref, ref_secs) = timed(|| {
                let mut vm = Vm::new(&prog);
                vm.run(cfg.budget, &mut NullSink)
                    .unwrap_or_else(|e| panic!("{}: vm-ref error: {e}", w.name));
                vm
            });
            let (vm_fast, fast_secs) = timed(|| {
                let mut vm = Vm::new(&prog);
                vm.run_fast(cfg.budget)
                    .unwrap_or_else(|e| panic!("{}: vm-fast error: {e}", w.name));
                vm
            });
            let vm_digest_ok = vm_ref.state_digest() == vm_fast.state_digest()
                && vm_ref.executed() == vm_fast.executed();

            let (eng_ref, eng_ref_secs) = timed(|| {
                let mut engine = TraceReuseEngine::new(&prog, config);
                engine
                    .run(cfg.budget)
                    .unwrap_or_else(|e| panic!("{}: engine-ref error: {e}", w.name));
                engine
            });
            let (eng_fast, eng_fast_secs) = timed(|| {
                let mut engine = ThroughputEngine::new(&prog, config);
                engine
                    .run(cfg.budget)
                    .unwrap_or_else(|e| panic!("{}: engine-fast error: {e}", w.name));
                engine
            });
            let ref_stats = eng_ref.stats();
            let fast_stats = eng_fast.stats();
            let counts_ok = engine_counts(&ref_stats) == engine_counts(&fast_stats);
            let eng_digest_ok = eng_ref.vm().state_digest() == eng_fast.vm().state_digest();

            // Fleet steady state: a fresh instance serving the fast
            // run's traces without collecting anything new.
            let snapshot = eng_fast.export_rtm();
            let (serve, serve_secs) = timed(|| {
                let mut engine =
                    ThroughputEngine::new_warm(&prog, config, &snapshot).without_collection();
                engine
                    .run(cfg.budget)
                    .unwrap_or_else(|e| panic!("{}: engine-serve error: {e}", w.name));
                engine
            });

            ThroughputCell {
                name: w.name,
                vm_ref_mips: mips(vm_ref.executed(), ref_secs),
                vm_fast_mips: mips(vm_fast.executed(), fast_secs),
                eng_ref_mips: mips(ref_stats.total(), eng_ref_secs),
                eng_fast_mips: mips(fast_stats.total(), eng_fast_secs),
                serve_mips: mips(serve.stats().total(), serve_secs),
                vm_instrs: vm_ref.executed(),
                eng_total: fast_stats.total(),
                pct_reused: fast_stats.pct_reused(),
                digest_ok: vm_digest_ok && eng_digest_ok,
                counts_ok,
            }
        })
        .collect()
}

/// Table: per benchmark, MIPS of every configuration with pair speedups
/// and the equality verdict; suite means on the last row.
pub fn throughput_table(cells: &[ThroughputCell]) -> Table {
    let mut table = Table::new(vec![
        "benchmark",
        "vm-ref MIPS",
        "vm-fast MIPS",
        "vm x",
        "eng-ref MIPS",
        "eng-fast MIPS",
        "eng x",
        "serve MIPS",
        "reused %",
        "state",
    ]);
    for cell in cells {
        table.row(vec![
            cell.name.to_string(),
            format!("{:.2}", cell.vm_ref_mips),
            format!("{:.2}", cell.vm_fast_mips),
            format!("{:.2}", cell.vm_speedup()),
            format!("{:.2}", cell.eng_ref_mips),
            format!("{:.2}", cell.eng_fast_mips),
            format!("{:.2}", cell.engine_speedup()),
            format!("{:.2}", cell.serve_mips),
            format!("{:.1}", cell.pct_reused),
            if cell.digest_ok && cell.counts_ok {
                "ok"
            } else {
                "MISMATCH"
            }
            .to_string(),
        ]);
    }
    if !cells.is_empty() {
        let n = cells.len() as f64;
        let mean = |f: &dyn Fn(&ThroughputCell) -> f64| cells.iter().map(f).sum::<f64>() / n;
        table.row(vec![
            "mean".to_string(),
            format!("{:.2}", mean(&|c| c.vm_ref_mips)),
            format!("{:.2}", mean(&|c| c.vm_fast_mips)),
            format!("{:.2}", mean(&|c| c.vm_speedup())),
            format!("{:.2}", mean(&|c| c.eng_ref_mips)),
            format!("{:.2}", mean(&|c| c.eng_fast_mips)),
            format!("{:.2}", mean(&|c| c.engine_speedup())),
            format!("{:.2}", mean(&|c| c.serve_mips)),
            format!("{:.1}", mean(&|c| c.pct_reused)),
            String::new(),
        ]);
    }
    table
}

/// Regression gate for CI.
///
/// Hard invariants: every fast/reference pair must agree on final
/// architectural state and (for the engine pair) on reuse decisions.
///
/// Timing is gated only on suite **means**, so one preempted CI row
/// cannot flip the verdict, and each gate matches what its layer
/// actually claims:
///
/// * predecode — the fast interpreter must average at least 2× the
///   observing one (measured ~10×);
/// * trace blocks — the warm serving-only engine must average at least
///   the reference engine's speed (measured ~8×);
/// * the *collecting* fast engine is observer-bound — every executed
///   instruction still materializes a `DynInstr` for the collector, in
///   both engines — so it is held to near-parity (≥ 0.8× mean), a
///   guard against gross regressions rather than a speedup claim.
pub fn check_throughput(cells: &[ThroughputCell]) -> Result<(), String> {
    for cell in cells {
        if !cell.digest_ok {
            return Err(format!(
                "{}: fast path diverged from reference architectural state",
                cell.name
            ));
        }
        if !cell.counts_ok {
            return Err(format!(
                "{}: fast engine disagreed with reference on reuse decisions",
                cell.name
            ));
        }
    }
    if cells.is_empty() {
        return Err("throughput produced no rows".to_string());
    }
    let n = cells.len() as f64;
    let vm_mean = cells.iter().map(ThroughputCell::vm_speedup).sum::<f64>() / n;
    let eng_mean = cells
        .iter()
        .map(ThroughputCell::engine_speedup)
        .sum::<f64>()
        / n;
    let serve_mean = cells.iter().map(|c| c.serve_mips).sum::<f64>() / n;
    let eng_ref_mean = cells.iter().map(|c| c.eng_ref_mips).sum::<f64>() / n;
    if vm_mean < 2.0 {
        return Err(format!(
            "predecoded fast path below 2x the observing interpreter on average ({vm_mean:.2}x)"
        ));
    }
    if serve_mean < eng_ref_mean {
        return Err(format!(
            "warm serving engine ({serve_mean:.2} MIPS) slower than the reference engine \
             ({eng_ref_mean:.2} MIPS) on average"
        ));
    }
    if eng_mean < 0.8 {
        return Err(format!(
            "collecting throughput engine fell well below reference parity ({eng_mean:.2}x mean)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_rows_agree_on_state_and_counts() {
        let cfg = HarnessConfig {
            budget: 20_000,
            ..HarnessConfig::quick()
        };
        let cells = run_throughput(&cfg, RtmConfig::RTM_4K);
        assert_eq!(cells.len(), tlr_workloads::all().len());
        for cell in &cells {
            assert!(cell.digest_ok, "{}: digest mismatch", cell.name);
            assert!(cell.counts_ok, "{}: count mismatch", cell.name);
            assert!(cell.vm_instrs > 0 && cell.eng_total > 0, "{}", cell.name);
        }
        let table = throughput_table(&cells);
        assert_eq!(table.len(), cells.len() + 1);
    }
}
