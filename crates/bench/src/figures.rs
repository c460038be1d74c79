//! Table/figure builders: one function per paper artifact.
//!
//! Every builder returns a [`Table`] whose rows follow the paper's figure
//! x-axes (FP suite, AVG_FP, INT suite, AVG_INT, AVERAGE) with a "paper"
//! column next to the measured one. Averaging follows §4.1: harmonic for
//! speed-ups, arithmetic for percentages and sizes.

use crate::harness::{BenchResult, EngineCell};
use tlr_core::{Heuristic, RtmConfig};
use tlr_stats::{arithmetic_mean, harmonic_mean, BarChart, Table};
use tlr_workloads::Suite;

fn fmt2(v: f64) -> String {
    format!("{v:.2}")
}

fn fmt1(v: f64) -> String {
    format!("{v:.1}")
}

enum Mean {
    Arithmetic,
    Harmonic,
}

impl Mean {
    fn of(&self, values: &[f64]) -> f64 {
        match self {
            Mean::Arithmetic => arithmetic_mean(values).unwrap_or(0.0),
            Mean::Harmonic => harmonic_mean(values).unwrap_or(0.0),
        }
    }
}

/// Generic per-benchmark table with suite and overall averages.
fn per_benchmark_table(
    title_cols: Vec<&str>,
    results: &[BenchResult],
    value: impl Fn(&BenchResult) -> (f64, f64),
    mean: Mean,
    fmt: impl Fn(f64) -> String,
) -> Table {
    let mut table = Table::new(title_cols);
    let mut acc: Vec<(f64, f64)> = Vec::new();
    let mut all: Vec<(f64, f64)> = Vec::new();
    let flush_avg = |table: &mut Table, label: &str, acc: &mut Vec<(f64, f64)>| {
        let papers: Vec<f64> = acc.iter().map(|(p, _)| *p).collect();
        let measured: Vec<f64> = acc.iter().map(|(_, m)| *m).collect();
        table.row(vec![
            label.to_string(),
            fmt(mean.of(&papers)),
            fmt(mean.of(&measured)),
        ]);
        acc.clear();
    };
    let mut prev_suite = None;
    for r in results {
        if prev_suite == Some(Suite::Fp) && r.suite == Suite::Int {
            flush_avg(&mut table, "AVG_FP", &mut acc);
        }
        let (p, m) = value(r);
        table.row(vec![r.name.to_string(), fmt(p), fmt(m)]);
        acc.push((p, m));
        all.push((p, m));
        prev_suite = Some(r.suite);
    }
    flush_avg(&mut table, "AVG_INT", &mut acc);
    let mut all_v = all;
    flush_avg(&mut table, "AVERAGE", &mut all_v);
    table
}

/// ASCII chart companion for a per-benchmark metric.
pub fn chart(title: &str, results: &[BenchResult], value: impl Fn(&BenchResult) -> f64) -> String {
    let mut c = BarChart::new(title);
    for r in results {
        c.bar(r.name, value(r));
    }
    c.render()
}

/// Figure 3: instruction-level reusability (%), perfect engine.
pub fn fig3(results: &[BenchResult]) -> Table {
    per_benchmark_table(
        vec!["benchmark", "paper %", "measured %"],
        results,
        |r| (r.paper.reusability_pct, r.limit.reusability_pct),
        Mean::Arithmetic,
        fmt1,
    )
}

/// Figure 4a: ILR speed-up, infinite window, 1-cycle reuse latency.
pub fn fig4a(results: &[BenchResult]) -> Table {
    per_benchmark_table(
        vec!["benchmark", "paper", "measured"],
        results,
        |r| (r.paper.ilr_speedup_inf, r.limit.ilr_speedup_inf(1)),
        Mean::Harmonic,
        fmt2,
    )
}

/// Figure 4b: average ILR speed-up vs reuse latency, infinite window.
pub fn fig4b(results: &[BenchResult]) -> Table {
    latency_sweep_table(results, |r, lat| r.limit.ilr_speedup_inf(lat))
}

/// Figure 5a: ILR speed-up, W-entry window, 1-cycle reuse latency.
pub fn fig5a(results: &[BenchResult]) -> Table {
    per_benchmark_table(
        vec!["benchmark", "paper", "measured"],
        results,
        |r| (r.paper.ilr_speedup_w256, r.limit.ilr_speedup_win(1)),
        Mean::Harmonic,
        fmt2,
    )
}

/// Figure 5b: average ILR speed-up vs reuse latency, W-entry window.
pub fn fig5b(results: &[BenchResult]) -> Table {
    latency_sweep_table(results, |r, lat| r.limit.ilr_speedup_win(lat))
}

fn latency_sweep_table(
    results: &[BenchResult],
    speedup: impl Fn(&BenchResult, u64) -> f64,
) -> Table {
    let mut table = Table::new(vec!["reuse latency", "AVG speed-up (harmonic)"]);
    for lat in [1u64, 2, 3, 4] {
        let values: Vec<f64> = results.iter().map(|r| speedup(r, lat)).collect();
        table.row(vec![
            lat.to_string(),
            fmt2(harmonic_mean(&values).unwrap_or(0.0)),
        ]);
    }
    table
}

/// Figure 6a: TLR speed-up, infinite window, 1-cycle latency.
pub fn fig6a(results: &[BenchResult]) -> Table {
    per_benchmark_table(
        vec!["benchmark", "paper", "measured"],
        results,
        |r| (r.paper.tlr_speedup_inf, r.limit.tlr_speedup_inf(1)),
        Mean::Harmonic,
        fmt2,
    )
}

/// Figure 6b: TLR speed-up, W-entry window, 1-cycle latency.
pub fn fig6b(results: &[BenchResult]) -> Table {
    per_benchmark_table(
        vec!["benchmark", "paper", "measured"],
        results,
        |r| (r.paper.tlr_speedup_w256, r.limit.tlr_speedup_win(1)),
        Mean::Harmonic,
        fmt2,
    )
}

/// Figure 7: average (maximal reusable) trace size.
pub fn fig7(results: &[BenchResult]) -> Table {
    per_benchmark_table(
        vec!["benchmark", "paper", "measured"],
        results,
        |r| (r.paper.trace_size, r.limit.trace_stats.avg_size()),
        Mean::Arithmetic,
        fmt1,
    )
}

/// Figure 8a: average TLR speed-up vs constant reuse latency, W window.
pub fn fig8a(results: &[BenchResult]) -> Table {
    let mut table = Table::new(vec!["reuse latency", "AVG speed-up (harmonic)"]);
    for lat in [1u64, 2, 3, 4] {
        let values: Vec<f64> = results
            .iter()
            .map(|r| r.limit.tlr_speedup_win(lat))
            .collect();
        table.row(vec![
            lat.to_string(),
            fmt2(harmonic_mean(&values).unwrap_or(0.0)),
        ]);
    }
    table
}

/// Figure 8b: average TLR speed-up vs proportional latency K, W window.
pub fn fig8b(results: &[BenchResult]) -> Table {
    let mut table = Table::new(vec!["K", "AVG speed-up (harmonic)"]);
    for (label, k) in [
        ("1/32", 1.0 / 32.0),
        ("1/16", 1.0 / 16.0),
        ("1/8", 1.0 / 8.0),
        ("1/4", 1.0 / 4.0),
        ("1/2", 1.0 / 2.0),
        ("1", 1.0),
    ] {
        let values: Vec<f64> = results.iter().map(|r| r.limit.tlr_speedup_k(k)).collect();
        table.row(vec![
            label.to_string(),
            fmt2(harmonic_mean(&values).unwrap_or(0.0)),
        ]);
    }
    table
}

/// §4.5 text: per-trace I/O and per-reused-instruction bandwidth.
pub fn io_table(results: &[BenchResult]) -> Table {
    let avg = |f: &dyn Fn(&BenchResult) -> f64| {
        arithmetic_mean(&results.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let mut table = Table::new(vec!["metric", "paper", "measured"]);
    let rows: Vec<(&str, f64, f64)> = vec![
        (
            "inputs / trace",
            6.5,
            avg(&|r| r.limit.trace_stats.avg_inputs()),
        ),
        (
            "  register inputs",
            2.7,
            avg(&|r| {
                let ts = &r.limit.trace_stats;
                if ts.traces == 0 {
                    0.0
                } else {
                    ts.reg_ins as f64 / ts.traces as f64
                }
            }),
        ),
        (
            "  memory inputs",
            3.8,
            avg(&|r| {
                let ts = &r.limit.trace_stats;
                if ts.traces == 0 {
                    0.0
                } else {
                    ts.mem_ins as f64 / ts.traces as f64
                }
            }),
        ),
        (
            "outputs / trace",
            5.0,
            avg(&|r| r.limit.trace_stats.avg_outputs()),
        ),
        (
            "  register outputs",
            3.3,
            avg(&|r| {
                let ts = &r.limit.trace_stats;
                if ts.traces == 0 {
                    0.0
                } else {
                    ts.reg_outs as f64 / ts.traces as f64
                }
            }),
        ),
        (
            "  memory outputs",
            1.7,
            avg(&|r| {
                let ts = &r.limit.trace_stats;
                if ts.traces == 0 {
                    0.0
                } else {
                    ts.mem_outs as f64 / ts.traces as f64
                }
            }),
        ),
        (
            "instructions / trace",
            15.0,
            avg(&|r| r.limit.trace_stats.avg_size()),
        ),
        (
            "reads / reused instr",
            0.43,
            avg(&|r| r.limit.trace_stats.reads_per_reused_instr()),
        ),
        (
            "writes / reused instr",
            0.33,
            avg(&|r| r.limit.trace_stats.writes_per_reused_instr()),
        ),
    ];
    for (name, paper, measured) in rows {
        table.row(vec![name.to_string(), fmt2(paper), fmt2(measured)]);
    }
    table
}

/// Ablation (ours): window accounting for a reused trace — 0 slots
/// (ideal bypass) vs 1 slot (the paper's precise-exception reuse op).
pub fn ablation_slots(results: &[BenchResult]) -> Table {
    let mut table = Table::new(vec!["benchmark", "1 slot", "0 slots"]);
    for r in results {
        table.row(vec![
            r.name.to_string(),
            fmt2(r.limit.tlr_speedup_win(1)),
            fmt2(r.limit.tlr_speedup_slots0()),
        ]);
    }
    let one: Vec<f64> = results.iter().map(|r| r.limit.tlr_speedup_win(1)).collect();
    let zero: Vec<f64> = results
        .iter()
        .map(|r| r.limit.tlr_speedup_slots0())
        .collect();
    table.row(vec![
        "AVERAGE".to_string(),
        fmt2(harmonic_mean(&one).unwrap_or(0.0)),
        fmt2(harmonic_mean(&zero).unwrap_or(0.0)),
    ]);
    table
}

/// Figure 9a: % of dynamic instructions reused, per heuristic × RTM size
/// (arithmetic average over the 14 benchmarks, as in the paper).
pub fn fig9a(cells: &[EngineCell], rtms: &[RtmConfig], heuristics: &[Heuristic]) -> Table {
    fig9_grid(cells, rtms, heuristics, |s| s.pct_reused(), fmt1)
}

/// Figure 9b: average reused-trace size, per heuristic × RTM size.
pub fn fig9b(cells: &[EngineCell], rtms: &[RtmConfig], heuristics: &[Heuristic]) -> Table {
    fig9_grid(cells, rtms, heuristics, |s| s.avg_reused_trace_size(), fmt2)
}

/// Pipeline-level ablation (ours): per benchmark, IPC under the §3
/// pipeline with reuse fully on, with fetch-skip disabled, and with
/// 0-slot traces, next to the no-reuse baseline.
pub fn pipeline_ablation(cfg: &crate::harness::HarnessConfig) -> Table {
    use tlr_core::Heuristic;
    let mut table = Table::new(vec![
        "benchmark",
        "base IPC",
        "reuse IPC",
        "no-fetch-skip IPC",
        "0-slot IPC",
        "fetch saved %",
    ]);
    for w in tlr_workloads::all() {
        let prog = w.program(cfg.seed);
        let rows = tlr_pipeline::run_ablation(
            &prog,
            RtmConfig::RTM_4K,
            Heuristic::FixedExp(4),
            cfg.budget,
        )
        .unwrap_or_else(|e| panic!("{}: pipeline error: {e}", w.name));
        let ipc = |label: &str| {
            rows.iter()
                .find(|r| r.label == label)
                .map(|r| r.stats.ipc())
                .unwrap_or(0.0)
        };
        let saving = rows
            .iter()
            .find(|r| r.label == "reuse (fetch-skip, 1 slot)")
            .map(|r| 100.0 * r.stats.fetch_saving())
            .unwrap_or(0.0);
        table.row(vec![
            w.name.to_string(),
            fmt2(ipc("no reuse")),
            fmt2(ipc("reuse (fetch-skip, 1 slot)")),
            fmt2(ipc("reuse, no fetch-skip")),
            fmt2(ipc("reuse, 0-slot traces")),
            fmt1(saving),
        ]);
    }
    table
}

/// §3.3 reuse-test comparison (ours): value-comparison RTM vs valid-bit
/// RTM with invalidation, same geometry and heuristic.
pub fn validbit_table(cfg: &crate::harness::HarnessConfig) -> Table {
    use tlr_core::{Engine, EngineConfig, Heuristic, InvalidatingRtm};
    let mut table = Table::new(vec![
        "benchmark",
        "value-compare %",
        "valid-bit %",
        "vb avg trace",
    ]);
    let mut vals: Vec<(f64, f64)> = Vec::new();
    for w in tlr_workloads::all() {
        let prog = w.program(cfg.seed);
        let base = EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4));
        let value = tlr_core::run_engine(&prog, base, cfg.budget)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let vb = Engine::<InvalidatingRtm>::new(&prog, base)
            .run(cfg.budget)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        vals.push((value.pct_reused(), vb.pct_reused()));
        table.row(vec![
            w.name.to_string(),
            fmt1(value.pct_reused()),
            fmt1(vb.pct_reused()),
            fmt2(vb.avg_reused_trace_size()),
        ]);
    }
    let (v, b): (Vec<f64>, Vec<f64>) = vals.into_iter().unzip();
    table.row(vec![
        "AVERAGE".to_string(),
        fmt1(arithmetic_mean(&v).unwrap_or(0.0)),
        fmt1(arithmetic_mean(&b).unwrap_or(0.0)),
        String::new(),
    ]);
    table
}

/// §2 instruction-reuse scheme comparison (Sodani & Sohi): Sv (operand
/// values) vs Sn (operand names + valid bit), same capacity.
pub fn schemes_table(cfg: &crate::harness::HarnessConfig) -> Table {
    use tlr_core::{compare_schemes, SetAssocGeometry};
    use tlr_isa::{DynInstr, StreamSink};
    let geometry = SetAssocGeometry {
        sets: 256,
        ways: 8,
        per_pc: 16,
    };
    struct Sink {
        records: Vec<DynInstr>,
    }
    impl StreamSink for Sink {
        fn observe(&mut self, d: &DynInstr) {
            self.records.push(d.clone());
        }
    }
    let mut table = Table::new(vec!["benchmark", "Sv %", "Sn %"]);
    let mut vals: Vec<(f64, f64)> = Vec::new();
    for w in tlr_workloads::all() {
        let prog = w.program(cfg.seed);
        let mut vm = tlr_vm::Vm::new(&prog);
        let mut sink = Sink {
            records: Vec::with_capacity(cfg.budget as usize),
        };
        vm.run(cfg.budget, &mut sink)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let cmp = compare_schemes(sink.records.iter(), geometry);
        vals.push((cmp.sv_pct, cmp.sn_pct));
        table.row(vec![w.name.to_string(), fmt1(cmp.sv_pct), fmt1(cmp.sn_pct)]);
    }
    let (sv, sn): (Vec<f64>, Vec<f64>) = vals.into_iter().unzip();
    table.row(vec![
        "AVERAGE".to_string(),
        fmt1(arithmetic_mean(&sv).unwrap_or(0.0)),
        fmt1(arithmetic_mean(&sn).unwrap_or(0.0)),
    ]);
    table
}

fn fig9_grid(
    cells: &[EngineCell],
    rtms: &[RtmConfig],
    heuristics: &[Heuristic],
    metric: impl Fn(&tlr_core::EngineStats) -> f64,
    fmt: impl Fn(f64) -> String,
) -> Table {
    let mut headers = vec!["heuristic".to_string()];
    headers.extend(rtms.iter().map(|r| format!("{} traces", r.label())));
    let mut table = Table::new(headers);
    for &h in heuristics {
        let mut row = vec![h.label()];
        for &rtm in rtms {
            let values: Vec<f64> = cells
                .iter()
                .filter(|c| c.rtm == rtm && c.heuristic == h)
                .map(|c| metric(&c.stats))
                .collect();
            row.push(fmt(arithmetic_mean(&values).unwrap_or(0.0)));
        }
        table.row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_engine_grid, run_limit_studies, HarnessConfig};

    fn tiny_results() -> Vec<BenchResult> {
        run_limit_studies(&HarnessConfig {
            budget: 6_000,
            ..HarnessConfig::default()
        })
    }

    #[test]
    fn per_benchmark_tables_have_expected_rows() {
        let results = tiny_results();
        let t = fig3(&results);
        // 14 benchmarks + AVG_FP + AVG_INT + AVERAGE.
        assert_eq!(t.len(), 17);
        let text = t.to_text();
        assert!(text.contains("AVG_FP"));
        assert!(text.contains("AVG_INT"));
        assert!(text.contains("AVERAGE"));
        assert!(text.contains("hydro2d"));
        for builder in [fig4a, fig5a, fig6a, fig6b, fig7] {
            assert_eq!(builder(&results).len(), 17);
        }
        for builder in [fig4b, fig5b, fig8a] {
            assert_eq!(builder(&results).len(), 4);
        }
        assert_eq!(fig8b(&results).len(), 6);
        assert_eq!(io_table(&results).len(), 9);
        assert_eq!(ablation_slots(&results).len(), 15);
    }

    #[test]
    fn fig9_grid_rows_and_cols() {
        let cfg = HarnessConfig {
            budget: 4_000,
            ..HarnessConfig::default()
        };
        let rtms = [RtmConfig::RTM_512, RtmConfig::RTM_4K];
        let heuristics = [Heuristic::IlrNe, Heuristic::FixedExp(2)];
        let cells = run_engine_grid(&cfg, &rtms, &heuristics);
        let t = fig9a(&cells, &rtms, &heuristics);
        assert_eq!(t.len(), 2);
        let text = t.to_text();
        assert!(text.contains("512 traces"));
        assert!(text.contains("4K traces"));
        assert!(text.contains("ILR NE"));
        assert!(text.contains("I2 EXP"));
    }
}
