//! Cold vs warm engine comparison (ours, enabled by `tlr-persist`).
//!
//! The paper's engine always starts with an empty RTM, so every run pays
//! the full trace-collection cost before any reuse happens. With RTM
//! snapshots that cost can be paid once: a **cold** run collects traces
//! and exports its RTM; a **warm** run of the same workload imports it
//! and reuses from the very first fetch. This module measures that gap —
//! the value proposition of persistent reuse state for serving many
//! short runs of the same scenarios.
//!
//! The snapshot additionally round-trips through the `tlr-persist`
//! binary codec in memory, so the comparison also exercises (and sizes)
//! the serialized form rather than a by-reference shortcut.

use crate::harness::{codec_roundtrip, pool_run, run_collecting, HarnessConfig};
use tlr_core::{EngineConfig, EngineStats, Heuristic, RtmConfig};
use tlr_stats::Table;

/// Cold/warm outcome for one workload.
pub struct WarmStartCell {
    /// Benchmark name.
    pub name: &'static str,
    /// Stats of the cold run (empty RTM at entry).
    pub cold: EngineStats,
    /// Stats of the warm run (RTM imported from the cold run's export).
    pub warm: EngineStats,
    /// Traces carried by the snapshot.
    pub snapshot_traces: usize,
    /// Size of the snapshot's binary serialization.
    pub snapshot_bytes: usize,
}

/// Run the cold/warm comparison over every workload, in parallel.
pub fn run_warm_start(
    cfg: &HarnessConfig,
    rtm: RtmConfig,
    heuristic: Heuristic,
) -> Vec<WarmStartCell> {
    let workloads = tlr_workloads::all();
    let threads = cfg.effective_threads(workloads.len());
    pool_run(threads, workloads, |w| {
        let prog = w.program(cfg.seed);
        let config = EngineConfig::paper(rtm, heuristic);
        let cold = run_collecting(w.name, &prog, config, None, 0, cfg.budget);
        // Serialize and re-load, as a real warm start off disk would.
        let (loaded, snapshot_bytes) = codec_roundtrip(w.name, &prog, &cold.export_rtm());
        let warm = run_collecting(w.name, &prog, config, Some(&loaded), 0, cfg.budget);
        WarmStartCell {
            name: w.name,
            cold: cold.stats(),
            warm: warm.stats(),
            snapshot_traces: loaded.traces.len(),
            snapshot_bytes,
        }
    })
}

/// Table: per benchmark, cold vs warm `pct_reused()` and the snapshot's
/// size, with arithmetic means on the last row.
pub fn warm_start_table(cells: &[WarmStartCell]) -> Table {
    let mut table = Table::new(vec![
        "benchmark",
        "cold reused %",
        "warm reused %",
        "delta",
        "snapshot traces",
        "snapshot KiB",
    ]);
    let mut cold_sum = 0.0;
    let mut warm_sum = 0.0;
    for cell in cells {
        let cold = cell.cold.pct_reused();
        let warm = cell.warm.pct_reused();
        cold_sum += cold;
        warm_sum += warm;
        table.row(vec![
            cell.name.to_string(),
            format!("{cold:.1}"),
            format!("{warm:.1}"),
            format!("{:+.1}", warm - cold),
            cell.snapshot_traces.to_string(),
            format!("{:.1}", cell.snapshot_bytes as f64 / 1024.0),
        ]);
    }
    if !cells.is_empty() {
        let n = cells.len() as f64;
        table.row(vec![
            "mean".to_string(),
            format!("{:.1}", cold_sum / n),
            format!("{:.1}", warm_sum / n),
            format!("{:+.1}", (warm_sum - cold_sum) / n),
            String::new(),
            String::new(),
        ]);
    }
    table
}

/// Regression gate for CI: a warm start must never reuse less than the
/// cold run it was seeded from (within float noise), and every snapshot
/// must carry traces.
pub fn check_warm_start(cells: &[WarmStartCell]) -> Result<(), String> {
    for cell in cells {
        let (cold, warm) = (cell.cold.pct_reused(), cell.warm.pct_reused());
        if warm < cold - 1e-9 {
            return Err(format!(
                "{}: warm reuse {warm:.3}% below cold {cold:.3}%",
                cell.name
            ));
        }
        if cell.snapshot_traces == 0 {
            return Err(format!(
                "{}: cold run exported an empty snapshot",
                cell.name
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_never_reuses_less_than_cold() {
        let cfg = HarnessConfig {
            budget: 30_000,
            ..HarnessConfig::quick()
        };
        let cells = run_warm_start(&cfg, RtmConfig::RTM_4K, Heuristic::FixedExp(4));
        assert_eq!(cells.len(), tlr_workloads::all().len());
        for cell in &cells {
            assert!(
                cell.warm.pct_reused() >= cell.cold.pct_reused() - 1e-9,
                "{}: warm {} < cold {}",
                cell.name,
                cell.warm.pct_reused(),
                cell.cold.pct_reused()
            );
            assert!(cell.snapshot_traces > 0, "{}: empty snapshot", cell.name);
        }
        let table = warm_start_table(&cells);
        assert_eq!(table.len(), cells.len() + 1);
    }
}
