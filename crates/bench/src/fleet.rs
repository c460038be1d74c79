//! Fleet pooling: solo-warm vs merged-warm comparison (ours, enabled by
//! `tlr-serve`).
//!
//! A fleet serving many runs of one program accumulates *several* RTM
//! snapshots of it — different runs explore different traces (here:
//! different collection heuristics stand in for run-to-run diversity).
//! The snapshot registry pools them with [`RtmSnapshot::merge`] before
//! warm-starting. This experiment measures what the pooling buys: for
//! every workload, two cold runs under different heuristics each export
//! a snapshot; a third configuration then warm-starts from snapshot A
//! alone, from B alone, and from `merge(A, B)`.
//!
//! What pooling guarantees — and what it cannot: the merged warm start
//! is never worse than the *weaker* solo warm start on any workload,
//! and on average it beats the *better* one (both gated by
//! [`check_fleet`]). It is not always ≥ the better solo on *every*
//! workload: when the union of two runs' traces exceeds what the RTM
//! geometry can hold, something must be evicted, and the evicted half
//! can be the one the better solo run kept (workloads whose union fits,
//! e.g. `ijpeg`, do reuse strictly more from the merge — the
//! integration tests pin that).
//!
//! The merged snapshot round-trips through the `tlr-persist` binary
//! codec in memory, so the comparison also exercises snapshot
//! validation on real merged state. Each workload's two cold producers,
//! their merge and the three warm starts run as one worker task.

use crate::harness::{codec_roundtrip, pool_run, run_collecting, HarnessConfig};
use tlr_core::{
    EngineConfig, EngineStats, Heuristic, ReplacementPolicy, RtmConfig, RtmSnapshot, LFU_HALF_LIFE,
};
use tlr_stats::Table;

/// The two cold-run heuristics standing in for run-to-run diversity,
/// and the heuristic of the warm serving runs.
pub const FLEET_COLD_A: Heuristic = Heuristic::FixedExp(2);
/// Second cold producer (see [`FLEET_COLD_A`]).
pub const FLEET_COLD_B: Heuristic = Heuristic::FixedExp(6);
/// Heuristic the warm serving runs collect with.
pub const FLEET_WARM: Heuristic = Heuristic::FixedExp(4);

/// Solo-warm vs merged-warm outcome for one workload.
pub struct FleetCell {
    /// Benchmark name.
    pub name: &'static str,
    /// Warm run seeded from cold run A's snapshot alone.
    pub warm_a: EngineStats,
    /// Warm run seeded from cold run B's snapshot alone.
    pub warm_b: EngineStats,
    /// Warm run seeded from `merge(A, B)`.
    pub warm_merged: EngineStats,
    /// Traces in the merged snapshot.
    pub merged_traces: usize,
    /// Input traces across both snapshots before deduplication.
    pub input_traces: usize,
    /// Conflicting records resolved during the merge (0 for snapshots
    /// of one deterministic program).
    pub conflicts: u64,
}

/// Run the fleet comparison over every workload, in parallel.
pub fn run_fleet(cfg: &HarnessConfig, rtm: RtmConfig) -> Vec<FleetCell> {
    let workloads = tlr_workloads::all();
    let threads = cfg.effective_threads(workloads.len());
    pool_run(threads, workloads, |w| {
        let prog = w.program(cfg.seed);
        let cold = |heuristic: Heuristic| {
            let config = EngineConfig::paper(rtm, heuristic);
            run_collecting(w.name, &prog, config, None, 0, cfg.budget).export_rtm()
        };
        let inputs = [cold(FLEET_COLD_A), cold(FLEET_COLD_B)];
        let outcome = RtmSnapshot::merge_detailed(&inputs, ReplacementPolicy::Lru, LFU_HALF_LIFE)
            .unwrap_or_else(|e| panic!("{}: merge error: {e}", w.name));
        // Round-trip the merge through the codec, as the registry's
        // disk path would.
        let (merged, _) = codec_roundtrip(w.name, &prog, &outcome.snapshot);
        let warm = |snapshot: &RtmSnapshot| {
            let config = EngineConfig::paper(rtm, FLEET_WARM);
            run_collecting(w.name, &prog, config, Some(snapshot), 0, cfg.budget).stats()
        };
        FleetCell {
            name: w.name,
            warm_a: warm(&inputs[0]),
            warm_b: warm(&inputs[1]),
            warm_merged: warm(&merged),
            merged_traces: merged.traces.len(),
            input_traces: outcome.input_traces,
            conflicts: outcome.conflicts,
        }
    })
}

/// Table: per benchmark, solo-warm A/B vs merged-warm `pct_reused()`
/// and the merge's dedup ratio, with means on the last row.
pub fn fleet_table(cells: &[FleetCell]) -> Table {
    let mut table = Table::new(vec![
        "benchmark",
        "warm A %",
        "warm B %",
        "merged %",
        "delta vs best solo",
        "merged traces",
        "input traces",
    ]);
    let (mut a_sum, mut b_sum, mut m_sum) = (0.0, 0.0, 0.0);
    for cell in cells {
        let a = cell.warm_a.pct_reused();
        let b = cell.warm_b.pct_reused();
        let m = cell.warm_merged.pct_reused();
        a_sum += a;
        b_sum += b;
        m_sum += m;
        table.row(vec![
            cell.name.to_string(),
            format!("{a:.1}"),
            format!("{b:.1}"),
            format!("{m:.1}"),
            format!("{:+.1}", m - a.max(b)),
            cell.merged_traces.to_string(),
            cell.input_traces.to_string(),
        ]);
    }
    if !cells.is_empty() {
        let n = cells.len() as f64;
        table.row(vec![
            "mean".to_string(),
            format!("{:.1}", a_sum / n),
            format!("{:.1}", b_sum / n),
            format!("{:.1}", m_sum / n),
            format!("{:+.1}", (m_sum - a_sum.max(b_sum)) / n),
            String::new(),
            String::new(),
        ]);
    }
    table
}

/// Regression gate for CI, checking what pooling soundly guarantees:
/// per workload, merged-warm reuse is at least the *weaker* solo-warm
/// reuse (a merge never costs more than its least useful contributor);
/// averaged over the suite, merged-warm beats the better solo mean; and
/// merging snapshots of one deterministic program reports no conflicts.
pub fn check_fleet(cells: &[FleetCell]) -> Result<(), String> {
    let (mut a_sum, mut b_sum, mut m_sum) = (0.0f64, 0.0f64, 0.0f64);
    for cell in cells {
        let (a, b) = (cell.warm_a.pct_reused(), cell.warm_b.pct_reused());
        let merged = cell.warm_merged.pct_reused();
        a_sum += a;
        b_sum += b;
        m_sum += merged;
        if merged < a.min(b) - 1e-9 {
            return Err(format!(
                "{}: merged-warm reuse {merged:.3}% below the weaker solo-warm {:.3}%",
                cell.name,
                a.min(b)
            ));
        }
        if cell.conflicts != 0 {
            return Err(format!(
                "{}: {} conflicting records while merging snapshots of one program",
                cell.name, cell.conflicts
            ));
        }
    }
    if !cells.is_empty() && m_sum < a_sum.max(b_sum) - 1e-9 {
        return Err(format!(
            "suite mean: merged-warm {:.3}% below best solo-warm mean {:.3}%",
            m_sum / cells.len() as f64,
            a_sum.max(b_sum) / cells.len() as f64
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_pooling_invariants_hold() {
        let cfg = HarnessConfig {
            budget: 30_000,
            ..HarnessConfig::quick()
        };
        let cells = run_fleet(&cfg, RtmConfig::RTM_32K);
        assert_eq!(cells.len(), tlr_workloads::all().len());
        check_fleet(&cells).unwrap();
        for cell in &cells {
            assert!(cell.merged_traces > 0, "{}: empty merge", cell.name);
            assert!(
                cell.merged_traces <= cell.input_traces,
                "{}: merge grew the trace set",
                cell.name
            );
        }
        let table = fleet_table(&cells);
        assert_eq!(table.len(), cells.len() + 1);
    }
}
