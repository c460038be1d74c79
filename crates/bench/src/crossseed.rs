//! Cross-seed warm start via value-independent trace identity (ours,
//! enabled by the shape fingerprint in `tlr-persist` format v6).
//!
//! A program's *value* fingerprint
//! ([`program_fingerprint`](tlr_persist::program_fingerprint)) covers its
//! data image, so two runs of the same kernel under different data
//! seeds look like different programs to the snapshot layer. The
//! *shape* fingerprint ([`program_shape_fingerprint`]) strips the data
//! image: same code, different data ⇒ equal shapes. This module
//! measures what that buys — for every workload, N data seeds each run
//! cold and export; one subject seed then warm-starts three ways:
//!
//! * **cold** — empty RTM, the baseline;
//! * **solo-warm** — from its *own* cold export (the ceiling);
//! * **cross-warm** — from the merge of the *other* seeds' exports,
//!   resolved purely by shape, exactly as the registry's
//!   `get_by_shape` fallback would pool donors for an unknown
//!   fingerprint.
//!
//! Donor snapshots round-trip through the `tlr-persist` binary codec
//! under their own (donor) fingerprints, so the shape field's
//! serialization is exercised end to end, and the merge's shape
//! agreement rule stamps the pooled snapshot. Safety is asserted, not
//! assumed: every engine run's architectural state is compared against
//! plain execution of the same dynamic instruction count — a donor's
//! data-dependent traces must be rejected by the live-in value check
//! at reuse time, never replayed into the wrong state.

use crate::harness::{codec_roundtrip, plain_digest, pool_run, run_collecting, HarnessConfig};
use tlr_core::{EngineConfig, EngineStats, Heuristic, RtmConfig, RtmSnapshot};
use tlr_persist::program_shape_fingerprint;
use tlr_stats::Table;

/// Data seeds per workload: one subject plus the donors it pools.
pub const SEEDS: usize = 3;

/// Cross-seed outcome for one workload.
pub struct CrossSeedCell {
    /// Benchmark name.
    pub name: &'static str,
    /// Shared shape fingerprint of all [`SEEDS`] variants.
    pub shape: u64,
    /// Subject seed's cold run (empty RTM).
    pub cold: EngineStats,
    /// Subject warm-started from its own cold export.
    pub solo_warm: EngineStats,
    /// Subject warm-started from the merged donor exports, resolved by
    /// shape alone.
    pub cross_warm: EngineStats,
    /// Traces in the merged donor pool.
    pub donor_traces: usize,
    /// Live-in value rejections during the cross-warm run — donor
    /// state probed at a matching PC but pinned to the wrong data.
    pub value_rejects: u64,
    /// The merged pool carried the subject's shape through the binary
    /// codec round-trip and the merge agreement rule.
    pub shape_preserved: bool,
    /// All three runs ended in exactly the architectural state plain
    /// execution of the same dynamic instruction count produces.
    pub digest_ok: bool,
}

/// Run the cross-seed comparison over every workload, in parallel.
pub fn run_crossseed(
    cfg: &HarnessConfig,
    rtm: RtmConfig,
    heuristic: Heuristic,
) -> Vec<CrossSeedCell> {
    let workloads = tlr_workloads::all();
    let threads = cfg.effective_threads(workloads.len());
    pool_run(threads, workloads, |w| {
        let config = EngineConfig::paper(rtm, heuristic);
        let subject = w.program(cfg.seed);
        let shape = program_shape_fingerprint(&subject);

        // Donor seeds: same kernel, different data images. Each runs
        // cold, stamps its shape, and round-trips through the binary
        // codec under its *own* fingerprint, as published files would.
        let mut donors = Vec::with_capacity(SEEDS - 1);
        for k in 1..SEEDS as u64 {
            let prog = w.program(cfg.seed + k);
            let donor_shape = program_shape_fingerprint(&prog);
            assert_eq!(
                donor_shape, shape,
                "{}: seed {k} changed the program's shape",
                w.name
            );
            let mut snap = run_collecting(w.name, &prog, config, None, 0, cfg.budget).export_rtm();
            snap.shape = donor_shape;
            donors.push(codec_roundtrip(w.name, &prog, &snap).0);
        }
        let merged = RtmSnapshot::merge(&donors)
            .unwrap_or_else(|e| panic!("{}: donor merge error: {e}", w.name));
        let shape_preserved = merged.shape == shape && donors.iter().all(|d| d.shape == shape);
        let donor_traces = merged.len();

        let run = |warm: Option<&RtmSnapshot>| {
            let engine = run_collecting(w.name, &subject, config, warm, 0, cfg.budget);
            let stats = engine.stats();
            let ok = engine.vm().state_digest() == plain_digest(&subject, stats.total());
            (stats, ok, engine)
        };
        let (cold, cold_ok, cold_engine) = run(None);
        // The solo warm start serves the cold run's own export.
        let (solo_warm, solo_ok, _) = run(Some(&cold_engine.export_rtm()));
        let (cross_warm, cross_ok, _) = run(Some(&merged));

        CrossSeedCell {
            name: w.name,
            shape,
            cold,
            solo_warm,
            donor_traces,
            value_rejects: cross_warm.rtm.value_rejects,
            cross_warm,
            shape_preserved,
            digest_ok: cold_ok && solo_ok && cross_ok,
        }
    })
}

/// Table: per benchmark, cold vs solo-warm vs cross-warm
/// `pct_reused()`, the donor pool's size, and the cross-warm run's
/// live-in value rejections, with arithmetic means on the last row.
pub fn crossseed_table(cells: &[CrossSeedCell]) -> Table {
    let mut table = Table::new(vec![
        "benchmark",
        "cold %",
        "solo-warm %",
        "cross-warm %",
        "cross-cold",
        "donor traces",
        "value rejects",
        "state",
    ]);
    let (mut cold_sum, mut solo_sum, mut cross_sum) = (0.0, 0.0, 0.0);
    for cell in cells {
        let cold = cell.cold.pct_reused();
        let solo = cell.solo_warm.pct_reused();
        let cross = cell.cross_warm.pct_reused();
        cold_sum += cold;
        solo_sum += solo;
        cross_sum += cross;
        table.row(vec![
            cell.name.to_string(),
            format!("{cold:.1}"),
            format!("{solo:.1}"),
            format!("{cross:.1}"),
            format!("{:+.1}", cross - cold),
            cell.donor_traces.to_string(),
            cell.value_rejects.to_string(),
            if cell.digest_ok && cell.shape_preserved {
                "ok"
            } else {
                "MISMATCH"
            }
            .to_string(),
        ]);
    }
    if !cells.is_empty() {
        let n = cells.len() as f64;
        table.row(vec![
            "mean".to_string(),
            format!("{:.1}", cold_sum / n),
            format!("{:.1}", solo_sum / n),
            format!("{:.1}", cross_sum / n),
            format!("{:+.1}", (cross_sum - cold_sum) / n),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    table
}

/// Per-cell slack for the cross-warm vs cold comparison, in percentage
/// points. Donor traces occupy RTM ways, so a cross-warm run's own
/// collection can lose a few replacement races a cold run wins; the
/// guarantee is safety per cell and profit in aggregate, not strict
/// per-cell dominance.
pub const CROSS_TOLERANCE_PCT: f64 = 1.0;

/// Regression gate for CI: every run must match plain execution's
/// architectural state, the shape must survive serialization and the
/// merge, no cell may reuse meaningfully less cross-warm than cold
/// (within [`CROSS_TOLERANCE_PCT`] of replacement noise), and across
/// the suite the donated state must be worth something (mean
/// cross-warm strictly above mean cold).
pub fn check_crossseed(cells: &[CrossSeedCell]) -> Result<(), String> {
    let (mut cold_sum, mut cross_sum) = (0.0, 0.0);
    for cell in cells {
        if !cell.digest_ok {
            return Err(format!(
                "{}: architectural state diverged from plain execution",
                cell.name
            ));
        }
        if !cell.shape_preserved {
            return Err(format!(
                "{}: shape fingerprint lost in round-trip or merge",
                cell.name
            ));
        }
        if cell.donor_traces == 0 {
            return Err(format!("{}: donor pool is empty", cell.name));
        }
        let (cold, cross) = (cell.cold.pct_reused(), cell.cross_warm.pct_reused());
        if cross < cold - CROSS_TOLERANCE_PCT {
            return Err(format!(
                "{}: cross-warm reuse {cross:.3}% below cold {cold:.3}% by more than \
                 the {CROSS_TOLERANCE_PCT} point replacement tolerance",
                cell.name
            ));
        }
        cold_sum += cold;
        cross_sum += cross;
    }
    if !cells.is_empty() && cross_sum <= cold_sum {
        return Err(format!(
            "cross-seed warm start bought nothing: mean cross-warm {:.3}% <= mean cold {:.3}%",
            cross_sum / cells.len() as f64,
            cold_sum / cells.len() as f64
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_seed_warm_start_is_safe_and_profitable() {
        let cfg = HarnessConfig {
            budget: 30_000,
            ..HarnessConfig::quick()
        };
        let cells = run_crossseed(&cfg, RtmConfig::RTM_4K, Heuristic::FixedExp(4));
        assert_eq!(cells.len(), tlr_workloads::all().len());
        check_crossseed(&cells).unwrap();
        let table = crossseed_table(&cells);
        assert_eq!(table.len(), cells.len() + 1);
    }
}
