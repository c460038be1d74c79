//! The replacement-policy sweep (ours, enabled by `tlr-core::policy`).
//!
//! The paper hard-wires LRU into the RTM; the pluggable
//! [`ReplacementPolicy`] makes the ROADMAP's "could a frequency-weighted
//! policy beat recency under merge contention?" an empirical question.
//! This experiment answers it per workload at `RTM_32K`: for each of the
//! three policies, a **cold** run (the policy governs live collection
//! eviction) and a **merged-warm** run (two diverse cold producers'
//! snapshots are pooled with [`RtmSnapshot::merge_detailed`] under the
//! policy, then a warm run serves from the pool).
//!
//! A fourth configuration closes the tap → decant → policy loop: per
//! workload, a tapped probe run under plain cost/benefit is decanted
//! ([`tlr_decant::decant`]) into measured per-class weights
//! ([`Attribution::class_weights`]), and the sweep then runs
//! [`ReplacementPolicy::CostBenefitMeasured`] with those weights
//! alongside the built-in length-weighted variant.
//!
//! Replacement never touches the reuse *test*, so every configuration
//! must leave the architecture exactly where plain execution leaves it.
//! Each engine run is checked against a fresh plain-VM run of the same
//! dynamic instruction count ([`PolicyCell::state_ok`]); `--check` turns
//! any mismatch into a nonzero exit.
//!
//! [`Attribution::class_weights`]: tlr_decant::Attribution::class_weights

use crate::fleet::{FLEET_COLD_A, FLEET_COLD_B, FLEET_WARM};
use crate::harness::{pool_run, HarnessConfig};
use tlr_core::{
    ClassWeights, EngineConfig, EngineStats, Heuristic, ReplacementPolicy, RtmConfig, RtmSnapshot,
    TraceReuseEngine, LFU_HALF_LIFE,
};
use tlr_isa::{Alpha21164, NullSink};
use tlr_stats::Table;
use tlr_vm::Vm;

/// Full-architectural-state digest: every register (integer and FP) and
/// every initialized memory word, in a canonical order. Now provided by
/// the VM itself ([`Vm::state_digest`]) so the CLI and the daemon gate
/// share the exact same equality token; kept here as an alias for the
/// bench API.
pub fn state_digest(vm: &Vm) -> u64 {
    vm.state_digest()
}

/// One workload × policy outcome.
pub struct PolicyCell {
    /// Benchmark name.
    pub name: &'static str,
    /// Replacement policy under test.
    pub policy: ReplacementPolicy,
    /// Cold run (empty RTM, the policy governs collection eviction).
    pub cold: EngineStats,
    /// Warm run seeded from the policy-merged producer pool.
    pub merged_warm: EngineStats,
    /// Traces in the merged snapshot.
    pub merged_traces: usize,
    /// Hit-weighted residency of the merged snapshot (sum of persisted
    /// per-trace hit counts).
    pub merged_hits: u64,
    /// Architectural-state equality: both runs ended in exactly the
    /// state plain execution of the same dynamic instruction count
    /// produces.
    pub state_ok: bool,
}

/// Plain-VM digest after exactly `total` dynamic instructions.
fn baseline_digest(prog: &tlr_asm::Program, total: u64) -> u64 {
    let mut vm = Vm::new(prog);
    vm.run(total, &mut NullSink)
        .unwrap_or_else(|e| panic!("baseline vm error: {e}"));
    state_digest(&vm)
}

/// Label of the decant-derived measured-weights configuration in the
/// sweep (it is not a member of [`ReplacementPolicy::ALL`] because its
/// weights are measured per workload, not fixed).
pub fn measured_label() -> &'static str {
    ReplacementPolicy::CostBenefitMeasured(ClassWeights::UNIT).label()
}

/// Run the policy sweep over every workload × policy, in parallel.
///
/// Tasks carry `Some(policy)` for the three fixed policies and `None`
/// for the measured-weights configuration, which first derives its
/// [`ClassWeights`] from a tapped probe run of the same workload.
pub fn run_policy_sweep(cfg: &HarnessConfig, rtm: RtmConfig) -> Vec<PolicyCell> {
    let mut tasks = Vec::new();
    for w in tlr_workloads::all() {
        for policy in ReplacementPolicy::ALL {
            tasks.push((w, Some(policy)));
        }
        tasks.push((w, None));
    }
    let threads = cfg.effective_threads(tasks.len());
    pool_run(threads, tasks, |(w, preset)| {
        let prog = w.program(cfg.seed);
        let policy = match preset {
            Some(policy) => policy,
            None => {
                // Tapped probe run under plain cost/benefit; its decanted
                // attribution prices each opcode class by measured saved
                // cycles per skipped instruction.
                let config = EngineConfig::paper(rtm, FLEET_WARM)
                    .with_policy(ReplacementPolicy::CostBenefit);
                let mut probe = TraceReuseEngine::new(&prog, config);
                probe.enable_tap_with_cap(usize::try_from(cfg.budget).unwrap_or(usize::MAX));
                probe
                    .run(cfg.budget)
                    .unwrap_or_else(|e| panic!("{}: probe engine error: {e}", w.name));
                let weights = tlr_decant::decant(probe.tap().expect("tap was enabled"))
                    .class_weights(&Alpha21164);
                ReplacementPolicy::CostBenefitMeasured(weights)
            }
        };
        let run = |config: EngineConfig, warm: Option<&RtmSnapshot>| -> (EngineStats, bool) {
            let mut engine = match warm {
                Some(snapshot) => TraceReuseEngine::new_warm(&prog, config, snapshot),
                None => TraceReuseEngine::new(&prog, config),
            };
            let stats = engine
                .run(cfg.budget)
                .unwrap_or_else(|e| panic!("{} [{policy}]: engine error: {e}", w.name));
            // The engine made `total()` instructions of progress; plain
            // execution of the same count must land in the same state.
            let ok = state_digest(engine.vm()) == baseline_digest(&prog, stats.total());
            (stats, ok)
        };

        let cold_config = EngineConfig::paper(rtm, FLEET_WARM).with_policy(policy);
        let (cold, cold_ok) = run(cold_config, None);

        let producer = |heuristic: Heuristic| -> RtmSnapshot {
            let config = EngineConfig::paper(rtm, heuristic).with_policy(policy);
            let mut engine = TraceReuseEngine::new(&prog, config);
            engine
                .run(cfg.budget)
                .unwrap_or_else(|e| panic!("{} [{policy}]: producer error: {e}", w.name));
            engine
                .export_rtm()
                .expect("value-comparison backend snapshots")
        };
        let inputs = [producer(FLEET_COLD_A), producer(FLEET_COLD_B)];
        let merged = RtmSnapshot::merge_detailed(&inputs, policy, LFU_HALF_LIFE)
            .unwrap_or_else(|e| panic!("{} [{policy}]: merge error: {e}", w.name))
            .snapshot;
        let (merged_warm, warm_ok) = run(cold_config, Some(&merged));

        PolicyCell {
            name: w.name,
            policy,
            cold,
            merged_warm,
            merged_traces: merged.len(),
            merged_hits: merged.total_hits(),
            state_ok: cold_ok && warm_ok,
        }
    })
}

/// Table: per benchmark × policy, cold vs merged-warm `pct_reused()`
/// and the pool's size/heat, with per-policy means on the last rows.
pub fn policy_table(cells: &[PolicyCell]) -> Table {
    let mut table = Table::new(vec![
        "benchmark",
        "policy",
        "cold %",
        "merged-warm %",
        "delta",
        "merged traces",
        "merged hits",
        "state",
    ]);
    for cell in cells {
        let cold = cell.cold.pct_reused();
        let warm = cell.merged_warm.pct_reused();
        table.row(vec![
            cell.name.to_string(),
            cell.policy.label().to_string(),
            format!("{cold:.1}"),
            format!("{warm:.1}"),
            format!("{:+.1}", warm - cold),
            cell.merged_traces.to_string(),
            cell.merged_hits.to_string(),
            if cell.state_ok { "ok" } else { "MISMATCH" }.to_string(),
        ]);
    }
    let mut labels: Vec<&'static str> = ReplacementPolicy::ALL.iter().map(|p| p.label()).collect();
    labels.push(measured_label());
    for label in labels {
        // Group by label: measured cells carry per-workload weights, so
        // they never compare equal as policies but share one label.
        let subset: Vec<&PolicyCell> = cells.iter().filter(|c| c.policy.label() == label).collect();
        if subset.is_empty() {
            continue;
        }
        let n = subset.len() as f64;
        let cold: f64 = subset.iter().map(|c| c.cold.pct_reused()).sum::<f64>() / n;
        let warm: f64 = subset
            .iter()
            .map(|c| c.merged_warm.pct_reused())
            .sum::<f64>()
            / n;
        table.row(vec![
            "mean".to_string(),
            label.to_string(),
            format!("{cold:.1}"),
            format!("{warm:.1}"),
            format!("{:+.1}", warm - cold),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    table
}

/// Regression gate for CI: every configuration must preserve
/// architectural state exactly, and every merge must carry traces.
/// Reuse-rate *ranking* between policies is the experiment's output,
/// not a gated invariant.
pub fn check_policy(cells: &[PolicyCell]) -> Result<(), String> {
    for cell in cells {
        if !cell.state_ok {
            return Err(format!(
                "{} [{}]: architectural state diverged from plain execution",
                cell.name, cell.policy
            ));
        }
        if cell.merged_traces == 0 {
            return Err(format!(
                "{} [{}]: policy merge produced an empty pool",
                cell.name, cell.policy
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_sweep_preserves_state_on_all_policies() {
        let cfg = HarnessConfig {
            budget: 20_000,
            ..HarnessConfig::quick()
        };
        let cells = run_policy_sweep(&cfg, RtmConfig::RTM_32K);
        // Three fixed policies plus the measured-weights configuration.
        assert_eq!(
            cells.len(),
            tlr_workloads::all().len() * (ReplacementPolicy::ALL.len() + 1)
        );
        check_policy(&cells).unwrap();
        let measured: Vec<&PolicyCell> = cells
            .iter()
            .filter(|c| c.policy.label() == measured_label())
            .collect();
        assert_eq!(measured.len(), tlr_workloads::all().len());
        let table = policy_table(&cells);
        assert_eq!(table.len(), cells.len() + ReplacementPolicy::ALL.len() + 1);
    }
}
