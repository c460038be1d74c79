#![warn(missing_docs)]
//! # tlr-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§4) from this workspace's substrate, printing
//! paper-reported values next to measured ones and writing CSV into
//! `results/`.
//!
//! | target | reproduces |
//! |---|---|
//! | `reproduce fig3` | Figure 3 — instruction-level reusability |
//! | `reproduce fig4` | Figure 4 — ILR speed-up, infinite window (a: per-benchmark @1 cycle, b: latency sweep) |
//! | `reproduce fig5` | Figure 5 — ILR speed-up, 256-entry window |
//! | `reproduce fig6` | Figure 6 — TLR speed-up @1 cycle (a: infinite, b: 256-entry) |
//! | `reproduce fig7` | Figure 7 — average trace size |
//! | `reproduce fig8` | Figure 8 — TLR latency sensitivity (a: constant 1–4, b: ∝ I/O, K sweep) |
//! | `reproduce io` | §4.5 text — per-trace I/O counts and bandwidth per reused instruction |
//! | `reproduce fig9` | Figure 9 — finite RTM × collection heuristic (% reused, trace size) |
//! | `reproduce ablation` | ours — window slots per reused trace (0 vs 1), fetch-skip decomposition |
//! | `reproduce warmstart` | ours — cold vs RTM-snapshot-seeded engine |
//! | `reproduce fleet` | ours — solo-warm vs merged-warm reuse (snapshot pooling for a serving fleet) |
//! | `reproduce policy` | ours — RTM replacement-policy sweep (LRU vs LFU vs cost/benefit, cold and merged-warm) |
//! | `reproduce daemon` | ours — N concurrent clients warm-starting from one `tlrd` daemon vs the in-process registry path |
//! | `reproduce decant` | ours — reuse attribution by opcode class and loop structure (`tlr-decant` over the decision tap) |
//! | `reproduce throughput` | ours — simulator MIPS: observing interpreter vs predecoded fast path, reference vs throughput engine, warm serving |
//! | `reproduce serveperf` | ours — zero-copy `Get` latency (cached image vs re-serialization), delta-spill write amplification, base ⊕ delta split-load equality |
//! | `reproduce crossseed` | ours — cross-seed warm start: same code under different data seeds shares reuse state by shape fingerprint |
//!
//! With `--check`, the `warmstart`, `fleet`, `policy`, `daemon`,
//! `decant`, `throughput`, `serveperf`, and `crossseed` targets
//! additionally act as
//! regression gates: the process exits nonzero when a warm start reuses
//! less than its cold run, a merged warm start reuses less than the
//! better solo warm start, any policy configuration fails
//! architectural-state equality, a daemon-served client's final
//! architectural-state digest differs from the in-process registry
//! path's, a decanted attribution fails to sum exactly to its decision
//! log's totals, a fast-path run diverges from its reference (state,
//! reuse decisions, or mean speed), the serving path regresses
//! (cached-image fetches under the speedup floor, delta spills writing
//! at least as much as full rewrites, or a base + delta load
//! disagreeing with the full-snapshot load of the same state), or a
//! cross-seed warm start breaks architectural-state equality, loses
//! its shape fingerprint, or fails to beat cold on the suite mean.
//!
//! With `--json OUT`, every table produced by the invocation is also
//! written to `OUT` as one machine-readable JSON document (config +
//! per-target headers and rows), so bench trajectories can accumulate
//! across commits.
//!
//! All figure functions are library code so the integration tests can run
//! them at reduced budgets. Each experiment fans its workloads out over
//! one worker pool, and the serving experiments build every engine
//! through one [`harness`] helper: a collecting
//! [`tlr_core::ThroughputEngine`], cold or warm.

pub mod crossseed;
pub mod daemon;
pub mod decant;
pub mod figures;
pub mod fleet;
pub mod harness;
pub mod policy;
pub mod serveperf;
pub mod throughput;
pub mod warmstart;

pub use crossseed::{
    check_crossseed, crossseed_table, run_crossseed, CrossSeedCell, CROSS_TOLERANCE_PCT, SEEDS,
};
pub use daemon::{
    check_daemon, daemon_table, run_daemon_bench, sibling_tlrsim, DaemonCell, DaemonOutcome,
};
pub use decant::{
    check_decant, decant_class_table, decant_loop_table, decant_table, run_decant, DecantCell,
};
pub use fleet::{check_fleet, fleet_table, run_fleet, FleetCell};
pub use harness::{run_engine_grid, run_limit_studies, BenchResult, EngineCell, HarnessConfig};
pub use policy::{check_policy, measured_label, policy_table, run_policy_sweep, PolicyCell};
pub use serveperf::{
    check_serveperf, run_serveperf, serveperf_equality_table, serveperf_latency_table,
    serveperf_write_table, ServePerfCell, ServePerfEquality, ServePerfOutcome,
};
pub use throughput::{check_throughput, run_throughput, throughput_table, ThroughputCell};
pub use warmstart::{check_warm_start, run_warm_start, warm_start_table, WarmStartCell};
