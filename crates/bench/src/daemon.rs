//! Daemon serving: cross-process warm starts vs the in-process path
//! (ours, enabled by `tlr-serve::daemon`).
//!
//! The `tlrd` daemon exists so many simulator *processes* share one
//! resident registry. That is only sound if the socket hop changes
//! nothing: a client warm-started from the daemon must behave exactly
//! like a run warm-started from an in-process [`SnapshotRegistry`] over
//! the same snapshot directory. This experiment checks that end to end:
//!
//! 1. per workload, two diverse cold producers export snapshots into
//!    one directory (the fleet experiment's producer pair);
//! 2. the **in-process path** opens a registry over the directory,
//!    fetches each program's merged-warm state, runs the warm engine,
//!    and records the final architectural-state digest
//!    ([`tlr_vm::Vm::state_digest`]);
//! 3. a `tlrd` daemon opens its *own* registry over the same directory;
//!    N concurrent **clients** — real `tlrsim run --remote` OS
//!    processes when the binary is available, [`RemoteRegistry`]
//!    threads otherwise — warm-start from it, publish back, and report
//!    their digests;
//! 4. [`check_daemon`] demands every client digest equal the in-process
//!    digest, every client actually warm-started, and the daemon-side
//!    counters add up to the client activity.
//!
//! Digest equality is the strongest cheap statement available: two runs
//! that end in identical architectural state took the same execution,
//! so the daemon served byte-equivalent warm state.

use crate::fleet::{FLEET_COLD_A, FLEET_COLD_B, FLEET_WARM};
use crate::harness::{pool_run, HarnessConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tlr_core::{EngineConfig, Heuristic, RtmConfig, RtmSnapshot, TraceReuseEngine};
use tlr_persist::{program_fingerprint, save_snapshot};
use tlr_serve::{Daemon, RegistryConfig, RegistryStats, RemoteRegistry, SnapshotRegistry};
use tlr_stats::Table;
use tlr_workloads::Workload;

/// One workload served through the daemon, compared to the in-process
/// path.
pub struct DaemonCell {
    /// Benchmark name.
    pub name: &'static str,
    /// How the client reached the daemon: a real `tlrsim` OS process
    /// (`"process"`) or an in-thread [`RemoteRegistry`] (`"thread"`).
    pub via: &'static str,
    /// Traces in the warm state the daemon served (0 = ran cold).
    pub served_traces: usize,
    /// The client's reuse percentage.
    pub warm_pct: f64,
    /// The in-process warm run's reuse percentage.
    pub in_process_pct: f64,
    /// Final architectural-state digest of the daemon-served client.
    pub client_digest: u64,
    /// Final architectural-state digest of the in-process warm run.
    pub in_process_digest: u64,
}

/// What the daemon experiment produced.
pub struct DaemonOutcome {
    /// Per-workload comparisons.
    pub cells: Vec<DaemonCell>,
    /// Daemon-side registry counters after every client finished.
    pub stats: RegistryStats,
    /// Concurrent clients that ran against the daemon.
    pub clients: usize,
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("tlr-bench-daemon")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create {dir:?}: {e}"));
    dir
}

fn producer_snapshot(
    w: &Workload,
    cfg: &HarnessConfig,
    rtm: RtmConfig,
    heuristic: Heuristic,
) -> RtmSnapshot {
    let prog = w.program(cfg.seed);
    let mut engine = TraceReuseEngine::new(&prog, EngineConfig::paper(rtm, heuristic));
    engine.set_source_run(cfg.seed);
    engine
        .run(cfg.budget)
        .unwrap_or_else(|e| panic!("{}: producer error: {e}", w.name));
    engine
        .export_rtm()
        .expect("value-comparison backend snapshots")
}

/// The in-process reference: merged-warm run via a local registry.
fn in_process_run(
    registry: &SnapshotRegistry,
    w: &Workload,
    cfg: &HarnessConfig,
    rtm: RtmConfig,
) -> (f64, u64, usize) {
    let prog = w.program(cfg.seed);
    let fingerprint = program_fingerprint(&prog);
    let snapshot = registry
        .get(fingerprint)
        .unwrap_or_else(|e| panic!("{}: registry error: {e}", w.name))
        .unwrap_or_else(|| panic!("{}: no snapshot on disk", w.name));
    let config = EngineConfig::paper(rtm, FLEET_WARM);
    let mut engine = TraceReuseEngine::new_warm(&prog, config, &snapshot);
    engine.set_source_run(cfg.seed);
    let stats = engine
        .run(cfg.budget)
        .unwrap_or_else(|e| panic!("{}: warm engine error: {e}", w.name));
    (
        stats.pct_reused(),
        engine.vm().state_digest(),
        snapshot.len(),
    )
}

/// A client reaching the daemon through [`RemoteRegistry`] in this
/// process (the fallback when no `tlrsim` binary is available).
fn thread_client(
    sock: &Path,
    w: &Workload,
    cfg: &HarnessConfig,
    rtm: RtmConfig,
) -> (f64, u64, usize) {
    let prog = w.program(cfg.seed);
    let fingerprint = program_fingerprint(&prog);
    let remote =
        RemoteRegistry::connect(sock).unwrap_or_else(|e| panic!("{}: connect error: {e}", w.name));
    let served = remote
        .get(fingerprint)
        .unwrap_or_else(|e| panic!("{}: remote get error: {e}", w.name));
    let config = EngineConfig::paper(rtm, FLEET_WARM);
    let mut engine = match &served {
        Some(snapshot) => TraceReuseEngine::new_warm(&prog, config, snapshot),
        None => TraceReuseEngine::new(&prog, config),
    };
    engine.set_source_run(cfg.seed);
    let stats = engine
        .run(cfg.budget)
        .unwrap_or_else(|e| panic!("{}: warm engine error: {e}", w.name));
    if let Some(snapshot) = engine.export_rtm() {
        remote
            .publish(fingerprint, &snapshot)
            .unwrap_or_else(|e| panic!("{}: remote publish error: {e}", w.name));
    }
    (
        stats.pct_reused(),
        engine.vm().state_digest(),
        served.map_or(0, |s| s.len()),
    )
}

/// A client running as a real OS process: `tlrsim run workload:NAME
/// --remote SOCK --digest`, its digest and served-trace count parsed
/// from stdout.
fn process_client(
    tlrsim: &Path,
    sock: &Path,
    w: &Workload,
    cfg: &HarnessConfig,
    rtm: RtmConfig,
) -> (f64, u64, usize) {
    let Heuristic::FixedExp(n) = FLEET_WARM else {
        panic!("FLEET_WARM is expected to be a fixed-expansion heuristic")
    };
    let output = std::process::Command::new(tlrsim)
        .args([
            "run",
            &format!("workload:{}", w.name),
            "--seed",
            &cfg.seed.to_string(),
            "--budget",
            &cfg.budget.to_string(),
            "--rtm",
            &rtm.label().to_lowercase(),
            "--heuristic",
            &format!("i{n}"),
            "--remote",
            &sock.display().to_string(),
            "--digest",
        ])
        .output()
        .unwrap_or_else(|e| panic!("{}: cannot spawn {}: {e}", w.name, tlrsim.display()));
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        panic!(
            "{}: client process failed ({}): {}{}",
            w.name,
            output.status,
            stdout,
            String::from_utf8_lossy(&output.stderr)
        );
    }
    let mut digest = None;
    let mut served = 0usize;
    let mut pct = f64::NAN;
    for line in stdout.lines() {
        if let Some(hex) = line.strip_prefix("state digest: ") {
            digest = u64::from_str_radix(hex.trim(), 16).ok();
        } else if let Some(rest) = line.strip_prefix("warm start: ") {
            served = rest
                .split_whitespace()
                .next()
                .and_then(|n| n.parse().ok())
                .unwrap_or(0);
        } else if let Some(rest) = line.strip_prefix("reuse: ") {
            pct = rest
                .split('%')
                .next()
                .and_then(|n| n.trim().parse().ok())
                .unwrap_or(f64::NAN);
        }
    }
    let digest =
        digest.unwrap_or_else(|| panic!("{}: no state digest in client output:\n{stdout}", w.name));
    (pct, digest, served)
}

/// Locate the `tlrsim` binary next to the currently running one (they
/// share a cargo target directory), for process-mode clients.
pub fn sibling_tlrsim() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let candidate = exe.parent()?.join("tlrsim");
    candidate.is_file().then_some(candidate)
}

/// Run the daemon experiment over every workload: produce snapshots,
/// compute the in-process reference, then serve N concurrent clients
/// (OS processes when `tlrsim` is given, threads otherwise) from one
/// daemon over the same directory.
pub fn run_daemon_bench(
    cfg: &HarnessConfig,
    rtm: RtmConfig,
    tlrsim: Option<&Path>,
) -> DaemonOutcome {
    let workloads = tlr_workloads::all();
    let threads = cfg.effective_threads(workloads.len());
    let dir = bench_dir("serve");

    // Producers: the fleet pair per workload, so the registry pools two
    // snapshots per program on load.
    pool_run(threads, workloads.clone(), |w| {
        let prog = w.program(cfg.seed);
        let fingerprint = program_fingerprint(&prog);
        for (suffix, heuristic) in [("a", FLEET_COLD_A), ("b", FLEET_COLD_B)] {
            let snapshot = producer_snapshot(&w, cfg, rtm, heuristic);
            let path = dir.join(format!("{}-{suffix}.tlrsnap", w.name));
            save_snapshot(&path, fingerprint, &snapshot)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
    });

    // The in-process reference path.
    let local = SnapshotRegistry::open(&dir, RegistryConfig::default())
        .unwrap_or_else(|e| panic!("registry open: {e}"));
    let reference: Vec<(f64, u64, usize)> = pool_run(threads, workloads.clone(), |w| {
        in_process_run(&local, &w, cfg, rtm)
    });

    // The daemon path: a fresh registry over the same directory, one
    // daemon, N concurrent clients.
    let served = Arc::new(
        SnapshotRegistry::open(&dir, RegistryConfig::default())
            .unwrap_or_else(|e| panic!("registry open: {e}")),
    );
    let sock = dir.join("tlrd.sock");
    let daemon = Daemon::bind(&sock, Arc::clone(&served)).unwrap_or_else(|e| panic!("bind: {e}"));
    let handle = daemon.handle();
    let server = std::thread::spawn(move || daemon.run());

    let via = if tlrsim.is_some() {
        "process"
    } else {
        "thread"
    };
    let client_results: Vec<(f64, u64, usize)> =
        pool_run(threads, workloads.clone(), |w| match tlrsim {
            Some(binary) => process_client(binary, &sock, &w, cfg, rtm),
            None => thread_client(&sock, &w, cfg, rtm),
        });
    let stats = served.stats();
    handle.shutdown();
    server
        .join()
        .expect("daemon thread panicked")
        .unwrap_or_else(|e| panic!("daemon error: {e}"));

    let cells = workloads
        .iter()
        .zip(reference)
        .zip(client_results)
        .map(
            |((w, (in_process_pct, in_process_digest, _)), (warm_pct, client_digest, served))| {
                DaemonCell {
                    name: w.name,
                    via,
                    served_traces: served,
                    warm_pct,
                    in_process_pct,
                    client_digest,
                    in_process_digest,
                }
            },
        )
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    DaemonOutcome {
        cells,
        stats,
        clients: workloads.len(),
    }
}

/// Table: per benchmark, the daemon-served client vs the in-process
/// path, with the digest verdict per row and the daemon counters last.
pub fn daemon_table(outcome: &DaemonOutcome) -> Table {
    let mut table = Table::new(vec![
        "benchmark",
        "client",
        "served traces",
        "daemon-warm %",
        "in-process %",
        "state",
    ]);
    for cell in &outcome.cells {
        table.row(vec![
            cell.name.to_string(),
            cell.via.to_string(),
            cell.served_traces.to_string(),
            format!("{:.1}", cell.warm_pct),
            format!("{:.1}", cell.in_process_pct),
            if cell.client_digest == cell.in_process_digest {
                "identical".to_string()
            } else {
                "DIVERGED".to_string()
            },
        ]);
    }
    table.row(vec![
        "daemon".to_string(),
        format!("{} clients", outcome.clients),
        String::new(),
        String::new(),
        String::new(),
        format!(
            "{} hits, {} misses, {} refreshes",
            outcome.stats.hits, outcome.stats.misses, outcome.stats.refreshes
        ),
    ]);
    table
}

/// Registry fetches one client's warm start counts on the daemon: a
/// thread client sends `Get`, one fetch; a process client runs `tlrsim
/// run --remote`, whose `GetShape` counts the `get` inside
/// `get_by_shape` and then the `get_image` that serves the bytes.
fn fetches_per_client(via: &str) -> u64 {
    match via {
        "process" => 2,
        _ => 1,
    }
}

/// Regression gate for CI: the socket hop must change nothing. Every
/// client digest equals the in-process digest, every client actually
/// warm-started, at least two clients ran concurrently against the
/// daemon, and the daemon-side counters account for exactly the client
/// activity (one registry fetch per `Get` client and two per
/// `GetShape` process client, one publish-back per client, no
/// unknowns).
pub fn check_daemon(outcome: &DaemonOutcome) -> Result<(), String> {
    if outcome.clients < 2 {
        return Err(format!(
            "only {} client(s) ran; the experiment needs concurrency",
            outcome.clients
        ));
    }
    for cell in &outcome.cells {
        if cell.client_digest != cell.in_process_digest {
            return Err(format!(
                "{} [{}]: daemon-served digest {:016x} != in-process digest {:016x}",
                cell.name, cell.via, cell.client_digest, cell.in_process_digest
            ));
        }
        if cell.served_traces == 0 {
            return Err(format!(
                "{} [{}]: client ran cold; the daemon served no warm state",
                cell.name, cell.via
            ));
        }
    }
    let stats = &outcome.stats;
    let fetches = stats.hits + stats.misses;
    let expected: u64 = outcome
        .cells
        .iter()
        .map(|c| fetches_per_client(c.via))
        .sum();
    if fetches != expected {
        return Err(format!(
            "daemon answered {fetches} fetches for {} clients, expected {expected}",
            outcome.clients
        ));
    }
    if stats.refreshes != outcome.clients as u64 {
        return Err(format!(
            "daemon absorbed {} publish-backs for {} clients",
            stats.refreshes, outcome.clients
        ));
    }
    if stats.unknown != 0 {
        return Err(format!(
            "daemon saw {} fetches for unknown programs",
            stats.unknown
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daemon_clients_match_in_process_path() {
        let cfg = HarnessConfig {
            budget: 20_000,
            ..HarnessConfig::quick()
        };
        // Thread-mode clients: the test must not depend on a prebuilt
        // tlrsim binary (the CI daemon smoke covers process mode).
        let outcome = run_daemon_bench(&cfg, RtmConfig::RTM_32K, None);
        assert_eq!(outcome.cells.len(), tlr_workloads::all().len());
        check_daemon(&outcome).unwrap();
        let table = daemon_table(&outcome);
        assert_eq!(table.len(), outcome.cells.len() + 1);
    }

    #[test]
    fn fetch_gate_counts_two_per_process_client() {
        let outcome = |via: &'static str, fetches: u64| {
            let cells = (0..3)
                .map(|_| DaemonCell {
                    name: "w",
                    via,
                    served_traces: 1,
                    warm_pct: 50.0,
                    in_process_pct: 50.0,
                    client_digest: 7,
                    in_process_digest: 7,
                })
                .collect::<Vec<_>>();
            DaemonOutcome {
                clients: cells.len(),
                cells,
                stats: RegistryStats {
                    hits: fetches,
                    refreshes: 3,
                    ..RegistryStats::default()
                },
            }
        };
        check_daemon(&outcome("process", 6)).unwrap();
        check_daemon(&outcome("thread", 3)).unwrap();
        for (via, fetches) in [("process", 3), ("process", 7), ("thread", 6)] {
            let err = check_daemon(&outcome(via, fetches)).unwrap_err();
            assert!(
                err.contains("fetches for 3 clients"),
                "{via}/{fetches}: {err}"
            );
        }
    }
}
