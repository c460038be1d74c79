//! Serving-path performance: zero-copy `Get` latency and incremental
//! publish-back write amplification (ours, enabled by `tlr-serve`'s
//! image cache and `tlr-persist`'s delta segments).
//!
//! Three experiments over the workload suite:
//!
//! 1. **`Get` latency** — for every workload's published snapshot, time
//!    the daemon reply body two ways: the pre-image-cache baseline that
//!    re-serializes the resident snapshot on every request, and
//!    [`SnapshotRegistry::get_image`], which serves cached bytes after
//!    building the image once. Reported as mean / p50 / p90 / p99
//!    microseconds per fetch plus the one-off cold build time.
//! 2. **Write amplification** — after a warm follow-up run publishes
//!    back, compare the bytes a full snapshot rewrite would put on disk
//!    against what [`SnapshotRegistry::spill`] actually wrote as an
//!    append-only delta segment (only the PC groups the run changed).
//! 3. **Split-load equality** — for every workload × replacement
//!    policy, the snapshot loaded from base + delta must equal the
//!    snapshot loaded from one full file of the same resident state
//!    (the LSM-style invariant `base ⊕ deltas == full`).
//!
//! [`check_serveperf`] gates all three: cached fetches at least
//! [`CACHED_SPEEDUP_FLOOR`]× faster than re-serialization on suite
//! mean, suite-total delta bytes strictly below suite-total full
//! rewrite bytes, and digest equality on every workload × policy cell.
//!
//! [`SnapshotRegistry::get_image`]: tlr_serve::SnapshotRegistry::get_image
//! [`SnapshotRegistry::spill`]: tlr_serve::SnapshotRegistry::spill

use crate::harness::HarnessConfig;
use std::path::PathBuf;
use std::time::Instant;
use tlr_core::{
    EngineConfig, Heuristic, ReplacementPolicy, RtmConfig, RtmSnapshot, TraceReuseEngine,
};
use tlr_persist::snapshot::write_snapshot;
use tlr_persist::{load_merged_snapshots, program_fingerprint, save_snapshot};
use tlr_serve::{RegistryConfig, SnapshotRegistry, SpillKind};
use tlr_stats::Table;

/// Timed fetch iterations per workload and path (baseline and cached).
pub const LATENCY_ITERS: usize = 64;

/// Minimum suite-mean speedup of cached-image fetches over per-request
/// re-serialization that [`check_serveperf`] accepts.
pub const CACHED_SPEEDUP_FLOOR: f64 = 3.0;

/// Budget fraction of the warm follow-up run whose publish-back the
/// write-amplification experiment spills (a quarter of the cold run,
/// so it touches a strict subset of the collected PC groups).
pub const WARM_BUDGET_DIV: u64 = 4;

/// Latency distribution of one fetch path, in microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyDist {
    /// Mean over [`LATENCY_ITERS`] fetches.
    pub mean_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 90th percentile.
    pub p90_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
}

impl LatencyDist {
    fn from_samples(mut us: Vec<f64>) -> LatencyDist {
        us.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = us.len();
        let pct = |p: f64| us[((n as f64 * p) as usize).min(n - 1)];
        LatencyDist {
            mean_us: us.iter().sum::<f64>() / n as f64,
            p50_us: pct(0.50),
            p90_us: pct(0.90),
            p99_us: pct(0.99),
        }
    }
}

/// Per-workload serving-path measurements.
pub struct ServePerfCell {
    /// Benchmark name.
    pub name: &'static str,
    /// Traces in the resident snapshot the fetches serve.
    pub traces: usize,
    /// Serialized image size in bytes.
    pub image_bytes: usize,
    /// One-off first `get_image` call (builds and caches the image).
    pub cold_build_us: f64,
    /// Baseline path: re-serialize the resident snapshot per fetch.
    pub reserialize: LatencyDist,
    /// Cached path: `get_image` hits after the build.
    pub cached: LatencyDist,
    /// Bytes a full snapshot rewrite of the post-publish resident state
    /// would write.
    pub full_rewrite_bytes: u64,
    /// Bytes the delta-segment spill of the same publish actually wrote.
    pub delta_bytes: u64,
    /// PC groups the delta carries.
    pub delta_groups: u64,
}

/// One workload × policy split-load equality measurement.
pub struct ServePerfEquality {
    /// Benchmark name.
    pub name: &'static str,
    /// Pooling policy under which the state was spilled and loaded.
    pub policy: ReplacementPolicy,
    /// Canonical digest of the base + delta load.
    pub split_digest: u64,
    /// Canonical digest of the full-snapshot load of the same state.
    pub full_digest: u64,
}

/// Everything `reproduce serveperf` measures.
pub struct ServePerfOutcome {
    /// Per-workload latency and write-amplification cells.
    pub cells: Vec<ServePerfCell>,
    /// Workload × policy split-load equality cells.
    pub equality: Vec<ServePerfEquality>,
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("tlr-bench-serveperf")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create {dir:?}: {e}"));
    dir
}

/// Canonical content digest of a snapshot: FxHash64 over the sorted
/// per-PC-group digests ([`tlr_persist::group_digests`], which cover
/// records *and* provenance). Order-insensitive by construction — two
/// loads that hold the same trace/provenance set digest equal even if
/// their RTM import orders placed records in different ways.
fn snapshot_digest(snapshot: &RtmSnapshot) -> u64 {
    let groups = tlr_persist::group_digests(snapshot).expect("in-memory digest cannot fail");
    let mut bytes = Vec::with_capacity(groups.len() * 12 + 8);
    bytes.extend_from_slice(&(snapshot.config.geometry.sets as u64).to_le_bytes());
    for (pc, digest) in groups {
        bytes.extend_from_slice(&pc.to_le_bytes());
        bytes.extend_from_slice(&digest.to_le_bytes());
    }
    tlr_util::fx_hash_bytes(&bytes)
}

fn cold_snapshot(
    w: &tlr_workloads::Workload,
    cfg: &HarnessConfig,
    config: EngineConfig,
) -> RtmSnapshot {
    let program = w.program(cfg.seed);
    let mut engine = TraceReuseEngine::new(&program, config);
    engine.set_source_run(cfg.seed);
    engine
        .run(cfg.budget)
        .unwrap_or_else(|e| panic!("{}: cold engine error: {e}", w.name));
    engine
        .export_rtm()
        .expect("value-comparison backend snapshots")
}

fn warm_snapshot(
    w: &tlr_workloads::Workload,
    cfg: &HarnessConfig,
    config: EngineConfig,
    warm: &RtmSnapshot,
) -> RtmSnapshot {
    let program = w.program(cfg.seed);
    let mut engine = TraceReuseEngine::new_warm(&program, config, warm);
    engine.set_source_run(cfg.seed + 1);
    engine
        .run((cfg.budget / WARM_BUDGET_DIV).max(1))
        .unwrap_or_else(|e| panic!("{}: warm engine error: {e}", w.name));
    engine
        .export_rtm()
        .expect("value-comparison backend snapshots")
}

/// Run the serving-path bench: latency and write amplification for
/// every workload, split-load equality for every workload × policy.
pub fn run_serveperf(cfg: &HarnessConfig, rtm: RtmConfig) -> ServePerfOutcome {
    let workloads = tlr_workloads::all();
    let engine_config = EngineConfig::paper(rtm, Heuristic::FixedExp(4));
    let registry_config = |policy: ReplacementPolicy| RegistryConfig {
        policy,
        // One base + one delta per program; never compact mid-bench.
        compact_threshold: usize::MAX,
        ..RegistryConfig::default()
    };

    let dir = bench_dir("main");
    let registry = SnapshotRegistry::open(&dir, registry_config(ReplacementPolicy::Lru))
        .unwrap_or_else(|e| panic!("serveperf registry: {e}"));

    let mut cells = Vec::with_capacity(workloads.len());
    let mut colds = Vec::with_capacity(workloads.len());
    for w in &workloads {
        let cold = cold_snapshot(w, cfg, engine_config);
        let fingerprint = program_fingerprint(&w.program(cfg.seed));
        registry
            .publish(fingerprint, &cold)
            .unwrap_or_else(|e| panic!("{}: publish: {e}", w.name));
        let base = registry
            .spill(fingerprint)
            .unwrap_or_else(|e| panic!("{}: base spill: {e}", w.name));
        assert_eq!(base.kind, SpillKind::Base, "{}: first spill", w.name);

        // Latency: baseline re-serializes the resident snapshot per
        // fetch (what the daemon's Get did before the image cache);
        // the cached path clones the Arc the first call built.
        let resident = registry
            .get(fingerprint)
            .unwrap_or_else(|e| panic!("{}: get: {e}", w.name))
            .expect("just published");
        let mut baseline_us = Vec::with_capacity(LATENCY_ITERS);
        let mut image_bytes = 0;
        for _ in 0..LATENCY_ITERS {
            let t = Instant::now();
            let mut bytes = Vec::new();
            write_snapshot(&mut bytes, fingerprint, &resident)
                .unwrap_or_else(|e| panic!("{}: serialize: {e}", w.name));
            baseline_us.push(t.elapsed().as_secs_f64() * 1e6);
            image_bytes = bytes.len();
        }
        let t = Instant::now();
        registry
            .get_image(fingerprint)
            .unwrap_or_else(|e| panic!("{}: get_image: {e}", w.name))
            .expect("just published");
        let cold_build_us = t.elapsed().as_secs_f64() * 1e6;
        let mut cached_us = Vec::with_capacity(LATENCY_ITERS);
        for _ in 0..LATENCY_ITERS {
            let t = Instant::now();
            let image = registry
                .get_image(fingerprint)
                .unwrap_or_else(|e| panic!("{}: get_image: {e}", w.name))
                .expect("just published");
            cached_us.push(t.elapsed().as_secs_f64() * 1e6);
            drop(image);
        }

        // Write amplification: a warm quarter-budget run publishes
        // back; spill writes a delta, a full rewrite would write the
        // whole resident state again.
        let warm = warm_snapshot(w, cfg, engine_config, &resident);
        registry
            .publish(fingerprint, &warm)
            .unwrap_or_else(|e| panic!("{}: warm publish: {e}", w.name));
        let delta = registry
            .spill(fingerprint)
            .unwrap_or_else(|e| panic!("{}: delta spill: {e}", w.name));
        assert_eq!(delta.kind, SpillKind::Delta, "{}: second spill", w.name);
        let post = registry
            .get(fingerprint)
            .unwrap_or_else(|e| panic!("{}: get: {e}", w.name))
            .expect("still resident");
        let mut full = Vec::new();
        write_snapshot(&mut full, fingerprint, &post)
            .unwrap_or_else(|e| panic!("{}: serialize: {e}", w.name));

        cells.push(ServePerfCell {
            name: w.name,
            traces: resident.len(),
            image_bytes,
            cold_build_us,
            reserialize: LatencyDist::from_samples(baseline_us),
            cached: LatencyDist::from_samples(cached_us),
            full_rewrite_bytes: full.len() as u64,
            delta_bytes: delta.bytes_written,
            delta_groups: delta.delta_groups,
        });
        colds.push((w, cold));
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Split-load equality under every policy: spill base + delta with a
    // policy-P registry, then compare against a full save of the same
    // resident state, both loaded through the same tuned merge loader.
    let mut equality = Vec::new();
    for policy in ReplacementPolicy::ALL {
        let dir = bench_dir(policy.label());
        let full_dir = bench_dir(&format!("{}-full", policy.label()));
        let registry = SnapshotRegistry::open(&dir, registry_config(policy))
            .unwrap_or_else(|e| panic!("serveperf {} registry: {e}", policy.label()));
        for (w, cold) in &colds {
            let fingerprint = program_fingerprint(&w.program(cfg.seed));
            registry
                .publish(fingerprint, cold)
                .unwrap_or_else(|e| panic!("{}: publish: {e}", w.name));
            registry
                .spill(fingerprint)
                .unwrap_or_else(|e| panic!("{}: base spill: {e}", w.name));
            let resident = registry
                .get(fingerprint)
                .unwrap_or_else(|e| panic!("{}: get: {e}", w.name))
                .expect("just published");
            let warm = warm_snapshot(w, cfg, engine_config.with_policy(policy), &resident);
            registry
                .publish(fingerprint, &warm)
                .unwrap_or_else(|e| panic!("{}: warm publish: {e}", w.name));
            registry
                .spill(fingerprint)
                .unwrap_or_else(|e| panic!("{}: delta spill: {e}", w.name));

            let resident = registry
                .get(fingerprint)
                .unwrap_or_else(|e| panic!("{}: get: {e}", w.name))
                .expect("still resident");
            let full_path = full_dir.join(format!("{fingerprint:016x}.tlrsnap"));
            save_snapshot(&full_path, fingerprint, &resident)
                .unwrap_or_else(|e| panic!("{}: full save: {e}", w.name));

            let split_paths: Vec<PathBuf> = {
                let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
                    .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
                    .filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| {
                        p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.starts_with(&format!("{fingerprint:016x}-")))
                    })
                    .collect();
                paths.sort();
                paths
            };
            let (_, split) = load_merged_snapshots(
                &split_paths,
                Some(fingerprint),
                policy,
                tlr_core::LFU_HALF_LIFE,
            )
            .unwrap_or_else(|e| panic!("{}: split load: {e}", w.name));
            let (_, full) = load_merged_snapshots(
                &[full_path],
                Some(fingerprint),
                policy,
                tlr_core::LFU_HALF_LIFE,
            )
            .unwrap_or_else(|e| panic!("{}: full load: {e}", w.name));
            equality.push(ServePerfEquality {
                name: w.name,
                policy,
                split_digest: snapshot_digest(&split),
                full_digest: snapshot_digest(&full),
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&full_dir);
    }

    ServePerfOutcome { cells, equality }
}

/// Table: per-workload `Get` latency, reserialize vs cached image.
pub fn serveperf_latency_table(cells: &[ServePerfCell]) -> Table {
    let mut table = Table::new(vec![
        "benchmark",
        "traces",
        "image B",
        "reserialize mean us",
        "p99 us",
        "cached mean us",
        "p99 us",
        "build us",
        "speedup",
    ]);
    let (mut base_sum, mut cached_sum) = (0.0, 0.0);
    for cell in cells {
        base_sum += cell.reserialize.mean_us;
        cached_sum += cell.cached.mean_us;
        table.row(vec![
            cell.name.to_string(),
            cell.traces.to_string(),
            cell.image_bytes.to_string(),
            format!("{:.2}", cell.reserialize.mean_us),
            format!("{:.2}", cell.reserialize.p99_us),
            format!("{:.2}", cell.cached.mean_us),
            format!("{:.2}", cell.cached.p99_us),
            format!("{:.2}", cell.cold_build_us),
            format!(
                "{:.1}x",
                cell.reserialize.mean_us / cell.cached.mean_us.max(1e-9)
            ),
        ]);
    }
    if !cells.is_empty() {
        let n = cells.len() as f64;
        table.row(vec![
            "mean".to_string(),
            String::new(),
            String::new(),
            format!("{:.2}", base_sum / n),
            String::new(),
            format!("{:.2}", cached_sum / n),
            String::new(),
            String::new(),
            format!("{:.1}x", base_sum / cached_sum.max(1e-9)),
        ]);
    }
    table
}

/// Table: per-workload publish-back write amplification, full rewrite
/// vs delta spill.
pub fn serveperf_write_table(cells: &[ServePerfCell]) -> Table {
    let mut table = Table::new(vec![
        "benchmark",
        "full rewrite B",
        "delta B",
        "delta groups",
        "bytes saved",
    ]);
    let (mut full_sum, mut delta_sum) = (0u64, 0u64);
    for cell in cells {
        full_sum += cell.full_rewrite_bytes;
        delta_sum += cell.delta_bytes;
        table.row(vec![
            cell.name.to_string(),
            cell.full_rewrite_bytes.to_string(),
            cell.delta_bytes.to_string(),
            cell.delta_groups.to_string(),
            format!(
                "{:.0}%",
                100.0 * (1.0 - cell.delta_bytes as f64 / cell.full_rewrite_bytes.max(1) as f64)
            ),
        ]);
    }
    if !cells.is_empty() {
        table.row(vec![
            "total".to_string(),
            full_sum.to_string(),
            delta_sum.to_string(),
            String::new(),
            format!(
                "{:.0}%",
                100.0 * (1.0 - delta_sum as f64 / full_sum.max(1) as f64)
            ),
        ]);
    }
    table
}

/// Table: split-load equality per policy (every workload must agree).
pub fn serveperf_equality_table(equality: &[ServePerfEquality]) -> Table {
    let mut table = Table::new(vec!["policy", "workloads", "base+delta == full"]);
    for policy in ReplacementPolicy::ALL {
        let rows: Vec<&ServePerfEquality> =
            equality.iter().filter(|e| e.policy == policy).collect();
        if rows.is_empty() {
            continue;
        }
        let equal = rows
            .iter()
            .filter(|e| e.split_digest == e.full_digest)
            .count();
        table.row(vec![
            policy.label().to_string(),
            rows.len().to_string(),
            format!("{equal}/{}", rows.len()),
        ]);
    }
    table
}

/// Regression gate: cached fetches ≥ [`CACHED_SPEEDUP_FLOOR`]× faster
/// than re-serialization on suite mean, suite-total delta bytes below
/// suite-total full-rewrite bytes, and split-load digest equality on
/// every workload × policy cell.
pub fn check_serveperf(outcome: &ServePerfOutcome) -> Result<(), String> {
    if outcome.cells.is_empty() {
        return Err("no serveperf cells measured".into());
    }
    let base_mean: f64 = outcome.cells.iter().map(|c| c.reserialize.mean_us).sum();
    let cached_mean: f64 = outcome.cells.iter().map(|c| c.cached.mean_us).sum();
    let speedup = base_mean / cached_mean.max(1e-9);
    if speedup < CACHED_SPEEDUP_FLOOR {
        return Err(format!(
            "cached-image Get only {speedup:.2}x faster than per-request re-serialization \
             (floor {CACHED_SPEEDUP_FLOOR}x)"
        ));
    }
    let full: u64 = outcome.cells.iter().map(|c| c.full_rewrite_bytes).sum();
    let delta: u64 = outcome.cells.iter().map(|c| c.delta_bytes).sum();
    if delta >= full {
        return Err(format!(
            "delta publish-back wrote {delta} B, not less than the {full} B a full rewrite costs"
        ));
    }
    for cell in &outcome.equality {
        if cell.split_digest != cell.full_digest {
            return Err(format!(
                "{} [{}]: base+delta load digest {:016x} != full-snapshot load digest {:016x}",
                cell.name,
                cell.policy.label(),
                cell.split_digest,
                cell.full_digest
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serveperf_invariants_hold_at_small_budget() {
        let cfg = HarnessConfig {
            budget: 20_000,
            ..HarnessConfig::quick()
        };
        let outcome = run_serveperf(&cfg, RtmConfig::RTM_32K);
        let workloads = tlr_workloads::all().len();
        assert_eq!(outcome.cells.len(), workloads);
        assert_eq!(
            outcome.equality.len(),
            workloads * ReplacementPolicy::ALL.len()
        );
        check_serveperf(&outcome).unwrap();
        for cell in &outcome.cells {
            assert!(cell.traces > 0, "{}: empty snapshot served", cell.name);
            assert!(cell.delta_groups > 0, "{}: empty delta spilled", cell.name);
        }
        let latency = serveperf_latency_table(&outcome.cells);
        assert_eq!(latency.len(), outcome.cells.len() + 1);
        let writes = serveperf_write_table(&outcome.cells);
        assert_eq!(writes.len(), outcome.cells.len() + 1);
        let equality = serveperf_equality_table(&outcome.equality);
        assert_eq!(equality.len(), ReplacementPolicy::ALL.len());
    }
}
