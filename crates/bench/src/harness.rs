//! Parallel experiment execution, and the engine, codec and scratch
//! helpers every experiment shares.
//!
//! Per the hpc-parallel guides, the fan-out is embarrassingly parallel
//! and data-race free by construction: each worker owns its VM and sinks
//! and writes into its own disjoint result slot; `std::thread::scope`
//! joins everything before results are read.

use std::path::PathBuf;
use std::sync::Mutex;
use tlr_asm::Program;
use tlr_core::{
    EngineConfig, EngineStats, Heuristic, LimitConfig, LimitResult, LimitStudySink, RtmConfig,
    RtmSnapshot, ThroughputEngine,
};
use tlr_isa::{Alpha21164, NullSink};
use tlr_persist::program_fingerprint;
use tlr_persist::snapshot::{read_snapshot, write_snapshot};
use tlr_vm::Vm;
use tlr_workloads::{PaperRefs, Suite, Workload};

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Dynamic instruction budget per benchmark.
    pub budget: u64,
    /// Workload seed.
    pub seed: u64,
    /// Finite window size (paper: 256).
    pub window: usize,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            budget: 400_000,
            seed: 20260611,
            window: 256,
            threads: 0,
        }
    }
}

impl HarnessConfig {
    /// Quick configuration for integration tests.
    pub fn quick() -> Self {
        Self {
            budget: 60_000,
            ..Self::default()
        }
    }

    pub(crate) fn effective_threads(&self, tasks: usize) -> usize {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let cap = if self.threads == 0 { hw } else { self.threads };
        cap.min(tasks).max(1)
    }
}

/// Per-benchmark result of the limit studies (Figures 3–8, §4.5).
pub struct BenchResult {
    /// Benchmark name.
    pub name: &'static str,
    /// Suite.
    pub suite: Suite,
    /// Paper-reported reference values.
    pub paper: PaperRefs,
    /// Measured limit-study outcome.
    pub limit: LimitResult,
}

/// Run a queue of tasks over a worker pool, writing each task's output
/// into its own slot.
pub(crate) fn pool_run<T: Send, R: Send>(
    threads: usize,
    tasks: Vec<T>,
    run: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let n = tasks.len();
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let queue: Mutex<Vec<(T, &mut Option<R>)>> =
        Mutex::new(tasks.into_iter().zip(slots.iter_mut()).collect());
    std::thread::scope(|scope| {
        let queue = &queue;
        let run = &run;
        for _ in 0..threads {
            scope.spawn(move || loop {
                let task = { queue.lock().unwrap().pop() };
                let Some((t, slot)) = task else { break };
                *slot = Some(run(t));
            });
        }
    });
    drop(queue); // release the &mut borrows into `slots`
    slots
        .into_iter()
        .map(|s| s.expect("worker filled slot"))
        .collect()
}

/// A collecting [`ThroughputEngine`] over `program`: cold, or warm
/// from `warm`, stamping `source_run` into the provenance of the traces
/// it collects ([`tlr_core::TraceMeta::source_run`]).
pub(crate) fn collecting_engine(
    program: &Program,
    config: EngineConfig,
    warm: Option<&RtmSnapshot>,
    source_run: u64,
) -> ThroughputEngine {
    let mut engine = match warm {
        Some(snapshot) => ThroughputEngine::new_warm(program, config, snapshot),
        None => ThroughputEngine::new(program, config),
    };
    engine.set_source_run(source_run);
    engine
}

/// [`collecting_engine`] run for `budget` dynamic instructions; a VM
/// error panics naming `name`.
pub(crate) fn run_collecting(
    name: &str,
    program: &Program,
    config: EngineConfig,
    warm: Option<&RtmSnapshot>,
    source_run: u64,
    budget: u64,
) -> ThroughputEngine {
    let mut engine = collecting_engine(program, config, warm, source_run);
    engine
        .run(budget)
        .unwrap_or_else(|e| panic!("{name}: engine error: {e}"));
    engine
}

/// Write `snapshot` under `program`'s fingerprint and read it back
/// through the `tlr-persist` binary codec, as a warm start off disk
/// would. Returns the loaded snapshot and its encoded size in bytes.
pub(crate) fn codec_roundtrip(
    name: &str,
    program: &Program,
    snapshot: &RtmSnapshot,
) -> (RtmSnapshot, usize) {
    let fingerprint = program_fingerprint(program);
    let mut bytes = Vec::new();
    write_snapshot(&mut bytes, fingerprint, snapshot)
        .unwrap_or_else(|e| panic!("{name}: snapshot write error: {e}"));
    let (_, loaded) = read_snapshot(&mut bytes.as_slice(), Some(fingerprint))
        .unwrap_or_else(|e| panic!("{name}: snapshot read error: {e}"));
    (loaded, bytes.len())
}

/// The plain VM's architectural-state digest ([`Vm::state_digest`])
/// after exactly `total` dynamic instructions of `program` — what an
/// engine run with the same progress must end in.
pub(crate) fn plain_digest(program: &Program, total: u64) -> u64 {
    let mut vm = Vm::new(program);
    vm.run(total, &mut NullSink)
        .unwrap_or_else(|e| panic!("plain vm error: {e}"));
    vm.state_digest()
}

/// A fresh, empty scratch directory `tlr-bench/{tag}-{pid}` under the
/// system temp directory. Tags must differ between experiments that
/// can run at once in one process (the unit tests do).
pub(crate) fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("tlr-bench")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create {dir:?}: {e}"));
    dir
}

/// Run the combined limit study over every workload, in parallel.
pub fn run_limit_studies(cfg: &HarnessConfig) -> Vec<BenchResult> {
    let workloads = tlr_workloads::all();
    let threads = cfg.effective_threads(workloads.len());
    pool_run(threads, workloads, |w| run_one_limit(&w, cfg))
}

fn run_one_limit(w: &Workload, cfg: &HarnessConfig) -> BenchResult {
    let prog = w.program(cfg.seed);
    let mut vm = Vm::new(&prog);
    let limit_cfg = LimitConfig {
        window: cfg.window,
        ..LimitConfig::default()
    };
    let mut sink = LimitStudySink::new(limit_cfg, &Alpha21164);
    vm.run(cfg.budget, &mut sink)
        .unwrap_or_else(|e| panic!("{}: vm error: {e}", w.name));
    BenchResult {
        name: w.name,
        suite: w.suite,
        paper: w.paper,
        limit: sink.result(),
    }
}

/// One cell of the Figure 9 grid.
pub struct EngineCell {
    /// Benchmark name.
    pub name: &'static str,
    /// RTM configuration.
    pub rtm: RtmConfig,
    /// Collection heuristic.
    pub heuristic: Heuristic,
    /// Engine statistics.
    pub stats: EngineStats,
}

/// Run the execution-driven engine over the full Figure 9 grid:
/// every workload × every RTM capacity × every heuristic.
pub fn run_engine_grid(
    cfg: &HarnessConfig,
    rtms: &[RtmConfig],
    heuristics: &[Heuristic],
) -> Vec<EngineCell> {
    let workloads = tlr_workloads::all();
    let mut tasks = Vec::new();
    for w in &workloads {
        for &rtm in rtms {
            for &heuristic in heuristics {
                tasks.push((w, rtm, heuristic));
            }
        }
    }
    let threads = cfg.effective_threads(tasks.len());
    pool_run(threads, tasks, |(w, rtm, heuristic)| {
        let prog = w.program(cfg.seed);
        let stats = tlr_core::run_engine(&prog, EngineConfig::paper(rtm, heuristic), cfg.budget)
            .unwrap_or_else(|e| panic!("{}: engine error: {e}", w.name));
        EngineCell {
            name: w.name,
            rtm,
            heuristic,
            stats,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_studies_cover_all_benchmarks() {
        let cfg = HarnessConfig {
            budget: 8_000,
            ..HarnessConfig::default()
        };
        let results = run_limit_studies(&cfg);
        assert_eq!(results.len(), 14);
        // Order preserved (figure x-axes depend on it).
        assert_eq!(results[0].name, "applu");
        assert_eq!(results[13].name, "vortex");
        for r in &results {
            assert_eq!(r.limit.total_instrs, 8_000, "{}", r.name);
        }
    }

    #[test]
    fn engine_grid_shape() {
        let cfg = HarnessConfig {
            budget: 5_000,
            ..HarnessConfig::default()
        };
        let cells = run_engine_grid(
            &cfg,
            &[RtmConfig::RTM_512],
            &[Heuristic::IlrNe, Heuristic::FixedExp(4)],
        );
        assert_eq!(cells.len(), 14 * 2);
    }
}
