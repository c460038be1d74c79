//! # tlrbench
//!
//! The workspace's benchmark: three workloads that each spend their host
//! time in a different layer of the system, end-to-end metrics measured
//! untraced, and a traced run that attributes host time to layers. See
//! `README.md` in this directory for the metric glossary and the
//! layer → metric map.
//!
//! Every workload is a sequence of fixed-work *passes* repeated until the
//! run's time is up. A pass is a set of *sessions*: acquire reuse state
//! and build an engine (start), run it (engine time), hand its RTM state
//! off (export, and publish in the fleet). Every session's final
//! architectural state is checked against the plain VM. Timed end-to-end
//! figures are brought to a reference machine speed, read by a probe
//! between passes ([`measure::probe_speed`]).

pub mod cold;
pub mod fleet;
pub mod layers;
pub mod manifest;
pub mod measure;
pub mod warm;

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

use tlr_asm::Program;
use tlr_core::{
    EngineConfig, EngineStats, Heuristic, RtmConfig, RtmSnapshot, ThroughputEngine,
    TraceReuseEngine,
};
use tlr_persist::{program_fingerprint, program_shape_fingerprint};
use tlr_vm::{FastStep, Vm, VmError};

/// Times each workload's set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdCollect,
    WarmServe,
    DaemonFleet,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-collect" => Some(Workload::ColdCollect),
            "warm-serve" => Some(Workload::WarmServe),
            "daemon-fleet" => Some(Workload::DaemonFleet),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCollect => "cold-collect",
            Workload::WarmServe => "warm-serve",
            Workload::DaemonFleet => "daemon-fleet",
        }
    }
}

/// How one run is driven.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    /// Drives every generated input: the kernels' data seed, and the
    /// donor seeds `seed + 1` and `seed + 2`.
    pub seed: u64,
    /// Passes start until this much time has been measured.
    pub seconds: f64,
    /// Traced run: per-layer metrics and a spans file instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Tiny budgets and a single pass (tests).
    pub quick: bool,
    /// Where the spans file and the fleet's scratch directory go.
    pub out_dir: PathBuf,
    /// Self-test of the correctness gate: pretend the plain VM's digest
    /// for this kernel is different, so the run must fail.
    pub corrupt_reference: Option<String>,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: engine runs, sessions and requests.
    pub attempted: u64,
    /// Operations that failed or were refused (never retried).
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines (the per-layer table in traced runs).
    pub report: Vec<String>,
}

/// A run that could not be trusted: a correctness gate failed.
#[derive(Debug)]
pub struct BenchError {
    pub workload: &'static str,
    pub kernel: String,
    pub detail: String,
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "workload {}, kernel {}: {}",
            self.workload, self.kernel, self.detail
        )
    }
}

impl std::error::Error for BenchError {}

/// Run one workload.
pub fn run(opts: &Options) -> Result<Outcome, BenchError> {
    match opts.workload {
        Workload::ColdCollect => cold::run(opts),
        Workload::WarmServe => warm::run(opts),
        Workload::DaemonFleet => fleet::run(opts),
    }
}

/// The `tlrsim` defaults every workload runs under: RTM_4K, I4 EXP, LRU.
pub fn engine_config() -> EngineConfig {
    EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4))
}

/// Either engine, as `tlrsim run` builds them: variant 0 is the
/// reference `TraceReuseEngine`, variant 1 the `ThroughputEngine`
/// (`--fast`).
pub enum AnyEngine {
    Reference(Box<TraceReuseEngine>),
    Fast(Box<ThroughputEngine>),
}

impl AnyEngine {
    /// A cold engine of `variant`.
    pub fn cold(variant: usize, program: &Program, config: EngineConfig) -> Self {
        match variant {
            0 => AnyEngine::Reference(Box::new(TraceReuseEngine::new(program, config))),
            _ => AnyEngine::Fast(Box::new(ThroughputEngine::new(program, config))),
        }
    }

    /// An engine of `variant` warm-started from `snapshot`.
    pub fn warm(
        variant: usize,
        program: &Program,
        config: EngineConfig,
        snapshot: &RtmSnapshot,
    ) -> Self {
        match variant {
            0 => AnyEngine::Reference(Box::new(TraceReuseEngine::new_warm(
                program, config, snapshot,
            ))),
            _ => AnyEngine::Fast(Box::new(ThroughputEngine::new_warm(
                program, config, snapshot,
            ))),
        }
    }

    pub fn set_source_run(&mut self, run: u64) {
        match self {
            AnyEngine::Reference(e) => e.set_source_run(run),
            AnyEngine::Fast(e) => e.set_source_run(run),
        }
    }

    pub fn run(&mut self, budget: u64) -> Result<EngineStats, VmError> {
        match self {
            AnyEngine::Reference(e) => e.run(budget),
            AnyEngine::Fast(e) => e.run(budget),
        }
    }

    /// The engine's RTM state (both engines run the value-comparison
    /// RTM, which always exports).
    pub fn export_rtm(&self) -> RtmSnapshot {
        match self {
            AnyEngine::Reference(e) => e.export_rtm().expect("the value-comparison RTM exports"),
            AnyEngine::Fast(e) => e.export_rtm(),
        }
    }

    pub fn digest(&self) -> u64 {
        match self {
            AnyEngine::Reference(e) => e.vm().state_digest(),
            AnyEngine::Fast(e) => e.vm().state_digest(),
        }
    }
}

/// One of the 14 kernels at one data seed.
pub struct Kernel {
    pub name: &'static str,
    pub program: Program,
    pub fingerprint: u64,
    pub shape: u64,
}

/// All 14 kernels at `seed`.
pub fn kernels(seed: u64) -> Vec<Kernel> {
    tlr_workloads::all()
        .into_iter()
        .map(|w| {
            let program = w.program(seed);
            Kernel {
                name: w.name,
                fingerprint: program_fingerprint(&program),
                shape: program_shape_fingerprint(&program),
                program,
            }
        })
        .collect()
}

/// Run `setup` [`SETUP_REPEATS`] times (once in quick mode); returns the
/// last result and the median set-up time in seconds, each repeat
/// brought to the reference machine speed by the probes around it.
pub fn timed_setup<T>(quick: bool, mut setup: impl FnMut() -> T) -> (T, f64) {
    let repeats = if quick { 1 } else { SETUP_REPEATS };
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    let mut before = measure::probe_speed();
    for _ in 0..repeats {
        let t = Instant::now();
        last = Some(setup());
        let raw = t.elapsed().as_secs_f64();
        let after = measure::probe_speed();
        times.push(raw * (before + after) / 2.0 / measure::PROBE_REFERENCE);
        before = after;
    }
    (last.expect("at least one set-up"), measure::median(&times))
}

/// Digests the oracle precomputes past a run's budget: a reuse hit can
/// carry an engine run that far beyond it.
const OVERSHOOT: u64 = 64;

/// The correctness oracle: the plain VM's state digest after `count`
/// instructions of a kernel, memoized.
pub struct Reference {
    workload: &'static str,
    corrupt: Option<String>,
    digests: HashMap<(u64, u64), u64>,
}

impl Reference {
    pub fn new(workload: Workload, corrupt: Option<String>) -> Self {
        Reference {
            workload: workload.name(),
            corrupt,
            digests: HashMap::new(),
        }
    }

    /// Run every kernel on the plain VM to `budget` and record its digest
    /// at each count from there to `budget + OVERSHOOT` (set-up work: the
    /// checks during the passes then only look digests up).
    pub fn prepare(&mut self, kernels: &[Kernel], budget: u64) {
        for kernel in kernels {
            let mut vm = Vm::new(&kernel.program);
            let mut count = match vm.run_fast(budget) {
                Ok(outcome) => outcome.executed(),
                Err(_) => continue,
            };
            loop {
                self.digests
                    .insert((kernel.fingerprint, count), vm.state_digest());
                if count >= budget + OVERSHOOT
                    || !matches!(vm.step_fast(), Ok(FastStep::Executed(_)))
                {
                    break;
                }
                count += 1;
            }
        }
    }

    /// Fail unless `digest` equals the plain VM's digest after `count`
    /// instructions of `kernel`.
    pub fn check(
        &mut self,
        kernel: &Kernel,
        count: u64,
        digest: u64,
        what: &str,
    ) -> Result<(), BenchError> {
        let expected = *self
            .digests
            .entry((kernel.fingerprint, count))
            .or_insert_with(|| {
                let mut vm = Vm::new(&kernel.program);
                // A program error here would fail the engine run too;
                // the digest comparison then reports it.
                let _ = vm.run_fast(count);
                vm.state_digest()
            });
        let expected = if self.corrupt.as_deref() == Some(kernel.name) {
            expected ^ 1
        } else {
            expected
        };
        if digest == expected {
            Ok(())
        } else {
            Err(self.fail(
                kernel.name,
                format!(
                    "{what}: state digest {digest:016x} after {count} instructions, \
                     plain VM gives {expected:016x}"
                ),
            ))
        }
    }

    pub fn fail(&self, kernel: &str, detail: String) -> BenchError {
        BenchError {
            workload: self.workload,
            kernel: kernel.to_string(),
            detail,
        }
    }
}

/// One session's timings: start (state acquired, engine built), engine
/// run, and hand-off of its RTM state.
#[derive(Clone, Copy, Debug)]
pub struct Session {
    /// 0 for the workload's primary variant (`mips`), 1 for the
    /// alternate one (`mips_alt`).
    pub variant: usize,
    pub start_ns: u64,
    pub run_ns: u64,
    pub handoff_ns: u64,
    /// Simulated instructions (executed + skipped).
    pub instructions: u64,
    pub skipped: u64,
    pub failed: bool,
}

impl Session {
    /// A failed or refused session: it counts as missing any latency
    /// limit.
    pub fn failed(variant: usize) -> Session {
        Session {
            variant,
            start_ns: 0,
            run_ns: 0,
            handoff_ns: 0,
            instructions: 0,
            skipped: 0,
            failed: true,
        }
    }

    /// A completed session from its marks: started, engine built, engine
    /// run done, state handed off.
    pub fn timed(variant: usize, marks: [Instant; 4], stats: &EngineStats) -> Session {
        let ns = |a: usize, b: usize| (marks[b] - marks[a]).as_nanos() as u64;
        Session {
            variant,
            start_ns: ns(0, 1),
            run_ns: ns(1, 2),
            handoff_ns: ns(2, 3),
            instructions: stats.total(),
            skipped: stats.skipped,
            failed: false,
        }
    }

    pub fn total_ns(&self) -> u64 {
        self.start_ns + self.run_ns + self.handoff_ns
    }
}

/// The end-to-end metrics from a run's passes of sessions, into `out`.
///
/// Timed figures are brought to the reference machine speed pass by
/// pass: each pass's rates are scaled by `PROBE_REFERENCE / speed` and its
/// latencies by the inverse, where `speed` is the probe's speed around the
/// pass ([`measure::probe_speed`]). The raw figures go into the report.
pub fn end_to_end(passes: &[Vec<Session>], clock: &PassClock, setup_s: f64, out: &mut Outcome) {
    let speeds = clock.speeds();
    let raw = vec![1.0; passes.len()];
    let scaled: Vec<f64> = speeds
        .iter()
        .map(|s| measure::PROBE_REFERENCE / s)
        .collect();
    let metrics = |scale: &[f64]| {
        let mips = |variant: usize| {
            let per_pass: Vec<f64> = passes
                .iter()
                .zip(scale)
                .filter_map(|(pass, f)| {
                    let (instr, ns) = pass
                        .iter()
                        .filter(|s| s.variant == variant && !s.failed)
                        .fold((0u64, 0u64), |(i, n), s| (i + s.instructions, n + s.run_ns));
                    (ns > 0).then(|| f * instr as f64 * 1e3 / ns as f64)
                })
                .collect();
            measure::median(&per_pass)
        };
        let sessions_per_s: Vec<f64> = passes
            .iter()
            .zip(scale)
            .map(|(pass, f)| {
                let ok = pass.iter().filter(|s| !s.failed).count();
                let ns: u64 = pass.iter().map(Session::total_ns).sum();
                f * ok as f64 * 1e9 / ns.max(1) as f64
            })
            .collect();
        let [starts, handoffs] = latencies(passes, scale);
        [
            mips(0),
            mips(1),
            measure::median(&sessions_per_s),
            measure::percentile(&starts, 0.50),
            measure::percentile(&handoffs, 0.50),
        ]
    };
    let names = [
        "mips",
        "mips_alt",
        "sessions_per_s",
        "start_p50_us",
        "handoff_p50_us",
    ];
    let (at_reference, as_run) = (metrics(&scaled), metrics(&raw));
    out.report.push(format!(
        "machine speed: probe at {:.3} of reference (median over {} passes); raw figures:",
        measure::median(&speeds) / measure::PROBE_REFERENCE,
        passes.len()
    ));
    for (name, value) in names.iter().zip(as_run) {
        out.report.push(format!("  raw {name:<16} {value:>16.3}"));
    }
    // Simulated, so it repeats exactly; the first pass is the whole story.
    let (skipped, total) = passes
        .first()
        .map(|pass| {
            pass.iter()
                .fold((0, 0), |(k, t), s| (k + s.skipped, t + s.instructions))
        })
        .unwrap_or((0, 0));
    out.metrics = names.into_iter().zip(at_reference).collect();
    out.metrics
        .insert("reuse_pct", 100.0 * skipped as f64 / total.max(1) as f64);
    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("peak_rss_mb", measure::peak_rss_mb());
}

/// Every session's start and hand-off latency in microseconds, each
/// pass's divided by its `scale`; a failed session enters as infinite,
/// missing any limit.
pub fn latencies(passes: &[Vec<Session>], scale: &[f64]) -> [Vec<f64>; 2] {
    let us = |f: fn(&Session) -> u64| -> Vec<f64> {
        passes
            .iter()
            .zip(scale)
            .flat_map(|(pass, k)| {
                pass.iter().map(move |s| {
                    if s.failed {
                        f64::INFINITY
                    } else {
                        f(s) as f64 / 1e3 / k
                    }
                })
            })
            .collect()
    };
    [us(|s| s.start_ns), us(|s| s.handoff_ns)]
}

/// The session p99s, which repeat too loosely from run to run to carry a
/// bound: traced runs report them as per-layer metrics.
pub fn set_session_p99s(m: &mut layers::LayerMetrics, passes: &[Vec<Session>]) {
    let [starts, handoffs] = latencies(passes, &vec![1.0; passes.len()]);
    m.set("session.start_p99_us", measure::percentile(&starts, 0.99));
    m.set(
        "session.handoff_p99_us",
        measure::percentile(&handoffs, 0.99),
    );
}

/// Keep starting passes until `seconds` of measurement have passed (one
/// pass in quick mode, at least two otherwise), reading the machine-speed
/// probe at every pass boundary.
pub struct PassClock {
    started: Instant,
    seconds: f64,
    quick: bool,
    pub passes: usize,
    probes: Vec<f64>,
}

impl PassClock {
    pub fn new(opts: &Options) -> Self {
        PassClock {
            started: Instant::now(),
            seconds: opts.seconds,
            quick: opts.quick,
            passes: 0,
            probes: Vec::new(),
        }
    }

    /// Whether another pass should run; counts it if so.
    pub fn next_pass(&mut self) -> bool {
        self.probes.push(measure::probe_speed());
        let more = if self.quick {
            self.passes < 1
        } else {
            self.passes < 2 || self.started.elapsed().as_secs_f64() < self.seconds
        };
        if more {
            self.passes += 1;
        }
        more
    }

    /// The probe's speed around each pass run so far: the mean of the
    /// readings before and after it.
    pub fn speeds(&self) -> Vec<f64> {
        self.probes
            .windows(2)
            .map(|w| (w[0] + w[1]) / 2.0)
            .collect()
    }
}
