//! The traced run's instruments: engine step loops assembled from the
//! layers' public calls with sampled per-call clocks, span recording in
//! Chrome trace-event JSON, and the self-time attribution table.
//!
//! A clock read costs several times a fast VM step, so per-instruction
//! layers are kept as aggregates: every call is counted, and 1 step in
//! [`SAMPLE_EVERY`] is timed call by call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use tlr_asm::Program;
use tlr_core::{
    Collector, EngineConfig, EngineStats, Heuristic, ReuseTraceMemory, RtmSnapshot, TraceRecord,
};
use tlr_stats::Histogram;
use tlr_vm::{FastStep, StepResult, Vm, VmError};

use crate::manifest::PER_LAYER;
use crate::measure::{ns_per_tick, ticks};
use crate::{BenchError, Options, Session};

/// One step in this many is timed call by call.
pub const SAMPLE_EVERY: u64 = 16;

/// The per-instruction call sites the step loops are built from.
#[derive(Clone, Copy, Debug)]
pub enum Call {
    VmStep,
    VmStepFast,
    VmApplyTrace,
    OnExecuted,
    OnReuseHit,
    Lookup,
    LookupFast,
    Insert,
}

const CALLS: usize = 8;

impl Call {
    /// The layer a call belongs to.
    fn layer(self) -> &'static str {
        match self {
            Call::VmStep | Call::VmStepFast | Call::VmApplyTrace => "vm",
            Call::OnExecuted | Call::OnReuseHit => "collect",
            Call::Lookup | Call::LookupFast | Call::Insert => "rtm",
        }
    }

    fn metric(self) -> &'static str {
        match self {
            Call::VmStep => "vm.step",
            Call::VmStepFast => "vm.step_fast",
            Call::VmApplyTrace => "vm.apply_trace",
            Call::OnExecuted => "collect.on_executed",
            Call::OnReuseHit => "collect.on_reuse_hit",
            Call::Lookup => "rtm.lookup",
            Call::LookupFast => "rtm.lookup_fast",
            Call::Insert => "rtm.insert",
        }
    }

    const ALL: [Call; CALLS] = [
        Call::VmStep,
        Call::VmStepFast,
        Call::VmApplyTrace,
        Call::OnExecuted,
        Call::OnReuseHit,
        Call::Lookup,
        Call::LookupFast,
        Call::Insert,
    ];
}

/// What timing costs, measured at run time: `read_ns` is what an
/// empty timed region reads; `wrap_ns` is what one timed call adds to an
/// enclosing timed region beyond its own reading (the second clock read
/// and the bookkeeping).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClockCost {
    pub read_ns: f64,
    pub wrap_ns: f64,
}

impl ClockCost {
    pub fn calibrate() -> ClockCost {
        let read_ns = crate::measure::timer_cost_ns();
        let mut scratch = Clocks::default();
        let batches: Vec<f64> = (0..200)
            .map(|_| {
                let t = ticks();
                for _ in 0..100 {
                    scratch.time(Call::VmStep, true, || std::hint::black_box(()));
                }
                (ticks() - t) as f64 * ns_per_tick() / 100.0
            })
            .collect();
        ClockCost {
            read_ns,
            wrap_ns: (crate::measure::median(&batches) - read_ns).max(0.0),
        }
    }
}

/// Call counts for every step plus clock readings for sampled steps.
#[derive(Clone, Debug)]
pub struct Clocks {
    pub steps: u64,
    pub sampled_steps: u64,
    /// Sampled readings are in [`ticks`].
    pub sampled_step_ns: u64,
    pub calls: [u64; CALLS],
    pub sampled_calls: [u64; CALLS],
    pub sampled_ns: [u64; CALLS],
    /// Log2 buckets of the sampled readings, kept inline so recording a
    /// sample touches no heap.
    pub hist: [[u32; 64]; CALLS],
}

impl Default for Clocks {
    fn default() -> Self {
        Clocks {
            steps: 0,
            sampled_steps: 0,
            sampled_step_ns: 0,
            calls: [0; CALLS],
            sampled_calls: [0; CALLS],
            sampled_ns: [0; CALLS],
            hist: [[0; 64]; CALLS],
        }
    }
}

impl Clocks {
    #[inline(always)]
    fn time<T>(&mut self, call: Call, sample: bool, f: impl FnOnce() -> T) -> T {
        let i = call as usize;
        self.calls[i] += 1;
        if !sample {
            return f();
        }
        let t = ticks();
        let out = f();
        let ns = ticks() - t;
        self.sampled_calls[i] += 1;
        self.sampled_ns[i] += ns;
        self.hist[i][63 - ns.max(1).leading_zeros() as usize] += 1;
        out
    }

    /// Sampled mean nanoseconds per call, clock cost removed.
    pub fn ns_per_call(&self, call: Call, cost: ClockCost) -> f64 {
        let i = call as usize;
        if self.sampled_calls[i] == 0 {
            return 0.0;
        }
        let mean = self.sampled_ns[i] as f64 * ns_per_tick() / self.sampled_calls[i] as f64;
        (mean - cost.read_ns).max(0.0)
    }

    /// Estimated total nanoseconds spent in `call`: its count times the
    /// sampled mean.
    pub fn estimate_ns(&self, call: Call, cost: ClockCost) -> f64 {
        self.calls[call as usize] as f64 * self.ns_per_call(call, cost)
    }

    /// Median of the sampled per-call histogram (bucket lower bound).
    fn sampled_p50_ns(&self, call: Call) -> f64 {
        let i = call as usize;
        let mut left = self.sampled_calls[i].div_ceil(2);
        for (bucket, &n) in self.hist[i].iter().enumerate() {
            if u64::from(n) >= left {
                return (1u64 << bucket) as f64 * ns_per_tick();
            }
            left -= u64::from(n);
        }
        0.0
    }

    /// The step loop's own time (everything in a step outside the layer
    /// calls), scaled from the sampled steps: each sampled step's reading
    /// less its calls' readings, less what timing them added.
    fn engine_self_ns(&self, cost: ClockCost) -> f64 {
        if self.sampled_steps == 0 {
            return 0.0;
        }
        let inner: u64 = self.sampled_ns.iter().sum();
        let timed_calls: u64 = self.sampled_calls.iter().sum();
        let own = (self.sampled_step_ns as f64 - inner as f64) * ns_per_tick()
            - timed_calls as f64 * cost.wrap_ns
            - self.sampled_steps as f64 * cost.read_ns;
        (own / self.sampled_steps as f64).max(0.0) * self.steps as f64
    }

    fn add(&mut self, other: &Clocks) {
        self.steps += other.steps;
        self.sampled_steps += other.sampled_steps;
        self.sampled_step_ns += other.sampled_step_ns;
        for i in 0..CALLS {
            self.calls[i] += other.calls[i];
            self.sampled_calls[i] += other.sampled_calls[i];
            self.sampled_ns[i] += other.sampled_ns[i];
            for (a, b) in self.hist[i].iter_mut().zip(other.hist[i]) {
                *a += b;
            }
        }
    }
}

/// Which engine's step loop a replica reproduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepLoop {
    /// `TraceReuseEngine::step`: closure-probed lookup, `apply_trace`,
    /// a full dynamic record per executed instruction.
    Reference,
    /// `ThroughputEngine` in fast mode with its collector attached.
    FastCollecting,
    /// `ThroughputEngine` in fast mode without collection.
    Serving,
}

/// An engine assembled from the VM, the RTM and the collector, stepping
/// exactly as the engine it replicates does.
pub struct Replica {
    vm: Vm,
    rtm: ReuseTraceMemory,
    collector: Option<Collector>,
    step_loop: StepLoop,
    executed: u64,
    skipped: u64,
    reuse_ops: u64,
    halted: bool,
    reused_sizes: Histogram,
}

impl Replica {
    /// A cold collecting replica (`TraceReuseEngine::new` or
    /// `ThroughputEngine::new`).
    pub fn cold(program: &Program, config: EngineConfig, step_loop: StepLoop) -> Self {
        assert!(
            matches!(config.heuristic, Heuristic::FixedExp(_)),
            "replicas cover the fixed-length heuristics the benchmark runs"
        );
        Replica {
            vm: Vm::new(program),
            rtm: ReuseTraceMemory::new_with(config.rtm, config.policy)
                .with_lfu_half_life(config.lfu_half_life),
            collector: Some(Collector::new(config.heuristic, config.caps, None)),
            step_loop,
            executed: 0,
            skipped: 0,
            reuse_ops: 0,
            halted: false,
            reused_sizes: Histogram::new(),
        }
    }

    /// A serving-only replica of
    /// `ThroughputEngine::new_warm(..).without_collection()`.
    pub fn serving(program: &Program, config: EngineConfig, snapshot: &RtmSnapshot) -> Self {
        Replica {
            vm: Vm::new(program),
            rtm: ReuseTraceMemory::import_with(snapshot, config.policy)
                .with_lfu_half_life(config.lfu_half_life),
            collector: None,
            step_loop: StepLoop::Serving,
            executed: 0,
            skipped: 0,
            reuse_ops: 0,
            halted: false,
            reused_sizes: Histogram::new(),
        }
    }

    /// Run to `budget` simulated instructions, timing 1 step in
    /// [`SAMPLE_EVERY`].
    pub fn run(&mut self, budget: u64, clocks: &mut Clocks) -> Result<EngineStats, VmError> {
        while self.executed + self.skipped < budget && !self.halted {
            let sample = clocks.steps.is_multiple_of(SAMPLE_EVERY);
            clocks.steps += 1;
            if sample {
                let t = ticks();
                self.step(clocks, true)?;
                clocks.sampled_step_ns += ticks() - t;
                clocks.sampled_steps += 1;
            } else {
                self.step(clocks, false)?;
            }
        }
        Ok(self.stats())
    }

    pub fn digest(&self) -> u64 {
        self.vm.state_digest()
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            executed: self.executed,
            skipped: self.skipped,
            reuse_ops: self.reuse_ops,
            halted: self.halted,
            rtm: self.rtm.stats(),
            collect: self
                .collector
                .as_ref()
                .map(|c| c.stats())
                .unwrap_or_default(),
            reused_sizes: self.reused_sizes.clone(),
        }
    }

    fn step(&mut self, c: &mut Clocks, s: bool) -> Result<(), VmError> {
        let pc = self.vm.pc();
        let rtm = &mut self.rtm;
        let vm = &mut self.vm;
        let hit = match self.step_loop {
            StepLoop::Reference => {
                let probe = &*vm;
                match c.time(Call::Lookup, s, || {
                    rtm.lookup(pc, |loc| probe.peek_loc(loc))
                }) {
                    Some(hit) => {
                        c.time(Call::VmApplyTrace, s, || {
                            vm.apply_trace(hit.outs.iter().copied(), hit.next_pc)
                        })?;
                        Some((hit.len, Some(hit)))
                    }
                    None => None,
                }
            }
            StepLoop::FastCollecting | StepLoop::Serving => {
                let want_record = self.collector.is_some();
                c.time(Call::LookupFast, s, || rtm.lookup_fast(pc, vm, want_record))?
                    .map(|hit| (hit.len, hit.rec))
            }
        };
        if let Some((len, rec)) = hit {
            self.skipped += len as u64;
            self.reuse_ops += 1;
            self.reused_sizes.record(len as u64);
            if let Some(collector) = self.collector.as_mut() {
                let rec = rec.expect("record requested when a collector is attached");
                let out = c.time(Call::OnReuseHit, s, || collector.on_reuse_hit(&rec));
                insert_all(rtm, out, c, s);
            }
            return Ok(());
        }
        match self.collector.as_mut() {
            Some(collector) => match c.time(Call::VmStep, s, || vm.step())? {
                StepResult::Executed(d) => {
                    self.executed += 1;
                    let out = c.time(Call::OnExecuted, s, || collector.on_executed(&d));
                    insert_all(rtm, out, c, s);
                }
                StepResult::Halted => self.halted = true,
            },
            None => match c.time(Call::VmStepFast, s, || vm.step_fast())? {
                FastStep::Executed(_) => self.executed += 1,
                FastStep::Halted => self.halted = true,
            },
        }
        Ok(())
    }
}

fn insert_all(rtm: &mut ReuseTraceMemory, records: Vec<TraceRecord>, c: &mut Clocks, s: bool) {
    for rec in records {
        c.time(Call::Insert, s, || rtm.insert(rec));
    }
}

/// One recorded span. Spans of one session share `session`.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub session: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder, written out once at the end of the run.
pub struct Spans {
    origin: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Record a span from `start` to `end`; returns its id.
    fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        session: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            session,
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        });
        id
    }

    /// Record a session span with consecutive children at the given
    /// boundaries: `marks[i]..marks[i+1]` is child `names[i]`.
    pub fn session(&mut self, session: u64, names: &[&'static str], marks: &[Instant]) {
        let parent = self.record("session", 0, session, marks[0], marks[marks.len() - 1]);
        for (i, name) in names.iter().enumerate() {
            self.record(name, parent, session, marks[i], marks[i + 1]);
        }
    }

    /// Write Chrome trace-event JSON (opens in chrome://tracing or
    /// Perfetto).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"tlrbench\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {}, \
                 \"parent\": {}, \"session\": {}}}}}{comma}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.session
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// The per-layer metric set of a traced run: every named metric,
/// zero until measured.
pub struct LayerMetrics(pub BTreeMap<&'static str, f64>);

impl Default for LayerMetrics {
    fn default() -> Self {
        LayerMetrics(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }
}

impl LayerMetrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.0.contains_key(name), "unknown per-layer metric {name}");
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Counts and sampled per-call times of the step-loop calls.
    pub fn set_calls(&mut self, clocks: &Clocks, cost: ClockCost) {
        for call in Call::ALL {
            let base = call.metric();
            self.set(
                metric_name(format!("{base}.calls")),
                clocks.calls[call as usize] as f64,
            );
            self.set(
                metric_name(format!("{base}.ns_per_call")),
                clocks.ns_per_call(call, cost),
            );
        }
    }

    /// Self time per layer as a share of `total_ns`, the rest reported
    /// as unattributed.
    pub fn set_shares(&mut self, self_ns: &BTreeMap<&'static str, f64>, total_ns: f64) {
        let mut attributed = 0.0;
        for (layer, ns) in self_ns {
            attributed += ns;
            self.set(
                metric_name(format!("self_pct.{layer}")),
                100.0 * ns / total_ns,
            );
        }
        self.set(
            "self_pct.unattributed",
            100.0 * (total_ns - attributed) / total_ns,
        );
    }
}

/// Metric names are `'static` in the manifest; map a built name back
/// onto the manifest's own string.
fn metric_name(name: String) -> &'static str {
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| *n == name)
        .unwrap_or_else(|| panic!("unknown per-layer metric {name}"))
}

/// Self time per layer for the step-loop workloads, from the sampled
/// clocks: vm, collect and rtm calls, and the loop's own time as engine.
fn step_loop_self_ns(clocks: &Clocks, cost: ClockCost) -> BTreeMap<&'static str, f64> {
    let mut by_layer = BTreeMap::new();
    for call in Call::ALL {
        *by_layer.entry(call.layer()).or_insert(0.0) += clocks.estimate_ns(call, cost);
    }
    by_layer.insert("engine", clocks.engine_self_ns(cost));
    by_layer
}

/// Report lines for the sampled step-loop calls.
fn call_table(clocks: &Clocks, cost: ClockCost) -> Vec<String> {
    let mut lines = vec![format!(
        "{:<22} {:>12} {:>10} {:>12} {:>12}",
        "call", "calls", "sampled", "ns/call", "p50 bucket"
    )];
    for call in Call::ALL {
        let i = call as usize;
        if clocks.calls[i] == 0 {
            continue;
        }
        lines.push(format!(
            "{:<22} {:>12} {:>10} {:>12.1} {:>12.0}",
            call.metric(),
            clocks.calls[i],
            clocks.sampled_calls[i],
            clocks.ns_per_call(call, cost),
            clocks.sampled_p50_ns(call)
        ));
    }
    lines
}

/// Collector and RTM counters summed over `stats`: what the collector
/// emitted and how the RTM stored it.
pub fn set_engine_counts<'a>(m: &mut LayerMetrics, stats: impl Iterator<Item = &'a EngineStats>) {
    let (mut records, mut expansions, mut cap_splits) = (0, 0, 0);
    let (mut evictions, mut duplicates, mut hits, mut stores) = (0, 0, 0, 0);
    for s in stats {
        records += s.collect.collected + s.collect.expansions;
        expansions += s.collect.expansions;
        cap_splits += s.collect.cap_splits;
        evictions += s.rtm.evictions;
        duplicates += s.rtm.duplicate_stores;
        hits += s.rtm.hits;
        stores += s.rtm.stores;
    }
    m.set("collect.records_out", records as f64);
    m.set("collect.expansions", expansions as f64);
    m.set("collect.cap_splits", cap_splits as f64);
    m.set("rtm.evictions", evictions as f64);
    m.set("rtm.duplicate_stores", duplicates as f64);
    m.set("rtm.hits_per_store", hits as f64 / stores as f64);
}

/// Hit ratio and value rejects per probe of one lookup path (`base` is
/// `rtm.lookup` or `rtm.lookup_fast`) over the engine runs in `stats`.
pub fn set_probe_ratios(m: &mut LayerMetrics, base: &str, stats: &[EngineStats]) {
    let lookups: u64 = stats.iter().map(|s| s.rtm.lookups).sum();
    let hits: u64 = stats.iter().map(|s| s.rtm.hits).sum();
    let rejects: u64 = stats.iter().map(|s| s.rtm.value_rejects).sum();
    m.set(
        metric_name(format!("{base}.hit_ratio")),
        hits as f64 / lookups as f64,
    );
    m.set(
        metric_name(format!("{base}.rejects_per_call")),
        rejects as f64 / lookups as f64,
    );
}

/// What a traced run of a step-loop workload (cold-collect, warm-serve)
/// gathers beside its untraced engine runs.
#[derive(Default)]
pub struct StepTrace {
    pub clocks: Clocks,
    pub spans: Spans,
    sessions: u64,
    /// Engine stats of the first pass, per variant.
    pub first_pass: [Vec<EngineStats>; 2],
    replica_run_ns: u64,
    resident: Vec<f64>,
}

impl StepTrace {
    /// Re-run one engine run on `replica` and hold it to the engine's
    /// stats and digest.
    pub fn replay(
        &mut self,
        mut replica: Replica,
        budget: u64,
        real: &EngineStats,
        real_digest: u64,
        fail: impl Fn(String) -> BenchError,
    ) -> Result<(), BenchError> {
        let mut clocks = Clocks::default();
        let t = ticks();
        let stats = replica.run(budget, &mut clocks);
        self.replica_run_ns += ((ticks() - t) as f64 * ns_per_tick()) as u64;
        let stats = stats.map_err(|e| fail(format!("replica: {e}")))?;
        if &stats != real || replica.digest() != real_digest {
            return Err(fail("replica diverged from the engine".into()));
        }
        self.clocks.add(&clocks);
        Ok(())
    }

    /// Record one untraced session: its spans (`marks` are start, engine
    /// built, run done, exported), its exported trace count, and its stats
    /// if this is the first pass.
    pub fn session(
        &mut self,
        start: &'static str,
        marks: [Instant; 4],
        resident: usize,
        stats: Option<EngineStats>,
        variant: usize,
    ) {
        self.spans
            .session(self.sessions, &[start, "run", "export"], &marks);
        self.sessions += 1;
        self.resident.push(resident as f64);
        if let Some(stats) = stats {
            self.first_pass[variant].push(stats);
        }
    }

    /// The metrics every step-loop workload reports: per-pass call counts
    /// and sampled times, session tails, engine time and its attribution,
    /// tracing overhead. Session time outside the loop (building or
    /// importing the RTM, exporting it) counts as `rtm`.
    pub fn metrics(&self, passes: &[Vec<Session>], cost: ClockCost) -> LayerMetrics {
        let sessions: Vec<&Session> = passes.iter().flatten().filter(|s| !s.failed).collect();
        let n = sessions.len() as f64;
        let sum = |f: fn(&Session) -> u64| sessions.iter().map(|s| f(s) as f64).sum::<f64>();
        let real = sum(|s| s.run_ns);
        let start_and_handoff = sum(|s| s.start_ns) + sum(|s| s.handoff_ns);

        let mut m = LayerMetrics::default();
        let mut per_pass = self.clocks.clone();
        for calls in per_pass.calls.iter_mut() {
            *calls /= passes.len() as u64;
        }
        m.set_calls(&per_pass, cost);
        crate::set_session_p99s(&mut m, passes);
        m.set("rtm.export.us", sum(|s| s.handoff_ns) / n / 1e3);
        m.set(
            "rtm.resident_traces",
            crate::measure::median(&self.resident),
        );
        m.set("engine.run.us", real / n / 1e3);
        let mut self_ns = step_loop_self_ns(&self.clocks, cost);
        // The replicas ran exactly the engines' instructions (checked).
        m.set(
            "engine.self_ns_per_instr",
            self_ns["engine"] / sum(|s| s.instructions),
        );
        let attributed: f64 = self_ns.values().sum();
        m.set(
            "engine.unattributed_pct",
            100.0 * (real - attributed) / real,
        );
        m.set(
            "trace.overhead_pct",
            100.0 * (self.replica_run_ns as f64 - real) / real,
        );
        *self_ns.entry("rtm").or_insert(0.0) += start_and_handoff;
        m.set_shares(&self_ns, sum(Session::total_ns));
        m
    }
}

/// The printed per-layer table of a traced run.
pub fn layer_report(
    workload: &str,
    m: &LayerMetrics,
    clocks: &Clocks,
    cost: ClockCost,
    extra: Vec<String>,
) -> Vec<String> {
    let mut lines = vec![format!(
        "== {workload}: per-layer metrics of the traced run"
    )];
    if clocks.steps > 0 {
        lines.push(format!(
            "clock read {:.1} ns, timed-call wrap {:.1} ns, 1 step in {SAMPLE_EVERY} timed",
            cost.read_ns, cost.wrap_ns
        ));
    }
    lines.push("-- self time by layer (% of session time)".into());
    for (name, value) in m.0.iter().filter(|(n, _)| n.starts_with("self_pct.")) {
        lines.push(format!(
            "{:<28} {:>8.2} %",
            &name["self_pct.".len()..],
            value
        ));
    }
    lines.extend(extra);
    if clocks.steps > 0 {
        lines.push("-- step-loop calls (per pass; ns sampled)".into());
        lines.extend(call_table(clocks, cost));
    }
    lines.push("-- every per-layer metric".into());
    for d in PER_LAYER {
        lines.push(format!("{:<36} {:>16.3} {}", d.name, m.0[d.name], d.unit));
    }
    lines
}

/// Write the run's spans into the output directory and say where.
pub fn write_spans(opts: &Options, spans: &Spans, report: &mut Vec<String>) {
    let path = opts.out_dir.join(format!(
        "spans-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    let written = std::fs::create_dir_all(&opts.out_dir).and_then(|_| spans.write_chrome(&path));
    report.push(match written {
        Ok(()) => format!("spans: {} ({} spans)", path.display(), spans.spans.len()),
        Err(e) => format!("spans: cannot write {}: {e}", path.display()),
    });
}
