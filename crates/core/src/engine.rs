//! The execution-driven trace-reuse engine (§3.3 + §4.6).
//!
//! This is the "realistic" machine of Figure 9: a functional processor
//! front-end that, at every fetch point, first consults the RTM. On a hit
//! — a resident trace starting at the current PC whose recorded live-in
//! values all equal the current architectural values — the processor
//! *skips* the trace: its recorded outputs are applied to the register
//! file and memory, the PC jumps to the trace's next-PC, and none of the
//! covered instructions are fetched or executed. On a miss, one
//! instruction executes normally and is offered to the trace collector.
//!
//! Correctness of the skip is a theorem of the deterministic ISA: every
//! value a trace reads is either produced inside the trace or captured in
//! its live-in set, so matching live-ins imply identical execution. The
//! engine (optionally) verifies this wholesale: a run with reuse enabled
//! must leave the same architectural state as a plain run
//! (`tests/engine_equivalence.rs`).
//!
//! One [`Engine`] implements the machine. Its reference instantiation,
//! [`TraceReuseEngine`], is the model the paper's figures are measured
//! on; its throughput instantiation, [`ThroughputEngine`], runs the same
//! machine on the predecoded, block-served fast substrate. Both must
//! agree exactly: same final `state_digest`, same [`EngineStats`]
//! including the reused-size histogram, same decision stream
//! (`tests/fast_engine.rs` checks that on every workload, cold and warm).

use crate::collect::{CollectStats, Collector, Heuristic};
use crate::ilr::FiniteIlrBuffer;
use crate::policy::ReplacementPolicy;
use crate::rtm::{ReuseBackend, ReuseTraceMemory, RtmConfig, RtmSnapshot, RtmStats};
use crate::trace::{IoCaps, TraceRecord};
use crate::valid_bit::InvalidatingRtm;
use tlr_asm::Program;
use tlr_stats::Histogram;
use tlr_vm::{ExecMode, FastStep, StepResult, Vm, VmError};

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// RTM geometry.
    pub rtm: RtmConfig,
    /// Trace-collection heuristic.
    pub heuristic: Heuristic,
    /// Per-trace I/O caps (the paper uses [`IoCaps::PAPER`]).
    pub caps: IoCaps,
    /// RTM replacement policy (the paper hard-wires
    /// [`ReplacementPolicy::Lru`]). Ignored by the valid-bit backend,
    /// which has its own invalid-first reclamation.
    pub policy: ReplacementPolicy,
    /// Aging half-life (in RTM ticks) for [`ReplacementPolicy::Lfu`]
    /// victim selection; [`crate::policy::LFU_HALF_LIFE`] by default.
    /// Other policies ignore it.
    pub lfu_half_life: u64,
}

impl EngineConfig {
    /// Figure 9's default: paper caps, LRU replacement, caller-chosen
    /// RTM and heuristic.
    pub fn paper(rtm: RtmConfig, heuristic: Heuristic) -> Self {
        Self {
            rtm,
            heuristic,
            caps: IoCaps::PAPER,
            policy: ReplacementPolicy::Lru,
            lfu_half_life: crate::policy::LFU_HALF_LIFE,
        }
    }

    /// Same configuration under a different RTM replacement policy.
    pub fn with_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Same configuration under a different LFU aging half-life (the
    /// `--lfu-half-life` knob).
    pub fn with_lfu_half_life(mut self, half_life: u64) -> Self {
        self.lfu_half_life = half_life;
        self
    }
}

/// One engine-level reuse decision, as recorded by the engine tap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReuseEvent {
    /// The RTM answered the fetch at `pc`: `len` instructions were
    /// skipped and control moved to `next_pc`.
    Hit {
        /// Fetch PC the reuse test answered.
        pc: u32,
        /// Dynamic instructions the reused trace covered.
        len: u32,
        /// Where control resumed.
        next_pc: u32,
        /// Per-class histogram of the skipped instructions. May total
        /// less than `len` when the trace came from a snapshot written
        /// before mixes existed; the shortfall is *unattributed*.
        mix: tlr_isa::ClassMix,
    },
    /// The reuse test missed at `pc` and one instruction executed.
    Exec {
        /// Fetch PC that executed normally.
        pc: u32,
        /// Class of the executed instruction.
        class: tlr_isa::OpClass,
    },
}

/// The engine-level tap: an ordered record of every reuse decision the
/// engine took. Where `tlr-persist`'s record mode taps the functional
/// VM (validating *what* executed), this validates the *engine*: two
/// runs under the same configuration must take identical decisions, and
/// a warm start must change them only by hitting earlier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionLog {
    /// Every decision, in fetch order (oldest first; recording stops at
    /// the cap, see [`DecisionLog::dropped`]).
    pub events: Vec<ReuseEvent>,
    /// Decisions *not* recorded because the cap was reached. The digest
    /// covers this count, so a truncated log never silently matches a
    /// complete one of the same prefix.
    pub dropped: u64,
    /// Maximum events retained ([`usize::MAX`] = unbounded).
    cap: usize,
}

impl Default for DecisionLog {
    fn default() -> Self {
        Self::new()
    }
}

impl DecisionLog {
    /// An unbounded log.
    pub fn new() -> Self {
        Self::with_cap(usize::MAX)
    }

    /// A log that retains at most `cap` events; further decisions are
    /// counted in [`DecisionLog::dropped`] instead of growing the
    /// buffer, so tapping a long run cannot exhaust memory.
    pub fn with_cap(cap: usize) -> Self {
        Self {
            events: Vec::new(),
            dropped: 0,
            cap,
        }
    }

    /// Record one decision, honouring the cap.
    pub fn push(&mut self, event: ReuseEvent) {
        if self.events.len() < self.cap {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// Number of decisions recorded (excluding dropped ones).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Order-sensitive digest of the decision stream — cheap equality
    /// for replay validation without retaining two full logs.
    pub fn digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = tlr_util::fxhash::FxHasher64::new();
        self.events.len().hash(&mut h);
        for event in &self.events {
            event.hash(&mut h);
        }
        self.dropped.hash(&mut h);
        h.finish()
    }
}

/// What a run of the engine produced. `PartialEq` compares every counter
/// and the full reused-size histogram — the equality the fast-vs-observed
/// mode tests assert.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineStats {
    /// Instructions the VM actually executed.
    pub executed: u64,
    /// Instructions covered by reuse hits (never fetched).
    pub skipped: u64,
    /// Number of reuse operations (RTM hits taken).
    pub reuse_ops: u64,
    /// Whether the program ran to its `halt`.
    pub halted: bool,
    /// RTM behaviour counters.
    pub rtm: RtmStats,
    /// Collector counters.
    pub collect: CollectStats,
    /// Distribution of reused trace lengths.
    pub reused_sizes: Histogram,
}

impl EngineStats {
    /// Total dynamic instructions the program made progress by
    /// (executed + skipped).
    pub fn total(&self) -> u64 {
        self.executed + self.skipped
    }

    /// Figure 9a's metric: % of dynamic instructions whose execution was
    /// skipped through trace reuse.
    pub fn pct_reused(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * self.skipped as f64 / self.total() as f64
        }
    }

    /// Figure 9b's metric: average size of a *reused* trace.
    pub fn avg_reused_trace_size(&self) -> f64 {
        if self.reuse_ops == 0 {
            0.0
        } else {
            self.skipped as f64 / self.reuse_ops as f64
        }
    }
}

/// The execution-driven reuse engine: a VM, a reuse backend `B` and a
/// trace collector. At every fetch it probes the backend; a hit skips
/// the trace, a miss executes one instruction and feeds the collector.
///
/// The observed step is the reference data flow: a closure-probed
/// [`ReuseBackend::lookup`], [`Vm::apply_trace`], a full
/// [`tlr_isa::DynInstr`] per executed instruction, and every
/// architectural write reported through [`ReuseBackend::on_write`] (the
/// valid-bit backend invalidates on them). [`ThroughputEngine`] also has
/// a fast step.
pub struct Engine<B = ReuseTraceMemory> {
    vm: Vm,
    rtm: B,
    /// `None` once detached: the engine then only serves resident traces.
    collector: Option<Collector>,
    mode: ExecMode,
    executed: u64,
    skipped: u64,
    reuse_ops: u64,
    halted: bool,
    reused_sizes: Histogram,
    /// Engine-level decision tap, recording when enabled.
    tap: Option<DecisionLog>,
}

/// The reference engine: the value-comparison [`ReuseTraceMemory`],
/// boxed, always stepping observed. The reuse test is chosen by type —
/// the valid-bit engine is `Engine<InvalidatingRtm>` — but this engine
/// keeps its boxed backend and its `Option` export
/// ([`TraceReuseEngine::export_rtm`]), because the benchmark harness
/// (`tlrbench`) calls `export_rtm().expect(..)` on it.
pub type TraceReuseEngine = Engine<Box<dyn ReuseBackend>>;

/// The throughput engine: the value-comparison RTM held directly,
/// stepping in [`ExecMode::Fast`] by default — hits served through
/// cached [`crate::block::TraceBlock`]s
/// ([`ReuseTraceMemory::lookup_fast`]) and, once
/// [`without_collection`](ThroughputEngine::without_collection) detaches
/// the collector, misses on the allocation-free predecoded interpreter
/// ([`Vm::step_fast`]). [`ExecMode::Observed`] takes the reference step.
pub type ThroughputEngine = Engine<ReuseTraceMemory>;

impl<B: sealed::Backend> Engine<B> {
    /// The engine around an already built backend, stepping observed.
    /// The ILR-driven heuristics get a finite ILR buffer with the RTM's
    /// geometry ("this memory has as many entries as the RTM", §4.6).
    fn with_backend(program: &Program, config: EngineConfig, rtm: B) -> Self {
        let ilr = match config.heuristic {
            Heuristic::IlrNe | Heuristic::IlrExp => Some(FiniteIlrBuffer::new(config.rtm.geometry)),
            Heuristic::FixedExp(_) | Heuristic::BasicBlock => None,
        };
        Self {
            vm: Vm::new(program),
            rtm,
            collector: Some(Collector::new(config.heuristic, config.caps, ilr)),
            mode: ExecMode::Observed,
            executed: 0,
            skipped: 0,
            reuse_ops: 0,
            halted: false,
            reused_sizes: Histogram::new(),
            tap: None,
        }
    }

    /// Access the VM (state inspection, digests).
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// Access the reuse backend.
    pub fn rtm(&self) -> &B {
        &self.rtm
    }

    /// Start recording every reuse decision into a [`DecisionLog`]
    /// (replaces any previous log). Costs one event per engine step, so
    /// enable it for validation runs, not for long sweeps.
    pub fn enable_tap(&mut self) {
        self.tap = Some(DecisionLog::new());
    }

    /// Like [`enable_tap`](Engine::enable_tap), but the log retains at
    /// most `cap` events (the rest are counted as dropped) — use this to
    /// tap arbitrarily long runs with bounded memory.
    pub fn enable_tap_with_cap(&mut self, cap: usize) {
        self.tap = Some(DecisionLog::with_cap(cap));
    }

    /// The decision log so far, if the tap is enabled.
    pub fn tap(&self) -> Option<&DecisionLog> {
        self.tap.as_ref()
    }

    /// Detach and return the decision log, disabling the tap.
    pub fn take_tap(&mut self) -> Option<DecisionLog> {
        self.tap.take()
    }

    /// Stamp `run` into the provenance of traces collected from here on
    /// ([`crate::policy::TraceMeta::source_run`]). No-op for the
    /// valid-bit backend.
    pub fn set_source_run(&mut self, run: u64) {
        self.rtm.set_source_run(run);
    }

    /// Run until `halt` or until `budget` total dynamic instructions
    /// (executed + skipped) have been accounted. Incremental calls
    /// continue where the previous one stopped.
    pub fn run(&mut self, budget: u64) -> Result<EngineStats, VmError> {
        while self.executed + self.skipped < budget && !self.halted {
            self.step()?;
        }
        Ok(self.stats())
    }

    /// One engine step: a reuse hit (skipping a whole trace) or one
    /// executed instruction.
    pub fn step(&mut self) -> Result<(), VmError> {
        B::step(self)
    }

    /// Statistics snapshot. Collector counters are zero when collection
    /// is detached.
    pub fn stats(&self) -> EngineStats {
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

    /// The observed step (see [`Engine`]).
    fn step_reference(&mut self) -> Result<(), VmError> {
        let pc = self.vm.pc();
        let vm = &self.vm;
        let Some(hit) = self.rtm.lookup(pc, &|loc| vm.peek_loc(loc)) else {
            return self.execute(pc);
        };
        self.vm.apply_trace(hit.outs.iter().copied(), hit.next_pc)?;
        self.count_hit(pc, hit.len, hit.next_pc, hit.mix);
        for (loc, _) in hit.outs.iter() {
            self.rtm.on_write(*loc);
        }
        self.collect_hit(&hit);
        Ok(())
    }

    /// A miss: execute one instruction, materializing its full record
    /// for the backend's write hook and the collector.
    fn execute(&mut self, pc: u32) -> Result<(), VmError> {
        match self.vm.step()? {
            StepResult::Executed(d) => {
                self.executed += 1;
                if let Some(tap) = self.tap.as_mut() {
                    tap.push(ReuseEvent::Exec { pc, class: d.class });
                }
                for (loc, _) in d.writes.iter() {
                    self.rtm.on_write(*loc);
                }
                if let Some(collector) = self.collector.as_mut() {
                    let recs = collector.on_executed(&d);
                    self.insert_all(recs);
                }
            }
            StepResult::Halted => self.halted = true,
        }
        Ok(())
    }

    /// Account a reuse hit at `pc` that skipped `len` instructions.
    fn count_hit(&mut self, pc: u32, len: u32, next_pc: u32, mix: tlr_isa::ClassMix) {
        self.skipped += len as u64;
        self.reuse_ops += 1;
        self.reused_sizes.record(len as u64);
        if let Some(tap) = self.tap.as_mut() {
            tap.push(ReuseEvent::Hit {
                pc,
                len,
                next_pc,
                mix,
            });
        }
    }

    /// Offer a reused trace to the collector (expansion), if attached.
    fn collect_hit(&mut self, hit: &TraceRecord) {
        if let Some(collector) = self.collector.as_mut() {
            let recs = collector.on_reuse_hit(hit);
            self.insert_all(recs);
        }
    }

    /// Store collected traces; the backend reads state as of now.
    fn insert_all(&mut self, recs: Vec<TraceRecord>) {
        let vm = &self.vm;
        for rec in recs {
            self.rtm.insert(rec, &|loc| vm.peek_loc(loc));
        }
    }
}

impl TraceReuseEngine {
    /// Load `program` under `config`.
    pub fn new(program: &Program, config: EngineConfig) -> Self {
        Self::with_backend(program, config, Box::new(cold_rtm(&config)))
    }

    /// Like [`TraceReuseEngine::new`], but seed the RTM from a prior
    /// run's [`RtmSnapshot`] so the engine starts warm instead of paying
    /// the full cold-start trace-collection cost.
    ///
    /// The snapshot's geometry overrides `config.rtm`.
    pub fn new_warm(program: &Program, config: EngineConfig, snapshot: &RtmSnapshot) -> Self {
        let (config, rtm) = warm_rtm(config, snapshot);
        Self::with_backend(program, config, Box::new(rtm))
    }

    /// Export the RTM's resident traces for persistence (warm-starting a
    /// later run). Always `Some`: the backend is the value-comparison RTM.
    pub fn export_rtm(&self) -> Option<RtmSnapshot> {
        self.rtm.snapshot()
    }
}

impl Engine<InvalidatingRtm> {
    /// Load `program` under `config` on the valid-bit reuse test (§3.3's
    /// simpler alternative), stepping observed so that every
    /// architectural write reaches [`ReuseBackend::on_write`]. The RTM
    /// geometry is `config.rtm`'s; the replacement policy is the
    /// backend's own invalid-first reclamation. Its state cannot be
    /// persisted (see [`ReuseBackend::snapshot`]).
    pub fn new(program: &Program, config: EngineConfig) -> Self {
        Self::with_backend(program, config, InvalidatingRtm::new(config.rtm.geometry))
    }
}

impl ThroughputEngine {
    /// Load `program` under `config`, in [`ExecMode::Fast`].
    pub fn new(program: &Program, config: EngineConfig) -> Self {
        Self::with_backend(program, config, cold_rtm(&config)).with_mode(ExecMode::Fast)
    }

    /// Like [`ThroughputEngine::new`], but seed the RTM from a prior
    /// run's [`RtmSnapshot`]. The snapshot's geometry overrides
    /// `config.rtm`, as in [`TraceReuseEngine::new_warm`].
    pub fn new_warm(program: &Program, config: EngineConfig, snapshot: &RtmSnapshot) -> Self {
        let (config, rtm) = warm_rtm(config, snapshot);
        Self::with_backend(program, config, rtm).with_mode(ExecMode::Fast)
    }

    /// Detach the collector: the engine only *serves* resident traces
    /// (warm-start / registry scenarios) and never inserts new ones. In
    /// fast mode this makes the whole miss path allocation-free.
    pub fn without_collection(mut self) -> Self {
        self.collector = None;
        self
    }

    /// Same engine in the given mode.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Export the RTM's resident traces for persistence.
    pub fn export_rtm(&self) -> RtmSnapshot {
        self.rtm.export()
    }

    /// The fast step: the block-served reuse test, and record-free
    /// misses when no collector needs the record.
    #[inline]
    fn step_fast(&mut self) -> Result<(), VmError> {
        let pc = self.vm.pc();
        let want_record = self.collector.is_some();
        if let Some(hit) = self.rtm.lookup_fast(pc, &mut self.vm, want_record)? {
            self.count_hit(pc, hit.len, hit.next_pc, hit.mix);
            if let Some(rec) = hit.rec {
                self.collect_hit(&rec);
            }
            return Ok(());
        }
        if self.collector.is_some() {
            return self.execute(pc);
        }
        match self.vm.step_fast()? {
            FastStep::Executed(class) => {
                self.executed += 1;
                if let Some(tap) = self.tap.as_mut() {
                    tap.push(ReuseEvent::Exec { pc, class });
                }
            }
            FastStep::Halted => self.halted = true,
        }
        Ok(())
    }
}

/// An empty value-comparison RTM under `config`'s geometry and policy.
fn cold_rtm(config: &EngineConfig) -> ReuseTraceMemory {
    ReuseTraceMemory::new_with(config.rtm, config.policy).with_lfu_half_life(config.lfu_half_life)
}

/// A warm start's configuration and RTM: the snapshot's geometry
/// overrides `config.rtm` (the ILR buffer follows it).
fn warm_rtm(config: EngineConfig, snapshot: &RtmSnapshot) -> (EngineConfig, ReuseTraceMemory) {
    let config = EngineConfig {
        rtm: snapshot.config,
        ..config
    };
    let rtm = ReuseTraceMemory::import_with(snapshot, config.policy)
        .with_lfu_half_life(config.lfu_half_life);
    (config, rtm)
}

mod sealed {
    use super::*;

    /// How an engine over a backend takes one step. Sealed: the boxed
    /// backend of [`TraceReuseEngine`] and the valid-bit backend always
    /// step observed, and only the value-comparison RTM has a fast path.
    pub trait Backend: ReuseBackend + Sized {
        /// Take one step of `engine`.
        fn step(engine: &mut Engine<Self>) -> Result<(), VmError>;
    }

    // The generic `run` loop is instantiated in the calling crate;
    // `#[inline]` here and on `step_fast` lets it take a step without
    // extra calls (measured: a serving-only run ~6% slower without).
    impl Backend for Box<dyn ReuseBackend> {
        #[inline]
        fn step(engine: &mut Engine<Self>) -> Result<(), VmError> {
            engine.step_reference()
        }
    }

    impl Backend for InvalidatingRtm {
        #[inline]
        fn step(engine: &mut Engine<Self>) -> Result<(), VmError> {
            engine.step_reference()
        }
    }

    impl Backend for ReuseTraceMemory {
        #[inline]
        fn step(engine: &mut Engine<Self>) -> Result<(), VmError> {
            match engine.mode {
                ExecMode::Fast => engine.step_fast(),
                ExecMode::Observed => engine.step_reference(),
            }
        }
    }
}

/// Convenience: run `program` under `config` for `budget` instructions.
pub fn run_engine(
    program: &Program,
    config: EngineConfig,
    budget: u64,
) -> Result<EngineStats, VmError> {
    TraceReuseEngine::new(program, config).run(budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_asm::assemble;
    use tlr_isa::{Loc, NullSink};

    /// A tight loop recomputing identical values: ideal for reuse.
    const HOT_LOOP: &str = r#"
            .org 0x80
    tab:    .word 2, 4, 6, 8
            li      r9, 300
    outer:  li      r1, tab
            li      r2, 4
            li      r5, 0
    inner:  ldq     r3, 0(r1)
            addq    r5, r5, r3
            addq    r1, r1, 1
            subq    r2, r2, 1
            bnez    r2, inner
            stq     r5, 64(zero)
            subq    r9, r9, 1
            bnez    r9, outer
            halt
    "#;

    #[test]
    fn fixed_heuristic_reuses_hot_loop() {
        let prog = assemble(HOT_LOOP).unwrap();
        let mut engine = TraceReuseEngine::new(
            &prog,
            EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4)),
        );
        let stats = engine.run(1_000_000).unwrap();
        assert!(stats.halted);
        assert!(stats.reuse_ops > 0, "no reuse at all");
        assert!(
            stats.pct_reused() > 30.0,
            "pct_reused = {}",
            stats.pct_reused()
        );
    }

    #[test]
    fn reuse_preserves_architectural_state() {
        let prog = assemble(HOT_LOOP).unwrap();
        // Plain run.
        let mut plain = tlr_vm::Vm::new(&prog);
        plain.run(1_000_000, &mut NullSink).unwrap();
        let expect = plain.peek_loc(Loc::Mem(64));

        for heuristic in [
            Heuristic::IlrNe,
            Heuristic::IlrExp,
            Heuristic::FixedExp(2),
            Heuristic::FixedExp(6),
        ] {
            let mut engine =
                TraceReuseEngine::new(&prog, EngineConfig::paper(RtmConfig::RTM_512, heuristic));
            let stats = engine.run(1_000_000).unwrap();
            assert!(stats.halted, "{heuristic:?} did not finish");
            assert_eq!(
                engine.vm().peek_loc(Loc::Mem(64)),
                expect,
                "{heuristic:?} corrupted state"
            );
            // Progress accounting matches the plain run exactly.
            assert_eq!(stats.total(), plain.executed(), "{heuristic:?}");
        }
    }

    #[test]
    fn ilr_heuristics_reuse_after_warmup() {
        let prog = assemble(HOT_LOOP).unwrap();
        let mut engine = TraceReuseEngine::new(
            &prog,
            EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::IlrExp),
        );
        let stats = engine.run(1_000_000).unwrap();
        assert!(stats.reuse_ops > 0);
        assert!(stats.pct_reused() > 20.0, "pct = {}", stats.pct_reused());
    }

    #[test]
    fn expansion_grows_reused_traces() {
        let prog = assemble(HOT_LOOP).unwrap();
        let small = TraceReuseEngine::new(
            &prog,
            EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(2)),
        )
        .run(1_000_000)
        .unwrap();
        // With expansion, average reused trace size should exceed the
        // base length 2 eventually.
        assert!(
            small.avg_reused_trace_size() > 2.0,
            "avg = {}",
            small.avg_reused_trace_size()
        );
        assert!(small.collect.expansions > 0);
    }

    #[test]
    fn bigger_rtm_reuses_no_less() {
        let prog = assemble(HOT_LOOP).unwrap();
        let mut results = Vec::new();
        for rtm in [RtmConfig::RTM_512, RtmConfig::RTM_4K] {
            let stats =
                TraceReuseEngine::new(&prog, EngineConfig::paper(rtm, Heuristic::FixedExp(4)))
                    .run(1_000_000)
                    .unwrap();
            results.push(stats.pct_reused());
        }
        // This program's working set fits even the small RTM, so both
        // should reuse; the larger must not do worse by more than noise.
        assert!(results[1] >= results[0] - 1.0, "{results:?}");
    }

    #[test]
    fn warm_start_never_reuses_less_and_preserves_state() {
        let prog = assemble(HOT_LOOP).unwrap();
        let config = EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4));
        let mut cold = TraceReuseEngine::new(&prog, config);
        let cold_stats = cold.run(1_000_000).unwrap();
        let snapshot = cold.export_rtm().expect("value-compare RTM snapshots");
        assert!(!snapshot.is_empty());

        let mut warm = TraceReuseEngine::new_warm(&prog, config, &snapshot);
        let warm_stats = warm.run(1_000_000).unwrap();
        assert!(warm_stats.halted);
        assert!(
            warm_stats.pct_reused() >= cold_stats.pct_reused(),
            "warm {} < cold {}",
            warm_stats.pct_reused(),
            cold_stats.pct_reused()
        );
        assert_eq!(
            warm.vm().peek_loc(Loc::Mem(64)),
            cold.vm().peek_loc(Loc::Mem(64)),
            "warm start corrupted architectural state"
        );
    }

    #[test]
    fn tap_records_identical_decisions_across_identical_runs() {
        let prog = assemble(HOT_LOOP).unwrap();
        let config = EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4));
        let run = || {
            let mut engine = TraceReuseEngine::new(&prog, config);
            engine.enable_tap();
            engine.run(100_000).unwrap();
            engine.take_tap().expect("tap enabled")
        };
        let (first, second) = (run(), run());
        assert!(!first.is_empty());
        assert_eq!(first.digest(), second.digest());
        assert_eq!(first, second, "engine decisions are not deterministic");
        // The log accounts for every step: hits carry trace lengths,
        // execs one instruction each.
        let (mut skipped, mut executed) = (0u64, 0u64);
        let mut mix_total = 0u64;
        for event in &first.events {
            match event {
                ReuseEvent::Hit { len, mix, .. } => {
                    skipped += *len as u64;
                    mix_total += mix.total();
                }
                ReuseEvent::Exec { .. } => executed += 1,
            }
        }
        let stats = TraceReuseEngine::new(&prog, config).run(100_000).unwrap();
        assert_eq!(skipped, stats.skipped);
        assert_eq!(executed, stats.executed);
        // Cold-run traces are collected with full mixes, so every hit is
        // fully attributed by instruction class.
        assert_eq!(mix_total, stats.skipped, "unattributed skips in a cold run");
    }

    #[test]
    fn tap_cap_bounds_memory_and_digest_sees_truncation() {
        let prog = assemble(HOT_LOOP).unwrap();
        let config = EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4));
        let mut engine = TraceReuseEngine::new(&prog, config);
        engine.enable_tap_with_cap(100);
        engine.run(100_000).unwrap();
        let capped = engine.take_tap().unwrap();
        assert_eq!(capped.len(), 100);
        assert!(capped.dropped > 0, "the run surely took > 100 decisions");

        let mut full_engine = TraceReuseEngine::new(&prog, config);
        full_engine.enable_tap();
        full_engine.run(100_000).unwrap();
        let full = full_engine.take_tap().unwrap();
        assert_eq!(full.dropped, 0);
        assert_eq!(
            capped.events[..],
            full.events[..100],
            "the cap must truncate, not alter, the stream"
        );
        // Same prefix, but the digest must still distinguish them.
        assert_ne!(capped.digest(), full.digest());
        let mut prefix = DecisionLog::new();
        for e in &full.events[..100] {
            prefix.push(*e);
        }
        assert_ne!(
            capped.digest(),
            prefix.digest(),
            "dropped count is digested"
        );
    }

    #[test]
    fn tap_digest_replays_identically_under_every_policy() {
        // The engine-level replay oracle, exercised across all three
        // stock policies plus the measured cost-benefit variant: same
        // program + config ⇒ bit-identical decision streams.
        let prog = assemble(HOT_LOOP).unwrap();
        let mut weights_table = [1u16; tlr_isa::OpClass::COUNT];
        weights_table[tlr_isa::OpClass::Load.index()] = 2;
        let mut policies = crate::policy::ReplacementPolicy::ALL.to_vec();
        policies.push(ReplacementPolicy::CostBenefitMeasured(
            crate::policy::ClassWeights::from_table(weights_table),
        ));
        for policy in policies {
            let run = || {
                let mut engine = TraceReuseEngine::new(
                    &prog,
                    EngineConfig::paper(RtmConfig::RTM_512, Heuristic::FixedExp(4))
                        .with_policy(policy),
                );
                engine.enable_tap();
                let stats = engine.run(60_000).unwrap();
                (engine.take_tap().unwrap(), stats)
            };
            let ((first, stats), (second, _)) = (run(), run());
            assert!(!first.is_empty(), "{policy}");
            assert_eq!(first.digest(), second.digest(), "{policy}");
            assert_eq!(first, second, "{policy}: decisions not deterministic");
            // The log reconstructs the run's totals exactly.
            let (mut skipped, mut executed) = (0u64, 0u64);
            for event in &first.events {
                match event {
                    ReuseEvent::Hit { len, .. } => skipped += u64::from(*len),
                    ReuseEvent::Exec { .. } => executed += 1,
                }
            }
            assert_eq!(skipped, stats.skipped, "{policy}");
            assert_eq!(executed, stats.executed, "{policy}");
        }
    }

    #[test]
    fn lfu_half_life_knob_reaches_the_rtm() {
        // A maximally forgetful half-life must change LFU victim choices
        // on some workload/geometry; at minimum the config plumbs through
        // and runs stay architecturally correct.
        let prog = assemble(HOT_LOOP).unwrap();
        let mut plain = tlr_vm::Vm::new(&prog);
        plain.run(1_000_000, &mut NullSink).unwrap();
        let expect = plain.peek_loc(Loc::Mem(64));
        for half_life in [1u64, 64, crate::policy::LFU_HALF_LIFE, u64::MAX] {
            let config = EngineConfig::paper(RtmConfig::RTM_512, Heuristic::FixedExp(4))
                .with_policy(ReplacementPolicy::Lfu)
                .with_lfu_half_life(half_life);
            assert_eq!(config.lfu_half_life, half_life);
            let mut engine = TraceReuseEngine::new(&prog, config);
            let stats = engine.run(1_000_000).unwrap();
            assert!(stats.halted, "half_life={half_life}");
            assert_eq!(
                engine.vm().peek_loc(Loc::Mem(64)),
                expect,
                "half_life={half_life} corrupted state"
            );
        }
    }

    #[test]
    fn tap_distinguishes_warm_from_cold_runs() {
        let prog = assemble(HOT_LOOP).unwrap();
        let config = EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4));
        let mut cold = TraceReuseEngine::new(&prog, config);
        cold.enable_tap();
        cold.run(1_000_000).unwrap();
        let cold_log = cold.take_tap().unwrap();
        let snapshot = cold.export_rtm().unwrap();

        let mut warm = TraceReuseEngine::new_warm(&prog, config, &snapshot);
        warm.enable_tap();
        warm.run(1_000_000).unwrap();
        let warm_log = warm.take_tap().unwrap();
        assert_ne!(
            cold_log.digest(),
            warm_log.digest(),
            "a warm start must hit earlier than its cold run"
        );
    }

    #[test]
    fn every_policy_preserves_architectural_state() {
        let prog = assemble(HOT_LOOP).unwrap();
        let mut plain = tlr_vm::Vm::new(&prog);
        plain.run(1_000_000, &mut NullSink).unwrap();
        let expect = plain.peek_loc(Loc::Mem(64));

        for policy in crate::policy::ReplacementPolicy::ALL {
            let config =
                EngineConfig::paper(RtmConfig::RTM_512, Heuristic::FixedExp(4)).with_policy(policy);
            let mut engine = TraceReuseEngine::new(&prog, config);
            let stats = engine.run(1_000_000).unwrap();
            assert!(stats.halted, "{policy}: did not finish");
            assert!(stats.reuse_ops > 0, "{policy}: no reuse at all");
            assert_eq!(
                engine.vm().peek_loc(Loc::Mem(64)),
                expect,
                "{policy} corrupted state"
            );
            assert_eq!(stats.total(), plain.executed(), "{policy}");
        }
    }

    #[test]
    fn budget_bounds_total_progress() {
        let prog = assemble(HOT_LOOP).unwrap();
        let stats = TraceReuseEngine::new(
            &prog,
            EngineConfig::paper(RtmConfig::RTM_512, Heuristic::FixedExp(4)),
        )
        .run(500)
        .unwrap();
        assert!(!stats.halted);
        // A single step may overshoot by at most one (expanded) trace
        // length.
        assert!(stats.total() >= 500);
        assert!(stats.total() < 500 + 4096);
    }

    fn config() -> EngineConfig {
        EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4))
    }

    #[test]
    fn fast_and_observed_modes_produce_identical_stats() {
        let program = assemble(HOT_LOOP).unwrap();
        let mut fast = ThroughputEngine::new(&program, config());
        let mut observed = ThroughputEngine::new(&program, config()).with_mode(ExecMode::Observed);
        let sf = fast.run(100_000).unwrap();
        let so = observed.run(100_000).unwrap();
        assert_eq!(sf, so);
        assert!(sf.halted);
        assert!(sf.skipped > 0);
        assert_eq!(fast.vm().state_digest(), observed.vm().state_digest());
    }

    #[test]
    fn fast_engine_matches_reference_engine() {
        let program = assemble(HOT_LOOP).unwrap();
        let mut fast = ThroughputEngine::new(&program, config());
        let mut reference = TraceReuseEngine::new(&program, config());
        fast.enable_tap();
        reference.enable_tap();
        let sf = fast.run(100_000).unwrap();
        let sr = reference.run(100_000).unwrap();
        assert_eq!(sf, sr);
        assert_eq!(fast.vm().state_digest(), reference.vm().state_digest());
        assert_eq!(
            fast.take_tap().unwrap().digest(),
            reference.take_tap().unwrap().digest()
        );
    }

    #[test]
    fn serving_only_engine_hits_without_collecting() {
        let program = assemble(HOT_LOOP).unwrap();
        // Learn traces with a collecting run, then serve them cold.
        let mut teacher = ThroughputEngine::new(&program, config());
        teacher.run(100_000).unwrap();
        let snapshot = teacher.export_rtm();
        assert!(!snapshot.is_empty());

        let mut server =
            ThroughputEngine::new_warm(&program, config(), &snapshot).without_collection();
        let stats = server.run(100_000).unwrap();
        assert!(stats.halted);
        assert!(stats.skipped > 0, "warm RTM must serve hits");
        assert_eq!(stats.rtm.stores, 0, "serving-only engine never inserts");
        assert_eq!(stats.collect.collected, 0);
        // Architectural result identical to plain execution.
        let mut plain = Vm::new(&program);
        plain.run_fast(u64::MAX).unwrap();
        assert_eq!(server.vm().state_digest(), plain.state_digest());
    }

    #[test]
    fn modes_agree_across_policies_and_heuristics() {
        let program = assemble(HOT_LOOP).unwrap();
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Lfu,
            ReplacementPolicy::CostBenefit,
        ] {
            for heuristic in [Heuristic::IlrExp, Heuristic::BasicBlock] {
                let cfg = EngineConfig::paper(RtmConfig::RTM_512, heuristic).with_policy(policy);
                let mut fast = ThroughputEngine::new(&program, cfg);
                let mut observed =
                    ThroughputEngine::new(&program, cfg).with_mode(ExecMode::Observed);
                let sf = fast.run(60_000).unwrap();
                let so = observed.run(60_000).unwrap();
                assert_eq!(sf, so, "policy {policy:?} heuristic {heuristic:?}");
                assert_eq!(fast.vm().state_digest(), observed.vm().state_digest());
            }
        }
    }
}
