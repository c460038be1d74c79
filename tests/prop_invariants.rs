//! Cross-crate property tests: invariants the whole system must satisfy
//! regardless of workload or configuration.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tlr_core::{
    InstrReuseTable, IoCaps, LimitConfig, LimitStudySink, ReplacementPolicy, ReuseTraceMemory,
    RtmConfig, RtmSnapshot, RtmStats, SetAssocGeometry, TraceAccum, TraceMeta, TraceRecord,
    LFU_HALF_LIFE,
};
use tlr_isa::{Alpha21164, ClassMix, DynInstr, Loc, OpClass, StreamSink, UnitLatency};
use tlr_timing::{analyze_base, TimingSim, Window};
use tlr_workloads::synthetic::{generate, SyntheticConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// IPC is monotone in window size: a wider window never slows the
    /// base machine down.
    #[test]
    fn window_monotonicity(seed in any::<u64>(), redundancy in 0.0f64..1.0) {
        let cfg = SyntheticConfig { seed, redundancy, ..Default::default() };
        let stream = generate(&cfg, 3_000);
        let mut prev_cycles = u64::MAX;
        for w in [1usize, 8, 64, 512] {
            let res = analyze_base(&stream, Window::finite(w), &Alpha21164);
            prop_assert!(res.cycles <= prev_cycles, "window {w} slower");
            prev_cycles = res.cycles;
        }
        let inf = analyze_base(&stream, Window::infinite(), &Alpha21164);
        prop_assert!(inf.cycles <= prev_cycles);
    }

    /// The reuse oracle never hurts: every ILR/TLR variant in the limit
    /// study is at least as fast as its base machine.
    #[test]
    fn oracle_reuse_never_slower(seed in any::<u64>(), redundancy in 0.0f64..1.0) {
        let cfg = SyntheticConfig { seed, redundancy, ..Default::default() };
        let stream = generate(&cfg, 3_000);
        let mut sink = LimitStudySink::new(LimitConfig::default(), &Alpha21164);
        for d in &stream {
            sink.observe(d);
        }
        sink.finish();
        let res = sink.result();
        for lat in [1u64, 2, 3, 4] {
            prop_assert!(res.ilr_speedup_inf(lat) >= 1.0 - 1e-9);
            prop_assert!(res.ilr_speedup_win(lat) >= 1.0 - 1e-9);
            prop_assert!(res.tlr_speedup_win(lat) >= 1.0 - 1e-9);
            prop_assert!(res.tlr_speedup_inf(lat) >= 1.0 - 1e-9);
        }
        for &(k, _) in &res.tlr_win_prop {
            prop_assert!(res.tlr_speedup_k(k) >= 1.0 - 1e-9);
        }
    }

    /// Trace-level reusable instruction count can never exceed the
    /// instruction-level reusable count (Theorem 1's practical corollary:
    /// the maximal-trace partition covers exactly the ILR-reusable set).
    #[test]
    fn trace_coverage_equals_ilr_reusability(seed in any::<u64>(), redundancy in 0.1f64..0.95) {
        let cfg = SyntheticConfig { seed, redundancy, ..Default::default() };
        let stream = generate(&cfg, 3_000);
        let mut table = InstrReuseTable::new();
        let mut reusable = 0u64;
        for d in &stream {
            if table.probe_insert(d) {
                reusable += 1;
            }
        }
        let mut sink = LimitStudySink::new(LimitConfig::default(), &Alpha21164);
        for d in &stream {
            sink.observe(d);
        }
        sink.finish();
        let res = sink.result();
        prop_assert_eq!(res.trace_stats.instrs_in_traces, reusable);
    }

    /// TLR with constant latency is monotone: smaller latency is never
    /// slower.
    #[test]
    fn tlr_latency_monotone(seed in any::<u64>()) {
        let cfg = SyntheticConfig { seed, redundancy: 0.9, ..Default::default() };
        let stream = generate(&cfg, 3_000);
        let mut sink = LimitStudySink::new(LimitConfig::default(), &Alpha21164);
        for d in &stream {
            sink.observe(d);
        }
        sink.finish();
        let res = sink.result();
        let mut prev = f64::INFINITY;
        for lat in [1u64, 2, 3, 4] {
            let s = res.tlr_speedup_win(lat);
            prop_assert!(s <= prev + 1e-9, "latency {lat} faster than {}", lat - 1);
            prev = s;
        }
    }

    /// A trace accumulator under paper caps never exceeds them.
    #[test]
    fn accum_respects_caps(seed in any::<u64>()) {
        let cfg = SyntheticConfig { seed, redundancy: 0.5, mem_fraction: 0.6, ..Default::default() };
        let stream = generate(&cfg, 500);
        let mut acc = TraceAccum::new(IoCaps::PAPER);
        let mut records = Vec::new();
        for d in &stream {
            if !acc.try_add(d) {
                if let Some(rec) = acc.finalize() {
                    records.push(rec);
                }
                let _ = acc.try_add(d);
            }
        }
        records.extend(acc.finalize());
        for rec in &records {
            prop_assert!(rec.reg_ins() <= IoCaps::PAPER.reg_in);
            prop_assert!(rec.mem_ins() <= IoCaps::PAPER.mem_in);
            prop_assert!(rec.reg_outs() <= IoCaps::PAPER.reg_out);
            prop_assert!(rec.mem_outs() <= IoCaps::PAPER.mem_out);
            prop_assert!(rec.len >= 1);
        }
        // Nothing was lost: record lengths sum to the stream length.
        let total: u64 = records.iter().map(|r| r.len as u64).sum();
        prop_assert_eq!(total, stream.len() as u64);
    }

    /// Unit-latency sanity: with no dependences and an infinite window,
    /// everything completes at cycle 1.
    #[test]
    fn independent_stream_is_fully_parallel(n in 1usize..500) {
        let lat = UnitLatency;
        let mut sim = TimingSim::new(Window::infinite(), &lat);
        for pc in 0..n as u32 {
            let d = tlr_isa::DynInstr {
                pc,
                next_pc: pc + 1,
                class: tlr_isa::OpClass::IntAlu,
                reads: Default::default(),
                writes: Default::default(),
            };
            sim.step_normal(&d);
        }
        prop_assert_eq!(sim.cycles(), 1);
    }
}

/// The limit-study sink agrees with a direct reusability count on real
/// workloads (two code paths, one definition).
#[test]
fn sink_reusability_matches_direct_count() {
    for name in ["go", "turb3d"] {
        let w = tlr_workloads::by_name(name).unwrap();
        let prog = w.program_with(9, 4);
        let mut vm = tlr_vm::Vm::new(&prog);
        let mut sink = tlr_isa::CollectSink::default();
        vm.run(15_000, &mut sink).unwrap();

        let mut table = InstrReuseTable::new();
        let mut reusable = 0u64;
        for d in &sink.records {
            if table.probe_insert(d) {
                reusable += 1;
            }
        }
        let mut study = LimitStudySink::new(LimitConfig::default(), &Alpha21164);
        for d in &sink.records {
            study.observe(d);
        }
        study.finish();
        let res = study.result();
        let expect = 100.0 * reusable as f64 / sink.records.len() as f64;
        assert!((res.reusability_pct - expect).abs() < 1e-9, "{name}");
    }
}

/// The set/map trace accumulator that [`TraceAccum`] replaced, kept as
/// the reference model: a hash set of live-in locations and a map from
/// written location to output slot, registers and memory alike.
struct SetMapAccum {
    caps: IoCaps,
    start_pc: Option<u32>,
    next_pc: u32,
    len: u32,
    ins: Vec<(Loc, u64)>,
    outs: Vec<(Loc, u64)>,
    mix: ClassMix,
    in_locs: HashSet<Loc>,
    out_index: HashMap<Loc, usize>,
    reg_ins: usize,
    mem_ins: usize,
    reg_outs: usize,
    mem_outs: usize,
}

impl SetMapAccum {
    fn new(caps: IoCaps) -> Self {
        Self {
            caps,
            start_pc: None,
            next_pc: 0,
            len: 0,
            ins: Vec::new(),
            outs: Vec::new(),
            mix: ClassMix::EMPTY,
            in_locs: HashSet::new(),
            out_index: HashMap::new(),
            reg_ins: 0,
            mem_ins: 0,
            reg_outs: 0,
            mem_outs: 0,
        }
    }

    /// Counts a location the instruction names twice twice in the cap
    /// check, and records it once.
    fn try_add(&mut self, d: &DynInstr) -> bool {
        let (mut new_reg_ins, mut new_mem_ins) = (0, 0);
        for (loc, _) in d.reads.iter() {
            if !self.out_index.contains_key(loc) && !self.in_locs.contains(loc) {
                if loc.is_mem() {
                    new_mem_ins += 1;
                } else {
                    new_reg_ins += 1;
                }
            }
        }
        let (mut new_reg_outs, mut new_mem_outs) = (0, 0);
        for (loc, _) in d.writes.iter() {
            if !self.out_index.contains_key(loc) {
                if loc.is_mem() {
                    new_mem_outs += 1;
                } else {
                    new_reg_outs += 1;
                }
            }
        }
        if self.reg_ins + new_reg_ins > self.caps.reg_in
            || self.mem_ins + new_mem_ins > self.caps.mem_in
            || self.reg_outs + new_reg_outs > self.caps.reg_out
            || self.mem_outs + new_mem_outs > self.caps.mem_out
        {
            return false;
        }
        self.start_pc.get_or_insert(d.pc);
        for (loc, val) in d.reads.iter() {
            if !self.out_index.contains_key(loc) && self.in_locs.insert(*loc) {
                self.ins.push((*loc, *val));
                if loc.is_mem() {
                    self.mem_ins += 1;
                } else {
                    self.reg_ins += 1;
                }
            }
        }
        for (loc, val) in d.writes.iter() {
            match self.out_index.get(loc) {
                Some(i) => self.outs[*i].1 = *val,
                None => {
                    self.out_index.insert(*loc, self.outs.len());
                    self.outs.push((*loc, *val));
                    if loc.is_mem() {
                        self.mem_outs += 1;
                    } else {
                        self.reg_outs += 1;
                    }
                }
            }
        }
        self.next_pc = d.next_pc;
        self.mix.record(d.class);
        self.len += 1;
        true
    }

    fn finalize(&mut self) -> Option<TraceRecord> {
        let start_pc = self.start_pc?;
        let done = std::mem::replace(self, Self::new(self.caps));
        Some(TraceRecord {
            start_pc,
            next_pc: done.next_pc,
            len: done.len,
            ins: done.ins.into_boxed_slice(),
            outs: done.outs.into_boxed_slice(),
            mix: done.mix,
        })
    }
}

/// The set/map merge that [`TraceRecord::merge`] replaced.
fn set_map_merge(a: &TraceRecord, b: &TraceRecord, caps: &IoCaps) -> Option<TraceRecord> {
    if a.next_pc != b.start_pc {
        return None;
    }
    let a_outs: HashSet<Loc> = a.outs.iter().map(|(l, _)| *l).collect();
    let a_ins: HashSet<Loc> = a.ins.iter().map(|(l, _)| *l).collect();
    let mut ins = a.ins.to_vec();
    for (loc, val) in b.ins.iter() {
        if !a_outs.contains(loc) && !a_ins.contains(loc) {
            ins.push((*loc, *val));
        }
    }
    let mut outs = a.outs.to_vec();
    let mut out_index: HashMap<Loc, usize> =
        outs.iter().enumerate().map(|(i, (l, _))| (*l, i)).collect();
    for (loc, val) in b.outs.iter() {
        match out_index.get(loc) {
            Some(i) => outs[*i].1 = *val,
            None => {
                out_index.insert(*loc, outs.len());
                outs.push((*loc, *val));
            }
        }
    }
    let record = TraceRecord {
        start_pc: a.start_pc,
        next_pc: b.next_pc,
        len: a.len + b.len,
        ins: ins.into_boxed_slice(),
        outs: outs.into_boxed_slice(),
        mix: a.mix.sum(b.mix),
    };
    record.within_caps(caps).then_some(record)
}

/// The caps the equivalence properties run under: the paper's, a tight
/// one that refuses often, and none.
const EQUIVALENCE_CAPS: [IoCaps; 3] = [
    IoCaps::PAPER,
    IoCaps {
        reg_in: 3,
        mem_in: 1,
        reg_out: 2,
        mem_out: 1,
    },
    IoCaps::UNLIMITED,
];

/// A location from a small pool of integer registers, FP registers and
/// memory words, so that instructions and traces share locations often.
fn pooled_loc() -> impl Strategy<Value = Loc> {
    prop_oneof![
        (0u8..6).prop_map(Loc::IntReg),
        (0u8..6).prop_map(Loc::FpReg),
        (0u64..6).prop_map(Loc::Mem),
    ]
}

/// A stream of executed instructions at consecutive PCs, each paired
/// with a flag that asks the check to close the trace after it. Some
/// instructions read their first location twice (`addq r1, r2, r2`).
fn synthetic_stream() -> impl Strategy<Value = Vec<(DynInstr, bool)>> {
    let instr = (
        proptest::collection::vec((pooled_loc(), 0u64..1000), 0..=3),
        any::<bool>(),
        proptest::collection::vec((pooled_loc(), 0u64..1000), 0..=2),
        0..OpClass::COUNT,
        0u8..8,
    );
    proptest::collection::vec(instr, 1..96).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(pc, (mut reads, double, writes, class, cut))| {
                if double && !reads.is_empty() {
                    reads.push(reads[0]);
                }
                let d = DynInstr {
                    pc: pc as u32,
                    next_pc: pc as u32 + 1,
                    class: OpClass::ALL[class],
                    reads: reads.into_iter().collect(),
                    writes: writes.into_iter().collect(),
                };
                (d, cut == 0)
            })
            .collect()
    })
}

/// An arbitrary record side: locations may repeat, which collection
/// never produces but a decoded snapshot can.
fn arbitrary_side() -> impl Strategy<Value = Vec<(Loc, u64)>> {
    proptest::collection::vec((pooled_loc(), 0u64..1000), 0..8)
}

/// Equal as records *and* in their class mixes (record equality ignores
/// the mix).
fn same_record(a: Option<TraceRecord>, b: Option<TraceRecord>) -> Result<(), TestCaseError> {
    let a = a.map(|r| (r.mix, r));
    let b = b.map(|r| (r.mix, r));
    prop_assert_eq!(a, b);
    Ok(())
}

/// Feed `stream` to a [`TraceAccum`] and the set/map model side by side,
/// closing on refusal as the collector does and wherever the stream asks.
fn check_accum_against_model(
    stream: &[(DynInstr, bool)],
    caps: IoCaps,
) -> Result<(), TestCaseError> {
    let mut accum = TraceAccum::new(caps);
    let mut model = SetMapAccum::new(caps);
    for (d, cut) in stream {
        let before = (
            accum.live_ins().to_vec(),
            accum.live_outs().to_vec(),
            accum.len(),
        );
        let added = accum.try_add(d);
        prop_assert_eq!(
            added,
            model.try_add(d),
            "try_add at pc {} under {:?}",
            d.pc,
            caps
        );
        if !added {
            // A refusal leaves the accumulator untouched.
            let after = (
                accum.live_ins().to_vec(),
                accum.live_outs().to_vec(),
                accum.len(),
            );
            prop_assert_eq!(after, before);
            same_record(accum.finalize(), model.finalize())?;
            prop_assert_eq!(accum.try_add(d), model.try_add(d));
        }
        prop_assert_eq!(accum.live_ins(), model.ins.as_slice());
        prop_assert_eq!(accum.live_outs(), model.outs.as_slice());
        prop_assert_eq!(accum.len(), model.len);
        if *cut {
            same_record(accum.finalize(), model.finalize())?;
        }
    }
    same_record(accum.finalize(), model.finalize())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `TraceAccum` agrees with the set/map model instruction for
    /// instruction and record for record, refusals included.
    #[test]
    fn accum_matches_set_map_model(stream in synthetic_stream()) {
        for caps in EQUIVALENCE_CAPS {
            check_accum_against_model(&stream, caps)?;
        }
    }

    /// `TraceRecord::merge` agrees with the set/map merge on adjacent
    /// collected traces, pairwise and chained the way expansion chains
    /// consecutive hits.
    #[test]
    fn merge_matches_set_map_model_on_collected_traces(stream in synthetic_stream()) {
        let mut model = SetMapAccum::new(IoCaps::UNLIMITED);
        let mut pieces = Vec::new();
        for (d, cut) in &stream {
            model.try_add(d);
            if *cut {
                pieces.extend(model.finalize());
            }
        }
        pieces.extend(model.finalize());
        for caps in EQUIVALENCE_CAPS {
            for pair in pieces.windows(2) {
                same_record(pair[0].merge(&pair[1], &caps), set_map_merge(&pair[0], &pair[1], &caps))?;
                // Not adjacent in this order.
                same_record(pair[1].merge(&pair[0], &caps), set_map_merge(&pair[1], &pair[0], &caps))?;
            }
            let mut chain = pieces[0].clone();
            for next in &pieces[1..] {
                let merged = chain.merge(next, &caps);
                same_record(merged.clone(), set_map_merge(&chain, next, &caps))?;
                chain = merged.unwrap_or_else(|| next.clone());
            }
        }
    }

    /// `TraceRecord::merge` agrees with the set/map merge on arbitrary
    /// adjacent records, including sides that name a location twice.
    #[test]
    fn merge_matches_set_map_model_on_arbitrary_records(
        a_ins in arbitrary_side(),
        a_outs in arbitrary_side(),
        b_ins in arbitrary_side(),
        b_outs in arbitrary_side(),
        lens in (1u32..6, 1u32..6),
    ) {
        let a = TraceRecord {
            start_pc: 0,
            next_pc: 10,
            len: lens.0,
            ins: a_ins.into_boxed_slice(),
            outs: a_outs.into_boxed_slice(),
            mix: ClassMix::EMPTY,
        };
        let b = TraceRecord {
            start_pc: 10,
            next_pc: 20,
            len: lens.1,
            ins: b_ins.into_boxed_slice(),
            outs: b_outs.into_boxed_slice(),
            mix: ClassMix::EMPTY,
        };
        for caps in EQUIVALENCE_CAPS {
            same_record(a.merge(&b, &caps), set_map_merge(&a, &b, &caps))?;
        }
    }
}

/// The RTM geometry the probe properties run under: 2 sets × 2 PC groups
/// × 3 traces per PC, so both levels evict often.
const PROBE_RTM: RtmConfig = RtmConfig {
    geometry: SetAssocGeometry {
        sets: 2,
        ways: 2,
        per_pc: 3,
    },
};

/// Start PCs: three share set 0 and two share set 1.
const PROBE_PCS: [u32; 5] = [0, 2, 4, 1, 3];

/// The leading live-ins most records at a PC share, so groups usually
/// have a full three-location probe key for an odd record to shrink.
const PROBE_PREFIX: [Loc; 3] = [Loc::IntReg(1), Loc::Mem(5), Loc::FpReg(2)];

/// Every location a probe record or state names, the zero registers
/// (which ignore writes and read as zero) included.
const PROBE_LOCS: [Loc; 7] = [
    Loc::IntReg(1),
    Loc::Mem(5),
    Loc::FpReg(2),
    Loc::IntReg(2),
    Loc::Mem(6),
    Loc::IntReg(31),
    Loc::FpReg(31),
];

/// Instructions in the probe VM's program; a recorded next PC at or past
/// it makes a fast hit fail with `BadJumpTarget`.
const PROBE_CODE_LEN: u32 = 20;

/// A record that defeats the probe key as often as it fits it: the
/// shared prefix cut at a random length, then a tail from the whole pool,
/// so leading locations differ, live-ins may be empty, the zero
/// registers may carry nonzero values, and a location may repeat. Values
/// come from a small range, so lookups hit often.
fn probe_record() -> impl Strategy<Value = TraceRecord> {
    (
        0..PROBE_PCS.len(),
        (0usize..4, proptest::collection::vec(0u64..3, 3)),
        proptest::collection::vec((0..PROBE_LOCS.len(), 0u64..3), 0..=2),
        1u32..3,
        0..PROBE_CODE_LEN + 2,
        0u64..2,
    )
        .prop_map(|(pc, (shared, values), tail, len, next_pc, out)| {
            let mut ins: Vec<(Loc, u64)> =
                PROBE_PREFIX[..shared].iter().copied().zip(values).collect();
            ins.extend(tail.into_iter().map(|(i, v)| (PROBE_LOCS[i], v)));
            TraceRecord {
                start_pc: PROBE_PCS[pc],
                next_pc,
                len,
                ins: ins.into_boxed_slice(),
                outs: vec![(Loc::IntReg(3), out)].into_boxed_slice(),
                mix: ClassMix::EMPTY,
            }
        })
}

/// How [`RtmStep::Reinsert`] changes the resident record it re-inserts.
#[derive(Clone, Copy, Debug)]
enum Reinsert {
    Same,
    WithMix,
    Conflicting,
}

/// One operation on the RTM under test.
#[derive(Clone, Debug)]
enum RtmStep {
    Insert(TraceRecord),
    InsertSeeded(TraceRecord, u64),
    /// Insert again the `n`th exported trace (modulo residency): as it
    /// is, with a class mix its resident copy lacks, or with different
    /// outputs (a conflict).
    Reinsert(usize, Reinsert),
    /// Probe `pc` against a VM holding `state` (one value per
    /// [`PROBE_LOCS`] entry).
    Lookup(u32, Vec<u64>),
    LookupFast(u32, Vec<u64>, bool),
    /// Replace the RTM by an import of its own export.
    Import,
    /// Replace the RTM by an import of its export merged with these.
    Merge(Vec<TraceRecord>),
}

fn rtm_step() -> impl Strategy<Value = RtmStep> {
    (
        0u8..14,
        probe_record(),
        (0..PROBE_PCS.len(), 0usize..12),
        proptest::collection::vec(0u64..3, PROBE_LOCS.len()),
        (any::<bool>(), 0u64..4),
        proptest::collection::vec(probe_record(), 0..8),
    )
        .prop_map(|(kind, rec, (pc, nth), state, (want, hits), donor)| {
            let pc = PROBE_PCS[pc];
            match kind {
                0..=2 => RtmStep::Insert(rec),
                3 => RtmStep::InsertSeeded(rec, hits),
                4 => RtmStep::Reinsert(nth, Reinsert::Same),
                5 => RtmStep::Reinsert(nth, [Reinsert::WithMix, Reinsert::Conflicting][nth % 2]),
                6..=7 => RtmStep::Lookup(pc, state),
                8..=11 => RtmStep::LookupFast(pc, state, want),
                12 => RtmStep::Import,
                _ => RtmStep::Merge(donor),
            }
        })
}

/// A fresh probe VM holding `state`.
fn probe_vm(state: &[u64]) -> tlr_vm::Vm {
    let src = format!("{}halt\n", "nop\n".repeat(PROBE_CODE_LEN as usize - 1));
    let mut vm = tlr_vm::Vm::new(&tlr_asm::assemble(&src).unwrap());
    for (&loc, &value) in PROBE_LOCS.iter().zip(state) {
        vm.poke_loc(loc, value);
    }
    vm
}

/// The reference model of the reuse test: scan a PC group's entries
/// MRU-first and run every candidate's full live-in test, with no probe
/// key. Built from `export()` before each step, it predicts that step's
/// outcome and the export after it.
struct ScanModel {
    /// Resident traces in export order: per set, PC groups least
    /// recently touched first; within a group, entries LRU → MRU.
    groups: Vec<Vec<TraceRecord>>,
    stats: RtmStats,
    policy: ReplacementPolicy,
}

impl ScanModel {
    fn of(rtm: &ReuseTraceMemory) -> Self {
        let mut groups: Vec<Vec<TraceRecord>> = Vec::new();
        for trace in rtm.export().traces {
            match groups.last_mut() {
                Some(group) if group[0].start_pc == trace.start_pc => group.push(trace),
                _ => groups.push(vec![trace]),
            }
        }
        Self {
            groups,
            stats: rtm.stats(),
            policy: rtm.policy(),
        }
    }

    fn set_of(pc: u32) -> u32 {
        pc & (PROBE_RTM.geometry.sets - 1)
    }

    fn group_of(&self, pc: u32) -> Option<usize> {
        self.groups.iter().position(|g| g[0].start_pc == pc)
    }

    /// Where a group of `pc`'s set goes when it becomes the set's most
    /// recently touched.
    fn set_end(&self, pc: u32) -> usize {
        let set = Self::set_of(pc);
        self.groups
            .iter()
            .rposition(|g| Self::set_of(g[0].start_pc) <= set)
            .map_or(0, |i| i + 1)
    }

    /// Stamp group `g` most recently touched in its set; returns its new
    /// index.
    fn touch(&mut self, g: usize) -> usize {
        let group = self.groups.remove(g);
        let at = self.set_end(group[0].start_pc);
        self.groups.insert(at, group);
        at
    }

    /// The hit is the most recent entry whose live-ins all match; every
    /// entry after it (all of them on a miss) is a value reject.
    fn lookup(&mut self, pc: u32, vm: &tlr_vm::Vm) -> Option<TraceRecord> {
        self.stats.lookups += 1;
        let g = self.touch(self.group_of(pc)?);
        let entries = &mut self.groups[g];
        let hit = entries
            .iter()
            .rposition(|e| e.ins.iter().all(|&(loc, v)| vm.peek_loc(loc) == v));
        self.stats.value_rejects += (entries.len() - hit.map_or(0, |i| i + 1)) as u64;
        let rec = entries.remove(hit?);
        entries.push(rec.clone());
        self.stats.hits += 1;
        Some(rec)
    }

    /// Predict an insert. Returns `false` when a victim had to be chosen
    /// by a policy other than LRU: the model does not rank victims, so
    /// the eviction count and the export are then left unpredicted.
    fn insert(&mut self, record: TraceRecord) -> bool {
        let pc = record.start_pc;
        let ways = PROBE_RTM.geometry.ways as usize;
        let per_pc = PROBE_RTM.geometry.per_pc as usize;
        let lru = self.policy == ReplacementPolicy::Lru;
        if let Some(g) = self.group_of(pc) {
            let g = self.touch(g);
            let entries = &mut self.groups[g];
            if let Some(idx) = entries
                .iter()
                .position(|e| e.ins == record.ins && e.len == record.len)
            {
                let resident = entries.remove(idx);
                if resident == record {
                    self.stats.duplicate_stores += 1;
                    entries.push(resident);
                } else {
                    self.stats.conflicting_stores += 1;
                    entries.push(record);
                }
                return true;
            }
            self.stats.stores += 1;
            if entries.len() == per_pc {
                self.stats.evictions += 1;
                if !lru {
                    return false;
                }
                entries.remove(0);
            }
            entries.push(record);
            return true;
        }
        self.stats.stores += 1;
        let set = Self::set_of(pc);
        let in_set: Vec<usize> = (0..self.groups.len())
            .filter(|&i| Self::set_of(self.groups[i][0].start_pc) == set)
            .collect();
        if in_set.len() == ways {
            if !lru {
                return false;
            }
            self.stats.evictions += self.groups.remove(in_set[0]).len() as u64;
        }
        let at = self.set_end(pc);
        self.groups.insert(at, vec![record]);
        true
    }

    fn check(&self, rtm: &ReuseTraceMemory, step: &RtmStep) -> Result<(), TestCaseError> {
        prop_assert_eq!(rtm.stats(), self.stats, "stats after {:?}", step);
        prop_assert_eq!(
            &ScanModel::of(rtm).groups,
            &self.groups,
            "export after {:?}",
            step
        );
        Ok(())
    }
}

/// Run `steps` on a fresh RTM under `policy`, checking each against the
/// scan model.
fn check_probe_against_scan(
    steps: &[RtmStep],
    policy: ReplacementPolicy,
) -> Result<(), TestCaseError> {
    let mut rtm = ReuseTraceMemory::new_with(PROBE_RTM, policy);
    for step in steps {
        let mut model = ScanModel::of(&rtm);
        let reinserted = match step {
            RtmStep::Reinsert(nth, how) => {
                let resident = rtm.export().traces;
                resident.get(nth % resident.len().max(1)).map(|t| {
                    let mut rec = t.clone();
                    match how {
                        Reinsert::Same => {}
                        Reinsert::WithMix => rec.mix.record(OpClass::IntAlu),
                        Reinsert::Conflicting => rec.outs = Box::new([(Loc::IntReg(4), 1)]),
                    }
                    RtmStep::Insert(rec)
                })
            }
            _ => None,
        };
        let step = reinserted.as_ref().unwrap_or(step);
        match step {
            RtmStep::Reinsert(..) => {}
            RtmStep::Insert(rec) | RtmStep::InsertSeeded(rec, _) => {
                let predicted = model.insert(rec.clone());
                match step {
                    RtmStep::InsertSeeded(_, hits) => rtm.insert_seeded(
                        rec.clone(),
                        TraceMeta {
                            hits: *hits,
                            ..TraceMeta::default()
                        },
                    ),
                    _ => rtm.insert(rec.clone()),
                }
                if predicted {
                    model.check(&rtm, step)?;
                } else {
                    let mut stats = rtm.stats();
                    stats.evictions = model.stats.evictions;
                    prop_assert_eq!(stats, model.stats, "stats after {:?}", step);
                }
            }
            RtmStep::Lookup(pc, state) => {
                let vm = probe_vm(state);
                let expected = model.lookup(*pc, &vm);
                let hit = rtm.lookup(*pc, |loc| vm.peek_loc(loc));
                prop_assert_eq!(&hit, &expected, "hit of {:?}", step);
                model.check(&rtm, step)?;
            }
            RtmStep::LookupFast(pc, state, want_record) => {
                let mut vm = probe_vm(state);
                let expected = model.lookup(*pc, &vm);
                match (rtm.lookup_fast(*pc, &mut vm, *want_record), &expected) {
                    (Ok(None), None) => {}
                    (Ok(Some(hit)), Some(rec)) => {
                        prop_assert!(rec.next_pc < PROBE_CODE_LEN, "{:?} applied", step);
                        prop_assert_eq!((hit.len, hit.next_pc), (rec.len, rec.next_pc));
                        prop_assert_eq!(&hit.rec, &want_record.then(|| rec.clone()));
                        prop_assert_eq!(vm.pc(), rec.next_pc);
                    }
                    (Err(_), Some(rec)) => {
                        prop_assert!(rec.next_pc >= PROBE_CODE_LEN, "{:?} failed", step);
                    }
                    (got, _) => {
                        return Err(TestCaseError(format!(
                            "{step:?}: fast lookup gave {got:?}, the scan {expected:?}"
                        )));
                    }
                }
                model.check(&rtm, step)?;
            }
            RtmStep::Import | RtmStep::Merge(_) => {
                let mut snapshot = rtm.export();
                if let RtmStep::Merge(donor) = step {
                    let donor = RtmSnapshot::from_traces(PROBE_RTM, donor.clone());
                    snapshot =
                        RtmSnapshot::merge_detailed(&[snapshot, donor], policy, LFU_HALF_LIFE)
                            .unwrap()
                            .snapshot;
                }
                rtm = ReuseTraceMemory::import_with(&snapshot, policy);
                prop_assert_eq!(rtm.stats(), RtmStats::default());
                prop_assert_eq!(&rtm.export().traces, &snapshot.traces);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The RTM's keyed probe decides exactly as the full MRU-first scan:
    /// the same hit, the same counters, the hit moved to MRU, and the
    /// same duplicate, conflict and eviction outcomes on insert, through
    /// imports and merges, under every replacement policy.
    #[test]
    fn rtm_probe_matches_full_scan(steps in proptest::collection::vec(rtm_step(), 1..80)) {
        for policy in ReplacementPolicy::ALL {
            check_probe_against_scan(&steps, policy)?;
        }
    }
}
