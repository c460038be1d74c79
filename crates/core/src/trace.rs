//! Traces: live-in / live-out computation, accumulation under I/O caps,
//! and merging (dynamic expansion).
//!
//! A trace (§3.1) is identified by its **input** — starting PC plus the
//! set of live locations (read before written inside the trace) with
//! their values — and its **output** — the locations written with their
//! final values, plus the next PC. [`TraceAccum`] builds those sets
//! incrementally as instructions execute; [`TraceRecord`] is the
//! finished, immutable form stored in the RTM.
//!
//! Collection runs once per executed instruction, so neither the
//! accumulator nor merging hashes a register or allocates scratch space:
//! registers are tracked in 64-bit masks over [`Loc::reg_index`], buffers
//! are reused, and in steady state the only allocations are the two boxes
//! of each finished record.

use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

use tlr_isa::{ClassMix, DynInstr, Loc, NUM_FREGS, NUM_IREGS};
use tlr_util::FxHashMap;

/// Per-trace input/output capacity limits.
///
/// Figure 9's realistic configuration: "the number of inputs and outputs
/// have been limited to 8 registers and 4 memory values" — applied to the
/// input side and the output side independently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoCaps {
    /// Max register live-ins.
    pub reg_in: usize,
    /// Max memory live-ins.
    pub mem_in: usize,
    /// Max register live-outs.
    pub reg_out: usize,
    /// Max memory live-outs.
    pub mem_out: usize,
}

impl IoCaps {
    /// The paper's limits: 8 registers + 4 memory values on each side.
    pub const PAPER: IoCaps = IoCaps {
        reg_in: 8,
        mem_in: 4,
        reg_out: 8,
        mem_out: 4,
    };

    /// Effectively unlimited (limit studies).
    pub const UNLIMITED: IoCaps = IoCaps {
        reg_in: usize::MAX,
        mem_in: usize::MAX,
        reg_out: usize::MAX,
        mem_out: usize::MAX,
    };
}

/// A finished trace: the RTM entry payload (Figure 1 of the paper).
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// Starting PC ("initial PC" field).
    pub start_pc: u32,
    /// PC of the instruction that follows the trace ("next PC" field).
    pub next_pc: u32,
    /// Dynamic instructions the trace covers.
    pub len: u32,
    /// Live-in locations and their values, in first-read order.
    pub ins: Box<[(Loc, u64)]>,
    /// Output locations and their final values, in first-write order.
    pub outs: Box<[(Loc, u64)]>,
    /// Per-[`OpClass`](tlr_isa::OpClass) histogram of the instructions
    /// the trace covers. Derived metadata, **not** identity: records
    /// loaded from snapshots written before mixes existed carry an
    /// empty mix and must still deduplicate against freshly collected
    /// ones, so equality and hashing exclude this field.
    pub mix: ClassMix,
}

// Identity is {start_pc, next_pc, len, ins, outs} only — see `mix`.
impl PartialEq for TraceRecord {
    fn eq(&self, other: &Self) -> bool {
        self.start_pc == other.start_pc
            && self.next_pc == other.next_pc
            && self.len == other.len
            && self.ins == other.ins
            && self.outs == other.outs
    }
}

impl Eq for TraceRecord {}

impl Hash for TraceRecord {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.start_pc.hash(state);
        self.next_pc.hash(state);
        self.len.hash(state);
        self.ins.hash(state);
        self.outs.hash(state);
    }
}

/// Value-independent trace identity: the starting PC plus the live-in
/// *shape* — which locations the trace reads, in first-read order — with
/// the values stripped.
///
/// Two executions of the same code whose data differs produce records
/// with equal keys but different live-in values; the RTM's reuse test
/// still compares values at lookup time, so sharing state across keys is
/// always validated before a trace is applied. The key is what cross-run
/// snapshot sharing indexes on (`tlr-serve` resolves a program's *shape
/// fingerprint* the same way at file granularity).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Starting PC of the trace.
    pub start_pc: u32,
    /// Live-in locations in first-read order, values stripped.
    pub ins: Box<[Loc]>,
}

impl TraceRecord {
    /// The record's value-independent identity (see [`TraceKey`]).
    pub fn key(&self) -> TraceKey {
        TraceKey {
            start_pc: self.start_pc,
            ins: self.ins.iter().map(|(loc, _)| *loc).collect(),
        }
    }

    /// Number of register live-ins.
    pub fn reg_ins(&self) -> usize {
        self.ins.iter().filter(|(l, _)| !l.is_mem()).count()
    }

    /// Number of memory live-ins.
    pub fn mem_ins(&self) -> usize {
        self.ins.iter().filter(|(l, _)| l.is_mem()).count()
    }

    /// Number of register live-outs.
    pub fn reg_outs(&self) -> usize {
        self.outs.iter().filter(|(l, _)| !l.is_mem()).count()
    }

    /// Number of memory live-outs.
    pub fn mem_outs(&self) -> usize {
        self.outs.iter().filter(|(l, _)| l.is_mem()).count()
    }

    /// Merge `self` followed immediately by `next` into one longer trace
    /// (dynamic expansion, §3.2 / Figure 9's `EXP` heuristics).
    ///
    /// * merged inputs = `self.ins` plus those of `next.ins` whose
    ///   location `self` does not write (those are satisfied internally);
    /// * merged outputs = `self.outs` overridden by `next.outs` (the
    ///   later write is the final value), preserving first-write order;
    /// * `next_pc` comes from `next`.
    ///
    /// Returns `None` if the merged trace would exceed `caps`, or if the
    /// traces are not adjacent (`self.next_pc != next.start_pc`).
    pub fn merge(&self, next: &TraceRecord, caps: &IoCaps) -> Option<TraceRecord> {
        self.view().merge(next.view(), caps)
    }

    /// The record's fields, borrowed.
    pub(crate) fn view(&self) -> TraceView<'_> {
        TraceView {
            start_pc: self.start_pc,
            next_pc: self.next_pc,
            len: self.len,
            ins: &self.ins,
            outs: &self.outs,
            mix: self.mix,
        }
    }

    /// Whether the record's live-in/live-out sets fit within `caps`.
    /// Collection guarantees this by construction; deserialization paths
    /// re-check it on untrusted input.
    pub fn within_caps(&self, caps: &IoCaps) -> bool {
        self.reg_ins() <= caps.reg_in
            && self.mem_ins() <= caps.mem_in
            && self.reg_outs() <= caps.reg_out
            && self.mem_outs() <= caps.mem_out
    }
}

/// A trace's fields borrowed from wherever they live — a finished
/// record, an accumulator's contents, a collector's expansion base — so
/// a merge reads its operands in place.
#[derive(Clone, Copy)]
pub(crate) struct TraceView<'a> {
    start_pc: u32,
    next_pc: u32,
    len: u32,
    ins: &'a [(Loc, u64)],
    outs: &'a [(Loc, u64)],
    mix: ClassMix,
}

impl TraceView<'_> {
    /// Copy into a record whose boxes have exactly the sides' lengths.
    fn to_record(self) -> TraceRecord {
        TraceRecord {
            start_pc: self.start_pc,
            next_pc: self.next_pc,
            len: self.len,
            ins: self.ins.into(),
            outs: self.outs.into(),
            mix: self.mix,
        }
    }

    /// The body of [`TraceRecord::merge`]. Membership is answered by
    /// register masks and by scanning memory entries, which the caps
    /// bound. Both merged sides are counted before anything is allocated:
    /// a refused merge allocates nothing, and an accepted one allocates
    /// its two boxes at their final size.
    pub(crate) fn merge(self, next: TraceView<'_>, caps: &IoCaps) -> Option<TraceRecord> {
        if self.next_pc != next.start_pc {
            return None;
        }
        let written = LocSet::of(self.outs);
        let read = LocSet::of(self.ins);
        // A live-in of `next` stays one unless `self` writes or reads it.
        let new_in = |loc: Loc| !written.contains(loc) && !read.contains(loc);
        // An output of `next` adds an entry unless `self`, or an earlier
        // output of `next`, wrote the location.
        let new_out = |j: usize| {
            let loc = next.outs[j].0;
            !written.contains(loc) && next.outs[..j].iter().all(|(l, _)| *l != loc)
        };
        let mut n_ins = SideCount::of(self.ins);
        for (loc, _) in next.ins.iter().filter(|(loc, _)| new_in(*loc)) {
            n_ins.add(*loc);
        }
        let mut n_outs = SideCount::of(self.outs);
        for j in (0..next.outs.len()).filter(|&j| new_out(j)) {
            n_outs.add(next.outs[j].0);
        }
        if n_ins.regs > caps.reg_in
            || n_ins.mem > caps.mem_in
            || n_outs.regs > caps.reg_out
            || n_outs.mem > caps.mem_out
        {
            return None;
        }
        let mut ins = Vec::with_capacity(n_ins.total());
        ins.extend_from_slice(self.ins);
        ins.extend(next.ins.iter().filter(|(loc, _)| new_in(*loc)));
        let mut outs = Vec::with_capacity(n_outs.total());
        outs.extend_from_slice(self.outs);
        for &(loc, val) in next.outs {
            // The later write is the final value. Should a side name a
            // location twice, the last entry is the one overridden.
            match outs.iter().rposition(|(l, _)| *l == loc) {
                Some(i) => outs[i].1 = val,
                None => outs.push((loc, val)),
            }
        }
        debug_assert_eq!((ins.len(), outs.len()), (n_ins.total(), n_outs.total()));
        Some(TraceRecord {
            start_pc: self.start_pc,
            next_pc: next.next_pc,
            len: self.len + next.len,
            ins: ins.into_boxed_slice(),
            outs: outs.into_boxed_slice(),
            mix: self.mix.sum(next.mix),
        })
    }
}

/// Membership in one side of a trace: registers by a mask over
/// [`Loc::reg_index`], memory words by scanning the side.
#[derive(Clone, Copy)]
struct LocSet<'a> {
    regs: u64,
    side: &'a [(Loc, u64)],
}

impl<'a> LocSet<'a> {
    fn of(side: &'a [(Loc, u64)]) -> Self {
        let regs = side
            .iter()
            .filter_map(|(loc, _)| loc.reg_index())
            .fold(0, |mask, r| mask | (1 << r));
        Self { regs, side }
    }

    fn contains(&self, loc: Loc) -> bool {
        match loc.reg_index() {
            Some(r) => self.regs & (1 << r) != 0,
            None => self.side.iter().any(|(l, _)| *l == loc),
        }
    }
}

/// Register and memory entries on one side of a trace.
#[derive(Clone, Copy, Default)]
struct SideCount {
    regs: usize,
    mem: usize,
}

impl SideCount {
    fn of(side: &[(Loc, u64)]) -> Self {
        let mut count = Self::default();
        for (loc, _) in side {
            count.add(*loc);
        }
        count
    }

    fn add(&mut self, loc: Loc) {
        if loc.is_mem() {
            self.mem += 1;
        } else {
            self.regs += 1;
        }
    }

    fn total(self) -> usize {
        self.regs + self.mem
    }
}

/// Register locations: the dense range of [`Loc::reg_index`].
const REG_LOCS: usize = (NUM_IREGS + NUM_FREGS) as usize;

/// An owned trace in buffers that outlive it: refilling one reuses its
/// vectors, so once they have grown to the largest trace seen, a stream
/// of traces passing through allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct TraceBuf {
    start_pc: u32,
    next_pc: u32,
    len: u32,
    ins: Vec<(Loc, u64)>,
    outs: Vec<(Loc, u64)>,
    mix: ClassMix,
}

impl TraceBuf {
    /// Replace the contents with a copy of `t`.
    pub(crate) fn set(&mut self, t: TraceView<'_>) {
        self.start_pc = t.start_pc;
        self.next_pc = t.next_pc;
        self.len = t.len;
        self.ins.clear();
        self.ins.extend_from_slice(t.ins);
        self.outs.clear();
        self.outs.extend_from_slice(t.outs);
        self.mix = t.mix;
    }

    /// The trace held.
    pub(crate) fn view(&self) -> TraceView<'_> {
        TraceView {
            start_pc: self.start_pc,
            next_pc: self.next_pc,
            len: self.len,
            ins: &self.ins,
            outs: &self.outs,
            mix: self.mix,
        }
    }

    fn clear(&mut self) {
        self.len = 0;
        self.ins.clear();
        self.outs.clear();
        self.mix = ClassMix::EMPTY;
    }
}

/// Output slot of a memory word the trace has read but not written.
const NOT_OUT: usize = usize::MAX;

/// Incremental trace accumulator.
///
/// Feed executed instructions with [`TraceAccum::try_add`]; it refuses
/// (without mutating) any instruction that would push the live-in or
/// live-out sets past the caps, letting the collector finalize the
/// current trace and start a new one.
///
/// Registers are tracked in 64-bit masks over [`Loc::reg_index`] plus a
/// per-register slot into the outputs, so they are never hashed; only
/// memory words go through a hash map, which keeps every location O(1)
/// under [`IoCaps::UNLIMITED`] as well. [`TraceAccum::finalize`] clears
/// the buffers rather than giving them away, so once they have grown to
/// the largest trace seen, the accumulator allocates only the records it
/// returns.
#[derive(Debug)]
pub struct TraceAccum {
    caps: IoCaps,
    trace: TraceBuf,
    /// Register live-ins, one bit per [`Loc::reg_index`].
    reg_in: u64,
    /// Registers written, one bit per [`Loc::reg_index`].
    reg_out: u64,
    /// Index into the outputs of each register set in `reg_out`.
    reg_slot: [usize; REG_LOCS],
    /// Memory words read or written: the word's index into the outputs,
    /// or [`NOT_OUT`] while it has only been read.
    mem: FxHashMap<Loc, usize>,
    mem_ins: usize,
    mem_outs: usize,
}

impl TraceAccum {
    /// Empty accumulator under `caps`.
    pub fn new(caps: IoCaps) -> Self {
        Self {
            caps,
            trace: TraceBuf::default(),
            reg_in: 0,
            reg_out: 0,
            reg_slot: [0; REG_LOCS],
            mem: FxHashMap::default(),
            mem_ins: 0,
            mem_outs: 0,
        }
    }

    /// Number of instructions accumulated.
    pub fn len(&self) -> u32 {
        self.trace.len
    }

    /// `true` when no instructions have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.trace.len == 0
    }

    /// Try to append one executed instruction. Returns `false` — leaving
    /// the accumulator untouched — if the addition would exceed the I/O
    /// caps. Instructions must be fed in execution order; the first one
    /// fixes `start_pc`, the last one fixes `next_pc`.
    ///
    /// The cap check counts a location the instruction names twice (say
    /// `addq r1, r2, r2`) twice, although the trace records it once.
    pub fn try_add(&mut self, d: &DynInstr) -> bool {
        // Count the *new* live-ins and live-outs this instruction adds.
        let mut new_reg_ins = 0usize;
        let mut new_mem_ins = 0usize;
        for (loc, _) in d.reads.iter() {
            // A location is a new live-in if the trace has neither
            // written it nor already recorded it as live-in.
            match loc.reg_index() {
                Some(r) => new_reg_ins += usize::from((self.reg_in | self.reg_out) & (1 << r) == 0),
                None => new_mem_ins += usize::from(!self.mem.contains_key(loc)),
            }
        }
        let mut new_reg_outs = 0usize;
        let mut new_mem_outs = 0usize;
        for (loc, _) in d.writes.iter() {
            match loc.reg_index() {
                Some(r) => new_reg_outs += usize::from(self.reg_out & (1 << r) == 0),
                None => {
                    new_mem_outs += usize::from(self.mem.get(loc).is_none_or(|&s| s == NOT_OUT))
                }
            }
        }
        if self.reg_in.count_ones() as usize + new_reg_ins > self.caps.reg_in
            || self.mem_ins + new_mem_ins > self.caps.mem_in
            || self.reg_out.count_ones() as usize + new_reg_outs > self.caps.reg_out
            || self.mem_outs + new_mem_outs > self.caps.mem_out
        {
            return false;
        }
        // Commit.
        let t = &mut self.trace;
        if t.len == 0 {
            t.start_pc = d.pc;
        }
        for &(loc, val) in d.reads.iter() {
            let new = match loc.reg_index() {
                Some(r) => {
                    let new = (self.reg_in | self.reg_out) & (1 << r) == 0;
                    self.reg_in |= u64::from(new) << r;
                    new
                }
                None => match self.mem.entry(loc) {
                    Entry::Vacant(e) => {
                        e.insert(NOT_OUT);
                        self.mem_ins += 1;
                        true
                    }
                    Entry::Occupied(_) => false,
                },
            };
            if new {
                t.ins.push((loc, val));
            }
        }
        for &(loc, val) in d.writes.iter() {
            let next = t.outs.len();
            let slot = match loc.reg_index() {
                Some(r) => {
                    if self.reg_out & (1 << r) == 0 {
                        self.reg_out |= 1 << r;
                        self.reg_slot[r] = next;
                    }
                    self.reg_slot[r]
                }
                None => {
                    let slot = self.mem.entry(loc).or_insert(NOT_OUT);
                    if *slot == NOT_OUT {
                        *slot = next;
                        self.mem_outs += 1;
                    }
                    *slot
                }
            };
            if slot == next {
                t.outs.push((loc, val));
            } else {
                t.outs[slot].1 = val;
            }
        }
        t.next_pc = d.next_pc;
        t.mix.record(d.class);
        t.len += 1;
        true
    }

    /// Finish the trace, resetting the accumulator. Returns `None` when
    /// empty.
    pub fn finalize(&mut self) -> Option<TraceRecord> {
        let record = self.view().map(TraceView::to_record);
        self.clear();
        record
    }

    /// The trace accumulated so far, `None` when empty.
    pub(crate) fn view(&self) -> Option<TraceView<'_>> {
        (!self.is_empty()).then(|| self.trace.view())
    }

    /// Drop the trace in progress, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.trace.clear();
        self.reg_in = 0;
        self.reg_out = 0;
        self.mem.clear();
        self.mem_ins = 0;
        self.mem_outs = 0;
    }

    /// Live-in locations accumulated so far (first-read order).
    pub fn live_ins(&self) -> &[(Loc, u64)] {
        &self.trace.ins
    }

    /// Output locations accumulated so far (first-write order, final
    /// values).
    pub fn live_outs(&self) -> &[(Loc, u64)] {
        &self.trace.outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_isa::OpClass;

    fn di(pc: u32, reads: &[(Loc, u64)], writes: &[(Loc, u64)]) -> DynInstr {
        DynInstr {
            pc,
            next_pc: pc + 1,
            class: OpClass::IntAlu,
            reads: reads.iter().copied().collect(),
            writes: writes.iter().copied().collect(),
        }
    }

    const R1: Loc = Loc::IntReg(1);
    const R2: Loc = Loc::IntReg(2);
    const R3: Loc = Loc::IntReg(3);

    #[test]
    fn live_in_excludes_internally_produced_values() {
        let mut acc = TraceAccum::new(IoCaps::UNLIMITED);
        // r2 = r1 + 1; r3 = r2 + 1  →  live-in {r1}, live-out {r2, r3}.
        assert!(acc.try_add(&di(0, &[(R1, 10)], &[(R2, 11)])));
        assert!(acc.try_add(&di(1, &[(R2, 11)], &[(R3, 12)])));
        let rec = acc.finalize().unwrap();
        assert_eq!(rec.ins.as_ref(), &[(R1, 10)]);
        assert_eq!(rec.outs.as_ref(), &[(R2, 11), (R3, 12)]);
        assert_eq!(rec.start_pc, 0);
        assert_eq!(rec.next_pc, 2);
        assert_eq!(rec.len, 2);
    }

    #[test]
    fn live_in_records_first_value_read() {
        let mut acc = TraceAccum::new(IoCaps::UNLIMITED);
        // Read r1 (=5), write r1, read r1 again (=6): live-in value is 5.
        assert!(acc.try_add(&di(0, &[(R1, 5)], &[(R1, 6)])));
        assert!(acc.try_add(&di(1, &[(R1, 6)], &[(R2, 7)])));
        let rec = acc.finalize().unwrap();
        assert_eq!(rec.ins.as_ref(), &[(R1, 5)]);
        assert_eq!(rec.outs.as_ref(), &[(R1, 6), (R2, 7)]);
    }

    #[test]
    fn live_out_keeps_final_value() {
        let mut acc = TraceAccum::new(IoCaps::UNLIMITED);
        assert!(acc.try_add(&di(0, &[], &[(R1, 1)])));
        assert!(acc.try_add(&di(1, &[], &[(R1, 2)])));
        let rec = acc.finalize().unwrap();
        assert_eq!(rec.outs.as_ref(), &[(R1, 2)]);
    }

    #[test]
    fn memory_locations_count_separately() {
        let mut acc = TraceAccum::new(IoCaps {
            reg_in: 8,
            mem_in: 1,
            reg_out: 8,
            mem_out: 8,
        });
        assert!(acc.try_add(&di(0, &[(Loc::Mem(100), 1)], &[(R1, 1)])));
        // Second distinct memory live-in exceeds the cap of 1.
        assert!(!acc.try_add(&di(1, &[(Loc::Mem(101), 2)], &[(R2, 2)])));
        // Accumulator unchanged by the refusal.
        assert_eq!(acc.len(), 1);
        // Re-reading the same memory word is fine (not a new live-in).
        assert!(acc.try_add(&di(1, &[(Loc::Mem(100), 1)], &[(R2, 2)])));
        let rec = acc.finalize().unwrap();
        assert_eq!(rec.mem_ins(), 1);
        assert_eq!(rec.len, 2);
    }

    #[test]
    fn refusal_is_transactional() {
        let caps = IoCaps {
            reg_in: 1,
            mem_in: 0,
            reg_out: 1,
            mem_out: 0,
        };
        let mut acc = TraceAccum::new(caps);
        assert!(acc.try_add(&di(0, &[(R1, 1)], &[(R2, 2)])));
        let before_ins = acc.live_ins().to_vec();
        // Needs a second register live-in (r3): refused.
        assert!(!acc.try_add(&di(1, &[(R3, 3)], &[(R2, 4)])));
        assert_eq!(acc.live_ins(), before_ins.as_slice());
        // A cap-respecting instruction still fits (reads r2 = internal).
        assert!(acc.try_add(&di(1, &[(R2, 2)], &[(R2, 5)])));
    }

    #[test]
    fn finalize_resets() {
        let mut acc = TraceAccum::new(IoCaps::UNLIMITED);
        assert!(acc.try_add(&di(7, &[(R1, 1)], &[(R2, 2)])));
        let rec = acc.finalize().unwrap();
        assert_eq!(rec.start_pc, 7);
        assert!(acc.finalize().is_none());
        assert!(acc.try_add(&di(9, &[(R2, 2)], &[(R1, 3)])));
        let rec2 = acc.finalize().unwrap();
        assert_eq!(rec2.start_pc, 9);
        assert_eq!(rec2.ins.as_ref(), &[(R2, 2)]);
    }

    #[test]
    fn merge_chains_adjacent_traces() {
        // T1: in {r1}, out {r2}; T2: in {r2, r3}, out {r2, r4}.
        let mut mix1 = ClassMix::EMPTY;
        mix1.record(OpClass::IntAlu);
        mix1.record(OpClass::Load);
        let mut mix2 = ClassMix::EMPTY;
        mix2.record(OpClass::IntAlu);
        mix2.record(OpClass::Store);
        mix2.record(OpClass::Branch);
        let t1 = TraceRecord {
            start_pc: 0,
            next_pc: 2,
            len: 2,
            ins: vec![(R1, 1)].into_boxed_slice(),
            outs: vec![(R2, 5)].into_boxed_slice(),
            mix: mix1,
        };
        let t2 = TraceRecord {
            start_pc: 2,
            next_pc: 6,
            len: 3,
            ins: vec![(R2, 5), (R3, 3)].into_boxed_slice(),
            outs: vec![(R2, 9), (Loc::Mem(4), 1)].into_boxed_slice(),
            mix: mix2,
        };
        let m = t1.merge(&t2, &IoCaps::UNLIMITED).unwrap();
        assert_eq!(m.start_pc, 0);
        assert_eq!(m.next_pc, 6);
        assert_eq!(m.len, 5);
        // r2 is produced by t1, so it is NOT a live-in of the merge.
        assert_eq!(m.ins.as_ref(), &[(R1, 1), (R3, 3)]);
        // r2's final value comes from t2.
        assert_eq!(m.outs.as_ref(), &[(R2, 9), (Loc::Mem(4), 1)]);
        // The merged mix is the lane-wise sum, and still covers `len`.
        assert_eq!(m.mix, mix1.sum(mix2));
        assert_eq!(m.mix.get(OpClass::IntAlu), 2);
        assert_eq!(m.mix.total(), u64::from(m.len));
    }

    #[test]
    fn merge_rejects_non_adjacent() {
        let t1 = TraceRecord {
            start_pc: 0,
            next_pc: 2,
            len: 1,
            ins: Box::new([]),
            outs: Box::new([]),
            mix: ClassMix::EMPTY,
        };
        let t2 = TraceRecord {
            start_pc: 3,
            next_pc: 4,
            len: 1,
            ins: Box::new([]),
            outs: Box::new([]),
            mix: ClassMix::EMPTY,
        };
        assert_eq!(t1.merge(&t2, &IoCaps::UNLIMITED), None);
    }

    #[test]
    fn merge_respects_caps() {
        let t1 = TraceRecord {
            start_pc: 0,
            next_pc: 1,
            len: 1,
            ins: vec![(R1, 1)].into_boxed_slice(),
            outs: vec![(R2, 2)].into_boxed_slice(),
            mix: ClassMix::EMPTY,
        };
        let t2 = TraceRecord {
            start_pc: 1,
            next_pc: 2,
            len: 1,
            ins: vec![(R3, 3)].into_boxed_slice(),
            outs: vec![(Loc::IntReg(4), 4)].into_boxed_slice(),
            mix: ClassMix::EMPTY,
        };
        let tight = IoCaps {
            reg_in: 1,
            mem_in: 0,
            reg_out: 2,
            mem_out: 0,
        };
        assert_eq!(t1.merge(&t2, &tight), None);
        let loose = IoCaps {
            reg_in: 2,
            mem_in: 0,
            reg_out: 2,
            mem_out: 0,
        };
        assert!(t1.merge(&t2, &loose).is_some());
    }

    #[test]
    fn accum_counts_class_mix() {
        let mut acc = TraceAccum::new(IoCaps::UNLIMITED);
        let mut load = di(0, &[(Loc::Mem(8), 1)], &[(R1, 1)]);
        load.class = OpClass::Load;
        assert!(acc.try_add(&load));
        assert!(acc.try_add(&di(1, &[(R1, 1)], &[(R2, 2)])));
        let rec = acc.finalize().unwrap();
        assert_eq!(rec.mix.get(OpClass::Load), 1);
        assert_eq!(rec.mix.get(OpClass::IntAlu), 1);
        assert_eq!(rec.mix.total(), u64::from(rec.len));
        // finalize resets the mix along with everything else.
        assert!(acc.try_add(&di(5, &[(R2, 2)], &[(R3, 3)])));
        let rec2 = acc.finalize().unwrap();
        assert_eq!(rec2.mix.total(), 1);
        assert_eq!(rec2.mix.get(OpClass::Load), 0);
    }

    #[test]
    fn identity_and_hash_ignore_mix() {
        use std::hash::{BuildHasher, RandomState};
        let base = TraceRecord {
            start_pc: 0,
            next_pc: 1,
            len: 1,
            ins: vec![(R1, 1)].into_boxed_slice(),
            outs: vec![(R2, 2)].into_boxed_slice(),
            mix: ClassMix::EMPTY,
        };
        let mut with_mix = base.clone();
        with_mix.mix.record(OpClass::IntAlu);
        // A zero-mix record (e.g. from an old snapshot) and the same
        // trace freshly collected are the *same* trace.
        assert_eq!(base, with_mix);
        let s = RandomState::new();
        assert_eq!(s.hash_one(&base), s.hash_one(&with_mix));
        // But a different trace is still unequal.
        let mut other = base.clone();
        other.len = 2;
        assert_ne!(base, other);
    }

    #[test]
    fn paper_caps_shape() {
        assert_eq!(IoCaps::PAPER.reg_in, 8);
        assert_eq!(IoCaps::PAPER.mem_in, 4);
    }
}
