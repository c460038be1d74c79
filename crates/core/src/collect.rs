//! Dynamic trace collection heuristics (§3.2, §4.6).
//!
//! The processor decides at run time which traces to record into the RTM.
//! Figure 9 evaluates three policies, implemented here:
//!
//! * **ILR NE** — a trace is a maximal run of instructions that are
//!   reusable at instruction level, as judged by a *finite* ILR buffer
//!   with the same entry count as the RTM. No expansion.
//! * **ILR EXP** — same, plus dynamic expansion: when two consecutive
//!   traces are reused back-to-back, or when the instructions following a
//!   reused trace turn out to be ILR-reusable, the reused trace is merged
//!   with what follows into a longer trace.
//! * **I(n) EXP** — traces are fixed runs of `n` instructions (any
//!   instructions, reusable or not); a reused trace is expanded with `n`
//!   further instructions.
//!
//! All policies respect the per-trace I/O caps: an instruction that would
//! push the live-in/live-out sets past the cap closes the current trace
//! and opens a new one.

use crate::ilr::FiniteIlrBuffer;
use crate::trace::{IoCaps, TraceAccum, TraceBuf, TraceRecord, TraceView};
use tlr_isa::DynInstr;

/// A trace-collection policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Heuristic {
    /// Maximal ILR-reusable runs, no expansion.
    IlrNe,
    /// Maximal ILR-reusable runs with dynamic expansion.
    IlrExp,
    /// Fixed-length traces of `n` instructions with expansion on reuse.
    FixedExp(u32),
    /// Dynamic basic blocks (a trace ends at every control-flow
    /// instruction), no expansion — Huang & Lilja's block reuse \[6\],
    /// which §2 calls "a particular case of trace-level reuse".
    BasicBlock,
}

impl Heuristic {
    /// Label as printed in Figure 9 ("ILR NE", "ILR EXP", "I4 EXP").
    pub fn label(&self) -> String {
        match self {
            Heuristic::IlrNe => "ILR NE".to_string(),
            Heuristic::IlrExp => "ILR EXP".to_string(),
            Heuristic::FixedExp(n) => format!("I{n} EXP"),
            Heuristic::BasicBlock => "BB".to_string(),
        }
    }

    /// The heuristic sweep of Figure 9: ILR NE, ILR EXP, I1..I8 EXP.
    pub fn paper_sweep() -> Vec<Heuristic> {
        let mut v = vec![Heuristic::IlrNe, Heuristic::IlrExp];
        v.extend((1..=8).map(Heuristic::FixedExp));
        v
    }

    /// `true` if the policy may expand reused traces.
    pub fn expands(&self) -> bool {
        !matches!(self, Heuristic::IlrNe | Heuristic::BasicBlock)
    }
}

/// Expansion state: a reused base trace and the continuation collected
/// after it. The buffers live as long as the collector and are updated in
/// place, so starting, extending and finishing an expansion allocate
/// nothing but the merged record once the buffers have grown.
struct Expansion {
    /// Whether an expansion is in progress.
    active: bool,
    base: TraceBuf,
    cont: TraceAccum,
    /// For `I(n) EXP`: stop after this many continuation instructions.
    /// `None` for ILR EXP (stop at the first non-reusable instruction).
    remaining: Option<u32>,
}

/// Collection statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollectStats {
    /// Traces emitted by regular collection.
    pub collected: u64,
    /// Traces emitted by expansion (merges).
    pub expansions: u64,
    /// Traces closed early because of the I/O caps.
    pub cap_splits: u64,
}

/// The trace collector: converts the executed instruction stream plus
/// reuse-hit notifications into [`TraceRecord`]s for the RTM.
///
/// It keeps its accumulators and expansion buffers for its whole life.
/// Once they have grown to the largest trace seen, a call allocates only
/// the records it returns (two boxes each) and the `Vec` holding them —
/// apart, under the ILR heuristics, from the finite ILR buffer growing a
/// PC group's entries.
pub struct Collector {
    heuristic: Heuristic,
    caps: IoCaps,
    accum: TraceAccum,
    /// Finite ILR buffer (ILR NE / ILR EXP only).
    ilr: Option<FiniteIlrBuffer>,
    expansion: Expansion,
    stats: CollectStats,
    /// Scratch for emitted records (returned by value each call).
    out: Vec<TraceRecord>,
}

impl Collector {
    /// New collector. `ilr` must be provided for the ILR-driven
    /// heuristics (geometry should match the RTM, per §4.6).
    pub fn new(heuristic: Heuristic, caps: IoCaps, ilr: Option<FiniteIlrBuffer>) -> Self {
        if matches!(heuristic, Heuristic::IlrNe | Heuristic::IlrExp) {
            assert!(
                ilr.is_some(),
                "ILR-driven heuristics require a finite ILR buffer"
            );
        }
        Self {
            heuristic,
            caps,
            accum: TraceAccum::new(caps),
            ilr,
            expansion: Expansion {
                active: false,
                base: TraceBuf::default(),
                cont: TraceAccum::new(caps),
                remaining: None,
            },
            stats: CollectStats::default(),
            out: Vec::new(),
        }
    }

    /// Collection statistics so far.
    pub fn stats(&self) -> CollectStats {
        self.stats
    }

    /// Feed one *executed* instruction. Returns the trace records that
    /// became complete as a consequence (0, 1 or 2).
    pub fn on_executed(&mut self, d: &DynInstr) -> Vec<TraceRecord> {
        debug_assert!(self.out.is_empty());
        match self.heuristic {
            Heuristic::IlrNe | Heuristic::IlrExp => {
                let reusable = self
                    .ilr
                    .as_mut()
                    .expect("checked at construction")
                    .probe_insert(d);
                self.step_expansion(d, reusable);
                if reusable {
                    self.push_to_accum(d);
                } else {
                    self.close_accum(false);
                }
            }
            Heuristic::FixedExp(n) => {
                self.step_expansion(d, true);
                self.push_to_accum(d);
                if self.accum.len() >= n {
                    self.close_accum(false);
                }
            }
            Heuristic::BasicBlock => {
                self.push_to_accum(d);
                // A dynamic basic block ends at (and includes) every
                // control-flow instruction.
                if d.is_branch() {
                    self.close_accum(false);
                }
            }
        }
        std::mem::take(&mut self.out)
    }

    /// Notify that the engine reused `hit` at the current fetch point.
    /// Returns completed trace records (closed partial collections and/or
    /// expansion merges).
    pub fn on_reuse_hit(&mut self, hit: &TraceRecord) -> Vec<TraceRecord> {
        debug_assert!(self.out.is_empty());
        // The run of executed instructions is interrupted: close the
        // in-progress trace (kept for ILR policies — it is a valid
        // maximal run; dropped for fixed-length policies, which only
        // store exact-length traces).
        match self.heuristic {
            Heuristic::IlrNe | Heuristic::IlrExp | Heuristic::BasicBlock => self.close_accum(false),
            Heuristic::FixedExp(_) => self.accum.clear(),
        }
        if !self.heuristic.expands() {
            return std::mem::take(&mut self.out);
        }
        // Expansion bookkeeping. A hit while a continuation is being
        // collected finishes that expansion first; a hit immediately
        // after a reused base (empty continuation) merges the two reused
        // traces ("two consecutive traces are reused").
        let exp = &self.expansion;
        if exp.active && exp.cont.is_empty() {
            match exp.base.view().merge(hit.view(), &self.caps) {
                Some(merged) => {
                    self.stats.expansions += 1;
                    // Chain: the merged trace becomes the new base.
                    self.begin_expansion(merged.view());
                    self.out.push(merged);
                }
                // Caps exceeded: restart expansion from the hit.
                None => self.begin_expansion(hit.view()),
            }
        } else {
            if exp.active {
                self.finish_expansion();
            }
            self.begin_expansion(hit.view());
        }
        std::mem::take(&mut self.out)
    }

    fn begin_expansion(&mut self, base: TraceView<'_>) {
        let exp = &mut self.expansion;
        // Finishing an expansion clears its continuation, and a chain
        // only begins from an empty one.
        debug_assert!(exp.cont.is_empty());
        exp.active = true;
        exp.base.set(base);
        exp.remaining = match self.heuristic {
            Heuristic::FixedExp(n) => Some(n),
            _ => None,
        };
    }

    fn step_expansion(&mut self, d: &DynInstr, reusable: bool) {
        let exp = &mut self.expansion;
        if !exp.active {
            return;
        }
        // ILR EXP stops at the first non-reusable instruction; any
        // expansion stops once its continuation no longer fits the caps.
        if (exp.remaining.is_none() && !reusable) || !exp.cont.try_add(d) {
            self.finish_expansion();
            return;
        }
        if let Some(rem) = exp.remaining.as_mut() {
            *rem -= 1;
            if *rem == 0 {
                self.finish_expansion();
            }
        }
    }

    fn finish_expansion(&mut self) {
        let exp = &mut self.expansion;
        if let Some(cont) = exp.cont.view() {
            if let Some(merged) = exp.base.view().merge(cont, &self.caps) {
                self.stats.expansions += 1;
                self.out.push(merged);
            }
        }
        exp.cont.clear();
        exp.active = false;
    }

    fn push_to_accum(&mut self, d: &DynInstr) {
        if !self.accum.try_add(d) {
            self.close_accum(true);
            // A single instruction always fits sane caps; if it does not
            // (pathological configuration), skip it rather than loop.
            let _ = self.accum.try_add(d);
        }
    }

    fn close_accum(&mut self, cap_split: bool) {
        if let Some(rec) = self.accum.finalize() {
            if cap_split {
                self.stats.cap_splits += 1;
            }
            self.stats.collected += 1;
            self.out.push(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilr::SetAssocGeometry;
    use tlr_isa::{Loc, OpClass};

    fn di(pc: u32, reads: &[(Loc, u64)], writes: &[(Loc, u64)]) -> DynInstr {
        DynInstr {
            pc,
            next_pc: pc + 1,
            class: OpClass::IntAlu,
            reads: reads.iter().copied().collect(),
            writes: writes.iter().copied().collect(),
        }
    }

    fn big_ilr() -> FiniteIlrBuffer {
        FiniteIlrBuffer::new(SetAssocGeometry {
            sets: 64,
            ways: 8,
            per_pc: 16,
        })
    }

    const R1: Loc = Loc::IntReg(1);
    const R2: Loc = Loc::IntReg(2);

    #[test]
    fn heuristic_labels() {
        assert_eq!(Heuristic::IlrNe.label(), "ILR NE");
        assert_eq!(Heuristic::IlrExp.label(), "ILR EXP");
        assert_eq!(Heuristic::FixedExp(4).label(), "I4 EXP");
        assert_eq!(Heuristic::paper_sweep().len(), 10);
    }

    #[test]
    fn fixed_length_collects_every_n() {
        let mut c = Collector::new(Heuristic::FixedExp(3), IoCaps::PAPER, None);
        let mut emitted = Vec::new();
        for pc in 0..9u32 {
            emitted.extend(c.on_executed(&di(pc, &[], &[(R1, pc as u64)])));
        }
        assert_eq!(emitted.len(), 3);
        assert!(emitted.iter().all(|t| t.len == 3));
        assert_eq!(emitted[0].start_pc, 0);
        assert_eq!(emitted[1].start_pc, 3);
        assert_eq!(emitted[0].next_pc, 3);
        assert_eq!(c.stats().collected, 3);
    }

    #[test]
    fn ilr_ne_collects_maximal_reusable_runs() {
        let mut c = Collector::new(Heuristic::IlrNe, IoCaps::PAPER, Some(big_ilr()));
        let a = di(0, &[(R1, 1)], &[(R2, 2)]);
        let b = di(1, &[(R2, 2)], &[(R1, 3)]);
        // First pass: nothing reusable, nothing collected.
        assert!(c.on_executed(&a).is_empty());
        assert!(c.on_executed(&b).is_empty());
        // Second pass with identical values: both reusable — a trace
        // forms and is closed by the next non-reusable instruction.
        assert!(c.on_executed(&a).is_empty());
        assert!(c.on_executed(&b).is_empty());
        let fresh = di(2, &[(R1, 999)], &[]);
        let out = c.on_executed(&fresh);
        assert_eq!(out.len(), 1);
        let t = &out[0];
        assert_eq!(t.start_pc, 0);
        assert_eq!(t.len, 2);
        assert_eq!(t.ins.as_ref(), &[(R1, 1)]);
        assert_eq!(t.next_pc, 2);
    }

    #[test]
    fn reuse_hit_closes_partial_ilr_trace() {
        let mut c = Collector::new(Heuristic::IlrNe, IoCaps::PAPER, Some(big_ilr()));
        let a = di(0, &[(R1, 1)], &[(R2, 2)]);
        c.on_executed(&a);
        c.on_executed(&a); // now reusable → in accum
        let hit = TraceRecord {
            start_pc: 1,
            next_pc: 5,
            len: 4,
            ins: Box::new([]),
            outs: Box::new([]),
            mix: Default::default(),
        };
        let out = c.on_reuse_hit(&hit);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len, 1);
    }

    #[test]
    fn fixed_exp_expands_after_hit() {
        let mut c = Collector::new(Heuristic::FixedExp(2), IoCaps::PAPER, None);
        // Prime: collect a first trace of 2.
        let mut recs = Vec::new();
        recs.extend(c.on_executed(&di(0, &[], &[(R1, 1)])));
        recs.extend(c.on_executed(&di(1, &[], &[(R2, 2)])));
        assert_eq!(recs.len(), 1);
        let base = recs[0].clone();
        assert_eq!(base.next_pc, 2);
        // The engine reuses it; the next 2 executed instructions extend it.
        assert!(c.on_reuse_hit(&base).is_empty());
        assert!(c
            .on_executed(&di(2, &[], &[(Loc::IntReg(3), 3)]))
            .is_empty());
        let out = c.on_executed(&di(3, &[], &[(Loc::IntReg(4), 4)]));
        // Two records: the 4-long expansion merge and the regular 2-long
        // trace starting at pc 2.
        assert_eq!(out.len(), 2);
        let merged = out.iter().find(|t| t.len == 4).expect("merged trace");
        assert_eq!(merged.start_pc, 0);
        assert_eq!(merged.next_pc, 4);
        assert_eq!(c.stats().expansions, 1);
    }

    #[test]
    fn ilr_exp_merges_consecutive_hits() {
        let mut c = Collector::new(Heuristic::IlrExp, IoCaps::PAPER, Some(big_ilr()));
        let t1 = TraceRecord {
            start_pc: 0,
            next_pc: 3,
            len: 3,
            ins: vec![(R1, 1)].into_boxed_slice(),
            outs: vec![(R2, 2)].into_boxed_slice(),
            mix: Default::default(),
        };
        let t2 = TraceRecord {
            start_pc: 3,
            next_pc: 7,
            len: 4,
            ins: vec![(R2, 2)].into_boxed_slice(),
            outs: vec![(R1, 9)].into_boxed_slice(),
            mix: Default::default(),
        };
        assert!(c.on_reuse_hit(&t1).is_empty());
        let out = c.on_reuse_hit(&t2);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len, 7);
        assert_eq!(out[0].start_pc, 0);
        assert_eq!(out[0].next_pc, 7);
        // Chaining: a third consecutive hit merges onto the merged trace.
        let t3 = TraceRecord {
            start_pc: 7,
            next_pc: 9,
            len: 2,
            ins: Box::new([]),
            outs: Box::new([]),
            mix: Default::default(),
        };
        let out = c.on_reuse_hit(&t3);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len, 9);
    }

    #[test]
    fn ilr_exp_extends_hit_with_following_reusable_instrs() {
        let mut c = Collector::new(Heuristic::IlrExp, IoCaps::PAPER, Some(big_ilr()));
        // Teach the ILR buffer two instructions.
        let a = di(5, &[(R1, 1)], &[(R2, 2)]);
        let b = di(6, &[(R2, 2)], &[(Loc::IntReg(3), 3)]);
        c.on_executed(&a);
        c.on_executed(&b);
        // Reuse a trace ending right before pc 5.
        let base = TraceRecord {
            start_pc: 0,
            next_pc: 5,
            len: 3,
            ins: vec![(R1, 1)].into_boxed_slice(),
            outs: Box::new([]),
            mix: Default::default(),
        };
        assert!(c.on_reuse_hit(&base).is_empty());
        // Now a and b execute again (reusable) and then a fresh one ends
        // the continuation.
        assert!(c.on_executed(&a).is_empty());
        assert!(c.on_executed(&b).is_empty());
        let out = c.on_executed(&di(7, &[(R1, 42)], &[]));
        // Expansion merge (3+2=5) plus the regular collected run [a,b].
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .any(|t| t.len == 5 && t.start_pc == 0 && t.next_pc == 7));
        assert!(out.iter().any(|t| t.len == 2 && t.start_pc == 5));
    }

    #[test]
    fn ilr_ne_never_expands() {
        let mut c = Collector::new(Heuristic::IlrNe, IoCaps::PAPER, Some(big_ilr()));
        let t = TraceRecord {
            start_pc: 0,
            next_pc: 2,
            len: 2,
            ins: Box::new([]),
            outs: Box::new([]),
            mix: Default::default(),
        };
        assert!(c.on_reuse_hit(&t).is_empty());
        assert!(c.on_reuse_hit(&t).is_empty());
        assert_eq!(c.stats().expansions, 0);
    }

    #[test]
    fn cap_splits_open_new_trace() {
        // Caps allow one memory live-in: the second distinct load closes
        // the trace.
        let caps = IoCaps {
            reg_in: 8,
            mem_in: 1,
            reg_out: 8,
            mem_out: 4,
        };
        let mut c = Collector::new(Heuristic::FixedExp(8), caps, None);
        let l1 = di(0, &[(Loc::Mem(10), 1)], &[(R1, 1)]);
        let l2 = di(1, &[(Loc::Mem(11), 2)], &[(R2, 2)]);
        assert!(c.on_executed(&l1).is_empty());
        let out = c.on_executed(&l2);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len, 1);
        assert_eq!(c.stats().cap_splits, 1);
    }

    #[test]
    #[should_panic(expected = "require a finite ILR buffer")]
    fn ilr_heuristic_requires_buffer() {
        let _ = Collector::new(Heuristic::IlrExp, IoCaps::PAPER, None);
    }
}
