//! The functional simulator core.

use crate::memory::Memory;
use std::fmt;
use tlr_asm::Program;
use tlr_isa::{DynInstr, FpCmpOp, FpOp, FpUnOp, IntOp, Loc, OpClass, POp, Predecoded, StreamSink};

/// An execution error. The program counter identifies the faulting
/// instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmError {
    /// Fetch fell off the end of the instruction array.
    PcOutOfRange {
        /// The invalid PC.
        pc: u32,
    },
    /// An indirect jump targeted an address outside the program.
    BadJumpTarget {
        /// PC of the jump instruction.
        pc: u32,
        /// The invalid target.
        target: u64,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::PcOutOfRange { pc } => write!(f, "fetch out of range at pc={pc}"),
            VmError::BadJumpTarget { pc, target } => {
                write!(f, "indirect jump at pc={pc} to invalid target {target}")
            }
        }
    }
}

impl std::error::Error for VmError {}

/// Result of a single [`Vm::step`].
#[derive(Debug, PartialEq)]
pub enum StepResult {
    /// One instruction executed; the record describes it.
    Executed(DynInstr),
    /// The program reached `halt`.
    Halted,
}

/// How a [`Vm::run`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program executed `halt`.
    Halted {
        /// Instructions executed (halt itself is not counted or recorded).
        executed: u64,
    },
    /// The instruction budget ran out first.
    BudgetExhausted {
        /// Instructions executed (== the budget).
        executed: u64,
    },
}

impl RunOutcome {
    /// Instructions executed in either case.
    pub fn executed(self) -> u64 {
        match self {
            RunOutcome::Halted { executed } | RunOutcome::BudgetExhausted { executed } => executed,
        }
    }
}

/// Which execution model drives the hot loop.
///
/// Both modes are instantiations of one instruction body, generic over
/// where it reports the locations it touches, so they compute identical
/// architectural state by construction. The split exists so that the
/// per-instruction [`DynInstr`] record — heap-free but still a ~100-byte
/// value with inline read/write vectors — is materialized *lazily*, only
/// when something (a collector, a tap, a recorder) is actually consuming
/// the dynamic stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Predecoded dispatch with no per-step record: [`Vm::step_fast`].
    Fast,
    /// Reference observed execution: every step materializes the full
    /// [`DynInstr`] via [`Vm::step`].
    #[default]
    Observed,
}

/// Result of a single [`Vm::step_fast`] — like [`StepResult`] but
/// reporting only the executed instruction's class, with no record built.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FastStep {
    /// One instruction executed.
    Executed(OpClass),
    /// The program reached `halt`.
    Halted,
}

/// The architectural simulator.
///
/// Holds the program, the register files, memory, and the PC. `r31`/`f31`
/// are hardwired zero: reads yield zero without being recorded as inputs
/// and writes are discarded without being recorded as outputs (they are
/// literals, not storage locations — Alpha convention).
pub struct Vm {
    program: Program,
    pre: Predecoded,
    iregs: [u64; 32],
    fregs: [f64; 32],
    mem: Memory,
    pc: u32,
    executed: u64,
}

impl Vm {
    /// Load a program: memory gets the data image, registers start at
    /// zero, PC at the entry point. The instruction array is predecoded
    /// once, here, into the dense dispatch table both step paths run on.
    pub fn new(program: &Program) -> Self {
        Self {
            mem: Memory::from_image(&program.data),
            pre: Predecoded::of(&program.instrs),
            iregs: [0; 32],
            fregs: [0.0; 32],
            pc: program.entry,
            executed: 0,
            program: program.clone(),
        }
    }

    /// Current program counter.
    #[inline]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Total instructions executed so far (reused/skipped instructions
    /// applied via [`Vm::apply_trace`] are *not* counted here).
    #[inline]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Memory view (tests / post-run inspection).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable memory view. Used by the trace-block applier to write
    /// memory outputs without the [`Loc`] indirection of
    /// [`Vm::poke_loc`].
    #[inline]
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The predecoded dispatch table (one entry per static instruction).
    pub fn predecoded(&self) -> &Predecoded {
        &self.pre
    }

    /// Number of static instructions; valid PCs are `0..code_len()`.
    #[inline]
    pub fn code_len(&self) -> usize {
        self.pre.len()
    }

    /// Raw integer register file. Slot 31 is the hardwired zero register:
    /// it is never written by execution, so it always reads as zero.
    #[inline]
    pub fn iregs(&self) -> &[u64; 32] {
        &self.iregs
    }

    /// Mutable integer register file. Callers must preserve the zero
    /// register invariant: never write slot 31 (the trace-block applier
    /// filters zero-register outputs at build time).
    #[inline]
    pub fn iregs_mut(&mut self) -> &mut [u64; 32] {
        &mut self.iregs
    }

    /// Raw FP register file; slot 31 is the hardwired zero register.
    #[inline]
    pub fn fregs(&self) -> &[f64; 32] {
        &self.fregs
    }

    /// Mutable FP register file; same slot-31 caveat as
    /// [`Vm::iregs_mut`].
    #[inline]
    pub fn fregs_mut(&mut self) -> &mut [f64; 32] {
        &mut self.fregs
    }

    /// Redirect the PC (the trace-block analogue of the jump performed by
    /// [`Vm::apply_trace`]). An out-of-range target is not an error here;
    /// it surfaces as [`VmError::PcOutOfRange`] at the next fetch.
    #[inline]
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Read the current architectural value of a location, as the RTM
    /// reuse test does when comparing a candidate trace's live-ins against
    /// processor state.
    #[inline]
    pub fn peek_loc(&self, loc: Loc) -> u64 {
        match loc {
            Loc::IntReg(n) => {
                if n == 31 {
                    0
                } else {
                    self.iregs[n as usize]
                }
            }
            Loc::FpReg(n) => {
                if n == 31 {
                    0
                } else {
                    self.fregs[n as usize].to_bits()
                }
            }
            Loc::Mem(addr) => self.mem.read(addr),
        }
    }

    /// Canonical digest of the full architectural state: every register
    /// (integer and FP, bit patterns) and every nonzero memory word in
    /// address order. Two runs that made the same progress must produce
    /// equal digests — the equality the warm-start, policy, and daemon
    /// regression gates compare on.
    pub fn state_digest(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = tlr_util::fxhash::FxHasher64::new();
        for r in 0..32u8 {
            h.write_u64(self.peek_loc(Loc::IntReg(r)));
        }
        for r in 0..32u8 {
            h.write_u64(self.peek_loc(Loc::FpReg(r)));
        }
        let mut words: Vec<(u64, u64)> = self.mem.iter_words().collect();
        words.sort_unstable();
        for (addr, value) in words {
            h.write_u64(addr);
            h.write_u64(value);
        }
        h.finish()
    }

    /// Apply a reused trace's outputs and jump to its next PC — the
    /// processor-state update of §3.3, performed *instead of* fetching and
    /// executing the trace body. `skipped` is the number of dynamic
    /// instructions the trace covers (bookkeeping only).
    ///
    /// Returns an error if `next_pc` is outside the program.
    pub fn apply_trace(
        &mut self,
        outputs: impl IntoIterator<Item = (Loc, u64)>,
        next_pc: u32,
    ) -> Result<(), VmError> {
        if next_pc as usize >= self.program.instrs.len() {
            return Err(VmError::BadJumpTarget {
                pc: self.pc,
                target: next_pc as u64,
            });
        }
        for (loc, value) in outputs {
            self.poke_loc(loc, value);
        }
        self.pc = next_pc;
        Ok(())
    }

    /// Write a location directly (used by `apply_trace` and tests).
    #[inline]
    pub fn poke_loc(&mut self, loc: Loc, value: u64) {
        match loc {
            Loc::IntReg(n) => {
                if n != 31 {
                    self.iregs[n as usize] = value;
                }
            }
            Loc::FpReg(n) => {
                if n != 31 {
                    self.fregs[n as usize] = f64::from_bits(value);
                }
            }
            Loc::Mem(addr) => self.mem.write(addr, value),
        }
    }

    /// Execute one instruction, returning its dynamic record (or
    /// [`StepResult::Halted`]). This is the *observed* step: it
    /// materializes the full [`DynInstr`] an ATOM-style instrumentation
    /// pass would produce. It runs the same instruction body as
    /// [`Vm::step_fast`], with the record as the body's effect sink.
    pub fn step(&mut self) -> Result<StepResult, VmError> {
        let pc = self.pc;
        let op = self.pre.op(pc).ok_or(VmError::PcOutOfRange { pc })?;
        let mut rec = DynInstr {
            pc,
            next_pc: pc + 1,
            class: self.pre.class(pc),
            reads: Default::default(),
            writes: Default::default(),
        };
        let Some(next_pc) = self.exec(op, &mut rec)? else {
            return Ok(StepResult::Halted);
        };
        rec.next_pc = next_pc;
        self.pc = next_pc;
        self.executed += 1;
        Ok(StepResult::Executed(rec))
    }

    /// Execute one instruction with no dynamic record: the allocation-free
    /// fast path. Architectural effects, error cases, and the `executed`
    /// counter are identical to [`Vm::step`] — both run one instruction
    /// body — and nothing is materialized for an observer.
    pub fn step_fast(&mut self) -> Result<FastStep, VmError> {
        let pc = self.pc;
        let op = self.pre.op(pc).ok_or(VmError::PcOutOfRange { pc })?;
        let Some(next_pc) = self.exec(op, &mut ())? else {
            return Ok(FastStep::Halted);
        };
        self.pc = next_pc;
        self.executed += 1;
        Ok(FastStep::Executed(self.pre.class(pc)))
    }

    /// The one instruction body: execute `op` at the current PC,
    /// reporting every location it reads and writes to `fx`, and return
    /// the next PC (`None` at `halt`). The caller fetched `op` and
    /// commits the PC.
    #[inline(always)]
    fn exec<E: Effects>(&mut self, op: POp, fx: &mut E) -> Result<Option<u32>, VmError> {
        let pc = self.pc;
        let mut next_pc = pc + 1;

        // Register fields are raw predecoded indices; index 31 is the
        // hardwired zero register (reads unreported, writes discarded).
        macro_rules! read_r {
            ($n:expr) => {{
                let n: u8 = $n;
                if n == 31 {
                    0
                } else {
                    let v = self.iregs[n as usize];
                    fx.read(Loc::IntReg(n), v);
                    v
                }
            }};
        }
        macro_rules! read_f {
            ($n:expr) => {{
                let n: u8 = $n;
                if n == 31 {
                    0.0
                } else {
                    let v = self.fregs[n as usize];
                    fx.read(Loc::FpReg(n), v.to_bits());
                    v
                }
            }};
        }
        macro_rules! write_r {
            ($n:expr, $v:expr) => {{
                let n: u8 = $n;
                let v: u64 = $v;
                if n != 31 {
                    self.iregs[n as usize] = v;
                    fx.write(Loc::IntReg(n), v);
                }
            }};
        }
        macro_rules! write_f {
            ($n:expr, $v:expr) => {{
                let n: u8 = $n;
                let v: f64 = $v;
                if n != 31 {
                    self.fregs[n as usize] = v;
                    fx.write(Loc::FpReg(n), v.to_bits());
                }
            }};
        }

        match op {
            POp::IntRR { op, rd, ra, rb } => {
                let a = read_r!(ra);
                let b = read_r!(rb);
                write_r!(rd, eval_int_op(op, a, b));
            }
            POp::IntRI { op, rd, ra, imm } => {
                let a = read_r!(ra);
                write_r!(rd, eval_int_op(op, a, imm));
            }
            POp::Li { rd, imm } => {
                write_r!(rd, imm);
            }
            POp::Fp { op, fd, fa, fb } => {
                let a = read_f!(fa);
                let b = read_f!(fb);
                let v = match op {
                    FpOp::Add => a + b,
                    FpOp::Sub => a - b,
                    FpOp::Mul => a * b,
                    FpOp::Div => a / b,
                };
                write_f!(fd, v);
            }
            POp::FpUn { op, fd, fa } => {
                let a = read_f!(fa);
                let v = match op {
                    FpUnOp::Sqrt => a.sqrt(),
                    FpUnOp::Neg => -a,
                    FpUnOp::Abs => a.abs(),
                    FpUnOp::Mov => a,
                };
                write_f!(fd, v);
            }
            POp::FpCmp { op, rd, fa, fb } => {
                let a = read_f!(fa);
                let b = read_f!(fb);
                let v = match op {
                    FpCmpOp::Eq => a == b,
                    FpCmpOp::Lt => a < b,
                    FpCmpOp::Le => a <= b,
                } as u64;
                write_r!(rd, v);
            }
            POp::LoadInt { rd, base, disp } => {
                let addr = read_r!(base).wrapping_add(disp);
                let v = self.mem.read(addr);
                fx.read(Loc::Mem(addr), v);
                write_r!(rd, v);
            }
            POp::StoreInt { rs, base, disp } => {
                let v = read_r!(rs);
                let addr = read_r!(base).wrapping_add(disp);
                self.mem.write(addr, v);
                fx.write(Loc::Mem(addr), v);
            }
            POp::LoadFp { fd, base, disp } => {
                let addr = read_r!(base).wrapping_add(disp);
                let bits = self.mem.read(addr);
                fx.read(Loc::Mem(addr), bits);
                write_f!(fd, f64::from_bits(bits));
            }
            POp::StoreFp { fs, base, disp } => {
                let v = read_f!(fs).to_bits();
                let addr = read_r!(base).wrapping_add(disp);
                self.mem.write(addr, v);
                fx.write(Loc::Mem(addr), v);
            }
            POp::Itof { fd, ra } => {
                let a = read_r!(ra);
                write_f!(fd, a as i64 as f64);
            }
            POp::Ftoi { rd, fa } => {
                let a = read_f!(fa);
                // `as` saturates on overflow and maps NaN to 0: deterministic.
                write_r!(rd, a as i64 as u64);
            }
            POp::Branch { cond, ra, target } => {
                let v = read_r!(ra);
                if cond.eval(v) {
                    next_pc = target;
                }
            }
            POp::Jump { target } => {
                next_pc = target;
            }
            POp::Jsr { link, target } => {
                write_r!(link, (pc + 1) as u64);
                next_pc = target;
            }
            POp::JmpReg { ra } => {
                let v = read_r!(ra);
                if v as usize >= self.pre.len() {
                    return Err(VmError::BadJumpTarget { pc, target: v });
                }
                next_pc = v as u32;
            }
            POp::Halt => return Ok(None),
            POp::Nop => {}
        }
        Ok(Some(next_pc))
    }

    /// Run until `halt` or until `budget` instructions have executed,
    /// pushing every record to `sink`.
    pub fn run(&mut self, budget: u64, sink: &mut impl StreamSink) -> Result<RunOutcome, VmError> {
        let mut n = 0u64;
        while n < budget {
            match self.step()? {
                StepResult::Executed(rec) => {
                    sink.observe(&rec);
                    n += 1;
                }
                StepResult::Halted => {
                    sink.finish();
                    return Ok(RunOutcome::Halted { executed: n });
                }
            }
        }
        sink.finish();
        Ok(RunOutcome::BudgetExhausted { executed: n })
    }

    /// Run until `halt` or until `budget` instructions have executed, on
    /// the allocation-free fast path. No records are produced.
    pub fn run_fast(&mut self, budget: u64) -> Result<RunOutcome, VmError> {
        let mut n = 0u64;
        while n < budget {
            match self.step_fast()? {
                FastStep::Executed(_) => n += 1,
                FastStep::Halted => return Ok(RunOutcome::Halted { executed: n }),
            }
        }
        Ok(RunOutcome::BudgetExhausted { executed: n })
    }

    /// Run in the given [`ExecMode`]. `Observed` pushes every record to
    /// `sink`; `Fast` produces no records (the sink only sees `finish`).
    pub fn run_mode(
        &mut self,
        budget: u64,
        mode: ExecMode,
        sink: &mut impl StreamSink,
    ) -> Result<RunOutcome, VmError> {
        match mode {
            ExecMode::Observed => self.run(budget, sink),
            ExecMode::Fast => {
                let outcome = self.run_fast(budget)?;
                sink.finish();
                Ok(outcome)
            }
        }
    }
}

/// Where [`Vm::exec`] reports each location an instruction reads or
/// writes, in the order it does so: [`Vm::step`] records them in the
/// [`DynInstr`], [`Vm::step_fast`] passes `()` and they compile away.
trait Effects {
    fn read(&mut self, loc: Loc, value: u64);
    fn write(&mut self, loc: Loc, value: u64);
}

impl Effects for DynInstr {
    #[inline(always)]
    fn read(&mut self, loc: Loc, value: u64) {
        self.reads.push((loc, value));
    }

    #[inline(always)]
    fn write(&mut self, loc: Loc, value: u64) {
        self.writes.push((loc, value));
    }
}

impl Effects for () {
    #[inline(always)]
    fn read(&mut self, _: Loc, _: u64) {}

    #[inline(always)]
    fn write(&mut self, _: Loc, _: u64) {}
}

#[inline]
fn eval_int_op(op: IntOp, a: u64, b: u64) -> u64 {
    match op {
        IntOp::Add => a.wrapping_add(b),
        IntOp::Sub => a.wrapping_sub(b),
        IntOp::Mul => a.wrapping_mul(b),
        IntOp::And => a & b,
        IntOp::Or => a | b,
        IntOp::Xor => a ^ b,
        IntOp::Sll => a << (b & 63),
        IntOp::Srl => a >> (b & 63),
        IntOp::Sra => ((a as i64) >> (b & 63)) as u64,
        IntOp::CmpEq => (a == b) as u64,
        IntOp::CmpLt => ((a as i64) < (b as i64)) as u64,
        IntOp::CmpLe => ((a as i64) <= (b as i64)) as u64,
        IntOp::CmpUlt => (a < b) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_asm::assemble;
    use tlr_isa::CollectSink;

    fn run_source(src: &str, budget: u64) -> (Vm, Vec<DynInstr>, RunOutcome) {
        let prog = assemble(src).expect("assembly failed");
        let mut vm = Vm::new(&prog);
        let mut sink = CollectSink::default();
        let outcome = vm.run(budget, &mut sink).expect("vm error");
        (vm, sink.records, outcome)
    }

    #[test]
    fn arithmetic_loop_sums() {
        let (vm, recs, outcome) = run_source(
            r#"
            li      r1, 0        ; sum
            li      r2, 5        ; i
    loop:   addq    r1, r1, r2
            subq    r2, r2, 1
            bnez    r2, loop
            halt
            "#,
            1000,
        );
        assert!(matches!(outcome, RunOutcome::Halted { .. }));
        assert_eq!(vm.peek_loc(Loc::IntReg(1)), 15); // 5+4+3+2+1
                                                     // 2 setup + 5 iterations * 3 instructions
        assert_eq!(recs.len(), 17);
    }

    #[test]
    fn loads_and_stores_record_memory_locations() {
        let (vm, recs, _) = run_source(
            r#"
            .org 100
    v:      .word 7
            li      r1, v
            ldq     r2, 0(r1)
            addq    r2, r2, 1
            stq     r2, 1(r1)
            halt
            "#,
            100,
        );
        assert_eq!(vm.memory().read(101), 8);
        let load = &recs[1];
        assert!(load
            .reads
            .iter()
            .any(|(l, v)| *l == Loc::Mem(100) && *v == 7));
        let store = &recs[3];
        assert!(store
            .writes
            .iter()
            .any(|(l, v)| *l == Loc::Mem(101) && *v == 8));
    }

    #[test]
    fn zero_register_is_not_a_location() {
        let (_, recs, _) = run_source(
            r#"
            addq    zero, zero, 5   ; write discarded, reads unrecorded
            mov     r1, zero
            halt
            "#,
            10,
        );
        assert!(recs[0].reads.is_empty());
        assert!(recs[0].writes.is_empty());
        // mov r1, zero reads nothing (zero reg) and writes r1 = 0.
        assert!(recs[1].reads.is_empty());
        assert_eq!(recs[1].writes.as_slice(), &[(Loc::IntReg(1), 0)]);
    }

    #[test]
    fn fp_pipeline_works() {
        let (vm, _, _) = run_source(
            r#"
            .org 0
    a:      .double 2.25
            li      r1, a
            ldt     f1, 0(r1)
            sqrtt   f2, f1
            addt    f3, f2, f2
            stt     f3, 1(r1)
            halt
            "#,
            100,
        );
        assert_eq!(vm.memory().read_f64(1), 3.0);
    }

    #[test]
    fn fp_compare_and_branch() {
        let (vm, _, _) = run_source(
            r#"
            .org 0
    vals:   .double 1.5, 2.5
            li      r1, vals
            ldt     f1, 0(r1)
            ldt     f2, 1(r1)
            cmptlt  r2, f1, f2
            beqz    r2, nope
            li      r3, 111
            halt
    nope:   li      r3, 222
            halt
            "#,
            100,
        );
        assert_eq!(vm.peek_loc(Loc::IntReg(3)), 111);
    }

    #[test]
    fn jsr_and_ret() {
        let (vm, recs, _) = run_source(
            r#"
            jsr     r26, fn
            li      r2, 99
            halt
    fn:     li      r1, 42
            ret     r26
            "#,
            100,
        );
        assert_eq!(vm.peek_loc(Loc::IntReg(1)), 42);
        assert_eq!(vm.peek_loc(Loc::IntReg(2)), 99);
        // jsr writes the link register.
        assert_eq!(recs[0].writes.as_slice(), &[(Loc::IntReg(26), 1)]);
        assert_eq!(recs[0].next_pc, 3);
    }

    #[test]
    fn budget_exhaustion() {
        let (_, recs, outcome) = run_source("loop: br loop\n", 25);
        assert_eq!(outcome, RunOutcome::BudgetExhausted { executed: 25 });
        assert_eq!(recs.len(), 25);
    }

    #[test]
    fn pc_out_of_range_reported() {
        // A program with no halt falls off the end.
        let prog = assemble("nop\n").unwrap();
        let mut vm = Vm::new(&prog);
        let mut sink = CollectSink::default();
        let err = vm.run(10, &mut sink).unwrap_err();
        assert_eq!(err, VmError::PcOutOfRange { pc: 1 });
    }

    #[test]
    fn bad_indirect_jump_reported() {
        let (prog, _) = (assemble("li r1, 999\njmp r1\nhalt\n").unwrap(), ());
        let mut vm = Vm::new(&prog);
        assert!(matches!(vm.step(), Ok(StepResult::Executed(_))));
        assert_eq!(
            vm.step().unwrap_err(),
            VmError::BadJumpTarget { pc: 1, target: 999 }
        );
    }

    #[test]
    fn apply_trace_updates_state_and_pc() {
        let prog = assemble("nop\nnop\nnop\nhalt\n").unwrap();
        let mut vm = Vm::new(&prog);
        vm.apply_trace(
            [
                (Loc::IntReg(5), 77),
                (Loc::Mem(10), 88),
                (Loc::FpReg(2), 2.5f64.to_bits()),
            ],
            3,
        )
        .unwrap();
        assert_eq!(vm.pc(), 3);
        assert_eq!(vm.peek_loc(Loc::IntReg(5)), 77);
        assert_eq!(vm.peek_loc(Loc::Mem(10)), 88);
        assert_eq!(vm.peek_loc(Loc::FpReg(2)), 2.5f64.to_bits());
        // Continuing from the applied PC halts immediately.
        assert_eq!(vm.step().unwrap(), StepResult::Halted);
    }

    #[test]
    fn apply_trace_rejects_bad_next_pc() {
        let prog = assemble("halt\n").unwrap();
        let mut vm = Vm::new(&prog);
        assert!(vm.apply_trace([], 5).is_err());
    }

    #[test]
    fn int_op_semantics() {
        assert_eq!(eval_int_op(IntOp::Add, u64::MAX, 1), 0);
        assert_eq!(eval_int_op(IntOp::Sub, 0, 1), u64::MAX);
        assert_eq!(eval_int_op(IntOp::Mul, u64::MAX, 2), u64::MAX - 1); // wraps mod 2^64
        assert_eq!(eval_int_op(IntOp::Sll, 1, 65), 2); // shift mod 64
        assert_eq!(eval_int_op(IntOp::Sra, (-8i64) as u64, 1), (-4i64) as u64);
        assert_eq!(eval_int_op(IntOp::CmpLt, (-1i64) as u64, 0), 1);
        assert_eq!(eval_int_op(IntOp::CmpUlt, (-1i64) as u64, 0), 0);
        assert_eq!(eval_int_op(IntOp::CmpLe, 3, 3), 1);
        assert_eq!(eval_int_op(IntOp::CmpEq, 3, 4), 0);
    }

    // Exercises every opcode family: int RR + RI forms, li, FP
    // arithmetic/unary/compare, int and FP loads/stores, conversions,
    // branches, jsr/ret, and an indirect jump.
    const ALL_OPS: &str = r#"
            .org 0x80
    tab:    .double 2.25, 4.0
            li      r1, tab
            ldt     f1, 0(r1)
            ldt     f2, 1(r1)
            addt    f3, f1, f2
            subt    f4, f3, f1
            mult    f5, f4, f2
            divt    f6, f5, f2
            sqrtt   f7, f2
            negt    f8, f7
            cmptlt  r2, f1, f2
            ftoi    r3, f6
            itof    f9, r3
            stt     f9, 4(r1)
            li      r4, 6
    loop:   addq    r5, r5, r4
            mulq    r6, r4, r4
            and     r7, r6, 0xff
            xor     r8, r7, r5
            srl     r9, r8, 2
            stq     r9, 8(r1)
            ldq     r10, 8(r1)
            subq    r4, r4, 1
            bnez    r4, loop
            jsr     r26, fn
            li      r11, 7
            halt
    fn:     cmpult  r12, r5, r10
            ret     r26
    "#;

    #[test]
    fn fast_path_matches_observed_execution() {
        let prog = assemble(ALL_OPS).unwrap();
        let mut obs = Vm::new(&prog);
        let mut sink = CollectSink::default();
        let obs_outcome = obs.run(100_000, &mut sink).unwrap();
        let mut fast = Vm::new(&prog);
        let fast_outcome = fast.run_fast(100_000).unwrap();
        assert_eq!(obs_outcome, fast_outcome);
        assert_eq!(obs.executed(), fast.executed());
        assert_eq!(obs.pc(), fast.pc());
        assert_eq!(obs.state_digest(), fast.state_digest());
        // The observed run did record the stream.
        assert_eq!(sink.records.len() as u64, obs.executed());
    }

    #[test]
    fn run_mode_selects_the_step_path() {
        let prog = assemble(ALL_OPS).unwrap();
        let mut a = Vm::new(&prog);
        let mut b = Vm::new(&prog);
        let mut sink_a = CollectSink::default();
        let mut sink_b = CollectSink::default();
        let oa = a
            .run_mode(100_000, ExecMode::Observed, &mut sink_a)
            .unwrap();
        let ob = b.run_mode(100_000, ExecMode::Fast, &mut sink_b).unwrap();
        assert_eq!(oa, ob);
        assert_eq!(a.state_digest(), b.state_digest());
        assert!(!sink_a.records.is_empty());
        assert!(sink_b.records.is_empty());
    }

    #[test]
    fn fast_path_reports_identical_errors() {
        let prog = assemble("li r1, 999\njmp r1\nhalt\n").unwrap();
        let mut vm = Vm::new(&prog);
        assert!(matches!(vm.step_fast(), Ok(FastStep::Executed(_))));
        assert_eq!(
            vm.step_fast().unwrap_err(),
            VmError::BadJumpTarget { pc: 1, target: 999 }
        );
        let prog = assemble("nop\n").unwrap();
        let mut vm = Vm::new(&prog);
        assert_eq!(
            vm.run_fast(10).unwrap_err(),
            VmError::PcOutOfRange { pc: 1 }
        );
    }

    #[test]
    fn determinism_same_program_same_stream() {
        let src = r#"
            li      r1, 10
            li      r2, 0x100
    loop:   stq     r1, 0(r2)
            ldq     r3, 0(r2)
            mulq    r3, r3, r3
            addq    r2, r2, 1
            subq    r1, r1, 1
            bnez    r1, loop
            halt
        "#;
        let (_, a, _) = run_source(src, 10_000);
        let (_, b, _) = run_source(src, 10_000);
        assert_eq!(a, b);
    }
}
