#![warn(missing_docs)]
//! # tlr-vm
//!
//! The functional simulator: executes a [`tlr_asm::Program`] and emits one
//! [`tlr_isa::DynInstr`] per executed instruction through a streaming
//! [`tlr_isa::StreamSink`]. This is the workspace's substitute for the
//! paper's ATOM-instrumented Alpha binaries: the record carries exactly
//! the information an instrumentation routine observes — PC, the ordered
//! (location, value) pairs read and written, and the next PC.
//!
//! Two capabilities beyond plain execution exist for the reuse study:
//!
//! * **architectural peeks** ([`Vm::peek_loc`]) — the RTM reuse test must
//!   compare a candidate trace's recorded live-in values against the
//!   *current* architectural state before deciding to skip the trace;
//! * **trace fast-forward** ([`Vm::apply_trace`]) — on a reuse hit the
//!   engine applies the recorded live-out values and jumps to the
//!   recorded next PC without executing (or even fetching) the skipped
//!   instructions, exactly the processor-state update of §3.3.
//!
//! The ISA is written once: one instruction body over the predecoded
//! dispatch table ([`tlr_isa::Predecoded`], built once in [`Vm::new`]),
//! generic over a sink for the locations each instruction reads and
//! writes. It has two instantiations. The *observed* path
//! ([`Vm::step`]/[`Vm::run`]) passes the instruction's
//! [`tlr_isa::DynInstr`] as the sink, materializing the full record; the
//! *fast* path ([`Vm::step_fast`]/[`Vm::run_fast`]) passes a no-op sink,
//! so it is allocation-free and record-free for when nothing is
//! consuming the dynamic stream. [`ExecMode`] selects between them; both
//! compute identical architectural state because they run the same code.

mod memory;
mod vm;

pub use memory::Memory;
pub use vm::{ExecMode, FastStep, RunOutcome, StepResult, Vm, VmError};
