//! Allocation budget of the trace collector.
//!
//! A counting global allocator pins the collector's steady state: once
//! its buffers exist, a call that completes no trace allocates nothing,
//! and a call that completes `k` traces allocates at most `2k + 1` times
//! — the two boxes of each record plus the returned `Vec`. The count is
//! per thread, so tests running in parallel never disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use tlr_core::{Collector, Heuristic, IoCaps, TraceRecord};
use tlr_isa::{CollectSink, DynInstr};
use tlr_vm::Vm;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations and reallocations the
/// current thread makes.
struct CountingAlloc;

fn count_one() {
    // `try_with`: the thread-local is gone while a thread shuts down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees carry over; counting only touches a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`, and a valid `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f`, returning its result and the allocations this thread made
/// meanwhile.
fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// What one replay pass saw.
#[derive(Debug, Default)]
struct Pass {
    silent_calls: u64,
    emitting_calls: u64,
    hits: u64,
}

/// Replay `stream` into `collector` the way an engine drives it. Where a
/// trace the collector emitted earlier starts at the current PC and
/// spans the stream up to its recorded next PC, the trace is reused: the
/// collector hears `on_reuse_hit` and the covered instructions are
/// skipped. (Live-in values are not compared; the collector never reads
/// them.) Otherwise the instruction executes. With `check`, every call
/// must keep to the allocation budget.
fn replay(
    collector: &mut Collector,
    stream: &[DynInstr],
    traces: &mut HashMap<u32, TraceRecord>,
    check: bool,
) -> Pass {
    let mut pass = Pass::default();
    let mut i = 0;
    while i < stream.len() {
        let d = &stream[i];
        let hit = traces
            .get(&d.pc)
            .filter(|t| {
                let end = i + t.len as usize;
                end <= stream.len() && stream[end - 1].next_pc == t.next_pc
            })
            .cloned();
        let (records, allocs) = match &hit {
            Some(t) => counting(|| collector.on_reuse_hit(t)),
            None => counting(|| collector.on_executed(d)),
        };
        i += hit.as_ref().map_or(1, |t| t.len as usize);
        pass.hits += u64::from(hit.is_some());
        let k = records.len() as u64;
        if k == 0 {
            pass.silent_calls += 1;
        } else {
            pass.emitting_calls += 1;
        }
        if check {
            let budget = if k == 0 { 0 } else { 2 * k + 1 };
            assert!(
                allocs <= budget,
                "{} at pc {} emitted {k} records with {allocs} allocations (budget {budget})",
                if hit.is_some() {
                    "on_reuse_hit"
                } else {
                    "on_executed"
                },
                d.pc,
            );
        }
        for rec in records {
            traces.insert(rec.start_pc, rec);
        }
    }
    pass
}

#[test]
fn collector_allocates_only_the_records_it_emits() {
    let kernel = tlr_workloads::by_name("compress").expect("compress kernel");
    let program = kernel.program(1);
    let mut vm = Vm::new(&program);
    let mut sink = CollectSink::default();
    vm.run(30_000, &mut sink).expect("kernel runs");
    let stream = sink.records;

    let mut collector = Collector::new(Heuristic::FixedExp(4), IoCaps::PAPER, None);
    let mut traces = HashMap::new();
    // Warm-up: the test's own trace map grows here; the collector's
    // buffers already exist.
    replay(&mut collector, &stream, &mut traces, false);
    let expansions_before = collector.stats().expansions;
    let pass = replay(&mut collector, &stream, &mut traces, true);

    // The pass exercised every path the budget covers.
    assert!(pass.silent_calls > 1_000, "{pass:?}");
    assert!(pass.emitting_calls > 50, "{pass:?}");
    assert!(pass.hits > 100, "{pass:?}");
    assert!(
        collector.stats().expansions > expansions_before + 50,
        "{pass:?}"
    );
}
