//! `tlrsim` — assemble, run and analyze trace-reuse programs from the
//! command line.
//!
//! ```text
//! tlrsim run FILE      [--budget N] [--fast] [--mode fast|observed] [--reuse]
//!                      [--rtm SIZE] [--heuristic H] [--policy P]
//!                      [--warm-rtm SNAP]
//! tlrsim disasm FILE
//! tlrsim analyze FILE  [--budget N] [--window W]
//! tlrsim decant FILE   [--budget N] [--rtm SIZE] [--heuristic H] [--policy P]
//!                      [--out JSON]
//! tlrsim record FILE   --out TRACE [--budget N]
//! tlrsim replay FILE   --trace TRACE
//! tlrsim snapshot FILE --out SNAP  [--budget N] [--rtm SIZE] [--heuristic H]
//!                      [--policy P]
//! tlrsim merge SNAP SNAP [SNAP...] --out SNAP [--policy P]
//! tlrsim compact DIR   [--policy P]
//! tlrsim golden        [--regen] [--out DIR]
//! tlrsim serve --snapshots DIR [--budget N] [--rtm SIZE] [--heuristic H]
//!                              [--policy P] [--threads N] [--seed N] [--save]
//!                              [--listen SOCK] [--refresh-secs N]
//!
//!   SIZE:  512 | 4k | 32k | 256k            (default 4k)
//!   H:     i1..i8 | ilr-ne | ilr-exp | bb   (default i4)
//!   P:     lru | lfu | cost-benefit         (default lru)
//!          (--lfu-half-life N tunes the LFU/cost-benefit decay window)
//!   TRACE: *.tlrtrace (binary) or *.json (debug format)
//!   SNAP:  *.tlrsnap  (binary) or *.json (debug format)
//!   FILE:  an assembly file, or workload:NAME for a built-in workload
//!          (seeded with --seed)
//! ```
//!
//! `run` also takes `--remote SOCK` (warm-start from a `tlrd` daemon and
//! publish the run's RTM back — implies the reuse engine) and `--digest`
//! (print the final architectural-state digest, the equality token the
//! daemon/fleet gates compare).
//!
//! `run` executes a program (optionally under the reuse engine; with
//! `--warm-rtm` the engine starts from a saved RTM snapshot). `--fast`
//! (equivalently `--mode fast`; `--mode observed` is the default) runs
//! on the predecoded fast path — plain execution uses the flat-dispatch
//! interpreter, reuse runs put the engine in its fast mode with
//! straight-line trace blocks — and every run prints its
//! instructions/sec. `disasm`
//! prints the assembled listing, `analyze` runs the paper's full limit
//! study, `decant` runs the reuse engine with its decision tap enabled
//! and attributes every reuse decision by opcode class and loop
//! structure (`tlr-decant`; `--out FILE.json` also writes the
//! attribution as JSON), `record` writes every executed instruction to a trace file,
//! `replay` re-executes against a recording and fails on the first
//! divergence, `snapshot` runs the reuse engine and saves its RTM for
//! later warm starts, `merge` pools several runs' snapshots of one
//! program into a single snapshot (MRU-priority union; list the
//! freshest run last), `compact` runs the registry's fold
//! (`SnapshotRegistry::compact`) for every program in a snapshot
//! directory, leaving each one fresh, compressed base file in place of
//! its base, delta segments and other full snapshots, `golden`
//! maintains the golden-trace regression corpus in `tests/golden/` —
//! with `--regen` it re-records every
//! built-in workload (trace file + expected digests in a manifest,
//! under pinned budget/seed/engine parameters so the corpus is
//! canonical); without it, it regenerates into a scratch directory and
//! byte-compares against the checked-in corpus, exiting nonzero and
//! naming each drifted file (the CI staleness gate) — and `serve`
//! hosts a sharded snapshot registry
//! over a directory — without `--listen`, driving every built-in
//! workload through it in parallel (warm where the directory has
//! state, cold otherwise, publishing each run's RTM back); with
//! `--listen SOCK`, as the `tlrd` daemon serving the registry to other
//! processes over a Unix-domain socket (see `docs/PROTOCOL.md`). Both
//! serve modes background-rescan the directory every `--refresh-secs`
//! seconds so snapshots dropped in by other processes reach resident
//! entries without a restart. With `--save`, serve spills each
//! published entry back to the directory incrementally: an append-only
//! delta segment holding only the PC groups that changed, next to the
//! base file, compacted automatically once enough deltas accumulate.

use std::path::Path;
use trace_reuse::persist::{
    load_snapshot, load_trace, peek_snapshot_identity, program_fingerprint,
    program_shape_fingerprint, replay, save_snapshot, save_trace, FileFormat, MemorySource,
    TraceReader, TraceWriter,
};
use trace_reuse::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage:\n  tlrsim run FILE     [--budget N] [--fast] [--mode fast|observed] [--reuse] \
         [--rtm 512|4k|32k|256k] \
         [--heuristic i1..i8|ilr-ne|ilr-exp|bb] [--policy lru|lfu|cost-benefit] \
         [--warm-rtm SNAP]\n  tlrsim disasm FILE\n  \
         tlrsim analyze FILE [--budget N] [--window W]\n  \
         tlrsim decant FILE  [--budget N] [--rtm ...] [--heuristic ...] [--policy ...] \
         [--out JSON]\n  \
         tlrsim record FILE   --out TRACE [--budget N]\n  \
         tlrsim replay FILE   --trace TRACE\n  \
         tlrsim snapshot FILE --out SNAP [--budget N] [--rtm ...] [--heuristic ...] \
         [--policy ...]\n  \
         tlrsim merge SNAP SNAP [SNAP...] --out SNAP [--policy ...]\n  \
         tlrsim compact DIR  [--policy ...]\n  \
         tlrsim golden       [--regen] [--out DIR]\n  \
         tlrsim serve --snapshots DIR [--budget N] [--rtm ...] [--heuristic ...] \
         [--policy ...] [--threads N] [--seed N] [--save] [--listen SOCK] \
         [--refresh-secs N]\n\
         FILE may be an assembly file or workload:NAME (built-in workload); \
         run also takes --remote SOCK (tlrd warm start) and --digest; \
         --lfu-half-life N tunes the lfu/cost-benefit decay window everywhere"
    );
    std::process::exit(2);
}

/// A named command-line error followed by the usage text: every bad
/// invocation exits 2 with a message saying *what* was wrong, never a
/// panic or a bare usage dump.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    usage();
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Load a program: `workload:NAME` picks a built-in workload (seeded
/// with `--seed`, so daemon clients and the daemon's producers agree on
/// the program fingerprint); anything else is an assembly file.
fn load(path: &str, seed: u64) -> Program {
    if let Some(name) = path.strip_prefix("workload:") {
        let Some(workload) = tlr_workloads::by_name(name) else {
            let names: Vec<&str> = tlr_workloads::all().iter().map(|w| w.name).collect();
            fail(&format!(
                "unknown workload '{name}' (built-ins: {})",
                names.join(", ")
            ));
        };
        return workload.program(seed);
    }
    let source =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    match assemble(&source) {
        Ok(p) => p,
        Err(e) => fail(&format!("{path}: {e}")),
    }
}

fn parse_rtm(s: &str) -> RtmConfig {
    match s.to_ascii_lowercase().as_str() {
        "512" => RtmConfig::RTM_512,
        "4k" => RtmConfig::RTM_4K,
        "32k" => RtmConfig::RTM_32K,
        "256k" => RtmConfig::RTM_256K,
        other => usage_error(&format!("unknown RTM size '{other}' (512|4k|32k|256k)")),
    }
}

fn parse_heuristic(s: &str) -> Heuristic {
    match s.to_ascii_lowercase().as_str() {
        "ilr-ne" => Heuristic::IlrNe,
        "ilr-exp" => Heuristic::IlrExp,
        "bb" => Heuristic::BasicBlock,
        other => match other.strip_prefix('i').and_then(|n| n.parse::<u32>().ok()) {
            Some(n) if (1..=64).contains(&n) => Heuristic::FixedExp(n),
            _ => usage_error(&format!(
                "unknown heuristic '{other}' (i1..i8, ilr-ne, ilr-exp, bb)"
            )),
        },
    }
}

fn parse_policy(s: &str) -> ReplacementPolicy {
    ReplacementPolicy::parse(s)
        .unwrap_or_else(|| usage_error(&format!("unknown policy '{s}' (lru, lfu, cost-benefit)")))
}

struct Flags {
    budget: u64,
    window: usize,
    mode: ExecMode,
    reuse: bool,
    rtm: RtmConfig,
    heuristic: Heuristic,
    policy: ReplacementPolicy,
    lfu_half_life: u64,
    out: Option<String>,
    trace: Option<String>,
    warm_rtm: Option<String>,
    snapshots: Option<String>,
    threads: usize,
    seed: u64,
    save: bool,
    regen: bool,
    listen: Option<String>,
    remote: Option<String>,
    digest: bool,
    refresh_secs: u64,
}

fn parse_flags(args: &[String]) -> Flags {
    let mut flags = Flags {
        budget: 1_000_000,
        window: 256,
        mode: ExecMode::Observed,
        reuse: false,
        rtm: RtmConfig::RTM_4K,
        heuristic: Heuristic::FixedExp(4),
        policy: ReplacementPolicy::Lru,
        lfu_half_life: LFU_HALF_LIFE,
        out: None,
        trace: None,
        warm_rtm: None,
        snapshots: None,
        threads: 0,
        seed: 20260611,
        save: false,
        regen: false,
        listen: None,
        remote: None,
        digest: false,
        refresh_secs: 1,
    };
    let mut i = 0;
    let value = |args: &[String], i: usize, name: &str| -> String {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage_error(&format!("missing value for {name}")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--budget" => {
                flags.budget = value(args, i, "--budget")
                    .parse()
                    .unwrap_or_else(|e| usage_error(&format!("--budget: {e}")));
                i += 2;
            }
            "--window" => {
                flags.window = value(args, i, "--window")
                    .parse()
                    .unwrap_or_else(|e| usage_error(&format!("--window: {e}")));
                i += 2;
            }
            "--fast" => {
                flags.mode = ExecMode::Fast;
                i += 1;
            }
            "--mode" => {
                flags.mode = match value(args, i, "--mode").to_ascii_lowercase().as_str() {
                    "fast" => ExecMode::Fast,
                    "observed" => ExecMode::Observed,
                    other => usage_error(&format!(
                        "unknown execution mode '{other}' (fast, observed)"
                    )),
                };
                i += 2;
            }
            "--reuse" => {
                flags.reuse = true;
                i += 1;
            }
            "--rtm" => {
                flags.rtm = parse_rtm(&value(args, i, "--rtm"));
                i += 2;
            }
            "--heuristic" => {
                flags.heuristic = parse_heuristic(&value(args, i, "--heuristic"));
                i += 2;
            }
            "--policy" => {
                flags.policy = parse_policy(&value(args, i, "--policy"));
                i += 2;
            }
            "--lfu-half-life" => {
                flags.lfu_half_life = value(args, i, "--lfu-half-life")
                    .parse()
                    .unwrap_or_else(|e| usage_error(&format!("--lfu-half-life: {e}")));
                if flags.lfu_half_life == 0 {
                    usage_error("--lfu-half-life must be at least 1 lookup");
                }
                i += 2;
            }
            "--out" => {
                flags.out = Some(value(args, i, "--out"));
                i += 2;
            }
            "--trace" => {
                flags.trace = Some(value(args, i, "--trace"));
                i += 2;
            }
            "--warm-rtm" => {
                flags.warm_rtm = Some(value(args, i, "--warm-rtm"));
                i += 2;
            }
            "--snapshots" => {
                flags.snapshots = Some(value(args, i, "--snapshots"));
                i += 2;
            }
            "--threads" => {
                flags.threads = value(args, i, "--threads")
                    .parse()
                    .unwrap_or_else(|e| usage_error(&format!("--threads: {e}")));
                i += 2;
            }
            "--seed" => {
                flags.seed = value(args, i, "--seed")
                    .parse()
                    .unwrap_or_else(|e| usage_error(&format!("--seed: {e}")));
                i += 2;
            }
            "--save" => {
                flags.save = true;
                i += 1;
            }
            "--regen" => {
                flags.regen = true;
                i += 1;
            }
            "--listen" => {
                flags.listen = Some(value(args, i, "--listen"));
                i += 2;
            }
            "--remote" => {
                flags.remote = Some(value(args, i, "--remote"));
                i += 2;
            }
            "--digest" => {
                flags.digest = true;
                i += 1;
            }
            "--refresh-secs" => {
                flags.refresh_secs = value(args, i, "--refresh-secs")
                    .parse()
                    .unwrap_or_else(|e| usage_error(&format!("--refresh-secs: {e}")));
                i += 2;
            }
            other => usage_error(&format!("unknown option '{other}'")),
        }
    }
    flags
}

fn cmd_run(path: &str, flags: &Flags) {
    let program = load(path, flags.seed);
    if !flags.reuse && flags.warm_rtm.is_none() && flags.remote.is_none() {
        let mut vm = Vm::new(&program);
        let started = std::time::Instant::now();
        let outcome = vm
            .run_mode(flags.budget, flags.mode, &mut NullSink)
            .unwrap_or_else(|e| fail(&format!("runtime error: {e}")));
        let dt = started.elapsed();
        println!(
            "{}: {} instructions in {:.1} ms ({:.1} M instr/s, {} interpreter)",
            match outcome {
                RunOutcome::Halted { .. } => "halted",
                RunOutcome::BudgetExhausted { .. } => "budget exhausted",
            },
            outcome.executed(),
            dt.as_secs_f64() * 1e3,
            outcome.executed() as f64 / dt.as_secs_f64() / 1e6,
            match flags.mode {
                ExecMode::Fast => "predecoded",
                ExecMode::Observed => "observing",
            }
        );
        if flags.digest {
            println!("state digest: {:016x}", vm.state_digest());
        }
        return;
    }
    if flags.warm_rtm.is_some() && flags.remote.is_some() {
        usage_error("--warm-rtm and --remote are mutually exclusive warm-start sources");
    }
    let config = EngineConfig::paper(flags.rtm, flags.heuristic)
        .with_policy(flags.policy)
        .with_lfu_half_life(flags.lfu_half_life);
    let fingerprint = program_fingerprint(&program);
    let shape = program_shape_fingerprint(&program);
    // --remote warm-starts from (and publishes back to) a tlrd daemon.
    // The fetch goes by shape, so a daemon that has never seen this
    // exact program still warm-starts it from another data seed's
    // published state when the code matches.
    let remote = flags.remote.as_deref().map(|sock| {
        RemoteRegistry::connect(Path::new(sock)).unwrap_or_else(|e| fail(&format!("{sock}: {e}")))
    });
    let build = |warm: Option<&RtmSnapshot>| {
        match warm {
            Some(snapshot) => ThroughputEngine::new_warm(&program, config, snapshot),
            None => ThroughputEngine::new(&program, config),
        }
        .with_mode(flags.mode)
    };
    let mut engine = if let Some(remote) = &remote {
        let sock = flags.remote.as_deref().unwrap_or_default();
        match remote
            .get_by_shape(fingerprint, shape)
            .unwrap_or_else(|e| fail(&format!("{sock}: {e}")))
        {
            Some(snapshot) => {
                println!(
                    "warm start: {} traces from daemon at {sock}",
                    snapshot.len()
                );
                build(Some(&snapshot))
            }
            None => {
                println!("cold start: daemon at {sock} has no state for this program");
                build(None)
            }
        }
    } else if let Some(snap_path) = &flags.warm_rtm {
        let (_, snapshot) = load_snapshot(Path::new(snap_path), Some(fingerprint))
            .unwrap_or_else(|e| fail(&format!("{snap_path}: {e}")));
        println!(
            "warm start: {} traces imported from {snap_path}",
            snapshot.len()
        );
        build(Some(&snapshot))
    } else {
        build(None)
    };
    engine.set_source_run(flags.seed);
    let started = std::time::Instant::now();
    let stats = engine
        .run(flags.budget)
        .unwrap_or_else(|e| fail(&format!("engine error: {e}")));
    let dt = started.elapsed();
    if let Some(remote) = &remote {
        let mut snapshot = engine.export_rtm();
        snapshot.shape = shape;
        remote
            .publish(fingerprint, &snapshot)
            .unwrap_or_else(|e| fail(&format!("publish: {e}")));
        println!("published {} traces back to the daemon", snapshot.len());
    }
    println!(
        "{}: {} total instructions ({} executed, {} skipped)",
        if stats.halted {
            "halted"
        } else {
            "budget exhausted"
        },
        stats.total(),
        stats.executed,
        stats.skipped
    );
    println!(
        "reuse: {:.1}% of instructions via {} reuse ops (avg trace {:.1})",
        stats.pct_reused(),
        stats.reuse_ops,
        stats.avg_reused_trace_size()
    );
    println!(
        "throughput: {:.1} M instr/s ({} engine)",
        stats.total() as f64 / dt.as_secs_f64().max(1e-9) / 1e6,
        match flags.mode {
            ExecMode::Fast => "fast",
            ExecMode::Observed => "observed",
        }
    );
    println!(
        "RTM [{} {} {}]: {} lookups, {} hits, {} stores, {} evictions",
        flags.rtm.label(),
        flags.heuristic.label(),
        flags.policy.label(),
        stats.rtm.lookups,
        stats.rtm.hits,
        stats.rtm.stores,
        stats.rtm.evictions
    );
    if flags.digest {
        println!("state digest: {:016x}", engine.vm().state_digest());
    }
}

fn cmd_record(path: &str, flags: &Flags) {
    let out = flags
        .out
        .as_deref()
        .unwrap_or_else(|| fail("record needs --out TRACE"));
    let program = load(path, flags.seed);
    let fingerprint = program_fingerprint(&program);
    let mut vm = Vm::new(&program);
    let (outcome, count) = if FileFormat::detect(Path::new(out)) == FileFormat::Json {
        // The JSON debug format is one-shot, not streaming: collect in
        // memory, then write the whole document.
        let mut sink = CollectSink::default();
        let outcome = vm
            .run(flags.budget, &mut sink)
            .unwrap_or_else(|e| fail(&format!("runtime error: {e}")));
        let halted = matches!(outcome, RunOutcome::Halted { .. });
        save_trace(Path::new(out), fingerprint, &sink.records, halted)
            .unwrap_or_else(|e| fail(&format!("{out}: {e}")));
        (outcome, sink.records.len() as u64)
    } else {
        let mut sink = TraceWriter::create(Path::new(out), fingerprint)
            .unwrap_or_else(|e| fail(&format!("{out}: {e}")));
        let outcome = vm
            .run(flags.budget, &mut sink)
            .unwrap_or_else(|e| fail(&format!("runtime error: {e}")));
        sink.set_halted(matches!(outcome, RunOutcome::Halted { .. }));
        let count = sink
            .close()
            .unwrap_or_else(|e| fail(&format!("{out}: {e}")));
        (outcome, count)
    };
    println!(
        "{}: {count} instructions recorded to {out}",
        match outcome {
            RunOutcome::Halted { .. } => "halted",
            RunOutcome::BudgetExhausted { .. } => "budget exhausted",
        }
    );
}

fn cmd_replay(path: &str, flags: &Flags) {
    let trace = flags
        .trace
        .as_deref()
        .unwrap_or_else(|| fail("replay needs --trace TRACE"));
    let program = load(path, flags.seed);
    let fingerprint = program_fingerprint(&program);
    let stats = if FileFormat::detect(Path::new(trace)) == FileFormat::Json {
        let file = load_trace(Path::new(trace), Some(fingerprint))
            .unwrap_or_else(|e| fail(&format!("{trace}: {e}")));
        let mut source = MemorySource::from(file);
        replay(&program, &mut source)
            .unwrap_or_else(|e| fail(&format!("{trace}: {e}")))
            .0
    } else {
        let mut reader = TraceReader::open(Path::new(trace), Some(fingerprint))
            .unwrap_or_else(|e| fail(&format!("{trace}: {e}")));
        replay(&program, &mut reader)
            .unwrap_or_else(|e| fail(&format!("{trace}: {e}")))
            .0
    };
    println!(
        "{}: {} instructions replayed, no divergence",
        if stats.halted {
            "halted"
        } else {
            "budget exhausted"
        },
        stats.replayed
    );
}

fn cmd_snapshot(path: &str, flags: &Flags) {
    let out = flags
        .out
        .as_deref()
        .unwrap_or_else(|| fail("snapshot needs --out SNAP"));
    let program = load(path, flags.seed);
    let mut engine = TraceReuseEngine::new(
        &program,
        EngineConfig::paper(flags.rtm, flags.heuristic)
            .with_policy(flags.policy)
            .with_lfu_half_life(flags.lfu_half_life),
    );
    engine.set_source_run(flags.seed);
    let stats = engine
        .run(flags.budget)
        .unwrap_or_else(|e| fail(&format!("engine error: {e}")));
    let mut snapshot = engine
        .export_rtm()
        .unwrap_or_else(|| fail("this engine backend does not snapshot"));
    // Stamp the value-independent identity so shape-resolved warm
    // starts (registry `get_by_shape`, daemon `GetShape`) can find
    // this file from a data-varied run of the same code.
    snapshot.shape = program_shape_fingerprint(&program);
    save_snapshot(Path::new(out), program_fingerprint(&program), &snapshot)
        .unwrap_or_else(|e| fail(&format!("{out}: {e}")));
    println!(
        "{}: {:.1}% reused while collecting; {} traces saved to {out}",
        if stats.halted {
            "halted"
        } else {
            "budget exhausted"
        },
        stats.pct_reused(),
        snapshot.len()
    );
}

fn cmd_merge(inputs: &[String], flags: &Flags) {
    let out = flags
        .out
        .as_deref()
        .unwrap_or_else(|| fail("merge needs --out SNAP"));
    if inputs.len() < 2 {
        fail("merge needs at least two input snapshots");
    }
    // The first file pins the program fingerprint; every later file
    // must agree — pooling reuse state across *different* programs is
    // never valid.
    let (fingerprint, _) = peek_snapshot_identity(Path::new(&inputs[0]))
        .unwrap_or_else(|e| fail(&format!("{}: {e}", inputs[0])));
    let snapshots: Vec<RtmSnapshot> = inputs
        .iter()
        .map(|p| {
            load_snapshot(Path::new(p), Some(fingerprint))
                .unwrap_or_else(|e| fail(&format!("{p}: {e}")))
                .1
        })
        .collect();
    let outcome = RtmSnapshot::merge_detailed(&snapshots, flags.policy, flags.lfu_half_life)
        .unwrap_or_else(|e| fail(&format!("merge: {e}")));
    save_snapshot(Path::new(out), fingerprint, &outcome.snapshot)
        .unwrap_or_else(|e| fail(&format!("{out}: {e}")));
    println!(
        "merged {} snapshots ({} traces) into {out} [{}]: {} traces, \
         {} duplicates coalesced, {} conflicts resolved, {} evicted",
        inputs.len(),
        outcome.input_traces,
        flags.policy.label(),
        outcome.snapshot.len(),
        outcome.duplicates,
        outcome.conflicts,
        outcome.evictions
    );
    if outcome.conflicts > 0 {
        eprintln!(
            "warning: {} conflicting records (same PC, live-ins and length; different \
             outputs) — the inputs disagree about this program's execution; \
             newest input won",
            outcome.conflicts
        );
    }
}

fn cmd_compact(dir: &str, flags: &Flags) {
    use trace_reuse::serve::SpillKind;

    let registry = SnapshotRegistry::open(
        Path::new(dir),
        RegistryConfig {
            policy: flags.policy,
            lfu_half_life: flags.lfu_half_life,
            ..RegistryConfig::default()
        },
    )
    .unwrap_or_else(|e| fail(&format!("{dir}: {e}")));
    let fingerprints = registry.fingerprints();
    if fingerprints.is_empty() {
        fail(&format!("no snapshot files (*.tlrsnap) in {dir}"));
    }
    let mut compacted = 0usize;
    for &fingerprint in &fingerprints {
        let files = registry.paths(fingerprint).len();
        let outcome = registry
            .compact(fingerprint)
            .unwrap_or_else(|e| fail(&format!("{fingerprint:016x}: {e}")));
        let (SpillKind::Compacted, Some(base)) = (outcome.kind, outcome.path) else {
            println!("{fingerprint:016x}: already a lone base file, nothing to fold");
            continue;
        };
        let traces = registry
            .get(fingerprint)
            .unwrap_or_else(|e| fail(&format!("{fingerprint:016x}: {e}")))
            .map_or(0, |snap| snap.len());
        println!(
            "{fingerprint:016x}: folded {files} files ({traces} traces) into {} [{} pooling]",
            base.display(),
            flags.policy.label()
        );
        compacted += 1;
    }
    println!(
        "compacted {compacted} of {} programs in {dir}",
        fingerprints.len()
    );
}

/// Pinned parameters of the golden-trace corpus. The corpus is
/// canonical: regeneration must be byte-identical on every machine, so
/// the budget, seed and engine configuration are compiled in rather
/// than taken from flags (`--out` only moves the directory).
const GOLDEN_BUDGET: u64 = 3_000;
const GOLDEN_SEED: u64 = 20260611;
const GOLDEN_RTM: RtmConfig = RtmConfig::RTM_4K;
const GOLDEN_HEURISTIC: Heuristic = Heuristic::FixedExp(4);
/// JSON schema tag of the corpus manifest.
const GOLDEN_FORMAT: &str = "tlr-golden-v1";

/// Record the full corpus into `dir`: one binary trace per built-in
/// workload plus `manifest.json` carrying the expected replay counts
/// and, under every replacement policy, the architectural-state /
/// decision digests and the RTM's lookup, hit, value-reject, store and
/// eviction counts.
fn golden_generate(dir: &Path) {
    use std::collections::BTreeMap;
    use trace_reuse::persist::json::{self, Json};

    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", dir.display())));
    let hex = |v: u64| Json::Str(format!("{v:016x}"));
    let mut entries = BTreeMap::new();
    for w in tlr_workloads::all() {
        let program = w.program(GOLDEN_SEED);
        let fingerprint = program_fingerprint(&program);
        let shape = program_shape_fingerprint(&program);
        let trace_name = format!("{}.tlrtrace", w.name);
        let trace_path = dir.join(&trace_name);

        let mut vm = Vm::new(&program);
        let mut sink = TraceWriter::create(&trace_path, fingerprint)
            .unwrap_or_else(|e| fail(&format!("{}: {e}", trace_path.display())));
        let outcome = vm
            .run(GOLDEN_BUDGET, &mut sink)
            .unwrap_or_else(|e| fail(&format!("{}: runtime error: {e}", w.name)));
        let halted = matches!(outcome, RunOutcome::Halted { .. });
        sink.set_halted(halted);
        let records = sink
            .close()
            .unwrap_or_else(|e| fail(&format!("{}: {e}", trace_path.display())));

        let mut policies = BTreeMap::new();
        for &policy in &ReplacementPolicy::ALL {
            let config = EngineConfig::paper(GOLDEN_RTM, GOLDEN_HEURISTIC).with_policy(policy);
            let mut engine = TraceReuseEngine::new(&program, config);
            engine.enable_tap_with_cap(usize::try_from(GOLDEN_BUDGET).unwrap_or(usize::MAX));
            engine
                .run(GOLDEN_BUDGET)
                .unwrap_or_else(|e| fail(&format!("{} [{policy}]: engine error: {e}", w.name)));
            let mut digests = BTreeMap::new();
            digests.insert("state".to_string(), hex(engine.vm().state_digest()));
            digests.insert(
                "decisions".to_string(),
                hex(engine.tap().expect("tap was enabled").digest()),
            );
            let rtm = engine.stats().rtm;
            let counters = [
                ("lookups", rtm.lookups),
                ("hits", rtm.hits),
                ("value_rejects", rtm.value_rejects),
                ("stores", rtm.stores),
                ("evictions", rtm.evictions),
            ];
            digests.insert(
                "rtm".to_string(),
                Json::Obj(
                    counters
                        .into_iter()
                        .map(|(name, n)| (name.to_string(), Json::Num(n)))
                        .collect(),
                ),
            );
            policies.insert(policy.label().to_string(), Json::Obj(digests));
        }

        let mut entry = BTreeMap::new();
        entry.insert("trace".to_string(), Json::Str(trace_name));
        entry.insert("fingerprint".to_string(), hex(fingerprint));
        entry.insert("shape".to_string(), hex(shape));
        entry.insert("records".to_string(), Json::Num(records));
        entry.insert("halted".to_string(), Json::Bool(halted));
        entry.insert("vm_digest".to_string(), hex(vm.state_digest()));
        entry.insert("policies".to_string(), Json::Obj(policies));
        entries.insert(w.name.to_string(), Json::Obj(entry));
    }
    let mut config = BTreeMap::new();
    config.insert("budget".to_string(), Json::Num(GOLDEN_BUDGET));
    config.insert("seed".to_string(), Json::Num(GOLDEN_SEED));
    config.insert("rtm".to_string(), Json::Str(GOLDEN_RTM.label().to_string()));
    config.insert(
        "heuristic".to_string(),
        Json::Str(GOLDEN_HEURISTIC.label().to_string()),
    );
    let mut doc = BTreeMap::new();
    doc.insert("format".to_string(), Json::Str(GOLDEN_FORMAT.to_string()));
    doc.insert("config".to_string(), Json::Obj(config));
    doc.insert("entries".to_string(), Json::Obj(entries));
    let manifest = dir.join("manifest.json");
    std::fs::write(&manifest, json::to_string_pretty(&Json::Obj(doc)))
        .unwrap_or_else(|e| fail(&format!("{}: {e}", manifest.display())));
}

fn cmd_golden(flags: &Flags) {
    let corpus = flags.out.clone().unwrap_or_else(|| "tests/golden".into());
    let corpus = Path::new(&corpus);
    if flags.regen {
        golden_generate(corpus);
        println!(
            "golden corpus regenerated in {} ({} workloads, budget {}, seed {})",
            corpus.display(),
            tlr_workloads::all().len(),
            GOLDEN_BUDGET,
            GOLDEN_SEED
        );
        return;
    }
    // Staleness gate: regenerate into a scratch directory and
    // byte-compare, so code drift that changes traces or digests is
    // caught even when no test asserts on the drifted value.
    let fresh = std::env::temp_dir().join(format!("tlr-golden-check-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fresh);
    golden_generate(&fresh);
    let names = |dir: &Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", dir.display())))
            .map(|entry| {
                entry
                    .unwrap_or_else(|e| fail(&format!("{}: {e}", dir.display())))
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|n| n == "manifest.json" || n.ends_with(".tlrtrace"))
            .collect();
        names.sort();
        names
    };
    let expected = names(&fresh);
    let checked_in = names(corpus);
    let mut drifted = Vec::new();
    for name in &expected {
        if !checked_in.contains(name) {
            drifted.push(format!("{name}: missing from {}", corpus.display()));
            continue;
        }
        let fresh_bytes =
            std::fs::read(fresh.join(name)).unwrap_or_else(|e| fail(&format!("{name}: {e}")));
        let corpus_bytes =
            std::fs::read(corpus.join(name)).unwrap_or_else(|e| fail(&format!("{name}: {e}")));
        if fresh_bytes != corpus_bytes {
            drifted.push(format!("{name}: differs from regeneration"));
        }
    }
    for name in &checked_in {
        if !expected.contains(name) {
            drifted.push(format!(
                "{name}: stale (regeneration no longer produces it)"
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&fresh);
    if drifted.is_empty() {
        println!(
            "golden corpus up to date ({} files match regeneration)",
            expected.len()
        );
    } else {
        for line in &drifted {
            eprintln!("golden drift: {line}");
        }
        fail(&format!(
            "golden corpus is stale ({} file(s) drifted) — run `tlrsim golden --regen` \
             and commit the result",
            drifted.len()
        ));
    }
}

fn cmd_serve(flags: &Flags) {
    let dir = flags
        .snapshots
        .as_deref()
        .unwrap_or_else(|| fail("serve needs --snapshots DIR"));
    let registry = SnapshotRegistry::open(
        Path::new(dir),
        RegistryConfig {
            policy: flags.policy,
            lfu_half_life: flags.lfu_half_life,
            ..RegistryConfig::default()
        },
    )
    .unwrap_or_else(|e| fail(&format!("{dir}: {e}")));
    println!(
        "registry over {dir}: snapshots for {} programs [{} pooling]",
        registry.fingerprints().len(),
        flags.policy.label()
    );
    // Both serve modes share the registry and its background refresh
    // ticker; they differ only in who the clients are (other processes
    // over the socket vs workload threads in this process).
    let registry = std::sync::Arc::new(registry);
    let _ticker = (flags.refresh_secs > 0).then(|| {
        RefreshTicker::spawn(
            std::sync::Arc::clone(&registry),
            std::time::Duration::from_secs(flags.refresh_secs),
        )
    });
    // --listen: host the registry as the tlrd daemon instead of driving
    // workloads in this process. Runs until killed (or until a handle
    // from the library API shuts it down); clients connect with
    // `tlrsim run --remote SOCK` or `tlr_serve::RemoteRegistry`.
    if let Some(sock) = flags.listen.as_deref() {
        let daemon = Daemon::bind(Path::new(sock), registry)
            .unwrap_or_else(|e| fail(&format!("{sock}: {e}")));
        println!(
            "tlrd listening on {sock} (protocol v{}, refresh every {}s)",
            tlr_serve::PROTOCOL_VERSION,
            flags.refresh_secs
        );
        daemon
            .run()
            .unwrap_or_else(|e| fail(&format!("daemon: {e}")));
        return;
    }
    let registry = registry.as_ref();
    let config = EngineConfig::paper(flags.rtm, flags.heuristic)
        .with_policy(flags.policy)
        .with_lfu_half_life(flags.lfu_half_life);
    let workloads = tlr_workloads::all();
    let threads = if flags.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(workloads.len())
    } else {
        flags.threads.min(workloads.len())
    }
    .max(1);

    let work = std::sync::Mutex::new(workloads);
    let registry_ref = &registry;
    let lines = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let Some(w) = work.lock().unwrap().pop() else {
                    break;
                };
                let program = w.program(flags.seed);
                let fingerprint = program_fingerprint(&program);
                let shape = program_shape_fingerprint(&program);
                // Shape-resolved fetch: a directory populated by runs
                // of the same workloads under a *different* seed still
                // warm-starts this one.
                let warm = registry_ref
                    .get_by_shape(fingerprint, shape)
                    .unwrap_or_else(|e| fail(&format!("{}: {e}", w.name)));
                let mut engine = match &warm {
                    Some(snapshot) => TraceReuseEngine::new_warm(&program, config, snapshot),
                    None => TraceReuseEngine::new(&program, config),
                };
                engine.set_source_run(flags.seed);
                let stats = engine
                    .run(flags.budget)
                    .unwrap_or_else(|e| fail(&format!("{}: engine error: {e}", w.name)));
                let mut spilled = String::new();
                if let Some(mut snapshot) = engine.export_rtm() {
                    snapshot.shape = shape;
                    registry_ref
                        .publish(fingerprint, &snapshot)
                        .unwrap_or_else(|e| fail(&format!("{}: publish: {e}", w.name)));
                    if flags.save {
                        // Spill the published entry back to the
                        // directory incrementally: only the PC groups
                        // that changed since the last spill go to disk,
                        // as a delta segment next to the base file.
                        use trace_reuse::serve::SpillKind;
                        let outcome = registry_ref
                            .spill(fingerprint)
                            .unwrap_or_else(|e| fail(&format!("{}: spill: {e}", w.name)));
                        spilled = match outcome.kind {
                            SpillKind::NoChange => " [spill: no change]".into(),
                            SpillKind::Base => {
                                format!(" [spill: base, {} B]", outcome.bytes_written)
                            }
                            SpillKind::Delta => format!(
                                " [spill: delta, {} groups, {} B]",
                                outcome.delta_groups, outcome.bytes_written
                            ),
                            SpillKind::Compacted => format!(
                                " [spill: compacted {} files, {} B]",
                                outcome.removed_files, outcome.bytes_written
                            ),
                        };
                    }
                }
                lines.lock().unwrap().push(format!(
                    "{:10} {:16x} {}: {:5.1}% reused ({} reuse ops){spilled}",
                    w.name,
                    fingerprint,
                    if warm.is_some() { "warm" } else { "cold" },
                    stats.pct_reused(),
                    stats.reuse_ops
                ));
            });
        }
    });
    let mut lines = lines.into_inner().unwrap();
    lines.sort();
    for line in lines {
        println!("{line}");
    }
    let stats = registry_ref.stats();
    println!(
        "registry: {} resident, {} hits, {} misses, {} refreshes, {} evicted, {} unknown, \
         {} image hits / {} builds / {} invalidations",
        stats.resident,
        stats.hits,
        stats.misses,
        stats.refreshes,
        stats.evicted,
        stats.unknown,
        stats.image_hits,
        stats.image_builds,
        stats.image_invalidations
    );
}

fn cmd_disasm(path: &str, flags: &Flags) {
    let program = load(path, flags.seed);
    print!("{}", program.disassemble());
    if !program.data.is_empty() {
        println!("; data image: {} initialized words", program.data.len());
    }
}

fn cmd_analyze(path: &str, flags: &Flags) {
    let program = load(path, flags.seed);
    let mut vm = Vm::new(&program);
    let mut sink = LimitStudySink::new(
        tlr_core::LimitConfig {
            window: flags.window,
            ..Default::default()
        },
        &Alpha21164,
    );
    vm.run(flags.budget, &mut sink)
        .unwrap_or_else(|e| fail(&format!("runtime error: {e}")));
    let res = sink.result();
    println!("analyzed {} dynamic instructions", res.total_instrs);
    println!("instruction-level reusability: {:.1}%", res.reusability_pct);
    println!(
        "base IPC: {:.2} (infinite window) / {:.2} (W={})",
        res.base_inf.ipc, res.base_win.ipc, flags.window
    );
    println!(
        "speed-up @1-cycle reuse: ILR {:.2}/{:.2}, TLR {:.2}/{:.2} (infinite / W={})",
        res.ilr_speedup_inf(1),
        res.ilr_speedup_win(1),
        res.tlr_speedup_inf(1),
        res.tlr_speedup_win(1),
        flags.window
    );
    let ts = &res.trace_stats;
    println!(
        "maximal reusable traces: {} (avg {:.1} instrs, {:.1} in / {:.1} out values)",
        ts.traces,
        ts.avg_size(),
        ts.avg_inputs(),
        ts.avg_outputs()
    );
}

fn cmd_decant(path: &str, flags: &Flags) {
    use trace_reuse::persist::json::{self, Json};
    use trace_reuse::stats::Table;

    let program = load(path, flags.seed);
    let config = EngineConfig::paper(flags.rtm, flags.heuristic)
        .with_policy(flags.policy)
        .with_lfu_half_life(flags.lfu_half_life);
    let mut engine = TraceReuseEngine::new(&program, config);
    engine.set_source_run(flags.seed);
    // One decision covers at least one instruction, so a budget-sized
    // cap never truncates the tap.
    engine.enable_tap_with_cap(usize::try_from(flags.budget).unwrap_or(usize::MAX));
    let stats = engine
        .run(flags.budget)
        .unwrap_or_else(|e| fail(&format!("engine error: {e}")));
    let log = engine.tap().expect("tap was enabled");
    let attribution = trace_reuse::decant::decant(log);
    if let Err(msg) = attribution.verify(log) {
        fail(&format!(
            "attribution failed to conserve the log's totals: {msg}"
        ));
    }
    println!(
        "{}: {} total instructions ({} executed, {} skipped, {:.1}% reused) \
         [{} {} {}]",
        if stats.halted {
            "halted"
        } else {
            "budget exhausted"
        },
        stats.total(),
        stats.executed,
        stats.skipped,
        stats.pct_reused(),
        flags.rtm.label(),
        flags.heuristic.label(),
        flags.policy.label()
    );
    println!();
    println!("attribution by opcode class:");
    println!("{}", attribution.class_table(&Alpha21164).to_text());
    println!("attribution by loop structure:");
    println!("{}", attribution.loop_table().to_text());
    let weights = attribution.class_weights(&Alpha21164);
    let weight_list: Vec<String> = tlr_isa::OpClass::ALL
        .iter()
        .map(|&c| format!("{}={}", c.label(), weights.get(c)))
        .collect();
    println!("measured class weights: {}", weight_list.join(" "));
    // Greppable conservation line — the CI smoke test asserts on it.
    println!(
        "decant totals: exact (executed {}, skipped {}, reuse ops {}, \
         unattributed {}, dropped {})",
        attribution.executed,
        attribution.skipped,
        attribution.reuse_ops,
        attribution.unattributed,
        attribution.dropped
    );
    let Some(out) = flags.out.as_deref() else {
        return;
    };
    let table_json = |table: &Table| -> Json {
        let mut obj = std::collections::BTreeMap::new();
        obj.insert(
            "headers".into(),
            Json::Arr(
                table
                    .headers()
                    .iter()
                    .map(|h| Json::Str(h.clone()))
                    .collect(),
            ),
        );
        obj.insert(
            "rows".into(),
            Json::Arr(
                table
                    .rows()
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(|cell| Json::Str(cell.clone())).collect()))
                    .collect(),
            ),
        );
        Json::Obj(obj)
    };
    let mut totals = std::collections::BTreeMap::new();
    totals.insert("executed".into(), Json::Num(attribution.executed));
    totals.insert("skipped".into(), Json::Num(attribution.skipped));
    totals.insert("reuse_ops".into(), Json::Num(attribution.reuse_ops));
    totals.insert("unattributed".into(), Json::Num(attribution.unattributed));
    totals.insert("dropped".into(), Json::Num(attribution.dropped));
    let mut weight_obj = std::collections::BTreeMap::new();
    for &class in &tlr_isa::OpClass::ALL {
        weight_obj.insert(
            class.label().to_string(),
            Json::Num(u64::from(weights.get(class))),
        );
    }
    let mut doc = std::collections::BTreeMap::new();
    doc.insert("format".into(), Json::Str("tlr-decant-v1".into()));
    doc.insert("program".into(), Json::Str(path.into()));
    doc.insert("budget".into(), Json::Num(flags.budget));
    doc.insert("policy".into(), Json::Str(flags.policy.label().into()));
    doc.insert("totals".into(), Json::Obj(totals));
    doc.insert(
        "classes".into(),
        table_json(&attribution.class_table(&Alpha21164)),
    );
    doc.insert("loops".into(), table_json(&attribution.loop_table()));
    doc.insert("class_weights".into(), Json::Obj(weight_obj));
    std::fs::write(out, json::to_string_pretty(&Json::Obj(doc)))
        .unwrap_or_else(|e| fail(&format!("{out}: {e}")));
    println!("wrote attribution to {out}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage_error("no subcommand given")
    };
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        usage();
    }
    // Leading positional arguments (program / snapshot files), then flags.
    let positional: Vec<String> = rest
        .iter()
        .take_while(|a| !a.starts_with('-'))
        .cloned()
        .collect();
    let flags = parse_flags(&rest[positional.len()..]);
    match (cmd.as_str(), positional.as_slice()) {
        ("run", [file]) => cmd_run(file, &flags),
        ("disasm", [file]) => cmd_disasm(file, &flags),
        ("analyze", [file]) => cmd_analyze(file, &flags),
        ("decant", [file]) => cmd_decant(file, &flags),
        ("record", [file]) => cmd_record(file, &flags),
        ("replay", [file]) => cmd_replay(file, &flags),
        ("snapshot", [file]) => cmd_snapshot(file, &flags),
        ("merge", inputs) if !inputs.is_empty() => cmd_merge(inputs, &flags),
        ("compact", [dir]) => cmd_compact(dir, &flags),
        ("golden", []) => cmd_golden(&flags),
        ("serve", []) => cmd_serve(&flags),
        ("run" | "disasm" | "analyze" | "decant" | "record" | "replay" | "snapshot", files) => {
            usage_error(&format!(
                "'{cmd}' takes exactly one program file, got {}",
                files.len()
            ))
        }
        ("merge", []) => usage_error("'merge' needs at least one input snapshot"),
        ("compact", dirs) => usage_error(&format!(
            "'compact' takes exactly one snapshot directory, got {}",
            dirs.len()
        )),
        ("serve", files) => usage_error(&format!(
            "'serve' takes no positional arguments, got {} (use --snapshots DIR)",
            files.len()
        )),
        ("golden", files) => usage_error(&format!(
            "'golden' takes no positional arguments, got {} (use --out DIR)",
            files.len()
        )),
        _ => usage_error(&format!("unknown subcommand '{cmd}'")),
    }
}
