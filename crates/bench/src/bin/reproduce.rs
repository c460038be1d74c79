//! `reproduce` — regenerate every table and figure of the paper.
//!
//! ```text
//! reproduce [OPTIONS] [TARGETS...]
//!
//! TARGETS: fig3 fig4 fig5 fig6 fig7 fig8 io fig9 ablation pipeline validbit schemes
//!          warmstart fleet policy daemon decant throughput serveperf crossseed all
//!          (default: all)
//!
//! OPTIONS:
//!   --budget N    dynamic instructions per benchmark   (default 400000)
//!   --seed N      workload seed                        (default 20260611)
//!   --window N    finite window size                   (default 256)
//!   --threads N   worker threads                       (default: all cores)
//!   --out DIR     write CSVs here                      (default results/)
//!   --json OUT    also write every produced table to OUT as one
//!                 machine-readable JSON document (config + targets)
//!   --charts      also print ASCII bar charts
//!   --check       exit nonzero on a regression (warmstart, fleet, policy,
//!                 daemon, decant, throughput, serveperf, crossseed)
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use tlr_bench::figures;
use tlr_bench::{run_engine_grid, run_limit_studies, BenchResult, HarnessConfig};
use tlr_core::{Heuristic, RtmConfig};
use tlr_persist::json::{self, Json};
use tlr_stats::Table;

struct Options {
    cfg: HarnessConfig,
    targets: Vec<String>,
    out_dir: PathBuf,
    json_out: Option<PathBuf>,
    charts: bool,
    check: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut cfg = HarnessConfig::default();
    let mut targets = Vec::new();
    let mut out_dir = PathBuf::from("results");
    let mut json_out = None;
    let mut charts = false;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--budget" => cfg.budget = value("--budget")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => cfg.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--window" => cfg.window = value("--window")?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => cfg.threads = value("--threads")?.parse().map_err(|e| format!("{e}"))?,
            "--out" => out_dir = PathBuf::from(value("--out")?),
            "--json" => json_out = Some(PathBuf::from(value("--json")?)),
            "--charts" => charts = true,
            "--check" => check = true,
            "--help" | "-h" => {
                println!("{}", HELP);
                std::process::exit(0);
            }
            t if !t.starts_with('-') => targets.push(t.to_string()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    Ok(Options {
        cfg,
        targets,
        out_dir,
        json_out,
        charts,
        check,
    })
}

const HELP: &str = "reproduce [--budget N] [--seed N] [--window N] [--threads N] [--out DIR] [--json OUT] [--charts] [--check] \
                    [fig3|fig4|fig5|fig6|fig7|fig8|io|fig9|ablation|pipeline|validbit|schemes|warmstart|fleet|policy|daemon|decant|throughput|serveperf|crossseed|all ...]";

/// JSON schema tag of the `--json` results document.
const RESULTS_FORMAT: &str = "tlr-bench-v1";

/// Tables produced during this invocation, for `--json` emission.
#[derive(Default)]
struct Results {
    tables: Vec<(String, String, Table)>,
}

impl Results {
    /// The machine-readable results document: run configuration plus
    /// every produced table's headers and rows, keyed by target name.
    fn to_json(&self, cfg: &HarnessConfig) -> Json {
        let mut targets = BTreeMap::new();
        for (name, title, table) in &self.tables {
            let mut obj = BTreeMap::new();
            obj.insert("title".into(), Json::Str(title.clone()));
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
                        .map(|row| {
                            Json::Arr(row.iter().map(|cell| Json::Str(cell.clone())).collect())
                        })
                        .collect(),
                ),
            );
            targets.insert(name.clone(), Json::Obj(obj));
        }
        let mut config = BTreeMap::new();
        config.insert("budget".into(), Json::Num(cfg.budget));
        config.insert("seed".into(), Json::Num(cfg.seed));
        config.insert("window".into(), Json::Num(cfg.window as u64));
        let mut doc = BTreeMap::new();
        doc.insert("format".into(), Json::Str(RESULTS_FORMAT.into()));
        doc.insert("config".into(), Json::Obj(config));
        doc.insert("targets".into(), Json::Obj(targets));
        Json::Obj(doc)
    }
}

fn emit(out_dir: &PathBuf, doc: &mut Results, name: &str, title: &str, table: &Table) {
    println!("== {title} ==");
    println!("{}", table.to_text());
    doc.tables
        .push((name.to_string(), title.to_string(), table.clone()));
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("warning: cannot create {}: {e}", out_dir.display());
        return;
    }
    let path = out_dir.join(format!("{name}.csv"));
    if let Err(e) = std::fs::write(&path, table.to_csv()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn wants(targets: &[String], t: &str) -> bool {
    targets.iter().any(|x| x == t || x == "all")
}

fn limit_figures(opts: &Options, doc: &mut Results, results: &[BenchResult]) {
    let t = &opts.targets;
    if wants(t, "fig3") {
        emit(
            &opts.out_dir,
            doc,
            "fig3",
            "Figure 3: instruction-level reusability (perfect engine, % of dynamic instructions)",
            &figures::fig3(results),
        );
        if opts.charts {
            println!(
                "{}",
                figures::chart("reusability %", results, |r| r.limit.reusability_pct)
            );
        }
    }
    if wants(t, "fig4") {
        emit(
            &opts.out_dir,
            doc,
            "fig4a",
            "Figure 4a: ILR speed-up, infinite window, 1-cycle reuse latency",
            &figures::fig4a(results),
        );
        emit(
            &opts.out_dir,
            doc,
            "fig4b",
            "Figure 4b: ILR speed-up vs reuse latency (infinite window, averages)",
            &figures::fig4b(results),
        );
    }
    if wants(t, "fig5") {
        emit(
            &opts.out_dir,
            doc,
            "fig5a",
            "Figure 5a: ILR speed-up, 256-entry window, 1-cycle reuse latency",
            &figures::fig5a(results),
        );
        emit(
            &opts.out_dir,
            doc,
            "fig5b",
            "Figure 5b: ILR speed-up vs reuse latency (256-entry window, averages)",
            &figures::fig5b(results),
        );
    }
    if wants(t, "fig6") {
        emit(
            &opts.out_dir,
            doc,
            "fig6a",
            "Figure 6a: TLR speed-up, infinite window, 1-cycle reuse latency",
            &figures::fig6a(results),
        );
        emit(
            &opts.out_dir,
            doc,
            "fig6b",
            "Figure 6b: TLR speed-up, 256-entry window, 1-cycle reuse latency",
            &figures::fig6b(results),
        );
        if opts.charts {
            println!(
                "{}",
                figures::chart("TLR speed-up (W=256)", results, |r| r
                    .limit
                    .tlr_speedup_win(1))
            );
        }
    }
    if wants(t, "fig7") {
        emit(
            &opts.out_dir,
            doc,
            "fig7",
            "Figure 7: average trace size (maximal reusable traces)",
            &figures::fig7(results),
        );
    }
    if wants(t, "fig8") {
        emit(
            &opts.out_dir,
            doc,
            "fig8a",
            "Figure 8a: TLR speed-up vs constant reuse latency (W=256, averages)",
            &figures::fig8a(results),
        );
        emit(
            &opts.out_dir,
            doc,
            "fig8b",
            "Figure 8b: TLR speed-up vs proportional latency K x (inputs+outputs) (W=256)",
            &figures::fig8b(results),
        );
    }
    if wants(t, "io") {
        emit(
            &opts.out_dir,
            doc,
            "io",
            "Section 4.5: per-trace I/O and bandwidth per reused instruction",
            &figures::io_table(results),
        );
    }
    if wants(t, "ablation") {
        emit(
            &opts.out_dir,
            doc,
            "ablation_slots",
            "Ablation: window slots per reused trace (TLR, W=256, 1-cycle latency)",
            &figures::ablation_slots(results),
        );
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{HELP}");
            std::process::exit(2);
        }
    };
    let needs_limits = [
        "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "io", "ablation",
    ]
    .iter()
    .any(|t| wants(&opts.targets, t));
    let needs_engine = wants(&opts.targets, "fig9");
    let mut results_doc = Results::default();
    let doc = &mut results_doc;

    println!(
        "trace-level reuse reproduction | budget {} instrs/benchmark, seed {}, window {}",
        tlr_util::group_digits(opts.cfg.budget),
        opts.cfg.seed,
        opts.cfg.window
    );
    println!();

    if needs_limits {
        let start = std::time::Instant::now();
        let results = run_limit_studies(&opts.cfg);
        eprintln!("[limit studies: {:?}]", start.elapsed());
        limit_figures(&opts, doc, &results);
    }

    if wants(&opts.targets, "validbit") {
        let start = std::time::Instant::now();
        let table = figures::validbit_table(&opts.cfg);
        eprintln!("[valid-bit comparison: {:?}]", start.elapsed());
        emit(
            &opts.out_dir,
            doc,
            "validbit",
            "Reuse-test comparison (Section 3.3): value comparison vs valid bit + invalidation",
            &table,
        );
    }

    if wants(&opts.targets, "schemes") {
        let start = std::time::Instant::now();
        let table = figures::schemes_table(&opts.cfg);
        eprintln!("[scheme comparison: {:?}]", start.elapsed());
        emit(
            &opts.out_dir,
            doc,
            "schemes",
            "Instruction-reuse schemes (Section 2, Sodani & Sohi): Sv values vs Sn names",
            &table,
        );
    }

    if wants(&opts.targets, "pipeline") {
        let start = std::time::Instant::now();
        let table = figures::pipeline_ablation(&opts.cfg);
        eprintln!("[pipeline ablation: {:?}]", start.elapsed());
        emit(
            &opts.out_dir,
            doc,
            "pipeline_ablation",
            "Pipeline ablation (Section 3 model): fetch-skip and window-bypass decomposition",
            &table,
        );
    }

    if wants(&opts.targets, "warmstart") {
        let start = std::time::Instant::now();
        let cells = tlr_bench::run_warm_start(&opts.cfg, RtmConfig::RTM_4K, Heuristic::FixedExp(4));
        eprintln!("[warm start: {:?}]", start.elapsed());
        emit(
            &opts.out_dir,
            doc,
            "warmstart",
            "Warm start (ours): cold vs RTM-snapshot-seeded engine, % of instructions reused",
            &tlr_bench::warm_start_table(&cells),
        );
        if opts.check {
            if let Err(msg) = tlr_bench::check_warm_start(&cells) {
                eprintln!("error: warm-start regression: {msg}");
                std::process::exit(1);
            }
            println!("warmstart check: ok");
        }
    }

    if wants(&opts.targets, "fleet") {
        let start = std::time::Instant::now();
        let cells = tlr_bench::run_fleet(&opts.cfg, RtmConfig::RTM_32K);
        eprintln!("[fleet: {:?}]", start.elapsed());
        emit(
            &opts.out_dir,
            doc,
            "fleet",
            "Fleet pooling (ours): solo-warm vs merged-warm engine, % of instructions reused",
            &tlr_bench::fleet_table(&cells),
        );
        if opts.check {
            if let Err(msg) = tlr_bench::check_fleet(&cells) {
                eprintln!("error: fleet regression: {msg}");
                std::process::exit(1);
            }
            println!("fleet check: ok");
        }
    }

    if wants(&opts.targets, "policy") {
        let start = std::time::Instant::now();
        let cells = tlr_bench::run_policy_sweep(&opts.cfg, RtmConfig::RTM_32K);
        eprintln!("[policy sweep: {:?}]", start.elapsed());
        emit(
            &opts.out_dir,
            doc,
            "policy",
            "Replacement-policy sweep (ours): LRU vs LFU vs cost/benefit, cold and merged-warm at RTM 32K",
            &tlr_bench::policy_table(&cells),
        );
        if opts.check {
            if let Err(msg) = tlr_bench::check_policy(&cells) {
                eprintln!("error: policy regression: {msg}");
                std::process::exit(1);
            }
            println!("policy check: ok");
        }
    }

    if wants(&opts.targets, "daemon") {
        let start = std::time::Instant::now();
        // Real client processes when the tlrsim binary sits next to
        // this one (a normal cargo build); in-thread clients otherwise.
        let tlrsim = tlr_bench::sibling_tlrsim();
        if tlrsim.is_none() {
            eprintln!(
                "[daemon: no tlrsim binary found next to reproduce; using in-thread clients]"
            );
        }
        let outcome = tlr_bench::run_daemon_bench(&opts.cfg, RtmConfig::RTM_32K, tlrsim.as_deref());
        eprintln!("[daemon: {:?}]", start.elapsed());
        emit(
            &opts.out_dir,
            doc,
            "daemon",
            "Daemon serving (ours): concurrent clients warm-started from one tlrd vs the in-process registry path",
            &tlr_bench::daemon_table(&outcome),
        );
        if opts.check {
            if let Err(msg) = tlr_bench::check_daemon(&outcome) {
                eprintln!("error: daemon regression: {msg}");
                std::process::exit(1);
            }
            println!("daemon check: ok");
        }
    }

    if wants(&opts.targets, "decant") {
        let start = std::time::Instant::now();
        let cells = tlr_bench::run_decant(&opts.cfg, RtmConfig::RTM_32K);
        eprintln!("[decant: {:?}]", start.elapsed());
        emit(
            &opts.out_dir,
            doc,
            "decant",
            "Reuse attribution (ours): per-workload decant of the decision tap by class and loop structure",
            &tlr_bench::decant_table(&cells),
        );
        emit(
            &opts.out_dir,
            doc,
            "decant_classes",
            "Reuse attribution (ours): per-opcode-class split, suite aggregate per policy",
            &tlr_bench::decant_class_table(&cells),
        );
        emit(
            &opts.out_dir,
            doc,
            "decant_loops",
            "Reuse attribution (ours): per-loop-structure split, suite aggregate per policy",
            &tlr_bench::decant_loop_table(&cells),
        );
        if opts.check {
            if let Err(msg) = tlr_bench::check_decant(&cells) {
                eprintln!("error: decant regression: {msg}");
                std::process::exit(1);
            }
            println!("decant check: ok");
        }
    }

    if wants(&opts.targets, "throughput") {
        let start = std::time::Instant::now();
        let cells = tlr_bench::run_throughput(&opts.cfg, RtmConfig::RTM_4K);
        eprintln!("[throughput: {:?}]", start.elapsed());
        emit(
            &opts.out_dir,
            doc,
            "throughput",
            "Simulator throughput (ours): observing interpreter vs predecoded fast path, reference vs throughput engine (MIPS)",
            &tlr_bench::throughput_table(&cells),
        );
        if opts.check {
            if let Err(msg) = tlr_bench::check_throughput(&cells) {
                eprintln!("error: throughput regression: {msg}");
                std::process::exit(1);
            }
            println!("throughput check: ok");
        }
    }

    if wants(&opts.targets, "serveperf") {
        let start = std::time::Instant::now();
        let outcome = tlr_bench::run_serveperf(&opts.cfg, RtmConfig::RTM_32K);
        eprintln!("[serveperf: {:?}]", start.elapsed());
        emit(
            &opts.out_dir,
            doc,
            "serveperf_latency",
            "Serving path (ours): daemon Get latency, per-request re-serialization vs cached image",
            &tlr_bench::serveperf_latency_table(&outcome.cells),
        );
        emit(
            &opts.out_dir,
            doc,
            "serveperf_writes",
            "Serving path (ours): publish-back write amplification, full rewrite vs delta spill",
            &tlr_bench::serveperf_write_table(&outcome.cells),
        );
        emit(
            &opts.out_dir,
            doc,
            "serveperf_equality",
            "Serving path (ours): base + delta split-load vs full-snapshot load, per policy",
            &tlr_bench::serveperf_equality_table(&outcome.equality),
        );
        if opts.check {
            if let Err(msg) = tlr_bench::check_serveperf(&outcome) {
                eprintln!("error: serveperf regression: {msg}");
                std::process::exit(1);
            }
            println!("serveperf check: ok");
        }
    }

    if wants(&opts.targets, "crossseed") {
        let start = std::time::Instant::now();
        let cells = tlr_bench::run_crossseed(&opts.cfg, RtmConfig::RTM_4K, Heuristic::FixedExp(4));
        eprintln!("[cross-seed: {:?}]", start.elapsed());
        emit(
            &opts.out_dir,
            doc,
            "crossseed",
            "Cross-seed warm start (ours): cold vs solo-warm vs shape-resolved cross-warm, % of instructions reused",
            &tlr_bench::crossseed_table(&cells),
        );
        if opts.check {
            if let Err(msg) = tlr_bench::check_crossseed(&cells) {
                eprintln!("error: cross-seed regression: {msg}");
                std::process::exit(1);
            }
            println!("crossseed check: ok");
        }
    }

    if needs_engine {
        let start = std::time::Instant::now();
        let rtms = RtmConfig::PAPER_SWEEP;
        let heuristics = Heuristic::paper_sweep();
        let cells = run_engine_grid(&opts.cfg, &rtms, &heuristics);
        eprintln!("[engine grid: {:?}]", start.elapsed());
        emit(
            &opts.out_dir,
            doc,
            "fig9a",
            "Figure 9a: % of dynamic instructions reused (finite RTM, average of 14 benchmarks)",
            &figures::fig9a(&cells, &rtms, &heuristics),
        );
        emit(
            &opts.out_dir,
            doc,
            "fig9b",
            "Figure 9b: average reused-trace size (finite RTM, average of 14 benchmarks)",
            &figures::fig9b(&cells, &rtms, &heuristics),
        );
    }

    if let Some(path) = &opts.json_out {
        let text = json::to_string_pretty(&results_doc.to_json(&opts.cfg));
        match std::fs::write(path, text) {
            Ok(()) => println!(
                "wrote {} target table(s) to {}",
                results_doc.tables.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
