//! `tlrbench` — the workspace benchmark.
//!
//! ```text
//! tlrbench --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
//! tlrbench list                       every metric with unit and direction
//! tlrbench manifest [--write PATH]    render BENCHMARK.json
//! ```
//!
//! A run prints its report, then one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}`.
//! A failed correctness gate prints the mismatch (workload and kernel) on
//! stderr and exits 1.

use std::path::PathBuf;
use std::process::ExitCode;

use tlrbench::manifest::{self, MetricDef, END_TO_END, PER_LAYER};
use tlrbench::{Options, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: tlrbench --workload cold-collect|warm-serve|daemon-fleet --seed N \
         --seconds S --trace 0|1 [--quick] [--out DIR]\n       tlrbench list\n       \
         tlrbench manifest [--write PATH]"
    );
    ExitCode::from(2)
}

/// glibc's malloc hands threads arenas of their own when they contend, so
/// the process high-water mark depends on how the daemon's per-connection
/// threads happened to overlap. One arena makes `peak_rss_mb` repeat.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: mallopt only sets an allocator tunable; no thread has
    // started yet.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            for (table, defs) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
                for d in defs {
                    println!(
                        "{table:<10} {:<36} {:<6} {}",
                        d.name,
                        d.unit,
                        d.better.label()
                    );
                }
            }
            return ExitCode::SUCCESS;
        }
        Some("manifest") => {
            let json = manifest::benchmark_json();
            return match args.get(1).map(String::as_str) {
                Some("--write") => match args.get(2) {
                    Some(path) => match std::fs::write(path, json) {
                        Ok(()) => ExitCode::SUCCESS,
                        Err(e) => usage(&format!("{path}: {e}")),
                    },
                    None => usage("--write needs a path"),
                },
                None => {
                    print!("{json}");
                    ExitCode::SUCCESS
                }
                Some(other) => usage(&format!("unknown manifest argument '{other}'")),
            };
        }
        _ => {}
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(msg) => return usage(&msg),
    };
    match tlrbench::run(&opts) {
        Ok(outcome) => {
            for line in &outcome.report {
                println!("{line}");
            }
            let defs = if opts.trace { PER_LAYER } else { END_TO_END };
            if !opts.trace {
                print_end_to_end(&outcome.metrics, defs);
            }
            println!(
                "{}",
                result_json(outcome.attempted, outcome.failed, &outcome.metrics, defs)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: correctness gate failed: {e}");
            ExitCode::from(1)
        }
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = f64::from(manifest::RUN_SECONDS);
    let mut trace = false;
    let mut quick = false;
    let mut out_dir = PathBuf::from(".tlrbench");
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("missing value for {}", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            "--out" => out_dir = PathBuf::from(value()?),
            "--quick" => {
                quick = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 2;
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        quick,
        out_dir,
        corrupt_reference: None,
    })
}

fn print_end_to_end(metrics: &std::collections::BTreeMap<&str, f64>, defs: &[MetricDef]) {
    for d in defs {
        println!(
            "{:<16} {:>16.3} {:<5} ({} is better)",
            d.name,
            metrics.get(d.name).copied().unwrap_or(0.0),
            d.unit,
            d.better.label()
        );
    }
}

/// The result line of a run that passed every correctness gate. Values
/// keep every digit `f64` round-trips with.
fn result_json(
    attempted: u64,
    failed: u64,
    metrics: &std::collections::BTreeMap<&str, f64>,
    defs: &[MetricDef],
) -> String {
    let fields: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = metrics.get(d.name).copied().unwrap_or(0.0);
            // JSON has no infinity: a latency that only failed sessions
            // reached reads as the largest finite number.
            let v = if v.is_finite() { v } else { f64::MAX };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}
