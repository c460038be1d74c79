//! Quick-mode runs of every workload: every named metric is emitted with
//! its unit and direction, the correctness gate fails a run on a wrong
//! expected digest, and the traced runs show each workload loading its
//! own layers.

use std::path::PathBuf;
use std::process::Command;

use tlrbench::manifest::{self, END_TO_END, PER_LAYER, WORKLOADS};
use tlrbench::{Options, Workload};

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

fn quick(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 5,
        seconds: 1.0,
        trace,
        quick: true,
        out_dir: out_dir(&format!("{}-{trace}", workload.name())),
        corrupt_reference: None,
    }
}

fn all_workloads() -> Vec<Workload> {
    WORKLOADS
        .iter()
        .map(|(name, _)| Workload::parse(name).expect("manifest names parse"))
        .collect()
}

/// Run the binary in quick mode; returns stdout.
fn run_binary(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tlrbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", trace, "--quick", "--out"])
        .arg(out_dir(&format!("bin-{workload}-{trace}")))
        .output()
        .expect("run tlrbench");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The `"metrics"` object of the result line as (name, value, unit).
fn result_metrics(stdout: &str) -> Vec<(String, f64, String)> {
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    let body = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
    body.split("}, ")
        .map(|field| {
            let name = field.split('"').nth(1).expect("metric name").to_string();
            let value = field
                .split("\"value\": ")
                .nth(1)
                .and_then(|v| v.split(',').next())
                .and_then(|v| v.parse::<f64>().ok())
                .expect("numeric value");
            let unit = field
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("unit")
                .to_string();
            (name, value, unit)
        })
        .collect()
}

#[test]
fn every_workload_prints_every_end_to_end_metric_with_unit_and_direction() {
    for (workload, _) in WORKLOADS {
        let stdout = run_binary(workload, "0");
        let metrics = result_metrics(&stdout);
        let names: Vec<&str> = metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, expected, "{workload}");
        for ((name, value, unit), def) in metrics.iter().zip(END_TO_END) {
            assert_eq!(unit, def.unit, "{workload} {name}");
            assert!(
                *value > 0.0 && value.is_finite(),
                "{workload} {name} = {value}"
            );
            let line = format!("({} is better)", def.better.label());
            assert!(
                stdout.lines().any(|l| l.starts_with(name.as_str())
                    && l.contains(unit)
                    && l.ends_with(&line)),
                "{workload}: no report line for {name} with unit and direction"
            );
        }
    }
}

#[test]
fn every_traced_workload_prints_every_per_layer_metric() {
    for (workload, _) in WORKLOADS {
        let stdout = run_binary(workload, "1");
        let metrics = result_metrics(&stdout);
        assert_eq!(metrics.len(), PER_LAYER.len(), "{workload}");
        for ((name, value, unit), def) in metrics.iter().zip(PER_LAYER) {
            assert_eq!((name.as_str(), unit.as_str()), (def.name, def.unit));
            assert!(value.is_finite(), "{workload} {name}");
        }
        assert!(stdout.contains("self time by layer"), "{workload}");
    }
}

#[test]
fn wrong_expected_digest_fails_the_run_naming_workload_and_kernel() {
    for workload in all_workloads() {
        let opts = Options {
            corrupt_reference: Some("gcc".into()),
            ..quick(workload, false)
        };
        let err = tlrbench::run(&opts).expect_err("a wrong digest must fail the run");
        assert_eq!(err.workload, workload.name());
        assert_eq!(err.kernel, "gcc");
        assert!(err.to_string().contains("plain VM"), "{err}");
    }
}

#[test]
fn traced_runs_load_different_layers() {
    let cold = tlrbench::run(&quick(Workload::ColdCollect, true))
        .unwrap()
        .metrics;
    let warm = tlrbench::run(&quick(Workload::WarmServe, true))
        .unwrap()
        .metrics;
    let fleet = tlrbench::run(&quick(Workload::DaemonFleet, true))
        .unwrap()
        .metrics;
    // warm-serve never collects or inserts.
    for name in [
        "collect.on_executed.calls",
        "collect.on_reuse_hit.calls",
        "collect.records_out",
        "rtm.insert.calls",
    ] {
        assert_eq!(warm[name], 0.0, "warm-serve {name}");
    }
    assert!(warm["rtm.lookup_fast.calls"] > 0.0 && warm["vm.step_fast.calls"] > 0.0);
    // cold-collect never reaches the serving tier.
    for (name, value) in &cold {
        if name.starts_with("registry.")
            || name.starts_with("remote.")
            || name.starts_with("daemon.")
            || name.starts_with("persist.")
        {
            assert_eq!(*value, 0.0, "cold-collect {name}");
        }
    }
    assert!(cold["collect.on_executed.calls"] > 0.0 && cold["rtm.insert.calls"] > 0.0);
    // daemon-fleet goes through every serving layer.
    for name in [
        "registry.shape_hits",
        "registry.refreshes",
        "persist.snapshot_bytes",
        "remote.bytes_per_session",
    ] {
        assert!(fleet[name] > 0.0, "daemon-fleet {name}");
    }
}

#[test]
fn committed_benchmark_json_matches_the_manifest() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        manifest::benchmark_json(),
        "regenerate with `tlrbench manifest --write BENCHMARK.json`"
    );
}

#[test]
fn bounds_stay_within_the_contract() {
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s");
    let largest = END_TO_END
        .iter()
        .filter_map(|d| d.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "setup_s carries the largest bound"
    );
    assert!(largest <= 0.25);
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    let all = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all, "metric names are used once");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(d.name.len() <= 64 && d.unit.len() <= 16);
    }
}
