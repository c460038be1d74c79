//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is rendered from these tables (`tlrbench manifest`),
//! and a test keeps the committed file equal to the rendering.

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The three workloads, each loading a different layer, with the reason
/// it was chosen.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "cold-collect",
        "every kernel from an empty RTM on both engines while collecting: VM step, collector, RTM insert and probe do the work",
    ),
    (
        "warm-serve",
        "serving-only fast engines from an own-seed export and from a two-donor cross-seed merge: the RTM hit path against the reject path",
    ),
    (
        "daemon-fleet",
        "one closed-loop client of an in-process tlrd daemon, one short warm session per connection: framing, codec, registry merge",
    ),
];

/// End-to-end metrics. Every workload reports every one of them from its
/// own operations; README.md maps each to what it measures per workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("mips", "MIPS", Higher, 0.25),
    e2e("mips_alt", "MIPS", Higher, 0.25),
    e2e("sessions_per_s", "1/s", Higher, 0.25),
    e2e("start_p50_us", "us", Lower, 0.25),
    e2e("handoff_p50_us", "us", Lower, 0.25),
    e2e("reuse_pct", "%", Higher, 0.2),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    // vm
    layer("vm.step.calls", "count", Lower),
    layer("vm.step.ns_per_call", "ns", Lower),
    layer("vm.apply_trace.calls", "count", Lower),
    layer("vm.apply_trace.ns_per_call", "ns", Lower),
    layer("vm.step_fast.calls", "count", Lower),
    layer("vm.step_fast.ns_per_call", "ns", Lower),
    layer("vm.run_fast_mips", "MIPS", Higher),
    // collect
    layer("collect.on_executed.calls", "count", Lower),
    layer("collect.on_executed.ns_per_call", "ns", Lower),
    layer("collect.on_reuse_hit.calls", "count", Lower),
    layer("collect.on_reuse_hit.ns_per_call", "ns", Lower),
    layer("collect.records_out", "count", Lower),
    layer("collect.expansions", "count", Higher),
    layer("collect.cap_splits", "count", Lower),
    // rtm
    layer("rtm.lookup.calls", "count", Lower),
    layer("rtm.lookup.ns_per_call", "ns", Lower),
    layer("rtm.lookup.hit_ratio", "ratio", Higher),
    layer("rtm.lookup.rejects_per_call", "count", Lower),
    layer("rtm.lookup_fast.calls", "count", Lower),
    layer("rtm.lookup_fast.ns_per_call", "ns", Lower),
    layer("rtm.lookup_fast.hit_ratio", "ratio", Higher),
    layer("rtm.lookup_fast.rejects_per_call", "count", Lower),
    layer("rtm.insert.calls", "count", Lower),
    layer("rtm.insert.ns_per_call", "ns", Lower),
    layer("rtm.evictions", "count", Lower),
    layer("rtm.duplicate_stores", "count", Lower),
    layer("rtm.hits_per_store", "ratio", Higher),
    layer("rtm.import.us", "us", Lower),
    layer("rtm.export.us", "us", Lower),
    layer("rtm.resident_traces", "count", Higher),
    // engine
    layer("engine.run.us", "us", Lower),
    layer("engine.self_ns_per_instr", "ns", Lower),
    layer("engine.unattributed_pct", "%", Lower),
    // persist
    layer("persist.encode.us", "us", Lower),
    layer("persist.decode.us", "us", Lower),
    layer("persist.snapshot_bytes", "bytes", Lower),
    layer("persist.merge.us", "us", Lower),
    // registry
    layer("registry.get_by_shape.us", "us", Lower),
    layer("registry.get_image.us", "us", Lower),
    layer("registry.publish.us", "us", Lower),
    layer("registry.image_builds", "count", Lower),
    layer("registry.image_hits", "count", Higher),
    layer("registry.image_hit_ratio", "ratio", Higher),
    layer("registry.shape_hits", "count", Higher),
    layer("registry.refreshes", "count", Higher),
    // remote
    layer("remote.connect.p50_us", "us", Lower),
    layer("remote.connect.p99_us", "us", Lower),
    layer("remote.get_by_shape.p50_us", "us", Lower),
    layer("remote.get_by_shape.p99_us", "us", Lower),
    layer("remote.publish.p50_us", "us", Lower),
    layer("remote.publish.p99_us", "us", Lower),
    layer("remote.bytes_per_session", "bytes", Lower),
    layer("daemon.overhead_us", "us", Lower),
    // session tails (too loose run to run for an end-to-end bound)
    layer("session.start_p99_us", "us", Lower),
    layer("session.handoff_p99_us", "us", Lower),
    // attribution: self time per layer, the unattributed rest, and
    // what tracing itself cost
    layer("self_pct.vm", "%", Lower),
    layer("self_pct.collect", "%", Lower),
    layer("self_pct.rtm", "%", Lower),
    layer("self_pct.engine", "%", Lower),
    layer("self_pct.persist", "%", Lower),
    layer("self_pct.registry", "%", Lower),
    layer("self_pct.remote", "%", Lower),
    layer("self_pct.unattributed", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// How long one run measures, in seconds (the `--seconds` default).
pub const RUN_SECONDS: u32 = 30;

/// Render `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"tlrbench/Cargo.toml\", \"--bin\", \"tlrbench\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"tlrbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound.expect("end-to-end metrics carry a bound")
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.label()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
