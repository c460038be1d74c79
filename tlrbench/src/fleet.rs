//! `daemon-fleet`: a `tlrd` [`Daemon`] configured as `tlrsim serve
//! --listen` runs it (registry defaults, 1-s refresh ticker), serving a
//! directory seeded with every kernel's exports from the two donor
//! seeds. One client runs a closed loop of short sessions, round-robin
//! over the kernels; each session is what a `tlrsim run --remote`
//! process does: connect + Hello, `GetShape`, `new_warm`, a few thousand
//! collecting instructions, `export_rtm` with the shape stamped,
//! `Publish`. Sessions alternate the reference engine (`mips`) and the
//! throughput engine (`mips_alt`, `--fast`).
//!
//! A pass starts a fresh daemon over the same directory, so every pass
//! serves the same sequence of resident states.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tlr_core::{EngineStats, RtmSnapshot};
use tlr_persist::save_snapshot;
use tlr_persist::snapshot::{read_snapshot, write_snapshot};
use tlr_serve::{Daemon, RefreshTicker, RegistryConfig, RemoteRegistry, SnapshotRegistry};

use crate::layers::{self, ClockCost, Clocks, LayerMetrics, Spans};
use crate::measure::{self, ns_since};
use crate::{
    end_to_end, engine_config, kernels, timed_setup, AnyEngine, BenchError, Kernel, Options,
    Outcome, PassClock, Reference, Session, Workload,
};

/// Sessions per pass: ten rounds over the 14 kernels.
pub const SESSIONS_PER_PASS: usize = 140;
/// Simulated instructions per session.
pub const SESSION_BUDGET: u64 = 3_000;
/// Instructions each donor export is collected over.
pub const DONOR_BUDGET: u64 = 200_000;
const QUICK_SESSIONS: usize = 28;
const QUICK_BUDGET: u64 = 1_000;

const VARIANT_NAMES: [&str; 2] = ["reference-engine session", "throughput-engine session"];
/// Session phases, in order; `marks[i]..marks[i + 1]` is `PHASES[i]`.
const PHASES: [&str; 6] = [
    "connect",
    "get_by_shape",
    "new_warm",
    "run",
    "export",
    "publish",
];

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Seed `dir` with every kernel's exports from the donor seeds, as
/// `tlrsim snapshot` writes them; returns the client kernels.
fn setup(seed: u64, dir: &Path, budget: u64) -> Vec<Kernel> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the snapshot directory");
    for donor_seed in [seed + 1, seed + 2] {
        for kernel in kernels(donor_seed) {
            let mut engine = AnyEngine::cold(1, &kernel.program, engine_config());
            engine.set_source_run(donor_seed);
            engine
                .run(budget)
                .unwrap_or_else(|e| panic!("donor collection of {} failed: {e}", kernel.name));
            let mut snapshot = engine.export_rtm();
            snapshot.shape = kernel.shape;
            let path = dir.join(format!("{}-{donor_seed}.tlrsnap", kernel.name));
            save_snapshot(&path, kernel.fingerprint, &snapshot)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
    }
    kernels(seed)
}

/// One completed session.
struct Completed {
    marks: [Instant; 7],
    stats: EngineStats,
    digest: u64,
    published: RtmSnapshot,
}

/// How far a failed session got.
struct Failed {
    /// Operations it attempted, the failed one included.
    attempted: u64,
    /// Whether its `GetShape` was answered.
    fetched: bool,
    what: String,
}

fn session(
    kernel: &Kernel,
    variant: usize,
    sock: &Path,
    budget: u64,
    seed: u64,
) -> Result<Completed, Failed> {
    let fail = |attempted, fetched, what: String| Failed {
        attempted,
        fetched,
        what,
    };
    let t0 = Instant::now();
    let remote =
        RemoteRegistry::connect(sock).map_err(|e| fail(1, false, format!("connect: {e}")))?;
    let t1 = Instant::now();
    let fetched = remote
        .get_by_shape(kernel.fingerprint, kernel.shape)
        .map_err(|e| fail(2, false, format!("GetShape: {e}")))?;
    let t2 = Instant::now();
    let config = engine_config();
    let mut engine = match &fetched {
        Some(snapshot) => AnyEngine::warm(variant, &kernel.program, config, snapshot),
        None => AnyEngine::cold(variant, &kernel.program, config),
    };
    engine.set_source_run(seed);
    let t3 = Instant::now();
    let stats = engine
        .run(budget)
        .map_err(|e| fail(3, true, format!("engine: {e}")))?;
    let t4 = Instant::now();
    let mut published = engine.export_rtm();
    published.shape = kernel.shape;
    let t5 = Instant::now();
    remote
        .publish(kernel.fingerprint, &published)
        .map_err(|e| fail(4, true, format!("Publish: {e}")))?;
    let t6 = Instant::now();
    drop(remote);
    Ok(Completed {
        marks: [t0, t1, t2, t3, t4, t5, t6],
        digest: engine.digest(),
        stats,
        published,
    })
}

/// Operations per completed session: the session, its engine run, and
/// three requests (Hello, GetShape, Publish).
const OPS_PER_SESSION: u64 = 5;

/// What the client asked of the daemon in one pass, to hold its `Stats`
/// to.
#[derive(Clone, Copy, Default)]
struct Asked {
    fetches: u64,
    publishes: u64,
    kernels: u64,
}

pub fn run(opts: &Options) -> Result<Outcome, BenchError> {
    let (sessions_per_pass, budget, donor_budget) = if opts.quick {
        (QUICK_SESSIONS, QUICK_BUDGET, QUICK_BUDGET)
    } else {
        (SESSIONS_PER_PASS, SESSION_BUDGET, DONOR_BUDGET)
    };
    let scratch = Scratch(opts.out_dir.join(format!("work-{}", std::process::id())));
    let dir = scratch.0.join("snapshots");
    let sock = scratch.0.join("tlrd.sock");
    let ((kernels, mut reference), setup_s) = timed_setup(opts.quick, || {
        let kernels = setup(opts.seed, &dir, donor_budget);
        let mut reference = Reference::new(Workload::DaemonFleet, opts.corrupt_reference.clone());
        reference.prepare(&kernels, budget);
        (kernels, reference)
    });
    let mut out = Outcome::default();
    let mut passes = Vec::new();
    let mut trace = Trace::default();
    let mut clock = PassClock::new(opts);
    while clock.next_pass() {
        // Traced runs alternate traced and untraced passes; the
        // difference is the tracing overhead.
        let traced = opts.trace && !clock.passes.is_multiple_of(2);
        let registry = SnapshotRegistry::open(&dir, RegistryConfig::default())
            .map_err(|e| reference.fail("-", format!("open {}: {e}", dir.display())))?;
        let registry = Arc::new(registry);
        let ticker = RefreshTicker::spawn(Arc::clone(&registry), Duration::from_secs(1));
        let daemon = Daemon::bind(&sock, Arc::clone(&registry))
            .map_err(|e| reference.fail("-", format!("bind {}: {e}", sock.display())))?;
        let handle = daemon.handle();
        let server = std::thread::spawn(move || daemon.run());
        let mut twin = traced.then(|| Twin::open(&dir));
        let mut pass = Vec::with_capacity(sessions_per_pass);
        let mut asked = Asked::default();
        let mut seen = vec![false; kernels.len()];
        let mut result = Ok(());
        for i in 0..sessions_per_pass {
            let k = i % kernels.len();
            let variant = (i / kernels.len() + k) % 2;
            let kernel = &kernels[k];
            let fetched = match session(kernel, variant, &sock, budget, opts.seed) {
                Ok(done) => {
                    out.attempted += OPS_PER_SESSION;
                    asked.fetches += 1;
                    asked.publishes += 1;
                    let m = done.marks;
                    pass.push(Session::timed(
                        variant,
                        [m[0], m[3], m[4], m[6]],
                        &done.stats,
                    ));
                    result = reference.check(
                        kernel,
                        done.stats.total(),
                        done.digest,
                        VARIANT_NAMES[variant],
                    );
                    if let Some(twin) = twin.as_mut() {
                        trace.record(kernel, variant, &done, twin);
                    }
                    true
                }
                Err(failed) => {
                    eprintln!("daemon-fleet {}: {}", kernel.name, failed.what);
                    // The session and the operation that failed.
                    out.attempted += failed.attempted + 1;
                    out.failed += 2;
                    asked.fetches += u64::from(failed.fetched);
                    pass.push(Session::failed(variant));
                    failed.fetched
                }
            };
            if fetched && !seen[k] {
                seen[k] = true;
                asked.kernels += 1;
            }
            if result.is_err() {
                break;
            }
        }
        if result.is_ok() {
            out.attempted += 1;
            result = check_daemon_stats(&sock, &reference, &asked, &mut trace);
        }
        handle.shutdown();
        let served = server.join();
        ticker.stop();
        result?;
        match served {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(reference.fail("-", format!("daemon: {e}"))),
            Err(_) => return Err(reference.fail("-", "the daemon thread panicked".into())),
        }
        if opts.trace {
            trace.traced_passes += u64::from(traced);
            let ns: Vec<f64> = pass.iter().map(|s| s.total_ns() as f64).collect();
            trace.pass_medians[usize::from(!traced)].push(measure::median(&ns));
        }
        passes.push(pass);
    }
    drop(scratch);
    if opts.trace {
        trace.finish(opts, &passes, &mut out);
    } else {
        end_to_end(&passes, &clock, setup_s, &mut out);
    }
    Ok(out)
}

/// Daemon `Stats` must add up against the client's own counts. One
/// quirk is recorded as it is: a `GetShape` served from a resident entry
/// counts two registry hits (the `get` inside `get_by_shape`, then
/// `get_image`); the first, shape-resolved `GetShape` per kernel counts
/// one unknown fingerprint, three misses (each donor's disk load and the
/// installed pool) and one hit (`get_image`).
fn check_daemon_stats(
    sock: &Path,
    reference: &Reference,
    asked: &Asked,
    trace: &mut Trace,
) -> Result<(), BenchError> {
    let stats = RemoteRegistry::connect(sock)
        .and_then(|remote| remote.stats())
        .map_err(|e| reference.fail("-", format!("Stats: {e}")))?;
    let Asked {
        fetches,
        publishes,
        kernels,
    } = *asked;
    let expected = [
        ("refreshes", stats.refreshes, publishes),
        ("shape_hits", stats.shape_hits, kernels),
        ("unknown", stats.unknown, kernels),
        ("misses", stats.misses, 3 * kernels),
        ("hits", stats.hits, 2 * (fetches - kernels) + kernels),
        (
            "image builds + hits",
            stats.image_builds + stats.image_hits,
            fetches,
        ),
    ];
    for (name, got, want) in expected {
        if got != want {
            return Err(reference.fail(
                "-",
                format!("daemon Stats {name} = {got}, client-side counts give {want}: {stats:?}"),
            ));
        }
    }
    if trace.daemon.is_none() {
        trace.daemon = Some(stats);
    }
    Ok(())
}

/// An in-process registry over an identical directory, replaying the
/// client's session sequence to split each round trip into registry and
/// codec time; the rest is the daemon's overhead.
struct Twin {
    registry: SnapshotRegistry,
}

impl Twin {
    fn open(dir: &Path) -> Twin {
        Twin {
            registry: SnapshotRegistry::open(dir, RegistryConfig::default())
                .expect("the daemon opened the same directory"),
        }
    }
}

/// Per-session timings of the traced passes, in nanoseconds.
#[derive(Default)]
struct Trace {
    spans: Spans,
    sessions: u64,
    phases: [Vec<f64>; 6],
    session_ns: Vec<f64>,
    twin_get_by_shape: Vec<f64>,
    twin_get_image: Vec<f64>,
    twin_publish: Vec<f64>,
    decode: Vec<f64>,
    encode: Vec<f64>,
    merge: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    bytes: Vec<f64>,
    overhead: Vec<f64>,
    resident: Vec<f64>,
    /// Engine stats of the first traced pass's sessions, per variant.
    engines: [Vec<EngineStats>; 2],
    traced_passes: u64,
    daemon: Option<tlr_serve::RegistryStats>,
    /// Median session time of `[traced, untraced]` passes.
    pass_medians: [Vec<f64>; 2],
}

impl Trace {
    fn record(&mut self, kernel: &Kernel, variant: usize, done: &Completed, twin: &mut Twin) {
        let m = done.marks;
        self.spans.session(self.sessions, &PHASES, &m);
        self.sessions += 1;
        for (i, phase) in self.phases.iter_mut().enumerate() {
            phase.push((m[i + 1] - m[i]).as_nanos() as f64);
        }
        self.session_ns.push((m[6] - m[0]).as_nanos() as f64);
        if self.traced_passes == 0 {
            self.engines[variant].push(done.stats.clone());
        }
        self.resident.push(done.published.len() as f64);

        // Replay on the twin exactly what the daemon did for this
        // session, timing each layer call on the same payloads.
        let fp = kernel.fingerprint;
        let registry = &twin.registry;
        let t = Instant::now();
        let _ = registry.get_by_shape(fp, kernel.shape);
        let get_by_shape = ns_since(t) as f64;
        let t = Instant::now();
        let image = registry.get_image(fp).ok().flatten();
        let get_image = ns_since(t) as f64;
        let image_len = image.as_ref().map_or(0, |i| i.len());
        let t = Instant::now();
        if let Some(image) = &image {
            let _ = read_snapshot(&mut &image[..], Some(fp));
        }
        let client_decode = ns_since(t) as f64;
        let mut bytes = Vec::new();
        let t = Instant::now();
        let _ = write_snapshot(&mut bytes, fp, &done.published);
        let encode = ns_since(t) as f64;
        let t = Instant::now();
        let _ = read_snapshot(&mut &bytes[..], Some(fp));
        let daemon_decode = ns_since(t) as f64;
        let pool = registry
            .get(fp)
            .ok()
            .flatten()
            .map(|resident| [(*resident).clone(), done.published.clone()]);
        let t = Instant::now();
        if let Some(pool) = &pool {
            let _ = RtmSnapshot::merge(pool);
        }
        let merge = ns_since(t) as f64;
        let t = Instant::now();
        let _ = registry.publish(fp, &done.published);
        let publish = ns_since(t) as f64;

        self.twin_get_by_shape.push(get_by_shape);
        self.twin_get_image.push(get_image);
        self.twin_publish.push(publish);
        self.decode.push(client_decode + daemon_decode);
        self.encode.push(encode);
        self.merge.push(merge);
        self.snapshot_bytes.push(bytes.len() as f64);
        self.bytes.push((image_len + bytes.len()) as f64);
        let get_rt = (m[2] - m[1]).as_nanos() as f64;
        let publish_rt = (m[6] - m[5]).as_nanos() as f64;
        self.overhead.push(
            (get_rt - get_by_shape - get_image - client_decode)
                + (publish_rt - encode - daemon_decode - publish),
        );
    }

    fn finish(self, opts: &Options, passes: &[Vec<Session>], out: &mut Outcome) {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let us = |v: &[f64]| mean(v) / 1e3;
        let p = |v: &[f64], q| measure::percentile(v, q) / 1e3;
        let mut m = LayerMetrics::default();
        crate::set_session_p99s(&mut m, passes);
        let [connect, get, new_warm, run, export, publish] = &self.phases;
        m.set("remote.connect.p50_us", p(connect, 0.5));
        m.set("remote.connect.p99_us", p(connect, 0.99));
        m.set("remote.get_by_shape.p50_us", p(get, 0.5));
        m.set("remote.get_by_shape.p99_us", p(get, 0.99));
        m.set("remote.publish.p50_us", p(publish, 0.5));
        m.set("remote.publish.p99_us", p(publish, 0.99));
        m.set("remote.bytes_per_session", mean(&self.bytes));
        m.set("daemon.overhead_us", us(&self.overhead));
        m.set("registry.get_by_shape.us", us(&self.twin_get_by_shape));
        m.set("registry.get_image.us", us(&self.twin_get_image));
        m.set("registry.publish.us", us(&self.twin_publish));
        if let Some(d) = &self.daemon {
            m.set("registry.image_builds", d.image_builds as f64);
            m.set("registry.image_hits", d.image_hits as f64);
            m.set(
                "registry.image_hit_ratio",
                d.image_hits as f64 / (d.image_hits + d.image_builds).max(1) as f64,
            );
            m.set("registry.shape_hits", d.shape_hits as f64);
            m.set("registry.refreshes", d.refreshes as f64);
        }
        m.set("persist.encode.us", us(&self.encode));
        m.set("persist.decode.us", us(&self.decode));
        m.set("persist.snapshot_bytes", mean(&self.snapshot_bytes));
        m.set("persist.merge.us", us(&self.merge));
        m.set("rtm.import.us", us(new_warm));
        m.set("rtm.export.us", us(export));
        m.set("rtm.resident_traces", measure::median(&self.resident));
        m.set("engine.run.us", us(run));
        layers::set_engine_counts(&mut m, self.engines.iter().flatten());
        layers::set_probe_ratios(&mut m, "rtm.lookup", &self.engines[0]);
        layers::set_probe_ratios(&mut m, "rtm.lookup_fast", &self.engines[1]);

        // Self time per layer, as a share of session time.
        let total = self.session_ns.iter().sum::<f64>();
        let sum_of = |v: &[f64]| v.iter().sum::<f64>();
        let mut self_ns = std::collections::BTreeMap::new();
        self_ns.insert("remote", sum_of(connect) + sum_of(&self.overhead));
        self_ns.insert(
            "registry",
            sum_of(&self.twin_get_by_shape)
                + sum_of(&self.twin_get_image)
                + sum_of(&self.twin_publish)
                - sum_of(&self.merge),
        );
        self_ns.insert(
            "persist",
            sum_of(&self.decode) + sum_of(&self.encode) + sum_of(&self.merge),
        );
        self_ns.insert("rtm", sum_of(new_warm) + sum_of(export));
        self_ns.insert("engine", sum_of(run));
        m.set_shares(&self_ns, total);
        let [traced, untraced] = &self.pass_medians;
        let (traced, untraced) = (measure::median(traced), measure::median(untraced));
        if untraced > 0.0 {
            m.set("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
        }
        let serving = total - sum_of(run);
        let extra = vec![format!(
            "serving-tier spans (connect, get_by_shape, new_warm, export, publish): {:.1}% of session time over {} traced sessions",
            100.0 * serving / total,
            self.session_ns.len()
        )];
        out.report = layers::layer_report(
            "daemon-fleet",
            &m,
            &Clocks::default(),
            ClockCost::default(),
            extra,
        );
        layers::write_spans(opts, &self.spans, &mut out.report);
        out.metrics = m.0;
    }
}
