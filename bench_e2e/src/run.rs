//! One run of one workload: the phase skeleton shared by all four.
//!
//! `setup` (generate → 3 × build, keep the first → write artefacts → bind
//! → warm one window) → `update` → `reload` → `closed` → `open` → `rtt` →
//! read `VmHWM` → `verify`. Every reported timing is the median of
//! [`SAMPLES`] equal-work windows or samples taken after one discarded
//! warm-up, and a window is a request count fixed by the workload's
//! constants and `--seconds`, never a duration.

use crate::fleet::{self, Artefacts, Fleet, Index};
use crate::loadgen::{self, Churn, GridReply, Mode, Outcome, Plan, Tally};
use crate::oracle::Truth;
use crate::report::Report;
use crate::stats::{iqr_share, median, percentile_us};
use crate::trace::{Tracer, NO_REQUEST};
use crate::wire::Link;
use crate::workload::{self, Grid, Instance, Kind, PairStream, Scale, Spec, BUILD_THREADS};
use hcl_core::partition::PartitionMap;
use hcl_core::{HighwayCoverLabelling, SparseView};
use hcl_graph::VertexId;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Measured windows (or samples) per phase; one more runs first and is
/// discarded.
pub const SAMPLES: usize = 7;
/// No window or sample of a full-scale run may span less wall time.
pub const FLOOR_SECS: f64 = 0.5;
/// An open loop whose backlog at the end exceeds this is still growing.
pub const BACKLOG_LIMIT: usize = 64;

pub struct Config {
    pub spec: Spec,
    pub scale: Scale,
    pub seed: u64,
    /// How long the measured phases should take in all.
    pub seconds: f64,
    pub process_start: Instant,
}

/// Seconds per window or sample of each phase: the run's `--seconds` split
/// across the phases, eight windows each.
pub struct Budget {
    pub update: f64,
    pub reload: f64,
    pub closed: f64,
    pub open: f64,
    pub rtt: f64,
}

impl Budget {
    pub fn new(spec: &Spec, seconds: f64) -> Budget {
        let per = |share: f64| seconds * share / (SAMPLES + 1) as f64;
        if spec.kind == Kind::ServeChurn {
            // Edits run beside the queries, so the quiet update phase's
            // share goes to the loaded phases.
            Budget {
                update: 0.0,
                reload: per(0.2),
                closed: per(0.3),
                open: per(0.3),
                rtt: per(0.2),
            }
        } else {
            Budget {
                update: per(0.2),
                reload: per(0.2),
                closed: per(0.2),
                open: per(0.2),
                rtt: per(0.2),
            }
        }
    }
}

/// Everything `setup` leaves behind for the phases.
pub struct Ready {
    // Field order is drop order: connections close before the servers
    // stop, and the artefact directory goes last.
    pub links: Vec<Link>,
    pub fleet: Fleet,
    pub artefacts: Artefacts,
    pub instance: Instance,
    pub index: Index,
    pub partition: Option<PartitionMap>,
    pub grid: Grid,
    pub stream: PairStream,
    pub edges: Vec<(VertexId, VertexId)>,
    pub build_secs: Vec<f64>,
    pub generate_secs: f64,
    pub landmark_secs: f64,
    pub sparse_secs: f64,
    pub pack_secs: f64,
    pub warm: Outcome,
}

pub fn windows(cfg: &Config) -> usize {
    match cfg.scale {
        Scale::Full => SAMPLES + 1,
        Scale::Smoke => 2,
    }
}

/// A closed-loop plan of `windows` windows sized to last `window_secs`
/// each at the workload's nominal saturation rate.
pub fn closed_plan<'a>(
    cfg: &'a Config,
    grid: &'a Grid,
    window_secs: f64,
    windows: usize,
) -> Plan<'a> {
    let rate = cfg.spec.closed_qps / cfg.spec.answers_per_request() as f64;
    plan(cfg, grid, Mode::Closed(workload::DEPTH), rate, window_secs, windows)
}

/// Depth 1 on one connection: the bare round trip.
pub fn rtt_plan<'a>(cfg: &'a Config, grid: &'a Grid, window_secs: f64, windows: usize) -> Plan<'a> {
    plan(cfg, grid, Mode::Closed(1), cfg.spec.rtt_rate, window_secs, windows)
}

/// An open-loop plan offering `rate` requests per second.
pub fn open_plan<'a>(
    cfg: &'a Config,
    grid: &'a Grid,
    rate: f64,
    window_secs: f64,
    windows: usize,
) -> Plan<'a> {
    plan(cfg, grid, Mode::Open(rate), rate, window_secs, windows)
}

fn plan<'a>(
    cfg: &'a Config,
    grid: &'a Grid,
    mode: Mode,
    rate: f64,
    window_secs: f64,
    windows: usize,
) -> Plan<'a> {
    let window_requests = match cfg.scale {
        Scale::Full => (rate * window_secs).ceil().max(1.0) as u64,
        // At least two pipelines' worth, so a window always takes time.
        Scale::Smoke => (rate * 0.01).ceil().max(2.0 * workload::DEPTH as f64) as u64,
    };
    Plan { spec: &cfg.spec, grid, mode, windows, window_requests, seed: cfg.seed }
}

/// `setup`: everything up to the point where the first measured request
/// could be sent.
pub fn setup(cfg: &Config, tracer: &mut Tracer) -> Result<Ready, String> {
    let spec = &cfg.spec;
    let (instance, generate_ns) =
        tracer.span("graph.generate", NO_REQUEST, |_| workload::generate(spec, cfg.scale));
    // Landmark selection already happened inside `generate` (the routed
    // workload needs the hubs to lay its bridges); time the call on its
    // own here so the layer has a number.
    let (_, landmark_ns) = tracer.span("core.landmark_select", NO_REQUEST, |_| {
        hcl_core::landmarks::LandmarkStrategy::TopDegree(workload::LANDMARKS)
            .select(&instance.graph)
    });
    let partition = match spec.kind {
        Kind::RouteUniform => Some(fleet::exact_partition(&instance)?),
        _ => None,
    };

    let mut build_secs = Vec::new();
    let mut labelling = None;
    for _ in 0..3 {
        let (built, ns) = tracer.span("core.build", NO_REQUEST, |_| {
            HighwayCoverLabelling::build_parallel(
                &instance.graph,
                &instance.landmarks,
                BUILD_THREADS,
            )
        });
        let (built, _) = built.map_err(|e| format!("build failed: {e}"))?;
        build_secs.push(ns as f64 / 1e9);
        labelling.get_or_insert(built);
    }
    let labelling = labelling.expect("three builds ran");
    let (sparse, sparse_ns) = tracer.span("core.sparse_build", NO_REQUEST, |_| {
        SparseView::build(&instance.graph, labelling.highway())
    });

    let artefacts = Artefacts::create()?;
    let index = Index {
        graph: Arc::clone(&instance.graph),
        labelling: Arc::new(labelling),
        sparse: Arc::new(sparse),
    };
    let pack_secs = fleet::write_artefacts(tracer, &artefacts, &index, partition.as_ref())?;

    let fleet = Fleet::start(spec, &index, partition.as_ref())?;
    let mut links = Vec::new();
    for _ in 0..2 {
        links.push(Link::connect(fleet.front()).map_err(|e| format!("connect: {e}"))?);
    }
    let n = instance.graph.num_vertices();
    let grid = Grid::new(n, cfg.seed);
    let mut stream = PairStream::new(spec, n, &grid, cfg.seed, 1);
    let edges = workload::absent_edges(spec, &instance, 256, cfg.seed);

    let plan = closed_plan(cfg, &grid, FLOOR_SECS, 1);
    let warm = loadgen::run(&plan, &mut links, &mut stream, None, &mut Tracer::new(false))?;

    Ok(Ready {
        instance,
        index,
        partition,
        artefacts,
        fleet,
        links,
        grid,
        stream,
        edges,
        build_secs,
        generate_secs: generate_ns as f64 / 1e9,
        landmark_secs: landmark_ns as f64 / 1e9,
        sparse_secs: sparse_ns as f64 / 1e9,
        pack_secs,
        warm,
    })
}

/// Samples of a depth-1 control operation (`RELOAD`, `UPDATE`): a warm-up
/// sizes the repetition count so that a sample spans the phase's window,
/// then each of [`SAMPLES`] samples is the mean round trip of that many
/// back-to-back operations, in milliseconds.
pub struct ControlSamples {
    pub mean_ms: Vec<f64>,
    pub sample_secs: Vec<f64>,
    pub tally: Tally,
}

pub fn control_phase(
    cfg: &Config,
    link: &mut Link,
    sample_secs: f64,
    expect: &str,
    mut requests: impl FnMut(usize) -> Vec<String>,
) -> Result<ControlSamples, String> {
    let mut out =
        ControlSamples { mean_ms: Vec::new(), sample_secs: Vec::new(), tally: Tally::default() };
    let mut issued = 0usize;
    let mut gate_waits = 0u32;
    let mut round = |warming: bool, tally: &mut Tally| -> Result<usize, String> {
        let mut ops = 0;
        for request in requests(issued) {
            let mut reply = link.call(&request).map_err(|e| e.to_string())?;
            // The server answers `UPDATED` a moment before it frees the
            // gate RELOAD shares with UPDATE, so the first reload after
            // the update phase can be turned away. Only the discarded
            // warm-up waits that out; in a measured sample a refusal is a
            // failure like any other.
            while warming && reply.contains("already in progress") && gate_waits < 1000 {
                gate_waits += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
                reply = link.call(&request).map_err(|e| e.to_string())?;
            }
            tally.expect(&request, &reply, expect);
            ops += 1;
        }
        issued += 1;
        Ok(ops)
    };
    // Warm-up: rounds until the sample span has passed. The measured
    // samples then repeat that many rounds (plus a margin, since the first
    // rounds ran cold), so every sample is the same amount of work.
    let target = if cfg.scale == Scale::Full { sample_secs.max(FLOOR_SECS) } else { 0.0 };
    let started = Instant::now();
    let mut warm_rounds = 0usize;
    while warm_rounds == 0 || started.elapsed().as_secs_f64() < target {
        round(true, &mut out.tally)?;
        warm_rounds += 1;
    }
    let (rounds, samples) = match cfg.scale {
        Scale::Full => (warm_rounds + warm_rounds / 2, SAMPLES),
        Scale::Smoke => (1, 1),
    };
    for _ in 0..samples {
        let started = Instant::now();
        let mut ops = 0;
        for _ in 0..rounds {
            ops += round(false, &mut out.tally)?;
        }
        let secs = started.elapsed().as_secs_f64();
        out.mean_ms.push(secs * 1e3 / ops as f64);
        out.sample_secs.push(secs);
    }
    Ok(out)
}

/// The request line(s) that reload the workload's own artefact.
pub fn reload_request(spec: &Spec, artefacts: &Artefacts) -> String {
    match spec.kind {
        Kind::ServeUniform => format!("RELOAD {}", artefacts.path(fleet::PACKED_FILE)),
        Kind::ServeHot | Kind::ServeChurn => format!(
            "RELOAD {} {}",
            artefacts.path(fleet::GRAPH_FILE),
            artefacts.path(fleet::INDEX_FILE)
        ),
        Kind::RouteUniform => format!("RELOAD {}", artefacts.path(fleet::DEPLOY_DIR)),
    }
}

/// Round `k` of the update phase: `ADD` then `DEL` of one absent edge (a
/// net no-op). On the routed workload a round edits one edge in each
/// community: the router sends an `UPDATE` only to the shard that owns
/// its endpoints, and it refuses a later `RELOAD` fan-out ("divergent
/// epochs") unless every shard has published the same number of
/// generations.
pub fn update_requests(spec: &Spec, edges: &[(VertexId, VertexId)], k: usize) -> Vec<String> {
    let per_round = if spec.kind == Kind::RouteUniform { 2 } else { 1 };
    (0..per_round)
        .flat_map(|i| {
            let (u, v) = edges[(k * per_round + i) % edges.len()];
            [format!("UPDATE ADD {u} {v}"), format!("UPDATE DEL {u} {v}")]
        })
        .collect()
}

pub fn read_vm_hwm_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Queries every grid pair once more, quietly, and requires the base
/// distance exactly and untagged.
fn final_pass(ready: &mut Ready, truth: &Truth, report: &mut Report) -> Result<(), String> {
    let mut tally = Tally::default();
    for i in 0..ready.grid.len() {
        let (s, t) = ready.grid.pair(i);
        let reply = ready.links[0].call(&format!("QUERY {s} {t}")).map_err(|e| e.to_string())?;
        let expected = match truth.base(i) {
            Some(d) => format!("DIST {d}"),
            None => "DIST INF".to_string(),
        };
        tally.sent += 1;
        if reply == expected {
            tally.ok += 1;
        } else {
            eprintln!("final pass: pair {i} answered {reply:?}, truth {expected:?}");
            report.wrong += 1;
        }
    }
    report.phase("verify", tally);
    Ok(())
}

/// Checks the collected grid replies and runs the final pass.
pub fn verify(
    ready: &mut Ready,
    replies: &[GridReply],
    live_edges: &[(VertexId, VertexId)],
    report: &mut Report,
) -> Result<(), String> {
    let truth = Truth::compute(&ready.instance.graph, &ready.grid, live_edges);
    for reply in replies {
        if !truth.accepts(reply, live_edges.len().max(1)) {
            eprintln!("wrong answer: grid pair {} answered {:?}", reply.pair, reply.reply);
            report.wrong += 1;
        }
    }
    println!("oracle checked {} grid replies", replies.len());
    final_pass(ready, &truth, report)
}

fn check_floor(cfg: &Config, what: &str, secs: &[f64]) {
    if cfg.scale == Scale::Full && cfg.seconds >= 16.0 {
        if let Some(short) = secs.iter().find(|&&s| s < FLOOR_SECS) {
            // Reported, not fatal: on a host much faster than the seed host
            // the fixed request counts span less time, and that must not
            // turn a correct run into a failed one.
            eprintln!(
                "warning: a {what} window of {} spanned {short:.3} s, under the {FLOOR_SECS} s floor",
                cfg.spec.name
            );
        }
    }
}

/// The untraced run: measures and reports the nine end-to-end metrics.
/// The per-window `q`-quantile latencies of `outcome`'s measured windows,
/// microseconds.
pub fn window_quantiles_us(outcome: &mut Outcome, q: f64) -> Vec<f64> {
    outcome.window_latency_ns[1..].iter_mut().map(|w| percentile_us(w, q)).collect()
}

/// The numeric `key=value` pairs of a `STATS` reply.
pub fn stats_over_wire(link: &mut Link) -> Result<BTreeMap<String, u64>, String> {
    let line = link.call("STATS").map_err(|e| e.to_string())?;
    let body = line.strip_prefix("STATS ").ok_or(format!("STATS answered {line:?}"))?;
    Ok(body
        .split_ascii_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect())
}

impl Ready {
    /// Closes the connections, stops the servers and waits for their
    /// threads, then removes the artefacts.
    pub fn shutdown(self) {
        let Ready { links, fleet, artefacts, .. } = self;
        drop(links);
        fleet.shutdown();
        drop(artefacts);
    }
}

pub fn run_untraced(cfg: &Config) -> Result<Report, String> {
    let spec = &cfg.spec;
    let mut report = Report::default();
    let mut off = Tracer::new(false);
    let mut ready = setup(cfg, &mut off)?;
    let setup_s = cfg.process_start.elapsed().as_secs_f64();
    let budget = Budget::new(spec, cfg.seconds);
    report.phase("warm", ready.warm.tally);
    let mut grid_replies = std::mem::take(&mut ready.warm.grid_replies);
    let edges = ready.edges.clone();
    let mut churn = (spec.kind == Kind::ServeChurn).then(|| Churn { edges: &edges, next_edit: 0 });

    // update (quiet; on serve-churn the edits run beside the queries instead)
    let mut update_ms = Vec::new();
    if churn.is_none() {
        let link = &mut ready.links[1];
        let samples = control_phase(cfg, link, budget.update, "UPDATED ", |k| {
            update_requests(spec, &edges, k)
        })?;
        check_floor(cfg, "update", &samples.sample_secs);
        report.phase("update", samples.tally);
        update_ms = samples.mean_ms;
    }

    // reload
    let request = reload_request(spec, &ready.artefacts);
    let samples = control_phase(cfg, &mut ready.links[1], budget.reload, "RELOADED ", |_| {
        vec![request.clone()]
    })?;
    check_floor(cfg, "reload", &samples.sample_secs);
    report.phase("reload", samples.tally);
    let reload_ms = median(&samples.mean_ms);

    // closed, open, rtt: the three query phases
    let mut query_phase = |name: &'static str, plan: Plan| -> Result<Outcome, String> {
        let outcome =
            loadgen::run(&plan, &mut ready.links, &mut ready.stream, churn.as_mut(), &mut off)?;
        check_floor(cfg, name, &outcome.window_secs);
        report.phase(name, outcome.tally);
        grid_replies.extend(&outcome.grid_replies);
        Ok(outcome)
    };
    let plan = closed_plan(cfg, &ready.grid, budget.closed, windows(cfg));
    let answers = (plan.window_requests * spec.answers_per_request() as u64) as f64;
    let closed = query_phase("closed", plan)?;
    let qps: Vec<f64> = closed.window_secs[1..].iter().map(|s| answers / s).collect();
    let mut open = query_phase(
        "open",
        open_plan(cfg, &ready.grid, spec.open_rate, budget.open, windows(cfg)),
    )?;
    let mut rtt = query_phase("rtt", rtt_plan(cfg, &ready.grid, budget.rtt, windows(cfg)))?;

    if churn.is_some() {
        let mut edits = Tally::default();
        let mut per_window = Vec::new();
        // One sample per measured window that saw an edit complete. (A
        // smoke run is too short to leave the warm-up windows out.)
        let skip = if cfg.scale == Scale::Full { 1 } else { 0 };
        for outcome in [&closed, &open, &rtt] {
            edits.add(outcome.edit_tally);
            per_window.extend(outcome.window_edit_ms[skip..].iter().filter(|w| !w.is_empty()));
        }
        report.phase("update", edits);
        update_ms = per_window.into_iter().map(|w| crate::stats::mean(w)).collect();
        if update_ms.is_empty() {
            return Err("serve-churn: no edit completed inside a measured window".into());
        }
    }

    let resident_mb = read_vm_hwm_mb()?;
    // The serving generation's own figure (the packed bytes once
    // `serve-uniform` has reloaded onto the packed index).
    let index_bytes = *stats_over_wire(&mut ready.links[1])?
        .get("index_bytes")
        .ok_or("STATS carries no index_bytes")? as f64;
    let n = ready.instance.graph.num_vertices() as f64;

    let live: Vec<(VertexId, VertexId)> = if churn.is_some() { edges.clone() } else { Vec::new() };
    verify(&mut ready, &grid_replies, &live, &mut report)?;

    // The open loop's latencies are printed for the reader; between runs
    // they spread too widely (p50 20–30%, p99 35–100%) to carry a bound,
    // so the traced run reports them per layer instead.
    println!(
        "open   lat_p50_us={:.1} lat_p99_us={:.1} lateness_p99_us={:.1} backlog_end={} rate={}/s",
        median(&window_quantiles_us(&mut open, 0.50)),
        median(&window_quantiles_us(&mut open, 0.99)),
        percentile_us(&mut open.lateness_ns, 0.99),
        open.backlog_end,
        spec.open_rate,
    );
    let rtt_windows = window_quantiles_us(&mut rtt, 0.50);
    println!("windows qps_closed {:?}", qps.iter().map(|q| q.round()).collect::<Vec<_>>());
    println!("windows rtt_p50_us {rtt_windows:?}");
    println!("samples reload_ms {:?}", samples.mean_ms);
    println!("samples update_ms {update_ms:?}");
    println!("samples build_s {:?}", ready.build_secs);
    println!(
        "closed window_spread={:.4} cpus_available={}",
        iqr_share(&qps),
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(0),
    );
    // (A smoke run shares its CPUs with the rest of the test suite.)
    if cfg.scale == Scale::Full && open.backlog_end > BACKLOG_LIMIT {
        return Err(format!(
            "{}: open-loop backlog still growing at the end ({} unanswered)",
            spec.name, open.backlog_end
        ));
    }

    // The fastest of the three builds: a slow stretch of the host only
    // ever adds time.
    let build_s = ready.build_secs.iter().copied().fold(f64::INFINITY, f64::min);
    report.metric("setup_s", setup_s, "s");
    report.metric("build_s", build_s, "s");
    report.metric("index_bytes_per_vertex", index_bytes / n, "B");
    report.metric("resident_mb", resident_mb, "MB");
    report.metric("qps_closed", median(&qps), "1/s");
    report.metric("rtt_p50_us", median(&rtt_windows), "us");
    report.metric("reload_ms", reload_ms, "ms");
    report.metric("update_ms", median(&update_ms), "ms");

    ready.shutdown();
    Ok(report)
}
