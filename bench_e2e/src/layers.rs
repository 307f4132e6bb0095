//! The traced run (`--trace 1`): the same workload, set up the same way,
//! measured layer by layer.
//!
//! Every timed call into a crate's public function is wrapped in a span
//! recorded from here (spans inside the program are a later change). For
//! a seeded sample of requests the request path is replayed stage by
//! stage under one `request` span — `Decoder::feed`/`next_frame` →
//! `ShardedCache::get` → `ServingIndex::distance_with_timed` (merge,
//! search) → `ShardedCache::insert` → `format_*_response` — and the same
//! request crosses the socket at depth 1 for its `wire.rtt` span. Counts
//! are `STATS` / `METRICS` deltas read over the wire. End-to-end metrics
//! are never printed from here.

use crate::fleet::{self, Fleet, Index};
use crate::loadgen::{self, Tally};
use crate::report::Report;
use crate::rng::Rng;
use crate::run::{self, Config, Ready, BACKLOG_LIMIT, FLOOR_SECS};
use crate::stats::{iqr_share, mean, median, percentile_us};
use crate::trace::{Tracer, NO_REQUEST};
use crate::wire::Link;
use crate::workload::{self, Kind, PairStream, Scale, Spec, BATCH, CACHE_ENTRIES};
use hcl_core::partition::{PartitionMap, ShardRoute};
use hcl_core::update::{apply_edit, EdgeEdit, PairFilter};
use hcl_core::{QueryContext, SharedOracle};
use hcl_graph::VertexId;
use hcl_server::protocol::{self, Decoder, Frame};
use hcl_server::{BatchExecutor, CacheConfig, QueryService, ServingIndex, ShardedCache};
use hcl_store::PackedOracle;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Requests in the replayed sample at full scale.
const SAMPLE: usize = 20_000;
/// The open loop "meets its limit" at a rate when p99 stays under this.
const LATENCY_LIMIT_US: f64 = 5_000.0;
/// Vertices of the side fleet that stands in for a router on the
/// workloads that have none.
const SIDE_FLEET_VERTICES: usize = 20_000;

type Pair = (VertexId, VertexId);

/// A fixed integer loop and a fixed dependent-load chase, run before
/// `setup`, so a drift between two sets of runs can be pinned on the host
/// or on the program. Reported only; no metric is ever rescaled by them.
fn host_calibration(tracer: &mut Tracer) -> (f64, f64) {
    let (_, cpu_ns) = tracer.span("host.calib_cpu", NO_REQUEST, |_| {
        let (mut x, mut sum) = (0x2545_F491_4F6C_DD1Du64, 0u64);
        for _ in 0..100_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sum = sum.wrapping_add(x);
        }
        std::hint::black_box(sum)
    });
    // A single cycle through 64 MB of indices (Sattolo), so every load
    // depends on the one before and misses the nearer caches.
    let len = 1usize << 24;
    let mut next: Vec<u32> = (0..len as u32).collect();
    let mut rng = Rng::new(0xCA11B, 0);
    for i in (1..len).rev() {
        next.swap(i, rng.below(i as u64) as usize);
    }
    let (_, mem_ns) = tracer.span("host.calib_mem", NO_REQUEST, |_| {
        let mut at = 0u32;
        for _ in 0..4_000_000 {
            at = next[at as usize];
        }
        std::hint::black_box(at)
    });
    (cpu_ns as f64 / 1e6, mem_ns as f64 / 1e6)
}

fn sample_size(cfg: &Config) -> usize {
    match cfg.scale {
        Scale::Full => SAMPLE,
        Scale::Smoke => SAMPLE / 20,
    }
}

/// One unsigned field of the single-line `METRICS` JSON.
fn metrics_field(json: &str, key: &str) -> Option<u64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = json[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn stat(stats: &BTreeMap<String, u64>, key: &str) -> f64 {
    stats.get(key).copied().unwrap_or(0) as f64
}

fn request_line(spec: &Spec, pairs: &[Pair]) -> Vec<u8> {
    let mut out = Vec::new();
    loadgen::encode_request(&mut out, spec, pairs.iter().copied());
    out
}

/// The seeded request sample: each request's pairs (one, or a `BATCH`
/// frame's worth), drawn from the workload's own stream.
fn draw_sample(cfg: &Config, ready: &Ready, count: usize) -> Vec<Vec<Pair>> {
    let n = ready.instance.graph.num_vertices();
    let mut stream = PairStream::new(&cfg.spec, n, &ready.grid, cfg.seed, 2);
    let per_request = cfg.spec.answers_per_request();
    // A BATCH request replays 64 pairs, so fewer frames give the same
    // number of stage spans.
    let requests = if cfg.spec.batched() { count / 16 } else { count };
    (0..requests).map(|_| (0..per_request).map(|_| stream.draw_plain()).collect()).collect()
}

/// Depth-1 round trips of `requests` over `link`; returns each one's
/// nanoseconds and records a `name` span per request.
fn depth1(
    tracer: &mut Tracer,
    name: &'static str,
    link: &mut Link,
    requests: &[Vec<u8>],
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::with_capacity(requests.len());
    for (rid, request) in requests.iter().enumerate() {
        let start = tracer.now_ns();
        link.out().extend_from_slice(request);
        let mut good = None;
        while good.is_none() {
            link.flush().map_err(|e| e.to_string())?;
            link.fill().map_err(|e| e.to_string())?;
            link.drain_lines(|line| {
                good = Some(line.starts_with(b"DIST ") || line.starts_with(b"DISTS "))
            });
            if tracer.now_ns() - start > crate::wire::STALL_LIMIT.as_nanos() as u64 {
                return Err(format!("{name}: timeout at depth 1"));
            }
        }
        let end = tracer.now_ns();
        tracer.record(name, rid as u64, start, end);
        tally.sent += 1;
        if good == Some(true) {
            tally.ok += 1;
        } else {
            tally.failed += 1;
        }
        out.push((end - start) as f64);
    }
    Ok(out)
}

/// Replays the server's request path stage by stage on private instances
/// of its public types; one `request` span per sampled request.
fn replay(
    tracer: &mut Tracer,
    spec: &Spec,
    serving: &ServingIndex,
    warm: impl Iterator<Item = Pair>,
    sample: &[Vec<Pair>],
) {
    let cache =
        ShardedCache::new(CacheConfig { capacity: CACHE_ENTRIES, ..CacheConfig::default() });
    let mut ctx = QueryContext::new(serving.num_vertices());
    let mut decoder = Decoder::new();
    // The server's cache is warm long before a window is measured; warm
    // this one the same way, with the workload's own traffic, before
    // timing anything.
    for (s, t) in warm {
        if cache.get(s, t, 0).is_none() {
            cache.insert(s, t, 0, serving.distance_with(&mut ctx, s, t));
        }
    }
    for (rid, pairs) in sample.iter().enumerate() {
        let rid = rid as u64;
        let line = request_line(spec, pairs);
        tracer.span("request", rid, |tr| {
            let (frame, _) = tr.span("server.decode", rid, |_| {
                decoder.feed(&line);
                decoder.next_frame()
            });
            let decoded: Vec<Pair> = match frame {
                Some(Frame::Query(s, t)) => vec![(s, t)],
                Some(Frame::Batch(pairs)) => pairs,
                other => panic!("the replay decoded {other:?} from its own request"),
            };
            let mut answers = Vec::with_capacity(decoded.len());
            for (s, t) in decoded {
                let start = tr.now_ns();
                let hit = cache.get(s, t, 0);
                let end = tr.now_ns();
                match hit {
                    Some(d) => {
                        tr.record("server.cache_get_hit", rid, start, end);
                        answers.push(d);
                    }
                    None => {
                        tr.record("server.cache_get_miss", rid, start, end);
                        let name = if serving.as_packed().is_some() {
                            "store.query"
                        } else {
                            "core.query"
                        };
                        let ((d, _), _) = tr.span(name, rid, |tr| {
                            let at = tr.now_ns();
                            let out = serving.distance_with_timed(&mut ctx, s, t);
                            // The phase split is timed inside the layer;
                            // lay it out as children so self time is the
                            // call's own overhead.
                            tr.record("core.merge", rid, at, at + out.1.merge_ns);
                            if out.1.searched {
                                let from = at + out.1.merge_ns;
                                tr.record("core.search", rid, from, from + out.1.search_ns);
                            }
                            out
                        });
                        tr.span("server.cache_insert", rid, |_| cache.insert(s, t, 0, d));
                        answers.push(d);
                    }
                }
            }
            tr.span("server.encode", rid, |_| {
                std::hint::black_box(if spec.batched() {
                    protocol::format_batch_response(&answers)
                } else {
                    protocol::format_query_response(answers[0])
                })
            });
        });
        // Outside the request: look its first pair up again, now certainly
        // cached, so the hit path has a cost on the workloads that never
        // hit by themselves.
        let (s, t) = pairs[0];
        let start = tracer.now_ns();
        std::hint::black_box(cache.get(s, t, 0));
        tracer.record("server.cache_get_hit", rid, start, tracer.now_ns());
    }
}

/// Times the router's hop on `fleet`: depth-1 round trips of single-owner
/// pairs direct to a shard and through the router, of cross-shard pairs
/// through the router, and the `UPDATE` / `RELOAD` fan-outs.
struct RouterLayer {
    direct_us: f64,
    routed_us: f64,
    cross_us: f64,
    update_fanout_ms: f64,
    reload_fanout_ms: f64,
    counts: [f64; 4],
}

/// A routed fleet to measure: the running servers, their partition, the
/// deployment directory `RELOAD` names and absent edges for `UPDATE`.
struct Routed<'a> {
    fleet: &'a Fleet,
    map: &'a PartitionMap,
    deploy_dir: String,
    edges: &'a [Pair],
}

fn router_layer(
    tracer: &mut Tracer,
    routed_fleet: &Routed,
    requests: usize,
    seed: u64,
    tally: &mut Tally,
) -> Result<RouterLayer, String> {
    let Routed { fleet, map, deploy_dir, edges } = routed_fleet;
    let n = map.num_vertices() as u64;
    let mut rng = Rng::new(seed, 8);
    let (mut single, mut cross) = (Vec::new(), Vec::new());
    while single.len() < requests || cross.len() < requests {
        let (s, t) = (rng.below(n) as VertexId, rng.below(n) as VertexId);
        let line = format!("QUERY {s} {t}\n").into_bytes();
        match map.route(s, t) {
            ShardRoute::Single(0) if single.len() < requests => single.push(line),
            ShardRoute::Scatter(..) if cross.len() < requests => cross.push(line),
            _ => {}
        }
    }
    let mut direct = Link::connect(fleet.shard_addr()).map_err(|e| e.to_string())?;
    let mut routed = Link::connect(fleet.front()).map_err(|e| e.to_string())?;
    let direct_ns = depth1(tracer, "server.rtt_direct", &mut direct, &single, tally)?;
    let routed_ns = depth1(tracer, "router.rtt", &mut routed, &single, tally)?;
    let cross_ns = depth1(tracer, "router.rtt_scatter", &mut routed, &cross, tally)?;

    let mut fanout = |tracer: &mut Tracer, name: &'static str, request: String, expect: &str| {
        let start = tracer.now_ns();
        let reply = routed.call(&request).map_err(|e| e.to_string())?;
        let end = tracer.now_ns();
        tracer.record(name, NO_REQUEST, start, end);
        tally.expect(&request, &reply, expect);
        Ok::<f64, String>((end - start) as f64 / 1e6)
    };
    let mut update_ms = Vec::new();
    for &(u, v) in edges.iter().take(4) {
        update_ms.push(fanout(
            tracer,
            "router.update_fanout",
            format!("UPDATE ADD {u} {v}"),
            "UPDATED ",
        )?);
        update_ms.push(fanout(
            tracer,
            "router.update_fanout",
            format!("UPDATE DEL {u} {v}"),
            "UPDATED ",
        )?);
    }
    // The shards answer `UPDATED` a moment before they free the gate
    // RELOAD shares with it (see `run::control_phase`).
    std::thread::sleep(std::time::Duration::from_millis(5));
    let mut reload_ms = Vec::new();
    for _ in 0..2 {
        reload_ms.push(fanout(
            tracer,
            "router.reload_fanout",
            format!("RELOAD {deploy_dir}"),
            "RELOADED ",
        )?);
    }
    let json = routed.call("METRICS").map_err(|e| e.to_string())?;
    let counts = ["failovers", "retries", "degraded", "parked_dropped"]
        .map(|key| metrics_field(&json, key).unwrap_or(0) as f64);
    Ok(RouterLayer {
        direct_us: median(&direct_ns) / 1e3,
        routed_us: median(&routed_ns) / 1e3,
        cross_us: median(&cross_ns) / 1e3,
        update_fanout_ms: mean(&update_ms),
        reload_fanout_ms: median(&reload_ms),
        counts,
    })
}

/// On a workload without a router, the router layer is measured on a
/// small two-shard fleet of its own, so those rows are real measurements
/// of this build on this host everywhere (and a drift reference), not
/// zeros.
fn side_fleet_router_layer(
    cfg: &Config,
    tracer: &mut Tracer,
    ready: &Ready,
    requests: usize,
    tally: &mut Tally,
) -> Result<RouterLayer, String> {
    let spec = Spec {
        n: SIDE_FLEET_VERTICES,
        ..workload::spec("route-uniform").expect("the routed workload exists")
    };
    let instance = workload::generate(&spec, cfg.scale);
    let map = fleet::exact_partition(&instance)?;
    let (labelling, _) = hcl_core::HighwayCoverLabelling::build_parallel(
        &instance.graph,
        &instance.landmarks,
        workload::BUILD_THREADS,
    )
    .map_err(|e| e.to_string())?;
    let sparse = hcl_core::SparseView::build(&instance.graph, labelling.highway());
    let index = Index {
        graph: Arc::clone(&instance.graph),
        labelling: Arc::new(labelling),
        sparse: Arc::new(sparse),
    };
    let dir = ready.artefacts.path("side-fleet");
    hcl_core::partition::write_deployment(&dir, &index.graph, &index.labelling, &map)
        .map_err(|e| format!("writing the side fleet: {e}"))?;
    let side = Fleet::start(&spec, &index, Some(&map))?;
    let edges = workload::absent_edges(&spec, &instance, 4, cfg.seed);
    let routed = Routed { fleet: &side, map: &map, deploy_dir: dir, edges: &edges };
    let layer = router_layer(tracer, &routed, requests, cfg.seed, tally);
    side.shutdown();
    layer
}

pub fn run_traced(cfg: &Config) -> Result<Report, String> {
    let spec = &cfg.spec;
    let mut tracer = Tracer::new(true);
    let mut report = Report::default();
    let mut wire = Tally::default();
    let (calib_cpu_ms, calib_mem_ms) = host_calibration(&mut tracer);
    let mut ready = run::setup(cfg, &mut tracer)?;
    wire.add(ready.warm.tally);
    let mut grid_replies = std::mem::take(&mut ready.warm.grid_replies);
    let n = ready.instance.graph.num_vertices();
    let nf = n as f64;
    let edges = ready.edges.clone();
    let sample = draw_sample(cfg, &ready, sample_size(cfg));
    let probes = sample_size(cfg) / 10;

    // ---- update: retagged share of the cache, then the router's fan-outs
    let warmed: Vec<Pair> = sample.iter().flatten().copied().take(512).collect();
    let warm_lines: Vec<Vec<u8>> =
        warmed.iter().map(|&(s, t)| format!("QUERY {s} {t}\n").into_bytes()).collect();
    let mut off = Tracer::new(false);
    depth1(&mut off, "warm", &mut ready.links[0], &warm_lines, &mut wire)?;
    let (u, v) = edges[0];
    let call = |link: &mut Link, request: String, expect: &str, wire: &mut Tally| {
        let reply = link.call(&request).map_err(|e| e.to_string())?;
        wire.expect(&request, &reply, expect);
        Ok::<(), String>(())
    };
    call(&mut ready.links[1], format!("UPDATE ADD {u} {v}"), "UPDATED ", &mut wire)?;
    let before = run::stats_over_wire(&mut ready.links[1])?;
    depth1(&mut off, "warm", &mut ready.links[0], &warm_lines, &mut wire)?;
    let after = run::stats_over_wire(&mut ready.links[1])?;
    call(&mut ready.links[1], format!("UPDATE DEL {u} {v}"), "UPDATED ", &mut wire)?;
    if ready.fleet.routed() {
        // Keep the shards' epochs level (see `run::update_requests`).
        let (u, v) = edges[1];
        call(&mut ready.links[1], format!("UPDATE ADD {u} {v}"), "UPDATED ", &mut wire)?;
        call(&mut ready.links[1], format!("UPDATE DEL {u} {v}"), "UPDATED ", &mut wire)?;
    }
    // Of the lookups the second pass made, the share that still hit. (A
    // cross-shard pair looks up on both shards, so count lookups, not
    // requests.)
    let delta = |key: &str| stat(&after, key) - stat(&before, key);
    let retag_kept_share =
        delta("cache_hits") / (delta("cache_hits") + delta("cache_misses")).max(1.0);

    let router = match &ready.partition {
        Some(map) => {
            let routed = Routed {
                fleet: &ready.fleet,
                map,
                deploy_dir: ready.artefacts.path(fleet::DEPLOY_DIR),
                edges: &edges,
            };
            router_layer(&mut tracer, &routed, probes, cfg.seed, &mut wire)?
        }
        None => side_fleet_router_layer(cfg, &mut tracer, &ready, probes, &mut wire)?,
    };

    // ---- reload: the workload's own artefact, once, for `load_us`
    std::thread::sleep(std::time::Duration::from_millis(5));
    let request = run::reload_request(spec, &ready.artefacts);
    let start = tracer.now_ns();
    call(&mut ready.links[1], request, "RELOADED ", &mut wire)?;
    tracer.record("wire.reload", NO_REQUEST, start, tracer.now_ns());
    let reload_load_us = stat(&run::stats_over_wire(&mut ready.links[1])?, "load_us");

    // ---- closed: untraced and traced runs alternating, so a drift of the
    // host lands on both; hit share by STATS delta over the untraced ones
    let windows = if cfg.scale == Scale::Full { 3 } else { 2 };
    let plan = run::closed_plan(cfg, &ready.grid, FLOOR_SECS, windows);
    let answers = (plan.window_requests * spec.answers_per_request() as u64) as f64;
    let (mut qps_untraced, mut qps_traced) = (Vec::new(), Vec::new());
    let (mut hits, mut lookups) = (0.0, 0.0);
    for _ in 0..2 {
        let before = run::stats_over_wire(&mut ready.links[1])?;
        let untraced = loadgen::run(&plan, &mut ready.links, &mut ready.stream, None, &mut off)?;
        let after = run::stats_over_wire(&mut ready.links[1])?;
        let traced = loadgen::run(&plan, &mut ready.links, &mut ready.stream, None, &mut tracer)?;
        let delta = |key: &str| stat(&after, key) - stat(&before, key);
        hits += delta("cache_hits");
        lookups += delta("cache_hits") + delta("cache_misses");
        for (o, qps) in [(&untraced, &mut qps_untraced), (&traced, &mut qps_traced)] {
            qps.extend(o.window_secs[1..].iter().map(|s| answers / s));
            wire.add(o.tally);
            grid_replies.extend(&o.grid_replies);
        }
    }
    let cache_hit_share = hits / f64::max(lookups, 1.0);

    // ---- open: the fixed rate for lateness, then 25/50/75% of saturation
    let plan = run::open_plan(cfg, &ready.grid, spec.open_rate, FLOOR_SECS, 2);
    let mut open = loadgen::run(&plan, &mut ready.links, &mut ready.stream, None, &mut off)?;
    wire.add(open.tally);
    grid_replies.extend(&open.grid_replies);
    let lateness_p99_us = percentile_us(&mut open.lateness_ns, 0.99);
    let lat_p50_us = percentile_us(&mut open.window_latency_ns[1], 0.50);
    let lat_p99_us = percentile_us(&mut open.window_latency_ns[1], 0.99);
    let backlog_end = open.backlog_end as f64;
    let saturation = spec.closed_qps / spec.answers_per_request() as f64;
    let mut max_rate_ok = 0.0;
    for share in [0.25, 0.50, 0.75] {
        let plan = run::open_plan(cfg, &ready.grid, saturation * share, FLOOR_SECS, 2);
        let mut o = loadgen::run(&plan, &mut ready.links, &mut ready.stream, None, &mut off)?;
        wire.add(o.tally);
        grid_replies.extend(&o.grid_replies);
        let p99_us = percentile_us(&mut o.window_latency_ns[1], 0.99);
        if p99_us <= LATENCY_LIMIT_US && o.backlog_end <= BACKLOG_LIMIT && o.tally.failed == 0 {
            max_rate_ok = saturation * share;
        }
    }

    // ---- the sampled requests over the socket at depth 1
    let lines: Vec<Vec<u8>> = sample.iter().map(|pairs| request_line(spec, pairs)).collect();
    let rtt_ns = depth1(&mut tracer, "wire.rtt", &mut ready.links[0], &lines, &mut wire)?;
    let totals = run::stats_over_wire(&mut ready.links[1])?;

    // ---- the same requests replayed stage by stage, in process
    let memory = SharedOracle::from_parts(
        Arc::clone(&ready.index.graph),
        Arc::clone(&ready.index.labelling),
        Arc::clone(&ready.index.sparse),
    );
    let packed_path = ready.artefacts.path(fleet::PACKED_FILE);
    let mut open_ms = Vec::new();
    let mut packed = None;
    for _ in 0..3 {
        let (opened, ns) =
            tracer.span("store.open", NO_REQUEST, |_| PackedOracle::open(&packed_path));
        packed = Some(opened.map_err(|e| format!("opening the packed index: {e}"))?);
        open_ms.push(ns as f64 / 1e6);
    }
    let packed = packed.expect("three opens ran");
    let view_sizes = (
        packed.view().store_bytes() as f64,
        packed.view().packed_index_bytes() as f64,
        packed.view().plain_index_bytes() as f64,
    );
    let serving: ServingIndex = if spec.kind == Kind::ServeUniform {
        ServingIndex::Packed(PackedOracle::open(&packed_path).map_err(|e| e.to_string())?)
    } else {
        ServingIndex::Memory(memory.clone())
    };
    let mut warm_stream = PairStream::new(spec, n, &ready.grid, cfg.seed, 3);
    let warm = (0..4 * sample_size(cfg)).map(|_| warm_stream.draw_plain());
    replay(&mut tracer, spec, &serving, warm, &sample);

    // ---- core and store: the query path on both backends
    let flat: Vec<Pair> = sample.iter().flatten().copied().take(sample_size(cfg)).collect();
    let mut ctx = QueryContext::new(n);
    let (mut merge_ns, mut search_ns, mut bound_exact) = (0u64, 0u64, 0u64);
    let mut query_ns = Vec::with_capacity(flat.len());
    for (rid, &(s, t)) in flat.iter().enumerate() {
        let (_, ns) =
            tracer.span("core.distance_with", rid as u64, |_| memory.distance_with(&mut ctx, s, t));
        query_ns.push(ns as f64);
        let (d, phases) = memory.distance_with_timed(&mut ctx, s, t);
        merge_ns += phases.merge_ns;
        search_ns += phases.search_ns;
        // The label bound alone was already the answer (paper Fig. 9).
        bound_exact += (d == Some(memory.upper_bound(s, t))) as u64;
    }
    let mut packed_ns = Vec::with_capacity(flat.len());
    for (rid, &(s, t)) in flat.iter().enumerate() {
        let (_, ns) = tracer
            .span("store.distance_with", rid as u64, |_| packed.distance_with(&mut ctx, s, t));
        packed_ns.push(ns as f64);
    }
    let mut batch_ns = Vec::new();
    for chunk in flat.chunks_exact(BATCH).take(64) {
        let (_, ns) =
            tracer.span("core.batch_distances", NO_REQUEST, |_| memory.batch_distances(chunk, 1));
        batch_ns.push(ns as f64 / BATCH as f64);
    }

    // ---- graph: full BFS passes
    let mut dist = Vec::new();
    let mut bfs_ms = Vec::new();
    for &s in ready.grid.sources.iter().take(3) {
        let (_, ns) = tracer.span("graph.bfs_full", NO_REQUEST, |_| {
            hcl_graph::traversal::bfs_distances_into(&ready.instance.graph, s, &mut dist)
        });
        bfs_ms.push(ns as f64 / 1e6);
    }

    // ---- core: incremental updates, in process
    let (mut add_ms, mut del_ms, mut filter_ms, mut affected) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let edits = if cfg.scale == Scale::Full { 5 } else { 2 };
    for &edge in edges.iter().skip(8).take(edits) {
        let (add, del) = (EdgeEdit::Add(edge.0, edge.1), EdgeEdit::Delete(edge.0, edge.1));
        let (added, ns) = tracer.span("core.update_add", NO_REQUEST, |_| {
            apply_edit(&ready.index.graph, &ready.index.labelling, &ready.index.sparse, add)
        });
        let added = added.map_err(|e| format!("apply_edit: {e}"))?;
        add_ms.push(ns as f64 / 1e6);
        affected.push(added.affected_vertices as f64);
        let (_, ns) = tracer.span("core.pairfilter", NO_REQUEST, |_| {
            PairFilter::for_edit(&ready.index.graph, &added.graph, add)
        });
        filter_ms.push(ns as f64 / 1e6);
        let (removed, ns) = tracer.span("core.update_del", NO_REQUEST, |_| {
            apply_edit(&added.graph, &added.labelling, &added.sparse, del)
        });
        let removed = removed.map_err(|e| format!("apply_edit: {e}"))?;
        del_ms.push(ns as f64 / 1e6);
        affected.push(removed.affected_vertices as f64);
    }

    // ---- core: what a two-shard range partition does to the pair stream
    let map = match &ready.partition {
        Some(map) => map.clone(),
        None => PartitionMap::range(n, 2, &ready.instance.landmarks),
    };
    let cross =
        flat.iter().filter(|&&(s, t)| matches!(map.route(s, t), ShardRoute::Scatter(..))).count();
    let cut_edges = map.cut_edges(&ready.instance.graph) as f64;
    let mut split_ns = Vec::new();
    for chunk in flat.chunks_exact(BATCH).take(256) {
        let (_, ns) = tracer.span("router.split_batch", NO_REQUEST, |_| {
            std::hint::black_box(hcl_router::aggregate::split_batch(&map, chunk))
        });
        split_ns.push(ns as f64 / BATCH as f64);
    }

    // ---- server: the service front door and the executor hand-off
    let service = Arc::new(QueryService::new(memory.clone(), CACHE_ENTRIES));
    let (mut hit_ns, mut miss_ns) = (Vec::new(), Vec::new());
    for &(s, t) in flat.iter().take(flat.len() / 4) {
        for _ in 0..2 {
            let hits = service.cache_stats().hits;
            let start = Instant::now();
            let _ = std::hint::black_box(service.distance(s, t));
            let ns = start.elapsed().as_nanos() as f64;
            if service.cache_stats().hits > hits { &mut hit_ns } else { &mut miss_ns }.push(ns);
        }
    }
    let executor = BatchExecutor::new(Arc::clone(&service), 1);
    let (mut one_us, mut batch64_us) = (Vec::new(), Vec::new());
    for &pair in flat.iter().take(2_000) {
        let (_, ns) =
            tracer.span("server.executor_roundtrip", NO_REQUEST, |_| executor.execute(&[pair]));
        one_us.push(ns as f64 / 1e3);
    }
    for chunk in flat.rchunks_exact(BATCH).take(128) {
        let (_, ns) =
            tracer.span("server.executor_batch64", NO_REQUEST, |_| executor.execute(chunk));
        batch64_us.push(ns as f64 / 1e3);
    }
    drop(executor);

    // ---- verify, then roll the spans up
    run::verify(&mut ready, &grid_replies, &[], &mut report)?;
    report.phase("wire", wire);

    let rollup = tracer.rollup();
    let self_mean = |name: &str| -> f64 {
        rollup.get(name).map_or(0.0, |r| r.self_ns as f64 / r.count.max(1) as f64)
    };
    let self_total = |name: &str| rollup.get(name).map_or(0.0, |r| r.self_ns as f64);
    let request_ns = rollup.get("request").map_or(1.0, |r| r.total_ns as f64);
    let index_share = ["core.query", "store.query", "core.merge", "core.search"]
        .iter()
        .map(|n| self_total(n))
        .sum::<f64>()
        / request_ns;
    let request_us = median(&tracer.durations("request")) / 1e3;
    // On the routed workload the front door is the router; the server's
    // own round trip is the direct one to a shard.
    let rtt_p50_us = if ready.fleet.routed() { router.direct_us } else { median(&rtt_ns) / 1e3 };
    println!(
        "split  core+store self time = {:.1}% of request ({} requests replayed)",
        index_share * 100.0,
        sample.len()
    );
    println!(
        "split  core.update p50 add={:.3} ms del={:.3} ms pairfilter={:.3} ms",
        median(&add_ms),
        median(&del_ms),
        median(&filter_ms)
    );

    let labels = ready.index.labelling.labels();
    let m = &mut report;
    m.metric("graph.generate_s", ready.generate_secs, "s");
    m.metric("graph.csr_bytes_per_vertex", ready.instance.graph.memory_bytes() as f64 / nf, "B");
    m.metric("graph.bfs_full_ms", median(&bfs_ms), "ms");
    m.metric(
        "core.build_ms_per_landmark",
        median(&ready.build_secs) * 1e3 / ready.instance.landmarks.len() as f64,
        "ms",
    );
    m.metric("core.landmark_select_ms", ready.landmark_secs * 1e3, "ms");
    m.metric("core.sparse_build_ms", ready.sparse_secs * 1e3, "ms");
    m.metric("core.label_entries_per_vertex", labels.total_entries() as f64 / nf, "count");
    m.metric(
        "core.sparse_removed_edge_share",
        ready.index.sparse.removed_edges() as f64 / ready.instance.graph.num_edges() as f64,
        "share",
    );
    m.metric("core.query_ns_p50", median(&query_ns), "ns");
    m.metric("core.query_ns_mean", mean(&query_ns), "ns");
    m.metric("core.merge_ns_mean", merge_ns as f64 / flat.len() as f64, "ns");
    m.metric("core.search_ns_mean", search_ns as f64 / flat.len() as f64, "ns");
    m.metric("core.bound_exact_share", bound_exact as f64 / flat.len() as f64, "share");
    m.metric("core.batch_ns_per_pair", mean(&batch_ns), "ns");
    m.metric("core.update_add_ms_p50", median(&add_ms), "ms");
    m.metric("core.update_del_ms_p50", median(&del_ms), "ms");
    m.metric("core.update_affected_mean", mean(&affected), "count");
    m.metric("core.pairfilter_ms", median(&filter_ms), "ms");
    m.metric("core.partition_cross_share", cross as f64 / flat.len() as f64, "share");
    m.metric("core.partition_cut_edges", cut_edges, "count");
    m.metric("store.pack_ms", ready.pack_secs * 1e3, "ms");
    m.metric("store.open_ms_p50", median(&open_ms), "ms");
    m.metric("store.bytes_per_vertex", view_sizes.0 / nf, "B");
    m.metric("store.packed_over_plain", view_sizes.1 / view_sizes.2, "ratio");
    m.metric("store.query_ns_mean", mean(&packed_ns), "ns");
    m.metric("store.packed_vs_memory_ratio", mean(&query_ns) / mean(&packed_ns), "ratio");
    m.metric("server.decode_ns_per_frame", self_mean("server.decode"), "ns");
    m.metric("server.encode_ns_per_reply", self_mean("server.encode"), "ns");
    m.metric("server.cache_get_hit_ns", self_mean("server.cache_get_hit"), "ns");
    m.metric("server.cache_get_miss_ns", self_mean("server.cache_get_miss"), "ns");
    m.metric("server.cache_insert_ns", self_mean("server.cache_insert"), "ns");
    m.metric("server.service_hit_ns", if hit_ns.is_empty() { 0.0 } else { mean(&hit_ns) }, "ns");
    m.metric("server.service_miss_ns", if miss_ns.is_empty() { 0.0 } else { mean(&miss_ns) }, "ns");
    m.metric("server.executor_roundtrip_us", mean(&one_us), "us");
    m.metric("server.executor_batch64_us", mean(&batch64_us), "us");
    m.metric("server.rtt_depth1_us_p50", rtt_p50_us, "us");
    m.metric("server.wire_overhead_us", rtt_p50_us - request_us, "us");
    m.metric("server.cache_hit_share", cache_hit_share, "share");
    m.metric("server.retag_kept_share", retag_kept_share, "share");
    m.metric("server.reload_load_us", reload_load_us, "us");
    m.metric("server.shed", stat(&totals, "shed_requests"), "count");
    m.metric("server.errors", stat(&totals, "errors"), "count");
    m.metric("server.deadline_expired", stat(&totals, "deadline_expired"), "count");
    m.metric("router.rtt_depth1_us_p50", router.routed_us, "us");
    m.metric("router.hop_overhead_us", router.routed_us - router.direct_us, "us");
    m.metric("router.scatter_overhead_us", router.cross_us - router.routed_us, "us");
    m.metric("router.split_batch_ns_per_pair", mean(&split_ns), "ns");
    m.metric("router.update_fanout_ms", router.update_fanout_ms, "ms");
    m.metric("router.reload_fanout_ms", router.reload_fanout_ms, "ms");
    m.metric("router.failovers", router.counts[0], "count");
    m.metric("router.retries", router.counts[1], "count");
    m.metric("router.degraded", router.counts[2], "count");
    m.metric("router.parked_dropped", router.counts[3], "count");
    m.metric("loadgen.sent", wire.sent as f64, "count");
    m.metric("loadgen.ok", wire.ok as f64, "count");
    m.metric("loadgen.failed", wire.failed as f64, "count");
    m.metric("loadgen.wrong", m.wrong as f64, "count");
    m.metric("loadgen.lat_p50_us", lat_p50_us, "us");
    m.metric("loadgen.lat_p99_us", lat_p99_us, "us");
    m.metric("loadgen.lateness_p99_us", lateness_p99_us, "us");
    m.metric("loadgen.backlog_end", backlog_end, "count");
    m.metric("loadgen.window_spread", iqr_share(&qps_untraced), "share");
    m.metric("loadgen.max_rate_ok", max_rate_ok, "1/s");
    m.metric("trace.overhead_share", median(&qps_traced) / median(&qps_untraced) - 1.0, "share");
    m.metric("host.calib_cpu_ms", calib_cpu_ms, "ms");
    m.metric("host.calib_mem_ms", calib_mem_ms, "ms");

    let out = fleet::out_dir();
    let path = out.join(format!("trace-{}.jsonl", spec.name));
    let staged = out.join(format!("trace-{}.jsonl.{}", spec.name, std::process::id()));
    tracer
        .write_jsonl(&staged)
        .and_then(|()| std::fs::rename(&staged, &path))
        .map_err(|e| format!("writing {path:?}: {e}"))?;
    println!("trace  {} spans written to {}", tracer.len(), path.display());

    ready.shutdown();
    Ok(report)
}
