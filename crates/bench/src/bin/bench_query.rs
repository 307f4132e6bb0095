//! Query-hot-path benchmark: emits `BENCH_query.json`, the committed
//! perf-trajectory artefact (one JSON object per PR touching the query
//! path; CI regenerates it as a build artifact on every run).
//!
//! Measures, on a fixed Barabási–Albert instance:
//!
//! * **queries/sec, sequential** — `SharedOracle::distance_with` with one
//!   caller-held context: label merge + bounded search on the precomputed
//!   sparsified CSR, nothing else;
//! * **queries/sec, batched** — `SharedOracle::batch_distances` through
//!   the pooled fan-out (equal to sequential on a single-core host);
//! * **upper-bound-exact rate** — fraction of query pairs whose label
//!   upper bound is already the exact distance (the paper's Figure 9
//!   coverage metric; these queries never run a search);
//! * **queries/sec, packed** — the same sequential workload answered by a
//!   [`hcl_store::PackedOracle`] merging the label lanes straight out of
//!   the mmapped `.hclx` container (no deserialisation, no decode);
//! * **merge-vs-search phase split** — per-query nanoseconds spent in the
//!   Lemma 5.1 label merge vs the bounded bidirectional search, from one
//!   instrumented pass (`distance_with_timed`), plus per-entry label byte
//!   stats (`avg_label_entries`, packed `label_bytes_per_entry`);
//! * **reload latency** — deserialising reload (graph + plain index from
//!   disk, rebuild the sparsified view) vs packed reload (map the `.hclx`
//!   and validate), best of several runs each;
//! * **incremental update latency** — median single-edge `UPDATE ADD` /
//!   `DEL` through `hcl_core::update::apply_edit` (including the
//!   `PairFilter` the server builds to retag its cache) against the full
//!   `build_parallel` the update replaces (`update_speedup`), and the
//!   `apply_edit` half alone (`update_publish_ms`: what the reply to an
//!   `UPDATE` waits for, now that the filter runs after it);
//! * **patched-over-flat query ratio** — sequential queries/sec on a
//!   generation whose graph and view carry a full overlay of replaced
//!   rows, over the same logical index as flat arrays: the median of the
//!   per-round ratios of interleaved rounds, at least 9 of them
//!   (`patched_query_ratio`: what the overlay probe costs the hot path);
//! * sizes — labelling bytes, sparsified-view bytes/edges, graph bytes,
//!   plus packed store bytes and the packed/plain compression ratio.
//!
//! Usage: `bench_query [--quick] [--out <path>] [--history <path>]`.
//! `--quick` shrinks the instance for CI; without `--out` the JSON goes to
//! stdout only. `--history` **appends** the headline fields as one JSON
//! line to the append-only trajectory (`BENCH_history.jsonl`; one line per
//! side of each PR's A/B) — that file is never rewritten, so a slide
//! across PRs stays visible. The line carries the three index sizes
//! (`index_bytes`, `packed_index_bytes`, `store_bytes`) beside the
//! timings: they are exact for the fixed seed, so a size change shows.
//! It carries both reload timings (`reload_deserialise_ms`,
//! `reload_mmap_ms`) as well as their ratio. Every record carries its
//! provenance — `git_rev` (`-dirty` when the tree has uncommitted
//! changes), `nproc`, and `mode` — so numbers from different machines or
//! configurations are never compared blindly.

use hcl_core::{HighwayCoverLabelling, QueryContext, SharedOracle};
use hcl_graph::generate;
use hcl_workloads::queries::sample_pairs;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

struct Config {
    vertices: usize,
    degree: usize,
    landmarks: usize,
    queries: usize,
    /// Repeat the query set until at least this much wall time has been
    /// measured, so quick mode still reports a stable rate.
    min_seconds: f64,
}

const FULL: Config =
    Config { vertices: 100_000, degree: 8, landmarks: 20, queries: 16_384, min_seconds: 2.0 };
const QUICK: Config =
    Config { vertices: 20_000, degree: 8, landmarks: 20, queries: 4_096, min_seconds: 0.5 };

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let path_arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .map(|i| args.get(i + 1).unwrap_or_else(|| panic!("{flag} requires a path")).clone())
    };
    let out = path_arg("--out");
    let history = path_arg("--history");
    let cfg = if quick { QUICK } else { FULL };

    let g = Arc::new(generate::barabasi_albert(cfg.vertices, cfg.degree, 42));
    let landmark_set = hcl_graph::order::top_degree(&g, cfg.landmarks);
    let build_start = Instant::now();
    let (labelling, _) = HighwayCoverLabelling::build_parallel(&g, &landmark_set, 0).unwrap();
    let build_secs = build_start.elapsed().as_secs_f64();
    let oracle = SharedOracle::new(Arc::clone(&g), Arc::new(labelling));
    let pairs = sample_pairs(g.num_vertices(), cfg.queries, 7);

    // Upper-bound-exact rate over the same workload.
    let mut ctx = QueryContext::new(g.num_vertices());
    let labelling = oracle.labelling();
    let mut exact = 0usize;
    let mut answered = 0usize;
    for &(s, t) in &pairs {
        let bound = labelling.upper_bound_with(&mut ctx, s, t);
        if let Some(d) = oracle.distance_with(&mut ctx, s, t) {
            answered += 1;
            if bound == d {
                exact += 1;
            }
        }
    }
    let ub_exact_rate = exact as f64 / answered.max(1) as f64;

    // Packed store: write the same index as a `.hclx` container next to the
    // plain serialisation, then compare cold-load latency and query rate.
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let graph_path = dir.join(format!("bench_query_{pid}.hclg"));
    let index_path = dir.join(format!("bench_query_{pid}.hcl"));
    let packed_path = dir.join(format!("bench_query_{pid}.hclx"));
    hcl_graph::io::save_binary(&g, &graph_path).unwrap();
    hcl_core::io::save_labelling(labelling, &index_path).unwrap();
    hcl_store::save_packed(labelling, oracle.sparse_view(), &packed_path).unwrap();
    let store_bytes = std::fs::metadata(&packed_path).unwrap().len() as usize;

    // Deserialising reload: what `RELOAD graph.hclg index.hcl` costs —
    // parse both containers and rebuild the sparsified view.
    let reload_deser_secs = (0..3)
        .map(|_| {
            let t = Instant::now();
            let g2 = Arc::new(hcl_graph::io::load_auto(&graph_path).unwrap());
            let l2 = hcl_core::io::load_labelling(&index_path).unwrap();
            black_box(SharedOracle::new(g2, Arc::new(l2)));
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);

    // Packed reload: what `RELOAD index.hclx` costs — map and validate.
    let reload_mmap_secs = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(hcl_store::PackedOracle::open(&packed_path).unwrap());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);

    // Sequential queries/sec, in-memory vs packed. The two loops run
    // *interleaved*, one pass each per round, so transient machine noise
    // (the container is a shared single core) hits both sides equally and
    // the in-run ratio is trustworthy even when absolute rates wobble.
    let packed = hcl_store::PackedOracle::open(&packed_path).unwrap();
    let packed_index_bytes = packed.view().packed_index_bytes();
    let plain_index_bytes = packed.view().plain_index_bytes();
    let label_data_bytes = packed.view().label_data_bytes();
    let mut seq_secs = 0.0f64;
    let mut packed_secs = 0.0f64;
    let mut passes = 0u32;
    while seq_secs < cfg.min_seconds || packed_secs < cfg.min_seconds {
        let t = Instant::now();
        for &(s, t) in &pairs {
            black_box(oracle.distance_with(&mut ctx, s, t));
        }
        seq_secs += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for &(s, t) in &pairs {
            black_box(packed.distance_with(&mut ctx, s, t));
        }
        packed_secs += t.elapsed().as_secs_f64();
        passes += 1;
    }
    let seq_qps = (passes as f64 * pairs.len() as f64) / seq_secs;
    let packed_qps = (passes as f64 * pairs.len() as f64) / packed_secs;
    drop(packed);
    for p in [&graph_path, &index_path, &packed_path] {
        let _ = std::fs::remove_file(p);
    }

    // Merge-vs-search phase split: one instrumented pass with the timed
    // query path. The two `Instant` reads per query keep this off the raw
    // throughput loops above; here they *are* the measurement.
    let mut merge_ns = 0u64;
    let mut search_ns = 0u64;
    for &(s, t) in &pairs {
        let (d, phases) = oracle.distance_with_timed(&mut ctx, s, t);
        black_box(d);
        merge_ns += phases.merge_ns;
        search_ns += phases.search_ns;
    }
    let merge_ns_per_query = merge_ns as f64 / pairs.len() as f64;
    let bfs_ns_per_query = search_ns as f64 / pairs.len() as f64;

    // Batched queries/sec through the pooled fan-out (all cores).
    let mut batch_passes = 0u32;
    let batch_start = Instant::now();
    loop {
        black_box(oracle.batch_distances(&pairs, 0));
        batch_passes += 1;
        if batch_start.elapsed().as_secs_f64() >= cfg.min_seconds {
            break;
        }
    }
    let batch_qps =
        (batch_passes as f64 * pairs.len() as f64) / batch_start.elapsed().as_secs_f64();

    // Incremental update latency: median wall time for one edge insert /
    // delete through `hcl_core::update::apply_edit`, *including* the
    // `PairFilter` construction the server pays to retag its cache —
    // the full cost of publishing a patched generation — against the
    // from-scratch `build_parallel` the update replaces.
    use hcl_core::update::{apply_edit, EdgeEdit, PairFilter};
    let absent: Vec<(u32, u32)> = sample_pairs(g.num_vertices(), 1024, 13)
        .into_iter()
        .filter(|&(s, t)| s != t && !g.has_edge(s, t))
        .collect();
    let mut add_ms: Vec<f64> = Vec::new();
    let mut del_ms: Vec<f64> = Vec::new();
    let mut publish_ms: Vec<f64> = Vec::new();
    for &(s, t) in absent.iter().take(7) {
        let t0 = Instant::now();
        let added =
            apply_edit(&g, oracle.labelling(), oracle.sparse_view(), EdgeEdit::Add(s, t)).unwrap();
        publish_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        black_box(PairFilter::for_edit(&g, &added.graph, EdgeEdit::Add(s, t)));
        add_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let deleted =
            apply_edit(&added.graph, &added.labelling, &added.sparse, EdgeEdit::Delete(s, t))
                .unwrap();
        publish_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        black_box(PairFilter::for_edit(&added.graph, &deleted.graph, EdgeEdit::Delete(s, t)));
        del_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let median = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.total_cmp(b));
        xs[xs.len() / 2]
    };
    let update_add_ms = median(&mut add_ms);
    let update_del_ms = median(&mut del_ms);
    let update_publish_ms = median(&mut publish_ms);

    // Patched over flat: add and delete distinct absent edges until the
    // next edit would fold the graph's overlay. The generation then equals
    // `oracle`'s logically, with a full overlay on the graph and on the
    // view the searches traverse — same pairs, passes interleaved.
    let mut parts = ((*g).clone(), oracle.labelling().clone(), oracle.sparse_view().clone());
    for &(s, t) in &absent {
        if parts.0.overlay_rows() + 2 > hcl_graph::CsrGraph::OVERLAY_MAX_ROWS {
            break;
        }
        for edit in [EdgeEdit::Add(s, t), EdgeEdit::Delete(s, t)] {
            let r = apply_edit(&parts.0, &parts.1, &parts.2, edit).unwrap();
            parts = (r.graph, r.labelling, r.sparse);
        }
    }
    let overlay_rows = parts.0.overlay_rows() + parts.2.graph().overlay_rows();
    assert!(parts.0 == *g && parts.2 == *oracle.sparse_view(), "ADD then DEL is a no-op");
    let patched = SharedOracle::from_parts(Arc::new(parts.0), Arc::new(parts.1), Arc::new(parts.2));
    // Interleaved rounds of one pass per side, the side that goes first
    // alternating; the ratio is the median of the rounds' flat/patched
    // ratios, so a round the host disturbed moves it no more than any
    // other round does. Each side keeps its own loop: one loop shared
    // through a closure read 0.92–0.95 against 0.96–0.97 here, on code
    // placement alone.
    let (mut ratios, mut spent) = (Vec::new(), 0.0f64);
    while ratios.len() < 9 || spent < 2.0 * cfg.min_seconds {
        let mut secs = [0.0f64; 2];
        for side in [ratios.len() % 2, 1 - ratios.len() % 2] {
            let t = Instant::now();
            if side == 0 {
                for &(s, t) in &pairs {
                    black_box(oracle.distance_with(&mut ctx, s, t));
                }
            } else {
                for &(s, t) in &pairs {
                    black_box(patched.distance_with(&mut ctx, s, t));
                }
            }
            secs[side] = t.elapsed().as_secs_f64();
        }
        spent += secs[0] + secs[1];
        ratios.push(secs[0] / secs[1]);
    }
    let patched_query_ratio = median(&mut ratios);
    // The update patches the sparse view in place, so the rebuild it is
    // measured against must pay for re-sparsifying too — the same pair of
    // steps a server runs on RELOAD.
    let t0 = Instant::now();
    black_box(hcl_core::SparseView::build(&g, oracle.labelling().highway()));
    let rebuild_ms = build_secs * 1e3 + t0.elapsed().as_secs_f64() * 1e3;
    let update_speedup = rebuild_ms / update_add_ms.max(update_del_ms).max(1e-9);
    let reload_speedup = reload_deser_secs / reload_mmap_secs.max(1e-9);

    let view = oracle.sparse_view();
    let mode = if quick { "quick" } else { "full" };
    let git_rev = git_rev();
    let nproc = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"query\",\n  \"mode\": \"{}\",\n  \"git_rev\": \"{}\",\n  \
         \"nproc\": {},\n  \"vertices\": {},\n  \
         \"edges\": {},\n  \"landmarks\": {},\n  \"queries\": {},\n  \
         \"build_seconds\": {:.3},\n  \"queries_per_sec_sequential\": {:.0},\n  \
         \"queries_per_sec_batched\": {:.0},\n  \"queries_per_sec_packed\": {:.0},\n  \
         \"upper_bound_exact_rate\": {:.4},\n  \
         \"merge_ns_per_query\": {:.0},\n  \"bfs_ns_per_query\": {:.0},\n  \
         \"avg_label_entries\": {:.2},\n  \"label_bytes_per_entry\": {:.3},\n  \
         \"index_bytes\": {},\n  \"sparse_view_bytes\": {},\n  \"sparse_view_edges\": {},\n  \
         \"graph_bytes\": {},\n  \"store_bytes\": {},\n  \"packed_index_bytes\": {},\n  \
         \"plain_index_bytes\": {},\n  \"packed_over_plain_ratio\": {:.4},\n  \
         \"reload_deserialise_ms\": {:.2},\n  \"reload_mmap_ms\": {:.3},\n  \
         \"reload_speedup\": {:.1},\n  \
         \"update_add_ms\": {:.3},\n  \"update_del_ms\": {:.3},\n  \
         \"update_publish_ms\": {:.4},\n  \
         \"rebuild_ms\": {:.1},\n  \"update_speedup\": {:.1},\n  \
         \"overlay_rows\": {},\n  \"patched_query_ratio\": {:.3}\n}}",
        mode,
        git_rev,
        nproc,
        g.num_vertices(),
        g.num_edges(),
        cfg.landmarks,
        pairs.len(),
        build_secs,
        seq_qps,
        batch_qps,
        packed_qps,
        ub_exact_rate,
        merge_ns_per_query,
        bfs_ns_per_query,
        labelling.labels().avg_label_size(),
        label_data_bytes as f64 / labelling.labels().total_entries().max(1) as f64,
        labelling.index_bytes(),
        view.memory_bytes(),
        view.num_edges(),
        g.memory_bytes(),
        store_bytes,
        packed_index_bytes,
        plain_index_bytes,
        packed_index_bytes as f64 / plain_index_bytes.max(1) as f64,
        reload_deser_secs * 1e3,
        reload_mmap_secs * 1e3,
        reload_speedup,
        update_add_ms,
        update_del_ms,
        update_publish_ms,
        rebuild_ms,
        update_speedup,
        overlay_rows,
        patched_query_ratio,
    );
    println!("{json}");
    if let Some(path) = out {
        std::fs::write(&path, format!("{json}\n")).expect("writing BENCH_query.json");
        eprintln!("wrote {path}");
    }
    if let Some(path) = history {
        use std::io::Write;
        let line = format!(
            "{{\"bench\": \"query\", \"mode\": \"{mode}\", \"git_rev\": \"{git_rev}\", \
             \"nproc\": {nproc}, \"queries_per_sec_sequential\": {seq_qps:.0}, \
             \"queries_per_sec_packed\": {packed_qps:.0}, \
             \"merge_ns_per_query\": {merge_ns_per_query:.0}, \
             \"bfs_ns_per_query\": {bfs_ns_per_query:.0}, \
             \"reload_deserialise_ms\": {:.2}, \"reload_mmap_ms\": {:.3}, \
             \"reload_speedup\": {reload_speedup:.1}, \
             \"update_publish_ms\": {update_publish_ms:.4}, \
             \"update_add_ms\": {update_add_ms:.3}, \"update_del_ms\": {update_del_ms:.3}, \
             \"rebuild_ms\": {rebuild_ms:.1}, \"update_speedup\": {update_speedup:.1}, \
             \"patched_query_ratio\": {patched_query_ratio:.3}, \
             \"index_bytes\": {}, \"packed_index_bytes\": {packed_index_bytes}, \
             \"store_bytes\": {store_bytes}}}\n",
            reload_deser_secs * 1e3,
            reload_mmap_secs * 1e3,
            labelling.index_bytes(),
        );
        // Append-only: the trajectory is never truncated or rewritten.
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .expect("appending to the benchmark history");
        eprintln!("appended to {path}");
    }
}

/// The commit the numbers were measured at (`unknown` outside a git
/// checkout), so trajectory entries are comparable across PRs.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=7"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
