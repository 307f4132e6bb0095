//! `hcl` — command-line interface for highway cover labellings.
//!
//! ```text
//! hcl gen   --dataset Skitter [--scale 1.0] --out graph.hclg
//! hcl gen   --ba 100000,8 [--seed 42] --out graph.hclg
//! hcl stats graph.hclg
//! hcl build graph.hclg --landmarks 20 [--threads 0] [--format plain|packed] --out index.hcl
//! hcl pack  graph.hclg index.hcl --out index.hclx
//! hcl query graph.hclg index.hcl <s> <t> [<s> <t> ...]
//! hcl random-queries graph.hclg index.hcl [--count 1000] [--seed 7]
//! hcl serve graph.hclg index.hcl [--port 7777] [--threads 0] [--cache 65536]
//!           [--landmarks 20] [--max-conns 1024] [--idle-timeout 600]
//!           [--max-pending 65536] [--request-deadline-ms 0]
//! hcl serve index.hclx [same flags]      # packed: served zero-copy via mmap
//! hcl client 127.0.0.1:7777 query <s> <t> [<s> <t> ...]
//! hcl client 127.0.0.1:7777 stats|ping|epoch|shutdown
//! hcl client 127.0.0.1:7777 reload graph.hclg [index.hcl]
//! hcl client 127.0.0.1:7777 update add|del <u> <v>
//! hcl reload 127.0.0.1:7777 graph.hclg [index.hcl]
//! ```
//!
//! Graphs use the binary container of `hcl_graph::io` (generate one with
//! `gen`, or convert an edge list by passing a `.txt`/`.el` path anywhere a
//! graph is expected). `serve` exposes the index over the `hcl_server`
//! line protocol; `client` talks to a running server.

use hcl_core::landmarks::LandmarkStrategy;
use hcl_core::{HighwayCoverLabelling, HlOracle};
use hcl_graph::{stats::GraphStats, CsrGraph};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("pack") => cmd_pack(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("random-queries") => cmd_random_queries(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("partition") => cmd_partition(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("reload") => cmd_reload(&args[1..]),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
hcl — highway cover labelling toolkit (EDBT 2019 reproduction)

USAGE:
  hcl gen   --dataset <name> [--scale <f>] --out <graph file>
  hcl gen   --ba <n>,<deg> | --web <n>,<deg> | --er <n>,<m> [--seed <s>] --out <file>
  hcl stats <graph file>
  hcl build <graph file> [--landmarks <k>] [--threads <t>]
            [--format plain|packed] --out <index file>
  hcl pack  <graph file> <index file> --out <packed .hclx file>
  hcl query <graph file> <index file> <s> <t> [<s> <t> ...]
  hcl random-queries <graph file> <index file> [--count <c>] [--seed <s>]
  hcl serve <graph file> <index file> [--host <h>] [--port <p>] [--threads <t>]
            [--cache <entries>] [--landmarks <k>] [--max-conns <n>]
            [--idle-timeout <secs>] [--max-pending <n>]
            [--request-deadline-ms <ms>]
  hcl serve <packed .hclx file> [same flags]
  hcl partition <graph file> --shards <n> --out-dir <dir> [--strategy hash|range]
            [--landmarks <k>] [--threads <t>] [--format plain|packed]
            [--replicas <r>]
  hcl route --partition <file> --shards <addr>,<addr>,... [--replicas <r>]
            [--host <h>] [--port <p>] [--max-conns <n>] [--idle-timeout <secs>]
            [--window <n>] [--max-parked <n>]
  hcl client <addr> query <s> <t> [<s> <t> ...]
  hcl client <addr> stats | metrics | ping | epoch | shutdown
  hcl client <addr> reload <graph file> [<index file>]
  hcl client <addr> update add|del <u> <v>
  hcl reload <addr> <graph file> [<index file>]

Graph files ending in .txt/.el are parsed as whitespace edge lists;
anything else uses the binary container.

pack rewrites a graph + plain index into one self-contained .hclx file
(docs/FORMAT.md): label rank and distance lanes (one byte each per
entry), highway matrix and the sparsified query CSR, checksummed per
section. build --format packed does the same
in one step. serve given a single .hclx maps it read-only and answers
queries straight out of the page cache — no deserialisation — and RELOAD
with a .hclx path swaps generations by remapping.

serve answers QUERY/BATCH/STATS requests over a newline-delimited TCP
protocol until a client sends SHUTDOWN (--cache 0 disables the distance
cache; --port 0 picks an ephemeral port, printed on startup). One epoll
reactor thread drives every connection: --max-conns caps how many are
open at once (overflow gets one ERR line and a close) and --idle-timeout
closes connections quiet for that many seconds (0 disables). Overload
protection: --max-pending caps queued pair-lookups (a QUERY is 1, a
BATCH k is k; overflow is shed with ERR busy, 0 removes the cap), and
--request-deadline-ms answers requests still queued past that budget
with ERR deadline expired instead of stale data (0, the default,
disables). route --max-parked bounds how many requests wait per shard
for a reconnecting replica group; overflow is shed with ERR busy
(0 unbounds). See docs/PROTOCOL.md section 3.1.

reload hot-swaps the serving index without dropping connections: the
paths are read by the *server* process; in-flight queries finish on the
old index, new queries see the new one. Without an index file the server
rebuilds the labelling from the graph's top-degree landmarks (serve
--landmarks sets how many).

update applies one incremental edge insert (add) or delete (del) to the
in-memory index — the server patches only the affected labels instead of
rebuilding, publishes the result as a new epoch, and reports how many
vertices were relabelled. Through the router the edit fans out to every
replica of the shards owning either endpoint, confirmed all-or-nothing
like reload. Packed (mmap-served) generations refuse updates; reload a
plain in-memory index first.

partition splits a graph into a sharded deployment directory: one graph
file per shard (G[Vi + R], original id space), the shared global index,
and the partition map. Each shard is then an ordinary
`hcl serve <dir>/shardI.hclg <dir>/index.hcl`; route puts the router in
front (one address per shard, in shard order) and speaks the same
protocol to clients, so `hcl client` works unchanged. With
--format packed each shard is one self-contained <dir>/shardI.hclx
served as `hcl serve <dir>/shardI.hclx`. RELOAD through the router takes
the deployment directory either way. See docs/PROTOCOL.md.

route --replicas r expects r addresses per shard (shard 0's replicas
first, then shard 1's, ...); every replica of a shard serves the same
shard files. The router sends traffic to the first healthy replica,
fails pipelined requests over to siblings mid-flight, probes idle
replicas with PING, and — when a whole replica group is down — answers
queries with tagged upper bounds (DIST~) from the surviving shards
instead of erroring. partition --replicas stamps the intended count into
the partition map so route defaults to it. client metrics prints the
router's (or server's) JSON health counters.
";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn load_graph(path: &str) -> Result<CsrGraph, String> {
    hcl_graph::io::load_auto(path).map_err(|e| format!("loading {path}: {e}"))
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let out = flag(args, "--out").ok_or("gen requires --out <file>")?;
    let seed: u64 = parse_flag(args, "--seed", 42)?;

    let parse_pair = |spec: &str, what: &str| -> Result<(usize, usize), String> {
        let (a, b) = spec.split_once(',').ok_or(format!("--{what} wants <a>,<b>"))?;
        Ok((
            a.parse().map_err(|e| format!("--{what}: {e}"))?,
            b.parse().map_err(|e| format!("--{what}: {e}"))?,
        ))
    };

    let g = if let Some(name) = flag(args, "--dataset") {
        let scale: f64 = parse_flag(args, "--scale", 1.0)?;
        let spec = hcl_workloads::datasets::dataset_by_name(&name)
            .ok_or(format!("unknown dataset {name:?}"))?;
        spec.generate(scale)
    } else if let Some(spec) = flag(args, "--ba") {
        let (n, d) = parse_pair(&spec, "ba")?;
        hcl_graph::generate::barabasi_albert(n, d, seed)
    } else if let Some(spec) = flag(args, "--web") {
        let (n, d) = parse_pair(&spec, "web")?;
        hcl_graph::generate::web_copying(n, d, 0.25, seed)
    } else if let Some(spec) = flag(args, "--er") {
        let (n, m) = parse_pair(&spec, "er")?;
        hcl_graph::generate::erdos_renyi(n, m, seed)
    } else {
        return Err("gen requires one of --dataset/--ba/--web/--er".to_string());
    };

    hcl_graph::io::save_binary(&g, &out).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} ({} vertices, {} edges)", out, g.num_vertices(), g.num_edges());
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("stats requires a graph file")?;
    let g = load_graph(path)?;
    let s = GraphStats::compute(&g);
    let (_, components) = hcl_graph::connectivity::connected_components(&g);
    println!("n          {}", s.n);
    println!("m          {}", s.m);
    println!("m/n        {:.2}", s.m_over_n);
    println!("avg deg    {:.3}", s.avg_degree);
    println!("max deg    {}", s.max_degree);
    println!("|G|        {}", hcl_graph::stats::format_bytes(s.memory_bytes));
    println!("components {components}");
    Ok(())
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("build requires a graph file")?;
    let out = flag(args, "--out").ok_or("build requires --out <index file>")?;
    let k: usize = parse_flag(args, "--landmarks", 20)?;
    let threads: usize = parse_flag(args, "--threads", 0)?;
    let format = flag(args, "--format").unwrap_or_else(|| "plain".to_string());

    let g = load_graph(path)?;
    let landmarks = LandmarkStrategy::TopDegree(k).select(&g);
    let (labelling, stats) = HighwayCoverLabelling::build_parallel(&g, &landmarks, threads)
        .map_err(|e| format!("building labelling: {e}"))?;
    println!(
        "built {} label entries in {:?} ({} edges traversed, {} adjacency entries scanned)",
        stats.labels_added, stats.duration, stats.edges_traversed, stats.rows_scanned
    );
    match format.as_str() {
        "plain" => {
            hcl_core::io::save_labelling(&labelling, &out)
                .map_err(|e| format!("writing {out}: {e}"))?;
            let bytes = std::fs::metadata(&out).map_err(|e| format!("stat {out}: {e}"))?.len();
            println!("wrote {out} ({bytes} bytes)");
        }
        "packed" => save_packed_index(&g, &labelling, &out)?,
        other => return Err(format!("unknown format {other:?} (plain or packed)")),
    }
    Ok(())
}

/// Packs `labelling` plus the sparsified view of `g` into `out` and prints
/// the on-disk size against the plain serialisation it replaces.
fn save_packed_index(
    g: &CsrGraph,
    labelling: &HighwayCoverLabelling,
    out: &str,
) -> Result<(), String> {
    let sparse = hcl_core::SparseView::build(g, labelling.highway());
    hcl_store::save_packed(labelling, &sparse, out).map_err(|e| format!("writing {out}: {e}"))?;
    let store_bytes =
        std::fs::metadata(out).map_err(|e| format!("stat {out}: {e}"))?.len() as usize;
    let plain = hcl_store::plain_index_bytes(
        g.num_vertices(),
        labelling.num_landmarks(),
        labelling.labels().total_entries(),
    );
    println!(
        "wrote {out}: {} packed ({:.2}x of the {} plain index, sparse view included)",
        hcl_graph::stats::format_bytes(store_bytes),
        store_bytes as f64 / plain.max(1) as f64,
        hcl_graph::stats::format_bytes(plain),
    );
    Ok(())
}

fn cmd_pack(args: &[String]) -> Result<(), String> {
    let graph_path = args.first().ok_or("pack requires a graph file")?;
    let index_path = args.get(1).ok_or("pack requires a plain index file")?;
    let out = flag(args, "--out").ok_or("pack requires --out <packed .hclx file>")?;

    let g = load_graph(graph_path)?;
    let labelling =
        hcl_core::io::load_labelling(index_path).map_err(|e| format!("loading index: {e}"))?;
    if labelling.labels().num_vertices() != g.num_vertices() {
        return Err(format!(
            "index has {} vertices but graph has {} — wrong index for this graph?",
            labelling.labels().num_vertices(),
            g.num_vertices()
        ));
    }
    save_packed_index(&g, &labelling, &out)
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let graph_path = args.first().ok_or("query requires a graph file")?;
    let index_path = args.get(1).ok_or("query requires an index file")?;
    let rest = &args[2..];
    if rest.is_empty() || !rest.len().is_multiple_of(2) {
        return Err("query requires an even number of vertex ids".to_string());
    }
    let g = load_graph(graph_path)?;
    let labelling =
        hcl_core::io::load_labelling(index_path).map_err(|e| format!("loading index: {e}"))?;
    let mut oracle = HlOracle::new(&g, labelling);
    for chunk in rest.chunks(2) {
        let s: u32 = chunk[0].parse().map_err(|e| format!("vertex {:?}: {e}", chunk[0]))?;
        let t: u32 = chunk[1].parse().map_err(|e| format!("vertex {:?}: {e}", chunk[1]))?;
        if (s as usize) >= g.num_vertices() || (t as usize) >= g.num_vertices() {
            return Err(format!("vertex out of range (n = {})", g.num_vertices()));
        }
        match oracle.query(s, t) {
            Some(d) => println!("d({s}, {t}) = {d}"),
            None => println!("d({s}, {t}) = unreachable"),
        }
    }
    Ok(())
}

fn cmd_random_queries(args: &[String]) -> Result<(), String> {
    let graph_path = args.first().ok_or("random-queries requires a graph file")?;
    let index_path = args.get(1).ok_or("random-queries requires an index file")?;
    let count: usize = parse_flag(args, "--count", 1_000)?;
    let seed: u64 = parse_flag(args, "--seed", 7)?;

    let g = load_graph(graph_path)?;
    let labelling =
        hcl_core::io::load_labelling(index_path).map_err(|e| format!("loading index: {e}"))?;
    let mut oracle = HlOracle::new(&g, labelling);
    let pairs = hcl_workloads::queries::sample_pairs(g.num_vertices(), count, seed);
    let start = std::time::Instant::now();
    let mut dist = hcl_workloads::queries::DistanceDistribution::default();
    for &(s, t) in &pairs {
        dist.record(oracle.query(s, t));
    }
    let elapsed = start.elapsed();
    println!(
        "{count} queries in {elapsed:?} ({:.2} µs/query), mean distance {:.2}, {} unreachable",
        elapsed.as_micros() as f64 / count as f64,
        dist.mean(),
        dist.unreachable
    );
    Ok(())
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    flag(args, name)
        .map(|s| s.parse())
        .transpose()
        .map_err(|e| format!("{name}: {e}"))
        .map(|v| v.unwrap_or(default))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let graph_path = args.first().ok_or("serve requires a graph file or a packed .hclx index")?;
    let host = flag(args, "--host").unwrap_or_else(|| "127.0.0.1".to_string());
    let port: u16 = parse_flag(args, "--port", 7777)?;
    let threads: usize = parse_flag(args, "--threads", 0)?;
    let cache: usize = parse_flag(args, "--cache", 1 << 16)?;
    let landmarks: usize = parse_flag(args, "--landmarks", 20)?;
    let defaults = hcl_server::ServerConfig::default();
    let max_conns: usize = parse_flag(args, "--max-conns", defaults.max_connections)?;
    let idle_secs: u64 = parse_flag(args, "--idle-timeout", defaults.idle_timeout.as_secs())?;
    let mut max_pending: usize = parse_flag(args, "--max-pending", defaults.max_pending)?;
    if max_pending == 0 {
        max_pending = usize::MAX; // 0 = uncapped
    }
    let deadline_ms: u64 = parse_flag(args, "--request-deadline-ms", 0)?;

    let service = if hcl_store::is_packed_path(graph_path) {
        let oracle = hcl_store::PackedOracle::open(graph_path)
            .map_err(|e| format!("opening {graph_path}: {e}"))?;
        let service = Arc::new(hcl_server::QueryService::with_index(
            hcl_server::ServingIndex::Packed(oracle),
            cache,
        ));
        let sizes = service.index_sizes();
        println!(
            "packed index mapped zero-copy: store {} ({:.2}x of the {} plain index), \
             sparsified view {} edges ({})",
            hcl_graph::stats::format_bytes(sizes.store_bytes),
            sizes.index_bytes as f64 / sizes.plain_index_bytes.max(1) as f64,
            hcl_graph::stats::format_bytes(sizes.plain_index_bytes),
            sizes.sparse_edges,
            hcl_graph::stats::format_bytes(sizes.sparse_bytes),
        );
        service
    } else {
        let index_path =
            args.get(1).ok_or("serve requires an index file (or a single packed .hclx)")?;
        let g = Arc::new(load_graph(graph_path)?);
        let labelling =
            hcl_core::io::load_labelling(index_path).map_err(|e| format!("loading index: {e}"))?;
        if labelling.labels().num_vertices() != g.num_vertices() {
            return Err(format!(
                "index has {} vertices but graph has {} — wrong index for this graph?",
                labelling.labels().num_vertices(),
                g.num_vertices()
            ));
        }
        let service = Arc::new(hcl_server::QueryService::from_parts(g, Arc::new(labelling), cache));
        let sizes = service.index_sizes();
        println!(
            "query fast path: sparsified view {} edges ({}), index {}",
            sizes.sparse_edges,
            hcl_graph::stats::format_bytes(sizes.sparse_bytes),
            hcl_graph::stats::format_bytes(sizes.index_bytes),
        );
        service
    };
    let config = hcl_server::ServerConfig {
        batch_threads: threads,
        reload_landmarks: landmarks,
        max_connections: max_conns,
        idle_timeout: std::time::Duration::from_secs(idle_secs),
        max_pending,
        // 0 disables; a zero deadline proper would expire everything.
        request_deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        ..Default::default()
    };
    let vertices = service.num_vertices();
    let handle = hcl_server::Server::bind(service, (host.as_str(), port), config)
        .map_err(|e| format!("binding {host}:{port}: {e}"))?;
    println!(
        "serving {} ({} vertices) on {} — cache {} entries, up to {} connections, \
         send SHUTDOWN to stop",
        graph_path,
        vertices,
        handle.local_addr(),
        cache,
        max_conns
    );
    handle.join();
    println!("server stopped");
    Ok(())
}

fn cmd_partition(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("partition requires a graph file")?;
    let out_dir = flag(args, "--out-dir").ok_or("partition requires --out-dir <dir>")?;
    let shards: u32 = parse_flag(args, "--shards", 2)?;
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    let k: usize = parse_flag(args, "--landmarks", 20)?;
    let threads: usize = parse_flag(args, "--threads", 0)?;
    let strategy = flag(args, "--strategy").unwrap_or_else(|| "range".to_string());
    let format = flag(args, "--format").unwrap_or_else(|| "plain".to_string());
    let packed = match format.as_str() {
        "plain" => false,
        "packed" => true,
        other => return Err(format!("unknown format {other:?} (plain or packed)")),
    };

    let replicas: u32 = parse_flag(args, "--replicas", 1)?;
    if replicas == 0 {
        return Err("--replicas must be at least 1".to_string());
    }

    let g = load_graph(path)?;
    let landmarks = LandmarkStrategy::TopDegree(k).select(&g);
    let map = match strategy.as_str() {
        "hash" => hcl_core::PartitionMap::hash(g.num_vertices(), shards, &landmarks),
        "range" => hcl_core::PartitionMap::range(g.num_vertices(), shards, &landmarks),
        other => return Err(format!("unknown strategy {other:?} (hash or range)")),
    }
    .with_replicas(replicas);
    let (labelling, stats) = HighwayCoverLabelling::build_parallel(&g, &landmarks, threads)
        .map_err(|e| format!("building labelling: {e}"))?;
    println!("built global labelling: {} entries in {:?}", stats.labels_added, stats.duration);

    let summary = if packed {
        hcl_store::write_packed_deployment(&out_dir, &g, &labelling, &map)
            .map_err(|e| format!("writing packed deployment to {out_dir}: {e}"))?
    } else {
        hcl_core::partition::write_deployment(&out_dir, &g, &labelling, &map)
            .map_err(|e| format!("writing deployment to {out_dir}: {e}"))?
    };
    for (shard, (vertices, edges)) in
        summary.shard_vertices.iter().zip(&summary.shard_edges).enumerate()
    {
        let filename = if packed {
            hcl_core::partition::shard_packed_filename(shard as u32)
        } else {
            hcl_core::partition::shard_graph_filename(shard as u32)
        };
        println!("shard{shard}: {vertices} owned vertices, {edges} edges -> {out_dir}/{filename}");
    }
    println!(
        "cut edges (in no shard): {} of {} ({:.2}%)",
        summary.cut_edges,
        g.num_edges(),
        100.0 * summary.cut_edges as f64 / g.num_edges().max(1) as f64
    );
    if summary.exact {
        println!("partition respects G[V\\R] components: every routed query is exact");
    } else {
        println!(
            "warning: partition cuts G[V\\R] components — cross-shard queries whose \
             shortest paths avoid landmarks degrade to upper bounds (see docs/PROTOCOL.md)"
        );
    }
    if packed {
        println!(
            "deployment ready: hcl serve {out_dir}/shardI.hclx per shard, \
             then hcl route --partition {out_dir}/{} --shards <addr>,...",
            hcl_core::partition::PARTITION_FILENAME
        );
    } else {
        println!(
            "deployment ready: hcl serve {out_dir}/shardI.hclg {out_dir}/index.hcl per shard, \
             then hcl route --partition {out_dir}/{} --shards <addr>,...",
            hcl_core::partition::PARTITION_FILENAME
        );
    }
    if replicas > 1 {
        println!(
            "replicas: {replicas} per shard — start {replicas} servers on each shard's files \
             and pass all {} addresses to route, shard 0's replicas first",
            shards * replicas
        );
    }
    Ok(())
}

fn cmd_route(args: &[String]) -> Result<(), String> {
    let map_path = flag(args, "--partition").ok_or("route requires --partition <file>")?;
    let shards_arg = flag(args, "--shards").ok_or("route requires --shards <addr>,<addr>,...")?;
    let host = flag(args, "--host").unwrap_or_else(|| "127.0.0.1".to_string());
    let port: u16 = parse_flag(args, "--port", 7700)?;
    let defaults = hcl_router::RouterConfig::default();
    let max_conns: usize = parse_flag(args, "--max-conns", defaults.max_connections)?;
    let idle_secs: u64 = parse_flag(args, "--idle-timeout", defaults.idle_timeout.as_secs())?;
    let window: usize = parse_flag(args, "--window", defaults.shard_window)?;
    let max_parked: usize = parse_flag(args, "--max-parked", defaults.max_parked)?;

    let map = hcl_core::PartitionMap::load(&map_path)
        .map_err(|e| format!("loading partition {map_path}: {e}"))?;
    let replicas: u32 = parse_flag(args, "--replicas", map.replicas())?;
    if replicas == 0 {
        return Err("--replicas must be at least 1".to_string());
    }
    let addrs: Vec<String> = shards_arg.split(',').map(str::to_string).collect();
    let expected = map.num_shards() as usize * replicas as usize;
    if addrs.len() != expected {
        return Err(format!(
            "--shards lists {} addresses but {} shards x {replicas} replicas needs {expected} \
             (shard 0's replicas first, then shard 1's, ...)",
            addrs.len(),
            map.num_shards()
        ));
    }
    let groups: Vec<Vec<String>> =
        addrs.chunks(replicas as usize).map(<[String]>::to_vec).collect();
    let num_shards = map.num_shards();
    let config = hcl_router::RouterConfig {
        max_connections: max_conns,
        idle_timeout: std::time::Duration::from_secs(idle_secs),
        shard_window: window,
        max_parked,
        ..Default::default()
    };
    let handle = hcl_router::Router::bind_replicated(map, &groups, (host.as_str(), port), config)
        .map_err(|e| format!("starting router on {host}:{port}: {e}"))?;
    println!(
        "routing {num_shards} shards x {replicas} replicas on {} (window {window}, \
         up to {max_conns} connections) — send SHUTDOWN to stop",
        handle.local_addr()
    );
    handle.join();
    println!("router stopped");
    Ok(())
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    let addr = args.first().ok_or("client requires a server address")?;
    let action = args.get(1).map(String::as_str).ok_or("client requires an action")?;
    let mut client = hcl_server::Client::connect(addr.as_str())
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    match action {
        "query" => {
            let rest = &args[2..];
            if rest.is_empty() || !rest.len().is_multiple_of(2) {
                return Err("client query requires an even number of vertex ids".to_string());
            }
            let mut pairs = Vec::with_capacity(rest.len() / 2);
            for chunk in rest.chunks(2) {
                let s: u32 = chunk[0].parse().map_err(|e| format!("vertex {:?}: {e}", chunk[0]))?;
                let t: u32 = chunk[1].parse().map_err(|e| format!("vertex {:?}: {e}", chunk[1]))?;
                pairs.push((s, t));
            }
            let distances = client.batch(&pairs).map_err(|e| e.to_string())?;
            for (&(s, t), d) in pairs.iter().zip(&distances) {
                match d {
                    Some(d) => println!("d({s}, {t}) = {d}"),
                    None => println!("d({s}, {t}) = unreachable"),
                }
            }
        }
        "stats" => {
            let stats = client.stats().map_err(|e| e.to_string())?;
            for kv in stats.split_ascii_whitespace() {
                match kv.split_once('=') {
                    Some((k, v)) => println!("{k:<20} {v}"),
                    None => println!("{kv}"),
                }
            }
        }
        "metrics" => {
            let json = client.metrics().map_err(|e| e.to_string())?;
            println!("{json}");
        }
        "ping" => {
            client.ping().map_err(|e| e.to_string())?;
            println!("PONG");
        }
        "epoch" => {
            let epoch = client.epoch().map_err(|e| e.to_string())?;
            println!("epoch {epoch}");
        }
        "reload" => {
            let graph = args.get(2).ok_or("client reload requires a graph file")?;
            let epoch =
                client.reload(graph, args.get(3).map(String::as_str)).map_err(|e| e.to_string())?;
            println!("reloaded, now at epoch {epoch}");
        }
        "update" => {
            let op = args.get(2).map(String::as_str);
            let add = match op {
                Some("add") => true,
                Some("del") => false,
                _ => return Err("client update requires add|del <u> <v>".to_string()),
            };
            let (Some(u), Some(v), None) = (args.get(3), args.get(4), args.get(5)) else {
                return Err("client update requires add|del <u> <v>".to_string());
            };
            let u: u32 = u.parse().map_err(|e| format!("vertex {u:?}: {e}"))?;
            let v: u32 = v.parse().map_err(|e| format!("vertex {v:?}: {e}"))?;
            let (epoch, affected) = client.update(add, u, v).map_err(|e| e.to_string())?;
            println!("updated, now at epoch {epoch} ({affected} vertices relabelled)");
        }
        "shutdown" => {
            client.shutdown_server().map_err(|e| e.to_string())?;
            println!("server shutting down");
        }
        other => return Err(format!("unknown client action {other:?}\n\n{USAGE}")),
    }
    Ok(())
}

fn cmd_reload(args: &[String]) -> Result<(), String> {
    // `hcl reload <addr> …` is sugar for `hcl client <addr> reload …`.
    if args.is_empty() {
        return Err("reload requires a server address".to_string());
    }
    let mut forwarded = args.to_vec();
    forwarded.insert(1, "reload".to_string());
    cmd_client(&forwarded)
}
