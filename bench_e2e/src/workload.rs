//! The four workloads: what each one is, why it exists, the constants that
//! size its windows, and the seeded inputs it feeds the program.

use crate::rng::{Rng, Zipf};
use hcl_graph::{CsrGraph, VertexId};
use std::sync::Arc;

/// Landmarks per index (top degree), as in the paper's default setting.
pub const LANDMARKS: usize = 20;
/// Barabási–Albert attachment degree of every generated graph.
pub const BA_ATTACH: usize = 8;
/// Threads handed to `build_parallel`: fixed, so the build never depends
/// on how many cores the host reports.
pub const BUILD_THREADS: usize = 2;
/// Pairs in one `BATCH` frame of `serve-churn`.
pub const BATCH: usize = 64;
/// Requests in flight per connection in the closed loop.
pub const DEPTH: usize = 32;
/// Oracle grid: this many BFS sources × this many targets per workload.
pub const ORACLE_SOURCES: usize = 64;
pub const ORACLE_TARGETS: usize = 32;
/// One request in this many carries an oracle-grid pair.
pub const ORACLE_EVERY: u64 = 64;
/// Distinct pairs in `serve-hot`'s pool, and its Zipf exponent.
pub const HOT_POOL: usize = 1 << 16;
pub const HOT_ZIPF_S: f64 = 1.1;
/// Edit cadence on `serve-churn`'s second connection.
pub const CHURN_TICK_MS: u64 = 50;
/// Cache entries per server: the CLI's `--cache` default.
pub const CACHE_ENTRIES: usize = 1 << 16;
/// Every run of a workload serves the same graph: the instance is part of
/// the workload, like a dataset, and `--seed` drives the traffic (pairs,
/// edit edges, arrival gaps, oracle grid). A seed-dependent graph would
/// move every metric between seeds — label bytes per vertex alone by 6% —
/// and read as noise in a comparison made across seeds.
pub const GRAPH_SEED: u64 = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ServeUniform,
    ServeHot,
    ServeChurn,
    RouteUniform,
}

/// One workload's fixed description. `closed_qps` sizes the closed-loop
/// windows (operations = rate × window seconds, so a window is a fixed
/// count) and `open_rate` is the open loop's offered load; both are
/// constants measured once on the seed host, never derived at run time,
/// so both sides of an A/B run the same work and receive the same load.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Vertices at full scale (both communities together on the router).
    pub n: usize,
    /// Nominal closed-loop answers per second on the seed host, rounded up
    /// a little so that a window sized by it spans its 0.5 s.
    pub closed_qps: f64,
    /// Open-loop offered load in requests per second (frames on
    /// `serve-churn`): ≈ 40% of seed saturation, two significant figures.
    pub open_rate: f64,
    /// Nominal depth-1 round trips per second on the seed host; sizes the
    /// `rtt` windows.
    pub rtt_rate: f64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "serve-uniform",
        kind: Kind::ServeUniform,
        n: 1_000_000,
        closed_qps: 30_000.0,
        open_rate: 11_000.0,
        rtt_rate: 19_000.0,
    },
    Spec {
        name: "serve-hot",
        kind: Kind::ServeHot,
        n: 200_000,
        closed_qps: 165_000.0,
        open_rate: 60_000.0,
        rtt_rate: 30_000.0,
    },
    Spec {
        name: "serve-churn",
        kind: Kind::ServeChurn,
        n: 300_000,
        closed_qps: 44_000.0,
        open_rate: 250.0,
        rtt_rate: 1_100.0,
    },
    Spec {
        name: "route-uniform",
        kind: Kind::RouteUniform,
        n: 300_000,
        closed_qps: 62_000.0,
        open_rate: 23_000.0,
        rtt_rate: 16_000.0,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// `full` is what `BENCHMARK.json` runs; `smoke` (n ÷ 50, two windows,
/// 0.5 s floor waived) exists for the package's own test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Spec {
    pub fn vertices(&self, scale: Scale) -> usize {
        match scale {
            Scale::Full => self.n,
            Scale::Smoke => self.n / 50,
        }
    }

    pub fn batched(&self) -> bool {
        self.kind == Kind::ServeChurn
    }

    /// Answers carried by one request.
    pub fn answers_per_request(&self) -> usize {
        if self.batched() {
            BATCH
        } else {
            1
        }
    }
}

/// The generated graph plus the landmark set the index is built over.
pub struct Instance {
    pub graph: Arc<CsrGraph>,
    pub landmarks: Vec<VertexId>,
}

/// Builds the workload's graph (from [`GRAPH_SEED`]). Everything but
/// `route-uniform` is one BA graph with top-degree landmarks;
/// `route-uniform` is two BA communities whose only connecting edges run
/// between their landmark hubs (complete bipartite between the two hub
/// sets), so a range partition at the midpoint respects the components of
/// `G[V∖R]` and every landmark-to-vertex distance survives inside each
/// shard's subgraph `G[Vᵢ ∪ R]`.
pub fn generate(spec: &Spec, scale: Scale) -> Instance {
    let seed = GRAPH_SEED;
    let n = spec.vertices(scale);
    if spec.kind != Kind::RouteUniform {
        let graph = hcl_graph::generate::barabasi_albert(n, BA_ATTACH, seed);
        let landmarks = hcl_graph::order::top_degree(&graph, LANDMARKS);
        return Instance { graph: Arc::new(graph), landmarks };
    }
    let half = n / 2;
    let a = hcl_graph::generate::barabasi_albert(half, BA_ATTACH, seed);
    let b = hcl_graph::generate::barabasi_albert(half, BA_ATTACH, seed ^ 0x5EED_B00C);
    let hubs_a = hcl_graph::order::top_degree(&a, LANDMARKS / 2);
    let hubs_b: Vec<VertexId> = hcl_graph::order::top_degree(&b, LANDMARKS / 2)
        .into_iter()
        .map(|v| v + half as VertexId)
        .collect();
    let mut edges: Vec<(VertexId, VertexId)> =
        Vec::with_capacity(a.num_edges() + b.num_edges() + hubs_a.len() * hubs_b.len());
    edges.extend(a.edges());
    edges.extend(b.edges().map(|(u, v)| (u + half as VertexId, v + half as VertexId)));
    for &x in &hubs_a {
        for &y in &hubs_b {
            edges.push((x, y));
        }
    }
    let graph = CsrGraph::from_edges(2 * half, &edges);
    let mut landmarks = hubs_a;
    landmarks.extend(hubs_b);
    Instance { graph: Arc::new(graph), landmarks }
}

/// The oracle grid: `ORACLE_SOURCES × ORACLE_TARGETS` pairs whose every
/// reply is checked against BFS truth. Pair `i` is
/// `(sources[i / TARGETS], targets[i % TARGETS])`.
pub struct Grid {
    pub sources: Vec<VertexId>,
    pub targets: Vec<VertexId>,
}

impl Grid {
    pub fn new(n: usize, seed: u64) -> Grid {
        let mut rng = Rng::new(seed, 4);
        let mut pick = |count: usize| -> Vec<VertexId> {
            (0..count).map(|_| rng.below(n as u64) as VertexId).collect()
        };
        let sources = pick(ORACLE_SOURCES);
        let targets = pick(ORACLE_TARGETS);
        Grid { sources, targets }
    }

    pub fn len(&self) -> usize {
        self.sources.len() * self.targets.len()
    }

    pub fn pair(&self, i: usize) -> (VertexId, VertexId) {
        (self.sources[i / self.targets.len()], self.targets[i % self.targets.len()])
    }
}

/// The seeded request stream: uniform pairs over the vertex set, or
/// `serve-hot`'s Zipf draw from a fixed pool, with an oracle-grid pair
/// spliced in every [`ORACLE_EVERY`] requests.
pub struct PairStream {
    rng: Rng,
    n: u64,
    hot: Option<(Vec<(VertexId, VertexId)>, Zipf)>,
    issued: u64,
    grid_len: u64,
}

/// What the stream hands out: the pair and, for a grid pair, its index.
pub type Drawn = ((VertexId, VertexId), Option<u32>);

impl PairStream {
    pub fn new(spec: &Spec, n: usize, grid: &Grid, seed: u64, lane: u64) -> PairStream {
        let hot = (spec.kind == Kind::ServeHot).then(|| {
            // The pool depends on the seed only, not the lane: every phase
            // of a run draws from the same 65,536 pairs.
            let mut pool_rng = Rng::new(seed, 5);
            let pool = (0..HOT_POOL)
                .map(|_| {
                    (pool_rng.below(n as u64) as VertexId, pool_rng.below(n as u64) as VertexId)
                })
                .collect();
            (pool, Zipf::new(HOT_POOL, HOT_ZIPF_S))
        });
        PairStream {
            rng: Rng::new(seed, lane),
            n: n as u64,
            hot,
            issued: 0,
            grid_len: grid.len() as u64,
        }
    }

    /// A non-grid pair.
    pub fn draw_plain(&mut self) -> (VertexId, VertexId) {
        match &self.hot {
            Some((pool, zipf)) => pool[zipf.sample(&mut self.rng)],
            None => (self.rng.below(self.n) as VertexId, self.rng.below(self.n) as VertexId),
        }
    }

    /// The next request's leading pair: a grid pair on every
    /// [`ORACLE_EVERY`]-th request, a plain one otherwise.
    pub fn draw(&mut self, grid: &Grid) -> Drawn {
        let k = self.issued;
        self.issued += 1;
        if k.is_multiple_of(ORACLE_EVERY) {
            let i = (k / ORACLE_EVERY) % self.grid_len;
            (grid.pair(i as usize), Some(i as u32))
        } else {
            (self.draw_plain(), None)
        }
    }
}

/// Seeded edges absent from `graph`, between non-landmark vertices, for
/// the `UPDATE ADD` / `UPDATE DEL` round trips. On the routed workload
/// both endpoints lie in one community, alternating between the two.
pub fn absent_edges(
    spec: &Spec,
    instance: &Instance,
    count: usize,
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    let n = instance.graph.num_vertices() as u64;
    let mut rng = Rng::new(seed, 6);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(count);
    while edges.len() < count {
        let (u, v) = if spec.kind == Kind::RouteUniform {
            let half = n / 2;
            let base = if edges.len().is_multiple_of(2) { 0 } else { half };
            (base + rng.below(half), base + rng.below(half))
        } else {
            (rng.below(n), rng.below(n))
        };
        let (u, v) = (u as VertexId, v as VertexId);
        if u != v
            && !instance.graph.has_edge(u, v)
            && !instance.landmarks.contains(&u)
            && !instance.landmarks.contains(&v)
            && !edges.contains(&(u, v))
            && !edges.contains(&(v, u))
        {
            edges.push((u, v));
        }
    }
    edges
}
