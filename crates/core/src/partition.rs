//! Vertex partitioning for horizontally sharded serving (`hcl-router`).
//!
//! One serving process tops out at one machine's memory; the paper's
//! billion-edge ambitions need the index spread across several. The unit
//! of sharding here is the *graph*, not the labels: per vertex, highway
//! cover labels are a few entries (bounded by the landmark count), while
//! the sparsified graph `G[V∖R]` the bounded searches traverse is the
//! dominant term at scale. So a sharded deployment replicates the small
//! global parts — the labelling and the landmark highway — to every shard
//! and partitions the expensive part: shard `i` serves the subgraph
//! `G[Vᵢ ∪ R]` in the **original id space** (see
//! [`CsrGraph::without_vertices`]), where `Vᵢ` is the set of vertices the
//! [`PartitionMap`] assigns to it and `R` is the global landmark set.
//!
//! A shard is a completely ordinary `hcl serve` process: it loads its
//! shard graph plus the shared global index and answers
//! `min(d⊤(s, t), bounded-BFS over G[Vᵢ∖R])` like any other server. The
//! router combines shards by taking the minimum of the owning shards'
//! answers.
//!
//! # Exactness
//!
//! For a query `(s, t)` the router's answer is always an **upper bound**
//! on the true distance, and it is **exact** when every shortest `s–t`
//! path either
//!
//! 1. passes through a landmark — then the label upper bound `d⊤(s, t)`
//!    (Equation 4), computed from the replicated global labelling, is
//!    already the exact distance on *any* shard; or
//! 2. stays inside a single shard's vertex set `Vᵢ ∪ R` — then that
//!    shard's bounded search finds it, exactly as the unsharded oracle
//!    would (Lemma 4.5 applied to `G[Vᵢ∖R]`).
//!
//! A *sufficient condition* covering every query at once: the partition
//! respects the connected components of the sparsified graph `G[V∖R]`
//! (each component lies entirely inside one shard). Any path avoiding all
//! landmarks stays within one component, so case 2 applies whenever
//! case 1 does not. [`PartitionMap::respects_components`] checks this;
//! `hcl partition` warns when a hash or range split cuts components.
//! Such a deployment answers the pairs whose landmark-avoiding shortest
//! paths cross shards with an upper bound, and serves it **untagged**,
//! as a plain `DIST` indistinguishable from an exact answer: 91 of 400
//! seeded pairs on a two-shard split of a 20k-vertex Barabási–Albert
//! graph. Tagging those answers, or earning exactness back, is open
//! (ROADMAP.md, item 2).
//!
//! Queries with a landmark endpoint are answered from labels + highway
//! alone (Corollary 3.8) and are therefore exact on any shard; the
//! router treats landmarks as replicated wildcards when routing.
//!
//! # Deployment layout
//!
//! `hcl partition` materialises a deployment directory that the router's
//! `RELOAD` fan-out understands (see [`write_deployment`]):
//!
//! ```text
//! dir/partition.hclp   the serialized PartitionMap
//! dir/index.hcl        the global labelling (shared by every shard)
//! dir/shard0.hclg      shard 0's graph G[V₀ ∪ R], original id space
//! dir/shard1.hclg      …
//! ```

use crate::build::HighwayCoverLabelling;
use hcl_graph::{CsrGraph, GraphError, VertexId};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"HCLPART1";

/// File name of the serialized [`PartitionMap`] inside a deployment
/// directory.
pub const PARTITION_FILENAME: &str = "partition.hclp";

/// File name of the shared global labelling inside a deployment
/// directory.
pub const INDEX_FILENAME: &str = "index.hcl";

/// File name of one shard's graph inside a deployment directory.
pub fn shard_graph_filename(shard: u32) -> String {
    format!("shard{shard}.hclg")
}

/// File name of one shard's packed (`hcl-store`) index inside a deployment
/// directory. A packed deployment ships one self-contained `.hclx` per
/// shard — global labels + highway + that shard's sparsified CSR — instead
/// of the `shardN.hclg` + shared `index.hcl` pair, so shards reload by
/// remapping.
pub fn shard_packed_filename(shard: u32) -> String {
    format!("shard{shard}.hclx")
}

/// The path of one shard's packed index inside a deployment directory —
/// the convention the router's `RELOAD <dir>` fan-out uses when it detects
/// a packed deployment (presence of `shard0.hclx`).
pub fn shard_packed_path(dir: &str, shard: u32) -> String {
    let sep = if dir.ends_with('/') { "" } else { "/" };
    format!("{dir}{sep}{}", shard_packed_filename(shard))
}

/// How vertices are assigned to shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// `splitmix64(v) mod num_shards` — balanced regardless of id layout,
    /// oblivious to locality.
    Hash,
    /// Contiguous id ranges — preserves any locality already present in
    /// the vertex numbering (community-ordered ids shard cleanly).
    Range,
}

/// Which shard(s) must be consulted for a query pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardRoute {
    /// One shard answers alone (same owner, or a landmark endpoint makes
    /// any shard exact).
    Single(u32),
    /// Scatter to both owners and take the minimum of their answers.
    Scatter(u32, u32),
}

/// The vertex → shard assignment of one sharded deployment, plus the
/// global landmark set every shard replicates. Serialized alongside the
/// index so router and tooling agree on ownership.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionMap {
    num_vertices: usize,
    num_shards: u32,
    strategy: PartitionStrategy,
    /// For [`PartitionStrategy::Range`]: shard `i` owns ids in
    /// `boundaries[i]..boundaries[i + 1]` (`num_shards + 1` entries,
    /// first 0, last `num_vertices`). Empty for hash partitioning.
    boundaries: Vec<VertexId>,
    /// Sorted global landmark ids.
    landmarks: Vec<VertexId>,
    /// Interchangeable replicas per shard (each holds the same shard
    /// index); the router fails over between them. Always ≥ 1; legacy
    /// files without the trailing replica word decode as 1.
    replicas: u32,
}

impl PartitionMap {
    /// A hash partition of `num_vertices` ids across `num_shards` shards.
    ///
    /// # Panics
    ///
    /// Panics when `num_shards` is 0 or a landmark id is out of range.
    pub fn hash(num_vertices: usize, num_shards: u32, landmarks: &[VertexId]) -> Self {
        PartitionMap::validated(
            num_vertices,
            num_shards,
            PartitionStrategy::Hash,
            Vec::new(),
            landmarks,
        )
    }

    /// An even contiguous-range partition of `num_vertices` ids across
    /// `num_shards` shards.
    ///
    /// # Panics
    ///
    /// Panics when `num_shards` is 0 or a landmark id is out of range.
    pub fn range(num_vertices: usize, num_shards: u32, landmarks: &[VertexId]) -> Self {
        let per = num_vertices.div_ceil(num_shards as usize);
        let boundaries =
            (0..=num_shards as usize).map(|i| (i * per).min(num_vertices) as VertexId).collect();
        PartitionMap::validated(
            num_vertices,
            num_shards,
            PartitionStrategy::Range,
            boundaries,
            landmarks,
        )
    }

    fn validated(
        num_vertices: usize,
        num_shards: u32,
        strategy: PartitionStrategy,
        boundaries: Vec<VertexId>,
        landmarks: &[VertexId],
    ) -> Self {
        assert!(num_shards > 0, "a partition needs at least one shard");
        assert!(
            landmarks.iter().all(|&r| (r as usize) < num_vertices),
            "landmark out of range for the partitioned graph"
        );
        let mut landmarks = landmarks.to_vec();
        landmarks.sort_unstable();
        landmarks.dedup();
        PartitionMap { num_vertices, num_shards, strategy, boundaries, landmarks, replicas: 1 }
    }

    /// Sets the intended replica count per shard (deployment metadata
    /// consumed by `hcl route`; the index files themselves are identical
    /// across replicas).
    ///
    /// # Panics
    ///
    /// Panics when `replicas` is 0.
    pub fn with_replicas(mut self, replicas: u32) -> Self {
        assert!(replicas > 0, "a shard needs at least one replica");
        self.replicas = replicas;
        self
    }

    /// Interchangeable replicas per shard (≥ 1).
    pub fn replicas(&self) -> u32 {
        self.replicas
    }

    /// Number of shards in the deployment.
    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    /// Number of vertices in the partitioned id space (queries beyond it
    /// are out of range on every shard).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The assignment strategy.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// The sorted global landmark ids replicated to every shard.
    pub fn landmarks(&self) -> &[VertexId] {
        &self.landmarks
    }

    /// Whether `v` is a (replicated) landmark.
    pub fn is_landmark(&self, v: VertexId) -> bool {
        self.landmarks.binary_search(&v).is_ok()
    }

    /// The shard owning `v`'s non-landmark identity. Landmarks are
    /// replicated everywhere; for them this still returns the strategy's
    /// natural assignment so the id space maps totally.
    ///
    /// # Panics
    ///
    /// Panics when `v` is outside the partitioned id space.
    pub fn shard_of(&self, v: VertexId) -> u32 {
        assert!((v as usize) < self.num_vertices, "vertex {v} outside the partition");
        match self.strategy {
            PartitionStrategy::Hash => (splitmix64(v as u64) % self.num_shards as u64) as u32,
            PartitionStrategy::Range => {
                // First boundary strictly greater than v, minus one, is the
                // owning range.
                (self.boundaries.partition_point(|&b| b <= v) - 1) as u32
            }
        }
    }

    /// Which shard(s) can answer `(s, t)`; see the module docs for when
    /// the combined answer is exact. Landmark endpoints make any single
    /// shard exact, so they route to the other endpoint's owner.
    ///
    /// # Panics
    ///
    /// Panics when either vertex is outside the partitioned id space.
    pub fn route(&self, s: VertexId, t: VertexId) -> ShardRoute {
        match (self.is_landmark(s), self.is_landmark(t)) {
            (false, false) => {
                let (a, b) = (self.shard_of(s), self.shard_of(t));
                if a == b {
                    ShardRoute::Single(a)
                } else {
                    ShardRoute::Scatter(a, b)
                }
            }
            (true, false) => ShardRoute::Single(self.shard_of(t)),
            (false, true) => ShardRoute::Single(self.shard_of(s)),
            // Landmark–landmark is a highway lookup; any shard is exact.
            (true, true) => ShardRoute::Single(self.shard_of(s)),
        }
    }

    /// Materialises shard `shard`'s graph `G[Vᵢ ∪ R]` in the original id
    /// space: every edge with an endpoint owned by another shard (and not
    /// a landmark) is dropped, ids and vertex count stay unchanged.
    pub fn shard_graph(&self, g: &CsrGraph, shard: u32) -> CsrGraph {
        assert_eq!(g.num_vertices(), self.num_vertices, "partition built for another graph");
        let removed: Vec<VertexId> = (0..self.num_vertices as VertexId)
            .filter(|&v| self.shard_of(v) != shard && !self.is_landmark(v))
            .collect();
        g.without_vertices(&removed)
    }

    /// Edges present in **no** shard graph: both endpoints non-landmark
    /// and owned by different shards. Each such edge is invisible to every
    /// bounded search in the deployment — the price of the partition.
    pub fn cut_edges(&self, g: &CsrGraph) -> usize {
        assert_eq!(g.num_vertices(), self.num_vertices, "partition built for another graph");
        g.edges()
            .filter(|&(u, v)| {
                !self.is_landmark(u) && !self.is_landmark(v) && self.shard_of(u) != self.shard_of(v)
            })
            .count()
    }

    /// Whether the partition respects the connected components of the
    /// sparsified graph `G[V∖R]` — the sufficient condition under which
    /// **every** query through the router is exact (module docs).
    pub fn respects_components(&self, g: &CsrGraph) -> bool {
        assert_eq!(g.num_vertices(), self.num_vertices, "partition built for another graph");
        let sparse = g.without_vertices(&self.landmarks);
        let (comp, count) = hcl_graph::connectivity::connected_components(&sparse);
        let mut shard_of_comp = vec![u32::MAX; count];
        for v in 0..self.num_vertices as VertexId {
            if self.is_landmark(v) {
                continue;
            }
            let c = comp[v as usize] as usize;
            let s = self.shard_of(v);
            if shard_of_comp[c] == u32::MAX {
                shard_of_comp[c] = s;
            } else if shard_of_comp[c] != s {
                return false;
            }
        }
        true
    }

    /// Serialises the map (little-endian container, like the labelling
    /// format of [`crate::io`]).
    pub fn write<W: Write>(&self, writer: W) -> Result<(), GraphError> {
        let mut w = BufWriter::new(writer);
        w.write_all(MAGIC)?;
        w.write_all(&(self.num_vertices as u64).to_le_bytes())?;
        w.write_all(&self.num_shards.to_le_bytes())?;
        let strategy: u8 = match self.strategy {
            PartitionStrategy::Hash => 0,
            PartitionStrategy::Range => 1,
        };
        w.write_all(&[strategy])?;
        w.write_all(&(self.boundaries.len() as u64).to_le_bytes())?;
        for &b in &self.boundaries {
            w.write_all(&b.to_le_bytes())?;
        }
        w.write_all(&(self.landmarks.len() as u64).to_le_bytes())?;
        for &r in &self.landmarks {
            w.write_all(&r.to_le_bytes())?;
        }
        // Trailing extension word (absent in legacy files): replicas.
        w.write_all(&self.replicas.to_le_bytes())?;
        w.flush()?;
        Ok(())
    }

    /// Deserialises a map written by [`write`](Self::write).
    pub fn read<R: Read>(reader: R) -> Result<PartitionMap, GraphError> {
        let mut r = BufReader::new(reader);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(GraphError::Format("bad partition magic".to_string()));
        }
        let n = read_u64(&mut r)?;
        if n >= u32::MAX as u64 {
            return Err(GraphError::Format(format!("implausible vertex count {n}")));
        }
        let num_vertices = n as usize;
        let num_shards = read_u32(&mut r)?;
        if num_shards == 0 {
            return Err(GraphError::Format("partition with zero shards".to_string()));
        }
        let mut strategy = [0u8; 1];
        r.read_exact(&mut strategy)?;
        let strategy = match strategy[0] {
            0 => PartitionStrategy::Hash,
            1 => PartitionStrategy::Range,
            other => return Err(GraphError::Format(format!("unknown partition strategy {other}"))),
        };
        let num_boundaries = read_u64(&mut r)? as usize;
        let expected = match strategy {
            PartitionStrategy::Hash => 0,
            PartitionStrategy::Range => num_shards as usize + 1,
        };
        if num_boundaries != expected {
            return Err(GraphError::Format(format!(
                "{num_boundaries} boundaries for a {num_shards}-shard {strategy:?} partition"
            )));
        }
        let mut boundaries = Vec::with_capacity(num_boundaries.min(1 << 20));
        for _ in 0..num_boundaries {
            boundaries.push(read_u32(&mut r)?);
        }
        if strategy == PartitionStrategy::Range {
            let monotone = boundaries.windows(2).all(|w| w[0] <= w[1]);
            if boundaries[0] != 0 || *boundaries.last().unwrap() as u64 != n || !monotone {
                return Err(GraphError::Format("malformed range boundaries".to_string()));
            }
        }
        let num_landmarks = read_u64(&mut r)? as usize;
        let mut landmarks = Vec::with_capacity(num_landmarks.min(1 << 20));
        for _ in 0..num_landmarks {
            landmarks.push(read_u32(&mut r)?);
        }
        let sorted = landmarks.windows(2).all(|w| w[0] < w[1]);
        if !sorted || landmarks.iter().any(|&v| v as u64 >= n) {
            return Err(GraphError::Format("malformed landmark list".to_string()));
        }
        // Optional trailing replica word: absent in legacy files (→ 1);
        // a torn word is corruption, not a legacy file.
        let mut buf = [0u8; 4];
        let mut got = 0;
        while got < 4 {
            match r.read(&mut buf[got..]) {
                Ok(0) => break,
                Ok(k) => got += k,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        let replicas = match got {
            0 => 1,
            4 => u32::from_le_bytes(buf),
            _ => return Err(GraphError::Format("truncated replica count".to_string())),
        };
        if replicas == 0 {
            return Err(GraphError::Format("partition with zero replicas".to_string()));
        }
        Ok(PartitionMap { num_vertices, num_shards, strategy, boundaries, landmarks, replicas })
    }

    /// Saves the map to a file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), GraphError> {
        self.write(std::fs::File::create(path)?)
    }

    /// Loads a map from a file.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<PartitionMap, GraphError> {
        PartitionMap::read(std::fs::File::open(path)?)
    }
}

/// Per-shard sizes reported by [`write_deployment`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeploymentSummary {
    /// Non-landmark vertices owned by each shard.
    pub shard_vertices: Vec<usize>,
    /// Edges in each shard's graph `G[Vᵢ ∪ R]`.
    pub shard_edges: Vec<usize>,
    /// Edges present in no shard (both endpoints non-landmark, different
    /// owners).
    pub cut_edges: usize,
    /// Whether the partition respects the components of `G[V∖R]` — if
    /// true, every routed query is exact (module docs).
    pub exact: bool,
}

/// Writes a complete sharded deployment into `dir`: the partition map
/// ([`PARTITION_FILENAME`]), the shared global labelling
/// ([`INDEX_FILENAME`]), and one graph file per shard
/// ([`shard_graph_filename`]). Each shard is then served by a plain
/// `hcl serve dir/shardN.hclg dir/index.hcl`.
pub fn write_deployment<P: AsRef<Path>>(
    dir: P,
    g: &CsrGraph,
    labelling: &HighwayCoverLabelling,
    map: &PartitionMap,
) -> Result<DeploymentSummary, GraphError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    map.save(dir.join(PARTITION_FILENAME))?;
    crate::io::save_labelling(labelling, dir.join(INDEX_FILENAME))?;
    let mut summary = DeploymentSummary {
        cut_edges: map.cut_edges(g),
        exact: map.respects_components(g),
        ..Default::default()
    };
    let mut owned = vec![0usize; map.num_shards() as usize];
    for v in 0..g.num_vertices() as VertexId {
        if !map.is_landmark(v) {
            owned[map.shard_of(v) as usize] += 1;
        }
    }
    summary.shard_vertices = owned;
    for shard in 0..map.num_shards() {
        let shard_graph = map.shard_graph(g, shard);
        summary.shard_edges.push(shard_graph.num_edges());
        hcl_graph::io::save_binary(&shard_graph, dir.join(shard_graph_filename(shard)))?;
    }
    Ok(summary)
}

/// The `(graph, index)` paths a shard reloads from inside a deployment
/// directory — the convention the router's `RELOAD <dir>` fan-out uses.
pub fn shard_paths(dir: &str, shard: u32) -> (String, String) {
    let sep = if dir.ends_with('/') { "" } else { "/" };
    (format!("{dir}{sep}{}", shard_graph_filename(shard)), format!("{dir}{sep}{INDEX_FILENAME}"))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, GraphError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, GraphError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_graph::{generate, traversal, INF};
    use std::io::Cursor;

    fn landmarks(g: &CsrGraph, k: usize) -> Vec<VertexId> {
        hcl_graph::order::top_degree(g, k)
    }

    #[test]
    fn assignments_are_total_and_stable() {
        for map in [
            PartitionMap::hash(1000, 4, &[3, 8]),
            PartitionMap::range(1000, 4, &[3, 8]),
            PartitionMap::range(1000, 3, &[999]),
        ] {
            let mut counts = vec![0usize; map.num_shards() as usize];
            for v in 0..1000 {
                let s = map.shard_of(v);
                assert!(s < map.num_shards());
                assert_eq!(s, map.shard_of(v), "deterministic");
                counts[s as usize] += 1;
            }
            // No shard is empty and none holds everything (1000 ids, ≤ 4
            // shards — both strategies spread that).
            assert!(counts.iter().all(|&c| c > 0 && c < 1000), "{counts:?}");
        }
    }

    #[test]
    fn range_boundaries_are_contiguous() {
        let map = PartitionMap::range(10, 3, &[]);
        let shards: Vec<u32> = (0..10).map(|v| map.shard_of(v)).collect();
        assert_eq!(shards, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn routing_treats_landmarks_as_wildcards() {
        let map = PartitionMap::range(100, 2, &[0, 60]);
        // Non-landmark pair, same owner.
        assert_eq!(map.route(10, 20), ShardRoute::Single(0));
        // Non-landmark pair, different owners.
        assert_eq!(map.route(10, 80), ShardRoute::Scatter(0, 1));
        // Landmark endpoint routes to the other endpoint's owner.
        assert_eq!(map.route(0, 80), ShardRoute::Single(1));
        assert_eq!(map.route(80, 60), ShardRoute::Single(1));
        // Landmark–landmark: a single shard suffices.
        assert!(matches!(map.route(0, 60), ShardRoute::Single(_)));
    }

    #[test]
    fn shard_graphs_partition_non_cut_edges() {
        let g = generate::barabasi_albert(300, 4, 5);
        let r = landmarks(&g, 10);
        for map in [PartitionMap::hash(300, 3, &r), PartitionMap::range(300, 3, &r)] {
            let shard_edge_total: usize = (0..3).map(|s| map.shard_graph(&g, s).num_edges()).sum();
            // Every edge lands in ≥ 1 shard unless it is cut; edges inside
            // the landmark set or between a landmark and a vertex are
            // replicated into multiple shards, so totals can exceed m.
            assert!(shard_edge_total + map.cut_edges(&g) >= g.num_edges());
            for s in 0..3 {
                let sub = map.shard_graph(&g, s);
                assert_eq!(sub.num_vertices(), g.num_vertices(), "id space preserved");
                for (u, v) in sub.edges() {
                    let u_ok = map.is_landmark(u) || map.shard_of(u) == s;
                    let v_ok = map.is_landmark(v) || map.shard_of(v) == s;
                    assert!(u_ok && v_ok, "foreign edge ({u}, {v}) in shard {s}");
                }
            }
        }
    }

    #[test]
    fn respects_components_detects_cut_components() {
        // Two triangles joined only through landmark 0:
        // 0-1, 0-2, 1-2 and 0-4, 0-5, 4-5.
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (0, 4), (0, 5), (4, 5)]);
        let good = PartitionMap::range(6, 2, &[0]); // {0,1,2} | {3,4,5}
        assert!(good.respects_components(&g));
        // A boundary through a triangle cuts its component.
        let bad = PartitionMap::validated(6, 2, PartitionStrategy::Range, vec![0, 2, 6], &[0]);
        assert!(!bad.respects_components(&g));
    }

    #[test]
    fn component_closed_sharding_preserves_all_distances() {
        // Two ER communities bridged only through two hub landmarks: the
        // range partition is component-closed, so min over owning shards
        // of (d⊤, shard BFS) must equal the true distance for all pairs.
        let mut edges = Vec::new();
        let hubs = [0u32, 1];
        let n = 80u32;
        // Community A: 2..40, community B: 40..80; deterministic edges.
        for v in 2..40u32 {
            edges.push((v, 2 + (v * 7) % 38));
            edges.push((v, hubs[(v % 2) as usize]));
        }
        for v in 40..n {
            edges.push((v, 40 + (v * 11) % 40));
            edges.push((v, hubs[(v % 2) as usize]));
        }
        let edges: Vec<(u32, u32)> = edges.into_iter().filter(|&(a, b)| a != b).collect();
        let g = CsrGraph::from_edges(n as usize, &edges);
        let map = PartitionMap::range(n as usize, 2, &hubs);
        assert!(map.respects_components(&g));

        let (labelling, _) = HighwayCoverLabelling::build(&g, &hubs).unwrap();
        let labelling = std::sync::Arc::new(labelling);
        let shard_oracles: Vec<crate::SharedOracle> = (0..2)
            .map(|s| {
                let shard_graph = std::sync::Arc::new(map.shard_graph(&g, s));
                crate::SharedOracle::new(shard_graph, std::sync::Arc::clone(&labelling))
            })
            .collect();

        for s in 0..n {
            let truth = traversal::bfs_distances(&g, s);
            for t in (0..n).step_by(3) {
                let expect = (truth[t as usize] != INF).then_some(truth[t as usize]);
                let got = match map.route(s, t) {
                    ShardRoute::Single(a) => shard_oracles[a as usize].distance(s, t),
                    ShardRoute::Scatter(a, b) => {
                        let da = shard_oracles[a as usize].distance(s, t);
                        let db = shard_oracles[b as usize].distance(s, t);
                        match (da, db) {
                            (Some(x), Some(y)) => Some(x.min(y)),
                            (x, y) => x.or(y),
                        }
                    }
                };
                assert_eq!(got, expect, "d({s}, {t})");
            }
        }
    }

    #[test]
    fn serde_round_trips_and_rejects_corruption() {
        for map in [PartitionMap::hash(5000, 7, &[1, 2, 3]), PartitionMap::range(5000, 2, &[4999])]
        {
            let mut buf = Vec::new();
            map.write(&mut buf).unwrap();
            assert_eq!(PartitionMap::read(Cursor::new(&buf)).unwrap(), map);
            let mut truncated = buf.clone();
            truncated.truncate(buf.len() - 3);
            assert!(PartitionMap::read(Cursor::new(&truncated)).is_err());
        }
        assert!(PartitionMap::read(Cursor::new(b"NOTAPART".to_vec())).is_err());
    }

    #[test]
    fn replica_count_round_trips_and_legacy_files_default_to_one() {
        let map = PartitionMap::hash(100, 2, &[1]).with_replicas(3);
        assert_eq!(map.replicas(), 3);
        let mut buf = Vec::new();
        map.write(&mut buf).unwrap();
        let loaded = PartitionMap::read(Cursor::new(&buf)).unwrap();
        assert_eq!(loaded, map);
        assert_eq!(loaded.replicas(), 3);

        // A legacy file simply ends after the landmark list.
        let mut legacy = buf.clone();
        legacy.truncate(buf.len() - 4);
        let loaded = PartitionMap::read(Cursor::new(&legacy)).unwrap();
        assert_eq!(loaded.replicas(), 1);

        // A torn trailing word is corruption, not a legacy file; a zero
        // replica count is nonsense.
        let mut torn = buf.clone();
        torn.truncate(buf.len() - 2);
        assert!(PartitionMap::read(Cursor::new(&torn)).is_err());
        let mut zeroed = buf.clone();
        let at = zeroed.len() - 4;
        zeroed[at..].copy_from_slice(&0u32.to_le_bytes());
        assert!(PartitionMap::read(Cursor::new(&zeroed)).is_err());
    }

    #[test]
    fn deployment_round_trips_through_files() {
        let dir = std::env::temp_dir().join("hcl_partition_deploy_test");
        std::fs::remove_dir_all(&dir).ok();
        let g = generate::barabasi_albert(150, 3, 9);
        let r = landmarks(&g, 6);
        let (labelling, _) = HighwayCoverLabelling::build(&g, &r).unwrap();
        let map = PartitionMap::hash(150, 2, &r);
        let summary = write_deployment(&dir, &g, &labelling, &map).unwrap();
        assert_eq!(summary.shard_vertices.iter().sum::<usize>(), 150 - r.len());
        assert_eq!(summary.shard_edges.len(), 2);

        let loaded = PartitionMap::load(dir.join(PARTITION_FILENAME)).unwrap();
        assert_eq!(loaded, map);
        let index = crate::io::load_labelling(dir.join(INDEX_FILENAME)).unwrap();
        assert_eq!(index, labelling);
        for s in 0..2 {
            let (graph_path, index_path) = shard_paths(dir.to_str().unwrap(), s);
            let sg = hcl_graph::io::load_binary(&graph_path).unwrap();
            assert_eq!(sg, map.shard_graph(&g, s));
            assert!(std::path::Path::new(&index_path).is_file());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
