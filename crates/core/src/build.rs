//! Sequential construction of the highway cover labelling (Algorithm 1).
//!
//! One pruned BFS per landmark. Each BFS maintains two frontiers:
//!
//! * the **labelled** frontier (`Qlabel`): vertices whose shortest paths
//!   from the root are free of other landmarks — their unvisited neighbours
//!   receive label entries;
//! * the **pruned** frontier (`Qprune`): landmarks and vertices with a
//!   landmark on some shortest path from the root — their neighbours are
//!   claimed *without* labels.
//!
//! At every level the pruned frontier expands **first** (mirroring
//! Algorithm 1's queue interleaving), so a vertex reachable at the same
//! depth through both a pruned and a labelled parent is pruned. This yields
//! exactly the semantics of Lemma 3.7: `(r, d)` enters `L(v)` iff **no**
//! shortest `r–v` path contains another landmark. The BFS stops as soon as
//! the labelled frontier empties — typically long before the graph is
//! exhausted, which is where the method's construction-time advantage
//! comes from.

use crate::highway::Highway;
use crate::labels::HighwayLabels;
use crate::BuildError;
use hcl_graph::{CsrGraph, VertexId};
use std::time::{Duration, Instant};

/// Instrumentation returned by the builders.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Wall-clock construction time.
    pub duration: Duration,
    /// Neighbour examinations across all pruned BFSs (the "ET" counter of
    /// the paper's Figures 3–4).
    pub edges_traversed: u64,
    /// Label entries produced (the "LS" counter).
    pub labels_added: u64,
}

/// A complete highway cover labelling: the highway `H = (R, δH)` plus the
/// minimal label store (Theorem 3.12).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HighwayCoverLabelling {
    highway: Highway,
    labels: HighwayLabels,
}

impl HighwayCoverLabelling {
    /// Builds the labelling sequentially ("HL" in the paper's tables).
    ///
    /// `landmarks` may be in any order; the result is identical for every
    /// ordering (Lemma 3.11), which the tests verify.
    pub fn build(g: &CsrGraph, landmarks: &[VertexId]) -> Result<(Self, BuildStats), BuildError> {
        let start = Instant::now();
        validate_landmarks(g, landmarks)?;
        let mut highway = Highway::new(g.num_vertices(), landmarks);
        let mut worker = PrunedBfsWorker::new(g.num_vertices());
        let mut per_landmark: Vec<Vec<(VertexId, u16)>> = Vec::with_capacity(landmarks.len());
        let mut hw_buf: Vec<(u32, u32)> = Vec::new();
        let mut stats = BuildStats::default();

        for (rank, &root) in landmarks.iter().enumerate() {
            let mut labels_out = Vec::new();
            hw_buf.clear();
            let edges = worker.run(g, rank as u32, root, &highway, &mut labels_out, &mut hw_buf)?;
            stats.edges_traversed += edges;
            stats.labels_added += labels_out.len() as u64;
            for &(other_rank, d) in &hw_buf {
                highway.record(rank as u32, other_rank, d);
            }
            per_landmark.push(labels_out);
        }
        highway.close();
        let labels = assemble_labels(g.num_vertices(), &per_landmark);
        stats.duration = start.elapsed();
        Ok((HighwayCoverLabelling { highway, labels }, stats))
    }

    pub(crate) fn from_parts(highway: Highway, labels: HighwayLabels) -> Self {
        HighwayCoverLabelling { highway, labels }
    }

    /// The highway `H = (R, δH)`.
    #[inline]
    pub fn highway(&self) -> &Highway {
        &self.highway
    }

    /// The per-vertex label store.
    #[inline]
    pub fn labels(&self) -> &HighwayLabels {
        &self.labels
    }

    /// Number of landmarks `|R|`.
    #[inline]
    pub fn num_landmarks(&self) -> usize {
        self.highway.num_landmarks()
    }

    /// Bytes of the queryable index: label entries + offsets + the highway
    /// matrix (excludes the O(n) landmark-rank lookup table, which is a
    /// derivable acceleration structure).
    pub fn index_bytes(&self) -> usize {
        self.labels.memory_bytes() + self.highway.matrix_bytes()
    }
}

pub(crate) fn validate_landmarks(g: &CsrGraph, landmarks: &[VertexId]) -> Result<(), BuildError> {
    if landmarks.len() > u16::MAX as usize {
        return Err(BuildError::TooManyLandmarks { requested: landmarks.len() });
    }
    let n = g.num_vertices();
    let mut seen = vec![false; n];
    for &r in landmarks {
        if (r as usize) >= n {
            return Err(BuildError::LandmarkOutOfRange { landmark: r, n });
        }
        if std::mem::replace(&mut seen[r as usize], true) {
            return Err(BuildError::DuplicateLandmark { landmark: r });
        }
    }
    Ok(())
}

/// Merges per-landmark `(vertex, dist)` outputs into the flat CSR label
/// store (separate rank and dist lanes). Iterating landmarks in rank order
/// keeps every per-vertex list sorted by rank, so queries can merge labels
/// in one pass.
pub(crate) fn assemble_labels(n: usize, per_landmark: &[Vec<(VertexId, u16)>]) -> HighwayLabels {
    let mut counts = vec![0u32; n + 1];
    for batch in per_landmark {
        for &(v, _) in batch {
            counts[v as usize + 1] += 1;
        }
    }
    for i in 1..=n {
        counts[i] += counts[i - 1];
    }
    let offsets = counts;
    let total = offsets[n] as usize;
    let mut ranks = vec![0u16; total];
    let mut dists = vec![0u16; total];
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    for (rank, batch) in per_landmark.iter().enumerate() {
        for &(v, d) in batch {
            let c = &mut cursor[v as usize];
            ranks[*c as usize] = rank as u16;
            dists[*c as usize] = d;
            *c += 1;
        }
    }
    HighwayLabels::from_parts(offsets, ranks, dists)
}

/// Reusable state for one pruned BFS (Algorithm 1 body). A worker is sized
/// for the graph once and then serves any number of landmarks; the parallel
/// builder gives each thread its own worker.
pub(crate) struct PrunedBfsWorker {
    epoch: u32,
    visited: Vec<u32>,
    labeled: Vec<VertexId>,
    pruned: Vec<VertexId>,
    next_labeled: Vec<VertexId>,
    next_pruned: Vec<VertexId>,
}

impl PrunedBfsWorker {
    pub(crate) fn new(n: usize) -> Self {
        PrunedBfsWorker {
            epoch: 0,
            visited: vec![0; n],
            labeled: Vec::new(),
            pruned: Vec::new(),
            next_labeled: Vec::new(),
            next_pruned: Vec::new(),
        }
    }

    /// Runs the pruned BFS rooted at `root` (whose rank is `root_rank`).
    ///
    /// Appends `(vertex, distance)` label entries to `labels_out`, appends
    /// `(landmark rank, distance)` for every *other* landmark discovered to
    /// `highway_out`, and returns the number of neighbour examinations.
    pub(crate) fn run(
        &mut self,
        g: &CsrGraph,
        root_rank: u32,
        root: VertexId,
        highway: &Highway,
        labels_out: &mut Vec<(VertexId, u16)>,
        highway_out: &mut Vec<(u32, u32)>,
    ) -> Result<u64, BuildError> {
        if self.epoch == u32::MAX {
            self.visited.iter_mut().for_each(|m| *m = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        let mut edges = 0u64;
        let g = g.rows();

        self.labeled.clear();
        self.pruned.clear();
        self.labeled.push(root);
        self.visited[root as usize] = epoch;

        let mut depth: u32 = 0;
        while !self.labeled.is_empty() {
            let next_depth = depth + 1;
            self.next_labeled.clear();
            self.next_pruned.clear();

            // Pruned frontier expands first: anything it can reach at this
            // level is pruned even if a labelled parent also reaches it
            // (Lemma 3.7: *some* shortest path through a landmark suffices).
            for i in 0..self.pruned.len() {
                let u = self.pruned[i];
                for &v in g.neighbors(u) {
                    edges += 1;
                    if self.visited[v as usize] != epoch {
                        self.visited[v as usize] = epoch;
                        if let Some(rank) = highway.rank(v) {
                            highway_out.push((rank, next_depth));
                        }
                        self.next_pruned.push(v);
                    }
                }
            }
            // Labelled frontier: unvisited landmarks are pruned (and enter
            // the highway); everything else receives a label entry.
            for i in 0..self.labeled.len() {
                let u = self.labeled[i];
                for &v in g.neighbors(u) {
                    edges += 1;
                    if self.visited[v as usize] != epoch {
                        self.visited[v as usize] = epoch;
                        if let Some(rank) = highway.rank(v) {
                            highway_out.push((rank, next_depth));
                            self.next_pruned.push(v);
                        } else {
                            let d16 = u16::try_from(next_depth).map_err(|_| {
                                BuildError::DistanceOverflow {
                                    landmark: root,
                                    vertex: v,
                                    distance: next_depth,
                                }
                            })?;
                            labels_out.push((v, d16));
                            self.next_labeled.push(v);
                        }
                    }
                }
            }
            std::mem::swap(&mut self.labeled, &mut self.next_labeled);
            std::mem::swap(&mut self.pruned, &mut self.next_pruned);
            depth = next_depth;
        }
        // Root-to-root entries are never emitted; `root_rank` documents the
        // caller's bookkeeping and guards against misuse in debug builds.
        debug_assert_eq!(highway.rank(root), Some(root_rank));
        Ok(edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use hcl_graph::{generate, traversal, INF};

    #[test]
    fn paper_example_labels_match_figure_2c() {
        let g = fixture::paper_graph();
        let landmarks = fixture::paper_landmarks();
        let (hcl, stats) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();

        // Figure 3: the highway cover labelling has LS = 13.
        assert_eq!(hcl.labels().total_entries(), 13);
        assert_eq!(stats.labels_added, 13);

        // Exact per-vertex entries from Figure 2(c).
        for (vertex, landmark, dist) in fixture::paper_expected_labels() {
            let rank = hcl.highway().rank(landmark).unwrap() as u16;
            let label = hcl.labels().label(vertex);
            assert!(
                label.iter().any(|e| e.landmark == rank && e.dist == dist as u16),
                "expected ({landmark},{dist}) in label of {vertex}, got {label:?}"
            );
        }
        // And nothing else.
        assert_eq!(hcl.labels().total_entries(), fixture::paper_expected_labels().len());
        hcl.labels().validate(hcl.highway()).unwrap();
    }

    #[test]
    fn paper_example_highway_distances() {
        let g = fixture::paper_graph();
        let (hcl, _) = HighwayCoverLabelling::build(&g, &fixture::paper_landmarks()).unwrap();
        let h = hcl.highway();
        let r1 = h.rank(fixture::paper_vertex(1)).unwrap();
        let r5 = h.rank(fixture::paper_vertex(5)).unwrap();
        let r9 = h.rank(fixture::paper_vertex(9)).unwrap();
        // Example 4.2: δH(5,1) = 1, δH(9,1) = 1; and d(5,9) = 2.
        assert_eq!(h.distance(r1, r5), 1);
        assert_eq!(h.distance(r1, r9), 1);
        assert_eq!(h.distance(r5, r9), 2);
    }

    #[test]
    fn labels_hold_exact_bfs_distances() {
        let g = generate::barabasi_albert(300, 3, 5);
        let landmarks = hcl_graph::order::top_degree(&g, 8);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        for (rank, &r) in landmarks.iter().enumerate() {
            let truth = traversal::bfs_distances(&g, r);
            for v in g.vertices() {
                for e in hcl.labels().label(v) {
                    if e.landmark == rank as u16 {
                        assert_eq!(e.dist as u32, truth[v as usize], "entry ({r},{v})");
                    }
                }
            }
        }
    }

    #[test]
    fn label_present_iff_no_other_landmark_on_any_shortest_path() {
        // The Lemma 3.7 characterisation, checked by brute force.
        for seed in 0..4u64 {
            let g = generate::erdos_renyi(60, 130, seed);
            let landmarks = hcl_graph::order::top_degree(&g, 5);
            let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
            let dist: Vec<Vec<u32>> =
                (0..g.num_vertices()).map(|v| traversal::bfs_distances(&g, v as u32)).collect();
            for v in g.vertices() {
                if hcl.highway().is_landmark(v) {
                    assert!(hcl.labels().label(v).is_empty());
                    continue;
                }
                for (rank, &r) in landmarks.iter().enumerate() {
                    let d_rv = dist[r as usize][v as usize];
                    let expected = d_rv != INF
                        && !landmarks.iter().any(|&w| {
                            w != r
                                && w != v
                                && dist[r as usize][w as usize] != INF
                                && dist[w as usize][v as usize] != INF
                                && dist[r as usize][w as usize] + dist[w as usize][v as usize]
                                    == d_rv
                        });
                    let present = hcl.labels().label(v).iter().any(|e| e.landmark == rank as u16);
                    assert_eq!(present, expected, "landmark {r} vertex {v} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn order_independence_lemma_3_11() {
        let g = generate::barabasi_albert(200, 3, 9);
        let landmarks = hcl_graph::order::top_degree(&g, 6);
        let (a, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let mut rev = landmarks.clone();
        rev.reverse();
        let (b, _) = HighwayCoverLabelling::build(&g, &rev).unwrap();
        // Same entries per vertex (ranks differ with the order, so compare
        // resolved landmark vertices).
        for v in g.vertices() {
            let mut ea: Vec<(VertexId, u16)> = a
                .labels()
                .label(v)
                .iter()
                .map(|e| (a.highway().landmark(e.landmark as u32), e.dist))
                .collect();
            let mut eb: Vec<(VertexId, u16)> = b
                .labels()
                .label(v)
                .iter()
                .map(|e| (b.highway().landmark(e.landmark as u32), e.dist))
                .collect();
            ea.sort_unstable();
            eb.sort_unstable();
            assert_eq!(ea, eb, "vertex {v}");
        }
        assert_eq!(a.labels().total_entries(), b.labels().total_entries());
    }

    #[test]
    fn every_connected_nonlandmark_vertex_is_covered() {
        // In a connected graph the closest landmark always labels a vertex.
        let g = generate::watts_strogatz(150, 6, 0.05, 3);
        let landmarks = hcl_graph::order::top_degree(&g, 10);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        for v in g.vertices() {
            if !hcl.highway().is_landmark(v) {
                assert!(!hcl.labels().label(v).is_empty(), "vertex {v} uncovered");
            }
        }
    }

    #[test]
    fn highway_closure_on_path_graph() {
        // Landmarks strung along a path: each pruned BFS stops early, so the
        // far pairs are only recovered by the Floyd–Warshall closure.
        let g = generate::path(9);
        let landmarks = vec![0u32, 4, 8];
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let h = hcl.highway();
        assert_eq!(h.distance(0, 1), 4);
        assert_eq!(h.distance(1, 2), 4);
        assert_eq!(h.distance(0, 2), 8, "recovered transitively");
    }

    #[test]
    fn disconnected_graph_leaves_infinite_highway_pairs() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &[0, 3]).unwrap();
        assert_eq!(hcl.highway().distance(0, 1), INF);
        // Each component is still labelled by its own landmark.
        assert!(!hcl.labels().label(2).is_empty());
        assert!(!hcl.labels().label(5).is_empty());
    }

    #[test]
    fn empty_landmark_set_builds_empty_labelling() {
        let g = generate::cycle(5);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &[]).unwrap();
        assert_eq!(hcl.num_landmarks(), 0);
        assert_eq!(hcl.labels().total_entries(), 0);
    }

    #[test]
    fn validation_errors() {
        let g = generate::path(4);
        assert!(matches!(
            HighwayCoverLabelling::build(&g, &[9]),
            Err(BuildError::LandmarkOutOfRange { .. })
        ));
        assert!(matches!(
            HighwayCoverLabelling::build(&g, &[1, 1]),
            Err(BuildError::DuplicateLandmark { .. })
        ));
    }

    #[test]
    fn distance_overflow_reported() {
        // A path longer than u16::MAX with a landmark at one end.
        let g = generate::path(70_000);
        assert!(matches!(
            HighwayCoverLabelling::build(&g, &[0]),
            Err(BuildError::DistanceOverflow { .. })
        ));
    }

    #[test]
    fn single_landmark_labels_whole_component() {
        let g = generate::random_tree(100, 4);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &[0]).unwrap();
        assert_eq!(hcl.labels().total_entries(), 99);
    }
}
