//! Construction of the highway cover labelling (Algorithm 1), many
//! landmarks per breadth-first pass.
//!
//! Algorithm 1 runs one pruned BFS per landmark. Each BFS keeps two
//! frontiers:
//!
//! * the **labelled** frontier (`Qlabel`): vertices whose shortest paths
//!   from the root are free of other landmarks — their unvisited neighbours
//!   receive label entries;
//! * the **pruned** frontier (`Qprune`): landmarks and vertices with a
//!   landmark on some shortest path from the root — their neighbours are
//!   claimed *without* labels.
//!
//! A vertex reachable at the same depth through both a pruned and a
//! labelled parent is pruned. This yields exactly the semantics of
//! Lemma 3.7: `(r, d)` enters `L(v)` iff **no** shortest `r–v` path contains
//! another landmark. A BFS stops as soon as its labelled frontier empties —
//! typically long before the graph is exhausted, which is where the
//! method's construction-time advantage comes from.
//!
//! By Lemma 3.11 each landmark's BFS is independent of every other, so
//! `GroupBfs` runs the BFSs of a *group* of up to 32 landmarks in one
//! pass, one bit per landmark (the bit-parallel idea of PLL, Akiba et al.
//! §4.2). Per vertex it keeps four masks: `seen`, the next level's
//! labelled and pruned arrivals, and the bits that labelled the vertex. A
//! frontier vertex reads its adjacency row once for all the bits it
//! expands, so a group scans each row at most once per level instead of
//! once per landmark. A bit whose labelled frontier empties stops
//! expanding, exactly as its own BFS would. The output is the labelling
//! the per-landmark BFSs produce, entry for entry; the tests hold the
//! per-landmark BFS as the reference.
//!
//! Assembly places each label entry directly in the flat store: the groups
//! are contiguous rank ranges, so a vertex's entries from earlier groups
//! precede its entries from this one, and within a group they are ordered
//! by bit.

use crate::highway::Highway;
use crate::labels::{HighwayLabels, MAX_LANDMARKS};
use crate::BuildError;
use hcl_graph::{CsrGraph, VertexId};
use std::ops::Range;
use std::time::Duration;

/// Instrumentation returned by the builders.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Wall-clock construction time.
    pub duration: Duration,
    /// Neighbour examinations summed over the landmarks' pruned BFSs (the
    /// "ET" counter of the paper's Figures 3–4): a row read for `k`
    /// landmarks at once counts `k` times.
    pub edges_traversed: u64,
    /// Adjacency entries the builder actually read: a row read for a whole
    /// group of landmarks counts once.
    pub rows_scanned: u64,
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
    /// Builds the labelling on the calling thread ("HL" in the paper's
    /// tables): [`build_parallel`](Self::build_parallel) with one thread.
    ///
    /// `landmarks` may be in any order; the result is identical for every
    /// ordering (Lemma 3.11), which the tests verify.
    pub fn build(g: &CsrGraph, landmarks: &[VertexId]) -> Result<(Self, BuildStats), BuildError> {
        Self::build_parallel(g, landmarks, 1)
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
    if landmarks.len() > MAX_LANDMARKS {
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

/// The most landmarks one [`GroupBfs`] pass carries: one bit each in a
/// `u32` mask.
pub(crate) const GROUP_BITS: usize = 32;

/// Splits ranks `0..r` into `max(parts, ⌈r/32⌉)` contiguous groups of
/// near-equal size (never more groups than landmarks).
pub(crate) fn rank_groups(r: usize, parts: usize) -> Vec<Range<usize>> {
    let count = parts.max(r.div_ceil(GROUP_BITS)).min(r);
    let mut groups = Vec::with_capacity(count);
    let mut start = 0;
    for i in 0..count {
        let len = r / count + usize::from(i < r % count);
        groups.push(start..start + len);
        start += len;
    }
    groups
}

/// One group's pruned BFSs, as [`assemble_labels`] and the highway need
/// them.
pub(crate) struct GroupLabels {
    /// Rank of the group's bit 0; bit `b` is landmark rank `first + b`.
    first: u32,
    /// Per vertex, the bits whose landmark labels it.
    labelled: Vec<u32>,
    /// `(vertex, bits)`: the vertex is labelled by those bits at the
    /// depth of the record's level.
    records: Vec<(VertexId, u32)>,
    /// `(depth, end)` per level that produced records: that level's
    /// records are `records[previous end..end]`.
    levels: Vec<(u8, usize)>,
    /// Highway cells `(rank, rank, distance)` the group discovered.
    pub(crate) highway_cells: Vec<(u32, u32, u32)>,
    pub(crate) edges_traversed: u64,
    pub(crate) rows_scanned: u64,
    pub(crate) labels_added: u64,
}

/// A vertex's arrivals at the next level of a [`GroupBfs`].
#[derive(Clone, Copy, Default)]
struct Arrivals {
    /// Bits arriving through a labelled parent.
    labelled: u32,
    /// Bits arriving through a pruned parent.
    pruned: u32,
}

/// Reusable state for the pruned BFSs of one landmark group. A worker is
/// sized for the graph once and then serves any number of groups; the
/// parallel builder gives each thread its own.
pub(crate) struct GroupBfs {
    /// Per vertex, the bits whose BFS has reached it. The scan reads only
    /// this array for a neighbour that brings nothing new, so it is kept
    /// apart from the rest.
    seen: Vec<u32>,
    next: Vec<Arrivals>,
    /// The current level: `(vertex, labelled bits, pruned bits)`.
    frontier: Vec<(VertexId, u32, u32)>,
    /// Vertices with arrivals at the next level, each listed once.
    touched: Vec<VertexId>,
}

impl GroupBfs {
    pub(crate) fn new(n: usize) -> Self {
        GroupBfs {
            seen: vec![0; n],
            next: vec![Arrivals::default(); n],
            frontier: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Runs the pruned BFSs of the landmarks with ranks `group` (at most
    /// [`GROUP_BITS`]) together. Pruning consults `highway`'s rank table,
    /// so landmarks outside the group prune too. The group's labelled
    /// masks, the fourth per-vertex mask, go out with its result.
    pub(crate) fn run(
        &mut self,
        g: &CsrGraph,
        highway: &Highway,
        group: Range<usize>,
    ) -> Result<GroupLabels, BuildError> {
        debug_assert!(group.len() <= GROUP_BITS);
        let rows = g.rows();
        let roots = &highway.landmarks()[group.clone()];
        let first = group.start as u32;
        let mut out = GroupLabels {
            first,
            labelled: vec![0; self.seen.len()],
            records: Vec::new(),
            levels: Vec::new(),
            highway_cells: Vec::new(),
            edges_traversed: 0,
            rows_scanned: 0,
            labels_added: 0,
        };

        // A run that failed may have left state behind.
        self.seen.fill(0);
        self.next.fill(Arrivals::default());
        self.touched.clear();
        self.frontier.clear();
        for (bit, &root) in roots.iter().enumerate() {
            self.seen[root as usize] = 1 << bit;
            self.frontier.push((root, 1 << bit, 0));
        }
        // Bits whose labelled frontier is non-empty: the BFSs still running.
        let mut alive = if roots.len() == GROUP_BITS { u32::MAX } else { (1 << roots.len()) - 1 };
        let mut depth: u32 = 0;
        while alive != 0 {
            depth += 1;
            for &(u, labelled, pruned) in &self.frontier {
                let pruned = pruned & alive;
                let spread = labelled | pruned;
                if spread == 0 {
                    continue;
                }
                let row = rows.neighbors(u);
                out.rows_scanned += row.len() as u64;
                out.edges_traversed += row.len() as u64 * u64::from(spread.count_ones());
                for &v in row {
                    let fresh = spread & !self.seen[v as usize];
                    if fresh == 0 {
                        continue;
                    }
                    let next = &mut self.next[v as usize];
                    if next.labelled | next.pruned == 0 {
                        self.touched.push(v);
                    }
                    next.labelled |= labelled & fresh;
                    next.pruned |= pruned & fresh;
                }
            }

            // Settle the next level. A bit that arrived through any pruned
            // parent stays pruned; at a landmark every bit is pruned and
            // records a highway cell; elsewhere the rest label the vertex.
            self.frontier.clear();
            alive = 0;
            // In vertex order, the next level's row reads and the label
            // placement walk memory nearly in order: this halved the build
            // of a 1M-vertex BA graph against discovery order.
            self.touched.sort_unstable();
            for &v in &self.touched {
                let next = std::mem::take(&mut self.next[v as usize]);
                let fresh = next.labelled | next.pruned;
                self.seen[v as usize] |= fresh;
                let (labelled, pruned) = match highway.rank(v) {
                    Some(rank) => {
                        for bit in bits(fresh) {
                            out.highway_cells.push((first + bit, rank, depth));
                        }
                        (0, fresh)
                    }
                    None => (next.labelled & !next.pruned, next.pruned),
                };
                if labelled != 0 {
                    if depth > u32::from(u8::MAX) {
                        return Err(BuildError::DistanceOverflow {
                            landmark: roots[labelled.trailing_zeros() as usize],
                            vertex: v,
                            distance: depth,
                        });
                    }
                    out.labelled[v as usize] |= labelled;
                    out.records.push((v, labelled));
                    out.labels_added += u64::from(labelled.count_ones());
                }
                alive |= labelled;
                self.frontier.push((v, labelled, pruned));
            }
            self.touched.clear();
            if out.levels.last().map_or(0, |&(_, end)| end) < out.records.len() {
                out.levels.push((depth as u8, out.records.len()));
            }
        }
        Ok(out)
    }
}

/// The set bits of `mask`, lowest first.
fn bits(mut mask: u32) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros();
            mask &= mask - 1;
            bit
        })
    })
}

/// Builds the flat label store (separate rank and dist lanes) from the
/// groups' outputs, given in rank order. A vertex's entries from earlier
/// groups come first and, within a group, entries follow bit order, so
/// every per-vertex list is sorted by rank and queries can merge labels in
/// one pass.
pub(crate) fn assemble_labels(n: usize, groups: &[GroupLabels]) -> HighwayLabels {
    let mut offsets = vec![0u32; n + 1];
    for group in groups {
        for (count, bits) in offsets[1..].iter_mut().zip(&group.labelled) {
            *count += bits.count_ones();
        }
    }
    for i in 1..=n {
        offsets[i] += offsets[i - 1];
    }
    let total = offsets[n] as usize;
    let mut ranks = vec![0u8; total];
    let mut dists = vec![0u8; total];
    // `base[v]`: the slot of `v`'s first entry from the current group.
    let mut base: Vec<u32> = offsets[..n].to_vec();
    for group in groups {
        let mut start = 0;
        for &(depth, end) in &group.levels {
            for &(v, labelled) in &group.records[start..end] {
                let all = group.labelled[v as usize];
                for bit in bits(labelled) {
                    let below = all & ((1u32 << bit) - 1);
                    let slot = (base[v as usize] + below.count_ones()) as usize;
                    ranks[slot] = (group.first + bit) as u8;
                    dists[slot] = depth;
                }
            }
            start = end;
        }
        for (slot, bits) in base.iter_mut().zip(&group.labelled) {
            *slot += bits.count_ones();
        }
    }
    HighwayLabels::from_parts(offsets, ranks, dists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use hcl_graph::{connectivity, generate, traversal, INF};

    /// One pruned BFS: its label entries `(vertex, dist)`, highway cells
    /// `(other rank, dist)` and neighbour examinations (ET).
    type ReferenceRun = (Vec<(VertexId, u8)>, Vec<(u32, u32)>, u64);

    /// Algorithm 1 as written: one pruned BFS from `root`, the reference
    /// the word-parallel kernel must reproduce.
    fn reference_bfs(g: &CsrGraph, highway: &Highway, root: VertexId) -> ReferenceRun {
        let mut visited = vec![false; g.num_vertices()];
        visited[root as usize] = true;
        let (mut labelled, mut pruned) = (vec![root], Vec::new());
        let (mut labels, mut cells, mut edges) = (Vec::new(), Vec::new(), 0u64);
        let mut depth = 0u32;
        while !labelled.is_empty() {
            depth += 1;
            let (mut next_labelled, mut next_pruned) = (Vec::new(), Vec::new());
            // The pruned frontier expands first: anything it reaches at this
            // level is pruned even if a labelled parent also reaches it.
            for &u in &pruned {
                for &v in g.neighbors(u) {
                    edges += 1;
                    if !std::mem::replace(&mut visited[v as usize], true) {
                        if let Some(rank) = highway.rank(v) {
                            cells.push((rank, depth));
                        }
                        next_pruned.push(v);
                    }
                }
            }
            // Unvisited landmarks are pruned (and enter the highway);
            // everything else receives a label entry.
            for &u in &labelled {
                for &v in g.neighbors(u) {
                    edges += 1;
                    if !std::mem::replace(&mut visited[v as usize], true) {
                        if let Some(rank) = highway.rank(v) {
                            cells.push((rank, depth));
                            next_pruned.push(v);
                        } else {
                            labels.push((v, u8::try_from(depth).unwrap()));
                            next_labelled.push(v);
                        }
                    }
                }
            }
            labelled = next_labelled;
            pruned = next_pruned;
        }
        (labels, cells, edges)
    }

    /// The labelling, ET and LS of one [`reference_bfs`] per landmark.
    fn reference_build(g: &CsrGraph, landmarks: &[VertexId]) -> (HighwayCoverLabelling, u64, u64) {
        let mut highway = Highway::new(g.num_vertices(), landmarks);
        let mut rows: Vec<Vec<(u8, u8)>> = vec![Vec::new(); g.num_vertices()];
        let mut edges_traversed = 0;
        for (rank, &root) in landmarks.iter().enumerate() {
            let (labels, cells, edges) = reference_bfs(g, &highway, root);
            edges_traversed += edges;
            for (v, d) in labels {
                rows[v as usize].push((rank as u8, d));
            }
            for (other, d) in cells {
                highway.record(rank as u32, other, d);
            }
        }
        highway.close();
        let (mut offsets, mut ranks, mut dists) = (vec![0u32], Vec::new(), Vec::new());
        for row in rows {
            for (rank, d) in row {
                ranks.push(rank);
                dists.push(d);
            }
            offsets.push(ranks.len() as u32);
        }
        let labels_added = ranks.len() as u64;
        let labels = HighwayLabels::from_parts(offsets, ranks, dists);
        (HighwayCoverLabelling::from_parts(highway, labels), edges_traversed, labels_added)
    }

    #[test]
    fn word_parallel_build_matches_per_landmark_reference() {
        let er = generate::erdos_renyi(400, 330, 5);
        assert!(connectivity::connected_components(&er).1 > 1);
        let graphs = [
            ("BA", generate::barabasi_albert(400, 3, 11)),
            ("ER", er),
            ("WS", generate::watts_strogatz(300, 6, 0.05, 3)),
            ("tree", generate::random_tree(300, 4)),
            ("path", generate::path(9)),
        ];
        for (name, g) in &graphs {
            for r in [0usize, 1, 31, 32, 33, 64, 65, 100] {
                let landmarks = hcl_graph::order::top_degree(g, r.min(g.num_vertices()));
                let (expected, et, ls) = reference_build(g, &landmarks);
                for threads in [1usize, 2, 3, 8] {
                    let (built, stats) =
                        HighwayCoverLabelling::build_parallel(g, &landmarks, threads).unwrap();
                    let case = format!("{name} r {r} threads {threads}");
                    assert_eq!(built, expected, "{case}");
                    assert_eq!((stats.edges_traversed, stats.labels_added), (et, ls), "{case}");
                    assert!(stats.rows_scanned <= stats.edges_traversed, "{case}");
                }
            }
        }
    }

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
            let rank = hcl.highway().rank(landmark).unwrap() as u8;
            let label = hcl.labels().label(vertex);
            assert!(
                label.iter().any(|e| e.landmark == rank && e.dist == dist as u8),
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
                    if e.landmark == rank as u8 {
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
                    let present = hcl.labels().label(v).iter().any(|e| e.landmark == rank as u8);
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
            let mut ea: Vec<(VertexId, u8)> = a
                .labels()
                .label(v)
                .iter()
                .map(|e| (a.highway().landmark(e.landmark as u32), e.dist))
                .collect();
            let mut eb: Vec<(VertexId, u8)> = b
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
        // A path longer than u8::MAX with a landmark at one end: vertex 256
        // is the first one out of range.
        let g = generate::path(300);
        assert_eq!(
            HighwayCoverLabelling::build(&g, &[0]).err(),
            Some(BuildError::DistanceOverflow { landmark: 0, vertex: 256, distance: 256 })
        );
        let (hcl, _) = HighwayCoverLabelling::build(&generate::path(256), &[0]).unwrap();
        assert_eq!(hcl.labels().label(255).to_vec()[0].dist, 255, "255 is in range");
    }

    #[test]
    fn landmark_count_is_capped_at_one_byte_of_rank() {
        let g = generate::path(300);
        let all: Vec<VertexId> = (0..=MAX_LANDMARKS as VertexId).collect();
        assert_eq!(
            HighwayCoverLabelling::build(&g, &all).err(),
            Some(BuildError::TooManyLandmarks { requested: 257 })
        );
        // Exactly MAX_LANDMARKS: the last rank, 255, labels the tail.
        let (hcl, _) = HighwayCoverLabelling::build(&g, &all[..MAX_LANDMARKS]).unwrap();
        assert_eq!(hcl.num_landmarks(), 256);
        let tail = hcl.labels().label(299).to_vec();
        assert_eq!(tail, vec![crate::LabelEntry { landmark: 255, dist: 44 }]);
        hcl.labels().validate(hcl.highway()).unwrap();
    }

    #[test]
    fn single_landmark_labels_whole_component() {
        let g = generate::random_tree(100, 4);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &[0]).unwrap();
        assert_eq!(hcl.labels().total_entries(), 99);
    }
}
