//! Graph searches: BFS, bidirectional BFS, distance-bounded bidirectional
//! BFS (the online component of the paper's querying framework, Algorithm 2).
//!
//! Point-to-point searches run on a reusable [`SearchSpace`] whose visit
//! marks are *epoch-versioned*: a query bumps the epoch instead of clearing
//! its `O(n)` arrays, so after a one-time allocation repeated queries touch
//! only the vertices they actually visit. This is what makes millisecond
//! query times possible on large graphs.

use crate::csr::CsrGraph;
use crate::{VertexId, INF};

/// Computes BFS distances from `src` to every vertex (`INF` = unreachable).
///
/// Used for landmark shortest-path trees (FD), ground truth in tests, and
/// statistics. For point-to-point queries prefer [`SearchSpace`].
pub fn bfs_distances(g: &CsrGraph, src: VertexId) -> Vec<u32> {
    let mut dist = vec![INF; g.num_vertices()];
    bfs_distances_into(g, src, &mut dist);
    dist
}

/// Like [`bfs_distances`] but reuses the caller's buffer (resized and reset).
///
/// Level-synchronous and *direction-optimizing*: a level whose frontier
/// carries more than a third of the graph's directed edges is expanded
/// bottom-up (each unvisited vertex scans its neighbours until it finds a
/// frontier parent and stops), which on the hub-dominated levels of
/// power-law graphs examines a fraction of the edges top-down expansion
/// would. On path-like graphs the frontier never crosses the threshold and
/// the classic top-down sweep runs unchanged.
pub fn bfs_distances_into(g: &CsrGraph, src: VertexId, dist: &mut Vec<u32>) {
    let n = g.num_vertices();
    dist.clear();
    dist.resize(n, INF);
    dist[src as usize] = 0;
    let mut frontier: Vec<VertexId> = vec![src];
    let mut next: Vec<VertexId> = Vec::new();
    let total_edges = 2 * g.num_edges() as u64;
    let g = g.rows();
    let mut frontier_edges = g.degree(src) as u64;
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        next.clear();
        if 3 * frontier_edges > total_edges {
            // Bottom-up: frontier membership is `dist == d - 1`.
            for v in 0..n as VertexId {
                if dist[v as usize] != INF {
                    continue;
                }
                for &y in g.neighbors(v) {
                    if dist[y as usize] == d - 1 {
                        dist[v as usize] = d;
                        next.push(v);
                        break;
                    }
                }
            }
        } else {
            for &u in &frontier {
                for &v in g.neighbors(u) {
                    if dist[v as usize] == INF {
                        dist[v as usize] = d;
                        next.push(v);
                    }
                }
            }
        }
        frontier_edges = next.iter().map(|&v| g.degree(v) as u64).sum();
        std::mem::swap(&mut frontier, &mut next);
    }
}

/// Reusable state for point-to-point searches on graphs with up to `n`
/// vertices. One `SearchSpace` serves any number of sequential queries; for
/// parallel querying give each thread its own.
#[derive(Clone, Debug)]
pub struct SearchSpace {
    /// Query counter, `1..=MAX_EPOCH` (31 bits, so `epoch << 1 | side`
    /// fits a `u32`).
    epoch: u32,
    /// The one per-vertex visit word, shared by both search directions and
    /// by every search on this space: `epoch << 1 | side` (`side` 0 =
    /// forward / the only side of a unidirectional search, 1 = reverse).
    /// A vertex is marked by at most one side per query, and a meeting
    /// vertex always sits on the other side's current level (see
    /// [`bounded_bibfs_sparse`](Self::bounded_bibfs_sparse) for both
    /// invariants), so neither a second array nor a stored distance is
    /// needed: examining a neighbour is one 4-byte load, and a context
    /// costs `4n` bytes.
    visit: Vec<u32>,
    frontier: Vec<VertexId>,
    frontier_other: Vec<VertexId>,
    next: Vec<VertexId>,
    effort: SearchEffort,
}

/// Work done by the most recent
/// [`bounded_bibfs_sparse`](SearchSpace::bounded_bibfs_sparse) call,
/// accumulated once per BFS *level* from values the kernel carries anyway
/// (no per-neighbour increment), so it is exact and repeats run to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchEffort {
    /// Sum of the frontier degrees of every level the search began to
    /// expand or probe (a level cut short by a meeting counts in full).
    pub edges_scanned: u64,
    /// Vertices marked, the two endpoints included. The probe-only last
    /// level marks nothing.
    pub vertices_settled: u64,
}

/// Largest epoch whose reverse-side word `epoch << 1 | 1` fits a `u32`.
const MAX_EPOCH: u32 = u32::MAX >> 1;

impl SearchSpace {
    /// Creates a search space for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        SearchSpace {
            epoch: 0,
            visit: vec![0; n],
            frontier: Vec::new(),
            frontier_other: Vec::new(),
            next: Vec::new(),
            effort: SearchEffort::default(),
        }
    }

    /// Grows the buffers to accommodate `n` vertices (no-op if large enough).
    pub fn ensure(&mut self, n: usize) {
        if self.visit.len() < n {
            self.visit.resize(n, 0);
        }
    }

    /// Effort counters of the most recent
    /// [`bounded_bibfs_sparse`](Self::bounded_bibfs_sparse) call (all zero
    /// if it returned before searching).
    pub fn effort(&self) -> SearchEffort {
        self.effort
    }

    /// Bumps the epoch and returns the *stamp* of the new query,
    /// `epoch << 1`: the forward side's visit word (`stamp | 1` is the
    /// reverse side's). A vertex counts as visited this query iff its word
    /// is `>= stamp` — epochs only grow, so any word from an earlier query
    /// compares below every stamp of a later one.
    fn next_stamp(&mut self) -> u32 {
        // On wrap-around, reset the visit words; with 31-bit epochs this
        // happens once every 2 billion queries.
        if self.epoch == MAX_EPOCH {
            self.visit.iter_mut().for_each(|m| *m = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch << 1
    }

    /// Test hook: makes the next search run at epoch `epoch + 1` (or wrap
    /// if `epoch` is the maximum), so the wrap path is reachable without
    /// 2³¹ queries.
    #[cfg(test)]
    fn set_epoch(&mut self, epoch: u32) {
        assert!(epoch <= MAX_EPOCH);
        self.epoch = epoch;
    }

    /// Unidirectional early-exit BFS distance from `s` to `t`.
    pub fn bfs_distance(&mut self, g: &CsrGraph, s: VertexId, t: VertexId) -> Option<u32> {
        self.ensure(g.num_vertices());
        if s == t {
            return Some(0);
        }
        let stamp = self.next_stamp();
        self.frontier.clear();
        self.frontier.push(s);
        self.visit[s as usize] = stamp;
        let mut d = 0u32;
        while !self.frontier.is_empty() {
            self.next.clear();
            for i in 0..self.frontier.len() {
                let u = self.frontier[i];
                for &v in g.neighbors(u) {
                    if self.visit[v as usize] < stamp {
                        if v == t {
                            return Some(d + 1);
                        }
                        self.visit[v as usize] = stamp;
                        self.next.push(v);
                    }
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
            d += 1;
        }
        None
    }

    /// Bidirectional BFS distance from `s` to `t` (the paper's `Bi-BFS`
    /// online baseline \[21\]).
    pub fn bibfs_distance(&mut self, g: &CsrGraph, s: VertexId, t: VertexId) -> Option<u32> {
        let d = self.bounded_bibfs(g, s, t, INF, |_| false);
        if d == INF {
            None
        } else {
            Some(d)
        }
    }

    /// Distance-bounded bidirectional BFS on the subgraph induced by
    /// vertices for which `skip` returns `false` (Algorithm 2).
    ///
    /// Returns `min(d_G'(s, t), bound)` where `G'` is the skip-filtered
    /// graph; returns `bound` as soon as the two searches can prove
    /// `d_G'(s, t) >= bound`, and `INF` only if `bound == INF` and `t` is
    /// unreachable from `s` in `G'`.
    ///
    /// In the paper's framework `skip` filters out the landmarks (so `G'` is
    /// the sparsified graph `G[V∖R]`) and `bound` is the label upper bound
    /// `d⊤(s, t)`, which is exact whenever some shortest `s–t` path crosses a
    /// landmark; hence the minimum of the two is the exact distance in `G`.
    ///
    /// `s` and `t` must not themselves be skipped.
    pub fn bounded_bibfs<F>(
        &mut self,
        g: &CsrGraph,
        s: VertexId,
        t: VertexId,
        bound: u32,
        skip: F,
    ) -> u32
    where
        F: Fn(VertexId) -> bool,
    {
        debug_assert!(!skip(s) && !skip(t), "query endpoints must not be skipped");
        self.ensure(g.num_vertices());
        if s == t {
            return 0;
        }
        if bound == 0 {
            return 0;
        }
        let stamp = self.next_stamp();
        let (word_fwd, word_rev) = (stamp, stamp | 1);

        self.frontier.clear();
        self.frontier.push(s);
        self.visit[s as usize] = word_fwd;

        self.frontier_other.clear();
        self.frontier_other.push(t);
        self.visit[t as usize] = word_rev;

        let mut d_fwd = 0u32;
        let mut d_rev = 0u32;
        // Total vertices settled on each side; the paper expands the smaller
        // side (`|Ps| <= |Pt|`, Algorithm 2 line 4).
        let mut settled_fwd = 1usize;
        let mut settled_rev = 1usize;

        loop {
            if self.frontier.is_empty() || self.frontier_other.is_empty() {
                // One side exhausted its component without meeting the other:
                // d_G'(s, t) = INF, so the bound (possibly INF) is the answer.
                return bound;
            }
            // Once the explored radii reach the bound, any undiscovered path
            // has length >= d_fwd + d_rev + 1 > bound.
            if d_fwd.saturating_add(d_rev) >= bound {
                return bound;
            }

            let forward = settled_fwd <= settled_rev;
            let (frontier, mine, theirs, d_same, d_other) = if forward {
                (&mut self.frontier, word_fwd, word_rev, &mut d_fwd, d_rev)
            } else {
                (&mut self.frontier_other, word_rev, word_fwd, &mut d_rev, d_fwd)
            };

            self.next.clear();
            for &u in frontier.iter() {
                for &v in g.neighbors(u) {
                    let vi = v as usize;
                    if skip(v) {
                        continue;
                    }
                    let word = self.visit[vi];
                    if word == theirs {
                        // The searches met. The other side settled `v` at
                        // its current level `d_other` (see the invariants
                        // on `bounded_bibfs_sparse`; a closer meeting point
                        // would have been found in an earlier level), so
                        // this is the exact filtered distance.
                        return (*d_same + 1).saturating_add(d_other).min(bound);
                    }
                    if word < stamp {
                        self.visit[vi] = mine;
                        self.next.push(v);
                    }
                }
            }
            let settled_this_level = self.next.len();
            std::mem::swap(frontier, &mut self.next);
            *d_same += 1;
            if forward {
                settled_fwd += settled_this_level;
            } else {
                settled_rev += settled_this_level;
            }
        }
    }

    /// Distance-bounded bidirectional BFS with **no** vertex filter — the
    /// query fast path. The caller passes the sparsified graph `G[V∖R]`
    /// already materialised (see `CsrGraph::without_vertices`), so the inner
    /// loop examines each neighbour with zero skip-predicate or rank-lookup
    /// calls. Returns `min(d_g(s, t), bound)` exactly like
    /// [`bounded_bibfs`](Self::bounded_bibfs) with a never-skip filter.
    ///
    /// Generic over [`Adjacency`](crate::csr::Adjacency) so the same monomorphised loop serves both
    /// the in-memory [`CsrGraph`] and `hcl-store`'s memory-mapped packed
    /// index (whose sparsified CSR sections are `&[u32]` slices straight
    /// over the mapping).
    ///
    /// On an index that misses cache the search is bound by memory
    /// latency, so the kernel is built around how few cache lines a query
    /// touches. It relies on two invariants, both consequences of
    /// level-synchronous expansion in which every mark tests the other
    /// side first:
    ///
    /// 1. **The marked balls are disjoint.** A vertex already marked by
    ///    the other side is a meeting (the search returns), never a mark —
    ///    so one visit word `epoch << 1 | side` per vertex serves both
    ///    directions, and any still-undiscovered path is longer than
    ///    `d_fwd + d_rev`.
    /// 2. **A meeting vertex is on the other side's current level.** Had
    ///    the other side marked `v` at an earlier level it would since
    ///    have expanded `v`, and so either met or marked the neighbour `u`
    ///    we reach `v` from — but `u` carries *our* mark. So no distance
    ///    is stored: a meeting is a path of exactly `d_fwd + d_rev + 1`.
    ///
    /// Refinements over the reference:
    ///
    /// * the side to expand is chosen by pending frontier *edge* weight
    ///   (sum of frontier degrees — the cost actually about to be paid)
    ///   rather than settled-vertex count;
    /// * the cutoff uses the tight bidirectional lower bound of invariant
    ///   1: once `d_fwd + d_rev + 1 >= bound` the bound is the answer, one
    ///   level earlier than the `d_fwd + d_rev >= bound` test;
    /// * the **last level is probe-only**: when `d_fwd + d_rev + 2 >=
    ///   bound` the cutoff will fire right after this level, so only a
    ///   meeting can still change the answer — the level just tests each
    ///   neighbour's word against the other side's, with no store, no
    ///   `next` push and no degree lookup. On a uniform workload that is
    ///   the largest level of the search.
    ///
    /// Software prefetch of the visit words a few neighbours ahead was
    /// measured and gained nothing (the probe loop has no dependent
    /// stores, so the core already overlaps the loads); it is
    /// deliberately absent.
    pub fn bounded_bibfs_sparse<A: crate::csr::Adjacency + ?Sized>(
        &mut self,
        g: &A,
        s: VertexId,
        t: VertexId,
        bound: u32,
    ) -> u32 {
        self.ensure(g.num_vertices());
        self.effort = SearchEffort::default();
        if s == t {
            return 0;
        }
        if bound == 0 {
            return 0;
        }
        let stamp = self.next_stamp();
        let (word_fwd, word_rev) = (stamp, stamp | 1);
        let visit = &mut self.visit[..];

        self.frontier.clear();
        self.frontier.push(s);
        visit[s as usize] = word_fwd;

        self.frontier_other.clear();
        self.frontier_other.push(t);
        visit[t as usize] = word_rev;
        self.effort.vertices_settled = 2;

        let mut d_fwd = 0u32;
        let mut d_rev = 0u32;
        // Edges about to be scanned if the side expands: the sum of its
        // frontier degrees in the sparsified graph.
        let mut edges_fwd = g.degree(s) as u64;
        let mut edges_rev = g.degree(t) as u64;

        loop {
            if self.frontier.is_empty() || self.frontier_other.is_empty() {
                // One side exhausted its component without meeting the
                // other: d_g(s, t) = INF, so the bound is the answer.
                return bound;
            }
            // Invariant 1: d_g(s, t) >= d_fwd + d_rev + 1, and by invariant
            // 2 that is exactly the length a meeting in this level finds.
            let through = d_fwd.saturating_add(d_rev).saturating_add(1);
            if through >= bound {
                return bound;
            }

            let forward = edges_fwd <= edges_rev;
            let (frontier, mine, theirs, d_same, edges_same) = if forward {
                (&mut self.frontier, word_fwd, word_rev, &mut d_fwd, &mut edges_fwd)
            } else {
                (&mut self.frontier_other, word_rev, word_fwd, &mut d_rev, &mut edges_rev)
            };
            self.effort.edges_scanned += *edges_same;

            if through.saturating_add(1) >= bound {
                // Last level the cutoff allows: anything marked here would
                // never be expanded, so only look for a meeting.
                for &u in frontier.iter() {
                    if g.neighbors(u).iter().any(|&v| visit[v as usize] == theirs) {
                        return through;
                    }
                }
                return bound;
            }

            self.next.clear();
            let mut next_edges = 0u64;
            let met = 'level: {
                for &u in frontier.iter() {
                    for &v in g.neighbors(u) {
                        let vi = v as usize;
                        let word = visit[vi];
                        if word == theirs {
                            break 'level true;
                        }
                        if word < stamp {
                            visit[vi] = mine;
                            next_edges += g.degree(v) as u64;
                            self.next.push(v);
                        }
                    }
                }
                false
            };
            self.effort.vertices_settled += self.next.len() as u64;
            if met {
                return through;
            }
            std::mem::swap(frontier, &mut self.next);
            *d_same += 1;
            *edges_same = next_edges;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    fn path_graph(n: usize) -> CsrGraph {
        generate::path(n)
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_distances_disconnected() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], INF);
        assert_eq!(d[3], INF);
    }

    #[test]
    fn point_to_point_matches_full_bfs() {
        let g = generate::erdos_renyi(80, 160, 42);
        let mut space = SearchSpace::new(g.num_vertices());
        for s in [0u32, 7, 31] {
            let truth = bfs_distances(&g, s);
            for t in g.vertices() {
                let expect = if truth[t as usize] == INF { None } else { Some(truth[t as usize]) };
                assert_eq!(space.bfs_distance(&g, s, t), expect, "bfs {s}->{t}");
                assert_eq!(space.bibfs_distance(&g, s, t), expect, "bibfs {s}->{t}");
            }
        }
    }

    #[test]
    fn same_vertex_is_zero() {
        let g = path_graph(3);
        let mut space = SearchSpace::new(3);
        assert_eq!(space.bfs_distance(&g, 1, 1), Some(0));
        assert_eq!(space.bibfs_distance(&g, 1, 1), Some(0));
        assert_eq!(space.bounded_bibfs(&g, 1, 1, 5, |_| false), 0);
    }

    #[test]
    fn bounded_returns_bound_when_true_distance_exceeds_it() {
        let g = path_graph(10);
        let mut space = SearchSpace::new(10);
        // True distance 9, bound 4 -> the search must stop early.
        assert_eq!(space.bounded_bibfs(&g, 0, 9, 4, |_| false), 4);
        // Bound equal to the true distance is returned exactly.
        assert_eq!(space.bounded_bibfs(&g, 0, 9, 9, |_| false), 9);
        // Loose bound: exact distance wins.
        assert_eq!(space.bounded_bibfs(&g, 0, 9, 100, |_| false), 9);
    }

    #[test]
    fn bounded_with_skip_respects_sparsified_graph() {
        // 0-1-2 and 0-3-4-2: removing vertex 1 forces the long way round.
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)]);
        let mut space = SearchSpace::new(5);
        assert_eq!(space.bounded_bibfs(&g, 0, 2, INF, |_| false), 2);
        assert_eq!(space.bounded_bibfs(&g, 0, 2, INF, |v| v == 1), 3);
        // Skipping both middle vertices disconnects s from t: bound returned.
        assert_eq!(space.bounded_bibfs(&g, 0, 2, 7, |v| v == 1 || v == 3), 7);
        assert_eq!(space.bounded_bibfs(&g, 0, 2, INF, |v| v == 1 || v == 3), INF);
    }

    #[test]
    fn bounded_on_adjacent_vertices() {
        let g = path_graph(2);
        let mut space = SearchSpace::new(2);
        assert_eq!(space.bounded_bibfs(&g, 0, 1, 1, |_| false), 1);
        assert_eq!(space.bounded_bibfs(&g, 0, 1, INF, |_| false), 1);
    }

    #[test]
    fn bounded_matches_reference_on_random_graphs() {
        for seed in 0..5u64 {
            let g = generate::erdos_renyi(60, 110, seed);
            let mut space = SearchSpace::new(g.num_vertices());
            // Reference: full BFS on the graph with vertices 0..3 removed.
            let skip = |v: VertexId| v < 3;
            for s in [3u32, 10, 59] {
                let truth = {
                    // BFS that honours the skip filter.
                    let mut dist = vec![INF; g.num_vertices()];
                    let mut q = std::collections::VecDeque::new();
                    dist[s as usize] = 0;
                    q.push_back(s);
                    while let Some(u) = q.pop_front() {
                        for &v in g.neighbors(u) {
                            if !skip(v) && dist[v as usize] == INF {
                                dist[v as usize] = dist[u as usize] + 1;
                                q.push_back(v);
                            }
                        }
                    }
                    dist
                };
                for t in 3..g.num_vertices() as VertexId {
                    let exact = truth[t as usize];
                    for bound in [0u32, 1, 2, 3, 5, 100, INF] {
                        if s == t {
                            continue;
                        }
                        let got = space.bounded_bibfs(&g, s, t, bound, skip);
                        assert_eq!(got, exact.min(bound), "s={s} t={t} bound={bound}");
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_search_matches_skip_closure_reference() {
        for seed in 0..5u64 {
            let g = generate::erdos_renyi(60, 110, seed);
            let removed: Vec<VertexId> = vec![0, 1, 2];
            let sparse = g.without_vertices(&removed);
            let mut reference = SearchSpace::new(g.num_vertices());
            let mut fast = SearchSpace::new(g.num_vertices());
            for s in [3u32, 10, 59] {
                for t in 3..g.num_vertices() as VertexId {
                    if s == t {
                        continue;
                    }
                    for bound in [0u32, 1, 2, 3, 5, 100, INF] {
                        let want = reference.bounded_bibfs(&g, s, t, bound, |v| v < 3);
                        let got = fast.bounded_bibfs_sparse(&sparse, s, t, bound);
                        assert_eq!(got, want, "seed={seed} s={s} t={t} bound={bound}");
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_search_basics() {
        let g = path_graph(10);
        let mut space = SearchSpace::new(10);
        assert_eq!(space.bounded_bibfs_sparse(&g, 3, 3, 5), 0);
        assert_eq!(space.bounded_bibfs_sparse(&g, 0, 9, 4), 4);
        assert_eq!(space.bounded_bibfs_sparse(&g, 0, 9, 9), 9);
        assert_eq!(space.bounded_bibfs_sparse(&g, 0, 9, INF), 9);
        // Disconnected under removal: bound comes back.
        let cut = g.without_vertices(&[5]);
        assert_eq!(space.bounded_bibfs_sparse(&cut, 0, 9, 7), 7);
        assert_eq!(space.bounded_bibfs_sparse(&cut, 0, 9, INF), INF);
    }

    /// Answers of all three searches for every pair of `g`, on `space`.
    fn all_answers(space: &mut SearchSpace, g: &CsrGraph) -> Vec<(Option<u32>, u32, u32)> {
        let mut out = Vec::new();
        for s in g.vertices() {
            for t in g.vertices() {
                out.push((
                    space.bfs_distance(g, s, t),
                    space.bounded_bibfs(g, s, t, 4, |_| false),
                    space.bounded_bibfs_sparse(g, s, t, 4),
                ));
            }
        }
        out
    }

    #[test]
    fn epoch_wrap_clears_and_stays_correct() {
        let g = generate::erdos_renyi(40, 70, 3);
        let want = all_answers(&mut SearchSpace::new(g.num_vertices()), &g);
        // 3 searches per pair: start close enough to the maximum that the
        // wrap lands mid-run, with stale maximum-epoch words of both sides
        // still in the array.
        let searches = 3 * (g.num_vertices() * g.num_vertices()) as u32;
        let mut space = SearchSpace::new(g.num_vertices());
        space.set_epoch(MAX_EPOCH - searches / 2);
        assert_eq!(all_answers(&mut space, &g), want);
        assert!(space.epoch < searches, "the run must have wrapped");

        // The two searches either side of the wrap, by hand: the last
        // epoch's words are `u32::MAX - 1` / `u32::MAX`, the first epoch's
        // are 2 / 3, and the clear keeps the old marks from reading as
        // visited.
        let path = path_graph(8);
        let mut space = SearchSpace::new(8);
        space.set_epoch(MAX_EPOCH - 1);
        assert_eq!(space.bounded_bibfs_sparse(&path, 0, 7, INF), 7);
        assert_eq!(space.epoch, MAX_EPOCH);
        assert!(space.visit.contains(&u32::MAX));
        assert_eq!(space.bounded_bibfs_sparse(&path, 7, 0, INF), 7);
        assert_eq!(space.epoch, 1);
        assert_eq!(space.bfs_distance(&path, 2, 6), Some(4));
    }

    #[test]
    fn search_space_owns_four_bytes_of_visit_state_per_vertex() {
        let space = SearchSpace::new(1000);
        assert_eq!(std::mem::size_of_val(&space.visit[..]), 4 * 1000);
        assert_eq!(space.visit.capacity(), 1000);
        // Nothing else in the space scales with n up front.
        assert_eq!(space.frontier.capacity() + space.frontier_other.capacity(), 0);
        assert_eq!(space.next.capacity(), 0);
    }

    #[test]
    fn effort_counts_levels_and_is_zero_without_a_search() {
        // Path 0..=9 from both ends, bound INF: levels alternate fwd/rev
        // (ties go forward), every frontier is one vertex.
        let g = path_graph(10);
        let mut space = SearchSpace::new(10);
        assert_eq!(space.bounded_bibfs_sparse(&g, 0, 9, INF), 9);
        let full = space.effort();
        assert_eq!(full.vertices_settled, 10, "every vertex marked exactly once");
        // Endpoint frontiers have degree 1, inner ones degree 2; 9 levels
        // were begun (the 9th finds the meeting).
        assert_eq!(full.edges_scanned, 1 + 1 + 7 * 2);

        // Bound 9 = the true distance: the cutoff stops after level 7 and
        // level 8 only probes, so less is marked and the answer is equal.
        assert_eq!(space.bounded_bibfs_sparse(&g, 0, 9, 9), 9);
        let bounded = space.effort();
        assert!(bounded.vertices_settled < full.vertices_settled);
        assert_eq!(space.bounded_bibfs_sparse(&g, 0, 9, 9), 9);
        assert_eq!(space.effort(), bounded, "counts repeat exactly");

        assert_eq!(space.bounded_bibfs_sparse(&g, 4, 4, 9), 0);
        assert_eq!(space.effort(), SearchEffort::default());
        assert_eq!(space.bounded_bibfs_sparse(&g, 0, 9, 0), 0);
        assert_eq!(space.effort(), SearchEffort::default());
    }

    #[test]
    fn probe_only_level_marks_nothing() {
        // Star with centre 0: d(1, 2) = 2. With bound 2 the first level is
        // already the last one allowed, so it only probes: nothing beyond
        // the two endpoints is marked, and the bound comes back.
        let g = generate::star(6);
        let mut space = SearchSpace::new(6);
        assert_eq!(space.bounded_bibfs_sparse(&g, 1, 2, 2), 2);
        assert_eq!(space.effort().vertices_settled, 2);
        // With bound 3 the centre is marked, then the probe finds the
        // meeting at distance 2 = bound - 1.
        assert_eq!(space.bounded_bibfs_sparse(&g, 1, 2, 3), 2);
        assert_eq!(space.effort().vertices_settled, 3);
    }

    #[test]
    fn epoch_reuse_many_queries() {
        let g = path_graph(6);
        let mut space = SearchSpace::new(6);
        for _ in 0..1000 {
            assert_eq!(space.bibfs_distance(&g, 0, 5), Some(5));
            assert_eq!(space.bfs_distance(&g, 5, 0), Some(5));
        }
    }
}
