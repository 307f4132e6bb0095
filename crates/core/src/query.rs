//! The bounded distance querying framework (§4) and its optimisations (§5.3).
//!
//! A query proceeds in two steps:
//!
//! 1. **Upper bound** (Equation 4): the best `r`-constrained distance over
//!    all landmark pairs in the two labels, computed with the Lemma 5.1
//!    optimisation — landmarks common to both labels contribute their direct
//!    sum, and cross terms are only needed between the *s-only* and *t-only*
//!    remainders (any cross term touching a common landmark is dominated by
//!    that landmark's direct sum, by the triangle inequality).
//! 2. **Bounded search** (Algorithm 2): a bidirectional BFS on the
//!    sparsified graph `G[V∖R]`, cut off at the upper bound. If some
//!    shortest `s–t` path passes through a landmark the bound is already
//!    exact; otherwise the sparsified graph preserves the shortest path
//!    (Lemma 4.5) and the search finds it.
//!
//! Queries where an endpoint *is* a landmark are answered from the labels
//! and highway alone (Corollary 3.8 makes that exact), with no search.
//!
//! Query state lives in a [`QueryContext`]; [`HlOracle`] bundles one with
//! the labelling for the common single-threaded case, and
//! [`Oracle::batch_distances`](crate::Oracle::batch_distances) fans
//! contexts out across threads through [`batch_over`].

use crate::build::HighwayCoverLabelling;
use hcl_graph::oracle::DistanceOracle;
use hcl_graph::{CsrGraph, SearchSpace, VertexId, INF};
use std::sync::Arc;

/// Algorithm 2 plus lane scratch for the Lemma 5.1 label merge.
///
/// The merge in [`crate::storage`] reads both labels as lanes borrowed
/// from the index; the `only_*` lanes hold the label-exclusive remainders
/// that feed the cross-term min-reduction.
#[derive(Clone, Debug)]
pub struct QueryContext {
    space: SearchSpace,
    pub(crate) only_s_ranks: Vec<u8>,
    pub(crate) only_s_dists: Vec<u8>,
    pub(crate) only_t_ranks: Vec<u8>,
    pub(crate) only_t_dists: Vec<u8>,
}

impl QueryContext {
    /// A context for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        QueryContext {
            space: SearchSpace::new(n),
            only_s_ranks: Vec::new(),
            only_s_dists: Vec::new(),
            only_t_ranks: Vec::new(),
            only_t_dists: Vec::new(),
        }
    }

    /// The reusable search buffers for Algorithm 2.
    pub(crate) fn search_space(&mut self) -> &mut SearchSpace {
        &mut self.space
    }
}

impl HighwayCoverLabelling {
    /// The upper bound `d⊤(s, t)` of Equation 4 (`INF` when the labels share
    /// no connected landmark pair). Handles landmark endpoints, for which
    /// the bound is the exact distance.
    ///
    /// This is the allocation-free reference implementation (plain double
    /// loop); [`upper_bound_with`](Self::upper_bound_with) applies the
    /// Lemma 5.1 merge, and the two are verified equal in tests and
    /// compared in the ablation benchmarks.
    pub fn upper_bound(&self, s: VertexId, t: VertexId) -> u32 {
        if s == t {
            return 0;
        }
        let h = self.highway();
        match (h.rank(s), h.rank(t)) {
            (Some(a), Some(b)) => h.distance(a, b),
            (Some(a), None) => self.bound_from_landmark(a, t),
            (None, Some(b)) => self.bound_from_landmark(b, s),
            (None, None) => {
                let mut best = INF;
                for es in self.labels().label(s) {
                    let ds = es.dist as u32;
                    for et in self.labels().label(t) {
                        // δH(r, r) = 0, so common landmarks are subsumed.
                        let via = h.distance(es.landmark as u32, et.landmark as u32);
                        if via == INF {
                            continue;
                        }
                        let cand = ds + via + et.dist as u32;
                        if cand < best {
                            best = cand;
                        }
                    }
                }
                best
            }
        }
    }

    /// Upper bound `d⊤(s, t)` using the Lemma 5.1 merge: direct sums over
    /// landmarks common to both labels, cross terms only between the
    /// label-exclusive remainders. Equal to
    /// [`upper_bound`](Self::upper_bound) for all inputs (property-tested).
    ///
    /// Delegates to the storage-generic
    /// [`upper_bound_on`](crate::storage::upper_bound_on), monomorphised
    /// here for the in-memory slice-backed labels.
    pub fn upper_bound_with(&self, ctx: &mut QueryContext, s: VertexId, t: VertexId) -> u32 {
        crate::storage::upper_bound_on(self, ctx, s, t)
    }

    /// Exact distance from the landmark with rank `rank` to vertex `v`
    /// (Corollary 3.8): `min over (rj, δ) ∈ L(v) of δH(rank, rj) + δ`.
    pub fn bound_from_landmark(&self, rank: u32, v: VertexId) -> u32 {
        crate::storage::bound_from_landmark_on(self, rank, v)
    }

    /// Exact distance via the full framework, using caller-provided state.
    /// `graph` must be the graph the labelling was built from.
    pub fn distance_with(
        &self,
        graph: &CsrGraph,
        ctx: &mut QueryContext,
        s: VertexId,
        t: VertexId,
    ) -> Option<u32> {
        if s == t {
            return Some(0);
        }
        let h = self.highway();
        let landmark_endpoint = h.is_landmark(s) || h.is_landmark(t);
        let bound = self.upper_bound_with(ctx, s, t);
        if landmark_endpoint {
            // Corollary 3.8 / the highway matrix make the bound exact.
            return if bound == INF { None } else { Some(bound) };
        }
        let d = ctx.space.bounded_bibfs(graph, s, t, bound, |v| self.highway().is_landmark(v));
        if d == INF {
            None
        } else {
            Some(d)
        }
    }
}

/// Fans `pairs` across `num_threads` scoped workers (0 = all cores),
/// preserving input order. Each worker holds one pooled context for its
/// whole chunk; contexts return to `pool` as workers finish.
///
/// The batching machinery behind
/// [`Oracle::batch_distances`](crate::Oracle::batch_distances), public for
/// callers that batch their own per-pair query closure.
pub fn batch_over<F>(
    pool: &crate::ContextPool,
    pairs: &[(VertexId, VertexId)],
    num_threads: usize,
    query: F,
) -> Vec<Option<u32>>
where
    F: Fn(&mut QueryContext, VertexId, VertexId) -> Option<u32> + Sync,
{
    let threads = if num_threads == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        num_threads
    };
    let threads = threads.min(pairs.len().max(1));
    if threads <= 1 {
        let mut ctx = pool.checkout();
        return pairs.iter().map(|&(s, t)| query(&mut ctx, s, t)).collect();
    }
    let mut results: Vec<Option<u32>> = vec![None; pairs.len()];
    let chunk = pairs.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (pair_chunk, out_chunk) in pairs.chunks(chunk).zip(results.chunks_mut(chunk)) {
            let mut ctx = pool.checkout();
            let query = &query;
            scope.spawn(move || {
                for (&(s, t), out) in pair_chunk.iter().zip(out_chunk.iter_mut()) {
                    *out = query(&mut ctx, s, t);
                }
            });
        }
    });
    results
}

/// A ready-to-query exact distance oracle: a [`HighwayCoverLabelling`]
/// paired with the graph it was built from and a reusable [`QueryContext`].
///
/// This is the "HL" method of the paper's evaluation. Construction is
/// `O(|R| · m)`; queries cost one label merge plus a distance-bounded
/// bidirectional BFS on the landmark-free subgraph.
///
/// A thin `&mut self` adapter over a [`SharedOracle`](crate::SharedOracle):
/// the shared handle answers the concurrent `&self` path, while `HlOracle`
/// adds the classic [`DistanceOracle`] API with a private context that
/// skips the pool. Use [`shared`](Self::shared) to fan the same index out
/// across threads.
pub struct HlOracle {
    shared: crate::SharedOracle,
    ctx: QueryContext,
}

impl HlOracle {
    /// Wraps a labelling built over `graph`. The oracle keeps a clone of
    /// the graph, which shares the caller's arrays rather than copying
    /// them.
    pub fn new(graph: &CsrGraph, labelling: HighwayCoverLabelling) -> Self {
        HlOracle {
            shared: crate::SharedOracle::new(Arc::new(graph.clone()), Arc::new(labelling)),
            ctx: QueryContext::new(graph.num_vertices()),
        }
    }

    /// The underlying labelling.
    pub fn labelling(&self) -> &HighwayCoverLabelling {
        self.shared.labelling()
    }

    /// The thread-safe shared oracle this wrapper fronts. Queries on the
    /// returned handle take `&self`, so it can be passed to scoped threads.
    pub fn shared(&self) -> &crate::SharedOracle {
        &self.shared
    }

    /// Upper bound `d⊤(s, t)` (Lemma 5.1 merge, reusable buffers).
    pub fn upper_bound(&mut self, s: VertexId, t: VertexId) -> u32 {
        self.shared.labelling().upper_bound_with(&mut self.ctx, s, t)
    }

    /// Exact distance via the full framework (upper bound + bounded search
    /// on the shared oracle's precomputed [`SparseView`](crate::SparseView)).
    pub fn query(&mut self, s: VertexId, t: VertexId) -> Option<u32> {
        self.shared.distance_with(&mut self.ctx, s, t)
    }

    /// Whether the pair `(s, t)` is *covered* by the landmarks: some
    /// shortest `s–t` path passes through a landmark, i.e. the label upper
    /// bound alone is already exact (the paper's Figure 9 metric).
    pub fn pair_covered(&mut self, s: VertexId, t: VertexId) -> bool {
        let bound = self.upper_bound(s, t);
        match self.query(s, t) {
            Some(d) => bound == d,
            None => false,
        }
    }
}

impl DistanceOracle for HlOracle {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Option<u32> {
        self.query(s, t)
    }

    fn name(&self) -> &'static str {
        "HL"
    }

    fn index_bytes(&self) -> usize {
        self.labelling().index_bytes()
    }

    fn avg_label_entries(&self) -> f64 {
        self.labelling().labels().avg_label_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;
    use hcl_graph::{generate, traversal};

    fn build_oracle(g: &CsrGraph, k: usize) -> HlOracle {
        let landmarks = hcl_graph::order::top_degree(g, k);
        let (hcl, _) = HighwayCoverLabelling::build(g, &landmarks).unwrap();
        HlOracle::new(g, hcl)
    }

    #[test]
    fn paper_example_4_2_upper_bound() {
        let g = fixture::paper_graph();
        let (hcl, _) = HighwayCoverLabelling::build(&g, &fixture::paper_landmarks()).unwrap();
        let (v2, v11) = (fixture::paper_vertex(2), fixture::paper_vertex(11));
        assert_eq!(hcl.upper_bound(v2, v11), 3);
        let mut oracle = HlOracle::new(&g, hcl);
        assert_eq!(oracle.upper_bound(v2, v11), 3);
        // Example 4.3: the exact distance is the bound itself.
        assert_eq!(oracle.query(v2, v11), Some(3));
    }

    #[test]
    fn exact_on_paper_example_all_pairs() {
        let g = fixture::paper_graph();
        let (hcl, _) = HighwayCoverLabelling::build(&g, &fixture::paper_landmarks()).unwrap();
        let mut oracle = HlOracle::new(&g, hcl);
        for s in g.vertices() {
            let truth = traversal::bfs_distances(&g, s);
            for t in g.vertices() {
                assert_eq!(oracle.query(s, t), Some(truth[t as usize]), "{s}->{t}");
            }
        }
    }

    #[test]
    fn exact_on_random_graphs_all_pairs() {
        for (gi, g) in [
            generate::erdos_renyi(70, 150, 1),
            generate::barabasi_albert(90, 3, 2),
            generate::watts_strogatz(80, 4, 0.2, 3),
            generate::web_copying(100, 4, 0.3, 4),
            generate::random_tree(60, 5),
            generate::grid(8, 9),
        ]
        .iter()
        .enumerate()
        {
            for k in [1usize, 4, 10] {
                let mut oracle = build_oracle(g, k);
                for s in g.vertices().step_by(7) {
                    let truth = traversal::bfs_distances(g, s);
                    for t in g.vertices() {
                        let expect = (truth[t as usize] != INF).then_some(truth[t as usize]);
                        assert_eq!(oracle.query(s, t), expect, "graph {gi} k {k} {s}->{t}");
                    }
                }
            }
        }
    }

    #[test]
    fn exact_on_disconnected_graph() {
        let g = CsrGraph::from_edges(7, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &[1, 4]).unwrap();
        let mut oracle = HlOracle::new(&g, hcl);
        assert_eq!(oracle.query(0, 2), Some(2));
        assert_eq!(oracle.query(3, 5), Some(2));
        assert_eq!(oracle.query(0, 3), None);
        assert_eq!(oracle.query(6, 0), None);
        assert_eq!(oracle.query(6, 6), Some(0));
    }

    #[test]
    fn landmark_endpoint_queries_need_no_search() {
        let g = generate::barabasi_albert(150, 4, 6);
        let landmarks = hcl_graph::order::top_degree(&g, 8);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let mut oracle = HlOracle::new(&g, hcl);
        for &r in &landmarks {
            let truth = traversal::bfs_distances(&g, r);
            for t in g.vertices() {
                assert_eq!(oracle.query(r, t), Some(truth[t as usize]), "{r}->{t}");
                assert_eq!(oracle.query(t, r), Some(truth[t as usize]), "{t}->{r}");
            }
        }
    }

    #[test]
    fn optimized_upper_bound_equals_reference() {
        for seed in 0..5u64 {
            let g = generate::barabasi_albert(120, 3, seed);
            let landmarks = hcl_graph::order::top_degree(&g, 12);
            let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
            let reference = hcl.clone();
            let mut oracle = HlOracle::new(&g, hcl);
            for s in g.vertices().step_by(3) {
                for t in g.vertices().step_by(5) {
                    assert_eq!(
                        oracle.upper_bound(s, t),
                        reference.upper_bound(s, t),
                        "seed {seed} {s}->{t}"
                    );
                }
            }
        }
    }

    #[test]
    fn upper_bound_is_admissible_and_tight_through_landmarks() {
        // Lemma 4.4: d⊤ >= d always; equality iff a landmark lies on some
        // shortest path.
        let g = generate::erdos_renyi(80, 200, 11);
        let landmarks = hcl_graph::order::top_degree(&g, 6);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let dist: Vec<Vec<u32>> =
            (0..g.num_vertices()).map(|v| traversal::bfs_distances(&g, v as u32)).collect();
        for s in g.vertices() {
            for t in g.vertices() {
                if s == t || hcl.highway().is_landmark(s) || hcl.highway().is_landmark(t) {
                    continue;
                }
                let d = dist[s as usize][t as usize];
                let ub = hcl.upper_bound(s, t);
                if d == INF {
                    assert_eq!(ub, INF, "bound must be infinite for disconnected {s}->{t}");
                    continue;
                }
                assert!(ub >= d, "admissibility {s}->{t}");
                let through_landmark = landmarks.iter().any(|&r| {
                    dist[s as usize][r as usize] != INF
                        && dist[r as usize][t as usize] != INF
                        && dist[s as usize][r as usize] + dist[r as usize][t as usize] == d
                });
                assert_eq!(ub == d, through_landmark, "tightness {s}->{t}");
            }
        }
    }

    #[test]
    fn pair_covered_matches_definition() {
        let g = generate::barabasi_albert(100, 3, 13);
        let landmarks = hcl_graph::order::top_degree(&g, 5);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let dist: Vec<Vec<u32>> =
            (0..g.num_vertices()).map(|v| traversal::bfs_distances(&g, v as u32)).collect();
        let mut oracle = HlOracle::new(&g, hcl);
        for s in g.vertices().step_by(3) {
            for t in g.vertices().step_by(4) {
                if s == t {
                    continue;
                }
                let d = dist[s as usize][t as usize];
                let covered = landmarks.iter().any(|&r| {
                    (s != r && t != r)
                        && dist[s as usize][r as usize] + dist[r as usize][t as usize] == d
                }) || landmarks.contains(&s)
                    || landmarks.contains(&t);
                assert_eq!(oracle.pair_covered(s, t), covered, "{s}->{t}");
            }
        }
    }

    #[test]
    fn batch_matches_sequential_queries() {
        let g = generate::barabasi_albert(300, 4, 19);
        let landmarks = hcl_graph::order::top_degree(&g, 10);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let pairs: Vec<(u32, u32)> =
            (0..250).map(|i| ((i * 7) % 300, (i * 13 + 1) % 300)).collect();
        let mut ctx = QueryContext::new(g.num_vertices());
        let expect: Vec<Option<u32>> =
            pairs.iter().map(|&(s, t)| hcl.distance_with(&g, &mut ctx, s, t)).collect();
        let oracle = HlOracle::new(&g, hcl);
        for threads in [0usize, 1, 2, 4] {
            assert_eq!(
                oracle.shared().batch_distances(&pairs, threads),
                expect,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn batch_on_empty_and_tiny_inputs() {
        let g = generate::path(4);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &[1]).unwrap();
        let oracle = HlOracle::new(&g, hcl);
        assert!(oracle.shared().batch_distances(&[], 4).is_empty());
        assert_eq!(oracle.shared().batch_distances(&[(0, 3)], 8), vec![Some(3)]);
    }

    #[test]
    fn bound_from_landmark_handles_landmark_target() {
        let g = generate::cycle(10);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &[0, 5]).unwrap();
        assert_eq!(hcl.bound_from_landmark(0, 5), 5);
        assert_eq!(hcl.bound_from_landmark(1, 0), 5);
    }

    #[test]
    fn oracle_trait_metadata() {
        let g = generate::barabasi_albert(80, 3, 1);
        let mut oracle = build_oracle(&g, 5);
        assert_eq!(oracle.name(), "HL");
        assert!(oracle.index_bytes() > 0);
        assert!(oracle.avg_label_entries() > 0.0);
        assert_eq!(DistanceOracle::distance(&mut oracle, 0, 1), oracle.query(0, 1));
    }
}
