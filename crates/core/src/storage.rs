//! Label-storage backends: the seam that lets one query implementation
//! serve both the in-memory index and `hcl-store`'s memory-mapped packed
//! format.
//!
//! The querying framework (§4–5 of the paper) needs exactly four things
//! from an index: per-vertex labels sorted by landmark rank, the highway
//! matrix, the landmark-rank lookup, and the sparsified graph `G[V∖R]`.
//! [`LabelStorage`] and [`SparseNeighbors`] capture those; the generic
//! functions in this module ([`upper_bound_on`], [`bound_from_landmark_on`],
//! [`distance_on`]) implement Equation 4 with the Lemma 5.1 merge, the
//! Corollary 3.8 landmark-endpoint shortcut, and the Algorithm 2 bounded
//! search over any backend. [`IndexGeneration`] bundles the two halves of
//! one index generation, which is all [`Oracle`](crate::Oracle) needs to
//! serve it.
//!
//! # Data layout of the hot path
//!
//! The merge runs over **label lanes**: two parallel `&[u8]` slices (ranks
//! and distances) per endpoint, obtained through
//! [`LabelStorage::label_lanes`]. Both backends hold their labels in this
//! one layout — the in-memory labelling in its arrays, the packed
//! `IndexView` in the mapped bytes — so each lends its own slices with no
//! decode and no copy, and both monomorphise the *same* branch-light merge
//! loops: a sorted two-pointer intersection for the common-landmark direct
//! sums, then a dense min-reduction over the highway rows for the
//! s-only/t-only cross terms, with saturating adds standing in for `INF`
//! branches so the compiler can autovectorize.
//!
//! The bounded search runs in the sparse view's **degree-ordered id
//! space**: [`SparseNeighbors::view_of`] translates the two endpoints once
//! at the query boundary, and every frontier expansion then touches the
//! relabelled CSR, where high-degree vertices share cache lines (labels,
//! cache keys, and all public APIs stay in original ids). Its per-context
//! state is **one `u32` visit word per vertex** (`epoch << 1 | side`, `4n`
//! bytes, shared by both directions — the marked balls are disjoint and a
//! meeting vertex is always on the other side's current level, so no
//! second array and no stored distance), one load per neighbour examined,
//! and the last level the bound allows only *probes* those words for a
//! meeting: on an index that misses cache a query's time is the number of
//! cache lines it touches. See
//! [`SearchSpace::bounded_bibfs_sparse`](hcl_graph::SearchSpace::bounded_bibfs_sparse),
//! which also records that software-prefetching the visit words gained
//! nothing.
//!
//! Because both backends run the same monomorphised code, packed-vs-memory
//! equivalence reduces to the storage traits returning the same slices —
//! which is exactly what `hcl-store`'s round-trip property tests check.

use crate::build::HighwayCoverLabelling;
use crate::query::QueryContext;
use hcl_graph::{Adjacency, VertexId, INF};

/// Read access to one generation of a highway cover index: labels, highway
/// matrix, and landmark ranks.
///
/// Implementations must uphold the index invariants the query functions
/// rely on: labels sorted strictly by rank, ranks `< num_landmarks()`,
/// empty labels on landmarks, and a symmetric highway matrix with a zero
/// diagonal (`INF` = disconnected).
pub trait LabelStorage {
    /// Number of vertices the index covers.
    fn num_vertices(&self) -> usize;

    /// Number of landmarks `|R|`.
    fn num_landmarks(&self) -> usize;

    /// The rank of `v` if it is a landmark.
    fn rank(&self, v: VertexId) -> Option<u32>;

    /// Whether `v` is a landmark.
    #[inline]
    fn is_landmark(&self, v: VertexId) -> bool {
        self.rank(v).is_some()
    }

    /// Exact landmark-to-landmark distance by rank (`INF` = disconnected).
    fn highway_distance(&self, rank_a: u32, rank_b: u32) -> u32;

    /// The highway matrix row of `rank` (length `num_landmarks()`).
    fn highway_row(&self, rank: u32) -> &[u32];

    /// The label of `v` as parallel rank and distance lanes of equal
    /// length, in strictly increasing rank order.
    fn label_lanes(&self, v: VertexId) -> (&[u8], &[u8]);
}

/// Adjacency access to the sparsified graph `G[V∖R]` of the same index
/// generation, in the view's (degree-ordered) id space.
///
/// [`view_of`](Self::view_of) is the single translation point between the
/// original id space (labels, caches, the public API) and the relabelled
/// space the bounded search traverses.
pub trait SparseNeighbors {
    /// Maps an original vertex id into the sparse view's id space.
    fn view_of(&self, v: VertexId) -> VertexId;

    /// Neighbours of *view-space* vertex `v` in `G[V∖R]` (sorted,
    /// duplicate-free, view-space ids; landmarks isolated).
    fn sparse_neighbors(&self, v: VertexId) -> &[VertexId];
}

impl<S: SparseNeighbors + ?Sized> SparseNeighbors for &S {
    #[inline]
    fn view_of(&self, v: VertexId) -> VertexId {
        (**self).view_of(v)
    }

    #[inline]
    fn sparse_neighbors(&self, v: VertexId) -> &[VertexId] {
        (**self).sparse_neighbors(v)
    }
}

/// One index generation as the query kernel sees it: its labels, and the
/// sparsified graph the bounded search of each query traverses.
///
/// [`Oracle`](crate::Oracle) is generic over this trait; the in-memory
/// [`MemoryIndex`](crate::MemoryIndex) and `hcl-store`'s mapped
/// `IndexView` are its two implementations.
pub trait IndexGeneration: Sync {
    /// The label half of the generation.
    type Labels: LabelStorage;

    /// The generation's labels.
    fn labels(&self) -> &Self::Labels;

    /// The generation's `G[V∖R]` for one query. It is taken once per
    /// query, so a backend can resolve its rows here rather than per row.
    fn search(&self) -> impl SparseNeighbors + '_;
}

/// Adapter presenting a backend's sparsified graph as
/// [`hcl_graph::Adjacency`] so [`SearchSpace::bounded_bibfs_sparse`]
/// traverses it directly (in view-space ids).
///
/// [`SearchSpace`]: hcl_graph::SearchSpace
struct SparseAdj<'a, S: ?Sized> {
    num_vertices: usize,
    sparse: &'a S,
}

impl<S: SparseNeighbors + ?Sized> Adjacency for SparseAdj<'_, S> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.sparse.sparse_neighbors(v)
    }
}

/// The upper bound `d⊤(s, t)` of Equation 4 over any [`LabelStorage`],
/// using the Lemma 5.1 merge: landmarks common to both labels contribute
/// their direct sum, cross terms run only between the label-exclusive
/// remainders (buffered as lanes in `ctx`), and each cross row is pruned on
/// the best-so-far (`da + min_dt + 1 >= best` skips the whole row when even
/// the cheapest partner through a via-distance of 1 loses — valid because
/// the remainders' rank sets are disjoint, so every via is `>= 1`).
/// Landmark endpoints are answered from the highway / Corollary 3.8.
pub fn upper_bound_on<S: LabelStorage + ?Sized>(
    index: &S,
    ctx: &mut QueryContext,
    s: VertexId,
    t: VertexId,
) -> u32 {
    if s == t {
        return 0;
    }
    match (index.rank(s), index.rank(t)) {
        (Some(a), Some(b)) => index.highway_distance(a, b),
        (Some(a), None) => bound_from_landmark_on(index, a, t),
        (None, Some(b)) => bound_from_landmark_on(index, b, s),
        (None, None) => {
            let QueryContext { only_s_ranks, only_s_dists, only_t_ranks, only_t_dists, .. } = ctx;
            let (s_ranks, s_dists) = index.label_lanes(s);
            let (t_ranks, t_dists) = index.label_lanes(t);

            only_s_ranks.clear();
            only_s_dists.clear();
            only_t_ranks.clear();
            only_t_dists.clear();

            // One two-pointer pass over both rank-sorted lanes: equal ranks
            // are direct sums, unmatched entries spill into the cross-term
            // remainder lanes.
            let mut best = INF;
            let (mut i, mut j) = (0usize, 0usize);
            while i < s_ranks.len() && j < t_ranks.len() {
                let ra = s_ranks[i];
                let rb = t_ranks[j];
                match ra.cmp(&rb) {
                    std::cmp::Ordering::Equal => {
                        let cand = s_dists[i] as u32 + t_dists[j] as u32;
                        if cand < best {
                            best = cand;
                        }
                        i += 1;
                        j += 1;
                    }
                    std::cmp::Ordering::Less => {
                        only_s_ranks.push(ra);
                        only_s_dists.push(s_dists[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        only_t_ranks.push(rb);
                        only_t_dists.push(t_dists[j]);
                        j += 1;
                    }
                }
            }
            only_s_ranks.extend_from_slice(&s_ranks[i..]);
            only_s_dists.extend_from_slice(&s_dists[i..]);
            only_t_ranks.extend_from_slice(&t_ranks[j..]);
            only_t_dists.extend_from_slice(&t_dists[j..]);

            if !only_s_ranks.is_empty() && !only_t_ranks.is_empty() {
                // The cheapest possible t-side partner bounds every row.
                let mut min_dt = u8::MAX;
                for &d in only_t_dists.iter() {
                    min_dt = min_dt.min(d);
                }
                let min_dt = min_dt as u32;
                for (k, &ra) in only_s_ranks.iter().enumerate() {
                    let da = only_s_dists[k] as u32;
                    // Disjoint rank sets mean every via-distance is >= 1,
                    // so no pair in this row can beat `best`.
                    if da + min_dt + 1 >= best {
                        continue;
                    }
                    let row = index.highway_row(ra as u32);
                    // Branch-free inner reduction: a saturating add turns a
                    // disconnected `INF` via into a candidate that can
                    // never win the min, so the loop is a pure min-scan the
                    // compiler can vectorize.
                    let mut row_best = u32::MAX;
                    for (&rb, &db) in only_t_ranks.iter().zip(only_t_dists.iter()) {
                        row_best = row_best.min(row[rb as usize].saturating_add(db as u32));
                    }
                    let cand = da.saturating_add(row_best);
                    if cand < best {
                        best = cand;
                    }
                }
            }
            best
        }
    }
}

/// Exact distance from the landmark with rank `rank` to vertex `v`
/// (Corollary 3.8): `min over (rj, δ) ∈ L(v) of δH(rank, rj) + δ`.
pub fn bound_from_landmark_on<S: LabelStorage + ?Sized>(index: &S, rank: u32, v: VertexId) -> u32 {
    if let Some(vr) = index.rank(v) {
        return index.highway_distance(rank, vr);
    }
    let row = index.highway_row(rank);
    let (ranks, dists) = index.label_lanes(v);
    let mut best = INF;
    for (&rj, &d) in ranks.iter().zip(dists) {
        let via = row[rj as usize];
        if via == INF {
            continue;
        }
        let cand = via + d as u32;
        if cand < best {
            best = cand;
        }
    }
    best
}

/// Exact distance via the full framework over one backend's `labels` and
/// the sparsified graph `sparse` of the same generation: label upper
/// bound, Corollary 3.8 shortcut for landmark endpoints, then the
/// distance-bounded bidirectional BFS (Algorithm 2) on `sparse`. The
/// endpoints are translated into the view's degree-ordered id space
/// exactly once, here.
pub fn distance_on<L: LabelStorage + ?Sized, S: SparseNeighbors + ?Sized>(
    labels: &L,
    sparse: &S,
    ctx: &mut QueryContext,
    s: VertexId,
    t: VertexId,
) -> Option<u32> {
    if s == t {
        return Some(0);
    }
    let landmark_endpoint = labels.is_landmark(s) || labels.is_landmark(t);
    let bound = upper_bound_on(labels, ctx, s, t);
    if landmark_endpoint {
        // Corollary 3.8 / the highway matrix make the bound exact;
        // landmark endpoints are isolated in the sparsified graph, so the
        // search must not run.
        return if bound == INF { None } else { Some(bound) };
    }
    let (vs, vt) = (sparse.view_of(s), sparse.view_of(t));
    let adj = SparseAdj { num_vertices: labels.num_vertices(), sparse };
    let d = ctx.search_space().bounded_bibfs_sparse(&adj, vs, vt, bound);
    if d == INF {
        None
    } else {
        Some(d)
    }
}

/// Per-query phase timings from [`distance_on_timed`].
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryPhases {
    /// Nanoseconds in the label merge (Equation 4 upper bound).
    pub merge_ns: u64,
    /// Nanoseconds in the bounded bidirectional search (0 when the bound
    /// alone answered the query).
    pub search_ns: u64,
    /// Whether the bounded search ran at all.
    pub searched: bool,
    /// Sparse-graph edges the bounded search scanned (sum of the frontier
    /// degrees of every level it began; 0 when it did not run).
    pub edges_scanned: u64,
    /// Vertices the bounded search marked, endpoints included.
    pub vertices_settled: u64,
}

/// [`distance_on`] with per-phase wall-clock and search-effort accounting,
/// for observability (server `METRICS`) and the committed benchmark's
/// merge-vs-BFS split. Semantically identical to [`distance_on`]; the two
/// `Instant` reads per query keep it off the raw throughput loops.
pub fn distance_on_timed<L: LabelStorage + ?Sized, S: SparseNeighbors + ?Sized>(
    labels: &L,
    sparse: &S,
    ctx: &mut QueryContext,
    s: VertexId,
    t: VertexId,
) -> (Option<u32>, QueryPhases) {
    let mut phases = QueryPhases::default();
    if s == t {
        return (Some(0), phases);
    }
    let landmark_endpoint = labels.is_landmark(s) || labels.is_landmark(t);
    let start = std::time::Instant::now();
    let bound = upper_bound_on(labels, ctx, s, t);
    phases.merge_ns = start.elapsed().as_nanos() as u64;
    if landmark_endpoint {
        return (if bound == INF { None } else { Some(bound) }, phases);
    }
    let (vs, vt) = (sparse.view_of(s), sparse.view_of(t));
    let adj = SparseAdj { num_vertices: labels.num_vertices(), sparse };
    let start = std::time::Instant::now();
    let space = ctx.search_space();
    let d = space.bounded_bibfs_sparse(&adj, vs, vt, bound);
    phases.search_ns = start.elapsed().as_nanos() as u64;
    phases.searched = true;
    let effort = space.effort();
    phases.edges_scanned = effort.edges_scanned;
    phases.vertices_settled = effort.vertices_settled;
    (if d == INF { None } else { Some(d) }, phases)
}

impl LabelStorage for HighwayCoverLabelling {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.labels().num_vertices()
    }

    #[inline]
    fn num_landmarks(&self) -> usize {
        self.highway().num_landmarks()
    }

    #[inline]
    fn rank(&self, v: VertexId) -> Option<u32> {
        self.highway().rank(v)
    }

    #[inline]
    fn is_landmark(&self, v: VertexId) -> bool {
        self.highway().is_landmark(v)
    }

    #[inline]
    fn highway_distance(&self, rank_a: u32, rank_b: u32) -> u32 {
        self.highway().distance(rank_a, rank_b)
    }

    #[inline]
    fn highway_row(&self, rank: u32) -> &[u32] {
        self.highway().row(rank)
    }

    #[inline]
    fn label_lanes(&self, v: VertexId) -> (&[u8], &[u8]) {
        self.labels().label_lanes(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseView;
    use hcl_graph::generate;

    fn build(n: usize, k: usize, seed: u64) -> (hcl_graph::CsrGraph, HighwayCoverLabelling) {
        let g = generate::barabasi_albert(n, 3, seed);
        let landmarks = hcl_graph::order::top_degree(&g, k);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        (g, hcl)
    }

    #[test]
    fn mem_backend_matches_reference_upper_bound() {
        let (g, hcl) = build(150, 8, 5);
        let mut ctx = QueryContext::new(g.num_vertices());
        for s in g.vertices().step_by(3) {
            for t in g.vertices().step_by(5) {
                assert_eq!(upper_bound_on(&hcl, &mut ctx, s, t), hcl.upper_bound(s, t), "{s}->{t}");
            }
        }
    }

    #[test]
    fn mem_backend_distance_matches_distance_with() {
        let (g, hcl) = build(200, 10, 9);
        let sparse = SparseView::build(&g, hcl.highway());
        let rows = sparse.rows();
        let mut ctx = QueryContext::new(g.num_vertices());
        let mut ctx2 = QueryContext::new(g.num_vertices());
        for s in g.vertices().step_by(7) {
            for t in g.vertices() {
                assert_eq!(
                    distance_on(&hcl, &rows, &mut ctx, s, t),
                    hcl.distance_with(&g, &mut ctx2, s, t),
                    "{s}->{t}"
                );
            }
        }
    }

    #[test]
    fn landmark_endpoints_skip_the_search() {
        let (g, hcl) = build(120, 6, 2);
        let sparse = SparseView::build(&g, hcl.highway());
        let rows = sparse.rows();
        let mut ctx = QueryContext::new(g.num_vertices());
        let r = hcl.highway().landmark(0);
        for t in g.vertices() {
            let truth = hcl_graph::traversal::bfs_distances(&g, r)[t as usize];
            let expect = (truth != INF).then_some(truth);
            assert_eq!(distance_on(&hcl, &rows, &mut ctx, r, t), expect, "{r}->{t}");
            assert_eq!(distance_on(&hcl, &rows, &mut ctx, t, r), expect, "{t}->{r}");
        }
    }

    #[test]
    fn timed_distance_matches_untimed() {
        let (g, hcl) = build(180, 8, 4);
        let sparse = SparseView::build(&g, hcl.highway());
        let rows = sparse.rows();
        let mut ctx = QueryContext::new(g.num_vertices());
        let mut searched_any = false;
        for s in g.vertices().step_by(5) {
            for t in g.vertices().step_by(7) {
                let (d, phases) = distance_on_timed(&hcl, &rows, &mut ctx, s, t);
                assert_eq!(d, distance_on(&hcl, &rows, &mut ctx, s, t), "{s}->{t}");
                if s != t && !hcl.highway().is_landmark(s) && !hcl.highway().is_landmark(t) {
                    assert!(phases.searched);
                    assert!(phases.vertices_settled >= 2, "both endpoints are marked");
                    searched_any = true;
                } else {
                    assert!(!phases.searched);
                    assert_eq!(phases.search_ns, 0);
                    assert_eq!((phases.edges_scanned, phases.vertices_settled), (0, 0));
                }
            }
        }
        assert!(searched_any);
    }
}
