//! The precomputed sparsified graph `G[V∖R]` the query fast path traverses.
//!
//! Every bounded bidirectional search of the querying framework (§4,
//! Algorithm 2) conceptually runs on the landmark-free subgraph `G[V∖R]`
//! (Lemma 4.5). Filtering landmarks on the fly with a per-edge skip
//! predicate is correct but expensive on exactly the graphs the method
//! targets: landmarks are top-degree hubs, so the unfiltered search both
//! scans the largest adjacency lists in the graph and pays a branchy rank
//! lookup on every neighbour examination. A [`SparseView`] materialises
//! `G[V∖R]` **once** — at index build/load time — so queries traverse it
//! directly with no skip predicate and no rank lookups.
//!
//! On top of the sparsification, the view is **degree-ordered**: the
//! materialised CSR is renumbered by decreasing degree
//! ([`hcl_graph::subgraph::relabel_by_degree`]), so the high-degree
//! vertices that dominate BFS frontiers sit in adjacent cache lines.
//! Queries still address original vertex ids — [`SparseView::view_of`]
//! translates the two endpoints once at the query boundary, and the search
//! then runs entirely in view space. Landmarks have degree zero in
//! `G[V∖R]`, so the degree order sends them to the tail of the id space,
//! still isolated.
//!
//! The view is derived state: it is a deterministic function of the graph
//! and the landmark set (degree order breaks ties by original id), rebuilt
//! whenever either changes. A packed `.hclx` file stores the view as built
//! (view-space CSR plus the `view_of` permutation), so the packed
//! `IndexView` serves it straight off the mapping and never derives it.
//! [`SharedOracle`](crate::SharedOracle) owns one per index generation, so
//! a hot reload swaps the view atomically with the labelling.

use crate::highway::Highway;
use hcl_graph::{CsrGraph, VertexId};
use std::sync::Arc;

/// A compacted, degree-ordered CSR of the sparsified graph `G[V∖R]`, plus
/// the two id translation arrays between original and view space.
///
/// Memory cost: one extra CSR of at most `2m` 32-bit adjacency entries plus
/// the `n + 1` offset array and two `n`-entry permutations — never larger
/// than the input graph plus `8n` bytes, and in practice much smaller on
/// power-law graphs because the removed landmark rows are the largest ones.
/// [`memory_bytes`](SparseView::memory_bytes) reports the exact figure
/// (surfaced by the server's `STATS`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseView {
    /// The sparsified graph in view (degree-ordered) id space; shares its
    /// arrays with every view edited from this one (see [`CsrGraph`]).
    graph: CsrGraph,
    /// `to_view[original] = view` (total permutation). An edit never moves
    /// a vertex, so [`with_edit`](Self::with_edit) shares both
    /// permutations with the view it patches instead of copying them.
    /// (`Arc<Vec<_>>`: sharing a built `Vec` must not copy it.)
    to_view: Arc<Vec<VertexId>>,
    /// `to_orig[view] = original` (inverse permutation).
    to_orig: Arc<Vec<VertexId>>,
    /// Edges of the original graph dropped because an endpoint is a
    /// landmark.
    removed_edges: usize,
}

impl SparseView {
    /// Materialises the degree-ordered `G[V∖R]` for `graph` under
    /// `highway`'s landmark set: one `O(n + m)` sparsification pass, then
    /// the deterministic degree relabelling (ties broken by ascending
    /// original id).
    pub fn build(graph: &CsrGraph, highway: &Highway) -> Self {
        let sparse = graph.without_vertices(highway.landmarks());
        let removed_edges = graph.num_edges() - sparse.num_edges();
        let (relabelled, to_orig) = hcl_graph::subgraph::relabel_by_degree(&sparse);
        let to_view = hcl_graph::order::ranks(sparse.num_vertices(), &to_orig);
        SparseView {
            graph: relabelled,
            to_view: Arc::new(to_view),
            to_orig: Arc::new(to_orig),
            removed_edges,
        }
    }

    /// Patches the view for a single edge edit (given in **original** ids)
    /// without re-running the sparsification pass or the degree
    /// relabelling: the result shares the permutations and every untouched
    /// adjacency row with `self` ([`CsrGraph::with_edge`]). The existing
    /// degree-order permutation is kept — after an edit it may be slightly
    /// stale as an *ordering* (a vertex whose degree changed keeps its old
    /// slot), which costs nothing for correctness: the bounded searches
    /// only require the view to contain exactly the edges of `G[V∖R]`, and
    /// the next full build re-sorts.
    ///
    /// An edit incident to a landmark never touches the view's edges (they
    /// are sparsified away); only the [`removed_edges`](Self::removed_edges)
    /// bookkeeping moves. Returns `None` when the splice is impossible
    /// (adding a present edge / removing an absent one), which callers
    /// treat as an invariant violation since the source graph accepted the
    /// same edit.
    pub fn with_edit(
        &self,
        u: VertexId,
        v: VertexId,
        add: bool,
        highway: &Highway,
    ) -> Option<Self> {
        let (graph, removed_edges) = if highway.is_landmark(u) || highway.is_landmark(v) {
            let removed_edges =
                if add { self.removed_edges + 1 } else { self.removed_edges.checked_sub(1)? };
            (self.graph.clone(), removed_edges)
        } else {
            let (uv, vv) = (self.view_of(u), self.view_of(v));
            let graph = if add {
                self.graph.with_edge(uv, vv)?
            } else {
                self.graph.without_edge(uv, vv)?
            };
            (graph, self.removed_edges)
        };
        Some(SparseView {
            graph,
            to_view: Arc::clone(&self.to_view),
            to_orig: Arc::clone(&self.to_orig),
            removed_edges,
        })
    }

    /// The identity-order reference view: same sparsification, **no**
    /// degree relabelling (view space == original space). The property
    /// tests drive the fast path against this to isolate the relabelling
    /// as a pure layout change.
    #[cfg(any(test, feature = "testing"))]
    pub fn identity(graph: &CsrGraph, highway: &Highway) -> Self {
        let sparse = graph.without_vertices(highway.landmarks());
        let removed_edges = graph.num_edges() - sparse.num_edges();
        let ident: Arc<Vec<VertexId>> = Arc::new((0..sparse.num_vertices() as VertexId).collect());
        SparseView { graph: sparse, to_view: Arc::clone(&ident), to_orig: ident, removed_edges }
    }

    /// The sparsified graph in **view** (degree-ordered) id space.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Maps an original vertex id to its view-space id.
    #[inline]
    pub fn view_of(&self, v: VertexId) -> VertexId {
        self.to_view[v as usize]
    }

    /// Maps a view-space id back to the original vertex id.
    #[inline]
    pub fn original_of(&self, v: VertexId) -> VertexId {
        self.to_orig[v as usize]
    }

    /// The sorted neighbour list of *original-space* vertex `v`, translated
    /// back to original ids — how the tests compare views that differ only
    /// in their permutation.
    #[cfg(any(test, feature = "testing"))]
    pub fn original_neighbors(&self, v: VertexId) -> Vec<VertexId> {
        let mut row: Vec<VertexId> = self
            .graph
            .neighbors(self.to_view[v as usize])
            .iter()
            .map(|&w| self.to_orig[w as usize])
            .collect();
        row.sort_unstable();
        row
    }

    /// Vertices in the view (equal to the source graph's count; landmarks
    /// are isolated, not dropped).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Edges surviving sparsification.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Edges of the source graph dropped (incident to a landmark).
    #[inline]
    pub fn removed_edges(&self) -> usize {
        self.removed_edges
    }

    /// Bytes of the materialised view (adjacency + offsets of the logical
    /// graph + the two id translation arrays).
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
            + (self.to_view.len() + self.to_orig.len()) * std::mem::size_of::<VertexId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::HighwayCoverLabelling;
    use hcl_graph::generate;

    #[test]
    fn view_isolates_landmarks_and_translates_ids() {
        let g = generate::barabasi_albert(200, 4, 3);
        let landmarks = hcl_graph::order::top_degree(&g, 8);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let view = SparseView::build(&g, hcl.highway());
        assert_eq!(view.num_vertices(), g.num_vertices());
        assert_eq!(view.num_edges() + view.removed_edges(), g.num_edges());
        for &r in &landmarks {
            assert_eq!(view.graph().degree(view.view_of(r)), 0, "landmark {r} must be isolated");
        }
        for v in g.vertices() {
            // Round-trip permutations.
            assert_eq!(view.original_of(view.view_of(v)), v);
            if hcl.highway().is_landmark(v) {
                continue;
            }
            let expect: Vec<u32> =
                g.neighbors(v).iter().copied().filter(|&w| !hcl.highway().is_landmark(w)).collect();
            assert_eq!(view.original_neighbors(v), expect, "vertex {v}");
        }
    }

    #[test]
    fn view_is_degree_ordered() {
        let g = generate::barabasi_albert(300, 4, 5);
        let landmarks = hcl_graph::order::top_degree(&g, 10);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let view = SparseView::build(&g, hcl.highway());
        for v in 1..view.num_vertices() as VertexId {
            assert!(
                view.graph().degree(v - 1) >= view.graph().degree(v),
                "view ids must be sorted by decreasing degree at {v}"
            );
        }
    }

    #[test]
    fn relabelling_keeps_landmarks_isolated() {
        // The unit test the degree reorder must never break: landmarks have
        // degree 0 in G[V∖R], so they land at the tail of the view id space
        // and stay neighbour-free there.
        let g = generate::watts_strogatz(150, 6, 0.1, 7);
        let landmarks = hcl_graph::order::top_degree(&g, 12);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let view = SparseView::build(&g, hcl.highway());
        for &r in &landmarks {
            let vr = view.view_of(r);
            assert!(view.graph().neighbors(vr).is_empty(), "landmark {r} (view {vr})");
            assert!(view.original_neighbors(r).is_empty(), "landmark {r}");
            // No other vertex may list a landmark as a neighbour.
            for v in 0..view.num_vertices() as VertexId {
                assert!(!view.graph().neighbors(v).contains(&vr), "{v} links landmark {r}");
            }
        }
    }

    #[test]
    fn identity_view_matches_original_space() {
        let g = generate::barabasi_albert(120, 3, 9);
        let landmarks = hcl_graph::order::top_degree(&g, 6);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let ident = SparseView::identity(&g, hcl.highway());
        let fast = SparseView::build(&g, hcl.highway());
        assert_eq!(ident.num_edges(), fast.num_edges());
        assert_eq!(ident.removed_edges(), fast.removed_edges());
        for v in g.vertices() {
            assert_eq!(ident.view_of(v), v);
            assert_eq!(ident.original_of(v), v);
            assert_eq!(ident.original_neighbors(v), fast.original_neighbors(v), "vertex {v}");
            // Identity view's graph rows ARE original-space rows.
            assert_eq!(ident.graph().neighbors(v), ident.original_neighbors(v).as_slice());
        }
    }

    #[test]
    fn empty_landmark_set_view_is_a_relabelled_graph() {
        let g = generate::cycle(12);
        let (hcl, _) = HighwayCoverLabelling::build(&g, &[]).unwrap();
        let view = SparseView::build(&g, hcl.highway());
        assert_eq!(view.num_edges(), g.num_edges());
        assert_eq!(view.removed_edges(), 0);
        assert!(view.memory_bytes() > 0);
        for v in g.vertices() {
            let mut expect: Vec<u32> = g.neighbors(v).to_vec();
            expect.sort_unstable();
            assert_eq!(view.original_neighbors(v), expect);
        }
    }
}
