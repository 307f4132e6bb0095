//! Induced subgraphs and vertex relabelling.
//!
//! The querying framework runs on the sparsified graph `G[V∖R]` (§4.1).
//! Three materialisations are provided:
//!
//! * [`CsrGraph::without_vertices`] keeps the original vertex-id space and
//!   simply drops every edge incident to a removed vertex;
//! * [`degree_ordered_without`] drops the same edges and renumbers the
//!   result by decreasing degree in one pass from `G` — the layout the
//!   query fast path traverses (hubs packed together in memory);
//! * [`induced_subgraph`] / [`remove_vertices`] compact the ids, which is
//!   what analysis and downstream tooling usually want.
//!
//! [`relabel`] renumbers vertices by any permutation.

use crate::csr::{CsrGraph, GraphBuilder};
use crate::VertexId;

impl CsrGraph {
    /// The graph with every edge incident to a vertex in `removed` dropped,
    /// keeping the vertex count and ids unchanged (removed vertices become
    /// isolated). This is the sparsified graph `G[V∖R]` in a form that
    /// needs no id translation: searches run on it directly with original
    /// vertex ids and no per-edge skip predicate.
    ///
    /// Built in one `O(n + m)` pass over the CSR (no re-sort): each kept
    /// vertex's adjacency is the original sorted list with removed
    /// neighbours filtered out.
    ///
    /// # Panics
    ///
    /// Panics if a removed vertex id is out of range.
    pub fn without_vertices(&self, removed: &[VertexId]) -> CsrGraph {
        let n = self.num_vertices();
        let mut is_removed = vec![false; n];
        for &v in removed {
            is_removed[v as usize] = true;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut adj = Vec::with_capacity(self.num_edges() * 2);
        let rows = self.rows();
        for v in self.vertices() {
            if !is_removed[v as usize] {
                adj.extend(rows.neighbors(v).iter().copied().filter(|&w| !is_removed[w as usize]));
            }
            offsets.push(adj.len());
        }
        adj.shrink_to_fit();
        CsrGraph::from_parts(offsets, adj)
    }
}

/// Extracts the subgraph induced by `keep` (vertices for which
/// `keep(v)` is true), compacting vertex ids. Returns `(subgraph,
/// old_ids)` with `old_ids[new] = old`.
pub fn induced_subgraph<F>(g: &CsrGraph, keep: F) -> (CsrGraph, Vec<VertexId>)
where
    F: Fn(VertexId) -> bool,
{
    let n = g.num_vertices();
    let mut new_id = vec![u32::MAX; n];
    let mut old_ids = Vec::new();
    for v in g.vertices() {
        if keep(v) {
            new_id[v as usize] = old_ids.len() as u32;
            old_ids.push(v);
        }
    }
    let mut b = GraphBuilder::new(old_ids.len());
    for (u, v) in g.edges() {
        let (nu, nv) = (new_id[u as usize], new_id[v as usize]);
        if nu != u32::MAX && nv != u32::MAX {
            b.add_edge(nu, nv).expect("compacted ids in range");
        }
    }
    (b.build(), old_ids)
}

/// The sparsified graph `G[V∖R]` of the querying framework: `g` with the
/// given vertices removed. Returns `(subgraph, old_ids)`.
pub fn remove_vertices(g: &CsrGraph, removed: &[VertexId]) -> (CsrGraph, Vec<VertexId>) {
    let mut is_removed = vec![false; g.num_vertices()];
    for &v in removed {
        is_removed[v as usize] = true;
    }
    induced_subgraph(g, |v| !is_removed[v as usize])
}

/// Renumbers vertices by the permutation `order` (`order[new] = old`),
/// which must contain every vertex exactly once.
///
/// One pass over the CSR in the new vertex order: each row is mapped
/// through the inverse permutation and sorted in place, so the cost is
/// `O(n + m)` plus the per-row sorts — no edge list, no global sort.
pub fn relabel(g: &CsrGraph, order: &[VertexId]) -> CsrGraph {
    assert_eq!(order.len(), g.num_vertices(), "order must be a permutation");
    let mut new_id = vec![u32::MAX; g.num_vertices()];
    for (new, &old) in order.iter().enumerate() {
        assert_eq!(new_id[old as usize], u32::MAX, "duplicate vertex in order");
        new_id[old as usize] = new as u32;
    }
    let mut offsets = Vec::with_capacity(order.len() + 1);
    offsets.push(0usize);
    let mut adj: Vec<VertexId> = Vec::with_capacity(2 * g.num_edges());
    let rows = g.rows();
    for &old in order {
        let start = adj.len();
        adj.extend(rows.neighbors(old).iter().map(|&w| new_id[w as usize]));
        adj[start..].sort_unstable();
        offsets.push(adj.len());
    }
    CsrGraph::from_parts(offsets, adj)
}

/// `g` with every edge incident to a vertex in `removed` dropped, then
/// renumbered by decreasing degree in that sparsified graph, ties by
/// increasing id. Returns `(graph, order)` with `order[new] = old`: the
/// same pair as [`relabel`] of [`CsrGraph::without_vertices`] by
/// [`degree_descending`](crate::order::degree_descending) of it, built in
/// one pass from `g` with no intermediate CSR. Removed vertices have
/// degree zero, so they sit among the isolated vertices at the tail.
///
/// The sparsified degrees come from the removed vertices' rows alone, a
/// counting sort orders them, and each kept row is gathered from `g` once:
/// landmark-filtered, mapped to new ids and sorted. `O(n + m)` plus the
/// per-row sorts.
///
/// # Panics
///
/// Panics if a removed vertex id is out of range.
pub fn degree_ordered_without(g: &CsrGraph, removed: &[VertexId]) -> (CsrGraph, Vec<VertexId>) {
    let n = g.num_vertices();
    let rows = g.rows();
    let mut degrees: Vec<u32> = g.vertices().map(|v| rows.degree(v) as u32).collect();
    let mut is_removed = vec![false; n];
    for &r in removed {
        if !std::mem::replace(&mut is_removed[r as usize], true) {
            for &w in rows.neighbors(r) {
                degrees[w as usize] -= 1;
            }
        }
    }
    for &r in removed {
        degrees[r as usize] = 0;
    }
    let order = crate::order::by_count_descending(&degrees);
    // New ids of kept vertices; `u32::MAX` marks a removed one.
    let mut new_id = crate::order::ranks(n, &order);
    for &r in removed {
        new_id[r as usize] = u32::MAX;
    }
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut adj: Vec<VertexId> =
        Vec::with_capacity(degrees.iter().map(|&d| d as usize).sum::<usize>());
    for &old in &order {
        if !is_removed[old as usize] {
            let start = adj.len();
            adj.extend(
                rows.neighbors(old).iter().map(|&w| new_id[w as usize]).filter(|&w| w != u32::MAX),
            );
            adj[start..].sort_unstable();
        }
        offsets.push(adj.len());
    }
    (CsrGraph::from_parts(offsets, adj), order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use crate::traversal;

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        // Triangle 0-1-2 plus pendant 3; keep {0, 1, 3}.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let (sub, old_ids) = induced_subgraph(&g, |v| v != 2);
        assert_eq!(old_ids, vec![0, 1, 3]);
        assert_eq!(sub.num_edges(), 1);
        assert!(sub.has_edge(0, 1));
        assert_eq!(sub.degree(2), 0);
    }

    #[test]
    fn remove_vertices_matches_skip_filtered_search() {
        let g = generate::erdos_renyi(50, 120, 5);
        let removed = [0u32, 1, 2];
        let (sub, old_ids) = remove_vertices(&g, &removed);
        assert_eq!(sub.num_vertices(), 47);
        // Distances in the materialised subgraph equal the skip-filtered
        // bounded search on the original graph.
        let mut space = crate::SearchSpace::new(g.num_vertices());
        for s_new in 0..sub.num_vertices() as u32 {
            let truth = traversal::bfs_distances(&sub, s_new);
            for t_new in (0..sub.num_vertices() as u32).step_by(7) {
                let filtered = space.bounded_bibfs(
                    &g,
                    old_ids[s_new as usize],
                    old_ids[t_new as usize],
                    crate::INF,
                    |v| removed.contains(&v),
                );
                assert_eq!(filtered, truth[t_new as usize]);
            }
        }
    }

    #[test]
    fn without_vertices_keeps_ids_and_isolates_removed() {
        // Triangle 0-1-2 plus pendant 3 on 2.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let sparse = g.without_vertices(&[2]);
        assert_eq!(sparse.num_vertices(), 4, "id space unchanged");
        assert_eq!(sparse.num_edges(), 1);
        assert_eq!(sparse.neighbors(0), &[1]);
        assert_eq!(sparse.neighbors(2), &[] as &[VertexId]);
        assert_eq!(sparse.neighbors(3), &[] as &[VertexId]);
    }

    #[test]
    fn without_vertices_matches_compacted_subgraph() {
        let g = generate::barabasi_albert(120, 4, 17);
        let removed = [0u32, 3, 7, 40];
        let sparse = g.without_vertices(&removed);
        let (compact, old_ids) = remove_vertices(&g, &removed);
        assert_eq!(sparse.num_edges(), compact.num_edges());
        for (new, &old) in old_ids.iter().enumerate() {
            assert_eq!(sparse.degree(old), compact.degree(new as u32), "vertex {old}");
        }
        // Distances agree under the id mapping.
        let d_sparse = traversal::bfs_distances(&sparse, old_ids[0]);
        let d_compact = traversal::bfs_distances(&compact, 0);
        for (new, &old) in old_ids.iter().enumerate() {
            assert_eq!(d_sparse[old as usize], d_compact[new], "vertex {old}");
        }
    }

    #[test]
    fn without_vertices_empty_removal_is_identity() {
        let g = generate::erdos_renyi(40, 80, 2);
        assert_eq!(g.without_vertices(&[]), g);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = generate::barabasi_albert(100, 3, 9);
        let (relabelled, order) = degree_ordered_without(&g, &[]);
        assert_eq!(relabelled.num_edges(), g.num_edges());
        // Degrees follow the graph under the permutation.
        for (new, &old) in order.iter().enumerate() {
            assert_eq!(relabelled.degree(new as u32), g.degree(old));
        }
        // Hubs first.
        for w in order.windows(2) {
            assert!(g.degree(w[0]) >= g.degree(w[1]));
        }
        // Distances are preserved under relabelling.
        let d_old = traversal::bfs_distances(&g, order[0]);
        let d_new = traversal::bfs_distances(&relabelled, 0);
        for (new, &old) in order.iter().enumerate() {
            assert_eq!(d_new[new], d_old[old as usize]);
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn relabel_rejects_short_order() {
        let g = generate::path(4);
        relabel(&g, &[0, 1, 2]);
    }
}
