//! Property tests for the graph substrate: CSR invariants, search
//! equivalences, serialisation robustness.

use hcl_graph::subgraph::relabel;
use hcl_graph::{
    connectivity, generate, io, traversal, CsrGraph, GraphBuilder, SearchSpace, VertexId, INF,
};
use proptest::prelude::*;

fn arbitrary_graph() -> impl Strategy<Value = CsrGraph> {
    (1usize..50).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..140)
            .prop_map(move |edges| CsrGraph::from_edges(n, &edges))
    })
}

/// One graph from each family the search kernel should not care about:
/// sparse random, power-law, tree (deep levels), grid (wide levels), and
/// a disconnected union (`INF` answers).
fn family_graph() -> impl Strategy<Value = CsrGraph> {
    (0u8..5, 3usize..36, 0u64..1 << 32).prop_map(|(family, n, seed)| match family {
        0 => generate::erdos_renyi(n, 2 * n, seed),
        1 => generate::barabasi_albert(n, 2, seed),
        2 => generate::random_tree(n, seed),
        3 => generate::grid(1 + n % 5, 1 + n / 5),
        _ => {
            let (a, b) = (generate::random_tree(n, seed), generate::erdos_renyi(n, n, seed));
            let shifted = b.edges().map(|(u, v)| (u + n as u32, v + n as u32));
            CsrGraph::from_edges(2 * n, &a.edges().chain(shifted).collect::<Vec<_>>())
        }
    })
}

/// The construction `relabel` retired — every edge renamed and pushed
/// through `GraphBuilder`'s global sort — kept as the reference the direct
/// CSR permutation pass must reproduce exactly.
fn relabel_via_builder(g: &CsrGraph, order: &[VertexId]) -> CsrGraph {
    let mut new_id = vec![u32::MAX; g.num_vertices()];
    for (new, &old) in order.iter().enumerate() {
        new_id[old as usize] = new as u32;
    }
    let mut b = GraphBuilder::new(g.num_vertices());
    for (u, v) in g.edges() {
        b.add_edge(new_id[u as usize], new_id[v as usize]).unwrap();
    }
    b.build()
}

#[test]
fn relabel_of_empty_and_edgeless_graphs() {
    assert_eq!(relabel(&CsrGraph::empty(0), &[]), CsrGraph::empty(0));
    let order = [3, 0, 4, 1, 2];
    assert_eq!(
        relabel(&CsrGraph::empty(5), &order),
        relabel_via_builder(&CsrGraph::empty(5), &order)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random graphs (few enough edges that isolated vertices are common)
    /// under random permutations: the argsort of random keys.
    #[test]
    fn relabel_equals_builder_reference(
        n in 1usize..40,
        raw_edges in proptest::collection::vec((0u32..1 << 16, 0u32..1 << 16), 0..90),
        keys in proptest::collection::vec(0u32..1 << 16, 40..41),
    ) {
        let edges: Vec<(VertexId, VertexId)> =
            raw_edges.iter().map(|&(u, v)| (u % n as u32, v % n as u32)).collect();
        let g = CsrGraph::from_edges(n, &edges);
        let mut order: Vec<VertexId> = g.vertices().collect();
        order.sort_by_key(|&v| (keys[v as usize], v));
        prop_assert_eq!(relabel(&g, &order), relabel_via_builder(&g, &order));
    }

    /// The probe-only last level, pinned on both sides of its boundary:
    /// a true distance of `bound − 1` must still be found, a true distance
    /// of `bound` needs no expansion, and every answer is `min(d, bound)`.
    /// The three searches share one visit array, so they are interleaved
    /// on one `SearchSpace` throughout.
    #[test]
    fn sparse_kernel_is_min_of_distance_and_bound(g in family_graph()) {
        let mut space = SearchSpace::new(g.num_vertices());
        for s in g.vertices() {
            let dist = traversal::bfs_distances(&g, s);
            for t in g.vertices() {
                let d = dist[t as usize];
                prop_assert_eq!(space.bfs_distance(&g, s, t), (d != INF).then_some(d));
                let bounds =
                    [0, 1, d.saturating_sub(1), d, d.saturating_add(1), d.saturating_add(2), INF];
                for bound in bounds {
                    let got = space.bounded_bibfs_sparse(&g, s, t, bound);
                    prop_assert_eq!(got, d.min(bound), "sparse {}->{} bound {}", s, t, bound);
                    let reference = space.bounded_bibfs(&g, s, t, bound, |_| false);
                    prop_assert_eq!(reference, d.min(bound), "ref {}->{} bound {}", s, t, bound);
                }
            }
        }
    }

    /// Sparse kernel on the materialised `G[V∖R]` ≡ skip-closure reference
    /// on `G`, with the top-degree vertices as `R`.
    #[test]
    fn sparse_kernel_matches_reference_on_filtered_graph(
        g in family_graph(),
        bound in 0u32..10,
    ) {
        let removed = hcl_graph::order::top_degree(&g, 2);
        let sparse = g.without_vertices(&removed);
        let mut space = SearchSpace::new(g.num_vertices());
        for s in g.vertices().filter(|v| !removed.contains(v)) {
            for t in g.vertices().filter(|v| !removed.contains(v)) {
                for bound in [bound, INF] {
                    let want = space.bounded_bibfs(&g, s, t, bound, |v| removed.contains(&v));
                    let got = space.bounded_bibfs_sparse(&sparse, s, t, bound);
                    prop_assert_eq!(got, want, "{}->{} bound {}", s, t, bound);
                }
            }
        }
    }

    #[test]
    fn csr_invariants(g in arbitrary_graph()) {
        // Sorted, deduplicated, symmetric adjacency with no self-loops.
        let mut total = 0usize;
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            total += nbrs.len();
            for w in nbrs.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            for &u in nbrs {
                prop_assert_ne!(u, v);
                prop_assert!(g.neighbors(u).contains(&v), "asymmetric edge {}-{}", v, u);
            }
        }
        prop_assert_eq!(total, 2 * g.num_edges());
        prop_assert_eq!(g.edges().count(), g.num_edges());
    }

    #[test]
    fn bibfs_equals_bfs(g in arbitrary_graph()) {
        let mut space = SearchSpace::new(g.num_vertices());
        for s in g.vertices() {
            let dist = traversal::bfs_distances(&g, s);
            for t in g.vertices() {
                let expect = (dist[t as usize] != INF).then_some(dist[t as usize]);
                prop_assert_eq!(space.bibfs_distance(&g, s, t), expect);
            }
        }
    }

    #[test]
    fn bounded_bibfs_honours_bound(
        g in arbitrary_graph(),
        bound in 0u32..12,
    ) {
        let mut space = SearchSpace::new(g.num_vertices());
        for s in g.vertices().take(6) {
            let dist = traversal::bfs_distances(&g, s);
            for t in g.vertices().take(12) {
                let got = space.bounded_bibfs(&g, s, t, bound, |_| false);
                prop_assert_eq!(got, dist[t as usize].min(bound));
            }
        }
    }

    #[test]
    fn component_labels_agree_with_reachability(g in arbitrary_graph()) {
        let (comp, count) = connectivity::connected_components(&g);
        prop_assert!(count >= 1);
        let dist = traversal::bfs_distances(&g, 0);
        for v in g.vertices() {
            prop_assert_eq!(comp[v as usize] == comp[0], dist[v as usize] != INF);
        }
        let (lcc, old_ids) = connectivity::largest_connected_component(&g);
        prop_assert!(connectivity::is_connected(&lcc));
        prop_assert_eq!(lcc.num_vertices(), old_ids.len());
    }

    #[test]
    fn binary_roundtrip(g in arbitrary_graph()) {
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();
        prop_assert_eq!(io::read_binary(std::io::Cursor::new(buf)).unwrap(), g);
    }

    #[test]
    fn corrupted_binary_never_panics(
        g in arbitrary_graph(),
        cut in 0usize..64,
        flip in 0usize..64,
    ) {
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();
        // Truncate and bit-flip: must either parse to *some* graph or fail
        // cleanly, never panic.
        let cut = cut.min(buf.len());
        buf.truncate(buf.len() - cut);
        if !buf.is_empty() {
            let idx = flip % buf.len();
            buf[idx] ^= 0x5A;
        }
        let _ = io::read_binary(std::io::Cursor::new(buf));
    }

    #[test]
    fn subgraph_distances_match_filtered_search(g in arbitrary_graph()) {
        if g.num_vertices() < 4 {
            return Ok(());
        }
        let removed: Vec<u32> = vec![0, 1];
        let (sub, old_ids) = hcl_graph::subgraph::remove_vertices(&g, &removed);
        let mut space = SearchSpace::new(g.num_vertices());
        for s_new in 0..sub.num_vertices().min(8) as u32 {
            let dist = traversal::bfs_distances(&sub, s_new);
            for t_new in 0..sub.num_vertices().min(8) as u32 {
                let via_skip = space.bounded_bibfs(
                    &g,
                    old_ids[s_new as usize],
                    old_ids[t_new as usize],
                    INF,
                    |v| removed.contains(&v),
                );
                prop_assert_eq!(via_skip, dist[t_new as usize]);
            }
        }
    }
}
