//! Property tests for the graph substrate: CSR invariants, search
//! equivalences, serialisation robustness.

use hcl_graph::subgraph::{degree_ordered_without, relabel};
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

/// The builder the counting sort replaced: normalise every edge to
/// `(min, max)`, sort and dedup the whole list, then fill and sort rows.
fn rows_by_global_sort(n: usize, edges: &[(VertexId, VertexId)]) -> (usize, Vec<Vec<VertexId>>) {
    let mut list: Vec<(VertexId, VertexId)> =
        edges.iter().filter(|(u, v)| u != v).map(|&(u, v)| (u.min(v), u.max(v))).collect();
    list.sort_unstable();
    list.dedup();
    let mut rows = vec![Vec::new(); n];
    for &(u, v) in &list {
        rows[u as usize].push(v);
        rows[v as usize].push(u);
    }
    rows.iter_mut().for_each(|row| row.sort_unstable());
    (list.len(), rows)
}

fn assert_built_like_global_sort(g: &CsrGraph, n: usize, edges: &[(VertexId, VertexId)]) {
    let (m, rows) = rows_by_global_sort(n, edges);
    assert_eq!(g.num_vertices(), n);
    assert_eq!(g.num_edges(), m);
    assert_eq!(g.memory_bytes(), 8 * m + (n + 1) * std::mem::size_of::<usize>());
    for v in g.vertices() {
        assert_eq!(g.neighbors(v), rows[v as usize].as_slice(), "row {v}");
    }
}

/// `degree_descending` as the comparison sort it replaced.
fn degree_order_by_sort(g: &CsrGraph) -> Vec<VertexId> {
    let mut order: Vec<VertexId> = g.vertices().collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    order
}

/// The one-pass degree-ordered `G[V∖R]` equals the composition it
/// replaced — sparsify, order by the comparison sort, relabel — row for
/// row and in its permutation.
fn assert_one_pass_view_matches_composition(g: &CsrGraph, removed: &[VertexId], tag: &str) {
    let sparse = g.without_vertices(removed);
    let ref_order = degree_order_by_sort(&sparse);
    let (view, order) = degree_ordered_without(g, removed);
    assert_eq!(order, ref_order, "{tag}: order");
    assert_eq!(view, relabel(&sparse, &ref_order), "{tag}: rows");
    assert_eq!(view.num_edges(), sparse.num_edges(), "{tag}: edges");
}

#[test]
fn builder_edge_cases_match_the_global_sort() {
    for n in [0usize, 1] {
        assert_built_like_global_sort(&GraphBuilder::new(n).build(), n, &[]);
    }
    let mut one = GraphBuilder::new(1);
    one.add_edge(0, 0).unwrap();
    assert_built_like_global_sort(&one.build(), 1, &[(0, 0)]);
    // Duplicates in both orientations, self-loops, and isolated vertices
    // after the last endpoint.
    let edges = [(3, 1), (1, 3), (3, 1), (2, 2), (0, 4), (4, 0), (4, 0), (1, 0), (0, 1)];
    assert_built_like_global_sort(&CsrGraph::from_edges(9, &edges), 9, &edges);
    let mut growing = GraphBuilder::new(0);
    for &(u, v) in &edges {
        growing.add_edge_growing(u, v);
    }
    growing.add_edge_growing(6, 6);
    assert_built_like_global_sort(&growing.build(), 7, &edges);
}

#[test]
fn one_pass_view_matches_composition_on_every_family() {
    let ba = generate::barabasi_albert(400, 3, 11);
    let mut overlaid = ba.clone();
    for (u, v) in [(399, 398), (0, 399), (5, 250), (17, 18)] {
        overlaid = overlaid.with_edge(u, v).or_else(|| overlaid.without_edge(u, v)).unwrap();
    }
    overlaid = overlaid.without_edge(ba.neighbors(0)[0], 0).unwrap();
    assert!(overlaid.overlay_rows() > 0);
    let disconnected =
        CsrGraph::from_edges(14, &[(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (7, 5), (9, 10)]);
    let families = [
        ("barabasi_albert", ba),
        ("erdos_renyi", generate::erdos_renyi(300, 700, 12)),
        ("grid", generate::grid(12, 17)),
        ("disconnected", disconnected),
        ("overlay", overlaid),
        ("edgeless", CsrGraph::empty(7)),
        ("no_vertices", CsrGraph::empty(0)),
    ];
    for (name, g) in &families {
        let mut sets: Vec<Vec<VertexId>> =
            [0, 1, 4, 20].iter().map(|&k| hcl_graph::order::top_degree(g, k)).collect();
        // Adjacent landmarks: an edge's two ends and a neighbour of one,
        // named twice.
        if let Some((u, v)) = g.edges().next() {
            let w = g.neighbors(v).iter().copied().find(|&w| w != u).unwrap_or(u);
            sets.push(vec![v, u, w, u]);
        }
        for removed in &sets {
            assert_one_pass_view_matches_composition(g, removed, &format!("{name} {removed:?}"));
        }
    }
}

#[test]
fn degree_order_matches_the_comparison_sort_with_ties() {
    let families = [
        generate::barabasi_albert(500, 4, 3),
        generate::grid(9, 9),
        generate::cycle(40),
        generate::star(30),
        CsrGraph::empty(5),
        CsrGraph::empty(0),
        CsrGraph::from_edges(8, &[(7, 6), (5, 6), (0, 1), (2, 3)]),
    ];
    for g in &families {
        assert_eq!(hcl_graph::order::degree_descending(g), degree_order_by_sort(g));
    }
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

    /// The counting-sort builder against the global sort: duplicates in
    /// both orientations, self-loops, vertices past the last endpoint,
    /// through `add_edge` and `add_edge_growing` alike.
    #[test]
    fn builder_matches_global_sort_reference(
        n in 0usize..40,
        raw in proptest::collection::vec((0u32..1 << 16, 0u32..1 << 16, 0u8..4), 0..120),
    ) {
        let mut edges = Vec::new();
        for &(u, v, kind) in raw.iter().filter(|_| n > 0) {
            // Endpoints from the lower half half the time leave trailing
            // vertices isolated.
            let span = if kind % 2 == 0 { n as u32 } else { (n as u32).div_ceil(2) };
            let (u, v) = (u % span, v % span);
            edges.push((u, v));
            match kind {
                0 => edges.push((v, u)),
                1 => edges.push((u, u)),
                _ => {}
            }
        }
        let g = CsrGraph::from_edges(n, &edges);
        assert_built_like_global_sort(&g, n, &edges);
        let mut growing = GraphBuilder::new(0);
        for &(u, v) in &edges {
            growing.add_edge_growing(u, v);
        }
        let grown_n = edges.iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0);
        assert_built_like_global_sort(&growing.build(), grown_n, &edges);
    }

    /// The one-pass degree-ordered view against the composition it
    /// replaced, on random graphs with random removed sets.
    #[test]
    fn one_pass_view_matches_composition(g in arbitrary_graph(), picks in proptest::collection::vec(0u32..1 << 16, 0..6)) {
        let removed: Vec<VertexId> = picks.iter().map(|&p| p % g.num_vertices() as u32).collect();
        assert_one_pass_view_matches_composition(&g, &removed, "random");
        prop_assert_eq!(hcl_graph::order::degree_descending(&g), degree_order_by_sort(&g));
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
