//! The sparsified-view fast path is a pure constant-factor rewrite of the
//! skip-closure search: `distance_on` over the precomputed,
//! **degree-ordered** `G[V∖R]` CSR must agree with the identity-order view
//! (same sparsification, no relabelling) and with the reference
//! `distance_with` (per-edge landmark filter) on every input — every
//! generator family, disconnected graphs, single-vertex components,
//! landmark endpoints, and every landmark-set size including zero. The
//! three-way check isolates the degree relabelling as a pure layout change:
//! any disagreement pins the bug to either the sparsification or the
//! reordering.

use hcl_core::storage::distance_on;
use hcl_core::{HighwayCoverLabelling, QueryContext, SharedOracle, SparseView};
use hcl_graph::{generate, CsrGraph, VertexId};
use proptest::prelude::*;
use std::sync::Arc;

/// Compares the degree-ordered fast path against the identity-order view
/// and the skip-closure reference on a grid of pairs that always includes
/// every landmark as an endpoint.
fn assert_paths_agree(g: &CsrGraph, landmarks: &[VertexId], tag: &str) {
    let (hcl, _) = HighwayCoverLabelling::build(g, landmarks).unwrap();
    let view = SparseView::build(g, hcl.highway());
    let ident = SparseView::identity(g, hcl.highway());
    assert_eq!(view.num_edges() + view.removed_edges(), g.num_edges(), "{tag}: edge accounting");
    assert_eq!(ident.num_edges(), view.num_edges(), "{tag}: views sparsify identically");
    let mut reference = QueryContext::new(g.num_vertices());
    let mut fast = QueryContext::new(g.num_vertices());
    let mut unordered = QueryContext::new(g.num_vertices());
    let n = g.num_vertices() as VertexId;
    let sources: Vec<VertexId> = g.vertices().step_by(7).chain(landmarks.iter().copied()).collect();
    for &s in &sources {
        for t in (0..n).step_by(3).chain(landmarks.iter().copied()) {
            let want = hcl.distance_with(g, &mut reference, s, t);
            let via_ident = distance_on(&hcl, &ident.rows(), &mut unordered, s, t);
            let got = distance_on(&hcl, &view.rows(), &mut fast, s, t);
            assert_eq!(via_ident, want, "{tag}: identity view {s}->{t}");
            assert_eq!(got, want, "{tag}: degree-ordered view {s}->{t}");
        }
    }
}

#[test]
fn sparse_path_matches_reference_on_all_families() {
    let families: Vec<(&str, CsrGraph)> = vec![
        ("erdos_renyi", generate::erdos_renyi(70, 150, 1)),
        ("barabasi_albert", generate::barabasi_albert(90, 3, 2)),
        ("watts_strogatz", generate::watts_strogatz(80, 4, 0.2, 3)),
        ("web_copying", generate::web_copying(100, 4, 0.3, 4)),
        ("random_tree", generate::random_tree(60, 5)),
        ("grid", generate::grid(8, 9)),
        ("path", generate::path(40)),
        ("cycle", generate::cycle(30)),
        (
            "disconnected",
            CsrGraph::from_edges(12, &[(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (9, 10)]),
        ),
        // Every vertex its own component: the degree order has nothing but
        // ties, so this pins down the by-id tiebreak on all-zero degrees.
        ("edgeless", CsrGraph::from_edges(6, &[])),
        // One non-trivial component surrounded by single-vertex components.
        ("mostly_isolated", CsrGraph::from_edges(10, &[(4, 5), (5, 6)])),
    ];
    for (name, g) in &families {
        for k in [0usize, 1, 4, 10] {
            let landmarks = hcl_graph::order::top_degree(g, k);
            assert_paths_agree(g, &landmarks, &format!("{name} k={k}"));
        }
    }
}

#[test]
fn shared_oracle_view_agrees_with_reference_labelling_path() {
    let g = generate::barabasi_albert(300, 4, 19);
    let landmarks = hcl_graph::order::top_degree(&g, 10);
    let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
    let reference = hcl.clone();
    let oracle = SharedOracle::new(Arc::new(g.clone()), Arc::new(hcl));
    let mut ctx = QueryContext::new(g.num_vertices());
    for s in g.vertices().step_by(11) {
        for t in g.vertices().step_by(5) {
            assert_eq!(
                oracle.distance(s, t),
                reference.distance_with(&g, &mut ctx, s, t),
                "{s}->{t}"
            );
        }
    }
    // Batches take the same fast path.
    let pairs: Vec<(u32, u32)> = (0..200).map(|i| ((i * 7) % 300, (i * 13 + 1) % 300)).collect();
    let mut expect = Vec::new();
    for &(s, t) in &pairs {
        expect.push(reference.distance_with(&g, &mut ctx, s, t));
    }
    for threads in [1usize, 2, 4] {
        assert_eq!(oracle.batch_distances(&pairs, threads), expect, "threads {threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random instances across generator families with random landmark
    /// counts: the degree-ordered fast path, the identity-order view, and
    /// the skip-closure reference agree on a random sample of pairs
    /// (landmark endpoints included by construction). Erdős–Rényi draws
    /// below the connectivity threshold, so disconnected graphs and
    /// single-vertex components arise organically.
    #[test]
    fn sparse_path_matches_reference_on_random_instances(
        n in 10usize..120,
        extra_edges in 0usize..200,
        k in 0usize..12,
        family in 0u8..3,
        seed in 0u64..1000,
    ) {
        let g = match family {
            0 => generate::erdos_renyi(n, n / 2 + extra_edges, seed),
            1 => generate::barabasi_albert(n, 1 + extra_edges % 4, seed),
            _ => generate::random_tree(n, seed),
        };
        let landmarks = hcl_graph::order::top_degree(&g, k.min(n));
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let view = SparseView::build(&g, hcl.highway());
        let ident = SparseView::identity(&g, hcl.highway());
        let mut reference = QueryContext::new(g.num_vertices());
        let mut fast = QueryContext::new(g.num_vertices());
        let mut unordered = QueryContext::new(g.num_vertices());
        let nv = g.num_vertices() as u64;
        for i in 0..64u64 {
            // Deterministic pair stream biased to touch landmarks.
            let s = if i % 5 == 0 && !landmarks.is_empty() {
                landmarks[(i / 5) as usize % landmarks.len()]
            } else {
                ((i.wrapping_mul(2654435761).wrapping_add(seed)) % nv) as u32
            };
            let t = ((i.wrapping_mul(40503).wrapping_add(seed * 7 + 1)) % nv) as u32;
            let want = hcl.distance_with(&g, &mut reference, s, t);
            let via_ident = distance_on(&hcl, &ident.rows(), &mut unordered, s, t);
            let got = distance_on(&hcl, &view.rows(), &mut fast, s, t);
            prop_assert_eq!(via_ident, want, "identity: n={} k={} seed={} {}->{}", n, k, seed, s, t);
            prop_assert_eq!(got, want, "ordered: n={} k={} seed={} {}->{}", n, k, seed, s, t);
        }
    }
}
