//! Property-based tests of the paper's theorems on arbitrary graphs:
//!
//! * Theorem 3.9 — the constructed labelling satisfies the highway cover
//!   property (every `r`-constrained distance is recoverable from two
//!   labels + the highway).
//! * Lemma 3.11 — order independence: any permutation of the landmark set
//!   yields the same labels.
//! * Theorem 3.12 / Lemma 3.7 — minimality: an entry `(r, v)` exists iff no
//!   other landmark lies on any shortest `r–v` path (checked by brute
//!   force), so no smaller highway cover labelling exists.
//! * Corollary 3.14 — `size(HL) <= size(PLL)` for the same landmark set,
//!   under every landmark order.
//! * Lemma 4.4 / Theorem 4.6 — the query upper bound is admissible and the
//!   full framework returns exact distances.

use hcl::prelude::*;
use hcl_baselines::{PllConfig, PllIndex};
use hcl_core::testing::all_pairs as all_pairs_bfs;
use hcl_graph::INF;
use proptest::prelude::*;

/// Random graph + landmark set strategy: up to 40 vertices, random edges,
/// 0–6 distinct landmarks.
fn graph_and_landmarks() -> impl Strategy<Value = (CsrGraph, Vec<u32>)> {
    (2usize..40)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..120);
            let landmark_sel = proptest::collection::vec(0..n as u32, 0..6);
            (Just(n), edges, landmark_sel)
        })
        .prop_map(|(n, edges, landmark_sel)| {
            let g = CsrGraph::from_edges(n, &edges);
            let mut landmarks = landmark_sel;
            landmarks.sort_unstable();
            landmarks.dedup();
            (g, landmarks)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn labelling_is_minimal_and_exact((g, landmarks) in graph_and_landmarks()) {
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let dist = all_pairs_bfs(&g);
        let highway = hcl.highway();

        // Highway distances are exact.
        for (i, &a) in landmarks.iter().enumerate() {
            for (j, &b) in landmarks.iter().enumerate() {
                prop_assert_eq!(
                    highway.distance(i as u32, j as u32),
                    dist[a as usize][b as usize]
                );
            }
        }

        for v in g.vertices() {
            if highway.is_landmark(v) {
                prop_assert!(hcl.labels().label(v).is_empty());
                continue;
            }
            for (rank, &r) in landmarks.iter().enumerate() {
                let d_rv = dist[r as usize][v as usize];
                // Lemma 3.7: entry iff no other landmark on any shortest path.
                let must_have = d_rv != INF
                    && !landmarks.iter().any(|&w| {
                        w != r && w != v
                            && dist[r as usize][w as usize] != INF
                            && dist[w as usize][v as usize] != INF
                            && dist[r as usize][w as usize] + dist[w as usize][v as usize] == d_rv
                    });
                let entry = hcl
                    .labels()
                    .label(v)
                    .iter()
                    .find(|e| e.landmark == rank as u8);
                prop_assert_eq!(entry.is_some(), must_have, "landmark {} vertex {}", r, v);
                if let Some(e) = entry {
                    prop_assert_eq!(e.dist as u32, d_rv);
                }
                // Theorem 3.9 / Corollary 3.8 (highway cover property):
                // the r-constrained distance is recoverable from L(v) + H.
                if d_rv != INF {
                    prop_assert_eq!(hcl.bound_from_landmark(rank as u32, v), d_rv);
                }
            }
        }
    }

    #[test]
    fn order_independence((g, landmarks) in graph_and_landmarks()) {
        let (a, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let mut reversed = landmarks.clone();
        reversed.reverse();
        let (b, _) = HighwayCoverLabelling::build(&g, &reversed).unwrap();
        // Entries are identical after resolving ranks to vertices.
        for v in g.vertices() {
            let mut ea: Vec<(u32, u8)> = a.labels().label(v).iter()
                .map(|e| (a.highway().landmark(e.landmark as u32), e.dist)).collect();
            let mut eb: Vec<(u32, u8)> = b.labels().label(v).iter()
                .map(|e| (b.highway().landmark(e.landmark as u32), e.dist)).collect();
            ea.sort_unstable();
            eb.sort_unstable();
            prop_assert_eq!(ea, eb);
        }
    }

    #[test]
    fn parallel_equals_sequential((g, landmarks) in graph_and_landmarks()) {
        let (seq, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let (par, _) = HighwayCoverLabelling::build_parallel(&g, &landmarks, 3).unwrap();
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn hl_never_larger_than_pll_corollary_3_14((g, landmarks) in graph_and_landmarks()) {
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let no_bp = PllConfig { num_bp_roots: 0, bp_neighbors: 0 };
        // Against both landmark orders; PLL labels include the roots' own
        // self-entries, which the highway cover labelling does not need —
        // exclude them for a conservative comparison.
        for order in [landmarks.clone(), landmarks.iter().rev().copied().collect()] {
            let (pll, _) = PllIndex::build_with_order(&g, &order, no_bp).unwrap();
            // Every PLL root labels itself once; those entries have no HL
            // counterpart (landmark distances live in the highway).
            let pll_non_root = pll.total_entries() - order.len();
            prop_assert!(
                hcl.labels().total_entries() <= pll_non_root,
                "HL {} vs PLL {} (non-root {})",
                hcl.labels().total_entries(), pll.total_entries(), pll_non_root
            );
        }
    }

    #[test]
    fn queries_are_exact((g, landmarks) in graph_and_landmarks()) {
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let dist = all_pairs_bfs(&g);
        let mut oracle = HlOracle::new(&g, hcl);
        for s in g.vertices() {
            for t in g.vertices() {
                let expect = (dist[s as usize][t as usize] != INF)
                    .then_some(dist[s as usize][t as usize]);
                // Lemma 4.4: the bound is admissible.
                if s != t {
                    let ub = oracle.upper_bound(s, t);
                    if let Some(d) = expect {
                        prop_assert!(ub >= d);
                    }
                }
                // Theorem 4.6: the framework is exact.
                prop_assert_eq!(oracle.query(s, t), expect, "{}->{}", s, t);
            }
        }
    }

    #[test]
    fn serialization_roundtrip((g, landmarks) in graph_and_landmarks()) {
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let mut buf = Vec::new();
        hcl::core::io::write_labelling(&hcl, &mut buf).unwrap();
        let back = hcl::core::io::read_labelling(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(hcl, back);
    }

    #[test]
    fn corrupted_labelling_never_panics(
        (g, landmarks) in graph_and_landmarks(),
        cut in 0usize..96,
        flip in 0usize..96,
    ) {
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let mut buf = Vec::new();
        hcl::core::io::write_labelling(&hcl, &mut buf).unwrap();
        let cut = cut.min(buf.len());
        buf.truncate(buf.len() - cut);
        if !buf.is_empty() {
            let idx = flip % buf.len();
            buf[idx] ^= 0xA5;
        }
        // Must parse or fail cleanly — never panic or make absurd allocations.
        let _ = hcl::core::io::read_labelling(std::io::Cursor::new(buf));
    }
}

/// Non-proptest spot check: Corollary 3.14 with strict inequality on the
/// paper's own example (13 < 25 < 30).
#[test]
fn corollary_3_14_on_paper_example() {
    let g = hcl::core::fixture::paper_graph();
    let landmarks = hcl::core::fixture::paper_landmarks();
    let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
    assert_eq!(hcl.labels().total_entries(), 13);
    let no_bp = PllConfig { num_bp_roots: 0, bp_neighbors: 0 };
    let (pll, _) = PllIndex::build_with_order(&g, &landmarks, no_bp).unwrap();
    assert!(hcl.labels().total_entries() < pll.total_entries());
}
