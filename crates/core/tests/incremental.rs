//! Differential harness for the incremental update path: random edit
//! scripts (interleaved `ADD` / `DEL` / query ops) applied through
//! `hcl_core::update::apply_edit` must be **label-equivalent** and
//! **answer-equivalent** to `HighwayCoverLabelling::build_parallel` run
//! from scratch after *every* step — the rebuild is the oracle that keeps
//! the `O(affected)` algorithm honest.
//!
//! Coverage is deliberately adversarial for an incremental scheme:
//! Erdős–Rényi draws below the connectivity threshold (disconnected
//! graphs and single-vertex components arise organically), random trees
//! make every deletion a disconnecting one, scripts are biased to touch
//! landmark-incident edges, and inserts re-join components (exercising
//! highway-matrix changes in both directions).
//!
//! A generation is its parent plus an overlay of replaced rows, folded
//! into fresh flat arrays when the overlay outgrows its bound. The
//! across-the-fold scripts run several bounds' worth of edits through that
//! cycle and hold every step to the rebuild, to a flat model of the graph
//! and of the view, to BFS truth — and hold the *parent* to its own model
//! after the child was derived, since structural sharing must never alias
//! a write. Beside the chain runs a replica: an independently loaded copy
//! of the base that only ever sees the [`LabelPatch`]es.
//!
//! The `HCL_PROPTEST_CASES` environment variable overrides the per-test
//! case count (the CI `incremental-soak` job runs 10× tier-1's default).

use hcl_core::storage::distance_on;
use hcl_core::update::{apply_edit, EdgeEdit, PairFilter, UpdateResult};
use hcl_core::{HighwayCoverLabelling, MemIndex, QueryContext, SparseView};
use hcl_graph::{generate, traversal, CsrGraph, VertexId, INF};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Per-test case count: default for tier-1, `HCL_PROPTEST_CASES` for the
/// soak job.
fn cases(default: u32) -> ProptestConfig {
    let n =
        std::env::var("HCL_PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(default);
    ProptestConfig::with_cases(n)
}

/// A deterministic value stream for edit-script construction (the shim's
/// strategies drive the *parameters*; the script itself derives from the
/// seed so failures reproduce from the printed case alone).
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        // xorshift64*
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Picks the next edit: deletes an existing edge or inserts an absent one,
/// optionally forced to be incident to `pin` (a landmark). Returns `None`
/// when the wanted kind is unavailable (empty or complete graph).
fn pick_edit(
    g: &CsrGraph,
    s: &mut Stream,
    want_delete: bool,
    pin: Option<VertexId>,
) -> Option<EdgeEdit> {
    let n = g.num_vertices() as u64;
    if want_delete {
        if let Some(p) = pin {
            let row = g.neighbors(p);
            if row.is_empty() {
                return None;
            }
            let q = row[(s.next() % row.len() as u64) as usize];
            return Some(EdgeEdit::Delete(p, q));
        }
        if g.num_edges() == 0 {
            return None;
        }
        let (u, v) = g.edges().nth((s.next() % g.num_edges() as u64) as usize)?;
        Some(EdgeEdit::Delete(u, v))
    } else {
        for _ in 0..64 {
            let a = pin.unwrap_or_else(|| (s.next() % n) as VertexId);
            let b = (s.next() % n) as VertexId;
            if a != b && !g.has_edge(a, b) {
                return Some(EdgeEdit::Add(a, b));
            }
        }
        None
    }
}

/// The oracle: labelling from the incremental step must equal a parallel
/// rebuild from scratch, entry for entry, and both must answer a sampled
/// pair grid (landmark endpoints included) identically — with the queries
/// running over the *patched* sparse view, so the view's correctness is
/// part of the property.
fn assert_equivalent(
    graph: &CsrGraph,
    incremental: &HighwayCoverLabelling,
    sparse: &SparseView,
    landmarks: &[VertexId],
    tag: &str,
) {
    let (fresh, _) = HighwayCoverLabelling::build_parallel(graph, landmarks, 1).unwrap();
    assert_eq!(
        incremental.highway().landmarks(),
        fresh.highway().landmarks(),
        "{tag}: landmark set drifted"
    );
    for i in 0..fresh.num_landmarks() as u32 {
        assert_eq!(incremental.highway().row(i), fresh.highway().row(i), "{tag}: highway row {i}");
    }
    for x in 0..graph.num_vertices() as VertexId {
        assert_eq!(
            incremental.labels().label(x).to_vec(),
            fresh.labels().label(x).to_vec(),
            "{tag}: label of {x}"
        );
    }
    incremental.labels().validate(incremental.highway()).unwrap();

    let n = graph.num_vertices() as VertexId;
    let mut ctx = QueryContext::new(graph.num_vertices());
    let sources: Vec<VertexId> = (0..n).step_by(5).chain(landmarks.iter().copied()).collect();
    for &s in &sources {
        let truth = traversal::bfs_distances(graph, s);
        for t in (0..n).step_by(3).chain(landmarks.iter().copied()) {
            let expect = (truth[t as usize] != INF).then_some(truth[t as usize]);
            assert_eq!(
                incremental.distance_sparse(sparse, &mut ctx, s, t),
                expect,
                "{tag}: query {s}->{t}"
            );
        }
    }
}

/// Runs `steps` random edits over `g` incrementally, checking equivalence
/// after every step. Every third step pins the edit to a landmark.
fn run_script(g: CsrGraph, k: usize, seed: u64, steps: usize, tag: &str) {
    let landmarks = hcl_graph::order::top_degree(&g, k.min(g.num_vertices()));
    let (hcl, _) = HighwayCoverLabelling::build_parallel(&g, &landmarks, 1).unwrap();
    let sparse = SparseView::build(&g, hcl.highway());
    let (mut graph, mut hcl, mut sparse) = (g, hcl, sparse);
    let mut stream = Stream(seed | 1);
    let mut applied = 0usize;
    for step in 0..steps {
        let want_delete = stream.next().is_multiple_of(2);
        let pin = (step % 3 == 2 && !landmarks.is_empty())
            .then(|| landmarks[(stream.next() % landmarks.len() as u64) as usize]);
        // Fall back to the opposite kind when the wanted one is impossible
        // (deleting from an edgeless graph, inserting into a complete one).
        let Some(edit) = pick_edit(&graph, &mut stream, want_delete, pin)
            .or_else(|| pick_edit(&graph, &mut stream, !want_delete, None))
        else {
            continue;
        };
        let old_graph = graph.clone();
        let r = apply_edit(&graph, &hcl, &sparse, edit)
            .unwrap_or_else(|e| panic!("{tag} step {step}: {edit} rejected: {e}"));

        // Interleaved PairFilter check: every pair it keeps must really be
        // unchanged (the serving layer's cache-retag soundness).
        let filter = PairFilter::for_edit(&old_graph, &r.graph, edit);
        let n = graph.num_vertices() as VertexId;
        for s in (0..n).step_by(7) {
            let old_row = traversal::bfs_distances(&old_graph, s);
            let new_row = traversal::bfs_distances(&r.graph, s);
            for t in (0..n).step_by(11) {
                let cached = (old_row[t as usize] != INF).then_some(old_row[t as usize]);
                if filter.keeps(s, t, cached) {
                    assert_eq!(
                        old_row[t as usize], new_row[t as usize],
                        "{tag} step {step}: filter kept changed pair {s}->{t}"
                    );
                }
            }
        }

        assert_equivalent(
            &r.graph,
            &r.labelling,
            &r.sparse,
            &landmarks,
            &format!("{tag} step {step} ({edit})"),
        );
        graph = r.graph;
        hcl = r.labelling;
        sparse = r.sparse;
        applied += 1;
    }
    assert!(applied > 0, "{tag}: script applied no edits");
}

#[test]
fn deterministic_scripts_cover_every_family() {
    let families: Vec<(&str, CsrGraph, usize)> = vec![
        ("erdos_renyi_sparse", generate::erdos_renyi(40, 30, 3), 4),
        ("erdos_renyi_dense", generate::erdos_renyi(35, 120, 4), 6),
        ("barabasi_albert", generate::barabasi_albert(50, 3, 5), 5),
        // Trees: every deletion disconnects a component.
        ("random_tree", generate::random_tree(40, 6), 4),
        ("grid", generate::grid(6, 6), 3),
        ("path", generate::path(20), 2),
        (
            "disconnected",
            CsrGraph::from_edges(14, &[(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (9, 10), (11, 12)]),
            3,
        ),
        ("mostly_isolated", CsrGraph::from_edges(10, &[(4, 5), (5, 6)]), 2),
    ];
    for (name, g, k) in families {
        run_script(g, k, 0x9E37_79B9 ^ name.len() as u64, 8, name);
    }
}

#[test]
fn single_landmark_and_empty_landmark_sets() {
    // k = 1: the highway is 1×1 and every cover test is trivial — the
    // affected-map machinery carries the whole property.
    run_script(generate::erdos_renyi(30, 45, 9), 1, 11, 6, "k1");
    // k = 0: labels are empty everywhere; updates only maintain the graph
    // and sparse view, queries fall through to the bounded search.
    run_script(generate::erdos_renyi(25, 35, 10), 0, 13, 4, "k0");
}

#[test]
fn bridge_deletions_disconnect_and_reconnect() {
    // Two dense clusters joined by one bridge; landmarks live in both.
    let mut edges = Vec::new();
    for a in 0..8u32 {
        for b in (a + 1)..8 {
            edges.push((a, b));
        }
    }
    for a in 8..16u32 {
        for b in (a + 1)..16 {
            edges.push((a, b));
        }
    }
    edges.push((3, 12));
    let g = CsrGraph::from_edges(16, &edges);
    let landmarks = vec![0u32, 9];
    let (hcl, _) = HighwayCoverLabelling::build_parallel(&g, &landmarks, 1).unwrap();
    let sparse = SparseView::build(&g, hcl.highway());

    // Sever the bridge: the landmark pair goes to INF.
    let r = apply_edit(&g, &hcl, &sparse, EdgeEdit::Delete(3, 12)).unwrap();
    assert!(r.highway_changed);
    assert_eq!(r.labelling.highway().distance(0, 1), INF);
    assert_equivalent(&r.graph, &r.labelling, &r.sparse, &landmarks, "severed");

    // Re-join elsewhere: finite again, by a different route.
    let r2 = apply_edit(&r.graph, &r.labelling, &r.sparse, EdgeEdit::Add(0, 9)).unwrap();
    assert!(r2.highway_changed);
    assert_eq!(r2.labelling.highway().distance(0, 1), 1);
    assert_equivalent(&r2.graph, &r2.labelling, &r2.sparse, &landmarks, "rejoined");
}

/// Up to `k` landmarks by descending degree, no two of them adjacent:
/// between adjacent hubs every highway cell is 1 whatever the edits do, and
/// the highway half of the update path would go untested.
fn non_adjacent_hubs(g: &CsrGraph, k: usize) -> Vec<VertexId> {
    let mut hubs: Vec<VertexId> = Vec::new();
    for v in hcl_graph::order::degree_descending(g) {
        if hubs.len() < k && hubs.iter().all(|&h| !g.has_edge(h, v)) {
            hubs.push(v);
        }
    }
    hubs
}

/// One generation of the chain, with the flat models it is held to.
struct Generation {
    graph: CsrGraph,
    labelling: HighwayCoverLabelling,
    sparse: SparseView,
    /// The graph's edges, `u < v`.
    edges: BTreeSet<(VertexId, VertexId)>,
}

impl Generation {
    /// The flat rebuild of the graph, and of the view in the view ids the
    /// chain inherited from its first generation.
    fn flat_models(&self) -> (CsrGraph, CsrGraph) {
        let n = self.graph.num_vertices();
        let highway = self.labelling.highway();
        let edges: Vec<_> = self.edges.iter().copied().collect();
        let view_edges: Vec<_> = edges
            .iter()
            .filter(|&&(u, v)| !highway.is_landmark(u) && !highway.is_landmark(v))
            .map(|&(u, v)| (self.sparse.view_of(u), self.sparse.view_of(v)))
            .collect();
        (CsrGraph::from_edges(n, &edges), CsrGraph::from_edges(n, &view_edges))
    }

    /// Graph and view `==` their flat rebuilds, and sampled distances —
    /// landmark endpoints included — are BFS truth on the flat graph.
    fn assert_matches_models(&self, stream: &mut Stream, tag: &str) {
        let (flat, flat_view) = self.flat_models();
        assert_eq!(self.graph, flat, "{tag}: graph");
        assert_eq!(self.graph.num_edges(), self.edges.len(), "{tag}: edge count");
        assert_eq!(self.sparse.graph(), &flat_view, "{tag}: sparse view");
        assert_eq!(
            self.sparse.num_edges() + self.sparse.removed_edges(),
            self.edges.len(),
            "{tag}: removed edges"
        );
        let n = flat.num_vertices() as u64;
        let index = MemIndex::new(&self.labelling, &self.sparse);
        let mut ctx = QueryContext::new(n as usize);
        let landmarks = self.labelling.highway().landmarks();
        for i in 0..4 {
            let s = if i == 0 && !landmarks.is_empty() {
                landmarks[(stream.next() % landmarks.len() as u64) as usize]
            } else {
                (stream.next() % n) as VertexId
            };
            let truth = traversal::bfs_distances(&flat, s);
            for t in (0..n as VertexId).step_by(7).chain(landmarks.iter().copied()) {
                let expect = (truth[t as usize] != INF).then_some(truth[t as usize]);
                assert_eq!(distance_on(&index, &mut ctx, s, t), expect, "{tag}: d({s}, {t})");
            }
        }
    }

    /// Label-for-label and highway-row-for-row equal to a from-scratch
    /// build over the flat graph.
    fn assert_matches_rebuild(&self, tag: &str) {
        let landmarks = self.labelling.highway().landmarks();
        let (flat, _) = self.flat_models();
        let (fresh, _) = HighwayCoverLabelling::build_parallel(&flat, landmarks, 1).unwrap();
        for i in 0..fresh.num_landmarks() as u32 {
            assert_eq!(self.labelling.highway().row(i), fresh.highway().row(i), "{tag}: row {i}");
        }
        for x in 0..flat.num_vertices() as VertexId {
            assert_eq!(
                self.labelling.labels().label(x).to_vec(),
                fresh.labels().label(x).to_vec(),
                "{tag}: label of {x}"
            );
        }
        assert_eq!(self.labelling, fresh, "{tag}: logical equality agrees");
        self.labelling.labels().validate(self.labelling.highway()).unwrap();
    }

    fn child(&self, r: UpdateResult) -> Generation {
        let mut edges = self.edges.clone();
        let (u, v) = r.patch.edit().endpoints();
        let key = (u.min(v), u.max(v));
        let applied = if r.patch.edit().is_add() { edges.insert(key) } else { edges.remove(&key) };
        assert!(applied, "the model disagrees with the graph about {key:?}");
        Generation { graph: r.graph, labelling: r.labelling, sparse: r.sparse, edges }
    }
}

/// What a script has exercised, so a test can insist it was not vacuous.
#[derive(Default, Debug)]
struct Coverage {
    applied: usize,
    graph_folds: usize,
    view_folds: usize,
    label_folds: usize,
    highway_moves: usize,
    landmark_incident: usize,
    disconnections: usize,
    reconnections: usize,
}

/// Runs `steps` interleaved edits over `g` as one chain of generations,
/// checking every step as the module docs describe.
fn run_fold_script(g: CsrGraph, k: usize, seed: u64, steps: usize, tag: &str) -> Coverage {
    let landmarks = non_adjacent_hubs(&g, k);
    let (hcl, _) = HighwayCoverLabelling::build_parallel(&g, &landmarks, 1).unwrap();
    let sparse = SparseView::build(&g, hcl.highway());

    // The replica: the base as another process would load it from disk.
    let mut bytes = (Vec::new(), Vec::new());
    hcl_graph::io::write_binary(&g, &mut bytes.0).unwrap();
    hcl_core::io::write_labelling(&hcl, &mut bytes.1).unwrap();
    let loaded_graph = hcl_graph::io::read_binary(&bytes.0[..]).unwrap();
    let loaded_hcl = hcl_core::io::read_labelling(&bytes.1[..]).unwrap();
    let loaded_sparse = SparseView::build(&loaded_graph, loaded_hcl.highway());
    let mut replica = (loaded_graph, loaded_hcl, loaded_sparse);

    let edges = g.edges().collect();
    let mut current = Generation { graph: g, labelling: hcl, sparse, edges };
    let mut stream = Stream(seed | 1);
    let mut seen = Coverage::default();
    for step in 0..steps {
        let want_delete = stream.next().is_multiple_of(2);
        let pin = (step % 5 == 4 && !landmarks.is_empty())
            .then(|| landmarks[(stream.next() % landmarks.len() as u64) as usize]);
        let Some(edit) = pick_edit(&current.graph, &mut stream, want_delete, pin)
            .or_else(|| pick_edit(&current.graph, &mut stream, !want_delete, None))
        else {
            continue;
        };
        let tag = format!("{tag} step {step} ({edit})");
        let r = apply_edit(&current.graph, &current.labelling, &current.sparse, edit)
            .unwrap_or_else(|e| panic!("{tag}: rejected: {e}"));

        let rows = |g: &Generation| {
            (
                g.graph.overlay_rows(),
                g.sparse.graph().overlay_rows(),
                g.labelling.labels().overlay_rows(),
            )
        };
        let before = rows(&current);
        let reached =
            |g: &Generation| g.labelling.highway().row(0).iter().filter(|&&d| d != INF).count();
        let (u, v) = edit.endpoints();
        seen.applied += 1;
        seen.highway_moves += r.highway_changed as usize;
        seen.landmark_incident += (landmarks.contains(&u) || landmarks.contains(&v)) as usize;

        // The replica sees only the patch, and lands on the same generation.
        replica = r.patch.apply(&replica.0, &replica.1, &replica.2).unwrap();
        assert_eq!(replica.0, r.graph, "{tag}: replica graph");
        assert_eq!(replica.1, r.labelling, "{tag}: replica labelling");
        assert_eq!(replica.2, r.sparse, "{tag}: replica view");

        let child = current.child(r);
        child.assert_matches_rebuild(&tag);
        child.assert_matches_models(&mut stream, &tag);
        // The parent still answers for the old graph.
        current.assert_matches_models(&mut stream, &format!("{tag}, parent"));
        assert_eq!(rows(&current), before, "{tag}: deriving a child must not touch the parent");

        let after = rows(&child);
        seen.graph_folds += (after.0 < before.0) as usize;
        seen.view_folds += (after.1 < before.1) as usize;
        seen.label_folds += (after.2 < before.2) as usize;
        if !landmarks.is_empty() {
            seen.disconnections += (reached(&child) < reached(&current)) as usize;
            seen.reconnections += (reached(&child) > reached(&current)) as usize;
        }
        current = child;
    }
    seen
}

/// Three overlay bounds' worth of edits on a graph sparse enough that
/// deletions disconnect, insertions reconnect, and the hubs sit several
/// hops apart: every kind of edit, on both sides of several folds.
#[test]
fn a_long_script_stays_equivalent_across_folds() {
    // At least three bounds, and long enough to cut a landmark off and
    // join it back whatever the bound is.
    let steps = (3 * CsrGraph::OVERLAY_MAX_ROWS).max(400);
    let seen = run_fold_script(generate::erdos_renyi(220, 260, 41), 4, 0xF01D, steps, "long");
    assert!(seen.applied >= 3 * CsrGraph::OVERLAY_MAX_ROWS, "{seen:?}");
    assert!(seen.graph_folds >= 2 && seen.view_folds >= 1, "{seen:?}");
    assert!(seen.highway_moves > 0 && seen.landmark_incident > 0, "{seen:?}");
    assert!(seen.disconnections > 0 && seen.reconnections > 0, "{seen:?}");
}

/// The label overlay folds too. On a long cycle every chord shortens the
/// way to each landmark for a good share of the vertices (and removing it
/// lengthens it again), so a few dozen edits replace more label rows than
/// the overlay holds.
#[test]
fn label_overlay_folds_and_stays_equivalent() {
    let n = hcl_core::HighwayLabels::OVERLAY_MAX_ROWS + 300;
    let seen = run_fold_script(generate::cycle(n), 3, 0x1ABE1, 40, "cycle");
    assert!(seen.label_folds >= 1, "{seen:?}");
}

proptest! {
    #![proptest_config(cases(2))]

    /// The across-the-fold script over random sparse instances (the soak
    /// job's 240 cases): three overlay bounds of edits each.
    #[test]
    fn edit_scripts_stay_equivalent_across_folds(
        n in 160usize..260,
        density in 100usize..140,
        k in 1usize..6,
        seed in 0u64..100_000,
    ) {
        let steps = 3 * CsrGraph::OVERLAY_MAX_ROWS;
        let seen = run_fold_script(
            generate::erdos_renyi(n, n * density / 100, seed),
            k,
            seed ^ 0xA24B_AED4_963E_E407,
            steps,
            &format!("n={n} density={density} k={k} seed={seed}"),
        );
        prop_assert!(seen.graph_folds >= 1, "{:?}", seen);
    }
}

proptest! {
    #![proptest_config(cases(24))]

    /// The headline property: a random edit script over a random instance
    /// stays equivalent to the from-scratch parallel rebuild after every
    /// step, labels and answers both.
    #[test]
    fn edit_scripts_match_rebuild_from_scratch(
        n in 10usize..70,
        extra_edges in 0usize..120,
        k in 0usize..8,
        family in 0u8..3,
        seed in 0u64..100_000,
        steps in 1usize..7,
    ) {
        let g = match family {
            0 => generate::erdos_renyi(n, n / 2 + extra_edges, seed),
            1 => generate::barabasi_albert(n, 1 + extra_edges % 4, seed),
            _ => generate::random_tree(n, seed),
        };
        run_script(
            g,
            k,
            seed ^ 0xD1B5_4A32_D192_ED03,
            steps,
            &format!("n={n} k={k} family={family} seed={seed}"),
        );
    }
}
