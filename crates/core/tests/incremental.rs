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
//! A generation is its parent with the endpoints' adjacency chunks and the
//! label chunks that hold a replaced row copied. The long scripts run
//! hundreds of edits down one chain and hold every step to the rebuild, to
//! a flat model of the graph and of the view, to BFS truth, to at most two
//! copied chunks per graph and to exactly the label chunks its patch
//! touches — and hold the *parent* to its own model after
//! the child was derived, since structural sharing must never alias a
//! write. Beside the chain runs a replica: an independently loaded copy
//! of the base that only ever sees the [`LabelPatch`]es.
//!
//! The bounded [`PairFilter`] — searches on `G[V∖R]` for landmark-free
//! edits, stopped at a radius — is held to BFS truth on the graphs before
//! and after each edit, at radii from 0 to unbounded, on every family the
//! lemma behind it could trip over.
//!
//! The `HCL_PROPTEST_CASES` environment variable overrides the per-test
//! case count (the CI `incremental-soak` job runs 10× tier-1's default).

use hcl_core::storage::distance_on;
use hcl_core::update::{apply_edit, EdgeEdit, PairFilter, UpdateResult};
use hcl_core::{HighwayCoverLabelling, QueryContext, SparseView};
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
                distance_on(incremental, &sparse.rows(), &mut ctx, s, t),
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
        let rows = self.sparse.rows();
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
                assert_eq!(
                    distance_on(&self.labelling, &rows, &mut ctx, s, t),
                    expect,
                    "{tag}: d({s}, {t})"
                );
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
    chunks_copied: usize,
    label_rows: usize,
    label_chunks: usize,
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

        let before =
            (current.graph.clone(), current.sparse.clone(), current.labelling.labels().clone());
        let touched: BTreeSet<usize> =
            r.patch.rows().iter().map(|&(x, _)| x as usize / CsrGraph::CHUNK_VERTICES).collect();
        seen.label_rows += r.patch.rows().len();
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
        assert_eq!(current.graph.chunks_not_shared_with(&before.0), 0, "{tag}: parent graph");
        assert_eq!(current.sparse, before.1, "{tag}: parent view");
        let parent_labels = current.labelling.labels();
        assert_eq!(parent_labels.chunks_not_shared_with(&before.2), 0, "{tag}: parent labels");

        // The graph copies the endpoints' chunks, the view the same or
        // none (a landmark-incident edit leaves it alone); nothing else.
        let graph_chunks = child.graph.chunks_not_shared_with(&current.graph);
        let view_chunks = child.sparse.graph().chunks_not_shared_with(current.sparse.graph());
        assert!((1..=2).contains(&graph_chunks) && view_chunks <= 2, "{tag}: chunks copied");
        seen.chunks_copied += graph_chunks + view_chunks;
        // The labels copy the chunks that hold a changed row, and only them.
        let label_chunks = child.labelling.labels().chunks_not_shared_with(parent_labels);
        assert_eq!(label_chunks, touched.len(), "{tag}: label chunks copied");
        seen.label_chunks += label_chunks;
        if !landmarks.is_empty() {
            seen.disconnections += (reached(&child) < reached(&current)) as usize;
            seen.reconnections += (reached(&child) > reached(&current)) as usize;
        }
        current = child;
    }
    seen
}

/// A long chain of edits on a graph sparse enough that deletions
/// disconnect, insertions reconnect, and the hubs sit several hops apart:
/// every kind of edit, each copying only the chunks its endpoints live in.
#[test]
fn a_long_script_stays_equivalent_across_folds() {
    // Long enough to cut a landmark off and join it back.
    let seen = run_fold_script(generate::erdos_renyi(220, 260, 41), 4, 0xF01D, 400, "long");
    assert!(seen.applied >= 192, "{seen:?}");
    assert!(seen.chunks_copied > seen.applied, "the view was edited too: {seen:?}");
    assert!(seen.highway_moves > 0 && seen.landmark_incident > 0, "{seen:?}");
    assert!(seen.disconnections > 0 && seen.reconnections > 0, "{seen:?}");
}

/// Label rows change by the thousand and in every chunk. On a long cycle
/// every chord shortens the way to each landmark for a good share of the
/// vertices (and removing it lengthens it again), so a few dozen edits
/// replace more label rows than a chunk holds, on both sides of the chunk
/// boundary. A pendant vertex on every `n / k`-th cycle vertex makes those
/// the landmarks: spread out, they keep every label distance well inside a
/// byte while edges come and go.
#[test]
fn label_rows_across_chunks_stay_equivalent() {
    let (n, k) = (CsrGraph::CHUNK_VERTICES + 300, 16);
    let mut edges: Vec<(VertexId, VertexId)> =
        (0..n).map(|i| (i as VertexId, ((i + 1) % n) as VertexId)).collect();
    edges.extend((0..k).map(|i| ((i * n / k) as VertexId, (n + i) as VertexId)));
    let seen = run_fold_script(CsrGraph::from_edges(n + k, &edges), k, 0x1ABE1, 40, "cycle");
    assert!(seen.label_rows > CsrGraph::CHUNK_VERTICES, "{seen:?}");
    assert!(seen.label_chunks > seen.applied, "edits copied both label chunks: {seen:?}");
}

/// The edit that moves a landmark distance: DEL the first adjacent
/// landmark pair in rank order on a BA graph of five chunks. Every label
/// row that depends on the cut distance is re-derived, the labels copy
/// exactly the chunks those rows live in, and the result is the rebuild;
/// ADDing the edge back copies the same chunks and restores the built
/// labels.
#[test]
fn a_landmark_landmark_delete_copies_the_chunks_of_its_changed_rows() {
    let g = generate::barabasi_albert(5 * CsrGraph::CHUNK_VERTICES - 100, 4, 7);
    let landmarks = hcl_graph::order::top_degree(&g, 12);
    let (hcl, _) = HighwayCoverLabelling::build_parallel(&g, &landmarks, 1).unwrap();
    let sparse = SparseView::build(&g, hcl.highway());
    let ranked = hcl.highway().landmarks().to_vec();
    let (a, b) = (0..ranked.len())
        .flat_map(|i| (i + 1..ranked.len()).map(move |j| (i, j)))
        .map(|(i, j)| (ranked[i], ranked[j]))
        .find(|&(a, b)| g.has_edge(a, b))
        .expect("the hubs are adjacent");
    let cut = apply_edit(&g, &hcl, &sparse, EdgeEdit::Delete(a, b)).unwrap();
    assert!(cut.highway_changed);
    let touched: BTreeSet<usize> =
        cut.patch.rows().iter().map(|&(x, _)| x as usize / CsrGraph::CHUNK_VERTICES).collect();
    let copied = cut.labelling.labels().chunks_not_shared_with(hcl.labels());
    assert_eq!(copied, touched.len());
    assert!(copied > 1, "the changed rows spread over the chunks: {copied}");
    let (fresh, _) = HighwayCoverLabelling::build_parallel(&cut.graph, &ranked, 1).unwrap();
    assert_eq!(cut.labelling, fresh);
    let back = apply_edit(&cut.graph, &cut.labelling, &cut.sparse, EdgeEdit::Add(a, b)).unwrap();
    assert_eq!(back.labelling.labels().chunks_not_shared_with(cut.labelling.labels()), copied);
    assert_eq!(back.labelling, hcl);
}

proptest! {
    #![proptest_config(cases(2))]

    /// The long script over random sparse instances (the soak job's 240
    /// cases): 192 edits each.
    #[test]
    fn edit_scripts_stay_equivalent_across_folds(
        n in 160usize..260,
        density in 100usize..140,
        k in 1usize..6,
        seed in 0u64..100_000,
    ) {
        let steps = 192;
        let seen = run_fold_script(
            generate::erdos_renyi(n, n * density / 100, seed),
            k,
            seed ^ 0xA24B_AED4_963E_E407,
            steps,
            &format!("n={n} density={density} k={k} seed={seed}"),
        );
        prop_assert!(seen.applied > 0 && seen.chunks_copied >= seen.applied, "{:?}", seen);
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

/// What the bounded-filter checks covered, so a test can insist it was
/// not vacuous.
#[derive(Default, Debug)]
struct FilterCoverage {
    /// `(pair, radius)` classifications checked against BFS truth.
    checks: usize,
    /// Of those, pairs the filter kept.
    kept: usize,
    /// Kept pairs cached as unreachable.
    kept_unreachable: usize,
    adds: usize,
    deletes: usize,
    landmark_free: usize,
    landmark_moving: usize,
}

/// Holds the bounded filters of one applied edit to BFS truth. The cache
/// holds every `(s, t)` with `s` among `sources`, at its old distance;
/// `D` is the largest finite one. At each radius in {0, 1, 2, D − 2, D,
/// unbounded} a kept pair must have the same distance on both graphs, and
/// at `D − 2` an `ADD` must keep exactly the finite entries the unbounded
/// exact filter keeps.
fn check_bounded_filters(
    old: (&CsrGraph, &SparseView),
    r: &UpdateResult,
    sources: &[VertexId],
    seen: &mut FilterCoverage,
    tag: &str,
) {
    let edit = r.patch.edit();
    let n = old.0.num_vertices();
    let before: Vec<Vec<u32>> =
        sources.iter().map(|&s| traversal::bfs_distances(old.0, s)).collect();
    let after: Vec<Vec<u32>> =
        sources.iter().map(|&s| traversal::bfs_distances(&r.graph, s)).collect();
    let max = before.iter().flatten().copied().filter(|&d| d != INF).max().unwrap_or(0);
    let scope = r.filter_scope(old.0, old.1);
    let exact = PairFilter::for_edit(old.0, &r.graph, edit);
    seen.adds += edit.is_add() as usize;
    seen.deletes += !edit.is_add() as usize;
    seen.landmark_free += r.landmark_free() as usize;
    seen.landmark_moving += !r.landmark_free() as usize;
    for radius in [0, 1, 2, max.saturating_sub(2), max, INF] {
        let filter = PairFilter::bounded(&scope, radius);
        assert_eq!(filter.landmark_free(), r.landmark_free(), "{tag}");
        assert!(filter.vertices_reached() <= 2 * n, "{tag}");
        for (i, &s) in sources.iter().enumerate() {
            for t in 0..n as VertexId {
                let (was, is) = (before[i][t as usize], after[i][t as usize]);
                let cached = (was != INF).then_some(was);
                let keeps = filter.keeps(s, t, cached);
                seen.checks += 1;
                if !keeps {
                    continue;
                }
                seen.kept += 1;
                seen.kept_unreachable += cached.is_none() as usize;
                assert_eq!(
                    was, is,
                    "{tag}: {edit} radius {radius} kept d({s}, {t}) = {was}, now {is}"
                );
            }
            if edit.is_add() && radius == max.saturating_sub(2) {
                for t in 0..n as VertexId {
                    let cached = Some(before[i][t as usize]).filter(|&d| d != INF);
                    if cached.is_some() {
                        assert_eq!(
                            filter.keeps(s, t, cached),
                            exact.keeps(s, t, cached),
                            "{tag}: {edit} at D - 2 = {radius} disagrees with the exact filter \
                             on ({s}, {t})"
                        );
                    }
                }
            }
        }
    }
}

/// Applies `steps` random edits to `g` in a chain, checking each one's
/// bounded filters (see [`check_bounded_filters`]) with every vertex as a
/// cached source.
fn run_filter_script(
    g: CsrGraph,
    landmarks: &[VertexId],
    seed: u64,
    steps: usize,
    seen: &mut FilterCoverage,
    tag: &str,
) {
    let (hcl, _) = HighwayCoverLabelling::build_parallel(&g, landmarks, 1).unwrap();
    let sparse = SparseView::build(&g, hcl.highway());
    let sources: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    let (mut graph, mut hcl, mut sparse) = (g, hcl, sparse);
    let mut stream = Stream(seed | 1);
    for step in 0..steps {
        let want_delete = stream.next().is_multiple_of(2);
        let pin = (step % 3 == 2 && !landmarks.is_empty())
            .then(|| landmarks[(stream.next() % landmarks.len() as u64) as usize]);
        let Some(edit) = pick_edit(&graph, &mut stream, want_delete, pin)
            .or_else(|| pick_edit(&graph, &mut stream, !want_delete, None))
        else {
            continue;
        };
        let r = apply_edit(&graph, &hcl, &sparse, edit).unwrap();
        check_bounded_filters((&graph, &sparse), &r, &sources, seen, &format!("{tag} step {step}"));
        graph = r.graph;
        hcl = r.labelling;
        sparse = r.sparse;
    }
}

/// One instance of each family the bounded filter must hold on; `family`
/// picks it, `n` and `seed` shape it. Returns the graph and its landmarks.
fn filter_family(family: u8, n: usize, seed: u64) -> (CsrGraph, Vec<VertexId>) {
    let g = match family {
        0 => generate::barabasi_albert(n, 3, seed),
        1 => generate::erdos_renyi(n, 2 * n, seed),
        2 => generate::watts_strogatz(n, 4, 0.1, seed),
        // Below the connectivity threshold: unreachable entries are cached.
        3 => generate::erdos_renyi(n, n / 2, seed),
        // The star of `PairFilter`'s docs: the hub is the only landmark, and
        // a leaf-leaf insert moves no landmark distance.
        _ => return (generate::star(n), vec![0]),
    };
    let k = 1 + (seed % 5) as usize;
    let landmarks = hcl_graph::order::top_degree(&g, k);
    (g, landmarks)
}

#[test]
fn bounded_filter_is_sound_on_every_family() {
    let mut seen = FilterCoverage::default();
    for family in 0..5u8 {
        for seed in 0..3u64 {
            let (g, landmarks) = filter_family(family, 60, seed);
            run_filter_script(g, &landmarks, seed ^ 0x5EED, 6, &mut seen, &format!("{family}"));
        }
    }
    // The star's leaf-leaf insert on its own: landmark-free, and the one
    // pair it shortens is dropped at every radius.
    let star = generate::star(8);
    let (hcl, _) = HighwayCoverLabelling::build(&star, &[0]).unwrap();
    let sparse = SparseView::build(&star, hcl.highway());
    let r = apply_edit(&star, &hcl, &sparse, EdgeEdit::Add(1, 2)).unwrap();
    assert!(r.landmark_free());
    check_bounded_filters((&star, &sparse), &r, &[1, 2, 3], &mut seen, "star leaf-leaf");
    for radius in [0, 1, INF] {
        assert!(!PairFilter::bounded(&r.filter_scope(&star, &sparse), radius).keeps(1, 2, Some(2)));
    }

    assert!(seen.adds > 0 && seen.deletes > 0, "{seen:?}");
    assert!(seen.landmark_free > 0 && seen.landmark_moving > 0, "{seen:?}");
    assert!(seen.kept_unreachable > 0, "{seen:?}");
    assert!(seen.kept > seen.checks / 4, "the filter keeps something: {seen:?}");
}

/// At the serving radius `D − 2`, on a graph of serving shape, the bounded
/// filter keeps exactly what the unbounded one keeps for `ADD`s, on `G`
/// and on `G[V∖R]` alike.
#[test]
fn bounded_filter_matches_the_exact_one_on_ba_adds() {
    let g = generate::barabasi_albert(20_000, 4, 17);
    let landmarks = hcl_graph::order::top_degree(&g, 20);
    let (hcl, _) = HighwayCoverLabelling::build_parallel(&g, &landmarks, 0).unwrap();
    let sparse = SparseView::build(&g, hcl.highway());
    let n = g.num_vertices() as u64;
    let mut stream = Stream(0xBA20);
    // The cache: every pair from 32 random sources, at its distance.
    let mut cached: Vec<(VertexId, VertexId, u32)> = Vec::new();
    for _ in 0..32 {
        let s = (stream.next() % n) as VertexId;
        let row = traversal::bfs_distances(&g, s);
        cached.extend(row.into_iter().enumerate().map(|(t, d)| (s, t as VertexId, d)));
    }
    assert!(cached.iter().all(|&(_, _, d)| d != INF), "BA is connected");
    let max = cached.iter().map(|&(_, _, d)| d).max().unwrap();
    let mut landmark_free = 0;
    for _ in 0..6 {
        let edit = pick_edit(&g, &mut stream, false, None).unwrap();
        let r = apply_edit(&g, &hcl, &sparse, edit).unwrap();
        let bounded = PairFilter::bounded(&r.filter_scope(&g, &sparse), max - 2);
        let exact = PairFilter::for_edit(&g, &r.graph, edit);
        let kept =
            |f: &PairFilter| cached.iter().filter(|&&(s, t, d)| f.keeps(s, t, Some(d))).count();
        assert_eq!(kept(&bounded), kept(&exact), "{edit} at radius {}", max - 2);
        assert_eq!(bounded.landmark_free(), r.landmark_free());
        landmark_free += r.landmark_free() as usize;
    }
    assert!(landmark_free > 0, "uniform inserts on BA move no landmark distance");
}

proptest! {
    #![proptest_config(cases(12))]

    /// The bounded filter over random instances of every family (the soak
    /// job's 240 cases).
    #[test]
    fn bounded_filter_never_keeps_a_changed_pair(
        family in 0u8..5,
        n in 12usize..90,
        seed in 0u64..100_000,
    ) {
        let (g, landmarks) = filter_family(family, n, seed);
        let mut seen = FilterCoverage::default();
        run_filter_script(
            g,
            &landmarks,
            seed ^ 0x0B0B_FEED,
            4,
            &mut seen,
            &format!("family={family} n={n} seed={seed}"),
        );
        prop_assert!(seen.checks > 0, "{:?}", seen);
    }
}
