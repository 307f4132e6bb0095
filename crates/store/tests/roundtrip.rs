//! Pack → view round-trip: a packed index must reproduce the original
//! labelling, highway, and the packer's sparsified view (CSR and
//! permutation) exactly, and queries over the mapped bytes must agree with
//! the in-memory fast path on every input — every generator family,
//! disconnected graphs, landmark endpoints, a view whose degree order has
//! gone stale under edits, and random instances under proptest.

use hcl_core::update::{apply_edit, EdgeEdit};
use hcl_core::{
    fixture, HighwayCoverLabelling, IndexGeneration, LabelStorage, Oracle, QueryContext,
    SharedOracle, SparseNeighbors, SparseView,
};
use hcl_graph::{generate, traversal, CsrGraph, VertexId, INF};
use hcl_store::format::{HEADER_BYTES, SECTION_COUNT, SECTION_ENTRY_BYTES};
use hcl_store::{pack, save_packed, IndexView, PackedOracle};
use proptest::prelude::*;
use std::sync::Arc;

fn build(g: &CsrGraph, k: usize) -> (HighwayCoverLabelling, SparseView) {
    let landmarks = hcl_graph::order::top_degree(g, k);
    let (hcl, _) = HighwayCoverLabelling::build(g, &landmarks).unwrap();
    let sparse = SparseView::build(g, hcl.highway());
    (hcl, sparse)
}

/// The packed view must return byte-for-byte identical index content.
fn assert_view_matches(
    view: &IndexView,
    hcl: &HighwayCoverLabelling,
    sparse: &SparseView,
    tag: &str,
) {
    let n = hcl.labels().num_vertices();
    let r = hcl.num_landmarks();
    assert_eq!(view.num_vertices(), n, "{tag}: n");
    assert_eq!(view.num_landmarks(), r, "{tag}: r");
    assert_eq!(view.landmarks(), hcl.highway().landmarks(), "{tag}: landmark list");
    assert_eq!(view.total_label_entries(), hcl.labels().total_entries() as u64, "{tag}: entries");
    for rank in 0..r as u32 {
        assert_eq!(view.highway_row(rank), hcl.highway().row(rank), "{tag}: highway row {rank}");
    }
    for v in 0..n as VertexId {
        assert_eq!(view.rank(v), hcl.highway().rank(v), "{tag}: rank({v})");
        assert_eq!(view.label_lanes(v), hcl.labels().label_lanes(v), "{tag}: label({v})");
        // The stored view is the packer's view: same permutation, same rows.
        assert_eq!(view.view_of(v), sparse.view_of(v), "{tag}: view_of({v})");
        assert_eq!(view.sparse_neighbors(v), sparse.graph().neighbors(v), "{tag}: sparse({v})");
    }
}

/// Every byte of the file is accounted for: header, section table, the
/// seven payloads in kind order, and the padding that 8-aligns each — and
/// the two size accessors `STATS` reports split the payloads between them.
fn assert_bytes_accounted(image: &[u8], view: &IndexView, tag: &str) {
    let read_u64 = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    let mut at = HEADER_BYTES + SECTION_COUNT * SECTION_ENTRY_BYTES;
    let mut payload = 0;
    for i in 0..SECTION_COUNT {
        let e = HEADER_BYTES + i * SECTION_ENTRY_BYTES;
        at = at.next_multiple_of(8);
        assert_eq!(read_u64(e + 8), at, "{tag}: section {} offset", i + 1);
        at += read_u64(e + 16);
        payload += read_u64(e + 16);
    }
    assert_eq!(at, image.len(), "{tag}: file length");
    assert_eq!(view.store_bytes(), image.len(), "{tag}: store_bytes");
    assert_eq!(view.packed_index_bytes() + view.sparse_bytes(), payload, "{tag}: payload split");
}

#[test]
fn round_trip_preserves_index_on_all_families() {
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
    ];
    for (name, g) in &families {
        for k in [0usize, 1, 4, 10] {
            let (hcl, sparse) = build(g, k);
            let image = pack(&hcl, &sparse).unwrap();
            let view = IndexView::from_bytes(&image).unwrap();
            assert_view_matches(&view, &hcl, &sparse, &format!("{name} k={k}"));
            assert_bytes_accounted(&image, &view, &format!("{name} k={k}"));
        }
    }
}

#[test]
fn packed_queries_match_in_memory_on_all_families() {
    let families: Vec<(&str, CsrGraph)> = vec![
        ("barabasi_albert", generate::barabasi_albert(120, 3, 11)),
        ("watts_strogatz", generate::watts_strogatz(90, 4, 0.2, 13)),
        (
            "disconnected",
            CsrGraph::from_edges(14, &[(0, 1), (1, 2), (2, 3), (5, 6), (6, 7), (9, 10), (12, 13)]),
        ),
    ];
    for (name, g) in &families {
        for k in [0usize, 2, 6] {
            let (hcl, sparse) = build(g, k);
            let image = pack(&hcl, &sparse).unwrap();
            let view = IndexView::from_bytes(&image).unwrap();
            let mut packed_ctx = QueryContext::new(g.num_vertices());
            let mut mem_ctx = QueryContext::new(g.num_vertices());
            let landmarks = hcl.highway().landmarks().to_vec();
            let n = g.num_vertices() as VertexId;
            // Grid of pairs that always includes every landmark endpoint.
            let sources: Vec<VertexId> =
                (0..n).step_by(7).chain(landmarks.iter().copied()).collect();
            for &s in &sources {
                for t in (0..n).step_by(3).chain(landmarks.iter().copied()) {
                    let want =
                        hcl_core::storage::distance_on(&hcl, &sparse.rows(), &mut mem_ctx, s, t);
                    let got = hcl_core::storage::distance_on(&view, &view, &mut packed_ctx, s, t);
                    assert_eq!(got, want, "{name} k={k}: {s}->{t}");
                    let want_bound = hcl.upper_bound_with(&mut mem_ctx, s, t);
                    let got_bound = hcl_core::storage::upper_bound_on(&view, &mut packed_ctx, s, t);
                    assert_eq!(got_bound, want_bound, "{name} k={k}: bound {s}->{t}");
                }
            }
        }
    }
}

/// Readers must not assume the stored view is degree-sorted: after an
/// `UPDATE` the permutation is inherited (`SparseView::with_edit`), so
/// degrees and view ids disagree. Packing that view must still answer
/// every pair exactly.
#[test]
fn packed_view_with_stale_degree_order_answers_exactly() {
    let g = generate::barabasi_albert(150, 3, 29);
    let (hcl, sparse) = build(&g, 6);
    // An ADD between two lowest-degree vertices and a DEL at a mid-degree
    // one, both inside G[V∖R], so the inherited order is wrong at both ends.
    let order = hcl_graph::order::degree_descending(&g);
    let a = *order.last().unwrap();
    let b = *order.iter().rev().find(|&&w| w != a && !g.has_edge(a, w)).unwrap();
    let hub = order[10];
    let spoke = *g.neighbors(hub).iter().rev().find(|&&w| !hcl.highway().is_landmark(w)).unwrap();
    let (add, del) = (EdgeEdit::Add(a, b), EdgeEdit::Delete(hub, spoke));
    let added = apply_edit(&g, &hcl, &sparse, add).unwrap();
    let edited = apply_edit(&added.graph, &added.labelling, &added.sparse, del).unwrap();
    let stale = edited.sparse.graph();
    assert!(
        (1..stale.num_vertices() as VertexId).any(|v| stale.degree(v - 1) < stale.degree(v)),
        "the edits must leave the view out of degree order"
    );

    let image = pack(&edited.labelling, &edited.sparse).unwrap();
    let view = IndexView::from_bytes(&image).unwrap();
    assert_view_matches(&view, &edited.labelling, &edited.sparse, "stale order");
    let mut ctx = QueryContext::new(g.num_vertices());
    for s in 0..g.num_vertices() as VertexId {
        let truth = traversal::bfs_distances(&edited.graph, s);
        for t in 0..g.num_vertices() as VertexId {
            let want = (truth[t as usize] != INF).then_some(truth[t as usize]);
            assert_eq!(
                hcl_core::storage::distance_on(&view, &view, &mut ctx, s, t),
                want,
                "{s}->{t}"
            );
        }
    }
}

/// A generation that shares chunks with its base writes out as the index it
/// answers for, through all three writers: the graph and plain-index files
/// load back `==` to it, and packing those two files — what `hcl pack`
/// does — gives a packed index that answers like the in-memory generation.
#[test]
fn writers_of_a_patched_generation_round_trip_to_its_logical_content() {
    // A sparse random graph with landmarks several hops apart, so that
    // some edit moves the highway as well.
    let g = generate::erdos_renyi(160, 200, 3);
    let landmarks: Vec<VertexId> =
        hcl_graph::order::degree_descending(&g).into_iter().step_by(9).take(4).collect();
    let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
    let sparse = SparseView::build(&g, hcl.highway());
    let base_labels = hcl.labels().clone();
    let mut parts = (g.clone(), hcl, sparse);
    let mut highway_moved = false;
    for step in 0..24u32 {
        let edit = if step % 3 == 0 {
            let (u, v) = parts.0.edges().nth(step as usize * 5).unwrap();
            EdgeEdit::Delete(u, v)
        } else {
            // Alternately at a landmark and between two ordinary vertices.
            let a = if step % 2 == 0 {
                landmarks[step as usize % landmarks.len()]
            } else {
                (step * 37) % 160
            };
            let b = (0..160u32)
                .map(|i| (i + step * 13) % 160)
                .find(|&b| b != a && !parts.0.has_edge(a, b))
                .unwrap();
            EdgeEdit::Add(a, b)
        };
        let r = apply_edit(&parts.0, &parts.1, &parts.2, edit).unwrap();
        highway_moved |= r.highway_changed;
        parts = (r.graph, r.labelling, r.sparse);
    }
    let (graph, hcl, sparse) = parts;
    assert!(graph.chunks_not_shared_with(&g) > 0);
    assert!(hcl.labels().chunks_not_shared_with(&base_labels) > 0);
    assert!(highway_moved);

    let dir = std::env::temp_dir().join(format!("hcl_store_patched_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (graph_path, index_path, packed_path) =
        (dir.join("g.hclg"), dir.join("g.hcl"), dir.join("g.hclx"));
    hcl_graph::io::save_binary(&graph, &graph_path).unwrap();
    hcl_core::io::save_labelling(&hcl, &index_path).unwrap();
    save_packed(&hcl, &sparse, &packed_path).unwrap();

    let loaded_graph = hcl_graph::io::load_auto(&graph_path).unwrap();
    let loaded_hcl = hcl_core::io::load_labelling(&index_path).unwrap();
    assert_eq!(loaded_graph, graph);
    assert_eq!(loaded_graph.chunks_not_shared_with(&graph), graph.num_chunks(), "built apart");
    assert_eq!(loaded_hcl, hcl);
    assert!(loaded_hcl.labels().chunks_not_shared_with(hcl.labels()) > 0, "built apart");
    let direct = PackedOracle::open(&packed_path).unwrap();
    assert_view_matches(direct.view(), &hcl, &sparse, "packed from the patched generation");

    // `hcl pack graph index`: a fresh view over the loaded halves.
    let repacked_path = dir.join("repacked.hclx");
    let fresh_view = SparseView::build(&loaded_graph, loaded_hcl.highway());
    save_packed(&loaded_hcl, &fresh_view, &repacked_path).unwrap();
    let repacked = PackedOracle::open(&repacked_path).unwrap();
    let memory = SharedOracle::from_parts(Arc::new(graph.clone()), Arc::new(hcl), Arc::new(sparse));
    for s in 0..160 {
        let truth = traversal::bfs_distances(&graph, s);
        for t in 0..160 {
            let want = (truth[t as usize] != INF).then_some(truth[t as usize]);
            assert_eq!(memory.distance(s, t), want, "memory {s}->{t}");
            assert_eq!(direct.distance(s, t), want, "packed {s}->{t}");
            assert_eq!(repacked.distance(s, t), want, "repacked {s}->{t}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives every query method of one oracle over all pairs of `g`:
/// `distance`, `distance_with`, `distance_with_timed` and
/// `batch_distances` (1 and 2 threads, input order) agree with each other
/// and with BFS truth; `upper_bound` never under-reports; the bounded
/// search runs exactly when neither endpoint is a landmark. Returns the
/// upper bounds, for comparison across backends.
fn assert_front_door<I: IndexGeneration>(oracle: &Oracle<I>, g: &CsrGraph, tag: &str) -> Vec<u32> {
    let n = g.num_vertices() as VertexId;
    assert_eq!(oracle.num_vertices(), g.num_vertices(), "{tag}: n");
    let pairs: Vec<(VertexId, VertexId)> =
        (0..n).flat_map(|s| (0..n).map(move |t| (s, t))).collect();
    let labels = oracle.view().labels();
    let mut ctx = oracle.context_pool().checkout();
    let (mut answers, mut bounds) = (Vec::new(), Vec::new());
    for s in 0..n {
        let truth = traversal::bfs_distances(g, s);
        for t in 0..n {
            let want = (truth[t as usize] != INF).then_some(truth[t as usize]);
            let d = oracle.distance(s, t);
            assert_eq!(d, want, "{tag}: distance {s}->{t}");
            assert_eq!(oracle.distance_with(&mut ctx, s, t), d, "{tag}: distance_with {s}->{t}");
            let (timed, phases) = oracle.distance_with_timed(&mut ctx, s, t);
            assert_eq!(timed, d, "{tag}: distance_with_timed {s}->{t}");
            let searched = s != t && !labels.is_landmark(s) && !labels.is_landmark(t);
            assert_eq!(phases.searched, searched, "{tag}: searched {s}->{t}");
            let bound = oracle.upper_bound(s, t);
            assert!(bound >= truth[t as usize], "{tag}: bound {bound} under-reports {s}->{t}");
            answers.push(d);
            bounds.push(bound);
        }
    }
    drop(ctx);
    for threads in [1, 2] {
        assert_eq!(oracle.batch_distances(&pairs, threads), answers, "{tag}: {threads} threads");
    }
    bounds
}

/// One index per graph, served by both instantiations of the one oracle —
/// the in-memory build and its packed file mapped back — on a scale-free
/// graph and on the paper's example, whose landmarks 5 and 9 are
/// non-adjacent hubs.
#[test]
fn packed_oracle_serves_from_disk_via_mmap() {
    let dir = std::env::temp_dir().join(format!("hcl_store_front_door_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases = [
        ("ba", generate::barabasi_albert(150, 3, 21), None),
        ("paper", fixture::paper_graph(), Some(fixture::paper_landmarks())),
    ];
    for (tag, g, landmarks) in cases {
        let landmarks = landmarks.unwrap_or_else(|| hcl_graph::order::top_degree(&g, 10));
        let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let sparse = SparseView::build(&g, hcl.highway());
        let path = dir.join(format!("{tag}.hclx"));
        save_packed(&hcl, &sparse, &path).unwrap();
        let packed = PackedOracle::open(&path).unwrap();
        assert!(packed.view().is_mapped(), "{tag}: served from the mapping");
        let memory = SharedOracle::from_parts(Arc::new(g.clone()), Arc::new(hcl), Arc::new(sparse));
        let memory_bounds = assert_front_door(&memory, &g, &format!("{tag} memory"));
        let packed_bounds = assert_front_door(&packed, &g, &format!("{tag} packed"));
        assert_eq!(packed_bounds, memory_bounds, "{tag}: upper bounds across backends");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn packed_index_beats_the_plain_serialisation() {
    // The compression the format exists for: the index sections beat the
    // plain serialisation comfortably on a scale-free instance.
    let g = generate::barabasi_albert(400, 4, 21);
    let (hcl, sparse) = build(&g, 12);
    let view = IndexView::from_bytes(&pack(&hcl, &sparse).unwrap()).unwrap();
    assert!(
        view.packed_index_bytes() * 4 <= view.plain_index_bytes() * 3,
        "packed {} vs plain {}",
        view.packed_index_bytes(),
        view.plain_index_bytes()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random Erdős–Rényi instances with random landmark counts: the
    /// packed view reproduces the index exactly and answers a random pair
    /// sample (biased to touch landmarks) identically to the in-memory
    /// path.
    #[test]
    fn packed_path_matches_in_memory_on_random_instances(
        n in 10usize..120,
        extra_edges in 0usize..200,
        k in 0usize..12,
        seed in 0u64..1000,
    ) {
        let g = generate::erdos_renyi(n, n / 2 + extra_edges, seed);
        let (hcl, sparse) = build(&g, k.min(n));
        let image = pack(&hcl, &sparse).unwrap();
        let view = IndexView::from_bytes(&image).unwrap();
        prop_assert_eq!(view.num_vertices(), g.num_vertices());
        prop_assert_eq!(view.landmarks(), hcl.highway().landmarks());
        let landmarks = hcl.highway().landmarks();
        let mut packed_ctx = QueryContext::new(g.num_vertices());
        let mut mem_ctx = QueryContext::new(g.num_vertices());
        let nv = g.num_vertices() as u64;
        for i in 0..64u64 {
            // Deterministic pair stream biased to touch landmarks.
            let s = if i % 5 == 0 && !landmarks.is_empty() {
                landmarks[(i / 5) as usize % landmarks.len()]
            } else {
                ((i.wrapping_mul(2654435761).wrapping_add(seed)) % nv) as u32
            };
            let t = ((i.wrapping_mul(40503).wrapping_add(seed * 7 + 1)) % nv) as u32;
            let want = hcl_core::storage::distance_on(&hcl, &sparse.rows(), &mut mem_ctx, s, t);
            let got = hcl_core::storage::distance_on(&view, &view, &mut packed_ctx, s, t);
            prop_assert_eq!(got, want, "n={} k={} seed={} {}->{}", n, k, seed, s, t);
        }
    }
}
