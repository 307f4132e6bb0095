//! Fault-injected store tests (`--features fault-injection`): a failed
//! `mmap` must fall back to an owned in-memory read with identical
//! answers, and a *short* `mmap` (truncated mapping) must surface as a
//! typed validation error at open time — never as silently wrong data.

#![cfg(feature = "fault-injection")]

use hcl_core::fault::{install, Fault, Op, Script, Trigger};
use hcl_core::{HighwayCoverLabelling, LabelStorage, QueryContext, SparseView};
use hcl_graph::{generate, CsrGraph, VertexId};
use hcl_store::{save_packed, IndexView};

const ENOMEM: i32 = 12;

fn build(g: &CsrGraph, k: usize) -> (HighwayCoverLabelling, SparseView) {
    let landmarks = hcl_graph::order::top_degree(g, k);
    let (hcl, _) = HighwayCoverLabelling::build(g, &landmarks).unwrap();
    let sparse = SparseView::build(g, hcl.highway());
    (hcl, sparse)
}

fn temp_index(name: &str) -> (std::path::PathBuf, CsrGraph, HighwayCoverLabelling, SparseView) {
    let dir = std::env::temp_dir().join(format!("hcl_chaos_store_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.hclx");
    let g = generate::barabasi_albert(300, 4, 17);
    let (hcl, sparse) = build(&g, 10);
    save_packed(&hcl, &sparse, &path).unwrap();
    (path, g, hcl, sparse)
}

/// `mmap` fails (injected ENOMEM): the view opens anyway through the
/// owned-read fallback and answers every probed pair identically to the
/// mapped view.
#[test]
fn failed_mmap_falls_back_to_owned_read_with_identical_answers() {
    let (path, g, hcl, sparse) = temp_index("enomem");

    let mapped = IndexView::open(&path).unwrap();
    assert!(mapped.is_mapped(), "no fault: the view serves over the mapping");

    let guard = install(Script::new().on(Op::Mmap, Trigger::At(0), Fault::Errno(ENOMEM)));
    let owned = IndexView::open(&path).unwrap();
    drop(guard);
    assert!(!owned.is_mapped(), "injected ENOMEM: the view fell back to an owned buffer");

    assert_eq!(owned.num_vertices(), mapped.num_vertices());
    assert_eq!(owned.landmarks(), mapped.landmarks());
    let mut ctx_a = QueryContext::new(g.num_vertices());
    let mut ctx_b = QueryContext::new(g.num_vertices());
    let n = g.num_vertices() as VertexId;
    for s in (0..n).step_by(13) {
        for t in (0..n).step_by(29) {
            assert_eq!(
                hcl_core::storage::distance_on(&owned, &owned, &mut ctx_a, s, t),
                hcl_core::storage::distance_on(&mapped, &mapped, &mut ctx_b, s, t),
                "{s}->{t}"
            );
        }
    }
    // Both backings reproduce the source index, not just each other.
    let mut mem_ctx = QueryContext::new(g.num_vertices());
    let mut ctx = QueryContext::new(g.num_vertices());
    for s in (0..n).step_by(41) {
        let want = hcl_core::storage::distance_on(&hcl, &sparse.rows(), &mut mem_ctx, s, n - 1);
        assert_eq!(hcl_core::storage::distance_on(&owned, &owned, &mut ctx, s, n - 1), want);
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// A short `mmap` (mapping truncated to 64 bytes) is caught by the open
/// validation as a typed error — the truncated mapping can never serve.
#[test]
fn short_mmap_is_a_typed_open_error() {
    let (path, ..) = temp_index("short");
    let guard = install(Script::new().on(Op::Mmap, Trigger::At(0), Fault::Short(64)));
    let err = IndexView::open(&path).expect_err("a truncated mapping must not open");
    drop(guard);
    let msg = err.to_string();
    assert!(!msg.is_empty(), "typed error with a message, got: {msg}");
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// Every open attempt failing `mmap` (Always, not At) still serves —
/// the fallback is not a one-shot.
#[test]
fn persistent_mmap_failure_still_serves() {
    let (path, ..) = temp_index("persistent");
    let guard = install(Script::new().on(Op::Mmap, Trigger::Always, Fault::Errno(ENOMEM)));
    for round in 0..3 {
        let view = IndexView::open(&path).unwrap();
        assert!(!view.is_mapped(), "round {round}");
        assert_eq!(view.num_vertices(), 300, "round {round}");
    }
    assert!(guard.calls(Op::Mmap) >= 3, "every open consulted the hook");
    drop(guard);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
