//! Criterion micro-benchmarks: the distance-bounded bidirectional BFS
//! (Algorithm 2) against the unbounded search it replaces — the paper's
//! core query-time argument in miniature — and, beside that skip-closure
//! reference, the sparse kernel the serving path actually runs.

use criterion::{criterion_group, criterion_main, Criterion};
use hcl_core::HighwayCoverLabelling;
use hcl_graph::{generate, SearchSpace};
use hcl_workloads::queries::sample_pairs;
use std::hint::black_box;

fn bench_bounded_search(c: &mut Criterion) {
    let g = generate::barabasi_albert(20_000, 8, 42);
    let landmarks = hcl_graph::order::top_degree(&g, 20);
    let (labelling, _) = HighwayCoverLabelling::build_parallel(&g, &landmarks, 0).unwrap();
    // Algorithm 2 runs on the sparsified graph, so endpoints are never
    // landmarks; filter the workload accordingly.
    let pairs: Vec<(u32, u32)> = sample_pairs(g.num_vertices(), 2_048, 3)
        .into_iter()
        .filter(|&(s, t)| {
            !labelling.highway().is_landmark(s) && !labelling.highway().is_landmark(t)
        })
        .take(1_024)
        .collect();
    // Pre-compute upper bounds so only the searches are measured.
    let bounds: Vec<u32> = pairs.iter().map(|&(s, t)| labelling.upper_bound(s, t)).collect();
    let highway = labelling.highway();

    let mut group = c.benchmark_group("bounded_search");
    let mut space = SearchSpace::new(g.num_vertices());

    let mut i = 0usize;
    group.bench_function("unbounded-bibfs", |b| {
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            black_box(space.bibfs_distance(&g, s, t))
        })
    });

    let mut i = 0usize;
    group.bench_function("bounded-on-sparsified", |b| {
        b.iter(|| {
            let idx = i % pairs.len();
            let (s, t) = pairs[idx];
            i += 1;
            black_box(space.bounded_bibfs(&g, s, t, bounds[idx], |v| highway.is_landmark(v)))
        })
    });

    // The serving kernel: the same bounded search on the materialised
    // `G[V∖R]` (no skip closure, one visit word, probe-only last level).
    let sparse = g.without_vertices(&landmarks);
    let mut i = 0usize;
    group.bench_function("sparse-kernel-on-materialised", |b| {
        b.iter(|| {
            let idx = i % pairs.len();
            let (s, t) = pairs[idx];
            i += 1;
            black_box(space.bounded_bibfs_sparse(&sparse, s, t, bounds[idx]))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_bounded_search);
criterion_main!(benches);
