//! Parallel labelling construction — "HL-P" (§5.1).
//!
//! Because the labelling is *deterministic for a given landmark set*
//! (Lemma 3.11), the pruned BFSs of different landmarks are completely
//! independent. The landmarks are split into contiguous rank groups of at
//! most 32; each worker thread claims groups from a shared counter and runs
//! a group's BFSs together in one word-parallel pass (`GroupBfs`). The
//! main thread records the highway cells and places the label entries in
//! rank order, so the build is byte-identical for every thread count —
//! tested below, and the property the paper highlights in Figure 1(c)
//! ("Parallel? — landmarks"). [`HighwayCoverLabelling::build`] is this
//! builder with one thread.

use crate::build::{
    assemble_labels, rank_groups, validate_landmarks, BuildStats, GroupBfs, GroupLabels,
    HighwayCoverLabelling,
};
use crate::highway::Highway;
use crate::BuildError;
use hcl_graph::{CsrGraph, VertexId};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

impl HighwayCoverLabelling {
    /// Builds the labelling with `num_threads` worker threads ("HL-P").
    /// `num_threads = 0` uses all available cores. The result is identical
    /// to [`HighwayCoverLabelling::build`].
    pub fn build_parallel(
        g: &CsrGraph,
        landmarks: &[VertexId],
        num_threads: usize,
    ) -> Result<(Self, BuildStats), BuildError> {
        let start = Instant::now();
        validate_landmarks(g, landmarks)?;
        let threads = if num_threads == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        } else {
            num_threads
        };
        let groups = rank_groups(landmarks.len(), threads);
        let mut highway = Highway::new(g.num_vertices(), landmarks);

        // The calling thread is worker 0, and it allocates every worker's
        // state: what a spawned thread allocates stays in its own malloc
        // arena, which glibc keeps resident after the build. (RSS after
        // three 2-thread builds of a 1M-vertex BA graph, graph and one
        // labelling held: 130–139 MB this way, 170–201 MB with each thread
        // allocating its own.) Each worker returns `(group index, output)`
        // for the groups it claimed; a failed group does not stop the
        // others.
        let mut workers: Vec<GroupBfs> =
            (0..threads.min(groups.len())).map(|_| GroupBfs::new(g.num_vertices())).collect();
        let next = AtomicUsize::new(0);
        let work = |bfs: &mut GroupBfs| run_groups(bfs, g, &highway, &groups, &next);
        let mut claimed = match workers.split_first_mut() {
            None => Vec::new(),
            Some((own, others)) => std::thread::scope(|scope| {
                let work = &work;
                let handles: Vec<_> =
                    others.iter_mut().map(|bfs| scope.spawn(move || work(bfs))).collect();
                let mut claimed = work(own);
                for handle in handles {
                    claimed.extend(handle.join().expect("build worker panicked"));
                }
                claimed
            }),
        };
        // Freed before the label store is allocated, which reuses the space.
        drop(workers);
        // Every group was claimed once: in rank order, the lowest failing
        // group's error wins.
        claimed.sort_unstable_by_key(|&(idx, _)| idx);
        let outputs: Vec<GroupLabels> =
            claimed.into_iter().map(|(_, output)| output).collect::<Result<_, _>>()?;

        let mut stats = BuildStats::default();
        for out in &outputs {
            stats.edges_traversed += out.edges_traversed;
            stats.rows_scanned += out.rows_scanned;
            stats.labels_added += out.labels_added;
            for &(a, b, d) in &out.highway_cells {
                highway.record(a, b, d);
            }
        }
        highway.close();
        let labels = assemble_labels(g.num_vertices(), &outputs);
        stats.duration = start.elapsed();
        Ok((HighwayCoverLabelling::from_parts(highway, labels), stats))
    }
}

/// One worker: claims groups from `next` until none are left, running each
/// on `bfs`.
fn run_groups(
    bfs: &mut GroupBfs,
    g: &CsrGraph,
    highway: &Highway,
    groups: &[Range<usize>],
    next: &AtomicUsize,
) -> Vec<(usize, Result<GroupLabels, BuildError>)> {
    let mut done = Vec::new();
    loop {
        let idx = next.fetch_add(1, Ordering::Relaxed);
        let Some(group) = groups.get(idx) else { return done };
        done.push((idx, bfs.run(g, highway, group.clone())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_graph::generate;

    #[test]
    fn parallel_build_identical_to_sequential() {
        for seed in 0..3u64 {
            let g = generate::barabasi_albert(400, 4, seed);
            let landmarks = hcl_graph::order::top_degree(&g, 12);
            let (seq, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
            for threads in [2usize, 3, 8] {
                let (par, _) =
                    HighwayCoverLabelling::build_parallel(&g, &landmarks, threads).unwrap();
                assert_eq!(seq, par, "seed {seed} threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_with_zero_threads_uses_default() {
        let g = generate::barabasi_albert(100, 3, 1);
        let landmarks = hcl_graph::order::top_degree(&g, 4);
        let (seq, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let (par, _) = HighwayCoverLabelling::build_parallel(&g, &landmarks, 0).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_empty_landmarks() {
        let g = generate::cycle(6);
        let (par, _) = HighwayCoverLabelling::build_parallel(&g, &[], 4).unwrap();
        assert_eq!(par.num_landmarks(), 0);
    }

    #[test]
    fn parallel_more_threads_than_landmarks() {
        let g = generate::barabasi_albert(120, 3, 7);
        let landmarks = hcl_graph::order::top_degree(&g, 2);
        let (seq, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let (par, _) = HighwayCoverLabelling::build_parallel(&g, &landmarks, 16).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_propagates_errors() {
        let g = generate::path(300);
        let err = HighwayCoverLabelling::build_parallel(&g, &[0, 299], 2);
        assert!(matches!(err, Err(BuildError::DistanceOverflow { .. })));
    }

    #[test]
    fn parallel_on_paper_example() {
        let g = crate::fixture::paper_graph();
        let landmarks = crate::fixture::paper_landmarks();
        let (par, _) = HighwayCoverLabelling::build_parallel(&g, &landmarks, 3).unwrap();
        assert_eq!(par.labels().total_entries(), 13);
    }
}
