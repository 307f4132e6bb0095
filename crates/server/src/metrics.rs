//! Serving counters, all lock-free atomics so every connection handler and
//! batch worker can bump them without coordination.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters describing one serving process. Incremented with
/// relaxed ordering — the counters are statistics, not synchronisation.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Single `QUERY` requests answered.
    pub queries: AtomicU64,
    /// `BATCH` requests answered.
    pub batch_requests: AtomicU64,
    /// Pairs answered inside `BATCH` requests.
    pub batch_queries: AtomicU64,
    /// Connections accepted over the lifetime of the server.
    pub connections: AtomicU64,
    /// Connections currently open.
    pub active_connections: AtomicU64,
    /// Connections refused because `max_connections` was reached.
    pub rejected_connections: AtomicU64,
    /// Connections closed by the server's idle timeout.
    pub timed_out_connections: AtomicU64,
    /// Requests rejected with a protocol, range, or reload error.
    pub errors: AtomicU64,
    /// Requests shed (`ERR busy`) because the worker queue was saturated.
    pub shed_requests: AtomicU64,
    /// Requests resolved `ERR deadline expired` because they outlived the
    /// per-request deadline on the queue.
    pub deadline_expired: AtomicU64,
    /// Successful hot index reloads (the current epoch equals this count
    /// while every reload succeeds).
    pub reloads: AtomicU64,
    /// Incremental `UPDATE` edits applied (each publishes a new epoch, so
    /// the current epoch equals `reloads + updates_applied` while every
    /// swap succeeds).
    pub updates_applied: AtomicU64,
    /// Cumulative vertices whose landmark distances changed across all
    /// applied updates (the work an `O(affected)` update actually did;
    /// divide by `updates_applied` for the mean edit footprint).
    pub update_affected_vertices: AtomicU64,
    /// Cumulative nanoseconds applied updates spent publishing — patch,
    /// overlay, swap: the part of an `UPDATE` its reply waits for.
    pub update_publish_ns: AtomicU64,
    /// Cumulative nanoseconds spent revalidating the cache after updates
    /// (`PairFilter` + retag) — off the reply path when serving.
    pub update_revalidate_ns: AtomicU64,
    /// Gauge: rows the serving generation holds in overlays (graph +
    /// sparse view + labels) instead of its flat base arrays.
    pub overlay_rows: AtomicU64,
    /// Updates whose generation came back with an overlay folded into
    /// fresh flat arrays (the `O(n + m)` edits).
    pub overlay_folds: AtomicU64,
    /// Revalidations that found no cache entry under the old epoch and
    /// skipped their two BFS passes.
    pub revalidations_skipped: AtomicU64,
    /// Revalidations discarded unrun because the queue behind the
    /// revalidation worker overflowed (their entries age out as stale
    /// misses).
    pub revalidations_dropped: AtomicU64,
    /// Cache entries revalidations certified and carried to a new epoch.
    pub retag_kept: AtomicU64,
    /// Cumulative nanoseconds single `QUERY` cache misses spent in the
    /// label merge (Equation 4 upper bound).
    pub merge_ns: AtomicU64,
    /// Cumulative nanoseconds single `QUERY` cache misses spent in the
    /// bounded bidirectional search.
    pub search_ns: AtomicU64,
    /// Single `QUERY` cache misses whose bounded search actually ran (the
    /// rest were answered by the label merge alone).
    pub searched_queries: AtomicU64,
    /// Cumulative sparse-graph edges those searches scanned (per-level
    /// frontier degree sums; see `hcl_graph::SearchEffort`).
    pub search_edges_scanned: AtomicU64,
    /// Cumulative vertices those searches marked, endpoints included.
    pub search_vertices_settled: AtomicU64,
    /// Reactor loop iterations (one per `epoll_wait` return). With the
    /// three counters below this makes the request path's amortisation a
    /// live number: all four are bumped once per pass / syscall / job,
    /// never per query.
    pub reactor_passes: AtomicU64,
    /// `write` syscalls on client sockets (`queries / socket_writes` =
    /// replies per write).
    pub socket_writes: AtomicU64,
    /// Eventfd writes waking the reactor (completions signal only the
    /// empty → non-empty transition of the completion queue).
    pub wake_signals: AtomicU64,
    /// Jobs handed to the worker pool (`(queries - inline_hits +
    /// batch_requests) / executor_jobs` = requests per hand-off).
    pub executor_jobs: AtomicU64,
    /// `QUERY` cache hits answered on the reactor thread, with no
    /// executor job and no wake-up (a subset of `queries`).
    pub inline_hits: AtomicU64,
}

impl ServeMetrics {
    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements a counter by one (used for gauges such as
    /// [`active_connections`](Self::active_connections)).
    pub fn drop_one(counter: &AtomicU64) {
        counter.fetch_sub(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            batch_requests: self.batch_requests.load(Ordering::Relaxed),
            batch_queries: self.batch_queries.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            active_connections: self.active_connections.load(Ordering::Relaxed),
            rejected_connections: self.rejected_connections.load(Ordering::Relaxed),
            timed_out_connections: self.timed_out_connections.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed_requests: self.shed_requests.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            update_affected_vertices: self.update_affected_vertices.load(Ordering::Relaxed),
            update_publish_ns: self.update_publish_ns.load(Ordering::Relaxed),
            update_revalidate_ns: self.update_revalidate_ns.load(Ordering::Relaxed),
            overlay_rows: self.overlay_rows.load(Ordering::Relaxed),
            overlay_folds: self.overlay_folds.load(Ordering::Relaxed),
            revalidations_skipped: self.revalidations_skipped.load(Ordering::Relaxed),
            revalidations_dropped: self.revalidations_dropped.load(Ordering::Relaxed),
            retag_kept: self.retag_kept.load(Ordering::Relaxed),
            merge_ns: self.merge_ns.load(Ordering::Relaxed),
            search_ns: self.search_ns.load(Ordering::Relaxed),
            searched_queries: self.searched_queries.load(Ordering::Relaxed),
            search_edges_scanned: self.search_edges_scanned.load(Ordering::Relaxed),
            search_vertices_settled: self.search_vertices_settled.load(Ordering::Relaxed),
            reactor_passes: self.reactor_passes.load(Ordering::Relaxed),
            socket_writes: self.socket_writes.load(Ordering::Relaxed),
            wake_signals: self.wake_signals.load(Ordering::Relaxed),
            executor_jobs: self.executor_jobs.load(Ordering::Relaxed),
            inline_hits: self.inline_hits.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`ServeMetrics`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Single `QUERY` requests answered.
    pub queries: u64,
    /// `BATCH` requests answered.
    pub batch_requests: u64,
    /// Pairs answered inside `BATCH` requests.
    pub batch_queries: u64,
    /// Connections accepted over the lifetime of the server.
    pub connections: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// Connections refused because `max_connections` was reached.
    pub rejected_connections: u64,
    /// Connections closed by the server's idle timeout.
    pub timed_out_connections: u64,
    /// Requests rejected with a protocol, range, or reload error.
    pub errors: u64,
    /// Requests shed (`ERR busy`) at queue saturation.
    pub shed_requests: u64,
    /// Requests resolved `ERR deadline expired`.
    pub deadline_expired: u64,
    /// Successful hot index reloads.
    pub reloads: u64,
    /// Incremental `UPDATE` edits applied.
    pub updates_applied: u64,
    /// Cumulative affected vertices across all applied updates.
    pub update_affected_vertices: u64,
    /// Cumulative nanoseconds updates spent publishing.
    pub update_publish_ns: u64,
    /// Cumulative nanoseconds spent revalidating the cache after updates.
    pub update_revalidate_ns: u64,
    /// Rows the serving generation holds in overlays.
    pub overlay_rows: u64,
    /// Updates that folded an overlay into fresh flat arrays.
    pub overlay_folds: u64,
    /// Revalidations skipped for want of cache entries to certify.
    pub revalidations_skipped: u64,
    /// Revalidations discarded when their queue overflowed.
    pub revalidations_dropped: u64,
    /// Cache entries carried to a new epoch by revalidation.
    pub retag_kept: u64,
    /// Cumulative label-merge nanoseconds across single-`QUERY` misses.
    pub merge_ns: u64,
    /// Cumulative bounded-search nanoseconds across single-`QUERY` misses.
    pub search_ns: u64,
    /// Single-`QUERY` misses whose bounded search ran.
    pub searched_queries: u64,
    /// Cumulative sparse-graph edges scanned by those searches.
    pub search_edges_scanned: u64,
    /// Cumulative vertices marked by those searches.
    pub search_vertices_settled: u64,
    /// Reactor loop iterations.
    pub reactor_passes: u64,
    /// `write` syscalls on client sockets.
    pub socket_writes: u64,
    /// Eventfd writes waking the reactor.
    pub wake_signals: u64,
    /// Jobs handed to the worker pool.
    pub executor_jobs: u64,
    /// `QUERY` cache hits answered on the reactor thread.
    pub inline_hits: u64,
}

impl MetricsSnapshot {
    /// Total distances served, single and batched.
    pub fn total_distances(&self) -> u64 {
        self.queries + self.batch_queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ServeMetrics::default();
        ServeMetrics::bump(&m.queries);
        ServeMetrics::add(&m.batch_queries, 41);
        ServeMetrics::bump(&m.active_connections);
        ServeMetrics::bump(&m.active_connections);
        ServeMetrics::drop_one(&m.active_connections);
        let snap = m.snapshot();
        assert_eq!(snap.queries, 1);
        assert_eq!(snap.batch_queries, 41);
        assert_eq!(snap.active_connections, 1);
        assert_eq!(snap.total_distances(), 42);
    }

    #[test]
    fn concurrent_bumps_are_not_lost() {
        let m = ServeMetrics::default();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        ServeMetrics::bump(&m.queries);
                    }
                });
            }
        });
        assert_eq!(m.snapshot().queries, 80_000);
    }
}
