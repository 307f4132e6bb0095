//! Serving counters, all lock-free atomics so every connection handler and
//! batch worker can bump them without coordination.
//!
//! Every key a serving process reports is declared exactly once, through
//! [`counters!`](crate::counters): its wire name (the field name), its doc
//! line and the [`StatClass`] a router merges it by. `STATS` and `METRICS`
//! both render one ordered `(key, value)` list built from those
//! declarations, so each key appears in both verbs; the router's own
//! `RouterMetrics` goes through the same macro.

/// How one `STATS` key combines across shards.
///
/// Summing everything numeric is wrong for two whole classes of keys:
/// configuration echoes (`max_connections=1024` across 4 shards is still
/// 1024, not 4096) and high-water readings (`load_us` of the fleet is its
/// slowest loader, not the sum of all loads). Each key declares its class
/// beside its name; see [`stat_class`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatClass {
    /// Additive counters and sizes: total across the fleet.
    Sum,
    /// Generation floors: the value every shard has reached (`epoch`).
    Min,
    /// High-water readings: the fleet's worst case (`load_us`).
    Max,
    /// Per-process configuration echoes: identical everywhere by
    /// deployment construction, so report the first (also the fallback
    /// for non-numeric values).
    First,
}

/// Declares a list of reported keys, one `name: Class` line each under its
/// doc comment, in the order `STATS` and `METRICS` render them.
///
/// `pub struct Plain { … }` declares a `u64` struct. `pub struct Counters
/// => Snapshot { … }` declares a struct of [`AtomicU64`] counters, bumped
/// with `Counters::bump(&m.field)` (no lookup by name on the request path)
/// and copied out by `snapshot()` into the `u64` struct `Snapshot`. Each
/// `u64` struct carries `KEYS` (wire name and class per field) and
/// `pairs()` (wire name and value per field).
///
/// [`AtomicU64`]: std::sync::atomic::AtomicU64
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $plain:ident { $( $(#[$doc:meta])* $field:ident: $class:ident, )* }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $plain { $( $(#[$doc])* pub $field: u64, )* }

        impl $plain {
            /// Every key's wire name and aggregation class, in report order.
            pub const KEYS: &'static [(&'static str, $crate::metrics::StatClass)] =
                &[$( (stringify!($field), $crate::metrics::StatClass::$class), )*];

            /// Every key's wire name and value, in report order.
            pub fn pairs(&self) -> Vec<(&'static str, u64)> {
                vec![$( (stringify!($field), self.$field), )*]
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $atomic:ident => $snapshot:ident {
            $( $(#[$doc:meta])* $field:ident: $class:ident, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $atomic { $( $(#[$doc])* pub $field: ::std::sync::atomic::AtomicU64, )* }

        impl $atomic {
            /// Adds `n` to a counter.
            pub fn add(counter: &::std::sync::atomic::AtomicU64, n: u64) {
                counter.fetch_add(n, ::std::sync::atomic::Ordering::Relaxed);
            }

            /// Increments a counter by one.
            pub fn bump(counter: &::std::sync::atomic::AtomicU64) {
                Self::add(counter, 1);
            }

            /// Decrements a counter by one (used for gauges such as
            /// `active_connections`).
            pub fn drop_one(counter: &::std::sync::atomic::AtomicU64) {
                counter.fetch_sub(1, ::std::sync::atomic::Ordering::Relaxed);
            }

            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> $snapshot {
                $snapshot {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )*
                }
            }
        }

        $crate::counters! {
            #[doc = concat!("Plain-value copy of [`", stringify!($atomic), "`] at one instant.")]
            pub struct $snapshot { $( $(#[$doc])* $field: $class, )* }
        }
    };
}

counters! {
    /// Monotonic counters describing one serving process. Incremented with
    /// relaxed ordering — the counters are statistics, not synchronisation.
    pub struct ServeMetrics => MetricsSnapshot {
        /// Single `QUERY` requests answered.
        queries: Sum,
        /// `BATCH` requests answered.
        batch_requests: Sum,
        /// Pairs answered inside `BATCH` requests.
        batch_queries: Sum,
        /// Connections accepted over the lifetime of the server.
        connections: Sum,
        /// Connections currently open.
        active_connections: Sum,
        /// Connections refused because `max_connections` was reached.
        rejected_connections: Sum,
        /// Connections closed by the server's idle timeout.
        timed_out_connections: Sum,
        /// Requests rejected with a protocol, range, or reload error.
        errors: Sum,
        /// Requests shed (`ERR busy`) because the worker queue was saturated.
        shed_requests: Sum,
        /// Requests resolved `ERR deadline expired` because they outlived the
        /// per-request deadline on the queue.
        deadline_expired: Sum,
        /// Successful hot index reloads (the current epoch equals this count
        /// while every reload succeeds).
        reloads: Sum,
        /// Incremental `UPDATE` edits applied (each publishes a new epoch, so
        /// the current epoch equals `reloads + updates_applied` while every
        /// swap succeeds).
        updates_applied: Sum,
        /// Cumulative vertices whose landmark distances changed across all
        /// applied updates (the work an `O(affected)` update actually did;
        /// divide by `updates_applied` for the mean edit footprint).
        update_affected_vertices: Sum,
        /// Cumulative nanoseconds applied updates spent publishing — affected
        /// sets, chunk copies, swap: the part of an `UPDATE` its reply waits
        /// for.
        update_publish_ns: Sum,
        /// Cumulative nanoseconds spent revalidating the cache after updates
        /// (cache scan, `PairFilter` searches, retag; a skipped revalidation
        /// spends its scan) — off the reply path when serving.
        update_revalidate_ns: Sum,
        /// Cumulative chunks applied updates copied, graph, sparse view and
        /// labels together: one or two per graph edit, as many again for
        /// the view unless an endpoint is a landmark, and one per label
        /// chunk holding a changed row (none for most edits, every chunk
        /// for one that moves a landmark distance).
        update_chunks_copied: Sum,
        /// Revalidations that found no cache entry under the old epoch and
        /// skipped their two searches.
        revalidations_skipped: Sum,
        /// Revalidations whose edit moved no landmark distance, so their
        /// searches ran on `G[V∖R]` instead of `G`.
        revalidations_landmark_free: Sum,
        /// Cumulative vertices the revalidation searches reached (both
        /// endpoints' searches, out to the radius the cache implies).
        revalidate_vertices_reached: Sum,
        /// Revalidations discarded unrun because the queue behind the
        /// revalidation worker overflowed (their entries age out as stale
        /// misses).
        revalidations_dropped: Sum,
        /// Cache entries revalidations certified and carried to a new epoch.
        retag_kept: Sum,
        /// Cumulative nanoseconds cache misses — single `QUERY`s and `BATCH`
        /// members alike — spent in the label merge (Equation 4 upper bound).
        merge_ns: Sum,
        /// Cumulative nanoseconds cache misses spent in the bounded
        /// bidirectional search.
        search_ns: Sum,
        /// Cache misses whose bounded search actually ran (the rest were
        /// answered by the label merge alone).
        searched_queries: Sum,
        /// Cumulative sparse-graph edges those searches scanned (per-level
        /// frontier degree sums; see `hcl_graph::SearchEffort`).
        search_edges_scanned: Sum,
        /// Cumulative vertices those searches marked, endpoints included.
        search_vertices_settled: Sum,
        /// Reactor loop iterations (one per `epoll_wait` return). With the
        /// three counters below this makes the request path's amortisation a
        /// live number: all four are bumped once per pass / syscall / job,
        /// never per query.
        reactor_passes: Sum,
        /// `write` syscalls on client sockets (`queries / socket_writes` =
        /// replies per write).
        socket_writes: Sum,
        /// Eventfd writes waking the reactor (completions signal only the
        /// empty → non-empty transition of the completion queue).
        wake_signals: Sum,
        /// Jobs handed to the worker pool (`(queries - inline_hits +
        /// batch_requests) / executor_jobs` = requests per hand-off).
        executor_jobs: Sum,
        /// `QUERY` cache hits answered on the reactor thread, with no
        /// executor job and no wake-up (a subset of `queries`).
        inline_hits: Sum,
    }
}

counters! {
    /// The readings a serving process reports after its counters: the
    /// serving generation, its sizes ([`IndexSizes`](crate::IndexSizes)),
    /// the cache ([`CacheStats`](crate::CacheStats)) and the configuration
    /// it runs with, read when the report is rendered.
    pub struct ServeReadings {
        /// Index generation serving requests.
        epoch: Min,
        /// Wall-clock microseconds the last disk reload spent loading.
        load_us: Max,
        /// Queryable index bytes (labels + offsets + highway); every shard
        /// holds the replicated labelling, so the fleet reports its largest.
        index_bytes: Max,
        /// Bytes of the sparsified CSR `G[V∖R]` the searches traverse.
        sparse_bytes: Sum,
        /// Edges surviving sparsification.
        sparse_edges: Sum,
        /// Format flag, always 1: the sparse view is relabelled.
        sparse_relabelled: First,
        /// Bytes of the label rank lane.
        rank_lane_bytes: Sum,
        /// Bytes of the label distance lane.
        dist_lane_bytes: Sum,
        /// Bytes of the packed file backing the generation (0 in memory).
        store_bytes: Sum,
        /// Bytes the index would occupy in the plain `HCLIDX01` format.
        plain_index_bytes: Max,
        /// Lookups answered from the cache.
        cache_hits: Sum,
        /// Lookups that missed the cache.
        cache_misses: Sum,
        /// Misses on an entry tagged with an older epoch.
        cache_stale: Sum,
        /// Cache entries displaced to make room.
        cache_evictions: Sum,
        /// Cache entries resident.
        cache_entries: Sum,
        /// Cache capacity in entries.
        cache_capacity: Sum,
        /// Configured connection limit.
        max_connections: First,
        /// Configured idle timeout in milliseconds.
        idle_timeout_ms: First,
        /// Configured shutdown drain grace in milliseconds.
        drain_grace_ms: First,
    }
}

/// The aggregation class of one server `STATS` key, looked up in the
/// declarations above. A key no declaration names is summed.
pub fn stat_class(key: &str) -> StatClass {
    MetricsSnapshot::KEYS
        .iter()
        .chain(ServeReadings::KEYS)
        .find(|&&(name, _)| name == key)
        .map_or(StatClass::Sum, |&(_, class)| class)
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
        assert_eq!(
            snap.pairs()[..3],
            [("queries", 1), ("batch_requests", 0), ("batch_queries", 41)]
        );
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
