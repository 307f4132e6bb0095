//! The shared serving state: an epoch-tagged, hot-swappable
//! [`SharedOracle`] (immutable index, graph, and pooled query contexts per
//! generation) fronted by an optional [`ShardedCache`] and a
//! [`ServeMetrics`] block.
//!
//! Everything here is `&self`: one `Arc<QueryService>` is handed to every
//! connection handler and batch worker in the process. Range validation
//! happens here so both the TCP layer and in-process callers get the same
//! errors.
//!
//! # Hot reload
//!
//! The index lives behind an [`EpochCell`]. Each query pins one generation
//! ([`QueryService::snapshot`]) and uses it for validation, the cache tag,
//! and the computation, so a concurrent [`reload`](QueryService::reload)
//! never tears a query: in-flight queries finish on the epoch they started
//! on while new queries observe the new one. The cache is cleared exactly
//! once per swap, and its entries are epoch-tagged so even a racing
//! old-epoch re-insert after the clear can never satisfy a new-epoch
//! lookup.

use crate::cache::{CacheConfig, CacheStats, ShardedCache};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::serving::ServingIndex;
use hcl_core::landmarks::LandmarkStrategy;
use hcl_core::update::{apply_edit, EdgeEdit, PairFilter, UpdateError};
use hcl_core::{EpochCell, HighwayCoverLabelling, OracleEpoch, QueryContext, SharedOracle};
use hcl_graph::{CsrGraph, VertexId};
use hcl_store::PackedOracle;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A query the service cannot answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// A vertex id at or beyond the graph's vertex count.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// The graph's vertex count.
        n: usize,
    },
    /// The worker queue is saturated and the request was shed. On the
    /// wire this is exactly `ERR busy` — clients should back off and
    /// retry.
    Overloaded,
    /// The request sat on the queue past its deadline; the answer would
    /// have arrived too late to be useful, so no work was done.
    DeadlineExpired,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for graph with {n} vertices")
            }
            QueryError::Overloaded => write!(f, "busy"),
            QueryError::DeadlineExpired => write!(f, "deadline expired"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A reload request the service cannot honour. The previous index keeps
/// serving untouched whenever a reload fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReloadError {
    /// Reading the graph or index file failed (I/O or format).
    Load(String),
    /// The index was built over a graph of a different size.
    Mismatch {
        /// Vertices in the freshly loaded graph.
        graph_vertices: usize,
        /// Vertices the index file claims.
        index_vertices: usize,
    },
    /// Building a labelling in-process from the graph failed.
    Build(String),
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::Load(msg) => write!(f, "reload failed: {msg}"),
            ReloadError::Mismatch { graph_vertices, index_vertices } => write!(
                f,
                "reload failed: index has {index_vertices} vertices but graph has \
                 {graph_vertices} — wrong index for this graph?"
            ),
            ReloadError::Build(msg) => write!(f, "reload failed building labelling: {msg}"),
        }
    }
}

impl std::error::Error for ReloadError {}

/// An `UPDATE` the service cannot apply. The serving index is untouched
/// whenever an update fails — failure happens strictly before the swap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateApplyError {
    /// The current generation serves from a packed (memory-mapped) file,
    /// which is immutable by construction; `RELOAD` an in-memory index
    /// first.
    Packed,
    /// The edit itself was rejected (out of range, self-loop, duplicate
    /// insert, missing delete, or a label-distance overflow).
    Apply(UpdateError),
}

impl std::fmt::Display for UpdateApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateApplyError::Packed => {
                write!(f, "update rejected: serving a packed index; reload in-memory first")
            }
            UpdateApplyError::Apply(e) => write!(f, "update rejected: {e}"),
        }
    }
}

impl std::error::Error for UpdateApplyError {}

/// Byte sizes of one index generation, as reported by `STATS`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexSizes {
    /// Queryable index: label entries + offsets + highway matrix. For a
    /// packed generation this is the compressed on-file footprint of those
    /// sections.
    pub index_bytes: usize,
    /// The precomputed sparsified CSR `G[V∖R]` the searches traverse.
    pub sparse_bytes: usize,
    /// Edges surviving sparsification.
    pub sparse_edges: usize,
    /// Total bytes of the packed `.hclx` file backing the generation
    /// (0 when serving from memory).
    pub store_bytes: usize,
    /// Bytes the same index occupies in the plain `HCLIDX01` serialisation
    /// — the baseline for the packed compression ratio.
    pub plain_index_bytes: usize,
    /// Bytes of the contiguous label rank lane (one byte per entry), in
    /// memory or in the mapped file.
    pub rank_lane_bytes: usize,
    /// Bytes of the contiguous label distance lane (one byte per entry).
    pub dist_lane_bytes: usize,
}

/// Shared per-process serving state; see the module docs.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use hcl_core::HighwayCoverLabelling;
/// use hcl_server::QueryService;
///
/// let g = Arc::new(hcl_graph::generate::barabasi_albert(300, 4, 7));
/// let landmarks = hcl_graph::order::top_degree(&g, 8);
/// let (labelling, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
/// let service = QueryService::from_parts(g, Arc::new(labelling), 1 << 10);
///
/// let d = service.distance(0, 299).unwrap();
/// assert_eq!(service.distance(0, 299).unwrap(), d); // repeat: a cache hit
/// assert!(service.cache_stats().hits >= 1);
/// assert_eq!(service.epoch(), 0, "no reload has happened");
/// assert!(service.distance(0, 300).is_err(), "out of range");
/// ```
#[derive(Debug)]
pub struct QueryService {
    index: EpochCell<ServingIndex>,
    cache: Option<ShardedCache>,
    metrics: ServeMetrics,
    /// Wall-clock microseconds the last successful
    /// [`reload_from_paths`](Self::reload_from_paths) spent loading (0
    /// until one happens) — `STATS load_us`, the number the mmap reload
    /// path exists to shrink.
    load_micros: AtomicU64,
    /// Per-request deadline in nanoseconds (0 = none): work still queued
    /// this long after submission resolves `ERR deadline expired` instead
    /// of computing an answer nobody is waiting for.
    deadline_nanos: AtomicU64,
}

/// The cache half of a published update, still to run: which epoch pair
/// to certify entries across, and the two graphs (handles — an edited graph
/// shares its parent's arrays) the [`PairFilter`] is built from. See
/// [`QueryService::revalidate`].
#[derive(Debug)]
pub struct PendingRevalidation {
    old_epoch: u64,
    new_epoch: u64,
    old_graph: CsrGraph,
    new_graph: CsrGraph,
    edit: EdgeEdit,
}

/// Rows a generation holds in overlays rather than in flat base arrays:
/// graph, sparse view, labels.
fn overlay_rows(oracle: &SharedOracle) -> [usize; 3] {
    [
        oracle.graph().overlay_rows(),
        oracle.sparse_view().graph().overlay_rows(),
        oracle.labelling().labels().overlay_rows(),
    ]
}

impl QueryService {
    /// Builds a service over an in-memory oracle, with a cache when
    /// `cache_capacity > 0`.
    pub fn new(oracle: SharedOracle, cache_capacity: usize) -> Self {
        QueryService::with_index(ServingIndex::Memory(oracle), cache_capacity)
    }

    /// Builds a service over any index backend (in-memory or packed), with
    /// a cache when `cache_capacity > 0`.
    pub fn with_index(index: ServingIndex, cache_capacity: usize) -> Self {
        let cache = (cache_capacity > 0).then(|| {
            ShardedCache::new(CacheConfig { capacity: cache_capacity, ..Default::default() })
        });
        QueryService {
            index: EpochCell::new(index),
            cache,
            metrics: ServeMetrics::default(),
            load_micros: AtomicU64::new(0),
            deadline_nanos: AtomicU64::new(0),
        }
    }

    /// Sets the per-request deadline (`None` disables it; `Some(ZERO)`
    /// expires everything immediately — it is stored as 1 ns, not as the
    /// disabled sentinel). Applies to requests submitted from then on;
    /// `&self` so it can be configured after the service is shared.
    pub fn set_request_deadline(&self, deadline: Option<std::time::Duration>) {
        let nanos = deadline.map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX).max(1));
        self.deadline_nanos.store(nanos, Ordering::Relaxed);
    }

    /// The configured per-request deadline, if any.
    pub fn request_deadline(&self) -> Option<std::time::Duration> {
        match self.deadline_nanos.load(Ordering::Relaxed) {
            0 => None,
            nanos => Some(std::time::Duration::from_nanos(nanos)),
        }
    }

    /// Convenience constructor from the index halves.
    pub fn from_parts(
        graph: Arc<CsrGraph>,
        labelling: Arc<HighwayCoverLabelling>,
        cache_capacity: usize,
    ) -> Self {
        QueryService::new(SharedOracle::new(graph, labelling), cache_capacity)
    }

    /// Pins the current index generation. Hold the returned `Arc` for the
    /// whole of one logical operation (a query, a batch) so a concurrent
    /// reload cannot tear it.
    pub fn snapshot(&self) -> Arc<OracleEpoch<ServingIndex>> {
        self.index.load()
    }

    /// The current index epoch (0 until the first reload).
    pub fn epoch(&self) -> u64 {
        self.index.epoch()
    }

    /// The distance cache, when serving with one.
    pub fn cache(&self) -> Option<&ShardedCache> {
        self.cache.as_ref()
    }

    /// The serving counters.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Number of vertices queries may currently address.
    pub fn num_vertices(&self) -> usize {
        self.snapshot().index().num_vertices()
    }

    /// Validates that both endpoints are in range for the current index.
    /// Batch submission validates against one pinned snapshot instead —
    /// see [`check_pair_in`](Self::check_pair_in).
    pub fn check_pair(&self, s: VertexId, t: VertexId) -> Result<(), QueryError> {
        Self::check_pair_in(&self.snapshot(), s, t)
    }

    /// Validates both endpoints against one pinned index generation.
    pub fn check_pair_in(
        index: &OracleEpoch<ServingIndex>,
        s: VertexId,
        t: VertexId,
    ) -> Result<(), QueryError> {
        let n = index.index().num_vertices();
        for v in [s, t] {
            if v as usize >= n {
                return Err(QueryError::VertexOutOfRange { vertex: v, n });
            }
        }
        Ok(())
    }

    /// Answers one query through the cache, using a pooled context only on
    /// a miss — a hit never touches the context pool. Counts towards the
    /// `queries` metric. The whole query runs against one pinned index
    /// generation.
    pub fn distance(&self, s: VertexId, t: VertexId) -> Result<Option<u32>, QueryError> {
        let snap = self.snapshot();
        Self::check_pair_in(&snap, s, t)?;
        ServeMetrics::bump(&self.metrics.queries);
        if let Some(hit) = self.cached(&snap, s, t) {
            return Ok(hit);
        }
        let mut ctx = snap.index().context_pool().checkout();
        Ok(self.computed_distance_with(&snap, &mut ctx, s, t))
    }

    /// One cache lookup of `(s, t)` under `snap`'s epoch tag: `None` on a
    /// miss (a stale entry included) or when serving without a cache.
    pub(crate) fn cached(
        &self,
        snap: &OracleEpoch<ServingIndex>,
        s: VertexId,
        t: VertexId,
    ) -> Option<Option<u32>> {
        self.cache.as_ref()?.get(s, t, snap.epoch())
    }

    /// Cache-through distance for callers that hold their own context and
    /// pinned snapshot (batch workers). Endpoints must already be validated
    /// against `snap`; does **not** bump request metrics — the batch layer
    /// counts whole requests.
    pub(crate) fn cached_distance_with(
        &self,
        snap: &OracleEpoch<ServingIndex>,
        ctx: &mut QueryContext,
        s: VertexId,
        t: VertexId,
    ) -> Option<u32> {
        match self.cached(snap, s, t) {
            Some(hit) => hit,
            None => self.computed_distance_with(snap, ctx, s, t),
        }
    }

    /// Computes a distance whose cache lookup has already missed, and
    /// caches it under `snap`'s epoch — no second lookup. Same contract
    /// as [`cached_distance_with`](Self::cached_distance_with) otherwise.
    pub(crate) fn computed_distance_with(
        &self,
        snap: &OracleEpoch<ServingIndex>,
        ctx: &mut QueryContext,
        s: VertexId,
        t: VertexId,
    ) -> Option<u32> {
        debug_assert!(Self::check_pair_in(snap, s, t).is_ok());
        let d = self.timed_distance(snap, ctx, s, t);
        if let Some(cache) = &self.cache {
            cache.insert(s, t, snap.epoch(), d);
        }
        d
    }

    /// Uncached distance with the merge/search phase split folded into the
    /// cumulative [`ServeMetrics`] counters. Every wire query that misses
    /// the cache — single `QUERY` and `BATCH` members alike — funnels
    /// through here, so `METRICS` reports the real phase mix of served
    /// traffic.
    fn timed_distance(
        &self,
        snap: &OracleEpoch<ServingIndex>,
        ctx: &mut QueryContext,
        s: VertexId,
        t: VertexId,
    ) -> Option<u32> {
        let (d, phases) = snap.index().distance_with_timed(ctx, s, t);
        ServeMetrics::add(&self.metrics.merge_ns, phases.merge_ns);
        ServeMetrics::add(&self.metrics.search_ns, phases.search_ns);
        if phases.searched {
            ServeMetrics::bump(&self.metrics.searched_queries);
            ServeMetrics::add(&self.metrics.search_edges_scanned, phases.edges_scanned);
            ServeMetrics::add(&self.metrics.search_vertices_settled, phases.vertices_settled);
        }
        d
    }

    /// Swaps in a freshly built in-memory oracle as the next index
    /// generation; see [`reload_index`](Self::reload_index).
    pub fn reload(&self, oracle: SharedOracle) -> u64 {
        self.reload_index(ServingIndex::Memory(oracle))
    }

    /// Swaps in any index backend as the next generation and clears the
    /// cache (exactly once per swap). In-flight queries finish on the old
    /// generation; returns the new epoch.
    pub fn reload_index(&self, index: ServingIndex) -> u64 {
        let swapped = self.index.swap(index);
        // Clearing after the swap bounds the stale window: entries inserted
        // for the *new* epoch between these two lines are dropped (only a
        // tiny warm-up loss), while old-epoch stragglers that sneak in
        // after the clear are fenced off by their epoch tag.
        if let Some(cache) = &self.cache {
            cache.clear();
        }
        ServeMetrics::bump(&self.metrics.reloads);
        swapped.epoch()
    }

    /// Applies one incremental edge edit to the current in-memory
    /// generation: [`publish_update`](Self::publish_update), then
    /// [`revalidate`](Self::revalidate) before returning — the synchronous
    /// form for library callers, after which certified cache entries hit
    /// under the new epoch at once. Returns `(new_epoch,
    /// affected_vertices)`.
    ///
    /// Concurrent updates/reloads are serialised by the caller (the reactor
    /// runs updates under the same busy gate as `RELOAD`); racing this
    /// method unserialised is safe for queries but may strand retagged
    /// cache entries, costing warm-up only.
    pub fn apply_update(&self, edit: EdgeEdit) -> Result<(u64, u64), UpdateApplyError> {
        let (epoch, affected, pending) = self.publish_update(edit)?;
        self.revalidate(pending);
        Ok((epoch, affected))
    }

    /// The reply-path half of an update: patches the current in-memory
    /// generation and publishes the result as a new epoch, in
    /// `O(affected rows + deg(u) + deg(v))` — the new generation is the
    /// old one plus an overlay, sharing its arrays, its rank table and its
    /// context pool (only the edit that overflows an overlay folds, see
    /// `hcl_core::update`). Queries pin either the old generation or the
    /// new one, never a half-patched index.
    ///
    /// Returns `(new_epoch, affected_vertices, pending)`. Nothing in the
    /// cache carries the new epoch's tag yet, so every cached answer is
    /// fenced off until [`revalidate`](Self::revalidate) has run on
    /// `pending`; skipping or delaying that costs warm-up, never
    /// correctness.
    pub fn publish_update(
        &self,
        edit: EdgeEdit,
    ) -> Result<(u64, u64, PendingRevalidation), UpdateApplyError> {
        let started = Instant::now();
        let snap = self.snapshot();
        let oracle = snap.index().as_memory().ok_or(UpdateApplyError::Packed)?;
        let result = apply_edit(oracle.graph(), oracle.labelling(), oracle.sparse_view(), edit)
            .map_err(UpdateApplyError::Apply)?;
        let affected = result.affected_vertices as u64;
        let old_graph = oracle.graph().clone();
        let new_graph = result.graph.clone();
        let next = oracle.next_generation(
            Arc::new(result.graph),
            Arc::new(result.labelling),
            Arc::new(result.sparse),
        );
        let (rows_before, rows) = (overlay_rows(oracle), overlay_rows(&next));
        let new_epoch = self.index.swap(ServingIndex::Memory(next)).epoch();
        ServeMetrics::bump(&self.metrics.updates_applied);
        ServeMetrics::add(&self.metrics.update_affected_vertices, affected);
        // An overlay only grows between folds, so fewer rows means it folded.
        if rows.iter().zip(&rows_before).any(|(now, before)| now < before) {
            ServeMetrics::bump(&self.metrics.overlay_folds);
        }
        self.metrics.overlay_rows.store(rows.iter().sum::<usize>() as u64, Ordering::Relaxed);
        ServeMetrics::add(&self.metrics.update_publish_ns, started.elapsed().as_nanos() as u64);
        let pending =
            PendingRevalidation { old_epoch: snap.epoch(), new_epoch, old_graph, new_graph, edit };
        Ok((new_epoch, affected, pending))
    }

    /// The cache half of an update: cached answers are *retagged*, not
    /// dropped — a [`PairFilter`] (two BFS rows from the edit endpoints)
    /// certifies exactly which pairs provably kept their distance across
    /// the edit, and those move from the old epoch's tag to the new one's;
    /// the rest age out as stale misses. With nothing cached under the old
    /// epoch there is nothing to certify and the BFS passes are skipped.
    ///
    /// May run at any time after the publish, on any thread, in any order
    /// relative to queries, reloads and other updates: it only ever tags
    /// an entry that was exact for the old generation with the epoch of
    /// precisely that generation plus `edit`. Run in publish order,
    /// revalidations compose — an entry certified by each of several
    /// consecutive edits follows them all to the newest epoch.
    pub fn revalidate(&self, pending: PendingRevalidation) {
        let PendingRevalidation { old_epoch, new_epoch, old_graph, new_graph, edit } = pending;
        let Some(cache) = self.cache.as_ref().filter(|cache| cache.holds_epoch(old_epoch)) else {
            ServeMetrics::bump(&self.metrics.revalidations_skipped);
            return;
        };
        let started = Instant::now();
        let filter = PairFilter::for_edit(&old_graph, &new_graph, edit);
        let kept = cache.retag(old_epoch, new_epoch, |s, t, d| filter.keeps(s, t, d));
        ServeMetrics::add(&self.metrics.retag_kept, kept as u64);
        ServeMetrics::add(&self.metrics.update_revalidate_ns, started.elapsed().as_nanos() as u64);
    }

    /// Loads the next index generation from disk and swaps it in via
    /// [`reload_index`](Self::reload_index). On any error the current
    /// index keeps serving.
    ///
    /// Two layouts are accepted, distinguished by extension:
    ///
    /// * `graph_path` ending in `.hclx` — a packed `hcl-store` index. The
    ///   file is memory-mapped and validated, **not** deserialised; it is
    ///   self-contained, so passing `index_path` alongside it is an error.
    /// * anything else — a graph file, optionally with a plain `index_path`
    ///   labelling. Without one the labelling is built in-process over the
    ///   graph's top-`landmarks` degree vertices.
    ///
    /// The wall-clock load time is recorded for `STATS load_us`.
    pub fn reload_from_paths(
        &self,
        graph_path: &str,
        index_path: Option<&str>,
        landmarks: usize,
    ) -> Result<u64, ReloadError> {
        let started = Instant::now();
        if hcl_store::is_packed_path(graph_path) {
            if let Some(extra) = index_path {
                return Err(ReloadError::Load(format!(
                    "{graph_path} is a self-contained packed index; unexpected second path {extra}"
                )));
            }
            let oracle = PackedOracle::open(graph_path)
                .map_err(|e| ReloadError::Load(format!("{graph_path}: {e}")))?;
            let epoch = self.reload_index(ServingIndex::Packed(oracle));
            self.load_micros.store(started.elapsed().as_micros() as u64, Ordering::Relaxed);
            return Ok(epoch);
        }
        let graph = hcl_graph::io::load_auto(graph_path)
            .map_err(|e| ReloadError::Load(format!("{graph_path}: {e}")))?;
        let graph = Arc::new(graph);
        let labelling = match index_path {
            Some(path) => hcl_core::io::load_labelling(path)
                .map_err(|e| ReloadError::Load(format!("{path}: {e}")))?,
            None => {
                let landmarks = LandmarkStrategy::TopDegree(landmarks).select(&graph);
                HighwayCoverLabelling::build_parallel(&graph, &landmarks, 0)
                    .map_err(|e| ReloadError::Build(e.to_string()))?
                    .0
            }
        };
        if labelling.labels().num_vertices() != graph.num_vertices() {
            return Err(ReloadError::Mismatch {
                graph_vertices: graph.num_vertices(),
                index_vertices: labelling.labels().num_vertices(),
            });
        }
        let epoch = self.reload(SharedOracle::new(graph, Arc::new(labelling)));
        self.load_micros.store(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        Ok(epoch)
    }

    /// Sizes of the currently serving index generation (see
    /// [`ServingIndex::sizes`]).
    pub fn index_sizes(&self) -> IndexSizes {
        self.snapshot().index().sizes()
    }

    /// Microseconds the last successful disk reload spent loading (0 until
    /// one happens).
    pub fn last_load_micros(&self) -> u64 {
        self.load_micros.load(Ordering::Relaxed)
    }

    /// Cache statistics (zeroed when serving without a cache).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// Metric counters at this instant.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_core::HighwayLabels;

    fn oracle(n: usize, seed: u64, k: usize) -> SharedOracle {
        let (g, labelling) = hcl_core::testing::ba_fixture(n, 4, seed, k);
        SharedOracle::new(g, labelling)
    }

    pub(crate) fn test_service(cache_capacity: usize) -> QueryService {
        let (g, labelling) = hcl_core::testing::ba_fixture(400, 4, 21, 10);
        QueryService::from_parts(g, labelling, cache_capacity)
    }

    #[test]
    fn distance_checks_range() {
        let service = test_service(0);
        assert!(service.distance(0, 399).is_ok());
        assert_eq!(
            service.distance(0, 400),
            Err(QueryError::VertexOutOfRange { vertex: 400, n: 400 })
        );
        assert_eq!(
            service.distance(1_000_000, 3),
            Err(QueryError::VertexOutOfRange { vertex: 1_000_000, n: 400 })
        );
    }

    #[test]
    fn cache_on_and_off_agree() {
        let with = test_service(1 << 10);
        let without = test_service(0);
        for i in 0..300u32 {
            let (s, t) = ((i * 7) % 400, (i * 13 + 1) % 400);
            let a = with.distance(s, t).unwrap();
            let b = without.distance(s, t).unwrap();
            assert_eq!(a, b, "d({s}, {t})");
            // Ask again to exercise the hit path.
            assert_eq!(with.distance(s, t).unwrap(), a);
        }
        let stats = with.cache_stats();
        assert!(stats.hits >= 300, "every repeat should hit, saw {}", stats.hits);
        assert_eq!(without.cache_stats(), CacheStats::default());
    }

    #[test]
    fn metrics_count_queries() {
        let service = test_service(16);
        for _ in 0..5 {
            service.distance(1, 2).unwrap();
        }
        let snap = service.metrics_snapshot();
        assert_eq!(snap.queries, 5);
        assert_eq!(snap.batch_queries, 0);
    }

    #[test]
    fn reload_swaps_answers_and_clears_the_cache() {
        let service = QueryService::new(oracle(300, 7, 8), 1 << 10);
        assert_eq!(service.epoch(), 0);

        // Warm the cache on the first index.
        let queries: Vec<(u32, u32)> =
            (0..100u32).map(|i| ((i * 3) % 300, (i * 11 + 1) % 300)).collect();
        let before: Vec<_> =
            queries.iter().map(|&(s, t)| service.distance(s, t).unwrap()).collect();
        for (&(s, t), d) in queries.iter().zip(&before) {
            assert_eq!(service.distance(s, t).unwrap(), *d, "warm hit");
        }
        assert!(service.cache_stats().hits >= 100);

        // Swap in a different graph; every answer must now come from it.
        let new_oracle = oracle(300, 8, 8);
        let expected: Vec<_> = queries.iter().map(|&(s, t)| new_oracle.distance(s, t)).collect();
        assert_eq!(service.reload(new_oracle), 1);
        assert_eq!(service.epoch(), 1);
        assert_eq!(service.metrics_snapshot().reloads, 1);

        let after: Vec<_> = queries.iter().map(|&(s, t)| service.distance(s, t).unwrap()).collect();
        assert_eq!(after, expected, "post-reload answers come from the new index");
        assert_ne!(after, before, "the fixture graphs must actually differ");
    }

    #[test]
    fn pinned_snapshot_survives_a_reload() {
        let service = QueryService::new(oracle(200, 1, 6), 0);
        let snap = service.snapshot();
        let d = snap.index().as_memory().unwrap().distance(0, 199);
        service.reload(oracle(100, 2, 4));
        // The pinned generation still answers, on its own graph.
        assert_eq!(snap.index().num_vertices(), 200);
        assert_eq!(snap.index().as_memory().unwrap().distance(0, 199), d);
        // New queries see the new, smaller index.
        assert_eq!(service.num_vertices(), 100);
        assert!(service.distance(0, 199).is_err(), "199 is out of range after the swap");
    }

    #[test]
    fn apply_update_publishes_patched_answers_under_a_new_epoch() {
        let (g, labelling) = hcl_core::testing::ba_fixture(300, 4, 5, 8);
        let service = QueryService::from_parts(Arc::clone(&g), labelling, 1 << 10);

        // A pair far from the edit endpoints, warmed into the cache.
        let far = service.distance(250, 260).unwrap();
        assert_eq!(service.distance(250, 260).unwrap(), far, "warm hit");

        // Find an absent edge to insert.
        let (u, v) = (0..300u32)
            .flat_map(|a| ((a + 1)..300).map(move |b| (a, b)))
            .find(|&(a, b)| !g.has_edge(a, b))
            .expect("BA graph is not complete");
        let (epoch, _) = service.apply_update(EdgeEdit::Add(u, v)).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(service.epoch(), 1);
        assert_eq!(service.metrics_snapshot().updates_applied, 1);

        // Answers now come from the patched graph.
        let patched = g.with_edge(u, v).unwrap();
        let truth = hcl_graph::traversal::bfs_distances(&patched, u);
        for t in (0..300).step_by(17) {
            let expect = (truth[t as usize] != hcl_graph::INF).then_some(truth[t as usize]);
            assert_eq!(service.distance(u, t).unwrap(), expect, "d({u}, {t}) after ADD");
        }

        // Deleting the same edge restores the original metric.
        let (epoch, _) = service.apply_update(EdgeEdit::Delete(u, v)).unwrap();
        assert_eq!(epoch, 2);
        let truth = hcl_graph::traversal::bfs_distances(&g, u);
        for t in (0..300).step_by(17) {
            let expect = (truth[t as usize] != hcl_graph::INF).then_some(truth[t as usize]);
            assert_eq!(service.distance(u, t).unwrap(), expect, "d({u}, {t}) after DEL");
        }
    }

    #[test]
    fn apply_update_retags_unaffected_cache_entries() {
        // A path graph makes "far from the edit" easy to reason about.
        let g = Arc::new(hcl_graph::generate::path(50));
        let landmarks = hcl_graph::order::top_degree(&g, 2);
        let (labelling, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let service = QueryService::from_parts(Arc::clone(&g), Arc::new(labelling), 1 << 10);

        // Warm a pair whose distance an edit at the far end cannot change.
        assert_eq!(service.distance(0, 3).unwrap(), Some(3));
        let hits_before = service.cache_stats().hits;

        // Edit at the other end of the path.
        service.apply_update(EdgeEdit::Add(47, 49)).unwrap();

        // The warmed pair must hit under the new epoch — retagged, not
        // recomputed, and certainly not cleared.
        assert_eq!(service.distance(0, 3).unwrap(), Some(3));
        assert_eq!(service.cache_stats().hits, hits_before + 1, "retagged entry must hit");
        assert_eq!(service.cache_stats().stale, 0);
    }

    /// A path of 60 vertices behind a cache, and whether the next lookup of
    /// `(s, t)` answers `want` from the cache (`true`) or by recomputing.
    fn path_service() -> QueryService {
        let g = Arc::new(hcl_graph::generate::path(60));
        let landmarks = hcl_graph::order::top_degree(&g, 2);
        let (labelling, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        QueryService::from_parts(g, Arc::new(labelling), 1 << 10)
    }

    fn answers_from_cache(service: &QueryService, s: u32, t: u32, want: u32) -> bool {
        let hits = service.cache_stats().hits;
        assert_eq!(service.distance(s, t).unwrap(), Some(want), "d({s}, {t})");
        service.cache_stats().hits > hits
    }

    #[test]
    fn consecutive_revalidations_compose_and_reject_independently() {
        // Chords {20, 22} and {40, 42} on a path: each shortens exactly
        // the pairs that straddle it.
        let (first, second) = (EdgeEdit::Add(20, 22), EdgeEdit::Add(40, 42));
        let warm = |service: &QueryService| {
            for (s, t, d) in [(0, 3, 3), (18, 24, 6), (38, 44, 6), (50, 55, 5)] {
                assert_eq!(service.distance(s, t).unwrap(), Some(d));
            }
        };

        // In publish order, with both revalidations lagging both publishes.
        let service = path_service();
        warm(&service);
        let (_, _, after_first) = service.publish_update(first).unwrap();
        let (epoch, _, after_second) = service.publish_update(second).unwrap();
        assert_eq!(epoch, 2);
        service.revalidate(after_first);
        service.revalidate(after_second);
        assert_eq!(service.metrics_snapshot().retag_kept, 3 + 2);
        assert!(answers_from_cache(&service, 0, 3, 3), "certified by both filters");
        assert!(answers_from_cache(&service, 50, 55, 5), "certified by both filters");
        assert!(!answers_from_cache(&service, 18, 24, 5), "rejected by the first filter");
        assert!(!answers_from_cache(&service, 38, 44, 5), "rejected by the second filter");

        // Out of order the chain breaks — nothing reaches the live epoch —
        // and still nothing stale is served.
        let service = path_service();
        warm(&service);
        let (_, _, after_first) = service.publish_update(first).unwrap();
        let (_, _, after_second) = service.publish_update(second).unwrap();
        service.revalidate(after_second);
        service.revalidate(after_first);
        let snap = service.metrics_snapshot();
        assert_eq!((snap.revalidations_skipped, snap.retag_kept), (1, 3));
        for (s, t, d) in [(0, 3, 3), (18, 24, 5), (38, 44, 5), (50, 55, 5)] {
            assert!(!answers_from_cache(&service, s, t, d), "({s}, {t}) was never certified");
        }
    }

    #[test]
    fn a_reload_between_publish_and_revalidate_strands_the_revalidation() {
        let service = path_service();
        assert_eq!(service.distance(0, 3).unwrap(), Some(3));
        let (_, _, pending) = service.publish_update(EdgeEdit::Add(40, 42)).unwrap();

        // The reload lands first: a cycle, where d(0, 3) is still 3 but
        // d(0, 35) is 25, not 35.
        let cycle = Arc::new(hcl_graph::generate::cycle(60));
        let landmarks = hcl_graph::order::top_degree(&cycle, 2);
        let (labelling, _) = HighwayCoverLabelling::build(&cycle, &landmarks).unwrap();
        assert_eq!(service.reload(SharedOracle::new(cycle, Arc::new(labelling))), 2);
        // A query that pinned generation 0 before all this finishes now.
        service.cache().unwrap().insert(0, 35, 0, Some(35));

        service.revalidate(pending);
        assert_eq!(service.metrics_snapshot().retag_kept, 1, "carried to epoch 1 — not live");
        assert!(!service.cache().unwrap().holds_epoch(2));
        assert!(!answers_from_cache(&service, 0, 35, 25), "the path's answer must not cross");
    }

    #[test]
    fn update_metrics_account_for_publish_folds_and_skipped_revalidations() {
        let (g, labelling) = hcl_core::testing::ba_fixture(400, 4, 21, 10);
        let service = QueryService::from_parts(Arc::clone(&g), labelling, 1 << 10);
        let absent: Vec<(u32, u32)> = (0..400u32)
            .flat_map(|a| ((a + 1)..400).map(move |b| (a, b)))
            .filter(|&(a, b)| !g.has_edge(a, b))
            .step_by(397)
            .take(CsrGraph::OVERLAY_MAX_ROWS)
            .collect();

        // Nothing cached: the first revalidation has nothing to certify.
        service.apply_update(EdgeEdit::Add(absent[0].0, absent[0].1)).unwrap();
        let snap = service.metrics_snapshot();
        assert_eq!((snap.revalidations_skipped, snap.update_revalidate_ns), (1, 0));
        assert!(snap.overlay_rows >= 2, "the endpoints' rows at least: {snap:?}");
        assert!(snap.update_publish_ns > 0);

        // Something cached: the next one runs its filter.
        service.distance(1, 2).unwrap();
        service.apply_update(EdgeEdit::Delete(absent[0].0, absent[0].1)).unwrap();
        let snap = service.metrics_snapshot();
        assert_eq!(snap.revalidations_skipped, 1);
        assert!(snap.update_revalidate_ns > 0);

        // Enough distinct endpoints to overflow the graph's overlay.
        for &(a, b) in &absent[1..] {
            service.apply_update(EdgeEdit::Add(a, b)).unwrap();
            let rows = service.metrics_snapshot().overlay_rows as usize;
            assert!(rows <= 2 * CsrGraph::OVERLAY_MAX_ROWS + HighwayLabels::OVERLAY_MAX_ROWS);
        }
        let snap = service.metrics_snapshot();
        assert!(snap.overlay_folds >= 1, "{snap:?}");
        assert_eq!(snap.updates_applied, absent.len() as u64 + 1);
        assert_eq!(snap.revalidations_dropped, 0, "only the reactor's queue drops");
        let truth = hcl_graph::traversal::bfs_distances(
            service.snapshot().index().as_memory().unwrap().graph(),
            7,
        );
        for t in (0..400).step_by(9) {
            assert_eq!(service.distance(7, t).unwrap(), Some(truth[t as usize]), "d(7, {t})");
        }
    }

    #[test]
    fn rejected_update_leaves_the_index_untouched() {
        let service = test_service(16);
        let before = service.distance(0, 399).unwrap();
        // Edge (0, 1) exists in every BA fixture: a duplicate insert fails.
        let err = service.apply_update(EdgeEdit::Add(0, 1)).unwrap_err();
        assert!(matches!(err, UpdateApplyError::Apply(_)), "{err:?}");
        assert_eq!(service.epoch(), 0, "failed update must not bump the epoch");
        assert_eq!(service.metrics_snapshot().updates_applied, 0);
        assert_eq!(service.distance(0, 399).unwrap(), before);
    }

    #[test]
    fn failed_reload_from_paths_keeps_serving_the_old_index() {
        let service = QueryService::new(oracle(150, 3, 6), 16);
        let before = service.distance(0, 149).unwrap();
        let err = service.reload_from_paths("/nonexistent/graph.hclg", None, 4).unwrap_err();
        assert!(matches!(err, ReloadError::Load(_)), "{err:?}");
        assert_eq!(service.epoch(), 0, "failed reload must not bump the epoch");
        assert_eq!(service.metrics_snapshot().reloads, 0);
        assert_eq!(service.distance(0, 149).unwrap(), before);
    }
}
