//! Concurrent, shareable query access to a highway cover labelling.
//!
//! The labelling and the graph it was built from are immutable after
//! construction, so queries are embarrassingly parallel — the only mutable
//! state is the per-query scratch in [`QueryContext`] (search buffers +
//! label-merge vectors). [`SharedOracle`] packages the immutable parts
//! behind `Arc`s together with a [`ContextPool`] of reusable contexts, so
//! any number of threads can call [`SharedOracle::distance`] on `&self`
//! concurrently. This is the seam the serving subsystem (`hcl-server`)
//! builds on.
//!
//! [`HlOracle`](crate::HlOracle) remains the ergonomic single-threaded
//! front door; it is a thin wrapper over a [`SharedOracle`] that borrows
//! its graph and skips the pool by holding a private context.
//!
//! ```
//! use std::sync::Arc;
//! use hcl_core::{HighwayCoverLabelling, SharedOracle};
//! use hcl_core::landmarks::LandmarkStrategy;
//! use hcl_graph::generate;
//!
//! let g = Arc::new(generate::barabasi_albert(1_000, 4, 7));
//! let landmarks = LandmarkStrategy::TopDegree(8).select(&g);
//! let (labelling, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
//! let oracle = SharedOracle::new(Arc::clone(&g), Arc::new(labelling));
//!
//! // `&self` queries: clone the handle into any number of threads.
//! std::thread::scope(|scope| {
//!     for _ in 0..4 {
//!         let oracle = &oracle;
//!         scope.spawn(move || {
//!             assert!(oracle.distance(1, 999).is_some());
//!         });
//!     }
//! });
//! ```

use crate::build::HighwayCoverLabelling;
use crate::query::QueryContext;
use crate::sparse::SparseView;
use hcl_graph::{CsrGraph, VertexId};
use std::borrow::Borrow;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};

/// A pool of reusable [`QueryContext`]s for one graph size.
///
/// Checking out pops a context (or creates one when the pool is dry);
/// dropping the guard returns it. A plain mutex around a `Vec` is
/// deliberately simple: the critical section is two pointer moves, and at
/// serving concurrency the real cost is the query itself.
#[derive(Debug)]
pub struct ContextPool {
    num_vertices: usize,
    /// Contexts currently checked in.
    idle: Mutex<Vec<QueryContext>>,
    /// Upper bound on contexts retained at checkin; beyond this, returned
    /// contexts are dropped instead of pooled (guards against a burst of
    /// threads pinning memory forever).
    max_idle: usize,
}

impl ContextPool {
    /// Default cap on retained contexts.
    pub const DEFAULT_MAX_IDLE: usize = 256;

    /// A pool producing contexts for graphs with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        ContextPool { num_vertices, idle: Mutex::new(Vec::new()), max_idle: Self::DEFAULT_MAX_IDLE }
    }

    /// Checks a context out; it returns to the pool when the guard drops.
    pub fn checkout(&self) -> PooledContext<'_> {
        let ctx = self
            .idle
            .lock()
            .expect("context pool poisoned")
            .pop()
            .unwrap_or_else(|| QueryContext::new(self.num_vertices));
        PooledContext { pool: self, ctx: Some(ctx) }
    }

    /// Number of contexts currently idle in the pool.
    pub fn idle_count(&self) -> usize {
        self.idle.lock().expect("context pool poisoned").len()
    }

    fn checkin(&self, ctx: QueryContext) {
        let mut idle = self.idle.lock().expect("context pool poisoned");
        if idle.len() < self.max_idle {
            idle.push(ctx);
        }
    }
}

/// RAII guard over a pooled [`QueryContext`]; derefs to the context and
/// returns it to its [`ContextPool`] on drop.
#[derive(Debug)]
pub struct PooledContext<'p> {
    pool: &'p ContextPool,
    ctx: Option<QueryContext>,
}

impl Deref for PooledContext<'_> {
    type Target = QueryContext;

    fn deref(&self) -> &QueryContext {
        self.ctx.as_ref().expect("context taken")
    }
}

impl DerefMut for PooledContext<'_> {
    fn deref_mut(&mut self) -> &mut QueryContext {
        self.ctx.as_mut().expect("context taken")
    }
}

impl Drop for PooledContext<'_> {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            self.pool.checkin(ctx);
        }
    }
}

/// A thread-safe exact-distance oracle: immutable labelling + graph behind
/// shared ownership, queries on `&self`.
///
/// `G` is the graph storage — [`Arc<CsrGraph>`] by default (the serving
/// case), or `&CsrGraph` when a caller already owns the graph
/// ([`HlOracle`](crate::HlOracle) uses that flavour). `SharedOracle` is
/// `Send + Sync` for any sendable `G`, so one instance can serve every
/// connection handler and worker thread in a process.
#[derive(Debug)]
pub struct SharedOracle<G: Borrow<CsrGraph> = Arc<CsrGraph>> {
    graph: G,
    labelling: Arc<HighwayCoverLabelling>,
    /// The precomputed sparsified graph `G[V∖R]` every bounded search
    /// traverses. Built once at construction, so it always corresponds to
    /// exactly this graph + labelling pair and swaps atomically with them
    /// under hot reload.
    sparse: Arc<SparseView>,
    /// Shared with the generations an edge edit derives from this one
    /// ([`next_generation`](SharedOracle::next_generation)): a context is
    /// sized by the vertex count alone, which an edit never changes.
    pool: Arc<ContextPool>,
}

impl SharedOracle {
    /// The owning flavour used by servers: both halves behind `Arc`.
    pub fn new(graph: Arc<CsrGraph>, labelling: Arc<HighwayCoverLabelling>) -> Self {
        SharedOracle::with_graph(graph, labelling)
    }

    /// Assembles an oracle from already-consistent parts — the incremental
    /// update path (`hcl_core::update::apply_edit`) produces a patched
    /// sparse view alongside the new graph and labelling, so rebuilding the
    /// view here would throw the `O(affected)` work away. The caller
    /// guarantees the triple belongs together (the same invariant
    /// [`with_graph`](Self::with_graph) establishes internally).
    pub fn from_parts(
        graph: Arc<CsrGraph>,
        labelling: Arc<HighwayCoverLabelling>,
        sparse: Arc<SparseView>,
    ) -> Self {
        let pool = Arc::new(ContextPool::new(graph.num_vertices()));
        SharedOracle { graph, labelling, sparse, pool }
    }

    /// The oracle of the generation an edge edit derives from this one:
    /// [`from_parts`](Self::from_parts) over the edited triple, except
    /// that it keeps this oracle's context pool instead of starting an
    /// empty one — the vertex count is the same, so every pooled context
    /// still fits.
    pub fn next_generation(
        &self,
        graph: Arc<CsrGraph>,
        labelling: Arc<HighwayCoverLabelling>,
        sparse: Arc<SparseView>,
    ) -> Self {
        assert_eq!(graph.num_vertices(), self.num_vertices(), "an edit keeps the vertex count");
        SharedOracle { graph, labelling, sparse, pool: Arc::clone(&self.pool) }
    }
}

impl<G: Borrow<CsrGraph>> SharedOracle<G> {
    /// Wraps a labelling built over `graph` (any storage implementing
    /// `Borrow<CsrGraph>`).
    pub fn with_graph(graph: G, labelling: impl Into<Arc<HighwayCoverLabelling>>) -> Self {
        let labelling = labelling.into();
        let sparse = Arc::new(SparseView::build(graph.borrow(), labelling.highway()));
        let pool = Arc::new(ContextPool::new(graph.borrow().num_vertices()));
        SharedOracle { graph, labelling, sparse, pool }
    }

    /// The graph the labelling was built from.
    pub fn graph(&self) -> &CsrGraph {
        self.graph.borrow()
    }

    /// The precomputed sparsified graph `G[V∖R]` the query path traverses.
    pub fn sparse_view(&self) -> &SparseView {
        &self.sparse
    }

    /// The underlying labelling.
    pub fn labelling(&self) -> &HighwayCoverLabelling {
        &self.labelling
    }

    /// A new shared handle to the labelling (cheap; no label data copied).
    pub fn labelling_arc(&self) -> Arc<HighwayCoverLabelling> {
        Arc::clone(&self.labelling)
    }

    /// The context pool (exposed so long-lived workers can hold one context
    /// across many queries instead of checking out per query).
    pub fn context_pool(&self) -> &ContextPool {
        &self.pool
    }

    /// Number of vertices queries may address.
    pub fn num_vertices(&self) -> usize {
        self.graph().num_vertices()
    }

    /// Exact distance between `s` and `t` (`None` when disconnected),
    /// using a pooled context. Callable concurrently from any number of
    /// threads. The bounded search runs on the precomputed [`SparseView`]
    /// — no skip predicate, no rank lookups.
    pub fn distance(&self, s: VertexId, t: VertexId) -> Option<u32> {
        let mut ctx = self.pool.checkout();
        self.labelling.distance_sparse(&self.sparse, &mut ctx, s, t)
    }

    /// Exact distance using a caller-held context (the zero-overhead path
    /// for worker loops). Runs on the [`SparseView`].
    pub fn distance_with(&self, ctx: &mut QueryContext, s: VertexId, t: VertexId) -> Option<u32> {
        self.labelling.distance_sparse(&self.sparse, ctx, s, t)
    }

    /// [`distance_with`](Self::distance_with) plus per-phase wall-clock
    /// accounting (label merge vs bounded search), for the server's
    /// cumulative `METRICS` phase counters.
    pub fn distance_with_timed(
        &self,
        ctx: &mut QueryContext,
        s: VertexId,
        t: VertexId,
    ) -> (Option<u32>, crate::storage::QueryPhases) {
        self.labelling.distance_sparse_timed(&self.sparse, ctx, s, t)
    }

    /// The query upper bound `d⊤(s, t)` (Equation 4), using a pooled
    /// context.
    pub fn upper_bound(&self, s: VertexId, t: VertexId) -> u32 {
        let mut ctx = self.pool.checkout();
        self.labelling.upper_bound_with(&mut ctx, s, t)
    }

    /// Answers a batch across `num_threads` scoped worker threads
    /// (0 = all cores), preserving input order. Each worker queries the
    /// [`SparseView`] with a context checked out of this oracle's
    /// persistent pool, so repeated batches allocate no per-call contexts.
    pub fn batch_distances(
        &self,
        pairs: &[(VertexId, VertexId)],
        num_threads: usize,
    ) -> Vec<Option<u32>> {
        // Capture only the Sync halves (graph storage `G` need not be).
        let (labelling, sparse) = (&*self.labelling, &*self.sparse);
        crate::query::batch_over(&self.pool, pairs, num_threads, |ctx, s, t| {
            labelling.distance_sparse(sparse, ctx, s, t)
        })
    }

    /// Recovers the labelling, cloning only if other `Arc` handles exist.
    pub fn into_labelling(self) -> HighwayCoverLabelling {
        Arc::try_unwrap(self.labelling).unwrap_or_else(|arc| (*arc).clone())
    }
}

impl<G: Borrow<CsrGraph> + Clone> Clone for SharedOracle<G> {
    /// Clones the handle (shared labelling and sparse view, fresh context
    /// pool).
    fn clone(&self) -> Self {
        SharedOracle {
            graph: self.graph.clone(),
            labelling: Arc::clone(&self.labelling),
            sparse: Arc::clone(&self.sparse),
            pool: Arc::new(ContextPool::new(self.graph.borrow().num_vertices())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_graph::{generate, traversal, INF};

    fn shared_oracle(n: usize, deg: usize, seed: u64, k: usize) -> SharedOracle {
        let g = Arc::new(generate::barabasi_albert(n, deg, seed));
        let landmarks = hcl_graph::order::top_degree(&g, k);
        let (labelling, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        SharedOracle::new(g, Arc::new(labelling))
    }

    #[test]
    fn shared_oracle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedOracle>();
        assert_send_sync::<SharedOracle<&'static CsrGraph>>();
        assert_send_sync::<ContextPool>();
    }

    #[test]
    fn pool_reuses_contexts() {
        let pool = ContextPool::new(10);
        assert_eq!(pool.idle_count(), 0);
        {
            let _a = pool.checkout();
            let _b = pool.checkout();
            assert_eq!(pool.idle_count(), 0);
        }
        assert_eq!(pool.idle_count(), 2);
        {
            let _c = pool.checkout();
            assert_eq!(pool.idle_count(), 1);
        }
        assert_eq!(pool.idle_count(), 2);
    }

    #[test]
    fn shared_distance_matches_ground_truth() {
        let oracle = shared_oracle(300, 4, 11, 10);
        for s in (0..300u32).step_by(17) {
            let truth = traversal::bfs_distances(oracle.graph(), s);
            for t in 0..300u32 {
                let expect = (truth[t as usize] != INF).then_some(truth[t as usize]);
                assert_eq!(oracle.distance(s, t), expect, "{s}->{t}");
            }
        }
    }

    #[test]
    fn borrowed_graph_flavour_works() {
        let g = generate::erdos_renyi(120, 300, 3);
        let landmarks = hcl_graph::order::top_degree(&g, 6);
        let (labelling, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let oracle: SharedOracle<&CsrGraph> = SharedOracle::with_graph(&g, labelling);
        let mut space = hcl_graph::SearchSpace::new(g.num_vertices());
        for (s, t) in [(0u32, 119u32), (5, 5), (17, 80)] {
            assert_eq!(oracle.distance(s, t), space.bibfs_distance(&g, s, t));
        }
    }

    #[test]
    fn into_labelling_round_trips() {
        let oracle = shared_oracle(100, 3, 5, 4);
        let d = oracle.distance(0, 99);
        let labelling = oracle.into_labelling();
        let g = generate::barabasi_albert(100, 3, 5);
        let mut ctx = QueryContext::new(g.num_vertices());
        assert_eq!(labelling.distance_with(&g, &mut ctx, 0, 99), d);
    }

    #[test]
    fn next_generation_keeps_the_context_pool() {
        let oracle = shared_oracle(80, 3, 9, 4);
        drop(oracle.context_pool().checkout());
        assert_eq!(oracle.context_pool().idle_count(), 1);
        let (u, v) = (78, 79);
        let edit = crate::update::EdgeEdit::Add(u, v);
        let r = crate::update::apply_edit(
            oracle.graph(),
            oracle.labelling(),
            oracle.sparse_view(),
            edit,
        )
        .unwrap();
        let next =
            oracle.next_generation(Arc::new(r.graph), Arc::new(r.labelling), Arc::new(r.sparse));
        assert_eq!(next.context_pool().idle_count(), 1, "the parent's idle context is reused");
        assert_eq!(next.distance(u, v), Some(1));
        assert_ne!(oracle.distance(u, v), Some(1), "the parent answers for the old graph");
        assert_eq!(oracle.context_pool().idle_count(), 1);
    }

    #[test]
    fn clone_shares_labelling() {
        let oracle = shared_oracle(80, 3, 9, 4);
        let clone = oracle.clone();
        for (s, t) in [(0u32, 79u32), (3, 41)] {
            assert_eq!(oracle.distance(s, t), clone.distance(s, t));
        }
    }
}
