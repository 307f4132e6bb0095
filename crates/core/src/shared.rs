//! Concurrent, shareable query access to a highway cover index.
//!
//! An index generation is immutable once built, so queries are
//! embarrassingly parallel — the only mutable state is the per-query
//! scratch in [`QueryContext`] (search buffers + label-merge vectors).
//! [`Oracle`] packages one generation together with a [`ContextPool`] of
//! reusable contexts, so any number of threads can call
//! [`Oracle::distance`] on `&self` concurrently. Its query methods are
//! written once, over the generic kernel in [`crate::storage`], for any
//! [`IndexGeneration`]; the two instantiations differ only in where the
//! labels and the sparsified graph live:
//!
//! * [`SharedOracle`] = `Oracle<MemoryIndex>`: graph, labelling and sparse
//!   view on the heap behind `Arc`s — what builds, edge edits and the
//!   in-memory serving backend use;
//! * `hcl_store::PackedOracle` = `Oracle<hcl_store::IndexView>`: a
//!   memory-mapped packed file, queried in place.
//!
//! [`HlOracle`](crate::HlOracle) remains the ergonomic single-threaded
//! front door: a [`SharedOracle`] plus a private context that skips the
//! pool.
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
use crate::storage::{self, IndexGeneration, LabelStorage, QueryPhases, SparseNeighbors};
use hcl_graph::{CsrGraph, VertexId};
use std::ops::{Deref, DerefMut};
use std::path::Path;
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

/// One in-memory index generation: a graph, the labelling built over it,
/// and the precomputed sparsified graph `G[V∖R]` every bounded search
/// traverses. The three always belong together, so a hot reload or an
/// edge edit swaps them as one.
#[derive(Clone, Debug)]
pub struct MemoryIndex {
    graph: Arc<CsrGraph>,
    labelling: Arc<HighwayCoverLabelling>,
    sparse: Arc<SparseView>,
}

impl IndexGeneration for MemoryIndex {
    type Labels = HighwayCoverLabelling;

    #[inline]
    fn labels(&self) -> &HighwayCoverLabelling {
        &self.labelling
    }

    #[inline]
    fn search(&self) -> impl SparseNeighbors + '_ {
        self.sparse.rows()
    }
}

/// A thread-safe exact-distance oracle over one index generation `I`:
/// queries on `&self`, scratch from a persistent [`ContextPool`].
///
/// `Oracle` is `Send + Sync` whenever `I` is, so one instance can serve
/// every connection handler and worker thread in a process. See the
/// module docs for its two instantiations.
#[derive(Debug)]
pub struct Oracle<I> {
    index: I,
    /// Shared with the generations an edge edit derives from this one
    /// ([`SharedOracle::next_generation`]): a context is sized by the
    /// vertex count alone, which an edit never changes.
    pool: Arc<ContextPool>,
}

/// The in-memory oracle: [`Oracle`] over a [`MemoryIndex`].
pub type SharedOracle = Oracle<MemoryIndex>;

impl<I: IndexGeneration> Oracle<I> {
    /// Wraps an index generation, with a fresh context pool.
    pub fn from_view(index: I) -> Self {
        let pool = Arc::new(ContextPool::new(index.labels().num_vertices()));
        Oracle { index, pool }
    }

    /// Opens the generation stored at `path`, for a backend that reads one
    /// from a file (`hcl_store`'s packed `IndexView`).
    pub fn open<P: AsRef<Path>, E>(path: P) -> Result<Self, E>
    where
        I: for<'p> TryFrom<&'p Path, Error = E>,
    {
        I::try_from(path.as_ref()).map(Oracle::from_view)
    }

    /// The index generation this oracle serves.
    pub fn view(&self) -> &I {
        &self.index
    }

    /// Number of vertices queries may address.
    pub fn num_vertices(&self) -> usize {
        self.index.labels().num_vertices()
    }

    /// The context pool (exposed so long-lived workers can hold one context
    /// across many queries instead of checking out per query).
    pub fn context_pool(&self) -> &ContextPool {
        &self.pool
    }

    /// Exact distance between `s` and `t` (`None` when disconnected),
    /// using a pooled context. Callable concurrently from any number of
    /// threads.
    pub fn distance(&self, s: VertexId, t: VertexId) -> Option<u32> {
        let mut ctx = self.pool.checkout();
        self.distance_with(&mut ctx, s, t)
    }

    /// Exact distance using a caller-held context (the zero-overhead path
    /// for worker loops).
    #[inline]
    pub fn distance_with(&self, ctx: &mut QueryContext, s: VertexId, t: VertexId) -> Option<u32> {
        storage::distance_on(self.index.labels(), &self.index.search(), ctx, s, t)
    }

    /// [`distance_with`](Self::distance_with) plus per-phase wall-clock
    /// accounting (label merge vs bounded search), for the server's
    /// cumulative `METRICS` phase counters.
    #[inline]
    pub fn distance_with_timed(
        &self,
        ctx: &mut QueryContext,
        s: VertexId,
        t: VertexId,
    ) -> (Option<u32>, QueryPhases) {
        storage::distance_on_timed(self.index.labels(), &self.index.search(), ctx, s, t)
    }

    /// The query upper bound `d⊤(s, t)` (Equation 4), using a pooled
    /// context.
    pub fn upper_bound(&self, s: VertexId, t: VertexId) -> u32 {
        let mut ctx = self.pool.checkout();
        storage::upper_bound_on(self.index.labels(), &mut ctx, s, t)
    }

    /// Answers a batch across `num_threads` scoped worker threads
    /// (0 = all cores), preserving input order. Each worker holds a
    /// context checked out of this oracle's persistent pool, so repeated
    /// batches allocate no per-call contexts.
    pub fn batch_distances(
        &self,
        pairs: &[(VertexId, VertexId)],
        num_threads: usize,
    ) -> Vec<Option<u32>> {
        crate::query::batch_over(&self.pool, pairs, num_threads, |ctx, s, t| {
            self.distance_with(ctx, s, t)
        })
    }
}

impl<I: IndexGeneration + Clone> Clone for Oracle<I> {
    /// Clones the handle (shared index data, fresh context pool).
    fn clone(&self) -> Self {
        Oracle::from_view(self.index.clone())
    }
}

impl SharedOracle {
    /// An oracle over `labelling`, built over `graph`; derives the sparse
    /// view.
    pub fn new(graph: Arc<CsrGraph>, labelling: Arc<HighwayCoverLabelling>) -> Self {
        let sparse = Arc::new(SparseView::build(&graph, labelling.highway()));
        SharedOracle::from_parts(graph, labelling, sparse)
    }

    /// Assembles an oracle from already-consistent parts — the incremental
    /// update path (`hcl_core::update::apply_edit`) produces a patched
    /// sparse view alongside the new graph and labelling, so rebuilding the
    /// view here would throw the `O(affected)` work away. The caller
    /// guarantees the triple belongs together (the invariant
    /// [`new`](Self::new) establishes internally).
    pub fn from_parts(
        graph: Arc<CsrGraph>,
        labelling: Arc<HighwayCoverLabelling>,
        sparse: Arc<SparseView>,
    ) -> Self {
        Oracle::from_view(MemoryIndex { graph, labelling, sparse })
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
        Oracle { index: MemoryIndex { graph, labelling, sparse }, pool: Arc::clone(&self.pool) }
    }

    /// The graph the labelling was built from.
    pub fn graph(&self) -> &CsrGraph {
        &self.index.graph
    }

    /// The underlying labelling.
    pub fn labelling(&self) -> &HighwayCoverLabelling {
        &self.index.labelling
    }

    /// The precomputed sparsified graph `G[V∖R]` the query path traverses.
    pub fn sparse_view(&self) -> &SparseView {
        &self.index.sparse
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
        // A caller that keeps its graph hands the oracle a clone, which
        // shares the graph's arrays instead of copying them.
        let g = generate::erdos_renyi(120, 300, 3);
        let landmarks = hcl_graph::order::top_degree(&g, 6);
        let (labelling, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let oracle = SharedOracle::new(Arc::new(g.clone()), Arc::new(labelling));
        let mut space = hcl_graph::SearchSpace::new(g.num_vertices());
        for (s, t) in [(0u32, 119u32), (5, 5), (17, 80)] {
            assert_eq!(oracle.distance(s, t), space.bibfs_distance(&g, s, t));
        }
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
