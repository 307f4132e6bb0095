//! A persistent worker pool that answers *jobs* — ordered lists of
//! distance queries pinned to one index generation — while preserving
//! request order.
//!
//! [`SharedOracle::batch_distances`](hcl_core::SharedOracle) spawns scoped
//! threads per call — fine for one offline batch, wasteful at serving rates
//! where every connection may submit work concurrently. The
//! [`BatchExecutor`] keeps `threads` long-lived workers (each with its own
//! [`QueryContext`]) pulling chunks from a shared channel, so concurrent
//! jobs from different connections interleave on the same pool.
//!
//! # One job per hand-off
//!
//! There is one job type and two ways in, differing only in *what a
//! request is*:
//!
//! * [`submit`](BatchExecutor::submit) — the pairs are **one** request (a
//!   `BATCH` frame): admitted and validated all-or-nothing, counted in
//!   `batch_requests` / `batch_queries`.
//! * [`submit_queries`](BatchExecutor::submit_queries) — every pair is
//!   **its own** request (the run of `QUERY` frames one reactor read pass
//!   decoded): each is validated and looked up in the cache on the
//!   calling thread, so cache hits and refused requests are answered
//!   there; only the misses are admitted, and they — however many — ride
//!   one job, whose completion carries the whole run's answers. All
//!   accepted queries are counted in `queries`, the hits also in
//!   `inline_hits`.
//!
//! Either way the hand-off costs one snapshot pin, one deadline, one
//! callback box and one allocation of each per-pair array *per job*, not
//! per query, and `executor_jobs` counts it once. A run of `QUERY`s that
//! all hit costs no hand-off at all.
//!
//! Completion is asynchronous: the job's callback runs on the worker
//! finishing the last chunk — the reactor passes one that formats the
//! responses and appends them to its completion queue under one lock — so
//! no thread ever blocks on a job. The blocking
//! [`execute`](BatchExecutor::execute) (offline callers, benches) is a thin
//! condvar wrapper over the same path.

use crate::metrics::ServeMetrics;
use crate::oracle_pool::{QueryError, QueryService};
use crate::serving::ServingIndex;
use hcl_core::{OracleEpoch, QueryContext};
use hcl_graph::{VertexId, INF};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Queued-query cap applied by [`BatchExecutor::new`]: enough headroom for
/// thousands of concurrent batches, small enough that a flood sheds (`ERR
/// busy`) instead of growing the worker channel without bound.
pub const DEFAULT_MAX_PENDING: usize = 1 << 16;

/// Completion callback of one job; receives the distances in input order,
/// or [`QueryError::DeadlineExpired`] when the job outlived its deadline
/// on the queue. Runs on a worker thread.
pub type BatchCallback = Box<dyn FnOnce(Result<Vec<Option<u32>>, QueryError>) + Send + 'static>;

/// One submitted job: the input pairs, the index generation the whole job
/// is answered on, the per-pair result cells, and the completion callback.
///
/// Shared between its chunks through an `Arc` whose *last* owner — the
/// worker finishing the last chunk — unwraps it with [`Arc::into_inner`]
/// and so owns the results and the callback outright: no chunk counter,
/// no lock, no copy-out. (`into_inner` synchronises with every earlier
/// owner's drop, which is what makes their `Relaxed` result stores
/// visible to it.)
struct Job {
    pairs: Vec<(VertexId, VertexId)>,
    /// Pinned at submission: every chunk of this job is validated and
    /// computed against this one generation, so a mid-job hot reload can
    /// never mix epochs inside a response.
    index: Arc<OracleEpoch<ServingIndex>>,
    /// One cell per pair ([`INF`] = unreachable), each written only by the
    /// chunk that owns its range.
    results: Vec<AtomicU32>,
    /// Never locked: the mutex only makes the boxed `FnOnce` shareable
    /// (`Sync`) until the last owner takes it by value.
    on_done: Mutex<BatchCallback>,
    /// Absolute wall-clock bound: a chunk picked up past it computes
    /// nothing and the whole job resolves `DeadlineExpired`.
    deadline: Option<Instant>,
    /// Every pair already missed the cache under `index`'s epoch at
    /// submission: compute and insert, without a second lookup.
    probed: bool,
    /// Set by the first worker to observe the deadline passed.
    expired: AtomicBool,
}

/// A contiguous slice of one job, claimed by a single worker.
struct Chunk {
    job: Arc<Job>,
    start: usize,
    end: usize,
}

/// The persistent worker pool; see the module docs.
pub struct BatchExecutor {
    service: Arc<QueryService>,
    /// `None` only during drop (disconnects the workers).
    injector: Option<mpsc::Sender<Chunk>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Queries accepted but not yet computed (shared with the workers,
    /// who decrement as chunks finish).
    depth: Arc<AtomicUsize>,
    /// Shed (`ERR busy`) any request that would push `depth` past this;
    /// 0 disables the bound.
    max_pending: usize,
}

impl BatchExecutor {
    /// Spawns `threads` workers over `service` (0 = all cores) with the
    /// [`DEFAULT_MAX_PENDING`] overload bound.
    pub fn new(service: Arc<QueryService>, threads: usize) -> Self {
        Self::with_queue_cap(service, threads, DEFAULT_MAX_PENDING)
    }

    /// [`new`](Self::new) with an explicit queued-query cap (0 =
    /// unbounded). Requests that would exceed it are refused with
    /// [`QueryError::Overloaded`] — typed `ERR busy` on the wire — and
    /// counted in the `shed_requests` metric, instead of growing the
    /// worker channel without bound.
    pub fn with_queue_cap(service: Arc<QueryService>, threads: usize, max_pending: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        } else {
            threads
        };
        let depth = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel::<Chunk>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let service = Arc::clone(&service);
                let depth = Arc::clone(&depth);
                std::thread::Builder::new()
                    .name(format!("hcl-worker-{i}"))
                    .spawn(move || {
                        let mut ctx = QueryContext::new(service.num_vertices());
                        loop {
                            // Hold the receiver lock only for the pop, not
                            // the computation.
                            let chunk = match rx.lock().expect("batch queue poisoned").recv() {
                                Ok(chunk) => chunk,
                                Err(_) => return, // executor dropped
                            };
                            Self::run_chunk(&service, &mut ctx, chunk, &depth);
                        }
                    })
                    .expect("spawn batch worker thread")
            })
            .collect();
        BatchExecutor { service, injector: Some(tx), workers, threads, depth, max_pending }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Queries accepted but not yet computed.
    pub fn queued(&self) -> usize {
        self.depth.load(Ordering::Acquire)
    }

    /// The service this pool queries.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    fn run_chunk(
        service: &QueryService,
        ctx: &mut QueryContext,
        chunk: Chunk,
        depth: &AtomicUsize,
    ) {
        let Chunk { job, start, end } = chunk;
        // A chunk picked up past the job's deadline computes nothing, and
        // poisons the job so sibling chunks stop computing too — a queue
        // full of expired work drains at memcpy speed instead of search
        // speed.
        if job.deadline.is_some_and(|at| Instant::now() >= at)
            && !job.expired.swap(true, Ordering::AcqRel)
        {
            ServeMetrics::bump(&service.metrics().deadline_expired);
        }
        if !job.expired.load(Ordering::Acquire) {
            // The job's pinned generation supplies graph, labelling, and
            // cache epoch (the context self-resizes across graph sizes).
            for (cell, &(s, t)) in job.results[start..end].iter().zip(&job.pairs[start..end]) {
                let d = if job.probed {
                    service.computed_distance_with(&job.index, ctx, s, t)
                } else {
                    service.cached_distance_with(&job.index, ctx, s, t)
                };
                cell.store(d.unwrap_or(INF), Ordering::Relaxed);
            }
        }
        depth.fetch_sub(end - start, Ordering::AcqRel);
        // Only the last chunk to finish gets the job back by value.
        let Some(job) = Arc::into_inner(job) else { return };
        let on_done = job.on_done.into_inner().expect("never locked, so never poisoned");
        if job.expired.into_inner() {
            on_done(Err(QueryError::DeadlineExpired));
        } else {
            let distances = job.results.into_iter().map(AtomicU32::into_inner);
            on_done(Ok(distances.map(|d| (d != INF).then_some(d)).collect()));
        }
    }

    /// Overload gate: reserves queue room for `count` queries and returns
    /// how many it granted — all or none of them, or with `partial` the
    /// leading ones that still fit. A `BATCH` passes it before validation,
    /// so a flood is turned away at the door; a run of `QUERY`s after the
    /// cache probe, since only its misses take queue room.
    fn reserve(&self, count: usize, partial: bool) -> usize {
        if self.max_pending == 0 {
            self.depth.fetch_add(count, Ordering::AcqRel);
            return count;
        }
        let mut current = self.depth.load(Ordering::Acquire);
        loop {
            let room = self.max_pending.saturating_sub(current);
            let granted = match (count <= room, partial) {
                (true, _) => count,
                (false, true) => room,
                (false, false) => 0,
            };
            if granted == 0 {
                return 0;
            }
            match self.depth.compare_exchange_weak(
                current,
                current + granted,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return granted,
                Err(seen) => current = seen,
            }
        }
    }

    /// Submits `pairs` as **one request** (a `BATCH`): admitted and
    /// validated all-or-nothing against the index generation current at
    /// submission, then fanned across the worker pool; `on_done` runs —
    /// with the distances in input order — on the worker that finishes the
    /// last chunk (inline for an empty batch). On an admission or
    /// validation error nothing is executed, nothing is counted as served,
    /// and the callback is dropped unused. Callable concurrently from any
    /// number of threads; never blocks on the computation.
    pub fn submit(
        &self,
        pairs: Vec<(VertexId, VertexId)>,
        on_done: BatchCallback,
    ) -> Result<(), QueryError> {
        let metrics = self.service.metrics();
        if self.reserve(pairs.len(), false) < pairs.len() {
            ServeMetrics::bump(&metrics.shed_requests);
            return Err(QueryError::Overloaded);
        }
        let index = self.service.snapshot();
        for &(s, t) in &pairs {
            if let Err(e) = QueryService::check_pair_in(&index, s, t) {
                self.depth.fetch_sub(pairs.len(), Ordering::AcqRel);
                return Err(e);
            }
        }
        ServeMetrics::bump(&metrics.batch_requests);
        ServeMetrics::add(&metrics.batch_queries, pairs.len() as u64);
        if pairs.is_empty() {
            on_done(Ok(Vec::new()));
            return Ok(());
        }
        self.enqueue(pairs, index, false, on_done);
        Ok(())
    }

    /// Submits a run of **independent single queries** — `(tag, s, t)`,
    /// the tag being whatever the caller needs to route the answer (the
    /// reactor's response-slot number) — and answers each exactly once.
    ///
    /// One index generation is pinned for the whole run. Each query is
    /// range-checked against it and then looked up in the cache under its
    /// epoch tag; a hit is answered here and counted in `inline_hits`.
    /// Only the misses take queue room: the leading ones that fit under
    /// the queue cap are admitted and the rest shed
    /// ([`QueryError::Overloaded`], one `shed_requests` each). So a bad
    /// vertex or a full queue fails *that request*, never the run it
    /// arrived in, and a hit is never shed or expired. The admitted misses
    /// are computed as one job on the same pinned generation, without a
    /// second cache lookup; a job that outlives its deadline answers each
    /// of them [`QueryError::DeadlineExpired`]. Hits and admitted misses
    /// are counted in `queries`.
    ///
    /// A run that queued no job is answered in the returned list. A run
    /// that queued one is answered through `on_done`, on the worker that
    /// finishes the job, with *every* answer of the run — those found here
    /// included — so the run's replies still leave together; the returned
    /// list is then empty. Either way the answers come keyed by tag, in
    /// no particular order.
    pub fn submit_queries<T, F>(
        &self,
        queries: Vec<(T, VertexId, VertexId)>,
        on_done: F,
    ) -> Vec<(T, Result<Option<u32>, QueryError>)>
    where
        T: Send + 'static,
        F: FnOnce(Vec<(T, Result<Option<u32>, QueryError>)>) + Send + 'static,
    {
        let metrics = self.service.metrics();
        let index = self.service.snapshot();
        let mut answered = Vec::new();
        let mut tags = Vec::new();
        let mut pairs = Vec::new();
        for (tag, s, t) in queries {
            // `None`: a valid pair that missed the cache.
            let answer = QueryService::check_pair_in(&index, s, t)
                .map(|()| self.service.cached(&index, s, t))
                .transpose();
            match answer {
                Some(answer) => answered.push((tag, answer)),
                None => {
                    tags.push(tag);
                    pairs.push((s, t));
                }
            }
        }
        let hits = answered.iter().filter(|(_, answer)| answer.is_ok()).count();
        ServeMetrics::add(&metrics.inline_hits, hits as u64);
        let admitted = self.reserve(pairs.len(), true);
        ServeMetrics::add(&metrics.shed_requests, (pairs.len() - admitted) as u64);
        ServeMetrics::add(&metrics.queries, (hits + admitted) as u64);
        pairs.truncate(admitted);
        answered.extend(
            tags.split_off(admitted).into_iter().map(|tag| (tag, Err(QueryError::Overloaded))),
        );
        if pairs.is_empty() {
            return answered;
        }
        let on_done = move |distances: Result<Vec<Option<u32>>, QueryError>| {
            match distances {
                Ok(distances) => {
                    answered.extend(tags.into_iter().zip(distances.into_iter().map(Ok)))
                }
                Err(e) => answered.extend(tags.into_iter().map(|tag| (tag, Err(e.clone())))),
            }
            on_done(answered)
        };
        self.enqueue(pairs, index, true, Box::new(on_done));
        Vec::new()
    }

    /// Splits an already admitted and validated job into chunks on the
    /// worker queue.
    fn enqueue(
        &self,
        pairs: Vec<(VertexId, VertexId)>,
        index: Arc<OracleEpoch<ServingIndex>>,
        probed: bool,
        on_done: BatchCallback,
    ) {
        ServeMetrics::bump(&self.service.metrics().executor_jobs);
        // Over-split relative to the thread count so a slow chunk (cache
        // misses needing real searches) doesn't serialise the tail — which
        // only helps when a second worker exists to take the rest.
        let ways = if self.threads == 1 { 1 } else { self.threads * 4 };
        let len = pairs.len();
        let chunk_size = len.div_ceil(ways).max(1);
        let num_chunks = len.div_ceil(chunk_size);
        let mut job = Some(Arc::new(Job {
            pairs,
            index,
            results: (0..len).map(|_| AtomicU32::new(INF)).collect(),
            on_done: Mutex::new(on_done),
            deadline: self.service.request_deadline().map(|d| Instant::now() + d),
            probed,
            expired: AtomicBool::new(false),
        }));
        let injector = self.injector.as_ref().expect("executor not shut down");
        for i in 0..num_chunks {
            let start = i * chunk_size;
            let end = (start + chunk_size).min(len);
            // The last chunk takes this thread's handle with it, so the
            // job's final owner is always a worker.
            let job = if i + 1 == num_chunks { job.take() } else { job.clone() };
            injector
                .send(Chunk { job: job.expect("held until the last chunk"), start, end })
                .expect("batch workers alive while executor exists");
        }
    }

    /// Blocking wrapper over [`submit`](Self::submit): answers `pairs` in
    /// input order, waiting on a condvar for the pool to finish. For
    /// offline callers and benches — the serving path never blocks.
    pub fn execute(&self, pairs: &[(VertexId, VertexId)]) -> Result<Vec<Option<u32>>, QueryError> {
        type Cell = (Mutex<Option<Result<Vec<Option<u32>>, QueryError>>>, Condvar);
        let cell: Arc<Cell> = Arc::new((Mutex::new(None), Condvar::new()));
        let signal = Arc::clone(&cell);
        self.submit(
            pairs.to_vec(),
            Box::new(move |results| {
                *signal.0.lock().expect("batch signal poisoned") = Some(results);
                signal.1.notify_all();
            }),
        )?;
        let (lock, cvar) = &*cell;
        let mut slot = lock.lock().expect("batch signal poisoned");
        while slot.is_none() {
            slot = cvar.wait(slot).expect("batch signal poisoned");
        }
        slot.take().expect("slot filled")
    }
}

impl Drop for BatchExecutor {
    fn drop(&mut self) {
        // Disconnect the channel so workers drain outstanding chunks and
        // exit, then join them.
        self.injector = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_core::testing::ba_fixture;

    fn service(cache_capacity: usize) -> Arc<QueryService> {
        let (g, labelling) = ba_fixture(500, 4, 33, 12);
        Arc::new(QueryService::from_parts(g, labelling, cache_capacity))
    }

    fn pairs(count: usize, n: u32) -> Vec<(u32, u32)> {
        (0..count as u32).map(|i| ((i * 7) % n, (i * 13 + 1) % n)).collect()
    }

    #[test]
    fn matches_sequential_in_order() {
        let service = service(0);
        let pairs = pairs(997, 500);
        let expect = service.snapshot().index().as_memory().unwrap().batch_distances(&pairs, 1);
        for threads in [1usize, 2, 4, 8] {
            let executor = BatchExecutor::new(Arc::clone(&service), threads);
            assert_eq!(executor.execute(&pairs).unwrap(), expect, "threads {threads}");
        }
    }

    #[test]
    fn empty_batch() {
        let executor = BatchExecutor::new(service(0), 2);
        assert!(executor.execute(&[]).unwrap().is_empty());
    }

    #[test]
    fn rejects_out_of_range_without_executing() {
        let service = service(0);
        let executor = BatchExecutor::new(Arc::clone(&service), 2);
        let err = executor.execute(&[(0, 1), (0, 500)]).unwrap_err();
        assert_eq!(err, QueryError::VertexOutOfRange { vertex: 500, n: 500 });
        // Validation happens before any work or accounting.
        assert_eq!(service.metrics_snapshot().batch_requests, 0);
        assert_eq!(service.metrics_snapshot().batch_queries, 0);
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let service = service(1 << 12);
        let executor = Arc::new(BatchExecutor::new(Arc::clone(&service), 4));
        let expect =
            service.snapshot().index().as_memory().unwrap().batch_distances(&pairs(400, 500), 1);
        std::thread::scope(|scope| {
            for _ in 0..6 {
                let executor = Arc::clone(&executor);
                let expect = expect.clone();
                scope.spawn(move || {
                    for _ in 0..5 {
                        assert_eq!(executor.execute(&pairs(400, 500)).unwrap(), expect);
                    }
                });
            }
        });
        let snap = service.metrics_snapshot();
        assert_eq!(snap.batch_requests, 30);
        assert_eq!(snap.batch_queries, 30 * 400);
    }

    #[test]
    fn batches_span_one_epoch_across_a_reload() {
        use hcl_core::SharedOracle;

        let service = service(1 << 10);
        let executor = BatchExecutor::new(Arc::clone(&service), 2);
        let pairs = pairs(300, 500);
        let before = executor.execute(&pairs).unwrap();

        // Swap to a different graph of the same size; whole batches flip.
        let (g, labelling) = ba_fixture(500, 4, 99, 12);
        let new_oracle = SharedOracle::new(g, labelling);
        let expect_new = new_oracle.batch_distances(&pairs, 1);
        assert_eq!(service.reload(new_oracle), 1);

        let after = executor.execute(&pairs).unwrap();
        assert_eq!(after, expect_new, "post-reload batches answer on the new index");
        assert_ne!(after, before, "the two fixture graphs must differ on this stream");
    }

    #[test]
    fn async_submit_delivers_via_callback_and_matches_execute() {
        use std::sync::mpsc;

        let service = service(0);
        let executor = BatchExecutor::new(Arc::clone(&service), 2);
        let pairs = pairs(200, 500);
        let expect = executor.execute(&pairs).unwrap();

        let (tx, rx) = mpsc::channel();
        executor.submit(pairs.clone(), Box::new(move |results| tx.send(results).unwrap())).unwrap();
        let got = rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
        assert_eq!(got.unwrap(), expect);

        // Validation failures surface synchronously; the callback is dropped.
        let (tx, rx) = mpsc::channel::<Result<Vec<Option<u32>>, QueryError>>();
        let err = executor.submit(vec![(0, 999)], Box::new(move |r| tx.send(r).unwrap()));
        assert!(err.is_err());
        assert!(rx.recv().is_err(), "callback must never fire on a rejected batch");
    }

    /// Answers of a run, keyed by tag.
    type Answers = Vec<(u64, Result<Option<u32>, QueryError>)>;

    /// Runs `queries` through `submit_queries`: the answers it returned,
    /// and those its job delivered (`None` when it queued none). Both
    /// sorted by tag.
    fn run_queries(
        executor: &BatchExecutor,
        queries: Vec<(u64, u32, u32)>,
    ) -> (Answers, Option<Answers>) {
        let (tx, rx) = mpsc::channel();
        let mut answered =
            executor.submit_queries(queries, move |answers| tx.send(answers).unwrap());
        answered.sort_by_key(|&(tag, _)| tag);
        // The sender is dropped unused when nothing was queued.
        let mut done = rx.recv_timeout(std::time::Duration::from_secs(30)).ok();
        if let Some(done) = &mut done {
            done.sort_by_key(|&(tag, _)| tag);
        }
        (answered, done)
    }

    #[test]
    fn a_run_of_queries_is_one_job_validated_per_request() {
        let service = service(1 << 10);
        let executor = BatchExecutor::new(Arc::clone(&service), 2);
        let good = pairs(40, 500);
        let expect = service.snapshot().index().as_memory().unwrap().batch_distances(&good, 1);

        // Tags 0..40 are good; tag 100 (in the middle) names a bad vertex.
        let mut queries: Vec<(u64, u32, u32)> =
            good.iter().enumerate().map(|(i, &(s, t))| (i as u64, s, t)).collect();
        queries.insert(17, (100, 3, 500));
        let mut want: Answers =
            expect.iter().enumerate().map(|(i, &d)| (i as u64, Ok(d))).collect();
        want.push((100, Err(QueryError::VertexOutOfRange { vertex: 500, n: 500 })));

        // Cold: the misses are one job, and its completion carries the
        // whole run — the bad query failed alone, not the run.
        let (answered, done) = run_queries(&executor, queries.clone());
        assert!(answered.is_empty(), "a run with a job answers through the job");
        assert_eq!(done.expect("the misses ran"), want);
        let snap = service.metrics_snapshot();
        assert_eq!(snap.queries, 40, "one per accepted query");
        assert_eq!(snap.batch_requests, 0, "single queries are not batches");
        assert_eq!(snap.executor_jobs, 1, "forty queries, one hand-off");
        assert_eq!(snap.inline_hits, 0, "a cold cache answers nothing inline");
        assert_eq!(executor.queued(), 0);

        // Warm: every good query hits and the run is answered on the
        // calling thread, with no job and no second lookup.
        let (answered, done) = run_queries(&executor, queries);
        assert!(done.is_none(), "no miss, no job");
        assert_eq!(answered, want);
        let snap = service.metrics_snapshot();
        assert_eq!((snap.queries, snap.inline_hits, snap.executor_jobs), (80, 40, 1));
        let cache = service.cache_stats();
        assert_eq!(cache.hits + cache.misses, 80, "one lookup per accepted query");
    }

    #[test]
    fn a_run_past_the_cap_sheds_its_tail_per_request() {
        let service = service(0);
        let executor = BatchExecutor::with_queue_cap(Arc::clone(&service), 1, 8);
        let all = pairs(32, 500);
        let expect = service.snapshot().index().as_memory().unwrap().batch_distances(&all[..8], 1);
        let queries = all.iter().enumerate().map(|(i, &(s, t))| (i as u64, s, t)).collect();
        let (answered, done) = run_queries(&executor, queries);

        // The eight that fit are served; the 24 behind them are shed one
        // by one, each counted.
        assert!(answered.is_empty());
        let done = done.expect("the admitted head ran");
        let (served, shed) = done.split_at(8);
        assert_eq!(served.iter().map(|(_, d)| d.clone().unwrap()).collect::<Vec<_>>(), expect);
        assert!(shed.iter().all(|(_, e)| *e == Err(QueryError::Overloaded)));
        assert_eq!(shed[0].0, 8, "shedding starts at the first request past the cap");
        let snap = service.metrics_snapshot();
        assert_eq!(snap.shed_requests, 24);
        assert_eq!(snap.queries, 8);
        assert_eq!(executor.queued(), 0, "shed and invalid requests leave no depth behind");

        // Nothing accepted: no job, the callback is dropped unused.
        let (answered, done) = run_queries(&executor, vec![(7, 0, 999)]);
        assert_eq!(answered.len(), 1);
        assert!(done.is_none());
        assert_eq!(service.metrics_snapshot().executor_jobs, 1);
        assert_eq!(executor.queued(), 0);
    }

    #[test]
    fn zero_deadline_expires_a_whole_run_once() {
        let service = service(0);
        service.set_request_deadline(Some(std::time::Duration::ZERO));
        let executor = BatchExecutor::new(Arc::clone(&service), 2);
        let queries = pairs(50, 500).iter().map(|&(s, t)| (0u64, s, t)).collect();
        let (answered, done) = run_queries(&executor, queries);
        assert!(answered.is_empty());
        let done = done.unwrap();
        assert_eq!(done.len(), 50, "every request of the run learns of the expiry");
        assert!(done.iter().all(|(_, e)| *e == Err(QueryError::DeadlineExpired)));
        assert_eq!(service.metrics_snapshot().deadline_expired, 1, "once per job");
        assert_eq!(executor.queued(), 0);
    }

    #[test]
    fn oversized_submission_sheds_with_busy() {
        let service = service(0);
        let executor = BatchExecutor::with_queue_cap(Arc::clone(&service), 1, 2);
        // Within the cap: served normally.
        assert!(executor.execute(&pairs(2, 500)).is_ok());
        // One more pair than the cap can ever hold: shed at the door.
        let err = executor.execute(&pairs(3, 500)).unwrap_err();
        assert_eq!(err, QueryError::Overloaded);
        assert_eq!(err.to_string(), "busy", "wire form is `ERR busy`");
        let snap = service.metrics_snapshot();
        assert_eq!(snap.shed_requests, 1);
        assert_eq!(snap.batch_requests, 1, "the shed batch was never counted as accepted");
        assert_eq!(executor.queued(), 0, "shed submissions leave no depth behind");
    }

    #[test]
    fn zero_deadline_expires_queued_work() {
        let service = service(0);
        service.set_request_deadline(Some(std::time::Duration::ZERO));
        let executor = BatchExecutor::new(Arc::clone(&service), 2);
        let err = executor.execute(&pairs(50, 500)).unwrap_err();
        assert_eq!(err, QueryError::DeadlineExpired);
        assert_eq!(err.to_string(), "deadline expired");
        let snap = service.metrics_snapshot();
        assert_eq!(snap.deadline_expired, 1, "counted once per job, not per chunk");
        // Disabling the deadline restores normal service.
        service.set_request_deadline(None);
        assert!(executor.execute(&pairs(50, 500)).is_ok());
    }

    #[test]
    fn batches_with_cache_agree_with_no_cache() {
        let cached = BatchExecutor::new(service(1 << 10), 3);
        let uncached = BatchExecutor::new(service(0), 3);
        let pairs = pairs(600, 500);
        let a = cached.execute(&pairs).unwrap();
        let b = uncached.execute(&pairs).unwrap();
        assert_eq!(a, b);
        // Second submission is served mostly from cache — still identical.
        assert_eq!(cached.execute(&pairs).unwrap(), a);
        assert!(cached.service().cache_stats().hits > 0);
    }
}
