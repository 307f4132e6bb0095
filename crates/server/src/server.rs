//! The std-only TCP server: one epoll reactor thread
//! drives every connection over nonblocking sockets, while query
//! execution runs on the shared [`BatchExecutor`] worker pool and comes
//! back through a completion queue. Thread count is fixed — reactor plus
//! workers — independent of how many connections are open.
//!
//! Shutdown is cooperative and poll-free: a shutdown flag plus one
//! eventfd write wake the reactor out of its epoll wait (no self-connect
//! "poke", no read-timeout polling). The reactor then closes the listening
//! port, lets every connection finish its in-flight requests and flush its
//! responses (bounded by [`ServerConfig::drain_grace`]), and exits.
//! Shutdown can come from a client (`SHUTDOWN`), from
//! [`ServerHandle::shutdown`], or from dropping the handle.

use crate::batch::BatchExecutor;
use crate::oracle_pool::{PendingRevalidation, QueryService};
use crate::reactor::{self, CompletionQueue};
use hcl_core::update::EdgeEdit;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tunables for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads in the shared batch executor (0 = all cores).
    pub batch_threads: usize,
    /// Most connections the reactor will hold open at once; connections
    /// beyond this are answered with one `ERR` line and closed
    /// immediately (counted in `rejected_connections`).
    pub max_connections: usize,
    /// Close connections with no read/write progress for this long
    /// (counted in `timed_out_connections`). Zero disables the timeout.
    pub idle_timeout: Duration,
    /// Once shutdown begins, how long connections may take to finish
    /// in-flight requests and flush responses before being force-closed.
    pub drain_grace: Duration,
    /// Landmarks used when a `RELOAD` names only a graph file and the
    /// labelling must be rebuilt in-process (top-degree selection).
    pub reload_landmarks: usize,
    /// Most queries (single or batched pairs) allowed on the worker queue
    /// at once; submissions past this are shed with `ERR busy` instead of
    /// growing the queue without bound (0 = unbounded).
    pub max_pending: usize,
    /// Per-request deadline: work still queued this long after submission
    /// resolves `ERR deadline expired` instead of computing a stale
    /// answer. `None` disables it.
    pub request_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            batch_threads: 0,
            max_connections: 1024,
            idle_timeout: Duration::from_secs(600),
            drain_grace: Duration::from_secs(5),
            reload_landmarks: 20,
            max_pending: crate::batch::DEFAULT_MAX_PENDING,
            request_deadline: None,
        }
    }
}

/// State shared by the reactor, the worker pool, and the handle.
pub(crate) struct Shared {
    pub service: Arc<QueryService>,
    pub executor: BatchExecutor,
    pub shutdown: AtomicBool,
    pub local_addr: SocketAddr,
    pub config: ServerConfig,
    /// Worker → reactor completions; its eventfd is also the shutdown
    /// wakeup.
    pub queue: Arc<CompletionQueue>,
    /// Gate serialising `RELOAD`s and `UPDATE`s: index swaps are
    /// whole-graph work, so at most one runs at a time. Extra RELOADs are
    /// refused with an `ERR` (a pipelined flood must not fan out into
    /// concurrent full-index builds); extra UPDATEs park on
    /// [`pending_updates`](Self::pending_updates) instead and are applied
    /// one at a time, in arrival order, once the gate frees up.
    pub reload_busy: AtomicBool,
    /// Incremental edits waiting for the busy gate, in arrival order. The
    /// gate holder drains this before (and re-checks it after) releasing,
    /// so pipelined `UPDATE` lines all get applied without ever running
    /// two swaps concurrently.
    pub pending_updates: Mutex<VecDeque<UpdateJob>>,
    /// Cache revalidations of published updates, run off the reply path
    /// and outside the busy gate by the one `hcl-revalidate` worker, in
    /// publish order.
    pub revalidations: RevalidationQueue,
}

/// One queued `UPDATE`, waiting for the busy gate: the edit plus the
/// response slot it must complete.
pub(crate) struct UpdateJob {
    /// The edge edit to apply.
    pub edit: EdgeEdit,
    /// Connection the response belongs to.
    pub conn: u64,
    /// Response slot within that connection.
    pub seq: u64,
}

/// Most revalidations allowed to wait behind the revalidation worker. A
/// cache entry that has waited out eight edits has mostly been recomputed
/// or evicted already, so past this the chain is cheaper to abandon than to
/// finish.
const MAX_PENDING_REVALIDATIONS: usize = 8;

/// The FIFO between the update drain (which publishes) and the server's one
/// revalidation worker (which certifies cache entries across each published
/// edit, see [`QueryService::revalidate`]). The worker is started by
/// [`Server::bind`], parks on the condvar while the queue is empty, and
/// leaves once the queue is [closed](Self::close).
///
/// Order matters for warmth, not for soundness: an entry follows a run of
/// edits to the newest epoch only if each edit's revalidation finds it
/// under the epoch the previous one left it at. That is also why overflow
/// discards the *whole* chain rather than its tail — with any link missing,
/// the later links have nothing left to carry — and why discarding is safe:
/// entries that are never retagged stay fenced behind their old epoch tag
/// and age out as stale misses.
#[derive(Default)]
pub(crate) struct RevalidationQueue {
    state: Mutex<RevalidationState>,
    ready: Condvar,
}

#[derive(Default)]
struct RevalidationState {
    jobs: VecDeque<PendingRevalidation>,
    closed: bool,
}

impl RevalidationQueue {
    /// Queues `job` and wakes the worker. Returns how many jobs were
    /// discarded unrun: none normally; everything queued plus `job` when
    /// the queue was full; `job` itself once the queue is closed.
    pub fn push(&self, job: PendingRevalidation) -> usize {
        let mut state = self.state.lock().expect("revalidation queue poisoned");
        if state.closed {
            return 1;
        }
        if state.jobs.len() >= MAX_PENDING_REVALIDATIONS {
            let dropped = state.jobs.len() + 1;
            state.jobs.clear();
            return dropped;
        }
        state.jobs.push_back(job);
        self.ready.notify_one();
        0
    }

    /// The worker's next job, waiting for one; `None` once the queue is
    /// closed, even with jobs still queued — they only warm the cache.
    pub fn next(&self) -> Option<PendingRevalidation> {
        let mut state = self.state.lock().expect("revalidation queue poisoned");
        loop {
            if state.closed {
                return None;
            }
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            state = self.ready.wait(state).expect("revalidation queue poisoned");
        }
    }

    /// Closes the queue and wakes the worker so it can leave.
    pub fn close(&self) {
        self.state.lock().expect("revalidation queue poisoned").closed = true;
        self.ready.notify_all();
    }
}

impl Shared {
    /// Flips the shutdown flag and wakes the reactor's epoll wait.
    pub fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.queue.wake();
        }
    }

    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// The server entry point.
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `service`. Returns immediately; serving happens on the reactor
    /// thread owned by the returned handle.
    pub fn bind(
        service: Arc<QueryService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let queue = Arc::new(CompletionQueue::new(Arc::clone(&service))?);
        service.set_request_deadline(config.request_deadline);
        let executor = BatchExecutor::with_queue_cap(
            Arc::clone(&service),
            config.batch_threads,
            config.max_pending,
        );
        let shared = Arc::new(Shared {
            service,
            executor,
            shutdown: AtomicBool::new(false),
            local_addr,
            config,
            queue,
            reload_busy: AtomicBool::new(false),
            pending_updates: Mutex::new(VecDeque::new()),
            revalidations: RevalidationQueue::default(),
        });
        let revalidator = spawn_revalidator(Arc::clone(&shared))?;
        // From here on dropping the handle stops whatever has started.
        let handle = ServerHandle {
            shared,
            reactor_thread: Mutex::new(None),
            revalidator: Mutex::new(Some(revalidator)),
        };
        let reactor_thread = reactor::spawn(Arc::clone(&handle.shared), listener)?;
        *handle.reactor_thread.lock().expect("reactor handle poisoned") = Some(reactor_thread);
        Ok(handle)
    }
}

/// Starts the server's one `hcl-revalidate` worker: it runs queued
/// revalidations in publish order until the queue is closed, at nice 19 —
/// a revalidation only warms the cache, so it yields the core to the
/// reactor, the executor and the update drain.
fn spawn_revalidator(shared: Arc<Shared>) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name("hcl-revalidate".to_string()).spawn(move || {
        // Best effort: at the default priority the worker is still correct.
        let _ = crate::transport::sys::set_thread_nice(19);
        while let Some(pending) = shared.revalidations.next() {
            shared.service.revalidate(pending);
        }
    })
}

/// Owns the reactor and revalidation threads; dropping it shuts the server
/// down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    reactor_thread: Mutex<Option<JoinHandle<()>>>,
    revalidator: Mutex<Option<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The service being served (for in-process stats).
    pub fn service(&self) -> &Arc<QueryService> {
        &self.shared.service
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Initiates graceful shutdown and waits for connections to drain.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
        self.join();
    }

    /// Blocks until the server stops (via [`shutdown`](Self::shutdown) or a
    /// client `SHUTDOWN` request), then stops the revalidation worker:
    /// revalidations still queued are dropped, one in progress finishes.
    pub fn join(&self) {
        let handle = self.reactor_thread.lock().expect("reactor handle poisoned").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        self.shared.revalidations.close();
        let handle = self.revalidator.lock().expect("revalidator handle poisoned").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_core::update::EdgeEdit;

    /// `count` published-update revalidations of a 200-vertex fixture, in
    /// publish order, and the service they belong to.
    fn pending_jobs(count: usize) -> (Arc<QueryService>, Vec<PendingRevalidation>) {
        let (g, labelling) = hcl_core::testing::ba_fixture(200, 3, 4, 6);
        let (u, v) = (198, 199);
        assert!(!g.has_edge(u, v));
        let service = Arc::new(QueryService::from_parts(g, labelling, 64));
        let jobs = (0..count)
            .map(|i| {
                let edit = if i % 2 == 0 { EdgeEdit::Add(u, v) } else { EdgeEdit::Delete(u, v) };
                service.publish_update(edit).expect("alternating ADD/DEL is always valid").2
            })
            .collect();
        (service, jobs)
    }

    #[test]
    fn revalidation_queue_is_fifo_and_drops_the_whole_chain_on_overflow() {
        let (_, jobs) = pending_jobs(2 * MAX_PENDING_REVALIDATIONS + 3);
        let mut jobs = jobs.into_iter();
        let queue = RevalidationQueue::default();

        for _ in 0..MAX_PENDING_REVALIDATIONS {
            assert_eq!(queue.push(jobs.next().unwrap()), 0);
        }
        assert_eq!(
            queue.push(jobs.next().unwrap()),
            MAX_PENDING_REVALIDATIONS + 1,
            "everything queued goes with the job that did not fit"
        );
        // The queue is empty again and takes a new chain, first in first
        // out: the epochs come back in publish order.
        let epochs: Vec<u64> = (0..3)
            .map(|_| {
                let job = jobs.next().unwrap();
                let epoch = job.new_epoch();
                assert_eq!(queue.push(job), 0);
                epoch
            })
            .collect();
        let popped: Vec<u64> = (0..3).map(|_| queue.next().unwrap().new_epoch()).collect();
        assert_eq!(popped, epochs);

        // Closing wakes a parked worker, drops what is queued and refuses
        // what comes after.
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| queue.next().map(|job| job.new_epoch()));
            std::thread::sleep(std::time::Duration::from_millis(20));
            queue.close();
            assert_eq!(worker.join().unwrap(), None, "a parked worker leaves on close");
        });
        assert_eq!(queue.push(jobs.next().unwrap()), 1, "a closed queue runs nothing");
        assert!(queue.next().is_none());
    }

    #[test]
    fn shutdown_joins_the_revalidation_worker_even_with_jobs_queued() {
        let (service, jobs) = pending_jobs(MAX_PENDING_REVALIDATIONS);
        // Something cached, so every job that runs does real work.
        service.distance(0, 150).unwrap();
        let handle = Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
        {
            // Queue the jobs under the lock, unannounced: the worker is
            // parked (or not yet started) and finds them only when it
            // next takes the lock.
            let mut state = handle.shared.revalidations.state.lock().unwrap();
            state.jobs.extend(jobs);
        }
        handle.shutdown();
        assert!(handle.revalidator.lock().unwrap().is_none(), "joined");
        assert_eq!(Arc::strong_count(&handle.shared), 1, "no server thread holds the state");
        // An idle server stops its worker too.
        let (service, _) = pending_jobs(0);
        let idle = Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
        idle.shutdown();
        assert_eq!(Arc::strong_count(&idle.shared), 1);
    }
}
