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
use std::sync::{Arc, Mutex};
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
    /// and outside the busy gate by one worker, in publish order.
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

/// Most revalidations allowed to wait behind the revalidation worker. Each
/// is two whole-graph BFS passes of lag; a cache entry that has waited out
/// eight of them has mostly been recomputed or evicted already, so past this
/// the chain is cheaper to abandon than to finish.
const MAX_PENDING_REVALIDATIONS: usize = 8;

/// What [`RevalidationQueue::push`] did with a job.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Pushed {
    /// Queued behind the running worker.
    Queued,
    /// Queued, and no worker is running: the caller must start one.
    StartWorker,
    /// The queue was full: this many jobs — everything queued and the new
    /// one — were discarded unrun.
    Dropped(usize),
}

/// The FIFO between the update drain (which publishes) and the one
/// revalidation worker (which certifies cache entries across each published
/// edit, see [`QueryService::revalidate`]).
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
}

#[derive(Default)]
struct RevalidationState {
    jobs: VecDeque<PendingRevalidation>,
    /// Whether a worker is between its spawn and the
    /// [`pop`](RevalidationQueue::pop) that found nothing.
    worker_running: bool,
}

impl RevalidationQueue {
    /// Queues `job` (spawn-if-idle is the caller's half: see [`Pushed`]).
    pub fn push(&self, job: PendingRevalidation) -> Pushed {
        let mut state = self.state.lock().expect("revalidation queue poisoned");
        if state.jobs.len() >= MAX_PENDING_REVALIDATIONS {
            let dropped = state.jobs.len() + 1;
            state.jobs.clear();
            return Pushed::Dropped(dropped);
        }
        state.jobs.push_back(job);
        if std::mem::replace(&mut state.worker_running, true) {
            Pushed::Queued
        } else {
            Pushed::StartWorker
        }
    }

    /// The worker's next job; `None` retires the worker (under the same
    /// lock as `push`'s check, so a job is never left without one).
    pub fn pop(&self) -> Option<PendingRevalidation> {
        let mut state = self.state.lock().expect("revalidation queue poisoned");
        let job = state.jobs.pop_front();
        state.worker_running = job.is_some();
        job
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
        let reactor_thread = reactor::spawn(Arc::clone(&shared), listener)?;
        Ok(ServerHandle { shared, reactor_thread: Mutex::new(Some(reactor_thread)) })
    }
}

/// Owns the reactor thread; dropping it shuts the server down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    reactor_thread: Mutex<Option<JoinHandle<()>>>,
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
    /// client `SHUTDOWN` request).
    pub fn join(&self) {
        let handle = self.reactor_thread.lock().expect("reactor handle poisoned").take();
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

    #[test]
    fn revalidation_queue_starts_one_worker_and_drops_the_whole_chain_on_overflow() {
        let (g, labelling) = hcl_core::testing::ba_fixture(200, 3, 4, 6);
        let (u, v) = (198, 199);
        assert!(!g.has_edge(u, v));
        let service = QueryService::from_parts(g, labelling, 0);
        let mut jobs = (0..).map(|i| {
            let edit = if i % 2 == 0 { EdgeEdit::Add(u, v) } else { EdgeEdit::Delete(u, v) };
            service.publish_update(edit).expect("alternating ADD/DEL is always valid").2
        });
        let queue = RevalidationQueue::default();

        assert_eq!(queue.push(jobs.next().unwrap()), Pushed::StartWorker);
        assert_eq!(queue.push(jobs.next().unwrap()), Pushed::Queued, "one worker at a time");
        // The worker takes the first job and is busy with it while the
        // queue fills behind it.
        assert!(queue.pop().is_some());
        for _ in 1..MAX_PENDING_REVALIDATIONS {
            assert_eq!(queue.push(jobs.next().unwrap()), Pushed::Queued);
        }
        assert_eq!(
            queue.push(jobs.next().unwrap()),
            Pushed::Dropped(MAX_PENDING_REVALIDATIONS + 1),
            "everything queued goes with the job that did not fit"
        );
        // The worker finds nothing and retires; the next job needs a new one.
        assert!(queue.pop().is_none());
        assert_eq!(queue.push(jobs.next().unwrap()), Pushed::StartWorker);
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_none());
    }
}
