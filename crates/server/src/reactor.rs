//! The single-threaded epoll reactor driving every connection.
//!
//! One thread owns the listener, every client socket, and an eventfd, all
//! registered in one (level-triggered) epoll set. The accept gate,
//! read/decode loop, ordered settle, and idle/drain expiry live in the
//! shared [`ClientDriver`](crate::transport::ClientDriver); this module
//! supplies the serving policy through
//! [`DriverHooks`](crate::transport::DriverHooks): frames become response
//! slots, and computation goes to the
//! [`BatchExecutor`](crate::batch::BatchExecutor) worker pool. Workers
//! never touch a socket: they append formatted responses to the
//! [`CompletionQueue`], and the reactor writes them out in request order
//! on its next pass. Thread count is therefore fixed — one reactor plus
//! the worker pool — regardless of how many connections are open.
//!
//! # A pass is the unit of work
//!
//! Every boundary on the request path carries whatever one reactor pass
//! (one `epoll_wait` return) produced, not one query:
//!
//! * **socket → executor:** the `QUERY` frames one read pass decodes on a
//!   connection are gathered into a run and handed to the executor
//!   ([`BatchExecutor::submit_queries`](crate::batch::BatchExecutor::submit_queries))
//!   when the read pass ends — or earlier, the moment any other frame is
//!   dispatched, so a `QUERY` never pins its index generation after a
//!   later `UPDATE`/`RELOAD`/`EPOCH` on the same connection was handled.
//!   The executor looks every query up in the epoch-tagged cache on this
//!   thread, so **a hit never leaves the reactor**: a run of hits fills
//!   its slots at once and goes out with this pass's write, with no job
//!   and no wake-up. Only the misses become one job, and its completion
//!   carries the answers of the whole run, hits included, so a run's
//!   replies still leave in one write. Each `QUERY` still claims its
//!   response slot *at decode time*, so neither the grouping nor the
//!   inline hits can reorder responses or loosen `MAX_INFLIGHT`, and
//!   admission and validation stay per request.
//! * **executor → reactor:** the worker finishing a job formats its
//!   responses and appends them under one lock; the queue signals the
//!   eventfd only when it goes from empty to non-empty
//!   (see [`CompletionQueue`]).
//! * **reactor → socket:** completions only fill slots; one
//!   [`flush`](crate::transport::ClientDriver::flush) per pass settles
//!   each touched connection once — one `write` per connection per pass.
//!
//! There is no batching window: a batch is exactly what one `epoll_wait`
//! return delivered, so at depth 1 a request passes through alone and
//! waits for nothing — a cache hit costs one pass and one write, a miss
//! a second pass for its completion. `reactor_passes`, `socket_writes`,
//! `wake_signals`, `executor_jobs` and `inline_hits` in `STATS`/`METRICS`
//! make the amortisation visible.
//!
//! Timers (idle timeout, shutdown drain grace, accept backoff) are epoll
//! timeouts computed from the nearest deadline; with no deadline pending
//! the reactor blocks indefinitely. There is no polling interval and no
//! self-connect wakeup: shutdown, like every other cross-thread signal, is
//! one eventfd write.

use crate::metrics::{ServeMetrics, ServeReadings};
use crate::oracle_pool::{PendingRevalidation, QueryError, QueryService};
use crate::protocol::{self, Frame};
use crate::server::{Shared, UpdateJob};
use crate::transport::conn::Conn;
use crate::transport::driver::{
    deadline_to_timeout_ms, ClientDriver, DriverConfig, DriverHooks, TOKEN_LISTENER, TOKEN_WAKE,
};
use crate::transport::sys::{Epoll, EpollEvent, EventFd};
use hcl_core::update::EdgeEdit;
use hcl_graph::VertexId;
use std::io;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// First connection id, above the listener and wake tokens.
const FIRST_CONN_ID: u64 = 2;

/// Most `UPDATE`s allowed to park on the busy gate at once; past this the
/// request is shed with `ERR busy` (overload protection, same contract as
/// the worker queue cap).
const MAX_PENDING_UPDATES: usize = 1024;

/// Drains the pending-update queue, publishing edits one at a time in
/// arrival order. Each `UPDATED` goes out once its generation is published
/// and its cache revalidation is queued for the revalidation worker, which
/// does not hold the gate. The caller must have just acquired the busy gate
/// (`reload_busy` swapped `false` → `true`); the gate is released when the
/// queue is empty, with a lost-wakeup re-check — a producer that saw the
/// gate busy after our last pop parks its job and spawns nobody, so the
/// releasing thread must re-acquire and keep draining if anything is left.
fn drain_updates_holding_gate(shared: Arc<Shared>) {
    loop {
        // Clears the gate when this scope exits, even on a panic inside
        // apply_update.
        struct Gate(Arc<Shared>);
        impl Drop for Gate {
            fn drop(&mut self) {
                self.0.reload_busy.store(false, std::sync::atomic::Ordering::Release);
            }
        }
        let gate = Gate(Arc::clone(&shared));
        // The drain's last completion, held back until the gate is free.
        let held = loop {
            // Pop under a short lock; the apply itself runs unlocked so
            // the reactor can keep parking new jobs meanwhile.
            let (job, last) = {
                let mut pending = shared.pending_updates.lock().expect("update queue poisoned");
                (pending.pop_front(), pending.is_empty())
            };
            let Some(job) = job else { break None };
            let line = match shared.service.publish_update(job.edit) {
                Ok((epoch, affected, pending)) => {
                    hand_off_revalidation(&shared, pending);
                    protocol::format_update_response(epoch, affected)
                }
                Err(e) => {
                    ServeMetrics::bump(&shared.service.metrics().errors);
                    protocol::format_error(e)
                }
            };
            let done = Completion::one(job.conn, job.seq, line);
            if last {
                break Some(done);
            }
            shared.queue.push(done);
        };
        // Release the gate before the last response is visible (the order
        // the RELOAD thread uses): a client that reads `UPDATED` and sends
        // `RELOAD` at once must not find the gate still held by us.
        drop(gate);
        if let Some(done) = held {
            shared.queue.push(done);
        }
        if shared.pending_updates.lock().expect("update queue poisoned").is_empty()
            || shared.reload_busy.swap(true, std::sync::atomic::Ordering::AcqRel)
        {
            return;
        }
    }
}

/// Queues the cache revalidation of a published update for the server's
/// revalidation worker, which holds no gate.
fn hand_off_revalidation(shared: &Shared, pending: PendingRevalidation) {
    let dropped = shared.revalidations.push(pending);
    ServeMetrics::add(&shared.service.metrics().revalidations_dropped, dropped as u64);
}

/// Gate-release hook shared by everything that holds the busy gate for
/// non-update work (a `RELOAD` thread): after releasing, pick up any
/// `UPDATE`s that parked while the gate was held.
fn drain_parked_updates(shared: &Arc<Shared>) {
    if shared.pending_updates.lock().expect("update queue poisoned").is_empty() {
        return;
    }
    if shared.reload_busy.swap(true, std::sync::atomic::Ordering::AcqRel) {
        return;
    }
    drain_updates_holding_gate(Arc::clone(shared));
}

/// One finished unit of asynchronous work — a job's responses, or the
/// one response of a `RELOAD`/`UPDATE` — addressed to response slots of
/// one connection.
pub(crate) struct Completion {
    pub conn: u64,
    /// `(slot, response line)` for each request the work answered.
    pub replies: Vec<(u64, String)>,
}

impl Completion {
    /// The completion of a single request.
    pub fn one(conn: u64, seq: u64, line: String) -> Completion {
        Completion { conn, replies: vec![(seq, line)] }
    }
}

/// The channel from worker/reload threads back into the reactor: a locked
/// vector plus the eventfd that wakes the epoll wait. Also the shutdown
/// wakeup (a bare [`wake`](Self::wake) with the flag already flipped).
///
/// # Edge-only signalling
///
/// A push signals the eventfd only when it finds the queue empty. That
/// cannot lose a wake-up because of the order the reactor works in: it
/// clears the signal *first* (when the wake token fires) and drains the
/// *whole* queue afterwards, unconditionally, on every pass. So whenever
/// the queue is non-empty, either the signal of the push that made it so
/// is still pending (the reactor will wake, clear, and drain), or the
/// reactor is between its clear and its drain and is about to take
/// everything — a push that lands on a non-empty queue is covered by one
/// of the two and has nothing to add. A burst of completions therefore
/// costs one eventfd write, not one each; the worst case of the races
/// around the drain is a spurious wake-up that finds the queue empty.
pub(crate) struct CompletionQueue {
    items: Mutex<Vec<Completion>>,
    wake: EventFd,
    /// Owner of the `wake_signals` counter.
    service: Arc<QueryService>,
}

impl CompletionQueue {
    pub fn new(service: Arc<QueryService>) -> io::Result<CompletionQueue> {
        Ok(CompletionQueue { items: Mutex::new(Vec::new()), wake: EventFd::new()?, service })
    }

    /// Queues one completion — however many replies it carries, one
    /// locked push — waking the reactor if the queue was empty (see the
    /// type docs).
    pub fn push(&self, completion: Completion) {
        let was_empty = {
            let mut items = self.items.lock().expect("completion queue poisoned");
            let was_empty = items.is_empty();
            items.push(completion);
            was_empty
        };
        if was_empty {
            self.wake();
        }
    }

    /// Wakes the reactor without queueing anything (shutdown).
    pub fn wake(&self) {
        ServeMetrics::bump(&self.service.metrics().wake_signals);
        self.wake.signal();
    }

    fn drain_into(&self, out: &mut Vec<Completion>) {
        out.append(&mut *self.items.lock().expect("completion queue poisoned"));
    }

    fn wake_fd(&self) -> std::os::fd::RawFd {
        self.wake.raw()
    }

    fn clear_signal(&self) {
        self.wake.drain();
    }
}

/// The response line of one `QUERY`; an error is counted in `errors`
/// (a deadline expiry once per request here, and once per job in
/// `deadline_expired` by the executor).
fn query_reply(service: &QueryService, answer: Result<Option<u32>, QueryError>) -> String {
    match answer {
        Ok(d) => protocol::format_query_response(d),
        Err(e) => {
            ServeMetrics::bump(&service.metrics().errors);
            protocol::format_error(e)
        }
    }
}

/// The serving policy plugged into the shared connection driver.
struct ServerHooks {
    shared: Arc<Shared>,
    /// The `QUERY` frames of the connection currently being read, as
    /// `(slot, s, t)`, waiting for [`flush_run`](Self::flush_run). Empty
    /// between connections: every read pass ends by flushing it.
    run: Vec<(u64, VertexId, VertexId)>,
}

impl ServerHooks {
    /// Hands the gathered run of `QUERY`s to the executor. A run it
    /// answers on this thread — cache hits, and refusals (shed at the
    /// queue cap, vertex out of range) — fills its slots here, in this
    /// pass. A run with misses is answered whole by the completion of the
    /// one job those misses became, so its replies still leave in one
    /// write.
    fn flush_run(&mut self, conn: &mut Conn, id: u64) {
        if self.run.is_empty() {
            return;
        }
        // The next run starts out sized like this one.
        let next = Vec::with_capacity(self.run.len());
        let run = std::mem::replace(&mut self.run, next);
        let owner = Arc::clone(&self.shared);
        let answered = self.shared.executor.submit_queries(run, move |answers| {
            let service = &owner.service;
            let replies =
                answers.into_iter().map(|(seq, a)| (seq, query_reply(service, a))).collect();
            owner.queue.push(Completion { conn: id, replies });
        });
        for (seq, answer) in answered {
            conn.complete(seq, query_reply(&self.shared.service, answer));
        }
    }

    /// Every key this process reports, in order: the counters, then the
    /// readings. `STATS` and `METRICS` both render this one list.
    fn report(&self) -> Vec<(&'static str, u64)> {
        let service = &self.shared.service;
        let config = &self.shared.config;
        let sizes = service.index_sizes();
        let cache = service.cache_stats();
        let readings = ServeReadings {
            epoch: service.epoch(),
            load_us: service.last_load_micros(),
            index_bytes: sizes.index_bytes as u64,
            sparse_bytes: sizes.sparse_bytes as u64,
            sparse_edges: sizes.sparse_edges as u64,
            sparse_relabelled: 1,
            rank_lane_bytes: sizes.rank_lane_bytes as u64,
            dist_lane_bytes: sizes.dist_lane_bytes as u64,
            store_bytes: sizes.store_bytes as u64,
            plain_index_bytes: sizes.plain_index_bytes as u64,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_stale: cache.stale,
            cache_evictions: cache.evictions,
            cache_entries: cache.entries as u64,
            cache_capacity: cache.capacity as u64,
            max_connections: config.max_connections as u64,
            idle_timeout_ms: config.idle_timeout.as_millis() as u64,
            drain_grace_ms: config.drain_grace.as_millis() as u64,
        };
        let mut report = service.metrics_snapshot().pairs();
        report.extend(readings.pairs());
        report
    }
}

impl DriverHooks for ServerHooks {
    /// Dispatches one decoded frame: inline responses fill their slot now,
    /// work goes to the executor (or a reload thread) with a completion
    /// keyed to this connection.
    fn on_frame(&mut self, _epoll: &Epoll, conn: &mut Conn, id: u64, frame: Frame) {
        // Any frame but a QUERY ends the run first, so the queries before
        // it are submitted (and pin their generation) before it takes
        // effect.
        if !matches!(frame, Frame::Query(..)) {
            self.flush_run(conn, id);
        }
        let shared = &self.shared;
        let metrics = shared.service.metrics();
        match frame {
            // The slot is claimed now — that alone fixes the response
            // order; the executor hand-off waits for the rest of the run.
            Frame::Query(s, t) => self.run.push((conn.push_waiting(), s, t)),
            Frame::Ping => conn.push_ready("PONG".to_string()),
            Frame::Epoch => {
                conn.push_ready(protocol::format_epoch_response(shared.service.epoch()));
            }
            Frame::Stats => conn.push_ready(protocol::format_stats_response(&self.report())),
            Frame::Metrics => {
                let json =
                    format!("{{\"role\":\"server\",{}}}", protocol::json_members(&self.report()));
                conn.push_ready(protocol::format_metrics_response(&json));
            }
            Frame::Batch(pairs) => {
                let seq = conn.push_waiting();
                let queue = Arc::clone(&shared.queue);
                let owner = Arc::clone(shared);
                let submitted = shared.executor.submit(
                    pairs,
                    Box::new(move |distances| {
                        let line = match distances {
                            Ok(distances) => protocol::format_batch_response(&distances),
                            Err(e) => {
                                ServeMetrics::bump(&owner.service.metrics().errors);
                                protocol::format_error(e)
                            }
                        };
                        queue.push(Completion::one(id, seq, line));
                    }),
                );
                if let Err(e) = submitted {
                    ServeMetrics::bump(&metrics.errors);
                    conn.complete(seq, protocol::format_error(e));
                }
            }
            Frame::Reload { graph, index } => {
                // Loading/rebuilding is far too slow for the reactor; a
                // short-lived thread does it and completes like a worker.
                // Every other connection keeps serving the old epoch until
                // the final pointer swap. At most one reload runs at a
                // time — the gate refuses the rest so a pipelined RELOAD
                // flood cannot fan out into concurrent full-index builds.
                let seq = conn.push_waiting();
                if shared.reload_busy.swap(true, std::sync::atomic::Ordering::AcqRel) {
                    ServeMetrics::bump(&metrics.errors);
                    conn.complete(seq, protocol::format_error("reload already in progress"));
                } else {
                    let queue = Arc::clone(&shared.queue);
                    let shared = Arc::clone(shared);
                    let reload = move || {
                        // Clears the gate when the thread exits, even on a
                        // panic inside the load/build.
                        struct Gate(Arc<Shared>);
                        impl Drop for Gate {
                            fn drop(&mut self) {
                                self.0
                                    .reload_busy
                                    .store(false, std::sync::atomic::Ordering::Release);
                            }
                        }
                        let gate = Gate(Arc::clone(&shared));
                        let line = match shared.service.reload_from_paths(
                            &graph,
                            index.as_deref(),
                            shared.config.reload_landmarks,
                        ) {
                            Ok(epoch) => protocol::format_reload_response(epoch),
                            Err(e) => {
                                ServeMetrics::bump(&shared.service.metrics().errors);
                                protocol::format_error(e)
                            }
                        };
                        // Release the gate before the response is visible:
                        // a client that pipelines its next RELOAD right
                        // after reading this line must not race the drop.
                        drop(gate);
                        queue.push(Completion::one(id, seq, line));
                        // UPDATEs that arrived during the reload parked
                        // themselves; apply them now the gate is free.
                        drain_parked_updates(&shared);
                    };
                    spawn_named("hcl-reload", reload);
                }
            }
            Frame::Update { add, u, v } => {
                // An incremental edit is orders of magnitude cheaper than
                // a rebuild, but its affected-set search is unbounded, it
                // clones the chunk tables and copies chunks, and the edit
                // that moves a landmark distance rewrites every label
                // chunk, so it runs off-reactor, serialised with RELOAD
                // through the same busy gate. Unlike RELOAD, concurrent and pipelined
                // UPDATEs queue instead of being refused: each is applied
                // in arrival order and publishes its own epoch.
                let seq = conn.push_waiting();
                let edit = if add { EdgeEdit::Add(u, v) } else { EdgeEdit::Delete(u, v) };
                {
                    let mut pending = shared.pending_updates.lock().expect("update queue poisoned");
                    if pending.len() >= MAX_PENDING_UPDATES {
                        drop(pending);
                        ServeMetrics::bump(&metrics.shed_requests);
                        conn.complete(seq, protocol::format_error("busy"));
                        return;
                    }
                    pending.push_back(UpdateJob { edit, conn: id, seq });
                }
                if !shared.reload_busy.swap(true, std::sync::atomic::Ordering::AcqRel) {
                    let shared = Arc::clone(shared);
                    spawn_named("hcl-update", move || drain_updates_holding_gate(shared));
                }
            }
            Frame::Shutdown => {
                conn.push_ready("BYE".to_string());
                conn.draining = true;
                shared.begin_shutdown();
            }
            Frame::Invalid(e) => {
                ServeMetrics::bump(&metrics.errors);
                conn.push_ready(protocol::format_error(e));
            }
            Frame::Corrupt(e) => {
                ServeMetrics::bump(&metrics.errors);
                conn.push_ready(protocol::format_error(e));
                conn.draining = true;
            }
        }
    }

    fn on_read_pass_end(&mut self, conn: &mut Conn, id: u64) {
        self.flush_run(conn, id);
    }

    fn on_socket_writes(&mut self, syscalls: u64) {
        ServeMetrics::add(&self.shared.service.metrics().socket_writes, syscalls);
    }

    fn on_accepted(&mut self) {
        let metrics = self.shared.service.metrics();
        ServeMetrics::bump(&metrics.connections);
        ServeMetrics::bump(&metrics.active_connections);
    }

    fn on_rejected(&mut self) {
        ServeMetrics::bump(&self.shared.service.metrics().rejected_connections);
    }

    fn on_reaped(&mut self) {
        ServeMetrics::bump(&self.shared.service.metrics().timed_out_connections);
    }

    fn on_closed(&mut self) {
        ServeMetrics::drop_one(&self.shared.service.metrics().active_connections);
    }
}

/// The event loop; owned by the one reactor thread.
pub(crate) struct Reactor {
    epoll: Epoll,
    driver: ClientDriver,
    hooks: ServerHooks,
}

impl Reactor {
    /// Registers the listener and wake fd; the listener must already be
    /// nonblocking.
    pub fn new(shared: Arc<Shared>, listener: TcpListener) -> io::Result<Reactor> {
        let epoll = Epoll::new()?;
        epoll.add(shared.queue.wake_fd(), crate::transport::sys::EPOLLIN, TOKEN_WAKE)?;
        let driver = ClientDriver::new(
            &epoll,
            listener,
            FIRST_CONN_ID,
            DriverConfig {
                max_connections: shared.config.max_connections,
                idle_timeout: shared.config.idle_timeout,
                drain_grace: shared.config.drain_grace,
                // A server completion can legitimately take minutes (a
                // RELOAD rebuild), so the exemption stays unbounded here;
                // the router, whose completions have a retry budget,
                // bounds it.
                completion_deadline: None,
                capacity_line: "ERR server at connection capacity\n",
            },
        )?;
        Ok(Reactor { epoll, driver, hooks: ServerHooks { shared, run: Vec::new() } })
    }

    /// Runs until shutdown has begun and every connection has drained.
    pub fn run(mut self) {
        let mut events = vec![EpollEvent::default(); 256];
        let mut completions: Vec<Completion> = Vec::new();
        loop {
            let timeout = deadline_to_timeout_ms(self.driver.next_deadline());
            let fired = self.epoll.wait(&mut events, timeout).unwrap_or_default();
            let now = Instant::now();
            for event in &events[..fired] {
                // Copy out of the (packed) event before use.
                let (token, bits) = (event.data, event.events);
                match token {
                    TOKEN_LISTENER => self.driver.accept_ready(&self.epoll, now, &mut self.hooks),
                    // Clear-then-drain: the clear must come before the
                    // drain below (CompletionQueue's edge-only signalling
                    // relies on it).
                    TOKEN_WAKE => self.hooks.shared.queue.clear_signal(),
                    id => self.driver.conn_event(&self.epoll, id, bits, now, &mut self.hooks),
                }
            }
            // Unconditional, every pass, whether or not the wake fired.
            self.hooks.shared.queue.drain_into(&mut completions);
            for Completion { conn, replies } in completions.drain(..) {
                self.driver.complete(conn, replies, now);
            }
            // One settle — one write — per connection this pass touched.
            self.driver.flush(&self.epoll, now, &mut self.hooks);
            ServeMetrics::bump(&self.hooks.shared.service.metrics().reactor_passes);
            if self.hooks.shared.shutting_down() && !self.driver.is_draining() {
                self.driver.begin_drain(&self.epoll, now, &mut self.hooks);
            }
            self.driver.expire(&self.epoll, now, &mut self.hooks);
            if self.driver.is_drained() {
                return;
            }
        }
    }
}

/// Wires a [`Reactor`] onto a (nonblocking) listener and runs it on the
/// one serving thread. Registration happens before the spawn so setup
/// errors surface from `Server::bind`.
pub(crate) fn spawn(
    shared: Arc<Shared>,
    listener: TcpListener,
) -> io::Result<std::thread::JoinHandle<()>> {
    let reactor = Reactor::new(shared, listener)?;
    std::thread::Builder::new().name("hcl-reactor".to_string()).spawn(move || reactor.run())
}

/// Spawns a detached, named helper thread (`RELOAD` / `UPDATE` work), so
/// `top -H` on a live server says what each thread is for.
fn spawn_named(name: &str, work: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new().name(name.to_string()).spawn(work).expect("spawn helper thread");
}
