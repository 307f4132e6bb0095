//! The shared client-connection driving loop: accept gate, read/decode,
//! frame dispatch, ordered settle, and timer-driven expiry.
//!
//! Both the `hcl-server` and `hcl-router` reactors drive client sockets
//! identically — accept up to a cap, feed bytes to the incremental
//! [`Decoder`](crate::protocol::Decoder), dispatch frames, flush ready
//! responses in request order, reap idle connections, and drain on
//! shutdown. [`ClientDriver`] owns that loop once; what *differs* (how a
//! frame becomes a response) is injected through [`DriverHooks`], so
//! resilience changes to the shared path land in one place.
//!
//! The driver deliberately does not own the epoll instance or the event
//! loop itself: the embedding reactor also waits on upstream sockets,
//! wakeups, and its own timers. It routes readiness events here by token
//! ([`TOKEN_LISTENER`] and ids at or above the `first_id` it chose) and
//! folds [`next_deadline`](ClientDriver::next_deadline) into its poll
//! timeout.
//!
//! # One settle per connection per pass
//!
//! Neither a readiness event ([`conn_event`](ClientDriver::conn_event))
//! nor a completion ([`complete`](ClientDriver::complete)) touches the
//! socket's write side: each only changes the connection's slots and
//! queues it — once — on the pass's dirty list. The embedding reactor
//! calls [`flush`](ClientDriver::flush) after it has handled every event
//! and drained every completion of the pass, and `flush` settles each
//! dirty connection exactly once: promote the ready head run, one
//! `try_write`, one epoll interest re-sync. A pass that resolved forty
//! responses for one connection therefore costs one `write` syscall, and
//! a pass that resolved one costs the same as it always did — there is no
//! timer and no size threshold, so nothing ready ever waits.
//!
//! # Bounding the idle-reap exemption
//!
//! A connection awaiting an in-flight completion shows no socket progress
//! through no fault of the client, so it is exempt from the idle timeout.
//! Unbounded, that exemption is a leak: a completion lost to a failed
//! upstream would pin the connection (and its slot queue) forever. When
//! [`DriverConfig::completion_deadline`] is set, a connection that has
//! seen *no completion progress* for that long is reaped anyway — the
//! deadline should cover the full retry/backoff budget of whatever
//! produces the completions, so it only fires when a response can no
//! longer arrive.

use super::conn::Conn;
use super::fault;
use super::sys::{self, Epoll};
use crate::protocol::Frame;
use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// epoll token for the listener.
pub const TOKEN_LISTENER: u64 = 0;
/// epoll token conventionally reserved for the embedder's wakeup fd.
pub const TOKEN_WAKE: u64 = 1;

/// Reads performed per readiness event before letting other connections
/// run (level-triggered epoll re-reports leftover data).
const MAX_READS_PER_EVENT: usize = 16;
/// Scratch read-buffer size.
const READ_CHUNK: usize = 16 * 1024;
/// How long the listener stays deregistered after a persistent accept
/// failure (e.g. fd exhaustion under a connection flood) so the reactor
/// doesn't busy-spin on a level-triggered error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Limits and timeouts for the shared connection loop.
pub struct DriverConfig {
    /// Accept cap; connections past it get `capacity_line` and a close.
    pub max_connections: usize,
    /// Reap connections with no socket activity for this long (zero
    /// disables; awaiting connections are exempt, see module docs).
    pub idle_timeout: Duration,
    /// How long a drain waits for connections to finish before
    /// force-closing them.
    pub drain_grace: Duration,
    /// Bound on the idle-reap exemption for connections awaiting
    /// completions; `None` leaves the exemption unbounded.
    pub completion_deadline: Option<Duration>,
    /// Courtesy line written to connections rejected at the accept cap
    /// (must include the trailing newline).
    pub capacity_line: &'static str,
}

/// What the embedding reactor plugs into the shared loop.
pub trait DriverHooks {
    /// Dispatches one decoded frame: fill a slot inline, or claim a
    /// waiting slot and arrange for a later
    /// [`complete`](ClientDriver::complete). The epoll is passed through
    /// for hooks that must register new fds (e.g. upstream connects).
    fn on_frame(&mut self, epoll: &Epoll, conn: &mut Conn, id: u64, frame: Frame);
    /// Every frame one readiness event decoded on `conn` has been
    /// dispatched: hooks that gather frames across a read pass (the
    /// server's run of `QUERY`s) hand the gathered work off here. Called
    /// once per [`conn_event`](ClientDriver::conn_event) that read, even
    /// when the read ended in an error and the connection is about to be
    /// closed, so gathered state can never leak into the next connection.
    fn on_read_pass_end(&mut self, _conn: &mut Conn, _id: u64) {}
    /// `syscalls` socket `write`s were just issued for one connection's
    /// settle (the amortisation counter behind `socket_writes`).
    fn on_socket_writes(&mut self, _syscalls: u64) {}
    /// A connection was accepted and registered.
    fn on_accepted(&mut self) {}
    /// A connection was turned away at the accept cap.
    fn on_rejected(&mut self) {}
    /// A connection was reaped by the idle timer or completion deadline.
    fn on_reaped(&mut self) {}
    /// A connection was closed (every path, including reaps).
    fn on_closed(&mut self) {}
}

/// Owns every client connection of one reactor; see module docs.
pub struct ClientDriver {
    config: DriverConfig,
    /// `None` once a drain has begun (the port closes immediately) or
    /// while accept errors are backing off.
    listener: Option<TcpListener>,
    /// Set while the listener is parked after a persistent accept error.
    relisten_at: Option<Instant>,
    conns: HashMap<u64, Conn>,
    /// Connections touched since the last [`flush`](Self::flush), each
    /// listed once (`Conn::dirty` dedupes).
    dirty: Vec<u64>,
    next_id: u64,
    draining: bool,
    drain_deadline: Option<Instant>,
    scratch: Vec<u8>,
}

impl ClientDriver {
    /// Registers the (already nonblocking) listener under
    /// [`TOKEN_LISTENER`]. Connection ids start at `first_id` and are
    /// never reused, so a completion for a closed connection just misses
    /// the map; the embedder picks `first_id` above its own tokens.
    pub fn new(
        epoll: &Epoll,
        listener: TcpListener,
        first_id: u64,
        config: DriverConfig,
    ) -> io::Result<ClientDriver> {
        epoll.add(listener.as_raw_fd(), sys::EPOLLIN, TOKEN_LISTENER)?;
        Ok(ClientDriver {
            config,
            listener: Some(listener),
            relisten_at: None,
            conns: HashMap::new(),
            dirty: Vec::new(),
            next_id: first_id,
            draining: false,
            drain_deadline: None,
            scratch: vec![0u8; READ_CHUNK],
        })
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Whether the drain has finished (no connections left).
    pub fn is_drained(&self) -> bool {
        self.draining && self.conns.is_empty()
    }

    /// Open client connections.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Accepts as many pending connections as the cap allows.
    pub fn accept_ready<H: DriverHooks>(&mut self, epoll: &Epoll, now: Instant, hooks: &mut H) {
        loop {
            let Some(listener) = &self.listener else { return };
            // Injected accept failures (EMFILE floods, EINTR) take the
            // same arms a real kernel verdict would.
            let accepted = match fault::check(fault::Op::Accept) {
                fault::Verdict::Proceed => listener.accept(),
                fault::Verdict::Fail(e) => Err(e),
                fault::Verdict::Short(_) | fault::Verdict::Eof => {
                    Err(io::ErrorKind::WouldBlock.into())
                }
            };
            match accepted {
                Ok((stream, _peer)) => {
                    if self.conns.len() >= self.config.max_connections {
                        hooks.on_rejected();
                        // Best-effort courtesy line; the close is the
                        // real signal.
                        let _ = stream.set_nonblocking(true);
                        use std::io::Write;
                        let _ = (&stream).write(self.config.capacity_line.as_bytes());
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let id = self.next_id;
                    self.next_id += 1;
                    let mut conn = Conn::new(stream, now);
                    let interest = conn.desired_interest();
                    if epoll.add(conn.stream.as_raw_fd(), interest, id).is_err() {
                        continue;
                    }
                    conn.registered = interest;
                    hooks.on_accepted();
                    self.conns.insert(id, conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Persistent accept failure: park the listener briefly
                    // instead of spinning on a level-triggered error.
                    let listener = self.listener.take().expect("listener present");
                    let _ = epoll.delete(listener.as_raw_fd());
                    self.listener = Some(listener);
                    self.relisten_at = Some(now + ACCEPT_BACKOFF);
                    return;
                }
            }
        }
    }

    /// Handles readiness on connection `id`: read, decode, dispatch
    /// frames through `hooks`, and queue the connection for this pass's
    /// [`flush`](Self::flush) (which also serves a bare `EPOLLOUT`).
    pub fn conn_event<H: DriverHooks>(
        &mut self,
        epoll: &Epoll,
        id: u64,
        bits: u32,
        now: Instant,
        hooks: &mut H,
    ) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0
            && !Self::read_and_decode(&mut self.scratch, epoll, conn, id, now, hooks)
        {
            self.close(epoll, id, hooks);
            return;
        }
        Self::mark_dirty(&mut self.dirty, conn, id);
    }

    /// Reads available bytes, decodes frames, dispatches them. Returns
    /// `false` when the connection is already unusable (read error).
    fn read_and_decode<H: DriverHooks>(
        scratch: &mut [u8],
        epoll: &Epoll,
        conn: &mut Conn,
        id: u64,
        now: Instant,
        hooks: &mut H,
    ) -> bool {
        let mut alive = true;
        for _ in 0..MAX_READS_PER_EVENT {
            if !conn.wants_read() {
                break;
            }
            match conn.try_read(scratch) {
                Ok(Some(0)) => {
                    // Peer EOF: what was received still gets answered
                    // (including a trailing unterminated line), then the
                    // connection drains and closes.
                    conn.decoder.finish();
                    conn.draining = true;
                }
                Ok(Some(n)) => {
                    conn.last_activity = now;
                    conn.decoder.feed(&scratch[..n]);
                }
                Ok(None) => break,
                Err(_) => {
                    alive = false;
                    break;
                }
            }
            while let Some(frame) = conn.decoder.next_frame() {
                hooks.on_frame(epoll, conn, id, frame);
                if conn.draining {
                    break;
                }
            }
            if conn.draining {
                break;
            }
            conn.promote_ready();
            conn.update_backpressure();
        }
        // A drain (EOF / SHUTDOWN / corrupt framing) may leave final
        // frames decoded but unprocessed only when `draining` stopped the
        // loop — the decoder is either dead or empty then, nothing is
        // lost.
        hooks.on_read_pass_end(conn, id);
        alive
    }

    /// Resolves slots of connection `id` — `(seq, line)` per reply, one
    /// map lookup for all of them — and queues the connection for this
    /// pass's [`flush`](Self::flush); no socket work happens here.
    /// Completions for closed connections are dropped (ids are never
    /// reused, so they just miss the map).
    pub fn complete(
        &mut self,
        id: u64,
        replies: impl IntoIterator<Item = (u64, String)>,
        now: Instant,
    ) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return; // connection closed while the work was in flight
        };
        for (seq, line) in replies {
            conn.complete(seq, line);
        }
        // Completion progress restarts the no-progress clock (the settle
        // in `flush` re-derives `None` if nothing is waiting anymore).
        conn.waiting_since = Some(now);
        Self::mark_dirty(&mut self.dirty, conn, id);
    }

    fn mark_dirty(dirty: &mut Vec<u64>, conn: &mut Conn, id: u64) {
        if !conn.dirty {
            conn.dirty = true;
            dirty.push(id);
        }
    }

    /// Settles every connection touched since the last call, once each:
    /// promote, one `try_write`, one interest re-sync. The embedding
    /// reactor calls this once per pass, after its events and completions.
    pub fn flush<H: DriverHooks>(&mut self, epoll: &Epoll, now: Instant, hooks: &mut H) {
        let mut dirty = std::mem::take(&mut self.dirty);
        for id in dirty.drain(..) {
            let Some(conn) = self.conns.get_mut(&id) else { continue };
            conn.dirty = false;
            if !Self::settle(epoll, conn, id, now, hooks) {
                self.close(epoll, id, hooks);
            }
        }
        // Hand the (empty) buffer back so the list keeps its capacity.
        self.dirty = dirty;
    }

    /// Promotes/flushes responses and re-syncs epoll interest. Returns
    /// `false` when the connection should be closed.
    fn settle<H: DriverHooks>(
        epoll: &Epoll,
        conn: &mut Conn,
        id: u64,
        now: Instant,
        hooks: &mut H,
    ) -> bool {
        conn.promote_ready();
        if conn.write_pending() > 0 {
            let before = conn.write_syscalls;
            let written = conn.try_write();
            hooks.on_socket_writes(conn.write_syscalls - before);
            match written {
                Ok(written) => {
                    if written > 0 {
                        conn.last_activity = now;
                    }
                }
                Err(_) => return false,
            }
        }
        conn.update_backpressure();
        if conn.awaiting_completions() {
            if conn.waiting_since.is_none() {
                conn.waiting_since = Some(now);
            }
        } else {
            conn.waiting_since = None;
        }
        if conn.draining && !conn.has_work() {
            return false;
        }
        let want = conn.desired_interest();
        if want != conn.registered && epoll.modify(conn.stream.as_raw_fd(), want, id).is_err() {
            return false;
        }
        conn.registered = want;
        true
    }

    /// Stops accepting, closes the port, and puts every connection into
    /// draining: outstanding requests finish, buffers flush, then each
    /// socket closes. `drain_grace` bounds how long a stuck client can
    /// hold this up.
    pub fn begin_drain<H: DriverHooks>(&mut self, epoll: &Epoll, now: Instant, hooks: &mut H) {
        self.draining = true;
        self.drain_deadline = Some(now + self.config.drain_grace);
        self.relisten_at = None;
        if let Some(listener) = self.listener.take() {
            let _ = epoll.delete(listener.as_raw_fd());
        }
        // Every connection settles on this pass's flush (idle ones with
        // nothing owed close there).
        for (&id, conn) in &mut self.conns {
            conn.draining = true;
            Self::mark_dirty(&mut self.dirty, conn, id);
        }
        self.flush(epoll, now, hooks);
    }

    /// Fires timer-driven transitions: accept-backoff expiry, idle
    /// timeouts, completion deadlines, and the drain deadline.
    pub fn expire<H: DriverHooks>(&mut self, epoll: &Epoll, now: Instant, hooks: &mut H) {
        if let Some(at) = self.relisten_at {
            if now >= at && !self.draining {
                self.relisten_at = None;
                if let Some(listener) = &self.listener {
                    let _ = epoll.add(listener.as_raw_fd(), sys::EPOLLIN, TOKEN_LISTENER);
                }
            }
        }
        if self.draining {
            if self.drain_deadline.is_some_and(|at| now >= at) {
                // Grace expired: force-close whatever is left.
                for (_, conn) in std::mem::take(&mut self.conns) {
                    Self::destroy(epoll, conn, hooks);
                }
            }
            return;
        }
        let idle = self.config.idle_timeout;
        let completion = self.config.completion_deadline;
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                if c.awaiting_completions() {
                    // Exempt from the idle timer, but the exemption is
                    // bounded: no completion progress for the whole
                    // deadline means the response is never coming.
                    match (completion, c.waiting_since) {
                        (Some(d), Some(since)) => now.saturating_duration_since(since) >= d,
                        _ => false,
                    }
                } else {
                    !idle.is_zero() && now.saturating_duration_since(c.last_activity) >= idle
                }
            })
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            hooks.on_reaped();
            self.close(epoll, id, hooks);
        }
    }

    /// The nearest timer deadline the embedder must wake for, or `None`
    /// to block indefinitely.
    pub fn next_deadline(&self) -> Option<Instant> {
        let mut deadline = self.drain_deadline;
        let mut fold = |at: Option<Instant>| {
            if let Some(at) = at {
                deadline = Some(deadline.map_or(at, |d| d.min(at)));
            }
        };
        fold(self.relisten_at);
        if !self.draining {
            // Mirror the expire() filter exactly: an awaiting connection
            // is driven by the completion deadline (if any), everything
            // else by the idle timer.
            let idle = self.config.idle_timeout;
            let completion = self.config.completion_deadline;
            for c in self.conns.values() {
                if c.awaiting_completions() {
                    if let (Some(d), Some(since)) = (completion, c.waiting_since) {
                        fold(Some(since + d));
                    }
                } else if !idle.is_zero() {
                    fold(Some(c.last_activity + idle));
                }
            }
        }
        deadline
    }

    /// Removes connection `id` from the map and destroys it.
    fn close<H: DriverHooks>(&mut self, epoll: &Epoll, id: u64, hooks: &mut H) {
        if let Some(conn) = self.conns.remove(&id) {
            Self::destroy(epoll, conn, hooks);
        }
    }

    /// Deregisters and drops a connection (the close happens on drop).
    fn destroy<H: DriverHooks>(epoll: &Epoll, conn: Conn, hooks: &mut H) {
        let _ = epoll.delete(conn.stream.as_raw_fd());
        hooks.on_closed();
        drop(conn);
    }
}

/// Milliseconds until `deadline` for an epoll wait, or −1 to block
/// forever. Adds 1 ms so the wakeup lands at-or-after the deadline, not a
/// hair before it (which would spin once).
pub fn deadline_to_timeout_ms(deadline: Option<Instant>) -> i32 {
    match deadline {
        Some(at) => {
            let ms = at.saturating_duration_since(Instant::now()).as_millis() as i64 + 1;
            ms.min(i32::MAX as i64) as i32
        }
        None => -1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::sys::EpollEvent;
    use std::io::Write;
    use std::net::TcpStream;

    /// Answers PING inline and parks every QUERY in a slot that is never
    /// completed — the "completion lost to a failed upstream" scenario.
    #[derive(Default)]
    struct LossyHooks {
        reaped: usize,
        closed: usize,
    }

    impl DriverHooks for LossyHooks {
        fn on_frame(&mut self, _epoll: &Epoll, conn: &mut Conn, _id: u64, frame: Frame) {
            match frame {
                Frame::Ping => conn.push_ready("PONG".to_string()),
                Frame::Query(..) => {
                    conn.push_waiting();
                }
                _ => conn.push_ready("ERR unsupported".to_string()),
            }
        }
        fn on_reaped(&mut self) {
            self.reaped += 1;
        }
        fn on_closed(&mut self) {
            self.closed += 1;
        }
    }

    fn harness(config: DriverConfig) -> (Epoll, ClientDriver, std::net::SocketAddr) {
        let epoll = Epoll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let driver = ClientDriver::new(&epoll, listener, 2, config).unwrap();
        (epoll, driver, addr)
    }

    /// Pumps the event loop for `dur`, mimicking an embedding reactor.
    fn spin(epoll: &Epoll, driver: &mut ClientDriver, hooks: &mut LossyHooks, dur: Duration) {
        let start = Instant::now();
        let mut events = [EpollEvent::default(); 16];
        while start.elapsed() < dur {
            let timeout = deadline_to_timeout_ms(driver.next_deadline()).clamp(-1, 20);
            let timeout = if timeout < 0 { 20 } else { timeout };
            let fired = epoll.wait(&mut events, timeout).unwrap_or_default();
            let now = Instant::now();
            for event in &events[..fired] {
                let (token, bits) = (event.data, event.events);
                match token {
                    TOKEN_LISTENER => driver.accept_ready(epoll, now, hooks),
                    TOKEN_WAKE => {}
                    id => driver.conn_event(epoll, id, bits, now, hooks),
                }
            }
            driver.flush(epoll, now, hooks);
            driver.expire(epoll, now, hooks);
        }
    }

    #[test]
    fn completion_deadline_reaps_a_pinned_connection() {
        let (epoll, mut driver, addr) = harness(DriverConfig {
            max_connections: 4,
            idle_timeout: Duration::from_secs(600),
            drain_grace: Duration::from_secs(1),
            completion_deadline: Some(Duration::from_millis(80)),
            capacity_line: "ERR at capacity\n",
        });
        let mut hooks = LossyHooks::default();
        let mut client = TcpStream::connect(addr).unwrap();
        // The QUERY's completion never arrives; the PING behind it can
        // never flush, so without the deadline this pins forever.
        client.write_all(b"QUERY 1 2\nPING\n").unwrap();
        spin(&epoll, &mut driver, &mut hooks, Duration::from_millis(300));
        assert_eq!(hooks.reaped, 1, "no-progress connection reaped at the deadline");
        assert_eq!(driver.conn_count(), 0);
    }

    #[test]
    fn without_a_deadline_awaiting_connections_stay_exempt() {
        let (epoll, mut driver, addr) = harness(DriverConfig {
            max_connections: 4,
            // Aggressive idle timer to prove the exemption holds.
            idle_timeout: Duration::from_millis(40),
            drain_grace: Duration::from_secs(1),
            completion_deadline: None,
            capacity_line: "ERR at capacity\n",
        });
        let mut hooks = LossyHooks::default();
        let mut awaiting = TcpStream::connect(addr).unwrap();
        awaiting.write_all(b"QUERY 1 2\n").unwrap();
        let _idle = TcpStream::connect(addr).unwrap();
        spin(&epoll, &mut driver, &mut hooks, Duration::from_millis(250));
        assert_eq!(hooks.reaped, 1, "only the idle connection is reaped");
        assert_eq!(driver.conn_count(), 1, "the awaiting connection survives");
    }

    #[test]
    fn completion_progress_resets_the_deadline_clock() {
        let (epoll, mut driver, addr) = harness(DriverConfig {
            max_connections: 4,
            idle_timeout: Duration::from_secs(600),
            drain_grace: Duration::from_secs(1),
            completion_deadline: Some(Duration::from_millis(120)),
            capacity_line: "ERR at capacity\n",
        });
        let mut hooks = LossyHooks::default();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"QUERY 1 2\nQUERY 3 4\n").unwrap();
        // Let both slots park, then resolve them one at a time, each
        // within the deadline but with the total well past it: steady
        // progress must keep the connection alive.
        spin(&epoll, &mut driver, &mut hooks, Duration::from_millis(60));
        driver.complete(2, [(0, "DIST 1".to_string())], Instant::now());
        spin(&epoll, &mut driver, &mut hooks, Duration::from_millis(60));
        driver.complete(2, [(1, "DIST 2".to_string())], Instant::now());
        spin(&epoll, &mut driver, &mut hooks, Duration::from_millis(60));
        assert_eq!(hooks.reaped, 0, "progress within each deadline window");
        assert_eq!(driver.conn_count(), 1);
    }
}
