//! Per-connection state for an epoll event loop: a nonblocking socket,
//! the incremental [`Decoder`], an ordered queue of response slots, and a
//! write buffer with backpressure. Driven by the `hcl-server` reactor and
//! reused verbatim for `hcl-router`'s client connections.
//!
//! # Response ordering
//!
//! Requests may be answered out of submission order (a `PING` resolves
//! inline while the `QUERY` before it is still on a worker), so every
//! request claims a *slot* in FIFO order **at decode time**. Inline
//! responses fill their slot immediately; asynchronous ones
//! ([`push_waiting`](Conn::push_waiting)) fill it when the worker's
//! completion arrives. Only the contiguous run of filled slots at the
//! head is ever moved into the write buffer, so the wire order always
//! equals the request order no matter how completions interleave — or how
//! the reactor groups requests into executor jobs afterwards.
//!
//! Every slot, ready or waiting, owns one sequence number: the slot at
//! the head of the queue is `front_seq`, the next `front_seq + 1`, and so
//! on. [`complete`](Conn::complete) therefore *indexes* the queue
//! (`seq − front_seq`) instead of scanning it, and a count of unresolved
//! slots answers [`awaiting_completions`](Conn::awaiting_completions)
//! without a walk. A sequence number outside the live window (its slot
//! already went out, or was dropped with the connection) is ignored.
//!
//! # One write per pass
//!
//! Nothing here writes to the socket on its own. Completions only fill
//! slots; the driver settles a connection — promote, one
//! [`try_write`](Conn::try_write), one interest re-sync — once per
//! reactor pass, so however many responses a pass resolved leave in one
//! `write` (`DIST 3\nDIST 4\n…`), not one syscall each.
//!
//! # Backpressure
//!
//! A client that sends requests faster than it reads responses grows the
//! write buffer; past [`WRITE_HIGH_WATER`] the connection stops *reading*
//! (its epoll interest drops `EPOLLIN`) until the buffer drains below
//! [`WRITE_LOW_WATER`]. Unresolved requests are bounded the same way:
//! past [`MAX_INFLIGHT`] queued slots reads pause until completions catch
//! up — re-establishing, in bulk, the one-request-at-a-time bound the old
//! thread-per-connection transport enforced implicitly. One fast or slow
//! client therefore bounds its own memory and never stalls the reactor.

use super::{fault, sys};
use crate::protocol::Decoder;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Stop reading once this many unsent response bytes are buffered…
pub const WRITE_HIGH_WATER: usize = 256 * 1024;
/// …and resume once the buffer drains below this.
pub const WRITE_LOW_WATER: usize = 64 * 1024;
/// Stop reading once this many response slots are queued unresolved, so a
/// pipelining client cannot grow the slot queue and the worker channel
/// without bound while its responses are still being computed.
pub const MAX_INFLIGHT: usize = 128;

/// State machine for one client connection; driven by the reactor.
#[derive(Debug)]
pub struct Conn {
    pub stream: TcpStream,
    pub decoder: Decoder,
    /// Response slots in request order: `Some(line)` is ready to go out
    /// (no trailing newline), `None` waits for its completion.
    slots: VecDeque<Option<String>>,
    /// Sequence number of `slots.front()`; slot `i` is `front_seq + i`.
    front_seq: u64,
    /// Slots still `None` (kept in step by `push_waiting` / `complete`).
    waiting: usize,
    out: Vec<u8>,
    out_pos: usize,
    /// Reads paused by write-buffer backpressure.
    reads_paused: bool,
    /// No further requests will be read (peer EOF, corrupt framing,
    /// server drain); close once the slots resolve and the buffer flushes.
    pub draining: bool,
    /// Last read or write progress (idle-timeout bookkeeping).
    pub last_activity: Instant,
    /// When the oldest stretch of unresolved waiting slots began —
    /// `Some` while [`awaiting_completions`](Self::awaiting_completions)
    /// with no completion progress since. The driver refreshes it on
    /// every completion and uses it to bound the idle-reap exemption:
    /// a completion lost forever must not pin the connection forever.
    pub waiting_since: Option<Instant>,
    /// epoll interest bits currently registered for this socket.
    pub registered: u32,
    /// Queued in the driver's settle list for the current reactor pass.
    pub(super) dirty: bool,
    /// `write` syscalls issued on this socket so far.
    pub(super) write_syscalls: u64,
}

impl Conn {
    pub fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            decoder: Decoder::new(),
            slots: VecDeque::new(),
            front_seq: 0,
            waiting: 0,
            out: Vec::new(),
            out_pos: 0,
            reads_paused: false,
            draining: false,
            last_activity: now,
            waiting_since: None,
            registered: 0,
            dirty: false,
            write_syscalls: 0,
        }
    }

    /// Queues an already-resolved response in request order.
    pub fn push_ready(&mut self, line: String) {
        self.slots.push_back(Some(line));
    }

    /// Claims the next slot for an asynchronous response; the returned
    /// sequence number keys the completion.
    pub fn push_waiting(&mut self) -> u64 {
        let seq = self.front_seq + self.slots.len() as u64;
        self.slots.push_back(None);
        self.waiting += 1;
        seq
    }

    /// Resolves the slot claimed under `seq` in O(1). A sequence number
    /// outside the live window, or one whose slot is already filled, is
    /// ignored (a stale or duplicate completion must not disturb a
    /// neighbour's slot).
    pub fn complete(&mut self, seq: u64, line: String) {
        let slot = seq
            .checked_sub(self.front_seq)
            .and_then(|i| usize::try_from(i).ok())
            .and_then(|i| self.slots.get_mut(i))
            .filter(|slot| slot.is_none());
        if let Some(slot) = slot {
            *slot = Some(line);
            self.waiting -= 1;
        }
    }

    /// Moves the contiguous ready run at the head into the write buffer.
    pub fn promote_ready(&mut self) {
        while let Some(Some(line)) = self.slots.front() {
            self.out.extend_from_slice(line.as_bytes());
            self.out.push(b'\n');
            self.slots.pop_front();
            self.front_seq += 1;
        }
    }

    /// Unsent response bytes.
    pub fn write_pending(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Anything still owed to the client (unresolved slots or unsent
    /// bytes)?
    pub fn has_work(&self) -> bool {
        !self.slots.is_empty() || self.write_pending() > 0
    }

    /// Nonblocking flush. Returns the bytes written; `Err` means the
    /// connection is unusable and should be closed.
    pub fn try_write(&mut self) -> io::Result<usize> {
        let start = self.out_pos;
        while self.out_pos < self.out.len() {
            // The fault hook sits inside the loop so an injected EINTR or
            // short write runs the very retry arm a real one would.
            let pending = self.out.len() - self.out_pos;
            self.write_syscalls += 1;
            let result = match fault::check(fault::Op::Write) {
                fault::Verdict::Proceed => (&self.stream).write(&self.out[self.out_pos..]),
                fault::Verdict::Short(n) => {
                    let n = n.clamp(1, pending);
                    (&self.stream).write(&self.out[self.out_pos..self.out_pos + n])
                }
                fault::Verdict::Fail(e) => Err(e),
                fault::Verdict::Eof => Ok(0),
            };
            match result {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let written = self.out_pos - start;
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > WRITE_HIGH_WATER {
            // Reclaim the sent prefix so a long-lived slow reader doesn't
            // pin peak-sized buffers.
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        Ok(written)
    }

    /// One nonblocking read into `scratch`. `Ok(None)` = would block.
    pub fn try_read(&mut self, scratch: &mut [u8]) -> io::Result<Option<usize>> {
        loop {
            let result = match fault::check(fault::Op::Read) {
                fault::Verdict::Proceed => (&self.stream).read(scratch),
                fault::Verdict::Short(n) => {
                    let n = n.clamp(1, scratch.len());
                    (&self.stream).read(&mut scratch[..n])
                }
                fault::Verdict::Fail(e) => Err(e),
                fault::Verdict::Eof => Ok(0),
            };
            match result {
                Ok(n) => return Ok(Some(n)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Whether any response is still being computed (a waiting slot) —
    /// the server itself is the reason this connection shows no socket
    /// progress, so e.g. the idle reaper must not count it as idle.
    pub fn awaiting_completions(&self) -> bool {
        self.waiting > 0
    }

    /// Applies the write-buffer and in-flight-slot hysteresis to the
    /// read-pause flag.
    pub fn update_backpressure(&mut self) {
        let overloaded =
            self.write_pending() >= WRITE_HIGH_WATER || self.slots.len() >= MAX_INFLIGHT;
        let relaxed =
            self.write_pending() <= WRITE_LOW_WATER && self.slots.len() < MAX_INFLIGHT / 2;
        if !self.reads_paused && overloaded {
            self.reads_paused = true;
        } else if self.reads_paused && relaxed {
            self.reads_paused = false;
        }
    }

    /// Whether the reactor should read from this socket right now.
    pub fn wants_read(&self) -> bool {
        !self.draining && !self.reads_paused
    }

    /// The epoll interest set matching the current state.
    pub fn desired_interest(&self) -> u32 {
        let mut events = 0;
        if self.wants_read() {
            events |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if self.write_pending() > 0 {
            events |= sys::EPOLLOUT;
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// A connected loopback pair (server side first).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (server, client)
    }

    #[test]
    fn out_of_order_completions_flush_in_request_order() {
        let (server, client) = pair();
        let mut conn = Conn::new(server, Instant::now());

        let first = conn.push_waiting();
        conn.push_ready("MIDDLE".to_string());
        let last = conn.push_waiting();

        // Nothing can go out while the head slot is unresolved.
        conn.promote_ready();
        assert_eq!(conn.write_pending(), 0);
        conn.complete(last, "LAST".to_string());
        conn.promote_ready();
        assert_eq!(conn.write_pending(), 0, "head still waiting");

        conn.complete(first, "FIRST".to_string());
        conn.promote_ready();
        conn.try_write().unwrap();
        assert!(!conn.has_work());

        let mut got = String::new();
        use std::io::Read;
        client.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        let mut reader = std::io::BufReader::new(client);
        for expect in ["FIRST", "MIDDLE", "LAST"] {
            got.clear();
            std::io::BufRead::read_line(&mut reader, &mut got).unwrap();
            assert_eq!(got.trim_end(), expect);
        }
        let _ = reader.get_mut().read(&mut [0u8; 1]); // nothing else buffered
    }

    #[test]
    fn completions_for_dropped_slots_are_ignored() {
        let (server, _client) = pair();
        let mut conn = Conn::new(server, Instant::now());
        // Ahead of the window: the slot was never claimed on this
        // connection (its owner was force-closed and the id never reused).
        conn.complete(99, "STALE".to_string());
        assert!(!conn.has_work());

        // Behind the window: the slot already went out.
        let seq = conn.push_waiting();
        conn.complete(seq, "ONCE".to_string());
        conn.promote_ready();
        let next = conn.push_waiting();
        conn.complete(seq, "STALE".to_string());
        assert!(conn.awaiting_completions(), "a stale seq must not fill the next slot");
        conn.complete(next, "NEXT".to_string());
        conn.promote_ready();
        assert_eq!(conn.out, b"ONCE\nNEXT\n");
    }

    #[test]
    fn indexed_completion_with_ready_and_waiting_slots_interleaved() {
        let (server, _client) = pair();
        let mut conn = Conn::new(server, Instant::now());
        // Every slot owns a sequence number, ready ones included, so a
        // waiting slot's index is `seq − front_seq` whatever sits between.
        let a = conn.push_waiting();
        conn.push_ready("R1".to_string());
        let b = conn.push_waiting();
        conn.push_ready("R3".to_string());
        let c = conn.push_waiting();
        assert_eq!((a, b, c), (0, 2, 4));

        conn.complete(1, "CLOBBER".to_string()); // a ready slot's number
        conn.complete(c, "C".to_string());
        conn.complete(c, "DUPLICATE".to_string());
        conn.complete(b, "B".to_string());
        conn.promote_ready();
        assert_eq!(conn.write_pending(), 0, "head still waiting");
        assert!(conn.awaiting_completions());

        conn.complete(a, "A".to_string());
        assert!(!conn.awaiting_completions());
        conn.promote_ready();
        assert_eq!(conn.out, b"A\nR1\nB\nR3\nC\n");

        // The window moved on: numbering continues, old numbers are dead.
        assert_eq!(conn.push_waiting(), 5);
        conn.complete(a, "STALE".to_string());
        assert!(conn.awaiting_completions());
    }

    #[test]
    fn inflight_slot_cap_pauses_reads_until_completions_catch_up() {
        let (server, _client) = pair();
        let mut conn = Conn::new(server, Instant::now());
        let seqs: Vec<u64> = (0..MAX_INFLIGHT).map(|_| conn.push_waiting()).collect();
        conn.update_backpressure();
        assert!(!conn.wants_read(), "at the in-flight cap: reads pause");
        assert!(conn.awaiting_completions());

        for seq in seqs {
            conn.complete(seq, "DIST 1".to_string());
        }
        conn.promote_ready();
        conn.try_write().unwrap();
        conn.update_backpressure();
        assert!(conn.wants_read(), "resolved and flushed: reads resume");
        assert!(!conn.awaiting_completions());
    }

    #[test]
    fn backpressure_pauses_reads_until_the_buffer_drains() {
        let (server, _client) = pair();
        let mut conn = Conn::new(server, Instant::now());
        assert!(conn.wants_read());

        conn.push_ready("x".repeat(WRITE_HIGH_WATER + 1024));
        conn.promote_ready();
        conn.update_backpressure();
        assert!(!conn.wants_read(), "past high water: reads pause");
        assert_ne!(conn.desired_interest() & sys::EPOLLOUT, 0);
        assert_eq!(conn.desired_interest() & sys::EPOLLIN, 0);

        // The peer never reads, so the kernel buffer fills; whatever was
        // written, pending stays above the low-water mark here.
        conn.try_write().unwrap();
        conn.update_backpressure();
        let _ = conn.wants_read(); // state is consistent either way

        // Simulate a full drain.
        conn.out.clear();
        conn.out_pos = 0;
        conn.update_backpressure();
        assert!(conn.wants_read(), "below low water: reads resume");
    }
}
