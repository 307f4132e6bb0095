//! The router's single-threaded epoll event loop.
//!
//! One thread owns the listening socket, every client connection, an
//! eventfd (shutdown wakeup), and two pipelined connections per shard
//! **replica** — *data* (queries, batches, stats, epoch) and *control*
//! (`RELOAD` / `UPDATE`, so a seconds-long index rebuild never stalls
//! query traffic behind it in the replica's per-connection response
//! order). Client
//! connections run on the shared
//! [`ClientDriver`](hcl_server::transport::ClientDriver) — the same
//! accept/read/settle/expiry loop as the server — with this module's
//! [`Core`] plugged in as the
//! [`DriverHooks`](hcl_server::transport::DriverHooks) policy. The
//! router performs no graph computation — every frame either resolves
//! locally (`PING`, `METRICS`, errors) or becomes upstream request
//! lines whose responses are merged by [`aggregate`](crate::aggregate)
//! and completed into the client's response slot. Both legs move a
//! pass's worth at a time: upstream requests are buffered and flushed
//! once per pass per replica, and finished responses are completed into
//! their client slots and then settled with one
//! [`flush`](hcl_server::transport::ClientDriver::flush) — one `write`
//! per client connection per pass, however many of its requests the pass
//! resolved.
//!
//! # Resilience
//!
//! Each shard is served by a *replica group* of interchangeable
//! backends (every replica holds the same shard index). Dispatch goes
//! to the first connected replica; on failure the connection's owed
//! requests are re-dispatched verbatim to a sibling (their encoded
//! bytes are retained in flight), bounded by [`MAX_RETRIES`]. Connects
//! are non-blocking with jittered exponential backoff
//! ([`upstream`](crate::upstream)); requests arriving while a replica
//! group is mid-connect park briefly instead of failing. Idle connected
//! replicas get periodic `PING` probes; an unanswered probe fails the
//! replica over before a real request has to discover the corpse.
//!
//! When a shard has **no** healthy replica at all, queries degrade
//! instead of erroring: any live replica of any shard holds the full
//! landmark labelling, so its answer is a true *upper bound* on the
//! distance (never an under-report). Degraded answers are tagged
//! `DIST~` / `DISTS~` so clients can tell exact from approximate.
//! `STATS`, `EPOCH`, `RELOAD`, and `UPDATE` never degrade — they
//! report the failure.

use crate::aggregate;
use crate::router::{RouterMetrics, Shared};
use crate::upstream::{PendingRequest, Upstream, PROBE_ID};
use hcl_core::partition::{shard_packed_path, shard_paths};
use hcl_core::ShardRoute;
use hcl_graph::VertexId;
use hcl_server::protocol::{self, Frame, ResponseError};
use hcl_server::transport::conn::Conn;
use hcl_server::transport::driver::{
    deadline_to_timeout_ms, ClientDriver, DriverConfig, DriverHooks, TOKEN_LISTENER, TOKEN_WAKE,
};
use hcl_server::transport::sys::{self, Epoll, EpollEvent};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

/// Upstream tokens: `2 + 2·(shard·max_replicas + replica) + ctl`.
const TOKEN_UPSTREAM_BASE: u64 = 2;

/// Scratch buffer size for upstream reads.
const READ_CHUNK: usize = 16 * 1024;

/// How many replicas may fail one request before it errors out.
const MAX_RETRIES: u32 = 4;

/// How the responses of one client request are being assembled.
enum AggKind {
    /// Single-shard `QUERY`: relay the replica's response line verbatim
    /// (including `ERR`); re-tagged `DIST~` when answered degraded.
    Passthrough { line: Option<String>, degraded: bool },
    /// Cross-shard `QUERY`: the `INF`-aware minimum of both answers —
    /// exact only if both home shards answered, an upper bound (and
    /// tagged) otherwise.
    MinDist { best: Option<u32>, degraded: bool, error: Option<String> },
    /// Scattered `BATCH`: answers folded into client positions with the
    /// raw `INF` sentinel.
    Batch { dists: Vec<u32>, degraded: bool, error: Option<String> },
    /// `STATS` fan-out: shard bodies to merge under the router prefix.
    Stats { prefix: String, bodies: Vec<String>, error: Option<String> },
    /// `EPOCH` fan-out: answered only on unanimity.
    Epoch { epochs: Vec<(String, u64)>, error: Option<String> },
    /// `RELOAD` fan-out to every replica: all-or-nothing confirmation.
    Reload { results: Vec<(String, Result<u64, String>)> },
    /// `UPDATE` fan-out to every replica of every owning shard:
    /// all-or-nothing confirmation carrying `(epoch, affected)`.
    Update { results: Vec<aggregate::UpdateOutcome> },
}

/// One in-flight client request spanning one or more shard responses.
struct Agg {
    conn: u64,
    seq: u64,
    outstanding: u32,
    kind: AggKind,
}

/// One shard's replica connections plus the requests waiting for any of
/// them to finish connecting.
struct ReplicaGroup {
    replicas: Vec<Upstream>,
    /// Requests that arrived while no replica was connected but one was
    /// mid-connect, each with its give-up deadline.
    parked: VecDeque<(PendingRequest, Instant)>,
}

/// The routing policy and upstream fleet, plugged into the shared
/// client-connection driver as its [`DriverHooks`].
struct Core {
    shared: Arc<Shared>,
    groups: Vec<ReplicaGroup>,
    /// Control (`RELOAD`) connections, lazily connected, mirroring the
    /// replica layout of `groups`.
    ctl: Vec<Vec<Upstream>>,
    requests: HashMap<u64, Agg>,
    next_request_id: u64,
    reload_busy: bool,
    /// Finished responses addressed to client slots; drained into
    /// [`ClientDriver::complete`] by the run loop once per pass and then
    /// flushed — one settle, one `write`, per client connection per pass,
    /// however many of its requests the pass resolved. (The hop through
    /// this list also covers a request that resolves synchronously inside
    /// `on_frame`, while the driver still borrows the owning connection.)
    outbox: Vec<(u64, u64, String)>,
    scratch: Vec<u8>,
    /// Token stride: the widest replica group.
    max_replicas: usize,
}

impl Core {
    fn data_token(&self, shard: usize, replica: usize) -> u64 {
        TOKEN_UPSTREAM_BASE + 2 * (shard * self.max_replicas + replica) as u64
    }

    fn ctl_token(&self, shard: usize, replica: usize) -> u64 {
        self.data_token(shard, replica) + 1
    }

    fn ctl_label(&self, shard: usize, replica: usize) -> String {
        if self.ctl[shard].len() == 1 {
            format!("shard{shard}")
        } else {
            format!("shard{shard}/r{replica}")
        }
    }

    fn next_request(&mut self, conn: u64, seq: u64, outstanding: u32, kind: AggKind) -> u64 {
        let rid = self.next_request_id;
        self.next_request_id += 1;
        self.requests.insert(rid, Agg { conn, seq, outstanding, kind });
        rid
    }

    /// Range-validates a pair against the partitioned id space, matching
    /// the server's error string.
    fn check_pair(&self, s: VertexId, t: VertexId) -> Result<(), String> {
        let n = self.shared.partition.num_vertices();
        for v in [s, t] {
            if v as usize >= n {
                return Err(format!("vertex {v} out of range for graph with {n} vertices"));
            }
        }
        Ok(())
    }

    // ---- dispatch -------------------------------------------------------

    /// Routes one encoded data request to its home shard: the first
    /// connected replica takes it; otherwise connects are kicked, the
    /// request parks behind an in-progress connect, or it resolves
    /// unroutable (degrade / `ERR`).
    fn dispatch_data(&mut self, epoll: &Epoll, req: PendingRequest, now: Instant) {
        let shard = req.home_shard as usize;
        if let Some(r) = self.connected_replica(shard) {
            self.groups[shard].replicas[r].submit(req);
            return;
        }
        for r in 0..self.groups[shard].replicas.len() {
            if self.groups[shard].replicas[r].can_attempt(now) {
                self.start_replica_connect(epoll, false, shard, r, now);
            }
        }
        if let Some(r) = self.connected_replica(shard) {
            self.groups[shard].replicas[r].submit(req);
            return;
        }
        if self.groups[shard].replicas.iter().any(Upstream::is_connecting) {
            // Bounded parking: while a shard flaps, at most `max_parked`
            // requests wait for its reconnect; the rest are refused
            // `ERR busy` right away rather than queueing without bound.
            let cap = self.shared.config.max_parked;
            if cap != 0 && self.groups[shard].parked.len() >= cap {
                RouterMetrics::bump(&self.shared.metrics.parked_dropped);
                self.apply_response(format!("shard{shard}"), req, protocol::format_error("busy"));
                return;
            }
            let deadline = now + self.shared.config.park_timeout;
            self.groups[shard].parked.push_back((req, deadline));
            return;
        }
        self.resolve_unroutable(req);
    }

    fn connected_replica(&self, shard: usize) -> Option<usize> {
        self.groups[shard].replicas.iter().position(Upstream::is_connected)
    }

    /// Last resort for a request whose home shard has no healthy (or
    /// inbound) replica: queries re-route to *any* live replica for a
    /// label-only upper bound, tagged degraded; everything else gets an
    /// `ERR`. Probes simply vanish — their failure already counted.
    fn resolve_unroutable(&mut self, mut req: PendingRequest) {
        if req.request_id == PROBE_ID {
            return;
        }
        let degradable = matches!(
            self.requests.get(&req.request_id).map(|a| &a.kind),
            Some(AggKind::Passthrough { .. } | AggKind::MinDist { .. } | AggKind::Batch { .. })
        );
        let home = req.home_shard;
        if degradable {
            let foreign = self.groups.iter().enumerate().find_map(|(s, g)| {
                g.replicas.iter().position(|u| u.is_connected()).map(|r| (s, r))
            });
            if let Some((s, r)) = foreign {
                if !req.degraded {
                    req.degraded = true;
                    RouterMetrics::bump(&self.shared.metrics.degraded);
                }
                self.groups[s].replicas[r].submit(req);
                return;
            }
        }
        self.apply_response(
            format!("shard{home}"),
            req,
            protocol::format_error(format!("shard {home} unavailable: no healthy replica")),
        );
    }

    /// Kicks a non-blocking connect on one replica and registers the fd.
    fn start_replica_connect(
        &mut self,
        epoll: &Epoll,
        ctl: bool,
        shard: usize,
        replica: usize,
        now: Instant,
    ) {
        let token =
            if ctl { self.ctl_token(shard, replica) } else { self.data_token(shard, replica) };
        enum Outcome {
            Started(bool),
            RegFailed,
            Failed(String),
        }
        let outcome = {
            let ups = if ctl {
                &mut self.ctl[shard][replica]
            } else {
                &mut self.groups[shard].replicas[replica]
            };
            match ups.start_connect(now) {
                Ok(fd) => {
                    let interest = ups.desired_interest();
                    if epoll.add(fd, interest, token).is_ok() {
                        ups.set_registered(interest);
                        Outcome::Started(ups.is_connected())
                    } else {
                        Outcome::RegFailed
                    }
                }
                Err(e) => Outcome::Failed(e.to_string()),
            }
        };
        match outcome {
            Outcome::Started(true) => self.on_replica_connected(ctl, shard, replica, now),
            Outcome::Started(false) => {}
            Outcome::RegFailed => {
                self.fail_replica(epoll, ctl, shard, replica, now, "epoll registration failed");
            }
            Outcome::Failed(e) => {
                self.fail_replica(epoll, ctl, shard, replica, now, &format!("connect failed: {e}"));
            }
        }
    }

    /// A replica's connect just completed: schedule its first probe and
    /// take over any requests parked waiting for the group.
    fn on_replica_connected(&mut self, ctl: bool, shard: usize, replica: usize, now: Instant) {
        if ctl {
            return;
        }
        let interval = self.shared.config.probe_interval;
        let group = &mut self.groups[shard];
        if !interval.is_zero() {
            group.replicas[replica].next_probe_at = Some(now + interval);
        }
        let parked: Vec<_> = group.parked.drain(..).collect();
        for (req, _) in parked {
            self.groups[shard].replicas[replica].submit(req);
        }
    }

    /// Tears one replica connection down (starting its backoff) and
    /// deals with every request it still owed: control requests error
    /// out (`RELOAD` must never silently run twice), data requests fail
    /// over to a sibling within the retry budget.
    fn fail_replica(
        &mut self,
        epoll: &Epoll,
        ctl: bool,
        shard: usize,
        replica: usize,
        now: Instant,
        why: &str,
    ) {
        let owed = {
            let ups = if ctl {
                &mut self.ctl[shard][replica]
            } else {
                &mut self.groups[shard].replicas[replica]
            };
            ups.fail(now)
        };
        if !ctl && !owed.is_empty() {
            RouterMetrics::bump(&self.shared.metrics.failovers);
        }
        for mut req in owed {
            if ctl {
                let label = self.ctl_label(shard, replica);
                let line = protocol::format_error(format!("shard {shard} unavailable: {why}"));
                self.apply_response(label, req, line);
                continue;
            }
            req.retries += 1;
            if req.retries > MAX_RETRIES {
                let line = protocol::format_error(format!(
                    "shard {shard} unavailable: {why} (gave up after {} attempts)",
                    req.retries
                ));
                self.apply_response(format!("shard{shard}"), req, line);
            } else {
                RouterMetrics::bump(&self.shared.metrics.retries);
                self.dispatch_data(epoll, req, now);
            }
        }
    }

    // ---- upstream events ------------------------------------------------

    fn upstream_event(
        &mut self,
        epoll: &Epoll,
        ctl: bool,
        shard: usize,
        replica: usize,
        now: Instant,
    ) {
        let connecting = {
            let ups =
                if ctl { &self.ctl[shard][replica] } else { &self.groups[shard].replicas[replica] };
            ups.is_connecting()
        };
        if connecting {
            let verdict = {
                let ups = if ctl {
                    &mut self.ctl[shard][replica]
                } else {
                    &mut self.groups[shard].replicas[replica]
                };
                ups.try_complete_connect()
            };
            match verdict {
                Ok(true) => self.on_replica_connected(ctl, shard, replica, now),
                Ok(false) => {}
                Err(e) => self.fail_replica(
                    epoll,
                    ctl,
                    shard,
                    replica,
                    now,
                    &format!("connect failed: {e}"),
                ),
            }
            // Freshly connected (or not): nothing to read yet; the flush
            // pass pumps queued requests and re-syncs interest.
            return;
        }
        let mut resolved: Vec<(PendingRequest, String)> = Vec::new();
        let outcome = {
            let ups = if ctl {
                &mut self.ctl[shard][replica]
            } else {
                &mut self.groups[shard].replicas[replica]
            };
            if !ups.is_connected() {
                return; // stale event for an already-failed socket
            }
            let outcome = ups.try_read(&mut self.scratch, &mut resolved);
            if !resolved.is_empty() {
                // Any response is proof of life: reset the backoff
                // escalation and push the next probe out.
                ups.note_alive();
                let interval = self.shared.config.probe_interval;
                if !ctl && !interval.is_zero() {
                    ups.next_probe_at = Some(now + interval);
                }
                for (pending, _) in &resolved {
                    if pending.request_id == PROBE_ID {
                        if let Some(sent) = ups.probe_sent_at.take() {
                            ups.last_probe_us =
                                now.saturating_duration_since(sent).as_micros() as u64;
                        }
                    }
                }
            }
            outcome
        };
        for (pending, line) in resolved {
            if pending.request_id == PROBE_ID {
                continue;
            }
            let label = if ctl {
                self.ctl_label(shard, replica)
            } else {
                format!("shard{}", pending.home_shard)
            };
            self.apply_response(label, pending, line);
        }
        if outcome.is_err() {
            self.fail_replica(epoll, ctl, shard, replica, now, "connection lost");
        }
    }

    /// Timer-driven upstream maintenance: connect timeouts, probe
    /// timeouts, proactive reconnects (recovery needs no traffic),
    /// probe sends, and parked-request expiry.
    fn tick(&mut self, epoll: &Epoll, now: Instant) {
        let probe_timeout = self.shared.config.probe_timeout;
        let probe_interval = self.shared.config.probe_interval;
        for shard in 0..self.groups.len() {
            for r in 0..self.groups[shard].replicas.len() {
                if self.groups[shard].replicas[r].connect_deadline().is_some_and(|d| now >= d) {
                    self.fail_replica(epoll, false, shard, r, now, "connect timed out");
                }
                let probe_dead = self.groups[shard].replicas[r]
                    .probe_sent_at
                    .is_some_and(|t| now.saturating_duration_since(t) >= probe_timeout);
                if probe_dead {
                    RouterMetrics::bump(&self.shared.metrics.probe_failures);
                    self.fail_replica(epoll, false, shard, r, now, "probe timed out");
                }
                if self.groups[shard].replicas[r].can_attempt(now) {
                    self.start_replica_connect(epoll, false, shard, r, now);
                }
                let send_probe = {
                    let ups = &self.groups[shard].replicas[r];
                    !probe_interval.is_zero()
                        && ups.is_connected()
                        && ups.probe_sent_at.is_none()
                        && ups.pending_len() == 0
                        && ups.backlog_len() == 0
                        && ups.next_probe_at.is_some_and(|t| now >= t)
                };
                if send_probe {
                    RouterMetrics::bump(&self.shared.metrics.probes);
                    let ups = &mut self.groups[shard].replicas[r];
                    ups.probe_sent_at = Some(now);
                    ups.next_probe_at = Some(now + probe_interval);
                    ups.submit(PendingRequest {
                        request_id: PROBE_ID,
                        home_shard: shard as u32,
                        positions: None,
                        bytes: b"PING\n".to_vec(),
                        retries: 0,
                        degraded: false,
                    });
                }
            }
            // Parked requests: drain into a now-connected replica, give
            // up early once nothing is even connecting, or expire at
            // their individual deadlines.
            let any_connected = self.groups[shard].replicas.iter().any(Upstream::is_connected);
            let any_connecting = self.groups[shard].replicas.iter().any(Upstream::is_connecting);
            if any_connected || !any_connecting {
                let parked: Vec<_> = self.groups[shard].parked.drain(..).collect();
                for (req, _) in parked {
                    if any_connected {
                        self.dispatch_data(epoll, req, now);
                    } else {
                        self.resolve_unroutable(req);
                    }
                }
            } else {
                while self.groups[shard].parked.front().is_some_and(|(_, d)| now >= *d) {
                    let (req, _) = self.groups[shard].parked.pop_front().expect("front checked");
                    self.resolve_unroutable(req);
                }
            }
            for r in 0..self.ctl[shard].len() {
                if self.ctl[shard][r].connect_deadline().is_some_and(|d| now >= d) {
                    self.fail_replica(epoll, true, shard, r, now, "connect timed out");
                }
                if self.ctl[shard][r].backlog_len() > 0 && self.ctl[shard][r].can_attempt(now) {
                    self.start_replica_connect(epoll, true, shard, r, now);
                }
            }
        }
    }

    /// Pumps windows, flushes write buffers, and re-syncs epoll interest
    /// for every upstream; a write failure fails the replica over.
    fn flush_upstreams(&mut self, epoll: &Epoll, now: Instant) {
        for shard in 0..self.groups.len() {
            for ctl in [false, true] {
                let count =
                    if ctl { self.ctl[shard].len() } else { self.groups[shard].replicas.len() };
                for r in 0..count {
                    let token =
                        if ctl { self.ctl_token(shard, r) } else { self.data_token(shard, r) };
                    let (write_failed, fd, desired, registered) = {
                        let ups = if ctl {
                            &mut self.ctl[shard][r]
                        } else {
                            &mut self.groups[shard].replicas[r]
                        };
                        ups.pump();
                        let failed = ups.try_write().is_err();
                        (failed, ups.fd(), ups.desired_interest(), ups.registered())
                    };
                    if write_failed {
                        self.fail_replica(epoll, ctl, shard, r, now, "write failed");
                        continue;
                    }
                    let Some(fd) = fd else { continue };
                    if desired != registered && epoll.modify(fd, desired, token).is_ok() {
                        let ups = if ctl {
                            &mut self.ctl[shard][r]
                        } else {
                            &mut self.groups[shard].replicas[r]
                        };
                        ups.set_registered(desired);
                    }
                }
            }
        }
    }

    /// The nearest upstream-side deadline (connect/probe timeouts,
    /// backoff expiries, probe schedules, parked requests).
    fn next_deadline(&self) -> Option<Instant> {
        let probe_timeout = self.shared.config.probe_timeout;
        let mut deadline: Option<Instant> = None;
        let mut fold = |at: Option<Instant>| {
            if let Some(at) = at {
                deadline = Some(deadline.map_or(at, |d| d.min(at)));
            }
        };
        for (shard, group) in self.groups.iter().enumerate() {
            if let Some((_, d)) = group.parked.front() {
                fold(Some(*d));
            }
            for ups in &group.replicas {
                fold(ups.connect_deadline());
                // Proactive reconnects fire as soon as backoff ends.
                fold(ups.backoff_until());
                if ups.is_connected() && ups.probe_sent_at.is_none() {
                    fold(ups.next_probe_at);
                }
                fold(ups.probe_sent_at.map(|t| t + probe_timeout));
            }
            for ups in &self.ctl[shard] {
                fold(ups.connect_deadline());
                if ups.backlog_len() > 0 {
                    fold(ups.backoff_until());
                }
            }
        }
        deadline
    }

    // ---- frame routing --------------------------------------------------

    fn route_query(&mut self, epoll: &Epoll, conn: &mut Conn, id: u64, s: VertexId, t: VertexId) {
        let metrics = &self.shared.metrics;
        if let Err(msg) = self.check_pair(s, t) {
            RouterMetrics::bump(&metrics.errors);
            conn.push_ready(protocol::format_error(msg));
            return;
        }
        RouterMetrics::bump(&metrics.queries);
        let now = Instant::now();
        let seq = conn.push_waiting();
        let line = format!("QUERY {s} {t}\n");
        match self.shared.partition.route(s, t) {
            ShardRoute::Single(shard) => {
                let rid = self.next_request(
                    id,
                    seq,
                    1,
                    AggKind::Passthrough { line: None, degraded: false },
                );
                self.dispatch_data(epoll, data_request(rid, shard, None, line.into_bytes()), now);
            }
            ShardRoute::Scatter(a, b) => {
                RouterMetrics::bump(&self.shared.metrics.scatter_queries);
                let rid = self.next_request(
                    id,
                    seq,
                    2,
                    AggKind::MinDist { best: None, degraded: false, error: None },
                );
                self.dispatch_data(
                    epoll,
                    data_request(rid, a, None, line.clone().into_bytes()),
                    now,
                );
                self.dispatch_data(epoll, data_request(rid, b, None, line.into_bytes()), now);
            }
        }
    }

    fn route_batch(
        &mut self,
        epoll: &Epoll,
        conn: &mut Conn,
        id: u64,
        pairs: Vec<(VertexId, VertexId)>,
    ) {
        let metrics = &self.shared.metrics;
        for &(s, t) in &pairs {
            if let Err(msg) = self.check_pair(s, t) {
                RouterMetrics::bump(&metrics.errors);
                conn.push_ready(protocol::format_error(msg));
                return;
            }
        }
        RouterMetrics::bump(&metrics.batch_requests);
        if pairs.is_empty() {
            conn.push_ready(protocol::format_batch_response(&[]));
            return;
        }
        let now = Instant::now();
        let seq = conn.push_waiting();
        let slices = aggregate::split_batch(&self.shared.partition, &pairs);
        let rid = self.next_request(
            id,
            seq,
            slices.len() as u32,
            AggKind::Batch {
                dists: vec![hcl_graph::INF; pairs.len()],
                degraded: false,
                error: None,
            },
        );
        for slice in slices {
            let mut bytes = format!("BATCH {}\n", slice.pairs.len()).into_bytes();
            for (s, t) in &slice.pairs {
                bytes.extend_from_slice(format!("{s} {t}\n").as_bytes());
            }
            self.dispatch_data(
                epoll,
                data_request(rid, slice.shard, Some(slice.positions), bytes),
                now,
            );
        }
    }

    /// Fans one argument-less request line out to (the first healthy
    /// replica of) every shard's data connection.
    fn fan_out_simple(
        &mut self,
        epoll: &Epoll,
        conn: &mut Conn,
        id: u64,
        command: &str,
        kind: AggKind,
    ) {
        let shards = self.shared.partition.num_shards();
        let now = Instant::now();
        let seq = conn.push_waiting();
        let rid = self.next_request(id, seq, shards, kind);
        for shard in 0..shards {
            self.dispatch_data(
                epoll,
                data_request(rid, shard, None, format!("{command}\n").into_bytes()),
                now,
            );
        }
    }

    /// Fans `RELOAD` out to **every replica of every shard** on the
    /// control connections: replicas answer identical data only while
    /// they serve identical epochs, so the confirmation is
    /// all-or-nothing across the whole fleet.
    fn fan_out_reload(
        &mut self,
        epoll: &Epoll,
        conn: &mut Conn,
        id: u64,
        dir: String,
        index: Option<String>,
    ) {
        let metrics = &self.shared.metrics;
        if index.is_some() {
            RouterMetrics::bump(&metrics.errors);
            conn.push_ready(protocol::format_error(
                "router RELOAD takes one deployment directory (see docs/PROTOCOL.md)",
            ));
            return;
        }
        if self.reload_busy {
            RouterMetrics::bump(&metrics.errors);
            conn.push_ready(protocol::format_error("reload already in progress"));
            return;
        }
        self.reload_busy = true;
        let now = Instant::now();
        let seq = conn.push_waiting();
        let replicas_total: u32 = self.ctl.iter().map(|g| g.len() as u32).sum();
        let rid =
            self.next_request(id, seq, replicas_total, AggKind::Reload { results: Vec::new() });
        // A packed deployment (`hcl partition --format packed`) ships one
        // self-contained `shardN.hclx` per shard; its presence selects the
        // single-path remap reload over the legacy graph + index pair.
        let packed = std::path::Path::new(&shard_packed_path(&dir, 0)).is_file();
        for shard in 0..self.ctl.len() {
            let line = if packed {
                format!("RELOAD {}\n", shard_packed_path(&dir, shard as u32))
            } else {
                let (graph, index) = shard_paths(&dir, shard as u32);
                format!("RELOAD {graph} {index}\n")
            };
            for r in 0..self.ctl[shard].len() {
                // Control connection: a slow rebuild must not sit in
                // front of pipelined query responses on the data
                // connection.
                self.ctl[shard][r].submit(data_request(
                    rid,
                    shard as u32,
                    None,
                    line.clone().into_bytes(),
                ));
                if self.ctl[shard][r].can_attempt(now) {
                    self.start_replica_connect(epoll, true, shard, r, now);
                }
            }
        }
    }

    /// Fans one incremental edit out to **every replica of each shard
    /// owning an endpoint** on the control connections. Replicas of an
    /// owning shard serve interchangeable answers only while they hold
    /// identical indexes, so — like `RELOAD` — the confirmation is
    /// all-or-nothing: any replica failing to apply the edit turns the
    /// whole fan-out into an `ERR` naming each responder's outcome.
    /// Shards owning neither endpoint are not told — which is wrong
    /// whenever the edit moves a label or highway cell they hold (every
    /// shard holds the global labelling): ROADMAP item 1, reproduced by
    /// `sharded_update_keeps_every_untagged_answer_exact`.
    fn fan_out_update(
        &mut self,
        epoll: &Epoll,
        conn: &mut Conn,
        id: u64,
        add: bool,
        u: VertexId,
        v: VertexId,
    ) {
        let metrics = &self.shared.metrics;
        if let Err(msg) = self.check_pair(u, v) {
            RouterMetrics::bump(&metrics.errors);
            conn.push_ready(protocol::format_error(msg));
            return;
        }
        // UPDATE shares the reload gate: both are whole-index swaps on
        // the replicas, and interleaving two fan-outs could commit them
        // in different orders on different replicas.
        if self.reload_busy {
            RouterMetrics::bump(&metrics.errors);
            conn.push_ready(protocol::format_error("reload or update already in progress"));
            return;
        }
        self.reload_busy = true;
        let now = Instant::now();
        let seq = conn.push_waiting();
        let mut shards = vec![self.shared.partition.shard_of(u) as usize];
        let shard_v = self.shared.partition.shard_of(v) as usize;
        if !shards.contains(&shard_v) {
            shards.push(shard_v);
        }
        let replicas_total: u32 = shards.iter().map(|&s| self.ctl[s].len() as u32).sum();
        let rid =
            self.next_request(id, seq, replicas_total, AggKind::Update { results: Vec::new() });
        let op = if add { "ADD" } else { "DEL" };
        let line = format!("UPDATE {op} {u} {v}\n");
        for &shard in &shards {
            for r in 0..self.ctl[shard].len() {
                // Control connection, same as RELOAD: an index swap must
                // not sit in front of pipelined query responses on the
                // data connection.
                self.ctl[shard][r].submit(data_request(
                    rid,
                    shard as u32,
                    None,
                    line.clone().into_bytes(),
                ));
                if self.ctl[shard][r].can_attempt(now) {
                    self.start_replica_connect(epoll, true, shard, r, now);
                }
            }
        }
    }

    // ---- aggregation ----------------------------------------------------

    /// Feeds one replica response line (or synthesised `ERR`) into its
    /// aggregation entry; moves the final response to the outbox when
    /// the last outstanding responder reports.
    fn apply_response(&mut self, label: String, pending: PendingRequest, line: String) {
        let Some(agg) = self.requests.get_mut(&pending.request_id) else { return };
        match &mut agg.kind {
            AggKind::Passthrough { line: slot, degraded } => {
                *degraded |= pending.degraded;
                *slot = Some(line);
            }
            AggKind::MinDist { best, degraded, error } => {
                match protocol::parse_query_response_tagged(&line) {
                    Ok((d, approx)) => {
                        *best = aggregate::merge_min(*best, d);
                        *degraded |= approx || pending.degraded;
                    }
                    Err(e) => record_error(error, e),
                }
            }
            AggKind::Batch { dists, degraded, error } => {
                let positions = pending.positions.as_deref().unwrap_or(&[]);
                match protocol::parse_batch_response_tagged(&line, positions.len()) {
                    Ok((answers, approx)) => {
                        aggregate::fold_batch_answers(dists, positions, &answers);
                        *degraded |= approx || pending.degraded;
                    }
                    Err(e) => record_error(error, e),
                }
            }
            AggKind::Stats { bodies, error, .. } => match line.strip_prefix("STATS") {
                Some(body) => bodies.push(body.trim().to_string()),
                None => record_error(
                    error,
                    ResponseError::Server(line.strip_prefix("ERR ").unwrap_or(&line).to_string()),
                ),
            },
            AggKind::Epoch { epochs, error } => match protocol::parse_epoch_response(&line) {
                Ok(e) => epochs.push((label, e)),
                Err(e) => record_error(error, e),
            },
            AggKind::Reload { results } => match protocol::parse_reload_response(&line) {
                Ok(e) => results.push((label, Ok(e))),
                Err(ResponseError::Server(msg)) => results.push((label, Err(msg))),
                Err(ResponseError::Malformed(raw)) => {
                    results.push((label, Err(format!("malformed response {raw:?}"))));
                }
            },
            AggKind::Update { results } => match protocol::parse_update_response(&line) {
                Ok(pair) => results.push((label, Ok(pair))),
                Err(ResponseError::Server(msg)) => results.push((label, Err(msg))),
                Err(ResponseError::Malformed(raw)) => {
                    results.push((label, Err(format!("malformed response {raw:?}"))));
                }
            },
        }
        agg.outstanding -= 1;
        if agg.outstanding == 0 {
            let agg = self.requests.remove(&pending.request_id).expect("agg present");
            self.finish_request(agg);
        }
    }

    /// Renders the final response for a fully gathered request and
    /// queues it for the owning client connection.
    fn finish_request(&mut self, agg: Agg) {
        let metrics = &self.shared.metrics;
        let line = match agg.kind {
            AggKind::Passthrough { line, degraded } => {
                let line = line.expect("passthrough carries its line");
                if degraded {
                    // Re-tag what the foreign shard reported exact: from
                    // the client's perspective it is only an upper bound.
                    match protocol::parse_query_response_tagged(&line) {
                        Ok((d, _)) => protocol::format_query_response_tagged(d, true),
                        Err(_) => line, // ERR passes through unmodified
                    }
                } else {
                    line
                }
            }
            AggKind::MinDist { best, degraded, error } => match error {
                None => protocol::format_query_response_tagged(best, degraded),
                Some(msg) => protocol::format_error(msg),
            },
            AggKind::Batch { dists, degraded, error } => match error {
                None => protocol::format_batch_response_tagged(
                    &aggregate::finish_batch(dists),
                    degraded,
                ),
                Some(msg) => protocol::format_error(msg),
            },
            AggKind::Stats { prefix, bodies, error } => match error {
                None => {
                    let merged = aggregate::merge_stats_bodies(&bodies);
                    if merged.is_empty() {
                        format!("STATS {prefix}")
                    } else {
                        format!("STATS {prefix} {merged}")
                    }
                }
                Some(msg) => protocol::format_error(msg),
            },
            AggKind::Epoch { epochs, error } => {
                let verdict = match error {
                    None => aggregate::epoch_agreement(&epochs),
                    Some(msg) => Err(msg),
                };
                match verdict {
                    Ok(e) => protocol::format_epoch_response(e),
                    Err(msg) => protocol::format_error(msg),
                }
            }
            AggKind::Reload { results } => {
                self.reload_busy = false;
                match aggregate::reload_verdict(&results) {
                    Ok(e) => {
                        RouterMetrics::bump(&metrics.reloads);
                        protocol::format_reload_response(e)
                    }
                    Err(msg) => protocol::format_error(msg),
                }
            }
            AggKind::Update { results } => {
                self.reload_busy = false;
                match aggregate::update_verdict(&results) {
                    Ok((epoch, affected)) => {
                        RouterMetrics::bump(&metrics.updates);
                        protocol::format_update_response(epoch, affected)
                    }
                    Err(msg) => protocol::format_error(msg),
                }
            }
        };
        if line.starts_with("ERR ") {
            RouterMetrics::bump(&self.shared.metrics.errors);
        }
        self.outbox.push((agg.conn, agg.seq, line));
    }

    /// Builds the single-line JSON body of a router `METRICS` response:
    /// the router's own counters plus per-replica connection state.
    fn metrics_json(&self) -> String {
        let mut upstreams = String::new();
        for (shard, group) in self.groups.iter().enumerate() {
            for (replica, ups) in group.replicas.iter().enumerate() {
                if !upstreams.is_empty() {
                    upstreams.push(',');
                }
                upstreams.push_str(&format!(
                    "{{\"shard\":{shard},\"replica\":{replica},\"addr\":\"{}\",\
                     \"state\":\"{}\",\"pending\":{},\"backlog\":{},\"parked\":{},\
                     \"attempt\":{},\"failures\":{},\"probe_us\":{}}}",
                    ups.addr(),
                    ups.state_name(),
                    ups.pending_len(),
                    ups.backlog_len(),
                    group.parked.len(),
                    ups.attempt(),
                    ups.failures,
                    ups.last_probe_us,
                ));
            }
        }
        format!(
            "{{\"role\":\"router\",\"shards\":{},{},\"upstreams\":[{upstreams}]}}",
            self.shared.partition.num_shards(),
            protocol::json_members(&self.shared.metrics.snapshot().pairs()),
        )
    }
}

fn data_request(
    request_id: u64,
    home_shard: u32,
    positions: Option<Vec<u32>>,
    bytes: Vec<u8>,
) -> PendingRequest {
    PendingRequest { request_id, home_shard, positions, bytes, retries: 0, degraded: false }
}

impl DriverHooks for Core {
    /// Dispatches one decoded client frame: local answers fill their
    /// slot now, everything else fans out to replicas with an [`Agg`]
    /// keyed by a fresh request id.
    fn on_frame(&mut self, epoll: &Epoll, conn: &mut Conn, id: u64, frame: Frame) {
        let metrics = &self.shared.metrics;
        match frame {
            Frame::Ping => conn.push_ready("PONG".to_string()),
            Frame::Metrics => {
                conn.push_ready(protocol::format_metrics_response(&self.metrics_json()));
            }
            Frame::Invalid(e) => {
                RouterMetrics::bump(&metrics.errors);
                conn.push_ready(protocol::format_error(e));
            }
            Frame::Corrupt(e) => {
                RouterMetrics::bump(&metrics.errors);
                conn.push_ready(protocol::format_error(e));
                conn.draining = true;
            }
            Frame::Shutdown => {
                conn.push_ready("BYE".to_string());
                conn.draining = true;
                self.shared.begin_shutdown();
            }
            Frame::Query(s, t) => self.route_query(epoll, conn, id, s, t),
            Frame::Batch(pairs) => self.route_batch(epoll, conn, id, pairs),
            Frame::Stats => {
                let mut prefix = String::new();
                for (key, value) in self.shared.metrics.snapshot().pairs() {
                    prefix.push_str(&format!("router_{key}={value} "));
                }
                prefix.push_str(&format!("shards={}", self.shared.partition.num_shards()));
                self.fan_out_simple(
                    epoll,
                    conn,
                    id,
                    "STATS",
                    AggKind::Stats { prefix, bodies: Vec::new(), error: None },
                );
            }
            Frame::Epoch => self.fan_out_simple(
                epoll,
                conn,
                id,
                "EPOCH",
                AggKind::Epoch { epochs: Vec::new(), error: None },
            ),
            Frame::Reload { graph, index } => self.fan_out_reload(epoll, conn, id, graph, index),
            Frame::Update { add, u, v } => self.fan_out_update(epoll, conn, id, add, u, v),
        }
    }

    fn on_socket_writes(&mut self, syscalls: u64) {
        RouterMetrics::add(&self.shared.metrics.client_socket_writes, syscalls);
    }

    fn on_accepted(&mut self) {
        let metrics = &self.shared.metrics;
        RouterMetrics::bump(&metrics.connections);
        RouterMetrics::bump(&metrics.active_connections);
    }

    fn on_rejected(&mut self) {
        RouterMetrics::bump(&self.shared.metrics.rejected_connections);
    }

    fn on_reaped(&mut self) {
        RouterMetrics::bump(&self.shared.metrics.timed_out_connections);
    }

    fn on_closed(&mut self) {
        RouterMetrics::drop_one(&self.shared.metrics.active_connections);
    }
}

pub(crate) struct Reactor {
    epoll: Epoll,
    driver: ClientDriver,
    core: Core,
}

impl Reactor {
    pub fn new(shared: Arc<Shared>, listener: TcpListener) -> io::Result<Reactor> {
        let epoll = Epoll::new()?;
        epoll.add(shared.wake.raw(), sys::EPOLLIN, TOKEN_WAKE)?;
        let window = shared.config.shard_window;
        let max_replicas = shared.replica_addrs.iter().map(Vec::len).max().unwrap_or(1);
        let mut groups = Vec::with_capacity(shared.replica_addrs.len());
        let mut ctl = Vec::with_capacity(shared.replica_addrs.len());
        for group in &shared.replica_addrs {
            groups.push(ReplicaGroup {
                replicas: group.iter().map(|&addr| Upstream::new(addr, window)).collect(),
                parked: VecDeque::new(),
            });
            ctl.push(group.iter().map(|&addr| Upstream::new(addr, 1)).collect());
        }
        let first_conn_id =
            TOKEN_UPSTREAM_BASE + 2 * (shared.replica_addrs.len() * max_replicas) as u64;
        let completion = shared.config.completion_deadline;
        let driver = ClientDriver::new(
            &epoll,
            listener,
            first_conn_id,
            DriverConfig {
                max_connections: shared.config.max_connections,
                idle_timeout: shared.config.idle_timeout,
                drain_grace: shared.config.drain_grace,
                // Router completions have a bounded retry/backoff budget,
                // so the idle-reap exemption is bounded too (the fix for
                // the lost-completion connection leak).
                completion_deadline: (!completion.is_zero()).then_some(completion),
                capacity_line: "ERR router at connection capacity\n",
            },
        )?;
        let core = Core {
            shared,
            groups,
            ctl,
            requests: HashMap::new(),
            next_request_id: 0,
            reload_busy: false,
            outbox: Vec::new(),
            scratch: vec![0u8; READ_CHUNK],
            max_replicas,
        };
        Ok(Reactor { epoll, driver, core })
    }

    fn first_conn_id(&self) -> u64 {
        TOKEN_UPSTREAM_BASE + 2 * (self.core.groups.len() * self.core.max_replicas) as u64
    }

    /// Resolves every response the pass produced into its client slot,
    /// then settles each touched client connection once.
    fn drain_outbox(&mut self, now: Instant) {
        for (conn, seq, line) in self.core.outbox.drain(..) {
            self.driver.complete(conn, [(seq, line)], now);
        }
        self.driver.flush(&self.epoll, now, &mut self.core);
    }

    pub fn run(mut self) {
        let mut events = vec![EpollEvent::default(); 256];
        // Establish the initial upstream connections (non-blocking) and
        // flush before the first wait.
        let now = Instant::now();
        self.core.tick(&self.epoll, now);
        self.core.flush_upstreams(&self.epoll, now);
        self.drain_outbox(now);
        let first_conn_id = self.first_conn_id();
        loop {
            let deadline = match (self.driver.next_deadline(), self.core.next_deadline()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let timeout = deadline_to_timeout_ms(deadline);
            let fired = self.epoll.wait(&mut events, timeout).unwrap_or_default();
            let now = Instant::now();
            for event in &events[..fired] {
                let (token, bits) = (event.data, event.events);
                match token {
                    TOKEN_LISTENER => self.driver.accept_ready(&self.epoll, now, &mut self.core),
                    TOKEN_WAKE => self.core.shared.wake.drain(),
                    t if t < first_conn_id => {
                        let slot = t - TOKEN_UPSTREAM_BASE;
                        let ctl = (slot & 1) == 1;
                        let idx = (slot >> 1) as usize;
                        let shard = idx / self.core.max_replicas;
                        let replica = idx % self.core.max_replicas;
                        if shard < self.core.groups.len()
                            && replica < self.core.groups[shard].replicas.len()
                        {
                            self.core.upstream_event(&self.epoll, ctl, shard, replica, now);
                        }
                    }
                    id => self.driver.conn_event(&self.epoll, id, bits, now, &mut self.core),
                }
            }
            self.core.tick(&self.epoll, now);
            self.core.flush_upstreams(&self.epoll, now);
            self.drain_outbox(now);
            // A completion can queue fresh upstream work (none today, but
            // the flush is cheap and keeps the invariant simple).
            self.core.flush_upstreams(&self.epoll, now);
            RouterMetrics::bump(&self.core.shared.metrics.reactor_passes);
            if self.core.shared.shutting_down() && !self.driver.is_draining() {
                self.driver.begin_drain(&self.epoll, now, &mut self.core);
            }
            self.driver.expire(&self.epoll, now, &mut self.core);
            if self.driver.is_drained() {
                return;
            }
        }
    }
}

fn record_error(slot: &mut Option<String>, e: ResponseError) {
    if slot.is_none() {
        *slot = Some(match e {
            ResponseError::Server(msg) => msg,
            ResponseError::Malformed(raw) => format!("malformed shard response {raw:?}"),
        });
    }
}

/// Wires a [`Reactor`] onto a (nonblocking) listener and runs it on the
/// one router thread. Upstream connections are established by the
/// reactor itself, non-blocking with backoff — a dead shard degrades
/// service instead of failing the bind.
pub(crate) fn spawn(
    shared: Arc<Shared>,
    listener: TcpListener,
) -> io::Result<std::thread::JoinHandle<()>> {
    let reactor = Reactor::new(shared, listener)?;
    std::thread::Builder::new().name("hcl-router".to_string()).spawn(move || reactor.run())
}
