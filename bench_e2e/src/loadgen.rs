//! The load generator: one thread, two loopback connections.
//!
//! * **Closed loop** — every query connection keeps a fixed number of
//!   requests in flight and sends the next one only when a reply arrives.
//!   Reports answers per second per window. A slow system receives less
//!   load, so at depth 32 this measures saturation throughput, not
//!   latency; at depth 1 on one connection it measures the bare round
//!   trip.
//! * **Open loop** — requests are due on a seeded Poisson schedule at the
//!   workload's fixed rate regardless of replies, and each is timed **from
//!   its due time**, so a stall is charged to every request it delays. How
//!   late the generator ran against its own schedule is reported as
//!   lateness.
//!
//! The thread polls its nonblocking sockets in a loop, yielding the CPU on
//! every idle turn: a timed sleep wakes too late for latencies of tens of
//! microseconds (on a virtual CPU by more than the latency itself). It
//! runs pinned to its own CPU, away from the serving threads (see
//! `run::setup`), so the polling costs the program under test nothing
//! where the host has a second CPU, and the yield keeps it honest where
//! it has not.
//!
//! A window is a fixed number of requests, never a duration. On
//! `serve-churn` the second connection carries no queries: it issues the
//! `UPDATE ADD` / `UPDATE DEL` round trips on a fixed tick while the
//! first carries `BATCH` frames.

use crate::rng::Rng;
use crate::trace::Tracer;
use crate::wire::{parse_distance, push_u32, Link, STALL_LIMIT};
use crate::workload::{Grid, PairStream, Spec, BATCH, CHURN_TICK_MS};
use hcl_graph::VertexId;
use std::collections::VecDeque;
use std::time::Instant;

/// Requests sent, answered correctly formed, and failed in one phase. An
/// `ERR`, a refusal, a `DIST~` tag or a malformed line is a failure.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one depth-1 control exchange: sent, and ok only when `reply`
    /// starts with `expect`; anything else is reported and failed.
    pub fn expect(&mut self, request: &str, reply: &str, expect: &str) {
        self.sent += 1;
        if reply.starts_with(expect) {
            self.ok += 1;
        } else {
            eprintln!("{request:?} answered {reply:?}");
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
    }
}

/// One reply for an oracle-grid pair, kept for the `verify` phase.
/// `edits` is the half-open range of edit indices whose edge may have been
/// live while the request was in flight (empty = the base graph only).
#[derive(Clone, Copy, Debug)]
pub struct GridReply {
    pub pair: u32,
    pub reply: Option<u32>,
    pub edits: (u32, u32),
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// This many requests in flight per connection; depth 1 uses one
    /// connection only and so measures the bare round trip.
    Closed(usize),
    /// Offered load in requests per second.
    Open(f64),
}

impl Mode {
    fn is_closed(self) -> bool {
        matches!(self, Mode::Closed(_))
    }
}

/// The `UPDATE` traffic of `serve-churn`'s second connection.
pub struct Churn<'a> {
    pub edges: &'a [(VertexId, VertexId)],
    /// Edits sent so far across phases: edit `k` is `ADD` of edge `k / 2`
    /// when `k` is even, `DEL` of it when odd.
    pub next_edit: usize,
}

pub struct Plan<'a> {
    pub spec: &'a Spec,
    pub grid: &'a Grid,
    pub mode: Mode,
    /// Windows including the discarded warm-up window.
    pub windows: usize,
    /// Requests per window.
    pub window_requests: u64,
    pub seed: u64,
}

#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Wall seconds each window took (closed loop: reply to reply).
    pub window_secs: Vec<f64>,
    /// Per-window latencies, nanoseconds: from the due time in the open
    /// loop, from the send in the closed loop (meaningful at depth 1).
    pub window_latency_ns: Vec<Vec<u32>>,
    /// Open loop: how late each request left against its due time.
    pub lateness_ns: Vec<u32>,
    /// Open loop: the fewest requests unanswered at any send of the last
    /// window. A queue that grows keeps even its minimum high; one late
    /// burst from a stalled host does not.
    pub backlog_end: usize,
    pub grid_replies: Vec<GridReply>,
    /// `serve-churn`: per-window `UPDATE` round trips, milliseconds.
    pub window_edit_ms: Vec<Vec<f64>>,
    pub edit_tally: Tally,
}

struct Pending {
    /// Send time (closed) or due time (open), ns since the phase began.
    t0_ns: u64,
    index: u64,
    grid: Option<u32>,
    edits_lo: u32,
}

struct EditState {
    sent_at_ns: Option<u64>,
    next_tick_ns: u64,
    /// Edges whose `ADD` has been sent / whose `DEL` has been confirmed.
    started: u32,
    finished: u32,
}

/// Appends one request carrying `pairs`: a `QUERY` line, or on the
/// batched workload a `BATCH` frame.
pub fn encode_request(
    out: &mut Vec<u8>,
    spec: &Spec,
    pairs: impl IntoIterator<Item = (VertexId, VertexId)>,
) {
    if spec.batched() {
        out.extend_from_slice(b"BATCH ");
        push_u32(out, BATCH as u32);
        out.push(b'\n');
    } else {
        out.extend_from_slice(b"QUERY ");
    }
    for (s, t) in pairs {
        push_u32(out, s);
        out.push(b' ');
        push_u32(out, t);
        out.push(b'\n');
    }
}

/// Draws and appends the generator's next request; returns the grid index
/// of its leading pair, if it is one.
fn next_request(
    out: &mut Vec<u8>,
    spec: &Spec,
    grid: &Grid,
    stream: &mut PairStream,
) -> Option<u32> {
    let (lead, grid_index) = stream.draw(grid);
    let rest = (1..spec.answers_per_request()).map(|_| stream.draw_plain());
    encode_request(out, spec, std::iter::once(lead).chain(rest));
    grid_index
}

/// The leading distance of a well-formed exact reply, `None` for anything
/// that counts as a failure.
fn decode_reply(spec: &Spec, line: &[u8]) -> Option<Option<u32>> {
    if spec.batched() {
        let rest = line.strip_prefix(b"DISTS ")?;
        let mut tokens = rest.split(|&b| b == b' ');
        let lead = parse_distance(tokens.next()?)?;
        (tokens.count() == BATCH - 1).then_some(lead)
    } else {
        parse_distance(line.strip_prefix(b"DIST ")?)
    }
}

/// Runs one phase of query traffic over `links` and returns what it saw.
/// `tracer`, when enabled, records one `wire.request` span per request.
pub fn run(
    plan: &Plan,
    links: &mut [Link],
    stream: &mut PairStream,
    mut churn: Option<&mut Churn>,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let spec = plan.spec;
    let query_links = match plan.mode {
        Mode::Closed(1) => 1,
        _ if churn.is_some() => 1,
        _ => links.len(),
    };
    let total = plan.windows as u64 * plan.window_requests;
    let mut out = Outcome {
        window_latency_ns: vec![Vec::new(); plan.windows],
        window_edit_ms: vec![Vec::new(); plan.windows],
        ..Outcome::default()
    };
    let mut pending: Vec<VecDeque<Pending>> = (0..query_links).map(|_| VecDeque::new()).collect();
    let mut edit = EditState {
        sent_at_ns: None,
        next_tick_ns: 0,
        started: churn.as_ref().map_or(0, |c| (c.next_edit as u32).div_ceil(2)),
        finished: churn.as_ref().map_or(0, |c| c.next_edit as u32 / 2),
    };
    let mut arrivals = Rng::new(plan.seed, 7);
    let trace_base = tracer.now_ns();
    let origin = Instant::now();
    let clock = || origin.elapsed().as_nanos() as u64;

    let (mut sent, mut received) = (0u64, 0u64);
    let mut next_due_ns = 0u64;
    let mut window_started_ns = 0u64;
    let mut last_progress_ns = 0u64;
    let mut backlog_end = None;
    let mut due_batch: Vec<u64> = Vec::new();

    if let Mode::Closed(depth) = plan.mode {
        for (l, queue) in pending.iter_mut().enumerate() {
            for _ in 0..depth {
                if sent < total {
                    let grid = next_request(links[l].out(), spec, plan.grid, stream);
                    queue.push_back(Pending {
                        t0_ns: 0,
                        index: sent,
                        grid,
                        edits_lo: edit.finished,
                    });
                    sent += 1;
                }
            }
        }
    }

    while received < total {
        let mut now = clock();
        if let Mode::Open(rate) = plan.mode {
            let mean_gap_ns = 1e9 / rate;
            while sent < total && next_due_ns <= now {
                let l = (sent % query_links as u64) as usize;
                let grid = next_request(links[l].out(), spec, plan.grid, stream);
                pending[l].push_back(Pending {
                    t0_ns: next_due_ns,
                    index: sent,
                    grid,
                    edits_lo: edit.finished,
                });
                due_batch.push(next_due_ns);
                sent += 1;
                next_due_ns += arrivals.exp(mean_gap_ns) as u64;
            }
        }
        // The churn connection: one edit per tick, never two in flight.
        if let Some(churn) = churn.as_deref_mut() {
            if edit.sent_at_ns.is_none() && now >= edit.next_tick_ns {
                let k = churn.next_edit;
                let (u, v) = churn.edges[(k / 2) % churn.edges.len()];
                let link = &mut links[1];
                link.out().extend_from_slice(if k % 2 == 0 {
                    b"UPDATE ADD "
                } else {
                    b"UPDATE DEL "
                });
                push_u32(link.out(), u);
                link.out().push(b' ');
                push_u32(link.out(), v);
                link.out().push(b'\n');
                churn.next_edit += 1;
                if k % 2 == 0 {
                    edit.started += 1;
                }
                edit.sent_at_ns = Some(now);
                edit.next_tick_ns = now + CHURN_TICK_MS * 1_000_000;
                out.edit_tally.sent += 1;
            }
        }
        for link in links.iter_mut() {
            if link.unsent() > 0 {
                link.flush().map_err(|e| format!("{}: write failed: {e}", spec.name))?;
            }
        }
        if !due_batch.is_empty() {
            let left_at = clock();
            out.lateness_ns
                .extend(due_batch.drain(..).map(|due| (left_at - due).min(u32::MAX as u64) as u32));
            if sent > total - plan.window_requests {
                let waiting = (sent - received) as usize;
                backlog_end = Some(backlog_end.map_or(waiting, |least: usize| least.min(waiting)));
            }
        }

        let mut progressed = false;
        for l in 0..query_links {
            if links[l].fill().map_err(|e| format!("{}: read failed: {e}", spec.name))? == 0 {
                continue;
            }
            now = clock();
            let mut replies = 0u64;
            let queue = &mut pending[l];
            links[l].drain_lines(|line| {
                let Some(p) = queue.pop_front() else {
                    out.tally.failed += 1; // a reply nobody asked for
                    return;
                };
                replies += 1;
                match decode_reply(spec, line) {
                    Some(reply) => {
                        out.tally.ok += 1;
                        if let Some(pair) = p.grid {
                            out.grid_replies.push(GridReply {
                                pair,
                                reply,
                                edits: (p.edits_lo, edit.started),
                            });
                        }
                    }
                    None => out.tally.failed += 1,
                }
                let w = (p.index / plan.window_requests) as usize;
                out.window_latency_ns[w]
                    .push(now.saturating_sub(p.t0_ns).min(u32::MAX as u64) as u32);
                if plan.mode.is_closed()
                    && (received + replies).is_multiple_of(plan.window_requests)
                {
                    out.window_secs.push((now - window_started_ns) as f64 / 1e9);
                    window_started_ns = now;
                }
                tracer.record("wire.request", p.index, trace_base + p.t0_ns, trace_base + now);
            });
            received += replies;
            progressed |= replies > 0;
            if plan.mode.is_closed() {
                for _ in 0..replies {
                    if sent < total {
                        let grid = next_request(links[l].out(), spec, plan.grid, stream);
                        pending[l].push_back(Pending {
                            t0_ns: now,
                            index: sent,
                            grid,
                            edits_lo: edit.finished,
                        });
                        sent += 1;
                    }
                }
            }
        }
        if let (Some(churn), Some(_)) = (churn.as_deref(), edit.sent_at_ns) {
            if links[1].fill().map_err(|e| format!("{}: read failed: {e}", spec.name))? > 0 {
                now = clock();
                let window = ((received.min(total - 1)) / plan.window_requests) as usize;
                links[1].drain_lines(|line| {
                    let Some(sent_at) = edit.sent_at_ns.take() else { return };
                    if line.starts_with(b"UPDATED ") {
                        out.edit_tally.ok += 1;
                        out.window_edit_ms[window].push((now - sent_at) as f64 / 1e6);
                    } else {
                        out.edit_tally.failed += 1;
                    }
                });
                if edit.sent_at_ns.is_none() {
                    progressed = true;
                    edit.finished = churn.next_edit as u32 / 2;
                }
            }
        }

        if progressed {
            last_progress_ns = now;
        } else {
            if now - last_progress_ns > STALL_LIMIT.as_nanos() as u64 {
                return Err(format!(
                    "{}: timeout — no reply for {STALL_LIMIT:?} with {} requests in flight",
                    spec.name,
                    sent - received
                ));
            }
            std::thread::yield_now();
        }
    }

    // Leave no edit half-done: wait for the one in flight, and if an edge
    // is still live, take it out so the next phase starts on the base graph.
    if let Some(churn) = churn {
        if let Some(sent_at) = edit.sent_at_ns {
            let mut reply = None;
            while reply.is_none() {
                links[1].fill().map_err(|e| format!("{}: read failed: {e}", spec.name))?;
                links[1].drain_lines(|line| reply = Some(line.starts_with(b"UPDATED ")));
                if clock() - sent_at > STALL_LIMIT.as_nanos() as u64 {
                    return Err(format!("{}: timeout waiting for UPDATED", spec.name));
                }
                std::thread::yield_now();
            }
            if reply == Some(true) {
                out.edit_tally.ok += 1;
                out.window_edit_ms[plan.windows - 1].push((clock() - sent_at) as f64 / 1e6);
            } else {
                out.edit_tally.failed += 1;
            }
        }
        if churn.next_edit % 2 == 1 {
            let (u, v) = churn.edges[(churn.next_edit / 2) % churn.edges.len()];
            churn.next_edit += 1;
            out.edit_tally.sent += 1;
            let reply = links[1]
                .call(&format!("UPDATE DEL {u} {v}"))
                .map_err(|e| format!("{}: {e}", spec.name))?;
            if reply.starts_with("UPDATED ") {
                out.edit_tally.ok += 1;
            } else {
                out.edit_tally.failed += 1;
            }
        }
    }

    out.tally.sent = sent;
    out.backlog_end = backlog_end.unwrap_or(0);
    if let Mode::Open(rate) = plan.mode {
        // An open window lasts as long as its share of the schedule.
        out.window_secs = vec![plan.window_requests as f64 / rate; plan.windows];
    }
    Ok(out)
}
