//! Fault-injected serving tests (`--features fault-injection`): the full
//! TCP server driven through scripted syscall failures — 1-byte reads,
//! EINTR storms on every hooked syscall, mid-frame connection resets —
//! plus the overload protections (`ERR busy` shedding, per-request
//! deadlines) asserted end to end over the wire.
//!
//! Faults fire on the reactor thread, so every script here is installed
//! globally; [`exclusive`] serialises the tests sharing that slot.

#![cfg(feature = "fault-injection")]

use hcl_core::fault::{
    exclusive, install_global, Fault, Op, Script, Trigger, EAGAIN, ECONNRESET, EINTR,
};
use hcl_core::testing::truth_map;
use hcl_core::HighwayCoverLabelling;
use hcl_graph::CsrGraph;
use hcl_server::{Client, ClientError, QueryService, Server, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const N: usize = 600;

fn serve_with_graph(config: ServerConfig) -> (ServerHandle, Arc<QueryService>, Arc<CsrGraph>) {
    let g = Arc::new(hcl_graph::generate::barabasi_albert(N, 4, 51));
    let landmarks = hcl_graph::order::top_degree(&g, 12);
    let (labelling, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
    let service = Arc::new(QueryService::from_parts(Arc::clone(&g), Arc::new(labelling), 1 << 10));
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    (handle, service, g)
}

fn serve(config: ServerConfig) -> (ServerHandle, Arc<QueryService>) {
    let (handle, service, _) = serve_with_graph(config);
    (handle, service)
}

/// The farthest non-adjacent workload pair — inserting this edge changes
/// the workload's own answers, so the assertions below can tell the two
/// generations apart.
fn absent_far_pair(
    g: &CsrGraph,
    truth: &HashMap<(u32, u32), Option<u32>>,
    pairs: &[(u32, u32)],
) -> (u32, u32) {
    pairs
        .iter()
        .copied()
        .filter(|&(s, t)| s != t && !g.has_edge(s, t))
        .max_by_key(|p| truth[p].unwrap_or(u32::MAX))
        .expect("workload contains a non-adjacent pair")
}

fn workload(count: usize) -> Vec<(u32, u32)> {
    (0..count as u64)
        .map(|i| (((i * 2_654_435_761) % N as u64) as u32, ((i * 97 + 1) % N as u64) as u32))
        .collect()
}

/// Ground truth computed with no faults installed.
fn truth(handle: &ServerHandle, pairs: &[(u32, u32)]) -> HashMap<(u32, u32), Option<u32>> {
    let mut client = Client::connect(handle.local_addr()).unwrap();
    pairs.iter().map(|&(s, t)| ((s, t), client.query(s, t).unwrap())).collect()
}

fn stat(body: &str, key: &str) -> u64 {
    body.split_ascii_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("missing {key} in {body}"))
        .parse()
        .unwrap()
}

/// The heart of the chaos suite: every server-side read arrives one byte
/// at a time with an EINTR every other call, every write is cut short
/// with an EINTR every third call — and every answer is still exact.
#[test]
fn one_byte_reads_and_eintr_storms_serve_exact_answers() {
    let _serial = exclusive();
    let (handle, _service) = serve(ServerConfig::default());
    let pairs = workload(40);
    let expected = truth(&handle, &pairs);

    let guard = install_global(
        Script::new()
            .on(Op::Read, Trigger::Every(2), Fault::Errno(EINTR))
            .on(Op::Read, Trigger::Always, Fault::Short(1))
            .on(Op::Write, Trigger::Every(3), Fault::Errno(EINTR))
            .on(Op::Write, Trigger::Always, Fault::Short(1)),
    );
    let mut client = Client::connect(handle.local_addr()).unwrap();
    for &(s, t) in &pairs {
        assert_eq!(client.query(s, t).unwrap(), expected[&(s, t)], "d({s},{t}) under faults");
    }
    // Batches exercise the same fragmented wire with longer lines.
    let got = client.batch(&pairs).unwrap();
    for (&(s, t), d) in pairs.iter().zip(&got) {
        assert_eq!(*d, expected[&(s, t)], "batch d({s},{t}) under faults");
    }
    assert!(guard.calls(Op::Read) > pairs.len() as u64, "1-byte reads multiply read calls");
    assert!(guard.calls(Op::Write) > pairs.len() as u64, "1-byte writes multiply write calls");
    drop(guard);
}

/// The per-pass write path under the worst socket: a pipelined run's
/// replies are coalesced into one buffer, and that buffer then leaves one
/// byte per `write` with every third call refused `EAGAIN` (so the flush
/// is abandoned mid-buffer and resumed on `EPOLLOUT`, again and again).
/// Every byte still arrives, in request order.
#[test]
fn short_and_eagain_writes_drain_a_coalesced_reply_buffer_in_order() {
    let _serial = exclusive();
    let (handle, _service) = serve(ServerConfig::default());
    let pairs = workload(64);
    let expected = truth(&handle, &pairs);
    let reply_bytes: u64 = pairs
        .iter()
        .map(|p| hcl_server::protocol::format_query_response(expected[p]).len() as u64 + 1)
        .sum();

    let guard =
        install_global(Script::new().on(Op::Write, Trigger::Every(3), Fault::Errno(EAGAIN)).on(
            Op::Write,
            Trigger::Always,
            Fault::Short(1),
        ));
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let got = client.pipelined_queries(&pairs).unwrap();
    for (&(s, t), d) in pairs.iter().zip(&got) {
        assert_eq!(*d, expected[&(s, t)], "pipelined d({s},{t}) under faults");
    }
    assert!(
        guard.calls(Op::Write) >= reply_bytes + reply_bytes / 2,
        "{} write calls for {reply_bytes} reply bytes: one byte per call, a third refused",
        guard.calls(Op::Write)
    );
    drop(guard);
}

/// A connection reset mid-stream kills that connection only: the client
/// observes a transport error (or a dead response), the server stays up,
/// and a fresh connection answers exactly.
#[test]
fn mid_frame_reset_is_contained_to_one_connection() {
    let _serial = exclusive();
    let (handle, _service) = serve(ServerConfig::default());
    let pairs = workload(8);
    let expected = truth(&handle, &pairs);

    let guard =
        install_global(Script::new().on(Op::Read, Trigger::At(3), Fault::Errno(ECONNRESET)));
    let mut victim = Client::connect(handle.local_addr()).unwrap();
    let mut died = false;
    for &(s, t) in &pairs {
        match victim.query(s, t) {
            Ok(d) => assert_eq!(d, expected[&(s, t)]),
            Err(ClientError::Io(_) | ClientError::Disconnected) => {
                died = true;
                break;
            }
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    }
    assert!(died, "the injected reset must kill the victim connection");
    drop(guard);

    let mut fresh = Client::connect(handle.local_addr()).unwrap();
    for &(s, t) in &pairs {
        assert_eq!(fresh.query(s, t).unwrap(), expected[&(s, t)], "post-reset d({s},{t})");
    }
}

/// EINTR regressions for the remaining hooked syscalls: accept,
/// epoll_wait, and both eventfd halves all retry (or tolerate) the
/// interruption and the request flow never notices. The truth is BFS,
/// not the server, so the storm's queries miss the cache and complete
/// through the worker pool and the eventfd rather than on the reactor.
#[test]
fn accept_epoll_and_eventfd_eintr_are_retried() {
    let _serial = exclusive();
    let (handle, _service, g) = serve_with_graph(ServerConfig::default());
    let pairs = workload(20);
    let expected = truth_map(&g, pairs.iter().copied());

    let guard = install_global(
        Script::new()
            .on(Op::Accept, Trigger::At(0), Fault::Errno(EINTR))
            .on(Op::EpollWait, Trigger::Every(2), Fault::Errno(EINTR))
            .on(Op::EventFdWrite, Trigger::Every(2), Fault::Errno(EINTR))
            .on(Op::EventFdRead, Trigger::Every(2), Fault::Errno(EINTR)),
    );
    // The first accept call eats the injected EINTR, retries, and still
    // lands this connection.
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.ping().unwrap();
    for &(s, t) in &pairs {
        assert_eq!(client.query(s, t).unwrap(), expected[&(s, t)], "d({s},{t}) under EINTR");
    }
    assert!(guard.calls(Op::Accept) >= 2, "accept was interrupted and retried");
    assert!(guard.calls(Op::EventFdWrite) >= 1, "completions signalled through the storm");
    drop(guard);
}

/// An `UPDATE` riding the same faulted wire as the chaos query storm:
/// the request line arrives one byte at a time through an EINTR storm,
/// the ack goes back in 1-byte writes — and the patched index is still
/// exact: every post-ack answer matches BFS on the edited graph.
#[test]
fn update_under_eintr_and_short_io_applies_exactly() {
    let _serial = exclusive();
    let (handle, _service, g) = serve_with_graph(ServerConfig::default());
    let pairs = workload(24);
    let truth_old = truth_map(&g, pairs.iter().copied());
    let (u, v) = absent_far_pair(&g, &truth_old, &pairs);
    let truth_new = truth_map(&g.with_edge(u, v).unwrap(), pairs.iter().copied());
    assert_ne!(truth_old, truth_new, "the edit must move the workload's answers");

    let guard = install_global(
        Script::new()
            .on(Op::Read, Trigger::Every(2), Fault::Errno(EINTR))
            .on(Op::Read, Trigger::Always, Fault::Short(1))
            .on(Op::Write, Trigger::Every(3), Fault::Errno(EINTR))
            .on(Op::Write, Trigger::Always, Fault::Short(1)),
    );
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let (epoch, affected) = client.update(true, u, v).unwrap();
    assert_eq!(epoch, 1);
    assert!(affected > 0);
    for &(s, t) in &pairs {
        assert_eq!(client.query(s, t).unwrap(), truth_new[&(s, t)], "d({s},{t}) under faults");
    }
    drop(guard);
}

/// A connection reset racing an `UPDATE` — before the request line is
/// fully read, or after the edit applied but before the ack flushed —
/// must leave the index a *whole* generation: a fresh connection sees
/// either the fully-old or the fully-new answers (matching the epoch it
/// reports), never a mixture.
#[test]
fn mid_update_reset_leaves_a_whole_generation() {
    let _serial = exclusive();
    for reset_at in [0u64, 1, 2] {
        let (handle, service, g) = serve_with_graph(ServerConfig::default());
        let pairs = workload(16);
        let truth_old = truth_map(&g, pairs.iter().copied());
        let (u, v) = absent_far_pair(&g, &truth_old, &pairs);
        let truth_new = truth_map(&g.with_edge(u, v).unwrap(), pairs.iter().copied());

        let guard = install_global(Script::new().on(
            Op::Read,
            Trigger::At(reset_at),
            Fault::Errno(ECONNRESET),
        ));
        // The victim's UPDATE may be answered, die on the wire, or be
        // killed before it was even parsed — all three are legal; only a
        // torn index is not.
        let mut victim = Client::connect(handle.local_addr()).unwrap();
        let _ = victim.update(true, u, v);
        drop(guard);

        let mut fresh = Client::connect(handle.local_addr()).unwrap();
        let epoch = fresh.epoch().unwrap();
        let truth = match epoch {
            0 => &truth_old,
            1 => &truth_new,
            e => panic!("reset_at={reset_at}: impossible epoch {e}"),
        };
        for &(s, t) in &pairs {
            assert_eq!(
                fresh.query(s, t).unwrap(),
                truth[&(s, t)],
                "reset_at={reset_at}, epoch {epoch}: d({s},{t}) not from a whole generation"
            );
        }
        assert_eq!(
            service.metrics().snapshot().updates_applied,
            epoch,
            "counter agrees with the surviving generation"
        );
        handle.shutdown();
    }
}

/// Overload shedding over the wire: with a 4-query executor cap, a batch
/// of 5 is refused `ERR busy` before any work is queued; `STATS` and
/// `METRICS` both report the shed.
#[test]
fn flood_past_max_pending_is_shed_with_busy() {
    let (handle, _service) =
        serve(ServerConfig { max_pending: 4, batch_threads: 1, ..ServerConfig::default() });
    let mut client = Client::connect(handle.local_addr()).unwrap();

    assert_eq!(client.batch(&workload(4)).unwrap().len(), 4, "within the cap: served");
    let err = client.batch(&workload(5)).unwrap_err();
    assert_eq!(err.to_string(), "server error: busy", "wire form is `ERR busy`: {err}");

    let stats = client.stats().unwrap();
    assert_eq!(stat(&stats, "shed_requests"), 1, "{stats}");
    let json = client.metrics().unwrap();
    assert!(json.contains("\"shed_requests\":1"), "{json}");
    // Shedding is not sticky: the next in-cap request is served.
    assert_eq!(client.batch(&workload(3)).unwrap().len(), 3);
}

/// Per-request deadlines over the wire: with a zero deadline every query
/// resolves `ERR deadline expired` (computing nothing), and the counter
/// shows up in `STATS` and `METRICS`.
#[test]
fn zero_request_deadline_expires_on_the_wire() {
    let (handle, service) =
        serve(ServerConfig { request_deadline: Some(Duration::ZERO), ..ServerConfig::default() });
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let err = client.query(1, 2).unwrap_err();
    assert_eq!(err.to_string(), "server error: deadline expired", "{err}");
    let stats = client.stats().unwrap();
    assert_eq!(stat(&stats, "deadline_expired"), 1, "{stats}");
    let json = client.metrics().unwrap();
    assert!(json.contains("\"deadline_expired\":1"), "{json}");

    // Lifting the deadline restores exact service on the same socket.
    service.set_request_deadline(None);
    let d = client.query(1, 2).unwrap();
    let mut fresh = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(fresh.query(1, 2).unwrap(), d);
}
