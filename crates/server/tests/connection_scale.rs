//! Connection-scale tests for the epoll reactor: the server must hold
//! hundreds of mostly-idle connections with a *fixed* number of threads
//! (one reactor + the worker pool — connections are fds, not threads),
//! answer correctly through all of them, and enforce `max_connections`
//! and `idle_timeout`.
//!
//! The thread-count assertion counts this process's tasks *by name*
//! (`/proc/self/task/*/comm`): the server names its threads `hcl-reactor`
//! and `hcl-worker-<i>`, so the test harness's own threads — which come
//! and go as sibling tests start — never enter the count. The three tests
//! still serialise on a file-local mutex so only one server is alive.

use hcl_core::testing::{ba_fixture, truth_map};
use hcl_server::{Client, QueryService, Server, ServerConfig};
use std::io::Read;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Mostly-idle connections held open concurrently. Scaled down in debug
/// builds so `cargo test -q` stays fast; the release-mode CI job proves
/// the full 256 (the acceptance bar).
const IDLE_CONNS: usize = if cfg!(debug_assertions) { 96 } else { 256 };
/// Connections actively issuing traffic alongside the idle ones.
const ACTIVE_CONNS: usize = 4;
const ROUNDS: usize = 20;

static SERIAL: Mutex<()> = Mutex::new(());

fn serialise() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Live reactor and worker threads in this process, by thread name.
fn serving_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("hcl-reactor") || comm.starts_with("hcl-worker"))
        .count()
}

fn pair_for(round: usize, i: usize, n: usize) -> (u32, u32) {
    let s = ((round * 37 + i * 131 + 5) % n) as u32;
    let t = ((round * 7 + i * 61 + 1) % n) as u32;
    (s, t)
}

#[test]
fn hundreds_of_idle_connections_on_a_fixed_thread_count() {
    let _guard = serialise();
    const N: usize = 400;
    const BATCH_THREADS: usize = 2;

    let (g, labelling) = ba_fixture(N, 4, 11, 8);
    let pairs: Vec<(u32, u32)> =
        (0..ROUNDS).flat_map(|r| (0..ACTIVE_CONNS + 8).map(move |i| pair_for(r, i, N))).collect();
    let truth = truth_map(&g, pairs.iter().copied());

    assert_eq!(serving_threads(), 0, "tests are serialised: no other server is alive");
    let service = Arc::new(QueryService::from_parts(g, labelling, 1 << 10));
    let config = ServerConfig {
        batch_threads: BATCH_THREADS,
        max_connections: IDLE_CONNS + ACTIVE_CONNS + 16,
        idle_timeout: Duration::ZERO, // idle on purpose; don't reap
        ..Default::default()
    };
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr();

    // Open the idle herd. Each PING round-trip proves the server admitted
    // and registered the connection (not just the kernel backlog).
    let mut idle: Vec<Client> = Vec::with_capacity(IDLE_CONNS);
    for i in 0..IDLE_CONNS {
        let mut client = Client::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}"));
        client.ping().unwrap_or_else(|e| panic!("ping {i}: {e}"));
        idle.push(client);
    }
    assert_eq!(service.metrics_snapshot().active_connections, IDLE_CONNS as u64);

    // Thread count is independent of connection count: exactly one
    // reactor thread plus the worker pool, no matter how many sockets
    // are open.
    assert_eq!(
        serving_threads(),
        1 + BATCH_THREADS,
        "{IDLE_CONNS} connections — the reactor must not spawn per connection"
    );

    // A few active connections interleave correct traffic (single,
    // batched, and pipelined) through the same reactor while the herd
    // sits idle.
    let mut active: Vec<Client> =
        (0..ACTIVE_CONNS).map(|_| Client::connect(addr).unwrap()).collect();
    for round in 0..ROUNDS {
        for (c, client) in active.iter_mut().enumerate() {
            let q = pair_for(round, c, N);
            assert_eq!(client.query(q.0, q.1).unwrap(), truth[&q], "round {round} conn {c}");

            let batch: Vec<(u32, u32)> =
                (0..4).map(|b| pair_for(round, ACTIVE_CONNS + b, N)).collect();
            let got = client.batch(&batch).unwrap();
            for (&p, d) in batch.iter().zip(&got) {
                assert_eq!(*d, truth[&p], "round {round} conn {c} batch {p:?}");
            }

            let piped: Vec<(u32, u32)> =
                (0..4).map(|b| pair_for(round, ACTIVE_CONNS + 4 + b, N)).collect();
            let got = client.pipelined_queries(&piped).unwrap();
            for (&p, d) in piped.iter().zip(&got) {
                assert_eq!(*d, truth[&p], "round {round} conn {c} pipelined {p:?}");
            }
        }
    }

    // The idle herd survived all of it.
    for (i, client) in idle.iter_mut().enumerate() {
        client.ping().unwrap_or_else(|e| panic!("idle conn {i} died: {e}"));
    }
    let snap = service.metrics_snapshot();
    assert_eq!(snap.active_connections, (IDLE_CONNS + ACTIVE_CONNS) as u64);
    assert_eq!(snap.rejected_connections, 0);
    assert_eq!(snap.timed_out_connections, 0);

    drop(idle);
    drop(active);
    handle.shutdown();
}

#[test]
fn max_connections_rejects_the_overflow_with_err_and_close() {
    let _guard = serialise();
    const CAP: usize = 8;

    let (g, labelling) = ba_fixture(120, 3, 5, 4);
    let service = Arc::new(QueryService::from_parts(g, labelling, 0));
    let config = ServerConfig {
        batch_threads: 1,
        max_connections: CAP,
        idle_timeout: Duration::ZERO,
        ..Default::default()
    };
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr();

    let mut admitted: Vec<Client> = Vec::new();
    for _ in 0..CAP {
        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap(); // round-trip ⇒ admitted
        admitted.push(client);
    }

    // One over the cap: the TCP connect succeeds (kernel backlog), but the
    // server answers a single ERR line and closes without admitting it.
    let mut over = std::net::TcpStream::connect(addr).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut rejected = String::new();
    over.read_to_string(&mut rejected).unwrap();
    assert!(
        rejected.is_empty() || rejected.starts_with("ERR "),
        "overflow connection got {rejected:?}"
    );

    let snap = service.metrics_snapshot();
    assert_eq!(snap.active_connections, CAP as u64);
    assert_eq!(snap.rejected_connections, 1);

    // Freeing one slot lets the next client in.
    drop(admitted.pop());
    let mut retry = None;
    for _ in 0..100 {
        let mut client = Client::connect(addr).unwrap();
        if client.ping().is_ok() {
            retry = Some(client);
            break;
        }
        // The reactor may not have reaped the closed slot yet.
        std::thread::sleep(Duration::from_millis(20));
    }
    retry.expect("a freed slot must become usable again");

    handle.shutdown();
}

#[test]
fn idle_timeout_reaps_quiet_connections_but_spares_active_ones() {
    let _guard = serialise();
    let (g, labelling) = ba_fixture(120, 3, 9, 4);
    let service = Arc::new(QueryService::from_parts(g, labelling, 0));
    let config = ServerConfig {
        batch_threads: 1,
        idle_timeout: Duration::from_millis(400),
        ..Default::default()
    };
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr();

    let mut quiet = Client::connect(addr).unwrap();
    quiet.ping().unwrap();
    let mut busy = Client::connect(addr).unwrap();
    busy.ping().unwrap();

    // Keep `busy` under the timeout with steady traffic while `quiet`
    // says nothing for several timeout periods.
    for _ in 0..12 {
        std::thread::sleep(Duration::from_millis(100));
        busy.ping().expect("active connection must never be reaped");
    }

    // The quiet connection was closed by the server: the next read sees
    // EOF (or a reset), not a response.
    let err = quiet.ping();
    assert!(err.is_err(), "idle connection must have been reaped");
    let snap = service.metrics_snapshot();
    assert_eq!(snap.timed_out_connections, 1);
    assert_eq!(snap.active_connections, 1, "only the busy connection remains");

    handle.shutdown();
}
