//! End-to-end loopback test: a real TCP server on an ephemeral port,
//! hammered by concurrent client threads issuing mixed `QUERY`/`BATCH`
//! traffic, with every returned distance checked against single-threaded
//! BFS ground truth.

use hcl_core::HighwayCoverLabelling;
use hcl_graph::generate;
use hcl_server::{Client, QueryService, Server, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const N: usize = 1_200;
const CLIENT_THREADS: usize = 4;
const ROUNDS_PER_THREAD: usize = 40;
const BATCH_SIZE: usize = 8;

/// Deterministic query stream per (thread, index). Every 5th pair is
/// thread-independent and the stream repeats with period 150, so the cache
/// sees hits both across threads and within one connection.
fn pair_for(thread: usize, i: usize) -> (u32, u32) {
    let i = i % 150;
    let thread = if i.is_multiple_of(5) { 0 } else { thread };
    let s = ((i as u64 * 2_654_435_761 + thread as u64 * 40_503) % N as u64) as u32;
    let t = ((i as u64 * 97 + thread as u64 * 31 + 1) % N as u64) as u32;
    (s, t)
}

#[test]
fn concurrent_clients_get_exact_distances() {
    let g = Arc::new(generate::barabasi_albert(N, 5, 77));
    let landmarks = hcl_graph::order::top_degree(&g, 16);
    let (labelling, _) = HighwayCoverLabelling::build_parallel(&g, &landmarks, 0).unwrap();

    // Offline BFS ground truth for exactly the pairs the clients will ask.
    let expected = hcl_core::testing::truth_map(
        &g,
        (0..CLIENT_THREADS).flat_map(|thread| {
            (0..ROUNDS_PER_THREAD * (BATCH_SIZE + 1)).map(move |i| pair_for(thread, i))
        }),
    );

    let service = Arc::new(QueryService::from_parts(Arc::clone(&g), Arc::new(labelling), 1 << 12));
    let config = ServerConfig { batch_threads: 4, ..Default::default() };
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr();

    // Each round issues 1 QUERY + 1 BATCH of 8 → 4 threads × 40 rounds × 9
    // = 1,440 distances, interleaved across connections.
    let served = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for thread in 0..CLIENT_THREADS {
            let expected = &expected;
            let served = &served;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.ping().expect("ping");
                for round in 0..ROUNDS_PER_THREAD {
                    let base = round * (BATCH_SIZE + 1);
                    let (qs, qt) = pair_for(thread, base);
                    let got = client.query(qs, qt).expect("query");
                    assert_eq!(got, expected[&(qs, qt)], "thread {thread} d({qs}, {qt})");

                    let pairs: Vec<(u32, u32)> =
                        (1..=BATCH_SIZE).map(|b| pair_for(thread, base + b)).collect();
                    let got = client.batch(&pairs).expect("batch");
                    for (&(s, t), d) in pairs.iter().zip(&got) {
                        assert_eq!(*d, expected[&(s, t)], "thread {thread} batch d({s}, {t})");
                    }
                    served.fetch_add(1 + BATCH_SIZE as u64, Ordering::Relaxed);
                }
            });
        }
    });
    let total = served.load(Ordering::Relaxed);
    assert_eq!(total, (CLIENT_THREADS * ROUNDS_PER_THREAD * (1 + BATCH_SIZE)) as u64);
    assert!(total >= 1_000, "the scenario must exercise at least 1000 distances");

    // Server-side accounting agrees with what the clients sent.
    let snap = service.metrics_snapshot();
    assert_eq!(snap.queries, (CLIENT_THREADS * ROUNDS_PER_THREAD) as u64);
    assert_eq!(snap.batch_requests, (CLIENT_THREADS * ROUNDS_PER_THREAD) as u64);
    assert_eq!(snap.batch_queries, (CLIENT_THREADS * ROUNDS_PER_THREAD * BATCH_SIZE) as u64);
    assert_eq!(snap.connections, CLIENT_THREADS as u64);
    let cache = service.cache_stats();
    assert_eq!(cache.hits + cache.misses, total, "every distance went through the cache");
    assert!(cache.hits > 0, "the deterministic stream repeats pairs across threads");

    handle.shutdown();
}

#[test]
fn stats_errors_and_graceful_shutdown_over_the_wire() {
    let (g, labelling) = hcl_core::testing::ba_fixture(300, 4, 5, 8);
    let service = Arc::new(QueryService::from_parts(g, labelling, 64));
    let handle =
        Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    let mut client = Client::connect(addr).unwrap();

    // Malformed requests produce ERR without killing the connection.
    assert!(client.raw("NONSENSE").unwrap().starts_with("ERR "));
    assert!(client.raw("QUERY 1").unwrap().starts_with("ERR "));
    assert!(client.raw("QUERY 0 999999").unwrap().starts_with("ERR "), "out of range");
    assert!(client.query(0, 299).is_ok(), "connection still usable after errors");

    // STATS reflects the traffic so far.
    let stats = client.stats().unwrap();
    let get = |key: &str| -> u64 {
        stats
            .split_ascii_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("{key} missing from {stats}"))
            .parse()
            .unwrap()
    };
    assert_eq!(get("queries"), 1);
    assert_eq!(get("errors"), 3);
    assert_eq!(get("active_connections"), 1);
    assert_eq!(get("cache_misses"), 1);
    assert_eq!(get("epoch"), 0, "no reload has happened");
    assert_eq!(get("reloads"), 0);
    assert_eq!(get("cache_stale"), 0);

    // Graceful shutdown: BYE, then the port stops accepting.
    client.shutdown_server().unwrap();
    handle.join();
    assert!(handle.is_shutting_down());
    assert!(
        Client::connect(addr).map(|mut c| c.ping()).map_or(true, |r| r.is_err()),
        "server must not answer after shutdown"
    );
}

/// Search effort is a count, not a timing: the same seeded pair set
/// reports exactly the same `search_edges_scanned` /
/// `search_vertices_settled` on every run, in `METRICS` and in `STATS`,
/// whether the pairs arrive as single `QUERY`s or as one `BATCH`.
#[test]
fn search_effort_counters_repeat_exactly() {
    let run = |as_batch: bool| -> (u64, u64, u64) {
        let (g, labelling) = hcl_core::testing::ba_fixture(N, 5, 77, 16);
        // No cache: every query (single and batched) reaches the index.
        let service = Arc::new(QueryService::from_parts(g, labelling, 0));
        let handle =
            Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        let pairs: Vec<(u32, u32)> = (0..300).map(|i| pair_for(1, i)).collect();
        if as_batch {
            client.batch(&pairs).unwrap();
        } else {
            for &(s, t) in &pairs {
                client.query(s, t).unwrap();
            }
        }

        // Read the counts off STATS, then require METRICS to agree.
        let stats = client.stats().unwrap();
        let json = client.metrics().unwrap();
        let get = |key: &str| -> u64 {
            let value: u64 = stats
                .split_ascii_whitespace()
                .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
                .unwrap_or_else(|| panic!("{key} missing from {stats}"))
                .parse()
                .unwrap();
            assert!(json.contains(&format!("\"{key}\":{value},")), "{key}={value}: {json}");
            value
        };
        let effort =
            (get("searched_queries"), get("search_edges_scanned"), get("search_vertices_settled"));
        handle.shutdown();
        effort
    };
    let first = run(false);
    assert!(first.0 > 0, "the pair set must exercise the bounded search");
    assert!(first.1 > 0 && first.2 >= 2 * first.0, "every search marks its two endpoints");
    assert_eq!(run(false), first);
    assert_eq!(run(true), first, "a BATCH member's miss counts like a QUERY's");
}

#[test]
fn shutdown_drains_inflight_connections() {
    let (g, labelling) = hcl_core::testing::ba_fixture(200, 4, 9, 6);
    let service = Arc::new(QueryService::from_parts(g, labelling, 0));
    let handle =
        Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    // A client with an open connection keeps querying while another thread
    // triggers shutdown; the in-flight request completes, later ones fail.
    let mut client = Client::connect(addr).unwrap();
    assert!(client.query(0, 199).is_ok());
    handle.shutdown(); // blocks until the connection drains
    assert!(client.query(0, 199).is_err(), "connection closed after drain");
}

/// Regression: a malformed pair in the middle of a BATCH body must not
/// desync the request/response stream — the server consumes the whole
/// declared body and answers with exactly one ERR.
#[test]
fn malformed_batch_body_does_not_desync_the_connection() {
    use std::io::{BufRead, BufReader, Write};

    let (g, labelling) = hcl_core::testing::ba_fixture(100, 3, 4, 4);
    let service = Arc::new(QueryService::from_parts(g, labelling, 0));
    let handle =
        Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();

    let stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut line = String::new();
    let mut roundtrip = |writer: &mut std::net::TcpStream,
                         reader: &mut BufReader<std::net::TcpStream>,
                         request: &str| {
        writer.write_all(request.as_bytes()).unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    };

    // Garbage in the middle of the declared body: one ERR, body consumed.
    let response = roundtrip(&mut writer, &mut reader, "BATCH 3\n1 2\nGARBAGE\n3 4\n");
    assert!(response.starts_with("ERR "), "got {response:?}");
    // The very next request must get its own, correct answer.
    assert_eq!(roundtrip(&mut writer, &mut reader, "PING\n"), "PONG");
    assert!(roundtrip(&mut writer, &mut reader, "QUERY 0 1\n").starts_with("DIST "));

    handle.shutdown();
}

/// Regression: one over-long garbage line must close the connection
/// instead of buffering without bound, and must not affect other clients.
/// The incremental decoder additionally sends one clean `ERR` line before
/// the close (the old transport closed silently).
#[test]
fn oversized_request_line_closes_only_that_connection() {
    use std::io::{Read, Write};

    let (g, labelling) = hcl_core::testing::ba_fixture(100, 3, 4, 4);
    let service = Arc::new(QueryService::from_parts(g, labelling, 0));
    let handle =
        Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut bad = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    let garbage = vec![b'x'; 64 * 1024]; // no newline anywhere
    bad.write_all(&garbage).unwrap();
    bad.flush().unwrap();
    // The server answers at most one ERR line, then closes; it must never
    // echo data or hang.
    bad.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    let mut received = Vec::new();
    // A read error (reset) also counts as closed.
    if bad.read_to_end(&mut received).is_ok() {
        let text = String::from_utf8_lossy(&received);
        assert!(
            text.is_empty() || (text.starts_with("ERR ") && text.ends_with('\n')),
            "expected nothing or one ERR line before close, got {text:?}"
        );
        assert!(received.len() < 256, "unexpected volume before close");
    }

    // A well-behaved client on another connection is unaffected.
    let mut good = Client::connect(handle.local_addr()).unwrap();
    assert!(good.query(0, 99).is_ok());
    handle.shutdown();
}

/// Regression: shutdown must complete even when bound to the wildcard
/// address (the accept-loop poke substitutes loopback).
#[test]
fn shutdown_completes_on_wildcard_bind() {
    let (g, labelling) = hcl_core::testing::ba_fixture(50, 3, 4, 3);
    let service = Arc::new(QueryService::from_parts(g, labelling, 0));
    let handle = Server::bind(service, "0.0.0.0:0", ServerConfig::default()).unwrap();
    assert!(handle.local_addr().ip().is_unspecified());
    let mut client = Client::connect(("127.0.0.1", handle.local_addr().port())).unwrap();
    assert!(client.query(0, 49).is_ok());
    handle.shutdown(); // must not hang
    assert!(handle.is_shutting_down());
}

/// Regression: a BATCH header the server cannot honour (k beyond the
/// protocol maximum) gets one ERR and a connection close — the undelimited
/// body in flight can never desync later requests or deadlock the handler.
#[test]
fn oversized_batch_header_errors_and_closes() {
    use std::io::{BufRead, BufReader, Read, Write};

    let (g, labelling) = hcl_core::testing::ba_fixture(100, 3, 4, 4);
    let service = Arc::new(QueryService::from_parts(g, labelling, 0));
    let handle =
        Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();

    let stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer
        .write_all(format!("BATCH {}\n0 1\n0 2\n", hcl_server::protocol::MAX_BATCH + 1).as_bytes())
        .unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR "), "got {line:?}");
    // The server closes rather than trying to resync past an undelimited body.
    let mut rest = Vec::new();
    reader.get_mut().set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    // A read error (connection reset) also counts as closed.
    if reader.read_to_end(&mut rest).is_ok() {
        assert!(rest.is_empty(), "unexpected trailing data: {rest:?}");
    }

    // Fresh connections are unaffected.
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert!(client.query(0, 99).is_ok());
    handle.shutdown();
}
