//! The per-pass request path over the wire: the reactor gathers the
//! `QUERY` frames of one read pass into one executor job, workers hand
//! back a job's responses in one append with one wake-up per burst, and
//! each connection gets one `write` per pass. None of that may be visible
//! to a client — same bytes, same order, per-request errors — except in
//! the amortisation counters, which these tests read.

use hcl_core::testing::{ba_fixture, truth_map};
use hcl_graph::CsrGraph;
use hcl_server::protocol::format_query_response as dist_line;
use hcl_server::{QueryService, Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 500;

fn serve(cache: usize, config: ServerConfig) -> (ServerHandle, Arc<QueryService>, Arc<CsrGraph>) {
    let (g, labelling) = ba_fixture(N, 4, 29, 10);
    let service = Arc::new(QueryService::from_parts(Arc::clone(&g), labelling, cache));
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    (handle, service, g)
}

fn pair(i: usize) -> (u32, u32) {
    (((i * 7 + 3) % N) as u32, ((i * 13 + 1) % N) as u32)
}

/// Writes `request` in one `write_all` and reads `replies` lines back.
fn exchange(addr: std::net::SocketAddr, request: &str, replies: usize) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    (0..replies)
        .map(|i| {
            let mut line = String::new();
            let n = reader.read_line(&mut line).unwrap();
            assert!(n > 0, "connection closed after {i} of {replies} replies");
            line.trim_end().to_string()
        })
        .collect()
}

/// (a) One segment mixing runs of queries with every kind of frame that
/// ends a run: answered in exactly request order, the one bad query alone
/// gets `ERR`, and `queries` counts exactly the 80 good ones.
#[test]
fn mixed_pipeline_in_one_segment_is_answered_in_request_order() {
    let (handle, service, g) = serve(1 << 10, ServerConfig::default());
    let truth = truth_map(&g, (0..83).map(pair));

    let mut request = String::new();
    let mut expect = Vec::new();
    let query = |i: usize, request: &mut String, expect: &mut Vec<String>| {
        let (s, t) = pair(i);
        request.push_str(&format!("QUERY {s} {t}\n"));
        expect.push(dist_line(truth[&(s, t)]));
    };
    for i in 0..40 {
        query(i, &mut request, &mut expect);
    }
    request.push_str("PING\n");
    expect.push("PONG".to_string());
    request.push_str("BATCH 3\n");
    let mut dists = "DISTS".to_string();
    for i in 80..83 {
        let (s, t) = pair(i);
        request.push_str(&format!("{s} {t}\n"));
        dists.push_str(&dist_line(truth[&(s, t)])[4..]);
    }
    expect.push(dists);
    request.push_str(&format!("QUERY 7 {N}\n"));
    expect.push(format!("ERR vertex {N} out of range for graph with {N} vertices"));
    request.push_str("EPOCH\n");
    expect.push("EPOCH 0".to_string());
    for i in 40..80 {
        query(i, &mut request, &mut expect);
    }

    let got = exchange(handle.local_addr(), &request, expect.len());
    assert_eq!(got, expect);
    let snap = service.metrics_snapshot();
    assert_eq!(snap.queries, 80, "the out-of-range query is not counted as answered");
    assert_eq!(snap.batch_requests, 1);
    assert_eq!(snap.batch_queries, 3);
    assert_eq!(snap.errors, 1, "one ERR, for the one bad request");
    handle.shutdown();
}

/// (b) Admission is per request: a pipelined run larger than the queue
/// cap is served up to the cap and shed (`ERR busy`) past it — the run
/// does not fail as a whole — and every shed request is counted.
#[test]
fn a_run_past_max_pending_is_served_up_to_the_cap_then_shed() {
    let (handle, service, g) =
        serve(0, ServerConfig { max_pending: 8, batch_threads: 1, ..ServerConfig::default() });
    let truth = truth_map(&g, (0..32).map(pair));
    let request: String = (0..32).map(pair).map(|(s, t)| format!("QUERY {s} {t}\n")).collect();

    let got = exchange(handle.local_addr(), &request, 32);
    let busy = got.iter().filter(|line| *line == "ERR busy").count();
    for (i, line) in got.iter().enumerate() {
        let (s, t) = pair(i);
        // The queue starts empty, so the first eight always fit.
        assert!(i >= 8 || line != "ERR busy", "request {i} shed under the cap");
        assert!(
            line == "ERR busy" || *line == dist_line(truth[&(s, t)]),
            "request {i}: {line:?} is neither the exact answer nor ERR busy"
        );
    }
    assert!(busy > 0, "32 requests against a cap of 8 must shed some: {got:?}");
    let snap = service.metrics_snapshot();
    assert_eq!(snap.shed_requests, busy as u64, "one shed_requests per ERR busy");
    assert_eq!(snap.queries, (32 - busy) as u64);

    // The cap is not sticky and no depth leaked: the same run, one
    // request at a time, is served in full.
    for i in 0..32 {
        let (s, t) = pair(i);
        let got = exchange(handle.local_addr(), &format!("QUERY {s} {t}\n"), 1);
        assert_eq!(got[0], dist_line(truth[&(s, t)]));
    }
    assert_eq!(service.metrics_snapshot().shed_requests, busy as u64);
    handle.shutdown();
}

/// (c) A zero deadline expires a whole run: `deadline_expired` counts
/// jobs, the wire carries one `ERR deadline expired` per request.
#[test]
fn zero_deadline_expires_a_run_once_per_job_and_errs_every_request() {
    let (handle, service, _) =
        serve(0, ServerConfig { request_deadline: Some(Duration::ZERO), ..Default::default() });
    let request: String = (0..24).map(pair).map(|(s, t)| format!("QUERY {s} {t}\n")).collect();
    let got = exchange(handle.local_addr(), &request, 24);
    assert!(got.iter().all(|line| line == "ERR deadline expired"), "{got:?}");
    let snap = service.metrics_snapshot();
    assert_eq!(snap.errors, 24, "one error response per request");
    assert_eq!(snap.deadline_expired, snap.executor_jobs, "one expiry per job");
    assert!(snap.deadline_expired <= 24);
    handle.shutdown();
}

/// (d) Wake-up stress: with completions signalling only the empty →
/// non-empty edge of the queue, a lost wake-up would strand responses
/// and stall a connection forever. Four workers and eight deeply
/// pipelined connections race the reactor's clear-then-drain for 200k
/// queries; every response must arrive, in order, in bounded time.
#[test]
fn edge_signalled_wakeups_never_strand_a_response() {
    const CONNS: usize = 8;
    const PER_CONN: usize = 25_000;
    const WINDOW: usize = 96;
    let (handle, service, g) =
        serve(1 << 12, ServerConfig { batch_threads: 4, ..ServerConfig::default() });
    let truth = truth_map(&g, (0..997).map(pair));
    let addr = handle.local_addr();

    let started = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CONNS {
            let truth = &truth;
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let ask = |i: usize| pair((c * 131 + i) % 997);
                let (mut sent, mut line) = (0, String::new());
                for got in 0..PER_CONN {
                    // Keep WINDOW requests in flight, topping up in bursts.
                    if sent < PER_CONN && sent - got <= WINDOW / 2 {
                        let burst: String = (sent..(got + WINDOW).min(PER_CONN))
                            .map(&ask)
                            .map(|(s, t)| format!("QUERY {s} {t}\n"))
                            .collect();
                        sent = (got + WINDOW).min(PER_CONN);
                        writer.write_all(burst.as_bytes()).unwrap();
                    }
                    line.clear();
                    let n = reader.read_line(&mut line).expect("a stranded response times out");
                    assert!(n > 0, "conn {c} closed after {got} replies");
                    assert_eq!(line.trim_end(), dist_line(truth[&ask(got)]), "conn {c} #{got}");
                }
            });
        }
    });
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(120), "200k queries took {elapsed:?}");

    let snap = service.metrics_snapshot();
    assert_eq!(snap.queries, (CONNS * PER_CONN) as u64);
    assert!(
        snap.wake_signals < snap.queries,
        "{} wake-ups for {} completions: bursts must share a signal",
        snap.wake_signals,
        snap.queries
    );
    handle.shutdown();
}

/// (e) The amortisation itself: 1,000 pipelined queries written at once
/// cost a few dozen executor hand-offs and socket writes, not a thousand
/// of each.
#[test]
fn a_thousand_pipelined_queries_cost_few_jobs_and_few_writes() {
    let (handle, service, g) = serve(1 << 10, ServerConfig::default());
    let truth = truth_map(&g, (0..1000).map(pair));
    let request: String = (0..1000).map(pair).map(|(s, t)| format!("QUERY {s} {t}\n")).collect();
    let expect: Vec<String> = (0..1000).map(|i| dist_line(truth[&pair(i)])).collect();

    let got = exchange(handle.local_addr(), &request, 1000);
    assert_eq!(got, expect);
    let snap = service.metrics_snapshot();
    assert_eq!(snap.queries, 1000);
    // `MAX_INFLIGHT` (128 slots) pauses reads, so the thousand arrive as
    // a handful of read passes — each one job and about one write.
    assert!(snap.executor_jobs <= 64, "{} jobs for 1000 queries", snap.executor_jobs);
    assert!(snap.socket_writes <= 64, "{} writes for 1000 replies", snap.socket_writes);
    assert!(snap.wake_signals <= 1 + snap.executor_jobs, "at most one wake-up per job");
    assert!(snap.reactor_passes >= 1);
    handle.shutdown();
}
