//! The per-pass request path over the wire: the reactor answers the
//! cache hits among the `QUERY` frames of one read pass itself and gathers
//! the misses into one executor job, workers hand back a job's responses
//! in one append with one wake-up per burst, and each connection gets one
//! `write` per pass. None of that may be visible to a client — same
//! bytes, same order, per-request errors — except in the amortisation
//! counters, which these tests read.

use hcl_core::testing::{ba_fixture, truth_map};
use hcl_core::HighwayCoverLabelling;
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
    Conn::open(addr).send(request, replies)
}

/// One client connection, kept open across exchanges.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        Conn { writer: stream.try_clone().unwrap(), reader: BufReader::new(stream) }
    }

    /// Writes `request` in one `write_all` and reads `replies` lines back.
    fn send(&mut self, request: &str, replies: usize) -> Vec<String> {
        self.writer.write_all(request.as_bytes()).unwrap();
        (0..replies)
            .map(|i| {
                let mut line = String::new();
                let n = self.reader.read_line(&mut line).unwrap();
                assert!(n > 0, "connection closed after {i} of {replies} replies");
                line.trim_end().to_string()
            })
            .collect()
    }

    /// One request, one reply.
    fn call(&mut self, request: &str) -> String {
        self.send(&format!("{request}\n"), 1).remove(0)
    }

    /// Reads `METRICS` over this connection and returns the named
    /// counters. The reply reflects every earlier pass in full, and the
    /// `METRICS` pass itself only up to its own reply.
    fn counters<const K: usize>(&mut self, keys: [&str; K]) -> [u64; K] {
        let json = self.call("METRICS");
        keys.map(|key| {
            let at = json.find(&format!("\"{key}\":")).unwrap_or_else(|| panic!("{key}: {json}"));
            let digits = &json[at + key.len() + 3..];
            let end = digits.find(|c: char| !c.is_ascii_digit()).unwrap();
            digits[..end].parse().unwrap()
        })
    }
}

/// (a, g) One segment mixing runs of queries — cache hits and misses
/// interleaved — with every kind of frame that ends a run: answered in
/// exactly request order, the hits on the reactor, the one bad query
/// alone gets `ERR`, and `queries` counts exactly the good ones.
#[test]
fn mixed_pipeline_in_one_segment_is_answered_in_request_order() {
    let (handle, service, g) = serve(1 << 10, ServerConfig::default());
    let truth = truth_map(&g, (0..83).map(pair));

    // Warm every other pair of the segment's queries: those 40 hit.
    let warm: String =
        (0..80).step_by(2).map(pair).map(|(s, t)| format!("QUERY {s} {t}\n")).collect();
    let expect_warm: Vec<String> = (0..80).step_by(2).map(|i| dist_line(truth[&pair(i)])).collect();
    assert_eq!(exchange(handle.local_addr(), &warm, 40), expect_warm);
    assert_eq!(service.metrics_snapshot().inline_hits, 0, "a cold cache answers nothing inline");

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
    assert_eq!(snap.queries, 40 + 80, "the out-of-range query is not counted as answered");
    assert_eq!(snap.inline_hits, 40, "every warmed pair, and only those, hit on the reactor");
    assert_eq!(snap.batch_requests, 1);
    assert_eq!(snap.batch_queries, 3);
    assert_eq!(snap.errors, 1, "one ERR, for the one bad request");
    handle.shutdown();
}

/// (b, i) Admission is per request: a pipelined run larger than the
/// queue cap is served up to the cap and shed (`ERR busy`) past it — the
/// run does not fail as a whole — and every shed request is counted. A
/// cache hit takes no queue room, so with the queue full hits are still
/// answered and only misses are shed.
#[test]
fn a_run_past_max_pending_is_served_up_to_the_cap_then_shed() {
    let (handle, service, g) = serve(
        1 << 14,
        ServerConfig { max_pending: 8, batch_threads: 1, ..ServerConfig::default() },
    );
    let truth = truth_map(&g, (0..72).map(pair));
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

    // Now all 32 are cached. Forty fresh misses fill the queue and spill;
    // the 32 hits behind them in the same segment are all answered.
    let before = service.metrics_snapshot();
    let request: String =
        (32..72).chain(0..32).map(pair).map(|(s, t)| format!("QUERY {s} {t}\n")).collect();
    let got = exchange(handle.local_addr(), &request, 72);
    for (line, i) in got.iter().zip((32..72).chain(0..32)) {
        let exact = dist_line(truth[&pair(i)]);
        match i {
            0..32 => assert_eq!(*line, exact, "hit {i} must never be shed"),
            _ => assert!(*line == exact || line == "ERR busy", "miss {i}: {line:?}"),
        }
    }
    let busy = got.iter().filter(|line| *line == "ERR busy").count() as u64;
    assert!(busy >= 40 - 8, "forty misses against a cap of 8: {got:?}");
    let after = service.metrics_snapshot();
    assert_eq!(after.inline_hits - before.inline_hits, 32);
    assert_eq!(after.shed_requests - before.shed_requests, busy);
    assert_eq!(after.queries - before.queries, 72 - busy);
    handle.shutdown();
}

/// (c) A zero deadline expires a whole run: `deadline_expired` counts
/// jobs, the wire carries one `ERR deadline expired` per queued request.
/// A cache hit is never queued, so it never meets the deadline.
#[test]
fn zero_deadline_expires_a_run_once_per_job_and_errs_every_request() {
    let (handle, service, g) = serve(
        1 << 10,
        ServerConfig { request_deadline: Some(Duration::ZERO), ..Default::default() },
    );
    // Nothing computed under a zero deadline reaches the cache, so the
    // hits are planted: the exact answers of pairs 0..8 under epoch 0.
    let truth = truth_map(&g, (0..8).map(pair));
    for (&(s, t), &d) in &truth {
        service.cache().unwrap().insert(s, t, 0, d);
    }
    let request: String = (0..32).map(pair).map(|(s, t)| format!("QUERY {s} {t}\n")).collect();
    let got = exchange(handle.local_addr(), &request, 32);
    for (i, line) in got.iter().enumerate() {
        match i {
            0..8 => assert_eq!(*line, dist_line(truth[&pair(i)]), "hit {i}"),
            _ => assert_eq!(line, "ERR deadline expired", "miss {i}"),
        }
    }
    let snap = service.metrics_snapshot();
    assert_eq!(snap.errors, 24, "one error response per expired request");
    assert_eq!(snap.inline_hits, 8);
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

/// (f) A depth-1 loop of repeated queries: after the warm-up misses,
/// every request is a cache hit answered on the reactor — one pass and
/// one write per reply, no executor job and no wake-up — and the cache
/// is looked up exactly once per `QUERY`. A pipelined run with one miss
/// among its hits is one job and one write.
#[test]
fn depth_one_cache_hits_take_one_pass_one_write_and_no_hand_off() {
    const KEYS: [&str; 6] = [
        "executor_jobs",
        "wake_signals",
        "inline_hits",
        "socket_writes",
        "reactor_passes",
        "queries",
    ];
    let (handle, service, g) = serve(1 << 10, ServerConfig::default());
    let pairs: Vec<(u32, u32)> = (0..10).map(pair).collect();
    let truth = truth_map(&g, pairs.iter().copied());
    let mut conn = Conn::open(handle.local_addr());
    let ask = |conn: &mut Conn, i: usize| {
        let (s, t) = pairs[i % pairs.len()];
        assert_eq!(conn.call(&format!("QUERY {s} {t}")), dist_line(truth[&(s, t)]), "query {i}");
    };

    for i in 0..10 {
        ask(&mut conn, i);
    }
    let warm = conn.counters(KEYS);
    assert_eq!(warm[2], 0, "the warm-up queries all missed");
    for i in 10..200 {
        ask(&mut conn, i);
    }
    let hot = conn.counters(KEYS);
    let delta: Vec<u64> = hot.iter().zip(&warm).map(|(h, w)| h - w).collect();
    // The first METRICS read's own pass and write land in the delta too.
    assert_eq!(delta, [0, 0, 190, 190 + 1, 190 + 1, 190], "{KEYS:?}");

    // One pipelined run of 31 hits around one miss: the miss is the only
    // job, and its completion carries the hits, so the run still leaves
    // in one write.
    let run: Vec<(u32, u32)> =
        (0..32).map(|j| if j == 16 { pair(10) } else { pairs[j % pairs.len()] }).collect();
    let truth = truth_map(&g, run.iter().copied());
    let request: String = run.iter().map(|(s, t)| format!("QUERY {s} {t}\n")).collect();
    let expect: Vec<String> = run.iter().map(|p| dist_line(truth[p])).collect();
    assert_eq!(conn.send(&request, 32), expect);
    let mixed = conn.counters(KEYS);
    let delta: Vec<u64> = mixed.iter().zip(&hot).map(|(m, h)| m - h).collect();
    assert_eq!(
        [delta[0], delta[1], delta[2], delta[3], delta[5]],
        [1, 1, 31, 1 + 1, 32],
        "{KEYS:?}"
    );

    let cache = service.cache_stats();
    assert_eq!(cache.misses, 11);
    assert_eq!(cache.hits + cache.misses, service.metrics_snapshot().queries);
    handle.shutdown();
}

/// (h) A cached answer never outlives an edit on its only shortest path:
/// `QUERY s t` twice (a miss, then a hit on the reactor), `UPDATE DEL` of
/// an edge on that path, `QUERY s t` again — on one connection — and the
/// last answer is the post-edit distance. The landmarks are two
/// non-adjacent hubs, so the edit moves the highway between them too.
#[test]
fn an_update_between_two_queries_is_never_answered_from_the_cache() {
    // Hubs 0 and 1 joined by a short path 0-2-3-1 and a long one
    // 0-4-5-6-7-1; s = 8 hangs off hub 0, t = 9 off hub 1, and six more
    // leaves each make the hubs the two top-degree vertices.
    let mut edges =
        vec![(0, 2), (2, 3), (3, 1), (0, 4), (4, 5), (5, 6), (6, 7), (7, 1), (0, 8), (1, 9)];
    edges.extend((10..16).map(|v| (0, v)));
    edges.extend((16..22).map(|v| (1, v)));
    let g = Arc::new(CsrGraph::from_edges(22, &edges));
    let landmarks = hcl_graph::order::top_degree(&g, 2);
    assert_eq!(landmarks.len(), 2);
    assert!(landmarks.contains(&0) && landmarks.contains(&1) && !g.has_edge(0, 1));
    let (labelling, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
    let service = Arc::new(QueryService::from_parts(Arc::clone(&g), Arc::new(labelling), 1 << 10));
    let handle =
        Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let before = truth_map(&g, [(8, 9)])[&(8, 9)];
    let after = truth_map(&g.without_edge(2, 3).unwrap(), [(8, 9)])[&(8, 9)];
    assert_eq!((before, after), (Some(5), Some(7)));

    let mut conn = Conn::open(handle.local_addr());
    assert_eq!(conn.call("QUERY 8 9"), dist_line(before));
    assert_eq!(conn.call("QUERY 8 9"), dist_line(before));
    assert_eq!(service.metrics_snapshot().inline_hits, 1, "the repeat hit on the reactor");
    assert!(conn.call("UPDATE DEL 2 3").starts_with("UPDATED 1 "));
    assert_eq!(conn.call("QUERY 8 9"), dist_line(after), "served the pre-edit answer");
    handle.shutdown();
}
