//! Incremental-update integration tests: a live server applies `UPDATE`
//! edge edits while client threads hammer it over established
//! connections.
//!
//! The correctness contract under test:
//!
//! * no connection is dropped by an update — every client keeps its one
//!   TCP connection for the whole run;
//! * every answered distance matches one of the two generations' BFS
//!   ground truths, and a batch racing the swap is answered entirely on
//!   ONE generation — never a mixture (torn read);
//! * any query issued after the `UPDATED` acknowledgement matches the
//!   *new* graph exactly — the [`PairFilter`]-certified cache retag must
//!   never carry a changed pair across the epoch boundary, even though
//!   the clients deliberately keep a hot set of repeated pairs resident
//!   in the cache across the swap;
//! * pipelined updates on one connection are queued and applied in
//!   order (never refused like concurrent `RELOAD`s), each advancing
//!   the epoch by one;
//! * `UPDATED` means *published*: the cache revalidation of each edit
//!   runs afterwards, on its own thread, and may lag a burst of edits by
//!   several generations or be dropped altogether — through all of which
//!   every answer still comes from exactly one generation, and a `RELOAD`
//!   sent the moment the last `UPDATED` arrives is neither refused nor
//!   followed by an answer from before it;
//! * packed (mmap-served) generations refuse updates and stay
//!   untouched.

use hcl_core::testing::{ba_fixture, truth_map};
use hcl_server::{Client, QueryService, Server, ServerConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const N: usize = 600;
const CLIENT_THREADS: usize = 4;
const BATCH_SIZE: usize = 6;
/// Rounds every thread runs *after* the update is acknowledged.
const POST_UPDATE_ROUNDS: usize = 30;

/// The deterministic query stream — same shape as the reload tests: a
/// hot set of repeated pairs that stays cache-resident across the swap,
/// exactly the entries that would leak stale answers if the retag
/// certified too much.
fn pair_for(thread: usize, i: usize) -> (u32, u32) {
    let i = i % 40;
    let s = ((i as u64 * 131 + thread as u64 * 7) % N as u64) as u32;
    let t = ((i as u64 * 37 + 11) % N as u64) as u32;
    (s, t)
}

fn all_pairs() -> Vec<(u32, u32)> {
    (0..CLIENT_THREADS).flat_map(|th| (0..40).map(move |i| pair_for(th, i))).collect()
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hcl-update-{}-{name}", std::process::id()))
}

/// The farthest non-adjacent streamed pair: inserting this edge drops
/// its own distance to 1, so the stream is guaranteed to observe the
/// edit.
fn pick_absent_edge(
    g: &hcl_graph::CsrGraph,
    truth: &HashMap<(u32, u32), Option<u32>>,
) -> (u32, u32) {
    all_pairs()
        .into_iter()
        .filter(|&(s, t)| s != t && !g.has_edge(s, t))
        .max_by_key(|p| truth[p].unwrap_or(u32::MAX))
        .expect("stream contains a non-adjacent pair")
}

#[test]
fn update_under_live_traffic_never_serves_stale_or_torn_answers() {
    let (graph_a, labelling_a) = ba_fixture(N, 4, 1001, 12);
    let truth_a = truth_map(&graph_a, all_pairs());
    let (u, v) = pick_absent_edge(&graph_a, &truth_a);
    let graph_b = graph_a.with_edge(u, v).expect("edge absent");
    let truth_b = truth_map(&graph_b, all_pairs());
    assert!(
        all_pairs().iter().any(|p| truth_a[p] != truth_b[p]),
        "the edit must change at least one streamed answer, or the test proves nothing"
    );

    let service = Arc::new(QueryService::from_parts(graph_a, labelling_a, 1 << 12));
    let config = ServerConfig { batch_threads: 2, ..Default::default() };
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr();

    let updated = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    let check = |got: Option<u32>,
                 pair: (u32, u32),
                 sent_after_update: bool,
                 truth_a: &HashMap<(u32, u32), Option<u32>>,
                 truth_b: &HashMap<(u32, u32), Option<u32>>| {
        let (a, b) = (truth_a[&pair], truth_b[&pair]);
        if sent_after_update {
            assert_eq!(got, b, "post-update d{pair:?} must come from the new graph (old: {a:?})");
        } else {
            assert!(got == a || got == b, "d{pair:?} = {got:?} matches neither generation");
        }
    };

    std::thread::scope(|scope| {
        for thread in 0..CLIENT_THREADS {
            let (updated, served) = (&updated, &served);
            let (truth_a, truth_b) = (&truth_a, &truth_b);
            scope.spawn(move || {
                // ONE connection for the whole test: queries succeeding
                // after the swap prove the update dropped nothing.
                let mut client = Client::connect(addr).expect("connect");
                let mut i = 0usize;
                let mut post_rounds = 0usize;
                while post_rounds < POST_UPDATE_ROUNDS {
                    // Sampled before sending: if the ack was already
                    // seen, the server swapped before these requests
                    // started.
                    let after = updated.load(Ordering::SeqCst);
                    if after {
                        post_rounds += 1;
                    }
                    let q = pair_for(thread, i);
                    let got = client.query(q.0, q.1).expect("query");
                    check(got, q, after, truth_a, truth_b);

                    let pairs: Vec<(u32, u32)> =
                        (1..=BATCH_SIZE).map(|b| pair_for(thread, i + b)).collect();
                    let got = client.batch(&pairs).expect("batch");
                    if after {
                        for (&p, &d) in pairs.iter().zip(&got) {
                            check(d, p, true, truth_a, truth_b);
                        }
                    } else {
                        // A batch racing the swap is answered on either
                        // generation — but on exactly ONE of them.
                        let matches = |truth: &HashMap<(u32, u32), Option<u32>>| {
                            pairs.iter().zip(&got).all(|(&p, &d)| d == truth[&p])
                        };
                        assert!(
                            matches(truth_a) || matches(truth_b),
                            "torn batch (mixed generations): {pairs:?} -> {got:?}"
                        );
                    }
                    served.fetch_add(1 + BATCH_SIZE as u64, Ordering::Relaxed);
                    i += 1;
                }
            });
        }

        // Let the clients warm the cache on epoch 0, then apply the edit.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let mut admin = Client::connect(addr).expect("admin connect");
        assert_eq!(admin.epoch().unwrap(), 0);
        let (epoch, affected) = admin.update(true, u, v).expect("update");
        assert_eq!(epoch, 1);
        assert!(affected > 0, "inserting a distance-3+ edge must relabel someone");
        updated.store(true, Ordering::SeqCst);
        assert_eq!(admin.epoch().unwrap(), 1);
    });

    let total = served.load(Ordering::Relaxed);
    assert!(
        total >= (CLIENT_THREADS * POST_UPDATE_ROUNDS * (1 + BATCH_SIZE)) as u64,
        "only {total} distances served"
    );

    // Server-side accounting: one update applied, and the retag DID keep
    // part of the hot set resident across the swap (hits keep landing
    // after the epoch bump), making the stale-crossing assertions above
    // meaningful.
    let mut admin = Client::connect(addr).unwrap();
    let stats = admin.stats().unwrap();
    let get = |key: &str| -> u64 {
        stats
            .split_ascii_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("{key} missing from {stats}"))
            .parse()
            .unwrap()
    };
    assert_eq!(get("epoch"), 1);
    assert_eq!(get("updates_applied"), 1);
    assert!(get("update_affected_vertices") > 0);
    assert!(get("cache_hits") > 0, "the repeated stream must produce cache hits");

    handle.shutdown();
}

/// A burst of pipelined `UPDATE`s under live repeated-pair traffic: the
/// edits publish faster than their revalidations run (each revalidation
/// is two whole-graph BFS passes and a cache sweep; the queue behind the
/// worker holds eight), so hot entries spend the burst fenced behind old
/// epoch tags, some chains are dropped, and the lagging worker keeps
/// retagging for epochs that are no longer live. None of that may show:
/// every reply matches one generation of the script, every batch matches
/// one generation throughout, replies sent after the last `UPDATED` match
/// the final generation, and replies after the `RELOAD` that follows at
/// once — while revalidations may still be queued — match the reloaded
/// graph.
#[test]
fn pipelined_updates_never_serve_stale_or_torn_answers_while_revalidation_lags() {
    use std::io::{BufRead, BufReader, Write};

    let (base, labelling) = ba_fixture(N, 4, 77, 12);
    let base_truth = truth_map(&base, all_pairs());
    // Edits at the hot set itself: ADD e₁, DEL e₁, ADD e₂, … ADD eₖ. Each
    // added edge is a streamed pair, so every generation answers its own
    // pair differently from the generations around it.
    let mut hot: Vec<(u32, u32)> = all_pairs();
    hot.sort_unstable();
    hot.dedup();
    let edges: Vec<(u32, u32)> = hot
        .into_iter()
        .filter(|&(s, t)| s != t && !base.has_edge(s, t) && base_truth[&(s, t)].unwrap_or(0) > 2)
        .take(12)
        .collect();
    assert_eq!(edges.len(), 12);
    let mut request = String::new();
    let mut truths = vec![base_truth.clone()];
    for (i, &(u, v)) in edges.iter().enumerate() {
        request.push_str(&format!("UPDATE ADD {u} {v}\n"));
        truths.push(truth_map(&base.with_edge(u, v).unwrap(), all_pairs()));
        if i + 1 < edges.len() {
            request.push_str(&format!("UPDATE DEL {u} {v}\n"));
        }
    }
    let updates = 2 * edges.len() - 1;
    let final_truth = truths.last().unwrap().clone();

    let graph_path = temp_path("lagging.hclg");
    let index_path = temp_path("lagging.hcl");
    hcl_graph::io::save_binary(&base, &graph_path).unwrap();
    hcl_core::io::save_labelling(&labelling, &index_path).unwrap();

    let service = Arc::new(QueryService::from_parts(Arc::clone(&base), labelling, 1 << 12));
    let config = ServerConfig { batch_threads: 2, ..Default::default() };
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr();

    // 0: the burst has not been acknowledged; 1: it has; 2: the reload is
    // in flight; 3: it has been acknowledged. Sampled before a request is
    // sent, so a reply can only be newer than the phase it was sent in.
    let phase = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for thread in 0..CLIENT_THREADS {
            let (phase, truths, final_truth, base_truth) =
                (&phase, &truths, &final_truth, &base_truth);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut i = 0usize;
                let mut rounds_after_reload = 0;
                while rounds_after_reload < POST_UPDATE_ROUNDS {
                    let sent_in = phase.load(Ordering::SeqCst);
                    rounds_after_reload += (sent_in == 3) as usize;
                    let mut pairs: Vec<(u32, u32)> =
                        (0..=BATCH_SIZE).map(|b| pair_for(thread, i + b)).collect();
                    let single = pairs.pop().unwrap();
                    let got_single = client.query(single.0, single.1).expect("query");
                    let got = client.batch(&pairs).expect("batch");
                    let on = |truth: &HashMap<(u32, u32), Option<u32>>| {
                        pairs.iter().zip(&got).all(|(&p, &d)| d == truth[&p])
                    };
                    match (sent_in, phase.load(Ordering::SeqCst)) {
                        (3, _) => {
                            assert_eq!(got_single, base_truth[&single], "after RELOAD: {single:?}");
                            assert!(on(base_truth), "after RELOAD: {pairs:?} -> {got:?}");
                        }
                        (1, 1) => {
                            assert_eq!(got_single, final_truth[&single], "after the burst");
                            assert!(on(final_truth), "after the burst: {pairs:?} -> {got:?}");
                        }
                        _ => {
                            assert!(
                                truths.iter().any(|t| t[&single] == got_single),
                                "d{single:?} = {got_single:?} matches no generation"
                            );
                            assert!(
                                truths.iter().any(on),
                                "torn or stale batch: {pairs:?} -> {got:?}"
                            );
                        }
                    }
                    i += 1;
                }
            });
        }

        // Let the clients fill the cache on epoch 0, then fire the burst.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(request.as_bytes()).unwrap();
        let mut line = String::new();
        for i in 0..updates {
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with(&format!("UPDATED {} ", i + 1)), "update {i}: {line:?}");
        }
        phase.store(1, Ordering::SeqCst);
        // Long enough for the clients to query the final generation, short
        // against a backlog of revalidations.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let mut admin = Client::connect(addr).expect("admin connect");
        phase.store(2, Ordering::SeqCst);
        let reloaded = admin
            .reload(graph_path.to_str().unwrap(), index_path.to_str())
            .expect("RELOAD right after the burst must not be refused");
        assert_eq!(reloaded, updates as u64 + 1);
        phase.store(3, Ordering::SeqCst);
    });

    let snap = service.metrics().snapshot();
    assert_eq!(snap.updates_applied, updates as u64);
    assert!(snap.revalidations_dropped + snap.revalidations_skipped <= updates as u64, "{snap:?}");
    handle.shutdown();
    let _ = std::fs::remove_file(&graph_path);
    let _ = std::fs::remove_file(&index_path);
}

/// Pipelined `UPDATE`s on one connection are queued behind the busy
/// gate and applied in arrival order — never refused the way pipelined
/// `RELOAD` floods are — so every line gets an `UPDATED` ack and the
/// epoch advances exactly once per edit.
#[test]
fn pipelined_updates_apply_in_order_and_are_never_refused() {
    use std::io::{BufRead, BufReader, Write};

    let (graph, labelling) = ba_fixture(N, 4, 5, 12);
    let truth = truth_map(&graph, all_pairs());
    let (u, v) = pick_absent_edge(&graph, &truth);

    let service = Arc::new(QueryService::from_parts(Arc::clone(&graph), labelling, 64));
    let handle =
        Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();

    let stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    // ADD/DEL the same edge back and forth: every line is valid when
    // applied in order, and any reordering or concurrent application
    // would reject a duplicate/missing edge.
    const ROUNDS: usize = 4;
    let mut request = String::new();
    for _ in 0..ROUNDS {
        request.push_str(&format!("UPDATE ADD {u} {v}\nUPDATE DEL {u} {v}\n"));
    }
    request.push_str("PING\n");
    writer.write_all(request.as_bytes()).unwrap();
    writer.flush().unwrap();

    let mut line = String::new();
    for i in 0..2 * ROUNDS {
        line.clear();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        let epoch: u64 = line
            .strip_prefix("UPDATED ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("update {i}: {line:?}"))
            .parse()
            .unwrap();
        assert_eq!(epoch, i as u64 + 1, "epochs advance once per queued edit");
    }
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "PONG", "connection survives the pipelined updates");

    // Net effect of the ADD/DEL pairs is identity: answers match the
    // original graph again.
    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(client.epoch().unwrap(), 2 * ROUNDS as u64);
    for &(s, t) in all_pairs().iter().take(20) {
        assert_eq!(client.query(s, t).unwrap(), truth[&(s, t)], "d({s}, {t})");
    }

    handle.shutdown();
}

/// `UPDATED` must not be visible while the update drain still holds the
/// busy gate it shares with `RELOAD`: a client that reads the
/// acknowledgement and sends `RELOAD` at once is alone on the server, so
/// `ERR reload already in progress` would be a lie.
#[test]
fn reload_right_after_updated_is_never_refused() {
    let (graph, labelling) = ba_fixture(N, 4, 21, 12);
    let truth = truth_map(&graph, all_pairs());
    let (u, v) = pick_absent_edge(&graph, &truth);

    let graph_path = temp_path("after-update.hclg");
    let index_path = temp_path("after-update.hcl");
    hcl_graph::io::save_binary(&graph, &graph_path).unwrap();
    hcl_core::io::save_labelling(&labelling, &index_path).unwrap();

    let service = Arc::new(QueryService::from_parts(Arc::clone(&graph), labelling, 64));
    let handle =
        Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut client = Client::connect(handle.local_addr()).unwrap();
    for round in 0..200u64 {
        // Each RELOAD restores the original graph, so the ADD is valid
        // every round.
        let (epoch, _) = client.update(true, u, v).unwrap();
        assert_eq!(epoch, 2 * round + 1);
        let reloaded = client
            .reload(graph_path.to_str().unwrap(), index_path.to_str())
            .unwrap_or_else(|e| panic!("round {round}: RELOAD after UPDATED refused: {e}"));
        assert_eq!(reloaded, 2 * round + 2);
    }

    handle.shutdown();
    let _ = std::fs::remove_file(&graph_path);
    let _ = std::fs::remove_file(&index_path);
}

/// A packed (mmap-served) generation cannot be patched in place: the
/// update is refused with a pointed error and the serving generation is
/// untouched; reloading a plain index makes updates work again.
#[test]
fn update_is_refused_on_a_packed_generation() {
    let (graph, labelling) = ba_fixture(N, 4, 9, 12);
    let truth = truth_map(&graph, all_pairs());
    let (u, v) = pick_absent_edge(&graph, &truth);

    let packed_path = temp_path("packed.hclx");
    let sparse = hcl_core::SparseView::build(&graph, labelling.highway());
    hcl_store::save_packed(&labelling, &sparse, &packed_path).unwrap();

    let service = Arc::new(QueryService::from_parts(Arc::clone(&graph), labelling, 64));
    let handle =
        Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(client.reload(packed_path.to_str().unwrap(), None).unwrap(), 1);
    let err = client.update(true, u, v).unwrap_err();
    assert!(err.to_string().contains("packed"), "{err}");
    assert_eq!(client.epoch().unwrap(), 1, "refused update must not advance the epoch");
    for &(s, t) in all_pairs().iter().take(10) {
        assert_eq!(client.query(s, t).unwrap(), truth[&(s, t)], "d({s}, {t})");
    }

    handle.shutdown();
    let _ = std::fs::remove_file(&packed_path);
}

/// Out-of-range endpoints and self-loops are rejected without touching
/// the index.
#[test]
fn invalid_updates_are_rejected_cleanly() {
    let (graph, labelling) = ba_fixture(200, 4, 3, 8);
    let present = graph.neighbors(0)[0];
    let absent = (1..200).find(|&w| !graph.has_edge(0, w)).unwrap();
    let service = Arc::new(QueryService::from_parts(graph, labelling, 0));
    let handle =
        Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut client = Client::connect(handle.local_addr()).unwrap();
    assert!(client.update(true, 0, 10_000).is_err(), "out of range");
    assert!(client.update(true, 7, 7).is_err(), "self loop");
    assert!(client.update(true, 0, present).is_err(), "edge already present");
    assert!(client.update(false, 0, absent).is_err(), "deleting an absent edge");
    assert_eq!(client.epoch().unwrap(), 0);
    assert_eq!(service.metrics().snapshot().updates_applied, 0);

    handle.shutdown();
}
