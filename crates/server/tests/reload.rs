//! Hot-reload integration tests: a live server swaps its index between two
//! fixture graphs while client threads hammer it over established
//! connections.
//!
//! The correctness contract under test:
//!
//! * no connection is dropped by a reload — every client keeps its one
//!   TCP connection for the whole run;
//! * every answered distance matches one of the two graphs' BFS ground
//!   truths (never a mixture within one batch);
//! * any query issued after the `RELOADED` acknowledgement matches the
//!   *new* graph exactly — i.e. no stale cache hit ever crosses the epoch
//!   boundary, even though the clients deliberately keep a hot set of
//!   repeated pairs resident in the cache across the swap.

use hcl_core::testing::{ba_fixture, truth_map};
use hcl_core::HighwayCoverLabelling;
use hcl_server::{Client, QueryService, Server, ServerConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const N: usize = 600;
const CLIENT_THREADS: usize = 4;
const BATCH_SIZE: usize = 6;
/// Rounds every thread runs *after* the reload is acknowledged.
const POST_RELOAD_ROUNDS: usize = 30;

/// The deterministic query stream. Every thread cycles through the same
/// 40 pairs (plus a per-thread offset pair), so the cache holds a hot set
/// of repeated pairs across the swap — exactly the entries that would leak
/// stale answers if epoch invalidation were broken.
fn pair_for(thread: usize, i: usize) -> (u32, u32) {
    let i = i % 40;
    let s = ((i as u64 * 131 + thread as u64 * 7) % N as u64) as u32;
    let t = ((i as u64 * 37 + 11) % N as u64) as u32;
    (s, t)
}

fn all_pairs() -> Vec<(u32, u32)> {
    (0..CLIENT_THREADS).flat_map(|th| (0..40).map(move |i| pair_for(th, i))).collect()
}

fn build(seed: u64) -> (Arc<hcl_graph::CsrGraph>, Arc<HighwayCoverLabelling>) {
    ba_fixture(N, 4, seed, 12)
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hcl-reload-{}-{name}", std::process::id()))
}

#[test]
fn reload_under_live_traffic_never_serves_stale_or_torn_answers() {
    let (graph_a, labelling_a) = build(1001);
    let (graph_b, labelling_b) = build(2002);

    // Ground truth for the full stream on both generations.
    let truth_a = truth_map(&graph_a, all_pairs());
    let truth_b = truth_map(&graph_b, all_pairs());
    assert!(
        all_pairs().iter().any(|p| truth_a[p] != truth_b[p]),
        "fixture graphs must disagree on the query stream, or the test proves nothing"
    );

    // Generation B goes to disk; the server starts on generation A.
    let graph_path = temp_path("b.hclg");
    let index_path = temp_path("b.hcl");
    hcl_graph::io::save_binary(&graph_b, &graph_path).unwrap();
    hcl_core::io::save_labelling(&labelling_b, &index_path).unwrap();

    let service = Arc::new(QueryService::from_parts(graph_a, labelling_a, 1 << 12));
    let config = ServerConfig { batch_threads: 2, ..Default::default() };
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr();

    let reloaded = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    let check = |got: Option<u32>,
                 pair: (u32, u32),
                 sent_after_reload: bool,
                 truth_a: &HashMap<(u32, u32), Option<u32>>,
                 truth_b: &HashMap<(u32, u32), Option<u32>>| {
        let (a, b) = (truth_a[&pair], truth_b[&pair]);
        if sent_after_reload {
            assert_eq!(got, b, "post-reload d{pair:?} must come from the new graph (old: {a:?})");
        } else {
            assert!(got == a || got == b, "d{pair:?} = {got:?} matches neither epoch");
        }
    };

    std::thread::scope(|scope| {
        for thread in 0..CLIENT_THREADS {
            let (reloaded, served) = (&reloaded, &served);
            let (truth_a, truth_b) = (&truth_a, &truth_b);
            scope.spawn(move || {
                // ONE connection for the whole test: queries succeeding
                // after the swap prove the reload dropped nothing.
                let mut client = Client::connect(addr).expect("connect");
                let mut i = 0usize;
                let mut post_rounds = 0usize;
                while post_rounds < POST_RELOAD_ROUNDS {
                    // Sampled before sending: if the ack was already seen,
                    // the server swapped before these requests started.
                    let after = reloaded.load(Ordering::SeqCst);
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
                        // A batch racing the swap may be answered on either
                        // generation — but on exactly ONE of them: the
                        // whole response must be consistent with a single
                        // epoch's truth, never a mixture.
                        let matches = |truth: &HashMap<(u32, u32), Option<u32>>| {
                            pairs.iter().zip(&got).all(|(&p, &d)| d == truth[&p])
                        };
                        assert!(
                            matches(truth_a) || matches(truth_b),
                            "torn batch (mixed epochs): {pairs:?} -> {got:?}"
                        );
                    }
                    served.fetch_add(1 + BATCH_SIZE as u64, Ordering::Relaxed);
                    i += 1;
                }
            });
        }

        // Let the clients warm the cache on epoch 0, then swap.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let mut admin = Client::connect(addr).expect("admin connect");
        assert_eq!(admin.epoch().unwrap(), 0);
        let epoch = admin
            .reload(graph_path.to_str().unwrap(), Some(index_path.to_str().unwrap()))
            .expect("reload");
        assert_eq!(epoch, 1);
        reloaded.store(true, Ordering::SeqCst);
        assert_eq!(admin.epoch().unwrap(), 1);
    });

    // Traffic volume sanity: warm-up plus the mandated post-reload rounds.
    let total = served.load(Ordering::Relaxed);
    assert!(
        total >= (CLIENT_THREADS * POST_RELOAD_ROUNDS * (1 + BATCH_SIZE)) as u64,
        "only {total} distances served"
    );

    // Server-side accounting: one reload, epoch 1, and the hot set DID
    // stay resident across the swap (hits before and after), making the
    // stale-crossing assertions above meaningful.
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
    assert_eq!(get("reloads"), 1);
    assert!(get("cache_hits") > 0, "the repeated stream must produce cache hits");

    handle.shutdown();
    let _ = std::fs::remove_file(&graph_path);
    let _ = std::fs::remove_file(&index_path);
}

/// The sparsified view must swap atomically with the labelling: under a
/// storm of concurrent queries and reloads between *different-sized*
/// graphs, every pinned snapshot's view matches its own generation (same
/// vertex count, every landmark of that generation isolated in it), and
/// every answer — all computed by searching the view — matches one of the
/// two graphs' ground truths.
#[test]
fn sparse_view_swaps_atomically_with_the_labelling_under_live_traffic() {
    let (g_a, l_a) = ba_fixture(N, 4, 1001, 12);
    let (g_b, l_b) = ba_fixture(N / 2, 4, 1002, 8);
    let truth_a = truth_map(&g_a, (0..N as u32 / 2).map(|i| (i, (i * 7 + 1) % (N as u32 / 2))));
    let truth_b = truth_map(&g_b, (0..N as u32 / 2).map(|i| (i, (i * 7 + 1) % (N as u32 / 2))));

    let service = Arc::new(QueryService::from_parts(Arc::clone(&g_a), Arc::clone(&l_a), 1 << 10));
    let stop = AtomicBool::new(false);
    let checked = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for th in 0..CLIENT_THREADS {
            let service = Arc::clone(&service);
            let (stop, checked) = (&stop, &checked);
            let (truth_a, truth_b) = (&truth_a, &truth_b);
            scope.spawn(move || {
                let mut i = th as u32;
                while !stop.load(Ordering::Relaxed) {
                    let snap = service.snapshot();
                    let oracle = snap.index().as_memory().expect("memory-backed test service");
                    let view = oracle.sparse_view();
                    // The view belongs to exactly this generation…
                    assert_eq!(
                        view.num_vertices(),
                        snap.index().num_vertices(),
                        "torn view/graph pair"
                    );
                    for &r in oracle.labelling().highway().landmarks() {
                        assert_eq!(
                            view.graph().degree(view.view_of(r)),
                            0,
                            "landmark {r} not isolated"
                        );
                    }
                    // …and answers computed through it are exact for
                    // whichever graph this generation serves.
                    let half = N as u32 / 2;
                    let (s, t) = (i % half, ((i % half) * 7 + 1) % half);
                    let got = oracle.distance(s, t);
                    let want = if snap.index().num_vertices() == N { truth_a } else { truth_b };
                    assert_eq!(got, want[&(s, t)], "epoch {} {s}->{t}", snap.epoch());
                    checked.fetch_add(1, Ordering::Relaxed);
                    i = i.wrapping_add(1);
                }
            });
        }
        for round in 0..12 {
            let (g, l) = if round % 2 == 0 {
                (Arc::clone(&g_b), Arc::clone(&l_b))
            } else {
                (Arc::clone(&g_a), Arc::clone(&l_a))
            };
            service.reload(hcl_core::SharedOracle::new(g, l));
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(service.epoch(), 12);
    assert!(checked.load(Ordering::Relaxed) > 0, "query threads must have run");
}

#[test]
fn reload_from_graph_only_rebuilds_the_labelling_in_process() {
    let (graph_a, labelling_a) = build(7);
    let (graph_b, _) = build(8);
    let truth_b = truth_map(&graph_b, all_pairs());

    let graph_path = temp_path("rebuild.hclg");
    hcl_graph::io::save_binary(&graph_b, &graph_path).unwrap();

    let service = Arc::new(QueryService::from_parts(graph_a, labelling_a, 64));
    let config = ServerConfig { reload_landmarks: 12, ..Default::default() };
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0", config).unwrap();

    let mut client = Client::connect(handle.local_addr()).unwrap();
    // No index file: the server builds the labelling itself.
    assert_eq!(client.reload(graph_path.to_str().unwrap(), None).unwrap(), 1);
    for &(s, t) in all_pairs().iter().take(40) {
        assert_eq!(client.query(s, t).unwrap(), truth_b[&(s, t)], "d({s}, {t})");
    }

    handle.shutdown();
    let _ = std::fs::remove_file(&graph_path);
}

/// Reloads are serialised: a pipelined flood of RELOAD lines must not fan
/// out into concurrent full-index builds. The first wins; each of the
/// rest is either refused with `ERR reload already in progress` (the
/// previous one was still running) or succeeds (it had finished) — and
/// the connection keeps answering afterwards either way.
#[test]
fn pipelined_reloads_are_serialised_not_fanned_out() {
    use std::io::{BufRead, BufReader, Write};

    let (graph_a, labelling_a) = build(5);
    let (graph_b, _) = build(6);
    let graph_path = temp_path("serialise.hclg");
    hcl_graph::io::save_binary(&graph_b, &graph_path).unwrap();

    let service = Arc::new(QueryService::from_parts(graph_a, labelling_a, 0));
    let config = ServerConfig { reload_landmarks: 8, ..Default::default() };
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0", config).unwrap();

    let stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    const RELOADS: usize = 8;
    let mut request = String::new();
    for _ in 0..RELOADS {
        request.push_str(&format!("RELOAD {}\n", graph_path.to_str().unwrap()));
    }
    request.push_str("PING\n");
    writer.write_all(request.as_bytes()).unwrap();
    writer.flush().unwrap();

    let mut line = String::new();
    let mut succeeded = 0u64;
    for i in 0..RELOADS {
        line.clear();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.starts_with("RELOADED ") {
            succeeded += 1;
        } else {
            assert!(line.contains("already in progress"), "reload {i}: {line:?}");
        }
    }
    assert!(succeeded >= 1, "the first reload must run");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "PONG", "connection survives the refused reloads");

    // Server-side accounting agrees: epoch advanced once per success.
    let mut admin = Client::connect(handle.local_addr()).unwrap();
    assert_eq!(admin.epoch().unwrap(), succeeded);

    handle.shutdown();
    let _ = std::fs::remove_file(&graph_path);
}

/// `RELOAD index.hclx` swaps the serving backend *kind*: a memory-backed
/// generation is replaced by a packed generation of the same index served
/// straight off the mapping, STATS reports the store and the same label
/// lanes on both sides, answers match BFS ground truth, and a later plain
/// reload swaps back to another graph. Both directions ride the same
/// epoch machinery.
#[test]
fn reload_to_packed_index_swaps_by_remapping() {
    let (graph_a, _) = build(9);
    let (graph_b, labelling_b) = build(10);
    let truth_a = truth_map(&graph_a, all_pairs());
    let truth_b = truth_map(&graph_b, all_pairs());

    let packed_path = temp_path("packed.hclx");
    let sparse_b = hcl_core::SparseView::build(&graph_b, labelling_b.highway());
    hcl_store::save_packed(&labelling_b, &sparse_b, &packed_path).unwrap();
    let graph_a_path = temp_path("packed-back.hclg");
    hcl_graph::io::save_binary(&graph_a, &graph_a_path).unwrap();

    let service = Arc::new(QueryService::from_parts(graph_b, Arc::clone(&labelling_b), 64));
    let config = ServerConfig { reload_landmarks: 12, ..Default::default() };
    let handle = Server::bind(Arc::clone(&service), "127.0.0.1:0", config).unwrap();

    let mut client = Client::connect(handle.local_addr()).unwrap();
    let field = |stats: &str, key: &str| -> u64 {
        stats
            .split_ascii_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("missing {key} in {stats:?}"))
            .parse()
            .unwrap()
    };
    let lanes = |stats: &str| (field(stats, "rank_lane_bytes"), field(stats, "dist_lane_bytes"));
    let in_memory = client.stats().unwrap();
    assert_eq!(field(&in_memory, "store_bytes"), 0);
    let entries = labelling_b.labels().total_entries() as u64;
    assert_eq!(lanes(&in_memory), (entries, entries), "one byte per entry and lane");

    assert_eq!(client.reload(packed_path.to_str().unwrap(), None).unwrap(), 1);
    assert!(service.snapshot().index().as_packed().is_some(), "generation must be packed");
    for &(s, t) in all_pairs().iter().take(40) {
        assert_eq!(client.query(s, t).unwrap(), truth_b[&(s, t)], "d({s}, {t})");
    }
    let packed = client.stats().unwrap();
    let expected_store = std::fs::metadata(&packed_path).unwrap().len();
    assert_eq!(field(&packed, "store_bytes"), expected_store);
    assert!(field(&packed, "plain_index_bytes") > 0);
    assert!(field(&packed, "load_us") > 0, "packed reload must record its load time");
    assert_eq!(lanes(&packed), lanes(&in_memory), "the mapped lanes are the memory lanes");

    // A packed index is self-contained; a second path is a usage error
    // that must not disturb the serving generation.
    let err = client
        .reload(packed_path.to_str().unwrap(), Some(graph_a_path.to_str().unwrap()))
        .unwrap_err();
    assert!(err.to_string().contains("self-contained"), "{err}");
    assert_eq!(client.epoch().unwrap(), 1);

    // And back to a memory-backed generation from a plain graph file.
    assert_eq!(client.reload(graph_a_path.to_str().unwrap(), None).unwrap(), 2);
    assert!(service.snapshot().index().as_memory().is_some(), "generation must be in-memory");
    for &(s, t) in all_pairs().iter().take(40) {
        assert_eq!(client.query(s, t).unwrap(), truth_a[&(s, t)], "d({s}, {t})");
    }

    handle.shutdown();
    let _ = std::fs::remove_file(&packed_path);
    let _ = std::fs::remove_file(&graph_a_path);
}

#[test]
fn failed_reload_keeps_the_connection_and_the_old_index() {
    let (graph_a, labelling_a) = build(3);
    let truth_a = truth_map(&graph_a, all_pairs());

    let service = Arc::new(QueryService::from_parts(graph_a, labelling_a, 64));
    let handle =
        Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();

    let mut client = Client::connect(handle.local_addr()).unwrap();
    let err = client.reload("/definitely/not/a/file.hclg", None).unwrap_err();
    assert!(err.to_string().contains("reload failed"), "{err}");
    // Same connection still answers, on the unchanged epoch-0 index.
    assert_eq!(client.epoch().unwrap(), 0);
    let (s, t) = pair_for(0, 0);
    assert_eq!(client.query(s, t).unwrap(), truth_a[&(s, t)]);

    handle.shutdown();
}
