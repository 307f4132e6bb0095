//! Router integration suite: a real 2-shard deployment over loopback —
//! two `hcl_server::Server`s on shard graphs plus the replicated global
//! labelling, fronted by one `Router` — checked against a single
//! unsharded `HlOracle` on the full graph, including `RELOAD` fan-out
//! under live traffic.

use hcl_core::partition::{self, PartitionMap};
use hcl_core::{HighwayCoverLabelling, HlOracle};
use hcl_graph::{CsrGraph, VertexId};
use hcl_router::{Router, RouterConfig};
use hcl_server::{Client, QueryService, Server, ServerConfig, ServerHandle};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Two communities (ids 3..120 and 120..240) whose only inter-community
/// edges run through the three hub landmarks 0/1/2 — so a contiguous
/// range partition at 120 respects the components of `G[V∖R]` and every
/// sharded answer must be exact.
fn bridged_communities(seed: u64) -> (CsrGraph, Vec<VertexId>) {
    let hubs: Vec<VertexId> = vec![0, 1, 2];
    let n = 240u32;
    let mut edges = BTreeSet::new();
    let mut add = |a: u32, b: u32| {
        if a != b {
            edges.insert(if a < b { (a, b) } else { (b, a) });
        }
    };
    add(0, 1);
    add(1, 2);
    for (start, end) in [(3u32, 120u32), (120, 240)] {
        let span = end - start;
        for v in start..end {
            // A ring keeps each community connected; the seeded chords
            // vary the distances between fixtures.
            add(v, start + (v + 1 - start) % span);
            add(v, start + ((v - start) * 7 + seed as u32) % span);
            // Every 5th vertex reaches a hub, so cross-community paths
            // exist but all pass through landmarks.
            if v % 5 == 0 {
                add(v, hubs[(v % 3) as usize]);
            }
        }
    }
    let edges: Vec<(u32, u32)> = edges.into_iter().collect();
    (CsrGraph::from_edges(n as usize, &edges), hubs)
}

/// A hub-and-spoke graph where every edge touches a landmark, so
/// `G[V∖R]` is edgeless and *any* partition — including hash — answers
/// every query exactly.
fn hub_star() -> (CsrGraph, Vec<VertexId>) {
    let hubs: Vec<VertexId> = (0..6).collect();
    let n = 150u32;
    let mut edges = Vec::new();
    for h in 1..6u32 {
        edges.push((h - 1, h));
    }
    for v in 6..n {
        edges.push((v, v % 6));
        edges.push((v, (v + 2) % 6));
    }
    (CsrGraph::from_edges(n as usize, &edges), hubs)
}

/// A deterministic mixed workload: same-shard, cross-shard, landmark and
/// identical-endpoint pairs.
fn workload(n: u32, count: usize) -> Vec<(VertexId, VertexId)> {
    (0..count as u32)
        .map(|i| match i % 4 {
            0 => ((i * 7) % (n / 2), (i * 13 + 1) % (n / 2)), // same shard (low)
            1 => (n / 2 + (i * 5) % (n / 2), n / 2 + (i * 11 + 3) % (n / 2)), // same shard (high)
            2 => ((i * 3) % (n / 2), n / 2 + (i * 17 + 2) % (n / 2)), // cross shard
            _ => (i % 3, (i * 19) % n),                       // landmark endpoint
        })
        .collect()
}

struct Deployment {
    shards: Vec<ServerHandle>,
    router: hcl_router::RouterHandle,
}

impl Deployment {
    /// Starts one server per shard graph (replicated labelling) and a
    /// router in front of them.
    fn start(g: &CsrGraph, labelling: &HighwayCoverLabelling, map: &PartitionMap) -> Deployment {
        let shards: Vec<ServerHandle> = (0..map.num_shards())
            .map(|shard| {
                let shard_graph = Arc::new(map.shard_graph(g, shard));
                let service = Arc::new(QueryService::from_parts(
                    shard_graph,
                    Arc::new(labelling.clone()),
                    1 << 10,
                ));
                Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap()
            })
            .collect();
        let addrs: Vec<_> = shards.iter().map(|s| s.local_addr()).collect();
        let router =
            Router::bind(map.clone(), &addrs, "127.0.0.1:0", RouterConfig::default()).unwrap();
        Deployment { shards, router }
    }

    fn client(&self) -> Client {
        Client::connect(self.router.local_addr()).unwrap()
    }
}

#[test]
fn range_sharded_router_matches_unsharded_oracle() {
    let (g, hubs) = bridged_communities(1);
    let (labelling, _) = HighwayCoverLabelling::build(&g, &hubs).unwrap();
    let map = PartitionMap::range(g.num_vertices(), 2, &hubs);
    assert!(map.respects_components(&g), "fixture must be component-closed");

    let deployment = Deployment::start(&g, &labelling, &map);
    let mut oracle = HlOracle::new(&g, labelling.clone());
    let mut client = deployment.client();

    let pairs = workload(g.num_vertices() as u32, 600);
    // Single queries, one at a time.
    for &(s, t) in pairs.iter().take(200) {
        assert_eq!(client.query(s, t).unwrap(), oracle.query(s, t), "QUERY {s} {t}");
    }
    // One big batch (split/scatter/merge path).
    let expect: Vec<Option<u32>> = pairs.iter().map(|&(s, t)| oracle.query(s, t)).collect();
    assert_eq!(client.batch(&pairs).unwrap(), expect);
    // Pipelined singles (response-ordering across scattered queries).
    assert_eq!(client.pipelined_queries(&pairs[..128]).unwrap(), &expect[..128]);
}

/// The router's client side rides the same per-pass flush as the server:
/// a pipelined burst — half of it cross-shard, so answers resolve out of
/// order across two upstream wires — comes back in request order, and the
/// replies each pass resolved share one `write`.
#[test]
fn pipelined_burst_returns_in_order_with_coalesced_client_writes() {
    let (g, hubs) = bridged_communities(4);
    let (labelling, _) = HighwayCoverLabelling::build(&g, &hubs).unwrap();
    let map = PartitionMap::range(g.num_vertices(), 2, &hubs);
    assert!(map.respects_components(&g), "fixture must be component-closed");

    let deployment = Deployment::start(&g, &labelling, &map);
    let mut oracle = HlOracle::new(&g, labelling.clone());
    let mut client = deployment.client();

    let pairs = workload(g.num_vertices() as u32, 2_000);
    let expect: Vec<Option<u32>> = pairs.iter().map(|&(s, t)| oracle.query(s, t)).collect();
    let before = client.metrics().unwrap();
    assert_eq!(client.pipelined_queries(&pairs).unwrap(), expect);
    let after = client.metrics().unwrap();

    assert!(metric(&after, "scatter_queries") >= 400, "the burst must cross shards: {after}");
    let writes = metric(&after, "client_socket_writes") - metric(&before, "client_socket_writes");
    assert!(
        writes * 4 <= pairs.len() as u64,
        "{writes} client writes for {} replies: a pass's replies must share a write",
        pairs.len()
    );
    assert!(metric(&after, "reactor_passes") > metric(&before, "reactor_passes"));
}

#[test]
fn hash_sharded_router_matches_unsharded_oracle() {
    let (g, hubs) = hub_star();
    let (labelling, _) = HighwayCoverLabelling::build(&g, &hubs).unwrap();
    let map = PartitionMap::hash(g.num_vertices(), 2, &hubs);
    assert!(map.respects_components(&g), "edgeless G[V∖R] is trivially component-closed");

    let deployment = Deployment::start(&g, &labelling, &map);
    let mut oracle = HlOracle::new(&g, labelling.clone());
    let mut client = deployment.client();

    let pairs = workload(g.num_vertices() as u32, 400);
    let expect: Vec<Option<u32>> = pairs.iter().map(|&(s, t)| oracle.query(s, t)).collect();
    assert_eq!(client.batch(&pairs).unwrap(), expect);
    for &(s, t) in pairs.iter().take(100) {
        assert_eq!(client.query(s, t).unwrap(), oracle.query(s, t), "QUERY {s} {t}");
    }
}

#[test]
fn stats_epoch_and_errors_through_the_router() {
    let (g, hubs) = bridged_communities(2);
    let (labelling, _) = HighwayCoverLabelling::build(&g, &hubs).unwrap();
    let map = PartitionMap::range(g.num_vertices(), 2, &hubs);
    let deployment = Deployment::start(&g, &labelling, &map);
    let mut client = deployment.client();

    client.ping().unwrap();
    assert_eq!(client.epoch().unwrap(), 0, "fresh shards agree at epoch 0");

    // One same-shard and one cross-shard query, then check aggregation.
    client.query(10, 20).unwrap();
    client.query(10, 200).unwrap();
    let stats = client.stats().unwrap();
    let get = |key: &str| -> u64 {
        stats
            .split_ascii_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("missing {key} in {stats}"))
            .parse()
            .unwrap()
    };
    assert_eq!(get("shards"), 2);
    assert_eq!(get("router_queries"), 2);
    assert_eq!(get("router_scatter_queries"), 1);
    // The scattered query hits both shards: 3 shard-side queries total.
    assert_eq!(get("queries"), 3);
    assert_eq!(get("epoch"), 0);
    assert!(get("index_bytes") > 0, "summed shard sizes survive aggregation");

    // Out-of-range queries fail with the server's error shape and leave
    // the connection usable.
    let err = client.query(0, 9999).unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
    let err = client.batch(&[(0, 1), (9999, 2)]).unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
    client.ping().unwrap();

    // Router metrics track the failures.
    assert_eq!(deployment.router.metrics().errors.load(Ordering::Relaxed), 2);
}

#[test]
fn reload_fans_out_under_live_traffic_with_all_or_nothing_confirmation() {
    let dir = std::env::temp_dir().join(format!("hcl_router_reload_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (g1, hubs) = bridged_communities(3);
    let (g2, _) = bridged_communities(11);
    let (l1, _) = HighwayCoverLabelling::build(&g1, &hubs).unwrap();
    let (l2, _) = HighwayCoverLabelling::build(&g2, &hubs).unwrap();
    let map = PartitionMap::range(g1.num_vertices(), 2, &hubs);
    assert!(map.respects_components(&g1) && map.respects_components(&g2));

    let dir1 = dir.join("v1");
    let dir2 = dir.join("v2");
    partition::write_deployment(&dir1, &g1, &l1, &map).unwrap();
    partition::write_deployment(&dir2, &g2, &l2, &map).unwrap();

    // Shards start the way `hcl serve` would: from the v1 files.
    let shards: Vec<ServerHandle> = (0..2)
        .map(|shard| {
            let (graph_path, index_path) = partition::shard_paths(dir1.to_str().unwrap(), shard);
            let shard_graph = Arc::new(hcl_graph::io::load_binary(&graph_path).unwrap());
            let index = hcl_core::io::load_labelling(&index_path).unwrap();
            let service = Arc::new(QueryService::from_parts(shard_graph, Arc::new(index), 1 << 10));
            Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap()
        })
        .collect();
    let addrs: Vec<_> = shards.iter().map(|s| s.local_addr()).collect();
    let router = Router::bind(map.clone(), &addrs, "127.0.0.1:0", RouterConfig::default()).unwrap();

    let pairs = workload(g1.num_vertices() as u32, 200);
    let mut o1 = HlOracle::new(&g1, l1.clone());
    let mut o2 = HlOracle::new(&g2, l2.clone());
    let truth1: Vec<Option<u32>> = pairs.iter().map(|&(s, t)| o1.query(s, t)).collect();
    let truth2: Vec<Option<u32>> = pairs.iter().map(|&(s, t)| o2.query(s, t)).collect();
    assert_ne!(truth1, truth2, "the two fixtures must differ on this workload");

    // Live traffic across the swap. Shard swaps are not atomic across
    // the deployment, so a batch straddling the reload window may mix
    // generations *across shards* — but every individual answer must
    // come from one valid generation (each pair resolves on one shard's
    // pinned snapshot, or the min of two valid generations).
    let stop = AtomicBool::new(false);
    let addr = router.local_addr();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let (stop, pairs, truth1, truth2) = (&stop, &pairs, &truth1, &truth2);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                while !stop.load(Ordering::Relaxed) {
                    let got = client.batch(pairs).unwrap();
                    for (i, d) in got.iter().enumerate() {
                        assert!(
                            *d == truth1[i] || *d == truth2[i],
                            "pair {i}: {d:?} matches neither generation \
                             ({:?} / {:?})",
                            truth1[i],
                            truth2[i]
                        );
                    }
                }
            });
        }

        let mut client = Client::connect(addr).unwrap();
        // A reload from a directory that does not exist fails on every
        // shard and must not move any epoch.
        let missing = dir.join("nope");
        let err = client.reload(missing.to_str().unwrap(), None).unwrap_err();
        assert!(err.to_string().contains("reload incomplete"), "{err}");
        assert_eq!(client.epoch().unwrap(), 0, "failed fan-out leaves epochs untouched");

        // The real fan-out: all-or-nothing confirmation of the new epoch.
        let epoch = client.reload(dir2.to_str().unwrap(), None).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(client.epoch().unwrap(), 1, "all shards agree after the fan-out");
        stop.store(true, Ordering::Relaxed);
    });

    // After the swap everything answers on the new deployment.
    let mut client = Client::connect(router.local_addr()).unwrap();
    assert_eq!(client.batch(&pairs).unwrap(), truth2);
    let stats = client.stats().unwrap();
    assert!(stats.contains("router_reloads=1"), "{stats}");

    drop(router);
    drop(shards);
    std::fs::remove_dir_all(&dir).ok();
}

/// `UPDATE` through the router: the edit fans out to **every replica of
/// the shards owning an endpoint** (and only those), is confirmed
/// all-or-nothing with one `UPDATED <epoch> <affected>` line, and
/// afterwards every routed answer — same-shard, cross-shard,
/// landmark-touching — matches BFS on the edited graph. The reverse
/// `DEL` restores the original answers through the same path.
#[test]
fn update_fans_out_to_owning_shard_replicas_only() {
    let (g, hubs) = bridged_communities(4);
    let (labelling, _) = HighwayCoverLabelling::build(&g, &hubs).unwrap();
    let map = PartitionMap::range(g.num_vertices(), 2, &hubs);
    assert!(map.respects_components(&g));

    // Two replicas per shard, services kept for direct inspection.
    let mut services: Vec<Vec<Arc<QueryService>>> = Vec::new();
    let mut handles: Vec<ServerHandle> = Vec::new();
    let mut groups = Vec::new();
    for shard in 0..2u32 {
        let mut addrs = Vec::new();
        let mut shard_services = Vec::new();
        for _ in 0..2 {
            let service = Arc::new(QueryService::from_parts(
                Arc::new(map.shard_graph(&g, shard)),
                Arc::new(labelling.clone()),
                1 << 10,
            ));
            let handle =
                Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).unwrap();
            addrs.push(handle.local_addr());
            shard_services.push(service);
            handles.push(handle);
        }
        services.push(shard_services);
        groups.push(addrs);
    }
    let router =
        Router::bind_replicated(map, &groups, "127.0.0.1:0", RouterConfig::default()).unwrap();

    // A same-shard, non-hub, far-apart absent edge owned by shard 0.
    let mut pairs = workload(g.num_vertices() as u32, 120);
    let probe = hcl_core::testing::truth_map(&g, pairs.iter().copied());
    let (u, v) = pairs
        .iter()
        .copied()
        .filter(|&(s, t)| (3..120).contains(&s) && (3..120).contains(&t) && !g.has_edge(s, t))
        .max_by_key(|p| probe[p].unwrap_or(u32::MAX))
        .expect("workload contains a same-shard absent pair");
    pairs.push((u, v));
    let truth_old = hcl_core::testing::truth_map(&g, pairs.iter().copied());
    let truth_new =
        hcl_core::testing::truth_map(&g.with_edge(u, v).unwrap(), pairs.iter().copied());
    assert_ne!(truth_old, truth_new);

    let mut client = Client::connect(router.local_addr()).unwrap();
    let (epoch, affected) = client.update(true, u, v).unwrap();
    assert_eq!(epoch, 1);
    assert!(affected > 0, "a distance-{:?} insertion must relabel someone", truth_old[&(u, v)]);

    // Precise fan-out: both replicas of the owning shard applied the
    // edit; the shard owning neither endpoint was never touched.
    for service in &services[0] {
        assert_eq!(service.epoch(), 1, "owning-shard replica updated");
        assert_eq!(service.metrics().snapshot().updates_applied, 1);
    }
    for service in &services[1] {
        assert_eq!(service.epoch(), 0, "non-owning shard untouched");
        assert_eq!(service.metrics().snapshot().updates_applied, 0);
    }

    for &(s, t) in &pairs {
        let (got, degraded) = client.query_tagged(s, t).unwrap();
        assert_eq!(got, truth_new[&(s, t)], "post-update d({s},{t})");
        assert!(!degraded);
    }

    // The reverse edit rides the same fan-out and restores the answers.
    let (epoch, _) = client.update(false, u, v).unwrap();
    assert_eq!(epoch, 2);
    for &(s, t) in &pairs {
        assert_eq!(client.query(s, t).unwrap(), truth_old[&(s, t)], "post-delete d({s},{t})");
    }

    let stats = client.stats().unwrap();
    assert!(stats.contains("router_updates=2"), "{stats}");
    // Shard-side counters aggregate through STATS as plain sums (one
    // replica sampled per shard: 2 from shard 0, 0 from shard 1).
    assert!(stats.contains("updates_applied=2"), "{stats}");

    // Invalid edits are refused by the owning replicas, all-or-nothing.
    let err = client.update(true, u, u).unwrap_err();
    assert!(err.to_string().contains("self-loop"), "{err}");
    let err = client.update(true, 0, 9999).unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");

    drop(router);
    drop(handles);
}

/// ROADMAP item 1, recorded by a machine: a sharded `UPDATE` answers
/// wrongly and untagged on a component-respecting partition, in three
/// ways. Landmarks 0 and 1 are five hops apart through community A
/// (`0-2-3-4-1`, shard 0) and ten through community B
/// (`0-10-12-…-18-11-1`, shard 1); every shard holds the *global*
/// labelling and highway.
///
/// 1. `ADD 2 4` shortens the highway for everyone, but shard 1 owns
///    neither endpoint and is never told: `(10, 11)` keeps answering 6,
///    truth 5.
/// 2. `DEL 3 4` lengthens it: shard 1 keeps answering 6, truth 8 — an
///    untagged **under-report**.
/// 3. Shard 0, which does apply `DEL 3 4`, repairs against its own graph
///    `G[V₀ ∪ R]`, where the detour through community B does not exist:
///    it concludes the landmarks are disconnected and answers `INF` for
///    pairs that are 11–14 hops apart.
///
/// The assertions state the contract (every untagged answer is exact),
/// so the test fails until the fix lands: one labeller that holds `G`
/// computes the `LabelPatch` and every shard applies it.
#[test]
#[ignore = "ROADMAP item 1: sharded UPDATE serves untagged wrong answers (stale non-owning \
            shards, owning shards repairing against G[Vi ∪ R]); fixed by shipping LabelPatch"]
fn sharded_update_keeps_every_untagged_answer_exact() {
    let mut edges = vec![(0, 2), (2, 3), (3, 4), (4, 1), (3, 5), (0, 10), (11, 1), (10, 12)];
    edges.extend((12..18).map(|v| (v, v + 1)));
    edges.push((18, 11));
    let g = CsrGraph::from_edges(20, &edges);
    let hubs: Vec<VertexId> = vec![0, 1];
    let (labelling, _) = HighwayCoverLabelling::build(&g, &hubs).unwrap();
    let map = PartitionMap::range(g.num_vertices(), 2, &hubs);
    assert!(map.respects_components(&g), "fixture must be component-closed");
    assert_eq!(labelling.highway().distance(0, 1), 4);

    // (ADD?, u, v, then `(s, t, truth)` after the edit).
    let cases = [
        (true, 2, 4, vec![(10, 11, 5)]),
        (false, 3, 4, vec![(10, 11, 8)]),
        (false, 3, 4, vec![(2, 4, 12), (3, 4, 13), (2, 1, 11), (5, 4, 14)]),
    ];
    let mut wrong = Vec::new();
    for (add, u, v, expected) in cases {
        let edited = if add { g.with_edge(u, v) } else { g.without_edge(u, v) }.unwrap();
        assert!(map.respects_components(&edited), "the edit keeps the partition exact");
        let deployment = Deployment::start(&g, &labelling, &map);
        let mut client = deployment.client();
        client.update(add, u, v).unwrap();
        for (s, t, truth) in expected {
            assert_eq!(hcl_graph::traversal::bfs_distances(&edited, s)[t as usize], truth);
            let (got, degraded) = client.query_tagged(s, t).unwrap();
            if got != Some(truth) || degraded {
                let verb = if add { "ADD" } else { "DEL" };
                wrong.push(format!(
                    "after UPDATE {verb} {u} {v}: d({s}, {t}) answered {got:?} \
                     (tagged: {degraded}), truth {truth}"
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}

/// The packed flavour of the fan-out: shards serve `.hclx` files
/// zero-copy, the router detects `shard0.hclx` in the target directory
/// and reloads every shard with the single-path `RELOAD dir/shardI.hclx`
/// form — a remap, not a rebuild — with the same all-or-nothing epoch
/// confirmation.
#[test]
fn reload_fans_out_packed_deployments_as_single_path_remaps() {
    let dir = std::env::temp_dir().join(format!("hcl_router_packed_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (g1, hubs) = bridged_communities(5);
    let (g2, _) = bridged_communities(13);
    let (l1, _) = HighwayCoverLabelling::build(&g1, &hubs).unwrap();
    let (l2, _) = HighwayCoverLabelling::build(&g2, &hubs).unwrap();
    let map = PartitionMap::range(g1.num_vertices(), 2, &hubs);
    assert!(map.respects_components(&g1) && map.respects_components(&g2));

    let dir1 = dir.join("v1");
    let dir2 = dir.join("v2");
    hcl_store::write_packed_deployment(&dir1, &g1, &l1, &map).unwrap();
    hcl_store::write_packed_deployment(&dir2, &g2, &l2, &map).unwrap();

    // Shards start the way `hcl serve dir/shardI.hclx` would: packed.
    let shards: Vec<ServerHandle> = (0..2)
        .map(|shard| {
            let path = partition::shard_packed_path(dir1.to_str().unwrap(), shard);
            let oracle = hcl_store::PackedOracle::open(&path).unwrap();
            let service = Arc::new(QueryService::with_index(
                hcl_server::ServingIndex::Packed(oracle),
                1 << 10,
            ));
            Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap()
        })
        .collect();
    let addrs: Vec<_> = shards.iter().map(|s| s.local_addr()).collect();
    let router = Router::bind(map.clone(), &addrs, "127.0.0.1:0", RouterConfig::default()).unwrap();

    let pairs = workload(g1.num_vertices() as u32, 200);
    let mut o1 = HlOracle::new(&g1, l1.clone());
    let mut o2 = HlOracle::new(&g2, l2.clone());
    let truth1: Vec<Option<u32>> = pairs.iter().map(|&(s, t)| o1.query(s, t)).collect();
    let truth2: Vec<Option<u32>> = pairs.iter().map(|&(s, t)| o2.query(s, t)).collect();
    assert_ne!(truth1, truth2, "the two fixtures must differ on this workload");

    let mut client = Client::connect(router.local_addr()).unwrap();
    assert_eq!(client.batch(&pairs).unwrap(), truth1, "packed shards serve v1 exactly");

    let epoch = client.reload(dir2.to_str().unwrap(), None).unwrap();
    assert_eq!(epoch, 1);
    assert_eq!(client.epoch().unwrap(), 1, "all shards agree after the packed fan-out");
    assert_eq!(client.batch(&pairs).unwrap(), truth2, "answers swap to the v2 deployment");

    drop(router);
    drop(shards);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn router_shutdown_leaves_shards_running() {
    let (g, hubs) = hub_star();
    let (labelling, _) = HighwayCoverLabelling::build(&g, &hubs).unwrap();
    let map = PartitionMap::hash(g.num_vertices(), 2, &hubs);
    let deployment = Deployment::start(&g, &labelling, &map);

    let mut client = deployment.client();
    client.query(7, 8).unwrap();
    client.shutdown_server().unwrap();
    deployment.router.join();
    assert!(deployment.router.is_shutting_down());

    // The shards never saw the SHUTDOWN.
    for shard in &deployment.shards {
        assert!(!shard.is_shutting_down());
        let mut direct = Client::connect(shard.local_addr()).unwrap();
        direct.ping().unwrap();
    }
}

/// Extracts one numeric field from a router `METRICS` JSON body.
fn metric(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle).unwrap_or_else(|| panic!("missing {key} in {json}"));
    json[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// A scripted replica speaking just enough of the shard protocol for the
/// failover tests: exact `QUERY` answers from a precomputed table, `PONG`
/// for probes. The first connection misbehaves per `die_after` /
/// `silent_after`; later connections (reconnects) serve faithfully.
fn fake_replica(
    answers: std::collections::HashMap<(u32, u32), Option<u32>>,
    die_after: Option<usize>,
    silent_after: Option<usize>,
) -> std::net::SocketAddr {
    use std::io::{BufRead, BufReader, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut first = true;
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { return };
            let (die, silent) = if first {
                (die_after.unwrap_or(usize::MAX), silent_after.unwrap_or(usize::MAX))
            } else {
                (usize::MAX, usize::MAX)
            };
            first = false;
            let reader = BufReader::new(conn.try_clone().unwrap());
            let mut answered = 0usize;
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if answered >= silent {
                    continue; // play dead without closing the socket
                }
                let response = if line == "PING" {
                    "PONG\n".to_string()
                } else {
                    let mut it = line.split_ascii_whitespace().skip(1);
                    let s: u32 = it.next().unwrap().parse().unwrap();
                    let t: u32 = it.next().unwrap().parse().unwrap();
                    match answers[&(s, t)] {
                        Some(d) => format!("DIST {d}\n"),
                        None => "INF\n".to_string(),
                    }
                };
                if conn.write_all(response.as_bytes()).is_err() {
                    break;
                }
                if line != "PING" {
                    answered += 1;
                    if answered >= die {
                        break; // drop the connection with requests in flight
                    }
                }
            }
        }
    });
    addr
}

/// Polls the router's `METRICS` until one replica reports the wanted
/// state.
fn wait_for_replica_state(
    client: &mut Client,
    shard: u32,
    addr: std::net::SocketAddr,
    state: &str,
) {
    let needle =
        format!("\"shard\":{shard},\"replica\":0,\"addr\":\"{addr}\",\"state\":\"{state}\"");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let json = client.metrics().unwrap();
        if json.contains(&needle) {
            return;
        }
        assert!(std::time::Instant::now() < deadline, "replica never {state}: {json}");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Tentpole: a replica dying with a pipelined window in flight. The
/// surrendered requests are re-dispatched verbatim to the sibling, so
/// every position of the pipeline is answered *exactly* and the client
/// sees zero errors; the failover is visible in `METRICS`.
#[test]
fn replica_death_mid_pipeline_fails_over_exactly_with_zero_client_errors() {
    let (g, hubs) = bridged_communities(7);
    let (labelling, _) = HighwayCoverLabelling::build(&g, &hubs).unwrap();
    let map = PartitionMap::range(g.num_vertices(), 2, &hubs);
    let mut oracle = HlOracle::new(&g, labelling.clone());

    // 64 shard-0 pairs, all answered exactly by both the fake and the
    // real replica.
    let pairs: Vec<(u32, u32)> = (0..64).map(|i| (10 + i, 20 + (i * 3) % 90)).collect();
    let truth: Vec<Option<u32>> = pairs.iter().map(|&(s, t)| oracle.query(s, t)).collect();
    let answers = pairs.iter().zip(&truth).map(|(&p, &d)| (p, d)).collect();
    // Replica 0 of shard 0 dies abruptly after 5 answers.
    let fake = fake_replica(answers, Some(5), None);

    let real: Vec<ServerHandle> = (0..2)
        .map(|shard| {
            let service = Arc::new(QueryService::from_parts(
                Arc::new(map.shard_graph(&g, shard)),
                Arc::new(labelling.clone()),
                1 << 10,
            ));
            Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap()
        })
        .collect();
    let groups = vec![vec![fake, real[0].local_addr()], vec![real[1].local_addr()]];
    let router =
        Router::bind_replicated(map, &groups, "127.0.0.1:0", RouterConfig::default()).unwrap();

    let mut client = Client::connect(router.local_addr()).unwrap();
    // Make sure the doomed replica is the one taking the traffic.
    wait_for_replica_state(&mut client, 0, fake, "connected");

    let got = client.pipelined_queries(&pairs).unwrap();
    assert_eq!(got, truth, "every pipeline position exact across the failover");

    let json = client.metrics().unwrap();
    assert!(metric(&json, "failovers") >= 1, "failover not recorded: {json}");
    assert!(metric(&json, "retries") >= 1, "re-dispatches not recorded: {json}");
    assert_eq!(metric(&json, "errors"), 0, "client saw no errors: {json}");
    assert_eq!(metric(&json, "degraded"), 0, "a sibling served; nothing degraded: {json}");
}

/// A replica that stops answering *without closing its socket* is caught
/// by the idle health probe, failed over, and traffic lands on the
/// sibling exactly.
#[test]
fn silent_replica_is_probed_out_and_the_sibling_takes_over() {
    let (g, hubs) = bridged_communities(9);
    let (labelling, _) = HighwayCoverLabelling::build(&g, &hubs).unwrap();
    let map = PartitionMap::range(g.num_vertices(), 2, &hubs);
    let mut oracle = HlOracle::new(&g, labelling.clone());

    let pairs: Vec<(u32, u32)> = vec![(10, 20), (30, 40), (50, 60)];
    let truth: Vec<Option<u32>> = pairs.iter().map(|&(s, t)| oracle.query(s, t)).collect();
    let answers = pairs.iter().zip(&truth).map(|(&p, &d)| (p, d)).collect();
    // Replica 0 of shard 0 goes mute after 2 answers (socket stays open).
    let fake = fake_replica(answers, None, Some(2));

    let real: Vec<ServerHandle> = (0..2)
        .map(|shard| {
            let service = Arc::new(QueryService::from_parts(
                Arc::new(map.shard_graph(&g, shard)),
                Arc::new(labelling.clone()),
                1 << 10,
            ));
            Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap()
        })
        .collect();
    let groups = vec![vec![fake, real[0].local_addr()], vec![real[1].local_addr()]];
    let config = RouterConfig {
        probe_interval: std::time::Duration::from_millis(50),
        probe_timeout: std::time::Duration::from_millis(150),
        ..RouterConfig::default()
    };
    let router = Router::bind_replicated(map, &groups, "127.0.0.1:0", config).unwrap();

    let mut client = Client::connect(router.local_addr()).unwrap();
    wait_for_replica_state(&mut client, 0, fake, "connected");

    // Two answers flow, then the replica goes mute while idle.
    assert_eq!(client.query(10, 20).unwrap(), truth[0]);
    assert_eq!(client.query(30, 40).unwrap(), truth[1]);

    // With zero client traffic, only the probe can notice the corpse.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let json = client.metrics().unwrap();
        if metric(&json, "probe_failures") >= 1 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "probe never fired the replica: {json}");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // The sibling answers the same shard exactly — not degraded.
    assert_eq!(client.query_tagged(50, 60).unwrap(), (truth[2], false));
    let json = client.metrics().unwrap();
    assert!(metric(&json, "probes") >= 1, "{json}");
    assert_eq!(metric(&json, "degraded"), 0, "{json}");
}

/// The regression the blocking connect caused: with one shard address
/// blackholed (SYN queue full, connects hang in progress), an unrelated
/// client `PING` must still complete in well under 50 ms, and queries for
/// the unreachable shard degrade to a tagged upper bound instead of
/// hanging or erroring.
#[test]
fn blackholed_shard_never_blocks_the_reactor_and_queries_degrade() {
    use hcl_server::transport::sys;

    let (g, hubs) = bridged_communities(4);
    let (labelling, _) = HighwayCoverLabelling::build(&g, &hubs).unwrap();
    let map = PartitionMap::range(g.num_vertices(), 2, &hubs);
    let mut oracle = HlOracle::new(&g, labelling.clone());

    // A listener that never accepts, its accept queue pre-filled so
    // further connects sit in SYN retry limbo — the shape of a dead or
    // partitioned host, as opposed to a refused port.
    let blackhole = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let dark_addr = blackhole.local_addr().unwrap();
    let mut filler = Vec::new();
    for _ in 0..300 {
        if let Ok((stream, _)) = sys::connect_nonblocking(&dark_addr) {
            filler.push(stream);
        }
    }

    let real = {
        let service = Arc::new(QueryService::from_parts(
            Arc::new(map.shard_graph(&g, 1)),
            Arc::new(labelling.clone()),
            1 << 10,
        ));
        Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap()
    };
    let config = RouterConfig {
        park_timeout: std::time::Duration::from_millis(200),
        ..RouterConfig::default()
    };
    let router = Router::bind(map, &[dark_addr, real.local_addr()], "127.0.0.1:0", config).unwrap();

    // The reactor is mid-connect to the blackhole right now; an
    // unrelated connection must not feel it. (The old blocking
    // `connect_timeout` stalled the whole reactor for 500 ms per
    // attempt.)
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        let mut probe_client = Client::connect(router.local_addr()).unwrap();
        probe_client.ping().unwrap();
        let elapsed = t0.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(50),
            "PING stalled {elapsed:?} behind a blackholed connect"
        );
        std::thread::sleep(std::time::Duration::from_millis(100));
    }

    // Shard-0 queries degrade to a tagged upper bound via shard 1's
    // labels — bounded latency, no ERR, never an under-report.
    let mut client = Client::connect(router.local_addr()).unwrap();
    let t0 = std::time::Instant::now();
    let (bound, approx) = client.query_tagged(10, 20).unwrap();
    assert!(t0.elapsed() < std::time::Duration::from_secs(3), "degrade not bounded");
    assert!(approx, "unreachable home shard must tag the answer approximate");
    let truth = oracle.query(10, 20);
    match (bound, truth) {
        (Some(b), Some(t)) => assert!(b >= t, "under-report: bound {b} < true {t}"),
        (None, _) => {}
        (Some(b), None) => panic!("bound {b} for a disconnected pair"),
    }
    // The healthy shard still answers exactly, untagged.
    assert_eq!(client.query_tagged(200, 210).unwrap(), (oracle.query(200, 210), false));
    let json = client.metrics().unwrap();
    assert!(metric(&json, "degraded") >= 1, "{json}");
    drop(filler);
}

/// Overload protection while a shard flaps: with every replica of a
/// blackholed shard mid-connect, at most `max_parked` requests wait for
/// the reconnect — the overflow is refused `ERR busy` immediately and
/// counted in `parked_dropped`, instead of growing the parked queue
/// without bound.
#[test]
fn parked_queue_is_bounded_and_overflow_is_refused_busy() {
    use hcl_server::transport::sys;
    use std::io::{BufRead, BufReader, Write};

    let (g, hubs) = bridged_communities(4);
    let map = PartitionMap::range(g.num_vertices(), 2, &hubs);

    // Every replica of every shard blackholed (SYN queue pre-filled):
    // connects hang in progress, so incoming requests can only park.
    let blackhole = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let dark = blackhole.local_addr().unwrap();
    let mut filler = Vec::new();
    for _ in 0..300 {
        if let Ok((stream, _)) = sys::connect_nonblocking(&dark) {
            filler.push(stream);
        }
    }

    let config = RouterConfig {
        max_parked: 2,
        park_timeout: std::time::Duration::from_millis(200),
        ..RouterConfig::default()
    };
    let router = Router::bind(map, &[dark, dark], "127.0.0.1:0", config).unwrap();

    // A pipelined flood of 10 same-shard queries: 2 park behind the
    // in-progress connect, 8 overflow.
    let mut stream = std::net::TcpStream::connect(router.local_addr()).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    stream.write_all("QUERY 10 20\n".repeat(10).as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let (mut busy, mut unavailable) = (0, 0);
    for _ in 0..10 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line == "ERR busy" {
            busy += 1;
        } else if line.starts_with("ERR shard 0 unavailable") {
            unavailable += 1;
        } else {
            panic!("unexpected response: {line:?}");
        }
    }
    assert_eq!(busy, 8, "overflow past max_parked=2 is refused busy");
    assert_eq!(unavailable, 2, "the parked pair expires to unavailable");

    let mut client = Client::connect(router.local_addr()).unwrap();
    let json = client.metrics().unwrap();
    assert_eq!(metric(&json, "parked_dropped"), 8, "{json}");
    drop(filler);
}

/// Single-replica shards with no sibling: a dead shard *degrades* its
/// queries (tagged upper bounds from the surviving shard's labels)
/// instead of erroring; control-plane requests report the failure; and
/// once every shard is gone queries finally fail with `ERR`.
#[test]
fn dead_shard_degrades_queries_and_errs_the_control_plane() {
    let (g, hubs) = bridged_communities(5);
    let (labelling, _) = HighwayCoverLabelling::build(&g, &hubs).unwrap();
    let map = PartitionMap::range(g.num_vertices(), 2, &hubs);
    let deployment = Deployment::start(&g, &labelling, &map);
    let mut oracle = HlOracle::new(&g, labelling.clone());
    let mut client = deployment.client();
    client.ping().unwrap();

    // Kill shard 0. Early queries may still ride the not-yet-torn-down
    // socket and answer exactly; once the router notices the EOF they
    // must degrade — promptly, never hanging in an unresolved slot.
    deployment.shards[0].shutdown();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let truth = oracle.query(10, 20);
    loop {
        // (10, 20): both owned by the dead shard 0.
        let (d, approx) = client.query_tagged(10, 20).unwrap();
        if approx {
            if let (Some(b), Some(t)) = (d, truth) {
                assert!(b >= t, "degraded bound {b} under-reports true {t}");
            }
            break;
        }
        assert_eq!(d, truth, "exact answers must stay exact");
        assert!(std::time::Instant::now() < deadline, "queries to the dead shard never degraded");
        std::thread::yield_now();
    }

    // The connection is still usable and the healthy shard is exact.
    client.ping().unwrap();
    let (s, t) = (200, 210); // both owned by shard 1
    assert_eq!(client.query_tagged(s, t).unwrap(), (oracle.query(s, t), false));
    // Scattered queries touching the dead shard degrade too: the healthy
    // half plus a label bound for the dead half is still an upper bound.
    let (d, approx) = client.query_tagged(10, 200).unwrap();
    assert!(approx, "scatter with a dead half must be tagged");
    if let (Some(b), Some(t)) = (d, oracle.query(10, 200)) {
        assert!(b >= t, "scattered bound {b} under-reports true {t}");
    }
    // The control plane does not degrade: STATS reports the failure.
    let err = client.stats().unwrap_err();
    assert!(err.to_string().contains("shard 0 unavailable"), "{err}");
    assert!(metric(&client.metrics().unwrap(), "degraded") >= 1);

    // With every shard gone there is no label holder left to bound the
    // answer: now — and only now — queries fail.
    deployment.shards[1].shutdown();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        match client.query_tagged(200, 210) {
            Err(e) => {
                assert!(e.to_string().contains("unavailable"), "{e}");
                break;
            }
            Ok(_) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "queries kept answering with every shard dead"
                );
                std::thread::yield_now();
            }
        }
    }
    client.ping().unwrap();
}

#[test]
fn router_rejects_empty_replica_groups() {
    let (g, hubs) = hub_star();
    let map = PartitionMap::hash(g.num_vertices(), 2, &hubs);
    let groups: Vec<Vec<String>> = vec![vec!["127.0.0.1:1".to_string()], vec![]];
    let err = Router::bind_replicated(map, &groups, "127.0.0.1:0", RouterConfig::default())
        .map(|_| ())
        .unwrap_err();
    assert!(err.to_string().contains("empty replica group"), "{err}");
}

#[test]
fn router_rejects_mismatched_shard_count() {
    let (g, hubs) = hub_star();
    let map = PartitionMap::hash(g.num_vertices(), 2, &hubs);
    let err =
        Router::bind(map, &["127.0.0.1:1".to_string()], "127.0.0.1:0", RouterConfig::default())
            .map(|_| ())
            .unwrap_err();
    assert!(err.to_string().contains("2 shards"), "{err}");
}
