//! The program under test, started in-process through its public `bind`
//! functions: one `hcl_server::Server` per shard and, on the routed
//! workload, an `hcl_router::Router` in front — plus the on-disk artefacts
//! the `RELOAD` phases load.
//!
//! Hygiene rules kept here: artefacts live in a per-pid directory that is
//! removed on drop (so also on failure), every port comes from `bind(0)`,
//! and servers stop through `shutdown`/`join`, so a run leaves no thread
//! or file behind and overlapping runs cannot collide.

use crate::trace::{Tracer, NO_REQUEST};
use crate::wire;
use crate::workload::{Instance, Kind, Spec, CACHE_ENTRIES};
use hcl_core::partition::{self, PartitionMap};
use hcl_core::{HighwayCoverLabelling, SharedOracle, SparseView};
use hcl_graph::CsrGraph;
use hcl_router::{Router, RouterConfig, RouterHandle};
use hcl_server::{QueryService, Server, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

/// Where traces and temporary artefacts go: `bench_e2e/out/`, next to the
/// package's manifest whatever the current directory is.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The run's private artefact directory; removed on drop.
pub struct Artefacts {
    dir: PathBuf,
}

impl Artefacts {
    pub fn create() -> Result<Artefacts, String> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        // RELOAD lines are whitespace-separated, so a path with a space in
        // it cannot be named over the wire.
        if dir.to_string_lossy().contains(char::is_whitespace) {
            return Err(format!(
                "artefact path {dir:?} contains whitespace; RELOAD cannot name it"
            ));
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        Ok(Artefacts { dir })
    }

    pub fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Artefacts {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The index of one run: graph, labelling and sparsified view, shared
/// with the serving generation that starts on them.
pub struct Index {
    pub graph: Arc<CsrGraph>,
    pub labelling: Arc<HighwayCoverLabelling>,
    pub sparse: Arc<SparseView>,
}

/// File names inside [`Artefacts`].
pub const GRAPH_FILE: &str = "graph.hclg";
pub const INDEX_FILE: &str = "index.hcl";
pub const PACKED_FILE: &str = "index.hclx";
pub const DEPLOY_DIR: &str = "deploy";

/// Writes what the `RELOAD` phases and the store layer read: the graph,
/// the plain labelling and the packed index — and, on the routed
/// workload, the two-shard deployment directory. Returns the seconds
/// `save_packed` took.
pub fn write_artefacts(
    tracer: &mut Tracer,
    artefacts: &Artefacts,
    index: &Index,
    partition: Option<&PartitionMap>,
) -> Result<f64, String> {
    let (saved, _) = tracer.span("graph.save", NO_REQUEST, |_| {
        hcl_graph::io::save_binary(&index.graph, artefacts.path(GRAPH_FILE))
    });
    saved.map_err(|e| format!("writing graph: {e}"))?;
    let (saved, _) = tracer.span("core.save_labelling", NO_REQUEST, |_| {
        hcl_core::io::save_labelling(&index.labelling, artefacts.path(INDEX_FILE))
    });
    saved.map_err(|e| format!("writing labelling: {e}"))?;
    let (saved, pack_ns) = tracer.span("store.pack", NO_REQUEST, |_| {
        hcl_store::save_packed(&index.labelling, &index.sparse, artefacts.path(PACKED_FILE))
    });
    saved.map_err(|e| format!("writing packed index: {e}"))?;
    if let Some(map) = partition {
        let (saved, _) = tracer.span("core.write_deployment", NO_REQUEST, |_| {
            partition::write_deployment(
                artefacts.path(DEPLOY_DIR),
                &index.graph,
                &index.labelling,
                map,
            )
        });
        saved.map_err(|e| format!("writing deployment: {e}"))?;
    }
    Ok(pack_ns as f64 / 1e9)
}

/// The two-shard range partition of the routed workload. Fails unless it
/// respects the components of `G[V∖R]`, the condition under which every
/// routed answer must be exact.
pub fn exact_partition(instance: &Instance) -> Result<PartitionMap, String> {
    let map = PartitionMap::range(instance.graph.num_vertices(), 2, &instance.landmarks);
    if !map.respects_components(&instance.graph) {
        return Err("route-uniform: the range partition cuts a component of G[V∖R]".into());
    }
    Ok(map)
}

fn server_config() -> ServerConfig {
    // One worker always: the thread count must not follow the host.
    ServerConfig { batch_threads: 1, ..ServerConfig::default() }
}

/// The running program: shard servers and, when routed, the router.
pub struct Fleet {
    shards: Vec<ServerHandle>,
    router: Option<RouterHandle>,
}

impl Fleet {
    /// Starts the workload's serving processes on ephemeral loopback
    /// ports, serving `index` from memory.
    ///
    /// Serving threads go on CPU 0 and the calling (generator) thread on
    /// CPU 1: threads inherit the affinity of the thread that spawns them,
    /// so the servers — and the reload and update threads they spawn
    /// later — stay where `bind` ran. With four or five busy threads on
    /// two CPUs, where the scheduler puts them otherwise decides the
    /// throughput of a run more than the code does. On a host with one
    /// CPU the second pin is refused and everything shares it.
    pub fn start(
        spec: &Spec,
        index: &Index,
        partition: Option<&PartitionMap>,
    ) -> Result<Fleet, String> {
        let pinned = wire::pin_to_cpu(0);
        let fleet = Fleet::bind_all(spec, index, partition);
        if pinned && !wire::pin_to_cpu(1) {
            eprintln!("note: one CPU only; generator and servers share it");
        }
        fleet
    }

    fn bind_all(
        spec: &Spec,
        index: &Index,
        partition: Option<&PartitionMap>,
    ) -> Result<Fleet, String> {
        let bind = |service: QueryService| {
            Server::bind(Arc::new(service), "127.0.0.1:0", server_config())
                .map_err(|e| format!("binding server: {e}"))
        };
        if spec.kind != Kind::RouteUniform {
            let oracle = SharedOracle::from_parts(
                Arc::clone(&index.graph),
                Arc::clone(&index.labelling),
                Arc::clone(&index.sparse),
            );
            let shards = vec![bind(QueryService::new(oracle, CACHE_ENTRIES))?];
            return Ok(Fleet { shards, router: None });
        }
        let map = partition.expect("the routed workload carries its partition");
        let mut shards = Vec::new();
        for shard in 0..map.num_shards() {
            let shard_graph = Arc::new(map.shard_graph(&index.graph, shard));
            shards.push(bind(QueryService::from_parts(
                shard_graph,
                Arc::clone(&index.labelling),
                CACHE_ENTRIES,
            ))?);
        }
        let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.local_addr()).collect();
        let router = Router::bind(map.clone(), &addrs, "127.0.0.1:0", RouterConfig::default())
            .map_err(|e| format!("binding router: {e}"))?;
        Ok(Fleet { shards, router: Some(router) })
    }

    /// The address clients talk to: the router when there is one.
    pub fn front(&self) -> SocketAddr {
        match &self.router {
            Some(router) => router.local_addr(),
            None => self.shards[0].local_addr(),
        }
    }

    /// The first shard server's own address (the direct path the routed
    /// round trip is compared with).
    pub fn shard_addr(&self) -> SocketAddr {
        self.shards[0].local_addr()
    }

    pub fn routed(&self) -> bool {
        self.router.is_some()
    }

    /// Stops the router, then the shards, and waits for their threads.
    pub fn shutdown(self) {
        if let Some(router) = &self.router {
            router.shutdown();
        }
        for shard in &self.shards {
            shard.shutdown();
        }
    }
}
