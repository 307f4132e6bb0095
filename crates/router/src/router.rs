//! The router entry point: [`Router::bind`] /
//! [`Router::bind_replicated`] wire a partition map and the shard
//! (replica) addresses onto a listening socket and run the proxy on one
//! reactor thread owned by the returned [`RouterHandle`].

use crate::reactor;
use hcl_core::PartitionMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tunables for [`Router::bind`].
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Most client connections held open at once; overflow is answered
    /// with one `ERR` line and closed (counted in
    /// `router_rejected_connections`).
    pub max_connections: usize,
    /// Close client connections with no progress for this long. Zero
    /// disables the timeout.
    pub idle_timeout: Duration,
    /// Once shutdown begins, how long client connections may take to
    /// drain before being force-closed.
    pub drain_grace: Duration,
    /// Requests in flight per replica connection; excess requests queue
    /// at the router and dispatch as responses drain the window.
    pub shard_window: usize,
    /// How often an idle, connected replica is sent a `PING` health
    /// probe (traffic doubles as liveness, so probes only flow on quiet
    /// connections). Zero disables probing.
    pub probe_interval: Duration,
    /// How long an unanswered probe may sit before the replica is
    /// declared dead and failed over.
    pub probe_timeout: Duration,
    /// How long a request may wait parked behind an in-progress replica
    /// connect before it degrades (or errors).
    pub park_timeout: Duration,
    /// Bound on how long a client connection may sit with in-flight
    /// requests making **no completion progress** before it is reaped —
    /// the router-side cover for a completion lost beyond the retry and
    /// backoff budget. Zero leaves the exemption unbounded.
    pub completion_deadline: Duration,
    /// Most requests parked per replica group while its replicas
    /// reconnect; overflow is answered `ERR busy` immediately (counted
    /// in `router_parked_dropped`) instead of growing the parked queue
    /// without bound while a shard flaps. Zero disables the bound.
    pub max_parked: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            max_connections: 1024,
            idle_timeout: Duration::from_secs(600),
            drain_grace: Duration::from_secs(5),
            shard_window: 256,
            probe_interval: Duration::from_secs(2),
            probe_timeout: Duration::from_secs(1),
            park_timeout: Duration::from_secs(3),
            completion_deadline: Duration::from_secs(15),
            max_parked: 1024,
        }
    }
}

/// The router's own lock-free counters, reported as `router_*` keys in
/// aggregated `STATS` responses and in full under `METRICS`.
#[derive(Debug, Default)]
pub struct RouterMetrics {
    /// Client connections accepted over the router's lifetime.
    pub connections: AtomicU64,
    /// Client connections currently open.
    pub active_connections: AtomicU64,
    /// Client connections refused at `max_connections`.
    pub rejected_connections: AtomicU64,
    /// Client connections reaped by the idle timer or the completion
    /// deadline.
    pub timed_out_connections: AtomicU64,
    /// `QUERY` requests routed.
    pub queries: AtomicU64,
    /// `QUERY` requests that needed two shards (cross-shard pairs).
    pub scatter_queries: AtomicU64,
    /// `BATCH` requests routed.
    pub batch_requests: AtomicU64,
    /// Requests answered with an `ERR` line (including shard failures).
    pub errors: AtomicU64,
    /// `RELOAD` fan-outs confirmed by every replica.
    pub reloads: AtomicU64,
    /// `UPDATE` fan-outs confirmed by every replica of every owning
    /// shard (all-or-nothing, like reloads).
    pub updates: AtomicU64,
    /// Replica connections torn down after a failure (each surrenders
    /// its in-flight requests for re-dispatch).
    pub failovers: AtomicU64,
    /// Requests re-dispatched to a sibling replica after a failure.
    pub retries: AtomicU64,
    /// Requests answered from a foreign shard's labels (`DIST~` /
    /// `DISTS~`) because their home shard had no healthy replica.
    pub degraded: AtomicU64,
    /// Health probes sent.
    pub probes: AtomicU64,
    /// Health probes that timed out (each fails its replica over).
    pub probe_failures: AtomicU64,
    /// Requests refused `ERR busy` because their replica group's parked
    /// queue was full (every replica reconnecting and `max_parked`
    /// already waiting).
    pub parked_dropped: AtomicU64,
    /// Reactor loop iterations (one per `epoll_wait` return).
    pub reactor_passes: AtomicU64,
    /// `write` syscalls on client sockets: one per connection per pass
    /// however many responses the pass resolved (`queries /
    /// client_socket_writes` = replies per write).
    pub client_socket_writes: AtomicU64,
}

impl RouterMetrics {
    pub(crate) fn bump(counter: &AtomicU64) {
        Self::add(counter, 1);
    }

    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn drop_one(counter: &AtomicU64) {
        counter.fetch_sub(1, Ordering::Relaxed);
    }

    /// The `router_* … shards=N` prefix of an aggregated `STATS` body.
    pub(crate) fn stats_prefix(&self, shards: u32) -> String {
        format!(
            "router_connections={} router_active_connections={} \
             router_rejected_connections={} router_queries={} router_scatter_queries={} \
             router_batch_requests={} router_errors={} router_reloads={} \
             router_updates={} router_failovers={} router_degraded={} \
             router_parked_dropped={} shards={shards}",
            self.connections.load(Ordering::Relaxed),
            self.active_connections.load(Ordering::Relaxed),
            self.rejected_connections.load(Ordering::Relaxed),
            self.queries.load(Ordering::Relaxed),
            self.scatter_queries.load(Ordering::Relaxed),
            self.batch_requests.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.reloads.load(Ordering::Relaxed),
            self.updates.load(Ordering::Relaxed),
            self.failovers.load(Ordering::Relaxed),
            self.degraded.load(Ordering::Relaxed),
            self.parked_dropped.load(Ordering::Relaxed),
        )
    }
}

/// State shared by the reactor thread and the handle.
pub(crate) struct Shared {
    pub partition: PartitionMap,
    /// `replica_addrs[shard]` lists the interchangeable replicas serving
    /// that shard (every replica holds the same shard index).
    pub replica_addrs: Vec<Vec<SocketAddr>>,
    pub config: RouterConfig,
    pub metrics: RouterMetrics,
    pub shutdown: AtomicBool,
    pub local_addr: SocketAddr,
    /// Wakes the reactor's epoll wait for shutdown.
    pub wake: hcl_server::transport::EventFd,
}

impl Shared {
    pub fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.wake.signal();
        }
    }

    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// The router entry point.
pub struct Router;

impl Router {
    /// Binds `addr` and starts proxying for `partition` across `shards`
    /// (one address per shard, indexed by shard id) — the single-replica
    /// special case of [`bind_replicated`](Self::bind_replicated).
    ///
    /// Shard connections are established *asynchronously* by the reactor
    /// with backoff and retry: a dead shard no longer fails the bind,
    /// it degrades the affected queries until it comes back.
    ///
    /// # Errors
    ///
    /// Fails when the shard count does not match the partition, an
    /// address does not resolve, or the listening socket cannot be
    /// bound.
    pub fn bind(
        partition: PartitionMap,
        shards: &[impl ToSocketAddrs],
        addr: impl ToSocketAddrs,
        config: RouterConfig,
    ) -> io::Result<RouterHandle> {
        let mut groups = Vec::with_capacity(shards.len());
        for (i, shard) in shards.iter().enumerate() {
            groups.push(vec![resolve(shard, i, 0)?]);
        }
        Self::bind_resolved(partition, groups, addr, config)
    }

    /// Binds `addr` and starts proxying for `partition` across replica
    /// `groups`: `groups[shard]` lists the interchangeable replicas
    /// serving that shard (each holds the same shard index). Requests go
    /// to the first healthy replica of their shard and fail over to
    /// siblings mid-flight; when none is healthy, queries degrade to a
    /// label-only upper bound (`DIST~`) from any live replica.
    ///
    /// # Errors
    ///
    /// Fails when the group count does not match the partition, a group
    /// is empty, an address does not resolve, or the listening socket
    /// cannot be bound.
    pub fn bind_replicated<S: ToSocketAddrs>(
        partition: PartitionMap,
        groups: &[Vec<S>],
        addr: impl ToSocketAddrs,
        config: RouterConfig,
    ) -> io::Result<RouterHandle> {
        let mut resolved_groups = Vec::with_capacity(groups.len());
        for (shard, group) in groups.iter().enumerate() {
            if group.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("shard {shard}: empty replica group"),
                ));
            }
            let mut replicas = Vec::with_capacity(group.len());
            for (r, replica) in group.iter().enumerate() {
                replicas.push(resolve(replica, shard, r)?);
            }
            resolved_groups.push(replicas);
        }
        Self::bind_resolved(partition, resolved_groups, addr, config)
    }

    fn bind_resolved(
        partition: PartitionMap,
        replica_addrs: Vec<Vec<SocketAddr>>,
        addr: impl ToSocketAddrs,
        config: RouterConfig,
    ) -> io::Result<RouterHandle> {
        if replica_addrs.len() != partition.num_shards() as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "partition expects {} shards, {} addresses given",
                    partition.num_shards(),
                    replica_addrs.len()
                ),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            partition,
            replica_addrs,
            config,
            metrics: RouterMetrics::default(),
            shutdown: AtomicBool::new(false),
            local_addr,
            wake: hcl_server::transport::EventFd::new()?,
        });
        let thread = reactor::spawn(Arc::clone(&shared), listener)?;
        Ok(RouterHandle { shared, thread: Mutex::new(Some(thread)) })
    }
}

fn resolve(addr: &impl ToSocketAddrs, shard: usize, replica: usize) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("shard {shard} replica {replica}: no address"),
        )
    })
}

/// Owns the reactor thread; dropping it shuts the router down (backend
/// shards are left running — they are managed independently).
pub struct RouterHandle {
    shared: Arc<Shared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl RouterHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The router's own counters.
    pub fn metrics(&self) -> &RouterMetrics {
        &self.shared.metrics
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Initiates graceful shutdown and waits for client connections to
    /// drain. Idempotent. Shards keep running.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
        self.join();
    }

    /// Blocks until the router stops (via [`shutdown`](Self::shutdown) or
    /// a client `SHUTDOWN` request).
    pub fn join(&self) {
        let handle = self.thread.lock().expect("reactor handle poisoned").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        self.join();
    }
}
