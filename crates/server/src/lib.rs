//! `hcl-server` — the concurrent distance-query serving subsystem.
//!
//! The labelling built by `hcl-core` answers exact distance queries in
//! microseconds, and it is immutable once built — so the serving problem is
//! pure fan-out. This crate turns one index into a multi-client service:
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`oracle_pool`] | [`QueryService`]: an epoch-tagged hot-swappable [`SharedOracle`](hcl_core::SharedOracle) + optional cache + metrics, all `&self` |
//! | [`cache`] | [`ShardedCache`]: mutex-striped LRU over normalised `(s, t)` keys, epoch-tagged entries, hit/miss/stale/eviction counters |
//! | [`batch`] | [`BatchExecutor`]: a persistent worker pool answering `Vec<(s, t)>` in input order, one epoch per batch, completion callbacks |
//! | [`protocol`] | the newline-delimited wire protocol (`QUERY` / `BATCH` / `STATS` / `PING` / `EPOCH` / `RELOAD` / `UPDATE` / `SHUTDOWN`), both codec directions, and the incremental [`Decoder`] |
//! | [`server`] | std-only TCP server: single-threaded epoll reactor, nonblocking sockets, graceful eventfd-signalled shutdown |
//! | [`transport`] | the reusable event-loop building blocks: [`transport::Conn`] state machine, [`transport::sys`] epoll/eventfd bindings |
//! | [`client`] | a blocking client for the protocol |
//! | [`metrics`] | lock-free serving counters, each declared once with its aggregation class ([`counters!`]) |
//!
//! Internally the server is an event loop (`reactor`) over the reusable
//! [`transport`] layer — per-connection state machines
//! ([`transport::Conn`]) and a hand-rolled std-only epoll/eventfd binding
//! ([`transport::sys`], Linux-only): connections are an fd plus buffers,
//! not a thread, so open-connection count is bounded by fds — not by
//! threads — and the serving thread count is fixed at one reactor plus
//! the worker pool. The transport layer is public because `hcl-router`
//! drives its proxy connections with the same machinery.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use hcl_core::HighwayCoverLabelling;
//! use hcl_graph::generate;
//! use hcl_server::{Client, QueryService, Server, ServerConfig};
//!
//! let g = Arc::new(generate::barabasi_albert(500, 4, 7));
//! let landmarks = hcl_graph::order::top_degree(&g, 8);
//! let (labelling, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
//!
//! let service = Arc::new(QueryService::from_parts(g, Arc::new(labelling), 1 << 12));
//! let handle =
//!     Server::bind(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! let d = client.query(1, 499).unwrap();
//! assert!(d.is_some());
//! assert_eq!(client.batch(&[(1, 499), (2, 2)]).unwrap(), vec![d, Some(0)]);
//! handle.shutdown();
//! ```

pub mod batch;
pub mod cache;
pub mod client;
pub mod metrics;
pub mod oracle_pool;
pub mod protocol;
mod reactor;
pub mod server;
pub mod serving;
pub mod transport;

pub use batch::BatchExecutor;
pub use cache::{CacheConfig, CacheStats, ShardedCache};
pub use client::{Client, ClientError};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use oracle_pool::{
    IndexSizes, PendingRevalidation, QueryError, QueryService, ReloadError, UpdateApplyError,
};
pub use protocol::{Decoder, Frame, ProtocolError, Request, ResponseError};
pub use server::{Server, ServerConfig, ServerHandle};
pub use serving::ServingIndex;
