//! `hcl-router` — a horizontal sharding router for the `hcl-serve` line
//! protocol.
//!
//! One `hcl serve` process tops out at one machine's memory. This crate
//! is the first step past that: a thin, std-only proxy that spreads the
//! vertex set across N backend shards (each an *ordinary* `hcl serve`
//! process over its slice of the graph plus the replicated global
//! labelling — see [`hcl_core::partition`]) while exposing the **same**
//! wire protocol to clients, so `hcl client` works unchanged against a
//! sharded deployment.
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`router`] | [`Router::bind`], [`RouterConfig`], [`RouterHandle`], [`RouterMetrics`] |
//! | [`aggregate`] | the pure merge logic: batch splitting by shard, min-merge of scattered answers, `STATS` summing, epoch agreement |
//! | `reactor` | the single-threaded epoll event loop multiplexing client connections onto pooled upstream connections |
//! | `upstream` | one pipelined shard connection: write buffer, in-flight window with backlog, in-order response matching |
//!
//! # How requests route
//!
//! * `QUERY s t` — same owner (or a landmark endpoint): forwarded to one
//!   shard and its response relayed verbatim. Different owners:
//!   scattered to both owning shards and answered with the minimum
//!   (`INF`-aware) of the two distances.
//! * `BATCH` — split into at most one sub-batch per shard (cross-shard
//!   pairs appear in both owners' sub-batches), scattered, and re-merged
//!   into input order.
//! * `STATS` — fanned out to every shard; numeric keys are merged by the
//!   class each declares ([`hcl_server::metrics::stat_class`]) and the
//!   router prepends its own `router_*` counters plus `shards=N`.
//! * `EPOCH` — fanned out; answered only when every shard agrees.
//! * `RELOAD dir` — fanned out as `RELOAD dir/shardI.hclg dir/index.hcl`,
//!   or as the single-path `RELOAD dir/shardI.hclx` when the directory
//!   holds a packed (`hcl-store`) deployment (detected by `shard0.hclx`;
//!   shards then reload by remapping, not rebuilding), each over a
//!   dedicated control connection per shard (so seconds-long
//!   rebuilds never stall pipelined query traffic), with all-or-nothing
//!   **confirmation**: the router replies `RELOADED e` only when every
//!   shard swapped to the same new epoch, and otherwise reports each
//!   shard's outcome in one `ERR` line.
//! * `PING` / malformed input — handled locally, exactly like the server.
//!
//! Exactness of sharded answers is a property of the partition, not the
//! router; see [`hcl_core::partition`] for the conditions and
//! `docs/PROTOCOL.md` for the normative wire behaviour.
//!
//! # Ordering
//!
//! Upstream responses are matched to requests by position: the protocol
//! guarantees per-connection responses in request order, so each upstream
//! connection keeps a FIFO of in-flight request ids. Client-facing order
//! is restored per connection by the same ordered response slots the
//! server uses ([`hcl_server::transport::Conn`]), so pipelined clients
//! observe request order no matter how shard responses interleave.

pub mod aggregate;
mod reactor;
pub mod router;
mod upstream;

pub use router::{Router, RouterConfig, RouterHandle, RouterMetrics, RouterMetricsSnapshot};
