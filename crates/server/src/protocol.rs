//! The `hcl-serve` wire protocol: newline-delimited UTF-8 text, one
//! response line per request.
//!
//! ```text
//! -> QUERY <s> <t>          <- DIST <d>|INF
//! -> BATCH <k>              (followed by k lines "<s> <t>")
//!                           <- DISTS <d1> <d2> … <dk>   (INF for unreachable)
//! -> STATS                  <- STATS key=value key=value …
//! -> METRICS                <- METRICS {json}  (machine-readable state)
//! -> PING                   <- PONG
//! -> EPOCH                  <- EPOCH <e>  (current index generation)
//! -> RELOAD <graph> [<idx>] <- RELOADED <e>  (hot index swap; paths are
//!                              server-side and must not contain spaces)
//! -> UPDATE ADD <u> <v>     <- UPDATED <e> <a>  (incremental edge insert;
//! -> UPDATE DEL <u> <v>        e = new epoch, a = affected vertices)
//! -> SHUTDOWN               <- BYE       (server then drains and stops)
//! ```
//!
//! A router may answer a distance request **degraded** — `DIST~` /
//! `DISTS~` instead of `DIST` / `DISTS` — when a shard had no healthy
//! replica and the answer is the landmark upper bound from another
//! shard's replica (still never an under-report). The client-side parsers
//! accept both forms; the `*_tagged` variants surface the flag.
//!
//! Any malformed request line gets `ERR <message>` and the connection stays
//! usable. Both codec directions live here so the server, the bundled
//! client, and tests share one definition.
//!
//! Server-side parsing is *incremental*: the [`Decoder`] consumes whatever
//! byte fragments the transport hands it — partial lines, many lines at
//! once, `BATCH` bodies split anywhere — and yields complete [`Frame`]s. It
//! never assumes a blocking `read_line` and it bounds memory against
//! oversized-line attacks ([`MAX_LINE_BYTES`]).

use crate::cache::CacheStats;
use crate::metrics::MetricsSnapshot;
use crate::oracle_pool::IndexSizes;
use hcl_graph::VertexId;

/// Largest `k` a `BATCH` request may declare; guards the server against
/// one line committing it to unbounded allocation.
pub const MAX_BATCH: usize = 1 << 20;

/// Longest request line the [`Decoder`] will buffer. The longest *valid*
/// line (`RELOAD <path> <path>`) is far under this; anything near the cap
/// is a client streaming garbage, and buffering it unboundedly would let
/// one connection grow server memory without limit.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// A parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `QUERY s t` — one exact distance.
    Query(VertexId, VertexId),
    /// `BATCH k` — `k` pair lines follow.
    Batch(usize),
    /// `STATS` — serving counters.
    Stats,
    /// `METRICS` — machine-readable (JSON) process state.
    Metrics,
    /// `PING` — liveness probe.
    Ping,
    /// `EPOCH` — current index generation.
    Epoch,
    /// `RELOAD graph [index]` — hot-swap the index from server-side files.
    Reload {
        /// Path to the graph file (server-side).
        graph: String,
        /// Path to a prebuilt index file; when absent the server rebuilds
        /// the labelling from the graph.
        index: Option<String>,
    },
    /// `UPDATE ADD|DEL u v` — incrementally patch the serving index for
    /// one edge edit (no rebuild; publishes a new epoch).
    Update {
        /// `true` for `ADD`, `false` for `DEL`.
        add: bool,
        /// One edge endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// `SHUTDOWN` — begin graceful shutdown.
    Shutdown,
}

/// A request the protocol cannot parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// Blank request line.
    Empty,
    /// First token is not a known command.
    UnknownCommand(String),
    /// Known command with the wrong number of arguments.
    BadArity {
        /// The command name.
        command: &'static str,
        /// What the command expects, e.g. `"<s> <t>"`.
        expected: &'static str,
    },
    /// An argument that should be a number is not.
    BadNumber(String),
    /// `BATCH k` with `k` beyond [`MAX_BATCH`].
    BatchTooLarge {
        /// The declared batch size.
        requested: usize,
    },
    /// A request line that exceeds the decoder's byte limit before any
    /// newline arrives (only the [`Decoder`] produces this).
    LineTooLong {
        /// The limit that was exceeded.
        limit: usize,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Empty => write!(f, "empty request"),
            ProtocolError::UnknownCommand(cmd) => write!(f, "unknown command {cmd:?}"),
            ProtocolError::BadArity { command, expected } => {
                write!(f, "{command} expects {expected}")
            }
            ProtocolError::BadNumber(tok) => write!(f, "not a number: {tok:?}"),
            ProtocolError::BatchTooLarge { requested } => {
                write!(f, "batch of {requested} exceeds the maximum of {MAX_BATCH}")
            }
            ProtocolError::LineTooLong { limit } => {
                write!(f, "request line exceeds {limit} bytes")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

fn parse_num<T: std::str::FromStr>(tok: &str) -> Result<T, ProtocolError> {
    tok.parse().map_err(|_| ProtocolError::BadNumber(tok.to_string()))
}

/// Parses one request line (without its trailing newline).
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let mut tokens = line.split_ascii_whitespace();
    let command = tokens.next().ok_or(ProtocolError::Empty)?;
    let request = match command {
        "QUERY" => {
            let (Some(s), Some(t), None) = (tokens.next(), tokens.next(), tokens.next()) else {
                return Err(ProtocolError::BadArity { command: "QUERY", expected: "<s> <t>" });
            };
            Request::Query(parse_num(s)?, parse_num(t)?)
        }
        "BATCH" => {
            let (Some(k), None) = (tokens.next(), tokens.next()) else {
                return Err(ProtocolError::BadArity { command: "BATCH", expected: "<k>" });
            };
            let k: usize = parse_num(k)?;
            if k > MAX_BATCH {
                return Err(ProtocolError::BatchTooLarge { requested: k });
            }
            Request::Batch(k)
        }
        "RELOAD" => {
            let (Some(graph), index, None) = (tokens.next(), tokens.next(), tokens.next()) else {
                return Err(ProtocolError::BadArity {
                    command: "RELOAD",
                    expected: "<graph> [<index>]",
                });
            };
            Request::Reload { graph: graph.to_string(), index: index.map(str::to_string) }
        }
        "UPDATE" => {
            let (Some(op), Some(u), Some(v), None) =
                (tokens.next(), tokens.next(), tokens.next(), tokens.next())
            else {
                return Err(ProtocolError::BadArity {
                    command: "UPDATE",
                    expected: "ADD|DEL <u> <v>",
                });
            };
            let add = match op {
                "ADD" => true,
                "DEL" => false,
                _ => {
                    return Err(ProtocolError::BadArity {
                        command: "UPDATE",
                        expected: "ADD|DEL <u> <v>",
                    })
                }
            };
            Request::Update { add, u: parse_num(u)?, v: parse_num(v)? }
        }
        "STATS" | "METRICS" | "PING" | "EPOCH" | "SHUTDOWN" => {
            if tokens.next().is_some() {
                return Err(ProtocolError::BadArity {
                    command: match command {
                        "STATS" => "STATS",
                        "METRICS" => "METRICS",
                        "PING" => "PING",
                        "EPOCH" => "EPOCH",
                        _ => "SHUTDOWN",
                    },
                    expected: "no arguments",
                });
            }
            match command {
                "STATS" => Request::Stats,
                "METRICS" => Request::Metrics,
                "PING" => Request::Ping,
                "EPOCH" => Request::Epoch,
                _ => Request::Shutdown,
            }
        }
        other => return Err(ProtocolError::UnknownCommand(other.to_string())),
    };
    Ok(request)
}

/// Parses one `"<s> <t>"` pair line of a `BATCH` body.
pub fn parse_pair(line: &str) -> Result<(VertexId, VertexId), ProtocolError> {
    let mut tokens = line.split_ascii_whitespace();
    match (tokens.next(), tokens.next(), tokens.next()) {
        (Some(s), Some(t), None) => Ok((parse_num(s)?, parse_num(t)?)),
        (None, ..) => Err(ProtocolError::Empty),
        _ => Err(ProtocolError::BadArity { command: "BATCH pair", expected: "<s> <t>" }),
    }
}

/// One complete unit of work decoded from the byte stream. Unlike
/// [`Request`], a batch frame carries its whole body — the [`Decoder`]
/// swallows the `k` pair lines — so the transport layer never needs to
/// know that `BATCH` spans multiple lines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// One exact distance request.
    Query(VertexId, VertexId),
    /// A fully collected batch body (possibly empty: `BATCH 0`).
    Batch(Vec<(VertexId, VertexId)>),
    /// Serving counters request.
    Stats,
    /// Machine-readable process-state request.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Current index generation request.
    Epoch,
    /// Hot index swap request.
    Reload {
        /// Path to the graph file (server-side).
        graph: String,
        /// Optional path to a prebuilt index file.
        index: Option<String>,
    },
    /// Incremental edge-edit request.
    Update {
        /// `true` for `ADD`, `false` for `DEL`.
        add: bool,
        /// One edge endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Graceful-shutdown request.
    Shutdown,
    /// A malformed request: answer one `ERR` line, keep the connection.
    /// For a bad batch body this arrives only after the whole declared
    /// body has been consumed, so the framing cannot desync.
    Invalid(ProtocolError),
    /// Unrecoverable framing (an unhonourable `BATCH` header whose
    /// undelimited body may be in flight, an oversized line, a body
    /// truncated by EOF): answer one `ERR` line, then close. The decoder
    /// discards all further input.
    Corrupt(ProtocolError),
}

/// State of a batch body being collected across fragments.
#[derive(Debug)]
struct PartialBatch {
    expected: usize,
    seen: usize,
    pairs: Vec<(VertexId, VertexId)>,
    /// First body error; the remaining declared lines are still consumed
    /// so one `ERR` answers the whole batch and the next line after the
    /// body is parsed as a request again.
    error: Option<ProtocolError>,
}

/// Incremental, fragment-tolerant request decoder; see the module docs.
///
/// Feed arbitrary byte slices with [`feed`](Self::feed), then drain
/// complete frames with [`next_frame`](Self::next_frame) until it
/// returns `None`. At
/// end of input call [`finish`](Self::finish) and drain once more: a
/// trailing unterminated line still parses (matching `BufRead` semantics)
/// and a batch truncated mid-body surfaces as [`Frame::Corrupt`].
///
/// Memory is bounded: a line may buffer at most the configured limit
/// before [`Frame::Corrupt`] fires, and once a corrupt frame has been
/// emitted all further input is discarded without buffering.
///
/// # Examples
///
/// ```
/// use hcl_server::{Decoder, Frame};
///
/// let mut decoder = Decoder::new();
/// // Fragments may split anywhere — even inside a BATCH body.
/// decoder.feed(b"PING\nBATCH 2\n1 2\n");
/// assert_eq!(decoder.next_frame(), Some(Frame::Ping));
/// assert_eq!(decoder.next_frame(), None, "batch body incomplete");
/// decoder.feed(b"3 4\n");
/// assert_eq!(decoder.next_frame(), Some(Frame::Batch(vec![(1, 2), (3, 4)])));
/// ```
#[derive(Debug)]
pub struct Decoder {
    buf: Vec<u8>,
    /// Prefix of `buf` already consumed as complete lines. Lines advance
    /// this offset instead of shifting the buffer; [`feed`](Self::feed)
    /// compacts once per fragment, so each byte is moved O(1) times no
    /// matter how many lines one fragment contains.
    start: usize,
    /// Prefix of `buf` already scanned for a newline (avoids rescans;
    /// always ≥ `start`).
    scanned: usize,
    batch: Option<PartialBatch>,
    /// Set after a corrupt frame: discard everything from then on.
    dead: bool,
    eof: bool,
    max_line: usize,
}

impl Default for Decoder {
    fn default() -> Self {
        Decoder::new()
    }
}

impl Decoder {
    /// A decoder with the standard [`MAX_LINE_BYTES`] line limit.
    pub fn new() -> Decoder {
        Decoder::with_max_line(MAX_LINE_BYTES)
    }

    /// A decoder with a custom line limit (tests).
    pub fn with_max_line(max_line: usize) -> Decoder {
        Decoder {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            batch: None,
            dead: false,
            eof: false,
            max_line,
        }
    }

    /// Appends a fragment of the byte stream. Input after a corrupt frame
    /// is dropped, not buffered.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.dead {
            return;
        }
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Signals end of input: the next [`next_frame`](Self::next_frame)
    /// calls flush a trailing unterminated line and report a truncated
    /// batch body.
    pub fn finish(&mut self) {
        self.eof = true;
    }

    /// Unconsumed bytes currently buffered (tests assert the memory bound
    /// with this).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether a corrupt frame has been emitted (the connection should be
    /// closed once its `ERR` is flushed).
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Yields the next complete frame, or `None` until more input (or
    /// [`finish`](Self::finish)) arrives. (Named to avoid colliding with
    /// `Iterator::next` — a decoder is fed between drains, which iterator
    /// adapters would hide.)
    pub fn next_frame(&mut self) -> Option<Frame> {
        loop {
            if self.dead {
                return None;
            }
            match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                Some(i) => {
                    let end = self.scanned + i;
                    // The limit applies to terminated lines too, or the
                    // verdict on an oversized line would depend on whether
                    // its newline arrived in the same fragment.
                    if end - self.start > self.max_line {
                        self.poison();
                        return Some(Frame::Corrupt(ProtocolError::LineTooLong {
                            limit: self.max_line,
                        }));
                    }
                    let line = trim_line(&self.buf[self.start..end]);
                    self.start = end + 1;
                    self.scanned = self.start;
                    if let Some(frame) = self.consume_line(&line) {
                        if matches!(frame, Frame::Corrupt(_)) {
                            self.poison();
                        }
                        return Some(frame);
                    }
                }
                None => {
                    self.scanned = self.buf.len();
                    if self.buffered() > self.max_line {
                        self.poison();
                        return Some(Frame::Corrupt(ProtocolError::LineTooLong {
                            limit: self.max_line,
                        }));
                    }
                    if self.eof {
                        return self.flush_eof();
                    }
                    return None;
                }
            }
        }
    }

    fn poison(&mut self) {
        self.dead = true;
        self.batch = None;
        self.buf = Vec::new();
        self.start = 0;
        self.scanned = 0;
    }

    /// EOF reached with no newline pending: parse the trailing line (if
    /// any), then fail a batch left incomplete.
    fn flush_eof(&mut self) -> Option<Frame> {
        if self.buffered() > 0 {
            let line = trim_line(&std::mem::take(&mut self.buf)[self.start..]);
            self.start = 0;
            self.scanned = 0;
            if let Some(frame) = self.consume_line(&line) {
                if matches!(frame, Frame::Corrupt(_)) {
                    self.poison();
                }
                return Some(frame);
            }
        }
        if self.batch.is_some() {
            self.poison();
            return Some(Frame::Corrupt(ProtocolError::BadArity {
                command: "BATCH",
                expected: "k pair lines",
            }));
        }
        None
    }

    /// Routes one complete line through the request / batch-body state
    /// machine. Returns a frame when the line completes one.
    fn consume_line(&mut self, line: &str) -> Option<Frame> {
        if let Some(batch) = &mut self.batch {
            match parse_pair(line) {
                Ok(pair) => {
                    if batch.error.is_none() {
                        batch.pairs.push(pair);
                    }
                }
                Err(e) => {
                    if batch.error.is_none() {
                        batch.error = Some(e);
                    }
                }
            }
            batch.seen += 1;
            if batch.seen == batch.expected {
                let done = self.batch.take().expect("batch state present");
                return Some(match done.error {
                    Some(e) => Frame::Invalid(e),
                    None => Frame::Batch(done.pairs),
                });
            }
            return None;
        }
        match parse_request(line) {
            Ok(Request::Batch(0)) => Some(Frame::Batch(Vec::new())),
            Ok(Request::Batch(k)) => {
                // Cap the preallocation: `k` is client-controlled.
                let cap = k.min(4096);
                self.batch = Some(PartialBatch {
                    expected: k,
                    seen: 0,
                    pairs: Vec::with_capacity(cap),
                    error: None,
                });
                None
            }
            Ok(Request::Query(s, t)) => Some(Frame::Query(s, t)),
            Ok(Request::Stats) => Some(Frame::Stats),
            Ok(Request::Metrics) => Some(Frame::Metrics),
            Ok(Request::Ping) => Some(Frame::Ping),
            Ok(Request::Epoch) => Some(Frame::Epoch),
            Ok(Request::Reload { graph, index }) => Some(Frame::Reload { graph, index }),
            Ok(Request::Update { add, u, v }) => Some(Frame::Update { add, u, v }),
            Ok(Request::Shutdown) => Some(Frame::Shutdown),
            Err(e) => {
                // A rejected BATCH header (oversized or unparseable k) may
                // have an undelimited body already in flight that cannot be
                // skipped — unrecoverable framing, close after the ERR.
                if line.trim_start().starts_with("BATCH") {
                    Some(Frame::Corrupt(e))
                } else {
                    Some(Frame::Invalid(e))
                }
            }
        }
    }
}

/// Strips trailing `\r` / `\n` and decodes lossily, matching what the old
/// blocking reader did with `read_until` output.
fn trim_line(bytes: &[u8]) -> String {
    let mut end = bytes.len();
    while end > 0 && matches!(bytes[end - 1], b'\n' | b'\r') {
        end -= 1;
    }
    String::from_utf8_lossy(&bytes[..end]).into_owned()
}

fn push_distance(out: &mut String, d: Option<u32>) {
    match d {
        Some(d) => out.push_str(&d.to_string()),
        None => out.push_str("INF"),
    }
}

/// Renders a `QUERY` response: `DIST <d>` / `DIST INF`.
pub fn format_query_response(d: Option<u32>) -> String {
    format_query_response_tagged(d, false)
}

/// Renders a `QUERY` response, `DIST~` (degraded upper bound) when
/// `approx` is set.
pub fn format_query_response_tagged(d: Option<u32>, approx: bool) -> String {
    let mut out = String::from(if approx { "DIST~ " } else { "DIST " });
    push_distance(&mut out, d);
    out
}

/// Renders a `BATCH` response: `DISTS <d1> … <dk>`.
pub fn format_batch_response(distances: &[Option<u32>]) -> String {
    format_batch_response_tagged(distances, false)
}

/// Renders a `BATCH` response, `DISTS~` (degraded upper bounds) when
/// `approx` is set.
pub fn format_batch_response_tagged(distances: &[Option<u32>], approx: bool) -> String {
    let mut out = String::with_capacity(7 + distances.len() * 4);
    out.push_str(if approx { "DISTS~" } else { "DISTS" });
    for &d in distances {
        out.push(' ');
        push_distance(&mut out, d);
    }
    out
}

/// Renders a `METRICS` response around a single-line JSON body.
pub fn format_metrics_response(json: &str) -> String {
    format!("METRICS {json}")
}

/// Renders the `STATS` response: one line of `key=value` pairs.
/// `sizes` describes the index generation currently serving (labelling
/// bytes plus the sparsified-view CSR the query path traverses;
/// `store_bytes`/`plain_index_bytes` describe the packed on-disk format —
/// 0 / the projected plain size when serving from memory). `load_us` is
/// the wall-clock microseconds of the last disk reload.
/// `max_connections`/`idle_timeout_ms` echo the serving configuration.
/// All values are unsigned integers so router aggregation can combine
/// them per key (counters sum; epochs min; gauges and config values keep
/// a max or first value — see `hcl-router`'s aggregation classes).
pub fn format_stats_response(
    metrics: &MetricsSnapshot,
    cache: &CacheStats,
    epoch: u64,
    sizes: &IndexSizes,
    load_us: u64,
    max_connections: u64,
    idle_timeout_ms: u64,
) -> String {
    format!(
        "STATS queries={} batch_requests={} batch_queries={} reactor_passes={} \
         socket_writes={} wake_signals={} executor_jobs={} connections={} \
         active_connections={} rejected_connections={} timed_out_connections={} errors={} \
         shed_requests={} deadline_expired={} \
         epoch={} reloads={} updates_applied={} update_affected_vertices={} \
         update_publish_ns={} update_revalidate_ns={} overlay_rows={} overlay_folds={} \
         revalidations_skipped={} revalidations_dropped={} retag_kept={} \
         search_ns={} searched_queries={} search_edges_scanned={} search_vertices_settled={} \
         index_bytes={} sparse_bytes={} sparse_edges={} \
         sparse_relabelled=1 rank_lane_bytes={} dist_lane_bytes={} store_bytes={} \
         plain_index_bytes={} load_us={} max_connections={} idle_timeout_ms={} cache_hits={} \
         cache_misses={} cache_stale={} cache_evictions={} cache_entries={} cache_capacity={}",
        metrics.queries,
        metrics.batch_requests,
        metrics.batch_queries,
        metrics.reactor_passes,
        metrics.socket_writes,
        metrics.wake_signals,
        metrics.executor_jobs,
        metrics.connections,
        metrics.active_connections,
        metrics.rejected_connections,
        metrics.timed_out_connections,
        metrics.errors,
        metrics.shed_requests,
        metrics.deadline_expired,
        epoch,
        metrics.reloads,
        metrics.updates_applied,
        metrics.update_affected_vertices,
        metrics.update_publish_ns,
        metrics.update_revalidate_ns,
        metrics.overlay_rows,
        metrics.overlay_folds,
        metrics.revalidations_skipped,
        metrics.revalidations_dropped,
        metrics.retag_kept,
        metrics.search_ns,
        metrics.searched_queries,
        metrics.search_edges_scanned,
        metrics.search_vertices_settled,
        sizes.index_bytes,
        sizes.sparse_bytes,
        sizes.sparse_edges,
        sizes.rank_lane_bytes,
        sizes.dist_lane_bytes,
        sizes.store_bytes,
        sizes.plain_index_bytes,
        load_us,
        max_connections,
        idle_timeout_ms,
        cache.hits,
        cache.misses,
        cache.stale,
        cache.evictions,
        cache.entries,
        cache.capacity,
    )
}

/// Renders a successful `RELOAD` response: `RELOADED <epoch>`.
pub fn format_reload_response(epoch: u64) -> String {
    format!("RELOADED {epoch}")
}

/// Renders a successful `UPDATE` response: `UPDATED <epoch> <affected>`
/// (the epoch the patched index was published as, and how many vertices
/// had a landmark distance change — 0 for a no-op edit such as inserting
/// an edge between equidistant vertices).
pub fn format_update_response(epoch: u64, affected: u64) -> String {
    format!("UPDATED {epoch} {affected}")
}

/// Renders an `EPOCH` response: `EPOCH <epoch>`.
pub fn format_epoch_response(epoch: u64) -> String {
    format!("EPOCH {epoch}")
}

/// Renders an error response: `ERR <message>` (newlines squashed so the
/// response stays one line).
pub fn format_error(message: impl std::fmt::Display) -> String {
    format!("ERR {}", message.to_string().replace('\n', " "))
}

/// A response the client-side codec cannot interpret.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResponseError {
    /// The server replied `ERR <message>`.
    Server(String),
    /// The response line doesn't match the expected shape.
    Malformed(String),
}

impl std::fmt::Display for ResponseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResponseError::Server(msg) => write!(f, "server error: {msg}"),
            ResponseError::Malformed(line) => write!(f, "malformed response: {line:?}"),
        }
    }
}

impl std::error::Error for ResponseError {}

fn parse_distance_token(tok: &str) -> Result<Option<u32>, ResponseError> {
    if tok == "INF" {
        return Ok(None);
    }
    tok.parse().map(Some).map_err(|_| ResponseError::Malformed(tok.to_string()))
}

fn split_err(line: &str) -> Result<&str, ResponseError> {
    match line.strip_prefix("ERR ") {
        Some(msg) => Err(ResponseError::Server(msg.to_string())),
        None => Ok(line),
    }
}

/// Client side: interprets a `QUERY` response line, accepting both the
/// exact (`DIST`) and degraded (`DIST~`) forms.
pub fn parse_query_response(line: &str) -> Result<Option<u32>, ResponseError> {
    parse_query_response_tagged(line).map(|(d, _)| d)
}

/// Client side: interprets a `QUERY` response line, surfacing whether the
/// answer was degraded (`DIST~` — an upper bound, not guaranteed exact).
pub fn parse_query_response_tagged(line: &str) -> Result<(Option<u32>, bool), ResponseError> {
    let line = split_err(line)?;
    let (rest, approx) = if let Some(rest) = line.strip_prefix("DIST~ ") {
        (rest, true)
    } else if let Some(rest) = line.strip_prefix("DIST ") {
        (rest, false)
    } else {
        return Err(ResponseError::Malformed(line.to_string()));
    };
    Ok((parse_distance_token(rest.trim())?, approx))
}

fn parse_tagged_number(line: &str, prefix: &str) -> Result<u64, ResponseError> {
    let line = split_err(line)?;
    let rest =
        line.strip_prefix(prefix).ok_or_else(|| ResponseError::Malformed(line.to_string()))?;
    rest.trim().parse().map_err(|_| ResponseError::Malformed(line.to_string()))
}

/// Client side: interprets a `RELOAD` response line, returning the new
/// epoch.
pub fn parse_reload_response(line: &str) -> Result<u64, ResponseError> {
    parse_tagged_number(line, "RELOADED ")
}

/// Client side: interprets an `UPDATE` response line, returning
/// `(epoch, affected_vertices)`.
pub fn parse_update_response(line: &str) -> Result<(u64, u64), ResponseError> {
    let line = split_err(line)?;
    let rest =
        line.strip_prefix("UPDATED ").ok_or_else(|| ResponseError::Malformed(line.to_string()))?;
    let mut tokens = rest.split_ascii_whitespace();
    match (tokens.next(), tokens.next(), tokens.next()) {
        (Some(epoch), Some(affected), None) => {
            let parse = |tok: &str| {
                tok.parse::<u64>().map_err(|_| ResponseError::Malformed(line.to_string()))
            };
            Ok((parse(epoch)?, parse(affected)?))
        }
        _ => Err(ResponseError::Malformed(line.to_string())),
    }
}

/// Client side: interprets an `EPOCH` response line.
pub fn parse_epoch_response(line: &str) -> Result<u64, ResponseError> {
    parse_tagged_number(line, "EPOCH ")
}

/// Client side: interprets a `BATCH` response line, checking the count.
/// Accepts both the exact (`DISTS`) and degraded (`DISTS~`) forms.
pub fn parse_batch_response(
    line: &str,
    expected: usize,
) -> Result<Vec<Option<u32>>, ResponseError> {
    parse_batch_response_tagged(line, expected).map(|(d, _)| d)
}

/// Client side: interprets a `BATCH` response line, surfacing whether the
/// answers were degraded (`DISTS~` — upper bounds, not guaranteed exact).
pub fn parse_batch_response_tagged(
    line: &str,
    expected: usize,
) -> Result<(Vec<Option<u32>>, bool), ResponseError> {
    let line = split_err(line)?;
    let (rest, approx) = if let Some(rest) = line.strip_prefix("DISTS~") {
        (rest, true)
    } else if let Some(rest) = line.strip_prefix("DISTS") {
        (rest, false)
    } else {
        return Err(ResponseError::Malformed(line.to_string()));
    };
    let distances: Vec<Option<u32>> =
        rest.split_ascii_whitespace().map(parse_distance_token).collect::<Result<_, _>>()?;
    if distances.len() != expected {
        return Err(ResponseError::Malformed(format!(
            "expected {expected} distances, got {}",
            distances.len()
        )));
    }
    Ok((distances, approx))
}

/// Client side: interprets a `METRICS` response line, returning the raw
/// JSON body.
pub fn parse_metrics_response(line: &str) -> Result<String, ResponseError> {
    let line = split_err(line)?;
    line.strip_prefix("METRICS ")
        .map(str::to_string)
        .ok_or_else(|| ResponseError::Malformed(line.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_commands() {
        assert_eq!(parse_request("QUERY 3 9"), Ok(Request::Query(3, 9)));
        assert_eq!(parse_request("  QUERY  3   9  "), Ok(Request::Query(3, 9)));
        assert_eq!(parse_request("BATCH 128"), Ok(Request::Batch(128)));
        assert_eq!(parse_request("STATS"), Ok(Request::Stats));
        assert_eq!(parse_request("METRICS"), Ok(Request::Metrics));
        assert_eq!(parse_request("PING"), Ok(Request::Ping));
        assert_eq!(parse_request("EPOCH"), Ok(Request::Epoch));
        assert_eq!(
            parse_request("RELOAD /tmp/g.hclg"),
            Ok(Request::Reload { graph: "/tmp/g.hclg".to_string(), index: None })
        );
        assert_eq!(
            parse_request("RELOAD g.hclg g.hcl"),
            Ok(Request::Reload { graph: "g.hclg".to_string(), index: Some("g.hcl".to_string()) })
        );
        assert_eq!(parse_request("UPDATE ADD 3 9"), Ok(Request::Update { add: true, u: 3, v: 9 }));
        assert_eq!(parse_request("UPDATE DEL 9 3"), Ok(Request::Update { add: false, u: 9, v: 3 }));
        assert_eq!(parse_request("SHUTDOWN"), Ok(Request::Shutdown));
    }

    #[test]
    fn rejects_malformed_requests() {
        assert_eq!(parse_request(""), Err(ProtocolError::Empty));
        assert_eq!(parse_request("   "), Err(ProtocolError::Empty));
        assert!(matches!(parse_request("NOPE 1 2"), Err(ProtocolError::UnknownCommand(_))));
        assert!(matches!(parse_request("QUERY 1"), Err(ProtocolError::BadArity { .. })));
        assert!(matches!(parse_request("QUERY 1 2 3"), Err(ProtocolError::BadArity { .. })));
        assert!(matches!(parse_request("QUERY a 2"), Err(ProtocolError::BadNumber(_))));
        assert!(matches!(parse_request("QUERY -1 2"), Err(ProtocolError::BadNumber(_))));
        assert!(matches!(parse_request("BATCH"), Err(ProtocolError::BadArity { .. })));
        assert!(matches!(parse_request("STATS now"), Err(ProtocolError::BadArity { .. })));
        assert!(matches!(parse_request("METRICS all"), Err(ProtocolError::BadArity { .. })));
        assert!(matches!(parse_request("EPOCH 3"), Err(ProtocolError::BadArity { .. })));
        assert!(matches!(parse_request("RELOAD"), Err(ProtocolError::BadArity { .. })));
        assert!(matches!(parse_request("RELOAD a b c"), Err(ProtocolError::BadArity { .. })));
        assert!(matches!(parse_request("UPDATE"), Err(ProtocolError::BadArity { .. })));
        assert!(matches!(parse_request("UPDATE ADD 1"), Err(ProtocolError::BadArity { .. })));
        assert!(matches!(parse_request("UPDATE ADD 1 2 3"), Err(ProtocolError::BadArity { .. })));
        assert!(matches!(parse_request("UPDATE SET 1 2"), Err(ProtocolError::BadArity { .. })));
        assert!(matches!(parse_request("UPDATE ADD x 2"), Err(ProtocolError::BadNumber(_))));
        assert_eq!(
            parse_request(&format!("BATCH {}", MAX_BATCH + 1)),
            Err(ProtocolError::BatchTooLarge { requested: MAX_BATCH + 1 })
        );
    }

    #[test]
    fn pair_lines() {
        assert_eq!(parse_pair("4 7"), Ok((4, 7)));
        assert_eq!(parse_pair(""), Err(ProtocolError::Empty));
        assert!(matches!(parse_pair("4"), Err(ProtocolError::BadArity { .. })));
        assert!(matches!(parse_pair("4 7 9"), Err(ProtocolError::BadArity { .. })));
        assert!(matches!(parse_pair("4 x"), Err(ProtocolError::BadNumber(_))));
    }

    #[test]
    fn response_round_trips() {
        assert_eq!(parse_query_response(&format_query_response(Some(12))), Ok(Some(12)));
        assert_eq!(parse_query_response(&format_query_response(None)), Ok(None));
        let batch = vec![Some(0), None, Some(7)];
        assert_eq!(parse_batch_response(&format_batch_response(&batch), 3), Ok(batch));
        assert_eq!(parse_batch_response(&format_batch_response(&[]), 0), Ok(vec![]));
        assert_eq!(parse_reload_response(&format_reload_response(3)), Ok(3));
        assert_eq!(parse_epoch_response(&format_epoch_response(0)), Ok(0));
        assert_eq!(parse_update_response(&format_update_response(5, 137)), Ok((5, 137)));
        assert!(parse_update_response("UPDATED 5").is_err());
        assert!(parse_update_response("UPDATED 5 x").is_err());
        assert!(parse_update_response(&format_reload_response(5)).is_err());
        assert!(matches!(
            parse_update_response("ERR edge 1-2 already present"),
            Err(ResponseError::Server(_))
        ));
        assert!(parse_reload_response("RELOADED x").is_err());
        assert!(parse_epoch_response(&format_reload_response(1)).is_err());
        assert_eq!(
            parse_metrics_response(&format_metrics_response("{\"role\":\"server\"}")),
            Ok("{\"role\":\"server\"}".to_string())
        );
        assert!(parse_metrics_response("PONG").is_err());
    }

    #[test]
    fn degraded_responses_round_trip_and_stay_client_compatible() {
        let line = format_query_response_tagged(Some(9), true);
        assert_eq!(line, "DIST~ 9");
        assert_eq!(parse_query_response_tagged(&line), Ok((Some(9), true)));
        // Plain parsers accept the degraded form transparently.
        assert_eq!(parse_query_response(&line), Ok(Some(9)));
        assert_eq!(
            parse_query_response_tagged(&format_query_response_tagged(None, false)),
            Ok((None, false))
        );

        let batch = vec![Some(0), None, Some(7)];
        let line = format_batch_response_tagged(&batch, true);
        assert_eq!(line, "DISTS~ 0 INF 7");
        assert_eq!(parse_batch_response_tagged(&line, 3), Ok((batch.clone(), true)));
        assert_eq!(parse_batch_response(&line, 3), Ok(batch.clone()));
        assert_eq!(
            parse_batch_response_tagged(&format_batch_response(&batch), 3),
            Ok((batch, false))
        );
        // `DIST~` never downgrades an ERR.
        assert!(parse_query_response_tagged("ERR shard 0 unavailable: x").is_err());
    }

    #[test]
    fn error_responses_surface_server_side_messages() {
        let line = format_error("vertex 9 out of range");
        assert_eq!(
            parse_query_response(&line),
            Err(ResponseError::Server("vertex 9 out of range".to_string()))
        );
        assert!(parse_batch_response(&line, 1).is_err());
        assert!(parse_query_response("GARBAGE").is_err());
        assert_eq!(
            parse_batch_response("DISTS 1 2", 3),
            Err(ResponseError::Malformed("expected 3 distances, got 2".to_string()))
        );
    }

    /// Feeds `input` in one piece and drains every frame (plus EOF).
    fn decode_all(input: &[u8]) -> Vec<Frame> {
        let mut d = Decoder::new();
        d.feed(input);
        let mut frames = Vec::new();
        while let Some(f) = d.next_frame() {
            frames.push(f);
        }
        d.finish();
        while let Some(f) = d.next_frame() {
            frames.push(f);
        }
        frames
    }

    #[test]
    fn decoder_yields_frames_across_arbitrary_fragment_boundaries() {
        let input = b"PING\nQUERY 3 9\nBATCH 2\n1 2\n3 4\nSTATS\n";
        let expect =
            vec![Frame::Ping, Frame::Query(3, 9), Frame::Batch(vec![(1, 2), (3, 4)]), Frame::Stats];
        assert_eq!(decode_all(input), expect);

        // Same stream, one byte at a time.
        let mut d = Decoder::new();
        let mut frames = Vec::new();
        for &b in input.iter() {
            d.feed(&[b]);
            while let Some(f) = d.next_frame() {
                frames.push(f);
            }
        }
        assert_eq!(frames, expect);
    }

    #[test]
    fn decoder_batch_zero_and_crlf() {
        assert_eq!(decode_all(b"BATCH 0\r\nPING\r\n"), vec![Frame::Batch(vec![]), Frame::Ping]);
    }

    #[test]
    fn decoder_bad_batch_body_consumes_whole_body_then_recovers() {
        let frames = decode_all(b"BATCH 3\n1 2\nGARBAGE\n3 4\nPING\n");
        assert_eq!(frames.len(), 2);
        assert!(matches!(frames[0], Frame::Invalid(ProtocolError::BadArity { .. })), "{frames:?}");
        assert_eq!(frames[1], Frame::Ping);
    }

    #[test]
    fn decoder_rejected_batch_header_is_corrupt_and_poisons() {
        let mut d = Decoder::new();
        d.feed(format!("BATCH {}\n0 1\nPING\n", MAX_BATCH + 1).as_bytes());
        assert!(matches!(
            d.next_frame(),
            Some(Frame::Corrupt(ProtocolError::BatchTooLarge { .. }))
        ));
        assert!(d.is_dead());
        assert_eq!(d.next_frame(), None, "everything after a corrupt frame is discarded");
        d.feed(b"PING\n");
        assert_eq!(d.buffered(), 0, "dead decoder must not buffer");
        assert_eq!(d.next_frame(), None);
    }

    #[test]
    fn decoder_truncated_batch_body_fails_cleanly_at_eof() {
        for body_lines in 0..3 {
            let mut input = b"BATCH 3\n".to_vec();
            for i in 0..body_lines {
                input.extend_from_slice(format!("{i} {i}\n").as_bytes());
            }
            let frames = decode_all(&input);
            assert_eq!(frames.len(), 1, "body_lines={body_lines}: {frames:?}");
            assert!(matches!(frames[0], Frame::Corrupt(ProtocolError::BadArity { .. })));
        }
    }

    #[test]
    fn decoder_trailing_unterminated_line_still_parses() {
        assert_eq!(decode_all(b"PING\nQUERY 1 2"), vec![Frame::Ping, Frame::Query(1, 2)]);
        // …including one that completes a batch body.
        assert_eq!(decode_all(b"BATCH 2\n1 2\n3 4"), vec![Frame::Batch(vec![(1, 2), (3, 4)])]);
    }

    #[test]
    fn decoder_rejects_oversized_lines_even_when_terminated_in_one_feed() {
        // The verdict must not depend on TCP fragmentation: a too-long
        // line whose newline arrives in the same fragment is equally
        // corrupt.
        let mut d = Decoder::with_max_line(32);
        let mut input = b"PING\n".to_vec();
        input.extend_from_slice(&[b'x'; 100]);
        input.push(b'\n');
        input.extend_from_slice(b"PING\n");
        d.feed(&input);
        assert_eq!(d.next_frame(), Some(Frame::Ping));
        assert_eq!(d.next_frame(), Some(Frame::Corrupt(ProtocolError::LineTooLong { limit: 32 })));
        assert!(d.is_dead());
        assert_eq!(d.next_frame(), None, "poisoned: the trailing PING is discarded");
    }

    #[test]
    fn decoder_oversized_line_bounds_memory_and_closes() {
        let mut d = Decoder::with_max_line(64);
        let mut corrupt = 0;
        for _ in 0..1000 {
            d.feed(&[b'x'; 16]);
            while let Some(f) = d.next_frame() {
                assert!(matches!(f, Frame::Corrupt(ProtocolError::LineTooLong { limit: 64 })));
                corrupt += 1;
            }
            assert!(d.buffered() <= 64 + 16, "buffer grew past the limit: {}", d.buffered());
        }
        assert_eq!(corrupt, 1, "exactly one corrupt frame for the whole flood");
    }

    #[test]
    fn stats_line_is_parseable_key_values() {
        let sizes = IndexSizes {
            index_bytes: 1024,
            sparse_bytes: 2048,
            sparse_edges: 96,
            store_bytes: 4096,
            plain_index_bytes: 1500,
            rank_lane_bytes: 192,
            dist_lane_bytes: 192,
        };
        let line = format_stats_response(
            &MetricsSnapshot::default(),
            &CacheStats::default(),
            4,
            &sizes,
            777,
            1024,
            600_000,
        );
        let body = line.strip_prefix("STATS ").unwrap();
        for kv in body.split_ascii_whitespace() {
            let (k, v) = kv.split_once('=').expect("key=value");
            assert!(!k.is_empty());
            let _: u64 = v.parse().expect("numeric value");
        }
        assert!(body.contains("epoch=4"));
        assert!(body.contains("reloads=0"));
        assert!(body.contains("updates_applied=0"));
        assert!(body.contains("update_affected_vertices=0"));
        for key in [
            "update_publish_ns",
            "update_revalidate_ns",
            "overlay_rows",
            "overlay_folds",
            "revalidations_skipped",
            "revalidations_dropped",
            "retag_kept",
        ] {
            assert!(body.contains(&format!(" {key}=0 ")), "{key} missing from {body}");
        }
        assert!(body.contains("search_ns=0"));
        assert!(body.contains("search_edges_scanned=0"));
        assert!(body.contains("search_vertices_settled=0"));
        assert!(body.contains("index_bytes=1024"));
        assert!(body.contains("sparse_bytes=2048"));
        assert!(body.contains("sparse_edges=96"));
        assert!(body.contains("sparse_relabelled=1"));
        assert!(body.contains("rank_lane_bytes=192"));
        assert!(body.contains("dist_lane_bytes=192"));
        assert!(body.contains("store_bytes=4096"));
        assert!(body.contains("plain_index_bytes=1500"));
        assert!(body.contains("load_us=777"));
        assert!(body.contains("max_connections=1024"));
        assert!(body.contains("idle_timeout_ms=600000"));
        assert!(body.contains("cache_stale=0"));
        assert!(body.contains("rejected_connections=0"));
        assert!(body.contains("timed_out_connections=0"));
        assert!(body.contains("shed_requests=0"));
        assert!(body.contains("deadline_expired=0"));
    }
}
