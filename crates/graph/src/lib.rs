//! Graph substrate for the `hcl` workspace.
//!
//! This crate provides everything the distance-query methods are built on:
//!
//! * [`CsrGraph`] — an immutable, cache-friendly compressed-sparse-row
//!   representation of an undirected, unweighted graph, plus
//!   [`GraphBuilder`] for constructing one from an edge list.
//! * [`WeightedGraph`] — a small weighted counterpart used by baselines that
//!   introduce shortcut edges (IS-Label).
//! * [`traversal`] — breadth-first search, bidirectional BFS, the
//!   *distance-bounded* bidirectional BFS at the heart of the paper's
//!   querying framework (Algorithm 2), and Dijkstra for weighted graphs.
//!   All searches run on reusable, epoch-versioned buffers so repeated
//!   queries allocate nothing.
//! * [`generate`] — deterministic random-graph generators used as synthetic
//!   stand-ins for the paper's twelve real-world networks (Barabási–Albert,
//!   Erdős–Rényi, Watts–Strogatz, a web-copying model) plus structured
//!   graphs for tests (paths, grids, stars, trees).
//! * [`connectivity`] — connected components and largest-connected-component
//!   extraction (the paper assumes connected graphs).
//! * [`io`] — plain-text edge-list parsing and a compact binary format.
//! * [`order`] — degree orderings (landmark selection and PLL vertex orders).
//! * [`overlay`] — the replaced-row map behind cheaply editable, structure-
//!   sharing values ([`CsrGraph`] here, the label store in `hcl-core`).
//! * [`oracle`] — the [`oracle::DistanceOracle`] trait that
//!   every method (HL, PLL, FD, IS-L, online searches) implements.

pub mod connectivity;
pub mod csr;
pub mod generate;
pub mod io;
pub mod oracle;
pub mod order;
pub mod overlay;
pub mod paths;
pub mod stats;
pub mod subgraph;
pub mod traversal;
pub mod wgraph;

pub use csr::{Adjacency, CsrGraph, CsrRows, GraphBuilder};
pub use oracle::DistanceOracle;
pub use traversal::{SearchEffort, SearchSpace};
pub use wgraph::{WeightedGraph, WeightedGraphBuilder};

/// Vertex identifier. Graphs are limited to `u32::MAX - 1` vertices, which
/// keeps adjacency arrays compact (the paper's label encodings use 32-bit
/// vertex ids for the same reason).
pub type VertexId = u32;

/// Unreachable / "infinite" distance sentinel used in internal distance
/// arrays. Public query APIs return `Option<u32>` instead.
pub const INF: u32 = u32::MAX;

/// Errors produced by graph construction and I/O.
#[derive(Debug)]
pub enum GraphError {
    /// Vertex id out of range for the declared vertex count.
    VertexOutOfRange { vertex: VertexId, n: usize },
    /// Parse error in a text edge list.
    Parse { line: usize, message: String },
    /// Malformed binary file (bad magic, truncated, wrong version).
    Format(String),
    /// Underlying I/O error.
    Io(std::io::Error),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for graph with {n} vertices")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::Format(msg) => write!(f, "malformed graph file: {msg}"),
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}
