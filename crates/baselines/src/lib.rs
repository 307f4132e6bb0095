//! Baseline exact-distance methods the EDBT 2019 paper compares against.
//!
//! All baselines are re-implemented from their original papers (the authors'
//! C++ binaries are not redistributable) and verified against brute-force
//! BFS in the test suites:
//!
//! * [`online`] — BFS and bidirectional BFS \[21\]
//!   ("Bi-BFS"): index-free searches, the query-time floor of Figure 1(a).
//! * [`pll`] — *Pruned Landmark Labelling* (Akiba, Iwata, Yoshida —
//!   SIGMOD 2013) \[3\]: a full 2-hop cover built by pruned BFSs from every
//!   vertex in degree order, plus the bit-parallel labels of its §4.2.
//! * [`fd`] — the static query path of the *fully dynamic* hybrid method
//!   (Hayashi, Akiba, Kawarabayashi — CIKM 2016) \[15\]: complete
//!   shortest-path trees from ~20 landmarks (optionally bit-parallel) for
//!   upper bounds + bounded bidirectional BFS on `G∖R`.
//! * [`isl`] — *IS-Label* (Fu, Wu, Cheng, Wong — VLDB 2013) \[12\]: an
//!   independent-set hierarchy with distance-preserving shortcut edges;
//!   queries run upward Dijkstras from both endpoints and meet across the
//!   remaining core graph.
//! * [`bitparallel`] — the shared bit-parallel BFS (§5.1 of the EDBT paper)
//!   used by both PLL and FD: one BFS computes, for a root and up to 64 of
//!   its neighbours, every vertex's distance plus two 64-bit masks encoding
//!   which neighbours sit one step closer / at the same distance.

pub mod bitparallel;
pub mod fd;
pub mod isl;
pub mod online;
pub mod pll;

pub use fd::{FdConfig, FdIndex, FdOracle};
pub use isl::{IslConfig, IslIndex, IslOracle};
pub use online::{BfsOracle, BiBfsOracle};
pub use pll::{PllConfig, PllIndex};

/// Errors produced while constructing baseline indexes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// A requested root/landmark vertex is out of range.
    VertexOutOfRange { vertex: u32, n: usize },
    /// The same vertex appears twice in a landmark list.
    DuplicateVertex { vertex: u32 },
    /// A distance exceeded the index's 16-bit storage range.
    DistanceOverflow { from: u32, to: u32, distance: u32 },
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for graph with {n} vertices")
            }
            BaselineError::DuplicateVertex { vertex } => write!(f, "duplicate vertex {vertex}"),
            BaselineError::DistanceOverflow { from, to, distance } => {
                write!(f, "distance {distance} from {from} to {to} exceeds 16-bit storage")
            }
        }
    }
}

impl std::error::Error for BaselineError {}
