//! Highway cover distance labelling — the primary contribution of
//! *"A Highly Scalable Labelling Approach for Exact Distance Queries in
//! Complex Networks"* (Farhan, Wang, Lin, McKay — EDBT 2019).
//!
//! # Overview
//!
//! Given an undirected graph `G` and a small set of high-degree *landmarks*
//! `R`, the method precomputes:
//!
//! * a [`highway::Highway`]: the exact pairwise distances between
//!   landmarks, and
//! * a [`labels::HighwayLabels`] store: for each non-landmark
//!   vertex `v`, the entry `(r, d(r, v))` for exactly those landmarks `r`
//!   with no other landmark on any shortest `r–v` path (Lemma 3.7). This
//!   labelling is *minimal* among all labellings satisfying the
//!   highway-cover property (Theorem 3.12) and independent of landmark
//!   order (Lemma 3.11).
//!
//! A query `d(s, t)` first computes the upper bound
//! `d⊤ = min δL(ri, s) + δH(ri, rj) + δL(rj, t)` (Equation 4, with the
//! Lemma 5.1 optimisation), which is exact whenever some shortest path
//! crosses a landmark, then closes the gap with a distance-bounded
//! bidirectional BFS on the sparsified graph `G[V∖R]` (Algorithm 2). The
//! oracle front-ends precompute `G[V∖R]` once as a [`sparse::SparseView`],
//! so the search traverses a plain CSR with no per-edge landmark filtering.
//!
//! # Quick start
//!
//! ```
//! use hcl_graph::generate;
//! use hcl_core::landmarks::LandmarkStrategy;
//! use hcl_core::{HighwayCoverLabelling, HlOracle};
//! use hcl_graph::DistanceOracle;
//!
//! let g = generate::barabasi_albert(1_000, 4, 7);
//! let landmarks = LandmarkStrategy::TopDegree(16).select(&g);
//! let (labelling, stats) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
//! println!("built {} label entries in {:?}", labelling.labels().total_entries(), stats.duration);
//!
//! let mut oracle = HlOracle::new(&g, labelling);
//! let d = oracle.distance(3, 977);
//! assert!(d.is_some());
//! ```

pub mod build;
pub mod epoch;
pub mod fault;
pub mod fixture;
pub mod highway;
pub mod io;
pub mod labels;
pub mod landmarks;
pub mod parallel;
pub mod partition;
pub mod query;
pub mod shared;
pub mod sparse;
pub mod storage;
#[cfg(feature = "testing")]
pub mod testing;
pub mod update;
pub mod weighted;

pub use build::{BuildStats, HighwayCoverLabelling};
pub use epoch::{EpochCell, OracleEpoch};
pub use highway::Highway;
pub use labels::{HighwayLabels, LabelEntry};
pub use partition::{PartitionMap, PartitionStrategy, ShardRoute};
pub use query::{HlOracle, QueryContext};
pub use shared::{ContextPool, PooledContext, SharedOracle};
pub use sparse::SparseView;
pub use storage::{LabelStorage, MemIndex, QueryPhases, SparseNeighbors};
pub use update::{EdgeEdit, LabelPatch, PairFilter, UpdateError, UpdateResult};
pub use weighted::{WeightedHighwayCoverLabelling, WeightedHlOracle};

/// Errors produced while constructing a highway cover labelling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A landmark id is not a vertex of the graph.
    LandmarkOutOfRange { landmark: u32, n: usize },
    /// The same vertex appears twice in the landmark list.
    DuplicateLandmark { landmark: u32 },
    /// More than `u16::MAX` landmarks were requested (the label encoding
    /// stores landmark ranks in 16 bits; the paper never uses more than 50).
    TooManyLandmarks { requested: usize },
    /// A label distance exceeded `u16::MAX` (cannot happen on the
    /// small-diameter complex networks the method targets, but possible on
    /// adversarial inputs such as million-vertex paths).
    DistanceOverflow { landmark: u32, vertex: u32, distance: u32 },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::LandmarkOutOfRange { landmark, n } => {
                write!(f, "landmark {landmark} out of range for graph with {n} vertices")
            }
            BuildError::DuplicateLandmark { landmark } => {
                write!(f, "duplicate landmark {landmark}")
            }
            BuildError::TooManyLandmarks { requested } => {
                write!(f, "{requested} landmarks requested, at most 65535 supported")
            }
            BuildError::DistanceOverflow { landmark, vertex, distance } => write!(
                f,
                "distance {distance} from landmark {landmark} to vertex {vertex} exceeds the 16-bit label range"
            ),
        }
    }
}

impl std::error::Error for BuildError {}
