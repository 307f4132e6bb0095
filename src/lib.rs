//! # hcl — Highway Cover Labelling for exact distance queries
//!
//! A Rust implementation of *"A Highly Scalable Labelling Approach for Exact
//! Distance Queries in Complex Networks"* (Farhan, Wang, Lin, McKay —
//! EDBT 2019), together with every substrate and baseline the paper's
//! evaluation depends on.
//!
//! This crate is a facade: it re-exports the workspace members so
//! applications can depend on a single crate.
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`graph`] | CSR graphs, generators, traversal, connectivity, I/O |
//! | [`core`] | the highway cover labelling (HL / HL-P) and query framework, plus the thread-safe [`SharedOracle`](core::SharedOracle) |
//! | [`baselines`] | PLL (bit-parallel), FD, IS-Label, online searches |
//! | [`workloads`] | the 12 synthetic dataset stand-ins and query workloads |
//! | [`server`] | concurrent query serving: shared oracle pool, sharded LRU cache, order-preserving batch executor, TCP line protocol + client |
//!
//! ## Example
//!
//! ```
//! use hcl::prelude::*;
//!
//! // A scale-free network, scaled down for the doc test.
//! let g = hcl::graph::generate::barabasi_albert(5_000, 8, 42);
//!
//! // Pick 20 top-degree landmarks (the paper's default) and build the
//! // labelling in parallel.
//! let landmarks = LandmarkStrategy::TopDegree(20).select(&g);
//! let (labelling, stats) =
//!     HighwayCoverLabelling::build_parallel(&g, &landmarks, 0).unwrap();
//! assert!(stats.labels_added > 0);
//!
//! // Query exact distances.
//! let mut oracle = HlOracle::new(&g, labelling);
//! assert!(oracle.distance(17, 4_321).unwrap() <= 10);
//! ```

pub use hcl_baselines as baselines;
pub use hcl_core as core;
pub use hcl_graph as graph;
pub use hcl_server as server;
pub use hcl_workloads as workloads;

/// The types most applications need.
pub mod prelude {
    pub use hcl_baselines::{
        BfsOracle, BiBfsOracle, FdConfig, FdIndex, FdOracle, IslConfig, IslIndex, IslOracle,
        PllConfig, PllIndex,
    };
    pub use hcl_core::landmarks::LandmarkStrategy;
    pub use hcl_core::{
        BuildStats, Highway, HighwayCoverLabelling, HighwayLabels, HlOracle, SharedOracle,
    };
    pub use hcl_graph::{CsrGraph, DistanceOracle, GraphBuilder, SearchSpace, VertexId};
    pub use hcl_server::{BatchExecutor, QueryService};
}
