//! Index-free online searches: BFS and bidirectional BFS ("Bi-BFS" in
//! Table 2).
//!
//! These answer queries with zero preprocessing and zero index space, at the
//! cost of visiting a large fraction of the graph per query — the paper
//! reports hundreds of milliseconds per Bi-BFS query on its billion-scale
//! networks, which is what the labelling methods exist to beat.

use hcl_graph::oracle::DistanceOracle;
use hcl_graph::{CsrGraph, SearchSpace, VertexId};

/// Unidirectional BFS oracle.
pub struct BfsOracle<'g> {
    graph: &'g CsrGraph,
    space: SearchSpace,
}

impl<'g> BfsOracle<'g> {
    /// Creates a BFS oracle over `graph`.
    pub fn new(graph: &'g CsrGraph) -> Self {
        BfsOracle { graph, space: SearchSpace::new(graph.num_vertices()) }
    }
}

impl DistanceOracle for BfsOracle<'_> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Option<u32> {
        self.space.bfs_distance(self.graph, s, t)
    }

    fn name(&self) -> &'static str {
        "BFS"
    }
}

/// Bidirectional BFS oracle (Pohl \[21\]): expands the smaller frontier
/// until the searches meet.
pub struct BiBfsOracle<'g> {
    graph: &'g CsrGraph,
    space: SearchSpace,
}

impl<'g> BiBfsOracle<'g> {
    /// Creates a Bi-BFS oracle over `graph`.
    pub fn new(graph: &'g CsrGraph) -> Self {
        BiBfsOracle { graph, space: SearchSpace::new(graph.num_vertices()) }
    }
}

impl DistanceOracle for BiBfsOracle<'_> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Option<u32> {
        self.space.bibfs_distance(self.graph, s, t)
    }

    fn name(&self) -> &'static str {
        "Bi-BFS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_graph::{generate, traversal, INF};

    #[test]
    fn all_online_oracles_agree_with_reference() {
        let g = generate::barabasi_albert(120, 3, 17);
        let mut bfs = BfsOracle::new(&g);
        let mut bibfs = BiBfsOracle::new(&g);
        for s in [0u32, 17, 119] {
            let truth = traversal::bfs_distances(&g, s);
            for t in g.vertices() {
                let expect = (truth[t as usize] != INF).then_some(truth[t as usize]);
                assert_eq!(bfs.distance(s, t), expect);
                assert_eq!(bibfs.distance(s, t), expect);
            }
        }
    }

    #[test]
    fn disconnected_pairs_are_none() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut bibfs = BiBfsOracle::new(&g);
        assert_eq!(bibfs.distance(0, 3), None);
        assert_eq!(bibfs.distance(0, 1), Some(1));
    }

    #[test]
    fn names_and_zero_index_size() {
        let g = generate::path(3);
        assert_eq!(BfsOracle::new(&g).name(), "BFS");
        assert_eq!(BiBfsOracle::new(&g).name(), "Bi-BFS");
        assert_eq!(BiBfsOracle::new(&g).index_bytes(), 0);
    }
}
