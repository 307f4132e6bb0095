//! The correctness oracle inside the run: BFS truth for the oracle grid,
//! computed after the measured phases (and after `VmHWM` is read), and
//! the check of every grid reply the generator collected against it.

use crate::loadgen::GridReply;
use crate::workload::Grid;
use hcl_graph::{CsrGraph, VertexId, INF};

/// BFS distances from every grid source to every grid target, plus — when
/// edits ran beside the queries — from sources and targets to each edit
/// endpoint, which is all it takes to know the exact distance in
/// `base + one edge`.
pub struct Truth {
    targets: usize,
    /// `base[pair]`, `INF` when unreachable.
    base: Vec<u32>,
    /// `[source][2 * edge + side]` and `[target][2 * edge + side]`.
    source_to_endpoint: Vec<Vec<u32>>,
    target_to_endpoint: Vec<Vec<u32>>,
}

impl Truth {
    /// One BFS per grid source; one more per grid target when `live_edges`
    /// is not empty.
    pub fn compute(graph: &CsrGraph, grid: &Grid, live_edges: &[(VertexId, VertexId)]) -> Truth {
        let endpoints: Vec<VertexId> = live_edges.iter().flat_map(|&(u, v)| [u, v]).collect();
        let mut dist = Vec::new();
        let mut base = Vec::with_capacity(grid.len());
        let mut source_to_endpoint = Vec::new();
        for &s in &grid.sources {
            hcl_graph::traversal::bfs_distances_into(graph, s, &mut dist);
            base.extend(grid.targets.iter().map(|&t| dist[t as usize]));
            source_to_endpoint.push(endpoints.iter().map(|&e| dist[e as usize]).collect());
        }
        let mut target_to_endpoint = Vec::new();
        if !endpoints.is_empty() {
            for &t in &grid.targets {
                hcl_graph::traversal::bfs_distances_into(graph, t, &mut dist);
                target_to_endpoint.push(endpoints.iter().map(|&e| dist[e as usize]).collect());
            }
        }
        Truth { targets: grid.targets.len(), base, source_to_endpoint, target_to_endpoint }
    }

    pub fn base(&self, pair: usize) -> Option<u32> {
        (self.base[pair] != INF).then_some(self.base[pair])
    }

    /// The exact distance of grid pair `pair` in the base graph plus live
    /// edge number `edge`.
    fn with_edge(&self, pair: usize, edge: usize) -> Option<u32> {
        let (s, t) = (pair / self.targets, pair % self.targets);
        let via = |a: u32, b: u32| if a == INF || b == INF { INF } else { a + 1 + b };
        let (su, sv) =
            (self.source_to_endpoint[s][2 * edge], self.source_to_endpoint[s][2 * edge + 1]);
        let (tu, tv) =
            (self.target_to_endpoint[t][2 * edge], self.target_to_endpoint[t][2 * edge + 1]);
        let d = self.base[pair].min(via(su, tv)).min(via(sv, tu));
        (d != INF).then_some(d)
    }

    /// Whether `reply` is a right answer: the base distance, or the
    /// distance with any one of the edges that may have been live while
    /// the request was in flight. `edges` is the number of distinct edges
    /// the edit schedule cycles through.
    pub fn accepts(&self, reply: &GridReply, edges: usize) -> bool {
        let pair = reply.pair as usize;
        reply.reply == self.base(pair)
            || (reply.edits.0..reply.edits.1)
                .any(|k| reply.reply == self.with_edge(pair, k as usize % edges))
    }
}
