//! Vertex orderings.
//!
//! Both the paper's method and its baselines rank vertices by degree: HL and
//! FD take the top-`k` highest-degree vertices as landmarks (§6.3: "we chose
//! top 20 vertices as landmarks after sorting based on decreasing order of
//! their degrees"), and PLL processes *all* vertices in that order.

use crate::csr::CsrGraph;
use crate::VertexId;

/// All vertices sorted by decreasing degree, ties broken by increasing id
/// (deterministic, matching the paper's setup). A counting sort: `O(n)`
/// plus the maximum degree.
pub fn degree_descending(g: &CsrGraph) -> Vec<VertexId> {
    let rows = g.rows();
    let degrees: Vec<u32> = g.vertices().map(|v| rows.degree(v) as u32).collect();
    by_count_descending(&degrees)
}

/// Vertex ids `0..counts.len()` sorted by decreasing `counts[v]`, ties by
/// increasing id: one stable counting sort.
pub(crate) fn by_count_descending(counts: &[u32]) -> Vec<VertexId> {
    let max = counts.iter().copied().max().unwrap_or(0) as usize;
    // `next[c]`: the next free slot of count `c`; the runs go high to low.
    let mut next = vec![0usize; max + 1];
    for &c in counts {
        next[c as usize] += 1;
    }
    let mut at = 0usize;
    for slot in next.iter_mut().rev() {
        (*slot, at) = (at, at + *slot);
    }
    let mut order = vec![0 as VertexId; counts.len()];
    for (v, &c) in counts.iter().enumerate() {
        order[next[c as usize]] = v as VertexId;
        next[c as usize] += 1;
    }
    order
}

/// The `k` highest-degree vertices (deterministic tie-breaking by id).
/// Clamped to `n`. Selects the `k`-prefix in `O(n)` and sorts only that.
pub fn top_degree(g: &CsrGraph, k: usize) -> Vec<VertexId> {
    let key = |&v: &VertexId| (std::cmp::Reverse(g.degree(v)), v);
    let mut order: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    if k < order.len() {
        order.select_nth_unstable_by_key(k, key);
        order.truncate(k);
    }
    order.sort_unstable_by_key(key);
    order
}

/// A permutation mapping each vertex to its rank in `order` (inverse
/// permutation). Vertices absent from `order` map to `u32::MAX`.
pub fn ranks(n: usize, order: &[VertexId]) -> Vec<u32> {
    let mut rank = vec![u32::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        rank[v as usize] = i as u32;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn degree_order_is_descending_with_id_ties() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)]);
        // degrees: 0:3, 1:2, 2:2, 3:2, 4:1
        assert_eq!(degree_descending(&g), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn top_degree_selects_hub() {
        let g = generate::star(10);
        assert_eq!(top_degree(&g, 1), vec![0]);
        assert_eq!(top_degree(&g, 3), vec![0, 1, 2]);
        assert_eq!(top_degree(&g, 100).len(), 10);
    }

    #[test]
    fn ranks_inverse_permutation() {
        let order = vec![3u32, 1, 0];
        let r = ranks(4, &order);
        assert_eq!(r, vec![2, 1, u32::MAX, 0]);
    }
}
