//! Compressed sparse row graph representation.
//!
//! [`CsrGraph`] stores an undirected, unweighted, simple graph: every edge
//! appears in both endpoints' adjacency lists, each list is sorted, and
//! self-loops / parallel edges are removed at build time. This is the
//! representation all labelling algorithms and searches in the workspace
//! operate on; its layout (one `usize` offset array + one flat `u32`
//! neighbour array) is what the paper's Table 1 column `|G|` measures.

use crate::{GraphError, VertexId};

/// An immutable undirected graph in compressed sparse row form.
///
/// Construct one with [`GraphBuilder`], [`CsrGraph::from_edges`], or one of
/// the generators in [`crate::generate`].
///
/// # Examples
///
/// ```
/// use hcl_graph::CsrGraph;
///
/// // A triangle plus a pendant vertex: 0-1, 1-2, 2-0, 2-3.
/// let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.neighbors(2), &[0, 1, 3]);
/// assert_eq!(g.degree(3), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` indexes `adj` for vertex `v`; length `n + 1`.
    offsets: Vec<usize>,
    /// Flattened, per-vertex-sorted adjacency; length `2 m`.
    adj: Vec<VertexId>,
}

impl CsrGraph {
    /// Builds a graph with `n` vertices from an edge list. Self-loops and
    /// duplicate edges (in either direction) are dropped.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`. Use [`GraphBuilder`] for a checked,
    /// incremental API.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v).expect("edge endpoint out of range");
        }
        b.build()
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        CsrGraph { offsets: vec![0; n + 1], adj: Vec::new() }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m` (each edge counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Iterator over all vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// The sorted neighbour list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Whether the undirected edge `{u, v}` is present (binary search).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over each undirected edge exactly once, as `(u, v)` with
    /// `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices()).map(|v| self.offsets[v + 1] - self.offsets[v]).max().unwrap_or(0)
    }

    /// Average degree `2m / n`.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.adj.len() as f64 / self.num_vertices() as f64
        }
    }

    /// Bytes used by the in-memory representation (adjacency + offsets).
    ///
    /// Matches the paper's `|G|` accounting: every edge appears in the
    /// forward and reverse adjacency lists (`2m` 32-bit entries = 8 bytes
    /// per undirected edge) plus the offset array.
    pub fn memory_bytes(&self) -> usize {
        self.adj.len() * std::mem::size_of::<VertexId>()
            + self.offsets.len() * std::mem::size_of::<usize>()
    }

    /// A copy of this graph with the undirected edge `{u, v}` spliced in.
    /// Returns `None` when the edge cannot be added: a self-loop, an
    /// endpoint out of range, or the edge already present. See
    /// [`spliced`](Self::spliced) for the cost.
    pub fn with_edge(&self, u: VertexId, v: VertexId) -> Option<CsrGraph> {
        self.spliced(u, v, true, CsrGraph::default())
    }

    /// A copy of this graph with the undirected edge `{u, v}` removed.
    /// Returns `None` when there is nothing to remove: a self-loop, an
    /// endpoint out of range, or the edge not present.
    pub fn without_edge(&self, u: VertexId, v: VertexId) -> Option<CsrGraph> {
        self.spliced(u, v, false, CsrGraph::default())
    }

    /// [`with_edge`](Self::with_edge) (`add`) or
    /// [`without_edge`](Self::without_edge), written into the buffers of
    /// `spare` — any retired graph, whose contents are discarded. The
    /// adjacency array is copied in three bulk chunks around the two sorted
    /// splice points and the offsets are shifted in one linear pass — no
    /// builder re-sort and no per-row copy loop — which is what makes
    /// single-edge index updates cheap relative to a rebuild; a spare of
    /// the right capacity (the generation before last of an update chain)
    /// makes it allocation-free as well, so a steady stream of edits does
    /// not hand two graph-sized arrays to the allocator and take two back
    /// per edit.
    pub fn spliced(
        &self,
        u: VertexId,
        v: VertexId,
        add: bool,
        spare: CsrGraph,
    ) -> Option<CsrGraph> {
        let n = self.num_vertices();
        if u == v || u as usize >= n || v as usize >= n || self.has_edge(u, v) == add {
            return None;
        }
        // Rows are laid out in vertex order, so with a < b the splice in
        // a's row lands strictly before the one in b's row.
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let pos = |w: VertexId, other: VertexId| {
            self.offsets[w as usize] + self.neighbors(w).partition_point(|&x| x < other)
        };
        let (p1, p2) = (pos(a, b), pos(b, a));
        let CsrGraph { mut offsets, mut adj } = spare;
        adj.clear();
        // Room for an insertion even when removing: the buffer comes back
        // as a spare, and the splice it then serves may be the opposite one.
        adj.reserve_exact(self.adj.len() + 2);
        adj.extend_from_slice(&self.adj[..p1]);
        if add {
            adj.push(b);
            adj.extend_from_slice(&self.adj[p1..p2]);
            adj.push(a);
            adj.extend_from_slice(&self.adj[p2..]);
        } else {
            adj.extend_from_slice(&self.adj[p1 + 1..p2]);
            adj.extend_from_slice(&self.adj[p2 + 1..]);
        }
        offsets.clear();
        offsets.extend_from_slice(&self.offsets);
        let shift = |o: &mut usize, by: usize| if add { *o += by } else { *o -= by };
        offsets[a as usize + 1..=b as usize].iter_mut().for_each(|o| shift(o, 1));
        offsets[b as usize + 1..].iter_mut().for_each(|o| shift(o, 2));
        Some(CsrGraph::from_parts(offsets, adj))
    }

    /// Internal: construct directly from parts. `offsets` must be monotone
    /// with `offsets[0] == 0` and `offsets[n] == adj.len()`, and each
    /// adjacency range must be sorted and duplicate-free.
    pub(crate) fn from_parts(offsets: Vec<usize>, adj: Vec<VertexId>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().unwrap(), adj.len());
        CsrGraph { offsets, adj }
    }
}

/// Read-only adjacency access, the storage-backend seam of the query fast
/// path.
///
/// [`CsrGraph`] is the in-memory implementation; `hcl-store`'s memory-mapped
/// index view implements it over packed on-disk bytes. Searches that are
/// generic over `Adjacency` (notably
/// [`SearchSpace::bounded_bibfs_sparse`](crate::traversal::SearchSpace::bounded_bibfs_sparse))
/// therefore run unchanged on either backend. Neighbour lists must be
/// returned as contiguous `&[VertexId]` slices — the trait deliberately does
/// not abstract over iterators so the inner search loop stays a plain slice
/// scan.
pub trait Adjacency {
    /// Number of vertices `n`; vertex ids `0..n` must be valid arguments to
    /// [`neighbors`](Self::neighbors).
    fn num_vertices(&self) -> usize;

    /// The neighbour list of `v` (sorted, duplicate-free).
    fn neighbors(&self, v: VertexId) -> &[VertexId];

    /// Degree of `v`.
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }
}

/// The graph with no vertices — also the spare that makes
/// [`CsrGraph::spliced`] allocate afresh.
impl Default for CsrGraph {
    fn default() -> Self {
        CsrGraph::empty(0)
    }
}

impl Adjacency for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        CsrGraph::neighbors(self, v)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CsrGraph::degree(self, v)
    }
}

/// Incremental, checked builder for [`CsrGraph`].
///
/// Accumulates edges (normalised so each undirected edge is stored once),
/// then [`build`](GraphBuilder::build) sorts, deduplicates and produces the
/// CSR arrays in `O(m log m)`.
///
/// # Examples
///
/// ```
/// use hcl_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1).unwrap();
/// b.add_edge(1, 0).unwrap(); // duplicate, dropped at build
/// b.add_edge(1, 1).unwrap(); // self-loop, dropped immediately
/// b.add_edge(1, 2).unwrap();
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, edges: Vec::new() }
    }

    /// A builder with capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder { n, edges: Vec::with_capacity(m) }
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges added so far (before dedup).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Grows the vertex count to at least `n`.
    pub fn ensure_vertices(&mut self, n: usize) {
        self.n = self.n.max(n);
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are silently ignored.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        if (u as usize) >= self.n {
            return Err(GraphError::VertexOutOfRange { vertex: u, n: self.n });
        }
        if (v as usize) >= self.n {
            return Err(GraphError::VertexOutOfRange { vertex: v, n: self.n });
        }
        if u != v {
            self.edges.push(if u < v { (u, v) } else { (v, u) });
        }
        Ok(())
    }

    /// Like [`add_edge`](Self::add_edge) but grows the vertex count as needed
    /// instead of failing. Used by text loaders where `n` is not known ahead
    /// of time.
    pub fn add_edge_growing(&mut self, u: VertexId, v: VertexId) {
        let need = (u.max(v) as usize) + 1;
        self.ensure_vertices(need);
        if u != v {
            self.edges.push(if u < v { (u, v) } else { (v, u) });
        }
    }

    /// Sorts, deduplicates and produces the final CSR graph.
    pub fn build(mut self) -> CsrGraph {
        self.edges.sort_unstable();
        self.edges.dedup();

        let n = self.n;
        let mut degrees = vec![0usize; n];
        for &(u, v) in &self.edges {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut adj = vec![0 as VertexId; acc];
        // `cursor[v]` tracks the next free slot in v's adjacency range.
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        for &(u, v) in &self.edges {
            adj[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Edges were globally sorted by (u, v), so forward entries are already
        // in order, but reverse entries interleave; sort each range.
        for v in 0..n {
            adj[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        CsrGraph::from_parts(offsets, adj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        for v in g.vertices() {
            assert!(g.neighbors(v).is_empty());
        }
    }

    #[test]
    fn zero_vertex_graph() {
        let g = CsrGraph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.vertices().count(), 0);
    }

    #[test]
    fn triangle_with_pendant() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbors(3), &[2]);
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duplicates_and_self_loops_removed() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[] as &[VertexId]);
    }

    #[test]
    fn has_edge_both_directions() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(3, 2));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 3));
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let input = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)];
        let g = CsrGraph::from_edges(5, &input);
        let mut got: Vec<_> = g.edges().collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert!(b.add_edge(0, 2).is_err());
        assert!(b.add_edge(5, 0).is_err());
        assert!(b.add_edge(0, 1).is_ok());
    }

    #[test]
    fn builder_growing_extends_vertex_count() {
        let mut b = GraphBuilder::new(0);
        b.add_edge_growing(7, 3);
        let g = b.build();
        assert_eq!(g.num_vertices(), 8);
        assert!(g.has_edge(3, 7));
    }

    #[test]
    fn with_edge_splices_and_rejects() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let g2 = g.with_edge(3, 0).expect("new edge");
        assert_eq!(g2, CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3), (0, 3)]));
        assert_eq!(g2.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.num_edges(), 4, "source untouched");
        assert!(g.with_edge(0, 1).is_none(), "already present");
        assert!(g.with_edge(1, 0).is_none(), "already present, reversed");
        assert!(g.with_edge(2, 2).is_none(), "self-loop");
        assert!(g.with_edge(0, 4).is_none(), "out of range");
    }

    #[test]
    fn without_edge_splices_and_rejects() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let g2 = g.without_edge(0, 2).expect("existing edge");
        assert_eq!(g2, CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]));
        assert_eq!(g.num_edges(), 4, "source untouched");
        assert!(g.without_edge(0, 3).is_none(), "not present");
        assert!(g.without_edge(1, 1).is_none(), "self-loop");
        assert!(g.without_edge(9, 0).is_none(), "out of range");
    }

    #[test]
    fn edge_splices_round_trip() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let added = g.with_edge(1, 4).unwrap();
        assert_eq!(added.without_edge(4, 1).unwrap(), g);
        let removed = g.without_edge(2, 3).unwrap();
        assert_eq!(removed.with_edge(3, 2).unwrap(), g);
    }

    #[test]
    fn spliced_overwrites_a_spare_of_any_shape_and_keeps_its_buffer() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let spares = [
            CsrGraph::default(),
            CsrGraph::empty(40),
            CsrGraph::from_edges(3, &[(0, 1)]),
            crate::generate::barabasi_albert(50, 3, 1),
        ];
        for spare in spares {
            assert_eq!(g.spliced(1, 4, true, spare.clone()), g.with_edge(1, 4));
            assert_eq!(g.spliced(3, 2, false, spare.clone()), g.without_edge(3, 2));
            assert_eq!(g.spliced(0, 1, true, spare.clone()), None, "already present");
            assert_eq!(g.spliced(0, 2, false, spare), None, "not present");
        }
        // ADD, DEL, ADD: the third graph fits in the first one's arrays.
        let first = g.with_edge(1, 4).unwrap();
        let buffer = first.adj.as_ptr();
        let second = first.without_edge(1, 4).unwrap();
        let third = second.spliced(0, 3, true, first).unwrap();
        assert_eq!(third.adj.as_ptr(), buffer);
        assert_eq!(third, g.with_edge(0, 3).unwrap());
    }

    #[test]
    fn adjacency_is_sorted() {
        let g = CsrGraph::from_edges(6, &[(3, 0), (3, 5), (3, 1), (3, 4), (3, 2)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4, 5]);
    }

    #[test]
    fn memory_bytes_counts_both_directions() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        // 4 adjacency entries * 4 bytes + 4 offsets * 8 bytes.
        assert_eq!(g.memory_bytes(), 4 * 4 + 4 * std::mem::size_of::<usize>());
    }
}
