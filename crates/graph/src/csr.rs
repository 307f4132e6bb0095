//! Compressed sparse row graph representation.
//!
//! [`CsrGraph`] stores an undirected, unweighted, simple graph: every edge
//! appears in both endpoints' adjacency lists, each list is sorted, and
//! self-loops / parallel edges are removed at build time. This is the
//! representation all labelling algorithms and searches in the workspace
//! operate on; its layout (one `usize` offset array + one flat `u32`
//! neighbour array) is what the paper's Table 1 column `|G|` measures.
//!
//! # Base + overlay
//!
//! The two arrays are immutable and shared: a `CsrGraph` is a handle, and
//! cloning one copies no adjacency. [`with_edge`](CsrGraph::with_edge) and
//! [`without_edge`](CsrGraph::without_edge) return a graph that keeps the
//! parent's arrays and records the two endpoints' new rows in a
//! [`RowOverlay`] — `O(deg(u) + deg(v))`, whatever `n` and `m` are — and
//! every accessor answers for the *logical* graph (arrays as amended by the
//! overlay). A graph that was never edited pays one predictable
//! "no overlay" branch per row access — a register test in loops that
//! fetch rows through [`CsrGraph::rows`]. The overlay is bounded
//! ([`CsrGraph::OVERLAY_MAX_ROWS`]): the edit that would cross the bound
//! returns a [`folded`](CsrGraph::folded) graph — fresh flat arrays, empty
//! overlay — so the cost of the rewrite is spread over the edits between
//! two folds.

use crate::overlay::{RowFilter, RowOverlay};
use crate::{GraphError, VertexId};
use std::sync::Arc;

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
#[derive(Clone, Debug)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` indexes `adj` for vertex `v`; length
    /// `n + 1`. Shared with every graph edited from this one since the
    /// last fold. (`Arc<Vec<_>>`, not `Arc<[_]>`: taking a built `Vec`
    /// under shared ownership must not copy it.)
    offsets: Arc<Vec<usize>>,
    /// Flattened, per-vertex-sorted adjacency of the base.
    adj: Arc<Vec<VertexId>>,
    /// Rows that differ from the base (sorted, like base rows).
    overlay: RowOverlay<Arc<[VertexId]>>,
    /// Undirected edges of the logical graph.
    num_edges: usize,
}

impl CsrGraph {
    /// Most rows the overlay holds; the edit that would exceed it folds.
    /// 64 rows put at least 32 edits between two `O(n + m)` folds. What
    /// sets the figure is the search: a graph carrying an overlay pays a
    /// filter test per row fetched (3–4% of the in-cache query rate), and
    /// every replaced row it touches is a mispredicted "not replaced"
    /// branch and a row outside the flat array. On a 20k-vertex graph a
    /// full overlay costs 4–5% at 64 rows and 6% at 128 (`bench_query`'s
    /// `patched_query_ratio`); on larger graphs the replaced share
    /// shrinks in proportion.
    pub const OVERLAY_MAX_ROWS: usize = 64;

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
        CsrGraph::from_parts(vec![0; n + 1], Vec::new())
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m` (each edge counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Iterator over all vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// The graph's rows, resolved for a loop: see [`CsrRows`].
    #[inline]
    pub fn rows(&self) -> CsrRows<'_> {
        CsrRows {
            offsets: &self.offsets,
            adj: &self.adj,
            filter: self.overlay.filter(),
            overlay: &self.overlay,
        }
    }

    /// The sorted neighbour list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.rows().neighbors(v)
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.rows().degree(v)
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
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree `2m / n`.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            (2 * self.num_edges) as f64 / self.num_vertices() as f64
        }
    }

    /// Bytes of the flat representation of the logical graph (adjacency +
    /// offsets) — what [`folded`](Self::folded) would occupy.
    ///
    /// Matches the paper's `|G|` accounting: every edge appears in the
    /// forward and reverse adjacency lists (`2m` 32-bit entries = 8 bytes
    /// per undirected edge) plus the offset array.
    pub fn memory_bytes(&self) -> usize {
        2 * self.num_edges * std::mem::size_of::<VertexId>()
            + self.offsets.len() * std::mem::size_of::<usize>()
    }

    /// Rows currently held in the overlay (0 for a flat graph).
    pub fn overlay_rows(&self) -> usize {
        self.overlay.len()
    }

    /// This graph with the undirected edge `{u, v}` added, sharing every
    /// other row with `self`. Returns `None` when the edge cannot be
    /// added: a self-loop, an endpoint out of range, or the edge already
    /// present.
    pub fn with_edge(&self, u: VertexId, v: VertexId) -> Option<CsrGraph> {
        self.edited(u, v, true)
    }

    /// This graph with the undirected edge `{u, v}` removed, sharing every
    /// other row with `self`. Returns `None` when there is nothing to
    /// remove: a self-loop, an endpoint out of range, or the edge not
    /// present.
    pub fn without_edge(&self, u: VertexId, v: VertexId) -> Option<CsrGraph> {
        self.edited(u, v, false)
    }

    fn edited(&self, u: VertexId, v: VertexId, add: bool) -> Option<CsrGraph> {
        let n = self.num_vertices();
        if u == v || u as usize >= n || v as usize >= n || self.has_edge(u, v) == add {
            return None;
        }
        let new_row = |w: VertexId, other: VertexId| -> Arc<[VertexId]> {
            let old = self.neighbors(w);
            let at = old.partition_point(|&x| x < other);
            let mut row = Vec::with_capacity(old.len() + 1);
            row.extend_from_slice(&old[..at]);
            if add {
                row.push(other);
                row.extend_from_slice(&old[at..]);
            } else {
                row.extend_from_slice(&old[at + 1..]);
            }
            row.into()
        };
        let mut next = self.clone();
        next.overlay.insert(u, new_row(u, v));
        next.overlay.insert(v, new_row(v, u));
        next.num_edges = if add { self.num_edges + 1 } else { self.num_edges - 1 };
        Some(if next.overlay.len() > Self::OVERLAY_MAX_ROWS { next.folded() } else { next })
    }

    /// The same logical graph as flat arrays with an empty overlay: the
    /// base adjacency is copied in bulk chunks between the replaced rows
    /// and the offsets are shifted in one linear pass — `O(n + m)` memcpy
    /// work, no builder re-sort and no per-row loop. A flat graph folds to
    /// a handle on the same arrays.
    pub fn folded(&self) -> CsrGraph {
        if self.overlay.is_empty() {
            return self.clone();
        }
        let mut adj = Vec::with_capacity(2 * self.num_edges);
        let mut offsets = Vec::with_capacity(self.offsets.len());
        // Base offsets of vertices `from..=v` move by the rows replaced
        // before them; `shift` wraps instead of going signed.
        let (mut src, mut from, mut shift) = (0usize, 0usize, 0usize);
        for (v, row) in self.overlay.sorted() {
            let v = v as usize;
            let (lo, hi) = (self.offsets[v], self.offsets[v + 1]);
            adj.extend_from_slice(&self.adj[src..lo]);
            adj.extend_from_slice(row);
            src = hi;
            offsets.extend(self.offsets[from..=v].iter().map(|&o| o.wrapping_add(shift)));
            shift = shift.wrapping_add(row.len()).wrapping_sub(hi - lo);
            from = v + 1;
        }
        adj.extend_from_slice(&self.adj[src..]);
        offsets.extend(self.offsets[from..].iter().map(|&o| o.wrapping_add(shift)));
        CsrGraph::from_parts(offsets, adj)
    }

    /// Internal: construct directly from parts. `offsets` must be monotone
    /// with `offsets[0] == 0` and `offsets[n] == adj.len()`, and each
    /// adjacency range must be sorted and duplicate-free.
    pub(crate) fn from_parts(offsets: Vec<usize>, adj: Vec<VertexId>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().unwrap(), adj.len());
        let num_edges = adj.len() / 2;
        CsrGraph {
            offsets: Arc::new(offsets),
            adj: Arc::new(adj),
            overlay: RowOverlay::default(),
            num_edges,
        }
    }
}

/// Borrowed row access to a [`CsrGraph`] with the shared-ownership
/// indirections already followed: the two base slices and, when rows are
/// replaced, the overlay's filter. A traversal takes one at its start and
/// fetches rows through it, so the per-row cost on a graph that was never
/// edited is a test of a local `Option` — no pointer chasing — and
/// the searches run the same code on flat and edited graphs.
#[derive(Clone, Copy, Debug)]
pub struct CsrRows<'a> {
    offsets: &'a [usize],
    adj: &'a [VertexId],
    filter: Option<&'a RowFilter>,
    overlay: &'a RowOverlay<Arc<[VertexId]>>,
}

impl<'a> CsrRows<'a> {
    #[inline]
    fn replaced(&self, v: VertexId) -> Option<&'a [VertexId]> {
        if self.filter?.may_contain(v) {
            self.overlay.probe(v).map(|row| &**row)
        } else {
            None
        }
    }

    /// The sorted neighbour list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &'a [VertexId] {
        if let Some(row) = self.replaced(v) {
            return row;
        }
        let v = v as usize;
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        if let Some(row) = self.replaced(v) {
            return row.len();
        }
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }
}

impl Adjacency for CsrRows<'_> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        CsrRows::neighbors(self, v)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CsrRows::degree(self, v)
    }
}

/// Equality of the logical graphs, however their rows are split between
/// base and overlay.
impl PartialEq for CsrGraph {
    fn eq(&self, other: &CsrGraph) -> bool {
        if self.num_vertices() != other.num_vertices() || self.num_edges != other.num_edges {
            return false;
        }
        if self.overlay.is_empty() && other.overlay.is_empty() {
            return self.offsets == other.offsets && self.adj == other.adj;
        }
        self.vertices().all(|v| self.neighbors(v) == other.neighbors(v))
    }
}

impl Eq for CsrGraph {}

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
/// Accumulates edges as given, then [`build`](GraphBuilder::build) fills
/// the CSR arrays by counting sort — `O(n + m)` plus one sort per row —
/// dropping duplicates and self-loops.
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
            self.edges.push((u, v));
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
            self.edges.push((u, v));
        }
    }

    /// Produces the final CSR graph: counts degrees, scatters each edge
    /// into both endpoints' rows, then sorts each row and drops repeated
    /// neighbours — a duplicate edge repeats in both its rows, so the
    /// result stays symmetric. Rows move down only after the first
    /// duplicate; a duplicate-free edge list is never copied.
    pub fn build(self) -> CsrGraph {
        let n = self.n;
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut adj = vec![0 as VertexId; offsets[n]];
        // `cursor[v]` tracks the next free slot in v's adjacency range.
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        for &(u, v) in &self.edges {
            adj[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        drop((cursor, self.edges));
        // `end` is where the deduplicated rows end so far; rows start at
        // their counted offset until a duplicate has been dropped.
        let mut end = 0usize;
        for v in 0..n {
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            offsets[v] = end;
            adj[lo..hi].sort_unstable();
            if end == lo && adj[lo..hi].windows(2).all(|p| p[0] != p[1]) {
                end = hi;
                continue;
            }
            for i in lo..hi {
                if end == offsets[v] || adj[end - 1] != adj[i] {
                    adj[end] = adj[i];
                    end += 1;
                }
            }
        }
        offsets[n] = end;
        if end < adj.len() {
            adj.truncate(end);
            adj.shrink_to_fit();
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
    fn an_edited_graph_shares_its_parents_arrays_and_leaves_it_untouched() {
        let g = crate::generate::barabasi_albert(60, 3, 1);
        let (u, v) = (58u32, 59u32);
        assert!(!g.has_edge(u, v));
        let before: Vec<Vec<VertexId>> = g.vertices().map(|w| g.neighbors(w).to_vec()).collect();
        let added = g.with_edge(u, v).unwrap();
        assert_eq!(added.overlay_rows(), 2);
        assert!(Arc::ptr_eq(&added.adj, &g.adj) && Arc::ptr_eq(&added.offsets, &g.offsets));
        assert!(added.has_edge(v, u));
        assert_eq!(added.num_edges(), g.num_edges() + 1);
        assert_eq!(added.degree(u), g.degree(u) + 1);
        assert_eq!(added.memory_bytes(), g.memory_bytes() + 8);
        assert_eq!(added.edges().count(), added.num_edges());
        // The parent still answers for the old graph.
        assert_eq!(g.overlay_rows(), 0);
        for w in g.vertices() {
            assert_eq!(g.neighbors(w), before[w as usize].as_slice(), "parent row {w}");
        }
        // Removing the edge again re-replaces the same two rows.
        let back = added.without_edge(v, u).unwrap();
        assert_eq!(back.overlay_rows(), 2);
        assert_eq!(back, g);
        assert_ne!(added, g);
    }

    #[test]
    fn folding_rebuilds_flat_arrays_for_the_same_logical_graph() {
        let g = crate::generate::erdos_renyi(40, 90, 5);
        let mut edited = g.clone();
        let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
        // Delete every third edge, then add a fan out of vertex 0 and an
        // edge at the very end of the id range.
        for &(u, v) in edges.clone().iter().step_by(3) {
            edited = edited.without_edge(u, v).unwrap();
            edges.retain(|&e| e != (u, v));
        }
        for w in (1..40u32).filter(|&w| !g.has_edge(0, w)) {
            edited = edited.with_edge(w, 0).unwrap();
            edges.push((0, w));
        }
        if !edited.has_edge(38, 39) {
            edited = edited.with_edge(39, 38).unwrap();
            edges.push((38, 39));
        }
        assert!(edited.overlay_rows() > 2);
        let flat = edited.folded();
        assert_eq!(flat.overlay_rows(), 0);
        let rebuilt = CsrGraph::from_edges(40, &edges);
        assert_eq!(flat, rebuilt);
        assert_eq!(edited, rebuilt, "equality is logical, not structural");
        assert_eq!(flat.offsets, rebuilt.offsets);
        assert_eq!(flat.adj, rebuilt.adj);
        assert_eq!(edited.max_degree(), rebuilt.max_degree());
        assert_eq!(edited.avg_degree(), rebuilt.avg_degree());
        // Folding a flat graph copies nothing.
        assert!(Arc::ptr_eq(&flat.folded().adj, &flat.adj));
    }

    #[test]
    fn the_edit_that_crosses_the_overlay_bound_folds() {
        let n = CsrGraph::OVERLAY_MAX_ROWS as u32 + 10;
        let mut g = crate::generate::path(n as usize);
        let flat = g.clone();
        let mut folds = 0;
        // Chords {i, i + 2} touch two fresh rows each until rows repeat.
        for i in 0..n - 2 {
            let before = g.overlay_rows();
            g = g.with_edge(i, i + 2).unwrap();
            assert!(g.overlay_rows() <= CsrGraph::OVERLAY_MAX_ROWS);
            if g.overlay_rows() < before {
                folds += 1;
                assert_eq!(g.overlay_rows(), 0, "a fold leaves nothing behind");
                assert!(!Arc::ptr_eq(&g.adj, &flat.adj));
            }
        }
        assert_eq!(folds, 1);
        let mut edges: Vec<(VertexId, VertexId)> = flat.edges().collect();
        edges.extend((0..n - 2).map(|i| (i, i + 2)));
        assert_eq!(g, CsrGraph::from_edges(n as usize, &edges));
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
