//! Compressed sparse row graph representation.
//!
//! [`CsrGraph`] stores an undirected, unweighted, simple graph: every edge
//! appears in both endpoints' adjacency lists, each list is sorted, and
//! self-loops / parallel edges are removed at build time. This is the
//! representation all labelling algorithms and searches in the workspace
//! operate on; what it holds (two 32-bit adjacency entries per edge, one
//! 32-bit offset per vertex) is what the paper's Table 1 column `|G|`
//! measures.
//!
//! # Chunks
//!
//! The graph is a [`ChunkTable`](crate::chunks): the vertices are cut into
//! runs of [`CsrGraph::CHUNK_VERTICES`], and each run is one shared
//! allocation holding `k + 1` offsets into the chunk itself (so the first
//! is `k + 1`), then its `k` rows back to back. Two chunks holding the same
//! rows hold the same words. Cloning a graph copies no adjacency.
//! [`with_edge`](CsrGraph::with_edge) and
//! [`without_edge`](CsrGraph::without_edge) copy the table and the chunks
//! that hold the two endpoints, and share every other chunk with the
//! parent: an edit costs `n / CHUNK_VERTICES` handles plus at most two
//! chunks, however many edits came before it, and there is nothing to fold.

use crate::chunks::{self, Chunk, ChunkTable, CHUNK_SHIFT};
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
///
/// Equality is of the logical graphs, whatever chunks the two share:
/// chunks are canonical, so unshared ones compare word for word.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `chunks[c]` holds the rows of the vertices [`chunks::locate`] puts
    /// in chunk `c`; every chunk but the last holds `CHUNK_VERTICES` rows.
    /// Each chunk is shared with every graph edited from this one that did
    /// not edit a row in it.
    chunks: ChunkTable,
    /// Number of vertices `n`.
    n: usize,
    /// Undirected edges.
    num_edges: usize,
}

impl CsrGraph {
    /// Vertices per chunk: [`chunks::CHUNK_VERTICES`], where the figure is
    /// measured.
    pub const CHUNK_VERTICES: usize = chunks::CHUNK_VERTICES;

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
        CsrGraph::from_rows(n, |_| 0, |_, _| {})
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
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
        CsrRows { chunks: &self.chunks, n: self.n }
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

    /// Bytes of the chunks: the paper's `|G|` accounting, where every edge
    /// appears in the forward and reverse adjacency lists (`2m` 32-bit
    /// entries = 8 bytes per undirected edge), plus one 32-bit offset per
    /// vertex and one more per chunk.
    pub fn memory_bytes(&self) -> usize {
        self.chunks.bytes()
    }

    /// Number of chunks, `⌈n / CHUNK_VERTICES⌉`.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Chunks of `self` that are not the same allocation as the chunk in
    /// the same place of `other`: for a graph edited from `other`, the
    /// chunks the edits copied.
    pub fn chunks_not_shared_with(&self, other: &CsrGraph) -> usize {
        self.chunks.not_shared_with(&other.chunks)
    }

    /// This graph with the undirected edge `{u, v}` added, sharing every
    /// chunk but the endpoints' with `self`. Returns `None` when the edge
    /// cannot be added: a self-loop, an endpoint out of range, or the edge
    /// already present.
    pub fn with_edge(&self, u: VertexId, v: VertexId) -> Option<CsrGraph> {
        self.edited(u, v, true)
    }

    /// This graph with the undirected edge `{u, v}` removed, sharing every
    /// chunk but the endpoints' with `self`. Returns `None` when there is
    /// nothing to remove: a self-loop, an endpoint out of range, or the
    /// edge not present.
    pub fn without_edge(&self, u: VertexId, v: VertexId) -> Option<CsrGraph> {
        self.edited(u, v, false)
    }

    fn edited(&self, u: VertexId, v: VertexId, add: bool) -> Option<CsrGraph> {
        let n = self.num_vertices();
        if u == v || u as usize >= n || v as usize >= n || self.has_edge(u, v) == add {
            return None;
        }
        let chunks = self.chunks.edited(|table| {
            // Two endpoints in one chunk copy it twice; that is rare enough
            // not to be worth a two-row splice.
            for (w, other) in [(u, v), (v, u)] {
                let (c, i) = chunks::locate(w);
                table[c] = spliced(&table[c], i, other, add);
            }
        });
        let num_edges = if add { self.num_edges + 1 } else { self.num_edges - 1 };
        Some(CsrGraph { chunks, n, num_edges })
    }

    /// Builds a graph of `n` vertices row by row: row `v` has `degree(v)`
    /// slots, and `fill(v, row)` writes them, sorted and duplicate-free.
    /// Each chunk is allocated once, at its final size.
    pub(crate) fn from_rows(
        n: usize,
        degree: impl Fn(usize) -> usize,
        mut fill: impl FnMut(VertexId, &mut [VertexId]),
    ) -> Self {
        let mut chunks = sized_chunks(n, degree);
        for (c, chunk) in chunks.iter_mut().enumerate() {
            let words = Arc::get_mut(chunk).expect("a new chunk is unshared");
            for i in 0..words[0] as usize - 1 {
                let (lo, hi) = (words[i] as usize, words[i + 1] as usize);
                fill(((c << CHUNK_SHIFT) + i) as VertexId, &mut words[lo..hi]);
            }
        }
        CsrGraph::from_chunks(n, chunks)
    }

    fn from_chunks(n: usize, chunks: Vec<Chunk>) -> Self {
        debug_assert_eq!(chunks.len(), n.div_ceil(Self::CHUNK_VERTICES));
        let entries: usize = chunks.iter().map(|c| c.len() - c[0] as usize).sum();
        CsrGraph { chunks: ChunkTable::new(chunks), n, num_edges: entries / 2 }
    }
}

/// The chunks of an `n`-vertex graph whose row `v` has `degree(v)` slots:
/// offsets written, rows zeroed, every chunk unshared.
fn sized_chunks(n: usize, degree: impl Fn(usize) -> usize) -> Vec<Chunk> {
    let size = CsrGraph::CHUNK_VERTICES;
    (0..n.div_ceil(size))
        .map(|c| {
            let vertices = c * size..n.min((c + 1) * size);
            let k = vertices.len();
            let len = k + 1 + vertices.clone().map(&degree).sum::<usize>();
            assert!(u32::try_from(len).is_ok(), "a chunk holds at most u32::MAX words");
            let mut chunk: Chunk = std::iter::repeat_n(0, len).collect();
            let words = Arc::get_mut(&mut chunk).expect("a new chunk is unshared");
            let mut end = k + 1;
            for (i, v) in vertices.enumerate() {
                words[i] = end as u32;
                end += degree(v);
            }
            words[k] = end as u32;
            chunk
        })
        .collect()
}

/// `words` as a new chunk, with local row `i` gaining `other` (`add`) or
/// losing it.
fn spliced(words: &[u32], i: usize, other: VertexId, add: bool) -> Chunk {
    let k = words[0] as usize - 1;
    let (lo, hi) = (words[i] as usize, words[i + 1] as usize);
    let at = lo + words[lo..hi].partition_point(|&x| x < other);
    let len = if add { words.len() + 1 } else { words.len() - 1 };
    assert!(u32::try_from(len).is_ok(), "a chunk holds at most u32::MAX words");
    let mut chunk = Arc::<[u32]>::new_uninit_slice(len);
    let out = Arc::get_mut(&mut chunk).expect("a new chunk is unshared");
    // The rows after `i` move by one word.
    let shift = if add { 1 } else { u32::MAX };
    out[..=i].write_copy_of_slice(&words[..=i]);
    for (o, &w) in out[i + 1..=k].iter_mut().zip(&words[i + 1..=k]) {
        o.write(w.wrapping_add(shift));
    }
    out[k + 1..at].write_copy_of_slice(&words[k + 1..at]);
    if add {
        out[at].write(other);
        out[at + 1..].write_copy_of_slice(&words[at..]);
    } else {
        out[at..].write_copy_of_slice(&words[at + 1..]);
    }
    // SAFETY: the writes above cover `out` whole and in order — `..=i`,
    // `i + 1..=k`, `k + 1..at`, then the rest from `at` — so every element
    // is initialised. (Zeroing first would double the cost of an edit.)
    unsafe { chunk.assume_init() }
}

/// Sorts every row of a chunk and drops repeated neighbours — a duplicate
/// edge repeats in both its rows, so the result stays symmetric. Rows move
/// down only after the first duplicate. Returns the words the chunk keeps.
fn sort_and_dedup(words: &mut [u32]) -> usize {
    let k = words[0] as usize - 1;
    // `end` is where the deduplicated rows end so far; rows start at their
    // counted offset until a duplicate has been dropped.
    let mut end = k + 1;
    for i in 0..k {
        let (lo, hi) = (words[i] as usize, words[i + 1] as usize);
        words[i] = end as u32;
        words[lo..hi].sort_unstable();
        if end == lo && words[lo..hi].windows(2).all(|p| p[0] != p[1]) {
            end = hi;
            continue;
        }
        let start = end;
        for j in lo..hi {
            if end == start || words[end - 1] != words[j] {
                words[end] = words[j];
                end += 1;
            }
        }
    }
    words[k] = end as u32;
    end
}

/// Borrowed row access to a [`CsrGraph`] with the shared-ownership
/// indirection already followed: the chunk table as a local slice. A
/// traversal takes one at its start and fetches rows through it, so a row
/// costs a shift and a mask into the table and two offset loads in the
/// chunk, with no branch.
#[derive(Clone, Copy, Debug)]
pub struct CsrRows<'a> {
    chunks: &'a [Chunk],
    n: usize,
}

impl<'a> CsrRows<'a> {
    /// The sorted neighbour list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &'a [VertexId] {
        let (c, i) = chunks::locate(v);
        let chunk = &self.chunks[c];
        &chunk[chunk[i] as usize..chunk[i + 1] as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let (c, i) = chunks::locate(v);
        let chunk = &self.chunks[c];
        (chunk[i + 1] - chunk[i]) as usize
    }
}

impl Adjacency for CsrRows<'_> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
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

    /// Produces the final CSR graph: counts degrees, sizes each chunk from
    /// them, scatters each edge into both endpoints' rows, then sorts each
    /// row and drops repeated neighbours. A chunk that dropped a duplicate
    /// is copied once to its final size; a duplicate-free edge list is
    /// never copied.
    pub fn build(self) -> CsrGraph {
        let n = self.n;
        // The degrees, until the chunks are sized from them.
        let mut cursor = vec![0usize; n];
        for &(u, v) in &self.edges {
            cursor[u as usize] += 1;
            cursor[v as usize] += 1;
        }
        let mut chunks = sized_chunks(n, |v| cursor[v]);
        {
            let mut rows: Vec<&mut [u32]> = chunks
                .iter_mut()
                .map(|c| Arc::get_mut(c).expect("a new chunk is unshared"))
                .collect();
            // `cursor[v]` tracks the next free slot in v's row, within its
            // chunk.
            for (v, at) in cursor.iter_mut().enumerate() {
                let (c, i) = chunks::locate(v as VertexId);
                *at = rows[c][i] as usize;
            }
            for &(u, v) in &self.edges {
                for (a, b) in [(u, v), (v, u)] {
                    let a = a as usize;
                    rows[a >> CHUNK_SHIFT][cursor[a]] = b;
                    cursor[a] += 1;
                }
            }
        }
        drop((cursor, self.edges));
        for chunk in &mut chunks {
            let words = Arc::get_mut(chunk).expect("a new chunk is unshared");
            let end = sort_and_dedup(words);
            if end < words.len() {
                *chunk = Arc::from(&words[..end]);
            }
        }
        CsrGraph::from_chunks(n, chunks)
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
        let size = CsrGraph::CHUNK_VERTICES as u32;
        let n = 2 * size + 60;
        let g = crate::generate::barabasi_albert(n as usize, 3, 1);
        assert_eq!(g.num_chunks(), 3);
        let (u, v) = (n - 2, n - 1);
        assert!(!g.has_edge(u, v));
        let before: Vec<Vec<VertexId>> = g.vertices().map(|w| g.neighbors(w).to_vec()).collect();
        let added = g.with_edge(u, v).unwrap();
        assert_eq!(added.chunks_not_shared_with(&g), 1, "both endpoints in the last chunk");
        assert!(Arc::ptr_eq(&added.chunks[0], &g.chunks[0]));
        assert!(added.has_edge(v, u));
        assert_eq!(added.num_edges(), g.num_edges() + 1);
        assert_eq!(added.degree(u), g.degree(u) + 1);
        assert_eq!(added.memory_bytes(), g.memory_bytes() + 8);
        assert_eq!(added.edges().count(), added.num_edges());
        // The parent still answers for the old graph.
        assert_eq!(g.chunks_not_shared_with(&g), 0);
        for w in g.vertices() {
            assert_eq!(g.neighbors(w), before[w as usize].as_slice(), "parent row {w}");
        }
        // Removing the edge again copies the same chunk back.
        let back = added.without_edge(v, u).unwrap();
        assert_eq!(back.chunks_not_shared_with(&added), 1);
        assert_eq!(back, g);
        assert_ne!(added, g);
        // Endpoints in two chunks copy both, and only them.
        let w = (0..size).find(|&w| !g.has_edge(w, n - 1)).unwrap();
        let across = g.with_edge(n - 1, w).unwrap();
        assert_eq!(across.chunks_not_shared_with(&g), 2);
        assert!(Arc::ptr_eq(&across.chunks[1], &g.chunks[1]));
    }

    #[test]
    fn an_edited_graph_is_word_for_word_a_fresh_build() {
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
        assert_eq!(edited.chunks_not_shared_with(&g), 1);
        let rebuilt = CsrGraph::from_edges(40, &edges);
        assert_eq!(edited, rebuilt);
        assert_eq!(edited.chunks[0][..], rebuilt.chunks[0][..], "chunks are canonical");
        assert_eq!(edited.num_edges(), rebuilt.num_edges());
        assert_eq!(edited.memory_bytes(), rebuilt.memory_bytes());
        assert_eq!(edited.max_degree(), rebuilt.max_degree());
        assert_eq!(edited.avg_degree(), rebuilt.avg_degree());
    }

    #[test]
    fn a_long_edit_chain_copies_only_the_endpoints_chunks() {
        let size = CsrGraph::CHUNK_VERTICES as u32;
        let n = 3 * size + 10;
        let mut g = crate::generate::path(n as usize);
        let flat = g.clone();
        // Chords {i, i + 2}: most in one chunk, four across a boundary.
        for i in 0..n - 2 {
            let next = g.with_edge(i, i + 2).unwrap();
            let chunks = if i / size == (i + 2) / size { 1 } else { 2 };
            assert_eq!(next.chunks_not_shared_with(&g), chunks, "chord {i}");
            g = next;
        }
        assert_eq!(g.chunks_not_shared_with(&flat), 4, "every chunk was edited");
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
        // 4 adjacency entries + 3 row offsets + 1 chunk end, 4 bytes each.
        assert_eq!(g.memory_bytes(), 4 * 4 + 4 * 4);
    }
}
