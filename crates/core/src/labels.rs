//! The distance label store.
//!
//! A vertex's label is two parallel **lanes** — one `u8` lane of landmark
//! ranks and one `u8` lane of distances (structure-of-arrays). This is the
//! paper's "HL(8)" encoding (§5.2, Table 3): at most [`MAX_LANDMARKS`]
//! landmarks and label distances of at most 255, which complex networks,
//! with their small diameters, never approach (PLL stores its distances
//! in 8 bits for the same reason). Labels are sorted by rank so queries
//! can merge two labels with a single linear pass, and the split lanes
//! let the Lemma 5.1 merge loops run over dense same-type data the
//! compiler can autovectorize. A packed `.hclx` file stores every label's
//! lanes back to back in two file-wide lanes.
//!
//! [`LabelEntry`] remains the logical unit — [`HighwayLabels::label`]
//! returns a [`LabelRef`] that yields entries by value — but nothing in the
//! hot path materialises `(rank, dist)` pairs; the merge reads the lanes
//! directly via [`HighwayLabels::label_lanes`].
//!
//! # Chunks
//!
//! The store is a [`ChunkTable`] like the graph's: each run of
//! [`CHUNK_VERTICES`] vertices is one shared `u32` allocation holding
//! `k + 1` byte offsets into the chunk itself, then the `k` rows back to
//! back, each row its rank lane followed by its dist lane, zero-padded to
//! a whole word. A row is found with a shift, a mask and two offset loads,
//! on a built store and an edited one alike. Cloning a store copies no
//! label. An edge edit moves the labels of the affected vertices only, so
//! `HighwayLabels::with_rows` rebuilds the chunks that hold a changed row
//! and shares every other chunk with the parent. The layout is canonical —
//! two chunks holding the same rows hold the same words — so equality
//! compares words and an edited store is word for word a fresh build.
//!
//! §5.2 of the paper compares a 32-bit-vertex/8-bit-distance encoding ("HL")
//! with the 8-bit/8-bit one ("HL(8)"); [`HighwayLabels::encoded_bytes`]
//! reports the size of the labelling under either scheme for Table 3.

use crate::highway::Highway;
use hcl_graph::chunks::{self, Chunk, ChunkTable, CHUNK_VERTICES};
use hcl_graph::VertexId;
use std::sync::Arc;

/// The most landmarks an index may have: a rank is one byte. The builder,
/// the plain `.hcl` reader and the packed `.hclx` reader all enforce it.
pub const MAX_LANDMARKS: usize = u8::MAX as usize + 1;

/// One distance entry `(r, δL(r, v))` in a vertex's label.
///
/// `landmark` is the landmark's *rank* (index into
/// [`Highway::landmarks`]); `dist` is the exact graph distance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LabelEntry {
    /// Rank of the landmark in the highway.
    pub landmark: u8,
    /// Exact distance from the landmark to the labelled vertex.
    pub dist: u8,
}

/// Borrowed view of one vertex's label: parallel rank and dist lanes of
/// equal length, sorted strictly by rank.
///
/// Iteration yields [`LabelEntry`] values, so code written against the old
/// `&[LabelEntry]` slice keeps its shape; the lanes themselves are exposed
/// for the vectorized merge.
#[derive(Clone, Copy)]
pub struct LabelRef<'a> {
    /// Landmark ranks, strictly increasing.
    pub ranks: &'a [u8],
    /// Distances, parallel to `ranks`.
    pub dists: &'a [u8],
}

impl<'a> LabelRef<'a> {
    /// Number of entries in the label.
    #[inline]
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True when the label has no entries (landmarks, isolated vertices).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// The `i`-th entry, assembled from the lanes.
    #[inline]
    pub fn get(&self, i: usize) -> LabelEntry {
        LabelEntry { landmark: self.ranks[i], dist: self.dists[i] }
    }

    /// Iterates the entries by value, sorted by rank.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = LabelEntry> + 'a {
        self.ranks
            .iter()
            .zip(self.dists.iter())
            .map(|(&landmark, &dist)| LabelEntry { landmark, dist })
    }

    /// Collects the entries into a `Vec` (test / debug helper).
    pub fn to_vec(&self) -> Vec<LabelEntry> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for LabelRef<'a> {
    type Item = LabelEntry;
    type IntoIter = std::iter::Map<
        std::iter::Zip<std::slice::Iter<'a, u8>, std::slice::Iter<'a, u8>>,
        fn((&'a u8, &'a u8)) -> LabelEntry,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.ranks
            .iter()
            .zip(self.dists.iter())
            .map(|(&landmark, &dist)| LabelEntry { landmark, dist })
    }
}

impl std::fmt::Debug for LabelRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Per-vertex label store, in shared chunks (see the module docs).
/// Landmark vertices have empty labels — their distances live in the
/// [`Highway`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HighwayLabels {
    /// Each chunk is shared with every store edited from this one that did
    /// not change a row in it.
    chunks: ChunkTable,
    /// Number of vertices `n`.
    n: usize,
    /// Entries over all labels.
    total_entries: usize,
}

/// Label size accounting schemes from §5.2 / Table 3 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabelEncoding {
    /// 32-bit landmark id + 8-bit distance per entry ("HL" in Table 3; the
    /// encoding FD and PLL use, kept for fair comparison).
    Wide32,
    /// 8-bit landmark id + 8-bit distance per entry ("HL(8)"): the layout
    /// the store itself uses.
    Compact8,
}

impl HighwayLabels {
    /// Cuts flat lanes — `offsets[v]..offsets[v + 1]` indexing `v`'s label
    /// in `ranks` and `dists` — into chunks.
    pub(crate) fn from_parts(offsets: Vec<u32>, ranks: Vec<u8>, dists: Vec<u8>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, ranks.len());
        debug_assert_eq!(ranks.len(), dists.len());
        let n = offsets.len() - 1;
        let chunks = (0..n.div_ceil(CHUNK_VERTICES))
            .map(|c| {
                // The chunk's `k` rows, as `k + 1` offsets into the lanes.
                let spans = &offsets[c * CHUNK_VERTICES..=n.min((c + 1) * CHUNK_VERTICES)];
                let (head, base) = (4 * spans.len(), spans[0] as usize);
                let end = head + 2 * (spans[spans.len() - 1] as usize - base);
                assert!(u32::try_from(end).is_ok(), "a chunk's byte offsets fit in 32 bits");
                let mut chunk: Chunk = std::iter::repeat_n(0, end.div_ceil(4)).collect();
                let words = Arc::get_mut(&mut chunk).expect("a new chunk is unshared");
                for (word, &o) in words.iter_mut().zip(spans) {
                    *word = (head + 2 * (o as usize - base)) as u32;
                }
                let out = bytes_mut(words);
                for span in spans.windows(2) {
                    let (lo, hi) = (span[0] as usize, span[1] as usize);
                    let at = head + 2 * (lo - base);
                    out[at..at + hi - lo].copy_from_slice(&ranks[lo..hi]);
                    out[at + hi - lo..at + 2 * (hi - lo)].copy_from_slice(&dists[lo..hi]);
                }
                chunk
            })
            .collect();
        HighwayLabels { chunks: ChunkTable::new(chunks), n, total_entries: ranks.len() }
    }

    /// Number of vertices the store covers.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Chunks of `self` that are not the same allocation as the chunk in
    /// the same place of `other`: for a store edited from `other`, the
    /// chunks the edits copied.
    pub fn chunks_not_shared_with(&self, other: &HighwayLabels) -> usize {
        self.chunks.not_shared_with(&other.chunks)
    }

    /// This store with the given vertices' labels replaced wholesale: each
    /// chunk that holds a replaced row is rebuilt once, and every other
    /// chunk is shared with `self` (all of them, for an empty patch). The
    /// rows must come by ascending, distinct vertex id, each sorted
    /// strictly by rank, as `(rank, dist)` pairs.
    pub(crate) fn with_rows(&self, rows: &[(VertexId, Vec<(u8, u8)>)]) -> HighwayLabels {
        debug_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "ascending, distinct vertices");
        if rows.is_empty() {
            return self.clone();
        }
        let mut total_entries = self.total_entries;
        let chunks = self.chunks.edited(|table| {
            for group in rows.chunk_by(|a, b| chunks::locate(a.0).0 == chunks::locate(b.0).0) {
                let c = chunks::locate(group[0].0).0;
                for (v, row) in group {
                    let replaced = lanes(&table[c], chunks::locate(*v).1).0.len();
                    total_entries = total_entries + row.len() - replaced;
                }
                table[c] = patched_chunk(&table[c], group);
            }
        });
        HighwayLabels { chunks, n: self.n, total_entries }
    }

    /// The label of `v`, sorted by landmark rank.
    #[inline]
    pub fn label(&self, v: VertexId) -> LabelRef<'_> {
        let (ranks, dists) = self.label_lanes(v);
        LabelRef { ranks, dists }
    }

    /// The raw rank and dist lanes of `v`'s label (parallel slices, sorted
    /// strictly by rank). This is the merge's entry point: the two lanes are
    /// contiguous byte runs the autovectorizer can stream.
    #[inline]
    pub fn label_lanes(&self, v: VertexId) -> (&[u8], &[u8]) {
        let (c, i) = chunks::locate(v);
        lanes(&self.chunks[c], i)
    }

    /// Total number of entries `size(L)` (the paper's labelling size "LS").
    #[inline]
    pub fn total_entries(&self) -> usize {
        self.total_entries
    }

    /// Average entries per vertex ("ALS" in Table 2).
    pub fn avg_label_size(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.total_entries as f64 / self.num_vertices() as f64
        }
    }

    /// Maximum entries in any single label.
    pub fn max_label_size(&self) -> usize {
        (0..self.num_vertices() as VertexId).map(|v| self.label(v).len()).max().unwrap_or(0)
    }

    /// Bytes of the chunks: one 32-bit offset per vertex and one more per
    /// chunk, both lanes, and under a word of padding per chunk.
    pub fn memory_bytes(&self) -> usize {
        self.chunks.bytes()
    }

    /// Bytes in the rank lane alone (observability: STATS counters).
    pub fn rank_lane_bytes(&self) -> usize {
        self.total_entries * std::mem::size_of::<u8>()
    }

    /// Bytes in the dist lane alone (observability: STATS counters).
    pub fn dist_lane_bytes(&self) -> usize {
        self.total_entries * std::mem::size_of::<u8>()
    }

    /// Size in bytes of this labelling under the given Table 3 encoding
    /// (entries only, plus one offset per vertex as in the C++ baselines'
    /// per-vertex arrays). Every store fits both: its ranks and distances
    /// are bytes.
    pub fn encoded_bytes(&self, encoding: LabelEncoding) -> usize {
        let per_entry = match encoding {
            LabelEncoding::Wide32 => 5,
            LabelEncoding::Compact8 => 2,
        };
        self.total_entries * per_entry + (self.n + 1) * std::mem::size_of::<u32>()
    }

    /// Iterates `(vertex, entry)` over all labels (test / debug helper).
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, LabelEntry)> + '_ {
        (0..self.num_vertices())
            .flat_map(move |v| self.label(v as VertexId).iter().map(move |e| (v as VertexId, e)))
    }

    /// Checks internal invariants: sorted, duplicate-free labels whose ranks
    /// are valid for `highway`, and empty labels on landmarks. Used by tests
    /// and debug assertions.
    pub fn validate(&self, highway: &Highway) -> Result<(), String> {
        let r = highway.num_landmarks();
        for v in 0..self.num_vertices() as VertexId {
            let (ranks, _) = self.label_lanes(v);
            if highway.is_landmark(v) && !ranks.is_empty() {
                return Err(format!("landmark {v} has a non-empty label"));
            }
            for w in ranks.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("label of {v} not strictly sorted by rank"));
                }
            }
            for &rank in ranks {
                if rank as usize >= r {
                    return Err(format!("label of {v} references rank {rank} >= |R|"));
                }
            }
        }
        Ok(())
    }
}

/// `old` with the rows of `group` — vertices of its chunk, ascending —
/// in place of its own: the kept rows between two replaced ones move as
/// one byte run, and the offsets after a replaced row shift by the bytes
/// it gained or lost.
fn patched_chunk(old: &[u32], group: &[(VertexId, Vec<(u8, u8)>)]) -> Chunk {
    let k = old[0] as usize / 4 - 1;
    let local = |v: VertexId| chunks::locate(v).1;
    let row_bytes = |i: usize| (old[i + 1] - old[i]) as usize;
    let end = group
        .iter()
        .fold(old[k] as usize, |end, (v, row)| end + 2 * row.len() - row_bytes(local(*v)));
    assert!(u32::try_from(end).is_ok(), "a chunk's byte offsets fit in 32 bits");
    let mut chunk: Chunk = std::iter::repeat_n(0, end.div_ceil(4)).collect();
    let words = Arc::get_mut(&mut chunk).expect("a new chunk is unshared");
    // `shift` wraps instead of going signed.
    let mut replaced = group.iter().map(|(v, row)| (local(*v), row.len())).peekable();
    let mut shift = 0u32;
    for (i, (word, &o)) in words.iter_mut().zip(&old[..=k]).enumerate() {
        *word = o.wrapping_add(shift);
        if let Some((_, len)) = replaced.next_if(|&(j, _)| j == i) {
            shift = shift.wrapping_add(2 * len as u32).wrapping_sub(row_bytes(i) as u32);
        }
    }
    let (src, out) = (bytes(old), bytes_mut(words));
    // `from` and `to`: where the next run of kept rows starts in `old`
    // and in the new chunk.
    let (mut from, mut to) = (4 * (k + 1), 4 * (k + 1));
    for (v, row) in group {
        let i = local(*v);
        let kept = old[i] as usize - from;
        out[to..to + kept].copy_from_slice(&src[from..from + kept]);
        to += kept;
        let (ranks, dists) = out[to..to + 2 * row.len()].split_at_mut(row.len());
        for ((r, d), &(rank, dist)) in ranks.iter_mut().zip(dists).zip(row) {
            (*r, *d) = (rank, dist);
        }
        to += 2 * row.len();
        from = old[i + 1] as usize;
    }
    out[to..end].copy_from_slice(&src[from..old[k] as usize]);
    chunk
}

/// The rank and dist lanes of row `i` of `chunk`.
#[inline]
fn lanes(chunk: &[u32], i: usize) -> (&[u8], &[u8]) {
    let row = &bytes(chunk)[chunk[i] as usize..chunk[i + 1] as usize];
    row.split_at(row.len() / 2)
}

/// `words` as bytes.
#[inline]
fn bytes(words: &[u32]) -> &[u8] {
    // SAFETY: `u8` has alignment 1 and accepts any bit pattern, and the
    // byte slice covers exactly the words' memory, borrowed for as long.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), std::mem::size_of_val(words)) }
}

/// `words` as mutable bytes.
fn bytes_mut(words: &mut [u32]) -> &mut [u8] {
    // SAFETY: as in `bytes`, and any bytes written leave valid `u32`s.
    unsafe {
        std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), std::mem::size_of_val(words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> HighwayLabels {
        // v0: [(0,1),(2,3)]; v1: []; v2: [(1,2)]
        HighwayLabels::from_parts(vec![0, 2, 2, 3], vec![0, 2, 1], vec![1, 3, 2])
    }

    #[test]
    fn label_access() {
        let l = sample();
        assert_eq!(l.num_vertices(), 3);
        assert_eq!(l.label(0).len(), 2);
        assert!(l.label(1).is_empty());
        assert_eq!(l.label(2).get(0), LabelEntry { landmark: 1, dist: 2 });
        assert_eq!(l.total_entries(), 3);
        assert!((l.avg_label_size() - 1.0).abs() < 1e-12);
        assert_eq!(l.max_label_size(), 2);
    }

    #[test]
    fn lanes_are_parallel_slices() {
        let l = sample();
        let (ranks, dists) = l.label_lanes(0);
        assert_eq!(ranks, &[0, 2]);
        assert_eq!(dists, &[1, 3]);
        assert_eq!(l.rank_lane_bytes(), 3);
        assert_eq!(l.dist_lane_bytes(), 3);
    }

    #[test]
    fn encoded_sizes() {
        let l = sample();
        // Wide32: 3 entries * 5 bytes + 4 offsets * 4 bytes.
        assert_eq!(l.encoded_bytes(LabelEncoding::Wide32), 31);
        // Compact8: 3 entries * 2 bytes + 16.
        assert_eq!(l.encoded_bytes(LabelEncoding::Compact8), 22);
        // One chunk: 4 offsets, then 6 lane bytes padded to 8.
        assert_eq!(l.memory_bytes(), 24);
    }

    /// The store `from_parts` builds from whole labels, one per vertex.
    fn fresh(labels: &[Vec<(u8, u8)>]) -> HighwayLabels {
        let mut offsets = vec![0];
        let (mut ranks, mut dists) = (Vec::new(), Vec::new());
        for row in labels {
            ranks.extend(row.iter().map(|&(r, _)| r));
            dists.extend(row.iter().map(|&(_, d)| d));
            offsets.push(ranks.len() as u32);
        }
        HighwayLabels::from_parts(offsets, ranks, dists)
    }

    /// Whether `a` and `b` hold the same words, whatever they share.
    fn same_words(a: &HighwayLabels, b: &HighwayLabels) -> bool {
        a.chunks.iter().map(|c| &c[..]).eq(b.chunks.iter().map(|c| &c[..]))
    }

    #[test]
    fn from_parts_cuts_flat_lanes_at_chunk_boundaries() {
        for n in [0, 1, CHUNK_VERTICES - 1, CHUNK_VERTICES, CHUNK_VERTICES + 1, 2 * CHUNK_VERTICES]
        {
            // Vertex `v` has `v % 3` entries: ranks 0, 1, … at distance `v`.
            let labels: Vec<Vec<(u8, u8)>> =
                (0..n).map(|v| (0..(v % 3) as u8).map(|r| (r, v as u8)).collect()).collect();
            let l = fresh(&labels);
            let entries: usize = labels.iter().map(Vec::len).sum();
            let chunks = n.div_ceil(CHUNK_VERTICES);
            assert_eq!((l.num_vertices(), l.total_entries(), l.chunks.len()), (n, entries, chunks));
            for (v, want) in labels.iter().enumerate() {
                let (ranks, dists) = l.label_lanes(v as VertexId);
                assert!(ranks.iter().zip(dists).map(|(&r, &d)| (r, d)).eq(want.iter().copied()));
            }
            // Offsets, both lanes, and under a word of padding per chunk.
            let unpadded = 4 * (n + chunks) + 2 * entries;
            assert!((unpadded..=unpadded + 3 * chunks).contains(&l.memory_bytes()), "n={n}");
        }
    }

    #[test]
    fn patched_replaces_rows_and_shifts_offsets() {
        let l = sample();
        let p = l.with_rows(&[(0, vec![(1, 9)]), (1, vec![(0, 4), (3, 5)])]);
        assert_eq!(p.label(0).to_vec(), vec![LabelEntry { landmark: 1, dist: 9 }]);
        assert_eq!(
            p.label(1).to_vec(),
            vec![LabelEntry { landmark: 0, dist: 4 }, LabelEntry { landmark: 3, dist: 5 }]
        );
        assert_eq!(p.label(2).to_vec(), l.label(2).to_vec());
        assert_eq!(
            (p.total_entries(), p.max_label_size(), p.memory_bytes()),
            (4, 2, 4 * 4 + 4 * 2)
        );
        let built = fresh(&[vec![(1, 9)], vec![(0, 4), (3, 5)], vec![(1, 2)]]);
        assert!(p == built && same_words(&p, &built), "an edited store is a fresh build");
        assert_eq!(&p.chunks[0][..4], &[16, 18, 22, 24], "byte offsets move with the rows");
        assert_eq!(p.chunks_not_shared_with(&l), 1);
        assert_eq!(l.label(0).len(), 2, "the parent still answers for its own rows");
        // Emptying a row shifts everything after it left.
        let q = l.with_rows(&[(0, vec![])]);
        assert_eq!(q.total_entries(), 1);
        assert!(same_words(&q, &fresh(&[vec![], vec![], vec![(1, 2)]])));
        // Replacing a replaced row counts its entries once.
        let r = p.with_rows(&[(1, vec![(2, 7)])]);
        assert_eq!((r.total_entries(), r.iter().count()), (3, 3));
        assert!(same_words(&r, &fresh(&[vec![(1, 9)], vec![(2, 7)], vec![(1, 2)]])));
        // The empty patch shares everything.
        assert_eq!(l.with_rows(&[]).chunks_not_shared_with(&l), 0);
    }

    #[test]
    fn a_long_patch_chain_copies_only_the_touched_chunks() {
        let n = 3 * CHUNK_VERTICES + 5;
        let row = |v: VertexId| vec![(0, (v % 255) as u8 + 1)];
        let empty = HighwayLabels::from_parts(vec![0; n + 1], Vec::new(), Vec::new());
        let mut l = empty.clone();
        for v in 0..n as VertexId {
            let next = l.with_rows(&[(v, row(v))]);
            assert_eq!(next.chunks_not_shared_with(&l), 1, "row {v}");
            assert_eq!(l.total_entries(), v as usize, "the parent is untouched");
            l = next;
        }
        assert_eq!(l.chunks_not_shared_with(&empty), 4, "every chunk was edited");
        let built = fresh(&(0..n as VertexId).map(row).collect::<Vec<_>>());
        assert!(l == built && same_words(&l, &built) && l.total_entries() == n);
    }

    /// Per-test case count: the default for tier-1, `HCL_PROPTEST_CASES`
    /// for the soak job.
    fn cases(default: u32) -> ProptestConfig {
        let n = std::env::var("HCL_PROPTEST_CASES").ok().and_then(|s| s.parse().ok());
        ProptestConfig::with_cases(n.unwrap_or(default))
    }

    proptest! {
        #![proptest_config(cases(16))]

        /// Random row patches over stores of three to four chunks, the
        /// last one partial: every edited store is word for word a fresh
        /// `from_parts` build of its labels, copies exactly the chunks
        /// that hold a changed row, and leaves its parent untouched.
        /// Patched vertices come from both sides of every chunk boundary,
        /// from the last vertex, and at random.
        #[test]
        fn row_patches_rebuild_only_the_touched_chunks(
            full_chunks in 2usize..4,
            tail in 1usize..CHUNK_VERTICES,
            seed in 0u64..1 << 32,
            script in proptest::collection::vec(
                proptest::collection::vec((0u8..3, 0u32..1 << 20, 0u8..8, 0u64..1 << 40), 0..12),
                1..12,
            ),
        ) {
            let n = full_chunks * CHUNK_VERTICES + tail;
            // `len` entries drawn from `bits`: ranks rising by 1 to 4.
            let label = |len: u8, bits: u64| -> Vec<(u8, u8)> {
                (0..len as u64)
                    .scan((bits % 7) as u8, |rank, j| {
                        *rank += 1 + (bits >> (j % 7) & 3) as u8;
                        Some((*rank, (bits >> (j % 5 * 8)) as u8))
                    })
                    .collect()
            };
            let mut labels: Vec<Vec<(u8, u8)>> =
                (0..n).map(|v| label((v as u64 ^ seed) as u8 % 4, seed ^ v as u64)).collect();
            let mut store = fresh(&labels);
            let boundaries: Vec<usize> =
                (1..=full_chunks).flat_map(|c| [c * CHUNK_VERTICES - 1, c * CHUNK_VERTICES]).collect();
            for patch in &script {
                let rows: std::collections::BTreeMap<VertexId, _> = patch
                    .iter()
                    .map(|&(kind, x, len, bits)| {
                        let v = match kind {
                            0 => boundaries[x as usize % boundaries.len()],
                            1 => n - 1,
                            _ => x as usize % n,
                        };
                        (v as VertexId, label(len, bits))
                    })
                    .collect();
                let rows: Vec<(VertexId, Vec<(u8, u8)>)> = rows.into_iter().collect();
                let next = store.with_rows(&rows);
                let touched: std::collections::BTreeSet<usize> =
                    rows.iter().map(|&(v, _)| chunks::locate(v).0).collect();
                prop_assert_eq!(next.chunks_not_shared_with(&store), touched.len());
                // The parent still holds its own words.
                prop_assert!(same_words(&store, &fresh(&labels)));
                for (v, row) in rows {
                    labels[v as usize] = row;
                }
                let built = fresh(&labels);
                prop_assert!(same_words(&next, &built) && next == built, "patch {:?}", patch);
                store = next;
            }
        }
    }

    #[test]
    fn iter_walks_all_entries() {
        let l = sample();
        let all: Vec<_> = l.iter().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].0, 0);
        assert_eq!(all[2], (2, LabelEntry { landmark: 1, dist: 2 }));
    }
}
