//! The distance label store.
//!
//! Labels live in a flat CSR-like layout: one offset array indexed by
//! vertex, plus two contiguous **lanes** — one `u16` lane of landmark ranks
//! and one `u16` lane of distances (structure-of-arrays). Per-vertex label
//! slices are sorted by rank so queries can merge two labels with a single
//! linear pass, and the split lanes let the Lemma 5.1 merge loops run over
//! dense same-type data the compiler can autovectorize.
//!
//! [`LabelEntry`] remains the logical unit — [`HighwayLabels::label`]
//! returns a [`LabelRef`] that yields entries by value — but nothing in the
//! hot path materialises `(rank, dist)` pairs; the merge reads the lanes
//! directly via [`HighwayLabels::label_lanes`].
//!
//! # Base + overlay
//!
//! The three arrays are immutable and shared; cloning a store copies no
//! label. An edge edit moves the labels of the affected vertices only, so
//! `HighwayLabels::with_rows` returns a store that keeps the parent's
//! arrays and records the replaced rows in a [`RowOverlay`], probed before
//! the base lanes on every access — `O(rows)` per edit, one predictable
//! `overlay.is_empty()` branch per access on a store that was never
//! edited. Past [`HighwayLabels::OVERLAY_MAX_ROWS`] rows the store folds
//! back into flat lanes ([`HighwayLabels::folded`]). Every accessor —
//! sizes included — answers for the logical store.
//!
//! §5.2 of the paper compares a 32-bit-vertex/8-bit-distance encoding ("HL")
//! with an 8-bit/8-bit one ("HL(8)"); [`HighwayLabels::encoded_bytes`]
//! reports the size of the labelling under either scheme for Table 3.

use crate::highway::Highway;
use hcl_graph::overlay::RowOverlay;
use hcl_graph::VertexId;
use std::sync::Arc;

/// One distance entry `(r, δL(r, v))` in a vertex's label.
///
/// `landmark` is the landmark's *rank* (index into
/// [`Highway::landmarks`]); `dist` is the exact graph distance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LabelEntry {
    /// Rank of the landmark in the highway.
    pub landmark: u16,
    /// Exact distance from the landmark to the labelled vertex.
    pub dist: u16,
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
    pub ranks: &'a [u16],
    /// Distances, parallel to `ranks`.
    pub dists: &'a [u16],
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
        std::iter::Zip<std::slice::Iter<'a, u16>, std::slice::Iter<'a, u16>>,
        fn((&'a u16, &'a u16)) -> LabelEntry,
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

/// Flat per-vertex label store. Landmark vertices have empty labels — their
/// distances live in the [`Highway`].
#[derive(Clone, Debug)]
pub struct HighwayLabels {
    /// Base arrays, shared with every store edited from this one since
    /// the last fold (`Arc<Vec<_>>`: sharing a built `Vec` must not copy
    /// it).
    offsets: Arc<Vec<u32>>,
    ranks: Arc<Vec<u16>>,
    dists: Arc<Vec<u16>>,
    /// Replaced rows: the rank lane followed by the dist lane, so a row of
    /// `k` entries is `2k` words and splits in the middle.
    overlay: RowOverlay<Arc<[u16]>>,
    /// Entries of the logical store.
    total_entries: usize,
}

/// Label size accounting schemes from §5.2 / Table 3 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabelEncoding {
    /// 32-bit landmark id + 8-bit distance per entry ("HL" in Table 3; the
    /// encoding FD and PLL use, kept for fair comparison).
    Wide32,
    /// 8-bit landmark id + 8-bit distance per entry ("HL(8)"); valid only
    /// when there are at most 256 landmarks and all distances fit in 8 bits.
    Compact8,
}

impl HighwayLabels {
    /// Most rows the overlay holds before the store folds. A label is
    /// read twice per query, not hundreds of times like an adjacency row,
    /// so the table may be larger than the graph's: 1024 rows keep a
    /// clone-per-edit under ~50 KB and absorb the few-hundred-vertex
    /// affected sets typical of one edge edit on a complex network.
    pub const OVERLAY_MAX_ROWS: usize = 1024;

    pub(crate) fn from_parts(offsets: Vec<u32>, ranks: Vec<u16>, dists: Vec<u16>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, ranks.len());
        debug_assert_eq!(ranks.len(), dists.len());
        let total_entries = ranks.len();
        HighwayLabels {
            offsets: Arc::new(offsets),
            ranks: Arc::new(ranks),
            dists: Arc::new(dists),
            overlay: RowOverlay::default(),
            total_entries,
        }
    }

    /// Number of vertices the store covers.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Rows currently held in the overlay (0 for a flat store).
    pub fn overlay_rows(&self) -> usize {
        self.overlay.len()
    }

    /// This store with the given vertices' labels replaced wholesale,
    /// sharing every other row with `self`: `O(rows)`, or one fold when
    /// the overlay would outgrow [`OVERLAY_MAX_ROWS`](Self::OVERLAY_MAX_ROWS).
    /// Each replacement row must be sorted strictly by rank, as
    /// `(rank, dist)` pairs.
    pub(crate) fn with_rows(&self, rows: &[(VertexId, Vec<(u16, u16)>)]) -> HighwayLabels {
        let mut next = self.clone();
        for (v, row) in rows {
            let replaced = next.label_lanes(*v).0.len();
            let lanes: Arc<[u16]> =
                row.iter().map(|&(r, _)| r).chain(row.iter().map(|&(_, d)| d)).collect();
            next.overlay.insert(*v, lanes);
            next.total_entries = next.total_entries + row.len() - replaced;
        }
        if next.overlay.len() > Self::OVERLAY_MAX_ROWS {
            next.folded()
        } else {
            next
        }
    }

    /// The same logical store as flat lanes with an empty overlay: the
    /// base lanes between replaced rows are copied in bulk chunks and the
    /// offsets shifted in one linear pass, so the cost is `O(n)` memcpy
    /// work plus the replaced rows themselves. A flat store folds to a
    /// handle on the same arrays.
    pub fn folded(&self) -> HighwayLabels {
        if self.overlay.is_empty() {
            return self.clone();
        }
        let mut ranks = Vec::with_capacity(self.total_entries);
        let mut dists = Vec::with_capacity(self.total_entries);
        let mut offsets = Vec::with_capacity(self.offsets.len());
        // Base offsets of vertices `from..=v` move by the rows replaced
        // before them; `shift` wraps instead of going signed.
        let (mut src, mut from, mut shift) = (0usize, 0usize, 0u32);
        for (v, row) in self.overlay.sorted() {
            let v = v as usize;
            let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
            let (row_ranks, row_dists) = row.split_at(row.len() / 2);
            ranks.extend_from_slice(&self.ranks[src..lo]);
            ranks.extend_from_slice(row_ranks);
            dists.extend_from_slice(&self.dists[src..lo]);
            dists.extend_from_slice(row_dists);
            src = hi;
            offsets.extend(self.offsets[from..=v].iter().map(|&o| o.wrapping_add(shift)));
            shift = shift.wrapping_add(row_ranks.len() as u32).wrapping_sub((hi - lo) as u32);
            from = v + 1;
        }
        ranks.extend_from_slice(&self.ranks[src..]);
        dists.extend_from_slice(&self.dists[src..]);
        offsets.extend(self.offsets[from..].iter().map(|&o| o.wrapping_add(shift)));
        HighwayLabels::from_parts(offsets, ranks, dists)
    }

    /// The label of `v`, sorted by landmark rank.
    #[inline]
    pub fn label(&self, v: VertexId) -> LabelRef<'_> {
        let (ranks, dists) = self.label_lanes(v);
        LabelRef { ranks, dists }
    }

    /// The raw rank and dist lanes of `v`'s label (parallel slices, sorted
    /// strictly by rank). This is the merge's entry point: the two lanes are
    /// contiguous `u16` runs the autovectorizer can stream.
    #[inline]
    pub fn label_lanes(&self, v: VertexId) -> (&[u16], &[u16]) {
        if let Some(row) = self.overlay.get(v) {
            return row.split_at(row.len() / 2);
        }
        let v = v as usize;
        let lo = self.offsets[v] as usize;
        let hi = self.offsets[v + 1] as usize;
        (&self.ranks[lo..hi], &self.dists[lo..hi])
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

    /// Bytes of the flat representation of the logical store (offsets +
    /// both lanes) — what [`folded`](Self::folded) would occupy.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.rank_lane_bytes()
            + self.dist_lane_bytes()
    }

    /// Bytes in the rank lane alone (observability: STATS counters).
    pub fn rank_lane_bytes(&self) -> usize {
        self.total_entries * std::mem::size_of::<u16>()
    }

    /// Bytes in the dist lane alone (observability: STATS counters).
    pub fn dist_lane_bytes(&self) -> usize {
        self.total_entries * std::mem::size_of::<u16>()
    }

    /// Size in bytes of this labelling under the given Table 3 encoding
    /// (entries only, plus one offset per vertex as in the C++ baselines'
    /// per-vertex arrays). Returns `None` if the labelling does not fit the
    /// encoding (e.g. >256 landmarks or a distance >255 under
    /// [`LabelEncoding::Compact8`]).
    pub fn encoded_bytes(&self, encoding: LabelEncoding) -> Option<usize> {
        let wide = |lane: fn(LabelEntry) -> u16| self.iter().any(|(_, e)| lane(e) > u8::MAX as u16);
        let per_entry = match encoding {
            LabelEncoding::Wide32 => {
                if wide(|e| e.dist) {
                    return None;
                }
                5
            }
            LabelEncoding::Compact8 => {
                if wide(|e| e.landmark) || wide(|e| e.dist) {
                    return None;
                }
                2
            }
        };
        Some(self.total_entries * per_entry + self.offsets.len() * std::mem::size_of::<u32>())
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
        let r = highway.num_landmarks() as u16;
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
                if rank >= r {
                    return Err(format!("label of {v} references rank {rank} >= |R|"));
                }
            }
        }
        Ok(())
    }
}

/// Equality of the logical stores, however their rows are split between
/// base and overlay.
impl PartialEq for HighwayLabels {
    fn eq(&self, other: &HighwayLabels) -> bool {
        if self.num_vertices() != other.num_vertices() || self.total_entries != other.total_entries
        {
            return false;
        }
        if self.overlay.is_empty() && other.overlay.is_empty() {
            return self.offsets == other.offsets
                && self.ranks == other.ranks
                && self.dists == other.dists;
        }
        (0..self.num_vertices() as VertexId).all(|v| self.label_lanes(v) == other.label_lanes(v))
    }
}

impl Eq for HighwayLabels {}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(l.rank_lane_bytes(), 6);
        assert_eq!(l.dist_lane_bytes(), 6);
    }

    #[test]
    fn encoded_sizes() {
        let l = sample();
        // Wide32: 3 entries * 5 bytes + 4 offsets * 4 bytes.
        assert_eq!(l.encoded_bytes(LabelEncoding::Wide32), Some(31));
        // Compact8: 3 entries * 2 bytes + 16.
        assert_eq!(l.encoded_bytes(LabelEncoding::Compact8), Some(22));
    }

    #[test]
    fn encoded_rejects_overflow() {
        let l = HighwayLabels::from_parts(vec![0, 1], vec![300], vec![300]);
        assert_eq!(l.encoded_bytes(LabelEncoding::Compact8), None);
        assert_eq!(l.encoded_bytes(LabelEncoding::Wide32), None);
    }

    #[test]
    fn patched_replaces_rows_and_shifts_offsets() {
        let l = sample();
        let p = l.with_rows(&[(0, vec![(1, 9)]), (1, vec![(0, 4), (3, 5)])]);
        // Checked on the overlaid store and again on its fold.
        for p in [p.clone(), p.folded()] {
            assert_eq!(p.label(0).to_vec(), vec![LabelEntry { landmark: 1, dist: 9 }]);
            assert_eq!(
                p.label(1).to_vec(),
                vec![LabelEntry { landmark: 0, dist: 4 }, LabelEntry { landmark: 3, dist: 5 }]
            );
            assert_eq!(p.label(2).to_vec(), l.label(2).to_vec());
            assert_eq!(p.total_entries(), 4);
            assert_eq!(p.max_label_size(), 2);
            assert_eq!(p.memory_bytes(), 4 * 4 + 4 * 4);
            assert_eq!(p.encoded_bytes(LabelEncoding::Compact8), Some(4 * 2 + 16));
        }
        assert_eq!(p.overlay_rows(), 2);
        assert_eq!(p.folded().overlay_rows(), 0);
        assert_eq!(p, p.folded(), "equality is logical, not structural");
        assert_eq!(p.folded().offsets.as_slice(), &[0, 1, 3, 4]);
        assert!(Arc::ptr_eq(&p.ranks, &l.ranks), "an overlaid store shares its parent's lanes");
        assert_eq!(l.label(0).len(), 2, "the parent still answers for its own rows");
        // Emptying a row shifts everything after it left.
        let q = l.with_rows(&[(0, vec![])]);
        assert!(q.label(0).is_empty() && q.folded().label(0).is_empty());
        assert_eq!(q.folded().label(2).to_vec(), l.label(2).to_vec());
        assert_eq!(q.total_entries(), 1);
        // Replacing a replaced row counts its entries once.
        let r = p.with_rows(&[(1, vec![(2, 7)])]);
        assert_eq!(r.total_entries(), 3);
        assert_eq!(r.overlay_rows(), 2);
        assert_eq!(r.folded().iter().count(), 3);
        // The empty patch shares everything and equals its parent.
        assert_eq!(l.with_rows(&[]), l);
        assert!(Arc::ptr_eq(&l.folded().ranks, &l.ranks), "folding a flat store copies nothing");
        // An overflowing label disqualifies the narrow encodings.
        assert_eq!(p.with_rows(&[(2, vec![(0, 300)])]).encoded_bytes(LabelEncoding::Wide32), None);
    }

    #[test]
    fn the_patch_that_crosses_the_overlay_bound_folds() {
        let n = HighwayLabels::OVERLAY_MAX_ROWS + 5;
        let mut l = HighwayLabels::from_parts(vec![0; n + 1], Vec::new(), Vec::new());
        for v in 0..n as VertexId {
            let before = l.overlay_rows();
            l = l.with_rows(&[(v, vec![(0, v as u16 + 1)])]);
            assert!(l.overlay_rows() <= HighwayLabels::OVERLAY_MAX_ROWS);
            assert!(l.overlay_rows() > before || l.overlay_rows() == 0);
        }
        assert_eq!(l.overlay_rows(), 4, "folded once, at row OVERLAY_MAX_ROWS + 1");
        assert_eq!(l.total_entries(), n);
        for v in 0..n as VertexId {
            assert_eq!(l.label(v).to_vec(), vec![LabelEntry { landmark: 0, dist: v as u16 + 1 }]);
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
