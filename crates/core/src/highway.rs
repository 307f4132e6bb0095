//! The highway structure `H = (R, δH)` (Definition 3.1): a landmark set plus
//! a *distance decoding function* giving the exact pairwise landmark
//! distances.

use hcl_graph::{VertexId, INF};
use std::sync::Arc;

/// A highway over a graph: the ordered landmark list, a vertex→rank lookup
/// table, and the dense `|R| × |R|` matrix of exact pairwise distances.
///
/// Landmark *ranks* (positions in the landmark list) are the ids stored in
/// label entries; the rank order is purely presentational — the labelling
/// itself is order-independent (Lemma 3.11).
///
/// An edge edit can move matrix cells but never the landmark set, so the
/// landmark list and the `O(n)` rank table are shared by every highway
/// derived from this one (`with_cells`, how an edit moves cells); only the
/// `|R|²` matrix is per value, and cloning a highway costs `O(|R|²)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Highway {
    landmarks: Arc<Vec<VertexId>>,
    /// `rank_of[v]` = rank of `v` if `v` is a landmark, else `u32::MAX`.
    rank_of: Arc<Vec<u32>>,
    /// Row-major `|R| × |R|` distance matrix; `INF` for disconnected pairs.
    dist: Vec<u32>,
}

impl Highway {
    pub(crate) const NOT_A_LANDMARK: u32 = u32::MAX;

    /// Creates a highway with all pairwise distances unset (`INF` except the
    /// zero diagonal). The builder fills distances in and then calls
    /// [`close`](Highway::close).
    pub(crate) fn new(n: usize, landmarks: &[VertexId]) -> Self {
        let r = landmarks.len();
        let mut rank_of = vec![Self::NOT_A_LANDMARK; n];
        for (i, &v) in landmarks.iter().enumerate() {
            rank_of[v as usize] = i as u32;
        }
        Highway {
            landmarks: Arc::new(landmarks.to_vec()),
            rank_of: Arc::new(rank_of),
            dist: unset_matrix(r),
        }
    }

    /// A highway over the same landmarks (sharing the list and the rank
    /// table) with every pairwise distance unset again, for
    /// [`record`](Highway::record) and [`close`](Highway::close) to fill.
    pub(crate) fn unset(&self) -> Highway {
        Highway {
            landmarks: Arc::clone(&self.landmarks),
            rank_of: Arc::clone(&self.rank_of),
            dist: unset_matrix(self.landmarks.len()),
        }
    }

    /// This highway with the given cells `(rank_a, rank_b, distance)`
    /// overwritten, symmetrically — how a [`LabelPatch`](crate::update::LabelPatch)
    /// carries a moved landmark pair to another copy of the index.
    pub(crate) fn with_cells(&self, cells: &[(u32, u32, u32)]) -> Highway {
        let mut next = self.clone();
        let r = self.landmarks.len();
        for &(a, b, d) in cells {
            let (a, b) = (a as usize, b as usize);
            next.dist[a * r + b] = d;
            next.dist[b * r + a] = d;
        }
        next
    }

    /// Number of landmarks `|R|`.
    #[inline]
    pub fn num_landmarks(&self) -> usize {
        self.landmarks.len()
    }

    /// The landmark vertex with the given rank.
    #[inline]
    pub fn landmark(&self, rank: u32) -> VertexId {
        self.landmarks[rank as usize]
    }

    /// All landmarks in rank order.
    #[inline]
    pub fn landmarks(&self) -> &[VertexId] {
        &self.landmarks
    }

    /// The rank of `v` if it is a landmark.
    #[inline]
    pub fn rank(&self, v: VertexId) -> Option<u32> {
        match self.rank_of.get(v as usize) {
            Some(&r) if r != Self::NOT_A_LANDMARK => Some(r),
            _ => None,
        }
    }

    /// Whether `v` is a landmark.
    #[inline]
    pub fn is_landmark(&self, v: VertexId) -> bool {
        matches!(self.rank_of.get(v as usize), Some(&r) if r != Self::NOT_A_LANDMARK)
    }

    /// Exact distance between two landmarks, by rank (`INF` if disconnected).
    #[inline]
    pub fn distance(&self, rank_a: u32, rank_b: u32) -> u32 {
        self.dist[rank_a as usize * self.landmarks.len() + rank_b as usize]
    }

    /// The distance-matrix row of `rank`: `row(a)[b as usize]` equals
    /// [`distance(a, b)`](Self::distance). Hoisting the row out of an inner
    /// loop replaces a multiply-and-index per pair with a plain slice index.
    #[inline]
    pub fn row(&self, rank: u32) -> &[u32] {
        let r = self.landmarks.len();
        let start = rank as usize * r;
        &self.dist[start..start + r]
    }

    /// Records a discovered landmark-to-landmark distance (kept if smaller
    /// than the current value; the matrix stays symmetric).
    pub(crate) fn record(&mut self, rank_a: u32, rank_b: u32, d: u32) {
        let r = self.landmarks.len();
        let (a, b) = (rank_a as usize, rank_b as usize);
        if d < self.dist[a * r + b] {
            self.dist[a * r + b] = d;
            self.dist[b * r + a] = d;
        }
    }

    /// Closes the partial distance matrix under shortest paths
    /// (Floyd–Warshall over the landmark set).
    ///
    /// Each pruned BFS from a landmark `r` stops once its label queue
    /// empties, which can happen before every other landmark is reached; the
    /// distances it *does* record are exact BFS distances. Any landmark pair
    /// `(r, r')` whose shortest path is not landmark-free splits at an
    /// interior landmark into two strictly shorter landmark pairs, and a
    /// pair with a landmark-free shortest path is always discovered directly
    /// (its path's interior vertices are labelled, or split again), so
    /// transitive closure over `R` recovers every exact distance — verified
    /// against brute-force BFS in the tests.
    pub(crate) fn close(&mut self) {
        let r = self.landmarks.len();
        for k in 0..r {
            for i in 0..r {
                let dik = self.dist[i * r + k];
                if dik == INF {
                    continue;
                }
                for j in 0..r {
                    let dkj = self.dist[k * r + j];
                    if dkj == INF {
                        continue;
                    }
                    let via = dik + dkj;
                    if via < self.dist[i * r + j] {
                        self.dist[i * r + j] = via;
                    }
                }
            }
        }
    }

    /// Bytes used by the highway (landmark list + rank table + matrix).
    ///
    /// Note the `rank_of` table is `O(n)`; the paper's size accounting
    /// ([`matrix_bytes`](Highway::matrix_bytes)) excludes it since it is a
    /// lookup acceleration, not part of the labelling.
    pub fn memory_bytes(&self) -> usize {
        self.landmarks.len() * std::mem::size_of::<VertexId>()
            + self.rank_of.len() * std::mem::size_of::<u32>()
            + self.dist.len() * std::mem::size_of::<u32>()
    }

    /// Bytes of the landmark list plus distance matrix only.
    pub fn matrix_bytes(&self) -> usize {
        self.landmarks.len() * std::mem::size_of::<VertexId>()
            + self.dist.len() * std::mem::size_of::<u32>()
    }
}

/// An `r × r` matrix with a zero diagonal and `INF` everywhere else.
fn unset_matrix(r: usize) -> Vec<u32> {
    let mut dist = vec![INF; r * r];
    for i in 0..r {
        dist[i * r + i] = 0;
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_highways_share_the_rank_table() {
        let mut h = Highway::new(10, &[7, 2, 5]);
        h.record(0, 1, 4);
        h.close();
        let moved = h.with_cells(&[(0, 2, 3), (1, 0, 6)]);
        assert!(Arc::ptr_eq(&moved.rank_of, &h.rank_of));
        assert_eq!((moved.distance(0, 2), moved.distance(2, 0)), (3, 3));
        assert_eq!((moved.distance(0, 1), moved.distance(1, 0)), (6, 6));
        assert_eq!(h.distance(0, 1), 4, "the parent keeps its own matrix");
        let blank = h.unset();
        assert!(Arc::ptr_eq(&blank.rank_of, &h.rank_of));
        assert_eq!(blank.landmarks(), h.landmarks());
        assert_eq!((blank.distance(0, 1), blank.distance(1, 1)), (INF, 0));
    }

    #[test]
    fn rank_lookup() {
        let h = Highway::new(10, &[7, 2, 5]);
        assert_eq!(h.num_landmarks(), 3);
        assert_eq!(h.rank(7), Some(0));
        assert_eq!(h.rank(2), Some(1));
        assert_eq!(h.rank(5), Some(2));
        assert_eq!(h.rank(0), None);
        assert!(h.is_landmark(5));
        assert!(!h.is_landmark(9));
        assert_eq!(h.landmark(1), 2);
        assert_eq!(h.landmarks(), &[7, 2, 5]);
    }

    #[test]
    fn row_matches_distance() {
        let mut h = Highway::new(6, &[0, 2, 4]);
        h.record(0, 1, 2);
        h.record(1, 2, 3);
        h.close();
        for a in 0..3u32 {
            let row = h.row(a);
            assert_eq!(row.len(), 3);
            for b in 0..3u32 {
                assert_eq!(row[b as usize], h.distance(a, b), "({a},{b})");
            }
        }
    }

    #[test]
    fn record_keeps_minimum_and_symmetry() {
        let mut h = Highway::new(5, &[0, 1]);
        h.record(0, 1, 5);
        h.record(1, 0, 3);
        h.record(0, 1, 9);
        assert_eq!(h.distance(0, 1), 3);
        assert_eq!(h.distance(1, 0), 3);
        assert_eq!(h.distance(0, 0), 0);
    }

    #[test]
    fn closure_fills_transitive_distances() {
        // Path landmarks: 0 -2- 1 -2- 2; (0,2) never directly discovered.
        let mut h = Highway::new(3, &[0, 1, 2]);
        h.record(0, 1, 2);
        h.record(1, 2, 2);
        assert_eq!(h.distance(0, 2), INF);
        h.close();
        assert_eq!(h.distance(0, 2), 4);
    }

    #[test]
    fn closure_preserves_disconnection() {
        let mut h = Highway::new(4, &[0, 1, 2]);
        h.record(0, 1, 1);
        h.close();
        assert_eq!(h.distance(0, 2), INF);
        assert_eq!(h.distance(2, 1), INF);
    }
}
