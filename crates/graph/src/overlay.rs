//! The overlay half of a *base + overlay* value: a small map from vertex id
//! to a replacement row.
//!
//! [`CsrGraph`](crate::CsrGraph) (adjacency rows) and `hcl-core`'s label
//! store (label rows) are immutable flat arrays behind shared ownership.
//! An edge edit replaces a handful of their rows, so the edited value keeps
//! the parent's arrays and records only the replaced rows here; every
//! accessor consults the overlay first. The map is cloned once per edit and
//! probed on the query hot path (the bounded search fetches hundreds of
//! adjacency rows per query), which fixes its shape: rows are shared
//! (`Arc`-like) so a clone copies no row data, and the index is an
//! open-addressed table behind a bit filter — one load and one
//! well-predicted bit test to learn that a vertex is *not* in the overlay,
//! which is the common answer. (Probing the table directly
//! costs a branch on whether the first slot happens to be occupied, taken
//! at the load factor: measured at a quarter of the in-cache query rate.)
//! A value that was never edited has no filter and pays one pointer test;
//! a hot loop takes the filter into a local first ([`RowOverlay::filter`])
//! and so tests a register.

use crate::VertexId;

/// Free-slot marker. No graph has this vertex: ids stop at `u32::MAX - 1`
/// (see [`VertexId`]).
const EMPTY: VertexId = VertexId::MAX;

/// Slots per row, at least: a load factor of a quarter keeps the expected
/// probe at barely more than one slot.
const SLOTS_PER_ROW: usize = 4;

/// Words in the bit filter: 16 Ki bits, 2 KB. Fixed, so that the filter test
/// is a constant shift and an index the compiler can prove in range; at the
/// few hundred rows the overlays are bounded to, 1–2% of absent keys get
/// past it (6% at a thousand rows).
const FILTER_WORDS: usize = 256;

/// An insert-only map `vertex → row`; see the module docs.
#[derive(Clone, Debug)]
pub struct RowOverlay<R> {
    /// One bit per hash value of a present key; `None` while the overlay
    /// is empty, so one pointer test answers for a value never edited.
    filter: Option<Box<RowFilter>>,
    /// `(key, index into rows)`; length zero or a power of two.
    slots: Vec<(VertexId, u32)>,
    rows: Vec<(VertexId, R)>,
}

impl<R> Default for RowOverlay<R> {
    fn default() -> Self {
        RowOverlay { filter: None, slots: Vec::new(), rows: Vec::new() }
    }
}

/// Fibonacci hash of `v`; a table slot index is its top bits.
#[inline]
fn hash(v: VertexId) -> u32 {
    v.wrapping_mul(0x9E37_79B1)
}

/// `(word, mask)` of `v`'s filter bit: the low bits of the id itself. The
/// filter wants spread, not avalanche — ids that differ in their low 14
/// bits, consecutive ones included, never share a bit — and skipping the
/// multiply is a measurable part of what an edited graph pays per row
/// (about 1% of the in-cache query rate).
#[inline]
fn filter_bit(v: VertexId) -> (usize, u64) {
    let bit = v as usize % (FILTER_WORDS * 64);
    (bit / 64, 1 << (bit % 64))
}

/// The bit filter in front of a [`RowOverlay`]'s table.
#[derive(Clone, Debug)]
pub struct RowFilter([u64; FILTER_WORDS]);

impl RowFilter {
    /// Whether `v` may have a replacement row (no false negatives).
    #[inline]
    pub fn may_contain(&self, v: VertexId) -> bool {
        let (word, mask) = filter_bit(v);
        self.0[word] & mask != 0
    }
}

impl<R> RowOverlay<R> {
    /// Whether no row is replaced.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of replaced rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The slot `v`'s probe starts at.
    #[inline]
    fn first_slot(&self, v: VertexId) -> usize {
        (hash(v) >> (32 - self.slots.len().trailing_zeros())) as usize
    }

    /// The replacement row of `v`, if it has one.
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<&R> {
        if !self.filter.as_ref()?.may_contain(v) {
            return None;
        }
        self.probe(v)
    }

    /// The filter, for a loop that wants it in a local: `None` while the
    /// overlay is empty.
    #[inline]
    pub fn filter(&self) -> Option<&RowFilter> {
        self.filter.as_deref()
    }

    /// [`get`](Self::get) without the filter: the table probe itself. Kept
    /// out of line so that a loop testing the filter inline carries no
    /// probe code (and none of its register pressure) on its hot path.
    #[inline(never)]
    pub fn probe(&self, v: VertexId) -> Option<&R> {
        let mask = self.slots.len() - 1;
        let mut i = self.first_slot(v);
        loop {
            let (key, at) = self.slots[i];
            if key == v {
                return Some(&self.rows[at as usize].1);
            }
            if key == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Replaces the row of `v`, whether or not it already had a
    /// replacement.
    pub fn insert(&mut self, v: VertexId, row: R) {
        debug_assert_ne!(v, EMPTY);
        if (self.rows.len() + 1) * SLOTS_PER_ROW > self.slots.len() {
            self.grow();
        }
        let (word, mask) = filter_bit(v);
        self.filter.get_or_insert_with(|| Box::new(RowFilter([0; FILTER_WORDS]))).0[word] |= mask;
        let mask = self.slots.len() - 1;
        let mut i = self.first_slot(v);
        loop {
            let (key, at) = self.slots[i];
            if key == v {
                self.rows[at as usize].1 = row;
                return;
            }
            if key == EMPTY {
                self.slots[i] = (v, self.rows.len() as u32);
                self.rows.push((v, row));
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table (from nothing: to eight slots) and re-seats every
    /// key.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(8);
        self.slots = vec![(EMPTY, 0); len];
        for (at, &(v, _)) in self.rows.iter().enumerate() {
            let mut i = self.first_slot(v);
            while self.slots[i].0 != EMPTY {
                i = (i + 1) & (len - 1);
            }
            self.slots[i] = (v, at as u32);
        }
    }

    /// The replaced rows in ascending vertex order — the order a fold
    /// walks the base arrays in.
    pub fn sorted(&self) -> Vec<(VertexId, &R)> {
        let mut rows: Vec<(VertexId, &R)> = self.rows.iter().map(|(v, row)| (*v, row)).collect();
        rows.sort_unstable_by_key(|&(v, _)| v);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_overlay_answers_nothing() {
        let o: RowOverlay<u8> = RowOverlay::default();
        assert!(o.is_empty());
        assert_eq!(o.len(), 0);
        assert_eq!(o.get(0), None);
        assert_eq!(o.get(u32::MAX - 1), None);
        assert!(o.sorted().is_empty());
    }

    #[test]
    fn insert_replaces_and_grows() {
        let mut o = RowOverlay::default();
        // Clustered and strided keys, enough to grow the table many times.
        let keys: Vec<u32> = (0..700u32).map(|i| if i % 2 == 0 { i } else { i * 65_537 }).collect();
        for &k in &keys {
            o.insert(k, k as u64 + 1);
        }
        assert_eq!(o.len(), keys.len());
        for &k in &keys {
            assert_eq!(o.get(k), Some(&(k as u64 + 1)), "key {k}");
        }
        assert_eq!(o.get(1), None, "absent key between present ones");
        o.insert(keys[3], 0);
        assert_eq!(o.get(keys[3]), Some(&0));
        assert_eq!(o.len(), keys.len(), "a replacement adds no row");
        let sorted = o.sorted();
        assert!(sorted.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(sorted.len(), keys.len());
    }

    #[test]
    fn a_clone_is_independent() {
        let mut a = RowOverlay::default();
        a.insert(5, "five");
        let mut b = a.clone();
        b.insert(5, "cinq");
        b.insert(6, "six");
        assert_eq!(a.get(5), Some(&"five"));
        assert_eq!(a.get(6), None);
        assert_eq!(b.get(5), Some(&"cinq"));
    }
}
