//! Zero-copy read access to a packed index: [`IndexView`] maps the file
//! and serves queries directly over the mapped bytes.
//!
//! The `u32` sections (landmarks, highway matrix, both offset arrays,
//! sparse adjacency, the `view_of` permutation) are handed out as `&[u32]`
//! slices straight over the mapping — the 8-byte section alignment plus
//! the page alignment of `mmap` make the casts sound, and little-endian
//! layout matches every target this workspace supports. The bounded search
//! therefore runs on the stored view itself; nothing is rebuilt or copied
//! at open. Labels are the one encoded section: the [`PackedLabelIter`]
//! decodes delta-varints lazily *during* the Lemma 5.1 merge
//! (decode-on-merge), so a query never materialises a label.
//!
//! Opening validates the whole file — structure, per-section checksums, and
//! a full decode of every label stream — so the query path can assume every
//! invariant the in-memory index upholds and contains no panics, unwraps,
//! or corruption branches. Validation is a single sequential read of the
//! file (the checksums alone require that), which also pre-faults the page
//! cache; it is still an order of magnitude cheaper than the allocate-and-
//! copy deserialising load it replaces.

use crate::format::{self, HEADER_BYTES, SECTION_COUNT, SECTION_ENTRY_BYTES};
use crate::sys::Mmap;
use crate::varint;
use crate::StoreError;
use hcl_core::{LabelStorage, SparseNeighbors};
use hcl_graph::{VertexId, INF};
use std::ops::Range;
use std::path::Path;

/// The bytes behind a view: a file mapping, or an owned 8-byte-aligned
/// buffer (tests, in-memory round trips).
#[derive(Debug)]
enum Backing {
    Mapped(Mmap),
    /// `u64` storage guarantees the 8-byte base alignment the section
    /// layout assumes; `len` is the real byte length.
    Owned {
        buf: Box<[u64]>,
        len: usize,
    },
}

impl Backing {
    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            Backing::Mapped(m) => m.as_bytes(),
            Backing::Owned { buf, len } => {
                // SAFETY: the buffer holds at least `len` initialised bytes.
                unsafe { std::slice::from_raw_parts(buf.as_ptr() as *const u8, *len) }
            }
        }
    }
}

/// A validated, queryable view over a packed index file.
///
/// Construction ([`open`](IndexView::open) / [`from_bytes`](IndexView::from_bytes))
/// performs all validation; every accessor afterwards is infallible.
/// Implements [`LabelStorage`] and [`SparseNeighbors`], so the generic
/// query functions in [`hcl_core::storage`] run on it unchanged.
#[derive(Debug)]
pub struct IndexView {
    backing: Backing,
    n: usize,
    r: usize,
    total_entries: u64,
    landmarks: Range<usize>,
    highway: Range<usize>,
    label_offsets: Range<usize>,
    label_data: Range<usize>,
    sparse_offsets: Range<usize>,
    sparse_adj: Range<usize>,
    view_of: Range<usize>,
    /// `(vertex, rank)` pairs sorted by vertex — the O(r) replacement for
    /// the in-memory index's O(n) rank table; lookups binary-search it.
    rank_index: Vec<(VertexId, u32)>,
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("bounds pre-checked"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("bounds pre-checked"))
}

impl IndexView {
    /// Opens and validates a packed index by memory-mapping `path`.
    ///
    /// When the mapping itself fails (`ENOMEM`, mapping-count limits,
    /// filesystems without mmap), serving degrades instead of dying: the
    /// file is read into an owned 8-byte-aligned buffer and validated
    /// exactly like a mapped one. Queries over the owned backing are
    /// identical — only the zero-copy/page-sharing property is lost.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<IndexView, StoreError> {
        let file = std::fs::File::open(path.as_ref())?;
        let len = file.metadata()?.len();
        if len < HEADER_BYTES as u64 {
            return Err(StoreError::Truncated { needed: HEADER_BYTES as u64, actual: len });
        }
        match Mmap::map_file(&file) {
            Ok(map) => Self::from_backing(Backing::Mapped(map)),
            Err(_) => {
                let len = usize::try_from(len).map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large to load")
                })?;
                let words = len.div_ceil(8);
                let mut buf = vec![0u64; words].into_boxed_slice();
                // SAFETY: the buffer holds `words * 8 >= len` writable bytes.
                let dst =
                    unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, len) };
                use std::io::Read;
                (&file).read_exact(dst)?;
                Self::from_backing(Backing::Owned { buf, len })
            }
        }
    }

    /// Builds and validates a view over an in-memory file image (the bytes
    /// [`format::pack`] produces). The image is copied into an 8-byte-
    /// aligned buffer.
    pub fn from_bytes(image: &[u8]) -> Result<IndexView, StoreError> {
        let words = image.len().div_ceil(8);
        let mut buf = vec![0u64; words].into_boxed_slice();
        // SAFETY: the destination holds `words * 8 >= image.len()` bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(image.as_ptr(), buf.as_mut_ptr() as *mut u8, image.len());
        }
        Self::from_backing(Backing::Owned { buf, len: image.len() })
    }

    /// Whether this view serves from a live file mapping (`false`: the
    /// owned-read fallback or [`from_bytes`](Self::from_bytes)).
    pub fn is_mapped(&self) -> bool {
        matches!(self.backing, Backing::Mapped(_))
    }

    fn from_backing(backing: Backing) -> Result<IndexView, StoreError> {
        let bytes = backing.bytes();
        let file_len = bytes.len() as u64;
        if bytes.len() < HEADER_BYTES {
            return Err(StoreError::Truncated { needed: HEADER_BYTES as u64, actual: file_len });
        }
        if &bytes[0..8] != format::MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = read_u32(bytes, 8);
        if version != format::VERSION {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        let section_count = read_u32(bytes, 12) as usize;
        if section_count != SECTION_COUNT {
            return Err(StoreError::Corrupt(format!(
                "v2 file must have {SECTION_COUNT} sections, found {section_count}"
            )));
        }
        let n = read_u64(bytes, 16);
        let r = read_u32(bytes, 24) as u64;
        let flags = read_u32(bytes, 28);
        let total_entries = read_u64(bytes, 32);
        if n >= u32::MAX as u64 {
            return Err(StoreError::Corrupt(format!("implausible vertex count {n}")));
        }
        // The label encoding stores ranks in 16 bits (same cap the builder
        // enforces via `BuildError::TooManyLandmarks`).
        if r > u16::MAX as u64 {
            return Err(StoreError::Corrupt(format!("implausible landmark count {r}")));
        }
        if flags != 0 {
            return Err(StoreError::Corrupt(format!("unknown flags {flags:#x} (must be 0 in v2)")));
        }
        let table_end = HEADER_BYTES as u64 + (SECTION_COUNT * SECTION_ENTRY_BYTES) as u64;
        if file_len < table_end {
            return Err(StoreError::Truncated { needed: table_end, actual: file_len });
        }

        // Section table: every v2 kind exactly once, each section in
        // bounds, aligned, and passing its checksum.
        let mut ranges: [Option<Range<usize>>; SECTION_COUNT] = Default::default();
        for i in 0..SECTION_COUNT {
            let e = HEADER_BYTES + i * SECTION_ENTRY_BYTES;
            let kind = read_u32(bytes, e);
            let reserved = read_u32(bytes, e + 4);
            if reserved != 0 {
                return Err(StoreError::Corrupt(format!(
                    "section table entry {i} has nonzero reserved field"
                )));
            }
            let offset = read_u64(bytes, e + 8);
            let len = read_u64(bytes, e + 16);
            let checksum = read_u64(bytes, e + 24);
            if kind == 0 || kind > SECTION_COUNT as u32 {
                return Err(StoreError::Corrupt(format!("unknown section kind {kind}")));
            }
            let slot = &mut ranges[(kind - 1) as usize];
            if slot.is_some() {
                return Err(StoreError::Corrupt(format!("duplicate section kind {kind}")));
            }
            if !offset.is_multiple_of(8) {
                return Err(StoreError::Corrupt(format!("section {kind} misaligned at {offset}")));
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| StoreError::Corrupt(format!("section {kind} length overflow")))?;
            if offset < table_end || end > file_len {
                return Err(StoreError::Truncated { needed: end, actual: file_len });
            }
            let range = offset as usize..end as usize;
            if varint::section_checksum(&bytes[range.clone()]) != checksum {
                return Err(StoreError::Corrupt(format!("section {kind} checksum mismatch")));
            }
            *slot = Some(range);
        }
        let [landmarks, highway, label_offsets, label_data, sparse_offsets, sparse_adj, view_of] =
            ranges.map(|r| r.expect("all seven kinds seen exactly once"));

        // Dimension checks tie section lengths to the header counts.
        let expect = |name: &str, range: &Range<usize>, want: u64| -> Result<(), StoreError> {
            if range.len() as u64 != want {
                return Err(StoreError::Corrupt(format!(
                    "{name} section is {} bytes, expected {want}",
                    range.len()
                )));
            }
            Ok(())
        };
        expect("landmarks", &landmarks, 4 * r)?;
        expect("highway", &highway, 4 * r * r)?;
        expect("label offsets", &label_offsets, 4 * (n + 1))?;
        expect("sparse offsets", &sparse_offsets, 4 * (n + 1))?;
        expect("view_of", &view_of, 4 * n)?;
        if sparse_adj.len() % 4 != 0 {
            return Err(StoreError::Corrupt("sparse adjacency not a whole number of u32s".into()));
        }

        let view = IndexView {
            backing,
            n: n as usize,
            r: r as usize,
            total_entries,
            landmarks,
            highway,
            label_offsets,
            label_data,
            sparse_offsets,
            sparse_adj,
            view_of,
            rank_index: Vec::new(),
        };
        view.validate_contents()
    }

    /// Content validation beyond structure: landmark ids, highway matrix
    /// invariants, offset monotonicity, a full decode of every label
    /// stream, the sparsified view's CSR, and the `view_of` permutation.
    /// On success the rank index is built and the view is ready to serve.
    fn validate_contents(mut self) -> Result<IndexView, StoreError> {
        let n = self.n as u32;
        let r = self.r as u32;

        let mut rank_index: Vec<(VertexId, u32)> =
            self.landmarks().iter().enumerate().map(|(rank, &v)| (v, rank as u32)).collect();
        rank_index.sort_unstable();
        for w in rank_index.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(StoreError::Corrupt(format!("duplicate landmark vertex {}", w[0].0)));
            }
        }
        if let Some(&(v, _)) = rank_index.last() {
            if v >= n {
                return Err(StoreError::Corrupt(format!("landmark {v} out of range (n = {n})")));
            }
        }
        self.rank_index = rank_index;

        // Highway: zero diagonal, symmetric, finite values plausible
        // (unweighted distances are < n).
        let matrix = self.u32_slice(&self.highway);
        for a in 0..self.r {
            if matrix[a * self.r + a] != 0 {
                return Err(StoreError::Corrupt(format!("highway diagonal ({a},{a}) nonzero")));
            }
            for b in 0..a {
                let d = matrix[a * self.r + b];
                if d != matrix[b * self.r + a] {
                    return Err(StoreError::Corrupt(format!("highway asymmetry at ({a},{b})")));
                }
                if d != INF && d >= n.max(1) {
                    return Err(StoreError::Corrupt(format!("highway distance {d} implausible")));
                }
            }
        }

        // Labels: monotone byte offsets ending at the data length, then a
        // full decode — strictly increasing ranks < r, 16-bit distances,
        // streams consumed exactly, totals matching the header, and empty
        // streams on landmarks.
        let offsets = self.u32_slice(&self.label_offsets);
        let data = &self.backing.bytes()[self.label_data.clone()];
        if offsets[0] != 0 || offsets[self.n] as usize != data.len() {
            return Err(StoreError::Corrupt("label offsets do not span the data section".into()));
        }
        let mut decoded: u64 = 0;
        for v in 0..self.n {
            let stream =
                data.get(offsets[v] as usize..offsets[v + 1] as usize).ok_or_else(|| {
                    StoreError::Corrupt(format!("label offsets not monotone at vertex {v}"))
                })?;
            let mut pos = 0usize;
            let mut prev: Option<u32> = None;
            while pos < stream.len() {
                let delta = varint::decode_u32(stream, &mut pos)
                    .ok_or_else(|| StoreError::Corrupt(format!("bad rank varint at vertex {v}")))?;
                let rank = match prev {
                    Some(p) => p
                        .checked_add(1)
                        .and_then(|x| x.checked_add(delta))
                        .filter(|&x| x < r)
                        .ok_or_else(|| {
                            StoreError::Corrupt(format!("label rank overflow at vertex {v}"))
                        })?,
                    None => delta,
                };
                if rank >= r {
                    return Err(StoreError::Corrupt(format!(
                        "label rank {rank} >= |R| = {r} at vertex {v}"
                    )));
                }
                let dist = varint::decode_u32(stream, &mut pos).ok_or_else(|| {
                    StoreError::Corrupt(format!("bad distance varint at vertex {v}"))
                })?;
                if dist > u16::MAX as u32 {
                    return Err(StoreError::Corrupt(format!(
                        "label distance {dist} exceeds 16 bits at vertex {v}"
                    )));
                }
                prev = Some(rank);
                decoded += 1;
            }
        }
        for &v in self.landmarks() {
            if offsets[v as usize] != offsets[v as usize + 1] {
                return Err(StoreError::Corrupt(format!("landmark {v} has a non-empty label")));
            }
        }
        if decoded != self.total_entries {
            return Err(StoreError::Corrupt(format!(
                "decoded {decoded} label entries, header claims {}",
                self.total_entries
            )));
        }

        // Sparsified view: monotone offsets spanning the adjacency section
        // and strictly sorted in-range rows (view ids), then `view_of` a
        // permutation of 0..n under which every landmark's row is empty.
        let sparse_offsets = self.u32_slice(&self.sparse_offsets);
        let adj = self.u32_slice(&self.sparse_adj);
        if sparse_offsets[0] != 0 || sparse_offsets[self.n] as usize != adj.len() {
            return Err(StoreError::Corrupt(
                "sparse offsets do not span the adjacency section".into(),
            ));
        }
        for v in 0..self.n {
            let row =
                adj.get(sparse_offsets[v] as usize..sparse_offsets[v + 1] as usize).ok_or_else(
                    || StoreError::Corrupt(format!("sparse offsets not monotone at vertex {v}")),
                )?;
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return Err(StoreError::Corrupt(format!(
                    "sparse neighbours of {v} not strictly sorted"
                )));
            }
            // Strictly sorted, so the last id is the row's largest.
            if row.last().is_some_and(|&w| w >= n) {
                return Err(StoreError::Corrupt(format!(
                    "sparse neighbour out of range at vertex {v}"
                )));
            }
        }
        let view_of = self.u32_slice(&self.view_of);
        let mut seen = vec![false; self.n];
        for (v, &view) in view_of.iter().enumerate() {
            match seen.get_mut(view as usize) {
                Some(slot) if !*slot => *slot = true,
                _ => {
                    return Err(StoreError::Corrupt(format!(
                        "view id {view} of vertex {v} out of range or already taken"
                    )))
                }
            }
        }
        for &v in self.landmarks() {
            let view = view_of[v as usize] as usize;
            if sparse_offsets[view] != sparse_offsets[view + 1] {
                return Err(StoreError::Corrupt(format!("landmark {v} has sparse neighbours")));
            }
        }
        Ok(self)
    }

    /// The whole backing as `u32` words (a trailing partial word dropped).
    #[inline]
    fn words(&self) -> &[u32] {
        let bytes = self.backing.bytes();
        debug_assert_eq!(bytes.as_ptr() as usize % 4, 0, "backing alignment");
        // SAFETY: the pointer is 4-aligned (a page-aligned mapping / a
        // u64-backed buffer), `len / 4` whole words lie inside the backing,
        // and u32 has no invalid bit patterns. Little-endian layout is part
        // of the format contract.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u32, bytes.len() / 4) }
    }

    /// The `u32` section at `range`: in bounds and 8-aligned (validated at
    /// open), so the byte range is a whole number of words.
    #[inline]
    fn u32_slice(&self, range: &Range<usize>) -> &[u32] {
        &self.words()[range.start / 4..range.end / 4]
    }

    /// Landmark vertex ids in rank order.
    pub fn landmarks(&self) -> &[VertexId] {
        self.u32_slice(&self.landmarks)
    }

    /// Total label entries across all vertices.
    pub fn total_label_entries(&self) -> u64 {
        self.total_entries
    }

    /// Size of the whole packed file in bytes.
    pub fn store_bytes(&self) -> usize {
        self.backing.bytes().len()
    }

    /// Bytes of the packed *index* sections (landmarks + highway + label
    /// offsets + label data) — the payload comparable to the plain
    /// `HCLIDX01` serialisation, which does not carry the sparsified CSR.
    pub fn packed_index_bytes(&self) -> usize {
        self.landmarks.len() + self.highway.len() + self.label_offsets.len() + self.label_data.len()
    }

    /// Bytes of the delta-varint label streams alone (the `LABEL_DATA`
    /// section) — divided by [`total_label_entries`](Self::total_label_entries)
    /// this is the on-disk bytes-per-entry figure the committed benchmark
    /// reports.
    pub fn label_data_bytes(&self) -> usize {
        self.label_data.len()
    }

    /// Bytes the same index occupies in the plain `HCLIDX01` format.
    pub fn plain_index_bytes(&self) -> usize {
        format::plain_index_bytes(self.n, self.r, self.total_entries as usize)
    }

    /// Bytes of everything the bounded search reads: the sparsified-CSR
    /// sections plus the `view_of` permutation.
    pub fn sparse_bytes(&self) -> usize {
        self.sparse_offsets.len() + self.sparse_adj.len() + self.view_of.len()
    }

    /// Undirected edge count of the sparsified graph.
    pub fn sparse_edges(&self) -> usize {
        self.sparse_adj.len() / 4 / 2
    }
}

/// Lazy decoder over one vertex's delta-varint label stream; yields
/// `(rank, dist)` in strictly increasing rank order. Open-time validation
/// guarantees well-formed streams, so the `None`-on-malformed branches in
/// here are unreachable defence, not a correctness dependency.
pub struct PackedLabelIter<'a> {
    stream: &'a [u8],
    pos: usize,
    prev: Option<u32>,
}

impl Iterator for PackedLabelIter<'_> {
    type Item = (u32, u32);

    #[inline]
    fn next(&mut self) -> Option<(u32, u32)> {
        if self.pos >= self.stream.len() {
            return None;
        }
        let delta = varint::decode_u32(self.stream, &mut self.pos)?;
        let rank = match self.prev {
            Some(p) => p + 1 + delta,
            None => delta,
        };
        let dist = varint::decode_u32(self.stream, &mut self.pos)?;
        self.prev = Some(rank);
        Some((rank, dist))
    }
}

impl LabelStorage for IndexView {
    type LabelIter<'a> = PackedLabelIter<'a>;

    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn num_landmarks(&self) -> usize {
        self.r
    }

    #[inline]
    fn rank(&self, v: VertexId) -> Option<u32> {
        self.rank_index
            .binary_search_by_key(&v, |&(vertex, _)| vertex)
            .ok()
            .map(|i| self.rank_index[i].1)
    }

    #[inline]
    fn highway_distance(&self, rank_a: u32, rank_b: u32) -> u32 {
        self.u32_slice(&self.highway)[rank_a as usize * self.r + rank_b as usize]
    }

    #[inline]
    fn highway_row(&self, rank: u32) -> &[u32] {
        let start = rank as usize * self.r;
        &self.u32_slice(&self.highway)[start..start + self.r]
    }

    #[inline]
    fn label(&self, v: VertexId) -> PackedLabelIter<'_> {
        let offsets = self.u32_slice(&self.label_offsets);
        let v = v as usize;
        let data = &self.backing.bytes()[self.label_data.clone()];
        PackedLabelIter {
            stream: &data[offsets[v] as usize..offsets[v + 1] as usize],
            pos: 0,
            prev: None,
        }
    }
}

impl SparseNeighbors for IndexView {
    #[inline]
    fn view_of(&self, v: VertexId) -> VertexId {
        self.u32_slice(&self.view_of)[v as usize]
    }

    #[inline]
    fn sparse_neighbors(&self, v: VertexId) -> &[VertexId] {
        // The search kernel's per-vertex call: word arithmetic from the two
        // section starts (sub-slicing each section first costs ~8% of the
        // in-cache query rate). It is only handed ids from `view_of` or from
        // validated rows; a stray id `>= n` reads a neighbouring section's
        // words, bounds-checked against the backing, instead of panicking.
        let v = v as usize;
        debug_assert!(v < self.n, "view id out of range");
        let words = self.words();
        let at = self.sparse_offsets.start / 4 + v;
        let adj = self.sparse_adj.start / 4;
        &words[adj + words[at] as usize..adj + words[at + 1] as usize]
    }
}
