//! The `HCLSTOR1` container writer and the format constants shared with the
//! reader ([`IndexView`](crate::IndexView)). `docs/FORMAT.md` is the
//! normative spec; this module is its reference implementation.
//!
//! A packed index is one file holding everything a shard needs to serve:
//!
//! | section | kind | payload |
//! |---|---|---|
//! | `LANDMARKS` | 1 | `r × u32` landmark vertex ids in rank order |
//! | `HIGHWAY` | 2 | `r² × u32` row-major distance matrix (`u32::MAX` = disconnected) |
//! | `LABEL_OFFSETS` | 3 | `(n+1) × u32` entry offsets into both label lanes |
//! | `LABEL_DATA` | 4 | `E` rank bytes, then `E` distance bytes |
//! | `SPARSE_OFFSETS` | 5 | `(n+1) × u32` entry offsets into `SPARSE_ADJ`, indexed by view id |
//! | `SPARSE_ADJ` | 6 | sparsified-CSR adjacency, one `u32` view id per neighbour |
//! | `VIEW_OF` | 7 | `n × u32` permutation, original id → view id |
//!
//! Sections 5–7 are the packer's [`SparseView`] as built — the search
//! graph in view (degree-ordered) id space plus the translation into it —
//! so a reader serves the bounded search straight off the mapping.
//!
//! All integers are little-endian. Every section starts 8-byte aligned and
//! carries a lane-interleaved FNV-1a 64 checksum
//! ([`checksum::section_checksum`]) in the section table, so the `u32`
//! sections can be served as `&[u32]` straight over a page-aligned mapping
//! and corruption is caught at open time. Labels are stored in the
//! in-memory layout ([`hcl_core::HighwayLabels`]): vertex `v`'s entries
//! are `LABEL_OFFSETS[v]..LABEL_OFFSETS[v+1]` of the rank lane and of the
//! distance lane, one byte each, sorted strictly by rank — two bytes per
//! entry against the plain format's four, and served as `&[u8]` slices.

use crate::checksum;
use crate::StoreError;
use hcl_core::{HighwayCoverLabelling, SparseView};
use std::io::Write;
use std::path::Path;

/// File magic: `HCLSTOR1`.
pub const MAGIC: &[u8; 8] = b"HCLSTOR1";
/// Container version this crate writes and reads.
pub const VERSION: u32 = 3;
/// Fixed header size in bytes (magic through `total_label_entries`).
pub const HEADER_BYTES: usize = 40;
/// Size of one section-table entry in bytes.
pub const SECTION_ENTRY_BYTES: usize = 32;
/// Number of sections in a file (each kind exactly once, in kind order).
pub const SECTION_COUNT: usize = 7;

/// Landmark vertex ids, rank order.
pub const SECTION_LANDMARKS: u32 = 1;
/// Row-major `r × r` highway distance matrix.
pub const SECTION_HIGHWAY: u32 = 2;
/// Per-vertex entry offsets into the two label lanes.
pub const SECTION_LABEL_OFFSETS: u32 = 3;
/// The rank lane followed by the distance lane.
pub const SECTION_LABEL_DATA: u32 = 4;
/// Per-view-vertex entry offsets into `SPARSE_ADJ`.
pub const SECTION_SPARSE_OFFSETS: u32 = 5;
/// Sparsified-CSR adjacency entries, in view id space.
pub const SECTION_SPARSE_ADJ: u32 = 6;
/// The original id → view id permutation.
pub const SECTION_VIEW_OF: u32 = 7;

/// Conventional file extension for packed indexes (`index.hclx`); path
/// sniffing in the CLI, server `RELOAD`, and router fan-out keys on it.
pub const PACKED_EXTENSION: &str = "hclx";

/// Whether `path` names a packed index by extension (`.hclx`).
pub fn is_packed_path(path: &str) -> bool {
    Path::new(path).extension().and_then(|e| e.to_str()) == Some(PACKED_EXTENSION)
}

/// Size in bytes of the plain `HCLIDX01` serialisation
/// (`hcl_core::io::write_labelling`) of an index with these dimensions:
/// header + landmarks + matrix + offsets + 4-byte entries. The packed
/// format's compression ratio is measured against this.
pub fn plain_index_bytes(n: usize, r: usize, label_entries: usize) -> usize {
    24 + 4 * r + 4 * r * r + 4 * (n + 1) + 4 * label_entries
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serialises `labelling` plus its matching sparsified view into a complete
/// packed-index file image.
///
/// `sparse` must have been built from the same graph and landmark set as
/// `labelling` (as [`SharedOracle`](hcl_core::SharedOracle) does at
/// construction); the pair is what one serving generation needs. The whole
/// image is materialised in memory — packing is an offline build step.
pub fn pack(labelling: &HighwayCoverLabelling, sparse: &SparseView) -> Result<Vec<u8>, StoreError> {
    let highway = labelling.highway();
    let labels = labelling.labels();
    let n = labels.num_vertices();
    let r = highway.num_landmarks();
    if sparse.num_vertices() != n {
        return Err(StoreError::Invalid(format!(
            "sparse view covers {} vertices, labelling covers {n}",
            sparse.num_vertices()
        )));
    }

    // Section 1: landmarks.
    let mut landmarks = Vec::with_capacity(4 * r);
    for &v in highway.landmarks() {
        push_u32(&mut landmarks, v);
    }

    // Section 2: highway matrix, row-major.
    let mut matrix = Vec::with_capacity(4 * r * r);
    for rank in 0..r as u32 {
        for &d in highway.row(rank) {
            push_u32(&mut matrix, d);
        }
    }

    // Sections 3 + 4: entry offsets, then the rank lane and the dist lane.
    let total = u32::try_from(labels.total_entries())
        .map_err(|_| StoreError::Invalid("label entries exceed u32".into()))?;
    let mut label_offsets = Vec::with_capacity(4 * (n + 1));
    let mut label_data = Vec::with_capacity(2 * total as usize);
    let mut dists = Vec::with_capacity(total as usize);
    for v in 0..n as u32 {
        push_u32(&mut label_offsets, dists.len() as u32);
        let (row_ranks, row_dists) = labels.label_lanes(v);
        label_data.extend_from_slice(row_ranks);
        dists.extend_from_slice(row_dists);
    }
    push_u32(&mut label_offsets, total);
    label_data.extend_from_slice(&dists);

    // Sections 5–7: the view exactly as `sparse` holds it — view-space
    // CSR rows in view order, then the original → view permutation.
    let view = sparse.graph();
    let adj_entries = u32::try_from(2 * view.num_edges())
        .map_err(|_| StoreError::Invalid("sparse adjacency exceeds u32 entries".into()))?;
    let mut sparse_offsets = Vec::with_capacity(4 * (n + 1));
    let mut sparse_adj = Vec::with_capacity(4 * adj_entries as usize);
    let mut view_of = Vec::with_capacity(4 * n);
    let mut at = 0u32;
    for v in 0..n as u32 {
        push_u32(&mut sparse_offsets, at);
        let row = view.neighbors(v);
        at += row.len() as u32;
        for &w in row {
            push_u32(&mut sparse_adj, w);
        }
        push_u32(&mut view_of, sparse.view_of(v));
    }
    push_u32(&mut sparse_offsets, adj_entries);

    let sections: [(u32, Vec<u8>); SECTION_COUNT] = [
        (SECTION_LANDMARKS, landmarks),
        (SECTION_HIGHWAY, matrix),
        (SECTION_LABEL_OFFSETS, label_offsets),
        (SECTION_LABEL_DATA, label_data),
        (SECTION_SPARSE_OFFSETS, sparse_offsets),
        (SECTION_SPARSE_ADJ, sparse_adj),
        (SECTION_VIEW_OF, view_of),
    ];

    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    push_u32(&mut out, VERSION);
    push_u32(&mut out, SECTION_COUNT as u32);
    push_u64(&mut out, n as u64);
    push_u32(&mut out, r as u32);
    push_u32(&mut out, 0); // flags, reserved
    push_u64(&mut out, labels.total_entries() as u64);
    debug_assert_eq!(out.len(), HEADER_BYTES);

    let table_at = out.len();
    out.resize(table_at + SECTION_COUNT * SECTION_ENTRY_BYTES, 0);
    for (i, (kind, payload)) in sections.iter().enumerate() {
        // Zero-pad to the 8-byte alignment every section starts on.
        while out.len() % 8 != 0 {
            out.push(0);
        }
        let offset = out.len() as u64;
        let e = table_at + i * SECTION_ENTRY_BYTES;
        out[e..e + 4].copy_from_slice(&kind.to_le_bytes());
        out[e + 4..e + 8].copy_from_slice(&0u32.to_le_bytes());
        out[e + 8..e + 16].copy_from_slice(&offset.to_le_bytes());
        out[e + 16..e + 24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        out[e + 24..e + 32].copy_from_slice(&checksum::section_checksum(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    Ok(out)
}

/// Packs and writes the index to `path` (see [`pack`]). The write goes to a
/// temporary sibling first and is renamed into place, so a crash mid-write
/// can never leave a half-written file under the final name — a serving
/// process remapping on `RELOAD` either sees the old file or the new one.
///
/// Durability: the temporary file is fsynced before the rename (its bytes
/// reach disk before the name does) and the parent directory is fsynced
/// after it (the rename itself reaches disk), so a power cut cannot leave
/// a renamed-but-empty `.hclx` behind. See docs/FORMAT.md.
pub fn save_packed<P: AsRef<Path>>(
    labelling: &HighwayCoverLabelling,
    sparse: &SparseView,
    path: P,
) -> Result<(), StoreError> {
    let path = path.as_ref();
    let image = pack(labelling, sparse)?;
    let tmp = path.with_extension("hclx.tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(&image)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    // Persist the directory entry. An empty parent means `path` is
    // relative with no directory component — the current directory.
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(parent)?.sync_all()?;
    Ok(())
}
