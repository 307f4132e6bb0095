//! Loader robustness: a damaged packed index must always come back as a
//! typed `Err`, never a panic and never silently wrong data. The fuzz
//! walks every byte of a real image flipping bits, and every truncation
//! length; the only flips allowed to still validate are those the format
//! genuinely cannot see (inter-section alignment padding), and for those
//! the decoded content must be identical to the original.
//!
//! Every flip inside a section dies at its checksum, so the content
//! validation behind the checksums gets its own cases: damage one value,
//! `reseal` the image (recompute the section-table checksums, as a buggy
//! or hostile writer would), and require `StoreError::Corrupt`.

use hcl_core::{HighwayCoverLabelling, LabelStorage, SparseNeighbors, SparseView};
use hcl_graph::{generate, VertexId};
use hcl_store::checksum::section_checksum;
use hcl_store::format::{
    HEADER_BYTES, SECTION_COUNT, SECTION_ENTRY_BYTES, SECTION_LABEL_DATA, SECTION_LABEL_OFFSETS,
    SECTION_LANDMARKS, SECTION_SPARSE_ADJ, SECTION_SPARSE_OFFSETS, SECTION_VIEW_OF,
};
use hcl_store::{pack, IndexView, PackedOracle, StoreError};
use std::ops::Range;

fn packed_image() -> (Vec<u8>, HighwayCoverLabelling, SparseView) {
    let g = generate::barabasi_albert(60, 3, 17);
    let landmarks = hcl_graph::order::top_degree(&g, 5);
    let (hcl, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
    let sparse = SparseView::build(&g, hcl.highway());
    let image = pack(&hcl, &sparse).unwrap();
    (image, hcl, sparse)
}

/// Deep equality against the source index — the "silently wrong" check for
/// corruptions that land in bytes the format does not interpret.
fn content_identical(view: &IndexView, hcl: &HighwayCoverLabelling, sparse: &SparseView) -> bool {
    if view.num_vertices() != hcl.labels().num_vertices()
        || view.landmarks() != hcl.highway().landmarks()
    {
        return false;
    }
    (0..view.num_landmarks() as u32).all(|r| view.highway_row(r) == hcl.highway().row(r))
        && (0..view.num_vertices() as VertexId).all(|v| {
            view.label_lanes(v) == hcl.labels().label_lanes(v)
                && view.sparse_neighbors(v) == sparse.graph().neighbors(v)
                && view.view_of(v) == sparse.view_of(v)
        })
}

fn read_u64(image: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(image[at..at + 8].try_into().unwrap())
}

/// Payload byte range named by the section-table entry at byte `e`.
fn payload(image: &[u8], e: usize) -> Range<usize> {
    let offset = read_u64(image, e + 8) as usize;
    offset..offset + read_u64(image, e + 16) as usize
}

fn table_entries() -> impl Iterator<Item = usize> {
    (0..SECTION_COUNT).map(|i| HEADER_BYTES + i * SECTION_ENTRY_BYTES)
}

/// Byte range of section `kind`'s payload.
fn section(image: &[u8], kind: u32) -> Range<usize> {
    let e = table_entries().find(|&e| image[e..e + 4] == kind.to_le_bytes());
    payload(image, e.expect("every kind is in the table"))
}

/// The `u32` at index `i` of section `kind`.
fn get(image: &[u8], kind: u32, i: usize) -> u32 {
    let at = section(image, kind).start + 4 * i;
    u32::from_le_bytes(image[at..at + 4].try_into().unwrap())
}

/// A copy of `image` with the `u32` at index `i` of section `kind`
/// overwritten.
fn damaged(image: &[u8], kind: u32, i: usize, value: u32) -> Vec<u8> {
    let mut copy = image.to_vec();
    let at = section(image, kind).start + 4 * i;
    copy[at..at + 4].copy_from_slice(&value.to_le_bytes());
    copy
}

/// Recomputes every section-table checksum over the (damaged) payloads,
/// so the damage reaches the content validation behind them.
fn reseal(mut image: Vec<u8>) -> Vec<u8> {
    for e in table_entries() {
        let checksum = section_checksum(&image[payload(&image, e)]);
        image[e + 24..e + 32].copy_from_slice(&checksum.to_le_bytes());
    }
    image
}

/// Damaged but unsealed, the image dies at a checksum; resealed, the
/// content validation must reject it — typed, no panic.
fn assert_content_rejected(damaged: Vec<u8>, what: &str) {
    assert!(IndexView::from_bytes(&damaged).is_err(), "{what}: checksum missed the damage");
    match IndexView::from_bytes(&reseal(damaged)) {
        Err(StoreError::Corrupt(_)) => {}
        Err(other) => panic!("{what}: resealed image failed with {other}, expected Corrupt"),
        Ok(_) => panic!("{what}: resealed image validated"),
    }
}

#[test]
fn reseal_is_the_identity_on_an_undamaged_image() {
    let (image, hcl, sparse) = packed_image();
    let resealed = reseal(image.clone());
    assert_eq!(resealed, image);
    assert!(content_identical(&IndexView::from_bytes(&resealed).unwrap(), &hcl, &sparse));
}

#[test]
fn resealed_view_damage_is_rejected_as_corrupt() {
    let (image, hcl, _) = packed_image();
    let n = hcl.labels().num_vertices();
    let offset = |v: usize| get(&image, SECTION_SPARSE_OFFSETS, v);
    let view_of = |v: usize| get(&image, SECTION_VIEW_OF, v);

    assert_content_rejected(damaged(&image, SECTION_VIEW_OF, 1, view_of(0)), "VIEW_OF duplicate");
    assert_content_rejected(damaged(&image, SECTION_VIEW_OF, 0, n as u32), "VIEW_OF id >= n");

    // A view row with two entries, and the vertex that owns it.
    let busy_view = (0..n).find(|&v| offset(v + 1) - offset(v) >= 2).unwrap();
    let busy = (0..n).find(|&v| view_of(v) == busy_view as u32).unwrap();
    let row = offset(busy_view) as usize..offset(busy_view + 1) as usize;

    // Still a permutation, but the landmark now owns a populated row.
    let landmark = hcl.highway().landmarks()[0] as usize;
    let swapped = damaged(&image, SECTION_VIEW_OF, landmark, busy_view as u32);
    let swapped = damaged(&swapped, SECTION_VIEW_OF, busy, view_of(landmark));
    assert_content_rejected(swapped, "landmark with a non-empty view row");

    let adj = |i: usize| get(&image, SECTION_SPARSE_ADJ, i);
    let unsorted = damaged(&image, SECTION_SPARSE_ADJ, row.start, adj(row.start + 1));
    let unsorted = damaged(&unsorted, SECTION_SPARSE_ADJ, row.start + 1, adj(row.start));
    assert_content_rejected(unsorted, "unsorted view row");
    assert_content_rejected(
        damaged(&image, SECTION_SPARSE_ADJ, row.start + 1, adj(row.start)),
        "duplicate neighbour",
    );
    assert_content_rejected(
        damaged(&image, SECTION_SPARSE_ADJ, row.end - 1, n as u32),
        "neighbour >= n",
    );

    // Offsets that step back, that run past the adjacency section (the
    // slice the reader must not take), and that stop short of its end.
    assert_content_rejected(
        damaged(&image, SECTION_SPARSE_OFFSETS, busy_view + 2, offset(busy_view + 1) - 1),
        "decreasing sparse offsets",
    );
    assert_content_rejected(
        damaged(&image, SECTION_SPARSE_OFFSETS, 1, offset(n) + 7),
        "sparse offset past the adjacency section",
    );
    assert_content_rejected(
        damaged(&image, SECTION_SPARSE_OFFSETS, n, offset(n) - 1),
        "sparse offsets not spanning the adjacency section",
    );
}

#[test]
fn resealed_label_damage_is_rejected_as_corrupt() {
    let (image, hcl, _) = packed_image();
    let n = hcl.labels().num_vertices();
    let offset = |v: usize| get(&image, SECTION_LABEL_OFFSETS, v);
    let data = section(&image, SECTION_LABEL_DATA);

    // The rank lane comes first: entry `i`'s rank is byte `i` of the data.
    let labelled = (0..n).find(|&v| offset(v) != offset(v + 1)).unwrap();
    let mut rank = image.clone();
    rank[data.start + offset(labelled) as usize] = hcl.num_landmarks() as u8;
    assert_content_rejected(rank, "label rank >= r");

    // Raw lanes can hold what the old gap encoding could not: a row whose
    // ranks repeat or step back.
    let wide = (0..n).find(|&v| offset(v + 1) - offset(v) >= 2).unwrap();
    let at = data.start + offset(wide) as usize;
    let mut swapped = image.clone();
    swapped.swap(at, at + 1);
    assert_content_rejected(swapped, "ranks not strictly increasing within a row");
    let mut repeated = image.clone();
    repeated[at + 1] = repeated[at];
    assert_content_rejected(repeated, "repeated rank within a row");

    // Hand the preceding vertex's row to a landmark: every row is still
    // sorted and the entry total still matches the header.
    let landmark = (hcl.highway().landmarks().iter().map(|&l| l as usize))
        .find(|&l| l > 0 && offset(l - 1) != offset(l))
        .expect("fixture has a landmark preceded by a labelled vertex");
    assert_content_rejected(
        damaged(&image, SECTION_LABEL_OFFSETS, landmark, offset(landmark - 1)),
        "non-empty label on a landmark",
    );
    assert_content_rejected(
        damaged(&image, SECTION_LABEL_OFFSETS, 1, data.len() as u32 + 100),
        "label offset past the data section",
    );
    assert_content_rejected(
        damaged(&image, SECTION_LANDMARKS, 1, get(&image, SECTION_LANDMARKS, 0)),
        "duplicate landmark",
    );
}

#[test]
fn bit_flips_never_panic_and_never_corrupt_silently() {
    let (image, hcl, sparse) = packed_image();
    let mut accepted = 0usize;
    for at in 0..image.len() {
        for bit in [0u8, 3, 7] {
            let mut mutated = image.clone();
            mutated[at] ^= 1 << bit;
            match IndexView::from_bytes(&mutated) {
                Err(_) => {}
                Ok(view) => {
                    // Only padding flips may survive — prove the payload is
                    // untouched.
                    accepted += 1;
                    assert!(
                        content_identical(&view, &hcl, &sparse),
                        "flip at byte {at} bit {bit} validated but changed content"
                    );
                }
            }
        }
    }
    // Alignment padding before each of seven sections is at most 7 bytes
    // (three flips tried per byte); any more acceptances would mean
    // validation has a blind spot.
    assert!(accepted <= 3 * 7 * 7, "{accepted} flips accepted — validation too loose");
}

#[test]
fn truncations_are_clean_errors() {
    let (image, _, _) = packed_image();
    assert!(IndexView::from_bytes(&image).is_ok());
    for len in 0..image.len() {
        match IndexView::from_bytes(&image[..len]) {
            Err(_) => {}
            Ok(_) => panic!("truncation to {len} of {} bytes validated", image.len()),
        }
    }
}

#[test]
fn header_level_damage_reports_typed_errors() {
    let (image, _, _) = packed_image();

    let mut bad_magic = image.clone();
    bad_magic[0] = b'X';
    assert!(matches!(IndexView::from_bytes(&bad_magic), Err(StoreError::BadMagic)));

    let mut future = image.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        IndexView::from_bytes(&future),
        Err(StoreError::UnsupportedVersion { found: 99 })
    ));

    // v1 stored the sparse CSR in original id space with no VIEW_OF, and
    // v2 stored labels as delta-varint streams; both are retired formats,
    // not damaged v3 files.
    for old in [1u32, 2] {
        let mut retired = image.clone();
        retired[8..12].copy_from_slice(&old.to_le_bytes());
        assert!(matches!(
            IndexView::from_bytes(&retired),
            Err(StoreError::UnsupportedVersion { found }) if found == old
        ));
    }

    assert!(matches!(IndexView::from_bytes(&image[..16]), Err(StoreError::Truncated { .. })));
    assert!(matches!(IndexView::from_bytes(&[]), Err(StoreError::Truncated { .. })));

    // A checksum flip is reported as corruption, not i/o.
    let mut bad_payload = image.clone();
    let last = bad_payload.len() - 1;
    bad_payload[last] ^= 0xff;
    assert!(matches!(IndexView::from_bytes(&bad_payload), Err(StoreError::Corrupt(_))));
}

#[test]
fn damaged_files_on_disk_fail_to_open() {
    let dir = std::env::temp_dir().join("hcl_store_corruption_test");
    std::fs::create_dir_all(&dir).unwrap();
    let (image, _, _) = packed_image();

    // Truncated on disk.
    let truncated = dir.join("truncated.hclx");
    std::fs::write(&truncated, &image[..image.len() / 2]).unwrap();
    assert!(PackedOracle::open(&truncated).is_err());

    // Shorter than a header.
    let stub = dir.join("stub.hclx");
    std::fs::write(&stub, b"HCLSTOR1").unwrap();
    assert!(matches!(PackedOracle::open(&stub), Err(StoreError::Truncated { .. })));

    // Empty file (mmap would reject it; the loader must error first).
    let empty = dir.join("empty.hclx");
    std::fs::write(&empty, b"").unwrap();
    assert!(PackedOracle::open(&empty).is_err());

    // Missing file.
    assert!(matches!(PackedOracle::open(dir.join("nope.hclx")), Err(StoreError::Io(_))));

    // Not an index at all.
    let noise = dir.join("noise.hclx");
    std::fs::write(&noise, vec![0xabu8; 4096]).unwrap();
    assert!(matches!(PackedOracle::open(&noise), Err(StoreError::BadMagic)));

    std::fs::remove_dir_all(&dir).ok();
}
