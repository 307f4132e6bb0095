//! Persistence for highway cover labellings.
//!
//! A labelling is the product of minutes of preprocessing on large graphs;
//! saving it lets a query service start instantly. The format is a simple
//! little-endian container: magic, vertex count, landmark list, the highway
//! distance matrix, label offsets, and packed `(rank, dist)` entries, each
//! a `u16` pair on disk although both values fit a byte in memory. Each
//! section is one bulk read decoded from its bytes; a count in the header
//! sizes nothing before the bytes it counts have arrived, so a truncated
//! or lying file fails as a short read.
//!
//! The reader accepts exactly what the packed `.hclx` reader accepts: at
//! most [`MAX_LANDMARKS`] distinct landmarks, a symmetric highway matrix
//! with a zero diagonal and finite distances below `n`, and labels strictly
//! sorted by rank, ranks below `|R|`, distances within a byte, and empty on
//! landmarks.

use crate::build::HighwayCoverLabelling;
use crate::highway::Highway;
use crate::labels::{HighwayLabels, MAX_LANDMARKS};
use hcl_graph::io::read_section;
use hcl_graph::GraphError;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"HCLIDX01";

/// Serialises a labelling.
pub fn write_labelling<W: Write>(l: &HighwayCoverLabelling, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    w.write_all(MAGIC)?;
    let n = l.labels().num_vertices() as u64;
    let r = l.num_landmarks() as u64;
    w.write_all(&n.to_le_bytes())?;
    w.write_all(&r.to_le_bytes())?;
    for rank in 0..l.num_landmarks() as u32 {
        w.write_all(&l.highway().landmark(rank).to_le_bytes())?;
    }
    for a in 0..l.num_landmarks() as u32 {
        for b in 0..l.num_landmarks() as u32 {
            w.write_all(&l.highway().distance(a, b).to_le_bytes())?;
        }
    }
    let mut total: u32 = 0;
    w.write_all(&total.to_le_bytes())?;
    for v in 0..l.labels().num_vertices() as u32 {
        total += l.labels().label(v).len() as u32;
        w.write_all(&total.to_le_bytes())?;
    }
    for v in 0..l.labels().num_vertices() as u32 {
        for e in l.labels().label(v) {
            w.write_all(&u16::from(e.landmark).to_le_bytes())?;
            w.write_all(&u16::from(e.dist).to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Deserialises a labelling written by [`write_labelling`]. Each section
/// (landmarks, highway matrix, label offsets, label entries) is one bulk
/// read ([`hcl_graph::io::read_section`]) decoded from its bytes, so no
/// allocation is sized by a header count before the bytes it counts have
/// arrived.
pub fn read_labelling<R: Read>(mut r: R) -> Result<HighwayCoverLabelling, GraphError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(GraphError::Format("bad labelling magic".to_string()));
    }
    let n = read_u64(&mut r)?;
    if n >= u32::MAX as u64 {
        return Err(GraphError::Format(format!("implausible vertex count {n}")));
    }
    let n = n as usize;
    let num_landmarks = read_u64(&mut r)? as usize;
    if num_landmarks > MAX_LANDMARKS {
        return Err(GraphError::Format(format!("implausible landmark count {num_landmarks}")));
    }
    let mut landmarks = Vec::with_capacity(num_landmarks);
    for v in u32s(&read_section(&mut r, 4 * num_landmarks as u64)?) {
        if v as usize >= n {
            return Err(GraphError::Format("landmark out of range".to_string()));
        }
        if landmarks.contains(&v) {
            return Err(GraphError::Format(format!("duplicate landmark {v}")));
        }
        landmarks.push(v);
    }
    let matrix: Vec<u32> =
        u32s(&read_section(&mut r, 4 * (num_landmarks * num_landmarks) as u64)?).collect();
    for (i, &d) in matrix.iter().enumerate() {
        let (a, b) = (i / num_landmarks, i % num_landmarks);
        let implausible = d != hcl_graph::INF && d as usize >= n.max(1);
        if implausible || (a == b && d != 0) || (b < a && d != matrix[b * num_landmarks + a]) {
            return Err(GraphError::Format(format!("highway matrix bad at ({a}, {b})")));
        }
    }
    let offsets: Vec<u32> = u32s(&read_section(&mut r, 4 * (n as u64 + 1))?).collect();
    if offsets[0] != 0 || offsets.windows(2).any(|w| w[1] < w[0]) {
        return Err(GraphError::Format("non-monotone label offsets".to_string()));
    }
    let mut highway = Highway::new(n, &landmarks);
    for a in 0..num_landmarks {
        for b in 0..a {
            let d = matrix[a * num_landmarks + b];
            if d != hcl_graph::INF {
                highway.record(a as u32, b as u32, d);
            }
        }
    }
    let total = *offsets.last().unwrap() as usize;
    let entries = read_section(&mut r, 4 * total as u64)?;
    let (mut ranks, mut dists) = (Vec::with_capacity(total), Vec::with_capacity(total));
    for (v, row) in offsets.windows(2).enumerate() {
        if row[0] != row[1] && highway.is_landmark(v as u32) {
            return Err(GraphError::Format(format!("landmark {v} has a non-empty label")));
        }
        let mut prev = None;
        for e in entries[4 * row[0] as usize..4 * row[1] as usize].chunks_exact(4) {
            let (rank, dist) = (u16::from_le_bytes([e[0], e[1]]), u16::from_le_bytes([e[2], e[3]]));
            let (Ok(rank), Ok(dist)) = (u8::try_from(rank), u8::try_from(dist)) else {
                return Err(GraphError::Format(format!("label entry of {v} exceeds a byte")));
            };
            if rank as usize >= num_landmarks {
                return Err(GraphError::Format("label entry rank out of range".to_string()));
            }
            if prev.is_some_and(|p| p >= rank) {
                return Err(GraphError::Format(format!("label of {v} not strictly sorted")));
            }
            prev = Some(rank);
            ranks.push(rank);
            dists.push(dist);
        }
    }
    Ok(HighwayCoverLabelling::from_parts(highway, HighwayLabels::from_parts(offsets, ranks, dists)))
}

/// Saves a labelling to a file.
pub fn save_labelling<P: AsRef<Path>>(
    l: &HighwayCoverLabelling,
    path: P,
) -> Result<(), GraphError> {
    write_labelling(l, std::fs::File::create(path)?)
}

/// Loads a labelling from a file.
pub fn load_labelling<P: AsRef<Path>>(path: P) -> Result<HighwayCoverLabelling, GraphError> {
    read_labelling(std::fs::File::open(path)?)
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, GraphError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// The little-endian `u32`s of a section.
fn u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_graph::generate;
    use std::io::Cursor;

    #[test]
    fn roundtrip() {
        let g = generate::barabasi_albert(200, 3, 8);
        let landmarks = hcl_graph::order::top_degree(&g, 7);
        let (l, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let mut buf = Vec::new();
        write_labelling(&l, &mut buf).unwrap();
        let l2 = read_labelling(Cursor::new(buf)).unwrap();
        assert_eq!(l, l2);
    }

    #[test]
    fn roundtrip_disconnected_highway() {
        let g = hcl_graph::CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let (l, _) = HighwayCoverLabelling::build(&g, &[0, 3]).unwrap();
        let mut buf = Vec::new();
        write_labelling(&l, &mut buf).unwrap();
        let l2 = read_labelling(Cursor::new(buf)).unwrap();
        assert_eq!(l, l2);
        assert_eq!(l2.highway().distance(0, 1), hcl_graph::INF);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert!(read_labelling(Cursor::new(b"WRONG!!!".to_vec())).is_err());
        let g = generate::cycle(8);
        let (l, _) = HighwayCoverLabelling::build(&g, &[0, 4]).unwrap();
        let mut buf = Vec::new();
        write_labelling(&l, &mut buf).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_labelling(Cursor::new(buf)).is_err());
    }

    /// An `HCLIDX01` image from raw parts: `rows` holds each vertex's
    /// `(rank, dist)` entries as written, valid or not.
    fn image(n: u64, landmarks: &[u32], matrix: &[u32], rows: &[&[(u16, u16)]]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend(n.to_le_bytes());
        buf.extend((landmarks.len() as u64).to_le_bytes());
        landmarks.iter().chain(matrix).for_each(|x| buf.extend(x.to_le_bytes()));
        let mut at = 0u32;
        buf.extend(at.to_le_bytes());
        for row in rows {
            at += row.len() as u32;
            buf.extend(at.to_le_bytes());
        }
        for &(rank, dist) in rows.iter().copied().flatten() {
            buf.extend(rank.to_le_bytes());
            buf.extend(dist.to_le_bytes());
        }
        buf
    }

    #[test]
    fn rejects_what_the_packed_reader_rejects() {
        // Path 0 - 1 - 2 - 3 with landmarks 0 and 3.
        let matrix = [0, 3, 3, 0];
        let good: [&[(u16, u16)]; 4] = [&[], &[(0, 1), (1, 2)], &[(0, 2), (1, 1)], &[]];
        let l = read_labelling(Cursor::new(image(4, &[0, 3], &matrix, &good))).unwrap();
        let g = generate::path(4);
        assert_eq!(l, HighwayCoverLabelling::build(&g, &[0, 3]).unwrap().0);

        let unsorted: [&[(u16, u16)]; 4] = [&[], &[(1, 2), (0, 1)], &[(0, 2), (1, 1)], &[]];
        let on_landmark: [&[(u16, u16)]; 4] =
            [&[(1, 3)], &[(0, 1), (1, 2)], &[(0, 2), (1, 1)], &[]];
        let wide: [&[(u16, u16)]; 4] = [&[], &[(0, 256), (1, 2)], &[(0, 2), (1, 1)], &[]];
        for (what, bytes) in [
            ("labels not strictly sorted", image(4, &[0, 3], &matrix, &unsorted)),
            ("label on a landmark", image(4, &[0, 3], &matrix, &on_landmark)),
            ("duplicate landmark", image(4, &[3, 3], &matrix, &good)),
            ("asymmetric highway", image(4, &[0, 3], &[0, 3, 4, 0], &good)),
            ("nonzero highway diagonal", image(4, &[0, 3], &[1, 3, 3, 0], &good)),
            ("highway distance >= n", image(4, &[0, 3], &[0, 4, 4, 0], &good)),
            ("distance beyond a byte", image(4, &[0, 3], &matrix, &wide)),
        ] {
            assert!(
                matches!(read_labelling(Cursor::new(bytes)), Err(GraphError::Format(_))),
                "{what} accepted"
            );
        }
        let too_many = image(4, &[0; MAX_LANDMARKS + 1], &[], &good);
        assert!(matches!(read_labelling(Cursor::new(too_many)), Err(GraphError::Format(_))));
    }

    #[test]
    fn cut_anywhere_is_a_typed_error() {
        // Path 0 - 1 - 2 - 3 with landmarks 0 and 3: every section is
        // non-empty, so every proper prefix is short.
        let rows: [&[(u16, u16)]; 4] = [&[], &[(0, 1), (1, 2)], &[(0, 2), (1, 1)], &[]];
        let buf = image(4, &[0, 3], &[0, 3, 3, 0], &rows);
        for cut in 0..buf.len() {
            let got = read_labelling(Cursor::new(&buf[..cut]));
            assert!(
                matches!(got, Err(GraphError::Io(ref e)) if e.kind() == std::io::ErrorKind::UnexpectedEof),
                "cut at {cut}: {got:?}"
            );
        }
        assert!(read_labelling(Cursor::new(&buf)).is_ok());
    }

    #[test]
    fn counts_beyond_the_body_fail_as_short_reads() {
        let rows: [&[(u16, u16)]; 4] = [&[], &[(0, 1), (1, 2)], &[(0, 2), (1, 1)], &[]];
        let good = image(4, &[0, 3], &[0, 3, 3, 0], &rows);
        // A vertex count of 2^32 - 2 claims 16 GiB of offsets.
        let mut huge_n = good.clone();
        huge_n[8..16].copy_from_slice(&(u32::MAX as u64 - 1).to_le_bytes());
        // The last offset claims 2^32 - 1 entries, 16 GiB of them.
        let mut huge_total = good[..good.len() - 16].to_vec();
        let last = huge_total.len() - 4;
        huge_total[last..].copy_from_slice(&u32::MAX.to_le_bytes());
        for bytes in [huge_n, huge_total] {
            let got = read_labelling(Cursor::new(bytes));
            assert!(matches!(got, Err(GraphError::Io(_))), "{got:?}");
        }
    }

    #[test]
    fn file_roundtrip_and_queries_work_after_load() {
        let dir = std::env::temp_dir().join("hcl_core_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = generate::barabasi_albert(150, 3, 2);
        let landmarks = hcl_graph::order::top_degree(&g, 5);
        let (l, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        let path = dir.join("index.hcl");
        save_labelling(&l, &path).unwrap();
        let l2 = load_labelling(&path).unwrap();
        let mut oracle = crate::HlOracle::new(&g, l2);
        let mut reference = crate::HlOracle::new(&g, l);
        for (s, t) in [(0u32, 149u32), (3, 77), (10, 10)] {
            assert_eq!(oracle.query(s, t), reference.query(s, t));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
