//! Graph I/O: text edge lists and a compact binary format.
//!
//! Text edge lists use the de-facto standard of SNAP / KONECT downloads
//! (one `u v` pair per line, `#` / `%` comment lines), so graphs prepared
//! for the original paper's pipeline load unchanged. The binary format is a
//! minimal little-endian container (magic, version, `n`, `m`, edge pairs)
//! designed to be trivially auditable rather than clever. Its reader takes
//! the edge section in one bulk read ([`read_section`]: buffers grow with
//! the bytes that arrive, never with a header's claim) and hands the
//! decoded pairs to [`GraphBuilder`]'s counting-sort fill, so a load is
//! `O(n + m)` plus one sort per row.

use crate::csr::{CsrGraph, GraphBuilder};
use crate::{GraphError, VertexId};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"HCLGRPH1";

/// Parses a whitespace-separated edge list from any reader. Lines starting
/// with `#` or `%` (and blank lines) are skipped. Vertex ids are used as-is;
/// the vertex count is `max_id + 1`.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<CsrGraph, GraphError> {
    let mut b = GraphBuilder::new(0);
    let mut line_no = 0usize;
    for line in reader.lines() {
        line_no += 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let u = parse_vertex(parts.next(), line_no)?;
        let v = parse_vertex(parts.next(), line_no)?;
        b.add_edge_growing(u, v);
    }
    Ok(b.build())
}

fn parse_vertex(tok: Option<&str>, line: usize) -> Result<VertexId, GraphError> {
    let tok = tok.ok_or_else(|| GraphError::Parse {
        line,
        message: "expected two vertex ids".to_string(),
    })?;
    tok.parse::<VertexId>()
        .map_err(|e| GraphError::Parse { line, message: format!("invalid vertex id {tok:?}: {e}") })
}

/// Loads a text edge list from a file.
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> Result<CsrGraph, GraphError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(BufReader::new(file))
}

/// Writes the graph as a text edge list (one `u v` line per edge).
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# {} vertices, {} edges", g.num_vertices(), g.num_edges())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Saves a text edge list to a file.
pub fn save_edge_list<P: AsRef<Path>>(g: &CsrGraph, path: P) -> Result<(), GraphError> {
    write_edge_list(g, std::fs::File::create(path)?)
}

/// Serialises the graph in the binary container format.
pub fn write_binary<W: Write>(g: &CsrGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    w.write_all(MAGIC)?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    for (u, v) in g.edges() {
        w.write_all(&u.to_le_bytes())?;
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a graph from the binary container format: the header, then the
/// edge section in one bulk read ([`read_section`]), decoded from the
/// bytes.
pub fn read_binary<R: Read>(mut reader: R) -> Result<CsrGraph, GraphError> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(GraphError::Format("bad magic".to_string()));
    }
    let n = read_u64(&mut reader)?;
    let m = read_u64(&mut reader)?;
    if n >= u32::MAX as u64 {
        return Err(GraphError::Format(format!("implausible vertex count {n}")));
    }
    let n = n as usize;
    let body = read_section(&mut reader, m.saturating_mul(8))?;
    let mut b = GraphBuilder::with_capacity(n, body.len() / 8);
    for pair in body.chunks_exact(8) {
        let u = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]);
        let v = u32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]);
        b.add_edge(u, v).map_err(|e| GraphError::Format(format!("edge out of range: {e}")))?;
    }
    drop(body);
    Ok(b.build())
}

/// Saves the binary format to a file.
pub fn save_binary<P: AsRef<Path>>(g: &CsrGraph, path: P) -> Result<(), GraphError> {
    write_binary(g, std::fs::File::create(path)?)
}

/// Loads the binary format from a file.
pub fn load_binary<P: AsRef<Path>>(path: P) -> Result<CsrGraph, GraphError> {
    read_binary(std::fs::File::open(path)?)
}

/// Loads a graph picking the format by extension: `.txt` / `.el` parse as
/// text edge lists, anything else as the binary container. The convention
/// every path-taking entry point shares (the `hcl` CLI, the server's
/// `RELOAD` command).
pub fn load_auto<P: AsRef<Path>>(path: P) -> Result<CsrGraph, GraphError> {
    let is_text = path
        .as_ref()
        .extension()
        .and_then(|e| e.to_str())
        .is_some_and(|e| e.eq_ignore_ascii_case("txt") || e.eq_ignore_ascii_case("el"));
    if is_text {
        load_edge_list(path)
    } else {
        load_binary(path)
    }
}

/// Reads exactly `len` bytes in one bulk read. The buffer grows only as
/// bytes arrive, so a header that claims more than the input holds costs
/// at most what was read before the input ran out, and fails as a short
/// read (`GraphError::Io`, `UnexpectedEof`).
pub fn read_section<R: Read>(reader: &mut R, len: u64) -> Result<Vec<u8>, GraphError> {
    let mut buf = Vec::new();
    reader.take(len).read_to_end(&mut buf)?;
    if (buf.len() as u64) < len {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    Ok(buf)
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, GraphError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use std::io::Cursor;

    #[test]
    fn parse_edge_list_with_comments() {
        let text = "# a comment\n% another\n0 1\n1 2\n\n2 0\n";
        let g = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(read_edge_list(Cursor::new("0 x\n")).is_err());
        assert!(read_edge_list(Cursor::new("42\n")).is_err());
    }

    #[test]
    fn text_roundtrip() {
        let g = generate::barabasi_albert(60, 3, 2);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_roundtrip() {
        let g = generate::erdos_renyi(100, 300, 3);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(Cursor::new(buf)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn load_auto_picks_format_by_extension() {
        let g = generate::barabasi_albert(40, 3, 5);
        let dir = std::env::temp_dir();
        let text = dir.join(format!("hcl-io-auto-{}.el", std::process::id()));
        let binary = dir.join(format!("hcl-io-auto-{}.hclg", std::process::id()));
        write_edge_list(&g, std::fs::File::create(&text).unwrap()).unwrap();
        save_binary(&g, &binary).unwrap();
        assert_eq!(load_auto(&text).unwrap(), g);
        assert_eq!(load_auto(&binary).unwrap(), g);
        let _ = std::fs::remove_file(&text);
        let _ = std::fs::remove_file(&binary);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let buf = b"NOTMAGIC\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0".to_vec();
        assert!(matches!(read_binary(Cursor::new(buf)), Err(GraphError::Format(_))));
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = generate::path(4);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(Cursor::new(buf)).is_err());
    }

    #[test]
    fn binary_cut_anywhere_is_a_typed_error() {
        let g = generate::erdos_renyi(12, 20, 4);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Section boundaries (magic, counts, first edge, last edge) and
        // every byte between them.
        for cut in 0..buf.len() {
            let got = read_binary(Cursor::new(&buf[..cut]));
            assert!(
                matches!(got, Err(GraphError::Io(ref e)) if e.kind() == std::io::ErrorKind::UnexpectedEof),
                "cut at {cut}: {got:?}"
            );
        }
        assert_eq!(read_binary(Cursor::new(&buf)).unwrap(), g);
    }

    #[test]
    fn binary_edge_count_beyond_the_body_fails_without_reserving_it() {
        // Reserving either claim would panic (2^61 edges overflow a
        // `Vec`'s capacity) or abort (2^40 edges are 8 TiB): the reader
        // must size its buffers by the 16 body bytes that are there.
        for claimed in [u64::MAX >> 3, 1 << 40, 3] {
            let mut buf = MAGIC.to_vec();
            buf.extend(4u64.to_le_bytes());
            buf.extend(claimed.to_le_bytes());
            for x in [0u32, 1, 2, 3] {
                buf.extend(x.to_le_bytes());
            }
            let got = read_binary(Cursor::new(buf));
            assert!(matches!(got, Err(GraphError::Io(_))), "claimed {claimed}: {got:?}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("hcl_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = generate::grid(5, 7);
        let bin = dir.join("g.hclg");
        save_binary(&g, &bin).unwrap();
        assert_eq!(load_binary(&bin).unwrap(), g);
        let txt = dir.join("g.txt");
        save_edge_list(&g, &txt).unwrap();
        assert_eq!(load_edge_list(&txt).unwrap(), g);
        std::fs::remove_dir_all(&dir).ok();
    }
}
