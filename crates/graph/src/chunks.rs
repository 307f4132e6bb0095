//! Copy-on-write vertex chunks, the one edit model of the per-vertex
//! stores: [`CsrGraph`](crate::CsrGraph)'s adjacency rows and `hcl-core`'s
//! label rows. Each run of [`CHUNK_VERTICES`] vertices is one shared `u32`
//! allocation, found with a shift and indexed with a mask ([`locate`]).
//! An edit clones the [`ChunkTable`] of handles with the chunks it rewrote
//! in place of the parent's ([`ChunkTable::edited`]): `n / CHUNK_VERTICES`
//! handles plus those chunks, however many edits came before, and nothing
//! to fold. Each store keeps its chunks canonical — two holding the same
//! rows hold the same words — so tables compare words where handles differ.

use crate::VertexId;
use std::sync::Arc;

/// One chunk: the rows of up to [`CHUNK_VERTICES`] consecutive vertices,
/// laid out by the store that owns it.
pub type Chunk = Arc<[u32]>;

/// `log2` of [`CHUNK_VERTICES`].
pub const CHUNK_SHIFT: u32 = 10;

/// Vertices per chunk. An edit clones the table, `n / CHUNK_VERTICES`
/// handles, and copies the chunks it touches, each about
/// `CHUNK_VERTICES` rows; the figure balances the two. On BA 1M with m 8
/// and 20 landmarks, where an adjacency chunk averages 64 KB and the hub
/// chunk is about 2 MB, the mean `apply_edit` (graph, view and labels, the
/// parent dropped) measured 103 µs at 512, 60–75 µs at 1024 and 87–97 µs
/// at 2048, on one core of a 2-vCPU x86-64 host.
pub const CHUNK_VERTICES: usize = 1 << CHUNK_SHIFT;

/// A vertex's row index within its chunk.
const CHUNK_MASK: VertexId = (1 << CHUNK_SHIFT) - 1;

/// The chunk that holds `v`, and `v`'s row index within it.
#[inline]
pub fn locate(v: VertexId) -> (usize, usize) {
    ((v >> CHUNK_SHIFT) as usize, (v & CHUNK_MASK) as usize)
}

/// The shared table of chunk handles behind a chunked store; see the
/// module docs. Dereferences to the handles, `table[c]` holding the rows
/// of vertices `c * CHUNK_VERTICES..`.
#[derive(Clone, Debug)]
pub struct ChunkTable(Arc<[Chunk]>);

impl ChunkTable {
    /// A table over freshly built chunks.
    pub fn new(chunks: Vec<Chunk>) -> Self {
        ChunkTable(chunks.into())
    }

    /// This table with the chunks `edit` replaces in a copy of the
    /// handles: the copy shares every chunk `edit` leaves in place with
    /// `self`, and `self` is untouched.
    pub fn edited(&self, edit: impl FnOnce(&mut [Chunk])) -> ChunkTable {
        let mut chunks: Arc<[Chunk]> = self.0.iter().cloned().collect();
        edit(Arc::get_mut(&mut chunks).expect("a new table is unshared"));
        ChunkTable(chunks)
    }

    /// Chunks of `self` that are not the same allocation as the chunk in
    /// the same place of `other`: for a table edited from `other`, the
    /// chunks the edits copied.
    pub fn not_shared_with(&self, other: &ChunkTable) -> usize {
        let shared =
            |c: usize, chunk: &Chunk| other.0.get(c).is_some_and(|o| Arc::ptr_eq(chunk, o));
        self.0.iter().enumerate().filter(|&(c, chunk)| !shared(c, chunk)).count()
    }

    /// Bytes of the chunks themselves (not of the handles).
    pub fn bytes(&self) -> usize {
        self.0.iter().map(|c| std::mem::size_of_val(&**c)).sum()
    }
}

impl std::ops::Deref for ChunkTable {
    type Target = [Chunk];

    #[inline]
    fn deref(&self) -> &[Chunk] {
        &self.0
    }
}

/// Equality of the chunks' words: a shared chunk is equal by its handle,
/// any other compares word for word (chunks are canonical).
impl PartialEq for ChunkTable {
    fn eq(&self, other: &ChunkTable) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(other.0.iter()).all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl Eq for ChunkTable {}
