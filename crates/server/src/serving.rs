//! [`ServingIndex`]: the backend a serving generation runs on — either the
//! heap-resident [`SharedOracle`] or `hcl-store`'s memory-mapped
//! [`PackedOracle`].
//!
//! The whole serving stack ([`QueryService`](crate::QueryService), the
//! batch executor, the reactor) is written against this enum, pinned per
//! generation inside an `OracleEpoch`, so a `RELOAD` can swap not just the
//! index contents but the *kind* of index: an in-memory build can be
//! replaced by a remap of a packed file and vice versa, with in-flight
//! queries finishing on whichever backend they pinned. Both variants are
//! instantiations of the one generic `hcl_core::Oracle`; the enum only
//! dispatches once per query, never inside the merge or the search.

use crate::oracle_pool::IndexSizes;
use hcl_core::{ContextPool, QueryContext, SharedOracle};
use hcl_graph::VertexId;
use hcl_store::PackedOracle;

/// One queryable index generation; see the module docs.
#[derive(Debug)]
pub enum ServingIndex {
    /// The classic heap-resident index (owned graph, labelling, and
    /// precomputed sparse view).
    Memory(SharedOracle),
    /// A zero-copy view over a packed `.hclx` file; reloads remap instead
    /// of rebuilding.
    Packed(PackedOracle),
}

impl ServingIndex {
    /// Number of vertices this generation can answer for.
    pub fn num_vertices(&self) -> usize {
        match self {
            ServingIndex::Memory(o) => o.num_vertices(),
            ServingIndex::Packed(o) => o.num_vertices(),
        }
    }

    /// The generation's persistent context pool.
    pub fn context_pool(&self) -> &ContextPool {
        match self {
            ServingIndex::Memory(o) => o.context_pool(),
            ServingIndex::Packed(o) => o.context_pool(),
        }
    }

    /// Exact distance using a caller-held context.
    #[inline]
    pub fn distance_with(&self, ctx: &mut QueryContext, s: VertexId, t: VertexId) -> Option<u32> {
        match self {
            ServingIndex::Memory(o) => o.distance_with(ctx, s, t),
            ServingIndex::Packed(o) => o.distance_with(ctx, s, t),
        }
    }

    /// [`distance_with`](Self::distance_with) plus per-phase wall-clock
    /// accounting, feeding the cumulative merge/search `METRICS` counters.
    #[inline]
    pub fn distance_with_timed(
        &self,
        ctx: &mut QueryContext,
        s: VertexId,
        t: VertexId,
    ) -> (Option<u32>, hcl_core::QueryPhases) {
        match self {
            ServingIndex::Memory(o) => o.distance_with_timed(ctx, s, t),
            ServingIndex::Packed(o) => o.distance_with_timed(ctx, s, t),
        }
    }

    /// The in-memory oracle, when this generation is one (tests and
    /// callers needing the graph or sparse view directly).
    pub fn as_memory(&self) -> Option<&SharedOracle> {
        match self {
            ServingIndex::Memory(o) => Some(o),
            ServingIndex::Packed(_) => None,
        }
    }

    /// The packed oracle, when this generation serves from a mapped file.
    pub fn as_packed(&self) -> Option<&PackedOracle> {
        match self {
            ServingIndex::Memory(_) => None,
            ServingIndex::Packed(o) => Some(o),
        }
    }

    /// Sizes of this generation as reported by `STATS`. `store_bytes` is 0
    /// for in-memory generations (nothing on disk backs them);
    /// `plain_index_bytes` is what the index would occupy in the plain
    /// `HCLIDX01` serialisation, the baseline the packed compression ratio
    /// is measured against.
    pub fn sizes(&self) -> IndexSizes {
        match self {
            ServingIndex::Memory(o) => {
                let view = o.sparse_view();
                let labels = o.labelling().labels();
                IndexSizes {
                    index_bytes: o.labelling().index_bytes(),
                    sparse_bytes: view.memory_bytes(),
                    sparse_edges: view.num_edges(),
                    store_bytes: 0,
                    plain_index_bytes: hcl_store::plain_index_bytes(
                        labels.num_vertices(),
                        o.labelling().num_landmarks(),
                        labels.total_entries(),
                    ),
                    rank_lane_bytes: labels.rank_lane_bytes(),
                    dist_lane_bytes: labels.dist_lane_bytes(),
                }
            }
            ServingIndex::Packed(o) => {
                let view = o.view();
                // The packed labels stay delta-varint on disk; the lanes
                // are what each entry decodes into (one u16 per lane).
                let lane = view.total_label_entries() as usize * std::mem::size_of::<u16>();
                IndexSizes {
                    index_bytes: view.packed_index_bytes(),
                    sparse_bytes: view.sparse_bytes(),
                    sparse_edges: view.sparse_edges(),
                    store_bytes: view.store_bytes(),
                    plain_index_bytes: view.plain_index_bytes(),
                    rank_lane_bytes: lane,
                    dist_lane_bytes: lane,
                }
            }
        }
    }
}

impl From<SharedOracle> for ServingIndex {
    fn from(o: SharedOracle) -> ServingIndex {
        ServingIndex::Memory(o)
    }
}

impl From<PackedOracle> for ServingIndex {
    fn from(o: PackedOracle) -> ServingIndex {
        ServingIndex::Packed(o)
    }
}
