//! Incremental maintenance of a highway cover labelling under single edge
//! insertions and deletions — the `O(affected)` alternative to a full
//! rebuild that the `UPDATE ADD/DEL` wire verbs ride.
//!
//! An edit is computed as a [`LabelPatch`] — the label rows and highway
//! cells that actually moved, plus the edge edit — and a new generation is
//! the old one with the patch laid over it: graph, labelling and sparse
//! view are base + overlay values ([`CsrGraph`],
//! [`HighwayLabels`](crate::labels::HighwayLabels)), so
//! [`apply_edit`] costs `O(affected rows + deg(u) + deg(v))` and its three
//! results share every untouched byte with their inputs. Only the edit that
//! overflows an overlay pays an `O(n + m)` fold.
//!
//! # Why this is tractable for highway cover labels
//!
//! Full 2-hop labellings (PLL and friends) interleave pruning across *all*
//! roots, so one edge edit can invalidate label entries of vertices far
//! from the edit in ways that are expensive to even detect. The highway
//! cover labelling is different in two load-bearing ways:
//!
//! 1. **Labels are a closed-form function of distances.** By Lemma 3.7 the
//!    entry `(r, d(r, v))` is in `L(v)` **iff** `d(r, v)` is finite and no
//!    other landmark `w` satisfies `d(r, w) + d(w, v) = d(r, v)`. So given
//!    the new landmark→vertex distances, every label row can be recomputed
//!    locally — no global pruned BFS order to replay.
//! 2. **Old distances are queryable in `O(|L(v)|)`.** Corollary 3.8
//!    ([`HighwayCoverLabelling::bound_from_landmark`]) returns the exact
//!    old distance from any landmark to any vertex, which is precisely the
//!    `d_old` oracle the classic incremental-BFS algorithms assume they
//!    have in an `O(n)` array — here we get it for free from the index
//!    itself, so an update never allocates per-landmark distance arrays.
//!
//! # Algorithm
//!
//! Per landmark `r` (rank `i`), [`apply_edit`] computes the **affected
//! map** `aff[i]: vertex → new distance`, containing exactly the vertices
//! whose distance from `r` changed:
//!
//! * **Insert `{u, v}`** — distances only decrease. Order the endpoints so
//!   `d_old(a) ≤ d_old(b)`; if `d_old(a) + 1 ≥ d_old(b)` nothing changes.
//!   Otherwise a FIFO BFS from `b` over the *new* graph propagates the
//!   improvement `c = d_old(a) + 1` outward, pruning at any vertex that
//!   does not improve (its neighbours then satisfy
//!   `d_old(y) ≤ d_old(x) + 1` via the old graph, so they cannot improve
//!   through it either).
//! * **Delete `{u, v}`** — distances only increase. If
//!   `|d_old(u) − d_old(v)| ≠ 1` the edge was on no shortest path from `r`
//!   and nothing changes. Otherwise the deeper endpoint seeds an
//!   *invalidate-and-repair* pass over the affected cone: a worklist
//!   fixpoint marks `x` affected iff it has no unaffected parent (a
//!   neighbour `y` in the new graph with `d_old(y) = d_old(x) − 1`); when a
//!   vertex joins the affected set its children re-enter the worklist.
//!   Repair then runs a lazy-deletion Dijkstra *inside* the affected set,
//!   seeded from the unaffected boundary (`d_old(y) + 1` over unaffected
//!   neighbours `y`); vertices the deletion disconnects end at `INF`.
//!
//! The new highway matrix is assembled from the affected maps (landmark
//! columns) and re-closed; if **any** landmark pair moved, every label row
//! is re-derived (the Lemma 3.7 cover test reads `d(r, w)` terms, so rows
//! of vertices with *unchanged* distances can still flip — correctness
//! over cleverness here), otherwise only vertices in some affected map
//! are. Either way each row costs `O(|L_old| · |R| + |R|²)` plain array
//! ops, far below a rebuild's per-vertex BFS share, and only rows that
//! came out different enter the patch.
//!
//! [`PairFilter`] is the precise cache story: two BFS passes from the edit
//! endpoints classify every `(s, t)` pair by whether its cached distance
//! is still exact, so the serving layer retags surviving entries to the
//! new epoch instead of clearing the cache (see
//! `hcl-server`'s `ShardedCache::retag`).

use crate::build::HighwayCoverLabelling;
use crate::highway::Highway;
use crate::sparse::SparseView;
use hcl_graph::{traversal, CsrGraph, VertexId, INF};
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// One edge edit, in original vertex ids. Edges are undirected; the
/// endpoint order carries no meaning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeEdit {
    /// Insert the edge `{u, v}` (must not already exist).
    Add(VertexId, VertexId),
    /// Delete the edge `{u, v}` (must exist).
    Delete(VertexId, VertexId),
}

impl EdgeEdit {
    /// The edit's endpoints `(u, v)` as given.
    #[inline]
    pub fn endpoints(self) -> (VertexId, VertexId) {
        match self {
            EdgeEdit::Add(u, v) | EdgeEdit::Delete(u, v) => (u, v),
        }
    }

    /// True for [`EdgeEdit::Add`].
    #[inline]
    pub fn is_add(self) -> bool {
        matches!(self, EdgeEdit::Add(..))
    }
}

impl std::fmt::Display for EdgeEdit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeEdit::Add(u, v) => write!(f, "ADD {u} {v}"),
            EdgeEdit::Delete(u, v) => write!(f, "DEL {u} {v}"),
        }
    }
}

/// Errors from [`apply_edit`]. Every error leaves the inputs untouched —
/// callers keep serving the old generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// An endpoint is not a vertex of the graph.
    VertexOutOfRange { vertex: VertexId, n: usize },
    /// Both endpoints are the same vertex.
    SelfLoop(VertexId),
    /// `ADD` of an edge that already exists.
    EdgeExists(VertexId, VertexId),
    /// `DEL` of an edge that does not exist.
    EdgeMissing(VertexId, VertexId),
    /// A new label distance exceeded the 8-bit lane range (possible only
    /// on path-like adversarial graphs, same bound as at build time).
    DistanceOverflow { vertex: VertexId, distance: u32 },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for graph with {n} vertices")
            }
            UpdateError::SelfLoop(v) => write!(f, "self-loop edit on vertex {v}"),
            UpdateError::EdgeExists(u, v) => write!(f, "edge {{{u}, {v}}} already exists"),
            UpdateError::EdgeMissing(u, v) => write!(f, "edge {{{u}, {v}}} does not exist"),
            UpdateError::DistanceOverflow { vertex, distance } => write!(
                f,
                "updated distance {distance} to vertex {vertex} exceeds the 8-bit label range"
            ),
        }
    }
}

impl std::error::Error for UpdateError {}

/// What one edge edit changes in the index, as plain data: derived once
/// from a generation by [`apply_edit`], it turns any copy of that
/// generation into the next one ([`LabelPatch::apply`]) without repeating
/// the affected-set search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelPatch {
    edit: EdgeEdit,
    rows: Vec<(VertexId, Vec<(u8, u8)>)>,
    highway_cells: Vec<(u32, u32, u32)>,
}

impl LabelPatch {
    /// The edge edit the patch was derived for.
    pub fn edit(&self) -> EdgeEdit {
        self.edit
    }

    /// The label rows that differ from the base, by ascending vertex id:
    /// each the vertex's whole new label as `(rank, dist)` pairs in
    /// ascending rank order.
    pub fn rows(&self) -> &[(VertexId, Vec<(u8, u8)>)] {
        &self.rows
    }

    /// The landmark pairs whose distance moved, as `(rank_a, rank_b, new
    /// distance)` with `rank_a < rank_b` (`INF` for a pair the edit
    /// disconnected).
    pub fn highway_cells(&self) -> &[(u32, u32, u32)] {
        &self.highway_cells
    }

    /// Lays the patch over a copy of the generation it was derived from —
    /// same graph, same labelling, a view over the same landmarks —
    /// giving the generation [`apply_edit`] returned alongside it. The
    /// results share structure with the arguments. Fails only where
    /// [`apply_edit`] would have: the graph does not accept the edit.
    pub fn apply(
        &self,
        graph: &CsrGraph,
        labelling: &HighwayCoverLabelling,
        sparse: &SparseView,
    ) -> Result<(CsrGraph, HighwayCoverLabelling, SparseView), UpdateError> {
        let graph = edited_graph(graph, self.edit)?;
        let (labelling, sparse) = self.apply_to_index(labelling, sparse);
        Ok((graph, labelling, sparse))
    }

    fn apply_to_index(
        &self,
        labelling: &HighwayCoverLabelling,
        sparse: &SparseView,
    ) -> (HighwayCoverLabelling, SparseView) {
        let highway = labelling.highway().with_cells(&self.highway_cells);
        let labels = labelling.labels().with_rows(&self.rows);
        debug_assert!(labels.validate(&highway).is_ok());
        // The landmark set is unchanged, so an edit the graph accepted can
        // only fail here by invariant breakage.
        let (u, v) = self.edit.endpoints();
        let sparse = sparse
            .with_edit(u, v, self.edit.is_add(), &highway)
            .expect("sparse view out of sync with graph");
        (HighwayCoverLabelling::from_parts(highway, labels), sparse)
    }
}

/// The new index generation produced by [`apply_edit`]: a consistent
/// (graph, labelling, sparse view) triple sharing structure with the
/// generation it was derived from, the patch that separates the two, and
/// the bookkeeping the serving layer surfaces as counters.
#[derive(Debug)]
pub struct UpdateResult {
    /// The edited graph.
    pub graph: CsrGraph,
    /// Labelling exactly equal (per vertex, per entry) to a from-scratch
    /// build over `graph` — the differential test suite holds this to
    /// account.
    pub labelling: HighwayCoverLabelling,
    /// The patched query view `G[V∖R]` (degree order inherited, not
    /// re-sorted — a pure layout staleness the next full build clears).
    pub sparse: SparseView,
    /// Distinct vertices whose distance to at least one landmark changed.
    pub affected_vertices: usize,
    /// Whether any landmark-to-landmark distance moved (forces a full
    /// label sweep instead of an affected-only one).
    pub highway_changed: bool,
    /// What the edit changed, as data.
    pub patch: LabelPatch,
}

/// `graph` with `edit` applied, or the reason it cannot be.
fn edited_graph(graph: &CsrGraph, edit: EdgeEdit) -> Result<CsrGraph, UpdateError> {
    let n = graph.num_vertices();
    let (u, v) = edit.endpoints();
    for ep in [u, v] {
        if ep as usize >= n {
            return Err(UpdateError::VertexOutOfRange { vertex: ep, n });
        }
    }
    if u == v {
        return Err(UpdateError::SelfLoop(u));
    }
    match edit {
        EdgeEdit::Add(..) => graph.with_edge(u, v).ok_or(UpdateError::EdgeExists(u, v)),
        EdgeEdit::Delete(..) => graph.without_edge(u, v).ok_or(UpdateError::EdgeMissing(u, v)),
    }
}

/// Applies one edge edit incrementally: new graph, new labelling, patched
/// sparse view — without re-running any full-graph BFS and without
/// copying what the edit did not move. Errors are complete no-ops.
pub fn apply_edit(
    graph: &CsrGraph,
    labelling: &HighwayCoverLabelling,
    sparse: &SparseView,
    edit: EdgeEdit,
) -> Result<UpdateResult, UpdateError> {
    let new_graph = edited_graph(graph, edit)?;
    let (u, v) = edit.endpoints();
    let n = graph.num_vertices();

    let old_highway = labelling.highway();
    let num_landmarks = old_highway.num_landmarks();

    // Phase 1: per-landmark affected maps (vertex → new distance).
    let affected: Vec<HashMap<VertexId, u32>> = (0..num_landmarks as u32)
        .map(|rank| match edit {
            EdgeEdit::Add(..) => affected_insert(&new_graph, labelling, rank, u, v),
            EdgeEdit::Delete(..) => affected_delete(&new_graph, labelling, rank, u, v),
        })
        .collect();
    let mut touched = std::collections::HashSet::new();
    for aff in &affected {
        touched.extend(aff.keys().copied());
    }

    // Phase 2: new highway matrix. Column j of landmark i's distances comes
    // from aff[i] where present, the old matrix otherwise; re-closing is a
    // no-op on the exact metric but keeps the invariant machine-checked.
    // The cells that moved are the highway half of the patch.
    let mut new_highway = old_highway.unset();
    for i in 0..num_landmarks as u32 {
        for j in (i + 1)..num_landmarks as u32 {
            let d = match affected[i as usize].get(&old_highway.landmark(j)) {
                Some(&d) => d,
                None => old_highway.distance(i, j),
            };
            if d != INF {
                new_highway.record(i, j, d);
            }
        }
    }
    new_highway.close();
    let mut highway_cells = Vec::new();
    for i in 0..num_landmarks as u32 {
        for j in (i + 1)..num_landmarks as u32 {
            if new_highway.distance(i, j) != old_highway.distance(i, j) {
                highway_cells.push((i, j, new_highway.distance(i, j)));
            }
        }
    }
    let highway_changed = !highway_cells.is_empty();

    // Phase 3: re-derive label rows. A row depends on d(r_i, x) for all i
    // *and* on the landmark matrix (the Lemma 3.7 cover test), so a highway
    // change dirties every row; otherwise only touched vertices (a touched
    // landmark would mean a moved landmark-landmark distance, i.e. a
    // highway change — so every touched vertex has a label row). Rows that
    // come out as they were stay out of the patch.
    let candidates: Vec<VertexId> = if highway_changed {
        (0..n as VertexId).filter(|&x| !new_highway.is_landmark(x)).collect()
    } else {
        let mut order: Vec<VertexId> = touched.iter().copied().collect();
        order.sort_unstable();
        order
    };
    let old_labels = labelling.labels();
    let mut dvec = vec![INF; num_landmarks];
    let mut row_buf: Vec<(u32, u32)> = Vec::new();
    let mut rows: Vec<(VertexId, Vec<(u8, u8)>)> = Vec::new();
    for x in candidates {
        debug_assert!(!new_highway.is_landmark(x), "touched landmark without highway change");
        new_label_row(labelling, &affected, &new_highway, x, &mut dvec, &mut row_buf);
        let mut row = Vec::with_capacity(row_buf.len());
        for &(rank, d) in &row_buf {
            let d8 = u8::try_from(d)
                .map_err(|_| UpdateError::DistanceOverflow { vertex: x, distance: d })?;
            row.push((rank as u8, d8));
        }
        if !old_labels.label(x).iter().map(|e| (e.landmark, e.dist)).eq(row.iter().copied()) {
            rows.push((x, row));
        }
    }

    // Phase 4: lay the patch over the old generation.
    let patch = LabelPatch { edit, rows, highway_cells };
    let (new_labelling, new_sparse) = patch.apply_to_index(labelling, sparse);
    debug_assert_eq!(new_labelling.highway(), &new_highway);

    Ok(UpdateResult {
        graph: new_graph,
        labelling: new_labelling,
        sparse: new_sparse,
        affected_vertices: touched.len(),
        highway_changed,
        patch,
    })
}

/// Recomputes the Lemma 3.7 label row of non-landmark vertex `x` into
/// `row_buf` as `(rank, new_dist)` pairs in ascending rank order.
///
/// `dvec` is scratch of length `|R|`; on return `dvec[i]` holds the *new*
/// exact distance `d(r_i, x)`. The old distances are reconstructed in one
/// pass over the old label (each old entry `(e, d_e)` relaxes every
/// landmark through the *old* matrix row of `e` — Corollary 3.8), then the
/// affected maps overlay the changed ones.
fn new_label_row(
    labelling: &HighwayCoverLabelling,
    affected: &[HashMap<VertexId, u32>],
    new_highway: &Highway,
    x: VertexId,
    dvec: &mut [u32],
    row_buf: &mut Vec<(u32, u32)>,
) {
    let old_highway = labelling.highway();
    dvec.fill(INF);
    for e in labelling.labels().label(x) {
        let row = old_highway.row(e.landmark as u32);
        let d_e = e.dist as u32;
        for (slot, &via) in dvec.iter_mut().zip(row) {
            if via != INF && via + d_e < *slot {
                *slot = via + d_e;
            }
        }
    }
    for (slot, aff) in dvec.iter_mut().zip(affected) {
        if let Some(&d) = aff.get(&x) {
            *slot = d;
        }
    }
    row_buf.clear();
    for (i, &d) in dvec.iter().enumerate() {
        if d == INF {
            continue;
        }
        let row = new_highway.row(i as u32);
        let covered = dvec
            .iter()
            .zip(row)
            .enumerate()
            .any(|(j, (&dj, &via))| j != i && dj != INF && via != INF && via + dj == d);
        if !covered {
            row_buf.push((i as u32, d));
        }
    }
}

/// Affected map for an **insertion**, for the landmark with rank `rank`:
/// exactly the vertices whose distance decreased, with their new values.
///
/// Distance-decrease propagation: order endpoints so `d_old(a) ≤ d_old(b)`
/// (INF sorts last); the only new paths run `r ⇝ a → b ⇝ x`, so a FIFO BFS
/// from `b` at candidate `d_old(a) + 1` relaxes outward over the new
/// graph, stopping at any vertex the candidate does not improve: its old
/// adjacency already gave every neighbour `d_old(y) ≤ d_old(x) + 1`.
fn affected_insert(
    new_graph: &CsrGraph,
    labelling: &HighwayCoverLabelling,
    rank: u32,
    u: VertexId,
    v: VertexId,
) -> HashMap<VertexId, u32> {
    let du = labelling.bound_from_landmark(rank, u);
    let dv = labelling.bound_from_landmark(rank, v);
    let mut aff = HashMap::new();
    let (da, b, db) = if du <= dv { (du, v, dv) } else { (dv, u, du) };
    if da == INF || da + 1 >= db {
        return aff;
    }
    let mut queue = VecDeque::new();
    aff.insert(b, da + 1);
    queue.push_back((b, da + 1));
    while let Some((x, c)) = queue.pop_front() {
        // FIFO over unit steps: the first candidate recorded for a vertex
        // is its minimum, so no entry is ever improved after insertion.
        let next = c + 1;
        for &y in new_graph.neighbors(x) {
            let cur = match aff.get(&y) {
                Some(&d) => d,
                None => labelling.bound_from_landmark(rank, y),
            };
            if next < cur {
                aff.insert(y, next);
                queue.push_back((y, next));
            }
        }
    }
    aff
}

/// Affected map for a **deletion**, for the landmark with rank `rank`:
/// exactly the vertices whose distance increased (possibly to `INF`), with
/// their new values.
///
/// Invalidate: a worklist fixpoint grows the affected set `A` from the
/// deeper endpoint — `x ∈ A` iff `x` has no *unaffected parent*, a
/// neighbour `y` in the new graph with `d_old(y) = d_old(x) − 1`. (By
/// induction on `d_old`: such a `y` keeps its distance, so `x` keeps a
/// shortest path; conversely every old shortest path into an `A` member's
/// parents is severed.) Repair: lazy-deletion Dijkstra inside `A`, seeded
/// with `min(d_old(y) + 1)` over each member's unaffected neighbours.
fn affected_delete(
    new_graph: &CsrGraph,
    labelling: &HighwayCoverLabelling,
    rank: u32,
    u: VertexId,
    v: VertexId,
) -> HashMap<VertexId, u32> {
    let du = labelling.bound_from_landmark(rank, u);
    let dv = labelling.bound_from_landmark(rank, v);
    // An edge joins levels at most one apart; it lay on a shortest path
    // from the landmark only if exactly one apart.
    if du == INF || dv == INF || du.abs_diff(dv) != 1 {
        return HashMap::new();
    }
    let seed = if du > dv { u } else { v };

    // Invalidate. `old_dist` memoises the Corollary 3.8 oracle for every
    // vertex the fixpoint inspects.
    let mut old_dist: HashMap<VertexId, u32> = HashMap::new();
    let d_old = |x: VertexId, memo: &mut HashMap<VertexId, u32>| -> u32 {
        match memo.entry(x) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(slot) => *slot.insert(labelling.bound_from_landmark(rank, x)),
        }
    };
    let mut in_a: HashMap<VertexId, bool> = HashMap::new();
    let mut worklist = VecDeque::from([seed]);
    while let Some(x) = worklist.pop_front() {
        if in_a.get(&x) == Some(&true) {
            continue;
        }
        let dx = d_old(x, &mut old_dist);
        if dx == 0 || dx == INF {
            continue; // the landmark itself, or never reachable
        }
        let has_parent = new_graph
            .neighbors(x)
            .iter()
            .any(|&y| in_a.get(&y) != Some(&true) && d_old(y, &mut old_dist) == dx - 1);
        if has_parent {
            in_a.insert(x, false);
            continue;
        }
        in_a.insert(x, true);
        for &y in new_graph.neighbors(x) {
            // Children of x (and only same-or-deeper levels can depend on
            // it) must be re-examined now that x joined A.
            if d_old(y, &mut old_dist) == dx + 1 && in_a.get(&y) != Some(&true) {
                worklist.push_back(y);
            }
        }
    }

    // Repair: Dijkstra restricted to A with boundary seeds. Distances stay
    // unit, but seeds start at different depths, hence the heap.
    let mut newd: HashMap<VertexId, u32> = HashMap::new();
    let mut heap: BinaryHeap<std::cmp::Reverse<(u32, VertexId)>> = BinaryHeap::new();
    for (&x, &is_affected) in &in_a {
        if !is_affected {
            continue;
        }
        let mut base = INF;
        for &y in new_graph.neighbors(x) {
            if in_a.get(&y) == Some(&true) {
                continue;
            }
            let dy = d_old(y, &mut old_dist);
            if dy != INF && dy + 1 < base {
                base = dy + 1;
            }
        }
        newd.insert(x, base);
        if base != INF {
            heap.push(std::cmp::Reverse((base, x)));
        }
    }
    while let Some(std::cmp::Reverse((d, x))) = heap.pop() {
        if newd.get(&x).is_none_or(|&cur| d > cur) {
            continue;
        }
        for &y in new_graph.neighbors(x) {
            if in_a.get(&y) != Some(&true) {
                continue;
            }
            let cand = d + 1;
            if newd.get(&y).is_none_or(|&cur| cand < cur) {
                newd.insert(y, cand);
                heap.push(std::cmp::Reverse((cand, y)));
            }
        }
    }
    // Every member of A strictly increased (the fixpoint is exact), so the
    // whole map is the affected map — including vertices now at INF.
    newd
}

/// Classifies cached `(s, t)` answers across one edge edit: **exactly**
/// which pairs' distances are untouched, via two BFS passes from the edit
/// endpoints.
///
/// An edit `{u, v}` changes `d(s, t)` only if some new/old shortest path
/// runs through the edge, i.e. only if the *through-distance*
/// `min(d(s,u) + 1 + d(v,t), d(s,v) + 1 + d(u,t))` competes with the
/// cached value. Comparing against distances measured on the **new** graph
/// for an insert (can the new edge beat the cache?) and the **old** graph
/// for a delete (did the removed edge carry the cache?) makes the test
/// exact for inserts and a sound over-approximation for deletes (a pair
/// with an equal-length alternative path is invalidated unnecessarily —
/// never the reverse).
///
/// Endpoint-affected-set heuristics are *not* sound here: on a star graph
/// whose hub is the only landmark, a leaf-leaf insert changes that pair's
/// distance from 2 to 1 while every landmark-affected set is empty.
#[derive(Debug)]
pub struct PairFilter {
    du: Vec<u32>,
    dv: Vec<u32>,
    add: bool,
}

impl PairFilter {
    /// Builds the filter for `edit` taking `old_graph` to `new_graph`
    /// (two `O(n + m)` BFS passes; amortised against the cache it saves).
    pub fn for_edit(old_graph: &CsrGraph, new_graph: &CsrGraph, edit: EdgeEdit) -> PairFilter {
        let (u, v) = edit.endpoints();
        let base = if edit.is_add() { new_graph } else { old_graph };
        PairFilter {
            du: traversal::bfs_distances(base, u),
            dv: traversal::bfs_distances(base, v),
            add: edit.is_add(),
        }
    }

    /// Whether the cached answer for `(s, t)` (`None` = unreachable) is
    /// still exact after the edit.
    pub fn keeps(&self, s: VertexId, t: VertexId, cached: Option<u32>) -> bool {
        let (s, t) = (s as usize, t as usize);
        let leg = |a: u32, b: u32| -> u32 {
            if a == INF || b == INF {
                INF
            } else {
                a + 1 + b
            }
        };
        let through = leg(self.du[s], self.dv[t]).min(leg(self.dv[s], self.du[t]));
        match (self.add, cached) {
            // Insert can only shorten; the cache survives unless the new
            // edge offers a strictly better (or first-ever) route.
            (true, Some(d)) => through >= d,
            (true, None) => through == INF,
            // Delete can only lengthen; a cached distance survives iff no
            // old shortest path crossed the edge.
            (false, Some(d)) => through != d,
            (false, None) => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryContext;
    use hcl_graph::generate;

    fn build_all(g: &CsrGraph, landmarks: &[VertexId]) -> (HighwayCoverLabelling, SparseView) {
        let (hcl, _) = HighwayCoverLabelling::build(g, landmarks).unwrap();
        let sparse = SparseView::build(g, hcl.highway());
        (hcl, sparse)
    }

    /// The differential oracle the whole module answers to: incremental
    /// result ≡ from-scratch rebuild, label-for-label.
    fn assert_matches_rebuild(result: &UpdateResult, landmarks: &[VertexId]) {
        let (fresh, _) = HighwayCoverLabelling::build(&result.graph, landmarks).unwrap();
        assert_eq!(
            result.labelling.highway().landmarks(),
            fresh.highway().landmarks(),
            "landmark set must be preserved"
        );
        for i in 0..fresh.num_landmarks() as u32 {
            assert_eq!(
                result.labelling.highway().row(i),
                fresh.highway().row(i),
                "highway row {i}"
            );
        }
        for x in 0..result.graph.num_vertices() as VertexId {
            assert_eq!(
                result.labelling.labels().label(x).to_vec(),
                fresh.labels().label(x).to_vec(),
                "label of vertex {x}"
            );
        }
        // And the patched sparse view answers queries exactly.
        let mut ctx = QueryContext::new(result.graph.num_vertices());
        for s in (0..result.graph.num_vertices() as VertexId).step_by(7) {
            let truth = traversal::bfs_distances(&result.graph, s);
            for t in (0..result.graph.num_vertices() as VertexId).step_by(5) {
                let expect = (truth[t as usize] != INF).then_some(truth[t as usize]);
                assert_eq!(
                    crate::storage::distance_on(
                        &result.labelling,
                        &result.sparse.rows(),
                        &mut ctx,
                        s,
                        t
                    ),
                    expect,
                    "query {s}->{t}"
                );
            }
        }
    }

    #[test]
    fn insert_matches_rebuild_on_ba_graph() {
        let g = generate::barabasi_albert(150, 3, 11);
        let landmarks = hcl_graph::order::top_degree(&g, 6);
        let (hcl, sparse) = build_all(&g, &landmarks);
        // A far pair: guaranteed absent (BA attaches by preferential ids).
        let (u, v) = (148u32, 149u32);
        let (u, v) = if g.has_edge(u, v) { (140, 149) } else { (u, v) };
        let r = apply_edit(&g, &hcl, &sparse, EdgeEdit::Add(u, v)).unwrap();
        assert!(r.graph.has_edge(u, v));
        assert_matches_rebuild(&r, &landmarks);
    }

    #[test]
    fn delete_matches_rebuild_on_ba_graph() {
        let g = generate::barabasi_albert(150, 3, 13);
        let landmarks = hcl_graph::order::top_degree(&g, 6);
        let (hcl, sparse) = build_all(&g, &landmarks);
        let (u, v) = g.edges().nth(g.num_edges() / 2).unwrap();
        let r = apply_edit(&g, &hcl, &sparse, EdgeEdit::Delete(u, v)).unwrap();
        assert!(!r.graph.has_edge(u, v));
        assert_matches_rebuild(&r, &landmarks);
    }

    #[test]
    fn landmark_incident_edits_match_rebuild() {
        let g = generate::barabasi_albert(120, 3, 5);
        let landmarks = hcl_graph::order::top_degree(&g, 5);
        let (hcl, sparse) = build_all(&g, &landmarks);
        let lm = landmarks[0];
        let other = (0..120u32).find(|&w| w != lm && !g.has_edge(lm, w)).unwrap();
        let r = apply_edit(&g, &hcl, &sparse, EdgeEdit::Add(lm, other)).unwrap();
        assert_matches_rebuild(&r, &landmarks);
        // And delete an existing landmark edge from the updated state.
        let nbr = r.graph.neighbors(lm)[0];
        let r2 = apply_edit(&r.graph, &r.labelling, &r.sparse, EdgeEdit::Delete(lm, nbr)).unwrap();
        assert_matches_rebuild(&r2, &landmarks);
    }

    #[test]
    fn disconnecting_delete_matches_rebuild() {
        // A pendant path hung off a cycle: deleting the bridge disconnects
        // the tail, driving repaired distances to INF.
        let mut edges: Vec<(u32, u32)> = (0..8).map(|i| (i, (i + 1) % 8)).collect();
        edges.extend([(0, 8), (8, 9), (9, 10)]);
        let g = CsrGraph::from_edges(11, &edges);
        let landmarks = vec![0u32, 4];
        let (hcl, sparse) = build_all(&g, &landmarks);
        let r = apply_edit(&g, &hcl, &sparse, EdgeEdit::Delete(0, 8)).unwrap();
        assert_matches_rebuild(&r, &landmarks);
        assert!(r.affected_vertices >= 3, "tail vertices 8..=10 all lose their distances");
    }

    #[test]
    fn connecting_insert_across_components_matches_rebuild() {
        let g = CsrGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]);
        let landmarks = vec![1u32, 5];
        let (hcl, sparse) = build_all(&g, &landmarks);
        assert_eq!(hcl.highway().distance(0, 1), INF);
        let r = apply_edit(&g, &hcl, &sparse, EdgeEdit::Add(3, 4)).unwrap();
        assert!(r.highway_changed, "components joined: landmark pair becomes finite");
        assert_matches_rebuild(&r, &landmarks);
    }

    #[test]
    fn highway_changing_delete_matches_rebuild() {
        // Landmarks at the ends of a path: deleting the middle edge splits
        // them, so the highway pair goes back to INF.
        let g = generate::path(7);
        let landmarks = vec![0u32, 6];
        let (hcl, sparse) = build_all(&g, &landmarks);
        let r = apply_edit(&g, &hcl, &sparse, EdgeEdit::Delete(3, 4)).unwrap();
        assert!(r.highway_changed);
        assert_eq!(r.labelling.highway().distance(0, 1), INF);
        assert_matches_rebuild(&r, &landmarks);
    }

    #[test]
    fn edit_script_stays_equivalent_across_steps() {
        // A short interleaved ADD/DEL script, incrementally chained the
        // way the server chains it — every step over the overlays of the
        // step before — beside a second copy of the index that only ever
        // sees the patches.
        let g = generate::erdos_renyi(60, 120, 17);
        let landmarks = hcl_graph::order::top_degree(&g, 5);
        let (hcl, sparse) = build_all(&g, &landmarks);
        let mut replica = (g.clone().folded(), hcl.clone(), sparse.clone());
        let (mut graph, mut hcl, mut sparse) = (g, hcl, sparse);
        for step in 0..12u32 {
            let edit = if step % 3 == 2 {
                let (u, v) = graph.edges().nth((step as usize * 7) % graph.num_edges()).unwrap();
                EdgeEdit::Delete(u, v)
            } else {
                let mut pick = None;
                'outer: for a in 0..60u32 {
                    for b in (a + 1)..60u32 {
                        let (a, b) = ((a + step * 11) % 60, (b + step * 5) % 60);
                        if a != b && !graph.has_edge(a, b) {
                            pick = Some((a, b));
                            break 'outer;
                        }
                    }
                }
                let (a, b) = pick.unwrap();
                EdgeEdit::Add(a, b)
            };
            let r = apply_edit(&graph, &hcl, &sparse, edit).unwrap();
            assert_eq!(r.patch.edit(), edit);
            assert_eq!(r.highway_changed, !r.patch.highway_cells().is_empty());
            assert_matches_rebuild(&r, &landmarks);
            replica = r.patch.apply(&replica.0, &replica.1, &replica.2).unwrap();
            assert_eq!(replica, (r.graph.clone(), r.labelling.clone(), r.sparse.clone()));
            graph = r.graph;
            hcl = r.labelling;
            sparse = r.sparse;
        }
        assert!(graph.overlay_rows() > 0, "the script ran over overlays, not folds");
    }

    #[test]
    fn validation_rejects_bad_edits() {
        let g = generate::path(5);
        let landmarks = vec![0u32];
        let (hcl, sparse) = build_all(&g, &landmarks);
        assert!(matches!(
            apply_edit(&g, &hcl, &sparse, EdgeEdit::Add(1, 1)),
            Err(UpdateError::SelfLoop(1))
        ));
        assert!(matches!(
            apply_edit(&g, &hcl, &sparse, EdgeEdit::Add(0, 9)),
            Err(UpdateError::VertexOutOfRange { vertex: 9, .. })
        ));
        assert!(matches!(
            apply_edit(&g, &hcl, &sparse, EdgeEdit::Add(0, 1)),
            Err(UpdateError::EdgeExists(0, 1))
        ));
        assert!(matches!(
            apply_edit(&g, &hcl, &sparse, EdgeEdit::Delete(0, 3)),
            Err(UpdateError::EdgeMissing(0, 3))
        ));
    }

    #[test]
    fn distance_overflow_is_a_no_op_error() {
        // cycle(300) with landmark 0 labels every vertex within 150.
        // Deleting {0, 1} would put vertex 1 at 299, past the 8-bit lane.
        let g = generate::cycle(300);
        let (hcl, sparse) = build_all(&g, &[0]);
        let before = (g.clone(), hcl.clone(), sparse.clone());
        assert_eq!(
            apply_edit(&g, &hcl, &sparse, EdgeEdit::Delete(0, 1)).err(),
            Some(UpdateError::DistanceOverflow { vertex: 1, distance: 299 })
        );
        assert_eq!((g, hcl, sparse), before, "the inputs are unchanged");
    }

    #[test]
    fn no_op_edits_report_zero_affected() {
        // A chord between two vertices already at equal depth from every
        // landmark moves nothing.
        let g = generate::cycle(8);
        let landmarks = vec![0u32];
        let (hcl, sparse) = build_all(&g, &landmarks);
        // cycle(8): vertices 3 and 5 are both at distance 3 from 0.
        let r = apply_edit(&g, &hcl, &sparse, EdgeEdit::Add(3, 5)).unwrap();
        assert_eq!(r.affected_vertices, 0);
        assert!(!r.highway_changed);
        assert_matches_rebuild(&r, &landmarks);
    }

    #[test]
    fn pair_filter_is_exact_for_inserts_and_sound_for_deletes() {
        for seed in 0..3u64 {
            let g = generate::erdos_renyi(40, 70, seed);
            let (u, v) = {
                let mut pick = (0, 1);
                'outer: for a in 0..40u32 {
                    for b in (a + 1)..40u32 {
                        if !g.has_edge(a, b) {
                            pick = (a, b);
                            break 'outer;
                        }
                    }
                }
                pick
            };
            let added = g.with_edge(u, v).unwrap();
            let filter = PairFilter::for_edit(&g, &added, EdgeEdit::Add(u, v));
            for s in 0..40u32 {
                let old_row = traversal::bfs_distances(&g, s);
                let new_row = traversal::bfs_distances(&added, s);
                for t in 0..40u32 {
                    let cached = (old_row[t as usize] != INF).then_some(old_row[t as usize]);
                    let still_exact = old_row[t as usize] == new_row[t as usize];
                    // Insert classification is exact both ways.
                    assert_eq!(filter.keeps(s, t, cached), still_exact, "ADD {s}->{t}");
                }
            }
            // Deletion: soundness (never keep a changed pair).
            let (du, dv) = g.edges().next().unwrap();
            let removed = g.without_edge(du, dv).unwrap();
            let filter = PairFilter::for_edit(&g, &removed, EdgeEdit::Delete(du, dv));
            for s in 0..40u32 {
                let old_row = traversal::bfs_distances(&g, s);
                let new_row = traversal::bfs_distances(&removed, s);
                for t in 0..40u32 {
                    let cached = (old_row[t as usize] != INF).then_some(old_row[t as usize]);
                    if filter.keeps(s, t, cached) {
                        assert_eq!(
                            old_row[t as usize], new_row[t as usize],
                            "DEL kept a changed pair {s}->{t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pair_filter_catches_the_star_counterexample() {
        // Hub 0 is the only landmark; adding leaf-leaf edge {1, 2} changes
        // d(1, 2) from 2 to 1 while every landmark-affected set is empty.
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let landmarks = vec![0u32];
        let (hcl, sparse) = build_all(&g, &landmarks);
        let r = apply_edit(&g, &hcl, &sparse, EdgeEdit::Add(1, 2)).unwrap();
        assert_eq!(r.affected_vertices, 0, "no landmark distance moves");
        let filter = PairFilter::for_edit(&g, &r.graph, EdgeEdit::Add(1, 2));
        assert!(!filter.keeps(1, 2, Some(2)), "the 2->1 pair must be invalidated");
        assert!(filter.keeps(3, 4, Some(2)), "untouched pairs survive");
        assert_matches_rebuild(&r, &landmarks);
    }
}
