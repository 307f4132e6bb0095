//! Epoch-tagged hot swapping of a [`SharedOracle`].
//!
//! A serving process wants to replace its index (new graph snapshot,
//! recomputed labelling) without dropping connections. The ingredients:
//!
//! * [`OracleEpoch`] — one immutable *generation* of the index: a
//!   [`SharedOracle`] tagged with a monotonically increasing epoch number.
//! * [`EpochCell`] — the swap point: an `RwLock<Arc<OracleEpoch>>` (std-only
//!   stand-in for `ArcSwap`). Readers clone the `Arc` out under a read lock
//!   held for two pointer ops; a swap takes the write lock just long enough
//!   to publish the next generation.
//!
//! Queries pin a generation by cloning the `Arc` once up front and using it
//! for *everything* — range validation, the graph, the labelling, the
//! precomputed sparsified view the searches traverse, and the context pool.
//! The [`SparseView`](crate::SparseView) is owned by the generation's
//! [`SharedOracle`] (built in its constructor), so a swap replaces view and
//! labelling in the same pointer store — a query can never observe a new
//! labelling with an old view or vice versa. In-flight queries therefore
//! finish on the epoch they started on, while new queries observe the new
//! one; the old generation is freed when its last in-flight query drops its
//! `Arc`. Consumers that cache answers must tag them with
//! [`OracleEpoch::epoch`] so answers computed against one generation can
//! never be served under another (`hcl-server`'s sharded cache does exactly
//! that).

use crate::shared::SharedOracle;
use std::sync::{Arc, RwLock};

/// One immutable generation of the serving index.
///
/// Generic over the index type so serving stacks can swap more than the
/// default in-memory [`SharedOracle`] — `hcl-server` instantiates it with
/// an enum covering both the in-memory oracle and `hcl-store`'s
/// memory-mapped packed index, making a reload a *remap* (publish a new
/// mapping) rather than a rebuild.
#[derive(Debug)]
pub struct OracleEpoch<T = SharedOracle> {
    epoch: u64,
    index: T,
}

impl<T> OracleEpoch<T> {
    /// Tags `index` as generation `epoch`.
    pub fn new(epoch: u64, index: T) -> Self {
        OracleEpoch { epoch, index }
    }

    /// The generation number (0 for the index the process started with).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The serving index of this generation.
    pub fn index(&self) -> &T {
        &self.index
    }
}

impl OracleEpoch<SharedOracle> {
    /// The oracle of this generation.
    pub fn oracle(&self) -> &SharedOracle {
        &self.index
    }

    /// Number of vertices queries against this generation may address.
    pub fn num_vertices(&self) -> usize {
        self.index.num_vertices()
    }
}

/// The swap point for hot index reload; see the module docs.
#[derive(Debug)]
pub struct EpochCell<T = SharedOracle> {
    current: RwLock<Arc<OracleEpoch<T>>>,
}

impl<T> EpochCell<T> {
    /// A cell holding `index` as generation 0.
    pub fn new(index: T) -> Self {
        EpochCell { current: RwLock::new(Arc::new(OracleEpoch::new(0, index))) }
    }

    /// Pins the current generation. The returned `Arc` keeps that
    /// generation alive (graph, labelling, context pool — or file mapping)
    /// even across a concurrent [`swap`](Self::swap).
    pub fn load(&self) -> Arc<OracleEpoch<T>> {
        Arc::clone(&self.current.read().expect("epoch cell poisoned"))
    }

    /// The current generation number.
    pub fn epoch(&self) -> u64 {
        self.current.read().expect("epoch cell poisoned").epoch
    }

    /// Publishes `index` as the next generation and returns it. Queries
    /// that already pinned the previous generation finish on it; every
    /// subsequent [`load`](Self::load) observes the new one.
    pub fn swap(&self, index: T) -> Arc<OracleEpoch<T>> {
        let mut current = self.current.write().expect("epoch cell poisoned");
        let next = Arc::new(OracleEpoch::new(current.epoch + 1, index));
        *current = Arc::clone(&next);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::HighwayCoverLabelling;
    use hcl_graph::generate;

    fn oracle(n: usize, seed: u64) -> SharedOracle {
        let g = Arc::new(generate::barabasi_albert(n, 3, seed));
        let landmarks = hcl_graph::order::top_degree(&g, 4);
        let (labelling, _) = HighwayCoverLabelling::build(&g, &landmarks).unwrap();
        SharedOracle::new(g, Arc::new(labelling))
    }

    #[test]
    fn swap_bumps_epoch_and_pins_old_generations() {
        let cell = EpochCell::new(oracle(60, 1));
        assert_eq!(cell.epoch(), 0);
        let pinned = cell.load();
        assert_eq!(pinned.epoch(), 0);
        let d_old = pinned.oracle().distance(0, 59);

        let swapped = cell.swap(oracle(80, 2));
        assert_eq!(swapped.epoch(), 1);
        assert_eq!(cell.epoch(), 1);
        assert_eq!(cell.load().num_vertices(), 80);

        // The pinned generation still answers exactly as before the swap.
        assert_eq!(pinned.num_vertices(), 60);
        assert_eq!(pinned.oracle().distance(0, 59), d_old);
    }

    #[test]
    fn concurrent_readers_always_see_a_consistent_generation() {
        let cell = Arc::new(EpochCell::new(oracle(50, 3)));
        let sizes = [50usize, 70, 90];
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                scope.spawn(move || {
                    for _ in 0..300 {
                        let snap = cell.load();
                        // Epoch, oracle, and sparse view travel together:
                        // the sizes always match the generation's tag.
                        assert_eq!(snap.num_vertices(), sizes[snap.epoch() as usize]);
                        assert_eq!(
                            snap.oracle().sparse_view().num_vertices(),
                            snap.num_vertices(),
                            "view must belong to the pinned generation"
                        );
                        assert!(snap.oracle().distance(0, 1).is_some());
                    }
                });
            }
            scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                cell.swap(oracle(70, 4));
                std::thread::sleep(std::time::Duration::from_millis(2));
                cell.swap(oracle(90, 5));
            });
        });
        assert_eq!(cell.epoch(), 2);
    }
}
