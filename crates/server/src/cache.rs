//! A sharded LRU cache for answered distance queries.
//!
//! Distances are symmetric, so keys are normalised `(min(s,t), max(s,t))`
//! pairs packed into a `u64`. The key hash picks one of N mutex-striped
//! shards (N rounded up to a power of two), each an intrusive-list LRU over
//! a slab — so two queries only contend when they land on the same shard,
//! and a shard's critical section is a hash lookup plus two list splices.
//!
//! Complex-network query workloads are heavily skewed (hubs appear in a
//! large fraction of pairs), which is exactly the regime where a small LRU
//! in front of a microsecond oracle pays for itself; the `serving`
//! benchmark measures the cold/warm difference.
//!
//! # Epoch tagging
//!
//! Every entry records the index *epoch* it was computed under (see
//! `hcl_core::epoch`). A lookup passes the caller's pinned epoch and only
//! entries with the same tag hit; a mismatch is reported as a miss (and
//! counted under [`CacheStats::stale`]). Hot reload clears the cache once
//! per swap, but clearing alone cannot stop an in-flight old-epoch query
//! from re-inserting its answer *after* the clear — the tag makes that
//! harmless: the stale entry can never satisfy a new-epoch lookup.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Slot index sentinel for "no entry".
const NIL: u32 = u32::MAX;

/// Cached encoding of `Option<u32>`: `u32::MAX` stands for "unreachable"
/// (real distances never reach it — labels are 16-bit).
const UNREACHABLE: u32 = u32::MAX;

/// Configuration for a [`ShardedCache`].
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in entries, split across shards. `0` disables
    /// construction ([`ShardedCache::new`] panics; callers gate on it).
    pub capacity: usize,
    /// Requested shard count; rounded up to a power of two and capped so
    /// every shard holds at least one entry.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity: 1 << 16, shards: 16 }
    }
}

/// Point-in-time cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Misses caused by an entry tagged with a different epoch (a reload
    /// happened between the entry's computation and this lookup). A subset
    /// of `misses`.
    pub stale: u64,
    /// Entries displaced to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Total capacity in entries.
    pub capacity: usize,
    /// Number of shards.
    pub shards: usize,
}

/// One LRU shard: hash index into an intrusive doubly-linked list kept in a
/// slab, most-recent at `head`.
#[derive(Debug)]
struct Shard {
    map: HashMap<u64, u32>,
    slab: Vec<Entry>,
    head: u32,
    tail: u32,
    capacity: usize,
}

#[derive(Debug)]
struct Entry {
    key: u64,
    value: u32,
    /// Index epoch the value was computed under.
    epoch: u64,
    prev: u32,
    next: u32,
}

/// Outcome of a shard lookup under a specific epoch.
enum Found {
    /// Resident with a matching epoch tag.
    Hit(u32),
    /// Resident, but computed under a different epoch.
    Stale,
    /// Not resident.
    Miss,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let e = &self.slab[slot as usize];
            (e.prev, e.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    fn link_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let e = &mut self.slab[slot as usize];
            e.prev = NIL;
            e.next = old_head;
        }
        if old_head != NIL {
            self.slab[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn get(&mut self, key: u64, epoch: u64) -> Found {
        let Some(&slot) = self.map.get(&key) else { return Found::Miss };
        if self.slab[slot as usize].epoch != epoch {
            // A dead entry from another generation must not be promoted to
            // MRU — left in place, it ages out like any other cold entry
            // (or is overwritten when this key is re-inserted).
            return Found::Stale;
        }
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
        Found::Hit(self.slab[slot as usize].value)
    }

    /// Inserts or refreshes `key`; returns `true` when an older entry was
    /// evicted to make room.
    fn insert(&mut self, key: u64, value: u32, epoch: u64) -> bool {
        if let Some(&slot) = self.map.get(&key) {
            let e = &mut self.slab[slot as usize];
            e.value = value;
            e.epoch = epoch;
            if self.head != slot {
                self.unlink(slot);
                self.link_front(slot);
            }
            return false;
        }
        if self.map.len() < self.capacity {
            let slot = self.slab.len() as u32;
            self.slab.push(Entry { key, value, epoch, prev: NIL, next: NIL });
            self.map.insert(key, slot);
            self.link_front(slot);
            return false;
        }
        // Full: repurpose the least-recently-used slot.
        let slot = self.tail;
        debug_assert_ne!(slot, NIL, "capacity >= 1 guarantees a tail when full");
        self.unlink(slot);
        let old_key = self.slab[slot as usize].key;
        self.map.remove(&old_key);
        {
            let e = &mut self.slab[slot as usize];
            e.key = key;
            e.value = value;
            e.epoch = epoch;
        }
        self.map.insert(key, slot);
        self.link_front(slot);
        true
    }
}

/// The sharded LRU distance cache.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    shard_mask: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    evictions: AtomicU64,
    capacity: usize,
}

impl ShardedCache {
    /// Builds a cache from `config`. Panics when `config.capacity == 0`
    /// (callers express "no cache" by not constructing one).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.capacity > 0, "cache capacity must be positive");
        let shards = config.shards.clamp(1, config.capacity).next_power_of_two();
        let per_shard = config.capacity.div_ceil(shards);
        ShardedCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new(per_shard))).collect(),
            shard_mask: shards as u64 - 1,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            capacity: per_shard * shards,
        }
    }

    /// The normalised key for an unordered pair.
    fn key(s: u32, t: u32) -> u64 {
        let (a, b) = if s <= t { (s, t) } else { (t, s) };
        (a as u64) << 32 | b as u64
    }

    /// Mixes a key into a shard index (splitmix64 finaliser, so adjacent
    /// vertex ids spread across shards).
    fn shard_of(&self, key: u64) -> usize {
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) & self.shard_mask) as usize
    }

    /// Looks up the distance for `(s, t)` as computed under index `epoch`.
    /// `None` = not cached (or cached under a different epoch);
    /// `Some(None)` = cached as unreachable; `Some(Some(d))` = cached
    /// distance.
    pub fn get(&self, s: u32, t: u32, epoch: u64) -> Option<Option<u32>> {
        let key = Self::key(s, t);
        let found =
            self.shards[self.shard_of(key)].lock().expect("cache shard poisoned").get(key, epoch);
        match found {
            Found::Stale => {
                // An answer from another index generation must never be
                // served — report a (stale) miss; the caller recomputes and
                // re-inserts under its own epoch.
                self.stale.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Found::Hit(UNREACHABLE) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(None)
            }
            Found::Hit(d) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Some(d))
            }
            Found::Miss => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records the answer for `(s, t)` as computed under index `epoch`.
    pub fn insert(&self, s: u32, t: u32, epoch: u64, distance: Option<u32>) {
        let key = Self::key(s, t);
        let value = distance.unwrap_or(UNREACHABLE);
        let evicted = self.shards[self.shard_of(key)]
            .lock()
            .expect("cache shard poisoned")
            .insert(key, value, epoch);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").map.len()).sum()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity in entries (rounded up to fill every shard).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Empties every shard (counters are preserved). Called exactly once
    /// per index swap by `QueryService::reload` (epoch tags keep racing
    /// old-epoch re-inserts harmless), and by the benchmarks to measure
    /// cold-cache behaviour.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            shard.map.clear();
            shard.slab.clear();
            shard.head = NIL;
            shard.tail = NIL;
        }
    }

    /// The largest finite distance among resident entries tagged `epoch`
    /// (0 when every such entry is cached as unreachable), or `None` when
    /// no entry carries that tag — what a [`retag`](Self::retag) from that
    /// epoch has to certify, in one scan.
    pub fn max_distance(&self, epoch: u64) -> Option<u32> {
        self.shards
            .iter()
            .filter_map(|shard| {
                let shard = shard.lock().expect("cache shard poisoned");
                let tagged = shard.slab.iter().filter(|e| e.epoch == epoch);
                tagged.map(|e| if e.value == UNREACHABLE { 0 } else { e.value }).max()
            })
            .max()
    }

    /// Precise invalidation for an incremental update: every resident entry
    /// tagged `old_epoch` whose pair `keep(s, t, value)` certifies as
    /// unchanged is re-tagged to `new_epoch` (surviving the generation swap
    /// with its LRU position intact); entries the predicate rejects keep
    /// their old tag and age out as stale misses — no slab compaction, no
    /// lock held across shards. Returns how many entries were carried over.
    ///
    /// The predicate receives the normalised pair (`s <= t`) and the cached
    /// answer (`None` = cached as unreachable). It must only certify pairs
    /// whose distance is provably identical under both generations —
    /// soundness lives with the caller (see `hcl_core::update::PairFilter`).
    pub fn retag(
        &self,
        old_epoch: u64,
        new_epoch: u64,
        keep: impl Fn(u32, u32, Option<u32>) -> bool,
    ) -> usize {
        let mut kept = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            for entry in &mut shard.slab {
                if entry.epoch != old_epoch {
                    continue;
                }
                let (s, t) = ((entry.key >> 32) as u32, entry.key as u32);
                let value = (entry.value != UNREACHABLE).then_some(entry.value);
                if keep(s, t, value) {
                    entry.epoch = new_epoch;
                    kept += 1;
                }
            }
        }
        kept
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity,
            shards: self.shards.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(capacity: usize, shards: usize) -> ShardedCache {
        ShardedCache::new(CacheConfig { capacity, shards })
    }

    #[test]
    fn hit_after_insert_both_orders() {
        let cache = small(64, 4);
        assert_eq!(cache.get(3, 9, 0), None);
        cache.insert(3, 9, 0, Some(5));
        assert_eq!(cache.get(3, 9, 0), Some(Some(5)));
        assert_eq!(cache.get(9, 3, 0), Some(Some(5)), "keys are direction-normalised");
        cache.insert(7, 2, 0, None);
        assert_eq!(cache.get(2, 7, 0), Some(None), "unreachable is cached too");
        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Single shard of capacity 2 so the eviction order is observable.
        let cache = small(2, 1);
        cache.insert(0, 1, 0, Some(1));
        cache.insert(0, 2, 0, Some(2));
        assert_eq!(cache.get(0, 1, 0), Some(Some(1))); // refresh (0,1)
        cache.insert(0, 3, 0, Some(3)); // evicts (0,2)
        assert_eq!(cache.get(0, 2, 0), None, "LRU entry evicted");
        assert_eq!(cache.get(0, 1, 0), Some(Some(1)), "refreshed entry kept");
        assert_eq!(cache.get(0, 3, 0), Some(Some(3)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn update_refreshes_without_eviction() {
        let cache = small(2, 1);
        cache.insert(0, 1, 0, Some(1));
        cache.insert(0, 2, 0, Some(2));
        cache.insert(0, 1, 0, Some(10)); // update, not insert
        assert_eq!(cache.stats().evictions, 0);
        cache.insert(0, 3, 0, Some(3)); // now (0,2) is LRU
        assert_eq!(cache.get(0, 2, 0), None);
        assert_eq!(cache.get(0, 1, 0), Some(Some(10)));
    }

    #[test]
    fn capacity_is_respected_under_churn() {
        let cache = small(100, 8);
        for i in 0..10_000u32 {
            cache.insert(i, i + 1, 0, Some(i % 7));
        }
        assert!(cache.len() <= cache.capacity());
        let stats = cache.stats();
        assert!(stats.evictions > 0);
        assert_eq!(stats.entries, cache.len());
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = small(16, 2);
        cache.insert(1, 2, 0, Some(3));
        assert_eq!(cache.get(1, 2, 0), Some(Some(3)));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.get(1, 2, 0), None);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        // Usable after clear.
        cache.insert(1, 2, 0, Some(4));
        assert_eq!(cache.get(1, 2, 0), Some(Some(4)));
    }

    #[test]
    fn epoch_mismatch_is_a_stale_miss_in_both_directions() {
        let cache = small(16, 2);
        cache.insert(1, 2, 0, Some(3));
        // A new-epoch reader must not see the old answer…
        assert_eq!(cache.get(1, 2, 1), None);
        // …and an old-epoch reader must not see a newer one.
        cache.insert(1, 2, 1, Some(9));
        assert_eq!(cache.get(1, 2, 0), None);
        assert_eq!(cache.get(1, 2, 1), Some(Some(9)));
        let stats = cache.stats();
        assert_eq!(stats.stale, 2);
        assert_eq!(stats.misses, 2, "stale lookups count as misses");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn stale_probe_does_not_promote_the_dead_entry() {
        // Single shard, capacity 2, observable eviction order.
        let cache = small(2, 1);
        cache.insert(0, 1, 0, Some(1)); // LRU after the next insert
        cache.insert(0, 2, 0, Some(2));
        // A new-epoch probe of the dead (0,1) must not refresh it…
        assert_eq!(cache.get(0, 1, 1), None);
        // …so the next insert still evicts (0,1), not (0,2).
        cache.insert(0, 3, 0, Some(3));
        assert_eq!(cache.get(0, 2, 0), Some(Some(2)), "live entry survived");
        assert_eq!(cache.get(0, 1, 0), None, "dead entry was the one evicted");
    }

    #[test]
    fn reinsert_after_clear_under_old_epoch_stays_invisible() {
        // The mid-swap race: an in-flight old-epoch query re-inserts its
        // answer after the reload already cleared the cache.
        let cache = small(16, 2);
        cache.insert(4, 5, 0, Some(7));
        cache.clear(); // the swap's one clear
        cache.insert(4, 5, 0, Some(7)); // straggling old-epoch writer
        assert_eq!(cache.get(4, 5, 1), None, "stale re-insert must never hit epoch 1");
        cache.insert(4, 5, 1, Some(2));
        assert_eq!(cache.get(4, 5, 1), Some(Some(2)));
    }

    #[test]
    fn retag_carries_certified_pairs_and_strands_the_rest() {
        let cache = small(16, 2);
        cache.insert(1, 2, 3, Some(4));
        cache.insert(5, 6, 3, None); // unreachable, certified below
        cache.insert(7, 8, 3, Some(9)); // rejected by the predicate
        cache.insert(1, 9, 2, Some(1)); // older generation: untouched
        assert_eq!([2, 3, 4].map(|epoch| cache.max_distance(epoch)), [Some(1), Some(9), None]);
        let kept = cache.retag(3, 4, |s, t, value| {
            assert!(s <= t, "keys are normalised");
            !(s == 7 && t == 8) && (value != Some(9))
        });
        assert_eq!(kept, 2);
        assert_eq!(cache.max_distance(4), Some(4));
        assert_eq!(cache.max_distance(3), Some(9), "the rejected pair keeps its tag");
        // Certified pairs hit under the new epoch with their old answers.
        assert_eq!(cache.get(1, 2, 4), Some(Some(4)));
        assert_eq!(cache.get(6, 5, 4), Some(None), "unreachable carries over");
        // The rejected pair is a stale miss under the new epoch…
        assert_eq!(cache.get(7, 8, 4), None);
        // …and the certified ones no longer answer the old epoch.
        assert_eq!(cache.get(1, 2, 3), None);
        // The unrelated generation was never considered.
        assert_eq!(cache.get(1, 9, 2), Some(Some(1)));
        assert_eq!(cache.get(1, 9, 4), None);
    }

    #[test]
    fn max_distance_of_only_unreachable_entries_is_zero() {
        let cache = small(16, 2);
        cache.insert(1, 2, 0, None);
        assert_eq!(cache.max_distance(0), Some(0));
        cache.clear();
        assert_eq!(cache.max_distance(0), None);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let cache = small(100, 7);
        assert_eq!(cache.stats().shards, 8);
        let tiny = small(2, 64);
        assert!(tiny.stats().shards <= 2, "shards never exceed capacity");
    }

    #[test]
    fn concurrent_use_is_consistent() {
        let cache = std::sync::Arc::new(small(1 << 12, 16));
        std::thread::scope(|scope| {
            for thread in 0..8u32 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..5_000u32 {
                        let s = (i * 7 + thread) % 500;
                        let t = (i * 13 + 1) % 500;
                        if let Some(hit) = cache.get(s, t, 0) {
                            // Any hit must carry the value every writer
                            // stores for this pair.
                            assert_eq!(hit, Some(s.min(t) % 11));
                        }
                        cache.insert(s, t, 0, Some(s.min(t) % 11));
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8 * 5_000);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = small(0, 4);
    }
}
