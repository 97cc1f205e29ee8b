//! Ordered key→value map over the pragmatic list — the API downstream
//! users actually want from an ordered concurrent structure.
//!
//! [`ListMap`] *is* the paper's singly-cursor variant d) (mild
//! improvements + per-thread cursor — the paper's recommended
//! "unintrusive" configuration): a [`SinglyCursorList`] whose keys are
//! `MapEntry { key, value }` pairs ordered and compared by `key` alone,
//! so the value rides in the key's node (as in Michael's list-based sets
//! and hash tables). Every search, insert, delete and scan is the set's
//! own code; this module only wraps keys into entries and unwraps the
//! stored entry that the list hands back.
//!
//! ## Value semantics
//!
//! `V: Copy`. A node's value is written once, before the node is
//! published by the releasing insert CAS, and never mutated — so `get`
//! may read it without synchronisation beyond the acquire traversal.
//! There is deliberately no in-place `update`: mutating a published
//! value would race wait-free readers (the paper's structure has no
//! per-node lock or version to make that safe). The supported update
//! idiom is `remove` + `insert`, which is linearizable per key.
//!
//! Reclamation is the list's: the paper's arena scheme
//! ([`ArenaReclaim`](crate::reclaim::ArenaReclaim)), so values, like
//! nodes, are dropped when the map is dropped.

use std::cmp::Ordering;
use std::ops::{Bound, RangeBounds};

use crate::ordered::{OrderedHandle, Snapshot};
use crate::set::{ConcurrentOrderedSet, SetHandle};
use crate::sharded::ShardKey;
use crate::singly::SinglyHandle;
use crate::stats::OpStats;
use crate::variants::SinglyCursorList;
use crate::Key;

/// A map entry as the list stores it: ordered, compared and routed by
/// `key` alone. Stored entries carry `Some(value)`; the sentinels and
/// lookup probes carry `None`.
#[derive(Clone, Copy)]
pub(crate) struct MapEntry<K, V> {
    pub(crate) key: K,
    pub(crate) value: Option<V>,
}

impl<K: Key, V> MapEntry<K, V> {
    /// The entry stored for `key → value`.
    pub(crate) fn new(key: K, value: V) -> Self {
        MapEntry {
            key,
            value: Some(value),
        }
    }

    /// The value-less entry a lookup searches for.
    pub(crate) const fn probe(key: K) -> Self {
        MapEntry { key, value: None }
    }

    /// The entry-typed scan window over the keys inside `range`.
    pub(crate) fn probe_range(range: &impl RangeBounds<K>) -> (Bound<Self>, Bound<Self>) {
        (
            range.start_bound().map(|&k| Self::probe(k)),
            range.end_bound().map(|&k| Self::probe(k)),
        )
    }

    /// A stored entry as the `(key, value)` pair the map API returns.
    pub(crate) fn pair(self) -> (K, V) {
        let value = self.value.expect("stored map entries carry a value");
        (self.key, value)
    }
}

impl<K: Key, V> PartialEq for MapEntry<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<K: Key, V> Eq for MapEntry<K, V> {}

impl<K: Key, V> PartialOrd for MapEntry<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Key, V> Ord for MapEntry<K, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

impl<K: Key, V> std::fmt::Debug for MapEntry<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("MapEntry").field(&self.key).finish()
    }
}

impl<K: Key, V: Copy + Send + Sync + 'static> Key for MapEntry<K, V> {
    const NEG_INF: Self = Self::probe(K::NEG_INF);
    const POS_INF: Self = Self::probe(K::POS_INF);
}

impl<K: ShardKey, V: Copy + Send + Sync + 'static> ShardKey for MapEntry<K, V> {
    const RANK_INJECTIVE: bool = K::RANK_INJECTIVE;

    #[inline]
    fn rank64(self) -> u64 {
        self.key.rank64()
    }
}

/// The scan results of an entry list as `(key, value)` pairs.
pub(crate) fn pairs<K: Key, V>(entries: Snapshot<MapEntry<K, V>>) -> Snapshot<(K, V)> {
    Snapshot::from_vec(entries.into_iter().map(MapEntry::pair).collect())
}

/// Lock-free ordered map (paper variant d) semantics with a value
/// payload).
///
/// # Examples
///
/// ```
/// use pragmatic_list::map::ListMap;
///
/// let map = ListMap::<u64, u64>::new();
/// std::thread::scope(|s| {
///     for t in 1..=4u64 {
///         let map = &map;
///         s.spawn(move || {
///             let mut h = map.handle();
///             h.insert(t, t * 100);
///             assert_eq!(h.get(t), Some(t * 100));
///         });
///     }
/// });
/// let mut map = map;
/// assert_eq!(map.collect(), vec![(1, 100), (2, 200), (3, 300), (4, 400)]);
/// ```
pub struct ListMap<K: Key, V: Copy + Send + Sync + 'static> {
    pub(crate) list: SinglyCursorList<MapEntry<K, V>>,
}

impl<K: Key, V: Copy + Send + Sync + 'static> Default for ListMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Copy + Send + Sync + 'static> ListMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        ListMap {
            list: SinglyCursorList::new(),
        }
    }

    /// Per-thread handle.
    pub fn handle(&self) -> MapHandle<'_, K, V> {
        MapHandle {
            entries: self.list.handle(),
        }
    }

    /// Quiescent snapshot of `(key, value)` pairs in key order.
    pub fn collect(&mut self) -> Vec<(K, V)> {
        self.list.to_vec().into_iter().map(MapEntry::pair).collect()
    }

    /// Number of live entries (racy; exact when quiescent).
    pub fn len_approx(&self) -> usize {
        self.list.len_approx()
    }
}

/// Per-thread handle over a [`ListMap`]: the list's handle (cursor,
/// counters, allocation log).
pub struct MapHandle<'m, K: Key, V: Copy + Send + Sync + 'static> {
    pub(crate) entries: SinglyHandle<'m, MapEntry<K, V>, true, true, false>,
}

impl<'m, K: Key, V: Copy + Send + Sync + 'static> MapHandle<'m, K, V> {
    /// Inserts `key → value`; `true` iff the key was absent. Existing
    /// entries are *not* overwritten (use `remove` + `insert`).
    pub fn insert(&mut self, key: K, value: V) -> bool {
        self.entries.add(MapEntry::new(key, value))
    }

    /// Removes `key`; returns its value iff this thread won the delete.
    pub fn remove(&mut self, key: K) -> Option<V> {
        self.entries.remove_impl(MapEntry::probe(key))?.value
    }

    /// Wait-free lookup with the cursor fast path.
    pub fn get(&mut self, key: K) -> Option<V> {
        self.entries.find_impl(MapEntry::probe(key))?.value
    }

    /// `true` iff `key` is present.
    pub fn contains_key(&mut self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Scans the live `(key, value)` pairs with keys inside `range`, in
    /// ascending key order — the map counterpart of
    /// [`OrderedHandle::range`].
    ///
    /// Weakly consistent under concurrency, exactly like the set scans
    /// (see [`crate::ordered`]); exact when no writer runs during the
    /// scan.
    pub fn range<R: RangeBounds<K>>(&mut self, range: R) -> Snapshot<(K, V)> {
        pairs(self.entries.range(MapEntry::probe_range(&range)))
    }

    /// Scans all live `(key, value)` pairs in ascending key order
    /// (weakly consistent; the live-handle counterpart of
    /// [`ListMap::collect`]).
    pub fn iter(&mut self) -> Snapshot<(K, V)> {
        self.range(..)
    }

    /// Estimated number of live entries (racy; exact when quiescent).
    pub fn len_estimate(&self) -> usize {
        self.entries.list.len_approx()
    }

    /// Accumulated counters.
    pub fn stats(&self) -> OpStats {
        self.entries.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_map_semantics() {
        let map = ListMap::<i64, &'static str>::new();
        let mut h = map.handle();
        assert!(h.insert(2, "two"));
        assert!(h.insert(1, "one"));
        assert!(!h.insert(2, "TWO"), "no overwrite");
        assert_eq!(h.get(2), Some("two"), "original value preserved");
        assert_eq!(h.get(3), None);
        assert_eq!(h.remove(2), Some("two"));
        assert_eq!(h.remove(2), None);
        assert!(h.insert(2, "TWO"));
        assert_eq!(h.get(2), Some("TWO"));
    }

    #[test]
    fn collect_in_key_order() {
        let mut map = ListMap::<u32, u32>::new();
        {
            let mut h = map.handle();
            for k in [5u32, 2, 9, 1, 7] {
                h.insert(k, k * 10);
            }
            h.remove(9);
        }
        assert_eq!(map.collect(), vec![(1, 10), (2, 20), (5, 50), (7, 70)]);
        assert_eq!(map.len_approx(), 4);
    }

    #[test]
    fn update_idiom_remove_insert() {
        let map = ListMap::<i64, i64>::new();
        let mut h = map.handle();
        h.insert(7, 1);
        for v in 2..=10 {
            assert_eq!(h.remove(7), Some(v - 1));
            assert!(h.insert(7, v));
        }
        assert_eq!(h.get(7), Some(10));
    }

    #[test]
    fn concurrent_disjoint_writers_shared_readers() {
        let map = ListMap::<u64, u64>::new();
        std::thread::scope(|s| {
            for t in 1..=4u64 {
                let map = &map;
                s.spawn(move || {
                    let mut h = map.handle();
                    for i in 0..500u64 {
                        let k = t + i * 4;
                        assert!(h.insert(k, k * 2));
                    }
                    for i in 0..500u64 {
                        let k = t + i * 4;
                        assert_eq!(h.get(k), Some(k * 2), "own writes visible");
                    }
                });
            }
        });
        let mut map = map;
        let all = map.collect();
        assert_eq!(all.len(), 2000);
        assert!(all.iter().all(|&(k, v)| v == k * 2));
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn concurrent_same_key_single_winner_gets_value_back() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let map = ListMap::<i64, u32>::new();
        {
            let mut h = map.handle();
            h.insert(5, 999);
        }
        let wins = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let map = &map;
                let wins = &wins;
                s.spawn(move || {
                    let mut h = map.handle();
                    if let Some(v) = h.remove(5) {
                        assert_eq!(v, 999);
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 1, "value handed out once");
    }

    #[test]
    fn drop_with_live_and_removed_entries_is_clean() {
        let map = ListMap::<i64, [u64; 4]>::new();
        {
            let mut h = map.handle();
            for k in 1..=1000 {
                h.insert(k, [k as u64; 4]);
            }
            for k in (1..=1000).step_by(2) {
                h.remove(k);
            }
        }
        drop(map); // arena frees everything exactly once
    }

    #[test]
    fn matches_btreemap_on_random_tape() {
        use std::collections::BTreeMap;
        let map = ListMap::<i64, i64>::new();
        let mut h = map.handle();
        let mut oracle = BTreeMap::new();
        let mut x = 24680u64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = ((x >> 33) % 64) as i64 + 1;
            let v = (x % 1000) as i64;
            match (x >> 11) % 3 {
                0 => {
                    let want = !oracle.contains_key(&k);
                    assert_eq!(h.insert(k, v), want);
                    if want {
                        oracle.insert(k, v);
                    }
                }
                1 => assert_eq!(h.remove(k), oracle.remove(&k)),
                _ => assert_eq!(h.get(k), oracle.get(&k).copied()),
            }
        }
        drop(h);
        let mut map = map;
        assert_eq!(map.collect(), oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn map_entries_compare_by_key_alone() {
        let a = MapEntry::new(3i64, 1u8);
        let b = MapEntry::new(3i64, 2u8);
        assert_eq!(a, b, "values are ignored by Eq");
        assert_eq!(a, MapEntry::probe(3), "a probe finds the stored entry");
        assert_eq!(a.cmp(&b), Ordering::Equal, "values are ignored by Ord");
        assert!(MapEntry::<i64, u8>::probe(2) < a && a < MapEntry::probe(4));
        for key in [i64::MIN + 1, -1, 0, 1, i64::MAX - 1] {
            let e = MapEntry::new(key, 0u8);
            assert!(MapEntry::NEG_INF < e && e < MapEntry::POS_INF);
            assert!(e.is_valid_key());
        }
        assert!(!MapEntry::<i64, u8>::NEG_INF.is_valid_key());
        assert!(!MapEntry::<i64, u8>::POS_INF.is_valid_key());
    }

    #[test]
    fn map_ops_run_the_set_code() {
        // One seeded tape, applied to a map and to the variant-d set it
        // wraps: every result and every counter must agree, because the
        // map runs the set's search, insert and delete paths unchanged.
        let map = ListMap::<i64, i64>::new();
        let set = SinglyCursorList::<i64>::new();
        let mut hm = map.handle();
        let mut hs = set.handle();
        let mut x = 97531u64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = ((x >> 33) % 256) as i64 + 1;
            match (x >> 11) % 3 {
                0 => assert_eq!(hm.insert(k, -k), hs.add(k), "insert {k}"),
                1 => assert_eq!(hm.remove(k).is_some(), hs.remove(k), "remove {k}"),
                _ => assert_eq!(hm.get(k).is_some(), hs.contains(k), "get {k}"),
            }
        }
        assert_eq!(hm.stats(), hs.stats());
        assert!(hm.iter().iter().all(|&(k, v)| v == -k));
    }
}
