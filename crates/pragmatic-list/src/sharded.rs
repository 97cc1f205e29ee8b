//! Keyspace-partitioned ordered maps: [`ShardedSet`] and [`ShardedMap`].
//!
//! The paper's pragmatic lists deliberately trade asymptotics for low
//! constant factors — a single list is linear-time and caps out well
//! below server-scale element counts. Range-partitioning the keyspace
//! across `N` independent shards is the classic route back to
//! scalability: every shard stays in the paper's short-list sweet spot,
//! disjoint-key operations never contend, and the ordered API survives
//! because the partition is *monotone* — all keys of shard `i` are
//! strictly below all keys of shard `i+1`, so a cross-shard scan is a
//! plain concatenation of per-shard scans.
//!
//! # Routing
//!
//! [`ShardKey::rank64`] maps a key monotonically onto the full `u64`
//! space; [`shard_of`] then takes the top bits via a multiply-shift, so
//! shard boundaries split the *key space* evenly (not the live keys —
//! skewed workloads concentrate on few shards by design, which is
//! exactly the regime the `ZipfianMix` harness workload measures).
//!
//! # Generic over the backend
//!
//! [`ShardedSet<K, B, N>`] shards any [`ConcurrentOrderedSet`] backend —
//! every list variant of this crate, the skiplist, anything downstream —
//! and is itself a `ConcurrentOrderedSet`, so the whole benchmark
//! harness runs on it unchanged. Because the backends are generic over a
//! [`Reclaimer`](crate::reclaim::Reclaimer), the reclamation scheme
//! threads straight through: `ShardedSet<i64, SinglyCursorEpochList<i64>, 8>`
//! is eight epoch-reclaimed lists.
//!
//! The per-thread handle keeps a lazily-filled cache of backend handles,
//! one per shard: a thread that only ever touches a few shards (the hot
//! shards of a skewed workload) never pays handle registration — or, for
//! the reclaimers, thread registration — on the cold ones.
//!
//! # Consistency
//!
//! Point operations (`add`/`remove`/`contains`) touch exactly one shard
//! and inherit the backend's linearizability unchanged. Scans
//! concatenate per-shard snapshots in shard order and are *weakly
//! consistent* with the same contract as a single backend's scan (see
//! [`crate::ordered`]): strictly sorted, every untouched live key
//! reported, no never-inserted key ever reported. The only widening is
//! that the "no instant" caveat now also spans shards — two shards are
//! scanned at different times.
//!
//! # Examples
//!
//! ```
//! use pragmatic_list::sharded::ShardedSet;
//! use pragmatic_list::variants::SinglyCursorList;
//! use pragmatic_list::{ConcurrentOrderedSet, OrderedHandle, SetHandle};
//!
//! // Eight singly-cursor lists behind one ordered-set facade.
//! let set = ShardedSet::<i64, SinglyCursorList<i64>, 8>::new();
//! std::thread::scope(|s| {
//!     for t in 0..4i64 {
//!         let set = &set;
//!         s.spawn(move || {
//!             let mut h = set.handle();
//!             for i in 0..256 {
//!                 h.add(t + i * 4);
//!             }
//!         });
//!     }
//! });
//! let mut h = set.handle();
//! assert_eq!(h.len_estimate(), 1024);
//! assert_eq!(h.range(10..15).into_vec(), vec![10, 11, 12, 13, 14]);
//! ```

use std::marker::PhantomData;
use std::ops::RangeBounds;

use crate::map::{pairs, MapEntry};
use crate::ordered::{OrderedHandle, ScanBounds, Snapshot};
use crate::reclaim::str_eq;
use crate::set::{ConcurrentOrderedSet, InvariantViolation, SetHandle};
use crate::stats::OpStats;
use crate::variants::SinglyCursorList;
use crate::Key;

/// A [`Key`] that can be range-partitioned: a monotone map onto `u64`.
///
/// [`rank64`](ShardKey::rank64) must be monotone non-decreasing
/// (`a <= b` implies `a.rank64() <= b.rank64()`), because the shard
/// router derives shard indices from it and cross-shard scans rely on
/// shard `i`'s keys all ordering below shard `i+1`'s. The integer impls
/// spread the type's value range across the full `u64` space (flipping
/// the sign bit for signed types), so [`shard_of`] splits the keyspace
/// into `N` equal intervals.
///
/// # Examples
///
/// ```
/// use pragmatic_list::sharded::{shard_of, ShardKey};
///
/// assert!(i64::MIN.rank64() < 0i64.rank64());
/// assert!(0i64.rank64() < i64::MAX.rank64());
/// // Negative keys route below positive ones:
/// assert!(shard_of(-5i64, 4) <= shard_of(5i64, 4));
/// assert_eq!(shard_of(42u8, 1), 0);
/// ```
pub trait ShardKey: Key {
    /// `true` iff [`rank64`](ShardKey::rank64) is *injective*: distinct
    /// keys always have distinct ranks. All integer impls up to 64 bits
    /// are injective; the 128-bit types (which route on their top 64
    /// bits) are not. Routers use this to prove that no key below an
    /// exclusive scan end can share the end key's shard, which lets them
    /// skip the shard whose interval *starts* exactly at that end.
    const RANK_INJECTIVE: bool = false;

    /// Monotone rank of this key within the full `u64` space.
    fn rank64(self) -> u64;
}

macro_rules! impl_shard_key_unsigned {
    ($($t:ty),* $(,)?) => {$(
        impl ShardKey for $t {
            const RANK_INJECTIVE: bool = true;
            #[inline]
            fn rank64(self) -> u64 {
                (self as u64) << (64 - <$t>::BITS)
            }
        }
    )*};
}

macro_rules! impl_shard_key_signed {
    ($(($t:ty, $u:ty)),* $(,)?) => {$(
        impl ShardKey for $t {
            const RANK_INJECTIVE: bool = true;
            #[inline]
            fn rank64(self) -> u64 {
                (((self as $u) ^ (1 << (<$t>::BITS - 1))) as u64) << (64 - <$t>::BITS)
            }
        }
    )*};
}

impl_shard_key_unsigned!(u8, u16, u32, u64, usize);
impl_shard_key_signed!((i8, u8), (i16, u16), (i32, u32), (i64, u64), (isize, usize));

// The 128-bit types route on their top 64 bits: still monotone, which is
// all the router needs (keys equal in the top bits share a shard).
impl ShardKey for u128 {
    #[inline]
    fn rank64(self) -> u64 {
        (self >> 64) as u64
    }
}

impl ShardKey for i128 {
    #[inline]
    fn rank64(self) -> u64 {
        (((self as u128) ^ (1 << 127)) >> 64) as u64
    }
}

/// The shard owning `key` among `n` range-partitioned shards: a
/// multiply-shift on [`ShardKey::rank64`], so the keyspace is split into
/// `n` equal, contiguous, ascending intervals. Always `< n`.
#[inline]
pub fn shard_of<K: ShardKey>(key: K, n: usize) -> usize {
    debug_assert!(n > 0);
    ((key.rank64() as u128 * n as u128) >> 64) as usize
}

/// Stable CLI name for a `ShardedSet` instantiation.
///
/// Rust cannot concatenate strings in a generic associated const, so the
/// combinations registered in the benchmark harness are looked up by
/// `(backend NAME, shard count)`; any other instantiation falls back to
/// the generic `"sharded"`.
pub const fn sharded_name(inner: &'static str, n: usize) -> &'static str {
    if str_eq(inner, "singly_cursor") {
        match n {
            2 => "sharded_singly2",
            4 => "sharded_singly4",
            8 => "sharded_singly",
            16 => "sharded_singly16",
            32 => "sharded_singly32",
            _ => "sharded",
        }
    } else if str_eq(inner, "skiplist_mild") {
        match n {
            2 => "sharded_skiplist2",
            4 => "sharded_skiplist4",
            8 => "sharded_skiplist",
            16 => "sharded_skiplist16",
            32 => "sharded_skiplist32",
            _ => "sharded",
        }
    } else if str_eq(inner, "singly_cursor_epoch") {
        match n {
            8 => "sharded_singly_epoch",
            _ => "sharded",
        }
    } else {
        "sharded"
    }
}

/// `true` iff `rank` is the smallest rank owned by shard `s` of an
/// `n`-way even partition (i.e. `rank` sits exactly on the shard's lower
/// boundary). `shard_of` is monotone in the rank, so it suffices to
/// check that `rank - 1` routes lower.
pub(crate) fn rank_is_shard_floor(rank: u64, s: usize, n: usize) -> bool {
    debug_assert_eq!(((rank as u128 * n as u128) >> 64) as usize, s);
    rank == 0 || (((rank - 1) as u128 * n as u128) >> 64) as usize != s
}

/// Resolves a scan window to the shard interval it intersects and
/// concatenates the per-shard snapshots, in shard order (= key order,
/// since the partition is monotone, so the result is sorted). Shared by
/// the set and map handles.
///
/// The interval is empty for inverted windows; each shard only holds its
/// own keyspace interval, so re-passing the full bounds to every visited
/// shard is correct (`ScanBounds` itself implements `RangeBounds`).
///
/// Boundary semantics: when the window's end is *exclusive* and falls
/// exactly on a shard's lower boundary, that shard owns no key below the
/// end (for injective ranks), so it is not visited at all — previously
/// the selection walked into it and re-visited the boundary key only to
/// filter it out, an extra shard traversal (and an extra per-thread
/// shard handle) per scan.
fn scan_shards<K: ShardKey, T>(
    bounds: &ScanBounds<K>,
    n: usize,
    mut scan: impl FnMut(usize) -> Snapshot<T>,
) -> Snapshot<T> {
    let first = bounds.seek_key().map_or(0, |k| shard_of(k, n));
    let last = match bounds.end_key() {
        None => n - 1,
        Some(k) => {
            let s = shard_of(k, n);
            if bounds.end_excluded()
                && K::RANK_INJECTIVE
                && s > 0
                && rank_is_shard_floor(k.rank64(), s, n)
            {
                s - 1
            } else {
                s
            }
        }
    };
    let mut items = Vec::new();
    // `first..=last` is empty when `last < first` (a window lying
    // entirely below the skipped boundary shard).
    for i in first..=last {
        items.extend(scan(i));
    }
    Snapshot::from_vec(items)
}

/// An ordered set range-partitioned across `N` backend shards.
///
/// See the [module docs](self) for the partitioning scheme and the
/// consistency contract. `ShardedSet` implements
/// [`ConcurrentOrderedSet`] itself, so it composes: the harness, the
/// differential tests and — in principle — another `ShardedSet` all
/// accept it wherever a backend is expected.
pub struct ShardedSet<K: ShardKey, B: ConcurrentOrderedSet<K>, const N: usize> {
    shards: [B; N],
    _keys: PhantomData<K>,
}

impl<K: ShardKey, B: ConcurrentOrderedSet<K>, const N: usize> Default for ShardedSet<K, B, N> {
    fn default() -> Self {
        <Self as ConcurrentOrderedSet<K>>::new()
    }
}

impl<K: ShardKey, B: ConcurrentOrderedSet<K>, const N: usize> ShardedSet<K, B, N> {
    /// The number of shards (`N`).
    pub const fn shard_count(&self) -> usize {
        N
    }

    /// Read access to shard `i` (diagnostics, per-shard statistics).
    pub fn shard(&self, i: usize) -> &B {
        &self.shards[i]
    }

    /// Live keys per shard (quiescent, like
    /// [`collect_keys`](ConcurrentOrderedSet::collect_keys)) — the
    /// balance profile a skewed workload leaves behind.
    pub fn shard_sizes(&mut self) -> [usize; N] {
        let mut sizes = [0; N];
        for (i, s) in self.shards.iter_mut().enumerate() {
            sizes[i] = s.collect_keys().len();
        }
        sizes
    }
}

impl<K: ShardKey, B: ConcurrentOrderedSet<K>, const N: usize> ConcurrentOrderedSet<K>
    for ShardedSet<K, B, N>
{
    type Handle<'a>
        = ShardedSetHandle<'a, K, B, N>
    where
        Self: 'a;

    const NAME: &'static str = sharded_name(B::NAME, N);

    fn new() -> Self {
        assert!(N > 0, "a ShardedSet needs at least one shard");
        ShardedSet {
            shards: std::array::from_fn(|_| B::new()),
            _keys: PhantomData,
        }
    }

    fn handle(&self) -> ShardedSetHandle<'_, K, B, N> {
        ShardedSetHandle {
            set: self,
            handles: std::array::from_fn(|_| None),
        }
    }

    fn collect_keys(&mut self) -> Vec<K> {
        // Shard order is key order (the partition is monotone), so the
        // concatenation is already sorted.
        self.shards
            .iter_mut()
            .flat_map(|s| s.collect_keys())
            .collect()
    }

    fn check_invariants(&mut self) -> Result<(), InvariantViolation> {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.check_invariants()?;
            for (position, key) in shard.collect_keys().into_iter().enumerate() {
                if shard_of(key, N) != i {
                    return Err(InvariantViolation::ShardMisrouted { shard: i, position });
                }
            }
        }
        Ok(())
    }
}

/// Per-thread handle over a [`ShardedSet`]: a lazily-filled cache of one
/// backend handle per shard.
///
/// Point operations route to one shard's handle; scans visit only the
/// shards whose keyspace interval intersects the window; counters
/// aggregate across the cached handles. Handles for shards this thread
/// never touches are never created.
pub struct ShardedSetHandle<'s, K: ShardKey, B: ConcurrentOrderedSet<K>, const N: usize> {
    set: &'s ShardedSet<K, B, N>,
    handles: [Option<B::Handle<'s>>; N],
}

impl<'s, K: ShardKey, B: ConcurrentOrderedSet<K>, const N: usize> ShardedSetHandle<'s, K, B, N> {
    /// The cached handle for shard `i`, created on first touch.
    fn shard(&mut self, i: usize) -> &mut B::Handle<'s> {
        let set = self.set;
        self.handles[i].get_or_insert_with(|| set.shards[i].handle())
    }

    /// Number of shard handles this thread has actually created.
    pub fn cached_handles(&self) -> usize {
        self.handles.iter().filter(|h| h.is_some()).count()
    }

    /// Sorts `keys` once and forwards each contiguous same-shard run to
    /// `op` on that shard's handle (the monotone partition makes the
    /// sorted batch split into per-shard runs), summing the successes —
    /// one amortized backend traversal per *shard*, not per key.
    fn batch_by_shard(
        &mut self,
        keys: &mut [K],
        mut op: impl FnMut(&mut B::Handle<'s>, &mut [K]) -> usize,
    ) -> usize {
        keys.sort_unstable();
        let mut n = 0;
        let mut i = 0;
        while i < keys.len() {
            let s = shard_of(keys[i], N);
            let mut j = i + 1;
            while j < keys.len() && shard_of(keys[j], N) == s {
                j += 1;
            }
            n += op(self.shard(s), &mut keys[i..j]);
            i = j;
        }
        n
    }
}

impl<'s, K: ShardKey, B: ConcurrentOrderedSet<K>, const N: usize> SetHandle<K>
    for ShardedSetHandle<'s, K, B, N>
{
    fn add(&mut self, key: K) -> bool {
        self.shard(shard_of(key, N)).add(key)
    }

    fn remove(&mut self, key: K) -> bool {
        self.shard(shard_of(key, N)).remove(key)
    }

    fn contains(&mut self, key: K) -> bool {
        self.shard(shard_of(key, N)).contains(key)
    }

    fn add_batch(&mut self, keys: &mut [K]) -> usize {
        self.batch_by_shard(keys, |h, run| h.add_batch(run))
    }

    fn remove_batch(&mut self, keys: &mut [K]) -> usize {
        self.batch_by_shard(keys, |h, run| h.remove_batch(run))
    }

    fn stats(&self) -> OpStats {
        self.handles.iter().flatten().map(|h| h.stats()).sum()
    }

    fn take_stats(&mut self) -> OpStats {
        self.handles
            .iter_mut()
            .flatten()
            .map(|h| h.take_stats())
            .sum()
    }
}

impl<'s, K: ShardKey, B: ConcurrentOrderedSet<K>, const N: usize> OrderedHandle<K>
    for ShardedSetHandle<'s, K, B, N>
where
    B::Handle<'s>: OrderedHandle<K>,
{
    fn range<R: RangeBounds<K>>(&mut self, range: R) -> Snapshot<K> {
        let bounds = ScanBounds::from_range(&range);
        scan_shards(&bounds, N, |i| self.shard(i).range(bounds))
    }

    fn len_estimate(&mut self) -> usize {
        let mut n = 0;
        for i in 0..N {
            n += self.shard(i).len_estimate();
        }
        n
    }
}

/// An ordered key→value map range-partitioned across `N` shards.
///
/// The value-carrying counterpart of [`ShardedSet`], and literally one:
/// a `ShardedSet` of variant d) lists over key-ordered map entries, so
/// it shares the set's router, lazy per-thread handle cache and
/// monotone-concatenation scans, with the map API (`insert`/`get`/
/// `remove` returning the value, `(K, V)` scans).
///
/// # Examples
///
/// ```
/// use pragmatic_list::sharded::ShardedMap;
///
/// let map = ShardedMap::<i64, u64, 4>::new();
/// let mut h = map.handle();
/// for k in [30i64, -7, 12, 99] {
///     assert!(h.insert(k, k.unsigned_abs()));
/// }
/// assert_eq!(h.get(-7), Some(7));
/// assert_eq!(h.remove(12), Some(12));
/// // Cross-shard range scan, ascending by key:
/// assert_eq!(h.range(-10..=50).into_vec(), vec![(-7, 7), (30, 30)]);
/// assert_eq!(h.len_estimate(), 3);
/// ```
pub struct ShardedMap<K: ShardKey, V: Copy + Send + Sync + 'static, const N: usize> {
    set: ShardedSet<MapEntry<K, V>, SinglyCursorList<MapEntry<K, V>>, N>,
}

impl<K: ShardKey, V: Copy + Send + Sync + 'static, const N: usize> Default for ShardedMap<K, V, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: ShardKey, V: Copy + Send + Sync + 'static, const N: usize> ShardedMap<K, V, N> {
    /// Creates an empty map of `N` empty shards.
    pub fn new() -> Self {
        ShardedMap {
            set: ShardedSet::new(),
        }
    }

    /// The number of shards (`N`).
    pub const fn shard_count(&self) -> usize {
        N
    }

    /// Per-thread handle (lazy per-shard handle cache).
    pub fn handle(&self) -> ShardedMapHandle<'_, K, V, N> {
        ShardedMapHandle {
            inner: self.set.handle(),
        }
    }

    /// Quiescent snapshot of all `(key, value)` pairs in key order.
    pub fn collect(&mut self) -> Vec<(K, V)> {
        let entries = self.set.collect_keys();
        entries.into_iter().map(MapEntry::pair).collect()
    }

    /// Number of live entries (racy; exact when quiescent).
    pub fn len_approx(&self) -> usize {
        self.set.shards.iter().map(|s| s.len_approx()).sum()
    }
}

/// Per-thread handle over a [`ShardedMap`].
pub struct ShardedMapHandle<'m, K: ShardKey, V: Copy + Send + Sync + 'static, const N: usize> {
    inner: ShardedSetHandle<'m, MapEntry<K, V>, SinglyCursorList<MapEntry<K, V>>, N>,
}

impl<'m, K: ShardKey, V: Copy + Send + Sync + 'static, const N: usize>
    ShardedMapHandle<'m, K, V, N>
{
    /// Inserts `key → value`; `true` iff the key was absent (no
    /// overwrite — [`ListMap`](crate::map::ListMap)'s contract).
    pub fn insert(&mut self, key: K, value: V) -> bool {
        self.inner.add(MapEntry::new(key, value))
    }

    /// Removes `key`; returns its value iff this thread won the delete.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let probe = MapEntry::probe(key);
        self.inner.shard(shard_of(key, N)).remove_impl(probe)?.value
    }

    /// Wait-free lookup.
    pub fn get(&mut self, key: K) -> Option<V> {
        let probe = MapEntry::probe(key);
        self.inner.shard(shard_of(key, N)).find_impl(probe)?.value
    }

    /// `true` iff `key` is present.
    pub fn contains_key(&mut self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Scans live `(key, value)` pairs with keys inside `range`, merging
    /// the per-shard snapshots in ascending key order (weakly consistent,
    /// as [`crate::ordered`]).
    pub fn range<R: RangeBounds<K>>(&mut self, range: R) -> Snapshot<(K, V)> {
        pairs(self.inner.range(MapEntry::probe_range(&range)))
    }

    /// Scans all live `(key, value)` pairs in ascending key order.
    pub fn iter(&mut self) -> Snapshot<(K, V)> {
        self.range(..)
    }

    /// Estimated number of live entries across all shards.
    pub fn len_estimate(&self) -> usize {
        let shards = &self.inner.set.shards;
        shards.iter().map(|s| s.len_approx()).sum()
    }

    /// Aggregated counters across the cached shard handles.
    pub fn stats(&self) -> OpStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::ListMap;
    use crate::variants::{DoublyCursorList, SinglyCursorEpochList};

    #[test]
    fn rank64_is_monotone_and_spreads() {
        let samples = [
            i64::MIN + 1,
            -1_000_000,
            -1,
            0,
            1,
            7,
            1_000_000,
            i64::MAX - 1,
        ];
        for w in samples.windows(2) {
            assert!(w[0].rank64() < w[1].rank64(), "{:?}", w);
        }
        assert!(
            u8::MAX.rank64() > u64::MAX.rank64() / 2,
            "small types spread"
        );
        assert!(1u128.rank64() <= (u128::MAX).rank64());
        assert!((-1i128).rank64() < 1i128.rank64());
    }

    #[test]
    fn shard_of_is_monotone_covering_and_bounded() {
        let n = 8;
        let mut prev = 0usize;
        let mut seen = [false; 8];
        let lo = i64::MIN + 1;
        let hi = i64::MAX - 1;
        let step = (hi / 512).max(1);
        let mut k = lo;
        loop {
            let s = shard_of(k, n);
            assert!(s < n);
            assert!(s >= prev, "router must be monotone");
            prev = s;
            seen[s] = true;
            if k > hi - step {
                break;
            }
            k += step;
        }
        assert!(seen.iter().all(|&b| b), "all shards reachable");
        // n = 1 degenerates to a single shard.
        assert_eq!(shard_of(i64::MIN + 1, 1), 0);
        assert_eq!(shard_of(i64::MAX - 1, 1), 0);
    }

    #[test]
    fn registered_names_resolve_and_fallback_is_generic() {
        assert_eq!(
            <ShardedSet<i64, SinglyCursorList<i64>, 8> as ConcurrentOrderedSet<i64>>::NAME,
            "sharded_singly"
        );
        assert_eq!(
            <ShardedSet<i64, SinglyCursorList<i64>, 32> as ConcurrentOrderedSet<i64>>::NAME,
            "sharded_singly32"
        );
        assert_eq!(
            <ShardedSet<i64, SinglyCursorEpochList<i64>, 8> as ConcurrentOrderedSet<i64>>::NAME,
            "sharded_singly_epoch"
        );
        // Unregistered combination: generic fallback, still functional.
        assert_eq!(
            <ShardedSet<i64, DoublyCursorList<i64>, 3> as ConcurrentOrderedSet<i64>>::NAME,
            "sharded"
        );
    }

    #[test]
    fn point_ops_route_and_agree_with_a_flat_set() {
        let sharded = ShardedSet::<i64, SinglyCursorList<i64>, 8>::new();
        let flat = SinglyCursorList::<i64>::new();
        let mut hs = sharded.handle();
        let mut hf = flat.handle();
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..4_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = ((x >> 33) % 256) as i64 - 128;
            match x % 3 {
                0 => assert_eq!(hs.add(k), hf.add(k), "add {k}"),
                1 => assert_eq!(hs.remove(k), hf.remove(k), "remove {k}"),
                _ => assert_eq!(hs.contains(k), hf.contains(k), "contains {k}"),
            }
        }
        drop(hs);
        drop(hf);
        let (mut sharded, mut flat) = (sharded, flat);
        assert_eq!(sharded.collect_keys(), flat.collect_keys());
        sharded.check_invariants().unwrap();
    }

    #[test]
    fn cross_shard_scans_concatenate_sorted() {
        let set = ShardedSet::<i64, SinglyCursorList<i64>, 16>::new();
        let mut h = set.handle();
        for k in (-512..512).step_by(3) {
            h.add(k);
        }
        let all = h.iter().into_vec();
        assert_eq!(all.len(), 1024 / 3 + 1);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        let want: Vec<i64> = (-512..512)
            .step_by(3)
            .filter(|k| (-100..100).contains(k))
            .collect();
        assert_eq!(h.range(-100..100).into_vec(), want);
        assert!(h.range(50..50).is_empty());
        use std::ops::Bound;
        let inverted = (Bound::Included(7i64), Bound::Excluded(3i64));
        assert!(h.range(inverted).is_empty(), "inverted window");
        assert_eq!(h.len_estimate(), all.len());
    }

    #[test]
    fn exclusive_end_on_a_shard_boundary_skips_the_boundary_shard() {
        // Regression: with 4 shards over u64, shard 1 starts exactly at
        // rank 1<<62. A scan `..boundary` (exclusive) owns nothing in
        // shard 1, yet the interval selection used to walk into it and
        // visit the boundary key again just to filter it out — visible
        // as an extra per-thread shard handle.
        let boundary = 1u64 << 62;
        let set = ShardedSet::<u64, SinglyCursorList<u64>, 4>::new();
        let mut h = set.handle();
        for k in [1u64, boundary - 1, boundary, boundary + 1] {
            h.add(k);
        }
        drop(h);
        let mut h = set.handle();
        assert_eq!(
            h.range(1..boundary).into_vec(),
            vec![1, boundary - 1],
            "exclusive end: boundary key itself excluded"
        );
        assert_eq!(
            h.cached_handles(),
            1,
            "the shard starting at the exclusive end must not be visited"
        );
        // Inclusive end at the same point does visit the boundary shard.
        assert_eq!(
            h.range(1..=boundary).into_vec(),
            vec![1, boundary - 1, boundary]
        );
        assert_eq!(h.cached_handles(), 2);
        // A window entirely *inside* the skipped shard stays empty and
        // never walks shard 0 either.
        let mut h2 = set.handle();
        assert!(h2.range(boundary..boundary).is_empty());
        assert_eq!(h2.cached_handles(), 0, "empty boundary window: no shard");
    }

    #[test]
    fn non_injective_ranks_keep_visiting_the_boundary_shard() {
        // u128 routes on its top 64 bits, so distinct keys share ranks;
        // skipping the boundary shard would lose keys below the end that
        // happen to share its rank. The conservative path must stay.
        const { assert!(!<u128 as ShardKey>::RANK_INJECTIVE) };
        let lo_of_shard_1_of_2 = 1u128 << 127; // rank 1<<63 → shard 1 of 2
        let set = ShardedSet::<u128, SinglyCursorList<u128>, 2>::new();
        let mut h = set.handle();
        // Same rank as the boundary, but strictly below the end key.
        h.add(lo_of_shard_1_of_2 + 1);
        h.add(lo_of_shard_1_of_2 + 5);
        assert_eq!(
            h.range(1..lo_of_shard_1_of_2 + 5).into_vec(),
            vec![lo_of_shard_1_of_2 + 1],
            "a key sharing the excluded end's rank must still be found"
        );
    }

    #[test]
    fn rank_floor_detection_matches_shard_of() {
        for n in [2usize, 3, 4, 8, 32] {
            for s in 1..n {
                // The exact lower boundary of shard s: smallest rank r
                // with (r*n)>>64 == s, i.e. ceil(s·2^64/n).
                let floor = (((s as u128) << 64).div_ceil(n as u128)) as u64;
                assert_eq!(shard_of_rank(floor, n), s);
                assert!(rank_is_shard_floor(floor, s, n), "n={n} s={s}");
                if shard_of_rank(floor + 1, n) == s {
                    assert!(!rank_is_shard_floor(floor + 1, s, n), "n={n} s={s}");
                }
            }
        }
        fn shard_of_rank(rank: u64, n: usize) -> usize {
            ((rank as u128 * n as u128) >> 64) as usize
        }
    }

    #[test]
    fn handle_cache_is_lazy() {
        let set = ShardedSet::<u64, SinglyCursorList<u64>, 8>::new();
        let mut h = set.handle();
        assert_eq!(h.cached_handles(), 0);
        h.add(1); // smallest shard only
        assert_eq!(h.cached_handles(), 1);
        h.add(u64::MAX - 1);
        assert_eq!(h.cached_handles(), 2);
        // A full scan touches every shard.
        let _ = h.iter();
        assert_eq!(h.cached_handles(), 8);
    }

    #[test]
    fn shard_sizes_reflect_skew() {
        let mut set = ShardedSet::<u64, SinglyCursorList<u64>, 4>::new();
        {
            let mut h = set.handle();
            // All keys in the lowest quarter of the keyspace.
            for k in 1..=100u64 {
                h.add(k);
            }
        }
        let sizes = set.shard_sizes();
        assert_eq!(sizes, [100, 0, 0, 0]);
        assert_eq!(set.shard(0).handle().len_estimate(), 100);
    }

    #[test]
    fn sharded_map_matches_flat_listmap() {
        let sharded = ShardedMap::<i64, i64, 8>::new();
        let flat = ListMap::<i64, i64>::new();
        let mut hs = sharded.handle();
        let mut hf = flat.handle();
        let mut x = 0xfeed_beefu64;
        for _ in 0..4_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = ((x >> 33) % 128) as i64 - 64;
            let v = (x % 1_000) as i64;
            match x % 3 {
                0 => assert_eq!(hs.insert(k, v), hf.insert(k, v)),
                1 => assert_eq!(hs.remove(k), hf.remove(k)),
                _ => assert_eq!(hs.get(k), hf.get(k)),
            }
        }
        assert_eq!(hs.iter().into_vec(), hf.iter().into_vec());
        assert_eq!(hs.range(-10..40).into_vec(), hf.range(-10..40).into_vec());
        assert_eq!(hs.len_estimate(), hf.len_estimate());
        drop((hs, hf));
        let (mut sharded, mut flat) = (sharded, flat);
        assert_eq!(sharded.collect(), flat.collect());
    }

    #[test]
    fn concurrent_disjoint_writers_across_shards() {
        let set = ShardedSet::<i64, SinglyCursorList<i64>, 8>::new();
        std::thread::scope(|s| {
            for t in 0..8i64 {
                let set = &set;
                s.spawn(move || {
                    let mut h = set.handle();
                    for i in 0..500 {
                        assert!(h.add(t + i * 8 - 2000));
                    }
                });
            }
        });
        let mut set = set;
        assert_eq!(set.collect_keys().len(), 4000);
        set.check_invariants().unwrap();
    }

    #[test]
    fn reclaimer_threads_through_the_shards() {
        // Epoch-reclaimed backends work identically behind the router.
        let set = ShardedSet::<i64, SinglyCursorEpochList<i64>, 8>::new();
        let mut h = set.handle();
        for k in -100..100 {
            assert!(h.add(k));
        }
        for k in (-100..100).step_by(2) {
            assert!(h.remove(k));
        }
        assert_eq!(h.len_estimate(), 100);
        drop(h);
        let mut set = set;
        assert_eq!(set.collect_keys().len(), 100);
        set.check_invariants().unwrap();
    }
}
