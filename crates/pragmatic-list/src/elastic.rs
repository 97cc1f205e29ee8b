//! Elastic sharding: load-aware shard split/merge with online migration.
//!
//! The static [`ShardedSet`](crate::sharded::ShardedSet) fixes the shard
//! count and key placement at construction. Real traffic drifts: a
//! hotspot that wanders across the keyspace (the phase transitions of
//! road-network congestion) eventually pins all load onto one shard and
//! erases the N× sharding win. [`Elastic`] fixes this by watching
//! per-shard load online and **resharding while concurrent operations
//! run**: the hottest shard is split at its median key into two finer
//! shards, and cold adjacent shards are merged back.
//!
//! # One front, four presets
//!
//! [`Elastic<K, B>`](Elastic) is the one elastic type, over a shard
//! backend `B`. Callers name the backend through four preset aliases,
//! each fixing the backend, its registry name and the policy `new()`
//! builds under: [`ElasticSet`] (any ordered set), [`ElasticMorphSet`]
//! and [`ElasticCombineSet`] (morphing shards, the latter under
//! [`LoadPolicy::combining`]), and [`ElasticMap`] ([`ListMap`] shards).
//!
//! # The router
//!
//! The keyspace partition is a table of contiguous, ascending rank
//! intervals (`[lo_i, lo_{i+1})` over [`ShardKey::rank64`]), each owning
//! one backend shard. The table itself (`RouterTable`) is **immutable**
//! and published RCU-style: one atomic pointer names the current table,
//! and the hot-path revalidation is a single `Acquire` load of that
//! pointer compared against the handle's snapshot — no mutex and no
//! version handshake on lookup. The handle's snapshot is an `Arc` that
//! pins the old allocation, so an address match proves identity (a
//! recycled address would require this very snapshot to have been
//! dropped first). Writers — split, merge, morph — serialize on a
//! writer mutex **off** the read path, build a fresh table, and
//! CAS-publish it with the `TABLE_PUBLISH` (`Release`) ordering from the
//! `sync` facade; the displaced table retires through the
//! same epoch domain as [`EpochReclaim`](crate::reclaim::EpochReclaim),
//! so a reader that already loaded the old pointer finishes routing
//! through it before the memory can be freed.
//!
//! # The migration protocol
//!
//! A split (or merge, or morph) of shard *S* proceeds in five steps,
//! serialized by the writer mutex:
//!
//! 1. **Seal**: `S.sealed ← true` (SeqCst). From this instant, any
//!    operation that routes to *S* observes the seal and stalls.
//! 2. **Drain**: wait until no handle's *activity slot* names `S.id`.
//!    Operations publish the target shard's id in a per-handle
//!    cache-padded slot *before* re-checking the seal (the hazard-pointer
//!    handshake: `store(SeqCst)` then `load(SeqCst)` against the sealer's
//!    `store(SeqCst)` then scan), so after the drain no operation is in
//!    flight on *S* and none can start.
//! 3. **Copy**: scan the now write-quiescent backend (exact) and bulk-load
//!    the keys into fresh backends via the sorted batch path.
//! 4. **Publish**: build a new table carrying the replacement intervals
//!    and CAS-install its pointer (`TABLE_PUBLISH` = `Release`).
//!    Stalled and future operations observe the changed pointer,
//!    refresh, re-route and retry.
//! 5. **Retire**: the displaced table is deferred into the epoch
//!    domain; once every reader that could still hold its pointer has
//!    unpinned, it drops its shard `Arc`s. A decommissioned backend is
//!    freed — running its own teardown through its
//!    [`Reclaimer`](crate::reclaim::Reclaimer) — once the retired
//!    tables collect *and* the last handle snapshot referencing it
//!    refreshes (handles always drop the cached backend handle *before*
//!    releasing the backend, so parked cursors and search hints die
//!    with the handle, never dangling).
//!
//! Operations therefore never block on a mutex on the hot path, never
//! lose an update to a migration, and `range()` scans stitch across old
//! and new intervals (resuming strictly after the last emitted key, so a
//! repartition mid-scan cannot duplicate or reorder output).
//!
//! # Backend morphing
//!
//! Because a migration already stops the world *for one shard* (seal →
//! drain → copy), rebuilding the copy in a **different backend type**
//! is free: the morphing presets run each shard as a [`MorphKind`] arm —
//! a flat hinted list while the shard is small, an unrolled fat-node
//! list in the middle, a skiplist (any caller-supplied ordered set) once
//! the shard is large — chosen by [`LoadPolicy::morph_kind`] from the
//! shard's population whenever a migration rebuilds it. The monitor
//! additionally re-morphs the hottest shard when its population has
//! drifted out of its arm's band, so one structure tracks the best
//! backend across the whole size/skew spectrum instead of per-benchmark.
//!
//! # Load monitoring
//!
//! Each shard carries a cache-padded operation counter; handles bump it
//! in amortized blocks and, every [`LoadPolicy::check_period`]
//! operations, close the observation window: if one shard absorbed more
//! than [`LoadPolicy::split_share_pct`] of the window it is split
//! (caller-amortized — the observing thread performs the migration); if
//! the coldest adjacent pair fell below [`LoadPolicy::merge_share_pct`]
//! it is merged. All thresholds are injectable, so tests drive
//! migrations deterministically — by op counts or by
//! [`Elastic::force_split_at`] — with no timing dependence.
//!
//! # Examples
//!
//! ```
//! use pragmatic_list::elastic::{ElasticSet, LoadPolicy};
//! use pragmatic_list::variants::SinglyCursorList;
//! use pragmatic_list::{ConcurrentOrderedSet, OrderedHandle, SetHandle};
//!
//! let set = ElasticSet::<i64, SinglyCursorList<i64>>::with_policy(LoadPolicy {
//!     initial_shards: 2,
//!     ..LoadPolicy::default()
//! });
//! let mut h = set.handle();
//! for k in -100..100 {
//!     h.add(k);
//! }
//! // Deterministic migration: split the shard owning key 0.
//! assert!(set.force_split_at(0));
//! assert_eq!(set.shard_count(), 3);
//! assert_eq!(h.range(-3..3).into_vec(), vec![-3, -2, -1, 0, 1, 2]);
//! assert_eq!(h.len_estimate(), 200);
//! ```

use crate::sync::{
    AtomicBool, AtomicPtr, AtomicU64, Mutex, MutexGuard, COMBINER_HANDOFF, COMBINE_PUBLISH,
    TABLE_PUBLISH,
};
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ops::RangeBounds;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::Arc;

use crate::map::{ListMap, MapEntry, MapHandle};
use crate::ordered::{OrderedHandle, ScanBounds, Snapshot};
use crate::reclaim::str_eq;
use crate::set::{ConcurrentOrderedSet, InvariantViolation, SetHandle};
use crate::sharded::ShardKey;
use crate::stats::{CachePadded, OpStats, WindowCounter};
use crate::variants::{SinglyHintedList, UnrolledArenaList};

/// Thresholds steering the elastic load monitor.
///
/// Every decision the monitor takes is a pure function of operation
/// counts and these thresholds — no clocks — so tests inject tiny values
/// and drive split/merge decisions deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadPolicy {
    /// Shards at construction (even rank intervals), ≥ 1.
    pub initial_shards: usize,
    /// Hard cap on the shard count; splits stop here.
    pub max_shards: usize,
    /// Per-handle operations between monitor checks (amortizes the
    /// window bookkeeping; larger = cheaper, slower to react).
    pub check_period: u32,
    /// Minimum operations a window must hold before any decision.
    pub window_min_ops: u64,
    /// Split the hottest shard when its share of the window exceeds
    /// this percentage.
    pub split_share_pct: u32,
    /// Merge the coldest adjacent shard pair when its combined share of
    /// the window falls strictly below this percentage (0 disables
    /// merging). Merging only fires under *table pressure* — when the
    /// shard count has reached three quarters of
    /// [`max_shards`](LoadPolicy::max_shards) — so a drifting hotspot
    /// keeps annealing the table finer instead of having every
    /// cold phase undone behind it; cold fine shards are nearly free
    /// until the table budget runs out.
    pub merge_share_pct: u32,
    /// Never split a shard holding fewer keys than this.
    pub min_split_keys: usize,
    /// Largest population a morphing shard serves from the flat hinted
    /// list arm; above this the unrolled arm takes over. Ignored by
    /// single-backend sets.
    pub morph_list_max: usize,
    /// Population at which a morphing shard moves to the skiplist arm.
    /// Must exceed [`morph_list_max`](LoadPolicy::morph_list_max).
    /// Ignored by single-backend sets.
    pub morph_skip_min: usize,
    /// Write share (percent of a shard's window that were `add`/`remove`
    /// ops) at which the monitor marks the shard **write-hot** and
    /// engages flat-combining delegation for it instead of splitting it
    /// (splitting cannot help when the hot set sits inside one shard —
    /// the contended head cache lines move to a child and stay
    /// contended). `0` disables delegation entirely (the default; only
    /// [`ElasticCombineSet`] opts in).
    pub combine_write_pct: u32,
}

impl Default for LoadPolicy {
    fn default() -> Self {
        LoadPolicy {
            initial_shards: 8,
            max_shards: 16,
            check_period: 1024,
            window_min_ops: 16384,
            split_share_pct: 30,
            merge_share_pct: 1,
            min_split_keys: 16,
            morph_list_max: 64,
            morph_skip_min: 1024,
            combine_write_pct: 0,
        }
    }
}

impl LoadPolicy {
    fn validate(&self) {
        assert!(self.initial_shards >= 1, "need at least one shard");
        assert!(
            self.max_shards >= self.initial_shards,
            "max_shards below initial_shards"
        );
        assert!(self.check_period >= 1);
        assert!(self.split_share_pct <= 100 && self.merge_share_pct <= 100);
        assert!(self.combine_write_pct <= 100);
        assert!(
            self.morph_skip_min > self.morph_list_max,
            "morph arms must form disjoint population bands"
        );
    }

    /// The backend arm a morphing shard of `len` live keys should run.
    /// Single-backend sets ([`ElasticSet`], [`ElasticMap`]) ignore it.
    pub fn morph_kind(&self, len: usize) -> MorphKind {
        if len >= self.morph_skip_min {
            MorphKind::Skip
        } else if len > self.morph_list_max {
            MorphKind::Unrolled
        } else {
            MorphKind::List
        }
    }

    /// Like [`morph_kind`](LoadPolicy::morph_kind), but with a
    /// quarter-band hysteresis margin around the arm the shard already
    /// runs: the shard only leaves `current` once its population is 25%
    /// past the band boundary. Without the margin, a shard hovering at a
    /// band edge — e.g. the two half-size children of a split landing
    /// right at `morph_skip_min` — would re-morph (a full
    /// seal/drain/rebuild) every load window.
    pub fn morph_kind_settled(&self, len: usize, current: MorphKind) -> MorphKind {
        let want = self.morph_kind(len);
        if want == current {
            return current;
        }
        let (lo, hi) = match current {
            MorphKind::List => (0, self.morph_list_max),
            MorphKind::Unrolled => (self.morph_list_max, self.morph_skip_min),
            MorphKind::Skip => (self.morph_skip_min, usize::MAX),
        };
        // `lo - lo / 4` is 0 for the List arm, so a List shard never
        // "leaves downward"; Skip's `hi` saturates, so it never leaves
        // upward.
        if len > hi.saturating_add(hi / 4) || len < lo - lo / 4 {
            want
        } else {
            current
        }
    }

    /// The default delegation-enabled policy used by
    /// [`ElasticCombineSet::new`]: delegation engages once 40% of a
    /// shard's window were writes.
    pub fn combining() -> LoadPolicy {
        LoadPolicy {
            combine_write_pct: 40,
            ..LoadPolicy::default()
        }
    }

    /// Whether a shard that absorbed `writes` write ops out of `ops`
    /// total in the closed window should run delegated (flat-combining),
    /// given that it currently runs `current`. Mirrors the quarter-band
    /// hysteresis of [`morph_kind_settled`](LoadPolicy::morph_kind_settled):
    /// an engaged shard only disengages once its write share falls 25%
    /// below the threshold, so a workload hovering at the boundary does
    /// not flap the delegation flag every window.
    pub fn combine_settled(&self, writes: u64, ops: u64, current: bool) -> bool {
        if self.combine_write_pct == 0 || ops == 0 {
            return false;
        }
        let pct = u64::from(self.combine_write_pct);
        if current {
            writes * 100 >= ops * (pct - pct / 4)
        } else {
            writes * 100 >= ops * pct
        }
    }
}

/// The backend arm a morphing shard currently runs (see
/// [`ElasticMorphSet`] and [`LoadPolicy::morph_kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MorphKind {
    /// Flat hinted singly list: cheapest constant factors for small or
    /// write-hot shards.
    List,
    /// Unrolled fat-node list: cache-dense middle ground.
    Unrolled,
    /// Skiplist (or any caller-supplied ordered set): log-cost search
    /// for large shards.
    Skip,
}

/// Stable CLI name for an `ElasticSet` instantiation (cf.
/// [`sharded_name`](crate::sharded::sharded_name)).
pub const fn elastic_name(inner: &'static str) -> &'static str {
    if str_eq(inner, "singly_cursor") {
        "elastic_singly"
    } else if str_eq(inner, "skiplist_mild") {
        "elastic_skiplist"
    } else if str_eq(inner, "singly_cursor_epoch") {
        "elastic_singly_epoch"
    } else {
        "elastic"
    }
}

/// The shard backends an [`Elastic`] structure can run. The items are
/// `pub` so the preset aliases can name them, but the module is private:
/// callers pick a backend only through the aliases (the sealed pattern).
mod backend {
    use super::*;

    /// What the elastic core needs from a shard backend: construction, a
    /// per-thread handle, an ordered scan, a sorted bulk load (the
    /// migration copy path), and counter plumbing. Implemented for any
    /// [`ConcurrentOrderedSet`] (via the [`SetBackend`] adapter), for the
    /// morphing [`MorphBackend`], and for [`ListMap`].
    pub trait ElasticBackend<K: ShardKey>: Send + Sync + Sized + 'static {
        /// Per-thread backend handle.
        type Handle<'a>
        where
            Self: 'a;
        /// What a scan yields: `K` for sets, `(K, V)` for maps.
        type Item: Copy + Send + Sync + 'static;

        /// Stable CLI name of the elastic structure over this backend.
        const NAME: &'static str;

        /// `true` iff this backend can change arms when a migration
        /// rebuilds it ([`MorphBackend`]); gates the monitor's morph pass
        /// so single-backend sets never pay for it.
        const MORPHS: bool = false;

        /// `true` iff write ops against this backend can be delegated to
        /// a combiner ([`apply_delegated`](ElasticBackend::apply_delegated)
        /// is implemented). Sets delegate; maps never do — a delegated op
        /// carries only a key, not a value.
        const COMBINES: bool = false;

        /// Applies one delegated write op — `add(key)` or `remove(key)` —
        /// through an existing backend handle, returning the op's result.
        /// Only called when [`COMBINES`](ElasticBackend::COMBINES) is
        /// `true`; both the combiner drain and the direct (non-delegated)
        /// write path of delegation-capable sets funnel through it, so a
        /// delegated op is indistinguishable from a direct one at the
        /// backend.
        fn apply_delegated<'a>(handle: &mut Self::Handle<'a>, key: K, remove: bool) -> bool {
            let _ = (handle, key, remove);
            unreachable!("backend does not support delegation (COMBINES = false)")
        }

        /// Builds an empty backend.
        fn new() -> Self;
        /// Builds a backend running arm `kind`; single-arm backends
        /// ignore it.
        fn new_kind(kind: MorphKind) -> Self {
            let _ = kind;
            Self::new()
        }
        /// The arm this backend currently runs (single-arm backends
        /// report [`MorphKind::List`]).
        fn kind(&self) -> MorphKind {
            MorphKind::List
        }
        /// A per-thread handle.
        fn handle(&self) -> Self::Handle<'_>;
        /// The key an item is ordered by.
        fn item_key(item: &Self::Item) -> K;
        /// Ordered scan of the live items inside `bounds`.
        fn scan<'a>(handle: &mut Self::Handle<'a>, bounds: &ScanBounds<K>) -> Vec<Self::Item>;
        /// Bulk-inserts `items` (sorted ascending; may be reordered).
        fn load_sorted<'a>(handle: &mut Self::Handle<'a>, items: &mut [Self::Item]);
        /// The handle's counters.
        fn stats(handle: &Self::Handle<'_>) -> OpStats;
        /// Reads (and, where supported, resets) the handle's counters.
        /// Called once, immediately before the handle is dropped, when a
        /// router refresh evicts it.
        fn drain_stats<'a>(handle: &mut Self::Handle<'a>) -> OpStats;
        /// Estimated live items.
        fn len_estimate<'a>(handle: &mut Self::Handle<'a>) -> usize;
        /// Quiescent snapshot of all items, ascending.
        fn collect_items(&mut self) -> Vec<Self::Item>;
        /// Quiescent structural check.
        fn check(&mut self) -> Result<(), InvariantViolation>;
    }

    /// Adapter giving any ordered set the [`ElasticBackend`] surface.
    pub struct SetBackend<K, B>(B, PhantomData<K>);

    impl<K, B> ElasticBackend<K> for SetBackend<K, B>
    where
        K: ShardKey,
        B: ConcurrentOrderedSet<K> + 'static,
        for<'a> B::Handle<'a>: OrderedHandle<K>,
    {
        type Handle<'a>
            = B::Handle<'a>
        where
            Self: 'a;
        type Item = K;

        const NAME: &'static str = elastic_name(B::NAME);
        const COMBINES: bool = true;

        fn apply_delegated<'a>(handle: &mut B::Handle<'a>, key: K, remove: bool) -> bool {
            if remove {
                handle.remove(key)
            } else {
                handle.add(key)
            }
        }

        fn new() -> Self {
            SetBackend(B::new(), PhantomData)
        }

        fn handle(&self) -> B::Handle<'_> {
            self.0.handle()
        }

        fn item_key(item: &K) -> K {
            *item
        }

        fn scan<'a>(handle: &mut B::Handle<'a>, bounds: &ScanBounds<K>) -> Vec<K> {
            handle.range(*bounds).into_vec()
        }

        fn load_sorted<'a>(handle: &mut B::Handle<'a>, items: &mut [K]) {
            handle.add_batch(items);
        }

        fn stats(handle: &B::Handle<'_>) -> OpStats {
            handle.stats()
        }

        fn drain_stats<'a>(handle: &mut B::Handle<'a>) -> OpStats {
            handle.take_stats()
        }

        fn len_estimate<'a>(handle: &mut B::Handle<'a>) -> usize {
            handle.len_estimate()
        }

        fn collect_items(&mut self) -> Vec<K> {
            self.0.collect_keys()
        }

        fn check(&mut self) -> Result<(), InvariantViolation> {
            self.0.check_invariants()
        }
    }

    impl<K, V> ElasticBackend<K> for ListMap<K, V>
    where
        K: ShardKey,
        V: Copy + Send + Sync + 'static,
    {
        type Handle<'a>
            = MapHandle<'a, K, V>
        where
            Self: 'a;
        type Item = (K, V);

        const NAME: &'static str = "elastic_map";

        fn new() -> Self {
            ListMap::new()
        }

        fn handle(&self) -> MapHandle<'_, K, V> {
            self.handle()
        }

        fn item_key(item: &(K, V)) -> K {
            item.0
        }

        fn scan<'a>(handle: &mut MapHandle<'a, K, V>, bounds: &ScanBounds<K>) -> Vec<(K, V)> {
            handle.range(*bounds).into_vec()
        }

        fn load_sorted<'a>(handle: &mut MapHandle<'a, K, V>, items: &mut [(K, V)]) {
            let mut entries: Vec<_> = items.iter().map(|&(k, v)| MapEntry::new(k, v)).collect();
            handle.entries.add_batch(&mut entries);
        }

        fn stats(handle: &MapHandle<'_, K, V>) -> OpStats {
            handle.stats()
        }

        fn drain_stats<'a>(handle: &mut MapHandle<'a, K, V>) -> OpStats {
            handle.entries.take_stats()
        }

        fn len_estimate<'a>(handle: &mut MapHandle<'a, K, V>) -> usize {
            handle.len_estimate()
        }

        fn collect_items(&mut self) -> Vec<(K, V)> {
            self.collect()
        }

        fn check(&mut self) -> Result<(), InvariantViolation> {
            self.list.validate()
        }
    }

    /// The morphing shard backend: one of three arms, chosen per shard by
    /// [`LoadPolicy::morph_kind`] whenever a migration (re)builds the
    /// shard. The skiplist arm is generic (`S`) because the skiplist crate
    /// sits *above* this one in the workspace; the benchmark harness plugs
    /// the real skiplist in.
    pub enum MorphBackend<K: ShardKey, S> {
        /// Flat hinted singly list.
        List(SinglyHintedList<K>),
        /// Unrolled fat-node list.
        Unrolled(UnrolledArenaList<K>),
        /// The caller-supplied large-shard set.
        Skip(S),
    }

    /// Per-thread handle over one [`MorphBackend`] arm.
    pub enum MorphHandle<'a, K: ShardKey, S: ConcurrentOrderedSet<K> + 'a> {
        /// Handle over the list arm.
        List(<SinglyHintedList<K> as ConcurrentOrderedSet<K>>::Handle<'a>),
        /// Handle over the unrolled arm.
        Unrolled(<UnrolledArenaList<K> as ConcurrentOrderedSet<K>>::Handle<'a>),
        /// Handle over the large-shard arm.
        Skip(S::Handle<'a>),
    }

    /// Forwards one method call to whichever arm the handle runs.
    macro_rules! morph_delegate {
        ($handle:expr, $h:ident => $body:expr) => {
            match $handle {
                MorphHandle::List($h) => $body,
                MorphHandle::Unrolled($h) => $body,
                MorphHandle::Skip($h) => $body,
            }
        };
    }

    impl<'a, K, S> SetHandle<K> for MorphHandle<'a, K, S>
    where
        K: ShardKey,
        S: ConcurrentOrderedSet<K> + 'a,
        for<'b> S::Handle<'b>: OrderedHandle<K>,
    {
        fn add(&mut self, key: K) -> bool {
            morph_delegate!(self, h => h.add(key))
        }

        fn remove(&mut self, key: K) -> bool {
            morph_delegate!(self, h => h.remove(key))
        }

        fn contains(&mut self, key: K) -> bool {
            morph_delegate!(self, h => h.contains(key))
        }

        fn add_batch(&mut self, keys: &mut [K]) -> usize {
            morph_delegate!(self, h => h.add_batch(keys))
        }

        fn remove_batch(&mut self, keys: &mut [K]) -> usize {
            morph_delegate!(self, h => h.remove_batch(keys))
        }

        fn stats(&self) -> OpStats {
            morph_delegate!(self, h => h.stats())
        }

        fn take_stats(&mut self) -> OpStats {
            morph_delegate!(self, h => h.take_stats())
        }
    }

    impl<'a, K, S> OrderedHandle<K> for MorphHandle<'a, K, S>
    where
        K: ShardKey,
        S: ConcurrentOrderedSet<K> + 'a,
        for<'b> S::Handle<'b>: OrderedHandle<K>,
    {
        fn range<R: RangeBounds<K>>(&mut self, range: R) -> Snapshot<K> {
            morph_delegate!(self, h => h.range(range))
        }

        fn len_estimate(&mut self) -> usize {
            morph_delegate!(self, h => h.len_estimate())
        }
    }

    impl<K, S> ElasticBackend<K> for MorphBackend<K, S>
    where
        K: ShardKey,
        S: ConcurrentOrderedSet<K> + 'static,
        for<'a> S::Handle<'a>: OrderedHandle<K>,
    {
        type Handle<'a>
            = MorphHandle<'a, K, S>
        where
            Self: 'a;
        type Item = K;

        const NAME: &'static str = "elastic_morph";
        const MORPHS: bool = true;
        const COMBINES: bool = true;

        fn apply_delegated<'a>(handle: &mut MorphHandle<'a, K, S>, key: K, remove: bool) -> bool {
            if remove {
                handle.remove(key)
            } else {
                handle.add(key)
            }
        }

        fn new() -> Self {
            Self::new_kind(MorphKind::List)
        }

        fn new_kind(kind: MorphKind) -> Self {
            match kind {
                MorphKind::List => MorphBackend::List(SinglyHintedList::new()),
                MorphKind::Unrolled => MorphBackend::Unrolled(UnrolledArenaList::new()),
                MorphKind::Skip => MorphBackend::Skip(S::new()),
            }
        }

        fn kind(&self) -> MorphKind {
            match self {
                MorphBackend::List(_) => MorphKind::List,
                MorphBackend::Unrolled(_) => MorphKind::Unrolled,
                MorphBackend::Skip(_) => MorphKind::Skip,
            }
        }

        fn handle(&self) -> MorphHandle<'_, K, S> {
            match self {
                MorphBackend::List(b) => MorphHandle::List(b.handle()),
                MorphBackend::Unrolled(b) => MorphHandle::Unrolled(b.handle()),
                MorphBackend::Skip(b) => MorphHandle::Skip(b.handle()),
            }
        }

        fn item_key(item: &K) -> K {
            *item
        }

        fn scan<'a>(handle: &mut MorphHandle<'a, K, S>, bounds: &ScanBounds<K>) -> Vec<K> {
            handle.range(*bounds).into_vec()
        }

        fn load_sorted<'a>(handle: &mut MorphHandle<'a, K, S>, items: &mut [K]) {
            handle.add_batch(items);
        }

        fn stats(handle: &MorphHandle<'_, K, S>) -> OpStats {
            handle.stats()
        }

        fn drain_stats<'a>(handle: &mut MorphHandle<'a, K, S>) -> OpStats {
            handle.take_stats()
        }

        fn len_estimate<'a>(handle: &mut MorphHandle<'a, K, S>) -> usize {
            handle.len_estimate()
        }

        fn collect_items(&mut self) -> Vec<K> {
            match self {
                MorphBackend::List(b) => b.collect_keys(),
                MorphBackend::Unrolled(b) => b.collect_keys(),
                MorphBackend::Skip(b) => b.collect_keys(),
            }
        }

        fn check(&mut self) -> Result<(), InvariantViolation> {
            match self {
                MorphBackend::List(b) => b.check_invariants(),
                MorphBackend::Unrolled(b) => b.check_invariants(),
                MorphBackend::Skip(b) => b.check_invariants(),
            }
        }
    }
}

use backend::{ElasticBackend, MorphBackend, SetBackend};

/// One backend shard plus its routing interval and migration state.
struct ShardState<K, B> {
    /// Unique id, published in handle activity slots ([`SLOT_IDLE`] is
    /// reserved).
    id: u64,
    /// Inclusive lower bound of the owned rank interval (the upper
    /// bound is the next table entry's `lo`).
    lo: u64,
    /// Set (and never cleared) when a migration decommissions this
    /// shard; cleared only on an aborted split.
    sealed: AtomicBool,
    /// Set by the monitor when this shard is write-hot enough to run
    /// flat-combining delegation ([`LoadPolicy::combine_write_pct`]);
    /// read (`Relaxed`) by the write path to decide direct-vs-delegate.
    /// Purely a routing hint — every combine-protocol invariant holds
    /// whether or not the flag is stable.
    combining: AtomicBool,
    /// Combiner lock: `true` while one thread drains this shard's
    /// pending combine slots. Try-acquired only — a loser keeps
    /// spinning on its own slot instead of queueing.
    combiner: AtomicBool,
    /// Window op counter feeding the load monitor.
    ops: WindowCounter,
    /// Write ops within the same window (a subset of
    /// [`ops`](ShardState::ops)), feeding the write-share delegation
    /// decision.
    writes: WindowCounter,
    backend: B,
    _keys: PhantomData<K>,
}

/// Handle activity-slot value meaning "no operation in flight".
const SLOT_IDLE: u64 = 0;

/// Ordering for publishing a shard id into an activity slot. The
/// seal → drain handshake depends on this being `SeqCst`: the publish
/// must be globally ordered against the seal check that follows it, so
/// that either the drain scan sees the slot or the handle sees the seal.
/// Anything weaker reintroduces the store-buffering race where both
/// sides read stale values and a migration races an in-flight write.
#[cfg(not(interleave_mutate))]
const SLOT_PUBLISH: std::sync::atomic::Ordering = SeqCst;

/// Deliberately weakened publish for the model checker's mutation
/// self-test (`RUSTFLAGS="--cfg interleave --cfg interleave_mutate"`):
/// proves the checker catches the store-buffering race that `SeqCst`
/// exists to prevent. Never enabled in normal builds.
#[cfg(interleave_mutate)]
const SLOT_PUBLISH: std::sync::atomic::Ordering = Relaxed;

/// Ops a handle accumulates locally before flushing to the shard's
/// window counter.
const OPS_FLUSH_BLOCK: u32 = 64;

/// Registry of per-handle activity slots (the drain scan's view).
/// Orphaned slots (their handle dropped) are reused, so the registry
/// stays bounded by the peak handle count.
#[derive(Default)]
struct SlotRegistry {
    slots: Mutex<Vec<Arc<CachePadded<AtomicU64>>>>,
}

impl SlotRegistry {
    fn register(&self) -> Arc<CachePadded<AtomicU64>> {
        let mut slots = self.slots.lock().unwrap();
        if let Some(slot) = slots.iter().find(|s| Arc::strong_count(s) == 1) {
            slot.0.store(SLOT_IDLE, Release);
            return Arc::clone(slot);
        }
        let slot = Arc::new(CachePadded(AtomicU64::new(SLOT_IDLE)));
        slots.push(Arc::clone(&slot));
        slot
    }

    /// `true` while any handle has an operation in flight on shard `id`.
    fn any_active_on(&self, id: u64) -> bool {
        self.slots
            .lock()
            .unwrap()
            .iter()
            .any(|s| s.0.load(SeqCst) == id)
    }
}

/// Bits of a combine-slot word reserved for the protocol tag; the rest
/// carries the target shard id (`word = shard_id << COMBINE_TAG_BITS |
/// tag`). Shard ids count migrations and never approach 2^61.
const COMBINE_TAG_BITS: u32 = 3;
/// Mask selecting the tag bits of a combine-slot word.
const COMBINE_TAG_MASK: u64 = (1 << COMBINE_TAG_BITS) - 1;
/// Slot is empty; the owning handle may write the payload cell.
const COMBINE_IDLE: u64 = 0;
/// A pending delegated `add` of the key in the payload cell.
const COMBINE_ADD: u64 = 1;
/// A pending delegated `remove` of the key in the payload cell.
const COMBINE_REMOVE: u64 = 2;
/// A combiner won the claim CAS and owns the payload cell until it
/// publishes a done state.
const COMBINE_CLAIMED: u64 = 3;
/// The delegated op completed and returned `false`.
const COMBINE_DONE_FALSE: u64 = 4;
/// The delegated op completed and returned `true`.
const COMBINE_DONE_TRUE: u64 = 5;

/// One per-handle flat-combining mailbox slot: a cache-padded state
/// word plus the pending op's key. The word is the only synchronization
/// on the slot; the payload cell is plain memory whose ownership the
/// word's transitions hand back and forth:
///
/// * waiter → combiner: the waiter writes the cell, then publishes
///   `(shard_id << 3) | COMBINE_{ADD,REMOVE}` with [`COMBINE_PUBLISH`]
///   (`Release`); a combiner claims the op by CASing that exact word to
///   `CLAIMED` with `Acquire` success ordering, which makes the cell
///   write visible to it.
/// * combiner → waiter: the combiner applies the op and stores
///   `COMBINE_DONE_{TRUE,FALSE}` with [`COMBINER_HANDOFF`] (`Release`);
///   the waiter's `Acquire` spin load takes the result *and* every
///   backend write the combiner performed, then restores `IDLE`.
///
/// A waiter whose still-unclaimed op lands on a sealed shard retracts
/// it by CASing the pending word back to `IDLE` and re-routes; if the
/// retraction CAS fails, a combiner claimed the op first and the waiter
/// keeps spinning for its result.
struct CombineSlot<K> {
    word: CachePadded<AtomicU64>,
    cell: UnsafeCell<Option<K>>,
}

// SAFETY: the payload cell is only touched by the slot's owning handle
// while the word reads IDLE/DONE (single thread), or by the one
// combiner that won the claim CAS while the word reads CLAIMED; the
// publish/claim/handoff orderings documented on `CombineSlot` sequence
// every ownership transfer, so no two threads access the cell
// concurrently. `K: Send` suffices because keys are `Copy` values moved
// through the cell, never aliased references.
unsafe impl<K: Send> Send for CombineSlot<K> {}
// SAFETY: as above — shared references to the slot only race on the
// atomic word; cell access is exclusive by protocol state.
unsafe impl<K: Send> Sync for CombineSlot<K> {}

/// Registry of per-handle combine slots, mirroring [`SlotRegistry`]:
/// orphaned slots are reused, a combiner snapshots the current slot
/// vector under the mutex and scans without holding it.
struct CombineRegistry<K> {
    slots: Mutex<Vec<Arc<CombineSlot<K>>>>,
    /// Lock-free mirror of `slots.len()`, read by combiners to decide
    /// whether their cached snapshot is stale. Deliberately a plain
    /// `std` atomic outside the [`crate::sync`] facade: staleness is
    /// harmless — a combiner that misses a freshly registered slot
    /// simply leaves that op for its own publisher, who always
    /// volunteers as a combiner itself — so the counter carries no
    /// cross-thread protocol and must not add model-checker
    /// scheduling points.
    len: std::sync::atomic::AtomicUsize,
}

impl<K> Default for CombineRegistry<K> {
    fn default() -> Self {
        CombineRegistry {
            slots: Mutex::new(Vec::new()),
            len: std::sync::atomic::AtomicUsize::new(0),
        }
    }
}

impl<K> CombineRegistry<K> {
    fn register(&self) -> Arc<CombineSlot<K>> {
        let mut slots = self.slots.lock().unwrap();
        if let Some(slot) = slots.iter().find(|s| Arc::strong_count(s) == 1) {
            slot.word.0.store(COMBINE_IDLE, Release);
            return Arc::clone(slot);
        }
        let slot = Arc::new(CombineSlot {
            word: CachePadded(AtomicU64::new(COMBINE_IDLE)),
            cell: UnsafeCell::new(None),
        });
        slots.push(Arc::clone(&slot));
        self.len.store(slots.len(), Relaxed);
        slot
    }

    /// Clones the current slot vector; the combiner scans the clone so
    /// the registry mutex is never held across backend operations.
    /// Handles cache the clone and revalidate it against [`len`]
    /// (`CombineRegistry::len`), so the mutex is only retaken when a
    /// new slot has been registered since — cached `Arc`s keep an
    /// orphaned slot's strong count above one until the next refresh,
    /// which merely delays (never defeats) `register`'s orphan reuse.
    fn snapshot(&self) -> Vec<Arc<CombineSlot<K>>> {
        self.slots.lock().unwrap().clone()
    }
}

/// One immutable, RCU-published generation of the routing table:
/// shards sorted by `lo`, intervals contiguous from rank 0. Never
/// mutated after publication; writers build a fresh table and retire
/// the old one through the epoch domain.
struct RouterTable<K, B> {
    shards: Vec<Arc<ShardState<K, B>>>,
    /// Live-table counter of the owning structure, decremented on drop
    /// once the shard `Arc`s are released (`Release`, paired with the
    /// `Acquire` load in `ElasticCore::tables_alive`), so quiescent code
    /// that reads 1 owns every shard alone. Deliberately a plain `std`
    /// atomic outside the [`crate::sync`] facade: it gates only the
    /// quiescent paths (leak tests, `&mut self` accessors), no
    /// concurrent protocol, and must not add model-checker scheduling
    /// points.
    alive: Arc<std::sync::atomic::AtomicUsize>,
}

impl<K, B> RouterTable<K, B> {
    fn new(
        shards: Vec<Arc<ShardState<K, B>>>,
        alive: &Arc<std::sync::atomic::AtomicUsize>,
    ) -> Self {
        alive.fetch_add(1, Relaxed);
        RouterTable {
            shards,
            alive: Arc::clone(alive),
        }
    }
}

impl<K, B> Drop for RouterTable<K, B> {
    fn drop(&mut self) {
        // Release the shard `Arc`s *before* the decrement: a quiescent
        // owner that reads `alive == 1` (`Acquire`) then finds every
        // shard of the published table unshared, even when another
        // thread's epoch flush is the one dropping this table.
        drop(std::mem::take(&mut self.shards));
        self.alive.fetch_sub(1, Release);
    }
}

/// Reconstructs and drops the `Arc` of a retired router table (the
/// epoch-deferred half of a table publish).
///
/// # Safety
///
/// `ptr` must be the address from `Arc::into_raw` of a
/// `RouterTable<K, B>` whose publish-time reference has not been
/// reclaimed through any other path.
unsafe fn drop_retired_table<K: ShardKey, B: ElasticBackend<K>>(ptr: usize, _unused: usize) {
    // SAFETY: forwarded contract — `ptr` is the leaked publish-time Arc.
    unsafe { drop(Arc::from_raw(ptr as *const RouterTable<K, B>)) };
}

/// The shared elastic state: the published table pointer, the writer
/// lock, and the monitor plumbing.
struct ElasticCore<K, B> {
    /// The current [`RouterTable`], leaked from an `Arc`. Readers take
    /// one `Acquire` load; writers CAS-publish a replacement under
    /// [`writer`](ElasticCore::writer) and retire the displaced table
    /// through the epoch domain.
    table: AtomicPtr<RouterTable<K, B>>,
    /// Serializes all migrations (split / merge / morph). Never taken on
    /// the operation hot path.
    writer: Mutex<()>,
    /// Bumped on every publish. Diagnostic only — the read path
    /// revalidates by table address, never by version.
    version: AtomicU64,
    next_id: AtomicU64,
    policy: LoadPolicy,
    slots: SlotRegistry,
    /// Per-handle flat-combining mailbox slots (delegation-capable sets
    /// only; empty for maps).
    combine: CombineRegistry<K>,
    /// When set (tests, diagnostics), every current and future shard's
    /// delegation flag is pinned on and the monitor's delegation sweep
    /// is suspended.
    combine_pin: AtomicBool,
    splits: AtomicU64,
    merges: AtomicU64,
    morphs: AtomicU64,
    /// Times the monitor engaged delegation on a shard.
    delegations: AtomicU64,
    /// Delegated ops applied by combiners on behalf of other handles'
    /// slots (diagnostic; window counters are bumped by the waiters).
    combined: AtomicU64,
    /// Router tables of this structure currently allocated (published +
    /// retired-but-uncollected). See `RouterTable::alive`.
    tables_alive: Arc<std::sync::atomic::AtomicUsize>,
}

impl<K, B> Drop for ElasticCore<K, B> {
    fn drop(&mut self) {
        let p = self.table.load(Acquire);
        // SAFETY: `p` is the published-table `Arc` leaked by `new` or
        // the latest `publish`; `&mut self` means no reader can load it
        // anymore, so ownership reverts to us exactly once.
        unsafe { drop(Arc::from_raw(p)) };
    }
}

impl<K: ShardKey, B: ElasticBackend<K>> ElasticCore<K, B> {
    fn new(policy: LoadPolicy) -> Self {
        policy.validate();
        let n = policy.initial_shards;
        let shards: Vec<Arc<ShardState<K, B>>> = (0..n)
            .map(|i| {
                Arc::new(ShardState {
                    id: i as u64 + 1,
                    // Smallest rank routed to shard i of an even n-way
                    // partition: ceil(i·2^64 / n).
                    lo: (((i as u128) << 64).div_ceil(n as u128)) as u64,
                    sealed: AtomicBool::new(false),
                    combining: AtomicBool::new(false),
                    combiner: AtomicBool::new(false),
                    ops: WindowCounter::default(),
                    writes: WindowCounter::default(),
                    backend: B::new(),
                    _keys: PhantomData,
                })
            })
            .collect();
        let tables_alive = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let table = Arc::new(RouterTable::new(shards, &tables_alive));
        ElasticCore {
            table: AtomicPtr::new(Arc::into_raw(table) as *mut RouterTable<K, B>),
            writer: Mutex::new(()),
            version: AtomicU64::new(1),
            next_id: AtomicU64::new(n as u64 + 1),
            policy,
            slots: SlotRegistry::default(),
            combine: CombineRegistry::default(),
            combine_pin: AtomicBool::new(false),
            splits: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            morphs: AtomicU64::new(0),
            delegations: AtomicU64::new(0),
            combined: AtomicU64::new(0),
            tables_alive,
        }
    }

    fn handle(&self) -> CoreHandle<'_, K, B> {
        let table = self.snapshot();
        let entries: Vec<Entry<K, B>> = table
            .shards
            .iter()
            .map(|s| Entry::new(Arc::clone(s)))
            .collect();
        let bounds = entries.iter().map(|e| e.shard.lo).collect();
        CoreHandle {
            core: self,
            slot: self.slots.register(),
            cslot: self.combine.register(),
            peers: Vec::new(),
            drain_scratch: Vec::new(),
            table,
            entries,
            bounds,
            last_idx: 0,
            ops_since_check: 0,
            carry: OpStats::ZERO,
        }
    }

    /// Clones the published table into an owning `Arc`. The epoch pin
    /// spans both the pointer load and the strong-count bump: a table
    /// is only freed after it is unlinked *and* past the grace period,
    /// and the pin holds the grace period open.
    fn snapshot(&self) -> Arc<RouterTable<K, B>> {
        let guard = crossbeam_epoch::pin();
        let p = self.table.load(Acquire);
        // SAFETY: `p` was published by `new`/`publish` and can only be
        // freed by an epoch-deferred drop; the pin above keeps that
        // deferral pending, so the bump runs on a live allocation and
        // makes us an owner that outlives the unpin.
        let table = unsafe {
            Arc::increment_strong_count(p);
            Arc::from_raw(p as *const RouterTable<K, B>)
        };
        drop(guard);
        table
    }

    /// Borrows the published table under the writer lock. Sound because
    /// only writers retire tables and they serialize on that same lock —
    /// but the borrow must end before the caller itself publishes.
    fn published<'a>(&'a self, _writer: &'a MutexGuard<'a, ()>) -> &'a RouterTable<K, B> {
        let p = self.table.load(Acquire);
        // SAFETY: holding the writer lock excludes every code path that
        // could retire (and thus free) the published table.
        unsafe { &*p }
    }

    /// CAS-publishes `shards` as a fresh table generation and retires
    /// the displaced one through the epoch domain. Callers hold the
    /// writer lock, so the CAS cannot lose; `TABLE_PUBLISH` (`Release`)
    /// makes everything done while building the table — bulk-loading
    /// freshly built backends included — visible to any reader whose
    /// single `Acquire` load observes the new pointer.
    fn publish(&self, _writer: &MutexGuard<'_, ()>, shards: Vec<Arc<ShardState<K, B>>>) {
        let table = Arc::new(RouterTable::new(shards, &self.tables_alive));
        let next = Arc::into_raw(table) as *mut RouterTable<K, B>;
        let prev = self.table.load(Acquire);
        let won = self
            .table
            .compare_exchange(prev, next, TABLE_PUBLISH, Relaxed)
            .is_ok();
        debug_assert!(won, "publishers serialize on the writer lock");
        let _ = won;
        self.version.fetch_add(1, Release);
        let guard = crossbeam_epoch::pin();
        // SAFETY: `prev` is the previous publish's leaked Arc, just
        // unlinked above; readers that still hold the pointer are
        // pinned, so the deferred drop runs only after they unpin.
        unsafe { guard.defer_raw(prev as usize, 0, drop_retired_table::<K, B>) };
        // Nudge the collector so retired tables (and the backends they
        // keep alive) free promptly even on migration-only workloads.
        guard.flush();
    }

    /// Index of the interval owning `rank` in a router table.
    fn route_in(table: &[Arc<ShardState<K, B>>], rank: u64) -> usize {
        debug_assert!(!table.is_empty() && table[0].lo == 0);
        table.partition_point(|s| s.lo <= rank) - 1
    }

    /// Spin-waits until no operation is in flight on shard `id`. Called
    /// with the writer lock held and the shard sealed, so no new
    /// operation can pass the seal check and publish `id` afterwards.
    fn drain(&self, id: u64) {
        while self.slots.any_active_on(id) {
            crate::sync::thread_yield();
        }
    }

    /// Builds a fresh shard preloaded with `items` (sorted ascending),
    /// running the arm [`LoadPolicy::morph_kind`] picks for that
    /// population — the seal-time morph decision. Single-backend sets
    /// ignore the arm.
    fn new_shard(&self, lo: u64, items: &mut [B::Item]) -> Arc<ShardState<K, B>> {
        self.new_shard_kind(lo, items, self.policy.morph_kind(items.len()))
    }

    /// Builds a fresh shard in the given arm, preloaded with `items`.
    fn new_shard_kind(
        &self,
        lo: u64,
        items: &mut [B::Item],
        kind: MorphKind,
    ) -> Arc<ShardState<K, B>> {
        let backend = B::new_kind(kind);
        {
            let mut h = backend.handle();
            B::load_sorted(&mut h, items);
        }
        Arc::new(ShardState {
            id: self.next_id.fetch_add(1, Relaxed),
            lo,
            sealed: AtomicBool::new(false),
            // Replacement shards inherit a pinned delegation flag so a
            // forced split cannot silently disengage delegation under a
            // test; unpinned shards start direct and let the monitor's
            // write-share sweep re-engage.
            combining: AtomicBool::new(self.combine_pin.load(Relaxed)),
            combiner: AtomicBool::new(false),
            ops: WindowCounter::default(),
            writes: WindowCounter::default(),
            backend,
            _keys: PhantomData,
        })
    }

    /// Splits shard `idx` at its median key and publishes the new
    /// table. `false` if the shard is too small, its keys cannot be
    /// partitioned (all on one rank), or the table is full; an aborted
    /// split unseals the shard so stalled operations proceed.
    fn split_locked(&self, writer: &MutexGuard<'_, ()>, idx: usize) -> bool {
        let (old, hi) = {
            let table = self.published(writer);
            if table.shards.len() >= self.policy.max_shards {
                return false;
            }
            (
                Arc::clone(&table.shards[idx]),
                table.shards.get(idx + 1).map(|s| s.lo),
            )
        };
        old.sealed.store(true, SeqCst);
        self.drain(old.id);
        let mut items = {
            let mut h = old.backend.handle();
            B::scan(&mut h, &ScanBounds::from_range(&(..)))
        };
        let mid = if items.len() >= self.policy.min_split_keys.max(2) {
            let m = B::item_key(&items[items.len() / 2]).rank64();
            (m > old.lo && hi.is_none_or(|h| m < h)).then_some(m)
        } else {
            None
        };
        let Some(mid) = mid else {
            // Abort: reopen the shard; nothing changed.
            old.sealed.store(false, SeqCst);
            return false;
        };
        let cut = items.partition_point(|it| B::item_key(it).rank64() < mid);
        let (lo_items, hi_items) = items.split_at_mut(cut);
        let left = self.new_shard(old.lo, lo_items);
        let right = self.new_shard(mid, hi_items);
        let mut shards = self.published(writer).shards.clone();
        shards.splice(idx..=idx, [left, right]);
        self.publish(writer, shards);
        self.splits.fetch_add(1, Relaxed);
        true
    }

    /// Merges shards `idx` and `idx + 1` and publishes the new table.
    fn merge_locked(&self, writer: &MutexGuard<'_, ()>, idx: usize) -> bool {
        let (a, b) = {
            let table = self.published(writer);
            if idx + 1 >= table.shards.len() {
                return false;
            }
            (
                Arc::clone(&table.shards[idx]),
                Arc::clone(&table.shards[idx + 1]),
            )
        };
        a.sealed.store(true, SeqCst);
        b.sealed.store(true, SeqCst);
        self.drain(a.id);
        self.drain(b.id);
        let everything = ScanBounds::from_range(&(..));
        let mut items = {
            let mut h = a.backend.handle();
            B::scan(&mut h, &everything)
        };
        items.extend({
            let mut h = b.backend.handle();
            B::scan(&mut h, &everything)
        });
        let merged = self.new_shard(a.lo, &mut items);
        let mut shards = self.published(writer).shards.clone();
        shards.splice(idx..=idx + 1, [merged]);
        self.publish(writer, shards);
        self.merges.fetch_add(1, Relaxed);
        true
    }

    /// Rebuilds shard `idx` in backend arm `kind` (seal → drain → copy
    /// → publish). `false` if the shard already runs that arm.
    fn morph_locked(&self, writer: &MutexGuard<'_, ()>, idx: usize, kind: MorphKind) -> bool {
        let old = Arc::clone(&self.published(writer).shards[idx]);
        if old.backend.kind() == kind {
            return false;
        }
        old.sealed.store(true, SeqCst);
        self.drain(old.id);
        let mut items = {
            let mut h = old.backend.handle();
            B::scan(&mut h, &ScanBounds::from_range(&(..)))
        };
        let fresh = self.new_shard_kind(old.lo, &mut items, kind);
        let mut shards = self.published(writer).shards.clone();
        shards[idx] = fresh;
        self.publish(writer, shards);
        self.morphs.fetch_add(1, Relaxed);
        true
    }

    /// Closes the current load window and performs at most one
    /// migration. Non-blocking: backs off if a migration (or another
    /// monitor check) already holds the writer lock.
    fn try_rebalance(&self) {
        let Ok(writer) = self.writer.try_lock() else {
            return;
        };
        let (window, writes, shard_len) = {
            let table = self.published(&writer);
            let window: Vec<u64> = table.shards.iter().map(|s| s.ops.read()).collect();
            let writes: Vec<u64> = table.shards.iter().map(|s| s.writes.read()).collect();
            (window, writes, table.shards.len())
        };
        let total: u64 = window.iter().sum();
        if total < self.policy.window_min_ops {
            return;
        }
        for s in self.published(&writer).shards.iter() {
            s.ops.reset();
            s.writes.reset();
        }
        // Delegation sweep: flip each shard's flat-combining flag from
        // its window write share, with the `combine_settled` hysteresis.
        // Runs before the split decision because the two interact — a
        // write-hot shard is *delegated instead of split* (splitting
        // moves the contended hot set to a child and leaves it just as
        // contended; the combiner turns it into the amortized batch
        // path). Suspended while a test has the flags pinned.
        if B::COMBINES && self.policy.combine_write_pct > 0 && !self.combine_pin.load(Relaxed) {
            let table_shards: Vec<_> = self
                .published(&writer)
                .shards
                .iter()
                .map(Arc::clone)
                .collect();
            for (i, shard) in table_shards.iter().enumerate() {
                let cur = shard.combining.load(Relaxed);
                let want = self.policy.combine_settled(writes[i], window[i], cur);
                if want != cur {
                    shard.combining.store(want, Relaxed);
                    if want {
                        self.delegations.fetch_add(1, Relaxed);
                    }
                }
            }
        }
        let (hot, &hot_ops) = window
            .iter()
            .enumerate()
            .max_by_key(|&(_, ops)| *ops)
            .expect("router table is never empty");
        let hot_delegated = B::COMBINES
            && self.policy.combine_write_pct > 0
            && self
                .published(&writer)
                .shards
                .get(hot)
                .is_some_and(|s| s.combining.load(Relaxed));
        if !hot_delegated
            && hot_ops * 100 > total * self.policy.split_share_pct as u64
            && shard_len < self.policy.max_shards
            && self.split_locked(&writer, hot)
        {
            return;
        }
        let pressured = shard_len * 4 >= self.policy.max_shards * 3;
        if self.policy.merge_share_pct > 0
            && pressured
            && shard_len > self.policy.initial_shards.max(1)
        {
            let (cold, pair_ops) = window
                .windows(2)
                .map(|w| w[0] + w[1])
                .enumerate()
                .min_by_key(|&(_, ops)| ops)
                .expect("≥ 2 shards here");
            if pair_ops * 100 < total * self.policy.merge_share_pct as u64
                && self.merge_locked(&writer, cold)
            {
                return;
            }
        }
        // Morph pass: rebuild every shard whose population has drifted
        // out of its arm's band. Gated on `B::MORPHS`, so single-backend
        // sets skip it entirely. Sweeping all shards (not just the hot
        // one) matters at startup: the initial shards seal empty — List
        // arm — and then swallow the whole prefill, so until this pass
        // runs, bulk traffic grinds through linked lists. Morphs replace
        // a shard in place (same count, same bounds), so positional
        // indices stay valid across commits, and a quiescent sweep where
        // every arm already matches costs only a length probe per shard.
        // (No split or merge committed above, so the table is unchanged.)
        if B::MORPHS {
            let shards: Vec<_> = self
                .published(&writer)
                .shards
                .iter()
                .map(Arc::clone)
                .collect();
            for (idx, shard) in shards.iter().enumerate() {
                let len = {
                    let mut h = shard.backend.handle();
                    B::len_estimate(&mut h)
                };
                let cur = shard.backend.kind();
                let want = self.policy.morph_kind_settled(len, cur);
                if want != cur {
                    self.morph_locked(&writer, idx, want);
                }
            }
        }
    }

    /// Runs the migration `op` on the shard owning `key`'s rank, under
    /// the writer lock (deterministic test and operational support).
    /// `true` iff it committed.
    fn migrate_at(
        &self,
        key: K,
        op: impl FnOnce(&Self, &MutexGuard<'_, ()>, usize) -> bool,
    ) -> bool {
        let writer = self.writer.lock().unwrap();
        let idx = Self::route_in(&self.published(&writer).shards, key.rank64());
        op(self, &writer, idx)
    }

    /// Runs `f` over the published table from a plain `&self` context
    /// (diagnostics): the epoch pin keeps a concurrently retired table
    /// alive for the duration.
    fn with_published<R>(&self, f: impl FnOnce(&RouterTable<K, B>) -> R) -> R {
        let guard = crossbeam_epoch::pin();
        let p = self.table.load(Acquire);
        // SAFETY: `p` was published by `new`/`publish`; tables are only
        // freed via the epoch domain, which the pin above holds open.
        let out = f(unsafe { &*p });
        drop(guard);
        out
    }

    /// Router tables of this structure currently allocated (1 when all
    /// retired generations have been collected).
    fn tables_alive(&self) -> usize {
        self.tables_alive.load(Acquire)
    }

    /// Drives the epoch collector until every retired table generation
    /// has been freed, leaving the published table the sole owner of
    /// its shards. Bounded: concurrent pins are short-lived, so the
    /// grace periods pass in a few rounds.
    fn await_quiescence(&self) {
        for _ in 0..100_000 {
            if self.tables_alive() == 1 {
                return;
            }
            crossbeam_epoch::pin().flush();
            crate::sync::thread_yield();
        }
        panic!("retired router tables failed to collect on a quiescent structure");
    }

    /// Exclusive access to every shard of the published table, in key
    /// order: the one path by which quiescent code reaches the shards.
    /// Requires `&mut self` (no handles, no concurrent migrations).
    fn shards_mut(&mut self) -> Vec<&mut ShardState<K, B>> {
        self.await_quiescence();
        let p = self.table.load(Acquire);
        // SAFETY: `&mut self` excludes readers and writers, and
        // `await_quiescence` drained every retired generation, so the
        // published `Arc` (leaked at publish, strong count 1) is solely
        // ours for the `&mut self` borrow.
        let shards = unsafe { &mut (*p).shards };
        shards
            .iter_mut()
            .map(|s| Arc::get_mut(s).expect("quiescent elastic structure still shares a shard"))
            .collect()
    }

    /// Quiescent snapshot of all items across shards, ascending.
    fn collect_items(&mut self) -> Vec<B::Item> {
        self.shards_mut()
            .into_iter()
            .flat_map(|shard| shard.backend.collect_items())
            .collect()
    }

    /// Quiescent structural check: router table well-formedness, every
    /// backend's own invariants, and interval containment per key.
    fn check(&mut self) -> Result<(), InvariantViolation> {
        let table = self.shards_mut();
        if table.is_empty() || table[0].lo != 0 {
            return Err(InvariantViolation::RouterCorrupt { interval: 0 });
        }
        let bounds: Vec<(u64, Option<u64>)> = (0..table.len())
            .map(|i| (table[i].lo, table.get(i + 1).map(|s| s.lo)))
            .collect();
        for (i, shard) in table.into_iter().enumerate() {
            let (lo, hi) = bounds[i];
            if hi.is_some_and(|hi| hi <= lo) || shard.sealed.load(Relaxed) {
                return Err(InvariantViolation::RouterCorrupt { interval: i });
            }
            shard.backend.check()?;
            for (position, item) in shard.backend.collect_items().iter().enumerate() {
                let rank = B::item_key(item).rank64();
                if rank < lo || hi.is_some_and(|hi| rank >= hi) {
                    return Err(InvariantViolation::ShardMisrouted { shard: i, position });
                }
            }
        }
        Ok(())
    }
}

/// A router-snapshot entry of a per-thread handle.
///
/// Field order is load-bearing: `cached` borrows (with its lifetime
/// erased) from `shard.backend`, and Rust drops fields in declaration
/// order — the backend handle always dies before the `Arc` that keeps
/// its backend alive.
struct Entry<K: ShardKey, B: ElasticBackend<K>> {
    cached: Option<B::Handle<'static>>,
    shard: Arc<ShardState<K, B>>,
    local_ops: u32,
    /// Write ops among `local_ops`, flushed to the shard's write
    /// window on the same schedule.
    local_writes: u32,
}

impl<K: ShardKey, B: ElasticBackend<K>> Entry<K, B> {
    fn new(shard: Arc<ShardState<K, B>>) -> Self {
        Entry {
            cached: None,
            shard,
            local_ops: 0,
            local_writes: 0,
        }
    }

    /// The cached backend handle, created on first touch.
    fn handle(&mut self) -> &mut B::Handle<'static> {
        if self.cached.is_none() {
            let h = self.shard.backend.handle();
            // SAFETY: `h` borrows `self.shard.backend`, which lives at a
            // stable address behind the `Arc` held by this entry; the
            // field order above guarantees the handle is dropped before
            // the `Arc`, so the erased lifetime never outlives the
            // borrowed backend.
            self.cached = Some(unsafe { erase_handle_lifetime::<K, B>(h) });
        }
        self.cached.as_mut().unwrap()
    }
}

/// Erases a backend handle's borrow lifetime.
///
/// # Safety
///
/// The caller must guarantee the backend the handle borrows stays alive
/// — and at the same address — until the handle is dropped.
unsafe fn erase_handle_lifetime<'a, K: ShardKey, B: ElasticBackend<K>>(
    handle: B::Handle<'a>,
) -> B::Handle<'static> {
    let handle = ManuallyDrop::new(handle);
    // SAFETY: `B::Handle<'a>` and `B::Handle<'static>` are the same type
    // constructor at different lifetimes — identical layout — and the
    // source is not dropped (ManuallyDrop) nor used again.
    unsafe { std::mem::transmute_copy(&handle) }
}

/// The per-thread elastic handle machinery shared by the set and map
/// wrappers: router snapshot, activity slot, op protocol, stitched
/// scans, and the amortized monitor hook.
struct CoreHandle<'s, K: ShardKey, B: ElasticBackend<K>> {
    core: &'s ElasticCore<K, B>,
    slot: Arc<CachePadded<AtomicU64>>,
    /// This handle's flat-combining mailbox slot (see [`CombineSlot`]).
    /// Idle except while a write op on a delegated shard is in flight.
    cslot: Arc<CombineSlot<K>>,
    /// Cached clone of the combine-slot registry, scanned on every
    /// drain pass and refreshed only when the registry's slot count
    /// changes — the drain hot path never takes the registry mutex or
    /// allocates. Staleness is safe: an unseen publisher volunteers as
    /// its own combiner.
    peers: Vec<Arc<CombineSlot<K>>>,
    /// Reusable drain scratch: `(peers index, key, remove)` triples
    /// claimed by the current pass. Cleared, never shrunk.
    drain_scratch: Vec<(usize, K, bool)>,
    /// Owning snapshot of the router table this handle routes through.
    /// Revalidated by comparing its address against the published
    /// pointer: the `Arc` pins the allocation, so an address match
    /// proves identity (no ABA — a recycled address would require this
    /// very snapshot to have been dropped first).
    table: Arc<RouterTable<K, B>>,
    entries: Vec<Entry<K, B>>,
    /// Dense copy of the entries' interval lower bounds (`bounds[i] ==
    /// entries[i].shard.lo`), rebuilt on refresh. Routing reads only
    /// this vector: an [`Entry`] inlines its cached backend handle, so
    /// `entries` strides hundreds of bytes per element and an interval
    /// probe through it touches scattered cache lines, while the whole
    /// bounds vector fits in one or two.
    bounds: Vec<u64>,
    /// Route cache: the index the previous operation resolved to. Hot
    /// traffic streaks on one shard, so checking this interval first
    /// skips the binary search on the common path.
    last_idx: usize,
    ops_since_check: u32,
    /// Counters inherited from backend handles evicted by refreshes.
    carry: OpStats,
}

impl<K: ShardKey, B: ElasticBackend<K>> Drop for CoreHandle<'_, K, B> {
    fn drop(&mut self) {
        // Normally already idle; clears the slot if an operation
        // panicked between publish and clear so migrations never wait
        // on a dead handle.
        self.slot.0.store(SLOT_IDLE, Release);
    }
}

impl<'s, K: ShardKey, B: ElasticBackend<K>> CoreHandle<'s, K, B> {
    #[inline]
    fn maybe_refresh(&mut self) {
        // The entire router read path: one `Acquire` load of the
        // published pointer plus an address compare — no mutex, no
        // version handshake.
        if !std::ptr::eq(self.core.table.load(Acquire), Arc::as_ptr(&self.table)) {
            self.refresh();
        }
    }

    /// Re-snapshots the router. Entries for shards that survived keep
    /// their cached backend handle (and its cursor/hints); entries for
    /// decommissioned shards drain their counters into `carry` and drop
    /// — the drop releases the backend handle first, then the `Arc`
    /// that may be the last thing keeping the retired backend alive.
    fn refresh(&mut self) {
        let table = self.core.snapshot();
        let mut old: Vec<Entry<K, B>> = std::mem::take(&mut self.entries);
        self.entries = table
            .shards
            .iter()
            .map(
                |shard| match old.iter().position(|e| e.shard.id == shard.id) {
                    Some(i) => old.swap_remove(i),
                    None => Entry::new(Arc::clone(shard)),
                },
            )
            .collect();
        self.bounds.clear();
        self.bounds.extend(self.entries.iter().map(|e| e.shard.lo));
        self.table = table;
        self.last_idx = 0;
        for mut evicted in old {
            if let Some(h) = &mut evicted.cached {
                self.carry += B::drain_stats(h);
            }
        }
    }

    /// Index of the snapshot entry owning `rank`, checking the route
    /// cache before falling back to binary search.
    #[inline]
    fn route(&mut self, rank: u64) -> usize {
        debug_assert!(!self.bounds.is_empty() && self.bounds[0] == 0);
        debug_assert_eq!(self.bounds.len(), self.entries.len());
        let i = self.last_idx;
        if i < self.bounds.len()
            && self.bounds[i] <= rank
            && self.bounds.get(i + 1).is_none_or(|&lo| rank < lo)
        {
            return i;
        }
        let i = self.bounds.partition_point(|&lo| lo <= rank) - 1;
        self.last_idx = i;
        i
    }

    /// Waits out a migration of `shard`: returns when the published
    /// table moved past this handle's snapshot (commit) or the shard
    /// was unsealed (aborted split). `snapshot` is only compared by
    /// address, never dereferenced.
    fn stall(
        core: &ElasticCore<K, B>,
        snapshot: *const RouterTable<K, B>,
        shard: &ShardState<K, B>,
    ) {
        loop {
            if !std::ptr::eq(core.table.load(Acquire), snapshot) || !shard.sealed.load(SeqCst) {
                return;
            }
            crate::sync::thread_yield();
        }
    }

    /// Runs `op` against the backend handle of the shard owning `key`,
    /// with the full migration protocol: revalidate snapshot, publish
    /// the activity slot, re-check the seal, retry on migration races.
    fn with_shard<R>(&mut self, key: K, mut op: impl FnMut(&mut B::Handle<'static>) -> R) -> R {
        let rank = key.rank64();
        loop {
            self.maybe_refresh();
            let idx = self.route(rank);
            self.slot.0.store(self.entries[idx].shard.id, SLOT_PUBLISH);
            if self.entries[idx].shard.sealed.load(SeqCst) {
                self.slot.0.store(SLOT_IDLE, Release);
                Self::stall(
                    self.core,
                    Arc::as_ptr(&self.table),
                    &self.entries[idx].shard,
                );
                continue;
            }
            let out = op(self.entries[idx].handle());
            self.slot.0.store(SLOT_IDLE, Release);
            self.note_writes(idx, 1);
            self.note_ops(idx, 1);
            return out;
        }
    }

    /// Single-key write op (`add` when `remove` is false, `remove`
    /// otherwise) for delegation-capable backends: the
    /// [`with_shard`](CoreHandle::with_shard) protocol, plus a
    /// flat-combining branch — when the routed shard is flagged
    /// write-hot the op is enqueued into this handle's combine slot for
    /// a combiner to apply through the shard's batch path instead of
    /// CAS-racing the other writers directly.
    fn update(&mut self, key: K, remove: bool) -> bool {
        let rank = key.rank64();
        loop {
            self.maybe_refresh();
            let idx = self.route(rank);
            if B::COMBINES && self.entries[idx].shard.combining.load(Relaxed) {
                match self.delegate(idx, key, remove) {
                    Some(out) => return out,
                    // The shard sealed while the op was still pending
                    // and the retraction won: wait out the migration,
                    // then re-route.
                    None => {
                        Self::stall(
                            self.core,
                            Arc::as_ptr(&self.table),
                            &self.entries[idx].shard,
                        );
                        continue;
                    }
                }
            }
            self.slot.0.store(self.entries[idx].shard.id, SLOT_PUBLISH);
            if self.entries[idx].shard.sealed.load(SeqCst) {
                self.slot.0.store(SLOT_IDLE, Release);
                Self::stall(
                    self.core,
                    Arc::as_ptr(&self.table),
                    &self.entries[idx].shard,
                );
                continue;
            }
            let out = B::apply_delegated(self.entries[idx].handle(), key, remove);
            self.slot.0.store(SLOT_IDLE, Release);
            self.note_writes(idx, 1);
            self.note_ops(idx, 1);
            return out;
        }
    }

    /// Enqueues one write op into this handle's combine slot and waits
    /// for a combiner to publish its result — volunteering as the
    /// combiner itself whenever the shard's combiner lock is free (so
    /// delegation never deadlocks: some pending waiter always
    /// eventually drains). Returns the op's result, or `None` if the
    /// shard sealed before any combiner claimed the op — the op was
    /// retracted without taking effect and must re-route.
    fn delegate(&mut self, idx: usize, key: K, remove: bool) -> Option<bool> {
        let shard_id = self.entries[idx].shard.id;
        let tag = if remove { COMBINE_REMOVE } else { COMBINE_ADD };
        let pending = (shard_id << COMBINE_TAG_BITS) | tag;
        // SAFETY: the slot word reads IDLE here — this handle is the
        // only publisher, and every exit path below restores IDLE — so
        // this handle owns the payload cell.
        unsafe { *self.cslot.cell.get() = Some(key) };
        self.cslot.word.0.store(pending, COMBINE_PUBLISH);
        loop {
            let w = self.cslot.word.0.load(Acquire);
            match w {
                COMBINE_DONE_TRUE | COMBINE_DONE_FALSE => {
                    // The Acquire load above pairs with the combiner's
                    // COMBINER_HANDOFF release: the backend mutation is
                    // visible before we return. Exactly one op completed
                    // on this slot — count it here, never in the
                    // combiner, so window shares stay truthful.
                    self.cslot.word.0.store(COMBINE_IDLE, Release);
                    self.note_writes(idx, 1);
                    self.note_ops(idx, 1);
                    return Some(w == COMBINE_DONE_TRUE);
                }
                // A combiner owns the op; its result is imminent.
                COMBINE_CLAIMED => crate::sync::thread_yield(),
                _ => {
                    debug_assert_eq!(w, pending);
                    if self.entries[idx].shard.sealed.load(SeqCst) {
                        // Retract the unclaimed op so the migration's
                        // copy cannot strand it on the decommissioned
                        // backend. A failed CAS means a combiner claimed
                        // it first and will finish before the drain lets
                        // the copy start — keep waiting for the result.
                        if self
                            .cslot
                            .word
                            .0
                            .compare_exchange(pending, COMBINE_IDLE, Relaxed, Relaxed)
                            .is_ok()
                        {
                            return None;
                        }
                    } else if !self.combine_drain(idx) {
                        // Another combiner holds the lock (or the shard
                        // sealed under it); donate the timeslice so the
                        // holder can finish and publish our result.
                        crate::sync::thread_yield();
                    }
                }
            }
        }
    }

    /// Tries to become the combiner for the shard at `idx`: claims the
    /// shard's combiner lock, joins the seal protocol through the
    /// activity slot exactly like a direct writer, then claims every
    /// pending combine slot naming this shard and applies the claimed
    /// ops in one sorted pass over the cached backend handle. Returns
    /// `true` iff a drain pass ran — `false` means another thread holds
    /// the combiner lock or the shard sealed first, and the caller
    /// should yield rather than spin on the lock.
    fn combine_drain(&mut self, idx: usize) -> bool {
        let shard = Arc::clone(&self.entries[idx].shard);
        if shard
            .combiner
            .compare_exchange(false, true, Acquire, Relaxed)
            .is_err()
        {
            return false;
        }
        // The combiner is a writer: publish the activity slot and
        // re-check the seal so a migration's drain waits for the whole
        // batch below, and no batch can start after the seal.
        self.slot.0.store(shard.id, SLOT_PUBLISH);
        if shard.sealed.load(SeqCst) {
            self.slot.0.store(SLOT_IDLE, Release);
            shard.combiner.store(false, Release);
            return false;
        }
        if self.peers.len() != self.core.combine.len.load(Relaxed) {
            self.peers = self.core.combine.snapshot();
        }
        let mut claimed = std::mem::take(&mut self.drain_scratch);
        for (i, s) in self.peers.iter().enumerate() {
            let w = s.word.0.load(Relaxed);
            let tag = w & COMBINE_TAG_MASK;
            if (w >> COMBINE_TAG_BITS) != shard.id || (tag != COMBINE_ADD && tag != COMBINE_REMOVE)
            {
                continue;
            }
            // Claim-or-skip: a lost CAS means the waiter retracted (or
            // another combiner of an older generation claimed) first.
            // Acquire success pairs with the waiter's COMBINE_PUBLISH
            // release, making the payload cell's key visible below.
            if s.word
                .0
                .compare_exchange(w, COMBINE_CLAIMED, Acquire, Relaxed)
                .is_err()
            {
                continue;
            }
            // SAFETY: winning the claim CAS transfers payload-cell
            // ownership from the waiter to this combiner until the
            // done publish; no other thread touches the cell while the
            // word reads CLAIMED.
            let key = unsafe { *s.cell.get() }.expect("claimed combine slot holds a key");
            claimed.push((i, key, tag == COMBINE_REMOVE));
        }
        // Ascending key order: the whole batch applies in one amortized
        // traversal direction, mirroring the `add_batch` sorted-run
        // discipline that makes delegation cheaper than CAS-racing.
        claimed.sort_unstable_by_key(|&(_, key, _)| key);
        let n = claimed.len() as u64;
        let h = self.entries[idx].handle();
        for &(i, key, remove) in &claimed {
            let out = B::apply_delegated(h, key, remove);
            self.peers[i].word.0.store(
                if out {
                    COMBINE_DONE_TRUE
                } else {
                    COMBINE_DONE_FALSE
                },
                COMBINER_HANDOFF,
            );
        }
        if n > 0 {
            self.core.combined.fetch_add(n, Relaxed);
        }
        claimed.clear();
        self.drain_scratch = claimed;
        self.slot.0.store(SLOT_IDLE, Release);
        shard.combiner.store(false, Release);
        true
    }

    /// Read-only analogue of [`with_shard`](CoreHandle::with_shard):
    /// routes and runs `op` without joining the seal protocol — no
    /// activity-slot publish, no seal check, no stall. The entire read
    /// path is `maybe_refresh`'s single `Acquire` load plus the route.
    ///
    /// Safe and linearizable for single-key reads:
    ///
    /// * **Memory**: the routed [`Entry`] owns an `Arc<ShardState>`, so
    ///   the backend outlives the read even if the table retires and the
    ///   shard is decommissioned mid-op — no epoch dependence.
    /// * **Consistency**: a sealed shard's backend is *frozen* — the
    ///   migrator drains all writers before copying, and writers routed
    ///   here stall until the new table publishes. The old backend is
    ///   therefore exactly the authoritative contents at every instant
    ///   from the drain until the publish, and a read that still sees
    ///   the old table loaded the pointer before that publish, so the
    ///   pre-publish instant lies inside its invocation window — a valid
    ///   linearization point. Writers cannot race it onto the old
    ///   backend: they all go through the seal check.
    fn with_shard_read<R>(
        &mut self,
        key: K,
        mut op: impl FnMut(&mut B::Handle<'static>) -> R,
    ) -> R {
        let rank = key.rank64();
        self.maybe_refresh();
        let idx = self.route(rank);
        let out = op(self.entries[idx].handle());
        self.note_ops(idx, 1);
        out
    }

    /// Sorted-batch analogue of [`with_shard`](CoreHandle::with_shard):
    /// sorts `keys` and forwards each contiguous same-shard run to `op`,
    /// re-routing runs that race a migration.
    fn batched(
        &mut self,
        keys: &mut [K],
        mut op: impl FnMut(&mut B::Handle<'static>, &mut [K]) -> usize,
    ) -> usize {
        keys.sort_unstable();
        let mut n = 0;
        let mut i = 0;
        while i < keys.len() {
            let rank = keys[i].rank64();
            self.maybe_refresh();
            let idx = self.route(rank);
            self.slot.0.store(self.entries[idx].shard.id, SLOT_PUBLISH);
            if self.entries[idx].shard.sealed.load(SeqCst) {
                self.slot.0.store(SLOT_IDLE, Release);
                Self::stall(
                    self.core,
                    Arc::as_ptr(&self.table),
                    &self.entries[idx].shard,
                );
                continue;
            }
            let j = match self.entries.get(idx + 1).map(|e| e.shard.lo) {
                Some(hi) => i + keys[i..].partition_point(|k| k.rank64() < hi),
                None => keys.len(),
            };
            n += op(self.entries[idx].handle(), &mut keys[i..j]);
            self.slot.0.store(SLOT_IDLE, Release);
            let run = (j - i) as u32;
            i = j;
            self.note_writes(idx, run);
            self.note_ops(idx, run);
        }
        n
    }

    /// Stitched ordered scan across the (possibly shifting) intervals:
    /// walks shard by shard in rank order, resuming strictly after the
    /// last emitted key whenever a migration forces a re-route, so the
    /// output is sorted and duplicate-free even if the partition changes
    /// mid-scan.
    fn scan(&mut self, bounds: &ScanBounds<K>) -> Vec<B::Item> {
        let mut out: Vec<B::Item> = Vec::new();
        let mut cursor: u64 = bounds.seek_key().map_or(0, |k| k.rank64());
        let mut last: Option<K> = None;
        loop {
            self.maybe_refresh();
            let idx = self.route(cursor);
            // End-of-window against this interval, with the boundary
            // semantics of the static router: an exclusive end lying
            // exactly on the interval's lower bound owns nothing here.
            if let Some(end) = bounds.end_key() {
                let er = end.rank64();
                let lo = self.entries[idx].shard.lo;
                if lo > er || (lo == er && bounds.end_excluded() && K::RANK_INJECTIVE) {
                    break;
                }
            }
            self.slot.0.store(self.entries[idx].shard.id, SLOT_PUBLISH);
            if self.entries[idx].shard.sealed.load(SeqCst) {
                self.slot.0.store(SLOT_IDLE, Release);
                Self::stall(
                    self.core,
                    Arc::as_ptr(&self.table),
                    &self.entries[idx].shard,
                );
                continue;
            }
            let leg = match last {
                Some(l) => bounds.resume_after(l),
                None => *bounds,
            };
            let items = B::scan(self.entries[idx].handle(), &leg);
            self.slot.0.store(SLOT_IDLE, Release);
            self.note_ops(idx, 1);
            if let Some(it) = items.last() {
                last = Some(B::item_key(it));
            }
            out.extend(items);
            match self.entries.get(idx + 1).map(|e| e.shard.lo) {
                Some(next_lo) => cursor = next_lo,
                None => break,
            }
        }
        out
    }

    /// Estimated live items across the snapshot (read-only; does not
    /// take part in the seal protocol — estimates may lag a migration).
    fn len_estimate(&mut self) -> usize {
        self.maybe_refresh();
        let mut n = 0;
        for e in &mut self.entries {
            n += B::len_estimate(e.handle());
        }
        n
    }

    /// Counters: carry from evicted handles plus the live caches.
    fn live_stats(&self) -> OpStats {
        self.carry
            + self
                .entries
                .iter()
                .filter_map(|e| e.cached.as_ref())
                .map(|h| B::stats(h))
                .sum::<OpStats>()
    }

    /// Drains all counters (only meaningful when
    /// [`ElasticBackend::drain_stats`] resets, i.e. for set backends).
    fn take_stats(&mut self) -> OpStats {
        let mut total = std::mem::take(&mut self.carry);
        for e in &mut self.entries {
            if let Some(h) = &mut e.cached {
                total += B::drain_stats(h);
            }
        }
        total
    }

    /// Write-share accounting: marks `n` of the ops about to be noted
    /// on `idx` as writes. Flushed alongside `local_ops` by
    /// [`note_ops`](CoreHandle::note_ops), so call it first.
    #[inline]
    fn note_writes(&mut self, idx: usize, n: u32) {
        self.entries[idx].local_writes += n;
    }

    /// Load accounting + the amortized monitor hook.
    #[inline]
    fn note_ops(&mut self, idx: usize, n: u32) {
        let e = &mut self.entries[idx];
        e.local_ops += n;
        if e.local_ops >= OPS_FLUSH_BLOCK {
            e.shard.ops.bump(e.local_ops as u64);
            e.local_ops = 0;
            if e.local_writes > 0 {
                e.shard.writes.bump(e.local_writes as u64);
                e.local_writes = 0;
            }
        }
        self.ops_since_check += n;
        if self.ops_since_check >= self.core.policy.check_period {
            self.ops_since_check = 0;
            for e in &mut self.entries {
                if e.local_ops > 0 {
                    e.shard.ops.bump(e.local_ops as u64);
                    e.local_ops = 0;
                }
                if e.local_writes > 0 {
                    e.shard.writes.bump(e.local_writes as u64);
                    e.local_writes = 0;
                }
            }
            self.core.try_rebalance();
        }
    }

    /// Backend handles this thread has actually materialized
    /// (diagnostics; mirrors `ShardedSetHandle::cached_handles`).
    fn cached_handles(&self) -> usize {
        self.entries.iter().filter(|e| e.cached.is_some()).count()
    }
}

/// An ordered set or map over elastically re-partitioned backend shards.
///
/// The elastic counterpart of [`ShardedSet`](crate::sharded::ShardedSet):
/// same monotone range partition, same per-thread shard-handle caches,
/// but the partition **adapts** — see the [module docs](self) for the
/// router, migration protocol and load monitor. The backend `B` is named
/// through one of the four presets: [`ElasticSet`], [`ElasticMorphSet`],
/// [`ElasticCombineSet`] and [`ElasticMap`]. The three set presets
/// implement [`ConcurrentOrderedSet`], so the whole benchmark harness
/// runs on them unchanged.
///
/// `COMBINE` marks the [`ElasticCombineSet`] preset: its name and the
/// [`LoadPolicy::combining`] default of [`new`](Elastic::new). It is a
/// parameter of the front, not of the backend, so the two morphing
/// presets share one instantiation of the core and its handle.
pub struct Elastic<K, B, const COMBINE: bool = false> {
    core: ElasticCore<K, B>,
}

impl<K: ShardKey, B: ElasticBackend<K>, const COMBINE: bool> Elastic<K, B, COMBINE> {
    /// Creates an empty structure under the preset's default policy:
    /// [`LoadPolicy::combining`] for [`ElasticCombineSet`],
    /// [`LoadPolicy::default`] for the others.
    pub fn new() -> Self {
        Self::with_policy(if COMBINE {
            LoadPolicy::combining()
        } else {
            LoadPolicy::default()
        })
    }

    /// Creates an empty structure governed by `policy`.
    pub fn with_policy(policy: LoadPolicy) -> Self {
        Elastic {
            core: ElasticCore::new(policy),
        }
    }

    /// Per-thread handle.
    pub fn handle(&self) -> ElasticHandle<'_, K, B> {
        ElasticHandle {
            inner: self.core.handle(),
        }
    }

    /// The thresholds this structure rebalances under.
    pub fn policy(&self) -> LoadPolicy {
        self.core.policy
    }

    /// Current number of shards.
    pub fn shard_count(&self) -> usize {
        self.core.with_published(|t| t.shards.len())
    }

    /// The router version: bumped by every committed migration.
    pub fn router_version(&self) -> u64 {
        self.core.version.load(Acquire)
    }

    /// Committed splits so far.
    pub fn splits(&self) -> u64 {
        self.core.splits.load(Relaxed)
    }

    /// Committed merges so far.
    pub fn merges(&self) -> u64 {
        self.core.merges.load(Relaxed)
    }

    /// Deterministically splits the shard owning `key` (test and
    /// operational support). `true` iff a split committed.
    pub fn force_split_at(&self, key: K) -> bool {
        self.core.migrate_at(key, ElasticCore::split_locked)
    }

    /// Deterministically merges the shard owning `key` with its right
    /// neighbour. `true` iff a merge committed.
    pub fn force_merge_at(&self, key: K) -> bool {
        self.core.migrate_at(key, ElasticCore::merge_locked)
    }

    /// The intervals' lower rank bounds, ascending (diagnostics).
    pub fn shard_bounds(&self) -> Vec<u64> {
        self.core
            .with_published(|t| t.shards.iter().map(|s| s.lo).collect())
    }

    /// Router tables currently allocated: the published one plus any
    /// retired generations the epoch collector has not freed yet.
    /// Settles back to 1 once collection catches up (leak tests).
    pub fn tables_alive(&self) -> usize {
        self.core.tables_alive()
    }

    /// Live items per shard, in key order (quiescent).
    pub fn shard_sizes(&mut self) -> Vec<usize> {
        self.core
            .shards_mut()
            .into_iter()
            .map(|shard| shard.backend.collect_items().len())
            .collect()
    }

    /// Quiescent snapshot of all items in key order: keys for the sets,
    /// `(key, value)` pairs for the map.
    pub fn collect(&mut self) -> Vec<B::Item> {
        self.core.collect_items()
    }

    /// Quiescent structural check (router + shard backends + routing).
    pub fn check_invariants(&mut self) -> Result<(), InvariantViolation> {
        self.core.check()
    }
}

impl<K: ShardKey, B: ElasticBackend<K>, const COMBINE: bool> Default for Elastic<K, B, COMBINE> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, B, const COMBINE: bool> Elastic<K, B, COMBINE>
where
    K: ShardKey,
    B: ElasticBackend<K, Item = K>,
    for<'a> B::Handle<'a>: OrderedHandle<K>,
{
    /// Pins every current and future shard's flat-combining flag to
    /// `on` and suspends the monitor's delegation sweep while pinned
    /// (deterministic tests and diagnostics — the combine protocol
    /// itself never depends on flag stability).
    pub fn pin_combining(&self, on: bool) {
        self.core.combine_pin.store(on, Relaxed);
        self.core.with_published(|t| {
            for s in t.shards.iter() {
                s.combining.store(on, Relaxed);
            }
        });
    }

    /// Times the monitor engaged delegation on a shard.
    pub fn delegations(&self) -> u64 {
        self.core.delegations.load(Relaxed)
    }

    /// Delegated ops applied by combiners so far (self-combined ops
    /// included).
    pub fn combined(&self) -> u64 {
        self.core.combined.load(Relaxed)
    }
}

impl<K, B, const COMBINE: bool> ConcurrentOrderedSet<K> for Elastic<K, B, COMBINE>
where
    K: ShardKey,
    B: ElasticBackend<K, Item = K>,
    for<'a> B::Handle<'a>: OrderedHandle<K>,
{
    type Handle<'a>
        = ElasticHandle<'a, K, B>
    where
        Self: 'a;

    const NAME: &'static str = if COMBINE { "elastic_combine" } else { B::NAME };

    fn new() -> Self {
        Elastic::new()
    }

    fn handle(&self) -> ElasticHandle<'_, K, B> {
        Elastic::handle(self)
    }

    fn collect_keys(&mut self) -> Vec<K> {
        // Shard order is key order; concatenation is sorted.
        self.collect()
    }

    fn check_invariants(&mut self) -> Result<(), InvariantViolation> {
        Elastic::check_invariants(self)
    }
}

impl<K, S, const COMBINE: bool> Elastic<K, MorphBackend<K, S>, COMBINE>
where
    K: ShardKey,
    S: ConcurrentOrderedSet<K> + 'static,
    for<'a> S::Handle<'a>: OrderedHandle<K>,
{
    /// Committed morphs so far (policy-driven and forced).
    pub fn morphs(&self) -> u64 {
        self.core.morphs.load(Relaxed)
    }

    /// Deterministically rebuilds the shard owning `key` in arm `kind`
    /// (test and operational support). `true` iff the shard was running
    /// a different arm.
    pub fn force_morph_at(&self, key: K, kind: MorphKind) -> bool {
        self.core.migrate_at(key, |core, writer, idx| {
            core.morph_locked(writer, idx, kind)
        })
    }

    /// `(arm, live keys)` per shard, in key order (quiescent).
    pub fn shard_shapes(&mut self) -> Vec<(MorphKind, usize)> {
        self.core
            .shards_mut()
            .into_iter()
            .map(|shard| (shard.backend.kind(), shard.backend.collect_items().len()))
            .collect()
    }
}

/// Per-thread handle over an [`Elastic`] structure.
pub struct ElasticHandle<'s, K: ShardKey, B: ElasticBackend<K>> {
    inner: CoreHandle<'s, K, B>,
}

impl<K: ShardKey, B: ElasticBackend<K>> ElasticHandle<'_, K, B> {
    /// Number of backend handles this thread has actually created.
    pub fn cached_handles(&self) -> usize {
        self.inner.cached_handles()
    }
}

impl<K, B> SetHandle<K> for ElasticHandle<'_, K, B>
where
    K: ShardKey,
    B: ElasticBackend<K, Item = K>,
    for<'a> B::Handle<'a>: OrderedHandle<K>,
{
    fn add(&mut self, key: K) -> bool {
        self.inner.update(key, false)
    }

    fn remove(&mut self, key: K) -> bool {
        self.inner.update(key, true)
    }

    fn contains(&mut self, key: K) -> bool {
        self.inner.with_shard_read(key, |h| h.contains(key))
    }

    fn add_batch(&mut self, keys: &mut [K]) -> usize {
        self.inner.batched(keys, |h, run| h.add_batch(run))
    }

    fn remove_batch(&mut self, keys: &mut [K]) -> usize {
        self.inner.batched(keys, |h, run| h.remove_batch(run))
    }

    fn stats(&self) -> OpStats {
        self.inner.live_stats()
    }

    fn take_stats(&mut self) -> OpStats {
        self.inner.take_stats()
    }
}

impl<K, B> OrderedHandle<K> for ElasticHandle<'_, K, B>
where
    K: ShardKey,
    B: ElasticBackend<K, Item = K>,
    for<'a> B::Handle<'a>: OrderedHandle<K>,
{
    fn range<R: RangeBounds<K>>(&mut self, range: R) -> Snapshot<K> {
        Snapshot::from_vec(self.inner.scan(&ScanBounds::from_range(&range)))
    }

    fn len_estimate(&mut self) -> usize {
        self.inner.len_estimate()
    }
}

impl<K: ShardKey, V: Copy + Send + Sync + 'static> ElasticHandle<'_, K, ListMap<K, V>> {
    /// Inserts `key → value`; `true` iff the key was absent.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        self.inner.with_shard(key, |h| h.insert(key, value))
    }

    /// Removes `key`; returns its value iff this thread won the delete.
    pub fn remove(&mut self, key: K) -> Option<V> {
        self.inner.with_shard(key, |h| h.remove(key))
    }

    /// Wait-free lookup (may stall briefly behind a migration of the
    /// key's shard).
    pub fn get(&mut self, key: K) -> Option<V> {
        self.inner.with_shard_read(key, |h| h.get(key))
    }

    /// `true` iff `key` is present.
    pub fn contains_key(&mut self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Scans live `(key, value)` pairs with keys inside `range`,
    /// ascending, stitched across migrations.
    pub fn range<R: RangeBounds<K>>(&mut self, range: R) -> Snapshot<(K, V)> {
        Snapshot::from_vec(self.inner.scan(&ScanBounds::from_range(&range)))
    }

    /// Scans all live `(key, value)` pairs in ascending key order.
    pub fn iter(&mut self) -> Snapshot<(K, V)> {
        self.range(..)
    }

    /// Estimated number of live entries.
    pub fn len_estimate(&mut self) -> usize {
        self.inner.len_estimate()
    }

    /// Aggregated counters (evicted caches included).
    pub fn stats(&self) -> OpStats {
        self.inner.live_stats()
    }
}

/// An elastic set over any ordered-set backend `B`: every shard runs
/// `B`. Its registry name derives from `B`'s (see [`elastic_name`]);
/// built under [`LoadPolicy::default`].
pub type ElasticSet<K, B> = Elastic<K, SetBackend<K, B>>;

/// An elastic set whose shards **morph** between backend types as they
/// migrate: [`ElasticSet`]'s router and migration protocol, but each
/// shard runs the [`MorphKind`] arm [`LoadPolicy::morph_kind`] picks
/// for its population — flat hinted list when small, unrolled fat-node
/// list in the middle, `S` (a skiplist in the benchmark harness) when
/// large. See the [module docs](self#backend-morphing). Named
/// `elastic_morph`; built under [`LoadPolicy::default`].
///
/// # Examples
///
/// ```
/// use pragmatic_list::elastic::{ElasticMorphSet, LoadPolicy, MorphKind};
/// use pragmatic_list::variants::SinglyCursorEpochList;
/// use pragmatic_list::{ConcurrentOrderedSet, SetHandle};
///
/// // The large-shard arm is generic: any ordered set serves (the
/// // benchmarks plug in the real skiplist).
/// let set = ElasticMorphSet::<i64, SinglyCursorEpochList<i64>>::with_policy(LoadPolicy {
///     initial_shards: 1,
///     ..LoadPolicy::default()
/// });
/// let mut h = set.handle();
/// for k in 0..100 {
///     h.add(k);
/// }
/// // Deterministic morph: rebuild the shard owning key 0 unrolled.
/// assert!(set.force_morph_at(0, MorphKind::Unrolled));
/// assert_eq!(set.morphs(), 1);
/// assert!(h.contains(42));
/// ```
pub type ElasticMorphSet<K, S> = Elastic<K, MorphBackend<K, S>>;

/// An [`ElasticMorphSet`] with flat-combining delegation enabled: the
/// monitor watches each shard's write share and, once it crosses
/// [`LoadPolicy::combine_write_pct`], stops splitting the shard and
/// instead funnels its write ops through one combiner at a time — each
/// writer parks its op in a per-handle padded mailbox slot, one thread
/// claims the shard's combiner lock, drains every pending slot in one
/// sorted pass over the backend, and publishes per-op results back
/// through the slots. Splitting moves a contended hot set to a child
/// shard and leaves it just as contended; combining turns it into the
/// amortized batch path and keeps the router table stable. Named
/// `elastic_combine`; built under [`LoadPolicy::combining`].
///
/// # Examples
///
/// ```
/// use pragmatic_list::elastic::ElasticCombineSet;
/// use pragmatic_list::variants::SinglyCursorEpochList;
/// use pragmatic_list::{ConcurrentOrderedSet, SetHandle};
///
/// let set = ElasticCombineSet::<i64, SinglyCursorEpochList<i64>>::new();
/// set.pin_combining(true); // deterministic: every shard delegates
/// let mut h = set.handle();
/// assert!(h.add(7));
/// assert!(h.contains(7));
/// assert!(h.remove(7));
/// assert!(set.combined() >= 1);
/// ```
pub type ElasticCombineSet<K, S> = Elastic<K, MorphBackend<K, S>, true>;

/// An ordered key→value map over elastically re-partitioned
/// [`ListMap`] shards: the value-carrying counterpart of [`ElasticSet`],
/// mirroring [`ShardedMap`](crate::sharded::ShardedMap)'s API. Built
/// under [`LoadPolicy::default`]; maps never delegate writes.
///
/// # Examples
///
/// ```
/// use pragmatic_list::elastic::{ElasticMap, LoadPolicy};
///
/// let map = ElasticMap::<i64, u64>::with_policy(LoadPolicy {
///     min_split_keys: 2,
///     ..LoadPolicy::default()
/// });
/// let mut h = map.handle();
/// for k in [30i64, -7, 12, 99] {
///     assert!(h.insert(k, k.unsigned_abs()));
/// }
/// assert!(map.force_split_at(10));
/// assert_eq!(h.get(-7), Some(7));
/// assert_eq!(h.remove(12), Some(12));
/// assert_eq!(h.range(-10..=50).into_vec(), vec![(-7, 7), (30, 30)]);
/// ```
pub type ElasticMap<K, V> = Elastic<K, ListMap<K, V>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::{SinglyCursorList, SinglyHintedList};

    /// A tiny-threshold policy so unit tests migrate eagerly and
    /// deterministically (pure op counting — no clocks).
    fn eager() -> LoadPolicy {
        LoadPolicy {
            initial_shards: 1,
            max_shards: 16,
            check_period: 64,
            window_min_ops: 128,
            split_share_pct: 10,
            merge_share_pct: 0,
            min_split_keys: 4,
            ..LoadPolicy::default()
        }
    }

    fn spread(k: i64) -> i64 {
        (k - 150) * (i64::MAX / 512)
    }

    type Set = ElasticSet<i64, SinglyCursorList<i64>>;

    #[test]
    fn names_resolve() {
        assert_eq!(Set::NAME, "elastic_singly");
        assert_eq!(
            ElasticSet::<i64, crate::variants::SinglyCursorEpochList<i64>>::NAME,
            "elastic_singly_epoch"
        );
        assert_eq!(
            ElasticSet::<i64, crate::variants::DoublyCursorList<i64>>::NAME,
            "elastic"
        );
    }

    #[test]
    fn starts_with_initial_shards_and_agrees_with_flat() {
        let policy = LoadPolicy {
            initial_shards: 4,
            ..LoadPolicy::default()
        };
        let set = ElasticSet::<i64, SinglyCursorList<i64>>::with_policy(policy);
        assert_eq!(set.shard_count(), 4);
        assert_eq!(set.shard_bounds()[0], 0);
        let flat = SinglyCursorList::<i64>::new();
        let mut hs = set.handle();
        let mut hf = flat.handle();
        let mut x = 0x9e37_79b9u64;
        for _ in 0..4_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = spread(((x >> 33) % 300) as i64);
            match x % 3 {
                0 => assert_eq!(hs.add(k), hf.add(k)),
                1 => assert_eq!(hs.remove(k), hf.remove(k)),
                _ => assert_eq!(hs.contains(k), hf.contains(k)),
            }
        }
        drop((hs, hf));
        let (mut set, mut flat) = (set, flat);
        assert_eq!(set.collect_keys(), flat.collect_keys());
        set.check_invariants().unwrap();
    }

    #[test]
    fn force_split_preserves_contents_and_reroutes() {
        let set = Set::with_policy(LoadPolicy {
            initial_shards: 1,
            min_split_keys: 4,
            ..LoadPolicy::default()
        });
        let mut h = set.handle();
        for k in 0..100 {
            h.add(spread(k));
        }
        assert!(set.force_split_at(spread(50)));
        assert_eq!(set.shard_count(), 2);
        assert_eq!(set.splits(), 1);
        assert_eq!(set.router_version(), 2);
        // The same handle keeps operating correctly after the split.
        for k in 0..100 {
            assert!(h.contains(spread(k)), "key {k} lost by the split");
        }
        for k in 100..140 {
            assert!(h.add(spread(k)));
        }
        drop(h);
        let mut set = set;
        assert_eq!(set.collect_keys(), (0..140).map(spread).collect::<Vec<_>>());
        set.check_invariants().unwrap();
        let sizes = set.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 140);
        assert!(sizes.iter().all(|&s| s > 0), "split must not starve a side");
    }

    #[test]
    fn force_split_aborts_below_min_keys_and_unseals() {
        let set = Set::with_policy(LoadPolicy {
            initial_shards: 1,
            min_split_keys: 64,
            ..LoadPolicy::default()
        });
        let mut h = set.handle();
        for k in 0..10 {
            h.add(spread(k));
        }
        assert!(!set.force_split_at(spread(5)), "too few keys to split");
        assert_eq!(set.shard_count(), 1);
        // The aborted split unsealed the shard: operations proceed.
        assert!(h.contains(spread(3)));
        assert!(h.add(spread(11)));
    }

    #[test]
    fn force_merge_restores_a_single_shard() {
        let set = Set::with_policy(LoadPolicy {
            initial_shards: 1,
            min_split_keys: 4,
            ..LoadPolicy::default()
        });
        let mut h = set.handle();
        for k in 0..64 {
            h.add(spread(k));
        }
        assert!(set.force_split_at(spread(32)));
        assert!(set.force_split_at(spread(10)));
        assert_eq!(set.shard_count(), 3);
        assert!(set.force_merge_at(spread(10)));
        assert!(set.force_merge_at(spread(10)));
        assert_eq!(set.shard_count(), 1);
        assert_eq!(set.merges(), 2);
        for k in 0..64 {
            assert!(h.contains(spread(k)));
        }
        drop(h);
        let mut set = set;
        assert_eq!(set.collect_keys().len(), 64);
        set.check_invariants().unwrap();
    }

    #[test]
    fn auto_split_fires_on_a_hot_shard_deterministically() {
        let set = Set::with_policy(eager());
        let mut h = set.handle();
        // Clustered hot keys: everything lands in one narrow interval.
        for round in 0..40 {
            for k in 0..64 {
                if round == 0 {
                    h.add(k);
                } else {
                    h.contains(k);
                }
            }
        }
        assert!(
            set.splits() > 0,
            "hot-shard share must trip the monitor (counts only, no clocks)"
        );
        assert!(set.shard_count() > 1);
        drop(h);
        let mut set = set;
        assert_eq!(set.collect_keys().len(), 64);
        set.check_invariants().unwrap();
    }

    #[test]
    fn auto_merge_reclaims_cold_shards() {
        let policy = LoadPolicy {
            max_shards: 4, // table pressure: merging arms at 3 shards
            merge_share_pct: 30,
            ..eager()
        };
        let set = Set::with_policy(policy);
        let mut h = set.handle();
        for k in 0..64 {
            h.add(k);
        }
        for k in 0..64 {
            h.add(spread(k)); // a second, far-away populated region
        }
        assert!(set.force_split_at(10));
        assert!(set.force_split_at(spread(10)));
        let shards_before = set.shard_count();
        assert!(shards_before >= 3);
        // Hammer one key far from the split regions: every other pair
        // goes cold and the monitor merges it.
        for _ in 0..4_000 {
            h.contains(i64::MAX / 2);
        }
        assert!(set.merges() > 0, "cold pairs must be merged back");
        drop(h);
        let mut set = set;
        assert_eq!(set.collect_keys().len(), 128);
        set.check_invariants().unwrap();
    }

    #[test]
    fn stats_survive_migrations() {
        let set = Set::with_policy(LoadPolicy {
            min_split_keys: 4,
            ..LoadPolicy::default()
        });
        let mut h = set.handle();
        for k in 0..50 {
            assert!(h.add(spread(k)));
        }
        assert!(set.force_split_at(spread(25)));
        for k in 50..80 {
            assert!(h.add(spread(k)));
        }
        assert!(set.force_split_at(spread(60)));
        for k in 0..10 {
            assert!(h.remove(spread(k)));
        }
        let s = h.take_stats();
        assert_eq!(s.adds, 80, "adds must survive cache eviction");
        assert_eq!(s.rems, 10);
        assert!(h.take_stats().is_zero(), "take drains");
    }

    #[test]
    fn unrelated_splits_keep_surviving_shard_caches() {
        let set = Set::with_policy(LoadPolicy {
            initial_shards: 2,
            min_split_keys: 4,
            ..LoadPolicy::default()
        });
        let mut h = set.handle();
        for k in 0..32 {
            h.add(k); // top half of the keyspace: shard 1
            h.add(spread(k)); // bottom half: shard 0
        }
        assert_eq!(h.cached_handles(), 2);
        assert!(set.force_split_at(spread(16)));
        // Touch only the shard untouched by the migration: the refresh
        // keeps its cache (cursor included) and evicts only the split
        // shard's — so exactly one cached handle remains.
        assert!(h.contains(0));
        assert_eq!(h.cached_handles(), 1, "survivor cache kept, old evicted");
        // Touching a split child materializes a fresh cache for it.
        assert!(h.contains(spread(16)));
        assert_eq!(h.cached_handles(), 2);
    }

    #[test]
    fn scans_stitch_across_split_points() {
        use std::collections::BTreeSet;
        let set = Set::with_policy(LoadPolicy {
            initial_shards: 1,
            min_split_keys: 4,
            ..LoadPolicy::default()
        });
        let mut h = set.handle();
        let mut oracle = BTreeSet::new();
        for k in (0..300).step_by(3) {
            h.add(spread(k));
            oracle.insert(spread(k));
        }
        assert!(set.force_split_at(spread(150)));
        assert!(set.force_split_at(spread(75)));
        assert!(set.force_split_at(spread(225)));
        let all: Vec<i64> = oracle.iter().copied().collect();
        assert_eq!(h.iter().into_vec(), all);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        // The elastic boundary regression: a window whose exclusive end
        // IS a split point must neither duplicate nor re-visit it.
        let split_key = {
            let bounds = set.shard_bounds();
            // Recover a key whose rank is exactly an interval floor.
            let target = bounds[1];
            all.iter()
                .copied()
                .find(|k| k.rank64() == target)
                .expect("split point is the median key, which is live")
        };
        let want: Vec<i64> = oracle.range(..split_key).copied().collect();
        assert_eq!(h.range(..split_key).into_vec(), want);
        let want_incl: Vec<i64> = oracle.range(..=split_key).copied().collect();
        assert_eq!(h.range(..=split_key).into_vec(), want_incl);
        for (lo, hi) in [(-100, 100), (0, 299), (100, 101), (250, 250)] {
            let (lo, hi) = (spread(lo), spread(hi));
            let want: Vec<i64> = oracle.range(lo..hi).copied().collect();
            assert_eq!(h.range(lo..hi).into_vec(), want, "{lo}..{hi}");
        }
        assert_eq!(h.len_estimate(), oracle.len());
    }

    #[test]
    fn concurrent_churn_with_forced_migrations_keeps_accounting() {
        let set = Set::with_policy(LoadPolicy {
            min_split_keys: 2,
            ..LoadPolicy::default()
        });
        let totals: OpStats = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let set = &set;
                    s.spawn(move || {
                        let mut h = set.handle();
                        let mut x = 0x1234_5678u64 ^ ((t as u64) << 32);
                        for _ in 0..6_000 {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let k = spread(((x >> 33) % 128) as i64);
                            match x % 3 {
                                0 => {
                                    h.add(k);
                                }
                                1 => {
                                    h.remove(k);
                                }
                                _ => {
                                    h.contains(k);
                                }
                            }
                        }
                        h.take_stats()
                    })
                })
                .collect();
            // Force migrations while the workers churn.
            for i in 0..40i64 {
                let _ = set.force_split_at(spread(i * 3 % 128));
                if i % 4 == 3 {
                    let _ = set.force_merge_at(spread(i % 128));
                }
                std::thread::yield_now();
            }
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert!(set.splits() > 0, "splits must have fired mid-churn");
        let mut set = set;
        set.check_invariants().unwrap();
        let live = set.collect_keys().len() as u64;
        assert_eq!(
            totals.adds - totals.rems,
            live,
            "adds − removes must equal live keys across migrations"
        );
    }

    /// A foreign thread's epoch flush may be the one that frees a retired
    /// router table. The quiescent accessors must still find every shard
    /// of the published table unshared: `tables_alive` may only read 1
    /// after the retired table has released its shard `Arc`s.
    #[test]
    fn quiescent_access_survives_foreign_collector_flushes() {
        use std::sync::atomic::AtomicBool;
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Relaxed);
            }
        }
        let stop = AtomicBool::new(false);
        let mut set = Set::with_policy(LoadPolicy {
            initial_shards: 4,
            min_split_keys: 4,
            ..LoadPolicy::default()
        });
        {
            let mut h = set.handle();
            for k in 0..64 {
                h.add(spread(k));
            }
        }
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while !stop.load(Relaxed) {
                        crossbeam_epoch::pin().flush();
                    }
                });
            }
            // Stops the flushers even if an assertion below panics, so
            // the scope can join them.
            let _stop = StopOnDrop(&stop);
            for _ in 0..500 {
                assert!(set.force_split_at(spread(32)));
                set.check_invariants().unwrap();
                assert!(set.force_merge_at(spread(0)));
                assert_eq!(set.collect_keys().len(), 64);
            }
        });
    }

    #[test]
    fn hinted_backend_survives_decommission() {
        // Per-thread search hints point at nodes of the backend shard;
        // when a migration decommissions that backend the handle cache
        // (hints included) is evicted before the backend can be freed —
        // operations after the split must neither crash nor mis-answer.
        let set = ElasticSet::<i64, SinglyHintedList<i64>>::with_policy(LoadPolicy {
            min_split_keys: 4,
            ..LoadPolicy::default()
        });
        let mut h = set.handle();
        for k in 0..256 {
            h.add(spread(k));
        }
        // Warm the hints with long walks.
        for k in (0..256).step_by(7) {
            assert!(h.contains(spread(k)));
        }
        assert!(set.force_split_at(spread(128)));
        assert!(set.force_split_at(spread(64)));
        for k in 0..256 {
            assert!(h.contains(spread(k)), "hint after decommission: key {k}");
        }
        for k in (0..256).step_by(2) {
            assert!(h.remove(spread(k)));
        }
        drop(h);
        let mut set = set;
        assert_eq!(set.collect_keys().len(), 128);
        set.check_invariants().unwrap();
    }

    #[test]
    fn elastic_map_matches_flat_listmap_across_splits() {
        let map = ElasticMap::<i64, i64>::with_policy(LoadPolicy {
            min_split_keys: 4,
            ..LoadPolicy::default()
        });
        let flat = ListMap::<i64, i64>::new();
        let mut hm = map.handle();
        let mut hf = flat.handle();
        let mut x = 0xfeed_f00du64;
        for round in 0..6 {
            for _ in 0..600 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let k = spread(((x >> 33) % 128) as i64);
                let v = (x % 1_000) as i64;
                match x % 3 {
                    0 => assert_eq!(hm.insert(k, v), hf.insert(k, v)),
                    1 => assert_eq!(hm.remove(k), hf.remove(k)),
                    _ => assert_eq!(hm.get(k), hf.get(k)),
                }
            }
            let _ = map.force_split_at(spread((round * 20) % 128));
        }
        assert!(map.splits() > 0);
        assert_eq!(hm.iter().into_vec(), hf.iter().into_vec());
        assert_eq!(
            hm.range(spread(-20)..spread(90)).into_vec(),
            hf.range(spread(-20)..spread(90)).into_vec()
        );
        assert_eq!(hm.len_estimate(), hf.len_estimate());
        drop((hm, hf));
        let (mut map, mut flat) = (map, flat);
        assert_eq!(map.collect(), flat.collect());
        map.check_invariants().unwrap();
    }

    type MorphSet = ElasticMorphSet<i64, crate::variants::SinglyCursorEpochList<i64>>;

    /// Tiny morph bands so unit tests cross arm boundaries with a few
    /// dozen keys.
    fn morphy() -> LoadPolicy {
        LoadPolicy {
            morph_list_max: 8,
            morph_skip_min: 24,
            ..eager()
        }
    }

    #[test]
    fn morph_names_and_policy_bands() {
        assert_eq!(MorphSet::NAME, "elastic_morph");
        let p = morphy();
        assert_eq!(p.morph_kind(0), MorphKind::List);
        assert_eq!(p.morph_kind(8), MorphKind::List);
        assert_eq!(p.morph_kind(9), MorphKind::Unrolled);
        assert_eq!(p.morph_kind(23), MorphKind::Unrolled);
        assert_eq!(p.morph_kind(24), MorphKind::Skip);
    }

    #[test]
    fn force_morph_cycles_arms_and_preserves_contents() {
        let set = MorphSet::with_policy(morphy());
        let mut h = set.handle();
        for k in 0..40 {
            h.add(spread(k));
        }
        assert!(
            !set.force_morph_at(spread(0), MorphKind::List),
            "morphing to the current arm is a no-op"
        );
        assert_eq!(set.morphs(), 0);
        let cycle = [
            MorphKind::Skip,
            MorphKind::Unrolled,
            MorphKind::List,
            MorphKind::Skip,
        ];
        for (i, kind) in cycle.into_iter().enumerate() {
            assert!(set.force_morph_at(spread(0), kind));
            assert_eq!(set.morphs(), i as u64 + 1);
            // The same handle keeps operating through every rebuild.
            for k in 0..40 {
                assert!(h.contains(spread(k)), "key {k} lost morphing to {kind:?}");
            }
            assert!(!h.contains(spread(40)));
        }
        assert!(h.add(spread(40)));
        assert!(h.remove(spread(0)));
        drop(h);
        let mut set = set;
        assert_eq!(set.shard_shapes(), vec![(MorphKind::Skip, 40)]);
        assert_eq!(set.tables_alive(), 1, "quiescence drains retired tables");
        assert_eq!(set.collect_keys(), (1..=40).map(spread).collect::<Vec<_>>());
        set.check_invariants().unwrap();
    }

    #[test]
    fn migrations_reseal_arms_by_population() {
        let mut set = MorphSet::with_policy(LoadPolicy {
            min_split_keys: 2,
            ..morphy()
        });
        {
            let mut h = set.handle();
            for k in 0..60 {
                h.add(spread(k));
            }
        }
        assert!(set.force_split_at(spread(10)));
        let shapes = set.shard_shapes();
        assert_eq!(shapes.len(), 2);
        assert_eq!(shapes.iter().map(|&(_, n)| n).sum::<usize>(), 60);
        for &(kind, n) in &shapes {
            assert_eq!(
                kind,
                set.policy().morph_kind(n),
                "split children must seal in the arm their population selects"
            );
        }
        // Merging re-seals at the combined population: 60 keys is deep
        // in the Skip band.
        assert!(set.force_merge_at(spread(10)));
        assert_eq!(set.shard_shapes(), vec![(MorphKind::Skip, 60)]);
        set.check_invariants().unwrap();
    }

    #[test]
    fn auto_morph_fires_on_population_drift() {
        // `max_shards: 1` pins the shard count, so the monitor's only
        // available migration is the morph pass.
        let set = MorphSet::with_policy(LoadPolicy {
            max_shards: 1,
            morph_list_max: 8,
            morph_skip_min: 24,
            ..eager()
        });
        let mut h = set.handle();
        for k in 0..40 {
            h.add(spread(k));
        }
        let mut spins = 0u64;
        while set.morphs() == 0 && spins < 100_000 {
            h.contains(spread((spins % 40) as i64));
            spins += 1;
        }
        assert!(
            set.morphs() > 0,
            "population 40 ≫ morph_skip_min must trigger an auto-morph"
        );
        for k in 0..40 {
            assert!(h.contains(spread(k)));
        }
        drop(h);
        let mut set = set;
        assert_eq!(set.shard_shapes(), vec![(MorphKind::Skip, 40)]);
    }

    #[test]
    fn morph_churn_agrees_with_flat() {
        let set = MorphSet::with_policy(LoadPolicy {
            min_split_keys: 4,
            ..morphy()
        });
        let flat = SinglyCursorList::<i64>::new();
        let mut hs = set.handle();
        let mut hf = flat.handle();
        let mut x = 0x1234_5678u64;
        let kinds = [MorphKind::List, MorphKind::Unrolled, MorphKind::Skip];
        for i in 0..6_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = spread(((x >> 33) % 300) as i64);
            match x % 3 {
                0 => assert_eq!(hs.add(k), hf.add(k)),
                1 => assert_eq!(hs.remove(k), hf.remove(k)),
                _ => assert_eq!(hs.contains(k), hf.contains(k)),
            }
            if i % 500 == 250 {
                let _ = set.force_morph_at(k, kinds[(i / 500) as usize % 3]);
            }
            if i % 1500 == 700 {
                let _ = set.force_split_at(k);
            }
        }
        assert!(set.morphs() > 0);
        // Range scans stitch across morphed shard boundaries.
        assert_eq!(
            hs.range(spread(0)..spread(200)).into_vec(),
            hf.range(spread(0)..spread(200)).into_vec()
        );
        drop((hs, hf));
        let (mut set, mut flat) = (set, flat);
        assert_eq!(set.collect_keys(), flat.collect_keys());
        set.check_invariants().unwrap();
    }

    type CombineSet = ElasticCombineSet<i64, crate::variants::SinglyCursorEpochList<i64>>;

    #[test]
    fn combine_names_and_default_policy() {
        assert_eq!(CombineSet::NAME, "elastic_combine");
        assert_eq!(LoadPolicy::combining().combine_write_pct, 40);
        assert_eq!(LoadPolicy::default().combine_write_pct, 0);
    }

    /// The four presets are aliases of one `Elastic` type: each takes its
    /// registry name and its default policy from the backend, so the fold
    /// must not, say, silently turn `elastic_combine`'s combining off.
    #[test]
    fn preset_aliases_keep_names_and_default_policies() {
        assert_eq!(Set::NAME, "elastic_singly");
        assert_eq!(MorphSet::NAME, "elastic_morph");
        assert_eq!(CombineSet::NAME, "elastic_combine");
        assert_eq!(CombineSet::new().policy(), LoadPolicy::combining());
        assert_eq!(MorphSet::new().policy(), LoadPolicy::default());
        assert_eq!(Set::new().policy(), LoadPolicy::default());
        assert_eq!(
            ElasticMap::<i64, i64>::new().policy(),
            LoadPolicy::default()
        );
    }

    #[test]
    fn combine_settled_mirrors_morph_hysteresis() {
        let p = LoadPolicy {
            combine_write_pct: 40,
            ..LoadPolicy::default()
        };
        // Disabled policy or an empty window never engages.
        assert!(!LoadPolicy::default().combine_settled(100, 100, false));
        assert!(!p.combine_settled(0, 0, true));
        // Engage exactly at the threshold share.
        assert!(!p.combine_settled(39, 100, false));
        assert!(p.combine_settled(40, 100, false));
        // Quarter-band hysteresis: an engaged shard stays engaged down
        // to pct - pct/4 = 30, and only disengages strictly below it.
        assert!(p.combine_settled(30, 100, true));
        assert!(!p.combine_settled(29, 100, true));
    }

    #[test]
    fn pinned_delegation_agrees_with_flat() {
        let set = CombineSet::with_policy(LoadPolicy {
            min_split_keys: 4,
            ..eager()
        });
        set.pin_combining(true);
        let flat = SinglyCursorList::<i64>::new();
        let mut hs = set.handle();
        let mut hf = flat.handle();
        let mut x = 0xfeed_beefu64;
        for i in 0..6_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = spread(((x >> 33) % 300) as i64);
            match x % 3 {
                0 => assert_eq!(hs.add(k), hf.add(k)),
                1 => assert_eq!(hs.remove(k), hf.remove(k)),
                _ => assert_eq!(hs.contains(k), hf.contains(k)),
            }
            // Toggle the pin mid-churn: ops must agree whether they run
            // delegated or direct, and across forced migrations either
            // way.
            if i % 1000 == 500 {
                set.pin_combining(i % 2000 == 500);
            }
            if i % 1500 == 700 {
                let _ = set.force_split_at(k);
            }
        }
        assert!(set.combined() > 0, "pinned writes must run delegated");
        drop((hs, hf));
        let (mut set, mut flat) = (set, flat);
        assert_eq!(set.collect_keys(), flat.collect_keys());
        set.check_invariants().unwrap();
    }

    #[test]
    fn auto_delegation_engages_on_write_heavy_shard_instead_of_split() {
        let set = CombineSet::with_policy(LoadPolicy {
            combine_write_pct: 30,
            ..eager()
        });
        let mut h = set.handle();
        // A pure-write hot shard: share 100% ≥ 30% at the first window
        // close, so the sweep engages delegation *before* the split
        // decision runs — the hot shard is delegated, never split.
        let mut x = 0x5eedu64;
        for _ in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = spread(((x >> 33) % 40) as i64);
            if x.is_multiple_of(2) {
                h.add(k);
            } else {
                h.remove(k);
            }
        }
        assert!(
            set.delegations() > 0,
            "a 100% write share must engage delegation"
        );
        assert_eq!(
            set.splits(),
            0,
            "a delegated hot shard must not be split (delegate instead of split)"
        );
        assert!(
            set.combined() > 0,
            "engaged shards must drain via combiners"
        );
        drop(h);
        let mut set = set;
        set.check_invariants().unwrap();
    }

    #[test]
    fn concurrent_delegated_churn_with_migrations_keeps_contents() {
        let set = CombineSet::with_policy(LoadPolicy {
            min_split_keys: 2,
            ..eager()
        });
        set.pin_combining(true);
        std::thread::scope(|s| {
            // Each thread owns the keys of one residue class mod 3
            // (249 = 3·83 keeps the classes disjoint under the % 249
            // wrap), so the final contents are deterministic: every
            // thread's last pass re-adds its whole class.
            for t in 0..3i64 {
                let set = &set;
                s.spawn(move || {
                    let mut h = set.handle();
                    for round in 0..4i64 {
                        for i in 0..200 {
                            h.add(spread((i * 3 + t) % 249));
                        }
                        for i in 0..200 {
                            h.remove(spread(((i + round) * 3 + t) % 249));
                        }
                        for i in 0..200 {
                            h.add(spread((i * 3 + t) % 249));
                        }
                    }
                });
            }
            // Seal shards under the delegating writers: pending combine
            // ops must either complete pre-seal or retract and re-route.
            let mut i = 0i64;
            while set.splits() < 3 && i < 5_000 {
                let _ = set.force_split_at(spread(i * 7 % 249));
                i += 1;
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        });
        assert!(set.splits() > 0, "migrations must fire under delegation");
        assert!(set.combined() > 0, "pinned writes must run delegated");
        let mut set = set;
        assert_eq!(
            set.collect_keys(),
            (0..249).map(spread).collect::<Vec<_>>(),
            "no delegated op lost or duplicated across migrations"
        );
        set.check_invariants().unwrap();
    }

    mod leaks {
        use super::*;
        use crate::reclaim::leak::{self, LeakKey};
        use crate::reclaim::{EpochReclaim, HazardReclaim};
        use crate::singly::SinglyList;

        impl ShardKey for LeakKey {
            const RANK_INJECTIVE: bool = true;
            fn rank64(self) -> u64 {
                self.0.rank64()
            }
        }

        /// Drives the epoch collector until `done` holds (retired router
        /// tables — and whatever they keep alive — free lazily).
        fn drive_collector(mut done: impl FnMut() -> bool) {
            for _ in 0..10_000 {
                if done() {
                    return;
                }
                crossbeam_epoch::pin().flush();
                std::thread::yield_now();
            }
        }

        /// Churn + forced migrations + drop: every node the retired and
        /// live shard backends ever allocated must be freed, and every
        /// retired router table must collect while the set is alive.
        fn assert_migrations_are_leak_free<B>()
        where
            B: ConcurrentOrderedSet<LeakKey> + 'static,
            for<'a> B::Handle<'a>: OrderedHandle<LeakKey>,
        {
            let _serial = leak::LEAK_TEST_LOCK
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let (a0, f0) = leak::snapshot();
            {
                let set = ElasticSet::<LeakKey, B>::with_policy(LoadPolicy {
                    min_split_keys: 2,
                    ..LoadPolicy::default()
                });
                {
                    // Persistent keys the workers never remove, so a
                    // forced split always has material to move.
                    let mut h = set.handle();
                    for i in 201..=216 {
                        h.add(LeakKey(i));
                    }
                }
                std::thread::scope(|s| {
                    for t in 0..3i64 {
                        let set = &set;
                        s.spawn(move || {
                            let mut h = set.handle();
                            for round in 0..4i64 {
                                for i in 0..150 {
                                    h.add(LeakKey((i * 3 + t) % 120 + 1));
                                }
                                for i in 0..150 {
                                    h.remove(LeakKey((i * 3 + t + round) % 120 + 1));
                                }
                            }
                        });
                    }
                    // Force migrations until several committed,
                    // *paced*: a hot seal/unseal loop would starve the
                    // workers of unsealed windows on a single-core box.
                    let mut i = 0i64;
                    while set.splits() < 3 && i < 5_000 {
                        let _ = set.force_split_at(LeakKey(i * 6 % 216 + 1));
                        if i % 3 == 0 {
                            let _ = set.force_merge_at(LeakKey(i % 216 + 1));
                        }
                        i += 1;
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                });
                assert!(set.splits() > 0, "{}: no migration fired", B::NAME);
                // Retired-table balance, proven while the set is alive:
                // every superseded router generation must collect, so
                // only the published table remains allocated.
                drive_collector(|| set.tables_alive() == 1);
                assert_eq!(
                    set.tables_alive(),
                    1,
                    "{}: retired router tables must collect",
                    B::NAME
                );
            }
            // Node balance needs the collector too: tables freed at set
            // drop may still queue backend teardown in the epoch domain.
            drive_collector(|| {
                let (a, f) = leak::snapshot();
                a - a0 == f - f0
            });
            let (a1, f1) = leak::snapshot();
            assert!(a1 > a0, "{}: churn must allocate", B::NAME);
            assert_eq!(
                a1 - a0,
                f1 - f0,
                "{}: retired shard backends must free every node",
                B::NAME
            );
        }

        #[test]
        fn arena_backend_migrations_are_leak_free() {
            assert_migrations_are_leak_free::<SinglyList<LeakKey, true, true, false>>();
        }

        #[test]
        fn epoch_backend_migrations_are_leak_free() {
            assert_migrations_are_leak_free::<SinglyList<LeakKey, true, true, false, EpochReclaim>>(
            );
        }

        #[test]
        fn hazard_backend_migrations_are_leak_free() {
            assert_migrations_are_leak_free::<SinglyList<LeakKey, true, false, false, HazardReclaim>>(
            );
        }

        /// The delegated variant of [`assert_migrations_are_leak_free`]:
        /// every write runs through a combiner (flags pinned on) while
        /// forced splits seal shards under the pending mailbox ops, so
        /// combiner-drained batches and seal-retracted ops both recycle
        /// their nodes — whichever reclaimer the backend runs.
        fn assert_combining_migrations_are_leak_free<B>()
        where
            B: ConcurrentOrderedSet<LeakKey> + 'static,
            for<'a> B::Handle<'a>: OrderedHandle<LeakKey>,
        {
            let _serial = leak::LEAK_TEST_LOCK
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let (a0, f0) = leak::snapshot();
            {
                let set = ElasticSet::<LeakKey, B>::with_policy(LoadPolicy {
                    min_split_keys: 2,
                    ..LoadPolicy::default()
                });
                set.pin_combining(true);
                {
                    let mut h = set.handle();
                    for i in 201..=216 {
                        h.add(LeakKey(i));
                    }
                }
                std::thread::scope(|s| {
                    for t in 0..3i64 {
                        let set = &set;
                        s.spawn(move || {
                            let mut h = set.handle();
                            for round in 0..4i64 {
                                for i in 0..150 {
                                    h.add(LeakKey((i * 3 + t) % 120 + 1));
                                }
                                for i in 0..150 {
                                    h.remove(LeakKey((i * 3 + t + round) % 120 + 1));
                                }
                            }
                        });
                    }
                    let mut i = 0i64;
                    while set.splits() < 3 && i < 5_000 {
                        let _ = set.force_split_at(LeakKey(i * 6 % 216 + 1));
                        if i % 3 == 0 {
                            let _ = set.force_merge_at(LeakKey(i % 216 + 1));
                        }
                        i += 1;
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                });
                assert!(set.splits() > 0, "{}: no migration fired", B::NAME);
                assert!(
                    set.combined() > 0,
                    "{}: pinned churn must drain via combiners",
                    B::NAME
                );
                drive_collector(|| set.tables_alive() == 1);
                assert_eq!(
                    set.tables_alive(),
                    1,
                    "{}: retired router tables must collect",
                    B::NAME
                );
            }
            drive_collector(|| {
                let (a, f) = leak::snapshot();
                a - a0 == f - f0
            });
            let (a1, f1) = leak::snapshot();
            assert!(a1 > a0, "{}: delegated churn must allocate", B::NAME);
            assert_eq!(
                a1 - a0,
                f1 - f0,
                "{}: combiner-drained batches must free every node",
                B::NAME
            );
        }

        #[test]
        fn arena_combining_migrations_are_leak_free() {
            assert_combining_migrations_are_leak_free::<SinglyList<LeakKey, true, true, false>>();
        }

        #[test]
        fn epoch_combining_migrations_are_leak_free() {
            assert_combining_migrations_are_leak_free::<
                SinglyList<LeakKey, true, true, false, EpochReclaim>,
            >();
        }

        #[test]
        fn hazard_combining_migrations_are_leak_free() {
            assert_combining_migrations_are_leak_free::<
                SinglyList<LeakKey, true, false, false, HazardReclaim>,
            >();
        }

        #[test]
        fn decommissioned_backend_is_freed_after_refresh_and_collection() {
            let _serial = leak::LEAK_TEST_LOCK
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let (a_start, f_start) = leak::snapshot();
            let set = ElasticSet::<LeakKey, SinglyList<LeakKey, true, true, false>>::with_policy(
                LoadPolicy {
                    min_split_keys: 2,
                    ..LoadPolicy::default()
                },
            );
            let mut h = set.handle();
            for i in 1..=64 {
                h.add(LeakKey(i));
            }
            let (_, f0) = leak::snapshot();
            assert!(set.force_split_at(LeakKey(32)));
            // The retired backend stays pinned by this handle's table
            // snapshot and by the retired router table itself.
            let (_, f_before) = leak::snapshot();
            // Refresh the handle's snapshot, then drive the epoch
            // collector: the retired table (and with it the last shard
            // Arc) frees while the set is alive, not at set drop.
            assert!(h.contains(LeakKey(1)));
            drive_collector(|| {
                let (_, f) = leak::snapshot();
                f > f_before
            });
            let (_, f_after) = leak::snapshot();
            assert!(
                f_after > f_before && f_after > f0,
                "retired backend must be reclaimed after refresh + collection ({f_before} → {f_after})"
            );
            assert_eq!(set.tables_alive(), 1);
            drop(h);
            drop(set);
            // The retired backend may have been dropped by another
            // thread's flush that is still freeing its last nodes (the
            // sentinels go last). Wait for the balance before releasing
            // the lock, or the next leak test counts those frees.
            drive_collector(|| {
                let (a, f) = leak::snapshot();
                a - a_start == f - f_start
            });
            let (a1, f1) = leak::snapshot();
            assert_eq!(a1 - a_start, f1 - f_start, "every node must be freed");
        }

        /// Morph churn across all three arms: forced morphs recopy every
        /// shard backend; the retired copies and tables must all free.
        fn assert_morphs_are_leak_free<S>()
        where
            S: ConcurrentOrderedSet<LeakKey> + 'static,
            for<'a> S::Handle<'a>: OrderedHandle<LeakKey>,
        {
            let _serial = leak::LEAK_TEST_LOCK
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let (a0, f0) = leak::snapshot();
            {
                let set = ElasticMorphSet::<LeakKey, S>::with_policy(LoadPolicy {
                    min_split_keys: 2,
                    morph_list_max: 8,
                    morph_skip_min: 24,
                    ..LoadPolicy::default()
                });
                {
                    let mut h = set.handle();
                    for i in 1..=64 {
                        h.add(LeakKey(i));
                    }
                }
                for kind in [
                    MorphKind::Unrolled,
                    MorphKind::Skip,
                    MorphKind::List,
                    MorphKind::Skip,
                    MorphKind::Unrolled,
                ] {
                    assert!(
                        set.force_morph_at(LeakKey(1), kind),
                        "{}: morph to {kind:?} must commit",
                        S::NAME
                    );
                }
                assert_eq!(set.morphs(), 5);
                let mut h = set.handle();
                for i in 1..=64 {
                    assert!(h.contains(LeakKey(i)), "{}: key {i} lost in morph", S::NAME);
                }
                drop(h);
                drive_collector(|| set.tables_alive() == 1);
                assert_eq!(
                    set.tables_alive(),
                    1,
                    "{}: retired router tables must collect",
                    S::NAME
                );
            }
            drive_collector(|| {
                let (a, f) = leak::snapshot();
                a - a0 == f - f0
            });
            let (a1, f1) = leak::snapshot();
            assert!(a1 > a0, "{}: morph churn must allocate", S::NAME);
            assert_eq!(
                a1 - a0,
                f1 - f0,
                "{}: retired morphed backends must free every node",
                S::NAME
            );
        }

        #[test]
        fn arena_morphs_are_leak_free() {
            assert_morphs_are_leak_free::<SinglyList<LeakKey, true, true, false>>();
        }

        #[test]
        fn epoch_morphs_are_leak_free() {
            assert_morphs_are_leak_free::<SinglyList<LeakKey, true, true, false, EpochReclaim>>();
        }

        #[test]
        fn hazard_morphs_are_leak_free() {
            assert_morphs_are_leak_free::<SinglyList<LeakKey, true, false, false, HazardReclaim>>();
        }
    }
}
