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
//! # One front, three set presets and a map
//!
//! [`Elastic<K, B>`](Elastic) is the one elastic type: an ordered set
//! over shard backend `B`. Callers name the backend through three preset
//! aliases, each fixing the backend, its registry name and the policy
//! `new()` builds under: [`ElasticSet`] (any ordered set),
//! [`ElasticMorphSet`] and [`ElasticCombineSet`] (morphing shards, the
//! latter under [`LoadPolicy::combining`], which keeps write-hot shards
//! unsplit). [`ElasticMap`] is an
//! [`ElasticSet`] of key-ordered map entries on the variant d) list
//! (the value rides in the key's node, as in
//! [`ListMap`](crate::map::ListMap)), so the core serves ordered sets
//! only: one guarded write path (`CoreHandle::admit`) and one migration
//! routine (`ElasticCore::migrate`).
//!
//! # The router
//!
//! The keyspace partition is a table of contiguous, ascending rank
//! intervals (`[lo_i, lo_{i+1})` over [`ShardKey::rank64`]), each owning
//! one backend shard. The table itself (`RouterTable`) is **immutable**
//! and published RCU-style: a mutex holds an `Arc` of the current table,
//! and a router version counter announces each replacement. The hot-path
//! revalidation is a single `Acquire` load of the version compared
//! against the one the handle recorded — no mutex on lookup. A handle
//! that sees a new version loads the version *first* and then clones
//! the table's `Arc` under the mutex, so the table it routes through is
//! never older than the version it records. Writers — split, merge,
//! morph — serialize on a writer mutex **off** the read path, build a
//! fresh table, swap it in under the table mutex and bump the version
//! there. No epoch domain is involved: each handle owns `Arc`s of the
//! shards it routes to, so a retired table is freed by whoever drops
//! its last `Arc`, and a reader of the old table finishes on shards its
//! own `Arc`s keep alive.
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
//! 4. **Publish**: build a new table carrying the replacement intervals,
//!    swap it in under the table mutex and, still under it, bump the
//!    router version (`SeqCst`). Stalled and future operations observe
//!    the new version, refresh, re-route and retry.
//! 5. **Retire**: the displaced table is dropped right after the swap,
//!    outside the table mutex, releasing its shard `Arc`s. A
//!    decommissioned backend is freed — running its own teardown
//!    through its [`Reclaimer`](crate::reclaim::Reclaimer) — once the
//!    last handle snapshot referencing it refreshes (handles always drop
//!    the cached backend handle *before* releasing the backend, so
//!    parked cursors and search hints die with the handle, never
//!    dangling).
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
//! it is merged. A shard whose window write share reached
//! [`LoadPolicy::combine_write_pct`] is marked *write-hot* and is not
//! split: its hot keys would move to a child just as hot, at the cost
//! of a full seal/drain/copy. Its writes run directly, like every other
//! write. All thresholds are injectable, so tests drive
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

use crate::sync::{AtomicBool, AtomicU64, Mutex, MutexGuard};
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ops::RangeBounds;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::Arc;

use crate::map::{pairs, MapEntry};
use crate::ordered::{OrderedHandle, ScanBounds, Snapshot};
use crate::reclaim::str_eq;
use crate::set::{ConcurrentOrderedSet, InvariantViolation, SetHandle};
use crate::sharded::ShardKey;
use crate::stats::{CachePadded, OpStats, WindowCounter};
use crate::variants::{SinglyCursorList, SinglyHintedList, UnrolledArenaList};

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
    /// ops) at which the monitor marks the shard **write-hot** and stops
    /// splitting it (splitting cannot help when the hot set sits inside
    /// one shard: the hot keys move to a child that is just as hot, and
    /// every split pays a full seal/drain/copy). Its writes still run
    /// directly. `0` disables the rule (the default; only
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

    /// The default policy of [`ElasticCombineSet::new`]: a shard is
    /// marked write-hot, and no longer split, once 40% of its window
    /// were writes.
    pub fn combining() -> LoadPolicy {
        LoadPolicy {
            combine_write_pct: 40,
            ..LoadPolicy::default()
        }
    }

    /// Whether a shard that absorbed `writes` write ops out of `ops`
    /// total in the closed window is write-hot, given that it currently
    /// is (`current`) or is not. Mirrors the quarter-band hysteresis of
    /// [`morph_kind_settled`](LoadPolicy::morph_kind_settled): a marked
    /// shard only loses the mark once its write share falls 25% below
    /// the threshold, so a workload hovering at the boundary does not
    /// flap the mark every window.
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

    /// What the elastic core needs from a shard backend beyond being an
    /// ordered set: whether it can change arms when a migration rebuilds
    /// it, and how. Implemented for any [`ConcurrentOrderedSet`] (via the
    /// [`SetBackend`] adapter) and for the morphing [`MorphBackend`].
    pub trait ElasticBackend<K: ShardKey>: ConcurrentOrderedSet<K> + 'static {
        /// `true` iff this backend can change arms when a migration
        /// rebuilds it ([`MorphBackend`]); gates the monitor's morph pass
        /// so single-backend sets never pay for it.
        const MORPHS: bool = false;

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
    }

    /// Adapter giving any ordered set the [`ElasticBackend`] surface: the
    /// set itself, renamed to the elastic structure's registry name.
    pub struct SetBackend<B>(B);

    impl<K: ShardKey, B: ConcurrentOrderedSet<K> + 'static> ConcurrentOrderedSet<K> for SetBackend<B> {
        type Handle<'a>
            = B::Handle<'a>
        where
            Self: 'a;

        const NAME: &'static str = elastic_name(B::NAME);

        fn new() -> Self {
            SetBackend(B::new())
        }

        fn handle(&self) -> B::Handle<'_> {
            self.0.handle()
        }

        fn collect_keys(&mut self) -> Vec<K> {
            self.0.collect_keys()
        }

        fn check_invariants(&mut self) -> Result<(), InvariantViolation> {
            self.0.check_invariants()
        }
    }

    impl<K: ShardKey, B: ConcurrentOrderedSet<K> + 'static> ElasticBackend<K> for SetBackend<B> {}

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

    /// Forwards one method call to whichever arm the backend or handle
    /// runs.
    macro_rules! morph_delegate {
        ($value:expr, $h:ident => $body:expr) => {
            match $value {
                Self::List($h) => $body,
                Self::Unrolled($h) => $body,
                Self::Skip($h) => $body,
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

    impl<K, S> ConcurrentOrderedSet<K> for MorphBackend<K, S>
    where
        K: ShardKey,
        S: ConcurrentOrderedSet<K> + 'static,
        for<'a> S::Handle<'a>: OrderedHandle<K>,
    {
        type Handle<'a>
            = MorphHandle<'a, K, S>
        where
            Self: 'a;

        const NAME: &'static str = "elastic_morph";

        fn new() -> Self {
            Self::new_kind(MorphKind::List)
        }

        fn handle(&self) -> MorphHandle<'_, K, S> {
            match self {
                MorphBackend::List(b) => MorphHandle::List(b.handle()),
                MorphBackend::Unrolled(b) => MorphHandle::Unrolled(b.handle()),
                MorphBackend::Skip(b) => MorphHandle::Skip(b.handle()),
            }
        }

        fn collect_keys(&mut self) -> Vec<K> {
            morph_delegate!(self, b => b.collect_keys())
        }

        fn check_invariants(&mut self) -> Result<(), InvariantViolation> {
            morph_delegate!(self, b => b.check_invariants())
        }
    }

    impl<K, S> ElasticBackend<K> for MorphBackend<K, S>
    where
        K: ShardKey,
        S: ConcurrentOrderedSet<K> + 'static,
        for<'a> S::Handle<'a>: OrderedHandle<K>,
    {
        const MORPHS: bool = true;

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
    /// Set by the monitor when this shard's window write share crossed
    /// [`LoadPolicy::combine_write_pct`]; while set, the monitor does not
    /// split the shard. Read and written only by the monitor, under the
    /// writer lock.
    write_hot: AtomicBool,
    /// Window op counter feeding the load monitor.
    ops: WindowCounter,
    /// Write ops within the same window (a subset of
    /// [`ops`](ShardState::ops)), feeding the write-hot decision.
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

/// Clears a published activity slot when dropped, so an operation that
/// unwinds out of a backend call never leaves a migration draining it.
struct Published<'a>(&'a AtomicU64);

impl Drop for Published<'_> {
    fn drop(&mut self) {
        self.0.store(SLOT_IDLE, Release);
    }
}

/// One immutable, RCU-published generation of the routing table:
/// shards sorted by `lo`, intervals contiguous from rank 0. Never
/// mutated after publication; writers build a fresh table, swap it in
/// and drop the old one.
struct RouterTable<K, B> {
    shards: Vec<Arc<ShardState<K, B>>>,
    /// Live-table counter of the owning structure (diagnostics: leak
    /// tests and the benchmark's polls read it through
    /// `ElasticCore::tables_alive`). Deliberately a plain `std` atomic
    /// outside the [`crate::sync`] facade: it takes part in no
    /// concurrent protocol and must not add model-checker scheduling
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
        self.alive.fetch_sub(1, Relaxed);
    }
}

/// Why the table mutex cannot be poisoned: its critical sections only
/// clone or swap an `Arc`.
const TABLE_LOCK: &str = "the table mutex guards only an Arc clone or swap";

/// Panic message of the quiescent accessors when a shard is still
/// shared under `&mut self`: only a leaked handle can own one then.
const LEAKED_HANDLE: &str = "quiescent elastic structure still shares a shard: \
     a handle was leaked (`mem::forget`) and still owns its router snapshot";

/// The plan of one migration (see `ElasticCore::migrate`): which shards
/// it seals and what it rebuilds their keys into.
#[derive(Clone, Copy)]
enum Plan {
    /// Split one shard at its median key.
    Split,
    /// Merge one shard with its right neighbour.
    Merge,
    /// Rebuild one shard in another backend arm.
    Morph(MorphKind),
}

/// The shared elastic state: the published table, the writer lock, and
/// the monitor plumbing.
struct ElasticCore<K, B> {
    /// The current [`RouterTable`]. Taken only to clone the `Arc` (on
    /// refresh, handle creation and diagnostics) and to swap in a
    /// replacement ([`publish`](ElasticCore::publish)); never on the
    /// operation hot path.
    table: Mutex<Arc<RouterTable<K, B>>>,
    /// Serializes all migrations (split / merge / morph). Never taken on
    /// the operation hot path.
    writer: Mutex<()>,
    /// The router version, bumped under the table mutex by every
    /// publish. The hot path compares it (`Acquire`) with the version a
    /// handle recorded at its last refresh.
    version: AtomicU64,
    next_id: AtomicU64,
    policy: LoadPolicy,
    slots: SlotRegistry,
    splits: AtomicU64,
    merges: AtomicU64,
    morphs: AtomicU64,
    /// Times the monitor marked a shard write-hot.
    delegations: AtomicU64,
    /// Router tables of this structure currently allocated (published +
    /// displaced ones whose last `Arc` is not dropped yet). See
    /// `RouterTable::alive`.
    tables_alive: Arc<std::sync::atomic::AtomicUsize>,
}

impl<K, B> ElasticCore<K, B>
where
    K: ShardKey,
    B: ElasticBackend<K>,
    for<'a> B::Handle<'a>: OrderedHandle<K>,
{
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
                    write_hot: AtomicBool::new(false),
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
            table: Mutex::new(table),
            writer: Mutex::new(()),
            version: AtomicU64::new(1),
            next_id: AtomicU64::new(n as u64 + 1),
            policy,
            slots: SlotRegistry::default(),
            splits: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            morphs: AtomicU64::new(0),
            delegations: AtomicU64::new(0),
            tables_alive,
        }
    }

    fn handle(&self) -> CoreHandle<'_, K, B> {
        let (version, table) = self.snapshot();
        let entries: Vec<Entry<K, B>> = table
            .shards
            .iter()
            .map(|s| Entry::new(Arc::clone(s)))
            .collect();
        let bounds = entries.iter().map(|e| e.shard.lo).collect();
        CoreHandle {
            core: self,
            slot: self.slots.register(),
            version,
            entries,
            bounds,
            last_idx: 0,
            ops_since_check: 0,
            carry: OpStats::ZERO,
        }
    }

    /// The published table, cloned under the table mutex. Under the
    /// writer lock it stays the published one until the caller itself
    /// publishes.
    fn published(&self) -> Arc<RouterTable<K, B>> {
        Arc::clone(&self.table.lock().expect(TABLE_LOCK))
    }

    /// The router version and the published table, read in that order.
    /// A publish swaps the table before it bumps the version, so the
    /// table is never older than the version recorded with it — at
    /// worst newer, which costs one extra refresh on the next operation.
    fn snapshot(&self) -> (u64, Arc<RouterTable<K, B>>) {
        let version = self.version.load(Acquire);
        (version, self.published())
    }

    /// Publishes `shards` as a fresh table generation. Callers hold the
    /// writer lock. Under the table mutex it swaps the table in and
    /// then bumps the version, so a handle that sees the new version
    /// takes the mutex after the swap, and no handle clones the new
    /// table before the bump: the bump is the publish's linearization
    /// point. The mutex hands everything done while building the table
    /// — bulk-loading the fresh backends included — to every handle
    /// that clones it.
    ///
    /// The bump is `SeqCst`, not `Release`: a stalled handle
    /// (`CoreHandle::stall`) alternates its version load with a `SeqCst`
    /// seal load, and the single `SeqCst` order makes a bump that
    /// precedes that seal load visible to the next version load, so the
    /// stall cannot spin on a stale version. (Under a `Release` bump the
    /// model checker reports a livelock in `elastic_seal_drain_handshake`.)
    /// The displaced table is dropped after the mutex is released, so
    /// its teardown never delays a refresher.
    fn publish(&self, _writer: &MutexGuard<'_, ()>, shards: Vec<Arc<ShardState<K, B>>>) {
        let next = Arc::new(RouterTable::new(shards, &self.tables_alive));
        // Seeded mutation for the model checker's self-test only
        // (`--cfg interleave_mutate_router`): announcing the version
        // before the swap lets a refresher record it with the old table.
        #[cfg(interleave_mutate_router)]
        self.version.fetch_add(1, SeqCst);
        let mut table = self.table.lock().expect(TABLE_LOCK);
        let prev = std::mem::replace(&mut *table, next);
        #[cfg(not(interleave_mutate_router))]
        self.version.fetch_add(1, SeqCst);
        drop(table);
        drop(prev);
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

    /// Builds a fresh shard preloaded with `keys` (sorted ascending)
    /// through the backend's sorted batch path. It runs arm `kind`, or
    /// by default the arm [`LoadPolicy::morph_kind`] picks for that
    /// population: the seal-time morph decision.
    fn new_shard(&self, lo: u64, keys: &mut [K], kind: Option<MorphKind>) -> Arc<ShardState<K, B>> {
        let kind = kind.unwrap_or_else(|| self.policy.morph_kind(keys.len()));
        let backend = B::new_kind(kind);
        backend.handle().add_batch(keys);
        Arc::new(ShardState {
            id: self.next_id.fetch_add(1, Relaxed),
            lo,
            sealed: AtomicBool::new(false),
            // Replacement shards start unmarked; the monitor's
            // write-share sweep re-marks them.
            write_hot: AtomicBool::new(false),
            ops: WindowCounter::default(),
            writes: WindowCounter::default(),
            backend,
            _keys: PhantomData,
        })
    }

    /// Runs one migration of the shard at `idx` (and, for a merge, its
    /// right neighbour): seal → drain → copy → rebuild → publish. The
    /// plan only decides which shards are sealed and what their copied
    /// keys are rebuilt into. `false` if the plan does not apply
    /// (table full, no right neighbour, arm already running) or a split
    /// finds its keys cannot be partitioned (too few, or all on one
    /// rank); an aborted split unseals the shard so stalled operations
    /// proceed.
    fn migrate(&self, writer: &MutexGuard<'_, ()>, idx: usize, plan: Plan) -> bool {
        let (old, hi) = {
            let table = &self.published().shards;
            let applies = match plan {
                Plan::Split => table.len() < self.policy.max_shards,
                Plan::Merge => idx + 1 < table.len(),
                Plan::Morph(kind) => table[idx].backend.kind() != kind,
            };
            if !applies {
                return false;
            }
            let end = if matches!(plan, Plan::Merge) {
                idx + 2
            } else {
                idx + 1
            };
            (table[idx..end].to_vec(), table.get(end).map(|s| s.lo))
        };
        for shard in &old {
            shard.sealed.store(true, SeqCst);
        }
        for shard in &old {
            self.drain(shard.id);
        }
        let mut keys: Vec<K> = Vec::new();
        for shard in &old {
            keys.extend(shard.backend.handle().range(..).into_vec());
        }
        let lo = old[0].lo;
        let fresh = match plan {
            Plan::Split => {
                let mid = (keys.len() >= self.policy.min_split_keys.max(2))
                    .then(|| keys[keys.len() / 2].rank64())
                    .filter(|&m| m > lo && hi.is_none_or(|h| m < h));
                let Some(mid) = mid else {
                    // Abort: reopen the shard; nothing changed.
                    old[0].sealed.store(false, SeqCst);
                    return false;
                };
                let cut = keys.partition_point(|k| k.rank64() < mid);
                let (left, right) = keys.split_at_mut(cut);
                vec![
                    self.new_shard(lo, left, None),
                    self.new_shard(mid, right, None),
                ]
            }
            Plan::Merge => vec![self.new_shard(lo, &mut keys, None)],
            Plan::Morph(kind) => vec![self.new_shard(lo, &mut keys, Some(kind))],
        };
        let mut shards = self.published().shards.clone();
        shards.splice(idx..idx + old.len(), fresh);
        self.publish(writer, shards);
        let committed = match plan {
            Plan::Split => &self.splits,
            Plan::Merge => &self.merges,
            Plan::Morph(_) => &self.morphs,
        };
        committed.fetch_add(1, Relaxed);
        true
    }

    /// Closes the current load window and performs at most one
    /// migration. Non-blocking: backs off if a migration (or another
    /// monitor check) already holds the writer lock.
    fn try_rebalance(&self) {
        let Ok(writer) = self.writer.try_lock() else {
            return;
        };
        let table = self.published();
        let window: Vec<u64> = table.shards.iter().map(|s| s.ops.read()).collect();
        let writes: Vec<u64> = table.shards.iter().map(|s| s.writes.read()).collect();
        let shard_len = table.shards.len();
        let total: u64 = window.iter().sum();
        if total < self.policy.window_min_ops {
            return;
        }
        for s in table.shards.iter() {
            s.ops.reset();
            s.writes.reset();
        }
        // Write-hot sweep: mark each shard from its window write share,
        // with the `combine_settled` hysteresis. Runs before the split
        // decision because a write-hot shard is *not split*: splitting
        // moves the hot set to a child that is just as hot, and pays a
        // full seal/drain/copy for it.
        for (i, shard) in table.shards.iter().enumerate() {
            let cur = shard.write_hot.load(Relaxed);
            let want = self.policy.combine_settled(writes[i], window[i], cur);
            if want != cur {
                shard.write_hot.store(want, Relaxed);
                if want {
                    self.delegations.fetch_add(1, Relaxed);
                }
            }
        }
        let (hot, &hot_ops) = window
            .iter()
            .enumerate()
            .max_by_key(|&(_, ops)| *ops)
            .expect("router table is never empty");
        if !table.shards[hot].write_hot.load(Relaxed)
            && hot_ops * 100 > total * self.policy.split_share_pct as u64
            && shard_len < self.policy.max_shards
            && self.migrate(&writer, hot, Plan::Split)
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
                && self.migrate(&writer, cold, Plan::Merge)
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
            for (idx, shard) in table.shards.iter().enumerate() {
                let len = shard.backend.handle().len_estimate();
                let cur = shard.backend.kind();
                let want = self.policy.morph_kind_settled(len, cur);
                if want != cur {
                    self.migrate(&writer, idx, Plan::Morph(want));
                }
            }
        }
    }

    /// Runs the migration `plan` on the shard owning `key`'s rank, under
    /// the writer lock (deterministic test and operational support).
    /// `true` iff it committed.
    fn migrate_at(&self, key: K, plan: Plan) -> bool {
        let writer = self.writer.lock().unwrap();
        let idx = Self::route_in(&self.published().shards, key.rank64());
        self.migrate(&writer, idx, plan)
    }

    /// Router tables of this structure currently allocated (1 unless a
    /// publish or a refresh is mid-flight).
    fn tables_alive(&self) -> usize {
        self.tables_alive.load(Relaxed)
    }

    /// Exclusive access to every shard of the published table, in key
    /// order: the one path by which quiescent code reaches the shards.
    /// `&mut self` rules out live handles and migrations, and a publish
    /// drops the displaced table before it returns, so the table and
    /// every shard are unshared — unless a leaked handle still owns
    /// them, which panics with [`LEAKED_HANDLE`] instead of waiting.
    fn shards_mut(&mut self) -> Vec<&mut ShardState<K, B>> {
        let table = self.table.get_mut().expect(TABLE_LOCK);
        Arc::get_mut(table)
            .expect(LEAKED_HANDLE)
            .shards
            .iter_mut()
            .map(|s| Arc::get_mut(s).expect(LEAKED_HANDLE))
            .collect()
    }

    /// Quiescent snapshot of all keys across shards, ascending.
    fn collect_keys(&mut self) -> Vec<K> {
        self.shards_mut()
            .into_iter()
            .flat_map(|shard| shard.backend.collect_keys())
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
            shard.backend.check_invariants()?;
            for (position, key) in shard.backend.collect_keys().iter().enumerate() {
                let rank = key.rank64();
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

/// The per-thread elastic handle machinery behind [`ElasticHandle`] and
/// [`ElasticMapHandle`]: router snapshot, activity slot, op protocol,
/// stitched scans, and the amortized monitor hook.
struct CoreHandle<'s, K: ShardKey, B: ElasticBackend<K>> {
    core: &'s ElasticCore<K, B>,
    slot: Arc<CachePadded<AtomicU64>>,
    /// The router version read before the table `entries` were built
    /// from. Revalidated against `ElasticCore::version`; versions only
    /// grow, so an equal value means no publish since (no ABA).
    version: u64,
    /// One entry per shard of the snapshot table, in key order. The
    /// entries' `Arc`s, not the table, keep the routed shards alive.
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

impl<K, B> CoreHandle<'_, K, B>
where
    K: ShardKey,
    B: ElasticBackend<K>,
    for<'a> B::Handle<'a>: OrderedHandle<K>,
{
    #[inline]
    fn maybe_refresh(&mut self) {
        // The entire router read path: one `Acquire` load of the
        // version plus a compare — no mutex.
        if self.core.version.load(Acquire) != self.version {
            self.refresh();
        }
    }

    /// Re-snapshots the router. Entries for shards that survived keep
    /// their cached backend handle (and its cursor/hints); entries for
    /// decommissioned shards drain their counters into `carry` and drop
    /// — the drop releases the backend handle first, then the `Arc`
    /// that may be the last thing keeping the retired backend alive.
    fn refresh(&mut self) {
        let (version, table) = self.core.snapshot();
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
        self.version = version;
        self.last_idx = 0;
        for mut evicted in old {
            if let Some(h) = &mut evicted.cached {
                self.carry += h.take_stats();
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

    /// Waits out a migration of the shard at `idx`: returns when the
    /// router version moved past this handle's snapshot (commit) or the
    /// shard was unsealed (aborted split).
    fn stall(&self, idx: usize) {
        let shard = &self.entries[idx].shard;
        while self.core.version.load(Acquire) == self.version && shard.sealed.load(SeqCst) {
            crate::sync::thread_yield();
        }
    }

    /// The one guarded entry of every operation that writes (or, for a
    /// scan, must see a write-quiescent shard): revalidate the snapshot,
    /// route `rank`, publish the shard's id in the activity slot,
    /// re-check the seal, and on a seal unpublish, wait out the
    /// migration and retry. Returns the shard's index with the slot
    /// still published; [`run`](CoreHandle::run) performs the op and
    /// clears it.
    fn admit(&mut self, rank: u64) -> usize {
        loop {
            self.maybe_refresh();
            let idx = self.route(rank);
            let shard = &self.entries[idx].shard;
            self.slot.0.store(shard.id, SLOT_PUBLISH);
            if !shard.sealed.load(SeqCst) {
                return idx;
            }
            self.slot.0.store(SLOT_IDLE, Release);
            self.stall(idx);
        }
    }

    /// Runs `op` on the admitted shard at `idx`, clears the activity slot
    /// (also if `op` unwinds) and accounts `ops` operations, `writes` of
    /// them writes.
    fn run<R>(
        &mut self,
        idx: usize,
        writes: u32,
        ops: u32,
        op: impl FnOnce(&mut B::Handle<'static>) -> R,
    ) -> R {
        let published = Published(&self.slot.0);
        let out = op(self.entries[idx].handle());
        drop(published);
        self.note(idx, writes, ops);
        out
    }

    /// Runs the single-key write `op` against the backend handle of the
    /// shard owning `key` under the seal protocol.
    fn with_shard<R>(&mut self, key: K, op: impl FnOnce(&mut B::Handle<'static>) -> R) -> R {
        let idx = self.admit(key.rank64());
        self.run(idx, 1, 1, op)
    }

    /// Read-only analogue of [`with_shard`](CoreHandle::with_shard):
    /// routes and runs `op` without joining the seal protocol — no
    /// activity-slot publish, no seal check, no stall. The entire read
    /// path is `maybe_refresh`'s single `Acquire` version load plus the
    /// route.
    ///
    /// Safe and linearizable for single-key reads:
    ///
    /// * **Memory**: the routed [`Entry`] owns an `Arc<ShardState>`, so
    ///   the backend outlives the read even if the table retires and the
    ///   shard is decommissioned mid-op.
    /// * **Consistency**: a sealed shard's backend is *frozen* — the
    ///   migrator drains all writers before copying, and writers routed
    ///   here stall until the new table publishes. The old backend is
    ///   therefore exactly the authoritative contents at every instant
    ///   from the drain until the version bump, and a read that still
    ///   routes through the old table loaded the version before that
    ///   bump, so the pre-bump instant lies inside its invocation
    ///   window — a valid linearization point. Writers cannot race it
    ///   onto the old backend: they all go through the seal check. Nor
    ///   can they reach the new backends before the bump: the bump
    ///   happens under the table mutex, so any handle that clones the
    ///   new table does so after it.
    fn with_shard_read<R>(&mut self, key: K, op: impl FnOnce(&mut B::Handle<'static>) -> R) -> R {
        self.maybe_refresh();
        let idx = self.route(key.rank64());
        let out = op(self.entries[idx].handle());
        self.note(idx, 0, 1);
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
            let idx = self.admit(keys[i].rank64());
            let j = match self.entries.get(idx + 1).map(|e| e.shard.lo) {
                Some(hi) => i + keys[i..].partition_point(|k| k.rank64() < hi),
                None => keys.len(),
            };
            let run = (j - i) as u32;
            n += self.run(idx, run, run, |h| op(h, &mut keys[i..j]));
            i = j;
        }
        n
    }

    /// Stitched ordered scan across the (possibly shifting) intervals:
    /// walks shard by shard in rank order, resuming strictly after the
    /// last emitted key whenever a migration forces a re-route, so the
    /// output is sorted and duplicate-free even if the partition changes
    /// mid-scan.
    fn scan(&mut self, bounds: &ScanBounds<K>) -> Vec<K> {
        let mut out: Vec<K> = Vec::new();
        let mut cursor: u64 = bounds.seek_key().map_or(0, |k| k.rank64());
        loop {
            // End-of-window against the interval owning the cursor, with
            // the boundary semantics of the static router: an exclusive
            // end lying exactly on the interval's lower bound owns
            // nothing here.
            if let Some(end) = bounds.end_key() {
                self.maybe_refresh();
                let idx = self.route(cursor);
                let lo = self.bounds[idx];
                let er = end.rank64();
                if lo > er || (lo == er && bounds.end_excluded() && K::RANK_INJECTIVE) {
                    break;
                }
            }
            let idx = self.admit(cursor);
            let leg = match out.last() {
                Some(&l) => bounds.resume_after(l),
                None => *bounds,
            };
            out.extend(self.run(idx, 0, 1, |h| h.range(leg).into_vec()));
            match self.entries.get(idx + 1).map(|e| e.shard.lo) {
                Some(next_lo) => cursor = next_lo,
                None => break,
            }
        }
        out
    }

    /// Estimated live keys across the snapshot (read-only; does not take
    /// part in the seal protocol — estimates may lag a migration).
    fn len_estimate(&mut self) -> usize {
        self.maybe_refresh();
        self.entries
            .iter_mut()
            .map(|e| e.handle().len_estimate())
            .sum()
    }

    /// Counters: carry from evicted handles plus the live caches.
    fn live_stats(&self) -> OpStats {
        self.carry
            + self
                .entries
                .iter()
                .filter_map(|e| e.cached.as_ref())
                .map(|h| h.stats())
                .sum::<OpStats>()
    }

    /// Drains all counters: the carry and every live cache.
    fn take_stats(&mut self) -> OpStats {
        let live = self.entries.iter_mut().filter_map(|e| e.cached.as_mut());
        std::mem::take(&mut self.carry) + live.map(|h| h.take_stats()).sum::<OpStats>()
    }

    /// Load accounting + the amortized monitor hook: `ops` operations on
    /// `idx`, `writes` of them writes (feeding the write-hot decision).
    #[inline]
    fn note(&mut self, idx: usize, writes: u32, ops: u32) {
        let e = &mut self.entries[idx];
        e.local_writes += writes;
        e.local_ops += ops;
        if e.local_ops >= OPS_FLUSH_BLOCK {
            e.shard.ops.bump(e.local_ops as u64);
            e.local_ops = 0;
            if e.local_writes > 0 {
                e.shard.writes.bump(e.local_writes as u64);
                e.local_writes = 0;
            }
        }
        self.ops_since_check += ops;
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

/// An ordered set over elastically re-partitioned backend shards.
///
/// The elastic counterpart of [`ShardedSet`](crate::sharded::ShardedSet):
/// same monotone range partition, same per-thread shard-handle caches,
/// but the partition **adapts** — see the [module docs](self) for the
/// router, migration protocol and load monitor. The backend `B` is named
/// through one of the three set presets: [`ElasticSet`],
/// [`ElasticMorphSet`] and [`ElasticCombineSet`]. Each implements
/// [`ConcurrentOrderedSet`], so the whole benchmark harness runs on them
/// unchanged; [`ElasticMap`] wraps an [`ElasticSet`] of map entries.
///
/// `COMBINE` marks the [`ElasticCombineSet`] preset: its name and the
/// [`LoadPolicy::combining`] default of [`new`](Elastic::new). It is a
/// parameter of the front, not of the backend, so the two morphing
/// presets share one instantiation of the core and its handle.
///
/// # Quiescent access
///
/// The `&mut self` accessors — [`collect_keys`], [`check_invariants`],
/// [`shard_sizes`](Elastic::shard_sizes) and `shard_shapes` — never
/// wait: `&mut self` proves every handle is gone, so each shard is
/// owned by the published table alone. A handle leaked with
/// [`std::mem::forget`] keeps its shard `Arc`s forever; these accessors
/// then panic with a message naming the leaked handle.
///
/// [`collect_keys`]: ConcurrentOrderedSet::collect_keys
/// [`check_invariants`]: ConcurrentOrderedSet::check_invariants
pub struct Elastic<K, B, const COMBINE: bool = false> {
    core: ElasticCore<K, B>,
}

impl<K, B, const COMBINE: bool> Elastic<K, B, COMBINE>
where
    K: ShardKey,
    B: ElasticBackend<K>,
    for<'a> B::Handle<'a>: OrderedHandle<K>,
{
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
        self.core.published().shards.len()
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
        self.core.migrate_at(key, Plan::Split)
    }

    /// Deterministically merges the shard owning `key` with its right
    /// neighbour. `true` iff a merge committed.
    pub fn force_merge_at(&self, key: K) -> bool {
        self.core.migrate_at(key, Plan::Merge)
    }

    /// The intervals' lower rank bounds, ascending (diagnostics).
    pub fn shard_bounds(&self) -> Vec<u64> {
        self.core.published().shards.iter().map(|s| s.lo).collect()
    }

    /// Router tables currently allocated: the published one plus any
    /// displaced generation a publish or a refresh still holds. 1 when
    /// no migration is mid-flight (leak tests).
    pub fn tables_alive(&self) -> usize {
        self.core.tables_alive()
    }

    /// Live keys per shard, in key order (quiescent).
    pub fn shard_sizes(&mut self) -> Vec<usize> {
        self.core
            .shards_mut()
            .into_iter()
            .map(|shard| shard.backend.collect_keys().len())
            .collect()
    }

    /// Times the monitor marked a shard write-hot (and so stopped
    /// splitting it).
    pub fn delegations(&self) -> u64 {
        self.core.delegations.load(Relaxed)
    }

    /// Always 0: writes on write-hot shards run directly, so nothing is
    /// combined. Kept because the fixed benchmark (`perfbench`) reads it.
    pub fn combined(&self) -> u64 {
        0
    }
}

impl<K, B, const COMBINE: bool> Default for Elastic<K, B, COMBINE>
where
    K: ShardKey,
    B: ElasticBackend<K>,
    for<'a> B::Handle<'a>: OrderedHandle<K>,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, B, const COMBINE: bool> ConcurrentOrderedSet<K> for Elastic<K, B, COMBINE>
where
    K: ShardKey,
    B: ElasticBackend<K>,
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
        self.core.collect_keys()
    }

    fn check_invariants(&mut self) -> Result<(), InvariantViolation> {
        self.core.check()
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
        self.core.migrate_at(key, Plan::Morph(kind))
    }

    /// `(arm, live keys)` per shard, in key order (quiescent).
    pub fn shard_shapes(&mut self) -> Vec<(MorphKind, usize)> {
        self.core
            .shards_mut()
            .into_iter()
            .map(|shard| (shard.backend.kind(), shard.backend.collect_keys().len()))
            .collect()
    }
}

/// Per-thread handle over an [`Elastic`] structure.
pub struct ElasticHandle<'s, K: ShardKey, B: ElasticBackend<K>> {
    inner: CoreHandle<'s, K, B>,
}

impl<K, B> ElasticHandle<'_, K, B>
where
    K: ShardKey,
    B: ElasticBackend<K>,
    for<'a> B::Handle<'a>: OrderedHandle<K>,
{
    /// Number of backend handles this thread has actually created.
    pub fn cached_handles(&self) -> usize {
        self.inner.cached_handles()
    }
}

impl<K, B> SetHandle<K> for ElasticHandle<'_, K, B>
where
    K: ShardKey,
    B: ElasticBackend<K>,
    for<'a> B::Handle<'a>: OrderedHandle<K>,
{
    fn add(&mut self, key: K) -> bool {
        self.inner.with_shard(key, |h| h.add(key))
    }

    fn remove(&mut self, key: K) -> bool {
        self.inner.with_shard(key, |h| h.remove(key))
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
    B: ElasticBackend<K>,
    for<'a> B::Handle<'a>: OrderedHandle<K>,
{
    fn range<R: RangeBounds<K>>(&mut self, range: R) -> Snapshot<K> {
        Snapshot::from_vec(self.inner.scan(&ScanBounds::from_range(&range)))
    }

    fn len_estimate(&mut self) -> usize {
        self.inner.len_estimate()
    }
}

/// An elastic set over any ordered-set backend `B`: every shard runs
/// `B`. Its registry name derives from `B`'s (see [`elastic_name`]);
/// built under [`LoadPolicy::default`].
pub type ElasticSet<K, B> = Elastic<K, SetBackend<B>>;

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

/// An [`ElasticMorphSet`] that keeps write-hot shards whole: the monitor
/// watches each shard's write share and, once it crosses
/// [`LoadPolicy::combine_write_pct`], marks the shard write-hot and stops
/// splitting it. Splitting moves a write-hot set to a child shard that is
/// just as hot, and each split pays a full seal/drain/copy; an unsplit
/// shard keeps the router table stable. Writes on a write-hot shard run
/// directly, like every other write. Named `elastic_combine`; built under
/// [`LoadPolicy::combining`].
///
/// # Examples
///
/// ```
/// use pragmatic_list::elastic::{ElasticCombineSet, LoadPolicy};
/// use pragmatic_list::variants::SinglyCursorEpochList;
/// use pragmatic_list::{ConcurrentOrderedSet, SetHandle};
///
/// let set = ElasticCombineSet::<i64, SinglyCursorEpochList<i64>>::with_policy(LoadPolicy {
///     check_period: 16,
///     window_min_ops: 64,
///     ..LoadPolicy::combining()
/// });
/// let mut h = set.handle();
/// // Pure writes on 32 keys of one shard.
/// for i in 0..4_000i64 {
///     if i % 2 == 0 {
///         h.add(i % 32);
///     } else {
///         h.remove(i % 32);
///     }
/// }
/// assert!(set.delegations() >= 1); // the shard was marked write-hot
/// assert_eq!(set.splits(), 0); // and so never split
/// ```
pub type ElasticCombineSet<K, S> = Elastic<K, MorphBackend<K, S>, true>;

/// The shard backend of an [`ElasticMap`]: variant-d lists of
/// key-ordered map entries.
type EntryBackend<K, V> = SetBackend<SinglyCursorList<MapEntry<K, V>>>;

/// An ordered key→value map over elastically re-partitioned shards: an
/// [`ElasticSet`] of key-ordered map entries on the paper's variant d)
/// list, so the value rides in the key's node (as in
/// [`ListMap`](crate::map::ListMap) and
/// [`ShardedMap`](crate::sharded::ShardedMap), whose API it mirrors).
/// Every insert, lookup, delete, scan and migration is the set's code.
/// Built under [`LoadPolicy::default`].
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
pub struct ElasticMap<K: ShardKey, V: Copy + Send + Sync + 'static> {
    set: Elastic<MapEntry<K, V>, EntryBackend<K, V>>,
}

impl<K: ShardKey, V: Copy + Send + Sync + 'static> Default for ElasticMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: ShardKey, V: Copy + Send + Sync + 'static> ElasticMap<K, V> {
    /// Creates an empty map under [`LoadPolicy::default`].
    pub fn new() -> Self {
        ElasticMap {
            set: Elastic::new(),
        }
    }

    /// Creates an empty map governed by `policy`.
    pub fn with_policy(policy: LoadPolicy) -> Self {
        ElasticMap {
            set: Elastic::with_policy(policy),
        }
    }

    /// Per-thread handle.
    pub fn handle(&self) -> ElasticMapHandle<'_, K, V> {
        ElasticMapHandle {
            inner: self.set.core.handle(),
        }
    }

    /// The thresholds this map rebalances under.
    pub fn policy(&self) -> LoadPolicy {
        self.set.policy()
    }

    /// Committed splits so far.
    pub fn splits(&self) -> u64 {
        self.set.splits()
    }

    /// Deterministically splits the shard owning `key`. `true` iff a
    /// split committed.
    pub fn force_split_at(&self, key: K) -> bool {
        self.set.force_split_at(MapEntry::probe(key))
    }

    /// Deterministically merges the shard owning `key` with its right
    /// neighbour. `true` iff a merge committed.
    pub fn force_merge_at(&self, key: K) -> bool {
        self.set.force_merge_at(MapEntry::probe(key))
    }

    /// Quiescent snapshot of all `(key, value)` pairs in key order.
    pub fn collect(&mut self) -> Vec<(K, V)> {
        let entries = self.set.collect_keys();
        entries.into_iter().map(MapEntry::pair).collect()
    }

    /// Quiescent structural check (router + shard lists + routing).
    pub fn check_invariants(&mut self) -> Result<(), InvariantViolation> {
        self.set.check_invariants()
    }
}

/// Per-thread handle over an [`ElasticMap`].
pub struct ElasticMapHandle<'m, K: ShardKey, V: Copy + Send + Sync + 'static> {
    inner: CoreHandle<'m, MapEntry<K, V>, EntryBackend<K, V>>,
}

impl<K: ShardKey, V: Copy + Send + Sync + 'static> ElasticMapHandle<'_, K, V> {
    /// Inserts `key → value`; `true` iff the key was absent (no
    /// overwrite — [`ListMap`](crate::map::ListMap)'s contract).
    pub fn insert(&mut self, key: K, value: V) -> bool {
        let entry = MapEntry::new(key, value);
        self.inner.with_shard(entry, |h| h.add(entry))
    }

    /// Removes `key`; returns its value iff this thread won the delete.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let probe = MapEntry::probe(key);
        self.inner
            .with_shard(probe, |h| h.remove_impl(probe))?
            .value
    }

    /// Wait-free lookup (read path: no seal handshake).
    pub fn get(&mut self, key: K) -> Option<V> {
        let probe = MapEntry::probe(key);
        self.inner
            .with_shard_read(probe, |h| h.find_impl(probe))?
            .value
    }

    /// `true` iff `key` is present.
    pub fn contains_key(&mut self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Scans live `(key, value)` pairs with keys inside `range`,
    /// ascending, stitched across migrations.
    pub fn range<R: RangeBounds<K>>(&mut self, range: R) -> Snapshot<(K, V)> {
        let bounds = ScanBounds::from_range(&MapEntry::probe_range(&range));
        pairs(Snapshot::from_vec(self.inner.scan(&bounds)))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::ListMap;
    use crate::variants::SinglyHintedList;

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

    /// How long the bounded quiescence tests wait for the owner thread.
    const QUIESCENT_BOUND: std::time::Duration = std::time::Duration::from_secs(20);

    /// A thread pinned in the global epoch collector must not stall the
    /// quiescent accessors: the router retires nothing through it. The
    /// test thread holds the pin while an owner thread splits, checks
    /// and collects; the wait for the owner is bounded.
    #[test]
    fn quiescent_access_ignores_a_foreign_epoch_pin() {
        let mut set = Set::with_policy(LoadPolicy {
            initial_shards: 2,
            min_split_keys: 4,
            ..LoadPolicy::default()
        });
        {
            let mut h = set.handle();
            for k in 0..64 {
                h.add(spread(k));
            }
        }
        let pin = crossbeam_epoch::pin();
        let (done, result) = std::sync::mpsc::channel();
        let owner = std::thread::spawn(move || {
            assert!(set.force_split_at(spread(32)));
            set.check_invariants().unwrap();
            done.send(set.collect_keys().len()).unwrap();
        });
        let got = result.recv_timeout(QUIESCENT_BOUND);
        drop(pin);
        assert_eq!(
            got,
            Ok(64),
            "check_invariants / collect_keys must return while another thread is pinned"
        );
        owner.join().unwrap();
    }

    /// A handle leaked with `mem::forget` keeps its shards shared for
    /// good; the quiescent accessors must panic and name the cause
    /// rather than wait for it. The wait for the owner is bounded.
    #[test]
    fn quiescent_access_panics_on_a_leaked_handle() {
        let mut set = Set::with_policy(LoadPolicy {
            initial_shards: 2,
            ..LoadPolicy::default()
        });
        let mut h = set.handle();
        assert!(h.add(spread(1)));
        std::mem::forget(h);
        let (done, result) = std::sync::mpsc::channel();
        let owner = std::thread::spawn(move || {
            let out =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| set.check_invariants()));
            let msg = out.err().map(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            });
            done.send(msg).unwrap();
        });
        let msg = result
            .recv_timeout(QUIESCENT_BOUND)
            .expect("check_invariants must not wait on a leaked handle");
        assert_eq!(msg.as_deref(), Some(LEAKED_HANDLE));
        owner.join().unwrap();
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

    #[test]
    fn elastic_map_runs_the_set_code() {
        // One seeded tape with the same forced splits and merges, applied
        // to the elastic map and to the elastic set of variant-d lists:
        // every result and every counter must agree, because the map is
        // that set with the value riding in the key's node.
        let policy = LoadPolicy {
            initial_shards: 2,
            min_split_keys: 4,
            ..LoadPolicy::default()
        };
        let map = ElasticMap::<i64, i64>::with_policy(policy);
        let set = Set::with_policy(policy);
        let mut hm = map.handle();
        let mut hs = set.handle();
        let mut x = 0x5151_7e57u64;
        for i in 0..6_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = spread(((x >> 33) % 200) as i64);
            match (x >> 11) % 3 {
                0 => assert_eq!(hm.insert(k, -k), hs.add(k), "insert {k}"),
                1 => assert_eq!(hm.remove(k).is_some(), hs.remove(k), "remove {k}"),
                _ => assert_eq!(hm.get(k).is_some(), hs.contains(k), "get {k}"),
            }
            if i % 400 == 200 {
                assert_eq!(map.force_split_at(k), set.force_split_at(k), "split {i}");
            }
            if i % 1200 == 1000 {
                assert_eq!(map.force_merge_at(k), set.force_merge_at(k), "merge {i}");
            }
        }
        assert_eq!(map.splits(), set.splits());
        assert_eq!(hm.stats(), hs.stats());
        // Pinned at the commit that introduced this test.
        let s = hs.stats();
        assert_eq!((s.adds, s.rems, s.cons, s.trav), (1065, 964, 11354, 21260));
        assert_eq!((set.splits(), set.merges()), (15, 5));
        assert!(hm.iter().iter().all(|&(k, v)| v == -k));
        drop((hm, hs));
        let (mut map, mut set) = (map, set);
        let keys: Vec<i64> = map.collect().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, set.collect_keys());
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
    fn auto_delegation_engages_on_write_heavy_shard_instead_of_split() {
        let set = CombineSet::with_policy(LoadPolicy {
            combine_write_pct: 30,
            ..eager()
        });
        let mut h = set.handle();
        // A pure-write hot shard: share 100% ≥ 30% at the first window
        // close, so the sweep marks it write-hot *before* the split
        // decision runs — the hot shard is never split.
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
            "a 100% write share must mark the shard write-hot"
        );
        assert_eq!(set.splits(), 0, "a write-hot shard must not be split");
        drop(h);
        let mut set = set;
        set.check_invariants().unwrap();
    }

    /// A key whose comparisons panic on [`POISON`], so a backend op on it
    /// unwinds from inside the list.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Poisonable(i64);

    const POISON: Poisonable = Poisonable(7);

    impl Ord for Poisonable {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            assert!(*self != POISON && *other != POISON, "poisoned key");
            self.0.cmp(&other.0)
        }
    }

    impl PartialOrd for Poisonable {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl crate::Key for Poisonable {
        const NEG_INF: Self = Poisonable(i64::MIN);
        const POS_INF: Self = Poisonable(i64::MAX);
    }

    impl ShardKey for Poisonable {
        const RANK_INJECTIVE: bool = true;
        fn rank64(self) -> u64 {
            self.0.rank64()
        }
    }

    /// Runs `f` on a fresh thread and waits at most 20 s for its result,
    /// so a lost wake-up fails the test instead of hanging it (the stuck
    /// thread is left behind; only a failing run has one).
    fn bounded<R: Send + 'static>(what: &str, f: impl FnOnce() -> R + Send + 'static) -> R {
        use std::sync::mpsc::RecvTimeoutError;
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(20)) {
            Ok(out) => {
                worker
                    .join()
                    .expect("the worker returns right after sending");
                out
            }
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().expect_err("the worker panicked"))
            }
            Err(RecvTimeoutError::Timeout) => panic!("{what} did not return within 20 s"),
        }
    }

    /// A direct write that panics inside the backend must clear its
    /// activity slot although its handle lives on, so a later migration
    /// of the shard still drains and returns.
    #[test]
    fn direct_panic_leaves_the_shard_live() {
        let set: &'static ElasticSet<Poisonable, SinglyCursorList<Poisonable>> =
            Box::leak(Box::new(ElasticSet::with_policy(LoadPolicy {
                initial_shards: 1,
                min_split_keys: 2,
                ..LoadPolicy::default()
            })));
        let mut h = set.handle();
        for k in [1, 2, 3, 4, 8] {
            assert!(h.add(Poisonable(k)));
        }
        assert!(set.force_split_at(Poisonable(3)));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.add(POISON)));
        assert!(unwound.is_err(), "the poisoned direct op must panic");
        assert!(bounded("a merge after a direct panic", move || {
            set.force_merge_at(Poisonable(2))
        }));
        assert!(h.add(Poisonable(10)));
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

        /// Drives the epoch collector until `done` holds (an epoch
        /// backend's retired nodes free lazily).
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
        /// displaced router table must be freed while the set is alive.
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
                // every superseded router generation must be freed, so
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
            // The retired backend stays pinned by this handle's
            // snapshot entries.
            let (_, f_before) = leak::snapshot();
            // Refresh the handle's snapshot (dropping the last shard
            // Arc), then drive the epoch collector: the retired backend
            // frees while the set is alive, not at set drop.
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
            // Another thread's flush may still be freeing the retired
            // backend's last nodes (the sentinels go last). Wait for the
            // balance before releasing the lock, or the next leak test
            // counts those frees.
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
