//! # lockfree-skiplist
//!
//! A lock-free skiplist set that applies the paper's pragmatic retry
//! improvements *per level* — the follow-on the paper proposes in §4:
//! the mild improvements are "easy, unintrusive improvements […] with
//! significant enough performance improvements to be considered, also
//! for more complex algorithms (skip lists and hash tables) that build
//! on the linked list data structure".
//!
//! The base algorithm is the Herlihy–Shavit lock-free skiplist (itself a
//! tower of Harris/Michael lists): each node carries a tower of marked
//! `next` pointers; logical deletion marks the tower top-down, the
//! bottom-level mark is the linearization point, and the search function
//! unlinks marked nodes level by level. The textbook version restarts
//! the *entire* multi-level search from the head sentinel on any failed
//! unlink `CAS()` — the same draconic behaviour the paper attacks, paid
//! once per level here. With `MILD = true` a failed unlink whose
//! predecessor did not become marked instead re-reads the predecessor's
//! pointer and continues at the current level, restarting only when the
//! predecessor itself is found marked.
//!
//! [`SkipListSet`] (mild) and [`DraconicSkipList`] (textbook) implement
//! the same [`ConcurrentOrderedSet`] interface as the lists, so the
//! benchmark drivers in `bench-harness` run them unchanged; the
//! `skiplist_mild` bench in `crates/bench` measures the difference.
//!
//! Memory reclamation follows the paper's scheme ([`pragmatic_list::arena`]):
//! nodes are registered at allocation and freed when the skiplist drops.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};
use std::sync::atomic::{AtomicI64, AtomicUsize};
use std::sync::{Arc, Mutex};

use glibc_rand::GlibcRandom;
use pragmatic_list::arena::{LocalArena, Registry};
use pragmatic_list::marked::{MarkedAtomic, MarkedPtr};
use pragmatic_list::ordered::{OrderedHandle, ScanBounds, Snapshot};
use pragmatic_list::set::{ConcurrentOrderedSet, InvariantViolation, SetHandle};
use pragmatic_list::{Key, OpStats};

/// Maximum tower height; with p = 1/2 this comfortably covers 2^20
/// elements.
pub const MAX_LEVEL: usize = 20;

struct SkipNode<K> {
    key: K,
    /// Tower of next pointers, `levels.len() == top_level + 1`; the mark
    /// on level 0 is the logical-deletion linearization point.
    levels: Vec<MarkedAtomic<SkipNode<K>>>,
}

impl<K: Key> SkipNode<K> {
    fn alloc(key: K, height: usize, succs: &[*mut SkipNode<K>]) -> *mut SkipNode<K> {
        let levels = (0..height)
            .map(|l| MarkedAtomic::new(succs.get(l).copied().unwrap_or(std::ptr::null_mut())))
            .collect();
        Box::into_raw(Box::new(SkipNode { key, levels }))
    }

    #[inline]
    fn top(&self) -> usize {
        self.levels.len() - 1
    }
}

/// Lock-free skiplist set, generic over the paper's mild-improvement
/// policy for failed unlink CASes.
///
/// # Examples
///
/// ```
/// use lockfree_skiplist::SkipListSet;
/// use pragmatic_list::{ConcurrentOrderedSet, SetHandle};
///
/// let set = SkipListSet::<i64>::new();
/// std::thread::scope(|s| {
///     for t in 0..4i64 {
///         let set = &set;
///         s.spawn(move || {
///             let mut h = set.handle();
///             for i in 0..500 {
///                 h.add(t + i * 4);
///             }
///         });
///     }
/// });
/// let mut set = set;
/// assert_eq!(set.collect_keys().len(), 2000);
/// ```
pub struct SkipList<K: Key, const MILD: bool> {
    head: *mut SkipNode<K>,
    tail: *mut SkipNode<K>,
    registry: Registry<SkipNode<K>>,
    /// Per-handle live-item counter slots (same idiom as the flat
    /// lists' `LiveSlots`): each slot is written only by its owning
    /// handle, so `len_estimate` is an O(handles) sum instead of an
    /// O(n) bottom-level walk — which matters once the elastic morph
    /// sweep polls every shard's size each load window.
    live: Mutex<Vec<Arc<pragmatic_list::CachePadded<AtomicI64>>>>,
    /// Handles created so far: seeds each handle's tower-height stream,
    /// so a list's tower shapes depend only on its own handle order.
    handle_seq: AtomicUsize,
}

/// The mild-improvement skiplist (recommended).
pub type SkipListSet<K> = SkipList<K, true>;
/// The textbook skiplist: full restart on any failed unlink CAS.
pub type DraconicSkipList<K> = SkipList<K, false>;

// SAFETY: shared state behind atomics; nodes arena-stable until `Drop`,
// which `&mut self` serialises after all handles are gone.
unsafe impl<K: Key, const MILD: bool> Send for SkipList<K, MILD> {}
unsafe impl<K: Key, const MILD: bool> Sync for SkipList<K, MILD> {}

impl<K: Key, const MILD: bool> Default for SkipList<K, MILD> {
    fn default() -> Self {
        <Self as ConcurrentOrderedSet<K>>::new()
    }
}

impl<K: Key, const MILD: bool> Drop for SkipList<K, MILD> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; every non-sentinel node registered once.
        unsafe {
            self.registry.free_all();
            drop(Box::from_raw(self.head));
            drop(Box::from_raw(self.tail));
        }
    }
}

impl<K: Key, const MILD: bool> SkipList<K, MILD> {
    /// Ordered snapshot of the live keys (bottom level, unmarked nodes).
    pub fn to_vec(&mut self) -> Vec<K> {
        let mut out = Vec::new();
        // SAFETY: exclusive access, arena-stable nodes.
        unsafe {
            let mut curr = (&(*self.head).levels)[0].load(Acquire).ptr();
            while curr != self.tail {
                if !(&(*curr).levels)[0].load(Acquire).is_marked() {
                    out.push((*curr).key);
                }
                curr = (&(*curr).levels)[0].load(Acquire).ptr();
            }
        }
        out
    }

    /// Structural invariants of the quiescent skiplist: every level is
    /// strictly sorted, reaches the tail, and is a sub-chain of the
    /// level below it.
    pub fn validate(&mut self) -> Result<(), InvariantViolation> {
        let budget = self.registry.len() + 2;
        // SAFETY: exclusive access.
        unsafe {
            // Collect the bottom-level node set for the subset check.
            let mut bottom: Vec<*mut SkipNode<K>> = Vec::new();
            let mut curr = (&(*self.head).levels)[0].load(Acquire).ptr();
            let mut steps = 0;
            while curr != self.tail {
                bottom.push(curr);
                curr = (&(*curr).levels)[0].load(Acquire).ptr();
                steps += 1;
                if steps > budget {
                    return Err(InvariantViolation::TailUnreachable);
                }
            }
            for level in 0..MAX_LEVEL {
                let mut prev_key = K::NEG_INF;
                let mut curr = (&(*self.head).levels)[level].load(Acquire).ptr();
                let mut pos = 0usize;
                while curr != self.tail {
                    if pos > budget {
                        return Err(InvariantViolation::TailUnreachable);
                    }
                    let k = (*curr).key;
                    if k <= prev_key || k >= K::POS_INF {
                        return Err(InvariantViolation::OutOfOrder { position: pos });
                    }
                    if level > 0 && !bottom.contains(&curr) {
                        // A node present above but unreachable at the
                        // bottom violates the tower-subset invariant
                        // (tolerating bottom-marked leftovers would need
                        // the mark check; quiescent lists post-search
                        // should not have them reachable above).
                        return Err(InvariantViolation::OutOfOrder { position: pos });
                    }
                    prev_key = k;
                    curr = (&(*curr).levels)[level].load(Acquire).ptr();
                    pos += 1;
                }
            }
        }
        Ok(())
    }

    /// Total nodes ever allocated (diagnostic).
    pub fn allocated_nodes(&self) -> usize {
        self.registry.len()
    }
}

impl<K: Key, const MILD: bool> ConcurrentOrderedSet<K> for SkipList<K, MILD> {
    type Handle<'a>
        = SkipListHandle<'a, K, MILD>
    where
        Self: 'a;

    const NAME: &'static str = if MILD {
        "skiplist_mild"
    } else {
        "skiplist_draconic"
    };

    fn new() -> Self {
        let tail = Box::into_raw(Box::new(SkipNode {
            key: K::POS_INF,
            levels: (0..MAX_LEVEL).map(|_| MarkedAtomic::null()).collect(),
        }));
        let head = Box::into_raw(Box::new(SkipNode {
            key: K::NEG_INF,
            levels: (0..MAX_LEVEL).map(|_| MarkedAtomic::new(tail)).collect(),
        }));
        Self {
            head,
            tail,
            registry: Registry::new(),
            live: Mutex::new(Vec::new()),
            handle_seq: AtomicUsize::new(1),
        }
    }

    fn handle(&self) -> SkipListHandle<'_, K, MILD> {
        // Every handle gets its own tower-height stream; the per-list
        // counter keeps streams distinct across threads and, unlike a
        // process-wide one, independent of what else ran in the process.
        let seq = self.handle_seq.fetch_add(1, Relaxed);
        // Claim a live-counter slot: an orphaned one (no other owner)
        // when available, a fresh one otherwise — slots outlive their
        // handles so the residual net count keeps contributing.
        let live = {
            let mut slots = self.live.lock().unwrap();
            match slots.iter().find(|s| Arc::strong_count(s) == 1) {
                Some(slot) => Arc::clone(slot),
                None => {
                    let slot = Arc::new(pragmatic_list::CachePadded(AtomicI64::new(0)));
                    slots.push(Arc::clone(&slot));
                    slot
                }
            }
        };
        SkipListHandle {
            list: self,
            live,
            preds: [std::ptr::null_mut(); MAX_LEVEL],
            succs: [std::ptr::null_mut(); MAX_LEVEL],
            rng: GlibcRandom::new(glibc_rand::thread_seed(0x5EED_4B1D, seq)),
            arena: LocalArena::new(),
            stats: OpStats::ZERO,
            _not_sync: PhantomData,
        }
    }

    fn collect_keys(&mut self) -> Vec<K> {
        self.to_vec()
    }

    fn check_invariants(&mut self) -> Result<(), InvariantViolation> {
        self.validate()
    }
}

/// Per-thread handle over a [`SkipList`]: owns the search scratch arrays
/// (`preds`/`succs`), the tower-height PRNG, counters and the
/// allocation log.
pub struct SkipListHandle<'l, K: Key, const MILD: bool> {
    list: &'l SkipList<K, MILD>,
    /// This handle's cache-padded live-item counter slot (successful
    /// adds minus successful removes); single-writer, so bumps are a
    /// plain load+store on an exclusively-held line.
    live: Arc<pragmatic_list::CachePadded<AtomicI64>>,
    preds: [*mut SkipNode<K>; MAX_LEVEL],
    succs: [*mut SkipNode<K>; MAX_LEVEL],
    rng: GlibcRandom,
    arena: LocalArena<SkipNode<K>>,
    stats: OpStats,
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

impl<'l, K: Key, const MILD: bool> Drop for SkipListHandle<'l, K, MILD> {
    fn drop(&mut self) {
        self.arena.flush_into(&self.list.registry);
    }
}

impl<'l, K: Key, const MILD: bool> SkipListHandle<'l, K, MILD> {
    /// Single-writer bump of this handle's live counter.
    #[inline]
    fn live_bump(&self, delta: i64) {
        self.live
            .0
            .store(self.live.0.load(Relaxed) + delta, Relaxed);
    }

    /// Geometric tower height with p = 1/2 (number of trailing ones of a
    /// 31-bit uniform draw), capped at `MAX_LEVEL`.
    fn random_height(&mut self) -> usize {
        let bits = self.rng.next_i31() as u32;
        ((bits.trailing_ones() as usize) + 1).min(MAX_LEVEL)
    }

    /// Multi-level search: fills `preds`/`succs` so that at every level
    /// `preds[l].key < key <= succs[l].key`, unlinking marked nodes
    /// encountered on the way. Returns whether the bottom-level
    /// successor carries `key`.
    ///
    /// Failed unlink CASes follow the policy: textbook restarts the
    /// whole descent from the head; mild re-reads the predecessor's
    /// pointer and only restarts when the predecessor became marked —
    /// the paper's first observation transplanted to each level.
    fn find(&mut self, key: K) -> bool {
        let head = self.list.head;
        // SAFETY (whole body): arena-stable nodes, atomics throughout.
        unsafe {
            'retry: loop {
                let mut pred = head;
                for level in (0..MAX_LEVEL).rev() {
                    let mut curr = (&(*pred).levels)[level].load(Acquire).ptr();
                    loop {
                        let mut succ = (&(*curr).levels)[level].load(Acquire);
                        while succ.is_marked() {
                            let mut succ_ptr = succ.ptr();
                            match (&(*pred).levels)[level].compare_exchange(
                                MarkedPtr::unmarked(curr),
                                MarkedPtr::unmarked(succ_ptr),
                                AcqRel,
                                Acquire,
                            ) {
                                Ok(()) => {}
                                Err(observed) => {
                                    self.stats.fail += 1;
                                    if !MILD || observed.is_marked() {
                                        self.stats.rtry += 1;
                                        continue 'retry;
                                    }
                                    succ_ptr = observed.ptr();
                                }
                            }
                            curr = succ_ptr;
                            self.stats.trav += 1;
                            succ = (&(*curr).levels)[level].load(Acquire);
                        }
                        if (*curr).key < key {
                            pred = curr;
                            curr = succ.ptr();
                            self.stats.trav += 1;
                        } else {
                            break;
                        }
                    }
                    self.preds[level] = pred;
                    self.succs[level] = curr;
                }
                return (*self.succs[0]).key == key;
            }
        }
    }

    fn add_impl(&mut self, key: K) -> bool {
        debug_assert!(key.is_valid_key(), "sentinel keys are reserved");
        let height = self.random_height();
        // SAFETY: arena-stable nodes.
        unsafe {
            loop {
                if self.find(key) {
                    return false;
                }
                let node = SkipNode::alloc(key, height, &self.succs[..height]);
                self.arena.record(node);
                // Bottom-level link is the insert linearization point.
                if (&(*self.preds[0]).levels)[0]
                    .compare_exchange(
                        MarkedPtr::unmarked(self.succs[0]),
                        MarkedPtr::unmarked(node),
                        AcqRel,
                        Acquire,
                    )
                    .is_err()
                {
                    // Lost the race; the node was never published. It is
                    // registered in the arena, so it will be reclaimed on
                    // drop; retry with a fresh search.
                    self.stats.fail += 1;
                    continue;
                }
                self.stats.adds += 1;
                self.live_bump(1);
                // Link the upper levels, refreshing the search on each
                // conflict. If our node gets deleted concurrently while
                // we are still linking, stop — the searches unlink
                // whatever we managed to publish.
                'levels: for level in 1..height {
                    loop {
                        let pred = self.preds[level];
                        let succ = self.succs[level];
                        // Point the node at its (possibly refreshed)
                        // successor, giving up if the level got marked.
                        let cur = (&(*node).levels)[level].load(Acquire);
                        if cur.is_marked() {
                            break 'levels;
                        }
                        if cur.ptr() != succ
                            && (&(*node).levels)[level]
                                .compare_exchange(cur, MarkedPtr::unmarked(succ), AcqRel, Acquire)
                                .is_err()
                        {
                            break 'levels; // concurrently marked
                        }
                        if (&(*pred).levels)[level]
                            .compare_exchange(
                                MarkedPtr::unmarked(succ),
                                MarkedPtr::unmarked(node),
                                AcqRel,
                                Acquire,
                            )
                            .is_ok()
                        {
                            continue 'levels;
                        }
                        self.stats.fail += 1;
                        self.find(key);
                        if self.succs[level] == node {
                            continue 'levels; // someone linked it for us
                        }
                        if !std::ptr::eq(self.succs[0], node) {
                            break 'levels; // node already deleted
                        }
                    }
                }
                return true;
            }
        }
    }

    fn remove_impl(&mut self, key: K) -> bool {
        debug_assert!(key.is_valid_key(), "sentinel keys are reserved");
        // SAFETY: arena-stable nodes.
        unsafe {
            if !self.find(key) {
                return false;
            }
            let node = self.succs[0];
            // Mark the upper levels top-down (idempotent; concurrent
            // removers may race here, only the bottom level decides).
            for level in (1..=(*node).top()).rev() {
                let mut s = (&(*node).levels)[level].load(Acquire);
                while !s.is_marked() {
                    match (&(*node).levels)[level].compare_exchange(
                        s,
                        s.with_mark(),
                        AcqRel,
                        Acquire,
                    ) {
                        Ok(()) => break,
                        Err(observed) => {
                            self.stats.fail += 1;
                            s = observed;
                        }
                    }
                }
            }
            // Bottom level: the linearization point. The in-place retry
            // loop is the paper's mild rem() improvement (the textbook
            // alternative would re-run the whole multi-level find).
            let mut s = (&(*node).levels)[0].load(Acquire);
            loop {
                if s.is_marked() {
                    return false; // another thread won the delete
                }
                match (&(*node).levels)[0].compare_exchange(s, s.with_mark(), AcqRel, Acquire) {
                    Ok(()) => {
                        // Physical unlink through a fresh search.
                        self.find(key);
                        self.stats.rems += 1;
                        self.live_bump(-1);
                        return true;
                    }
                    Err(observed) => {
                        self.stats.fail += 1;
                        s = observed;
                    }
                }
            }
        }
    }

    fn contains_impl(&mut self, key: K) -> bool {
        debug_assert!(key.is_valid_key(), "sentinel keys are reserved");
        // Wait-free descent that skips marked nodes without helping.
        // SAFETY: arena-stable nodes.
        unsafe {
            let mut pred = self.list.head;
            let mut curr = pred;
            for level in (0..MAX_LEVEL).rev() {
                curr = (&(*pred).levels)[level].load(Acquire).ptr();
                loop {
                    let mut succ = (&(*curr).levels)[level].load(Acquire);
                    while succ.is_marked() {
                        curr = succ.ptr();
                        self.stats.cons += 1;
                        succ = (&(*curr).levels)[level].load(Acquire);
                    }
                    if (*curr).key < key {
                        pred = curr;
                        curr = succ.ptr();
                        self.stats.cons += 1;
                    } else {
                        break;
                    }
                }
            }
            (*curr).key == key && !(&(*curr).levels)[0].load(Acquire).is_marked()
        }
    }
}

impl<'l, K: Key, const MILD: bool> SetHandle<K> for SkipListHandle<'l, K, MILD> {
    #[inline]
    fn add(&mut self, key: K) -> bool {
        self.add_impl(key)
    }

    #[inline]
    fn remove(&mut self, key: K) -> bool {
        self.remove_impl(key)
    }

    #[inline]
    fn contains(&mut self, key: K) -> bool {
        self.contains_impl(key)
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn take_stats(&mut self) -> OpStats {
        std::mem::take(&mut self.stats)
    }
}

impl<'l, K: Key, const MILD: bool> OrderedHandle<K> for SkipListHandle<'l, K, MILD> {
    fn range<R: std::ops::RangeBounds<K>>(&mut self, range: R) -> Snapshot<K> {
        let bounds = ScanBounds::from_range(&range);
        let mut out = Vec::new();
        // SAFETY: arena-stable nodes; wait-free read-only traversal.
        unsafe {
            let tail = self.list.tail;
            // Tower descent to the last node strictly below the window
            // start — this is where the skiplist earns its keep over the
            // flat lists' O(n) walk to the window.
            let mut pred = self.list.head;
            if let Some(seek) = bounds.seek_key() {
                for level in (0..MAX_LEVEL).rev() {
                    let mut curr = (&(*pred).levels)[level].load(Acquire).ptr();
                    while curr != tail && (*curr).key < seek {
                        pred = curr;
                        curr = (&(*curr).levels)[level].load(Acquire).ptr();
                    }
                }
            }
            // Bottom-level walk across the window (keys strictly
            // increase along level 0).
            pragmatic_list::ordered::scan_chain(
                &bounds,
                (&(*pred).levels)[0].load(Acquire).ptr(),
                tail,
                |p| {
                    let succ = (&(*p).levels)[0].load(Acquire);
                    ((*p).key, !succ.is_marked(), succ.ptr())
                },
                |_, key| out.push(key),
            );
        }
        Snapshot::from_vec(out)
    }

    fn len_estimate(&mut self) -> usize {
        // O(handles) sum of the per-handle live counters — exact when
        // quiescent, an estimate under concurrency (same contract as
        // the bottom-level walk it replaces, without the O(n) cost the
        // elastic morph sweep would otherwise pay per load window).
        let total: i64 = self
            .list
            .live
            .lock()
            .unwrap()
            .iter()
            .map(|s| s.0.load(Relaxed))
            .sum();
        total.max(0) as usize
    }
}

/// The mild skiplist range-partitioned across `N` keyspace shards (see
/// [`pragmatic_list::sharded`]): each shard is a full skiplist, so the
/// tower descent runs over `1/N`-th of the keys while the facade keeps
/// the `ConcurrentOrderedSet` + `OrderedHandle` surface.
pub type ShardedSkipList<K, const N: usize> =
    pragmatic_list::sharded::ShardedSet<K, SkipListSet<K>, N>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_alias_routes_and_scans() {
        let set = ShardedSkipList::<i64, 8>::new();
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let set = &set;
                s.spawn(move || {
                    let mut h = set.handle();
                    // Spread across the keyspace so several shards engage.
                    for i in 0..250 {
                        assert!(h.add((t + i * 4 - 500) * (i64::MAX / 1024)));
                    }
                });
            }
        });
        let mut h = set.handle();
        assert_eq!(h.len_estimate(), 1000);
        let all = h.iter().into_vec();
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        drop(h);
        let mut set = set;
        assert_eq!(set.collect_keys().len(), 1000);
        set.check_invariants().unwrap();
    }

    #[test]
    fn basic_semantics_both_policies() {
        fn run<S: ConcurrentOrderedSet<i64>>() {
            let s = S::new();
            let mut h = s.handle();
            assert!(!h.contains(5));
            assert!(h.add(5));
            assert!(!h.add(5));
            assert!(h.contains(5));
            assert!(h.add(3) && h.add(7) && h.add(1));
            assert!(h.remove(5));
            assert!(!h.remove(5));
            assert!(!h.contains(5));
            assert!(h.contains(3) && h.contains(7) && h.contains(1));
            assert!(h.add(5));
        }
        run::<SkipListSet<i64>>();
        run::<DraconicSkipList<i64>>();
    }

    #[test]
    fn snapshot_sorted_and_validates() {
        let mut s = SkipListSet::<i64>::new();
        {
            let mut h = s.handle();
            for k in [50i64, 20, 80, 10, 60, 30, 90, 40, 70] {
                assert!(h.add(k));
            }
            assert!(h.remove(50));
            assert!(h.remove(10));
        }
        assert_eq!(s.to_vec(), vec![20, 30, 40, 60, 70, 80, 90]);
        s.validate().unwrap();
    }

    #[test]
    fn large_sequential_insert_logarithmic_contains() {
        let n = 20_000i64;
        let s = SkipListSet::<i64>::new();
        let mut h = s.handle();
        for k in 1..=n {
            h.add(k);
        }
        let _ = h.take_stats();
        for k in [1, n / 4, n / 2, n - 1, n] {
            assert!(h.contains(k));
        }
        let cons = h.stats().cons;
        // 5 lookups in a 20k-element skiplist: roughly 5 * (log2(20k) + levels)
        // traversal steps; generous bound to stay robust to tower luck.
        assert!(
            cons < 5 * 200,
            "skiplist contains should be logarithmic, cons={cons}"
        );
    }

    #[test]
    fn tower_heights_are_geometric() {
        let s = SkipListSet::<i64>::new();
        let mut h = s.handle();
        let mut counts = [0u32; MAX_LEVEL + 1];
        for _ in 0..10_000 {
            counts[h.random_height()] += 1;
        }
        assert_eq!(counts[0], 0, "heights start at 1");
        assert!(
            counts[1] > 4_000 && counts[1] < 6_000,
            "P(h=1)≈1/2: {}",
            counts[1]
        );
        assert!(
            counts[2] > 1_900 && counts[2] < 3_100,
            "P(h=2)≈1/4: {}",
            counts[2]
        );
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let s = SkipListSet::<i64>::new();
        std::thread::scope(|sc| {
            for t in 0..4i64 {
                let s = &s;
                sc.spawn(move || {
                    let mut h = s.handle();
                    for i in 0..1_000 {
                        assert!(h.add(t + i * 4 + 1));
                    }
                });
            }
        });
        let mut s = s;
        assert_eq!(s.to_vec().len(), 4_000);
        s.validate().unwrap();
    }

    #[test]
    fn concurrent_same_key_single_winner() {
        use std::sync::atomic::{AtomicU32, Ordering};
        for _ in 0..20 {
            let s = SkipListSet::<i64>::new();
            let wins = AtomicU32::new(0);
            std::thread::scope(|sc| {
                for _ in 0..8 {
                    let s = &s;
                    let wins = &wins;
                    sc.spawn(move || {
                        let mut h = s.handle();
                        if h.add(42) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            assert_eq!(wins.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn concurrent_add_remove_churn_validates() {
        let s = SkipListSet::<i64>::new();
        let totals: OpStats = std::thread::scope(|sc| {
            let ws: Vec<_> = (0..8)
                .map(|t| {
                    let s = &s;
                    sc.spawn(move || {
                        let mut h = s.handle();
                        let mut rng = GlibcRandom::new(glibc_rand::thread_seed(31337, t));
                        for _ in 0..2_000 {
                            let k = rng.below(128) as i64 + 1;
                            if rng.below(2) == 0 {
                                h.add(k);
                            } else {
                                h.remove(k);
                            }
                        }
                        h.take_stats()
                    })
                })
                .collect();
            ws.into_iter().map(|w| w.join().unwrap()).sum()
        });
        let mut s = s;
        s.validate().unwrap();
        let live = s.to_vec().len();
        assert_eq!(totals.adds - totals.rems, live as u64);
        let mut h = s.handle();
        assert_eq!(
            h.len_estimate(),
            live,
            "O(1) live counter is exact at quiescence"
        );
    }

    #[test]
    fn draconic_restarts_more_than_mild_under_contention() {
        fn run<S: ConcurrentOrderedSet<i64>>() -> OpStats {
            let s = S::new();
            std::thread::scope(|sc| {
                let ws: Vec<_> = (0..8)
                    .map(|t| {
                        let s = &s;
                        sc.spawn(move || {
                            let mut h = s.handle();
                            let mut rng = GlibcRandom::new(glibc_rand::thread_seed(7, t));
                            for _ in 0..3_000 {
                                let k = rng.below(16) as i64 + 1;
                                if rng.below(2) == 0 {
                                    h.add(k);
                                } else {
                                    h.remove(k);
                                }
                            }
                            h.take_stats()
                        })
                    })
                    .collect();
                ws.into_iter().map(|w| w.join().unwrap()).sum()
            })
        }
        // On a single-core box contention is scheduler-dependent, so the
        // only safe assertions are the structural ones that hold on any
        // schedule: a restart is always preceded by a failed CAS, and the
        // mild policy can only ever restart *less* often per failure than
        // the textbook one (which restarts on every unlink failure).
        let mild = run::<SkipListSet<i64>>();
        let drac = run::<DraconicSkipList<i64>>();
        assert!(
            mild.rtry <= mild.fail,
            "restart implies a failed CAS: {mild:?}"
        );
        assert!(
            drac.rtry <= drac.fail,
            "restart implies a failed CAS: {drac:?}"
        );
    }

    #[test]
    fn matches_seq_oracle_on_random_tape() {
        use seq_list::{SeqOrderedSet, SinglySeqList};
        let s = SkipListSet::<i64>::new();
        let mut h = s.handle();
        let mut oracle = SinglySeqList::<i64>::new();
        let mut rng = GlibcRandom::new(777);
        for _ in 0..5_000 {
            let k = rng.below(64) as i64 + 1;
            match rng.below(3) {
                0 => assert_eq!(h.add(k), oracle.insert(k)),
                1 => assert_eq!(h.remove(k), oracle.remove(k)),
                _ => assert_eq!(h.contains(k), oracle.contains(k)),
            }
        }
        drop(h);
        let mut s = s;
        assert_eq!(s.to_vec(), oracle.to_vec());
    }
}
