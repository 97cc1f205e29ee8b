//! The singly linked lock-free ordered list: paper variants a), b), d), e).
//!
//! One generic implementation, [`SinglyList`], covers four of the paper's
//! six benchmarked variants through three compile-time policy flags (the
//! flags mirror the paper's `#ifdef`s, and every branch on them is
//! resolved at monomorphisation time, so each variant compiles to the
//! same specialised hot path as the C original):
//!
//! | flag       | paper improvement |
//! |------------|-------------------|
//! | `MILD`     | §2 observations 1–3: a failed `CAS()` whose target did
//! |            | *not* become marked re-reads the pointer instead of
//! |            | restarting the search from the head (search and `add()`),
//! |            | and `rem()` retries the marking CAS in place |
//! | `CURSOR`   | the per-thread cursor: operations start the search from
//! |            | the last recorded position when the sought key is larger |
//! | `FETCH_OR` | `rem()` marks with an atomic `fetch_or` that cannot fail |
//!
//! The named combinations live in [`crate::variants`]:
//! a) *draconic* `(false, false, false)`, b) *singly* `(true, false,
//! false)`, d) *singly-cursor* `(true, true, false)`, e) *singly-fetch-or*
//! `(true, true, true)`, plus the ablation-only *cursor-only*
//! `(false, true, false)`.
//!
//! # Algorithm
//!
//! This is the Harris/Michael lock-free ordered list: items are kept in
//! strictly increasing key order between a `-∞` head sentinel and a `+∞`
//! tail sentinel; an item is *in* the set iff it is reachable from the
//! head and its `next` field is unmarked. Deletion first marks the
//! victim's `next` (logical delete — the linearization point), then any
//! thread may physically unlink it. The internal search function
//! ([`pos`](SinglyHandle) in the paper, `search` here) returns an adjacent
//! pair `(pred, curr)` with `pred.key < key <= curr.key`, unlinking every
//! marked node it encounters on the way — Listing 1 of the paper,
//! including the `TEXTBOOK` / mild `#else` paths verbatim.
//!
//! # Memory reclamation and safety
//!
//! The list is generic over a [`Reclaimer`] (fourth type parameter,
//! defaulting to the paper's [`ArenaReclaim`]); see [`crate::reclaim`]
//! for the trait contract each dereference below leans on:
//!
//! * **arena** (`STABLE`): nodes live until list drop — cursors persist
//!   across operations exactly as in the paper;
//! * **epoch**: each operation holds a pin; the cursor is reset at every
//!   operation entry and only resumes within one operation;
//! * **hazard pointers** (`PROTECTS`): every traversal step publishes
//!   the candidate node in a hazard slot and re-validates it is still
//!   the predecessor's unmarked successor before dereferencing.
//!
//! The thread whose `CAS()` physically unlinks a marked node retires it
//! (a no-op for the arena scheme); unlinking requires the predecessor's
//! `next` to be unmarked while marked nodes' `next` fields are frozen,
//! so exactly one unlink — and hence one retirement — can succeed per
//! node.

use crate::sync::AtomicI64;
use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};
use std::sync::Arc;

use crate::hint::SearchHints;
use crate::marked::{MarkedAtomic, MarkedPtr};
use crate::ordered::{OrderedHandle, ScanBounds, Snapshot};
use crate::prefetch::prefetch_read;
use crate::reclaim::{ArenaReclaim, ListNode, Reclaimer};
use crate::set::{ConcurrentOrderedSet, InvariantViolation, SetHandle};
use crate::stats::{live_bump, CachePadded, LiveSlots, OpStats};
use crate::Key;

/// List node: `next` carries the deletion mark in its low bit.
///
/// `key` is written once before the node is published by a releasing CAS
/// and never mutated afterwards, so unsynchronised reads are sound.
#[repr(C)]
pub(crate) struct Node<K: Key> {
    pub(crate) next: MarkedAtomic<Node<K>>,
    pub(crate) key: K,
}

impl<K: Key> ListNode<K> for Node<K> {
    #[inline]
    fn next_ref(&self) -> &MarkedAtomic<Self> {
        &self.next
    }
    #[inline]
    fn node_key(&self) -> K {
        self.key
    }
}

#[cfg(test)]
impl<K: Key> Drop for Node<K> {
    fn drop(&mut self) {
        crate::reclaim::leak::note_free::<K>();
    }
}

/// The singly linked lock-free ordered set, generic over the paper's
/// pragmatic-improvement policies and the memory [`Reclaimer`] (see the
/// module docs).
///
/// Shared across threads by reference; each thread operates through its
/// own [`SinglyHandle`] obtained from [`ConcurrentOrderedSet::handle`].
///
/// # Examples
///
/// ```
/// use pragmatic_list::variants::SinglyCursorList;
/// use pragmatic_list::{ConcurrentOrderedSet, SetHandle};
///
/// let list = SinglyCursorList::<i64>::new();
/// std::thread::scope(|s| {
///     for t in 0..4 {
///         let list = &list;
///         s.spawn(move || {
///             let mut h = list.handle();
///             for i in 0..100 {
///                 h.add(t * 100 + i);
///             }
///         });
///     }
/// });
/// let mut list = list;
/// assert_eq!(list.to_vec().len(), 400);
/// ```
pub struct SinglyList<
    K: Key,
    const MILD: bool,
    const CURSOR: bool,
    const FETCH_OR: bool,
    R: Reclaimer = ArenaReclaim,
    const HINTS: usize = 0,
> {
    head: *mut Node<K>,
    tail: *mut Node<K>,
    reclaim: R::Shared<Node<K>>,
    live: LiveSlots,
}

// SAFETY: all shared node state is accessed through atomics; the raw
// head/tail pointers are immutable after construction; node lifetime is
// governed by the reclaimer contract (see `crate::reclaim`), and `Drop`
// requires exclusive access.
unsafe impl<
        K: Key,
        const MILD: bool,
        const CURSOR: bool,
        const FETCH_OR: bool,
        R: Reclaimer,
        const HINTS: usize,
    > Send for SinglyList<K, MILD, CURSOR, FETCH_OR, R, HINTS>
{
}
// SAFETY: same argument as the `Send` impl directly above.
unsafe impl<
        K: Key,
        const MILD: bool,
        const CURSOR: bool,
        const FETCH_OR: bool,
        R: Reclaimer,
        const HINTS: usize,
    > Sync for SinglyList<K, MILD, CURSOR, FETCH_OR, R, HINTS>
{
}

impl<
        K: Key,
        const MILD: bool,
        const CURSOR: bool,
        const FETCH_OR: bool,
        R: Reclaimer,
        const HINTS: usize,
    > Default for SinglyList<K, MILD, CURSOR, FETCH_OR, R, HINTS>
{
    fn default() -> Self {
        <Self as ConcurrentOrderedSet<K>>::new()
    }
}

impl<
        K: Key,
        const MILD: bool,
        const CURSOR: bool,
        const FETCH_OR: bool,
        R: Reclaimer,
        const HINTS: usize,
    > SinglyList<K, MILD, CURSOR, FETCH_OR, R, HINTS>
{
    fn alloc_sentinels() -> (*mut Node<K>, *mut Node<K>) {
        #[cfg(test)]
        {
            crate::reclaim::leak::note_alloc::<K>();
            crate::reclaim::leak::note_alloc::<K>();
        }
        let tail = Box::into_raw(Box::new(Node {
            next: MarkedAtomic::null(),
            key: K::POS_INF,
        }));
        let head = Box::into_raw(Box::new(Node {
            next: MarkedAtomic::new(tail),
            key: K::NEG_INF,
        }));
        (head, tail)
    }

    /// Number of live items: the O(1) sum of the per-handle cache-padded
    /// add/remove counters (no traversal, no shared-memory writes).
    ///
    /// Exact when quiescent; during concurrency, operations in flight
    /// make it an estimate — the same contract the O(n) chain scan it
    /// replaces had. Sentinels are not counted.
    pub fn len_approx(&self) -> usize {
        self.live.sum()
    }

    /// Snapshot of the live keys in order. Requires `&mut self`, i.e. a
    /// quiescent list with no outstanding handles.
    pub fn to_vec(&mut self) -> Vec<K> {
        let mut out = Vec::new();
        // SAFETY: exclusive access; chain is stable (retired nodes are
        // off-chain, and nothing frees concurrently without handles).
        unsafe {
            let mut curr = (*self.head).next.load(Acquire).ptr();
            while curr != self.tail {
                if !(*curr).next.load(Acquire).is_marked() {
                    out.push((*curr).key);
                }
                curr = (*curr).next.load(Acquire).ptr();
            }
        }
        out
    }

    /// Checks the structural invariants of the quiescent list: strictly
    /// increasing keys along the `next` chain (marked nodes included),
    /// unmarked sentinels, and tail reachability.
    pub fn validate(&mut self) -> Result<(), InvariantViolation> {
        // SAFETY: exclusive access; chain is stable.
        unsafe {
            if (*self.head).next.load(Acquire).is_marked() {
                return Err(InvariantViolation::MarkedSentinel);
            }
            let budget = R::tracked_nodes(&self.reclaim) + 2;
            let mut prev_key = K::NEG_INF;
            let mut curr = (*self.head).next.load(Acquire).ptr();
            let mut pos = 0usize;
            while curr != self.tail {
                if pos > budget {
                    return Err(InvariantViolation::TailUnreachable);
                }
                let k = (*curr).key;
                if k <= prev_key || k >= K::POS_INF {
                    return Err(InvariantViolation::OutOfOrder { position: pos });
                }
                prev_key = k;
                curr = (*curr).next.load(Acquire).ptr();
                pos += 1;
            }
            if (*self.tail).next.load(Acquire).is_marked() {
                return Err(InvariantViolation::MarkedSentinel);
            }
        }
        Ok(())
    }

    /// Total nodes ever allocated (diagnostic; includes logically deleted
    /// and never-published spares, excludes sentinels). For the arena
    /// scheme this counts registry-flushed nodes, i.e. it is exact once
    /// every handle is dropped.
    pub fn allocated_nodes(&self) -> usize {
        R::tracked_nodes(&self.reclaim)
    }
}

impl<
        K: Key,
        const MILD: bool,
        const CURSOR: bool,
        const FETCH_OR: bool,
        R: Reclaimer,
        const HINTS: usize,
    > Drop for SinglyList<K, MILD, CURSOR, FETCH_OR, R, HINTS>
{
    fn drop(&mut self) {
        // SAFETY: `&mut self` proves no handles are alive. STABLE
        // schemes track every node in the shared state; for the others,
        // nodes still *reachable* (live or marked-but-unlinked) are
        // freed by walking the chain, while retired nodes belong to the
        // scheme.
        unsafe {
            if !R::STABLE {
                let mut curr = (*self.head).next.load(Relaxed).ptr();
                while curr != self.tail {
                    let next = (*curr).next.load(Relaxed).ptr();
                    R::free_owned(&self.reclaim, curr);
                    curr = next;
                }
            }
            R::drop_shared(&mut self.reclaim);
            drop(Box::from_raw(self.head));
            drop(Box::from_raw(self.tail));
        }
    }
}

impl<
        K: Key,
        const MILD: bool,
        const CURSOR: bool,
        const FETCH_OR: bool,
        R: Reclaimer,
        const HINTS: usize,
    > ConcurrentOrderedSet<K> for SinglyList<K, MILD, CURSOR, FETCH_OR, R, HINTS>
{
    type Handle<'a>
        = SinglyHandle<'a, K, MILD, CURSOR, FETCH_OR, R, HINTS>
    where
        Self: 'a;

    const NAME: &'static str = {
        use crate::reclaim::str_eq;
        if str_eq(R::NAME, "arena") {
            if HINTS > 0 {
                // The hinted extensions (search hints are inert off the
                // arena scheme, so only arena instantiations get their
                // own names).
                if FETCH_OR {
                    "singly_fetch_or_hint"
                } else if MILD && CURSOR {
                    "singly_hint"
                } else if MILD {
                    "singly_mild_hint"
                } else if CURSOR {
                    "cursor_only_hint"
                } else {
                    "draconic_hint"
                }
            } else if FETCH_OR {
                "singly_fetch_or"
            } else if MILD && CURSOR {
                "singly_cursor"
            } else if MILD {
                "singly"
            } else if CURSOR {
                "cursor_only"
            } else {
                "draconic"
            }
        } else if str_eq(R::NAME, "epoch") {
            if FETCH_OR {
                "singly_fetch_or_epoch"
            } else if MILD && CURSOR {
                "singly_cursor_epoch"
            } else if MILD {
                "singly_epoch"
            } else if CURSOR {
                "cursor_only_epoch"
            } else {
                // The textbook list with epoch reclamation keeps its
                // pre-`Reclaimer` name.
                "epoch"
            }
        } else if str_eq(R::NAME, "hp") {
            if FETCH_OR {
                "singly_fetch_or_hp"
            } else if MILD && CURSOR {
                "singly_cursor_hp"
            } else if MILD {
                "singly_hp"
            } else if CURSOR {
                "cursor_only_hp"
            } else {
                "draconic_hp"
            }
        } else {
            // A new Reclaimer must be added to this name table (falling
            // through would silently collide with an existing variant).
            panic!("unknown Reclaimer::NAME — extend SinglyList's NAME table")
        }
    };

    fn new() -> Self {
        let (head, tail) = Self::alloc_sentinels();
        Self {
            head,
            tail,
            reclaim: R::Shared::default(),
            live: LiveSlots::default(),
        }
    }

    fn handle(&self) -> SinglyHandle<'_, K, MILD, CURSOR, FETCH_OR, R, HINTS> {
        SinglyHandle {
            list: self,
            cursor: self.head,
            spare: std::ptr::null_mut(),
            hints: SearchHints::new(),
            live: self.live.register(),
            thread: R::register(&self.reclaim),
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

/// Per-thread handle over a [`SinglyList`]: owns the cursor (the paper's
/// `list->pred` slot of the thread-private `list_t` view), the operation
/// counters and the reclaimer's per-thread state (the arena allocation
/// log, or the hazard slots and retire list).
pub struct SinglyHandle<
    'l,
    K: Key,
    const MILD: bool,
    const CURSOR: bool,
    const FETCH_OR: bool,
    R: Reclaimer = ArenaReclaim,
    const HINTS: usize = 0,
> {
    pub(crate) list: &'l SinglyList<K, MILD, CURSOR, FETCH_OR, R, HINTS>,
    /// Last recorded `pred` position; persists across operations only
    /// for `CURSOR` variants under a `STABLE` reclaimer (reset to head
    /// at every public-operation entry otherwise), but always carries
    /// the mild within-operation restart position between internal
    /// search retries.
    cursor: *mut Node<K>,
    /// Unpublished node kept for reuse across failed insert CASes (and
    /// across `add()` calls); exclusively ours until published.
    spare: *mut Node<K>,
    /// Multi-position generalization of the cursor (see [`crate::hint`]);
    /// consulted and refreshed only when `HINTS > 0` under a `STABLE`
    /// reclaimer. Zero-sized for the paper variants (`HINTS = 0`).
    hints: SearchHints<K, Node<K>, HINTS>,
    /// This handle's cache-padded live-item counter slot (successful
    /// adds minus removes); summing all slots is the O(1)
    /// [`len_estimate`](OrderedHandle::len_estimate).
    live: Arc<CachePadded<AtomicI64>>,
    thread: R::Thread<Node<K>>,
    stats: OpStats,
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

impl<
        'l,
        K: Key,
        const MILD: bool,
        const CURSOR: bool,
        const FETCH_OR: bool,
        R: Reclaimer,
        const HINTS: usize,
    > Drop for SinglyHandle<'l, K, MILD, CURSOR, FETCH_OR, R, HINTS>
{
    fn drop(&mut self) {
        if !self.spare.is_null() {
            // SAFETY: the spare was never published.
            unsafe { R::dealloc_unpublished(&self.list.reclaim, &mut self.thread, self.spare) };
        }
        R::unregister(&self.list.reclaim, &mut self.thread);
    }
}

impl<
        'l,
        K: Key,
        const MILD: bool,
        const CURSOR: bool,
        const FETCH_OR: bool,
        R: Reclaimer,
        const HINTS: usize,
    > SinglyHandle<'l, K, MILD, CURSOR, FETCH_OR, R, HINTS>
{
    /// Start-of-operation cursor policy: non-cursor variants forget the
    /// previous position, exactly distinguishing variant b) from d) —
    /// and *every* variant forgets it under a non-`STABLE` reclaimer,
    /// where a pointer must not outlive the operation that observed it.
    #[inline]
    fn begin_op(&mut self) {
        if !CURSOR || !R::STABLE {
            self.cursor = self.list.head;
        }
    }

    /// The search function — Listing 1 of the paper, both `#ifdef` arms.
    ///
    /// Returns `(pred, curr)` with `pred.key < key <= curr.key`, both
    /// observed adjacent and unmarked, having physically unlinked every
    /// marked node traversed. Stores `pred` as the new cursor (the
    /// listing's `list->pred = pred`).
    ///
    /// Under a non-`STABLE` reclaimer the stored cursor is only resumed
    /// on the *first* attempt (it is then the head, or the result of the
    /// previous search in the same pinned operation — still protected);
    /// later restarts go to the head.
    fn search(&mut self, key: K) -> (*mut Node<K>, *mut Node<K>) {
        let head = self.list.head;
        let mut resume_ok = true;
        let trav_at_entry = self.stats.trav;
        // SAFETY (whole body): the reclaimer contract — arena nodes are
        // stable for 'l; otherwise the operation's pin covers every node
        // observed during it, and for PROTECTS schemes each candidate is
        // protected and validated by `acquire_curr` before dereference.
        unsafe {
            'retry: loop {
                // Starting position. TEXTBOOK: always the head.
                // Otherwise: the best of the last recorded position and
                // the per-thread hints — whichever unmarked node with a
                // strictly smaller key gets closest to the sought key —
                // provided it is trustworthy under the reclaimer (see
                // above). A marked candidate falls back to the next best
                // and ultimately the head; stale hints are thereby
                // filtered at every (re)start.
                let mut pred = if !R::STABLE && !resume_ok {
                    head
                } else {
                    let mut start = head;
                    let mut start_key = K::NEG_INF;
                    if MILD || CURSOR {
                        let c = self.cursor;
                        if !(*c).next.load(Acquire).is_marked() && key > (*c).key {
                            start = c;
                            start_key = (*c).key;
                        }
                    }
                    if HINTS > 0 && R::STABLE {
                        for &(hk, hn) in self.hints.entries() {
                            if !hn.is_null()
                                && hk > start_key
                                && hk < key
                                && !(*hn).next.load(Acquire).is_marked()
                            {
                                start = hn;
                                start_key = hk;
                            }
                        }
                    }
                    start
                };
                resume_ok = false;
                let mut curr = (*pred).next.load(Acquire).ptr();
                if R::PROTECTS {
                    match crate::reclaim::acquire_curr::<K, Node<K>, R>(&self.thread, pred, curr) {
                        Ok(c) => curr = c,
                        Err(()) => {
                            self.stats.rtry += 1;
                            continue 'retry;
                        }
                    }
                }
                loop {
                    let mut succ = (*curr).next.load(Acquire);
                    // Overlap the next dependent load with the key
                    // comparison below (no-op past the window's end).
                    prefetch_read(succ.ptr());
                    // `curr` is marked: unlink it (helping), or handle the
                    // failed CAS per policy.
                    while succ.is_marked() {
                        let mut succ_ptr = succ.ptr();
                        match (*pred).next.compare_exchange(
                            MarkedPtr::unmarked(curr),
                            MarkedPtr::unmarked(succ_ptr),
                            AcqRel,
                            Acquire,
                        ) {
                            Ok(()) => {
                                // The winner of the unlink owns the
                                // node's reclamation (no-op for arena).
                                R::retire(&self.list.reclaim, &mut self.thread, curr);
                            }
                            Err(observed) => {
                                self.stats.fail += 1;
                                if !MILD {
                                    // Draconic: any failure restarts from
                                    // the head.
                                    self.stats.rtry += 1;
                                    continue 'retry;
                                }
                                // Mild: if `pred` itself was not marked,
                                // only its pointer changed (another thread
                                // unlinked `curr` first, or inserted);
                                // rereading the pointer suffices.
                                if observed.is_marked() {
                                    self.stats.rtry += 1;
                                    continue 'retry;
                                }
                                succ_ptr = observed.ptr();
                            }
                        }
                        if R::PROTECTS {
                            match crate::reclaim::acquire_curr::<K, Node<K>, R>(
                                &self.thread,
                                pred,
                                succ_ptr,
                            ) {
                                Ok(c) => succ_ptr = c,
                                Err(()) => {
                                    self.stats.rtry += 1;
                                    continue 'retry;
                                }
                            }
                        }
                        curr = succ_ptr;
                        self.stats.trav += 1;
                        succ = (*curr).next.load(Acquire);
                    }
                    if key <= (*curr).key {
                        if MILD || CURSOR {
                            self.cursor = pred;
                        }
                        if HINTS > 0
                            && R::STABLE
                            && self.stats.trav - trav_at_entry
                                >= crate::hint::HINT_RECORD_MIN_TRAVERSAL
                        {
                            // Record only after a long walk: short walks
                            // mean the start was already well-hinted, and
                            // recording them would evict useful slots
                            // with near-duplicates (see `crate::hint`).
                            self.hints.record((*pred).key, pred);
                        }
                        return (pred, curr);
                    }
                    if R::PROTECTS {
                        // The hand-off: `curr` stays protected in slot 1
                        // while it also becomes slot 0's predecessor.
                        R::protect(&self.thread, 0, curr);
                    }
                    pred = curr;
                    curr = (*curr).next.load(Acquire).ptr();
                    if R::PROTECTS {
                        match crate::reclaim::acquire_curr::<K, Node<K>, R>(
                            &self.thread,
                            pred,
                            curr,
                        ) {
                            Ok(c) => curr = c,
                            Err(()) => {
                                self.stats.rtry += 1;
                                continue 'retry;
                            }
                        }
                    }
                    self.stats.trav += 1;
                }
            }
        }
    }

    /// Takes the spare node or allocates (and reclaimer-registers) a
    /// fresh one, keyed `key`, with `next` primed to `succ`.
    #[inline]
    fn prepare_node(&mut self, key: K, succ: *mut Node<K>) -> *mut Node<K> {
        if self.spare.is_null() {
            #[cfg(test)]
            crate::reclaim::leak::note_alloc::<K>();
            let node = R::alloc(
                &self.list.reclaim,
                &mut self.thread,
                Node {
                    next: MarkedAtomic::new(succ),
                    key,
                },
            );
            self.spare = node;
            node
        } else {
            let node = self.spare;
            // SAFETY: the spare is unpublished — exclusively ours.
            unsafe {
                (*node).key = key;
                (*node).next.store(MarkedPtr::unmarked(succ), Relaxed);
            }
            node
        }
    }

    fn add_impl(&mut self, key: K) -> bool {
        debug_assert!(key.is_valid_key(), "sentinel keys are reserved");
        let _pin = R::pin();
        self.begin_op();
        self.add_pinned(key)
    }

    /// `add()` body minus the per-operation pin and cursor policy: the
    /// batched insert amortizes both over a whole sorted batch (the pin
    /// is held and the cursor stays trusted across the batch's items,
    /// which a non-`STABLE` reclaimer permits *within* one pin).
    fn add_pinned(&mut self, key: K) -> bool {
        loop {
            let (pred, curr) = self.search(key);
            // SAFETY: `pred`/`curr` per the search contract (stable,
            // pinned, or protected).
            unsafe {
                if (*curr).key == key {
                    return false;
                }
                let node = self.prepare_node(key, curr);
                // Publish: the CAS release-orders the node initialisation.
                match (*pred).next.compare_exchange(
                    MarkedPtr::unmarked(curr),
                    MarkedPtr::unmarked(node),
                    AcqRel,
                    Acquire,
                ) {
                    Ok(()) => {
                        self.spare = std::ptr::null_mut();
                        self.stats.adds += 1;
                        live_bump(&self.live, 1);
                        return true;
                    }
                    Err(_) => {
                        // Mild improvement 3: the retry re-enters the
                        // search, which (for MILD/CURSOR) resumes from the
                        // stored `pred` after checking its mark, instead
                        // of from the head.
                        self.stats.fail += 1;
                    }
                }
            }
        }
    }

    /// `rem()`: returns the stored key (the node's full `K`, which for
    /// [`ListMap`](crate::map::ListMap) entries carries the value) iff
    /// this handle won the logical delete.
    pub(crate) fn remove_impl(&mut self, key: K) -> Option<K> {
        debug_assert!(key.is_valid_key(), "sentinel keys are reserved");
        let _pin = R::pin();
        self.begin_op();
        self.remove_pinned(key)
    }

    /// `rem()` body minus the per-operation pin and cursor policy (see
    /// [`add_pinned`](Self::add_pinned)).
    fn remove_pinned(&mut self, key: K) -> Option<K> {
        loop {
            let (pred, node) = self.search(key);
            // SAFETY: `pred`/`node` per the search contract.
            unsafe {
                let stored = (*node).key;
                if stored != key {
                    return None;
                }
                // Logical delete: set the mark on `node.next`.
                let succ_ptr = if FETCH_OR {
                    // Paper: an atomic fetch-and-or cannot fail; if the
                    // previous value was already marked we lost the race
                    // and the delete linearizes as unsuccessful.
                    let prev = (*node).next.fetch_or_mark(AcqRel);
                    if prev.is_marked() {
                        return None;
                    }
                    prev.ptr()
                } else if MILD {
                    // Mild: retry the marking CAS in place until the node
                    // is marked — by us (success) or someone else (failed
                    // delete). No re-search needed.
                    let mut succ = (*node).next.load(Acquire);
                    loop {
                        if succ.is_marked() {
                            return None;
                        }
                        match (*node)
                            .next
                            .compare_exchange(succ, succ.with_mark(), AcqRel, Acquire)
                        {
                            Ok(()) => break succ.ptr(),
                            Err(observed) => {
                                self.stats.fail += 1;
                                succ = observed;
                            }
                        }
                    }
                } else {
                    // Textbook: any failure of the marking CAS triggers a
                    // full re-search from the head.
                    let succ = (*node).next.load(Acquire).without_mark();
                    match (*node)
                        .next
                        .compare_exchange(succ, succ.with_mark(), AcqRel, Acquire)
                    {
                        Ok(()) => succ.ptr(),
                        Err(_) => {
                            self.stats.fail += 1;
                            continue;
                        }
                    }
                };
                // Physical unlink; a failure is benign (some search will
                // unlink the marked node — and then retire it) and is
                // simply ignored.
                if (*pred)
                    .next
                    .compare_exchange(
                        MarkedPtr::unmarked(node),
                        MarkedPtr::unmarked(succ_ptr),
                        AcqRel,
                        Acquire,
                    )
                    .is_err()
                {
                    self.stats.fail += 1;
                } else {
                    R::retire(&self.list.reclaim, &mut self.thread, node);
                }
                self.stats.rems += 1;
                live_bump(&self.live, -1);
                return Some(stored);
            }
        }
    }

    /// `con()`: returns the stored key (see
    /// [`remove_impl`](Self::remove_impl)) iff `key` is present.
    pub(crate) fn find_impl(&mut self, key: K) -> Option<K> {
        debug_assert!(key.is_valid_key(), "sentinel keys are reserved");
        let _pin = R::pin();
        self.begin_op();
        if R::PROTECTS {
            // Hazard pointers cannot validate the wait-free walk below
            // (an unprotected predecessor may be freed mid-step), so
            // membership goes through the protected search — Michael's
            // lock-free `contains`. Reclassify the search's traversal
            // steps as `cons` so the stats columns stay comparable with
            // the other variants.
            let trav_before = self.stats.trav;
            let (_pred, curr) = self.search(key);
            let steps = self.stats.trav - trav_before;
            self.stats.trav -= steps;
            self.stats.cons += steps;
            // SAFETY: `curr` is protected and was observed unmarked.
            let stored = unsafe { (*curr).key };
            return (stored == key).then_some(stored);
        }
        let head = self.list.head;
        // SAFETY: stable or pinned nodes; wait-free read-only traversal.
        unsafe {
            // Cursor/hint start: unlike the search function (which needs
            // `pred.key < key` strictly), `con()` may start *at* a node
            // carrying the sought key itself — without this, Table 1's
            // "cons" column for the cursor variants (≈1 traversal per
            // operation) is unreachable for descending key sequences.
            let mut start = head;
            let mut start_key = K::NEG_INF;
            if CURSOR && R::STABLE {
                let c = self.cursor;
                if !(*c).next.load(Acquire).is_marked() && key >= (*c).key {
                    start = c;
                    start_key = (*c).key;
                }
            }
            if HINTS > 0 && R::STABLE {
                for &(hk, hn) in self.hints.entries() {
                    if !hn.is_null()
                        && hk > start_key
                        && hk <= key
                        && !(*hn).next.load(Acquire).is_marked()
                    {
                        start = hn;
                        start_key = hk;
                    }
                }
            }
            let mut pred = start;
            let mut curr = start;
            let mut walked = 0u64;
            while (*curr).key < key {
                pred = curr;
                curr = (*curr).next.load(Acquire).ptr();
                prefetch_read(curr);
                walked += 1;
            }
            self.stats.cons += walked;
            if CURSOR && R::STABLE {
                self.cursor = pred;
            }
            if HINTS > 0 && R::STABLE && walked >= crate::hint::HINT_RECORD_MIN_TRAVERSAL {
                self.hints.record((*pred).key, pred);
            }
            let stored = (*curr).key;
            (stored == key && !(*curr).next.load(Acquire).is_marked()).then_some(stored)
        }
    }
}

impl<
        'l,
        K: Key,
        const MILD: bool,
        const CURSOR: bool,
        const FETCH_OR: bool,
        R: Reclaimer,
        const HINTS: usize,
    > SetHandle<K> for SinglyHandle<'l, K, MILD, CURSOR, FETCH_OR, R, HINTS>
{
    #[inline]
    fn add(&mut self, key: K) -> bool {
        self.add_impl(key)
    }

    #[inline]
    fn remove(&mut self, key: K) -> bool {
        self.remove_impl(key).is_some()
    }

    #[inline]
    fn contains(&mut self, key: K) -> bool {
        self.find_impl(key).is_some()
    }

    fn add_batch(&mut self, keys: &mut [K]) -> usize {
        // Sort once, then insert under a single pin with the cursor
        // trusted across items: ascending keys make each search resume
        // where the previous insert stopped — one amortized traversal
        // for the whole batch instead of one per key.
        keys.sort_unstable();
        let _pin = R::pin();
        self.begin_op();
        let mut n = 0;
        for &k in keys.iter() {
            debug_assert!(k.is_valid_key(), "sentinel keys are reserved");
            if self.add_pinned(k) {
                n += 1;
            }
        }
        n
    }

    fn remove_batch(&mut self, keys: &mut [K]) -> usize {
        keys.sort_unstable();
        let _pin = R::pin();
        self.begin_op();
        let mut n = 0;
        for &k in keys.iter() {
            debug_assert!(k.is_valid_key(), "sentinel keys are reserved");
            if self.remove_pinned(k).is_some() {
                n += 1;
            }
        }
        n
    }

    fn stats(&self) -> OpStats {
        self.stats
    }

    fn take_stats(&mut self) -> OpStats {
        std::mem::take(&mut self.stats)
    }
}

impl<
        'l,
        K: Key,
        const MILD: bool,
        const CURSOR: bool,
        const FETCH_OR: bool,
        R: Reclaimer,
        const HINTS: usize,
    > OrderedHandle<K> for SinglyHandle<'l, K, MILD, CURSOR, FETCH_OR, R, HINTS>
{
    fn range<Q: std::ops::RangeBounds<K>>(&mut self, range: Q) -> Snapshot<K> {
        let bounds = ScanBounds::from_range(&range);
        let _pin = R::pin();
        let mut out = Vec::new();
        // SAFETY: stable/pinned nodes, or the protected scan's
        // per-step validation.
        unsafe {
            if R::PROTECTS {
                crate::reclaim::protected_scan::<K, Node<K>, R>(
                    &self.thread,
                    self.list.head,
                    self.list.tail,
                    &bounds,
                    |k| out.push(k),
                );
            } else {
                crate::ordered::scan_chain(
                    &bounds,
                    (*self.list.head).next.load(Acquire).ptr(),
                    self.list.tail,
                    |p| {
                        let succ = (*p).next.load(Acquire);
                        ((*p).key, !succ.is_marked(), succ.ptr())
                    },
                    |_, key| out.push(key),
                );
            }
        }
        Snapshot::from_vec(out)
    }

    fn len_estimate(&mut self) -> usize {
        self.list.len_approx()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::{DraconicList, SinglyCursorList, SinglyFetchOrList, SinglyMildList};

    fn basic_semantics<S: ConcurrentOrderedSet<i64>>() {
        let list = S::new();
        let mut h = list.handle();
        assert!(!h.contains(10));
        assert!(h.add(10));
        assert!(!h.add(10), "duplicate add must fail");
        assert!(h.contains(10));
        assert!(h.add(5));
        assert!(h.add(15));
        assert!(h.contains(5) && h.contains(10) && h.contains(15));
        assert!(!h.contains(7));
        assert!(h.remove(10));
        assert!(!h.remove(10), "double remove must fail");
        assert!(!h.contains(10));
        assert!(h.contains(5) && h.contains(15));
        assert!(h.add(10), "re-add after remove");
        assert!(h.contains(10));
        let st = h.stats();
        assert_eq!(st.adds, 4);
        assert_eq!(st.rems, 1);
    }

    #[test]
    fn basic_semantics_all_variants() {
        basic_semantics::<DraconicList<i64>>();
        basic_semantics::<SinglyMildList<i64>>();
        basic_semantics::<SinglyCursorList<i64>>();
        basic_semantics::<SinglyFetchOrList<i64>>();
    }

    #[test]
    fn basic_semantics_all_reclaimers() {
        use crate::variants::{EpochList, SinglyEpochList, SinglyFetchOrEpochList, SinglyHpList};
        basic_semantics::<EpochList<i64>>();
        basic_semantics::<SinglyEpochList<i64>>();
        basic_semantics::<SinglyFetchOrEpochList<i64>>();
        basic_semantics::<SinglyHpList<i64>>();
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            <DraconicList<i64> as ConcurrentOrderedSet<i64>>::NAME,
            <SinglyMildList<i64> as ConcurrentOrderedSet<i64>>::NAME,
            <SinglyCursorList<i64> as ConcurrentOrderedSet<i64>>::NAME,
            <SinglyFetchOrList<i64> as ConcurrentOrderedSet<i64>>::NAME,
        ];
        assert_eq!(
            names,
            ["draconic", "singly", "singly_cursor", "singly_fetch_or"]
        );
    }

    #[test]
    fn reclaimer_names_compose() {
        use crate::variants::{EpochList, SinglyEpochList, SinglyFetchOrEpochList, SinglyHpList};
        assert_eq!(<EpochList<i64> as ConcurrentOrderedSet<i64>>::NAME, "epoch");
        assert_eq!(
            <SinglyEpochList<i64> as ConcurrentOrderedSet<i64>>::NAME,
            "singly_epoch"
        );
        assert_eq!(
            <SinglyFetchOrEpochList<i64> as ConcurrentOrderedSet<i64>>::NAME,
            "singly_fetch_or_epoch"
        );
        assert_eq!(
            <SinglyHpList<i64> as ConcurrentOrderedSet<i64>>::NAME,
            "singly_hp"
        );
    }

    #[test]
    fn snapshot_is_sorted_and_validates() {
        let mut list = SinglyCursorList::<i64>::new();
        {
            let mut h = list.handle();
            for k in [5i64, 3, 9, 1, 7, 4, 8, 2, 6] {
                assert!(h.add(k));
            }
            assert!(h.remove(5));
            assert!(h.remove(1));
        }
        assert_eq!(list.to_vec(), vec![2, 3, 4, 6, 7, 8, 9]);
        list.validate().unwrap();
        assert_eq!(list.len_approx(), 7);
    }

    #[test]
    fn ascending_with_cursor_is_constant_work() {
        // The cursor makes an ascending insert sequence O(1) per op; the
        // draconic list pays O(i) per op. This is the mechanism behind
        // the deterministic-benchmark gap in the paper's Tables 1/4/7.
        let n = 2000i64;

        let cursor = SinglyCursorList::<i64>::new();
        let mut h = cursor.handle();
        for k in 1..=n {
            h.add(k);
        }
        let cursor_trav = h.stats().trav;
        drop(h);

        let drac = DraconicList::<i64>::new();
        let mut h = drac.handle();
        for k in 1..=n {
            h.add(k);
        }
        let drac_trav = h.stats().trav;
        drop(h);

        assert!(
            cursor_trav < drac_trav / 50,
            "cursor {cursor_trav} vs draconic {drac_trav}"
        );
    }

    #[test]
    fn descending_con_rem_pairs_keep_cons_constant() {
        // Phase 2 of the deterministic benchmark: con(k), rem(k) with
        // descending k. The rem()'s search parks the cursor one node
        // back, so every con() starts *at* its key (the equal-key cursor
        // rule) and costs O(1) — the mechanism behind variant d)'s tiny
        // "cons" column in Table 1, even though "trav" stays quadratic.
        let n = 1000i64;
        let list = SinglyCursorList::<i64>::new();
        let mut h = list.handle();
        for k in 1..=n {
            h.add(k);
        }
        let _ = h.take_stats();
        for k in (1..=n).rev() {
            assert!(h.contains(k));
            assert!(h.remove(k));
            assert!(!h.contains(k));
            assert!(!h.remove(k));
        }
        let st = h.stats();
        assert!(
            st.cons <= 6 * n as u64,
            "paired descending cons should be O(1) per op, got {} for n={n}",
            st.cons
        );
        assert!(
            st.trav >= (n as u64 * n as u64) / 4,
            "the singly rem() search still pays the head restarts: trav={}",
            st.trav
        );
    }

    #[test]
    fn pure_descending_contains_alternates_head_restarts() {
        // Without interleaved operations a singly cursor can not help a
        // strictly descending con() sweep: every other op restarts from
        // the head (the cursor cannot move backwards — that is exactly
        // what the doubly variants fix).
        let n = 500i64;
        let list = SinglyCursorList::<i64>::new();
        let mut h = list.handle();
        for k in 1..=n {
            h.add(k);
        }
        let _ = h.take_stats();
        for k in (1..=n).rev() {
            assert!(h.contains(k));
        }
        let cons = h.stats().cons;
        let quadratic_floor = (n as u64 * n as u64) / 8;
        assert!(
            cons >= quadratic_floor,
            "expected ~n^2/4 cons, got {cons} (n={n})"
        );
    }

    #[test]
    fn non_cursor_variant_forgets_position_between_ops() {
        // Variant b) must reset its start to the head at every public
        // operation; only within-operation retries reuse the position.
        let list = SinglyMildList::<i64>::new();
        let mut h = list.handle();
        for k in 1..=100 {
            h.add(k);
        }
        let _ = h.take_stats();
        // Two ascending contains: without a persistent cursor, the second
        // still traverses from the head (~100 steps), not from 99.
        assert!(h.contains(99));
        let after_first = h.stats().cons;
        assert!(h.contains(100));
        let after_second = h.stats().cons;
        assert!(
            after_second - after_first >= 99,
            "variant b) must restart con() from the head: {after_first} then {after_second}"
        );
    }

    #[test]
    fn cursor_is_forgotten_between_ops_under_epoch_reclamation() {
        // Under a non-STABLE reclaimer the cursor must not survive the
        // operation that recorded it — even for a CURSOR variant.
        use crate::variants::SinglyCursorEpochList;
        let list = SinglyCursorEpochList::<i64>::new();
        let mut h = list.handle();
        for k in 1..=100 {
            h.add(k);
        }
        let _ = h.take_stats();
        assert!(h.contains(99));
        let after_first = h.stats().cons;
        assert!(h.contains(100));
        let after_second = h.stats().cons;
        assert!(
            after_second - after_first >= 99,
            "epoch cursor must restart con() from the head: {after_first} then {after_second}"
        );
    }

    #[test]
    fn contains_does_not_observe_logically_deleted_nodes() {
        let list = SinglyMildList::<i64>::new();
        let mut h = list.handle();
        h.add(1);
        h.add(2);
        h.add(3);
        h.remove(2);
        assert!(!h.contains(2));
        assert!(h.contains(1) && h.contains(3));
    }

    #[test]
    fn spare_node_is_reused_after_failed_duplicate_add() {
        let list = SinglyCursorList::<i64>::new();
        let mut h = list.handle();
        assert!(h.add(1));
        assert!(!h.add(1)); // no node consumed...
        assert!(!h.add(1));
        assert!(h.add(2)); // ...but one spare may exist and be reused
        drop(h);
        // 2 published nodes + at most 1 spare.
        assert!(
            list.allocated_nodes() <= 3,
            "got {}",
            list.allocated_nodes()
        );
    }

    #[test]
    fn empty_list_properties() {
        let mut list = DraconicList::<i64>::new();
        {
            let mut h = list.handle();
            assert!(!h.contains(1));
            assert!(!h.remove(1));
            assert_eq!(h.stats().adds, 0);
            assert_eq!(h.stats().rems, 0);
        }
        assert!(list.to_vec().is_empty());
        assert_eq!(list.len_approx(), 0);
        list.validate().unwrap();
    }

    #[test]
    fn boundary_keys_near_sentinels() {
        let list = SinglyCursorList::<i64>::new();
        let mut h = list.handle();
        assert!(h.add(i64::MIN + 1));
        assert!(h.add(i64::MAX - 1));
        assert!(h.contains(i64::MIN + 1));
        assert!(h.contains(i64::MAX - 1));
        assert!(h.remove(i64::MAX - 1));
        assert!(h.remove(i64::MIN + 1));
        assert!(!h.contains(i64::MIN + 1));
    }

    fn concurrent_disjoint<S: ConcurrentOrderedSet<i64>>() {
        let threads = 4i64;
        let per = 500i64;
        let list = S::new();
        std::thread::scope(|s| {
            for t in 0..threads {
                let list = &list;
                s.spawn(move || {
                    let mut h = list.handle();
                    for i in 0..per {
                        assert!(h.add(t + i * threads));
                    }
                    for i in 0..per {
                        assert!(h.contains(t + i * threads));
                    }
                    for i in (0..per).rev().skip(per as usize / 2) {
                        assert!(h.remove(t + i * threads));
                    }
                });
            }
        });
        let mut list = list;
        list.check_invariants().unwrap();
        assert_eq!(
            list.collect_keys().len() as i64,
            threads * per - threads * (per / 2)
        );
    }

    #[test]
    fn concurrent_disjoint_keys_all_variants() {
        concurrent_disjoint::<DraconicList<i64>>();
        concurrent_disjoint::<SinglyMildList<i64>>();
        concurrent_disjoint::<SinglyCursorList<i64>>();
        concurrent_disjoint::<SinglyFetchOrList<i64>>();
    }

    #[test]
    fn concurrent_disjoint_keys_all_reclaimers() {
        use crate::variants::{EpochList, SinglyEpochList, SinglyFetchOrEpochList, SinglyHpList};
        concurrent_disjoint::<EpochList<i64>>();
        concurrent_disjoint::<SinglyEpochList<i64>>();
        concurrent_disjoint::<SinglyFetchOrEpochList<i64>>();
        concurrent_disjoint::<SinglyHpList<i64>>();
    }

    fn concurrent_same_keys<S: ConcurrentOrderedSet<i64>>() {
        // All threads fight over the same keys; totals must balance.
        let threads = 8;
        let per = 300i64;
        let list = S::new();
        let results: Vec<OpStats> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..threads)
                .map(|_| {
                    let list = &list;
                    s.spawn(move || {
                        let mut h = list.handle();
                        for i in 0..per {
                            h.add(i);
                        }
                        for i in (0..per).rev() {
                            h.remove(i);
                        }
                        for i in 0..per {
                            h.add(i);
                        }
                        h.take_stats()
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total: OpStats = results.into_iter().sum();
        let mut list = list;
        list.check_invariants().unwrap();
        let live = list.collect_keys().len() as u64;
        assert_eq!(
            total.adds - total.rems,
            live,
            "successful adds minus rems must equal live items"
        );
        assert_eq!(live, per as u64, "final phase re-adds everything once");
    }

    #[test]
    fn concurrent_same_keys_all_variants() {
        concurrent_same_keys::<DraconicList<i64>>();
        concurrent_same_keys::<SinglyMildList<i64>>();
        concurrent_same_keys::<SinglyCursorList<i64>>();
        concurrent_same_keys::<SinglyFetchOrList<i64>>();
    }

    #[test]
    fn concurrent_same_keys_all_reclaimers() {
        use crate::variants::{EpochList, SinglyEpochList, SinglyFetchOrEpochList, SinglyHpList};
        concurrent_same_keys::<EpochList<i64>>();
        concurrent_same_keys::<SinglyEpochList<i64>>();
        concurrent_same_keys::<SinglyFetchOrEpochList<i64>>();
        concurrent_same_keys::<SinglyHpList<i64>>();
    }

    #[test]
    fn unsigned_key_type_works() {
        let list = SinglyCursorList::<u32>::new();
        let mut h = list.handle();
        assert!(h.add(1));
        assert!(h.add(u32::MAX - 1));
        assert!(h.contains(1));
        assert!(h.remove(1));
        assert!(!h.contains(1));
    }

    #[test]
    fn hints_cut_alternating_region_traversals() {
        // The cursor remembers one position; hints remember eight. A
        // workload alternating between distant hot regions thrashes the
        // cursor (every jump restarts from the head) but keeps a hint
        // parked in each region.
        use crate::variants::SinglyHintedList;
        let n = 2_000i64;
        let regions = [n / 8, n / 2, 7 * n / 8];

        fn alternating_cons<S: ConcurrentOrderedSet<i64>>(n: i64, regions: &[i64]) -> u64 {
            let list = S::new();
            let mut h = list.handle();
            for k in 1..=n {
                h.add(k);
            }
            let _ = h.take_stats();
            for i in 0..600 {
                let r = regions[i % regions.len()];
                assert!(h.contains(r + (i % 5) as i64));
            }
            h.stats().cons
        }

        let hinted = alternating_cons::<SinglyHintedList<i64>>(n, &regions);
        let cursor = alternating_cons::<SinglyCursorList<i64>>(n, &regions);
        assert!(
            hinted * 20 < cursor,
            "hints should collapse alternating-region walks: hinted {hinted} vs cursor {cursor}"
        );
    }

    #[test]
    fn marked_hints_fall_back_and_stay_correct() {
        // Park hints on nodes, then delete exactly those nodes: every
        // later operation must reject the marked hints (falling back to
        // the head) and still answer correctly.
        use crate::variants::SinglyHintedList;
        let list = SinglyHintedList::<i64>::new();
        let mut h = list.handle();
        for k in 1..=500 {
            h.add(k);
        }
        // Touch spread-out keys so the hint slots fill with their preds.
        for r in [60i64, 120, 180, 240, 300, 360, 420, 480] {
            assert!(h.contains(r));
        }
        // Remove a band around every hinted position (marks the hinted
        // nodes themselves before unlinking them).
        for r in [60i64, 120, 180, 240, 300, 360, 420, 480] {
            for k in (r - 3)..=(r + 3) {
                assert!(h.remove(k));
            }
        }
        // Correctness after the hints went stale.
        for r in [60i64, 120, 180, 240, 300, 360, 420, 480] {
            assert!(!h.contains(r), "removed key must stay gone");
            assert!(h.contains(r + 10), "neighbours must stay present");
            assert!(h.add(r), "re-adding over a dead hint must work");
            assert!(h.contains(r));
        }
        drop(h);
        let mut list = list;
        list.validate().unwrap();
    }

    #[test]
    fn hints_are_inert_under_epoch_reclamation() {
        // A hinted instantiation under a non-STABLE reclaimer must keep
        // the reset-per-op behaviour: hint pointers may not survive the
        // operation that recorded them.
        use crate::reclaim::EpochReclaim;
        type HintedEpoch = SinglyList<i64, true, true, false, EpochReclaim, 8>;
        let list = HintedEpoch::new();
        let mut h = list.handle();
        for k in 1..=100 {
            h.add(k);
        }
        let _ = h.take_stats();
        assert!(h.contains(99));
        let after_first = h.stats().cons;
        assert!(h.contains(100));
        let after_second = h.stats().cons;
        assert!(
            after_second - after_first >= 99,
            "epoch hints must not park across ops: {after_first} then {after_second}"
        );
    }

    #[test]
    fn batched_adds_cost_one_amortized_traversal() {
        // The same shuffled key set (a fixed odd-multiplier permutation
        // of 1..=2000), inserted as one sorted batch versus one by one:
        // the batch pays one amortized traversal, the loop pays a
        // random-position search per key.
        let shuffled: Vec<i64> = (0..2_000i64).map(|i| (i * 1237) % 2_000 + 1).collect();
        let wide = {
            let list = SinglyCursorList::<i64>::new();
            let mut h = list.handle();
            let mut keys = shuffled.clone();
            assert_eq!(h.add_batch(&mut keys), 2_000);
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "batch is sorted");
            h.stats().trav
        };
        let narrow = {
            let list = SinglyCursorList::<i64>::new();
            let mut h = list.handle();
            let n = shuffled.iter().filter(|&&k| h.add(k)).count();
            assert_eq!(n, 2_000);
            h.stats().trav
        };
        assert!(
            wide * 10 < narrow,
            "sorted batch should collapse traversal work: batch {wide} vs loop {narrow}"
        );
    }

    #[test]
    fn batch_results_match_per_key_semantics() {
        let list = SinglyFetchOrList::<i64>::new();
        let mut h = list.handle();
        let mut keys = vec![5i64, 1, 5, 9, 1, 7];
        assert_eq!(h.add_batch(&mut keys), 4, "duplicates count once");
        assert_eq!(h.stats().adds, 4);
        let mut rm = vec![9i64, 2, 5, 9];
        assert_eq!(h.remove_batch(&mut rm), 2, "only present keys remove");
        drop(h);
        let mut list = list;
        assert_eq!(list.to_vec(), vec![1, 7]);
    }

    #[test]
    fn len_estimate_is_exact_when_quiescent_and_cheap() {
        use crate::OrderedHandle;
        let list = SinglyCursorList::<i64>::new();
        let mut a = list.handle();
        let mut b = list.handle();
        for k in 0..500 {
            if k % 2 == 0 {
                a.add(k);
            } else {
                b.add(k);
            }
        }
        for k in (0..500).step_by(5) {
            a.remove(k);
        }
        assert_eq!(a.len_estimate(), 400);
        // Counters survive handle drops (the slot keeps its residual).
        drop(b);
        assert_eq!(a.len_estimate(), 400);
        assert_eq!(list.len_approx(), 400);
    }

    #[test]
    fn stats_fail_and_retry_counters_stay_zero_single_threaded() {
        // Without contention no CAS can fail in any variant.
        let list = SinglyFetchOrList::<i64>::new();
        let mut h = list.handle();
        for k in 0..200 {
            h.add(k);
            h.contains(k);
        }
        for k in 0..200 {
            h.remove(k);
        }
        let st = h.stats();
        assert_eq!(st.fail, 0);
        assert_eq!(st.rtry, 0);
        assert_eq!(st.adds, 200);
        assert_eq!(st.rems, 200);
    }
}
