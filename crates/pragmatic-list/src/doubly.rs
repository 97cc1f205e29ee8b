//! The doubly linked lock-free ordered list with *approximate backward
//! pointers*: paper variants c) and f).
//!
//! This is the paper's intrusive improvement (§2, Listing 3): every node
//! carries a `prev` pointer to *some* smaller-key node. The only invariant
//! `prev` must satisfy is that following backward pointers from any node
//! eventually reaches the head sentinel. On a failed `CAS()` the search
//! function therefore never restarts from the head — it walks backwards
//! through smaller keys to the first unmarked node and resumes the forward
//! search there.
//!
//! Backward pointers are *approximate*: long runs of concurrent insertions
//! and deletions make them skip over live nodes. Three maintenance rules
//! (all plain atomic stores, no extra CAS or flags — the contrast the
//! paper draws with Fomitchev & Ruppert) keep them usable:
//!
//! 1. insertion stores the successor's `prev` to the new node;
//! 2. unlinking a marked node stores the successor's `prev` to the
//!    predecessor, skipping the unlinked node (also a precondition for any
//!    future reclamation scheme);
//! 3. forward traversals repair a stale `prev` — but only after a cheap
//!    relaxed-load comparison shows it wrong, because unconditional stores
//!    would generate cache-coherence traffic on every step.
//!
//! With `CURSOR` enabled (variant f, *doubly-cursor*) each thread starts
//! its search at its last recorded position and the backward walk makes
//! *descending* key sequences as cheap as ascending ones — the mechanism
//! behind the orders-of-magnitude wins in Tables 1/2/4/5/7/8.
//!
//! Key-order argument for termination: every value ever stored into a
//! `prev` field references a node whose key is strictly smaller than the
//! owner's (see the three rules above — each stores a predecessor
//! observed adjacent at some instant). Backward walks therefore strictly
//! decrease the key at every step and must reach the head sentinel.
//!
//! # Memory reclamation
//!
//! Like [`crate::singly`], the list is generic over a [`Reclaimer`]
//! (defaulting to the paper's arena). Backward pointers are the reason
//! the paper keeps the arena
//! scheme: a `prev` field may name a node unlinked arbitrarily long ago,
//! which only a [`STABLE`](crate::reclaim::Reclaimer::STABLE) scheme
//! keeps dereferenceable. Under epoch or hazard-pointer reclamation the
//! list therefore **degrades gracefully rather than dangle**: cursors
//! reset at operation entry, retries restart from the head instead of
//! walking backwards, and the quiescent back-chain validation is
//! skipped. The `prev` maintenance stores still run (they target nodes
//! the operation has pinned or protected), so the `doubly_*_epoch`
//! variants measure exactly what maintaining backward pointers costs
//! once real reclamation forbids exploiting them.

use crate::sync::{AtomicI64, AtomicPtr};
use std::collections::HashSet;
use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
use std::sync::Arc;

use crate::hint::SearchHints;
use crate::marked::{MarkedAtomic, MarkedPtr};
use crate::ordered::{OrderedHandle, ScanBounds, Snapshot};
use crate::prefetch::prefetch_read;
use crate::reclaim::{ArenaReclaim, ListNode, Reclaimer};
use crate::set::{ConcurrentOrderedSet, InvariantViolation, SetHandle};
use crate::stats::{live_bump, CachePadded, LiveSlots, OpStats};
use crate::Key;

/// Doubly linked list node. `next` carries the deletion mark; `prev` is
/// the unmarked approximate backward pointer.
#[repr(C)]
pub(crate) struct DNode<K: Key> {
    pub(crate) next: MarkedAtomic<DNode<K>>,
    pub(crate) prev: AtomicPtr<DNode<K>>,
    pub(crate) key: K,
}

impl<K: Key> ListNode<K> for DNode<K> {
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
impl<K: Key> Drop for DNode<K> {
    fn drop(&mut self) {
        crate::reclaim::leak::note_free::<K>();
    }
}

/// The doubly linked lock-free ordered set with approximate backward
/// pointers (paper variants c and f; see the module docs).
///
/// # Examples
///
/// ```
/// use pragmatic_list::variants::DoublyCursorList;
/// use pragmatic_list::{ConcurrentOrderedSet, SetHandle};
///
/// let list = DoublyCursorList::<i64>::new();
/// let mut h = list.handle();
/// for k in (0..1000).rev() {
///     h.add(k); // descending inserts ride the backward pointers
/// }
/// assert!(h.contains(500));
/// assert!(h.stats().trav < 5_000);
/// ```
pub struct DoublyList<
    K: Key,
    const CURSOR: bool,
    const REPAIR: bool = true,
    R: Reclaimer = ArenaReclaim,
    const HINTS: usize = 0,
> {
    head: *mut DNode<K>,
    tail: *mut DNode<K>,
    reclaim: R::Shared<DNode<K>>,
    live: LiveSlots,
}

// SAFETY: as for `SinglyList` — atomics for all shared state, node
// lifetime per the reclaimer contract, `Drop` requires exclusivity.
unsafe impl<K: Key, const CURSOR: bool, const REPAIR: bool, R: Reclaimer, const HINTS: usize> Send
    for DoublyList<K, CURSOR, REPAIR, R, HINTS>
{
}
unsafe impl<K: Key, const CURSOR: bool, const REPAIR: bool, R: Reclaimer, const HINTS: usize> Sync
    for DoublyList<K, CURSOR, REPAIR, R, HINTS>
{
}

impl<K: Key, const CURSOR: bool, const REPAIR: bool, R: Reclaimer, const HINTS: usize> Default
    for DoublyList<K, CURSOR, REPAIR, R, HINTS>
{
    fn default() -> Self {
        <Self as ConcurrentOrderedSet<K>>::new()
    }
}

impl<K: Key, const CURSOR: bool, const REPAIR: bool, R: Reclaimer, const HINTS: usize>
    DoublyList<K, CURSOR, REPAIR, R, HINTS>
{
    /// Number of live items: the O(1) sum of the per-handle cache-padded
    /// add/remove counters (exact when quiescent, an estimate under
    /// concurrency — the contract of the O(n) scan it replaces).
    pub fn len_approx(&self) -> usize {
        self.live.sum()
    }

    /// Ordered snapshot of live keys; requires quiescence (`&mut`).
    pub fn to_vec(&mut self) -> Vec<K> {
        let mut out = Vec::new();
        // SAFETY: exclusive access.
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

    /// Structural invariants: forward chain strictly sorted and reaching
    /// the tail, sentinels unmarked, and — for [`STABLE`] reclaimers
    /// only — every backward chain reaching the head through strictly
    /// decreasing keys. (Under real reclamation `prev` may name freed
    /// nodes and is never followed, so there is nothing to check.)
    /// Linear in the nodes ever linked: each backward step is checked
    /// once.
    ///
    /// [`STABLE`]: crate::reclaim::Reclaimer::STABLE
    pub fn validate(&mut self) -> Result<(), InvariantViolation> {
        // Nodes whose backward chain is known to reach the head.
        let mut verified: HashSet<*mut DNode<K>> = HashSet::new();
        let mut chain: Vec<*mut DNode<K>> = Vec::new();
        // SAFETY: exclusive access; `prev` chains are dereferenced only
        // under a STABLE reclaimer, where every node ever linked is
        // still allocated.
        unsafe {
            if (*self.head).next.load(Acquire).is_marked()
                || (*self.tail).next.load(Acquire).is_marked()
            {
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
                // Backward chain from `curr` must reach the head with
                // strictly decreasing keys. It may stop at a verified
                // node: that node's key is below every key walked so
                // far, and its own chain reaches the head.
                if R::STABLE {
                    chain.push(curr);
                    let mut back = (*curr).prev.load(Acquire);
                    let mut last = k;
                    while back != self.head {
                        let bk = (*back).key;
                        if bk >= last || chain.len() > budget {
                            return Err(InvariantViolation::BackChainBroken { position: pos });
                        }
                        if verified.contains(&back) {
                            break;
                        }
                        chain.push(back);
                        last = bk;
                        back = (*back).prev.load(Acquire);
                    }
                    verified.extend(chain.drain(..));
                }
                prev_key = k;
                curr = (*curr).next.load(Acquire).ptr();
                pos += 1;
            }
        }
        Ok(())
    }

    /// Total nodes ever allocated (diagnostic).
    pub fn allocated_nodes(&self) -> usize {
        R::tracked_nodes(&self.reclaim)
    }
}

impl<K: Key, const CURSOR: bool, const REPAIR: bool, R: Reclaimer, const HINTS: usize> Drop
    for DoublyList<K, CURSOR, REPAIR, R, HINTS>
{
    fn drop(&mut self) {
        // SAFETY: `&mut self` — no live handles; STABLE schemes track
        // every node, otherwise reachable nodes are freed by the forward
        // chain walk (never through `prev`).
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

impl<K: Key, const CURSOR: bool, const REPAIR: bool, R: Reclaimer, const HINTS: usize>
    ConcurrentOrderedSet<K> for DoublyList<K, CURSOR, REPAIR, R, HINTS>
{
    type Handle<'a>
        = DoublyHandle<'a, K, CURSOR, REPAIR, R, HINTS>
    where
        Self: 'a;

    const NAME: &'static str = {
        use crate::reclaim::str_eq;
        if str_eq(R::NAME, "arena") {
            if HINTS > 0 {
                // Hinted extensions (hints are inert off the arena
                // scheme, so only arena instantiations get new names).
                if CURSOR && REPAIR {
                    "doubly_hint"
                } else if CURSOR {
                    "doubly_hint_norepair"
                } else if REPAIR {
                    "doubly_backptr_hint"
                } else {
                    "doubly_backptr_hint_norepair"
                }
            } else if CURSOR && REPAIR {
                "doubly_cursor"
            } else if CURSOR {
                "doubly_cursor_norepair"
            } else if REPAIR {
                "doubly"
            } else {
                "doubly_norepair"
            }
        } else if str_eq(R::NAME, "epoch") {
            if CURSOR && REPAIR {
                "doubly_cursor_epoch"
            } else if CURSOR {
                "doubly_cursor_norepair_epoch"
            } else if REPAIR {
                "doubly_epoch"
            } else {
                "doubly_norepair_epoch"
            }
        } else if str_eq(R::NAME, "hp") {
            if CURSOR && REPAIR {
                "doubly_cursor_hp"
            } else if CURSOR {
                "doubly_cursor_norepair_hp"
            } else if REPAIR {
                "doubly_hp"
            } else {
                "doubly_norepair_hp"
            }
        } else {
            // A new Reclaimer must be added to this name table (falling
            // through would silently collide with an existing variant).
            panic!("unknown Reclaimer::NAME — extend DoublyList's NAME table")
        }
    };

    fn new() -> Self {
        #[cfg(test)]
        {
            crate::reclaim::leak::note_alloc::<K>();
            crate::reclaim::leak::note_alloc::<K>();
        }
        let tail = Box::into_raw(Box::new(DNode {
            next: MarkedAtomic::null(),
            prev: AtomicPtr::new(std::ptr::null_mut()),
            key: K::POS_INF,
        }));
        let head = Box::into_raw(Box::new(DNode {
            next: MarkedAtomic::new(tail),
            prev: AtomicPtr::new(std::ptr::null_mut()),
            key: K::NEG_INF,
        }));
        // Self-loop on the head so a (never-taken) backward step from the
        // head is still defined; tail initially points back to the head.
        // SAFETY: just allocated, exclusive.
        unsafe {
            (*head).prev.store(head, Relaxed);
            (*tail).prev.store(head, Relaxed);
        }
        Self {
            head,
            tail,
            reclaim: R::Shared::default(),
            live: LiveSlots::default(),
        }
    }

    fn handle(&self) -> DoublyHandle<'_, K, CURSOR, REPAIR, R, HINTS> {
        DoublyHandle {
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

/// Per-thread handle over a [`DoublyList`].
pub struct DoublyHandle<
    'l,
    K: Key,
    const CURSOR: bool,
    const REPAIR: bool = true,
    R: Reclaimer = ArenaReclaim,
    const HINTS: usize = 0,
> {
    list: &'l DoublyList<K, CURSOR, REPAIR, R, HINTS>,
    cursor: *mut DNode<K>,
    spare: *mut DNode<K>,
    /// Multi-position cursor generalization (see [`crate::hint`]);
    /// consulted only when `HINTS > 0` under a `STABLE` reclaimer.
    hints: SearchHints<K, DNode<K>, HINTS>,
    /// Cache-padded live-item counter slot (see [`crate::stats`]).
    live: Arc<CachePadded<AtomicI64>>,
    thread: R::Thread<DNode<K>>,
    stats: OpStats,
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

impl<'l, K: Key, const CURSOR: bool, const REPAIR: bool, R: Reclaimer, const HINTS: usize> Drop
    for DoublyHandle<'l, K, CURSOR, REPAIR, R, HINTS>
{
    fn drop(&mut self) {
        if !self.spare.is_null() {
            // SAFETY: the spare was never published.
            unsafe { R::dealloc_unpublished(&self.list.reclaim, &mut self.thread, self.spare) };
        }
        R::unregister(&self.list.reclaim, &mut self.thread);
    }
}

impl<'l, K: Key, const CURSOR: bool, const REPAIR: bool, R: Reclaimer, const HINTS: usize>
    DoublyHandle<'l, K, CURSOR, REPAIR, R, HINTS>
{
    #[inline]
    fn begin_op(&mut self) {
        if !CURSOR || !R::STABLE {
            self.cursor = self.list.head;
        }
    }

    /// The search function with backward pointers — Listing 3 verbatim
    /// under the arena scheme.
    ///
    /// With a [`STABLE`](Reclaimer::STABLE) reclaimer it never restarts
    /// from the head: both the initial cursor validation and every retry
    /// walk `prev` pointers backwards (through strictly smaller keys) to
    /// the first unmarked node with `key` strictly beyond, then search
    /// forward. Under real reclamation the backward walk would chase
    /// possibly-freed nodes, so retries restart from the head instead
    /// (the first attempt may still resume from the within-operation
    /// cursor, which the pin or hazard slots keep valid).
    fn search(&mut self, key: K) -> (*mut DNode<K>, *mut DNode<K>) {
        let trav_at_entry = self.stats.trav;
        // SAFETY (whole body): reclaimer contract as in `singly::search`;
        // backward (`prev`) steps happen only under a STABLE reclaimer.
        unsafe {
            let mut pred = self.cursor;
            // Hinted instantiations: start at the best unmarked hint
            // strictly below the key when it beats the cursor (the
            // backward walk below corrects any residual overshoot, so
            // the hint only has to be *some* smaller-key node).
            if HINTS > 0 && R::STABLE {
                let mut start_key = if (*pred).next.load(Acquire).is_marked() || key <= (*pred).key
                {
                    K::NEG_INF
                } else {
                    (*pred).key
                };
                for &(hk, hn) in self.hints.entries() {
                    if !hn.is_null()
                        && hk > start_key
                        && hk < key
                        && !(*hn).next.load(Acquire).is_marked()
                    {
                        pred = hn;
                        start_key = hk;
                    }
                }
            }
            let mut resume_ok = true;
            'retry: loop {
                if R::STABLE {
                    // Backward walk: to an unmarked node with key < `key`.
                    // Terminates: every `prev` step strictly decreases the
                    // key (module docs), and the head satisfies the
                    // condition.
                    while (*pred).next.load(Acquire).is_marked() || key <= (*pred).key {
                        pred = (*pred).prev.load(Acquire);
                        self.stats.trav += 1;
                    }
                } else if !resume_ok || (*pred).next.load(Acquire).is_marked() || key <= (*pred).key
                {
                    // Real reclamation: never chase `prev` — restart at
                    // the head (the short-circuit keeps a stale `pred`
                    // from being dereferenced on retries).
                    pred = self.list.head;
                }
                resume_ok = false;
                let mut curr = (*pred).next.load(Acquire).ptr();
                if R::PROTECTS {
                    match crate::reclaim::acquire_curr::<K, DNode<K>, R>(&self.thread, pred, curr) {
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
                    // comparison below.
                    prefetch_read(succ.ptr());
                    while succ.is_marked() {
                        let mut succ_ptr = succ.ptr();
                        let unlinked = match (*pred).next.compare_exchange(
                            MarkedPtr::unmarked(curr),
                            MarkedPtr::unmarked(succ_ptr),
                            AcqRel,
                            Acquire,
                        ) {
                            Ok(()) => {
                                R::retire(&self.list.reclaim, &mut self.thread, curr);
                                true
                            }
                            Err(observed) => {
                                self.stats.fail += 1;
                                if observed.is_marked() {
                                    // `pred` became marked: resume the
                                    // backward walk from it (STABLE) or
                                    // restart from the head.
                                    self.stats.rtry += 1;
                                    continue 'retry;
                                }
                                succ_ptr = observed.ptr();
                                false
                            }
                        };
                        if R::PROTECTS {
                            match crate::reclaim::acquire_curr::<K, DNode<K>, R>(
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
                        if unlinked {
                            // Rule 2: the successor's backward pointer
                            // skips the node we just unlinked. Safe for
                            // every scheme: `succ_ptr` is arena-stable,
                            // pinned, or just validated above.
                            (*succ_ptr).prev.store(pred, Release);
                        }
                        curr = succ_ptr;
                        self.stats.trav += 1;
                        succ = (*curr).next.load(Acquire);
                    }
                    // Rule 3: conditional repair of a stale backward
                    // pointer. The probe is a relaxed load so the common
                    // correct case costs no coherence traffic. (REPAIR is
                    // off only in the A3 ablation variant.)
                    if REPAIR && (*curr).prev.load(Relaxed) != pred {
                        (*curr).prev.store(pred, Release);
                    }
                    if key <= (*curr).key {
                        self.cursor = pred;
                        if HINTS > 0
                            && R::STABLE
                            && self.stats.trav - trav_at_entry
                                >= crate::hint::HINT_RECORD_MIN_TRAVERSAL
                        {
                            // Long walks only (see `crate::hint`).
                            self.hints.record((*pred).key, pred);
                        }
                        return (pred, curr);
                    }
                    if R::PROTECTS {
                        R::protect(&self.thread, 0, curr);
                    }
                    pred = curr;
                    curr = (*curr).next.load(Acquire).ptr();
                    if R::PROTECTS {
                        match crate::reclaim::acquire_curr::<K, DNode<K>, R>(
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

    #[inline]
    fn prepare_node(&mut self, key: K, succ: *mut DNode<K>, pred: *mut DNode<K>) -> *mut DNode<K> {
        if self.spare.is_null() {
            #[cfg(test)]
            crate::reclaim::leak::note_alloc::<K>();
            let node = R::alloc(
                &self.list.reclaim,
                &mut self.thread,
                DNode {
                    next: MarkedAtomic::new(succ),
                    prev: AtomicPtr::new(pred),
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
                (*node).prev.store(pred, Relaxed);
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

    /// `add()` body minus the per-operation pin and cursor policy; the
    /// batched insert amortizes both over a sorted batch.
    fn add_pinned(&mut self, key: K) -> bool {
        loop {
            let (pred, curr) = self.search(key);
            // SAFETY: `pred`/`curr` per the search contract.
            unsafe {
                if (*curr).key == key {
                    return false;
                }
                let node = self.prepare_node(key, curr, pred);
                match (*pred).next.compare_exchange(
                    MarkedPtr::unmarked(curr),
                    MarkedPtr::unmarked(node),
                    AcqRel,
                    Acquire,
                ) {
                    Ok(()) => {
                        self.spare = std::ptr::null_mut();
                        // Rule 1: successor's backward pointer now names
                        // the new node (`curr` is stable, pinned, or
                        // still protected in slot 1).
                        (*curr).prev.store(node, Release);
                        self.stats.adds += 1;
                        live_bump(&self.live, 1);
                        return true;
                    }
                    Err(_) => {
                        self.stats.fail += 1;
                        // Retry re-enters the search, which walks back
                        // from the stored position — never from the head
                        // (STABLE reclaimers only).
                    }
                }
            }
        }
    }

    fn remove_impl(&mut self, key: K) -> bool {
        debug_assert!(key.is_valid_key(), "sentinel keys are reserved");
        let _pin = R::pin();
        self.begin_op();
        self.remove_pinned(key)
    }

    /// `rem()` body minus the per-operation pin and cursor policy (see
    /// [`add_pinned`](Self::add_pinned)).
    fn remove_pinned(&mut self, key: K) -> bool {
        loop {
            let (pred, node) = self.search(key);
            // SAFETY: `pred`/`node` per the search contract.
            unsafe {
                if (*node).key != key {
                    return false;
                }
                // Textbook marking (Listing 3's caption: with the backward
                // search, add()/rem() stay textbook): a failed marking CAS
                // re-searches — cheaply, via the backward pointers.
                let succ = (*node).next.load(Acquire).without_mark();
                if (*node)
                    .next
                    .compare_exchange(succ, succ.with_mark(), AcqRel, Acquire)
                    .is_err()
                {
                    self.stats.fail += 1;
                    continue;
                }
                let succ_ptr = succ.ptr();
                // Physical unlink (failure benign) + rule 2 on success.
                match (*pred).next.compare_exchange(
                    MarkedPtr::unmarked(node),
                    MarkedPtr::unmarked(succ_ptr),
                    AcqRel,
                    Acquire,
                ) {
                    Ok(()) => {
                        // Rule 2 — except under hazard pointers, where
                        // `succ_ptr` is not protected here; skipping a
                        // maintenance store only leaves `prev` more
                        // approximate, and non-STABLE schemes never
                        // follow it anyway.
                        if !R::PROTECTS {
                            (*succ_ptr).prev.store(pred, Release);
                        }
                        R::retire(&self.list.reclaim, &mut self.thread, node);
                    }
                    Err(_) => self.stats.fail += 1,
                }
                self.stats.rems += 1;
                live_bump(&self.live, -1);
                return true;
            }
        }
    }

    fn contains_impl(&mut self, key: K) -> bool {
        debug_assert!(key.is_valid_key(), "sentinel keys are reserved");
        let _pin = R::pin();
        self.begin_op();
        if R::PROTECTS {
            // As in the singly list: hazard pointers cannot validate the
            // wait-free walk, so membership uses the protected search,
            // with its traversal steps reclassified as `cons`.
            let trav_before = self.stats.trav;
            let (_pred, curr) = self.search(key);
            let steps = self.stats.trav - trav_before;
            self.stats.trav -= steps;
            self.stats.cons += steps;
            // SAFETY: `curr` is protected and was observed unmarked.
            return unsafe { (*curr).key == key };
        }
        // SAFETY: stable or pinned nodes; read-only traversal. Backward
        // (`prev`) steps only under a STABLE reclaimer, where they are
        // always dereferenceable.
        unsafe {
            let mut curr = if CURSOR && R::STABLE {
                self.cursor
            } else {
                self.list.head
            };
            // Hinted instantiations may jump to the best unmarked hint
            // at or below the key (equal keys allowed, as for the
            // cursor); the backward phase corrects overshoot.
            if HINTS > 0 && R::STABLE {
                let mut start_key = if (*curr).next.load(Acquire).is_marked() || key < (*curr).key {
                    K::NEG_INF
                } else {
                    (*curr).key
                };
                for &(hk, hn) in self.hints.entries() {
                    if !hn.is_null()
                        && hk > start_key
                        && hk <= key
                        && !(*hn).next.load(Acquire).is_marked()
                    {
                        curr = hn;
                        start_key = hk;
                    }
                }
            }
            // Backward phase: unlike the search function, `con()` may stop
            // *at* a node carrying the sought key (see singly.rs for why
            // the equal-key start is essential to the paper's "cons"
            // numbers). Strictly decreasing keys guarantee termination.
            // From the head (the non-STABLE start) this loop exits
            // immediately: the head is never marked and no key is below
            // `NEG_INF`.
            while (*curr).next.load(Acquire).is_marked() || key < (*curr).key {
                curr = (*curr).prev.load(Acquire);
                self.stats.cons += 1;
            }
            // Forward phase.
            let mut pred = curr;
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
            if HINTS > 0
                && R::STABLE
                && walked >= crate::hint::HINT_RECORD_MIN_TRAVERSAL
                && !std::ptr::eq(pred, self.list.head)
            {
                self.hints.record((*pred).key, pred);
            }
            (*curr).key == key && !(*curr).next.load(Acquire).is_marked()
        }
    }
}

impl<'l, K: Key, const CURSOR: bool, const REPAIR: bool, R: Reclaimer, const HINTS: usize>
    SetHandle<K> for DoublyHandle<'l, K, CURSOR, REPAIR, R, HINTS>
{
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

    fn add_batch(&mut self, keys: &mut [K]) -> usize {
        // One pin, one cursor trust window, ascending application: the
        // whole batch costs one amortized traversal (see singly.rs).
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
            if self.remove_pinned(k) {
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

impl<'l, K: Key, const CURSOR: bool, const REPAIR: bool, R: Reclaimer, const HINTS: usize>
    OrderedHandle<K> for DoublyHandle<'l, K, CURSOR, REPAIR, R, HINTS>
{
    fn range<Q: std::ops::RangeBounds<K>>(&mut self, range: Q) -> Snapshot<K> {
        let bounds = ScanBounds::from_range(&range);
        let _pin = R::pin();
        let mut out = Vec::new();
        // SAFETY: stable/pinned nodes, or the protected scan's per-step
        // validation (the backward pointers play no role in a read-only
        // scan).
        unsafe {
            if R::PROTECTS {
                crate::reclaim::protected_scan::<K, DNode<K>, R>(
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
    use crate::variants::{DoublyBackptrList, DoublyCursorEpochList, DoublyCursorList};

    #[test]
    fn basic_semantics_both_variants() {
        fn run<S: ConcurrentOrderedSet<i64>>() {
            let list = S::new();
            let mut h = list.handle();
            assert!(h.add(10));
            assert!(!h.add(10));
            assert!(h.add(5));
            assert!(h.add(15));
            assert!(h.contains(5) && h.contains(10) && h.contains(15));
            assert!(!h.contains(12));
            assert!(h.remove(10));
            assert!(!h.remove(10));
            assert!(!h.contains(10));
            assert!(h.add(10));
            assert!(h.contains(10));
        }
        run::<DoublyBackptrList<i64>>();
        run::<DoublyCursorList<i64>>();
        run::<DoublyCursorEpochList<i64>>();
    }

    #[test]
    fn names() {
        assert_eq!(
            <DoublyBackptrList<i64> as ConcurrentOrderedSet<i64>>::NAME,
            "doubly"
        );
        assert_eq!(
            <DoublyCursorList<i64> as ConcurrentOrderedSet<i64>>::NAME,
            "doubly_cursor"
        );
        assert_eq!(
            <DoublyCursorEpochList<i64> as ConcurrentOrderedSet<i64>>::NAME,
            "doubly_cursor_epoch"
        );
    }

    #[test]
    fn snapshot_sorted_and_validates() {
        let mut list = DoublyCursorList::<i64>::new();
        {
            let mut h = list.handle();
            for k in [8i64, 1, 6, 3, 9, 2, 7, 4, 5] {
                assert!(h.add(k));
            }
            assert!(h.remove(6));
            assert!(h.remove(1));
            assert!(h.remove(9));
        }
        assert_eq!(list.to_vec(), vec![2, 3, 4, 5, 7, 8]);
        list.validate().unwrap();
    }

    #[test]
    fn validate_catches_seeded_back_chain_corruption() {
        let mut list = DoublyCursorList::<i64>::new();
        {
            let mut h = list.handle();
            for k in 1..=64 {
                assert!(h.add(k));
            }
        }
        list.validate().unwrap();
        // SAFETY: exclusive access; the corrupted `prev` only names
        // live nodes, and `validate` never writes through it.
        let (node, succ) = unsafe {
            let mut node = (*list.head).next.load(Acquire).ptr();
            for _ in 0..30 {
                node = (*node).next.load(Acquire).ptr();
            }
            (node, (*node).next.load(Acquire).ptr())
        };
        let broken = Err(InvariantViolation::BackChainBroken { position: 30 });
        // A backward pointer to a larger key, then one to itself (a cycle).
        for bad in [succ, node] {
            // SAFETY: as above.
            unsafe { (*node).prev.store(bad, Relaxed) };
            assert_eq!(list.validate(), broken);
        }
    }

    #[test]
    fn validate_is_linear_on_a_million_keys() {
        let mut list = DoublyCursorList::<i64>::new();
        let mut keys: Vec<i64> = (0..1_000_000).collect();
        assert_eq!(list.handle().add_batch(&mut keys), keys.len());
        let (tx, rx) = std::sync::mpsc::channel();
        let validator = std::thread::spawn(move || {
            let _ = tx.send(list.validate());
        });
        let validated = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("validating 1M keys must finish within 10 s");
        validated.unwrap();
        validator.join().unwrap();
    }

    #[test]
    fn descending_insert_rides_backward_pointers() {
        // With the cursor, a descending insert sequence walks `prev` one
        // step per operation instead of scanning from the head — the
        // deterministic-benchmark mechanism (Tables 2/5/8, variant f).
        let n = 2000i64;
        let list = DoublyCursorList::<i64>::new();
        let mut h = list.handle();
        for k in (1..=n).rev() {
            assert!(h.add(k));
        }
        let trav = h.stats().trav;
        assert!(
            trav <= 8 * n as u64,
            "descending adds should be O(1) each, got trav={trav}"
        );
        drop(h);
        let mut list = list;
        assert_eq!(list.to_vec().len(), n as usize);
        list.validate().unwrap();
    }

    #[test]
    fn descending_remove_rides_backward_pointers() {
        let n = 2000i64;
        let list = DoublyCursorList::<i64>::new();
        let mut h = list.handle();
        for k in 1..=n {
            h.add(k);
        }
        let _ = h.take_stats();
        for k in (1..=n).rev() {
            assert!(h.remove(k));
        }
        let trav = h.stats().trav;
        assert!(
            trav <= 8 * n as u64,
            "descending removes should be O(1) each, got trav={trav}"
        );
    }

    #[test]
    fn epoch_doubly_never_chases_backward_pointers() {
        // Under real reclamation the backward walk is disabled: a
        // descending sweep costs head restarts, like the textbook list.
        let n = 300i64;
        let list = DoublyCursorEpochList::<i64>::new();
        let mut h = list.handle();
        for k in 1..=n {
            h.add(k);
        }
        let _ = h.take_stats();
        for k in (1..=n).rev() {
            assert!(h.contains(k));
        }
        let cons = h.stats().cons;
        assert!(
            cons >= (n as u64 * n as u64) / 8,
            "expected ~n^2/2 cons without backward walks, got {cons}"
        );
        drop(h);
        let mut list = list;
        list.validate().unwrap();
    }

    #[test]
    fn non_cursor_doubly_restarts_from_head_per_op() {
        let list = DoublyBackptrList::<i64>::new();
        let mut h = list.handle();
        for k in 1..=500 {
            h.add(k);
        }
        let _ = h.take_stats();
        assert!(h.contains(499));
        let c1 = h.stats().cons;
        assert!(h.contains(500));
        let c2 = h.stats().cons;
        assert!(c2 - c1 >= 499, "variant c) con() starts at the head");
    }

    #[test]
    fn backward_pointer_repair_on_traversal() {
        // Make prev pointers stale via removals, then check a forward
        // search repairs them (validated by the strict backward-chain
        // invariant check).
        let mut list = DoublyCursorList::<i64>::new();
        {
            let mut h = list.handle();
            for k in 1..=100 {
                h.add(k);
            }
            for k in (2..=98).step_by(2) {
                h.remove(k);
            }
            // Forward searches over the whole list repair prev fields.
            for k in (1..=99).step_by(2) {
                assert!(h.contains(k));
            }
        }
        list.validate().unwrap();
        assert_eq!(list.len_approx(), 51);
    }

    #[test]
    fn concurrent_mixed_workload_validates() {
        fn run<S: ConcurrentOrderedSet<i64>>() {
            let list = S::new();
            std::thread::scope(|s| {
                for t in 0..8i64 {
                    let list = &list;
                    s.spawn(move || {
                        let mut h = list.handle();
                        for i in 0..400 {
                            let k = (i * 8 + t) % 1000 + 1;
                            match i % 3 {
                                0 => {
                                    h.add(k);
                                }
                                1 => {
                                    h.contains(k);
                                }
                                _ => {
                                    h.remove(k);
                                }
                            }
                        }
                    });
                }
            });
            let mut list = list;
            list.check_invariants().unwrap();
        }
        run::<DoublyCursorList<i64>>();
        run::<DoublyCursorEpochList<i64>>();
    }

    #[test]
    fn concurrent_same_key_battle_single_winner() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let list = DoublyCursorList::<i64>::new();
        let wins = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let list = &list;
                let wins = &wins;
                s.spawn(move || {
                    let mut h = list.handle();
                    if h.add(42) {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 1);
        let mut list = list;
        assert_eq!(list.to_vec(), vec![42]);
    }

    #[test]
    fn interleaved_add_remove_keeps_back_chains_sound() {
        let mut list = DoublyCursorList::<i64>::new();
        {
            let mut h = list.handle();
            for round in 0..20 {
                for k in 1..=50 {
                    h.add(k * 2 + round % 2);
                }
                for k in 1..=50 {
                    h.remove(k * 2 + (round + 1) % 2);
                }
            }
        }
        list.validate().unwrap();
    }

    #[test]
    fn stats_track_successes_only() {
        let list = DoublyBackptrList::<i64>::new();
        let mut h = list.handle();
        assert!(h.add(1));
        assert!(!h.add(1));
        assert!(h.remove(1));
        assert!(!h.remove(1));
        let st = h.stats();
        assert_eq!(st.adds, 1);
        assert_eq!(st.rems, 1);
        assert_eq!(st.fail, 0, "no contention, no CAS failures");
    }
}
