//! Ordered reads over a *live* set: [`OrderedHandle`] with
//! [`range`](OrderedHandle::range) scans, [`iter`](OrderedHandle::iter)
//! snapshots and [`len_estimate`](OrderedHandle::len_estimate).
//!
//! [`ConcurrentOrderedSet::collect_keys`](crate::ConcurrentOrderedSet::collect_keys)
//! requires `&mut` access — the
//! list must be quiescent, which is fine for tests but useless for a
//! server answering range queries while writers run. `OrderedHandle`
//! fills that gap: any per-thread handle can scan the key order while
//! other threads mutate, paying exactly one forward traversal and no
//! writes to shared memory.
//!
//! # Consistency: weakly consistent scans
//!
//! `add`, `remove` and `contains` are linearizable, but **scans are
//! not**: a scan is an ordered traversal racing concurrent writers, so
//! the snapshot it returns is *weakly consistent* — the same contract as
//! `collect_keys`, minus the quiescence that would make it exact:
//!
//! * every key reported was live (present and unmarked) at the moment
//!   the scan visited its position;
//! * a key that is present for the whole scan **and never touched** is
//!   reported;
//! * a key inserted or removed *during* the scan may or may not appear,
//!   regardless of where the scan currently points;
//! * the result is always strictly sorted — the traversal follows the
//!   list order, which is sorted even through marked nodes.
//!
//! There is no instant at which the whole snapshot necessarily equalled
//! the set's contents (that would require a multi-node atomic read the
//! paper's structure deliberately avoids). This is the standard contract
//! for lock-free iteration — Michael's hash sets and the JDK's
//! `ConcurrentSkipListSet` make the same promise.
//!
//! Single-threaded, a scan *is* exact: with no concurrent writers the
//! traversal observes the precise live set (the differential tests rely
//! on this).

use std::ops::{Bound, RangeBounds};

use crate::set::SetHandle;
use crate::Key;

/// An owned, ordered snapshot of scan results.
///
/// Produced by [`OrderedHandle::range`] / [`OrderedHandle::iter`] (and
/// the analogous `ListMap` methods, where the item is a `(key, value)`
/// pair). The scan happens eagerly — a lazy iterator would have to hold
/// the traversal position across user code, which the handle-per-thread
/// design deliberately forbids — and the snapshot is then a plain
/// container: iterate it, slice it, or take the `Vec`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot<T> {
    items: Vec<T>,
}

impl<T> Snapshot<T> {
    /// Wraps scan results (backend use).
    pub fn from_vec(items: Vec<T>) -> Self {
        Snapshot { items }
    }

    /// Number of items scanned.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` iff the scan found nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items as a slice, in key order.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// First (smallest-key) item.
    pub fn first(&self) -> Option<&T> {
        self.items.first()
    }

    /// Last (largest-key) item.
    pub fn last(&self) -> Option<&T> {
        self.items.last()
    }

    /// Borrowing iterator in key order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// Consumes the snapshot into its backing vector.
    pub fn into_vec(self) -> Vec<T> {
        self.items
    }
}

impl<T> IntoIterator for Snapshot<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a, T> IntoIterator for &'a Snapshot<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl<T> From<Snapshot<T>> for Vec<T> {
    fn from(s: Snapshot<T>) -> Vec<T> {
        s.items
    }
}

/// Resolved scan window over keys, shared by every backend's traversal.
///
/// Converts any `RangeBounds<K>` into two cheap per-key predicates:
/// [`before_start`](ScanBounds::before_start) (skip, keep walking) and
/// [`after_end`](ScanBounds::after_end) (stop — keys are visited in
/// ascending order).
#[derive(Debug, Clone, Copy)]
pub struct ScanBounds<K> {
    lo: Bound<K>,
    hi: Bound<K>,
}

impl<K: Key> ScanBounds<K> {
    /// Resolves a range expression into a scan window.
    pub fn from_range<R: RangeBounds<K>>(range: &R) -> ScanBounds<K> {
        fn own<K: Copy>(b: Bound<&K>) -> Bound<K> {
            match b {
                Bound::Included(&k) => Bound::Included(k),
                Bound::Excluded(&k) => Bound::Excluded(k),
                Bound::Unbounded => Bound::Unbounded,
            }
        }
        ScanBounds {
            lo: own(range.start_bound()),
            hi: own(range.end_bound()),
        }
    }

    /// `true` iff `key` lies below the window (skip and keep walking).
    #[inline]
    pub fn before_start(&self, key: K) -> bool {
        match self.lo {
            Bound::Included(lo) => key < lo,
            Bound::Excluded(lo) => key <= lo,
            Bound::Unbounded => false,
        }
    }

    /// `true` iff `key` lies beyond the window (an ascending traversal
    /// can stop).
    #[inline]
    pub fn after_end(&self, key: K) -> bool {
        match self.hi {
            Bound::Included(hi) => key > hi,
            Bound::Excluded(hi) => key >= hi,
            Bound::Unbounded => false,
        }
    }

    /// `true` iff `key` lies inside the window.
    #[inline]
    pub fn contains(&self, key: K) -> bool {
        !self.before_start(key) && !self.after_end(key)
    }

    /// The key an index-assisted backend (e.g. a skiplist tower descent)
    /// should seek before walking forward; `None` for an unbounded
    /// start.
    #[inline]
    pub fn seek_key(&self) -> Option<K> {
        match self.lo {
            Bound::Included(lo) | Bound::Excluded(lo) => Some(lo),
            Bound::Unbounded => None,
        }
    }

    /// The key at the end of the window (a partitioned backend stops
    /// visiting shards past it); `None` for an unbounded end.
    #[inline]
    pub fn end_key(&self) -> Option<K> {
        match self.hi {
            Bound::Included(hi) | Bound::Excluded(hi) => Some(hi),
            Bound::Unbounded => None,
        }
    }

    /// `true` iff the window's end bound is exclusive. Paired with
    /// [`end_key`](ScanBounds::end_key) this lets a partitioned backend
    /// decide whether the interval *owning* the end key can still
    /// contribute: an exclusive end that coincides with an interval's
    /// lower boundary owns no keys there.
    #[inline]
    pub fn end_excluded(&self) -> bool {
        matches!(self.hi, Bound::Excluded(_))
    }

    /// Tightens the window so it starts strictly after `key` (used by
    /// stitched scans to resume without re-emitting the keys already
    /// reported before a partition changed under them). The end bound is
    /// unchanged; the start becomes `Excluded(key)` unless the existing
    /// start is already tighter.
    #[inline]
    pub fn resume_after(&self, key: K) -> ScanBounds<K> {
        let keep = match self.lo {
            Bound::Included(lo) => lo > key,
            Bound::Excluded(lo) => lo >= key,
            Bound::Unbounded => false,
        };
        ScanBounds {
            lo: if keep { self.lo } else { Bound::Excluded(key) },
            hi: self.hi,
        }
    }
}

/// A resolved `ScanBounds` is itself a range expression, so a composite
/// backend (the sharded maps) can re-pass one window to several inner
/// `range()` calls without re-borrowing the caller's original range.
impl<K: Key> RangeBounds<K> for ScanBounds<K> {
    fn start_bound(&self) -> Bound<&K> {
        self.lo.as_ref()
    }

    fn end_bound(&self) -> Bound<&K> {
        self.hi.as_ref()
    }
}

/// Drives an ascending scan over a sorted node chain, applying the
/// weak-consistency contract in one place for every chain-shaped
/// backend (singly, and so `ListMap`; doubly; skiplist bottom level;
/// the epoch list walks its own guard-protected chain).
///
/// Starting at `curr`, `read` resolves a node into `(key, live, next)`;
/// live nodes inside `bounds` are passed to `emit`. The walk stops at
/// `end` or at the first key past the window — callers guarantee keys
/// strictly increase along the chain (marked nodes included), which
/// every list in this workspace maintains.
pub fn scan_chain<K: Key, P: Copy + PartialEq>(
    bounds: &ScanBounds<K>,
    mut curr: P,
    end: P,
    mut read: impl FnMut(P) -> (K, bool, P),
    mut emit: impl FnMut(P, K),
) {
    while curr != end {
        let (key, live, next) = read(curr);
        if bounds.after_end(key) {
            break;
        }
        if live && !bounds.before_start(key) {
            emit(curr, key);
        }
        curr = next;
    }
}

/// Ordered reads on a live [`ConcurrentOrderedSet`], through the same
/// per-thread handle that performs `add`/`remove`/`contains`.
///
/// All methods are wait-free read-only traversals: no CAS, no helping,
/// no writes to shared memory, and no effect on the handle's cursor or
/// [`OpStats`](crate::OpStats) counters. See the [module
/// docs](self) for the weak-consistency contract.
///
/// [`ConcurrentOrderedSet`]: crate::ConcurrentOrderedSet
///
/// # Examples
///
/// ```
/// use pragmatic_list::variants::DoublyCursorList;
/// use pragmatic_list::{ConcurrentOrderedSet, OrderedHandle, SetHandle};
///
/// let list = DoublyCursorList::<i64>::new();
/// let mut h = list.handle();
/// for k in [5, 1, 9, 3, 7] {
///     h.add(k);
/// }
/// assert_eq!(h.range(3..8).into_vec(), vec![3, 5, 7]);
/// assert_eq!(h.range(..=5).into_vec(), vec![1, 3, 5]);
/// assert_eq!(h.iter().into_vec(), vec![1, 3, 5, 7, 9]);
/// assert_eq!(h.len_estimate(), 5);
/// ```
pub trait OrderedHandle<K: Key>: SetHandle<K> {
    /// Scans the live keys inside `range`, in ascending order.
    ///
    /// Weakly consistent under concurrency (module docs); exact when no
    /// writer runs during the scan. Cost: one forward traversal of the
    /// keys up to the end of the window (index-assisted backends skip
    /// ahead to the window start).
    fn range<R: RangeBounds<K>>(&mut self, range: R) -> Snapshot<K>;

    /// Scans all live keys, in ascending order.
    ///
    /// Equivalent to `range(..)`; the live-handle counterpart of
    /// [`collect_keys`](crate::ConcurrentOrderedSet::collect_keys),
    /// which requires quiescence.
    fn iter(&mut self) -> Snapshot<K> {
        self.range(..)
    }

    /// Estimated number of live keys: a racy traversal count, exact
    /// when quiescent.
    fn len_estimate(&mut self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_bounds_resolve_every_range_shape() {
        let b = ScanBounds::from_range(&(3i64..8));
        assert!(b.before_start(2) && !b.before_start(3));
        assert!(!b.after_end(7) && b.after_end(8));
        assert!(b.contains(3) && b.contains(7) && !b.contains(8));
        assert_eq!(b.seek_key(), Some(3));

        let b = ScanBounds::from_range(&(..=5i64));
        assert!(!b.before_start(i64::MIN + 1));
        assert!(b.contains(5) && b.after_end(6));
        assert_eq!(b.seek_key(), None);

        let b = ScanBounds::from_range(&(..));
        assert!(b.contains(0i64) && b.contains(i64::MAX - 1));

        use std::ops::Bound;
        let b = ScanBounds::from_range(&(Bound::Excluded(3i64), Bound::Unbounded));
        assert!(b.before_start(3) && !b.before_start(4));
    }

    #[test]
    fn end_exclusivity_is_observable() {
        assert!(ScanBounds::from_range(&(3i64..8)).end_excluded());
        assert!(!ScanBounds::from_range(&(3i64..=8)).end_excluded());
        assert!(!ScanBounds::from_range(&(3i64..)).end_excluded());
    }

    #[test]
    fn resume_after_tightens_only_the_start() {
        let b = ScanBounds::from_range(&(3i64..10));
        let r = b.resume_after(5);
        assert!(
            r.before_start(5) && !r.before_start(6),
            "start moved past 5"
        );
        assert!(r.after_end(10) && !r.after_end(9), "end unchanged");
        // An already-tighter start is kept.
        let r = b.resume_after(1);
        assert!(r.before_start(2) && !r.before_start(3));
        // An exclusive start equal to the resume key is already tight.
        use std::ops::Bound;
        let b = ScanBounds::from_range(&(Bound::Excluded(5i64), Bound::Unbounded));
        let r = b.resume_after(5);
        assert!(r.before_start(5) && !r.before_start(6));
    }

    #[test]
    fn snapshot_is_a_well_behaved_container() {
        let s = Snapshot::from_vec(vec![1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.first(), Some(&1));
        assert_eq!(s.last(), Some(&3));
        assert_eq!(s.as_slice(), &[1, 2, 3]);
        assert_eq!(s.iter().copied().sum::<i64>(), 6);
        let doubled: Vec<i64> = (&s).into_iter().map(|k| k * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6]);
        assert_eq!(Vec::from(s.clone()), vec![1, 2, 3]);
        assert_eq!(s.into_vec(), vec![1, 2, 3]);
        assert!(Snapshot::<i64>::from_vec(vec![]).is_empty());
    }
}
