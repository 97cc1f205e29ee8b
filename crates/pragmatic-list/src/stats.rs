//! Operation counters matching the paper's table columns.
//!
//! Every table in the evaluation reports, per run: successful `add()`s,
//! successful `rem()`s, element traversals inside `con()` ("cons"),
//! element traversals inside the search function ("trav"), failed `CAS()`
//! operations ("fail") and search-function restarts ("rtry"). The
//! counters are plain `u64`s owned by each per-thread [`Handle`]
//! (no atomics — counting must not perturb the measured cache traffic)
//! and are summed by the harness after the threads join.
//!
//! [`Handle`]: crate::set::SetHandle

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Per-thread (or aggregated) operation counters.
///
/// The fields mirror the table columns of the paper one-to-one.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpStats {
    /// Successful `add()` operations ("adds").
    pub adds: u64,
    /// Successful `rem()` operations ("rems").
    pub rems: u64,
    /// List element traversals performed by `con()` operations ("cons").
    pub cons: u64,
    /// List element traversals performed inside the search function
    /// (`pos()`), including backward steps in the doubly variants ("trav").
    pub trav: u64,
    /// Failed `CAS()` operations, across search, `add()` and `rem()`
    /// ("fail").
    pub fail: u64,
    /// Restarts of the search function — `goto retry` in the listings
    /// ("rtry").
    pub rtry: u64,
}

impl OpStats {
    /// All-zero counters.
    pub const ZERO: OpStats = OpStats {
        adds: 0,
        rems: 0,
        cons: 0,
        trav: 0,
        fail: 0,
        rtry: 0,
    };

    /// Sum of both traversal counters; a proxy for total list work.
    #[inline]
    pub fn total_traversals(&self) -> u64 {
        self.cons + self.trav
    }

    /// `true` if every counter is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }
}

impl Add for OpStats {
    type Output = OpStats;
    #[inline]
    fn add(self, rhs: OpStats) -> OpStats {
        OpStats {
            adds: self.adds + rhs.adds,
            rems: self.rems + rhs.rems,
            cons: self.cons + rhs.cons,
            trav: self.trav + rhs.trav,
            fail: self.fail + rhs.fail,
            rtry: self.rtry + rhs.rtry,
        }
    }
}

impl AddAssign for OpStats {
    #[inline]
    fn add_assign(&mut self, rhs: OpStats) {
        *self = *self + rhs;
    }
}

impl Sum for OpStats {
    fn sum<I: Iterator<Item = OpStats>>(iter: I) -> OpStats {
        iter.fold(OpStats::ZERO, Add::add)
    }
}

impl fmt::Display for OpStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "adds={} rems={} cons={} trav={} fail={} rtry={}",
            self.adds, self.rems, self.cons, self.trav, self.fail, self.rtry
        )
    }
}

/// Pads (and aligns) `T` to two cache lines so neighbouring values never
/// share a line — the classic false-sharing fence (128 bytes covers the
/// adjacent-line prefetcher on current x86 parts).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(
    /// The padded value.
    pub T,
);

/// Shared registry of per-handle live-item counters, one cache-padded
/// slot per handle.
///
/// Replaces the O(n) `len_estimate` chain scan: every successful `add`
/// bumps the handle's own slot, every successful `remove` decrements
/// it, and an estimate is the O(handles) sum of the slots. Each slot is
/// written by exactly one thread (its owning handle) and only read by
/// others, and the padding keeps the slots on distinct cache lines, so
/// the hot path costs one store to an exclusively-held line — no shared
/// traffic, preserving the paper's cost model.
///
/// Slots outlive their handles (the net count of a dropped handle must
/// keep contributing); a new handle reuses a slot with no other owner,
/// continuing from its residual value, so the registry stays bounded by
/// the peak handle count.
pub struct LiveSlots {
    slots: crate::sync::Mutex<Vec<LiveSlot>>,
}

/// One handle's live-item counter, as [`LiveSlots::register`] hands it
/// out; bumped with [`live_bump`].
pub type LiveSlot = std::sync::Arc<CachePadded<crate::sync::AtomicI64>>;

impl Default for LiveSlots {
    fn default() -> Self {
        LiveSlots {
            slots: crate::sync::Mutex::new(Vec::new()),
        }
    }
}

impl LiveSlots {
    /// Claims a counter slot for a new handle: an orphaned slot (no
    /// other owner) when available, a fresh one otherwise.
    pub fn register(&self) -> LiveSlot {
        let mut slots = self.slots.lock().unwrap();
        if let Some(slot) = slots.iter().find(|s| std::sync::Arc::strong_count(s) == 1) {
            return std::sync::Arc::clone(slot);
        }
        let slot = std::sync::Arc::new(CachePadded(crate::sync::AtomicI64::new(0)));
        slots.push(std::sync::Arc::clone(&slot));
        slot
    }

    /// Sum of all slots, clamped at zero: the live-item estimate. Exact
    /// when quiescent; during concurrency, in-flight operations make it
    /// an estimate (same contract as the chain scan it replaces).
    pub fn sum(&self) -> usize {
        let total: i64 = self
            .slots
            .lock()
            .unwrap()
            .iter()
            .map(|s| s.0.load(std::sync::atomic::Ordering::Relaxed))
            .sum();
        total.max(0) as usize
    }
}

/// Single-writer increment of a handle's live counter (a plain
/// load+store — the owning handle is the only writer).
#[inline]
pub fn live_bump(slot: &CachePadded<crate::sync::AtomicI64>, delta: i64) {
    use std::sync::atomic::Ordering::Relaxed;
    slot.0.store(slot.0.load(Relaxed) + delta, Relaxed);
}

/// A cache-padded windowed load counter: one per elastic shard, bumped
/// by operating handles in amortized blocks and read / reset by the load
/// monitor when it closes an observation window.
///
/// All accesses are `Relaxed` — the counter steers rebalancing
/// heuristics, never correctness, so a slightly stale read only delays
/// or anticipates a split by one window.
#[derive(Debug, Default)]
pub(crate) struct WindowCounter(CachePadded<crate::sync::AtomicU64>);

impl WindowCounter {
    /// Adds `n` operations to the current window.
    #[inline]
    pub(crate) fn bump(&self, n: u64) {
        self.0 .0.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// The window's running count.
    #[inline]
    pub(crate) fn read(&self) -> u64 {
        self.0 .0.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Closes the window: resets the count to zero.
    #[inline]
    pub(crate) fn reset(&self) {
        self.0 .0.store(0, std::sync::atomic::Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_sum_aggregate_fieldwise() {
        let a = OpStats {
            adds: 1,
            rems: 2,
            cons: 3,
            trav: 4,
            fail: 5,
            rtry: 6,
        };
        let b = OpStats {
            adds: 10,
            rems: 20,
            cons: 30,
            trav: 40,
            fail: 50,
            rtry: 60,
        };
        let s = a + b;
        assert_eq!(s.adds, 11);
        assert_eq!(s.rtry, 66);
        let total: OpStats = [a, b, OpStats::ZERO].into_iter().sum();
        assert_eq!(total, s);
    }

    #[test]
    fn zero_identity() {
        let a = OpStats {
            adds: 7,
            ..OpStats::ZERO
        };
        assert_eq!(a + OpStats::ZERO, a);
        assert!(OpStats::ZERO.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn total_traversals_combines_cons_and_trav() {
        let a = OpStats {
            cons: 100,
            trav: 23,
            ..OpStats::ZERO
        };
        assert_eq!(a.total_traversals(), 123);
    }

    #[test]
    fn display_contains_all_columns() {
        let s = format!("{}", OpStats::ZERO);
        for col in ["adds", "rems", "cons", "trav", "fail", "rtry"] {
            assert!(s.contains(col), "missing column {col} in {s}");
        }
    }

    #[test]
    fn cache_padded_slots_do_not_share_lines() {
        assert!(std::mem::size_of::<CachePadded<u8>>() >= 128);
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
    }

    #[test]
    fn window_counter_accumulates_and_resets() {
        let c = WindowCounter::default();
        assert_eq!(c.read(), 0);
        c.bump(64);
        c.bump(3);
        assert_eq!(c.read(), 67);
        c.reset();
        assert_eq!(c.read(), 0);
    }

    #[test]
    fn live_slots_sum_and_reuse() {
        use std::sync::Arc;
        let reg = LiveSlots::default();
        let a = reg.register();
        live_bump(&a, 3);
        let b = reg.register();
        live_bump(&b, 2);
        assert_eq!(reg.sum(), 5);
        live_bump(&b, -4); // net can dip below zero transiently
        assert_eq!(reg.sum(), 1);
        // Dropping an owner keeps its residual; a new handle reuses the
        // orphaned slot without resetting it.
        let a_ptr = Arc::as_ptr(&a);
        drop(a);
        let c = reg.register();
        assert_eq!(Arc::as_ptr(&c), a_ptr, "orphaned slot is reused");
        assert_eq!(reg.sum(), 1);
        live_bump(&c, 1);
        assert_eq!(reg.sum(), 2);
    }
}
