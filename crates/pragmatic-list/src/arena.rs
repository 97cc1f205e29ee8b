//! Deferred, drop-time node reclamation — the storage behind the
//! paper's memory scheme.
//!
//! The paper explicitly leaves safe memory reclamation out of scope
//! (§1, §2, §4): cursors and approximate backward pointers may reference
//! nodes long after they have been unlinked, so nodes cannot be freed
//! during a run. "The implementation benchmarked here does only simple
//! memory reclamation after each experiment."
//!
//! We reproduce exactly that contract, but leak-free and race-free:
//! every node a thread allocates is recorded in a thread-local buffer
//! ([`LocalArena`]) that is flushed into the list's shared [`Registry`]
//! when the per-thread handle drops; the `Drop` impl of the list walks the
//! registry and frees everything.
//!
//! The cost model matches the paper: per allocation, one push onto an
//! unsynchronised thread-local `Vec`; no shared-memory traffic on the hot
//! path (the registry mutex — std's, it is only touched at handle drop —
//! never appears on the operation path).
//!
//! The lists of this crate do **not** use this module: they reach the
//! same drop-time contract through
//! [`ArenaReclaim`](crate::reclaim::ArenaReclaim), the `STABLE` instance
//! of the [`Reclaimer`](crate::reclaim::Reclaimer) trait, which keeps its
//! own registry over slab storage ([`crate::slab`]); see
//! [`crate::reclaim`] for the safety contract and for the epoch /
//! hazard-pointer alternatives the `A2` ablation bench quantifies. The
//! only remaining user of [`LocalArena`] and [`Registry`] is the
//! `lockfree-skiplist` crate, whose variable-height tower nodes are
//! boxed individually and freed here at list drop.

use crate::sync::Mutex;

/// Shared registry of every node ever allocated for one list.
///
/// Freed wholesale by the owning list's `Drop`.
pub struct Registry<T> {
    retired: Mutex<Vec<*mut T>>,
}

// SAFETY: the registry only transports raw pointers; the nodes they
// point to are owned by the list and only ever freed single-threaded in
// `Drop`, and the pointer vector itself is mutex-guarded.
unsafe impl<T: Send> Send for Registry<T> {}
// SAFETY: as above — all shared access goes through the internal mutex.
unsafe impl<T: Send> Sync for Registry<T> {}

impl<T> Registry<T> {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self {
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Moves a handle's locally recorded allocations into the registry.
    pub fn absorb(&self, local: &mut Vec<*mut T>) {
        if local.is_empty() {
            return;
        }
        let mut g = self.retired.lock().unwrap();
        g.append(local);
    }

    /// Number of registered nodes (test/diagnostic use).
    pub fn len(&self) -> usize {
        self.retired.lock().unwrap().len()
    }

    /// `true` iff no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Frees every registered node.
    ///
    /// # Safety
    ///
    /// Caller must guarantee exclusive access (no live handles, no
    /// concurrent list operations) and that each registered pointer came
    /// from `Box::into_raw` and is freed exactly once — both are upheld by
    /// the skiplist's `Drop` impl, the only caller.
    pub unsafe fn free_all(&mut self) {
        let mut g = self.retired.lock().unwrap();
        for &p in g.iter() {
            // SAFETY: per this function's contract, `p` came from
            // `Box::into_raw`, no other reference to it exists, and
            // `g.clear()` below ensures it is freed exactly once.
            drop(unsafe { Box::from_raw(p) });
        }
        g.clear();
    }
}

impl<T> Default for Registry<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-handle allocation log. Pushing is unsynchronised and O(1) amortised.
pub struct LocalArena<T> {
    nodes: Vec<*mut T>,
}

impl<T> Default for LocalArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LocalArena<T> {
    /// Creates an empty per-handle allocation log.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Records a node allocated by this handle.
    #[inline]
    pub fn record(&mut self, node: *mut T) {
        self.nodes.push(node);
    }

    /// Hands all recorded nodes to the shared registry (called from the
    /// handle's `Drop`).
    pub fn flush_into(&mut self, registry: &Registry<T>) {
        registry.absorb(&mut self.nodes);
    }

    /// Number of locally recorded, not-yet-flushed nodes (test support).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff nothing is recorded (test support).
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(v: u32) -> *mut u32 {
        Box::into_raw(Box::new(v))
    }

    #[test]
    fn absorb_moves_everything() {
        let reg = Registry::new();
        let mut local = LocalArena::new();
        for i in 0..100 {
            local.record(alloc(i));
        }
        assert_eq!(local.len(), 100);
        local.flush_into(&reg);
        assert_eq!(local.len(), 0);
        assert_eq!(reg.len(), 100);
        let mut reg = reg;
        // SAFETY: `local` flushed and no other handle exists; every
        // pointer came from `Box::into_raw` in `alloc`.
        unsafe { reg.free_all() };
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn absorb_empty_is_noop_without_locking_overhead() {
        let reg: Registry<u32> = Registry::new();
        let mut empty = Vec::new();
        reg.absorb(&mut empty);
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn free_all_idempotent() {
        let mut reg = Registry::new();
        let mut v = vec![alloc(1), alloc(2)];
        reg.absorb(&mut v);
        // SAFETY: exclusive access, Box-derived pointers; the first call
        // clears the registry so the second frees nothing.
        unsafe { reg.free_all() };
        unsafe { reg.free_all() }; // second call sees an empty registry
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn concurrent_flushes_from_many_threads() {
        let reg = Registry::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let reg = &reg;
                s.spawn(move || {
                    let mut local = LocalArena::new();
                    for i in 0..1000u32 {
                        local.record(alloc(t * 1000 + i));
                    }
                    local.flush_into(reg);
                });
            }
        });
        assert_eq!(reg.len(), 8000);
        let mut reg = reg;
        // SAFETY: the scope joined every thread, so access is exclusive
        // and all pointers are Box-derived and freed once.
        unsafe { reg.free_all() };
    }
}
