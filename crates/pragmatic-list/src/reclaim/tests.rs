//! Reclaim-layer tests: compile-time name derivation and — the heart of
//! this module — leak accounting. Every node allocated for a `LeakKey`
//! list is counted at the allocation site, every free in the node's
//! (test-only) `Drop`; after a churn workload and list drop the two
//! counters must balance for each scheme. Any path that loses track of a
//! node (a forgotten retire, an unregistered spare, an orphaned hazard
//! retiree) breaks the balance.

use super::leak::{self, LeakKey};
use super::{str_eq, EpochReclaim, HazardReclaim};
use crate::doubly::DoublyList;
use crate::singly::SinglyList;
use crate::unrolled::UnrolledList;
use crate::{ConcurrentOrderedSet, SetHandle};

#[test]
fn const_str_eq_behaves() {
    assert!(str_eq("arena", "arena"));
    assert!(!str_eq("arena", "epoch"));
    assert!(!str_eq("hp", "hpx"));
    assert!(str_eq("", ""));
}

/// Multi-threaded add/remove churn over a small key band, then drop the
/// list and assert alloc/free balance. `drive_epoch` additionally spins
/// the epoch collector, whose frees are deferred past the drop.
fn assert_churn_is_leak_free<S: ConcurrentOrderedSet<LeakKey>>(drive_epoch: bool) {
    let _serial = leak::LEAK_TEST_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let (a0, f0) = leak::snapshot();
    {
        let list = S::new();
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let list = &list;
                s.spawn(move || {
                    let mut h = list.handle();
                    for round in 0..5i64 {
                        for i in 0..200 {
                            h.add(LeakKey((i * 4 + t) % 150 + 1));
                        }
                        for i in 0..200 {
                            h.remove(LeakKey((i * 4 + t + round) % 150 + 1));
                        }
                    }
                });
            }
        });
    }
    if drive_epoch {
        // Retired nodes belong to the global epoch collector; with no
        // pin on this thread a few collection rounds free them (bounded
        // retries: unrelated tests may hold short-lived pins).
        for _ in 0..10_000 {
            let (a, f) = leak::snapshot();
            if a - a0 == f - f0 {
                break;
            }
            crossbeam_epoch::pin().flush();
            std::thread::yield_now();
        }
    }
    let (a1, f1) = leak::snapshot();
    assert!(a1 > a0, "{}: churn must allocate", S::NAME);
    assert_eq!(
        a1 - a0,
        f1 - f0,
        "{}: every allocated node (incl. sentinels and spares) must be freed",
        S::NAME
    );
}

#[test]
fn arena_churn_is_leak_free_singly() {
    assert_churn_is_leak_free::<SinglyList<LeakKey, true, true, false>>(false);
}

#[test]
fn arena_churn_is_leak_free_doubly() {
    assert_churn_is_leak_free::<DoublyList<LeakKey, true>>(false);
}

#[test]
fn epoch_churn_is_leak_free_singly() {
    assert_churn_is_leak_free::<SinglyList<LeakKey, true, true, false, EpochReclaim>>(true);
}

#[test]
fn epoch_churn_is_leak_free_doubly() {
    assert_churn_is_leak_free::<DoublyList<LeakKey, true, true, EpochReclaim>>(true);
}

#[test]
fn hazard_churn_is_leak_free_singly() {
    assert_churn_is_leak_free::<SinglyList<LeakKey, true, false, false, HazardReclaim>>(false);
}

#[test]
fn hinted_arena_churn_is_leak_free() {
    // The hinted extension parks extra dangling pointers (the hint
    // slots) — the arena's slab accounting must still balance.
    assert_churn_is_leak_free::<SinglyList<LeakKey, true, true, false, super::ArenaReclaim, 8>>(
        false,
    );
    assert_churn_is_leak_free::<DoublyList<LeakKey, true, true, super::ArenaReclaim, 8>>(false);
}

/// The unrolled list runs two reclamation domains at once — fat nodes
/// and run images — and every failed CAS recycles its spare image while
/// every successful one retires the displaced image. CAP = 4 over a
/// 150-key band keeps splits and empty-node unlinks continuous, so the
/// balance below covers nodes, published images, recycled spares, and
/// losers' unpublished speculation in one number.
#[test]
fn unrolled_churn_is_leak_free_arena() {
    assert_churn_is_leak_free::<UnrolledList<LeakKey, 4>>(false);
}

#[test]
fn unrolled_churn_is_leak_free_epoch() {
    assert_churn_is_leak_free::<UnrolledList<LeakKey, 4, EpochReclaim>>(true);
}

#[test]
fn unrolled_churn_is_leak_free_hazard() {
    assert_churn_is_leak_free::<UnrolledList<LeakKey, 4, HazardReclaim>>(false);
}

#[test]
fn unrolled_hinted_churn_is_leak_free() {
    // Hint slots park dangling fat-node pointers; the arena must still
    // account for every node and image they once pointed at.
    assert_churn_is_leak_free::<UnrolledList<LeakKey, 4, super::ArenaReclaim, 8>>(false);
}

/// Batched churn: multi-threaded `add_batch`/`remove_batch` over a
/// small key band, then drop; alloc/free must balance per scheme —
/// including slots the epoch/hazard schemes *recycled* mid-run (each
/// reuse is a fresh alloc count paired with its eventual drop).
fn assert_batch_churn_is_leak_free<S: ConcurrentOrderedSet<LeakKey>>(drive_epoch: bool) {
    let _serial = leak::LEAK_TEST_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let (a0, f0) = leak::snapshot();
    {
        let list = S::new();
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let list = &list;
                s.spawn(move || {
                    let mut h = list.handle();
                    let mut batch = [LeakKey(0); 24];
                    for round in 0..12i64 {
                        for (i, slot) in batch.iter_mut().enumerate() {
                            *slot = LeakKey((i as i64 * 4 + t + round * 7) % 90 + 1);
                        }
                        h.add_batch(&mut batch);
                        for (i, slot) in batch.iter_mut().enumerate() {
                            *slot = LeakKey((i as i64 * 4 + t + round * 11) % 90 + 1);
                        }
                        h.remove_batch(&mut batch);
                    }
                });
            }
        });
    }
    if drive_epoch {
        for _ in 0..10_000 {
            let (a, f) = leak::snapshot();
            if a - a0 == f - f0 {
                break;
            }
            crossbeam_epoch::pin().flush();
            std::thread::yield_now();
        }
    }
    let (a1, f1) = leak::snapshot();
    assert!(a1 > a0, "{}: batch churn must allocate", S::NAME);
    assert_eq!(
        a1 - a0,
        f1 - f0,
        "{}: batched ops must not leak (recycled slab slots included)",
        S::NAME
    );
}

#[test]
fn batch_churn_is_leak_free_arena() {
    assert_batch_churn_is_leak_free::<SinglyList<LeakKey, true, true, false>>(false);
}

#[test]
fn batch_churn_is_leak_free_epoch() {
    assert_batch_churn_is_leak_free::<SinglyList<LeakKey, true, true, false, EpochReclaim>>(true);
}

#[test]
fn batch_churn_is_leak_free_hazard() {
    assert_batch_churn_is_leak_free::<SinglyList<LeakKey, true, false, false, HazardReclaim>>(
        false,
    );
}

/// Unrolled batch churn: a single merged CAS can absorb many keys,
/// split a full node, or empty one (freezing and marking in one step) —
/// each path must retire exactly the images and nodes it displaces.
#[test]
fn unrolled_batch_churn_is_leak_free_arena() {
    assert_batch_churn_is_leak_free::<UnrolledList<LeakKey, 4>>(false);
}

#[test]
fn unrolled_batch_churn_is_leak_free_epoch() {
    assert_batch_churn_is_leak_free::<UnrolledList<LeakKey, 4, EpochReclaim>>(true);
}

#[test]
fn unrolled_batch_churn_is_leak_free_hazard() {
    assert_batch_churn_is_leak_free::<UnrolledList<LeakKey, 4, HazardReclaim>>(false);
}

#[test]
fn epoch_recycling_survives_tight_reuse_churn() {
    // Hammer an 8-key working set with thousands of add/remove pairs on
    // one epoch list: retired slots flow through the grace period back
    // into the pool and get written over by later inserts. Any
    // drop-in-place/reuse misordering shows up here as a double drop or
    // UAF (and as an accounting imbalance in the leak tests above).
    let _serial = leak::LEAK_TEST_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let (a0, f0) = leak::snapshot();
    let list = SinglyList::<LeakKey, true, true, false, EpochReclaim>::new();
    {
        let mut h = list.handle();
        for round in 0..3_000i64 {
            assert!(h.add(LeakKey(round % 8 + 1)));
            assert!(h.remove(LeakKey(round % 8 + 1)));
        }
    }
    drop(list);
    // Drain this test's deferred frees before releasing the lock: left
    // pending, any thread's later flush would run them inside the next
    // leak test's accounting window.
    for _ in 0..10_000 {
        let (a, f) = leak::snapshot();
        if a - a0 == f - f0 {
            break;
        }
        crossbeam_epoch::pin().flush();
        std::thread::yield_now();
    }
    let (a1, f1) = leak::snapshot();
    assert_eq!(a1 - a0, f1 - f0, "recycled epoch slots must all be freed");
}

#[test]
fn hazard_scan_frees_while_handles_are_live() {
    // The per-thread retire list scans at a fixed threshold, so garbage
    // must start flowing back *during* the run, not only at list drop:
    // after enough single-threaded churn, frees are already non-zero.
    let _serial = leak::LEAK_TEST_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let (_, f0) = leak::snapshot();
    let list = SinglyList::<LeakKey, true, false, false, HazardReclaim>::new();
    let mut h = list.handle();
    for round in 0..40i64 {
        for i in 0..20 {
            h.add(LeakKey(round * 20 + i + 1));
        }
        for i in 0..20 {
            h.remove(LeakKey(round * 20 + i + 1));
        }
    }
    let (_, f_live) = leak::snapshot();
    assert!(
        f_live > f0,
        "hazard scan must free retired nodes while the handle lives"
    );
    drop(h);
    drop(list);
}

#[test]
fn protected_scan_is_exact_when_quiescent() {
    use crate::OrderedHandle;
    let list = SinglyList::<i64, true, false, false, HazardReclaim>::new();
    let mut h = list.handle();
    for k in [7i64, 2, 9, 4, 1, 8] {
        assert!(h.add(k));
    }
    assert!(h.remove(4));
    assert_eq!(h.iter().into_vec(), vec![1, 2, 7, 8, 9]);
    assert_eq!(h.range(2..8).into_vec(), vec![2, 7]);
    assert_eq!(h.len_estimate(), 5);
}
