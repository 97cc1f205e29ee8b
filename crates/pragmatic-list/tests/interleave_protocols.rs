//! Model-checked protocol tests: the four synchronization protocols the
//! paper reproduction leans on, each explored under every thread
//! interleaving within a preemption bound by the vendored `interleave`
//! checker (compile with `RUSTFLAGS="--cfg interleave"`).
//!
//! What the checker adds over the plain concurrency tests: schedules the
//! host scheduler never produces, an acquire/release-aware visibility
//! model (so a `Relaxed` where `Acquire` is needed manifests as a stale
//! read), and use-after-free tombstones on every instrumented atomic (so
//! a reclamation protocol that frees a node while a traversal can still
//! reach it fails the run instead of silently reading freed memory).
//!
//! Each test asserts `iterations > 1`: a single-schedule pass would mean
//! the facade is not actually routing through the checker.

#![cfg(interleave)]

use std::sync::Arc;

use interleave::{Builder, Report};
use pragmatic_list::reclaim::EpochReclaim;
use pragmatic_list::set::{ConcurrentOrderedSet, SetHandle};
use pragmatic_list::singly::SinglyList;
use pragmatic_list::unrolled::UnrolledList;
use pragmatic_list::variants::{SinglyCursorList, SinglyEpochList, SinglyHpList};
use pragmatic_list::{ElasticSet, LoadPolicy};

/// An elastic policy under which `force_split_at` always commits on a
/// 4-key shard (the default `min_split_keys: 16` would abort the split
/// and leave the seal → drain handshake unexercised), with the load
/// monitor effectively disabled so only the forced migration runs.
fn elastic_policy() -> LoadPolicy {
    LoadPolicy {
        initial_shards: 1,
        max_shards: 16,
        check_period: 1 << 20,
        window_min_ops: 1 << 20,
        split_share_pct: 10,
        merge_share_pct: 0,
        min_split_keys: 2,
        ..LoadPolicy::default()
    }
}

/// A builder at the default depth, or — when `INTERLEAVE_DEEP=1` is set
/// (the scheduled CI job) — with a raised preemption bound and iteration
/// budget for a much larger schedule space.
fn builder(bound: usize) -> Builder {
    let deep = std::env::var_os("INTERLEAVE_DEEP").is_some_and(|v| v == "1");
    Builder::new()
        .preemption_bound(if deep { bound + 1 } else { bound })
        .max_iterations(if deep { 2_000_000 } else { 30_000 })
}

/// Common acceptance: no failing schedule, and more than one schedule
/// actually explored (proof the facade routed through the checker).
#[track_caller]
fn accept(name: &str, report: Report) {
    eprintln!("{name}: explored {} schedules", report.iterations);
    assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    assert!(
        report.iterations > 1,
        "expected real exploration, got {} iteration(s)",
        report.iterations
    );
}

/// Protocol 1: concurrent mark / unlink / insert on a two-node list
/// (arena reclamation, so no reclamation protocol interferes). One
/// thread removes 10 while the main thread inserts 15 — every
/// interleaving must linearize to `{15, 20}`.
#[test]
fn mark_unlink_insert_two_node_list() {
    let report = builder(2).check(|| {
        let set = Arc::new(SinglyList::<i64, true, true, false>::new());
        {
            let mut h = set.handle();
            assert!(h.add(10));
            assert!(h.add(20));
        }
        let s2 = Arc::clone(&set);
        let t = interleave::thread::spawn(move || {
            let mut h = s2.handle();
            h.remove(10)
        });
        let inserted = {
            let mut h = set.handle();
            h.add(15)
        };
        let removed = t.join().unwrap();
        assert!(removed, "10 was present; the remover must win its mark");
        assert!(inserted, "15 was absent; the inserter must succeed");
        let mut set = Arc::into_inner(set).expect("all handles dropped");
        set.check_invariants().unwrap();
        let keys = set.collect_keys();
        assert_eq!(keys, vec![15, 20], "linearized outcome");
    });
    accept("mark_unlink_insert", report);
}

/// Protocol 2: the hazard-pointer protect-and-revalidate handshake
/// (`acquire_curr`): a traversal publishes a hazard on `curr` and
/// re-reads `pred`'s link, racing a remover that marks, unlinks, and
/// retires the same node. The retire-side scan must observe the hazard;
/// a protocol bug surfaces as a use-after-free tombstone hit on the
/// freed node's atomics.
#[test]
fn hazard_protect_and_revalidate() {
    let report = builder(1).check(|| {
        let set = Arc::new(SinglyHpList::<i64>::new());
        {
            let mut h = set.handle();
            assert!(h.add(10));
            assert!(h.add(20));
        }
        let s2 = Arc::clone(&set);
        let t = interleave::thread::spawn(move || {
            let mut h = s2.handle();
            // Remove and drop the handle: unregistering scans and frees
            // this thread's retired nodes, so the free runs while the
            // main thread may still be traversing.
            h.remove(10)
        });
        let seen = {
            let mut h = set.handle();
            (h.contains(10), h.contains(20))
        };
        let removed = t.join().unwrap();
        assert!(removed);
        assert!(seen.1, "20 is never removed; traversal must see it");
        let mut set = Arc::into_inner(set).expect("all handles dropped");
        set.check_invariants().unwrap();
        assert_eq!(set.collect_keys(), vec![20]);
    });
    accept("hazard_protect_and_revalidate", report);
}

/// Protocol 3: epoch pin / defer / collect. A reader pins and traverses
/// while a remover retires a node into the global epoch collector and
/// drives collection. The three-epoch grace period must keep the node
/// alive until the reader unpins; premature frees hit the checker's
/// use-after-free tombstones. The collector's process-global state is
/// reset between executions via `on_reset`.
#[test]
fn epoch_pin_defer_collect() {
    let report = builder(1)
        .on_reset(crossbeam_epoch::interleave_reset)
        .check(|| {
            let set = Arc::new(SinglyEpochList::<i64>::new());
            {
                let mut h = set.handle();
                assert!(h.add(10));
                assert!(h.add(20));
            }
            let s2 = Arc::clone(&set);
            let t = interleave::thread::spawn(move || {
                let mut h = s2.handle();
                let removed = h.remove(10);
                // Drive collection so frees happen while the reader may
                // still be pinned mid-traversal.
                crossbeam_epoch::pin().flush();
                removed
            });
            let seen = {
                let mut h = set.handle();
                (h.contains(10), h.contains(20))
            };
            assert!(t.join().unwrap());
            assert!(seen.1);
            let mut set = Arc::into_inner(set).expect("all handles dropped");
            set.check_invariants().unwrap();
            assert_eq!(set.collect_keys(), vec![20]);
        });
    accept("epoch_pin_defer_collect", report);
}

/// Protocol 5: the unrolled list's node-split race. A `CAP = 2` node
/// holding `[10, 20]` is full, so the spawned thread's `add(15)` runs
/// the full retirement protocol — freeze the run word, mark `next`,
/// splice the node into `[10]` + `[20]`, then re-insert 15 — while the
/// main thread removes 20, whose ownership migrates from the splitting
/// node to the freshly published right half mid-protocol. Every
/// interleaving must linearize to `{10, 15}`; a walker that acts on a
/// mark without seeing the frozen image trips the *marked ⇒ frozen*
/// `debug_assert` in `splice_out` (exactly what the `interleave_mutate`
/// self-test weakens `RUN_PUBLISH` to provoke).
#[test]
fn unrolled_split_race() {
    let report = builder(2).check(|| {
        let set = Arc::new(UnrolledList::<i64, 2>::new());
        {
            let mut h = set.handle();
            assert!(h.add(10));
            assert!(h.add(20));
        }
        let s2 = Arc::clone(&set);
        let t = interleave::thread::spawn(move || {
            let mut h = s2.handle();
            h.add(15)
        });
        let removed = {
            let mut h = set.handle();
            h.remove(20)
        };
        let inserted = t.join().unwrap();
        assert!(inserted, "15 was absent; the splitting inserter must win");
        assert!(removed, "20 was present throughout; the remover must win");
        let mut set = Arc::into_inner(set).expect("all handles dropped");
        set.check_invariants().unwrap();
        assert_eq!(set.collect_keys(), vec![10, 15], "linearized outcome");
    });
    accept("unrolled_split_race", report);
}

/// Protocol 6: the unrolled list's empty-node unlink race. Two removers
/// drain the only fat node (`CAP = 2`, `[10, 20]`): whichever empties
/// it installs the frozen empty image and the terminal mark, and the
/// main thread's following `add(15)` must help splice the carcass out
/// before (or while) inserting. Every interleaving ends at `{15}` with
/// both removes succeeding exactly once.
#[test]
fn unrolled_empty_node_unlink_race() {
    let report = builder(1).check(|| {
        let set = Arc::new(UnrolledList::<i64, 2>::new());
        {
            let mut h = set.handle();
            assert!(h.add(10));
            assert!(h.add(20));
        }
        let s2 = Arc::clone(&set);
        let t = interleave::thread::spawn(move || {
            let mut h = s2.handle();
            h.remove(10)
        });
        let (removed, inserted) = {
            let mut h = set.handle();
            (h.remove(20), h.add(15))
        };
        assert!(t.join().unwrap(), "10 was present; its remover must win");
        assert!(removed, "20 was present; its remover must win");
        assert!(inserted, "15 was absent; the inserter must succeed");
        let mut set = Arc::into_inner(set).expect("all handles dropped");
        set.check_invariants().unwrap();
        assert_eq!(set.collect_keys(), vec![15], "linearized outcome");
    });
    accept("unrolled_empty_node_unlink_race", report);
}

/// Protocol 6b: unrolled retirement under epoch reclamation. Draining
/// `[20, 30]` empties the right fat node, which retires the node *and*
/// its frozen image into the global collector while the main thread is
/// mid-traversal; the grace period must keep the node's instrumented
/// atomics alive until the reader unpins (premature frees hit the
/// checker's use-after-free tombstones).
#[test]
fn unrolled_epoch_retire_during_traversal() {
    let report = builder(1)
        .on_reset(crossbeam_epoch::interleave_reset)
        .check(|| {
            let set = Arc::new(UnrolledList::<i64, 2, EpochReclaim>::new());
            {
                let mut h = set.handle();
                for k in [10, 20, 30] {
                    assert!(h.add(k));
                }
            }
            let s2 = Arc::clone(&set);
            let t = interleave::thread::spawn(move || {
                let mut h = s2.handle();
                let a = h.remove(20);
                let b = h.remove(30);
                // Drive collection so frees happen while the reader may
                // still be pinned mid-traversal.
                crossbeam_epoch::pin().flush();
                (a, b)
            });
            let seen = {
                let mut h = set.handle();
                (h.contains(10), h.contains(30))
            };
            let (a, b) = t.join().unwrap();
            assert!(a && b, "both removes must win");
            assert!(seen.0, "10 is never removed; traversal must see it");
            let mut set = Arc::into_inner(set).expect("all handles dropped");
            set.check_invariants().unwrap();
            assert_eq!(set.collect_keys(), vec![10]);
        });
    accept("unrolled_epoch_retire_during_traversal", report);
}

/// Protocol 4: the elastic seal → activity-slot drain handshake. A
/// writer publishes its shard id in an activity slot (`SeqCst`) and
/// re-checks the seal; a migrator seals the shard, then drains the
/// activity slots before moving items. Every interleaving must either
/// route the write to the new shard or complete it before the drain —
/// never lose it.
#[test]
fn elastic_seal_drain_handshake() {
    // The epoch reset hook is only a guard: neither the router nor this
    // backend retires into the global collector.
    let report = builder(1)
        .on_reset(crossbeam_epoch::interleave_reset)
        .check(|| {
            let set = Arc::new(ElasticSet::<i64, SinglyCursorList<i64>>::with_policy(
                elastic_policy(),
            ));
            {
                let mut h = set.handle();
                for k in [10, 400, 700, 1_000] {
                    assert!(h.add(k));
                }
            }
            let s2 = Arc::clone(&set);
            let t = interleave::thread::spawn(move || {
                let mut h = s2.handle();
                h.add(500)
            });
            // Race a split against the in-flight add: seal, drain the
            // activity slots, migrate.
            let split = set.force_split_at(600);
            assert!(split, "the forced split must commit");
            let added = t.join().unwrap();
            assert!(added, "the racing add must not be lost");
            let mut set = Arc::into_inner(set).expect("all handles dropped");
            set.check_invariants().unwrap();
            let mut h = set.handle();
            for k in [10, 400, 500, 700, 1_000] {
                assert!(h.contains(k), "key {k} must survive the migration");
            }
        });
    accept("elastic_seal_drain_handshake", report);
}

/// Protocol 7: the RCU router's publish → read → retire handshake. The
/// read path is a single `Acquire` load of the router version — no
/// mutex — so a reader routes through whichever table it snapshotted
/// while a migrator swaps the successor in under the table mutex, bumps
/// the version (`SeqCst`) and drops the superseded table. Every
/// interleaving must (a) route the reader to a table whose freshly
/// built shard backends are fully visible — the table mutex is what
/// makes the bulk-loaded contents travel with the table — and (b) keep
/// the retired shards' instrumented atomics alive while any reader
/// still routes through them (a premature free trips the checker's
/// use-after-free tombstones). Once the reader quiesces, every
/// superseded table must be freed.
#[test]
fn rcu_router_publish_read_retire() {
    let report = builder(1)
        .on_reset(crossbeam_epoch::interleave_reset)
        .check(|| {
            let set = Arc::new(ElasticSet::<i64, SinglyCursorList<i64>>::with_policy(
                elastic_policy(),
            ));
            {
                let mut h = set.handle();
                for k in [10, 400, 700, 1_000] {
                    assert!(h.add(k));
                }
            }
            let s2 = Arc::clone(&set);
            let t = interleave::thread::spawn(move || {
                // A fresh handle snapshots the version and the table and
                // routes both probes through it, racing the publish and
                // the old table's retirement.
                let mut h = s2.handle();
                (h.contains(10), h.contains(1_000))
            });
            assert!(set.force_split_at(600), "the forced split must commit");
            let (lo, hi) = t.join().unwrap();
            assert!(lo, "key 10 must stay visible across the table publish");
            assert!(hi, "key 1000 must stay visible across the table publish");
            // Retire leg: the reader is gone, so the pre-split table
            // must be freed (the flushes are a no-op for the router).
            for _ in 0..8 {
                if set.tables_alive() == 1 {
                    break;
                }
                crossbeam_epoch::pin().flush();
            }
            assert_eq!(set.tables_alive(), 1, "retired router tables must collect");
            let mut set = Arc::into_inner(set).expect("all handles dropped");
            set.check_invariants().unwrap();
        });
    accept("rcu_router_publish_read_retire", report);
}
