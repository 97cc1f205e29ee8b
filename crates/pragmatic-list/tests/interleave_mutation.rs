//! Mutation self-test for the model checker: compile with
//! `RUSTFLAGS="--cfg interleave --cfg interleave_mutate"` and the
//! elastic activity-slot publish is deliberately weakened from `SeqCst`
//! to `Relaxed` (see `SLOT_PUBLISH` in `elastic.rs`). This test asserts
//! the checker *catches* that seeded bug — the evidence that the
//! protocol tests are load-bearing rather than vacuously green. The
//! router's twin runs under its own
//! `RUSTFLAGS="--cfg interleave --cfg interleave_mutate_router"`.
//!
//! The race the weakening reintroduces is store buffering: the writer
//! publishes its shard id and then checks the seal, the migrator seals
//! and then scans the slots. With a `Relaxed` publish the two stores are
//! no longer globally ordered against the two loads, so a schedule
//! exists where the writer sees "unsealed" *and* the drain scan sees an
//! idle slot — the migration then copies the shard while the write is
//! still in flight, and the written key is lost.

#![cfg(all(interleave, any(interleave_mutate, interleave_mutate_router)))]

use std::sync::Arc;

use interleave::Builder;
use pragmatic_list::set::{ConcurrentOrderedSet, SetHandle};
use pragmatic_list::variants::SinglyCursorList;
use pragmatic_list::{ElasticSet, LoadPolicy};

/// A committed split on a 4-key shard, load monitor disabled — the same
/// policy as the passing protocol tests.
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

#[cfg(interleave_mutate)]
#[test]
fn weakened_slot_publish_is_detected() {
    let report = Builder::new()
        .preemption_bound(2)
        .max_iterations(200_000)
        .on_reset(crossbeam_epoch::interleave_reset)
        .check(|| {
            let policy = elastic_policy();
            let set = Arc::new(ElasticSet::<i64, SinglyCursorList<i64>>::with_policy(
                policy,
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
            assert!(set.force_split_at(600), "the forced split must commit");
            let added = t.join().unwrap();
            assert!(added, "the racing add must not be lost");
            let mut set = Arc::into_inner(set).expect("all handles dropped");
            set.check_invariants().unwrap();
            let mut h = set.handle();
            for k in [10, 400, 500, 700, 1_000] {
                assert!(h.contains(k), "key {k} must survive the migration");
            }
        });
    eprintln!("mutation run explored {} schedules", report.iterations);
    let failure = report
        .failure
        .expect("the seeded SeqCst→Relaxed mutation must produce a failing schedule");
    eprintln!(
        "mutation caught after {} schedules:\n{failure}",
        report.iterations
    );
}

/// The unrolled list's seeded mutation: `interleave_mutate` weakens
/// `RUN_PUBLISH` (see `unrolled.rs`) from `AcqRel` to `Relaxed` on the
/// freeze `CAS()` and the retire `fetch_or`. The retirement protocol is
/// freeze → mark → splice, and its *marked ⇒ frozen* invariant is what
/// the weakening breaks: with a `Relaxed` mark, a walker's acquire load
/// of `next` can observe the mark without synchronizing with the freeze
/// that program-order preceded it, so its load of the run word can
/// still return the stale unfrozen image. The helping splice asserts
/// the invariant (`debug_assert!` in `splice_out`), so the checker must
/// find a schedule where a concurrent walker trips it during a split.
#[cfg(interleave_mutate)]
#[test]
fn weakened_run_publish_is_detected() {
    use pragmatic_list::unrolled::UnrolledList;
    let report = Builder::new()
        .preemption_bound(2)
        .max_iterations(200_000)
        .check(|| {
            // Same shape as the passing `unrolled_split_race` protocol
            // test: a full CAP = 2 node forces add(15) through
            // freeze/mark/splice while the main thread's remove(20)
            // walks onto the marked node and helps.
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
    eprintln!(
        "unrolled mutation run explored {} schedules",
        report.iterations
    );
    let failure = report
        .failure
        .expect("the seeded AcqRel→Relaxed RUN_PUBLISH mutation must produce a failing schedule");
    eprintln!(
        "unrolled mutation caught after {} schedules:\n{failure}",
        report.iterations
    );
}

/// The router's seeded mutation: `interleave_mutate_router` makes
/// `ElasticCore::publish` bump the router version *before* it swaps the
/// new table in (see `elastic.rs`). A writer stalled on the sealed
/// shard then sees the new version, refreshes while the mutex still
/// holds the old table, and records the new version with the old table.
/// Its next admit routes to the same sealed shard, and its stall waits
/// for a version change that never comes. The checker must report that
/// livelock. It has its own cfg because, under `interleave_mutate`, the
/// livelock would hide the slot twin's lost-key race.
#[cfg(interleave_mutate_router)]
#[test]
fn version_before_install_is_detected() {
    let report = Builder::new()
        .preemption_bound(2)
        .max_iterations(200_000)
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
            assert!(set.force_split_at(600), "the forced split must commit");
            assert!(t.join().unwrap(), "the racing add must not be lost");
            let mut set = Arc::into_inner(set).expect("all handles dropped");
            set.check_invariants().unwrap();
        });
    eprintln!(
        "router mutation run explored {} schedules",
        report.iterations
    );
    let failure = report
        .failure
        .expect("the seeded version-before-install mutation must produce a failing schedule");
    eprintln!(
        "router mutation caught after {} schedules:\n{failure}",
        report.iterations
    );
}
