//! Differential (oracle) tests: every concurrent variant, run
//! single-threaded on randomised operation tapes, must agree op-for-op
//! with the sequential lists from `seq-list` — which are themselves
//! cross-checked against `std::collections::BTreeSet` in their own unit
//! tests. Property-based via proptest.

use proptest::prelude::*;

use pragmatic_list::elastic::{ElasticMap, ElasticMorphSet, ElasticSet, LoadPolicy, MorphKind};
use pragmatic_list::reclaim::{ArenaReclaim, EpochReclaim, HazardReclaim};
use pragmatic_list::sharded::{ShardedMap, ShardedSet};
use pragmatic_list::unrolled::UnrolledList;
use pragmatic_list::variants::{
    CursorOnlyList, DoublyBackptrList, DoublyCursorEpochList, DoublyCursorList, DoublyHintedList,
    DraconicList, SinglyCursorList, SinglyEpochList, SinglyFetchOrEpochList, SinglyFetchOrList,
    SinglyHintedList, SinglyHpList, SinglyMildList, UnrolledArenaList, UnrolledEpochList,
    UnrolledHintedList, UnrolledHpList,
};
use pragmatic_list::{ConcurrentOrderedSet, EpochList, OrderedHandle, SetHandle};
use seq_list::{DoublySeqList, SeqOrderedSet, SinglySeqList};

type ShardedSingly8 = ShardedSet<i64, SinglyCursorList<i64>, 8>;
type ShardedSkiplist8 = ShardedSet<i64, lockfree_skiplist::SkipListSet<i64>, 8>;
type ShardedEpoch8 = ShardedSet<i64, pragmatic_list::variants::SinglyCursorEpochList<i64>, 8>;
type ElasticSingly = ElasticSet<i64, SinglyCursorList<i64>>;
type ElasticSkiplist = ElasticSet<i64, lockfree_skiplist::SkipListSet<i64>>;
type ElasticMorph = ElasticMorphSet<i64, lockfree_skiplist::SkipListSet<i64>>;

// CAP = 2 is the unrolled list's adversarial configuration: a node fills
// after two inserts, so median splits fire on nearly every third add and
// any remove-heavy stretch empties (and unlinks) nodes — the tape forces
// the split and unlink protocols mid-run instead of only at the margins.
type UnrolledTiny = UnrolledList<i64, 2>;
type UnrolledTinyHinted = UnrolledList<i64, 2, ArenaReclaim, 8>;
type UnrolledTinyEpoch = UnrolledList<i64, 2, EpochReclaim>;
type UnrolledTinyHp = UnrolledList<i64, 2, HazardReclaim>;

/// A policy that lets the elastic differential tests split tiny shards.
fn splittable() -> LoadPolicy {
    LoadPolicy {
        min_split_keys: 2,
        ..LoadPolicy::default()
    }
}

/// `splittable` with morph bands tight enough that medium tapes cross
/// all three backend arms (list ≤ 8 < unrolled < 24 ≤ skiplist).
fn morphable() -> LoadPolicy {
    LoadPolicy {
        min_split_keys: 2,
        morph_list_max: 8,
        morph_skip_min: 24,
        // Pin an eager monitor cadence: the default is tuned for long
        // benchmark runs and would not open a rebalance window within
        // this test's short churn burst.
        check_period: 64,
        window_min_ops: 128,
        ..LoadPolicy::default()
    }
}

/// Applies `tape` to an [`ElasticMorphSet`] and a `BTreeSet` oracle
/// while *forcing* list↔unrolled↔skiplist morphs (every fourth decision
/// a split instead) mid-tape. A windowed `range()` is probed immediately
/// before and immediately after each rebuild, so the scan demonstrably
/// resumes across the morph; the tail checks quiescent exactness, final
/// contents, and the router/backend invariants.
fn check_morphs_against_btreeset(tape: &[Step], morph_every: usize) {
    use std::collections::BTreeSet;
    const KINDS: [MorphKind; 3] = [MorphKind::Unrolled, MorphKind::Skip, MorphKind::List];
    let set = ElasticMorph::with_policy(morphable());
    let mut h = set.handle();
    let mut oracle = BTreeSet::new();
    for (i, &step) in tape.iter().enumerate() {
        let (got, want, key) = match step {
            Step::Add(k) => (h.add(k), oracle.insert(k), k),
            Step::Remove(k) => (h.remove(k), oracle.remove(&k), k),
            Step::Contains(k) => (h.contains(k), oracle.contains(&k), k),
        };
        assert_eq!(got, want, "elastic_morph: step {i} diverged");
        if morph_every > 0 && i % morph_every == morph_every - 1 {
            let round = i / morph_every;
            let window: Vec<i64> = oracle.range(..key).copied().collect();
            assert_eq!(
                h.range(..key).into_vec(),
                window,
                "window before rebuild {round}"
            );
            if round % 4 == 3 {
                set.force_split_at(key);
            } else {
                set.force_morph_at(key, KINDS[round % 3]);
            }
            assert_eq!(
                h.range(..key).into_vec(),
                window,
                "window resumed across rebuild {round}"
            );
        }
    }
    let all: Vec<i64> = oracle.iter().copied().collect();
    assert_eq!(h.iter().into_vec(), all, "elastic_morph: full scan");
    assert_eq!(h.len_estimate(), oracle.len());
    for &lo in all.iter().take(3) {
        for &hi in all.iter().rev().take(3) {
            if lo <= hi {
                let want: Vec<i64> = oracle.range(lo..=hi).copied().collect();
                assert_eq!(h.range(lo..=hi).into_vec(), want, "window {lo}..={hi}");
            }
        }
    }
    drop(h);
    let mut set = set;
    assert_eq!(set.collect_keys(), all, "elastic_morph: final contents");
    set.check_invariants()
        .unwrap_or_else(|e| panic!("elastic_morph: invariant violated: {e}"));
}

/// Applies `tape` to an elastic set and a `BTreeSet` oracle while
/// *forcing* a migration every `split_every` steps (a split at the key
/// just operated on; every fourth decision a merge instead), then
/// checks quiescent exactness: op-for-op agreement, full and windowed
/// scans, final contents, and the router/backend invariants.
fn check_elastic_with_forced_migrations<B>(tape: &[Step], split_every: usize)
where
    B: ConcurrentOrderedSet<i64> + 'static,
    for<'a> B::Handle<'a>: OrderedHandle<i64>,
{
    use std::collections::BTreeSet;
    let set = ElasticSet::<i64, B>::with_policy(splittable());
    let mut h = set.handle();
    let mut oracle = BTreeSet::new();
    for (i, &step) in tape.iter().enumerate() {
        let (got, want, key) = match step {
            Step::Add(k) => (h.add(k), oracle.insert(k), k),
            Step::Remove(k) => (h.remove(k), oracle.remove(&k), k),
            Step::Contains(k) => (h.contains(k), oracle.contains(&k), k),
        };
        assert_eq!(got, want, "elastic({}): step {i} diverged", B::NAME);
        if split_every > 0 && i % split_every == split_every - 1 {
            if (i / split_every) % 4 == 3 {
                set.force_merge_at(key);
            } else {
                set.force_split_at(key);
            }
        }
    }
    let all: Vec<i64> = oracle.iter().copied().collect();
    assert_eq!(h.iter().into_vec(), all, "elastic: full scan after splits");
    assert_eq!(h.len_estimate(), oracle.len());
    // Windowed scans, including windows whose ends sit exactly on the
    // split points the forced migrations created.
    for &lo in all.iter().take(3) {
        for &hi in all.iter().rev().take(3) {
            if lo <= hi {
                let want: Vec<i64> = oracle.range(lo..hi).copied().collect();
                assert_eq!(h.range(lo..hi).into_vec(), want, "window {lo}..{hi}");
                let want: Vec<i64> = oracle.range(lo..=hi).copied().collect();
                assert_eq!(h.range(lo..=hi).into_vec(), want, "window {lo}..={hi}");
            }
        }
    }
    drop(h);
    let mut set = set;
    assert_eq!(set.collect_keys(), all, "elastic: final contents");
    set.check_invariants()
        .unwrap_or_else(|e| panic!("elastic({}): invariant violated: {e}", B::NAME));
}

/// Spreads a small test key (safe for `0..512`) across the `i64` domain
/// so it exercises several shards of an 8-way partition — small keys
/// would otherwise all land in the one shard owning the interval around
/// zero. Strictly monotone, so orderings and range windows carry over.
fn spread(k: i64) -> i64 {
    (k - 150) * (i64::MAX / 512)
}

/// One step of an operation tape.
#[derive(Debug, Clone, Copy)]
enum Step {
    Add(i64),
    Remove(i64),
    Contains(i64),
}

fn step_strategy(key_range: i64) -> impl Strategy<Value = Step> {
    (0..3, 1..=key_range).prop_map(|(op, k)| match op {
        0 => Step::Add(k),
        1 => Step::Remove(k),
        _ => Step::Contains(k),
    })
}

/// One step of a batched operation tape.
#[derive(Debug, Clone)]
enum BatchStep {
    AddBatch(Vec<i64>),
    RemoveBatch(Vec<i64>),
    Contains(i64),
}

fn batch_step_strategy(key_range: i64, max_width: usize) -> impl Strategy<Value = BatchStep> {
    (
        0..3,
        proptest::collection::vec(1..=key_range, 0..max_width),
        1..=key_range,
    )
        .prop_map(|(op, keys, k)| match op {
            0 => BatchStep::AddBatch(keys),
            1 => BatchStep::RemoveBatch(keys),
            _ => BatchStep::Contains(k),
        })
}

/// Applies a batched tape to backend `S` and a `BTreeSet` oracle.
///
/// Success *counts* are order-independent facts (the number of distinct
/// new keys in an add batch; the number of present keys in a remove
/// batch), so they check exactly even though the backend reorders each
/// batch internally; final contents and invariants check exactly too.
fn check_batches_against_btreeset<S: ConcurrentOrderedSet<i64>>(tape: &[BatchStep]) {
    use std::collections::BTreeSet;
    let list = S::new();
    let mut h = list.handle();
    let mut oracle = BTreeSet::new();
    for (i, step) in tape.iter().enumerate() {
        match step {
            BatchStep::AddBatch(keys) => {
                let want = {
                    let mut o = 0;
                    for &k in keys {
                        if oracle.insert(k) {
                            o += 1;
                        }
                    }
                    o
                };
                let mut batch = keys.clone();
                let got = h.add_batch(&mut batch);
                assert_eq!(got, want, "{}: step {i} add_batch({keys:?})", S::NAME);
            }
            BatchStep::RemoveBatch(keys) => {
                let want = {
                    let mut o = 0;
                    for &k in keys {
                        if oracle.remove(&k) {
                            o += 1;
                        }
                    }
                    o
                };
                let mut batch = keys.clone();
                let got = h.remove_batch(&mut batch);
                assert_eq!(got, want, "{}: step {i} remove_batch({keys:?})", S::NAME);
            }
            BatchStep::Contains(k) => {
                assert_eq!(
                    h.contains(*k),
                    oracle.contains(k),
                    "{}: step {i} contains({k})",
                    S::NAME
                );
            }
        }
    }
    drop(h);
    let mut list = list;
    let want: Vec<i64> = oracle.into_iter().collect();
    assert_eq!(list.collect_keys(), want, "{}: final contents", S::NAME);
    list.check_invariants()
        .unwrap_or_else(|e| panic!("{}: invariant violated: {e}", S::NAME));
}

/// Applies the tape to a concurrent variant (one handle) and the singly
/// sequential oracle, comparing every result and the final contents.
fn check_against_oracle<S: ConcurrentOrderedSet<i64>>(tape: &[Step]) {
    let list = S::new();
    let mut h = list.handle();
    let mut oracle = SinglySeqList::<i64>::new();
    for (i, &step) in tape.iter().enumerate() {
        let (got, want) = match step {
            Step::Add(k) => (h.add(k), oracle.insert(k)),
            Step::Remove(k) => (h.remove(k), oracle.remove(k)),
            Step::Contains(k) => (h.contains(k), oracle.contains(k)),
        };
        assert_eq!(got, want, "{}: step {i} ({step:?}) diverged", S::NAME);
    }
    drop(h);
    let mut list = list;
    assert_eq!(
        list.collect_keys(),
        oracle.to_vec(),
        "{}: final contents diverged",
        S::NAME
    );
    list.check_invariants()
        .unwrap_or_else(|e| panic!("{}: invariant violated: {e}", S::NAME));
}

/// Applies `tape` to backend `S` and a `BTreeSet` oracle, then checks
/// the live-handle scans (`iter`, `range` over several window shapes,
/// `len_estimate`) exactly — single-threaded scans observe the precise
/// live set.
fn check_scans_against_btreeset<S>(tape: &[Step], lo: i64, span: i64)
where
    S: ConcurrentOrderedSet<i64>,
    for<'a> S::Handle<'a>: OrderedHandle<i64>,
{
    use std::collections::BTreeSet;
    let list = S::new();
    let mut h = list.handle();
    let mut oracle = BTreeSet::new();
    for &step in tape {
        match step {
            Step::Add(k) => {
                h.add(k);
                oracle.insert(k);
            }
            Step::Remove(k) => {
                h.remove(k);
                oracle.remove(&k);
            }
            Step::Contains(k) => {
                h.contains(k);
            }
        }
    }
    let all: Vec<i64> = oracle.iter().copied().collect();
    assert_eq!(h.iter().into_vec(), all, "{}: full scan diverged", S::NAME);
    assert_eq!(h.len_estimate(), oracle.len(), "{}: len_estimate", S::NAME);
    let hi = lo + span;
    let windows: Vec<Vec<i64>> = vec![
        oracle.range(lo..hi).copied().collect(),
        oracle.range(lo..=hi).copied().collect(),
        oracle.range(..hi).copied().collect(),
        oracle.range(lo..).copied().collect(),
    ];
    assert_eq!(
        h.range(lo..hi).into_vec(),
        windows[0],
        "{}: lo..hi",
        S::NAME
    );
    assert_eq!(
        h.range(lo..=hi).into_vec(),
        windows[1],
        "{}: lo..=hi",
        S::NAME
    );
    assert_eq!(h.range(..hi).into_vec(), windows[2], "{}: ..hi", S::NAME);
    assert_eq!(h.range(lo..).into_vec(), windows[3], "{}: lo..", S::NAME);
    assert!(h.range(lo..lo).is_empty(), "{}: empty window", S::NAME);
}

/// Weak-consistency contract under real churn: while writer threads
/// hammer a middle key band, scans from a reader handle must (1) stay
/// strictly sorted, (2) contain every *stable* key — inserted before the
/// writers start and never touched — and (3) never contain a key that
/// was never inserted. A `BTreeSet` oracle carries the stable band.
fn scan_under_churn<S>()
where
    S: ConcurrentOrderedSet<i64>,
    for<'a> S::Handle<'a>: OrderedHandle<i64>,
{
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, Ordering};

    const STABLE: std::ops::Range<i64> = 1..100; // never touched after prefill
    const CHURN: std::ops::Range<i64> = 100..200; // writers add/remove here
    const PHANTOM: std::ops::Range<i64> = 200..300; // never inserted

    let list = S::new();
    let stable_oracle: BTreeSet<i64> = {
        let mut h = list.handle();
        STABLE.clone().filter(|&k| k % 3 != 0 && h.add(k)).collect()
    };
    let stop = AtomicBool::new(false);
    // Set `stop` even when a reader assertion panics — otherwise the
    // scope would wait forever on writers spinning on the flag, turning
    // an assertion failure into a hang.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    std::thread::scope(|s| {
        let _stop_guard = StopOnDrop(&stop);
        for t in 0..3i64 {
            let (list, stop) = (&list, &stop);
            s.spawn(move || {
                let mut h = list.handle();
                let mut x = 0x9E3779B97F4A7C15u64.wrapping_mul(t as u64 + 1);
                while !stop.load(Ordering::Relaxed) {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let k = CHURN.start + ((x >> 33) % (CHURN.end - CHURN.start) as u64) as i64;
                    if x.is_multiple_of(2) {
                        h.add(k);
                    } else {
                        h.remove(k);
                    }
                }
            });
        }
        let mut h = list.handle();
        for round in 0..200 {
            let snap = if round % 2 == 0 {
                h.iter()
            } else {
                h.range(STABLE.start..PHANTOM.end)
            };
            let keys = snap.as_slice();
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "{}: scan not strictly sorted",
                S::NAME
            );
            assert!(
                keys.iter().all(|k| !PHANTOM.contains(k)),
                "{}: phantom key surfaced",
                S::NAME
            );
            let seen_stable: BTreeSet<i64> = keys
                .iter()
                .copied()
                .filter(|k| STABLE.contains(k))
                .collect();
            assert_eq!(
                seen_stable,
                stable_oracle,
                "{}: stable band diverged from oracle",
                S::NAME
            );
            // The bounded window also never leaks keys outside it.
            let bounded = h.range(120..140);
            assert!(
                bounded.iter().all(|k| (120..140).contains(k)),
                "{}: range leaked outside the window",
                S::NAME
            );
        }
        stop.store(true, Ordering::Relaxed);
    });
    // Quiescent again: the scan must now agree with collect_keys exactly.
    let mut h = list.handle();
    let live = h.iter().into_vec();
    drop(h);
    let mut list = list;
    assert_eq!(
        live,
        list.collect_keys(),
        "{}: quiescent scan exactness",
        S::NAME
    );
    list.check_invariants()
        .unwrap_or_else(|e| panic!("{}: invariant violated after churn: {e}", S::NAME));
}

#[test]
fn scans_stay_consistent_under_churn_singly_cursor() {
    scan_under_churn::<SinglyCursorList<i64>>();
}

#[test]
fn scans_stay_consistent_under_churn_doubly_cursor() {
    scan_under_churn::<DoublyCursorList<i64>>();
}

#[test]
fn scans_stay_consistent_under_churn_epoch() {
    scan_under_churn::<EpochList<i64>>();
}

#[test]
fn scans_stay_consistent_under_churn_singly_hp() {
    scan_under_churn::<SinglyHpList<i64>>();
}

#[test]
fn scans_stay_consistent_under_churn_doubly_cursor_epoch() {
    scan_under_churn::<DoublyCursorEpochList<i64>>();
}

#[test]
fn scans_stay_consistent_under_churn_skiplist() {
    scan_under_churn::<lockfree_skiplist::SkipListSet<i64>>();
}

#[test]
fn scans_stay_consistent_under_churn_sharded_singly() {
    scan_under_churn::<ShardedSingly8>();
}

#[test]
fn scans_stay_consistent_under_churn_sharded_skiplist() {
    scan_under_churn::<ShardedSkiplist8>();
}

#[test]
fn scans_stay_consistent_under_churn_sharded_epoch() {
    scan_under_churn::<ShardedEpoch8>();
}

#[test]
fn scans_stay_consistent_under_churn_sharded_unrolled() {
    // Eligibility: the unrolled list slots into the sharded router like
    // any other `ConcurrentOrderedSet` backend.
    scan_under_churn::<ShardedSet<i64, UnrolledArenaList<i64>, 8>>();
}

#[test]
fn scans_stay_consistent_under_churn_elastic_unrolled() {
    // Eligibility: elastic migrations drain and rebuild unrolled shards
    // while readers scan.
    scan_under_churn::<ElasticSet<i64, UnrolledArenaList<i64>>>();
}

#[test]
fn scans_stay_consistent_under_churn_elastic_singly() {
    // The default policy's monitor runs off op counts, so the sustained
    // churn makes real splits fire *during* the readers' scans: the
    // weak-consistency contract (sorted, stable band kept, no phantoms)
    // must hold across migrations, not just across shards.
    scan_under_churn::<ElasticSingly>();
}

#[test]
fn scans_stay_consistent_under_churn_elastic_skiplist() {
    scan_under_churn::<ElasticSkiplist>();
}

#[test]
fn scans_stay_consistent_under_churn_elastic_morph() {
    // The default morph bands put the ~160-key churn population past
    // `morph_list_max`, so policy-driven morphs rebuild shards while the
    // readers scan.
    scan_under_churn::<ElasticMorph>();
}

/// Churn scans racing *policy-driven* morphs: with tight bands the hot
/// shard's population sits far outside the list arm, so the load
/// monitor keeps re-sealing shards into other arms while three writers
/// churn and a reader scans. The weak-consistency contract (sorted, no
/// phantoms, stable band intact) must hold across every rebuild, and at
/// least one morph must actually have fired.
#[test]
fn morph_scans_stay_consistent_under_policy_driven_morphs() {
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, Ordering};

    const STABLE: std::ops::Range<i64> = 1..100;
    const CHURN: std::ops::Range<i64> = 100..200;
    const PHANTOM: std::ops::Range<i64> = 200..300;

    let set = ElasticMorph::with_policy(morphable());
    let stable_oracle: BTreeSet<i64> = {
        let mut h = set.handle();
        STABLE.clone().filter(|&k| k % 3 != 0 && h.add(k)).collect()
    };
    let stop = AtomicBool::new(false);
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    std::thread::scope(|s| {
        let _stop_guard = StopOnDrop(&stop);
        for t in 0..3i64 {
            let (set, stop) = (&set, &stop);
            s.spawn(move || {
                let mut h = set.handle();
                let mut x = 0x9E3779B97F4A7C15u64.wrapping_mul(t as u64 + 1);
                while !stop.load(Ordering::Relaxed) {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let k = CHURN.start + ((x >> 33) % (CHURN.end - CHURN.start) as u64) as i64;
                    if x.is_multiple_of(2) {
                        h.add(k);
                    } else {
                        h.remove(k);
                    }
                }
            });
        }
        let mut h = set.handle();
        for round in 0..200 {
            let snap = if round % 2 == 0 {
                h.iter()
            } else {
                h.range(STABLE.start..PHANTOM.end)
            };
            let keys = snap.as_slice();
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "morph scan not strictly sorted"
            );
            assert!(
                keys.iter().all(|k| !PHANTOM.contains(k)),
                "phantom key surfaced across a morph"
            );
            let seen_stable: BTreeSet<i64> = keys
                .iter()
                .copied()
                .filter(|k| STABLE.contains(k))
                .collect();
            assert_eq!(seen_stable, stable_oracle, "stable band diverged");
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert!(
        set.morphs() > 0,
        "tight bands under churn must fire policy-driven morphs"
    );
    let mut h = set.handle();
    let live = h.iter().into_vec();
    drop(h);
    let mut set = set;
    assert_eq!(live, set.collect_keys(), "quiescent scan exactness");
    set.check_invariants().unwrap();
}

#[test]
fn scans_stay_consistent_under_churn_unrolled() {
    scan_under_churn::<UnrolledArenaList<i64>>();
}

#[test]
fn scans_stay_consistent_under_churn_unrolled_tiny() {
    // CAP = 2: the churn band splits and empties fat nodes continuously,
    // so the readers' scans cross freeze/mark/splice transitions on
    // nearly every pass.
    scan_under_churn::<UnrolledTiny>();
}

#[test]
fn scans_stay_consistent_under_churn_unrolled_hint() {
    scan_under_churn::<UnrolledHintedList<i64>>();
}

#[test]
fn scans_stay_consistent_under_churn_unrolled_tiny_hint() {
    // Hints park fat-node pointers while CAP = 2 marks and replaces
    // those very nodes at churn speed: stale hints must fall back, never
    // misroute a scan.
    scan_under_churn::<UnrolledTinyHinted>();
}

#[test]
fn scans_stay_consistent_under_churn_unrolled_epoch() {
    scan_under_churn::<UnrolledTinyEpoch>();
}

#[test]
fn scans_stay_consistent_under_churn_unrolled_hp() {
    // Hazard pointers route scans through the protected traversal, which
    // must help pending splices instead of dereferencing frozen images.
    scan_under_churn::<UnrolledTinyHp>();
}

/// The `ShardedMap` weak-consistency contract under churn, with the key
/// bands spread across the shards so the merged scan genuinely crosses
/// shard boundaries: while writers hammer a churn band, reader scans
/// must stay strictly key-sorted, keep every untouched stable entry
/// (key *and* value), and never surface a never-inserted key.
#[test]
fn sharded_map_scans_stay_consistent_under_churn() {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};

    const STABLE: std::ops::Range<i64> = 1..100;
    const CHURN: std::ops::Range<i64> = 100..200;
    const PHANTOM: std::ops::Range<i64> = 200..300;

    let map = ShardedMap::<i64, i64, 8>::new();
    let stable_oracle: BTreeMap<i64, i64> = {
        let mut h = map.handle();
        STABLE
            .clone()
            .filter(|&k| k % 3 != 0)
            .map(|k| (spread(k), k * 11))
            .filter(|&(k, v)| h.insert(k, v))
            .collect()
    };
    let stop = AtomicBool::new(false);
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    std::thread::scope(|s| {
        let _stop_guard = StopOnDrop(&stop);
        for t in 0..3i64 {
            let (map, stop) = (&map, &stop);
            s.spawn(move || {
                let mut h = map.handle();
                let mut x = 0x9E3779B97F4A7C15u64.wrapping_mul(t as u64 + 1);
                while !stop.load(Ordering::Relaxed) {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let band = CHURN.start + ((x >> 33) % (CHURN.end - CHURN.start) as u64) as i64;
                    let k = spread(band);
                    if x.is_multiple_of(2) {
                        h.insert(k, band);
                    } else {
                        h.remove(k);
                    }
                }
            });
        }
        let mut h = map.handle();
        for round in 0..200 {
            let snap = if round % 2 == 0 {
                h.iter()
            } else {
                h.range(spread(STABLE.start)..spread(PHANTOM.end))
            };
            let entries = snap.as_slice();
            assert!(
                entries.windows(2).all(|w| w[0].0 < w[1].0),
                "merged scan not strictly key-sorted"
            );
            assert!(
                entries
                    .iter()
                    .all(|(k, _)| !PHANTOM.clone().map(spread).any(|p| p == *k)),
                "phantom key surfaced"
            );
            let seen_stable: BTreeMap<i64, i64> = entries
                .iter()
                .copied()
                .filter(|(k, _)| STABLE.clone().map(spread).any(|sk| sk == *k))
                .collect();
            assert_eq!(seen_stable, stable_oracle, "stable band diverged");
        }
        stop.store(true, Ordering::Relaxed);
    });
    // Quiescent again: the live scan must agree with `collect` exactly.
    let mut h = map.handle();
    let live = h.iter().into_vec();
    assert_eq!(h.len_estimate(), live.len());
    drop(h);
    let mut map = map;
    assert_eq!(live, map.collect(), "quiescent scan exactness");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn draconic_matches_oracle(tape in proptest::collection::vec(step_strategy(32), 1..400)) {
        check_against_oracle::<DraconicList<i64>>(&tape);
    }

    #[test]
    fn singly_mild_matches_oracle(tape in proptest::collection::vec(step_strategy(32), 1..400)) {
        check_against_oracle::<SinglyMildList<i64>>(&tape);
    }

    #[test]
    fn singly_cursor_matches_oracle(tape in proptest::collection::vec(step_strategy(32), 1..400)) {
        check_against_oracle::<SinglyCursorList<i64>>(&tape);
    }

    #[test]
    fn singly_fetch_or_matches_oracle(tape in proptest::collection::vec(step_strategy(32), 1..400)) {
        check_against_oracle::<SinglyFetchOrList<i64>>(&tape);
    }

    #[test]
    fn cursor_only_matches_oracle(tape in proptest::collection::vec(step_strategy(32), 1..400)) {
        check_against_oracle::<CursorOnlyList<i64>>(&tape);
    }

    #[test]
    fn doubly_backptr_matches_oracle(tape in proptest::collection::vec(step_strategy(32), 1..400)) {
        check_against_oracle::<DoublyBackptrList<i64>>(&tape);
    }

    #[test]
    fn doubly_cursor_matches_oracle(tape in proptest::collection::vec(step_strategy(32), 1..400)) {
        check_against_oracle::<DoublyCursorList<i64>>(&tape);
    }

    #[test]
    fn epoch_list_matches_oracle(tape in proptest::collection::vec(step_strategy(32), 1..400)) {
        check_against_oracle::<EpochList<i64>>(&tape);
    }

    /// The reclaimer cross-product variants replay the same tapes as
    /// their arena counterparts.
    #[test]
    fn reclaimer_variants_match_oracle(tape in proptest::collection::vec(step_strategy(32), 1..400)) {
        check_against_oracle::<SinglyEpochList<i64>>(&tape);
        check_against_oracle::<SinglyFetchOrEpochList<i64>>(&tape);
        check_against_oracle::<DoublyCursorEpochList<i64>>(&tape);
        check_against_oracle::<SinglyHpList<i64>>(&tape);
    }

    #[test]
    fn skiplist_matches_oracle(tape in proptest::collection::vec(step_strategy(32), 1..400)) {
        check_against_oracle::<lockfree_skiplist::SkipListSet<i64>>(&tape);
    }

    /// The hinted extensions replay arbitrary tapes like every other
    /// variant — hint staleness (marked hinted nodes) is on every
    /// remove-heavy tape's path.
    #[test]
    fn hinted_variants_match_oracle(tape in proptest::collection::vec(step_strategy(32), 1..400)) {
        check_against_oracle::<SinglyHintedList<i64>>(&tape);
        check_against_oracle::<DoublyHintedList<i64>>(&tape);
    }

    /// Batched sorted operations against the `BTreeSet` oracle: success
    /// counts, final contents and invariants, across the trait-default
    /// loop (skiplist), the single-traversal lists (hinted and plain,
    /// all three reclaimers), and the per-shard splitter.
    #[test]
    fn batch_ops_match_btreeset(tape in proptest::collection::vec(batch_step_strategy(48, 12), 1..80)) {
        check_batches_against_btreeset::<SinglyCursorList<i64>>(&tape);
        check_batches_against_btreeset::<SinglyHintedList<i64>>(&tape);
        check_batches_against_btreeset::<DoublyHintedList<i64>>(&tape);
        check_batches_against_btreeset::<SinglyEpochList<i64>>(&tape);
        check_batches_against_btreeset::<SinglyHpList<i64>>(&tape);
        check_batches_against_btreeset::<lockfree_skiplist::SkipListSet<i64>>(&tape);
    }

    /// The unrolled fat-node list replays arbitrary tapes against the
    /// sequential oracle. CAP = 2 keeps every tape on the split and
    /// empty-unlink paths; the default CAP exercises in-run edits, and
    /// the reclaimer instantiations pay real retirement per replaced run
    /// image and unlinked node.
    #[test]
    fn unrolled_variants_match_oracle(tape in proptest::collection::vec(step_strategy(32), 1..400)) {
        check_against_oracle::<UnrolledTiny>(&tape);
        check_against_oracle::<UnrolledArenaList<i64>>(&tape);
        check_against_oracle::<UnrolledHintedList<i64>>(&tape);
        check_against_oracle::<UnrolledTinyEpoch>(&tape);
        check_against_oracle::<UnrolledTinyHp>(&tape);
        check_against_oracle::<UnrolledEpochList<i64>>(&tape);
        check_against_oracle::<UnrolledHpList<i64>>(&tape);
    }

    /// Unrolled batched ops: the per-owner merge must produce exactly
    /// the oracle's success counts even when a single CAS absorbs many
    /// keys, splits a full node, or empties one (batch removal installs
    /// the frozen empty image and the mark in one step).
    #[test]
    fn unrolled_batch_ops_match_btreeset(tape in proptest::collection::vec(batch_step_strategy(48, 12), 1..80)) {
        check_batches_against_btreeset::<UnrolledTiny>(&tape);
        check_batches_against_btreeset::<UnrolledArenaList<i64>>(&tape);
        check_batches_against_btreeset::<UnrolledHintedList<i64>>(&tape);
        check_batches_against_btreeset::<UnrolledTinyEpoch>(&tape);
        check_batches_against_btreeset::<UnrolledTinyHp>(&tape);
    }

    /// Quiescent unrolled scans are exact against `BTreeSet`: stitching
    /// windows across run boundaries (and, at CAP = 2, across the
    /// freshest split points) must agree on every window shape.
    #[test]
    fn unrolled_range_scans_match_btreeset_exactly_when_quiescent(
        tape in proptest::collection::vec(step_strategy(64), 1..300),
        lo in 1i64..=64,
        span in 0i64..32,
    ) {
        check_scans_against_btreeset::<UnrolledTiny>(&tape, lo, span);
        check_scans_against_btreeset::<UnrolledArenaList<i64>>(&tape, lo, span);
        check_scans_against_btreeset::<UnrolledHintedList<i64>>(&tape, lo, span);
        check_scans_against_btreeset::<UnrolledTinyEpoch>(&tape, lo, span);
        check_scans_against_btreeset::<UnrolledTinyHp>(&tape, lo, span);
    }

    /// Batched ops through the sharded router, keys spread across
    /// shards so the sorted batch splits into several per-shard runs.
    #[test]
    fn sharded_batch_ops_match_btreeset(tape in proptest::collection::vec(batch_step_strategy(64, 16), 1..60)) {
        let spread_tape: Vec<BatchStep> = tape
            .iter()
            .map(|s| match s {
                BatchStep::AddBatch(ks) => BatchStep::AddBatch(ks.iter().map(|&k| spread(k)).collect()),
                BatchStep::RemoveBatch(ks) => BatchStep::RemoveBatch(ks.iter().map(|&k| spread(k)).collect()),
                BatchStep::Contains(k) => BatchStep::Contains(spread(*k)),
            })
            .collect();
        check_batches_against_btreeset::<ShardedSingly8>(&spread_tape);
        check_batches_against_btreeset::<ShardedSkiplist8>(&spread_tape);
    }

    /// The elastic sets replay arbitrary tapes identically to the
    /// `BTreeSet` oracle while migrations are *forced* mid-tape —
    /// quiescent exactness, sorted windowed scans across the split
    /// points, stable final contents, no phantoms.
    #[test]
    fn elastic_backends_match_btreeset_with_forced_migrations(
        tape in proptest::collection::vec(step_strategy(64), 20..300),
        split_every in 5usize..40,
    ) {
        let spread_tape: Vec<Step> = tape
            .iter()
            .map(|s| match *s {
                Step::Add(k) => Step::Add(spread(k)),
                Step::Remove(k) => Step::Remove(spread(k)),
                Step::Contains(k) => Step::Contains(spread(k)),
            })
            .collect();
        check_elastic_with_forced_migrations::<SinglyCursorList<i64>>(&spread_tape, split_every);
        check_elastic_with_forced_migrations::<lockfree_skiplist::SkipListSet<i64>>(&spread_tape, split_every);
        check_elastic_with_forced_migrations::<UnrolledTiny>(&spread_tape, split_every);
    }

    /// The morphing elastic set replays arbitrary tapes identically to
    /// the `BTreeSet` oracle while list↔unrolled↔skiplist morphs (and
    /// the occasional split) are forced mid-tape, with a windowed scan
    /// probed across every rebuild.
    #[test]
    fn elastic_morph_matches_btreeset_with_forced_morphs(
        tape in proptest::collection::vec(step_strategy(64), 20..300),
        morph_every in 5usize..40,
    ) {
        let spread_tape: Vec<Step> = tape
            .iter()
            .map(|s| match *s {
                Step::Add(k) => Step::Add(spread(k)),
                Step::Remove(k) => Step::Remove(spread(k)),
                Step::Contains(k) => Step::Contains(spread(k)),
            })
            .collect();
        check_morphs_against_btreeset(&spread_tape, morph_every);
    }

    /// `ElasticMap` against the `BTreeMap` oracle with splits forced
    /// mid-churn: op-for-op agreement, exact quiescent scans, exact
    /// final contents.
    #[test]
    fn elastic_map_matches_btreemap_with_forced_migrations(
        tape in proptest::collection::vec((0..3, 1i64..=64), 20..300),
        split_every in 5usize..40,
    ) {
        use std::collections::BTreeMap;
        let map = ElasticMap::<i64, i64>::with_policy(splittable());
        let mut h = map.handle();
        let mut oracle = BTreeMap::new();
        for (i, &(op, k0)) in tape.iter().enumerate() {
            let k = spread(k0);
            match op {
                0 => {
                    let expect = !oracle.contains_key(&k);
                    assert_eq!(h.insert(k, k0 * 7), expect);
                    if expect {
                        oracle.insert(k, k0 * 7);
                    }
                }
                1 => assert_eq!(h.remove(k), oracle.remove(&k)),
                _ => assert_eq!(h.get(k), oracle.get(&k).copied()),
            }
            if i % split_every == split_every - 1 {
                if (i / split_every) % 4 == 3 {
                    map.force_merge_at(k);
                } else {
                    map.force_split_at(k);
                }
            }
        }
        let all: Vec<(i64, i64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(h.iter().into_vec(), all.clone());
        prop_assert_eq!(h.len_estimate(), oracle.len());
        drop(h);
        let mut map = map;
        prop_assert_eq!(map.collect(), all);
        map.check_invariants().unwrap();
    }

    /// Sharded backends replay arbitrary tapes identically to the
    /// sequential oracle — with the keys spread across the shards so
    /// routing, per-shard handles and cross-shard aggregation are all on
    /// the tape's path.
    #[test]
    fn sharded_backends_match_oracle(tape in proptest::collection::vec(step_strategy(64), 1..400)) {
        let spread_tape: Vec<Step> = tape
            .iter()
            .map(|s| match *s {
                Step::Add(k) => Step::Add(spread(k)),
                Step::Remove(k) => Step::Remove(spread(k)),
                Step::Contains(k) => Step::Contains(spread(k)),
            })
            .collect();
        check_against_oracle::<ShardedSingly8>(&spread_tape);
        check_against_oracle::<ShardedSkiplist8>(&spread_tape);
        check_against_oracle::<ShardedEpoch8>(&spread_tape);
    }

    /// Quiescent sharded scans are exact against `BTreeSet`, across
    /// shard-boundary-crossing windows.
    #[test]
    fn sharded_range_scans_match_btreeset_exactly_when_quiescent(
        tape in proptest::collection::vec(step_strategy(64), 1..300),
        lo in 1i64..=64,
        span in 0i64..32,
    ) {
        let spread_tape: Vec<Step> = tape
            .iter()
            .map(|s| match *s {
                Step::Add(k) => Step::Add(spread(k)),
                Step::Remove(k) => Step::Remove(spread(k)),
                Step::Contains(k) => Step::Contains(spread(k)),
            })
            .collect();
        // `spread` is monotone, so the spread window covers exactly the
        // spread images of the original window.
        check_scans_against_btreeset::<ShardedSingly8>(&spread_tape, spread(lo), spread(lo + span) - spread(lo));
        check_scans_against_btreeset::<ShardedSkiplist8>(&spread_tape, spread(lo), spread(lo + span) - spread(lo));
    }

    /// `ShardedMap` against the `BTreeMap` oracle: op-for-op agreement
    /// on randomised tapes, exact quiescent scans over several window
    /// shapes, and exact final contents.
    #[test]
    fn sharded_map_matches_btreemap(
        tape in proptest::collection::vec((0..3, 1i64..=64), 1..300),
        lo in 1i64..=64,
        span in 0i64..32,
    ) {
        use std::collections::BTreeMap;
        let map = ShardedMap::<i64, i64, 8>::new();
        let mut h = map.handle();
        let mut oracle = BTreeMap::new();
        for &(op, k0) in &tape {
            let k = spread(k0);
            match op {
                0 => {
                    let expect = !oracle.contains_key(&k);
                    assert_eq!(h.insert(k, k0 * 7), expect);
                    if expect {
                        oracle.insert(k, k0 * 7);
                    }
                }
                1 => assert_eq!(h.remove(k), oracle.remove(&k)),
                _ => assert_eq!(h.get(k), oracle.get(&k).copied()),
            }
        }
        let all: Vec<(i64, i64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(h.iter().into_vec(), all);
        let (wlo, whi) = (spread(lo), spread(lo + span));
        let want: Vec<(i64, i64)> = oracle.range(wlo..whi).map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(h.range(wlo..whi).into_vec(), want);
        let want_to: Vec<(i64, i64)> = oracle.range(..=whi).map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(h.range(..=whi).into_vec(), want_to);
        let want_from: Vec<(i64, i64)> = oracle.range(wlo..).map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(h.range(wlo..).into_vec(), want_from);
        prop_assert_eq!(h.len_estimate(), oracle.len());
        drop(h);
        let mut map = map;
        prop_assert_eq!(map.collect(), oracle.into_iter().collect::<Vec<_>>());
    }

    /// The two sequential lists agree with each other (closing the loop:
    /// singly is checked against BTreeSet in its unit tests).
    #[test]
    fn seq_lists_agree(tape in proptest::collection::vec(step_strategy(24), 1..300)) {
        let mut a = SinglySeqList::<i64>::new();
        let mut b = DoublySeqList::<i64>::new();
        for &step in &tape {
            match step {
                Step::Add(k) => assert_eq!(a.insert(k), b.insert(k)),
                Step::Remove(k) => assert_eq!(a.remove(k), b.remove(k)),
                Step::Contains(k) => assert_eq!(a.contains(k), b.contains(k)),
            }
        }
        assert_eq!(a.to_vec(), b.to_vec());
        assert!(b.validate());
    }

    /// Adversarial locality tapes: monotone runs up and down, repeated
    /// keys — the cursor's worst and best cases.
    #[test]
    fn cursor_variants_survive_monotone_runs(
        runs in proptest::collection::vec((1i64..64, proptest::bool::ANY, 1usize..40), 1..20)
    ) {
        let mut tape = Vec::new();
        for (start, up, len) in runs {
            for j in 0..len as i64 {
                let k = if up { start + j } else { (start - j).max(1) };
                tape.push(Step::Add(k));
                tape.push(Step::Contains(k));
                if j % 3 == 0 {
                    tape.push(Step::Remove(k));
                }
            }
        }
        check_against_oracle::<SinglyCursorList<i64>>(&tape);
        check_against_oracle::<DoublyCursorList<i64>>(&tape);
    }

    /// Single-threaded, the weakly-consistent scans are exact: after an
    /// arbitrary tape, `iter()` and `range()` on a live handle must
    /// agree with a `BTreeSet` oracle on every window shape — for every
    /// backend that implements `OrderedHandle`.
    #[test]
    fn range_scans_match_btreeset_exactly_when_quiescent(
        tape in proptest::collection::vec(step_strategy(64), 1..300),
        lo in 1i64..=64,
        span in 0i64..32,
    ) {
        check_scans_against_btreeset::<DraconicList<i64>>(&tape, lo, span);
        check_scans_against_btreeset::<SinglyMildList<i64>>(&tape, lo, span);
        check_scans_against_btreeset::<SinglyCursorList<i64>>(&tape, lo, span);
        check_scans_against_btreeset::<SinglyFetchOrList<i64>>(&tape, lo, span);
        check_scans_against_btreeset::<CursorOnlyList<i64>>(&tape, lo, span);
        check_scans_against_btreeset::<DoublyBackptrList<i64>>(&tape, lo, span);
        check_scans_against_btreeset::<DoublyCursorList<i64>>(&tape, lo, span);
        check_scans_against_btreeset::<EpochList<i64>>(&tape, lo, span);
        check_scans_against_btreeset::<SinglyEpochList<i64>>(&tape, lo, span);
        check_scans_against_btreeset::<DoublyCursorEpochList<i64>>(&tape, lo, span);
        check_scans_against_btreeset::<SinglyHpList<i64>>(&tape, lo, span);
        check_scans_against_btreeset::<lockfree_skiplist::SkipListSet<i64>>(&tape, lo, span);
    }

    /// The `ListMap` scan agrees with a `BTreeMap` oracle.
    #[test]
    fn map_range_matches_btreemap(
        tape in proptest::collection::vec((0..3, 1i64..=48), 1..300),
        lo in 1i64..=48,
        span in 0i64..24,
    ) {
        use pragmatic_list::map::ListMap;
        use std::collections::BTreeMap;
        let map = ListMap::<i64, i64>::new();
        let mut h = map.handle();
        let mut oracle = BTreeMap::new();
        for &(op, k) in &tape {
            match op {
                0 => {
                    let expect = !oracle.contains_key(&k);
                    assert_eq!(h.insert(k, k * 7), expect);
                    if expect {
                        oracle.insert(k, k * 7);
                    }
                }
                1 => assert_eq!(h.remove(k), oracle.remove(&k)),
                _ => assert_eq!(h.get(k), oracle.get(&k).copied()),
            }
        }
        let all: Vec<(i64, i64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(h.iter().into_vec(), all);
        let want: Vec<(i64, i64)> = oracle
            .range(lo..lo + span)
            .map(|(&k, &v)| (k, v))
            .collect();
        prop_assert_eq!(h.range(lo..lo + span).into_vec(), want);
        prop_assert_eq!(h.len_estimate(), oracle.len());
    }

    /// The hash set agrees with std's HashSet on arbitrary u64 tapes.
    #[test]
    fn hashset_matches_std(tape in proptest::collection::vec((0..3, 0u64..500), 1..500)) {
        use lockfree_hashmap::LockFreeHashSet;
        use std::collections::HashSet;
        let set: LockFreeHashSet<u64> = LockFreeHashSet::with_buckets(32);
        let mut h = set.handle();
        let mut oracle = HashSet::new();
        for &(op, v) in &tape {
            match op {
                0 => assert_eq!(h.insert(v), oracle.insert(v)),
                1 => assert_eq!(h.remove(&v), oracle.remove(&v)),
                _ => assert_eq!(h.contains(&v), oracle.contains(&v)),
            }
        }
        drop(h);
        let mut set = set;
        assert_eq!(set.len(), oracle.len());
    }
}
