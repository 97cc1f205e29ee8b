//! Linearizability validation of every list variant (the paper's §2
//! claim) using the Wing–Gong checker from the `linearize` crate.
//!
//! Threads hammer a tiny key space through the real concurrent lists
//! while recording invocation/response-stamped histories; the checker
//! then searches for a witness order per key. Small per-key op counts
//! keep the NP-hard check tractable while the tiny key space maximises
//! contention (CAS failures, marked-node retries — exactly the paths the
//! paper modifies).

use linearize::{check, History, OpKind, Recorder};
use pragmatic_list::variants::{
    CursorOnlyList, DoublyBackptrList, DoublyCursorList, DraconicList, SinglyCursorList,
    SinglyFetchOrList, SinglyMildList,
};
use pragmatic_list::{ConcurrentOrderedSet, EpochList, SetHandle};

/// Runs `threads` workers over keys `0..keys`, `ops` operations each,
/// recording a complete history; returns the checker's verdict.
fn record_and_check<S: ConcurrentOrderedSet<i64>>(
    threads: u32,
    ops: u64,
    keys: i64,
    seed: u64,
) -> bool {
    let list = S::new();
    let rec = Recorder::new();
    let logs: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let list = &list;
                let rec = &rec;
                s.spawn(move || {
                    let mut h = list.handle();
                    let mut log = rec.thread_log(t);
                    let mut rng =
                        glibc_rand::GlibcRandom::new(glibc_rand::thread_seed(seed, t as usize));
                    for _ in 0..ops {
                        let key = (rng.below(keys as u32)) as i64 + 1;
                        let (kind, invoke, result) = match rng.below(3) {
                            0 => {
                                let t0 = rec.stamp();
                                (OpKind::Add, t0, h.add(key))
                            }
                            1 => {
                                let t0 = rec.stamp();
                                (OpKind::Remove, t0, h.remove(key))
                            }
                            _ => {
                                let t0 = rec.stamp();
                                (OpKind::Contains, t0, h.contains(key))
                            }
                        };
                        let t1 = rec.stamp();
                        log.push_op(kind, key, result, invoke, t1);
                    }
                    log.into_ops()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let history = History::from_logs(logs);
    assert_eq!(history.len() as u64, threads as u64 * ops);
    check(&history).is_linearizable()
}

/// Each variant gets several rounds with different seeds; a single
/// non-linearizable round fails the test.
fn assert_variant_linearizable<S: ConcurrentOrderedSet<i64>>() {
    for round in 0..6u64 {
        assert!(
            record_and_check::<S>(4, 30, 6, 0xACE0_BA5E ^ round),
            "{} produced a non-linearizable history (round {round})",
            S::NAME
        );
    }
}

#[test]
fn draconic_is_linearizable() {
    assert_variant_linearizable::<DraconicList<i64>>();
}

#[test]
fn singly_mild_is_linearizable() {
    assert_variant_linearizable::<SinglyMildList<i64>>();
}

#[test]
fn singly_cursor_is_linearizable() {
    assert_variant_linearizable::<SinglyCursorList<i64>>();
}

#[test]
fn singly_hint_is_linearizable() {
    // The hint fast path must not change linearizability: searches
    // starting from stale multi-position hints still produce
    // linearizable histories.
    assert_variant_linearizable::<pragmatic_list::variants::SinglyHintedList<i64>>();
}

#[test]
fn doubly_hint_is_linearizable() {
    assert_variant_linearizable::<pragmatic_list::variants::DoublyHintedList<i64>>();
}

#[test]
fn singly_fetch_or_is_linearizable() {
    assert_variant_linearizable::<SinglyFetchOrList<i64>>();
}

#[test]
fn cursor_only_is_linearizable() {
    assert_variant_linearizable::<CursorOnlyList<i64>>();
}

#[test]
fn doubly_backptr_is_linearizable() {
    assert_variant_linearizable::<DoublyBackptrList<i64>>();
}

#[test]
fn doubly_cursor_is_linearizable() {
    assert_variant_linearizable::<DoublyCursorList<i64>>();
}

#[test]
fn epoch_list_is_linearizable() {
    assert_variant_linearizable::<EpochList<i64>>();
}

#[test]
fn singly_hp_is_linearizable() {
    assert_variant_linearizable::<pragmatic_list::variants::SinglyHpList<i64>>();
}

#[test]
fn doubly_cursor_epoch_is_linearizable() {
    assert_variant_linearizable::<pragmatic_list::variants::DoublyCursorEpochList<i64>>();
}

#[test]
fn unrolled_is_linearizable() {
    assert_variant_linearizable::<pragmatic_list::variants::UnrolledArenaList<i64>>();
}

#[test]
fn unrolled_tiny_cap_is_linearizable() {
    // CAP = 2 over a 6-key space: median splits and empty-node unlinks
    // fire constantly under the 4-thread contention, so the histories
    // cross the freeze/mark/splice protocol rather than staying inside
    // single-run CAS edits.
    assert_variant_linearizable::<pragmatic_list::unrolled::UnrolledList<i64, 2>>();
}

#[test]
fn unrolled_hint_is_linearizable() {
    assert_variant_linearizable::<pragmatic_list::variants::UnrolledHintedList<i64>>();
}

#[test]
fn unrolled_epoch_is_linearizable() {
    assert_variant_linearizable::<pragmatic_list::variants::UnrolledEpochList<i64>>();
}

#[test]
fn unrolled_hp_is_linearizable() {
    assert_variant_linearizable::<pragmatic_list::variants::UnrolledHpList<i64>>();
}

#[test]
fn skiplist_mild_is_linearizable() {
    assert_variant_linearizable::<lockfree_skiplist::SkipListSet<i64>>();
}

#[test]
fn skiplist_draconic_is_linearizable() {
    assert_variant_linearizable::<lockfree_skiplist::DraconicSkipList<i64>>();
}

/// Sharded backends must stay linearizable per key *through the router*:
/// the tiny key space is spread across the `i64` domain so the operations
/// land in several shards and the history interleaves cross-shard.
fn record_and_check_spread<S: ConcurrentOrderedSet<i64>>(
    threads: u32,
    ops: u64,
    keys: i64,
    seed: u64,
) -> bool {
    let list = S::new();
    record_and_check_spread_on(&list, threads, ops, keys, seed)
}

/// As [`record_and_check_spread`], over a caller-built list — so a test
/// can configure the structure (an elastic set with an eager
/// [`LoadPolicy`](pragmatic_list::LoadPolicy)) and inspect it after the
/// history was checked.
fn record_and_check_spread_on<S: ConcurrentOrderedSet<i64>>(
    list: &S,
    threads: u32,
    ops: u64,
    keys: i64,
    seed: u64,
) -> bool {
    let rec = Recorder::new();
    let logs: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let list = &list;
                let rec = &rec;
                s.spawn(move || {
                    let mut h = list.handle();
                    let mut log = rec.thread_log(t);
                    let mut rng =
                        glibc_rand::GlibcRandom::new(glibc_rand::thread_seed(seed, t as usize));
                    for _ in 0..ops {
                        let k = (rng.below(keys as u32)) as i64 + 1;
                        let key = (k - keys / 2) * (i64::MAX / keys.max(2));
                        let (kind, invoke, result) = match rng.below(3) {
                            0 => {
                                let t0 = rec.stamp();
                                (OpKind::Add, t0, h.add(key))
                            }
                            1 => {
                                let t0 = rec.stamp();
                                (OpKind::Remove, t0, h.remove(key))
                            }
                            _ => {
                                let t0 = rec.stamp();
                                (OpKind::Contains, t0, h.contains(key))
                            }
                        };
                        let t1 = rec.stamp();
                        log.push_op(kind, key, result, invoke, t1);
                    }
                    log.into_ops()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let history = History::from_logs(logs);
    assert_eq!(history.len() as u64, threads as u64 * ops);
    check(&history).is_linearizable()
}

#[test]
fn sharded_singly_is_linearizable() {
    use pragmatic_list::sharded::ShardedSet;
    for round in 0..6u64 {
        assert!(
            record_and_check_spread::<ShardedSet<i64, SinglyCursorList<i64>, 8>>(
                4,
                30,
                6,
                0x5AAD_ED00 ^ round
            ),
            "sharded_singly produced a non-linearizable history (round {round})"
        );
    }
}

#[test]
fn elastic_singly_is_linearizable_with_migrations_firing() {
    use pragmatic_list::elastic::{ElasticSet, LoadPolicy};
    use pragmatic_list::variants::SinglyCursorList;
    // Eager thresholds: the monitor closes a window every ~16 ops, so
    // splits fire *during* the recorded histories; migrated keys must
    // still produce linearizable per-key histories.
    let mut any_split = false;
    for round in 0..6u64 {
        let set = ElasticSet::<i64, SinglyCursorList<i64>>::with_policy(LoadPolicy {
            initial_shards: 1,
            max_shards: 32,
            check_period: 8,
            window_min_ops: 16,
            split_share_pct: 10,
            merge_share_pct: 0,
            min_split_keys: 2,
            ..LoadPolicy::default()
        });
        assert!(
            record_and_check_spread_on(&set, 4, 30, 6, 0xE1A5_71C0 ^ round),
            "elastic_singly produced a non-linearizable history (round {round})"
        );
        any_split |= set.splits() > 0;
    }
    assert!(any_split, "no migration fired across six eager rounds");
}

#[test]
fn elastic_morph_is_linearizable_with_morphs_firing() {
    use pragmatic_list::elastic::{ElasticMorphSet, LoadPolicy};
    // Eager monitor + morph bands sitting inside the 6-key population
    // range (list ≤ 1 < unrolled < 3 ≤ skiplist): every window the churn
    // moves a shard across a band edge, the monitor re-seals it into
    // another backend arm mid-history. Morphed keys must still produce
    // linearizable per-key histories.
    let mut any_morph = false;
    for round in 0..6u64 {
        let set =
            ElasticMorphSet::<i64, lockfree_skiplist::SkipListSet<i64>>::with_policy(LoadPolicy {
                initial_shards: 1,
                max_shards: 32,
                check_period: 8,
                window_min_ops: 16,
                split_share_pct: 10,
                merge_share_pct: 0,
                min_split_keys: 2,
                morph_list_max: 1,
                morph_skip_min: 3,
                ..LoadPolicy::default()
            });
        assert!(
            record_and_check_spread_on(&set, 4, 30, 6, 0xE1A5_71C2 ^ round),
            "elastic_morph produced a non-linearizable history (round {round})"
        );
        any_morph |= set.morphs() > 0;
    }
    assert!(any_morph, "no morph fired across six eager rounds");
}

#[test]
fn elastic_skiplist_is_linearizable() {
    use pragmatic_list::elastic::ElasticSet;
    for round in 0..6u64 {
        assert!(
            record_and_check_spread::<ElasticSet<i64, lockfree_skiplist::SkipListSet<i64>>>(
                4,
                30,
                6,
                0xE1A5_71C1 ^ round
            ),
            "elastic_skiplist produced a non-linearizable history (round {round})"
        );
    }
}

#[test]
fn sharded_skiplist_is_linearizable() {
    use pragmatic_list::sharded::ShardedSet;
    for round in 0..6u64 {
        assert!(
            record_and_check_spread::<ShardedSet<i64, lockfree_skiplist::SkipListSet<i64>, 8>>(
                4,
                30,
                6,
                0x5AAD_ED01 ^ round
            ),
            "sharded_skiplist produced a non-linearizable history (round {round})"
        );
    }
}

#[test]
fn checker_catches_a_real_violation_shape() {
    // Sanity check that the harness would notice a broken structure: a
    // fake history where two threads both successfully remove the same
    // key (the bug the paper's rem() improvements must not introduce).
    use linearize::Operation;
    let h = History::new(vec![
        Operation {
            kind: OpKind::Add,
            key: 1,
            result: true,
            invoke: 0,
            response: 1,
            thread: 0,
        },
        Operation {
            kind: OpKind::Remove,
            key: 1,
            result: true,
            invoke: 2,
            response: 5,
            thread: 0,
        },
        Operation {
            kind: OpKind::Remove,
            key: 1,
            result: true,
            invoke: 3,
            response: 6,
            thread: 1,
        },
    ]);
    assert!(!check(&h).is_linearizable());
}

#[test]
fn contains_heavy_history_is_linearizable() {
    // 80% contains amplifies the wait-free read path racing unlinkers.
    let list = SinglyCursorList::<i64>::new();
    let rec = Recorder::new();
    let logs: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4u32)
            .map(|t| {
                let list = &list;
                let rec = &rec;
                s.spawn(move || {
                    let mut h = list.handle();
                    let mut log = rec.thread_log(t);
                    let mut rng = glibc_rand::GlibcRandom::new(900 + t);
                    for _ in 0..40 {
                        let key = rng.below(4) as i64 + 1;
                        let draw = rng.below(10);
                        let t0 = rec.stamp();
                        let (kind, result) = if draw < 1 {
                            (OpKind::Add, h.add(key))
                        } else if draw < 2 {
                            (OpKind::Remove, h.remove(key))
                        } else {
                            (OpKind::Contains, h.contains(key))
                        };
                        let t1 = rec.stamp();
                        log.push_op(kind, key, result, t0, t1);
                    }
                    log.into_ops()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(check(&History::from_logs(logs)).is_linearizable());
}
