//! The deterministic worst-case benchmark driver (§3).
//!
//! Starting from an empty list, each thread performs three passes over
//! its key sequence `k(i)`:
//!
//! 1. `i = 0..n`: `con(k(i)); add(k(i)); con(k(i)); add(k(i))`
//! 2. `i = n-1..0`: `con(k(i)); rem(k(i)); con(k(i)); rem(k(i))`
//! 3. `i = 0..n`: `con(k(i))`
//!
//! With `k(i) = i` all threads fight over one ascending/descending
//! sequence; with `k(i) = t + i·p` the key sets are disjoint but the
//! list is `p` times longer. The sequential behaviour per thread is
//! O(p·n²) resp. O(n²) — the workload the cursor and backward pointers
//! were designed for. Threads are *not* barrier-synchronised between
//! passes (matching the OpenMP original), which is what makes the
//! "adds" column exceed `n` in the same-keys tables: a fast thread's
//! phase-2 removals overlap slow threads' phase-1 insertions, so keys
//! get re-added.

use std::sync::Barrier;
use std::time::Instant;

use pragmatic_list::{ConcurrentOrderedSet, OpStats, SetHandle};

use crate::config::DeterministicConfig;
use crate::result::RunResult;

/// Runs the deterministic benchmark on list variant `S`.
///
/// Spawns `cfg.threads` workers, each with its own handle; the timed
/// region spans the release of the start barrier to the last join.
pub fn run<S: ConcurrentOrderedSet<i64>>(cfg: &DeterministicConfig) -> RunResult {
    assert!(cfg.threads > 0, "at least one thread");
    let list = S::new();
    let barrier = Barrier::new(cfg.threads + 1);
    let p = cfg.threads as u64;
    let n = cfg.n;

    let (wall, stats) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let list = &list;
                let barrier = &barrier;
                let pattern = cfg.pattern;
                scope.spawn(move || {
                    let mut h = list.handle();
                    barrier.wait();
                    let t = t as u64;
                    // Pass 1: ascending con/add pairs, twice per key.
                    for i in 0..n {
                        let k = pattern.key(i, t, p);
                        h.contains(k);
                        h.add(k);
                        h.contains(k);
                        h.add(k);
                    }
                    // Pass 2: descending con/rem pairs, twice per key.
                    for i in (0..n).rev() {
                        let k = pattern.key(i, t, p);
                        h.contains(k);
                        h.remove(k);
                        h.contains(k);
                        h.remove(k);
                    }
                    // Pass 3: ascending con sweep.
                    for i in 0..n {
                        h.contains(pattern.key(i, t, p));
                    }
                    h.take_stats()
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let stats: OpStats = workers.into_iter().map(|w| w.join().unwrap()).sum();
        (start.elapsed(), stats)
    });

    RunResult {
        variant: S::NAME.to_string(),
        wall,
        total_ops: cfg.total_ops(),
        stats,
        threads: cfg.threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KeyPattern;
    use pragmatic_list::variants::{DoublyCursorList, DraconicList, SinglyCursorList};

    fn small(pattern: KeyPattern) -> DeterministicConfig {
        DeterministicConfig {
            threads: 4,
            n: 200,
            pattern,
        }
    }

    #[test]
    fn same_keys_ends_empty_and_balanced() {
        let cfg = small(KeyPattern::SameKeys);
        let r = run::<DraconicList<i64>>(&cfg);
        assert_eq!(r.total_ops, 9 * 200 * 4);
        // Every successful add is eventually removed (the benchmark ends
        // after a full descending removal pass by every thread).
        assert_eq!(r.stats.adds, r.stats.rems);
        assert!(r.stats.adds >= cfg.n, "each key added at least once");
    }

    #[test]
    fn disjoint_keys_adds_exactly_2n_per_thread_is_not_true_but_n() {
        // With disjoint keys no two threads ever touch the same key:
        // exactly n adds and n removes per thread succeed (the second of
        // each pair fails).
        let cfg = small(KeyPattern::DisjointKeys);
        let r = run::<SinglyCursorList<i64>>(&cfg);
        assert_eq!(r.stats.adds, cfg.n * cfg.threads as u64);
        assert_eq!(r.stats.rems, cfg.n * cfg.threads as u64);
        // Disjoint keys still share links: thread t's keys are
        // `t + i·threads`, interleaved, so two threads inserting into the
        // same gap can legally lose a CAS to each other. Only a lone
        // thread is guaranteed never to fail one.
        let alone = DeterministicConfig { threads: 1, ..cfg };
        let r = run::<SinglyCursorList<i64>>(&alone);
        assert_eq!(r.stats.adds, alone.n);
        assert_eq!(r.stats.rems, alone.n);
        assert_eq!(r.stats.fail, 0, "a lone thread cannot lose a CAS");
    }

    #[test]
    fn doubly_cursor_traverses_orders_of_magnitude_less() {
        let cfg = DeterministicConfig {
            threads: 2,
            n: 400,
            pattern: KeyPattern::DisjointKeys,
        };
        let drac = run::<DraconicList<i64>>(&cfg);
        let fast = run::<DoublyCursorList<i64>>(&cfg);
        let drac_work = drac.stats.total_traversals();
        let fast_work = fast.stats.total_traversals();
        assert!(
            fast_work * 20 < drac_work,
            "doubly-cursor {fast_work} vs draconic {drac_work}"
        );
    }

    #[test]
    fn single_thread_matches_sequential_expectation() {
        let cfg = DeterministicConfig {
            threads: 1,
            n: 100,
            pattern: KeyPattern::SameKeys,
        };
        let r = run::<DraconicList<i64>>(&cfg);
        assert_eq!(r.stats.adds, 100);
        assert_eq!(r.stats.rems, 100);
        assert_eq!(r.stats.fail, 0);
        assert_eq!(r.stats.rtry, 0);
    }
}
