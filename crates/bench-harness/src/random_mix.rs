//! The random operation-mix benchmark driver (§3), and the one worker
//! loop every mixed-op workload runs through.
//!
//! The list is prefilled with `f` distinct keys drawn uniformly from
//! `[0, U)`; each of `p` threads then performs `c` operations chosen
//! with the configured probabilities (e.g. 10/10/80 for the tables,
//! 25/25/50 for the scalability figures) on uniformly random keys,
//! using its own glibc-`random_r` stream with a per-thread seed —
//! exactly the paper's setup. "For chosen f and U the number of elements
//! of the list will not vary too much": adds and removes hit random
//! keys, so the live size stays near `U/2`-bounded equilibrium around
//! the prefill level.
//!
//! The Zipfian and phased mixes ([`crate::phased`]) and the [`Sampled`]
//! latency twins differ from this one only in where keys come from and
//! whether operations are timed, so they share its worker loop: per
//! operation it draws the kind (`rng.below(100)`), then the key, applies
//! the operation and, in a sampled run, times every `sample_every`-th
//! one. Threads cross a barrier at each phase boundary, and the main
//! thread times every phase.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use glibc_rand::{thread_seed, GlibcRandom};
use pragmatic_list::{ConcurrentOrderedSet, OpStats, SetHandle};

use crate::config::{OpMix, RandomMixConfig};
use crate::latency::{LatencyHistogram, Sampled};
use crate::result::RunResult;
use crate::workload::MixWorkload;

/// Prefills `list` with `prefill` distinct keys drawn uniformly from
/// `[0, key_range)` (untimed, single-threaded, deterministic from
/// `seed`). The batched mix shares it.
pub(crate) fn prefill_uniform<S: ConcurrentOrderedSet<i64>>(
    list: &S,
    prefill: u64,
    key_range: u32,
    seed: u64,
) {
    assert!(key_range > 0, "the key range must not be empty");
    assert!(
        (prefill as u128) <= key_range as u128,
        "cannot prefill {prefill} distinct keys from a range of {key_range}"
    );
    let mut rng = GlibcRandom::new(thread_seed(seed, usize::MAX >> 1));
    let mut h = list.handle();
    let mut inserted = 0;
    while inserted < prefill {
        if h.add(rng.below(key_range) as i64) {
            inserted += 1;
        }
    }
}

/// What [`drive`] measured in one phase, summed over the threads.
pub(crate) struct PhaseRun {
    /// Main-thread wall time from the phase's start barrier to its end
    /// barrier.
    pub(crate) wall: Duration,
    pub(crate) stats: OpStats,
    /// Empty unless the run was sampled.
    pub(crate) hist: LatencyHistogram,
}

impl PhaseRun {
    /// This phase as a result row of variant `S`.
    pub(crate) fn result<S: ConcurrentOrderedSet<i64>>(
        &self,
        ops_per_thread: u64,
        threads: usize,
    ) -> RunResult {
        RunResult {
            variant: S::NAME.to_string(),
            wall: self.wall,
            total_ops: ops_per_thread * threads as u64,
            stats: self.stats,
            threads,
        }
    }
}

/// The one per-op worker loop of the mixed-op workloads, on a prefilled
/// `list`. Thread `t` draws from `thread_seed(seed, t)` through every
/// phase; `phases` gives each phase's operations per thread and mix, and
/// `key(i, rng)` draws a key of phase `i`. With `sample_every`, every
/// `n`-th operation of a phase is timed; otherwise no clock is read per
/// operation.
pub(crate) fn drive<S, K>(
    list: &S,
    threads: usize,
    seed: u64,
    phases: &[(u64, OpMix)],
    key: K,
    sample_every: Option<u64>,
) -> Vec<PhaseRun>
where
    S: ConcurrentOrderedSet<i64>,
    K: Fn(usize, &mut GlibcRandom) -> i64 + Sync,
{
    assert!(threads > 0, "at least one thread");
    assert!(sample_every != Some(0), "sampling period must be positive");
    for (_, mix) in phases {
        assert!(mix.is_valid(), "operation mix must sum to 100");
    }
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, key) = (&barrier, &key);
                scope.spawn(move || {
                    let mut h = list.handle();
                    let mut rng = GlibcRandom::new(thread_seed(seed, t));
                    let mut per_phase = Vec::with_capacity(phases.len());
                    for (pi, &(ops, mix)) in phases.iter().enumerate() {
                        let mut hist = LatencyHistogram::new();
                        let add_bound = mix.add;
                        let rem_bound = mix.add + mix.remove;
                        barrier.wait(); // phase start
                        for i in 0..ops {
                            let op = rng.below(100);
                            let k = key(pi, &mut rng);
                            let start = match sample_every {
                                Some(n) if i % n == 0 => Some(Instant::now()),
                                _ => None,
                            };
                            if op < add_bound {
                                h.add(k);
                            } else if op < rem_bound {
                                h.remove(k);
                            } else {
                                h.contains(k);
                            }
                            if let Some(s) = start {
                                hist.record(s.elapsed().as_nanos() as u64);
                            }
                        }
                        barrier.wait(); // phase end
                        per_phase.push((h.take_stats(), hist));
                    }
                    per_phase
                })
            })
            .collect();
        let walls: Vec<Duration> = phases
            .iter()
            .map(|_| {
                barrier.wait();
                let start = Instant::now();
                barrier.wait();
                start.elapsed()
            })
            .collect();
        let per_thread: Vec<Vec<(OpStats, LatencyHistogram)>> =
            workers.into_iter().map(|w| w.join().unwrap()).collect();
        walls
            .into_iter()
            .enumerate()
            .map(|(pi, wall)| {
                let mut run = PhaseRun {
                    wall,
                    stats: OpStats::ZERO,
                    hist: LatencyHistogram::new(),
                };
                for thread in &per_thread {
                    run.stats += thread[pi].0;
                    run.hist.merge(&thread[pi].1);
                }
                run
            })
            .collect()
    })
}

impl RandomMixConfig {
    /// Prefills `list` and runs the mix on it as one phase.
    fn drive<S: ConcurrentOrderedSet<i64>>(&self, list: &S, sample_every: Option<u64>) -> PhaseRun {
        prefill_uniform(list, self.prefill, self.key_range, self.seed);
        let phase = [(self.ops_per_thread, self.mix)];
        let key = |_: usize, rng: &mut GlibcRandom| rng.below(self.key_range) as i64;
        let mut runs = drive(list, self.threads, self.seed, &phase, key, sample_every);
        runs.pop().expect("one phase in, one run out")
    }
}

/// The random operation-mix benchmark (§3).
impl MixWorkload for RandomMixConfig {
    type Output = RunResult;

    fn run_prebuilt<S: ConcurrentOrderedSet<i64>>(&self, list: &S) -> RunResult {
        self.drive(list, None)
            .result::<S>(self.ops_per_thread, self.threads)
    }
}

/// The random mix with per-operation latency sampling.
impl MixWorkload for Sampled<RandomMixConfig> {
    type Output = LatencyHistogram;

    fn run_prebuilt<S: ConcurrentOrderedSet<i64>>(&self, list: &S) -> LatencyHistogram {
        self.cfg.drive(list, Some(self.sample_every)).hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use pragmatic_list::variants::{DoublyCursorList, DraconicList, SinglyMildList};

    fn cfg(threads: usize, ops: u64) -> RandomMixConfig {
        RandomMixConfig {
            threads,
            ops_per_thread: ops,
            prefill: 100,
            key_range: 1000,
            mix: OpMix::READ_HEAVY,
            seed: 42,
        }
    }

    #[test]
    fn op_counts_match_mix_roughly() {
        let c = cfg(2, 20_000);
        let r = c.run::<SinglyMildList<i64>>();
        assert_eq!(r.total_ops, 40_000);
        // ~10% adds on a key range 10x the prefill: roughly half the adds
        // succeed (equilibrium: presence probability settles under 50%).
        // Just sanity-check magnitudes, not exact shares.
        assert!(r.stats.adds > 500, "adds={}", r.stats.adds);
        // The list cannot exceed the key range.
        let live = r.stats.adds as i64 - r.stats.rems as i64 + c.prefill as i64;
        assert!(live >= 0 && live <= c.key_range as i64);
    }

    #[test]
    fn same_seed_single_thread_is_reproducible() {
        let c = cfg(1, 5_000);
        let a = c.run::<DraconicList<i64>>();
        let b = c.run::<DraconicList<i64>>();
        assert_eq!(a.stats, b.stats, "single-threaded runs are deterministic");
    }

    #[test]
    fn structure_remains_valid_after_run() {
        // The real driver on a caller-built list, kept for inspection.
        let c = cfg(4, 5_000);
        let list = DoublyCursorList::<i64>::new();
        let r = c.run_prebuilt(&list);
        assert_eq!(r.total_ops, c.total_ops());
        let mut list = list;
        list.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "cannot prefill")]
    fn prefill_larger_than_range_panics() {
        let mut c = cfg(1, 10);
        c.prefill = 2000; // range is 1000
        c.run::<DraconicList<i64>>();
    }
}
