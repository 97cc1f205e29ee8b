//! The batched operation-mix benchmark driver — the amortization
//! workload behind the `batch` experiment.
//!
//! Server frontends rarely issue one key at a time: writes arrive as
//! group commits, invalidations as campaigns, ingests as sorted runs.
//! The per-operation drivers cannot express that regime; this one keeps
//! the random mix's prefill/seed/mix structure but issues whole
//! *batches* through [`SetHandle::add_batch`] /
//! [`SetHandle::remove_batch`], so a backend with a real batched path
//! (the lists apply a sorted batch in one amortized traversal under one
//! reclaimer pin; the sharded router splits it into per-shard runs) is
//! measured against the trait-default per-key loop.
//!
//! Each "operation" of the mix decides the *kind* of one batch: an add
//! batch, a remove batch, or `width` point `contains` calls (membership
//! has no batched form — reads stay reads). Throughput is reported in
//! **keys** per second, `batches · width` per thread, so numbers are
//! directly comparable with the per-operation drivers at `width = 1`.
//!
//! [`SetHandle::add_batch`]: pragmatic_list::SetHandle::add_batch
//! [`SetHandle::remove_batch`]: pragmatic_list::SetHandle::remove_batch

use std::sync::Barrier;
use std::time::Instant;

use glibc_rand::{thread_seed, GlibcRandom};
use pragmatic_list::{ConcurrentOrderedSet, OpStats, SetHandle};

use crate::config::OpMix;
use crate::result::RunResult;

/// Batched operation-mix benchmark configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchMixConfig {
    /// Number of worker threads (`p`).
    pub threads: usize,
    /// Batches issued per thread.
    pub batches_per_thread: u64,
    /// Keys per batch (`width = 1` degenerates to the per-op mix).
    pub batch_width: usize,
    /// Distinct keys inserted before the timed phase (`f`).
    pub prefill: u64,
    /// Exclusive upper bound of the key range (`U`).
    pub key_range: u32,
    /// Batch-kind mix: `add`% add-batches, `remove`% remove-batches,
    /// `contains`% membership bursts.
    pub mix: OpMix,
    /// Base seed; thread `t` uses `glibc_rand::thread_seed(seed, t)`.
    pub seed: u64,
}

impl BatchMixConfig {
    /// Total keys touched by the timed phase
    /// (`batches · width · threads`).
    pub fn total_ops(&self) -> u64 {
        self.batches_per_thread * self.batch_width as u64 * self.threads as u64
    }
}

/// Runs the batched-mix benchmark on list variant `S`.
pub fn run<S: ConcurrentOrderedSet<i64>>(cfg: &BatchMixConfig) -> RunResult {
    assert!(cfg.threads > 0, "at least one thread");
    assert!(cfg.batch_width > 0, "batches need at least one key");
    assert!(cfg.mix.is_valid(), "batch mix must sum to 100");
    let list = S::new();
    // Same prefill as the random mix, same seed stream.
    crate::random_mix::prefill_uniform(&list, cfg.prefill, cfg.key_range, cfg.seed);

    let barrier = Barrier::new(cfg.threads + 1);
    let (wall, stats) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let list = &list;
                let barrier = &barrier;
                let cfg = *cfg;
                scope.spawn(move || {
                    let mut h = list.handle();
                    let mut rng = GlibcRandom::new(thread_seed(cfg.seed, t));
                    let mut batch = vec![0i64; cfg.batch_width];
                    barrier.wait();
                    let add_bound = cfg.mix.add;
                    let rem_bound = cfg.mix.add + cfg.mix.remove;
                    for _ in 0..cfg.batches_per_thread {
                        let op = rng.below(100);
                        for slot in batch.iter_mut() {
                            *slot = rng.below(cfg.key_range) as i64;
                        }
                        if op < add_bound {
                            h.add_batch(&mut batch);
                        } else if op < rem_bound {
                            h.remove_batch(&mut batch);
                        } else {
                            for &k in batch.iter() {
                                h.contains(k);
                            }
                        }
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
    use pragmatic_list::sharded::ShardedSet;
    use pragmatic_list::variants::{SinglyCursorList, SinglyHintedList, SinglyMildList};

    fn cfg(threads: usize, batches: u64, width: usize) -> BatchMixConfig {
        BatchMixConfig {
            threads,
            batches_per_thread: batches,
            batch_width: width,
            prefill: 200,
            key_range: 2_000,
            mix: OpMix::UPDATE_HEAVY,
            seed: 42,
        }
    }

    #[test]
    fn runs_and_counts_keys() {
        let c = cfg(2, 200, 16);
        let r = run::<SinglyMildList<i64>>(&c);
        assert_eq!(r.total_ops, 2 * 200 * 16);
        assert!(r.stats.adds > 0, "some batched adds succeed");
        assert!(r.stats.rems > 0, "some batched removes succeed");
    }

    #[test]
    fn single_thread_same_seed_is_reproducible() {
        let c = cfg(1, 150, 8);
        let a = run::<SinglyCursorList<i64>>(&c);
        let b = run::<SinglyCursorList<i64>>(&c);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn batching_amortizes_traversal_work() {
        // The point of the subsystem: at width 64, the sorted
        // single-traversal path must do far less list work per key than
        // width-1 batches of the same total key count.
        let wide = run::<SinglyCursorList<i64>>(&cfg(1, 100, 64));
        let narrow = run::<SinglyCursorList<i64>>(&cfg(1, 6_400, 1));
        assert_eq!(wide.total_ops, narrow.total_ops);
        assert!(
            wide.stats.trav * 2 < narrow.stats.trav,
            "batched traversal work should collapse: wide {} vs narrow {}",
            wide.stats.trav,
            narrow.stats.trav
        );
    }

    #[test]
    fn sharded_and_hinted_backends_run_batches() {
        let c = cfg(2, 100, 32);
        let a = run::<ShardedSet<i64, SinglyCursorList<i64>, 8>>(&c);
        let b = run::<SinglyHintedList<i64>>(&c);
        assert_eq!(a.total_ops, b.total_ops);
    }
}
