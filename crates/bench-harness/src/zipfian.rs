//! The Zipfian-skewed operation-mix benchmark driver — the workload
//! family the paper's uniform random mix cannot express.
//!
//! Real traffic concentrates on hot keys the way road-network congestion
//! concentrates on a few bottleneck links; a uniform key draw spreads
//! load evenly and therefore never exercises that regime. This workload
//! keeps everything else from the random mix (§3: prefill, per-thread
//! glibc `random_r` streams, the add/rem/con percentages) and replaces
//! the key distribution with a [`Zipfian`] over ranks `[0, U)`. It runs
//! as a one-phase [`PhasedConfig`](crate::phased::PhasedConfig) at
//! hotspot 0, whose prefill inserts the hottest ranks first.
//!
//! Two placements of the hot ranks matter for the sharded backends:
//!
//! * **clustered** (`scramble = false`): rank `r` maps to key `r`, so
//!   the hot keys are adjacent — under range partitioning they all land
//!   in the lowest shard, the bottleneck-link regime;
//! * **scrambled** (`scramble = true`): ranks are hashed across the key
//!   range (YCSB-style; the hash may collide, which merges the colliding
//!   ranks' probability mass — the standard, accepted approximation), so
//!   hot keys spread across shards and skew stresses each shard's short
//!   prefix instead of a single shard.
//!
//! [`Zipfian`]: glibc_rand::Zipfian

use crate::config::OpMix;

/// Zipfian-skewed operation-mix benchmark: like
/// [`RandomMixConfig`](crate::config::RandomMixConfig) but keys are
/// drawn rank-first from a [`Zipfian`](glibc_rand::Zipfian) with skew
/// `theta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfianMixConfig {
    /// Number of worker threads (`p`).
    pub threads: usize,
    /// Operations per thread (`c`).
    pub ops_per_thread: u64,
    /// Distinct keys inserted before the timed phase (`f`).
    pub prefill: u64,
    /// Exclusive upper bound of the key range / rank space (`U`).
    pub key_range: u32,
    /// Operation mix.
    pub mix: OpMix,
    /// Base seed; thread `t` uses `glibc_rand::thread_seed(seed, t)`.
    pub seed: u64,
    /// Zipfian skew in `[0, 1)`: 0 = uniform, 0.99 = YCSB default.
    pub theta: f64,
    /// `false`: hot ranks are adjacent keys (they cluster in one shard
    /// of a range-partitioned backend); `true`: ranks are hashed across
    /// the key range.
    pub scramble: bool,
}

impl ZipfianMixConfig {
    /// Total operations of the timed phase (`c·p`).
    pub fn total_ops(&self) -> u64 {
        self.ops_per_thread * self.threads as u64
    }

    /// The key for Zipfian rank `rank` under this config's placement.
    ///
    /// Keys span the full `i64` domain (not `[0, U)`) so that a
    /// range-partitioned backend sees its whole keyspace: clustered
    /// placement maps ranks *monotonically* onto the domain — adjacent
    /// hot ranks stay adjacent keys, which under range partitioning all
    /// fall into the lowest shards — while scrambled placement hashes
    /// each rank to an arbitrary point, spreading the hot set across
    /// shards. Key magnitude is irrelevant to the list backends (they
    /// compare, never index), so unsharded variants do identical work
    /// either way.
    #[inline]
    pub fn key_of_rank(&self, rank: u64) -> i64 {
        let u = if self.scramble {
            // Fibonacci hash (collisions merge rank masses — the
            // standard YCSB approximation, see module docs).
            (rank + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        } else {
            // Linear monotone spread of [0, U) over the u64 rank space.
            ((rank as u128 * (u64::MAX - 2) as u128) / self.key_range as u128) as u64
        };
        // Undo the `ShardKey::rank64` sign-flip and stay strictly inside
        // the sentinels.
        ((u.clamp(1, u64::MAX - 1)) ^ (1 << 63)) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::Sampled;
    use crate::{MixWorkload, Workload};
    use glibc_rand::{GlibcRandom, Zipfian};
    use pragmatic_list::sharded::ShardedSet;
    use pragmatic_list::variants::{SinglyCursorList, SinglyMildList};
    use pragmatic_list::ConcurrentOrderedSet;

    fn cfg(threads: usize, ops: u64, theta: f64) -> ZipfianMixConfig {
        ZipfianMixConfig {
            threads,
            ops_per_thread: ops,
            prefill: 100,
            key_range: 1_000,
            mix: OpMix::READ_HEAVY,
            seed: 42,
            theta,
            scramble: false,
        }
    }

    #[test]
    fn runs_and_counts_ops() {
        let c = cfg(2, 5_000, 0.9);
        let r = c.run::<SinglyMildList<i64>>();
        assert_eq!(r.total_ops, 10_000);
        assert_eq!(r.variant, "singly");
        assert!(r.stats.adds >= 1, "some adds succeed");
    }

    #[test]
    fn same_seed_single_thread_is_reproducible() {
        let c = cfg(1, 4_000, 0.99);
        let a = c.run::<SinglyCursorList<i64>>();
        let b = c.run::<SinglyCursorList<i64>>();
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn clustered_placement_is_monotone_and_spans_the_domain() {
        let c = cfg(1, 1, 0.9);
        let keys: Vec<i64> = (0..c.key_range as u64).map(|r| c.key_of_rank(r)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "monotone, distinct");
        assert!(keys[0] < i64::MIN / 2, "low ranks at the bottom");
        assert!(
            *keys.last().unwrap() > i64::MAX / 2,
            "high ranks at the top"
        );
    }

    #[test]
    fn clustered_skew_lands_in_the_low_shards() {
        // θ=0.99 clustered: the overwhelming majority of draws map into
        // the lowest shard's keyspace interval.
        let c = ZipfianMixConfig {
            mix: OpMix::UPDATE_HEAVY,
            ..cfg(2, 10_000, 0.99)
        };
        type S = ShardedSet<i64, SinglyCursorList<i64>, 8>;
        let _ = c.run::<S>(); // exercises the driver over a sharded backend
        let zipf = Zipfian::new(c.key_range as u64, c.theta);
        let mut rng = GlibcRandom::new(1);
        let hot = (0..10_000)
            .filter(|_| {
                let key = c.key_of_rank(zipf.sample(&mut rng));
                pragmatic_list::sharded::shard_of(key, 8) == 0
            })
            .count();
        assert!(hot > 6_000, "clustered hot keys: {hot}/10000 in shard 0");
    }

    #[test]
    fn scrambled_skew_spreads_across_shards() {
        let c = ZipfianMixConfig {
            scramble: true,
            ..cfg(1, 1, 0.99)
        };
        let zipf = Zipfian::new(c.key_range as u64, c.theta);
        let mut rng = GlibcRandom::new(1);
        let mut shards_hit = [false; 8];
        for _ in 0..10_000 {
            let key = c.key_of_rank(zipf.sample(&mut rng));
            shards_hit[pragmatic_list::sharded::shard_of(key, 8)] = true;
        }
        assert_eq!(
            shards_hit, [true; 8],
            "scrambled hot set should span the shards"
        );
    }

    #[test]
    fn prefill_inserts_the_hot_ranks() {
        let c = cfg(1, 0, 0.99);
        let list = SinglyCursorList::<i64>::new();
        c.run_prebuilt(&list); // zero ops: the prefill only
        let mut list = list;
        let keys = list.collect_keys();
        assert_eq!(keys.len(), c.prefill as usize);
        // Clustered placement is monotone: the prefilled keys are exactly
        // the images of the hottest `prefill` ranks, in rank order.
        let want: Vec<i64> = (0..c.prefill).map(|r| c.key_of_rank(r)).collect();
        assert_eq!(keys, want);
    }

    #[test]
    fn sampled_run_produces_expected_sample_count() {
        let c = cfg(2, 1_000, 0.99);
        let hist = Sampled {
            cfg: c,
            sample_every: 10,
        }
        .run::<SinglyMildList<i64>>();
        assert_eq!(hist.count(), 2 * 100, "every 10th of 1000 ops per thread");
        assert!(hist.max_ns() > 0);
    }

    #[test]
    #[should_panic(expected = "cannot prefill")]
    fn prefill_larger_than_range_panics() {
        let mut c = cfg(1, 10, 0.5);
        c.prefill = 2_000;
        c.run::<SinglyMildList<i64>>();
    }
}
