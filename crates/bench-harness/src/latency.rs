//! Per-operation latency sampling — tail behaviour of the variants.
//!
//! The paper observes (§1) that the lock-free list is not
//! starvation-free: "for any individual thread, [a full retraversal] can
//! happen indefinitely". Mean throughput (the paper's metric) hides
//! that; per-operation latency percentiles expose it. This module adds a
//! log₂-bucketed histogram (constant memory, ~1 ns resolution floor,
//! mergeable across threads) and [`Sampled`], the latency twin of every
//! mixed-op workload: every `sample_every`-th operation is timed with
//! `Instant`, which keeps the probe overhead off the un-sampled fast
//! path.
//!
//! `repro latency` prints p50/p90/p99/p99.9/max per variant.

const BUCKETS: usize = 64;

/// Log₂-bucketed latency histogram over nanoseconds.
///
/// Bucket `i` counts samples with `floor(log2(ns)) == i` (bucket 0 also
/// holds 0 ns). Percentiles report the *upper bound* of the bucket the
/// quantile falls into — a ≤2× overestimate, which is fine for the
/// orders-of-magnitude tails this measures.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            max_ns: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        let idx = if ns == 0 {
            0
        } else {
            (63 - ns.leading_zeros() as usize).min(BUCKETS - 1)
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Merges another histogram (thread aggregation).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Upper bound (ns) of the bucket containing quantile `q ∈ [0, 1]`.
    /// Returns 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
            }
        }
        self.max_ns
    }

    /// Convenience: (p50, p90, p99, p999, max) in nanoseconds.
    pub fn summary(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.quantile_ns(0.50),
            self.quantile_ns(0.90),
            self.quantile_ns(0.99),
            self.quantile_ns(0.999),
            self.max_ns,
        )
    }
}

/// A mixed-op workload with every `sample_every`-th operation timed.
///
/// `Sampled<RandomMixConfig>` and `Sampled<ZipfianMixConfig>` report one
/// merged [`LatencyHistogram`]; `Sampled<PhasedConfig>` reports one per
/// phase ([`PhasedLatency`](crate::phased::PhasedLatency)) — the view that
/// exposes what an elastic seal, migration or morph costs when the
/// hotspot lands on it. Throughput is not reported: the probes perturb
/// it, so run the bare config for that.
#[derive(Debug, Clone, Copy)]
pub struct Sampled<C> {
    /// The workload's parameters.
    pub cfg: C,
    /// Sampling period (1 = time every operation).
    pub sample_every: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OpMix, RandomMixConfig};
    use crate::Workload;
    use pragmatic_list::variants::{DoublyCursorList, DraconicList};

    #[test]
    fn bucket_boundaries() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_ns(), 1024);
        // All five samples ≤ p100 bound; p20 covers the smallest bucket.
        assert!(h.quantile_ns(1.0) >= 1024);
        assert!(h.quantile_ns(0.2) <= 1);
    }

    #[test]
    fn quantiles_monotone() {
        let mut h = LatencyHistogram::new();
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x % 1_000_000);
        }
        let mut last = 0;
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile_ns(q);
            assert!(v >= last, "quantiles must be monotone");
            last = v;
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 0..500u64 {
            let v = i * 37 % 10_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.max_ns(), all.max_ns());
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(a.quantile_ns(q), all.quantile_ns(q));
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ns(0.99), 0);
        assert_eq!(h.max_ns(), 0);
    }

    #[test]
    fn giant_sample_saturates_top_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.quantile_ns(1.0), u64::MAX);
    }

    #[test]
    fn sampled_run_produces_expected_sample_count() {
        let cfg = RandomMixConfig {
            threads: 2,
            ops_per_thread: 1_000,
            prefill: 64,
            key_range: 256,
            mix: OpMix::READ_HEAVY,
            seed: 5,
        };
        let hist = Sampled {
            cfg,
            sample_every: 10,
        }
        .run::<DraconicList<i64>>();
        assert_eq!(hist.count(), 2 * 100, "every 10th of 1000 ops per thread");
        assert!(hist.max_ns() > 0);
    }

    #[test]
    #[should_panic(expected = "cannot prefill")]
    fn sampled_prefill_larger_than_range_panics() {
        // Without the bound check this prefill loop never ends.
        let cfg = RandomMixConfig {
            threads: 1,
            ops_per_thread: 10,
            prefill: 300,
            key_range: 256,
            mix: OpMix::READ_HEAVY,
            seed: 5,
        };
        Sampled {
            cfg,
            sample_every: 1,
        }
        .run::<DraconicList<i64>>();
    }

    #[test]
    fn cursor_variant_has_no_worse_median() {
        // Smoke: on a locality-free mix the cursor should not *hurt* the
        // median by more than a bucket or two (both are log2 bounds).
        let cfg = RandomMixConfig {
            threads: 2,
            ops_per_thread: 4_000,
            prefill: 512,
            key_range: 1_024,
            mix: OpMix::READ_HEAVY,
            seed: 6,
        };
        let w = Sampled {
            cfg,
            sample_every: 8,
        };
        let a = w.run::<DraconicList<i64>>();
        let f = w.run::<DoublyCursorList<i64>>();
        assert!(f.quantile_ns(0.5) <= a.quantile_ns(0.5).saturating_mul(4));
    }
}
