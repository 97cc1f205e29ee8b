//! Workload configurations for the two benchmarks of §3.

/// Key schedule of the deterministic benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyPattern {
    /// `k(i) = i` — every thread uses the same key sequence (maximum
    /// interaction; Tables 1, 4, 7).
    SameKeys,
    /// `k(i) = t + i·p` — per-thread disjoint key sequences
    /// (Tables 2, 5, 8).
    DisjointKeys,
}

impl KeyPattern {
    /// The i-th key for thread `t` of `p` threads.
    #[inline]
    pub fn key(self, i: u64, t: u64, p: u64) -> i64 {
        match self {
            KeyPattern::SameKeys => i as i64,
            KeyPattern::DisjointKeys => (t + i * p) as i64,
        }
    }
}

/// Deterministic worst-case benchmark (§3): per thread, three passes of
/// length `n` —
///
/// 1. ascending: `con(k(i)); add(k(i)); con(k(i)); add(k(i))`
/// 2. descending: `con(k(i)); rem(k(i)); con(k(i)); rem(k(i))`
/// 3. ascending: `con(k(i))`
///
/// for a total of `9·n` operations per thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeterministicConfig {
    /// Number of worker threads (the paper's `p`).
    pub threads: usize,
    /// Sequence length per pass (the paper's `n`).
    pub n: u64,
    /// Same or disjoint key sequences.
    pub pattern: KeyPattern,
}

impl DeterministicConfig {
    /// Total operations the run will execute (`9·n·p`).
    pub fn total_ops(&self) -> u64 {
        9 * self.n * self.threads as u64
    }
}

/// Operation mix in percent; must sum to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Percentage of `add()` operations.
    pub add: u32,
    /// Percentage of `rem()` operations.
    pub remove: u32,
    /// Percentage of `con()` operations.
    pub contains: u32,
}

impl OpMix {
    /// The tables' mix: 10% add, 10% rem, 80% con.
    pub const READ_HEAVY: OpMix = OpMix {
        add: 10,
        remove: 10,
        contains: 80,
    };

    /// The figures' mix: 25% add, 25% rem, 50% con ("update ratio 50%").
    pub const UPDATE_HEAVY: OpMix = OpMix {
        add: 25,
        remove: 25,
        contains: 50,
    };

    /// The delegation stress mix: 40% add, 40% rem, 20% con — the
    /// write-share that drives a clustered hotspot past the elastic
    /// router's write-hot threshold (`LoadPolicy::combine_write_pct`).
    pub const WRITE_HEAVY: OpMix = OpMix {
        add: 40,
        remove: 40,
        contains: 20,
    };

    /// Validates that the three percentages sum to 100.
    pub fn is_valid(&self) -> bool {
        self.add + self.remove + self.contains == 100
    }
}

/// Random operation-mix benchmark (§3): prefill `prefill` distinct keys,
/// then each thread performs `ops_per_thread` operations drawn from
/// [`OpMix`] on keys uniform in `[0, key_range)`, using a per-thread
/// glibc `random_r` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomMixConfig {
    /// Number of worker threads (`p`).
    pub threads: usize,
    /// Operations per thread (`c`; weak scaling keeps this fixed).
    pub ops_per_thread: u64,
    /// Distinct keys inserted before the timed phase (`f`).
    pub prefill: u64,
    /// Exclusive upper bound of the key range (`U`).
    pub key_range: u32,
    /// Operation mix.
    pub mix: OpMix,
    /// Base seed; thread `t` uses `glibc_rand::thread_seed(seed, t)`.
    pub seed: u64,
}

impl RandomMixConfig {
    /// Total operations of the timed phase (`c·p`).
    pub fn total_ops(&self) -> u64 {
        self.ops_per_thread * self.threads as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_patterns_match_paper_definitions() {
        let p = 64;
        for t in [0u64, 5, 63] {
            for i in [0u64, 1, 99] {
                assert_eq!(KeyPattern::SameKeys.key(i, t, p), i as i64);
                assert_eq!(KeyPattern::DisjointKeys.key(i, t, p), (t + i * p) as i64);
            }
        }
    }

    #[test]
    fn disjoint_keys_are_disjoint_across_threads() {
        use std::collections::HashSet;
        let p = 8u64;
        let mut seen = HashSet::new();
        for t in 0..p {
            for i in 0..100 {
                assert!(seen.insert(KeyPattern::DisjointKeys.key(i, t, p)));
            }
        }
    }

    #[test]
    fn deterministic_total_matches_tables() {
        // Table 1: p=64, n=100000 -> 57.6M ops.
        let cfg = DeterministicConfig {
            threads: 64,
            n: 100_000,
            pattern: KeyPattern::SameKeys,
        };
        assert_eq!(cfg.total_ops(), 57_600_000);
        // Table 4: p=80 -> 72M ops.
        let cfg = DeterministicConfig { threads: 80, ..cfg };
        assert_eq!(cfg.total_ops(), 72_000_000);
    }

    #[test]
    fn mixes_are_valid() {
        assert!(OpMix::READ_HEAVY.is_valid());
        assert!(OpMix::UPDATE_HEAVY.is_valid());
        assert!(OpMix::WRITE_HEAVY.is_valid());
        assert!(!OpMix {
            add: 50,
            remove: 50,
            contains: 50
        }
        .is_valid());
    }

    #[test]
    fn random_total_matches_tables() {
        // Table 3: p=64, c=1e6 -> 64M ops.
        let cfg = RandomMixConfig {
            threads: 64,
            ops_per_thread: 1_000_000,
            prefill: 1000,
            key_range: 10_000,
            mix: OpMix::READ_HEAVY,
            seed: 1,
        };
        assert_eq!(cfg.total_ops(), 64_000_000);
    }
}
