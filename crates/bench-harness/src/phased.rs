//! The phased (time-varying) workload engine — traffic whose *shape*
//! changes while the structure serves it.
//!
//! Every other driver in this crate holds its distribution fixed for the
//! whole run, so a structure that adapts online (the elastic sharded
//! sets) can never show its worth: the interesting regime is a hotspot
//! that **drifts** across the keyspace, skew that ramps up and down,
//! bursts of writes, and operation mixes that flip — the phase
//! transitions of real traffic. [`PhasedConfig`] sequences any number of
//! [`Phase`]s over one live structure: a single prefill, then each phase
//! runs the Zipfian mix with its own op count, mix, skew θ and —
//! crucially — its own **hotspot offset**, which rotates the rank→key
//! mapping so the hot ranks land at a different point of the keyspace
//! each phase.
//!
//! Threads advance through phases in lockstep (a barrier per phase
//! boundary), so "the hotspot moved" is a global event, as it is for a
//! server's traffic; per-phase wall time and counters are recorded
//! separately, and the aggregate is what a run reports through the
//! [`Workload`](crate::workload::Workload) impl.

use glibc_rand::{GlibcRandom, Zipfian};
use pragmatic_list::{ConcurrentOrderedSet, SetHandle};

use crate::config::OpMix;
use crate::latency::{LatencyHistogram, Sampled};
use crate::random_mix::{drive, PhaseRun};
use crate::result::RunResult;
use crate::workload::MixWorkload;
use crate::zipfian::ZipfianMixConfig;

/// One phase of a time-varying workload: a Zipfian operation mix with
/// its own length, skew, mix and hotspot placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Operations each thread performs in this phase.
    pub ops_per_thread: u64,
    /// Operation mix of this phase (mix flips between phases model
    /// read-mostly traffic interrupted by write bursts).
    pub mix: OpMix,
    /// Zipfian skew θ ∈ [0, 1) of this phase (θ ramps model congestion
    /// building and dissolving).
    pub theta: f64,
    /// Hotspot position in `[0, 1)`: the fraction of the keyspace the
    /// hottest rank is rotated to. Varying it phase-to-phase drives the
    /// hotspot across the shards of a range-partitioned backend.
    pub hotspot: f64,
    /// `true` hashes ranks across the keyspace (hot set spread out);
    /// `false` keeps hot ranks adjacent — the drifting-bottleneck case.
    pub scramble: bool,
}

/// A sequence of [`Phase`]s over one prefilled structure.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedConfig {
    /// Number of worker threads (`p`).
    pub threads: usize,
    /// Distinct keys inserted before the first phase (`f`).
    pub prefill: u64,
    /// Exclusive upper bound of the rank space (`U`), shared by all
    /// phases.
    pub key_range: u32,
    /// Base seed; thread `t` uses `glibc_rand::thread_seed(seed, t)`.
    pub seed: u64,
    /// The phases, run in order.
    pub phases: Vec<Phase>,
}

impl PhasedConfig {
    /// Total operations across all phases and threads.
    pub fn total_ops(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.ops_per_thread * self.threads as u64)
            .sum()
    }

    /// The key for Zipfian rank `rank` under `phase`'s placement: the
    /// rank is rotated by the phase's hotspot offset (mod `U`), then
    /// mapped exactly like [`ZipfianMixConfig::key_of_rank`] — so at
    /// `hotspot` 0 a phase reproduces the static Zipfian mix bit for
    /// bit, and a later phase puts the same hot mass elsewhere.
    #[inline]
    pub fn key_of(&self, phase: &Phase, rank: u64) -> i64 {
        let u = self.key_range as u64;
        let offset = ((phase.hotspot * u as f64) as u64).min(u.saturating_sub(1));
        self.placement(phase).key_of_rank((rank + offset) % u)
    }

    /// The static-mix config a phase's placement delegates to.
    fn placement(&self, phase: &Phase) -> ZipfianMixConfig {
        ZipfianMixConfig {
            threads: self.threads,
            ops_per_thread: 0,
            prefill: self.prefill,
            key_range: self.key_range,
            mix: phase.mix,
            seed: self.seed,
            theta: phase.theta,
            scramble: phase.scramble,
        }
    }
}

/// The per-phase and aggregate outcome of one phased run.
#[derive(Debug, Clone)]
pub struct PhasedResult {
    /// One [`RunResult`] per phase, in phase order.
    pub phases: Vec<RunResult>,
    /// The whole run: summed ops, counters and wall time.
    pub total: RunResult,
}

/// The per-phase and aggregate latency outcome of one sampled phased
/// run (see [`Sampled`]).
#[derive(Debug, Clone)]
pub struct PhasedLatency {
    /// One merged histogram per phase, in phase order.
    pub phases: Vec<LatencyHistogram>,
    /// All phases merged: the whole run's distribution.
    pub total: LatencyHistogram,
}

/// Prefills `list` with `cfg.prefill` distinct keys, hottest ranks of
/// the *first* phase first, so the keys it will hammer exist from the
/// start. Scrambled placement can map two ranks to one key; walking past
/// rank `U` into linear probing still reaches `prefill` distinct keys.
fn prefill<S: ConcurrentOrderedSet<i64>>(list: &S, cfg: &PhasedConfig) {
    assert!(
        (cfg.prefill as u128) <= cfg.key_range as u128,
        "cannot prefill {} distinct keys from a range of {}",
        cfg.prefill,
        cfg.key_range
    );
    let first = &cfg.phases[0];
    let mut h = list.handle();
    let mut inserted = 0;
    let mut rank = 0u64;
    while inserted < cfg.prefill {
        let key = if rank < cfg.key_range as u64 {
            cfg.key_of(first, rank)
        } else {
            (rank - cfg.key_range as u64) as i64
        };
        rank += 1;
        if h.add(key) {
            inserted += 1;
        }
    }
}

impl PhasedConfig {
    /// Prefills `list` and runs every phase on it.
    fn drive<S: ConcurrentOrderedSet<i64>>(
        &self,
        list: &S,
        sample_every: Option<u64>,
    ) -> Vec<PhaseRun> {
        assert!(!self.phases.is_empty(), "at least one phase");
        for p in &self.phases {
            assert!((0.0..1.0).contains(&p.theta), "phase θ must be in [0, 1)");
            assert!(
                (0.0..1.0).contains(&p.hotspot),
                "phase hotspot must be in [0, 1)"
            );
        }
        assert!(self.key_range > 0);
        prefill(list, self);
        // One sampler per phase (construction is O(U); sampling stateless).
        let samplers: Vec<Zipfian> = self
            .phases
            .iter()
            .map(|p| Zipfian::new(self.key_range as u64, p.theta))
            .collect();
        let plan: Vec<(u64, OpMix)> = self
            .phases
            .iter()
            .map(|p| (p.ops_per_thread, p.mix))
            .collect();
        let key = |pi: usize, rng: &mut GlibcRandom| {
            self.key_of(&self.phases[pi], samplers[pi].sample(rng))
        };
        drive(list, self.threads, self.seed, &plan, key, sample_every)
    }
}

/// The static Zipfian mix is one phase at hotspot 0, where
/// [`PhasedConfig::key_of`] is exactly [`ZipfianMixConfig::key_of_rank`].
fn one_phase(z: &ZipfianMixConfig) -> PhasedConfig {
    PhasedConfig {
        threads: z.threads,
        prefill: z.prefill,
        key_range: z.key_range,
        seed: z.seed,
        phases: vec![Phase {
            ops_per_thread: z.ops_per_thread,
            mix: z.mix,
            theta: z.theta,
            hotspot: 0.0,
            scramble: z.scramble,
        }],
    }
}

/// The phased (time-varying) workload: one result per phase plus the
/// aggregate.
impl MixWorkload for PhasedConfig {
    type Output = PhasedResult;

    fn run_prebuilt<S: ConcurrentOrderedSet<i64>>(&self, list: &S) -> PhasedResult {
        let phases: Vec<RunResult> = self
            .drive(list, None)
            .iter()
            .zip(&self.phases)
            .map(|(run, p)| run.result::<S>(p.ops_per_thread, self.threads))
            .collect();
        let total = RunResult {
            variant: S::NAME.to_string(),
            wall: phases.iter().map(|p| p.wall).sum(),
            total_ops: self.total_ops(),
            stats: phases.iter().map(|p| p.stats).sum(),
            threads: self.threads,
        };
        PhasedResult { phases, total }
    }
}

/// The phased workload with per-phase latency sampling. A phase whose
/// hotspot lands on a new shard is where the elastic sets seal, migrate
/// and (for the morphing variant) rebuild backends; those stalls appear
/// in that phase's p99 while the mean throughput hides them.
impl MixWorkload for Sampled<PhasedConfig> {
    type Output = PhasedLatency;

    fn run_prebuilt<S: ConcurrentOrderedSet<i64>>(&self, list: &S) -> PhasedLatency {
        let phases: Vec<LatencyHistogram> = self
            .cfg
            .drive(list, Some(self.sample_every))
            .into_iter()
            .map(|run| run.hist)
            .collect();
        let mut total = LatencyHistogram::new();
        for h in &phases {
            total.merge(h);
        }
        PhasedLatency { phases, total }
    }
}

/// The Zipfian-skewed mix (see [`crate::zipfian`]).
impl MixWorkload for ZipfianMixConfig {
    type Output = RunResult;

    fn run_prebuilt<S: ConcurrentOrderedSet<i64>>(&self, list: &S) -> RunResult {
        one_phase(self).run_prebuilt(list).total
    }
}

/// The Zipfian mix with per-operation latency sampling. Under skew the
/// hot ranks sit at the front of the traversal order, so the
/// percentiles separate the hot-key fast path from the cold-key tail.
impl MixWorkload for Sampled<ZipfianMixConfig> {
    type Output = LatencyHistogram;

    fn run_prebuilt<S: ConcurrentOrderedSet<i64>>(&self, list: &S) -> LatencyHistogram {
        let cfg = one_phase(&self.cfg);
        let sample_every = self.sample_every;
        Sampled { cfg, sample_every }.run_prebuilt(list).total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use pragmatic_list::elastic::{ElasticSet, LoadPolicy};
    use pragmatic_list::sharded::{shard_of, ShardedSet};
    use pragmatic_list::variants::SinglyCursorList;

    fn phase(hotspot: f64, theta: f64, ops: u64) -> Phase {
        Phase {
            ops_per_thread: ops,
            mix: OpMix::READ_HEAVY,
            theta,
            hotspot,
            scramble: false,
        }
    }

    fn cfg(threads: usize, phases: Vec<Phase>) -> PhasedConfig {
        PhasedConfig {
            threads,
            prefill: 400,
            key_range: 2_000,
            seed: 42,
            phases,
        }
    }

    #[test]
    fn runs_all_phases_and_aggregates() {
        let c = cfg(2, vec![phase(0.0, 0.9, 800), phase(0.5, 0.5, 400)]);
        let r = c.run::<SinglyCursorList<i64>>();
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0].total_ops, 1_600);
        assert_eq!(r.phases[1].total_ops, 800);
        assert_eq!(r.total.total_ops, c.total_ops());
        assert_eq!(
            r.total.stats,
            r.phases.iter().map(|p| p.stats).sum(),
            "aggregate counters are the per-phase sum"
        );
        assert_eq!(r.total.variant, "singly_cursor");
    }

    #[test]
    fn single_thread_same_seed_is_reproducible() {
        let c = cfg(1, vec![phase(0.0, 0.99, 1_000), phase(0.7, 0.9, 1_000)]);
        let a = c.run::<SinglyCursorList<i64>>();
        let b = c.run::<SinglyCursorList<i64>>();
        assert_eq!(a.total.stats, b.total.stats);
        for (x, y) in a.phases.iter().zip(b.phases.iter()) {
            assert_eq!(x.stats, y.stats);
        }
    }

    #[test]
    fn hotspot_zero_matches_the_static_zipfian_placement() {
        let c = cfg(1, vec![phase(0.0, 0.9, 1)]);
        let z = ZipfianMixConfig {
            threads: 1,
            ops_per_thread: 1,
            prefill: 400,
            key_range: 2_000,
            mix: OpMix::READ_HEAVY,
            seed: 42,
            theta: 0.9,
            scramble: false,
        };
        for rank in [0u64, 1, 7, 500, 1_999] {
            assert_eq!(c.key_of(&c.phases[0], rank), z.key_of_rank(rank));
        }
    }

    #[test]
    fn hotspot_offset_moves_the_hot_ranks_across_shards() {
        // Clustered placement: the hottest ranks of hotspot 0 land in
        // the lowest shard; at hotspot 0.5 they land mid-keyspace.
        let c = cfg(1, vec![phase(0.0, 0.99, 1), phase(0.5, 0.99, 1)]);
        let early = c.key_of(&c.phases[0], 0);
        let late = c.key_of(&c.phases[1], 0);
        assert_eq!(shard_of(early, 8), 0, "hotspot 0 → lowest shard");
        let mid = shard_of(late, 8);
        assert!(
            (3..=4).contains(&mid),
            "hotspot 0.5 → middle shard, got {mid}"
        );
        // Rotation is mod U: adjacent hot ranks stay adjacent keys.
        assert!(c.key_of(&c.phases[1], 0) < c.key_of(&c.phases[1], 1));
    }

    #[test]
    fn drift_triggers_elastic_migrations() {
        // The end-to-end claim of the subsystem: a drifting hotspot
        // makes the elastic set split, without any forced migration.
        let c = PhasedConfig {
            threads: 2,
            prefill: 1_000,
            key_range: 4_000,
            seed: 7,
            phases: (0..5).map(|i| phase(i as f64 * 0.2, 0.9, 4_000)).collect(),
        };
        let set = ElasticSet::<i64, SinglyCursorList<i64>>::with_policy(LoadPolicy {
            check_period: 256,
            window_min_ops: 1_024,
            min_split_keys: 8,
            ..LoadPolicy::default()
        });
        let r = c.run_prebuilt(&set);
        assert_eq!(r.total.total_ops, c.total_ops());
        assert!(
            set.splits() > 0,
            "drifting hotspot must trip the load monitor"
        );
        assert!(set.shard_count() > 1);
        let mut set = set;
        set.check_invariants().unwrap();
    }

    #[test]
    fn elastic_tracks_static_correctness_under_drift() {
        // Same phased tape (single-threaded ⇒ deterministic op stream):
        // the elastic and static sharded sets must agree on the final
        // contents even though the elastic one migrated along the way.
        let c = cfg(1, vec![phase(0.0, 0.9, 3_000), phase(0.6, 0.9, 3_000)]);
        let elastic = ElasticSet::<i64, SinglyCursorList<i64>>::with_policy(LoadPolicy {
            check_period: 128,
            window_min_ops: 512,
            min_split_keys: 4,
            ..LoadPolicy::default()
        });
        let staticly = ShardedSet::<i64, SinglyCursorList<i64>, 8>::new();
        let a = c.run_prebuilt(&elastic);
        let b = c.run_prebuilt(&staticly);
        assert_eq!(a.total.stats.adds, b.total.stats.adds);
        assert_eq!(a.total.stats.rems, b.total.stats.rems);
        let (mut elastic, mut staticly) = (elastic, staticly);
        assert_eq!(elastic.collect_keys(), staticly.collect_keys());
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phase_list_panics() {
        let c = cfg(1, vec![]);
        c.run::<SinglyCursorList<i64>>();
    }

    #[test]
    fn sampled_run_counts_probes_per_phase() {
        let c = cfg(2, vec![phase(0.0, 0.9, 800), phase(0.5, 0.5, 400)]);
        let lat = Sampled {
            cfg: c,
            sample_every: 10,
        }
        .run::<SinglyCursorList<i64>>();
        assert_eq!(lat.phases.len(), 2);
        // Every 10th of 800 (resp. 400) ops per thread, two threads.
        assert_eq!(lat.phases[0].count(), 2 * 80);
        assert_eq!(lat.phases[1].count(), 2 * 40);
        assert_eq!(
            lat.total.count(),
            lat.phases.iter().map(|h| h.count()).sum::<u64>(),
            "the aggregate is the per-phase merge"
        );
        assert!(lat.total.max_ns() > 0);
        for h in &lat.phases {
            assert!(h.quantile_ns(0.99) >= h.quantile_ns(0.5));
        }
    }

    #[test]
    fn sampled_run_drives_elastic_migrations_too() {
        // The sampled driver must exercise the same drift the throughput
        // driver does: a marching hotspot still trips the load monitor,
        // so the per-phase percentiles genuinely contain seal/migrate
        // stalls rather than a statically partitioned fast path.
        let c = PhasedConfig {
            threads: 2,
            prefill: 1_000,
            key_range: 4_000,
            seed: 7,
            phases: (0..5).map(|i| phase(i as f64 * 0.2, 0.9, 4_000)).collect(),
        };
        let set = ElasticSet::<i64, SinglyCursorList<i64>>::with_policy(LoadPolicy {
            check_period: 256,
            window_min_ops: 1_024,
            min_split_keys: 8,
            ..LoadPolicy::default()
        });
        let lat = Sampled {
            cfg: c,
            sample_every: 16,
        }
        .run_prebuilt(&set);
        assert_eq!(lat.phases.len(), 5);
        assert!(set.splits() > 0, "drift must trip the load monitor");
        let mut set = set;
        set.check_invariants().unwrap();
    }
}
