//! The [`Workload`] abstraction: benchmark drivers written once against
//! [`ConcurrentOrderedSet`], runnable on any [`Variant`].
//!
//! Before this trait existed the harness hand-rolled an eight-arm match
//! per workload (`run_deterministic`, `run_random_mix`, `run_latency`),
//! so every new workload cost eight match arms and every new variant
//! cost one arm per workload — M×N value-level dispatch code. Now the
//! only match over variants is [`Variant::dispatch`]; a workload is one
//! `impl Workload` and runs on all variants via [`Variant::run`].
//!
//! The built-in workloads:
//!
//! * [`DeterministicConfig`] → the deterministic worst-case benchmark,
//! * [`RandomMixConfig`] → the random operation-mix benchmark,
//! * [`ZipfianMixConfig`] → the random mix over Zipfian-skewed keys,
//! * [`PhasedConfig`] → a sequence of Zipfian phases with a moving
//!   hotspot,
//! * [`BatchMixConfig`] → the random mix issued as key batches,
//! * [`Sampled`] over the random, Zipfian or phased mix → that mix with
//!   per-operation latency sampling.
//!
//! The random, Zipfian and phased mixes and their sampled twins are
//! [`MixWorkload`]s: they also run on a caller-built structure, and all
//! six share one worker loop (see [`crate::random_mix`]).
//!
//! # Adding a workload
//!
//! Implement the trait — no per-variant code anywhere:
//!
//! ```
//! use bench_harness::workload::Workload;
//! use bench_harness::Variant;
//! use pragmatic_list::{ConcurrentOrderedSet, SetHandle};
//!
//! /// A toy workload: alternate add/remove over a sliding window and
//! /// report how many keys survive.
//! struct SlidingChurn {
//!     window: i64,
//!     steps: i64,
//! }
//!
//! impl Workload for SlidingChurn {
//!     type Output = usize;
//!
//!     fn run<S: ConcurrentOrderedSet<i64>>(&self) -> usize {
//!         let mut list = S::new();
//!         {
//!             let mut h = list.handle();
//!             for i in 0..self.steps {
//!                 h.add(i);
//!                 if i >= self.window {
//!                     h.remove(i - self.window);
//!                 }
//!             }
//!         }
//!         list.collect_keys().len()
//!     }
//! }
//!
//! // The new workload immediately runs on every variant:
//! let w = SlidingChurn { window: 8, steps: 100 };
//! for v in Variant::ALL {
//!     assert_eq!(v.run(&w), 8, "{v}");
//! }
//! ```
//!
//! [`Variant`]: crate::variant::Variant
//! [`Variant::dispatch`]: crate::variant::Variant::dispatch
//! [`Variant::run`]: crate::variant::Variant::run
//! [`ConcurrentOrderedSet`]: pragmatic_list::ConcurrentOrderedSet
//! [`RandomMixConfig`]: crate::config::RandomMixConfig
//! [`ZipfianMixConfig`]: crate::zipfian::ZipfianMixConfig
//! [`PhasedConfig`]: crate::phased::PhasedConfig
//! [`BatchMixConfig`]: crate::batch::BatchMixConfig
//! [`Sampled`]: crate::latency::Sampled

use pragmatic_list::ConcurrentOrderedSet;

use crate::config::DeterministicConfig;
use crate::deterministic;
use crate::result::RunResult;

/// A benchmark (or any other computation) generic over the list
/// implementation, with a typed result.
///
/// `run` borrows `self`, so one workload value can be replayed across
/// variants and repeats; implement it for your config type and call
/// [`Variant::run`]. See the [module docs](self) for a worked example.
///
/// [`Variant::run`]: crate::variant::Variant::run
///
/// # Examples
///
/// One impl, zero per-variant code — including the sharded variants:
///
/// ```
/// use bench_harness::{Variant, Workload};
/// use pragmatic_list::{ConcurrentOrderedSet, SetHandle};
///
/// /// Adds 1..=n, removes the evens, reports the survivors.
/// struct Survivors(i64);
///
/// impl Workload for Survivors {
///     type Output = usize;
///     fn run<S: ConcurrentOrderedSet<i64>>(&self) -> usize {
///         let mut list = S::new();
///         {
///             let mut h = list.handle();
///             for k in 1..=self.0 {
///                 h.add(k);
///             }
///             for k in 1..=self.0 {
///                 if k % 2 == 0 {
///                     h.remove(k);
///                 }
///             }
///         }
///         list.collect_keys().len()
///     }
/// }
///
/// assert_eq!(Variant::SinglyCursor.run(&Survivors(10)), 5);
/// assert_eq!(Variant::ShardedSkiplist.run(&Survivors(10)), 5);
/// ```
pub trait Workload {
    /// What one run produces (a [`RunResult`], a histogram, …).
    type Output;

    /// Executes the workload against list implementation `S`.
    fn run<S: ConcurrentOrderedSet<i64>>(&self) -> Self::Output;
}

/// The deterministic worst-case benchmark (§3) *is* its config.
impl Workload for DeterministicConfig {
    type Output = RunResult;

    fn run<S: ConcurrentOrderedSet<i64>>(&self) -> RunResult {
        deterministic::run::<S>(self)
    }
}

/// The batched mix (see [`crate::batch`]) *is* its config.
impl Workload for crate::batch::BatchMixConfig {
    type Output = RunResult;

    fn run<S: ConcurrentOrderedSet<i64>>(&self) -> RunResult {
        crate::batch::run::<S>(self)
    }
}

/// A mixed-op workload: a key stream with an add/remove/contains mix,
/// run by the one worker loop in [`crate::random_mix`]. Implemented by
/// [`RandomMixConfig`], [`ZipfianMixConfig`], [`PhasedConfig`] and their
/// [`Sampled`] twins; each is also a [`Workload`] that runs on a fresh
/// `S::new()`.
///
/// [`RandomMixConfig`]: crate::config::RandomMixConfig
/// [`ZipfianMixConfig`]: crate::zipfian::ZipfianMixConfig
/// [`PhasedConfig`]: crate::phased::PhasedConfig
/// [`Sampled`]: crate::latency::Sampled
pub trait MixWorkload {
    /// What one run produces.
    type Output;

    /// Runs the workload on `list`, which must be empty: the prefill runs
    /// here. Lets an ablation build the structure itself — e.g. an
    /// elastic set under a non-default
    /// [`LoadPolicy`](pragmatic_list::LoadPolicy).
    fn run_prebuilt<S: ConcurrentOrderedSet<i64>>(&self, list: &S) -> Self::Output;
}

impl<W: MixWorkload> Workload for W {
    type Output = W::Output;

    fn run<S: ConcurrentOrderedSet<i64>>(&self) -> W::Output {
        self.run_prebuilt(&S::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KeyPattern, OpMix, RandomMixConfig};
    use crate::latency::Sampled;
    use crate::Variant;
    use pragmatic_list::SetHandle;

    /// The acceptance demonstration: a hypothetical new workload is one
    /// trait impl — zero per-variant match arms — and runs across
    /// `Variant::ALL` via `dispatch`.
    #[test]
    fn custom_workload_runs_on_every_variant_without_variant_code() {
        struct ParityCount {
            n: i64,
        }
        impl Workload for ParityCount {
            type Output = (usize, usize);
            fn run<S: ConcurrentOrderedSet<i64>>(&self) -> (usize, usize) {
                let mut list = S::new();
                {
                    let mut h = list.handle();
                    for k in 1..=self.n {
                        h.add(k);
                    }
                    for k in 1..=self.n {
                        if k % 2 == 0 {
                            h.remove(k);
                        }
                    }
                }
                let keys = list.collect_keys();
                let odd = keys.iter().filter(|k| *k % 2 == 1).count();
                (odd, keys.len())
            }
        }

        let w = ParityCount { n: 40 };
        for v in Variant::ALL {
            assert_eq!(v.run(&w), (20, 20), "{v}");
        }
    }

    #[test]
    fn builtin_workloads_produce_consistent_results() {
        let det = DeterministicConfig {
            threads: 2,
            n: 120,
            pattern: KeyPattern::DisjointKeys,
        };
        let r = Variant::SinglyCursor.run(&det);
        assert_eq!(r.total_ops, det.total_ops());
        assert_eq!(r.stats.adds, det.n * 2);

        let mix = RandomMixConfig {
            threads: 2,
            ops_per_thread: 2_000,
            prefill: 64,
            key_range: 512,
            mix: OpMix::READ_HEAVY,
            seed: 3,
        };
        let r = Variant::Epoch.run(&mix);
        assert_eq!(r.total_ops, mix.total_ops());
        assert_eq!(r.variant, "epoch");

        let lat = Sampled {
            cfg: mix,
            sample_every: 10,
        };
        let h = Variant::DoublyCursor.run(&lat);
        assert_eq!(h.count(), 2 * 200);
    }

    #[test]
    fn workload_trait_object_is_usable() {
        // `run` is generic, so `Workload` itself is not object-safe —
        // but `Variant::run` accepts `?Sized` implementors through any
        // concrete wrapper. Verify the borrow-based API composes with
        // repeats (same workload value reused).
        let det = DeterministicConfig {
            threads: 1,
            n: 60,
            pattern: KeyPattern::SameKeys,
        };
        let a = Variant::Draconic.run(&det);
        let b = Variant::Draconic.run(&det);
        assert_eq!(
            a.stats, b.stats,
            "replaying one workload value is deterministic"
        );
    }
}
