//! # bench-harness
//!
//! The benchmark drivers reproducing §3 of the paper: the deterministic
//! worst-case benchmark, the random operation-mix benchmark, the
//! thread-private baseline mode, and presets for **every table (1–9) and
//! figure (1–3)** of the evaluation.
//!
//! The drivers are generic over [`ConcurrentOrderedSet`], so all six
//! paper variants (and the epoch-reclamation baseline) run through the
//! same code path. A benchmark is one [`workload::Workload`] impl;
//! [`variant::Variant::dispatch`] (driven by a [`variant::VariantVisitor`])
//! is the single place where a runtime variant choice becomes a
//! compile-time list type, so adding a workload or a variant never
//! multiplies match arms. Results carry the paper's table columns —
//! Time, Total ops, Throughput, adds, rems, cons, trav, fail, rtry —
//! via [`result::RunResult`].
//!
//! OpenMP's role in the original (thread fork/join + wall-clock timing)
//! is played by `std::thread::scope` plus a start barrier; each worker
//! owns a per-thread list handle, exactly like the paper's thread-private
//! `list_t` views.
//!
//! [`ConcurrentOrderedSet`]: pragmatic_list::ConcurrentOrderedSet

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod config;
pub mod deterministic;
pub mod latency;
pub mod phased;
pub mod presets;
pub mod private;
pub mod random_mix;
pub mod report;
pub mod result;
pub mod scalability;
pub mod variant;
pub mod workload;
pub mod zipfian;

pub use batch::BatchMixConfig;
pub use config::{DeterministicConfig, KeyPattern, OpMix, RandomMixConfig};
pub use latency::Sampled;
pub use phased::{Phase, PhasedConfig, PhasedLatency, PhasedResult};
pub use pragmatic_list::OpStats;
pub use presets::{Experiment, Scale, WorkloadSpec};
pub use result::RunResult;
pub use variant::{Variant, VariantVisitor};
pub use workload::{MixWorkload, Workload};
pub use zipfian::ZipfianMixConfig;
