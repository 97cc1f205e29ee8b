//! Ablation A6: elastic resharding under a drifting hotspot.
//!
//! The static shard sweep (A4) showed clustered skew re-serializing the
//! hot keys on one shard; this sweep adds the time axis — the hotspot
//! *moves* — and measures what load-aware resharding buys over every
//! fixed partition:
//!
//! * **static baselines** — the flat singly-cursor list and its 8/32-way
//!   fixed partitions on the same phased drift;
//! * **elastic, default policy** — starts at the static small
//!   configuration (8 shards) and re-splits around the hotspot as it
//!   marches;
//! * **policy levers** — an eager monitor (short windows, low split
//!   share), a capped table (`max_shards = 16`), and a merge-happy
//!   configuration, isolating how reaction speed, table size and
//!   reclamation of cold shards shape the win.
//!
//! Set `ABLATION_SMOKE=1` to shrink the workloads for CI smoke runs.

use bench_harness::phased::{Phase, PhasedConfig};
use bench_harness::{MixWorkload, OpMix, Workload};
use criterion::{criterion_group, criterion_main, Criterion};
use pragmatic_list::elastic::{ElasticSet, LoadPolicy};
use pragmatic_list::sharded::ShardedSet;
use pragmatic_list::variants::SinglyCursorList;

type List = SinglyCursorList<i64>;
type Elastic = ElasticSet<i64, List>;

fn ops(default: u64) -> u64 {
    if std::env::var_os("ABLATION_SMOKE").is_some() {
        (default / 20).max(200)
    } else {
        default
    }
}

fn drift(threads: usize, c: u64) -> PhasedConfig {
    let ph = |hotspot: f64, theta: f64, mix: OpMix| Phase {
        ops_per_thread: c,
        mix,
        theta,
        hotspot,
        scramble: false,
    };
    PhasedConfig {
        threads,
        prefill: 4_000,
        key_range: 10_000,
        seed: 0x5eed_cafe,
        phases: vec![
            ph(0.00, 0.9, OpMix::READ_HEAVY),
            ph(0.20, 0.9, OpMix::READ_HEAVY),
            ph(0.40, 0.9, OpMix::UPDATE_HEAVY),
            ph(0.60, 0.9, OpMix::READ_HEAVY),
            ph(0.80, 0.9, OpMix::READ_HEAVY),
        ],
    }
}

fn bench(c: &mut Criterion) {
    let cfg = drift(4, ops(8_000));
    let mut g = c.benchmark_group("ablation_a6_elastic_drift");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(cfg.total_ops()));
    g.bench_function("static_n1", |b| {
        b.iter(|| std::hint::black_box(cfg.run::<List>().total))
    });
    g.bench_function("static_n8", |b| {
        b.iter(|| std::hint::black_box(cfg.run::<ShardedSet<i64, List, 8>>().total))
    });
    g.bench_function("static_n32", |b| {
        b.iter(|| std::hint::black_box(cfg.run::<ShardedSet<i64, List, 32>>().total))
    });
    g.bench_function("elastic_default", |b| {
        b.iter(|| std::hint::black_box(cfg.run::<Elastic>().total))
    });
    g.bench_function("elastic_eager", |b| {
        b.iter(|| {
            let set = Elastic::with_policy(LoadPolicy {
                check_period: 128,
                window_min_ops: 512,
                split_share_pct: 15,
                ..LoadPolicy::default()
            });
            std::hint::black_box(cfg.run_prebuilt(&set).total)
        })
    });
    g.bench_function("elastic_capped16", |b| {
        b.iter(|| {
            let set = Elastic::with_policy(LoadPolicy {
                max_shards: 16,
                ..LoadPolicy::default()
            });
            std::hint::black_box(cfg.run_prebuilt(&set).total)
        })
    });
    g.bench_function("elastic_merge_happy", |b| {
        b.iter(|| {
            let set = Elastic::with_policy(LoadPolicy {
                merge_share_pct: 6,
                ..LoadPolicy::default()
            });
            std::hint::black_box(cfg.run_prebuilt(&set).total)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
