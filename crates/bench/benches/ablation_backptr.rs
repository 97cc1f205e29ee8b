//! Ablation A3: the conditional repair-on-traverse of backward pointers.
//!
//! Listing 3 repairs a stale `prev` during forward traversal, guarded by
//! a relaxed-load comparison ("since updates with atomic stores are
//! expensive due to cache coherence activity, we only update a pointer
//! if a test shows that a pointer is not correct"). This bench runs
//! variant f) with and without that repair on a churn-heavy random mix,
//! where un-repaired backward pointers degrade and backward walks
//! lengthen.

use bench_harness::config::{OpMix, RandomMixConfig};
use bench_harness::Workload;
use criterion::{criterion_group, criterion_main, Criterion};
use pragmatic_list::variants::{DoublyCursorList, DoublyCursorNoRepairList};

fn bench(c: &mut Criterion) {
    let cfg = RandomMixConfig {
        threads: 4,
        ops_per_thread: 10_000,
        prefill: 1_024,
        key_range: 2_048,
        mix: OpMix::UPDATE_HEAVY,
        seed: 0x5eed_cafe,
    };
    let mut g = c.benchmark_group("ablation_a3_backptr_repair");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(cfg.total_ops()));
    g.bench_function("doubly_cursor_repair_on", |b| {
        b.iter(|| std::hint::black_box(cfg.run::<DoublyCursorList<i64>>()))
    });
    g.bench_function("doubly_cursor_repair_off", |b| {
        b.iter(|| std::hint::black_box(cfg.run::<DoublyCursorNoRepairList<i64>>()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
