//! Extension bench: the paper's §4 proposal applied — mild retry
//! improvements inside a lock-free *skiplist*, per level, versus the
//! textbook skiplist that restarts the whole multi-level search on any
//! failed unlink CAS. Also puts the flat doubly-cursor list next to the
//! skiplist to show where the crossover lies: the list wins on locality
//! (cursor), the skiplist on uniform random access (log n).

use bench_harness::config::{OpMix, RandomMixConfig};
use bench_harness::Workload;
use criterion::{criterion_group, criterion_main, Criterion};
use lockfree_skiplist::{DraconicSkipList, SkipListSet};
use pragmatic_list::variants::DoublyCursorList;

fn bench(c: &mut Criterion) {
    let cfg = RandomMixConfig {
        threads: 4,
        ops_per_thread: 10_000,
        prefill: 4_096,
        key_range: 8_192,
        mix: OpMix::UPDATE_HEAVY,
        seed: 0x5eed_cafe,
    };
    let mut g = c.benchmark_group("extension_skiplist_mild");
    g.sample_size(10);
    g.throughput(criterion::Throughput::Elements(cfg.total_ops()));
    g.bench_function("skiplist_draconic", |b| {
        b.iter(|| std::hint::black_box(cfg.run::<DraconicSkipList<i64>>()))
    });
    g.bench_function("skiplist_mild", |b| {
        b.iter(|| std::hint::black_box(cfg.run::<SkipListSet<i64>>()))
    });
    g.bench_function("doubly_cursor_list", |b| {
        b.iter(|| std::hint::black_box(cfg.run::<DoublyCursorList<i64>>()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
