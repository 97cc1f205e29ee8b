//! End-to-end harness tests: run miniature versions of the paper's
//! experiments through the same code paths the `repro` binary uses and
//! assert the *shape* of the results — who wins, and by what order of
//! magnitude — plus internal consistency of the reporting pipeline.

use bench_harness::config::{DeterministicConfig, KeyPattern, OpMix, RandomMixConfig};
use bench_harness::presets::{Experiment, Scale, WorkloadSpec};
use bench_harness::{report, scalability, Variant};

#[test]
fn mini_table1_shape_doubly_cursor_dominates() {
    // The headline of Tables 1/4/7: variant f) is orders of magnitude
    // better than a) on the same-keys deterministic benchmark. Work
    // (traversals) is hardware-independent, so assert on it rather than
    // on oversubscribed wall time.
    let cfg = DeterministicConfig {
        threads: 4,
        n: 800,
        pattern: KeyPattern::SameKeys,
    };
    let a = Variant::Draconic.run(&cfg);
    let f = Variant::DoublyCursor.run(&cfg);
    let work_a = a.stats.total_traversals();
    let work_f = f.stats.total_traversals();
    assert!(
        work_f * 50 < work_a,
        "doubly-cursor should do ≫50x less list work: {work_f} vs {work_a}"
    );
}

#[test]
fn mini_table2_shape_cursor_variants_beat_plain() {
    let cfg = DeterministicConfig {
        threads: 4,
        n: 500,
        pattern: KeyPattern::DisjointKeys,
    };
    let a = Variant::Draconic.run(&cfg);
    let b = Variant::Singly.run(&cfg);
    let d = Variant::SinglyCursor.run(&cfg);
    let f = Variant::DoublyCursor.run(&cfg);
    // Table 2 ordering on total list work: f << d < b <= a (roughly).
    assert!(f.stats.total_traversals() * 100 < a.stats.total_traversals());
    assert!(d.stats.total_traversals() < b.stats.total_traversals());
    // b) reduces trav relative to a) by skipping con()-redundant
    // re-walks? No — with disjoint keys a and b do identical work:
    assert_eq!(a.stats.adds, b.stats.adds);
}

#[test]
fn mini_table3_random_mix_runs_all_variants() {
    let cfg = RandomMixConfig {
        threads: 4,
        ops_per_thread: 3_000,
        prefill: 500,
        key_range: 5_000,
        mix: OpMix::READ_HEAVY,
        seed: 7,
    };
    let mut rows = Vec::new();
    for v in Variant::PAPER {
        let r = v.run(&cfg);
        assert_eq!(r.total_ops, cfg.total_ops());
        assert!(r.kops_per_sec() > 0.0);
        rows.push(r);
    }
    // Cursor variants traverse less than head-start variants under the
    // random mix too (the ~1.5x of Tables 3/6/9, here asserted loosely).
    let trav = |name: &str| {
        rows.iter()
            .find(|r| r.variant == name)
            .unwrap()
            .stats
            .total_traversals()
    };
    assert!(trav("singly_cursor") < trav("draconic"));
    assert!(trav("doubly_cursor") < trav("draconic"));
    // Reporting pipeline sanity.
    let table = report::format_table("mini table 3", &rows);
    assert!(table.contains("a) draconic") && table.contains("f) doubly-cursor"));
    let csv = report::results_csv(&rows);
    assert_eq!(csv.trim().lines().count(), rows.len() + 1);
}

#[test]
fn sweep_weak_scaling_points_are_complete_and_positive() {
    let base = RandomMixConfig {
        threads: 1,
        ops_per_thread: 1_000,
        prefill: 128,
        key_range: 256,
        mix: OpMix::UPDATE_HEAVY,
        seed: 11,
    };
    let points = scalability::sweep(
        &base,
        &[
            Variant::Draconic,
            Variant::SinglyCursor,
            Variant::DoublyCursor,
        ],
        &[1, 2, 4],
        2,
        |_| {},
    );
    assert_eq!(points.len(), 9);
    for p in &points {
        assert!(p.mean_kops.is_finite() && p.mean_kops > 0.0, "{p:?}");
    }
    let csv = report::scale_csv(&points);
    assert_eq!(csv.trim().lines().count(), 10);
    let ascii = report::scale_ascii(&points);
    assert!(ascii.contains("singly_cursor"));
}

#[test]
fn presets_resolve_and_container_scale_runs() {
    // Smoke-run the smallest preset end to end (threads clamped down).
    let e = Experiment::get("table2", Scale::Container).unwrap();
    match e.workload {
        WorkloadSpec::Deterministic(mut cfg) => {
            cfg.threads = 2;
            cfg.n = 200;
            for v in e.variants {
                let r = v.run(&cfg);
                assert_eq!(r.stats.adds, cfg.n * 2, "{v}: disjoint adds exact");
            }
        }
        _ => panic!("table2 is deterministic"),
    }
}

#[test]
fn private_baseline_is_faster_than_lockfree_on_disjoint_keys() {
    // §3: the thread-private sequential list bounds the lock-free
    // list's overhead from below. Compare per-op traversals — the
    // sequential doubly list with cursor must not do *more* work than
    // the concurrent doubly-cursor list on the same schedule.
    let cfg = DeterministicConfig {
        threads: 2,
        n: 500,
        pattern: KeyPattern::DisjointKeys,
    };
    let seq = bench_harness::private::run_private_doubly(&cfg);
    let conc = Variant::DoublyCursor.run(&cfg);
    // The concurrent list holds keys of *all* threads (p× longer), so
    // only a loose factor holds; the real content of this test is that
    // both pipelines run and produce consistent op totals.
    assert_eq!(seq.total_ops, conc.total_ops);
    assert!(seq.stats.adds > 0 && conc.stats.adds > 0);
}

#[test]
fn deterministic_benchmark_is_reproducible_single_threaded() {
    let cfg = DeterministicConfig {
        threads: 1,
        n: 300,
        pattern: KeyPattern::SameKeys,
    };
    for v in Variant::PAPER {
        let a = v.run(&cfg);
        let b = v.run(&cfg);
        assert_eq!(
            a.stats, b.stats,
            "{v}: single-threaded runs must be deterministic"
        );
    }
}

#[test]
fn variant_parse_covers_cli_surface() {
    for (s, v) in [
        ("a", Variant::Draconic),
        ("b", Variant::Singly),
        ("c", Variant::Doubly),
        ("d", Variant::SinglyCursor),
        ("e", Variant::SinglyFetchOr),
        ("f", Variant::DoublyCursor),
        ("epoch", Variant::Epoch),
        ("skiplist", Variant::Skiplist),
        ("sharded-singly", Variant::ShardedSingly),
        ("sharded_skiplist32", Variant::ShardedSkiplist32),
        ("sharded_singly_epoch", Variant::ShardedSinglyEpoch),
        ("elastic_singly", Variant::Elastic),
        ("elastic-skiplist", Variant::ElasticSkiplist),
    ] {
        assert_eq!(Variant::parse(s), Some(v));
    }
}

#[test]
fn bench_json_schema_round_trips_through_the_emitter() {
    // The CI perf-smoke job validates emitted BENCH_*.json against this
    // same check; here the emitter and validator are exercised over a
    // real experiment run end to end.
    let cfg = bench_harness::BatchMixConfig {
        threads: 2,
        batches_per_thread: 50,
        batch_width: 16,
        prefill: 200,
        key_range: 2_000,
        mix: OpMix::UPDATE_HEAVY,
        seed: 3,
    };
    let rows: Vec<report::BenchJsonRow> = [Variant::SinglyCursor, Variant::SinglyHinted]
        .into_iter()
        .map(|v| report::BenchJsonRow::plain(v.run(&cfg)))
        .collect();
    let doc = report::bench_json("batch", &rows);
    assert_eq!(
        report::validate_bench_json(&doc).expect("emitted document validates"),
        2
    );
    for key in report::BENCH_JSON_ROW_KEYS {
        assert!(doc.contains(&format!("\"{key}\"")), "missing {key}");
    }
    assert!(doc.contains("\"variant\": \"singly_hint\""));
}

#[test]
fn mini_batch_shape_wide_batches_do_less_list_work() {
    // The batch experiment's headline: same key count, wider batches,
    // less traversal work through the sorted single-traversal path.
    let narrow = bench_harness::BatchMixConfig {
        threads: 2,
        batches_per_thread: 3_200,
        batch_width: 1,
        prefill: 500,
        key_range: 5_000,
        mix: OpMix::UPDATE_HEAVY,
        seed: 9,
    };
    let wide = bench_harness::BatchMixConfig {
        batches_per_thread: 100,
        batch_width: 32,
        ..narrow
    };
    let a = Variant::SinglyCursor.run(&narrow);
    let b = Variant::SinglyCursor.run(&wide);
    assert_eq!(a.total_ops, b.total_ops);
    assert!(
        b.stats.trav * 2 < a.stats.trav,
        "width 32 should cut traversals well below half: {} vs {}",
        b.stats.trav,
        a.stats.trav
    );
}

#[test]
fn mini_hint_shape_hints_cut_uniform_traversals() {
    // The hinted variant's headline: on the uniform mix (long walks),
    // eight hints act as fingers into the list.
    let cfg = bench_harness::ZipfianMixConfig {
        threads: 2,
        ops_per_thread: 5_000,
        prefill: 1_000,
        key_range: 10_000,
        mix: bench_harness::OpMix::READ_HEAVY,
        seed: 11,
        theta: 0.0,
        scramble: false,
    };
    let plain = Variant::SinglyCursor.run(&cfg);
    let hinted = Variant::SinglyHinted.run(&cfg);
    assert_eq!(plain.total_ops, hinted.total_ops);
    assert!(
        hinted.stats.total_traversals() * 2 < plain.stats.total_traversals(),
        "hints should cut uniform-mix list work below half: {} vs {}",
        hinted.stats.total_traversals(),
        plain.stats.total_traversals()
    );
}

fn mini_drift() -> bench_harness::PhasedConfig {
    use bench_harness::{OpMix, Phase, PhasedConfig};
    let phase = |hotspot: f64, mix: OpMix| Phase {
        ops_per_thread: 4_000,
        mix,
        theta: 0.9,
        hotspot,
        scramble: false,
    };
    PhasedConfig {
        threads: 2,
        prefill: 2_000,
        key_range: 8_000,
        seed: 11,
        phases: vec![
            phase(0.0, OpMix::READ_HEAVY),
            phase(0.2, OpMix::READ_HEAVY),
            phase(0.4, OpMix::UPDATE_HEAVY),
            phase(0.6, OpMix::READ_HEAVY),
            phase(0.8, OpMix::READ_HEAVY),
        ],
    }
}

#[test]
fn mini_drift_shape_elastic_cuts_list_work_under_a_moving_hotspot() {
    // The elastic headline: when the hotspot drifts, a static 8-way
    // partition serves most phases from one hot shard while the elastic
    // set re-splits around the hotspot — visibly less traversal work
    // per operation. Work counters are hardware-independent, so assert
    // on them rather than on wall time.
    use bench_harness::MixWorkload;
    use pragmatic_list::elastic::{ElasticSet, LoadPolicy};
    use pragmatic_list::sharded::ShardedSet;
    use pragmatic_list::variants::SinglyCursorList;
    use pragmatic_list::ConcurrentOrderedSet;
    let cfg = mini_drift();
    let elastic = ElasticSet::<i64, SinglyCursorList<i64>>::with_policy(LoadPolicy {
        check_period: 512,
        window_min_ops: 2_048,
        ..LoadPolicy::default()
    });
    let statik = ShardedSet::<i64, SinglyCursorList<i64>, 8>::new();
    let e = cfg.run_prebuilt(&elastic);
    let s = cfg.run_prebuilt(&statik);
    assert_eq!(e.total.total_ops, s.total.total_ops);
    assert!(elastic.splits() > 0, "drift must trigger migrations");
    let work_e = e.total.stats.total_traversals();
    let work_s = s.total.stats.total_traversals();
    // The committed BENCH_drift.json shows ~2.8× at full container
    // scale; at this miniature scale the adaptation has less time to
    // amortize, so pin the acceptance floor (1.5×) rather than the
    // steady-state ratio.
    assert!(
        work_e * 3 < work_s * 2,
        "elastic should cut drift list work by ≥1.5×: {work_e} vs {work_s}"
    );
}

#[test]
fn drift_emits_valid_bench_json() {
    // The CI drift smoke job writes BENCH_drift.json through the same
    // emitter; validate the row shape end to end on a miniature run.
    let cfg = bench_harness::PhasedConfig {
        phases: mini_drift().phases.into_iter().take(2).collect(),
        ..mini_drift()
    };
    let rows: Vec<report::BenchJsonRow> = [Variant::Elastic, Variant::ShardedSingly]
        .into_iter()
        .map(|v| report::BenchJsonRow::plain(v.run(&cfg).total))
        .collect();
    let doc = report::bench_json("drift", &rows);
    assert_eq!(report::validate_bench_json(&doc).unwrap(), 2);
    assert!(doc.contains(r#""variant": "elastic_singly""#));
    assert!(doc.contains(r#""experiment": "drift""#));
}

#[test]
fn mini_zipf_shape_sharding_cuts_list_work() {
    // The sharding headline: under the Zipfian mix, 8-way partitioning
    // divides the per-operation traversal work by roughly the shard
    // count (each shard holds ~1/8 of the live keys). Work counters are
    // hardware-independent, so assert on them rather than wall time.
    let cfg = bench_harness::ZipfianMixConfig {
        threads: 2,
        ops_per_thread: 5_000,
        prefill: 1_000,
        key_range: 10_000,
        mix: bench_harness::OpMix::READ_HEAVY,
        seed: 11,
        theta: 0.99,
        scramble: false,
    };
    let flat = Variant::SinglyCursor.run(&cfg);
    let sharded = Variant::ShardedSingly.run(&cfg);
    assert_eq!(flat.total_ops, sharded.total_ops);
    let work_flat = flat.stats.total_traversals();
    let work_sharded = sharded.stats.total_traversals();
    assert!(
        work_sharded * 2 < work_flat,
        "sharding should cut list work well below half: {work_sharded} vs {work_flat}"
    );
}

#[test]
fn zipfian_mix_is_reproducible_and_skewed() {
    let cfg = bench_harness::ZipfianMixConfig {
        threads: 1,
        ops_per_thread: 4_000,
        prefill: 500,
        key_range: 5_000,
        mix: bench_harness::OpMix::READ_HEAVY,
        seed: 5,
        theta: 0.9,
        scramble: false,
    };
    // (The skiplist variants are excluded here: their tower-height RNG
    // is seeded per handle from a process-wide counter, so their
    // traversal counters are not bit-reproducible across runs.)
    let a = Variant::ShardedSingly.run(&cfg);
    let b = Variant::ShardedSingly.run(&cfg);
    assert_eq!(a.stats, b.stats, "single-threaded zipf runs deterministic");
    // Same seed, uniform instead: the op stream differs.
    let uniform = bench_harness::ZipfianMixConfig { theta: 0.0, ..cfg };
    let u = Variant::ShardedSingly.run(&uniform);
    assert_ne!(a.stats, u.stats, "θ changes the key stream");
}
