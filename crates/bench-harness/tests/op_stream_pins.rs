//! Op-stream pins: at `threads: 1` every mixed-op driver is fully
//! deterministic, so the exact counters of one fixed config pin the
//! whole op stream — per-thread seeds, the order of the op and key
//! draws, the prefill and the key placement. A change to the drivers
//! must leave every value here unchanged; the values were recorded from
//! the drivers before they were folded into one.

use bench_harness::{
    BatchMixConfig, OpMix, OpStats, Phase, PhasedConfig, RandomMixConfig, Variant, ZipfianMixConfig,
};

fn counters(adds: u64, rems: u64, cons: u64, trav: u64) -> OpStats {
    OpStats {
        adds,
        rems,
        cons,
        trav,
        fail: 0,
        rtry: 0,
    }
}

fn uniform() -> RandomMixConfig {
    RandomMixConfig {
        threads: 1,
        ops_per_thread: 20_000,
        prefill: 500,
        key_range: 2_000,
        mix: OpMix::UPDATE_HEAVY,
        seed: 7,
    }
}

fn zipf(scramble: bool) -> ZipfianMixConfig {
    ZipfianMixConfig {
        threads: 1,
        ops_per_thread: 20_000,
        prefill: 500,
        key_range: 5_000,
        mix: OpMix::READ_HEAVY,
        seed: 11,
        theta: 0.99,
        scramble,
    }
}

fn three_phases() -> PhasedConfig {
    let phase = |ops_per_thread, mix, theta, hotspot, scramble| Phase {
        ops_per_thread,
        mix,
        theta,
        hotspot,
        scramble,
    };
    PhasedConfig {
        threads: 1,
        prefill: 400,
        key_range: 4_000,
        seed: 13,
        phases: vec![
            phase(6_000, OpMix::READ_HEAVY, 0.9, 0.0, false),
            phase(4_000, OpMix::UPDATE_HEAVY, 0.5, 0.45, false),
            phase(5_000, OpMix::READ_HEAVY, 0.99, 0.8, true),
        ],
    }
}

fn batched() -> BatchMixConfig {
    BatchMixConfig {
        threads: 1,
        batches_per_thread: 1_500,
        batch_width: 8,
        prefill: 300,
        key_range: 3_000,
        mix: OpMix::UPDATE_HEAVY,
        seed: 17,
    }
}

// The sampled twins are reached through these adapters only, so the
// assertions below do not depend on how a sampled run is spelled.

fn sampled_uniform(cfg: RandomMixConfig, sample_every: u64) -> u64 {
    Variant::SinglyCursor
        .run(&bench_harness::Sampled { cfg, sample_every })
        .count()
}

fn sampled_zipf(cfg: ZipfianMixConfig, sample_every: u64) -> u64 {
    Variant::SinglyCursor
        .run(&bench_harness::Sampled { cfg, sample_every })
        .count()
}

/// Per-phase sample counts, then the aggregate.
fn sampled_phased(cfg: PhasedConfig, sample_every: u64) -> (Vec<u64>, u64) {
    let lat = Variant::SinglyCursor.run(&bench_harness::Sampled { cfg, sample_every });
    (
        lat.phases.iter().map(|h| h.count()).collect(),
        lat.total.count(),
    )
}

#[test]
fn uniform_mix_stream_is_pinned() {
    let r = Variant::SinglyCursor.run(&uniform());
    assert_eq!(r.total_ops, 20_000);
    assert_eq!(r.stats, counters(2_813, 2_310, 3_087_903, 3_075_300));
}

#[test]
fn clustered_zipf_stream_is_pinned() {
    let r = Variant::SinglyCursor.run(&zipf(false));
    assert_eq!(r.total_ops, 20_000);
    assert_eq!(r.stats, counters(1_070, 858, 2_041_685, 498_392));
}

#[test]
fn scrambled_zipf_stream_is_pinned() {
    let r = Variant::SinglyCursor.run(&zipf(true));
    assert_eq!(r.total_ops, 20_000);
    assert_eq!(r.stats, counters(1_070, 858, 3_093_127, 766_628));
}

#[test]
fn three_phase_stream_is_pinned() {
    let r = Variant::SinglyCursor.run(&three_phases());
    let per_phase: Vec<OpStats> = r.phases.iter().map(|p| p.stats).collect();
    assert_eq!(
        per_phase,
        [
            counters(328, 262, 612_433, 154_193),
            counters(820, 205, 620_449, 629_823),
            counters(385, 151, 1_750_057, 446_603),
        ]
    );
    assert_eq!(r.total.stats, per_phase.into_iter().sum());
    assert_eq!(r.total.total_ops, 15_000);
}

#[test]
fn batch_stream_is_pinned() {
    let r = Variant::SinglyCursor.run(&batched());
    assert_eq!(r.total_ops, 12_000);
    assert_eq!(r.stats, counters(2_184, 1_020, 2_019_422, 725_422));
}

#[test]
fn sampled_twins_take_one_probe_every_period() {
    // ceil(ops / period) probes per thread and phase.
    assert_eq!(sampled_uniform(uniform(), 7), 2_858);
    assert_eq!(sampled_zipf(zipf(false), 7), 2_858);
    assert_eq!(sampled_zipf(zipf(true), 16), 1_250);
    assert_eq!(
        sampled_phased(three_phases(), 16),
        (vec![375, 250, 313], 938)
    );
}
