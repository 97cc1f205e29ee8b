//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! Usage:
//!   repro list
//!   repro <experiment>... [options]
//!   repro all [options]
//!
//! Experiments: table1..table9, figure1..figure3, zipf, skew, batch,
//! drift, unrolled (see `repro list`).
//!
//! Options:
//!   --paper-scale         use the published parameters (large machines!)
//!   --threads N           override the worker thread count
//!   --n N                 override deterministic sequence length
//!   --ops N               override random-mix ops per thread
//!   --prefill N           override random-mix prefill
//!   --range N             override random-mix key range
//!   --repeats N           override sweep repeats
//!   --theta X             override the Zipfian skew (0 ≤ θ < 1)
//!   --batch-width N       override the batch experiment's keys per batch
//!   --scramble            spread the Zipfian hot set across the keyspace
//!                         (default: clustered, one bottleneck shard)
//!   --variants a,b,f      restrict the variant set (names, letters, or
//!                         groups: all/paper/sparc/figures/reclaim/sharded)
//!   --list-variants       print every variant key, paper label and
//!                         group membership, then exit
//!   --private             also run the thread-private sequential baseline
//!   --csv PATH            append machine-readable results to PATH
//!
//! Every experiment also writes `BENCH_<experiment>.json` (schema
//! `bench-rows/v1`) next to the CSV — or into the working directory —
//! so the performance trajectory is machine-tracked run over run.
//! ```

use std::process::ExitCode;

use bench_harness::latency::LatencyHistogram;
use bench_harness::presets::{Experiment, Scale, WorkloadSpec};
use bench_harness::report::{self, BenchJsonRow};
use bench_harness::{scalability, Sampled, Variant, Workload};

struct Options {
    scale: Scale,
    threads: Option<usize>,
    n: Option<u64>,
    ops: Option<u64>,
    prefill: Option<u64>,
    range: Option<u32>,
    repeats: Option<usize>,
    theta: Option<f64>,
    scramble: bool,
    batch_width: Option<usize>,
    variants: Option<Vec<Variant>>,
    private_baseline: bool,
    csv: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            scale: Scale::Container,
            threads: None,
            n: None,
            ops: None,
            prefill: None,
            range: None,
            repeats: None,
            theta: None,
            scramble: false,
            batch_width: None,
            variants: None,
            private_baseline: false,
            csv: None,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_usage();
        return ExitCode::SUCCESS;
    }
    if args[0] == "latency" {
        return run_latency(&args[1..]);
    }
    if args[0] == "list" {
        println!("Available experiments (container scale by default; --paper-scale for the published parameters):");
        for id in Experiment::IDS {
            let e = Experiment::get(id, Scale::Paper).unwrap();
            println!("  {:<9} {}", id, e.description);
        }
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list-variants") {
        println!("{:<24} {:<26} groups", "variant (CLI key)", "paper label");
        for v in Variant::ALL {
            println!(
                "{:<24} {:<26} {}",
                v.name(),
                v.paper_label(),
                v.groups().join(",")
            );
        }
        return ExitCode::SUCCESS;
    }

    let mut ids: Vec<String> = Vec::new();
    let mut opt = Options::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper-scale" => opt.scale = Scale::Paper,
            "--private" => opt.private_baseline = true,
            "--threads" => opt.threads = parse_next(&mut it, "--threads"),
            "--n" => opt.n = parse_next(&mut it, "--n"),
            "--ops" => opt.ops = parse_next(&mut it, "--ops"),
            "--prefill" => opt.prefill = parse_next(&mut it, "--prefill"),
            "--range" => opt.range = parse_next(&mut it, "--range"),
            "--repeats" => opt.repeats = parse_next(&mut it, "--repeats"),
            "--theta" => {
                let theta: f64 = match parse_next(&mut it, "--theta") {
                    Some(t) => t,
                    None => return ExitCode::FAILURE,
                };
                if !(0.0..1.0).contains(&theta) {
                    eprintln!("--theta must be in [0, 1), got {theta}");
                    return ExitCode::FAILURE;
                }
                opt.theta = Some(theta);
            }
            "--scramble" => opt.scramble = true,
            "--batch-width" => opt.batch_width = parse_next(&mut it, "--batch-width"),
            "--csv" => opt.csv = it.next(),
            "--variants" => {
                let Some(list) = it.next() else {
                    eprintln!("--variants needs a comma-separated list");
                    return ExitCode::FAILURE;
                };
                let mut vs: Vec<Variant> = Vec::new();
                for part in list.split(',') {
                    match Variant::parse_group(part) {
                        // Order-preserving dedup: overlapping tokens
                        // (e.g. `paper,doubly_cursor`) must not run a
                        // variant twice.
                        Some(group) => {
                            for v in group {
                                if !vs.contains(&v) {
                                    vs.push(v);
                                }
                            }
                        }
                        None => {
                            eprintln!("unknown variant or group: {part}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                opt.variants = Some(vs);
            }
            other if other.starts_with("--") => {
                eprintln!("unknown option {other}");
                return ExitCode::FAILURE;
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.iter().any(|i| i == "all") {
        ids = Experiment::IDS.iter().map(|s| s.to_string()).collect();
    }
    if ids.is_empty() {
        print_usage();
        return ExitCode::FAILURE;
    }

    for id in &ids {
        let Some(exp) = Experiment::get(id, opt.scale) else {
            eprintln!("unknown experiment {id} (try `repro list`)");
            return ExitCode::FAILURE;
        };
        run_experiment(exp, &opt);
    }
    ExitCode::SUCCESS
}

/// `repro latency [--zipf] [--threads N] [--ops N] [--paper-scale]` —
/// per-op latency percentiles on the Table-3 mix. Not a paper
/// experiment: the paper reports throughput only, but §1's remark that
/// the structure is not starvation-free makes the tail the interesting
/// part. With `--zipf` the key stream is Zipfian (θ=0.99, clustered)
/// over the unrolled comparison set (flat hinted baseline, skiplist,
/// and the fat-node variants) — the workload where in-node binary
/// search should collapse the hot prefix walk — and the JSON id is
/// `zipf_lat`.
fn run_latency(rest: &[String]) -> ExitCode {
    use bench_harness::config::{OpMix, RandomMixConfig};
    use bench_harness::ZipfianMixConfig;
    let mut threads = 4usize;
    let mut ops = 20_000u64;
    let mut zipf = false;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => threads = it.next().and_then(|v| v.parse().ok()).unwrap_or(threads),
            "--ops" => ops = it.next().and_then(|v| v.parse().ok()).unwrap_or(ops),
            "--zipf" => zipf = true,
            "--paper-scale" => {
                threads = 64;
                ops = 1_000_000;
            }
            other => {
                eprintln!("unknown latency option {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let cfg = RandomMixConfig {
        threads,
        ops_per_thread: ops,
        prefill: 1_000,
        key_range: 10_000,
        mix: OpMix::READ_HEAVY,
        seed: 0x5eed_cafe,
    };
    if zipf {
        let cfg = ZipfianMixConfig {
            threads,
            ops_per_thread: ops,
            prefill: cfg.prefill,
            key_range: cfg.key_range,
            mix: cfg.mix,
            seed: cfg.seed,
            theta: 0.99,
            scramble: false,
        };
        let workload = Sampled {
            cfg,
            sample_every: 16,
        };
        let title = "Zipfian θ=0.99 clustered, ";
        let rows = latency_rows(
            title,
            &Variant::UNROLLED,
            &workload,
            (threads, ops),
            Some(cfg.theta),
        );
        write_bench_json(&Options::default(), "zipf_lat", &rows);
    } else {
        let workload = Sampled {
            cfg,
            sample_every: 16,
        };
        let variants: Vec<Variant> = Variant::PAPER.into_iter().chain([Variant::Epoch]).collect();
        let rows = latency_rows("", &variants, &workload, (threads, ops), None);
        write_bench_json(&Options::default(), "latency", &rows);
    }
    ExitCode::SUCCESS
}

/// Prints one percentile line per variant for a sampled uniform or
/// Zipfian mix of `threads` × `ops` operations and returns its JSON rows
/// (at skew `theta`, if given).
fn latency_rows<C>(
    title: &str,
    variants: &[Variant],
    workload: &Sampled<C>,
    (threads, ops): (usize, u64),
    theta: Option<f64>,
) -> Vec<BenchJsonRow>
where
    Sampled<C>: Workload<Output = LatencyHistogram>,
{
    println!(
        "per-operation latency (ns, log2-bucket upper bounds), {title}mix 10/10/80, p={threads}, c={ops}, every {}th op sampled",
        workload.sample_every
    );
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "Variant", "p50", "p90", "p99", "p99.9", "max"
    );
    variants
        .iter()
        .map(|v| {
            let (p50, p90, p99, p999, max) = v.run(workload).summary();
            println!(
                "{:<26} {:>10} {:>10} {:>10} {:>10} {:>12}",
                v.paper_label(),
                p50,
                p90,
                p99,
                p999,
                max
            );
            // Latency runs measure percentiles, not throughput: report the
            // real executed op count and a zero wall so time_ms/ops_per_sec
            // emit as 0.0 — the "not measured" marker — instead of numbers a
            // trajectory consumer could mistake for throughput.
            BenchJsonRow {
                theta,
                p50_ns: Some(p50),
                p99_ns: Some(p99),
                ..BenchJsonRow::plain(bench_harness::RunResult {
                    variant: v.name().to_string(),
                    wall: std::time::Duration::ZERO,
                    total_ops: threads as u64 * ops,
                    stats: bench_harness::OpStats::ZERO,
                    threads,
                })
            }
        })
        .collect()
}

fn parse_next<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Option<T> {
    match it.next().and_then(|v| v.parse().ok()) {
        Some(v) => Some(v),
        None => {
            eprintln!("{flag} needs a numeric argument");
            std::process::exit(2);
        }
    }
}

fn run_experiment(exp: Experiment, opt: &Options) {
    let variants = opt.variants.clone().unwrap_or_else(|| exp.variants.clone());
    println!("== {} — {}", exp.id, exp.description);
    let mut json_rows: Vec<BenchJsonRow> = Vec::new();
    match exp.workload {
        WorkloadSpec::Deterministic(mut cfg) => {
            if let Some(t) = opt.threads {
                cfg.threads = t;
            }
            if let Some(n) = opt.n {
                cfg.n = n;
            }
            println!(
                "   p={} n={} pattern={:?} ({} total ops per variant)",
                cfg.threads,
                cfg.n,
                cfg.pattern,
                cfg.total_ops()
            );
            let mut rows = Vec::new();
            for v in variants {
                let r = v.run(&cfg);
                println!(
                    "   {:<26} {:>10.1} ms  {:>12.1} Kops/s",
                    v.paper_label(),
                    r.time_ms(),
                    r.kops_per_sec()
                );
                rows.push(r);
            }
            json_rows.extend(rows.iter().cloned().map(BenchJsonRow::plain));
            println!("\n{}", report::format_table(exp.id, &rows));
            if opt.private_baseline {
                let s = bench_harness::private::run_private_singly(&cfg);
                let d = bench_harness::private::run_private_doubly(&cfg);
                println!(
                    "   thread-private baseline: seq_singly {:.1} Kops/s, seq_doubly {:.1} Kops/s\n",
                    s.kops_per_sec(),
                    d.kops_per_sec()
                );
            }
            append_csv(opt, &report::results_csv(&rows));
        }
        WorkloadSpec::RandomMix(mut cfg) => {
            if let Some(t) = opt.threads {
                cfg.threads = t;
            }
            if let Some(c) = opt.ops {
                cfg.ops_per_thread = c;
            }
            if let Some(f) = opt.prefill {
                cfg.prefill = f;
            }
            if let Some(u) = opt.range {
                cfg.key_range = u;
            }
            println!(
                "   p={} c={} f={} U={} mix={}/{}/{}",
                cfg.threads,
                cfg.ops_per_thread,
                cfg.prefill,
                cfg.key_range,
                cfg.mix.add,
                cfg.mix.remove,
                cfg.mix.contains
            );
            let mut rows = Vec::new();
            for v in variants {
                let r = v.run(&cfg);
                println!(
                    "   {:<26} {:>10.1} ms  {:>12.1} Kops/s",
                    v.paper_label(),
                    r.time_ms(),
                    r.kops_per_sec()
                );
                rows.push(r);
            }
            json_rows.extend(rows.iter().cloned().map(BenchJsonRow::plain));
            println!("\n{}", report::format_table(exp.id, &rows));
            append_csv(opt, &report::results_csv(&rows));
        }
        WorkloadSpec::ZipfianMix(mut cfg) => {
            apply_zipf_overrides(&mut cfg, opt);
            // The `zipf` experiment runs the morphing elastic pair only
            // in the write-heavy delegation pass below, so each variant
            // contributes exactly one row to BENCH_zipf.json.
            let delegated: Vec<Variant> = if exp.id == "zipf" {
                variants
                    .iter()
                    .copied()
                    .filter(|v| matches!(v, Variant::ElasticMorph | Variant::ElasticCombine))
                    .collect()
            } else {
                Vec::new()
            };
            let main_variants: Vec<Variant> = variants
                .iter()
                .copied()
                .filter(|v| !delegated.contains(v))
                .collect();
            println!(
                "   p={} c={} f={} U={} mix={}/{}/{} θ={} {}",
                cfg.threads,
                cfg.ops_per_thread,
                cfg.prefill,
                cfg.key_range,
                cfg.mix.add,
                cfg.mix.remove,
                cfg.mix.contains,
                cfg.theta,
                if cfg.scramble {
                    "scrambled"
                } else {
                    "clustered"
                }
            );
            let mut rows = Vec::new();
            for v in main_variants {
                let r = v.run(&cfg);
                println!(
                    "   {:<26} {:>10.1} ms  {:>12.1} Kops/s",
                    v.paper_label(),
                    r.time_ms(),
                    r.kops_per_sec()
                );
                rows.push(r);
            }
            json_rows.extend(
                rows.iter()
                    .cloned()
                    .map(|r| BenchJsonRow::at_theta(r, cfg.theta)),
            );
            if !rows.is_empty() {
                println!("\n{}", report::format_table(exp.id, &rows));
                append_csv(opt, &report::results_csv(&rows));
            }
            if !delegated.is_empty() {
                run_delegation_pass(&delegated, cfg, opt, &mut json_rows);
            }
        }
        WorkloadSpec::SkewSweep { mut base, thetas } => {
            apply_zipf_overrides(&mut base, opt);
            let thetas = match opt.theta {
                Some(t) => vec![t],
                None => thetas,
            };
            println!(
                "   skew sweep θ={thetas:?} p={} c={} f={} U={} {}",
                base.threads,
                base.ops_per_thread,
                base.prefill,
                base.key_range,
                if base.scramble {
                    "scrambled"
                } else {
                    "clustered"
                }
            );
            for theta in thetas {
                let cfg = bench_harness::ZipfianMixConfig { theta, ..base };
                let mut rows = Vec::new();
                for v in &variants {
                    let r = v.run(&cfg);
                    println!(
                        "   θ={theta:<5} {:<26} {:>10.1} ms  {:>12.1} Kops/s",
                        v.paper_label(),
                        r.time_ms(),
                        r.kops_per_sec()
                    );
                    rows.push(r);
                }
                json_rows.extend(
                    rows.iter()
                        .cloned()
                        .map(|r| BenchJsonRow::at_theta(r, theta)),
                );
                println!(
                    "\n{}",
                    report::format_table(&format!("{} θ={theta}", exp.id), &rows)
                );
                // The sweep's x-axis is θ, so prepend it as a CSV column
                // (the thread sweep gets its axis from the threads field).
                append_csv(opt, &csv_with_theta(theta, &report::results_csv(&rows)));
            }
        }
        WorkloadSpec::Sweep {
            mut base,
            threads,
            repeats,
        } => {
            if let Some(c) = opt.ops {
                base.ops_per_thread = c;
            }
            if let Some(f) = opt.prefill {
                base.prefill = f;
            }
            if let Some(u) = opt.range {
                base.key_range = u;
            }
            let threads = match opt.threads {
                Some(t) => vec![t],
                None => threads,
            };
            let repeats = opt.repeats.unwrap_or(repeats);
            println!(
                "   sweep threads={threads:?} repeats={repeats} c={} f={} U={}",
                base.ops_per_thread, base.prefill, base.key_range
            );
            let points = scalability::sweep(&base, &variants, &threads, repeats, |p| {
                println!(
                    "   {:<16} p={:<4} mean {:>10.1} Kops/s  [{:.1}, {:.1}]",
                    p.variant, p.threads, p.mean_kops, p.min_kops, p.max_kops
                );
            });
            json_rows.extend(points.iter().map(|p| {
                // Sweep points carry mean throughput only; counters and
                // wall time are per-repeat and not aggregated, so the
                // JSON row reports the figure series' y-value.
                BenchJsonRow::plain(bench_harness::RunResult {
                    variant: p.variant.clone(),
                    wall: std::time::Duration::from_secs(1),
                    total_ops: (p.mean_kops * 1000.0) as u64,
                    stats: bench_harness::OpStats::ZERO,
                    threads: p.threads,
                })
            }));
            println!("\n{}", report::scale_ascii(&points));
            append_csv(opt, &report::scale_csv(&points));
        }
        WorkloadSpec::Phased(mut cfg) => {
            if let Some(t) = opt.threads {
                cfg.threads = t;
            }
            if let Some(c) = opt.ops {
                for p in &mut cfg.phases {
                    p.ops_per_thread = c;
                }
            }
            if let Some(f) = opt.prefill {
                cfg.prefill = f;
            }
            if let Some(u) = opt.range {
                cfg.key_range = u;
            }
            if let Some(theta) = opt.theta {
                for p in &mut cfg.phases {
                    p.theta = theta;
                }
            }
            if opt.scramble {
                for p in &mut cfg.phases {
                    p.scramble = true;
                }
            }
            println!(
                "   p={} f={} U={} phases={} ({} total ops per variant)",
                cfg.threads,
                cfg.prefill,
                cfg.key_range,
                cfg.phases.len(),
                cfg.total_ops()
            );
            for (i, p) in cfg.phases.iter().enumerate() {
                println!(
                    "     phase {i}: hot={:.2} θ={:.2} mix={}/{}/{} c={}",
                    p.hotspot, p.theta, p.mix.add, p.mix.remove, p.mix.contains, p.ops_per_thread
                );
            }
            // Throughput pass (unsampled), then a latency pass with
            // every 16th op timed: probe overhead perturbs throughput,
            // so the two must not share a run. The percentiles fill the
            // p50_ns/p99_ns columns of BENCH_<id>.json, and the
            // per-phase histograms go to BENCH_<id>_lat.json — the view
            // where a phase whose hotspot lands on a sealing/morphing
            // shard shows the stall in its p99.
            let latency = Sampled {
                cfg: cfg.clone(),
                sample_every: 16,
            };
            let mut rows = Vec::new();
            let mut lat_rows: Vec<BenchJsonRow> = Vec::new();
            for v in variants {
                let r = v.run(&cfg);
                for (i, p) in r.phases.iter().enumerate() {
                    println!(
                        "   {:<26} phase {i}  {:>10.1} ms  {:>12.1} Kops/s",
                        v.paper_label(),
                        p.time_ms(),
                        p.kops_per_sec()
                    );
                }
                println!(
                    "   {:<26} TOTAL    {:>10.1} ms  {:>12.1} Kops/s",
                    v.paper_label(),
                    r.total.time_ms(),
                    r.total.kops_per_sec()
                );
                let lat = v.run(&latency);
                let (p50, _, p99, _, max) = lat.total.summary();
                println!(
                    "   {:<26} latency  p50 {p50} ns  p99 {p99} ns  max {max} ns",
                    v.paper_label()
                );
                // Zero wall = "throughput not measured" on latency rows,
                // as in `repro latency`; `<variant>@p<i>` rows carry the
                // per-phase tail, the plain row the whole-run aggregate.
                let lat_result = |name: String, ops: u64| bench_harness::RunResult {
                    variant: name,
                    wall: std::time::Duration::ZERO,
                    total_ops: ops,
                    stats: bench_harness::OpStats::ZERO,
                    threads: cfg.threads,
                };
                for (i, (h, p)) in lat.phases.iter().zip(cfg.phases.iter()).enumerate() {
                    lat_rows.push(BenchJsonRow {
                        p50_ns: Some(h.quantile_ns(0.5)),
                        p99_ns: Some(h.quantile_ns(0.99)),
                        ..BenchJsonRow::at_theta(
                            lat_result(
                                format!("{}@p{i}", v.name()),
                                p.ops_per_thread * cfg.threads as u64,
                            ),
                            p.theta,
                        )
                    });
                }
                lat_rows.push(BenchJsonRow {
                    p50_ns: Some(p50),
                    p99_ns: Some(p99),
                    ..BenchJsonRow::plain(lat_result(v.name().to_string(), cfg.total_ops()))
                });
                json_rows.push(BenchJsonRow {
                    p50_ns: Some(p50),
                    p99_ns: Some(p99),
                    ..BenchJsonRow::plain(r.total.clone())
                });
                rows.push(r.total);
            }
            println!("\n{}", report::format_table(exp.id, &rows));
            append_csv(opt, &report::results_csv(&rows));
            write_bench_json(opt, &format!("{}_lat", exp.id), &lat_rows);
        }
        WorkloadSpec::BatchMix(mut cfg) => {
            if let Some(t) = opt.threads {
                cfg.threads = t;
            }
            if let Some(c) = opt.ops {
                cfg.batches_per_thread = c;
            }
            if let Some(w) = opt.batch_width {
                cfg.batch_width = w;
            }
            if let Some(f) = opt.prefill {
                cfg.prefill = f;
            }
            if let Some(u) = opt.range {
                cfg.key_range = u;
            }
            println!(
                "   p={} batches={} width={} f={} U={} mix={}/{}/{} ({} keys per variant)",
                cfg.threads,
                cfg.batches_per_thread,
                cfg.batch_width,
                cfg.prefill,
                cfg.key_range,
                cfg.mix.add,
                cfg.mix.remove,
                cfg.mix.contains,
                cfg.total_ops()
            );
            let mut rows = Vec::new();
            for v in variants {
                let r = v.run(&cfg);
                println!(
                    "   {:<26} {:>10.1} ms  {:>12.1} Kkeys/s",
                    v.paper_label(),
                    r.time_ms(),
                    r.kops_per_sec()
                );
                rows.push(r);
            }
            json_rows.extend(rows.iter().cloned().map(BenchJsonRow::plain));
            println!("\n{}", report::format_table(exp.id, &rows));
            append_csv(opt, &report::results_csv(&rows));
        }
    }
    write_bench_json(opt, exp.id, &json_rows);
}

/// The `zipf` experiment's write-heavy delegation pass: the same
/// clustered θ but mix 40/40/20 over a hot range narrow enough that
/// splitting cannot dilute it — the case the write-hot no-split rule
/// exists for. Runs the morphing elastic pair head-to-head
/// (`elastic_morph` splits; `elastic_combine` keeps the write-hot shard
/// whole) and appends its rows to the same `BENCH_zipf.json`.
fn run_delegation_pass(
    variants: &[Variant],
    base: bench_harness::ZipfianMixConfig,
    opt: &Options,
    json_rows: &mut Vec<BenchJsonRow>,
) {
    // The pass needs shard populations large enough that a migration is
    // a real rebuild: under the write-hot cluster the splitter oscillates
    // (split the hot shard, merge a cold pair, repeat — one bulk copy per
    // load window), which is exactly the churn the no-split rule
    // suppresses.
    // Scale the key range with the op budget (container scale: 320 k ops
    // → U = 2 M, half-full) so `--ops`-reduced smoke runs stay fast, and
    // cap it so `--threads`/`--ops` overrides cannot exhaust memory.
    let total_ops = base.ops_per_thread * base.threads as u64;
    let key_range = if opt.range.is_some() {
        base.key_range
    } else {
        ((total_ops * 25) / 4).clamp(2_000, 8_000_000) as u32
    };
    let cfg = bench_harness::ZipfianMixConfig {
        mix: bench_harness::OpMix::WRITE_HEAVY,
        key_range,
        prefill: u64::from(key_range) / 2,
        ..base
    };
    println!(
        "   delegation pass: p={} c={} f={} U={} mix={}/{}/{} θ={} clustered",
        cfg.threads,
        cfg.ops_per_thread,
        cfg.prefill,
        cfg.key_range,
        cfg.mix.add,
        cfg.mix.remove,
        cfg.mix.contains,
        cfg.theta,
    );
    let mut rows = Vec::new();
    for v in variants {
        let r = v.run(&cfg);
        println!(
            "   {:<26} {:>10.1} ms  {:>12.1} Kops/s",
            v.paper_label(),
            r.time_ms(),
            r.kops_per_sec()
        );
        rows.push(r);
    }
    json_rows.extend(
        rows.iter()
            .cloned()
            .map(|r| BenchJsonRow::at_theta(r, cfg.theta)),
    );
    println!("\n{}", report::format_table("zipf (delegation)", &rows));
    append_csv(opt, &report::results_csv(&rows));
}

/// Writes the machine-readable `BENCH_<experiment>.json` next to the CSV
/// (same directory as `--csv`, or the working directory), so the perf
/// trajectory is tracked per experiment from every run.
fn write_bench_json(opt: &Options, id: &str, rows: &[BenchJsonRow]) {
    let doc = report::bench_json(id, rows);
    debug_assert!(report::validate_bench_json(&doc).is_ok());
    let dir = opt
        .csv
        .as_ref()
        .and_then(|p| {
            std::path::Path::new(p)
                .parent()
                .map(std::path::Path::to_path_buf)
        })
        .unwrap_or_default();
    let path = dir.join(format!("BENCH_{id}.json"));
    match std::fs::write(&path, doc) {
        Ok(()) => println!("   (bench json written to {})", path.display()),
        Err(e) => eprintln!("   cannot write {}: {e}", path.display()),
    }
}

fn apply_zipf_overrides(cfg: &mut bench_harness::ZipfianMixConfig, opt: &Options) {
    if let Some(t) = opt.threads {
        cfg.threads = t;
    }
    if let Some(c) = opt.ops {
        cfg.ops_per_thread = c;
    }
    if let Some(f) = opt.prefill {
        cfg.prefill = f;
    }
    if let Some(u) = opt.range {
        cfg.key_range = u;
    }
    if let Some(theta) = opt.theta {
        cfg.theta = theta;
    }
    if opt.scramble {
        cfg.scramble = true;
    }
}

/// Prefixes a `theta` column onto a `results_csv` block so skew-sweep
/// output stays analyzable by its x-axis.
fn csv_with_theta(theta: f64, csv: &str) -> String {
    let mut out = String::new();
    for line in csv.lines() {
        if line.is_empty() {
            continue;
        }
        if line.starts_with("variant,") {
            out.push_str("theta,");
        } else {
            out.push_str(&format!("{theta},"));
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

fn append_csv(opt: &Options, data: &str) {
    if let Some(path) = &opt.csv {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("cannot open {path}: {e}"));
        f.write_all(data.as_bytes()).expect("csv write failed");
        println!("   (csv appended to {path})");
    }
}

fn print_usage() {
    println!(
        "repro — regenerate the paper's tables and figures\n\
         \n\
         usage: repro list | repro <experiment>... [options] | repro all [options] | repro latency [--zipf]\n\
         \n\
         options: --paper-scale --threads N --n N --ops N --prefill N --range N\n\
         \x20         --repeats N --theta X --scramble --batch-width N --variants a,b,f\n\
         \x20         --list-variants --private --csv PATH (BENCH_<exp>.json is written beside it)\n\
         \n\
         Container-scale parameters are the default; pass --paper-scale on a\n\
         large machine for the published sizes."
    );
}
