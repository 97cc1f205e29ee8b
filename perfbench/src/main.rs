//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper_mix|drift|zipf_write> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics of one closed-loop run;
//! `--trace 1` is the separate traced run that gives the per-layer
//! metrics (see `perfbench/README.md` for what each one should move).
//! Both print human-readable `#` lines and, last, one JSON object.

mod engine;
mod hist;
mod stacks;
mod sys;
mod tape;

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};

use pragmatic_list::{ConcurrentOrderedSet, SetHandle};

use engine::{accumulate, drive, fixed_answers, reconcile, Check, Drive, Plan};
use hist::Histogram;
use stacks::Combine;
use tape::{Arm, Inputs, Spec, THREADS};

/// Independent trials of an untraced run, each a fresh process on fresh
/// inputs.
const TRIALS: usize = 10;
/// Each trial sets up until its set-ups took `SETUP_FLOOR_S` (at most
/// `SETUP_MAX` times) and reports their median.
const SETUP_FLOOR_S: f64 = 0.2;
const SETUP_MAX: usize = 5000;
/// Time cap of one replay rung.
const REPLAY_CAP: Duration = Duration::from_secs(2);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: String,
    /// Set in the child processes of an untraced run: which trial to run.
    trial: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_dir: "perfbench/out".into(),
        trial: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !a.seconds.is_finite() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--trace-dir" => a.trace_dir = val()?,
            "--trial" => a.trial = Some(val()?.parse().map_err(|e| format!("--trial: {e}"))?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = tape::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {:?})",
            args.workload,
            tape::WORKLOADS
        );
        std::process::exit(2);
    };
    if let Some(k) = args.trial {
        let inp = spec.generate(trial_seed(args.seed, k));
        match spec.name {
            "paper_mix" => trial(&args, &spec, &inp, stacks::paper),
            _ => trial(&args, &spec, &inp, stacks::elastic_combine),
        }
        return;
    }
    println!(
        "# meta nproc={} threads={THREADS} profile={} seed={} workload={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.seed,
        spec.name,
    );
    let out = if args.trace {
        let inp = spec.generate(args.seed);
        match spec.name {
            "paper_mix" => traced(&args, &spec, &inp, stacks::paper),
            _ => traced(&args, &spec, &inp, stacks::elastic_combine),
        }
    } else {
        untraced(&args)
    };
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .unwrap();
    }
    line.push_str("}}");
    println!("{line}");
    std::io::stdout().flush().unwrap();
}

/// A run's result line.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Builds a structure and prefills it key by key through the public API.
/// Returns it, the set-up seconds and the adds that wrongly failed.
fn setup<S: ConcurrentOrderedSet<i64>>(build: fn() -> S, inp: &Inputs) -> (S, f64, u64) {
    let t = Instant::now();
    let set = build();
    let mut h = set.handle();
    let lost = inp
        .prefill
        .iter()
        .filter(|&&i| !h.add(inp.keys[i as usize]))
        .count() as u64;
    drop(h);
    (set, t.elapsed().as_secs_f64(), lost)
}

/// Same as `setup`, in one `add_batch` call (the replay rungs: a
/// key-by-key prefill of a million-key flat list would take minutes).
fn setup_batched<S: ConcurrentOrderedSet<i64>>(build: impl Fn() -> S, inp: &Inputs) -> (S, u64) {
    let set = build();
    let mut h = set.handle();
    let mut keys: Vec<i64> = inp.prefill.iter().map(|&i| inp.keys[i as usize]).collect();
    let added = h.add_batch(&mut keys) as u64;
    drop(h);
    (set, inp.prefill.len() as u64 - added)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn warmup(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / 10.0).min(1.0))
}

/// Reconciles `set` with the ledgers of `drives`; prints what failed.
fn check<S: ConcurrentOrderedSet<i64>>(
    set: &mut S,
    inp: &Inputs,
    drives: &[&Drive],
    lost: u64,
    invariants: bool,
) -> Check {
    let mut net = vec![0i64; inp.key_range as usize];
    let mut wrong = 0;
    for d in drives {
        accumulate(&mut net, d);
        wrong += d.workers.iter().map(|w| w.wrong_contains).sum::<u64>();
    }
    let mut c = reconcile(set, inp, &net, wrong, invariants);
    if lost > 0 {
        c.failed += lost;
        c.notes.push(format!(
            "{lost} prefill adds of distinct keys returned false"
        ));
    }
    for n in &c.notes {
        println!("# FAILED CHECK ({}): {n}", S::NAME);
    }
    c
}

/// The inputs of trial `k` of a run with seed `seed`: every trial draws
/// its own tapes and prefill, all determined by the run's seed.
fn trial_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(TRIALS as u64 + 1).wrapping_add(k)
}

/// The numbers one trial reports to the parent run, in this order.
const TRIAL_FIELDS: [&str; 8] = [
    "attempted",
    "failed",
    "timed_ops",
    "throughput",
    "setup_s",
    "peak_rss_mb",
    "cpu_s",
    "wall_s",
];

/// One trial of an untraced run, in a process of its own so its peak RSS
/// and heap layout are its own: set up, drive, check, set up again until
/// the set-up time floor is met, then print its latency histograms and
/// one `trial-result` line of `TRIAL_FIELDS`.
fn trial<S: ConcurrentOrderedSet<i64>>(args: &Args, spec: &Spec, inp: &Inputs, build: fn() -> S) {
    let fixed = fixed_answers(inp);
    let seconds = args.seconds / TRIALS as f64;
    let plan = Plan {
        warmup: warmup(seconds),
        timed: Duration::from_secs_f64(seconds),
        max_ops: u64::MAX,
        trace: false,
        threads: THREADS,
    };
    let (mut set, first_setup, lost) = setup(build, inp);
    let (cpu0, wall0) = (sys::cpu_s(), Instant::now());
    let d = drive(&set, inp, &fixed, &mut [0; THREADS], plan, None);
    let (cpu, wall) = (sys::cpu_s() - cpu0, wall0.elapsed().as_secs_f64());
    let c = check(&mut set, inp, &[&d], lost, spec.invariants);
    let peak_rss = sys::peak_rss_mb();
    drop(set);
    // Set up again until the time floor is met too, so a set-up of a
    // fraction of a millisecond still gets a steady median.
    let mut setups = vec![first_setup];
    while setups.iter().sum::<f64>() < SETUP_FLOOR_S && setups.len() < SETUP_MAX {
        setups.push(setup(build, inp).1);
    }
    let values = [
        d.attempted() as f64,
        c.failed as f64,
        d.timed_ops() as f64,
        d.throughput(),
        median(setups),
        peak_rss,
        cpu,
        wall,
    ];
    let fields: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    println!("trial-reads {}", d.reads().encode());
    println!("trial-writes {}", d.writes().encode());
    println!("trial-result {}", fields.join(" "));
}

/// An untraced run: `TRIALS` child processes of `seconds / TRIALS` each,
/// after one more whose numbers are discarded (the first trial after an
/// idle host runs up to 2x slower). Its ops are still checked. Throughput
/// and latency pool every measured trial's ops, `setup_s` is the median
/// and `peak_rss_mb` the mean over those trials.
fn untraced(args: &Args) -> Outcome {
    let exe = std::env::current_exe().expect("own executable path");
    let mut trials: Vec<Vec<f64>> = Vec::new();
    let (mut reads, mut writes) = (Histogram::default(), Histogram::default());
    let mut warm_up = (0.0, 0.0);
    for k in 0..=TRIALS as u64 {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trial", &k.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn trial");
        let (mut result, mut r, mut w): (Option<Vec<f64>>, _, _) = (None, None, None);
        for l in String::from_utf8_lossy(&out.stdout).lines() {
            if let Some(v) = l.strip_prefix("trial-result ") {
                result = v.split(' ').map(|x| x.parse::<f64>().ok()).collect();
            } else if let Some(h) = l.strip_prefix("trial-reads ") {
                r = Histogram::decode(h);
            } else if let Some(h) = l.strip_prefix("trial-writes ") {
                w = Histogram::decode(h);
            } else {
                println!("# [trial {k}] {}", l.trim_start_matches("# "));
            }
        }
        match (result, r, w) {
            (Some(v), Some(r), Some(w))
                if out.status.success() && v.len() == TRIAL_FIELDS.len() =>
            {
                let shown: Vec<String> = (TRIAL_FIELDS.iter().zip(&v))
                    .map(|(n, x)| format!("{n}={x}"))
                    .collect();
                println!("# [trial {k}] {}", shown.join(" "));
                if k == 0 {
                    warm_up = (v[0], v[1]);
                    continue;
                }
                reads.merge(&r);
                writes.merge(&w);
                trials.push(v);
            }
            _ => {
                eprintln!("perfbench: trial {k} failed ({})", out.status);
                std::process::exit(1);
            }
        }
    }
    let sum = |i: usize| trials.iter().map(|t| t[i]).sum::<f64>();
    let (attempted, failed) = ((sum(0) + warm_up.0) as u64, (sum(1) + warm_up.1) as u64);
    // A trial's timed ops over its rate is its timed duration.
    let timed_s: f64 = trials.iter().map(|t| t[2] / t[3]).sum();
    println!(
        "# run trials={TRIALS} ops={attempted} cpu_s={:.3} wall_s={:.3} cpu_per_wall={:.3} samples reads={} writes={}",
        sum(6),
        sum(7),
        sum(6) / sum(7),
        reads.count(),
        writes.count()
    );
    let mut m = Metrics::default();
    m.push("throughput_ops_s", sum(2) / timed_s, "1/s");
    m.push("read_p50_ns", reads.quantile(0.5), "ns");
    m.push("read_p99_ns", reads.quantile(0.99), "ns");
    m.push("write_p50_ns", writes.quantile(0.5), "ns");
    m.push("write_p99_ns", writes.quantile(0.99), "ns");
    m.push(
        "setup_s",
        median(trials.iter().map(|t| t[4]).collect()),
        "s",
    );
    m.push("peak_rss_mb", sum(5) / TRIALS as f64, "MB");
    println!(
        "# failed_frac = {:.6} ({failed} failed checks / {attempted} ops attempted)",
        failed as f64 / attempted.max(1) as f64,
    );
    Outcome {
        attempted,
        failed,
        metrics: m.0,
    }
}

#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("# {name} = {value:.4} {unit}");
        self.0.push((name, value, unit));
    }
}

/// Ops attempted and checks failed over every drive of a traced run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, drives: &[&Drive], c: &Check) {
        self.attempted += drives.iter().map(|d| d.attempted()).sum::<u64>();
        self.failed += c.failed;
    }
}

/// One replay rung: a fresh structure, batch-prefilled, replays the first
/// `ops` ops of each tape (or stops at `REPLAY_CAP`), then is checked.
fn replay<S: ConcurrentOrderedSet<i64>>(
    build: impl Fn() -> S,
    spec: &Spec,
    inp: &Inputs,
    ops: usize,
    threads: usize,
    tally: &mut Tally,
) -> Drive {
    let fixed = fixed_answers(inp);
    let (mut set, lost) = setup_batched(build, inp);
    let mut pos = vec![0; THREADS];
    let plan = Plan {
        warmup: Duration::ZERO,
        timed: REPLAY_CAP,
        max_ops: ops as u64,
        trace: false,
        threads,
    };
    let d = drive(&set, inp, &fixed, &mut pos, plan, None);
    let c = check(&mut set, inp, &[&d], lost, spec.invariants);
    tally.add(&[&d], &c);
    println!(
        "# replay {} threads={threads} ops={} ns_per_op={:.1}",
        S::NAME,
        d.timed_ops(),
        d.ns_per_op()
    );
    d
}

/// The paper list's counters from a drive of `doubly_cursor`.
fn doubly_metrics(d: &Drive, m: &mut Metrics) {
    let s = d.stats();
    let ops = d.timed_ops().max(1) as f64;
    let nodes = s.total_traversals();
    let busy: u64 = d.workers.iter().map(|w| w.busy_ns).sum();
    m.push("doubly.nodes_per_op", nodes as f64 / ops, "nodes/op");
    m.push(
        "doubly.ns_per_node",
        busy as f64 / nodes.max(1) as f64,
        "ns",
    );
    m.push(
        "doubly.cas_fail_per_kop",
        s.fail as f64 * 1e3 / ops,
        "1/kop",
    );
    m.push("doubly.retry_per_kop", s.rtry as f64 * 1e3 / ops, "1/kop");
    // Every won add is one successful insert CAS and every won remove one
    // successful marking: successes / (successes + failed CASes).
    let won = (s.adds + s.rems) as f64;
    m.push(
        "doubly.cas_success_ratio",
        won / (won + s.fail as f64).max(1.0),
        "ratio",
    );
}

/// Elastic numbers from a traced, polled drive of `elastic_combine`;
/// `c0` and `c` are its counters when the drive started and ended.
fn elastic_metrics(c0: &stacks::Counters, c: &stacks::Counters, d: &Drive, m: &mut Metrics) {
    let s = d.stats();
    let ops = d.timed_ops().max(1) as f64;
    let writes = d.writes().count().max(1) as f64;
    m.push(
        "elastic.backend_nodes_per_op",
        s.total_traversals() as f64 / ops,
        "nodes/op",
    );
    m.push(
        "elastic.backend_cas_fail_per_kop",
        s.fail as f64 * 1e3 / ops,
        "1/kop",
    );
    m.push("elastic.splits", (c.splits - c0.splits) as f64, "count");
    m.push("elastic.merges", (c.merges - c0.merges) as f64, "count");
    m.push("elastic.morphs", (c.morphs - c0.morphs) as f64, "count");
    m.push("elastic.shards_end", c.shards as f64, "count");
    m.push(
        "elastic.delegations",
        (c.delegations - c0.delegations) as f64,
        "count",
    );
    m.push(
        "elastic.combined_frac",
        (c.combined - c0.combined) as f64 / writes,
        "ratio",
    );
    // Split the sampled op latencies by whether the poll interval they
    // started in saw a split, merge or morph commit.
    let (mut moving, mut steady) = (Histogram::default(), Histogram::default());
    let polls = &d.polls;
    for w in &d.workers {
        for sp in &w.spans {
            let i = polls.partition_point(|p| p.t_ns <= sp.start_ns);
            if i == 0 || i == polls.len() {
                continue;
            }
            if polls[i].migrations != polls[i - 1].migrations {
                moving.record(sp.dur_ns);
            } else {
                steady.record(sp.dur_ns);
            }
        }
    }
    println!(
        "# elastic samples in_migration={} steady={} polls={}",
        moving.count(),
        steady.count(),
        polls.len()
    );
    m.push("elastic.p99_ns_in_migration", moving.quantile(0.99), "ns");
    m.push("elastic.p99_ns_steady", steady.quantile(0.99), "ns");
    let alive = polls.iter().map(|p| p.tables_alive).max().unwrap_or(0);
    m.push("reclaim.tables_alive_max", alive as f64, "count");
}

/// A traced, polled drive of `elastic_combine`.
fn polled(set: &Combine, inp: &Inputs, pos: &mut [usize], plan: Plan) -> Drive {
    let poll = || stacks::poll(set);
    drive(set, inp, &fixed_answers(inp), pos, plan, Some(&poll))
}

fn traced<S>(args: &Args, spec: &Spec, inp: &Inputs, build: fn() -> S) -> Outcome
where
    S: ConcurrentOrderedSet<i64> + AsCombine,
{
    let fixed = fixed_answers(inp);
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let process = Instant::now();
    let mut phases = Vec::new();
    let since = |t: Instant| (t - process).as_nanos() as u64;

    // The workload's own structure, set up first in the process so the
    // RSS it adds is its own.
    let rss0 = sys::rss_bytes();
    let t = Instant::now();
    let (mut set, _, lost) = setup(build, inp);
    phases.push(("setup", since(t), since(Instant::now())));
    let bytes_per_key = (sys::rss_bytes() - rss0) / inp.prefill.len() as f64;

    // Untraced, traced, untraced: the traced drive is compared with the
    // mean throughput of the plain drives on either side of it.
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    let mut pos = vec![0; THREADS];
    let plain = Plan {
        warmup: warmup(args.seconds),
        timed: quarter,
        max_ops: u64::MAX,
        trace: false,
        threads: THREADS,
    };
    let (cpu0, t0) = (sys::cpu_s(), Instant::now());
    let before = drive(&set, inp, &fixed, &mut pos, plain, None);
    phases.push(("untraced_drive", since(t0), since(Instant::now())));
    let counters0 = set.as_combine().map(stacks::counters);
    let t = Instant::now();
    let plan = Plan {
        warmup: Duration::ZERO,
        timed: 2 * quarter,
        trace: true,
        ..plain
    };
    let traced = match set.as_combine() {
        Some(e) => polled(e, inp, &mut pos, plan),
        None => drive(&set, inp, &fixed, &mut pos, plan, None),
    };
    let counters1 = set.as_combine().map(stacks::counters);
    phases.push(("traced_drive", since(t), since(Instant::now())));
    let t = Instant::now();
    let plan = Plan {
        warmup: Duration::ZERO,
        ..plain
    };
    let after = drive(&set, inp, &fixed, &mut pos, plan, None);
    phases.push(("untraced_drive", since(t), since(Instant::now())));
    let (cpu, wall) = (sys::cpu_s() - cpu0, (Instant::now() - t0).as_secs_f64());
    println!(
        "# drives cpu_s={cpu:.3} wall_s={wall:.3} cpu_per_wall={:.3}",
        cpu / wall
    );
    let t = Instant::now();
    let drives = [&before, &traced, &after];
    let c = check(&mut set, inp, &drives, lost, spec.invariants);
    phases.push(("check", since(t), since(Instant::now())));
    tally.add(&drives, &c);
    let plain_tput = (before.throughput() + after.throughput()) / 2.0;
    m.push(
        "trace.overhead_frac",
        1.0 - traced.throughput() / plain_tput,
        "ratio",
    );
    m.push("slab.bytes_per_key", bytes_per_key, "B");
    match (&counters0, &counters1) {
        (Some(c0), Some(c1)) => elastic_metrics(c0, c1, &traced, &mut m),
        _ => doubly_metrics(&traced, &mut m),
    }
    write_trace(args, spec, &traced, &phases, process);
    drop(set);

    // The paper list on this tape when it is not the workload's own
    // structure, then its exact single-threaded counts.
    let elastic = counters0.is_some();
    if elastic {
        let d = replay(
            stacks::paper,
            spec,
            inp,
            spec.replay_ops,
            THREADS,
            &mut tally,
        );
        doubly_metrics(&d, &mut m);
    }
    let d = replay(stacks::paper, spec, inp, spec.t1_ops, 1, &mut tally);
    m.push(
        "doubly.nodes_per_op_t1",
        d.stats().total_traversals() as f64 / d.timed_ops().max(1) as f64,
        "nodes/op",
    );

    // The ladder: R0 the shard arm alone, R1 one elastic shard of it, R2
    // the adaptive policy without combining, R3 elastic_combine.
    let ops = spec.replay_ops;
    let skip = replay(stacks::skip, spec, inp, ops, THREADS, &mut tally).ns_per_op();
    let unrolled = replay(stacks::unrolled, spec, inp, ops, THREADS, &mut tally).ns_per_op();
    let r0 = match spec.arm {
        Arm::Skip => skip,
        Arm::Unrolled => unrolled,
    };
    let one_shard = || stacks::one_shard(spec.arm);
    let r1 = replay(one_shard, spec, inp, ops, THREADS, &mut tally).ns_per_op();
    let r2 = replay(stacks::adaptive, spec, inp, ops, THREADS, &mut tally).ns_per_op();
    let r3 = replay(stacks::elastic_combine, spec, inp, ops, THREADS, &mut tally).ns_per_op();
    m.push("lockfree_skiplist.ns_per_op", skip, "ns");
    m.push("unrolled.ns_per_op", unrolled, "ns");
    m.push("ladder.r0_ns_per_op", r0, "ns");
    m.push("ladder.r1_ns_per_op", r1, "ns");
    m.push("ladder.r2_ns_per_op", r2, "ns");
    m.push("ladder.r3_ns_per_op", r3, "ns");
    m.push("elastic.router_ns_per_op", r1 - r0, "ns");
    m.push("elastic.rebalance_ns_per_op", r2 - r1, "ns");
    m.push("elastic.combine_ns_per_op", r3 - r2, "ns");

    // The paper's mix runs no elastic layer: a traced, polled drive of
    // elastic_combine on the same tape gives the elastic counters.
    if !elastic {
        let (mut set, lost) = setup_batched(stacks::elastic_combine, inp);
        let c0 = stacks::counters(&set);
        let mut pos = vec![0; THREADS];
        let plan = Plan {
            warmup: Duration::ZERO,
            timed: REPLAY_CAP,
            max_ops: ops as u64,
            trace: true,
            threads: THREADS,
        };
        let d = polled(&set, inp, &mut pos, plan);
        elastic_metrics(&c0, &stacks::counters(&set), &d, &mut m);
        let c = check(&mut set, inp, &[&d], lost, spec.invariants);
        tally.add(&[&d], &c);
    }
    println!(
        "# failed_frac = {:.6} ({} failed checks / {} ops attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    m.0.sort_by(|a, b| a.0.cmp(b.0));
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m.0,
    }
}

/// Lets the generic traced run reach the elastic getters when the
/// workload's structure is `elastic_combine`.
trait AsCombine {
    fn as_combine(&self) -> Option<&Combine>;
}

impl AsCombine for stacks::Paper {
    fn as_combine(&self) -> Option<&Combine> {
        None
    }
}

impl AsCombine for Combine {
    fn as_combine(&self) -> Option<&Combine> {
        Some(self)
    }
}

/// Writes the traced drive's spans and polls and the run's phases as CSV
/// (times in ns since the process's traced run began).
fn write_trace(args: &Args, spec: &Spec, d: &Drive, phases: &[(&str, u64, u64)], process: Instant) {
    let off = (d.epoch - process).as_nanos() as u64;
    let mut s = String::from(
        "record,thread_or_name,tape_idx_or_migrations,kind_or_tables_alive,start_ns,end_ns\n",
    );
    for (name, a, b) in phases {
        writeln!(s, "phase,{name},,,{a},{b}").unwrap();
    }
    for p in &d.polls {
        let t = p.t_ns + off;
        writeln!(s, "poll,,{},{},{t},{t}", p.migrations, p.tables_alive).unwrap();
    }
    for (t, w) in d.workers.iter().enumerate() {
        for sp in &w.spans {
            let kind = ["add", "remove", "contains"][sp.kind as usize];
            let start = sp.start_ns + off;
            let end = start + sp.dur_ns;
            writeln!(s, "span,{t},{},{kind},{start},{end}", sp.tape_idx).unwrap();
        }
    }
    let path = format!(
        "{}/trace-{}-seed{}.csv",
        args.trace_dir, spec.name, args.seed
    );
    match std::fs::create_dir_all(&args.trace_dir).and_then(|_| std::fs::write(&path, s)) {
        Ok(()) => println!("# trace written to {path}"),
        Err(e) => println!("# trace not written ({path}: {e})"),
    }
}
