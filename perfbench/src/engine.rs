//! The closed-loop load loop and the per-key ledger check.
//!
//! Every worker owns one tape and one handle and issues its next op as
//! soon as the previous call returns. One clock read per op times it:
//! the gap between consecutive reads is the op's latency (it includes
//! the few ns of bookkeeping for the previous op). Each op's returned
//! bool goes into the worker's ledger; after the run, `reconcile`
//! compares the ledger with the quiescent structure.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use pragmatic_list::{ConcurrentOrderedSet, OpStats, SetHandle};

use crate::hist::Histogram;
use crate::tape::{idx_of, kind_of, Inputs, ADD, CONTAINS, REMOVE, THREADS};

/// Spans kept per worker; beyond this the buffer keeps every other span
/// and halves its sampling rate, so it always covers the whole run.
const SPAN_CAP: usize = 1 << 17;
/// Main-thread poll period of the traced run.
const POLL_EVERY: Duration = Duration::from_millis(1);

/// How long one drive lasts.
#[derive(Clone, Copy)]
pub struct Plan {
    /// Ops before this are run and checked but not timed.
    pub warmup: Duration,
    /// The timed region.
    pub timed: Duration,
    /// Per-thread op budget (the run ends at whichever comes first).
    pub max_ops: u64,
    /// Record op spans.
    pub trace: bool,
    /// Worker threads, each running its own tape.
    pub threads: usize,
}

/// One op call as seen from outside the structure.
#[derive(Clone, Copy)]
pub struct Span {
    /// Position in the worker's tape.
    pub tape_idx: u32,
    pub kind: u8,
    /// Start, in ns since the drive's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A timestamped reading of a structure's public getters.
#[derive(Clone, Copy, Default)]
pub struct Poll {
    pub t_ns: u64,
    /// Splits + merges + morphs committed so far.
    pub migrations: u64,
    pub tables_alive: u64,
}

/// One worker's results.
pub struct Worker {
    /// Ops issued, warm-up included.
    pub ops: u64,
    /// Ops inside the timed region and that region's length.
    pub timed_ops: u64,
    pub timed_ns: u64,
    /// Sum of the timed ops' latencies.
    pub busy_ns: u64,
    pub reads: Histogram,
    pub writes: Histogram,
    pub stats: OpStats,
    /// Per key index: adds won minus removes won.
    pub net: Vec<i32>,
    /// `contains` answers that contradict a key no op ever writes.
    pub wrong_contains: u64,
    pub spans: Vec<Span>,
}

/// One drive's results.
pub struct Drive {
    /// The instant span and poll times count from.
    pub epoch: Instant,
    pub workers: Vec<Worker>,
    pub polls: Vec<Poll>,
}

impl Drive {
    pub fn attempted(&self) -> u64 {
        self.workers.iter().map(|w| w.ops).sum()
    }

    pub fn timed_ops(&self) -> u64 {
        self.workers.iter().map(|w| w.timed_ops).sum()
    }

    /// Completed ops per second: the sum of each worker's rate.
    pub fn throughput(&self) -> f64 {
        self.workers
            .iter()
            .map(|w| w.timed_ops as f64 / (w.timed_ns.max(1) as f64 * 1e-9))
            .sum()
    }

    /// Mean time per op, summed over workers.
    pub fn ns_per_op(&self) -> f64 {
        let busy: u64 = self.workers.iter().map(|w| w.busy_ns).sum();
        busy as f64 / self.timed_ops().max(1) as f64
    }

    pub fn stats(&self) -> OpStats {
        self.workers.iter().map(|w| w.stats).sum()
    }

    pub fn reads(&self) -> Histogram {
        merged(self.workers.iter().map(|w| &w.reads))
    }

    pub fn writes(&self) -> Histogram {
        merged(self.workers.iter().map(|w| &w.writes))
    }
}

fn merged<'a>(hs: impl Iterator<Item = &'a Histogram>) -> Histogram {
    let mut all = Histogram::default();
    for h in hs {
        all.merge(h);
    }
    all
}

/// What a `contains` on each key index must answer if no op writes it:
/// 0 = written by some op (no fixed answer), 1 = absent, 2 = present.
pub fn fixed_answers(inp: &Inputs) -> Vec<u8> {
    let mut fixed: Vec<u8> = inp.written.iter().map(|&w| u8::from(!w)).collect();
    for &i in &inp.prefill {
        if fixed[i as usize] == 1 {
            fixed[i as usize] = 2;
        }
    }
    fixed
}

/// Runs every tape against `set` from `pos` (advanced in place) under a
/// closed loop. With `poll`, the calling thread reads it every
/// millisecond until the workers finish.
pub fn drive<S: ConcurrentOrderedSet<i64>>(
    set: &S,
    inp: &Inputs,
    fixed: &[u8],
    pos: &mut [usize],
    plan: Plan,
    poll: Option<&(dyn Fn() -> Poll + Sync)>,
) -> Drive {
    assert!(plan.threads >= 1 && plan.threads <= THREADS);
    let barrier = Barrier::new(plan.threads + 1);
    let done = AtomicUsize::new(0);
    let epoch = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.threads)
            .map(|t| {
                let (barrier, done) = (&barrier, &done);
                let start_pos = pos[t];
                s.spawn(move || {
                    let w = work(set, inp, fixed, t, start_pos, plan, epoch, barrier);
                    done.fetch_add(1, Relaxed);
                    w
                })
            })
            .collect();
        barrier.wait();
        let mut polls = Vec::new();
        if let Some(poll) = poll {
            while done.load(Relaxed) < plan.threads {
                let mut p = poll();
                p.t_ns = epoch.elapsed().as_nanos() as u64;
                polls.push(p);
                std::thread::sleep(POLL_EVERY);
            }
        }
        let workers: Vec<(Worker, usize)> = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        for (t, (_, p)) in workers.iter().enumerate() {
            pos[t] = *p;
        }
        Drive {
            epoch,
            workers: workers.into_iter().map(|(w, _)| w).collect(),
            polls,
        }
    })
}

#[allow(clippy::too_many_arguments)]
fn work<S: ConcurrentOrderedSet<i64>>(
    set: &S,
    inp: &Inputs,
    fixed: &[u8],
    t: usize,
    mut p: usize,
    plan: Plan,
    epoch: Instant,
    barrier: &Barrier,
) -> (Worker, usize) {
    let tape = &inp.tapes[t];
    let keys = &inp.keys;
    let mut h = set.handle();
    let mut w = Worker {
        ops: 0,
        timed_ops: 0,
        timed_ns: 0,
        busy_ns: 0,
        reads: Histogram::default(),
        writes: Histogram::default(),
        stats: OpStats::ZERO,
        net: vec![0; inp.key_range as usize],
        wrong_contains: 0,
        spans: Vec::new(),
    };
    let (mut stride, mut until_span) = (1u64, 0u64);
    barrier.wait();
    let start = Instant::now();
    let warm_end = start + plan.warmup;
    let deadline = warm_end + plan.timed;
    let mut timed = plan.warmup.is_zero();
    let (mut prev, mut timed_start) = (start, start);
    loop {
        let op = tape[p];
        let (kind, idx) = (kind_of(op), idx_of(op) as usize);
        let key = keys[idx];
        match kind {
            ADD => w.net[idx] += i32::from(h.add(key)),
            REMOVE => w.net[idx] -= i32::from(h.remove(key)),
            _ => {
                let hit = h.contains(key);
                let want = fixed[idx];
                w.wrong_contains += u64::from(want != 0 && hit != (want == 2));
            }
        }
        let now = Instant::now();
        if timed {
            let lat = (now - prev).as_nanos() as u64;
            if kind == CONTAINS {
                w.reads.record(lat);
            } else {
                w.writes.record(lat);
            }
            w.busy_ns += lat;
            w.timed_ops += 1;
            if plan.trace {
                if until_span == 0 {
                    if w.spans.len() == SPAN_CAP {
                        let mut i = 0;
                        w.spans.retain(|_| {
                            i += 1;
                            i % 2 == 1
                        });
                        stride *= 2;
                    }
                    w.spans.push(Span {
                        tape_idx: p as u32,
                        kind: kind as u8,
                        start_ns: (prev - epoch).as_nanos() as u64,
                        dur_ns: lat,
                    });
                    until_span = stride;
                }
                until_span -= 1;
            }
        } else if now >= warm_end {
            timed = true;
            timed_start = now;
        }
        prev = now;
        w.ops += 1;
        p += 1;
        if p == tape.len() {
            p = 0;
        }
        if now >= deadline || w.ops >= plan.max_ops {
            break;
        }
    }
    w.timed_ns = (prev - timed_start).as_nanos() as u64;
    w.stats = h.take_stats();
    (w, p)
}

/// The outcome of reconciling a ledger with a quiescent structure.
pub struct Check {
    pub failed: u64,
    pub notes: Vec<String>,
}

/// Adds each drive's ledger into `net`.
pub fn accumulate(net: &mut [i64], d: &Drive) {
    for w in &d.workers {
        for (n, &x) in net.iter_mut().zip(&w.net) {
            *n += i64::from(x);
        }
    }
}

/// Checks the quiescent `set` against the prefill plus the ledger `net`
/// of won adds and removes. A failed check is a key whose membership
/// contradicts the ledger (or whose ledger is itself impossible), a
/// `contains` that contradicted a never-written key, an
/// `InvariantViolation`, or a panic inside `collect_keys` or
/// `check_invariants`. Nothing is retried. `invariants: false` skips
/// `check_invariants` (see `Spec::invariants`).
pub fn reconcile<S: ConcurrentOrderedSet<i64>>(
    set: &mut S,
    inp: &Inputs,
    net: &[i64],
    wrong_contains: u64,
    invariants: bool,
) -> Check {
    let mut c = Check {
        failed: wrong_contains,
        notes: Vec::new(),
    };
    if wrong_contains > 0 {
        c.notes.push(format!(
            "{wrong_contains} contains answers contradict never-written keys"
        ));
    }
    let mut expect: Vec<i64> = net.to_vec();
    for &i in &inp.prefill {
        expect[i as usize] += 1;
    }
    match catch_unwind(AssertUnwindSafe(|| set.collect_keys())) {
        Ok(found) => {
            let mut present = vec![false; expect.len()];
            let mut foreign = 0u64;
            for k in &found {
                match inp.keys.binary_search(k) {
                    Ok(i) if !present[i] => present[i] = true,
                    _ => foreign += 1,
                }
            }
            let wrong = expect
                .iter()
                .zip(&present)
                .filter(|&(&e, &p)| !(e == 0 || e == 1) || p != (e == 1))
                .count() as u64;
            if foreign + wrong > 0 {
                c.notes.push(format!(
                    "ledger: {wrong} keys contradict the won adds/removes, \
                     {foreign} unexpected or duplicate keys"
                ));
            }
            c.failed += foreign + wrong;
        }
        Err(e) => {
            c.failed += 1;
            c.notes
                .push(format!("collect_keys panicked: {}", panic_text(&e)));
        }
    }
    if !invariants {
        return c;
    }
    match catch_unwind(AssertUnwindSafe(|| set.check_invariants())) {
        Ok(Ok(())) => {}
        Ok(Err(v)) => {
            c.failed += 1;
            c.notes.push(format!("check_invariants: {v}"));
        }
        Err(e) => {
            c.failed += 1;
            c.notes
                .push(format!("check_invariants panicked: {}", panic_text(&e)));
        }
    }
    c
}

fn panic_text(e: &Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::spec;
    use pragmatic_list::variants::DoublyCursorList;
    use pragmatic_list::InvariantViolation;
    use std::sync::atomic::AtomicBool;

    /// A set that answers one `add` of an absent key with `true` but
    /// never inserts it.
    struct DropsOneAdd {
        inner: DoublyCursorList<i64>,
        dropped: AtomicBool,
    }

    struct DropsHandle<'a> {
        inner: <DoublyCursorList<i64> as ConcurrentOrderedSet<i64>>::Handle<'a>,
        dropped: &'a AtomicBool,
    }

    impl SetHandle<i64> for DropsHandle<'_> {
        fn add(&mut self, key: i64) -> bool {
            if !self.inner.contains(key) && !self.dropped.swap(true, Relaxed) {
                return true;
            }
            self.inner.add(key)
        }
        fn remove(&mut self, key: i64) -> bool {
            self.inner.remove(key)
        }
        fn contains(&mut self, key: i64) -> bool {
            self.inner.contains(key)
        }
        fn stats(&self) -> OpStats {
            self.inner.stats()
        }
        fn take_stats(&mut self) -> OpStats {
            self.inner.take_stats()
        }
    }

    impl ConcurrentOrderedSet<i64> for DropsOneAdd {
        type Handle<'a> = DropsHandle<'a>;
        const NAME: &'static str = "drops_one_add";
        fn new() -> Self {
            DropsOneAdd {
                inner: DoublyCursorList::new(),
                dropped: AtomicBool::new(false),
            }
        }
        fn handle(&self) -> DropsHandle<'_> {
            DropsHandle {
                inner: self.inner.handle(),
                dropped: &self.dropped,
            }
        }
        fn collect_keys(&mut self) -> Vec<i64> {
            self.inner.collect_keys()
        }
        fn check_invariants(&mut self) -> Result<(), InvariantViolation> {
            self.inner.check_invariants()
        }
    }

    const SHORT: Plan = Plan {
        warmup: Duration::ZERO,
        timed: Duration::from_secs(30),
        max_ops: 4000,
        trace: true,
        threads: THREADS,
    };

    fn run_checked<S: ConcurrentOrderedSet<i64>>() -> (Check, Drive) {
        let inp = spec("drift").unwrap().generate(11);
        let fixed = fixed_answers(&inp);
        let set = S::new();
        let mut h = set.handle();
        for &i in &inp.prefill {
            h.add(inp.keys[i as usize]);
        }
        drop(h);
        let mut pos = vec![0; THREADS];
        let d = drive(&set, &inp, &fixed, &mut pos, SHORT, None);
        assert_eq!(pos, vec![4000; THREADS]);
        let mut net = vec![0; inp.key_range as usize];
        accumulate(&mut net, &d);
        let wrong: u64 = d.workers.iter().map(|w| w.wrong_contains).sum();
        let mut set = set;
        (reconcile(&mut set, &inp, &net, wrong, true), d)
    }

    #[test]
    fn a_correct_set_passes_the_ledger() {
        let (c, d) = run_checked::<DoublyCursorList<i64>>();
        assert_eq!(c.failed, 0, "{:?}", c.notes);
        assert_eq!(d.attempted(), 8000);
        assert_eq!(d.reads().count() + d.writes().count(), 8000);
        assert!(d.workers.iter().all(|w| w.spans.len() == 4000));
    }

    #[test]
    fn a_silently_dropped_add_is_flagged() {
        let (c, _) = run_checked::<DropsOneAdd>();
        assert!(c.failed >= 1, "the dropped add went unnoticed");
        assert!(c.notes.iter().any(|n| n.starts_with("ledger")));
    }

    #[test]
    fn span_buffer_decimates_instead_of_growing() {
        let inp = spec("drift").unwrap().generate(5);
        let fixed = fixed_answers(&inp);
        let set = DoublyCursorList::<i64>::new();
        let mut pos = vec![0; THREADS];
        let plan = Plan {
            max_ops: 3 * SPAN_CAP as u64,
            ..SHORT
        };
        let d = drive(&set, &inp, &fixed, &mut pos, plan, None);
        for w in &d.workers {
            assert!(w.spans.len() <= SPAN_CAP && w.spans.len() >= SPAN_CAP / 2);
            assert!(w.spans.windows(2).all(|s| s[0].start_ns <= s[1].start_ns));
        }
    }
}
