//! Workload definitions and seeded per-thread operation tapes.
//!
//! The parameters are copied here on purpose rather than taken from the
//! `bench-harness` presets and run functions, so a refactor of those cannot
//! shift the benchmark's inputs. Tapes are generated from `--seed`
//! before anything is timed; the structures only ever see the keys.

/// Worker threads of every closed-loop run (the benchmark host has 2
/// cores; each thread issues its next op when the previous one returns).
pub const THREADS: usize = 2;

pub const ADD: u32 = 0;
pub const REMOVE: u32 = 1;
pub const CONTAINS: u32 = 2;

/// One tape entry: op kind in the top two bits, key index below.
#[inline]
pub fn pack(kind: u32, idx: u32) -> u32 {
    debug_assert!(idx < 1 << 30);
    kind << 30 | idx
}

#[inline]
pub fn kind_of(op: u32) -> u32 {
    op >> 30
}

#[inline]
pub fn idx_of(op: u32) -> u32 {
    op & ((1 << 30) - 1)
}

/// The key for key index `idx` of a range of `range` indices: a monotone
/// spread over the whole `i64` domain, so range-partitioned (elastic)
/// structures see their full keyspace while lists, which only compare
/// keys, do the same work as on `idx` itself.
#[inline]
pub fn key_of(idx: u32, range: u32) -> i64 {
    let u = ((u128::from(idx) * u128::from(u64::MAX - 2)) / u128::from(range)) as u64;
    (u.clamp(1, u64::MAX - 1) ^ (1 << 63)) as i64
}

/// SplitMix64: small, fast and good enough to draw benchmark inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    #[inline]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }
}

/// Zipfian ranks over `[0, n)` with skew `theta` in `(0, 1)`, rank 0 the
/// most frequent (Gray et al., "Quickly generating billion-record
/// synthetic databases", the YCSB construction).
pub struct Zipf {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zetan: f64 = (1..=n).map(|i| (i as f64).powf(-theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        Zipf {
            n,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// Percentages of add / remove (the rest are contains).
#[derive(Clone, Copy)]
pub struct Mix {
    pub add: u64,
    pub remove: u64,
}

impl Mix {
    /// The paper's Figures 1-3 mix and the drift write bursts: 25/25/50.
    pub const UPDATE_HEAVY: Mix = Mix {
        add: 25,
        remove: 25,
    };
    /// The paper's tables mix: 10/10/80.
    pub const READ_HEAVY: Mix = Mix {
        add: 10,
        remove: 10,
    };
    /// The delegation stress mix: 40/40/20.
    pub const WRITE_HEAVY: Mix = Mix {
        add: 40,
        remove: 40,
    };

    #[inline]
    fn kind(self, rng: &mut Rng) -> u32 {
        let p = rng.below(100);
        if p < self.add {
            ADD
        } else if p < self.add + self.remove {
            REMOVE
        } else {
            CONTAINS
        }
    }
}

/// How keys are drawn within one phase of a tape.
#[derive(Clone, Copy)]
pub enum Keys {
    Uniform,
    /// Clustered Zipfian: rank `r` maps to index `(r + hotspot * U) % U`,
    /// so the hot ranks are adjacent keys.
    Zipf {
        theta: f64,
        hotspot: f64,
    },
}

/// One segment of each thread's tape.
#[derive(Clone, Copy)]
pub struct Phase {
    /// Relative length of the phase.
    pub weight: u64,
    pub mix: Mix,
    pub keys: Keys,
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["paper_mix", "drift", "zipf_write"];

/// The arm of the morphing elastic stack a workload's shards run at
/// their workload's population (the ladder's R0).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Arm {
    Unrolled,
    Skip,
}

/// A workload's definition: key range, prefill, mix and skew.
pub struct Spec {
    pub name: &'static str,
    pub key_range: u32,
    /// Distinct keys inserted before the run: uniform random indices when
    /// the first phase draws uniform keys, else that phase's hottest ranks
    /// `0..prefill` in rank order.
    pub prefill: u32,
    pub phases: Vec<Phase>,
    /// Ops per thread of each tape (tapes repeat when a run outlasts them).
    pub tape_len: usize,
    /// Ops per thread of each traced-run replay rung.
    pub replay_ops: usize,
    /// Ops of the single-threaded exact-count replay.
    pub t1_ops: usize,
    /// The shard arm the ladder's R0 runs alone.
    pub arm: Arm,
    /// Whether the post-run check calls `check_invariants`. The skiplist
    /// and doubly-list validators are quadratic in list length (a linear
    /// membership scan per upper-level node, a backward-chain walk per
    /// node): over a minute per check at a million keys.
    pub invariants: bool,
}

pub fn spec(name: &str) -> Option<Spec> {
    let zipf = |theta, hotspot| Keys::Zipf { theta, hotspot };
    let ph = |weight, mix, keys| Phase { weight, mix, keys };
    Some(match name {
        // The paper's Figures 1-3 random mix: uniform keys in [0, 32768),
        // 16384 prefilled, 25/25/50, on variant f (doubly_cursor).
        "paper_mix" => Spec {
            name: "paper_mix",
            key_range: 32_768,
            prefill: 16_384,
            phases: vec![ph(1, Mix::UPDATE_HEAVY, Keys::Uniform)],
            tape_len: 1 << 19,
            replay_ops: 1 << 16,
            t1_ops: 20_000,
            arm: Arm::Skip,
            invariants: true,
        },
        // The 7-phase drift schedule: the hotspot marches 0 -> 0.9, theta
        // relaxes to 0.6 and re-tightens to 0.99, two update-heavy phases.
        "drift" => Spec {
            name: "drift",
            key_range: 10_000,
            prefill: 4_000,
            phases: vec![
                ph(2, Mix::READ_HEAVY, zipf(0.90, 0.00)),
                ph(2, Mix::READ_HEAVY, zipf(0.90, 0.15)),
                ph(1, Mix::UPDATE_HEAVY, zipf(0.95, 0.30)),
                ph(2, Mix::READ_HEAVY, zipf(0.90, 0.45)),
                ph(2, Mix::READ_HEAVY, zipf(0.60, 0.60)),
                ph(2, Mix::READ_HEAVY, zipf(0.99, 0.75)),
                ph(2, Mix::UPDATE_HEAVY, zipf(0.90, 0.90)),
            ],
            tape_len: 1 << 19,
            replay_ops: 1 << 20,
            t1_ops: 20_000,
            arm: Arm::Unrolled,
            invariants: true,
        },
        // The write-heavy delegation pass: clustered theta = 0.99, 40/40/20,
        // 1,000,000 of 2,000,000 keys prefilled.
        "zipf_write" => Spec {
            name: "zipf_write",
            key_range: 2_000_000,
            prefill: 1_000_000,
            phases: vec![ph(1, Mix::WRITE_HEAVY, zipf(0.99, 0.0))],
            tape_len: 1 << 21,
            replay_ops: 1 << 19,
            t1_ops: 200,
            arm: Arm::Skip,
            invariants: false,
        },
        _ => return None,
    })
}

/// A workload's generated inputs.
pub struct Inputs {
    pub key_range: u32,
    /// The key of each key index (`key_of`), ascending.
    pub keys: Vec<i64>,
    /// Prefill key indices, in insertion order.
    pub prefill: Vec<u32>,
    /// One tape per worker thread.
    pub tapes: Vec<Vec<u32>>,
    /// Whether each key index occurs in any add or remove of any tape:
    /// `contains` on an untouched key has a known answer.
    pub written: Vec<bool>,
}

impl Spec {
    pub fn generate(&self, seed: u64) -> Inputs {
        let u = self.key_range;
        let prefill = match self.phases[0].keys {
            Keys::Uniform => {
                let mut rng = Rng::new(seed, 0xF111);
                let mut taken = vec![false; u as usize];
                let mut keys = Vec::with_capacity(self.prefill as usize);
                while keys.len() < self.prefill as usize {
                    let i = rng.below(u64::from(u)) as u32;
                    if !std::mem::replace(&mut taken[i as usize], true) {
                        keys.push(i);
                    }
                }
                keys
            }
            Keys::Zipf { hotspot, .. } => {
                let offset = hotspot_offset(hotspot, u);
                (0..self.prefill).map(|r| (r + offset) % u).collect()
            }
        };
        let samplers: Vec<Option<Zipf>> = self
            .phases
            .iter()
            .map(|p| match p.keys {
                Keys::Zipf { theta, .. } => Some(Zipf::new(u64::from(u), theta)),
                Keys::Uniform => None,
            })
            .collect();
        let total_weight: u64 = self.phases.iter().map(|p| p.weight).sum();
        let mut written = vec![false; u as usize];
        let tapes = (0..THREADS)
            .map(|t| {
                let mut rng = Rng::new(seed, t as u64 + 1);
                let mut tape = Vec::with_capacity(self.tape_len);
                for (p, zipf) in self.phases.iter().zip(&samplers) {
                    let n = self.tape_len as u64 * p.weight / total_weight;
                    for _ in 0..n {
                        let kind = p.mix.kind(&mut rng);
                        let idx = match (p.keys, zipf) {
                            (Keys::Zipf { hotspot, .. }, Some(z)) => {
                                ((z.sample(&mut rng) as u32) + hotspot_offset(hotspot, u)) % u
                            }
                            _ => rng.below(u64::from(u)) as u32,
                        };
                        if kind != CONTAINS {
                            written[idx as usize] = true;
                        }
                        tape.push(pack(kind, idx));
                    }
                }
                tape
            })
            .collect();
        Inputs {
            key_range: u,
            keys: (0..u).map(|i| key_of(i, u)).collect(),
            prefill,
            tapes,
            written,
        }
    }
}

fn hotspot_offset(hotspot: f64, u: u32) -> u32 {
    ((hotspot * f64::from(u)) as u32).min(u - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tapes_are_a_function_of_the_seed() {
        let s = spec("drift").unwrap();
        let (a, b, c) = (s.generate(7), s.generate(7), s.generate(8));
        assert_eq!(a.tapes, b.tapes);
        assert_eq!(a.prefill, b.prefill);
        assert_ne!(a.tapes, c.tapes);
        assert_eq!(a.tapes.len(), THREADS);
        assert!(a.tapes.iter().all(|t| t.len() <= s.tape_len));
    }

    #[test]
    fn paper_mix_prefill_is_distinct_and_mix_is_25_25_50() {
        let s = spec("paper_mix").unwrap();
        let inp = s.generate(3);
        let mut p = inp.prefill.clone();
        p.sort_unstable();
        p.dedup();
        assert_eq!(p.len(), 16_384);
        let tape = &inp.tapes[0];
        let adds = tape.iter().filter(|&&o| kind_of(o) == ADD).count() as f64;
        assert!((adds / tape.len() as f64 - 0.25).abs() < 0.01);
        assert!(tape.iter().all(|&o| idx_of(o) < 32_768));
    }

    #[test]
    fn zipf_rank_zero_is_hot() {
        let z = Zipf::new(2_000_000, 0.99);
        let mut rng = Rng::new(1, 1);
        let n = 200_000;
        let zeros = (0..n).filter(|_| z.sample(&mut rng) == 0).count() as f64;
        // P(rank 0) = 1 / zeta(n, 0.99), about 0.062 for n = 2M.
        assert!((zeros / n as f64 - 0.062).abs() < 0.005, "{zeros}");
    }

    #[test]
    fn key_spread_is_monotone_and_inside_the_sentinels() {
        let u = 10_000;
        let keys: Vec<i64> = (0..u).map(|i| key_of(i, u)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(keys[0] > i64::MIN && keys[u as usize - 1] < i64::MAX);
    }
}
