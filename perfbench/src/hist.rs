//! Log-linear (HDR-style) latency histogram.
//!
//! Values below `2 * SUB` are counted exactly; above that every power of
//! two is split into `SUB` equal sub-buckets, so a bucket is never wider
//! than `1/SUB` of its lower bound. With `SUB = 128` a reported quantile
//! is within 0.4% of the exact sample quantile (the bucket midpoint is
//! reported), instead of the up-to-2x error of power-of-two bounds.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Enough buckets for every `u64` value.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Counts of `u64` samples (nanoseconds here) in log-linear buckets.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (SUB * (u64::from(shift) + 1) + ((v >> shift) - SUB)) as usize
}

/// Inclusive value range `[lo, hi]` of bucket `b`.
fn bucket_range(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < 2 * SUB {
        return (b, b);
    }
    let shift = b / SUB - 1;
    let lo = (SUB + b % SUB) << shift;
    (lo, lo + (1 << shift) - 1)
}

impl Histogram {
    /// Counts one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    /// Number of samples counted.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The non-empty buckets as `bucket:count` pairs, comma-separated
    /// (how a trial process hands its samples to the parent run).
    pub fn encode(&self) -> String {
        let pairs: Vec<String> = (self.counts.iter().enumerate())
            .filter(|&(_, &c)| c > 0)
            .map(|(b, c)| format!("{b}:{c}"))
            .collect();
        pairs.join(",")
    }

    /// The inverse of [`encode`](Histogram::encode); `None` if malformed.
    pub fn decode(s: &str) -> Option<Histogram> {
        let mut h = Histogram::default();
        for pair in s.split(',').filter(|p| !p.is_empty()) {
            let (b, c) = pair.split_once(':')?;
            let (b, c): (usize, u64) = (b.parse().ok()?, c.parse().ok()?);
            *h.counts.get_mut(b)? += c;
            h.total += c;
        }
        Some(h)
    }

    /// The nearest-rank `q`-quantile (`q` in `(0, 1]`): the midpoint of
    /// the bucket holding the `ceil(q * n)`-th smallest sample. `0.0`
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_range(b);
                return (lo as f64 + hi as f64) / 2.0;
            }
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_value_space() {
        let mut next = 0u64;
        for b in 0..bucket_of(1 << 40) {
            let (lo, hi) = bucket_range(b);
            assert_eq!(lo, next, "bucket {b} starts where {} ended", b.max(1) - 1);
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi), b);
            assert!((hi - lo) as f64 <= lo as f64 / SUB as f64);
            next = hi + 1;
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_match_an_exact_sort() {
        // Skewed, latency-like samples: a fast body and a long tail.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut samples = Vec::new();
        let mut h = Histogram::default();
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            let v = (150.0 / (1.0 - u).powf(0.7)) as u64;
            samples.push(v);
            h.record(v);
        }
        samples.sort_unstable();
        let n = samples.len() as f64;
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0] {
            let exact = samples[((q * n).ceil() as usize).clamp(1, samples.len()) - 1] as f64;
            let est = h.quantile(q);
            assert!(
                (est - exact).abs() <= exact / (2 * SUB) as f64 + 0.5,
                "q={q}: histogram {est} vs exact {exact}"
            );
        }
        assert_eq!(h.count(), 200_000);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for v in 0..5000u64 {
            let v = v * v % 100_003;
            if v % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            both.record(v);
        }
        a.merge(&b);
        for q in [0.5, 0.99] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
        let round = Histogram::decode(&a.encode()).unwrap();
        assert_eq!(round.count(), a.count());
        assert_eq!(round.quantile(0.99), a.quantile(0.99));
        assert!(Histogram::decode("3:x").is_none());
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }
}
