//! Log-linear latency histogram kept by the benchmark itself.
//!
//! Values below 128 are counted exactly. Above that, every power of two
//! is split into 128 equal sub-buckets, so a bucket spans at most 1/128
//! of its lower bound and the reported quantile (the bucket midpoint) is
//! within 0.4 % of every sample in that bucket. The program's own log2
//! histograms report bucket upper bounds and can be 2x off; they are
//! never used for a reported percentile.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    (((u64::from(shift) + 1) << SUB_BITS) + ((v >> shift) - SUB)) as usize
}

/// Midpoint of bucket `i`, the value reported for samples that fell in it.
fn midpoint(i: usize) -> f64 {
    let i = i as u64;
    if i < SUB {
        return i as f64;
    }
    let shift = (i >> SUB_BITS) - 1;
    let lower = (SUB + (i & (SUB - 1))) << shift;
    lower as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Sample count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile by nearest rank (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((self.n as f64 * q).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return midpoint(i);
            }
        }
        unreachable!("rank never exceeds the sample count")
    }

    /// Samples strictly above the `q`-quantile's bucket: a percentile is
    /// only reported with at least ten of these behind it.
    pub fn beyond(&self, q: f64) -> u64 {
        let rank = ((self.n as f64 * q).ceil() as u64).clamp(1, self.n.max(1));
        self.n.saturating_sub(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_tight() {
        let mut last = 0;
        for v in [0u64, 1, 127, 128, 129, 255, 256, 257, 1 << 20, u64::MAX] {
            let i = index(v);
            assert!(i >= last && i < BUCKETS, "{v} -> {i}");
            last = i;
            let mid = midpoint(i);
            if v > 0 {
                assert!((mid - v as f64).abs() / v as f64 <= 1.0 / 128.0, "{v}");
            }
        }
        for v in 0..100_000u64 {
            assert!(index(v + 1) - index(v) <= 1);
        }
    }

    #[test]
    fn quantiles_are_within_one_percent() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, want) in [(0.5, 50_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.01, "q{q}: {got}");
        }
        assert_eq!(h.beyond(0.99), 1_000);
    }
}
