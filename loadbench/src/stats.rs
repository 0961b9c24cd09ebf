//! The benchmark's own latency statistics.
//!
//! Latencies are recorded into a log-linear histogram: 32 linear
//! sub-buckets per power of two, so any reported quantile lies within
//! 1/64 of the true sample value. The program's own histograms
//! (`LatencyHistogram`) use log₂ buckets and are read only for their
//! count and sum.

/// Linear sub-buckets per octave.
const SUB: u64 = 32;
const SUB_BITS: u32 = 5;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Log-linear histogram of nanosecond values.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let sub = (v >> (msb - SUB_BITS)) & (SUB - 1);
        ((msb - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// Midpoint of bucket `i`.
    fn value_of(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB {
            return i;
        }
        let shift = (i / SUB - 1) as u32;
        let lower = (SUB + i % SUB) << shift;
        lower + (1u64 << shift) / 2
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The sample of rank `ceil(q · count)` (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value_of(i);
            }
        }
        Self::value_of(BUCKETS - 1)
    }
}

/// Median of `values` (0 when empty); averages the two middle values of
/// an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kera_common::rng::SplitMix64;

    #[test]
    fn small_values_are_exact() {
        let mut h = Hist::new();
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.count(), 32);
    }

    #[test]
    fn quantiles_within_one_in_sixty_four() {
        let mut rng = SplitMix64::new(7);
        let mut h = Hist::new();
        let mut exact = Vec::new();
        for _ in 0..100_000 {
            // Spread over nine decades.
            let v = rng.next_below(1_000) * 10u64.pow(rng.next_below(7) as u32) + 1;
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * exact.len() as f64).ceil() as usize).max(1);
            let truth = exact[rank - 1] as f64;
            let got = h.quantile(q) as f64;
            assert!(
                (got - truth).abs() <= truth / 64.0 + 0.5,
                "q={q}: {got} vs {truth}"
            );
        }
        let mean = exact.iter().map(|&v| v as f64).sum::<f64>() / exact.len() as f64;
        assert!((h.mean() - mean).abs() < 1e-6 * mean);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
