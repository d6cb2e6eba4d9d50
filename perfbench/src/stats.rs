//! Order statistics for the report.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The best of `values`: the rate of the fastest of several stretches
/// of equal work. On a shared host a neighbour can slow a stretch but
/// never speed it up, so the fastest stretch is the program's own
/// speed. On a two-core VM, over five runs of the same code, the
/// 90th-percentile stretch spread by 7–19% and the best stretch by
/// 2–4% (`table2`, `degraded`, serve executes).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn best(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "best of nothing");
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Latency histogram of fixed size: 100 ns buckets below 1 ms, 10 µs
/// buckets below 100 ms, one overflow bucket. Its memory does not grow
/// with the number of samples, so a faster program does not show up as
/// a bigger one.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: f64,
}

const FINE_NS: u64 = 100;
const FINE_LIMIT_NS: u64 = 1_000_000;
const COARSE_NS: u64 = 10_000;
const COARSE_LIMIT_NS: u64 = 100_000_000;
const FINE_BUCKETS: usize = (FINE_LIMIT_NS / FINE_NS) as usize;
const BUCKETS: usize = FINE_BUCKETS + ((COARSE_LIMIT_NS - FINE_LIMIT_NS) / COARSE_NS) as usize + 1;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0.0,
        }
    }
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        let b = if ns < FINE_LIMIT_NS {
            (ns / FINE_NS) as usize
        } else if ns < COARSE_LIMIT_NS {
            FINE_BUCKETS + ((ns - FINE_LIMIT_NS) / COARSE_NS) as usize
        } else {
            BUCKETS - 1
        };
        self.buckets[b] += 1;
        self.count += 1;
        self.sum_ns += ns as f64;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of the samples in ns.
    #[must_use]
    pub fn sum_ns(&self) -> f64 {
        self.sum_ns
    }

    /// The `p`-quantile's bucket floor in ns, by nearest rank. Refused
    /// when fewer than ten samples lie beyond it, since a tail
    /// percentile read off a handful of samples is one unlucky sample,
    /// not a tail, and when it falls in the overflow bucket.
    #[must_use]
    pub fn percentile_ns(&self, p: f64) -> Option<f64> {
        assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
        let rank = (p * self.count as f64).ceil() as u64;
        if rank == 0 || self.count - rank < 10 {
            return None;
        }
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return match b {
                    b if b < FINE_BUCKETS => Some((b as u64 * FINE_NS) as f64),
                    b if b < BUCKETS - 1 => {
                        Some((FINE_LIMIT_NS + (b - FINE_BUCKETS) as u64 * COARSE_NS) as f64)
                    }
                    _ => None,
                };
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_match_the_samples_and_refuse_thin_tails() {
        let mut h = Histogram::default();
        for us in 1..=100u64 {
            h.record(us * 1_000);
        }
        assert_eq!(h.percentile_ns(0.5), Some(50_000.0));
        // p90 of 100 samples has exactly ten beyond it: the thinnest
        // tail accepted.
        assert_eq!(h.percentile_ns(0.9), Some(90_000.0));
        assert_eq!(h.percentile_ns(0.91), None);
        assert_eq!(h.percentile_ns(0.99), None, "one sample beyond p99");
        for ms in 1..=1000u64 {
            h.record(ms * 10_000);
        }
        // Rank 1089 of 1100: eleven samples (9.90..=10.00 ms) lie
        // beyond it. Buckets above 1 ms are 10 µs wide.
        assert_eq!(h.percentile_ns(0.99), Some(9_890_000.0));
        assert_eq!(h.count(), 1100);
        h.record(u64::MAX);
        assert!(h.percentile_ns(0.5).is_some());
        let mut sum = Histogram::default();
        sum.merge(&h);
        sum.merge(&h);
        assert_eq!(sum.count(), 2 * h.count());
        assert_eq!(sum.percentile_ns(0.5), h.percentile_ns(0.5));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn best_is_the_largest() {
        assert_eq!(best(&[2.0, 7.5, 3.0]), 7.5);
        assert_eq!(best(&[5.0]), 5.0);
    }
}
