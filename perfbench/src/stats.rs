//! Order statistics over the benchmark's own raw samples.
//!
//! Every percentile the benchmark prints comes from here, computed over
//! the exact values it timed. The program's `obs` histograms are never
//! read: their log-spaced buckets turn a tail percentile into a bucket
//! edge.

/// Median, quartiles and the tail of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// A single measured value (a count, a ratio, or one timing).
    pub fn one(value: f64) -> Summary {
        Summary {
            n: 1,
            q1: value,
            median: value,
            q3: value,
            p99: value,
        }
    }

    /// Summarizes `samples` (any order). An empty set summarizes to zeros
    /// with `n == 0`.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                p99: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            q1: percentile_sorted(&sorted, 0.25),
            median: percentile_sorted(&sorted, 0.50),
            q3: percentile_sorted(&sorted, 0.75),
            p99: percentile_sorted(&sorted, 0.99),
        }
    }

    /// Whether at least ten samples lie beyond the 99th percentile, the
    /// least for which that percentile is more than the largest few
    /// samples.
    pub fn p99_supported(&self) -> bool {
        self.n >= 1_000
    }
}

/// The `q`-quantile of an ascending slice, linearly interpolated between
/// the two nearest ranks.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        let even = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(even.median, 2.5);
    }

    #[test]
    fn p99_reads_the_tail_not_a_bucket_edge() {
        let samples: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert!((s.p99 - 990.01).abs() < 1e-9, "{s:?}");
        assert!(s.p99_supported());
        assert!(!Summary::of(&samples[..999]).p99_supported());
    }

    #[test]
    fn empty_and_single_samples() {
        assert_eq!(Summary::of(&[]).n, 0);
        let one = Summary::one(7.5);
        assert_eq!((one.q1, one.median, one.q3, one.p99), (7.5, 7.5, 7.5, 7.5));
    }
}
