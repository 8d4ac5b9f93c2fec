//! The benchmark's own arithmetic: percentiles under the sample-count rule
//! and work-per-window throughput.

/// Percentile ladder in per-mille, lowest first.
const LADDER_PERMILLE: [u64; 4] = [500, 900, 990, 999];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: u64 = 10;

/// Nearest-rank index (1-based) of the `permille` percentile of `n`
/// samples, in integer arithmetic so `990` of `1000` is exactly rank 990.
fn rank(n: u64, permille: u64) -> u64 {
    (n * permille).div_ceil(1000).max(1)
}

/// Whether `n` samples support reporting the `permille` percentile: at
/// least [`MIN_BEYOND`] samples must lie beyond its rank. This is what
/// forbids a p99 below 1000 samples and a p50 below 20.
pub fn supports(n: u64, permille: u64) -> bool {
    n >= rank(n, permille) + MIN_BEYOND
}

/// The highest percentile on the ladder that `n` samples support.
pub fn highest_supported(n: u64) -> Option<u64> {
    LADDER_PERMILLE.iter().copied().rfind(|&p| supports(n, p))
}

/// A set of latency samples, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> u64 {
        self.values.len() as u64
    }

    pub fn clear(&mut self) {
        self.values.clear();
    }

    /// The nearest-rank `permille` percentile, or `None` when the sample
    /// count does not support it.
    pub fn percentile(&self, permille: u64) -> Option<f64> {
        let n = self.len();
        if !supports(n, permille) {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[(rank(n, permille) - 1) as usize])
    }

    /// The percentile, or an error naming the metric and the count that
    /// failed the rule.
    pub fn require(&self, metric: &str, permille: u64) -> Result<f64, String> {
        self.percentile(permille).ok_or_else(|| {
            format!(
                "{metric}: {} samples do not support the {}th per-mille percentile \
                 (need {} beyond it); lengthen the run",
                self.len(),
                permille,
                MIN_BEYOND
            )
        })
    }

    /// The median of the samples regardless of the rule (for the set-up
    /// repetitions, which are few by design and reported as a median).
    pub fn median(&self) -> f64 {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        match sorted.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => sorted[n / 2],
            n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
        }
    }
}

/// Work completed per second of measured window.
pub fn throughput(work: u64, window_s: f64) -> f64 {
    assert!(window_s > 0.0, "empty measurement window");
    work as f64 / window_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_p99_below_1000_samples() {
        assert!(!supports(999, 990));
        assert!(supports(1000, 990));
        assert_eq!(highest_supported(999), Some(900));
        assert_eq!(highest_supported(1000), Some(990));
        assert_eq!(highest_supported(10_000), Some(999));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(500));
        assert_eq!(highest_supported(99), Some(500));
        assert_eq!(highest_supported(100), Some(900));
        for n in 1..3000u64 {
            if let Some(p) = highest_supported(n) {
                assert!(n - rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s = Samples::default();
        for v in 1..=1000 {
            s.push(v as f64);
        }
        assert_eq!(s.percentile(500), Some(500.0));
        assert_eq!(s.percentile(990), Some(990.0));
        assert_eq!(s.percentile(999), None);
        assert!(s.require("frame_ms_p99", 990).is_ok());
        s.clear();
        s.push(1.0);
        assert!(s.require("frame_ms_p99", 990).is_err());
    }

    #[test]
    fn median_of_few_samples() {
        let mut s = Samples::default();
        for v in [3.0, 1.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.0);
        s.push(10.0);
        assert_eq!(s.median(), 2.5);
    }

    #[test]
    fn throughput_is_work_over_window() {
        assert_eq!(throughput(3_000, 1.5), 2_000.0);
        assert_eq!(throughput(0, 2.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty measurement window")]
    fn throughput_rejects_empty_window() {
        throughput(1, 0.0);
    }
}
