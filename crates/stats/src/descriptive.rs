//! Batch descriptive statistics: means, variances, percentiles, summaries.

/// A one-pass numeric summary of a sample.
///
/// Percentile queries require the data to be retained and sorted, so
/// [`Summary`] is built from a slice rather than streamed.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean; 0 for an empty sample.
    pub mean: f64,
    /// Unbiased (n-1) sample variance; 0 for samples of size < 2.
    pub variance: f64,
    /// Smallest observation; +inf for an empty sample.
    pub min: f64,
    /// Largest observation; -inf for an empty sample.
    pub max: f64,
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarize `data`. Non-finite values are ignored.
    pub fn from_slice(data: &[f64]) -> Self {
        let mut sorted: Vec<f64> = data.iter().copied().filter(|v| v.is_finite()).collect();
        #[expect(
            clippy::expect_used,
            reason = "invariant: non-finite values were filtered out above"
        )]
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let count = sorted.len();
        let mean = if count == 0 {
            0.0
        } else {
            sorted.iter().sum::<f64>() / count as f64
        };
        let variance = if count < 2 {
            0.0
        } else {
            sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (count as f64 - 1.0)
        };
        let min = sorted.first().copied().unwrap_or(f64::INFINITY);
        let max = sorted.last().copied().unwrap_or(f64::NEG_INFINITY);
        Summary {
            count,
            mean,
            variance,
            min,
            max,
            sorted,
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Percentile in `[0, 100]` using linear interpolation between order
    /// statistics (the "linear" / type-7 method). Returns `None` for an
    /// empty sample or an out-of-range `p`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() || !(0.0..=100.0).contains(&p) {
            return None;
        }
        let n = self.sorted.len();
        if n == 1 {
            return Some(self.sorted[0]);
        }
        let rank = p / 100.0 * (n as f64 - 1.0);
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        Some(self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac)
    }

    /// Median (50th percentile).
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Fraction of observations `>= threshold`. Returns 0 for an empty sample.
    pub fn fraction_at_least(&self, threshold: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v < threshold);
        (self.sorted.len() - idx) as f64 / self.sorted.len() as f64
    }
}

/// Arithmetic mean of a slice; 0 for an empty slice.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        0.0
    } else {
        data.iter().sum::<f64>() / data.len() as f64
    }
}

/// Geometric mean of a slice of positive values; 0 if empty or any value is
/// non-positive. Used for bounded-slowdown aggregation, where the literature
/// prefers geometric means because slowdowns are ratio-scale.
pub fn geometric_mean(data: &[f64]) -> f64 {
    if data.is_empty() || data.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    let log_sum: f64 = data.iter().map(|v| v.ln()).sum();
    (log_sum / data.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::from_slice(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.variance, 0.0);
        assert!(s.percentile(50.0).is_none());
        assert_eq!(s.fraction_at_least(1.0), 0.0);
    }

    #[test]
    fn single_element() {
        let s = Summary::from_slice(&[7.5]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.5);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.percentile(0.0), Some(7.5));
        assert_eq!(s.percentile(100.0), Some(7.5));
    }

    #[test]
    fn known_mean_and_variance() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sum of squared deviations = 32; n-1 = 7.
        assert!((s.variance - 32.0 / 7.0).abs() < 1e-12);
        assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(100.0), Some(4.0));
        assert!((s.median().unwrap() - 2.5).abs() < 1e-12);
        assert!((s.percentile(25.0).unwrap() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_rejects_out_of_range() {
        let s = Summary::from_slice(&[1.0, 2.0]);
        assert!(s.percentile(-1.0).is_none());
        assert!(s.percentile(100.1).is_none());
    }

    #[test]
    fn non_finite_values_ignored() {
        let s = Summary::from_slice(&[1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(s.count, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_at_least_counts_ties() {
        let s = Summary::from_slice(&[1.0, 2.0, 2.0, 3.0]);
        assert!((s.fraction_at_least(2.0) - 0.75).abs() < 1e-12);
        assert!((s.fraction_at_least(3.5) - 0.0).abs() < 1e-12);
        assert!((s.fraction_at_least(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_matches_hand_computation() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
        assert_eq!(geometric_mean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
