//! Empirical distributions: ECDF queries and inverse-CDF sampling.
//!
//! The synthetic workload generator draws over-provisioning ratios, runtimes,
//! and inter-arrival gaps from piecewise distributions calibrated against the
//! statistics the paper reports about the LANL CM5 trace. An
//! [`EmpiricalDistribution`] turns any observed (or designed) sample into a
//! samplable distribution via inverse-transform on uniform variates supplied
//! by the caller, keeping this crate free of RNG dependencies.

/// An empirical distribution built from a finite sample.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalDistribution {
    sorted: Vec<f64>,
}

impl EmpiricalDistribution {
    /// Build from a sample; non-finite values are dropped. Returns `None`
    /// when no finite values remain.
    pub fn from_sample(values: &[f64]) -> Option<Self> {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        #[expect(
            clippy::expect_used,
            reason = "invariant: non-finite values were filtered out above"
        )]
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Some(EmpiricalDistribution { sorted })
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the sample is empty (never: construction forbids it), kept
    /// for API symmetry with `len`.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Empirical CDF: fraction of sample `<= x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF with linear interpolation between order statistics.
    /// `u` must be in `[0, 1]`.
    ///
    /// # Panics
    /// Panics when `u` is outside `[0, 1]`.
    pub fn quantile(&self, u: f64) -> f64 {
        assert!((0.0..=1.0).contains(&u), "u must be in [0, 1]");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let rank = u * (n as f64 - 1.0);
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac
    }

    /// Sample by inverse transform from a uniform variate in `[0, 1)`.
    pub fn sample_with(&self, uniform: f64) -> f64 {
        self.quantile(uniform.clamp(0.0, 1.0))
    }

    /// Smallest sample value.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample value.
    #[expect(
        clippy::expect_used,
        reason = "invariant: `from_sample` never builds an empty distribution"
    )]
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_filters_non_finite() {
        let d = EmpiricalDistribution::from_sample(&[3.0, f64::NAN, 1.0, 2.0]).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.min(), 1.0);
        assert_eq!(d.max(), 3.0);
        assert!(EmpiricalDistribution::from_sample(&[f64::NAN]).is_none());
        assert!(EmpiricalDistribution::from_sample(&[]).is_none());
    }

    #[test]
    fn cdf_steps() {
        let d = EmpiricalDistribution::from_sample(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.cdf(1.0), 0.25);
        assert_eq!(d.cdf(2.5), 0.5);
        assert_eq!(d.cdf(4.0), 1.0);
        assert_eq!(d.cdf(99.0), 1.0);
    }

    #[test]
    fn quantile_interpolates() {
        let d = EmpiricalDistribution::from_sample(&[0.0, 10.0]).unwrap();
        assert_eq!(d.quantile(0.0), 0.0);
        assert_eq!(d.quantile(1.0), 10.0);
        assert!((d.quantile(0.5) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_single_point() {
        let d = EmpiricalDistribution::from_sample(&[7.0]).unwrap();
        assert_eq!(d.quantile(0.0), 7.0);
        assert_eq!(d.quantile(0.7), 7.0);
        assert_eq!(d.quantile(1.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "u must be in [0, 1]")]
    fn quantile_rejects_out_of_range() {
        let d = EmpiricalDistribution::from_sample(&[1.0]).unwrap();
        let _ = d.quantile(1.5);
    }

    #[test]
    fn sample_with_clamps() {
        let d = EmpiricalDistribution::from_sample(&[1.0, 2.0]).unwrap();
        assert_eq!(d.sample_with(-0.1), 1.0);
        assert_eq!(d.sample_with(2.0), 2.0);
    }

    #[test]
    fn quantile_round_trip_cdf() {
        let d = EmpiricalDistribution::from_sample(&[1.0, 2.0, 4.0, 8.0, 16.0]).unwrap();
        for i in 0..=10 {
            let u = i as f64 / 10.0;
            let x = d.quantile(u);
            assert!(x >= d.min() && x <= d.max());
        }
    }
}
