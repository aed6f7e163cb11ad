//! Two-sample Kolmogorov–Smirnov test.
//!
//! The calibration harness compares distributions the synthetic generator
//! produces (over-provisioning ratios, group sizes, runtimes) against
//! reference samples — KS distance is the standard scale-free measure for
//! that, and the asymptotic p-value flags drift.

/// Result of a two-sample KS comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// Supremum distance between the two empirical CDFs, in `[0, 1]`.
    pub statistic: f64,
    /// Asymptotic two-sided p-value (Kolmogorov distribution
    /// approximation); small values reject "same distribution".
    pub p_value: f64,
}

/// Two-sample KS test. Returns `None` when either sample is empty after
/// dropping non-finite values.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> Option<KsResult> {
    let mut xs: Vec<f64> = a.iter().copied().filter(|v| v.is_finite()).collect();
    let mut ys: Vec<f64> = b.iter().copied().filter(|v| v.is_finite()).collect();
    if xs.is_empty() || ys.is_empty() {
        return None;
    }
    #[expect(
        clippy::expect_used,
        reason = "invariant: non-finite values were filtered out above"
    )]
    xs.sort_by(|p, q| p.partial_cmp(q).expect("finite"));
    #[expect(
        clippy::expect_used,
        reason = "invariant: non-finite values were filtered out above"
    )]
    ys.sort_by(|p, q| p.partial_cmp(q).expect("finite"));

    // Walk the merged order, tracking both ECDFs.
    let (n, m) = (xs.len(), ys.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut d = 0.0f64;
    while i < n && j < m {
        let x = xs[i].min(ys[j]);
        while i < n && xs[i] <= x {
            i += 1;
        }
        while j < m && ys[j] <= x {
            j += 1;
        }
        let diff = (i as f64 / n as f64 - j as f64 / m as f64).abs();
        d = d.max(diff);
    }

    // Asymptotic p-value: Q_KS(sqrt(en) * d) with the standard small-sample
    // correction (Press et al., Numerical Recipes).
    let en = (n as f64 * m as f64 / (n as f64 + m as f64)).sqrt();
    let lambda = (en + 0.12 + 0.11 / en) * d;
    Some(KsResult {
        statistic: d,
        p_value: kolmogorov_q(lambda),
    })
}

/// Kolmogorov survival function `Q(λ) = 2 Σ (-1)^(k-1) exp(-2 k² λ²)`.
fn kolmogorov_q(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, scale: f64) -> Vec<f64> {
        (0..n).map(|i| i as f64 / n as f64 * scale).collect()
    }

    #[test]
    fn identical_samples_have_zero_distance() {
        let a = ramp(500, 1.0);
        let r = ks_two_sample(&a, &a).unwrap();
        assert!(r.statistic < 1e-12);
        assert!(r.p_value > 0.99);
    }

    #[test]
    fn disjoint_samples_have_distance_one() {
        let a = ramp(200, 1.0);
        let b: Vec<f64> = ramp(200, 1.0).iter().map(|v| v + 10.0).collect();
        let r = ks_two_sample(&a, &b).unwrap();
        assert!((r.statistic - 1.0).abs() < 1e-12);
        assert!(r.p_value < 1e-6);
    }

    #[test]
    fn same_distribution_different_draws_passes() {
        // Two interleaved halves of one uniform grid.
        let a: Vec<f64> = (0..500).map(|i| (2 * i) as f64).collect();
        let b: Vec<f64> = (0..500).map(|i| (2 * i + 1) as f64).collect();
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(r.statistic < 0.05, "D = {}", r.statistic);
        assert!(r.p_value > 0.5, "p = {}", r.p_value);
    }

    #[test]
    fn shifted_distribution_detected() {
        let a = ramp(1_000, 1.0);
        let b: Vec<f64> = ramp(1_000, 1.0).iter().map(|v| v * 1.5).collect();
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(r.statistic > 0.2);
        assert!(r.p_value < 0.01);
    }

    #[test]
    fn empty_and_non_finite_inputs() {
        assert!(ks_two_sample(&[], &[1.0]).is_none());
        assert!(ks_two_sample(&[f64::NAN], &[1.0]).is_none());
        assert!(ks_two_sample(&[1.0], &[1.0]).is_some());
    }

    #[test]
    fn unequal_sample_sizes() {
        let a = ramp(1_000, 1.0);
        let b = ramp(37, 1.0);
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(r.statistic < 0.1);
        assert!(r.p_value > 0.2);
    }

    #[test]
    fn kolmogorov_q_boundaries() {
        assert_eq!(kolmogorov_q(0.0), 1.0);
        assert!(kolmogorov_q(0.3) > 0.99);
        assert!(kolmogorov_q(2.0) < 0.001);
    }
}
