//! Correlation measures: Pearson's r and Spearman's rank correlation.
//!
//! Used by the experiment harness to quantify relationships the paper
//! asserts qualitatively — e.g. that utilization improvements under FCFS
//! "will be correlated" with those under backfilling (§3.1), and the
//! benefiting-node-count relationship behind Figure 8.

/// Pearson product-moment correlation in `[-1, 1]`. Returns `None` for
/// mismatched lengths, fewer than two points, or zero variance on either
/// axis.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        syy += (y - mean_y) * (y - mean_y);
        sxy += (x - mean_x) * (y - mean_y);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some((sxy / (sxx * syy).sqrt()).clamp(-1.0, 1.0))
}

/// Fractional ranks with ties sharing their average rank (the convention
/// Spearman's ρ requires).
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    #[expect(
        clippy::expect_used,
        reason = "invariant: `spearman` rejects non-finite input before ranking"
    )]
    order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("finite values"));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        // Average rank over the tie run [i, j]; ranks are 1-based.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation in `[-1, 1]`: Pearson's r over the rank
/// transforms, robust to monotone nonlinearity. Same `None` conditions as
/// [`pearson`], and `None` when any input is non-finite (NaN has no rank).
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 || !xs.iter().chain(ys).all(|v| v.is_finite()) {
        return None;
    }
    pearson(&ranks(xs), &ranks(ys))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_linear_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(pearson(&[1.0], &[1.0]).is_none());
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_none());
        assert!(pearson(&[1.0, 1.0], &[1.0, 2.0]).is_none());
        assert!(spearman(&[2.0, 2.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn spearman_sees_monotone_nonlinearity() {
        // y = x^3 is nonlinear but perfectly monotone.
        let xs: Vec<f64> = (-5..=5).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.powi(3)).collect();
        let p = pearson(&xs, &ys).unwrap();
        let s = spearman(&xs, &ys).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(p < 1.0);
    }

    #[test]
    fn ranks_average_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
        assert_eq!(ranks(&[5.0, 5.0, 5.0]), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn uncorrelated_data_near_zero() {
        let xs: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).sin()).collect();
        let ys: Vec<f64> = (0..40).map(|i| ((i + 13) as f64 * 1.3).cos()).collect();
        let r = pearson(&xs, &ys).unwrap();
        assert!(r.abs() < 0.5, "r = {r}");
    }
}
