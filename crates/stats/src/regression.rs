//! Least-squares regression: simple (one predictor) and multivariate.
//!
//! The paper uses simple linear regression twice in its analysis — the
//! log-linear fit over the Figure 1 histogram (R² = 0.69) and the fit between
//! benefiting-job node counts and utilization improvement in Figure 8
//! (R² = 0.991) — and proposes multivariate regression as the estimator for
//! the explicit-feedback / no-similarity quadrant of Table 1. The
//! [`LeastSquares`] solver implements that estimator's training step.

/// Result of fitting `y = slope * x + intercept` by ordinary least squares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimpleLinearRegression {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]` (clamped; see [`r_squared`]).
    pub r_squared: f64,
}

impl SimpleLinearRegression {
    /// Fit a line through `(xs[i], ys[i])`. Returns `None` when fewer than
    /// two points are given, the slices differ in length, or all `x` are
    /// identical (the slope is then undefined).
    pub fn fit(xs: &[f64], ys: &[f64]) -> Option<Self> {
        if xs.len() != ys.len() || xs.len() < 2 {
            return None;
        }
        let n = xs.len() as f64;
        let mean_x = xs.iter().sum::<f64>() / n;
        let mean_y = ys.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            sxx += (x - mean_x) * (x - mean_x);
            sxy += (x - mean_x) * (y - mean_y);
        }
        if sxx == 0.0 {
            return None;
        }
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        let fit = SimpleLinearRegression {
            slope,
            intercept,
            r_squared: 0.0,
        };
        let r2 = r_squared(ys, &xs.iter().map(|&x| fit.predict(x)).collect::<Vec<_>>());
        Some(SimpleLinearRegression {
            r_squared: r2,
            ..fit
        })
    }

    /// Predict `y` at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Coefficient of determination between observations `ys` and model
/// predictions `preds`, clamped to `[0, 1]`.
///
/// When the observations have zero variance the fit explains everything or
/// nothing; we return 1 if the predictions match exactly and 0 otherwise.
pub fn r_squared(ys: &[f64], preds: &[f64]) -> f64 {
    assert_eq!(ys.len(), preds.len(), "length mismatch");
    if ys.is_empty() {
        return 0.0;
    }
    let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
    let ss_tot: f64 = ys.iter().map(|y| (y - mean_y) * (y - mean_y)).sum();
    let ss_res: f64 = ys.iter().zip(preds).map(|(y, p)| (y - p) * (y - p)).sum();
    if ss_tot == 0.0 {
        return if ss_res == 0.0 { 1.0 } else { 0.0 };
    }
    (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
}

/// Multivariate ordinary least squares fitted by solving the normal
/// equations `(XᵀX + λI) β = Xᵀy` with partial-pivot Gaussian elimination.
///
/// A small ridge term `λ` (default 0) regularizes collinear designs, which
/// matters for workload features like requested-memory × node-count that are
/// frequently correlated.
#[derive(Debug, Clone, PartialEq)]
pub struct LeastSquares {
    /// Fitted coefficients, one per feature (plus intercept if requested at
    /// fit time — the caller appends the constant-1 feature).
    pub coefficients: Vec<f64>,
    /// R² of the fit on the training data.
    pub r_squared: f64,
}

impl LeastSquares {
    /// Fit `y ≈ X β` where `rows[i]` is the i-th feature vector. All rows
    /// must share a length equal to the number of features. Returns `None`
    /// when the system is empty, ragged, or singular beyond `ridge`'s help,
    /// and when any input (feature, target or `ridge`) is non-finite or the
    /// normal equations overflow.
    pub fn fit(rows: &[Vec<f64>], ys: &[f64], ridge: f64) -> Option<Self> {
        let n = rows.len();
        if n == 0 || n != ys.len() {
            return None;
        }
        if !rows.iter().flatten().chain(ys).all(|v| v.is_finite()) || !ridge.is_finite() {
            return None;
        }
        let k = rows[0].len();
        if k == 0 || rows.iter().any(|r| r.len() != k) {
            return None;
        }
        // Normal equations: A = XᵀX + λI (k×k), b = Xᵀy (k).
        let mut a = vec![vec![0.0f64; k]; k];
        let mut b = vec![0.0f64; k];
        for (row, &y) in rows.iter().zip(ys) {
            for i in 0..k {
                b[i] += row[i] * y;
                for j in 0..k {
                    a[i][j] += row[i] * row[j];
                }
            }
        }
        for (i, diag_row) in a.iter_mut().enumerate() {
            diag_row[i] += ridge;
        }
        let coefficients = solve_linear_system(&mut a, &mut b)?;
        let preds: Vec<f64> = rows
            .iter()
            .map(|r| r.iter().zip(&coefficients).map(|(x, c)| x * c).sum())
            .collect();
        let r2 = r_squared(ys, &preds);
        Some(LeastSquares {
            coefficients,
            r_squared: r2,
        })
    }

    /// Predict for one feature vector.
    ///
    /// # Panics
    /// Panics if `features.len()` differs from the fitted coefficient count.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.coefficients.len(),
            "feature count mismatch"
        );
        features
            .iter()
            .zip(&self.coefficients)
            .map(|(x, c)| x * c)
            .sum()
    }
}

/// Solve `A x = b` in place by Gaussian elimination with partial pivoting.
/// Returns `None` for singular systems and for systems whose elimination
/// overflows to a non-finite pivot.
fn solve_linear_system(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Partial pivot: the largest magnitude in this column at/below row
        // `col`. `total_cmp` ranks NaN above every number, so an overflowed
        // column picks a non-finite pivot and is rejected just below.
        let pivot = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if !a[pivot][col].is_finite() || a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let factor = a[row][col] / a[col][col];
            if factor == 0.0 {
                continue;
            }
            // `row > col`, so the pivot row sits in the left half of the
            // split and the two borrows are disjoint.
            let (above, below) = a.split_at_mut(row);
            let pivot_row = &above[col][col..n];
            for (dst, &src) in below[0][col..n].iter_mut().zip(pivot_row) {
                *dst -= factor * src;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut sum = b[row];
        for col in (row + 1)..n {
            sum -= a[row][col] * x[col];
        }
        x[row] = sum / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
        let fit = SimpleLinearRegression::fit(&xs, &ys).unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept + 1.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(SimpleLinearRegression::fit(&[1.0], &[1.0]).is_none());
        assert!(SimpleLinearRegression::fit(&[1.0, 1.0], &[1.0, 2.0]).is_none());
        assert!(SimpleLinearRegression::fit(&[1.0, 2.0], &[1.0]).is_none());
    }

    #[test]
    fn r_squared_bounds() {
        // Anti-correlated predictions: raw R² would be negative, we clamp to 0.
        let ys = [1.0, 2.0, 3.0];
        let bad = [3.0, 2.0, 1.0];
        assert_eq!(r_squared(&ys, &bad), 0.0);
        assert_eq!(r_squared(&ys, &ys), 1.0);
    }

    #[test]
    fn r_squared_constant_observations() {
        assert_eq!(r_squared(&[2.0, 2.0], &[2.0, 2.0]), 1.0);
        assert_eq!(r_squared(&[2.0, 2.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn multivariate_recovers_planted_model() {
        // y = 2*x0 - 0.5*x1 + 4 (intercept as trailing constant feature).
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let x0 = i as f64;
                let x1 = (i * i % 7) as f64;
                vec![x0, x1, 1.0]
            })
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] - 0.5 * r[1] + 4.0).collect();
        let fit = LeastSquares::fit(&rows, &ys, 0.0).unwrap();
        assert!((fit.coefficients[0] - 2.0).abs() < 1e-9);
        assert!((fit.coefficients[1] + 0.5).abs() < 1e-9);
        assert!((fit.coefficients[2] - 4.0).abs() < 1e-9);
        assert!(fit.r_squared > 0.999999);
    }

    #[test]
    fn multivariate_rejects_singular_without_ridge() {
        // Two identical features: XᵀX singular.
        let rows = vec![vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]];
        let ys = vec![1.0, 2.0, 3.0];
        assert!(LeastSquares::fit(&rows, &ys, 0.0).is_none());
        // Ridge rescues it.
        let fit = LeastSquares::fit(&rows, &ys, 1e-6).unwrap();
        let pred = fit.predict(&[2.0, 2.0]);
        assert!((pred - 2.0).abs() < 1e-3);
    }

    #[test]
    fn multivariate_rejects_ragged_rows() {
        let rows = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(LeastSquares::fit(&rows, &[1.0, 2.0], 0.0).is_none());
        assert!(LeastSquares::fit(&[], &[], 0.0).is_none());
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn predict_checks_arity() {
        let fit = LeastSquares {
            coefficients: vec![1.0, 2.0],
            r_squared: 1.0,
        };
        let _ = fit.predict(&[1.0]);
    }

    #[test]
    fn solver_handles_pivoting() {
        // First pivot is zero; partial pivoting must swap rows.
        let mut a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let mut b = vec![2.0, 3.0];
        let x = solve_linear_system(&mut a, &mut b).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }
}
