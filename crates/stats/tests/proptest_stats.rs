//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use resmatch_stats::descriptive::Summary;
use resmatch_stats::histogram::{Histogram, LogHistogram};
use resmatch_stats::regression::{r_squared, LeastSquares, SimpleLinearRegression};

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..max_len)
}

proptest! {
    #[test]
    fn histogram_conserves_observations(data in finite_vec(300)) {
        let mut h = Histogram::new(-1e5, 1e5, 16);
        h.record_all(data.iter().copied());
        let binned: u64 = (0..h.num_bins()).map(|i| h.count(i)).sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), data.len() as u64);
    }

    #[test]
    fn log_histogram_conserves_observations(data in prop::collection::vec(1e-3f64..1e6, 1..300)) {
        let mut h = LogHistogram::new(1.0, 2.0, 12);
        h.record_all(data.iter().copied());
        let binned: u64 = (0..h.num_bins()).map(|i| h.count(i)).sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), data.len() as u64);
    }

    #[test]
    fn percentiles_are_monotone(data in finite_vec(100)) {
        let s = Summary::from_slice(&data);
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            let q = s.percentile(p).unwrap();
            prop_assert!(q >= last);
            prop_assert!(q >= s.min && q <= s.max);
            last = q;
        }
    }

    #[test]
    fn r_squared_is_bounded(
        ys in finite_vec(100),
        noise in prop::collection::vec(-10.0f64..10.0, 100),
    ) {
        let preds: Vec<f64> = ys.iter().zip(&noise).map(|(y, n)| y + n).collect();
        let r2 = r_squared(&ys, &preds[..ys.len().min(preds.len())]);
        prop_assert!((0.0..=1.0).contains(&r2));
    }

    #[test]
    fn regression_recovers_planted_line(
        slope in -100.0f64..100.0,
        intercept in -100.0f64..100.0,
        n in 3usize..50,
    ) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let fit = SimpleLinearRegression::fit(&xs, &ys).unwrap();
        prop_assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!((fit.intercept - intercept).abs() < 1e-5 * (1.0 + intercept.abs()));
    }

    #[test]
    fn least_squares_recovers_planted_plane(
        a in -10.0f64..10.0,
        b in -10.0f64..10.0,
        c in -10.0f64..10.0,
    ) {
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                let x = i as f64;
                let y = ((i * 7) % 13) as f64;
                vec![x, y, 1.0]
            })
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| a * r[0] + b * r[1] + c).collect();
        let fit = LeastSquares::fit(&rows, &ys, 0.0).unwrap();
        prop_assert!((fit.coefficients[0] - a).abs() < 1e-6);
        prop_assert!((fit.coefficients[1] - b).abs() < 1e-6);
        prop_assert!((fit.coefficients[2] - c).abs() < 1e-5);
    }
}
