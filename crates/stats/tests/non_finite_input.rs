//! `LeastSquares::fit`, documented to return `None` for bad input, does so
//! for NaN and infinity too, instead of panicking while pivoting.

use resmatch_stats::LeastSquares;

#[test]
fn non_finite_input_returns_none() {
    let nan = f64::NAN;
    let inf = f64::INFINITY;
    let line = [vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0]];
    let ys = [1.0, 3.0, 5.0];
    // (case, expected Some?, actual Some?) — the finite rows are controls
    // showing the guards reject only what they should.
    let cases = [
        (
            "fit finite",
            true,
            LeastSquares::fit(&line, &ys, 0.0).is_some(),
        ),
        (
            "fit NaN feature",
            false,
            LeastSquares::fit(&[vec![1.0, 0.0], vec![1.0, nan], vec![1.0, 2.0]], &ys, 0.0)
                .is_some(),
        ),
        (
            "fit NaN target",
            false,
            LeastSquares::fit(&line, &[1.0, nan, 5.0], 0.0).is_some(),
        ),
        (
            "fit inf target",
            false,
            LeastSquares::fit(&line, &[1.0, inf, 5.0], 0.0).is_some(),
        ),
        (
            "fit NaN ridge",
            false,
            LeastSquares::fit(&line, &ys, nan).is_some(),
        ),
        (
            // Finite inputs whose normal equations overflow: inf - inf
            // leaves NaN in the columns still to be pivoted.
            "fit overflowing normal equations",
            false,
            LeastSquares::fit(&vec![vec![1e200; 3]; 3], &[1.0; 3], 0.0).is_some(),
        ),
    ];
    for (case, want_some, got_some) in cases {
        assert_eq!(got_some, want_some, "{case}");
    }
}
