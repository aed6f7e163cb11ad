//! Property test: `EstimatorSpec`'s `Display` output parses back to the
//! same spec (for specs whose non-(α, β) configuration is default, which is
//! exactly what the grammar can express) whenever its α/β lie in
//! Algorithm 1's ranges, and is rejected as `BadParams` otherwise.

use proptest::prelude::*;
use resmatch_sim::prelude::*;

fn arb_base() -> impl Strategy<Value = EstimatorSpec> {
    // Index into the canonical name list; every name parses by
    // construction (covered by the unit tests in `spec.rs`).
    (0usize..EstimatorSpec::NAMES.len())
        .prop_map(|i| EstimatorSpec::NAMES[i].parse::<EstimatorSpec>().unwrap())
}

/// α/β values spanning the interesting shapes: the defaults (suffix
/// omitted), round values, fractional values, very large and very small
/// magnitudes — all finite, so `Display` emits them losslessly — on both
/// sides of α > 1 and 0 ≤ β < 1.
fn arb_param() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(2.0),
        Just(0.0),
        Just(-1.5),
        0.0001f64..10_000.0,
        -3.0f64..3.0,
        1e-12f64..1e-6,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn display_parses_back_to_the_same_spec(
        base in arb_base(),
        alpha in arb_param(),
        beta in arb_param(),
    ) {
        let spec = base.with_alpha_beta(alpha, beta);
        let rendered = spec.to_string();
        let in_range = alpha > 1.0 && (0.0..1.0).contains(&beta);
        if rendered.contains(':') && !in_range {
            let parsed = rendered.parse::<EstimatorSpec>();
            prop_assert!(
                matches!(parsed, Err(ParseEstimatorError::BadParams(_))),
                "{} parsed as {:?}", rendered, parsed
            );
        } else {
            let parsed: EstimatorSpec = rendered.parse().unwrap_or_else(|e| {
                panic!("{rendered:?} failed to re-parse: {e}")
            });
            prop_assert_eq!(parsed, spec, "render was {}", rendered);
        }
    }

    #[test]
    fn parsing_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..40)) {
        let s = String::from_utf8_lossy(&bytes);
        let _ = s.parse::<EstimatorSpec>();
    }
}
