//! Property tests for the scaling-curve fit.

use hslb_nlsq::{fit_scaling, EarlyStopPolicy, ScalingCurve, ScalingFitOptions};
use proptest::prelude::*;

fn arb_curve() -> impl Strategy<Value = ScalingCurve> {
    (
        100.0f64..100_000.0, // a
        0.0f64..0.01,        // b
        1.0f64..1.8,         // c
        0.1f64..100.0,       // d
    )
        .prop_map(|(a, b, c, d)| ScalingCurve { a, b, c, d })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Noiseless synthetic data from an in-bounds curve must be fit with
    /// R² ≈ 1 and accurate predictions at the sampled points.
    #[test]
    fn noiseless_fit_reproduces_observations(truth in arb_curve()) {
        let ns = [8.0, 24.0, 96.0, 384.0, 1024.0, 4096.0];
        let data: Vec<(f64, f64)> = ns.iter().map(|&n| (n, truth.eval(n))).collect();
        let fit = fit_scaling(&data, &ScalingFitOptions::default()).unwrap();
        prop_assert!(fit.r_squared > 0.999, "r2 = {}", fit.r_squared);
        for &(n, y) in &data {
            let p = fit.curve.eval(n);
            prop_assert!((p - y).abs() <= 0.02 * y + 1e-6, "n={n}: {p} vs {y}");
        }
    }

    /// The fit must always respect the positivity and exponent bounds
    /// (Table II line 11 plus the convexity guard).
    #[test]
    fn fitted_parameters_respect_bounds(truth in arb_curve(),
                                        jitter in prop::collection::vec(0.95f64..1.05, 6)) {
        let ns = [16.0, 32.0, 128.0, 512.0, 2048.0, 8192.0];
        let data: Vec<(f64, f64)> = ns
            .iter()
            .zip(&jitter)
            .map(|(&n, &j)| (n, truth.eval(n) * j))
            .collect();
        let fit = fit_scaling(&data, &ScalingFitOptions::default()).unwrap();
        prop_assert!(fit.curve.a >= 0.0);
        prop_assert!(fit.curve.b >= 0.0);
        prop_assert!(fit.curve.d >= 0.0);
        prop_assert!(fit.curve.c >= 1.0 && fit.curve.c <= 3.0);
        prop_assert!(fit.curve.is_convex());
    }

    /// Monotone consequence of convex fits: the curve evaluated on a
    /// decreasing-time dataset never predicts negative times.
    #[test]
    fn predictions_stay_positive(truth in arb_curve(), n in 1.0f64..100_000.0) {
        let ns = [8.0, 64.0, 512.0, 4096.0];
        let data: Vec<(f64, f64)> = ns.iter().map(|&m| (m, truth.eval(m))).collect();
        let fit = fit_scaling(&data, &ScalingFitOptions::default()).unwrap();
        prop_assert!(fit.curve.eval(n) >= 0.0);
    }

    /// The fit fast-path invariant: for random scaling data, early-stop
    /// on and off yield identical `ScalingCurve` bits, `starts_run` equals
    /// the starts actually run, and `basin_hits ≤ starts_run`.
    #[test]
    fn early_stop_is_bit_identical_at_any_thread_count(
        truth in arb_curve(),
        jitter in prop::collection::vec(0.97f64..1.03, 6),
    ) {
        let ns = [8.0, 24.0, 96.0, 384.0, 1024.0, 4096.0];
        let data: Vec<(f64, f64)> = ns
            .iter()
            .zip(&jitter)
            .map(|(&n, &j)| (n, truth.eval(n) * j))
            .collect();
        let base = ScalingFitOptions { starts: 12, ..Default::default() };
        let reference = fit_scaling(&data, &base).unwrap();
        prop_assert!(!reference.early_stopped);
        prop_assert_eq!(reference.starts_run, base.starts);
        for early_stop in [None, Some(EarlyStopPolicy::default())] {
            let opts = ScalingFitOptions { early_stop, ..base.clone() };
            let fit = fit_scaling(&data, &opts).unwrap();
            prop_assert_eq!(
                fit.curve.a.to_bits(), reference.curve.a.to_bits(),
                "a diverged (early_stop={})", early_stop.is_some()
            );
            prop_assert_eq!(fit.curve.b.to_bits(), reference.curve.b.to_bits());
            prop_assert_eq!(fit.curve.c.to_bits(), reference.curve.c.to_bits());
            prop_assert_eq!(fit.curve.d.to_bits(), reference.curve.d.to_bits());
            prop_assert!(fit.starts_run <= base.starts);
            prop_assert!(fit.basin_hits <= fit.starts_run);
            if early_stop.is_none() {
                prop_assert!(!fit.early_stopped, "early-stop fired while disabled");
                prop_assert_eq!(fit.starts_run, base.starts);
            }
        }
    }
}
