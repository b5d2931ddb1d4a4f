//! Ground-truth calibration from the paper's published timings.
//!
//! Table III of the paper reports, for six experiments, per-component node
//! allocations together with measured wall-clock times. Each `(component,
//! nodes, seconds)` pair is an *actual Intrepid measurement*, so fitting
//! the paper's own performance model through them yields ground-truth
//! curves that interpolate the machine the authors used. The simulator
//! then exposes exactly the observable HSLB needs — component time at a
//! node count — with the real curve shapes.
//!
//! The embedded observations (all from Table III; "manual" and "actual"
//! columns are measurements, "predicted" columns are not used):
//!
//! * 1° resolution: 128- and 2048-node experiments (manual + HSLB actual);
//! * 1/8° resolution: 8192- and 32768-node experiments, constrained and
//!   unconstrained ocean (manual + HSLB actual).

use crate::component::Component;
use crate::grid::Resolution;
use hslb_nlsq::ScalingCurve;

/// Paper observations for the 1° resolution: `(nodes, seconds)`.
pub fn one_degree_observations(c: Component) -> &'static [(f64, f64)] {
    match c {
        // Table III, 1° entries: manual@128, HSLB-actual@128,
        // manual@2048, HSLB-actual@2048.
        Component::Lnd => &[
            (24.0, 63.766),
            (15.0, 100.202),
            (384.0, 5.777),
            (71.0, 23.158),
        ],
        Component::Ice => &[
            (80.0, 109.054),
            (89.0, 116.472),
            (1280.0, 17.912),
            (1454.0, 18.242),
        ],
        Component::Atm => &[
            (104.0, 306.952),
            (104.0, 308.699),
            (1664.0, 61.987),
            (1525.0, 63.313),
        ],
        Component::Ocn => &[
            (24.0, 362.669),
            (24.0, 365.853),
            (384.0, 61.987),
            (256.0, 79.139),
        ],
        _ => &[],
    }
}

/// Paper observations for the 1/8° resolution: `(nodes, seconds)`.
pub fn eighth_degree_observations(c: Component) -> &'static [(f64, f64)] {
    match c {
        // Table III, 1/8° entries: manual@8192, HSLB-actual@8192,
        // manual@32768, HSLB-actual@32768, then the two unconstrained-
        // ocean actual runs at 8192 and 32768.
        Component::Lnd => &[
            (486.0, 147.397),
            (138.0, 457.052),
            (2220.0, 44.225),
            (302.0, 223.284),
            (146.0, 417.162),
            (272.0, 238.46),
        ],
        Component::Ice => &[
            (5350.0, 475.614),
            (4918.0, 499.691),
            (24424.0, 214.203),
            (13006.0, 311.195),
            (5287.0, 475.249),
            (20616.0, 231.631),
        ],
        Component::Atm => &[
            (5836.0, 2533.76),
            (5056.0, 2989.115),
            (26644.0, 787.478),
            (13308.0, 1301.136),
            (5433.0, 2702.651),
            (20888.0, 956.558),
        ],
        Component::Ocn => &[
            (2356.0, 3785.333),
            (3136.0, 2898.102),
            (6124.0, 1645.009),
            (19460.0, 700.373),
            (2759.0, 3496.331),
            (11880.0, 1255.593),
        ],
        _ => &[],
    }
}

/// Observations for a resolution and component.
pub fn observations(r: Resolution, c: Component) -> &'static [(f64, f64)] {
    match r {
        Resolution::OneDegree => one_degree_observations(c),
        Resolution::EighthDegree => eighth_degree_observations(c),
    }
}

/// One committed truth curve, `[a, b, c, d]` as IEEE-754 bit patterns.
const fn curve(c: Component, [a, b, k, d]: [u64; 4]) -> (Component, ScalingCurve) {
    let (a, b, k, d) = (
        f64::from_bits(a),
        f64::from_bits(b),
        f64::from_bits(k),
        f64::from_bits(d),
    );
    (c, ScalingCurve { a, b, c: k, d })
}

/// The truth: Table II's model fitted once through each resolution's
/// observations (32 multistart LM starts, seed `0xCE5B_0001 ^ r`) and
/// frozen at the fitted bits, so that the machine HSLB is judged on does
/// not move with HSLB's own fitter.
#[rustfmt::skip]
static ONE_DEGREE_TRUTH: [(Component, ScalingCurve); 4] = [
    curve(Component::Ice, [0x40c06b8f581cf715, 0, 0x3ff0000000000000, 0x4028ee01c902e5f0]),
    curve(Component::Lnd, [0x4097009be41c8265, 0, 0x3ff0000000000000, 0x4001bf8da2b5ec34]),
    curve(Component::Atm, [0x40dae8285c82796d, 0x3f5ad5ca562f43d4, 0x3ff0000000000000, 0x40455cfb88ca2153]),
    curve(Component::Ocn, [0x40bddef0016a9749, 0, 0x3ff0000000000000, 0x4046d7d4bc132077]),
];
#[rustfmt::skip]
static EIGHTH_DEGREE_TRUTH: [(Component, ScalingCurve); 4] = [
    curve(Component::Ice, [0x4139ecc880181ccc, 0, 0x3ff0000000000000, 0x40639efd2d85ebf1]),
    curve(Component::Lnd, [0x40ecd090b7374fed, 0, 0x3ff0000000000000, 0x4036a80d75378749]),
    curve(Component::Atm, [0x416985c125fb069d, 0x3f51ab16cc319aea, 0x3ff0000000000000, 0x40710d21f9f82296]),
    curve(Component::Ocn, [0x415efda25f4cb105, 0, 0x3ff0000000000000, 0x4078baf892237392]),
];

/// Ground-truth curves for a resolution, one per optimized component in
/// [`Component::OPTIMIZED`] order. No simulator runs a fit.
pub fn ground_truth(r: Resolution) -> &'static [(Component, ScalingCurve); 4] {
    match r {
        Resolution::OneDegree => &ONE_DEGREE_TRUTH,
        Resolution::EighthDegree => &EIGHTH_DEGREE_TRUTH,
    }
}

/// The coupler/river overhead fraction applied to simulated total times.
/// §II: "the coupler and the river models take less time to run compared
/// to the other components, so these components were not included in our
/// HSLB models"; §III-C: "the HSLB reported time for the whole run may
/// differ slightly from the one found in the CESM output files, although
/// usually the difference between the two results is small".
pub const COUPLER_OVERHEAD_FRAC: f64 = 0.0;

/// One experiment row of the paper's Table III, kept verbatim so reports
/// and tests can compare the reproduction against the publication.
#[derive(Debug, Clone)]
pub struct PaperExperiment {
    pub resolution: Resolution,
    /// Target total node count N.
    pub target_nodes: i64,
    /// Whether the hard-coded ocean set constrained the solve.
    pub ocean_constrained: bool,
    /// Manual ("human") allocation `[lnd, ice, atm, ocn]`, if the paper
    /// reports one for this experiment.
    pub manual_alloc: Option<[i64; 4]>,
    /// Manual total time in seconds.
    pub manual_total: Option<f64>,
    /// HSLB allocation `[lnd, ice, atm, ocn]` (the *predicted* column; for
    /// the unconstrained-32768 run the tuned "actual" allocation differs
    /// and is given separately).
    pub hslb_alloc: [i64; 4],
    /// HSLB predicted total time.
    pub hslb_predicted_total: f64,
    /// HSLB actual (measured) total time.
    pub hslb_actual_total: f64,
    /// The tuned allocation actually run, when it differs from
    /// `hslb_alloc` (sweet-spot adjusted; last Table III entry).
    pub tuned_alloc: Option<[i64; 4]>,
}

/// All six Table III experiments, in publication order.
pub fn paper_table3() -> Vec<PaperExperiment> {
    use Resolution::*;
    vec![
        PaperExperiment {
            resolution: OneDegree,
            target_nodes: 128,
            ocean_constrained: true,
            manual_alloc: Some([24, 80, 104, 24]),
            manual_total: Some(416.006),
            hslb_alloc: [15, 89, 104, 24],
            hslb_predicted_total: 410.623,
            hslb_actual_total: 425.171,
            tuned_alloc: None,
        },
        PaperExperiment {
            resolution: OneDegree,
            target_nodes: 2048,
            ocean_constrained: true,
            manual_alloc: Some([384, 1280, 1664, 384]),
            manual_total: Some(79.899),
            hslb_alloc: [71, 1454, 1525, 256],
            hslb_predicted_total: 84.484,
            hslb_actual_total: 86.471,
            tuned_alloc: None,
        },
        PaperExperiment {
            resolution: EighthDegree,
            target_nodes: 8192,
            ocean_constrained: true,
            manual_alloc: Some([486, 5350, 5836, 2356]),
            manual_total: Some(3785.333),
            hslb_alloc: [138, 4918, 5056, 3136],
            hslb_predicted_total: 3390.394,
            hslb_actual_total: 3488.806,
            tuned_alloc: None,
        },
        PaperExperiment {
            resolution: EighthDegree,
            target_nodes: 32_768,
            ocean_constrained: true,
            manual_alloc: Some([2220, 24_424, 26_644, 6124]),
            manual_total: Some(1645.009),
            hslb_alloc: [302, 13_006, 13_308, 19_460],
            hslb_predicted_total: 1592.649,
            hslb_actual_total: 1612.331,
            tuned_alloc: None,
        },
        PaperExperiment {
            resolution: EighthDegree,
            target_nodes: 8192,
            ocean_constrained: false,
            manual_alloc: None,
            manual_total: None,
            hslb_alloc: [137, 5238, 5375, 2817],
            hslb_predicted_total: 3217.837,
            hslb_actual_total: 3496.331,
            tuned_alloc: Some([146, 5287, 5433, 2759]),
        },
        PaperExperiment {
            resolution: EighthDegree,
            target_nodes: 32_768,
            ocean_constrained: false,
            manual_alloc: None,
            manual_total: None,
            hslb_alloc: [299, 22_657, 22_956, 9812],
            hslb_predicted_total: 1129.405,
            hslb_actual_total: 1255.593,
            tuned_alloc: Some([272, 20_616, 20_888, 11_880]),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb_nlsq::{fit_scaling, EarlyStopPolicy, ScalingFitOptions};
    use hslb_numerics::stats;

    const RESOLUTIONS: [Resolution; 2] = [Resolution::OneDegree, Resolution::EighthDegree];

    /// The fitter the committed curves came from: 32 starts, the
    /// resolution's seed, the default early stop.
    fn refit(r: Resolution, data: &[(f64, f64)]) -> ScalingCurve {
        let opts = ScalingFitOptions {
            starts: 32,
            seed: 0xCE5B_0001 ^ r as u64,
            early_stop: Some(EarlyStopPolicy::default()),
            ..Default::default()
        };
        fit_scaling(data, &opts).unwrap().curve
    }

    fn sse(curve: &ScalingCurve, data: &[(f64, f64)]) -> f64 {
        data.iter().map(|&(n, y)| (curve.eval(n) - y).powi(2)).sum()
    }

    #[test]
    fn ground_truth_interpolates_paper_timings() {
        // R² of the fitted truth against the embedded observations should
        // be near 1 for the smooth components; ice is allowed to be worse
        // (the paper says its curve is noisy).
        for r in RESOLUTIONS {
            for (c, curve) in ground_truth(r) {
                let data = observations(r, *c);
                let obs: Vec<f64> = data.iter().map(|&(_, y)| y).collect();
                let pred: Vec<f64> = data.iter().map(|&(n, _)| curve.eval(n)).collect();
                let r2 = stats::r_squared(&obs, &pred).unwrap();
                let floor = if *c == Component::Ice { 0.90 } else { 0.97 };
                assert!(r2 > floor, "{r:?}/{c}: R² = {r2}");
            }
        }
    }

    #[test]
    fn ground_truth_is_convex_and_positive() {
        for r in RESOLUTIONS {
            for (c, curve) in ground_truth(r) {
                assert!(curve.is_convex(), "{c} curve not convex: {curve:?}");
                for n in [1.0, 10.0, 1000.0, 40_960.0] {
                    assert!(curve.eval(n) > 0.0, "{c} at {n}");
                }
            }
        }
    }

    #[test]
    fn ground_truth_is_cached() {
        let a = ground_truth(Resolution::OneDegree) as *const _;
        let b = ground_truth(Resolution::OneDegree) as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn ground_truth_covers_the_optimized_components_in_order() {
        for r in RESOLUTIONS {
            assert_eq!(ground_truth(r).map(|(c, _)| c), Component::OPTIMIZED);
        }
    }

    #[test]
    fn committed_curves_fit_as_well_as_a_refit() {
        // The truth is frozen, the fitter is not: a fitter that finds a
        // better basin may move its own answers, never the machine. The
        // committed curves must stay within 1 % of what today's fitter
        // reaches on the same observations.
        for r in RESOLUTIONS {
            for (c, curve) in ground_truth(r) {
                let data = observations(r, *c);
                let (frozen, fresh) = (sse(curve, data), sse(&refit(r, data), data));
                assert!(
                    frozen <= 1.01 * fresh,
                    "{r:?}/{c}: committed SSE {frozen} against a refit's {fresh}"
                );
            }
        }
    }

    #[test]
    fn leave_one_out_predicts_the_held_out_observation() {
        // Hold out one Table III observation, refit the rest, predict it.
        // Measured: 38 of the 40 points miss by at most 22 %. The two
        // others are each a component's largest observed count, where the
        // truth extrapolates: 1/8° land at 2,220 nodes (77 %) and 1/8°
        // ocean at 19,460 nodes (194 %).
        let bound = |r: Resolution, c: Component, n: f64| match (r, c, n as i64) {
            (Resolution::EighthDegree, Component::Lnd, 2220) => 0.78,
            (Resolution::EighthDegree, Component::Ocn, 19_460) => 1.95,
            _ => 0.22,
        };
        let mut points = 0;
        for r in RESOLUTIONS {
            for &c in &Component::OPTIMIZED {
                let data = observations(r, c);
                for (i, &(n, y)) in data.iter().enumerate() {
                    let mut rest = data.to_vec();
                    rest.remove(i);
                    let miss = (refit(r, &rest).eval(n) - y).abs() / y;
                    assert!(
                        miss <= bound(r, c, n),
                        "{r:?}/{c} at {n} nodes: held out, predicted {:.0} % off",
                        100.0 * miss
                    );
                    points += 1;
                }
            }
        }
        assert_eq!(points, 40);
    }

    #[test]
    fn table3_has_six_experiments_in_order() {
        let t = paper_table3();
        assert_eq!(t.len(), 6);
        assert_eq!(t[0].target_nodes, 128);
        assert_eq!(t[3].target_nodes, 32_768);
        assert!(t[4].manual_alloc.is_none()); // unconstrained entries
        assert!(t[5].tuned_alloc.is_some());
        // Headline numbers: 25 % actual improvement at 32768 unconstrained.
        let constrained = &t[3];
        let unconstrained = &t[5];
        let gain = stats::improvement_pct(
            constrained.hslb_actual_total,
            unconstrained.hslb_actual_total,
        )
        .unwrap();
        assert!(gain > 20.0 && gain < 30.0, "paper's ~25% claim: {gain}");
    }

    #[test]
    fn observations_cover_all_optimized_components() {
        for r in [Resolution::OneDegree, Resolution::EighthDegree] {
            for &c in &Component::OPTIMIZED {
                assert!(
                    observations(r, c).len() >= 4,
                    "{r:?}/{c} needs ≥4 points for the paper's fit recipe"
                );
            }
            assert!(observations(r, Component::Cpl).is_empty());
        }
    }
}
