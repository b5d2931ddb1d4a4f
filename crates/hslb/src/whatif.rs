//! §IV-C applications: predictions beyond the tuned configuration.
//!
//! "It is possible to adapt the developed mathematical approach for other
//! purposes. For example, HSLB can estimate the effect of constraints or
//! 'sweet' spots on scaling/efficiency of CESM, which component layout is
//! more or less scalable; … or the optimal number of nodes to run CESM."
//!
//! Every question over node counts reads one [`Frontier`] per layout; the
//! node-count question itself is [`crate::cost::largest_efficient`].

use crate::exhaustive::{ExhaustiveOptimizer, Frontier};
use crate::fit::FitSet;
use crate::objective::Objective;
use hslb_cesm::{Allocation, Layout};

/// Predicted scaling of one layout: `(N, predicted time, allocation)` per
/// target node count. This regenerates Figure 4's series.
#[derive(Debug, Clone)]
pub struct LayoutScaling {
    pub layout: Layout,
    pub points: Vec<(i64, f64, Allocation)>,
}

/// The min-max frontier of `layout` up to the largest of `node_counts`.
#[allow(clippy::expect_used)] // the what-ifs panic as `ExhaustiveOptimizer::solve` does
fn frontier<'a>(
    fits: &'a FitSet,
    layout: Layout,
    node_counts: &[i64],
    ocean_allowed: Option<&[i64]>,
    atm_allowed: Option<&[i64]>,
) -> Frontier<'a> {
    let mut opt =
        ExhaustiveOptimizer::new(fits, layout, node_counts.iter().copied().max().unwrap_or(0));
    opt.ocean_allowed = ocean_allowed.map(<[i64]>::to_vec);
    opt.atm_allowed = atm_allowed.map(<[i64]>::to_vec);
    opt.frontier().expect("at most 2^20 nodes")
}

/// The optimum at `n`; panics when nothing fits.
#[allow(clippy::expect_used)] // the what-ifs panic as `ExhaustiveOptimizer::solve` does
fn optimum(frontier: &Frontier, n: i64) -> (Allocation, f64) {
    frontier.at(n).expect("no feasible candidate allocation")
}

/// Predict the optimal time of each layout at each node count from fitted
/// curves (no execution — exactly what the paper does for layouts 2 and 3,
/// which were never run): one frontier per layout, read at every count.
pub fn predict_layout_scaling(
    fits: &FitSet,
    node_counts: &[i64],
    ocean_allowed: Option<&[i64]>,
    atm_allowed: Option<&[i64]>,
) -> Vec<LayoutScaling> {
    Layout::ALL
        .iter()
        .map(|&layout| {
            let f = frontier(fits, layout, node_counts, ocean_allowed, atm_allowed);
            let points = node_counts
                .iter()
                .map(|&n| {
                    let (allocation, time) = optimum(&f, n);
                    (n, time, allocation)
                })
                .collect();
            LayoutScaling { layout, points }
        })
        .collect()
}

/// Effect of an allowed-set constraint on achievable performance across
/// machine sizes (§IV-C: "HSLB can estimate the effect of constraints or
/// 'sweet' spots on scaling/efficiency of CESM"). For each node count,
/// returns `(N, constrained optimum, unconstrained optimum)` — their gap
/// is the price of the hard-coded set, the quantity behind the paper's
/// "component models processor counts should not be arbitrarily limited".
pub fn constraint_impact(
    fits: &FitSet,
    layout: Layout,
    node_counts: &[i64],
    ocean_allowed: &[i64],
) -> Vec<(i64, f64, f64)> {
    let with = frontier(fits, layout, node_counts, Some(ocean_allowed), None);
    let without = frontier(fits, layout, node_counts, None, None);
    node_counts
        .iter()
        .map(|&n| (n, optimum(&with, n).1, optimum(&without, n).1))
        .collect()
}

/// Predict the best achievable time if one component's curve were replaced
/// (e.g. swapping the ocean model — "how replacing one component with
/// another will affect scaling").
pub fn predict_component_swap(
    fits: &FitSet,
    layout: Layout,
    total_nodes: i64,
    component: hslb_cesm::Component,
    replacement: hslb_nlsq::ScalingCurve,
) -> (f64, f64) {
    let before = ExhaustiveOptimizer::new(fits, layout, total_nodes)
        .solve(Objective::MinMax)
        .objective;
    let mut curves: std::collections::BTreeMap<_, _> = hslb_cesm::Component::OPTIMIZED
        .iter()
        .map(|&c| (c, fits.optimized_curve(c)))
        .collect();
    curves.insert(component, replacement);
    // The map was seeded from `Component::OPTIMIZED` two lines up.
    #[allow(clippy::expect_used)]
    let swapped = FitSet::from_curves(curves).expect("curve map covers every optimized component");
    let after = ExhaustiveOptimizer::new(&swapped, layout, total_nodes)
        .solve(Objective::MinMax)
        .objective;
    (before, after)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb_cesm::Component;
    use hslb_nlsq::ScalingCurve;
    use std::collections::BTreeMap;

    fn toy_fits() -> FitSet {
        let mk = |a: f64, d: f64| ScalingCurve {
            a,
            b: 0.0,
            c: 1.0,
            d,
        };
        FitSet::from_curves(BTreeMap::from([
            (Component::Ice, mk(8_000.0, 2.0)),
            (Component::Lnd, mk(1_500.0, 1.0)),
            (Component::Atm, mk(30_000.0, 10.0)),
            (Component::Ocn, mk(9_000.0, 5.0)),
        ]))
        .unwrap()
    }

    #[test]
    fn layout_scaling_produces_figure4_shape() {
        let fits = toy_fits();
        let scaling = predict_layout_scaling(&fits, &[128, 256, 512, 1024, 2048], None, None);
        assert_eq!(scaling.len(), 3);
        for s in &scaling {
            // Times decrease with N for every layout on these curves.
            assert!(
                s.points.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-9),
                "{:?} not monotone",
                s.layout
            );
        }
        // Layout 3 worst at every N.
        for i in 0..5 {
            assert!(scaling[2].points[i].1 >= scaling[0].points[i].1 - 1e-9);
            assert!(scaling[2].points[i].1 >= scaling[1].points[i].1 - 1e-9);
        }
    }

    #[test]
    fn constraint_impact_grows_with_machine_size() {
        // A sparse allowed set barely hurts on a small machine but binds
        // hard once the optimum wants counts the set cannot express —
        // the 1/8° ocean story in miniature.
        let fits = toy_fits();
        let allowed = vec![8i64, 16, 32, 64]; // capped at 64
        let impact = constraint_impact(&fits, Layout::Hybrid, &[128, 1024, 8192], &allowed);
        for &(_, with, without) in &impact {
            assert!(with >= without - 1e-9, "constraint can only hurt");
        }
        let gap = |k: usize| (impact[k].1 - impact[k].2) / impact[k].2;
        assert!(
            gap(2) > gap(0),
            "cap should bind harder at 8192 ({}) than at 128 ({})",
            gap(2),
            gap(0)
        );
    }

    #[test]
    fn component_swap_changes_prediction() {
        let fits = toy_fits();
        // A dramatically better ocean model shifts the optimum down.
        let fast_ocean = ScalingCurve {
            a: 900.0,
            b: 0.0,
            c: 1.0,
            d: 0.5,
        };
        let (before, after) =
            predict_component_swap(&fits, Layout::Hybrid, 256, Component::Ocn, fast_ocean);
        assert!(after <= before);
    }
}
