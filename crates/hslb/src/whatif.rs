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
use crate::layout_model::LayoutModelOptions;
use crate::objective::Objective;
use hslb_cesm::{Allocation, Layout, ResolutionConfig};

/// Predicted scaling of one layout: `(N, predicted time, allocation)` per
/// target node count. This regenerates Figure 4's series.
#[derive(Debug, Clone)]
pub struct LayoutScaling {
    pub layout: Layout,
    pub points: Vec<(i64, f64, Allocation)>,
}

/// The min-max optimum of the configured machine's problem at every
/// budget up to the largest of `node_counts`; `None` past 2^20 nodes.
pub(crate) fn optima<'a>(
    fits: &'a FitSet,
    config: &ResolutionConfig,
    layout: Layout,
    node_counts: &[i64],
) -> Option<Frontier<'a>> {
    let top = node_counts.iter().copied().max().unwrap_or(0);
    let problem = LayoutModelOptions::from_config(config, layout, Objective::MinMax, top);
    ExhaustiveOptimizer::for_problem(fits, &problem).frontier()
}

/// Predict the optimal time of each layout at each node count from fitted
/// curves (no execution — exactly what the paper does for layouts 2 and 3,
/// which were never run): one frontier per layout of the configured
/// machine, read at every count it can fill.
pub fn predict_layout_scaling(
    fits: &FitSet,
    config: &ResolutionConfig,
    node_counts: &[i64],
) -> Vec<LayoutScaling> {
    Layout::ALL
        .iter()
        .map(|&layout| {
            let f = optima(fits, config, layout, node_counts);
            let points = node_counts
                .iter()
                .filter_map(|&n| {
                    let (allocation, time) = f.as_ref()?.at(n)?;
                    Some((n, time, allocation))
                })
                .collect();
            LayoutScaling { layout, points }
        })
        .collect()
}

/// Effect of the configured ocean set on achievable performance across
/// machine sizes (§IV-C: "HSLB can estimate the effect of constraints or
/// 'sweet' spots on scaling/efficiency of CESM"). For each node count,
/// returns `(N, constrained optimum, optimum without the ocean set)` —
/// their gap is the price of the hard-coded set, the quantity behind the
/// paper's "component models processor counts should not be arbitrarily
/// limited". A count either side cannot fill has no point.
pub fn constraint_impact(
    fits: &FitSet,
    config: &ResolutionConfig,
    layout: Layout,
    node_counts: &[i64],
) -> Vec<(i64, f64, f64)> {
    let free = config.clone().without_ocean_constraint();
    let with = optima(fits, config, layout, node_counts);
    let without = optima(fits, &free, layout, node_counts);
    node_counts
        .iter()
        .filter_map(|&n| Some((n, with.as_ref()?.at(n)?.1, without.as_ref()?.at(n)?.1)))
        .collect()
}

/// Predict the best achievable time on the configured machine if one
/// component's curve were replaced (e.g. swapping the ocean model — "how
/// replacing one component with another will affect scaling"); `None`
/// when nothing fits.
pub fn predict_component_swap(
    fits: &FitSet,
    config: &ResolutionConfig,
    layout: Layout,
    total_nodes: i64,
    component: hslb_cesm::Component,
    replacement: hslb_nlsq::ScalingCurve,
) -> Option<(f64, f64)> {
    let problem = LayoutModelOptions::from_config(config, layout, Objective::MinMax, total_nodes);
    let optimum = |fits: &FitSet| {
        ExhaustiveOptimizer::for_problem(fits, &problem)
            .try_solve(Objective::MinMax)
            .map(|r| r.objective)
    };
    let mut curves: std::collections::BTreeMap<_, _> = hslb_cesm::Component::OPTIMIZED
        .iter()
        .map(|&c| (c, fits.optimized_curve(c)))
        .collect();
    curves.insert(component, replacement);
    let swapped = FitSet::from_curves(curves).ok()?;
    Some((optimum(fits)?, optimum(&swapped)?))
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

    /// 1° floors, no allowed sets.
    fn free_config() -> ResolutionConfig {
        ResolutionConfig {
            ocean_allowed: None,
            atm_allowed: None,
            ..ResolutionConfig::one_degree()
        }
    }

    #[test]
    fn layout_scaling_produces_figure4_shape() {
        let fits = toy_fits();
        let scaling = predict_layout_scaling(&fits, &free_config(), &[128, 256, 512, 1024, 2048]);
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
        let config = ResolutionConfig {
            ocean_allowed: Some(vec![8, 16, 32, 64]), // capped at 64
            ..free_config()
        };
        let impact = constraint_impact(&fits, &config, Layout::Hybrid, &[128, 1024, 8192]);
        assert_eq!(impact.len(), 3);
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
        let swap = |n| {
            predict_component_swap(
                &fits,
                &free_config(),
                Layout::Hybrid,
                n,
                Component::Ocn,
                fast_ocean,
            )
        };
        let (before, after) = swap(256).unwrap();
        assert!(after <= before);
        // 1° floors need at least 12 nodes in the hybrid layout.
        assert_eq!(swap(11), None);
    }

    /// On the 1/8° machine (floors 64/256/1024/480, the ocean set), every
    /// what-if point is the exhaustive rung's answer to the configured
    /// problem at that count, bit for bit, and a count the floors and sets
    /// cannot fill has no point instead of a panic.
    #[test]
    fn what_ifs_answer_the_configured_problem() {
        let fits = toy_fits();
        let config = ResolutionConfig::eighth_degree();
        let counts = [1000, 1503, 1504, 4096, 8192];
        let solve = |config: &ResolutionConfig, layout, n| {
            let problem = LayoutModelOptions::from_config(config, layout, Objective::MinMax, n);
            ExhaustiveOptimizer::for_problem(&fits, &problem)
                .try_solve(Objective::MinMax)
                .map(|r| (r.allocation, r.objective.to_bits()))
        };
        assert_eq!(solve(&config, Layout::Hybrid, 1000), None);
        assert!(solve(&config, Layout::Hybrid, 1504).is_some());
        for scaling in predict_layout_scaling(&fits, &config, &counts) {
            let expected: Vec<_> = counts
                .iter()
                .filter_map(|&n| Some((n, solve(&config, scaling.layout, n)?)))
                .collect();
            let got: Vec<_> = scaling
                .points
                .iter()
                .map(|&(n, t, a)| (n, (a, t.to_bits())))
                .collect();
            assert_eq!(got, expected, "{}", scaling.layout);
        }
        let free = config.clone().without_ocean_constraint();
        let impact = constraint_impact(&fits, &config, Layout::Hybrid, &counts);
        let expected: Vec<_> = counts
            .iter()
            .filter_map(|&n| {
                let with = solve(&config, Layout::Hybrid, n)?.1;
                let without = solve(&free, Layout::Hybrid, n)?.1;
                Some((n, with, without))
            })
            .collect();
        let got: Vec<_> = impact
            .iter()
            .map(|&(n, with, without)| (n, with.to_bits(), without.to_bits()))
            .collect();
        assert_eq!(got, expected);
        for n in counts {
            let curve = fits.optimized_curve(Component::Ocn);
            let swap =
                predict_component_swap(&fits, &config, Layout::Hybrid, n, Component::Ocn, curve);
            let same = solve(&config, Layout::Hybrid, n).map(|(_, t)| (t, t));
            assert_eq!(
                swap.map(|(b, a)| (b.to_bits(), a.to_bits())),
                same,
                "N = {n}"
            );
        }
        let machine = hslb_cesm::Machine::intrepid();
        let frontier = crate::cost::frontier(&fits, &config, &machine, Layout::Hybrid, 1000, 1600);
        assert_eq!(frontier[0].nodes, 1504);
        for p in &frontier {
            let (_, t) = solve(&config, Layout::Hybrid, p.nodes).expect("a frontier point fits");
            assert_eq!(p.time_s.to_bits(), t, "N = {}", p.nodes);
        }
    }
}
