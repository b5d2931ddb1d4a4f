//! Cost-efficiency analysis (§IV-C).
//!
//! "Another important HSLB application may be the prediction of the
//! optimal nodes to run a job. The definition of optimal depends on the
//! goal; it could be a cost-efficient goal where nodes are increased until
//! scaling is reduced to a predefined limit or it could be the shortest
//! time to solution." This module prices allocations in core-hours and
//! builds the cost/time frontier a facility user would consult before
//! requesting an INCITE-scale allocation.

use crate::fit::FitSet;
use hslb_cesm::{Layout, Machine, ResolutionConfig};

/// One point of the cost/time frontier.
#[derive(Debug, Clone, Copy)]
pub struct FrontierPoint {
    /// Total nodes allocated to the job.
    pub nodes: i64,
    /// Predicted coupled time for the benchmark-length run, seconds.
    pub time_s: f64,
    /// Core-hours charged for that run (whole job allocation × duration).
    pub core_hours: f64,
    /// Speedup relative to the smallest frontier point.
    pub speedup: f64,
    /// Parallel efficiency relative to the smallest frontier point.
    pub efficiency: f64,
}

/// Core-hours to run for `seconds` on `nodes` nodes of `machine` —
/// facilities charge for the whole reservation, not the busy fraction.
pub fn core_hours(machine: &Machine, nodes: i64, seconds: f64) -> f64 {
    (nodes * machine.cores_per_node as i64) as f64 * seconds / 3600.0
}

/// The cost/time frontier at every node count in `[min_nodes, max_nodes]`
/// (capped at the machine's size), read from one min-max
/// [`crate::ExhaustiveOptimizer::frontier`] of the configured machine's
/// problem: each point is the pipeline's exhaustive answer at its count,
/// and counts where no allocation fits are left out.
///
/// # Examples
///
/// ```
/// use hslb::cost;
/// use hslb::FitSet;
/// use hslb_cesm::{Component, Layout, Machine, ResolutionConfig};
/// use hslb_nlsq::ScalingCurve;
/// use std::collections::BTreeMap;
///
/// let mk = |a: f64, d: f64| ScalingCurve { a, b: 0.0, c: 1.0, d };
/// let fits = FitSet::from_curves(BTreeMap::from([
///     (Component::Ice, mk(8000.0, 2.0)),
///     (Component::Lnd, mk(1500.0, 1.0)),
///     (Component::Atm, mk(30000.0, 10.0)),
///     (Component::Ocn, mk(9000.0, 5.0)),
/// ])).unwrap();
/// let config = ResolutionConfig::one_degree();
/// let f = cost::frontier(&fits, &config, &Machine::intrepid(), Layout::Hybrid, 64, 1024);
/// assert_eq!(f.len(), 961); // 64, 65, …, 1024
/// assert!(f.last().unwrap().time_s < f[0].time_s);
/// ```
pub fn frontier(
    fits: &FitSet,
    config: &ResolutionConfig,
    machine: &Machine,
    layout: Layout,
    min_nodes: i64,
    max_nodes: i64,
) -> Vec<FrontierPoint> {
    let top = max_nodes.min(machine.nodes);
    let Some(optima) = crate::whatif::optima(fits, config, layout, &[top]) else {
        return Vec::new();
    };
    let mut base: Option<(i64, f64)> = None;
    (min_nodes..=top)
        .filter_map(|n| {
            let (_, time_s) = optima.at(n)?;
            let (n0, t0) = *base.get_or_insert((n, time_s));
            let speedup = t0 / time_s;
            let ideal = n as f64 / n0 as f64;
            Some(FrontierPoint {
                nodes: n,
                time_s,
                core_hours: core_hours(machine, n, time_s),
                speedup,
                efficiency: speedup / ideal,
            })
        })
        .collect()
}

/// The cheapest frontier point whose time beats `deadline_s`, if any —
/// "minimal cost subject to a throughput requirement".
pub fn cheapest_within_deadline(
    frontier: &[FrontierPoint],
    deadline_s: f64,
) -> Option<FrontierPoint> {
    frontier
        .iter()
        .filter(|p| p.time_s <= deadline_s)
        .min_by(|a, b| hslb_numerics::float::cmp_f64(a.core_hours, b.core_hours))
        .copied()
}

/// The largest size still meeting an efficiency floor — the paper's
/// "nodes are increased until scaling is reduced to a predefined limit".
pub fn largest_efficient(frontier: &[FrontierPoint], min_efficiency: f64) -> Option<FrontierPoint> {
    frontier
        .iter()
        .filter(|p| p.efficiency >= min_efficiency)
        .max_by_key(|p| p.nodes)
        .copied()
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

    /// The frontier on toy fits with 1° floors and no allowed sets.
    fn toy_frontier(fits: &FitSet, max_nodes: i64) -> Vec<FrontierPoint> {
        let config = ResolutionConfig {
            ocean_allowed: None,
            atm_allowed: None,
            ..ResolutionConfig::one_degree()
        };
        frontier(
            fits,
            &config,
            &Machine::intrepid(),
            Layout::Hybrid,
            64,
            max_nodes,
        )
    }

    #[test]
    fn core_hours_formula() {
        let m = Machine::intrepid(); // 4 cores/node
        assert!((core_hours(&m, 128, 3600.0) - 512.0).abs() < 1e-9);
    }

    #[test]
    fn frontier_time_decreases_cost_increases_eventually() {
        let fits = toy_fits();
        let f = toy_frontier(&fits, 4096);
        assert!(f.len() >= 6);
        assert!(f.windows(2).all(|w| w[1].time_s <= w[0].time_s + 1e-9));
        // Efficiency wobbles between neighbouring counts (integer splits)
        // but falls across the range on these curves.
        assert!(f.last().unwrap().efficiency < f[1].efficiency + 1e-9);
        // With a serial floor, big sizes cost more core-hours per run.
        assert!(f.last().unwrap().core_hours > f[0].core_hours);
    }

    #[test]
    fn deadline_picker_prefers_cheapest() {
        let fits = toy_fits();
        let f = toy_frontier(&fits, 4096);
        // Integer splits make core-hours jagged from one count to the next
        // (70 nodes is cheaper than 64 here), so a loose deadline picks the
        // cheapest count anywhere on the frontier.
        let loose = cheapest_within_deadline(&f, f[0].time_s + 1.0).unwrap();
        let cheapest = f.iter().map(|p| p.core_hours).fold(f64::INFINITY, f64::min);
        assert_eq!(loose.core_hours, cheapest, "loose deadline → cheapest size");
        let tight = cheapest_within_deadline(&f, f.last().unwrap().time_s * 1.05).unwrap();
        assert!(tight.nodes > loose.nodes, "tight deadline forces scale-up");
        assert!(cheapest_within_deadline(&f, 0.001).is_none());
    }

    #[test]
    fn efficiency_floor_picks_a_knee() {
        let knee = |fits: &FitSet| {
            let f = toy_frontier(fits, 16_384);
            let knee = largest_efficient(&f, 0.7).unwrap();
            assert!(knee.nodes < 16_384, "floor must bind before the max size");
            assert!(knee.efficiency >= 0.7);
            knee.nodes
        };
        // Curves with a large serial floor stop scaling sooner than the
        // scalable toy model.
        let mk = |a: f64, d: f64| ScalingCurve {
            a,
            b: 0.0,
            c: 1.0,
            d,
        };
        let serial = FitSet::from_curves(BTreeMap::from([
            (Component::Ice, mk(1_000.0, 50.0)),
            (Component::Lnd, mk(500.0, 50.0)),
            (Component::Atm, mk(2_000.0, 100.0)),
            (Component::Ocn, mk(1_000.0, 80.0)),
        ]))
        .unwrap();
        assert!(knee(&serial) < knee(&toy_fits()));
    }

    #[test]
    fn every_budget_answers_at_least_as_well_as_the_doubling_grid() {
        // The frontier's points at 64·2^k are the old doubling search's,
        // whose pickers read only those: on the superset of budgets the
        // efficient size can only grow and the cheapest cost only fall.
        let fits = toy_fits();
        let f = toy_frontier(&fits, 16_384);
        let doubling: Vec<FrontierPoint> = f
            .iter()
            .filter(|p| p.nodes % 64 == 0 && (p.nodes / 64).count_ones() == 1)
            .copied()
            .collect();
        assert_eq!(doubling.len(), 9);
        for floor in [0.5, 0.7, 0.9] {
            let (all, grid) = (
                largest_efficient(&f, floor),
                largest_efficient(&doubling, floor),
            );
            assert!(all.unwrap().nodes >= grid.unwrap().nodes, "floor {floor}");
        }
        for p in &doubling {
            let deadline = p.time_s * 1.01;
            let all = cheapest_within_deadline(&f, deadline).unwrap();
            let grid = cheapest_within_deadline(&doubling, deadline).unwrap();
            assert!(all.core_hours <= grid.core_hours, "deadline {deadline}");
        }
    }
}
