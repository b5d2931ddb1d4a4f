//! Post-solve sweet-spot tuning.
//!
//! Table III's final entry notes: "That tuned actual node allocation …
//! was chosen based on the HSLB predicted nodes but adjusting node counts
//! toward known component sweet spots." The MINLP sees only the fitted
//! curves; real components also prefer counts that tile their grids
//! evenly. This module snaps an optimal allocation toward those counts
//! while re-validating the layout constraints — and, because snapping can
//! shift the balance, re-optimizes the ice/land split inside the snapped
//! atmosphere group.

use crate::fit::FitSet;
use hslb_cesm::{sweetspot, Allocation, Component, Layout, Resolution};
use hslb_numerics::float::cmp_f64;

/// Result of sweet-spot tuning.
#[derive(Debug, Clone, Copy)]
pub struct TunedAllocation {
    pub allocation: Allocation,
    /// Predicted time of the tuned allocation under the fitted curves.
    pub predicted_total: f64,
    /// How many components moved off the solver's counts.
    pub adjustments: usize,
}

/// Snap `alloc` toward sweet spots for `resolution` under `layout` on
/// `total_nodes` nodes, keeping the result feasible.
///
/// Snapping order matters: ocean first (it owns its node block), then the
/// atmosphere into the remaining budget, then ice/land re-split inside
/// the atmosphere group with the fitted curves.
pub fn snap_to_sweet_spots(
    fits: &FitSet,
    resolution: Resolution,
    layout: Layout,
    total_nodes: i64,
    alloc: &Allocation,
) -> TunedAllocation {
    let mut tuned = *alloc;
    let mut adjustments = 0usize;

    // Ocean: snap within the machine.
    let ocn = sweetspot::snap(resolution, Component::Ocn, tuned.ocn, total_nodes - 2);
    if ocn != tuned.ocn {
        adjustments += 1;
        tuned.ocn = ocn;
    }

    // Atmosphere: snap into what the layout leaves it.
    let atm_cap = layout.cap(Component::Atm, &tuned, total_nodes);
    let atm = sweetspot::snap(resolution, Component::Atm, tuned.atm.min(atm_cap), atm_cap);
    if atm != tuned.atm {
        adjustments += 1;
        tuned.atm = atm;
    }

    // Ice/land side by side: re-split the (possibly changed) group they
    // share optimally, then snap ice and give land the remainder.
    if layout.tree().side_by_side(Component::Ice, Component::Lnd) {
        let budget = layout.cap(Component::Ice, &tuned, total_nodes) + tuned.lnd;
        let slower = |ni: i64| {
            fits.predict(Component::Ice, ni)
                .max(fits.predict(Component::Lnd, budget - ni))
        };
        // Every split; the first with the least slower side wins.
        let ni = (1..budget)
            .map(|ni| (slower(ni), ni))
            .min_by(|x, y| cmp_f64(x.0, y.0))
            .map_or(1, |(_, ni)| ni);
        let ice = sweetspot::snap(resolution, Component::Ice, ni, budget - 1);
        let lnd = budget - ice;
        if ice != alloc.ice {
            adjustments += 1;
        }
        if lnd != alloc.lnd {
            adjustments += 1;
        }
        tuned.ice = ice;
        tuned.lnd = lnd.max(1);
    } else {
        for c in [Component::Ice, Component::Lnd] {
            let cap = layout.cap(c, &tuned, total_nodes);
            let n = sweetspot::snap(resolution, c, tuned.get(c).min(cap), cap);
            if n != tuned.get(c) {
                adjustments += 1;
                tuned.set(c, n);
            }
        }
    }

    debug_assert!(
        layout.check(&tuned, total_nodes).is_none(),
        "tuning produced an invalid allocation: {tuned}"
    );

    TunedAllocation {
        allocation: tuned,
        predicted_total: fits.predicted_total(layout, &tuned),
        adjustments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb_nlsq::ScalingCurve;
    use std::collections::BTreeMap;

    fn fits() -> FitSet {
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
    fn snapping_respects_layout_constraints() {
        let raw = Allocation {
            lnd: 299,
            ice: 22_657,
            atm: 22_956,
            ocn: 9_811, // not a multiple of 4 → snaps
        };
        let tuned = snap_to_sweet_spots(
            &fits(),
            Resolution::EighthDegree,
            Layout::Hybrid,
            32_768,
            &raw,
        );
        let a = tuned.allocation;
        assert!(Layout::Hybrid.check(&a, 32_768).is_none());
        assert_eq!(a.ocn % 4, 0, "ocean snapped to a sweet spot");
        assert_eq!(a.atm % 8, 0, "atmosphere snapped to a sweet spot");
        assert!(tuned.adjustments >= 2);
    }

    #[test]
    fn already_sweet_allocations_are_untouched_in_ocn_atm() {
        let raw = Allocation {
            lnd: 300,
            ice: 20_588,
            atm: 20_888, // multiple of 8, fits the post-ocn budget
            ocn: 11_880, // multiple of 4
        };
        let tuned = snap_to_sweet_spots(
            &fits(),
            Resolution::EighthDegree,
            Layout::Hybrid,
            32_768,
            &raw,
        );
        assert_eq!(tuned.allocation.ocn, 11_880);
        assert_eq!(tuned.allocation.atm, 20_888);
    }

    #[test]
    fn predicted_total_is_reported_for_the_tuned_point() {
        let raw = Allocation {
            lnd: 38,
            ice: 400,
            atm: 438,
            ocn: 74,
        };
        let tuned = snap_to_sweet_spots(&fits(), Resolution::OneDegree, Layout::Hybrid, 512, &raw);
        assert!(tuned.predicted_total.is_finite());
        assert!(tuned.predicted_total > 0.0);
    }
}
