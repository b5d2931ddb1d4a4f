//! An independent exact optimizer over fitted curves.
//!
//! Serves two purposes:
//!
//! * **verification** — it is the exact optimum the branch-and-bound is
//!   tested against, at any node count and any allowed set;
//! * **coverage** — it evaluates the nonconvex `max-min` objective
//!   (§III-D equation 2) that the convex MINLP route cannot express.
//!
//! Min-max is a table DP over the layout's composition
//! ([`hslb_cesm::layout::Node`]). Every subtree gets a table `F(m)`: the
//! least time it takes on at most `m` nodes, for every `m ∈ [0, N]`.
//!
//! * a component: the prefix minimum of `T_c` over its floor and allowed
//!   set up to `m`;
//! * a free sequence: its members' tables added pointwise;
//! * a sequence owned by a component: the prefix minimum over the owner's
//!   counts `a ≤ m` of `T_owner(a)` plus the rest's tables at `a`;
//! * a side-by-side group: the min–max convolution of its children's
//!   tables, one binary search per `m` since the tables are nonincreasing.
//!
//! That is exact for any curves, convex or not, in O(N) curve
//! evaluations per component and O(N log N) table lookups. Min-sum and
//! max-min (whose budget must use every node) keep their own searches
//! below: an outer ocean scan, thinned to about 2,048 counts above 4,096,
//! with inner closed forms. No objective here models the non-convex
//! `T_sync` window (Table I lines 18–19); only the MINLP states it.

use crate::fit::FitSet;
use crate::layout_model::NodeFloors;
use crate::objective::Objective;
use hslb_cesm::layout::Node;
use hslb_cesm::{Allocation, Component, Layout};
use hslb_numerics::scalar;

/// Exhaustive/DP optimizer over a fitted curve set.
#[derive(Debug, Clone)]
pub struct ExhaustiveOptimizer<'a> {
    pub fits: &'a FitSet,
    pub layout: Layout,
    pub total_nodes: i64,
    /// Allowed ocean counts; `None` = all of `[1, N]`.
    pub ocean_allowed: Option<Vec<i64>>,
    /// Allowed atmosphere counts; `None` = all of `[1, N]`.
    pub atm_allowed: Option<Vec<i64>>,
    /// Per-component memory floors (§III-C); defaults to 1 node each.
    pub floors: NodeFloors,
}

/// Result of an enumeration solve.
#[derive(Debug, Clone)]
pub struct ExhaustiveResult {
    pub allocation: Allocation,
    /// Objective value achieved (makespan for min-max, the min time for
    /// max-min, the time sum for min-sum).
    pub objective: f64,
    /// Work done: curve evaluations for min-max, candidate allocations
    /// scored for min-sum and max-min.
    pub evaluations: usize,
    /// Counts or candidates skipped without scoring (floor/cap/allowed-set
    /// violations) — the enumeration's pruning effectiveness.
    pub pruned: usize,
}

impl<'a> ExhaustiveOptimizer<'a> {
    /// Build for a layout with free ocean/atmosphere counts.
    pub fn new(fits: &'a FitSet, layout: Layout, total_nodes: i64) -> Self {
        ExhaustiveOptimizer {
            fits,
            layout,
            total_nodes,
            ocean_allowed: None,
            atm_allowed: None,
            floors: NodeFloors::default(),
        }
    }

    fn t(&self, c: Component, n: i64) -> f64 {
        self.fits.predict(c, n.max(1))
    }

    /// Outer counts for the min-sum and max-min scans: the allowed list
    /// trimmed to `[lo, cap]`, or the whole range — every
    /// `(N / 2048)`-th count of it when it holds more than 4,096.
    fn scan(&self, allowed: &Option<Vec<i64>>, lo: i64, cap: i64) -> Vec<i64> {
        let lo = lo.max(1);
        match allowed {
            Some(list) => list
                .iter()
                .copied()
                .filter(|&v| v >= lo && v <= cap)
                .collect(),
            None if cap <= 4096 => (lo..=cap).collect(),
            None => Self::strided_inclusive(lo, cap, (self.total_nodes / 2048).max(1)),
        }
    }

    /// `lo..=hi` thinned to every `step`-th value, but always containing
    /// both endpoints. A plain `step_by` can step over `hi` whenever
    /// `(hi − lo) % step ≠ 0`, silently excluding the cap — on monotone
    /// curves often the true optimum — from enumeration.
    fn strided_inclusive(lo: i64, hi: i64, step: i64) -> Vec<i64> {
        if hi < lo {
            return Vec::new();
        }
        let mut out: Vec<i64> = (lo..=hi).step_by(step.max(1) as usize).collect();
        if out.last() != Some(&hi) {
            out.push(hi);
        }
        out
    }

    /// Solve under the given objective.
    ///
    /// Panics when the candidate space is empty; fault-tolerant callers
    /// should use [`Self::try_solve`].
    #[allow(clippy::expect_used)] // panicking wrapper, documented above
    pub fn solve(&self, objective: Objective) -> ExhaustiveResult {
        self.try_solve(objective)
            .expect("no feasible candidate allocation (use try_solve on the fault path)")
    }

    /// Fallible solve: `None` when no candidate allocation exists — the
    /// target machine is smaller than the memory floors, an allowed set
    /// filters down to nothing, or every candidate scores infinite — and
    /// for min-max on more than 2^20 nodes.
    pub fn try_solve(&self, objective: Objective) -> Option<ExhaustiveResult> {
        match objective {
            Objective::MinMax => self.solve_minmax(),
            Objective::SumTime => self.solve_sum(),
            Objective::MaxMin => self.solve_maxmin(),
        }
        .filter(|r| r.objective.is_finite())
    }

    fn solve_minmax(&self) -> Option<ExhaustiveResult> {
        // The tables take ~100 bytes per node count (110 MB and 0.4 s for
        // the hybrid at 2^20). A budget arrives from a request, so past
        // 2^20 nodes (3× the largest machine modelled here) the rung
        // declines instead of allocating without bound.
        let n = usize::try_from(self.total_nodes)
            .ok()
            .filter(|&n| n <= 1 << 20)?;
        let mut count = Counts::default();
        let root = self.layout.tree();
        let solved = self.table(root, n, &mut count);
        if !solved.time[n].is_finite() {
            return None;
        }
        let mut allocation = Allocation::from_table_order([0; 4]);
        solved.place(root, n, &mut allocation);
        Some(ExhaustiveResult {
            objective: self.fits.predicted_total(self.layout, &allocation),
            allocation,
            evaluations: count.evaluations,
            pruned: count.pruned,
        })
    }

    fn floor(&self, c: Component) -> i64 {
        match c {
            Component::Lnd => self.floors.lnd,
            Component::Ice => self.floors.ice,
            Component::Atm => self.floors.atm,
            _ => self.floors.ocn,
        }
        .max(1)
    }

    /// Prefix minimum of `cost[k] + T_c(k)` over the counts `c` may take
    /// (at or above its floor, in its allowed set when it has one):
    /// `time[m]` the least over `k ≤ m`, `pick[m]` the smallest `k` that
    /// reaches it.
    fn prefix_min(&self, c: Component, cost: &[f64], count: &mut Counts) -> Table {
        let n = cost.len() - 1;
        let allowed = match c {
            Component::Ocn => self.ocean_allowed.as_ref(),
            Component::Atm => self.atm_allowed.as_ref(),
            _ => None,
        };
        let mut ok = vec![allowed.is_none(); n + 1];
        for &v in allowed.into_iter().flatten() {
            if let Some(k) = usize::try_from(v).ok().filter(|&k| k <= n) {
                ok[k] = true;
            }
        }
        ok.iter_mut()
            .take(self.floor(c) as usize)
            .for_each(|k| *k = false);
        let (mut time, mut pick) = (Vec::with_capacity(n + 1), Vec::with_capacity(n + 1));
        let (mut best, mut at) = (f64::INFINITY, 0);
        for (k, &admissible) in ok.iter().enumerate() {
            if !admissible {
                count.pruned += usize::from(k > 0);
            } else if cost[k].is_finite() {
                count.evaluations += 1;
                let t = cost[k] + self.t(c, k as i64);
                if t < best {
                    (best, at) = (t, k);
                }
            }
            time.push(best);
            pick.push(at);
        }
        Table {
            time,
            pick,
            ..Table::default()
        }
    }

    /// The subtree's table on budgets `0..=n`, with its children's.
    fn table(&self, node: &Node, n: usize, count: &mut Counts) -> Table {
        match node {
            Node::Leaf(c) => self.prefix_min(*c, &vec![0.0; n + 1], count),
            Node::Seq(owner, kids) => {
                let kids: Vec<Table> = kids.iter().map(|k| self.table(k, n, count)).collect();
                let rest: Vec<f64> = (0..=n)
                    .map(|m| kids.iter().map(|k| k.time[m]).sum::<f64>())
                    .collect();
                let own = match owner {
                    Some(c) => self.prefix_min(*c, &rest, count),
                    None => Table {
                        time: rest,
                        ..Table::default()
                    },
                };
                Table { kids, ..own }
            }
            Node::Par(kids) => {
                let kids: Vec<Table> = kids.iter().map(|k| self.table(k, n, count)).collect();
                let mut merged = kids[0].time.clone();
                let mut splits = Vec::with_capacity(kids.len() - 1);
                for k in &kids[1..] {
                    let (time, pick) = min_max_merge(&merged, &k.time);
                    merged = time;
                    splits.push(pick);
                }
                Table {
                    time: merged,
                    pick: Vec::new(),
                    kids,
                    splits,
                }
            }
        }
    }

    fn solve_sum(&self) -> Option<ExhaustiveResult> {
        // Equation (3): each component independently picks its curve's
        // minimizer subject to the layout's node caps — the sum decouples
        // given the outer ocn choice.
        let n = self.total_nodes;
        let mut best: Option<(f64, Allocation)> = None;
        let mut evals = 0usize;
        // The ocean scan leaves the rest its fewest nodes: one each for
        // ice and land inside a two-node atmosphere.
        let at = |lnd, ice, atm, ocn| Allocation::from_table_order([lnd, ice, atm, ocn]);
        let ocn_cap = self.layout.cap(Component::Ocn, &at(1, 1, 2, 0), n);
        let cands = self.scan(&self.ocean_allowed, self.floors.ocn, ocn_cap);
        let mut pruned = 0usize;
        for &no in &cands {
            let cap = self.layout.cap(Component::Atm, &at(0, 0, 0, no), n);
            if cap < 3 {
                pruned += 1;
                continue;
            }
            let na = match &self.atm_allowed {
                Some(list) => list
                    .iter()
                    .copied()
                    .filter(|&v| v <= cap && v >= self.floors.atm)
                    .min_by(|&x, &y| {
                        hslb_numerics::float::cmp_f64(
                            self.t(Component::Atm, x),
                            self.t(Component::Atm, y),
                        )
                    })
                    .unwrap_or(self.floors.atm.max(1)),
                None => self
                    .fits
                    .optimized_curve(Component::Atm)
                    .argmin_nodes(self.floors.atm, cap),
            };
            let inner_cap = self.layout.cap(Component::Ice, &at(0, 0, na, no), n);
            if inner_cap < 2 {
                pruned += 1;
                continue;
            }
            // Side by side (layout 1), ice + lnd ≤ n_atm couples them;
            // minimize the sum over the split (unimodal).
            let (ni, nl) = if self
                .layout
                .tree()
                .side_by_side(Component::Ice, Component::Lnd)
            {
                let (ice_lo, lnd_lo) = (self.floors.ice.max(1), self.floors.lnd.max(1));
                if inner_cap < ice_lo + lnd_lo {
                    pruned += 1;
                    continue;
                }
                let f = |k: i64| self.t(Component::Ice, k) + self.t(Component::Lnd, inner_cap - k);
                let (k, _) = scalar::integer_ternary_min(f, ice_lo, inner_cap - lnd_lo);
                (k, inner_cap - k)
            } else {
                let solo = |c, floor| self.fits.optimized_curve(c).argmin_nodes(floor, inner_cap);
                (
                    solo(Component::Ice, self.floors.ice),
                    solo(Component::Lnd, self.floors.lnd),
                )
            };
            evals += 1;
            let total = self.t(Component::Ice, ni)
                + self.t(Component::Lnd, nl)
                + self.t(Component::Atm, na)
                + self.t(Component::Ocn, no);
            if best.as_ref().is_none_or(|(b, _)| total < *b) {
                best = Some((
                    total,
                    Allocation {
                        lnd: nl,
                        ice: ni,
                        atm: na,
                        ocn: no,
                    },
                ));
            }
        }
        let (objective, allocation) = best?;
        Some(ExhaustiveResult {
            allocation,
            objective,
            evaluations: evals,
            pruned,
        })
    }

    fn solve_maxmin(&self) -> Option<ExhaustiveResult> {
        // Equation (2): maximize min_j T_j(n_j) under a *use-all-nodes*
        // budget (without it the trivial answer is one node each). The
        // search mirrors min-max but scores with the minimum.
        let n = self.total_nodes;
        let mut best: Option<(f64, Allocation)> = None;
        let mut evals = 0usize;
        let mut pruned = 0usize;
        let cands = self.scan(&self.ocean_allowed, self.floors.ocn, n - 3);
        for &no in &cands {
            let na = n - no; // all remaining nodes go to the atm group
            if na < 3 {
                pruned += 1;
                continue;
            }
            if let Some(list) = &self.atm_allowed {
                if !list.contains(&na) {
                    pruned += 1;
                    continue;
                }
            }
            // Split ice/lnd to maximize min(T_i, T_l): unimodal again.
            let (ice_lo, lnd_lo) = (self.floors.ice.max(1), self.floors.lnd.max(1));
            if na < ice_lo + lnd_lo {
                pruned += 1;
                continue;
            }
            let f = |k: i64| {
                -(self
                    .t(Component::Ice, k)
                    .min(self.t(Component::Lnd, na - k)))
            };
            let (k, neg) = scalar::integer_ternary_min(f, ice_lo, na - lnd_lo);
            evals += 1;
            let score = (-neg)
                .min(self.t(Component::Atm, na))
                .min(self.t(Component::Ocn, no));
            if best.as_ref().is_none_or(|(b, _)| score > *b) {
                best = Some((
                    score,
                    Allocation {
                        lnd: na - k,
                        ice: k,
                        atm: na,
                        ocn: no,
                    },
                ));
            }
        }
        let (objective, allocation) = best?;
        Some(ExhaustiveResult {
            allocation,
            objective,
            evaluations: evals,
            pruned,
        })
    }
}

/// Curve evaluations and skipped counts of one min-max solve.
#[derive(Default)]
struct Counts {
    evaluations: usize,
    pruned: usize,
}

/// A subtree's table: `time[m]` is the least time it takes on at most `m`
/// nodes (∞ when it cannot fit) and `pick[m]` the count that reaches it —
/// a component's own or an owner's. `splits[j][m]` is what a side-by-side
/// group's child `j + 1` takes of the `m` nodes its first `j + 2` children
/// share.
#[derive(Default)]
struct Table {
    time: Vec<f64>,
    pick: Vec<usize>,
    kids: Vec<Table>,
    splits: Vec<Vec<usize>>,
}

impl Table {
    /// Write the counts that reach `time[m]` into `a`.
    fn place(&self, node: &Node, m: usize, a: &mut Allocation) {
        match node {
            Node::Leaf(c) => a.set(*c, self.pick[m] as i64),
            Node::Seq(owner, kids) => {
                let m = match owner {
                    Some(c) => {
                        a.set(*c, self.pick[m] as i64);
                        self.pick[m]
                    }
                    None => m,
                };
                for (k, node) in self.kids.iter().zip(*kids) {
                    k.place(node, m, a);
                }
            }
            Node::Par(kids) => {
                let mut m = m;
                for (j, (k, node)) in self.kids.iter().zip(*kids).enumerate().skip(1).rev() {
                    let share = self.splits[j - 1][m];
                    k.place(node, share, a);
                    m -= share;
                }
                self.kids[0].place(&kids[0], m, a);
            }
        }
    }
}

/// Min–max convolution of two nonincreasing tables: for every budget `m`,
/// the least `max(a[m − j], b[j])` over `j ∈ [0, m]`, and the `j` giving
/// it. Past the first `j` with `b[j] ≤ a[m − j]` the first side is the
/// slower one and only grows; before it the second is and only shrinks,
/// so the optimum sits at that crossing or just before it.
fn min_max_merge(a: &[f64], b: &[f64]) -> (Vec<f64>, Vec<usize>) {
    (0..a.len())
        .map(|m| {
            let (mut lo, mut hi) = (0, m + 1);
            while lo < hi {
                let j = (lo + hi) / 2;
                if b[j] <= a[m - j] {
                    hi = j;
                } else {
                    lo = j + 1;
                }
            }
            let mut best = (f64::INFINITY, 0);
            if lo <= m {
                best = (a[m - lo], lo);
            }
            if lo > 0 && b[lo - 1] < best.0 {
                best = (b[lo - 1], lo - 1);
            }
            best
        })
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::FitSet;
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
    fn minmax_beats_naive_allocations() {
        let fits = toy_fits();
        let opt = ExhaustiveOptimizer::new(&fits, Layout::Hybrid, 128);
        let res = opt.solve(Objective::MinMax);
        // Sanity: compare against a handful of hand-picked allocations.
        for (ni, nl, na, no) in [(30, 10, 100, 28), (40, 24, 64, 64), (10, 5, 96, 32)] {
            let icelnd = fits
                .predict(Component::Ice, ni)
                .max(fits.predict(Component::Lnd, nl));
            let t =
                (icelnd + fits.predict(Component::Atm, na)).max(fits.predict(Component::Ocn, no));
            assert!(res.objective <= t + 1e-9, "beaten by ({ni},{nl},{na},{no})");
        }
        // And the reported allocation achieves the reported objective.
        let a = res.allocation;
        let icelnd = fits
            .predict(Component::Ice, a.ice)
            .max(fits.predict(Component::Lnd, a.lnd));
        let t =
            (icelnd + fits.predict(Component::Atm, a.atm)).max(fits.predict(Component::Ocn, a.ocn));
        assert!((t - res.objective).abs() < 1e-9);
        assert!(a.ice + a.lnd <= a.atm);
        assert!(a.atm + a.ocn <= 128);
    }

    #[test]
    fn try_solve_reports_empty_candidate_space() {
        let fits = toy_fits();
        // Two nodes cannot host an atm side plus an ocean.
        let tiny = ExhaustiveOptimizer::new(&fits, Layout::Hybrid, 2);
        assert!(tiny.try_solve(Objective::MinMax).is_none());
        let ok = ExhaustiveOptimizer::new(&fits, Layout::Hybrid, 128);
        assert!(ok.try_solve(Objective::MinMax).is_some());
        // A budget past 2^20 nodes is declined, not tabulated.
        let huge = ExhaustiveOptimizer::new(&fits, Layout::Hybrid, (1 << 20) + 1);
        assert!(huge.try_solve(Objective::MinMax).is_none());
    }

    #[test]
    fn allowed_sets_are_respected() {
        let fits = toy_fits();
        let mut opt = ExhaustiveOptimizer::new(&fits, Layout::Hybrid, 128);
        opt.ocean_allowed = Some(vec![8, 16, 24, 32, 64]);
        let res = opt.solve(Objective::MinMax);
        assert!([8, 16, 24, 32, 64].contains(&res.allocation.ocn));
    }

    #[test]
    fn layout_ordering_matches_figure_4() {
        // Predicted: layout 1 ≈ layout 2 ≤ layout 3 (fully sequential is
        // worst).
        let fits = toy_fits();
        let t1 = ExhaustiveOptimizer::new(&fits, Layout::Hybrid, 256)
            .solve(Objective::MinMax)
            .objective;
        let t2 = ExhaustiveOptimizer::new(&fits, Layout::SequentialWithOcean, 256)
            .solve(Objective::MinMax)
            .objective;
        let t3 = ExhaustiveOptimizer::new(&fits, Layout::FullySequential, 256)
            .solve(Objective::MinMax)
            .objective;
        assert!(t1 <= t2 + 1e-9, "layout1 {t1} vs layout2 {t2}");
        assert!(t2 <= t3 + 1e-9, "layout2 {t2} vs layout3 {t3}");
    }

    #[test]
    fn maxmin_balances_components() {
        let fits = toy_fits();
        let opt = ExhaustiveOptimizer::new(&fits, Layout::Hybrid, 128);
        let res = opt.solve(Objective::MaxMin);
        // All nodes used on the concurrent dimension.
        assert_eq!(res.allocation.atm + res.allocation.ocn, 128);
        // The objective equals the smallest component time.
        let a = res.allocation;
        let tmin = fits
            .predict(Component::Ice, a.ice)
            .min(fits.predict(Component::Lnd, a.lnd))
            .min(fits.predict(Component::Atm, a.atm))
            .min(fits.predict(Component::Ocn, a.ocn));
        assert!((tmin - res.objective).abs() < 1e-9);
    }

    #[test]
    fn sum_objective_decouples() {
        let fits = toy_fits();
        let opt = ExhaustiveOptimizer::new(&fits, Layout::FullySequential, 128);
        let res = opt.solve(Objective::SumTime);
        // With monotone curves every component takes the max it can.
        assert_eq!(res.allocation.atm, 128);
        assert_eq!(res.allocation.ocn, 128);
    }

    #[test]
    fn min_max_merge_matches_brute_force() {
        // Nonincreasing tables with unreachable (∞) prefixes and plateaus.
        let a = [f64::INFINITY, f64::INFINITY, 9.0, 7.0, 7.0, 4.0, 4.0, 1.0];
        let b = [f64::INFINITY, 8.0, 8.0, 5.0, 3.0, 3.0, 2.0, 2.0];
        let (time, pick) = min_max_merge(&a, &b);
        for m in 0..a.len() {
            let best = (0..=m)
                .map(|j| a[m - j].max(b[j]))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(time[m], best, "m = {m}");
            if best.is_finite() {
                assert_eq!(a[m - pick[m]].max(b[pick[m]]), best, "m = {m}");
            }
        }
    }

    #[test]
    fn strided_inclusive_keeps_both_endpoints() {
        assert_eq!(
            ExhaustiveOptimizer::strided_inclusive(1, 10, 3),
            vec![1, 4, 7, 10]
        );
        // (hi − lo) % step ≠ 0: hi must still be present.
        assert_eq!(
            ExhaustiveOptimizer::strided_inclusive(1, 9, 3),
            vec![1, 4, 7, 9]
        );
        assert_eq!(ExhaustiveOptimizer::strided_inclusive(5, 5, 2), vec![5]);
        assert!(ExhaustiveOptimizer::strided_inclusive(6, 5, 2).is_empty());
    }

    #[test]
    fn coarse_stride_does_not_skip_the_cap() {
        // Regression: above 4096 candidates the ocean range is thinned by
        // step = (n/2048).max(1). At n = 6000 that is step 2 starting at
        // 1 — every candidate odd — so the cap (6000, the optimum on a
        // monotone-decreasing curve) was silently never evaluated and the
        // solver returned ocn = 5999.
        let fits = toy_fits();
        let opt = ExhaustiveOptimizer::new(&fits, Layout::FullySequential, 6000);
        let res = opt.solve(Objective::SumTime);
        assert_eq!(res.allocation.ocn, 6000, "cap excluded from enumeration");
        assert!(res.evaluations > 0);
    }
}
