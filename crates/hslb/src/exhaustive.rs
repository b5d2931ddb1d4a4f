//! An independent exact optimizer over fitted curves.
//!
//! Serves two purposes:
//!
//! * **verification** — it is the exact optimum the branch-and-bound is
//!   tested against, at any node count and any allowed set;
//! * **coverage** — it evaluates the nonconvex `max-min` objective
//!   (§III-D equation 2) that the convex MINLP route cannot express.
//!
//! Every objective is one table DP over the layout's composition
//! ([`hslb_cesm::layout::Node`]). Every subtree gets a table `F(m)`: its
//! best score on at most `m` nodes, for every `m ∈ [0, N]` — on exactly
//! `m` for max-min, whose budget must use every node (a side-by-side
//! group's children fill it, a sequence's members and its owner each take
//! all of it). Scores are minimized; max-min's are negated times, so that
//! raising the least time is lowering the largest `−T`.
//!
//! * a component: `T_c` over its floor and allowed set, prefix-minimized
//!   up to `m` (max-min: at `m` itself);
//! * a free sequence: its members' tables joined pointwise — added, or for
//!   max-min the larger score;
//! * a sequence owned by a component: the prefix minimum over the owner's
//!   counts `a ≤ m` of `T_owner(a)` joined with the rest's tables at `a`
//!   (max-min: `a = m`);
//! * a side-by-side group: the best split of `m` between its children,
//!   scored by the slower one (min-max, max-min) or their sum (min-sum).
//!
//! The split search is the objective's one choice. Min-max tables are
//! nonincreasing, so one binary search per `m` finds the crossing, exact
//! for any curves. For the other two, the root group is needed at `N`
//! only and is scanned directly, exact for any tables. A group nested in
//! an owned sequence (the hybrid's ice/land) is needed at every `m`. Its
//! children are components with floors and no allowed set, convex under
//! Table II's curves, so a binary search per `m` finds the first split
//! where the sum stops falling (min-sum) or where the side rising toward
//! its fastest count meets the falling one (max-min). On non-convex
//! curves those two stay feasible but may miss the optimum; min-max stays
//! exact.
//! No objective here models the non-convex `T_sync` window (Table I
//! lines 18–19); only the MINLP states it.
//!
//! [`ExhaustiveOptimizer::frontier`] runs the min-max DP once with the root
//! group merged at every budget too. Every table entry at `m` reads only
//! entries at counts `≤ m`, so the frontier read at `m` is the solve at
//! `N = m`, bit for bit: §IV-C's scaling and node-count questions cost one
//! DP per layout, not one per budget.

use crate::fit::FitSet;
use crate::layout_model::{LayoutModelOptions, NodeFloors};
use crate::objective::Objective;
use hslb_cesm::layout::Node;
use hslb_cesm::{Allocation, Component, Layout};

const INF: f64 = f64::INFINITY;

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
    /// Work done: curve evaluations.
    pub evaluations: usize,
    /// Counts skipped without evaluating the curve (below the floor or
    /// outside the allowed set) — the enumeration's pruning effectiveness.
    pub pruned: usize,
}

impl<'a> ExhaustiveOptimizer<'a> {
    /// Build for a layout with free ocean/atmosphere counts.
    pub fn new(fits: &'a FitSet, layout: Layout, total_nodes: i64) -> Self {
        Self::for_problem(fits, &LayoutModelOptions::free(layout, total_nodes))
    }

    /// Build for a problem's layout, budget, floors and allowed sets (the
    /// objective is chosen per solve; `T_sync` is not modelled here).
    pub fn for_problem(fits: &'a FitSet, problem: &LayoutModelOptions) -> Self {
        ExhaustiveOptimizer {
            fits,
            layout: problem.layout,
            total_nodes: problem.total_nodes,
            ocean_allowed: problem.ocean_allowed.clone(),
            atm_allowed: problem.atm_allowed.clone(),
            floors: problem.floors,
        }
    }

    /// Fallible solve: `None` when no candidate allocation exists — the
    /// target machine is smaller than the memory floors, an allowed set
    /// filters down to nothing, or every candidate scores infinite — and
    /// on more than 2^20 nodes.
    pub fn try_solve(&self, objective: Objective) -> Option<ExhaustiveResult> {
        let (table, count) = self.tabulate(objective, true)?;
        let n = table.time.len() - 1;
        let (allocation, value) = table.read(self.fits, self.layout, objective, n)?;
        Some(ExhaustiveResult {
            allocation,
            objective: value,
            evaluations: count.evaluations,
            pruned: count.pruned,
        })
    }

    /// The min-max optimum at every budget up to `total_nodes`, from one
    /// DP: [`Frontier::at`]`(m)` is [`Self::try_solve`] at `total_nodes =
    /// m`. `None` on more than 2^20 nodes.
    pub fn frontier(&self) -> Option<Frontier<'a>> {
        let (table, _) = self.tabulate(Objective::MinMax, false)?;
        Some(Frontier {
            fits: self.fits,
            layout: self.layout,
            table,
        })
    }

    /// The root table on budgets `0..=N` and the work it took; its root
    /// side-by-side group is merged at `N` alone when `root_at_n`. The
    /// tables take ~100 bytes per node count (110 MB and 0.4 s for the
    /// hybrid's min-max at 2^20). A budget arrives from a request, so past
    /// 2^20 nodes (3× the largest machine modelled here) the rung declines
    /// instead of allocating without bound.
    fn tabulate(&self, objective: Objective, root_at_n: bool) -> Option<(Table, Counts)> {
        let n = usize::try_from(self.total_nodes)
            .ok()
            .filter(|&n| n <= 1 << 20)?;
        let mut dp = Dp {
            opt: self,
            objective,
            count: Counts::default(),
        };
        let table = dp.table(self.layout.tree(), n, root_at_n);
        Some((table, dp.count))
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
}

/// The min-max optimum of one layout at every budget `m ∈ [0, N]`.
pub struct Frontier<'a> {
    fits: &'a FitSet,
    layout: Layout,
    table: Table,
}

impl Frontier<'_> {
    /// The allocation and makespan [`ExhaustiveOptimizer::try_solve`]
    /// finds at `total_nodes = m`, bit for bit; `None` where it finds
    /// none or `m` lies outside `[0, total_nodes]`.
    pub fn at(&self, m: i64) -> Option<(Allocation, f64)> {
        let m = usize::try_from(m)
            .ok()
            .filter(|&m| m < self.table.time.len())?;
        self.table
            .read(self.fits, self.layout, Objective::MinMax, m)
    }
}

/// One solve: the optimizer, the objective that reads its composition,
/// and the work counted so far.
struct Dp<'o, 'a> {
    opt: &'o ExhaustiveOptimizer<'a>,
    objective: Objective,
    count: Counts,
}

impl Dp<'_, '_> {
    /// Max-min's tables hold the score on exactly `m` nodes, the others'
    /// on at most `m`.
    fn exact(&self) -> bool {
        self.objective == Objective::MaxMin
    }

    /// Component `c`'s score on `k` nodes: its time, negated for max-min.
    fn score(&self, c: Component, k: usize) -> f64 {
        let t = self.opt.fits.predict(c, (k as i64).max(1));
        if self.exact() {
            -t
        } else {
            t
        }
    }

    /// The score of two parts run one after another.
    fn then(&self, x: f64, y: f64) -> f64 {
        if self.exact() {
            x.max(y)
        } else {
            x + y
        }
    }

    /// The score of two parts run side by side.
    fn beside(&self, x: f64, y: f64) -> f64 {
        if self.objective == Objective::SumTime {
            x + y
        } else {
            x.max(y)
        }
    }

    /// The score of a sequence with no members.
    fn empty(&self) -> f64 {
        if self.exact() {
            f64::NEG_INFINITY
        } else {
            0.0
        }
    }

    /// `c` after `rest`, on the counts `c` may take (at or above its
    /// floor, in its allowed set when it has one): `time[m]` the best of
    /// `rest[k]` then `c`'s score at `k`, over `k ≤ m` (max-min: `k = m`),
    /// and `pick[m]` the smallest `k` that reaches it.
    fn own(&mut self, c: Component, rest: &[f64]) -> Table {
        let n = rest.len() - 1;
        let allowed = match c {
            Component::Ocn => self.opt.ocean_allowed.as_ref(),
            Component::Atm => self.opt.atm_allowed.as_ref(),
            _ => None,
        };
        let mut ok = vec![allowed.is_none(); n + 1];
        for &v in allowed.into_iter().flatten() {
            if let Some(k) = usize::try_from(v).ok().filter(|&k| k <= n) {
                ok[k] = true;
            }
        }
        ok.iter_mut()
            .take(self.opt.floor(c) as usize)
            .for_each(|k| *k = false);
        let (mut time, mut pick) = (Vec::with_capacity(n + 1), Vec::with_capacity(n + 1));
        let (mut best, mut at) = (INF, 0);
        for (k, &admissible) in ok.iter().enumerate() {
            let mut here = INF;
            if !admissible {
                self.count.pruned += usize::from(k > 0);
            } else if rest[k] < INF {
                self.count.evaluations += 1;
                here = self.then(rest[k], self.score(c, k));
            }
            if self.exact() || here < best {
                (best, at) = (here, k);
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

    /// The subtree's table on budgets `0..=n`, with its children's. A
    /// `root` side-by-side group is filled at `n` only.
    fn table(&mut self, node: &Node, n: usize, root: bool) -> Table {
        match node {
            Node::Leaf(c) => self.own(*c, &vec![self.empty(); n + 1]),
            Node::Seq(owner, kids) => {
                let kids: Vec<Table> = kids
                    .iter()
                    .map(|k| self.table(k, n, root && owner.is_none()))
                    .collect();
                let rest: Vec<f64> = (0..=n)
                    .map(|m| {
                        kids.iter()
                            .fold(self.empty(), |s, k| self.then(s, k.time[m]))
                    })
                    .collect();
                let own = match owner {
                    Some(c) => self.own(*c, &rest),
                    None => Table {
                        time: rest,
                        ..Table::default()
                    },
                };
                Table { kids, ..own }
            }
            Node::Par(kids) => {
                let kids: Vec<Table> = kids.iter().map(|k| self.table(k, n, false)).collect();
                let mut merged = kids[0].time.clone();
                let mut splits = Vec::with_capacity(kids.len() - 1);
                for (j, k) in kids.iter().enumerate().skip(1) {
                    let (time, pick) = self.merge(&merged, &k.time, root && j + 1 == kids.len());
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

    /// Two side-by-side tables as one: for every budget `m` (only the
    /// last when `root`), the best split `(score, j)` giving `b` `j` nodes.
    fn merge(&self, a: &[f64], b: &[f64], root: bool) -> (Vec<f64>, Vec<usize>) {
        let n = a.len() - 1;
        let (sa, sb) = (Side::of(a), Side::of(b));
        (0..=n)
            .map(|m| match self.objective {
                _ if root && m < n => (INF, 0),
                Objective::MinMax => min_max_split(a, b, m),
                _ if root => least((0..=m).map(|j| (self.beside(a[m - j], b[j]), j))),
                Objective::SumTime => min_sum_split(a, b, m, sa, sb),
                Objective::MaxMin => max_min_split(a, b, m, sa, sb),
            })
            .unzip()
    }
}

/// Curve evaluations and skipped counts of one solve.
#[derive(Default)]
struct Counts {
    evaluations: usize,
    pruned: usize,
}

/// A subtree's table: `time[m]` is its best score on `m` nodes (∞ when it
/// cannot fit) and `pick[m]` the count that reaches it — a component's own
/// or an owner's. `splits[j][m]` is what a side-by-side group's child
/// `j + 1` takes of the `m` nodes its first `j + 2` children share.
#[derive(Default)]
struct Table {
    time: Vec<f64>,
    pick: Vec<usize>,
    kids: Vec<Table>,
    splits: Vec<Vec<usize>>,
}

impl Table {
    /// The root table's answer at budget `m`: the allocation that reaches
    /// `time[m]` and the objective recomputed from its counts, `None`
    /// when nothing fits or the objective is infinite.
    fn read(
        &self,
        fits: &FitSet,
        layout: Layout,
        objective: Objective,
        m: usize,
    ) -> Option<(Allocation, f64)> {
        if !self.time[m].is_finite() {
            return None;
        }
        let mut allocation = Allocation::from_table_order([0; 4]);
        self.place(layout.tree(), m, &mut allocation);
        let times = Component::OPTIMIZED.map(|c| fits.predict(c, allocation.get(c).max(1)));
        let value = match objective {
            Objective::MinMax => fits.predicted_total(layout, &allocation),
            Objective::SumTime => times.iter().sum(),
            Objective::MaxMin => times.into_iter().fold(INF, f64::min),
        };
        Some((allocation, value)).filter(|(_, v)| v.is_finite())
    }

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

/// What the nested split searches know of a table: the first count it is
/// finite at, and the first count of its largest finite score — for a
/// max-min component, where it runs fastest.
#[derive(Clone, Copy)]
struct Side {
    from: usize,
    peak: usize,
}

impl Side {
    fn of(t: &[f64]) -> Side {
        let from = t.iter().position(|v| v.is_finite()).unwrap_or(t.len());
        let peak = (from..t.len())
            .filter(|&k| t[k].is_finite())
            .fold(from, |p, k| if t[k] > t[p] { k } else { p });
        Side { from, peak }
    }
}

/// The least score and its split, the first of equals winning.
fn least(splits: impl Iterator<Item = (f64, usize)>) -> (f64, usize) {
    splits.fold((INF, 0), |best, x| if x.0 < best.0 { x } else { best })
}

/// The first `j` in `lo..hi` where `p` holds (`hi` if none), for a `p`
/// that is false and then true along the range.
fn first(mut lo: usize, mut hi: usize, p: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let j = (lo + hi) / 2;
        if p(j) {
            hi = j;
        } else {
            lo = j + 1;
        }
    }
    lo
}

/// Min–max split of `m` between two nonincreasing tables: the least
/// `max(a[m − j], b[j])` over `j ∈ [0, m]`, and the `j` giving it. Past
/// the first `j` with `b[j] ≤ a[m − j]` the first side is the slower one
/// and only grows; before it the second is and only shrinks, so the
/// optimum sits at that crossing or just before it.
fn min_max_split(a: &[f64], b: &[f64], m: usize) -> (f64, usize) {
    let lo = first(0, m + 1, |j| b[j] <= a[m - j]);
    let mut best = (INF, 0);
    if lo <= m {
        best = (a[m - lo], lo);
    }
    if lo > 0 && b[lo - 1] < best.0 {
        best = (b[lo - 1], lo - 1);
    }
    best
}

/// Min-sum split of `m` between two convex tables: `a[m − j] + b[j]` is
/// convex in `j`, so the first `j` where it stops falling is the least.
fn min_sum_split(a: &[f64], b: &[f64], m: usize, sa: Side, sb: Side) -> (f64, usize) {
    if sa.from + sb.from > m {
        return (INF, 0);
    }
    let g = |j: usize| a[m - j] + b[j];
    let j = first(sb.from, m - sa.from, |j| g(j + 1) >= g(j));
    (g(j), j)
}

/// Max-min split of `m` between two concave tables (negated convex
/// times): the least `max(a[m − j], b[j])`. Each side rises in `j` up to
/// its peak and falls after it; below both peaks the maximum rises, past
/// both it falls, and between them it is the rising side's once that
/// meets the falling one. So the best `j` is an end of the range or that
/// crossing.
fn max_min_split(a: &[f64], b: &[f64], m: usize, sa: Side, sb: Side) -> (f64, usize) {
    if sa.from + sb.from > m {
        return (INF, 0);
    }
    let (lo, hi) = (sb.from, m - sa.from);
    let (ja, jb) = (m - sa.peak.clamp(sa.from, m - lo), sb.peak.clamp(lo, hi));
    let (l, r) = (ja.min(jb), ja.max(jb));
    let cross = first(l, r + 1, |j| {
        if jb == r {
            b[j] >= a[m - j]
        } else {
            a[m - j] >= b[j]
        }
    });
    let ends = [lo, cross.saturating_sub(1).max(l), cross.min(r), hi];
    least(ends.into_iter().map(|j| (a[m - j].max(b[j]), j)))
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
        let res = opt.try_solve(Objective::MinMax).unwrap();
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
        for objective in [Objective::MinMax, Objective::SumTime, Objective::MaxMin] {
            assert!(huge.try_solve(objective).is_none(), "{objective}");
        }
    }

    #[test]
    fn allowed_sets_are_respected() {
        let fits = toy_fits();
        let mut opt = ExhaustiveOptimizer::new(&fits, Layout::Hybrid, 128);
        opt.ocean_allowed = Some(vec![8, 16, 24, 32, 64]);
        let res = opt.try_solve(Objective::MinMax).unwrap();
        assert!([8, 16, 24, 32, 64].contains(&res.allocation.ocn));
    }

    #[test]
    fn layout_ordering_matches_figure_4() {
        // Predicted: layout 1 ≈ layout 2 ≤ layout 3 (fully sequential is
        // worst).
        let fits = toy_fits();
        let t1 = ExhaustiveOptimizer::new(&fits, Layout::Hybrid, 256)
            .try_solve(Objective::MinMax)
            .unwrap()
            .objective;
        let t2 = ExhaustiveOptimizer::new(&fits, Layout::SequentialWithOcean, 256)
            .try_solve(Objective::MinMax)
            .unwrap()
            .objective;
        let t3 = ExhaustiveOptimizer::new(&fits, Layout::FullySequential, 256)
            .try_solve(Objective::MinMax)
            .unwrap()
            .objective;
        assert!(t1 <= t2 + 1e-9, "layout1 {t1} vs layout2 {t2}");
        assert!(t2 <= t3 + 1e-9, "layout2 {t2} vs layout3 {t3}");
    }

    #[test]
    fn maxmin_balances_components() {
        let fits = toy_fits();
        let opt = ExhaustiveOptimizer::new(&fits, Layout::Hybrid, 128);
        let res = opt.try_solve(Objective::MaxMin).unwrap();
        // All nodes used on the concurrent dimension, and by ice + land.
        assert_eq!(res.allocation.atm + res.allocation.ocn, 128);
        assert_eq!(res.allocation.ice + res.allocation.lnd, res.allocation.atm);
        // The objective equals the smallest component time.
        let a = res.allocation;
        let tmin = fits
            .predict(Component::Ice, a.ice)
            .min(fits.predict(Component::Lnd, a.lnd))
            .min(fits.predict(Component::Atm, a.atm))
            .min(fits.predict(Component::Ocn, a.ocn));
        assert!((tmin - res.objective).abs() < 1e-9);
        // Layouts 2 and 3 fill their groups too: a sequence's members
        // each take all of it.
        let solve = |layout| {
            ExhaustiveOptimizer::new(&fits, layout, 128)
                .try_solve(Objective::MaxMin)
                .unwrap()
                .allocation
        };
        let a = solve(Layout::SequentialWithOcean);
        let rest = 128 - a.ocn;
        assert_eq!((a.ice, a.lnd, a.atm), (rest, rest, rest), "{a}");
        let a = solve(Layout::FullySequential);
        assert_eq!(a, Allocation::from_table_order([128; 4]));
    }

    #[test]
    fn sum_objective_decouples() {
        let fits = toy_fits();
        let opt = ExhaustiveOptimizer::new(&fits, Layout::FullySequential, 128);
        let res = opt.try_solve(Objective::SumTime).unwrap();
        // With monotone curves every component takes the max it can.
        assert_eq!(res.allocation.atm, 128);
        assert_eq!(res.allocation.ocn, 128);
    }

    #[test]
    fn min_max_merge_matches_brute_force() {
        // Nonincreasing tables with unreachable (∞) prefixes and plateaus.
        let a = [f64::INFINITY, f64::INFINITY, 9.0, 7.0, 7.0, 4.0, 4.0, 1.0];
        let b = [f64::INFINITY, 8.0, 8.0, 5.0, 3.0, 3.0, 2.0, 2.0];
        for m in 0..a.len() {
            let (time, pick) = min_max_split(&a, &b, m);
            let best = (0..=m)
                .map(|j| a[m - j].max(b[j]))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(time, best, "m = {m}");
            if best.is_finite() {
                assert_eq!(a[m - pick].max(b[pick]), best, "m = {m}");
            }
        }
    }

    #[test]
    fn nested_splits_match_brute_force_on_convex_tables() {
        let n = 80;
        let curve = |a: f64, b: f64, floor: usize| -> Vec<f64> {
            (0..=n)
                .map(|k| {
                    if k < floor {
                        INF
                    } else {
                        a / k as f64 + b * k as f64
                    }
                })
                .collect()
        };
        let prefix_min = |t: &[f64]| -> Vec<f64> {
            t.iter()
                .scan(INF, |best, &v| {
                    *best = best.min(v);
                    Some(*best)
                })
                .collect()
        };
        let negated =
            |t: &[f64]| -> Vec<f64> { t.iter().map(|&v| if v < INF { -v } else { INF }).collect() };
        let shapes = [
            (400.0, 0.5, 1),
            (90.0, 2.0, 3),
            (1000.0, 0.01, 2),
            (5.0, 1.0, 7),
        ];
        for &(a1, b1, f1) in &shapes {
            for &(a2, b2, f2) in &shapes {
                let (ta, tb) = (curve(a1, b1, f1), curve(a2, b2, f2));
                let (sa, sb) = (prefix_min(&ta), prefix_min(&tb));
                let (xa, xb) = (negated(&ta), negated(&tb));
                for m in 0..=n {
                    let brute = |a: &[f64], b: &[f64], join: fn(f64, f64) -> f64| {
                        (0..=m).map(|j| join(a[m - j], b[j])).fold(INF, f64::min)
                    };
                    let (sum, j) = min_sum_split(&sa, &sb, m, Side::of(&sa), Side::of(&sb));
                    assert_eq!(sum, brute(&sa, &sb, |x, y| x + y), "min-sum, m = {m}");
                    if sum < INF {
                        assert_eq!(sa[m - j] + sb[j], sum);
                    }
                    let (max, j) = max_min_split(&xa, &xb, m, Side::of(&xa), Side::of(&xb));
                    assert_eq!(max, brute(&xa, &xb, f64::max), "max-min, m = {m}");
                    if max < INF {
                        assert_eq!(xa[m - j].max(xb[j]), max);
                    }
                }
            }
        }
    }

    #[test]
    fn nonconvex_curves_stay_feasible() {
        // A concave exponent, and a serial term that falls with n: the
        // nested split searches' premise fails, their answers must not.
        let mk = |a: f64, b: f64, c: f64| ScalingCurve { a, b, c, d: 50.0 };
        let fits = FitSet::from_curves(BTreeMap::from([
            (Component::Ice, mk(800.0, 3.0, 0.5)),
            (Component::Lnd, mk(150.0, -0.02, 1.0)),
            (Component::Atm, mk(3_000.0, 1.0, 0.3)),
            (Component::Ocn, mk(900.0, 0.5, 0.7)),
        ]))
        .unwrap();
        for layout in Layout::ALL {
            for objective in [Objective::MinMax, Objective::SumTime, Objective::MaxMin] {
                for n in [7, 40, 333] {
                    let mut opt = ExhaustiveOptimizer::new(&fits, layout, n);
                    opt.floors.ice = 2;
                    let res = opt.try_solve(objective).expect("an allocation fits");
                    let a = res.allocation;
                    assert!(layout.check(&a, n).is_none(), "{layout} {objective}: {a}");
                    assert!(a.ice >= 2, "{layout} {objective}: {a}");
                }
            }
        }
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
        let res = opt.try_solve(Objective::SumTime).unwrap();
        assert_eq!(res.allocation.ocn, 6000, "cap excluded from enumeration");
        assert!(res.evaluations > 0);
    }
}
