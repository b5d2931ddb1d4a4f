//! Warm-started re-solves: a live tableau plus a bounded-variable **dual
//! simplex** loop.
//!
//! The MINLP driver's LPs change in exactly two ways between solves:
//!
//! * a cut round appends one `≤` row (an outer-approximation cut), and
//! * a branch-and-bound descent tightens a variable's bounds.
//!
//! Both edits preserve dual feasibility of the optimal basis (an appended
//! slack has zero cost, so its reduced cost starts at the sign-feasible
//! value 0; a bound change never touches the reduced-cost row) while
//! possibly breaking primal feasibility. That is the textbook entry point
//! for the dual simplex: pick the most-violated basic variable as the
//! leaving row, restore its bound, and let the dual ratio test keep the
//! reduced costs sign-feasible. A handful of pivots replaces a full
//! two-phase cold solve.
//!
//! [`WarmLp`] wraps the final tableau of an optimal solve (artificials
//! stripped) and supports `append_le_row` / `set_var_bounds` / `resolve`.
//!
//! **A re-solve checks its own answer.** The dense tableau accumulates
//! pivot error over a chain of edits (the layout LPs mix coefficients from
//! 1e-5 to 1e4 and carry a ~1,600-term convexity row), and a drifted
//! tableau can be primal- and dual-feasible at a point that has left the
//! rows it stands for. So the handle keeps those rows — the cold problem's
//! behind the `Arc` the problem itself holds them in, shared by every
//! clone; the appended cuts per handle —
//! and `resolve` answers
//!
//! * `Optimal` only when the extracted point satisfies every kept row and
//!   column bound within [`VERIFY_TOL`] relative to the row's scale,
//! * `Infeasible` only when the stuck tableau row is a Farkas certificate
//!   *against the kept rows*: its slack-column entries are multipliers
//!   `y`, and the aggregate `Σ yᵢ·rowᵢ` cannot hold anywhere in the column
//!   boxes. That holds or fails for any `y` whatever, so drift cannot
//!   forge the verdict,
//! * `Err(LpError::Numerical)` otherwise.
//!
//! The consumer (one ladder function in `hslb-minlp`) answers every error
//! — iteration limit, numerical breakdown, failed check — with a cold
//! two-phase solve of the freshly rebuilt problem.

use crate::problem::{ConstraintSense, LpProblem, Row};
use crate::simplex::{extract, iterate, solve_impl, Tableau, VarState};
use crate::{LpError, LpSolution, LpStatus, SimplexOptions};
use std::sync::Arc;

/// Tolerance of the row and certificate checks, relative to the largest
/// magnitude entering the comparison (floor 1).
const VERIFY_TOL: f64 = 1e-7;

/// Cold two-phase solve that also hands back the live tableau for warm
/// re-solves. The second element is `None` when the solve did not end
/// `Optimal`, or when a redundant row left an artificial basic (the
/// stripped tableau would be rank-deficient); callers treat `None` as
/// "cold-only from here".
pub fn solve_keep(
    p: &LpProblem,
    opts: &SimplexOptions,
) -> Result<(LpSolution, Option<WarmLp>), LpError> {
    solve_impl(p, opts, true)
}

/// A solved LP kept live for incremental edits and dual-simplex repair.
///
/// Columns are `[structurals | slacks]` with one slack per row, in row
/// order; appended rows append their slack column on the right, so the
/// slack of row `i` is always column `n + i`. Artificials from the cold
/// solve are stripped at construction. The phase-2 cost row is retained,
/// so `resolve` reports objectives consistent with [`crate::solve`].
#[derive(Debug, Clone)]
pub struct WarmLp {
    tab: Tableau,
    /// Structural variable count.
    n: usize,
    /// The rows the tableau stands for, in tableau row order: the cold
    /// problem's (shared with it and with every clone of the handle) …
    base: Arc<Vec<Row>>,
    /// … then the `≤` rows appended since, flattened — every row's terms
    /// back to back, and per row where its terms end and its rhs — so a
    /// handle carries two allocations for them, not one per cut.
    cut_terms: Vec<(usize, f64)>,
    cut_rows: Vec<(usize, f64)>,
}

impl WarmLp {
    /// Wrap the final tableau of an optimal phase-2 solve. Returns `None`
    /// when an artificial column is still basic (redundant row): stripping
    /// it would leave a row without a basic column.
    pub(crate) fn from_tableau(tab: Tableau, p: &LpProblem) -> Option<WarmLp> {
        let n = p.num_vars();
        let m = tab.basis.len();
        let keep_cols = n + m;
        if tab.basis.iter().any(|&b| b >= keep_cols) {
            return None;
        }
        let mut t = hslb_numerics::Matrix::zeros(m, keep_cols);
        for i in 0..m {
            t.row_mut(i).copy_from_slice(&tab.t.row(i)[..keep_cols]);
        }
        let tab = Tableau {
            t,
            xb: tab.xb,
            basis: tab.basis,
            state: tab.state[..keep_cols].to_vec(),
            lb: tab.lb[..keep_cols].to_vec(),
            ub: tab.ub[..keep_cols].to_vec(),
            d: tab.d[..keep_cols].to_vec(),
            cost: tab.cost[..keep_cols].to_vec(),
            first_artificial: keep_cols,
        };
        Some(WarmLp {
            tab,
            n,
            base: Arc::clone(&p.rows),
            cut_terms: Vec::new(),
            cut_rows: Vec::new(),
        })
    }

    /// Number of constraint rows currently in the tableau.
    pub fn num_rows(&self) -> usize {
        self.tab.basis.len()
    }

    /// Current bounds of structural variable `j`.
    pub fn var_bounds(&self, j: usize) -> (f64, f64) {
        (self.tab.lb[j], self.tab.ub[j])
    }

    /// Replace the bounds of structural variable `j`, re-parking a
    /// nonbasic variable on the matching new bound and updating the basic
    /// values for the displacement. A basic variable pushed out of its new
    /// bounds is left for the next `resolve` (dual simplex) to repair.
    pub fn set_var_bounds(&mut self, j: usize, lb: f64, ub: f64) {
        debug_assert!(j < self.n, "only structural bounds change under B&B");
        let tab = &mut self.tab;
        let old_state = tab.state[j];
        if old_state == VarState::Basic {
            tab.lb[j] = lb;
            tab.ub[j] = ub;
            return;
        }
        let v0 = match old_state {
            VarState::AtLower => tab.lb[j],
            VarState::AtUpper => tab.ub[j],
            _ => 0.0,
        };
        tab.lb[j] = lb;
        tab.ub[j] = ub;
        let (v1, st) = match old_state {
            VarState::AtLower if lb.is_finite() => (lb, VarState::AtLower),
            VarState::AtUpper if ub.is_finite() => (ub, VarState::AtUpper),
            VarState::AtLower if ub.is_finite() => (ub, VarState::AtUpper),
            VarState::AtUpper if lb.is_finite() => (lb, VarState::AtLower),
            _ => (0.0, VarState::FreeZero),
        };
        tab.state[j] = st;
        let delta = v1 - v0;
        if delta.abs() > 0.0 {
            for r in 0..tab.basis.len() {
                let w = tab.t[(r, j)];
                if w.abs() > 0.0 {
                    tab.xb[r] -= delta * w;
                }
            }
        }
    }

    /// Append a `≤` constraint row over structural variables. The new
    /// slack enters the basis for the new row; its value is the row's
    /// residual at the current point and may be negative — the next
    /// `resolve` restores feasibility with dual pivots.
    pub fn append_le_row(&mut self, terms: &[(usize, f64)], rhs: f64) -> Result<(), LpError> {
        self.append_le_rows(&[(terms, rhs)])
    }

    /// [`Self::append_le_row`] for a batch: the tableau is widened once
    /// for all the new slack columns (one `memmove` instead of one per
    /// cut), then each row is expressed in the current basis and appended
    /// in order — arithmetic identical to appending the rows one by one.
    pub fn append_le_rows(&mut self, rows: &[(&[(usize, f64)], f64)]) -> Result<(), LpError> {
        if rows.is_empty() {
            return Ok(());
        }
        self.tab.t.grow_cols(rows.len());
        for &(terms, rhs) in rows {
            let m = self.tab.basis.len();
            // The final width; columns of slacks from later batch entries
            // are zero in every row, so they never perturb the arithmetic.
            let ncols = self.tab.t.cols();
            let slack_col = self.tab.lb.len();

            // Raw coefficients over existing columns, then express the row
            // in the current basis: subtract a[basic_r] × (tableau row r).
            // Basic columns are unit vectors across all rows, so one pass
            // in any row order lands on exact zeros at every basic column.
            let mut raw = vec![0.0; ncols];
            let mut activity = 0.0;
            for &(v, c) in terms {
                debug_assert!(v < self.n, "cut rows are over structurals");
                raw[v] += c;
                activity += c * self.tab.value(v);
            }
            for r in 0..m {
                let bcol = self.tab.basis[r];
                let f = raw[bcol];
                if f.abs() > 0.0 {
                    let row = self.tab.t.row(r);
                    for (rv, tv) in raw.iter_mut().zip(row) {
                        *rv -= f * tv;
                    }
                    raw[bcol] = 0.0;
                }
            }

            let tab = &mut self.tab;
            raw[slack_col] = 1.0;
            tab.t
                .push_row(&raw)
                .map_err(|_| LpError::Numerical("cut row append"))?;
            tab.lb.push(0.0);
            tab.ub.push(f64::INFINITY);
            tab.state.push(VarState::Basic);
            tab.basis.push(slack_col);
            tab.xb.push(rhs - activity);
            tab.d.push(0.0);
            tab.cost.push(0.0);
            tab.first_artificial = tab.lb.len();
            self.cut_terms.extend_from_slice(terms);
            self.cut_rows.push((self.cut_terms.len(), rhs));
        }
        Ok(())
    }

    /// Re-solve after edits: dual simplex back to primal feasibility, then
    /// a primal pass that certifies optimality (and mops up any reduced-
    /// cost drift from the pivot arithmetic). Both verdicts are checked
    /// against the kept rows (module docs); errors mean the caller should
    /// fall back to a cold rebuild.
    pub fn resolve(&mut self, opts: &SimplexOptions) -> Result<LpSolution, LpError> {
        let m = self.tab.basis.len();
        let mut iters = 0usize;
        if let Some(r) = dual_iterate(&mut self.tab, opts, &mut iters)? {
            if !self.certifies_infeasible(r, opts.tol) {
                return Err(LpError::Numerical("warm infeasibility not certified"));
            }
            return Ok(LpSolution {
                status: LpStatus::Infeasible,
                x: extract(&self.tab, self.n),
                objective: f64::INFINITY,
                iterations: iters,
                row_duals: vec![0.0; m],
            });
        }
        // Appending rows and tightening bounds cannot unbound a bounded
        // LP, so anything but `Optimal` here is drift.
        if iterate(&mut self.tab, opts, &mut iters)? != LpStatus::Optimal {
            return Err(LpError::Numerical("warm resolve reported unbounded"));
        }
        let sol = self.solution(LpStatus::Optimal, iters);
        if !self.satisfies_rows(&sol.x) {
            return Err(LpError::Numerical("warm point left its rows"));
        }
        Ok(sol)
    }

    /// The kept rows as `(terms, sense, rhs)`, in tableau row order.
    fn rows(&self) -> impl Iterator<Item = (&[(usize, f64)], ConstraintSense, f64)> {
        let base = self
            .base
            .iter()
            .map(|row| (row.terms.as_slice(), row.sense, row.rhs));
        let mut start = 0;
        let cuts = self.cut_rows.iter().map(move |&(end, rhs)| {
            let terms = &self.cut_terms[start..end];
            start = end;
            (terms, ConstraintSense::Le, rhs)
        });
        base.chain(cuts)
    }

    /// Does `x` satisfy every kept row and structural bound?
    fn satisfies_rows(&self, x: &[f64]) -> bool {
        let rows_ok = self.rows().all(|(terms, sense, rhs)| {
            let mut act = 0.0;
            let mut scale = rhs.abs().max(1.0);
            for &(v, c) in terms {
                let term = c * x[v];
                act += term;
                scale = scale.max(term.abs());
            }
            let tol = VERIFY_TOL * scale;
            match sense {
                ConstraintSense::Le => act <= rhs + tol,
                ConstraintSense::Ge => act >= rhs - tol,
                ConstraintSense::Eq => (act - rhs).abs() <= tol,
            }
        });
        rows_ok
            && x.iter().enumerate().all(|(j, &xj)| {
                let tol = VERIFY_TOL * xj.abs().max(1.0);
                xj >= self.tab.lb[j] - tol && xj <= self.tab.ub[j] + tol
            })
    }

    /// Is tableau row `r` a Farkas certificate against the kept rows? Its
    /// slack-column entries are row `r` of `B⁻¹`, i.e. multipliers `y`
    /// with `Σ yᵢ·(aᵢ·x + sᵢ) = Σ yᵢ·bᵢ` for every feasible point. The
    /// aggregate is rebuilt from the kept rows — nothing else is read off
    /// the tableau — and the verdict stands only when its right-hand side
    /// lies outside the range the left-hand side can take over the boxes
    /// of the structurals and the slacks. Multipliers within the pivot
    /// tolerance of zero are dropped, as the ratio test that declared the
    /// row stuck dropped them: any `y` gives a valid aggregate, and a
    /// wrong-signed 1e-13 on a slack would make its range unbounded.
    fn certifies_infeasible(&self, r: usize, pivot_tol: f64) -> bool {
        let n = self.n;
        let y = &self.tab.t.row(r)[n..];
        let mut alpha = vec![0.0; n];
        let mut beta = 0.0;
        let (mut lo, mut hi) = (0.0_f64, 0.0_f64);
        for ((terms, sense, rhs), &yi) in self.rows().zip(y) {
            if yi.abs() <= pivot_tol {
                continue;
            }
            for &(v, c) in terms {
                alpha[v] += yi * c;
            }
            beta += yi * rhs;
            // The slack's own box: `≤` rows have s ≥ 0, `≥` rows s ≤ 0,
            // equalities s = 0.
            match (sense, yi > 0.0) {
                (ConstraintSense::Eq, _) => {}
                (ConstraintSense::Le, true) | (ConstraintSense::Ge, false) => hi = f64::INFINITY,
                (ConstraintSense::Le, false) | (ConstraintSense::Ge, true) => {
                    lo = f64::NEG_INFINITY
                }
            }
        }
        let mut scale = beta.abs().max(1.0);
        for (j, &a) in alpha.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let (p, q) = (a * self.tab.lb[j], a * self.tab.ub[j]);
            lo += p.min(q);
            hi += p.max(q);
            for e in [p, q] {
                if e.is_finite() {
                    scale = scale.max(e.abs());
                }
            }
        }
        let tol = VERIFY_TOL * scale;
        beta < lo - tol || beta > hi + tol
    }

    /// Assemble an [`LpSolution`] from the current tableau.
    fn solution(&self, status: LpStatus, iterations: usize) -> LpSolution {
        let m = self.tab.basis.len();
        let x = extract(&self.tab, self.n);
        let mut objective = 0.0;
        for (xj, c) in x.iter().zip(&self.tab.cost) {
            objective += c * xj;
        }
        let row_duals: Vec<f64> = (0..m).map(|i| -self.tab.d[self.n + i]).collect();
        LpSolution {
            status,
            x,
            objective,
            iterations,
            row_duals,
        }
    }
}

/// Bounded-variable dual simplex. Requires a dual-feasible reduced-cost
/// row; returns `None` once every basic value is within its bounds and
/// `Some(row)` when that violated row admits no entering column (in exact
/// arithmetic the row is a certificate of primal infeasibility; the caller
/// checks it).
fn dual_iterate(
    tab: &mut Tableau,
    opts: &SimplexOptions,
    total_iters: &mut usize,
) -> Result<Option<usize>, LpError> {
    let tol = opts.tol;
    let mut degenerate = 0usize;
    let mut bland = false;

    loop {
        if *total_iters >= opts.max_iters {
            return Err(LpError::IterationLimit {
                iterations: *total_iters,
            });
        }

        // ---- leaving row: largest bound violation among basics ----
        let m = tab.basis.len();
        let mut leave: Option<(usize, f64, bool)> = None; // (row, violation, below)
        for r in 0..m {
            let bcol = tab.basis[r];
            let v = tab.xb[r];
            let cand = if v < tab.lb[bcol] - tol {
                Some((tab.lb[bcol] - v, true))
            } else if v > tab.ub[bcol] + tol {
                Some((v - tab.ub[bcol], false))
            } else {
                None
            };
            let Some((viol, below)) = cand else { continue };
            if bland {
                // Anti-cycling: smallest row index.
                leave = Some((r, viol, below));
                break;
            }
            if leave.is_none_or(|(_, best, _)| viol > best) {
                leave = Some((r, viol, below));
            }
        }
        let Some((r, _, below)) = leave else {
            return Ok(None);
        };
        *total_iters += 1;

        // ---- dual ratio test ----
        // The leaving basic exits at its violated bound. Moving xb[r]
        // toward that bound needs an entering column whose direction of
        // motion is admissible for its own state; among those, the
        // smallest |d|/|α| keeps every reduced cost sign-feasible.
        let mut enter: Option<(usize, f64)> = None; // (col, ratio)
        for j in 0..tab.ncols() {
            let st = tab.state[j];
            if st == VarState::Basic || tab.lb[j] == tab.ub[j] {
                continue;
            }
            let alpha = tab.t[(r, j)];
            if alpha.abs() <= tol {
                continue;
            }
            let ok = match st {
                // below: xb[r] must increase, so an at-lower variable
                // (which can only increase) needs α < 0, and an at-upper
                // variable (which can only decrease) needs α > 0.
                VarState::AtLower => (alpha < 0.0) == below,
                VarState::AtUpper => (alpha > 0.0) == below,
                VarState::FreeZero => true,
                VarState::Basic => continue,
            };
            if !ok {
                continue;
            }
            let ratio = tab.d[j].abs() / alpha.abs();
            // Ties resolve to the smallest column index via scan order.
            if enter.is_none_or(|(_, best)| ratio < best - 1e-12) {
                enter = Some((j, ratio));
            }
        }
        let Some((q, _)) = enter else {
            return Ok(Some(r));
        };

        // ---- pivot ----
        let bcol = tab.basis[r];
        let target = if below { tab.lb[bcol] } else { tab.ub[bcol] };
        let alpha = tab.t[(r, q)];
        let delta = (tab.xb[r] - target) / alpha;
        if !delta.is_finite() {
            return Err(LpError::Numerical("dual step non-finite"));
        }
        if delta.abs() <= 1e-12 {
            degenerate += 1;
            if degenerate > opts.stall_iters {
                bland = true;
            }
        } else {
            degenerate = 0;
            bland = false;
        }
        for i in 0..m {
            if i == r {
                continue;
            }
            let w = tab.t[(i, q)];
            if w.abs() > 0.0 {
                tab.xb[i] -= delta * w;
            }
        }
        let v_enter = tab.value(q) + delta;
        tab.state[bcol] = if below {
            VarState::AtLower
        } else {
            VarState::AtUpper
        };
        tab.pivot(r, q, v_enter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve;

    fn sample() -> LpProblem {
        // minimize −x − 2y  s.t.  x + y ≤ 10, 0 ≤ x,y ≤ 8
        let mut p = LpProblem::new();
        let x = p.add_var("x", 0.0, 8.0);
        let y = p.add_var("y", 0.0, 8.0);
        p.add_row(&[(x, 1.0), (y, 1.0)], ConstraintSense::Le, 10.0);
        p.set_objective(&[(x, -1.0), (y, -2.0)]);
        p
    }

    #[test]
    fn solve_keep_matches_solve() {
        let p = sample();
        let opts = SimplexOptions::default();
        let cold = solve(&p, &opts).unwrap();
        let (kept, warm) = solve_keep(&p, &opts).unwrap();
        assert_eq!(kept.status, LpStatus::Optimal);
        assert_eq!(kept.x, cold.x);
        assert_eq!(kept.objective, cold.objective);
        assert!(warm.is_some(), "feasible LP should yield a warm handle");
    }

    #[test]
    fn appended_cut_matches_cold_rebuild() {
        let mut p = sample();
        let opts = SimplexOptions::default();
        let (_, warm) = solve_keep(&p, &opts).unwrap();
        let mut warm = warm.unwrap();

        // Cut off the old optimum (2, 8): x + 3y ≤ 20 (new unique optimum
        // at (5, 5) — deliberately not parallel to the objective).
        warm.append_le_row(&[(0, 1.0), (1, 3.0)], 20.0).unwrap();
        let warm_sol = warm.resolve(&opts).unwrap();

        p.add_row(&[(0, 1.0), (1, 3.0)], ConstraintSense::Le, 20.0);
        let cold_sol = solve(&p, &opts).unwrap();

        assert_eq!(warm_sol.status, LpStatus::Optimal);
        assert!((warm_sol.objective - cold_sol.objective).abs() < 1e-9);
        for (a, b) in warm_sol.x.iter().zip(&cold_sol.x) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(warm_sol.row_duals.len(), 2);
    }

    #[test]
    fn tightened_bound_matches_cold_rebuild() {
        let p = sample();
        let opts = SimplexOptions::default();
        let (_, warm) = solve_keep(&p, &opts).unwrap();
        let mut warm = warm.unwrap();

        // Optimum sits at y = 8; force y ≤ 5.
        warm.set_var_bounds(1, 0.0, 5.0);
        let warm_sol = warm.resolve(&opts).unwrap();

        let mut p2 = sample();
        p2.set_bounds(1, 0.0, 5.0);
        let cold_sol = solve(&p2, &opts).unwrap();

        assert_eq!(warm_sol.status, LpStatus::Optimal);
        assert!((warm_sol.objective - cold_sol.objective).abs() < 1e-9);
        for (a, b) in warm_sol.x.iter().zip(&cold_sol.x) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn infeasible_tightening_is_detected() {
        // x + y ≥ 12 with both ≤ 8 is feasible; then cap both at 5.
        let mut p = LpProblem::new();
        let x = p.add_var("x", 0.0, 8.0);
        let y = p.add_var("y", 0.0, 8.0);
        p.add_row(&[(x, 1.0), (y, 1.0)], ConstraintSense::Ge, 12.0);
        p.set_objective(&[(x, 1.0), (y, 1.0)]);
        let opts = SimplexOptions::default();
        let (sol, warm) = solve_keep(&p, &opts).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        let mut warm = warm.unwrap();
        warm.set_var_bounds(0, 0.0, 5.0);
        warm.set_var_bounds(1, 0.0, 5.0);
        let re = warm.resolve(&opts).unwrap();
        assert_eq!(re.status, LpStatus::Infeasible);
    }

    #[test]
    fn repeated_cut_appends_stay_consistent() {
        // Kelley-style: cut the optimum repeatedly; each warm resolve must
        // track the cold rebuild of the same row set.
        let mut p = sample();
        let opts = SimplexOptions::default();
        let (_, warm) = solve_keep(&p, &opts).unwrap();
        let mut warm = warm.unwrap();
        let cuts = [
            (vec![(0usize, 1.0), (1usize, 2.0)], 14.0),
            (vec![(0, 2.0), (1, 1.0)], 13.0),
            (vec![(0, 1.0), (1, 1.0)], 8.5),
        ];
        for (terms, rhs) in &cuts {
            warm.append_le_row(terms, *rhs).unwrap();
            let ws = warm.resolve(&opts).unwrap();
            p.add_row(terms, ConstraintSense::Le, *rhs);
            let cs = solve(&p, &opts).unwrap();
            assert_eq!(ws.status, cs.status);
            assert!((ws.objective - cs.objective).abs() < 1e-9);
        }
        assert_eq!(warm.num_rows(), 4);
    }
}
