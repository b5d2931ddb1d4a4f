//! Root presolve: activity-based bound propagation on the linear rows.
//!
//! The layout models chain node budgets (`n_ice + n_lnd ≤ n_atm`,
//! `n_atm + n_ocn ≤ N`), so propagating row activities
//! tightens every component's box before the tree search starts — fewer
//! LP columns can move, and integer rounding sharpens the bounds further.
//! Classic MINLP presolve, same spirit as MINOTAUR's.

use crate::ir::Ir;
use hslb_model::ConstraintSense;

/// Result of presolving: tightened bounds or proof of infeasibility.
#[derive(Debug, Clone)]
pub enum PresolveResult {
    /// Tightened (or unchanged) bounds, plus how many bound changes were
    /// applied in total.
    Tightened {
        lb: Vec<f64>,
        ub: Vec<f64>,
        changes: usize,
    },
    /// A linear row can never be satisfied within the bounds.
    Infeasible { row: String },
}

/// Term `i`'s contribution to the row's (min, max) activity over the box.
fn contribution(terms: &[(usize, f64)], lb: &[f64], ub: &[f64], i: usize) -> (f64, f64) {
    let (v, a) = terms[i];
    let (l, u) = (lb[v], ub[v]);
    if a >= 0.0 {
        (a * l, a * u)
    } else {
        (a * u, a * l)
    }
}

/// Prefix/suffix activity sums for one row: after the call,
/// `pre[i] = Σ contributions 0..i` and `suf[i] = Σ contributions i..k`,
/// so the activity of every term's complement is `pre[i] + suf[i + 1]` —
/// O(1) per term instead of the O(len) rescans that make wide rows (the
/// linking rows of an expanded allowed set) quadratic to propagate.
#[allow(clippy::too_many_arguments)]
fn build_activity_sums(
    terms: &[(usize, f64)],
    lb: &[f64],
    ub: &[f64],
    pre_lo: &mut Vec<f64>,
    pre_hi: &mut Vec<f64>,
    suf_lo: &mut Vec<f64>,
    suf_hi: &mut Vec<f64>,
) {
    let k = terms.len();
    pre_lo.resize(k + 1, 0.0);
    pre_hi.resize(k + 1, 0.0);
    suf_lo.resize(k + 1, 0.0);
    suf_hi.resize(k + 1, 0.0);
    pre_lo[0] = 0.0;
    pre_hi[0] = 0.0;
    for i in 0..k {
        let (clo, chi) = contribution(terms, lb, ub, i);
        pre_lo[i + 1] = pre_lo[i] + clo;
        pre_hi[i + 1] = pre_hi[i] + chi;
    }
    suf_lo[k] = 0.0;
    suf_hi[k] = 0.0;
    for i in (0..k).rev() {
        let (clo, chi) = contribution(terms, lb, ub, i);
        suf_lo[i] = clo + suf_lo[i + 1];
        suf_hi[i] = chi + suf_hi[i + 1];
    }
}

/// Propagate bounds to a fixpoint (capped at `max_rounds`).
///
/// Re-evaluating a row is a pure function of its variables' current
/// bounds, so a row none of whose variables changed since its last
/// evaluation is skipped — it would recompute the identical activities
/// and tighten nothing. This keeps later rounds near-free while producing
/// bit-identical bounds to the exhaustive sweep.
pub fn propagate(ir: &Ir, max_rounds: usize) -> PresolveResult {
    let mut lb = ir.lb.clone();
    let mut ub = ir.ub.clone();
    let mut changes = 0usize;
    let tol = 1e-9;

    // Monotone version stamp per variable; a row is clean when no term's
    // stamp is newer than its last evaluation.
    let mut var_ver: Vec<u64> = vec![1; ir.lb.len()];
    let mut row_seen: Vec<u64> = vec![0; ir.linear.len()];
    let mut ver = 1u64;

    // Reusable prefix/suffix activity buffers (see `build_activity_sums`).
    let (mut pre_lo, mut pre_hi) = (Vec::new(), Vec::new());
    let (mut suf_lo, mut suf_hi) = (Vec::new(), Vec::new());

    for _ in 0..max_rounds {
        let mut changed_this_round = false;
        for (ri, row) in ir.linear.iter().enumerate() {
            if row.terms.iter().all(|&(v, _)| var_ver[v] <= row_seen[ri]) {
                continue;
            }
            // Stamp before evaluating: the row's own tightenings bump the
            // stamps past this mark, so a self-tightening row re-runs next
            // round exactly as in the exhaustive sweep.
            row_seen[ri] = ver;
            // Normalize to a two-sided form: lo_rhs ≤ Σ a x ≤ hi_rhs.
            let (row_lo, row_hi) = match row.sense {
                ConstraintSense::Le => (f64::NEG_INFINITY, row.rhs),
                ConstraintSense::Ge => (row.rhs, f64::INFINITY),
                ConstraintSense::Eq => (row.rhs, row.rhs),
            };
            // Row infeasibility check against total activity.
            build_activity_sums(
                &row.terms,
                &lb,
                &ub,
                &mut pre_lo,
                &mut pre_hi,
                &mut suf_lo,
                &mut suf_hi,
            );
            let k = row.terms.len();
            let (act_lo, act_hi) = (pre_lo[k], pre_hi[k]);
            if act_lo > row_hi + 1e-6 || act_hi < row_lo - 1e-6 {
                return PresolveResult::Infeasible {
                    row: row.name.clone(),
                };
            }
            for (i, &(v, a)) in row.terms.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let (others_lo, others_hi) = (pre_lo[i] + suf_lo[i + 1], pre_hi[i] + suf_hi[i + 1]);
                // a·x ≤ row_hi − others_lo  and  a·x ≥ row_lo − others_hi.
                let max_ax = row_hi - others_lo;
                let min_ax = row_lo - others_hi;
                let (mut new_lb, mut new_ub) = (lb[v], ub[v]);
                if a > 0.0 {
                    if max_ax.is_finite() {
                        new_ub = new_ub.min(max_ax / a);
                    }
                    if min_ax.is_finite() {
                        new_lb = new_lb.max(min_ax / a);
                    }
                } else {
                    if max_ax.is_finite() {
                        new_lb = new_lb.max(max_ax / a);
                    }
                    if min_ax.is_finite() {
                        new_ub = new_ub.min(min_ax / a);
                    }
                }
                if ir.is_int[v] {
                    // Tolerant integer rounding of the implied bounds.
                    new_lb = (lb[v].max(new_lb) - 1e-9).ceil();
                    new_ub = (ub[v].min(new_ub) + 1e-9).floor();
                }
                let mut tightened = false;
                if new_lb > lb[v] + tol {
                    lb[v] = new_lb;
                    changes += 1;
                    changed_this_round = true;
                    ver += 1;
                    var_ver[v] = ver;
                    tightened = true;
                }
                if new_ub < ub[v] - tol {
                    ub[v] = new_ub;
                    changes += 1;
                    changed_this_round = true;
                    ver += 1;
                    var_ver[v] = ver;
                    tightened = true;
                }
                if lb[v] > ub[v] + 1e-6 {
                    return PresolveResult::Infeasible {
                        row: row.name.clone(),
                    };
                }
                if tightened {
                    // Later terms in this row must see the new box (the
                    // sweep is Gauss–Seidel within a row, not Jacobi).
                    build_activity_sums(
                        &row.terms,
                        &lb,
                        &ub,
                        &mut pre_lo,
                        &mut pre_hi,
                        &mut suf_lo,
                        &mut suf_hi,
                    );
                }
            }
        }
        if !changed_this_round {
            break;
        }
    }
    PresolveResult::Tightened { lb, ub, changes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::compile;
    use hslb_model::{Convexity, Expr, Model, ObjectiveSense};

    fn budget_chain_model(n: f64) -> Ir {
        // n_i + n_l ≤ n_a; n_a + n_o ≤ N; n_o ≥ 24 — mimics layout 1.
        let mut m = Model::new();
        let ni = m.integer("n_i", 1.0, n).unwrap();
        let nl = m.integer("n_l", 1.0, n).unwrap();
        let na = m.integer("n_a", 1.0, n).unwrap();
        let no = m.integer("n_o", 24.0, n).unwrap();
        m.constrain(
            "inner",
            Expr::var(ni) + Expr::var(nl) - Expr::var(na),
            hslb_model::ConstraintSense::Le,
            0.0,
            Convexity::Linear,
        )
        .unwrap();
        m.constrain(
            "budget",
            Expr::var(na) + Expr::var(no),
            hslb_model::ConstraintSense::Le,
            n,
            Convexity::Linear,
        )
        .unwrap();
        m.set_objective(Expr::var(na), ObjectiveSense::Minimize)
            .unwrap();
        compile(&m).unwrap()
    }

    #[test]
    fn tightens_chained_budgets() {
        let ir = budget_chain_model(128.0);
        let PresolveResult::Tightened { lb, ub, changes } = propagate(&ir, 10) else {
            panic!("feasible model");
        };
        assert!(changes > 0);
        // n_a ≤ N − min(n_o) = 104; n_i ≤ n_a − min(n_l) = 103.
        assert_eq!(ub[2], 104.0, "n_a ub");
        assert_eq!(ub[0], 103.0, "n_i ub");
        assert_eq!(ub[1], 103.0, "n_l ub");
        // n_a ≥ n_i + n_l ≥ 2.
        assert!(lb[2] >= 2.0, "n_a lb = {}", lb[2]);
    }

    #[test]
    fn detects_infeasible_budget() {
        // min n_o = 24 twice won't fit into N = 40 with n_a ≥ 20.
        let mut m = Model::new();
        let na = m.integer("n_a", 20.0, 40.0).unwrap();
        let no = m.integer("n_o", 24.0, 40.0).unwrap();
        m.constrain(
            "budget",
            Expr::var(na) + Expr::var(no),
            hslb_model::ConstraintSense::Le,
            40.0,
            Convexity::Linear,
        )
        .unwrap();
        m.set_objective(Expr::var(na), ObjectiveSense::Minimize)
            .unwrap();
        let ir = compile(&m).unwrap();
        assert!(matches!(
            propagate(&ir, 10),
            PresolveResult::Infeasible { .. }
        ));
    }

    #[test]
    fn equality_rows_propagate_both_directions() {
        let mut m = Model::new();
        let x = m.integer("x", 0.0, 100.0).unwrap();
        let y = m.integer("y", 0.0, 3.0).unwrap();
        m.constrain(
            "eq",
            Expr::var(x) + Expr::var(y),
            hslb_model::ConstraintSense::Eq,
            10.0,
            Convexity::Linear,
        )
        .unwrap();
        m.set_objective(Expr::var(x), ObjectiveSense::Minimize)
            .unwrap();
        let ir = compile(&m).unwrap();
        let PresolveResult::Tightened { lb, ub, .. } = propagate(&ir, 10) else {
            panic!("feasible");
        };
        // x = 10 − y ∈ [7, 10].
        assert_eq!(lb[0], 7.0);
        assert_eq!(ub[0], 10.0);
    }

    #[test]
    fn fixpoint_terminates_without_changes() {
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 1.0).unwrap();
        m.set_objective(Expr::var(x), ObjectiveSense::Minimize)
            .unwrap();
        let ir = compile(&m).unwrap();
        let PresolveResult::Tightened { changes, .. } = propagate(&ir, 10) else {
            panic!("feasible");
        };
        assert_eq!(changes, 0);
    }
}
