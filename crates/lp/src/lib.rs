//! A dense bounded-variable primal simplex LP solver.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//!
//! This crate stands in for CLP, the LP engine the paper's MINLP solver
//! (MINOTAUR) uses for its LP/NLP-based branch-and-bound. The LPs that
//! arise there are
//!
//! * small in the row dimension (a handful of layout constraints plus a
//!   growing pool of outer-approximation cuts), and
//! * wide in the column dimension (one binary per allowed ocean/atmosphere
//!   node count — a couple of thousand columns),
//!
//! so the implementation keeps **variable bounds implicit** (a
//! bounded-variable simplex in the style of Chvátal ch. 8) instead of
//! expanding `0 ≤ z ≤ 1` into rows: the working tableau stays `m × n` with
//! `m` in the tens, and each pivot is a single cache-friendly row sweep.
//!
//! Features:
//!
//! * two-phase method with artificial variables (phase 1 minimizes the
//!   total infeasibility; artificials are fixed to zero afterwards),
//! * bound flips (a nonbasic variable may move bound-to-bound without a
//!   basis change),
//! * Dantzig pricing with an automatic switch to Bland's rule after a
//!   stall (and back to Dantzig on the next strict improvement),
//!   guaranteeing termination on degenerate problems,
//! * infeasibility and unboundedness detection via status codes,
//! * warm re-solves: [`solve_keep`] hands back the live tableau as a
//!   [`WarmLp`] that accepts appended `≤` cut rows and bound tightenings
//!   and re-attains feasibility with a bounded-variable **dual simplex**
//!   (DESIGN.md §14). The handle keeps the rows it stands for and checks
//!   every re-solve against them — `Optimal` only at a point that
//!   satisfies them, `Infeasible` only with a Farkas certificate against
//!   them — and errors otherwise, which the caller answers with the cold
//!   two-phase solve.

mod dual;
mod mps;
mod problem;
mod simplex;

pub use dual::{solve_keep, WarmLp};
pub use mps::to_mps;
pub use problem::{ConstraintSense, LpProblem, RowId, VarId};
pub use simplex::{solve, LpError, LpSolution, LpStatus, SimplexOptions};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_smoke() {
        // max x + y s.t. x + y ≤ 1, 0 ≤ x,y ≤ 1  (minimize the negation)
        let mut p = LpProblem::new();
        let x = p.add_var("x", 0.0, 1.0);
        let y = p.add_var("y", 0.0, 1.0);
        p.add_row(&[(x, 1.0), (y, 1.0)], ConstraintSense::Le, 1.0);
        p.set_objective(&[(x, -1.0), (y, -1.0)]);
        let s = solve(&p, &SimplexOptions::default()).unwrap();
        assert_eq!(s.status, LpStatus::Optimal);
        assert!((s.objective + 1.0).abs() < 1e-9);
    }
}
