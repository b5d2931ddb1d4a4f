//! LP problem container: variables with bounds, sparse rows, objective.

use std::sync::Arc;

/// Index of a variable in an [`LpProblem`].
pub type VarId = usize;
/// Index of a constraint row in an [`LpProblem`].
pub type RowId = usize;

/// Sense of a linear constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintSense {
    /// `Σ aᵢxᵢ ≤ rhs`
    Le,
    /// `Σ aᵢxᵢ ≥ rhs`
    Ge,
    /// `Σ aᵢxᵢ = rhs`
    Eq,
}

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub name: String,
    pub lb: f64,
    pub ub: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Row {
    /// Sparse coefficients `(variable, coefficient)`; variables may repeat,
    /// in which case coefficients add.
    pub terms: Vec<(VarId, f64)>,
    pub sense: ConstraintSense,
    pub rhs: f64,
}

/// A linear program `minimize cᵀx subject to rows, l ≤ x ≤ u`.
///
/// Maximization is expressed by negating the objective at the call site.
/// Bounds may be infinite (`f64::NEG_INFINITY` / `f64::INFINITY`).
#[derive(Debug, Clone, Default)]
pub struct LpProblem {
    pub(crate) vars: Vec<VarDef>,
    /// Behind an `Arc` so a kept tableau ([`crate::WarmLp`]) can hold the
    /// rows it stands for without copying them; edits copy on write.
    pub(crate) rows: Arc<Vec<Row>>,
    /// Dense objective, indexed by variable; grows with the variables.
    pub(crate) objective: Vec<f64>,
}

impl LpProblem {
    /// Create an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a variable with bounds `[lb, ub]`, returning its id.
    ///
    /// Panics if `lb > ub` or either bound is NaN.
    pub fn add_var(&mut self, name: &str, lb: f64, ub: f64) -> VarId {
        assert!(
            !lb.is_nan() && !ub.is_nan(),
            "NaN bound for variable {name}"
        );
        assert!(lb <= ub, "inverted bounds [{lb}, {ub}] for variable {name}");
        self.vars.push(VarDef {
            name: name.to_string(),
            lb,
            ub,
        });
        self.objective.push(0.0);
        self.vars.len() - 1
    }

    /// Add a constraint row; returns its id. Coefficients for repeated
    /// variables are summed. Panics on out-of-range variable ids or a NaN
    /// coefficient / rhs.
    pub fn add_row(&mut self, terms: &[(VarId, f64)], sense: ConstraintSense, rhs: f64) -> RowId {
        assert!(!rhs.is_nan(), "NaN rhs");
        for &(v, c) in terms {
            assert!(v < self.vars.len(), "row references unknown variable {v}");
            assert!(!c.is_nan(), "NaN coefficient on variable {v}");
        }
        Arc::make_mut(&mut self.rows).push(Row {
            terms: terms.to_vec(),
            sense,
            rhs,
        });
        self.rows.len() - 1
    }

    /// Set the (minimization) objective from sparse terms; unmentioned
    /// variables get coefficient zero. Repeated variables accumulate.
    pub fn set_objective(&mut self, terms: &[(VarId, f64)]) {
        self.objective.iter_mut().for_each(|c| *c = 0.0);
        for &(v, c) in terms {
            assert!(
                v < self.vars.len(),
                "objective references unknown variable {v}"
            );
            self.objective[v] += c;
        }
    }

    /// Set a single objective coefficient.
    pub fn set_objective_coeff(&mut self, var: VarId, coeff: f64) {
        self.objective[var] = coeff;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Variable bounds `[lb, ub]`.
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        (self.vars[var].lb, self.vars[var].ub)
    }

    /// Tighten (replace) the bounds of a variable.
    ///
    /// Panics if the new bounds are inverted. Used heavily by
    /// branch-and-bound, which clones the problem and narrows bounds.
    pub fn set_bounds(&mut self, var: VarId, lb: f64, ub: f64) {
        assert!(lb <= ub, "inverted bounds [{lb}, {ub}]");
        self.vars[var].lb = lb;
        self.vars[var].ub = ub;
    }

    /// Name of a variable.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.vars[var].name
    }

    /// Right-hand side of a row.
    pub fn rhs(&self, row: RowId) -> f64 {
        self.rows[row].rhs
    }

    /// Sense of a row.
    pub fn row_sense(&self, row: RowId) -> ConstraintSense {
        self.rows[row].sense
    }

    /// Objective coefficient of a variable.
    pub fn objective_coeff(&self, var: VarId) -> f64 {
        self.objective[var]
    }

    /// The column of a variable: `(row, summed coefficient)` pairs over
    /// rows where it appears, in row order. O(rows·terms); meant for
    /// exporters, not the solve path.
    pub fn column(&self, var: VarId) -> Vec<(RowId, f64)> {
        let mut out = Vec::new();
        for (r, row) in self.rows.iter().enumerate() {
            let coeff: f64 = row
                .terms
                .iter()
                .filter(|&&(v, _)| v == var)
                .map(|&(_, c)| c)
                .sum();
            if coeff != 0.0 {
                out.push((r, coeff));
            }
        }
        out
    }

    /// Replace a row's right-hand side (sensitivity analysis / cut
    /// tightening).
    pub fn set_rhs(&mut self, row: RowId, rhs: f64) {
        assert!(!rhs.is_nan(), "NaN rhs");
        Arc::make_mut(&mut self.rows)[row].rhs = rhs;
    }

    /// Evaluate the objective at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Activity (left-hand-side value) of row `r` at a point.
    pub fn row_activity(&self, r: RowId, x: &[f64]) -> f64 {
        self.rows[r].terms.iter().map(|&(v, c)| c * x[v]).sum()
    }

    /// Maximum constraint violation of `x` over all rows and bounds.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst = 0.0_f64;
        for (i, row) in self.rows.iter().enumerate() {
            let act = self.row_activity(i, x);
            let viol = match row.sense {
                ConstraintSense::Le => act - row.rhs,
                ConstraintSense::Ge => row.rhs - act,
                ConstraintSense::Eq => (act - row.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        for (v, def) in self.vars.iter().enumerate() {
            worst = worst.max(def.lb - x[v]).max(x[v] - def.ub);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let mut p = LpProblem::new();
        let x = p.add_var("x", 0.0, 10.0);
        let y = p.add_var("y", -1.0, f64::INFINITY);
        let r = p.add_row(&[(x, 1.0), (y, 2.0)], ConstraintSense::Le, 4.0);
        p.set_objective(&[(x, 3.0), (y, -1.0)]);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_rows(), 1);
        assert_eq!(p.bounds(y), (-1.0, f64::INFINITY));
        assert_eq!(p.row_activity(r, &[2.0, 1.0]), 4.0);
        assert_eq!(p.objective_value(&[2.0, 1.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "inverted bounds")]
    fn rejects_inverted_bounds() {
        let mut p = LpProblem::new();
        p.add_var("x", 1.0, 0.0);
    }

    #[test]
    fn max_violation_measures_rows_and_bounds() {
        let mut p = LpProblem::new();
        let x = p.add_var("x", 0.0, 1.0);
        p.add_row(&[(x, 1.0)], ConstraintSense::Ge, 2.0);
        // x = 3 violates its upper bound by 2 and satisfies the row.
        assert!((p.max_violation(&[3.0]) - 2.0).abs() < 1e-12);
        // x = 0.5 violates the row by 1.5.
        assert!((p.max_violation(&[0.5]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn objective_repeated_terms_accumulate() {
        let mut p = LpProblem::new();
        let x = p.add_var("x", 0.0, 1.0);
        p.set_objective(&[(x, 1.0), (x, 2.0)]);
        assert_eq!(p.objective_value(&[1.0]), 3.0);
    }
}
