//! Compilation of a declarative [`hslb_model::Model`] into solver IR.

use hslb_model::{ConstraintSense, Convexity, Domain, Expr, Model, ObjectiveSense, VarType};

/// A linear row in `terms ⟨sense⟩ rhs` form.
#[derive(Debug, Clone)]
pub struct LinRow {
    pub terms: Vec<(usize, f64)>,
    pub sense: ConstraintSense,
    pub rhs: f64,
    pub name: String,
}

/// A nonlinear constraint normalized to `g(x) ≤ 0`.
#[derive(Debug, Clone)]
pub struct NlCon {
    /// The function `g`; the constraint is `g(x) ≤ 0`.
    pub g: Expr,
    /// When true, `g` is convex and tangent-plane cuts are globally valid.
    pub convex: bool,
    /// Variables appearing in `g` (sorted).
    pub vars: Vec<usize>,
    /// True when every variable in `vars` is integer-typed — the condition
    /// under which a nonconvex constraint can be enforced exactly by
    /// branching (it becomes constant once the integers are fixed).
    pub all_int: bool,
    pub name: String,
}

/// Solver intermediate representation: bounds, integrality, linear rows,
/// normalized nonlinear constraints, discrete domains and a linear
/// objective.
#[derive(Debug, Clone)]
pub struct Ir {
    pub lb: Vec<f64>,
    pub ub: Vec<f64>,
    pub is_int: Vec<bool>,
    pub linear: Vec<LinRow>,
    pub nonlinear: Vec<NlCon>,
    /// Discrete domains (values strictly increasing, variable integer);
    /// the tree search branches on these as sets.
    pub domains: Vec<Domain>,
    /// Minimization objective `Σ terms + constant` (already negated for
    /// maximize models; see `negated`).
    pub obj_terms: Vec<(usize, f64)>,
    pub obj_constant: f64,
    /// True when the model asked to maximize: reported objectives must be
    /// negated back.
    pub negated: bool,
    pub var_names: Vec<String>,
}

impl Ir {
    pub fn num_vars(&self) -> usize {
        self.lb.len()
    }

    /// Internal (minimization) objective at `x`.
    pub fn objective(&self, x: &[f64]) -> f64 {
        self.obj_constant + self.obj_terms.iter().map(|&(v, c)| c * x[v]).sum::<f64>()
    }

    /// Objective in the *model's* sense (undoing the max→min negation).
    pub fn model_objective(&self, x: &[f64]) -> f64 {
        let z = self.objective(x);
        if self.negated {
            -z
        } else {
            z
        }
    }

    /// Maximum violation of the nonlinear constraints at `x`.
    pub fn max_nl_violation(&self, x: &[f64]) -> f64 {
        self.nonlinear
            .iter()
            .map(|c| c.g.eval(x))
            .fold(0.0_f64, f64::max)
    }
}

/// Errors raised when a model cannot be compiled for this solver.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A nonconvex nonlinear constraint touches continuous variables; the
    /// branch-only enforcement strategy would be incomplete there.
    NonconvexOverContinuous { constraint: String },
    /// Nonlinear equality constraints are not supported.
    NonlinearEquality { constraint: String },
    /// The objective is nonlinear and was not reducible; the solver
    /// requires models to epigraph-reformulate nonlinear objectives into a
    /// constraint on an auxiliary variable (all HSLB models do).
    NonlinearObjective,
    /// A domain is not a strictly increasing list on an integer variable.
    BadDomain { set: String },
    /// An SOS-1 declaration the solver would have to enforce by itself: it
    /// branches on domains, not on SOS-1 sets, so a set is accepted only
    /// when a convexity row `Σ members = 1` over binaries already implies
    /// it (as in [`Model::expand_domains`]).
    UnenforcedSos1 { set: String },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::NonconvexOverContinuous { constraint } => write!(
                f,
                "nonconvex constraint `{constraint}` involves continuous variables; \
                 only integer-variable nonconvexities can be enforced by branching"
            ),
            CompileError::NonlinearEquality { constraint } => {
                write!(f, "nonlinear equality `{constraint}` is not supported")
            }
            CompileError::NonlinearObjective => write!(
                f,
                "nonlinear objective: reformulate as `minimize t` with a \
                 constraint `f(x) − t ≤ 0` (epigraph form)"
            ),
            CompileError::BadDomain { set } => write!(
                f,
                "domain `{set}` must be strictly increasing values on an integer variable"
            ),
            CompileError::UnenforcedSos1 { set } => write!(
                f,
                "SOS-1 set `{set}` has no convexity row over binary members; \
                 state the choice as a domain on the linked variable instead"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compile a model into solver IR.
///
/// Normalizations performed:
/// * `maximize f` → `minimize −f` (flagged so solutions report correctly);
/// * nonlinear `expr ≤ rhs` → `g = expr − rhs ≤ 0`;
/// * nonlinear `expr ≥ rhs` → `g = rhs − expr ≤ 0`;
///   in both cases [`Convexity::Convex`] declares that the *normalized*
///   `g` is convex;
/// * linear constraints (auto-detected by the model layer) go straight to
///   LP rows, whatever convexity was declared;
/// * SOS-1 declarations are checked redundant and dropped (see
///   [`CompileError::UnenforcedSos1`]).
pub fn compile(model: &Model) -> Result<Ir, CompileError> {
    let n = model.num_vars();
    let mut lb = Vec::with_capacity(n);
    let mut ub = Vec::with_capacity(n);
    let mut is_int = Vec::with_capacity(n);
    let mut var_names = Vec::with_capacity(n);
    for v in 0..n {
        let (l, u) = model.bounds(v);
        lb.push(l);
        ub.push(u);
        is_int.push(!matches!(model.var_type(v), VarType::Continuous));
        var_names.push(model.var_name(v).to_string());
    }

    let mut linear = Vec::new();
    let mut nonlinear = Vec::new();
    for c in &model.constraints {
        if let Some(lin) = c.expr.as_linear() {
            linear.push(LinRow {
                terms: lin.pairs(),
                sense: c.sense,
                rhs: c.rhs - lin.constant,
                name: c.name.clone(),
            });
            continue;
        }
        let g = match c.sense {
            ConstraintSense::Le => c.expr.clone() - c.rhs,
            ConstraintSense::Ge => Expr::c(c.rhs) - c.expr.clone(),
            ConstraintSense::Eq => {
                return Err(CompileError::NonlinearEquality {
                    constraint: c.name.clone(),
                })
            }
        };
        let convex = matches!(c.convexity, Convexity::Convex);
        let vars = g.variables();
        let all_int = vars.iter().all(|&v| is_int[v]);
        if !convex && !all_int {
            return Err(CompileError::NonconvexOverContinuous {
                constraint: c.name.clone(),
            });
        }
        nonlinear.push(NlCon {
            g,
            convex,
            vars,
            all_int,
            name: c.name.clone(),
        });
    }

    // Objective: must be linear (possibly after the caller's epigraph
    // reformulation — the layout builders produce `minimize T`).
    let negated = model.objective.sense == ObjectiveSense::Maximize;
    let obj_expr = if negated {
        -model.objective.expr.clone()
    } else {
        model.objective.expr.clone()
    };
    let lin = obj_expr
        .as_linear()
        .ok_or(CompileError::NonlinearObjective)?;

    for d in &model.domains {
        let ok = is_int.get(d.var) == Some(&true) && d.values.windows(2).all(|w| w[0] < w[1]);
        if !ok {
            return Err(CompileError::BadDomain {
                set: d.name.clone(),
            });
        }
    }
    for s in &model.sos1 {
        let mut members: Vec<usize> = s.members.iter().map(|&(v, _)| v).collect();
        members.sort_unstable();
        let binary = members
            .iter()
            .all(|&v| v < n && is_int[v] && lb[v] >= 0.0 && ub[v] <= 1.0);
        // Row terms come out of `LinExpr::pairs` sorted by variable.
        let implied = |row: &LinRow| {
            matches!(row.sense, ConstraintSense::Eq | ConstraintSense::Le)
                && row.rhs == 1.0
                && row.terms.len() == members.len()
                && row
                    .terms
                    .iter()
                    .zip(&members)
                    .all(|(&(v, a), &m)| v == m && a == 1.0)
        };
        if !(binary && linear.iter().any(implied)) {
            return Err(CompileError::UnenforcedSos1 {
                set: s.name.clone(),
            });
        }
    }

    Ok(Ir {
        lb,
        ub,
        is_int,
        linear,
        nonlinear,
        domains: model.domains.clone(),
        obj_terms: lin.pairs(),
        obj_constant: lin.constant,
        negated,
        var_names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb_model::{Convexity, Model, ObjectiveSense};

    #[test]
    fn compiles_epigraph_model() {
        let mut m = Model::new();
        let nvar = m.integer("n", 1.0, 64.0).unwrap();
        let t = m.continuous("T", 0.0, 1e9).unwrap();
        let g = 100.0 / Expr::var(nvar) + 2.0 * Expr::var(nvar) - Expr::var(t);
        m.constrain("perf", g, ConstraintSense::Le, 0.0, Convexity::Convex)
            .unwrap();
        m.set_objective(Expr::var(t), ObjectiveSense::Minimize)
            .unwrap();
        let ir = compile(&m).unwrap();
        assert_eq!(ir.num_vars(), 2);
        assert_eq!(ir.linear.len(), 0);
        assert_eq!(ir.nonlinear.len(), 1);
        assert!(ir.nonlinear[0].convex);
        assert!(!ir.nonlinear[0].all_int); // touches continuous T
        assert_eq!(ir.obj_terms, vec![(t, 1.0)]);
    }

    #[test]
    fn ge_constraints_are_negated_into_le_form() {
        let mut m = Model::new();
        let nvar = m.integer("n", 1.0, 64.0).unwrap();
        let t = m.continuous("T", 0.0, 1e9).unwrap();
        // T ≥ 100/n  ⇒  g = 100/n − T ≤ 0.
        let rhs_expr = 100.0 / Expr::var(nvar);
        m.constrain(
            "perf",
            Expr::var(t) - rhs_expr,
            ConstraintSense::Ge,
            0.0,
            Convexity::Convex,
        )
        .unwrap();
        m.set_objective(Expr::var(t), ObjectiveSense::Minimize)
            .unwrap();
        let ir = compile(&m).unwrap();
        // g = 0 − (T − 100/n) must evaluate to 100/n − T.
        let x = vec![4.0, 30.0];
        assert!((ir.nonlinear[0].g.eval(&x) - (25.0 - 30.0)).abs() < 1e-12);
    }

    #[test]
    fn maximize_is_negated() {
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 5.0).unwrap();
        m.set_objective(Expr::var(x), ObjectiveSense::Maximize)
            .unwrap();
        let ir = compile(&m).unwrap();
        assert!(ir.negated);
        assert_eq!(ir.obj_terms, vec![(x, -1.0)]);
        assert_eq!(ir.model_objective(&[3.0]), 3.0);
        assert_eq!(ir.objective(&[3.0]), -3.0);
    }

    #[test]
    fn rejects_nonconvex_over_continuous() {
        let mut m = Model::new();
        let x = m.continuous("x", 0.1, 5.0).unwrap();
        let y = m.continuous("y", 0.0, 5.0).unwrap();
        // y ≤ 1/x declared nonconvex in ≤0 form would be 1/x − y convex…
        // declare the *other* side to force the nonconvex path: y ≥ 1/x.
        m.constrain(
            "nc",
            Expr::var(y) - Expr::var(x).recip(),
            ConstraintSense::Ge,
            0.0,
            Convexity::Nonconvex,
        )
        .unwrap();
        m.set_objective(Expr::var(y), ObjectiveSense::Minimize)
            .unwrap();
        assert!(matches!(
            compile(&m),
            Err(CompileError::NonconvexOverContinuous { .. })
        ));
    }

    #[test]
    fn accepts_nonconvex_over_integers() {
        let mut m = Model::new();
        let a = m.integer("a", 1.0, 10.0).unwrap();
        let b = m.integer("b", 1.0, 10.0).unwrap();
        // 1/a − 1/b ≤ 0.1 : difference of convex, integers only.
        m.constrain(
            "sync",
            Expr::var(a).recip() - Expr::var(b).recip(),
            ConstraintSense::Le,
            0.1,
            Convexity::Nonconvex,
        )
        .unwrap();
        m.set_objective(Expr::var(a), ObjectiveSense::Minimize)
            .unwrap();
        let ir = compile(&m).unwrap();
        assert!(ir.nonlinear[0].all_int);
        assert!(!ir.nonlinear[0].convex);
    }

    #[test]
    fn rejects_nonlinear_equality_and_objective() {
        let mut m = Model::new();
        let x = m.continuous("x", 0.1, 5.0).unwrap();
        m.constrain(
            "eq",
            Expr::var(x).recip(),
            ConstraintSense::Eq,
            1.0,
            Convexity::Convex,
        )
        .unwrap();
        m.set_objective(Expr::var(x), ObjectiveSense::Minimize)
            .unwrap();
        assert!(matches!(
            compile(&m),
            Err(CompileError::NonlinearEquality { .. })
        ));

        let mut m2 = Model::new();
        let y = m2.continuous("y", 0.1, 5.0).unwrap();
        m2.set_objective(Expr::var(y).recip(), ObjectiveSense::Minimize)
            .unwrap();
        assert!(matches!(
            compile(&m2),
            Err(CompileError::NonlinearObjective)
        ));
    }

    /// Table I's literal shape: binaries, convexity row, SOS-1 over them.
    fn sos_over_binaries(convexity_row: bool) -> Model {
        let mut m = Model::new();
        let z1 = m.binary("z1").unwrap();
        let z2 = m.binary("z2").unwrap();
        if convexity_row {
            m.constrain(
                "pick_one",
                Expr::var(z1) + Expr::var(z2),
                ConstraintSense::Eq,
                1.0,
                Convexity::Linear,
            )
            .unwrap();
        }
        m.add_sos1("s", vec![(z1, 2.0), (z2, 4.0)]).unwrap();
        m.set_objective(Expr::var(z1), ObjectiveSense::Minimize)
            .unwrap();
        m
    }

    #[test]
    fn sos1_is_accepted_only_when_a_convexity_row_implies_it() {
        assert!(compile(&sos_over_binaries(true)).is_ok());
        assert!(matches!(
            compile(&sos_over_binaries(false)),
            Err(CompileError::UnenforcedSos1 { set }) if set == "s"
        ));
        // A convexity row over *other* variables does not count…
        let mut m = sos_over_binaries(false);
        let z3 = m.binary("z3").unwrap();
        m.constrain(
            "pick_one",
            Expr::var(0) + Expr::var(z3),
            ConstraintSense::Eq,
            1.0,
            Convexity::Linear,
        )
        .unwrap();
        assert!(matches!(
            compile(&m),
            Err(CompileError::UnenforcedSos1 { .. })
        ));
        // …nor does one over members that are not 0/1.
        let mut m = Model::new();
        let a = m.integer("a", 0.0, 5.0).unwrap();
        let b = m.integer("b", 0.0, 5.0).unwrap();
        m.constrain(
            "pick_one",
            Expr::var(a) + Expr::var(b),
            ConstraintSense::Eq,
            1.0,
            Convexity::Linear,
        )
        .unwrap();
        m.add_sos1("s", vec![(a, 1.0), (b, 2.0)]).unwrap();
        m.set_objective(Expr::var(a), ObjectiveSense::Minimize)
            .unwrap();
        // (a + b = 1 over non-negative integers does imply it, but the
        // check is syntactic: binaries or nothing.)
        assert!(matches!(
            compile(&m),
            Err(CompileError::UnenforcedSos1 { .. })
        ));
    }

    #[test]
    fn expanded_domains_compile_and_malformed_ones_do_not() {
        let mut m = Model::new();
        let n = m.integer("n", 1.0, 64.0).unwrap();
        m.add_domain("alloc", n, vec![2.0, 4.0, 8.0]).unwrap();
        m.set_objective(Expr::var(n), ObjectiveSense::Minimize)
            .unwrap();
        let compact = compile(&m).unwrap();
        assert_eq!(compact.num_vars(), 1);
        assert_eq!(compact.domains.len(), 1);
        let literal = compile(&m.expand_domains()).unwrap();
        assert_eq!(literal.num_vars(), 4);
        assert!(literal.domains.is_empty());
        assert_eq!(literal.linear.len(), 2);

        // The field is public; what `add_domain` would have refused must
        // not reach the tree search.
        m.domains[0].values = vec![4.0, 2.0];
        assert!(matches!(compile(&m), Err(CompileError::BadDomain { .. })));
        m.domains[0].values = vec![2.0];
        m.domains[0].var = 7;
        assert!(matches!(compile(&m), Err(CompileError::BadDomain { .. })));
    }
}
