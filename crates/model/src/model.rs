//! The optimization model container (AMPL-model equivalent).

use crate::expr::Expr;
use hslb_numerics::float;

/// Index of a variable within a [`Model`].
pub type VarId = usize;

/// Typing of a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarType {
    /// Real-valued.
    Continuous,
    /// Integer-valued (`ℤ` restricted to the bounds).
    Integer,
    /// 0/1 variable (integer with bounds forced into `[0, 1]`).
    Binary,
}

/// Sense of a constraint `expr ⟨sense⟩ rhs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintSense {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

/// Declared curvature of a constraint's expression, used by the MINLP
/// solver to decide whether outer-approximation cuts are valid.
///
/// In `g(x) ≤ 0` form (after moving the rhs over and normalizing `≥` by
/// negation), a `Convex` declaration promises `g` is convex, so a tangent
/// plane never cuts off feasible points. The paper's performance functions
/// `a/n + b·n^c + d` with `a,b,d ≥ 0` and `c ≥ 1` are convex on `n > 0`,
/// which is exactly why MINOTAUR's LP/NLP branch-and-bound finds global
/// optima there (§III-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Convexity {
    /// Affine; detected automatically, routed straight to the LP.
    Linear,
    /// Convex in `g(x) ≤ 0` form: linearizations are globally valid.
    Convex,
    /// No convexity promise: the solver must not derive cuts from it and
    /// falls back to feasibility checks plus branching (used by the
    /// optional `T_sync` constraints, which are differences of convex
    /// functions).
    Nonconvex,
}

/// A constraint `expr ⟨sense⟩ rhs` with a declared convexity.
#[derive(Debug, Clone)]
pub struct Constraint {
    pub name: String,
    pub expr: Expr,
    pub sense: ConstraintSense,
    pub rhs: f64,
    pub convexity: Convexity,
}

/// A special-ordered set of type 1: at most one member may be nonzero.
///
/// The paper models the ocean/atmosphere allowed node counts with binaries
/// `z_k` and constraints `Σ z_k = 1`, `Σ z_k·O_k = n_o`, then tells the
/// solver to branch on the *set* rather than on individual binaries —
/// "which improved the runtime of the MINLP solver by two orders of
/// magnitude". The weights order the members for the split.
///
/// The layout models state such a choice as a [`Domain`] instead; an
/// `Sos1` is what [`Model::expand_domains`] declares over the binaries it
/// creates, so that the AMPL export carries the `.sosno` / `.ref`
/// suffixes MINOTAUR reads.
#[derive(Debug, Clone)]
pub struct Sos1 {
    pub name: String,
    /// `(variable, weight)` pairs; weights must be strictly increasing.
    pub members: Vec<(VarId, f64)>,
}

/// A discrete domain on an integer variable: `var ∈ {V_1 < … < V_k}`.
///
/// This is how the layout models carry the ocean/atmosphere allowed node
/// counts. The solver branches on the domain directly (a window of values,
/// split at the relaxation value of `var`); [`Model::expand_domains`]
/// rewrites it into Table I's binaries for AMPL and for the §III-E
/// ablation.
#[derive(Debug, Clone)]
pub struct Domain {
    /// Label the expansion derives its names from (`z_{name}_{V}`,
    /// `{name}_pick_one`, `{name}_link`, `{name}_set`).
    pub name: String,
    pub var: VarId,
    /// Allowed values; integral and strictly increasing.
    pub values: Vec<f64>,
}

/// Objective direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveSense {
    Minimize,
    Maximize,
}

/// The model objective.
#[derive(Debug, Clone)]
pub struct Objective {
    pub expr: Expr,
    pub sense: ObjectiveSense,
}

/// Errors raised while building a model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// Bounds inverted or NaN.
    BadBounds { var: String },
    /// SOS weights not strictly increasing.
    BadSosWeights { set: String },
    /// Domain empty, not integral and strictly increasing, or attached to
    /// a variable that is not `Integer` or already has a domain.
    BadDomain { set: String },
    /// Expression references a variable id not in this model.
    UnknownVariable { id: VarId },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::BadBounds { var } => write!(f, "bad bounds on variable {var}"),
            ModelError::BadSosWeights { set } => {
                write!(f, "SOS-1 weights not strictly increasing in set {set}")
            }
            ModelError::BadDomain { set } => write!(
                f,
                "domain {set} must hold strictly increasing integers for one Integer variable"
            ),
            ModelError::UnknownVariable { id } => write!(f, "unknown variable id {id}"),
        }
    }
}

impl std::error::Error for ModelError {}

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub name: String,
    pub lb: f64,
    pub ub: f64,
    pub vtype: VarType,
}

/// A mixed-integer nonlinear model: typed variables, linear/nonlinear
/// constraints, discrete domains, SOS-1 sets and an objective.
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) vars: Vec<VarDef>,
    pub constraints: Vec<Constraint>,
    pub domains: Vec<Domain>,
    pub sos1: Vec<Sos1>,
    pub objective: Objective,
}

impl Default for Model {
    fn default() -> Self {
        Self::new()
    }
}

impl Model {
    /// Create an empty model with a zero minimization objective.
    pub fn new() -> Self {
        Model {
            vars: Vec::new(),
            constraints: Vec::new(),
            domains: Vec::new(),
            sos1: Vec::new(),
            objective: Objective {
                expr: Expr::Const(0.0),
                sense: ObjectiveSense::Minimize,
            },
        }
    }

    /// Add a variable; binaries get their bounds clipped into `[0, 1]`.
    pub fn add_var(
        &mut self,
        name: &str,
        vtype: VarType,
        lb: f64,
        ub: f64,
    ) -> Result<VarId, ModelError> {
        if lb.is_nan() || ub.is_nan() || lb > ub {
            return Err(ModelError::BadBounds {
                var: name.to_string(),
            });
        }
        let (lb, ub) = match vtype {
            VarType::Binary => (lb.max(0.0), ub.min(1.0)),
            _ => (lb, ub),
        };
        if lb > ub {
            return Err(ModelError::BadBounds {
                var: name.to_string(),
            });
        }
        self.vars.push(VarDef {
            name: name.to_string(),
            lb,
            ub,
            vtype,
        });
        Ok(self.vars.len() - 1)
    }

    /// Shorthand: continuous variable.
    pub fn continuous(&mut self, name: &str, lb: f64, ub: f64) -> Result<VarId, ModelError> {
        self.add_var(name, VarType::Continuous, lb, ub)
    }

    /// Shorthand: integer variable.
    pub fn integer(&mut self, name: &str, lb: f64, ub: f64) -> Result<VarId, ModelError> {
        self.add_var(name, VarType::Integer, lb, ub)
    }

    /// Shorthand: binary variable.
    pub fn binary(&mut self, name: &str) -> Result<VarId, ModelError> {
        self.add_var(name, VarType::Binary, 0.0, 1.0)
    }

    /// Add a constraint. Linearity is detected automatically and overrides
    /// the declared convexity with [`Convexity::Linear`].
    pub fn constrain(
        &mut self,
        name: &str,
        expr: Expr,
        sense: ConstraintSense,
        rhs: f64,
        convexity: Convexity,
    ) -> Result<(), ModelError> {
        self.check_vars(&expr)?;
        let convexity = if expr.is_linear() {
            Convexity::Linear
        } else {
            convexity
        };
        self.constraints.push(Constraint {
            name: name.to_string(),
            expr,
            sense,
            rhs,
            convexity,
        });
        Ok(())
    }

    /// Add an SOS-1 set over `(variable, weight)` pairs; weights must be
    /// strictly increasing.
    pub fn add_sos1(&mut self, name: &str, members: Vec<(VarId, f64)>) -> Result<(), ModelError> {
        for w in members.windows(2) {
            if w[1].1 <= w[0].1 {
                return Err(ModelError::BadSosWeights {
                    set: name.to_string(),
                });
            }
        }
        for &(v, _) in &members {
            if v >= self.vars.len() {
                return Err(ModelError::UnknownVariable { id: v });
            }
        }
        self.sos1.push(Sos1 {
            name: name.to_string(),
            members,
        });
        Ok(())
    }

    /// Restrict integer variable `var` to `values` (integral, strictly
    /// increasing, non-empty); one domain per variable.
    pub fn add_domain(
        &mut self,
        name: &str,
        var: VarId,
        values: Vec<f64>,
    ) -> Result<(), ModelError> {
        if var >= self.vars.len() {
            return Err(ModelError::UnknownVariable { id: var });
        }
        let ok = self.vars[var].vtype == VarType::Integer
            && !values.is_empty()
            && values.iter().all(|&v| float::is_integral(v, 0.0))
            && values.windows(2).all(|w| w[0] < w[1])
            && self.domains.iter().all(|d| d.var != var);
        if !ok {
            return Err(ModelError::BadDomain {
                set: name.to_string(),
            });
        }
        self.domains.push(Domain {
            name: name.to_string(),
            var,
            values,
        });
        Ok(())
    }

    /// The same model with every domain spelled out as Table I lines
    /// 29–31 write it: one binary `z_{name}_{V}` per value, the convexity
    /// row `Σ z = 1`, the linking row `Σ V·z = var`, and an SOS-1
    /// declaration over the binaries. Existing variable ids are kept (the
    /// binaries are appended), so a solution of the expansion reads with
    /// the compact model's ids. This is the only place the product builds
    /// those binaries: [`crate::to_ampl`] prints through it, and the
    /// pipeline solves it when asked to branch on individual binaries.
    pub fn expand_domains(&self) -> Model {
        let mut m = self.clone();
        for d in std::mem::take(&mut m.domains) {
            let mut members = Vec::with_capacity(d.values.len());
            for &v in &d.values {
                members.push((m.vars.len(), v));
                m.vars.push(VarDef {
                    name: format!("z_{}_{v}", d.name),
                    lb: 0.0,
                    ub: 1.0,
                    vtype: VarType::Binary,
                });
            }
            let pick = Expr::Sum(members.iter().map(|&(z, _)| Expr::var(z)).collect());
            let mut link: Vec<Expr> = members.iter().map(|&(z, v)| v * Expr::var(z)).collect();
            link.push(-Expr::var(d.var));
            for (suffix, expr, rhs) in [("pick_one", pick, 1.0), ("link", Expr::Sum(link), 0.0)] {
                m.constraints.push(Constraint {
                    name: format!("{}_{suffix}", d.name),
                    expr,
                    sense: ConstraintSense::Eq,
                    rhs,
                    convexity: Convexity::Linear,
                });
            }
            m.sos1.push(Sos1 {
                name: format!("{}_set", d.name),
                members,
            });
        }
        m
    }

    /// Set the objective.
    pub fn set_objective(&mut self, expr: Expr, sense: ObjectiveSense) -> Result<(), ModelError> {
        self.check_vars(&expr)?;
        self.objective = Objective { expr, sense };
        Ok(())
    }

    fn check_vars(&self, expr: &Expr) -> Result<(), ModelError> {
        for v in expr.variables() {
            if v >= self.vars.len() {
                return Err(ModelError::UnknownVariable { id: v });
            }
        }
        Ok(())
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Bounds of a variable.
    pub fn bounds(&self, v: VarId) -> (f64, f64) {
        (self.vars[v].lb, self.vars[v].ub)
    }

    /// Type of a variable.
    pub fn var_type(&self, v: VarId) -> VarType {
        self.vars[v].vtype
    }

    /// Name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v].name
    }

    /// Maximum violation of all constraints and bounds at `x` (0 when
    /// feasible). Integrality is *not* checked here.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst = 0.0_f64;
        for c in &self.constraints {
            let v = c.expr.eval(x);
            let viol = match c.sense {
                ConstraintSense::Le => v - c.rhs,
                ConstraintSense::Ge => c.rhs - v,
                ConstraintSense::Eq => (v - c.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        for (i, def) in self.vars.iter().enumerate() {
            worst = worst.max(def.lb - x[i]).max(x[i] - def.ub);
        }
        worst
    }

    /// Objective value at `x` (as stated — no sign normalization).
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.expr.eval(x)
    }
}

impl std::fmt::Display for Model {
    /// AMPL-flavoured rendering, handy for debugging layout models.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let namer = |v: VarId| self.vars[v].name.clone();
        for (i, v) in self.vars.iter().enumerate() {
            let kind = match v.vtype {
                VarType::Continuous => "",
                VarType::Integer => " integer",
                VarType::Binary => " binary",
            };
            writeln!(f, "var {} >= {} <= {}{kind}; # id {i}", v.name, v.lb, v.ub)?;
        }
        let sense = match self.objective.sense {
            ObjectiveSense::Minimize => "minimize",
            ObjectiveSense::Maximize => "maximize",
        };
        writeln!(
            f,
            "{sense} obj: {};",
            self.objective.expr.display_with(&namer)
        )?;
        for c in &self.constraints {
            let s = match c.sense {
                ConstraintSense::Le => "<=",
                ConstraintSense::Ge => ">=",
                ConstraintSense::Eq => "=",
            };
            writeln!(
                f,
                "s.t. {}: {} {s} {}; # {:?}",
                c.name,
                c.expr.display_with(&namer),
                c.rhs,
                c.convexity
            )?;
        }
        for d in &self.domains {
            let values: Vec<String> = d.values.iter().map(|v| v.to_string()).collect();
            writeln!(
                f,
                "set {}: {} in {{{}}};",
                d.name,
                namer(d.var),
                values.join(", ")
            )?;
        }
        for s in &self.sos1 {
            let names: Vec<String> = s.members.iter().map(|&(v, _)| namer(v)).collect();
            writeln!(f, "sos1 {}: {{{}}};", s.name, names.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn builds_a_small_minlp() {
        let mut m = Model::new();
        let n = m.integer("n", 1.0, 100.0).unwrap();
        let t = m.continuous("T", 0.0, f64::INFINITY).unwrap();
        // T ≥ 10/n + 0.1 n  →  10/n + 0.1 n − T ≤ 0
        let g = 10.0 / Expr::var(n) + 0.1 * Expr::var(n) - Expr::var(t);
        m.constrain("perf", g, ConstraintSense::Le, 0.0, Convexity::Convex)
            .unwrap();
        m.set_objective(Expr::var(t), ObjectiveSense::Minimize)
            .unwrap();
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.constraints.len(), 1);
        assert_eq!(m.constraints[0].convexity, Convexity::Convex);
    }

    #[test]
    fn linear_constraints_are_reclassified() {
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 1.0).unwrap();
        m.constrain(
            "lin",
            2.0 * Expr::var(x),
            ConstraintSense::Le,
            1.0,
            Convexity::Convex, // declared convex, but it is linear
        )
        .unwrap();
        assert_eq!(m.constraints[0].convexity, Convexity::Linear);
    }

    #[test]
    fn binary_bounds_are_clipped() {
        let mut m = Model::new();
        let z = m.add_var("z", VarType::Binary, -5.0, 5.0).unwrap();
        assert_eq!(m.bounds(z), (0.0, 1.0));
    }

    #[test]
    fn sos_weights_must_increase() {
        let mut m = Model::new();
        let a = m.binary("a").unwrap();
        let b = m.binary("b").unwrap();
        assert!(m.add_sos1("bad", vec![(a, 2.0), (b, 1.0)]).is_err());
        assert!(m.add_sos1("good", vec![(a, 1.0), (b, 2.0)]).is_ok());
    }

    #[test]
    fn domains_are_validated() {
        let mut m = Model::new();
        let n = m.integer("n", 1.0, 64.0).unwrap();
        let k = m.integer("k", 1.0, 64.0).unwrap();
        let x = m.continuous("x", 0.0, 1.0).unwrap();
        for bad in [
            vec![],
            vec![4.0, 2.0],
            vec![2.0, 2.0],
            vec![2.5],
            vec![f64::NAN],
        ] {
            assert!(
                matches!(
                    m.add_domain("d", n, bad.clone()),
                    Err(ModelError::BadDomain { .. })
                ),
                "{bad:?}"
            );
        }
        assert!(m.add_domain("d", x, vec![1.0]).is_err(), "continuous var");
        assert!(matches!(
            m.add_domain("d", 9, vec![1.0]),
            Err(ModelError::UnknownVariable { id: 9 })
        ));
        m.add_domain("d", n, vec![2.0, 4.0]).unwrap();
        assert!(
            m.add_domain("again", n, vec![8.0]).is_err(),
            "one per variable"
        );
        m.add_domain("e", k, vec![8.0]).unwrap();
        assert!(format!("{m}").contains("set d: n in {2, 4};"));
    }

    #[test]
    fn expansion_spells_out_table_i_and_keeps_ids() {
        let mut m = Model::new();
        let n = m.integer("n_ocn", 1.0, 64.0).unwrap();
        m.add_domain("ocn", n, vec![2.0, 4.0, 8.0]).unwrap();
        let e = m.expand_domains();
        assert!(e.domains.is_empty());
        assert_eq!(e.num_vars(), 4);
        assert_eq!(e.var_name(n), "n_ocn");
        assert_eq!(e.var_name(3), "z_ocn_8");
        assert_eq!(e.var_type(3), VarType::Binary);
        let names: Vec<&str> = e.constraints.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["ocn_pick_one", "ocn_link"]);
        assert_eq!(e.sos1[0].name, "ocn_set");
        assert_eq!(e.sos1[0].members, vec![(1, 2.0), (2, 4.0), (3, 8.0)]);
        // z picks 4 ⇒ both rows hold exactly at n = 4.
        assert_eq!(e.max_violation(&[4.0, 0.0, 1.0, 0.0]), 0.0);
        assert!(e.max_violation(&[5.0, 0.0, 1.0, 0.0]) > 0.5);
    }

    #[test]
    fn rejects_unknown_variables() {
        let mut m = Model::new();
        let _ = m.continuous("x", 0.0, 1.0).unwrap();
        let err = m.constrain(
            "bad",
            Expr::var(7),
            ConstraintSense::Le,
            0.0,
            Convexity::Linear,
        );
        assert!(matches!(err, Err(ModelError::UnknownVariable { id: 7 })));
    }

    #[test]
    fn violation_measures_worst_constraint() {
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 10.0).unwrap();
        m.constrain(
            "c",
            Expr::var(x),
            ConstraintSense::Ge,
            4.0,
            Convexity::Linear,
        )
        .unwrap();
        assert_eq!(m.max_violation(&[1.0]), 3.0);
        assert_eq!(m.max_violation(&[5.0]), 0.0);
    }

    #[test]
    fn display_is_ampl_flavoured() {
        let mut m = Model::new();
        let n = m.integer("n_ocn", 2.0, 768.0).unwrap();
        m.set_objective(Expr::var(n), ObjectiveSense::Minimize)
            .unwrap();
        let shown = format!("{m}");
        assert!(shown.contains("var n_ocn"), "{shown}");
        assert!(shown.contains("minimize obj"), "{shown}");
    }
}
