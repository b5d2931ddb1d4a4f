//! Level 1b: model well-formedness audit.
//!
//! The solver's exactness argument assumes more than convex curves — it
//! assumes the generated MINLP *is* the Table I model for the declared
//! layout: the allowed-set domains are usable, the temporal constraint
//! graph has the layout's shape, the node-budget inequalities admit a
//! point at all, and every `Convexity::Convex` declaration is true. This
//! pass re-derives each of those properties from the model itself, so a
//! drifted model builder (or a hostile instance) fails loudly before
//! branch-and-bound starts.

use crate::certificate::EpsilonPolicy;
use crate::convexity::{curvature, Curvature};
use hslb_cesm::layout::SYNC_ROWS;
use hslb_cesm::{Component, Layout};
use hslb_model::{ConstraintSense, Convexity, Model, VarType};
use hslb_numerics::float;

/// The objective shapes the layout builder can produce (the audit crate
/// cannot depend on the pipeline's `Objective`, which lives above it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveShape {
    /// Makespan minimization (paper eq. 1): min T.
    MinMax,
    /// Total-time minimization (paper eq. 3) in epigraph form.
    SumTime,
}

/// What the caller declared about the instance; the audit checks the
/// model against this, never the other way around.
#[derive(Debug, Clone, Copy)]
pub struct ModelExpectations {
    pub layout: Layout,
    pub shape: ObjectiveShape,
    /// Node budget N (Table I line 4).
    pub total_nodes: i64,
    /// T_sync constraints requested (Table I lines 18–19).
    pub tsync: bool,
    /// An ocean allowed set was configured (Table I line 5).
    pub ocean_set: bool,
    /// An atmosphere allowed set was configured (Table I line 6).
    pub atm_set: bool,
}

/// One failed well-formedness check.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelViolation {
    /// Stable rule id: `domain`, `structure`, `convexity`, `budget`.
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for ModelViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.message)
    }
}

/// The well-formedness report for one generated model.
#[derive(Debug, Clone)]
pub struct ModelAudit {
    pub violations: Vec<ModelViolation>,
    /// Constraints whose `Convexity::Convex` declaration the structural
    /// verifier confirmed.
    pub convex_verified: usize,
    /// Allowed sets (discrete domains) checked. The name and the `sos_sets`
    /// JSON key predate the domains: the paper writes these sets as SOS-1.
    pub sos_sets_checked: usize,
    pub linear_rows_checked: usize,
}

impl ModelAudit {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for ModelAudit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "  model: {} ({} convex rows verified, {} allowed sets, {} linear rows)",
            if self.passed() {
                "well-formed"
            } else {
                "MALFORMED"
            },
            self.convex_verified,
            self.sos_sets_checked,
            self.linear_rows_checked,
        )?;
        for v in &self.violations {
            writeln!(f, "    violation: {v}")?;
        }
        Ok(())
    }
}

/// The constraint names the layout builder emits for an expectation, as
/// `(name, declared convexity)` pairs, derived from the layout's
/// composition — the same rows the builder derives its model from.
fn expected_rows(e: &ModelExpectations) -> Vec<(String, Convexity)> {
    let mut rows: Vec<(String, Convexity)> = match e.shape {
        ObjectiveShape::MinMax => {
            let mut rows: Vec<_> = e
                .layout
                .time_rows()
                .iter()
                .map(|r| (r.name.clone(), Convexity::Convex))
                .collect();
            if e.tsync && e.layout.tree().side_by_side(Component::Ice, Component::Lnd) {
                rows.extend(SYNC_ROWS.map(|name| (name.to_string(), Convexity::Nonconvex)));
            }
            rows
        }
        ObjectiveShape::SumTime => vec![("sum_epigraph".to_string(), Convexity::Convex)],
    };
    rows.extend(
        e.layout
            .node_rows()
            .iter()
            .map(|r| (r.name.clone(), Convexity::Linear)),
    );
    rows
}

/// Interval of a linear expression over the variable box.
fn linear_range(model: &Model, pairs: &[(usize, f64)], constant: f64) -> (f64, f64) {
    let mut lo = constant;
    let mut hi = constant;
    for &(v, k) in pairs {
        let (l, u) = model.bounds(v);
        if k >= 0.0 {
            lo += k * l;
            hi += k * u;
        } else {
            lo += k * u;
            hi += k * l;
        }
    }
    (lo, hi)
}

/// Node-count values a component variable can take: the domain when an
/// allowed set is attached, else the (integer) bound interval.
enum AllowedValues {
    Set(Vec<f64>),
    Interval(f64, f64),
}

impl AllowedValues {
    /// Smallest value ≥ `min`, if any.
    fn smallest_at_least(&self, min: f64) -> Option<f64> {
        match self {
            AllowedValues::Set(vals) => vals.iter().copied().find(|&v| v >= min),
            AllowedValues::Interval(lo, hi) => {
                let v = lo.max(min).ceil();
                (v <= *hi).then_some(v)
            }
        }
    }
}

fn allowed_values(model: &Model, var: Option<usize>) -> AllowedValues {
    match var {
        Some(v) => match model.domains.iter().find(|d| d.var == v) {
            Some(d) => AllowedValues::Set(d.values.clone()),
            None => {
                let (lo, hi) = model.bounds(v);
                AllowedValues::Interval(lo, hi)
            }
        },
        None => AllowedValues::Interval(1.0, f64::INFINITY),
    }
}

fn find_var(model: &Model, name: &str) -> Option<usize> {
    (0..model.num_vars()).find(|&v| model.var_name(v) == name)
}

/// Audit a generated layout model against the declared expectations.
pub fn audit_model(model: &Model, expect: &ModelExpectations, eps: EpsilonPolicy) -> ModelAudit {
    let mut violations: Vec<ModelViolation> = Vec::new();
    let mut push = |rule: &'static str, message: String| {
        violations.push(ModelViolation { rule, message });
    };

    // --- Allowed sets: each a nonempty, strictly increasing list of
    // integers within the node budget, on an integer variable; attached
    // to n_ocn / n_atm exactly when the expectation says so and to
    // nothing else. The compact model the solver branches on carries no
    // SOS-1 set (those exist only in `Model::expand_domains`' output).
    let nf = expect.total_nodes as f64;
    for d in &model.domains {
        if d.values.is_empty() {
            push("domain", format!("allowed set `{}` is empty", d.name));
        }
        if let Some(w) = d.values.windows(2).find(|w| w[1] <= w[0]) {
            push(
                "domain",
                format!(
                    "allowed set `{}` not strictly increasing at {}",
                    d.name, w[1]
                ),
            );
        }
        for &v in &d.values {
            if !float::is_integral(v, 0.0) || !(1.0..=nf).contains(&v) {
                push(
                    "domain",
                    format!(
                        "allowed set `{}` value {v} is not an integer in the node budget [1, {}]",
                        d.name, expect.total_nodes
                    ),
                );
            }
        }
        if d.var >= model.num_vars() {
            push(
                "domain",
                format!("allowed set `{}` references unknown var {}", d.name, d.var),
            );
            continue;
        }
        let on = model.var_name(d.var);
        if model.var_type(d.var) != VarType::Integer {
            push(
                "domain",
                format!(
                    "allowed set `{}` sits on `{on}`, which is not an integer variable",
                    d.name
                ),
            );
        }
        if on != "n_ocn" && on != "n_atm" {
            push(
                "domain",
                format!(
                    "allowed set `{}` sits on `{on}`, neither n_ocn nor n_atm",
                    d.name
                ),
            );
        }
    }
    for (name, expected) in [("n_ocn", expect.ocean_set), ("n_atm", expect.atm_set)] {
        let attached = model
            .domains
            .iter()
            .filter(|d| d.var < model.num_vars() && model.var_name(d.var) == name)
            .count();
        if attached != usize::from(expected) {
            push(
                "domain",
                format!(
                    "`{name}` carries {attached} allowed set(s), the configuration declares {}",
                    usize::from(expected)
                ),
            );
        }
    }
    for s in &model.sos1 {
        push(
            "structure",
            format!(
                "unexpected SOS-1 set `{}`: allowed sets are stated as domains",
                s.name
            ),
        );
    }

    // --- Temporal structure: the constraint graph must match the
    // declared layout exactly — every expected row present with the
    // declared convexity class, no unexpected rows.
    let expected = expected_rows(expect);
    for (name, conv) in &expected {
        match model.constraints.iter().find(|c| &c.name == name) {
            None => push(
                "structure",
                format!(
                    "missing constraint `{name}` required by {:?}",
                    expect.layout
                ),
            ),
            Some(c) => {
                if std::mem::discriminant(&c.convexity) != std::mem::discriminant(conv) {
                    push(
                        "structure",
                        format!(
                            "constraint `{name}` declared {:?}, layout requires {:?}",
                            c.convexity, conv
                        ),
                    );
                }
            }
        }
    }
    for c in &model.constraints {
        if !expected.iter().any(|(name, _)| name == &c.name) {
            push(
                "structure",
                format!(
                    "unexpected constraint `{}` not in the {:?}/{:?} graph",
                    c.name, expect.layout, expect.shape
                ),
            );
        }
    }

    // --- Declared convexity verified structurally. `Linear` must extract
    // as affine; `Convex` must verify through the curvature rules in the
    // normalized g ≤ 0 orientation. `Nonconvex` rows are the solver's
    // problem (it branch-enforces them) — nothing to verify.
    let lb: Vec<f64> = (0..model.num_vars()).map(|v| model.bounds(v).0).collect();
    let ub: Vec<f64> = (0..model.num_vars()).map(|v| model.bounds(v).1).collect();
    let mut convex_verified = 0usize;
    for c in &model.constraints {
        match c.convexity {
            Convexity::Linear => {
                if !c.expr.is_linear() {
                    push(
                        "convexity",
                        format!("constraint `{}` declared Linear but is not affine", c.name),
                    );
                }
            }
            Convexity::Convex => {
                if c.expr.is_linear() {
                    convex_verified += 1;
                    continue;
                }
                let cur = curvature(&c.expr, &lb, &ub, eps);
                let ok = match c.sense {
                    ConstraintSense::Le => cur.is_convex_ok(),
                    ConstraintSense::Ge => matches!(
                        cur,
                        Curvature::Concave | Curvature::Affine | Curvature::Constant
                    ),
                    // A nonlinear equality can never be convex in g ≤ 0
                    // form (the compiler rejects it too).
                    ConstraintSense::Eq => false,
                };
                if ok {
                    convex_verified += 1;
                } else {
                    push(
                        "convexity",
                        format!(
                            "constraint `{}` declared Convex but verifies as {cur:?} \
                             (sense {:?})",
                            c.name, c.sense
                        ),
                    );
                }
            }
            Convexity::Nonconvex => {}
        }
    }

    // --- Node-budget inequalities: each linear row must admit a point of
    // the variable box on its own…
    let mut linear_rows_checked = 0usize;
    for c in &model.constraints {
        let Some(lin) = c.expr.as_linear() else {
            continue;
        };
        linear_rows_checked += 1;
        let (lo, hi) = linear_range(model, &lin.pairs(), lin.constant);
        let sat = match c.sense {
            ConstraintSense::Le => lo <= c.rhs,
            ConstraintSense::Ge => hi >= c.rhs,
            ConstraintSense::Eq => lo <= c.rhs && c.rhs <= hi,
        };
        if !sat {
            push(
                "budget",
                format!(
                    "linear row `{}` unsatisfiable over the bounds: \
                     range [{lo:.3}, {hi:.3}] vs rhs {:.3}",
                    c.name, c.rhs
                ),
            );
        }
    }

    // …and the layout's budget rows must be *mutually* satisfiable
    // against the memory floors and the discrete allowed sets: the fewest
    // nodes the layout's composition can run on must fit in N.
    let vars: Option<Vec<(Component, usize)>> = Component::OPTIMIZED
        .iter()
        .map(|&c| find_var(model, &format!("n_{c}")).map(|v| (c, v)))
        .collect();
    match vars {
        Some(vars) => {
            let smallest = |c: Component, at_least: i64| {
                let &(_, v) = vars.iter().find(|(o, _)| *o == c)?;
                allowed_values(model, Some(v))
                    .smallest_at_least(model.bounds(v).0.max(at_least as f64))
                    .map(|n| n as i64)
            };
            let layout = expect.layout;
            match layout.tree().min_nodes(&smallest) {
                Some(need) if need <= expect.total_nodes => {}
                Some(need) => push(
                    "budget",
                    format!(
                        "{layout:?} budget infeasible: the floors and allowed sets need \
                         {need} nodes, the budget is {}",
                        expect.total_nodes
                    ),
                ),
                None => push(
                    "budget",
                    format!(
                        "{layout:?} budget infeasible: a component has no allowed count \
                         at or above its floor"
                    ),
                ),
            }
        }
        None => push(
            "structure",
            "model is missing one of the node variables n_lnd/n_ice/n_atm/n_ocn".to_string(),
        ),
    }

    violations.sort_by(|a, b| (a.rule, &a.message).cmp(&(b.rule, &b.message)));
    ModelAudit {
        violations,
        convex_verified,
        sos_sets_checked: model.domains.len(),
        linear_rows_checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb_model::{Expr, ObjectiveSense};

    fn eps() -> EpsilonPolicy {
        EpsilonPolicy::default()
    }

    /// A hand-built MinMax/FullySequential model in the builder's shape.
    fn tiny_model(convex_curve: bool) -> Model {
        let mut m = Model::new();
        let n_ice = m.integer("n_ice", 1.0, 64.0).unwrap();
        let n_lnd = m.integer("n_lnd", 1.0, 64.0).unwrap();
        let n_atm = m.integer("n_atm", 1.0, 64.0).unwrap();
        let n_ocn = m.integer("n_ocn", 1.0, 64.0).unwrap();
        let t = m.continuous("T", 0.0, 1e9).unwrap();
        let term = |n| {
            if convex_curve {
                Expr::c(100.0) / Expr::var(n) + Expr::c(0.5) * Expr::var(n).pow(1.2)
            } else {
                Expr::c(100.0) / Expr::var(n) + Expr::c(-0.5) * Expr::var(n).pow(1.2)
            }
        };
        m.constrain(
            "total_ge_all_seq",
            term(n_ice) + term(n_lnd) + term(n_atm) + term(n_ocn) - Expr::var(t),
            ConstraintSense::Le,
            0.0,
            Convexity::Convex,
        )
        .unwrap();
        m.set_objective(Expr::var(t), ObjectiveSense::Minimize)
            .unwrap();
        m
    }

    fn expectations() -> ModelExpectations {
        ModelExpectations {
            layout: Layout::FullySequential,
            shape: ObjectiveShape::MinMax,
            total_nodes: 64,
            tsync: false,
            ocean_set: false,
            atm_set: false,
        }
    }

    #[test]
    fn well_formed_model_passes() {
        let audit = audit_model(&tiny_model(true), &expectations(), eps());
        assert!(audit.passed(), "{:?}", audit.violations);
        assert_eq!(audit.convex_verified, 1);
    }

    #[test]
    fn false_convex_declaration_is_caught() {
        let audit = audit_model(&tiny_model(false), &expectations(), eps());
        assert!(!audit.passed());
        assert!(audit.violations.iter().any(|v| v.rule == "convexity"));
    }

    #[test]
    fn missing_temporal_row_is_caught() {
        let mut e = expectations();
        e.layout = Layout::Hybrid; // expects icelnd_* rows the model lacks
        let audit = audit_model(&tiny_model(true), &e, eps());
        assert!(audit
            .violations
            .iter()
            .any(|v| v.rule == "structure" && v.message.contains("icelnd_ge_ice")));
        // The FullySequential row is now unexpected, too.
        assert!(audit
            .violations
            .iter()
            .any(|v| v.rule == "structure" && v.message.contains("total_ge_all_seq")));
    }

    #[test]
    fn unsatisfiable_budget_row_is_caught() {
        let mut m = tiny_model(true);
        // floors sum to 4 but demand n_ice + n_lnd ≥ … impossible row:
        let n_ice = 0;
        let n_lnd = 1;
        m.constrain(
            "budget",
            Expr::var(n_ice) + Expr::var(n_lnd),
            ConstraintSense::Le,
            1.0, // both floors are 1 ⇒ min LHS is 2 > 1
            Convexity::Linear,
        )
        .unwrap();
        let mut e = expectations();
        e.shape = ObjectiveShape::SumTime; // irrelevant; keeps row name legal
        let audit = audit_model(&m, &e, eps());
        assert!(audit
            .violations
            .iter()
            .any(|v| v.rule == "budget" && v.message.contains("budget")));
    }

    /// `tiny_model` with an ocean domain pushed past `add_domain`'s own
    /// validation — the audit is the builder's second opinion.
    fn with_ocean_domain(values: Vec<f64>) -> (Model, ModelExpectations) {
        let mut m = tiny_model(true);
        m.domains.push(hslb_model::Domain {
            name: "ocn".into(),
            var: 3,
            values,
        });
        let mut e = expectations();
        e.ocean_set = true;
        (m, e)
    }

    fn domain_violation(m: &Model, e: &ModelExpectations, needle: &str) -> bool {
        audit_model(m, e, eps())
            .violations
            .iter()
            .any(|v| v.rule == "domain" && v.message.contains(needle))
    }

    #[test]
    fn well_formed_domain_passes_and_is_counted() {
        let (m, e) = with_ocean_domain(vec![2.0, 4.0, 64.0]);
        let audit = audit_model(&m, &e, eps());
        assert!(audit.passed(), "{:?}", audit.violations);
        assert_eq!(audit.sos_sets_checked, 1);
    }

    #[test]
    fn malformed_domain_values_are_caught() {
        for (values, needle) in [
            (vec![], "is empty"),
            (vec![4.0, 2.0], "not strictly increasing"),
            (vec![2.0, 2.0], "not strictly increasing"),
            (vec![2.5], "not an integer in the node budget"),
            (vec![2.0, 768.0], "not an integer in the node budget"),
            (vec![0.0, 2.0], "not an integer in the node budget"),
        ] {
            let (m, e) = with_ocean_domain(values.clone());
            assert!(domain_violation(&m, &e, needle), "{values:?}");
        }
    }

    #[test]
    fn domain_attachment_must_match_the_declaration() {
        // Declared but missing.
        let mut e = expectations();
        e.atm_set = true;
        assert!(domain_violation(&tiny_model(true), &e, "`n_atm` carries 0"));
        // Present but undeclared.
        let (m, _) = with_ocean_domain(vec![2.0, 4.0]);
        assert!(domain_violation(&m, &expectations(), "`n_ocn` carries 1"));
        // Two sets on one variable.
        let (mut m, e) = with_ocean_domain(vec![2.0, 4.0]);
        m.domains.push(m.domains[0].clone());
        assert!(domain_violation(&m, &e, "`n_ocn` carries 2"));
        // On a component that has no allowed set, a continuous variable,
        // or no variable at all.
        for (var, needle) in [
            (0, "neither n_ocn nor n_atm"),
            (4, "not an integer variable"),
            (99, "unknown var"),
        ] {
            let (mut m, e) = with_ocean_domain(vec![2.0, 4.0]);
            m.domains[0].var = var;
            assert!(domain_violation(&m, &e, needle), "var {var}");
        }
    }

    #[test]
    fn literal_sos_machinery_is_not_the_audited_shape() {
        let (m, e) = with_ocean_domain(vec![2.0, 4.0]);
        let audit = audit_model(&m.expand_domains(), &e, eps());
        for needle in ["ocn_pick_one", "ocn_link", "SOS-1 set `ocn_set`"] {
            assert!(
                audit
                    .violations
                    .iter()
                    .any(|v| v.rule == "structure" && v.message.contains(needle)),
                "{needle}: {:?}",
                audit.violations
            );
        }
    }

    #[test]
    fn budget_uses_the_domain_not_the_box() {
        // n_ocn ∈ {60, 64} with floors 1: sequential needs floor + 60 ≤ 64.
        let (mut m, mut e) = with_ocean_domain(vec![60.0, 64.0]);
        e.layout = Layout::SequentialWithOcean;
        assert!(!audit_model(&m, &e, eps())
            .violations
            .iter()
            .any(|v| v.rule == "budget"));
        m.domains[0].values = vec![64.0];
        assert!(audit_model(&m, &e, eps())
            .violations
            .iter()
            .any(|v| v.rule == "budget" && v.message.contains("need 65 nodes")));
    }

    #[test]
    fn violations_are_sorted_and_deterministic() {
        let mut e = expectations();
        e.layout = Layout::Hybrid;
        let a = audit_model(&tiny_model(false), &e, eps());
        let b = audit_model(&tiny_model(false), &e, eps());
        let msgs: Vec<String> = a.violations.iter().map(|v| v.to_string()).collect();
        assert_eq!(
            msgs,
            b.violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
        );
        let mut sorted = msgs.clone();
        sorted.sort();
        assert_eq!(msgs, sorted);
    }
}
