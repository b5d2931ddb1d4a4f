//! Step 3a: build the Table I MINLP for a layout, objective and node
//! budget.
//!
//! The generated models are line-for-line translations of Table I:
//! temporal constraints (lines 14–19 / 22–23 / 27), node constraints
//! (lines 20–21 / 24–26 / 28), the optional ice–land synchronization
//! window `T_sync` (lines 18–19), and the ocean and atmosphere allowed
//! sets (lines 29–31) as discrete domains on `n_ocn` / `n_atm`. The paper
//! writes those lines with one binary per value under an SOS-1
//! declaration; projected onto `n` that is exactly "`n` takes one of the
//! values", and `Model::expand_domains` recovers the literal form for
//! AMPL and the §III-E ablation.

use crate::fit::FitSet;
use crate::objective::Objective;
use hslb_cesm::layout::{Span, SYNC_ROWS};
use hslb_cesm::{Component, Layout};
use hslb_model::{ConstraintSense, Convexity, Expr, Model, ObjectiveSense, VarId};
use hslb_nlsq::ScalingCurve;

/// Per-component minimum node counts (memory floors, §III-C). Defaults
/// to 1 node each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeFloors {
    pub lnd: i64,
    pub ice: i64,
    pub atm: i64,
    pub ocn: i64,
}

impl Default for NodeFloors {
    fn default() -> Self {
        NodeFloors {
            lnd: 1,
            ice: 1,
            atm: 1,
            ocn: 1,
        }
    }
}

impl NodeFloors {
    /// Floors from a resolution's memory requirements.
    pub fn from_config(config: &hslb_cesm::ResolutionConfig) -> Self {
        NodeFloors {
            lnd: config.memory_floor(Component::Lnd),
            ice: config.memory_floor(Component::Ice),
            atm: config.memory_floor(Component::Atm),
            ocn: config.memory_floor(Component::Ocn),
        }
    }
}

/// The problem every solver, audit and what-if reads: layout, objective,
/// budget, floors, allowed sets and `T_sync` window.
#[derive(Debug, Clone)]
pub struct LayoutModelOptions {
    pub layout: Layout,
    pub objective: Objective,
    /// Total nodes N available for allocation (Table I line 4).
    pub total_nodes: i64,
    /// Memory floors per component (lower bounds on every `n_j`).
    pub floors: NodeFloors,
    /// Allowed ocean node counts (Table I line 5); `None` = free.
    pub ocean_allowed: Option<Vec<i64>>,
    /// Allowed atmosphere node counts (Table I line 6); `None` = free.
    pub atm_allowed: Option<Vec<i64>>,
    /// Ice–land synchronization tolerance `T_sync` in seconds (Table I
    /// line 9 and lines 18–19); `None` disables the constraint (the paper
    /// notes it "may actually result in reduced performance").
    pub tsync: Option<f64>,
}

impl LayoutModelOptions {
    /// Makespan-minimizing model for a layout with no allowed-set
    /// constraints.
    pub fn free(layout: Layout, total_nodes: i64) -> Self {
        LayoutModelOptions {
            layout,
            objective: Objective::MinMax,
            total_nodes,
            floors: NodeFloors::default(),
            ocean_allowed: None,
            atm_allowed: None,
            tsync: None,
        }
    }

    /// The configured machine's problem: its memory floors (§III-C) and
    /// allowed sets (Table I lines 5–6), no `T_sync` window.
    pub fn from_config(
        config: &hslb_cesm::ResolutionConfig,
        layout: Layout,
        objective: Objective,
        total_nodes: i64,
    ) -> Self {
        LayoutModelOptions {
            layout,
            objective,
            total_nodes,
            floors: NodeFloors::from_config(config),
            ocean_allowed: config.ocean_allowed.clone(),
            atm_allowed: config.atm_allowed.clone(),
            tsync: None,
        }
    }

    /// What the instance audit expects of this problem's model.
    pub fn expectations(&self) -> hslb_audit::ModelExpectations {
        hslb_audit::ModelExpectations {
            layout: self.layout,
            shape: match self.objective {
                Objective::SumTime => hslb_audit::ObjectiveShape::SumTime,
                _ => hslb_audit::ObjectiveShape::MinMax,
            },
            total_nodes: self.total_nodes,
            tsync: self.tsync.is_some(),
            ocean_set: self.ocean_allowed.is_some(),
            atm_set: self.atm_allowed.is_some(),
        }
    }
}

/// The generated model plus the variable ids needed to read solutions.
#[derive(Debug, Clone)]
pub struct LayoutModel {
    pub model: Model,
    /// Node-count variable per component, `[lnd, ice, atm, ocn]` order.
    pub n_lnd: VarId,
    pub n_ice: VarId,
    pub n_atm: VarId,
    pub n_ocn: VarId,
    /// The makespan variable `T` (or the epigraph variable for min-sum).
    pub t_total: VarId,
    /// The auxiliary time of a side-by-side group nested in a sequence
    /// (`T_icelnd`, layout 1 only).
    pub t_icelnd: Option<VarId>,
}

impl LayoutModel {
    /// Extract the allocation from a solution vector.
    pub fn allocation(&self, x: &[f64]) -> hslb_cesm::Allocation {
        hslb_cesm::Allocation {
            lnd: x[self.n_lnd].round() as i64,
            ice: x[self.n_ice].round() as i64,
            atm: x[self.n_atm].round() as i64,
            ocn: x[self.n_ocn].round() as i64,
        }
    }
}

/// The performance-function expression `T_j(n) = a/n + b·n^c + d` over a
/// node-count variable.
fn perf_expr(curve: &ScalingCurve, n: VarId) -> Expr {
    Expr::c(curve.a) / Expr::var(n) + Expr::c(curve.b) * Expr::var(n).pow(curve.c) + curve.d
}

/// A safe upper bound on any component/makespan time: every component at
/// its slowest count, summed. A convex curve is slowest at an end of
/// `[1, N]` — one node, unless the b·n^c term has taken over by `N`.
fn time_upper_bound(fits: &FitSet, n_total: f64) -> f64 {
    Component::OPTIMIZED
        .iter()
        .map(|&c| {
            let curve = fits.optimized_curve(c);
            curve.eval(1.0).max(curve.eval(n_total))
        })
        .sum::<f64>()
        * 2.0
}

/// Restrict a node variable to its allowed set (Table I lines 29–31),
/// trimmed to the memory floor and the node budget. An empty trim is a
/// config error the solver would otherwise report as infeasible with less
/// context.
fn add_allowed_set(
    model: &mut Model,
    label: &str,
    n: VarId,
    values: &[i64],
    floor: i64,
    n_total: i64,
) -> Result<(), crate::error::HslbError> {
    let trimmed: Vec<f64> = values
        .iter()
        .filter(|&&v| v <= n_total && v >= floor)
        .map(|&v| v as f64)
        .collect();
    if trimmed.is_empty() {
        return Err(crate::error::HslbError::Config(format!(
            "no allowed {label} count fits within {n_total} nodes"
        )));
    }
    Ok(model.add_domain(label, n, trimmed)?)
}

/// Build the MINLP of Table I for the given layout/objective/options.
///
/// `Objective::MaxMin` models are *intentionally not built* here — their
/// epigraph constraints are nonconvex over a continuous variable, which
/// the branch-and-bound rejects; the pipeline evaluates max-min with the
/// enumeration optimizer instead.
pub fn build_layout_model(
    fits: &FitSet,
    opts: &LayoutModelOptions,
) -> Result<LayoutModel, crate::error::HslbError> {
    if opts.objective == Objective::MaxMin {
        return Err(crate::error::HslbError::Config(
            "max-min objective is nonconvex; use the exhaustive optimizer (see Objective docs)"
                .to_string(),
        ));
    }
    let n_total = opts.total_nodes;
    if n_total < 4 {
        return Err(crate::error::HslbError::Config(format!(
            "need at least 4 nodes, got {n_total}"
        )));
    }
    let mut m = Model::new();
    let nf = n_total as f64;

    // Node-count variables (Table I line 10), bounded below by the
    // memory floors and above by the machine.
    let fl = &opts.floors;
    let n_ice = m.integer("n_ice", fl.ice.max(1) as f64, nf)?;
    let n_lnd = m.integer("n_lnd", fl.lnd.max(1) as f64, nf)?;
    let n_atm = m.integer("n_atm", fl.atm.max(1) as f64, nf)?;
    let n_ocn = m.integer("n_ocn", fl.ocn.max(1) as f64, nf)?;
    let t_ub = time_upper_bound(fits, nf);
    let t_total = m.continuous("T", 0.0, t_ub)?;

    let t_of = |c: Component, n: VarId, fits: &FitSet| perf_expr(&fits.optimized_curve(c), n);

    if let Some(values) = &opts.ocean_allowed {
        add_allowed_set(&mut m, "ocn", n_ocn, values, fl.ocn, n_total)?;
    }
    if let Some(values) = &opts.atm_allowed {
        add_allowed_set(&mut m, "atm", n_atm, values, fl.atm, n_total)?;
    }

    // Table I's node rows, the same for every objective.
    let n_of = |c: Component| match c {
        Component::Ice => n_ice,
        Component::Lnd => n_lnd,
        Component::Atm => n_atm,
        _ => n_ocn,
    };
    let node_rows = |m: &mut Model| -> Result<(), crate::error::HslbError> {
        for row in opts.layout.node_rows() {
            let parts = row.parts.iter().map(|&c| Expr::var(n_of(c)));
            let used = parts.reduce(|a, b| a + b).unwrap_or(Expr::c(0.0));
            let (lhs, rhs) = match row.cap {
                Some(owner) => (used - Expr::var(n_of(owner)), 0.0),
                None => (used, nf),
            };
            m.constrain(&row.name, lhs, ConstraintSense::Le, rhs, Convexity::Linear)?;
        }
        Ok(())
    };

    let mut aux: Vec<(String, VarId)> = Vec::new();
    match opts.objective {
        Objective::MinMax => {
            // Temporal rows: the makespan bounds each branch the layout
            // runs side by side, with one auxiliary time per nested group
            // (Table I lines 14–17, 22–23, 27).
            let mut term = |m: &mut Model, s: &Span| -> Result<Expr, crate::error::HslbError> {
                Ok(match s {
                    Span::Time(c) => t_of(*c, n_of(*c), fits),
                    Span::Total => Expr::var(t_total),
                    Span::Aux(name) => Expr::var(match aux.iter().find(|(a, _)| a == name) {
                        Some(&(_, v)) => v,
                        None => {
                            let v = m.continuous(name, 0.0, t_ub)?;
                            aux.push((name.clone(), v));
                            v
                        }
                    }),
                })
            };
            for row in opts.layout.time_rows() {
                let bound = term(&mut m, &row.rhs)?;
                let mut time: Option<Expr> = None;
                for s in &row.lhs {
                    let t = term(&mut m, s)?;
                    time = Some(match time {
                        Some(acc) => acc + t,
                        None => t,
                    });
                }
                m.constrain(
                    &row.name,
                    time.unwrap_or(Expr::c(0.0)) - bound,
                    ConstraintSense::Le,
                    0.0,
                    Convexity::Convex,
                )?;
            }
            // Lines 18–19: |T_l(n_l) − T_i(n_i)| ≤ T_sync where ice and
            // land run side by side.
            if let Some(tsync) = opts.tsync {
                if opts
                    .layout
                    .tree()
                    .side_by_side(Component::Ice, Component::Lnd)
                {
                    let [fast, slow] = SYNC_ROWS;
                    m.constrain(
                        fast,
                        t_of(Component::Ice, n_ice, fits) - t_of(Component::Lnd, n_lnd, fits),
                        ConstraintSense::Le,
                        tsync,
                        Convexity::Nonconvex,
                    )?;
                    m.constrain(
                        slow,
                        t_of(Component::Lnd, n_lnd, fits) - t_of(Component::Ice, n_ice, fits),
                        ConstraintSense::Le,
                        tsync,
                        Convexity::Nonconvex,
                    )?;
                }
            }
            node_rows(&mut m)?;
            m.set_objective(Expr::var(t_total), ObjectiveSense::Minimize)?;
        }
        Objective::SumTime => {
            // Equation (3): minimize Σ T_j(n_j) under the layout's node
            // constraints (epigraph form).
            m.constrain(
                "sum_epigraph",
                t_of(Component::Ice, n_ice, fits)
                    + t_of(Component::Lnd, n_lnd, fits)
                    + t_of(Component::Atm, n_atm, fits)
                    + t_of(Component::Ocn, n_ocn, fits)
                    - Expr::var(t_total),
                ConstraintSense::Le,
                0.0,
                Convexity::Convex,
            )?;
            node_rows(&mut m)?;
            m.set_objective(Expr::var(t_total), ObjectiveSense::Minimize)?;
        }
        Objective::MaxMin => unreachable!("rejected above"),
    }

    Ok(LayoutModel {
        model: m,
        n_lnd,
        n_ice,
        n_atm,
        n_ocn,
        t_total,
        t_icelnd: aux.first().map(|&(_, v)| v),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::FitSet;
    use hslb_nlsq::ScalingCurve;
    use std::collections::BTreeMap;

    fn toy_fits() -> FitSet {
        // Simple decreasing curves with distinct workloads.
        let mk = |a: f64, d: f64| ScalingCurve {
            a,
            b: 0.0,
            c: 1.0,
            d,
        };
        let curves: BTreeMap<_, _> = [
            (Component::Ice, mk(8_000.0, 2.0)),
            (Component::Lnd, mk(1_500.0, 1.0)),
            (Component::Atm, mk(30_000.0, 10.0)),
            (Component::Ocn, mk(9_000.0, 5.0)),
        ]
        .into_iter()
        .collect();
        FitSet::from_curves(curves).unwrap()
    }

    #[test]
    fn hybrid_model_shape_matches_table_i() {
        let lm = build_layout_model(&toy_fits(), &LayoutModelOptions::free(Layout::Hybrid, 128))
            .unwrap();
        // 4 node vars + T + T_icelnd.
        assert_eq!(lm.model.num_vars(), 6);
        assert!(lm.t_icelnd.is_some());
        // 4 convex temporal constraints + 2 linear node constraints.
        assert_eq!(lm.model.constraints.len(), 6);
        let shown = format!("{}", lm.model);
        assert!(shown.contains("icelnd_within_atm"), "{shown}");
    }

    #[test]
    fn tsync_adds_two_nonconvex_rows() {
        let mut opts = LayoutModelOptions::free(Layout::Hybrid, 128);
        opts.tsync = Some(5.0);
        let lm = build_layout_model(&toy_fits(), &opts).unwrap();
        let nonconvex = lm
            .model
            .constraints
            .iter()
            .filter(|c| c.convexity == hslb_model::Convexity::Nonconvex)
            .count();
        assert_eq!(nonconvex, 2);
    }

    #[test]
    fn allowed_sets_become_domains() {
        let mut opts = LayoutModelOptions::free(Layout::Hybrid, 128);
        opts.ocean_allowed = Some(vec![2, 4, 8, 16, 24, 32, 480, 768]);
        let lm = build_layout_model(&toy_fits(), &opts).unwrap();
        // Values above 128 are trimmed: 6 values remain, on n_ocn, and the
        // model carries no binary for them.
        assert_eq!(lm.model.domains.len(), 1);
        assert_eq!(lm.model.domains[0].var, lm.n_ocn);
        assert_eq!(
            lm.model.domains[0].values,
            [2.0, 4.0, 8.0, 16.0, 24.0, 32.0]
        );
        assert_eq!(lm.model.num_vars(), 6);
        assert!(lm.model.sos1.is_empty());
        let binaries = |m: &Model| {
            (0..m.num_vars())
                .filter(|&v| m.var_type(v) == hslb_model::VarType::Binary)
                .count()
        };
        assert_eq!(binaries(&lm.model), 0);
        assert_eq!(binaries(&lm.model.expand_domains()), 6);
    }

    #[test]
    fn empty_trimmed_set_is_a_config_error() {
        let mut opts = LayoutModelOptions::free(Layout::Hybrid, 128);
        opts.ocean_allowed = Some(vec![480, 768]);
        assert!(matches!(
            build_layout_model(&toy_fits(), &opts),
            Err(crate::error::HslbError::Config(_))
        ));
    }

    #[test]
    fn maxmin_is_rejected_with_guidance() {
        let mut opts = LayoutModelOptions::free(Layout::Hybrid, 128);
        opts.objective = Objective::MaxMin;
        let err = build_layout_model(&toy_fits(), &opts).unwrap_err();
        assert!(format!("{err}").contains("max-min"));
    }

    #[test]
    fn models_compile_for_the_solver() {
        for layout in Layout::ALL {
            let lm =
                build_layout_model(&toy_fits(), &LayoutModelOptions::free(layout, 256)).unwrap();
            hslb_minlp::compile(&lm.model).expect("model must compile");
        }
    }
}
