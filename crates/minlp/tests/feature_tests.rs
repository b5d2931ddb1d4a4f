//! Tests for the solver features beyond the core algorithm: presolve,
//! gap reporting.

use hslb_minlp::{compile, propagate, solve, MinlpOptions, MinlpStatus, PresolveResult};
use hslb_model::{ConstraintSense, Convexity, Expr, Model, ObjectiveSense};

fn chained_model(n: f64, k: usize) -> Model {
    // k components sharing a budget via T ≥ a_j/n_j, Σ n_j ≤ n.
    let mut m = Model::new();
    let t = m.continuous("T", 0.0, 1e9).unwrap();
    let mut vars = Vec::new();
    for j in 0..k {
        let v = m.integer(&format!("n{j}"), 1.0, n).unwrap();
        vars.push(v);
        let a = 40.0 * (j + 1) as f64;
        m.constrain(
            &format!("t{j}"),
            a / Expr::var(v) - Expr::var(t),
            ConstraintSense::Le,
            0.0,
            Convexity::Convex,
        )
        .unwrap();
    }
    let budget = vars.iter().fold(Expr::c(0.0), |acc, &v| acc + Expr::var(v));
    m.constrain("budget", budget, ConstraintSense::Le, n, Convexity::Linear)
        .unwrap();
    m.set_objective(Expr::var(t), ObjectiveSense::Minimize)
        .unwrap();
    m
}

#[test]
fn presolve_tightens_budget_shares() {
    let ir = compile(&chained_model(30.0, 3)).unwrap();
    let PresolveResult::Tightened { ub, changes, .. } = propagate(&ir, 20) else {
        panic!("feasible model");
    };
    assert!(changes > 0);
    // Each n_j ≤ N − (k−1) once the others' lower bounds are counted.
    for (v, &ubv) in ub.iter().enumerate().take(4).skip(1) {
        assert!(ubv <= 28.0, "ub[{v}] = {ubv}");
    }
}

#[test]
fn presolve_on_and_off_agree() {
    let ir = compile(&chained_model(24.0, 3)).unwrap();
    let with = solve(&ir, &MinlpOptions::default());
    let without = solve(
        &ir,
        &MinlpOptions {
            presolve: false,
            ..Default::default()
        },
    );
    assert_eq!(with.status, MinlpStatus::Optimal);
    assert_eq!(without.status, MinlpStatus::Optimal);
    assert!((with.objective - without.objective).abs() < 1e-8);
    assert!(with.stats.presolve_changes > 0);
    assert_eq!(without.stats.presolve_changes, 0);
}

#[test]
fn gap_is_zero_when_proven_optimal() {
    let ir = compile(&chained_model(20.0, 2)).unwrap();
    let sol = solve(&ir, &MinlpOptions::default());
    assert_eq!(sol.status, MinlpStatus::Optimal);
    assert_eq!(sol.gap(), Some(0.0));
}

#[test]
fn gap_is_none_without_incumbent() {
    // Infeasible model.
    let mut m = Model::new();
    let x = m.integer("x", 0.0, 5.0).unwrap();
    m.constrain(
        "lo",
        Expr::var(x),
        ConstraintSense::Ge,
        10.0,
        Convexity::Linear,
    )
    .unwrap();
    m.set_objective(Expr::var(x), ObjectiveSense::Minimize)
        .unwrap();
    let ir = compile(&m).unwrap();
    let sol = solve(&ir, &MinlpOptions::default());
    assert_eq!(sol.status, MinlpStatus::Infeasible);
    assert_eq!(sol.gap(), None);
}

#[test]
fn presolve_proves_infeasibility_before_search() {
    let mut m = Model::new();
    let a = m.integer("a", 10.0, 20.0).unwrap();
    let b = m.integer("b", 15.0, 20.0).unwrap();
    m.constrain(
        "sum",
        Expr::var(a) + Expr::var(b),
        ConstraintSense::Le,
        20.0,
        Convexity::Linear,
    )
    .unwrap();
    m.set_objective(Expr::var(a), ObjectiveSense::Minimize)
        .unwrap();
    let ir = compile(&m).unwrap();
    let sol = solve(&ir, &MinlpOptions::default());
    assert_eq!(sol.status, MinlpStatus::Infeasible);
    // Presolve caught it: no tree nodes, no LP solves.
    assert_eq!(sol.stats.nodes, 0);
    assert_eq!(sol.stats.lp_solves, 0);
}

#[test]
fn zero_deadline_stops_before_any_node() {
    let ir = compile(&chained_model(30.0, 3)).unwrap();
    let sol = solve(
        &ir,
        &MinlpOptions {
            time_limit: Some(std::time::Duration::ZERO),
            ..Default::default()
        },
    );
    assert_eq!(sol.status, MinlpStatus::TimeLimitNoIncumbent);
    assert!(!sol.has_solution());
    assert_eq!(sol.stats.nodes, 0);
}

#[test]
fn generous_deadline_does_not_change_the_optimum() {
    let ir = compile(&chained_model(24.0, 3)).unwrap();
    let unlimited = solve(&ir, &MinlpOptions::default());
    let with_deadline = solve(
        &ir,
        &MinlpOptions {
            time_limit: Some(std::time::Duration::from_secs(120)),
            ..Default::default()
        },
    );
    assert_eq!(unlimited.status, MinlpStatus::Optimal);
    assert_eq!(with_deadline.status, MinlpStatus::Optimal);
    assert_eq!(with_deadline.objective, unlimited.objective);
}
