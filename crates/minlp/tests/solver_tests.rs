//! Functional tests for the MINLP branch-and-bound.

use hslb_minlp::{compile, solve, Algorithm, Branching, MinlpOptions, MinlpStatus, NodeSelection};
use hslb_model::{ConstraintSense, Convexity, Expr, Model, ObjectiveSense};

/// min T s.t. T ≥ a/n + d with n integer in [1, hi]. Optimal n = hi.
fn simple_curve_model(a: f64, d: f64, hi: f64) -> Model {
    let mut m = Model::new();
    let n = m.integer("n", 1.0, hi).unwrap();
    let t = m.continuous("T", 0.0, 1e9).unwrap();
    let g = a / Expr::var(n) + d - Expr::var(t);
    m.constrain("perf", g, ConstraintSense::Le, 0.0, Convexity::Convex)
        .unwrap();
    m.set_objective(Expr::var(t), ObjectiveSense::Minimize)
        .unwrap();
    m
}

#[test]
fn pure_ilp_knapsack() {
    // max 10a + 6b + 4c s.t. a + b + c ≤ 2, binaries → a & b, value 16.
    let mut m = Model::new();
    let a = m.binary("a").unwrap();
    let b = m.binary("b").unwrap();
    let c = m.binary("c").unwrap();
    m.constrain(
        "cap",
        Expr::var(a) + Expr::var(b) + Expr::var(c),
        ConstraintSense::Le,
        2.0,
        Convexity::Linear,
    )
    .unwrap();
    m.set_objective(
        10.0 * Expr::var(a) + 6.0 * Expr::var(b) + 4.0 * Expr::var(c),
        ObjectiveSense::Maximize,
    )
    .unwrap();
    let ir = compile(&m).unwrap();
    let sol = solve(&ir, &MinlpOptions::default());
    assert_eq!(sol.status, MinlpStatus::Optimal);
    assert!((sol.objective - 16.0).abs() < 1e-6);
    assert_eq!(sol.int_value(a), 1);
    assert_eq!(sol.int_value(b), 1);
    assert_eq!(sol.int_value(c), 0);
}

#[test]
fn convex_minlp_single_component() {
    let m = simple_curve_model(100.0, 2.0, 64.0);
    let ir = compile(&m).unwrap();
    let sol = solve(&ir, &MinlpOptions::default());
    assert_eq!(sol.status, MinlpStatus::Optimal);
    // Monotone decreasing curve: n* = 64, T* = 100/64 + 2.
    assert_eq!(sol.int_value(0), 64);
    assert!((sol.objective - (100.0 / 64.0 + 2.0)).abs() < 1e-5);
}

/// Two components sharing N nodes: min max(T1, T2) where
/// T1 = a1/n1, T2 = a2/n2, n1 + n2 ≤ N. Brute-forceable.
fn two_component_model(a1: f64, a2: f64, n_total: f64) -> Model {
    let mut m = Model::new();
    let n1 = m.integer("n1", 1.0, n_total - 1.0).unwrap();
    let n2 = m.integer("n2", 1.0, n_total - 1.0).unwrap();
    let t = m.continuous("T", 0.0, 1e9).unwrap();
    m.constrain(
        "t1",
        a1 / Expr::var(n1) - Expr::var(t),
        ConstraintSense::Le,
        0.0,
        Convexity::Convex,
    )
    .unwrap();
    m.constrain(
        "t2",
        a2 / Expr::var(n2) - Expr::var(t),
        ConstraintSense::Le,
        0.0,
        Convexity::Convex,
    )
    .unwrap();
    m.constrain(
        "budget",
        Expr::var(n1) + Expr::var(n2),
        ConstraintSense::Le,
        n_total,
        Convexity::Linear,
    )
    .unwrap();
    m.set_objective(Expr::var(t), ObjectiveSense::Minimize)
        .unwrap();
    m
}

fn brute_force_two(a1: f64, a2: f64, n_total: i64) -> f64 {
    let mut best = f64::INFINITY;
    for n1 in 1..n_total {
        let n2 = n_total - n1;
        best = best.min((a1 / n1 as f64).max(a2 / n2 as f64));
    }
    best
}

#[test]
fn min_max_split_matches_brute_force() {
    for (a1, a2, n) in [(100.0, 100.0, 16), (300.0, 100.0, 20), (17.0, 5.0, 7)] {
        let m = two_component_model(a1, a2, n as f64);
        let ir = compile(&m).unwrap();
        let sol = solve(&ir, &MinlpOptions::default());
        assert_eq!(sol.status, MinlpStatus::Optimal);
        let want = brute_force_two(a1, a2, n);
        assert!(
            (sol.objective - want).abs() < 1e-5 * want,
            "a1={a1} a2={a2} n={n}: got {} want {want}",
            sol.objective
        );
    }
}

/// Set-selected allocation: n must equal one of the allowed values
/// (Table I, lines 29–31, as a domain on n).
fn sos_model(allowed: &[f64], a: f64, budget: f64) -> (Model, usize) {
    let mut m = Model::new();
    let n = m
        .integer("n", allowed[0], *allowed.last().unwrap())
        .unwrap();
    let t = m.continuous("T", 0.0, 1e9).unwrap();
    m.add_domain("alloc", n, allowed.to_vec()).unwrap();
    m.constrain(
        "budget",
        Expr::var(n),
        ConstraintSense::Le,
        budget,
        Convexity::Linear,
    )
    .unwrap();
    m.constrain(
        "perf",
        a / Expr::var(n) - Expr::var(t),
        ConstraintSense::Le,
        0.0,
        Convexity::Convex,
    )
    .unwrap();
    m.set_objective(Expr::var(t), ObjectiveSense::Minimize)
        .unwrap();
    (m, n)
}

#[test]
fn sos_set_restricts_to_allowed_values() {
    // Allowed ocean-style counts; budget 500 ⇒ best allowed value ≤ 500 is 480.
    let allowed: Vec<f64> = (1..=240).map(|k| (2 * k) as f64).chain([768.0]).collect();
    let (m, nvar) = sos_model(&allowed, 1000.0, 500.0);
    let ir = compile(&m).unwrap();
    let sol = solve(&ir, &MinlpOptions::default());
    assert_eq!(sol.status, MinlpStatus::Optimal);
    assert_eq!(sol.int_value(nvar), 480);
}

#[test]
fn sos_branching_beats_integer_branching() {
    let allowed: Vec<f64> = (1..=200).map(|k| (2 * k) as f64).collect();
    let (m, nvar) = sos_model(&allowed, 5000.0, 399.0);
    // Branch on the set…
    let sos = solve(
        &compile(&m).unwrap(),
        &MinlpOptions {
            branching: Branching::SosFirst,
            ..Default::default()
        },
    );
    // …against Table I's literal binaries, branched one by one.
    let plain = solve(
        &compile(&m.expand_domains()).unwrap(),
        &MinlpOptions {
            branching: Branching::IntegerOnly,
            ..Default::default()
        },
    );
    assert_eq!(sos.status, MinlpStatus::Optimal);
    assert_eq!(plain.status, MinlpStatus::Optimal);
    assert!((sos.objective - plain.objective).abs() < 1e-6);
    assert_eq!(sos.int_value(nvar), 398);
    assert_eq!(plain.int_value(nvar), 398);
    // The paper's §III-E claim, qualitatively: branching on the set
    // explores far fewer nodes than branching on individual binaries.
    assert!(
        sos.stats.nodes <= plain.stats.nodes,
        "sos {} nodes vs plain {}",
        sos.stats.nodes,
        plain.stats.nodes
    );
    assert_eq!(plain.stats.sos_branches, 0);
    assert_eq!(sos.stats.int_branches, 0);
}

#[test]
fn infeasible_model_detected() {
    let mut m = Model::new();
    let x = m.integer("x", 0.0, 10.0).unwrap();
    m.constrain(
        "lo",
        Expr::var(x),
        ConstraintSense::Ge,
        7.0,
        Convexity::Linear,
    )
    .unwrap();
    m.constrain(
        "hi",
        Expr::var(x),
        ConstraintSense::Le,
        3.0,
        Convexity::Linear,
    )
    .unwrap();
    m.set_objective(Expr::var(x), ObjectiveSense::Minimize)
        .unwrap();
    let ir = compile(&m).unwrap();
    let sol = solve(&ir, &MinlpOptions::default());
    assert_eq!(sol.status, MinlpStatus::Infeasible);
}

#[test]
fn integrality_gap_forces_branching() {
    // min -x - y s.t. 2x + 2y ≤ 3, integers: LP gives 1.5, ILP gives 1.
    let mut m = Model::new();
    let x = m.integer("x", 0.0, 5.0).unwrap();
    let y = m.integer("y", 0.0, 5.0).unwrap();
    m.constrain(
        "c",
        2.0 * Expr::var(x) + 2.0 * Expr::var(y),
        ConstraintSense::Le,
        3.0,
        Convexity::Linear,
    )
    .unwrap();
    m.set_objective(Expr::var(x) + Expr::var(y), ObjectiveSense::Maximize)
        .unwrap();
    let ir = compile(&m).unwrap();
    let sol = solve(&ir, &MinlpOptions::default());
    assert_eq!(sol.status, MinlpStatus::Optimal);
    assert!((sol.objective - 1.0).abs() < 1e-6);
    assert!(sol.stats.nodes >= 1);
}

#[test]
fn nonconvex_integer_constraint_enforced() {
    // min n1 over n1, n2 with a "sync window" |100/n1 − 100/n2| ≤ 5
    // (difference of convex over integers, like T_sync) and n1 + n2 = 30.
    let mut m = Model::new();
    let n1 = m.integer("n1", 1.0, 29.0).unwrap();
    let n2 = m.integer("n2", 1.0, 29.0).unwrap();
    m.constrain(
        "sum",
        Expr::var(n1) + Expr::var(n2),
        ConstraintSense::Eq,
        30.0,
        Convexity::Linear,
    )
    .unwrap();
    m.constrain(
        "sync_up",
        100.0 / Expr::var(n1) - 100.0 / Expr::var(n2),
        ConstraintSense::Le,
        5.0,
        Convexity::Nonconvex,
    )
    .unwrap();
    m.constrain(
        "sync_dn",
        100.0 / Expr::var(n2) - 100.0 / Expr::var(n1),
        ConstraintSense::Le,
        5.0,
        Convexity::Nonconvex,
    )
    .unwrap();
    m.set_objective(Expr::var(n1), ObjectiveSense::Minimize)
        .unwrap();
    let ir = compile(&m).unwrap();
    let sol = solve(&ir, &MinlpOptions::default());
    assert_eq!(sol.status, MinlpStatus::Optimal);
    // Brute force the answer.
    let mut best = i64::MAX;
    for a in 1..=29i64 {
        let b = 30 - a;
        if b < 1 {
            continue;
        }
        let d = (100.0 / a as f64 - 100.0 / b as f64).abs();
        if d <= 5.0 + 1e-9 {
            best = best.min(a);
        }
    }
    assert_eq!(sol.int_value(n1), best);
}

#[test]
fn nlpbb_and_lpnlpbb_agree() {
    let m = two_component_model(250.0, 90.0, 24.0);
    let ir = compile(&m).unwrap();
    let a = solve(
        &ir,
        &MinlpOptions {
            algorithm: Algorithm::LpNlpBb,
            ..Default::default()
        },
    );
    let b = solve(
        &ir,
        &MinlpOptions {
            algorithm: Algorithm::NlpBb,
            ..Default::default()
        },
    );
    assert_eq!(a.status, MinlpStatus::Optimal);
    assert_eq!(b.status, MinlpStatus::Optimal);
    assert!((a.objective - b.objective).abs() < 1e-5);
}

#[test]
fn depth_first_and_best_bound_agree() {
    let m = two_component_model(400.0, 160.0, 30.0);
    let ir = compile(&m).unwrap();
    let a = solve(
        &ir,
        &MinlpOptions {
            node_selection: NodeSelection::BestBound,
            ..Default::default()
        },
    );
    let b = solve(
        &ir,
        &MinlpOptions {
            node_selection: NodeSelection::DepthFirst,
            ..Default::default()
        },
    );
    assert!((a.objective - b.objective).abs() < 1e-5);
}

#[test]
fn node_limit_reports_honestly() {
    let m = two_component_model(300.0, 120.0, 64.0);
    let ir = compile(&m).unwrap();
    let sol = solve(
        &ir,
        &MinlpOptions {
            node_limit: 1,
            ..Default::default()
        },
    );
    assert!(matches!(
        sol.status,
        MinlpStatus::NodeLimitWithIncumbent | MinlpStatus::NodeLimitNoIncumbent
    ));
}
