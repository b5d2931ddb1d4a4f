//! Property tests: the branch-and-bound must match brute-force enumeration
//! on randomly generated convex MINLPs of the paper's structural family.

use hslb_minlp::{compile, solve, Branching, MinlpOptions, MinlpStatus};
use hslb_model::{ConstraintSense, Convexity, Expr, Model, ObjectiveSense};
use proptest::prelude::*;

/// Random "two components share a budget" min-max instance:
/// min T s.t. T ≥ a_j/n_j + d_j (j = 1, 2), n1 + n2 ≤ N.
fn build(a1: f64, d1: f64, a2: f64, d2: f64, n: i64) -> Model {
    let mut m = Model::new();
    let n1 = m.integer("n1", 1.0, (n - 1) as f64).unwrap();
    let n2 = m.integer("n2", 1.0, (n - 1) as f64).unwrap();
    let t = m.continuous("T", 0.0, 1e9).unwrap();
    m.constrain(
        "t1",
        a1 / Expr::var(n1) + d1 - Expr::var(t),
        ConstraintSense::Le,
        0.0,
        Convexity::Convex,
    )
    .unwrap();
    m.constrain(
        "t2",
        a2 / Expr::var(n2) + d2 - Expr::var(t),
        ConstraintSense::Le,
        0.0,
        Convexity::Convex,
    )
    .unwrap();
    m.constrain(
        "budget",
        Expr::var(n1) + Expr::var(n2),
        ConstraintSense::Le,
        n as f64,
        Convexity::Linear,
    )
    .unwrap();
    m.set_objective(Expr::var(t), ObjectiveSense::Minimize)
        .unwrap();
    m
}

fn brute(a1: f64, d1: f64, a2: f64, d2: f64, n: i64) -> f64 {
    (1..n)
        .map(|k| (a1 / k as f64 + d1).max(a2 / (n - k) as f64 + d2))
        .fold(f64::INFINITY, f64::min)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn bb_matches_bruteforce(a1 in 10.0f64..500.0, d1 in 0.0f64..10.0,
                             a2 in 10.0f64..500.0, d2 in 0.0f64..10.0,
                             n in 4i64..40) {
        let m = build(a1, d1, a2, d2, n);
        let ir = compile(&m).unwrap();
        let sol = solve(&ir, &MinlpOptions::default());
        prop_assert_eq!(sol.status, MinlpStatus::Optimal);
        let want = brute(a1, d1, a2, d2, n);
        prop_assert!(
            (sol.objective - want).abs() <= 1e-5 * want.max(1.0),
            "got {} want {want}", sol.objective
        );
        // The reported allocation must actually achieve the objective.
        let n1 = sol.int_value(0);
        let n2 = sol.int_value(1);
        prop_assert!(n1 + n2 <= n);
        let achieved = (a1 / n1 as f64 + d1).max(a2 / n2 as f64 + d2);
        prop_assert!((achieved - sol.objective).abs() <= 1e-5 * achieved.max(1.0));
    }

    #[test]
    fn sos_allocation_matches_best_allowed(seed in 0u64..500, budget_frac in 0.2f64..1.0) {
        // Allowed values 4, 8, 12, …, 128; pick the largest ≤ budget for a
        // monotone decreasing curve.
        let allowed: Vec<f64> = (1..=32).map(|k| (4 * k) as f64).collect();
        let budget = (128.0 * budget_frac).max(4.0);
        let a = 100.0 + (seed % 900) as f64;

        let mut m = Model::new();
        let n = m.integer("n", 4.0, 128.0).unwrap();
        let t = m.continuous("T", 0.0, 1e9).unwrap();
        m.add_domain("s", n, allowed.clone()).unwrap();
        m.constrain("budget", Expr::var(n), ConstraintSense::Le, budget, Convexity::Linear).unwrap();
        m.constrain(
            "perf",
            a / Expr::var(n) - Expr::var(t),
            ConstraintSense::Le,
            0.0,
            Convexity::Convex,
        ).unwrap();
        m.set_objective(Expr::var(t), ObjectiveSense::Minimize).unwrap();

        let ir = compile(&m).unwrap();
        let sol = solve(&ir, &MinlpOptions::default());
        prop_assert_eq!(sol.status, MinlpStatus::Optimal);
        let best_allowed = allowed.iter().copied().filter(|&v| v <= budget + 1e-9)
            .fold(0.0_f64, f64::max);
        prop_assert_eq!(sol.int_value(n) as f64, best_allowed);
        // Table I's literal binaries, branched one by one, agree.
        let literal = solve(
            &compile(&m.expand_domains()).unwrap(),
            &MinlpOptions { branching: Branching::IntegerOnly, ..Default::default() },
        );
        prop_assert_eq!(literal.status, MinlpStatus::Optimal);
        prop_assert_eq!(literal.int_value(n) as f64, best_allowed);
    }
}
