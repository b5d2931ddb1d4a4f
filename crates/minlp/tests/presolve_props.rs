//! Property test: presolve never changes the optimum — it only removes
//! provably-infeasible parts of the box.

use hslb_minlp::{compile, solve, MinlpOptions, MinlpStatus};
use hslb_model::{ConstraintSense, Convexity, Expr, Model, ObjectiveSense};
use proptest::prelude::*;

/// Random feasible model: k integer vars with random bounds, a few random
/// ≤ rows with non-negative coefficients (origin-corner always feasible),
/// convex epigraph objective.
fn build(seed: u64, k: usize, rows: usize) -> Model {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut m = Model::new();
    let t = m.continuous("T", 0.0, 1e9).unwrap();
    let mut vars = Vec::new();
    for j in 0..k {
        let ub = 5 + (next() % 40) as i64;
        let v = m.integer(&format!("n{j}"), 1.0, ub as f64).unwrap();
        vars.push((v, ub));
        let a = 10.0 + (next() % 300) as f64;
        m.constrain(
            &format!("t{j}"),
            a / Expr::var(v) - Expr::var(t),
            ConstraintSense::Le,
            0.0,
            Convexity::Convex,
        )
        .unwrap();
    }
    for r in 0..rows {
        // Random subset-sum row, rhs chosen ≥ the all-ones activity so the
        // model stays feasible.
        let mut terms = Expr::c(0.0);
        let mut min_activity = 0.0;
        for &(v, _) in &vars {
            let coeff = (next() % 3) as f64; // 0, 1 or 2
            if coeff > 0.0 {
                terms = terms + coeff * Expr::var(v);
                min_activity += coeff; // lower bound is 1 per var
            }
        }
        let slack = (next() % 30) as f64;
        m.constrain(
            &format!("row{r}"),
            terms,
            ConstraintSense::Le,
            min_activity + slack,
            Convexity::Linear,
        )
        .unwrap();
    }
    m.set_objective(Expr::var(t), ObjectiveSense::Minimize)
        .unwrap();
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn presolve_preserves_the_optimum(seed in 0u64..5_000, k in 2usize..5, rows in 0usize..4) {
        let m = build(seed, k, rows);
        let ir = compile(&m).unwrap();
        let with = solve(&ir, &MinlpOptions::default());
        let without = solve(&ir, &MinlpOptions { presolve: false, ..Default::default() });
        prop_assert_eq!(with.status, without.status);
        if with.status == MinlpStatus::Optimal {
            prop_assert!(
                (with.objective - without.objective).abs()
                    <= 1e-6 * (1.0 + with.objective.abs()),
                "presolve changed optimum: {} vs {}", with.objective, without.objective
            );
        }
    }
}
