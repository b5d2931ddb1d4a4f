//! Ground truth for both simplex paths: brute-force vertex enumeration.
//!
//! A bounded LP that is feasible attains its optimum at a vertex, and a
//! vertex is a point where n linearly independent constraints (rows or
//! bounds) are active. So on LPs of 2–4 boxed variables and 1–4 rows
//! mixing ≤, ≥ and =, solving every n×n choice of active constraints and
//! keeping the feasible solutions finds the optimum exactly — or proves
//! that there is no feasible point. Both the cold two-phase `solve` and a
//! `WarmLp` that reaches the same LP by appended rows and bound edits must
//! agree with it: same status, and the objective to 1e-9·max(1, |z|).

use hslb_lp::{solve, solve_keep, ConstraintSense, LpProblem, LpStatus, SimplexOptions};
use hslb_numerics::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 400;

/// One generated LP: box bounds, dense rows, and a cost vector.
struct Lp {
    lo: Vec<f64>,
    hi: Vec<f64>,
    rows: Vec<(Vec<f64>, ConstraintSense, f64)>,
    cost: Vec<f64>,
}

/// Seeded LP. Each row's rhs is set off a random point of the box, so
/// some instances are feasible and some are not; an `=` row passes
/// through that point two times in three.
fn generate(seed: u64) -> Lp {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..5usize);
    let lo: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
    let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.5..10.0)).collect();
    let x0: Vec<f64> = lo
        .iter()
        .zip(&hi)
        .map(|(l, h)| rng.gen_range(*l..*h))
        .collect();
    let rows = (0..rng.gen_range(1..5usize))
        .map(|_| {
            let a: Vec<f64> = (0..n)
                .map(|_| match rng.gen_bool(0.25) {
                    true => 0.0,
                    false => rng.gen_range(-3.0..3.0),
                })
                .collect();
            let at: f64 = a.iter().zip(&x0).map(|(a, x)| a * x).sum();
            let (sense, rhs) = match rng.gen_range(0..3u32) {
                0 => (ConstraintSense::Le, at + rng.gen_range(-3.0..4.0)),
                1 => (ConstraintSense::Ge, at - rng.gen_range(-3.0..4.0)),
                _ if rng.gen_bool(2.0 / 3.0) => (ConstraintSense::Eq, at),
                _ => (ConstraintSense::Eq, at + rng.gen_range(-3.0..3.0)),
            };
            (a, sense, rhs)
        })
        .collect();
    let cost = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
    Lp { lo, hi, rows, cost }
}

/// The LP with its first `rows` rows and the box `[lo, hi]`.
fn build(lp: &Lp, rows: usize, lo: &[f64], hi: &[f64]) -> LpProblem {
    let mut p = LpProblem::new();
    for (j, (l, h)) in lo.iter().zip(hi).enumerate() {
        p.add_var(&format!("x{j}"), *l, *h);
    }
    for (a, sense, rhs) in &lp.rows[..rows] {
        let terms: Vec<(usize, f64)> = a.iter().copied().enumerate().collect();
        p.add_row(&terms, *sense, *rhs);
    }
    let cost: Vec<(usize, f64)> = lp.cost.iter().copied().enumerate().collect();
    p.set_objective(&cost);
    p
}

/// The least objective of `p` over every feasible vertex, or `None` when
/// no vertex is feasible (the box is bounded, so then nothing is).
fn vertex_optimum(lp: &Lp, p: &LpProblem) -> Option<f64> {
    let n = lp.cost.len();
    let mut planes: Vec<(Vec<f64>, f64)> =
        lp.rows.iter().map(|(a, _, b)| (a.clone(), *b)).collect();
    for j in 0..n {
        let unit: Vec<f64> = (0..n).map(|k| f64::from(u8::from(k == j))).collect();
        planes.push((unit.clone(), lp.lo[j]));
        planes.push((unit, lp.hi[j]));
    }
    (0u32..1 << planes.len())
        .filter(|mask| mask.count_ones() as usize == n)
        .filter_map(|mask| {
            let (a, b): (Vec<&[f64]>, Vec<f64>) = (0..planes.len())
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| (planes[i].0.as_slice(), planes[i].1))
                .unzip();
            let x = hslb_numerics::lu::solve(&Matrix::from_rows(&a), &b).ok()?;
            (p.max_violation(&x) <= 1e-9).then(|| p.objective_value(&x))
        })
        .min_by(f64::total_cmp)
}

/// Status and objective must match the oracle's.
fn assert_matches(seed: u64, path: &str, status: LpStatus, objective: f64, truth: Option<f64>) {
    match truth {
        None => assert_eq!(status, LpStatus::Infeasible, "seed {seed}: {path}"),
        Some(z) => {
            assert_eq!(status, LpStatus::Optimal, "seed {seed}: {path}");
            assert!(
                (objective - z).abs() <= 1e-9 * z.abs().max(1.0),
                "seed {seed}: {path} objective {objective} vs vertex optimum {z}"
            );
        }
    }
}

#[test]
fn both_simplex_paths_agree_with_vertex_enumeration() {
    let opts = SimplexOptions::default();
    let (mut infeasible, mut warm_checked) = (0, 0);
    for seed in 0..CASES {
        let lp = generate(seed);
        let p = build(&lp, lp.rows.len(), &lp.lo, &lp.hi);
        let truth = vertex_optimum(&lp, &p);
        infeasible += usize::from(truth.is_none());

        let cold = solve(&p, &opts).expect("cold solve");
        assert_matches(seed, "cold solve", cold.status, cold.objective, truth);

        // The warm path starts from the first rows inside a wider box,
        // then appends the rest as `≤` rows (a `≥` row negated, an `=`
        // row as two) and tightens the box, in a seeded order.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e57_0a11);
        let kept = rng.gen_range(0..lp.rows.len());
        let wide_lo: Vec<f64> = lp.lo.iter().map(|l| l - rng.gen_range(0.0..3.0)).collect();
        let wide_hi: Vec<f64> = lp.hi.iter().map(|h| h + rng.gen_range(0.0..3.0)).collect();
        let (first, warm) =
            solve_keep(&build(&lp, kept, &wide_lo, &wide_hi), &opts).expect("base solve");
        let Some(mut warm) = warm else {
            assert_ne!(first.status, LpStatus::Optimal, "seed {seed}");
            continue;
        };
        let mut appended: Vec<(Vec<(usize, f64)>, f64)> = Vec::new();
        for (a, sense, rhs) in &lp.rows[kept..] {
            let terms = |sign: f64| a.iter().map(|c| sign * c).enumerate().collect();
            if *sense != ConstraintSense::Ge {
                appended.push((terms(1.0), *rhs));
            }
            if *sense != ConstraintSense::Le {
                appended.push((terms(-1.0), -rhs));
            }
        }
        let rows: Vec<(&[(usize, f64)], f64)> =
            appended.iter().map(|(t, r)| (t.as_slice(), *r)).collect();
        let bounds_first = rng.gen_bool(0.5);
        if !bounds_first {
            warm.append_le_rows(&rows).expect("append rows");
        }
        for j in 0..lp.lo.len() {
            warm.set_var_bounds(j, lp.lo[j], lp.hi[j]);
        }
        if bounds_first {
            warm.append_le_rows(&rows).expect("append rows");
        }
        let resolved = warm.resolve(&opts).expect("warm resolve");
        assert_matches(seed, "warm", resolved.status, resolved.objective, truth);
        warm_checked += 1;
    }
    // The generator must reach both verdicts, and the warm path mostly.
    let feasible = CASES as usize - infeasible;
    println!("{feasible} feasible, {infeasible} infeasible, {warm_checked} warm resolves");
    assert!(feasible >= 100 && infeasible >= 40 && warm_checked >= 200);
}
