//! Property-based warm/cold equivalence: a warm dual-simplex resolve after
//! cut-row appends or bound tightenings must agree with a cold two-phase
//! solve of the freshly rebuilt problem — same status, objectives equal
//! within the exact-tie tolerance, and the warm point feasible for the
//! rebuilt problem. (Vertices may differ when the optimal face is not a
//! point, so x is compared through feasibility + objective, not bitwise.)

use hslb_lp::{solve, solve_keep, ConstraintSense, LpProblem, LpStatus, SimplexOptions};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

const TIE_TOL: f64 = 1e-7;

/// Random feasible box LP (origin feasible): bounds [0, ub], `≤` rows with
/// nonnegative coefficients and positive rhs.
fn random_feasible_lp(seed: u64, nvars: usize, nrows: usize) -> LpProblem {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut p = LpProblem::new();
    for j in 0..nvars {
        let ub = rng.gen_range(0.5..10.0);
        p.add_var(&format!("x{j}"), 0.0, ub);
    }
    for _ in 0..nrows {
        let terms: Vec<(usize, f64)> = (0..nvars).map(|j| (j, rng.gen_range(0.0..2.0))).collect();
        let rhs = rng.gen_range(0.5..8.0);
        p.add_row(&terms, ConstraintSense::Le, rhs);
    }
    let obj: Vec<(usize, f64)> = (0..nvars).map(|j| (j, rng.gen_range(-3.0..3.0))).collect();
    p.set_objective(&obj);
    p
}

/// Assert warm and cold answers agree (status; objective within the tie
/// tolerance; warm point feasible for the cold problem when optimal).
fn assert_agree(
    p: &LpProblem,
    warm: &hslb_lp::LpSolution,
    cold: &hslb_lp::LpSolution,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(warm.status, cold.status, "status diverged");
    if cold.status == LpStatus::Optimal {
        prop_assert!(
            (warm.objective - cold.objective).abs() <= TIE_TOL * (1.0 + cold.objective.abs()),
            "objectives diverged: warm {} cold {}",
            warm.objective,
            cold.objective
        );
        prop_assert!(
            p.max_violation(&warm.x) < 1e-6,
            "warm point infeasible for the rebuilt problem"
        );
        prop_assert!(
            (p.objective_value(&warm.x) - warm.objective).abs() <= 1e-6,
            "warm objective inconsistent with its own point"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kelley pattern: append random `≤` cut rows one at a time; every
    /// warm resolve must match the cold solve of the same row set. Cuts
    /// may have negative coefficients, so infeasibility must agree too.
    #[test]
    fn warm_cut_appends_match_cold(
        seed in 0u64..5_000,
        nvars in 2usize..7,
        nrows in 1usize..4,
        ncuts in 1usize..5,
    ) {
        let mut p = random_feasible_lp(seed, nvars, nrows);
        let opts = SimplexOptions::default();
        let (first, warm) = solve_keep(&p, &opts).unwrap();
        prop_assert_eq!(first.status, LpStatus::Optimal);
        let Some(mut warm) = warm else {
            // Redundant rows can park an artificial in the basis; the
            // warm handle is legitimately unavailable then.
            return Ok(());
        };

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x00c0_ffee);
        for _ in 0..ncuts {
            let terms: Vec<(usize, f64)> =
                (0..nvars).map(|j| (j, rng.gen_range(-1.5..2.0))).collect();
            let rhs = rng.gen_range(-1.0..6.0);
            warm.append_le_row(&terms, rhs).unwrap();
            p.add_row(&terms, ConstraintSense::Le, rhs);

            let warm_sol = warm.resolve(&opts).unwrap();
            let cold_sol = solve(&p, &opts).unwrap();
            assert_agree(&p, &warm_sol, &cold_sol)?;
            if cold_sol.status != LpStatus::Optimal {
                break; // once infeasible, stays infeasible
            }
        }
    }

    /// B&B pattern: tighten one variable's bounds at a time (raise lb or
    /// lower ub); every warm resolve must match the cold rebuild.
    #[test]
    fn warm_bound_tightenings_match_cold(
        seed in 0u64..5_000,
        nvars in 2usize..7,
        nrows in 1usize..4,
        nsteps in 1usize..6,
    ) {
        let mut p = random_feasible_lp(seed, nvars, nrows);
        let opts = SimplexOptions::default();
        let (_, warm) = solve_keep(&p, &opts).unwrap();
        let Some(mut warm) = warm else { return Ok(()) };

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xb0a2_51de);
        for _ in 0..nsteps {
            let j = rng.gen_range(0..nvars);
            let (lo, hi) = p.bounds(j);
            let cut = rng.gen_range(0.0..1.0);
            let (nlo, nhi) = if rng.gen_bool(0.5) {
                (lo + cut * (hi - lo), hi) // raise lb (floor of a branch)
            } else {
                (lo, hi - cut * (hi - lo)) // lower ub (ceil of a branch)
            };
            p.set_bounds(j, nlo, nhi);
            warm.set_var_bounds(j, nlo, nhi);

            let warm_sol = warm.resolve(&opts).unwrap();
            let cold_sol = solve(&p, &opts).unwrap();
            assert_agree(&p, &warm_sol, &cold_sol)?;
        }
    }

    /// Mixed sequence (cuts and tightenings interleaved).
    #[test]
    fn warm_mixed_edits_match_cold(
        seed in 0u64..5_000,
        nvars in 2usize..6,
        nsteps in 2usize..6,
    ) {
        let mut p = random_feasible_lp(seed, nvars, 2);
        let opts = SimplexOptions::default();
        let (_, warm) = solve_keep(&p, &opts).unwrap();
        let Some(mut warm) = warm else { return Ok(()) };

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed_cafe);
        for _ in 0..nsteps {
            if rng.gen_bool(0.5) {
                let terms: Vec<(usize, f64)> =
                    (0..nvars).map(|j| (j, rng.gen_range(0.0..2.0))).collect();
                let rhs = rng.gen_range(0.5..6.0);
                warm.append_le_row(&terms, rhs).unwrap();
                p.add_row(&terms, ConstraintSense::Le, rhs);
            } else {
                let j = rng.gen_range(0..nvars);
                let (lo, hi) = p.bounds(j);
                let nhi = lo + rng.gen_range(0.3..1.0) * (hi - lo);
                p.set_bounds(j, lo, nhi);
                warm.set_var_bounds(j, lo, nhi);
            }
            let warm_sol = warm.resolve(&opts).unwrap();
            let cold_sol = solve(&p, &opts).unwrap();
            assert_agree(&p, &warm_sol, &cold_sol)?;
        }
    }
}

/// `T(n) = a/n + b·n^c + d` and its slope: the curve family whose tangent
/// planes are the cuts of the layout models.
#[derive(Clone, Copy)]
struct Curve([f64; 4]);

impl Curve {
    fn eval(&self, n: f64) -> (f64, f64) {
        let [a, b, c, d] = self.0;
        (
            a / n + b * n.powf(c) + d,
            -a / (n * n) + b * c * n.powf(c - 1.0),
        )
    }
}

/// The LP relaxation of the hybrid layout model (Table I lines 14–21 and
/// 29–31) before any cut: four node counts, `T_icelnd` and the makespan
/// `T`, and two allowed sets as relaxed binaries — 240 ocean values and
/// 1,600 atmosphere values, each with a convexity row and a linking row
/// whose coefficients are the allowed counts themselves.
const N_ICE: usize = 0;
const N_LND: usize = 1;
const N_ATM: usize = 2;
const N_OCN: usize = 3;
const T_ICELND: usize = 4;
const T: usize = 5;
const SETS: [(usize, usize, usize); 2] = [(N_OCN, 6, 240), (N_ATM, 246, 1_600)];

fn layout_shaped_lp(budget: f64) -> LpProblem {
    let mut p = LpProblem::new();
    for name in ["n_ice", "n_lnd", "n_atm", "n_ocn"] {
        p.add_var(name, 1.0, budget);
    }
    p.add_var("T_icelnd", 0.0, 1e6);
    p.add_var("T", 0.0, 1e6);
    for (n, z0, k) in SETS {
        for i in 0..k {
            p.add_var(&format!("z{n}_{i}"), 0.0, 1.0);
        }
        let pick_one: Vec<(usize, f64)> = (0..k).map(|i| (z0 + i, 1.0)).collect();
        p.add_row(&pick_one, ConstraintSense::Eq, 1.0);
        let mut link: Vec<(usize, f64)> = (0..k).map(|i| (z0 + i, 2.0 * (i + 1) as f64)).collect();
        link.push((n, -1.0));
        p.add_row(&link, ConstraintSense::Eq, 0.0);
    }
    p.add_row(&[(N_ATM, 1.0), (N_OCN, 1.0)], ConstraintSense::Le, budget);
    p.add_row(
        &[(N_ICE, 1.0), (N_LND, 1.0), (N_ATM, -1.0)],
        ConstraintSense::Le,
        0.0,
    );
    p.set_objective(&[(T, 1.0)]);
    p
}

/// The four convex constraints `T_j(n_j) [+ T_icelnd] ≤ target`, as
/// (curve, node variable, extra term on the left, target variable).
fn constraints(curves: &[Curve; 4]) -> [(Curve, usize, Option<usize>, usize); 4] {
    [
        (curves[0], N_ICE, None, T_ICELND),
        (curves[1], N_LND, None, T_ICELND),
        (curves[2], N_ATM, Some(T_ICELND), T),
        (curves[3], N_OCN, None, T),
    ]
}

/// Outer-approximation cuts for every constraint violated at `x`: the
/// tangent `slope·n [+ T_icelnd] − target ≤ slope·n̂ − T_j(n̂)`.
fn violated_cuts(curves: &[Curve; 4], x: &[f64]) -> Vec<(Vec<(usize, f64)>, f64)> {
    let mut cuts = Vec::new();
    for (curve, n, extra, target) in constraints(curves) {
        let (t, slope) = curve.eval(x[n]);
        let lhs = t + extra.map_or(0.0, |e| x[e]);
        if lhs - x[target] > 1e-6 {
            let mut terms = vec![(n, slope), (target, -1.0)];
            terms.extend(extra.map(|e| (e, 1.0)));
            cuts.push((terms, slope * x[n] - t));
        }
    }
    cuts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The contract of a checked re-solve, along the edit sequences the
    /// MINLP driver produces on LPs with the conditioning that broke the
    /// unchecked one (cut slopes from 1e-5 to 1e4 next to 1,600-term
    /// convexity rows): Kelley rounds that cut off the current optimum,
    /// then an SOS or integer branch once the relaxation has converged,
    /// down one random dive of the tree. After every edit `resolve`
    /// returns a point that satisfies the rows with the cold rebuild's
    /// objective, a verdict the cold rebuild shares, or an error — never
    /// a wrong answer.
    #[test]
    fn checked_resolve_never_lies_on_layout_shaped_lps(
        seed in 0u64..100_000,
        budget in prop::sample::select(vec![1024.0, 2048.0, 4096.0]),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let curves = [(); 4].map(|_| Curve([
            rng.gen_range(1e3..6e4),
            rng.gen_range(1e-6..1e-2),
            rng.gen_range(1.0..1.6),
            rng.gen_range(0.5..20.0),
        ]));
        let mut p = layout_shaped_lp(budget);
        let opts = SimplexOptions::default();
        let (first, mut warm) = solve_keep(&p, &opts).unwrap();
        prop_assert_eq!(first.status, LpStatus::Optimal);
        let mut x = first.x;
        // The SOS window still open over each set's binaries.
        let mut windows = SETS.map(|(_, _, k)| (0usize, k - 1));

        for _ in 0..80 {
            let Some(w) = warm.as_mut() else { break };
            let cuts = violated_cuts(&curves, &x);
            if !cuts.is_empty() {
                // A Kelley round: cut off the current optimum.
                let rows: Vec<(&[(usize, f64)], f64)> =
                    cuts.iter().map(|(t, r)| (t.as_slice(), *r)).collect();
                w.append_le_rows(&rows).unwrap();
                for (terms, rhs) in &cuts {
                    p.add_row(terms, ConstraintSense::Le, *rhs);
                }
            } else if let Some(s) = (0..2).find(|&s| {
                let (_, z0, _) = SETS[s];
                (windows[s].0..=windows[s].1).filter(|&i| x[z0 + i] > 1e-6).count() >= 2
            }) {
                // An SOS branch: split the window at the weighted
                // centroid, keep one side, fix the other to zero.
                let (n, z0, _) = SETS[s];
                let (w0, w1) = windows[s];
                let split = (((x[n] / 2.0).floor() as usize).max(w0 + 1) - 1).min(w1 - 1);
                let (drop, keep) = if rng.gen_bool(0.5) {
                    (split + 1..=w1, (w0, split))
                } else {
                    (w0..=split, (split + 1, w1))
                };
                for i in drop {
                    w.set_var_bounds(z0 + i, 0.0, 0.0);
                    p.set_bounds(z0 + i, 0.0, 0.0);
                }
                windows[s] = keep;
            } else if let Some(v) = [N_ICE, N_LND].into_iter().find(|&v| (x[v] - x[v].round()).abs() > 1e-6) {
                // An integer branch on a fractional node count.
                let (lo, hi) = p.bounds(v);
                let (nlo, nhi) = if rng.gen_bool(0.5) { (lo, x[v].floor()) } else { (x[v].ceil(), hi) };
                w.set_var_bounds(v, nlo, nhi);
                p.set_bounds(v, nlo, nhi);
            } else {
                break; // an integral, feasible leaf
            }

            let cold = solve(&p, &opts).unwrap();
            match w.resolve(&opts) {
                // The ladder's answer to an error: rebuild cold.
                Err(_) => warm = solve_keep(&p, &opts).unwrap().1,
                Ok(sol) => {
                    prop_assert_eq!(sol.status, cold.status, "verdict diverged");
                    if sol.status == LpStatus::Optimal {
                        prop_assert!(
                            (sol.objective - cold.objective).abs()
                                <= 1e-7 * cold.objective.abs().max(1.0),
                            "objective {} vs cold {}", sol.objective, cold.objective
                        );
                        let scale = sol.x.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
                        prop_assert!(
                            p.max_violation(&sol.x) <= 1e-6 * scale,
                            "warm point violates the rows by {}", p.max_violation(&sol.x)
                        );
                    }
                }
            }
            if cold.status != LpStatus::Optimal {
                break;
            }
            x = cold.x;
        }
    }
}
