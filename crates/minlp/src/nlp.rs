//! Kelley's cutting-plane method for the continuous (convex) relaxation.
//!
//! MINOTAUR delegates its NLP subproblems to filterSQP; here every NLP we
//! ever need is *convex with bounded variables*, so Kelley's method —
//! iterate: solve an LP, linearize the most violated convex constraints at
//! the LP optimum, repeat — converges to the NLP optimum using nothing but
//! the `hslb-lp` simplex. The linearizations it generates are globally
//! valid outer-approximation cuts, which the branch-and-bound reuses as
//! its initial cut pool (exactly the role of the "initial linearization
//! point" in §III-E).

use crate::ir::Ir;
use crate::options::MinlpOptions;
use hslb_lp::{ConstraintSense as LpSense, LpProblem, LpStatus, SimplexOptions};
use hslb_model::ConstraintSense;

/// A globally valid linear cut `Σ terms ≤ rhs`.
#[derive(Debug, Clone)]
pub struct Cut {
    pub terms: Vec<(usize, f64)>,
    pub rhs: f64,
    /// Index of the nonlinear constraint this cut outer-approximates.
    pub source: usize,
}

impl Cut {
    /// Are two cuts near-duplicates (same source, coefficients and rhs
    /// within a relative tolerance)? Tangent planes taken at nearby points
    /// are almost identical; keeping both only slows the LPs down.
    pub fn near_duplicate(&self, other: &Cut, tol: f64) -> bool {
        if self.source != other.source || self.terms.len() != other.terms.len() {
            return false;
        }
        let close = |a: f64, b: f64| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()));
        if !close(self.rhs, other.rhs) {
            return false;
        }
        self.terms
            .iter()
            .zip(&other.terms)
            .all(|(&(va, ca), &(vb, cb))| va == vb && close(ca, cb))
    }

    /// Bit-exact equality (source, term order, coefficient and rhs bits).
    /// Used to confirm fingerprint hits, so a hash collision can never
    /// merge two genuinely different cuts.
    pub fn exact_eq(&self, other: &Cut) -> bool {
        self.source == other.source
            && self.rhs.to_bits() == other.rhs.to_bits()
            && self.terms.len() == other.terms.len()
            && self
                .terms
                .iter()
                .zip(&other.terms)
                .all(|(&(va, ca), &(vb, cb))| va == vb && ca.to_bits() == cb.to_bits())
    }

    /// FNV-1a fingerprint over `(source, (var, coeff bits)…, rhs bits)`.
    /// Deterministic and order-dependent — exactly the identity
    /// [`CutPool`] needs for its full-history duplicate set.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&(self.source as u64).to_le_bytes());
        for &(v, c) in &self.terms {
            eat(&(v as u64).to_le_bytes());
            eat(&c.to_bits().to_le_bytes());
        }
        eat(&self.rhs.to_bits().to_le_bytes());
        h
    }
}

/// The shared outer-approximation cut pool.
///
/// Entries are **index-stable**: the `cuts` vector only grows, so a warm
/// tableau that recorded "I cover the first `k` pool entries" stays
/// meaningful for the rest of the solve.
///
/// Duplicate suppression is two-level:
///
/// * a 64-entry **near-duplicate window** over the pool tail catches
///   tangent planes taken at nearby points (cheap, fuzzy), and
/// * an **exact fingerprint map** over the *entire history* catches
///   bit-identical regenerations no matter how far apart they land —
///   previously the window alone let a cut re-enter once more than 64
///   distinct cuts had interleaved since its first appearance.
///
/// Fingerprint hits are confirmed with [`Cut::exact_eq`] before being
/// treated as duplicates, so a hash collision costs only a redundant
/// window scan, never a wrongly merged cut. A `BTreeMap` keeps lookup
/// order deterministic (no hash-seed or address-order dependence).
#[derive(Debug, Default)]
pub(crate) struct CutPool {
    cuts: Vec<Cut>,
    /// Exact fingerprint → index of the first cut bearing it.
    fps: std::collections::BTreeMap<u64, usize>,
}

impl CutPool {
    /// All entries, in insertion order.
    pub(crate) fn cuts(&self) -> &[Cut] {
        &self.cuts
    }

    /// Number of entries (the coverage horizon for warm states).
    pub(crate) fn len(&self) -> usize {
        self.cuts.len()
    }

    /// Absorb `new` cuts, dropping near-duplicates of the last 64 entries
    /// and exact duplicates of *any* entry ever absorbed. Returns the
    /// number of entries appended.
    pub(crate) fn absorb_cuts(&mut self, new: Vec<Cut>, tol: f64) -> usize {
        const WINDOW: usize = 64;
        let mut added = 0;
        for cut in new {
            let fp = cut.fingerprint();
            if let Some(&i) = self.fps.get(&fp) {
                if self.cuts[i].exact_eq(&cut) {
                    continue;
                }
            }
            let start = self.cuts.len().saturating_sub(WINDOW);
            if self.cuts[start..]
                .iter()
                .any(|c| c.near_duplicate(&cut, tol))
            {
                continue;
            }
            self.fps.entry(fp).or_insert(self.cuts.len());
            self.cuts.push(cut);
            added += 1;
        }
        added
    }
}

/// Status of a relaxation solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NlpStatus {
    /// Converged: LP optimum satisfies all convex constraints within tol.
    Optimal,
    /// The linear relaxation (hence the NLP, hence the MINLP) is
    /// infeasible.
    Infeasible,
    /// The relaxation is unbounded (models should bound their variables).
    Unbounded,
    /// Iteration cap hit before the violation dropped under tolerance.
    IterationLimit,
}

/// Result of [`solve_relaxation`].
#[derive(Debug, Clone)]
pub struct NlpResult {
    pub status: NlpStatus,
    pub x: Vec<f64>,
    /// Internal (minimization) objective value.
    pub objective: f64,
    /// Cuts generated during this solve (globally valid).
    pub new_cuts: Vec<Cut>,
    /// LP solves performed.
    pub lp_solves: usize,
    /// Simplex iterations across those solves.
    pub simplex_iters: usize,
    /// LP solves answered by the warm dual-simplex path (subset of
    /// `lp_solves`).
    pub warm_resolves: usize,
    /// Warm attempts abandoned for a cold rebuild (the ladder's cold
    /// rung).
    pub warm_fallbacks: usize,
    /// The live tableau of the final optimal LP (covers the pool passed
    /// in plus every row of `new_cuts`, in order). `Some` only when the
    /// solve ended `Optimal` with `opts.warm_start` on; the B&B driver
    /// hands it to the root node so the first tree solve is warm too.
    pub warm: Option<hslb_lp::WarmLp>,
}

/// Iteration budget for a warm dual resolve. Most repairs take a handful
/// of pivots, but a branch that cuts off the parent vertex can send the
/// dual simplex on a walk longer than a cold two-phase solve (on the
/// expanded-binaries models of the §III-E ablation about one node in six
/// ends that way). Past ~2 pivots per row the warm path has lost its
/// advantage, so bail out and let the ladder do a bounded cold rebuild
/// instead.
fn warm_budget(rows: usize, opts: &SimplexOptions) -> SimplexOptions {
    SimplexOptions {
        max_iters: opts.max_iters.min(2 * rows + 32),
        ..opts.clone()
    }
}

/// The warm→cold LP ladder (DESIGN.md §14): the one place a
/// [`hslb_lp::WarmLp`] is edited and re-solved. It owns the live tableau,
/// how far into the caller's two cut lists its rows reach, and the two
/// warm counters.
#[derive(Debug, Default)]
pub(crate) struct LpLadder {
    lp: Option<hslb_lp::WarmLp>,
    /// Prefix of the `pool` / `new_cuts` slices present as tableau rows.
    pool_covered: usize,
    new_covered: usize,
    /// LP solves answered warm / warm attempts that fell back cold.
    pub warm_resolves: usize,
    pub warm_fallbacks: usize,
}

impl LpLadder {
    /// Start from a solved tableau (an ancestor node's) whose rows cover
    /// the first `pool_covered` pool entries.
    pub(crate) fn adopt(lp: hslb_lp::WarmLp, pool_covered: usize) -> Self {
        LpLadder {
            lp: Some(lp),
            pool_covered,
            ..Default::default()
        }
    }

    /// Solve the LP relaxation of `ir` under `[lb, ub]` with the rows of
    /// `pool` then `new_cuts` (both may have grown since the last call;
    /// neither may shrink). Warm rung: bring the live tableau up to date —
    /// bounds that differ, rows it lacks — and repair it with the checked
    /// dual simplex under [`warm_budget`]. Any failure there drops the
    /// tableau, counts a fallback, and the cold rung rebuilds the problem
    /// and solves it two-phase, keeping the new tableau when `warm_start`
    /// is on. With `warm_start` off only the cold rung exists.
    pub(crate) fn solve(
        &mut self,
        ir: &Ir,
        lb: &[f64],
        ub: &[f64],
        pool: &[Cut],
        new_cuts: &[Cut],
        warm_start: bool,
    ) -> Result<hslb_lp::LpSolution, hslb_lp::LpError> {
        let sx = SimplexOptions::default();
        if let Some(mut w) = self.lp.take() {
            for j in 0..ir.num_vars() {
                let (wl, wu) = w.var_bounds(j);
                if wl.to_bits() != lb[j].to_bits() || wu.to_bits() != ub[j].to_bits() {
                    w.set_var_bounds(j, lb[j], ub[j]);
                }
            }
            let pending: Vec<(&[(usize, f64)], f64)> = pool[self.pool_covered..]
                .iter()
                .chain(&new_cuts[self.new_covered..])
                .map(|c| (c.terms.as_slice(), c.rhs))
                .collect();
            let warm = w
                .append_le_rows(&pending)
                .and_then(|()| w.resolve(&warm_budget(w.num_rows(), &sx)));
            if let Ok(sol) = warm {
                self.lp = Some(w);
                (self.pool_covered, self.new_covered) = (pool.len(), new_cuts.len());
                self.warm_resolves += 1;
                return Ok(sol);
            }
            self.warm_fallbacks += 1;
        }
        let mut lp = build_lp(ir, lb, ub, pool);
        for c in new_cuts {
            lp.add_row(&c.terms, LpSense::Le, c.rhs);
        }
        if !warm_start {
            return hslb_lp::solve(&lp, &sx);
        }
        let (sol, kept) = hslb_lp::solve_keep(&lp, &sx)?;
        self.lp = kept;
        (self.pool_covered, self.new_covered) = (pool.len(), new_cuts.len());
        Ok(sol)
    }

    /// Give up the live tableau (for a node's children, or the root).
    pub(crate) fn into_lp(self) -> Option<hslb_lp::WarmLp> {
        self.lp
    }
}

/// Build the base LP for the IR under the given bounds, with pool cuts.
///
/// Nonconvex constraints are *omitted* (they are enforced by the caller's
/// feasibility checks), so the LP is a relaxation whose bound and
/// infeasibility verdicts remain valid.
pub fn build_lp(ir: &Ir, lb: &[f64], ub: &[f64], cuts: &[Cut]) -> LpProblem {
    let mut lp = LpProblem::new();
    for v in 0..ir.num_vars() {
        lp.add_var(&ir.var_names[v], lb[v], ub[v]);
    }
    for row in &ir.linear {
        let sense = match row.sense {
            ConstraintSense::Le => LpSense::Le,
            ConstraintSense::Ge => LpSense::Ge,
            ConstraintSense::Eq => LpSense::Eq,
        };
        lp.add_row(&row.terms, sense, row.rhs);
    }
    for cut in cuts {
        lp.add_row(&cut.terms, LpSense::Le, cut.rhs);
    }
    lp.set_objective(&ir.obj_terms);
    lp
}

/// Linearize convex constraint `k` of the IR at `x`:
/// `g(x̂) + ∇g(x̂)·(x − x̂) ≤ 0`  ⇒  `∇g·x ≤ ∇g·x̂ − g(x̂)`.
pub fn linearize(ir: &Ir, k: usize, x: &[f64]) -> Cut {
    let con = &ir.nonlinear[k];
    debug_assert!(con.convex, "cuts only from convex constraints");
    let (g, grad) = con.g.eval_grad(x);
    let mut rhs = -g;
    let mut terms = Vec::with_capacity(con.vars.len());
    for &v in &con.vars {
        let gv = grad[v];
        if gv != 0.0 {
            terms.push((v, gv));
            rhs += gv * x[v];
        }
    }
    Cut {
        terms,
        rhs,
        source: k,
    }
}

/// Solve the convex continuous relaxation of `ir` restricted to bounds
/// `[lb, ub]`, starting from the cut pool `pool`. Newly generated cuts are
/// returned (and are valid for every other node).
///
/// With `opts.warm_start` (the default) one tableau is kept live across
/// Kelley rounds by the [`LpLadder`]: each round appends its new cut rows
/// and re-attains feasibility with the checked dual simplex instead of
/// solving the whole LP from scratch (DESIGN.md §14); whatever the warm
/// rung cannot verify is solved cold, so warm-start changes the work
/// counters, never the answer.
pub fn solve_relaxation(
    ir: &Ir,
    lb: &[f64],
    ub: &[f64],
    pool: &[Cut],
    opts: &MinlpOptions,
) -> NlpResult {
    let mut ladder = LpLadder::default();
    let mut res = NlpResult {
        status: NlpStatus::IterationLimit,
        x: vec![],
        objective: f64::NEG_INFINITY,
        new_cuts: Vec::new(),
        lp_solves: 0,
        simplex_iters: 0,
        warm_resolves: 0,
        warm_fallbacks: 0,
        warm: None,
    };

    for _ in 0..opts.max_kelley_iters {
        let solved = ladder.solve(ir, lb, ub, pool, &res.new_cuts, opts.warm_start);
        (res.warm_resolves, res.warm_fallbacks) = (ladder.warm_resolves, ladder.warm_fallbacks);
        let Ok(sol) = solved else {
            res.objective = f64::INFINITY;
            return res;
        };
        res.lp_solves += 1;
        res.simplex_iters += sol.iterations;
        match sol.status {
            LpStatus::Infeasible => {
                res.status = NlpStatus::Infeasible;
                res.objective = f64::INFINITY;
                res.x = sol.x;
                return res;
            }
            LpStatus::Unbounded => {
                res.status = NlpStatus::Unbounded;
                res.x = sol.x;
                return res;
            }
            LpStatus::Optimal => {}
        }

        // Add cuts for every convex constraint violated at the LP optimum.
        let mut violated = false;
        for k in 0..ir.nonlinear.len() {
            if !ir.nonlinear[k].convex {
                continue;
            }
            let g = ir.nonlinear[k].g.eval(&sol.x);
            if g > opts.feas_tol {
                res.new_cuts.push(linearize(ir, k, &sol.x));
                violated = true;
            }
        }
        if !violated {
            res.status = NlpStatus::Optimal;
            res.objective =
                ir.obj_constant + ir.obj_terms.iter().map(|&(v, c)| c * sol.x[v]).sum::<f64>();
            res.x = sol.x;
            res.warm = ladder.into_lp();
            return res;
        }
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::compile;
    use hslb_model::{Convexity, Expr, Model, ObjectiveSense};

    fn epigraph_model() -> Ir {
        // minimize T s.t. T ≥ 64/n + n  (continuous n ∈ [1, 64]),
        // optimum of the relaxation at n = 8, T = 16.
        let mut m = Model::new();
        let n = m.continuous("n", 1.0, 64.0).unwrap();
        let t = m.continuous("T", 0.0, 1e6).unwrap();
        let g = 64.0 / Expr::var(n) + Expr::var(n) - Expr::var(t);
        m.constrain(
            "perf",
            g,
            hslb_model::ConstraintSense::Le,
            0.0,
            Convexity::Convex,
        )
        .unwrap();
        m.set_objective(Expr::var(t), ObjectiveSense::Minimize)
            .unwrap();
        compile(&m).unwrap()
    }

    #[test]
    fn kelley_converges_to_convex_optimum() {
        let ir = epigraph_model();
        let res = solve_relaxation(&ir, &ir.lb, &ir.ub, &[], &MinlpOptions::default());
        assert_eq!(res.status, NlpStatus::Optimal);
        assert!(
            (res.objective - 16.0).abs() < 1e-3,
            "obj = {}",
            res.objective
        );
        assert!((res.x[0] - 8.0).abs() < 0.1, "n = {}", res.x[0]);
        assert!(!res.new_cuts.is_empty());
    }

    #[test]
    fn cuts_are_globally_valid() {
        // Every generated cut must hold at arbitrary feasible points of the
        // original convex constraint.
        let ir = epigraph_model();
        let res = solve_relaxation(&ir, &ir.lb, &ir.ub, &[], &MinlpOptions::default());
        for n in [1.0_f64, 3.0, 10.0, 30.0, 64.0] {
            let t = 64.0 / n + n + 0.5; // strictly feasible point
            let x = [n, t];
            for cut in &res.new_cuts {
                let lhs: f64 = cut.terms.iter().map(|&(v, c)| c * x[v]).sum();
                assert!(
                    lhs <= cut.rhs + 1e-9,
                    "cut violated at feasible point n={n}: {lhs} > {}",
                    cut.rhs
                );
            }
        }
    }

    #[test]
    fn tightened_bounds_shift_optimum() {
        let ir = epigraph_model();
        let mut lb = ir.lb.clone();
        let ub = ir.ub.clone();
        lb[0] = 20.0; // force n ≥ 20 ⇒ T* = 64/20 + 20 = 23.2
        let res = solve_relaxation(&ir, &lb, &ub, &[], &MinlpOptions::default());
        assert_eq!(res.status, NlpStatus::Optimal);
        assert!(
            (res.objective - 23.2).abs() < 1e-3,
            "obj = {}",
            res.objective
        );
    }

    #[test]
    fn infeasible_bounds_detected() {
        let ir = epigraph_model();
        let mut ub = ir.ub.clone();
        ub[1] = 5.0; // T ≤ 5 but min T = 16
        let res = solve_relaxation(&ir, &ir.lb, &ub, &[], &MinlpOptions::default());
        assert_eq!(res.status, NlpStatus::Infeasible);
    }

    #[test]
    fn pool_cuts_accelerate_resolve() {
        let ir = epigraph_model();
        let first = solve_relaxation(&ir, &ir.lb, &ir.ub, &[], &MinlpOptions::default());
        let second = solve_relaxation(
            &ir,
            &ir.lb,
            &ir.ub,
            &first.new_cuts,
            &MinlpOptions::default(),
        );
        assert_eq!(second.status, NlpStatus::Optimal);
        assert!(second.lp_solves <= first.lp_solves);
        assert!((second.objective - first.objective).abs() < 1e-6);
    }
}

#[cfg(test)]
mod cut_pool_tests {
    use super::*;

    fn cut(source: usize, coeffs: &[(usize, f64)], rhs: f64) -> Cut {
        Cut {
            terms: coeffs.to_vec(),
            rhs,
            source,
        }
    }

    #[test]
    fn near_duplicates_are_detected() {
        let a = cut(0, &[(0, 1.0), (1, -2.0)], 3.0);
        let b = cut(0, &[(0, 1.0 + 1e-12), (1, -2.0)], 3.0);
        assert!(a.near_duplicate(&b, 1e-9));
        // Different source, coefficient or rhs → not duplicates.
        assert!(!a.near_duplicate(&cut(1, &[(0, 1.0), (1, -2.0)], 3.0), 1e-9));
        assert!(!a.near_duplicate(&cut(0, &[(0, 1.5), (1, -2.0)], 3.0), 1e-9));
        assert!(!a.near_duplicate(&cut(0, &[(0, 1.0), (1, -2.0)], 4.0), 1e-9));
        assert!(!a.near_duplicate(&cut(0, &[(0, 1.0)], 3.0), 1e-9));
    }

    #[test]
    fn absorb_skips_duplicates_and_counts_additions() {
        let mut pool = CutPool::default();
        pool.absorb_cuts(vec![cut(0, &[(0, 1.0)], 1.0)], 0.0);
        let added = pool.absorb_cuts(
            vec![
                cut(0, &[(0, 1.0)], 1.0), // duplicate
                cut(0, &[(0, 2.0)], 1.0), // new
                cut(1, &[(0, 1.0)], 1.0), // new (other source)
            ],
            1e-9,
        );
        assert_eq!(added, 2);
        assert_eq!(pool.len(), 3);
    }

    /// Regression for the windowed dedup bug: the 64-entry near-duplicate
    /// window alone let an exact duplicate re-enter the pool once more
    /// than 64 distinct cuts had interleaved since its first appearance.
    /// The fingerprint set must catch it at any distance.
    #[test]
    fn exact_duplicate_is_dropped_across_the_window_horizon() {
        let marked = cut(7, &[(0, 0.25), (1, -1.5)], 4.0);
        let mut pool = CutPool::default();
        assert_eq!(pool.absorb_cuts(vec![marked.clone()], 1e-9), 1);
        // Bury the marked cut under well over a window's worth of
        // mutually distinct cuts.
        for i in 0..100usize {
            let c = cut(0, &[(0, 1.0 + i as f64), (1, 2.0 + i as f64)], i as f64);
            assert_eq!(pool.absorb_cuts(vec![c], 1e-9), 1);
        }
        assert_eq!(pool.len(), 101);
        // The bit-identical resubmission must be dropped even though the
        // original is 100 entries deep.
        assert_eq!(pool.absorb_cuts(vec![marked.clone()], 1e-9), 0);
        assert_eq!(pool.len(), 101);
    }

    #[test]
    fn fingerprints_distinguish_near_misses() {
        let a = cut(0, &[(0, 1.0), (1, 2.0)], 3.0);
        let b = cut(0, &[(0, 1.0), (1, 2.0)], 3.0 + 1e-15);
        let c = cut(1, &[(0, 1.0), (1, 2.0)], 3.0);
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert!(a.exact_eq(&a.clone()));
        assert!(!a.exact_eq(&b));
    }
}
