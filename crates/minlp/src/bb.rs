//! The branch-and-bound tree search.

use crate::ir::Ir;
use crate::nlp::{self, Cut, LpLadder, NlpStatus};
use crate::options::{Algorithm, Branching, MinlpOptions, NodeSelection};
use crate::solution::{MinlpSolution, MinlpStatus, SolveStats};
use hslb_lp::LpStatus;
use hslb_numerics::float;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// A solved tableau handed from a parent node to its children, plus how
/// far into the (index-stable) cut pool its rows reach. Children clone
/// the tableau, tighten the branched bounds, append any pool cuts past
/// `covered`, and repair feasibility with the dual simplex instead of
/// solving cold from scratch (DESIGN.md §14). Shared behind an `Rc` —
/// both children of a branching read the same parent state.
#[derive(Debug)]
struct WarmState {
    lp: hslb_lp::WarmLp,
    /// Pool entries (by index) present as tableau rows.
    covered: usize,
}

/// A live tree node. Bounds are stored as deltas against the root —
/// integer branchings add one `(var, lo, hi)` override each, and domain
/// branchings narrow a per-domain value index window, so a node costs a
/// few dozen bytes regardless of how many values the domains hold.
#[derive(Debug, Clone)]
struct Node {
    /// Accumulated variable bound overrides (intersected with root bounds).
    overrides: Vec<(usize, f64, f64)>,
    /// Inclusive value-index window per domain; the variable's box is
    /// pulled in to the window's end values when the node's LP is built.
    dom_window: Vec<(usize, usize)>,
    /// Lower bound inherited from the parent's relaxation.
    bound: f64,
    /// Nearest ancestor's solved tableau (None at the root or with
    /// warm-start off). An ancestor handle further up than the parent is
    /// still valid — bounds only tighten down the tree — just staler.
    warm: Option<Rc<WarmState>>,
}

/// Heap entry ordered so that `BinaryHeap::pop` yields the best bound.
struct Entry {
    key: Reverse<OrdF64>,
    seq: Reverse<u64>,
    node: Node,
}

/// Total-ordered f64 wrapper for the node heap.
#[derive(PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        float::cmp_f64(self.0, other.0)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key).then(self.seq.cmp(&other.seq))
    }
}

/// What processing a node produced.
enum NodeOutcome {
    /// Fathomed: relaxation infeasible, bound-dominated, or an enforced
    /// nonconvex constraint ruled the (fully fixed) node out.
    Pruned { infeasible: bool },
    /// Fathomed with a feasible integer point.
    Incumbent { x: Vec<f64>, obj: f64 },
    /// Split into children (each with an inherited bound).
    Branched { children: Vec<Node>, sos: bool },
}

/// Node-processing report: outcome + cuts generated + work counters.
struct Processed {
    outcome: NodeOutcome,
    new_cuts: Vec<Cut>,
    lp_solves: usize,
    simplex_iters: usize,
    /// LP solves answered warm / warm attempts that fell back cold.
    warm_resolves: usize,
    warm_fallbacks: usize,
    /// The node's final solved tableau when it branched — the driver
    /// wraps it in a [`WarmState`] (stamping pool coverage after the
    /// absorb) and attaches it to the children.
    warm: Option<hslb_lp::WarmLp>,
}

/// Publish the final work counters to the telemetry sink, so the sink's
/// totals equal the returned [`SolveStats`].
fn emit_stats_counters(tel: &hslb_telemetry::Telemetry, stats: &SolveStats) {
    if !tel.is_enabled() {
        return;
    }
    tel.counter_add("minlp.nodes", stats.nodes as u64);
    tel.counter_add("minlp.lp_solves", stats.lp_solves as u64);
    tel.counter_add("minlp.simplex_iters", stats.simplex_iters as u64);
    tel.counter_add("minlp.cuts", stats.cuts as u64);
    tel.counter_add("minlp.incumbents", stats.incumbents as u64);
    tel.counter_add(
        "minlp.pruned",
        (stats.pruned_by_bound + stats.pruned_infeasible) as u64,
    );
    tel.counter_add("minlp.warm_resolves", stats.warm_resolves as u64);
    tel.counter_add("minlp.warm_fallbacks", stats.warm_fallbacks as u64);
}

/// `(lb, ub, domain windows)` of a node.
type NodeBox = (Vec<f64>, Vec<f64>, Vec<(usize, usize)>);

/// A node's effective box and domain windows. Each window keeps the
/// values inside the box (presolve or an integer branch may have left the
/// box between two of them) and the box is pulled in to the window's end
/// values. `None` when an intersection is empty — no value left, or
/// crossed overrides — so the node is trivially infeasible.
fn node_bounds(ir: &Ir, node: &Node) -> Option<NodeBox> {
    let mut lb = ir.lb.clone();
    let mut ub = ir.ub.clone();
    for &(v, lo, hi) in &node.overrides {
        lb[v] = lb[v].max(lo);
        ub[v] = ub[v].min(hi);
        if lb[v] > ub[v] {
            return None;
        }
    }
    let mut windows = node.dom_window.clone();
    for (d, win) in ir.domains.iter().zip(&mut windows) {
        let v = d.var;
        let lo = win
            .0
            .max(d.values.partition_point(|&val| val < lb[v] - 1e-9));
        let end = (win.1 + 1).min(d.values.partition_point(|&val| val <= ub[v] + 1e-9));
        if lo >= end {
            return None;
        }
        *win = (lo, end - 1);
        (lb[v], ub[v]) = (d.values[lo], d.values[end - 1]);
    }
    Some((lb, ub, windows))
}

/// The most fractional integer variable, if any.
fn fractional_int(ir: &Ir, x: &[f64], tol: f64) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (v, &xv) in x.iter().enumerate().take(ir.num_vars()) {
        if !ir.is_int[v] {
            continue;
        }
        let f = float::fractionality(xv);
        if f > tol && best.is_none_or(|(_, bf)| f > bf) {
            best = Some((v, f));
        }
    }
    best.map(|(v, _)| v)
}

/// First domain whose variable sits at none of the values in its window,
/// with the index to split at: the largest value ≤ `x[var]`, clamped so
/// both children are strict subsets. This is the SOS-1 branching rule of
/// §III-E projected onto the variable the set selects — the weighted
/// centroid of the binaries *is* `x[var]`.
fn violated_domain(
    ir: &Ir,
    windows: &[(usize, usize)],
    x: &[f64],
    tol: f64,
) -> Option<(usize, usize)> {
    for (d, (dom, &(w0, w1))) in ir.domains.iter().zip(windows).enumerate() {
        let xv = x[dom.var];
        // Values of the window at or below x (within tolerance).
        let below = dom.values[w0..=w1].partition_point(|&val| val <= xv + tol);
        let at_value = below > 0 && dom.values[w0 + below - 1] >= xv - tol;
        if !at_value && w0 < w1 {
            return Some((d, (w0 + below).saturating_sub(1).clamp(w0, w1 - 1)));
        }
    }
    None
}

/// Split domain `d` of `node` into the windows `[w0, split]` and
/// `[split + 1, w1]`.
fn branch_domain(
    node: &Node,
    d: usize,
    (w0, w1): (usize, usize),
    split: usize,
    bound: f64,
) -> Vec<Node> {
    [(w0, split), (split + 1, w1)]
        .into_iter()
        .map(|win| {
            let mut child = node.clone();
            child.dom_window[d] = win;
            child.bound = bound;
            child
        })
        .collect()
}

/// Split on integer variable `v` around its relaxation value.
fn branch_int(node: &Node, v: usize, xv: f64, lb_v: f64, ub_v: f64, bound: f64) -> Vec<Node> {
    // For fractional xv: [lb, floor] / [ceil, ub]. For integral xv (the
    // nonconvex-enforcement path), split so both children are proper.
    let (left_hi, right_lo) = if float::fractionality(xv) > 1e-9 {
        (xv.floor(), xv.ceil())
    } else if xv >= ub_v - 0.5 {
        (xv - 1.0, xv)
    } else {
        (xv, xv + 1.0)
    };
    let mut out = Vec::with_capacity(2);
    if left_hi >= lb_v - 1e-9 {
        let mut child = node.clone();
        child.overrides.push((v, f64::NEG_INFINITY, left_hi));
        child.bound = bound;
        out.push(child);
    }
    if right_lo <= ub_v + 1e-9 {
        let mut child = node.clone();
        child.overrides.push((v, right_lo, f64::INFINITY));
        child.bound = bound;
        out.push(child);
    }
    out
}

/// Process one node against the cut pool (indices are stable across the
/// solve, see [`nlp::CutPool`]).
///
/// `cutoff` is the objective value a node must strictly beat (incumbent
/// minus gap); nodes at or above it are pruned. Newly generated OA cuts
/// are returned for the driver to publish.
fn process_node(
    ir: &Ir,
    opts: &MinlpOptions,
    node: &Node,
    pool_cuts: &[Cut],
    cutoff: f64,
) -> Processed {
    let mut report = Processed {
        outcome: NodeOutcome::Pruned { infeasible: true },
        new_cuts: Vec::new(),
        lp_solves: 0,
        simplex_iters: 0,
        warm_resolves: 0,
        warm_fallbacks: 0,
        warm: None,
    };
    let Some((lb, ub, windows)) = node_bounds(ir, node) else {
        return report;
    };

    // Start the ladder from a clone of the ancestor tableau
    // (Quesada–Grossmann only; the NlpBb mode warm-starts inside each
    // `solve_relaxation` call instead): its first solve tightens the
    // branched bounds and appends the pool cuts the tableau predates.
    let mut ladder = match &node.warm {
        Some(ws) if opts.warm_start && opts.algorithm == Algorithm::LpNlpBb => {
            LpLadder::adopt(ws.lp.clone(), ws.covered)
        }
        _ => LpLadder::default(),
    };

    for _round in 0..opts.max_cut_rounds {
        // --- relaxation solve ---
        let (x, bound) = if opts.algorithm == Algorithm::NlpBb {
            // Solve the node NLP to convergence (Kelley).
            let mut merged: Vec<Cut> = pool_cuts.to_vec();
            merged.extend(report.new_cuts.iter().cloned());
            let res = nlp::solve_relaxation(ir, &lb, &ub, &merged, opts);
            report.lp_solves += res.lp_solves;
            report.simplex_iters += res.simplex_iters;
            report.warm_resolves += res.warm_resolves;
            report.warm_fallbacks += res.warm_fallbacks;
            report.new_cuts.extend(res.new_cuts);
            match res.status {
                NlpStatus::Infeasible => {
                    report.outcome = NodeOutcome::Pruned { infeasible: true };
                    return report;
                }
                NlpStatus::Unbounded => {
                    panic!("MINLP relaxation unbounded: give every variable finite-ish bounds")
                }
                NlpStatus::Optimal | NlpStatus::IterationLimit => {}
            }
            if res.x.is_empty() {
                report.outcome = NodeOutcome::Pruned { infeasible: true };
                return report;
            }
            (res.x, res.objective)
        } else {
            // Single LP over current linearization (Quesada–Grossmann).
            let solved = ladder.solve(ir, &lb, &ub, pool_cuts, &report.new_cuts, opts.warm_start);
            (report.warm_resolves, report.warm_fallbacks) =
                (ladder.warm_resolves, ladder.warm_fallbacks);
            let Ok(sol) = solved else {
                // Numerical failure: treat as unfathomed and prune
                // conservatively.
                report.outcome = NodeOutcome::Pruned { infeasible: true };
                return report;
            };
            report.lp_solves += 1;
            report.simplex_iters += sol.iterations;
            match sol.status {
                LpStatus::Infeasible => {
                    report.outcome = NodeOutcome::Pruned { infeasible: true };
                    return report;
                }
                LpStatus::Unbounded => {
                    panic!("MINLP relaxation unbounded: give every variable finite-ish bounds")
                }
                LpStatus::Optimal => {}
            }
            (sol.x, sol.objective)
        };

        // --- bound pruning ---
        if bound >= cutoff {
            report.outcome = NodeOutcome::Pruned { infeasible: false };
            return report;
        }

        // --- branching decision on fractional structure ---
        // Under `IntegerOnly` a violated domain is still enforced; it
        // only loses its priority over fractional integers.
        let domain = violated_domain(ir, &windows, &x, opts.int_tol);
        let frac = fractional_int(ir, &x, opts.int_tol);
        let branched = match (domain, frac) {
            (Some((d, split)), f) if f.is_none() || opts.branching == Branching::SosFirst => {
                Some((branch_domain(node, d, windows[d], split, bound), true))
            }
            (_, Some(v)) => Some((branch_int(node, v, x[v], lb[v], ub[v], bound), false)),
            _ => None,
        };
        if let Some((children, sos)) = branched {
            report.warm = ladder.into_lp();
            report.outcome = NodeOutcome::Branched { children, sos };
            return report;
        }

        // --- integer point: enforce nonlinear constraints ---
        // Round integers exactly before evaluating (LP tolerance noise on
        // n changes T(n) measurably at small n).
        let mut xi = x.clone();
        for (v, xiv) in xi.iter_mut().enumerate().take(ir.num_vars()) {
            if ir.is_int[v] {
                *xiv = xiv.round();
            }
        }
        let mut added_cut = false;
        for k in 0..ir.nonlinear.len() {
            let con = &ir.nonlinear[k];
            let g = con.g.eval(&xi);
            if g <= opts.feas_tol {
                continue;
            }
            if con.convex {
                report.new_cuts.push(nlp::linearize(ir, k, &xi));
                added_cut = true;
            } else {
                // Nonconvex: no valid cut. If the constraint's integers are
                // all fixed at this node it is constant and violated —
                // prune. Otherwise branch one of them to make progress.
                let unfixed = con
                    .vars
                    .iter()
                    .copied()
                    .find(|&v| ir.is_int[v] && ub[v] - lb[v] > 0.5);
                match unfixed {
                    None => {
                        report.outcome = NodeOutcome::Pruned { infeasible: true };
                        return report;
                    }
                    Some(v) => {
                        report.warm = ladder.into_lp();
                        report.outcome = NodeOutcome::Branched {
                            children: branch_int(node, v, xi[v], lb[v], ub[v], bound),
                            sos: false,
                        };
                        return report;
                    }
                }
            }
        }
        if added_cut {
            continue; // re-solve this node with the new linearization
        }

        // Feasible integer point: candidate incumbent. Its true objective
        // is the LP objective (linear) evaluated at the rounded point.
        let obj = ir.objective(&xi);
        report.outcome = NodeOutcome::Incumbent { x: xi, obj };
        return report;
    }

    // Cut rounds exhausted: accept the point if it is within a loose
    // multiple of the tolerance, otherwise give up on the node (cannot
    // happen for well-scaled convex instances).
    report.outcome = NodeOutcome::Pruned { infeasible: true };
    report
}

/// Solve the compiled MINLP with branch-and-bound.
///
/// # Examples
///
/// ```
/// use hslb_minlp::{compile, solve, MinlpOptions, MinlpStatus};
/// use hslb_model::{ConstraintSense, Convexity, Expr, Model, ObjectiveSense};
///
/// // minimize T  s.t.  T ≥ 64/n,  n integer in [1, 10]  →  n = 10.
/// let mut m = Model::new();
/// let n = m.integer("n", 1.0, 10.0).unwrap();
/// let t = m.continuous("T", 0.0, 1e6).unwrap();
/// m.constrain(
///     "perf",
///     64.0 / Expr::var(n) - Expr::var(t),
///     ConstraintSense::Le,
///     0.0,
///     Convexity::Convex,
/// ).unwrap();
/// m.set_objective(Expr::var(t), ObjectiveSense::Minimize).unwrap();
///
/// let sol = solve(&compile(&m).unwrap(), &MinlpOptions::default());
/// assert_eq!(sol.status, MinlpStatus::Optimal);
/// assert_eq!(sol.int_value(n), 10);
/// ```
pub fn solve(ir: &Ir, opts: &MinlpOptions) -> MinlpSolution {
    let t0 = std::time::Instant::now();
    let mut stats = SolveStats::default();
    let mut pool = nlp::CutPool::default();
    let infeasible = |mut stats: SolveStats| {
        stats.wall = t0.elapsed();
        MinlpSolution {
            status: MinlpStatus::Infeasible,
            x: vec![],
            objective: f64::INFINITY,
            best_bound: f64::INFINITY,
            stats,
        }
    };

    // Root presolve: tighten the box by propagating the linear rows.
    let tightened;
    let ir = if opts.presolve {
        match crate::presolve::propagate(ir, 20) {
            crate::presolve::PresolveResult::Infeasible { .. } => return infeasible(stats),
            crate::presolve::PresolveResult::Tightened { lb, ub, changes } => {
                stats.presolve_changes = changes;
                tightened = Ir {
                    lb,
                    ub,
                    ..ir.clone()
                };
                &tightened
            }
        }
    } else {
        ir
    };

    // Root: continuous NLP relaxation (Kelley) over the box pulled in to
    // the domains. Its cuts seed the pool — the paper's "initial
    // linearization point".
    let mut root = Node {
        overrides: Vec::new(),
        dom_window: ir
            .domains
            .iter()
            .map(|d| (0usize, d.values.len().saturating_sub(1)))
            .collect(),
        bound: f64::NEG_INFINITY,
        warm: None,
    };
    let Some((root_lb, root_ub, _)) = node_bounds(ir, &root) else {
        return infeasible(stats);
    };
    let mut root_relax = nlp::solve_relaxation(ir, &root_lb, &root_ub, &[], opts);
    stats.lp_solves += root_relax.lp_solves;
    stats.simplex_iters += root_relax.simplex_iters;
    stats.warm_resolves += root_relax.warm_resolves;
    stats.warm_fallbacks += root_relax.warm_fallbacks;
    pool.absorb_cuts(root_relax.new_cuts.clone(), 1e-9);
    stats.cuts = pool.len();
    match root_relax.status {
        NlpStatus::Infeasible => return infeasible(stats),
        NlpStatus::Unbounded => {
            panic!("MINLP relaxation unbounded: give every variable finite-ish bounds")
        }
        NlpStatus::Optimal | NlpStatus::IterationLimit => {}
    }
    let root_bound = if root_relax.status == NlpStatus::Optimal {
        root_relax.objective
    } else {
        f64::NEG_INFINITY
    };

    root.bound = root_bound;
    // The root relaxation's final tableau already covers every pool entry
    // (the pool was just seeded from its cuts), so the first tree solve
    // repairs bounds instead of rebuilding two-phase.
    root.warm = root_relax.warm.take().map(|lp| {
        Rc::new(WarmState {
            lp,
            covered: pool.len(),
        })
    });

    let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
    let mut stack: Vec<Node> = Vec::new();
    let mut seq = 0u64;
    let push =
        |heap: &mut BinaryHeap<Entry>, stack: &mut Vec<Node>, n: Node, seq: &mut u64| match opts
            .node_selection
        {
            NodeSelection::BestBound => {
                heap.push(Entry {
                    key: Reverse(OrdF64(n.bound)),
                    seq: Reverse(*seq),
                    node: n,
                });
                *seq += 1;
            }
            NodeSelection::DepthFirst => stack.push(n),
        };
    push(&mut heap, &mut stack, root, &mut seq);

    let mut incumbent: Option<(f64, Vec<f64>)> = None;
    let cutoff_of = |inc: &Option<(f64, Vec<f64>)>| -> f64 {
        match inc {
            None => f64::INFINITY,
            Some((obj, _)) => obj - opts.abs_gap.max(opts.rel_gap * obj.abs()),
        }
    };
    let mut best_open_bound = root_bound;
    let deadline = opts.time_limit.map(|limit| t0 + limit);
    let mut timed_out = false;

    while stats.nodes < opts.node_limit {
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            timed_out = true;
            break;
        }
        let node = match opts.node_selection {
            NodeSelection::BestBound => match heap.pop() {
                Some(e) => e.node,
                None => break,
            },
            NodeSelection::DepthFirst => match stack.pop() {
                Some(n) => n,
                None => break,
            },
        };
        best_open_bound = node.bound;
        let cutoff = cutoff_of(&incumbent);
        if node.bound >= cutoff {
            stats.pruned_by_bound += 1;
            continue;
        }
        stats.nodes += 1;
        if let Some(every) = opts.log_every {
            if every > 0 && stats.nodes % every == 0 {
                let inc = incumbent
                    .as_ref()
                    .map_or("-".to_string(), |(o, _)| format!("{o:.4}"));
                eprintln!(
                    "[minlp] node {:>6}  bound {:>12.4}  incumbent {:>12}  cuts {:>5}  open {}",
                    stats.nodes,
                    node.bound,
                    inc,
                    pool.len(),
                    heap.len() + stack.len()
                );
            }
        }
        let mut processed = process_node(ir, opts, &node, pool.cuts(), cutoff);
        stats.lp_solves += processed.lp_solves;
        stats.simplex_iters += processed.simplex_iters;
        stats.warm_resolves += processed.warm_resolves;
        stats.warm_fallbacks += processed.warm_fallbacks;
        if !processed.new_cuts.is_empty() {
            let new_cuts = std::mem::take(&mut processed.new_cuts);
            stats.cuts += pool.absorb_cuts(new_cuts, 1e-9);
            opts.telemetry.record("minlp.cut_pool", pool.len() as f64);
        }
        let node_warm = processed.warm.take();
        match processed.outcome {
            NodeOutcome::Pruned { infeasible } => {
                if infeasible {
                    stats.pruned_infeasible += 1;
                } else {
                    stats.pruned_by_bound += 1;
                }
            }
            NodeOutcome::Incumbent { x, obj } => {
                if incumbent.as_ref().is_none_or(|(best, _)| obj < *best) {
                    stats.incumbents += 1;
                    opts.telemetry.point(
                        "minlp.incumbent",
                        &[("obj", obj), ("node", stats.nodes as f64)],
                        &[],
                    );
                    incumbent = Some((obj, x));
                }
            }
            NodeOutcome::Branched { children, sos } => {
                if sos {
                    stats.sos_branches += 1;
                } else {
                    stats.int_branches += 1;
                }
                // Hand the node's solved tableau to both children; pool
                // coverage is stamped after the absorb above, so a child
                // appends only cuts its inherited rows genuinely lack.
                let handoff = node_warm.map(|lp| {
                    Rc::new(WarmState {
                        lp,
                        covered: pool.len(),
                    })
                });
                for mut c in children {
                    if let Some(ws) = &handoff {
                        c.warm = Some(ws.clone());
                    }
                    push(&mut heap, &mut stack, c, &mut seq);
                }
            }
        }
    }

    stats.wall = t0.elapsed();
    emit_stats_counters(&opts.telemetry, &stats);
    if opts.telemetry.is_enabled() {
        let secs = stats.wall.as_secs_f64();
        opts.telemetry.point(
            "minlp.done",
            &[
                ("nodes", stats.nodes as f64),
                (
                    "nodes_per_sec",
                    if secs > 0.0 {
                        stats.nodes as f64 / secs
                    } else {
                        0.0
                    },
                ),
                ("wall_ms", secs * 1e3),
                ("cut_pool", pool.len() as f64),
            ],
            &[],
        );
    }
    let exhausted = heap.is_empty() && stack.is_empty();
    match incumbent {
        Some((obj, x)) => {
            let status = if exhausted {
                MinlpStatus::Optimal
            } else if timed_out {
                MinlpStatus::TimeLimitWithIncumbent
            } else {
                MinlpStatus::NodeLimitWithIncumbent
            };
            let model_obj = ir.model_objective(&x);
            MinlpSolution {
                status,
                x,
                objective: model_obj,
                best_bound: if exhausted { obj } else { best_open_bound },
                stats,
            }
        }
        None => MinlpSolution {
            status: if exhausted {
                MinlpStatus::Infeasible
            } else if timed_out {
                MinlpStatus::TimeLimitNoIncumbent
            } else {
                MinlpStatus::NodeLimitNoIncumbent
            },
            x: vec![],
            objective: f64::INFINITY,
            best_bound: best_open_bound,
            stats,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::compile;
    use hslb_model::{ConstraintSense, Convexity, Expr, Model, ObjectiveSense};

    /// min T, T ≥ a/n, n ∈ `values` inside the box `[lo, hi]`.
    fn domain_model(values: &[f64], lo: f64, hi: f64) -> (Model, usize) {
        let mut m = Model::new();
        let n = m.integer("n", lo, hi).unwrap();
        let t = m.continuous("T", 0.0, 1e6).unwrap();
        m.add_domain("alloc", n, values.to_vec()).unwrap();
        m.constrain(
            "perf",
            100.0 / Expr::var(n) - Expr::var(t),
            ConstraintSense::Le,
            0.0,
            Convexity::Convex,
        )
        .unwrap();
        m.set_objective(Expr::var(t), ObjectiveSense::Minimize)
            .unwrap();
        (m, n)
    }

    fn root_of(ir: &Ir) -> Node {
        Node {
            overrides: Vec::new(),
            dom_window: ir.domains.iter().map(|d| (0, d.values.len() - 1)).collect(),
            bound: f64::NEG_INFINITY,
            warm: None,
        }
    }

    #[test]
    fn box_between_two_values_is_infeasible_not_a_panic() {
        let (m, _) = domain_model(&[2.0, 4.0, 16.0, 32.0], 5.0, 15.0);
        let ir = compile(&m).unwrap();
        assert!(node_bounds(&ir, &root_of(&ir)).is_none());
        for presolve in [true, false] {
            let opts = MinlpOptions {
                presolve,
                ..Default::default()
            };
            assert_eq!(solve(&ir, &opts).status, MinlpStatus::Infeasible);
        }
    }

    #[test]
    fn integer_branch_between_values_snaps_inward() {
        let (m, n) = domain_model(&[2.0, 4.0, 16.0, 32.0], 1.0, 64.0);
        let ir = compile(&m).unwrap();
        let root = root_of(&ir);
        let (lb, ub, win) = node_bounds(&ir, &root).unwrap();
        assert_eq!((lb[n], ub[n], win[0]), (2.0, 32.0, (0, 3)));
        // n ≤ 9 / n ≥ 10, as `branch_int` leaves them at x = 9.5.
        let kids = branch_int(&root, n, 9.5, lb[n], ub[n], 0.0);
        let (lb, ub, win) = node_bounds(&ir, &kids[0]).unwrap();
        assert_eq!((lb[n], ub[n], win[0]), (2.0, 4.0, (0, 1)));
        let (lb, ub, win) = node_bounds(&ir, &kids[1]).unwrap();
        assert_eq!((lb[n], ub[n], win[0]), (16.0, 32.0, (2, 3)));
        // A later set branch inside the override keeps both in force.
        let grandkids = branch_domain(&kids[1], 0, win[0], 2, 0.0);
        let (lb, ub, _) = node_bounds(&ir, &grandkids[0]).unwrap();
        assert_eq!((lb[n], ub[n]), (16.0, 16.0));
    }

    #[test]
    fn split_is_the_largest_value_below_the_point() {
        let (m, n) = domain_model(&[2.0, 4.0, 16.0, 32.0], 1.0, 64.0);
        let ir = compile(&m).unwrap();
        let at = |xv: f64, win: (usize, usize)| {
            let mut x = vec![0.0; ir.num_vars()];
            x[n] = xv;
            violated_domain(&ir, &[win], &x, 1e-6)
        };
        assert_eq!(at(9.5, (0, 3)), Some((0, 1)));
        assert_eq!(at(16.0 + 1e-8, (0, 3)), None, "within tolerance of 16");
        assert_eq!(at(3.0, (0, 3)), Some((0, 0)), "integral but not allowed");
        assert_eq!(at(31.0, (2, 3)), Some((0, 2)));
        // LP noise outside the window still splits it properly.
        assert_eq!(at(1.0, (0, 3)), Some((0, 0)));
        assert_eq!(at(40.0, (0, 3)), Some((0, 2)));
        assert_eq!(at(9.5, (2, 2)), None, "a fixed variable cannot branch");
    }

    #[test]
    fn one_value_domain_fixes_the_variable_without_branching() {
        let (m, n) = domain_model(&[2.0, 4.0, 16.0, 32.0], 10.0, 20.0);
        let ir = compile(&m).unwrap();
        let sol = solve(&ir, &MinlpOptions::default());
        assert_eq!(sol.status, MinlpStatus::Optimal);
        assert_eq!(sol.int_value(n), 16);
        assert_eq!(sol.stats.sos_branches + sol.stats.int_branches, 0);
        assert_eq!(sol.stats.nodes, 1);
    }

    #[test]
    fn set_branching_finds_the_best_allowed_value() {
        // T ≥ 100/n + n has its continuous minimum at 10, between values.
        let mut m = Model::new();
        let n = m.integer("n", 1.0, 64.0).unwrap();
        let t = m.continuous("T", 0.0, 1e6).unwrap();
        m.add_domain("alloc", n, vec![2.0, 4.0, 16.0, 32.0])
            .unwrap();
        m.constrain(
            "perf",
            100.0 / Expr::var(n) + Expr::var(n) - Expr::var(t),
            ConstraintSense::Le,
            0.0,
            Convexity::Convex,
        )
        .unwrap();
        m.set_objective(Expr::var(t), ObjectiveSense::Minimize)
            .unwrap();
        let ir = compile(&m).unwrap();
        for branching in [Branching::SosFirst, Branching::IntegerOnly] {
            let opts = MinlpOptions {
                branching,
                ..Default::default()
            };
            let sol = solve(&ir, &opts);
            assert_eq!(sol.status, MinlpStatus::Optimal);
            // 100/16 + 16 = 22.25 beats 100/4 + 4 = 29.
            assert_eq!(sol.int_value(n), 16, "{branching:?}");
            assert!((sol.objective - 22.25).abs() < 1e-6);
        }
    }

    #[test]
    fn domain_variable_in_a_nonconvex_row_is_enforced_by_branching() {
        // T ≥ 60/a with a ∈ {2, 4, 8, 16}, a + b ≤ 24, and a T_sync-style
        // window |60/a − 60/b| ≤ 2 over integers only. The relaxation
        // wants a = 16, but then b ≤ 8 runs at least 7.5 s against 3.75 s.
        // The window offers no cut, so the solver branches `a` as a plain
        // integer — a ≤ 15 lands between allowed values and must snap to
        // 8 — until a = 8 with b ∈ 7..=10 balances within 2 s.
        let mut m = Model::new();
        let a = m.integer("a", 1.0, 24.0).unwrap();
        let b = m.integer("b", 1.0, 24.0).unwrap();
        let t = m.continuous("T", 0.0, 1e6).unwrap();
        m.add_domain("a_set", a, vec![2.0, 4.0, 8.0, 16.0]).unwrap();
        m.constrain(
            "perf_a",
            60.0 / Expr::var(a) - Expr::var(t),
            ConstraintSense::Le,
            0.0,
            Convexity::Convex,
        )
        .unwrap();
        m.constrain(
            "budget",
            Expr::var(a) + Expr::var(b),
            ConstraintSense::Le,
            24.0,
            Convexity::Linear,
        )
        .unwrap();
        for (name, fast, slow) in [("sync_ab", a, b), ("sync_ba", b, a)] {
            m.constrain(
                name,
                60.0 / Expr::var(fast) - 60.0 / Expr::var(slow),
                ConstraintSense::Le,
                2.0,
                Convexity::Nonconvex,
            )
            .unwrap();
        }
        m.set_objective(Expr::var(t), ObjectiveSense::Minimize)
            .unwrap();
        let sol = solve(&compile(&m).unwrap(), &MinlpOptions::default());
        assert_eq!(sol.status, MinlpStatus::Optimal);
        assert!((sol.objective - 7.5).abs() < 1e-6, "{}", sol.objective);
        assert_eq!(sol.int_value(a), 8);
        assert!(
            (7..=10).contains(&sol.int_value(b)),
            "b = {}",
            sol.int_value(b)
        );
        assert!(sol.stats.int_branches > 0, "{:?}", sol.stats);
    }
}
