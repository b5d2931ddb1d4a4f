//! Solver results and statistics.

/// Termination status of a MINLP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MinlpStatus {
    /// Proven (globally, for convex instances) optimal.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// Stopped at the node limit with an incumbent in hand.
    NodeLimitWithIncumbent,
    /// Stopped at the node limit with no incumbent.
    NodeLimitNoIncumbent,
    /// Stopped at the wall-clock deadline with an incumbent in hand (the
    /// solution carries the proven gap at that point).
    TimeLimitWithIncumbent,
    /// Stopped at the wall-clock deadline before any incumbent was found.
    TimeLimitNoIncumbent,
}

/// A compact record of the pre-solve instance audit, threaded into
/// [`SolveStats`] so every solver result carries its certificate status.
///
/// The solver itself never runs the audit (that would invert the layering
/// — the audit crate sits beside the pipeline, not under the solver); the
/// pipeline stamps the stats after a solve. `None` means "no audit ran"
/// (a raw [`crate::solve`] call on a hand-built IR, say), which reporting
/// code must treat as *unproven*, not as passing.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditStamp {
    /// Both audit levels found nothing.
    pub passed: bool,
    /// Fitted components certified.
    pub components: usize,
    /// Total violations across the certificate and the model audit.
    pub violations: usize,
    /// One-line deterministic summary (for logs and JSON reports).
    pub summary: String,
}

/// Counters describing the work a solve performed.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Branch-and-bound nodes processed (LP solved at least once).
    pub nodes: usize,
    /// Total LP solves, including cut-round re-solves and Kelley steps.
    pub lp_solves: usize,
    /// Total simplex iterations across all LP solves.
    pub simplex_iters: usize,
    /// Outer-approximation cuts generated.
    pub cuts: usize,
    /// LP solves answered by the warm dual-simplex path (appended cut
    /// rows or tightened bounds repaired on a live tableau; subset of
    /// `lp_solves`).
    pub warm_resolves: usize,
    /// Warm attempts abandoned for a cold rebuild (iteration budget spent,
    /// singular tableau, or an answer that failed its row / certificate
    /// check).
    pub warm_fallbacks: usize,
    /// Nodes pruned by bound.
    pub pruned_by_bound: usize,
    /// Nodes pruned by infeasibility.
    pub pruned_infeasible: usize,
    /// Incumbent improvements.
    pub incumbents: usize,
    /// Set (discrete-domain) branchings performed.
    pub sos_branches: usize,
    /// Integer-variable branchings performed.
    pub int_branches: usize,
    /// Bound changes applied by the root presolve.
    pub presolve_changes: usize,
    /// Wall-clock time of the solve.
    pub wall: std::time::Duration,
    /// The pre-solve instance audit, stamped by the pipeline (`None` when
    /// the solver was invoked directly on an unaudited IR).
    pub audit: Option<AuditStamp>,
}

/// The result of a MINLP solve.
#[derive(Debug, Clone)]
pub struct MinlpSolution {
    pub status: MinlpStatus,
    /// Best point found (empty when none).
    pub x: Vec<f64>,
    /// Objective at `x` in the *model's* sense (max models report max).
    pub objective: f64,
    /// Best lower bound proven (minimization sense, internal orientation).
    pub best_bound: f64,
    pub stats: SolveStats,
}

impl MinlpSolution {
    /// True when a feasible point is available.
    pub fn has_solution(&self) -> bool {
        matches!(
            self.status,
            MinlpStatus::Optimal
                | MinlpStatus::NodeLimitWithIncumbent
                | MinlpStatus::TimeLimitWithIncumbent
        )
    }

    /// Value of variable `v` rounded to the nearest integer (convenience
    /// for integer variables).
    pub fn int_value(&self, v: usize) -> i64 {
        hslb_numerics::float::round_i64(self.x[v])
    }

    /// Relative optimality gap `(incumbent − bound)/|incumbent|` in the
    /// internal minimization orientation. Zero for proven-optimal solves;
    /// `None` without an incumbent.
    pub fn gap(&self) -> Option<f64> {
        if !self.has_solution() {
            return None;
        }
        if self.status == MinlpStatus::Optimal {
            return Some(0.0);
        }
        // best_bound is in internal (min) orientation; so is the
        // incumbent objective before un-negation — reconstruct it.
        let internal_obj = if self.objective.is_finite() {
            self.objective.abs().max(1e-12)
        } else {
            return None;
        };
        let gap = (self.objective.abs() - self.best_bound.abs()).abs() / internal_obj;
        Some(gap)
    }
}

impl std::fmt::Display for MinlpSolution {
    /// One-line summary in the style of solver logs:
    /// `optimal obj=… bound=… nodes=… cuts=… in …`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let status = match self.status {
            MinlpStatus::Optimal => "optimal",
            MinlpStatus::Infeasible => "infeasible",
            MinlpStatus::NodeLimitWithIncumbent => "node-limit (incumbent)",
            MinlpStatus::NodeLimitNoIncumbent => "node-limit (no incumbent)",
            MinlpStatus::TimeLimitWithIncumbent => "time-limit (incumbent)",
            MinlpStatus::TimeLimitNoIncumbent => "time-limit (no incumbent)",
        };
        write!(
            f,
            "{status} obj={:.6} bound={:.6} nodes={} lps={} cuts={} in {:?}",
            self.objective,
            self.best_bound,
            self.stats.nodes,
            self.stats.lp_solves,
            self.stats.cuts,
            self.stats.wall
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_summarizes_the_solve() {
        let sol = MinlpSolution {
            status: MinlpStatus::Optimal,
            x: vec![1.0],
            objective: 42.5,
            best_bound: 42.5,
            stats: SolveStats {
                nodes: 7,
                lp_solves: 20,
                cuts: 11,
                ..Default::default()
            },
        };
        let s = format!("{sol}");
        assert!(s.starts_with("optimal"), "{s}");
        assert!(s.contains("obj=42.5"));
        assert!(s.contains("nodes=7"));
    }

    #[test]
    fn has_solution_logic() {
        let mk = |status| MinlpSolution {
            status,
            x: vec![],
            objective: 0.0,
            best_bound: 0.0,
            stats: SolveStats::default(),
        };
        assert!(mk(MinlpStatus::Optimal).has_solution());
        assert!(mk(MinlpStatus::NodeLimitWithIncumbent).has_solution());
        assert!(!mk(MinlpStatus::Infeasible).has_solution());
        assert!(!mk(MinlpStatus::NodeLimitNoIncumbent).has_solution());
    }
}
