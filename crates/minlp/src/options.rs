//! Solver configuration.

/// Which branch-and-bound flavor to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// LP/NLP-based branch-and-bound (Quesada–Grossmann): one tree, LP
    /// relaxations, outer-approximation cuts added lazily at integer
    /// points. This is what the paper uses via MINOTAUR.
    LpNlpBb,
    /// Classic NLP-based branch-and-bound: each node's continuous
    /// relaxation is solved to convergence (Kelley) before branching.
    /// Kept for the ablation benchmarks.
    NlpBb,
}

/// How to pick the branching entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Branching {
    /// Prefer branching on a violated discrete domain (the window of
    /// values splits at the relaxation's value — the SOS-1 rule projected
    /// onto the variable the set selects), falling back to the most
    /// fractional integer variable. §III-E: "we … forced the MINLP solver
    /// to branch on the special-ordered set, rather than on individual
    /// binary variables, which improved the runtime … by two orders of
    /// magnitude".
    SosFirst,
    /// Branch on individual variables first (the paper's slow baseline,
    /// kept for the ablation): the pipeline hands the solver Table I's
    /// literal binaries (`Model::expand_domains`), which carry no domain.
    /// A domain left in the model is still enforced, after the integers.
    IntegerOnly,
}

/// Node selection order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSelection {
    /// Lowest lower bound first (global view, best for proving optimality).
    BestBound,
    /// LIFO stack (finds incumbents fast, uses little memory).
    DepthFirst,
}

/// All solver options.
#[derive(Debug, Clone)]
pub struct MinlpOptions {
    pub algorithm: Algorithm,
    pub branching: Branching,
    pub node_selection: NodeSelection,
    /// Run root bound propagation on the linear rows before the search.
    pub presolve: bool,
    /// Integrality tolerance.
    pub int_tol: f64,
    /// Nonlinear feasibility tolerance for `g(x) ≤ tol`.
    pub feas_tol: f64,
    /// Absolute optimality gap: a node is pruned when its bound is within
    /// this of the incumbent.
    pub abs_gap: f64,
    /// Relative optimality gap.
    pub rel_gap: f64,
    /// Hard cap on explored nodes.
    pub node_limit: usize,
    /// Wall-clock deadline for the whole solve (`None` = unlimited). On
    /// expiry the search stops and returns the best incumbent with its
    /// proven gap ([`crate::MinlpStatus::TimeLimitWithIncumbent`]) rather
    /// than erroring; with no incumbent yet it reports
    /// [`crate::MinlpStatus::TimeLimitNoIncumbent`].
    pub time_limit: Option<std::time::Duration>,
    /// Cap on cut-and-resolve rounds within a single node.
    pub max_cut_rounds: usize,
    /// Cap on Kelley iterations per relaxation solve.
    pub max_kelley_iters: usize,
    /// Reuse solved tableaux across cut rounds and down branch-and-bound
    /// edges: appended cut rows and tightened bounds are repaired with a
    /// bounded-variable dual simplex instead of a cold two-phase solve
    /// (DESIGN.md §14). Every warm answer is checked against the rows it
    /// stands for — an optimum must satisfy them, an infeasibility must
    /// carry a Farkas certificate against them — and whatever fails the
    /// check is solved cold, so this flag changes work counters, never
    /// the incumbent (asserted at the pipeline level by the warm-start
    /// integration tests, on inputs where an unchecked re-solve did
    /// change it).
    pub warm_start: bool,
    /// Print a progress line to stderr every `n` processed nodes
    /// (`None` = silent).
    pub log_every: Option<usize>,
    /// Telemetry sink for solver events (incumbent timeline, cut-pool
    /// growth). Disabled by default; the solve
    /// path is identical either way — instrumentation is strictly
    /// passive.
    pub telemetry: hslb_telemetry::Telemetry,
}

impl Default for MinlpOptions {
    fn default() -> Self {
        MinlpOptions {
            algorithm: Algorithm::LpNlpBb,
            branching: Branching::SosFirst,
            node_selection: NodeSelection::BestBound,
            presolve: true,
            int_tol: 1e-6,
            feas_tol: 1e-6,
            abs_gap: 1e-7,
            rel_gap: 1e-9,
            node_limit: 2_000_000,
            time_limit: None,
            max_cut_rounds: 40,
            max_kelley_iters: 120,
            warm_start: true,
            log_every: None,
            telemetry: hslb_telemetry::Telemetry::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_configuration() {
        let o = MinlpOptions::default();
        assert_eq!(o.algorithm, Algorithm::LpNlpBb);
        assert_eq!(o.branching, Branching::SosFirst);
        assert_eq!(o.node_selection, NodeSelection::BestBound);
        assert!(o.warm_start, "warm re-solves are on by default");
    }
}
