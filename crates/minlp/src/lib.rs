//! A branch-and-bound MINLP solver (the MINOTAUR stand-in).
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//!
//! The paper solves its load-balancing models with MINOTAUR's LP/NLP-based
//! branch-and-bound [Quesada & Grossmann / Fletcher & Leyffer, ref 13]:
//!
//! 1. solve the continuous **NLP relaxation** and linearize the convex
//!    nonlinear constraints around its solution ("linearization constraints
//!    derived from only a single point are added initially; this initial
//!    point is the solution of the continuous NLP relaxation"),
//! 2. run a **single branch-and-bound tree over MILP relaxations**: at each
//!    node solve an LP; when an LP solution is integer feasible but
//!    violates a nonlinear constraint, **add outer-approximation cuts** at
//!    that point and re-solve the node rather than restarting the tree,
//! 3. branch on **special-ordered sets** for the large discrete
//!    atmosphere/ocean allocation choices instead of individual binaries —
//!    the trick §III-E credits with two orders of magnitude of speedup.
//!    Here the sets arrive as discrete domains on the node-count
//!    variables (`n ∈ {V_1 < … < V_k}`, [`hslb_model::Domain`]) and a
//!    node keeps a window of values per domain: exactly what an SOS-1
//!    set with a convexity and a linking row projects to on `n`, without
//!    the `k` binary columns. An SOS-1 declaration over binaries is
//!    accepted by [`compile`] only when a convexity row already implies
//!    it (the shape [`hslb_model::Model::expand_domains`] produces, which
//!    the §III-E ablation branches binary by binary).
//!
//! Because the fitted performance curves have non-negative coefficients
//! (and exponent ≥ 1), every nonlinear constraint is convex and the
//! algorithm returns **global** optima, matching the paper's guarantee.
//!
//! Supported beyond the paper's needs:
//!
//! * a classic NLP-based branch-and-bound mode ([`Algorithm::NlpBb`]) that
//!   solves each node's relaxation to convergence (for the ablation bench),
//! * nonconvex constraints **over integer variables only** (the optional
//!   `T_sync` ice/land synchronization window is a difference of convex
//!   functions): they contribute no cuts and are enforced by feasibility
//!   checks plus branching, which is exact once the involved integers are
//!   fixed.
//!
//! There is one driver ([`solve`]), one branching rule per entity
//! (domains split at the largest value below the relaxation's, integers
//! at the most fractional variable) and one cut pool that only grows. Node LPs go through one
//! warm→cold ladder: a checked dual-simplex re-solve of the ancestor's
//! tableau, else a cold rebuild (DESIGN.md §14).
//!
//! The continuous relaxations are solved with Kelley's cutting-plane
//! method ([`solve_relaxation`]) on top of the [`hslb_lp`] simplex — the same
//! division of labor as MINOTAUR over CLP/filterSQP.

mod bb;
mod ir;
mod nlp;
mod options;
mod presolve;
mod solution;

pub use bb::solve;
pub use ir::{compile, CompileError, Ir};
pub use nlp::{solve_relaxation, Cut, NlpResult, NlpStatus};
pub use options::{Algorithm, Branching, MinlpOptions, NodeSelection};
pub use presolve::{propagate, PresolveResult};
pub use solution::{AuditStamp, MinlpSolution, MinlpStatus, SolveStats};
