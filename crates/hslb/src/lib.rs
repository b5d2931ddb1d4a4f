//! The Heuristic Static Load-Balancing (HSLB) algorithm for CESM.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//!
//! This crate is the paper's primary contribution: given a way to
//! benchmark CESM's components (here, the [`hslb_cesm`] simulator — in
//! production, real 5-day runs), find the node allocation that minimizes
//! the coupled model's wall-clock time. The four steps (§III-F):
//!
//! 1. **Gather** ([`pipeline::Hslb::gather`]) — benchmark every component
//!    at D ≥ 4 node counts spanning the feasible range;
//! 2. **Fit** ([`fit`]) — least-squares fit of the performance model
//!    `T_j(n) = a_j/n + b_j·n^{c_j} + d_j` per component (Table II);
//! 3. **Solve** ([`layout_model`] + [`hslb_minlp`]) — build the Table I
//!    MINLP for the chosen layout and objective and solve it to global
//!    optimality with LP/NLP branch-and-bound;
//! 4. **Execute** ([`pipeline::Hslb::execute`]) — run CESM with the
//!    optimal allocation and compare predicted vs actual times.
//!
//! Also provided:
//!
//! * [`manual`] — the baselines: replay of the paper's published expert
//!   allocations, and a simulated-expert iterative tuner;
//! * [`exhaustive`] — an independent exact optimizer (one table DP over
//!   the layout composition for every objective) used to verify the MINLP solver's
//!   global optimality (and to evaluate the `max-min` objective, whose
//!   MINLP form is nonconvex);
//! * [`whatif`] — the §IV-C applications: layout comparison (Figure 4),
//!   constraint impact, component swaps;
//! * [`cost`] — the §IV-C node-count question: the cost/time frontier at
//!   every node count, with deadline and efficiency pickers;
//! * [`report`] — Table III-style reporting structures.

pub mod cost;
pub mod data;
pub mod error;
pub mod exhaustive;
pub mod fit;
pub mod layout_model;
pub mod manual;
pub mod objective;
pub mod pipeline;
pub mod report;
pub mod resilience;
pub mod tuning;
pub mod whatif;

pub use data::BenchmarkData;
pub use error::HslbError;
pub use exhaustive::{ExhaustiveOptimizer, Frontier};
pub use fit::{fit_all, FitSet};
pub use layout_model::{build_layout_model, LayoutModel, LayoutModelOptions, NodeFloors};
pub use objective::{parse_objective, Objective};
pub use pipeline::{GatherPlan, Hslb, HslbOptions, SolveOutcome};
pub use report::{ArmReport, ExperimentReport};
pub use resilience::{GatherReport, ResilienceReport, RetryPolicy, SolverRung};
pub use tuning::{snap_to_sweet_spots, TunedAllocation};
