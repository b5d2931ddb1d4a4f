//! # cesm-hslb — Heuristic Static Load Balancing for CESM
//!
//! A complete Rust reproduction of *"The Heuristic Static Load-Balancing
//! Algorithm Applied to the Community Earth System Model"* (Alexeev,
//! Mickelson, Leyffer, Jacob, Craig — IPDPSW 2014), from the MINLP solver
//! up to the climate-model simulator.
//!
//! This meta-crate re-exports the workspace:
//!
//! * [`hslb`] — the four-step HSLB pipeline (gather → fit → solve →
//!   execute), layout models, baselines, reports;
//! * [`cesm`] — the CESM execution simulator calibrated from the paper's
//!   published Table III timings;
//! * [`minlp`] — LP/NLP-based branch-and-bound with outer approximation
//!   and set branching over discrete domains (the MINOTAUR stand-in);
//! * [`nlsq`] — box-constrained Levenberg–Marquardt curve fitting;
//! * [`model`] — expression AST + autodiff modeling layer (the AMPL
//!   stand-in);
//! * [`lp`] — bounded-variable primal simplex;
//! * [`numerics`] — dense linear algebra and fit statistics.
//!
//! ## Quickstart
//!
//! ```
//! use cesm_hslb::prelude::*;
//!
//! // CESM at 1° resolution on Intrepid (simulated), targeting 128 nodes.
//! let sim = Simulator::one_degree(42);
//! let pipeline = Hslb::new(&sim, HslbOptions::new(128));
//! let report = pipeline
//!     .run(paper_manual_allocation(Resolution::OneDegree, 128))
//!     .expect("pipeline succeeds");
//! // HSLB lands within a few percent of (usually beating) expert tuning.
//! assert!(report.hslb.actual_total < 1.1 * report.manual.unwrap().actual_total);
//! ```

pub use hslb;
pub use hslb_cesm as cesm;
pub use hslb_lp as lp;
pub use hslb_minlp as minlp;
pub use hslb_model as model;
pub use hslb_nlsq as nlsq;
pub use hslb_numerics as numerics;

/// The names needed by typical downstream code, in one import.
pub mod prelude {
    pub use hslb::manual::paper_manual_allocation;
    pub use hslb::{
        build_layout_model, fit_all, BenchmarkData, ExhaustiveOptimizer, ExperimentReport, FitSet,
        GatherPlan, GatherReport, Hslb, HslbError, HslbOptions, LayoutModel, LayoutModelOptions,
        Objective, ResilienceReport, RetryPolicy, SolverRung,
    };
    pub use hslb_cesm::{
        Allocation, BenchPoint, Component, FaultDomain, FaultSpec, Layout, Machine, NoiseSpec,
        Resolution, ResolutionConfig, RunResult, Simulator,
    };
    pub use hslb_minlp::{Algorithm, Branching, MinlpOptions, MinlpStatus, NodeSelection};
    pub use hslb_nlsq::{fit_scaling, ScalingCurve, ScalingFitOptions};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exports_compile() {
        use crate::prelude::*;
        let _ = Simulator::one_degree(0);
        let _ = HslbOptions::new(64);
        let _ = Objective::MinMax;
    }
}
