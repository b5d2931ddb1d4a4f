//! # hslb-sweep — batch/portfolio layout sweeps
//!
//! The paper tunes one CESM layout at a time; a production tuning
//! service gets asked "best layout across every layout topology ×
//! resolution × machine size". This crate turns that question into a
//! *sweep*: a [`SweepSpec`] describing the configuration grid, a
//! [`plan`] that groups configurations by shared curve data (fits do
//! not depend on the node budget, so one fit fans out to every machine
//! size), a factorized [`predictor`] calibrated from exact solves
//! already completed inside the same sweep, and a ranked [`Portfolio`]
//! with a makespan-vs-nodes Pareto frontier.
//!
//! The crate is deliberately *pure*: it plans, predicts, and collects —
//! it never runs a solve itself. Execution lives in
//! `hslb-service::sweep_driver`, which pushes the planned work through
//! the existing worker pool, coalescer, and single-flight fit tier. That
//! split keeps the dependency graph acyclic (service → sweep) while the
//! determinism tests in this crate pull the service in as a
//! dev-dependency to compare portfolio entries against standalone
//! one-shot pipeline runs bit for bit.
//!
//! Determinism bar (inherited from the service): every non-pruned
//! portfolio entry is bit-identical to a one-shot pipeline run of that
//! configuration, and every pruning decision is deterministic and
//! logged in the portfolio's decision log.

pub mod plan;
pub mod portfolio;
pub mod predictor;
pub mod spec;

pub use plan::{FitGroup, SweepPlan};
pub use portfolio::{Portfolio, PortfolioEntry, PruneDecision, SweepStats};
pub use predictor::{Predictor, PredictorError};
pub use spec::{SweepConfig, SweepSpec};
