//! Declarative optimization modeling with automatic differentiation.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//!
//! In the paper, the HSLB MINLP is written in AMPL, which provides (a) a
//! notation close to the mathematics of Table I/II, and (b) exact
//! derivatives of the nonlinear constraint functions for the solver's
//! linearization (outer-approximation) step. This crate plays both roles
//! for the Rust reproduction:
//!
//! * [`Expr`] — a small expression AST (`+`, `·`, `/`, `x^p`) with
//!   evaluation and forward-mode automatic differentiation. Its operator
//!   overloads make model construction read like the paper's Table I.
//! * [`Model`] — a container of typed variables (continuous / integer /
//!   binary), linear and nonlinear constraints with declared convexity,
//!   discrete domains on integer variables (the atmosphere and ocean
//!   allowed node counts, `n ∈ {V_1 < … < V_k}`), and a minimize/maximize
//!   objective. [`Model::expand_domains`] rewrites the domains into the
//!   paper's "special ordered sets" of binaries (Table I lines 29–31);
//!   that is what [`to_ampl`] prints and what the §III-E ablation solves.
//! * [`LinExpr`] — the linear fragment, extracted automatically so the
//!   MINLP solver can route linear rows straight to the LP.
//!
//! The solver crate (`hslb-minlp`) consumes a [`Model`] directly.

mod ad;
pub mod ampl;
mod expr;
mod linear;
mod model;

pub use ampl::to_ampl;
pub use expr::Expr;
pub use linear::LinExpr;
pub use model::{
    Constraint, ConstraintSense, Convexity, Domain, Model, ModelError, Objective, ObjectiveSense,
    Sos1, VarId, VarType,
};
