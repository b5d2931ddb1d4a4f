//! Dense linear algebra and scalar numerical utilities for the CESM-HSLB
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! workspace.
//!
//! This crate deliberately implements only what the rest of the workspace
//! needs — small dense systems (the least-squares normal equations and LP
//! tableau factorizations are all well under a few thousand unknowns) — so
//! everything is dense, row-major and allocation-conscious rather than
//! generic over storage.
//!
//! Contents:
//!
//! * [`Matrix`] — dense row-major matrix with the usual products.
//! * [`lu`] — LU factorization with partial pivoting, used for general
//!   square solves.
//! * [`cholesky`] — Cholesky factorization for symmetric positive definite
//!   systems (Levenberg–Marquardt normal equations), with a ridge fallback.
//! * [`vector`] — BLAS-1 style helpers on `&[f64]`.
//! * [`stats`] — mean/variance/R²/RMSE used by the fit-quality reporting.
//! * [`float`] — tolerant comparisons shared across crates.

pub mod cholesky;
pub mod float;
pub mod lu;
pub mod matrix;
pub mod stats;
pub mod vector;

pub use cholesky::Cholesky;
pub use lu::Lu;
pub use matrix::Matrix;

/// Errors produced by the factorization and solve routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericsError {
    /// The matrix was singular (or numerically singular) at the given pivot.
    Singular { pivot: usize },
    /// The matrix was not positive definite at the given diagonal entry.
    NotPositiveDefinite { index: usize },
    /// Dimensions of the operands do not agree.
    DimensionMismatch { expected: usize, got: usize },
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence { iterations: usize },
    /// Invalid input (e.g. empty data, NaN) with a human-readable reason.
    Invalid(&'static str),
}

impl std::fmt::Display for NumericsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumericsError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            NumericsError::NotPositiveDefinite { index } => {
                write!(f, "matrix is not positive definite at diagonal {index}")
            }
            NumericsError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            NumericsError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
            NumericsError::Invalid(reason) => write!(f, "invalid input: {reason}"),
        }
    }
}

impl std::error::Error for NumericsError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, NumericsError>;
