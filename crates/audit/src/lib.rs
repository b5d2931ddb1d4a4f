//! Static analysis for the HSLB pipeline.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//!
//! The paper's global-optimality claim is a *static* property of the
//! instance: Quesada–Grossmann outer approximation is exact only when
//! every fitted performance term `T_j(n) = a/n + b·n^c + d` has
//! nonnegative coefficients and exponent ≥ 1, and the generated MINLP
//! actually has the Table I shape the proof assumes. The solver used to
//! trust both; this crate checks them.
//!
//! Two analysis levels:
//!
//! * **Level 1 — instance analysis** ([`audit_instance`]): runs over a
//!   fitted curve set plus the compiled-from [`hslb_model::Model`] before
//!   every solve and produces an [`InstanceAudit`]:
//!   * a [`ConvexityCertificate`] — per-component coefficient-sign and
//!     exponent checks under an explicit [`EpsilonPolicy`] for near-zero
//!     fitted coefficients;
//!   * a [`ModelAudit`] — allowed-set domains nonempty/increasing/within
//!     the node budget and attached to `n_ocn` / `n_atm` exactly as
//!     declared, the constraint graph matches the declared layout's
//!     temporal structure, node-budget inequalities mutually satisfiable,
//!     and every `Convexity::Convex` declaration verified against the
//!     expression tree by a structural convexity checker
//!     ([`convexity::curvature`]).
//!
//!   A failed audit routes the instance to the degradation ladder's
//!   exhaustive rung instead of letting branch-and-bound claim a global
//!   optimum it cannot prove.
//!
//! * **Level 2 — source analysis** ([`source`], `audit-source` binary): a
//!   token-level scanner over the workspace's own `src/` trees enforcing
//!   project rules clippy cannot express (nondeterminism primitives in
//!   solver paths, float `==`/`!=` outside the tolerance helpers, lock
//!   acquisitions inside an admission-queue shard critical section,
//!   telemetry reads feeding solver control flow, and raw locks or raw
//!   blocking calls in the serving layer, which must go through the
//!   service crate's `ranked` wrappers so their runtime lock rule covers
//!   them — DESIGN.md §16). Files are lexed by [`lex`] — a hand-rolled
//!   std-only Rust lexer — so comments and string literals can neither
//!   create false findings nor mask real ones. Exceptions live in a
//!   reviewed allowlist file; diagnostics are deterministic and sorted.

pub mod certificate;
pub mod convexity;
pub mod lex;
pub mod source;
pub mod wellformed;

pub use certificate::{
    certify, CoeffClass, CoefficientFinding, ComponentCertificate, ConvexityCertificate,
    EpsilonPolicy,
};
pub use convexity::{curvature, Curvature};
pub use wellformed::{audit_model, ModelAudit, ModelExpectations, ObjectiveShape};

use hslb_cesm::Component;
use hslb_model::Model;
use hslb_nlsq::ScalingCurve;

/// The combined Level-1 result for one solve: the fit-side certificate
/// plus the model-side well-formedness report.
#[derive(Debug, Clone)]
pub struct InstanceAudit {
    pub certificate: ConvexityCertificate,
    pub model: ModelAudit,
}

impl InstanceAudit {
    /// True when both analyses found nothing.
    pub fn passed(&self) -> bool {
        self.certificate.passed() && self.model.passed()
    }

    /// Total violation count across both analyses.
    pub fn violation_count(&self) -> usize {
        self.certificate.violation_count() + self.model.violations.len()
    }

    /// One-line machine-readable summary (threaded into solver stats).
    pub fn summary(&self) -> String {
        if self.passed() {
            format!(
                "pass: {} components certified convex, model well-formed",
                self.certificate.components.len()
            )
        } else {
            let mut parts: Vec<String> = self
                .certificate
                .components
                .iter()
                .filter(|c| !c.passed())
                .map(|c| format!("{}: {}", c.component, c.violations.join("; ")))
                .collect();
            parts.extend(self.model.violations.iter().map(|v| v.to_string()));
            format!("fail: {}", parts.join(" | "))
        }
    }
}

impl std::fmt::Display for InstanceAudit {
    /// Deterministic, diff-friendly report: one line per check, sorted by
    /// component then rule.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "instance audit: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        )?;
        write!(f, "{}", self.certificate)?;
        write!(f, "{}", self.model)
    }
}

/// Run the full Level-1 instance analysis: certify the fitted curves and
/// audit the generated model against the declared layout expectations.
pub fn audit_instance(
    curves: &[(Component, ScalingCurve)],
    model: &Model,
    expect: &ModelExpectations,
) -> InstanceAudit {
    let eps = EpsilonPolicy::default();
    InstanceAudit {
        certificate: certify(curves, eps),
        model: audit_model(model, expect, eps),
    }
}
