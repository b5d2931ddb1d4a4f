//! `audit-instances`: the Level 1 instance-audit gate over a fixed
//! scenario grid.
//!
//! For every instance of its grid this gathers, fits, builds the layout
//! MINLP and runs the full instance audit — each must produce a passing
//! convexity certificate and a well-formed model. It then runs the
//! negative self-test: a seeded non-convex fit set must be *rejected*
//! deterministically, routed to the exhaustive rung by the pipeline, and
//! never reported as a certified global optimum. Exit status is nonzero
//! when any expectation fails, so `scripts/check.sh` can gate on it.
//!
//! ```text
//! cargo run --release -p hslb-bench --bin audit-instances
//! cargo run --release -p hslb-bench --bin audit-instances -- --smoke
//! ```

use hslb::fit::FitSet;
use hslb::{Hslb, HslbError, HslbOptions};
use hslb_bench::simulator_for;
use hslb_cesm::{Component, Resolution, Simulator};
use hslb_nlsq::ScalingCurve;
use std::collections::BTreeMap;

/// The audited grid, `(resolution, nodes)`: the paper's two resolutions
/// at budgets around the Table III experiments.
const GRID: [(Resolution, i64); 5] = [
    (Resolution::OneDegree, 64),
    (Resolution::OneDegree, 128),
    (Resolution::OneDegree, 256),
    (Resolution::EighthDegree, 8192),
    (Resolution::EighthDegree, 16_384),
];

/// `--smoke`: one budget per resolution.
const SMOKE_GRID: [(Resolution, i64); 2] = [
    (Resolution::OneDegree, 96),
    (Resolution::EighthDegree, 8192),
];

/// Audit one scenario's instance: the pipeline's strict solve, which
/// audits its problem's model before it solves. Returns an error line on
/// failure.
fn audit_scenario(resolution: Resolution, nodes: i64) -> Result<String, String> {
    let name = format!("{resolution} N={nodes}");
    let sim = simulator_for(resolution, true);
    let h = Hslb::new(&sim, HslbOptions::new(nodes));
    let fits = h
        .fit(&h.gather())
        .map_err(|e| format!("{name}: fit failed: {e}"))?;
    let audit = match h.solve(&fits) {
        Ok(solved) => solved
            .audit
            .ok_or(format!("{name}: solved without an audit"))?,
        Err(HslbError::AuditRejected { audit }) => *audit,
        Err(e) => return Err(format!("{name}: solve failed: {e}")),
    };
    if audit.passed() {
        Ok(format!(
            "{name}: PASS ({} components certified, {} convex rows verified, {} allowed sets)",
            audit.certificate.components.len(),
            audit.model.convex_verified,
            audit.model.sos_sets_checked
        ))
    } else {
        Err(format!("{name}: FAIL\n{audit}"))
    }
}

/// A fit set with a deliberately non-convex atmosphere curve (negative
/// power coefficient, exponent in (0, 1)).
fn non_convex_fits() -> FitSet {
    let convex = ScalingCurve {
        a: 120.0,
        b: 0.01,
        c: 1.2,
        d: 2.0,
    };
    let broken = ScalingCurve {
        a: 100.0,
        b: -0.5,
        c: 0.5,
        d: 5.0,
    };
    let mut curves = BTreeMap::new();
    curves.insert(Component::Lnd, convex);
    curves.insert(Component::Ice, convex);
    curves.insert(Component::Atm, broken);
    curves.insert(Component::Ocn, convex);
    FitSet::from_curves(curves).expect("all four components present")
}

/// The negative self-test: the audit must reject the seeded instance and
/// the pipeline must degrade to the exhaustive rung without claiming a
/// global optimum. Returns error lines for any expectation that fails.
fn self_test() -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    let sim = Simulator::one_degree(7);

    // Strict API: rejection, deterministically the same summary twice.
    let h = Hslb::new(&sim, HslbOptions::new(128));
    let reject = |h: &Hslb| match h.solve(&non_convex_fits()) {
        Err(HslbError::AuditRejected { audit }) => Ok(audit.summary()),
        Err(other) => Err(format!("self-test: expected AuditRejected, got: {other}")),
        Ok(_) => Err("self-test: non-convex instance was NOT rejected".to_string()),
    };
    let first = reject(&h)?;
    let second = reject(&h)?;
    if first != second {
        return Err(format!(
            "self-test: rejection is not deterministic:\n  {first}\n  {second}"
        ));
    }
    lines.push(format!("self-test reject: PASS ({first})"));

    // Full pipeline: the ladder must rescue the run on the exhaustive
    // rung and the report must refuse the optimality claim.
    let mut opts = HslbOptions::new(128);
    opts.curve_override = Some(non_convex_fits());
    let report = Hslb::new(&sim, opts)
        .run(None)
        .map_err(|e| format!("self-test: ladder failed to rescue the run: {e}"))?;
    let rung = report
        .resilience
        .as_ref()
        .map(|r| r.rung)
        .ok_or("self-test: run() produced no resilience report")?;
    if rung != hslb::SolverRung::Exhaustive {
        return Err(format!("self-test: expected exhaustive rung, got {rung}"));
    }
    if report.global_optimum() {
        return Err("self-test: rejected instance still claims a global optimum".to_string());
    }
    lines.push(format!(
        "self-test ladder: PASS (rung {rung}, optimality refused)"
    ));
    Ok(lines)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut failed = false;
    let grid: &[(Resolution, i64)] = if smoke { &SMOKE_GRID } else { &GRID };
    for &(resolution, nodes) in grid {
        match audit_scenario(resolution, nodes) {
            Ok(line) => println!("audit-instances: {line}"),
            Err(line) => {
                failed = true;
                eprintln!("audit-instances: {line}");
            }
        }
    }
    match self_test() {
        Ok(lines) => {
            for line in lines {
                println!("audit-instances: {line}");
            }
        }
        Err(line) => {
            failed = true;
            eprintln!("audit-instances: {line}");
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("audit-instances: all instances certified, negative self-test rejected");
}
