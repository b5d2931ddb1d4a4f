//! Degradation-ladder tests: the pipeline under injected faults and
//! solver deadlines must finish with a usable allocation (or a typed
//! error) — never a panic, and never silently pretending nothing broke.

use std::time::Duration;

use cesm_hslb::prelude::*;
use proptest::prelude::*;

/// A fault-free 1°/128 baseline to compare degraded runs against.
fn fault_free_baseline() -> ExperimentReport {
    let sim = Simulator::one_degree(42);
    Hslb::new(&sim, HslbOptions::new(128))
        .run(None)
        .expect("clean pipeline")
}

#[test]
fn expired_deadline_falls_back_to_the_exhaustive_optimum() {
    // A 0 ms wall-clock budget guarantees the MINLP rung expires with no
    // incumbent; the ladder must step down to exhaustive enumeration and
    // land on the *same* 1°/128 optimum branch-and-bound would have found
    // (both are exact on this small instance, over identical gather data).
    let baseline = fault_free_baseline();

    let sim = Simulator::one_degree(42);
    let mut opts = HslbOptions::new(128);
    opts.solver.time_limit = Some(Duration::ZERO);
    let report = Hslb::new(&sim, opts)
        .run(None)
        .expect("ladder rescues the run");

    let res = report
        .resilience
        .as_ref()
        .expect("resilience report present");
    assert_eq!(
        res.rung,
        SolverRung::Exhaustive,
        "fallbacks: {:?}",
        res.fallbacks
    );
    assert!(res.degraded_accuracy, "a forced fallback must be flagged");
    assert!(
        res.fallbacks.iter().any(|f| f.contains("deadline")),
        "the MINLP deadline expiry should be on the record: {:?}",
        res.fallbacks
    );
    // The two exact solvers may break ties differently in the ice/land
    // split, but the optimal objective value must agree.
    let exhaustive_opt = report
        .hslb
        .predicted_total
        .expect("fallback carries a prediction");
    let minlp_opt = baseline
        .hslb
        .predicted_total
        .expect("baseline carries a prediction");
    assert!(
        (exhaustive_opt - minlp_opt).abs() <= 1e-6 * minlp_opt.abs(),
        "exhaustive fallback optimum {exhaustive_opt} must match the MINLP optimum {minlp_opt}"
    );
    assert_eq!(report.hslb.allocation.ocn, baseline.hslb.allocation.ocn);
}

#[test]
fn thirty_percent_failures_and_zero_deadline_stay_within_fifteen_percent() {
    // The issue's acceptance scenario: 30 % of runs fail outright AND the
    // solver gets 0 ms. The pipeline must complete, say which rung saved
    // it, and produce a makespan within 15 % of the fault-free optimum.
    let baseline = fault_free_baseline();

    let faults = FaultSpec {
        fail_rate: 0.3,
        ..FaultSpec::none()
    };
    let faults = FaultSpec { seed: 5, ..faults };
    let sim = Simulator::one_degree(42).with_faults(faults);
    let mut opts = HslbOptions::new(128);
    opts.solver.time_limit = Some(Duration::ZERO);
    let report = Hslb::new(&sim, opts)
        .run(None)
        .expect("degraded pipeline completes");

    let res = report
        .resilience
        .as_ref()
        .expect("resilience report present");
    assert_ne!(
        res.rung,
        SolverRung::Minlp,
        "the dead solver cannot be the chosen rung"
    );
    assert!(
        !res.fallbacks.is_empty(),
        "fallback reasons must be recorded"
    );
    assert!(res.degraded_accuracy);

    let degraded = report.hslb.actual_total;
    let optimum = baseline.hslb.actual_total;
    assert!(
        degraded <= 1.15 * optimum,
        "degraded makespan {degraded:.2}s vs fault-free optimum {optimum:.2}s (>15% off)"
    );
}

#[test]
fn gather_report_accounts_for_every_injected_failure() {
    // With pure run failures, every benchmark point must be recovered by
    // retry or substitution — and the report must say which.
    let faults = FaultSpec {
        seed: 11,
        fail_rate: 0.3,
        ..FaultSpec::none()
    };
    let sim = Simulator::one_degree(42).with_faults(faults);
    let h = Hslb::new(&sim, HslbOptions::new(128));
    let (data, gather) = h.gather_resilient();

    assert!(
        gather.failed_runs > 0,
        "a 30% fail rate over ~36 runs should hit at least once"
    );
    assert!(!gather.is_clean());
    assert_eq!(
        gather.attempts,
        gather.succeeded + gather.failed_runs + gather.hung_runs
    );
    assert!(
        gather.meets_minimum(4),
        "D >= 4 per component (paper §III-C): {gather}"
    );
    assert!(data.covers_optimized(4));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For ANY fault seed and flakiness level, the pipeline either returns
    /// a valid constraint-satisfying allocation or a typed `HslbError` —
    /// it must never panic and never emit garbage node counts.
    #[test]
    fn any_fault_seed_yields_allocation_or_typed_error(seed in 0u64..10_000, pct in 0u32..45) {
        let rate = f64::from(pct) / 100.0;
        let sim = Simulator::one_degree(7).with_faults(FaultSpec::flaky(seed, rate));
        let mut opts = HslbOptions::new(128);
        // Keep hung benchmark runs bounded so the hang fault family fires.
        opts.retry.run_budget_seconds = Some(3600.0);
        match Hslb::new(&sim, opts).run(None) {
            Ok(report) => {
                let a = report.hslb.allocation;
                prop_assert!(a.ice >= 1 && a.lnd >= 1 && a.atm >= 1 && a.ocn >= 1);
                prop_assert!(a.ice + a.lnd <= a.atm);
                prop_assert!(a.atm + a.ocn <= 128);
                prop_assert!(report.hslb.actual_total.is_finite());
                let res = report.resilience.expect("resilience report present");
                // A faulty campaign that needed no rescue is fine; one that
                // did must carry the evidence.
                if res.rung != SolverRung::Minlp {
                    prop_assert!(!res.fallbacks.is_empty());
                }
            }
            Err(e) => {
                // Typed, displayable error — the contract under total loss.
                let shown = e.to_string();
                prop_assert!(!shown.is_empty());
            }
        }
    }
}

#[test]
fn a_gather_too_thin_to_fit_reaches_the_simulated_expert() {
    // One benchmark count per component: `fit_scaling` refuses every
    // curve, so neither the MINLP nor the exhaustive rung has curves to
    // solve, and the simulated expert tunes on the simulator itself.
    let sim = Simulator::one_degree(42);
    let mut opts = HslbOptions::new(128);
    opts.gather = GatherPlan::Explicit(vec![128]);
    let report = Hslb::new(&sim, opts)
        .run(None)
        .expect("the expert rung answers");
    let res = report.resilience.as_ref().expect("run() reports");
    assert_eq!(res.rung, SolverRung::SimulatedExpert, "{:?}", res.fallbacks);
    assert!(res.degraded_accuracy);
    let reason = |prefix: &str, text: &str| {
        res.fallbacks
            .iter()
            .any(|f| f.starts_with(prefix) && f.contains(text))
    };
    assert!(
        reason("fit rung:", "need at least two points"),
        "{:?}",
        res.fallbacks
    );
    assert!(
        reason("expert rung:", "tuned an allocation"),
        "{:?}",
        res.fallbacks
    );
    // No curves, so no prediction; the allocation ran on the simulator.
    assert!(report.fits.is_empty() && report.hslb.predicted_total.is_none());
    let a = report.hslb.allocation;
    let run = sim
        .run_case(&a, Layout::Hybrid, 0)
        .expect("the allocation runs");
    assert!(run.total.is_finite() && report.hslb.actual_total.is_finite());
}
