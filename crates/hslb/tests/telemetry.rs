//! Pipeline-level telemetry guarantees: the span tree mirrors the
//! gather → fit → solve → execute phases, instrumentation never changes
//! the allocation, and the solver's counter totals equal its `SolveStats`.

use hslb::{Hslb, HslbOptions};
use hslb_cesm::Simulator;
use hslb_telemetry::{span_tree, Telemetry};

fn run_with(telemetry: Telemetry) -> hslb::ExperimentReport {
    let sim = Simulator::one_degree(42).with_telemetry(telemetry.clone());
    let mut opts = HslbOptions::new(128);
    opts.telemetry = telemetry;
    Hslb::new(&sim, opts).run(None).expect("pipeline")
}

#[test]
fn pipeline_run_reconstructs_phase_span_tree() {
    let tel = Telemetry::new();
    run_with(tel.clone());
    let tree = span_tree(&tel.events());
    let pipeline = tree
        .iter()
        .find(|n| n.name == "pipeline")
        .expect("root pipeline span");
    let phases: Vec<&str> = pipeline.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(phases, ["gather", "fit", "solve", "execute"]);
    // Every phase closed, and the parent outlasts each child.
    let total = pipeline.dur_ms.expect("pipeline span closed");
    for child in &pipeline.children {
        assert!(child.dur_ms.expect("phase span closed") <= total);
    }
}

#[test]
fn telemetry_never_changes_the_allocation() {
    let silent = run_with(Telemetry::disabled());
    let observed = run_with(Telemetry::new());
    assert_eq!(silent.hslb.allocation, observed.hslb.allocation);
    assert_eq!(silent.hslb.actual_total, observed.hslb.actual_total);
    assert_eq!(
        silent.hslb.predicted_total, observed.hslb.predicted_total,
        "instrumentation must be strictly passive"
    );
}

#[test]
fn counters_match_solver_stats() {
    let tel = Telemetry::new();
    let report = run_with(tel.clone());
    let stats = report.solver_stats.expect("MINLP rung solved");
    assert_eq!(tel.counter("minlp.nodes"), stats.nodes as u64);
    assert_eq!(tel.counter("minlp.lp_solves"), stats.lp_solves as u64);
    assert_eq!(
        tel.counter("minlp.simplex_iters"),
        stats.simplex_iters as u64
    );
    assert_eq!(tel.counter("minlp.cuts"), stats.cuts as u64);
    assert_eq!(tel.counter("minlp.incumbents"), stats.incumbents as u64);
    assert_eq!(
        tel.counter("minlp.pruned"),
        (stats.pruned_by_bound + stats.pruned_infeasible) as u64
    );
    assert_eq!(
        tel.counter("minlp.warm_resolves"),
        stats.warm_resolves as u64
    );
    assert_eq!(
        tel.counter("minlp.warm_fallbacks"),
        stats.warm_fallbacks as u64
    );
    assert!(
        stats.warm_resolves > 0,
        "a multi-node solve must exercise the warm dual-simplex path"
    );
}

#[test]
fn gather_counters_match_the_report() {
    use hslb_cesm::FaultSpec;
    let tel = Telemetry::new();
    let sim = Simulator::one_degree(77).with_faults(FaultSpec::flaky(77, 0.2));
    let mut opts = HslbOptions::new(128);
    opts.telemetry = tel.clone();
    let (_, report) = Hslb::new(&sim, opts).gather_resilient();
    assert_eq!(tel.counter("gather.attempts"), report.attempts as u64);
    assert_eq!(tel.counter("gather.succeeded"), report.succeeded as u64);
    assert_eq!(tel.counter("gather.failed_runs"), report.failed_runs as u64);
    assert_eq!(tel.counter("gather.hung_runs"), report.hung_runs as u64);
    // Each retry recorded its backoff wait; the histogram sum is the
    // report's total.
    let snap = tel.snapshot();
    if report.backoff_seconds > 0.0 {
        let h = &snap.hists["gather.backoff_s"];
        assert!((h.sum - report.backoff_seconds).abs() < 1e-9);
    }
    // Per-run points carry the component label.
    assert!(snap
        .events
        .iter()
        .filter(|e| e.name == "gather.run")
        .all(|e| e.labels.iter().any(|(k, _)| k == "component")));
}

#[test]
fn snapshot_of_a_real_run_round_trips_through_json() {
    let tel = Telemetry::new();
    run_with(tel.clone());
    let snap = tel.snapshot();
    let back = hslb_telemetry::Snapshot::from_json(&snap.to_json()).expect("round trip");
    assert_eq!(back.counters, snap.counters);
    assert_eq!(back.events.len(), snap.events.len());
    let tree = span_tree(&back.events);
    assert!(tree.iter().any(|n| n.name == "pipeline"));
}
