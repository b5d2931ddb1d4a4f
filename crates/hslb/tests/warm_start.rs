//! Warm-start bit-identity at the pipeline level (DESIGN.md §14).
//!
//! The warm dual-simplex path may take a different pivot route than the
//! cold two-phase solve, so LP vertices can differ in their last bits —
//! but the *pipeline deliverable* must not: the predicted total has to be
//! bit-for-bit identical with warm-start on or off. That is the
//! acceptance bar for the warm-start work: it buys time, never a
//! different answer.
//!
//! The inputs below are built from simulator seeds, no fixtures. Before
//! the re-solve checked its answers against the rows it stands for, each
//! of them either dug a tree of hundreds to thousands of nodes toward a
//! worse allocation that was still reported as the global optimum, fell
//! off the MINLP rung, or handed the simulator an allocation it rejects.

use hslb::{ExhaustiveOptimizer, Hslb, HslbOptions, Objective, SolverRung};
use hslb_cesm::{Layout, Simulator};

fn pipeline_opts(layout: Layout, nodes: i64, warm_start: bool) -> HslbOptions {
    let mut opts = HslbOptions::new(nodes);
    opts.layout = layout;
    opts.solver.warm_start = warm_start;
    opts
}

fn run_report(seed: u64, layout: Layout, nodes: i64, warm_start: bool) -> hslb::ExperimentReport {
    let sim = Simulator::one_degree(seed);
    Hslb::new(&sim, pipeline_opts(layout, nodes, warm_start))
        .run(None)
        .expect("pipeline run")
}

fn predicted(report: &hslb::ExperimentReport) -> f64 {
    report.hslb.predicted_total.expect("minlp objective")
}

/// The enumeration optimum for the same input, set up as the pipeline's
/// fallback rung sets it up.
fn enumerate(seed: u64, layout: Layout, nodes: i64) -> hslb::exhaustive::ExhaustiveResult {
    let sim = Simulator::one_degree(seed);
    let h = Hslb::new(&sim, pipeline_opts(layout, nodes, true));
    let fits = h.fit(&h.gather()).expect("fit");
    let res = ExhaustiveOptimizer::for_problem(&fits, &h.problem())
        .try_solve(Objective::MinMax)
        .unwrap();
    // The rung's answer has to be one the simulator will run.
    h.execute(&res.allocation)
        .unwrap_or_else(|e| panic!("{layout} seed {seed}: rung allocation rejected: {e}"));
    res
}

#[test]
fn warm_and_cold_incumbents_are_bit_identical() {
    let warm = run_report(20, Layout::Hybrid, 128, true);
    let cold = run_report(20, Layout::Hybrid, 128, false);
    assert_eq!(warm.hslb.allocation, cold.hslb.allocation);
    assert_eq!(predicted(&warm).to_bits(), predicted(&cold).to_bits());
    assert_eq!(
        warm.hslb.actual_total.to_bits(),
        cold.hslb.actual_total.to_bits()
    );
    let (ta, tb) = (
        warm.hslb.predicted.expect("minlp rung"),
        cold.hslb.predicted.expect("minlp rung"),
    );
    for (va, vb, c) in [
        (ta.lnd, tb.lnd, "lnd"),
        (ta.ice, tb.ice, "ice"),
        (ta.atm, tb.atm, "atm"),
        (ta.ocn, tb.ocn, "ocn"),
    ] {
        assert_eq!(va.to_bits(), vb.to_bits(), "predicted {c} differs");
    }
    // The warm run must actually have taken the warm path, or this test
    // proves nothing.
    let stats = warm.solver_stats.as_ref().expect("MINLP rung solved");
    assert!(
        stats.warm_resolves > 0,
        "warm-start on but zero warm resolves ({} lp solves)",
        stats.lp_solves
    );
    let cold_stats = cold.solver_stats.as_ref().expect("MINLP rung solved");
    assert_eq!(
        cold_stats.warm_resolves, 0,
        "warm-start off must never touch the warm path"
    );
    // The point of warm-starting: no more simplex work than cold.
    assert!(
        stats.simplex_iters <= cold_stats.simplex_iters,
        "warm {} iters > cold {} iters",
        stats.simplex_iters,
        cold_stats.simplex_iters
    );
    // A second machine seed, whose plateau of alternate optima makes the
    // argmin incomparable: the optimum itself must still agree bit for bit.
    let (warm, cold) = (
        run_report(42, Layout::Hybrid, 128, true),
        run_report(42, Layout::Hybrid, 128, false),
    );
    assert_eq!(predicted(&warm).to_bits(), predicted(&cold).to_bits());
}

/// One regression input: on the MINLP rung in a tree of at most 16 nodes
/// either way, warm optimum equal to the cold one within `rel_tol`
/// (0 = bit-identical). Returns the warm optimum.
fn assert_warm_equals_cold(seed: u64, layout: Layout, nodes: i64, rel_tol: f64) -> f64 {
    let what = format!("1deg {layout} n{nodes} seed {seed}");
    let warm = run_report(seed, layout, nodes, true);
    let cold = run_report(seed, layout, nodes, false);
    for (report, mode) in [(&warm, "warm"), (&cold, "cold")] {
        let rung = report.resilience.as_ref().expect("ladder report").rung;
        assert_eq!(
            rung,
            SolverRung::Minlp,
            "{what} ({mode}): left the MINLP rung"
        );
        let stats = report.solver_stats.as_ref().expect("solver stats");
        assert!(
            stats.nodes <= 16,
            "{what} ({mode}): {} branch-and-bound nodes",
            stats.nodes
        );
    }
    let (w, c) = (predicted(&warm), predicted(&cold));
    if rel_tol == 0.0 {
        assert_eq!(w.to_bits(), c.to_bits(), "{what}: warm {w} vs cold {c}");
    } else {
        assert!(
            (w - c).abs() <= rel_tol * c.abs(),
            "{what}: warm {w} vs cold {c}"
        );
    }
    w
}

#[test]
fn certified_hybrid_repros_match_the_enumeration() {
    for (seed, nodes) in [
        (2007, 2048),
        (2058, 2048),
        (2029, 4096),
        (51, 4096),
        (70, 4096),
    ] {
        let minlp = assert_warm_equals_cold(seed, Layout::Hybrid, nodes, 0.0);
        let truth = enumerate(seed, Layout::Hybrid, nodes).objective;
        assert_eq!(
            minlp.to_bits(),
            truth.to_bits(),
            "seed {seed} n{nodes}: MINLP {minlp} vs enumeration {truth}"
        );
    }
}

#[test]
fn full_machine_hybrid_repro_stays_shallow() {
    // 17,111 nodes and 4.3 s before the check.
    assert_warm_equals_cold(2052, Layout::Hybrid, 40_960, 0.0);
}

#[test]
fn sequential_layout_repros_match_their_exhaustive_rung() {
    for (seed, layout, nodes, expect) in [
        (44, Layout::SequentialWithOcean, 4096, 81.1752),
        (44, Layout::FullySequential, 2048, 140.6743),
    ] {
        let minlp = assert_warm_equals_cold(seed, layout, nodes, 0.0);
        assert!(
            (minlp - expect).abs() < 5e-4,
            "{layout}: {minlp} vs {expect}"
        );
        // The fallback rung used to ignore the allowed sets on these two
        // layouts (atm: 2048, ocn: 1762 for the sequential input) and so
        // "beat" the MINLP with an allocation the simulator rejects.
        let rung = enumerate(seed, layout, nodes).objective;
        assert!(
            (minlp - rung).abs() <= 1e-9 * rung,
            "{layout}: MINLP {minlp} vs exhaustive rung {rung}"
        );
    }
    assert_warm_equals_cold(42, Layout::FullySequential, 1024, 0.0);
}

#[test]
fn full_machine_sequential_repro_agrees_within_round_off() {
    // Uncertified, with near-tied land counts: the two paths may settle
    // on different members of the tie.
    assert_warm_equals_cold(45, Layout::FullySequential, 40_960, 1e-8);
}
