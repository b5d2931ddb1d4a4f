//! Validation of the MINLP branch-and-bound against independent ground
//! truth, plus the paper's solver-performance claims.

use cesm_hslb::hslb::{ExhaustiveOptimizer, Hslb, HslbOptions, Objective};
use cesm_hslb::prelude::*;

/// Fit curves once for a simulator/target pair.
fn fits_for(sim: &Simulator, target: i64) -> cesm_hslb::hslb::FitSet {
    let h = Hslb::new(sim, HslbOptions::new(target));
    h.fit(&h.gather()).expect("fit succeeds")
}

#[test]
fn bb_matches_exhaustive_enumeration_one_degree() {
    // At 1° the ocean set (241 values) and atmosphere set (1639 values)
    // are fully enumerable, so the exhaustive optimum is exact ground
    // truth. The branch-and-bound must match it.
    let sim = Simulator::one_degree(42);
    for target in [128, 512, 2048] {
        let fits = fits_for(&sim, target);
        let h = Hslb::new(&sim, HslbOptions::new(target));
        let solved = h.solve(&fits).expect("solve succeeds");

        let truth = ExhaustiveOptimizer::for_problem(&fits, &h.problem())
            .try_solve(Objective::MinMax)
            .unwrap();

        assert!(
            (solved.predicted_total - truth.objective).abs() <= 1e-4 * truth.objective,
            "N={target}: BB {} vs exhaustive {}",
            solved.predicted_total,
            truth.objective
        );
    }
}

#[test]
fn bb_matches_exhaustive_eighth_degree_constrained() {
    let sim = Simulator::eighth_degree(42);
    for target in [8192, 32_768] {
        let fits = fits_for(&sim, target);
        let h = Hslb::new(&sim, HslbOptions::new(target));
        let solved = h.solve(&fits).expect("solve succeeds");

        let truth = ExhaustiveOptimizer::for_problem(&fits, &h.problem())
            .try_solve(Objective::MinMax)
            .unwrap();
        // The DP is exact; the MINLP may stop within its gap.
        assert!(
            solved.predicted_total <= truth.objective * (1.0 + 1e-3),
            "N={target}: BB {} worse than enumeration {}",
            solved.predicted_total,
            truth.objective
        );
    }
}

#[test]
fn solves_the_full_machine_in_under_60_seconds() {
    // §III-E: "the MINLP for 40960 nodes took less than 60 seconds to
    // solve on one core". Our test budget is the same bound.
    let sim = Simulator::one_degree(42);
    let fits = fits_for(&sim, 2048);
    let h = Hslb::new(&sim, HslbOptions::new(Machine::intrepid().nodes));
    let t0 = std::time::Instant::now();
    let solved = h.solve(&fits).expect("full-machine solve");
    let elapsed = t0.elapsed();
    assert!(
        elapsed.as_secs() < 60,
        "40960-node MINLP took {elapsed:?} (paper: <60s)"
    );
    assert!(solved.predicted_total > 0.0);
}

#[test]
fn sos_branching_explores_fewer_nodes_than_binary_branching() {
    // §III-E: SOS branching "improved the runtime of the MINLP solver by
    // two orders of magnitude". Qualitative check: node count shrinks.
    // Domains and Table I's literal binaries reach the same total, to the
    // 4 µs the solver's tolerances leave open between two trees' ties.
    let sim = Simulator::one_degree(42);
    for target in [64, 96, 128, 256, 1024] {
        let fits = fits_for(&sim, target);

        let mut sos = HslbOptions::new(target);
        sos.solver.branching = Branching::SosFirst;
        let a = Hslb::new(&sim, sos).solve(&fits).expect("sos solve");

        let mut plain = HslbOptions::new(target);
        plain.solver.branching = Branching::IntegerOnly;
        plain.solver.node_limit = 200_000;
        let b = Hslb::new(&sim, plain).solve(&fits).expect("binary solve");

        assert!(
            (a.predicted_total - b.predicted_total).abs()
                <= (1e-9 * a.predicted_total.abs()).max(4e-6),
            "N={target}: domains predict {}, literal binaries {} ({})",
            a.predicted_total,
            b.predicted_total,
            b.allocation
        );
        let (na, nb) = (
            a.solver_stats.as_ref().unwrap().nodes,
            b.solver_stats.as_ref().unwrap().nodes,
        );
        assert!(na <= nb, "N={target}: SOS {na} nodes vs binary {nb} nodes");
    }
}

#[test]
fn objective_ablation_minmax_beats_sum() {
    // §III-D: the min-sum objective "performs much worse" as a proxy for
    // the coupled makespan. Solve both, evaluate both as makespans.
    let sim = Simulator::one_degree(42);
    let fits = fits_for(&sim, 1024);

    let minmax = Hslb::new(&sim, HslbOptions::new(1024))
        .solve(&fits)
        .expect("minmax");

    let mut sum_opts = HslbOptions::new(1024);
    sum_opts.objective = Objective::SumTime;
    let sum = Hslb::new(&sim, sum_opts).solve(&fits).expect("sum");

    let makespan = |a: &Allocation| {
        let icelnd = fits
            .predict(Component::Ice, a.ice)
            .max(fits.predict(Component::Lnd, a.lnd));
        (icelnd + fits.predict(Component::Atm, a.atm)).max(fits.predict(Component::Ocn, a.ocn))
    };
    let mm = makespan(&minmax.allocation);
    let ms = makespan(&sum.allocation);
    assert!(mm <= ms, "min-max makespan {mm} must beat min-sum's {ms}");
}

#[test]
fn maxmin_objective_runs_via_enumeration() {
    let sim = Simulator::one_degree(42);
    let fits = fits_for(&sim, 512);
    let mut opts = HslbOptions::new(512);
    opts.objective = Objective::MaxMin;
    let outcome = Hslb::new(&sim, opts).solve(&fits).expect("maxmin path");
    // The enumeration path reports no MINLP stats.
    assert!(outcome.solver_stats.is_none());
    // And all nodes on the concurrent dimension are used.
    assert_eq!(outcome.allocation.atm + outcome.allocation.ocn, 512);
}

#[test]
fn nlpbb_algorithm_agrees_on_real_model() {
    let sim = Simulator::one_degree(42);
    let fits = fits_for(&sim, 256);
    let lpnlp = Hslb::new(&sim, HslbOptions::new(256))
        .solve(&fits)
        .expect("lp/nlp");
    let mut opts = HslbOptions::new(256);
    opts.solver.algorithm = Algorithm::NlpBb;
    let nlpbb = Hslb::new(&sim, opts).solve(&fits).expect("nlp-bb");
    assert!(
        (lpnlp.predicted_total - nlpbb.predicted_total).abs() < 1e-4 * lpnlp.predicted_total,
        "{} vs {}",
        lpnlp.predicted_total,
        nlpbb.predicted_total
    );
}
