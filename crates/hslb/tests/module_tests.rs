//! Cross-module tests within the hslb crate: pipeline option combos,
//! report rendering with solver stats, tuning under the real calibrated
//! curves, and the simulated expert across sizes.

use hslb::manual::SimulatedExpert;
use hslb::{snap_to_sweet_spots, GatherPlan, Hslb, HslbOptions};
use hslb_cesm::{Layout, Machine, NoiseSpec, Resolution, ResolutionConfig, Simulator};

#[test]
fn layout2_and_layout3_pipelines_run_end_to_end() {
    // The paper only executes layout 1; our simulator can run all three.
    let sim = Simulator::one_degree(42);
    let mut totals = Vec::new();
    for layout in Layout::ALL {
        let mut opts = HslbOptions::new(256);
        opts.layout = layout;
        let report = Hslb::new(&sim, opts).run(None).expect("pipeline");
        assert!(report.hslb.actual_total > 0.0);
        totals.push(report.hslb.actual_total);
    }
    // Figure 4 ordering holds on *executed* runs too.
    assert!(
        totals[2] > totals[0],
        "fully-sequential {} must beat hybrid {}",
        totals[2],
        totals[0]
    );
}

#[test]
fn depth_first_on_real_model() {
    let sim = Simulator::one_degree(42);
    let h = Hslb::new(&sim, HslbOptions::new(512));
    let fits = h.fit(&h.gather()).unwrap();
    let base = h.solve(&fits).unwrap();

    let mut opts = HslbOptions::new(512);
    opts.solver.node_selection = hslb_minlp::NodeSelection::DepthFirst;
    let combo = Hslb::new(&sim, opts).solve(&fits).unwrap();
    assert!(
        (base.predicted_total - combo.predicted_total).abs() < 1e-5 * base.predicted_total,
        "{} vs {}",
        base.predicted_total,
        combo.predicted_total
    );
}

#[test]
fn tsync_solve_is_consistent_across_node_orders() {
    // Nonconvex constraints are enforced by branching, not cuts: the
    // optimum must not depend on the order the tree is walked in.
    let sim = Simulator::one_degree(42);
    let fits = {
        let h = Hslb::new(&sim, HslbOptions::new(256));
        h.fit(&h.gather()).unwrap()
    };
    let mut best_first = HslbOptions::new(256);
    best_first.tsync = Some(10.0);
    let a = Hslb::new(&sim, best_first).solve(&fits).unwrap();

    let mut depth_first = HslbOptions::new(256);
    depth_first.tsync = Some(10.0);
    depth_first.solver.node_selection = hslb_minlp::NodeSelection::DepthFirst;
    let b = Hslb::new(&sim, depth_first).solve(&fits).unwrap();
    assert!((a.predicted_total - b.predicted_total).abs() < 1e-6 * a.predicted_total);
    // The sync window is honored in both.
    for outcome in [&a, &b] {
        let gap = (outcome.predicted.ice - outcome.predicted.lnd).abs();
        assert!(gap <= 10.0 + 1e-6, "gap {gap}");
    }
}

#[test]
fn report_display_includes_solver_work() {
    let sim = Simulator::one_degree(42);
    let report = Hslb::new(&sim, HslbOptions::new(128)).run(None).unwrap();
    assert!(report.solver_stats.is_some());
    let stats = report.solver_stats.as_ref().unwrap();
    assert!(stats.nodes >= 1);
    assert!(stats.lp_solves > 0);
    assert!(stats.cuts > 0);
    let shown = format!("{report}");
    assert!(shown.contains("Total time"));
}

#[test]
fn simulated_expert_scales_to_high_resolution() {
    let sim = Simulator::eighth_degree(7);
    let (alloc, runs) = SimulatedExpert::default().tune(&sim, 8192);
    assert!(runs <= 10, "expert burned {runs} runs");
    let run = sim
        .run_case(&alloc, Layout::Hybrid, 77)
        .expect("valid allocation");
    // Sanity: within 2x of the HSLB result at the same size.
    let hslb_total = Hslb::new(&sim, HslbOptions::new(8192))
        .run(None)
        .unwrap()
        .hslb
        .actual_total;
    assert!(
        run.total < 2.0 * hslb_total,
        "expert {} vs hslb {hslb_total}",
        run.total
    );
}

#[test]
fn tuning_on_calibrated_curves_stays_near_optimal() {
    // Snapping must cost only a few percent relative to the solver's
    // unconstrained-by-sweet-spots optimum (the paper's tuned run was
    // *better* in actuality because real sweet spots exist; our curves
    // don't reward snapping, so we only bound the loss).
    let sim = Simulator::new(
        Machine::intrepid(),
        ResolutionConfig::eighth_degree().without_ocean_constraint(),
        NoiseSpec::default(),
        42,
    );
    let h = Hslb::new(&sim, HslbOptions::new(32_768));
    let fits = h.fit(&h.gather()).unwrap();
    let solved = h.solve(&fits).unwrap();
    let tuned = snap_to_sweet_spots(
        &fits,
        Resolution::EighthDegree,
        Layout::Hybrid,
        32_768,
        &solved.allocation,
    );
    assert!(
        tuned.predicted_total <= solved.predicted_total * 1.03,
        "tuning lost too much: {} vs {}",
        tuned.predicted_total,
        solved.predicted_total
    );
    assert_eq!(tuned.allocation.atm % 8, 0);
    assert_eq!(tuned.allocation.ocn % 4, 0);
}

#[test]
fn explicit_gather_at_paper_counts_reproduces_calibration() {
    // Benchmark exactly at the paper's published node counts: the fit
    // should then be extremely close to the calibrated ground truth.
    let sim = Simulator::one_degree(42);
    let mut opts = HslbOptions::new(2048);
    opts.gather = GatherPlan::Explicit(vec![24, 80, 104, 384, 1280, 1664]);
    let h = Hslb::new(&sim, opts);
    let fits = h.fit(&h.gather()).unwrap();
    for &c in &hslb_cesm::Component::OPTIMIZED {
        for n in [50i64, 200, 800] {
            let rel = (fits.predict(c, n) - sim.truth(c, n)).abs() / sim.truth(c, n);
            assert!(rel < 0.2, "{c}@{n}: rel err {rel}");
        }
    }
}

#[test]
fn uncertified_clean_gather_says_which_component_fell_short() {
    // 1/8°, fully sequential, the whole 8192-node partition, seed 42: no
    // run fails, the audit passes, the MINLP rung answers from a one-node
    // tree — and the answer is not certified, because the atmosphere's
    // 1,024-node memory floor collapses three of the five planned
    // benchmark counts into one, leaving it 3 points against the paper's
    // D ≥ 4. The report must say so.
    let sim = Simulator::eighth_degree(42);
    let mut opts = HslbOptions::new(8192);
    opts.layout = Layout::FullySequential;
    let min_points = opts.retry.min_points;
    let report = Hslb::new(&sim, opts).run(None).expect("pipeline");
    let res = report.resilience.as_ref().expect("run() always reports");
    assert!(res.gather.is_clean(), "{}", res.gather);
    assert_eq!(res.rung, hslb::SolverRung::Minlp);
    assert!(report.audit.as_ref().is_some_and(|a| a.passed()));
    assert!(res.degraded_accuracy && !report.global_optimum());

    let short: Vec<_> = res
        .gather
        .points
        .iter()
        .filter(|&(_, &kept)| kept < min_points)
        .collect();
    assert_eq!(short, [(&hslb_cesm::Component::Atm, &3)]);
    assert_eq!(res.fallbacks.len(), short.len(), "{:?}", res.fallbacks);
    for ((c, kept), reason) in short.into_iter().zip(&res.fallbacks) {
        assert_eq!(
            reason,
            &format!("gather: {c} kept {kept} benchmark points, below the minimum of {min_points}")
        );
    }
}
