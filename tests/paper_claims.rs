//! One test per headline claim in the paper — the "shape" contract of the
//! reproduction (see EXPERIMENTS.md for the full paper-vs-measured log).

use cesm_hslb::hslb::{whatif, ExhaustiveOptimizer, Hslb, HslbOptions, Objective};
use cesm_hslb::prelude::*;

fn report_for(sim: &Simulator, n: i64) -> cesm_hslb::hslb::ExperimentReport {
    Hslb::new(sim, HslbOptions::new(n))
        .run(paper_manual_allocation(sim.resolution(), n))
        .expect("pipeline succeeds")
}

#[test]
fn claim_manual_and_hslb_are_close_at_one_degree() {
    // Table III, 1°: "'manual', HSLB predicted time, and HSLB actual total
    // times are very close to each other, even if node allocations to
    // components are substantially different … So our initial conclusion
    // is that HSLB works."
    let sim = Simulator::one_degree(42);
    for n in [128, 2048] {
        let r = report_for(&sim, n);
        let manual = r.manual.as_ref().unwrap().actual_total;
        let spread = (r.hslb.actual_total - manual).abs() / manual;
        assert!(
            spread < 0.12,
            "1°/{n}: HSLB {} vs manual {manual} differ by {:.0}%",
            r.hslb.actual_total,
            100.0 * spread
        );
    }
}

#[test]
fn claim_hslb_beats_manual_at_eighth_degree() {
    // §IV-B: "the HSLB predicted and actual times were reasonable and
    // improved by as much as 10% compared to the manual approach".
    let sim = Simulator::eighth_degree(42);
    let gains: Vec<f64> = [8192, 32_768]
        .iter()
        .map(|&n| report_for(&sim, n).improvement_over_manual_pct().unwrap())
        .collect();
    assert!(
        gains.iter().any(|&g| g >= 5.0),
        "expected a ≥5% win somewhere, got {gains:?}"
    );
    assert!(
        gains.iter().all(|&g| g > 0.0),
        "HSLB must win at 1/8°: {gains:?}"
    );
}

#[test]
fn claim_25_percent_with_unconstrained_ocean() {
    // §V: "we improved the speed of CESM on 32,768 nodes for 1/8°
    // resolution simulations by 25% compared to a baseline guess".
    let manual_alloc = paper_manual_allocation(Resolution::EighthDegree, 32_768).unwrap();
    let sim = Simulator::new(
        Machine::intrepid(),
        ResolutionConfig::eighth_degree().without_ocean_constraint(),
        NoiseSpec::default(),
        42,
    );
    let manual_total = sim
        .run_case(&manual_alloc, Layout::Hybrid, 1)
        .unwrap()
        .total;
    let hslb_total = Hslb::new(&sim, HslbOptions::new(32_768))
        .run(None)
        .unwrap()
        .hslb
        .actual_total;
    let gain = 100.0 * (manual_total - hslb_total) / manual_total;
    assert!(
        gain > 18.0,
        "paper claims ~25% vs baseline guess; measured {gain:.1}%"
    );
}

#[test]
fn claim_ice_is_the_noisy_component() {
    // §IV-A: "the comparison of timings for the ice component is slightly
    // worse compared to other components" due to decomposition defaults.
    let sim = Simulator::one_degree(42);
    let h = Hslb::new(&sim, HslbOptions::new(2048));
    let fits = h.fit(&h.gather()).unwrap();
    let r2_of = |c: Component| {
        fits.iter()
            .find(|(cc, _)| *cc == c)
            .map(|(_, f)| f.r_squared)
            .unwrap()
    };
    assert!(
        r2_of(Component::Ice) <= r2_of(Component::Atm),
        "ice fit should be no better than atm's"
    );
}

#[test]
fn claim_figure4_layout_ordering() {
    // Figure 4: layouts 1 and 2 perform similarly; layout 3 is worst.
    let sim = Simulator::one_degree(42);
    let h = Hslb::new(&sim, HslbOptions::new(2048));
    let fits = h.fit(&h.gather()).unwrap();
    let counts = [128i64, 256, 512, 1024, 2048];
    let pred = whatif::predict_layout_scaling(&fits, &sim.config, &counts);
    for (i, &count) in counts.iter().enumerate() {
        let (l1, l2, l3) = (
            pred[0].points[i].1,
            pred[1].points[i].1,
            pred[2].points[i].1,
        );
        assert!(l3 >= l1 && l3 >= l2, "layout 3 must be worst at N={count}");
        assert!(
            (l2 - l1).abs() / l1 < 0.25,
            "layouts 1 and 2 should be similar at N={count}: {l1} vs {l2}",
        );
    }
}

#[test]
fn claim_figure4_r2_between_prediction_and_experiment() {
    // "The R² between predicted and experimental data for layout (1) is
    // equal to 1.0."
    let sim = Simulator::one_degree(42);
    let h = Hslb::new(&sim, HslbOptions::new(2048));
    let fits = h.fit(&h.gather()).unwrap();
    let counts = [128i64, 256, 512, 1024, 2048];
    let pred = whatif::predict_layout_scaling(&fits, &sim.config, &counts);
    let predicted: Vec<f64> = pred[0].points.iter().map(|p| p.1).collect();
    let experimental: Vec<f64> = pred[0]
        .points
        .iter()
        .enumerate()
        .map(|(i, p)| sim.run_case(&p.2, Layout::Hybrid, i as u64).unwrap().total)
        .collect();
    let r2 = cesm_hslb::numerics::stats::r_squared(&experimental, &predicted).unwrap();
    assert!(r2 > 0.98, "Figure 4's R² ≈ 1 claim: measured {r2:.4}");
}

#[test]
fn claim_ocean_curve_poorly_captured_when_extrapolating() {
    // §IV-B: "the ocean scaling curve was not captured well during our fit
    // step" for counts far beyond the constrained benchmark range —
    // fitting only the constrained counts and predicting at 9812+ nodes
    // must be worse than interpolation.
    let sim = Simulator::new(
        Machine::intrepid(),
        ResolutionConfig::eighth_degree().without_ocean_constraint(),
        NoiseSpec::none(),
        42,
    );
    // Fit the ocean only at the small constrained counts (≤ 6124).
    let constrained_counts: Vec<i64> = vec![480, 512, 2356, 3136, 4564, 6124];
    let pts: Vec<(f64, f64)> = constrained_counts
        .iter()
        .map(|&n| (n as f64, sim.component_time(Component::Ocn, n, 0)))
        .collect();
    let fit = fit_scaling(&pts, &ScalingFitOptions::default()).unwrap();
    let rel_err = |n: i64| {
        let truth = sim.truth(Component::Ocn, n);
        (fit.curve.eval(n as f64) - truth).abs() / truth
    };
    // Interpolated counts are tight; extrapolating 2–3× beyond the data is
    // several times looser.
    let interp = rel_err(3000);
    let extrap = rel_err(19_460);
    assert!(
        extrap > interp,
        "extrapolation ({extrap:.3}) should be worse than interpolation ({interp:.3})"
    );
}

#[test]
fn claim_four_benchmark_points_suffice() {
    // §III-C: "for CESM, four points were enough to build well-fitted
    // scaling curves".
    let sim = Simulator::one_degree(42);
    let mut opts = HslbOptions::new(2048);
    opts.gather = GatherPlan::LogSpaced {
        min_nodes: 16,
        max_nodes: 2048,
        points: 4,
    };
    let h = Hslb::new(&sim, opts);
    let fits = h.fit(&h.gather()).unwrap();
    let min_r2 = fits.min_r_squared().expect("measured fits");
    assert!(
        min_r2 > 0.95,
        "4-point fits should still be good: min R² = {min_r2}"
    );
}

#[test]
fn claim_different_allocations_similar_quality() {
    // §III-C: "differences in the parameter values among locally optimal
    // solutions led to similar quality node allocations" — two different
    // fit seeds must produce allocations within a few % of each other.
    let sim = Simulator::one_degree(42);
    let mut totals = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut opts = HslbOptions::new(1024);
        opts.fit.seed = seed;
        let report = Hslb::new(&sim, opts).run(None).unwrap();
        totals.push(report.hslb.actual_total);
    }
    let worst = totals.iter().cloned().fold(f64::MIN, f64::max);
    let best = totals.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        (worst - best) / best < 0.05,
        "fit-seed sensitivity too high: {totals:?}"
    );
}

#[test]
fn claim_exhaustive_and_solver_agree_on_unconstrained_case() {
    // Cross-validation of the two independent optimizers on the headline
    // configuration.
    let sim = Simulator::new(
        Machine::intrepid(),
        ResolutionConfig::eighth_degree().without_ocean_constraint(),
        NoiseSpec::default(),
        42,
    );
    let h = Hslb::new(&sim, HslbOptions::new(32_768));
    let fits = h.fit(&h.gather()).unwrap();
    let solved = h.solve(&fits).unwrap();
    let enumerated = ExhaustiveOptimizer::for_problem(&fits, &h.problem())
        .try_solve(Objective::MinMax)
        .unwrap();
    // Both are exact: the totals agree to the solver's tolerances (1e-9
    // relative or 4 µs, as in the domain differential).
    let (a, b) = (solved.predicted_total, enumerated.objective);
    assert!(
        (a - b).abs() <= (1e-9 * a.abs().max(b.abs())).max(4e-6),
        "BB {a} vs enumeration {b}"
    );
}
