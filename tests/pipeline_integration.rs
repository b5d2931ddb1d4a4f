//! End-to-end pipeline tests spanning all workspace crates.

use cesm_hslb::prelude::*;

#[test]
fn full_pipeline_one_degree_128() {
    let sim = Simulator::one_degree(42);
    let pipeline = Hslb::new(&sim, HslbOptions::new(128));
    let manual = paper_manual_allocation(Resolution::OneDegree, 128);
    let report = pipeline.run(manual).expect("pipeline succeeds");

    // Fit quality: "R² was very close to 1 for each component".
    let min_r2 = report.min_r_squared().expect("measured fits");
    assert!(min_r2 > 0.95, "min R² = {min_r2}");

    // HSLB's prediction tracks the actual run (paper: within a few %).
    assert!(
        report.prediction_error_pct().unwrap() < 10.0,
        "prediction error {}%",
        report.prediction_error_pct().unwrap()
    );

    // The allocation satisfies all layout constraints and allowed sets.
    let a = report.hslb.allocation;
    assert!(a.ice + a.lnd <= a.atm);
    assert!(a.atm + a.ocn <= 128);
    assert!(a.ocn % 2 == 0 || a.ocn == 768);

    // HSLB total within 10 % of the expert's (paper Table III: 425 vs 416,
    // i.e. HSLB may be slightly worse at this small scale).
    let manual_total = report.manual.as_ref().unwrap().actual_total;
    assert!(
        report.hslb.actual_total < 1.10 * manual_total,
        "HSLB {} vs manual {manual_total}",
        report.hslb.actual_total
    );
}

#[test]
fn full_pipeline_eighth_degree_constrained_beats_manual() {
    // Paper §IV-B: "the HSLB predicted and actual times … improved by as
    // much as 10% compared to the manual approach" at both 8192 and 32768.
    for target in [8192, 32_768] {
        let sim = Simulator::eighth_degree(42);
        let pipeline = Hslb::new(&sim, HslbOptions::new(target));
        let manual = paper_manual_allocation(Resolution::EighthDegree, target);
        let report = pipeline.run(manual).expect("pipeline succeeds");
        let gain = report.improvement_over_manual_pct().unwrap();
        assert!(
            gain > 2.0,
            "expected a clear HSLB win at 1/8°/{target}, got {gain:+.1}%"
        );
        // Ocean stays within the hard-coded set.
        assert!(
            ResolutionConfig::eighth_degree_ocean_set().contains(&report.hslb.allocation.ocn),
            "ocean {} violates the constrained set",
            report.hslb.allocation.ocn
        );
    }
}

#[test]
fn unconstrained_ocean_unlocks_large_gain_at_32768() {
    // The headline: ~40 % predicted / ~25 % actual improvement when the
    // arbitrary ocean constraint is dropped at 32,768 nodes.
    let constrained = {
        let sim = Simulator::eighth_degree(42);
        Hslb::new(&sim, HslbOptions::new(32_768))
            .run(None)
            .expect("constrained solve")
    };
    let unconstrained = {
        let sim = Simulator::new(
            Machine::intrepid(),
            ResolutionConfig::eighth_degree().without_ocean_constraint(),
            NoiseSpec::default(),
            42,
        );
        Hslb::new(&sim, HslbOptions::new(32_768))
            .run(None)
            .expect("unconstrained solve")
    };
    let actual_gain = 100.0 * (constrained.hslb.actual_total - unconstrained.hslb.actual_total)
        / constrained.hslb.actual_total;
    let predicted_gain = 100.0
        * (constrained.hslb.predicted_total.unwrap() - unconstrained.hslb.predicted_total.unwrap())
        / constrained.hslb.predicted_total.unwrap();
    assert!(
        actual_gain > 15.0,
        "actual improvement {actual_gain:.1}% (paper: ~25%)"
    );
    assert!(
        predicted_gain > 20.0,
        "predicted improvement {predicted_gain:.1}% (paper: ~40%)"
    );
    // The freed ocean allocation moves off the hard-coded grid.
    assert!(unconstrained.hslb.allocation.ocn > 6124);
}

#[test]
fn gather_reuse_skips_benchmarking() {
    // §III-F: reuse archived benchmarks instead of re-running.
    let sim = Simulator::one_degree(7);
    let first = Hslb::new(&sim, HslbOptions::new(256));
    let data = first.gather();

    let mut opts = HslbOptions::new(256);
    opts.gather = GatherPlan::Reuse(data.clone());
    let second = Hslb::new(&sim, opts);
    let reused = second.gather();
    assert_eq!(
        reused.of(Component::Atm),
        data.of(Component::Atm),
        "reused data must be identical"
    );
    let report = second.run(None).expect("pipeline with reused data");
    assert!(report.hslb.actual_total > 0.0);
}

#[test]
fn pipeline_rejects_absurd_targets() {
    let sim = Simulator::one_degree(7);
    let err = Hslb::new(&sim, HslbOptions::new(2)).run(None);
    assert!(err.is_err());
}

#[test]
fn tsync_constraint_tightens_balance_but_may_cost_time() {
    // §III-A: "additional constraints, like Tsync, may actually result in
    // reduced performance of the algorithm because it imposes additional
    // synchronization constraints on the solution."
    let sim = Simulator::one_degree(42);
    let base = Hslb::new(&sim, HslbOptions::new(512))
        .run(None)
        .expect("base solve");

    let mut opts = HslbOptions::new(512);
    opts.tsync = Some(2.0); // a tight window in seconds
    let synced = Hslb::new(&sim, opts).run(None).expect("tsync solve");

    // The synchronized solution's predicted ice/land gap honors the window
    // (fitted curves, which is what the constraint is expressed over).
    let p = synced.hslb.predicted.unwrap();
    assert!(
        (p.ice - p.lnd).abs() <= 2.0 + 1e-6,
        "|ice − lnd| = {} exceeds T_sync",
        (p.ice - p.lnd).abs()
    );
    // And it can never beat the unconstrained optimum.
    assert!(synced.hslb.predicted_total.unwrap() >= base.hslb.predicted_total.unwrap() - 1e-6);
}
