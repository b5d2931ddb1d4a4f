//! Cross-crate property tests: the whole pipeline under randomized
//! configurations.

use cesm_hslb::hslb::{ExhaustiveOptimizer, Hslb, HslbOptions, Objective};
use cesm_hslb::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any sane target size and seed, the pipeline produces a valid,
    /// constraint-satisfying allocation whose prediction tracks execution.
    #[test]
    fn pipeline_always_produces_valid_allocations(seed in 0u64..50, pow in 7u32..12) {
        let n = 1i64 << pow; // 128..=2048
        let sim = Simulator::one_degree(seed);
        let report = Hslb::new(&sim, HslbOptions::new(n)).run(None).expect("pipeline");
        let a = report.hslb.allocation;
        prop_assert!(a.ice >= 1 && a.lnd >= 1 && a.atm >= 1 && a.ocn >= 1);
        prop_assert!(a.ice + a.lnd <= a.atm);
        prop_assert!(a.atm + a.ocn <= n);
        prop_assert!((a.ocn % 2 == 0 && a.ocn <= 480) || a.ocn == 768);
        prop_assert!(a.atm <= 1638 || a.atm == 1664);
        // Prediction within 15 % of the actual simulated run.
        let err = report.prediction_error_pct().unwrap();
        prop_assert!(err < 15.0, "prediction error {err}%");
    }

    /// The MINLP route never loses to enumeration (it is exact; the
    /// enumerated inner search is the approximate one).
    #[test]
    fn solver_never_beaten_by_enumeration(seed in 0u64..30, pow in 7u32..12) {
        let n = 1i64 << pow;
        let sim = Simulator::one_degree(seed);
        let h = Hslb::new(&sim, HslbOptions::new(n));
        let fits = h.fit(&h.gather()).expect("fit");
        let solved = h.solve(&fits).expect("solve");
        let truth = ExhaustiveOptimizer::for_problem(&fits, &h.problem()).try_solve(Objective::MinMax).unwrap();
        prop_assert!(
            solved.predicted_total <= truth.objective * (1.0 + 1e-4),
            "BB {} vs enumeration {}", solved.predicted_total, truth.objective
        );
    }

    /// More nodes never make the optimal predicted time worse.
    #[test]
    fn predicted_time_is_monotone_in_machine_size(seed in 0u64..20) {
        let sim = Simulator::one_degree(seed);
        let h = Hslb::new(&sim, HslbOptions::new(2048));
        let fits = h.fit(&h.gather()).expect("fit");
        let mut last = f64::INFINITY;
        for n in [128i64, 256, 512, 1024, 2048] {
            let problem =
                LayoutModelOptions::from_config(&sim.config, Layout::Hybrid, Objective::MinMax, n);
            let t = ExhaustiveOptimizer::for_problem(&fits, &problem)
                .try_solve(Objective::MinMax).unwrap()
                .objective;
            prop_assert!(t <= last * (1.0 + 1e-9), "time rose from {last} to {t} at N={n}");
            last = t;
        }
    }
}
