//! The fit fast-path invariant at pipeline level: fitted curves are
//! bit-identical with the multistart early-stop on or off, while the
//! fast path measurably skips redundant starts.

use hslb::{fit_all, Hslb, HslbOptions};
use hslb_cesm::{Component, Simulator};
use hslb_nlsq::{EarlyStopPolicy, ScalingFitOptions};

fn assert_bit_identical(a: &hslb::FitSet, b: &hslb::FitSet, label: &str) {
    for &c in &Component::OPTIMIZED {
        let (x, y) = (a.optimized_curve(c), b.optimized_curve(c));
        assert_eq!(x.a.to_bits(), y.a.to_bits(), "{label}: {c} a");
        assert_eq!(x.b.to_bits(), y.b.to_bits(), "{label}: {c} b");
        assert_eq!(x.c.to_bits(), y.c.to_bits(), "{label}: {c} c");
        assert_eq!(x.d.to_bits(), y.d.to_bits(), "{label}: {c} d");
    }
}

#[test]
fn fitted_curves_are_bit_identical_with_fast_path_on_or_off() {
    for (sim, target) in [
        (Simulator::one_degree(42), 128),
        (Simulator::eighth_degree(42), 8192),
    ] {
        let h = Hslb::new(&sim, HslbOptions::new(target));
        let data = h.gather();
        let full = fit_all(
            &data,
            &ScalingFitOptions {
                early_stop: None,
                ..ScalingFitOptions::default()
            },
        )
        .expect("full fit");
        assert!(
            full.iter().all(|(_, f)| !f.early_stopped),
            "early-stop must never fire when disabled"
        );
        let fast = fit_all(
            &data,
            &ScalingFitOptions {
                early_stop: Some(EarlyStopPolicy::default()),
                ..ScalingFitOptions::default()
            },
        )
        .expect("fast fit");
        assert_bit_identical(&full, &fast, "fast path");
        for (c, f) in fast.iter() {
            assert!(
                f.starts_run <= ScalingFitOptions::default().starts,
                "{c}: ran {} of {} starts",
                f.starts_run,
                ScalingFitOptions::default().starts
            );
            assert!(f.basin_hits <= f.starts_run);
        }
        // The fast path must actually fire somewhere, or it is not a
        // fast path at all.
        assert!(
            fast.iter().any(|(_, f)| f.early_stopped),
            "no component early-stopped"
        );
    }
}

#[test]
fn pipeline_default_fit_matches_disabled_fast_path() {
    // HslbOptions::new enables the early-stop policy; the produced fit
    // must still be bit-identical to a cold full fit of the same data.
    let sim = Simulator::one_degree(7);
    let h = Hslb::new(&sim, HslbOptions::new(128));
    let data = h.gather();
    let piped = h.fit(&data).expect("pipeline fit");
    let full = fit_all(
        &data,
        &ScalingFitOptions {
            early_stop: None,
            ..ScalingFitOptions::default()
        },
    )
    .expect("full fit");
    assert_bit_identical(&piped, &full, "pipeline default");
    let total_run: usize = piped.iter().map(|(_, f)| f.starts_run).sum();
    let total_full: usize = full.iter().map(|(_, f)| f.starts_run).sum();
    assert!(
        total_run < total_full,
        "fast path ran {total_run} starts vs {total_full} full"
    );
}
