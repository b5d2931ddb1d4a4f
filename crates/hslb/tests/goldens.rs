//! Byte-level goldens for everything derived from a layout's structure:
//! the Table I models as AMPL, the `env_mach_pes.xml` rank placement, and
//! the well-formedness audit's report on good and broken models.
//!
//! The fixtures under `tests/goldens/` were rendered once and are
//! compared byte for byte, so a builder, placement walk or audit rule
//! that drifts fails here even when every structural assertion elsewhere
//! still holds. A mismatching render is written next to the test binary's
//! scratch files for diffing.

use hslb::{build_layout_model, FitSet, LayoutModelOptions, Objective};
use hslb_audit::{audit_model, EpsilonPolicy};
use hslb_cesm::{pes, Allocation, Component, Layout, Machine, ResolutionConfig};
use hslb_model::{Convexity, Model};
use hslb_nlsq::ScalingCurve;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Fixed curves with every Table II term active (a non-integer exponent
/// exercises the `^` rendering).
fn fits() -> FitSet {
    let mk = |a: f64, b: f64, c: f64, d: f64| ScalingCurve { a, b, c, d };
    FitSet::from_curves(BTreeMap::from([
        (Component::Ice, mk(8_000.0, 1e-4, 1.5, 2.0)),
        (Component::Lnd, mk(1_500.0, 2e-5, 2.25, 1.0)),
        (Component::Atm, mk(30_000.0, 3e-3, 1.0, 10.0)),
        (Component::Ocn, mk(9_000.0, 7e-6, 2.5, 5.0)),
    ]))
    .expect("four components")
}

fn token(layout: Layout) -> &'static str {
    ["hybrid", "seq-ocean", "sequential"][usize::from(layout.number() - 1)]
}

/// Every model the goldens cover: 3 layouts × {min-max, min-sum} ×
/// {free, 1° sets and floors}, plus the hybrid `T_sync` window.
fn cases() -> Vec<(String, LayoutModelOptions)> {
    let mut out = Vec::new();
    for layout in Layout::ALL {
        for objective in [Objective::MinMax, Objective::SumTime] {
            for sets in [false, true] {
                let opts = if sets {
                    LayoutModelOptions::from_config(
                        &ResolutionConfig::one_degree(),
                        layout,
                        objective,
                        96,
                    )
                } else {
                    LayoutModelOptions {
                        objective,
                        ..LayoutModelOptions::free(layout, 96)
                    }
                };
                let name = format!(
                    "{}_{objective}_{}",
                    token(layout),
                    if sets { "sets" } else { "free" }
                );
                out.push((name, opts));
            }
        }
    }
    let mut tsync = LayoutModelOptions::free(Layout::Hybrid, 96);
    tsync.tsync = Some(5.0);
    out.push(("hybrid_min-max_tsync".to_string(), tsync));
    out
}

/// A model the audit must reject on structure: its first row renamed
/// (one missing, one unexpected) and its last row's convexity misdeclared.
fn malformed(model: &Model) -> Model {
    let mut m = model.clone();
    m.constraints[0].name.push_str("_renamed");
    let last = m.constraints.len() - 1;
    m.constraints[last].convexity = match m.constraints[last].convexity {
        Convexity::Nonconvex => Convexity::Linear,
        _ => Convexity::Nonconvex,
    };
    m
}

/// `(file name, rendered bytes)` for every golden.
fn renders() -> Vec<(String, String)> {
    let fits = fits();
    let mut out = Vec::new();
    let mut audits = String::new();
    for (name, opts) in cases() {
        let lm = build_layout_model(&fits, &opts).expect("model builds");
        out.push((format!("ampl_{name}.mod"), hslb_model::to_ampl(&lm.model)));
        let expect = opts.expectations();
        let audit = audit_model(&lm.model, &expect, EpsilonPolicy::default());
        audits.push_str(&format!("{name}\n{audit}"));
        if opts.objective == Objective::MinMax && opts.ocean_allowed.is_none() {
            let broken = audit_model(&malformed(&lm.model), &expect, EpsilonPolicy::default());
            audits.push_str(&format!("{name} malformed\n{broken}"));
        }
    }
    out.push(("audit.txt".to_string(), audits));

    // Two MPI tasks per node, so task counts and rank offsets differ.
    let machine = Machine {
        name: "golden".to_string(),
        nodes: 512,
        cores_per_node: 4,
        mpi_tasks_per_node: 2,
        threads_per_task: 2,
    };
    let alloc = Allocation::from_table_order([24, 80, 104, 24]);
    for layout in Layout::ALL {
        let xml = pes::build(&machine, layout, &alloc)
            .expect("valid for every layout")
            .to_xml();
        out.push((format!("pes_{}.xml", token(layout)), xml));
    }
    out
}

#[test]
fn layout_artifacts_match_their_goldens_byte_for_byte() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("goldens");
    let mut drifted = Vec::new();
    for (name, got) in renders() {
        let want = std::fs::read_to_string(dir.join(&name)).unwrap_or_default();
        if got != want {
            std::fs::create_dir_all(&scratch).expect("scratch dir");
            std::fs::write(scratch.join(&name), &got).expect("write render");
            drifted.push(name);
        }
    }
    assert!(
        drifted.is_empty(),
        "{} golden(s) drifted: {drifted:?}; renders written to {}",
        drifted.len(),
        scratch.display()
    );
}
