//! Allowed sets as discrete domains, held to ground truth.
//!
//! The product solves the layout models with the ocean/atmosphere sets as
//! domains on `n_ocn` / `n_atm`; `Branching::IntegerOnly` solves Table I's
//! literal binaries instead. On seeded random instances the two incumbents,
//! the exhaustive rung and a brute-force enumeration written here must all
//! predict the same total, and every allocation must lie in its sets. A
//! disagreeing instance is written out as AMPL for a second solver.
//!
//! Above N = 512 brute force and the literal binaries are too slow, and the
//! exhaustive rung's table DP is the ground truth the compact model is held
//! to, up to N = 40,960. The DP itself is held to the laws any exact
//! min-max optimum obeys.

use hslb::{
    build_layout_model, ExhaustiveOptimizer, FitSet, Hslb, HslbOptions, LayoutModelOptions,
    NodeFloors, Objective,
};
use hslb_cesm::{Allocation, Component, Layout, ResolutionConfig, Simulator};
use hslb_minlp::{compile, solve, Branching, MinlpOptions, MinlpStatus};
use hslb_model::VarType;
use hslb_nlsq::ScalingCurve;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the solver may lose to an exact optimum: it accepts an integer
/// point whose convex rows hold within `feas_tol` = 1e-6 s (a layout
/// chains up to three of them) and stops within `abs_gap` = 1e-7 s, so
/// totals agree to 1e-9 relative or those few microseconds, whichever is
/// larger. (Of the 400 seeds below one needs the absolute term: 3.4e-7 s.)
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= (1e-9 * a.abs().max(b.abs())).max(4e-6)
}

fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    (rng.gen_range(lo.ln()..hi.ln())).exp()
}

fn random_fits(rng: &mut StdRng) -> FitSet {
    let curves = Component::OPTIMIZED
        .iter()
        .map(|&c| {
            let curve = ScalingCurve {
                a: log_uniform(rng, 10.0, 1e5),
                b: log_uniform(rng, 1e-7, 1e-1),
                c: rng.gen_range(1.0..=3.0),
                d: log_uniform(rng, 0.05, 50.0),
            };
            (c, curve)
        })
        .collect();
    FitSet::from_curves(curves).expect("four components")
}

/// Most values a generated allowed set keeps before its outlier: a dense
/// set on a 40,960-node budget would otherwise list up to 80k counts.
const MAX_SET_LEN: usize = 4096;

/// One of the shapes the real configurations take, or a degenerate one.
fn random_allowed_set(rng: &mut StdRng, n: i64, outlier: i64) -> Option<Vec<i64>> {
    let mut set: Vec<i64> = match rng.gen_range(0..7u32) {
        0 => return None,
        // A dense range, like the 1° atmosphere set.
        1 => (1..=rng.gen_range(1..=2 * n)).collect(),
        // Even counts only, like the 1° ocean set.
        2 => (1..=rng.gen_range(1..=n)).map(|k| 2 * k).collect(),
        // A handful of scattered counts, like the 1/8° ocean set.
        3 => (0..rng.gen_range(1..=7u32))
            .map(|_| rng.gen_range(1..=n))
            .collect(),
        // A singleton.
        4 => vec![rng.gen_range(1..=n / 2)],
        // Only one value survives the trim to the node budget.
        5 => vec![rng.gen_range(1..=n / 2), n + 1, 2 * n],
        // A stride other than 1 or 2.
        _ => {
            let step = rng.gen_range(3..=9i64);
            (1..=n / step).map(|k| step * k).collect()
        }
    };
    set.truncate(MAX_SET_LEN);
    // The far outlier both 1° sets end in (768 / 1664).
    if rng.gen_bool(0.5) {
        set.push(outlier);
    }
    set.sort_unstable();
    set.dedup();
    Some(set)
}

#[derive(Clone)]
struct Instance {
    fits: FitSet,
    opts: LayoutModelOptions,
}

fn random_instance(seed: u64) -> Instance {
    instance_in(seed, 8..=512)
}

fn instance_in(seed: u64, nodes: std::ops::RangeInclusive<i64>) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(nodes);
    let floors = if rng.gen_bool(0.5) {
        NodeFloors::default()
    } else {
        NodeFloors::from_config(&ResolutionConfig::one_degree())
    };
    Instance {
        fits: random_fits(&mut rng),
        opts: LayoutModelOptions {
            layout: Layout::ALL[rng.gen_range(0..3usize)],
            objective: Objective::MinMax,
            total_nodes: n,
            floors,
            ocean_allowed: random_allowed_set(&mut rng, n, 768),
            atm_allowed: random_allowed_set(&mut rng, n, 1664),
            tsync: None,
        },
    }
}

/// Exact optimum by enumeration, independent of both the solver and the
/// exhaustive rung: per component a table of times over its admissible
/// counts, prefix minima for "any count up to k", then the layout's
/// composition rule over every outer choice. `None` when nothing fits.
fn brute_force(inst: &Instance) -> Option<f64> {
    let (n, fl) = (inst.opts.total_nodes, &inst.opts.floors);
    let inf = f64::INFINITY;
    // time[k] for k in 0..=n; ∞ where the count is not admissible.
    let table = |c: Component, floor: i64, allowed: &Option<Vec<i64>>| -> Vec<f64> {
        (0..=n)
            .map(|k| {
                let ok = k >= floor.max(1) && allowed.as_ref().is_none_or(|s| s.contains(&k));
                if ok {
                    inst.fits.predict(c, k)
                } else {
                    inf
                }
            })
            .collect()
    };
    let prefix_min = |t: &[f64]| -> Vec<f64> {
        t.iter()
            .scan(inf, |m, &v| {
                *m = m.min(v);
                Some(*m)
            })
            .collect()
    };
    let ice = table(Component::Ice, fl.ice, &None);
    let lnd = table(Component::Lnd, fl.lnd, &None);
    let atm = table(Component::Atm, fl.atm, &inst.opts.atm_allowed);
    let ocn = table(Component::Ocn, fl.ocn, &inst.opts.ocean_allowed);
    let (ice_to, lnd_to, atm_to, ocn_to) = (
        prefix_min(&ice),
        prefix_min(&lnd),
        prefix_min(&atm),
        prefix_min(&ocn),
    );
    let n = n as usize;
    let best = match inst.opts.layout {
        Layout::Hybrid => (0..=n)
            .map(|na| {
                // min over n_i + n_l ≤ na of max(T_i, T_l).
                let icelnd = (0..=na)
                    .map(|ni| ice[ni].max(lnd_to[na - ni]))
                    .fold(inf, f64::min);
                (icelnd + atm[na]).max(ocn_to[n - na])
            })
            .fold(inf, f64::min),
        Layout::SequentialWithOcean => (0..=n)
            .map(|no| (ice_to[n - no] + lnd_to[n - no] + atm_to[n - no]).max(ocn[no]))
            .fold(inf, f64::min),
        Layout::FullySequential => ice_to[n] + lnd_to[n] + atm_to[n] + ocn_to[n],
    };
    best.is_finite().then_some(best)
}

/// The MINLP incumbent for a built model, compact or literal.
fn incumbent(
    lm: &hslb::LayoutModel,
    model: &hslb_model::Model,
    branching: Branching,
) -> Option<Allocation> {
    let ir = compile(model).expect("layout models compile");
    let sol = solve(
        &ir,
        &MinlpOptions {
            branching,
            ..Default::default()
        },
    );
    match sol.status {
        MinlpStatus::Optimal => Some(lm.allocation(&sol.x)),
        MinlpStatus::Infeasible => None,
        other => panic!("unexpected status {other:?}"),
    }
}

/// The exhaustive rung configured for `inst`.
fn exhaustive(inst: &Instance) -> ExhaustiveOptimizer<'_> {
    let opts = &inst.opts;
    let mut opt = ExhaustiveOptimizer::new(&inst.fits, opts.layout, opts.total_nodes);
    opt.ocean_allowed = opts.ocean_allowed.clone();
    opt.atm_allowed = opts.atm_allowed.clone();
    opt.floors = opts.floors;
    opt
}

/// The exhaustive rung's min-max total for `inst`, `None` when nothing fits.
fn dp_total(inst: &Instance) -> Option<f64> {
    exhaustive(inst)
        .try_solve(Objective::MinMax)
        .map(|r| r.objective)
}

/// Every way `inst` can be answered; an `Err` names the first disagreement.
/// Up to N = 512 the truth is the brute force above and all three solvers
/// answer; beyond it (`large`) the truth is the exhaustive rung and the
/// compact model answers.
fn cross_check(inst: &Instance, large: bool) -> Result<(), String> {
    let (fits, opts) = (&inst.fits, &inst.opts);
    let truth = if large {
        dp_total(inst)
    } else {
        brute_force(inst)
    };
    let lm = match build_layout_model(fits, opts) {
        Ok(lm) => lm,
        // An allowed set with no value inside [floor, N] is refused when
        // the model is built; then nothing may fit in truth either.
        Err(e) => {
            return match truth {
                None => Ok(()),
                Some(t) => Err(format!("builder refused ({e}) but {t} is attainable")),
            }
        }
    };

    let in_sets = |a: &Allocation| {
        let member = |v: i64, set: &Option<Vec<i64>>| set.as_ref().is_none_or(|s| s.contains(&v));
        opts.layout.check(a, opts.total_nodes).is_none()
            && member(a.ocn, &opts.ocean_allowed)
            && member(a.atm, &opts.atm_allowed)
            && (a.lnd >= opts.floors.lnd && a.ice >= opts.floors.ice)
            && (a.atm >= opts.floors.atm && a.ocn >= opts.floors.ocn)
    };
    let mut answers = vec![(
        "compact model",
        incumbent(&lm, &lm.model, Branching::SosFirst),
    )];
    if !large {
        answers.push((
            "expanded binaries",
            incumbent(&lm, &lm.model.expand_domains(), Branching::IntegerOnly),
        ));
    }
    answers.push((
        "exhaustive rung",
        exhaustive(inst)
            .try_solve(Objective::MinMax)
            .map(|r| r.allocation),
    ));
    for (who, alloc) in answers {
        match (alloc, truth) {
            (None, None) => {}
            (Some(a), Some(t)) => {
                if !in_sets(&a) {
                    return Err(format!("{who}: {a} leaves its sets, floors or budget"));
                }
                let got = fits.predicted_total(opts.layout, &a);
                if !close(got, t) {
                    return Err(format!("{who}: {a} predicts {got}, the optimum is {t}"));
                }
            }
            (a, t) => return Err(format!("{who}: answered {a:?}, enumeration {t:?}")),
        }
    }
    Ok(())
}

/// Panic with `inst`'s shape and an AMPL repro a second solver can read.
fn report(seed: u64, inst: &Instance, why: &str) -> ! {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("domain_differential_seed{seed}.mod"));
    let repro = build_layout_model(&inst.fits, &inst.opts)
        .map(|lm| hslb_model::to_ampl(&lm.model))
        .unwrap_or_else(|e| format!("# model not built: {e}\n"));
    std::fs::write(&path, repro).expect("write repro");
    let shape = |set: &Option<Vec<i64>>| match set.as_deref() {
        None => "free".to_string(),
        Some([]) => "empty".to_string(),
        Some(s) => format!("{} values {}..={}", s.len(), s[0], s[s.len() - 1]),
    };
    panic!(
        "seed {seed} ({:?}, N = {}, ocean {}, atm {}, floors {:?}): {why}\n\
         AMPL repro written to {}",
        inst.opts.layout,
        inst.opts.total_nodes,
        shape(&inst.opts.ocean_allowed),
        shape(&inst.opts.atm_allowed),
        inst.opts.floors,
        path.display()
    );
}

#[test]
fn compact_expanded_and_enumerated_optima_agree_on_random_instances() {
    let mut infeasible = 0;
    for seed in 0..400u64 {
        let inst = random_instance(seed);
        if brute_force(&inst).is_none() {
            infeasible += 1;
        }
        if let Err(why) = cross_check(&inst, false) {
            report(seed, &inst, &why);
        }
    }
    // The generator must exercise both verdicts, mostly the feasible one.
    assert!((1..100).contains(&infeasible), "{infeasible} infeasible");
}

/// 1° at N = 4096, every layout, Table I's sets untrimmed (no memory
/// floors): the model the product solves has no binary and at most 8 LP
/// columns; the `IntegerOnly` model carries the 241 + 1,639 = 1,880
/// binaries of Table I lines 5–6, and both find the optimum.
#[test]
fn one_degree_compact_model_has_no_binaries() {
    let config = ResolutionConfig::one_degree();
    let sim = Simulator::one_degree(42);
    let fits = {
        let h = Hslb::new(&sim, HslbOptions::new(4096));
        h.fit(&h.gather()).expect("fit")
    };
    for layout in Layout::ALL {
        let opts = LayoutModelOptions {
            layout,
            objective: Objective::MinMax,
            total_nodes: 4096,
            floors: NodeFloors::default(),
            ocean_allowed: config.ocean_allowed.clone(),
            atm_allowed: config.atm_allowed.clone(),
            tsync: None,
        };
        let lm = build_layout_model(&fits, &opts).expect("model builds");
        let binaries = |m: &hslb_model::Model| {
            (0..m.num_vars())
                .filter(|&v| m.var_type(v) == VarType::Binary)
                .count()
        };
        assert_eq!(binaries(&lm.model), 0, "{layout}");
        let ir = compile(&lm.model).expect("compiles");
        assert!(ir.num_vars() <= 8, "{layout}: {} LP columns", ir.num_vars());
        assert_eq!(ir.domains.len(), 2, "{layout}");

        let literal = lm.model.expand_domains();
        assert_eq!(binaries(&literal), 1880, "{layout}");
        assert_eq!(
            compile(&literal).expect("compiles").num_vars(),
            ir.num_vars() + 1880
        );
        cross_check(
            &Instance {
                fits: fits.clone(),
                opts,
            },
            false,
        )
        .unwrap_or_else(|why| panic!("{layout}: {why}"));
    }
}

/// The §III-E ablation through the pipeline's one switch: `SosFirst`
/// branches on the sets, `IntegerOnly` on individual variables only and
/// pays for it in nodes — so the comparison cannot silently become two
/// runs of the same model.
#[test]
fn integer_only_really_branches_on_the_binaries() {
    let sim = Simulator::one_degree(42);
    let solve_with = |branching| {
        let mut opts = HslbOptions::new(1024);
        opts.solver.branching = branching;
        let h = Hslb::new(&sim, opts);
        let fits = h.fit(&h.gather()).expect("fit");
        let out = h.solve(&fits).expect("solve");
        (out.predicted_total, out.solver_stats.expect("MINLP stats"))
    };
    let (set_total, set_stats) = solve_with(Branching::SosFirst);
    let (bin_total, bin_stats) = solve_with(Branching::IntegerOnly);
    assert!(close(set_total, bin_total), "{set_total} vs {bin_total}");
    assert!(set_stats.sos_branches > 0, "{set_stats:?}");
    assert!(bin_stats.int_branches > 0 && bin_stats.sos_branches == 0);
    assert!(
        bin_stats.nodes > set_stats.nodes,
        "binary branching {} nodes vs set branching {}",
        bin_stats.nodes,
        set_stats.nodes
    );
}

/// At full scale: for N ∈ [513, 40960], every layout, the exhaustive
/// rung's table DP and the compact model agree on every seed. (Brute
/// force and the literal binaries stop at N = 512.)
#[test]
fn exhaustive_rung_and_compact_model_agree_up_to_full_scale() {
    for seed in 0..180u64 {
        let inst = instance_in(10_000 + seed, 513..=40_960);
        if let Err(why) = cross_check(&inst, true) {
            report(10_000 + seed, &inst, &why);
        }
    }
    // 1° curves at N = 4096 and 4097: either side of where the old
    // enumeration switched to a grid search.
    let sim = Simulator::one_degree(42);
    let h = Hslb::new(&sim, HslbOptions::new(2048));
    let fits = h.fit(&h.gather()).expect("fit");
    for n in [4096, 4097] {
        let inst = Instance {
            fits: fits.clone(),
            opts: LayoutModelOptions::free(Layout::Hybrid, n),
        };
        cross_check(&inst, true).unwrap_or_else(|why| panic!("1° N = {n}: {why}"));
    }
}

/// One of an instance's allowed sets, by reference.
type SetOf = fn(&mut Instance) -> &mut Option<Vec<i64>>;

/// Laws any exact min-max optimum obeys, on the exhaustive rung for every
/// layout at N ≤ 2048: more nodes never raise the total; swapping the ice
/// and land curves at equal floors leaves it unchanged; an extra allowed
/// ocean or atmosphere count never raises it; dropping a count the
/// optimum does not use leaves it unchanged. Three instances per layout
/// are also checked against the compact model.
#[test]
fn exhaustive_rung_obeys_the_min_max_laws() {
    let total = |inst: &Instance| dp_total(inst).unwrap_or(f64::INFINITY);
    for seed in 0..200u64 {
        let base = instance_in(20_000 + seed, 8..=2048);
        let mut rng = StdRng::seed_from_u64(seed);
        for layout in Layout::ALL {
            let mut inst = base.clone();
            inst.opts.layout = layout;
            let t = total(&inst);
            let fail = |law: &str, got: f64| -> ! {
                report(20_000 + seed, &inst, &format!("{law}: {got} against {t}"))
            };

            let mut more = inst.clone();
            more.opts.total_nodes += rng.gen_range(1..=64i64);
            if total(&more) > t {
                fail("more nodes raised the total", total(&more));
            }

            let mut even = inst.clone();
            even.opts.floors.lnd = even.opts.floors.ice;
            let mut swapped = even.clone();
            let curve = |c| even.fits.optimized_curve(c);
            swapped.fits = FitSet::from_curves(
                [
                    (Component::Ice, curve(Component::Lnd)),
                    (Component::Lnd, curve(Component::Ice)),
                    (Component::Atm, curve(Component::Atm)),
                    (Component::Ocn, curve(Component::Ocn)),
                ]
                .into_iter()
                .collect(),
            )
            .expect("four components");
            if total(&swapped) != total(&even) {
                fail("swapping ice and land moved the total", total(&swapped));
            }

            let used = exhaustive(&inst)
                .try_solve(Objective::MinMax)
                .map(|r| r.allocation);
            let sets: [(Component, SetOf); 2] = [
                (Component::Ocn, |i| &mut i.opts.ocean_allowed),
                (Component::Atm, |i| &mut i.opts.atm_allowed),
            ];
            for (c, field) in sets {
                let Some(set) = field(&mut inst.clone()).clone() else {
                    continue;
                };
                let with = |set: Vec<i64>| {
                    let mut i = inst.clone();
                    *field(&mut i) = Some(set);
                    total(&i)
                };
                let extra = rng.gen_range(1..=inst.opts.total_nodes);
                if !set.contains(&extra) {
                    let mut wider = set.clone();
                    wider.push(extra);
                    wider.sort_unstable();
                    let got = with(wider);
                    if got > t {
                        fail("an extra allowed count raised the total", got);
                    }
                }
                let in_use = used.map(|a| a.get(c));
                if let Some(&drop) = set.iter().find(|&&v| Some(v) != in_use) {
                    let got = with(set.iter().copied().filter(|&v| v != drop).collect());
                    if got != t {
                        fail("dropping an unused count moved the total", got);
                    }
                }
            }

            if seed < 3 {
                if let Err(why) = cross_check(&inst, true) {
                    report(20_000 + seed, &inst, &why);
                }
            }
        }
    }
}
