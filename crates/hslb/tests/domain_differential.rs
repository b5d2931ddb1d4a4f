//! Allowed sets as discrete domains, held to ground truth.
//!
//! The product solves the layout models with the ocean/atmosphere sets as
//! domains on `n_ocn` / `n_atm`; `Branching::IntegerOnly` solves Table I's
//! literal binaries instead. On seeded random instances the two incumbents,
//! the exhaustive rung and a brute-force enumeration written here must all
//! predict the same total, and every allocation must lie in its sets. A
//! disagreeing instance is written out as AMPL for a second solver.
//!
//! The exhaustive rung answers every objective, max-min (no MINLP) included;
//! brute force holds it to the optimum of each.
//!
//! Above N = 512 brute force and the literal binaries are too slow, and the
//! exhaustive rung's table DP is the ground truth the compact model is held
//! to, up to N = 40,960, for min-max and min-sum. The DP itself is held to
//! the laws any exact min-max or min-sum optimum obeys.

use hslb::{
    build_layout_model, ExhaustiveOptimizer, FitSet, Hslb, HslbOptions, LayoutModelOptions,
    NodeFloors, Objective, SolverRung,
};
use hslb_cesm::{Allocation, Component, Layout, Machine, NoiseSpec, ResolutionConfig, Simulator};
use hslb_minlp::{compile, solve, Branching, MinlpOptions, MinlpStatus};
use hslb_model::VarType;
use hslb_nlsq::ScalingCurve;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

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

/// The objective's value at `a`: the layout's total for min-max, the sum
/// for min-sum, the least component time for max-min.
fn value(fits: &FitSet, objective: Objective, layout: Layout, a: &Allocation) -> f64 {
    let times = Component::OPTIMIZED.map(|c| fits.predict(c, a.get(c)));
    match objective {
        Objective::MinMax => fits.predicted_total(layout, a),
        Objective::SumTime => times.iter().sum(),
        Objective::MaxMin => times.into_iter().fold(f64::INFINITY, f64::min),
    }
}

/// `c`'s time at every count `0..=N`, or `absent` where the count is
/// below `c`'s floor or outside its allowed set.
fn times(inst: &Instance, c: Component, absent: f64) -> Vec<f64> {
    let o = &inst.opts;
    let (floor, allowed) = match c {
        Component::Ice => (o.floors.ice, &None),
        Component::Lnd => (o.floors.lnd, &None),
        Component::Atm => (o.floors.atm, &o.atm_allowed),
        _ => (o.floors.ocn, &o.ocean_allowed),
    };
    (0..=o.total_nodes)
        .map(|k| {
            let ok = k >= floor.max(1) && allowed.as_ref().is_none_or(|s| s.contains(&k));
            if ok {
                inst.fits.predict(c, k)
            } else {
                absent
            }
        })
        .collect()
}

/// `t`'s least value over every count up to each `k`.
fn prefix_min(t: &[f64]) -> Vec<f64> {
    t.iter()
        .scan(f64::INFINITY, |m, &v| {
            *m = m.min(v);
            Some(*m)
        })
        .collect()
}

/// Exact optimum by enumeration, independent of both the solver and the
/// exhaustive rung: per component a table of times over its admissible
/// counts, prefix minima for "any count up to k", then the layout's
/// composition rule over every outer choice. `None` when nothing fits.
fn brute_force(inst: &Instance) -> Option<f64> {
    if inst.opts.objective == Objective::MaxMin {
        return brute_force_max_min(inst);
    }
    let sum = inst.opts.objective == Objective::SumTime;
    // Two parts side by side: the slower one, or both for min-sum.
    let beside = |x: f64, y: f64| if sum { x + y } else { x.max(y) };
    let (n, inf) = (inst.opts.total_nodes, f64::INFINITY);
    let [ice, lnd, atm, ocn] = Component::OPTIMIZED.map(|c| times(inst, c, inf));
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
                    .map(|ni| beside(ice[ni], lnd_to[na - ni]))
                    .fold(inf, f64::min);
                beside(icelnd + atm[na], ocn_to[n - na])
            })
            .fold(inf, f64::min),
        Layout::SequentialWithOcean => (0..=n)
            .map(|no| beside(ice_to[n - no] + lnd_to[n - no] + atm_to[n - no], ocn[no]))
            .fold(inf, f64::min),
        Layout::FullySequential => ice_to[n] + lnd_to[n] + atm_to[n] + ocn_to[n],
    };
    best.is_finite().then_some(best)
}

/// Max-min's optimum by enumeration: the largest least time over the
/// allocations that use every node — side-by-side counts fill their group,
/// a sequence's members (and its owner) each take all of it.
fn brute_force_max_min(inst: &Instance) -> Option<f64> {
    let [ice, lnd, atm, ocn] = Component::OPTIMIZED.map(|c| times(inst, c, f64::NEG_INFINITY));
    let n = inst.opts.total_nodes as usize;
    let worst = f64::NEG_INFINITY;
    let best = match inst.opts.layout {
        Layout::Hybrid => (0..=n)
            .map(|na| {
                let icelnd = (0..=na)
                    .map(|ni| ice[ni].min(lnd[na - ni]))
                    .fold(worst, f64::max);
                icelnd.min(atm[na]).min(ocn[n - na])
            })
            .fold(worst, f64::max),
        Layout::SequentialWithOcean => (0..=n)
            .map(|no| ice[n - no].min(lnd[n - no]).min(atm[n - no]).min(ocn[no]))
            .fold(worst, f64::max),
        Layout::FullySequential => ice[n].min(lnd[n]).min(atm[n]).min(ocn[n]),
    };
    best.is_finite().then_some(best)
}

/// The hybrid optimum under the `T_sync` window (Table I lines 18–19) by
/// enumeration: ice and land side by side inside the atmosphere's nodes,
/// every exact pair of their counts whose times differ by at most
/// `tsync` — no prefix minimum on either, since the window couples the
/// two counts. `None` when nothing fits.
fn brute_force_tsync(inst: &Instance, tsync: f64) -> Option<f64> {
    let inf = f64::INFINITY;
    let [ice, lnd, atm, ocn] = Component::OPTIMIZED.map(|c| times(inst, c, inf));
    let n = inst.opts.total_nodes as usize;
    // pair[s]: the best max(T_i, T_l) over n_i + n_l = s inside the window.
    let mut pair = vec![inf; n + 1];
    for (ni, &ti) in ice.iter().enumerate() {
        for (nl, &tl) in lnd.iter().enumerate().take(n + 1 - ni) {
            if (ti - tl).abs() <= tsync {
                pair[ni + nl] = pair[ni + nl].min(ti.max(tl));
            }
        }
    }
    let (icelnd, ocn_to) = (prefix_min(&pair), prefix_min(&ocn));
    let best = (0..=n)
        .map(|na| (icelnd[na] + atm[na]).max(ocn_to[n - na]))
        .fold(inf, f64::min);
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
    ExhaustiveOptimizer::for_problem(&inst.fits, &inst.opts)
}

/// The exhaustive rung's optimum for `inst`'s objective, `None` when
/// nothing fits.
fn dp_total(inst: &Instance) -> Option<f64> {
    exhaustive(inst)
        .try_solve(inst.opts.objective)
        .map(|r| r.objective)
}

/// Does `a` pass the layout's node rows, the floors and the allowed sets?
fn in_sets(opts: &LayoutModelOptions, a: &Allocation) -> bool {
    let member = |v: i64, set: &Option<Vec<i64>>| set.as_ref().is_none_or(|s| s.contains(&v));
    opts.layout.check(a, opts.total_nodes).is_none()
        && member(a.ocn, &opts.ocean_allowed)
        && member(a.atm, &opts.atm_allowed)
        && (a.lnd >= opts.floors.lnd && a.ice >= opts.floors.ice)
        && (a.atm >= opts.floors.atm && a.ocn >= opts.floors.ocn)
}

/// Every way `inst` can be answered; an `Err` names the first disagreement.
/// Up to N = 512 the truth is the brute force above and all three solvers
/// answer (the literal binaries for min-max only); beyond it (`large`) the
/// truth is the exhaustive rung and the compact model answers. Max-min has
/// no MINLP: only the rung answers.
fn cross_check(inst: &Instance, large: bool) -> Result<(), String> {
    let (fits, opts) = (&inst.fits, &inst.opts);
    let truth = if large {
        dp_total(inst)
    } else {
        brute_force(inst)
    };
    let mut answers = Vec::new();
    if opts.objective.is_convex_minlp() {
        match build_layout_model(fits, opts) {
            Ok(lm) => {
                answers.push((
                    "compact model",
                    incumbent(&lm, &lm.model, Branching::SosFirst),
                ));
                if !large && opts.objective == Objective::MinMax {
                    answers.push((
                        "expanded binaries",
                        incumbent(&lm, &lm.model.expand_domains(), Branching::IntegerOnly),
                    ));
                }
            }
            // An allowed set with no value inside [floor, N] is refused
            // when the model is built; then nothing may fit in truth either.
            Err(e) => {
                if let Some(t) = truth {
                    return Err(format!("builder refused ({e}) but {t} is attainable"));
                }
            }
        }
    }
    answers.push((
        "exhaustive rung",
        exhaustive(inst)
            .try_solve(opts.objective)
            .map(|r| r.allocation),
    ));
    for (who, alloc) in answers {
        match (alloc, truth) {
            (None, None) => {}
            (Some(a), Some(t)) => {
                if !in_sets(opts, &a) {
                    return Err(format!("{who}: {a} leaves its sets, floors or budget"));
                }
                let got = value(fits, opts.objective, opts.layout, &a);
                if !close(got, t) {
                    return Err(format!("{who}: {a} scores {got}, the optimum is {t}"));
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
        "seed {seed} ({:?}, {}, N = {}, ocean {}, atm {}, floors {:?}): {why}\n\
         AMPL repro written to {}",
        inst.opts.layout,
        inst.opts.objective,
        inst.opts.total_nodes,
        shape(&inst.opts.ocean_allowed),
        shape(&inst.opts.atm_allowed),
        inst.opts.floors,
        path.display()
    );
}

/// The three objectives of §III-D.
const OBJECTIVES: [Objective; 3] = [Objective::MinMax, Objective::SumTime, Objective::MaxMin];

/// `inst` asked under `objective`.
fn under(inst: &Instance, objective: Objective) -> Instance {
    let mut inst = inst.clone();
    inst.opts.objective = objective;
    inst
}

#[test]
fn compact_expanded_and_enumerated_optima_agree_on_random_instances() {
    let mut infeasible = [0; 3];
    for seed in 0..400u64 {
        let base = random_instance(seed);
        for (o, objective) in OBJECTIVES.into_iter().enumerate() {
            let inst = under(&base, objective);
            if brute_force(&inst).is_none() {
                infeasible[o] += 1;
            }
            if let Err(why) = cross_check(&inst, false) {
                report(seed, &inst, &why);
            }
        }
    }
    // The generator must exercise both verdicts, mostly the feasible one
    // — except for max-min, whose budget must use every node: most
    // random sets leave it no allocation at all.
    for (objective, n) in OBJECTIVES.into_iter().zip(infeasible) {
        let most = if objective == Objective::MaxMin {
            300
        } else {
            100
        };
        assert!((1..most).contains(&n), "{objective}: {n} infeasible");
    }
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
            floors: NodeFloors::default(),
            ..LayoutModelOptions::from_config(&config, layout, Objective::MinMax, 4096)
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
/// rung's table DP and the compact model agree on every seed, for min-max
/// and min-sum. (Brute force and the literal binaries stop at N = 512.)
#[test]
fn exhaustive_rung_and_compact_model_agree_up_to_full_scale() {
    for seed in 0..180u64 {
        let base = instance_in(10_000 + seed, 513..=40_960);
        for objective in [Objective::MinMax, Objective::SumTime] {
            let inst = under(&base, objective);
            if let Err(why) = cross_check(&inst, true) {
                report(10_000 + seed, &inst, &why);
            }
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

/// The exhaustive rung is reachable for every objective on the paper's own
/// fits (the experiment simulator, ocean set dropped): min-sum and min-max
/// when the MINLP's deadline has passed (1° layout 2, N = 512), max-min on
/// its normal route (1/8° hybrid, N = 8192). Each answer keeps its sets and
/// floors and reaches the optimum: the MINLP's without a deadline, or for
/// max-min the brute force's.
#[test]
fn exhaustive_rung_is_reached_for_every_objective_on_the_paper_fits() {
    let cases = [
        (
            ResolutionConfig::one_degree(),
            Layout::SequentialWithOcean,
            512,
            Objective::SumTime,
        ),
        (
            ResolutionConfig::one_degree(),
            Layout::SequentialWithOcean,
            512,
            Objective::MinMax,
        ),
        (
            ResolutionConfig::eighth_degree(),
            Layout::Hybrid,
            8192,
            Objective::MaxMin,
        ),
    ];
    for (config, layout, n, objective) in cases {
        let sim = Simulator::new(
            Machine::intrepid(),
            config.without_ocean_constraint(),
            NoiseSpec::default(),
            42,
        );
        let mut opts = HslbOptions::new(n);
        opts.layout = layout;
        opts.objective = objective;
        let h = Hslb::new(&sim, opts.clone());
        let inst = Instance {
            fits: h.fit(&h.gather()).expect("fit"),
            opts: h.problem(),
        };
        let truth = if objective.is_convex_minlp() {
            let report = h.run(None).expect("MINLP run");
            let rung = report.resilience.expect("run() reports").rung;
            assert_eq!(rung, SolverRung::Minlp, "{objective} without a deadline");
            value(&inst.fits, objective, layout, &report.hslb.allocation)
        } else {
            brute_force(&inst).expect("a max-min allocation fits")
        };

        opts.solver.time_limit = Some(Duration::ZERO);
        let report = Hslb::new(&sim, opts).run(None).expect("the ladder answers");
        let res = report.resilience.expect("run() reports");
        assert_eq!(
            res.rung,
            SolverRung::Exhaustive,
            "{objective}: {:?}",
            res.fallbacks
        );
        let a = report.hslb.allocation;
        assert!(in_sets(&inst.opts, &a), "{objective}: {a}");
        let got = value(&inst.fits, objective, layout, &a);
        assert!(
            close(got, truth),
            "{objective}: {a} scores {got}, the optimum is {truth}"
        );
    }
}

/// One of an instance's allowed sets, by reference.
type SetOf = fn(&mut Instance) -> &mut Option<Vec<i64>>;

/// Laws any exact min-max optimum obeys, on the exhaustive rung for every
/// layout at N ≤ 2048: more nodes never raise the total; swapping the ice
/// and land curves at equal floors leaves it unchanged; an extra allowed
/// ocean or atmosphere count never raises it; dropping a count the
/// optimum does not use leaves it unchanged. The min-sum total obeys the
/// first two. Three instances per layout are also checked against the
/// compact model.
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
            let fail_from = |law: &str, got: f64, from: f64| -> ! {
                report(
                    20_000 + seed,
                    &inst,
                    &format!("{law}: {got} against {from}"),
                )
            };
            let fail = |law: &str, got: f64| fail_from(law, got, t);

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

            let sum = |i: &Instance| total(&under(i, Objective::SumTime));
            if sum(&more) > sum(&inst) {
                fail_from(
                    "more nodes raised the min-sum total",
                    sum(&more),
                    sum(&inst),
                );
            }
            if sum(&swapped) != sum(&even) {
                let law = "swapping ice and land moved the min-sum total";
                fail_from(law, sum(&swapped), sum(&even));
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

/// The frontier is the solve at every budget: on every seed of both
/// draws (N ≤ 512 and N ∈ [513, 40960]), on every layout with the seed's
/// allowed sets and floors, `frontier().at(m)` equals `try_solve` at
/// `total_nodes = m`, allocation and makespan bit for bit. It is checked
/// at every budget up to N = 64 and otherwise at N and 16 drawn budgets
/// per layout (51 per seed); the frontier's makespan never rises with `m`.
#[test]
fn frontier_is_the_solve_at_every_budget() {
    let draws = (0..400u64)
        .map(|seed| (seed, 8..=512))
        .chain((0..180u64).map(|seed| (10_000 + seed, 513..=40_960)));
    for (seed, nodes) in draws {
        let base = instance_in(seed, nodes);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = base.opts.total_nodes;
        for layout in Layout::ALL {
            let mut inst = base.clone();
            inst.opts.layout = layout;
            let opt = exhaustive(&inst);
            let frontier = opt.frontier().expect("N ≤ 2^20");
            let budgets: Vec<i64> = if n <= 64 {
                (0..=n).collect()
            } else {
                (0..16).map(|_| rng.gen_range(0..n)).chain([n]).collect()
            };
            for m in budgets {
                let solve = ExhaustiveOptimizer {
                    total_nodes: m,
                    ..opt.clone()
                }
                .try_solve(Objective::MinMax)
                .map(|r| (r.allocation, r.objective.to_bits()));
                let read = frontier.at(m).map(|(a, t)| (a, t.to_bits()));
                if read != solve {
                    let why = format!("at m = {m} the frontier reads {read:?}, a solve {solve:?}");
                    report(seed, &inst, &why);
                }
            }
            let mut last = f64::INFINITY;
            for m in 0..=n {
                if let Some((_, t)) = frontier.at(m) {
                    if t > last {
                        report(seed, &inst, &format!("the makespan rose to {t} at m = {m}"));
                    }
                    last = t;
                }
            }
        }
    }
}

/// The `T_sync` window held to brute force: on hybrid instances at
/// N ≤ [`TSYNC_MAX_NODES`], with a window drawn log-uniformly between
/// 0.001 and 1 times the instance's optimum without it, the compact
/// model's incumbent keeps its sets, floors and budget, keeps ice and land
/// within the window (to the solver's 1e-6 feasibility tolerance), and
/// reaches the enumerated optimum. The window's rows are non-convex and
/// enforced by branching on the integer counts. The corpus must hold
/// instances the window binds on (28 of 300) and instances only the window
/// makes infeasible (145).
#[test]
fn tsync_window_matches_brute_force() {
    let (mut bound, mut infeasible) = (0, 0);
    for seed in 0..TSYNC_SEEDS {
        let mut inst = instance_in(seed, 8..=TSYNC_MAX_NODES);
        inst.opts.layout = Layout::Hybrid;
        let free = brute_force(&inst);
        let mut rng = StdRng::seed_from_u64(30_000 + seed);
        let tsync = free.unwrap_or(1.0) * log_uniform(&mut rng, 1e-3, 1.0);
        inst.opts.tsync = Some(tsync);
        let truth = brute_force_tsync(&inst, tsync);
        match (truth, free) {
            (None, Some(_)) => infeasible += 1,
            (Some(t), Some(free)) if !close(t, free) => bound += 1,
            _ => {}
        }
        let got = match build_layout_model(&inst.fits, &inst.opts) {
            Ok(lm) => incumbent(&lm, &lm.model, Branching::SosFirst),
            Err(_) => None,
        };
        let why = match (got, truth) {
            (None, None) => continue,
            (Some(a), Some(t)) => {
                let gap = inst.fits.predict(Component::Ice, a.ice)
                    - inst.fits.predict(Component::Lnd, a.lnd);
                let got = value(&inst.fits, Objective::MinMax, Layout::Hybrid, &a);
                if !in_sets(&inst.opts, &a) {
                    format!("{a} leaves its sets, floors or budget")
                } else if gap.abs() > tsync + 1e-6 {
                    format!("{a}: ice and land differ by {gap} s, window {tsync} s")
                } else if !close(got, t) {
                    format!("{a} scores {got}, the optimum in a {tsync} s window is {t}")
                } else {
                    continue;
                }
            }
            (a, t) => format!("answered {a:?}, enumeration {t:?} (window {tsync} s)"),
        };
        report(seed, &inst, &why);
    }
    assert!(bound > 0, "the window never bound");
    assert!(
        infeasible > 0,
        "the window never left an instance infeasible"
    );
}

/// Seeds and largest budget of [`tsync_window_matches_brute_force`]: the
/// window's branching grows fast with N (one hybrid instance at N = 431
/// takes 53 s), so the corpus stays at N ≤ 64, ~4 s in the test profile.
const TSYNC_SEEDS: u64 = 300;
const TSYNC_MAX_NODES: i64 = 64;

/// `autotune --deadline`'s question on the paper's 1/8° machine (ocean
/// set and memory floors; the fits the pipeline gathers at N = 8192): the
/// cheapest frontier size meeting a 4000 s deadline is what the
/// pipeline's own exhaustive rung, re-solved at that size on the same
/// fits and configuration, answers — same allocation, same value bits,
/// within the deadline — and the frontier at 8192 is the rung's answer at
/// 8192.
#[test]
fn deadline_frontier_is_the_pipelines_exhaustive_answer() {
    let machine = Machine::intrepid();
    let sim = Simulator::new(
        machine.clone(),
        ResolutionConfig::eighth_degree(),
        NoiseSpec::default(),
        42,
    );
    let h = Hslb::new(&sim, HslbOptions::new(8192));
    let fits = h.fit(&h.gather()).expect("fit");
    // The pipeline's exhaustive rung at `m`: the MINLP's deadline has
    // passed, and the gathered fits stand in for a fit at `m`.
    let rung = |m: i64| {
        let mut opts = HslbOptions::new(m);
        opts.curve_override = Some(fits.clone());
        opts.solver.time_limit = Some(Duration::ZERO);
        let report = Hslb::new(&sim, opts).run(None).expect("the ladder answers");
        let rung = report.resilience.expect("run() reports").rung;
        assert_eq!(rung, SolverRung::Exhaustive, "N = {m}");
        let t = report.hslb.predicted_total.expect("the rung predicts");
        (report.hslb.allocation, t.to_bits())
    };
    let frontier = hslb::cost::frontier(&fits, &sim.config, &machine, Layout::Hybrid, 512, 8192);
    let optima = ExhaustiveOptimizer::for_problem(&fits, &h.problem())
        .frontier()
        .expect("N ≤ 2^20");
    let read = |m: i64| {
        let (a, t) = optima.at(m).expect("the frontier holds m");
        (a, t.to_bits())
    };
    let pick = hslb::cost::cheapest_within_deadline(&frontier, 4000.0).expect("a size meets it");
    assert!(pick.time_s <= 4000.0);
    assert_eq!(read(pick.nodes).1, pick.time_s.to_bits());
    assert_eq!(rung(pick.nodes), read(pick.nodes), "at m = {}", pick.nodes);
    let last = frontier.last().expect("the frontier reaches 8192");
    assert_eq!(last.nodes, 8192);
    assert_eq!(read(8192).1, last.time_s.to_bits());
    assert_eq!(rung(8192), read(8192));
}
