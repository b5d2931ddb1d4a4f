//! The three one-shot workloads: `Hslb::run` called directly, nothing
//! between the harness and the pipeline.
//!
//! * `oneshot_fit` — 1/8°, big budgets: the curve fit is nearly all of
//!   the op.
//! * `oneshot_solve` — 1°, budgets up to the whole machine: the MINLP
//!   root + cut rounds dominate.
//! * `bb_tree` — committed curves (`instances/bb_tree.json`) injected
//!   through `curve_override`, so the fit is bypassed and the same deep
//!   branch-and-bound trees are searched whatever a later fit does.

use crate::gen::XorShift;
use crate::harness::{Answer, Layers, Outcome, Pass, Question, Workload};
use crate::trace::Tracer;
use hslb::layout_model::{build_layout_model, LayoutModelOptions, NodeFloors};
use hslb::{ExhaustiveOptimizer, ExperimentReport, FitSet, Hslb, HslbOptions, SolverRung};
use hslb_cesm::{Component, Layout, Machine, NoiseSpec, Resolution, Simulator};
use hslb_nlsq::ScalingCurve;
use hslb_service::TunePayload;
use hslb_telemetry::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One distinct input with everything set-up prepares for it.
pub struct Instance {
    pub question: Question,
    pub key: String,
    sim: Simulator,
    /// Committed curves that replace the fit (`bb_tree` only).
    curves: Option<FitSet>,
    /// The committed optimum of the injected curves (`bb_tree` only).
    expect_predicted: Option<f64>,
}

impl Instance {
    pub fn new(question: Question) -> Instance {
        Instance {
            key: question.label(),
            sim: Simulator::new(
                Machine::intrepid(),
                question.config(),
                NoiseSpec::default(),
                question.sim_seed,
            ),
            question,
            curves: None,
            expect_predicted: None,
        }
    }

    /// The pipeline for this input: defaults, the question's layout,
    /// and the committed curves where the instance carries them.
    pub fn pipeline(&self) -> Hslb<'_> {
        let mut opts = HslbOptions::new(self.question.nodes);
        opts.layout = self.question.layout;
        opts.curve_override = self.curves.clone();
        Hslb::new(&self.sim, opts)
    }
}

pub struct OneShot {
    rng: XorShift,
    pub instances: Vec<Instance>,
    /// Warm up on the first instance only (`bb_tree`, whose rounds take
    /// seconds; its first committed instance is the quickest).
    warm_on_first: bool,
    layers: Layers,
}

/// Simulator seeds the grid workloads draw from: a range minus what the
/// `screen` subcommand flagged at the commit that defined the benchmark.
/// Every seed left, at every budget of its workload, stays on the MINLP
/// rung, returns no error and takes under 3 medians; `KNOWN_SLOW.md`
/// lists what was dropped and why.
fn fit_pool() -> Vec<u64> {
    (42..74).collect()
}

fn solve_pool() -> Vec<u64> {
    (42..76).filter(|s| ![51, 70].contains(s)).collect()
}

pub const FIT_BUDGETS: [i64; 3] = [8192, 16384, 32768];
pub const SOLVE_BUDGETS: [i64; 4] = [1024, 2048, 4096, 40960];

impl OneShot {
    fn grid(
        seed: u64,
        resolution: Resolution,
        budgets: &[i64],
        pool: &[u64],
        draw: usize,
    ) -> OneShot {
        let mut rng = XorShift::new(seed);
        let sim_seeds = rng.sample(pool, draw);
        let instances = sim_seeds
            .iter()
            .flat_map(|&sim_seed| {
                budgets.iter().map(move |&nodes| Question {
                    resolution,
                    layout: Layout::Hybrid,
                    nodes,
                    sim_seed,
                })
            })
            .map(Instance::new)
            .collect();
        OneShot {
            rng,
            instances,
            warm_on_first: false,
            layers: Layers::default(),
        }
    }

    /// 1/8°, hybrid, N ∈ {8192, 16384, 32768} × `draw` pool seeds.
    pub fn fit(seed: u64, draw: usize) -> OneShot {
        OneShot::grid(
            seed,
            Resolution::EighthDegree,
            &FIT_BUDGETS,
            &fit_pool(),
            draw,
        )
    }

    /// 1°, hybrid, N ∈ {1024, 2048, 4096, 40960} × `draw` pool seeds.
    pub fn solve(seed: u64, draw: usize) -> OneShot {
        OneShot::grid(
            seed,
            Resolution::OneDegree,
            &SOLVE_BUDGETS,
            &solve_pool(),
            draw,
        )
    }

    /// The committed instances (the first `take` of them); `--seed` sets
    /// only the order and the simulator seed each allocation is executed
    /// under — the searched trees never change.
    pub fn bb_tree(seed: u64, instances_json: &str, take: usize) -> Result<OneShot, String> {
        let mut rng = XorShift::new(seed);
        let doc = hslb_telemetry::json::parse(instances_json)?;
        let list = doc
            .get("instances")
            .and_then(Value::as_arr)
            .ok_or("bb_tree.json: missing `instances`")?;
        let instances = list
            .iter()
            .take(take)
            .map(|v| {
                let exec_seed = 1 + rng.below(1000) as u64;
                instance_from_value(v, exec_seed)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(OneShot {
            rng,
            instances,
            warm_on_first: true,
            layers: Layers::default(),
        })
    }
}

fn hex_f64(v: &Value) -> Result<f64, String> {
    let s = v.as_str().ok_or("expected a hex-bit f64 string")?;
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad hex f64 {s:?}: {e}"))
}

fn instance_from_value(v: &Value, exec_seed: u64) -> Result<Instance, String> {
    let text = |k: &str| {
        v.get(k)
            .and_then(Value::as_str)
            .ok_or(format!("missing {k}"))
    };
    let num = |k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("missing {k}"))
    };
    let name = text("name")?.to_string();
    let question = Question {
        resolution: hslb_service::request::parse_resolution(text("resolution")?)?,
        layout: hslb_service::request::parse_layout(text("layout")?)?,
        nodes: num("nodes")? as i64,
        sim_seed: exec_seed,
    };
    let mut curves = BTreeMap::new();
    for c in Component::OPTIMIZED {
        let p = v
            .get("curves")
            .and_then(|m| m.get(&c.to_string()))
            .and_then(Value::as_arr)
            .filter(|p| p.len() == 4)
            .ok_or(format!("{name}: missing curve for {c}"))?;
        curves.insert(
            c,
            ScalingCurve {
                a: hex_f64(&p[0])?,
                b: hex_f64(&p[1])?,
                c: hex_f64(&p[2])?,
                d: hex_f64(&p[3])?,
            },
        );
    }
    let mut inst = Instance::new(question);
    inst.key = format!("{name}|exec{exec_seed}");
    inst.curves = Some(FitSet::from_curves(curves).map_err(|e| e.to_string())?);
    inst.expect_predicted = Some(hex_f64(
        v.get("predicted_total").ok_or("missing predicted_total")?,
    )?);
    Ok(inst)
}

fn answer(question: &Question, report: &ExperimentReport) -> Answer {
    let payload = TunePayload::from_report(report);
    Answer {
        question: question.clone(),
        allocation: Some(payload.allocation),
        actual: payload.actual_total,
        predicted: payload.predicted_total,
        certified: payload.certified,
        fingerprint: payload.fingerprint(),
    }
}

fn component_span(c: Component) -> &'static str {
    match c {
        Component::Atm => "nlsq.fit_component.atm",
        Component::Ocn => "nlsq.fit_component.ocn",
        Component::Ice => "nlsq.fit_component.ice",
        _ => "nlsq.fit_component.lnd",
    }
}

impl OneShot {
    /// The traced op: `run` as a whole, then each stage called on its
    /// own from outside, so stage times and their closure against the
    /// whole are both measured rather than inferred.
    fn traced(
        &mut self,
        idx: usize,
        tracer: &mut Tracer,
    ) -> (f64, Result<ExperimentReport, String>) {
        let inst = &self.instances[idx];
        let layers = &mut self.layers;
        let h = inst.pipeline();
        let op = tracer.begin("op");
        let (report, run_ms) = tracer.time("hslb.run", || h.run(None));
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                tracer.end(op);
                return (run_ms, Err(e.to_string()));
            }
        };

        let ((data, gather), gather_ms) = tracer.time("cesm.gather", || h.gather_resilient());
        layers.push("cesm.gather_ms", gather_ms);
        layers.push("cesm.gather_runs", gather.attempts as f64);
        let mut stages = gather_ms;

        let fits = match &inst.curves {
            Some(curves) => Some(curves.clone()),
            None => {
                let (fits, fit_ms) = tracer.time("nlsq.fit", || h.fit(&data));
                layers.push("nlsq.fit_ms", fit_ms);
                stages += fit_ms;
                for c in Component::OPTIMIZED {
                    let name = component_span(c);
                    let (_, ms) =
                        tracer.time(name, || hslb_nlsq::fit_scaling(data.of(c), &h.opts.fit));
                    layers.push(name, ms);
                }
                fits.ok()
            }
        };
        if let Some(fits) = &fits {
            if inst.curves.is_none() {
                let (iters, starts) = fits.iter().fold((0, 0), |(i, s), (_, f)| {
                    (i + f.lm_iterations, s + f.starts_run)
                });
                layers.push("nlsq.lm_iters", iters as f64);
                layers.push("nlsq.starts", starts as f64);
                layers.push("nlsq.min_r2", fits.min_r_squared().unwrap_or(f64::NAN));
            }
            let config = &inst.sim.config;
            let model_opts = LayoutModelOptions {
                layout: h.opts.layout,
                objective: h.opts.objective,
                total_nodes: h.opts.target_nodes,
                floors: NodeFloors::from_config(config),
                ocean_allowed: config.ocean_allowed.clone(),
                atm_allowed: config.atm_allowed.clone(),
                tsync: None,
            };
            let (model, build_ms) =
                tracer.time("model.build", || build_layout_model(fits, &model_opts));
            layers.push("model.build_ms", build_ms);
            if let Ok(model) = &model {
                let curves: Vec<(Component, ScalingCurve)> =
                    fits.iter().map(|(c, f)| (c, f.curve)).collect();
                let expect = hslb_audit::ModelExpectations {
                    layout: h.opts.layout,
                    shape: hslb_audit::ObjectiveShape::MinMax,
                    total_nodes: h.opts.target_nodes,
                    tsync: false,
                    ocean_set: config.ocean_allowed.is_some(),
                    atm_set: config.atm_allowed.is_some(),
                };
                let (_, audit_ms) = tracer.time("audit.instance", || {
                    hslb_audit::audit_instance(&curves, &model.model, &expect)
                });
                layers.push("audit.instance_ms", audit_ms);
            }
            let (_, solve_ms) = tracer.time("minlp.solve", || h.solve(fits));
            layers.push("minlp.solve_ms", solve_ms);
            stages += solve_ms;
            let rung = report.resilience.as_ref().map(|r| r.rung);
            if rung == Some(SolverRung::Exhaustive) {
                let mut opt = ExhaustiveOptimizer::new(fits, h.opts.layout, h.opts.target_nodes);
                opt.ocean_allowed = config.ocean_allowed.clone();
                opt.atm_allowed = config.atm_allowed.clone();
                opt.floors = NodeFloors::from_config(config);
                let (_, ms) = tracer.time("hslb.exhaustive", || opt.try_solve(h.opts.objective));
                layers.push("hslb.exhaustive_ms", ms);
                stages += ms;
            }
        }
        let (_, execute_ms) = tracer.time("cesm.execute", || h.execute(&report.hslb.allocation));
        layers.push("cesm.execute_ms", execute_ms);
        stages += execute_ms;
        tracer.end(op);

        layers.push("hslb.run_ms", run_ms);
        layers.push("hslb.glue_ms", run_ms - stages);
        layers.push("hslb.stage_sum_ms", stages);
        let on_minlp = report.resilience.as_ref().map(|r| r.rung) == Some(SolverRung::Minlp);
        layers.push("hslb.fallback", f64::from(u8::from(!on_minlp)));
        if let Some(s) = &report.solver_stats {
            layers.push("minlp.nodes", s.nodes as f64);
            layers.push("minlp.lp_solves", s.lp_solves as f64);
            layers.push("minlp.cuts", s.cuts as f64);
            layers.push(
                "minlp.pruned",
                (s.pruned_by_bound + s.pruned_infeasible) as f64,
            );
            layers.push("minlp.warm_fallbacks", s.warm_fallbacks as f64);
            layers.push("minlp.wall_ms", s.wall.as_secs_f64() * 1e3);
            layers.push("lp.simplex_iters", s.simplex_iters as f64);
        }
        (run_ms, Ok(report))
    }
}

impl Workload for OneShot {
    type Input = usize;

    fn next_round(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.instances.len()).collect();
        self.rng.shuffle(&mut order);
        order
    }

    fn op(&mut self, &idx: &usize, tracer: Option<&mut Tracer>) -> (f64, Outcome) {
        let (ms, report) = match tracer {
            Some(t) => self.traced(idx, t),
            None => {
                let inst = &self.instances[idx];
                let h = inst.pipeline();
                let start = Instant::now();
                let report = h.run(None);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                (ms, report.map_err(|e| e.to_string()))
            }
        };
        let inst = &self.instances[idx];
        let outcome = Outcome {
            key: inst.key.clone(),
            result: report.map(|r| vec![answer(&inst.question, &r)]),
        };
        (ms, outcome)
    }

    fn warm_round(&mut self) -> Vec<usize> {
        if self.warm_on_first {
            vec![0]
        } else {
            self.next_round()
        }
    }

    fn layers(&self) -> &Layers {
        &self.layers
    }

    /// `bb_tree` only: the allocation found for the committed curves must
    /// predict no worse than the committed optimum (1e-9 relative).
    fn verify(&mut self, pass: &Pass) -> Vec<String> {
        let expect: BTreeMap<&str, f64> = self
            .instances
            .iter()
            .filter_map(|i| Some((i.key.as_str(), i.expect_predicted?)))
            .collect();
        pass.distinct()
            .into_iter()
            .filter_map(|op| {
                let want = *expect.get(op.outcome.key.as_str())?;
                let got = op.outcome.result.as_ref().ok()?.first()?.predicted?;
                (got > want * (1.0 + 1e-9)).then(|| {
                    format!(
                        "{}: predicted {got} worse than the committed optimum {want}",
                        op.outcome.key
                    )
                })
            })
            .collect()
    }
}

/// `capture-bb`: fit the curves of one (simulator seed, layout, budget)
/// input at 1° and render it as a `bb_tree.json` instance — curve
/// coefficients as hex-bit f64 so they survive the file bit for bit —
/// with the optimum the committed curves lead to.
pub fn capture(sim_seed: u64, layout: Layout, nodes: i64) -> Result<String, String> {
    let question = Question {
        resolution: Resolution::OneDegree,
        layout,
        nodes,
        sim_seed,
    };
    let mut inst = Instance::new(question);
    let h = inst.pipeline();
    let fits = h.fit(&h.gather()).map_err(|e| e.to_string())?;
    let hex = |x: f64| format!("\"{:016x}\"", x.to_bits());
    let curves: Vec<String> = fits
        .iter()
        .map(|(c, f)| {
            let k = f.curve;
            format!(
                "\"{c}\": [{}, {}, {}, {}]",
                hex(k.a),
                hex(k.b),
                hex(k.c),
                hex(k.d)
            )
        })
        .collect();
    let plain: BTreeMap<Component, ScalingCurve> = fits.iter().map(|(c, f)| (c, f.curve)).collect();
    inst.curves = Some(FitSet::from_curves(plain).map_err(|e| e.to_string())?);
    let start = Instant::now();
    let report = inst.pipeline().run(None).map_err(|e| e.to_string())?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let predicted = report.hslb.predicted_total.ok_or("no predicted total")?;
    let rung = report.resilience.as_ref().map(|r| r.rung.to_string());
    Ok(format!(
        "    {{\"name\": \"{}\", \"resolution\": \"1deg\", \"layout\": \"{}\", \"nodes\": {nodes},\n     \
         \"captured\": {{\"rung\": \"{}\", \"bb_nodes\": {}, \"ms\": {ms:.0}}},\n     \
         \"predicted_total\": {},\n     \"curves\": {{{}}}}}",
        inst.question.label(),
        hslb_service::request::layout_token(layout),
        rung.unwrap_or_default(),
        report.solver_stats.as_ref().map_or(0, |s| s.nodes),
        hex(predicted),
        curves.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rounds(mut w: OneShot, n: usize) -> Vec<String> {
        let order: Vec<usize> = (0..n).flat_map(|_| w.next_round()).collect();
        order
            .into_iter()
            .map(|i| w.instances[i].key.clone())
            .collect()
    }

    #[test]
    fn input_lists_depend_on_the_seed_and_nothing_else() {
        for build in [OneShot::fit, OneShot::solve] {
            let a = rounds(build(42, 6), 3);
            assert_eq!(a, rounds(build(42, 6), 3), "same seed, same list");
            let b = rounds(build(43, 6), 3);
            assert_ne!(a, b, "another seed, another list");
            assert_eq!(a.len(), b.len(), "length does not depend on the seed");
        }
    }

    #[test]
    fn bb_tree_seed_reorders_but_never_changes_the_curves() {
        let json = include_str!("../instances/bb_tree.json");
        let build = |seed| OneShot::bb_tree(seed, json, usize::MAX).expect("instances load");
        let (a, b) = (build(42), build(43));
        assert_eq!(a.instances.len(), b.instances.len());
        for (x, y) in a.instances.iter().zip(&b.instances) {
            let bits = |i: &Instance| -> Vec<u64> {
                let fits = i.curves.as_ref().expect("bb_tree carries curves");
                fits.iter()
                    .flat_map(|(_, f)| [f.curve.a, f.curve.b, f.curve.c, f.curve.d])
                    .map(f64::to_bits)
                    .collect()
            };
            assert_eq!(bits(x), bits(y));
            assert_eq!(x.question.nodes, y.question.nodes);
        }
        assert_eq!(rounds(build(42), 2), rounds(build(42), 2));
        assert_ne!(rounds(build(42), 2), rounds(build(43), 2));
    }
}
