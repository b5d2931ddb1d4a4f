//! `screen`: run each distinct input of a simulator-seed range once and
//! list the ones a timed workload should not draw — those that leave the
//! MINLP rung, return an error, or take more than `factor` medians. The
//! seed pools in `oneshot.rs` / `served.rs` and `KNOWN_SLOW.md` come
//! from this. A family is a workload's input grid (`oneshot_fit`,
//! `oneshot_solve`, `served`, `sweep_grid`) or one explicit one-shot
//! input `RESOLUTION:LAYOUT:NODES` (the repro form `KNOWN_SLOW.md` uses).

use crate::harness::Question;
use crate::oneshot::Instance;
use crate::served;
use crate::stats;
use hslb::SolverRung;
use hslb_cesm::{Layout, Resolution};
use hslb_service::{reference_response, ServiceOptions, TunePayload, TuningService};
use std::collections::BTreeSet;
use std::time::Instant;

struct Row {
    sim_seed: u64,
    label: String,
    ms: f64,
    /// The ladder rung, or the error.
    result: Result<String, String>,
    detail: String,
}

fn grid(resolution: Resolution, budgets: &[i64], sim_seed: u64) -> Vec<Question> {
    budgets
        .iter()
        .map(|&nodes| Question {
            resolution,
            layout: Layout::Hybrid,
            nodes,
            sim_seed,
        })
        .collect()
}

fn payload_row(q: &Question, ms: f64, payload: Result<(TunePayload, String), String>) -> Row {
    let (result, detail) = match payload {
        Ok((p, detail)) => (
            Ok(p.rung.clone()),
            format!("certified={} {detail}", p.certified),
        ),
        Err(e) => (Err(e), String::new()),
    };
    Row {
        sim_seed: q.sim_seed,
        label: q.label(),
        ms,
        result,
        detail,
    }
}

fn one_shot(q: Question) -> Row {
    let inst = Instance::new(q.clone());
    let start = Instant::now();
    let report = inst.pipeline().run(None);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let payload = report.map_err(|e| e.to_string()).map(|r| {
        let nodes = r.solver_stats.as_ref().map_or(0, |s| s.nodes);
        (TunePayload::from_report(&r), format!("bb_nodes={nodes}"))
    });
    payload_row(&q, ms, payload)
}

fn served_reference(q: Question) -> Row {
    let request = served::request(0, &q);
    let start = Instant::now();
    let payload = reference_response(&request);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    payload_row(&q, ms, payload.map(|p| (p, String::new())))
}

fn sweep(sim_seed: u64) -> Row {
    let service = TuningService::start(ServiceOptions::default());
    let spec = served::sweep_spec(sim_seed);
    let quiet = hslb_telemetry::Telemetry::disabled();
    let start = Instant::now();
    let portfolio = hslb_service::sweep_driver::run_sweep(&service, &spec, &quiet, |_| {});
    let ms = start.elapsed().as_secs_f64() * 1e3;
    service.shutdown();
    let minlp = SolverRung::Minlp.to_string();
    let result = portfolio.map(|p| {
        let off = p.entries.iter().find(|e| !e.pruned && e.rung != minlp);
        off.map_or(minlp.clone(), |e| format!("{} on {}", e.rung, e.key))
    });
    Row {
        sim_seed,
        label: format!("sweep|seed{sim_seed}"),
        ms,
        result,
        detail: String::new(),
    }
}

pub fn run(family: &str, from: u64, to: u64, factor: f64) -> Result<(), String> {
    let mut rows = Vec::new();
    for sim_seed in from..to {
        match family {
            "oneshot_fit" => rows.extend(
                grid(
                    Resolution::EighthDegree,
                    &crate::oneshot::FIT_BUDGETS,
                    sim_seed,
                )
                .into_iter()
                .map(one_shot),
            ),
            "oneshot_solve" => rows.extend(
                grid(
                    Resolution::OneDegree,
                    &crate::oneshot::SOLVE_BUDGETS,
                    sim_seed,
                )
                .into_iter()
                .map(one_shot),
            ),
            "served" => {
                let budgets: BTreeSet<i64> = served::MISS_BUDGETS
                    .into_iter()
                    .chain(served::HOT_BUDGETS)
                    .collect();
                let budgets: Vec<i64> = budgets.into_iter().collect();
                rows.extend(
                    grid(Resolution::OneDegree, &budgets, sim_seed)
                        .into_iter()
                        .map(served_reference),
                );
            }
            "sweep_grid" => rows.push(sweep(sim_seed)),
            explicit => {
                let parts: Vec<&str> = explicit.split(':').collect();
                let [resolution, layout, nodes] = parts[..] else {
                    return Err(format!(
                        "screen: unknown family {explicit:?} (oneshot_fit | oneshot_solve | \
                         served | sweep_grid | RESOLUTION:LAYOUT:NODES)"
                    ));
                };
                rows.push(one_shot(Question {
                    resolution: hslb_service::request::parse_resolution(resolution)?,
                    layout: hslb_service::request::parse_layout(layout)?,
                    nodes: nodes
                        .parse()
                        .map_err(|_| format!("bad node count {nodes:?}"))?,
                    sim_seed,
                }));
            }
        }
    }
    let median = stats::median(&rows.iter().map(|r| r.ms).collect::<Vec<_>>());
    let minlp = SolverRung::Minlp.to_string();
    // An explicit input is a repro: show it whether or not it stands out.
    let show_all = family.contains(':');
    let mut flagged = BTreeSet::new();
    for r in &rows {
        let why = match &r.result {
            Err(e) => format!("error: {e}"),
            Ok(rung) if *rung != minlp => format!("rung {rung}"),
            Ok(_) if r.ms > factor * median => format!("{:.1}x the median", r.ms / median),
            Ok(rung) if show_all => {
                println!("{}  {:.1} ms  rung {rung}  {}", r.label, r.ms, r.detail);
                continue;
            }
            Ok(_) => continue,
        };
        flagged.insert(r.sim_seed);
        println!("{}  {:.1} ms  {why}  {}", r.label, r.ms, r.detail);
    }
    println!(
        "screened {} inputs over simulator seeds {from}..{to}: median {median:.2} ms, \
         flagged seeds (over {factor}x, off the MINLP rung, or error): {flagged:?}",
        rows.len()
    );
    Ok(())
}
