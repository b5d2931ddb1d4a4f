//! The repo benchmark: six workloads, the same end-to-end metrics on
//! each, per-layer timings taken from outside the program. `README.md`
//! next to this crate says why each workload and metric exists;
//! `../BENCHMARK.json` is the contract this binary is run under.
//!
//! ```text
//! hslb-benchmark --workload W --seed S --seconds T --trace 0|1 [--smoke]
//! hslb-benchmark suite [--seed S] [--smoke] [--check-repeat]
//! hslb-benchmark screen FAMILY FROM TO [FACTOR]
//! hslb-benchmark capture-bb SEED:LAYOUT:NODES...
//! ```

mod gen;
mod harness;
mod metrics;
mod oneshot;
mod screen;
mod served;
mod stats;
mod suite;
mod trace;

use harness::{Pass, Workload};
use hslb_telemetry::json::Value;
use metrics::Metric;
use std::time::Instant;

pub const WORKLOADS: [&str; 6] = [
    "oneshot_fit",
    "oneshot_solve",
    "bb_tree",
    "served_miss",
    "served_hot",
    "sweep_grid",
];

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// Share of a traced run spent on the untraced reference pass that
/// `trace.overhead_rel` compares against.
const REFERENCE_SHARE: f64 = 0.25;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Counts scaled to 1/20 (the self-test run).
    pub smoke: bool,
}

/// What one run reports: the contract's result line plus, for people,
/// the failures and slow ops behind the numbers.
pub struct RunReport {
    pub attempted: usize,
    pub failures: Vec<String>,
    pub slow: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl RunReport {
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Value::Obj(vec![
                    ("value".to_string(), Value::Num(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        Value::Obj(vec![
            ("correct".to_string(), Value::Bool(self.failures.is_empty())),
            ("attempted".to_string(), Value::Num(self.attempted as f64)),
            ("failed".to_string(), Value::Num(self.failures.len() as f64)),
            ("metrics".to_string(), Value::Obj(metrics)),
        ])
        .to_string()
    }
}

/// Failed ops of a pass: the common checks plus the workload's own.
fn failures<W: Workload>(w: &mut W, pass: &Pass) -> Vec<String> {
    let mut all = harness::verify_common(pass);
    all.extend(w.verify(pass));
    all
}

/// Set up (several times, timed), measure, verify, reduce.
fn drive<W: Workload>(
    args: &RunArgs,
    warm_ops: usize,
    build: impl Fn() -> Result<W, String>,
) -> Result<RunReport, String> {
    let (repeats, warm_ops) = if args.smoke {
        (1, warm_ops.div_ceil(20))
    } else {
        (SETUP_REPEATS, warm_ops)
    };
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..repeats {
        drop(workload.take());
        let start = Instant::now();
        let mut w = build()?;
        harness::warm_up(&mut w, warm_ops);
        setups.push(start.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.ok_or("no set-up ran")?;
    let setup_s = stats::median(&setups);

    if !args.trace {
        let pass = harness::run_pass(&mut w, args.seconds, None);
        let blocks = harness::block_stats(&pass);
        println!(
            "{}: {} ops in {} rounds, {} blocks",
            args.workload,
            pass.ops.len(),
            pass.rounds,
            blocks.blocks
        );
        return Ok(RunReport {
            attempted: pass.ops.len(),
            failures: failures(&mut w, &pass),
            slow: harness::slow_ops(&pass),
            metrics: metrics::end_to_end(setup_s, &blocks, &harness::quality(&pass)),
        });
    }

    let reference = harness::run_pass(&mut w, args.seconds * REFERENCE_SHARE, None);
    let mut tracer = trace::Tracer::default();
    let traced = harness::run_pass(
        &mut w,
        args.seconds * (1.0 - REFERENCE_SHARE),
        Some(&mut tracer),
    );
    w.after_trace()?;
    let failures = failures(&mut w, &traced);
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", args.workload));
    std::fs::write(
        &path,
        tracer.to_value(&args.workload, args.seed).to_string(),
    )
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "{}: {} traced ops ({} spans -> {}), {} reference ops",
        args.workload,
        traced.ops.len(),
        tracer.spans().len(),
        path.display(),
        reference.ops.len()
    );
    for (name, ms, count) in tracer.self_time_by_name() {
        println!("  self time {name:<28} {ms:>12.3} ms over {count} spans");
    }
    Ok(RunReport {
        attempted: traced.ops.len(),
        metrics: metrics::per_layer(w.layers(), &reference, &traced, failures.len()),
        slow: harness::slow_ops(&traced),
        failures,
    })
}

/// One workload, one pass: the contract's entry point.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let seed = args.seed;
    // Smoke keeps every code path and shrinks every count.
    let pick = |full: usize, smoke: usize| if args.smoke { smoke } else { full };
    match args.workload.as_str() {
        "oneshot_fit" => drive(args, 60, || Ok(oneshot::OneShot::fit(seed, pick(30, 2)))),
        "oneshot_solve" => drive(args, 24, || Ok(oneshot::OneShot::solve(seed, pick(30, 2)))),
        "bb_tree" => drive(args, 3, || {
            let instances = include_str!("../instances/bb_tree.json");
            oneshot::OneShot::bb_tree(seed, instances, pick(usize::MAX, 2))
        }),
        "served_miss" => drive(args, 40, || served::Served::miss(seed, pick(100, 10))),
        "served_hot" => drive(args, 200, || {
            served::Served::hot(seed, pick(8, 1), pick(256, 24))
        }),
        "sweep_grid" => drive(args, 4, || Ok(served::SweepGrid::new(seed, pick(19, 1)))),
        other => Err(format!(
            "unknown workload {other:?} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name}: cannot read {text:?}")),
        None => Ok(default),
    }
}

fn print_report(report: &RunReport) {
    for m in &report.metrics {
        match m.spread {
            Some((q1, q3)) => println!(
                "  {:<34} {:>14.6} {:<6} (block quartiles {q1:.6} .. {q3:.6})",
                m.name, m.value, m.unit
            ),
            None => println!("  {:<34} {:>14.6} {}", m.name, m.value, m.unit),
        }
    }
    for s in &report.slow {
        println!("  slow op: {s}");
    }
    for f in &report.failures {
        println!("  FAILED: {f}");
    }
}

fn main_inner(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("suite") => suite::run(&suite::SuiteArgs {
            seed: parse(args, "--seed", 42)?,
            smoke: args.iter().any(|a| a == "--smoke"),
            check_repeat: args.iter().any(|a| a == "--check-repeat"),
        }),
        Some("screen") => {
            let usage = "screen FAMILY FROM TO [FACTOR]";
            let family = args.get(1).ok_or(usage)?;
            let num = |i: usize| args.get(i).and_then(|s| s.parse::<u64>().ok()).ok_or(usage);
            let factor = match args.get(4) {
                Some(f) => f.parse().map_err(|_| usage)?,
                None => harness::SLOW_FACTOR,
            };
            screen::run(family, num(2)?, num(3)?, factor)
        }
        Some("capture-bb") => {
            let mut instances = Vec::new();
            for spec in &args[1..] {
                let parts: Vec<&str> = spec.split(':').collect();
                let [seed, layout, nodes] = parts[..] else {
                    return Err(format!(
                        "capture-bb: expected SEED:LAYOUT:NODES, got {spec:?}"
                    ));
                };
                instances.push(oneshot::capture(
                    seed.parse().map_err(|_| "bad seed")?,
                    hslb_service::request::parse_layout(layout)?,
                    nodes.parse().map_err(|_| "bad nodes")?,
                )?);
            }
            println!("{{\n  \"instances\": [\n{}\n  ]\n}}", instances.join(",\n"));
            Ok(())
        }
        _ => {
            let run_args = RunArgs {
                workload: flag(args, "--workload")
                    .ok_or("usage: --workload W --seed S --seconds T --trace 0|1")?
                    .to_string(),
                seed: parse(args, "--seed", 42)?,
                seconds: parse(args, "--seconds", 10.0)?,
                trace: parse(args, "--trace", 0u8)? != 0,
                smoke: args.iter().any(|a| a == "--smoke"),
            };
            let report = run(&run_args)?;
            print_report(&report);
            println!("{}", report.result_line());
            Ok(())
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = main_inner(&args) {
        eprintln!("hslb-benchmark: {e}");
        std::process::exit(2);
    }
}
