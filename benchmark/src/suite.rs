//! `suite`: every workload in its own process (so `peak_rss_mb` and
//! `setup_s` are per workload), untraced then traced, with a summary
//! table; `--check-repeat` runs the whole set twice on the same build
//! and holds the two to the bounds `BENCHMARK.json` fixes.

use crate::WORKLOADS;
use hslb_telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::process::Command;

pub struct SuiteArgs {
    pub seed: u64,
    pub smoke: bool,
    pub check_repeat: bool,
}

/// Seconds a `--smoke` pass measures for.
const SMOKE_SECONDS: f64 = 0.3;

/// The parsed result line of one run.
struct RunResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// name → (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
}

/// What `BENCHMARK.json` declares: the workloads, every metric with its
/// unit, and the bound of each end-to-end metric.
struct Contract {
    run_seconds: f64,
    workloads: Vec<String>,
    /// (name, unit, bound)
    end_to_end: Vec<(String, String, f64)>,
    /// (name, unit)
    per_layer: Vec<(String, String)>,
}

fn read_contract() -> Result<Contract, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let doc = json::parse(&text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("BENCHMARK.json: missing {key}"))
    };
    let text_of = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: entry without {key}"))
    };
    Ok(Contract {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: missing run_seconds")?,
        workloads: list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: list("end_to_end")?
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64);
                Ok((
                    text_of(m, "name")?,
                    text_of(m, "unit")?,
                    bound.ok_or("BENCHMARK.json: end_to_end entry without bound")?,
                ))
            })
            .collect::<Result<_, String>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(|m| Ok((text_of(m, "name")?, text_of(m, "unit")?)))
            .collect::<Result<_, String>>()?,
    })
}

impl Contract {
    /// Every metric declared for this kind of run must be in the result
    /// with the declared unit and a finite value, and nothing else.
    fn check(&self, workload: &str, trace: bool, result: &RunResult) -> Result<(), String> {
        let declared: Vec<(&str, &str)> = if trace {
            self.per_layer
                .iter()
                .map(|(n, u)| (n.as_str(), u.as_str()))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|(n, u, _)| (n.as_str(), u.as_str()))
                .collect()
        };
        for (name, unit) in &declared {
            match result.metrics.get(*name) {
                Some((value, got)) if got == unit && value.is_finite() => {}
                other => {
                    return Err(format!(
                        "{workload}: metric {name} declared in {unit}, run reported {other:?}"
                    ))
                }
            }
        }
        if result.metrics.len() != declared.len() {
            return Err(format!("{workload}: run reported undeclared metrics"));
        }
        Ok(())
    }
}

fn run_one(
    args: &SuiteArgs,
    contract: &Contract,
    workload: &str,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}: {}",
            u8::from(trace),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let (human, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or(format!("{workload}: no result line"))?;
    println!("{human}");
    let v = json::parse(last)?;
    let metrics = match v.get("metrics") {
        Some(Value::Obj(kv)) => kv
            .iter()
            .filter_map(|(name, m)| {
                let entry = (
                    m.get("value")?.as_f64()?,
                    m.get("unit")?.as_str()?.to_string(),
                );
                Some((name.clone(), entry))
            })
            .collect(),
        _ => return Err(format!("{workload}: result line without metrics")),
    };
    let num = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let result = RunResult {
        correct: v.get("correct").and_then(Value::as_bool).unwrap_or(false),
        attempted: num("attempted"),
        failed: num("failed"),
        metrics,
    };
    contract.check(workload, trace, &result)?;
    Ok(result)
}

/// One full set: `(workload, traced) → result`.
type Set = BTreeMap<(&'static str, bool), RunResult>;

fn run_set(args: &SuiteArgs, contract: &Contract, seconds: f64) -> Result<Set, String> {
    let mut set = Set::new();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let result = run_one(args, contract, workload, seconds, trace)?;
            set.insert((workload, trace), result);
        }
    }
    Ok(set)
}

fn print_summary(set: &Set, contract: &Contract) {
    println!("\n== end-to-end (untraced pass) ==");
    print!("{:<18}", "metric");
    for w in WORKLOADS {
        print!(" {w:>14}");
    }
    println!();
    for (name, unit, _) in &contract.end_to_end {
        print!("{name:<18}");
        for w in WORKLOADS {
            print!(" {:>14.4}", set[&(w, false)].metrics[name].0);
        }
        println!("  {unit}");
    }
    print!("{:<18}", "fail_share");
    for w in WORKLOADS {
        let r = &set[&(w, false)];
        print!(" {:>14.4}", r.failed / r.attempted);
    }
    println!("  ratio (failed / attempted)");
}

/// Per-op counts of the traced pass that must repeat exactly on the
/// same build and seed.
const EXACT_LAYER_COUNTS: [&str; 12] = [
    "cesm.gather_runs",
    "nlsq.lm_iters_per_op",
    "nlsq.starts_per_op",
    "minlp.nodes_per_op",
    "minlp.lp_solves_per_op",
    "minlp.cuts_per_op",
    "minlp.pruned_per_op",
    "minlp.warm_fallbacks_per_op",
    "lp.simplex_iters_per_op",
    "hslb.fallback_share",
    "sweep.pruned",
    "sweep.dedup_saved",
];
/// End-to-end metrics that are functions of the inputs alone.
const EXACT_END_TO_END: [&str; 3] = ["makespan_mean_s", "pred_accuracy", "certified_share"];

/// Hold two sets of the same build to the contract's bounds; prints the
/// spread table and returns the violations.
fn compare(a: &Set, b: &Set, contract: &Contract) -> Vec<String> {
    let mut bad = Vec::new();
    println!("\n== repeat check: two sets of runs, same build, same seed ==");
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "spread", "bound"
    );
    for w in WORKLOADS {
        let (ra, rb) = (&a[&(w, false)], &b[&(w, false)]);
        for (name, _, bound) in &contract.end_to_end {
            let (x, y) = (ra.metrics[name].0, rb.metrics[name].0);
            let spread = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            let exact = EXACT_END_TO_END.contains(&name.as_str());
            let ok = if exact { x == y } else { spread <= *bound };
            println!(
                "{w:<14} {name:<16} {x:>14.5} {y:>14.5} {:>8.2}% {:>6.1}%{}",
                spread * 100.0,
                if exact { 0.0 } else { bound * 100.0 },
                if ok { "" } else { "  <-- outside" }
            );
            if !ok {
                bad.push(format!("{w}/{name}: {x} vs {y}"));
            }
        }
        if !(ra.correct && rb.correct) {
            bad.push(format!("{w}: failed ops ({} and {})", ra.failed, rb.failed));
        }
        let (ta, tb) = (&a[&(w, true)], &b[&(w, true)]);
        for name in EXACT_LAYER_COUNTS {
            let (x, y) = (ta.metrics[name].0, tb.metrics[name].0);
            if x != y {
                bad.push(format!("{w}/{name}: count {x} vs {y}"));
            }
        }
    }
    bad
}

pub fn run(args: &SuiteArgs) -> Result<(), String> {
    let contract = read_contract()?;
    if contract.workloads != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json names workloads {:?}, the harness runs {WORKLOADS:?}",
            contract.workloads
        ));
    }
    let seconds = if args.smoke {
        SMOKE_SECONDS
    } else {
        contract.run_seconds
    };
    let first = run_set(args, &contract, seconds)?;
    print_summary(&first, &contract);
    let mut bad: Vec<String> = first
        .iter()
        .filter(|(_, r)| !r.correct)
        .map(|((w, _), r)| format!("{w}: {} of {} ops failed", r.failed, r.attempted))
        .collect();
    if args.check_repeat {
        let second = run_set(args, &contract, seconds)?;
        bad.extend(compare(&first, &second, &contract));
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("suite failed:\n  {}", bad.join("\n  ")))
    }
}
