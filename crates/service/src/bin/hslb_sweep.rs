//! `hslb-sweep` — run a portfolio sweep, in-process or against a server.
//!
//! ```text
//! hslb-sweep [--addr HOST:PORT]           # TCP mode; default in-process
//!            [--spec PATH]                # JSON SweepSpec (overrides flags)
//!            [--layouts hybrid,seq-ocean,sequential]
//!            [--one-degree-nodes 48,64,96]
//!            [--eighth-nodes 4096,8192]
//!            [--objective min-max|max-min|min-sum]
//!            [--seed N] [--no-ocean]
//!            [--no-prune] [--safety-margin F] [--hold KEY]...
//!            [--workers N]                # in-process pool size
//!            [--verify]                   # fingerprint every non-pruned
//!                                         # entry against the one-shot
//!                                         # reference pipeline
//!            [--min-fit-hit-rate F]       # exit 1 below this rate
//!            [--out PATH]                 # write the portfolio JSON
//!            [--quiet]                    # suppress progress lines
//! ```
//!
//! Progress frames stream to stderr as configurations reach a terminal
//! state; the ranked summary prints to stdout. `--verify` recomputes
//! each non-pruned entry through `hslb_service::reference_response`
//! (fresh simulator, no caches, no service) and demands bit-identical
//! fingerprints — the same determinism bar the service itself carries,
//! extended over the whole portfolio.
#![forbid(unsafe_code)]

use hslb_service::ranked;
use hslb_service::request::TuneRequest;
use hslb_service::request::{parse_layout, parse_objective};
use hslb_service::sweep_driver::{run_sweep, SweepProgress};
use hslb_service::{reference_response, ServiceOptions, TuningService};
use hslb_sweep::{Portfolio, SweepSpec};
use hslb_telemetry::json::{parse, Value};
use hslb_telemetry::Telemetry;
use std::io::{BufReader, BufWriter, Write};

struct Args {
    addr: Option<String>,
    spec: SweepSpec,
    workers: usize,
    verify: bool,
    min_fit_hit_rate: Option<f64>,
    out: Option<String>,
    quiet: bool,
}

fn parse_i64_list(s: &str, flag: &str) -> Result<Vec<i64>, String> {
    s.split(',')
        .filter(|t| !t.trim().is_empty())
        .map(|t| {
            t.trim()
                .parse::<i64>()
                .map_err(|e| format!("{flag}: bad value {t:?}: {e}"))
        })
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        spec: SweepSpec::default(),
        workers: 4,
        verify: false,
        min_fit_hit_rate: None,
        out: None,
        quiet: false,
    };
    let mut spec_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--spec" => spec_path = Some(value("--spec")?),
            "--layouts" => {
                args.spec.layouts = value("--layouts")?
                    .split(',')
                    .filter(|t| !t.trim().is_empty())
                    .map(|t| parse_layout(t.trim()))
                    .collect::<Result<_, _>>()?;
            }
            "--one-degree-nodes" => {
                args.spec.one_degree_budgets =
                    parse_i64_list(&value("--one-degree-nodes")?, "--one-degree-nodes")?;
            }
            "--eighth-nodes" => {
                args.spec.eighth_degree_budgets =
                    parse_i64_list(&value("--eighth-nodes")?, "--eighth-nodes")?;
            }
            "--objective" => args.spec.objective = parse_objective(&value("--objective")?)?,
            "--seed" => {
                args.spec.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--no-ocean" => args.spec.ocean_constrained = false,
            "--no-prune" => args.spec.prune = false,
            "--safety-margin" => {
                args.spec.safety_margin = value("--safety-margin")?
                    .parse()
                    .map_err(|e| format!("--safety-margin: {e}"))?;
            }
            "--hold" => args.spec.holds.push(value("--hold")?),
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--verify" => args.verify = true,
            "--min-fit-hit-rate" => {
                args.min_fit_hit_rate = Some(
                    value("--min-fit-hit-rate")?
                        .parse()
                        .map_err(|e| format!("--min-fit-hit-rate: {e}"))?,
                );
            }
            "--out" => args.out = Some(value("--out")?),
            "--quiet" => args.quiet = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if let Some(path) = spec_path {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read spec {path}: {e}"))?;
        let v = parse(&text).map_err(|e| format!("parse spec {path}: {e}"))?;
        args.spec = SweepSpec::from_value(&v)?;
    }
    if args.spec.one_degree_budgets.is_empty() && args.spec.eighth_degree_budgets.is_empty() {
        return Err(
            "empty sweep: give --one-degree-nodes and/or --eighth-nodes (or --spec FILE)"
                .to_string(),
        );
    }
    Ok(args)
}

fn progress_line(p: &SweepProgress) -> String {
    format!(
        "[{}/{}] {} {} makespan={:.6}",
        p.done, p.total, p.status, p.key, p.makespan
    )
}

/// In-process mode: a private service, the driver called directly.
fn sweep_in_process(args: &Args) -> Result<Portfolio, String> {
    let service = TuningService::start(ServiceOptions {
        workers: args.workers.max(1),
        ..ServiceOptions::default()
    });
    let telemetry = Telemetry::disabled();
    let quiet = args.quiet;
    let portfolio = run_sweep(&service, &args.spec, &telemetry, |p| {
        if !quiet {
            eprintln!("{}", progress_line(p));
        }
    });
    service.shutdown();
    portfolio
}

/// TCP mode: one `sweep` command, then read frames until the final one.
fn sweep_over_tcp(addr: &str, args: &Args) -> Result<Portfolio, String> {
    let stream = ranked::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(stream);
    let line = Value::Obj(vec![
        ("op".to_string(), Value::Str("sweep".to_string())),
        ("spec".to_string(), args.spec.to_value()),
    ])
    .to_string();
    writeln!(writer, "{line}").map_err(|e| format!("send: {e}"))?;
    ranked::flush(&mut writer).map_err(|e| format!("flush: {e}"))?;
    loop {
        let mut reply = String::new();
        let n = ranked::read_line(&mut reader, &mut reply).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection mid-sweep".to_string());
        }
        let v = parse(reply.trim_end()).map_err(|e| format!("bad reply frame: {e}"))?;
        let ok = v.get("ok").and_then(Value::as_bool).unwrap_or(false);
        let op = v.get("op").and_then(Value::as_str).unwrap_or("");
        if !ok {
            let msg = v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unknown error");
            return Err(format!("server: {msg}"));
        }
        match op {
            "sweep-progress" => {
                if !args.quiet {
                    let g = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
                    eprintln!(
                        "[{}/{}] {} {} makespan={:.6}",
                        g("done") as u64,
                        g("total") as u64,
                        v.get("status").and_then(Value::as_str).unwrap_or("?"),
                        v.get("key").and_then(Value::as_str).unwrap_or("?"),
                        g("makespan")
                    );
                }
            }
            "sweep" => {
                let p = v.get("portfolio").ok_or("final frame missing portfolio")?;
                return Portfolio::from_value(p);
            }
            other => return Err(format!("unexpected frame op {other:?}")),
        }
    }
}

/// Recompute every non-pruned entry through the one-shot reference
/// pipeline and demand bit-identical fingerprints.
fn verify_portfolio(spec: &SweepSpec, portfolio: &Portfolio) -> Result<usize, String> {
    let configs = spec.configs();
    let mut checked = 0usize;
    for entry in &portfolio.entries {
        if entry.pruned {
            continue;
        }
        let cfg = configs
            .iter()
            .find(|c| c.key() == entry.key)
            .ok_or_else(|| format!("verify: portfolio entry {} not in spec grid", entry.key))?;
        let request = TuneRequest {
            id: 0,
            resolution: cfg.resolution,
            layout: cfg.layout,
            objective: cfg.objective,
            target_nodes: cfg.target_nodes,
            ocean_constrained: cfg.ocean_constrained,
            seed: cfg.seed,
            priority: 4,
            deadline_ms: None,
        };
        let reference = reference_response(&request)?;
        let got = entry.fingerprint.as_deref().unwrap_or("");
        if got != reference.fingerprint() {
            return Err(format!(
                "verify: {} fingerprint {} != reference {}",
                entry.key,
                got,
                reference.fingerprint()
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

fn print_summary(portfolio: &Portfolio) {
    let s = &portfolio.stats;
    println!(
        "sweep: planned={} solved={} pruned={} fit_groups={} dedup_saved={}",
        s.planned, s.solved, s.pruned, s.fit_groups, s.dedup_saved
    );
    println!(
        "cache: fit {}/{} (rate {:.3})",
        s.fit_hits,
        s.fit_hits + s.fit_misses,
        s.fit_hit_rate()
    );
    match s.predictor_mae {
        Some(mae) => println!("predictor: mae={mae:.4}"),
        None => println!(
            "predictor: unavailable ({})",
            s.predictor_failed.as_deref().unwrap_or("no candidates")
        ),
    }
    println!("wall: {:.1} ms", s.wall_ms);
    for (resolution, keys) in &portfolio.frontier {
        println!("frontier[{resolution}]: {}", keys.join(", "));
    }
    for entry in portfolio.entries.iter().filter(|e| !e.pruned).take(10) {
        println!(
            "  {} makespan={:.6} nodes_used={} idle={:.3}",
            entry.key,
            entry.makespan,
            entry.nodes_used.unwrap_or(0),
            entry.idle_fraction.unwrap_or(f64::NAN)
        );
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let portfolio = match &args.addr {
        Some(addr) => sweep_over_tcp(addr, &args)?,
        None => sweep_in_process(&args)?,
    };
    let s = &portfolio.stats;
    if s.planned != s.solved + s.pruned {
        return Err(format!(
            "portfolio accounting broken: planned {} != solved {} + pruned {}",
            s.planned, s.solved, s.pruned
        ));
    }
    print_summary(&portfolio);
    if args.verify {
        let checked = verify_portfolio(&args.spec, &portfolio)?;
        println!("verify: {checked} entries bit-identical to the one-shot reference");
    }
    if let Some(min) = args.min_fit_hit_rate {
        let rate = s.fit_hit_rate();
        if rate < min {
            return Err(format!("fit cache hit rate {rate:.3} < required {min:.3}"));
        }
        println!("fit cache hit rate {rate:.3} >= {min:.3}");
    }
    if let Some(path) = &args.out {
        let text = portfolio.to_value().to_pretty();
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
        println!("portfolio written to {path}");
    }
    Ok(())
}

fn main() {
    if let Err(msg) = run() {
        eprintln!("hslb-sweep: {msg}");
        std::process::exit(1);
    }
}
