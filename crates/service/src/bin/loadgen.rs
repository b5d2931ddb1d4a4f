//! `loadgen` — replay a deterministic request mix against one or more
//! `hslb-serve` processes and report throughput/latency/connection
//! accounting as an `hslb-service-load/v3` document.
//!
//! ```text
//! loadgen --addr HOST:PORT[,HOST:PORT...]
//!         [--smoke] [--profile smoke|soak|chaos|ramp]
//!         [--requests N] [--seed N] [--concurrency N]
//!         [--connections N] [--churn-every N] [--timeout-ms N]
//!         [--include-eighth] [--check N] [--deadline-ms N]
//!         [--out FILE] [--shutdown]
//! ```
//!
//! `--addr` takes a comma-separated list for sharded deployments: the
//! address at position `i` must be the server started with `--shard
//! i/N`. Every request routes by `hslb_service::shard_for_key` over its
//! exact key — the same consistent hash the servers verify — and the
//! report carries a per-shard requests/throughput split.
//!
//! `--out FILE` writes the document only if it passes
//! `loadmix::validate_service_block`; otherwise loadgen reports why and
//! exits 1 (after the shutdown it was asked for).
//!
//! Three determinism checks run on every invocation:
//!
//! 1. every reply's embedded fingerprint must equal the fingerprint
//!    recomputed from the parsed payload (the JSON wire is bit-exact);
//! 2. replies sharing an exact key must be bit-identical to each other
//!    (cache/coalesce tiers are passive);
//! 3. for `--check N` distinct scenarios (default 3), the reply must be
//!    bit-identical to the serial one-shot pipeline computed in-process
//!    (`hslb_service::reference_response`).
//!
//! The client is fault-tolerant by construction: a broken connection or
//! truncated frame is survived by reconnecting and retrying the request
//! under a fresh correlation id, and typed backpressure/draining errors
//! back off by their `retry_after_ms` hint. Every fault survived, and
//! the latency from first failure to a verified-correct response, lands
//! in the report's `faults` block.
//!
//! Profiles:
//!
//! * `--smoke` / `--profile smoke` — the check.sh gate: the fixed smoke
//!   mix, closed-loop, hard assertions (every request succeeds, ≥1
//!   cache/coalesce hit, zero determinism mismatches, graceful shutdown
//!   acked);
//! * `--profile chaos` — the chaos mix with every deadline pinned
//!   (short watchdogs), closed-loop, meant for a `--fault-rate` server:
//!   asserts that every request terminates with a bit-identical
//!   response, zero determinism mismatches, zero unrecovered errors;
//! * `--profile ramp` — **open-loop**: hold `--connections` sockets
//!   (smoke default 512) and step the arrival rate up through a
//!   schedule regardless of completions. The connection-scale gate:
//!   asserts every request succeeds, determinism holds, and the
//!   servers' peak concurrent connections reached the client's count;
//! * `--profile soak` — **open-loop** sustained load with connection
//!   churn (smoke default 5,000 connections, `--churn-every 1`):
//!   the bounded-threads / slow-drift gate. Same hard assertions as
//!   ramp, plus at least one deliberate churn cycle.
#![forbid(unsafe_code)]

use hslb_service::loadclient::{
    connections_report, determinism_audit, probe_stats, request_shutdown, run_closed_loop,
    run_open_loop, OpenLoopSpec, RateStep, StatsProbe,
};
use hslb_service::loadmix::{
    force_deadlines, generate, write_service_document, ConnectionsReport, FaultReport, LoadReport,
    MixSpec, RunCounters,
};
use std::time::Instant;

struct Args {
    addrs: Vec<String>,
    profile: String,
    requests: usize,
    seed: u64,
    concurrency: usize,
    connections: Option<usize>,
    churn_every: Option<usize>,
    timeout_ms: u64,
    include_eighth: bool,
    check: usize,
    deadline_ms: u64,
    out: Option<String>,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addrs: vec!["127.0.0.1:7878".to_string()],
        profile: "custom".to_string(),
        requests: 50,
        seed: 11,
        concurrency: 4,
        connections: None,
        churn_every: None,
        timeout_ms: 120_000,
        include_eighth: false,
        check: 3,
        deadline_ms: 1500,
        out: None,
        shutdown: false,
    };
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--addr" => {
                args.addrs = value("--addr")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if args.addrs.is_empty() {
                    return Err("--addr needs at least one address".to_string());
                }
            }
            "--smoke" => {
                smoke = true;
                if args.profile == "custom" {
                    args.profile = "smoke".to_string();
                }
                args.shutdown = true;
            }
            "--profile" => {
                let p = value("--profile")?;
                match p.as_str() {
                    "smoke" => {
                        args.profile = p;
                        args.shutdown = true;
                    }
                    "soak" | "chaos" | "ramp" => args.profile = p,
                    other => return Err(format!("unknown profile {other:?}")),
                }
            }
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--concurrency" => {
                args.concurrency = value("--concurrency")?
                    .parse::<usize>()
                    .map_err(|e| format!("--concurrency: {e}"))?
                    .max(1)
            }
            "--connections" => {
                args.connections = Some(
                    value("--connections")?
                        .parse::<usize>()
                        .map_err(|e| format!("--connections: {e}"))?
                        .max(1),
                )
            }
            "--churn-every" => {
                args.churn_every = Some(
                    value("--churn-every")?
                        .parse()
                        .map_err(|e| format!("--churn-every: {e}"))?,
                )
            }
            "--timeout-ms" => {
                args.timeout_ms = value("--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--timeout-ms: {e}"))?
            }
            "--include-eighth" => args.include_eighth = true,
            "--check" => {
                args.check = value("--check")?
                    .parse()
                    .map_err(|e| format!("--check: {e}"))?
            }
            "--deadline-ms" => {
                args.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?
            }
            "--out" => args.out = Some(value("--out")?),
            "--shutdown" => args.shutdown = true,
            "--help" | "-h" => {
                println!(
                    "loadgen --addr HOST:PORT[,HOST:PORT...] [--smoke] \
                     [--profile smoke|soak|chaos|ramp] [--requests N] [--seed N] \
                     [--concurrency N] [--connections N] [--churn-every N] \
                     [--timeout-ms N] [--include-eighth] [--check N] \
                     [--deadline-ms N] [--out FILE] [--shutdown]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    // `--profile ramp --smoke` / `--profile soak --smoke` keep the
    // open-loop profile but shrink it to gate scale.
    if smoke && (args.profile == "ramp" || args.profile == "soak") {
        args.shutdown = true;
        args.requests = 0; // marker: profile picks its smoke mix below
    }
    Ok(args)
}

/// The open-loop shape of a profile: mix spec, connection count, churn
/// cadence, and arrival schedule.
struct OpenProfile {
    mix: MixSpec,
    connections: usize,
    churn_every: usize,
    schedule: Vec<RateStep>,
}

fn open_profile(args: &Args, smoke: bool) -> OpenProfile {
    match (args.profile.as_str(), smoke) {
        ("ramp", _) => {
            // Step the arrival rate up; smoke scale holds 512 sockets.
            let requests = if smoke { 1024 } else { args.requests.max(1024) };
            OpenProfile {
                mix: MixSpec {
                    requests,
                    seed: 17,
                    include_eighth: false,
                },
                connections: args.connections.unwrap_or(512),
                churn_every: args.churn_every.unwrap_or(0),
                schedule: vec![
                    RateStep {
                        requests: requests / 4,
                        rps: 200.0,
                    },
                    RateStep {
                        requests: requests - requests / 4,
                        rps: 500.0,
                    },
                ],
            }
        }
        _ => {
            // soak: flat sustained rate, aggressive churn, many sockets.
            let requests = if smoke { 1500 } else { args.requests.max(1500) };
            OpenProfile {
                mix: MixSpec {
                    requests,
                    seed: 13,
                    include_eighth: false,
                },
                connections: args.connections.unwrap_or(5_000),
                churn_every: args.churn_every.unwrap_or(1),
                schedule: vec![RateStep {
                    requests,
                    rps: 300.0,
                }],
            }
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };
    let open_loop = args.profile == "ramp" || args.profile == "soak";
    let smoke_scale = args.requests == 0;
    let profile = if open_loop {
        Some(open_profile(&args, smoke_scale))
    } else {
        None
    };
    let spec = match (&profile, args.profile.as_str()) {
        (Some(p), _) => p.mix.clone(),
        (None, "smoke") => MixSpec::smoke(),
        (None, "chaos") => MixSpec::chaos(),
        _ => MixSpec {
            requests: args.requests,
            seed: args.seed,
            include_eighth: args.include_eighth,
        },
    };
    let mut mix = generate(&spec);
    if args.profile == "chaos" {
        // Short, uniform deadlines keep the hung-worker watchdog tight,
        // so injected hangs resolve in round-trip time, not minutes.
        force_deadlines(&mut mix, args.deadline_ms);
    }

    // Server topology for the report, via the stats op.
    let (workers, shards) = match probe_stats(&args.addrs[0]) {
        Ok(p) => (p.workers, p.shards),
        Err(e) => {
            eprintln!("loadgen: cannot reach server at {}: {e}", args.addrs[0]);
            std::process::exit(1);
        }
    };

    let started = Instant::now();
    let (results, concurrent, churned, wall_ms) = if let Some(p) = &profile {
        let spec = OpenLoopSpec {
            connections: p.connections,
            churn_every: p.churn_every,
            schedule: p.schedule.clone(),
            timeout_ms: args.timeout_ms,
        };
        match run_open_loop(&args.addrs, &mix, &spec) {
            Ok(r) => (r.run, r.concurrent, r.churned, r.wall_ms),
            Err(e) => {
                eprintln!("loadgen: {e}");
                std::process::exit(1);
            }
        }
    } else {
        match run_closed_loop(&args.addrs, &mix, args.concurrency) {
            Ok(r) => {
                let wall_ms = started.elapsed().as_secs_f64() * 1e3;
                (r, args.concurrency * args.addrs.len(), 0, wall_ms)
            }
            Err(e) => {
                eprintln!("loadgen: {e}");
                std::process::exit(1);
            }
        }
    };

    for e in &results.errors {
        eprintln!("loadgen: request error: {e}");
    }

    let (checked, mismatches, messages) = determinism_audit(&results.responses, args.check);
    for m in &messages {
        eprintln!("loadgen: DETERMINISM: {m}");
    }

    // Post-run serving probes: the servers' connection high-water marks
    // and reply-queue depths, taken before shutdown tears them down.
    let probes: Vec<StatsProbe> = args
        .addrs
        .iter()
        .filter_map(|addr| probe_stats(addr).ok())
        .collect();

    let fault = FaultReport::from_samples(
        &args.profile,
        results.faults.conn_failures,
        results.faults.reconnects,
        results.faults.retry_errors,
        &results.faults.recovery_ms,
    );
    let connections: ConnectionsReport = connections_report(
        concurrent,
        churned,
        results.shard_loads(&args.addrs, wall_ms),
        &probes,
    );
    let server_peak = connections.server_peak;
    let report = LoadReport::from_outcomes(
        &results.outcomes,
        RunCounters {
            requests: mix.len(),
            rejected: results.rejected,
            errors: results.errors.len(),
            workers: workers.max(1),
            shards: shards.max(1),
            wall_ms,
            determinism_checked: checked,
            determinism_mismatches: mismatches,
        },
        fault,
        connections,
    );
    let block = report.to_value();
    println!("{}", block.to_pretty());
    let mut failed = false;
    if let Some(path) = &args.out {
        if let Err(e) = write_service_document(path, &block) {
            eprintln!("loadgen: {path}: {e}");
            failed = true;
        }
    }
    if mismatches > 0 {
        eprintln!("loadgen: {mismatches} determinism mismatch(es)");
        failed = true;
    }
    match args.profile.as_str() {
        "smoke" => {
            if report.ok != mix.len() {
                eprintln!(
                    "loadgen: smoke requires every request to succeed ({} of {})",
                    report.ok,
                    mix.len()
                );
                failed = true;
            }
            if report.tier_exact + report.coalesced == 0 {
                eprintln!("loadgen: smoke requires at least one cache/coalesce hit");
                failed = true;
            }
            if checked == 0 {
                eprintln!("loadgen: smoke requires determinism checks to run");
                failed = true;
            }
        }
        "ramp" | "soak" => {
            if report.ok != mix.len() {
                eprintln!(
                    "loadgen: {} requires every request to succeed ({} of {}; {} rejected, \
                     {} errors)",
                    args.profile,
                    report.ok,
                    mix.len(),
                    report.rejected,
                    report.errors
                );
                failed = true;
            }
            if checked == 0 {
                eprintln!(
                    "loadgen: {} requires determinism checks to run",
                    args.profile
                );
                failed = true;
            }
            if server_peak < concurrent {
                eprintln!(
                    "loadgen: {} requires the server(s) to have held all {} connections \
                     concurrently (peak seen: {})",
                    args.profile, concurrent, server_peak
                );
                failed = true;
            }
            for load in report.connections.per_shard.iter() {
                if args.addrs.len() > 1 && load.requests == 0 {
                    eprintln!(
                        "loadgen: {} routed no requests to shard {} ({})",
                        args.profile, load.shard, load.addr
                    );
                    failed = true;
                }
            }
            if args.profile == "soak" && report.connections.churned == 0 {
                eprintln!("loadgen: soak requires at least one churn cycle");
                failed = true;
            }
            eprintln!(
                "loadgen: {} held {} connection(s) (server peak {}), churned {}, \
                 {:.1} req/s over {:.0} ms",
                args.profile,
                concurrent,
                server_peak,
                report.connections.churned,
                report.throughput_rps(),
                wall_ms
            );
        }
        "chaos" => {
            // The chaos bar: every request *terminates* with a verified
            // bit-identical response — faults may slow it down (retries,
            // reconnects, the supervision ladder), never corrupt it or
            // lose it.
            if report.ok != mix.len() {
                eprintln!(
                    "loadgen: chaos requires every request to terminate successfully \
                     ({} of {}; {} rejected, {} errors)",
                    report.ok,
                    mix.len(),
                    report.rejected,
                    report.errors
                );
                failed = true;
            }
            if checked == 0 {
                eprintln!("loadgen: chaos requires determinism checks to run");
                failed = true;
            }
            eprintln!(
                "loadgen: chaos survived {} connection failure(s), {} reconnect(s), \
                 {} typed retry(ies); {} request(s) recovered (p99 {:.1} ms)",
                report.fault.conn_failures,
                report.fault.reconnects,
                report.fault.retry_errors,
                report.fault.recovered,
                report.fault.recovery_p99
            );
        }
        _ => {}
    }
    if args.shutdown {
        for addr in &args.addrs {
            match request_shutdown(addr) {
                Ok(()) => eprintln!("loadgen: {addr} drained and acked shutdown"),
                Err(e) => {
                    eprintln!("loadgen: shutdown {addr}: {e}");
                    failed = true;
                }
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}
