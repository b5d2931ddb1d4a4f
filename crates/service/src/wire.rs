//! The line-delimited JSON wire protocol `hslb-serve` speaks.
//!
//! Grammar (one JSON object per line, compact rendering, UTF-8):
//!
//! ```text
//! command   = tune | sweep | ping | stats | health | shutdown
//! tune      = {"op":"tune","id":N,"resolution":"1deg"|"eighth",
//!              "layout":"hybrid"|"seq-ocean"|"sequential",
//!              "objective":"min-max"|"max-min"|"min-sum",
//!              "nodes":N,"ocean":BOOL,"seed":N,"priority":0..9,
//!              "deadline_ms":N?}
//! sweep     = {"op":"sweep","spec":SPEC}
//!             ; SPEC is an hslb-sweep SweepSpec object; the server
//!             ; streams {"ok":true,"op":"sweep-progress",...} frames
//!             ; (one per terminal configuration — a slow reader sees
//!             ; intermediate frames coalesced away, never a disconnect)
//!             ; and finishes with one {"ok":true,"op":"sweep",
//!             ; "portfolio":...} frame
//! ping      = {"op":"ping"}
//! stats     = {"op":"stats"}
//! health    = {"op":"health"}              ; supervision/recovery
//! shutdown  = {"op":"shutdown"}            ; drains, acks, then exits
//!
//! reply     = ok | err
//! ok        = {"ok":true,"op":OP, ...op-specific fields}
//! err       = {"ok":false,"error":S,"id":N?,"retry_after_ms":N?}
//! ```
//!
//! `retry_after_ms` appears on both backpressure and drain rejections,
//! so a retrying client treats them uniformly.
//!
//! Floats cross the wire bit-exactly: the printer renders non-integral
//! `f64`s shortest-round-trip, so a client can recompute a response's
//! fingerprint from the parsed fields and compare it to the `fingerprint`
//! the server embedded (what `loadgen` does for its determinism check).

use crate::request::{TuneRequest, TuneResponse};
use crate::service::{HealthStats, ServiceStats, SubmitError};
use crate::sweep_driver::SweepProgress;
use hslb_sweep::{Portfolio, SweepSpec};
use hslb_telemetry::json::{parse, Value};

/// One parsed client command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Tune(TuneRequest),
    /// A portfolio sweep: streamed progress frames, then the portfolio.
    Sweep(SweepSpec),
    Ping,
    Stats,
    Health,
    Shutdown,
}

/// Parse one wire line into a command.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let v = parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    match v.get("op").and_then(Value::as_str) {
        Some("tune") => Ok(Command::Tune(TuneRequest::from_value(&v)?)),
        Some("sweep") => {
            let spec = v.get("spec").ok_or("sweep: missing `spec`")?;
            Ok(Command::Sweep(SweepSpec::from_value(spec)?))
        }
        Some("ping") => Ok(Command::Ping),
        Some("stats") => Ok(Command::Stats),
        Some("health") => Ok(Command::Health),
        Some("shutdown") => Ok(Command::Shutdown),
        Some(other) => Err(format!("unknown op {other:?}")),
        None => Err("missing `op`".to_string()),
    }
}

fn with_ok(op: &str, mut fields: Vec<(String, Value)>) -> String {
    let mut kv = vec![
        ("ok".to_string(), Value::Bool(true)),
        ("op".to_string(), Value::Str(op.to_string())),
    ];
    kv.append(&mut fields);
    Value::Obj(kv).to_string()
}

/// Serialize a tune response line.
pub fn tune_reply(resp: &TuneResponse) -> String {
    let Value::Obj(fields) = resp.to_value() else {
        unreachable!("TuneResponse::to_value returns an object");
    };
    with_ok("tune", fields)
}

/// Serialize a ping reply.
pub fn pong_reply() -> String {
    with_ok("pong", Vec::new())
}

/// Serialize a stats reply.
pub fn stats_reply(stats: &ServiceStats) -> String {
    stats_reply_with(stats, None)
}

/// Serialize a stats reply with an optional `serving` block — the
/// readiness loop's connection-scale accounting (connection counts,
/// reply-queue depth percentiles, shard identity). `None` keeps the
/// plain service-stats shape for in-process servers.
pub fn stats_reply_with(stats: &ServiceStats, serving: Option<Value>) -> String {
    let mut fields = vec![("stats".to_string(), stats.to_value())];
    if let Some(serving) = serving {
        fields.push(("serving".to_string(), serving));
    }
    with_ok("stats", fields)
}

/// Serialize a health reply.
pub fn health_reply(health: &HealthStats) -> String {
    with_ok("health", vec![("health".to_string(), health.to_value())])
}

/// Serialize one streamed sweep progress frame.
pub fn sweep_progress_reply(p: &SweepProgress) -> String {
    with_ok(
        "sweep-progress",
        vec![
            ("done".to_string(), Value::Num(p.done as f64)),
            ("total".to_string(), Value::Num(p.total as f64)),
            ("key".to_string(), Value::Str(p.key.clone())),
            ("status".to_string(), Value::Str(p.status.to_string())),
            ("makespan".to_string(), Value::Num(p.makespan)),
        ],
    )
}

/// Serialize the final sweep frame: the ranked portfolio.
pub fn sweep_portfolio_reply(portfolio: &Portfolio) -> String {
    with_ok(
        "sweep",
        vec![("portfolio".to_string(), portfolio.to_value())],
    )
}

/// Serialize a sweep-level failure (spec rejected, a member solve
/// failed, or the server's concurrent-sweep cap was hit — the latter
/// carries a retry hint).
pub fn sweep_error_reply(message: &str, retry_after_ms: Option<u64>) -> String {
    let mut kv = vec![
        ("ok".to_string(), Value::Bool(false)),
        ("op".to_string(), Value::Str("sweep".to_string())),
        ("error".to_string(), Value::Str(message.to_string())),
    ];
    if let Some(ms) = retry_after_ms {
        kv.push(("retry_after_ms".to_string(), Value::Num(ms as f64)));
    }
    Value::Obj(kv).to_string()
}

/// Serialize the shutdown acknowledgement (sent *after* the drain).
pub fn shutdown_reply() -> String {
    with_ok("shutdown", Vec::new())
}

/// Serialize an error line. `id` correlates it to a tune request when
/// known; backpressure and drain rejections carry their retry hint.
pub fn error_reply(id: Option<u64>, err: &SubmitError) -> String {
    let mut kv = vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::Str(err.to_string())),
    ];
    if let Some(id) = id {
        kv.push(("id".to_string(), Value::Num(id as f64)));
    }
    match err {
        SubmitError::Backpressure(bp) => kv.push((
            "retry_after_ms".to_string(),
            Value::Num(bp.retry_after_ms as f64),
        )),
        SubmitError::Draining { retry_after_ms } => kv.push((
            "retry_after_ms".to_string(),
            Value::Num(*retry_after_ms as f64),
        )),
        _ => {}
    }
    Value::Obj(kv).to_string()
}

/// Serialize the typed rejection a sharded server sends for a tune
/// request whose exact key routes to another shard. Terminal (no
/// `retry_after_ms`): the client must fix its routing table, not retry
/// the same shard.
pub fn misrouted_reply(id: u64, owner_shard: usize, spec: crate::shard::ShardSpec) -> String {
    Value::Obj(vec![
        ("ok".to_string(), Value::Bool(false)),
        (
            "error".to_string(),
            Value::Str(format!(
                "misrouted: key belongs to shard {owner_shard}, this is shard {spec}"
            )),
        ),
        ("id".to_string(), Value::Num(id as f64)),
        ("owner_shard".to_string(), Value::Num(owner_shard as f64)),
    ])
    .to_string()
}

/// Serialize a protocol-level error (unparseable line, unknown op).
pub fn protocol_error_reply(message: &str) -> String {
    Value::Obj(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::Str(message.to_string())),
    ])
    .to_string()
}

/// Parse one server reply line. Returns `(ok, value)`.
pub fn parse_reply(line: &str) -> Result<(bool, Value), String> {
    let v = parse(line).map_err(|e| format!("bad JSON reply: {e}"))?;
    let ok = v.get("ok").and_then(Value::as_bool).unwrap_or(false);
    Ok((ok, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Backpressure;
    use crate::request::{CacheTier, TunePayload};
    use hslb_cesm::{layout::ComponentTimes, Allocation, Resolution};

    #[test]
    fn command_round_trip() {
        let req = TuneRequest::new(5, Resolution::OneDegree, 96);
        let mut v = req.to_value();
        if let Value::Obj(kv) = &mut v {
            kv.insert(0, ("op".to_string(), Value::Str("tune".to_string())));
        }
        let line = v.to_string();
        assert!(!line.contains('\n'), "wire lines are single-line");
        match parse_command(&line).unwrap() {
            Command::Tune(back) => assert_eq!(back, req),
            other => panic!("wrong command {other:?}"),
        }
        assert_eq!(parse_command("{\"op\":\"ping\"}").unwrap(), Command::Ping);
        assert_eq!(parse_command("{\"op\":\"stats\"}").unwrap(), Command::Stats);
        assert_eq!(
            parse_command("{\"op\":\"health\"}").unwrap(),
            Command::Health
        );
        assert_eq!(
            parse_command("{\"op\":\"shutdown\"}").unwrap(),
            Command::Shutdown
        );
        assert!(parse_command("{\"op\":\"nope\"}").is_err());
        assert!(parse_command("not json").is_err());
    }

    #[test]
    fn draining_error_carries_retry_hint() {
        let line = error_reply(Some(4), &SubmitError::Draining { retry_after_ms: 12 });
        let (ok, v) = parse_reply(&line).unwrap();
        assert!(!ok);
        assert_eq!(v.get("retry_after_ms").and_then(Value::as_f64), Some(12.0));
    }

    #[test]
    fn tune_reply_fingerprint_survives_the_wire() {
        let payload = TunePayload {
            allocation: Allocation {
                lnd: 12,
                ice: 20,
                atm: 64,
                ocn: 32,
            },
            predicted: Some(ComponentTimes {
                lnd: 1.000000000000004,
                ice: 2.5e-3,
                atm: std::f64::consts::PI,
                ocn: 7.125,
            }),
            predicted_total: Some(123.45600000000002),
            actual: ComponentTimes {
                lnd: 1.1,
                ice: 2.2,
                atm: 3.3,
                ocn: 4.4,
            },
            actual_total: 9.9,
            min_r_squared: Some(0.9987654321),
            rung: "MINLP branch-and-bound".to_string(),
            degraded: false,
            certified: true,
            audit_passed: Some(true),
        };
        let resp = TuneResponse {
            id: 9,
            payload: payload.clone(),
            tier: CacheTier::Miss,
            coalesced: false,
            queue_wait_ms: 0.25,
            service_ms: 4.5,
        };
        let line = tune_reply(&resp);
        let (ok, v) = parse_reply(&line).unwrap();
        assert!(ok);
        let back = TuneResponse::from_value(&v).unwrap();
        // Bit-identical payload after a JSON round trip.
        assert_eq!(back.payload.fingerprint(), payload.fingerprint());
        assert_eq!(
            v.get("fingerprint").and_then(Value::as_str).unwrap(),
            payload.fingerprint()
        );
    }

    #[test]
    fn sweep_command_and_replies_round_trip() {
        let spec = SweepSpec {
            one_degree_budgets: vec![64, 128],
            eighth_degree_budgets: vec![8192],
            ..SweepSpec::default()
        };
        let line = Value::Obj(vec![
            ("op".to_string(), Value::Str("sweep".to_string())),
            ("spec".to_string(), spec.to_value()),
        ])
        .to_string();
        match parse_command(&line).unwrap() {
            Command::Sweep(back) => assert_eq!(back, spec),
            other => panic!("wrong command {other:?}"),
        }
        // A sweep without a spec is a protocol error.
        assert!(parse_command("{\"op\":\"sweep\"}").is_err());

        let p = SweepProgress {
            done: 3,
            total: 24,
            key: "1deg|hybrid|min-max|n96|oceantrue|seed42".to_string(),
            status: "solved",
            makespan: 12.5,
        };
        let (ok, v) = parse_reply(&sweep_progress_reply(&p)).unwrap();
        assert!(ok);
        assert_eq!(v.get("op").and_then(Value::as_str), Some("sweep-progress"));
        assert_eq!(v.get("done").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("solved"));

        let (ok, v) = parse_reply(&sweep_error_reply("sweep capacity reached", Some(250))).unwrap();
        assert!(!ok);
        assert_eq!(v.get("op").and_then(Value::as_str), Some("sweep"));
        assert_eq!(v.get("retry_after_ms").and_then(Value::as_f64), Some(250.0));
    }

    #[test]
    fn error_reply_carries_retry_hint() {
        let line = error_reply(
            Some(3),
            &SubmitError::Backpressure(Backpressure {
                retry_after_ms: 40,
                depth: 8,
            }),
        );
        let (ok, v) = parse_reply(&line).unwrap();
        assert!(!ok);
        assert_eq!(v.get("retry_after_ms").and_then(Value::as_f64), Some(40.0));
        assert_eq!(v.get("id").and_then(Value::as_f64), Some(3.0));
    }

    /// Seeded mutation fuzz (ROADMAP 4e): valid `tune` and `sweep` lines
    /// truncated, bit-flipped, given a duplicate key or spliced with
    /// nesting, then decoded the way the reactor decodes a line. Every
    /// case must come back `Ok(Command)` or `Err(String)` — a panic (or
    /// a stack overflow) fails the test.
    #[test]
    fn mutated_tune_and_sweep_lines_never_panic() {
        let mut tune = TuneRequest::new(5, Resolution::OneDegree, 96).to_value();
        if let Value::Obj(kv) = &mut tune {
            kv.insert(0, ("op".to_string(), Value::Str("tune".to_string())));
        }
        let spec = SweepSpec {
            one_degree_budgets: vec![64, 128],
            eighth_degree_budgets: vec![8192],
            ..SweepSpec::default()
        };
        let sweep = Value::Obj(vec![
            ("op".to_string(), Value::Str("sweep".to_string())),
            ("spec".to_string(), spec.to_value()),
        ]);
        let seeds = [tune, sweep];

        let mut rng = crate::loadmix::Lcg(0x5EED_F00D);
        let (mut accepted, mut rejected) = (0usize, 0usize);
        for case in 0..6000 {
            let mut doc = seeds[case % 2].clone();
            if rng.below(4) == 0 {
                // Duplicate a key, with some other member's value.
                let target = match &mut doc {
                    Value::Obj(kv) if case % 2 == 1 && rng.below(2) == 0 => &mut kv[1].1,
                    other => other,
                };
                if let Value::Obj(kv) = target {
                    let key = kv[rng.below(kv.len())].0.clone();
                    let value = kv[rng.below(kv.len())].1.clone();
                    kv.insert(rng.below(kv.len() + 1), (key, value));
                }
            }
            let mut bytes = doc.to_string().into_bytes();
            rng.mutate(&mut bytes, crate::loadmix::JSON_PIECES);
            match parse_command(&String::from_utf8_lossy(&bytes)) {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
        }
        assert!(
            accepted > 500 && rejected > 500,
            "{accepted} ok / {rejected} err"
        );
    }

    /// Seeded mutation fuzz of the client's side of a sweep: the final
    /// `hslb-sweep` reply line truncated, bit-flipped or spliced with
    /// nesting, then decoded the way `hslb-sweep` decodes it. Both
    /// decoders must return `Ok` or `Err` on every case and reach both.
    /// (`portfolio.rs` pins that documents with and without the retired
    /// one-shot estimate both decode.)
    #[test]
    fn mutated_sweep_reply_lines_never_panic() {
        let entry = |key: &str, makespan: f64, pruned: bool| hslb_sweep::PortfolioEntry {
            key: key.to_string(),
            layout: "hybrid".to_string(),
            resolution: "1deg".to_string(),
            objective: "min-max".to_string(),
            target_nodes: 128,
            held: false,
            pruned,
            makespan,
            predicted: Some(makespan * 1.01),
            nodes_used: (!pruned).then_some(120),
            idle_fraction: (!pruned).then_some(0.0625),
            fingerprint: (!pruned).then(|| format!("fp-{key}")),
            rung: "minlp".to_string(),
            certified: !pruned,
            audit_passed: (!pruned).then_some(true),
        };
        let decision = hslb_sweep::PruneDecision {
            key: "c".to_string(),
            group: "1deg|n128".to_string(),
            predicted: 31.5,
            incumbent: 12.25,
            inflation: 1.3,
            pruned: true,
            reason: "predicted/1.300 > incumbent".to_string(),
        };
        let stats = hslb_sweep::SweepStats {
            planned: 2,
            solved: 1,
            pruned: 1,
            predictor_mae: Some(0.03),
            wall_ms: 42.5,
            ..hslb_sweep::SweepStats::default()
        };
        let entries = vec![entry("a", 12.25, false), entry("c", 31.5, true)];
        let portfolio = Portfolio::assemble(entries, vec![decision], stats);
        let line = sweep_portfolio_reply(&portfolio);
        let (_, v) = parse_reply(&line).unwrap();
        assert_eq!(
            Portfolio::from_value(v.get("portfolio").unwrap()),
            Ok(portfolio)
        );

        let mut rng = crate::loadmix::Lcg(0x5EED_5EE9);
        let (mut portfolios, mut stats) = ([0usize; 2], [0usize; 2]);
        for _ in 0..4000 {
            let mut bytes = line.clone().into_bytes();
            rng.mutate(&mut bytes, crate::loadmix::JSON_PIECES);
            let Ok((_, v)) = parse_reply(&String::from_utf8_lossy(&bytes)) else {
                continue;
            };
            let Some(p) = v.get("portfolio") else {
                continue;
            };
            portfolios[usize::from(Portfolio::from_value(p).is_ok())] += 1;
            if let Some(s) = p.get("stats") {
                stats[usize::from(hslb_sweep::SweepStats::from_value(s).is_ok())] += 1;
            }
        }
        assert!(
            portfolios.iter().all(|&n| n > 30) && stats.iter().all(|&n| n > 30),
            "Portfolio err/ok {portfolios:?}, SweepStats err/ok {stats:?}"
        );
    }
}
