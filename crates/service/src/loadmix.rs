//! Deterministic request mixes for `loadgen`, and the
//! `hslb-service-load/v3` document it reports.
//!
//! The generator is a seeded LCG over a fixed scenario pool, so a
//! `(requests, seed)` pair always produces the same mix — including the
//! ~40% duplicate rate that exercises the coalescer and exact cache.
//! Priorities and logical deadlines vary per request but never the
//! pipeline inputs, so duplicates stay exact-key duplicates.
//!
//! The v2 service-load document added a `profile` tag and a `faults`
//! block: connection failures survived, reconnects, typed-error retries,
//! and the latency percentiles of recovering from a fault to a correct
//! response — the chaos/soak accounting of DESIGN.md §13. The v3
//! document adds the `connections` block — concurrent-connection
//! counts, server-side reply-queue depth percentiles, and the per-shard
//! throughput split that evidences linear scaling (DESIGN.md §15).

use crate::request::TuneRequest;
use hslb::Objective;
use hslb_cesm::{Layout, Resolution};
use hslb_telemetry::json::Value;
use std::path::Path;

/// What mix to generate.
#[derive(Debug, Clone)]
pub struct MixSpec {
    pub requests: usize,
    pub seed: u64,
    /// Include the expensive 1/8° 8192-node scenario (full runs only —
    /// smoke mixes stay 1°).
    pub include_eighth: bool,
}

impl MixSpec {
    /// The smoke mix `loadgen --smoke` and the check.sh gate use.
    pub fn smoke() -> MixSpec {
        MixSpec {
            requests: 24,
            seed: 7,
            include_eighth: false,
        }
    }

    /// The chaos profile mix, replayed against a fault-injecting server
    /// (`hslb-serve --fault-rate`). Pair with [`force_deadlines`] so the
    /// hung-worker watchdog stays short.
    pub fn chaos() -> MixSpec {
        MixSpec {
            requests: 48,
            seed: 7,
            include_eighth: false,
        }
    }
}

/// Pin every request's deadline (chaos runs: the deadline keys the
/// service's hung-worker watchdog, so injected hangs resolve quickly).
/// Scheduling-only — pipeline inputs, and therefore exact keys, are
/// untouched.
pub fn force_deadlines(mix: &mut [TuneRequest], deadline_ms: u64) {
    for req in mix {
        req.deadline_ms = Some(deadline_ms);
    }
}

/// Deterministic 64-bit LCG (Knuth constants), returning the high bits.
pub(crate) struct Lcg(pub(crate) u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// Zero to two byte-level mutations of `bytes`, each a truncation, a
    /// bit flip, or 1–200 copies of one of `pieces` spliced in: the
    /// decoder fuzz tests' damage model.
    #[cfg(test)]
    pub(crate) fn mutate(&mut self, bytes: &mut Vec<u8>, pieces: &[&[u8]]) {
        for _ in 0..self.below(3) {
            let at = self.below(bytes.len());
            match self.below(3) {
                0 => bytes.truncate(at),
                1 if !bytes.is_empty() => bytes[at] ^= 1 << self.below(8),
                _ => {
                    let piece = pieces[self.below(pieces.len())];
                    bytes.splice(at..at, piece.repeat(1 + self.below(200)));
                }
            }
        }
    }
}

/// Splice pieces for JSON documents: nesting openers and closers.
#[cfg(test)]
pub(crate) const JSON_PIECES: &[&[u8]] = &[b"[", b"{\"a\":", b"]", b"}"];

/// Generate the request mix for a spec.
pub fn generate(spec: &MixSpec) -> Vec<TuneRequest> {
    let budgets = [64, 96, 128, 192, 256];
    let layouts = [
        Layout::Hybrid,
        Layout::SequentialWithOcean,
        Layout::FullySequential,
    ];
    // max-min routes down the exhaustive rung (nonconvex MINLP), so it
    // only appears at the smallest budget to keep mixes quick.
    let objectives = [Objective::MinMax, Objective::SumTime];
    let mut rng = Lcg(spec.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut out: Vec<TuneRequest> = Vec::with_capacity(spec.requests);
    for id in 0..spec.requests as u64 {
        // ~40% of requests duplicate an earlier scenario (fresh id and
        // scheduling class, same pipeline inputs).
        let mut req = if !out.is_empty() && rng.below(10) < 4 {
            let prev = out[rng.below(out.len())].clone();
            TuneRequest { id, ..prev }
        } else {
            let mut req = if spec.include_eighth && rng.below(12) == 0 {
                TuneRequest::new(id, Resolution::EighthDegree, 8192)
            } else if rng.below(10) == 0 {
                TuneRequest {
                    objective: Objective::MaxMin,
                    ..TuneRequest::new(id, Resolution::OneDegree, budgets[0])
                }
            } else {
                TuneRequest {
                    layout: layouts[rng.below(layouts.len())],
                    objective: objectives[rng.below(objectives.len())],
                    ..TuneRequest::new(id, Resolution::OneDegree, budgets[rng.below(budgets.len())])
                }
            };
            req.id = id;
            req
        };
        req.priority = (rng.below(10)) as u8;
        req.deadline_ms = if rng.below(2) == 0 {
            Some(50 + rng.below(950) as u64)
        } else {
            None
        };
        out.push(req);
    }
    out
}

/// One finished request as `loadgen` saw it.
#[derive(Debug, Clone)]
pub struct LoadOutcome {
    pub tier: crate::request::CacheTier,
    pub coalesced: bool,
    pub queue_wait_ms: f64,
    pub e2e_ms: f64,
}

/// Interpolated percentile of an unsorted sample (p in [0, 100]).
///
/// Non-finite samples (NaN, ±inf) are filtered out before sorting: a
/// single NaN latency must neither scramble the sort order (NaN
/// compares `Equal` to everything under the old `partial_cmp` fallback,
/// which silently shuffled neighbors) nor poison the interpolation. An
/// all-non-finite (or empty) sample reports 0.0.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Fault-survival accounting for one load run (all zero on a fault-free
/// run).
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Which profile produced the run: "smoke", "soak", "chaos", …
    pub profile: String,
    /// Broken connections observed (drops + truncated frames).
    pub conn_failures: usize,
    /// Times a client re-dialed the server after a broken connection.
    pub reconnects: usize,
    /// Typed error replies (backpressure/draining) that were retried.
    pub retry_errors: usize,
    /// Requests that failed at least once and eventually succeeded.
    pub recovered: usize,
    /// Recovery latency (first failure → verified success), percentiles.
    pub recovery_p50: f64,
    pub recovery_p90: f64,
    pub recovery_p99: f64,
}

impl FaultReport {
    /// Summarize raw counters plus per-request recovery latencies.
    pub fn from_samples(
        profile: &str,
        conn_failures: usize,
        reconnects: usize,
        retry_errors: usize,
        recovery_ms: &[f64],
    ) -> FaultReport {
        FaultReport {
            profile: profile.to_string(),
            conn_failures,
            reconnects,
            retry_errors,
            recovered: recovery_ms.len(),
            recovery_p50: percentile(recovery_ms, 50.0),
            recovery_p90: percentile(recovery_ms, 90.0),
            recovery_p99: percentile(recovery_ms, 99.0),
        }
    }
}

/// Per-shard accounting of one load run: how many requests routed to a
/// shard, how many succeeded, and over what wall-clock window — the
/// linear-scaling evidence of the v3 schema.
#[derive(Debug, Clone)]
pub struct ShardLoad {
    /// Shard index in the deployment (consistent-hash owner).
    pub shard: usize,
    /// The shard's address as the client dialed it.
    pub addr: String,
    /// Requests the router sent to this shard.
    pub requests: usize,
    /// Requests that ended in a verified success.
    pub ok: usize,
    /// Wall-clock window this shard was driven over.
    pub wall_ms: f64,
}

impl ShardLoad {
    /// Verified successes per second over this shard's window.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.ok as f64 / (self.wall_ms / 1e3)
        }
    }

    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("shard".to_string(), Value::Num(self.shard as f64)),
            ("addr".to_string(), Value::Str(self.addr.clone())),
            ("requests".to_string(), Value::Num(self.requests as f64)),
            ("ok".to_string(), Value::Num(self.ok as f64)),
            ("wall_ms".to_string(), Value::Num(self.wall_ms)),
            (
                "throughput_rps".to_string(),
                Value::Num(self.throughput_rps()),
            ),
        ])
    }
}

/// Connection-scale accounting of one load run (the v3 addition):
/// client-side concurrency and churn, the server's connection
/// high-water mark, server-side reply-queue depth percentiles, and the
/// per-shard request/throughput split.
#[derive(Debug, Clone)]
pub struct ConnectionsReport {
    /// Client-side concurrently open connections (high-water mark).
    pub concurrent: usize,
    /// Server-reported peak concurrent connections (summed across shard
    /// processes — each holds its slice of the client's sockets).
    pub server_peak: usize,
    /// Connections deliberately closed and reopened by churn.
    pub churned: usize,
    /// Server-side reply-queue depth percentiles (frames queued on a
    /// connection at enqueue time; max-merged across shards).
    pub reply_queue_p50: f64,
    pub reply_queue_p90: f64,
    pub reply_queue_p99: f64,
    pub reply_queue_max: f64,
    /// Per-shard accounting; a single unsharded server reports one row.
    pub per_shard: Vec<ShardLoad>,
}

impl ConnectionsReport {
    /// A single-connection-class run against one unsharded server.
    pub fn single(concurrent: usize, shard: ShardLoad) -> ConnectionsReport {
        ConnectionsReport {
            concurrent,
            server_peak: concurrent,
            churned: 0,
            reply_queue_p50: 0.0,
            reply_queue_p90: 0.0,
            reply_queue_p99: 0.0,
            reply_queue_max: 0.0,
            per_shard: vec![shard],
        }
    }

    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("concurrent".to_string(), Value::Num(self.concurrent as f64)),
            (
                "server_peak".to_string(),
                Value::Num(self.server_peak as f64),
            ),
            ("churned".to_string(), Value::Num(self.churned as f64)),
            (
                "reply_queue_depth".to_string(),
                Value::Obj(vec![
                    ("p50".to_string(), Value::Num(self.reply_queue_p50)),
                    ("p90".to_string(), Value::Num(self.reply_queue_p90)),
                    ("p99".to_string(), Value::Num(self.reply_queue_p99)),
                    ("max".to_string(), Value::Num(self.reply_queue_max)),
                ]),
            ),
            (
                "per_shard".to_string(),
                Value::Arr(self.per_shard.iter().map(ShardLoad::to_value).collect()),
            ),
        ])
    }
}

/// The throughput/latency summary `loadgen` reports (the
/// `hslb-service-load/v3` document).
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub requests: usize,
    pub ok: usize,
    pub rejected: usize,
    pub errors: usize,
    pub workers: usize,
    pub shards: usize,
    pub wall_ms: f64,
    pub queue_wait_p50: f64,
    pub queue_wait_p90: f64,
    pub queue_wait_p99: f64,
    pub e2e_p50: f64,
    pub e2e_p90: f64,
    pub e2e_p99: f64,
    pub tier_exact: usize,
    pub tier_fit: usize,
    pub tier_miss: usize,
    pub coalesced: usize,
    pub determinism_checked: usize,
    pub determinism_mismatches: usize,
    pub fault: FaultReport,
    pub connections: ConnectionsReport,
}

/// Schema tag of the standalone service-load document.
pub const SERVICE_SCHEMA: &str = "hslb-service-load/v3";

/// The retired v1 tag — recognized only to reject it with a clear
/// message (v1 documents carry no fault/recovery accounting).
pub const SERVICE_SCHEMA_V1: &str = "hslb-service-load/v1";

/// The retired v2 tag — recognized only to reject it with a clear
/// message (v2 documents predate connection-scale serving).
pub const SERVICE_SCHEMA_V2: &str = "hslb-service-load/v2";

/// Run-level scalars that accompany the per-request outcomes when
/// building a [`LoadReport`]: counts the outcome list cannot carry
/// (rejections never produce an outcome) plus the run configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunCounters {
    pub requests: usize,
    pub rejected: usize,
    pub errors: usize,
    pub workers: usize,
    pub shards: usize,
    pub wall_ms: f64,
    pub determinism_checked: usize,
    pub determinism_mismatches: usize,
}

impl LoadReport {
    /// Summarize finished requests.
    pub fn from_outcomes(
        outcomes: &[LoadOutcome],
        run: RunCounters,
        fault: FaultReport,
        connections: ConnectionsReport,
    ) -> LoadReport {
        let RunCounters {
            requests,
            rejected,
            errors,
            workers,
            shards,
            wall_ms,
            determinism_checked,
            determinism_mismatches,
        } = run;
        let queue_waits: Vec<f64> = outcomes.iter().map(|o| o.queue_wait_ms).collect();
        let e2es: Vec<f64> = outcomes.iter().map(|o| o.e2e_ms).collect();
        let mut tier_exact = 0;
        let mut tier_fit = 0;
        let mut tier_miss = 0;
        let mut coalesced = 0;
        for o in outcomes {
            if o.coalesced {
                coalesced += 1;
            } else {
                match o.tier {
                    crate::request::CacheTier::Exact => tier_exact += 1,
                    crate::request::CacheTier::Fit => tier_fit += 1,
                    crate::request::CacheTier::Miss => tier_miss += 1,
                }
            }
        }
        LoadReport {
            requests,
            ok: outcomes.len(),
            rejected,
            errors,
            workers,
            shards,
            wall_ms,
            queue_wait_p50: percentile(&queue_waits, 50.0),
            queue_wait_p90: percentile(&queue_waits, 90.0),
            queue_wait_p99: percentile(&queue_waits, 99.0),
            e2e_p50: percentile(&e2es, 50.0),
            e2e_p90: percentile(&e2es, 90.0),
            e2e_p99: percentile(&e2es, 99.0),
            tier_exact,
            tier_fit,
            tier_miss,
            coalesced,
            determinism_checked,
            determinism_mismatches,
            fault,
            connections,
        }
    }

    /// Requests per second over the wall-clock window.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.ok as f64 / (self.wall_ms / 1e3)
        }
    }

    /// The `hslb-service-load/v3` document.
    pub fn to_value(&self) -> Value {
        fn pct(p50: f64, p90: f64, p99: f64) -> Value {
            Value::Obj(vec![
                ("p50".to_string(), Value::Num(p50)),
                ("p90".to_string(), Value::Num(p90)),
                ("p99".to_string(), Value::Num(p99)),
            ])
        }
        Value::Obj(vec![
            ("schema".to_string(), Value::Str(SERVICE_SCHEMA.to_string())),
            (
                "profile".to_string(),
                Value::Str(self.fault.profile.clone()),
            ),
            ("requests".to_string(), Value::Num(self.requests as f64)),
            ("ok".to_string(), Value::Num(self.ok as f64)),
            ("rejected".to_string(), Value::Num(self.rejected as f64)),
            ("errors".to_string(), Value::Num(self.errors as f64)),
            ("workers".to_string(), Value::Num(self.workers as f64)),
            ("shards".to_string(), Value::Num(self.shards as f64)),
            ("wall_ms".to_string(), Value::Num(self.wall_ms)),
            (
                "throughput_rps".to_string(),
                Value::Num(self.throughput_rps()),
            ),
            (
                "queue_wait_ms".to_string(),
                pct(
                    self.queue_wait_p50,
                    self.queue_wait_p90,
                    self.queue_wait_p99,
                ),
            ),
            (
                "e2e_ms".to_string(),
                pct(self.e2e_p50, self.e2e_p90, self.e2e_p99),
            ),
            (
                "tiers".to_string(),
                Value::Obj(vec![
                    ("exact".to_string(), Value::Num(self.tier_exact as f64)),
                    ("fit".to_string(), Value::Num(self.tier_fit as f64)),
                    ("miss".to_string(), Value::Num(self.tier_miss as f64)),
                    ("coalesced".to_string(), Value::Num(self.coalesced as f64)),
                ]),
            ),
            (
                "determinism".to_string(),
                Value::Obj(vec![
                    (
                        "checked".to_string(),
                        Value::Num(self.determinism_checked as f64),
                    ),
                    (
                        "mismatches".to_string(),
                        Value::Num(self.determinism_mismatches as f64),
                    ),
                ]),
            ),
            (
                "faults".to_string(),
                Value::Obj(vec![
                    (
                        "conn_failures".to_string(),
                        Value::Num(self.fault.conn_failures as f64),
                    ),
                    (
                        "reconnects".to_string(),
                        Value::Num(self.fault.reconnects as f64),
                    ),
                    (
                        "retry_errors".to_string(),
                        Value::Num(self.fault.retry_errors as f64),
                    ),
                    (
                        "recovered".to_string(),
                        Value::Num(self.fault.recovered as f64),
                    ),
                    (
                        "recovery_ms".to_string(),
                        pct(
                            self.fault.recovery_p50,
                            self.fault.recovery_p90,
                            self.fault.recovery_p99,
                        ),
                    ),
                ]),
            ),
            ("connections".to_string(), self.connections.to_value()),
        ])
    }
}

/// Validate an `hslb-service-load` document (`loadgen --out` runs it on
/// its own document before writing it). Checks structure, conservation
/// (the `ok`, `rejected`, and `errors` counts sum to `requests`, tier
/// counts sum to `ok`, per-shard successes sum to `ok`), percentile
/// ordering and finiteness (a NaN percentile means the sampler was fed garbage),
/// the hard determinism bar (`mismatches == 0`), the v2 fault block,
/// and the v3 connections block. v1 and v2 documents are rejected
/// explicitly with upgrade messages.
pub fn validate_service_block(v: &Value) -> Result<(), String> {
    let num = |key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("service block missing numeric `{key}`"))
    };
    match v.get("schema").and_then(Value::as_str) {
        Some(s) if s == SERVICE_SCHEMA => {}
        Some(s) if s == SERVICE_SCHEMA_V1 => {
            return Err(format!(
                "service schema {SERVICE_SCHEMA_V1:?} is retired: v1 documents carry no \
                 fault/recovery accounting — regenerate with the current loadgen ({SERVICE_SCHEMA:?})"
            ))
        }
        Some(s) if s == SERVICE_SCHEMA_V2 => {
            return Err(format!(
                "service schema {SERVICE_SCHEMA_V2:?} is retired: v2 documents predate \
                 connection-scale serving (no concurrent-connection count, per-shard \
                 throughput, or reply-queue depth accounting) — regenerate with the \
                 current loadgen ({SERVICE_SCHEMA:?})"
            ))
        }
        Some(s) => return Err(format!("service schema {s:?}, expected {SERVICE_SCHEMA:?}")),
        None => return Err("service block missing `schema`".to_string()),
    }
    match v.get("profile").and_then(Value::as_str) {
        Some(p) if !p.is_empty() => {}
        _ => return Err("service block missing non-empty `profile`".to_string()),
    }
    let requests = num("requests")?;
    let ok = num("ok")?;
    let rejected = num("rejected")?;
    let errors = num("errors")?;
    if (ok + rejected + errors - requests).abs() > 0.5 {
        return Err(format!(
            "service accounting leak: ok {ok} + rejected {rejected} + errors {errors} != requests {requests}"
        ));
    }
    if errors > 0.5 {
        return Err(format!("service reported {errors} pipeline errors"));
    }
    if ok < 1.0 {
        return Err("service block has no successful requests".to_string());
    }
    if num("workers")? < 1.0 || num("shards")? < 1.0 {
        return Err("service block must report workers and shards >= 1".to_string());
    }
    let throughput = num("throughput_rps")?;
    if !throughput.is_finite() || throughput <= 0.0 {
        return Err(format!(
            "service throughput must be positive and finite, got {throughput}"
        ));
    }
    for key in ["queue_wait_ms", "e2e_ms"] {
        let block = v
            .get(key)
            .ok_or_else(|| format!("service block missing `{key}` percentiles"))?;
        let p = |p: &str| -> Result<f64, String> {
            block
                .get(p)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("`{key}` missing `{p}`"))
        };
        let (p50, p90, p99) = (p("p50")?, p("p90")?, p("p99")?);
        if !(p50.is_finite() && p90.is_finite() && p99.is_finite()) {
            return Err(format!(
                "`{key}` percentiles must be finite: p50 {p50}, p90 {p90}, p99 {p99} \
                 — a NaN here means the latency sampler was fed garbage"
            ));
        }
        if p50 < 0.0 || p50 > p90 + 1e-9 || p90 > p99 + 1e-9 {
            return Err(format!(
                "`{key}` percentiles must be ordered: p50 {p50} <= p90 {p90} <= p99 {p99}"
            ));
        }
    }
    let tiers = v
        .get("tiers")
        .ok_or("service block missing `tiers`".to_string())?;
    let tier = |k: &str| -> Result<f64, String> {
        tiers
            .get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("`tiers` missing `{k}`"))
    };
    let sum = tier("exact")? + tier("fit")? + tier("miss")? + tier("coalesced")?;
    if (sum - ok).abs() > 0.5 {
        return Err(format!("tier counts sum to {sum}, expected ok {ok}"));
    }
    let det = v
        .get("determinism")
        .ok_or("service block missing `determinism`".to_string())?;
    let checked = det
        .get("checked")
        .and_then(Value::as_f64)
        .ok_or("determinism missing `checked`")?;
    let mismatches = det
        .get("mismatches")
        .and_then(Value::as_f64)
        .ok_or("determinism missing `mismatches`")?;
    if checked < 1.0 {
        return Err("determinism block must check at least one response".to_string());
    }
    if mismatches > 0.0 {
        return Err(format!(
            "determinism violated: {mismatches} response(s) differ from the serial pipeline"
        ));
    }
    let faults = v
        .get("faults")
        .ok_or("service block missing `faults` (v2 requirement)".to_string())?;
    let fnum = |k: &str| -> Result<f64, String> {
        faults
            .get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("`faults` missing numeric `{k}`"))
    };
    let recovered = fnum("recovered")?;
    for k in ["conn_failures", "reconnects", "retry_errors"] {
        if fnum(k)? < 0.0 {
            return Err(format!("`faults.{k}` must be non-negative"));
        }
    }
    if recovered > requests {
        return Err(format!(
            "`faults.recovered` {recovered} exceeds requests {requests}"
        ));
    }
    let rec = faults
        .get("recovery_ms")
        .ok_or("`faults` missing `recovery_ms` percentiles".to_string())?;
    let rp = |p: &str| -> Result<f64, String> {
        rec.get(p)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("`recovery_ms` missing `{p}`"))
    };
    let (p50, p90, p99) = (rp("p50")?, rp("p90")?, rp("p99")?);
    if !(p50.is_finite() && p90.is_finite() && p99.is_finite()) {
        return Err(format!(
            "`recovery_ms` percentiles must be finite: p50 {p50}, p90 {p90}, p99 {p99}"
        ));
    }
    if p50 < 0.0 || p50 > p90 + 1e-9 || p90 > p99 + 1e-9 {
        return Err(format!(
            "`recovery_ms` percentiles must be ordered: p50 {p50} <= p90 {p90} <= p99 {p99}"
        ));
    }
    let conns = v
        .get("connections")
        .ok_or("service block missing `connections` (v3 requirement)".to_string())?;
    let cnum = |k: &str| -> Result<f64, String> {
        conns
            .get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("`connections` missing numeric `{k}`"))
    };
    if cnum("concurrent")? < 1.0 {
        return Err("`connections.concurrent` must be >= 1".to_string());
    }
    if cnum("server_peak")? < 1.0 {
        return Err("`connections.server_peak` must be >= 1".to_string());
    }
    if cnum("churned")? < 0.0 {
        return Err("`connections.churned` must be non-negative".to_string());
    }
    let depth = conns
        .get("reply_queue_depth")
        .ok_or("`connections` missing `reply_queue_depth` percentiles".to_string())?;
    let dp = |p: &str| -> Result<f64, String> {
        depth
            .get(p)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("`reply_queue_depth` missing `{p}`"))
    };
    let (d50, d90, d99, dmax) = (dp("p50")?, dp("p90")?, dp("p99")?, dp("max")?);
    if !(d50.is_finite() && d90.is_finite() && d99.is_finite() && dmax.is_finite()) {
        return Err(format!(
            "`reply_queue_depth` percentiles must be finite: p50 {d50}, p90 {d90}, p99 {d99}, max {dmax}"
        ));
    }
    if d50 < 0.0 || d50 > d90 + 1e-9 || d90 > d99 + 1e-9 || d99 > dmax + 1e-9 {
        return Err(format!(
            "`reply_queue_depth` percentiles must be ordered: p50 {d50} <= p90 {d90} <= p99 {d99} <= max {dmax}"
        ));
    }
    let per_shard = match conns.get("per_shard") {
        Some(Value::Arr(rows)) if !rows.is_empty() => rows,
        Some(Value::Arr(_)) => {
            return Err("`connections.per_shard` must name at least one shard".to_string())
        }
        _ => return Err("`connections` missing `per_shard` array".to_string()),
    };
    let mut shard_ok = 0.0;
    let mut shard_requests = 0.0;
    for (i, row) in per_shard.iter().enumerate() {
        let snum = |k: &str| -> Result<f64, String> {
            row.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("`per_shard[{i}]` missing numeric `{k}`"))
        };
        let rps = snum("throughput_rps")?;
        if !rps.is_finite() || rps < 0.0 {
            return Err(format!(
                "`per_shard[{i}].throughput_rps` must be finite and non-negative, got {rps}"
            ));
        }
        let row_ok = snum("ok")?;
        let row_requests = snum("requests")?;
        if row_ok > row_requests + 0.5 {
            return Err(format!(
                "`per_shard[{i}]` ok {row_ok} exceeds requests {row_requests}"
            ));
        }
        shard_ok += row_ok;
        shard_requests += row_requests;
    }
    if (shard_ok - ok).abs() > 0.5 {
        return Err(format!(
            "per-shard accounting leak: shard ok counts sum to {shard_ok}, report ok is {ok}"
        ));
    }
    if shard_requests > requests + 0.5 {
        return Err(format!(
            "per-shard requests sum to {shard_requests}, exceeding report requests {requests}"
        ));
    }
    Ok(())
}

/// Write a service document to `path` only if it passes
/// [`validate_service_block`]; an invalid document leaves `path`
/// untouched. `loadgen --out` writes through this.
pub fn write_service_document(path: impl AsRef<Path>, doc: &Value) -> Result<(), String> {
    validate_service_block(doc)
        .map_err(|e| format!("refusing to write an invalid document: {e}"))?;
    std::fs::write(path, format!("{}\n", doc.to_pretty())).map_err(|e| format!("write: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_has_duplicates() {
        let spec = MixSpec {
            requests: 50,
            seed: 11,
            include_eighth: false,
        };
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a, b, "same spec, same mix");
        assert_eq!(a.len(), 50);
        let distinct: std::collections::BTreeSet<String> =
            a.iter().map(|r| r.exact_key()).collect();
        assert!(
            distinct.len() < a.len(),
            "mix must contain exact-key duplicates"
        );
        // ids stay unique even for duplicates.
        let ids: std::collections::BTreeSet<u64> = a.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), a.len());
    }

    #[test]
    fn smoke_mix_stays_one_degree() {
        for r in generate(&MixSpec::smoke()) {
            assert_eq!(r.resolution, hslb_cesm::Resolution::OneDegree);
        }
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_ignores_non_finite_samples() {
        // Under the old partial_cmp-with-Equal-fallback sort, a NaN in
        // the middle of the sample left neighbors unsorted and could
        // surface as a bogus percentile. Non-finite values are now
        // excluded from the sample entirely.
        let xs = [
            f64::NAN,
            4.0,
            1.0,
            f64::INFINITY,
            3.0,
            2.0,
            f64::NEG_INFINITY,
        ];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert!(percentile(&xs, 50.0).is_finite());
        assert_eq!(percentile(&[f64::NAN, f64::NAN], 50.0), 0.0);
    }

    fn sample_report() -> LoadReport {
        let outcomes = vec![
            LoadOutcome {
                tier: crate::request::CacheTier::Miss,
                coalesced: false,
                queue_wait_ms: 1.0,
                e2e_ms: 10.0,
            },
            LoadOutcome {
                tier: crate::request::CacheTier::Exact,
                coalesced: false,
                queue_wait_ms: 0.0,
                e2e_ms: 0.5,
            },
            LoadOutcome {
                tier: crate::request::CacheTier::Miss,
                coalesced: true,
                queue_wait_ms: 2.0,
                e2e_ms: 9.0,
            },
        ];
        LoadReport::from_outcomes(
            &outcomes,
            RunCounters {
                requests: 4,
                rejected: 1,
                errors: 0,
                workers: 4,
                shards: 2,
                wall_ms: 100.0,
                determinism_checked: 3,
                determinism_mismatches: 0,
            },
            FaultReport::from_samples("chaos", 2, 2, 1, &[12.0, 30.0]),
            ConnectionsReport::single(
                4,
                ShardLoad {
                    shard: 0,
                    addr: "in-process".to_string(),
                    requests: 4,
                    ok: 3,
                    wall_ms: 100.0,
                },
            ),
        )
    }

    #[test]
    fn report_block_validates() {
        let report = sample_report();
        assert!((report.throughput_rps() - 30.0).abs() < 1e-9);
        validate_service_block(&report.to_value()).unwrap();
    }

    #[test]
    fn validator_rejects_mismatches_and_leaks() {
        let mut report = sample_report();
        report.determinism_mismatches = 1;
        assert!(validate_service_block(&report.to_value())
            .unwrap_err()
            .contains("determinism violated"));
        let mut report = sample_report();
        report.rejected = 0; // ok(3) + 0 + 0 != requests(4)
        assert!(validate_service_block(&report.to_value())
            .unwrap_err()
            .contains("accounting leak"));
        let mut report = sample_report();
        report.tier_miss = 0;
        assert!(validate_service_block(&report.to_value())
            .unwrap_err()
            .contains("tier counts"));
    }

    #[test]
    fn validator_rejects_retired_v1_schema() {
        let mut v = sample_report().to_value();
        if let Value::Obj(kv) = &mut v {
            for (k, val) in kv.iter_mut() {
                if k == "schema" {
                    *val = Value::Str(SERVICE_SCHEMA_V1.to_string());
                }
            }
        }
        let err = validate_service_block(&v).unwrap_err();
        assert!(
            err.contains("retired"),
            "v1 must be rejected clearly: {err}"
        );
    }

    #[test]
    fn validator_rejects_retired_v2_schema() {
        let mut v = sample_report().to_value();
        if let Value::Obj(kv) = &mut v {
            for (k, val) in kv.iter_mut() {
                if k == "schema" {
                    *val = Value::Str(SERVICE_SCHEMA_V2.to_string());
                }
            }
        }
        let err = validate_service_block(&v).unwrap_err();
        assert!(
            err.contains("retired") && err.contains("connection-scale"),
            "v2 must be rejected with an upgrade message: {err}"
        );
    }

    #[test]
    fn validator_flags_non_finite_percentiles() {
        let mut report = sample_report();
        report.e2e_p90 = f64::NAN;
        let err = validate_service_block(&report.to_value()).unwrap_err();
        assert!(
            err.contains("finite"),
            "NaN percentile must be flagged: {err}"
        );
        let mut report = sample_report();
        report.queue_wait_p99 = f64::INFINITY;
        assert!(validate_service_block(&report.to_value())
            .unwrap_err()
            .contains("finite"));
        let mut report = sample_report();
        report.connections.reply_queue_p99 = f64::NAN;
        assert!(validate_service_block(&report.to_value())
            .unwrap_err()
            .contains("reply_queue_depth"));
    }

    #[test]
    fn validator_checks_connections_block() {
        // Per-shard successes must sum to the report's ok count.
        let mut report = sample_report();
        report.connections.per_shard[0].ok = 1;
        assert!(validate_service_block(&report.to_value())
            .unwrap_err()
            .contains("per-shard accounting leak"));
        // An empty shard table is meaningless.
        let mut report = sample_report();
        report.connections.per_shard.clear();
        assert!(validate_service_block(&report.to_value())
            .unwrap_err()
            .contains("per_shard"));
        // Depth percentiles must be ordered up to the max.
        let mut report = sample_report();
        report.connections.reply_queue_p99 = 5.0; // > max (0.0)
        assert!(validate_service_block(&report.to_value())
            .unwrap_err()
            .contains("ordered"));
        // A missing connections block is a schema violation.
        let mut v = sample_report().to_value();
        if let Value::Obj(kv) = &mut v {
            kv.retain(|(k, _)| k != "connections");
        }
        assert!(validate_service_block(&v)
            .unwrap_err()
            .contains("connections"));
    }

    #[test]
    fn validator_requires_fault_block_and_ordered_recovery() {
        let mut v = sample_report().to_value();
        if let Value::Obj(kv) = &mut v {
            kv.retain(|(k, _)| k != "faults");
        }
        assert!(validate_service_block(&v).unwrap_err().contains("faults"));
        let mut report = sample_report();
        report.fault.recovery_p50 = 99.0; // > p90
        assert!(validate_service_block(&report.to_value())
            .unwrap_err()
            .contains("recovery_ms"));
    }

    #[test]
    fn invalid_documents_are_never_written() {
        let path = std::env::temp_dir().join(format!("hslb-loadmix-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut report = sample_report();
        report.determinism_mismatches = 1;
        let err = write_service_document(&path, &report.to_value()).unwrap_err();
        assert!(err.contains("determinism violated"), "{err}");
        assert!(!path.exists(), "invalid document was written");

        write_service_document(&path, &sample_report().to_value()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        validate_service_block(&hslb_telemetry::json::parse(&text).unwrap()).unwrap();
    }

    #[test]
    fn forced_deadlines_change_scheduling_not_keys() {
        let mut mix = generate(&MixSpec::chaos());
        let keys: Vec<String> = mix.iter().map(|r| r.exact_key()).collect();
        force_deadlines(&mut mix, 900);
        assert!(mix.iter().all(|r| r.deadline_ms == Some(900)));
        assert_eq!(
            keys,
            mix.iter().map(|r| r.exact_key()).collect::<Vec<_>>(),
            "deadlines are scheduling-only"
        );
    }
}
