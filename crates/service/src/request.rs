//! Tune requests, responses and their JSON forms.
//!
//! The response splits into the [`TunePayload`] — the deterministic part
//! that must be bit-identical to a serial one-shot pipeline run — and the
//! serving metadata around it (cache tier, coalesce flag, latencies),
//! which legitimately varies run to run. [`TunePayload::fingerprint`]
//! covers exactly the deterministic part, with every float rendered via
//! `f64::to_bits`, so two payloads compare equal iff they are
//! bit-identical.

use hslb::report::ExperimentReport;
use hslb_cesm::layout::ComponentTimes;
use hslb_cesm::{Allocation, Layout, Resolution};
use hslb_telemetry::json::Value;

/// One tuning question: which allocation of `target_nodes` nodes
/// minimizes the coupled model's time for this machine configuration?
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    pub resolution: Resolution,
    pub layout: Layout,
    pub objective: hslb::Objective,
    /// Node budget N.
    pub target_nodes: i64,
    /// Keep CESM's hard-coded ocean processor-count constraint (§IV-B).
    pub ocean_constrained: bool,
    /// Simulator seed (the experiments all use 42).
    pub seed: u64,
    /// Scheduling priority, 0 (lowest) – 9 (highest).
    pub priority: u8,
    /// Logical deadline used as a tie-breaker *within* a priority class
    /// (sooner first). Ordering only — requests are never dropped or
    /// rerouted for being late, so scheduling cannot affect the payload.
    pub deadline_ms: Option<u64>,
}

impl TuneRequest {
    /// A request with the experiment defaults: layout 1, min-max,
    /// constrained ocean, seed 42, middle priority.
    pub fn new(id: u64, resolution: Resolution, target_nodes: i64) -> TuneRequest {
        TuneRequest {
            id,
            resolution,
            layout: Layout::Hybrid,
            objective: hslb::Objective::MinMax,
            target_nodes,
            ocean_constrained: true,
            seed: 42,
            priority: 4,
            deadline_ms: None,
        }
    }

    /// Exact-match cache key: every field that feeds the pipeline. Two
    /// requests with equal keys produce bit-identical payloads, so the
    /// exact cache and the coalescer key on this.
    pub fn exact_key(&self) -> String {
        format!(
            "{}|{}|{}|n{}|ocean{}|seed{}",
            resolution_token(self.resolution),
            layout_token(self.layout),
            self.objective,
            self.target_nodes,
            self.ocean_constrained,
            self.seed
        )
    }

    /// Fit-level cache key: only the curve-defining inputs — the machine
    /// configuration (resolution, ocean constraint, seed) plus the
    /// service's canonical gather plan. The node budget, layout and
    /// objective deliberately do NOT appear: the service gathers over the
    /// whole machine ([`service_gather_plan`]), so one fitted curve set
    /// fans out to every budget a sweep asks about.
    pub fn fit_key(&self) -> String {
        let hslb::GatherPlan::LogSpaced {
            min_nodes,
            max_nodes,
            points,
        } = service_gather_plan()
        else {
            unreachable!("service_gather_plan always returns LogSpaced");
        };
        format!(
            "{}|ocean{}|seed{}|log{}:{}:{}",
            resolution_token(self.resolution),
            self.ocean_constrained,
            self.seed,
            min_nodes,
            max_nodes,
            points
        )
    }

    /// JSON object for the wire protocol (without the `op` field).
    pub fn to_value(&self) -> Value {
        let mut kv = vec![
            ("id".to_string(), Value::Num(self.id as f64)),
            (
                "resolution".to_string(),
                Value::Str(resolution_token(self.resolution).to_string()),
            ),
            (
                "layout".to_string(),
                Value::Str(layout_token(self.layout).to_string()),
            ),
            (
                "objective".to_string(),
                Value::Str(self.objective.to_string()),
            ),
            ("nodes".to_string(), Value::Num(self.target_nodes as f64)),
            ("ocean".to_string(), Value::Bool(self.ocean_constrained)),
            ("seed".to_string(), Value::Num(self.seed as f64)),
            ("priority".to_string(), Value::Num(f64::from(self.priority))),
        ];
        if let Some(d) = self.deadline_ms {
            kv.push(("deadline_ms".to_string(), Value::Num(d as f64)));
        }
        Value::Obj(kv)
    }

    /// Parse the JSON object form; returns a human-readable error.
    pub fn from_value(v: &Value) -> Result<TuneRequest, String> {
        let id = v.get("id").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let resolution = parse_resolution(
            v.get("resolution")
                .and_then(Value::as_str)
                .ok_or("missing resolution")?,
        )?;
        let layout = match v.get("layout").and_then(Value::as_str) {
            Some(s) => parse_layout(s)?,
            None => Layout::Hybrid,
        };
        let objective = match v.get("objective").and_then(Value::as_str) {
            Some(s) => parse_objective(s)?,
            None => hslb::Objective::MinMax,
        };
        let target_nodes = v
            .get("nodes")
            .and_then(Value::as_f64)
            .ok_or("missing nodes")? as i64;
        if target_nodes < 4 {
            return Err(format!("nodes must be >= 4, got {target_nodes}"));
        }
        let ocean_constrained = v.get("ocean").and_then(Value::as_bool).unwrap_or(true);
        let seed = v.get("seed").and_then(Value::as_f64).unwrap_or(42.0) as u64;
        let priority = v.get("priority").and_then(Value::as_f64).unwrap_or(4.0) as u8;
        if priority > 9 {
            return Err(format!("priority must be 0-9, got {priority}"));
        }
        let deadline_ms = v
            .get("deadline_ms")
            .and_then(Value::as_f64)
            .map(|d| d as u64);
        Ok(TuneRequest {
            id,
            resolution,
            layout,
            objective,
            target_nodes,
            ocean_constrained,
            seed,
            priority,
            deadline_ms,
        })
    }
}

/// Which cache layer answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Exact-key hit: the full payload was served from cache, no
    /// pipeline work at all.
    Exact,
    /// Fit-level hit: gathered data and fitted curves were replayed
    /// (`GatherPlan::Reuse` + curve override); only solve/execute ran.
    Fit,
    /// Cold: the full pipeline ran.
    Miss,
}

impl CacheTier {
    pub fn token(self) -> &'static str {
        match self {
            CacheTier::Exact => "exact",
            CacheTier::Fit => "fit",
            CacheTier::Miss => "miss",
        }
    }

    pub fn parse(s: &str) -> Result<CacheTier, String> {
        match s {
            "exact" => Ok(CacheTier::Exact),
            "fit" => Ok(CacheTier::Fit),
            "miss" => Ok(CacheTier::Miss),
            other => Err(format!("unknown cache tier {other:?}")),
        }
    }
}

/// The deterministic part of a response: everything derived from the
/// pipeline run, nothing about how it was scheduled or cached.
#[derive(Debug, Clone, PartialEq)]
pub struct TunePayload {
    pub allocation: Allocation,
    /// Fitted-curve per-component predictions (absent on the fit-free
    /// simulated-expert rung).
    pub predicted: Option<ComponentTimes>,
    pub predicted_total: Option<f64>,
    /// Measured (simulated) coupled-run times for the chosen allocation.
    pub actual: ComponentTimes,
    pub actual_total: f64,
    /// Worst fit R² across components.
    pub min_r_squared: Option<f64>,
    /// Degradation-ladder rung that produced the allocation
    /// (`SolverRung` display form).
    pub rung: String,
    pub degraded: bool,
    /// Certified global optimum: MINLP rung, no degradation, audit
    /// passed ([`ExperimentReport::global_optimum`]).
    pub certified: bool,
    /// Pre-solve instance audit verdict (`None` when no MINLP was
    /// attempted).
    pub audit_passed: Option<bool>,
}

impl TunePayload {
    /// Project a pipeline report down to the deterministic payload.
    pub fn from_report(report: &ExperimentReport) -> TunePayload {
        TunePayload {
            allocation: report.hslb.allocation,
            predicted: report.hslb.predicted,
            predicted_total: report.hslb.predicted_total,
            actual: report.hslb.actual,
            actual_total: report.hslb.actual_total,
            min_r_squared: report.min_r_squared(),
            rung: report
                .resilience
                .as_ref()
                .map(|r| r.rung.to_string())
                .unwrap_or_default(),
            degraded: report
                .resilience
                .as_ref()
                .is_some_and(|r| r.degraded_accuracy),
            certified: report.global_optimum(),
            audit_passed: report.audit.as_ref().map(|a| a.passed()),
        }
    }

    /// JSON object form of the payload fields alone — shared by the wire
    /// reply ([`TuneResponse::to_value`]) and the crash-safe cache
    /// snapshot, so both serialize the deterministic part identically.
    pub fn to_value(&self) -> Value {
        fn opt_num(x: Option<f64>) -> Value {
            match x {
                Some(v) => Value::Num(v),
                None => Value::Null,
            }
        }
        fn times_value(t: &ComponentTimes) -> Value {
            Value::Obj(vec![
                ("lnd".to_string(), Value::Num(t.lnd)),
                ("ice".to_string(), Value::Num(t.ice)),
                ("atm".to_string(), Value::Num(t.atm)),
                ("ocn".to_string(), Value::Num(t.ocn)),
            ])
        }
        Value::Obj(vec![
            (
                "allocation".to_string(),
                Value::Arr(
                    [
                        self.allocation.lnd,
                        self.allocation.ice,
                        self.allocation.atm,
                        self.allocation.ocn,
                    ]
                    .iter()
                    .map(|&n| Value::Num(n as f64))
                    .collect(),
                ),
            ),
            (
                "predicted".to_string(),
                self.predicted.as_ref().map_or(Value::Null, times_value),
            ),
            ("predicted_total".to_string(), opt_num(self.predicted_total)),
            ("actual".to_string(), times_value(&self.actual)),
            ("actual_total".to_string(), Value::Num(self.actual_total)),
            ("min_r_squared".to_string(), opt_num(self.min_r_squared)),
            ("rung".to_string(), Value::Str(self.rung.clone())),
            ("degraded".to_string(), Value::Bool(self.degraded)),
            ("certified".to_string(), Value::Bool(self.certified)),
            (
                "audit_passed".to_string(),
                self.audit_passed.map_or(Value::Null, Value::Bool),
            ),
        ])
    }

    /// Parse the payload fields back from a JSON object (the inverse of
    /// [`TunePayload::to_value`]; floats survive bit-exactly).
    pub fn from_value(v: &Value) -> Result<TunePayload, String> {
        fn times_from(v: &Value) -> Result<ComponentTimes, String> {
            let f = |k: &str| -> Result<f64, String> {
                v.get(k)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("missing component time {k}"))
            };
            Ok(ComponentTimes {
                lnd: f("lnd")?,
                ice: f("ice")?,
                atm: f("atm")?,
                ocn: f("ocn")?,
            })
        }
        let alloc = v
            .get("allocation")
            .and_then(Value::as_arr)
            .ok_or("missing allocation")?;
        if alloc.len() != 4 {
            return Err("allocation must have 4 entries".to_string());
        }
        let nums: Vec<i64> = alloc
            .iter()
            .map(|x| x.as_f64().map(|f| f as i64).ok_or("non-numeric allocation"))
            .collect::<Result<_, _>>()?;
        let predicted = match v.get("predicted") {
            Some(Value::Null) | None => None,
            Some(t) => Some(times_from(t)?),
        };
        let actual = times_from(v.get("actual").ok_or("missing actual")?)?;
        Ok(TunePayload {
            allocation: Allocation {
                lnd: nums[0],
                ice: nums[1],
                atm: nums[2],
                ocn: nums[3],
            },
            predicted,
            predicted_total: v.get("predicted_total").and_then(Value::as_f64),
            actual,
            actual_total: v
                .get("actual_total")
                .and_then(Value::as_f64)
                .ok_or("missing actual_total")?,
            min_r_squared: v.get("min_r_squared").and_then(Value::as_f64),
            rung: v
                .get("rung")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            degraded: v.get("degraded").and_then(Value::as_bool).unwrap_or(false),
            certified: v.get("certified").and_then(Value::as_bool).unwrap_or(false),
            audit_passed: v.get("audit_passed").and_then(Value::as_bool),
        })
    }

    /// Bit-exact fingerprint: every float via `to_bits` hex, every
    /// discrete field verbatim. Two payloads have equal fingerprints iff
    /// they are bit-identical — including across the JSON wire, because
    /// the telemetry printer renders f64 shortest-round-trip.
    pub fn fingerprint(&self) -> String {
        fn bits(x: Option<f64>) -> String {
            match x {
                Some(v) => format!("{:016x}", v.to_bits()),
                None => "none".to_string(),
            }
        }
        fn times(t: Option<&ComponentTimes>) -> String {
            match t {
                Some(t) => format!(
                    "{:016x}.{:016x}.{:016x}.{:016x}",
                    t.lnd.to_bits(),
                    t.ice.to_bits(),
                    t.atm.to_bits(),
                    t.ocn.to_bits()
                ),
                None => "none".to_string(),
            }
        }
        format!(
            "a{}/{}/{}/{};p{};pt{};x{};xt{};r2{};rung:{};d{};c{};au{}",
            self.allocation.lnd,
            self.allocation.ice,
            self.allocation.atm,
            self.allocation.ocn,
            times(self.predicted.as_ref()),
            bits(self.predicted_total),
            times(Some(&self.actual)),
            bits(Some(self.actual_total)),
            bits(self.min_r_squared),
            self.rung,
            self.degraded,
            self.certified,
            self.audit_passed
                .map_or("none".to_string(), |b| b.to_string()),
        )
    }
}

/// A served response: the payload plus serving metadata.
#[derive(Debug, Clone)]
pub struct TuneResponse {
    pub id: u64,
    pub payload: TunePayload,
    pub tier: CacheTier,
    /// True when this request rode along on another identical in-flight
    /// request instead of being enqueued itself.
    pub coalesced: bool,
    pub queue_wait_ms: f64,
    pub service_ms: f64,
}

impl TuneResponse {
    /// JSON object for the wire protocol.
    pub fn to_value(&self) -> Value {
        let p = &self.payload;
        let Value::Obj(payload_fields) = p.to_value() else {
            unreachable!("TunePayload::to_value returns an object");
        };
        let mut kv = vec![("id".to_string(), Value::Num(self.id as f64))];
        kv.extend(payload_fields);
        kv.extend([
            (
                "tier".to_string(),
                Value::Str(self.tier.token().to_string()),
            ),
            ("coalesced".to_string(), Value::Bool(self.coalesced)),
            ("queue_wait_ms".to_string(), Value::Num(self.queue_wait_ms)),
            ("service_ms".to_string(), Value::Num(self.service_ms)),
            ("fingerprint".to_string(), Value::Str(p.fingerprint())),
        ]);
        Value::Obj(kv)
    }

    /// Parse the JSON object form back (used by `loadgen` to recompute
    /// and cross-check fingerprints client-side).
    pub fn from_value(v: &Value) -> Result<TuneResponse, String> {
        let id = v.get("id").and_then(Value::as_f64).ok_or("missing id")? as u64;
        let payload = TunePayload::from_value(v)?;
        Ok(TuneResponse {
            id,
            payload,
            tier: CacheTier::parse(v.get("tier").and_then(Value::as_str).unwrap_or("miss"))?,
            coalesced: v.get("coalesced").and_then(Value::as_bool).unwrap_or(false),
            queue_wait_ms: v
                .get("queue_wait_ms")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            service_ms: v.get("service_ms").and_then(Value::as_f64).unwrap_or(0.0),
        })
    }
}

/// The service's canonical gather plan: log-spaced benchmark counts
/// spanning the whole machine (8 .. every Intrepid node), independent of
/// any one request's node budget. One-shot pipelines default to a plan
/// derived from `target_nodes` ([`hslb::GatherPlan::default_for`]); the
/// service instead benchmarks the full machine once so that gathered
/// data and fitted curves are shared across every budget — the property
/// the fit cache and the sweep planner key on. Eight points (vs the
/// paper's five) keep per-component coverage comparable over the wider
/// span.
pub fn service_gather_plan() -> hslb::GatherPlan {
    hslb::GatherPlan::LogSpaced {
        min_nodes: 8,
        max_nodes: hslb_cesm::Machine::intrepid().nodes,
        points: 8,
    }
}

/// The wire codecs, defined once beside their types.
pub use hslb::objective::parse_objective;
pub use hslb_cesm::{layout_token, parse_layout, parse_resolution, resolution_token};

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> TuneRequest {
        TuneRequest {
            deadline_ms: Some(250),
            priority: 7,
            ..TuneRequest::new(3, Resolution::OneDegree, 96)
        }
    }

    #[test]
    fn request_json_round_trips() {
        let req = sample_request();
        let v = req.to_value();
        let text = v.to_pretty();
        let back = TuneRequest::from_value(&hslb_telemetry::json::parse(&text).unwrap()).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn exact_key_separates_all_pipeline_fields() {
        let base = TuneRequest::new(0, Resolution::OneDegree, 96);
        let mut keys = std::collections::BTreeSet::new();
        keys.insert(base.exact_key());
        for variant in [
            TuneRequest {
                layout: Layout::FullySequential,
                ..base.clone()
            },
            TuneRequest {
                objective: hslb::Objective::SumTime,
                ..base.clone()
            },
            TuneRequest {
                target_nodes: 128,
                ..base.clone()
            },
            TuneRequest {
                ocean_constrained: false,
                ..base.clone()
            },
            TuneRequest {
                seed: 7,
                ..base.clone()
            },
        ] {
            assert!(
                keys.insert(variant.exact_key()),
                "key collision: {variant:?}"
            );
        }
        // Priority and deadline are scheduling-only: same key.
        let sched = TuneRequest {
            priority: 9,
            deadline_ms: Some(1),
            id: 99,
            ..base.clone()
        };
        assert_eq!(sched.exact_key(), base.exact_key());
    }

    #[test]
    fn fit_key_ignores_layout_objective_and_budget() {
        let a = TuneRequest::new(0, Resolution::OneDegree, 96);
        let b = TuneRequest {
            layout: Layout::SequentialWithOcean,
            objective: hslb::Objective::SumTime,
            ..a.clone()
        };
        assert_eq!(a.fit_key(), b.fit_key());
        // The service gathers over the whole machine, so the node budget
        // must not split the fit cache: one fit fans out to all sizes.
        let c = TuneRequest {
            target_nodes: 256,
            ..a.clone()
        };
        assert_eq!(a.fit_key(), c.fit_key(), "fit key must not depend on N");
        // Curve-defining inputs still separate.
        for variant in [
            TuneRequest {
                resolution: Resolution::EighthDegree,
                target_nodes: 8192,
                ..a.clone()
            },
            TuneRequest {
                ocean_constrained: false,
                ..a.clone()
            },
            TuneRequest {
                seed: 7,
                ..a.clone()
            },
        ] {
            assert_ne!(a.fit_key(), variant.fit_key(), "{variant:?}");
        }
    }
}
