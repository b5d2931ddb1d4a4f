//! Ranked sweep results: portfolio entries, the makespan-vs-nodes
//! Pareto frontier, the pruning decision log, and the sweep's
//! accounting block.
//!
//! Ranking is deterministic: entries are ordered by resolution (1° then
//! 1/8°), then ascending makespan (a pruned entry ranks by its predicted
//! makespan), then key. The frontier is extracted per resolution over
//! the *exact-solved* entries only — predicted makespans never certify
//! Pareto membership — and the extraction is order-independent (a pure
//! dominance filter; property-tested in `tests/determinism.rs`).

use hslb_telemetry::json::Value;

/// One configuration's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioEntry {
    /// [`crate::SweepConfig::key`].
    pub key: String,
    pub layout: String,
    pub resolution: String,
    pub objective: String,
    pub target_nodes: i64,
    pub held: bool,
    /// Pruned by the predictor (no exact solve; `makespan` is the
    /// prediction and the audit fields are absent).
    pub pruned: bool,
    /// Exact coupled makespan (solved) or predicted makespan (pruned).
    pub makespan: f64,
    /// The predictor's estimate, when it ranked this configuration.
    pub predicted: Option<f64>,
    /// Nodes the winning allocation actually occupies (solved only).
    pub nodes_used: Option<i64>,
    /// 1 − busy-node-time / (target_nodes · makespan) (solved only).
    pub idle_fraction: Option<f64>,
    /// Bit-exact payload fingerprint (solved only) — comparable against
    /// a standalone one-shot run's.
    pub fingerprint: Option<String>,
    /// Degradation-ladder rung (solved only; empty when pruned).
    pub rung: String,
    /// Audit stamp: certified global optimum + instance-audit verdict.
    pub certified: bool,
    pub audit_passed: Option<bool>,
}

impl PortfolioEntry {
    pub fn to_value(&self) -> Value {
        fn opt_num(x: Option<f64>) -> Value {
            x.map_or(Value::Null, Value::Num)
        }
        Value::Obj(vec![
            ("key".to_string(), Value::Str(self.key.clone())),
            ("layout".to_string(), Value::Str(self.layout.clone())),
            (
                "resolution".to_string(),
                Value::Str(self.resolution.clone()),
            ),
            ("objective".to_string(), Value::Str(self.objective.clone())),
            (
                "target_nodes".to_string(),
                Value::Num(self.target_nodes as f64),
            ),
            ("held".to_string(), Value::Bool(self.held)),
            ("pruned".to_string(), Value::Bool(self.pruned)),
            ("makespan".to_string(), Value::Num(self.makespan)),
            ("predicted".to_string(), opt_num(self.predicted)),
            (
                "nodes_used".to_string(),
                opt_num(self.nodes_used.map(|n| n as f64)),
            ),
            ("idle_fraction".to_string(), opt_num(self.idle_fraction)),
            (
                "fingerprint".to_string(),
                self.fingerprint
                    .as_ref()
                    .map_or(Value::Null, |f| Value::Str(f.clone())),
            ),
            ("rung".to_string(), Value::Str(self.rung.clone())),
            ("certified".to_string(), Value::Bool(self.certified)),
            (
                "audit_passed".to_string(),
                self.audit_passed.map_or(Value::Null, Value::Bool),
            ),
        ])
    }

    pub fn from_value(v: &Value) -> Result<PortfolioEntry, String> {
        let s = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry missing string {k}"))
        };
        Ok(PortfolioEntry {
            key: s("key")?,
            layout: s("layout")?,
            resolution: s("resolution")?,
            objective: s("objective")?,
            target_nodes: v
                .get("target_nodes")
                .and_then(Value::as_f64)
                .ok_or("entry missing numeric target_nodes")? as i64,
            held: v.get("held").and_then(Value::as_bool).unwrap_or(false),
            pruned: v.get("pruned").and_then(Value::as_bool).unwrap_or(false),
            makespan: v
                .get("makespan")
                .and_then(Value::as_f64)
                .ok_or("entry missing numeric makespan")?,
            predicted: v.get("predicted").and_then(Value::as_f64),
            nodes_used: v
                .get("nodes_used")
                .and_then(Value::as_f64)
                .map(|n| n as i64),
            idle_fraction: v.get("idle_fraction").and_then(Value::as_f64),
            fingerprint: v
                .get("fingerprint")
                .and_then(Value::as_str)
                .map(str::to_string),
            rung: v
                .get("rung")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            certified: v.get("certified").and_then(Value::as_bool).unwrap_or(false),
            audit_passed: v.get("audit_passed").and_then(Value::as_bool),
        })
    }
}

/// One pruning decision — every candidate gets exactly one, kept or
/// pruned, so the log reconstructs the whole ranking pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneDecision {
    pub key: String,
    /// The budget group the comparison ran in.
    pub group: String,
    /// Predicted makespan of the candidate.
    pub predicted: f64,
    /// Best exact makespan in the group at decision time.
    pub incumbent: f64,
    /// Threshold inflation `(1 + max_rel_err) · (1 + margin)` applied.
    pub inflation: f64,
    pub pruned: bool,
    /// Human-readable rationale (also carries fail-open reasons).
    pub reason: String,
}

impl PruneDecision {
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("key".to_string(), Value::Str(self.key.clone())),
            ("group".to_string(), Value::Str(self.group.clone())),
            ("predicted".to_string(), Value::Num(self.predicted)),
            ("incumbent".to_string(), Value::Num(self.incumbent)),
            ("inflation".to_string(), Value::Num(self.inflation)),
            ("pruned".to_string(), Value::Bool(self.pruned)),
            ("reason".to_string(), Value::Str(self.reason.clone())),
        ])
    }

    pub fn from_value(v: &Value) -> Result<PruneDecision, String> {
        let num = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("decision missing numeric {k}"))
        };
        Ok(PruneDecision {
            key: v
                .get("key")
                .and_then(Value::as_str)
                .ok_or("decision missing string key")?
                .to_string(),
            group: v
                .get("group")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            predicted: num("predicted")?,
            incumbent: num("incumbent")?,
            inflation: num("inflation")?,
            pruned: v.get("pruned").and_then(Value::as_bool).unwrap_or(false),
            reason: v
                .get("reason")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
        })
    }
}

/// The sweep's accounting block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepStats {
    pub planned: usize,
    pub solved: usize,
    pub pruned: usize,
    /// Distinct gather+fit computations the plan scheduled.
    pub fit_groups: usize,
    /// Gather+fit computations dedup avoided (`planned - fit_groups`).
    pub dedup_saved: usize,
    /// Fit-level cache accounting over the sweep (deltas).
    pub fit_hits: u64,
    pub fit_misses: u64,
    /// Mean absolute relative predictor error vs the exact solves it
    /// ranked (None when the predictor never calibrated).
    pub predictor_mae: Option<f64>,
    /// Fail-open reason when the predictor refused to calibrate.
    pub predictor_failed: Option<String>,
    /// Sweep wall-clock.
    pub wall_ms: f64,
}

/// `hits / (hits + misses)`, 0 when idle.
fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

impl SweepStats {
    pub fn fit_hit_rate(&self) -> f64 {
        rate(self.fit_hits, self.fit_misses)
    }

    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("planned".to_string(), Value::Num(self.planned as f64)),
            ("solved".to_string(), Value::Num(self.solved as f64)),
            ("pruned".to_string(), Value::Num(self.pruned as f64)),
            ("fit_groups".to_string(), Value::Num(self.fit_groups as f64)),
            (
                "dedup_saved".to_string(),
                Value::Num(self.dedup_saved as f64),
            ),
            (
                "fit_cache".to_string(),
                Value::Obj(vec![
                    ("hits".to_string(), Value::Num(self.fit_hits as f64)),
                    ("misses".to_string(), Value::Num(self.fit_misses as f64)),
                    ("hit_rate".to_string(), Value::Num(self.fit_hit_rate())),
                ]),
            ),
            (
                "predictor_mae".to_string(),
                self.predictor_mae.map_or(Value::Null, Value::Num),
            ),
            (
                "predictor_failed".to_string(),
                self.predictor_failed
                    .as_ref()
                    .map_or(Value::Null, |e| Value::Str(e.clone())),
            ),
            ("wall_ms".to_string(), Value::Num(self.wall_ms)),
        ])
    }

    pub fn from_value(v: &Value) -> Result<SweepStats, String> {
        let num = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("stats missing numeric {k}"))
        };
        // Keys this version does not know are ignored, so a document
        // written before the `gather_cache` object or the one-shot
        // estimate was dropped still reads.
        let fit_cache = v.get("fit_cache").ok_or("stats missing fit_cache")?;
        let fit = |k: &str| -> Result<u64, String> {
            fit_cache
                .get(k)
                .and_then(Value::as_f64)
                .map(|x| x as u64)
                .ok_or_else(|| format!("stats fit_cache missing numeric {k}"))
        };
        Ok(SweepStats {
            planned: num("planned")? as usize,
            solved: num("solved")? as usize,
            pruned: num("pruned")? as usize,
            fit_groups: num("fit_groups")? as usize,
            dedup_saved: num("dedup_saved")? as usize,
            fit_hits: fit("hits")?,
            fit_misses: fit("misses")?,
            predictor_mae: v.get("predictor_mae").and_then(Value::as_f64),
            predictor_failed: v
                .get("predictor_failed")
                .and_then(Value::as_str)
                .map(str::to_string),
            wall_ms: num("wall_ms")?,
        })
    }
}

/// The finished sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Portfolio {
    /// Ranked entries (see module docs for the order).
    pub entries: Vec<PortfolioEntry>,
    /// Per-resolution Pareto-optimal keys: `(resolution, sorted keys)`.
    pub frontier: Vec<(String, Vec<String>)>,
    /// One decision per pruning candidate (kept or pruned).
    pub decisions: Vec<PruneDecision>,
    pub stats: SweepStats,
}

impl Portfolio {
    /// Assemble a portfolio from unranked entries: sort, extract the
    /// frontier, attach the logs.
    pub fn assemble(
        mut entries: Vec<PortfolioEntry>,
        decisions: Vec<PruneDecision>,
        stats: SweepStats,
    ) -> Portfolio {
        entries.sort_by(|a, b| {
            resolution_order(&a.resolution)
                .cmp(&resolution_order(&b.resolution))
                .then(a.makespan.total_cmp(&b.makespan))
                .then(a.key.cmp(&b.key))
        });
        let mut resolutions: Vec<String> = Vec::new();
        for e in &entries {
            if !resolutions.contains(&e.resolution) {
                resolutions.push(e.resolution.clone());
            }
        }
        let frontier = resolutions
            .into_iter()
            .map(|res| {
                let points: Vec<(String, f64, i64)> = entries
                    .iter()
                    .filter(|e| e.resolution == res && !e.pruned)
                    .filter_map(|e| e.nodes_used.map(|n| (e.key.clone(), e.makespan, n)))
                    .collect();
                (res, pareto_frontier(&points))
            })
            .collect();
        Portfolio {
            entries,
            frontier,
            decisions,
            stats,
        }
    }

    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            (
                "entries".to_string(),
                Value::Arr(self.entries.iter().map(PortfolioEntry::to_value).collect()),
            ),
            (
                "frontier".to_string(),
                Value::Obj(
                    self.frontier
                        .iter()
                        .map(|(res, keys)| {
                            (
                                res.clone(),
                                Value::Arr(keys.iter().map(|k| Value::Str(k.clone())).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "decisions".to_string(),
                Value::Arr(self.decisions.iter().map(PruneDecision::to_value).collect()),
            ),
            ("stats".to_string(), self.stats.to_value()),
        ])
    }

    pub fn from_value(v: &Value) -> Result<Portfolio, String> {
        let entries = v
            .get("entries")
            .and_then(Value::as_arr)
            .ok_or("portfolio missing entries array")?
            .iter()
            .map(PortfolioEntry::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let frontier = match v.get("frontier") {
            Some(Value::Obj(kv)) => kv
                .iter()
                .map(|(res, keys)| {
                    let keys = keys
                        .as_arr()
                        .ok_or("frontier values must be arrays")?
                        .iter()
                        .map(|k| {
                            k.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| "frontier keys must be strings".to_string())
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok::<_, String>((res.clone(), keys))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("portfolio missing frontier object".to_string()),
        };
        let decisions = v
            .get("decisions")
            .and_then(Value::as_arr)
            .ok_or("portfolio missing decisions array")?
            .iter()
            .map(PruneDecision::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let stats = SweepStats::from_value(v.get("stats").ok_or("portfolio missing stats")?)?;
        Ok(Portfolio {
            entries,
            frontier,
            decisions,
            stats,
        })
    }
}

fn resolution_order(token: &str) -> u8 {
    match token {
        "1deg" => 0,
        "eighth" => 1,
        _ => 2,
    }
}

/// Pure makespan-vs-nodes dominance filter: keep the keys of points no
/// other point dominates (lower-or-equal makespan AND lower-or-equal
/// nodes, strictly lower in at least one). Returns sorted keys, so the
/// result is independent of input order.
pub fn pareto_frontier(points: &[(String, f64, i64)]) -> Vec<String> {
    let mut keep: Vec<String> = points
        .iter()
        .filter(|(_, m, n)| {
            !points
                .iter()
                .any(|(_, m2, n2)| *m2 <= *m && *n2 <= *n && (*m2 < *m || *n2 < *n))
        })
        .map(|(k, _, _)| k.clone())
        .collect();
    keep.sort();
    keep.dedup();
    keep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(
        key: &str,
        res: &str,
        makespan: f64,
        nodes: Option<i64>,
        pruned: bool,
    ) -> PortfolioEntry {
        PortfolioEntry {
            key: key.to_string(),
            layout: "hybrid".to_string(),
            resolution: res.to_string(),
            objective: "min-max".to_string(),
            target_nodes: nodes.unwrap_or(96),
            held: false,
            pruned,
            makespan,
            predicted: pruned.then_some(makespan),
            nodes_used: nodes,
            idle_fraction: nodes.map(|_| 0.25),
            fingerprint: (!pruned).then(|| format!("fp-{key}")),
            rung: if pruned {
                String::new()
            } else {
                "minlp".to_string()
            },
            certified: !pruned,
            audit_passed: (!pruned).then_some(true),
        }
    }

    #[test]
    fn assemble_ranks_and_extracts_frontier() {
        let entries = vec![
            entry("b", "1deg", 20.0, Some(64), false),
            entry("a", "1deg", 10.0, Some(128), false),
            entry("c", "1deg", 30.0, Some(32), false),
            entry("d", "1deg", 25.0, Some(128), true), // pruned: no frontier
            entry("e", "eighth", 400.0, Some(8192), false),
        ];
        let p = Portfolio::assemble(entries, Vec::new(), SweepStats::default());
        let keys: Vec<&str> = p.entries.iter().map(|e| e.key.as_str()).collect();
        assert_eq!(keys, vec!["a", "b", "d", "c", "e"]);
        // a (10, 128), b (20, 64), c (30, 32) are mutually non-dominated;
        // d is pruned and excluded.
        assert_eq!(
            p.frontier,
            vec![
                (
                    "1deg".to_string(),
                    vec!["a".to_string(), "b".to_string(), "c".to_string()]
                ),
                ("eighth".to_string(), vec!["e".to_string()]),
            ]
        );
    }

    #[test]
    fn dominated_points_drop() {
        let points = vec![
            ("slow-big".to_string(), 30.0, 128), // dominated by fast-small
            ("fast-small".to_string(), 10.0, 64),
            ("tie".to_string(), 10.0, 64), // equal: kept (no strict win)
        ];
        assert_eq!(
            pareto_frontier(&points),
            vec!["fast-small".to_string(), "tie".to_string()]
        );
    }

    #[test]
    fn portfolio_json_round_trips() {
        let entries = vec![
            entry("a", "1deg", 10.5, Some(128), false),
            entry("d", "1deg", 25.25, None, true),
        ];
        let decisions = vec![PruneDecision {
            key: "d".to_string(),
            group: "1deg|n128".to_string(),
            predicted: 25.25,
            incumbent: 10.5,
            inflation: 1.3,
            pruned: true,
            reason: "predicted/1.300 = 19.42 > incumbent 10.5".to_string(),
        }];
        let stats = SweepStats {
            planned: 2,
            solved: 1,
            pruned: 1,
            fit_groups: 1,
            dedup_saved: 1,
            fit_hits: 5,
            fit_misses: 1,
            predictor_mae: Some(0.07),
            predictor_failed: None,
            wall_ms: 123.5,
        };
        let p = Portfolio::assemble(entries, decisions, stats);
        let text = p.to_value().to_pretty();
        let back = Portfolio::from_value(&hslb_telemetry::json::parse(&text).unwrap()).unwrap();
        assert_eq!(p, back);
        assert!((back.stats.fit_hit_rate() - 5.0 / 6.0).abs() < 1e-12);

        // A document written when the stats still carried `gather_cache`
        // and the Σ-one-shot estimate reads to the same portfolio.
        let mut old = p.to_value();
        let Value::Obj(top) = &mut old else {
            panic!("portfolio is an object")
        };
        let Some((_, Value::Obj(stats))) = top.iter_mut().find(|(k, _)| k == "stats") else {
            panic!("portfolio has a stats object")
        };
        stats.push((
            "gather_cache".to_string(),
            Value::Obj(vec![
                ("hits".to_string(), Value::Num(4.0)),
                ("misses".to_string(), Value::Num(2.0)),
                ("hit_rate".to_string(), Value::Num(4.0 / 6.0)),
            ]),
        ));
        stats.push(("sum_one_shot_ms".to_string(), Value::Num(999.25)));
        let text = old.to_pretty();
        assert!(text.contains("gather_cache") && text.contains("sum_one_shot_ms"));
        let back = Portfolio::from_value(&hslb_telemetry::json::parse(&text).unwrap()).unwrap();
        assert_eq!(p, back);
    }
}
