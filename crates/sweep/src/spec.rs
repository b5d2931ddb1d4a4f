//! Sweep specifications: the configuration grid a portfolio question
//! expands into.
//!
//! A [`SweepSpec`] is the product grid *layout topology × resolution ×
//! node budget*, refined by holds and overrides:
//!
//! * a **hold** pins a configuration (by key) so the predictor may never
//!   prune it — it is always exact-solved, whatever the predictor says;
//! * an **override** swaps the objective for one configuration (by key),
//!   e.g. re-asking a single grid point as `min-sum` while the rest of
//!   the sweep runs `min-max`.
//!
//! Expansion ([`SweepSpec::configs`]) is deterministic: resolutions in
//! declaration order, budgets ascending, layouts in Figure 1 order. The
//! whole sweep inherits one machine configuration (ocean constraint +
//! simulator seed), because configurations that differ there share no
//! curve data and would defeat the shared-work plan.

use hslb::parse_objective;
use hslb_cesm::{layout_token, parse_layout, resolution_token, Layout, Resolution};
use hslb_telemetry::json::Value;

/// One grid point of a sweep: everything the executor needs to phrase a
/// tune request, plus the hold flag.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    pub layout: Layout,
    pub resolution: Resolution,
    pub objective: hslb::Objective,
    pub target_nodes: i64,
    pub ocean_constrained: bool,
    pub seed: u64,
    /// Held configurations are exempt from predictor pruning.
    pub held: bool,
}

impl SweepConfig {
    /// Stable identity within (and across) sweeps — the same fields, in
    /// the same order, as the service's exact-match cache key.
    pub fn key(&self) -> String {
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

    /// Curve-sharing signature: configurations with equal signatures
    /// gather the same benchmark data and fit the same curves (the node
    /// budget is absent by design — the service benchmarks the whole
    /// machine, so one fit fans out to every budget).
    pub fn fit_signature(&self) -> String {
        format!(
            "{}|ocean{}|seed{}",
            resolution_token(self.resolution),
            self.ocean_constrained,
            self.seed
        )
    }

    /// Pruning scope: the predictor compares a configuration only
    /// against exact solves of the *same* resolution and budget (layouts
    /// and objectives compete; budgets do not).
    pub fn budget_group(&self) -> String {
        format!(
            "{}|n{}",
            resolution_token(self.resolution),
            self.target_nodes
        )
    }
}

/// Deterministic multiplicative noise injected into the predictor's
/// calibration samples — a chaos hook for exercising the fail-open
/// ladder (a real deployment never sets it). Sample `i` is scaled by
/// `exp(amplitude · u_i)` with `u_i ∈ [-1, 1)` drawn from a seeded
/// splitmix stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationNoise {
    pub seed: u64,
    pub amplitude: f64,
}

/// The full sweep question.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Layout topologies to sweep (Figure 1 order recommended).
    pub layouts: Vec<Layout>,
    /// Node budgets per resolution; an empty list drops the resolution
    /// from the sweep.
    pub one_degree_budgets: Vec<i64>,
    pub eighth_degree_budgets: Vec<i64>,
    /// Default objective for every grid point (see `overrides`).
    pub objective: hslb::Objective,
    pub ocean_constrained: bool,
    pub seed: u64,
    /// Enable predictor-based pruning (exact solves throughout when
    /// false).
    pub prune: bool,
    /// Relative safety margin on top of the predictor's worst observed
    /// calibration error: a configuration is pruned only when its
    /// predicted makespan, deflated by both, still exceeds the best
    /// exact makespan in its budget group.
    pub safety_margin: f64,
    /// Keys of configurations exempt from pruning.
    pub holds: Vec<String>,
    /// Per-key objective overrides, applied during expansion.
    pub overrides: Vec<(String, hslb::Objective)>,
    /// Chaos hook: distort calibration samples (fail-open exercise).
    pub calibration_noise: Option<CalibrationNoise>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            layouts: Layout::ALL.to_vec(),
            one_degree_budgets: Vec::new(),
            eighth_degree_budgets: Vec::new(),
            objective: hslb::Objective::MinMax,
            ocean_constrained: true,
            seed: 42,
            prune: true,
            safety_margin: 0.25,
            holds: Vec::new(),
            overrides: Vec::new(),
            calibration_noise: None,
        }
    }
}

impl SweepSpec {
    /// Expand the grid into configurations, deterministically: 1° before
    /// 1/8°, budgets ascending, layouts in declaration order. Overrides
    /// are applied by key *before* holds are matched, so a hold can name
    /// the overridden form.
    pub fn configs(&self) -> Vec<SweepConfig> {
        let mut out = Vec::new();
        let axes: [(Resolution, &[i64]); 2] = [
            (Resolution::OneDegree, &self.one_degree_budgets),
            (Resolution::EighthDegree, &self.eighth_degree_budgets),
        ];
        for (resolution, budgets) in axes {
            let mut budgets = budgets.to_vec();
            budgets.sort_unstable();
            budgets.dedup();
            for nodes in budgets {
                for &layout in &self.layouts {
                    let mut cfg = SweepConfig {
                        layout,
                        resolution,
                        objective: self.objective,
                        target_nodes: nodes,
                        ocean_constrained: self.ocean_constrained,
                        seed: self.seed,
                        held: false,
                    };
                    // An override may be phrased against either the
                    // default-objective key or the overridden key.
                    let base_key = cfg.key();
                    for (key, objective) in &self.overrides {
                        let mut probe = cfg.clone();
                        probe.objective = *objective;
                        if *key == base_key || *key == probe.key() {
                            cfg.objective = *objective;
                            break;
                        }
                    }
                    cfg.held = self.holds.contains(&cfg.key());
                    out.push(cfg);
                }
            }
        }
        out
    }

    /// JSON form (the wire `sweep` op's request body and the CLI's spec
    /// files).
    pub fn to_value(&self) -> Value {
        let nums = |xs: &[i64]| Value::Arr(xs.iter().map(|&n| Value::Num(n as f64)).collect());
        let mut kv = vec![
            (
                "layouts".to_string(),
                Value::Arr(
                    self.layouts
                        .iter()
                        .map(|&l| Value::Str(layout_token(l).to_string()))
                        .collect(),
                ),
            ),
            (
                "one_degree_nodes".to_string(),
                nums(&self.one_degree_budgets),
            ),
            (
                "eighth_degree_nodes".to_string(),
                nums(&self.eighth_degree_budgets),
            ),
            (
                "objective".to_string(),
                Value::Str(self.objective.to_string()),
            ),
            ("ocean".to_string(), Value::Bool(self.ocean_constrained)),
            ("seed".to_string(), Value::Num(self.seed as f64)),
            ("prune".to_string(), Value::Bool(self.prune)),
            ("safety_margin".to_string(), Value::Num(self.safety_margin)),
            (
                "holds".to_string(),
                Value::Arr(self.holds.iter().map(|k| Value::Str(k.clone())).collect()),
            ),
            (
                "overrides".to_string(),
                Value::Arr(
                    self.overrides
                        .iter()
                        .map(|(k, o)| {
                            Value::Obj(vec![
                                ("key".to_string(), Value::Str(k.clone())),
                                ("objective".to_string(), Value::Str(o.to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(noise) = self.calibration_noise {
            kv.push((
                "calibration_noise".to_string(),
                Value::Obj(vec![
                    ("seed".to_string(), Value::Num(noise.seed as f64)),
                    ("amplitude".to_string(), Value::Num(noise.amplitude)),
                ]),
            ));
        }
        Value::Obj(kv)
    }

    /// Parse the JSON form; returns a human-readable error.
    pub fn from_value(v: &Value) -> Result<SweepSpec, String> {
        let mut spec = SweepSpec::default();
        if let Some(ls) = v.get("layouts").and_then(Value::as_arr) {
            spec.layouts = ls
                .iter()
                .map(|l| {
                    l.as_str()
                        .ok_or_else(|| "layouts entries must be strings".to_string())
                        .and_then(parse_layout)
                })
                .collect::<Result<_, _>>()?;
        }
        let budgets = |key: &str| -> Result<Vec<i64>, String> {
            match v.get(key) {
                None => Ok(Vec::new()),
                Some(arr) => arr
                    .as_arr()
                    .ok_or_else(|| format!("{key} must be an array"))?
                    .iter()
                    .map(|n| {
                        n.as_f64()
                            .map(|f| f as i64)
                            .ok_or_else(|| format!("{key} entries must be numbers"))
                    })
                    .collect(),
            }
        };
        spec.one_degree_budgets = budgets("one_degree_nodes")?;
        spec.eighth_degree_budgets = budgets("eighth_degree_nodes")?;
        if let Some(s) = v.get("objective").and_then(Value::as_str) {
            spec.objective = parse_objective(s)?;
        }
        if let Some(b) = v.get("ocean").and_then(Value::as_bool) {
            spec.ocean_constrained = b;
        }
        if let Some(s) = v.get("seed").and_then(Value::as_f64) {
            spec.seed = s as u64;
        }
        if let Some(b) = v.get("prune").and_then(Value::as_bool) {
            spec.prune = b;
        }
        if let Some(m) = v.get("safety_margin").and_then(Value::as_f64) {
            if !(0.0..=10.0).contains(&m) {
                return Err(format!("safety_margin must be in [0, 10], got {m}"));
            }
            spec.safety_margin = m;
        }
        if let Some(hs) = v.get("holds").and_then(Value::as_arr) {
            spec.holds = hs
                .iter()
                .map(|h| {
                    h.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "holds entries must be strings".to_string())
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(os) = v.get("overrides").and_then(Value::as_arr) {
            spec.overrides = os
                .iter()
                .map(|o| {
                    let key = o
                        .get("key")
                        .and_then(Value::as_str)
                        .ok_or("override missing string key")?
                        .to_string();
                    let objective = parse_objective(
                        o.get("objective")
                            .and_then(Value::as_str)
                            .ok_or("override missing string objective")?,
                    )?;
                    Ok::<_, String>((key, objective))
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(n) = v.get("calibration_noise") {
            if !matches!(n, Value::Null) {
                spec.calibration_noise = Some(CalibrationNoise {
                    seed: n.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
                    amplitude: n
                        .get("amplitude")
                        .and_then(Value::as_f64)
                        .ok_or("calibration_noise missing numeric amplitude")?,
                });
            }
        }
        if spec.layouts.is_empty() {
            return Err("sweep needs at least one layout".to_string());
        }
        if spec.one_degree_budgets.is_empty() && spec.eighth_degree_budgets.is_empty() {
            return Err("sweep needs at least one node budget".to_string());
        }
        for &n in spec
            .one_degree_budgets
            .iter()
            .chain(&spec.eighth_degree_budgets)
        {
            if n < 4 {
                return Err(format!("node budgets must be >= 4, got {n}"));
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec {
            one_degree_budgets: vec![128, 64, 96, 128],
            eighth_degree_budgets: vec![8192],
            ..SweepSpec::default()
        }
    }

    #[test]
    fn expansion_is_sorted_and_deduped() {
        let cfgs = spec().configs();
        // 3 unique 1deg budgets × 3 layouts + 1 eighth budget × 3 layouts.
        assert_eq!(cfgs.len(), 12);
        let budgets: Vec<i64> = cfgs
            .iter()
            .filter(|c| c.resolution == Resolution::OneDegree)
            .map(|c| c.target_nodes)
            .collect();
        assert_eq!(budgets, vec![64, 64, 64, 96, 96, 96, 128, 128, 128]);
        let keys: std::collections::BTreeSet<String> = cfgs.iter().map(SweepConfig::key).collect();
        assert_eq!(keys.len(), cfgs.len(), "keys must be unique");
    }

    #[test]
    fn holds_and_overrides_apply_by_key() {
        let mut s = spec();
        let target = "1deg|hybrid|min-max|n96|oceantrue|seed42";
        s.holds.push(target.to_string());
        s.overrides
            .push((target.to_string(), hslb::Objective::SumTime));
        let cfgs = s.configs();
        let hit: Vec<&SweepConfig> = cfgs
            .iter()
            .filter(|c| {
                c.target_nodes == 96
                    && c.layout == Layout::Hybrid
                    && c.resolution == Resolution::OneDegree
            })
            .collect();
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].objective, hslb::Objective::SumTime);
        // The hold was phrased against the pre-override key, so it does
        // not match the overridden config (holds bind to exact keys).
        assert!(!hit[0].held);
        // Phrase the hold against the overridden key instead.
        let mut s2 = spec();
        s2.overrides
            .push((target.to_string(), hslb::Objective::SumTime));
        s2.holds
            .push("1deg|hybrid|min-sum|n96|oceantrue|seed42".to_string());
        let cfgs2 = s2.configs();
        let held = cfgs2
            .iter()
            .find(|c| c.target_nodes == 96 && c.layout == Layout::Hybrid)
            .unwrap();
        assert!(held.held);
    }

    #[test]
    fn json_round_trips() {
        let mut s = spec();
        s.holds
            .push("1deg|hybrid|min-max|n96|oceantrue|seed42".to_string());
        s.overrides.push((
            "1deg|sequential|min-max|n64|oceantrue|seed42".to_string(),
            hslb::Objective::MaxMin,
        ));
        s.calibration_noise = Some(CalibrationNoise {
            seed: 7,
            amplitude: 0.5,
        });
        let text = s.to_value().to_pretty();
        let back = SweepSpec::from_value(&hslb_telemetry::json::parse(&text).unwrap()).unwrap();
        // Budgets normalize (sorted, deduped) on expansion, not parse.
        assert_eq!(s.configs(), back.configs());
        assert_eq!(s.calibration_noise, back.calibration_noise);
    }

    #[test]
    fn rejects_empty_and_tiny_grids() {
        assert!(SweepSpec::from_value(&hslb_telemetry::json::parse("{}").unwrap()).is_err());
        let bad = r#"{"one_degree_nodes": [2]}"#;
        assert!(SweepSpec::from_value(&hslb_telemetry::json::parse(bad).unwrap()).is_err());
    }
}
