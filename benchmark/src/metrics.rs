//! The metric catalogue: every name `BENCHMARK.json` declares, with its
//! unit, and how each is read off a run. `tests/schema.rs` holds this
//! file and `BENCHMARK.json` to each other.

use crate::harness::{self, BlockStats, Layers, Pass, Quality};
use crate::stats;

/// The end-to-end metrics, the same on every workload (an op is one
/// tune, one request or one sweep).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p75_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("makespan_mean_s", "s"),
    ("pred_accuracy", "ratio"),
    ("certified_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of a traced run. A layer the workload never
/// enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cesm.gather_ms_p50", "ms"),
    ("cesm.execute_ms_p50", "ms"),
    ("cesm.gather_runs", "count"),
    ("nlsq.fit_ms_p50", "ms"),
    ("nlsq.fit_component_ms_p50.atm", "ms"),
    ("nlsq.fit_component_ms_p50.ocn", "ms"),
    ("nlsq.fit_component_ms_p50.ice", "ms"),
    ("nlsq.fit_component_ms_p50.lnd", "ms"),
    ("nlsq.lm_iters_per_op", "count"),
    ("nlsq.starts_per_op", "count"),
    ("nlsq.iter_cap_share", "ratio"),
    ("nlsq.min_r2", "ratio"),
    ("model.build_ms_p50", "ms"),
    ("audit.instance_ms_p50", "ms"),
    ("minlp.solve_ms_p50", "ms"),
    ("minlp.nodes_per_op", "count"),
    ("minlp.lp_solves_per_op", "count"),
    ("minlp.cuts_per_op", "count"),
    ("minlp.pruned_per_op", "count"),
    ("minlp.warm_fallbacks_per_op", "count"),
    ("minlp.nodes_per_s", "1/s"),
    ("lp.simplex_iters_per_op", "count"),
    ("lp.iters_per_solve", "count"),
    ("lp.us_per_iter", "us"),
    ("hslb.glue_ms_p50", "ms"),
    ("hslb.trace_closure_rel", "ratio"),
    ("hslb.fallback_share", "ratio"),
    ("hslb.exhaustive_ms_p50", "ms"),
    ("hslb.pred_err_rel", "ratio"),
    ("service.submit_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p90", "ms"),
    ("service.service_ms_p50", "ms"),
    ("service.tier_exact_share", "ratio"),
    ("service.tier_fit_share", "ratio"),
    ("service.tier_miss_share", "ratio"),
    ("service.fit_cache_hit_rate", "ratio"),
    ("service.coalesced", "count"),
    ("service.rejected", "count"),
    ("reactor.tcp_overhead_ms_p50", "ms"),
    ("reactor.ping_rtt_ms_p50", "ms"),
    ("reactor.reply_queue_p99", "count"),
    ("wire.parse_command_us_p50", "us"),
    ("wire.tune_reply_us_p50", "us"),
    ("wire.reply_bytes", "B"),
    ("telemetry.json_parse_mb_s", "MB/s"),
    ("telemetry.json_print_mb_s", "MB/s"),
    ("sweep.plan_us_p50", "us"),
    ("sweep.predictor_calibrate_us_p50", "us"),
    ("sweep.run_inproc_ms_p50", "ms"),
    ("sweep.pruned", "count"),
    ("sweep.dedup_saved", "count"),
    ("sweep.fit_hit_rate", "ratio"),
    ("sweep.predictor_mae", "ratio"),
    ("client.op_p90_ms", "ms"),
    ("client.op_p99_ms", "ms"),
    ("client.op_max_ms", "ms"),
    ("client.slow_ops", "count"),
    ("client.fail_share", "ratio"),
    ("trace.overhead_rel", "ratio"),
];

/// One reported metric; `spread` carries the block quartiles where the
/// value is a median over blocks.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub spread: Option<(f64, f64)>,
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> (&'static str, &'static str) {
    *table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end(setup_s: f64, blocks: &BlockStats, quality: &Quality) -> Vec<Metric> {
    let plain = |name: &str, value: f64| {
        let (name, unit) = unit_of(END_TO_END, name);
        Metric {
            name,
            unit,
            value,
            spread: None,
        }
    };
    let blocked = |name: &str, q: stats::Quartiles| Metric {
        spread: Some((q.q1, q.q3)),
        ..plain(name, q.median)
    };
    vec![
        plain("setup_s", setup_s),
        blocked("op_p50_ms", blocks.p50_ms),
        blocked("op_p75_ms", blocks.p75_ms),
        blocked("ops_per_s", blocks.ops_per_s),
        plain("makespan_mean_s", quality.makespan_mean_s),
        plain("pred_accuracy", 1.0 - quality.pred_err_rel),
        plain("certified_share", quality.certified_share),
        plain("peak_rss_mb", harness::peak_rss_mb()),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run: `layers` holds what the traced
/// ops sampled at the layer boundaries, `reference` is the short
/// untraced pass run just before in the same process, `failed` the
/// traced pass's failed ops.
pub fn per_layer(layers: &Layers, reference: &Pass, traced: &Pass, failed: usize) -> Vec<Metric> {
    let l = layers;
    let tiers =
        l.count("service.tier_exact") + l.count("service.tier_fit") + l.count("service.tier_miss");
    let tier = |name: &str| ratio(l.count(name) as f64, tiers as f64);
    let traced_ms = traced.latencies();
    let served = l.count("service.submit_wait_ms") > 0;
    let value = |name: &str| -> f64 {
        match name {
            "cesm.gather_ms_p50" => l.p50("cesm.gather_ms"),
            "cesm.execute_ms_p50" => l.p50("cesm.execute_ms"),
            "cesm.gather_runs" => l.mean("cesm.gather_runs"),
            "nlsq.fit_ms_p50" => l.p50("nlsq.fit_ms"),
            "nlsq.fit_component_ms_p50.atm" => l.p50("nlsq.fit_component.atm"),
            "nlsq.fit_component_ms_p50.ocn" => l.p50("nlsq.fit_component.ocn"),
            "nlsq.fit_component_ms_p50.ice" => l.p50("nlsq.fit_component.ice"),
            "nlsq.fit_component_ms_p50.lnd" => l.p50("nlsq.fit_component.lnd"),
            "nlsq.lm_iters_per_op" => l.mean("nlsq.lm_iters"),
            "nlsq.starts_per_op" => l.mean("nlsq.starts"),
            // Every start may run 200 LM iterations; 1.0 means each ran
            // to the cap and none stopped on a tolerance.
            "nlsq.iter_cap_share" => ratio(l.sum("nlsq.lm_iters"), 200.0 * l.sum("nlsq.starts")),
            "nlsq.min_r2" => l.min("nlsq.min_r2"),
            "model.build_ms_p50" => l.p50("model.build_ms"),
            "audit.instance_ms_p50" => l.p50("audit.instance_ms"),
            "minlp.solve_ms_p50" => l.p50("minlp.solve_ms"),
            "minlp.nodes_per_op" => l.mean("minlp.nodes"),
            "minlp.lp_solves_per_op" => l.mean("minlp.lp_solves"),
            "minlp.cuts_per_op" => l.mean("minlp.cuts"),
            "minlp.pruned_per_op" => l.mean("minlp.pruned"),
            "minlp.warm_fallbacks_per_op" => l.mean("minlp.warm_fallbacks"),
            "minlp.nodes_per_s" => ratio(l.sum("minlp.nodes"), l.sum("minlp.wall_ms") / 1e3),
            "lp.simplex_iters_per_op" => l.mean("lp.simplex_iters"),
            "lp.iters_per_solve" => ratio(l.sum("lp.simplex_iters"), l.sum("minlp.lp_solves")),
            // Computed, not measured: solver wall over pivots, so it
            // also carries everything in the solver that is not a pivot.
            "lp.us_per_iter" => ratio(l.sum("minlp.wall_ms") * 1e3, l.sum("lp.simplex_iters")),
            "hslb.glue_ms_p50" => l.p50("hslb.glue_ms"),
            "hslb.trace_closure_rel" => ratio(
                (l.sum("hslb.stage_sum_ms") - l.sum("hslb.run_ms")).abs(),
                l.sum("hslb.run_ms"),
            ),
            "hslb.fallback_share" => l.mean("hslb.fallback"),
            "hslb.exhaustive_ms_p50" => l.p50("hslb.exhaustive_ms"),
            "hslb.pred_err_rel" => harness::quality(traced).pred_err_rel,
            "service.submit_wait_ms_p50" => l.p50("service.submit_wait_ms"),
            "service.queue_wait_ms_p50" => l.p50("service.queue_wait_ms"),
            "service.queue_wait_ms_p90" => l.pct("service.queue_wait_ms", 90.0),
            "service.service_ms_p50" => l.p50("service.service_ms"),
            "service.tier_exact_share" => tier("service.tier_exact"),
            "service.tier_fit_share" => tier("service.tier_fit"),
            "service.tier_miss_share" => tier("service.tier_miss"),
            "service.fit_cache_hit_rate" => l.mean("service.fit_cache_hit_rate"),
            "service.coalesced" => l.sum("service.coalesced"),
            "service.rejected" => l.sum("service.rejected"),
            "reactor.tcp_overhead_ms_p50" if served => {
                l.p50("client.op_ms") - l.p50("service.submit_wait_ms")
            }
            "reactor.tcp_overhead_ms_p50" => 0.0,
            "reactor.ping_rtt_ms_p50" => l.p50("reactor.ping_rtt_ms"),
            "reactor.reply_queue_p99" => l.mean("reactor.reply_queue_p99"),
            "wire.parse_command_us_p50" => l.p50("wire.parse_command_us"),
            "wire.tune_reply_us_p50" => l.p50("wire.tune_reply_us"),
            "wire.reply_bytes" => l.mean("wire.reply_bytes"),
            "telemetry.json_parse_mb_s" => l.mean("telemetry.json_parse_mb_s"),
            "telemetry.json_print_mb_s" => l.mean("telemetry.json_print_mb_s"),
            "sweep.plan_us_p50" => l.p50("sweep.plan_us"),
            "sweep.predictor_calibrate_us_p50" => l.p50("sweep.predictor_calibrate_us"),
            "sweep.run_inproc_ms_p50" => l.p50("sweep.run_inproc_ms"),
            "sweep.pruned" => l.mean("sweep.pruned"),
            "sweep.dedup_saved" => l.mean("sweep.dedup_saved"),
            "sweep.fit_hit_rate" => l.mean("sweep.fit_hit_rate"),
            "sweep.predictor_mae" => l.mean("sweep.predictor_mae"),
            "client.op_p90_ms" => stats::percentile(&traced_ms, 90.0),
            "client.op_p99_ms" => stats::percentile(&traced_ms, 99.0),
            "client.op_max_ms" => stats::percentile(&traced_ms, 100.0),
            "client.slow_ops" => harness::slow_ops(traced).len() as f64,
            "client.fail_share" => ratio(failed as f64, traced.ops.len() as f64),
            "trace.overhead_rel" => {
                ratio(
                    stats::median(&traced_ms),
                    stats::median(&reference.latencies()),
                ) - 1.0
            }
            other => panic!("metric {other} has no reduction"),
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = value(name);
            Metric {
                name,
                unit,
                value: if v.is_finite() { v } else { 0.0 },
                spread: None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb_telemetry::json::{self, Value};

    /// `BENCHMARK.json` and this catalogue name the same metrics, in the
    /// same order, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let text = |k| m.get(k).and_then(Value::as_str).expect("text field");
                    (text("name").to_string(), text("unit").to_string())
                })
                .collect();
            let catalogue: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, catalogue, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    /// Every catalogue entry has a reduction, and a run that entered no
    /// layer reads finite zeros rather than NaN.
    #[test]
    fn empty_run_reduces_to_finite_values() {
        let empty = Pass::default();
        let metrics = per_layer(&Layers::default(), &empty, &empty, 0);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics.iter().all(|m| m.value.is_finite()));
    }
}
