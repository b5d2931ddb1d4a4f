//! Shared harness for the experiment regenerators.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//!
//! Every table and figure of the paper's evaluation has one binary here
//! (`cargo run --release -p hslb-bench --bin <name>`):
//!
//! | paper artifact | binary | what it prints |
//! |---|---|---|
//! | Table III (6 panels) | `table3` | manual vs HSLB allocations & times, with the paper's numbers alongside |
//! | Figure 2 | `fig2` | per-component 1° scaling points + fitted curves |
//! | Figure 3 | `fig3` | 1/8° manual vs HSLB-predicted vs HSLB-actual series |
//! | Figure 4 | `fig4` | predicted scaling of layouts 1–3 + layout-1 experimental + R² |
//! | §III-E SOS claim | `ablation_sos` | nodes/LPs/time, SOS vs binary branching |
//! | §III-D objectives | `ablation_objectives` | achieved makespan per objective |
//! | §III-A T_sync note | `ablation_tsync` | makespan across T_sync values |
//! | §III-E <60 s claim | `solver_claim` | full-machine solve wall time + scaling sweep |
//!
//! Timings of the machinery itself (per-layer, sampled repeatedly) come
//! from the repository benchmark, `benchmark/run.sh`, not from here.

use hslb::{Hslb, HslbOptions};
use hslb_cesm::{Machine, NoiseSpec, Resolution, ResolutionConfig, Simulator};

/// The seed every experiment binary uses, so printed numbers are stable
/// run to run (matching EXPERIMENTS.md).
pub const EXPERIMENT_SEED: u64 = 42;

/// Build the simulator for one of the paper's experiment families.
pub fn simulator_for(resolution: Resolution, ocean_constrained: bool) -> Simulator {
    let config = match (resolution, ocean_constrained) {
        (Resolution::OneDegree, true) => ResolutionConfig::one_degree(),
        (Resolution::OneDegree, false) => ResolutionConfig::one_degree().without_ocean_constraint(),
        (Resolution::EighthDegree, true) => ResolutionConfig::eighth_degree(),
        (Resolution::EighthDegree, false) => {
            ResolutionConfig::eighth_degree().without_ocean_constraint()
        }
    };
    Simulator::new(
        Machine::intrepid(),
        config,
        NoiseSpec::default(),
        EXPERIMENT_SEED,
    )
}

/// Run the standard pipeline at a target size and hand back the report.
#[allow(clippy::expect_used)] // bench harness: fail fast and loud
pub fn run_pipeline(sim: &Simulator, target_nodes: i64) -> hslb::ExperimentReport {
    let manual = hslb::manual::paper_manual_allocation(sim.resolution(), target_nodes);
    Hslb::new(sim, HslbOptions::new(target_nodes))
        .run(manual)
        .expect("experiment pipeline")
}

/// Machine-readable record of one experiment, appended to stdout as JSON
/// when `--json` is passed to a binary.
#[derive(Debug)]
pub struct ExperimentRecord {
    pub experiment: String,
    pub resolution: String,
    pub target_nodes: i64,
    pub hslb_alloc: [i64; 4],
    pub hslb_predicted_total: f64,
    pub hslb_actual_total: f64,
    pub manual_actual_total: Option<f64>,
    pub paper_hslb_predicted_total: Option<f64>,
    pub paper_hslb_actual_total: Option<f64>,
    pub paper_manual_total: Option<f64>,
}

impl ExperimentRecord {
    /// Build from a report plus the corresponding paper row.
    pub fn new(
        experiment: &str,
        report: &hslb::ExperimentReport,
        paper: Option<&hslb_cesm::calib::PaperExperiment>,
    ) -> Self {
        let a = report.hslb.allocation;
        ExperimentRecord {
            experiment: experiment.to_string(),
            resolution: format!("{}", report.resolution),
            target_nodes: report.target_nodes,
            hslb_alloc: [a.lnd, a.ice, a.atm, a.ocn],
            hslb_predicted_total: report.hslb.predicted_total.unwrap_or(f64::NAN),
            hslb_actual_total: report.hslb.actual_total,
            manual_actual_total: report.manual.as_ref().map(|m| m.actual_total),
            paper_hslb_predicted_total: paper.map(|p| p.hslb_predicted_total),
            paper_hslb_actual_total: paper.map(|p| p.hslb_actual_total),
            paper_manual_total: paper.and_then(|p| p.manual_total),
        }
    }

    /// Render as one JSON object (non-finite floats become `null`,
    /// matching serde_json's behavior for f64).
    pub fn to_json(&self) -> String {
        fn jstr(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        fn jf64(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        fn jopt(v: Option<f64>) -> String {
            v.map(jf64).unwrap_or_else(|| "null".to_string())
        }
        format!(
            concat!(
                "{{\"experiment\":{},\"resolution\":{},\"target_nodes\":{},",
                "\"hslb_alloc\":[{},{},{},{}],\"hslb_predicted_total\":{},",
                "\"hslb_actual_total\":{},\"manual_actual_total\":{},",
                "\"paper_hslb_predicted_total\":{},\"paper_hslb_actual_total\":{},",
                "\"paper_manual_total\":{}}}"
            ),
            jstr(&self.experiment),
            jstr(&self.resolution),
            self.target_nodes,
            self.hslb_alloc[0],
            self.hslb_alloc[1],
            self.hslb_alloc[2],
            self.hslb_alloc[3],
            jf64(self.hslb_predicted_total),
            jf64(self.hslb_actual_total),
            jopt(self.manual_actual_total),
            jopt(self.paper_hslb_predicted_total),
            jopt(self.paper_hslb_actual_total),
            jopt(self.paper_manual_total),
        )
    }

    /// Emit as one JSON line.
    pub fn print_json(&self) {
        println!("{}", self.to_json());
    }
}

/// True when the process args ask for JSON output.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulators_match_requested_constraints() {
        assert!(simulator_for(Resolution::OneDegree, true)
            .config
            .ocean_allowed
            .is_some());
        assert!(simulator_for(Resolution::EighthDegree, false)
            .config
            .ocean_allowed
            .is_none());
    }

    #[test]
    fn record_serializes() {
        let sim = simulator_for(Resolution::OneDegree, true);
        let report = run_pipeline(&sim, 128);
        let rec = ExperimentRecord::new("t", &report, None);
        let json = rec.to_json();
        assert!(
            json.contains("\"hslb_alloc\":[24,80,104,24]") || json.contains("\"hslb_alloc\":[")
        );
        assert!(json.contains("\"paper_manual_total\":null"));
    }
}
