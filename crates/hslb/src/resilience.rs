//! Fault-tolerance policy and reporting for the pipeline.
//!
//! A real gather campaign runs on a shared machine: jobs die in the
//! queue, hang past their wall-clock budget, or come back with mangled
//! timer output. The paper's workflow quietly assumes all D×4 benchmark
//! runs succeed; this module makes the failure handling explicit so a
//! single lost run costs a retry, not the campaign:
//!
//! * [`RetryPolicy`] — per-run budget, bounded retries with exponential
//!   backoff, the paper's D ≥ 4 minimum-points rule, and a plausibility
//!   window that rejects garbage timings;
//! * [`GatherReport`] — what the campaign actually cost: attempts,
//!   failures, hangs, discarded garbage, substituted and abandoned
//!   points;
//! * [`SolverRung`] / [`ResilienceReport`] — which rung of the
//!   degradation ladder (MINLP → exhaustive enumeration → simulated
//!   expert) produced the allocation, and why any fallback was taken.

use hslb_cesm::Component;
use std::collections::BTreeMap;

/// Retry/backoff policy for benchmark and coupled runs.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per benchmark point, including the first (≥ 1).
    pub max_attempts: usize,
    /// Simulated queue backoff before the first retry; doubles each
    /// retry after that.
    pub backoff_base_seconds: f64,
    /// Backoff ceiling.
    pub backoff_cap_seconds: f64,
    /// Wall-clock budget per benchmark run (`None` = wait forever). A
    /// run that exceeds it counts as hung and is retried.
    pub run_budget_seconds: Option<f64>,
    /// Minimum benchmark points per component before accuracy is
    /// considered degraded — the paper's "at least greater than four
    /// for each component" (§III-C).
    pub min_points: usize,
    /// `(lo, hi)` exclusive plausibility window in seconds; timings
    /// outside it are treated as corrupt output and discarded.
    pub plausible_seconds: (f64, f64),
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_seconds: 30.0,
            backoff_cap_seconds: 480.0,
            run_budget_seconds: None,
            min_points: 4,
            plausible_seconds: (1e-3, 1e5),
        }
    }
}

impl RetryPolicy {
    /// Backoff slept before attempt `attempt` (0-based; the first
    /// attempt waits nothing).
    pub fn backoff_before(&self, attempt: usize) -> f64 {
        if attempt == 0 {
            return 0.0;
        }
        let factor = 2f64.powi(attempt.saturating_sub(1).min(30) as i32);
        (self.backoff_base_seconds * factor).min(self.backoff_cap_seconds)
    }

    /// True when a reported timing is physically plausible.
    pub fn plausible(&self, seconds: f64) -> bool {
        let (lo, hi) = self.plausible_seconds;
        seconds.is_finite() && seconds > lo && seconds < hi
    }
}

/// Accounting of one gather campaign under faults.
#[derive(Debug, Clone, Default)]
pub struct GatherReport {
    /// Benchmark runs launched (including retries and substitutions).
    pub attempts: usize,
    /// Runs that returned a usable timing.
    pub succeeded: usize,
    /// Runs that failed outright.
    pub failed_runs: usize,
    /// Runs killed at the wall-clock budget.
    pub hung_runs: usize,
    /// Timings rejected by the plausibility window.
    pub garbage_discarded: usize,
    /// Points that needed at least one retry.
    pub retried_points: usize,
    /// Points recovered at a replacement node count after every attempt
    /// at the planned count failed.
    pub substituted_points: usize,
    /// Points given up on entirely.
    pub abandoned_points: usize,
    /// Total simulated backoff time spent waiting between retries.
    pub backoff_seconds: f64,
    /// Wall-clock burned by hung runs before they were killed.
    pub wasted_seconds: f64,
    /// Usable points per component after the campaign.
    pub points: BTreeMap<Component, usize>,
}

impl GatherReport {
    /// True when no fault of any kind was observed.
    pub fn is_clean(&self) -> bool {
        self.failed_runs == 0
            && self.hung_runs == 0
            && self.garbage_discarded == 0
            && self.substituted_points == 0
            && self.abandoned_points == 0
    }

    /// Fewest usable points across the optimized components.
    pub fn min_component_points(&self) -> usize {
        Component::OPTIMIZED
            .iter()
            .map(|c| self.points.get(c).copied().unwrap_or(0))
            .min()
            .unwrap_or(0)
    }

    /// True when every optimized component kept at least `d` points.
    pub fn meets_minimum(&self, d: usize) -> bool {
        self.min_component_points() >= d
    }

    /// What the campaign lost that the fit will feel, one reason each: a
    /// component below `min_points`, points substituted, points
    /// abandoned. Empty when accuracy is not degraded — a campaign can be
    /// degraded without a single fault, when the allowed sets and floors
    /// project the planned counts of one component onto too few distinct
    /// values.
    pub fn degradations(&self, min_points: usize) -> Vec<String> {
        let mut reasons = Vec::new();
        for c in Component::OPTIMIZED {
            let kept = self.points.get(&c).copied().unwrap_or(0);
            if kept < min_points {
                reasons.push(format!(
                    "gather: {c} kept {kept} benchmark points, below the minimum of {min_points}"
                ));
            }
        }
        for (count, what) in [
            (
                self.substituted_points,
                "substituted at a replacement node count",
            ),
            (self.abandoned_points, "abandoned after every retry"),
        ] {
            if count > 0 {
                reasons.push(format!("gather: {count} benchmark point(s) {what}"));
            }
        }
        reasons
    }
}

impl std::fmt::Display for GatherReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} attempts, {} ok, {} failed, {} hung, {} garbage; \
             {} retried, {} substituted, {} abandoned",
            self.attempts,
            self.succeeded,
            self.failed_runs,
            self.hung_runs,
            self.garbage_discarded,
            self.retried_points,
            self.substituted_points,
            self.abandoned_points
        )
    }
}

/// Which rung of the degradation ladder produced the allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverRung {
    /// The paper's MINLP branch-and-bound (rung 1, full accuracy).
    Minlp,
    /// Exhaustive enumeration over the fitted curves (rung 2 — also the
    /// normal route for nonconvex objectives).
    Exhaustive,
    /// The simulated-expert manual heuristic, used when no fitted
    /// curves are available at all (rung 3).
    SimulatedExpert,
}

impl std::fmt::Display for SolverRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverRung::Minlp => write!(f, "MINLP branch-and-bound"),
            SolverRung::Exhaustive => write!(f, "exhaustive enumeration"),
            SolverRung::SimulatedExpert => write!(f, "simulated expert"),
        }
    }
}

/// How the pipeline weathered a run: the gather accounting, the ladder
/// rung that won, and every fallback taken on the way down.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    pub gather: GatherReport,
    pub rung: SolverRung,
    /// Human-readable reasons for each gather loss
    /// ([`GatherReport::degradations`]) and each fallback, in the order
    /// taken (empty on the happy path).
    pub fallbacks: Vec<String>,
    /// True when the reported allocation should not be trusted as
    /// optimal: the gather lost points, the solver stopped at a limit
    /// with a gap, or a ladder fallback was taken.
    pub degraded_accuracy: bool,
    /// Coupled-run attempts spent executing the final allocation.
    pub execute_attempts: usize,
}

impl std::fmt::Display for ResilienceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "gather: {}", self.gather)?;
        writeln!(
            f,
            "solver rung: {}{}",
            self.rung,
            if self.degraded_accuracy {
                " (degraded accuracy)"
            } else {
                ""
            }
        )?;
        for reason in &self.fallbacks {
            writeln!(f, "fallback: {reason}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_before(0), 0.0);
        assert_eq!(p.backoff_before(1), 30.0);
        assert_eq!(p.backoff_before(2), 60.0);
        assert_eq!(p.backoff_before(3), 120.0);
        assert_eq!(p.backoff_before(10), 480.0, "must hit the cap");
    }

    #[test]
    fn plausibility_window_rejects_garbage_shapes() {
        let p = RetryPolicy::default();
        assert!(p.plausible(306.9));
        assert!(p.plausible(0.5));
        assert!(!p.plausible(0.0));
        assert!(!p.plausible(-306.9));
        assert!(!p.plausible(306.9e7));
        assert!(!p.plausible(306.9e-8));
        assert!(!p.plausible(f64::NAN));
        assert!(!p.plausible(f64::INFINITY));
    }

    #[test]
    fn gather_report_degradation_logic() {
        let mut r = GatherReport::default();
        for c in Component::OPTIMIZED {
            r.points.insert(c, 5);
        }
        assert!(r.is_clean());
        assert!(r.meets_minimum(4));
        assert!(r.degradations(4).is_empty());

        r.garbage_discarded = 2; // noisy but nothing lost
        assert!(!r.is_clean());
        assert!(r.degradations(4).is_empty());

        r.points.insert(Component::Ice, 3); // below the paper's D ≥ 4
        assert_eq!(
            r.degradations(4),
            ["gather: ice kept 3 benchmark points, below the minimum of 4"]
        );
        assert_eq!(r.min_component_points(), 3);

        let mut r2 = GatherReport::default();
        for c in Component::OPTIMIZED {
            r2.points.insert(c, 5);
        }
        r2.substituted_points = 1;
        r2.abandoned_points = 2;
        let reasons = r2.degradations(4);
        assert_eq!(reasons.len(), 2, "each loss alone marks degradation");
        assert!(reasons[0].contains("1 benchmark point(s) substituted"));
        assert!(reasons[1].contains("2 benchmark point(s) abandoned"));
    }

    #[test]
    fn displays_are_informative() {
        let rep = ResilienceReport {
            gather: GatherReport::default(),
            rung: SolverRung::Exhaustive,
            fallbacks: vec!["solver hit its deadline".into()],
            degraded_accuracy: true,
            execute_attempts: 2,
        };
        let s = format!("{rep}");
        assert!(s.contains("exhaustive enumeration"));
        assert!(s.contains("degraded accuracy"));
        assert!(s.contains("deadline"));
        assert_eq!(format!("{}", SolverRung::Minlp), "MINLP branch-and-bound");
    }
}
