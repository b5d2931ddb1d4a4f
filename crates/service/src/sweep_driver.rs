//! Sweep execution: walk an `hslb-sweep` plan through the service's
//! worker pool.
//!
//! `hslb-sweep` plans (what to solve, what may be pruned) but never
//! executes; this module is the executor. It phrases each configuration
//! as a [`TuneRequest`] and pushes it through [`TuningService::submit`],
//! so every sweep solve gets the full serving treatment for free: the
//! exact-tier coalescer, both cache tiers, bounded admission, worker
//! supervision. Shared work falls out of the fit key — every
//! configuration in a fit group carries the same one, and the service's
//! fit tier is single-flight (`service::process_job`): whichever member
//! a worker pops first leads the group's gather+fit, members popped
//! while it runs are parked (their workers move on, so the *other*
//! group's fit starts at once), and everyone replays what the leader
//! published (`CacheTier::Fit`). The driver does nothing to arrange
//! this — it submits the whole batch at once, at any width — and a cold
//! sweep's `fit_misses` equals the plan's `fit_groups`.
//!
//! Batches run with bounded parallelism enforced by the service's own
//! admission queue: on [`SubmitError::Backpressure`] the driver parks on
//! its result collector (a [`RankedCondvar`] at rank `SWEEP_RESULTS`,
//! the lattice top) until a completion frees queue space or the retry
//! hint elapses — no spinning, no `thread::sleep`, and no lock is ever
//! held across a `submit` call (the collector rank sits *above* every
//! lock `submit` takes, so holding it there would invert the lattice).
//!
//! Determinism: the portfolio's entries depend only on the spec — the
//! service guarantees every response payload is bit-identical to
//! [`crate::service::reference_response`], calibration consumes those
//! payloads in plan order, and the predictor is a pure function of its
//! samples. Progress *timing* (which config finishes first) is
//! scheduling; the final portfolio is not.

use crate::ranked::{rank, RankedCondvar, RankedMutex};
use crate::request::{layout_token, resolution_token, TuneRequest, TuneResponse};
use crate::service::{hit_rate, SubmitError, TuningService};
use hslb_sweep::predictor::{self, CalSample, Predictor};
use hslb_sweep::{
    Portfolio, PortfolioEntry, PruneDecision, SweepConfig, SweepPlan, SweepSpec, SweepStats,
};
use hslb_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One progress beat: a configuration reached a terminal state.
#[derive(Debug, Clone)]
pub struct SweepProgress {
    /// Configurations finished so far (including this one).
    pub done: usize,
    /// Configurations planned in total.
    pub total: usize,
    pub key: String,
    /// `"solved"` or `"pruned"`.
    pub status: &'static str,
    /// Exact makespan when solved, predicted when pruned.
    pub makespan: f64,
}

/// Collects batch results as worker threads resolve tickets. Rank
/// `SWEEP_RESULTS` is the lattice top: the resolve callback takes it
/// with nothing else held (ticket resolution invokes callbacks after
/// releasing the slot lock), and the driver never holds it across a
/// submit.
struct Collector {
    state: RankedMutex<CollectorState, { rank::SWEEP_RESULTS }>,
    ready: RankedCondvar<{ rank::SWEEP_RESULTS }>,
}

struct CollectorState {
    /// `(slot, result)` in completion order, awaiting the driver's drain.
    fresh: Vec<(usize, Result<TuneResponse, String>)>,
    completed: usize,
    resolved: Vec<bool>,
}

impl Collector {
    fn new(slots: usize) -> Arc<Collector> {
        Arc::new(Collector {
            state: RankedMutex::new(CollectorState {
                fresh: Vec::new(),
                completed: 0,
                resolved: vec![false; slots],
            }),
            ready: RankedCondvar::new(),
        })
    }

    fn record(&self, slot: usize, result: Result<TuneResponse, String>) {
        let mut st = self.state.lock();
        if !st.resolved[slot] {
            st.resolved[slot] = true;
            st.completed += 1;
            st.fresh.push((slot, result));
        }
        drop(st);
        self.ready.notify_all();
    }

    /// Park until a completion lands or `hint_ms` elapses (backpressure
    /// retry pacing — the paced wait the audit's no-sleep rule demands).
    /// Returns at once when a completion is already waiting to be
    /// drained: it was recorded while the driver ran its callbacks, so
    /// its `notify_all` has come and gone. The bool is "the hint ran out".
    fn wait_hint(&self, hint_ms: u64) -> bool {
        let st = self.state.lock();
        if !st.fresh.is_empty() {
            return false;
        }
        self.ready
            .wait_timeout(st, Duration::from_millis(hint_ms.clamp(1, 1_000)))
            .1
    }
}

/// Phrase a sweep configuration as a service request.
fn request_for(cfg: &SweepConfig, id: u64) -> TuneRequest {
    TuneRequest {
        id,
        resolution: cfg.resolution,
        layout: cfg.layout,
        objective: cfg.objective,
        target_nodes: cfg.target_nodes,
        ocean_constrained: cfg.ocean_constrained,
        seed: cfg.seed,
        priority: 4,
        deadline_ms: None,
    }
}

/// Submit `indices` (into `plan.configs`) and wait for every result,
/// invoking `on_done(config_index, result)` exactly once per index from
/// *this* thread, in completion order (live — completions stream while
/// later submissions are still in flight). Backpressure parks on the
/// collector; terminal submit errors resolve the slot with an error.
fn solve_batch(
    service: &TuningService,
    plan: &SweepPlan,
    indices: &[usize],
    mut on_done: impl FnMut(usize, Result<TuneResponse, String>),
) {
    let collector = Collector::new(indices.len());
    for (slot, &idx) in indices.iter().enumerate() {
        let request = request_for(&plan.configs[idx], idx as u64);
        loop {
            match service.submit(request.clone()) {
                Ok(ticket) => {
                    let col = Arc::clone(&collector);
                    ticket.on_resolve(move |res| {
                        col.record(slot, res.map_err(|e| e.to_string()));
                    });
                    break;
                }
                Err(SubmitError::Backpressure(bp)) => {
                    // Deliver what the wait came back for, so the next
                    // wait parks instead of spinning on a full queue.
                    collector.wait_hint(bp.retry_after_ms);
                    for (done_slot, result) in drain_fresh(&collector) {
                        on_done(indices[done_slot], result);
                    }
                }
                Err(e) => {
                    collector.record(slot, Err(e.to_string()));
                    break;
                }
            }
        }
        // Drain completions as they land so progress streams during
        // submission, not only at the end.
        for (done_slot, result) in drain_fresh(&collector) {
            on_done(indices[done_slot], result);
        }
    }
    loop {
        let fresh = drain_fresh(&collector);
        let finished = {
            let st = collector.state.lock();
            st.completed == indices.len() && st.fresh.is_empty()
        };
        for (done_slot, result) in fresh {
            on_done(indices[done_slot], result);
        }
        if finished {
            break;
        }
        collector.wait_hint(50);
    }
}

fn drain_fresh(collector: &Collector) -> Vec<(usize, Result<TuneResponse, String>)> {
    let mut st = collector.state.lock();
    std::mem::take(&mut st.fresh)
}

/// Run a sweep to completion through `service`, streaming one
/// [`SweepProgress`] per terminal configuration. Returns the ranked
/// portfolio, or the first pipeline/submit error (a sweep with a failed
/// member has no trustworthy ranking to report).
pub fn run_sweep(
    service: &TuningService,
    spec: &SweepSpec,
    telemetry: &Telemetry,
    mut on_progress: impl FnMut(&SweepProgress),
) -> Result<Portfolio, String> {
    let plan = SweepPlan::new(spec)?;
    let total = plan.configs.len();
    telemetry.counter_add("sweep.planned", total as u64);
    let stats_before = service.stats();
    let wall = Instant::now();

    let mut responses: BTreeMap<usize, TuneResponse> = BTreeMap::new();
    let mut done = 0usize;
    let mut errors: Vec<String> = Vec::new();

    // Phase 1: calibration solves (every layout at the min budget, the
    // lead layout at every budget, plus holds).
    {
        let _span = telemetry.span("sweep.calibrate");
        solve_batch(
            service,
            &plan,
            &plan.calibration,
            |idx, result| match result {
                Ok(resp) => {
                    done += 1;
                    on_progress(&SweepProgress {
                        done,
                        total,
                        key: plan.configs[idx].key(),
                        status: "solved",
                        makespan: resp.payload.actual_total,
                    });
                    responses.insert(idx, resp);
                }
                Err(e) => errors.push(format!("{}: {e}", plan.configs[idx].key())),
            },
        );
    }
    if let Some(first) = errors.first() {
        return Err(format!(
            "{} calibration solve(s) failed; first: {first}",
            errors.len()
        ));
    }

    // Phase 2: calibrate the predictor from the exact solves (optionally
    // distorted by the chaos hook) and decide every candidate.
    let samples: Vec<CalSample> = plan
        .calibration
        .iter()
        .filter_map(|idx| {
            let cfg = &plan.configs[*idx];
            responses.get(idx).map(|resp| CalSample {
                layout: layout_token(cfg.layout).to_string(),
                resolution: resolution_token(cfg.resolution).to_string(),
                nodes: cfg.target_nodes,
                makespan: resp.payload.actual_total,
            })
        })
        .collect();
    let calibration_input = match spec.calibration_noise {
        Some(noise) => predictor::apply_noise(&samples, noise),
        None => samples,
    };
    let (model, predictor_failed) = if spec.prune {
        match Predictor::calibrate(&calibration_input, predictor::DEFAULT_REL_ERR_CAP) {
            Ok(m) => (Some(m), None),
            Err(e) => (None, Some(e.to_string())),
        }
    } else {
        (None, Some("pruning disabled by spec".to_string()))
    };

    // Best exact makespan per budget group (the pruning incumbents).
    let mut incumbents: BTreeMap<String, f64> = BTreeMap::new();
    for (idx, resp) in &responses {
        let group = plan.configs[*idx].budget_group();
        let best = incumbents.entry(group).or_insert(resp.payload.actual_total);
        *best = best.min(resp.payload.actual_total);
    }

    let mut decisions: Vec<PruneDecision> = Vec::new();
    let mut predicted_of: BTreeMap<usize, f64> = BTreeMap::new();
    let mut pruned_idx: Vec<usize> = Vec::new();
    let mut keep_idx: Vec<usize> = Vec::new();
    for &idx in &plan.candidates {
        let cfg = &plan.configs[idx];
        let group = cfg.budget_group();
        let prediction = model.as_ref().and_then(|m| {
            m.predict(
                layout_token(cfg.layout),
                resolution_token(cfg.resolution),
                cfg.target_nodes,
            )
        });
        if let Some(pred) = prediction {
            predicted_of.insert(idx, pred);
        }
        // Fail-open ladder, in order: no model (never calibrated), no
        // prediction (unseen factor), no incumbent (group without an
        // exact solve) — each keeps the config with a logged reason.
        let (pruned, incumbent, inflation, reason) = match (&model, prediction) {
            (None, _) => (
                false,
                f64::NAN,
                1.0,
                format!(
                    "fail-open: predictor unavailable ({})",
                    predictor_failed.as_deref().unwrap_or("unknown")
                ),
            ),
            (Some(_), None) => (
                false,
                f64::NAN,
                1.0,
                "fail-open: no prediction for this layout/resolution".to_string(),
            ),
            (Some(m), Some(pred)) => match incumbents.get(&group) {
                None => (
                    false,
                    f64::NAN,
                    1.0,
                    "fail-open: budget group has no exact incumbent".to_string(),
                ),
                Some(&best) => {
                    let inflation = m.threshold_inflation(spec.safety_margin);
                    let deflated = pred / inflation;
                    if deflated > best {
                        (
                            true,
                            best,
                            inflation,
                            format!(
                                "pruned: predicted {pred:.4} / {inflation:.4} = {deflated:.4} \
                                 > incumbent {best:.4}"
                            ),
                        )
                    } else {
                        (
                            false,
                            best,
                            inflation,
                            format!(
                                "kept: predicted {pred:.4} / {inflation:.4} = {deflated:.4} \
                                 <= incumbent {best:.4}"
                            ),
                        )
                    }
                }
            },
        };
        decisions.push(PruneDecision {
            key: cfg.key(),
            group,
            predicted: prediction.unwrap_or(f64::NAN),
            incumbent,
            inflation,
            pruned,
            reason,
        });
        if pruned {
            pruned_idx.push(idx);
        } else {
            keep_idx.push(idx);
        }
    }
    telemetry.counter_add("sweep.pruned", pruned_idx.len() as u64);
    for &idx in &pruned_idx {
        done += 1;
        on_progress(&SweepProgress {
            done,
            total,
            key: plan.configs[idx].key(),
            status: "pruned",
            makespan: predicted_of.get(&idx).copied().unwrap_or(f64::NAN),
        });
    }

    // Phase 3: exact-solve the survivors (fit-tier replays of their
    // group's cached artifacts).
    {
        let _span = telemetry.span("sweep.solve");
        solve_batch(service, &plan, &keep_idx, |idx, result| match result {
            Ok(resp) => {
                done += 1;
                on_progress(&SweepProgress {
                    done,
                    total,
                    key: plan.configs[idx].key(),
                    status: "solved",
                    makespan: resp.payload.actual_total,
                });
                responses.insert(idx, resp);
            }
            Err(e) => errors.push(format!("{}: {e}", plan.configs[idx].key())),
        });
    }
    if let Some(first) = errors.first() {
        return Err(format!(
            "{} sweep solve(s) failed; first: {first}",
            errors.len()
        ));
    }
    telemetry.counter_add("sweep.solved", responses.len() as u64);

    // Accounting: cache deltas and predictor MAE.
    let stats_after = service.stats();
    let fit_hits = stats_after.fit_hits.saturating_sub(stats_before.fit_hits);
    let fit_misses = stats_after
        .fit_misses
        .saturating_sub(stats_before.fit_misses);
    telemetry.counter_add("fit_cache.hits", fit_hits);
    telemetry.counter_add("fit_cache.misses", fit_misses);

    let mae_pairs: Vec<(f64, f64)> = responses
        .iter()
        .filter_map(|(idx, resp)| {
            predicted_of
                .get(idx)
                .map(|&pred| (pred, resp.payload.actual_total))
        })
        .collect();

    let stats = SweepStats {
        planned: total,
        solved: responses.len(),
        pruned: pruned_idx.len(),
        fit_groups: plan.groups.len(),
        dedup_saved: plan.dedup_saved(),
        fit_hits,
        fit_misses,
        predictor_mae: predictor::mean_abs_rel_err(&mae_pairs),
        predictor_failed,
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
    };
    telemetry.counter_add(
        "fit_cache.hit_rate_pct",
        (hit_rate(fit_hits, fit_misses) * 100.0) as u64,
    );

    // Assemble entries.
    let mut entries: Vec<PortfolioEntry> = Vec::with_capacity(total);
    for (idx, cfg) in plan.configs.iter().enumerate() {
        if let Some(resp) = responses.get(&idx) {
            let p = &resp.payload;
            let nodes_used =
                p.allocation.lnd + p.allocation.ice + p.allocation.atm + p.allocation.ocn;
            let busy = p.allocation.lnd as f64 * p.actual.lnd
                + p.allocation.ice as f64 * p.actual.ice
                + p.allocation.atm as f64 * p.actual.atm
                + p.allocation.ocn as f64 * p.actual.ocn;
            let capacity = cfg.target_nodes as f64 * p.actual_total;
            let idle = if capacity > 0.0 {
                (1.0 - busy / capacity).clamp(0.0, 1.0)
            } else {
                0.0
            };
            entries.push(PortfolioEntry {
                key: cfg.key(),
                layout: layout_token(cfg.layout).to_string(),
                resolution: resolution_token(cfg.resolution).to_string(),
                objective: cfg.objective.to_string(),
                target_nodes: cfg.target_nodes,
                held: cfg.held,
                pruned: false,
                makespan: p.actual_total,
                predicted: predicted_of.get(&idx).copied(),
                nodes_used: Some(nodes_used),
                idle_fraction: Some(idle),
                fingerprint: Some(p.fingerprint()),
                rung: p.rung.clone(),
                certified: p.certified,
                audit_passed: p.audit_passed,
            });
        } else {
            entries.push(PortfolioEntry {
                key: cfg.key(),
                layout: layout_token(cfg.layout).to_string(),
                resolution: resolution_token(cfg.resolution).to_string(),
                objective: cfg.objective.to_string(),
                target_nodes: cfg.target_nodes,
                held: cfg.held,
                pruned: true,
                makespan: predicted_of.get(&idx).copied().unwrap_or(f64::NAN),
                predicted: predicted_of.get(&idx).copied(),
                nodes_used: None,
                idle_fraction: None,
                fingerprint: None,
                rung: String::new(),
                certified: false,
                audit_passed: None,
            });
        }
    }

    Ok(Portfolio::assemble(entries, decisions, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the lost wake-up as `solve_batch` ran into it: a
    /// completion recorded while the driver is inside `on_done` sends its
    /// `notify_all` to nobody, and the unconditional wait that followed
    /// slept its whole 50 ms hint before looking at it. Asserted on what
    /// the wait reports, not on a clock.
    #[test]
    fn completion_recorded_during_on_done_is_not_waited_out() {
        let collector = Collector::new(2);
        collector.record(0, Err("first".to_string()));
        assert_eq!(drain_fresh(&collector).len(), 1);
        // The driver is in its 5 ms `on_done`; a worker resolves slot 1.
        let worker = {
            let col = Arc::clone(&collector);
            std::thread::spawn(move || col.record(1, Err("second".to_string())))
        };
        std::thread::sleep(Duration::from_millis(5));
        worker.join().expect("worker");
        assert!(
            !collector.wait_hint(50),
            "ran out its hint on a recorded completion"
        );
        assert_eq!(drain_fresh(&collector).len(), 1);
    }
}
