//! What every workload shares: the shape of an op's outcome, the
//! time-bounded measured pass cut into blocks, the end-to-end metrics
//! read off it, and the checks that hold for any workload.

use crate::stats::{self, Quartiles};
use crate::trace::Tracer;
use hslb_cesm::{Allocation, Layout, Resolution, ResolutionConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// An op slower than this counts as failed.
pub const OP_LIMIT_MS: f64 = 30_000.0;
/// An op slower than this many workload medians is listed as slow.
pub const SLOW_FACTOR: f64 = 20.0;
/// Blocks the measured pass is cut into.
pub const BLOCKS: usize = 5;

/// One tuning question as the harness generates it; the one-shot
/// workloads turn it into pipeline options, the served ones into a wire
/// request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    pub resolution: Resolution,
    pub layout: Layout,
    pub nodes: i64,
    pub sim_seed: u64,
}

impl Question {
    pub fn label(&self) -> String {
        format!(
            "{}|{}|n{}|seed{}",
            hslb_service::request::resolution_token(self.resolution),
            hslb_service::request::layout_token(self.layout),
            self.nodes,
            self.sim_seed
        )
    }

    /// The machine configuration every workload uses: the paper's
    /// Intrepid with CESM's hard-coded ocean counts kept.
    pub fn config(&self) -> ResolutionConfig {
        match self.resolution {
            Resolution::OneDegree => ResolutionConfig::one_degree(),
            Resolution::EighthDegree => ResolutionConfig::eighth_degree(),
        }
    }
}

/// One allocation the program chose, reduced to what the metrics and
/// checks need.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub question: Question,
    /// Absent where the program's reply does not carry it (sweep
    /// entries); the reference comparison covers those.
    pub allocation: Option<Allocation>,
    /// Simulated coupled-run time of the chosen allocation.
    pub actual: f64,
    pub predicted: Option<f64>,
    pub certified: bool,
    /// `TunePayload::fingerprint`: equal iff bit-identical.
    pub fingerprint: String,
}

/// What one op returned: its distinct-input key and either the answers
/// (one for a tune, one per configuration for a sweep) or the typed
/// error.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub key: String,
    pub result: Result<Vec<Answer>, String>,
}

#[derive(Debug, Clone)]
pub struct OpRecord {
    pub round: usize,
    pub ms: f64,
    pub outcome: Outcome,
}

#[derive(Debug, Default)]
pub struct Pass {
    pub ops: Vec<OpRecord>,
    pub rounds: usize,
}

impl Pass {
    pub fn latencies(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.ms).collect()
    }

    /// First outcome per distinct key, in first-seen order.
    pub fn distinct(&self) -> Vec<&OpRecord> {
        let mut seen = std::collections::BTreeSet::new();
        self.ops
            .iter()
            .filter(|o| seen.insert(o.outcome.key.as_str()))
            .collect()
    }

    /// The distinct inputs of the first round. A pass runs for a time,
    /// not a count, so only its first round is the same set of inputs on
    /// a faster and a slower program; the quality metrics read this.
    pub fn first_round(&self) -> Vec<&OpRecord> {
        let mut seen = std::collections::BTreeSet::new();
        self.ops
            .iter()
            .take_while(|o| o.round == 0)
            .filter(|o| seen.insert(o.outcome.key.as_str()))
            .collect()
    }
}

/// A benchmark workload: a seeded stream of rounds (each round the same
/// input mix in a fresh order) and the op that runs one input.
pub trait Workload {
    type Input;

    /// The next round of inputs. Rounds are the unit the pass is cut
    /// into blocks by, so every block sees the same mix.
    fn next_round(&mut self) -> Vec<Self::Input>;

    /// A new pass starts: forget what was remembered about the last one.
    fn begin_pass(&mut self) {}

    /// Run one op. Returns its wall time in milliseconds — timed inside,
    /// around the calls into the program only — and what came back. With
    /// a tracer the op also records its spans and layer samples.
    fn op(&mut self, input: &Self::Input, tracer: Option<&mut Tracer>) -> (f64, Outcome);

    /// Workload-specific output checks over a finished pass, outside any
    /// timed region. One message per failed op.
    fn verify(&mut self, pass: &Pass) -> Vec<String>;

    /// Inputs for one stretch of the fixed warm-up (a round, unless the
    /// workload's rounds are too long to repeat in set-up).
    fn warm_round(&mut self) -> Vec<Self::Input> {
        self.next_round()
    }

    /// What the traced ops sampled at the layer boundaries.
    fn layers(&self) -> &Layers;

    /// Called once after a traced pass, for layer probes that are not
    /// part of an op.
    fn after_trace(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Run whole rounds until `seconds` have passed (at least one round).
pub fn run_pass<W: Workload>(w: &mut W, seconds: f64, mut tracer: Option<&mut Tracer>) -> Pass {
    let mut pass = Pass::default();
    w.begin_pass();
    let start = Instant::now();
    loop {
        for input in w.next_round() {
            if let Some(t) = tracer.as_deref_mut() {
                t.set_op(pass.ops.len() as u64);
            }
            let (ms, outcome) = w.op(&input, tracer.as_deref_mut());
            pass.ops.push(OpRecord {
                round: pass.rounds,
                ms,
                outcome,
            });
        }
        pass.rounds += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            return pass;
        }
    }
}

/// Run exactly `ops` ops (whole rounds, then a partial one) — the fixed
/// warm-up that is part of set-up.
pub fn warm_up<W: Workload>(w: &mut W, ops: usize) {
    let mut done = 0;
    while done < ops {
        for input in w.warm_round() {
            if done == ops {
                break;
            }
            let _ = w.op(&input, None);
            done += 1;
        }
    }
}

/// Per-block latency and throughput figures with their spread.
#[derive(Debug, Clone)]
pub struct BlockStats {
    pub blocks: usize,
    pub p50_ms: Quartiles,
    /// The upper percentile kept end-to-end is p75, not p90 or a tail
    /// mean: a percentile is only as steady as the latency distribution
    /// is smooth around it, and on `sweep_grid` one sweep in twelve
    /// stalls 50 ms (`KNOWN_SLOW.md`), which puts p90 on the edge of a
    /// gap — block p90s of one run read 46 to 87 ms, and the mean of the
    /// slowest tenth 68 to 98 ms run to run. The stalls still weigh on
    /// `ops_per_s`; p90 and p99 are layer metrics.
    pub p75_ms: Quartiles,
    pub ops_per_s: Quartiles,
}

/// Cut the pass into consecutive blocks at round boundaries and take
/// p50 / p75 / throughput per block. The reported metric is the median
/// over blocks, so one disturbed stretch of the run moves it little.
/// Throughput is ops over the summed op times of the block: one client
/// waits for each reply, so that is the wall the program was given.
pub fn block_stats(pass: &Pass) -> BlockStats {
    let (mut p50, mut p75, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    for (lo, hi) in stats::block_ranges(pass.rounds, BLOCKS) {
        let ms: Vec<f64> = pass
            .ops
            .iter()
            .filter(|o| (lo..hi).contains(&o.round))
            .map(|o| o.ms)
            .collect();
        p50.push(stats::percentile(&ms, 50.0));
        p75.push(stats::percentile(&ms, 75.0));
        rate.push(ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3).max(1e-9));
    }
    BlockStats {
        blocks: p50.len(),
        p50_ms: stats::quartiles(&p50),
        p75_ms: stats::quartiles(&p75),
        ops_per_s: stats::quartiles(&rate),
    }
}

/// Quality of the chosen allocations over the distinct inputs of a
/// pass's first round.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Mean simulated CESM time of the chosen allocations.
    pub makespan_mean_s: f64,
    /// Mean |predicted − actual| / actual (the paper's Table III error).
    pub pred_err_rel: f64,
    pub certified_share: f64,
}

pub fn quality(pass: &Pass) -> Quality {
    let answers: Vec<&Answer> = pass
        .first_round()
        .into_iter()
        .filter_map(|o| o.outcome.result.as_ref().ok())
        .flatten()
        .collect();
    let actual: Vec<f64> = answers.iter().map(|a| a.actual).collect();
    let err: Vec<f64> = answers
        .iter()
        .filter_map(|a| a.predicted.map(|p| (p - a.actual).abs() / a.actual))
        .collect();
    let certified = answers.iter().filter(|a| a.certified).count();
    Quality {
        makespan_mean_s: stats::mean(&actual),
        pred_err_rel: stats::mean(&err),
        certified_share: certified as f64 / answers.len().max(1) as f64,
    }
}

/// The checks that hold on every workload: no typed error, no op over
/// the limit, every repeat of an input bit-identical to its first
/// answer, every allocation inside its node budget and allowed sets.
pub fn verify_common(pass: &Pass) -> Vec<String> {
    let mut failures = Vec::new();
    let mut first: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for op in &pass.ops {
        let key = op.outcome.key.as_str();
        let answers = match &op.outcome.result {
            Ok(a) => a,
            Err(e) => {
                failures.push(format!("{key}: error: {e}"));
                continue;
            }
        };
        if op.ms > OP_LIMIT_MS {
            failures.push(format!("{key}: took {:.0} ms", op.ms));
            continue;
        }
        if let Some(why) = answers.iter().find_map(check_allocation) {
            failures.push(format!("{key}: {why}"));
            continue;
        }
        let prints: Vec<&str> = answers.iter().map(|a| a.fingerprint.as_str()).collect();
        let seen = first.entry(key).or_insert_with(|| prints.clone());
        if *seen != prints {
            failures.push(format!("{key}: answer differs from its first run"));
        }
    }
    failures
}

/// `Some(reason)` when the allocation breaks the layout's node budget or
/// uses a count outside CESM's hard-coded sets.
pub fn check_allocation(answer: &Answer) -> Option<String> {
    let a = answer.allocation.as_ref()?;
    let q = &answer.question;
    if let Some(why) = q.layout.check(a, q.nodes) {
        return Some(format!("{}: {why}", q.label()));
    }
    let config = q.config();
    let outside = |set: &Option<Vec<i64>>, n: i64| set.as_ref().is_some_and(|s| !s.contains(&n));
    if outside(&config.ocean_allowed, a.ocn) {
        return Some(format!("{}: ocean count {} not allowed", q.label(), a.ocn));
    }
    if outside(&config.atm_allowed, a.atm) {
        return Some(format!("{}: atm count {} not allowed", q.label(), a.atm));
    }
    None
}

/// Ops slower than [`SLOW_FACTOR`] workload medians, with their inputs.
pub fn slow_ops(pass: &Pass) -> Vec<String> {
    let limit = SLOW_FACTOR * stats::median(&pass.latencies());
    pass.ops
        .iter()
        .filter(|o| o.ms > limit)
        .map(|o| format!("{} ({:.1} ms)", o.outcome.key, o.ms))
        .collect()
}

/// `VmHWM` of this process in MB (0 where /proc is not available).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named sample lists a traced pass collects at the layer boundaries —
/// durations and counts alike — reduced to metrics when the run ends.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn of(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn count(&self, name: &str) -> usize {
        self.of(name).len()
    }

    pub fn sum(&self, name: &str) -> f64 {
        // From +0.0: an empty f64 sum is -0.0, which prints as "-0".
        self.of(name).iter().fold(0.0, |acc, x| acc + x)
    }

    /// 0 when the layer was never entered on this workload.
    pub fn mean(&self, name: &str) -> f64 {
        stats::mean(self.of(name))
    }

    pub fn pct(&self, name: &str, p: f64) -> f64 {
        stats::percentile(self.of(name), p)
    }

    pub fn p50(&self, name: &str) -> f64 {
        self.pct(name, 50.0)
    }

    pub fn min(&self, name: &str) -> f64 {
        self.of(name).iter().copied().fold(f64::NAN, f64::min)
    }
}
