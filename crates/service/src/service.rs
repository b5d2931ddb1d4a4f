//! The tuning service: sharded workers driving the HSLB pipeline behind
//! the admission queue, coalescer and cache tiers, supervised so one
//! poisoned request can never take a shard down.
//!
//! Determinism contract: [`reference_response`] is the serial one-shot
//! baseline — fresh simulator, fresh options, no caches. Every response
//! the service produces must carry a payload bit-identical to that
//! baseline for the same request, at any worker/shard count, with any
//! [`CachePolicy`], and under any [`ServiceFaultSpec`] — faults may turn
//! a response into an explicit typed error, never into different bytes.
//! The pieces keep that bar individually:
//!
//! * scheduling (priority/deadline/backpressure) changes only *when* a
//!   request is computed, never *what* is computed;
//! * the exact tier replays a payload computed by the same deterministic
//!   pipeline — and every cached payload is stored with its fingerprint
//!   as a seal, re-verified on every read, so a corrupted (poisoned)
//!   entry is detected and recomputed instead of served;
//! * coalescing hands followers the leader's payload — the same bytes a
//!   separate run would have produced;
//! * the fit tier is single-flight: a job that meets its fit key cold
//!   leads (gathers, fits, publishes), one that meets it in flight is
//!   parked and re-admitted when the leader lets go — replaying
//!   published artifacts is bit-identical to recomputing them, and a
//!   parked job that finds nothing published simply leads in its turn;
//! * simulators are stateless (noise is a pure function of seed and
//!   inputs) and cost two small allocations, so every attempt builds its
//!   own with [`simulator_for`], exactly as the reference does;
//! * supervision (DESIGN.md §13) only ever *re-runs* the deterministic
//!   computation: a panicked or hung attempt is requeued up to
//!   [`SupervisePolicy::max_requeues`] times, then routed to the bypass
//!   rung — one fault-injection-free, cache-bypass reference run — and
//!   only after that fails does the requester see a typed error.

use crate::cache::{AdmitOutcome, FrontDesk};
use crate::fault::ServiceFaultSpec;
use crate::queue::{AdmissionQueue, Backpressure, PushError, Rank};
use crate::ranked::{rank, RankedCondvar, RankedMutex};
use crate::request::{CacheTier, TunePayload, TuneRequest, TuneResponse};
use crate::snapshot::{self, RecoveryRecord, SnapshotPolicy, SnapshotStats};
use hslb::{BenchmarkData, FitSet, GatherPlan, Hslb, HslbOptions};
use hslb_cesm::{Machine, NoiseSpec, Resolution, ResolutionConfig, Simulator};
use hslb_telemetry::json::Value;
use hslb_telemetry::Telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which cache layers are active.
#[derive(Debug, Clone, Copy)]
pub struct CachePolicy {
    /// Exact-key payload cache.
    pub exact: bool,
    /// Fit-level artifact cache (gathered data + fitted curves).
    pub fit: bool,
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy {
            exact: true,
            fit: true,
        }
    }
}

impl CachePolicy {
    /// Everything off — every request runs the full pipeline.
    pub fn disabled() -> CachePolicy {
        CachePolicy {
            exact: false,
            fit: false,
        }
    }
}

/// Worker supervision policy (DESIGN.md §13).
#[derive(Debug, Clone, Copy)]
pub struct SupervisePolicy {
    /// Requeues after a panicked/hung attempt before the bypass rung.
    pub max_requeues: u32,
    /// Watchdog budget for requests without a deadline.
    pub watchdog_default_ms: u64,
    /// Watchdog floor: a tiny client deadline must not starve a healthy
    /// attempt of its compute time (deadlines are logical tie-breakers
    /// first, watchdog keys second).
    pub watchdog_floor_ms: u64,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy {
            max_requeues: 2,
            watchdog_default_ms: 10_000,
            watchdog_floor_ms: 250,
        }
    }
}

/// Service construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Worker threads (each pinned to one queue shard).
    pub workers: usize,
    /// Queue shards; admissions to different shards never contend.
    pub shards: usize,
    /// Per-shard admission capacity (beyond it: backpressure).
    pub queue_capacity: usize,
    /// Batch identical in-flight requests instead of enqueueing each.
    pub coalesce: bool,
    pub cache: CachePolicy,
    /// Exact-tier entries kept (LRU beyond this).
    pub exact_capacity: usize,
    /// Fit-tier entries kept (LRU beyond this).
    pub fit_capacity: usize,
    pub supervise: SupervisePolicy,
    /// Deterministic service-fault injection (chaos testing; defaults to
    /// no faults).
    pub faults: ServiceFaultSpec,
    /// Crash-safe cache snapshot policy (`None` = no persistence).
    pub snapshot: Option<SnapshotPolicy>,
    pub telemetry: Telemetry,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            workers: 4,
            shards: 2,
            queue_capacity: 64,
            coalesce: true,
            cache: CachePolicy::default(),
            exact_capacity: 256,
            fit_capacity: 64,
            supervise: SupervisePolicy::default(),
            faults: ServiceFaultSpec::none(),
            snapshot: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Why a submission (or a wait) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The target shard is at capacity; retry after the hint.
    Backpressure(Backpressure),
    /// The service is draining and accepts nothing new.
    ShuttingDown,
    /// The request was admitted but still queued when a graceful drain
    /// began; it was **rejected, not dropped** — clients can distinguish
    /// a drain (typed error, retry elsewhere after the hint) from a
    /// crash (connection death, no reply at all).
    Draining { retry_after_ms: u64 },
    /// The pipeline itself failed for this request.
    Pipeline(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backpressure(bp) => write!(
                f,
                "backpressure: shard depth {}, retry after {} ms",
                bp.depth, bp.retry_after_ms
            ),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::Draining { retry_after_ms } => write!(
                f,
                "service is draining; request rejected, retry after {retry_after_ms} ms"
            ),
            SubmitError::Pipeline(e) => write!(f, "pipeline error: {e}"),
        }
    }
}

/// The terminal state of one submitted request.
pub type TicketResult = Result<TuneResponse, SubmitError>;

type ResolveCallback = Box<dyn FnOnce(TicketResult) + Send + 'static>;

/// The resolution slot behind a [`Ticket`]. `Callback` is the
/// reactor-serving mode: instead of a thread parked in [`Ticket::wait`],
/// the resolving worker invokes the callback inline (after releasing the
/// slot lock), which hands the serialized reply to the readiness loop's
/// completion bus — no per-reply thread anywhere.
enum Slot {
    Pending,
    Ready(TicketResult),
    Callback(ResolveCallback),
    /// Result already consumed (waited on, or delivered to a callback).
    Done,
}

struct TicketInner {
    slot: RankedMutex<Slot, { rank::TICKET_SLOT }>,
    ready: RankedCondvar<{ rank::TICKET_SLOT }>,
}

impl std::fmt::Debug for TicketInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TicketInner").finish_non_exhaustive()
    }
}

impl TicketInner {
    fn new() -> Arc<TicketInner> {
        Arc::new(TicketInner {
            slot: RankedMutex::new(Slot::Pending),
            ready: RankedCondvar::new(),
        })
    }

    fn resolve(&self, result: TicketResult) {
        let mut slot = self.slot.lock();
        match std::mem::replace(&mut *slot, Slot::Done) {
            Slot::Pending => {
                *slot = Slot::Ready(result);
                drop(slot);
                self.ready.notify_all();
            }
            Slot::Callback(cb) => {
                // Invoke outside the lock: the callback may itself take
                // other locks (the reactor's completion bus).
                drop(slot);
                cb(result);
            }
            // Double resolution cannot happen (each job resolves its
            // ticket exactly once); keep the first result if it ever did.
            prior => *slot = prior,
        }
    }
}

/// A handle to one submitted request; blocks until the response is
/// computed (or the request failed).
#[derive(Debug)]
pub struct Ticket {
    inner: Arc<TicketInner>,
}

impl Ticket {
    /// Block until resolved.
    pub fn wait(self) -> TicketResult {
        let mut slot = self.inner.slot.lock();
        loop {
            if matches!(&*slot, Slot::Ready(_)) {
                match std::mem::replace(&mut *slot, Slot::Done) {
                    Slot::Ready(result) => return result,
                    // `matches!` above guarantees Ready; restore anything
                    // else and keep waiting rather than panic.
                    prior => *slot = prior,
                }
            }
            slot = self.inner.ready.wait(slot);
        }
    }

    /// Register `cb` to be invoked exactly once with the result, from
    /// whichever thread resolves the ticket (a worker, the drain path,
    /// or — when the result is already in — this one, inline before the
    /// call returns). This is the non-blocking alternative to [`wait`]:
    /// the readiness loop uses it to enqueue the serialized reply on the
    /// owning connection's outbound queue without parking any thread.
    ///
    /// [`wait`]: Ticket::wait
    pub fn on_resolve(self, cb: impl FnOnce(TicketResult) + Send + 'static) {
        let mut slot = self.inner.slot.lock();
        match std::mem::replace(&mut *slot, Slot::Done) {
            Slot::Pending => *slot = Slot::Callback(Box::new(cb)),
            Slot::Ready(result) => {
                drop(slot);
                cb(result);
            }
            prior => *slot = prior,
        }
    }
}

/// A follower attached to an in-flight leader: its ticket plus its
/// submission instant (for its own queue-wait accounting).
struct Follower {
    ticket: Arc<TicketInner>,
    submitted: Instant,
    /// The follower's own correlation id — replies must echo it, not
    /// the leader's, or a client can't match coalesced responses.
    id: u64,
}

/// An exact-tier entry: the payload plus its fingerprint taken at
/// publish time. Every read re-verifies; a mismatch (a poisoned or
/// corrupted entry) invalidates and recomputes — the cache can only
/// ever *delay* a response, never change its bytes.
#[derive(Debug, Clone)]
struct SealedPayload {
    payload: TunePayload,
    seal: String,
}

impl SealedPayload {
    fn new(payload: TunePayload) -> SealedPayload {
        let seal = payload.fingerprint();
        SealedPayload { payload, seal }
    }

    fn verified(&self) -> bool {
        self.payload.fingerprint() == self.seal
    }
}

struct Job {
    request: TuneRequest,
    ticket: Arc<TicketInner>,
    /// First admission — never reset, so a requeued or parked job's
    /// queue wait is everything up to the pop that finally serves it.
    enqueued: Instant,
    /// The queue shard it was admitted to and goes back to.
    shard: usize,
    /// Supervision attempt counter (0 on first admission).
    attempts: u32,
}

impl Job {
    fn rank(&self) -> Rank {
        Rank {
            priority: self.request.priority,
            deadline_ms: self.request.deadline_ms,
        }
    }
}

/// What the fit tier holds per fit key: steps 1–2 of the pipeline.
type FitArtifacts = (BenchmarkData, FitSet);

/// A leader's hold on its fit key, shared by the worker supervising the
/// job and the attempt thread computing it. Whichever lets go first
/// frees the key and puts the parked followers back in line; every exit
/// of the leader goes through [`FitLead::release`], so a follower never
/// outwaits its leader's watchdog.
struct FitLead {
    key: String,
    released: AtomicBool,
}

impl FitLead {
    /// Publish `artifacts` (when the fit produced any) and re-admit
    /// whoever parked behind this key. After the first call the key is
    /// no longer this leader's to free, so a later call without
    /// artifacts does nothing; a later call *with* them — an attempt
    /// abandoned as hung that finished after all — still publishes, and
    /// re-admits anyone parked behind a successor onto the now-cached
    /// key.
    fn release(&self, shared: &Shared, artifacts: Option<Arc<FitArtifacts>>) {
        // The flag only elects who frees the key; the registry and the
        // cache it guards are published by the desk's own mutex.
        let already = self.released.swap(true, Ordering::AcqRel);
        if already && artifacts.is_none() {
            return;
        }
        for job in shared.fits.complete(&self.key, artifacts) {
            let (shard, rank) = (job.shard, job.rank());
            if let Err(job) = shared.queue.push_back(shard, rank, job) {
                // The shard closed while the job was parked: it was
                // admitted but never started — the drain's own verdict.
                reject_draining(shared, job);
            }
        }
    }
}

/// How a popped job met the fit tier.
#[derive(Clone)]
enum FitRole {
    /// The artifacts are cached: replay them.
    Replay(Arc<FitArtifacts>),
    /// The key was free: gather, fit, publish.
    Lead(Arc<FitLead>),
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    coalesced: AtomicU64,
    errors: AtomicU64,
    tier_exact: AtomicU64,
    tier_fit: AtomicU64,
    tier_miss: AtomicU64,
    panics: AtomicU64,
    hangs: AtomicU64,
    requeues: AtomicU64,
    bypasses: AtomicU64,
    poison_detected: AtomicU64,
    snapshot_saves: AtomicU64,
    snapshot_errors: AtomicU64,
    drained: AtomicU64,
    /// Jobs parked behind another job's in-flight fit.
    fit_coalesced: AtomicU64,
}

/// Everything the workers, `submit` and the snapshot flush share.
///
/// What it holds that can grow, and what bounds each:
///
/// * `queue` — at most `queue_capacity` jobs per shard (beyond it:
///   backpressure), plus the parked jobs `push_back` re-admits, each of
///   which was admitted under that bound once;
/// * `front` — at most `exact_capacity` payloads (LRU) and one registry
///   entry per in-flight exact key, i.e. per queued or running job;
/// * `fits` — at most `fit_capacity` artifact sets (LRU) and one registry
///   entry per in-flight fit key.
///
/// Nothing else is keyed by anything a client chooses, so a server's
/// resident size follows from its options and not from how many distinct
/// questions it has been asked (`tests/memory.rs` measures it). A new
/// keyed map has to state its bound here.
struct Shared {
    workers: usize,
    shards: usize,
    queue: AdmissionQueue<Job>,
    front: FrontDesk<SealedPayload, Follower, { rank::FRONT_DESK }>,
    fits: FrontDesk<Arc<FitArtifacts>, Job, { rank::FIT_CACHE }>,
    /// Whether the fit tier can hold what a leader publishes. When it
    /// cannot, parking behind a leader would only serialize the fits.
    fit_tier: bool,
    coalesce: bool,
    supervise: SupervisePolicy,
    faults: ServiceFaultSpec,
    snapshot: Option<SnapshotPolicy>,
    since_flush: AtomicU64,
    recovery: RankedMutex<RecoveryRecord, { rank::SNAPSHOT_RECOVERY }>,
    accepting: AtomicBool,
    telemetry: Telemetry,
    stats: Counters,
}

/// A point-in-time view of the service's accounting.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    pub workers: usize,
    pub shards: usize,
    /// Every request `submit` accepted for accounting; each ends in
    /// exactly one of `completed`, `rejected` or `errors`.
    pub submitted: u64,
    pub completed: u64,
    /// Turned away unstarted: backpressure, a closed queue, or a drain
    /// that found the job still queued or parked.
    pub rejected: u64,
    /// Exact-key followers (requests that attached to an identical
    /// in-flight one).
    pub coalesced: u64,
    pub errors: u64,
    pub tier_exact: u64,
    pub tier_fit: u64,
    pub tier_miss: u64,
    pub queue_depth: usize,
    pub inflight: usize,
    pub ewma_service_ms: f64,
    pub exact_entries: usize,
    pub fit_entries: usize,
    /// Fit-level cache accounting: a hit replayed cached artifacts, a
    /// miss led its key's gather+fit, so `fit_hits + fit_misses` is the
    /// jobs that reached the tier and a cold sweep misses once per fit
    /// group.
    pub fit_hits: u64,
    pub fit_misses: u64,
    pub fit_evictions: u64,
    /// Jobs that parked behind an in-flight fit (each later counted as
    /// the hit, or the miss, of the lookup that served it).
    pub fit_coalesced: u64,
}

/// `hits / (hits + misses)`, or 0 when nothing was looked up.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

impl ServiceStats {
    /// JSON object for the wire protocol's `stats` op.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("workers".to_string(), Value::Num(self.workers as f64)),
            ("shards".to_string(), Value::Num(self.shards as f64)),
            ("submitted".to_string(), Value::Num(self.submitted as f64)),
            ("completed".to_string(), Value::Num(self.completed as f64)),
            ("rejected".to_string(), Value::Num(self.rejected as f64)),
            ("coalesced".to_string(), Value::Num(self.coalesced as f64)),
            ("errors".to_string(), Value::Num(self.errors as f64)),
            ("tier_exact".to_string(), Value::Num(self.tier_exact as f64)),
            ("tier_fit".to_string(), Value::Num(self.tier_fit as f64)),
            ("tier_miss".to_string(), Value::Num(self.tier_miss as f64)),
            (
                "queue_depth".to_string(),
                Value::Num(self.queue_depth as f64),
            ),
            ("inflight".to_string(), Value::Num(self.inflight as f64)),
            (
                "ewma_service_ms".to_string(),
                Value::Num(self.ewma_service_ms),
            ),
            (
                "exact_entries".to_string(),
                Value::Num(self.exact_entries as f64),
            ),
            (
                "fit_entries".to_string(),
                Value::Num(self.fit_entries as f64),
            ),
            (
                "fit_cache".to_string(),
                Value::Obj(vec![
                    ("hits".to_string(), Value::Num(self.fit_hits as f64)),
                    ("misses".to_string(), Value::Num(self.fit_misses as f64)),
                    (
                        "evictions".to_string(),
                        Value::Num(self.fit_evictions as f64),
                    ),
                    (
                        "coalesced".to_string(),
                        Value::Num(self.fit_coalesced as f64),
                    ),
                    (
                        "hit_rate".to_string(),
                        Value::Num(hit_rate(self.fit_hits, self.fit_misses)),
                    ),
                ]),
            ),
        ])
    }
}

/// Supervision and recovery accounting — the wire `health` op.
/// Kept separate from [`ServiceStats`] so the service-load report schema
/// stays stable.
#[derive(Debug, Clone)]
pub struct HealthStats {
    pub accepting: bool,
    pub panics: u64,
    pub hangs: u64,
    pub requeues: u64,
    pub bypasses: u64,
    pub poison_detected: u64,
    pub snapshot_saves: u64,
    pub snapshot_errors: u64,
    pub drained: u64,
    pub recovery: RecoveryRecord,
}

impl HealthStats {
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("accepting".to_string(), Value::Bool(self.accepting)),
            ("panics".to_string(), Value::Num(self.panics as f64)),
            ("hangs".to_string(), Value::Num(self.hangs as f64)),
            ("requeues".to_string(), Value::Num(self.requeues as f64)),
            ("bypasses".to_string(), Value::Num(self.bypasses as f64)),
            (
                "poison_detected".to_string(),
                Value::Num(self.poison_detected as f64),
            ),
            (
                "snapshot_saves".to_string(),
                Value::Num(self.snapshot_saves as f64),
            ),
            (
                "snapshot_errors".to_string(),
                Value::Num(self.snapshot_errors as f64),
            ),
            ("drained".to_string(), Value::Num(self.drained as f64)),
            ("recovery".to_string(), self.recovery.to_value()),
        ])
    }
}

/// The concurrent tuning service.
pub struct TuningService {
    shared: Arc<Shared>,
    workers: RankedMutex<Vec<JoinHandle<()>>, { rank::WORKER_HANDLES }>,
}

impl TuningService {
    /// Start the worker pool, restoring caches from the snapshot first
    /// when one is configured (restore never fails — see
    /// [`snapshot::load_snapshot`]).
    pub fn start(opts: ServiceOptions) -> TuningService {
        let workers = opts.workers.max(1);
        let shards = opts.shards.clamp(1, workers);
        if opts.faults.is_active() {
            quiet_attempt_panics();
        }
        let fit_capacity = if opts.cache.fit { opts.fit_capacity } else { 0 };
        let shared = Arc::new(Shared {
            workers,
            shards,
            queue: AdmissionQueue::new(shards, opts.queue_capacity),
            front: FrontDesk::new(if opts.cache.exact {
                opts.exact_capacity
            } else {
                0
            }),
            fits: FrontDesk::new(fit_capacity),
            fit_tier: fit_capacity > 0,
            coalesce: opts.coalesce,
            supervise: opts.supervise,
            faults: opts.faults,
            snapshot: opts.snapshot,
            since_flush: AtomicU64::new(0),
            recovery: RankedMutex::new(RecoveryRecord::default()),
            accepting: AtomicBool::new(true),
            telemetry: opts.telemetry,
            stats: Counters::default(),
        });
        if let Some(policy) = shared.snapshot.clone() {
            let restored = snapshot::load_snapshot(&policy.path);
            shared.front.restore_cached(
                restored
                    .exact
                    .into_iter()
                    .map(|(k, p)| (k, SealedPayload::new(p)))
                    .collect(),
            );
            shared.fits.restore_cached(
                restored
                    .fits
                    .into_iter()
                    .map(|(k, artifacts)| (k, Arc::new(artifacts)))
                    .collect(),
            );
            shared.telemetry.point(
                "service.recovery",
                &[
                    ("restored_exact", restored.record.restored_exact as f64),
                    ("restored_fits", restored.record.restored_fits as f64),
                    ("load_ms", restored.record.load_ms),
                ],
                &[(
                    "cold_start",
                    if restored.record.cold_start {
                        "true"
                    } else {
                        "false"
                    },
                )],
            );
            let mut recovery = shared.recovery.lock();
            *recovery = restored.record;
        }
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let shard = i % shards;
                std::thread::Builder::new()
                    .name(format!("hslb-worker-{i}"))
                    .spawn(move || worker_loop(&shared, shard))
                    .unwrap_or_else(|e| panic!("spawn worker {i}: {e}"))
            })
            .collect();
        TuningService {
            shared,
            workers: RankedMutex::new(handles),
        }
    }

    /// Submit one request. Returns immediately with a [`Ticket`] (or a
    /// rejection); the response is computed by the worker pool.
    pub fn submit(&self, request: TuneRequest) -> Result<Ticket, SubmitError> {
        let shared = &self.shared;
        if !shared.accepting.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        shared.telemetry.counter_add("service.submitted", 1);
        let key = request.exact_key();
        let now = Instant::now();
        let ticket = TicketInner::new();
        let mut follower = Follower {
            ticket: Arc::clone(&ticket),
            submitted: now,
            id: request.id,
        };

        // One atomic admission decision: cached, coalesced, or lead. A
        // cached hit that fails seal verification is invalidated and the
        // admission retried (the loop terminates: the poisoned entry is
        // gone on the next pass).
        loop {
            match shared.front.admit(&key, follower, shared.coalesce) {
                AdmitOutcome::Cached(sealed, handle) => {
                    if !sealed.verified() {
                        record_poison(shared);
                        shared.front.invalidate(&key);
                        follower = handle;
                        continue;
                    }
                    record_completion(shared, CacheTier::Exact, false, 0.0, 0.0, 1);
                    handle.ticket.resolve(Ok(TuneResponse {
                        id: request.id,
                        payload: sealed.payload,
                        tier: CacheTier::Exact,
                        coalesced: false,
                        queue_wait_ms: 0.0,
                        service_ms: 0.0,
                    }));
                }
                AdmitOutcome::Followed => {
                    shared.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                    shared.telemetry.counter_add("service.coalesced", 1);
                }
                AdmitOutcome::Lead(follower) => {
                    // Enqueue, rolling the registration back on reject so
                    // no follower is left waiting on a leader that never
                    // ran.
                    let shard = shard_of(&key, shared.queue.shard_count());
                    let job = Job {
                        request,
                        ticket: follower.ticket,
                        enqueued: now,
                        shard,
                        attempts: 0,
                    };
                    if let Err(err) = shared.queue.push(shard, job.rank(), job) {
                        for orphan in shared.front.abandon(&key) {
                            orphan.ticket.resolve(Err(push_error(shared, err)));
                        }
                        return Err(push_error(shared, err));
                    }
                }
            }
            break;
        }
        Ok(Ticket { inner: ticket })
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> ServiceStats {
        let shared = &self.shared;
        let (exact_entries, inflight) = shared.front.depths();
        let (fit_entries, _) = shared.fits.depths();
        let fit = shared.fits.counters();
        ServiceStats {
            workers: shared.workers,
            shards: shared.shards,
            submitted: shared.stats.submitted.load(Ordering::Relaxed),
            completed: shared.stats.completed.load(Ordering::Relaxed),
            rejected: shared.stats.rejected.load(Ordering::Relaxed),
            coalesced: shared.stats.coalesced.load(Ordering::Relaxed),
            errors: shared.stats.errors.load(Ordering::Relaxed),
            tier_exact: shared.stats.tier_exact.load(Ordering::Relaxed),
            tier_fit: shared.stats.tier_fit.load(Ordering::Relaxed),
            tier_miss: shared.stats.tier_miss.load(Ordering::Relaxed),
            queue_depth: shared.queue.depth(),
            inflight,
            ewma_service_ms: shared.queue.ewma_service_ms(),
            exact_entries,
            fit_entries,
            fit_hits: fit.hits,
            fit_misses: fit.misses,
            fit_evictions: fit.evictions,
            fit_coalesced: shared.stats.fit_coalesced.load(Ordering::Relaxed),
        }
    }

    /// Supervision/recovery accounting (the wire `health` op).
    pub fn health(&self) -> HealthStats {
        let shared = &self.shared;
        let recovery = shared.recovery.lock().clone();
        HealthStats {
            accepting: shared.accepting.load(Ordering::Acquire),
            panics: shared.stats.panics.load(Ordering::Relaxed),
            hangs: shared.stats.hangs.load(Ordering::Relaxed),
            requeues: shared.stats.requeues.load(Ordering::Relaxed),
            bypasses: shared.stats.bypasses.load(Ordering::Relaxed),
            poison_detected: shared.stats.poison_detected.load(Ordering::Relaxed),
            snapshot_saves: shared.stats.snapshot_saves.load(Ordering::Relaxed),
            snapshot_errors: shared.stats.snapshot_errors.load(Ordering::Relaxed),
            drained: shared.stats.drained.load(Ordering::Relaxed),
            recovery,
        }
    }

    /// Flush both cache tiers to the configured snapshot now. `None`
    /// when no snapshot is configured or the write failed (failures are
    /// counted in [`HealthStats::snapshot_errors`], never raised — a
    /// full disk must not take down serving).
    pub fn flush_snapshot(&self) -> Option<SnapshotStats> {
        flush_snapshot(&self.shared)
    }

    /// Graceful drain (DESIGN.md §13): stop admissions, **reject** every
    /// queued-but-unstarted request with an explicit
    /// [`SubmitError::Draining`] (so clients can tell a drain from a
    /// crash and retry elsewhere), let in-flight requests finish, join
    /// the workers, then flush a final cache snapshot. Every outstanding
    /// [`Ticket`] resolves before this returns.
    pub fn shutdown(&self) {
        let shared = &self.shared;
        shared.accepting.store(false, Ordering::Release);
        for job in shared.queue.close_now() {
            reject_draining(shared, job);
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut workers = self.workers.lock();
            workers.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        flush_snapshot(shared);
    }
}

impl Drop for TuningService {
    fn drop(&mut self) {
        // Un-joined workers must still observe the close and exit. They
        // compute whatever is still queued first — Drop without
        // `shutdown` rejects nothing that sits in the queue; only a job
        // parked behind a fit that outlives the close comes back
        // `Draining`.
        self.shared.accepting.store(false, Ordering::Release);
        self.shared.queue.close();
    }
}

/// Suppress the default panic printout for injected attempt panics —
/// they are a *normal* event under chaos testing and would flood stderr
/// with backtraces. Real panics are still surfaced: `catch_unwind`
/// converts them into typed supervision outcomes and counters. Installed
/// once per process, only when fault injection is active.
fn quiet_attempt_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_attempt = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("hslb-attempt-"));
            if !in_attempt {
                default_hook(info);
            }
        }));
    });
}

/// Resolve a job that was admitted but will not be started — still
/// queued, or parked behind another job's fit, when the drain closed its
/// shard — with the typed `Draining` error, and with it every identical
/// request that attached to it on the exact tier: rejected, never
/// dropped.
fn reject_draining(shared: &Shared, job: Job) {
    let retry_after_ms = (shared.queue.ewma_service_ms().round() as u64).max(1);
    let followers = shared.front.abandon(&job.request.exact_key());
    let tickets = followers.iter().map(|f| &f.ticket).chain([&job.ticket]);
    for ticket in tickets {
        shared.stats.drained.fetch_add(1, Ordering::Relaxed);
        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
        shared.telemetry.counter_add("service.drained", 1);
        ticket.resolve(Err(SubmitError::Draining { retry_after_ms }));
    }
}

fn push_error(shared: &Shared, err: PushError) -> SubmitError {
    shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
    shared.telemetry.counter_add("service.rejected", 1);
    match err {
        PushError::Backpressure(bp) => SubmitError::Backpressure(bp),
        PushError::Closed => SubmitError::ShuttingDown,
    }
}

/// Stable FNV-1a shard assignment, so a key always lands on the same
/// shard (keeps identical requests behind one worker's FIFO when they
/// are not coalesced).
fn shard_of(key: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

fn record_poison(shared: &Shared) {
    shared.stats.poison_detected.fetch_add(1, Ordering::Relaxed);
    shared.telemetry.counter_add("service.poison_detected", 1);
}

fn record_completion(
    shared: &Shared,
    tier: CacheTier,
    coalesced: bool,
    queue_wait_ms: f64,
    service_ms: f64,
    batch: usize,
) {
    shared.stats.completed.fetch_add(1, Ordering::Relaxed);
    let counter = match tier {
        CacheTier::Exact => &shared.stats.tier_exact,
        CacheTier::Fit => &shared.stats.tier_fit,
        CacheTier::Miss => &shared.stats.tier_miss,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    if shared.telemetry.is_enabled() {
        shared.telemetry.counter_add("service.completed", 1);
        shared
            .telemetry
            .counter_add(&format!("service.tier.{}", tier.token()), 1);
        shared.telemetry.point(
            "service.request",
            &[
                ("queue_wait_ms", queue_wait_ms),
                ("service_ms", service_ms),
                ("batch", batch as f64),
            ],
            &[
                ("tier", tier.token()),
                ("coalesced", if coalesced { "true" } else { "false" }),
            ],
        );
    }
    maybe_flush_snapshot(shared);
}

fn maybe_flush_snapshot(shared: &Shared) {
    let Some(policy) = &shared.snapshot else {
        return;
    };
    if policy.every_completions == 0 {
        return;
    }
    let n = shared.since_flush.fetch_add(1, Ordering::Relaxed) + 1;
    if n >= policy.every_completions {
        shared.since_flush.store(0, Ordering::Relaxed);
        flush_snapshot(shared);
    }
}

fn flush_snapshot(shared: &Shared) -> Option<SnapshotStats> {
    let policy = shared.snapshot.as_ref()?;
    // Only seal-verified entries are persisted: a poisoned entry must
    // not be laundered into a valid snapshot by re-fingerprinting it.
    let exact: Vec<(String, TunePayload)> = shared
        .front
        .export_cached()
        .into_iter()
        .filter(|(_, sealed)| sealed.verified())
        .map(|(k, sealed)| (k, sealed.payload))
        .collect();
    let fit_entries: Vec<(String, FitArtifacts)> = shared
        .fits
        .export_cached()
        .into_iter()
        .map(|(k, artifacts)| (k, FitArtifacts::clone(&artifacts)))
        .collect();
    match snapshot::save_snapshot(&policy.path, &exact, &fit_entries) {
        Ok(stats) => {
            shared.stats.snapshot_saves.fetch_add(1, Ordering::Relaxed);
            shared.telemetry.point(
                "service.snapshot",
                &[
                    ("exact_entries", stats.exact_entries as f64),
                    ("fit_entries", stats.fit_entries as f64),
                    ("bytes", stats.bytes as f64),
                    ("save_ms", stats.save_ms),
                ],
                &[],
            );
            Some(stats)
        }
        Err(e) => {
            shared.stats.snapshot_errors.fetch_add(1, Ordering::Relaxed);
            shared.telemetry.counter_add("service.snapshot_errors", 1);
            shared
                .telemetry
                .point("service.snapshot_error", &[], &[("error", e.as_str())]);
            None
        }
    }
}

fn watchdog_for(shared: &Shared, request: &TuneRequest) -> Duration {
    let ms = request
        .deadline_ms
        .unwrap_or(shared.supervise.watchdog_default_ms)
        .max(shared.supervise.watchdog_floor_ms);
    Duration::from_millis(ms)
}

/// What a supervised attempt came back with.
enum AttemptOutcome {
    Done(Result<(TunePayload, CacheTier), String>),
    Panicked(String),
    Hung,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Run `f` on its own named thread behind `catch_unwind` and a watchdog.
/// A panic is contained; an attempt that outlives `watchdog` is
/// abandoned (the detached thread finishes or exits on its own — any
/// late cache inserts it makes are bit-identical, hence harmless) and
/// reported as hung. An attempt that reported back is joined before the
/// worker moves on, so a worker never has two attempt threads alive:
/// the next attempt reuses this one's stack and allocator arena instead
/// of racing its exit for a fresh pair (10 arenas where 15 accumulated
/// over a run of sweeps, ~1 MB of resident memory).
fn supervised_attempt<F>(label: String, watchdog: Duration, f: F) -> AttemptOutcome
where
    F: FnOnce() -> Result<(TunePayload, CacheTier), String> + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let spawned = std::thread::Builder::new().name(label).spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(f));
        // A hung attempt's late send lands in a dropped receiver: ignored.
        let _ = tx.send(result);
    });
    let Ok(attempt) = spawned else {
        return AttemptOutcome::Panicked("could not spawn attempt thread".to_string());
    };
    let reported = rx.recv_timeout(watchdog);
    if !matches!(reported, Err(mpsc::RecvTimeoutError::Timeout)) {
        // The thread has sent its result (or died trying) and is on its
        // way out; the payload of a panic was already caught and sent.
        let _ = attempt.join();
    }
    match reported {
        Ok(Ok(result)) => AttemptOutcome::Done(result),
        Ok(Err(panic_payload)) => AttemptOutcome::Panicked(panic_message(panic_payload.as_ref())),
        Err(mpsc::RecvTimeoutError::Timeout) => AttemptOutcome::Hung,
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            AttemptOutcome::Panicked("attempt thread died without a result".to_string())
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, shard: usize) {
    while let Some(job) = shared.queue.pop(shard) {
        process_job(shared, job);
    }
}

/// Serve one popped job. Before an attempt thread or a watchdog is
/// spent, the job meets the cache tiers: an exact-tier hit answers it on
/// the spot; then its fit key is either cached (replay), free (lead), or
/// in flight on another worker — in which case the job is **parked on
/// the fit desk's registry and this worker pops its next job** (a worker
/// that waited could not start another key's fit). What runs is
/// supervised: one attempt behind `catch_unwind` + the watchdog;
/// panic/hang requeues (bounded), then the bypass rung; only a typed
/// pipeline error (deterministic — retrying cannot help) or an exhausted
/// ladder reaches the requester as an error.
fn process_job(shared: &Arc<Shared>, job: Job) {
    let popped = Instant::now();
    let queue_wait_ms = popped.duration_since(job.enqueued).as_secs_f64() * 1e3;

    // Re-check the exact tier: with coalescing off, an identical request
    // may have completed while this one sat in the queue. (With the
    // exact tier off the front desk's capacity is 0 and this is `None`.)
    let exact_key = job.request.exact_key();
    if let Some(sealed) = shared.front.cached(&exact_key) {
        if sealed.verified() {
            let hit = Ok((sealed.payload, CacheTier::Exact));
            finish_job(shared, job, hit, queue_wait_ms, popped);
            return;
        }
        record_poison(shared);
        shared.front.invalidate(&exact_key);
    }

    let fit_key = job.request.fit_key();
    let (job, role) = match shared.fits.admit(&fit_key, job, shared.fit_tier) {
        AdmitOutcome::Cached(artifacts, job) => (job, FitRole::Replay(artifacts)),
        AdmitOutcome::Lead(job) => {
            let lead = FitLead {
                key: fit_key,
                released: AtomicBool::new(false),
            };
            (job, FitRole::Lead(Arc::new(lead)))
        }
        AdmitOutcome::Followed => {
            // Parked: the leader's release puts the job back on its
            // shard, where the pop that serves it finds the artifacts
            // cached (or, if the leader published none, the key free).
            shared.stats.fit_coalesced.fetch_add(1, Ordering::Relaxed);
            shared.telemetry.counter_add("service.fit_coalesced", 1);
            return;
        }
    };

    let watchdog = watchdog_for(shared, &job.request);
    let attempt = job.attempts;
    let outcome = {
        let shared_attempt = Arc::clone(shared);
        let request = job.request.clone();
        let role = role.clone();
        supervised_attempt(
            format!("hslb-attempt-{}-{attempt}", request.id),
            watchdog,
            move || {
                shared_attempt
                    .faults
                    .inject_worker(request.id, attempt, watchdog);
                compute(&shared_attempt, &request, role)
            },
        )
    };
    // However the attempt ended — answered, errored, panicked, abandoned
    // as hung — a leader lets go of its key here, before any requeue or
    // bypass: nothing below publishes to the fit tier. (A no-op when the
    // attempt already published.)
    if let FitRole::Lead(lead) = &role {
        lead.release(shared, None);
    }
    match outcome {
        AttemptOutcome::Done(result) => {
            finish_job(
                shared,
                job,
                result.map_err(SubmitError::Pipeline),
                queue_wait_ms,
                popped,
            );
        }
        AttemptOutcome::Panicked(msg) => {
            shared.stats.panics.fetch_add(1, Ordering::Relaxed);
            shared.telemetry.counter_add("service.panics", 1);
            retry_or_bypass(
                shared,
                job,
                queue_wait_ms,
                popped,
                format!("worker attempt {attempt} panicked: {msg}"),
            );
        }
        AttemptOutcome::Hung => {
            shared.stats.hangs.fetch_add(1, Ordering::Relaxed);
            shared.telemetry.counter_add("service.hangs", 1);
            retry_or_bypass(
                shared,
                job,
                queue_wait_ms,
                popped,
                format!(
                    "worker attempt {attempt} hung past the {} ms watchdog",
                    watchdog.as_millis()
                ),
            );
        }
    }
}

fn retry_or_bypass(
    shared: &Arc<Shared>,
    mut job: Job,
    queue_wait_ms: f64,
    popped: Instant,
    why: String,
) {
    if job.attempts < shared.supervise.max_requeues {
        job.attempts += 1;
        shared.stats.requeues.fetch_add(1, Ordering::Relaxed);
        shared.telemetry.counter_add("service.requeues", 1);
        match shared.queue.push_back(job.shard, job.rank(), job) {
            Ok(()) => return,
            // Drain under way: the shard refused the requeue. The job was
            // started before the drain, so it still deserves an answer —
            // fall through to the bypass rung instead of dropping it.
            Err(returned) => job = returned,
        }
    }
    // Terminal service-level rung: one supervised, fault-injection-free,
    // cache-bypass reference run. Bit-identity is free here — the
    // reference *is* the one-shot pipeline.
    shared.stats.bypasses.fetch_add(1, Ordering::Relaxed);
    shared.telemetry.counter_add("service.bypasses", 1);
    let watchdog = watchdog_for(shared, &job.request);
    let request = job.request.clone();
    let outcome = supervised_attempt(
        format!("hslb-attempt-{}-bypass", request.id),
        watchdog,
        move || reference_response(&request).map(|p| (p, CacheTier::Miss)),
    );
    let result = match outcome {
        AttemptOutcome::Done(result) => result.map_err(SubmitError::Pipeline),
        AttemptOutcome::Panicked(msg) => Err(SubmitError::Pipeline(format!(
            "{why}; bypass rung panicked: {msg}"
        ))),
        AttemptOutcome::Hung => Err(SubmitError::Pipeline(format!(
            "{why}; bypass rung hung past the watchdog"
        ))),
    };
    finish_job(shared, job, result, queue_wait_ms, popped);
}

/// Publish the outcome and resolve the leader plus every follower.
fn finish_job(
    shared: &Shared,
    job: Job,
    outcome: Result<(TunePayload, CacheTier), SubmitError>,
    queue_wait_ms: f64,
    popped: Instant,
) {
    let key = job.request.exact_key();
    let service_ms = popped.elapsed().as_secs_f64() * 1e3;
    shared.queue.record_service_ms(service_ms);
    // Publish to the exact tier and collect followers in one step
    // (errors publish nothing, so a later duplicate recomputes). The
    // requester always receives the clean payload; an injected cache
    // poisoning corrupts only the *published copy*, with the original
    // seal kept so verification must catch it on the next read.
    let published = outcome.as_ref().ok().map(|(payload, _)| {
        if shared.faults.poisons_cache(job.request.id) {
            let mut corrupted = payload.clone();
            corrupted.actual_total = shared
                .faults
                .poison_value(payload.actual_total, job.request.id);
            SealedPayload {
                payload: corrupted,
                seal: payload.fingerprint(),
            }
        } else {
            SealedPayload::new(payload.clone())
        }
    });
    let followers = shared.front.complete(&key, published);
    match outcome {
        Ok((payload, tier)) => {
            record_completion(
                shared,
                tier,
                false,
                queue_wait_ms,
                service_ms,
                1 + followers.len(),
            );
            for follower in &followers {
                // Followers waited on the leader the whole time; the
                // computation itself was shared, so their own service
                // span is zero.
                record_completion(shared, tier, true, 0.0, 0.0, 0);
                follower.ticket.resolve(Ok(TuneResponse {
                    id: follower.id,
                    payload: payload.clone(),
                    tier,
                    coalesced: true,
                    queue_wait_ms: follower.submitted.elapsed().as_secs_f64() * 1e3,
                    service_ms: 0.0,
                }));
            }
            job.ticket.resolve(Ok(TuneResponse {
                id: job.request.id,
                payload,
                tier,
                coalesced: false,
                queue_wait_ms,
                service_ms,
            }));
        }
        Err(err) => {
            // One per ticket, like `completed`: every submitted request
            // ends in exactly one of completed / rejected / errors.
            let failed = 1 + followers.len() as u64;
            shared.stats.errors.fetch_add(failed, Ordering::Relaxed);
            shared.telemetry.counter_add("service.errors", failed);
            for follower in &followers {
                follower.ticket.resolve(Err(err.clone()));
            }
            job.ticket.resolve(Err(err));
        }
    }
}

/// Run the pipeline for one request from its fit-tier role. A leader
/// pays steps 1–2 once for everyone who asks about its machine
/// configuration and publishes the artifacts the moment they exist, so
/// the jobs parked behind it replay while it is still solving; after
/// that leader and replayer are the same code: solve and execute over
/// `GatherPlan::Reuse` + `curve_override`.
fn compute(
    shared: &Shared,
    request: &TuneRequest,
    role: FitRole,
) -> Result<(TunePayload, CacheTier), String> {
    let sim = simulator_for(request);
    let mut opts = build_options(request);
    let (artifacts, tier) = match role {
        FitRole::Replay(artifacts) => (Some(artifacts), CacheTier::Fit),
        FitRole::Lead(lead) => {
            let pipeline = Hslb::new(&sim, opts.clone());
            let data = pipeline.gather();
            // A fit that fails has no curves to share: the key is freed
            // and the run below is the plain one-shot pipeline, whose own
            // fit fails the same way and lands on the fit-free rung.
            let fitted = pipeline.fit(&data).ok().map(|fits| Arc::new((data, fits)));
            lead.release(shared, fitted.clone());
            (fitted, CacheTier::Miss)
        }
    };
    // Both artifacts are pure functions of the fit key, so this is
    // bit-identical to gathering and fitting afresh.
    if let Some(artifacts) = artifacts {
        let (data, fits) = FitArtifacts::clone(&artifacts);
        opts.gather = GatherPlan::Reuse(data);
        opts.curve_override = Some(fits);
    }
    let report = Hslb::new(&sim, opts).run(None).map_err(|e| e.to_string())?;

    // Publication to the exact tier happens in `finish_job` via
    // `FrontDesk::complete`, atomically with follower collection.
    Ok((TunePayload::from_report(&report), tier))
}

/// The pipeline options for a request — shared by the service workers
/// and the serial reference so both run the identical configuration.
fn build_options(request: &TuneRequest) -> HslbOptions {
    let mut opts = HslbOptions::new(request.target_nodes);
    opts.layout = request.layout;
    opts.objective = request.objective;
    // The service benchmarks the whole machine, not just this request's
    // budget, so gathered data and fitted curves are shared across every
    // node budget (see `request::service_gather_plan`). The serial
    // reference uses the same plan, so bit-identity is preserved.
    opts.gather = crate::request::service_gather_plan();
    opts
}

/// The simulator for a request's machine configuration (the paper's
/// Intrepid, default noise, request-chosen seed).
fn simulator_for(request: &TuneRequest) -> Simulator {
    let config = match (request.resolution, request.ocean_constrained) {
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
        request.seed,
    )
}

/// The determinism baseline: run the one-shot pipeline for this request
/// alone — fresh simulator, no caches — and project the payload. Every
/// service response must be bit-identical to this.
pub fn reference_response(request: &TuneRequest) -> Result<TunePayload, String> {
    let sim = simulator_for(request);
    let report = Hslb::new(&sim, build_options(request))
        .run(None)
        .map_err(|e| e.to_string())?;
    Ok(TunePayload::from_report(&report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for shards in 1..=8 {
            let a = shard_of("1deg|hybrid|min-max|n96|oceantrue|seed42", shards);
            let b = shard_of("1deg|hybrid|min-max|n96|oceantrue|seed42", shards);
            assert_eq!(a, b);
            assert!(a < shards);
        }
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let service = TuningService::start(ServiceOptions {
            workers: 1,
            shards: 1,
            ..ServiceOptions::default()
        });
        service.shutdown();
        let err = service
            .submit(TuneRequest::new(1, Resolution::OneDegree, 64))
            .unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
    }

    #[test]
    fn tiny_queue_backpressure_carries_retry_hint() {
        // One worker, capacity 1: the first request occupies the worker,
        // the second fills the queue, the third must be rejected.
        let service = TuningService::start(ServiceOptions {
            workers: 1,
            shards: 1,
            queue_capacity: 1,
            coalesce: false,
            cache: CachePolicy::disabled(),
            ..ServiceOptions::default()
        });
        let mut tickets = Vec::new();
        let mut rejections = 0;
        // Distinct budgets so nothing coalesces or caches.
        for (i, nodes) in [64, 96, 128, 192, 256, 48, 80, 112].iter().enumerate() {
            match service.submit(TuneRequest::new(i as u64, Resolution::OneDegree, *nodes)) {
                Ok(t) => tickets.push(t),
                Err(SubmitError::Backpressure(bp)) => {
                    assert!(bp.retry_after_ms >= 1);
                    assert!(bp.depth >= 1);
                    rejections += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(rejections > 0, "tiny queue must reject under burst");
        for t in tickets {
            t.wait().expect("admitted requests complete");
        }
        service.shutdown();
        assert_eq!(service.stats().rejected, rejections);
    }

    #[test]
    fn injected_panics_are_absorbed_and_answers_stay_bit_identical() {
        // Panic on every regular attempt: the supervisor must requeue,
        // exhaust the ladder, and still answer correctly via the
        // fault-free bypass rung — never kill a worker, never return
        // wrong bytes.
        let service = TuningService::start(ServiceOptions {
            workers: 2,
            shards: 1,
            faults: ServiceFaultSpec {
                panic_rate: 1.0,
                seed: 9,
                ..ServiceFaultSpec::none()
            },
            ..ServiceOptions::default()
        });
        let request = TuneRequest::new(1, Resolution::OneDegree, 96);
        let reference = reference_response(&request).expect("reference");
        let response = service
            .submit(request)
            .expect("submit")
            .wait()
            .expect("bypass rung must still answer");
        assert_eq!(response.payload.fingerprint(), reference.fingerprint());
        let health = service.health();
        assert!(health.panics >= 1, "panics must be counted");
        assert!(health.bypasses >= 1, "ladder must end in the bypass rung");
        service.shutdown();
    }

    #[test]
    fn poisoned_cache_entries_are_detected_and_recomputed() {
        // Poison every published entry: the first response is clean (the
        // requester gets the computed payload, only the cached copy is
        // corrupted), and the duplicate must detect the bad seal and
        // recompute instead of serving garbage.
        let service = TuningService::start(ServiceOptions {
            workers: 1,
            shards: 1,
            faults: ServiceFaultSpec {
                poison_rate: 1.0,
                seed: 3,
                ..ServiceFaultSpec::none()
            },
            ..ServiceOptions::default()
        });
        let request = TuneRequest::new(7, Resolution::OneDegree, 96);
        let reference = reference_response(&request).expect("reference");
        let first = service
            .submit(request.clone())
            .expect("submit")
            .wait()
            .expect("first");
        assert_eq!(first.payload.fingerprint(), reference.fingerprint());
        let second = service
            .submit(TuneRequest { id: 8, ..request })
            .expect("submit dup")
            .wait()
            .expect("second");
        assert_eq!(
            second.payload.fingerprint(),
            reference.fingerprint(),
            "a poisoned entry must be recomputed, not served"
        );
        let health = service.health();
        assert!(
            health.poison_detected >= 1,
            "seal verification must fire: {health:?}"
        );
        service.shutdown();
    }

    #[test]
    fn shutdown_rejects_queued_work_with_draining_not_silence() {
        let service = TuningService::start(ServiceOptions {
            workers: 1,
            shards: 1,
            coalesce: false,
            cache: CachePolicy::disabled(),
            ..ServiceOptions::default()
        });
        // Enough distinct requests that some are still queued when the
        // drain begins.
        let tickets: Vec<Ticket> = [64, 96, 128, 192, 256, 48]
            .iter()
            .enumerate()
            .filter_map(|(i, nodes)| {
                service
                    .submit(TuneRequest::new(i as u64, Resolution::OneDegree, *nodes))
                    .ok()
            })
            .collect();
        service.shutdown();
        let mut drained = 0;
        for t in tickets {
            match t.wait() {
                Ok(_) => {}
                Err(SubmitError::Draining { retry_after_ms }) => {
                    assert!(retry_after_ms >= 1, "drain rejection carries a retry hint");
                    drained += 1;
                }
                Err(other) => panic!("queued work must resolve Ok or Draining, got {other}"),
            }
        }
        assert_eq!(service.health().drained, drained);
    }
}
