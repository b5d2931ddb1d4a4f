//! Robustness gate (ISSUE 6 acceptance): the supervised service under
//! injected faults, crash-safe snapshots under corruption, and restart
//! recovery — the service-layer mirror of `tests/degradation.rs`.
//!
//! The bar everywhere: a completed response is **bit-identical** to the
//! one-shot pipeline (`reference_response`) or an explicit typed error —
//! never a wrong answer, never a dead process. A snapshot restore either
//! reproduces cached responses bit for bit or degrades to a clean cold
//! start with the reasons on the health record.

use hslb_cesm::{layout::ComponentTimes, Allocation};
use hslb_service::loadmix::{self, force_deadlines, MixSpec};
use hslb_service::request::TunePayload;
use hslb_service::service::TicketResult;
use hslb_service::snapshot::{load_snapshot, save_snapshot};
use hslb_service::{
    reference_response, CacheTier, ServiceFaultSpec, ServiceOptions, SnapshotPolicy, SubmitError,
    Ticket, TuneRequest, TuneResponse, TuningService, WorkerFault,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Any `f64` bit pattern — negative, subnormal, huge, NaN, ±inf. The
/// snapshot codec stores floats as hex bits, so even non-finite values
/// must survive bit-exactly.
fn any_f64_bits() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX).prop_map(f64::from_bits)
}

fn any_opt_f64() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![Just(None), any_f64_bits().prop_map(Some)]
}

fn any_bool() -> impl Strategy<Value = bool> {
    prop_oneof![Just(false), Just(true)]
}

fn any_opt_bool() -> impl Strategy<Value = Option<bool>> {
    prop_oneof![Just(None), Just(Some(false)), Just(Some(true))]
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "hslb-robustness-{tag}-{}.snapshot.json",
        std::process::id()
    ))
}

/// Serial references computed once per distinct exact key.
fn references(requests: &[TuneRequest]) -> BTreeMap<String, String> {
    let mut refs = BTreeMap::new();
    for req in requests {
        refs.entry(req.exact_key()).or_insert_with(|| {
            reference_response(req)
                .unwrap_or_else(|e| panic!("reference for {}: {e}", req.exact_key()))
                .fingerprint()
        });
    }
    refs
}

/// ISSUE 6 acceptance gate: under ~30% injected service faults (worker
/// panics, hangs, slow shards, poisoned cache entries), every request
/// terminates, every completed response is bit-identical to the one-shot
/// pipeline, and the process survives to serve the next request.
#[test]
fn thirty_percent_service_faults_never_produce_a_wrong_answer() {
    let mut mix = loadmix::generate(&MixSpec::chaos());
    // Short uniform deadlines keep the hung-worker watchdog tight, so
    // injected hangs resolve in about a second instead of minutes.
    force_deadlines(&mut mix, 900);
    let refs = references(&mix);

    let opts = ServiceOptions {
        workers: 4,
        queue_capacity: 64, // admit the whole storm: faults, not backpressure
        faults: ServiceFaultSpec::chaos(5, 0.3),
        ..ServiceOptions::default()
    };
    let service = TuningService::start(opts);

    let tickets: Vec<_> = mix
        .iter()
        .map(|req| {
            (
                req.exact_key(),
                service.submit(req.clone()).expect("mix fits the queue"),
            )
        })
        .collect();
    let mut completed = 0usize;
    let mut typed_errors = 0usize;
    for (key, ticket) in tickets {
        match ticket.wait() {
            Ok(resp) => {
                completed += 1;
                assert_eq!(
                    resp.payload.fingerprint(),
                    refs[&key],
                    "response for {key} diverged from the one-shot pipeline under faults"
                );
            }
            Err(e) => {
                // Typed, displayable error — acceptable terminal outcome.
                typed_errors += 1;
                assert!(!e.to_string().is_empty());
            }
        }
    }
    assert_eq!(
        completed + typed_errors,
        mix.len(),
        "every request terminates"
    );
    assert!(
        completed > 0,
        "the supervision ladder must rescue at least some requests"
    );

    // The storm must actually have stressed the supervisor...
    let health = service.health();
    assert!(
        health.panics + health.hangs + health.poison_detected > 0,
        "chaos spec injected nothing: {health:?}"
    );
    // ...and the service must still be alive afterwards. The bypass rung
    // runs fault-free, so a fresh request always completes.
    let mut probe = TuneRequest::new(9_999, hslb_cesm::Resolution::OneDegree, 96);
    probe.deadline_ms = Some(900);
    let resp = service
        .submit(probe.clone())
        .expect("service accepts after the storm")
        .wait()
        .expect("service serves after the storm");
    assert_eq!(
        resp.payload.fingerprint(),
        reference_response(&probe).expect("reference").fingerprint()
    );
    service.shutdown();
}

/// Every attempt hangs: the watchdog must reap each one at its deadline,
/// burn the requeue budget, and land on the fault-free bypass rung with
/// a bit-identical answer — in round-trip time, not minutes.
#[test]
fn hung_workers_are_reaped_and_the_bypass_rung_answers() {
    let opts = ServiceOptions {
        workers: 2,
        faults: ServiceFaultSpec {
            seed: 1,
            hang_rate: 1.0,
            ..ServiceFaultSpec::none()
        },
        ..ServiceOptions::default()
    };
    let service = TuningService::start(opts);
    let mut req = TuneRequest::new(1, hslb_cesm::Resolution::OneDegree, 96);
    req.deadline_ms = Some(300); // keys the watchdog
    let resp = service
        .submit(req.clone())
        .expect("submit")
        .wait()
        .expect("bypass rung rescues a fully hung pipeline");
    assert_eq!(
        resp.payload.fingerprint(),
        reference_response(&req).expect("reference").fingerprint()
    );
    let health = service.health();
    assert!(health.hangs >= 1, "watchdog never fired: {health:?}");
    assert!(health.bypasses >= 1, "bypass rung never ran: {health:?}");
    service.shutdown();
}

// ---------------------------------------------------------------------
// The single-flight fit tier under faults: a leader that fails must not
// strand the jobs parked behind its fit key.
// ---------------------------------------------------------------------

/// Fault draws are a pure function of `(seed, request id, attempt)`, so
/// a scenario casts its roles by *choosing ids*: the first `n` ids from
/// `from` on whose draws satisfy `want`.
fn ids_where(from: u64, n: usize, want: impl Fn(u64) -> bool) -> Vec<u64> {
    let ids: Vec<u64> = (from..from + 100_000)
        .filter(|&id| want(id))
        .take(n)
        .collect();
    assert_eq!(ids.len(), n, "fault stream never produced the wanted draws");
    ids
}

/// Ids from `from` on that never fault on any attempt the ladder can
/// give them.
fn healthy_ids(spec: &ServiceFaultSpec, from: u64, n: usize) -> Vec<u64> {
    ids_where(from, n, |id| {
        (0..=3).all(|attempt| spec.worker(id, attempt) == WorkerFault::None)
    })
}

/// Twelve distinct questions about one machine configuration (3 layouts
/// × 4 budgets: twelve exact keys, one fit key), one per id. The first
/// carries a 250 ms deadline, which keys its watchdog.
fn fit_family(ids: impl IntoIterator<Item = u64>) -> Vec<TuneRequest> {
    use hslb_cesm::Layout::{FullySequential, Hybrid, SequentialWithOcean};
    let questions = [Hybrid, SequentialWithOcean, FullySequential]
        .into_iter()
        .flat_map(|layout| [64i64, 96, 128, 192].map(|nodes| (layout, nodes)));
    let mut family: Vec<TuneRequest> = ids
        .into_iter()
        .zip(questions)
        .map(|(id, (layout, nodes))| TuneRequest {
            layout,
            ..TuneRequest::new(id, hslb_cesm::Resolution::OneDegree, nodes)
        })
        .collect();
    assert_eq!(family.len(), 12, "one id per question");
    family[0].deadline_ms = Some(250);
    assert!(family.iter().all(|r| r.fit_key() == family[0].fit_key()));
    family
}

/// A follower must never outwait its leader's watchdog by much: every
/// wait in these scenarios is bounded, and running out is the failure.
fn wait_bounded(ticket: Ticket) -> TicketResult {
    let (tx, rx) = std::sync::mpsc::channel();
    ticket.on_resolve(move |result| {
        let _ = tx.send(result);
    });
    rx.recv_timeout(Duration::from_secs(20))
        .expect("a ticket was left unresolved: stranded behind its fit leader?")
}

/// Poll `cond` (a stats read) until it holds; running out of patience is
/// the failure.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let start = std::time::Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "never saw: {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Submit the family's first member alone and wait until it has led its
/// fit key — which request leads is otherwise up to which worker wakes
/// first — then the other eleven.
fn submit_leader_first(service: &TuningService, family: &[TuneRequest]) -> Vec<Ticket> {
    let mut tickets = vec![service.submit(family[0].clone()).expect("submit leader")];
    wait_until("the leader leading", || service.stats().fit_misses >= 1);
    for req in &family[1..] {
        tickets.push(service.submit(req.clone()).expect("twelve fit the queue"));
    }
    tickets
}

/// Wait (bounded) for all twelve and hold every answer to its one-shot
/// reference.
fn collect_family(family: &[TuneRequest], tickets: Vec<Ticket>) -> Vec<TuneResponse> {
    let refs = references(family);
    family
        .iter()
        .zip(tickets)
        .map(|(req, ticket)| {
            let resp = wait_bounded(ticket)
                .unwrap_or_else(|e| panic!("{} failed under faults: {e}", req.exact_key()));
            assert_eq!(
                resp.payload.fingerprint(),
                refs[&req.exact_key()],
                "{} diverged from the one-shot pipeline",
                req.exact_key()
            );
            resp
        })
        .collect()
}

fn tier_counts(responses: &[TuneResponse]) -> (usize, usize) {
    let count = |tier| responses.iter().filter(|r| r.tier == tier).count();
    (count(CacheTier::Miss), count(CacheTier::Fit))
}

/// (a) The leader panics on its first attempt — here every request
/// does, so whichever leads first certainly does, and so does each
/// follower that is put back in line and leads in its turn. Nobody is
/// stranded, and exactly one fit is computed: by the first leader on a
/// second attempt, the one that survives.
#[test]
fn panicking_fit_leaders_release_their_followers() {
    let faults = ServiceFaultSpec {
        seed: 21,
        panic_rate: 0.3,
        ..ServiceFaultSpec::none()
    };
    let ids = ids_where(1, 12, |id| {
        faults.worker(id, 0) == WorkerFault::Panic
            && (1..=3).all(|attempt| faults.worker(id, attempt) == WorkerFault::None)
    });
    let family = fit_family(ids);
    let service = TuningService::start(ServiceOptions {
        faults,
        ..ServiceOptions::default()
    });
    let tickets: Vec<Ticket> = family
        .iter()
        .map(|req| service.submit(req.clone()).expect("twelve fit the queue"))
        .collect();
    let responses = collect_family(&family, tickets);
    assert_eq!(tier_counts(&responses), (1, 11));
    let health = service.health();
    assert_eq!(
        (health.panics, health.requeues, health.bypasses),
        (12, 12, 0),
        "{health:?}"
    );
    service.shutdown();
}

/// Every attempt of every request panics: no leader ever publishes, each
/// one frees its key on the way down, and all twelve reach the bypass
/// rung. A single missed release would park a job for good.
#[test]
fn a_storm_of_panicking_leaders_strands_nobody() {
    let family = fit_family(1..=12);
    let service = TuningService::start(ServiceOptions {
        faults: ServiceFaultSpec {
            seed: 9,
            panic_rate: 1.0,
            ..ServiceFaultSpec::none()
        },
        ..ServiceOptions::default()
    });
    let tickets: Vec<Ticket> = family
        .iter()
        .map(|req| service.submit(req.clone()).expect("twelve fit the queue"))
        .collect();
    let responses = collect_family(&family, tickets);
    assert_eq!(tier_counts(&responses), (12, 0), "the bypass rung's tier");
    let stats = service.stats();
    assert_eq!((stats.fit_hits, stats.fit_entries), (0, 0), "{stats:?}");
    let health = service.health();
    assert_eq!((health.panics, health.bypasses), (36, 12), "{health:?}");
    service.shutdown();
}

/// (b) The leader hangs past its 250 ms watchdog with all eleven
/// followers parked behind it; the supervisor abandons the attempt and
/// frees the key. (e) The abandoned attempt then wakes, fits and
/// publishes after a successor already did: harmless, and it leaves
/// nothing behind in the registry for a later job to park on.
#[test]
fn a_hung_fit_leader_releases_its_followers_and_its_late_publish_is_harmless() {
    let faults = ServiceFaultSpec {
        seed: 22,
        hang_rate: 0.3,
        ..ServiceFaultSpec::none()
    };
    let leader = ids_where(1, 1, |id| {
        faults.worker(id, 0) == WorkerFault::Hang
            && (1..=3).all(|attempt| faults.worker(id, attempt) == WorkerFault::None)
    })[0];
    let family = fit_family(std::iter::once(leader).chain(healthy_ids(&faults, 1_000, 11)));
    let service = TuningService::start(ServiceOptions {
        faults,
        ..ServiceOptions::default()
    });
    let tickets = submit_leader_first(&service, &family);
    let responses = collect_family(&family, tickets);
    // One answer came from the surviving leader, eleven replayed it —
    // whether the survivor was a follower or the leader's own retry.
    assert_eq!(tier_counts(&responses), (1, 11));
    let stats = service.stats();
    // Two jobs led: the one that hung before computing anything and the
    // one that fitted. Every other look at the tier was a hit.
    assert_eq!((stats.fit_misses, stats.fit_hits), (2, 11), "{stats:?}");
    // The hang holds the key for the whole watchdog: three idle workers
    // have a quarter of a second to pop and park eleven jobs.
    assert!(stats.fit_coalesced >= 11, "{stats:?}");
    let health = service.health();
    assert_eq!((health.hangs, health.bypasses), (1, 0), "{health:?}");
    for resp in &responses[1..] {
        assert!(
            resp.queue_wait_ms >= 100.0,
            "a parked job's queue wait includes its time parked: {resp:?}"
        );
    }

    // The hung attempt sleeps 120 ms past the watchdog, then runs to
    // completion as the leader it no longer is. Let it, then ask the
    // same machine configuration something new.
    std::thread::sleep(Duration::from_millis(400));
    let late_id = healthy_ids(&faults, 2_000, 1)[0];
    let late = TuneRequest::new(late_id, hslb_cesm::Resolution::OneDegree, 224);
    let resp = wait_bounded(service.submit(late.clone()).expect("submit"))
        .expect("served after the late publish");
    assert_eq!(resp.tier, CacheTier::Fit);
    assert_eq!(
        resp.payload.fingerprint(),
        reference_response(&late).expect("reference").fingerprint()
    );
    assert_eq!(
        service.stats().fit_misses,
        2,
        "the late publish led nothing"
    );
    service.shutdown();
}

/// (c) The leader panics on every attempt it is given and answers from
/// the bypass rung, which publishes nothing to either tier's registry.
/// Its followers still get exactly one fit between them.
#[test]
fn a_fit_leader_that_ends_on_the_bypass_rung_strands_nobody() {
    let faults = ServiceFaultSpec {
        seed: 23,
        panic_rate: 0.5,
        ..ServiceFaultSpec::none()
    };
    let leader = ids_where(1, 1, |id| {
        (0..=2).all(|attempt| faults.worker(id, attempt) == WorkerFault::Panic)
    })[0];
    let family = fit_family(std::iter::once(leader).chain(healthy_ids(&faults, 1_000, 11)));
    let service = TuningService::start(ServiceOptions {
        faults,
        ..ServiceOptions::default()
    });
    let tickets = submit_leader_first(&service, &family);
    let responses = collect_family(&family, tickets);
    assert_eq!(responses[0].tier, CacheTier::Miss, "the bypass rung's tier");
    assert_eq!(
        tier_counts(&responses[1..]),
        (1, 10),
        "one surviving leader among the followers, ten replays"
    );
    let health = service.health();
    assert_eq!(
        (health.panics, health.requeues, health.bypasses),
        (3, 2, 1),
        "{health:?}"
    );
    service.shutdown();
}

/// (d) `shutdown()` while followers are parked: the leader, already
/// started, finishes; its release finds the shards closed and every
/// parked job resolves with the drain's typed rejection — and with it
/// the identical request that had attached to one of them on the exact
/// tier. None is left waiting, and the accounting closes.
#[test]
fn shutdown_resolves_parked_followers_with_draining() {
    let faults = ServiceFaultSpec {
        seed: 24,
        slow_rate: 0.3,
        slow_ms: 400,
        ..ServiceFaultSpec::none()
    };
    let leader = ids_where(1, 1, |id| faults.worker(id, 0) == WorkerFault::Slow)[0];
    let mut family = fit_family(std::iter::once(leader).chain(healthy_ids(&faults, 1_000, 11)));
    family[0].deadline_ms = None; // a slow leader, not a hung one
    let service = TuningService::start(ServiceOptions {
        faults,
        ..ServiceOptions::default()
    });
    let mut tickets = submit_leader_first(&service, &family);
    // The leader sleeps 400 ms before it gathers: ample for the other
    // three workers to park all eleven followers behind it.
    wait_until("eleven parked followers", || {
        service.stats().fit_coalesced == 11
    });
    // A duplicate of a parked job coalesces onto it: two tickets now
    // hang on that one parked `Job`.
    family.push(TuneRequest {
        id: healthy_ids(&faults, 2_000, 1)[0],
        ..family[1].clone()
    });
    tickets.push(
        service
            .submit(family[12].clone())
            .expect("submit duplicate"),
    );
    assert_eq!(service.stats().coalesced, 1);
    service.shutdown();

    let mut answered = 0;
    let mut drained = 0;
    for (req, ticket) in family.iter().zip(tickets) {
        match wait_bounded(ticket) {
            Ok(resp) => {
                answered += 1;
                assert_eq!(
                    resp.payload.fingerprint(),
                    reference_response(req).expect("reference").fingerprint()
                );
            }
            Err(SubmitError::Draining { retry_after_ms }) => {
                assert!(retry_after_ms >= 1, "drain rejection carries a retry hint");
                drained += 1;
            }
            Err(other) => panic!("parked work must resolve Ok or Draining, got {other}"),
        }
    }
    assert_eq!((answered, drained), (1, 12));
    let stats = service.stats();
    assert_eq!(
        stats.submitted,
        stats.completed + stats.rejected + stats.errors,
        "{stats:?}"
    );
    assert_eq!(service.health().drained, 12);
}

/// Kill-and-restart bit-identity: a service restarted from a valid
/// snapshot serves the snapshotted scenarios from the exact tier, bit
/// for bit, without rerunning the pipeline.
#[test]
fn snapshot_restart_serves_bit_identical_cached_responses() {
    let path = temp_path("restart");
    let _ = std::fs::remove_file(&path);
    let requests: Vec<TuneRequest> = [64i64, 96, 128]
        .iter()
        .enumerate()
        .map(|(i, &nodes)| TuneRequest::new(i as u64 + 1, hslb_cesm::Resolution::OneDegree, nodes))
        .collect();

    let opts = ServiceOptions {
        snapshot: Some(SnapshotPolicy::new(&path)),
        ..ServiceOptions::default()
    };
    let first = TuningService::start(opts.clone());
    let mut fingerprints = Vec::new();
    for req in &requests {
        let resp = first
            .submit(req.clone())
            .expect("submit")
            .wait()
            .expect("pipeline run");
        fingerprints.push(resp.payload.fingerprint());
    }
    // Graceful drain flushes the snapshot (satellite 2); the file on
    // disk is what a kill -9 + restart would find.
    first.shutdown();
    assert!(path.is_file(), "drain must flush the snapshot");

    let second = TuningService::start(opts);
    let record = second.health().recovery;
    assert!(record.attempted);
    assert!(
        !record.cold_start,
        "valid snapshot must restore: {record:?}"
    );
    assert_eq!(record.restored_exact, fingerprints.len());
    for (req, expected) in requests.iter().zip(&fingerprints) {
        let mut replay = req.clone();
        replay.id += 100;
        let resp = second
            .submit(replay)
            .expect("submit")
            .wait()
            .expect("restored service serves");
        assert_eq!(
            resp.tier,
            CacheTier::Exact,
            "restored scenario must hit the exact tier"
        );
        assert_eq!(
            &resp.payload.fingerprint(),
            expected,
            "restored response must be bit-identical to the pre-restart one"
        );
    }
    second.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// A corrupted or truncated snapshot must degrade to a clean cold start
/// with the reason on the recovery record — never a crash, never a
/// half-restored cache.
#[test]
fn corrupted_and_truncated_snapshots_cold_start_with_a_record() {
    let path = temp_path("corrupt");

    // Corrupted: plausible-looking JSON that fails the checksum footer.
    std::fs::write(&path, b"{\"schema\":\"hslb-cache-snapshot/v1\"}\n").expect("write garbage");
    let opts = ServiceOptions {
        snapshot: Some(SnapshotPolicy::new(&path)),
        ..ServiceOptions::default()
    };
    let service = TuningService::start(opts.clone());
    let record = service.health().recovery;
    assert!(record.attempted);
    assert!(record.cold_start, "corruption must cold-start: {record:?}");
    assert_eq!(record.restored_exact + record.restored_fits, 0);
    assert!(
        !record.fallbacks.is_empty(),
        "the reason must be on the record"
    );
    // The cold service still serves correctly.
    let req = TuneRequest::new(1, hslb_cesm::Resolution::OneDegree, 96);
    let resp = service
        .submit(req.clone())
        .expect("submit")
        .wait()
        .expect("cold start serves");
    assert_eq!(
        resp.payload.fingerprint(),
        reference_response(&req).expect("reference").fingerprint()
    );
    service.shutdown(); // overwrites the garbage with a valid snapshot

    // Truncated: chop the now-valid snapshot mid-body. The length/
    // checksum footer no longer matches, so restore must refuse it.
    let full = std::fs::read(&path).expect("valid snapshot exists");
    assert!(full.len() > 64);
    std::fs::write(&path, &full[..full.len() / 2]).expect("truncate");
    let service = TuningService::start(opts);
    let record = service.health().recovery;
    assert!(record.attempted);
    assert!(record.cold_start, "truncation must cold-start: {record:?}");
    assert!(!record.fallbacks.is_empty());
    service.shutdown();
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite 3: snapshot round-trip property. For ANY payload float
    /// bits — negative, subnormal, huge, non-finite — and any cache-key
    /// string, save → load reproduces the payload bit for bit (equal
    /// fingerprints) and reports a non-cold restore.
    #[test]
    fn snapshot_round_trip_is_bit_exact(
        lnd in 1i64..512, ice in 1i64..512, atm in 1i64..4096, ocn in 1i64..4096,
        t_lnd in any_f64_bits(), t_ice in any_f64_bits(),
        t_atm in any_f64_bits(), t_ocn in any_f64_bits(),
        total in any_f64_bits(),
        predicted in any_opt_f64(),
        r2 in any_opt_f64(),
        degraded in any_bool(),
        certified in any_bool(),
        audit in any_opt_bool(),
        rung in "[a-zA-Z0-9 /|-]{1,24}",
        key_salt in 0u64..1_000_000,
    ) {
        let payload = TunePayload {
            allocation: Allocation { lnd, ice, atm, ocn },
            predicted: Some(ComponentTimes {
                lnd: t_lnd, ice: t_ice, atm: t_atm, ocn: t_ocn,
            }),
            predicted_total: predicted,
            actual: ComponentTimes {
                lnd: t_atm, ice: t_ocn, atm: t_lnd, ocn: t_ice,
            },
            actual_total: total,
            min_r_squared: r2,
            rung,
            degraded,
            certified,
            audit_passed: audit,
        };
        let key = format!("1deg|hybrid|min-max|n{atm}|salt{key_salt}");
        let path = temp_path("roundtrip");
        let stats = save_snapshot(&path, &[(key.clone(), payload.clone())], &[])
            .expect("save succeeds");
        prop_assert_eq!(stats.exact_entries, 1);
        let restored = load_snapshot(&path);
        let _ = std::fs::remove_file(&path);
        prop_assert!(restored.record.attempted);
        prop_assert!(!restored.record.cold_start,
            "round trip must not cold-start: {:?}", restored.record);
        prop_assert_eq!(restored.record.restored_exact, 1);
        let (got_key, got) = &restored.exact[0];
        prop_assert_eq!(got_key, &key);
        prop_assert_eq!(got.fingerprint(), payload.fingerprint(),
            "restored payload must be bit-identical");
    }
}
