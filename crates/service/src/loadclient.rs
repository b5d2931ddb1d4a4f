//! The TCP client engine behind `loadgen`: shard-aware routing, the
//! closed-loop driver with its determinism audit, and the open-loop
//! ramp/soak engine that holds thousands of concurrent connections.
//!
//! Two driving modes share the verification rules (every accepted reply
//! must echo the attempt's correlation id and carry a fingerprint that
//! matches one recomputed from the parsed payload):
//!
//! * **closed-loop** ([`run_closed_loop`]) — `concurrency` worker
//!   threads each drive one request at a time to a terminal outcome,
//!   retrying broken connections (reconnect + fresh id band) and typed
//!   backpressure/draining errors (backoff by the server's
//!   `retry_after_ms` hint). This is the smoke/chaos mode: modest
//!   concurrency, maximal per-request scrutiny.
//! * **open-loop** ([`run_open_loop`]) — one thread holds
//!   [`OpenLoopSpec::connections`] nonblocking sockets and paces sends
//!   against a target-rate schedule regardless of completion times
//!   (arrivals don't slow down because the server is slow — the honest
//!   way to measure a serving system under load). Requests pipeline
//!   onto connections, replies correlate by id out of order, and
//!   connection churn deliberately closes/reopens sockets mid-run.
//!
//! Both modes route every request by [`shard_for_key`] over its *exact
//! key* across the addresses given (one per shard process), so a
//! sharded deployment sees exactly the traffic its consistent-hash
//! contract promises: all duplicates of a scenario land on one shard
//! and its caches keep working.

use crate::loadmix::{ConnectionsReport, LoadOutcome, ShardLoad};
use crate::ranked::{self, RankedMutex};
use crate::request::{TuneRequest, TuneResponse};
use crate::shard::shard_for_key;
use crate::wire;
use hslb_telemetry::json::Value;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufReader, BufWriter, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Attempts per request before the client gives up and counts a
/// rejection.
pub const MAX_RETRIES: u64 = 50;

/// Retried attempts get a fresh correlation id in a disjoint band, so
/// server-side per-id fault draws re-roll while exact keys (and thus
/// caching/coalescing) are untouched.
pub const ID_RETRY_STRIDE: u64 = 1_000_000;

/// A blocking request/reply connection (closed-loop mode and one-shot
/// control ops).
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    /// Dial `addr`.
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = ranked::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Send one line, read one reply line. A missing trailing newline is
    /// reported as a truncation (the server died or injected a fault
    /// mid-write) — the caller must never trust such a frame.
    pub fn round_trip(&mut self, line: &str) -> Result<String, String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send: {e}"))?;
        ranked::flush(&mut self.writer).map_err(|e| format!("flush: {e}"))?;
        let mut reply = String::new();
        let n =
            ranked::read_line(&mut self.reader, &mut reply).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        if !reply.ends_with('\n') {
            return Err("truncated reply frame".to_string());
        }
        Ok(reply)
    }
}

/// Serialize a tune command line for a request.
pub fn tune_line(req: &TuneRequest) -> String {
    let mut v = req.to_value();
    if let Value::Obj(kv) = &mut v {
        kv.insert(0, ("op".to_string(), Value::Str("tune".to_string())));
    }
    v.to_string()
}

/// What the client saw for one request, terminally.
pub enum Attempt {
    /// Verified success, with end-to-end latency in milliseconds.
    Ok(Box<TuneResponse>, f64),
    /// Gave up after [`MAX_RETRIES`] retryable failures.
    Rejected,
    /// A terminal (non-retryable) error.
    Error(String),
}

/// Fault survival counters for one driver, merged into the run totals.
#[derive(Default)]
pub struct FaultAcct {
    pub conn_failures: usize,
    pub reconnects: usize,
    pub retry_errors: usize,
    pub recovery_ms: Vec<f64>,
}

/// Verify a parsed ok-reply against the attempt that produced it: the
/// id must echo (coalesced replies still carry their own correlation
/// id, not the leader's) and the embedded fingerprint must equal one
/// recomputed from the parsed floats (the JSON wire is bit-exact).
fn verify_reply(attempt_id: u64, v: &Value) -> Result<TuneResponse, String> {
    let resp = TuneResponse::from_value(v).map_err(|e| format!("bad tune reply: {e}"))?;
    if resp.id != attempt_id {
        return Err(format!(
            "reply id {} does not echo request id {attempt_id}",
            resp.id
        ));
    }
    let embedded = v
        .get("fingerprint")
        .and_then(Value::as_str)
        .unwrap_or_default();
    if embedded != resp.payload.fingerprint() {
        return Err(format!(
            "wire fingerprint mismatch for id {}: {embedded} vs {}",
            resp.id,
            resp.payload.fingerprint()
        ));
    }
    Ok(resp)
}

/// Drive one request to a terminal outcome over a blocking connection:
/// retry broken connections (reconnect, fresh correlation id) and typed
/// retryable errors (backoff by the server's hint), give up only after
/// [`MAX_RETRIES`]. Successful replies are verified before they count.
pub fn drive_request(
    addr: &str,
    conn: &mut Option<Conn>,
    req: &TuneRequest,
    acct: &mut FaultAcct,
) -> Attempt {
    let started = Instant::now();
    let mut first_failure: Option<Instant> = None;
    let fail = |acct: &mut FaultAcct, first: &mut Option<Instant>| {
        acct.conn_failures += 1;
        first.get_or_insert_with(Instant::now);
    };
    for attempt in 0..=MAX_RETRIES {
        let mut attempt_req = req.clone();
        attempt_req.id = req.id + attempt * ID_RETRY_STRIDE;
        if conn.is_none() {
            match Conn::open(addr) {
                Ok(c) => {
                    *conn = Some(c);
                    if attempt > 0 {
                        acct.reconnects += 1;
                    }
                }
                Err(e) => {
                    if attempt == MAX_RETRIES {
                        return Attempt::Error(e);
                    }
                    ranked::sleep(Duration::from_millis(20));
                    continue;
                }
            }
        }
        let Some(c) = conn.as_mut() else {
            continue;
        };
        let reply = match c.round_trip(&tune_line(&attempt_req)) {
            Ok(r) => r,
            Err(_) => {
                fail(acct, &mut first_failure);
                *conn = None;
                continue;
            }
        };
        let (ok, v) = match wire::parse_reply(&reply) {
            Ok(p) => p,
            Err(_) => {
                // Unparseable reply ⇒ treat as a broken frame: never
                // trust it, reconnect and retry.
                fail(acct, &mut first_failure);
                *conn = None;
                continue;
            }
        };
        if ok {
            return match verify_reply(attempt_req.id, &v) {
                Ok(resp) => {
                    if let Some(t0) = first_failure {
                        acct.recovery_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    Attempt::Ok(Box::new(resp), started.elapsed().as_secs_f64() * 1e3)
                }
                Err(e) => Attempt::Error(e),
            };
        }
        match v.get("retry_after_ms").and_then(Value::as_f64) {
            Some(ms) => {
                // Explicit backpressure or drain: back off and retry.
                acct.retry_errors += 1;
                first_failure.get_or_insert_with(Instant::now);
                ranked::sleep(Duration::from_millis(ms.max(1.0) as u64));
            }
            None => {
                return Attempt::Error(
                    v.get("error")
                        .and_then(Value::as_str)
                        .unwrap_or("unknown server error")
                        .to_string(),
                )
            }
        }
    }
    Attempt::Rejected
}

/// Everything a load run collected, before report assembly.
#[derive(Default)]
pub struct RunResults {
    pub outcomes: Vec<LoadOutcome>,
    pub responses: Vec<(TuneRequest, TuneResponse)>,
    pub rejected: usize,
    pub errors: Vec<String>,
    pub faults: FaultAcct,
    /// Base requests routed to each shard index (parallel to the
    /// address list; retries don't re-count).
    pub shard_requests: Vec<usize>,
    /// Verified successes per shard index.
    pub shard_ok: Vec<usize>,
}

impl RunResults {
    fn sized(shards: usize) -> RunResults {
        RunResults {
            shard_requests: vec![0; shards],
            shard_ok: vec![0; shards],
            ..RunResults::default()
        }
    }

    /// Build the per-shard table for the v3 connections block.
    pub fn shard_loads(&self, addrs: &[String], wall_ms: f64) -> Vec<ShardLoad> {
        addrs
            .iter()
            .enumerate()
            .map(|(i, addr)| ShardLoad {
                shard: i,
                addr: addr.clone(),
                requests: self.shard_requests.get(i).copied().unwrap_or(0),
                ok: self.shard_ok.get(i).copied().unwrap_or(0),
                wall_ms,
            })
            .collect()
    }
}

/// Closed-loop driver: `concurrency` workers pull requests off a shared
/// queue and drive each to a terminal outcome, routing every request to
/// its consistent-hash shard across `addrs`.
pub fn run_closed_loop(
    addrs: &[String],
    mix: &[TuneRequest],
    concurrency: usize,
) -> Result<RunResults, String> {
    if addrs.is_empty() {
        return Err("no server addresses".to_string());
    }
    let pending: Arc<RankedMutex<VecDeque<TuneRequest>>> =
        Arc::new(RankedMutex::new(mix.iter().cloned().collect()));
    let collected: Arc<RankedMutex<RunResults>> =
        Arc::new(RankedMutex::new(RunResults::sized(addrs.len())));
    std::thread::scope(|scope| {
        for _ in 0..concurrency.max(1) {
            let pending = Arc::clone(&pending);
            let collected = Arc::clone(&collected);
            scope.spawn(move || {
                // One connection slot per shard, opened lazily.
                let mut conns: Vec<Option<Conn>> = addrs.iter().map(|_| None).collect();
                let mut acct = FaultAcct::default();
                loop {
                    let req = {
                        let mut q = pending.lock();
                        q.pop_front()
                    };
                    let Some(req) = req else { break };
                    let shard = shard_for_key(&req.exact_key(), addrs.len());
                    let attempt = drive_request(&addrs[shard], &mut conns[shard], &req, &mut acct);
                    let mut res = collected.lock();
                    res.shard_requests[shard] += 1;
                    match attempt {
                        Attempt::Ok(resp, e2e_ms) => {
                            res.shard_ok[shard] += 1;
                            res.outcomes.push(LoadOutcome {
                                tier: resp.tier,
                                coalesced: resp.coalesced,
                                queue_wait_ms: resp.queue_wait_ms,
                                e2e_ms,
                            });
                            res.responses.push((req, *resp));
                        }
                        Attempt::Rejected => res.rejected += 1,
                        Attempt::Error(e) => res.errors.push(e),
                    }
                }
                let mut res = collected.lock();
                res.faults.conn_failures += acct.conn_failures;
                res.faults.reconnects += acct.reconnects;
                res.faults.retry_errors += acct.retry_errors;
                res.faults.recovery_ms.append(&mut acct.recovery_ms);
            });
        }
    });
    Arc::try_unwrap(collected)
        .map_err(|_| "worker threads leaked result handles".to_string())
        .map(RankedMutex::into_inner)
}

/// One step of an open-loop rate schedule: send `requests` requests at
/// `rps` target arrivals per second.
#[derive(Debug, Clone, Copy)]
pub struct RateStep {
    pub requests: usize,
    pub rps: f64,
}

/// Configuration of the open-loop engine.
#[derive(Debug, Clone)]
pub struct OpenLoopSpec {
    /// Sockets held open for the whole run (requests round-robin over
    /// them; idle connections still cost the server its per-connection
    /// state, which is the point).
    pub connections: usize,
    /// Deliberately close and reopen a connection after this many
    /// completed requests (0 = never churn).
    pub churn_every: usize,
    /// The arrival schedule; the mix is consumed in order through the
    /// steps, any surplus at the final step's rate.
    pub schedule: Vec<RateStep>,
    /// Hard wall-clock bound on the whole run — the engine errors out
    /// rather than hang, whatever the server does.
    pub timeout_ms: u64,
}

/// What an open-loop run produced beyond the shared [`RunResults`].
pub struct OpenLoopResults {
    pub run: RunResults,
    /// Connections deliberately closed and reopened by churn.
    pub churned: usize,
    /// Client-side concurrently open connections (the spec's count —
    /// all opened up front and held).
    pub concurrent: usize,
    pub wall_ms: f64,
}

/// A request waiting to be (re)sent or in flight on a connection.
struct PendingReq {
    req: TuneRequest,
    attempt: u64,
    started: Instant,
    first_failure: Option<Instant>,
}

/// One nonblocking open-loop connection.
struct OConn {
    stream: Option<TcpStream>,
    addr_idx: usize,
    out: VecDeque<u8>,
    rbuf: Vec<u8>,
    /// In-flight attempts keyed by their attempt id.
    inflight: BTreeMap<u64, PendingReq>,
    /// Completions since the last churn cycle.
    completed: usize,
}

impl OConn {
    fn dial(addr: &str, addr_idx: usize) -> Result<OConn, String> {
        let stream = ranked::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        Ok(OConn {
            stream: Some(stream),
            addr_idx,
            out: VecDeque::new(),
            rbuf: Vec::new(),
            inflight: BTreeMap::new(),
            completed: 0,
        })
    }
}

/// Open-loop driver: hold `spec.connections` nonblocking sockets, pace
/// sends against the schedule, correlate replies by id, retry faults
/// and typed errors, and never outlive `timeout_ms`.
pub fn run_open_loop(
    addrs: &[String],
    mix: &[TuneRequest],
    spec: &OpenLoopSpec,
) -> Result<OpenLoopResults, String> {
    if addrs.is_empty() {
        return Err("no server addresses".to_string());
    }
    if spec.connections == 0 {
        return Err("open-loop spec needs at least one connection".to_string());
    }
    // Target send offset (ms from run start) for each mix index.
    let offsets = send_offsets(mix.len(), &spec.schedule);

    // Open every connection up front, round-robin across shards.
    let mut conns: Vec<OConn> = Vec::with_capacity(spec.connections);
    for i in 0..spec.connections {
        let addr_idx = i % addrs.len();
        conns.push(OConn::dial(&addrs[addr_idx], addr_idx)?);
    }
    // Round-robin cursor per shard over that shard's connections.
    let mut conn_ids_by_shard: Vec<Vec<usize>> = vec![Vec::new(); addrs.len()];
    for (ci, c) in conns.iter().enumerate() {
        conn_ids_by_shard[c.addr_idx].push(ci);
    }
    let mut rr_cursor: Vec<usize> = vec![0; addrs.len()];

    let mut results = RunResults::sized(addrs.len());
    let mut churned = 0usize;
    // Retries parked until their backoff expires, per shard.
    let mut parked: Vec<(Instant, PendingReq)> = Vec::new();
    let started = Instant::now();
    let deadline = started + Duration::from_millis(spec.timeout_ms);
    let mut next_to_send = 0usize;
    let mut terminal = 0usize;

    while terminal < mix.len() {
        if Instant::now() >= deadline {
            return Err(format!(
                "open-loop run timed out after {} ms with {} of {} requests terminal",
                spec.timeout_ms,
                terminal,
                mix.len()
            ));
        }
        let mut progress = false;

        // Admit newly due requests per the schedule.
        let now_ms = started.elapsed().as_secs_f64() * 1e3;
        while next_to_send < mix.len() && offsets[next_to_send] <= now_ms {
            let req = mix[next_to_send].clone();
            next_to_send += 1;
            let shard = shard_for_key(&req.exact_key(), addrs.len());
            results.shard_requests[shard] += 1;
            send_on_shard(
                &mut conns,
                &conn_ids_by_shard,
                &mut rr_cursor,
                shard,
                PendingReq {
                    req,
                    attempt: 0,
                    started: Instant::now(),
                    first_failure: None,
                },
            );
            progress = true;
        }

        // Re-admit parked retries whose backoff has expired.
        let now = Instant::now();
        let mut still_parked = Vec::new();
        for (due, pending) in parked.drain(..) {
            if due <= now {
                let shard = shard_for_key(&pending.req.exact_key(), addrs.len());
                send_on_shard(
                    &mut conns,
                    &conn_ids_by_shard,
                    &mut rr_cursor,
                    shard,
                    pending,
                );
                progress = true;
            } else {
                still_parked.push((due, pending));
            }
        }
        parked = still_parked;

        // Sweep every connection: write, read, correlate.
        for conn in conns.iter_mut() {
            progress |= sweep_conn(conn, addrs, &mut results, &mut parked, &mut terminal);
        }

        // Churn: close + reopen idle connections that served their
        // quota. A reopened connection is a *deliberate* churn event,
        // not a fault.
        if spec.churn_every > 0 {
            for conn in conns.iter_mut() {
                if conn.completed >= spec.churn_every
                    && conn.inflight.is_empty()
                    && conn.out.is_empty()
                    && conn.stream.is_some()
                {
                    conn.stream = None; // dropped: FIN to the server
                    if let Ok(fresh) = OConn::dial(&addrs[conn.addr_idx], conn.addr_idx) {
                        *conn = fresh;
                        churned += 1;
                        progress = true;
                    }
                }
            }
        }

        if !progress {
            // Nothing readable, writable, or due: yield briefly rather
            // than spin. Bounded, so schedule deadlines stay honored.
            ranked::sleep(Duration::from_millis(1));
        }
    }

    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok(OpenLoopResults {
        run: results,
        churned,
        concurrent: spec.connections,
        wall_ms,
    })
}

/// Expand a schedule into per-request send offsets (ms from run start).
fn send_offsets(mix_len: usize, schedule: &[RateStep]) -> Vec<f64> {
    let mut offsets = Vec::with_capacity(mix_len);
    let mut t = 0.0f64;
    let mut dt = 1.0; // fallback: 1000 rps
    for step in schedule {
        dt = 1e3 / step.rps.max(1e-6);
        for _ in 0..step.requests {
            if offsets.len() >= mix_len {
                return offsets;
            }
            offsets.push(t);
            t += dt;
        }
    }
    while offsets.len() < mix_len {
        offsets.push(t);
        t += dt;
    }
    offsets
}

/// Enqueue one attempt onto the next connection of its shard
/// (round-robin over that shard's sockets).
fn send_on_shard(
    conns: &mut [OConn],
    by_shard: &[Vec<usize>],
    rr_cursor: &mut [usize],
    shard: usize,
    pending: PendingReq,
) {
    let ids = &by_shard[shard];
    debug_assert!(!ids.is_empty(), "every shard has at least one connection");
    let ci = ids[rr_cursor[shard] % ids.len()];
    rr_cursor[shard] = (rr_cursor[shard] + 1) % ids.len().max(1);
    let conn = &mut conns[ci];
    let mut attempt_req = pending.req.clone();
    attempt_req.id = pending.req.id + pending.attempt * ID_RETRY_STRIDE;
    let line = tune_line(&attempt_req);
    conn.out.extend(line.as_bytes().iter().copied());
    conn.out.push_back(b'\n');
    // `pending.started` is never reset: e2e latency spans retries.
    conn.inflight.insert(attempt_req.id, pending);
}

/// One sweep over one connection: flush writes, read replies, correlate
/// and settle them. Returns whether anything moved.
fn sweep_conn(
    conn: &mut OConn,
    addrs: &[String],
    results: &mut RunResults,
    parked: &mut Vec<(Instant, PendingReq)>,
    terminal: &mut usize,
) -> bool {
    let mut progress = false;
    let mut broken = false;
    let mut already_counted = false;

    if let Some(stream) = conn.stream.as_mut() {
        // Writes.
        while !conn.out.is_empty() {
            let (front, _) = conn.out.as_slices();
            match ranked::write(stream, front) {
                Ok(0) => {
                    broken = true;
                    break;
                }
                Ok(n) => {
                    conn.out.drain(..n);
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        // Reads.
        if !broken {
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match ranked::read(stream, &mut chunk) {
                    Ok(0) => {
                        broken = !conn.inflight.is_empty() || !conn.out.is_empty();
                        break;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&chunk[..n]);
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
        }
    } else {
        // A dead socket (failed re-dial) with work assigned to it: the
        // work must be re-parked, but the failure was already counted
        // when the socket broke.
        already_counted = true;
        broken = !conn.inflight.is_empty() || !conn.out.is_empty();
    }

    // Parse complete lines and settle replies. A frame that fails to
    // parse or correlate poisons the whole connection (we can no longer
    // trust its stream position), so its in-flight attempts retry.
    while !broken {
        let Some(pos) = conn.rbuf.iter().position(|&b| b == b'\n') else {
            break;
        };
        let line: Vec<u8> = conn.rbuf.drain(..=pos).collect();
        let line = String::from_utf8_lossy(&line[..line.len() - 1])
            .trim_end_matches('\r')
            .to_string();
        if line.trim().is_empty() {
            continue;
        }
        progress = true;
        broken |= !settle_reply(conn, &line, addrs, results, parked, terminal);
    }

    if broken {
        // Every in-flight attempt on this socket failed together; all
        // retry on a fresh connection under fresh ids.
        if !already_counted {
            results.faults.conn_failures += 1;
        }
        let now = Instant::now();
        let inflight = std::mem::take(&mut conn.inflight);
        conn.out.clear();
        conn.rbuf.clear();
        for (_, mut pending) in inflight {
            pending.first_failure.get_or_insert(now);
            if pending.attempt >= MAX_RETRIES {
                results.rejected += 1;
                *terminal += 1;
            } else {
                pending.attempt += 1;
                parked.push((now + Duration::from_millis(5), pending));
            }
        }
        match OConn::dial(&addrs[conn.addr_idx], conn.addr_idx) {
            Ok(fresh) => {
                let completed = conn.completed;
                *conn = fresh;
                conn.completed = completed;
                results.faults.reconnects += 1;
            }
            Err(_) => {
                conn.stream = None; // retry the dial on a later sweep
            }
        }
        progress = true;
    } else if conn.stream.is_none() {
        // A previously failed dial: keep trying while work exists.
        if let Ok(fresh) = OConn::dial(&addrs[conn.addr_idx], conn.addr_idx) {
            let completed = conn.completed;
            *conn = fresh;
            conn.completed = completed;
            results.faults.reconnects += 1;
            progress = true;
        }
    }
    progress
}

/// Correlate one reply line with its in-flight attempt and settle it.
/// Returns `false` when the frame is corrupt or uncorrelatable — the
/// caller must treat the connection as broken (its in-flight attempts
/// retry; a healthy server never produces such a frame).
fn settle_reply(
    conn: &mut OConn,
    line: &str,
    addrs: &[String],
    results: &mut RunResults,
    parked: &mut Vec<(Instant, PendingReq)>,
    terminal: &mut usize,
) -> bool {
    let (ok, v) = match wire::parse_reply(line) {
        Ok(p) => p,
        Err(_) => return false,
    };
    let Some(id) = v.get("id").and_then(Value::as_f64).map(|f| f as u64) else {
        return false;
    };
    let Some(mut pending) = conn.inflight.remove(&id) else {
        return false;
    };
    if ok {
        match verify_reply(id, &v) {
            Ok(resp) => {
                let shard = shard_for_key(&pending.req.exact_key(), addrs.len());
                results.shard_ok[shard] += 1;
                if let Some(t0) = pending.first_failure {
                    results
                        .faults
                        .recovery_ms
                        .push(t0.elapsed().as_secs_f64() * 1e3);
                }
                results.outcomes.push(LoadOutcome {
                    tier: resp.tier,
                    coalesced: resp.coalesced,
                    queue_wait_ms: resp.queue_wait_ms,
                    e2e_ms: pending.started.elapsed().as_secs_f64() * 1e3,
                });
                results.responses.push((pending.req, resp));
                conn.completed += 1;
                *terminal += 1;
            }
            Err(e) => {
                results.errors.push(e);
                *terminal += 1;
            }
        }
        return true;
    }
    match v.get("retry_after_ms").and_then(Value::as_f64) {
        Some(ms) => {
            results.faults.retry_errors += 1;
            pending.first_failure.get_or_insert_with(Instant::now);
            if pending.attempt >= MAX_RETRIES {
                results.rejected += 1;
                *terminal += 1;
            } else {
                pending.attempt += 1;
                parked.push((
                    Instant::now() + Duration::from_millis(ms.max(1.0) as u64),
                    pending,
                ));
            }
        }
        None => {
            results.errors.push(
                v.get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown server error")
                    .to_string(),
            );
            *terminal += 1;
        }
    }
    true
}

/// Determinism checks: duplicate consistency across the whole run, and
/// serial-reference equality for `check` distinct scenarios. Returns
/// (checked, mismatches, messages).
pub fn determinism_audit(
    responses: &[(TuneRequest, TuneResponse)],
    check: usize,
) -> (usize, usize, Vec<String>) {
    let mut checked = 0;
    let mut mismatches = 0;
    let mut messages = Vec::new();

    // Duplicates must agree with each other bit for bit.
    let mut by_key: BTreeMap<String, (u64, String)> = BTreeMap::new();
    for (req, resp) in responses {
        let fp = resp.payload.fingerprint();
        match by_key.get(&req.exact_key()) {
            None => {
                by_key.insert(req.exact_key(), (req.id, fp));
            }
            Some((first_id, first_fp)) => {
                checked += 1;
                if *first_fp != fp {
                    mismatches += 1;
                    messages.push(format!(
                        "duplicate divergence on {}: id {} != id {}",
                        req.exact_key(),
                        first_id,
                        req.id
                    ));
                }
            }
        }
    }

    // Serial one-shot references, computed in-process, for the first
    // `check` distinct 1° scenarios (key order — deterministic). 1° only:
    // the 1/8° reference pipeline is expensive and already covered by
    // the service integration tests.
    let mut referenced = 0;
    for (key, (id, fp)) in &by_key {
        if referenced >= check {
            break;
        }
        let Some((req, _)) = responses.iter().find(|(r, _)| {
            r.exact_key() == *key && r.resolution == hslb_cesm::Resolution::OneDegree
        }) else {
            continue;
        };
        referenced += 1;
        match crate::service::reference_response(req) {
            Ok(reference) => {
                checked += 1;
                if reference.fingerprint() != *fp {
                    mismatches += 1;
                    messages.push(format!(
                        "serial reference divergence on {key} (id {id}): service {fp} vs reference {}",
                        reference.fingerprint()
                    ));
                }
            }
            Err(e) => {
                mismatches += 1;
                messages.push(format!("reference pipeline failed on {key}: {e}"));
            }
        }
    }
    (checked, mismatches, messages)
}

/// What a `stats` probe of one server reports for the load report.
pub struct StatsProbe {
    pub workers: usize,
    pub shards: usize,
    /// The reactor's `serving` block, when the server exposes one.
    pub serving: Option<Value>,
}

/// Probe one server's `stats` op.
pub fn probe_stats(addr: &str) -> Result<StatsProbe, String> {
    let mut c = Conn::open(addr)?;
    let reply = c.round_trip("{\"op\":\"stats\"}")?;
    let (ok, v) = wire::parse_reply(&reply)?;
    if !ok {
        return Err(format!(
            "stats op failed: {}",
            v.get("error").and_then(Value::as_str).unwrap_or("unknown")
        ));
    }
    let field = |k: &str| {
        v.get("stats")
            .and_then(|s| s.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as usize
    };
    Ok(StatsProbe {
        workers: field("workers"),
        shards: field("shards"),
        serving: v.get("serving").cloned(),
    })
}

/// Request a graceful drain from one server and verify the ack.
pub fn request_shutdown(addr: &str) -> Result<(), String> {
    let mut c = Conn::open(addr)?;
    let reply = c.round_trip("{\"op\":\"shutdown\"}")?;
    match wire::parse_reply(&reply) {
        Ok((true, v)) if v.get("op").and_then(Value::as_str) == Some("shutdown") => Ok(()),
        _ => Err(format!("bad shutdown ack: {}", reply.trim())),
    }
}

/// Assemble the v3 connections block from client-side accounting plus
/// the servers' `serving` probes. Each probe is a distinct shard
/// process, so connection peaks are *summed* (a 512-connection client
/// split over two shards shows up as ~256 on each) while reply-queue
/// depth percentiles are max-merged (each is a per-process gauge).
pub fn connections_report(
    concurrent: usize,
    churned: usize,
    per_shard: Vec<ShardLoad>,
    probes: &[StatsProbe],
) -> ConnectionsReport {
    let mut server_peak = 0usize;
    let (mut p50, mut p90, mut p99, mut pmax) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for probe in probes {
        let Some(serving) = &probe.serving else {
            continue;
        };
        let g = |k: &str| serving.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        server_peak += g("peak_connections") as usize;
        if let Some(depth) = serving.get("reply_queue_depth") {
            let d = |k: &str| depth.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            p50 = p50.max(d("p50"));
            p90 = p90.max(d("p90"));
            p99 = p99.max(d("p99"));
            pmax = pmax.max(d("max"));
        }
    }
    ConnectionsReport {
        concurrent,
        // A server that predates the serving block (or an in-process
        // harness) still yields a well-formed report.
        server_peak: server_peak.max(1),
        churned,
        reply_queue_p50: p50,
        reply_queue_p90: p90,
        reply_queue_p99: p99,
        reply_queue_max: pmax.max(p99),
        per_shard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_offsets_follow_schedule() {
        let offs = send_offsets(
            5,
            &[
                RateStep {
                    requests: 2,
                    rps: 100.0,
                },
                RateStep {
                    requests: 2,
                    rps: 1000.0,
                },
            ],
        );
        assert_eq!(offs.len(), 5);
        assert!((offs[0] - 0.0).abs() < 1e-9);
        assert!((offs[1] - 10.0).abs() < 1e-9);
        assert!((offs[2] - 20.0).abs() < 1e-9);
        assert!((offs[3] - 21.0).abs() < 1e-9);
        // Surplus beyond the schedule continues at the last step's rate.
        assert!((offs[4] - 22.0).abs() < 1e-9);
    }

    #[test]
    fn connections_report_merges_probes() {
        let serving = Value::Obj(vec![
            ("peak_connections".to_string(), Value::Num(12.0)),
            (
                "reply_queue_depth".to_string(),
                Value::Obj(vec![
                    ("p50".to_string(), Value::Num(1.0)),
                    ("p90".to_string(), Value::Num(2.0)),
                    ("p99".to_string(), Value::Num(3.0)),
                    ("max".to_string(), Value::Num(5.0)),
                ]),
            ),
        ]);
        let probes = vec![
            StatsProbe {
                workers: 2,
                shards: 1,
                serving: Some(serving),
            },
            StatsProbe {
                workers: 2,
                shards: 1,
                serving: None,
            },
        ];
        let report = connections_report(
            8,
            3,
            vec![ShardLoad {
                shard: 0,
                addr: "a".to_string(),
                requests: 10,
                ok: 10,
                wall_ms: 100.0,
            }],
            &probes,
        );
        assert_eq!(report.server_peak, 12);
        assert_eq!(report.churned, 3);
        assert!((report.reply_queue_p99 - 3.0).abs() < 1e-12);
        assert!((report.reply_queue_max - 5.0).abs() < 1e-12);
    }
}
