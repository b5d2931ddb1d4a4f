//! Connection-scale serving gates: the readiness-loop front end under
//! pipelining, chaos, backpressure, drain, and misrouting.
//!
//! The regression this file pins (ISSUE 8): the original server spawned
//! one thread per connection *and one thread per resolved tune reply*,
//! so a single client pipelining N commands drove the process to N
//! threads. The reactor must answer the same pipelined load with a
//! bounded thread count — workers plus the loop, independent of N —
//! while still correlating out-of-order replies by id, surviving
//! injected connection faults deterministically, disconnecting slow
//! readers instead of buffering without bound, and draining queued
//! replies on shutdown instead of dropping them.

use hslb_service::loadclient::{run_closed_loop, tune_line};
use hslb_service::loadmix::{force_deadlines, generate, MixSpec};
use hslb_service::reactor::{Reactor, ReactorOptions};
use hslb_service::shard::{shard_for_key, ShardSpec};
use hslb_service::{ServiceFaultSpec, ServiceOptions, TuneRequest, TuningService};
use hslb_telemetry::json::Value;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Start a reactor-fronted service on an ephemeral port; returns the
/// address and the join handle of the loop thread (joins when a client
/// sends `shutdown`).
fn start_server(
    opts: ServiceOptions,
    reactor_opts: ReactorOptions,
) -> (String, JoinHandle<Result<(), String>>) {
    let service = Arc::new(TuningService::start(opts));
    let reactor = Reactor::bind("127.0.0.1:0", service, reactor_opts).expect("bind ephemeral port");
    let addr = reactor.local_addr().to_string();
    let handle = std::thread::spawn(move || reactor.run());
    (addr, handle)
}

fn small_options(workers: usize) -> ServiceOptions {
    ServiceOptions {
        workers,
        queue_capacity: 512,
        ..ServiceOptions::default()
    }
}

/// One server at a time: `pipelined_replies_are_bounded_and_correlated`
/// bounds the thread count of the whole process, so a sibling test's
/// workers starting mid-run would be counted against it (one run in six
/// failed that way).
static ONE_SERVER: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn one_server() -> std::sync::MutexGuard<'static, ()> {
    ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner())
}

/// Threads currently alive in this process (Linux: /proc/self/task).
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

fn parse_line(line: &str) -> (bool, Value) {
    hslb_service::wire::parse_reply(line).expect("well-formed reply frame")
}

/// Satellite 1 regression: ≥256 tune commands pipelined on ONE
/// connection must resolve with a bounded process thread count and
/// correct id correlation, replies arriving in any order.
#[test]
fn pipelined_replies_are_bounded_and_correlated() {
    let _one_server = one_server();
    let workers = 2;
    let (addr, handle) = start_server(small_options(workers), ReactorOptions::default());
    let baseline = thread_count();

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);

    // 256 pipelined tunes over a handful of distinct scenarios: the
    // duplicates coalesce/cache, the ids never collide.
    const N: u64 = 256;
    let budgets = [64i64, 96, 128, 192];
    for id in 0..N {
        let req = TuneRequest::new(
            id,
            hslb_cesm::Resolution::OneDegree,
            budgets[(id % 4) as usize],
        );
        writeln!(writer, "{}", tune_line(&req)).expect("send");
    }
    writer.flush().expect("flush");

    let mut seen = BTreeSet::new();
    let mut out_of_order = false;
    let mut peak_threads = baseline;
    let mut last = None;
    for _ in 0..N {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        peak_threads = peak_threads.max(thread_count());
        let (ok, v) = parse_line(&line);
        assert!(ok, "pipelined tune failed: {line}");
        let id = v.get("id").and_then(Value::as_f64).expect("reply id") as u64;
        assert!(id < N, "unknown id {id}");
        assert!(seen.insert(id), "id {id} answered twice");
        if let Some(prev) = last {
            out_of_order |= id < prev;
        }
        last = Some(id);
    }
    assert_eq!(seen.len() as u64, N, "every pipelined command answered");
    // Resolution order follows workers and cache hits, not submission
    // order — with 4 scenarios racing through 2 workers some reply must
    // overtake another. (If this ever flakes, the correlation assertions
    // above are the load-bearing part.)
    assert!(
        out_of_order,
        "expected at least one out-of-order reply under pipelining"
    );

    // The old server held ~one thread per unresolved reply (256 here).
    // Bound: workers, their supervised attempt threads, the reactor,
    // and a little slack — independent of pipelining depth.
    let bound = baseline + workers * 2 + 4;
    assert!(
        peak_threads <= bound,
        "thread count {peak_threads} exceeds bound {bound} (baseline {baseline}) — \
         reply delivery is spawning threads again"
    );

    writeln!(writer, "{{\"op\":\"shutdown\"}}").expect("send shutdown");
    writer.flush().expect("flush");
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("ack");
    let (ok, v) = parse_line(&ack);
    assert!(ok && v.get("op").and_then(Value::as_str) == Some("shutdown"));
    handle.join().expect("reactor joins").expect("clean drain");
}

/// Satellite 4a: injected `ConnFault::Drop` and `ConnFault::Truncate`
/// at the readiness-loop write path must be survivable — every request
/// still terminates with a verified bit-identical response, and the
/// client's fault accounting shows the faults actually fired.
#[test]
fn reactor_survives_injected_connection_faults() {
    let _one_server = one_server();
    let faults = ServiceFaultSpec {
        drop_rate: 0.12,
        truncate_rate: 0.12,
        ..ServiceFaultSpec::chaos(23, 0.0)
    };
    let opts = ServiceOptions {
        faults,
        ..small_options(2)
    };
    let reactor_opts = ReactorOptions {
        faults,
        ..ReactorOptions::default()
    };
    let (addr, handle) = start_server(opts, reactor_opts);

    let mut mix = generate(&MixSpec::chaos());
    force_deadlines(&mut mix, 1500);
    let addrs = vec![addr.clone()];
    let results = run_closed_loop(&addrs, &mix, 3).expect("closed loop");

    assert!(
        results.errors.is_empty(),
        "chaos must never surface terminal errors: {:?}",
        results.errors
    );
    assert_eq!(results.rejected, 0, "chaos must never exhaust retries");
    assert_eq!(
        results.outcomes.len(),
        mix.len(),
        "every request terminates with a verified response"
    );
    assert!(
        results.faults.conn_failures > 0,
        "the seeded drop/truncate spec must actually fire at these rates"
    );
    assert!(
        results.faults.reconnects > 0,
        "surviving a dropped connection requires reconnecting"
    );

    let mut ctl = hslb_service::loadclient::Conn::open(&addr).expect("control conn");
    let reply = ctl.round_trip("{\"op\":\"shutdown\"}").expect("shutdown");
    assert!(parse_line(&reply).0);
    handle.join().expect("reactor joins").expect("clean drain");
}

/// Satellite 4b: a client that stops reading mid-flood is disconnected
/// once its outbound queue passes the cap — the server's memory stays
/// bounded and other connections keep serving.
#[test]
fn slow_reader_is_disconnected_not_buffered() {
    let _one_server = one_server();
    let reactor_opts = ReactorOptions {
        max_outbound_bytes: 4 * 1024,
        ..ReactorOptions::default()
    };
    let (addr, handle) = start_server(small_options(1), reactor_opts);

    // Conn A: flood pings, never read a byte. Replies pile up first in
    // kernel buffers, then in the reactor's outbound queue for this
    // connection, which is capped — the server must cut us off.
    let slow = TcpStream::connect(&addr).expect("connect slow");
    let mut slow_writer = BufWriter::new(slow.try_clone().expect("clone"));
    let mut write_failed = false;
    for _ in 0..400_000 {
        if writeln!(slow_writer, "{{\"op\":\"ping\"}}").is_err() || slow_writer.flush().is_err() {
            write_failed = true;
            break;
        }
    }
    // Whether or not the local write already observed the reset, the
    // server side must have closed the connection for slowness; verify
    // through a healthy second connection.
    let mut ctl = hslb_service::loadclient::Conn::open(&addr).expect("control conn");
    let mut slow_closed = 0.0;
    for _ in 0..200 {
        let reply = ctl.round_trip("{\"op\":\"stats\"}").expect("stats");
        let (ok, v) = parse_line(&reply);
        assert!(ok, "stats must succeed on the healthy connection");
        slow_closed = v
            .get("serving")
            .and_then(|s| s.get("slow_closed"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        if slow_closed > 0.0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        slow_closed > 0.0,
        "server never disconnected the slow reader (write_failed={write_failed})"
    );

    // The healthy connection still round-trips fine.
    let reply = ctl.round_trip("{\"op\":\"ping\"}").expect("ping");
    assert!(parse_line(&reply).0);

    drop(slow_writer);
    drop(slow);
    let reply = ctl.round_trip("{\"op\":\"shutdown\"}").expect("shutdown");
    assert!(parse_line(&reply).0);
    handle.join().expect("reactor joins").expect("clean drain");
}

/// Satellite 4c: graceful drain with replies still queued. Every
/// pipelined id is answered — a verified success or a typed Draining
/// error, never silence — the shutdown ack comes after them, and the
/// loop thread joins. The run must not hang regardless of how much was
/// in flight.
#[test]
fn drain_answers_every_queued_reply_before_ack() {
    let _one_server = one_server();
    // One worker and distinct scenarios: most submissions are still
    // queued (not yet solving) when the shutdown lands right behind
    // them on the same connection.
    let (addr, handle) = start_server(small_options(1), ReactorOptions::default());

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);

    let mix = generate(&MixSpec {
        requests: 24,
        seed: 41,
        include_eighth: false,
    });
    for req in &mix {
        writeln!(writer, "{}", tune_line(req)).expect("send");
    }
    writeln!(writer, "{{\"op\":\"shutdown\"}}").expect("send shutdown");
    writer.flush().expect("flush");

    let mut answered = BTreeSet::new();
    let mut drained = 0usize;
    let mut acked = false;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read") == 0 {
            break;
        }
        let (ok, v) = parse_line(&line);
        if ok && v.get("op").and_then(Value::as_str) == Some("shutdown") {
            acked = true;
            break;
        }
        let id = v.get("id").and_then(Value::as_f64).expect("correlated id") as u64;
        assert!(answered.insert(id), "id {id} answered twice");
        if !ok {
            let err = v.get("error").and_then(Value::as_str).unwrap_or_default();
            assert!(
                v.get("retry_after_ms").is_some(),
                "drain rejections must be typed retryable errors, got: {err}"
            );
            drained += 1;
        }
    }
    assert!(acked, "shutdown must be acked after the queued replies");
    assert_eq!(
        answered.len(),
        mix.len(),
        "every pipelined id is answered before the ack (drained {drained})"
    );
    handle.join().expect("reactor joins").expect("clean drain");
}

/// Sharded serving: a reactor started as shard 0 of 2 verifies routing
/// server-side — owned keys solve, foreign keys get the typed
/// `misrouted` rejection naming the owner.
#[test]
fn sharded_reactor_rejects_misrouted_keys() {
    let _one_server = one_server();
    let reactor_opts = ReactorOptions {
        shard: Some(ShardSpec { index: 0, total: 2 }),
        ..ReactorOptions::default()
    };
    let (addr, handle) = start_server(small_options(1), reactor_opts);

    // Probe scenarios until we hold one key per shard.
    let budgets = [64i64, 96, 128, 192, 256];
    let mut owned = None;
    let mut foreign = None;
    for (i, &budget) in budgets.iter().enumerate() {
        let req = TuneRequest::new(i as u64, hslb_cesm::Resolution::OneDegree, budget);
        match shard_for_key(&req.exact_key(), 2) {
            0 if owned.is_none() => owned = Some(req),
            1 if foreign.is_none() => foreign = Some(req),
            _ => {}
        }
    }
    let owned = owned.expect("some budget routes to shard 0");
    let foreign = foreign.expect("some budget routes to shard 1");

    let mut conn = hslb_service::loadclient::Conn::open(&addr).expect("connect");
    let reply = conn.round_trip(&tune_line(&foreign)).expect("reply");
    let (ok, v) = parse_line(&reply);
    assert!(!ok, "foreign key must be rejected");
    let err = v.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(
        err.contains("misrouted") && err.contains("shard 1"),
        "rejection must name the owner: {err}"
    );
    assert!(
        v.get("retry_after_ms").is_none(),
        "misrouting is terminal, not retryable"
    );

    let reply = conn.round_trip(&tune_line(&owned)).expect("reply");
    let (ok, v) = parse_line(&reply);
    assert!(ok, "owned key must solve: {reply}");
    assert_eq!(
        v.get("id").and_then(Value::as_f64),
        Some(owned.id as f64),
        "owned reply correlates"
    );

    let reply = conn.round_trip("{\"op\":\"shutdown\"}").expect("shutdown");
    assert!(parse_line(&reply).0);
    handle.join().expect("reactor joins").expect("clean drain");
}

/// Lines that are not commands get an ordinary error frame and leave
/// the server answering, on that connection and on new ones. Two of
/// them matter: 1 MB of `[` (inside the reactor's line limit) used to
/// overflow the recursive-descent JSON parser's stack and abort the
/// process, and `observe` was an op until the drift → rebalance chain
/// it fed was deleted.
#[test]
fn hostile_and_retired_lines_get_error_frames_and_the_server_lives() {
    let _one_server = one_server();
    let (addr, handle) = start_server(small_options(1), ReactorOptions::default());
    let mut conn = hslb_service::loadclient::Conn::open(&addr).expect("connect");

    let mut observe = TuneRequest::new(7, hslb_cesm::Resolution::OneDegree, 96).to_value();
    if let Value::Obj(kv) = &mut observe {
        kv.insert(0, ("op".to_string(), Value::Str("observe".to_string())));
        let times = [("lnd", 10.0), ("ice", 20.0), ("atm", 60.0), ("ocn", 55.5)];
        let times = times.map(|(c, t)| (c.to_string(), Value::Num(t)));
        kv.push(("times".to_string(), Value::Obj(times.to_vec())));
    }
    for (line, want) in [
        ("[".repeat(1_000_000), "nesting deeper"),
        (observe.to_string(), "unknown op \"observe\""),
    ] {
        let reply = conn.round_trip(&line).expect("reply");
        let (ok, v) = parse_line(&reply);
        assert!(!ok, "{reply}");
        let err = v.get("error").and_then(Value::as_str).unwrap_or_default();
        assert!(err.contains(want), "{err}");
        let pong = conn
            .round_trip("{\"op\":\"ping\"}")
            .expect("same connection");
        assert!(parse_line(&pong).0, "{pong}");
    }

    let mut fresh = hslb_service::loadclient::Conn::open(&addr).expect("reconnect");
    let pong = fresh
        .round_trip("{\"op\":\"ping\"}")
        .expect("fresh connection");
    assert!(parse_line(&pong).0, "{pong}");
    let reply = fresh.round_trip("{\"op\":\"shutdown\"}").expect("shutdown");
    assert!(parse_line(&reply).0);
    handle.join().expect("reactor joins").expect("clean drain");
}

const PING: &str = "{\"op\":\"ping\"}\n";

/// `n` back-to-back pings with a `{"op":"mark-<i>"}` line after every
/// `every`-th one. A mark is answered on the spot like a ping, but with
/// an error frame that names it, which makes reply order observable.
fn ping_burst(n: usize, every: usize) -> String {
    let mut burst = String::with_capacity(n * PING.len() + 64 * (n / every));
    for i in 1..=n {
        burst.push_str(PING);
        if i % every == 0 {
            burst.push_str(&format!("{{\"op\":\"mark-{}\"}}\n", i / every - 1));
        }
    }
    burst
}

/// Write `burst` in one go from a second thread while this one reads
/// `pings + marks` replies, checking each frame and that the marks come
/// back in order, each after exactly the pongs sent before it. Calls
/// `on_first_reply` once, after the first reply arrived (the burst is in
/// progress). Returns the time from first byte written to last reply.
fn drive_burst(
    addr: &str,
    burst: String,
    pings: usize,
    every: usize,
    on_first_reply: impl FnOnce(),
) -> Duration {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::with_capacity(1 << 16, stream.try_clone().expect("clone"));
    let started = Instant::now();
    let writer = std::thread::spawn(move || {
        let mut stream = stream;
        stream.write_all(burst.as_bytes()).map(|_| stream)
    });
    let pong = hslb_service::wire::pong_reply();
    let (mut pongs, mut marks) = (0, 0);
    let mut on_first_reply = Some(on_first_reply);
    let mut line = String::new();
    while pongs < pings || marks < pings / every {
        line.clear();
        let n = reader.read_line(&mut line).expect("reply");
        assert!(
            n > 0,
            "server closed the connection after {pongs} pongs and {marks} marks"
        );
        if let Some(f) = on_first_reply.take() {
            f();
        }
        if line.trim_end() == pong {
            pongs += 1;
            continue;
        }
        let (ok, v) = parse_line(&line);
        let err = v.get("error").and_then(Value::as_str).unwrap_or_default();
        assert!(!ok && err.contains(&format!("\"mark-{marks}\"")), "{line}");
        marks += 1;
        assert_eq!(pongs, marks * every, "mark {marks} overtook or trailed");
    }
    let elapsed = started.elapsed();
    writer
        .join()
        .expect("writer joins")
        .expect("whole burst written");
    elapsed
}

fn shutdown_server(addr: &str, handle: JoinHandle<Result<(), String>>) {
    let mut conn = hslb_service::loadclient::Conn::open(addr).expect("connect");
    let reply = conn.round_trip("{\"op\":\"shutdown\"}").expect("shutdown");
    assert!(parse_line(&reply).0);
    handle.join().expect("reactor joins").expect("clean drain");
}

/// The line cap is per line, not per pipeline: 150,000 pings (2.1 MB, the
/// longest line 19 bytes) written in one burst are all answered, in
/// order — the reactor used to close the connection once 1 MB of them
/// sat unsplit in its buffer. And the burst does not starve a neighbour:
/// a ping on a second connection, sent while the burst is being served,
/// comes back within a bounded wait.
#[test]
fn a_long_pipeline_of_short_lines_is_answered_not_closed() {
    let _one_server = one_server();
    let (addr, handle) = start_server(small_options(1), ReactorOptions::default());
    const PINGS: usize = 150_000;
    const EVERY: usize = 10_000;
    let burst = ping_burst(PINGS, EVERY);
    assert!(burst.len() > 2 * (1 << 20));

    let (tx, rx) = mpsc::channel();
    let neighbour = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut conn = hslb_service::loadclient::Conn::open(&addr).expect("connect");
            conn.round_trip(PING.trim_end()).expect("warm-up ping");
            rx.recv().expect("burst under way");
            let sent = Instant::now();
            let pong = conn.round_trip(PING.trim_end()).expect("neighbour's ping");
            assert!(parse_line(&pong).0, "{pong}");
            sent.elapsed()
        })
    };
    drive_burst(&addr, burst, PINGS, EVERY, move || {
        tx.send(()).expect("neighbour waiting")
    });
    let waited = neighbour.join().expect("neighbour joins");
    assert!(
        waited < Duration::from_millis(200),
        "a neighbour's ping waited {waited:?} behind the burst"
    );
    shutdown_server(&addr, handle);
}

/// Splitting a pipeline is linear in its bytes: three times the lines
/// take about three times as long, not nine (each split used to memmove
/// the rest of the buffer: 9.4x measured).
#[test]
fn pipeline_splitting_is_linear() {
    let _one_server = one_server();
    let (addr, handle) = start_server(small_options(1), ReactorOptions::default());
    let timed = |pings: usize| {
        // Best of three: the bound is on the work, not on the noise.
        (0..3)
            .map(|_| {
                let burst = ping_burst(pings, pings / 2);
                drive_burst(&addr, burst, pings, pings / 2, || {})
            })
            .min()
            .expect("three runs")
    };
    let small = timed(20_000);
    let large = timed(60_000);
    assert!(
        large < small * 5,
        "60,000 pings took {large:?}, 20,000 took {small:?}: more than 5x"
    );
    shutdown_server(&addr, handle);
}

/// The cap still holds for what it is for. A frame is a line and its
/// newline, at most 1 MiB together: one byte short is parsed (and
/// refused as JSON, on a connection that stays open), one byte over
/// with no newline in sight closes the connection.
#[test]
fn an_endless_line_is_still_closed_and_a_long_one_still_parsed() {
    let _one_server = one_server();
    let (addr, handle) = start_server(small_options(1), ReactorOptions::default());
    const MIB: usize = 1 << 20;

    let mut conn = hslb_service::loadclient::Conn::open(&addr).expect("connect");
    let reply = conn.round_trip(&"x".repeat(MIB - 1)).expect("a reply");
    let (ok, v) = parse_line(&reply);
    let err = v.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(!ok && err.contains("bad JSON"), "{reply}");
    let pong = conn.round_trip(PING.trim_end()).expect("same connection");
    assert!(parse_line(&pong).0, "{pong}");

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    // The server may reset the connection before the last bytes are
    // written; what matters is what the client reads back.
    let _ = stream.write_all(&vec![b'x'; MIB + 1]);
    let mut rest = Vec::new();
    match stream.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "an endless line was answered"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    shutdown_server(&addr, handle);
}

/// Frames the reactor answers itself (pings, protocol errors) keep their
/// order on a connection whatever is pipelined between them; tune replies
/// arrive when their solves finish, each id exactly once.
#[test]
fn mixed_pipelines_keep_reply_order_per_connection() {
    let _one_server = one_server();
    let (addr, handle) = start_server(small_options(2), ReactorOptions::default());
    const ROUNDS: usize = 40;
    let budgets = [64i64, 96, 128, 192];
    let mut pipeline = String::new();
    for i in 0..ROUNDS {
        let req = TuneRequest::new(i as u64, hslb_cesm::Resolution::OneDegree, budgets[i % 4]);
        pipeline.push_str(&tune_line(&req));
        pipeline.push('\n');
        pipeline.push_str(PING);
        pipeline.push_str(&format!("{{\"op\":\"mark-{i}\"}}\n"));
    }
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    (&stream)
        .write_all(pipeline.as_bytes())
        .expect("send pipeline");

    let pong = hslb_service::wire::pong_reply();
    let mut tuned = BTreeSet::new();
    let (mut pongs, mut marks) = (0, 0);
    for _ in 0..3 * ROUNDS {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        if line.trim_end() == pong {
            // The i-th pong goes out before the i-th mark and after the
            // one before it.
            assert_eq!(pongs, marks, "{line}");
            pongs += 1;
            continue;
        }
        let (ok, v) = parse_line(&line);
        if ok {
            let id = v.get("id").and_then(Value::as_f64).expect("tune reply id") as usize;
            assert!(
                id < ROUNDS && tuned.insert(id),
                "id {id} unknown or repeated"
            );
        } else {
            let err = v.get("error").and_then(Value::as_str).unwrap_or_default();
            assert!(err.contains(&format!("\"mark-{marks}\"")), "{line}");
            marks += 1;
            assert_eq!(pongs, marks, "{line}");
        }
    }
    assert_eq!((tuned.len(), pongs, marks), (ROUNDS, ROUNDS, ROUNDS));
    shutdown_server(&addr, handle);
}
