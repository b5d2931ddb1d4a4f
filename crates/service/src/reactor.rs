//! The std-only nonblocking readiness loop behind `hslb-serve`.
//!
//! One thread multiplexes every connection: accept, read, parse,
//! dispatch, and write-backpressure all run on a single deterministic
//! sweep over nonblocking sockets (`set_nonblocking(true)` on the
//! listener and every stream). This replaces both the
//! thread-per-connection accept loop and the thread-per-resolved-reply
//! spawn of the original server — at 10,000 connections the process
//! still holds exactly `workers + 1` long-lived threads.
//!
//! Why not epoll/kqueue: the workspace carries `forbid(unsafe_code)`
//! and vendors no FFI crates, so raw readiness syscalls are out of
//! reach by design. The loop instead sweeps nonblocking sockets in
//! index order and parks on a ranked condvar with a millisecond bound
//! between sweeps whenever a full pass made no progress. A sweep over
//! N idle connections is N cheap `EWOULDBLOCK` reads — measured well
//! past 5,000 connections this stays comfortably inside the smoke-gate
//! budget, and the structure (per-connection read buffer, per-connection
//! bounded outbound queue, completion bus) is exactly what an epoll
//! registration would drive, so swapping the wait primitive later is a
//! local change.
//!
//! Reply delivery without threads: a tune submission registers a
//! [`Ticket::on_resolve`] callback that serializes the reply on the
//! *resolving* thread (a worker, the drain path, or the reactor itself
//! for cache hits) and pushes it onto the completion bus; the loop
//! drains the bus into the owning connection's outbound queue and
//! writes as the socket accepts bytes. A connection generation counter
//! guards the bus against replies for a connection slot that was
//! closed and reused.
//!
//! Backpressure and faults are explicit:
//!
//! * a slow reader (client stopped draining its socket) is disconnected
//!   once its outbound queue passes [`ReactorOptions::max_outbound_bytes`]
//!   — queue memory is bounded per connection, and the client observes
//!   a broken connection (a typed, retryable condition), never a stall.
//!   Streamed sweep *progress* frames count against the same cap but are
//!   coalesced first: while earlier bytes sit unread, only the latest
//!   progress frame stays staged (drop-intermediate, keep-latest), so a
//!   slow client loses progress beats — never the final portfolio, and
//!   never the connection;
//! * injected connection faults ([`ConnFault::Drop`]/
//!   [`ConnFault::Truncate`]) are applied at the outbound-enqueue point,
//!   exactly where the old server applied them at write time;
//! * graceful drain: a `shutdown` command stops the sweep, drains the
//!   service (queued-but-unstarted requests resolve as typed `Draining`
//!   errors through their callbacks), flushes every connection's
//!   queued-but-unwritten replies under a hard deadline, acks, and
//!   returns — it can be slow under fault injection, never hung.

use crate::fault::{ConnFault, ServiceFaultSpec};
use crate::ranked::{rank, RankedCondvar, RankedMutex};
use crate::service::{TicketResult, TuningService};
use crate::shard::{shard_for_key, ShardSpec};
use crate::wire;
use hslb_telemetry::json::Value;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on one wire frame (a line and its newline): a longer one,
/// terminated or not, is a protocol error and closes the connection.
/// The cap is on each line, never on how many short lines a client has
/// pipelined: reading pauses while the buffer holds this many unsplit
/// bytes and resumes once they are split (TCP holds the rest back).
const MAX_LINE_BYTES: usize = 1 << 20;

/// Read chunk size per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Whether a connection buffer should shrink to [`READ_CHUNK`]: it holds
/// under one chunk in more than four chunks of capacity. That releases a
/// burst once; a steady pipeliner's buffers never cross the line.
fn holds_a_burst(len: usize, capacity: usize) -> bool {
    len < READ_CHUNK && capacity > 4 * READ_CHUNK
}

/// Reply-queue depth histogram resolution: depths at or above the last
/// bucket saturate into it.
const DEPTH_BUCKETS: usize = 4096;

/// Concurrent sweeps a server runs at once; beyond this a `sweep`
/// command gets a typed, retryable rejection. Each sweep occupies one
/// driver thread for its whole run, so this bounds thread count the way
/// the admission queue bounds work.
const MAX_ACTIVE_SWEEPS: usize = 4;

/// Configuration of the readiness loop (everything service-independent).
#[derive(Debug, Clone)]
pub struct ReactorOptions {
    /// This process's shard identity (`--shard i/N`); `None` serves the
    /// whole keyspace. A sharded reactor rejects tune requests whose
    /// exact key routes elsewhere with a typed `misrouted` error.
    pub shard: Option<ShardSpec>,
    /// Connection-fault injection spec (drop/truncate draws per
    /// request id, applied to tune replies).
    pub faults: ServiceFaultSpec,
    /// Per-connection outbound queue cap in bytes; a connection whose
    /// unread replies pass this is disconnected (slow-reader policy).
    pub max_outbound_bytes: usize,
    /// Upper bound on the post-shutdown flush of queued replies.
    pub drain_deadline_ms: u64,
}

impl Default for ReactorOptions {
    fn default() -> ReactorOptions {
        ReactorOptions {
            shard: None,
            faults: ServiceFaultSpec::default(),
            max_outbound_bytes: 8 << 20,
            drain_deadline_ms: 5_000,
        }
    }
}

/// Connection-scale accounting, exposed through the wire `stats` op as
/// the `serving` block (and probed by `loadgen` for its report).
#[derive(Debug, Clone, PartialEq)]
pub struct ServingStats {
    /// Connections currently open.
    pub connections: usize,
    /// High-water mark of concurrently open connections.
    pub peak_connections: usize,
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Connections closed for any reason.
    pub closed: u64,
    /// Closures forced by the slow-reader outbound cap.
    pub slow_closed: u64,
    /// Closures forced by injected connection faults.
    pub faulted_closes: u64,
    /// Sweep progress frames dropped in favor of a newer frame while
    /// the connection's outbound queue was non-empty (slow reader).
    pub progress_coalesced: u64,
    /// Reply-queue depth (frames queued on a connection at enqueue
    /// time), percentiles over every enqueue so far.
    pub reply_queue_p50: f64,
    pub reply_queue_p90: f64,
    pub reply_queue_p99: f64,
    pub reply_queue_max: f64,
    /// Shard identity when sharded.
    pub shard: Option<ShardSpec>,
}

impl ServingStats {
    /// The `serving` block of the stats reply.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            (
                "connections".to_string(),
                Value::Num(self.connections as f64),
            ),
            (
                "peak_connections".to_string(),
                Value::Num(self.peak_connections as f64),
            ),
            ("accepted".to_string(), Value::Num(self.accepted as f64)),
            ("closed".to_string(), Value::Num(self.closed as f64)),
            (
                "slow_closed".to_string(),
                Value::Num(self.slow_closed as f64),
            ),
            (
                "faulted_closes".to_string(),
                Value::Num(self.faulted_closes as f64),
            ),
            (
                "progress_coalesced".to_string(),
                Value::Num(self.progress_coalesced as f64),
            ),
            (
                "reply_queue_depth".to_string(),
                Value::Obj(vec![
                    ("p50".to_string(), Value::Num(self.reply_queue_p50)),
                    ("p90".to_string(), Value::Num(self.reply_queue_p90)),
                    ("p99".to_string(), Value::Num(self.reply_queue_p99)),
                    ("max".to_string(), Value::Num(self.reply_queue_max)),
                ]),
            ),
            (
                "shard".to_string(),
                self.shard.map_or(Value::Null, |s| {
                    Value::Obj(vec![
                        ("index".to_string(), Value::Num(s.index as f64)),
                        ("total".to_string(), Value::Num(s.total as f64)),
                    ])
                }),
            ),
        ])
    }
}

/// How the loop treats a bus reply on its way to the outbound queue.
#[derive(Clone, Copy, PartialEq)]
enum ReplyKind {
    /// A terminal reply: decrements the connection's inflight count and
    /// is always delivered (tune replies, the sweep portfolio).
    Final,
    /// A streamed progress beat: never decrements inflight, and while
    /// the connection has unread outbound bytes only the latest one
    /// stays staged (drop-intermediate, keep-latest).
    Progress,
}

/// One resolved reply in flight from a resolving thread to the loop:
/// the serialized line plus the connection it belongs to (guarded by
/// the slot generation) and its per-id fault draw.
struct Reply {
    conn: usize,
    gen: u64,
    line: String,
    fault: ConnFault,
    kind: ReplyKind,
}

/// The completion bus: resolving threads push serialized replies, the
/// loop drains them into per-connection outbound queues. The condvar
/// doubles as the loop's idle parking spot, so a reply arriving while
/// the loop sleeps wakes it immediately.
struct Bus {
    resolved: RankedMutex<VecDeque<Reply>, { rank::COMPLETION_BUS }>,
    wake: RankedCondvar<{ rank::COMPLETION_BUS }>,
}

impl Bus {
    fn push(&self, reply: Reply) {
        let mut q = self.resolved.lock();
        q.push_back(reply);
        drop(q);
        self.wake.notify_one();
    }

    fn drain(&self) -> Vec<Reply> {
        let mut q = self.resolved.lock();
        q.drain(..).collect()
    }

    /// Park until woken or `ms` elapsed (the loop's idle wait — bounded,
    /// so socket readiness is re-polled even without a wake).
    fn wait_ms(&self, ms: u64) {
        let q = self.resolved.lock();
        if q.is_empty() {
            let _ = self.wake.wait_timeout(q, Duration::from_millis(ms));
        }
    }
}

/// Per-connection state: unparsed inbound bytes, pending outbound
/// bytes, and the bookkeeping the sweep needs.
struct Conn {
    stream: TcpStream,
    /// Holds only an unterminated tail between sweeps: `process_lines`
    /// splits off every complete line each time it runs.
    rbuf: Vec<u8>,
    /// rbuf prefix already scanned for a newline (avoids re-scanning on
    /// every partial read of a long line).
    scanned: usize,
    out: VecDeque<u8>,
    /// Reply frames currently queued in `out` (depth gauge).
    queued_frames: usize,
    /// Tune tickets submitted on this connection and not yet replied.
    inflight: usize,
    /// Slot generation — stale bus replies for a reused slot are dropped.
    gen: u64,
    /// The latest sweep progress frame staged while `out` was non-empty;
    /// promoted into `out` as soon as the queue drains.
    staged_progress: Option<String>,
    /// Peer sent FIN; stop reading, finish writing, then close.
    peer_eof: bool,
    /// Close once the outbound queue fully drains (truncate faults,
    /// protocol errors).
    close_after_flush: bool,
}

/// Why the loop closed a connection (counter bookkeeping).
#[derive(Clone, Copy, PartialEq)]
enum CloseReason {
    Normal,
    SlowReader,
    Fault,
}

/// The readiness loop. Bind with [`Reactor::bind`], then [`Reactor::run`]
/// serves until a `shutdown` command completes its drain.
pub struct Reactor {
    listener: TcpListener,
    local_addr: SocketAddr,
    service: Arc<TuningService>,
    opts: ReactorOptions,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    open: usize,
    next_gen: u64,
    bus: Arc<Bus>,
    accepted: u64,
    closed: u64,
    slow_closed: u64,
    faulted_closes: u64,
    progress_coalesced: u64,
    peak_connections: usize,
    depth_hist: Vec<u64>,
    depth_max: usize,
    active_sweeps: Arc<AtomicUsize>,
    /// Scratch for `read`, shared by every connection (the loop is one
    /// thread, and a chunk is copied into `rbuf` before the next read).
    read_chunk: Vec<u8>,
}

impl Reactor {
    /// Bind the listener (nonblocking) and wrap the service.
    pub fn bind(
        addr: &str,
        service: Arc<TuningService>,
        opts: ReactorOptions,
    ) -> Result<Reactor, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking(listener): {e}"))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        Ok(Reactor {
            listener,
            local_addr,
            service,
            opts,
            conns: Vec::new(),
            free: Vec::new(),
            open: 0,
            next_gen: 0,
            bus: Arc::new(Bus {
                resolved: RankedMutex::new(VecDeque::new()),
                wake: RankedCondvar::new(),
            }),
            accepted: 0,
            closed: 0,
            slow_closed: 0,
            faulted_closes: 0,
            progress_coalesced: 0,
            peak_connections: 0,
            depth_hist: vec![0; DEPTH_BUCKETS + 1],
            depth_max: 0,
            active_sweeps: Arc::new(AtomicUsize::new(0)),
            read_chunk: vec![0; READ_CHUNK],
        })
    }

    /// The bound address (how an ephemeral `--addr host:0` is published).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current connection-scale accounting.
    pub fn serving_stats(&self) -> ServingStats {
        let total: u64 = self.depth_hist.iter().sum();
        let pct = |p: f64| -> f64 {
            if total == 0 {
                return 0.0;
            }
            let target = (p / 100.0 * total as f64).ceil().max(1.0) as u64;
            let mut cum = 0u64;
            for (depth, &count) in self.depth_hist.iter().enumerate() {
                cum += count;
                if cum >= target {
                    return depth as f64;
                }
            }
            self.depth_max as f64
        };
        ServingStats {
            connections: self.open,
            peak_connections: self.peak_connections,
            accepted: self.accepted,
            closed: self.closed,
            slow_closed: self.slow_closed,
            faulted_closes: self.faulted_closes,
            progress_coalesced: self.progress_coalesced,
            reply_queue_p50: pct(50.0),
            reply_queue_p90: pct(90.0),
            reply_queue_p99: pct(99.0),
            reply_queue_max: self.depth_max as f64,
            shard: self.opts.shard,
        }
    }

    /// Serve until a client sends `shutdown`: drain the service, flush
    /// every queued reply (bounded by `drain_deadline_ms`), ack, and
    /// return. Never hangs: every exit path is deadline-bounded.
    pub fn run(mut self) -> Result<(), String> {
        loop {
            let mut progress = false;
            progress |= self.drain_bus();
            progress |= self.accept_new();
            let mut shutdown_from: Option<usize> = None;
            for idx in 0..self.conns.len() {
                if self.conns[idx].is_none() {
                    continue;
                }
                progress |= self.flush_writes(idx);
                if self.conns[idx].is_none() {
                    continue;
                }
                progress |= self.read_available(idx);
                if self.conns[idx].is_none() {
                    continue;
                }
                if let Some(()) = self.process_lines(idx, &mut progress) {
                    shutdown_from = Some(idx);
                    break;
                }
                self.finish_sweep_checks(idx);
            }
            if let Some(idx) = shutdown_from {
                return self.drain_and_ack(idx);
            }
            if !progress {
                self.bus.wait_ms(1);
            }
        }
    }

    /// Move resolved replies from the bus into their connections'
    /// outbound queues, applying the per-id connection fault.
    fn drain_bus(&mut self) -> bool {
        let replies = self.bus.drain();
        let progress = !replies.is_empty();
        for reply in replies {
            let Some(conn) = self.conns.get_mut(reply.conn).and_then(Option::as_mut) else {
                continue; // connection long gone
            };
            if conn.gen != reply.gen {
                continue; // slot was reused
            }
            if reply.kind == ReplyKind::Progress {
                // Drop-intermediate, keep-latest: while the client has
                // unread bytes, stage only the newest progress frame so
                // a slow reader cannot be pushed past the outbound cap
                // by its own sweep's beats.
                if conn.out.is_empty() && conn.staged_progress.is_none() {
                    self.enqueue_frame(reply.conn, &reply.line);
                } else {
                    if conn.staged_progress.is_some() {
                        self.progress_coalesced += 1;
                    }
                    conn.staged_progress = Some(reply.line);
                }
                continue;
            }
            conn.inflight = conn.inflight.saturating_sub(1);
            if let Some(staged) = conn.staged_progress.take() {
                // Deliver the last staged beat ahead of the terminal
                // frame so the stream stays ordered.
                self.enqueue_frame(reply.conn, &staged);
                if self
                    .conns
                    .get(reply.conn)
                    .and_then(Option::as_ref)
                    .is_none()
                {
                    continue; // the promotion tripped the slow-reader cap
                }
            }
            match reply.fault {
                ConnFault::None => {
                    self.enqueue_frame(reply.conn, &reply.line);
                }
                ConnFault::Drop => {
                    self.faulted_closes += 1;
                    self.close(reply.conn, CloseReason::Fault);
                }
                ConnFault::Truncate => {
                    // Half the frame, no newline, then close once those
                    // bytes hit the wire: the client sees a truncated
                    // frame and a broken connection, never a reply it
                    // could mistake for a complete one.
                    let half = &reply.line.as_bytes()[..reply.line.len() / 2];
                    if let Some(conn) = self.conns.get_mut(reply.conn).and_then(Option::as_mut) {
                        conn.out.extend(half.iter().copied());
                        conn.close_after_flush = true;
                        self.faulted_closes += 1;
                    }
                }
            }
        }
        progress
    }

    /// Accept every pending connection (nonblocking, until WouldBlock).
    fn accept_new(&mut self) -> bool {
        let mut progress = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        let _ = stream.shutdown(Shutdown::Both);
                        continue;
                    }
                    self.accepted += 1;
                    self.next_gen += 1;
                    let conn = Conn {
                        stream,
                        rbuf: Vec::new(),
                        scanned: 0,
                        out: VecDeque::new(),
                        queued_frames: 0,
                        inflight: 0,
                        gen: self.next_gen,
                        staged_progress: None,
                        peer_eof: false,
                        close_after_flush: false,
                    };
                    match self.free.pop() {
                        Some(idx) => self.conns[idx] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                    self.open += 1;
                    self.peak_connections = self.peak_connections.max(self.open);
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break, // transient accept error; retry next sweep
            }
        }
        progress
    }

    /// Write as much queued outbound as the socket accepts.
    fn flush_writes(&mut self, idx: usize) -> bool {
        let mut progress = false;
        let mut close: Option<CloseReason> = None;
        let mut promote: Option<String> = None;
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            while !conn.out.is_empty() {
                let (front, _) = conn.out.as_slices();
                match conn.stream.write(front) {
                    Ok(0) => {
                        close = Some(CloseReason::Normal);
                        break;
                    }
                    Ok(n) => {
                        conn.out.drain(..n);
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close = Some(CloseReason::Normal);
                        break;
                    }
                }
            }
            if close.is_none() && conn.out.is_empty() {
                conn.queued_frames = 0;
                if holds_a_burst(0, conn.out.capacity()) {
                    conn.out.shrink_to(READ_CHUNK);
                }
                if conn.close_after_flush {
                    close = Some(CloseReason::Normal);
                } else {
                    // The client caught up: the latest coalesced sweep
                    // beat (if any) goes out now.
                    promote = conn.staged_progress.take();
                }
            }
        }
        if let Some(reason) = close {
            self.close(idx, reason);
        } else if let Some(line) = promote {
            self.enqueue_frame(idx, &line);
            progress = true;
        }
        progress
    }

    /// Pull readable bytes into the connection's parse buffer, until the
    /// socket runs dry or the buffer holds a full frame's worth of bytes
    /// nobody has split yet; `process_lines` runs next and decides
    /// whether those are many short lines or one endless one.
    fn read_available(&mut self, idx: usize) -> bool {
        let mut progress = false;
        let mut close = false;
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            if conn.peer_eof {
                return false;
            }
            while conn.rbuf.len() <= MAX_LINE_BYTES {
                match conn.stream.read(&mut self.read_chunk) {
                    Ok(0) => {
                        conn.peer_eof = true;
                        progress = true;
                        break;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&self.read_chunk[..n]);
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
        }
        if close {
            self.close(idx, CloseReason::Normal);
        }
        progress
    }

    /// Split every complete line out of the read buffer and dispatch it.
    /// A cursor walks the batch and the buffer is drained once at the
    /// end, so a pipeline of n lines costs O(bytes), not n memmoves.
    /// Returns `Some(())` when a `shutdown` command arrived.
    fn process_lines(&mut self, idx: usize, progress: &mut bool) -> Option<()> {
        // The buffer leaves the connection for the batch: `dispatch`
        // needs the whole reactor, and may close this very connection.
        let (mut rbuf, mut from) = {
            let conn = self.conns.get_mut(idx).and_then(Option::as_mut)?;
            (std::mem::take(&mut conn.rbuf), conn.scanned)
        };
        let mut start = 0; // everything before it has been dispatched
        let mut shutdown = false;
        while let Some(pos) = rbuf[from..].iter().position(|&b| b == b'\n') {
            let end = from + pos;
            if end - start >= MAX_LINE_BYTES {
                break; // left in the buffer for the check below
            }
            let line = String::from_utf8_lossy(&rbuf[start..end]);
            start = end + 1;
            from = start;
            *progress = true;
            let line = line.trim_end_matches('\r');
            if line.trim().is_empty() {
                continue;
            }
            if self.dispatch(idx, line) {
                shutdown = true;
                break;
            }
            // Gone when the reply tripped the slow-reader cap.
            self.conns[idx].as_ref()?;
        }
        rbuf.drain(..start);
        if holds_a_burst(rbuf.len(), rbuf.capacity()) {
            rbuf.shrink_to(READ_CHUNK);
        }
        if !shutdown && rbuf.len() > MAX_LINE_BYTES {
            // What is left starts with a line longer than a frame may
            // be, terminated or not: protocol violation.
            self.close(idx, CloseReason::Normal);
            return None;
        }
        let conn = self.conns.get_mut(idx).and_then(Option::as_mut)?;
        // Scanned to the end unless a shutdown cut the batch short.
        conn.scanned = if shutdown { 0 } else { rbuf.len() };
        conn.rbuf = rbuf;
        shutdown.then_some(())
    }

    /// Dispatch one command line; `true` means a shutdown was requested.
    fn dispatch(&mut self, idx: usize, line: &str) -> bool {
        match wire::parse_command(line) {
            Err(msg) => self.enqueue_frame(idx, &wire::protocol_error_reply(&msg)),
            Ok(wire::Command::Ping) => self.enqueue_frame(idx, &wire::pong_reply()),
            Ok(wire::Command::Stats) => {
                let reply = wire::stats_reply_with(
                    &self.service.stats(),
                    Some(self.serving_stats().to_value()),
                );
                self.enqueue_frame(idx, &reply);
            }
            Ok(wire::Command::Health) => {
                let reply = wire::health_reply(&self.service.health());
                self.enqueue_frame(idx, &reply);
            }
            Ok(wire::Command::Tune(req)) => {
                let id = req.id;
                if let Some(spec) = self.opts.shard {
                    let owner = shard_for_key(&req.exact_key(), spec.total);
                    if owner != spec.index {
                        self.enqueue_frame(idx, &wire::misrouted_reply(id, owner, spec));
                        return false;
                    }
                }
                // The fault draw is per request id, fixed at dispatch so
                // the same seeded spec faults the same ids as the old
                // write-path injection did.
                let fault = self.opts.faults.conn(id);
                match self.service.submit(req) {
                    Err(err) => self.enqueue_frame(idx, &wire::error_reply(Some(id), &err)),
                    Ok(ticket) => {
                        let (gen, bus) = {
                            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut)
                            else {
                                return false;
                            };
                            conn.inflight += 1;
                            (conn.gen, Arc::clone(&self.bus))
                        };
                        ticket.on_resolve(move |result: TicketResult| {
                            let line = match result {
                                Ok(resp) => wire::tune_reply(&resp),
                                Err(err) => wire::error_reply(Some(id), &err),
                            };
                            bus.push(Reply {
                                conn: idx,
                                gen,
                                line,
                                fault,
                                kind: ReplyKind::Final,
                            });
                        });
                    }
                }
            }
            Ok(wire::Command::Sweep(spec)) => {
                // Bound concurrent sweeps: each one holds a driver
                // thread for its full run.
                let claimed = self
                    .active_sweeps
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                        (n < MAX_ACTIVE_SWEEPS).then_some(n + 1)
                    })
                    .is_ok();
                if !claimed {
                    let reply = wire::sweep_error_reply(
                        &format!("sweep capacity reached ({MAX_ACTIVE_SWEEPS} active)"),
                        Some(250),
                    );
                    self.enqueue_frame(idx, &reply);
                    return false;
                }
                let (gen, bus) = {
                    let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                        self.active_sweeps.fetch_sub(1, Ordering::SeqCst);
                        return false;
                    };
                    conn.inflight += 1; // released by the final frame
                    (conn.gen, Arc::clone(&self.bus))
                };
                let service = Arc::clone(&self.service);
                let active = Arc::clone(&self.active_sweeps);
                std::thread::spawn(move || {
                    let telemetry = hslb_telemetry::Telemetry::disabled();
                    let progress_bus = Arc::clone(&bus);
                    let result = crate::sweep_driver::run_sweep(&service, &spec, &telemetry, |p| {
                        progress_bus.push(Reply {
                            conn: idx,
                            gen,
                            line: wire::sweep_progress_reply(p),
                            fault: ConnFault::None,
                            kind: ReplyKind::Progress,
                        });
                    });
                    let line = match result {
                        Ok(portfolio) => wire::sweep_portfolio_reply(&portfolio),
                        Err(msg) => wire::sweep_error_reply(&msg, None),
                    };
                    bus.push(Reply {
                        conn: idx,
                        gen,
                        line,
                        fault: ConnFault::None,
                        kind: ReplyKind::Final,
                    });
                    active.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Ok(wire::Command::Shutdown) => return true,
        }
        false
    }

    /// Post-sweep per-connection checks: slow-reader cap and half-closed
    /// connections that have fully drained.
    fn finish_sweep_checks(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if conn.out.len() > self.opts.max_outbound_bytes {
            self.slow_closed += 1;
            self.close(idx, CloseReason::SlowReader);
            return;
        }
        if conn.peer_eof && conn.inflight == 0 && conn.out.is_empty() {
            self.close(idx, CloseReason::Normal);
        }
    }

    /// Append one reply frame to a connection's outbound queue and
    /// record the queue depth; enforce the slow-reader cap immediately
    /// so a flood of replies cannot overshoot it by a full sweep.
    fn enqueue_frame(&mut self, idx: usize, line: &str) {
        let over_cap = {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            conn.out.extend(line.as_bytes().iter().copied());
            conn.out.push_back(b'\n');
            conn.queued_frames += 1;
            let depth = conn.queued_frames.min(DEPTH_BUCKETS);
            self.depth_hist[depth] += 1;
            self.depth_max = self.depth_max.max(conn.queued_frames);
            conn.out.len() > self.opts.max_outbound_bytes
        };
        if over_cap {
            self.slow_closed += 1;
            self.close(idx, CloseReason::SlowReader);
        }
    }

    fn close(&mut self, idx: usize, _reason: CloseReason) {
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) {
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.free.push(idx);
            self.open = self.open.saturating_sub(1);
            self.closed += 1;
        }
    }

    /// The graceful drain: stop the world, resolve everything, flush
    /// everything (bounded), ack on the requesting connection, return.
    fn drain_and_ack(mut self, shutdown_idx: usize) -> Result<(), String> {
        // Drain the service: in-flight requests finish, queued ones
        // resolve as typed `Draining` errors — every outstanding ticket
        // fires its callback before this returns, so after one more bus
        // drain every reply the server will ever produce is queued.
        self.service.shutdown();
        self.drain_bus();
        let deadline = Instant::now() + Duration::from_millis(self.opts.drain_deadline_ms);
        self.flush_all_until(deadline);
        // The ack goes last, after this connection's queued replies.
        self.enqueue_frame(shutdown_idx, &wire::shutdown_reply());
        self.flush_all_until(deadline.max(Instant::now() + Duration::from_millis(250)));
        Ok(())
    }

    /// Keep writing until every outbound queue is empty or the deadline
    /// passes (a vanished client cannot hold the drain hostage).
    fn flush_all_until(&mut self, deadline: Instant) {
        loop {
            let mut pending = false;
            let mut progress = false;
            for idx in 0..self.conns.len() {
                if self.conns[idx].is_none() {
                    continue;
                }
                progress |= self.flush_writes(idx);
                if let Some(conn) = self.conns.get(idx).and_then(Option::as_ref) {
                    pending |= !conn.out.is_empty();
                }
            }
            if !pending || Instant::now() >= deadline {
                return;
            }
            if !progress {
                self.bus.wait_ms(1);
            }
        }
    }
}

/// Atomically publish the bound address: write `<path>.tmp`, then
/// rename over `path` — the same idiom the snapshot writer uses, so a
/// reader polling for the file can never observe a partially written
/// `host:port`.
pub fn write_port_file(path: &str, addr: &str) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, addr).map_err(|e| format!("write {tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {tmp} -> {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_file_write_is_atomic() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("hslb-reactor-port-{}.txt", std::process::id()));
        let path = path.to_string_lossy().to_string();
        write_port_file(&path, "127.0.0.1:4567").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "127.0.0.1:4567");
        // Overwrite goes through the same tmp+rename path.
        write_port_file(&path, "127.0.0.1:89").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "127.0.0.1:89");
        assert!(
            !std::path::Path::new(&format!("{path}.tmp")).exists(),
            "tmp file must be renamed away"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serving_stats_block_shape() {
        let stats = ServingStats {
            connections: 3,
            peak_connections: 9,
            accepted: 12,
            closed: 9,
            slow_closed: 1,
            faulted_closes: 2,
            progress_coalesced: 5,
            reply_queue_p50: 1.0,
            reply_queue_p90: 4.0,
            reply_queue_p99: 7.0,
            reply_queue_max: 7.0,
            shard: Some(ShardSpec { index: 1, total: 2 }),
        };
        let v = stats.to_value();
        assert_eq!(v.get("peak_connections").and_then(Value::as_f64), Some(9.0));
        assert_eq!(
            v.get("progress_coalesced").and_then(Value::as_f64),
            Some(5.0)
        );
        let depth = v.get("reply_queue_depth").unwrap();
        assert_eq!(depth.get("p99").and_then(Value::as_f64), Some(7.0));
        let shard = v.get("shard").unwrap();
        assert_eq!(shard.get("index").and_then(Value::as_f64), Some(1.0));
    }
}
