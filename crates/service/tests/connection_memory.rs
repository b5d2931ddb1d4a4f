//! A connection gives back what one burst made it allocate.
//!
//! One test in its own binary, so no neighbour shares the process whose
//! `VmRSS` it reads. The reactor used to keep each connection's parse
//! buffer and outbound queue at their high-water capacity until the
//! connection closed: after one ~900 KB pipelined burst each, 32 idle
//! connections pinned ~75 MB in all.

use hslb_service::reactor::{Reactor, ReactorOptions};
use hslb_service::{ServiceOptions, TuningService};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

const PING: &str = "{\"op\":\"ping\"}\n";

/// Resident set size of this process in KB (`None` where `/proc` is not
/// mounted).
fn vm_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Pipeline `pings` pings on `stream` from a writer thread and read every
/// reply on this one; the connection stays open.
fn burst(stream: &TcpStream, pings: usize) {
    let mut writer = stream.try_clone().expect("clone");
    let sender = std::thread::spawn(move || writer.write_all(PING.repeat(pings).as_bytes()));
    let pong = hslb_service::wire::pong_reply();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    for i in 0..pings {
        line.clear();
        let n = reader.read_line(&mut line).expect("reply");
        assert!(n > 0, "server closed the connection after {i} pongs");
        assert_eq!(line.trim_end(), pong);
    }
    sender.join().expect("writer joins").expect("burst written");
}

#[test]
fn idle_connections_do_not_keep_their_burst_buffers() {
    if vm_rss_kb().is_none() {
        println!("skipped: /proc/self/status is not readable here");
        return;
    }
    const CONNECTIONS: usize = 32;
    const PINGS: usize = 900_000 / 14; // ~900 KB of 14-byte lines
    const ALLOWED_GROWTH_KB: u64 = 8 * 1024;

    let service = Arc::new(TuningService::start(ServiceOptions::default()));
    let reactor = Reactor::bind("127.0.0.1:0", service, ReactorOptions::default()).expect("bind");
    let addr = reactor.local_addr().to_string();
    let server = std::thread::spawn(move || reactor.run());

    // Warm-up: every connection open and answered once, and one burst
    // on a connection that is then closed, so the allocator has already
    // seen a burst's worth of buffers before the baseline is read.
    let conns: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    for conn in &conns {
        burst(conn, 1);
    }
    burst(&TcpStream::connect(&addr).expect("connect"), PINGS);
    let before = vm_rss_kb().expect("VmRSS");

    for conn in &conns {
        burst(conn, PINGS);
    }
    let after = vm_rss_kb().expect("VmRSS");
    let grew = after.saturating_sub(before);
    println!("VmRSS {before} KB -> {after} KB over {CONNECTIONS} bursts");
    assert!(
        grew < ALLOWED_GROWTH_KB,
        "{CONNECTIONS} idle connections kept {grew} KB after one burst each \
         ({before} -> {after} KB)"
    );

    let mut conn = hslb_service::loadclient::Conn::open(&addr).expect("connect");
    conn.round_trip("{\"op\":\"shutdown\"}").expect("shutdown");
    drop(conns);
    server.join().expect("reactor joins").expect("clean drain");
}
