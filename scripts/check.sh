#!/usr/bin/env bash
# Repository gate: build, tests, lints, audits. CI and pre-merge both run
# this.
#
#   scripts/check.sh           # everything
#   scripts/check.sh --fast    # skip the release build, the benchmark
#                              # harness and the end-to-end gates
#
# The clippy step is strict (-D warnings) across every target, including
# tests: the workspace carries `warn(clippy::unwrap_used,
# clippy::expect_used)` on the library crates' non-test code, so a new
# unwrap on a fault path fails the gate here rather than panicking on a
# cluster.
#
# `benchmark/` is its own workspace, so `cargo test --workspace` never
# compiles it: the full mode runs `benchmark/run.sh --smoke` (the
# harness's self-tests, among them its suite at 1/20 of the counts held
# to BENCHMARK.json) so a public name the harness uses cannot disappear
# unnoticed until the benchmark run itself.
#
# The audit gate (DESIGN.md §11) has two levels. Level 2 — `audit-source`,
# a token-level scan (hand-rolled lexer, so comments and strings neither
# create nor mask findings) of the workspace for nondeterminism
# primitives, raw float equality, lock acquisitions inside an
# admission-queue shard critical section, telemetry reads from solver or
# service code, and raw locks or raw blocking calls in the serving layer
# (crates/service/src, crates/sweep/src: every lock and every sleep,
# join, channel receive, accept, connect and socket read/write there goes
# through the `ranked` wrappers, which check the runtime lock rule of
# DESIGN.md §16 — at most one guard per thread, none across a blocking
# call). It runs in both modes with `--check-allow` (stale allowlist
# entries fail the gate); deliberate exceptions live in
# scripts/audit.allow, one justified line each. Level 1 —
# `audit-instances`, the convexity/well-formedness certificate over every
# benchmark scenario plus the seeded non-convex rejection self-test —
# needs release solves and runs in the full mode. The full mode also
# rebuilds the service crate with debug assertions on, so the wrappers'
# runtime lock-rule checks are exercised by compilation even in the
# release-profile gate.
#
# The service smoke gate (DESIGN.md §12) starts `hslb-serve` on an
# ephemeral port, replays the deterministic smoke mix through `loadgen`
# (which bit-checks every reply's fingerprint against the parsed payload,
# spot-checks serial references, and writes its hslb-service-load/v3
# document only if that document validates, failing otherwise), and
# verifies the server drains and exits 0 on the shutdown command.
#
# The chaos gate (DESIGN.md §13) then restarts the server with seeded
# service-layer fault injection and a cache snapshot, replays the chaos
# mix (every request must end in a verified bit-identical response,
# surviving injected panics, hangs, poisoned cache entries, and dropped/
# truncated connections), kill -9s the server, restarts it from the same
# snapshot, and re-runs the smoke mix — the restored cache must serve bit
# for bit. Level 2 of the audit gate carries eight rules, including
# no-unwrap-inside-catch_unwind on the supervised worker paths and the
# hash-order rule (no HashMap/HashSet/pointer-identity iteration in the
# simplex crate, whose pivot order must be reproducible).
#
# The regenerator gate runs scripts/expected.sh: the stdout of every
# paper regenerator (`table3`, `fig2`–`fig4`, the five ablations,
# `solver_claim`, `audit-instances`), `autotune`'s tuning log for the
# README's commands and four deadline questions, and the stdout of the
# `whatif_new_machine` and `layout_comparison` examples, each diffed
# against its file under crates/bench/expected/. All are deterministic
# (wall times go to stderr), so nothing may move an answer unnoticed.
#
# The seed-43 gate runs the 36-configuration layout × budget grid for
# simulator seed 43 in-process with `hslb-sweep --verify` under a 10 s
# timeout: that sweep hung past the 40 s of watchdogs while a warm
# re-solve could return an unchecked answer (its eighth|sequential|n4096
# member dug without end), and twelve more seeds failed on an allocation
# the simulator rejects. (Warm/cold incumbent bit-identity and the
# domains-vs-literal-binaries agreement are tests: hslb/tests/warm_start.rs
# and tests/solver_validation.rs.)
#
# The connection-scale gate (DESIGN.md §15) runs the readiness-loop
# deployment shape end to end: two `hslb-serve --shard i/2` processes on
# ephemeral ports, `loadgen --profile ramp --smoke` holding 512 sockets
# with client-side consistent-hash routing (every reply bit-checked,
# both shards drained); then a single server under `--profile soak
# --smoke` — 5,000 concurrent connections with churn — while a sampler
# records the server's thread count: the readiness loop must answer
# connection-scale load with a bounded thread pool (the ISSUE 8
# regression drove one thread per connection and per reply).
#
# The distinct-question gate asks one server the same small question
# for 400 different simulator seeds — no two share a fit key, so every
# one is a full miss — and reads the server's resident size after seed
# 100 and after seed 400: it may not grow by more than 1.5 MB (~0.25 MB
# measured). Everything the service keeps per key sits in a
# capacity-bounded tier; the simulator memo it once kept per seed grew
# 4.8 MB over the same stretch, and no other gate varies the seed.
#
# The sweep gate (DESIGN.md §17) drives a 96-configuration portfolio
# sweep (3 layout topologies × 22 one-degree budgets × 10 eighth-degree
# budgets) through a single `hslb-serve` process over TCP with the
# `hslb-sweep` client: every streamed portfolio entry is re-derived
# locally via `reference_response` and bit-compared (`--verify`), the
# fit tier must deliver exactly the sharing the plan promises — 2 fit
# groups, so 94 of the 96 solves replay (`--min-fit-hit-rate 0.97`; one
# redundant fit reads 0.969).

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings, all targets)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> audit-source (Level 2: token-level source audit)"
cargo run -q -p hslb-audit --bin audit-source -- --root . --allowlist scripts/audit.allow \
    --check-allow

if [[ $fast -eq 0 ]]; then
    echo "==> cargo build --release"
    cargo build --release --workspace
fi

echo "==> cargo test"
cargo test -q --workspace

if [[ $fast -eq 0 ]]; then
    echo "==> benchmark harness builds and passes its self-tests"
    # The build prunes stale entries from benchmark/Cargo.lock, a file
    # only a benchmark PR may change: hand it back as it was.
    bench_lock="$(mktemp /tmp/benchmark_lock.XXXXXX)"
    cp benchmark/Cargo.lock "$bench_lock"
    bench_status=0
    bash benchmark/run.sh --smoke || bench_status=$?
    cp "$bench_lock" benchmark/Cargo.lock && rm -f "$bench_lock"
    [[ $bench_status -eq 0 ]] || exit "$bench_status"

    echo "==> every regenerator matches its committed output (audit-instances included)"
    # The stdout of the 11 regenerators, autotune's tuning log and two
    # examples' stdout against crates/bench/expected/ (regenerate with:
    #   scripts/expected.sh --write). A regenerator that exits nonzero
    # fails the gate, so audit-instances (Level 1: convexity certificates
    # + rejection self-test) runs here.
    bash scripts/expected.sh

    echo "==> seed-43 sweep (36-configuration grid, verified, 10 s timeout)"
    timeout 10 ./target/release/hslb-sweep --seed 43 \
        --one-degree-nodes 48,64,96,128,160,192,224,256 --eighth-nodes 4096,6144,8192,16384 \
        --verify --quiet

    echo "==> service smoke (hslb-serve + loadgen + graceful drain)"
    port_file="$(mktemp /tmp/hslb_serve_port.XXXXXX)"
    load_out="$(mktemp /tmp/service_load.XXXXXX.json)"
    rm -f "$port_file"
    trap 'rm -f "$port_file" "$load_out"' EXIT
    ./target/release/hslb-serve --addr 127.0.0.1:0 --port-file "$port_file" &
    serve_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$port_file" ]] && break
        sleep 0.1
    done
    [[ -s "$port_file" ]] || { echo "hslb-serve never published its port" >&2; exit 1; }
    # --smoke replays the deterministic mix, bit-checks every reply, and
    # sends the shutdown command; the server must drain, ack, and exit 0.
    ./target/release/loadgen --addr "$(cat "$port_file")" --smoke --out "$load_out"
    wait "$serve_pid"

    echo "==> service chaos gate (fault injection, kill -9, snapshot recovery)"
    snapshot_file="$(mktemp /tmp/hslb_snapshot.XXXXXX.json)"
    chaos_out="$(mktemp /tmp/service_chaos.XXXXXX.json)"
    rm -f "$port_file" "$snapshot_file"
    trap 'rm -f "$port_file" "$load_out" "$snapshot_file" "$chaos_out"' EXIT
    ./target/release/hslb-serve --addr 127.0.0.1:0 --port-file "$port_file" \
        --fault-seed 7 --fault-rate 0.3 --snapshot "$snapshot_file" &
    serve_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$port_file" ]] && break
        sleep 0.1
    done
    [[ -s "$port_file" ]] || { echo "hslb-serve (chaos) never published its port" >&2; exit 1; }
    # The chaos profile survives injected worker panics/hangs, poisoned
    # cache entries, and dropped/truncated connections; it fails unless
    # every request ends in a verified bit-identical response.
    ./target/release/loadgen --addr "$(cat "$port_file")" --profile chaos --out "$chaos_out"
    # Simulate a crash: no drain, no final flush — the periodic snapshot
    # on disk is all the restarted server gets.
    kill -9 "$serve_pid"
    wait "$serve_pid" 2>/dev/null || true
    [[ -s "$snapshot_file" ]] || { echo "periodic snapshot never flushed" >&2; exit 1; }
    rm -f "$port_file"
    ./target/release/hslb-serve --addr 127.0.0.1:0 --port-file "$port_file" \
        --snapshot "$snapshot_file" &
    serve_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$port_file" ]] && break
        sleep 0.1
    done
    [[ -s "$port_file" ]] || { echo "restarted hslb-serve never published its port" >&2; exit 1; }
    # The restored cache must serve the replayed mix bit-identically
    # (loadgen recomputes and bit-checks every reply's fingerprint).
    ./target/release/loadgen --addr "$(cat "$port_file")" --smoke
    wait "$serve_pid"

    echo "==> connection-scale gate (2 shards, ramp, 512 connections)"
    port0_file="$(mktemp /tmp/hslb_shard0_port.XXXXXX)"
    port1_file="$(mktemp /tmp/hslb_shard1_port.XXXXXX)"
    ramp_out="$(mktemp /tmp/service_ramp.XXXXXX.json)"
    soak_out="$(mktemp /tmp/service_soak.XXXXXX.json)"
    threads_log="$(mktemp /tmp/hslb_threads.XXXXXX)"
    rm -f "$port0_file" "$port1_file"
    trap 'rm -f "$port_file" "$load_out" "$snapshot_file" "$chaos_out" "$port0_file" "$port1_file" "$ramp_out" "$soak_out" "$threads_log"' EXIT
    ./target/release/hslb-serve --addr 127.0.0.1:0 --shard 0/2 --port-file "$port0_file" &
    shard0_pid=$!
    ./target/release/hslb-serve --addr 127.0.0.1:0 --shard 1/2 --port-file "$port1_file" &
    shard1_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$port0_file" && -s "$port1_file" ]] && break
        sleep 0.1
    done
    [[ -s "$port0_file" && -s "$port1_file" ]] || { echo "sharded hslb-serve never published its ports" >&2; exit 1; }
    # Open-loop ramp: 512 held sockets, stepped arrival rate, every
    # request routed to its consistent-hash shard and bit-checked; the
    # smoke profile then drains both shard processes.
    ./target/release/loadgen --addr "$(cat "$port0_file"),$(cat "$port1_file")" \
        --profile ramp --smoke --out "$ramp_out" > /dev/null
    wait "$shard0_pid"
    wait "$shard1_pid"

    echo "==> connection-scale gate (soak, 5000 connections, bounded threads)"
    rm -f "$port0_file"
    ./target/release/hslb-serve --addr 127.0.0.1:0 --port-file "$port0_file" --queue-capacity 512 &
    soak_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$port0_file" ]] && break
        sleep 0.1
    done
    [[ -s "$port0_file" ]] || { echo "soak hslb-serve never published its port" >&2; exit 1; }
    # Sample the server's thread count for the whole run: the readiness
    # loop must hold 5,000 churning connections on a fixed thread pool.
    ( while kill -0 "$soak_pid" 2>/dev/null; do
          grep Threads "/proc/$soak_pid/status" 2>/dev/null || true
          sleep 0.2
      done ) > "$threads_log" &
    sampler_pid=$!
    ./target/release/loadgen --addr "$(cat "$port0_file")" --profile soak --smoke --out "$soak_out" > /dev/null
    wait "$soak_pid"
    wait "$sampler_pid" 2>/dev/null || true
    peak_threads="$(awk '{print $2}' "$threads_log" | sort -n | tail -1)"
    [[ -n "$peak_threads" ]] || { echo "thread sampler never read the soak server" >&2; exit 1; }
    if (( peak_threads > 64 )); then
        echo "soak server peaked at $peak_threads threads under 5000 connections (thread-per-connection regression?)" >&2
        exit 1
    fi
    echo "    soak server peak: $peak_threads threads under 5000 connections"

    echo "==> distinct-question gate (400 simulator seeds, bounded resident size)"
    rm -f "$port0_file"
    ./target/release/hslb-serve --addr 127.0.0.1:0 --port-file "$port0_file" &
    seeds_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$port0_file" ]] && break
        sleep 0.1
    done
    [[ -s "$port0_file" ]] || { echo "distinct-question hslb-serve never published its port" >&2; exit 1; }
    seeds_addr="$(cat "$port0_file")"
    rss_settled=""
    for s in $(seq 1 400); do
        ./target/release/hslb-sweep --addr "$seeds_addr" --seed "$s" \
            --layouts hybrid --one-degree-nodes 64 --quiet > /dev/null
        # By seed 100 the fit tier (64) is full and evicting.
        [[ $s -eq 100 ]] && rss_settled="$(awk '/^VmRSS:/ {print $2}' "/proc/$seeds_pid/status")"
    done
    rss_end="$(awk '/^VmRSS:/ {print $2}' "/proc/$seeds_pid/status")"
    ./target/release/loadgen --addr "$seeds_addr" --requests 1 --shutdown > /dev/null
    wait "$seeds_pid"
    [[ -n "$rss_settled" && -n "$rss_end" ]] || { echo "could not read the server's VmRSS" >&2; exit 1; }
    if (( rss_end - rss_settled > 1536 )); then
        echo "server grew $((rss_end - rss_settled)) KB over seeds 101–400 ($rss_settled -> $rss_end KB): something is kept per question" >&2
        exit 1
    fi
    echo "    server resident size: $rss_settled KB after 100 seeds, $rss_end KB after 400"

    echo "==> sweep gate (96-config portfolio over TCP, verified + fit-cache bar)"
    sweep_port_file="$(mktemp /tmp/hslb_sweep_port.XXXXXX)"
    sweep_out="$(mktemp /tmp/sweep_portfolio.XXXXXX.json)"
    rm -f "$sweep_port_file"
    trap 'rm -f "$port_file" "$load_out" "$snapshot_file" "$chaos_out" "$port0_file" "$port1_file" "$ramp_out" "$soak_out" "$threads_log" "$sweep_port_file" "$sweep_out"' EXIT
    ./target/release/hslb-serve --addr 127.0.0.1:0 --port-file "$sweep_port_file" &
    sweep_serve_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$sweep_port_file" ]] && break
        sleep 0.1
    done
    [[ -s "$sweep_port_file" ]] || { echo "sweep hslb-serve never published its port" >&2; exit 1; }
    # 3 layouts × (22 + 10) budgets = 96 configurations, all through one
    # server connection. --verify re-derives every solved entry with
    # reference_response and bit-compares fingerprints; the fit-cache bar
    # is what shared-work dedup buys on a fresh server (fits depend on
    # neither budget, layout nor objective, so the 96 configurations carry
    # 2 fit signatures and the single-flight fit tier computes each once:
    # 94/96 = 0.979). Budgets stay inside the set where
    # every layout's ocean count is feasible (sequential rejects 1° >512
    # and 1/8° 9216/12288/14336/32768).
    ./target/release/hslb-sweep --addr "$(cat "$sweep_port_file")" \
        --one-degree-nodes 32,48,64,80,96,112,128,144,160,192,224,256,288,320,352,384,416,448,464,480,496,512 \
        --eighth-nodes 4096,5120,6144,7168,8192,10240,11264,13312,15360,16384 \
        --verify --min-fit-hit-rate 0.97 --quiet --out "$sweep_out"
    # Drain and stop the server (one tune request keeps the plain op
    # exercised on a server that just ran a sweep).
    ./target/release/loadgen --addr "$(cat "$sweep_port_file")" --requests 1 --shutdown > /dev/null
    wait "$sweep_serve_pid"

    echo "==> lock-rule checks compile (service crate, debug assertions on)"
    cargo rustc -q -p hslb-service --lib --release -- -C debug-assertions=on
fi

echo "==> all checks passed"
