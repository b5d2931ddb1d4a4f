//! The HSLB tuning service: the paper's one-shot pipeline
//! (gather → fit → solve → execute) packaged as a concurrent server.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//!
//! The point of HSLB is to replace expert-in-the-loop tuning for *many*
//! machine/layout/budget questions at once, so this crate turns
//! [`hslb::Hslb`] into a multi-tenant service:
//!
//! * [`queue`] — a bounded admission queue with priority + deadline
//!   *ordering* and explicit backpressure (reject-with-retry-after;
//!   depth never grows without limit);
//! * [`cache`] — a two-level result cache (exact-key
//!   [`request::TunePayload`]s, fit-level gather/fit artifacts), each
//!   tier with the in-flight registry that makes it single-flight: the
//!   request coalescer on the exact tier, one gather+fit per fit key
//!   however many workers meet it cold on the fit tier. Both are
//!   capacity-bounded LRUs and the only collections keyed by anything a
//!   client chooses;
//! * [`service`] — the sharded worker pool driving the pipeline, with
//!   per-request telemetry (queue wait, cache tier, coalesce batch size,
//!   end-to-end latency) through `hslb-telemetry`;
//! * [`wire`] — the line-delimited JSON protocol `hslb-serve` speaks
//!   (reusing the telemetry crate's JSON parser — no serde);
//! * [`loadmix`] — deterministic request mixes and the latency/throughput
//!   accounting the `loadgen` binary reports as an
//!   `hslb-service-load/v3` document, validated before it is written;
//! * [`reactor`] — the std-only nonblocking readiness loop behind
//!   `hslb-serve`: one thread multiplexes accept/read/parse/dispatch and
//!   write-backpressure across thousands of connections, with replies
//!   delivered by ticket callbacks over a completion bus (no
//!   thread-per-connection, no thread-per-reply);
//! * [`shard`] — rendezvous consistent-hash routing for `--shard i/N`
//!   multi-process deployments (client-side routing, server-side
//!   misroute rejection);
//! * [`loadclient`] — the TCP client engine `loadgen` runs on:
//!   shard-aware routing, closed-loop determinism audits, and the
//!   open-loop ramp/soak profiles with connection churn;
//! * [`fault`] — deterministic service-layer fault injection (seeded
//!   worker panics/hangs/slowdowns, cache poisoning, connection faults)
//!   mirroring the simulator's `FaultSpec`;
//! * [`snapshot`] — crash-safe, seal-verified cache snapshots (atomic
//!   write, checksum footer, never-fail restore with a
//!   [`snapshot::RecoveryRecord`]);
//! * [`sweep_driver`] — the executor behind the `hslb-sweep` portfolio
//!   crate: runs a [`hslb_sweep::SweepPlan`] through the worker pool and
//!   cache tiers (calibrate → predict/prune → solve, fail-open to exact
//!   solves), streaming per-configuration progress (DESIGN.md §17);
//! * [`ranked`] — the rank-lattice lock wrappers every module above
//!   holds its `Mutex`/`Condvar` state in: audit Level 3 statically
//!   proves the cross-crate acquisition graph respects the lattice, and
//!   the wrappers assert monotone per-thread acquisition under
//!   `debug_assertions` (DESIGN.md §16).
//!
//! **Determinism is the correctness bar.** For any request mix, at any
//! worker count, with caches and coalescing on or off, every response
//! payload is bit-identical to running the one-shot pipeline for that
//! request alone ([`service::reference_response`]). The queue, the
//! coalescer and both cache tiers are passive layers, like the telemetry
//! and audit layers before them.

pub mod cache;
pub mod fault;
pub mod loadclient;
pub mod loadmix;
pub mod queue;
pub mod ranked;
pub mod reactor;
pub mod request;
pub mod service;
pub mod shard;
pub mod snapshot;
pub mod sweep_driver;
pub mod wire;

pub use fault::{ConnFault, ServiceFaultSpec, WorkerFault};
pub use queue::Backpressure;
pub use reactor::{write_port_file, Reactor, ReactorOptions, ServingStats};
pub use request::{CacheTier, TunePayload, TuneRequest, TuneResponse};
pub use service::{
    reference_response, CachePolicy, HealthStats, ServiceOptions, ServiceStats, SubmitError,
    SupervisePolicy, Ticket, TuningService,
};
pub use shard::{shard_for_key, ShardSpec};
pub use snapshot::{RecoveryRecord, SnapshotPolicy, SnapshotStats};
