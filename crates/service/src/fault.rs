//! Deterministic service-layer fault injection.
//!
//! The simulator's `FaultSpec` (PR 1) makes *pipeline* failures
//! reproducible; this module does the same for the failure modes that
//! live in the service itself — the ones the supervision layer
//! (DESIGN.md §13) exists to absorb:
//!
//! * **worker panics** — the request's compute attempt panics and must be
//!   contained by `catch_unwind`, never taking the shard down;
//! * **worker hangs** — the attempt stalls past the request's watchdog
//!   budget and must be abandoned by the supervisor;
//! * **slow shards** — the attempt completes but takes a deterministic
//!   extra delay (exercises queue backpressure and watchdog margins);
//! * **poisoned cache entries** — the payload *published to the exact
//!   tier* is corrupted (the response handed to the requester stays
//!   clean); the sealed-payload verification must catch the corruption on
//!   the next hit and recompute instead of serving garbage;
//! * **connection drops / truncated frames** — `hslb-serve` kills or
//!   half-writes a reply at the TCP boundary; clients must reconnect and
//!   retry.
//!
//! Every decision is a pure function of `(seed, domain, request id,
//! attempt)` using the same splitmix-style mixer as the simulator's
//! `FaultSpec`, so a chaotic run replays exactly. The injected sleeps
//! live in this module on purpose: `audit-source`'s nondeterminism rule
//! exempts fault-injection modules (paths containing `fault`), keeping
//! the serving path itself provably sleep-free.

use crate::ranked;
use std::time::Duration;

/// What the fault stream decided for one worker attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Attempt proceeds normally.
    None,
    /// Attempt panics (must be contained by the supervisor).
    Panic,
    /// Attempt stalls past the watchdog budget.
    Hang,
    /// Attempt completes after a deterministic extra delay.
    Slow,
}

/// What the fault stream decided for one wire reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// Reply is written normally.
    None,
    /// Connection is closed before the reply is written.
    Drop,
    /// Half the reply line is written (no newline), then the connection
    /// is closed.
    Truncate,
}

/// Draw domains keep the decision streams independent (a worker fault
/// for request 7 says nothing about a connection fault for it).
#[derive(Debug, Clone, Copy)]
enum ServiceFaultDomain {
    Worker,
    Cache,
    Conn,
}

impl ServiceFaultDomain {
    fn tag(self) -> u64 {
        match self {
            ServiceFaultDomain::Worker => 0xFA57,
            ServiceFaultDomain::Cache => 0xCAC8,
            ServiceFaultDomain::Conn => 0xC099,
        }
    }
}

/// Seeded service-fault specification, mirroring the simulator's
/// `FaultSpec` API (`none`/`chaos` constructors, stacked rates on one
/// uniform draw per cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceFaultSpec {
    /// Seed of the fault stream (independent of every simulator seed).
    pub seed: u64,
    /// Probability a worker attempt panics.
    pub panic_rate: f64,
    /// Probability a worker attempt hangs past the watchdog.
    pub hang_rate: f64,
    /// Probability a worker attempt is slowed by [`ServiceFaultSpec::slow_ms`].
    pub slow_rate: f64,
    /// Probability a published exact-tier entry is poisoned.
    pub poison_rate: f64,
    /// Probability a wire reply's connection is dropped before writing.
    pub drop_rate: f64,
    /// Probability a wire reply is truncated mid-frame.
    pub truncate_rate: f64,
    /// Injected delay for [`WorkerFault::Slow`] attempts.
    pub slow_ms: u64,
}

impl Default for ServiceFaultSpec {
    fn default() -> Self {
        ServiceFaultSpec::none()
    }
}

impl ServiceFaultSpec {
    /// No faults at all — the production configuration.
    pub fn none() -> Self {
        ServiceFaultSpec {
            seed: 0,
            panic_rate: 0.0,
            hang_rate: 0.0,
            slow_rate: 0.0,
            poison_rate: 0.0,
            drop_rate: 0.0,
            truncate_rate: 0.0,
            slow_ms: 20,
        }
    }

    /// The chaos preset: a total worker-fault probability of `rate`
    /// split 2:1:1 across panic/hang/slow, plus cache poisoning at
    /// `rate/2` and connection drops/truncations at `rate/4` each. At
    /// `rate = 0.3` this is the acceptance scenario — under it, every
    /// completed response must still be bit-identical to a one-shot
    /// pipeline run or an explicit typed error.
    pub fn chaos(seed: u64, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        ServiceFaultSpec {
            seed,
            panic_rate: rate * 0.5,
            hang_rate: rate * 0.25,
            slow_rate: rate * 0.25,
            poison_rate: rate * 0.5,
            drop_rate: rate * 0.25,
            truncate_rate: rate * 0.25,
            slow_ms: 20,
        }
    }

    /// True when any fault family can fire.
    pub fn is_active(&self) -> bool {
        self.panic_rate > 0.0
            || self.hang_rate > 0.0
            || self.slow_rate > 0.0
            || self.poison_rate > 0.0
            || self.drop_rate > 0.0
            || self.truncate_rate > 0.0
    }

    fn mix(&self, domain: ServiceFaultDomain, a: u64, b: u64) -> u64 {
        let mut h = self.seed ^ 0x5EED_FA17_5EED_FA17;
        for k in [domain.tag(), a.wrapping_add(1), b] {
            h = (h ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .rotate_left(29)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 27;
        }
        h
    }

    /// Uniform [0, 1) draw for a `(domain, a, b)` cell.
    fn unit(&self, domain: ServiceFaultDomain, a: u64, b: u64) -> f64 {
        (self.mix(domain, a, b) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The fault decision for one worker attempt. Keyed by `(request id,
    /// attempt)` so a requeued attempt gets a fresh draw — bounded
    /// requeues converge unless the spec is saturated.
    pub fn worker(&self, request_id: u64, attempt: u32) -> WorkerFault {
        if !self.is_active() {
            return WorkerFault::None;
        }
        let u = self.unit(ServiceFaultDomain::Worker, request_id, u64::from(attempt));
        if u < self.panic_rate {
            WorkerFault::Panic
        } else if u < self.panic_rate + self.hang_rate {
            WorkerFault::Hang
        } else if u < self.panic_rate + self.hang_rate + self.slow_rate {
            WorkerFault::Slow
        } else {
            WorkerFault::None
        }
    }

    /// Apply the worker decision *inside* the supervised attempt: panic,
    /// stall past `watchdog`, or inject the slow delay. Normal attempts
    /// return immediately. The sleeps are confined to this fault module
    /// (see the module docs for the audit contract).
    pub fn inject_worker(&self, request_id: u64, attempt: u32, watchdog: Duration) {
        match self.worker(request_id, attempt) {
            WorkerFault::None => {}
            WorkerFault::Panic => {
                panic!(
                    "injected worker panic (seed {}, request {request_id}, attempt {attempt})",
                    self.seed
                )
            }
            WorkerFault::Hang => {
                // Stall clearly past the watchdog so the supervisor must
                // abandon this attempt; the thread then exits harmlessly.
                ranked::sleep(watchdog + Duration::from_millis(120));
            }
            WorkerFault::Slow => ranked::sleep(Duration::from_millis(self.slow_ms)),
        }
    }

    /// Should the exact-tier entry published for this request be
    /// poisoned? (The requester still receives the clean payload; only
    /// the cached copy is corrupted, for the seal check to catch.)
    pub fn poisons_cache(&self, request_id: u64) -> bool {
        self.poison_rate > 0.0
            && self.unit(ServiceFaultDomain::Cache, request_id, 0) < self.poison_rate
    }

    /// A deterministically corrupted version of a clean cached float —
    /// always different from `clean`, so a seal check must fire.
    pub fn poison_value(&self, clean: f64, request_id: u64) -> f64 {
        let h = self.mix(ServiceFaultDomain::Cache, request_id, 0x6A5B);
        match h % 3 {
            0 => 0.0_f64.max(-clean),
            1 => clean.abs().max(1e-3) * 1e7,
            _ => clean.abs().max(1e-3) * 1e-8,
        }
    }

    /// The fault decision for one wire reply, keyed by request id.
    pub fn conn(&self, request_id: u64) -> ConnFault {
        if self.drop_rate <= 0.0 && self.truncate_rate <= 0.0 {
            return ConnFault::None;
        }
        let u = self.unit(ServiceFaultDomain::Conn, request_id, 0);
        if u < self.drop_rate {
            ConnFault::Drop
        } else if u < self.drop_rate + self.truncate_rate {
            ConnFault::Truncate
        } else {
            ConnFault::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_spec_never_fires() {
        let spec = ServiceFaultSpec::none();
        for id in 0..200 {
            assert_eq!(spec.worker(id, 0), WorkerFault::None);
            assert!(!spec.poisons_cache(id));
            assert_eq!(spec.conn(id), ConnFault::None);
        }
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = ServiceFaultSpec::chaos(7, 0.3);
        let b = ServiceFaultSpec::chaos(7, 0.3);
        let c = ServiceFaultSpec::chaos(8, 0.3);
        let run: Vec<WorkerFault> = (0..128).map(|id| a.worker(id, 0)).collect();
        assert_eq!(run, (0..128).map(|id| b.worker(id, 0)).collect::<Vec<_>>());
        assert_ne!(run, (0..128).map(|id| c.worker(id, 0)).collect::<Vec<_>>());
    }

    #[test]
    fn requeued_attempts_draw_fresh() {
        // A panicking attempt must not panic forever: across a few
        // attempts at 30% chaos, some request that faults at attempt 0
        // passes by attempt 3.
        let spec = ServiceFaultSpec::chaos(5, 0.3);
        let recovered = (0..64).any(|id| {
            spec.worker(id, 0) != WorkerFault::None
                && (1..4).any(|at| spec.worker(id, at) == WorkerFault::None)
        });
        assert!(recovered);
    }

    #[test]
    fn chaos_rate_is_roughly_calibrated() {
        let spec = ServiceFaultSpec::chaos(11, 0.3);
        let faulted = (0..1000)
            .filter(|&id| spec.worker(id, 0) != WorkerFault::None)
            .count();
        assert!(
            (200..400).contains(&faulted),
            "~30% of 1000 attempts should fault, got {faulted}"
        );
    }

    #[test]
    fn poison_value_differs_from_clean() {
        let spec = ServiceFaultSpec::chaos(3, 1.0);
        for id in 0..64 {
            let clean = 123.456 + f64::from(id as u32);
            let poisoned = spec.poison_value(clean, id);
            assert_ne!(poisoned.to_bits(), clean.to_bits());
        }
    }
}
