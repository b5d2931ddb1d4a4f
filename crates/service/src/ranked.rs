//! Ranked lock wrappers: runtime enforcement of the lock-order lattice.
//!
//! Audit Level 3 (`hslb-audit`'s `locks` module) proves the *static*
//! acquisition graph is cycle-free and rank-monotone; this module is the
//! runtime half of that pairing. Every lock in the service crate is a
//! [`RankedMutex`] (or [`RankedCondvar`]) carrying a `const RANK: u16`
//! from the [`rank`] lattice, and under `debug_assertions` each thread
//! keeps a stack of held ranks: acquiring a rank not strictly above the
//! current top panics with both rank names. Two threads can only
//! deadlock on a pair of mutexes by acquiring them in opposite orders —
//! impossible when every thread's acquisition order is monotone in a
//! single total order — so the assert turns any would-be deadlock into
//! an immediate, attributable failure in the tests and the chaos
//! harness instead of a rare production hang.
//!
//! The lattice (low acquires first; see DESIGN.md §16 for the table and
//! rationale): queue shards < front-desk cache < fit cache <
//! ticket slots < completion bus < snapshot/recovery < worker handles <
//! load-client accumulators < sweep result collector. Gaps of 10 between neighbors leave room to slot
//! new locks without renumbering.
//!
//! In release builds (`debug_assertions` off) the wrappers are
//! zero-overhead: `lock()` is exactly `Mutex::lock` plus the project's
//! standard poison absorption (`unwrap_or_else(|e| e.into_inner())` —
//! state integrity is protected by seal verification, not by poison
//! propagation; see DESIGN.md §11).

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// The lock-order lattice. Ranks are acquired strictly ascending within
/// a thread; the constants are spaced by 10 so future locks can slot in
/// between neighbors without renumbering the workspace.
pub mod rank {
    /// Admission-queue shard state (`queue.rs`). Lowest: shard locks are
    /// leaves — nothing is ever acquired while one is held.
    pub const QUEUE_SHARD: u16 = 100;
    /// Front-desk admission/cache state (`cache.rs`).
    pub const FRONT_DESK: u16 = 200;
    /// Fit-result LRU (`service.rs`).
    pub const FIT_CACHE: u16 = 210;
    /// Per-ticket result slot (`service.rs`).
    pub const TICKET_SLOT: u16 = 300;
    /// Reactor completion bus (`reactor.rs`).
    pub const COMPLETION_BUS: u16 = 310;
    /// Snapshot/recovery record (`service.rs`).
    pub const SNAPSHOT_RECOVERY: u16 = 400;
    /// Worker join-handle vector (`service.rs`).
    pub const WORKER_HANDLES: u16 = 410;
    /// Load-client pending work queue (`loadclient.rs`).
    pub const CLIENT_PENDING: u16 = 600;
    /// Load-client result accumulator (`loadclient.rs`).
    pub const CLIENT_RESULTS: u16 = 610;
    /// Sweep-driver result collector (`sweep_driver.rs`). Highest: the
    /// sweep driver resolves tickets (ranks ≤ 310) strictly before
    /// recording into the collector, and nothing is acquired while it is
    /// held.
    pub const SWEEP_RESULTS: u16 = 700;

    /// Human-readable name for a rank (panic messages, graph dumps).
    pub fn name(r: u16) -> &'static str {
        match r {
            QUEUE_SHARD => "QUEUE_SHARD",
            FRONT_DESK => "FRONT_DESK",
            FIT_CACHE => "FIT_CACHE",
            TICKET_SLOT => "TICKET_SLOT",
            COMPLETION_BUS => "COMPLETION_BUS",
            SNAPSHOT_RECOVERY => "SNAPSHOT_RECOVERY",
            WORKER_HANDLES => "WORKER_HANDLES",
            CLIENT_PENDING => "CLIENT_PENDING",
            CLIENT_RESULTS => "CLIENT_RESULTS",
            SWEEP_RESULTS => "SWEEP_RESULTS",
            _ => "UNKNOWN",
        }
    }
}

/// Per-thread held-rank stack, compiled only under `debug_assertions`.
mod held {
    #[cfg(debug_assertions)]
    thread_local! {
        static STACK: std::cell::RefCell<Vec<u16>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// Record an acquisition, asserting strict monotonicity. Called
    /// *before* blocking on the mutex so an inversion panics instead of
    /// deadlocking.
    #[cfg(debug_assertions)]
    pub(super) fn acquired(rank: u16) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(&top) = s.last() {
                assert!(
                    rank > top,
                    "lock rank inversion: acquiring rank {rank} ({}) while rank {top} ({}) \
                     is held — acquisition must follow the lattice in DESIGN.md §16",
                    super::rank::name(rank),
                    super::rank::name(top),
                );
            }
            s.push(rank);
        });
    }

    /// Record a release. Guards may drop out of acquisition order, so
    /// the *last* occurrence of the rank is removed.
    #[cfg(debug_assertions)]
    pub(super) fn released(rank: u16) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&r| r == rank) {
                s.remove(pos);
            }
        });
    }

    #[cfg(not(debug_assertions))]
    pub(super) fn acquired(_rank: u16) {}
    #[cfg(not(debug_assertions))]
    pub(super) fn released(_rank: u16) {}
}

/// A mutex pinned to a position in the [`rank`] lattice.
#[derive(Debug, Default)]
pub struct RankedMutex<T, const RANK: u16> {
    inner: Mutex<T>,
}

impl<T, const RANK: u16> RankedMutex<T, RANK> {
    pub fn new(value: T) -> RankedMutex<T, RANK> {
        RankedMutex {
            inner: Mutex::new(value),
        }
    }

    /// Acquire, absorbing poison. Under `debug_assertions`, panics if a
    /// rank ≥ `RANK` is already held by this thread.
    pub fn lock(&self) -> RankedGuard<'_, T, RANK> {
        held::acquired(RANK);
        RankedGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Consume the mutex, returning the data (end-of-run extraction).
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// The guard for a [`RankedMutex`]; releasing it (drop, or consumption
/// by a [`RankedCondvar`] wait) pops its rank from the thread's stack.
#[derive(Debug)]
pub struct RankedGuard<'a, T, const RANK: u16> {
    /// `None` only transiently, after a wait consumed the inner guard.
    inner: Option<MutexGuard<'a, T>>,
}

impl<'a, T, const RANK: u16> RankedGuard<'a, T, RANK> {
    fn adopt(inner: MutexGuard<'a, T>) -> RankedGuard<'a, T, RANK> {
        held::acquired(RANK);
        RankedGuard { inner: Some(inner) }
    }

    /// Hand the raw guard to a condvar wait, releasing the rank.
    fn take_inner(mut self) -> MutexGuard<'a, T> {
        held::released(RANK);
        match self.inner.take() {
            Some(g) => g,
            // `inner` is `Some` from construction until this call, and
            // this call consumes `self`.
            None => unreachable!("RankedGuard consumed twice"),
        }
    }
}

impl<T, const RANK: u16> std::ops::Deref for RankedGuard<'_, T, RANK> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.inner {
            Some(g) => g,
            None => unreachable!("RankedGuard used after wait consumed it"),
        }
    }
}

impl<T, const RANK: u16> std::ops::DerefMut for RankedGuard<'_, T, RANK> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(g) => g,
            None => unreachable!("RankedGuard used after wait consumed it"),
        }
    }
}

impl<T, const RANK: u16> Drop for RankedGuard<'_, T, RANK> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            held::released(RANK);
        }
    }
}

/// A condvar pinned to the same rank as the mutex it pairs with. The
/// const parameter makes "wait on a different mutex' condvar" — the
/// classic lost-wakeup/deadlock shape Level 3 flags as `lock-blocking` —
/// a *compile* error: `wait` only accepts a guard of the same rank.
#[derive(Debug, Default)]
pub struct RankedCondvar<const RANK: u16> {
    inner: Condvar,
}

impl<const RANK: u16> RankedCondvar<RANK> {
    pub fn new() -> RankedCondvar<RANK> {
        RankedCondvar {
            inner: Condvar::new(),
        }
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Atomically release the guard and park; the rank is released for
    /// the duration of the wait and re-asserted on wake.
    pub fn wait<'a, T>(&self, guard: RankedGuard<'a, T, RANK>) -> RankedGuard<'a, T, RANK> {
        let inner = guard.take_inner();
        let inner = self.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
        RankedGuard::adopt(inner)
    }

    /// Bounded wait; the bool is "timed out".
    pub fn wait_timeout<'a, T>(
        &self,
        guard: RankedGuard<'a, T, RANK>,
        dur: Duration,
    ) -> (RankedGuard<'a, T, RANK>, bool) {
        let inner = guard.take_inner();
        let (inner, timeout) = self
            .inner
            .wait_timeout(inner, dur)
            .unwrap_or_else(|e| e.into_inner());
        (RankedGuard::adopt(inner), timeout.timed_out())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_roundtrip_and_into_inner() {
        let m: RankedMutex<Vec<u32>, { rank::QUEUE_SHARD }> = RankedMutex::new(vec![1]);
        {
            let mut g = m.lock();
            g.push(2);
        }
        assert_eq!(m.lock().len(), 2);
        assert_eq!(m.into_inner(), vec![1, 2]);
    }

    #[test]
    fn ascending_acquisition_is_fine() {
        let a: RankedMutex<u32, { rank::QUEUE_SHARD }> = RankedMutex::new(1);
        let b: RankedMutex<u32, { rank::FRONT_DESK }> = RankedMutex::new(2);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
    }

    #[test]
    fn sequential_same_rank_is_fine() {
        // Shards share a rank; taking them one at a time (the `depth()`
        // pattern) must not trip the monotonicity assert.
        let shards: Vec<RankedMutex<u32, { rank::QUEUE_SHARD }>> =
            (0..4).map(RankedMutex::new).collect();
        let total: u32 = shards.iter().map(|s| *s.lock()).sum();
        assert_eq!(total, 6);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn descending_acquisition_panics() {
        let caught = std::panic::catch_unwind(|| {
            let hi: RankedMutex<u32, { rank::WORKER_HANDLES }> = RankedMutex::new(1);
            let lo: RankedMutex<u32, { rank::QUEUE_SHARD }> = RankedMutex::new(2);
            let g = hi.lock();
            let h = lo.lock(); // inversion: 100 under 410
            *g + *h
        });
        let msg = match caught {
            Ok(_) => panic!("rank inversion was not caught"),
            Err(e) => e.downcast_ref::<String>().cloned().unwrap_or_default(),
        };
        assert!(msg.contains("lock rank inversion"), "{msg}");
        assert!(
            msg.contains("QUEUE_SHARD") && msg.contains("WORKER_HANDLES"),
            "{msg}"
        );
    }

    #[test]
    fn condvar_wait_timeout_releases_and_reacquires() {
        let m: RankedMutex<u32, { rank::QUEUE_SHARD }> = RankedMutex::new(7);
        let cv: RankedCondvar<{ rank::QUEUE_SHARD }> = RankedCondvar::new();
        let g = m.lock();
        let (g, timed_out) = cv.wait_timeout(g, Duration::from_millis(1));
        assert!(timed_out);
        assert_eq!(*g, 7);
        drop(g);
        // The rank stack is balanced: a higher lock then a lower one in
        // sequence (not nested) still works.
        let other: RankedMutex<u32, { rank::FRONT_DESK }> = RankedMutex::new(0);
        drop(other.lock());
        drop(m.lock());
    }

    #[test]
    fn out_of_order_guard_drops_stay_balanced() {
        let a: RankedMutex<u32, { rank::QUEUE_SHARD }> = RankedMutex::new(1);
        let b: RankedMutex<u32, { rank::FRONT_DESK }> = RankedMutex::new(2);
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // release low first
        drop(gb);
        // Stack must be empty again: a fresh low-rank acquisition works.
        assert_eq!(*a.lock(), 1);
    }

    #[test]
    fn rank_names_resolve() {
        assert_eq!(rank::name(rank::QUEUE_SHARD), "QUEUE_SHARD");
        assert_eq!(rank::name(rank::CLIENT_RESULTS), "CLIENT_RESULTS");
        assert_eq!(rank::name(7), "UNKNOWN");
    }
}
