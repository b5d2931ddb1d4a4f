//! The runtime lock rule under real contention.
//!
//! The `ranked` module's unit tests exercise single-thread semantics;
//! these tests drive many threads through the wrappers concurrently. The
//! stress test is deterministic in its *verdict*: every thread holds one
//! guard at a time, so no interleaving can trip the assert or deadlock,
//! and the final counts are exact. The nesting test pins the rule's
//! point — a second acquisition panics (under `debug_assertions`)
//! instead of deadlocking.

use hslb_service::ranked::{self, RankedCondvar, RankedMutex};
use std::sync::Arc;
use std::time::Duration;

/// Many threads, four locks, one guard at a time. Runs the same fixed
/// work per thread; any held-state bug (a release that does not clear,
/// a wait that does not re-acquire) surfaces as a panic or a wrong
/// count.
#[test]
fn one_guard_at_a_time_under_contention() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 200;

    let queue: Arc<RankedMutex<Vec<u64>>> = Arc::new(RankedMutex::new(Vec::new()));
    let cache: Arc<RankedMutex<u64>> = Arc::new(RankedMutex::new(0));
    let bus: Arc<RankedMutex<u32>> = Arc::new(RankedMutex::new(0));
    let wake = Arc::new(RankedCondvar::new());

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (queue, cache, bus, wake) = (
                Arc::clone(&queue),
                Arc::clone(&cache),
                Arc::clone(&bus),
                Arc::clone(&wake),
            );
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    queue.lock().push((t * ROUNDS + round) as u64);
                    *cache.lock() += 1;
                    {
                        let b = bus.lock();
                        let (mut b, _) = wake.wait_timeout(b, Duration::from_micros(1));
                        *b += 1;
                    }
                    wake.notify_one();
                    // A copied value leaves no guard behind.
                    let n = *cache.lock();
                    std::hint::black_box(n);
                }
            });
        }
    });

    assert_eq!(queue.lock().len(), THREADS * ROUNDS);
    assert_eq!(*cache.lock(), (THREADS * ROUNDS) as u64);
    assert_eq!(*bus.lock(), (THREADS * ROUNDS) as u32);
}

/// Producer/consumer across threads through the condvar: waits release
/// the lock while parked (another thread can acquire the same mutex) and
/// hold it again on wake.
#[test]
fn condvar_handoff_across_threads() {
    const ITEMS: u64 = 100;
    let slot: Arc<(RankedMutex<Vec<u64>>, RankedCondvar)> =
        Arc::new((RankedMutex::new(Vec::new()), RankedCondvar::new()));

    let consumer = {
        let slot = Arc::clone(&slot);
        std::thread::spawn(move || {
            let (m, cv) = &*slot;
            let mut got = Vec::new();
            let mut g = m.lock();
            while got.len() < ITEMS as usize {
                while g.is_empty() {
                    g = cv.wait(g);
                }
                got.append(&mut g);
            }
            got
        })
    };

    for i in 0..ITEMS {
        let (m, cv) = &*slot;
        m.lock().push(i);
        cv.notify_one();
    }
    let got = ranked::join(consumer).unwrap_or_default();
    assert_eq!(got.len(), ITEMS as usize);
    let mut sorted = got.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..ITEMS).collect::<Vec<_>>());
}

/// A seeded nested acquisition is *rejected at runtime*: the thread
/// panics on acquisition, naming both locks, instead of handing a latent
/// deadlock to production. Only meaningful when the asserts are compiled
/// in.
#[cfg(debug_assertions)]
#[test]
fn seeded_inversion_is_rejected() {
    struct ClientResults(u32);
    struct FitCache(u32);
    let result = std::thread::spawn(|| {
        let high = RankedMutex::new(ClientResults(0));
        let low = RankedMutex::new(FitCache(0));
        let g = high.lock();
        let h = low.lock();
        g.0 + h.0
    })
    .join();
    let err = match result {
        Ok(_) => panic!("seeded nested acquisition was not rejected"),
        Err(e) => e,
    };
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("nested lock"), "{msg}");
    assert!(
        msg.contains("FitCache") && msg.contains("ClientResults"),
        "{msg}"
    );
}

/// A timed wait under contention: parked waiters must not hold their
/// lock, so a sibling thread acquiring the same mutex proceeds.
#[test]
fn timed_wait_does_not_hold_the_lock() {
    let m: Arc<RankedMutex<u32>> = Arc::new(RankedMutex::new(0));
    let cv = Arc::new(RankedCondvar::new());

    let waiter = {
        let (m, cv) = (Arc::clone(&m), Arc::clone(&cv));
        std::thread::spawn(move || {
            let mut g = m.lock();
            while *g == 0 {
                let (ng, _timed_out) = cv.wait_timeout(g, Duration::from_millis(5));
                g = ng;
            }
            *g
        })
    };
    // The waiter parks; this thread still gets the lock and publishes.
    *m.lock() = 7;
    cv.notify_all();
    assert_eq!(ranked::join(waiter).unwrap_or_default(), 7);
}
