//! Lock-order enforcement under real contention.
//!
//! The `ranked` module's unit tests exercise single-thread semantics;
//! these tests drive many threads through the lattice concurrently. The
//! stress test is deterministic in its *verdict*: every thread acquires
//! strictly ascending ranks, so no interleaving can trip the assert or
//! deadlock, and the final counts are exact. The inversion test pins the
//! runtime half of the Level 3 acceptance criterion — a descending
//! acquisition panics (under `debug_assertions`) instead of deadlocking.

use hslb_service::ranked::{rank, RankedCondvar, RankedMutex};
use std::sync::Arc;
use std::time::Duration;

/// Many threads, four lattice levels, ascending chains only. Runs the
/// same fixed work per thread; any rank-tracking bug (leaked stack
/// entries, double pops from out-of-order drops, wait re-acquisition)
/// surfaces as a panic or a wrong count.
#[test]
fn ascending_chains_under_contention() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 200;

    let queue: Arc<RankedMutex<Vec<u64>, { rank::QUEUE_SHARD }>> =
        Arc::new(RankedMutex::new(Vec::new()));
    let cache: Arc<RankedMutex<u64, { rank::FRONT_DESK }>> = Arc::new(RankedMutex::new(0));
    let bus: Arc<RankedMutex<u64, { rank::COMPLETION_BUS }>> = Arc::new(RankedMutex::new(0));
    let handles: Arc<RankedMutex<u64, { rank::WORKER_HANDLES }>> = Arc::new(RankedMutex::new(0));

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (queue, cache, bus, handles) = (
                Arc::clone(&queue),
                Arc::clone(&cache),
                Arc::clone(&bus),
                Arc::clone(&handles),
            );
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Full ascending chain, all four held at the peak.
                    {
                        let mut q = queue.lock();
                        let mut c = cache.lock();
                        let mut b = bus.lock();
                        let mut h = handles.lock();
                        q.push((t * ROUNDS + round) as u64);
                        *c += 1;
                        *b += 1;
                        *h += 1;
                    }
                    // Out-of-order release: low rank dropped first.
                    {
                        let c = cache.lock();
                        let b = bus.lock();
                        drop(c);
                        let h = handles.lock();
                        std::hint::black_box((*b, *h));
                    }
                    // Disjoint pairs, sequential same-rank reuse.
                    {
                        let q = queue.lock();
                        std::hint::black_box(q.len());
                    }
                    {
                        let h = handles.lock();
                        std::hint::black_box(*h);
                    }
                }
            });
        }
    });

    assert_eq!(queue.lock().len(), THREADS * ROUNDS);
    assert_eq!(*cache.lock(), (THREADS * ROUNDS) as u64);
    assert_eq!(*bus.lock(), (THREADS * ROUNDS) as u64);
    assert_eq!(*handles.lock(), (THREADS * ROUNDS) as u64);
}

/// Producer/consumer across threads through the ranked condvar: waits
/// release the rank while parked (another thread can acquire the same
/// mutex) and re-assert it on wake.
#[test]
fn condvar_handoff_across_threads() {
    const ITEMS: u64 = 100;
    let slot: Arc<(
        RankedMutex<Vec<u64>, { rank::TICKET_SLOT }>,
        RankedCondvar<{ rank::TICKET_SLOT }>,
    )> = Arc::new((RankedMutex::new(Vec::new()), RankedCondvar::new()));

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
    let got = consumer.join().unwrap_or_default();
    assert_eq!(got.len(), ITEMS as usize);
    let mut sorted = got.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..ITEMS).collect::<Vec<_>>());
}

/// The acceptance-criterion fixture: a seeded rank inversion is
/// *rejected at runtime* — the thread panics on acquisition instead of
/// handing a latent deadlock to production. Only meaningful when the
/// asserts are compiled in.
#[cfg(debug_assertions)]
#[test]
fn seeded_inversion_is_rejected() {
    let result = std::thread::spawn(|| {
        let high: RankedMutex<u32, { rank::CLIENT_RESULTS }> = RankedMutex::new(0);
        let low: RankedMutex<u32, { rank::FIT_CACHE }> = RankedMutex::new(0);
        let g = high.lock();
        let h = low.lock(); // 210 under 610: inversion
        *g + *h
    })
    .join();
    let err = match result {
        Ok(_) => panic!("seeded rank inversion was not rejected"),
        Err(e) => e,
    };
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("lock rank inversion"), "{msg}");
    assert!(
        msg.contains("FIT_CACHE") && msg.contains("CLIENT_RESULTS"),
        "{msg}"
    );
}

/// A timed wait under contention: parked waiters must not hold their
/// rank, so a sibling thread acquiring the same-rank mutex proceeds.
#[test]
fn timed_wait_does_not_hold_the_rank() {
    let m: Arc<RankedMutex<u32, { rank::COMPLETION_BUS }>> = Arc::new(RankedMutex::new(0));
    let cv: Arc<RankedCondvar<{ rank::COMPLETION_BUS }>> = Arc::new(RankedCondvar::new());

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
    assert_eq!(waiter.join().unwrap_or_default(), 7);
}

/// The lattice is exactly these ten ranks, ascending in this order. A
/// lock added to the service has to be added here (and to DESIGN.md §16)
/// on purpose; one removed has to leave no name behind.
#[test]
fn the_lattice_is_ten_named_ranks() {
    let lattice = [
        (rank::QUEUE_SHARD, "QUEUE_SHARD"),
        (rank::FRONT_DESK, "FRONT_DESK"),
        (rank::FIT_CACHE, "FIT_CACHE"),
        (rank::TICKET_SLOT, "TICKET_SLOT"),
        (rank::COMPLETION_BUS, "COMPLETION_BUS"),
        (rank::SNAPSHOT_RECOVERY, "SNAPSHOT_RECOVERY"),
        (rank::WORKER_HANDLES, "WORKER_HANDLES"),
        (rank::CLIENT_PENDING, "CLIENT_PENDING"),
        (rank::CLIENT_RESULTS, "CLIENT_RESULTS"),
        (rank::SWEEP_RESULTS, "SWEEP_RESULTS"),
    ];
    for pair in lattice.windows(2) {
        assert!(pair[0].0 < pair[1].0, "{pair:?} not ascending");
    }
    let named: Vec<(u16, &str)> = (0..=u16::MAX)
        .map(|r| (r, rank::name(r)))
        .filter(|(_, name)| *name != "UNKNOWN")
        .collect();
    assert_eq!(named, lattice);
}
