//! Service lock wrappers and the runtime lock rule.
//!
//! Every lock in the service and sweep crates is a [`RankedMutex`] (with
//! a [`RankedCondvar`] where a thread parks on it), and every call that
//! can block a thread there — sleep, join, channel receive, accept,
//! connect, socket read/write — goes through one of the wrappers at the
//! bottom of this module. Audit Level 2's `unranked-lock` and
//! `raw-blocking` token rules keep it that way. Under `debug_assertions`
//! each thread then obeys one rule, in two parts:
//!
//! 1. **At most one guard.** Acquiring a lock while this thread holds
//!    another panics with both lock names, *before* blocking on the
//!    mutex, so a nested or re-entrant acquisition fails at once instead
//!    of deadlocking.
//! 2. **No guard across a blocking call.** Each blocking wrapper panics
//!    if this thread holds a guard.
//!
//! A deadlock needs a thread that waits while it holds something another
//! waiter needs. Under the rule a thread waits only for one mutex with
//! nothing held, for a condvar whose guard the wait has given up, or in
//! a blocking call with nothing held — so no lock-order cycle can form,
//! and a would-be deadlock turns into an immediate, attributable failure
//! in the tests and the chaos harness (DESIGN.md §16). Code that must
//! reach a second lock releases the first one beforehand, as
//! `TicketInner::resolve` does before running a callback. Locks are named
//! in panic messages by the type of the data they guard.
//!
//! In release builds (`debug_assertions` off) the checks compile away:
//! `lock()` is exactly `Mutex::lock` plus the project's standard poison
//! absorption (`unwrap_or_else(|e| e.into_inner())` — state integrity is
//! protected by seal verification, not by poison propagation; see
//! DESIGN.md §11), and each blocking wrapper is the call it wraps.

use std::io::{self, BufRead, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// The lock this thread holds, tracked only under `debug_assertions`.
mod held {
    #[cfg(debug_assertions)]
    thread_local! {
        static HELD: std::cell::Cell<Option<&'static str>> =
            const { std::cell::Cell::new(None) };
    }

    /// Record an acquisition of `lock`. Called *before* blocking on the
    /// mutex, so a nested acquisition panics instead of deadlocking.
    #[cfg(debug_assertions)]
    pub(super) fn acquire(lock: &'static str) {
        if let Some(outer) = HELD.get() {
            panic!(
                "nested lock: acquiring `{lock}` while this thread holds `{outer}` — a \
                 thread holds at most one service lock guard (DESIGN.md §16)"
            );
        }
        HELD.set(Some(lock));
    }

    #[cfg(debug_assertions)]
    pub(super) fn release() {
        HELD.set(None);
    }

    /// Assert that this thread holds no guard as it enters `call`.
    #[cfg(debug_assertions)]
    pub(super) fn none(call: &str) {
        if let Some(lock) = HELD.get() {
            panic!(
                "blocking call `{call}` while this thread holds `{lock}` — no guard may be \
                 held across a blocking call (DESIGN.md §16)"
            );
        }
    }

    #[cfg(not(debug_assertions))]
    pub(super) fn acquire(_lock: &'static str) {}
    #[cfg(not(debug_assertions))]
    pub(super) fn release() {}
    #[cfg(not(debug_assertions))]
    pub(super) fn none(_call: &str) {}
}

/// A service mutex: at most one guard per thread (see the module docs).
#[derive(Debug, Default)]
pub struct RankedMutex<T> {
    inner: Mutex<T>,
}

impl<T> RankedMutex<T> {
    pub fn new(value: T) -> RankedMutex<T> {
        RankedMutex {
            inner: Mutex::new(value),
        }
    }

    /// Acquire, absorbing poison. Under `debug_assertions`, panics if
    /// this thread already holds a service lock guard.
    pub fn lock(&self) -> RankedGuard<'_, T> {
        held::acquire(std::any::type_name::<T>());
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
/// by a [`RankedCondvar`] wait) clears the thread's held lock.
#[derive(Debug)]
pub struct RankedGuard<'a, T> {
    /// `None` only transiently, after a wait consumed the inner guard.
    inner: Option<MutexGuard<'a, T>>,
}

impl<'a, T> RankedGuard<'a, T> {
    fn adopt(inner: MutexGuard<'a, T>) -> RankedGuard<'a, T> {
        held::acquire(std::any::type_name::<T>());
        RankedGuard { inner: Some(inner) }
    }

    /// Hand the raw guard to a condvar wait, releasing the held lock.
    fn take_inner(mut self) -> MutexGuard<'a, T> {
        held::release();
        match self.inner.take() {
            Some(g) => g,
            // `inner` is `Some` from construction until this call, and
            // this call consumes `self`.
            None => unreachable!("RankedGuard consumed twice"),
        }
    }
}

impl<T> std::ops::Deref for RankedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.inner {
            Some(g) => g,
            None => unreachable!("RankedGuard used after wait consumed it"),
        }
    }
}

impl<T> std::ops::DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(g) => g,
            None => unreachable!("RankedGuard used after wait consumed it"),
        }
    }
}

impl<T> Drop for RankedGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            held::release();
        }
    }
}

/// A condvar for a [`RankedMutex`]. A wait consumes the thread's one
/// guard, so a thread can only ever park with nothing else held.
#[derive(Debug, Default)]
pub struct RankedCondvar {
    inner: Condvar,
}

impl RankedCondvar {
    pub fn new() -> RankedCondvar {
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

    /// Atomically release the guard and park; the lock is released for
    /// the duration of the wait and held again on wake.
    pub fn wait<'a, T>(&self, guard: RankedGuard<'a, T>) -> RankedGuard<'a, T> {
        let inner = guard.take_inner();
        let inner = self.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
        RankedGuard::adopt(inner)
    }

    /// Bounded wait; the bool is "timed out".
    pub fn wait_timeout<'a, T>(
        &self,
        guard: RankedGuard<'a, T>,
        dur: Duration,
    ) -> (RankedGuard<'a, T>, bool) {
        let inner = guard.take_inner();
        let (inner, timeout) = self
            .inner
            .wait_timeout(inner, dur)
            .unwrap_or_else(|e| e.into_inner());
        (RankedGuard::adopt(inner), timeout.timed_out())
    }
}

// The blocking wrappers: each is the std call it names, entered with no
// service lock guard held.

pub fn sleep(dur: Duration) {
    held::none("sleep");
    std::thread::sleep(dur);
}

pub fn join<T>(handle: JoinHandle<T>) -> std::thread::Result<T> {
    held::none("join");
    handle.join()
}

pub fn recv_timeout<T>(rx: &Receiver<T>, dur: Duration) -> Result<T, RecvTimeoutError> {
    held::none("recv_timeout");
    rx.recv_timeout(dur)
}

pub fn accept(listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
    held::none("accept");
    listener.accept()
}

pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpStream> {
    held::none("connect");
    TcpStream::connect(addr)
}

pub fn read(src: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    held::none("read");
    src.read(buf)
}

pub fn read_line(src: &mut impl BufRead, line: &mut String) -> io::Result<usize> {
    held::none("read_line");
    src.read_line(line)
}

pub fn write(dst: &mut impl Write, buf: &[u8]) -> io::Result<usize> {
    held::none("write");
    dst.write(buf)
}

pub fn flush(dst: &mut impl Write) -> io::Result<()> {
    held::none("flush");
    dst.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, Clone)]
    struct Alpha(u32);
    #[derive(Debug, Default, Clone)]
    struct Beta(u32);

    /// Run `f`, which must panic; return its message.
    fn panic_message(f: impl FnOnce()) -> String {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(()) => panic!("expected a lock-rule panic"),
            Err(e) => e.downcast_ref::<String>().cloned().unwrap_or_default(),
        }
    }

    #[test]
    fn lock_roundtrip_and_into_inner() {
        let m = RankedMutex::new(vec![1u32]);
        {
            let mut g = m.lock();
            g.push(2);
        }
        assert_eq!(m.lock().len(), 2);
        assert_eq!(m.into_inner(), vec![1, 2]);
    }

    #[test]
    fn sequential_acquisition_is_fine() {
        // One lock at a time — the queue's `depth()` pattern over its
        // shards, then a different lock.
        let shards: Vec<RankedMutex<u32>> = (0..4).map(RankedMutex::new).collect();
        let total: u32 = shards.iter().map(|s| *s.lock()).sum();
        assert_eq!(total, 6);
        let other = RankedMutex::new(Beta(1));
        assert_eq!(other.lock().0, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn nested_acquisition_panics() {
        let a = RankedMutex::new(Alpha(1));
        let b = RankedMutex::new(Beta(2));
        let msg = panic_message(|| {
            let ga = a.lock();
            let gb = b.lock();
            std::hint::black_box((ga.0, gb.0));
        });
        assert!(msg.contains("nested lock"), "{msg}");
        // Both locks are named by the data they guard, inner first.
        let (alpha, beta) = (msg.find("Alpha"), msg.find("Beta"));
        assert!(beta.is_some() && alpha.is_some() && beta < alpha, "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn descending_acquisition_panics() {
        // What the rank lattice called an inversion is a nesting like
        // any other.
        let hi = RankedMutex::new(Beta(1));
        let lo = RankedMutex::new(Alpha(2));
        let msg = panic_message(|| {
            let g = hi.lock();
            let h = lo.lock();
            std::hint::black_box(g.0 + h.0);
        });
        assert!(msg.contains("Alpha") && msg.contains("Beta"), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn consistently_ordered_nesting_panics() {
        // Several sites that all nest Alpha then Beta form an acyclic lock
        // order, which a lock-order graph would accept; the one-guard rule
        // rejects every one of them.
        fn first(a: &RankedMutex<Alpha>, b: &RankedMutex<Beta>) -> u32 {
            let ga = a.lock();
            ga.0 + b.lock().0
        }
        fn second(a: &RankedMutex<Alpha>, b: &RankedMutex<Beta>) -> u32 {
            let ga = a.lock();
            let gb = b.lock();
            gb.0 * ga.0
        }
        let a = RankedMutex::new(Alpha(1));
        let b = RankedMutex::new(Beta(2));
        for site in [first, second] {
            let msg = panic_message(|| {
                std::hint::black_box(site(&a, &b));
            });
            assert!(msg.contains("nested lock"), "{msg}");
        }
        // Each caught panic released what it held; one at a time still works.
        let x = a.lock().0;
        assert_eq!(x + b.lock().0, 3);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn inversion_panics_while_another_thread_holds_the_inner_lock() {
        // The deadlock an inversion risks: another thread holds the inner
        // lock. The nesting thread must fail at once, not queue behind it.
        use std::sync::mpsc;
        use std::time::Instant;
        let hi = RankedMutex::new(Beta(1));
        let lo = RankedMutex::new(Alpha(2));
        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let lo = &lo;
            s.spawn(move || {
                let g = lo.lock();
                held_tx.send(()).unwrap();
                // Bounded, so a regression shows as a slow failure, not a hang.
                let _ = release_rx.recv_timeout(Duration::from_secs(30));
                drop(g);
            });
            held_rx.recv().unwrap();
            let start = Instant::now();
            let msg = panic_message(|| {
                let g = hi.lock();
                let h = lo.lock();
                std::hint::black_box(g.0 + h.0);
            });
            let waited = start.elapsed();
            release_tx.send(()).unwrap();
            assert!(msg.contains("nested lock"), "{msg}");
            assert!(
                waited < Duration::from_secs(10),
                "waited {waited:?} on the held lock"
            );
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    fn two_lock_cycle_panics_on_either_half() {
        // The two halves of an A→B / B→A cycle: each fails on its own,
        // on one thread, without a second thread to deadlock against.
        let a = RankedMutex::new(Alpha(1));
        let b = RankedMutex::new(Beta(2));
        let forward = panic_message(|| {
            let ga = a.lock();
            let gb = b.lock();
            std::hint::black_box((ga.0, gb.0));
        });
        let backward = panic_message(|| {
            let gb = b.lock();
            let ga = a.lock();
            std::hint::black_box((ga.0, gb.0));
        });
        assert!(forward.contains("nested lock"), "{forward}");
        assert!(backward.contains("nested lock"), "{backward}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn self_reacquisition_panics_instead_of_deadlocking() {
        let a = RankedMutex::new(Alpha(1));
        let msg = panic_message(|| {
            let g = a.lock();
            let h = a.lock(); // a std Mutex would hang here forever
            std::hint::black_box((g.0, h.0));
        });
        assert!(msg.contains("nested lock"), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn call_through_nesting_panics() {
        fn helper(b: &RankedMutex<Beta>) -> u32 {
            b.lock().0
        }
        let a = RankedMutex::new(Alpha(1));
        let b = RankedMutex::new(Beta(2));
        let msg = panic_message(|| {
            let g = a.lock();
            let n = helper(&b);
            std::hint::black_box((g.0, n));
        });
        assert!(msg.contains("Alpha") && msg.contains("Beta"), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn guard_returning_helper_counts_as_held() {
        // The front desk's idiom: `fn lock(&self) -> RankedGuard<…>`.
        fn desk(a: &RankedMutex<Alpha>) -> RankedGuard<'_, Alpha> {
            a.lock()
        }
        let a = RankedMutex::new(Alpha(1));
        let b = RankedMutex::new(Beta(2));
        let msg = panic_message(|| {
            let st = desk(&a);
            let other = b.lock();
            std::hint::black_box((st.0, other.0));
        });
        assert!(msg.contains("Alpha") && msg.contains("Beta"), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn condvar_wait_under_a_foreign_guard_panics() {
        // Waiting on one lock's condvar while holding another needs the
        // second guard first — and that acquisition already fails.
        let other = RankedMutex::new(Alpha(1));
        let queue = RankedMutex::new(Beta(0));
        let available = RankedCondvar::new();
        let msg = panic_message(|| {
            let held = other.lock();
            let st = queue.lock();
            let (st, _) = available.wait_timeout(st, Duration::from_millis(1));
            std::hint::black_box((held.0, st.0));
        });
        assert!(msg.contains("nested lock"), "{msg}");
    }

    #[test]
    fn condvar_wait_on_own_guard_is_clean() {
        let m = RankedMutex::new(Alpha(0));
        let cv = RankedCondvar::new();
        let mut st = m.lock();
        for _ in 0..3 {
            let (next, timed_out) = cv.wait_timeout(st, Duration::from_millis(1));
            assert!(timed_out);
            st = next;
        }
        st.0 += 1;
        drop(st);
        assert_eq!(m.lock().0, 1);
    }

    #[test]
    fn condvar_wait_timeout_releases_and_reacquires() {
        let m = RankedMutex::new(7u32);
        let cv = RankedCondvar::new();
        let g = m.lock();
        let (g, timed_out) = cv.wait_timeout(g, Duration::from_millis(1));
        assert!(timed_out);
        assert_eq!(*g, 7);
        drop(g);
        // Nothing is left held: another lock, then this one again.
        let other = RankedMutex::new(Beta(0));
        drop(other.lock());
        drop(m.lock());
    }

    #[test]
    fn clone_chain_binds_a_value_not_the_guard() {
        // `let x = m.lock().clone();` copies the data; the temporary
        // guard dies with the statement, so the next lock is not nested.
        let recovery = RankedMutex::new(Alpha(3));
        let history = RankedMutex::new(Beta(4));
        let r = recovery.lock().clone();
        let h = history.lock().clone();
        assert_eq!((r.0, h.0), (3, 4));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn caught_panic_leaves_no_lock_held() {
        // The outer guard drops while the nested-acquisition panic
        // unwinds, so the thread is clean for its next lock.
        let a = RankedMutex::new(Alpha(1));
        let b = RankedMutex::new(Beta(2));
        panic_message(|| {
            let ga = a.lock();
            let gb = b.lock();
            std::hint::black_box((ga.0, gb.0));
        });
        assert_eq!(b.lock().0, 2);
        assert_eq!(a.lock().0, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn guard_across_sleep_panics() {
        let m = RankedMutex::new(Alpha(0));
        let msg = panic_message(|| {
            let g = m.lock();
            sleep(Duration::from_millis(1));
            drop(g);
        });
        assert!(msg.contains("blocking call `sleep`"), "{msg}");
        assert!(msg.contains("Alpha"), "{msg}");
    }

    #[test]
    fn scoped_guard_does_not_reach_the_sleep() {
        let m = RankedMutex::new(Alpha(0));
        {
            let mut g = m.lock();
            g.0 += 1;
        }
        sleep(Duration::from_millis(1));
        assert_eq!(m.lock().0, 1);
    }

    #[test]
    fn dropped_guard_does_not_reach_the_join() {
        let workers = RankedMutex::new(vec![std::thread::spawn(|| 5u32)]);
        let mut g = workers.lock();
        let handles: Vec<_> = g.drain(..).collect();
        drop(g);
        let joined: Vec<u32> = handles.into_iter().filter_map(|h| join(h).ok()).collect();
        assert_eq!(joined, vec![5]);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn guard_across_join_panics() {
        let workers = RankedMutex::new(Alpha(0));
        let h = std::thread::spawn(|| ());
        let msg = panic_message(|| {
            let g = workers.lock();
            let _ = join(h);
            drop(g);
        });
        assert!(msg.contains("blocking call `join`"), "{msg}");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn guard_across_stream_io_panics() {
        let resolved = RankedMutex::new(Alpha(0));
        for call in ["write", "flush", "read", "read_line"] {
            let msg = panic_message(|| {
                let g = resolved.lock();
                let mut sink: Vec<u8> = Vec::new();
                let mut src: &[u8] = b"frame\n";
                let _ = match call {
                    "write" => write(&mut sink, b"frame\n"),
                    "flush" => flush(&mut sink).map(|()| 0),
                    "read" => read(&mut src, &mut [0u8; 8]),
                    _ => read_line(&mut src, &mut String::new()),
                };
                drop(g);
            });
            assert!(msg.contains(&format!("blocking call `{call}`")), "{msg}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn guard_across_channel_receive_panics() {
        let m = RankedMutex::new(Alpha(0));
        let (_tx, rx) = std::sync::mpsc::channel::<u32>();
        let msg = panic_message(|| {
            let g = m.lock();
            let _ = recv_timeout(&rx, Duration::from_millis(1));
            drop(g);
        });
        assert!(msg.contains("blocking call `recv_timeout`"), "{msg}");
    }

    #[test]
    fn stream_wrappers_pass_the_bytes_through() {
        let mut sink: Vec<u8> = Vec::new();
        assert_eq!(write(&mut sink, b"ab").ok(), Some(2));
        assert!(flush(&mut sink).is_ok());
        let mut src: &[u8] = b"line\nrest";
        let mut line = String::new();
        assert_eq!(read_line(&mut src, &mut line).ok(), Some(5));
        let mut buf = [0u8; 8];
        assert_eq!(read(&mut src, &mut buf).ok(), Some(4));
        assert_eq!(
            (sink.as_slice(), line.as_str(), &buf[..4]),
            (&b"ab"[..], "line\n", &b"rest"[..])
        );
    }
}
