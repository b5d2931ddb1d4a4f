//! Bounded, sharded admission queue with priority + deadline ordering
//! and explicit backpressure.
//!
//! Scheduling order is (priority desc, deadline asc with `None` last,
//! admission sequence asc). Deadlines are *logical* — a tie-breaker, not
//! a drop policy — so the order work is dequeued in can never change
//! what any request's response contains, only when it is computed.
//!
//! Invariants (enforced by `audit-source`'s `lock-in-queue` rule and the
//! tests below):
//!
//! * depth never exceeds the per-shard capacity — an admission over
//!   capacity is rejected with a retry-after hint, never queued;
//! * nothing else is locked while a shard's `queue` mutex is held, and
//!   no telemetry is recorded inside the critical section (the
//!   retry-after estimate reads an atomic EWMA, not a lock);
//! * once closed, the queue accepts nothing new but still hands back
//!   everything already admitted, so a draining worker pool loses no
//!   in-flight request.

use crate::ranked::{RankedCondvar, RankedMutex};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Explicit admission rejection: the shard is at capacity. The caller
/// should retry after the hinted delay (depth × EWMA service time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backpressure {
    pub retry_after_ms: u64,
    /// Shard depth at rejection time.
    pub depth: usize,
}

/// Why an admission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// At capacity; retry later.
    Backpressure(Backpressure),
    /// The queue was closed for shutdown.
    Closed,
}

/// Scheduling class of one queued item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rank {
    /// 0 (lowest) – 9 (highest); higher dequeues first.
    pub priority: u8,
    /// Sooner dequeues first within a priority class; `None` last.
    pub deadline_ms: Option<u64>,
}

struct Entry<T> {
    rank: Rank,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    /// `BinaryHeap` pops the maximum, so "greater" means "dequeue first".
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank
            .priority
            .cmp(&other.rank.priority)
            .then_with(|| match (self.rank.deadline_ms, other.rank.deadline_ms) {
                (None, None) => std::cmp::Ordering::Equal,
                (Some(_), None) => std::cmp::Ordering::Greater,
                (None, Some(_)) => std::cmp::Ordering::Less,
                (Some(a), Some(b)) => b.cmp(&a),
            })
            // FIFO within a class: the earlier admission dequeues first.
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct ShardState<T> {
    heap: BinaryHeap<Entry<T>>,
    closed: bool,
}

struct Shard<T> {
    // Named `queue` on purpose: audit-source's `lock-in-queue` rule
    // anchors its critical-section regions on the literal `queue.lock()`,
    // so every acquisition below spells it out (no helper indirection).
    // A poisoned queue mutex only means a worker panicked mid-pop; the
    // remaining entries are still worth draining — the ranked wrapper
    // absorbs poison internally. Nothing is ever acquired while a shard
    // lock is held (the one-guard rule, DESIGN.md §16).
    queue: RankedMutex<ShardState<T>>,
    available: RankedCondvar,
}

/// The bounded sharded queue. Each shard has its own mutex + condvar so
/// admissions to different shards never contend.
pub struct AdmissionQueue<T> {
    shards: Vec<Shard<T>>,
    capacity: usize,
    seq: AtomicU64,
    /// EWMA of observed service time, as `f64::to_bits` — read lock-free
    /// when computing retry-after hints.
    ewma_ms_bits: AtomicU64,
}

/// Retry-after floor when no service time has been observed yet.
const DEFAULT_SERVICE_MS: f64 = 25.0;

impl<T> AdmissionQueue<T> {
    /// A queue with `shards` shards of `capacity` entries each.
    pub fn new(shards: usize, capacity: usize) -> AdmissionQueue<T> {
        let shards = shards.max(1);
        AdmissionQueue {
            shards: (0..shards)
                .map(|_| Shard {
                    queue: RankedMutex::new(ShardState {
                        heap: BinaryHeap::new(),
                        closed: false,
                    }),
                    available: RankedCondvar::new(),
                })
                .collect(),
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            ewma_ms_bits: AtomicU64::new(DEFAULT_SERVICE_MS.to_bits()),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Admit an item to a shard, or reject it with a retry-after hint.
    pub fn push(&self, shard: usize, rank: Rank, item: T) -> Result<(), PushError> {
        let shard = &self.shards[shard % self.shards.len()];
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let depth;
        {
            let mut st = shard.queue.lock();
            if st.closed {
                return Err(PushError::Closed);
            }
            if st.heap.len() >= self.capacity {
                depth = st.heap.len();
            } else {
                st.heap.push(Entry { rank, seq, item });
                drop(st);
                shard.available.notify_one();
                return Ok(());
            }
        }
        Err(PushError::Backpressure(Backpressure {
            retry_after_ms: self.retry_after_ms(depth),
            depth,
        }))
    }

    /// Block until an item is available (highest rank first) or the
    /// queue is closed *and* drained — then `None`.
    pub fn pop(&self, shard: usize) -> Option<T> {
        let shard = &self.shards[shard % self.shards.len()];
        let mut st = shard.queue.lock();
        loop {
            if let Some(entry) = st.heap.pop() {
                return Some(entry.item);
            }
            if st.closed {
                return None;
            }
            st = shard.available.wait(st);
        }
    }

    /// Stop admissions. Already-queued items remain poppable; blocked
    /// `pop`s return `None` once their shard drains.
    pub fn close(&self) {
        for shard in &self.shards {
            let mut st = shard.queue.lock();
            st.closed = true;
            drop(st);
            shard.available.notify_all();
        }
    }

    /// Close *and* hand back everything still queued, in dequeue order.
    /// The graceful-drain contract (DESIGN.md §13): queued-but-unstarted
    /// requests are **rejected with a retry hint**, not silently computed
    /// after the caller asked the service to stop — the caller resolves
    /// the returned items with an explicit draining error. In-flight
    /// items (already popped by a worker) are unaffected and complete
    /// normally.
    pub fn close_now(&self) -> Vec<T> {
        let mut drained = Vec::new();
        for shard in &self.shards {
            let mut st = shard.queue.lock();
            st.closed = true;
            while let Some(entry) = st.heap.pop() {
                drained.push(entry.item);
            }
            drop(st);
            shard.available.notify_all();
        }
        drained
    }

    /// Re-admit an item its worker popped but could not finish (the
    /// supervisor's requeue-on-fault path). Capacity is not enforced —
    /// the item already held a slot when it was first admitted, so
    /// bouncing it for backpressure would double-charge it. Only a
    /// closed shard refuses, handing the item back so the caller can
    /// route it down the degradation ladder instead of losing it.
    pub fn push_back(&self, shard: usize, rank: Rank, item: T) -> Result<(), T> {
        let shard = &self.shards[shard % self.shards.len()];
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut st = shard.queue.lock();
        if st.closed {
            return Err(item);
        }
        st.heap.push(Entry { rank, seq, item });
        drop(st);
        shard.available.notify_one();
        Ok(())
    }

    /// Total queued entries across shards.
    pub fn depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue.lock().heap.len()).sum()
    }

    /// Fold an observed service time into the EWMA the retry-after hint
    /// is derived from.
    pub fn record_service_ms(&self, ms: f64) {
        if !ms.is_finite() || ms < 0.0 {
            return;
        }
        let mut cur = self.ewma_ms_bits.load(Ordering::Relaxed);
        loop {
            let next = (0.8 * f64::from_bits(cur) + 0.2 * ms).to_bits();
            match self.ewma_ms_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current EWMA service-time estimate.
    pub fn ewma_service_ms(&self) -> f64 {
        f64::from_bits(self.ewma_ms_bits.load(Ordering::Relaxed))
    }

    fn retry_after_ms(&self, depth: usize) -> u64 {
        let est = depth as f64 * self.ewma_service_ms();
        (est.round() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank(priority: u8, deadline_ms: Option<u64>) -> Rank {
        Rank {
            priority,
            deadline_ms,
        }
    }

    #[test]
    fn dequeue_order_is_priority_then_deadline_then_fifo() {
        let q: AdmissionQueue<&str> = AdmissionQueue::new(1, 16);
        q.push(0, rank(4, None), "mid-no-deadline").unwrap();
        q.push(0, rank(9, Some(500)), "hi-late").unwrap();
        q.push(0, rank(9, Some(100)), "hi-soon").unwrap();
        q.push(0, rank(4, Some(50)), "mid-soon").unwrap();
        q.push(0, rank(4, None), "mid-no-deadline-2").unwrap();
        q.push(0, rank(0, Some(1)), "low").unwrap();
        let order: Vec<_> =
            std::iter::from_fn(|| if q.depth() == 0 { None } else { q.pop(0) }).collect();
        assert_eq!(
            order,
            [
                "hi-soon",
                "hi-late",
                "mid-soon",
                "mid-no-deadline",
                "mid-no-deadline-2",
                "low"
            ]
        );
    }

    #[test]
    fn capacity_rejection_carries_retry_after() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(1, 2);
        q.push(0, rank(4, None), 1).unwrap();
        q.push(0, rank(4, None), 2).unwrap();
        let err = q.push(0, rank(9, None), 3).unwrap_err();
        match err {
            PushError::Backpressure(bp) => {
                assert_eq!(bp.depth, 2);
                assert!(bp.retry_after_ms >= 1);
            }
            PushError::Closed => panic!("expected backpressure"),
        }
        // Rejection never displaces queued work, even for higher priority.
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn close_drains_without_losing_items() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(2, 8);
        q.push(0, rank(4, None), 10).unwrap();
        q.push(1, rank(4, None), 11).unwrap();
        q.close();
        assert!(matches!(
            q.push(0, rank(4, None), 12),
            Err(PushError::Closed)
        ));
        assert_eq!(q.pop(0), Some(10));
        assert_eq!(q.pop(1), Some(11));
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1), None);
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q = std::sync::Arc::new(AdmissionQueue::<u32>::new(1, 4));
        let q2 = q.clone();
        let waiter = std::thread::spawn(move || q2.pop(0));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn ewma_tracks_service_time() {
        let q: AdmissionQueue<u32> = AdmissionQueue::new(1, 1);
        for _ in 0..64 {
            q.record_service_ms(100.0);
        }
        assert!((q.ewma_service_ms() - 100.0).abs() < 1.0);
        q.push(0, rank(4, None), 1).unwrap();
        let PushError::Backpressure(bp) = q.push(0, rank(4, None), 2).unwrap_err() else {
            panic!("expected backpressure");
        };
        assert!(bp.retry_after_ms >= 90, "hint scales with EWMA");
    }
}
