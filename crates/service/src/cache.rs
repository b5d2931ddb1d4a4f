//! The service's two cache tiers and the in-flight request registry the
//! coalescer runs on.
//!
//! * **Exact tier** — `exact_key` → [`crate::request::TunePayload`]: a
//!   hit serves the full response with no pipeline work.
//! * **Fit tier** — `fit_key` → gathered data + fitted curves: a hit
//!   replays them through `GatherPlan::Reuse` + `curve_override`, so
//!   only the solve/execute steps run. Both tiers are bit-exact by
//!   construction: the gather and fit steps are deterministic functions
//!   of the key, so replaying a cached artifact produces the same bytes
//!   as recomputing it (asserted in `tests/determinism.rs`).
//!
//! Both tiers use the same capacity-bounded LRU: a `BTreeMap` plus a
//! recency tick, evicting the least-recently-used entry on overflow —
//! deterministic iteration, no hashing of float-bearing values.

use crate::ranked::{rank, RankedGuard, RankedMutex};
use std::collections::{BTreeMap, HashMap};

/// A capacity-bounded LRU map with stable (sorted) key iteration.
#[derive(Debug)]
pub struct LruCache<V> {
    entries: BTreeMap<String, (V, u64)>,
    tick: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V: Clone> LruCache<V> {
    /// `capacity` 0 caches nothing (every lookup misses).
    pub fn new(capacity: usize) -> LruCache<V> {
        LruCache {
            entries: BTreeMap::new(),
            tick: 0,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(key) {
            Some((v, last_used)) => {
                *last_used = tick;
                self.hits += 1;
                Some(v.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert `key`, evicting least-recently-used entries while over
    /// capacity.
    pub fn insert(&mut self, key: String, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        self.entries.insert(key, (value, self.tick));
        while self.entries.len() > self.capacity {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| k.clone());
            let Some(k) = oldest else { break };
            self.entries.remove(&k);
            self.evictions += 1;
        }
    }

    /// Drop `key` outright (a poisoned entry, say). Returns whether it
    /// was resident.
    pub fn remove(&mut self, key: &str) -> bool {
        self.entries.remove(key).is_some()
    }

    /// Clone out every entry in recency order, least-recently-used
    /// first — the snapshot export. Re-inserting the exported list in
    /// order ([`LruCache::import`]) reproduces the same eviction order.
    pub fn export(&self) -> Vec<(String, V)> {
        let mut entries: Vec<(&String, &(V, u64))> = self.entries.iter().collect();
        entries.sort_by_key(|(_, (_, tick))| *tick);
        entries
            .into_iter()
            .map(|(k, (v, _))| (k.clone(), v.clone()))
            .collect()
    }

    /// Insert exported entries in order (LRU-first), restoring both the
    /// contents and the relative recency of a snapshot.
    pub fn import(&mut self, entries: Vec<(String, V)>) {
        for (k, v) in entries {
            self.insert(k, v);
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

/// How the front desk admitted a request.
#[derive(Debug, PartialEq, Eq)]
pub enum AdmitOutcome<V, T> {
    /// Exact-tier hit: the cached value plus the caller's handle back.
    Cached(V, T),
    /// An identical request is already in flight; the handle was
    /// attached as a follower and will be resolved by the leader.
    Followed,
    /// No cached value and no in-flight leader: the caller leads this
    /// key and must enqueue (or `abandon` on failure).
    Lead(T),
}

#[derive(Debug)]
struct FrontState<V, T> {
    exact: LruCache<V>,
    inflight: HashMap<String, Vec<T>>,
}

/// The service's front desk: the exact-key cache tier and the in-flight
/// (coalescer) registry behind **one** mutex, so admission sees an
/// atomic snapshot of "done or in flight". Without that atomicity a
/// duplicate could race the leader's completion — miss the cache before
/// the result is inserted, then miss the registry after the leader is
/// removed — and silently recompute. Still bit-identical, but it would
/// break the guarantee that a duplicate submitted after its original
/// resolved always reports a cache/coalesce hit.
#[derive(Debug)]
pub struct FrontDesk<V, T> {
    state: RankedMutex<FrontState<V, T>, { rank::FRONT_DESK }>,
}

impl<V: Clone, T> FrontDesk<V, T> {
    /// `exact_capacity` 0 disables the exact tier (admission then only
    /// coalesces).
    pub fn new(exact_capacity: usize) -> FrontDesk<V, T> {
        FrontDesk {
            state: RankedMutex::new(FrontState {
                exact: LruCache::new(exact_capacity),
                inflight: HashMap::new(),
            }),
        }
    }

    fn lock(&self) -> RankedGuard<'_, FrontState<V, T>, { rank::FRONT_DESK }> {
        self.state.lock()
    }

    /// Admit one request: exact-tier lookup and leader/follower decision
    /// in one critical section. `coalesce` false skips the registry
    /// (every miss leads).
    pub fn admit(&self, key: &str, handle: T, coalesce: bool) -> AdmitOutcome<V, T> {
        let mut st = self.lock();
        if let Some(v) = st.exact.get(key) {
            return AdmitOutcome::Cached(v, handle);
        }
        if coalesce {
            match st.inflight.get_mut(key) {
                Some(followers) => {
                    followers.push(handle);
                    return AdmitOutcome::Followed;
                }
                None => {
                    st.inflight.insert(key.to_string(), Vec::new());
                }
            }
        }
        AdmitOutcome::Lead(handle)
    }

    /// Worker-side re-check of the exact tier (refreshes LRU recency).
    pub fn cached(&self, key: &str) -> Option<V> {
        self.lock().exact.get(key)
    }

    /// Leader failed to enqueue: release the key and hand back any
    /// followers that attached in the meantime (they must be failed the
    /// same way — nobody is left to resolve them).
    pub fn abandon(&self, key: &str) -> Vec<T> {
        self.lock().inflight.remove(key).unwrap_or_default()
    }

    /// Leader finished: atomically publish its result to the exact tier
    /// (when `value` is `Some` — pipeline errors publish nothing) and
    /// collect the followers to resolve with it.
    pub fn complete(&self, key: &str, value: Option<V>) -> Vec<T> {
        let mut st = self.lock();
        if let Some(v) = value {
            st.exact.insert(key.to_string(), v);
        }
        st.inflight.remove(key).unwrap_or_default()
    }

    /// Drop one exact-tier entry (a failed verification — see the
    /// service's sealed-payload poison detection). The in-flight registry
    /// is untouched. Returns whether the entry was resident.
    pub fn invalidate(&self, key: &str) -> bool {
        self.lock().exact.remove(key)
    }

    /// Snapshot export of the exact tier, LRU-first (see
    /// [`LruCache::export`]).
    pub fn export_cached(&self) -> Vec<(String, V)> {
        self.lock().exact.export()
    }

    /// Restore exported exact-tier entries (capacity and eviction rules
    /// still apply — restoring into a smaller cache keeps the most
    /// recently used tail).
    pub fn restore_cached(&self, entries: Vec<(String, V)>) {
        self.lock().exact.import(entries);
    }

    /// (cached entries, distinct in-flight keys).
    pub fn depths(&self) -> (usize, usize) {
        let st = self.lock();
        (st.exact.len(), st.inflight.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a".to_string(), 1);
        c.insert("b".to_string(), 2);
        assert_eq!(c.get("a"), Some(1)); // refresh a
        c.insert("c".to_string(), 3); // evicts b
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get("a"), Some(1));
        assert_eq!(c.get("c"), Some(3));
        let (_, _, evictions) = c.counters();
        assert_eq!(evictions, 1);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = LruCache::new(0);
        c.insert("a".to_string(), 1);
        assert_eq!(c.get("a"), None);
        assert!(c.is_empty());
    }

    #[test]
    fn front_desk_leads_follows_then_serves_cached() {
        let desk: FrontDesk<&str, u32> = FrontDesk::new(8);
        // First submit leads.
        assert_eq!(desk.admit("k", 1, true), AdmitOutcome::Lead(1));
        // Identical submits while in flight follow.
        assert_eq!(desk.admit("k", 2, true), AdmitOutcome::Followed);
        assert_eq!(desk.admit("k", 3, true), AdmitOutcome::Followed);
        // Completion atomically publishes + collects followers.
        let followers = desk.complete("k", Some("payload"));
        assert_eq!(followers, vec![2, 3]);
        // After completion, duplicates hit the exact tier — never a
        // second Lead for a published key.
        assert_eq!(desk.admit("k", 4, true), AdmitOutcome::Cached("payload", 4));
        let (cached, inflight) = desk.depths();
        assert_eq!((cached, inflight), (1, 0));
    }

    #[test]
    fn front_desk_abandon_returns_orphaned_followers() {
        let desk: FrontDesk<&str, u32> = FrontDesk::new(8);
        assert_eq!(desk.admit("k", 1, true), AdmitOutcome::Lead(1));
        desk.admit("k", 2, true);
        desk.admit("k", 3, true);
        assert_eq!(desk.abandon("k"), vec![2, 3]);
        // The key is free again.
        assert_eq!(desk.admit("k", 4, true), AdmitOutcome::Lead(4));
    }

    #[test]
    fn front_desk_without_coalescing_always_leads_on_miss() {
        let desk: FrontDesk<&str, u32> = FrontDesk::new(8);
        assert_eq!(desk.admit("k", 1, false), AdmitOutcome::Lead(1));
        assert_eq!(desk.admit("k", 2, false), AdmitOutcome::Lead(2));
        // Completion with no registered leader publishes the value only.
        assert!(desk.complete("k", Some("payload")).is_empty());
        assert_eq!(
            desk.admit("k", 3, false),
            AdmitOutcome::Cached("payload", 3)
        );
    }

    #[test]
    fn front_desk_error_completion_publishes_nothing() {
        let desk: FrontDesk<&str, u32> = FrontDesk::new(8);
        assert_eq!(desk.admit("k", 1, true), AdmitOutcome::Lead(1));
        assert!(desk.complete("k", None).is_empty());
        // Nothing cached: the next duplicate leads and recomputes.
        assert_eq!(desk.admit("k", 2, true), AdmitOutcome::Lead(2));
    }

    #[test]
    fn front_desk_zero_capacity_disables_the_exact_tier() {
        let desk: FrontDesk<&str, u32> = FrontDesk::new(0);
        assert_eq!(desk.admit("k", 1, true), AdmitOutcome::Lead(1));
        desk.complete("k", Some("payload"));
        // Coalescing still works; caching does not.
        assert_eq!(desk.admit("k", 2, true), AdmitOutcome::Lead(2));
    }
}
