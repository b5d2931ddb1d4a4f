//! The service's two cache tiers and the in-flight registries their
//! single-flight admission runs on.
//!
//! * **Exact tier** — `exact_key` → [`crate::request::TunePayload`]: a
//!   hit serves the full response with no pipeline work; an identical
//!   request already in flight attaches its ticket to the leader and is
//!   resolved with the leader's payload.
//! * **Fit tier** — `fit_key` → gathered data + fitted curves: a hit
//!   replays them through `GatherPlan::Reuse` + `curve_override`, so
//!   only the solve/execute steps run; a job whose key is being fitted
//!   by another worker is parked on the registry and re-admitted when
//!   that leader publishes (or fails), so one gather+fit is paid per
//!   key however many workers meet it cold. Both tiers are bit-exact by
//!   construction: the gather and fit steps are deterministic functions
//!   of the key, so replaying a cached artifact produces the same bytes
//!   as recomputing it (asserted in `tests/determinism.rs`).
//!
//! Both tiers are one [`FrontDesk`] each — the same capacity-bounded LRU
//! (a `BTreeMap` plus a recency tick, evicting the least-recently-used
//! entry on overflow: deterministic iteration, no hashing of
//! float-bearing values) and the same in-flight registry behind one
//! mutex — instantiated with two value types and two follower handles
//! (a ticket; a whole popped job).

use crate::ranked::{RankedGuard, RankedMutex};
use std::collections::{BTreeMap, HashMap};

/// A capacity-bounded LRU map with stable (sorted) key iteration.
#[derive(Debug)]
pub struct LruCache<V> {
    entries: BTreeMap<String, (V, u64)>,
    tick: u64,
    capacity: usize,
    hits: u64,
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
            evictions: 0,
        }
    }

    /// Look up `key`, refreshing its recency (and counting a hit) when
    /// it is resident.
    pub fn get(&mut self, key: &str) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let (v, last_used) = self.entries.get_mut(key)?;
        *last_used = tick;
        self.hits += 1;
        Some(v.clone())
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

    /// (hits, evictions). What a miss *means* depends on who asked — a
    /// parked follower's first look is not one — so the caller counts
    /// those (see [`FrontDesk::counters`]).
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.evictions)
    }
}

/// How a front desk admitted a request.
#[derive(Debug, PartialEq, Eq)]
pub enum AdmitOutcome<V, T> {
    /// Tier hit: the cached value plus the caller's handle back.
    Cached(V, T),
    /// The key is already in flight; the handle was attached as a
    /// follower and comes back out of the leader's
    /// [`FrontDesk::complete`] / [`FrontDesk::abandon`].
    Followed,
    /// No cached value and no in-flight leader: the caller leads this
    /// key and must `complete` or `abandon` it on every exit.
    Lead(T),
}

#[derive(Debug)]
struct FrontState<V, T> {
    cache: LruCache<V>,
    inflight: HashMap<String, Vec<T>>,
    /// Admissions that came back [`AdmitOutcome::Lead`] — the tier's
    /// misses.
    leads: u64,
}

/// Lookup accounting of one desk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeskCounters {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Admissions that led (computed the value). A follower is neither:
    /// it is counted by whichever lookup finally serves it.
    pub misses: u64,
    pub evictions: u64,
}

/// One cache tier's front desk: its LRU and its in-flight registry
/// behind **one** mutex, so admission sees an atomic
/// snapshot of "done or in flight". Without that atomicity a duplicate
/// could race the leader's completion — miss the cache before the
/// result is inserted, then miss the registry after the leader is
/// removed — and silently recompute. Still bit-identical, but it would
/// break the guarantee that a duplicate submitted after its original
/// resolved always reports a hit, and (on the fit tier) that a cold key
/// met by every worker at once is fitted exactly once.
///
/// Followers are handed back in admission order.
#[derive(Debug)]
pub struct FrontDesk<V, T> {
    desk: RankedMutex<FrontState<V, T>>,
}

impl<V: Clone, T> FrontDesk<V, T> {
    /// `capacity` 0 disables the cache (admission then only coalesces).
    pub fn new(capacity: usize) -> FrontDesk<V, T> {
        FrontDesk {
            desk: RankedMutex::new(FrontState {
                cache: LruCache::new(capacity),
                inflight: HashMap::new(),
                leads: 0,
            }),
        }
    }

    fn lock(&self) -> RankedGuard<'_, FrontState<V, T>> {
        self.desk.lock()
    }

    /// Admit one request: cache lookup and leader/follower decision in
    /// one critical section. `coalesce` false skips the registry (every
    /// miss leads).
    pub fn admit(&self, key: &str, handle: T, coalesce: bool) -> AdmitOutcome<V, T> {
        let mut st = self.lock();
        if let Some(v) = st.cache.get(key) {
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
        st.leads += 1;
        AdmitOutcome::Lead(handle)
    }

    /// Plain cache lookup, no registry (refreshes LRU recency).
    pub fn cached(&self, key: &str) -> Option<V> {
        self.lock().cache.get(key)
    }

    /// The leader gave up without a value: release the key and hand back
    /// the followers that attached in the meantime — nobody is left to
    /// resolve them, so the caller must (fail them the same way, or put
    /// them back in line to lead).
    pub fn abandon(&self, key: &str) -> Vec<T> {
        self.complete(key, None)
    }

    /// Leader finished: atomically publish its result to the cache (when
    /// `value` is `Some` — errors publish nothing) and collect the
    /// followers to resolve with it.
    pub fn complete(&self, key: &str, value: Option<V>) -> Vec<T> {
        let mut st = self.lock();
        if let Some(v) = value {
            st.cache.insert(key.to_string(), v);
        }
        st.inflight.remove(key).unwrap_or_default()
    }

    /// Drop one cached entry (a failed verification — see the service's
    /// sealed-payload poison detection). The in-flight registry is
    /// untouched. Returns whether the entry was resident.
    pub fn invalidate(&self, key: &str) -> bool {
        self.lock().cache.remove(key)
    }

    /// Snapshot export of the cache, LRU-first (see
    /// [`LruCache::export`]).
    pub fn export_cached(&self) -> Vec<(String, V)> {
        self.lock().cache.export()
    }

    /// Restore exported entries (capacity and eviction rules still apply
    /// — restoring into a smaller cache keeps the most recently used
    /// tail).
    pub fn restore_cached(&self, entries: Vec<(String, V)>) {
        self.lock().cache.import(entries);
    }

    /// (cached entries, distinct in-flight keys).
    pub fn depths(&self) -> (usize, usize) {
        let st = self.lock();
        (st.cache.len(), st.inflight.len())
    }

    pub fn counters(&self) -> DeskCounters {
        let st = self.lock();
        let (hits, evictions) = st.cache.counters();
        DeskCounters {
            hits,
            misses: st.leads,
            evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One desk type serves both tiers' tests.
    type Desk = FrontDesk<&'static str, u32>;
    type FitDesk = Desk;

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
        assert_eq!(c.counters(), (3, 1), "(hits, evictions)");
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
        let desk = Desk::new(8);
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
        let desk = Desk::new(8);
        assert_eq!(desk.admit("k", 1, true), AdmitOutcome::Lead(1));
        desk.admit("k", 2, true);
        desk.admit("k", 3, true);
        assert_eq!(desk.abandon("k"), vec![2, 3]);
        // The key is free again.
        assert_eq!(desk.admit("k", 4, true), AdmitOutcome::Lead(4));
    }

    #[test]
    fn front_desk_without_coalescing_always_leads_on_miss() {
        let desk = Desk::new(8);
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
        let desk = Desk::new(8);
        assert_eq!(desk.admit("k", 1, true), AdmitOutcome::Lead(1));
        assert!(desk.complete("k", None).is_empty());
        // Nothing cached: the next duplicate leads and recomputes.
        assert_eq!(desk.admit("k", 2, true), AdmitOutcome::Lead(2));
    }

    #[test]
    fn front_desk_zero_capacity_disables_the_exact_tier() {
        let desk = Desk::new(0);
        assert_eq!(desk.admit("k", 1, true), AdmitOutcome::Lead(1));
        desk.complete("k", Some("payload"));
        // Coalescing still works; caching does not.
        assert_eq!(desk.admit("k", 2, true), AdmitOutcome::Lead(2));
    }

    #[test]
    fn fit_desk_hands_followers_back_in_admission_order() {
        let desk = FitDesk::new(4);
        assert_eq!(desk.admit("k", 10, true), AdmitOutcome::Lead(10));
        for follower in [13, 11, 12, 7] {
            assert_eq!(desk.admit("k", follower, true), AdmitOutcome::Followed);
        }
        // Another key's leader and followers are its own.
        assert_eq!(desk.admit("other", 20, true), AdmitOutcome::Lead(20));
        assert_eq!(desk.admit("other", 21, true), AdmitOutcome::Followed);
        assert_eq!(desk.complete("k", Some("curves")), vec![13, 11, 12, 7]);
        assert_eq!(desk.abandon("other"), vec![21]);
        // Re-admitted, the first set replays; the second finds its key
        // free again and the first of them leads.
        assert_eq!(
            desk.admit("k", 13, true),
            AdmitOutcome::Cached("curves", 13)
        );
        assert_eq!(desk.admit("other", 21, true), AdmitOutcome::Lead(21));
    }

    #[test]
    fn only_leaders_count_as_misses() {
        let desk = FitDesk::new(4);
        desk.admit("k", 1, true); // leads: the one miss
        desk.admit("k", 2, true); // parks: neither hit nor miss
        desk.admit("k", 3, true);
        assert_eq!(
            desk.counters(),
            DeskCounters {
                hits: 0,
                misses: 1,
                evictions: 0
            }
        );
        for follower in desk.complete("k", Some("curves")) {
            // The lookup that serves a follower is its hit.
            assert!(matches!(
                desk.admit("k", follower, true),
                AdmitOutcome::Cached("curves", _)
            ));
        }
        let c = desk.counters();
        assert_eq!((c.hits, c.misses), (2, 1));
    }

    #[test]
    fn a_late_complete_after_a_new_leader_registered_is_harmless() {
        let desk = FitDesk::new(4);
        // Leader 1 hangs; its supervisor abandons the key, follower 2 is
        // re-admitted and leads, 3 parks behind it.
        assert_eq!(desk.admit("k", 1, true), AdmitOutcome::Lead(1));
        assert_eq!(desk.admit("k", 2, true), AdmitOutcome::Followed);
        assert_eq!(desk.abandon("k"), vec![2]);
        assert_eq!(desk.admit("k", 2, true), AdmitOutcome::Lead(2));
        assert_eq!(desk.admit("k", 3, true), AdmitOutcome::Followed);
        // The hung attempt wakes and publishes after all: the value is
        // the one leader 2 would publish, and whoever was parked is
        // handed to the late publisher to re-admit — onto a cached key.
        assert_eq!(desk.complete("k", Some("curves")), vec![3]);
        assert_eq!(desk.admit("k", 3, true), AdmitOutcome::Cached("curves", 3));
        // Leader 2's own completion finds nobody left to release.
        assert!(desk.complete("k", Some("curves")).is_empty());
        assert_eq!(desk.depths(), (1, 0));
    }

    /// A desk consulted under another service guard is a nested
    /// acquisition, and the one-guard rule rejects it before it blocks;
    /// with the guard released first the same call goes through.
    #[test]
    fn a_desk_under_another_guard_panics() {
        let fit = FitDesk::new(1);
        let other = RankedMutex::new(0u8);
        drop(other.lock());
        assert_eq!(fit.admit("k", 1, true), AdmitOutcome::Lead(1));
        #[cfg(debug_assertions)]
        {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _held = other.lock();
                fit.depths()
            }));
            let msg = match caught {
                Ok(_) => panic!("taking the desk under another guard was not caught"),
                Err(e) => e.downcast_ref::<String>().cloned().unwrap_or_default(),
            };
            assert!(
                msg.contains("nested lock") && msg.contains("FrontState") && msg.contains("u8"),
                "{msg}"
            );
        }
    }
}
