//! Lightweight, dependency-free observability for the HSLB pipeline.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//!
//! The pipeline (gather → fit → solve → execute) runs as a tuning
//! service; this crate gives every layer a shared way to say what it is
//! doing without pulling in the `tracing` ecosystem (the build container
//! has no registry access). The model is a strict subset of `tracing`:
//!
//! * **spans** ([`Telemetry::span`]) — named, nested regions with wall
//!   time. Nesting is tracked per thread, so the gather→fit→solve tree
//!   can be reconstructed from the flat event log ([`span_tree`]);
//! * **points** ([`Telemetry::point`]) — instantaneous events carrying
//!   numeric fields and string labels (incumbent updates, retries,
//!   ladder fallbacks);
//! * **counters** ([`Telemetry::counter_add`]) — monotonic named totals
//!   that survive the parallel solver (workers add their local tallies);
//! * **histograms** ([`Telemetry::record`]) — value distributions with
//!   count/min/max/mean/p50/p90/p99 summaries (per-run wall times, backoff
//!   waits, cut-pool sizes).
//!
//! A disabled handle ([`Telemetry::disabled`], the default everywhere) is
//! a single `Option` check per call — hot paths pay nothing unless the
//! caller opted in. Instrumentation is strictly passive: it never feeds
//! back into any algorithmic decision, so a telemetry-enabled solve is
//! bit-identical to a disabled one.
//!
//! The whole state snapshots to JSON ([`Snapshot::to_json`]) and parses
//! back ([`Snapshot::from_json`]) via the vendored [`json`] module.
//!
//! # Examples
//!
//! ```
//! use hslb_telemetry::Telemetry;
//!
//! let tel = Telemetry::new();
//! {
//!     let _pipeline = tel.span("pipeline");
//!     {
//!         let _gather = tel.span("gather");
//!         tel.record("gather.run_s", 306.9);
//!         tel.counter_add("gather.attempts", 1);
//!     }
//!     tel.point("ladder.rung", &[], &[("rung", "minlp")]);
//! }
//! let snap = tel.snapshot();
//! assert_eq!(snap.counters["gather.attempts"], 1);
//! let tree = hslb_telemetry::span_tree(&snap.events);
//! assert_eq!(tree[0].name, "pipeline");
//! assert_eq!(tree[0].children[0].name, "gather");
//! // And the JSON sink round-trips.
//! let back = hslb_telemetry::Snapshot::from_json(&snap.to_json()).unwrap();
//! assert_eq!(back.counters, snap.counters);
//! ```

pub mod codec;
pub mod json;

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span was opened (`span` is its id).
    SpanStart,
    /// A span closed; `dur_ms` carries its wall time.
    SpanEnd,
    /// An instantaneous observation inside the enclosing span.
    Point,
}

impl EventKind {
    fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Point => "point",
        }
    }

    fn parse(s: &str) -> Option<EventKind> {
        match s {
            "span_start" => Some(EventKind::SpanStart),
            "span_end" => Some(EventKind::SpanEnd),
            "point" => Some(EventKind::Point),
            _ => None,
        }
    }
}

/// One entry in the event log.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Milliseconds since the handle was created.
    pub t_ms: f64,
    pub kind: EventKind,
    pub name: String,
    /// The span this event belongs to: its own id for
    /// `SpanStart`/`SpanEnd`, the enclosing span for `Point` (0 = none).
    pub span: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Wall time for `SpanEnd` events.
    pub dur_ms: Option<f64>,
    /// Numeric payload, in insertion order.
    pub fields: Vec<(String, f64)>,
    /// String payload, in insertion order.
    pub labels: Vec<(String, String)>,
}

/// Histogram of recorded values. Keeps every value up to a cap (enough
/// for per-phase instrumentation; quantiles degrade gracefully past it).
#[derive(Debug, Clone, Default)]
struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    values: Vec<f64>,
}

const HIST_VALUE_CAP: usize = 4096;

impl Histogram {
    fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        if self.values.len() < HIST_VALUE_CAP {
            self.values.push(v);
        }
    }

    fn summary(&self) -> HistSummary {
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let q = |p: f64| -> f64 {
            if sorted.is_empty() {
                return f64::NAN;
            }
            let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
            sorted[idx]
        };
        HistSummary {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            mean: if self.count > 0 {
                self.sum / self.count as f64
            } else {
                f64::NAN
            },
            p50: q(0.5),
            p90: q(0.9),
            p99: q(0.99),
        }
    }
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

#[derive(Default)]
struct State {
    events: Vec<Event>,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
    /// Per-thread open-span stack for parent tracking.
    stacks: HashMap<ThreadId, Vec<u64>>,
}

struct Inner {
    start: Instant,
    next_span: AtomicU64,
    state: Mutex<State>,
}

/// A cheap, cloneable telemetry handle. Disabled handles are free.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Telemetry({})",
            if self.inner.is_some() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl Telemetry {
    /// An enabled handle with an empty event log.
    pub fn new() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                next_span: AtomicU64::new(1),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// A no-op handle (the default in every options struct).
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// True when this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn t_ms(inner: &Inner) -> f64 {
        inner.start.elapsed().as_secs_f64() * 1e3
    }

    fn lock(inner: &Inner) -> std::sync::MutexGuard<'_, State> {
        // A poisoned mutex only means another thread panicked mid-record;
        // the log is still worth reading.
        inner.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Open a named span. The guard closes it (recording wall time) on
    /// drop; spans opened while it lives on the same thread become its
    /// children.
    pub fn span(&self, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                telemetry: Telemetry::disabled(),
                id: 0,
                thread: std::thread::current().id(),
                start: Instant::now(),
            };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let thread = std::thread::current().id();
        let t_ms = Self::t_ms(inner);
        {
            let mut st = Self::lock(inner);
            let parent = st
                .stacks
                .get(&thread)
                .and_then(|s| s.last().copied())
                .unwrap_or(0);
            st.events.push(Event {
                t_ms,
                kind: EventKind::SpanStart,
                name: name.to_string(),
                span: id,
                parent,
                dur_ms: None,
                fields: Vec::new(),
                labels: Vec::new(),
            });
            st.stacks.entry(thread).or_default().push(id);
        }
        SpanGuard {
            telemetry: self.clone(),
            id,
            thread,
            start: Instant::now(),
        }
    }

    /// Record an instantaneous event under the current thread's span.
    pub fn point(&self, name: &str, fields: &[(&str, f64)], labels: &[(&str, &str)]) {
        let Some(inner) = &self.inner else { return };
        let thread = std::thread::current().id();
        let t_ms = Self::t_ms(inner);
        let mut st = Self::lock(inner);
        let span = st
            .stacks
            .get(&thread)
            .and_then(|s| s.last().copied())
            .unwrap_or(0);
        st.events.push(Event {
            t_ms,
            kind: EventKind::Point,
            name: name.to_string(),
            span,
            parent: span,
            dur_ms: None,
            fields: fields.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }

    /// Add to a named monotonic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = Self::lock(inner);
        match st.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                st.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        Self::lock(inner).counters.get(name).copied().unwrap_or(0)
    }

    /// Record one value into a named histogram.
    pub fn record(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        let mut st = Self::lock(inner);
        match st.hists.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::default();
                h.record(value);
                st.hists.insert(name.to_string(), h);
            }
        }
    }

    /// Milliseconds since the handle was created (0 when disabled).
    pub fn elapsed_ms(&self) -> f64 {
        self.inner.as_ref().map_or(0.0, |i| Self::t_ms(i))
    }

    /// Copy of the full event log.
    pub fn events(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        Self::lock(inner).events.clone()
    }

    /// Consistent snapshot of events, counters and histogram summaries.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let st = Self::lock(inner);
        Snapshot {
            events: st.events.clone(),
            counters: st.counters.clone(),
            hists: st
                .hists
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
        }
    }

    fn close_span(&self, id: u64, thread: ThreadId, start: Instant) {
        let Some(inner) = &self.inner else { return };
        let dur_ms = start.elapsed().as_secs_f64() * 1e3;
        let t_ms = Self::t_ms(inner);
        let mut st = Self::lock(inner);
        // Pop this span from its opening thread's stack (it is almost
        // always on top; a retain guards against out-of-order drops).
        if let Some(stack) = st.stacks.get_mut(&thread) {
            if stack.last() == Some(&id) {
                stack.pop();
            } else {
                stack.retain(|&s| s != id);
            }
        }
        let (name, parent) = st
            .events
            .iter()
            .find(|e| e.kind == EventKind::SpanStart && e.span == id)
            .map(|e| (e.name.clone(), e.parent))
            .unwrap_or_default();
        st.events.push(Event {
            t_ms,
            kind: EventKind::SpanEnd,
            name,
            span: id,
            parent,
            dur_ms: Some(dur_ms),
            fields: Vec::new(),
            labels: Vec::new(),
        });
    }
}

/// RAII guard returned by [`Telemetry::span`].
pub struct SpanGuard {
    telemetry: Telemetry,
    id: u64,
    thread: ThreadId,
    start: Instant,
}

impl SpanGuard {
    /// The span's id (0 when telemetry is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id != 0 {
            self.telemetry.close_span(self.id, self.thread, self.start);
        }
    }
}

/// Everything a [`Telemetry`] handle accumulated, in a serializable form.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub events: Vec<Event>,
    pub counters: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, HistSummary>,
}

/// One node of the reconstructed span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    pub id: u64,
    pub name: String,
    /// `None` for spans that never closed (still open at snapshot time).
    pub dur_ms: Option<f64>,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Depth-first search by name.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// Rebuild the span tree from a flat event log. Returns the root spans
/// (parent 0) in opening order.
pub fn span_tree(events: &[Event]) -> Vec<SpanNode> {
    let mut nodes: BTreeMap<u64, SpanNode> = BTreeMap::new();
    let mut order: Vec<u64> = Vec::new();
    let mut parents: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        match e.kind {
            EventKind::SpanStart => {
                nodes.insert(
                    e.span,
                    SpanNode {
                        id: e.span,
                        name: e.name.clone(),
                        dur_ms: None,
                        children: Vec::new(),
                    },
                );
                order.push(e.span);
                parents.insert(e.span, e.parent);
            }
            EventKind::SpanEnd => {
                if let Some(n) = nodes.get_mut(&e.span) {
                    n.dur_ms = e.dur_ms;
                }
            }
            EventKind::Point => {}
        }
    }
    // Attach children to parents deepest-first (reverse opening order so
    // a child is complete before it is moved into its parent).
    let mut roots = Vec::new();
    for &id in order.iter().rev() {
        let parent = parents.get(&id).copied().unwrap_or(0);
        if parent == 0 || !nodes.contains_key(&parent) {
            continue;
        }
        if let Some(child) = nodes.remove(&id) {
            if let Some(p) = nodes.get_mut(&parent) {
                p.children.insert(0, child);
            }
        }
    }
    for id in order {
        if let Some(n) = nodes.remove(&id) {
            roots.push(n);
        }
    }
    roots
}

// --- JSON encoding of snapshots -------------------------------------------

impl Event {
    fn to_value(&self) -> json::Value {
        let mut obj = vec![
            ("t_ms".to_string(), json::Value::Num(self.t_ms)),
            (
                "kind".to_string(),
                json::Value::Str(self.kind.as_str().to_string()),
            ),
            ("name".to_string(), json::Value::Str(self.name.clone())),
            ("span".to_string(), json::Value::Num(self.span as f64)),
            ("parent".to_string(), json::Value::Num(self.parent as f64)),
        ];
        if let Some(d) = self.dur_ms {
            obj.push(("dur_ms".to_string(), json::Value::Num(d)));
        }
        if !self.fields.is_empty() {
            obj.push((
                "fields".to_string(),
                json::Value::Obj(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.clone(), json::Value::Num(*v)))
                        .collect(),
                ),
            ));
        }
        if !self.labels.is_empty() {
            obj.push((
                "labels".to_string(),
                json::Value::Obj(
                    self.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), json::Value::Str(v.clone())))
                        .collect(),
                ),
            ));
        }
        json::Value::Obj(obj)
    }

    fn from_value(v: &json::Value) -> Option<Event> {
        let kind = EventKind::parse(v.get("kind")?.as_str()?)?;
        Some(Event {
            t_ms: v.get("t_ms")?.as_f64()?,
            kind,
            name: v.get("name")?.as_str()?.to_string(),
            span: v.get("span")?.as_f64()? as u64,
            parent: v.get("parent")?.as_f64()? as u64,
            dur_ms: v.get("dur_ms").and_then(|d| d.as_f64()),
            fields: match v.get("fields") {
                Some(json::Value::Obj(kv)) => kv
                    .iter()
                    .filter_map(|(k, fv)| fv.as_f64().map(|x| (k.clone(), x)))
                    .collect(),
                _ => Vec::new(),
            },
            labels: match v.get("labels") {
                Some(json::Value::Obj(kv)) => kv
                    .iter()
                    .filter_map(|(k, lv)| lv.as_str().map(|s| (k.clone(), s.to_string())))
                    .collect(),
                _ => Vec::new(),
            },
        })
    }
}

impl HistSummary {
    fn to_value(&self) -> json::Value {
        json::Value::Obj(vec![
            ("count".to_string(), json::Value::Num(self.count as f64)),
            ("sum".to_string(), json::Value::Num(self.sum)),
            ("min".to_string(), json::Value::Num(self.min)),
            ("max".to_string(), json::Value::Num(self.max)),
            ("mean".to_string(), json::Value::Num(self.mean)),
            ("p50".to_string(), json::Value::Num(self.p50)),
            ("p90".to_string(), json::Value::Num(self.p90)),
            ("p99".to_string(), json::Value::Num(self.p99)),
        ])
    }

    fn from_value(v: &json::Value) -> Option<HistSummary> {
        Some(HistSummary {
            count: v.get("count")?.as_f64()? as u64,
            sum: v.get("sum")?.as_f64()?,
            min: v.get("min")?.as_f64()?,
            max: v.get("max")?.as_f64()?,
            mean: v.get("mean")?.as_f64()?,
            p50: v.get("p50")?.as_f64()?,
            p90: v.get("p90")?.as_f64()?,
            // p99 arrived with the v4 bench schema; older serialized
            // snapshots fall back to p90 (their nearest upper quantile).
            p99: v
                .get("p99")
                .and_then(json::Value::as_f64)
                .unwrap_or(v.get("p90")?.as_f64()?),
        })
    }
}

impl Snapshot {
    /// Serialize to a JSON document (the event-sink format).
    pub fn to_json(&self) -> String {
        json::Value::Obj(vec![
            (
                "events".to_string(),
                json::Value::Arr(self.events.iter().map(Event::to_value).collect()),
            ),
            (
                "counters".to_string(),
                json::Value::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), json::Value::Num(v as f64)))
                        .collect(),
                ),
            ),
            (
                "hists".to_string(),
                json::Value::Obj(
                    self.hists
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_value()))
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// Parse a document produced by [`Snapshot::to_json`].
    pub fn from_json(s: &str) -> Result<Snapshot, String> {
        let v = json::parse(s)?;
        let events = match v.get("events") {
            Some(json::Value::Arr(items)) => items
                .iter()
                .map(|e| Event::from_value(e).ok_or_else(|| "malformed event".to_string()))
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing events array".to_string()),
        };
        let counters = match v.get("counters") {
            Some(json::Value::Obj(kv)) => kv
                .iter()
                .map(|(k, cv)| {
                    cv.as_f64()
                        .map(|x| (k.clone(), x as u64))
                        .ok_or_else(|| "non-numeric counter".to_string())
                })
                .collect::<Result<BTreeMap<_, _>, _>>()?,
            _ => return Err("missing counters object".to_string()),
        };
        let hists = match v.get("hists") {
            Some(json::Value::Obj(kv)) => kv
                .iter()
                .map(|(k, hv)| {
                    HistSummary::from_value(hv)
                        .map(|h| (k.clone(), h))
                        .ok_or_else(|| "malformed histogram".to_string())
                })
                .collect::<Result<BTreeMap<_, _>, _>>()?,
            _ => return Err("missing hists object".to_string()),
        };
        Ok(Snapshot {
            events,
            counters,
            hists,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        let _s = tel.span("nothing");
        tel.counter_add("c", 5);
        tel.record("h", 1.0);
        tel.point("p", &[("x", 1.0)], &[]);
        assert!(!tel.is_enabled());
        assert_eq!(tel.counter("c"), 0);
        assert!(tel.events().is_empty());
        assert_eq!(tel.snapshot(), Snapshot::default());
    }

    #[test]
    fn span_nesting_reconstructs_tree() {
        let tel = Telemetry::new();
        {
            let _root = tel.span("pipeline");
            {
                let _g = tel.span("gather");
                tel.point("gather.run", &[("nodes", 64.0)], &[]);
            }
            {
                let _f = tel.span("fit");
                let _inner = tel.span("fit.component");
            }
            let _s = tel.span("solve");
        }
        let tree = span_tree(&tel.events());
        assert_eq!(tree.len(), 1);
        let root = &tree[0];
        assert_eq!(root.name, "pipeline");
        let names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["gather", "fit", "solve"]);
        assert_eq!(root.children[1].children[0].name, "fit.component");
        // Every closed span has a duration; parents outlast children.
        assert!(root.dur_ms.unwrap() >= root.children[0].dur_ms.unwrap());
        assert!(root.find("fit.component").is_some());
        assert!(root.find("nonexistent").is_none());
    }

    #[test]
    fn counters_are_thread_safe_totals() {
        let tel = Telemetry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let tel = tel.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        tel.counter_add("work", 1);
                    }
                });
            }
        });
        assert_eq!(tel.counter("work"), 800);
    }

    #[test]
    fn spans_on_other_threads_are_roots() {
        let tel = Telemetry::new();
        let _main = tel.span("main");
        std::thread::scope(|scope| {
            let tel = tel.clone();
            scope.spawn(move || {
                let _w = tel.span("worker");
            });
        });
        let tree = span_tree(&tel.events());
        // The worker span must not be parented under "main" (different
        // thread), so both appear as roots.
        let names: Vec<&str> = tree.iter().map(|n| n.name.as_str()).collect();
        assert!(names.contains(&"worker"), "{names:?}");
    }

    #[test]
    fn histogram_summary_statistics() {
        let tel = Telemetry::new();
        for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
            tel.record("h", v);
        }
        let snap = tel.snapshot();
        let h = &snap.hists["h"];
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert!((h.mean - 22.0).abs() < 1e-12);
        assert_eq!(h.p50, 3.0);
        assert_eq!(h.p90, 100.0);
        assert_eq!(h.p99, 100.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let tel = Telemetry::new();
        {
            let _root = tel.span("pipeline");
            tel.point(
                "minlp.incumbent",
                &[("obj", 306.9), ("nodes", 17.0)],
                &[("status", "improved"), ("quote", "say \"hi\"\n")],
            );
            tel.counter_add("minlp.nodes", 1234);
            tel.record("gather.run_s", 62.0);
            tel.record("gather.run_s", 300.5);
        }
        let snap = tel.snapshot();
        let text = snap.to_json();
        let back = Snapshot::from_json(&text).expect("round trip");
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.hists, snap.hists);
        assert_eq!(back.events.len(), snap.events.len());
        for (a, b) in snap.events.iter().zip(&back.events) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.name, b.name);
            assert_eq!(a.span, b.span);
            assert_eq!(a.parent, b.parent);
            assert_eq!(a.fields, b.fields);
            assert_eq!(a.labels, b.labels);
        }
        // The tree survives serialization too.
        let tree = span_tree(&back.events);
        assert_eq!(tree[0].name, "pipeline");
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        assert!(Snapshot::from_json("{").is_err());
        assert!(Snapshot::from_json("{}").is_err());
        assert!(Snapshot::from_json("{\"events\":[{}],\"counters\":{},\"hists\":{}}").is_err());
    }
}
