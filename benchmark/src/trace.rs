//! Spans recorded from outside the program: the harness opens one around
//! each call into a layer's public function. Spans stay in memory and
//! are written out once, when the run ends.
//!
//! Trace file (`benchmark/out/trace-<workload>.json`): one object
//! `{"workload", "seed", "spans": [{"name", "start_ns", "end_ns",
//! "parent", "op_id"}, …]}`. `parent` is the index of the enclosing span
//! in the same array (`null` for a root); spans of one op share `op_id`;
//! times are nanoseconds since the tracer was created.

use hslb_telemetry::json::Value;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans opened from here on belong to op `op_id`.
    pub fn set_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    /// Open a span under the innermost open one; close it with [`end`].
    ///
    /// [`end`]: Tracer::end
    pub fn begin(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(idx);
        idx
    }

    /// Close span `idx`, the innermost open one; returns its duration in
    /// milliseconds.
    pub fn end(&mut self, idx: usize) -> f64 {
        debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].duration_ns() as f64 / 1e6
    }

    /// Time one call as a span; returns the call's result and its
    /// duration in milliseconds.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> (T, f64) {
        let idx = self.begin(name);
        let out = call();
        (out, self.end(idx))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time (ms) and span count per span name, largest first:
    /// where the traced pass's wall went, with nothing counted twice.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, f64, usize)> {
        let mut by_name: std::collections::BTreeMap<&'static str, (f64, usize)> =
            Default::default();
        for (span, own) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += own as f64 / 1e6;
            entry.1 += 1;
        }
        let mut rows: Vec<_> = by_name.into_iter().map(|(n, (ms, k))| (n, ms, k)).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    pub fn to_value(&self, workload: &str, seed: u64) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(s.name.to_string())),
                    ("start_ns".to_string(), Value::Num(s.start_ns as f64)),
                    ("end_ns".to_string(), Value::Num(s.end_ns as f64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("op_id".to_string(), Value::Num(s.op_id as f64)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("workload".to_string(), Value::Str(workload.to_string())),
            ("seed".to_string(), Value::Num(seed as f64)),
            ("spans".to_string(), Value::Arr(spans)),
        ])
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children are disjoint and lie inside the parent,
/// because the harness opens them one after another on one thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = vec![
            span("op", 0, 1000, None),
            span("gather", 10, 110, Some(0)),
            span("solve", 200, 900, Some(0)),
            span("lp", 300, 500, Some(2)),
            span("other_op", 2000, 2400, None),
        ];
        assert_eq!(self_times_ns(&spans), vec![200, 100, 500, 200, 400]);
    }

    #[test]
    fn nesting_follows_begin_end_order() {
        let mut t = Tracer::default();
        t.set_op(7);
        let op = t.begin("op");
        let ((), _) = t.time("child", || ());
        let inner = t.begin("second_child");
        let ((), _) = t.time("grandchild", || ());
        t.end(inner);
        t.end(op);
        let ((), _) = t.time("next_root", || ());
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[4].parent, None);
        assert!(s.iter().all(|x| x.op_id == 7 && x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[2].end_ns);
    }
}
