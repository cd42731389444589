//! In-memory spans around the calls the harness makes into each layer.
//!
//! A span is `(id, parent, name, workload, start, end)`.  Spans are kept
//! in memory and written out once, at exit, so recording costs one clock
//! read on each side of the call and a `Vec` push.  With tracing off the
//! closure is called directly and nothing is recorded — end-to-end numbers
//! always come from that path.
//!
//! The layer a span belongs to is the first dot-separated segment of its
//! name (`core.threaded.run` → `core`), which is how the per-layer table
//! groups self time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    workload: &'static str,
    epoch: Instant,
    // Relaxed: ids only need to be distinct; the spans themselves are
    // published through the mutex.
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(workload: &'static str, enabled: bool) -> Self {
        Self {
            enabled,
            workload,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so calls it makes can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let mut local = self.local();
        local.span(name, parent, f)
    }

    /// A per-thread buffer: query threads record a span per query, and
    /// taking the shared lock each time would serialize them.
    pub fn local(&self) -> LocalSpans<'_> {
        LocalSpans {
            tracer: self,
            buf: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span buffer poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// One JSON object per line, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let line = Value::obj([
                ("id", Value::Num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("name", Value::str(s.name)),
                ("workload", Value::str(self.workload)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

pub struct LocalSpans<'t> {
    tracer: &'t Tracer,
    buf: Vec<Span>,
}

impl LocalSpans<'_> {
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.tracer.enabled {
            return f(None);
        }
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.tracer.now_ns();
        let out = f(Some(id));
        let end_ns = self.tracer.now_ns();
        self.buf.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        out
    }
}

impl Drop for LocalSpans<'_> {
    fn drop(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        // A poisoned buffer means another thread panicked mid-push; the
        // run is failing anyway and `Drop` must not panic on top of it.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.append(&mut self.buf);
        }
    }
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    pub layer: String,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of a span: its duration minus the part its children cover.
/// Children on parallel threads can together cover more than the parent;
/// self time is then zero, not negative.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *child_ns.entry(parent).or_default() += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Groups spans by layer (the name's first segment).
pub fn layer_table(spans: &[Span]) -> Vec<LayerTime> {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<&str, LayerTime> = BTreeMap::new();
    for s in spans {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let row = rows.entry(layer).or_insert_with(|| LayerTime {
            layer: layer.to_string(),
            calls: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.calls += 1;
        row.total_ns += s.duration_ns();
        row.self_ns += selfs[&s.id];
    }
    rows.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_never_negative() {
        let spans = [
            span(1, None, "workload.rep", 0, 100),
            span(2, Some(1), "core.threaded.run", 10, 70),
            span(3, Some(1), "sgd.rmse", 70, 90),
            // Two parallel children that together outlast their parent.
            span(4, None, "harness.phase", 100, 150),
            span(5, Some(4), "serve.query.top_k", 100, 145),
            span(6, Some(4), "serve.query.top_k", 100, 148),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 20);
        assert_eq!(selfs[&2], 60);
        assert_eq!(selfs[&4], 0);
        let table = layer_table(&spans);
        let serve = table.iter().find(|r| r.layer == "serve").unwrap();
        assert_eq!((serve.calls, serve.total_ns, serve.self_ns), (2, 93, 93));
        let core = table.iter().find(|r| r.layer == "core").unwrap();
        assert_eq!((core.calls, core.self_ns), (1, 60));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_still_runs_the_closure() {
        let t = Tracer::new("w", false);
        let got = t.span("a.b", None, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(got, 7);
        assert!(t.spans().is_empty());
        assert!(t.to_jsonl().is_empty());
    }

    #[test]
    fn nested_and_threaded_spans_keep_their_parents() {
        let t = Tracer::new("w", true);
        t.span("outer.call", None, |outer| {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    let t = &t;
                    scope.spawn(move || {
                        let mut local = t.local();
                        for _ in 0..3 {
                            local.span("inner.call", outer, |_| ());
                        }
                    });
                }
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 7);
        let outer = spans.iter().find(|s| s.name == "outer.call").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name == "inner.call")
            .all(|s| s.parent == Some(outer.id) && s.start_ns >= outer.start_ns));
        let lines: Vec<_> = t.to_jsonl().lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 7);
        let first = crate::json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("workload").unwrap().as_str(), Some("w"));
        assert_eq!(first.get("name").unwrap().as_str(), Some("outer.call"));
    }
}
