//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls into
//! the library's public functions (and, for the binders, inside a
//! wrapping [`mamps_mapping::BindingStrategy`]). Each span has an id, a
//! parent, and the id of the operation it belongs to; all are kept in
//! memory and written out once, as Chrome trace-event JSON, when the run
//! ends. Pass times that the library only reports as per-run totals
//! (`PassRunner::report`) enter the tree as *derived* spans: their
//! duration is measured, their placement inside the parent is not.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Parent span id; 0 for an operation's root span.
    pub parent: u64,
    /// Operation the span belongs to.
    pub op: u64,
    /// Span name; [`layer_of`] maps it to the layer its self time is
    /// charged to.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Worker lanes the span keeps busy: its thread-time is `dur × lanes`.
    /// 1 except for the parallel sweep, whose workers all belong to it.
    pub lanes: u32,
    /// Recording thread (a small per-process index).
    pub thread: u64,
    /// Duration taken from a library counter rather than a clock pair.
    pub derived: bool,
}

/// Records spans when enabled; every method is a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// `(op, parent)` for spans opened on worker threads, which cannot be
    /// handed their parent explicitly.
    context: Mutex<(u64, u64)>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            context: Mutex::new((0, 0)),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Allocates a span id ahead of recording the span.
    pub fn reserve(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span id so
    /// it can parent nested spans. Returns `f`'s result.
    pub fn span<T>(&self, name: &str, parent: u64, op: u64, f: impl FnOnce(u64) -> T) -> T {
        self.span_lanes(name, parent, op, 1, f)
    }

    /// [`span`](Self::span) for a span whose work runs on `lanes` worker
    /// threads at once.
    pub fn span_lanes<T>(
        &self,
        name: &str,
        parent: u64,
        op: u64,
        lanes: u32,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        self.push(Span {
            id,
            parent,
            op,
            name: name.to_string(),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: start.elapsed().as_nanos() as u64,
            lanes,
            thread: THREAD.with(|t| *t),
            derived: false,
        });
        out
    }

    /// Sets the `(op, parent)` that [`span_in_context`](Self::span_in_context)
    /// attaches worker-thread spans to.
    pub fn set_context(&self, op: u64, parent: u64) {
        if self.enabled {
            *self.context.lock().expect("tracer context") = (op, parent);
        }
    }

    /// A span under the current context (for worker threads).
    pub fn span_in_context<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let (op, parent) = *self.context.lock().expect("tracer context");
        self.span(name, parent, op, |_| f())
    }

    /// Records a derived span (duration from a library counter) with a
    /// previously [`reserve`](Self::reserve)d or fresh id.
    pub fn derived(&self, id: u64, name: &str, parent: u64, op: u64, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let id = if id == 0 { self.reserve() } else { id };
        let start_ns = self
            .spans
            .lock()
            .expect("tracer spans")
            .iter()
            .rev()
            .find(|s| s.id == parent)
            .map_or(0, |s| s.start_ns);
        self.push(Span {
            id,
            parent,
            op,
            name: name.to_string(),
            start_ns,
            dur_ns,
            lanes: 1,
            thread: THREAD.with(|t| *t),
            derived: true,
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("tracer spans").push(span);
    }

    /// A snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer spans").clone()
    }
}

/// The layer a span's self time is charged to.
pub fn layer_of(name: &str) -> &str {
    match name {
        "op" => "unattributed",
        "xml.parse" => "xml",
        "dse.sweep" => "dse",
        "flow.map" => "flow",
        "multi.map_use_case" | "multi.use_case" => "multi",
        n if n.starts_with("bind.") => "strategy",
        n => n,
    }
}

/// Self time per layer, in nanoseconds of thread-time: a span's
/// `dur × lanes` minus the time its children occupy one of its lanes
/// (their duration). Children that overrun their parent (clock
/// granularity) clamp the parent at zero. The self times of an
/// operation's spans add up to its thread-time.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns;
        }
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let own = (s.dur_ns * u64::from(s.lanes))
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(layer_of(&s.name).to_string()).or_default() += own;
    }
    out
}

/// Chrome trace-event JSON of `spans` (opens in Perfetto or
/// `chrome://tracing`).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"op\":{},\"lanes\":{},\"derived\":{}}}}}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.id,
            s.parent,
            s.op,
            s.lanes,
            s.derived
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, dur_ns: u64, lanes: u32) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: name.into(),
            start_ns: 0,
            dur_ns,
            lanes,
            thread: 1,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_counts_lanes() {
        let spans = vec![
            span(1, 0, "op", 100, 1),
            span(2, 1, "xml.parse", 10, 1),
            span(3, 1, "dse.sweep", 85, 2),
            span(4, 3, "pass.bind", 100, 1),
            span(5, 4, "bind.genetic", 90, 1),
            span(6, 3, "pass.buffer-size", 60, 1),
        ];
        let t = self_times(&spans);
        assert_eq!(t["unattributed"], 5);
        assert_eq!(t["xml"], 10);
        assert_eq!(t["dse"], 170 - 160);
        assert_eq!(t["pass.bind"], 10);
        assert_eq!(t["strategy"], 90);
        assert_eq!(t["pass.buffer-size"], 60);
        // Self times partition the operation's thread-time.
        assert_eq!(t.values().sum::<u64>(), 5 + 10 + 170);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("op", 0, 1, |id| id + 7), 7);
        t.derived(0, "pass.bind", 0, 1, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_share_the_operation() {
        let t = Tracer::new(true);
        t.span("op", 0, 3, |root| {
            t.span("xml.parse", root, 3, |_| ());
            t.set_context(3, root);
            t.span_in_context("bind.greedy", || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "op").unwrap();
        assert!(spans.iter().all(|s| s.op == 3));
        assert!(spans
            .iter()
            .filter(|s| s.name != "op")
            .all(|s| s.parent == root.id));
        assert!(chrome_json(&spans).contains("\"name\":\"bind.greedy\""));
    }
}
