//! Span-based execution tracing — the observability layer under
//! `--profile` and `explain --analyze`.
//!
//! The paper's efficiency arguments (§3–§4) are about *where work goes*:
//! join kernels, fixed-point rounds, reduce passes, filter evaluations.
//! [`crate::EvalStats`] totals that work per query; this module breaks the
//! totals down per **stage**. Every evaluation stage — term lookup,
//! fixed-point rounds, pairwise/powerset joins, reduce, filter push-down,
//! the degradation-ladder rungs of [`crate::evaluate_budgeted`], logical
//! plan operators, and per-document collection evaluation — opens a
//! [`Span`] that records its wall-clock time and the [`crate::EvalStats`]
//! delta it produced, nested to mirror the call tree.
//!
//! The layer is pay-for-what-you-use: evaluation code consults a
//! [`Tracer`], and a tracer over the [`NoopSink`] reduces every span to a
//! single branch on a cached `bool` — no clock reads, no allocation, no
//! stats snapshots. A [`RecordingSink`] collects the finished span trees
//! for the [`render_spans`] pretty printer and the [`spans_to_json`]
//! machine emitter.

use crate::stats::EvalStats;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One traced evaluation stage: what ran, how long it took on the wall
/// clock, the operation counters it added, and the sub-stages it ran.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Span {
    /// Stage label, e.g. `fixpoint:xquery`, `round`, `rung:full`.
    pub stage: String,
    /// Wall-clock time spent in the stage, children included.
    pub wall: Duration,
    /// Counters accumulated by the stage, children included.
    pub stats_delta: EvalStats,
    /// Nested sub-stages, in execution order.
    pub children: Vec<Span>,
}

impl Span {
    /// A childless span built from already-measured values — used by
    /// the server's scatter sub-jobs, which are timed on other threads
    /// and attached afterwards.
    pub fn leaf(stage: impl Into<String>, wall: Duration, stats_delta: EvalStats) -> Span {
        Span {
            stage: stage.into(),
            wall,
            stats_delta,
            children: Vec::new(),
        }
    }

    /// Total number of spans in this tree, itself included.
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(Span::len).sum::<usize>()
    }

    /// Whether the tree is a single childless span.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }
}

/// Destination for completed top-level spans.
///
/// [`Tracer`] caches [`TraceSink::enabled`] at construction, so a sink
/// cannot usefully flip mid-evaluation; disabled sinks never receive
/// spans at all.
pub trait TraceSink {
    /// Whether spans should be built for this sink. `false` turns every
    /// span into a single branch.
    fn enabled(&self) -> bool;
    /// Accept one completed top-level span tree.
    fn record(&self, span: Span);
}

/// The zero-cost sink: reports disabled, drops anything recorded.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&self, _span: Span) {}
}

/// A sink that keeps every recorded span tree for later inspection.
#[derive(Debug, Default)]
pub struct RecordingSink {
    spans: RefCell<Vec<Span>>,
}

impl RecordingSink {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remove and return everything recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.borrow_mut())
    }

    /// Number of top-level spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.borrow().is_empty()
    }
}

impl TraceSink for RecordingSink {
    fn enabled(&self) -> bool {
        true
    }
    fn record(&self, span: Span) {
        self.spans.borrow_mut().push(span);
    }
}

/// An open span under construction.
#[derive(Debug)]
struct Frame {
    stage: String,
    start: Instant,
    base: EvalStats,
    children: Vec<Span>,
}

static NOOP: NoopSink = NoopSink;

/// The span builder evaluation code threads through its stages.
///
/// A tracer owns a stack of open frames; [`Tracer::scoped`] pushes a
/// frame, runs the stage, and on return folds the finished [`Span`] into
/// the parent frame — or hands it to the sink when it is top-level.
/// Single-threaded by design (work timed on other threads is recorded as
/// leaf spans and [`Tracer::attach`]ed from the coordinating thread).
/// A stage that unwinds drops its own frame, so a caller that catches
/// the panic keeps recording at the right depth.
pub struct Tracer<'a> {
    sink: &'a dyn TraceSink,
    enabled: bool,
    stack: RefCell<Vec<Frame>>,
}

impl<'a> Tracer<'a> {
    /// A tracer emitting to `sink`. The sink's enabled flag is sampled
    /// once, here.
    pub fn new(sink: &'a dyn TraceSink) -> Self {
        Tracer {
            sink,
            enabled: sink.enabled(),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// The no-op tracer: every [`Tracer::scoped`] call degenerates to a
    /// plain closure call.
    pub fn disabled() -> Tracer<'static> {
        Tracer {
            sink: &NOOP,
            enabled: false,
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded. Use to skip building expensive
    /// labels (e.g. per-document names) on the untraced path.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` as stage `stage`: measure its wall-clock time and the
    /// [`EvalStats`] delta it adds to `stats`, and record the resulting
    /// span (nested under the currently open stage, if any). When the
    /// tracer is disabled this is exactly `f(stats)`.
    pub fn scoped<T>(
        &self,
        stage: &str,
        stats: &mut EvalStats,
        f: impl FnOnce(&mut EvalStats) -> T,
    ) -> T {
        if !self.enabled {
            return f(stats);
        }
        let depth = {
            let mut stack = self.stack.borrow_mut();
            stack.push(Frame {
                stage: stage.to_string(),
                start: Instant::now(),
                base: *stats,
                children: Vec::new(),
            });
            stack.len() - 1
        };
        let unwind = UnwindGuard {
            stack: &self.stack,
            depth,
        };
        let out = f(stats);
        std::mem::forget(unwind);
        // invariant: pushed above, and `f` has no access to the stack.
        let frame = self.stack.borrow_mut().pop().expect("balanced span stack");
        self.emit(Span {
            stage: frame.stage,
            wall: frame.start.elapsed(),
            stats_delta: stats.delta_since(&frame.base),
            children: frame.children,
        });
        out
    }

    /// [`Tracer::scoped`] with a lazily-built label: `stage` only runs (and
    /// allocates) when the tracer is enabled, keeping the untraced path
    /// allocation-free for labels like `term-lookup:{term}`.
    pub fn scoped_lazy<T>(
        &self,
        stage: impl FnOnce() -> String,
        stats: &mut EvalStats,
        f: impl FnOnce(&mut EvalStats) -> T,
    ) -> T {
        if !self.enabled {
            return f(stats);
        }
        let label = stage();
        self.scoped(&label, stats, f)
    }

    /// Attach an already-built span (e.g. a scatter sub-job's) as a
    /// child of the currently open stage, or as a top-level span.
    pub fn attach(&self, span: Span) {
        if !self.enabled {
            return;
        }
        self.emit(span);
    }

    fn emit(&self, span: Span) {
        let mut stack = self.stack.borrow_mut();
        match stack.last_mut() {
            Some(parent) => parent.children.push(span),
            None => {
                drop(stack);
                self.sink.record(span);
            }
        }
    }
}

/// Restores a tracer's stack depth when a stage unwinds: the aborted
/// frame (and anything still open under it) is dropped, so a caller that
/// catches the panic keeps emitting later spans at the right level.
/// [`Tracer::scoped`] forgets the guard on normal return.
struct UnwindGuard<'t> {
    stack: &'t RefCell<Vec<Frame>>,
    depth: usize,
}

impl Drop for UnwindGuard<'_> {
    fn drop(&mut self) {
        // A stack still borrowed mid-panic is left alone rather than
        // turning the unwind into an abort.
        if let Ok(mut stack) = self.stack.try_borrow_mut() {
            stack.truncate(self.depth);
        }
    }
}

/// Stable `(name, value)` view of every [`EvalStats`] counter, used by
/// both emitters so their field sets cannot drift apart.
fn stats_fields(s: &EvalStats) -> [(&'static str, u64); 12] {
    [
        ("joins", s.joins),
        ("nodes_merged", s.nodes_merged),
        ("fragments_emitted", s.fragments_emitted),
        ("duplicates_collapsed", s.duplicates_collapsed),
        ("filter_evals", s.filter_evals),
        ("filter_pruned", s.filter_pruned),
        ("fixpoint_iterations", s.fixpoint_iterations),
        ("fixpoint_checks", s.fixpoint_checks),
        ("reduce_checks", s.reduce_checks),
        ("budget_checkpoints", s.budget_checkpoints),
        ("cache_hits", s.cache_hits),
        ("cache_misses", s.cache_misses),
    ]
}

/// Human-scale duration: `412ns`, `3.4µs`, `1.25ms`, `2.10s`.
pub fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Compact non-zero counters for one span line; `-` when nothing moved.
fn brief_stats(s: &EvalStats) -> String {
    let mut out = String::new();
    for (name, v) in stats_fields(s) {
        if v > 0 {
            if !out.is_empty() {
                out.push(' ');
            }
            // invariant: fmt::Write for String never fails.
            write!(out, "{name}={v}").unwrap();
        }
    }
    if out.is_empty() {
        out.push('-');
    }
    out
}

/// Pretty-text emitter: one line per span, children indented, with
/// wall-clock and the non-zero counter deltas.
pub fn render_spans(spans: &[Span]) -> String {
    fn walk(out: &mut String, span: &Span, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        // invariant: fmt::Write for String never fails.
        writeln!(
            out,
            "{}  {}  {}",
            span.stage,
            format_duration(span.wall),
            brief_stats(&span.stats_delta)
        )
        .unwrap();
        for c in &span.children {
            walk(out, c, depth + 1);
        }
    }
    let mut out = String::new();
    for s in spans {
        walk(&mut out, s, 0);
    }
    out
}

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                // invariant: fmt::Write for String never fails.
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
}

/// JSON emitter: an array of span objects
/// `{"stage", "wall_ns", "stats": {…}, "children": […]}` with every
/// counter present (zero or not), so downstream tooling sees a fixed
/// schema.
pub fn spans_to_json(spans: &[Span]) -> String {
    fn walk(out: &mut String, span: &Span) {
        out.push_str("{\"stage\":\"");
        json_escape(&span.stage, out);
        // invariant (both writes): fmt::Write for String never fails.
        write!(
            out,
            "\",\"wall_ns\":{},\"stats\":{{",
            u64::try_from(span.wall.as_nanos()).unwrap_or(u64::MAX)
        )
        .unwrap();
        for (i, (name, v)) in stats_fields(&span.stats_delta).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{name}\":{v}").unwrap();
        }
        out.push_str("},\"children\":[");
        for (i, c) in span.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            walk(out, c);
        }
        out.push_str("]}");
    }
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        walk(&mut out, s);
    }
    out.push(']');
    out
}

/// Number of power-of-two latency buckets; the last bucket is open-ended.
const HIST_BUCKETS: usize = 18;

/// A power-of-two latency histogram over microseconds: bucket 0 holds
/// sub-microsecond samples, bucket `i ≥ 1` holds `[2^(i−1)µs, 2^i µs)`,
/// and the final bucket is open-ended. Used for per-document latency
/// aggregation in collection profiles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    total: Duration,
    max: Duration,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let idx = if us == 0 {
            0
        } else {
            ((64 - us.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.total += d;
        self.max = self.max.max(d);
    }

    /// Build a histogram from the wall times of the given spans.
    pub fn from_spans<'a>(spans: impl IntoIterator<Item = &'a Span>) -> Self {
        let mut h = Self::new();
        for s in spans {
            h.record(s.wall);
        }
        h
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The largest sample.
    pub fn max(&self) -> Duration {
        self.max
    }

    /// Sum of all samples.
    pub fn total(&self) -> Duration {
        self.total
    }

    fn bucket_label(i: usize) -> String {
        match i {
            0 => "<1µs".to_string(),
            i if i == HIST_BUCKETS - 1 => format!("≥{}µs", 1u64 << (i - 1)),
            i => format!("{}-{}µs", 1u64 << (i - 1), 1u64 << i),
        }
    }

    /// Merge another histogram into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(upper bound in µs, count)` pairs; the
    /// open-ended final bucket reports `u64::MAX` as its bound.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let le_us = if i == 0 {
                    1
                } else if i == HIST_BUCKETS - 1 {
                    u64::MAX
                } else {
                    1u64 << i
                };
                (le_us, n)
            })
            .collect()
    }

    /// JSON object with a fixed schema:
    /// `{"count","total_ns","max_ns","buckets":[{"le_us","n"},…]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        // invariant (every write! below): fmt::Write for String never
        // fails.
        write!(
            out,
            "{{\"count\":{},\"total_ns\":{},\"max_ns\":{},\"buckets\":[",
            self.count,
            u64::try_from(self.total.as_nanos()).unwrap_or(u64::MAX),
            u64::try_from(self.max.as_nanos()).unwrap_or(u64::MAX)
        )
        .unwrap();
        for (i, (le_us, n)) in self.nonzero_buckets().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{{\"le_us\":{le_us},\"n\":{n}}}").unwrap();
        }
        out.push_str("]}");
        out
    }

    /// Pretty-text rendering: one bar per non-empty bucket.
    pub fn render(&self) -> String {
        let mut out = String::new();
        // invariant (every writeln! below): fmt::Write for String never
        // fails.
        writeln!(
            out,
            "latency histogram: {} sample(s), total {}, max {}",
            self.count,
            format_duration(self.total),
            format_duration(self.max)
        )
        .unwrap();
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let bar = "#".repeat(((n * 40).div_ceil(peak)) as usize);
            writeln!(out, "  {:>10}  {n:>6}  {bar}", Self::bucket_label(i)).unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(joins: u64) -> EvalStats {
        EvalStats {
            joins,
            ..EvalStats::default()
        }
    }

    #[test]
    fn noop_tracer_is_transparent() {
        let tracer = Tracer::disabled();
        let mut st = EvalStats::new();
        let out = tracer.scoped("outer", &mut st, |st| {
            st.joins += 2;
            tracer.scoped("inner", st, |st| {
                st.joins += 1;
                st.joins
            })
        });
        assert_eq!(out, 3);
        assert_eq!(st.joins, 3);
        assert!(!tracer.is_enabled());
    }

    #[test]
    fn recording_builds_nested_spans_with_deltas() {
        let sink = RecordingSink::new();
        let tracer = Tracer::new(&sink);
        let mut st = EvalStats::new();
        tracer.scoped("outer", &mut st, |st| {
            tracer.scoped("inner-a", st, |st| st.joins += 2);
            tracer.scoped("inner-b", st, |st| st.filter_evals += 5);
            st.joins += 1;
        });
        let spans = sink.take();
        assert_eq!(spans.len(), 1);
        let outer = &spans[0];
        assert_eq!(outer.stage, "outer");
        assert_eq!(outer.stats_delta.joins, 3);
        assert_eq!(outer.stats_delta.filter_evals, 5);
        assert_eq!(outer.children.len(), 2);
        assert_eq!(outer.children[0].stage, "inner-a");
        assert_eq!(outer.children[0].stats_delta.joins, 2);
        assert_eq!(outer.children[1].stats_delta.filter_evals, 5);
        assert_eq!(outer.len(), 3);
        // The recorder was drained.
        assert!(sink.is_empty());
    }

    #[test]
    fn attach_nests_prebuilt_spans() {
        let sink = RecordingSink::new();
        let tracer = Tracer::new(&sink);
        let mut st = EvalStats::new();
        tracer.scoped("parent", &mut st, |_| {
            tracer.attach(Span::leaf("worker-0", Duration::from_micros(5), stats(7)));
        });
        let spans = sink.take();
        assert_eq!(spans[0].children[0].stage, "worker-0");
        assert_eq!(spans[0].children[0].stats_delta.joins, 7);
        // Disabled tracers drop attached spans.
        Tracer::disabled().attach(Span::leaf("x", Duration::ZERO, stats(0)));
    }

    #[test]
    fn scoped_propagates_result_values() {
        let sink = RecordingSink::new();
        let tracer = Tracer::new(&sink);
        let mut st = EvalStats::new();
        let r: Result<u32, &str> = tracer.scoped("failing", &mut st, |_| Err("boom"));
        assert_eq!(r, Err("boom"));
        // The span is still recorded — failures show where time went.
        assert_eq!(sink.take().len(), 1);
    }

    #[test]
    fn render_is_indented_and_shows_nonzero_counters() {
        let span = Span {
            stage: "outer".into(),
            wall: Duration::from_micros(1500),
            stats_delta: stats(3),
            children: vec![Span::leaf("inner", Duration::from_nanos(250), stats(0))],
        };
        let text = render_spans(&[span]);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("outer"), "{text}");
        assert!(lines[0].contains("joins=3"), "{text}");
        assert!(lines[1].starts_with("  inner"), "{text}");
        assert!(lines[1].contains('-'), "{text}");
        assert!(lines[0].contains("1.50ms"), "{text}");
        assert!(lines[1].contains("250ns"), "{text}");
    }

    #[test]
    fn json_has_fixed_schema_and_escapes() {
        let span = Span {
            stage: "doc:we\"ird\\name".into(),
            wall: Duration::from_nanos(42),
            stats_delta: stats(1),
            children: vec![Span::leaf("c", Duration::ZERO, stats(0))],
        };
        let json = spans_to_json(&[span]);
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"wall_ns\":42"), "{json}");
        assert!(json.contains("doc:we\\\"ird\\\\name"), "{json}");
        // Every counter is present even when zero.
        assert!(json.contains("\"budget_checkpoints\":0"), "{json}");
        // And it round-trips through the JSON shim into a schema mirror.
        #[derive(serde::Deserialize)]
        struct JsonSpan {
            stage: String,
            wall_ns: u64,
            stats: EvalStats,
            children: Vec<JsonSpan>,
        }
        let parsed: Vec<JsonSpan> = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].stage, "doc:we\"ird\\name");
        assert_eq!(parsed[0].wall_ns, 42);
        assert_eq!(parsed[0].stats.joins, 1);
        assert_eq!(parsed[0].children.len(), 1);
        assert!(parsed[0].children[0].children.is_empty());
    }

    #[test]
    fn histogram_buckets_and_renders() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(500)); // <1µs
        h.record(Duration::from_micros(1)); // 1-2µs
        h.record(Duration::from_micros(3)); // 2-4µs
        h.record(Duration::from_millis(200)); // large
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), Duration::from_millis(200));
        let text = h.render();
        assert!(text.contains("4 sample(s)"), "{text}");
        assert!(text.contains("<1µs"), "{text}");
        assert!(text.contains("2-4µs"), "{text}");
        let from = LatencyHistogram::from_spans(&[
            Span::leaf("a", Duration::from_micros(1), stats(0)),
            Span::leaf("b", Duration::from_micros(3), stats(0)),
        ]);
        assert_eq!(from.count(), 2);
        assert!(LatencyHistogram::new().is_empty());
    }

    #[test]
    fn histogram_merge_and_json() {
        let mut a = LatencyHistogram::new();
        a.record(Duration::from_micros(1));
        a.record(Duration::from_micros(3));
        let mut b = LatencyHistogram::new();
        b.record(Duration::from_micros(3));
        b.record(Duration::from_millis(5));
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.max(), Duration::from_millis(5));
        let buckets = a.nonzero_buckets();
        assert!(
            buckets.iter().any(|&(le, n)| le == 4 && n == 2),
            "{buckets:?}"
        );
        let json = a.to_json();
        assert!(json.starts_with("{\"count\":4,"), "{json}");
        assert!(json.contains("\"buckets\":["), "{json}");
        assert!(json.contains("\"le_us\":4,\"n\":2"), "{json}");
        assert_eq!(
            LatencyHistogram::new().to_json(),
            "{\"count\":0,\"total_ns\":0,\"max_ns\":0,\"buckets\":[]}"
        );
    }

    #[test]
    fn format_duration_scales() {
        assert_eq!(format_duration(Duration::from_nanos(999)), "999ns");
        assert_eq!(format_duration(Duration::from_micros(2)), "2.0µs");
        assert_eq!(format_duration(Duration::from_millis(3)), "3.00ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00s");
    }
}
