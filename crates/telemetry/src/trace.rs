//! Trace-id stamping and timed spans for the decision path.

use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The coordinates of a live span: enough to parent a child to it,
/// even from another thread.
///
/// Fan-out code captures the current `SpanCtx` into job closures so
/// the per-replica spans recorded on pool workers attach to the
/// enforcement that dispatched them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanCtx {
    /// The trace this span belongs to.
    pub trace: u64,
    /// The span's own id (a child uses it as `parent`).
    pub span: u64,
}

/// One finished span, as retained by the tracer and emitted in the
/// JSON trace dump.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpanRecord {
    /// Trace id shared by every span of one enforcement.
    pub trace: u64,
    /// This span's id (unique per tracer).
    pub id: u64,
    /// Parent span id; `0` marks a root span.
    pub parent: u64,
    /// Stage name, e.g. `"pep_enforce"` or `"replica_decide"`.
    pub stage: &'static str,
    /// Free-form annotation (replica name, `"hit"`, `"cancelled:…"`).
    pub note: Option<String>,
    /// Start time in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

thread_local! {
    static CURRENT: Cell<Option<SpanCtx>> = const { Cell::new(None) };
}

/// The span context most recently entered on this thread, if any.
///
/// Layers that cannot thread a parent span through their signature
/// (e.g. `DecisionSource::decide`) use this to attach their spans to
/// the enclosing enforcement.
pub fn current() -> Option<SpanCtx> {
    CURRENT.with(|c| c.get())
}

/// Restores the previous thread-local span context on drop.
#[must_use = "dropping the guard immediately exits the span context"]
#[derive(Debug)]
pub struct SpanGuard {
    prev: Option<SpanCtx>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

#[derive(Debug)]
struct TracerInner {
    epoch: Instant,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl TracerInner {
    fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }
}

/// Allocates trace ids and collects finished spans.
///
/// Cloning is cheap (an `Arc` bump) and every clone feeds the same
/// sink. The sink is capped (default 65 536 spans); overflow is
/// counted, not silently discarded.
#[derive(Clone, Debug)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            inner: Arc::new(TracerInner::new(65_536)),
        }
    }
}

impl Tracer {
    /// A fresh tracer with an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    fn start_span(&self, trace: u64, parent: u64, stage: &'static str) -> Span {
        let id = self.inner.next_span.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        Span {
            tracer: self.clone(),
            ctx: SpanCtx { trace, span: id },
            parent,
            stage,
            note: None,
            start,
            start_ns: start.duration_since(self.inner.epoch).as_nanos() as u64,
            finished: false,
        }
    }

    /// Starts a new trace and returns its root span.
    pub fn root(&self, stage: &'static str) -> Span {
        let trace = self.inner.next_trace.fetch_add(1, Ordering::Relaxed);
        self.start_span(trace, 0, stage)
    }

    /// Starts a span parented to `ctx` (same trace).
    pub fn child_of(&self, ctx: SpanCtx, stage: &'static str) -> Span {
        self.start_span(ctx.trace, ctx.span, stage)
    }

    /// Starts a span under `parent` when given, else a new root trace.
    ///
    /// This is the cross-thread entry: capture [`current`] (or a
    /// span's [`Span::ctx`]) before handing work to another thread and
    /// pass it here inside the job.
    pub fn span_under(&self, parent: Option<SpanCtx>, stage: &'static str) -> Span {
        match parent {
            Some(ctx) => self.child_of(ctx, stage),
            None => self.root(stage),
        }
    }

    /// Starts a span under the thread-current context ([`current`]),
    /// or a new root trace when none is entered.
    pub fn span(&self, stage: &'static str) -> Span {
        self.span_under(current(), stage)
    }

    fn record(&self, rec: SpanRecord) {
        let mut spans = self.inner.spans.lock();
        if spans.len() >= self.inner.capacity {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            spans.push(rec);
        }
    }

    /// A copy of every finished span recorded so far.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.inner.spans.lock().clone()
    }

    /// Number of spans discarded because the sink was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Discards every recorded span (the id counters keep running).
    pub fn clear(&self) {
        self.inner.spans.lock().clear();
    }

    /// The trace dump: one JSON object with a `spans` array (each span
    /// carrying `trace`, `id`, `parent`, `stage`, optional `note`,
    /// `start_ns`, `dur_ns`) plus the overflow counter.
    pub fn dump_json(&self) -> String {
        let spans = self.snapshot();
        let mut out = String::with_capacity(spans.len() * 96 + 64);
        out.push_str(&format!(
            "{{\"dropped_spans\":{},\"spans\":[",
            self.dropped()
        ));
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"trace\":{},\"id\":{},\"parent\":{},\"stage\":\"{}\"",
                s.trace,
                s.id,
                s.parent,
                json_escape(s.stage)
            ));
            if let Some(note) = &s.note {
                out.push_str(&format!(",\"note\":\"{}\"", json_escape(note)));
            }
            out.push_str(&format!(
                ",\"start_ns\":{},\"dur_ns\":{}}}",
                s.start_ns, s.dur_ns
            ));
        }
        out.push_str("]}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A live, timed span. Closing is infallible: [`Span::finish`] records
/// it, and dropping an unfinished span records it too, so cancelled or
/// panicking paths never leak an open span from the trace dump.
#[derive(Debug)]
pub struct Span {
    tracer: Tracer,
    ctx: SpanCtx,
    parent: u64,
    stage: &'static str,
    note: Option<String>,
    start: Instant,
    start_ns: u64,
    finished: bool,
}

impl Span {
    /// This span's coordinates, for parenting children (possibly on
    /// other threads).
    pub fn ctx(&self) -> SpanCtx {
        self.ctx
    }

    /// Starts a child span.
    pub fn child(&self, stage: &'static str) -> Span {
        self.tracer.child_of(self.ctx, stage)
    }

    /// Makes this span the thread-current context until the guard
    /// drops.
    pub fn enter(&self) -> SpanGuard {
        let prev = current();
        CURRENT.with(|c| c.set(Some(self.ctx)));
        SpanGuard { prev }
    }

    /// Annotates the span (replica name, cache-hit marker, …).
    pub fn set_note(&mut self, note: impl Into<String>) {
        self.note = Some(note.into());
    }

    /// Microseconds elapsed since the span started.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn close(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.tracer.record(SpanRecord {
            trace: self.ctx.trace,
            id: self.ctx.span,
            parent: self.parent,
            stage: self.stage,
            note: self.note.take(),
            start_ns: self.start_ns,
            dur_ns: self.start.elapsed().as_nanos() as u64,
        });
    }

    /// Ends the span and records it.
    pub fn finish(mut self) {
        self.close();
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn roots_get_distinct_traces_and_children_inherit() {
        let t = Tracer::new();
        let a = t.root("a");
        let b = t.root("b");
        assert_ne!(a.ctx().trace, b.ctx().trace);
        let child = a.child("c");
        assert_eq!(child.ctx().trace, a.ctx().trace);
        child.finish();
        let recs = t.snapshot();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].parent, a.ctx().span);
    }

    #[test]
    fn enter_guard_scopes_the_current_context() {
        let t = Tracer::new();
        assert_eq!(current(), None);
        let root = t.root("root");
        {
            let _g = root.enter();
            assert_eq!(current(), Some(root.ctx()));
            let inner = t.span("inner");
            assert_eq!(inner.ctx().trace, root.ctx().trace);
            {
                let _g2 = inner.enter();
                assert_eq!(current(), Some(inner.ctx()));
            }
            assert_eq!(current(), Some(root.ctx()));
        }
        assert_eq!(current(), None);
        // With no context entered, span() opens a fresh root trace.
        let solo = t.span("solo");
        assert_eq!(solo.parent, 0);
    }

    #[test]
    fn spans_cross_threads_via_captured_ctx() {
        let t = Tracer::new();
        let root = t.root("root");
        let ctx = root.ctx();
        let t2 = t.clone();
        std::thread::spawn(move || {
            let mut s = t2.span_under(Some(ctx), "worker");
            s.set_note("replica-1");
            s.finish();
        })
        .join()
        .unwrap();
        root.finish();
        let recs = t.snapshot();
        assert_eq!(recs.len(), 2);
        let worker = recs.iter().find(|r| r.stage == "worker").unwrap();
        assert_eq!(worker.parent, ctx.span);
        assert_eq!(worker.note.as_deref(), Some("replica-1"));
    }

    #[test]
    fn dropped_spans_are_recorded_not_leaked() {
        let t = Tracer::new();
        {
            let _span = t.root("abandoned");
            // No finish(): the drop must still record it.
        }
        let recs = t.snapshot();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].stage, "abandoned");
    }

    #[test]
    fn sink_cap_counts_overflow() {
        let t = Tracer {
            inner: Arc::new(TracerInner::new(2)),
        };
        for _ in 0..5 {
            t.root("s").finish();
        }
        assert_eq!(t.snapshot().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn durations_are_monotone_and_nested() {
        let t = Tracer::new();
        let root = t.root("root");
        let child = root.child("child");
        std::thread::sleep(Duration::from_millis(2));
        child.finish();
        root.finish();
        let recs = t.snapshot();
        let root_rec = recs.iter().find(|r| r.stage == "root").unwrap();
        let child_rec = recs.iter().find(|r| r.stage == "child").unwrap();
        assert!(child_rec.dur_ns >= 2_000_000);
        assert!(root_rec.dur_ns >= child_rec.dur_ns);
        assert!(child_rec.start_ns >= root_rec.start_ns);
    }

    #[test]
    fn dump_json_carries_every_field() {
        let t = Tracer::new();
        let mut s = t.root("pep_enforce");
        s.set_note("cache \"hit\"");
        s.finish();
        let json = t.dump_json();
        assert!(json.starts_with("{\"dropped_spans\":0,\"spans\":["));
        assert!(json.contains("\"stage\":\"pep_enforce\""));
        assert!(json.contains("\"note\":\"cache \\\"hit\\\"\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"dur_ns\":"));
    }
}
