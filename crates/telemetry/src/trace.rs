//! Trace-id stamping and timed spans for the decision path.

use crate::registry::{Histogram, Registry};
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

/// The stages of a traced enforcement — the span tree of
/// `ARCHITECTURE.md`'s Observability section, closed: each stage has
/// exactly one `dacs_<stage>_ns` histogram, fed when one of its spans
/// closes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Stage {
    /// `Pep::serve`: one root per enforcement.
    PepEnforce,
    /// `Pep::serve_batch`: one root per batch.
    PepEnforceBatch,
    /// The PEP's capability-token lookup and recheck.
    Token,
    /// The PEP's decision-cache lookup.
    Cache,
    /// A cache miss's hop to the decision source.
    Decide,
    /// Obligation discharge.
    Obligations,
    /// The clustered decision source.
    SourceDecide,
    /// `PdpCluster::decide_classed`.
    ClusterDecide,
    /// Shard routing.
    Route,
    /// The replica group's collector.
    Fanout,
    /// One replica's evaluation.
    ReplicaDecide,
    /// The collector's wait on the pool, from its first hand-off.
    QuorumWait,
}

impl Stage {
    /// Every stage, in tree order.
    pub const ALL: [Stage; 12] = [
        Stage::PepEnforce,
        Stage::PepEnforceBatch,
        Stage::Token,
        Stage::Cache,
        Stage::Decide,
        Stage::Obligations,
        Stage::SourceDecide,
        Stage::ClusterDecide,
        Stage::Route,
        Stage::Fanout,
        Stage::ReplicaDecide,
        Stage::QuorumWait,
    ];

    /// The stage's name in trace dumps, e.g. `"replica_decide"`.
    pub fn name(self) -> &'static str {
        self.names().0
    }

    /// The stage's duration histogram, e.g. `"dacs_replica_decide_ns"`.
    pub fn metric(self) -> &'static str {
        self.names().1
    }

    fn names(self) -> (&'static str, &'static str) {
        match self {
            Stage::PepEnforce => ("pep_enforce", "dacs_pep_enforce_ns"),
            Stage::PepEnforceBatch => ("pep_enforce_batch", "dacs_pep_enforce_batch_ns"),
            Stage::Token => ("token", "dacs_token_ns"),
            Stage::Cache => ("cache", "dacs_cache_ns"),
            Stage::Decide => ("decide", "dacs_decide_ns"),
            Stage::Obligations => ("obligations", "dacs_obligations_ns"),
            Stage::SourceDecide => ("source_decide", "dacs_source_decide_ns"),
            Stage::ClusterDecide => ("cluster_decide", "dacs_cluster_decide_ns"),
            Stage::Route => ("route", "dacs_route_ns"),
            Stage::Fanout => ("fanout", "dacs_fanout_ns"),
            Stage::ReplicaDecide => ("replica_decide", "dacs_replica_decide_ns"),
            Stage::QuorumWait => ("quorum_wait", "dacs_quorum_wait_ns"),
        }
    }
}

/// A span's annotation: a fixed-size value, so noting a span allocates
/// nothing. A replica is named by its slot in its group (configured
/// order), not by its name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Note {
    /// A cache or token lookup that answered.
    Hit,
    /// A cache lookup that did not.
    Miss,
    /// A batch phase's lookups that answered.
    Hits(u64),
    /// A token recheck that refused, and why.
    Reject(&'static str),
    /// The first-healthy primary's evaluation, by slot.
    Primary(u32),
    /// A quorum member's evaluation, by slot.
    Replica(u32),
    /// A vote withdrawn unasked (skipped at dequeue) or lost to a
    /// panicking backend, by slot.
    Cancelled(u32),
}

impl std::fmt::Display for Note {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Note::Hit => f.write_str("hit"),
            Note::Miss => f.write_str("miss"),
            Note::Hits(n) => write!(f, "hits:{n}"),
            Note::Reject(kind) => write!(f, "reject:{kind}"),
            Note::Primary(slot) => write!(f, "primary:{slot}"),
            Note::Replica(slot) => write!(f, "replica:{slot}"),
            Note::Cancelled(slot) => write!(f, "cancelled:{slot}"),
        }
    }
}

/// One finished span, as retained by the tracer and emitted in the
/// JSON trace dump.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanRecord {
    /// Trace id shared by every span of one enforcement.
    pub trace: u64,
    /// This span's id (unique per tracer).
    pub id: u64,
    /// Parent span id; `0` marks a root span.
    pub parent: u64,
    /// The stage the span timed.
    pub stage: Stage,
    /// Its annotation, if any.
    pub note: Option<Note>,
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
/// (e.g. a decision source's one call) use this to attach their spans to
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

/// The span sink: a ring allocated once, at its capacity. Full, it
/// displaces its oldest record, so a long run keeps its newest spans.
#[derive(Debug)]
struct Ring {
    records: Vec<SpanRecord>,
    capacity: usize,
    /// Where the next record goes once the ring is full: the oldest.
    next: usize,
}

/// Allocates trace ids, collects finished spans and times each stage.
///
/// The sink holds the newest 65 536 spans; each record it displaces
/// is counted in [`Tracer::dropped`]. Every closing span also feeds
/// its stage's histogram ([`Stage::metric`]) in the registry of the
/// [`crate::Telemetry`] handle the tracer belongs to.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    ring: Mutex<Ring>,
    dropped: AtomicU64,
    /// One histogram per stage, indexed by `Stage as usize`.
    stages: [Arc<Histogram>; 12],
}

impl Tracer {
    /// A tracer keeping the newest `capacity` spans whose stage
    /// histograms live in `registry`.
    pub(crate) fn new(capacity: usize, registry: &Registry) -> Self {
        Tracer {
            epoch: Instant::now(),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            ring: Mutex::new(Ring {
                records: Vec::with_capacity(capacity),
                capacity,
                next: 0,
            }),
            dropped: AtomicU64::new(0),
            stages: Stage::ALL.map(|stage| registry.histogram(stage.metric())),
        }
    }

    fn start_span(&self, trace: u64, parent: u64, stage: Stage) -> Span<'_> {
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        Span {
            tracer: self,
            ctx: SpanCtx { trace, span: id },
            parent,
            stage,
            note: None,
            start: Instant::now(),
        }
    }

    /// Starts a new trace and returns its root span.
    pub fn root(&self, stage: Stage) -> Span<'_> {
        let trace = self.next_trace.fetch_add(1, Ordering::Relaxed);
        self.start_span(trace, 0, stage)
    }

    /// Starts a span under `parent` when given, else a new root trace.
    ///
    /// This is the cross-thread entry: capture [`current`] (or a
    /// span's [`Span::ctx`]) before handing work to another thread and
    /// pass it here inside the job.
    pub fn span_under(&self, parent: Option<SpanCtx>, stage: Stage) -> Span<'_> {
        match parent {
            Some(ctx) => self.start_span(ctx.trace, ctx.span, stage),
            None => self.root(stage),
        }
    }

    /// Starts a span under the thread-current context ([`current`]),
    /// or a new root trace when none is entered.
    pub fn span(&self, stage: Stage) -> Span<'_> {
        self.span_under(current(), stage)
    }

    fn record(&self, rec: SpanRecord) {
        self.stages[rec.stage as usize].record(rec.dur_ns);
        let mut ring = self.ring.lock();
        if ring.records.len() < ring.capacity {
            ring.records.push(rec);
            return;
        }
        let at = ring.next;
        ring.records[at] = rec;
        ring.next = (at + 1) % ring.capacity;
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// The spans the sink holds, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let ring = self.ring.lock();
        let (newer, older) = ring.records.split_at(ring.next);
        older.iter().chain(newer).copied().collect()
    }

    /// Number of spans the sink displaced to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The trace dump: one JSON object with a `spans` array (each span
    /// carrying `trace`, `id`, `parent`, `stage`, optional `note`,
    /// `start_ns`, `dur_ns`) plus the displacement counter.
    pub fn dump_json(&self) -> String {
        use std::fmt::Write;
        let spans = self.snapshot();
        let mut out = format!("{{\"dropped_spans\":{},\"spans\":[", self.dropped());
        for (i, s) in spans.iter().enumerate() {
            let (comma, stage) = (if i > 0 { "," } else { "" }, s.stage.name());
            let (trace, id, parent) = (s.trace, s.id, s.parent);
            let _ = write!(
                out,
                "{comma}{{\"trace\":{trace},\"id\":{id},\"parent\":{parent},\"stage\":\"{stage}\""
            );
            if let Some(note) = s.note {
                let _ = write!(out, ",\"note\":\"{note}\"");
            }
            let _ = write!(
                out,
                ",\"start_ns\":{},\"dur_ns\":{}}}",
                s.start_ns, s.dur_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// A live, timed span borrowed from its [`Tracer`]. It is recorded
/// when it drops, so cancelled or panicking paths never leak an open
/// span from the trace dump.
#[derive(Debug)]
pub struct Span<'t> {
    tracer: &'t Tracer,
    ctx: SpanCtx,
    parent: u64,
    stage: Stage,
    note: Option<Note>,
    start: Instant,
}

impl<'t> Span<'t> {
    /// This span's coordinates, for parenting children (possibly on
    /// other threads).
    pub fn ctx(&self) -> SpanCtx {
        self.ctx
    }

    /// Starts a child span.
    pub fn child(&self, stage: Stage) -> Span<'t> {
        self.tracer.span_under(Some(self.ctx), stage)
    }

    /// Makes this span the thread-current context until the guard
    /// drops.
    pub fn enter(&self) -> SpanGuard {
        let prev = current();
        CURRENT.with(|c| c.set(Some(self.ctx)));
        SpanGuard { prev }
    }

    /// Annotates the span.
    pub fn set_note(&mut self, note: Note) {
        self.note = Some(note);
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        self.tracer.record(SpanRecord {
            trace: self.ctx.trace,
            id: self.ctx.span,
            parent: self.parent,
            stage: self.stage,
            note: self.note,
            start_ns: self.start.duration_since(self.tracer.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(self.start).as_nanos() as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tracer() -> Tracer {
        Tracer::new(64, &Registry::new())
    }

    #[test]
    fn roots_get_distinct_traces_and_children_inherit() {
        let t = tracer();
        let a = t.root(Stage::PepEnforce);
        let b = t.root(Stage::PepEnforce);
        assert_ne!(a.ctx().trace, b.ctx().trace);
        let child = a.child(Stage::Cache);
        assert_eq!(child.ctx().trace, a.ctx().trace);
        drop(child);
        let recs = t.snapshot();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].parent, a.ctx().span);
    }

    #[test]
    fn enter_guard_scopes_the_current_context() {
        let t = tracer();
        assert_eq!(current(), None);
        let root = t.root(Stage::PepEnforce);
        {
            let _g = root.enter();
            assert_eq!(current(), Some(root.ctx()));
            let inner = t.span(Stage::Decide);
            assert_eq!(inner.ctx().trace, root.ctx().trace);
            {
                let _g2 = inner.enter();
                assert_eq!(current(), Some(inner.ctx()));
            }
            assert_eq!(current(), Some(root.ctx()));
        }
        assert_eq!(current(), None);
        // With no context entered, span() opens a fresh root trace.
        let solo = t.span(Stage::ClusterDecide);
        assert_eq!(solo.parent, 0);
    }

    #[test]
    fn spans_cross_threads_via_captured_ctx() {
        let t = tracer();
        let root = t.root(Stage::Fanout);
        let ctx = root.ctx();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut s = t.span_under(Some(ctx), Stage::ReplicaDecide);
                s.set_note(Note::Replica(1));
                drop(s);
            });
        });
        drop(root);
        let recs = t.snapshot();
        assert_eq!(recs.len(), 2);
        let worker = recs
            .iter()
            .find(|r| r.stage == Stage::ReplicaDecide)
            .unwrap();
        assert_eq!(worker.parent, ctx.span);
        assert_eq!(worker.note, Some(Note::Replica(1)));
    }

    #[test]
    fn dropped_spans_are_recorded_not_leaked() {
        let t = tracer();
        {
            let _span = t.root(Stage::PepEnforce);
            // No finish(): the drop must still record it.
        }
        let recs = t.snapshot();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].stage, Stage::PepEnforce);
    }

    /// A full sink displaces its oldest record: fed 2N spans, a tracer
    /// of capacity N holds the newest N, oldest first, and counts the N
    /// it displaced.
    #[test]
    fn a_full_sink_keeps_the_newest_and_counts_what_it_displaced() {
        const N: u64 = 4;
        let t = Tracer::new(N as usize, &Registry::new());
        for _ in 0..2 * N {
            drop(t.root(Stage::PepEnforce));
        }
        let kept: Vec<u64> = t.snapshot().iter().map(|r| r.id).collect();
        assert_eq!(kept, (N + 1..=2 * N).collect::<Vec<_>>());
        assert_eq!(t.dropped(), N);
    }

    #[test]
    fn durations_are_monotone_and_nested() {
        let t = tracer();
        let root = t.root(Stage::PepEnforce);
        let child = root.child(Stage::Decide);
        std::thread::sleep(Duration::from_millis(2));
        drop(child);
        drop(root);
        let recs = t.snapshot();
        let root_rec = recs.iter().find(|r| r.stage == Stage::PepEnforce).unwrap();
        let child_rec = recs.iter().find(|r| r.stage == Stage::Decide).unwrap();
        assert!(child_rec.dur_ns >= 2_000_000);
        assert!(root_rec.dur_ns >= child_rec.dur_ns);
        assert!(child_rec.start_ns >= root_rec.start_ns);
    }

    #[test]
    fn dump_json_carries_every_field() {
        let t = tracer();
        let mut s = t.root(Stage::PepEnforce);
        s.set_note(Note::Reject("stale_epoch"));
        drop(s);
        let json = t.dump_json();
        assert!(json.starts_with("{\"dropped_spans\":0,\"spans\":["));
        assert!(json.contains("\"stage\":\"pep_enforce\""));
        assert!(json.contains("\"note\":\"reject:stale_epoch\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"dur_ns\":"));
    }
}
