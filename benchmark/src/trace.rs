//! The traced pass's span recorder. Spans are taken from outside the
//! program — around the benchmark's own calls into `Pep::serve`, and
//! around the decision source through the [`TimedSource`] decorator —
//! kept in memory, and written out when the pass ends.

use dacs::capability::CapabilityToken;
use dacs::pdp::DecisionClass;
use dacs::pep::DecisionSource;
use dacs::policy::eval::Response;
use dacs::policy::request::RequestContext;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span was taken at.
    pub name: &'static str,
    /// Index of the workload operation that caused it.
    pub op: u64,
    /// Index (in recording order) of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// The open root span and its operation: child spans attach here.
    root: Option<(u32, u64)>,
}

/// In-memory span sink shared by the workload loop (root spans) and
/// the [`TimedSource`] inside the PEP (child spans).
pub struct Recorder {
    epoch: Instant,
    state: Mutex<State>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        })
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a recorder user panicked mid-span")
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens the root span of operation `op` at `at`; child spans
    /// opened before it closes nest under it.
    pub fn open_root(&self, name: &'static str, op: u64, at: Instant) -> u32 {
        let start_ns = self.ns(at);
        let mut s = self.state();
        let id = s.spans.len() as u32;
        s.spans.push(Span {
            name,
            op,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        s.root = Some((id, op));
        id
    }

    /// Opens a span now under the open root (parentless, for operation
    /// 0, when there is none).
    pub fn open_child(&self, name: &'static str) -> u32 {
        let mut s = self.state();
        let id = s.spans.len() as u32;
        let (parent, op) = match s.root {
            Some((root, op)) => (Some(root), op),
            None => (None, 0),
        };
        let start_ns = self.ns(Instant::now());
        s.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes span `id` at `at`.
    pub fn close(&self, id: u32, at: Instant) {
        let end_ns = self.ns(at);
        let mut s = self.state();
        s.spans[id as usize].end_ns = end_ns;
        if s.root.is_some_and(|(root, _)| root == id) {
            s.root = None;
        }
    }

    /// Takes every span recorded so far, in recording order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.state().spans)
    }
}

/// A layer's self time per span: the span's duration minus the part
/// its direct children cover. Aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &mut own[parent as usize];
            *p = p.saturating_sub(span.dur_ns());
        }
    }
    own
}

/// Mean of `figure` over the spans called `name`; 0 when there are none.
pub fn mean_of(spans: &[Span], figure: &[u64], name: &str) -> f64 {
    let (mut sum, mut n) = (0u64, 0u64);
    for (span, value) in spans.iter().zip(figure) {
        if span.name == name {
            sum += value;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// Median duration (ns) of the spans called `name`; 0 when there are none.
pub fn median_dur(spans: &[Span], name: &str) -> f64 {
    let durs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect();
    if durs.is_empty() {
        0.0
    } else {
        crate::stats::median(&durs)
    }
}

/// Writes `spans` as a JSON array of
/// `{name, op, parent, start_ns, end_ns}` objects (`parent` −1 for a
/// root), creating the directory if needed.
pub fn write_json(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, i64::from);
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            r#"{{"name":"{}","op":{},"parent":{},"start_ns":{},"end_ns":{}}}{}"#,
            s.name, s.op, parent, s.start_ns, s.end_ns, comma
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

/// Decorates a [`DecisionSource`] with a `source` span per call. Only
/// the traced pass's PEP is built over it; the untraced pass enforces
/// through the domain's own PEP with nothing of the benchmark's on the
/// decision path.
pub struct TimedSource {
    inner: Arc<dyn DecisionSource>,
    recorder: Arc<Recorder>,
}

impl TimedSource {
    /// Wraps `inner`, recording into `recorder`.
    pub fn new(inner: Arc<dyn DecisionSource>, recorder: Arc<Recorder>) -> Self {
        TimedSource { inner, recorder }
    }

    fn timed<T>(&self, call: impl FnOnce(&dyn DecisionSource) -> T) -> T {
        let id = self.recorder.open_child("source");
        let out = call(self.inner.as_ref());
        self.recorder.close(id, Instant::now());
        out
    }
}

// Every method forwards to its namesake: falling back to the trait's
// defaults would silently drop the inner source's batching, minting
// and lane handling.
impl DecisionSource for TimedSource {
    fn decide(&self, request: &RequestContext, now_ms: u64) -> Response {
        self.timed(|s| s.decide(request, now_ms))
    }

    fn decide_batch(&self, requests: &[RequestContext], now_ms: u64) -> Vec<Response> {
        self.timed(|s| s.decide_batch(requests, now_ms))
    }

    fn decide_with_grant(
        &self,
        request: &RequestContext,
        now_ms: u64,
    ) -> (Response, Option<CapabilityToken>) {
        self.timed(|s| s.decide_with_grant(request, now_ms))
    }

    fn decide_batch_with_grants(
        &self,
        requests: &[RequestContext],
        now_ms: u64,
    ) -> Vec<(Response, Option<CapabilityToken>)> {
        self.timed(|s| s.decide_batch_with_grants(requests, now_ms))
    }

    fn decide_classed(
        &self,
        request: &RequestContext,
        now_ms: u64,
        class: DecisionClass,
    ) -> Response {
        self.timed(|s| s.decide_classed(request, now_ms, class))
    }

    fn decide_batch_classed(
        &self,
        requests: &[RequestContext],
        now_ms: u64,
        class: DecisionClass,
    ) -> Vec<Response> {
        self.timed(|s| s.decide_batch_classed(requests, now_ms, class))
    }

    fn decide_with_grant_classed(
        &self,
        request: &RequestContext,
        now_ms: u64,
        class: DecisionClass,
    ) -> (Response, Option<CapabilityToken>) {
        self.timed(|s| s.decide_with_grant_classed(request, now_ms, class))
    }

    fn decide_batch_with_grants_classed(
        &self,
        requests: &[RequestContext],
        now_ms: u64,
        class: DecisionClass,
    ) -> Vec<(Response, Option<CapabilityToken>)> {
        self.timed(|s| s.decide_batch_with_grants_classed(requests, now_ms, class))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_nest_under_the_open_root_and_self_time_excludes_them() {
        let rec = Recorder::new();
        let t0 = Instant::now();
        let root = rec.open_root("serve", 7, t0);
        let child = rec.open_child("source");
        rec.close(child, Instant::now());
        rec.close(root, t0 + Duration::from_millis(5));
        let orphan = rec.open_child("source");
        rec.close(orphan, Instant::now());

        let spans = rec.take();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[1].op), (Some(0), 7));
        assert_eq!((spans[2].parent, spans[2].op), (None, 0));
        let own = self_times(&spans);
        assert_eq!(own[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(own[1], spans[1].dur_ns());
        assert_eq!(mean_of(&spans, &own, "serve"), own[0] as f64);
        assert_eq!(mean_of(&spans, &own, "absent"), 0.0);
        assert_eq!(median_dur(&spans, "serve"), spans[0].dur_ns() as f64);
        assert!(rec.take().is_empty());
    }
}
