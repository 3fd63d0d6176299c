//! # dacs-telemetry — metric registry and decision-path tracing
//!
//! Observability primitives for the DACS decision path, split in two
//! halves that share nothing but a [`Telemetry`] handle:
//!
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s and log-bucketed
//!   [`Histogram`]s behind atomics. Recording a sample is a couple of
//!   relaxed atomic adds; no samples are stored, yet `p50/p95/p99/p999`
//!   come back within ~1.6% relative error (32 linear sub-buckets per
//!   power-of-two octave). Counters a component already keeps in its
//!   stats struct are read through ([`Registry::expose`]), never
//!   counted a second time. [`Registry::render_text`] emits a
//!   Prometheus-style text exposition.
//! * [`Tracer`] — per-enforcement traces. A root [`Span`] stamps the
//!   enforcement with a trace id; timed child spans record every hop
//!   (PEP cache lookup, shard routing, quorum fan-out, per-replica
//!   `decide()` including hedges and cancellations, obligation
//!   evaluation). Spans propagate across call layers through a
//!   thread-local current-span context ([`Span::enter`] /
//!   [`current`]) so no trait signature changes, and across the
//!   fan-out thread pool by capturing a [`SpanCtx`] into the job
//!   closure. A dropped span is recorded, never leaked:
//!   [`Tracer::dump_json`] always shows closed spans.
//!
//! Every instrumented component takes an `Option<Arc<Telemetry>>`;
//! `None` keeps the hot path free of timing work — spans and latency
//! histograms, the parts that read the wall clock. Event counters are
//! the components' own and count either way.
//!
//! The span hierarchy, metric names, and the exposition/trace-dump
//! formats are documented in the repository's `ARCHITECTURE.md`
//! ("Observability" section).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod registry;
mod trace;

pub use registry::{Counter, Gauge, Histogram, Registry};
pub use trace::{current, SpanRecord};
pub use trace::{Span, SpanCtx, SpanGuard, Tracer};

/// One handle bundling the metric [`Registry`] and the [`Tracer`].
///
/// Components that opt into observability store an
/// `Option<Arc<Telemetry>>` and thread it through their builders; a
/// single handle shared across PEP, cluster, pool and syndication tree
/// yields one coherent exposition and one trace stream per run.
#[derive(Debug, Default)]
pub struct Telemetry {
    registry: Registry,
    tracer: Tracer,
}

impl Telemetry {
    /// A fresh handle with an empty registry and trace sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn one_handle_feeds_both_halves() {
        let t = Arc::new(Telemetry::new());
        t.registry().counter("dacs_demo_total").inc();
        let span = t.tracer().root("demo");
        span.finish();
        assert_eq!(t.registry().counter("dacs_demo_total").get(), 1);
        assert_eq!(t.tracer().snapshot().len(), 1);
    }
}
