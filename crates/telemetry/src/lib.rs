//! # dacs-telemetry — metric registry and decision-path tracing
//!
//! Observability primitives for the DACS decision path, split in two
//! halves that share nothing but a [`Telemetry`] handle:
//!
//! * [`Registry`] — log-bucketed [`Histogram`]s behind atomics, and a
//!   reader of every counter the components keep. Recording a sample is
//!   a few relaxed atomic adds; no samples are stored, yet
//!   `p50/p95/p99/p999` come back within ~1.6% relative error (32 linear
//!   sub-buckets per power-of-two octave). Counters and gauges live only
//!   in the components' own [`counter_block!`]s and are read through
//!   ([`Registry::expose`]), never counted a second time.
//!   [`Registry::render_text`] emits a Prometheus-style text exposition.
//! * [`Tracer`] — per-enforcement traces and the only clock of the
//!   decision path's stages. A root [`Span`] stamps the enforcement with
//!   a trace id; child spans time every hop (PEP cache lookup, shard
//!   routing, quorum fan-out, per-replica `decide()` including
//!   cancelled stragglers, obligation evaluation), each of a closed
//!   [`Stage`] whose `dacs_<stage>_ns` histogram the span feeds when it
//!   closes. Spans propagate across call layers through a thread-local
//!   current-span context ([`Span::enter`] / [`current`]) so no trait
//!   signature changes, and across the fan-out thread pool by capturing
//!   a [`SpanCtx`] into the job closure. A span borrows its tracer, its
//!   [`SpanRecord`] is `Copy` and the sink is a ring allocated once, so
//!   tracing allocates nothing per span; a dropped span is recorded,
//!   never leaked.
//!
//! Every instrumented component takes an `Option<Arc<Telemetry>>`;
//! `None` keeps the hot path free of timing work — spans and the
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

pub use registry::{Histogram, Registry};
pub use trace::{current, Note, SpanRecord, Stage};
pub use trace::{Span, SpanCtx, SpanGuard, Tracer};

/// Spans the tracer's sink holds before it displaces the oldest.
const SPAN_CAPACITY: usize = 65_536;

/// One handle bundling the metric [`Registry`] and the [`Tracer`].
///
/// Components that opt into observability store an
/// `Option<Arc<Telemetry>>` and thread it through their builders; a
/// single handle shared across PEP, cluster, pool and syndication tree
/// yields one coherent exposition and one trace stream per run.
#[derive(Debug)]
pub struct Telemetry {
    registry: Registry,
    tracer: Tracer,
}

impl Default for Telemetry {
    fn default() -> Self {
        let registry = Registry::new();
        let tracer = Tracer::new(SPAN_CAPACITY, &registry);
        Telemetry { registry, tracer }
    }
}

impl Telemetry {
    /// A fresh handle: an empty trace sink whose stage histograms
    /// (`dacs_<stage>_ns`) are the registry's only metrics until a
    /// component exposes or records its own.
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
        t.registry().expose(|| vec![("dacs_demo_total", 1)]);
        drop(t.tracer().root(Stage::Route));
        assert_eq!(t.registry().counter_value("dacs_demo_total"), Some(1));
        assert_eq!(t.tracer().snapshot().len(), 1);
        // The span's stage histogram is the registry's, by name.
        assert_eq!(t.registry().histogram("dacs_route_ns").count(), 1);
        assert!(t.registry().render_text().contains("dacs_route_ns_count 1"));
    }
}
