//! The [`Recorder`] trait — the single seam through which the DHS stack
//! reports observability events — plus the no-op default and the full
//! [`Observer`] implementation combining metrics, spans, and the load
//! monitor.

use crate::load::LoadMonitor;
use crate::metrics::MetricsRegistry;
use crate::span::SpanRecorder;

/// Sink for observability events. Object-safe so transports can expose it as
/// `&mut dyn Recorder` without generics leaking through the stack.
///
/// All methods have obvious no-op semantics; [`NoopRecorder`] implements
/// exactly that, so instrumented code paths cost nothing when observability
/// is off.
pub trait Recorder {
    /// Add `delta` to counter `name`.
    fn incr(&mut self, name: &'static str, delta: u64);

    /// Record `value` in histogram `name`.
    fn observe(&mut self, name: &'static str, value: u64);

    /// Set gauge `name` to `value`.
    fn gauge_set(&mut self, name: &'static str, value: u64);

    /// Report one successfully delivered message of kind-tag `kind`
    /// (see `MessageKind::tag` in dhs-core) addressed to node `dst`.
    fn delivered(&mut self, kind: u8, dst: u64);

    /// Open a span; returns an id to pass to [`span_end`](Self::span_end).
    /// `now` is the caller's virtual-clock tick.
    fn span_start(&mut self, name: &'static str, arg: u64, now: u64) -> u64;

    /// Close the span `id` at tick `now`.
    fn span_end(&mut self, id: u64, now: u64);
}

/// A [`Recorder`] that drops everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn incr(&mut self, _name: &'static str, _delta: u64) {}
    fn observe(&mut self, _name: &'static str, _value: u64) {}
    fn gauge_set(&mut self, _name: &'static str, _value: u64) {}
    fn delivered(&mut self, _kind: u8, _dst: u64) {}
    fn span_start(&mut self, _name: &'static str, _arg: u64, _now: u64) -> u64 {
        0
    }
    fn span_end(&mut self, _id: u64, _now: u64) {}
}

/// The full observer: metrics registry + span recorder + load monitor.
#[derive(Debug, Clone)]
pub struct Observer {
    /// Named counters, gauges, and histograms.
    pub metrics: MetricsRegistry,
    /// Hierarchical span trace.
    pub spans: SpanRecorder,
    /// Per-node / per-interval delivery accounting.
    pub load: LoadMonitor,
}

impl Observer {
    /// An observer whose load monitor tracks `num_intervals` bit intervals.
    pub fn new(num_intervals: usize) -> Self {
        Observer {
            metrics: MetricsRegistry::new(),
            spans: SpanRecorder::new(),
            load: LoadMonitor::new(num_intervals),
        }
    }
}

/// Counter name for a delivered message of kind-tag `kind`.
fn delivered_counter(kind: u8) -> &'static str {
    match kind {
        1 => crate::names::MSG_LOOKUP_DELIVERED,
        2 => crate::names::MSG_STORE_DELIVERED,
        3 => crate::names::MSG_PROBE_DELIVERED,
        4 => crate::names::MSG_SUCC_SCAN_DELIVERED,
        _ => crate::names::MSG_OTHER_DELIVERED,
    }
}

impl Recorder for Observer {
    fn incr(&mut self, name: &'static str, delta: u64) {
        self.metrics.incr(name, delta);
    }

    fn observe(&mut self, name: &'static str, value: u64) {
        self.metrics.observe(name, value);
    }

    fn gauge_set(&mut self, name: &'static str, value: u64) {
        self.metrics.gauge_set(name, value);
    }

    fn delivered(&mut self, kind: u8, dst: u64) {
        self.metrics.incr(delivered_counter(kind), 1);
        self.load.record(dst);
    }

    fn span_start(&mut self, name: &'static str, arg: u64, now: u64) -> u64 {
        self.spans.start(name, arg, now)
    }

    fn span_end(&mut self, id: u64, now: u64) {
        self.spans.end(id, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observer_routes_events_to_components() {
        let mut o = Observer::new(8);
        o.incr("x", 2);
        o.observe("h", 10);
        o.gauge_set("g", 7);
        o.delivered(1, u64::MAX);
        o.delivered(2, 1u64 << 62);
        let id = o.span_start("insert", 3, 0);
        o.span_end(id, 5);
        assert_eq!(o.metrics.counter("x"), 2);
        assert_eq!(o.metrics.counter("msg.lookup.delivered"), 1);
        assert_eq!(o.metrics.counter("msg.store.delivered"), 1);
        assert_eq!(o.load.total(), 2);
        assert_eq!(o.load.interval_loads()[0], 1);
        assert_eq!(o.load.interval_loads()[1], 1);
        assert_eq!(o.spans.completed().count(), 1);
    }

    #[test]
    fn noop_recorder_returns_zero_span_ids() {
        let mut n = NoopRecorder;
        assert_eq!(n.span_start("x", 0, 0), 0);
        n.span_end(0, 1);
        n.incr("x", 1);
        n.delivered(1, 5);
    }
}
