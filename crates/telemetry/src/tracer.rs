//! Trace sinks: the `Tracer` trait and its in-memory implementations.

use crate::event::TraceEvent;

/// Where instrumented simulations emit [`TraceEvent`]s.
///
/// Instrumentation points must gate on [`Tracer::enabled`] before
/// constructing an event:
///
/// ```
/// # use hni_telemetry::{Tracer, NullTracer, TraceEvent, Stage, Time};
/// # let mut tracer = NullTracer;
/// # let now = Time::ZERO;
/// if tracer.enabled() {
///     tracer.record(TraceEvent::instant(now, Stage::TxFramer).cell(0));
/// }
/// ```
///
/// With the [`NullTracer`] that branch is constant-false, so the
/// steady-state per-cell path does no work and no allocation — results
/// are bit-identical to an uninstrumented run.
pub trait Tracer {
    /// Whether events should be constructed and recorded at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event. Events arrive in simulation order.
    fn record(&mut self, ev: TraceEvent);
}

/// The zero-overhead sink: tracing off.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _ev: TraceEvent) {}
}

/// Unbounded recording sink: captures the full event stream for export
/// and reduction.
#[derive(Clone, Debug, Default)]
pub struct VecTracer {
    events: Vec<TraceEvent>,
}

impl VecTracer {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded stream, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consume the sink, returning the stream.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Tracer for VecTracer {
    fn record(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Stage;
    use hni_sim::Time;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::instant(Time::from_ns(i), Stage::TxFramer).cell(i)
    }

    #[test]
    fn null_tracer_is_disabled() {
        let t = NullTracer;
        assert!(!t.enabled());
    }

    #[test]
    fn vec_tracer_records_in_order() {
        let mut t = VecTracer::new();
        for i in 0..5 {
            t.record(ev(i));
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.events()[3].cell, 3);
    }
}
