//! The observer the timing simulations report into: one concrete type
//! carrying the structured event trace and the cycle profile.

use crate::event::TraceEvent;
use crate::profiler::{Activity, Component, CycleProfiler, Profile};
use hni_sim::{Duration, Time};

/// What a simulation run records about itself: its [`TraceEvent`]
/// stream, its cycle accounting (a [`CycleProfiler`]), both, or
/// neither.
///
/// Instrumentation points gate on [`Observer::is_tracing`] /
/// [`Observer::is_profiling`] before building an event or a charge:
///
/// ```
/// # use hni_telemetry::{Observer, Stage, TraceEvent, Time};
/// let mut obs = Observer::tracing();
/// # let now = Time::ZERO;
/// if obs.is_tracing() {
///     obs.record(TraceEvent::instant(now, Stage::TxFramer).cell(0));
/// }
/// assert_eq!(obs.events().len(), 1);
/// ```
///
/// The default observer records nothing: both gates are false, so the
/// steady-state per-cell path builds no event, charges nothing and
/// allocates nothing — results are bit-identical to an unobserved run.
#[derive(Clone, Debug, Default)]
pub struct Observer {
    events: Option<Vec<TraceEvent>>,
    profiler: Option<CycleProfiler>,
}

impl Observer {
    /// An observer that captures the full event stream, in emission
    /// order, and keeps no profile.
    pub fn tracing() -> Self {
        Observer {
            events: Some(Vec::new()),
            profiler: None,
        }
    }

    /// An observer that charges a [`CycleProfiler`] with the default
    /// utilization window and records no events.
    pub fn profiling() -> Self {
        Self::profiling_with(CycleProfiler::new())
    }

    /// An observer that charges the given profiler (e.g. one with an
    /// explicit utilization window) and records no events.
    pub fn profiling_with(profiler: CycleProfiler) -> Self {
        Observer {
            events: None,
            profiler: Some(profiler),
        }
    }

    /// Whether events are kept. Test this before building one.
    #[inline(always)]
    pub fn is_tracing(&self) -> bool {
        self.events.is_some()
    }

    /// Whether charges and gauges are kept. Test this before computing
    /// one.
    #[inline(always)]
    pub fn is_profiling(&self) -> bool {
        self.profiler.is_some()
    }

    /// Record one event. Events arrive in simulation order.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if let Some(events) = &mut self.events {
            events.push(ev);
        }
    }

    /// Charge `dur` of `activity` on `component`, starting at `from`
    /// (see [`CycleProfiler::charge`]).
    #[inline]
    pub fn charge(&mut self, component: Component, activity: Activity, from: Time, dur: Duration) {
        if let Some(p) = &mut self.profiler {
            p.charge(component, activity, from, dur);
        }
    }

    /// Sample an occupancy gauge (see [`CycleProfiler::gauge`]).
    #[inline]
    pub fn gauge(&mut self, component: Component, now: Time, value: u64) {
        if let Some(p) = &mut self.profiler {
            p.gauge(component, now, value);
        }
    }

    /// The recorded stream, in emission order (empty when not tracing).
    pub fn events(&self) -> &[TraceEvent] {
        self.events.as_deref().unwrap_or_default()
    }

    /// Consume the observer, returning the recorded stream.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events.unwrap_or_default()
    }

    /// Snapshot the cycle accounting as of `end` (see
    /// [`CycleProfiler::snapshot`]). An observer that is not profiling
    /// snapshots an empty profile.
    pub fn snapshot(&self, end: Time) -> Profile {
        match &self.profiler {
            Some(p) => p.snapshot(end),
            None => CycleProfiler::new().snapshot(end),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Stage;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::instant(Time::from_ns(i), Stage::TxFramer).cell(i)
    }

    #[test]
    fn default_observer_keeps_no_events() {
        let mut obs = Observer::default();
        assert!(!obs.is_tracing());
        obs.record(ev(0));
        assert!(obs.events().is_empty());
        assert!(obs.into_events().is_empty());
    }

    #[test]
    fn default_observer_keeps_no_profile() {
        let mut obs = Observer::default();
        assert!(!obs.is_profiling());
        obs.charge(
            Component::TxEngine,
            Activity::Busy,
            Time::ZERO,
            Duration::from_us(1),
        );
        obs.gauge(Component::TxFifo, Time::ZERO, 7);
        let p = obs.snapshot(Time::from_us(1));
        assert_eq!(p.total(Component::TxEngine, Activity::Busy), Duration::ZERO);
        assert_eq!(p.gauge(Component::TxFifo).peak, 0);
        assert_eq!(p.folded_stacks(), "");
    }

    #[test]
    fn tracing_observer_records_in_order() {
        let mut obs = Observer::tracing();
        assert!(obs.is_tracing() && !obs.is_profiling());
        for i in 0..5 {
            obs.record(ev(i));
        }
        assert_eq!(obs.events().len(), 5);
        assert_eq!(obs.events()[3].cell, 3);
        assert_eq!(obs.into_events().len(), 5);
    }

    #[test]
    fn profiling_observer_charges_its_profiler() {
        let mut obs = Observer::profiling();
        assert!(obs.is_profiling() && !obs.is_tracing());
        obs.charge(
            Component::TxEngine,
            Activity::Busy,
            Time::ZERO,
            Duration::from_us(30),
        );
        obs.gauge(Component::TxFifo, Time::ZERO, 7);
        obs.record(ev(0));
        let p = obs.snapshot(Time::from_us(100));
        assert_eq!(
            p.total(Component::TxEngine, Activity::Busy),
            Duration::from_us(30)
        );
        assert_eq!(p.gauge(Component::TxFifo).peak, 7);
        assert!(obs.events().is_empty());
    }
}
