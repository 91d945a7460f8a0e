//! A registry of named metrics with a deterministic text dump.
//!
//! Metric instances are the `hni-sim::stats` collectors; the registry
//! adds hierarchical naming (`nic.tx.seg.cells`) and one place to dump
//! from. Names sort deterministically (BTreeMap), so dumps are stable
//! across runs — a requirement for golden tests.

use crate::event::{Phase, Stage, TraceEvent};
use hni_sim::stats::{Counter, Histogram, OccupancyTracker, RateMeter, Summary};
use hni_sim::Time;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named metric.
// Variant sizes differ (Histogram carries its bucket array inline), but
// a registry holds tens of metrics — boxing would cost an indirection
// on every sample for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Metric {
    /// Event/byte counter.
    Counter(Counter),
    /// Log₂-bucketed histogram (picoseconds by convention).
    Histogram(Histogram),
    /// Bytes/units over simulated time.
    Rate(RateMeter),
    /// Time-weighted occupancy.
    Occupancy(OccupancyTracker),
    /// Running min/mean/max summary.
    Summary(Summary),
}

/// Named metrics under hierarchical dotted names.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

macro_rules! accessor {
    ($fn_name:ident, $variant:ident, $ty:ty, $doc:literal) => {
        #[doc = $doc]
        ///
        /// Creates the metric on first use; panics if the name is
        /// already registered with a different type.
        pub fn $fn_name(&mut self, name: &str) -> &mut $ty {
            let m = self
                .metrics
                .entry(name.to_string())
                .or_insert_with(|| Metric::$variant(<$ty>::new()));
            match m {
                Metric::$variant(v) => v,
                other => panic!("metric '{name}' already registered as {other:?}"),
            }
        }
    };
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    accessor!(counter, Counter, Counter, "Counter under `name`.");
    accessor!(histogram, Histogram, Histogram, "Histogram under `name`.");
    accessor!(rate, Rate, RateMeter, "Rate meter under `name`.");
    accessor!(
        occupancy,
        Occupancy,
        OccupancyTracker,
        "Occupancy tracker under `name`."
    );
    accessor!(summary, Summary, Summary, "Summary under `name`.");

    /// Look up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Iterate metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Deterministic text dump: one line per metric, sorted by name.
    /// `end` closes rate/occupancy windows (usually the simulation end).
    pub fn dump(&self, end: Time) -> String {
        let mut out = String::new();
        for (name, m) in &self.metrics {
            match m {
                Metric::Counter(c) => {
                    let _ = writeln!(
                        out,
                        "{name} counter events={} bytes={}",
                        c.events(),
                        c.bytes()
                    );
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{name} histogram n={} mean_ps={:.1} p50_ps<={} p99_ps<={}",
                        h.count(),
                        h.mean(),
                        h.quantile(0.5),
                        h.quantile(0.99)
                    );
                }
                Metric::Rate(r) => {
                    let _ = writeln!(
                        out,
                        "{name} rate units={} bytes={} bps={:.1} ups={:.1}",
                        r.units(),
                        r.bytes(),
                        r.bits_per_second(end),
                        r.units_per_second(end)
                    );
                }
                Metric::Occupancy(o) => {
                    let _ = writeln!(
                        out,
                        "{name} occupancy current={} peak={} mean={:.3}",
                        o.current(),
                        o.peak(),
                        o.mean(end)
                    );
                }
                Metric::Summary(s) => {
                    let _ = writeln!(out, "{name} summary {s}");
                }
            }
        }
        out
    }

    /// Derive the standard pipeline metrics from a trace stream — every
    /// experiment's registry is a *query over the telemetry stream*, not
    /// separately maintained accounting.
    ///
    /// Spans (Enter/Exit pairs of the same stage) feed per-stage service
    /// time histograms under `nic.<stage>.time_ps`; instants feed
    /// counters, rates and occupancy under fixed names.
    pub fn from_trace(events: &[TraceEvent], end: Time) -> Self {
        let mut reg = MetricsRegistry::new();
        // The engine is a serial resource, so at most one span per stage
        // is open at a time; a per-stage last-Enter map suffices.
        let mut open: BTreeMap<Stage, Time> = BTreeMap::new();
        for ev in events {
            match ev.phase {
                Phase::Enter => {
                    open.insert(ev.stage, ev.time);
                }
                Phase::Exit => {
                    if let Some(t0) = open.remove(&ev.stage) {
                        let name = format!("nic.{}.time_ps", ev.stage.name());
                        reg.histogram(&name)
                            .record_duration(ev.time.saturating_since(t0));
                    }
                }
                Phase::Instant => {}
            }
            match ev.stage {
                Stage::TxDescriptor => reg.counter("nic.tx.descriptors").bump(),
                Stage::TxSegment if ev.phase == Phase::Exit => {
                    reg.counter("nic.tx.seg.cells").bump()
                }
                Stage::TxDmaBurst => reg.counter("nic.tx.dma.bursts").add(ev.arg),
                Stage::TxFifoEnqueue => reg.occupancy("nic.tx.fifo.occupancy").set(ev.time, ev.arg),
                Stage::TxFramer => {
                    reg.occupancy("nic.tx.fifo.occupancy").set(ev.time, ev.arg);
                    // One ATM cell = 53 octets on the wire.
                    reg.rate("nic.tx.framer.cells").record(ev.time, 53);
                }
                Stage::RxCellArrive => reg.counter("nic.rx.cells").bump(),
                Stage::RxFifoEnqueue => reg.occupancy("nic.rx.fifo.occupancy").set(ev.time, ev.arg),
                Stage::RxFifoDrop => reg.counter("nic.rx.drops.fifo").bump(),
                Stage::RxPoolDrop => reg.counter("nic.rx.drops.pool").bump(),
                // Discard stages carry the cell count in `arg` so the
                // counters reconcile 1:1 with the run's cell ledger.
                Stage::RxEpdDiscard => reg.counter("nic.rx.discards.epd").add(ev.arg),
                Stage::RxPpdDiscard => reg.counter("nic.rx.discards.ppd").add(ev.arg),
                Stage::RxStaleDiscard => reg.counter("nic.rx.discards.stale").add(ev.arg),
                Stage::RxReasmExpire => {
                    reg.counter("nic.rx.reasm.expiries").bump();
                    reg.counter("nic.rx.discards.expired").add(ev.arg);
                }
                Stage::RxValidateFail if ev.phase == Phase::Instant => {
                    reg.counter("nic.rx.validate.failures").bump();
                }
                Stage::RxReasmAppend => reg.counter("nic.rx.reasm.appends").bump(),
                Stage::RxReasmComplete => reg.counter("nic.rx.reasm.completions").bump(),
                // Receive bursts carry the burst ordinal in `arg`, not a
                // byte count — count events only.
                Stage::RxDmaBurst => reg.counter("nic.rx.dma.bursts").bump(),
                Stage::RxComplete if ev.phase == Phase::Exit => {
                    reg.counter("nic.rx.completions").bump()
                }
                Stage::CompletionPush => reg.counter("host.cq.pushes").bump(),
                _ => {}
            }
        }
        // Close the accounting window so dumps are reproducible.
        let _ = end;
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_create_once() {
        let mut reg = MetricsRegistry::new();
        reg.counter("a.b").add(10);
        reg.counter("a.b").bump();
        assert_eq!(reg.len(), 1);
        match reg.get("a.b") {
            Some(Metric::Counter(c)) => {
                assert_eq!(c.events(), 2);
                assert_eq!(c.bytes(), 10);
            }
            other => panic!("wrong metric {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_conflict_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("x").bump();
        reg.histogram("x");
    }

    #[test]
    fn dump_is_sorted_and_deterministic() {
        let mut reg = MetricsRegistry::new();
        reg.counter("z.last").bump();
        reg.counter("a.first").add(5);
        reg.histogram("m.mid").record(100);
        let d1 = reg.dump(Time::from_us(1));
        let d2 = reg.dump(Time::from_us(1));
        assert_eq!(d1, d2);
        let lines: Vec<&str> = d1.lines().collect();
        assert!(lines[0].starts_with("a.first"));
        assert!(lines[1].starts_with("m.mid"));
        assert!(lines[2].starts_with("z.last"));
    }

    #[test]
    fn from_trace_counts_spans_and_instants() {
        let events = vec![
            TraceEvent::instant(Time::ZERO, Stage::TxDescriptor).pkt(0),
            TraceEvent::enter(Time::ZERO, Stage::TxSegment).pkt(0),
            TraceEvent::exit(Time::from_ns(100), Stage::TxSegment).pkt(0),
            TraceEvent::instant(Time::from_ns(120), Stage::TxFifoEnqueue).arg(1),
            TraceEvent::instant(Time::from_ns(820), Stage::TxFramer)
                .arg(0)
                .cell(0),
            TraceEvent::instant(Time::from_ns(900), Stage::RxFifoDrop),
        ];
        let reg = MetricsRegistry::from_trace(&events, Time::from_us(1));
        match reg.get("nic.tx.seg.cells") {
            Some(Metric::Counter(c)) => assert_eq!(c.events(), 1),
            other => panic!("{other:?}"),
        }
        match reg.get("nic.tx.seg.time_ps") {
            Some(Metric::Histogram(h)) => {
                assert_eq!(h.count(), 1);
                assert!((h.mean() - 100_000.0).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
        match reg.get("nic.rx.drops.fifo") {
            Some(Metric::Counter(c)) => assert_eq!(c.events(), 1),
            other => panic!("{other:?}"),
        }
        assert!(reg.get("nic.tx.fifo.occupancy").is_some());
    }
}
