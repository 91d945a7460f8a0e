//! Allocation-count proofs for the tracing and profiling hot paths.
//!
//! A per-thread counting global allocator wraps `System`; the tests
//! assert that recording and charging through an `Observer` with
//! nothing enabled perform zero heap allocations, which is what makes it
//! safe to leave instrumentation in the per-cell steady-state path.

use hni_telemetry::{
    Activity, Component, Duration, Observer, Stage, TailReservoir, Time, TraceEvent,
};
#[path = "../../../tests/common/count_alloc.rs"]
mod count_alloc;
use count_alloc::allocs_during;

fn ev(i: u64) -> TraceEvent {
    TraceEvent::instant(Time::from_ns(i), Stage::TxFramer)
        .vc(64)
        .cell(i)
}

#[test]
fn idle_observer_records_without_allocating() {
    let mut obs = Observer::default();
    let (_, n) = allocs_during(|| {
        for i in 0..10_000 {
            if obs.is_tracing() {
                obs.record(ev(i));
            }
        }
    });
    assert_eq!(n, 0, "idle observer trace path allocated {n} times");
}

#[test]
fn idle_observer_charges_without_allocating() {
    // The exact shape of every profiler call site in the simulations:
    // gate on is_profiling(), then charge or gauge.
    let mut obs = Observer::default();
    let (_, n) = allocs_during(|| {
        for i in 0..100_000u64 {
            if obs.is_profiling() {
                obs.charge(
                    Component::RxEngine,
                    Activity::Busy,
                    Time::from_ns(i),
                    Duration::from_ns(600),
                );
                obs.gauge(Component::RxFifo, Time::from_ns(i), i % 16);
            }
        }
    });
    assert_eq!(n, 0, "idle observer profile path allocated {n} times");
}

#[test]
fn tail_reservoir_records_without_allocating() {
    // The always-on exemplar reservoir rides every packet completion,
    // so its record path must be as clean as an idle observer's: both internal
    // sets are preallocated to capacity and replacement is in place.
    // (Reading the exemplars back — slowest()/sampled() — sorts into a
    // fresh Vec and is allowed to allocate; it runs once per report.)
    let mut tail = TailReservoir::paper();
    let (_, n) = allocs_during(|| {
        for i in 0..100_000u64 {
            let lat = Duration::from_ns(1_000 + (i * 7919) % 50_000);
            tail.record(64, i as u32, lat, Time::from_ns(i) + lat);
        }
    });
    assert_eq!(n, 0, "TailReservoir record path allocated {n} times");
    assert_eq!(tail.recorded(), 100_000);
    assert!(!tail.slowest().is_empty() && !tail.sampled().is_empty());
}
