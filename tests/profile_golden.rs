//! Golden proofs for the cycle-accounting profiler:
//!
//! 1. **Observation does not perturb** — running any pipeline under a
//!    profiling `Observer` yields byte-identical reports (and departure
//!    schedules) to the unprofiled run.
//! 2. **Off means free** — with an observer that records nothing the
//!    simulations perform exactly as many heap allocations as they ever
//!    did: the instrumentation is a branch on `is_profiling()` /
//!    `is_tracing()` and nothing else.
//! 3. **The charges add up** — profiler totals reconcile exactly with
//!    the reports' own busy-time counters, and folded stacks render
//!    deterministically.

use hni_atm::VcId;
use hni_core::e2esim::{run_e2e, run_e2e_with};
use hni_core::rxsim::{run_rx, run_rx_with, RxConfig, RxReport, RxWorkload};
use hni_core::txsim::{
    greedy_workload, run_tx, run_tx_with, CellDeparture, TxConfig, TxPacket, TxReport,
};
use hni_sim::{Duration, FaultPlan, Time};
use hni_sonet::LineRate;
use hni_telemetry::{Activity, Component, Observer};

#[path = "common/count_alloc.rs"]
mod count_alloc;
use count_alloc::allocs_during;

fn tx_with(cfg: &TxConfig, wl: &[TxPacket], obs: &mut Observer) -> (TxReport, Vec<CellDeparture>) {
    run_tx_with(cfg, wl, obs)
}

fn rx_with(cfg: &RxConfig, wl: &RxWorkload, obs: &mut Observer) -> (RxReport, Vec<Option<Time>>) {
    let (r, done, _) = run_rx_with(cfg, wl, &FaultPlan::NONE, 0, obs);
    (r, done)
}

fn tx_cfg() -> TxConfig {
    TxConfig::paper(LineRate::Oc12)
}

fn rx_parts() -> (RxConfig, RxWorkload) {
    let cfg = RxConfig::paper(LineRate::Oc12);
    let wl = RxWorkload::uniform(LineRate::Oc12, hni_aal::AalType::Aal5, 4, 5, 9180, 1.0);
    (cfg, wl)
}

#[test]
fn profiled_tx_run_is_byte_identical() {
    let cfg = tx_cfg();
    let wl = greedy_workload(12, 9180, VcId::new(0, 32));
    let plain = run_tx(&cfg, &wl);
    let (dep_plain_report, dep_plain) = tx_with(&cfg, &wl, &mut Observer::default());
    let mut obs = Observer::profiling();
    let (profiled, dep_prof) = tx_with(&cfg, &wl, &mut obs);
    assert_eq!(format!("{plain:?}"), format!("{profiled:?}"));
    assert_eq!(format!("{dep_plain_report:?}"), format!("{profiled:?}"));
    assert_eq!(format!("{dep_plain:?}"), format!("{dep_prof:?}"));
}

#[test]
fn profiled_rx_run_is_byte_identical() {
    let (cfg, wl) = rx_parts();
    let plain = run_rx(&cfg, &wl);
    let (traced_report, done_plain) = rx_with(&cfg, &wl, &mut Observer::default());
    let mut obs = Observer::profiling();
    let (profiled, done_prof) = rx_with(&cfg, &wl, &mut obs);
    assert_eq!(format!("{plain:?}"), format!("{profiled:?}"));
    assert_eq!(format!("{traced_report:?}"), format!("{profiled:?}"));
    assert_eq!(done_plain, done_prof);
}

#[test]
fn profiled_e2e_run_is_byte_identical() {
    let txc = tx_cfg();
    let rxc = RxConfig::paper(LineRate::Oc12);
    let wl = greedy_workload(8, 9180, VcId::new(0, 32));
    let prop = Duration::from_us(5);
    let plain = run_e2e(&txc, &rxc, &wl, prop);
    let mut obs = Observer::profiling();
    let none = &FaultPlan::NONE;
    let (profiled, _) = run_e2e_with(&txc, &rxc, &wl, prop, none, 0, &mut obs);
    assert_eq!(format!("{plain:?}"), format!("{profiled:?}"));
}

#[test]
fn disabled_profiler_adds_zero_allocations() {
    let cfg = tx_cfg();
    let wl = greedy_workload(12, 9180, VcId::new(0, 32));
    // Warm up once (lazy statics, first-touch growth). Baseline: the
    // plain run plus a departures vector grown cell by cell, exactly as
    // the `_with` entry collects it — identical work minus the hooks.
    let plain_plus_departures = || {
        let r = run_tx(&cfg, &wl);
        let mut deps = Vec::new();
        for _ in 0..r.cells_sent {
            deps.push(CellDeparture {
                at: Time::ZERO,
                pkt: 0,
                is_last: false,
            });
        }
        deps
    };
    let _ = (
        plain_plus_departures(),
        tx_with(&cfg, &wl, &mut Observer::default()),
    );
    let (deps, base) = allocs_during(plain_plus_departures);
    // An idle observer must allocate *exactly* what the plain run does —
    // every gate compiles to a constant-false branch.
    let ((_, departures), gated) = allocs_during(|| tx_with(&cfg, &wl, &mut Observer::default()));
    assert_eq!(departures.len(), deps.len());
    assert_eq!(base, gated, "idle-observer run allocated {gated} vs {base}");
    // And the run itself is allocation-deterministic (the comparison
    // above is meaningful).
    let (_, again) = allocs_during(plain_plus_departures);
    assert_eq!(base, again);

    // Receive: the `_with` entry's only extra allocation is the
    // completion vector it returns.
    let (rcfg, rwl) = rx_parts();
    let _ = (
        run_rx(&rcfg, &rwl),
        rx_with(&rcfg, &rwl, &mut Observer::default()),
    );
    let (_, rbase) = allocs_during(|| run_rx(&rcfg, &rwl));
    let (_, rgated) = allocs_during(|| rx_with(&rcfg, &rwl, &mut Observer::default()));
    assert_eq!(
        rbase + 1,
        rgated,
        "idle-observer rx run allocated {rgated} vs {rbase} + 1"
    );
}

#[test]
fn tx_profile_reconciles_with_report_counters() {
    let cfg = tx_cfg();
    let wl = greedy_workload(12, 9180, VcId::new(0, 32));
    let mut obs = Observer::profiling();
    let (r, _) = tx_with(&cfg, &wl, &mut obs);
    let p = obs.snapshot(r.finished_at);
    // Engine busy: the profiler charged exactly the report's counter.
    assert_eq!(p.total(Component::TxEngine, Activity::Busy), r.engine_busy);
    // Bus: transfer + arbitration partition the bus busy time exactly.
    let bus = p.total(Component::TxBus, Activity::Transfer)
        + p.total(Component::TxBus, Activity::Arbitration);
    assert_eq!(bus, r.bus_busy);
    // Link: one cell slot of transfer per cell put on the line.
    assert_eq!(
        p.total(Component::TxLink, Activity::Transfer),
        cfg.rate.cell_slot_time() * r.cells_sent
    );
    // Activity split is exhaustive: active + stalls + idle cover every
    // charged pair (nothing charged outside the enum).
    assert!(p.active_time(Component::TxEngine) >= r.engine_busy);
}

#[test]
fn rx_profile_reconciles_with_report_counters() {
    let (cfg, wl) = rx_parts();
    let mut obs = Observer::profiling();
    let (r, _) = rx_with(&cfg, &wl, &mut obs);
    let p = obs.snapshot(r.run_end);
    // Link transfer: one slot per offered cell.
    assert_eq!(
        p.total(Component::RxLink, Activity::Transfer),
        cfg.rate.cell_slot_time() * r.cells_offered
    );
    // Pool gauge agrees with the report's peak.
    assert_eq!(p.gauge(Component::RxPool).peak, r.pool_peak);
    // Fifo gauge saw the same peak the report counted.
    assert_eq!(p.gauge(Component::RxFifo).peak, r.fifo_peak);
}

#[test]
fn folded_stacks_render_deterministically() {
    let render = || {
        let cfg = tx_cfg();
        let wl = greedy_workload(8, 9180, VcId::new(0, 32));
        let mut obs = Observer::profiling();
        let (r, _) = tx_with(&cfg, &wl, &mut obs);
        obs.snapshot(r.finished_at).folded_stacks()
    };
    let a = render();
    let b = render();
    assert_eq!(a, b);
    assert!(a.lines().any(|l| l.starts_with("tx.engine;busy ")), "{a}");
    assert!(a.lines().any(|l| l.starts_with("tx.link;transfer ")), "{a}");
}
