//! Golden guarantee of the telemetry layer: turning tracing on must not
//! change a single simulated outcome. Every timing simulator is run
//! twice — once with an idle `Observer` and once with a tracing one —
//! and the reports are compared byte for byte via their `Debug`
//! rendering (which includes every counter, time and statistic they
//! carry).

use hni_aal::AalType;
use hni_atm::VcId;
use hni_core::e2esim::{run_e2e, run_e2e_with};
use hni_core::rxsim::{run_rx, run_rx_with, RxConfig, RxWorkload};
use hni_core::txsim::{greedy_workload, run_tx, run_tx_with, TxConfig};
use hni_sim::{Duration, FaultPlan};
use hni_sonet::LineRate;
use hni_telemetry::Observer;

#[test]
fn tx_report_identical_with_tracing_on() {
    let cfg = TxConfig::paper(LineRate::Oc12);
    let wl = greedy_workload(15, 9180, VcId::new(0, 32));
    let (plain_report, plain_departures) = run_tx_with(&cfg, &wl, &mut Observer::default());
    let mut obs = Observer::tracing();
    let (traced_report, traced_departures) = run_tx_with(&cfg, &wl, &mut obs);
    assert!(
        !obs.events().is_empty(),
        "instrumented run must record events"
    );
    assert_eq!(format!("{plain_report:?}"), format!("{traced_report:?}"));
    assert_eq!(
        format!("{:?}", run_tx(&cfg, &wl)),
        format!("{traced_report:?}")
    );
    assert_eq!(
        format!("{plain_departures:?}"),
        format!("{traced_departures:?}")
    );
}

#[test]
fn rx_report_identical_with_tracing_on() {
    let cfg = RxConfig::paper(LineRate::Oc12);
    let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 4, 6, 9180, 1.0);
    let none = &FaultPlan::NONE;
    let (plain_report, plain_done, _) = run_rx_with(&cfg, &wl, none, 0, &mut Observer::default());
    let mut obs = Observer::tracing();
    let (traced_report, traced_done, _) = run_rx_with(&cfg, &wl, none, 0, &mut obs);
    assert!(!obs.events().is_empty());
    assert_eq!(format!("{plain_report:?}"), format!("{traced_report:?}"));
    assert_eq!(
        format!("{:?}", run_rx(&cfg, &wl)),
        format!("{traced_report:?}")
    );
    assert_eq!(format!("{plain_done:?}"), format!("{traced_done:?}"));
}

#[test]
fn e2e_report_identical_with_tracing_on() {
    let txc = TxConfig::paper(LineRate::Oc12);
    let rxc = RxConfig::paper(LineRate::Oc12);
    let wl = greedy_workload(8, 9180, VcId::new(0, 32));
    let prop = Duration::from_us(5);
    let plain = run_e2e(&txc, &rxc, &wl, prop);
    let mut obs = Observer::tracing();
    let none = &FaultPlan::NONE;
    let (traced, _) = run_e2e_with(&txc, &rxc, &wl, prop, none, 0, &mut obs);
    assert!(!obs.events().is_empty());
    assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
}

#[test]
fn rerunning_the_trace_is_deterministic() {
    // Same workload, two recordings: identical event streams, so the
    // JSONL export is byte-identical too.
    let txc = TxConfig::paper(LineRate::Oc12);
    let rxc = RxConfig::paper(LineRate::Oc12);
    let wl = greedy_workload(3, 9180, VcId::new(0, 32));
    let prop = Duration::from_us(5);
    let mut t1 = Observer::tracing();
    let mut t2 = Observer::tracing();
    let none = &FaultPlan::NONE;
    run_e2e_with(&txc, &rxc, &wl, prop, none, 0, &mut t1);
    run_e2e_with(&txc, &rxc, &wl, prop, none, 0, &mut t2);
    assert_eq!(
        hni_telemetry::jsonl::to_jsonl(t1.events()),
        hni_telemetry::jsonl::to_jsonl(t2.events())
    );
}
