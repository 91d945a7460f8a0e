//! Golden guarantee of the telemetry layer: turning tracing on must not
//! change a single simulated outcome. Every instrumented pipeline is run
//! twice — once with a `NullTracer` and once with a recording tracer —
//! and the reports are compared byte for byte via their `Debug`
//! rendering (which includes every counter, time and statistic they
//! carry).

use hni_aal::AalType;
use hni_atm::VcId;
use hni_core::e2esim::{run_e2e, run_e2e_with};
use hni_core::rxsim::{run_rx, run_rx_with, RxConfig, RxWorkload};
use hni_core::txsim::{greedy_workload, run_tx, run_tx_with, TxConfig};
use hni_host::{DriverCosts, HostCpu, InterruptMode, RxHostModel};
use hni_sim::{Duration, FaultPlan, Time};
use hni_sonet::LineRate;
use hni_telemetry::{NullProfiler, NullTracer, VecTracer};

#[test]
fn tx_report_identical_with_tracing_on() {
    let cfg = TxConfig::paper(LineRate::Oc12);
    let wl = greedy_workload(15, 9180, VcId::new(0, 32));
    let (plain_report, plain_departures) =
        run_tx_with(&cfg, &wl, &mut NullTracer, &mut NullProfiler);
    let mut tracer = VecTracer::new();
    let (traced_report, traced_departures) = run_tx_with(&cfg, &wl, &mut tracer, &mut NullProfiler);
    assert!(!tracer.is_empty(), "instrumented run must record events");
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
    let (plain_report, plain_done, _) =
        run_rx_with(&cfg, &wl, none, 0, &mut NullTracer, &mut NullProfiler);
    let mut tracer = VecTracer::new();
    let (traced_report, traced_done, _) =
        run_rx_with(&cfg, &wl, none, 0, &mut tracer, &mut NullProfiler);
    assert!(!tracer.is_empty());
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
    let mut tracer = VecTracer::new();
    let none = &FaultPlan::NONE;
    let (traced, _) = run_e2e_with(
        &txc,
        &rxc,
        &wl,
        prop,
        none,
        0,
        &mut tracer,
        &mut NullProfiler,
    );
    assert!(!tracer.is_empty());
    assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
}

#[test]
fn host_model_report_identical_with_tracing_on() {
    let model = RxHostModel {
        cpu: HostCpu::workstation(),
        costs: DriverCosts::default(),
        interrupts: InterruptMode::Coalesced {
            max_packets: 8,
            max_delay: Duration::from_ms(1),
        },
    };
    let arrivals: Vec<(Time, usize)> = (0..40).map(|i| (Time::from_us(10 * i), 9180)).collect();
    let plain = model.process(&arrivals);
    let mut tracer = VecTracer::new();
    let traced = model.process_instrumented(&arrivals, &mut tracer);
    assert!(!tracer.is_empty());
    assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
}

#[test]
fn functional_driver_identical_with_tracing_on() {
    use hni_core::{DriverConfig, HostDriver, Nic, NicConfig};
    use hni_telemetry::Stage;

    let run = |tracer: &mut dyn hni_telemetry::Tracer| {
        let cfg = NicConfig::paper(LineRate::Oc3);
        let mut a = HostDriver::new(Nic::new(cfg.clone()), DriverConfig::default());
        let mut b = HostDriver::new(Nic::new(cfg), DriverConfig::default());
        let vc = VcId::new(0, 66);
        a.nic_mut().open_vc(vc).unwrap();
        b.nic_mut().open_vc(vc).unwrap();
        for _ in 0..12 {
            let f = a.frame_tick(Time::ZERO);
            b.receive_line_octets(&f, Time::ZERO);
        }
        for i in 0..5u8 {
            a.send(vc, vec![i; 500], Time::ZERO).unwrap();
        }
        let mut got = Vec::new();
        for i in 0..20u64 {
            let now = Time::from_us(125 * i);
            let f = a.frame_tick_instrumented(now, tracer);
            b.receive_line_octets_instrumented(&f, now, tracer);
            while let Some(p) = b.poll_rx() {
                got.push(p);
            }
        }
        (got, b.interrupts())
    };

    let plain = run(&mut hni_telemetry::NullTracer);
    let mut tracer = VecTracer::new();
    let traced = run(&mut tracer);
    assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
    // The recorded stream covers the functional receive boundaries.
    for stage in [
        Stage::RxHec,
        Stage::RxCamLookup,
        Stage::RxReasmComplete,
        Stage::CompletionPush,
        Stage::Isr,
        Stage::HostDeliver,
    ] {
        assert!(
            tracer.events().iter().any(|e| e.stage == stage),
            "missing {stage:?} in driver trace"
        );
    }
}

#[test]
fn rerunning_the_trace_is_deterministic() {
    // Same workload, two recordings: identical event streams, so the
    // JSONL export is byte-identical too.
    let txc = TxConfig::paper(LineRate::Oc12);
    let rxc = RxConfig::paper(LineRate::Oc12);
    let wl = greedy_workload(3, 9180, VcId::new(0, 32));
    let prop = Duration::from_us(5);
    let mut t1 = VecTracer::new();
    let mut t2 = VecTracer::new();
    let none = &FaultPlan::NONE;
    run_e2e_with(&txc, &rxc, &wl, prop, none, 0, &mut t1, &mut NullProfiler);
    run_e2e_with(&txc, &rxc, &wl, prop, none, 0, &mut t2, &mut NullProfiler);
    assert_eq!(
        hni_telemetry::jsonl::to_jsonl(t1.events()),
        hni_telemetry::jsonl::to_jsonl(t2.events())
    );
}
