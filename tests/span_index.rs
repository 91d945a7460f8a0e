//! The span index and exemplar reservoir under adversity: link fault
//! plans duplicate, drop and reorder cells between the two adaptors,
//! and the tail-anatomy layer must stay coherent — duplicated cells
//! must not corrupt a packet's stage edges, lost packets must leave
//! attributable partial spans rather than poisoning the index, and the
//! always-on reservoir must keep naming the histogram's exact maximum.

use hni_atm::VcId;
use hni_core::e2esim::run_e2e_with;
use hni_core::rxsim::RxConfig;
use hni_core::txsim::{greedy_workload, TxConfig, TxPacket};
use hni_sim::{Duration, FaultPlan};
use hni_sonet::LineRate;
use hni_telemetry::{attribute_tail, Observer, PacketSpans};

const PROPAGATION: Duration = Duration::from_us(5);

fn workload(n: usize) -> Vec<TxPacket> {
    greedy_workload(n, 9180, VcId::new(0, 32))
}

/// Duplication only: every cell survives, some arrive twice. Every
/// packet still completes, and the duplicate deliveries — which hit the
/// reassembler mid-SDU and are counted as errors there — must not
/// perturb the span index's edge capture (first-wins/last-wins fields
/// absorb the extra events without double counting).
#[test]
fn duplicated_cells_keep_every_span_telescoping() {
    // Rate chosen so the seeded run both duplicates cells AND leaves
    // survivors: a duplicate landing mid-SDU corrupts that reassembly
    // (extra cell → length/CRC mismatch), so at high rates every SDU
    // dies and there is nothing left to index.
    let plan = FaultPlan {
        duplication: 0.002,
        ..FaultPlan::NONE
    };
    let mut obs = Observer::tracing();
    let (report, lf) = run_e2e_with(
        &TxConfig::paper(LineRate::Oc12),
        &RxConfig::paper(LineRate::Oc12),
        &workload(12),
        PROPAGATION,
        &plan,
        0xd0b1e5,
        &mut obs,
    );
    assert!(lf.duplicated > 0, "plan must actually duplicate: {lf:?}");
    let spans = PacketSpans::from_events(&obs.into_events());
    assert_eq!(spans.len(), 12);
    let mut complete = 0;
    for p in spans.packets() {
        let life = spans.life(p).expect("every packet was traced");
        if !life.is_complete() {
            continue;
        }
        complete += 1;
        let total = life.total().expect("complete life has a total");
        let sum: Duration = life
            .breakdown()
            .iter()
            .map(|s| s.total())
            .fold(Duration::ZERO, |a, b| a + b);
        assert_eq!(sum, total, "pkt {p}: stages must telescope to total");
        let w = spans.waterfall(p).expect("complete life renders");
        assert_eq!(w.total, total);
    }
    // Duplicates alone kill no SDU whose extra copy lands as an error
    // cell *after* reassembly already completed — but copies landing
    // mid-SDU can. The run must still complete packets to attribute.
    assert!(complete > 0, "duplication-only run completed no packets");
    assert_eq!(complete as u64, report.latency_hist.pcts().count);
}

/// Heavy loss: some packets never complete. Their lives must stay in
/// the index with attributable transmit-side spans (the waterfall
/// refuses to render, but the breakdown names the stages that did run)
/// and the cohort attributor must simply exclude them.
#[test]
fn lost_packets_leave_partial_but_attributable_spans() {
    let plan = FaultPlan::loss(0.05);
    let mut obs = Observer::tracing();
    let (report, lf) = run_e2e_with(
        &TxConfig::paper(LineRate::Oc12),
        &RxConfig::paper(LineRate::Oc12),
        &workload(20),
        PROPAGATION,
        &plan,
        0x10557,
        &mut obs,
    );
    assert!(lf.dropped > 0, "plan must actually drop: {lf:?}");
    let spans = PacketSpans::from_events(&obs.into_events());
    let incomplete: Vec<u32> = spans
        .packets()
        .filter(|&p| spans.life(p).is_some_and(|l| !l.is_complete()))
        .collect();
    assert!(
        !incomplete.is_empty(),
        "5% cell loss over 20 SDUs should kill at least one"
    );
    for &p in &incomplete {
        let life = spans.life(p).unwrap();
        assert!(spans.waterfall(p).is_none(), "pkt {p} must not render");
        assert!(life.total().is_none());
        // The transmit side ran to the wire regardless of what the link
        // did, so the partial breakdown reaches at least serialization.
        let stages = life.breakdown();
        assert!(
            stages.iter().any(|s| s.label == "serialize"),
            "pkt {p}: tx-side spans missing from partial life: {stages:?}"
        );
    }
    // The attributor sees only completed lives; with survivors present
    // it must still produce a (possibly empty) verdict without panic.
    let survivors = spans.len() - incomplete.len();
    assert_eq!(survivors as u64, report.latency_hist.pcts().count);
    if survivors >= 2 {
        let _ = attribute_tail(&spans);
    }
}

/// The reservoir rides inside the report: its slowest exemplar must
/// name the exact packet behind the histogram's exact max, under faults
/// and cleanly, and byte-identically across reruns.
#[test]
fn reservoir_names_the_histogram_max_and_reruns_identically() {
    let run = || {
        let mut obs = Observer::tracing();
        let (r, _) = run_e2e_with(
            &TxConfig::paper(LineRate::Oc12),
            &RxConfig::paper(LineRate::Oc12),
            &workload(20),
            PROPAGATION,
            &FaultPlan::NONE,
            0,
            &mut obs,
        );
        (r, obs.into_events())
    };
    let (a, events) = run();
    let (b, _) = run();
    assert_eq!(a.tail.slowest(), b.tail.slowest(), "reservoir not stable");
    assert_eq!(a.tail.sampled(), b.tail.sampled());
    let slowest = a.tail.slowest();
    assert_eq!(
        slowest.first().map(|e| e.latency_ps),
        Some(a.latency_hist.pcts().max),
        "slowest exemplar must carry the histogram's exact max"
    );
    // And the exemplar's identity resolves back through the span index
    // to the same latency, tying reservoir, histogram and spans to one
    // measurement.
    let spans = PacketSpans::from_events(&events);
    let top = slowest[0];
    let life = spans.life(top.pkt).expect("exemplar is indexed");
    assert_eq!(
        life.total().map(|d| d.as_ps()),
        Some(top.latency_ps),
        "span total disagrees with reservoir for pkt {}",
        top.pkt
    );
}

/// Zero-length SDUs through the real faulted path: the span index's
/// setup-edge fallback must hold outside the unit tests too.
#[test]
fn zero_length_packets_survive_the_faulted_path() {
    let mut wl = workload(4);
    for p in wl.iter_mut().take(2) {
        p.len = 0;
    }
    let mut obs = Observer::tracing();
    let (_, lf) = run_e2e_with(
        &TxConfig::paper(LineRate::Oc12),
        &RxConfig::paper(LineRate::Oc12),
        &wl,
        PROPAGATION,
        &FaultPlan {
            duplication: 0.02,
            ..FaultPlan::NONE
        },
        0x1e43,
        &mut obs,
    );
    assert_eq!(lf.dropped, 0, "duplication-only plan must not drop");
    let spans = PacketSpans::from_events(&obs.into_events());
    for p in spans.packets() {
        if let Some(w) = spans.waterfall(p) {
            assert!(w.total >= Duration::ZERO);
            assert!(!w.stages.is_empty());
        }
    }
    assert!(
        spans
            .packets()
            .filter_map(|p| spans.life(p))
            .any(|l| l.is_complete()),
        "at least the non-empty SDUs must complete"
    );
}
