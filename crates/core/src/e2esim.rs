//! End-to-end timing composition: transmit pipeline → propagation →
//! receive pipeline, as one measurement.
//!
//! The closed-form latency breakdown (R-F3) sums component terms for an
//! *unloaded* path. This composition replays the transmit simulation's
//! actual cell departure times — including every engine, bus, FIFO and
//! pacing interaction — into the receive simulation as the arrival
//! schedule, so end-to-end latency and its *distribution under load*
//! come out of the same machinery the throughput experiments use.
//!
//! What the composition deliberately keeps: the ordering and spacing of
//! cells on the wire (that IS the link). What it abstracts: the SONET
//! frame boundaries (cells ride a continuous slot stream; framing
//! overhead is already accounted in the slot rate).

use crate::rxsim::{run_rx_with, CellArrival, LinkFaults, RxConfig, RxPktMeta, RxWorkload};
use crate::txsim::{run_tx_with, TxConfig, TxPacket};
use hni_aal::AalType;
use hni_sim::{Duration, FaultPlan, Summary, Time};
use hni_telemetry::{HdrHist, Observer, TailReservoir};

/// End-to-end results.
#[derive(Clone, Debug)]
pub struct E2eReport {
    /// Packets offered.
    pub offered: u64,
    /// Packets delivered into host B memory.
    pub delivered: u64,
    /// Descriptor-at-A → completion-at-B latency, µs.
    pub latency_us: Summary,
    /// End-to-end latency distribution (ps): always-on log₂ histogram
    /// with p50/p90/p99/p999 bands and exact max.
    pub latency_hist: HdrHist,
    /// Tail exemplars for the end-to-end latency: slowest packets'
    /// identities plus a deterministic identity sample. Joins back to
    /// traces/waterfalls via the packet id (always on, fixed capacity).
    pub tail: TailReservoir,
    /// End-to-end goodput, bits/s.
    pub goodput_bps: f64,
    /// The transmit-side report.
    pub tx: crate::txsim::TxReport,
    /// The receive-side report.
    pub rx: crate::rxsim::RxReport,
}

/// Run packets end to end: transmit pipeline at A, `propagation` of
/// fibre, receive pipeline at B.
pub fn run_e2e(
    tx_cfg: &TxConfig,
    rx_cfg: &RxConfig,
    packets: &[TxPacket],
    propagation: Duration,
) -> E2eReport {
    run_e2e_faulted(tx_cfg, rx_cfg, packets, propagation, &FaultPlan::NONE, 0).0
}

/// [`run_e2e`] with a seeded [`FaultPlan`] standing between the two
/// adaptors (see [`run_e2e_with`]).
pub fn run_e2e_faulted(
    tx_cfg: &TxConfig,
    rx_cfg: &RxConfig,
    packets: &[TxPacket],
    propagation: Duration,
    plan: &FaultPlan,
    seed: u64,
) -> (E2eReport, LinkFaults) {
    run_e2e_with(
        tx_cfg,
        rx_cfg,
        packets,
        propagation,
        plan,
        seed,
        &mut Observer::default(),
    )
}

/// [`run_e2e`] behind a seeded link [`FaultPlan`] and with an observer
/// attached.
///
/// The transmit pipeline's actual departures pass through the fault
/// process (loss, corruption, duplication, reordering) before becoming
/// the receive pipeline's arrivals; what the link did is returned
/// alongside the report so callers can reconcile the cell ledger across
/// the whole path. `FaultPlan::NONE` reproduces [`run_e2e`] exactly —
/// byte-identical reports, zero RNG draws.
///
/// `obs` observes both pipeline halves on one shared timeline:
/// receive-side events carry wire-arrival clocks, so a single trace
/// stream spans descriptor fetch at A through completion at B (the
/// R-F3 waterfall's raw material), and profiling charges both halves
/// onto one shared clock — the transmit adaptor's resources as `tx.*`, the
/// receive adaptor's as `rx.*` — so a single profile ranks every path
/// resource against the others (the bottleneck table R-O1 uses).
pub fn run_e2e_with(
    tx_cfg: &TxConfig,
    rx_cfg: &RxConfig,
    packets: &[TxPacket],
    propagation: Duration,
    plan: &FaultPlan,
    seed: u64,
    obs: &mut Observer,
) -> (E2eReport, LinkFaults) {
    assert_eq!(
        tx_cfg.aal, rx_cfg.aal,
        "both ends must speak the same adaptation layer"
    );
    let (tx_report, departures) = run_tx_with(tx_cfg, packets, obs);
    let wl = rx_workload_from_departures(tx_cfg.aal, packets, &departures, propagation);
    let (rx_report, completions, lf) = run_rx_with(rx_cfg, &wl, plan, seed, obs);
    (
        assemble_report(packets, tx_report, rx_report, &completions),
        lf,
    )
}

/// Turn the transmit side's cell departures into the receive side's
/// arrival schedule: connection indices assigned per VC, cell counts
/// from the AAL arithmetic, arrival clocks shifted by `propagation`.
fn rx_workload_from_departures(
    aal: AalType,
    packets: &[TxPacket],
    departures: &[crate::txsim::CellDeparture],
    propagation: Duration,
) -> RxWorkload {
    // VC → connection index through the sharded connection table (same
    // assignment order as the old HashMap entry API: first-seen wins).
    let mut conn_of: hni_atm::VcTable<u16> = hni_atm::VcTable::new();
    let pkts: Vec<RxPktMeta> = packets
        .iter()
        .map(|p| {
            let next = conn_of.len() as u16;
            let conn = *conn_of
                .get_or_insert_with(p.vc.cam_key() as u64, || next)
                .expect("unbounded table never refuses")
                .1;
            RxPktMeta {
                conn,
                len: p.len,
                cells: aal_cells(aal, p.len),
            }
        })
        .collect();
    let arrivals: Vec<CellArrival> = departures
        .iter()
        .map(|d| CellArrival {
            at: d.at + propagation,
            pkt: d.pkt,
            is_last: d.is_last,
            corrupted: false,
        })
        .collect();
    RxWorkload { arrivals, pkts }
}

/// Fold the two half-pipeline reports and the per-packet completion
/// clocks into the end-to-end measurement.
fn assemble_report(
    packets: &[TxPacket],
    tx_report: crate::txsim::TxReport,
    rx_report: crate::rxsim::RxReport,
    completions: &[Option<Time>],
) -> E2eReport {
    let mut latency = Summary::new();
    let mut latency_hist = HdrHist::new();
    let mut tail = TailReservoir::paper();
    let mut delivered_octets = 0u64;
    for (i, done) in completions.iter().enumerate() {
        if let Some(t) = done {
            let lat = t.saturating_since(packets[i].arrival);
            latency.record_us(lat);
            latency_hist.record_duration(lat);
            tail.record(packets[i].vc.cam_key(), i as u32, lat, *t);
            delivered_octets += packets[i].len as u64;
        }
    }
    let end = rx_report.finished_at;
    let elapsed = end.saturating_since(Time::ZERO).as_s_f64();
    E2eReport {
        offered: packets.len() as u64,
        delivered: rx_report.delivered_packets,
        latency_us: latency,
        latency_hist,
        tail,
        goodput_bps: if elapsed > 0.0 {
            delivered_octets as f64 * 8.0 / elapsed
        } else {
            0.0
        },
        tx: tx_report,
        rx: rx_report,
    }
}

fn aal_cells(aal: AalType, len: usize) -> usize {
    aal.cells_for_sdu(len).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txsim::greedy_workload;
    use hni_atm::VcId;
    use hni_sonet::LineRate;

    fn paper_pair() -> (TxConfig, RxConfig) {
        (
            TxConfig::paper(LineRate::Oc12),
            RxConfig::paper(LineRate::Oc12),
        )
    }

    #[test]
    fn everything_arrives_unloaded() {
        let (txc, rxc) = paper_pair();
        let r = run_e2e(
            &txc,
            &rxc,
            &greedy_workload(10, 9180, VcId::new(0, 32)),
            Duration::from_us(5),
        );
        assert_eq!(r.delivered, 10);
        assert_eq!(r.rx.failed_packets, 0);
        assert!(r.latency_us.count() == 10);
    }

    #[test]
    fn single_packet_latency_close_to_analytic_total() {
        let (txc, rxc) = paper_pair();
        let prop = Duration::from_us(5);
        let r = run_e2e(
            &txc,
            &rxc,
            &greedy_workload(1, 9180, VcId::new(0, 32)),
            prop,
        );
        let analytic = hni_analysis_total_us(9180, prop);
        let measured = r.latency_us.mean();
        let rel = (measured - analytic).abs() / analytic;
        assert!(
            rel < 0.15,
            "e2e sim {measured} µs vs analytic {analytic} µs"
        );
    }

    /// Recompute the analytic total here rather than depending on
    /// hni-analysis (which depends on this crate).
    fn hni_analysis_total_us(len: usize, prop: Duration) -> f64 {
        use crate::bus::BusConfig;
        use crate::engine::{HwPartition, ProtocolEngine, TaskKind};
        let e = ProtocolEngine::new(25.0, &HwPartition::paper_split());
        let bus = BusConfig::default();
        let cells = AalType::Aal5.cells_for_sdu(len);
        let mut total = e.task_time(TaskKind::TxPacketSetup)
            + e.task_time(TaskKind::TxDmaBurst)
            + bus.burst_time(bus.burst_words(len, 0))
            + e.task_time(TaskKind::TxCellSegment)
            + LineRate::Oc12.cell_slot_time() * cells as u64
            + prop
            + e.task_time(TaskKind::RxCellEnqueue)
            + e.task_time(TaskKind::RxPacketValidate)
            + e.task_time(TaskKind::RxPacketComplete);
        for b in 0..bus.bursts_for(len) {
            total += e.task_time(TaskKind::RxDmaBurst) + bus.burst_time(bus.burst_words(len, b));
        }
        total.as_us_f64()
    }

    #[test]
    fn propagation_adds_linearly() {
        let (txc, rxc) = paper_pair();
        let near = run_e2e(
            &txc,
            &rxc,
            &greedy_workload(1, 4096, VcId::new(0, 32)),
            Duration::from_us(5),
        );
        let far = run_e2e(
            &txc,
            &rxc,
            &greedy_workload(1, 4096, VcId::new(0, 32)),
            Duration::from_ms(5),
        );
        let delta = far.latency_us.mean() - near.latency_us.mean();
        assert!((delta - 4995.0).abs() < 1.0, "delta {delta}");
    }

    #[test]
    fn latency_under_load_exceeds_unloaded() {
        let (txc, rxc) = paper_pair();
        let unloaded = run_e2e(
            &txc,
            &rxc,
            &greedy_workload(1, 9180, VcId::new(0, 32)),
            Duration::ZERO,
        );
        let loaded = run_e2e(
            &txc,
            &rxc,
            &greedy_workload(40, 9180, VcId::new(0, 32)),
            Duration::ZERO,
        );
        // Queueing: the mean latency of a deep backlog is far above one
        // packet's pipeline latency (packets wait for the link).
        assert!(
            loaded.latency_us.mean() > 3.0 * unloaded.latency_us.mean(),
            "loaded {} vs unloaded {}",
            loaded.latency_us.mean(),
            unloaded.latency_us.mean()
        );
        // And the max is near the whole transfer duration.
        assert!(loaded.latency_us.max() > 10.0 * unloaded.latency_us.mean());
    }

    #[test]
    fn faultless_plan_reproduces_clean_e2e_exactly() {
        let (txc, rxc) = paper_pair();
        let pkts = greedy_workload(12, 9180, VcId::new(0, 32));
        let clean = run_e2e(&txc, &rxc, &pkts, Duration::from_us(5));
        let (faulted, lf) =
            run_e2e_faulted(&txc, &rxc, &pkts, Duration::from_us(5), &FaultPlan::NONE, 1);
        assert_eq!(lf.rng_draws, 0, "faultless path must not touch the RNG");
        assert_eq!(format!("{clean:?}"), format!("{faulted:?}"));
    }

    #[test]
    fn faulted_e2e_loses_frames_and_reconciles() {
        let (txc, rxc) = paper_pair();
        let pkts = greedy_workload(40, 9180, VcId::new(0, 32));
        let (r, lf) = run_e2e_faulted(
            &txc,
            &rxc,
            &pkts,
            Duration::from_us(5),
            &FaultPlan::loss(0.01),
            7,
        );
        assert!(lf.dropped > 0, "1% loss over 40 jumbo frames should hit");
        assert!(r.delivered < r.offered);
        assert_eq!(r.delivered + r.rx.failed_packets, r.offered);
        assert!(
            r.rx.ledger.reconciles(),
            "cell ledger must balance: {:?}",
            r.rx.ledger
        );
    }

    #[test]
    fn e2e_conserves_packets_across_vcs() {
        let (txc, rxc) = paper_pair();
        let mut pkts = Vec::new();
        for v in 0..6u16 {
            for i in 0..5usize {
                pkts.push(TxPacket {
                    vc: VcId::new(0, 40 + v),
                    len: 1000 + i * 500,
                    arrival: Time::from_us((v as u64) * 7 + i as u64),
                    pcr: None,
                });
            }
        }
        let r = run_e2e(&txc, &rxc, &pkts, Duration::from_us(25));
        assert_eq!(r.delivered, 30);
        assert_eq!(r.offered, 30);
    }
}
