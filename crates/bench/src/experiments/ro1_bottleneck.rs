//! R-O1 (observability): automatic bottleneck attribution from the
//! cycle-accounting profiler, cross-checked against the closed forms.
//!
//! The throughput experiments (R-F1, R-A2) *predict* which resource
//! governs from the analytic bounds. This experiment derives the same
//! verdict from **measurement alone**: every simulated interval is
//! charged to a `(component, activity)` pair, utilizations are ranked,
//! and the top-ranked resource is declared the bottleneck — then the
//! two routes to the answer are required to agree at every swept point.
//!
//! Two sweeps reproduce the paper's operating-regime story:
//!
//! * **transmit, packet size** — small packets are per-packet-work
//!   (engine) bound; large packets hit the line rate (link bound). The
//!   measured flip must land on the same sizes the analysis puts it.
//! * **receive, engine MIPS** — below the R-A2 minimum the receive
//!   engine saturates first (utilization → 1) with the bus well below
//!   it — the architecture's motivating claim — and above the minimum
//!   the link takes over as the governing resource.

use crate::experiments::rf1_tx_throughput;
use crate::table::{fmt_bps, fmt_pct, Table};
use hni_aal::AalType;
use hni_analysis::throughput::predict_tx;
use hni_atm::VcId;
use hni_core::engine::HwPartition;
use hni_core::rxsim::{run_rx_with, RxConfig, RxWorkload};
use hni_core::txsim::{greedy_workload, run_tx_with, TxConfig};
use hni_sim::FaultPlan;
use hni_sonet::LineRate;
use hni_telemetry::{attribute, Attribution, Component, Observer};

/// Engine speeds swept on the receive side (same grid as R-A2).
pub const MIPS_GRID: [f64; 6] = [12.5, 25.0, 50.0, 100.0, 200.0, 400.0];

/// Collapse a profiled component to the analytic resource axis
/// ("engine" / "bus" / "link") the closed forms rank.
pub fn resource_name(c: Component) -> &'static str {
    match c {
        Component::TxEngine | Component::RxEngine => "engine",
        Component::TxBus | Component::RxBus => "bus",
        Component::TxLink | Component::RxLink => "link",
        Component::TxFifo | Component::RxFifo => "fifo",
        Component::RxPool => "pool",
    }
}

/// Profile one transmit run (paper split, OC-12, greedy backlog of
/// `packets` × `len`-octet packets) and attribute its bottleneck.
pub fn tx_attribution(len: usize, packets: usize) -> Attribution {
    let cfg = TxConfig::paper(LineRate::Oc12);
    let mut obs = Observer::profiling();
    let wl = greedy_workload(packets, len, VcId::new(0, 32));
    let (r, _) = run_tx_with(&cfg, &wl, &mut obs);
    attribute(&obs.snapshot(r.finished_at), r.goodput_bps)
}

/// Profile one receive run at OC-12 line load (4 VCs × `pkts_per_vc`
/// packets of `len` octets) and attribute its bottleneck.
pub fn rx_attribution(
    partition: &HwPartition,
    mips: f64,
    len: usize,
    pkts_per_vc: usize,
) -> Attribution {
    let mut cfg = RxConfig::paper(LineRate::Oc12);
    cfg.partition = *partition;
    cfg.mips = mips;
    let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, 4, pkts_per_vc, len, 1.0);
    let mut obs = Observer::profiling();
    let (r, _, _) = run_rx_with(&cfg, &wl, &FaultPlan::NONE, 0, &mut obs);
    attribute(&obs.snapshot(r.run_end), r.goodput_bps)
}

/// One transmit sweep point: measured attribution vs analytic verdict.
pub struct TxPoint {
    /// Packet size, octets.
    pub len: usize,
    /// Measured bottleneck (top-ranked utilization), as a resource name.
    pub measured: &'static str,
    /// Its utilization.
    pub utilization: f64,
    /// Implied goodput ceiling from the attribution.
    pub ceiling_bps: f64,
    /// The analytic bound's verdict for the same point.
    pub analytic: &'static str,
}

/// Sweep the transmit attribution across the R-F1 packet sizes.
pub fn sweep_tx(packets: usize) -> Vec<TxPoint> {
    let cfg = TxConfig::paper(LineRate::Oc12);
    rf1_tx_throughput::SIZES
        .iter()
        .map(|&len| {
            let a = tx_attribution(len, packets);
            let top = a.ranked.first().expect("profiled run charges components");
            let p = predict_tx(
                len,
                &cfg.partition,
                cfg.mips,
                &cfg.bus,
                LineRate::Oc12,
                cfg.aal,
            );
            TxPoint {
                len,
                measured: resource_name(top.component),
                utilization: top.utilization,
                ceiling_bps: top.ceiling_bps,
                analytic: p.bottleneck,
            }
        })
        .collect()
}

/// One receive sweep point: full per-resource utilizations.
pub struct RxPoint {
    /// Partition name.
    pub partition: &'static str,
    /// Engine MIPS.
    pub mips: f64,
    /// Measured bottleneck resource name.
    pub measured: &'static str,
    /// Engine / bus / link utilizations at this point.
    pub engine_util: f64,
    /// Bus utilization.
    pub bus_util: f64,
    /// Link utilization.
    pub link_util: f64,
}

/// Sweep the receive attribution across partitions × the MIPS grid.
pub fn sweep_rx(pkts_per_vc: usize) -> Vec<RxPoint> {
    let mut out = Vec::new();
    for partition in [HwPartition::all_software(), HwPartition::paper_split()] {
        for &mips in &MIPS_GRID {
            let a = rx_attribution(&partition, mips, 9180, pkts_per_vc);
            let top = a.ranked.first().expect("profiled run charges components");
            let util = |c| a.share(c).map(|s| s.utilization).unwrap_or(0.0);
            out.push(RxPoint {
                partition: partition.name,
                mips,
                measured: resource_name(top.component),
                engine_util: util(Component::RxEngine),
                bus_util: util(Component::RxBus),
                link_util: util(Component::RxLink),
            });
        }
    }
    out
}

/// Render both sweeps plus the headline saturation-order statement.
pub fn run() -> String {
    let mut tx = Table::new([
        "pkt octets",
        "measured bottleneck",
        "utilization",
        "implied ceiling",
        "analytic bound",
    ]);
    for p in sweep_tx(20) {
        tx.row([
            p.len.to_string(),
            p.measured.to_string(),
            fmt_pct(p.utilization),
            fmt_bps(p.ceiling_bps),
            p.analytic.to_string(),
        ]);
    }
    let mut rx = Table::new([
        "partition",
        "MIPS",
        "measured bottleneck",
        "engine util",
        "bus util",
        "link util",
    ]);
    for p in sweep_rx(15) {
        rx.row([
            p.partition.to_string(),
            format!("{:.1}", p.mips),
            p.measured.to_string(),
            fmt_pct(p.engine_util),
            fmt_pct(p.bus_util),
            fmt_pct(p.link_util),
        ]);
    }
    let design = rx_attribution(&HwPartition::paper_split(), 25.0, 9180, 15);
    let eng = design.share(Component::RxEngine).expect("engine charged");
    let bus = design.share(Component::RxBus).expect("bus charged");
    format!(
        "R-O1 — Bottleneck attribution: profiler-measured vs analytic\n\
         (transmit: paper split at OC-12, greedy backlog; receive: OC-12\n\
          line load, 9180-octet packets — measured column is the top-ranked\n\
          utilization from the cycle profiler, no analytic input)\n\n\
         Transmit, by packet size:\n{}\n\
         Receive, by engine speed:\n{}\n\
         Saturation order at the design point (paper split, 25 MIPS): among\n\
         the adaptor's own resources the receive engine saturates first\n\
         ({} utilization), the bus second ({}).\n",
        tx.render(),
        rx.render(),
        fmt_pct(eng.utilization),
        fmt_pct(bus.utilization),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ra2_mips;

    #[test]
    fn tx_measurement_agrees_with_analysis_at_every_size() {
        let pts = sweep_tx(12);
        for p in &pts {
            assert_eq!(
                p.measured, p.analytic,
                "len {}: profiler says {}, analysis says {}",
                p.len, p.measured, p.analytic
            );
        }
        // And the regime flip the narrative quotes is actually present:
        // engine-bound at small sizes, link-bound at large.
        let at = |len: usize| pts.iter().find(|p| p.len == len).unwrap().measured;
        assert_eq!(at(64), "engine");
        assert_eq!(at(256), "engine");
        assert_eq!(at(1024), "link");
        assert_eq!(at(65000), "link");
    }

    #[test]
    fn tx_ceiling_is_utilization_scaled_goodput() {
        let a = tx_attribution(9180, 12);
        let top = a.ranked.first().unwrap();
        let implied = a.goodput_bps / top.utilization;
        assert!((top.ceiling_bps - implied).abs() < 1.0);
        // A bottleneck's ceiling is the tightest of the ranked set.
        for s in &a.ranked {
            assert!(s.ceiling_bps >= top.ceiling_bps - 1.0);
        }
    }

    #[test]
    fn rx_bottleneck_flips_at_the_r_a2_crossovers() {
        let pts = sweep_rx(15);
        let at = |part: &str, mips: f64| {
            pts.iter()
                .find(|p| p.partition == part && p.mips == mips)
                .unwrap()
        };
        // Paper split: analytic minimum is ≈21.2 MIPS (R-A2). Below it
        // the engine is the measured bottleneck; above it the link is.
        let m = ra2_mips::min_mips_rx(&HwPartition::paper_split(), LineRate::Oc12);
        assert!(12.5 < m && m < 25.0, "grid must bracket the minimum: {m}");
        assert_eq!(at("paper-split", 12.5).measured, "engine");
        assert_eq!(at("paper-split", 25.0).measured, "link");
        // All-software: minimum ≈285 MIPS — flip between 200 and 400.
        let m = ra2_mips::min_mips_rx(&HwPartition::all_software(), LineRate::Oc12);
        assert!(200.0 < m && m < 400.0, "grid must bracket the minimum: {m}");
        assert_eq!(at("all-software", 200.0).measured, "engine");
        assert_eq!(at("all-software", 400.0).measured, "link");
    }

    #[test]
    fn starved_engine_saturates_first_bus_second() {
        // The headline machine-checked: at 12.5 MIPS (paper split) the
        // receive engine is pinned at 100% while the bus — downstream
        // of the engine — starves along with everything else. Engine
        // first, bus second.
        let a = rx_attribution(&HwPartition::paper_split(), 12.5, 9180, 15);
        assert_eq!(a.bottleneck(), Some(Component::RxEngine));
        let eng = a.share(Component::RxEngine).unwrap();
        assert!(
            eng.utilization > 0.95,
            "starved engine should be pinned: {}",
            eng.utilization
        );
        // With every packet doomed, delivery DMA never runs: the bus is
        // strictly below the engine (here, entirely idle).
        let bus_util = a
            .share(Component::RxBus)
            .map(|s| s.utilization)
            .unwrap_or(0.0);
        assert!(eng.utilization > bus_util);
    }

    #[test]
    fn healthy_receive_ceilings_rank_engine_tighter_than_bus() {
        // At the design point goodput is nonzero, so the implied
        // ceilings are meaningful: the engine's is tighter than the
        // bus's — same order as the utilizations.
        let a = rx_attribution(&HwPartition::paper_split(), 25.0, 9180, 15);
        let eng = a.share(Component::RxEngine).unwrap();
        let bus = a.share(Component::RxBus).unwrap();
        assert!(a.goodput_bps > 0.0);
        assert!(eng.ceiling_bps < bus.ceiling_bps);
    }

    #[test]
    fn healthy_receive_still_ranks_engine_above_bus() {
        // At the design point (25 MIPS, paper split) the link governs,
        // but among the adaptor's own resources the engine still ranks
        // above the bus — the "engine saturates first, bus second" order
        // the architecture was provisioned around.
        let a = rx_attribution(&HwPartition::paper_split(), 25.0, 9180, 15);
        let eng = a.share(Component::RxEngine).unwrap();
        let bus = a.share(Component::RxBus).unwrap();
        assert!(
            eng.utilization > bus.utilization,
            "engine {} vs bus {}",
            eng.utilization,
            bus.utilization
        );
    }
}
