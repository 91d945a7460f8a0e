//! Property-based tests for the host-interface core.

use hni_aal::AalType;
use hni_atm::VcId;
use hni_core::bufpool::{BufferPool, PoolConfig};
use hni_core::engine::HwPartition;
use hni_core::rxsim::{run_rx, RxConfig, RxWorkload};
use hni_core::txsim::{run_tx, TxConfig, TxPacket};
use hni_sim::{Duration, Time};
use hni_sonet::LineRate;
use proptest::prelude::*;

fn arb_partition() -> impl Strategy<Value = HwPartition> {
    prop_oneof![
        Just(HwPartition::all_software()),
        Just(HwPartition::paper_split()),
        Just(HwPartition::full_hardware()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Transmit conservation: every offered packet is sent exactly once,
    /// with exactly the AAL's cell count, under any workload/partition.
    #[test]
    fn tx_conservation(
        lens in proptest::collection::vec(0usize..20_000, 1..12),
        partition in arb_partition(),
        n_vcs in 1u16..5,
        pacing in any::<bool>(),
    ) {
        let mut cfg = TxConfig::paper(LineRate::Oc12);
        cfg.partition = partition;
        cfg.pacing = pacing;
        let packets: Vec<TxPacket> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| TxPacket {
                vc: VcId::new(0, 32 + (i as u16 % n_vcs)),
                len,
                arrival: Time::from_us(i as u64 * 3),
                pcr: if pacing { Some(200_000.0) } else { None },
            })
            .collect();
        let r = run_tx(&cfg, &packets);
        prop_assert_eq!(r.packets_sent, packets.len() as u64);
        let expected_cells: usize = lens
            .iter()
            .map(|&l| AalType::Aal5.cells_for_sdu(l).max(1))
            .sum();
        prop_assert_eq!(r.cells_sent, expected_cells as u64);
        prop_assert_eq!(r.payload_octets, lens.iter().map(|&l| l as u64).sum::<u64>());
        // Utilizations are sane fractions.
        prop_assert!(r.engine_util >= 0.0 && r.engine_util <= 1.0 + 1e-9);
        prop_assert!(r.link_util >= 0.0 && r.link_util <= 1.0 + 1e-9);
        prop_assert!(r.fifo_peak <= cfg.fifo_cells as u64);
    }

    /// Receive conservation: delivered + failed ≤ offered packets, and
    /// every loss is attributed to a counted cause.
    #[test]
    fn rx_conservation(
        n_vcs in 1usize..8,
        pkts_per_vc in 1usize..6,
        len in 0usize..12_000,
        load in 0.2f64..1.0,
        partition in arb_partition(),
    ) {
        let mut cfg = RxConfig::paper(LineRate::Oc12);
        cfg.partition = partition;
        let wl = RxWorkload::uniform(LineRate::Oc12, AalType::Aal5, n_vcs, pkts_per_vc, len, load);
        let r = run_rx(&cfg, &wl);
        let offered = (n_vcs * pkts_per_vc) as u64;
        prop_assert!(r.delivered_packets + r.failed_packets <= offered + r.failed_packets);
        prop_assert!(r.delivered_packets <= offered);
        // A packet that is neither delivered nor failed does not exist
        // when no drops occurred.
        if r.dropped_fifo + r.dropped_pool == 0 {
            prop_assert_eq!(r.delivered_packets, offered);
            prop_assert_eq!(r.failed_packets, 0);
        }
        prop_assert_eq!(r.delivered_octets, r.delivered_packets * len as u64);
        prop_assert!(r.fifo_peak <= cfg.fifo_cells as u64);
        prop_assert!(r.pool_peak <= cfg.pool.total_buffers as u64);
    }

    /// Buffer-pool conservation against a reference count, under random
    /// operation sequences.
    #[test]
    fn pool_reference_model(
        total in 1usize..64,
        k in prop_oneof![Just(1usize), Just(8), Just(32)],
        ops in proptest::collection::vec((0u32..8, any::<bool>()), 1..300),
    ) {
        let mut pool = BufferPool::new(PoolConfig { total_buffers: total, cells_per_buffer: k });
        // Reference: per-chain cell counts.
        let mut chains: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for (chain, is_append) in ops {
            if is_append {
                let cells = chains.get(&chain).copied().unwrap_or(0);
                let buffers_needed_now = if cells % k == 0 { 1 } else { 0 };
                let in_use: usize = chains.values().map(|&c| c.div_ceil(k)).sum();
                let expect_ok = in_use + buffers_needed_now <= total
                    && (buffers_needed_now == 0 || in_use < total);
                let got = pool.append_cell(Time::ZERO, chain);
                prop_assert_eq!(got.is_ok(), expect_ok, "append chain {}", chain);
                if got.is_ok() {
                    *chains.entry(chain).or_insert(0) += 1;
                }
            } else {
                let expected_freed = chains.remove(&chain).map(|c| c.div_ceil(k)).unwrap_or(0);
                prop_assert_eq!(pool.release_chain(Time::ZERO, chain), expected_freed);
            }
            let in_use: usize = chains.values().map(|&c| c.div_ceil(k)).sum();
            prop_assert_eq!(pool.in_use(), in_use);
            for (&c, &cells) in &chains {
                prop_assert_eq!(pool.cells_of(c), cells);
            }
        }
    }

    /// Determinism under arbitrary workloads: two identical runs give
    /// identical reports.
    #[test]
    fn tx_determinism(lens in proptest::collection::vec(1usize..9000, 1..8)) {
        let cfg = TxConfig::paper(LineRate::Oc3);
        let packets: Vec<TxPacket> = lens
            .iter()
            .map(|&len| TxPacket { vc: VcId::new(0, 32), len, arrival: Time::ZERO, pcr: None })
            .collect();
        let a = run_tx(&cfg, &packets);
        let b = run_tx(&cfg, &packets);
        prop_assert_eq!(a.finished_at, b.finished_at);
        prop_assert_eq!(a.engine_busy, b.engine_busy);
        prop_assert_eq!(a.cells_sent, b.cells_sent);
    }

    /// Goodput never exceeds the link payload ceiling.
    #[test]
    fn tx_never_beats_the_link(lens in proptest::collection::vec(1usize..30_000, 1..10)) {
        let cfg = TxConfig::paper(LineRate::Oc12);
        let packets: Vec<TxPacket> = lens
            .iter()
            .map(|&len| TxPacket { vc: VcId::new(0, 32), len, arrival: Time::ZERO, pcr: None })
            .collect();
        let r = run_tx(&cfg, &packets);
        prop_assert!(r.goodput_bps <= LineRate::Oc12.payload_bps() * (48.0 / 53.0) + 1.0);
    }

    /// A paced VC's inter-departure gaps never violate its PCR by more
    /// than one slot of rounding.
    #[test]
    fn pacing_never_violates_pcr(pcr_kcells in 10u64..500, len in 480usize..5000) {
        let mut cfg = TxConfig::paper(LineRate::Oc12);
        cfg.pacing = true;
        let pcr = pcr_kcells as f64 * 1000.0;
        let packets = vec![TxPacket {
            vc: VcId::new(0, 40),
            len,
            arrival: Time::ZERO,
            pcr: Some(pcr),
        }];
        let r = run_tx(&cfg, &packets);
        if let Some(s) = r.interdeparture_us.get(&VcId::new(0, 40)) {
            if s.count() > 0 {
                let min_gap_us = 1e6 / pcr;
                let slot_us = Duration::from_ps(707_799).as_us_f64();
                prop_assert!(
                    s.min() + slot_us + 0.01 >= min_gap_us,
                    "min gap {} vs contract {}",
                    s.min(),
                    min_gap_us
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End-to-end composition conserves packets below saturation and
    /// never invents latency smaller than propagation.
    #[test]
    fn e2e_conservation(
        lens in proptest::collection::vec(1usize..9000, 1..8),
        prop_us in 1u64..1000,
    ) {
        use hni_core::e2esim::run_e2e;
        use hni_core::rxsim::RxConfig;
        let txc = TxConfig::paper(LineRate::Oc12);
        let rxc = RxConfig::paper(LineRate::Oc12);
        let packets: Vec<TxPacket> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| TxPacket {
                vc: VcId::new(0, 32 + (i % 3) as u16),
                len,
                arrival: Time::from_us(i as u64 * 11),
                pcr: None,
            })
            .collect();
        let propagation = Duration::from_us(prop_us);
        let r = run_e2e(&txc, &rxc, &packets, propagation);
        prop_assert_eq!(r.delivered, packets.len() as u64);
        prop_assert_eq!(r.latency_us.count(), packets.len() as u64);
        prop_assert!(
            r.latency_us.min() >= propagation.as_us_f64(),
            "latency {} < propagation {}",
            r.latency_us.min(),
            propagation.as_us_f64()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The byte-exact receive path survives arbitrary line octets:
    /// random noise before and in the middle of the signal, and
    /// well-framed cells whose headers are random (with a valid or a
    /// random HEC, some on the open VC with random PTI/CLP bits). Nothing
    /// panics, and every SDU or unknown-VC report traces back to a data
    /// cell the TC receiver handed up.
    #[test]
    fn arbitrary_line_octets_never_panic_the_receive_path(
        oc12 in any::<bool>(),
        aal34 in any::<bool>(),
        noise in proptest::collection::vec(any::<u8>(), 0..4096),
        headers in proptest::collection::vec(
            (any::<u32>(), any::<bool>(), any::<bool>(), any::<u8>()),
            0..48,
        ),
        sdu_lens in proptest::collection::vec(0usize..3000, 0..4),
        cut in 0usize..20_000,
    ) {
        use hni_atm::{hec, Cell, CELL_SIZE};
        use hni_core::{Nic, NicConfig};

        let rate = if oc12 { LineRate::Oc12 } else { LineRate::Oc3 };
        let mut cfg = NicConfig::paper(rate);
        cfg.aal = if aal34 { AalType::Aal34 } else { AalType::Aal5 };
        let mut a = Nic::new(cfg.clone());
        let mut b = Nic::new(cfg);
        let vc = VcId::new(0, 42);
        a.open_vc(vc).unwrap();
        b.open_vc(vc).unwrap();

        // Noise before any signal: the aligner and delineator hunt on it.
        b.receive_line_octets(&noise, Time::ZERO);
        for _ in 0..12 {
            let f = a.frame_tick();
            b.receive_line_octets(&f, Time::ZERO);
        }
        for &len in &sdu_lens {
            a.send(vc, vec![0x5a; len], Time::ZERO).unwrap();
        }
        for &(raw, on_open_vc, good_hec, fill) in &headers {
            // UNI header: GFC(4) VPI(8) VCI(16) PTI(3) CLP(1).
            let h = if on_open_vc {
                (raw & 0xF000_000F) | (42 << 4)
            } else {
                raw
            };
            let h4 = h.to_be_bytes();
            let mut bytes = [fill; CELL_SIZE];
            bytes[..4].copy_from_slice(&h4);
            bytes[4] = if good_hec { hec::compute(&h4) } else { fill ^ h4[3] };
            a.inject_cell(&Cell::from_bytes(bytes));
        }
        for i in 0..8u64 {
            let now = Time::from_us(125 * i);
            let f = a.frame_tick();
            let (head, tail) = f.split_at(cut % (f.len() + 1));
            b.receive_line_octets(head, now);
            if i == 4 {
                b.receive_line_octets(&noise, now);
            }
            b.receive_line_octets(tail, now);
            while b.poll().is_some() {}
        }
        prop_assert!(
            b.sdus_received() + b.unknown_vc_cells() <= b.tc_receiver().data_cells(),
            "{} SDUs + {} unknown-VC cells from {} data cells",
            b.sdus_received(),
            b.unknown_vc_cells(),
            b.tc_receiver().data_cells()
        );
    }
}
