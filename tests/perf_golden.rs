//! Golden guarantees for the perf work: the fast paths may be faster,
//! but they must be *invisible* — same bytes, same reports, no
//! steady-state allocation.
//!
//! 1. The slab segmentation path emits byte-identical cells to the
//!    allocating `Vec<Cell>` path, for AAL5 and AAL3/4 alike.
//! 2. `par_sweep` produces byte-identical results at every worker
//!    count — the parallel report is the serial report.
//! 3. The steady-state segmentation → link → reassembly loop performs
//!    zero heap allocations and zero slab growth after warm-up,
//!    proven by a counting global allocator.
//! 4. One steady-state frame through a byte-exact `Nic` pair allocates
//!    exactly once: the frame `Nic::frame_tick` returns. Through
//!    `Nic::frame_tick_into` and a reused frame buffer it allocates
//!    nothing.
//! 5. With a warm slab and recycled SDU buffers, `aal5::segment_into`
//!    and `Nic::rx_burst` over a 64-way interleaved multi-VC mix
//!    allocate nothing per burst.
//!
//! The allocation counter is per thread (`tests/common/count_alloc.rs`)
//! so the other tests in this binary — which allocate freely on their
//! own harness threads — cannot pollute the zero-alloc window.

use hni_aal::aal34::Aal34Segmenter;
use hni_aal::aal5::{self, Aal5Reassembler};
use hni_atm::{CellRef, CellSlab, VcId};
use hni_bench::experiments::{rf1_tx_throughput, rt3_memory, rt4_pacing};
use hni_bench::par_sweep_with_jobs;
use hni_core::{Nic, NicConfig, NicEvent};
use hni_sim::{Duration, FaultPlan, Link, LinkDelivery, Rng, Time};
use hni_sonet::LineRate;
use hni_telemetry::Observer;
#[path = "common/count_alloc.rs"]
mod count_alloc;
use count_alloc::allocs_during;

#[test]
fn slab_fast_path_byte_identical_to_vec_path() {
    let vc = VcId::new(0, 77);
    let sizes = [1usize, 40, 48, 49, 96, 1500, 9180, 65_000];

    // AAL5: free function, stateless across frames.
    for &len in &sizes {
        let sdu: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
        let vec_cells = aal5::segment(vc, &sdu, 0);
        let mut slab = CellSlab::new();
        let mut refs = Vec::new();
        aal5::segment_into(vc, &sdu, 0, &mut slab, &mut refs);
        assert_eq!(vec_cells.len(), refs.len(), "len {len}");
        for (cell, &r) in vec_cells.iter().zip(&refs) {
            assert_eq!(cell.as_bytes(), slab.get(r).as_bytes(), "len {len}");
        }
    }

    // AAL3/4: the segmenter carries SN/BTag state, so drive two fresh
    // segmenters through the same SDU sequence and diff every cell.
    let mut vec_seg = Aal34Segmenter::new();
    let mut slab_seg = Aal34Segmenter::new();
    let mut slab = CellSlab::new();
    for &len in &sizes {
        let sdu: Vec<u8> = (0..len).map(|i| (i * 13 % 256) as u8).collect();
        let vec_cells = vec_seg.segment(vc, 5, &sdu);
        let mut refs = Vec::new();
        slab_seg.segment_into(vc, 5, &sdu, &mut slab, &mut refs);
        assert_eq!(vec_cells.len(), refs.len(), "len {len}");
        for (cell, &r) in vec_cells.iter().zip(&refs) {
            assert_eq!(cell.as_bytes(), slab.get(r).as_bytes(), "len {len}");
        }
        slab.free_all(&refs);
    }
}

/// Render R-F1 sweep points to a canonical string (full float precision
/// via `{:?}` — any drift at all must show).
fn rf1_fingerprint(points: &[rf1_tx_throughput::Point]) -> String {
    points
        .iter()
        .map(|p| {
            format!(
                "{:?}|{}|{}|{:?}|{:?}|{:?}|{}\n",
                p.rate, p.partition, p.len, p.sim_bps, p.analytic_bps, p.bubble_bps, p.bottleneck
            )
        })
        .collect()
}

#[test]
fn par_sweep_byte_identical_across_worker_counts() {
    // The R-F1 grid through its own jobs-parameterised entry point.
    let serial = rf1_fingerprint(&rf1_tx_throughput::sweep_with_jobs(4, 1));
    for jobs in 2..=4 {
        let par = rf1_fingerprint(&rf1_tx_throughput::sweep_with_jobs(4, jobs));
        assert_eq!(serial, par, "r-f1 sweep diverged at jobs={jobs}");
    }

    // The R-T3 measured-occupancy grid through the generic runner.
    let grid = [(1usize, 1usize), (1, 32), (16, 1), (16, 32)];
    let serial = par_sweep_with_jobs(1, &grid, |&(n, k)| rt3_memory::measured_peak(n, k));
    for jobs in 2..=4 {
        let par = par_sweep_with_jobs(jobs, &grid, |&(n, k)| rt3_memory::measured_peak(n, k));
        assert_eq!(serial, par, "r-t3 grid diverged at jobs={jobs}");
    }

    // The R-T4 pacing pair: float-exact across worker counts.
    let fp = |jobs| {
        par_sweep_with_jobs(jobs, &[false, true], |&pacing| rt4_pacing::measure(pacing))
            .iter()
            .map(|p| {
                format!(
                    "{}|{:?}|{:?}|{:?}\n",
                    p.pacing, p.mean_us, p.sd_us, p.max_us
                )
            })
            .collect::<String>()
    };
    let serial = fp(1);
    for jobs in 2..=4 {
        assert_eq!(serial, fp(jobs), "r-t4 diverged at jobs={jobs}");
    }
}

#[test]
fn telemetry_plane_zero_alloc_in_steady_state() {
    use hni_telemetry::{HdrHist, TopK, TraceSampler, VcMetrics};

    // Histogram: record + quantile + merge never touch the heap (the
    // 64 buckets are inline arrays).
    let mut h = HdrHist::new();
    let mut h2 = HdrHist::new();
    let (_, n) = allocs_during(|| {
        for i in 0..10_000u64 {
            h.record(i * 37 + 1);
            h2.record(i * 91 + 5);
        }
        h.merge(&h2);
        std::hint::black_box(h.quantile(0.99));
        std::hint::black_box(h.pcts());
    });
    assert_eq!(n, 0, "HdrHist allocated {n} times in steady state");

    // Per-VC metrics: the top-K table is sized once at construction;
    // offers — hits, misses, and space-saving evictions alike — are
    // in-place.
    let mut m = VcMetrics::default();
    let (_, n) = allocs_during(|| {
        for i in 0..10_000u64 {
            m.record_cell((i % 4096) as u32, 53);
        }
    });
    assert_eq!(n, 0, "VcMetrics allocated {n} times in steady state");
    let mut k = TopK::new(8);
    let (_, n) = allocs_during(|| {
        for i in 0..10_000u64 {
            k.offer((i % 100) as u32, 1);
        }
    });
    assert_eq!(n, 0, "TopK allocated {n} times under eviction churn");

    // Sampling decisions are pure hashing.
    let s = TraceSampler::new(1024, 42);
    let (_, n) = allocs_during(|| {
        for i in 0..10_000u32 {
            std::hint::black_box(s.keeps(i % 7, i / 13, i));
        }
    });
    assert_eq!(n, 0, "TraceSampler allocated {n} times in steady state");
}

#[test]
fn always_on_metrics_do_not_perturb_the_simulation() {
    // The telemetry plane is observational: every pre-existing report
    // field must be exactly what it was before the histograms and VC
    // counters rode along. Two identical runs agree trivially — the
    // real check is that the metrics-carrying report still satisfies
    // the cross-invariants the seed established.
    let r = rf1_tx_throughput::canonical(&mut Observer::default());
    assert_eq!(
        r.latency_hist.count() as usize,
        20,
        "one histogram sample per completed packet"
    );
    assert_eq!(
        r.vc_cells.shards.total_cells(),
        r.cells_sent,
        "per-VC cell accounting must agree with the simulator's own count"
    );
    assert!(
        (r.latency_hist.mean() / 1e6 - r.packet_latency_us.mean()).abs()
            / r.packet_latency_us.mean()
            < 0.01,
        "histogram mean {} µs vs summary mean {} µs",
        r.latency_hist.mean() / 1e6,
        r.packet_latency_us.mean()
    );
    // And the histogram itself is recorded outside the event loop's
    // timing: re-running produces float-identical goodput.
    let again = rf1_tx_throughput::canonical(&mut Observer::default());
    assert_eq!(r.goodput_bps.to_bits(), again.goodput_bps.to_bits());
    assert_eq!(r.cells_sent, again.cells_sent);
}

#[test]
fn steady_state_e2e_zero_allocations_zero_slab_growth() {
    let vc = VcId::new(0, 32);
    let n_sdus = 4usize;
    let len = 9180usize;
    let cells_per_sdu = hni_aal::AalType::Aal5.cells_for_sdu(len);
    let burst_cells = n_sdus * cells_per_sdu;

    let sdu: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
    let sdus: Vec<&[u8]> = (0..n_sdus).map(|_| sdu.as_slice()).collect();

    let mut slab = CellSlab::with_capacity(burst_cells);
    let mut refs: Vec<_> = Vec::with_capacity(burst_cells);
    let mut deliveries: Vec<LinkDelivery> = Vec::with_capacity(burst_cells);
    let mut done = Vec::with_capacity(n_sdus);
    let mut reasm = Aal5Reassembler::new(65_535, Duration::from_ms(100));
    let mut link = Link::new(622e6, Duration::from_us(10), FaultPlan::NONE, Rng::new(1));

    let round = |slab: &mut CellSlab,
                 refs: &mut Vec<hni_atm::CellRef>,
                 deliveries: &mut Vec<LinkDelivery>,
                 done: &mut Vec<_>,
                 reasm: &mut Aal5Reassembler,
                 link: &mut Link| {
        refs.clear();
        aal5::segment_burst(vc, &sdus, 0, slab, refs);
        deliveries.clear();
        link.send_burst(Time::ZERO, 424, refs.len(), deliveries);
        done.clear();
        reasm.deliver_burst(refs, slab, Time::ZERO, done);
        slab.free_all(refs);
        let mut delivered = 0;
        for r in done.drain(..) {
            let sdu = r.expect("clean path reassembles");
            delivered += 1;
            reasm.recycle(sdu.data);
        }
        delivered
    };

    // Warm-up: fills the slab free list, the reassembler's spare-buffer
    // pool, the link delivery vec and every scratch Vec's capacity.
    for _ in 0..3 {
        let d = round(
            &mut slab,
            &mut refs,
            &mut deliveries,
            &mut done,
            &mut reasm,
            &mut link,
        );
        assert_eq!(d, n_sdus);
    }
    let growth_before = slab.growth_events();
    let high_water = slab.high_water();

    // Steady state: many rounds, zero allocations on this thread, zero
    // slab growth.
    let (_, n) = allocs_during(|| {
        for _ in 0..50 {
            let d = round(
                &mut slab,
                &mut refs,
                &mut deliveries,
                &mut done,
                &mut reasm,
                &mut link,
            );
            assert_eq!(d, n_sdus);
        }
    });
    assert_eq!(n, 0, "steady-state e2e allocated {n} times");
    assert_eq!(
        slab.growth_events(),
        growth_before,
        "slab grew after warm-up"
    );
    assert_eq!(slab.high_water(), high_water, "slab high-water moved");
}

#[test]
fn steady_state_nic_frame_allocates_only_the_returned_frame() {
    // Two Nics back to back at OC-12, 9180-octet SDUs keeping every
    // payload slot full. The transmit queue, framer, aligner, parser,
    // delineator and descrambler all reuse their buffers; the one
    // allocation left is the frame `frame_tick` returns by value.
    let counts = steady_state_nic_frames(106, |a, line| *line = a.frame_tick());
    assert!(
        counts.iter().all(|&n| n == 1),
        "per-frame allocations {counts:?}"
    );
}

#[test]
fn steady_state_nic_frame_into_a_reused_buffer_allocates_nothing() {
    // The same pair with every frame built into the one line buffer.
    let counts = steady_state_nic_frames(106, Nic::frame_tick_into);
    assert!(
        counts.iter().all(|&n| n == 0),
        "per-frame allocations {counts:?}"
    );
}

#[test]
fn steady_state_rx_burst_and_segment_into_allocate_nothing() {
    // 64 SDUs in flight on 1024 open VCs, their cells interleaved
    // round-robin, one cell per SDU per round, into 512-cell bursts; an
    // SDU that runs out is replaced by the next, segmented straight into
    // the slab. Each slot cycles through the simple-IMIX lengths from
    // its own phase and over its own 16 VCs, so the lengths repeat
    // every 15 bursts and the mix has a fixed working set of slab cells
    // and SDU buffers. (Drawn at random, lengths keep setting rare new peaks of
    // buffers in use, each a one-off allocation.) After warm-up, neither
    // segmentation nor `rx_burst` plus `poll`, with delivered buffers
    // recycled, allocates, burst after burst.
    const IN_FLIGHT: usize = 64;
    const BURST: usize = 512;
    let cfg = NicConfig {
        cam_capacity: 1024,
        ..NicConfig::paper(LineRate::Oc12)
    };
    let vcs: Vec<VcId> = (0..1024u16)
        .map(|i| VcId::new(i / 256, 32 + i % 256))
        .collect();
    let mut nic = Nic::new(cfg);
    for &vc in &vcs {
        nic.open_vc(vc).unwrap();
    }
    let sdus: Vec<Vec<u8>> = [40usize, 552, 1500, 44, 576]
        .iter()
        .map(|&len| (0..len).map(|i| (i * 7 % 251) as u8).collect())
        .collect();
    let mut slab = CellSlab::new();
    // Per slot: its cells, the next one to send, and SDUs started.
    let mut slots: Vec<(Vec<CellRef>, usize, usize)> =
        (0..IN_FLIGHT).map(|s| (Vec::new(), 0, s)).collect();
    let mut burst: Vec<CellRef> = Vec::with_capacity(BURST);
    let (mut rr, mut delivered) = (0, 0u64);
    let mut now = Time::ZERO;
    let mut counts = Vec::new();
    for step in 0..300 {
        let mut seg_allocs = 0;
        burst.clear();
        while burst.len() < BURST {
            let (refs, next, started) = &mut slots[rr];
            if *next == refs.len() {
                // Slot `rr` owns VCs rr, rr + 64, …: never two SDUs in
                // flight on one VC.
                let vc = vcs[rr + IN_FLIGHT * (*started % 16)];
                let sdu = &sdus[*started % sdus.len()];
                *started += 1;
                refs.clear();
                *next = 0;
                seg_allocs += allocs_during(|| aal5::segment_into(vc, sdu, 0, &mut slab, refs)).1;
            }
            burst.push(refs[*next]);
            *next += 1;
            rr = (rr + 1) % IN_FLIGHT;
        }
        let (_, rx_allocs) = allocs_during(|| {
            nic.rx_burst(&burst, &slab, now);
            while let Some(ev) = nic.poll() {
                match ev {
                    NicEvent::PacketReceived { data, .. } => {
                        assert!(sdus.contains(&data), "delivered SDU is one that was sent");
                        delivered += 1;
                        nic.recycle_sdu_buffer(data);
                    }
                    other => panic!("clean burst delivered {other:?}"),
                }
            }
        });
        slab.free_all(&burst);
        now += LineRate::Oc12.cell_slot_time().times(BURST as u64);
        if step >= 150 {
            counts.push((seg_allocs, rx_allocs));
        }
    }
    assert!(delivered > 10_000, "the mix must deliver SDUs: {delivered}");
    assert!(
        counts.iter().all(|&c| c == (0, 0)),
        "per-burst (segment_into, rx_burst) allocations {counts:?}"
    );
}

/// Drive `frames` steady-state frames through an OC-12 `Nic` pair kept
/// full of 9180-octet SDUs, `tick` putting each frame of A into the one
/// line buffer B reads. Returns the allocations of each frame, counted
/// after 64 warm-up frames. The SDUs handed to `send` are built outside
/// the counted window (the caller owns them), and delivered SDU buffers
/// go back to B's reassembler.
fn steady_state_nic_frames(
    frames: usize,
    mut tick: impl FnMut(&mut Nic, &mut Vec<u8>),
) -> Vec<u64> {
    let rate = LineRate::Oc12;
    let vc = VcId::new(0, 32);
    let cfg = NicConfig::paper(rate);
    let (mut a, mut b) = (Nic::new(cfg.clone()), Nic::new(cfg));
    a.open_vc(vc).unwrap();
    b.open_vc(vc).unwrap();
    let sdu: Vec<u8> = (0..9180).map(|i| (i % 251) as u8).collect();
    let need = rate.payload_octets_per_frame();
    let mut now = Time::ZERO;
    let mut delivered = 0;
    let mut line = Vec::new();
    for _ in 0..64 {
        if b.tc_receiver().delineator().is_synced() {
            break;
        }
        let line = a.frame_tick();
        b.receive_line_octets(&line, now);
        now += rate.frame_time();
    }
    assert!(b.tc_receiver().delineator().is_synced());
    let mut counts = Vec::new();
    for i in 0..64 + frames {
        let mut ready: Vec<Vec<u8>> = (0..2).map(|_| sdu.clone()).collect();
        let (_, n) = allocs_during(|| {
            while a.tx_backlog_cells() * hni_atm::CELL_SIZE < need {
                a.send(vc, ready.pop().expect("two SDUs cover a frame"), now)
                    .unwrap();
            }
            tick(&mut a, &mut line);
            b.receive_line_octets(&line, now);
            while let Some(ev) = b.poll() {
                match ev {
                    NicEvent::PacketReceived { data, .. } => {
                        assert_eq!(data, sdu);
                        delivered += 1;
                        b.recycle_sdu_buffer(data);
                    }
                    other => panic!("clean line delivered {other:?}"),
                }
            }
        });
        if i >= 64 {
            counts.push(n);
        }
        now += rate.frame_time();
    }
    assert!(delivered > 0, "the pair must deliver SDUs");
    assert_eq!(b.tc_receiver().parser().total_b1_errors(), 0);
    counts
}
