//! `sim_mix`: the timing simulators' own host cost, with no byte path.
//!
//! A pass makes five simulator calls, each one step:
//! 1. R-F3's canonical `run_e2e` (20 × 9180 octets at OC-12);
//! 2. a seeded small-packet `run_e2e` (64–1500 octets over 64 VCs, OC-3);
//! 3. `run_e2e_faulted` on the same packets under a seeded
//!    Gilbert–Elliott loss plan;
//! 4. `run_transport` on a WAN path (25 ms one way, up to 500 µs of
//!    seeded jitter) with 1% forward cell loss;
//! 5. `run_tx` alone on the small-packet list.
//!
//! The fifth call keeps the step percentiles steady: with five equally
//! frequent call types, p50 and p90 fall inside one call type's spread
//! of times (the third- and fifth-slowest), not on the boundary between
//! two, where they would follow the single slowest sample of one type.
//!
//! The simulators are unvalidated models: there are no reference
//! hardware measurements, so this workload measures their host cost and
//! pins their outputs; it gives no error figure for what they predict.
//!
//! Each call's statistics (offered, delivered, cells, goodput, latency
//! summary, cell ledger) are hashed and compared with a pinned table, so
//! a simulator speedup that changes any simulated number fails the run.
//! The seeded inputs are drawn from one of [`VARIANTS`] variants
//! (`seed % VARIANTS`) so that every run meets a pinned value.

use crate::gen::{mix64, SplitMix, VARIANTS};
use crate::ledger::Fates;
use crate::trace::*;
use crate::PassResult;
use hni_atm::VcId;
use hni_core::{
    greedy_workload, run_e2e, run_e2e_faulted, run_tx, DiscardPolicy, E2eReport, RxConfig,
    TxConfig, TxPacket, TxReport,
};
use hni_sim::faults::{FaultProcess, GeParams};
use hni_sim::{DelayModel, Duration, FaultPlan, Summary, Time};
use hni_sonet::LineRate;
use hni_transport::{run_transport, TransportConfig, TransportReport};
use std::time::Instant;

/// Packets in the small-packet list.
pub const SMALL_PACKETS: usize = 2000;
/// VCs the small packets spread over.
pub const SMALL_VCS: u16 = 64;
/// Propagation between the adaptors in the `run_e2e` calls (R-F3's).
pub const PROPAGATION: Duration = Duration::from_us(5);
/// Simulator calls per pass.
pub const CALLS: usize = 5;

/// Statistics digests of the five calls, per variant, in call order.
/// Regenerate with `nicbench --pins` only when a simulator's output is
/// meant to change.
pub const PINS: [[u64; CALLS]; VARIANTS as usize] = [
    [
        0x48e66f441b46491b,
        0xb0ea3f269d052f57,
        0x4e274aba5d82d52b,
        0x74c7bf3f537f0042,
        0x1d073ef66a513ddf,
    ],
    [
        0x48e66f441b46491b,
        0x84110114c3a57298,
        0x55942020d78da62c,
        0xc1f6977863144394,
        0xc9849f5b7e27fd99,
    ],
    [
        0x48e66f441b46491b,
        0xaf13b4b1ec36f9f1,
        0xee49ae01f375973e,
        0x937ba078169be05b,
        0x141db8180dd58d83,
    ],
    [
        0x48e66f441b46491b,
        0x421831e75439bb3d,
        0x4334289850a4af69,
        0xca201c421ed2d12a,
        0x6496e0f5f6fd7511,
    ],
    [
        0x48e66f441b46491b,
        0x0a8b6496bab7e9ba,
        0x501f4ac32f4f347f,
        0xbe3bee55202b1d43,
        0x017086a6ec7a914e,
    ],
    [
        0x48e66f441b46491b,
        0x6fe184467bd04b3d,
        0xe61ec5e6b60fcf47,
        0x947c5193baf3f643,
        0x6661a9c31025660a,
    ],
    [
        0x48e66f441b46491b,
        0xb891c7953012b982,
        0xe4aaaefc0b126cd1,
        0x479f6ec7857928a7,
        0xf2b2b4d0b154ccad,
    ],
    [
        0x48e66f441b46491b,
        0x555fb80b17bd30c1,
        0x4ff7366e77892939,
        0x0e093bf035aba1dc,
        0x1b984e05d02c3732,
    ],
    [
        0x48e66f441b46491b,
        0x5f03b074f0b97d2a,
        0x6412917f99a1a69e,
        0x2abeee5faa7dea6f,
        0x096069ee709265d8,
    ],
    [
        0x48e66f441b46491b,
        0xf8dea74e85dd0d6b,
        0x0f0fa50549fe17d1,
        0xaad01763e3bfd1f1,
        0x65866e7002235677,
    ],
    [
        0x48e66f441b46491b,
        0x3132f56042b8d872,
        0xcb0def7580bca742,
        0xfcda369be045e832,
        0xb361c4afb6ecc150,
    ],
    [
        0x48e66f441b46491b,
        0x500bdd5b324c7a6b,
        0x8f546d88734f45d7,
        0xd01edd6b3d4795e6,
        0xadab6f3f2b80cb26,
    ],
    [
        0x48e66f441b46491b,
        0xd278367483f42bd1,
        0xc35f61f30bf2c178,
        0x7ed1eede478ccde3,
        0x6014f7991a4a25b6,
    ],
    [
        0x48e66f441b46491b,
        0x4e22229d5552a13f,
        0xfaa2dc51b1771a61,
        0x82fdfbd954403190,
        0x09f0e7b16537823f,
    ],
    [
        0x48e66f441b46491b,
        0x29517e6d007faf04,
        0x0b91dc7c5b0624d1,
        0x5f82d7097695f7e9,
        0x867eb4840e939c78,
    ],
    [
        0x48e66f441b46491b,
        0x826358a3dc26625b,
        0x93aa4686a29fa6f1,
        0x10e1d20a15134236,
        0x7cab16dccefeea1b,
    ],
];

/// Everything a pass needs, built in set-up.
pub struct SimInputs {
    variant: u64,
    oc12: (TxConfig, RxConfig),
    oc3: (TxConfig, RxConfig),
    canonical: Vec<TxPacket>,
    small: Vec<TxPacket>,
    plan: FaultPlan,
    fault_seed: u64,
    transport: TransportConfig,
}

impl SimInputs {
    /// Inputs for `seed`'s variant.
    pub fn new(seed: u64) -> Self {
        let variant = seed % VARIANTS;
        let mut rng = SplitMix::new(variant, 0x5eed_5111);
        let mut at = Time::ZERO;
        let small = (0..SMALL_PACKETS)
            .map(|_| {
                // Mean gap 40 µs: about 0.9 of OC-3's payload rate at the
                // mean size, so queues form and drain.
                at += Duration::from_ns(rng.below(80_000));
                TxPacket {
                    vc: VcId::new(0, 32 + rng.below(u64::from(SMALL_VCS)) as u16),
                    len: 64 + rng.below(1500 - 64 + 1) as usize,
                    arrival: at,
                    pcr: None,
                }
            })
            .collect();
        let plan = FaultPlan {
            loss: FaultProcess::Ge(GeParams {
                p_good_to_bad: 0.002,
                p_bad_to_good: 0.2,
                good: 0.0,
                bad: 0.5,
            }),
            ..FaultPlan::NONE
        };
        let mut t = TransportConfig::paper(LineRate::Oc3);
        t.n_vcs = 2;
        t.frames_per_vc = 16;
        t.frame_len = 512;
        t.window = 8;
        t.policy = DiscardPolicy::Epd {
            threshold: t.pool.total_buffers - 1,
        };
        t.fwd_plan = FaultPlan::loss(0.01);
        t.seed = mix64(variant ^ 0x7a);
        let mut transport = t.with_path(DelayModel::jittered(
            Duration::from_ms(25),
            Duration::from_us(500),
        ));
        transport.max_sim_time = Duration::from_s(600);
        SimInputs {
            variant,
            oc12: (
                TxConfig::paper(LineRate::Oc12),
                RxConfig::paper(LineRate::Oc12),
            ),
            oc3: (
                TxConfig::paper(LineRate::Oc3),
                RxConfig::paper(LineRate::Oc3),
            ),
            canonical: greedy_workload(20, 9180, VcId::new(0, 32)),
            small,
            plan,
            fault_seed: mix64(variant ^ 0xfa),
            transport,
        }
    }
}

/// What one call simulated.
#[derive(Clone, Debug, PartialEq)]
pub struct CallStats {
    /// Packets (frames) offered.
    pub offered: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Cells simulated on the forward path.
    pub cells: u64,
    /// SDU octets delivered.
    pub octets: u64,
    /// The statistics the pin covers, rendered exactly.
    pub rendered: String,
}

impl CallStats {
    /// FNV-1a of the rendered statistics.
    pub fn digest(&self) -> u64 {
        self.rendered.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }
}

fn summary(s: &Summary) -> String {
    format!(
        "n={} mean={:016x} min={:016x} max={:016x}",
        s.count(),
        s.mean().to_bits(),
        s.min().to_bits(),
        s.max().to_bits()
    )
}

fn e2e_stats(r: &E2eReport) -> Result<CallStats, String> {
    if !r.rx.ledger.reconciles() {
        return Err(format!(
            "receive cell ledger does not reconcile: {:?}",
            r.rx.ledger
        ));
    }
    Ok(CallStats {
        offered: r.offered,
        delivered: r.delivered,
        cells: r.tx.cells_sent,
        octets: r.rx.delivered_octets,
        rendered: format!(
            "offered={} delivered={} cells={} goodput={:016x} latency[{}] ledger={:?}",
            r.offered,
            r.delivered,
            r.tx.cells_sent,
            r.goodput_bps.to_bits(),
            summary(&r.latency_us),
            r.rx.ledger
        ),
    })
}

/// The transmit simulator delivers nothing to a host, so only its cells
/// count toward the workload's totals.
fn tx_stats(r: &TxReport) -> CallStats {
    CallStats {
        offered: 0,
        delivered: 0,
        cells: r.cells_sent,
        octets: 0,
        rendered: format!(
            "packets={} cells={} octets={} finished={} goodput={:016x} latency[{}]",
            r.packets_sent,
            r.cells_sent,
            r.payload_octets,
            r.finished_at.as_ps(),
            r.goodput_bps.to_bits(),
            summary(&r.packet_latency_us)
        ),
    }
}

fn transport_stats(r: &TransportReport) -> Result<CallStats, String> {
    if !r.ledger.reconciles() || !r.completed {
        return Err(format!(
            "transport run incomplete or unreconciled: completed={} ledger={:?}",
            r.completed, r.ledger
        ));
    }
    Ok(CallStats {
        offered: r.offered_frames,
        delivered: r.delivered_frames,
        cells: r.ledger.injected,
        octets: r.delivered_octets,
        rendered: format!(
            "offered={} delivered={} attempts={} cells={} goodput={:016x} srtt={:016x} \
             latency[n={} mean={:016x} max={}] ledger={:?}",
            r.offered_frames,
            r.delivered_frames,
            r.attempts,
            r.ledger.injected,
            r.goodput_bps.to_bits(),
            r.srtt_us.to_bits(),
            r.frame_latency.count(),
            r.frame_latency.mean().to_bits(),
            r.frame_latency.max(),
            r.ledger
        ),
    })
}

/// Run the five calls, timing each as one step and recording each as a
/// span. Returns the step times and each call's statistics.
pub fn calls(inp: &SimInputs, tr: &mut Tracer) -> Result<(Vec<u64>, Vec<CallStats>), String> {
    let mut ns = Vec::with_capacity(CALLS);
    let mut stats = Vec::with_capacity(CALLS);
    let mut timed = |id: u8, f: &mut dyn FnMut() -> Result<CallStats, String>| {
        tr.next_step();
        let t = Instant::now();
        let s = tr.time(id, STEP, &mut *f)?;
        ns.push(t.elapsed().as_nanos() as u64);
        stats.push(s);
        Ok::<(), String>(())
    };
    let (tx12, rx12) = &inp.oc12;
    let (tx3, rx3) = &inp.oc3;
    timed(E2ESIM, &mut || {
        e2e_stats(&run_e2e(tx12, rx12, &inp.canonical, PROPAGATION))
    })?;
    timed(E2ESIM, &mut || {
        e2e_stats(&run_e2e(tx3, rx3, &inp.small, PROPAGATION))
    })?;
    timed(E2ESIM_FAULTED, &mut || {
        let (r, _) = run_e2e_faulted(tx3, rx3, &inp.small, PROPAGATION, &inp.plan, inp.fault_seed);
        e2e_stats(&r)
    })?;
    timed(TRANSPORT, &mut || {
        transport_stats(&run_transport(&inp.transport))
    })?;
    timed(TXSIM, &mut || Ok(tx_stats(&run_tx(tx3, &inp.small))))?;
    Ok((ns, stats))
}

/// Check a pass's statistics against the pinned digests.
fn check_pins(variant: u64, stats: &[CallStats]) -> Result<(), String> {
    for (i, s) in stats.iter().enumerate() {
        let want = PINS[variant as usize][i];
        if s.digest() != want {
            return Err(format!(
                "sim_mix variant {variant} call {} statistics changed: digest {:#018x}, \
                 pinned {want:#018x}; statistics: {}",
                i + 1,
                s.digest(),
                s.rendered
            ));
        }
    }
    Ok(())
}

/// Cells each simulator entry point simulated in one pass, for the
/// per-layer ns/cell: `[txsim, e2esim, e2esim_faulted, transport]`.
pub type SimCells = [u64; 4];

/// One pass: build the inputs, make the five calls, check the pins.
pub fn pass(seed: u64, tr: &mut Tracer) -> Result<(PassResult, SimCells), String> {
    let t = Instant::now();
    let inp = SimInputs::new(seed);
    let setup_s = t.elapsed().as_secs_f64();

    let (step_ns, stats) = calls(&inp, tr)?;
    check_pins(inp.variant, &stats)?;

    let sum = |f: fn(&CallStats) -> u64| stats.iter().map(f).sum::<u64>();
    let (offered, delivered) = (sum(|s| s.offered), sum(|s| s.delivered));
    let fates = Fates {
        offered,
        delivered,
        failed: offered - delivered,
        delivered_octets: sum(|s| s.octets),
        ..Fates::default()
    };
    let cells = sum(|s| s.cells);
    Ok((
        PassResult {
            setup_s,
            step_ns,
            cells: cells as f64,
            goodput_octets: fates.delivered_octets,
            sdus: delivered,
            counters: vec![("sim.cells", cells as f64), ("sim.packets", offered as f64)],
            fates,
            probes_per_lookup: None,
        },
        [
            stats[4].cells,
            stats[0].cells + stats[1].cells,
            stats[2].cells,
            stats[3].cells,
        ],
    ))
}

/// The pin table for the current simulators, as Rust source.
pub fn pin_table() -> Result<String, String> {
    let mut out = String::from("pub const PINS: [[u64; CALLS]; VARIANTS as usize] = [\n");
    let mut off = Tracer::off();
    for v in 0..VARIANTS {
        let (_, stats) = calls(&SimInputs::new(v), &mut off)?;
        let row: Vec<String> = stats
            .iter()
            .map(|s| format!("{:#018x}", s.digest()))
            .collect();
        out.push_str(&format!("    [{}],\n", row.join(", ")));
    }
    out.push_str("];\n");
    Ok(out)
}
