//! The line workloads: two `Nic`s joined by SONET frames.
//!
//! Nic A's `frame_tick` output is handed to Nic B's
//! `receive_line_octets` in the same process, as a slice of memory —
//! there is no real link and no wire clock. A step is one 125 µs frame:
//! admit sends, `frame_tick`, (damage the octets), `receive_line_octets`
//! and drain `poll`; its events are checked once the step's clock has
//! stopped, before the next step. The loop is closed: the sender admits
//! SDUs only while A's TC backlog is below one frame plus one cell, so
//! every payload slot carries data and the backlog never grows.
//!
//! The SDUs a step may send are generated before its clock starts, so the
//! step time is the program's work and the harness's own input generation
//! and output check are not in it.

use crate::gen::{distinct_vcs, DamageSpec, LineDamage, Payloads, SduId, VARIANTS};
use crate::ledger::Ledger;
use crate::replica::{AtmReplica, LineReplica};
use crate::trace::*;
use crate::PassResult;
use hni_atm::{VcId, CELL_SIZE};
use hni_core::{Nic, NicConfig, NicEvent};
use hni_sim::{Duration, Time};
use hni_sonet::LineRate;
use std::collections::VecDeque;
use std::time::Instant;

/// One line workload.
#[derive(Clone, Copy, Debug)]
pub struct LineSpec {
    /// SONET rate of both interfaces.
    pub rate: LineRate,
    /// AAL5 SDU octets.
    pub sdu_len: usize,
    /// VCs the sender round-robins over.
    pub n_vcs: usize,
    /// Measured frames per pass.
    pub frames_per_pass: usize,
    /// Damage between the NICs; `None` is a clean line.
    pub damage: Option<DamageSpec>,
}

/// `line_bulk_oc12`: the paper's design point.
pub const BULK_OC12: LineSpec = LineSpec {
    rate: LineRate::Oc12,
    sdu_len: 9180,
    n_vcs: 8,
    frames_per_pass: 1000,
    damage: None,
};

/// `line_errored_oc3`: the receive layers' recovery paths.
pub const ERRORED_OC3: LineSpec = LineSpec {
    rate: LineRate::Oc3,
    sdu_len: 1500,
    n_vcs: 16,
    frames_per_pass: 4000,
    damage: Some(DamageSpec {
        burst_every: 8,
        burst_octets: 16,
        slip_every: 97,
    }),
};

/// Idle frames allowed for B to reach frame and cell sync in set-up.
const WARMUP_MAX_FRAMES: usize = 64;
/// How many of a pass's counters, first in the list, count errors or
/// losses: a clean line must leave them all at zero.
const ERROR_COUNTERS: usize = 10;
/// Idle frames carried after A's backlog empties at the end of a pass.
const DRAIN_IDLE_FRAMES: usize = 4;
/// SDUs generated ahead of each step. A step admits at most two: the
/// backlog limit is one frame plus one cell, and an SDU is at least 32
/// cells against 45 slots (OC-3) or 192 against 177 (OC-12).
const READY_SDUS: usize = 4;

/// A `Nic` pair with everything a pass needs.
struct Pair {
    spec: LineSpec,
    a: Nic,
    b: Nic,
    payloads: Payloads,
    ledger: Ledger,
    damage: Option<LineDamage>,
    now: Time,
    next_seq: u64,
    admit_below: usize,
    line: Vec<u8>,
    events: Vec<NicEvent>,
    /// SDUs generated and not yet sent, in sequence order.
    ready: VecDeque<(SduId, Vec<u8>)>,
    sent: Vec<(VcId, SduId)>,
    sdu: Vec<u8>,
    replica: Option<LineReplica>,
}

impl Pair {
    /// Build the pair and warm it up until B reports frame alignment and
    /// cell delineation. With `replicate`, a [`LineReplica`] shadows
    /// every frame from the first.
    fn setup(spec: LineSpec, seed: u64, replicate: bool) -> Result<Pair, String> {
        let cfg = NicConfig::paper(spec.rate);
        let vcs = distinct_vcs(seed, spec.n_vcs);
        let payloads = Payloads::new(seed);
        let mut a = Nic::new(cfg.clone());
        let mut b = Nic::new(cfg.clone());
        for &vc in &vcs {
            a.open_vc(vc)
                .map_err(|e| format!("open {vc:?} at A: {e}"))?;
            b.open_vc(vc)
                .map_err(|e| format!("open {vc:?} at B: {e}"))?;
        }
        let slots = spec.rate.payload_octets_per_frame().div_ceil(CELL_SIZE);
        let mut pair = Pair {
            spec,
            a,
            b,
            payloads,
            replica: replicate.then(|| LineReplica::new(&cfg, &vcs)),
            ledger: Ledger::new(vcs),
            damage: spec.damage.map(|d| LineDamage::new(d, seed)),
            now: Time::ZERO,
            next_seq: 0,
            admit_below: slots + 1,
            line: Vec::new(),
            events: Vec::new(),
            ready: VecDeque::with_capacity(READY_SDUS),
            sent: Vec::new(),
            sdu: Vec::new(),
        };
        let mut off = Tracer::off();
        for _ in 0..WARMUP_MAX_FRAMES {
            pair.step(false, &mut off)?;
            let rx = pair.b.tc_receiver();
            if rx.aligner().is_synced() && rx.delineator().is_synced() {
                return Ok(pair);
            }
        }
        Err(format!(
            "receiver not in sync after {WARMUP_MAX_FRAMES} idle frames"
        ))
    }

    /// Carry one frame from A to B; with `traffic`, admit SDUs first and
    /// damage the octets per the spec. Returns the step's wall time (ns),
    /// which excludes input generation, the output check and the replica.
    fn step(&mut self, traffic: bool, tr: &mut Tracer) -> Result<u64, String> {
        while traffic && self.ready.len() < READY_SDUS {
            let id = SduId {
                seq: self.next_seq,
                slot: (self.next_seq % self.spec.n_vcs as u64) as u32,
            };
            self.next_seq += 1;
            self.ready
                .push_back((id, self.payloads.make(id, self.spec.sdu_len)));
        }
        tr.next_step();
        let t0 = Instant::now();
        let now = self.now;
        self.sent.clear();
        while traffic && self.a.tx_backlog_cells() < self.admit_below {
            let (id, sdu) = self
                .ready
                .pop_front()
                .ok_or("a frame admitted more SDUs than were generated ahead")?;
            let vc = self.ledger.vc(id.slot);
            let a = &mut self.a;
            tr.time(NIC_SEND, STEP, || a.send(vc, sdu, now))
                .map_err(|e| format!("send on {vc:?}: {e}"))?;
            self.sent.push((vc, id));
        }
        let a = &mut self.a;
        let frame = tr.time(NIC_FRAME_TICK, STEP, || a.frame_tick());
        let line: &[u8] = match &mut self.damage {
            Some(d) if traffic => {
                d.apply(&frame, &mut self.line);
                &self.line
            }
            _ => &frame,
        };
        let b = &mut self.b;
        tr.time(NIC_RECEIVE, STEP, || b.receive_line_octets(line, now));
        let events = &mut self.events;
        events.clear();
        tr.time(NIC_POLL, STEP, || {
            while let Some(ev) = b.poll() {
                events.push(ev);
            }
        });
        let wall = t0.elapsed().as_nanos() as u64;

        for &(_, id) in &self.sent {
            self.ledger.offer(id, self.spec.sdu_len);
        }
        record_events(&mut self.ledger, &self.payloads, &self.events)?;
        if let Some(rep) = &mut self.replica {
            for &(vc, id) in &self.sent {
                self.payloads.fill(id, self.spec.sdu_len, &mut self.sdu);
                rep.segment(vc, &self.sdu, tr);
            }
            let rframe = rep.frame(tr);
            if rframe != frame {
                return Err(format!(
                    "replica line octets differ from Nic A's frame_tick at t = {now}"
                ));
            }
            rep.time_frame_scramble(&frame, tr);
            rep.receive(line, now, tr);
            rep.atm
                .check_and_clear(&self.events, &format!("at t = {now}"))?;
        }
        for ev in self.events.drain(..) {
            if let NicEvent::PacketReceived { data, .. } = ev {
                self.b.recycle_sdu_buffer(data);
            }
        }
        self.now += self.spec.rate.frame_time();
        Ok(wall)
    }

    /// Stop admitting SDUs, carry idle frames until A's backlog has
    /// crossed the line, then settle every SDU's fate at B.
    fn drain(&mut self) -> Result<(), String> {
        let mut off = Tracer::off();
        let mut idle = 0;
        while idle < DRAIN_IDLE_FRAMES {
            if self.a.tx_backlog_cells() == 0 {
                idle += 1;
            }
            self.step(false, &mut off)?;
        }
        settle(
            &mut self.b,
            &mut self.ledger,
            &self.payloads,
            &mut self.events,
            self.replica.as_mut().map(|r| &mut r.atm),
            self.now,
        )
    }

    /// Mean CAM probe steps per lookup, when a replica ran.
    fn probes_per_lookup(&self) -> Option<f64> {
        self.replica.as_ref().map(|r| r.atm.probes_per_lookup())
    }

    /// Counters in per-layer metric names: the [`ERROR_COUNTERS`] error
    /// and loss counts, then the receive path's work. The work counts
    /// are pinned on `line_errored_oc3`, where a slower sync recovery
    /// shows as fewer cells or frames passed up.
    fn counters(&self) -> Vec<(&'static str, f64)> {
        let rx = self.b.tc_receiver();
        let d = rx.delineator();
        vec![
            ("tc.idle_cells", self.a.tc_transmitter().idle_cells() as f64),
            ("sonet.b1_errors", rx.parser().total_b1_errors() as f64),
            ("sonet.b2_errors", rx.parser().total_b2_errors() as f64),
            ("sonet.b3_errors", rx.parser().total_b3_errors() as f64),
            ("sonet.frame_errors", rx.frame_errors() as f64),
            ("sonet.align_losses", rx.aligner().losses() as f64),
            ("atm.hec_corrected", d.hec_receiver().corrected() as f64),
            ("atm.hec_discarded", d.hec_receiver().discarded() as f64),
            ("atm.delineation_losses", d.losses() as f64),
            ("core.cam_misses", self.b.unknown_vc_cells() as f64),
            ("sonet.frames_aligned", rx.aligner().frames_emitted() as f64),
            ("atm.cells_delineated", d.delivered() as f64),
        ]
    }
}

/// Check a step's events into the ledger.
pub(crate) fn record_events(
    ledger: &mut Ledger,
    payloads: &Payloads,
    events: &[NicEvent],
) -> Result<(), String> {
    for ev in events {
        match ev {
            NicEvent::PacketReceived { vc, data, .. } => ledger.deliver(payloads, *vc, data)?,
            NicEvent::ReceiveError(f) => ledger.receive_error(f),
            NicEvent::UnknownVc(_) => ledger.unknown_vc(),
            NicEvent::OamLoopbackReply { .. } => ledger.oam_reply(),
        }
    }
    Ok(())
}

/// End a pass once `nic` has been handed its last cell: move past the
/// reassembly timeout, expire every partial frame at `nic` and at its
/// replica, check the events that produces, and count every SDU still
/// outstanding as lost. After this each offered SDU has exactly one fate.
pub(crate) fn settle(
    nic: &mut Nic,
    ledger: &mut Ledger,
    payloads: &Payloads,
    events: &mut Vec<NicEvent>,
    replica: Option<&mut AtmReplica>,
    now: Time,
) -> Result<(), String> {
    let now = now + nic.config().reassembly_timeout + Duration::from_ns(1);
    nic.expire(now);
    events.clear();
    while let Some(ev) = nic.poll() {
        events.push(ev);
    }
    record_events(ledger, payloads, events)?;
    if let Some(rep) = replica {
        rep.expire(now);
        rep.check_and_clear(events, "at the final expiry")?;
    }
    ledger.fail_outstanding();
    Ok(())
}

/// Counter differences `after - before`, by name.
fn counter_deltas(
    before: &[(&'static str, f64)],
    after: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    before
        .iter()
        .zip(after)
        .map(|(&(name, b), &(_, a))| (name, a - b))
        .collect()
}

/// One pass: set up, run the measured frames, drain, check.
pub fn pass(spec: LineSpec, seed: u64, tr: &mut Tracer) -> Result<PassResult, String> {
    let t = Instant::now();
    let mut pair = Pair::setup(spec, seed, tr.enabled())?;
    let setup_s = t.elapsed().as_secs_f64();

    let before = pair.counters();
    let octets0 = pair.ledger.delivered_octets();
    let sdus0 = pair.b.sdus_received();
    let mut step_ns = Vec::with_capacity(spec.frames_per_pass);
    for _ in 0..spec.frames_per_pass {
        step_ns.push(pair.step(true, tr)?);
    }
    let counters = counter_deltas(&before, &pair.counters());
    let goodput_octets = pair.ledger.delivered_octets() - octets0;
    let sdus = pair.b.sdus_received() - sdus0;
    pair.drain()?;

    let fates = pair.ledger.fates()?;
    if fates.offered != pair.a.sdus_sent() || fates.delivered != pair.b.sdus_received() {
        return Err(format!(
            "ledger disagrees with the NICs: {fates:?} vs sent {} received {}",
            pair.a.sdus_sent(),
            pair.b.sdus_received()
        ));
    }
    if counters[0] != ("tc.idle_cells", 0.0) {
        return Err(format!(
            "{:?} in measured frames: the sender let A's backlog run dry",
            counters[0]
        ));
    }
    if spec.damage.is_none() {
        let dirty: Vec<_> = counters[..ERROR_COUNTERS]
            .iter()
            .filter(|&&(_, v)| v != 0.0)
            .collect();
        if !dirty.is_empty()
            || fates.failed != 0
            || fates.receive_error_total() != 0
            || fates.unknown_vc != 0
            || fates.oam_replies != 0
        {
            return Err(format!(
                "clean line reported errors: {dirty:?}, fates {fates:?}"
            ));
        }
    }
    let slots_per_frame = spec.rate.payload_octets_per_frame() as f64 / CELL_SIZE as f64;
    Ok(PassResult {
        setup_s,
        step_ns,
        cells: slots_per_frame * spec.frames_per_pass as f64,
        goodput_octets,
        sdus,
        fates,
        counters,
        probes_per_lookup: pair.probes_per_lookup(),
    })
}

/// The columns of [`ERRORED_PINS`]: a pass's SDU fates, then the
/// counters of its measured frames.
pub const PIN_COLUMNS: [&str; 24] = [
    "offered",
    "delivered",
    "failed",
    "in_flight",
    "delivered_octets",
    "aal5.fail.crc32",
    "aal5.fail.length",
    "aal5.fail.too_long",
    "aal5.fail.malformed",
    "aal5.fail.timeout",
    "unknown_vc_events",
    "oam_replies",
    "tc.idle_cells",
    "sonet.b1_errors",
    "sonet.b2_errors",
    "sonet.b3_errors",
    "sonet.frame_errors",
    "sonet.align_losses",
    "atm.hec_corrected",
    "atm.hec_discarded",
    "atm.delineation_losses",
    "core.cam_misses",
    "sonet.frames_aligned",
    "atm.cells_delineated",
];

/// A pass's values in [`PIN_COLUMNS`] order.
pub fn pin_row(p: &PassResult) -> [u64; 24] {
    let f = &p.fates;
    let mut row = [0; 24];
    let fates = [
        f.offered,
        f.delivered,
        f.failed,
        f.in_flight,
        f.delivered_octets,
    ];
    row[..5].copy_from_slice(&fates);
    row[5..10].copy_from_slice(&f.receive_errors);
    row[10] = f.unknown_vc;
    row[11] = f.oam_replies;
    for (i, &(name, v)) in p.counters.iter().enumerate() {
        debug_assert_eq!(name, PIN_COLUMNS[12 + i]);
        row[12 + i] = v as u64;
    }
    row
}

/// `line_errored_oc3`'s SDU fates and counters for one full pass of each
/// input variant (`seed % VARIANTS`). The damage and the receive paths
/// are deterministic, so a change that loses one more SDU, or regains
/// cell sync one cell later, fails the run instead of reading as a small
/// shift in `sdu_intact_ratio`. Regenerate with `nicbench --pins` only
/// when the receive path's behaviour under damage is meant to change.
#[rustfmt::skip]
pub const ERRORED_PINS: [[u64; 24]; VARIANTS as usize] = [
    [5519, 4555, 964, 0, 6832500, 540, 0, 0, 0, 0, 34, 0, 0, 2028, 5997, 1998, 138, 41, 30, 490, 48, 34, 3858, 163032],
    [5519, 4535, 984, 0, 6802500, 559, 0, 0, 0, 0, 29, 0, 0, 2037, 6076, 2043, 140, 41, 28, 500, 47, 29, 3858, 162949],
    [5519, 4529, 990, 0, 6793500, 545, 0, 0, 0, 0, 31, 0, 0, 2050, 6206, 2049, 146, 41, 31, 471, 48, 31, 3853, 162484],
    [5519, 4545, 974, 0, 6817500, 550, 0, 0, 0, 0, 33, 0, 0, 2024, 6101, 2018, 142, 41, 31, 493, 49, 33, 3859, 162961],
    [5519, 4514, 1005, 0, 6771000, 558, 0, 0, 0, 1, 35, 0, 0, 1989, 6015, 1985, 151, 42, 32, 502, 53, 35, 3855, 162373],
    [5519, 4541, 978, 0, 6811500, 549, 0, 0, 0, 0, 29, 0, 0, 2063, 6060, 2015, 140, 41, 29, 449, 44, 29, 3854, 162930],
    [5519, 4535, 984, 0, 6802500, 546, 0, 0, 0, 0, 34, 0, 0, 2029, 5890, 2023, 145, 41, 35, 471, 47, 34, 3852, 162537],
    [5519, 4535, 984, 0, 6802500, 547, 0, 0, 0, 0, 31, 0, 0, 1996, 6003, 1994, 148, 41, 34, 476, 48, 31, 3858, 162696],
    [5519, 4533, 986, 0, 6799500, 558, 0, 0, 0, 1, 31, 0, 0, 2066, 6245, 2058, 141, 41, 31, 490, 47, 31, 3858, 162917],
    [5519, 4529, 990, 0, 6793500, 555, 0, 0, 0, 0, 47, 0, 0, 1956, 6051, 1951, 143, 41, 48, 529, 54, 47, 3859, 162755],
    [5519, 4513, 1006, 0, 6769500, 553, 0, 0, 0, 0, 33, 0, 0, 2016, 6025, 2015, 151, 42, 27, 506, 50, 33, 3852, 162251],
    [5519, 4538, 981, 0, 6807000, 556, 0, 0, 0, 0, 32, 0, 0, 2022, 6023, 2041, 145, 41, 32, 474, 47, 32, 3858, 162839],
    [5519, 4520, 999, 0, 6780000, 547, 0, 0, 0, 0, 24, 0, 0, 2011, 6044, 2003, 150, 41, 24, 512, 53, 24, 3851, 162194],
    [5519, 4511, 1008, 0, 6766500, 557, 0, 0, 0, 0, 43, 0, 0, 1968, 6082, 1954, 149, 42, 43, 507, 54, 43, 3848, 162030],
    [5519, 4532, 987, 0, 6798000, 551, 0, 0, 0, 0, 39, 0, 0, 2062, 6092, 2049, 143, 41, 38, 492, 49, 39, 3854, 162691],
    [5519, 4522, 997, 0, 6783000, 552, 0, 0, 0, 1, 32, 0, 0, 2002, 6016, 2010, 149, 42, 33, 488, 51, 32, 3856, 162431],
];

/// Check a full `line_errored_oc3` pass of `variant` against its pin.
pub fn check_errored_pins(variant: u64, p: &PassResult) -> Result<(), String> {
    let (got, want) = (pin_row(p), ERRORED_PINS[variant as usize]);
    let diffs: Vec<String> = PIN_COLUMNS
        .iter()
        .zip(got.iter().zip(&want))
        .filter(|(_, (g, w))| g != w)
        .map(|(name, (g, w))| format!("{name} {g} (pinned {w})"))
        .collect();
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "line_errored_oc3 variant {variant} fates or counters changed: {}",
            diffs.join(", ")
        ))
    }
}

/// `line_errored_oc3`'s pin table for the current program, as Rust source.
pub fn errored_pin_table() -> Result<String, String> {
    let mut out = String::from("pub const ERRORED_PINS: [[u64; 24]; VARIANTS as usize] = [\n");
    for v in 0..VARIANTS {
        let p = pass(ERRORED_OC3, v, &mut Tracer::off())?;
        let row: Vec<String> = pin_row(&p).iter().map(u64::to_string).collect();
        out.push_str(&format!("    [{}],\n", row.join(", ")));
    }
    out.push_str("];\n");
    Ok(out)
}
