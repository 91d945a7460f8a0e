//! `atm_burst_mix`: many VCs and small SDUs straight into the ATM layer.
//!
//! The benchmark segments seeded AAL5 SDUs with `aal5::segment_into`
//! and hands the cells to one `Nic`'s `rx_burst`. 64 SDUs are in flight
//! at once and their cells interleave round-robin, one cell per SDU per
//! round, as cells of concurrent connections share a link. Each in-flight
//! slot owns 1/64 of the 16,384 open VCs, so no two in-flight SDUs ever
//! share a VC. A step builds one burst (segmenting as slots empty and
//! refill), calls `rx_burst` and drains `poll`. Its events are checked
//! once the step's clock has stopped, and the next burst is built only
//! after that: the loop is closed. The SDU octets are generated before
//! the clock starts, so the step time holds segmentation but not the
//! harness's own input generation or output check. No SONET framing and
//! no scrambling take part.

use crate::gen::{distinct_vcs, Payloads, SduId, SplitMix};
use crate::ledger::Ledger;
use crate::line::{record_events, settle};
use crate::replica::AtmReplica;
use crate::trace::*;
use crate::PassResult;
use hni_aal::aal5;
use hni_atm::{CellRef, CellSlab, VcId};
use hni_core::{Nic, NicConfig, NicEvent};
use hni_sim::Time;
use hni_sonet::LineRate;
use std::collections::VecDeque;
use std::time::Instant;

/// Open VCs.
pub const N_VCS: usize = 16_384;
/// SDUs in flight (interleaved round-robin).
pub const IN_FLIGHT: usize = 64;
/// Cells per `rx_burst` call.
pub const BURST_CELLS: usize = 512;
/// Measured bursts per pass.
pub const BURSTS_PER_PASS: usize = 1500;
/// SDU octets and their relative weights by SDU count: the "simple
/// IMIX" class shares (40, 576 and 1500 octets, 7:4:1), with the two
/// smaller classes split evenly between 40 and 44 and between 552 and
/// 576 octets. `README.md` gives the sources; the even split is this
/// benchmark's choice, not a measured one.
pub const SIZE_MIX: [(usize, u64); 5] = [(40, 7), (44, 7), (552, 4), (576, 4), (1500, 2)];
/// SDUs each slot has generated ahead of a step: a burst takes
/// `BURST_CELLS / IN_FLIGHT` cells from each slot, at least one per SDU.
const READY_PER_SLOT: usize = BURST_CELLS / IN_FLIGHT;

/// The line rate whose cell time paces the receive clock and sets the
/// per-cell budget.
pub const RATE: LineRate = LineRate::Oc12;

struct Slot {
    rng: SplitMix,
    /// SDUs this slot has generated.
    made: u64,
    /// Generated SDUs not yet segmented, oldest first.
    ready: VecDeque<(SduId, Vec<u8>)>,
    /// The cells of the SDU being carried, and the next one to send.
    refs: Vec<CellRef>,
    next: usize,
}

struct Rig {
    b: Nic,
    payloads: Payloads,
    ledger: Ledger,
    slots: Vec<Slot>,
    slab: CellSlab,
    burst: Vec<CellRef>,
    rr: usize,
    /// SDUs segmented in this step, offered to the ledger after it.
    offered: Vec<(SduId, usize)>,
    /// Spent SDU buffers, for reuse.
    spare: Vec<Vec<u8>>,
    now: Time,
    events: Vec<NicEvent>,
    replica: Option<AtmReplica>,
}

fn draw_len(rng: &mut SplitMix) -> usize {
    let mut x = rng.below(SIZE_MIX.iter().map(|&(_, w)| w).sum());
    for &(len, w) in &SIZE_MIX {
        if x < w {
            return len;
        }
        x -= w;
    }
    unreachable!("x is below the sum of the weights")
}

impl Rig {
    fn setup(seed: u64, replicate: bool) -> Result<Rig, String> {
        let cfg = NicConfig {
            cam_capacity: N_VCS,
            ..NicConfig::paper(RATE)
        };
        let vcs = distinct_vcs(seed, N_VCS);
        let mut b = Nic::new(cfg.clone());
        for &vc in &vcs {
            b.open_vc(vc).map_err(|e| format!("open {vc:?}: {e}"))?;
        }
        let slots = (0..IN_FLIGHT)
            .map(|i| Slot {
                rng: SplitMix::new(seed, 0x5107 + i as u64),
                made: 0,
                ready: VecDeque::with_capacity(READY_PER_SLOT),
                refs: Vec::new(),
                next: 0,
            })
            .collect();
        Ok(Rig {
            b,
            payloads: Payloads::new(seed),
            replica: replicate.then(|| AtmReplica::new(&cfg, &vcs)),
            ledger: Ledger::new(vcs),
            slots,
            slab: CellSlab::new(),
            burst: Vec::with_capacity(BURST_CELLS),
            rr: 0,
            offered: Vec::new(),
            spare: Vec::new(),
            now: Time::ZERO,
            events: Vec::new(),
        })
    }

    /// Generate SDUs until every slot has [`READY_PER_SLOT`] ready. SDU
    /// `k` of slot `s` has sequence number `k * IN_FLIGHT + s` and goes to
    /// one of the slot's own VCs, so each VC sees rising sequence numbers.
    fn make_ready(&mut self) {
        for (s, slot) in self.slots.iter_mut().enumerate() {
            while slot.ready.len() < READY_PER_SLOT {
                let vc_index = s + IN_FLIGHT * slot.rng.below((N_VCS / IN_FLIGHT) as u64) as usize;
                let len = draw_len(&mut slot.rng);
                let id = SduId {
                    seq: slot.made * IN_FLIGHT as u64 + s as u64,
                    slot: vc_index as u32,
                };
                slot.made += 1;
                let mut sdu = self.spare.pop().unwrap_or_default();
                self.payloads.fill(id, len, &mut sdu);
                slot.ready.push_back((id, sdu));
            }
        }
    }

    /// Segment slot `s`'s next ready SDU into its cell list.
    fn refill(&mut self, s: usize, tr: &mut Tracer) -> Result<(), String> {
        let slot = &mut self.slots[s];
        let (id, sdu) = slot
            .ready
            .pop_front()
            .ok_or("a burst took more SDUs from one slot than were generated ahead")?;
        let vc: VcId = self.ledger.vc(id.slot);
        let (slab, refs) = (&mut self.slab, &mut slot.refs);
        refs.clear();
        slot.next = 0;
        tr.time(AAL5_SEGMENT, STEP, || {
            aal5::segment_into(vc, &sdu, 0, slab, refs)
        });
        self.offered.push((id, sdu.len()));
        self.spare.push(sdu);
        Ok(())
    }

    /// One burst. With `refill`, exhausted slots take their next SDU;
    /// without, they stay empty (the drain). Returns the step's wall
    /// time (ns, excluding input generation, the output check and the
    /// replica) and the cells carried.
    fn step(&mut self, refill: bool, tr: &mut Tracer) -> Result<(u64, usize), String> {
        if refill {
            self.make_ready();
        }
        self.offered.clear();
        tr.next_step();
        let t0 = Instant::now();
        self.burst.clear();
        let mut empty_in_a_row = 0;
        while self.burst.len() < BURST_CELLS && empty_in_a_row < IN_FLIGHT {
            let s = self.rr;
            self.rr = (self.rr + 1) % IN_FLIGHT;
            if self.slots[s].next == self.slots[s].refs.len() {
                if !refill {
                    empty_in_a_row += 1;
                    continue;
                }
                self.refill(s, tr)?;
            }
            empty_in_a_row = 0;
            let slot = &mut self.slots[s];
            self.burst.push(slot.refs[slot.next]);
            slot.next += 1;
        }
        let (b, burst, slab, now) = (&mut self.b, &self.burst, &self.slab, self.now);
        tr.time(NIC_RX_BURST, STEP, || b.rx_burst(burst, slab, now));
        let events = &mut self.events;
        events.clear();
        tr.time(NIC_POLL, STEP, || {
            while let Some(ev) = b.poll() {
                events.push(ev);
            }
        });
        let wall = t0.elapsed().as_nanos() as u64;

        for &(id, len) in &self.offered {
            self.ledger.offer(id, len);
        }
        record_events(&mut self.ledger, &self.payloads, &self.events)?;
        if let Some(rep) = &mut self.replica {
            let (burst, slab) = (&self.burst, &self.slab);
            rep.receive(burst.len(), |i| slab.get(burst[i]), now, tr, NIC_RX_BURST);
            rep.check_and_clear(&self.events, &format!("at t = {now}"))?;
        }
        for ev in self.events.drain(..) {
            if let NicEvent::PacketReceived { data, .. } = ev {
                self.b.recycle_sdu_buffer(data);
            }
        }
        self.slab.free_all(&self.burst);
        let cells = self.burst.len();
        self.now += RATE.cell_slot_time().times(cells as u64);
        Ok((wall, cells))
    }

    /// Carry the cells of the SDUs in flight, then settle every SDU's fate.
    fn drain(&mut self) -> Result<(), String> {
        let mut off = Tracer::off();
        while self.step(false, &mut off)?.1 > 0 {}
        settle(
            &mut self.b,
            &mut self.ledger,
            &self.payloads,
            &mut self.events,
            self.replica.as_mut(),
            self.now,
        )
    }
}

/// One pass: set up, run `bursts` measured bursts, drain, check.
pub fn pass(seed: u64, bursts: usize, tr: &mut Tracer) -> Result<PassResult, String> {
    let t = Instant::now();
    let mut rig = Rig::setup(seed, tr.enabled())?;
    let setup_s = t.elapsed().as_secs_f64();

    let mut step_ns = Vec::with_capacity(bursts);
    let mut cells = 0;
    for _ in 0..bursts {
        let (ns, n) = rig.step(true, tr)?;
        step_ns.push(ns);
        cells += n;
    }
    let goodput_octets = rig.ledger.delivered_octets();
    let sdus = rig.b.sdus_received();
    let cam_misses = rig.b.unknown_vc_cells();
    rig.drain()?;

    let fates = rig.ledger.fates()?;
    let segmented: u64 = rig
        .slots
        .iter()
        .map(|s| s.made - s.ready.len() as u64)
        .sum();
    if fates.offered != segmented
        || fates.delivered != rig.b.sdus_received()
        || fates.failed != 0
        || fates.receive_error_total() != 0
        || fates.unknown_vc != 0
        || fates.oam_replies != 0
    {
        return Err(format!(
            "clean burst path lost or misrouted SDUs: {fates:?}, received {}",
            rig.b.sdus_received()
        ));
    }
    Ok(PassResult {
        setup_s,
        step_ns,
        cells: cells as f64,
        goodput_octets,
        sdus,
        fates,
        counters: vec![("core.cam_misses", cam_misses as f64)],
        probes_per_lookup: rig.replica.as_ref().map(|r| r.probes_per_lookup()),
    })
}
