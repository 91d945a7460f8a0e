//! The replica: the layer functions a `Nic` composes, called one by one
//! on the same inputs the `Nic`s see, so each layer can be timed on its
//! own. Its outputs — line octets on transmit, `NicEvent`s on receive —
//! must equal the `Nic`s', or the per-layer numbers would describe a
//! different program; the workloads check that after every step.

use crate::trace::*;
use hni_aal::aal5::{self, Aal5Reassembler};
use hni_atm::{
    Cell, CellRef, CellSlab, Delineator, Descrambler, HeaderRepr, OamCell, OamFunction, Pti,
    Scrambler, VcId, CELL_SIZE, HEADER_SIZE,
};
use hni_core::{Cam, CamResult, NicConfig, NicEvent};
use hni_sim::{Duration, Time};
use hni_sonet::{FrameAligner, FrameBuilder, FrameParser, FrameScrambler, LineRate};
use std::collections::VecDeque;

enum Verdict {
    Undecodable,
    Miss(VcId),
    Hit(HeaderRepr),
}

/// ATM-layer receive: CAM lookup, then reassembly and event generation,
/// with the `Nic`'s reassembly-expiry cadence.
pub struct AtmReplica {
    cam: Cam,
    reasm: Aal5Reassembler,
    timeout: Duration,
    last_scan: Time,
    verdicts: Vec<Verdict>,
    /// Events produced since the caller last cleared them.
    pub events: Vec<NicEvent>,
}

impl AtmReplica {
    /// Mirror of a `Nic` built from `cfg` with `vcs` opened in order.
    pub fn new(cfg: &NicConfig, vcs: &[VcId]) -> Self {
        let mut cam = Cam::new(cfg.cam_capacity);
        for (i, &vc) in vcs.iter().enumerate() {
            assert!(cam.insert(vc, i as u16), "replica CAM refused {vc:?}");
        }
        AtmReplica {
            cam,
            reasm: Aal5Reassembler::new(cfg.max_sdu, cfg.reassembly_timeout),
            timeout: cfg.reassembly_timeout,
            last_scan: Time::ZERO,
            verdicts: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Receive cells `cell(0..n)` at `now`, charging the spans to `parent`.
    pub fn receive<'c>(
        &mut self,
        n: usize,
        cell: impl Fn(usize) -> &'c Cell,
        now: Time,
        tr: &mut Tracer,
        parent: u8,
    ) {
        let (cam, verdicts) = (&mut self.cam, &mut self.verdicts);
        verdicts.clear();
        tr.time(CORE_CAM_LOOKUP, parent, || {
            for i in 0..n {
                verdicts.push(match cell(i).header() {
                    Err(_) => Verdict::Undecodable,
                    Ok(h) => match cam.lookup(h.vc()) {
                        CamResult::Miss => Verdict::Miss(h.vc()),
                        CamResult::Hit(_) => Verdict::Hit(h),
                    },
                });
            }
        });
        tr.time(AAL5_REASSEMBLE, parent, || {
            for (i, v) in self.verdicts.iter().enumerate() {
                match v {
                    Verdict::Undecodable => {}
                    Verdict::Miss(vc) => self.events.push(NicEvent::UnknownVc(*vc)),
                    Verdict::Hit(h) if matches!(h.pti, Pti::OamEndToEnd | Pti::OamSegment) => {
                        if let Ok(oam) = OamCell::parse(cell(i)) {
                            if oam.function == OamFunction::Loopback && !oam.loopback_indication {
                                self.events.push(NicEvent::OamLoopbackReply {
                                    vc: h.vc(),
                                    tag: oam.tag,
                                });
                            }
                        }
                    }
                    Verdict::Hit(_) => match self.reasm.push(cell(i), now) {
                        None => {}
                        Some(Ok(sdu)) => self.events.push(NicEvent::PacketReceived {
                            vc: sdu.vc,
                            mid: sdu.mid,
                            data: sdu.data,
                            uu: sdu.user_to_user,
                        }),
                        Some(Err(f)) => self.events.push(NicEvent::ReceiveError(f)),
                    },
                }
            }
            if self.timeout > Duration::ZERO
                && now.saturating_since(self.last_scan).as_ps() >= self.timeout.as_ps() / 2
            {
                self.last_scan = now;
                for f in self.reasm.expire(now) {
                    self.events.push(NicEvent::ReceiveError(f));
                }
            }
        });
    }

    /// Enforce the reassembly timeout, as `Nic::expire` does.
    pub fn expire(&mut self, now: Time) {
        for f in self.reasm.expire(now) {
            self.events.push(NicEvent::ReceiveError(f));
        }
    }

    /// Compare the events produced with the `Nic`'s, then hand delivered
    /// buffers back to the reassembler as the harness does for the `Nic`.
    pub fn check_and_clear(&mut self, nic_events: &[NicEvent], what: &str) -> Result<(), String> {
        if self.events != nic_events {
            return Err(format!(
                "replica diverged from the receiving Nic {what}: {} replica events vs {} Nic events",
                self.events.len(),
                nic_events.len()
            ));
        }
        for ev in self.events.drain(..) {
            if let NicEvent::PacketReceived { data, .. } = ev {
                self.reasm.recycle(data);
            }
        }
        Ok(())
    }

    /// Mean probe steps per CAM lookup.
    pub fn probes_per_lookup(&self) -> f64 {
        self.cam.table_stats().mean_probes()
    }
}

/// The whole byte path of a `Nic` pair, layer by layer.
pub struct LineReplica {
    rate: LineRate,
    // Transmit.
    slab: CellSlab,
    refs: Vec<CellRef>,
    pending: VecDeque<CellRef>,
    scrambler: Scrambler,
    builder: FrameBuilder,
    pay: Vec<u8>,
    consumed: u64,
    frame_scrambler: FrameScrambler,
    scratch: Vec<u8>,
    // Receive.
    aligner: FrameAligner,
    parser: FrameParser,
    delineator: Delineator,
    descrambler: Descrambler,
    frames: Vec<Vec<u8>>,
    parsed: Vec<Vec<u8>>,
    cells: Vec<Cell>,
    data: Vec<Cell>,
    /// ATM layer and above.
    pub atm: AtmReplica,
}

impl LineReplica {
    /// Mirror of a `Nic` pair built from `cfg` with `vcs` opened.
    pub fn new(cfg: &NicConfig, vcs: &[VcId]) -> Self {
        LineReplica {
            rate: cfg.rate,
            slab: CellSlab::new(),
            refs: Vec::new(),
            pending: VecDeque::new(),
            scrambler: Scrambler::new(),
            builder: FrameBuilder::new(cfg.rate),
            pay: Vec::new(),
            consumed: 0,
            frame_scrambler: FrameScrambler::new(),
            scratch: Vec::new(),
            aligner: FrameAligner::new(cfg.rate),
            parser: FrameParser::new(cfg.rate),
            delineator: Delineator::new().with_idle_cells(),
            descrambler: Descrambler::new(),
            frames: Vec::new(),
            parsed: Vec::new(),
            cells: Vec::new(),
            data: Vec::new(),
            atm: AtmReplica::new(cfg, vcs),
        }
    }

    /// `Nic::send`'s segmentation of `sdu` on `vc`.
    pub fn segment(&mut self, vc: VcId, sdu: &[u8], tr: &mut Tracer) {
        let (slab, refs) = (&mut self.slab, &mut self.refs);
        refs.clear();
        tr.time(AAL5_SEGMENT, NIC_SEND, || {
            aal5::segment_into(vc, sdu, 0, slab, refs)
        });
        self.pending.extend(self.refs.iter().copied());
    }

    /// `Nic::frame_tick`: scramble the cells that fill one frame's
    /// payload (idle cells when none are queued), then build the frame.
    pub fn frame(&mut self, tr: &mut Tracer) -> Vec<u8> {
        let need = self.rate.payload_octets_per_frame();
        let (pay, pending, slab, scrambler) = (
            &mut self.pay,
            &mut self.pending,
            &mut self.slab,
            &mut self.scrambler,
        );
        tr.time(ATM_SCRAMBLE, NIC_FRAME_TICK, || {
            while pay.len() < need {
                let mut bytes = match pending.pop_front() {
                    Some(r) => {
                        let b = *slab.get(r).as_bytes();
                        slab.free(r);
                        b
                    }
                    None => *Cell::idle().as_bytes(),
                };
                scrambler.scramble(&mut bytes[HEADER_SIZE..]);
                pay.extend_from_slice(&bytes);
            }
        });
        self.consumed += need as u64;
        let phase = (self.consumed % CELL_SIZE as u64) as u8;
        let h4 = if phase == 0 {
            0
        } else {
            CELL_SIZE as u8 - phase
        };
        let (builder, pay) = (&mut self.builder, &self.pay);
        let frame = tr.time(SONET_FRAME_BUILD, NIC_FRAME_TICK, || {
            builder.build(&pay[..need], h4)
        });
        self.pay.drain(..need);
        frame
    }

    /// Time the GR-253 frame scrambler alone over a copy of `frame`.
    pub fn time_frame_scramble(&mut self, frame: &[u8], tr: &mut Tracer) {
        self.scratch.clear();
        self.scratch.extend_from_slice(frame);
        let (fs, scratch) = (&mut self.frame_scrambler, &mut self.scratch);
        tr.time(SONET_FRAME_SCRAMBLE, NIC_FRAME_TICK, || {
            fs.reset();
            fs.apply(scratch);
        });
        std::hint::black_box(&self.scratch);
    }

    /// `Nic::receive_line_octets`: align, parse, delineate, descramble,
    /// then the ATM layer.
    pub fn receive(&mut self, octets: &[u8], now: Time, tr: &mut Tracer) {
        let (aligner, frames) = (&mut self.aligner, &mut self.frames);
        frames.clear();
        tr.time(SONET_ALIGN, NIC_RECEIVE, || aligner.push(octets, frames));
        let (parser, parsed) = (&mut self.parser, &mut self.parsed);
        let frames = &self.frames;
        parsed.clear();
        tr.time(SONET_FRAME_PARSE, NIC_RECEIVE, || {
            for f in frames {
                // A frame failing its overhead checks is skipped; the
                // delineator sees a gap, as in `TcReceiver`.
                if let Ok(p) = parser.parse(f) {
                    parsed.push(p.payload);
                }
            }
        });
        let (delineator, cells, parsed) = (&mut self.delineator, &mut self.cells, &self.parsed);
        cells.clear();
        tr.time(ATM_DELINEATE, NIC_RECEIVE, || {
            for p in parsed {
                delineator.push_slice(p, cells);
            }
        });
        let (descrambler, data) = (&mut self.descrambler, &mut self.data);
        data.clear();
        tr.time(ATM_DESCRAMBLE, NIC_RECEIVE, || {
            for mut c in cells.drain(..) {
                descrambler.descramble(c.payload_mut());
                if !(c.is_idle() || c.is_unassigned()) {
                    data.push(c);
                }
            }
        });
        let data = &self.data;
        self.atm
            .receive(data.len(), |i| &data[i], now, tr, NIC_RECEIVE);
    }
}
