//! Line cards: SONET termination around the fabric.
//!
//! The fabric ([`crate::fabric::Switch`]) moves *cells*; a deployable
//! switch node terminates SONET on every port. A [`LineCard`] pairs a
//! transmission-convergence receiver (frame alignment → delineation →
//! descrambling → idle removal) with a TC transmitter (idle fill,
//! scrambling, framing), and [`SwitchNode`] straps one onto each fabric
//! port — so two host interfaces can be connected *through a real switch
//! hop* at the frame level, label translation and all.

use crate::fabric::{Switch, SwitchConfig};
use hni_sim::Time;
use hni_sonet::{LineRate, TcReceiver, TcTransmitter};
use hni_telemetry::HdrHist;

/// One port's SONET termination.
pub struct LineCard {
    rx: TcReceiver,
    tx: TcTransmitter,
}

impl LineCard {
    /// A line card at `rate`.
    pub fn new(rate: LineRate) -> Self {
        LineCard {
            rx: TcReceiver::new(rate),
            tx: TcTransmitter::new(rate),
        }
    }

    /// Receive-side TC statistics.
    pub fn receiver(&self) -> &TcReceiver {
        &self.rx
    }
    /// Transmit-side TC statistics.
    pub fn transmitter(&self) -> &TcTransmitter {
        &self.tx
    }
}

/// A complete switch node: fabric + one line card per port.
///
/// Drive it like the optical plant would: feed received frames into
/// [`SwitchNode::receive_frame`], and call [`SwitchNode::frame_tick`]
/// every 125 µs per port to obtain the outgoing frame. Cell-slot
/// pacing between the fabric and each output line is handled inside
/// `frame_tick` (one frame's worth of output slots per tick).
pub struct SwitchNode {
    fabric: Switch,
    cards: Vec<LineCard>,
    rate: LineRate,
    // Always-on: per-tick output backlog (cells) across all ports —
    // the queue-depth distribution congestion work is judged by.
    backlog_hist: HdrHist,
}

impl SwitchNode {
    /// A node with `cfg.ports` line cards at `rate`.
    pub fn new(cfg: SwitchConfig, rate: LineRate) -> Self {
        let cards = (0..cfg.ports).map(|_| LineCard::new(rate)).collect();
        SwitchNode {
            fabric: Switch::new(cfg),
            cards,
            rate,
            backlog_hist: HdrHist::new(),
        }
    }

    /// The fabric (routing table, statistics).
    pub fn fabric(&mut self) -> &mut Switch {
        &mut self.fabric
    }
    /// A port's line card.
    pub fn card(&self, port: usize) -> &LineCard {
        &self.cards[port]
    }

    /// Feed one received SONET frame (or any chunk of line octets) into
    /// `port`. Recovered cells go straight into the fabric.
    pub fn receive_frame(&mut self, port: usize, octets: &[u8], now: Time) {
        let mut cells = Vec::new();
        self.cards[port].rx.push_bytes(octets, &mut cells);
        for cell in cells {
            let _ = self.fabric.offer(port, &cell, now);
        }
    }

    /// Produce `port`'s next outgoing 125 µs frame, draining the
    /// fabric's output queue at one cell per payload slot.
    pub fn frame_tick(&mut self, port: usize, now: Time) -> Vec<u8> {
        // One frame carries ⌊payload/53⌋ whole cells plus a fractional
        // carry the TC layer tracks internally; drain enough cells to
        // keep the TC queue primed one frame ahead.
        let per_frame = self.rate.payload_octets_per_frame() / 53 + 1;
        for _ in 0..per_frame {
            if self.cards[port].tx.backlog_cells() > per_frame {
                break;
            }
            match self.fabric.pull(port, now) {
                Some(cell) => {
                    self.cards[port].tx.push_cell(&cell);
                }
                None => break,
            }
        }
        // Always-on backlog distribution: one sample per tick, O(1),
        // no allocation.
        self.backlog_hist.record(self.output_backlog(port) as u64);
        self.cards[port].tx.pull_frame()
    }

    /// Cells a port's output (fabric queue + TC backlog) still holds.
    pub fn output_backlog(&self, port: usize) -> usize {
        self.fabric.queue_len(port) + self.cards[port].tx.backlog_cells()
    }

    /// Distribution of output backlogs sampled at every frame tick
    /// (all ports pooled): p50/p99 queue depth under load.
    pub fn backlog_hist(&self) -> &HdrHist {
        &self.backlog_hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::RouteEntry;
    use hni_atm::{Cell, HeaderRepr, VcId, PAYLOAD_SIZE};

    #[test]
    fn cells_cross_the_node_with_translated_labels() {
        let rate = LineRate::Oc3;
        let mut node = SwitchNode::new(
            SwitchConfig {
                ports: 2,
                output_queue_cells: 128,
                clp_threshold: 128,
                efci_threshold: 128,
            },
            rate,
        );
        node.fabric().add_route(
            0,
            VcId::new(0, 50),
            RouteEntry {
                out_port: 1,
                out_vc: VcId::new(3, 350),
            },
        );

        // A TC transmitter plays the role of the upstream host interface.
        let mut upstream = TcTransmitter::new(rate);
        // And a TC receiver the downstream one.
        let mut downstream = TcReceiver::new(rate);

        // Warm-up: sync the node's input card to the upstream signal and
        // the downstream receiver to the node's output.
        for _ in 0..14 {
            let f = upstream.pull_frame();
            node.receive_frame(0, &f, Time::ZERO);
            let out = node.frame_tick(1, Time::ZERO);
            let mut sink = Vec::new();
            downstream.push_bytes(&out, &mut sink);
            assert!(sink.is_empty());
        }
        assert!(node.card(0).receiver().delineator().is_synced());
        assert!(downstream.delineator().is_synced());

        // Send 40 cells through.
        for i in 0..40u8 {
            let cell = Cell::new(
                &HeaderRepr::data(VcId::new(0, 50), i % 2 == 0),
                &[i; PAYLOAD_SIZE],
            )
            .unwrap();
            upstream.push_cell(&cell);
        }
        let mut got = Vec::new();
        for _ in 0..6 {
            let f = upstream.pull_frame();
            node.receive_frame(0, &f, Time::ZERO);
            let out = node.frame_tick(1, Time::ZERO);
            downstream.push_bytes(&out, &mut got);
        }
        assert_eq!(got.len(), 40);
        for (i, cell) in got.iter().enumerate() {
            let h = cell.header().unwrap();
            assert_eq!(h.vc(), VcId::new(3, 350), "label must be translated");
            assert_eq!(h.pti.is_last(), i % 2 == 0, "PTI preserved");
            assert!(
                cell.payload().iter().all(|&b| b == i as u8),
                "payload intact"
            );
        }
    }

    #[test]
    fn backlog_hist_samples_every_tick() {
        let rate = LineRate::Oc3;
        let mut node = SwitchNode::new(
            SwitchConfig {
                ports: 2,
                output_queue_cells: 128,
                clp_threshold: 128,
                efci_threshold: 128,
            },
            rate,
        );
        assert_eq!(node.backlog_hist().count(), 0);
        node.frame_tick(0, Time::ZERO);
        node.frame_tick(1, Time::ZERO);
        assert_eq!(node.backlog_hist().count(), 2, "one sample per tick");
        assert_eq!(node.backlog_hist().max(), 0, "idle node has no backlog");
    }

    #[test]
    fn unrouted_traffic_dies_in_the_node() {
        let rate = LineRate::Oc3;
        let mut node = SwitchNode::new(
            SwitchConfig {
                ports: 2,
                output_queue_cells: 16,
                clp_threshold: 16,
                efci_threshold: 16,
            },
            rate,
        );
        let mut upstream = TcTransmitter::new(rate);
        for _ in 0..14 {
            let f = upstream.pull_frame();
            node.receive_frame(0, &f, Time::ZERO);
        }
        let cell = Cell::new(
            &HeaderRepr::data(VcId::new(0, 99), false),
            &[1; PAYLOAD_SIZE],
        )
        .unwrap();
        upstream.push_cell(&cell);
        for _ in 0..2 {
            let f = upstream.pull_frame();
            node.receive_frame(0, &f, Time::ZERO);
        }
        assert_eq!(node.fabric.unroutable(), 1);
        assert_eq!(node.output_backlog(1), 0);
    }
}
