//! Structured trace records for cell- and packet-lifecycle events.

use hni_sim::Time;

/// Sentinel for "no id": packs `u32::MAX` so `TraceEvent` stays `Copy`
/// and fixed-size without `Option` padding.
pub const NO_ID: u32 = u32::MAX;

/// A pipeline stage boundary. Names are hierarchical, mirroring the
/// metric naming scheme (`tx.seg`, `rx.reasm.append`, `host.cq.push`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Transmit descriptor fetched / packet arrival at the interface.
    TxDescriptor,
    /// Engine per-packet transmit setup.
    TxSetup,
    /// One transmit DMA burst (engine part + bus occupancy) finished.
    TxDmaBurst,
    /// Per-cell segmentation + payload CRC + HEC generation.
    TxSegment,
    /// Cell admitted into the output FIFO (arg = occupancy after).
    TxFifoEnqueue,
    /// Cell handed to the framer — on the wire (arg = occupancy after).
    TxFramer,
    /// Per-packet transmit close-out (trailer store, descriptor update).
    TxComplete,
    /// Cell arrival at the receive interface.
    RxCellArrive,
    /// Cell admitted into the input FIFO (arg = occupancy after).
    RxFifoEnqueue,
    /// Cell lost to input-FIFO overrun.
    RxFifoDrop,
    /// HEC verification of a received cell.
    RxHec,
    /// CAM / VCI lookup of a received cell.
    RxCamLookup,
    /// Bundled per-cell receive engine work (HEC·lookup·enqueue·CRC).
    RxCell,
    /// Cell appended to a reassembly chain (arg = chain length).
    RxReasmAppend,
    /// Cell lost to buffer-pool exhaustion.
    RxPoolDrop,
    /// Cell refused at frame start by Early Packet Discard (arg = cells
    /// charged to the discard, always 1 here).
    RxEpdDiscard,
    /// Cell (or, on the triggering cell, the whole stored chain) cut by
    /// Partial Packet Discard (arg = cells charged to the discard).
    RxPpdDiscard,
    /// Straggler cell for an already-resolved frame discarded
    /// (arg = cells charged, always 1).
    RxStaleDiscard,
    /// Stalled reassembly chain purged by the expiry timer
    /// (arg = stored cells discarded with it).
    RxReasmExpire,
    /// End-of-frame validation.
    RxValidate,
    /// End-of-frame validation failed — wrong cell count or corrupt
    /// payload (arg = cells the failed frame had accumulated).
    RxValidateFail,
    /// Reassembly chain completed for delivery.
    RxReasmComplete,
    /// One delivery DMA burst into host memory finished.
    RxDmaBurst,
    /// Completion processing for a delivered packet.
    RxComplete,
    /// Completion-queue push toward the host.
    CompletionPush,
}

impl Stage {
    /// Hierarchical stable name, used in JSONL output and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Stage::TxDescriptor => "tx.descriptor",
            Stage::TxSetup => "tx.setup",
            Stage::TxDmaBurst => "tx.dma",
            Stage::TxSegment => "tx.seg",
            Stage::TxFifoEnqueue => "tx.fifo.enq",
            Stage::TxFramer => "tx.framer",
            Stage::TxComplete => "tx.complete",
            Stage::RxCellArrive => "rx.arrive",
            Stage::RxFifoEnqueue => "rx.fifo.enq",
            Stage::RxFifoDrop => "rx.fifo.drop",
            Stage::RxHec => "rx.hec",
            Stage::RxCamLookup => "rx.cam",
            Stage::RxCell => "rx.cell",
            Stage::RxReasmAppend => "rx.reasm.append",
            Stage::RxPoolDrop => "rx.pool.drop",
            Stage::RxEpdDiscard => "rx.discard.epd",
            Stage::RxPpdDiscard => "rx.discard.ppd",
            Stage::RxStaleDiscard => "rx.discard.stale",
            Stage::RxReasmExpire => "rx.reasm.expire",
            Stage::RxValidate => "rx.validate",
            Stage::RxValidateFail => "rx.validate.fail",
            Stage::RxReasmComplete => "rx.reasm.complete",
            Stage::RxDmaBurst => "rx.dma",
            Stage::RxComplete => "rx.complete",
            Stage::CompletionPush => "host.cq.push",
        }
    }
}

/// Whether an event opens a span, closes one, or stands alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Span start.
    Enter,
    /// Span end.
    Exit,
    /// Point event.
    Instant,
}

impl Phase {
    /// One-letter code used in JSONL output (`B`egin/`E`nd/`I`nstant).
    pub fn code(self) -> char {
        match self {
            Phase::Enter => 'B',
            Phase::Exit => 'E',
            Phase::Instant => 'I',
        }
    }
}

/// One trace record. `Copy` and fixed-size: recording an event never
/// allocates, so tracing is safe on the per-cell steady-state path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub time: Time,
    /// Pipeline stage.
    pub stage: Stage,
    /// Span phase.
    pub phase: Phase,
    /// Packed VC identity (`VcId::cam_key` form), or [`NO_ID`].
    pub vc: u32,
    /// Packet sequence id (workload index), or [`NO_ID`].
    pub pkt: u32,
    /// Cell sequence id, or [`NO_ID`].
    pub cell: u32,
    /// Stage-specific argument (bytes, occupancy, burst index…).
    pub arg: u64,
}

impl TraceEvent {
    fn new(time: Time, stage: Stage, phase: Phase) -> Self {
        TraceEvent {
            time,
            stage,
            phase,
            vc: NO_ID,
            pkt: NO_ID,
            cell: NO_ID,
            arg: 0,
        }
    }

    /// A point event.
    pub fn instant(time: Time, stage: Stage) -> Self {
        Self::new(time, stage, Phase::Instant)
    }

    /// A span start.
    pub fn enter(time: Time, stage: Stage) -> Self {
        Self::new(time, stage, Phase::Enter)
    }

    /// A span end.
    pub fn exit(time: Time, stage: Stage) -> Self {
        Self::new(time, stage, Phase::Exit)
    }

    /// Attach a packed VC identity.
    pub fn vc(mut self, vc: u32) -> Self {
        self.vc = vc;
        self
    }

    /// Attach a packet sequence id.
    pub fn pkt(mut self, pkt: usize) -> Self {
        self.pkt = pkt as u32;
        self
    }

    /// Attach a cell sequence id.
    pub fn cell(mut self, cell: u64) -> Self {
        self.cell = cell as u32;
        self
    }

    /// Attach a stage-specific argument.
    pub fn arg(mut self, arg: u64) -> Self {
        self.arg = arg;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let ev = TraceEvent::instant(Time::from_ns(5), Stage::TxFramer)
            .vc(7)
            .pkt(3)
            .cell(11)
            .arg(42);
        assert_eq!(ev.time, Time::from_ns(5));
        assert_eq!(ev.stage, Stage::TxFramer);
        assert_eq!(ev.phase, Phase::Instant);
        assert_eq!((ev.vc, ev.pkt, ev.cell, ev.arg), (7, 3, 11, 42));
    }

    #[test]
    fn event_is_small_and_copy() {
        // Fixed-size guard: the per-cell path records these by value.
        assert!(core::mem::size_of::<TraceEvent>() <= 40);
        let a = TraceEvent::enter(Time::ZERO, Stage::TxSetup);
        let b = a; // Copy
        assert_eq!(a, b);
    }

    #[test]
    fn stage_names_are_unique_and_hierarchical() {
        use std::collections::BTreeSet;
        let all = [
            Stage::TxDescriptor,
            Stage::TxSetup,
            Stage::TxDmaBurst,
            Stage::TxSegment,
            Stage::TxFifoEnqueue,
            Stage::TxFramer,
            Stage::TxComplete,
            Stage::RxCellArrive,
            Stage::RxFifoEnqueue,
            Stage::RxFifoDrop,
            Stage::RxHec,
            Stage::RxCamLookup,
            Stage::RxCell,
            Stage::RxReasmAppend,
            Stage::RxPoolDrop,
            Stage::RxEpdDiscard,
            Stage::RxPpdDiscard,
            Stage::RxStaleDiscard,
            Stage::RxReasmExpire,
            Stage::RxValidate,
            Stage::RxValidateFail,
            Stage::RxReasmComplete,
            Stage::RxDmaBurst,
            Stage::RxComplete,
            Stage::CompletionPush,
        ];
        let names: BTreeSet<&str> = all.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), all.len(), "duplicate stage name");
        for n in names {
            assert!(n.contains('.'), "{n} not hierarchical");
        }
    }
}
