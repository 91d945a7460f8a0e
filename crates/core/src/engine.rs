//! The protocol engine: an instruction-cost model of the i960-class RISC
//! microcontroller that runs each direction of the interface.
//!
//! The architecture's central bet is that an **off-the-shelf programmable
//! processor plus a few hardware assists** can keep up with ATM at
//! 622 Mb/s, preserving the flexibility (new AALs, changed policies) that
//! full-custom silicon gives up. Whether the bet pays off is pure
//! arithmetic: each per-cell task costs some instructions; the engine
//! executes a given MIPS; a cell slot at 622 Mb/s payload rate lasts
//! ~708 ns. This module is that arithmetic, made executable.
//!
//! Every fast-path task the interface performs is an entry in
//! [`TaskKind`]; its software cost in instructions is a field of
//! [`TaskCosts`] (a *parameter table*, estimated the way the papers of
//! the era did it — from assembly-level pseudo-code — and overridable);
//! a [`HwPartition`] says which tasks have been moved into dedicated
//! hardware, making them free of engine instructions (the hardware
//! latency is modelled where the hardware lives: CRC in the data path,
//! CAM in [`crate::cam`], DMA in [`crate::bus`]).
//!
//! The same tables drive both the closed-form analysis (`hni-analysis`)
//! and the discrete-event pipeline simulations ([`crate::txsim`],
//! [`crate::rxsim`]) — one source of truth, two evaluation methods.

use hni_sim::Duration;

/// Every engine task on the transmit or receive fast path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TaskKind {
    // ---- transmit side ----
    /// Per packet: fetch & validate the descriptor, set up segmentation
    /// state (lengths, VC, AAL trailer skeleton), program the DMA engine.
    TxPacketSetup,
    /// Per DMA burst: manage the host-memory read (addresses, counts).
    TxDmaBurst,
    /// Per cell: advance segmentation pointers, build the cell header,
    /// track remaining length, decide last-cell handling.
    TxCellSegment,
    /// Per cell: fold 48 payload octets into the frame CRC-32 in
    /// software (zero when the CRC assist owns it).
    TxCellCrc,
    /// Per cell: compute the header HEC in software (zero with assist).
    TxHec,
    /// Per packet: close out — final trailer/CRC store into the last
    /// cell, descriptor ring update, host notification.
    TxPacketComplete,
    // ---- receive side ----
    /// Per cell: verify (and possibly correct) the HEC in software.
    RxHec,
    /// Per cell: map VPI/VCI to a connection record in software (hash
    /// probe); zero when the CAM owns it.
    RxVciLookup,
    /// Per cell: append the payload to the connection's reassembly
    /// buffer chain, update valid bits / byte count.
    RxCellEnqueue,
    /// Per cell: fold the payload into the running CRC-32 in software.
    RxCellCrc,
    /// Per packet: end-of-frame validation — length check, CRC residue,
    /// trailer parse.
    RxPacketValidate,
    /// Per DMA burst: manage the host-memory write.
    RxDmaBurst,
    /// Per packet: completion-ring entry, interrupt posting decision.
    RxPacketComplete,
}

impl TaskKind {
    /// All tasks, in presentation order (transmit first).
    pub const ALL: [TaskKind; 13] = [
        TaskKind::TxPacketSetup,
        TaskKind::TxDmaBurst,
        TaskKind::TxCellSegment,
        TaskKind::TxCellCrc,
        TaskKind::TxHec,
        TaskKind::TxPacketComplete,
        TaskKind::RxHec,
        TaskKind::RxVciLookup,
        TaskKind::RxCellEnqueue,
        TaskKind::RxCellCrc,
        TaskKind::RxPacketValidate,
        TaskKind::RxDmaBurst,
        TaskKind::RxPacketComplete,
    ];

    /// Whether this task runs once per cell (vs per packet or per burst).
    pub fn is_per_cell(self) -> bool {
        matches!(
            self,
            TaskKind::TxCellSegment
                | TaskKind::TxCellCrc
                | TaskKind::TxHec
                | TaskKind::RxHec
                | TaskKind::RxVciLookup
                | TaskKind::RxCellEnqueue
                | TaskKind::RxCellCrc
        )
    }

    /// Whether this task runs once per packet.
    pub fn is_per_packet(self) -> bool {
        matches!(
            self,
            TaskKind::TxPacketSetup
                | TaskKind::TxPacketComplete
                | TaskKind::RxPacketValidate
                | TaskKind::RxPacketComplete
        )
    }

    /// Whether this is a transmit-side task.
    pub fn is_tx(self) -> bool {
        matches!(
            self,
            TaskKind::TxPacketSetup
                | TaskKind::TxDmaBurst
                | TaskKind::TxCellSegment
                | TaskKind::TxCellCrc
                | TaskKind::TxHec
                | TaskKind::TxPacketComplete
        )
    }

    /// The telemetry stage tag this task's engine span is recorded
    /// under, for tasks that map one-to-one onto a pipeline stage.
    /// `None` for tasks folded into a bundled span (the CRC and HEC
    /// assists ride inside the per-cell segmentation / receive spans).
    pub fn trace_stage(self) -> Option<hni_telemetry::Stage> {
        use hni_telemetry::Stage;
        match self {
            TaskKind::TxPacketSetup => Some(Stage::TxSetup),
            TaskKind::TxDmaBurst => Some(Stage::TxDmaBurst),
            TaskKind::TxCellSegment => Some(Stage::TxSegment),
            TaskKind::TxCellCrc | TaskKind::TxHec => None,
            TaskKind::TxPacketComplete => Some(Stage::TxComplete),
            TaskKind::RxHec => Some(Stage::RxHec),
            TaskKind::RxVciLookup => Some(Stage::RxCamLookup),
            TaskKind::RxCellEnqueue | TaskKind::RxCellCrc => None,
            TaskKind::RxPacketValidate => Some(Stage::RxValidate),
            TaskKind::RxDmaBurst => Some(Stage::RxDmaBurst),
            TaskKind::RxPacketComplete => Some(Stage::RxComplete),
        }
    }

    /// Short human-readable label for tables.
    pub fn label(self) -> &'static str {
        match self {
            TaskKind::TxPacketSetup => "tx pkt setup",
            TaskKind::TxDmaBurst => "tx dma burst",
            TaskKind::TxCellSegment => "tx cell segment",
            TaskKind::TxCellCrc => "tx cell crc32",
            TaskKind::TxHec => "tx hec",
            TaskKind::TxPacketComplete => "tx pkt complete",
            TaskKind::RxHec => "rx hec",
            TaskKind::RxVciLookup => "rx vci lookup",
            TaskKind::RxCellEnqueue => "rx cell enqueue",
            TaskKind::RxCellCrc => "rx cell crc32",
            TaskKind::RxPacketValidate => "rx pkt validate",
            TaskKind::RxDmaBurst => "rx dma burst",
            TaskKind::RxPacketComplete => "rx pkt complete",
        }
    }
}

/// Software instruction counts per task — the parameter table the whole
/// evaluation rests on. Estimated at assembly level for a 32-bit RISC
/// with single-cycle ALU ops: loads/stores dominate the list work; the
/// CRC costs assume a byte-at-a-time table loop (≈3 instructions per
/// octet plus loop overhead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskCosts {
    /// Instructions for [`TaskKind::TxPacketSetup`].
    pub tx_packet_setup: u32,
    /// Instructions per DMA burst on transmit.
    pub tx_dma_burst: u32,
    /// Instructions per transmitted cell (segmentation control).
    pub tx_cell_segment: u32,
    /// Instructions per cell of software CRC-32 (48 octets).
    pub tx_cell_crc: u32,
    /// Instructions per cell of software HEC generation.
    pub tx_hec: u32,
    /// Instructions for [`TaskKind::TxPacketComplete`].
    pub tx_packet_complete: u32,
    /// Instructions per cell of software HEC check.
    pub rx_hec: u32,
    /// Instructions per cell of software VCI lookup.
    pub rx_vci_lookup: u32,
    /// Instructions per cell of reassembly list append.
    pub rx_cell_enqueue: u32,
    /// Instructions per cell of software CRC-32 accumulation.
    pub rx_cell_crc: u32,
    /// Instructions for [`TaskKind::RxPacketValidate`].
    pub rx_packet_validate: u32,
    /// Instructions per DMA burst on receive.
    pub rx_dma_burst: u32,
    /// Instructions for [`TaskKind::RxPacketComplete`].
    pub rx_packet_complete: u32,
}

impl Default for TaskCosts {
    fn default() -> Self {
        TaskCosts {
            tx_packet_setup: 60,
            tx_dma_burst: 8,
            tx_cell_segment: 12,
            tx_cell_crc: 150,
            tx_hec: 10,
            tx_packet_complete: 25,
            rx_hec: 12,
            rx_vci_lookup: 25,
            rx_cell_enqueue: 15,
            rx_cell_crc: 150,
            rx_packet_validate: 30,
            rx_dma_burst: 8,
            rx_packet_complete: 40,
        }
    }
}

impl TaskCosts {
    /// Software instruction count for `task`.
    pub fn instructions(&self, task: TaskKind) -> u32 {
        match task {
            TaskKind::TxPacketSetup => self.tx_packet_setup,
            TaskKind::TxDmaBurst => self.tx_dma_burst,
            TaskKind::TxCellSegment => self.tx_cell_segment,
            TaskKind::TxCellCrc => self.tx_cell_crc,
            TaskKind::TxHec => self.tx_hec,
            TaskKind::TxPacketComplete => self.tx_packet_complete,
            TaskKind::RxHec => self.rx_hec,
            TaskKind::RxVciLookup => self.rx_vci_lookup,
            TaskKind::RxCellEnqueue => self.rx_cell_enqueue,
            TaskKind::RxCellCrc => self.rx_cell_crc,
            TaskKind::RxPacketValidate => self.rx_packet_validate,
            TaskKind::RxDmaBurst => self.rx_dma_burst,
            TaskKind::RxPacketComplete => self.rx_packet_complete,
        }
    }
}

/// Which tasks have been moved into dedicated hardware.
///
/// A task in hardware costs the engine zero instructions; its latency is
/// modelled by the hardware component itself (pipelined CRC and HEC
/// assists keep up with the data path by construction; CAM and DMA have
/// their own models).
///
/// Internally a 13-bit set (one bit per [`TaskKind`]), so the partition
/// is `Copy`: simulation configs hand it around by value and per-run
/// engine construction costs nothing — no per-run clone of a task list.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HwPartition {
    hw: u16,
    /// Display name for tables.
    pub name: &'static str,
}

/// The bit assigned to `task` in a partition's task set (declaration
/// order, matching [`TaskKind::ALL`]).
const fn task_bit(task: TaskKind) -> u16 {
    1 << task as u16
}

impl HwPartition {
    /// Everything in engine software — the strawman that shows why
    /// assists exist.
    pub fn all_software() -> Self {
        HwPartition {
            hw: 0,
            name: "all-software",
        }
    }

    /// The architecture's design point: CRC-32, HEC, VCI CAM and the DMA
    /// burst sequencer in hardware; all *control* (segmentation state,
    /// list management, validation, completion) in engine software.
    pub fn paper_split() -> Self {
        HwPartition {
            hw: task_bit(TaskKind::TxCellCrc)
                | task_bit(TaskKind::TxHec)
                | task_bit(TaskKind::RxHec)
                | task_bit(TaskKind::RxCellCrc)
                | task_bit(TaskKind::RxVciLookup)
                | task_bit(TaskKind::TxDmaBurst)
                | task_bit(TaskKind::RxDmaBurst),
            name: "paper-split",
        }
    }

    /// Everything per-cell in hardware; the engine only touches packets.
    /// The upper bound a full-custom datapath would approach.
    pub fn full_hardware() -> Self {
        let hw = TaskKind::ALL
            .into_iter()
            .filter(|t| !t.is_per_packet())
            .fold(0, |acc, t| acc | task_bit(t));
        HwPartition {
            hw,
            name: "full-hardware",
        }
    }

    /// Builder: this partition with `task` additionally in hardware
    /// (for ablation studies walking the design space one assist at a
    /// time). The result is named "custom".
    pub fn plus_hardware(mut self, task: TaskKind) -> Self {
        self.hw |= task_bit(task);
        self.name = "custom";
        self
    }

    /// Is `task` implemented in hardware?
    pub fn in_hardware(&self, task: TaskKind) -> bool {
        self.hw & task_bit(task) != 0
    }

    /// The tasks in hardware, in [`TaskKind::ALL`] order.
    pub fn hardware_tasks(&self) -> impl Iterator<Item = TaskKind> + '_ {
        TaskKind::ALL.into_iter().filter(|&t| self.in_hardware(t))
    }

    /// Engine instructions `task` costs under this partition.
    pub fn engine_instructions(&self, costs: &TaskCosts, task: TaskKind) -> u32 {
        if self.in_hardware(task) {
            0
        } else {
            costs.instructions(task)
        }
    }
}

impl core::fmt::Debug for HwPartition {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HwPartition")
            .field("hw", &self.hardware_tasks().collect::<Vec<_>>())
            .field("name", &self.name)
            .finish()
    }
}

/// The engine itself: a serial processor executing `mips` million
/// instructions per second.
#[derive(Clone, Debug)]
pub struct ProtocolEngine {
    /// Millions of instructions per second the engine sustains.
    pub mips: f64,
    /// The instruction-cost table in force.
    pub costs: TaskCosts,
    /// The hardware/software split in force.
    pub partition: HwPartition,
}

impl ProtocolEngine {
    /// An engine at `mips` with default costs and the given partition.
    /// Takes the partition by reference — constructing an engine per
    /// simulated run copies a small bitmask, nothing more.
    pub fn new(mips: f64, partition: &HwPartition) -> Self {
        assert!(mips > 0.0);
        ProtocolEngine {
            mips,
            costs: TaskCosts::default(),
            partition: *partition,
        }
    }

    /// Time to execute `task` once.
    pub fn task_time(&self, task: TaskKind) -> Duration {
        let instr = self.partition.engine_instructions(&self.costs, task);
        self.instr_time(instr)
    }

    /// Time to execute `instr` instructions.
    pub fn instr_time(&self, instr: u32) -> Duration {
        // instr / (mips · 10⁶ /s) seconds → ps.
        Duration::from_ps(((instr as f64) * 1e6 / self.mips).round() as u64)
    }

    /// Engine instructions consumed per *cell* on the transmit path
    /// (excluding per-packet and per-burst work).
    pub fn tx_per_cell_instructions(&self) -> u32 {
        [
            TaskKind::TxCellSegment,
            TaskKind::TxCellCrc,
            TaskKind::TxHec,
        ]
        .into_iter()
        .map(|t| self.partition.engine_instructions(&self.costs, t))
        .sum()
    }

    /// Engine instructions consumed per *cell* on the receive path.
    pub fn rx_per_cell_instructions(&self) -> u32 {
        [
            TaskKind::RxHec,
            TaskKind::RxVciLookup,
            TaskKind::RxCellEnqueue,
            TaskKind::RxCellCrc,
        ]
        .into_iter()
        .map(|t| self.partition.engine_instructions(&self.costs, t))
        .sum()
    }

    /// Engine instructions consumed per *packet* on transmit (setup +
    /// complete, excluding per-burst DMA management).
    pub fn tx_per_packet_instructions(&self) -> u32 {
        [TaskKind::TxPacketSetup, TaskKind::TxPacketComplete]
            .into_iter()
            .map(|t| self.partition.engine_instructions(&self.costs, t))
            .sum()
    }

    /// Engine instructions consumed per *packet* on receive.
    pub fn rx_per_packet_instructions(&self) -> u32 {
        [TaskKind::RxPacketValidate, TaskKind::RxPacketComplete]
            .into_iter()
            .map(|t| self.partition.engine_instructions(&self.costs, t))
            .sum()
    }

    /// Instructions available per cell slot at the given payload rate —
    /// the budget line every per-cell figure is compared against.
    pub fn instructions_per_slot(&self, slot: Duration) -> f64 {
        self.mips * slot.as_s_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hni_sim::Duration;

    #[test]
    fn per_cell_per_packet_partition_is_complete() {
        for t in TaskKind::ALL {
            let classes = [
                t.is_per_cell(),
                t.is_per_packet(),
                matches!(t, TaskKind::TxDmaBurst | TaskKind::RxDmaBurst),
            ];
            assert_eq!(classes.iter().filter(|&&c| c).count(), 1, "{t:?}");
        }
    }

    #[test]
    fn hardware_tasks_cost_zero() {
        let e = ProtocolEngine::new(25.0, &HwPartition::paper_split());
        assert_eq!(e.task_time(TaskKind::RxCellCrc), Duration::ZERO);
        assert!(e.task_time(TaskKind::RxCellEnqueue) > Duration::ZERO);
    }

    #[test]
    fn task_time_arithmetic() {
        // 25 MIPS → 40 ns per instruction; enqueue = 15 instr = 600 ns.
        let e = ProtocolEngine::new(25.0, &HwPartition::all_software());
        assert_eq!(e.task_time(TaskKind::RxCellEnqueue), Duration::from_ns(600));
    }

    #[test]
    fn partitions_are_ordered_by_cell_cost() {
        let sw = ProtocolEngine::new(25.0, &HwPartition::all_software());
        let split = ProtocolEngine::new(25.0, &HwPartition::paper_split());
        let hw = ProtocolEngine::new(25.0, &HwPartition::full_hardware());
        assert!(sw.rx_per_cell_instructions() > split.rx_per_cell_instructions());
        assert!(split.rx_per_cell_instructions() > hw.rx_per_cell_instructions());
        assert_eq!(hw.rx_per_cell_instructions(), 0);
        assert!(sw.tx_per_cell_instructions() > split.tx_per_cell_instructions());
    }

    #[test]
    fn per_packet_work_never_in_hardware_presets() {
        for p in [
            HwPartition::all_software(),
            HwPartition::paper_split(),
            HwPartition::full_hardware(),
        ] {
            for t in TaskKind::ALL.into_iter().filter(|t| t.is_per_packet()) {
                assert!(!p.in_hardware(t), "{t:?} in {}", p.name);
            }
        }
    }

    #[test]
    fn budget_headline_numbers() {
        // The paper-era headline: a 25 MIPS engine has ~17 instructions
        // per 681.6 ns line-rate cell time at 622 Mb/s.
        let e = ProtocolEngine::new(25.0, &HwPartition::paper_split());
        let budget = e.instructions_per_slot(Duration::from_ps(681_584));
        assert!((budget - 17.04).abs() < 0.01, "{budget}");
        // At 155 Mb/s the same engine has ~68.
        let budget3 = e.instructions_per_slot(Duration::from_ps(2_726_337));
        assert!((budget3 - 68.16).abs() < 0.01, "{budget3}");
    }

    #[test]
    fn split_rx_cell_cost_fits_oc12_budget_but_software_does_not() {
        // The architecture's whole argument, as a test: with assists, the
        // per-cell receive work of a 25 MIPS engine fits in an OC-12 cell
        // slot; all-software doesn't fit even at OC-3.
        let split = ProtocolEngine::new(25.0, &HwPartition::paper_split());
        let sw = ProtocolEngine::new(25.0, &HwPartition::all_software());
        let oc12_budget = split.instructions_per_slot(Duration::from_ps(707_799)); // OC-12 payload slot
        let oc3_budget = sw.instructions_per_slot(Duration::from_ps(2_831_197)); // OC-3 payload slot
        assert!((split.rx_per_cell_instructions() as f64) < oc12_budget);
        assert!((sw.rx_per_cell_instructions() as f64) > oc3_budget);
    }

    #[test]
    fn bundled_tasks_have_no_own_stage() {
        // CRC and HEC assists ride inside the segmentation / per-cell
        // receive spans; everything else tags its own stage.
        for t in TaskKind::ALL {
            let bundled = matches!(
                t,
                TaskKind::TxCellCrc
                    | TaskKind::TxHec
                    | TaskKind::RxCellEnqueue
                    | TaskKind::RxCellCrc
            );
            assert_eq!(t.trace_stage().is_none(), bundled, "{t:?}");
        }
    }

    #[test]
    fn instructions_lookup_matches_fields() {
        let c = TaskCosts::default();
        assert_eq!(c.instructions(TaskKind::TxPacketSetup), c.tx_packet_setup);
        assert_eq!(
            c.instructions(TaskKind::RxPacketComplete),
            c.rx_packet_complete
        );
    }
}
