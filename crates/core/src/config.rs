//! The functional interface's configuration type.

use crate::bufpool::PoolConfig;
use crate::bus::BusConfig;
use crate::engine::HwPartition;
use hni_aal::AalType;
use hni_sim::Duration;
use hni_sonet::LineRate;

/// Full host-interface configuration of the functional data path
/// ([`crate::nic`]). The timing simulations take their own
/// [`TxConfig`](crate::txsim::TxConfig) /
/// [`RxConfig`](crate::rxsim::RxConfig).
#[derive(Clone, Debug)]
pub struct NicConfig {
    /// SONET line rate.
    pub rate: LineRate,
    /// Protocol engine speed, MIPS (per direction — the architecture
    /// provisions one engine each way).
    pub mips: f64,
    /// Hardware-assist partition.
    pub partition: HwPartition,
    /// Host bus parameters.
    pub bus: BusConfig,
    /// Transmit output FIFO, in cells.
    pub tx_fifo_cells: usize,
    /// Receive input FIFO, in cells.
    pub rx_fifo_cells: usize,
    /// Receive reassembly buffer pool.
    pub pool: PoolConfig,
    /// Adaptation layer for user VCs.
    pub aal: AalType,
    /// Per-VC GCRA pacing on transmit.
    pub pacing: bool,
    /// CAM capacity (simultaneous open VCs).
    pub cam_capacity: usize,
    /// Largest SDU accepted.
    pub max_sdu: usize,
    /// Receive reassembly timeout.
    pub reassembly_timeout: Duration,
}

impl NicConfig {
    /// The architecture's design point.
    pub fn paper(rate: LineRate) -> Self {
        NicConfig {
            rate,
            mips: 25.0,
            partition: HwPartition::paper_split(),
            bus: BusConfig::default(),
            tx_fifo_cells: 16,
            rx_fifo_cells: 16,
            pool: PoolConfig {
                total_buffers: 256,
                cells_per_buffer: 32,
            },
            aal: AalType::Aal5,
            pacing: false,
            cam_capacity: 256,
            max_sdu: 65535,
            reassembly_timeout: Duration::from_ms(10),
        }
    }

    /// Ablation: no hardware assists.
    pub fn all_software(rate: LineRate) -> Self {
        NicConfig {
            partition: HwPartition::all_software(),
            ..Self::paper(rate)
        }
    }

    /// Ablation: full per-cell hardware.
    pub fn full_hardware(rate: LineRate) -> Self {
        NicConfig {
            partition: HwPartition::full_hardware(),
            ..Self::paper(rate)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_only_in_partition() {
        let p = NicConfig::paper(LineRate::Oc12);
        let s = NicConfig::all_software(LineRate::Oc12);
        let h = NicConfig::full_hardware(LineRate::Oc12);
        assert_eq!(p.mips, s.mips);
        assert_eq!(p.cam_capacity, h.cam_capacity);
        assert_ne!(p.partition, s.partition);
        assert_ne!(p.partition, h.partition);
    }
}
