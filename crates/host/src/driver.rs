//! What receiving packets costs the host kernel.
//!
//! Per received packet the host pays, serially on its one CPU:
//!
//! * a share of an **interrupt** (entry/exit + ring scan) — the share
//!   depends on coalescing: one interrupt per packet, or one per batch;
//! * **descriptor management** (refill the ring, unmap the buffer);
//! * **protocol stack** processing (headers, demux, socket queue);
//! * **delivery** to user space — a memory copy (bytes/bandwidth), or a
//!   constant-cost page remap when the interface deposited the packet
//!   page-aligned (the zero-copy delivery the host-interface design
//!   enables by reassembling frames contiguously in host memory).
//!
//! [`RxHostModel::process`] replays an arrival schedule against a serial
//! CPU and reports utilization, completion backlog and the throughput
//! bound — the host half of experiments R-F2 and R-F4.

use crate::cpu::HostCpu;
use hni_sim::{Duration, Summary, Time};

/// Driver cost parameters, in host instructions (except the copy, which
/// is bandwidth-bound).
#[derive(Clone, Copy, Debug)]
pub struct DriverCosts {
    /// Interrupt entry, ring scan, exit (per interrupt, not per packet).
    pub isr_instr: u64,
    /// Descriptor/buffer management per packet.
    pub descriptor_instr: u64,
    /// Protocol stack per packet.
    pub stack_instr: u64,
    /// Page-remap delivery per packet (used when `copy_delivery` false).
    pub remap_instr: u64,
    /// Whether delivery copies the payload (true) or remaps pages.
    pub copy_delivery: bool,
}

impl Default for DriverCosts {
    fn default() -> Self {
        DriverCosts {
            isr_instr: 400,
            descriptor_instr: 75,
            stack_instr: 350,
            remap_instr: 250,
            copy_delivery: true,
        }
    }
}

/// Interrupt generation policy at the interface.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InterruptMode {
    /// Interrupt on every completed packet.
    PerPacket,
    /// Interrupt when `max_packets` have accumulated or `max_delay` has
    /// passed since the first unannounced packet.
    Coalesced {
        /// Packet-count threshold.
        max_packets: usize,
        /// Latency bound.
        max_delay: Duration,
    },
}

/// Outcome of replaying an arrival schedule on the host.
#[derive(Clone, Debug)]
pub struct HostRxReport {
    /// Packets processed.
    pub packets: u64,
    /// Interrupts taken.
    pub interrupts: u64,
    /// Total CPU busy time.
    pub cpu_busy: Duration,
    /// CPU utilization over the span of the schedule.
    pub cpu_util: f64,
    /// Host-added latency per packet (arrival → application), µs.
    pub latency_us: Summary,
    /// Octets delivered to applications.
    pub delivered_octets: u64,
    /// Time the last packet reached its application.
    pub finished_at: Time,
}

/// Replays packet arrivals against the host CPU.
#[derive(Clone, Debug)]
pub struct RxHostModel {
    /// The CPU doing the work.
    pub cpu: HostCpu,
    /// Cost table.
    pub costs: DriverCosts,
    /// Interrupt policy.
    pub interrupts: InterruptMode,
}

impl RxHostModel {
    /// Per-packet CPU time excluding the interrupt share.
    pub fn per_packet_time(&self, bytes: usize) -> Duration {
        let mut t = self
            .cpu
            .instr_time(self.costs.descriptor_instr + self.costs.stack_instr);
        if self.costs.copy_delivery {
            t += self.cpu.copy_time(bytes);
        } else {
            t += self.cpu.instr_time(self.costs.remap_instr);
        }
        t
    }

    /// The packet rate at which the CPU saturates, for fixed-size
    /// packets (interrupt share included).
    pub fn saturation_packets_per_second(&self, bytes: usize) -> f64 {
        let isr_share = match self.interrupts {
            InterruptMode::PerPacket => self.cpu.instr_time(self.costs.isr_instr),
            InterruptMode::Coalesced { max_packets, .. } => Duration::from_ps(
                self.cpu.instr_time(self.costs.isr_instr).as_ps() / max_packets as u64,
            ),
        };
        1.0 / (self.per_packet_time(bytes) + isr_share).as_s_f64()
    }

    /// Replay `arrivals` (time-sorted `(time, bytes)` pairs): a serial
    /// CPU takes interrupts per the policy and processes packets FIFO.
    pub fn process(&self, arrivals: &[(Time, usize)]) -> HostRxReport {
        let mut cpu_free = Time::ZERO;
        let mut cpu_busy = Duration::ZERO;
        let mut interrupts = 0u64;
        let mut latency = Summary::new();
        let mut delivered = 0u64;
        let mut finished_at = Time::ZERO;

        // Determine interrupt times and the packets each announces.
        let mut batches: Vec<(Time, Vec<usize>)> = Vec::new();
        match self.interrupts {
            InterruptMode::PerPacket => {
                for (i, &(t, _)) in arrivals.iter().enumerate() {
                    batches.push((t, vec![i]));
                }
            }
            InterruptMode::Coalesced {
                max_packets,
                max_delay,
            } => {
                let mut pending: Vec<usize> = Vec::new();
                let mut first_pending: Option<Time> = None;
                for (i, &(t, _)) in arrivals.iter().enumerate() {
                    // Fire a timer interrupt for older pending packets if
                    // the delay bound expires before this arrival.
                    if let Some(t0) = first_pending {
                        if t > t0 + max_delay && !pending.is_empty() {
                            batches.push((t0 + max_delay, std::mem::take(&mut pending)));
                            first_pending = None;
                        }
                    }
                    if first_pending.is_none() {
                        first_pending = Some(t);
                    }
                    pending.push(i);
                    if pending.len() >= max_packets {
                        batches.push((t, std::mem::take(&mut pending)));
                        first_pending = None;
                    }
                }
                if !pending.is_empty() {
                    let t0 = first_pending.expect("pending implies a first arrival");
                    batches.push((t0 + max_delay, pending));
                }
            }
        }

        for (t_int, pkt_idxs) in batches {
            interrupts += 1;
            let mut t = t_int.max(cpu_free);
            let isr = self.cpu.instr_time(self.costs.isr_instr);
            t += isr;
            cpu_busy += isr;
            for i in pkt_idxs {
                let (arr, bytes) = arrivals[i];
                let work = self.per_packet_time(bytes);
                t += work;
                cpu_busy += work;
                latency.record_us(t.saturating_since(arr));
                delivered += bytes as u64;
                finished_at = t;
            }
            cpu_free = t;
        }

        let span = finished_at.max(arrivals.last().map(|&(t, _)| t).unwrap_or(Time::ZERO));
        HostRxReport {
            packets: arrivals.len() as u64,
            interrupts,
            cpu_busy,
            cpu_util: if span > Time::ZERO {
                cpu_busy.as_s_f64() / span.saturating_since(Time::ZERO).as_s_f64()
            } else {
                0.0
            },
            latency_us: latency,
            delivered_octets: delivered,
            finished_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(mode: InterruptMode, copy: bool) -> RxHostModel {
        RxHostModel {
            cpu: HostCpu::workstation(),
            costs: DriverCosts {
                copy_delivery: copy,
                ..DriverCosts::default()
            },
            interrupts: mode,
        }
    }

    fn arrivals(n: usize, gap: Duration, bytes: usize) -> Vec<(Time, usize)> {
        (0..n)
            .map(|i| (Time::ZERO + gap * i as u64, bytes))
            .collect()
    }

    #[test]
    fn per_packet_interrupts_counted() {
        let m = model(InterruptMode::PerPacket, true);
        let r = m.process(&arrivals(10, Duration::from_ms(1), 1500));
        assert_eq!(r.packets, 10);
        assert_eq!(r.interrupts, 10);
        assert_eq!(r.delivered_octets, 15_000);
    }

    #[test]
    fn coalescing_reduces_interrupts() {
        let mode = InterruptMode::Coalesced {
            max_packets: 8,
            max_delay: Duration::from_ms(1),
        };
        let m = model(mode, true);
        // 64 packets arriving 10 µs apart: batches of 8 fill quickly.
        let r = m.process(&arrivals(64, Duration::from_us(10), 1500));
        assert_eq!(r.interrupts, 8);
        // Same arrivals per-packet: 8× the interrupts, more CPU.
        let r_pp = model(InterruptMode::PerPacket, true).process(&arrivals(
            64,
            Duration::from_us(10),
            1500,
        ));
        assert_eq!(r_pp.interrupts, 64);
        assert!(r_pp.cpu_busy > r.cpu_busy);
    }

    #[test]
    fn coalescing_timer_bounds_latency() {
        let mode = InterruptMode::Coalesced {
            max_packets: 100,
            max_delay: Duration::from_us(500),
        };
        let m = model(mode, true);
        // A single lonely packet must still be announced after max_delay.
        let r = m.process(&[(Time::ZERO, 1500)]);
        assert_eq!(r.interrupts, 1);
        assert!(r.latency_us.min() >= 500.0, "min {}", r.latency_us.min());
        assert!(r.latency_us.max() < 600.0);
    }

    #[test]
    fn remap_beats_copy_for_large_packets() {
        let copy = model(InterruptMode::PerPacket, true);
        let remap = model(InterruptMode::PerPacket, false);
        assert!(remap.per_packet_time(60_000) < copy.per_packet_time(60_000));
        // For packets smaller than remap_instr worth of copying, copy wins.
        // remap = 250 instr = 10 µs; copy of 64 B = 1.28 µs.
        assert!(copy.per_packet_time(64) < remap.per_packet_time(64));
    }

    #[test]
    fn saturation_rate_orders_by_packet_size() {
        let m = model(InterruptMode::PerPacket, true);
        assert!(m.saturation_packets_per_second(64) > m.saturation_packets_per_second(9180));
    }

    #[test]
    fn overload_backlogs_cpu() {
        let m = model(InterruptMode::PerPacket, true);
        // Packets arriving far faster than the CPU can take them.
        let r = m.process(&arrivals(100, Duration::from_us(1), 9180));
        assert!(r.cpu_util > 0.99, "util {}", r.cpu_util);
        // Latency grows with queue position: max ≫ min.
        assert!(r.latency_us.max() > 10.0 * r.latency_us.min());
    }

    #[test]
    fn empty_schedule() {
        let m = model(InterruptMode::PerPacket, true);
        let r = m.process(&[]);
        assert_eq!(r.packets, 0);
        assert_eq!(r.interrupts, 0);
        assert_eq!(r.cpu_util, 0.0);
    }
}
