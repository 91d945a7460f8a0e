//! The output-queued switch fabric.

use hni_atm::{Cell, HeaderRepr, VcId};
use hni_sim::{OccupancyTracker, Time};
use std::collections::{HashMap, VecDeque};

/// Switch parameters.
#[derive(Clone, Copy, Debug)]
pub struct SwitchConfig {
    /// Number of ports (each is both an input and an output).
    pub ports: usize,
    /// Cells each output queue can hold.
    pub output_queue_cells: usize,
    /// Queue depth above which CLP=1 cells are discarded (space
    /// priority). Set equal to `output_queue_cells` to disable.
    pub clp_threshold: usize,
    /// Queue depth at or above which departing user-data cells get the
    /// EFCI (explicit forward congestion indication) bit set, warning
    /// downstream receivers. Set to `output_queue_cells` to disable.
    pub efci_threshold: usize,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            ports: 4,
            output_queue_cells: 64,
            clp_threshold: 48,
            efci_threshold: 32,
        }
    }
}

/// One routing-table entry: where a connection goes and what its label
/// becomes on the way out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteEntry {
    /// Output port index.
    pub out_port: usize,
    /// Outgoing VPI/VCI (labels are link-local in ATM).
    pub out_vc: VcId,
}

/// Per-port statistics.
#[derive(Clone, Debug, Default)]
pub struct PortStats {
    /// Cells offered to this output queue.
    pub offered: u64,
    /// Cells transmitted from this output.
    pub carried: u64,
    /// Cells dropped: queue completely full.
    pub dropped_full: u64,
    /// Cells dropped: CLP=1 above the space-priority threshold.
    pub dropped_clp: u64,
}

/// The switch.
pub struct Switch {
    cfg: SwitchConfig,
    routes: HashMap<(usize, VcId), RouteEntry>,
    queues: Vec<VecDeque<Cell>>,
    occupancy: Vec<OccupancyTracker>,
    stats: Vec<PortStats>,
    unroutable: u64,
    efci_marked: u64,
}

impl Switch {
    /// An empty switch per `cfg`.
    pub fn new(cfg: SwitchConfig) -> Self {
        assert!(cfg.ports > 0 && cfg.output_queue_cells > 0);
        assert!(cfg.clp_threshold <= cfg.output_queue_cells);
        Switch {
            routes: HashMap::new(),
            queues: (0..cfg.ports).map(|_| VecDeque::new()).collect(),
            occupancy: (0..cfg.ports).map(|_| OccupancyTracker::new()).collect(),
            stats: vec![PortStats::default(); cfg.ports],
            unroutable: 0,
            efci_marked: 0,
            cfg,
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// Install a route: cells of `in_vc` arriving on `in_port` leave on
    /// `route.out_port` relabelled as `route.out_vc`.
    ///
    /// # Panics
    /// If either port index is out of range.
    pub fn add_route(&mut self, in_port: usize, in_vc: VcId, route: RouteEntry) {
        assert!(in_port < self.cfg.ports && route.out_port < self.cfg.ports);
        self.routes.insert((in_port, in_vc), route);
    }

    /// Remove a route; returns whether it existed.
    pub fn remove_route(&mut self, in_port: usize, in_vc: VcId) -> bool {
        self.routes.remove(&(in_port, in_vc)).is_some()
    }

    /// Offer one cell arriving on `in_port` at time `now`.
    ///
    /// Routing, label translation and the queue/discard decision happen
    /// immediately (output-queued fabric). Returns `true` if the cell
    /// was queued, `false` if dropped (any cause).
    pub fn offer(&mut self, in_port: usize, cell: &Cell, now: Time) -> bool {
        assert!(in_port < self.cfg.ports);
        let Ok(header) = cell.header() else {
            self.unroutable += 1;
            return false;
        };
        let Some(&route) = self.routes.get(&(in_port, header.vc())) else {
            self.unroutable += 1;
            return false;
        };
        let st = &mut self.stats[route.out_port];
        st.offered += 1;
        let q = &mut self.queues[route.out_port];
        if q.len() >= self.cfg.output_queue_cells {
            st.dropped_full += 1;
            return false;
        }
        if header.clp && q.len() >= self.cfg.clp_threshold {
            st.dropped_clp += 1;
            return false;
        }
        // Label translation: rewrite the header, keep PTI/CLP/payload.
        let mut out = cell.clone();
        let new_header = HeaderRepr {
            vpi: route.out_vc.vpi,
            vci: route.out_vc.vci,
            ..header
        };
        out.set_header(&new_header)
            .expect("translated header must be encodable");
        q.push_back(out);
        self.occupancy[route.out_port].set(now, q.len() as u64);
        true
    }

    /// Drain one cell from `out_port` (call once per output cell slot).
    ///
    /// If the queue it leaves is at or above the EFCI threshold, a
    /// user-data cell departs with its congestion-experienced bit set —
    /// the forward warning downstream rate control acts on.
    pub fn pull(&mut self, out_port: usize, now: Time) -> Option<Cell> {
        assert!(out_port < self.cfg.ports);
        let depth_before = self.queues[out_port].len();
        let mut cell = self.queues[out_port].pop_front()?;
        if depth_before >= self.cfg.efci_threshold {
            if let Ok(header) = cell.header() {
                if let hni_atm::Pti::UserData {
                    congestion: false,
                    last,
                } = header.pti
                {
                    let marked = HeaderRepr {
                        pti: hni_atm::Pti::UserData {
                            congestion: true,
                            last,
                        },
                        ..header
                    };
                    cell.set_header(&marked).expect("marked header encodable");
                    self.efci_marked += 1;
                }
            }
        }
        self.stats[out_port].carried += 1;
        self.occupancy[out_port].set(now, self.queues[out_port].len() as u64);
        Some(cell)
    }

    /// Cells that departed with a freshly set EFCI bit.
    pub fn efci_marked(&self) -> u64 {
        self.efci_marked
    }

    /// Current depth of an output queue.
    pub fn queue_len(&self, out_port: usize) -> usize {
        self.queues[out_port].len()
    }

    /// Statistics for one output port.
    pub fn port_stats(&self, out_port: usize) -> &PortStats {
        &self.stats[out_port]
    }

    /// Peak occupancy of one output queue.
    pub fn peak_queue(&self, out_port: usize) -> u64 {
        self.occupancy[out_port].peak()
    }

    /// Time-weighted mean occupancy of one output queue over `[0, end]`.
    pub fn mean_queue(&self, out_port: usize, end: Time) -> f64 {
        self.occupancy[out_port].mean(end)
    }

    /// Cells that matched no route (or had undecodable headers).
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }

    /// Overall loss ratio across all ports (dropped / offered).
    pub fn loss_ratio(&self) -> f64 {
        let offered: u64 = self.stats.iter().map(|s| s.offered).sum();
        let dropped: u64 = self
            .stats
            .iter()
            .map(|s| s.dropped_full + s.dropped_clp)
            .sum();
        if offered == 0 {
            0.0
        } else {
            dropped as f64 / offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hni_atm::PAYLOAD_SIZE;

    fn cell(vc: VcId, clp: bool) -> Cell {
        let h = HeaderRepr {
            clp,
            ..HeaderRepr::data(vc, false)
        };
        Cell::new(&h, &[0x33; PAYLOAD_SIZE]).unwrap()
    }

    fn basic_switch() -> Switch {
        let mut sw = Switch::new(SwitchConfig {
            ports: 4,
            output_queue_cells: 8,
            clp_threshold: 4,
            efci_threshold: 8,
        });
        sw.add_route(
            0,
            VcId::new(0, 100),
            RouteEntry {
                out_port: 2,
                out_vc: VcId::new(7, 700),
            },
        );
        sw
    }

    #[test]
    fn routes_and_translates_labels() {
        let mut sw = basic_switch();
        assert!(sw.offer(0, &cell(VcId::new(0, 100), false), Time::ZERO));
        let out = sw.pull(2, Time::ZERO).expect("queued cell");
        let h = out.header().unwrap();
        assert_eq!(h.vc(), VcId::new(7, 700), "label must be rewritten");
        assert_eq!(out.payload(), &[0x33; PAYLOAD_SIZE]);
        assert_eq!(sw.port_stats(2).carried, 1);
    }

    #[test]
    fn unroutable_cells_counted() {
        let mut sw = basic_switch();
        assert!(!sw.offer(0, &cell(VcId::new(0, 999), false), Time::ZERO));
        assert!(
            !sw.offer(1, &cell(VcId::new(0, 100), false), Time::ZERO),
            "route is per input port"
        );
        assert_eq!(sw.unroutable(), 2);
    }

    #[test]
    fn queue_overflow_drops() {
        let mut sw = basic_switch();
        let c = cell(VcId::new(0, 100), false);
        for _ in 0..8 {
            assert!(sw.offer(0, &c, Time::ZERO));
        }
        assert!(!sw.offer(0, &c, Time::ZERO), "ninth cell must drop");
        assert_eq!(sw.port_stats(2).dropped_full, 1);
        assert_eq!(sw.queue_len(2), 8);
    }

    #[test]
    fn clp_space_priority() {
        let mut sw = basic_switch();
        let high = cell(VcId::new(0, 100), false);
        let low = cell(VcId::new(0, 100), true);
        // Fill to the CLP threshold (4).
        for _ in 0..4 {
            assert!(sw.offer(0, &high, Time::ZERO));
        }
        // Low-priority cells now bounce; high-priority still enter.
        assert!(!sw.offer(0, &low, Time::ZERO));
        assert!(sw.offer(0, &high, Time::ZERO));
        assert_eq!(sw.port_stats(2).dropped_clp, 1);
        assert_eq!(sw.port_stats(2).dropped_full, 0);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut sw = basic_switch();
        for i in 0..5u8 {
            let mut c = cell(VcId::new(0, 100), false);
            c.payload_mut()[0] = i;
            sw.offer(0, &c, Time::ZERO);
        }
        for i in 0..5u8 {
            assert_eq!(sw.pull(2, Time::ZERO).unwrap().payload()[0], i);
        }
        assert!(sw.pull(2, Time::ZERO).is_none());
    }

    #[test]
    fn two_inputs_one_output_interleave() {
        let mut sw = basic_switch();
        sw.add_route(
            1,
            VcId::new(0, 200),
            RouteEntry {
                out_port: 2,
                out_vc: VcId::new(7, 701),
            },
        );
        sw.offer(0, &cell(VcId::new(0, 100), false), Time::ZERO);
        sw.offer(1, &cell(VcId::new(0, 200), false), Time::ZERO);
        let a = sw.pull(2, Time::ZERO).unwrap().header().unwrap().vci;
        let b = sw.pull(2, Time::ZERO).unwrap().header().unwrap().vci;
        assert_eq!((a, b), (700, 701));
    }

    #[test]
    fn occupancy_statistics() {
        let mut sw = basic_switch();
        let c = cell(VcId::new(0, 100), false);
        sw.offer(0, &c, Time::ZERO);
        sw.offer(0, &c, Time::ZERO);
        sw.pull(2, Time::from_us(1));
        assert_eq!(sw.peak_queue(2), 2);
        let mean = sw.mean_queue(2, Time::from_us(2));
        assert!((mean - 1.5).abs() < 1e-9);
    }

    #[test]
    fn loss_ratio_accounting() {
        let mut sw = Switch::new(SwitchConfig {
            ports: 2,
            output_queue_cells: 2,
            clp_threshold: 2,
            efci_threshold: 2,
        });
        sw.add_route(
            0,
            VcId::new(0, 32),
            RouteEntry {
                out_port: 1,
                out_vc: VcId::new(0, 32),
            },
        );
        let c = cell(VcId::new(0, 32), false);
        for _ in 0..4 {
            sw.offer(0, &c, Time::ZERO);
        }
        // 4 offered, 2 queued, 2 dropped.
        assert!((sw.loss_ratio() - 0.5).abs() < 1e-12);
    }
}

#[cfg(test)]
mod efci_tests {
    use super::*;
    use hni_atm::{Pti, PAYLOAD_SIZE};

    fn data_cell(vc: VcId) -> Cell {
        Cell::new(&HeaderRepr::data(vc, false), &[0x11; PAYLOAD_SIZE]).unwrap()
    }

    #[test]
    fn efci_set_above_threshold_only() {
        let mut sw = Switch::new(SwitchConfig {
            ports: 2,
            output_queue_cells: 16,
            clp_threshold: 16,
            efci_threshold: 4,
        });
        let vc = VcId::new(0, 32);
        sw.add_route(
            0,
            vc,
            RouteEntry {
                out_port: 1,
                out_vc: vc,
            },
        );
        for _ in 0..8 {
            sw.offer(0, &data_cell(vc), Time::ZERO);
        }
        // Queue starts at 8 ≥ 4: the first 5 pulls (depth 8,7,6,5,4) are
        // marked, the remaining 3 (depth 3,2,1) are clean.
        let mut marked = 0;
        while let Some(c) = sw.pull(1, Time::ZERO) {
            if let Pti::UserData {
                congestion: true, ..
            } = c.header().unwrap().pti
            {
                marked += 1;
            }
        }
        assert_eq!(marked, 5);
        assert_eq!(sw.efci_marked(), 5);
    }

    #[test]
    fn efci_disabled_at_queue_capacity_threshold() {
        let mut sw = Switch::new(SwitchConfig {
            ports: 2,
            output_queue_cells: 8,
            clp_threshold: 8,
            efci_threshold: 8,
        });
        let vc = VcId::new(0, 33);
        sw.add_route(
            0,
            vc,
            RouteEntry {
                out_port: 1,
                out_vc: vc,
            },
        );
        for _ in 0..8 {
            sw.offer(0, &data_cell(vc), Time::ZERO);
        }
        // Depth 8 == threshold 8 → first pull still marks. For a true
        // "disable", the threshold must exceed any reachable depth; with
        // capacity 8, depth can reach exactly 8, so one mark occurs.
        let mut marked = 0;
        while let Some(c) = sw.pull(1, Time::ZERO) {
            if let Pti::UserData {
                congestion: true, ..
            } = c.header().unwrap().pti
            {
                marked += 1;
            }
        }
        assert_eq!(marked, 1);
    }

    #[test]
    fn already_marked_cells_not_double_counted() {
        let mut sw = Switch::new(SwitchConfig {
            ports: 2,
            output_queue_cells: 8,
            clp_threshold: 8,
            efci_threshold: 1,
        });
        let vc = VcId::new(0, 34);
        sw.add_route(
            0,
            vc,
            RouteEntry {
                out_port: 1,
                out_vc: vc,
            },
        );
        let h = HeaderRepr {
            pti: Pti::UserData {
                congestion: true,
                last: false,
            },
            ..HeaderRepr::data(vc, false)
        };
        let pre_marked = Cell::new(&h, &[0u8; PAYLOAD_SIZE]).unwrap();
        sw.offer(0, &pre_marked, Time::ZERO);
        let out = sw.pull(1, Time::ZERO).unwrap();
        assert!(matches!(
            out.header().unwrap().pti,
            Pti::UserData {
                congestion: true,
                ..
            }
        ));
        assert_eq!(sw.efci_marked(), 0, "pre-marked cells are not re-counted");
    }
}
