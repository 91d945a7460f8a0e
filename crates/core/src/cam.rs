//! The receive-side connection lookup: mapping an incoming cell's
//! 24-bit VPI/VCI to a small connection index.
//!
//! At 622 Mb/s the lookup happens every ~708 ns, for a key space of 2²⁴
//! — far too large for a direct table in adaptor SRAM of the era, and a
//! software hash probe eats a fifth of the engine's per-cell budget.
//! The architecture therefore provisions a small **content-addressable
//! memory**: all entries compared in parallel, one cycle, bounded
//! capacity. This module models that device (and, for the all-software
//! ablation, the cost lives in
//! [`crate::engine::TaskKind::RxVciLookup`]).
//!
//! The CAM is also where "is this VC even open?" is answered: a miss is
//! not an error in the device, it is the signal that the cell belongs to
//! no configured connection and must be dropped (counted — those drops
//! are invisible otherwise and real interfaces got this wrong).
//!
//! Since the million-VC work the entry store is an
//! [`hni_atm::VcTable`] — the sharded open-addressing table that scales
//! the same bounded-capacity, hit/miss-accounted semantics to
//! connection counts the hardware CAM never dreamed of — plus a reverse
//! index→key map so the hardware invariant *one connection index, one
//! key* is actually enforced (a real CAM read-out line can only carry
//! one match).

use hni_atm::{VcId, VcTable};
use std::collections::BTreeMap;

/// Result of a CAM lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CamResult {
    /// The key matched: connection index returned.
    Hit(u16),
    /// No entry for this key.
    Miss,
}

/// A capacity-bounded VPI/VCI → connection-index CAM.
///
/// Functionally a hash map; the *capacity bound* and the hit/miss
/// accounting are the architecturally relevant behaviour. Lookup latency
/// is one bus cycle, overlapped with header processing — it never
/// appears as engine time, which is the point of buying a CAM.
pub struct Cam {
    entries: VcTable<u16>,
    /// Reverse map: connection index → the cam key that owns it.
    /// Enforces index uniqueness (and makes `insert`'s refusal of a
    /// stolen index O(log n), with deterministic iteration for free).
    index_owner: BTreeMap<u16, u32>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl std::fmt::Debug for Cam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cam")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

impl Cam {
    /// A CAM with room for `capacity` simultaneous connections.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Cam {
            entries: VcTable::bounded(capacity),
            index_owner: BTreeMap::new(),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Install a mapping. Returns `false` (and installs nothing) if the
    /// CAM is full or the index is already in use by another key.
    ///
    /// Re-programming an existing key to a new (free) index is allowed,
    /// even at capacity; the key's old index is released.
    pub fn insert(&mut self, vc: VcId, index: u16) -> bool {
        self.program(vc, index).is_some()
    }

    /// [`Cam::insert`], telling the caller what it replaced: `None` if
    /// the mapping was refused, otherwise the index the key held before
    /// (`Some(None)` for a new key).
    pub(crate) fn program(&mut self, vc: VcId, index: u16) -> Option<Option<u16>> {
        let key = vc.cam_key();
        if let Some(&owner) = self.index_owner.get(&index) {
            if owner != key {
                // One read-out line per index: refuse the steal.
                return None;
            }
        }
        match self.entries.get_mut_by_key(key as u64) {
            Some(slot) => {
                let old = *slot;
                *slot = index;
                if old != index {
                    self.index_owner.remove(&old);
                    self.index_owner.insert(index, key);
                }
                Some(Some(old))
            }
            None => {
                // `None` here is the capacity bound.
                self.entries.insert(key as u64, index)?;
                self.index_owner.insert(index, key);
                Some(None)
            }
        }
    }

    /// Whether `index` is installed for a key other than `vc`'s — the
    /// case in which [`Cam::insert`] refuses it even with room to spare.
    pub(crate) fn index_held_by_other(&self, index: u16, vc: VcId) -> bool {
        self.index_owner
            .get(&index)
            .is_some_and(|&owner| owner != vc.cam_key())
    }

    /// Remove a mapping; returns the connection index it released.
    pub fn remove(&mut self, vc: VcId) -> Option<u16> {
        let index = self.entries.remove(vc.cam_key() as u64)?;
        self.index_owner.remove(&index);
        Some(index)
    }

    /// Look up a cell's VC (counts hit/miss).
    pub fn lookup(&mut self, vc: VcId) -> CamResult {
        match self.entries.get_by_key(vc.cam_key() as u64) {
            Some(&idx) => {
                self.hits += 1;
                CamResult::Hit(idx)
            }
            None => {
                self.misses += 1;
                CamResult::Miss
            }
        }
    }

    /// Entries currently installed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
    /// Whether the CAM is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
    /// Lookups that matched.
    pub fn hits(&self) -> u64 {
        self.hits
    }
    /// Lookups that missed (cells for unconfigured VCs).
    pub fn misses(&self) -> u64 {
        self.misses
    }
    /// Probe/memory statistics of the backing [`hni_atm::VcTable`].
    pub fn table_stats(&self) -> hni_atm::TableStats {
        self.entries.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut cam = Cam::new(16);
        assert!(cam.insert(VcId::new(1, 100), 3));
        assert_eq!(cam.lookup(VcId::new(1, 100)), CamResult::Hit(3));
        assert_eq!(cam.lookup(VcId::new(1, 101)), CamResult::Miss);
        assert_eq!(cam.hits(), 1);
        assert_eq!(cam.misses(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut cam = Cam::new(2);
        assert!(cam.insert(VcId::new(0, 32), 0));
        assert!(cam.insert(VcId::new(0, 33), 1));
        assert!(
            !cam.insert(VcId::new(0, 34), 2),
            "third entry must be refused"
        );
        assert_eq!(cam.len(), 2);
    }

    #[test]
    fn reprogram_existing_key_allowed_at_capacity() {
        let mut cam = Cam::new(1);
        assert!(cam.insert(VcId::new(0, 32), 0));
        assert!(cam.insert(VcId::new(0, 32), 7), "re-map same key");
        assert_eq!(cam.lookup(VcId::new(0, 32)), CamResult::Hit(7));
    }

    #[test]
    fn remove_frees_space() {
        let mut cam = Cam::new(1);
        cam.insert(VcId::new(0, 32), 0);
        assert_eq!(cam.remove(VcId::new(0, 32)), Some(0));
        assert_eq!(cam.remove(VcId::new(0, 32)), None);
        assert!(cam.insert(VcId::new(0, 33), 1));
    }

    #[test]
    fn distinct_vpi_vci_do_not_collide() {
        // (vpi=1, vci=0) vs (vpi=0, vci=256) must be distinct keys —
        // guards the key packing.
        let mut cam = Cam::new(8);
        cam.insert(VcId::new(1, 0), 10);
        cam.insert(VcId::new(0, 256), 11);
        assert_eq!(cam.lookup(VcId::new(1, 0)), CamResult::Hit(10));
        assert_eq!(cam.lookup(VcId::new(0, 256)), CamResult::Hit(11));
    }

    #[test]
    fn index_collision_refused_as_documented() {
        // The doc has always promised `false` when "the index is
        // already in use by another key"; the HashMap-era code never
        // checked. Pin the now-enforced behaviour.
        let mut cam = Cam::new(8);
        assert!(cam.insert(VcId::new(0, 32), 5));
        assert!(
            !cam.insert(VcId::new(0, 33), 5),
            "index 5 is owned by another key"
        );
        assert_eq!(cam.len(), 1, "refused insert must install nothing");
        assert_eq!(cam.lookup(VcId::new(0, 33)), CamResult::Miss);
        // Same key re-asserting its own index is not a collision.
        assert!(cam.insert(VcId::new(0, 32), 5));
    }

    #[test]
    fn reprogram_releases_old_index() {
        let mut cam = Cam::new(8);
        assert!(cam.insert(VcId::new(0, 32), 1));
        assert!(cam.insert(VcId::new(0, 32), 2), "re-map to a free index");
        // Index 1 is free again for another key.
        assert!(cam.insert(VcId::new(0, 33), 1));
        // But 2 is now taken.
        assert!(!cam.insert(VcId::new(0, 34), 2));
        assert_eq!(cam.lookup(VcId::new(0, 32)), CamResult::Hit(2));
        assert_eq!(cam.lookup(VcId::new(0, 33)), CamResult::Hit(1));
    }

    #[test]
    fn remove_releases_index_for_reuse() {
        let mut cam = Cam::new(8);
        cam.insert(VcId::new(0, 32), 9);
        assert!(!cam.insert(VcId::new(0, 33), 9));
        cam.remove(VcId::new(0, 32));
        assert!(cam.insert(VcId::new(0, 33), 9), "freed index is reusable");
    }
}
