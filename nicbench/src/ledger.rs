//! The output check: every SDU a workload offers ends in exactly one
//! fate, and every delivered SDU is compared byte for byte with what was
//! sent.

use crate::gen::{Payloads, SduId};
use hni_aal::{ReassemblyError, ReassemblyFailure};
use hni_atm::VcId;
use std::collections::VecDeque;

/// Reassembly failure classes, in the order of the `aal5.fail.*` metrics.
pub const FAIL_REASONS: [&str; 5] = ["crc32", "length", "too_long", "malformed", "timeout"];

fn reason_index(e: ReassemblyError) -> usize {
    match e {
        ReassemblyError::Crc32 => 0,
        ReassemblyError::LengthMismatch => 1,
        ReassemblyError::TooLong => 2,
        ReassemblyError::Timeout => 4,
        _ => 3,
    }
}

/// Fate totals for one pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fates {
    /// SDUs handed to the program.
    pub offered: u64,
    /// SDUs delivered intact.
    pub delivered: u64,
    /// SDUs known lost: skipped over by a later delivery on their
    /// connection, or still missing once the pass has drained.
    pub failed: u64,
    /// SDUs neither delivered nor known lost.
    pub in_flight: u64,
    /// `ReceiveError` events, by [`FAIL_REASONS`] class.
    pub receive_errors: [u64; 5],
    /// Cells dropped as unknown-VC (`UnknownVc` events).
    pub unknown_vc: u64,
    /// OAM loopback replies (none are requested, so any is an error
    /// on a clean line).
    pub oam_replies: u64,
    /// SDU octets delivered intact.
    pub delivered_octets: u64,
}

impl Fates {
    /// Total `ReceiveError` events.
    pub fn receive_error_total(&self) -> u64 {
        self.receive_errors.iter().sum()
    }
}

/// Per-connection queues of SDUs offered and not yet resolved.
pub struct Ledger {
    vcs: Vec<VcId>,
    outstanding: Vec<VecDeque<(u64, usize)>>,
    /// Running totals; `in_flight` is filled in by [`Ledger::fates`].
    fates: Fates,
}

impl Ledger {
    /// A ledger over the connections `vcs` (slot `i` is `vcs[i]`).
    pub fn new(vcs: Vec<VcId>) -> Self {
        let outstanding = vcs.iter().map(|_| VecDeque::new()).collect();
        Ledger {
            vcs,
            outstanding,
            fates: Fates::default(),
        }
    }

    /// The connection of `slot`.
    pub fn vc(&self, slot: u32) -> VcId {
        self.vcs[slot as usize]
    }

    /// Record that SDU `id`, `len` octets, was handed to the program.
    pub fn offer(&mut self, id: SduId, len: usize) {
        self.outstanding[id.slot as usize].push_back((id.seq, len));
        self.fates.offered += 1;
    }

    /// Check a delivered SDU against what was offered on its connection.
    /// SDUs offered earlier on that connection and still outstanding
    /// were skipped, so they are lost.
    pub fn deliver(&mut self, payloads: &Payloads, vc: VcId, data: &[u8]) -> Result<(), String> {
        let id = Payloads::id_of(data)
            .filter(|id| (id.slot as usize) < self.vcs.len())
            .ok_or_else(|| format!("delivered SDU on {vc:?} carries no valid header"))?;
        if self.vcs[id.slot as usize] != vc {
            return Err(format!(
                "SDU {} for slot {} delivered on the wrong VC {vc:?}",
                id.seq, id.slot
            ));
        }
        let queue = &mut self.outstanding[id.slot as usize];
        while queue.front().is_some_and(|&(seq, _)| seq < id.seq) {
            queue.pop_front();
            self.fates.failed += 1;
        }
        match queue.pop_front() {
            Some((seq, len)) if seq == id.seq => {
                if !payloads.matches(id, len, data) {
                    return Err(format!(
                        "SDU {} on {vc:?} delivered with wrong contents ({} octets, {len} sent)",
                        id.seq,
                        data.len()
                    ));
                }
                self.fates.delivered += 1;
                self.fates.delivered_octets += data.len() as u64;
                Ok(())
            }
            _ => Err(format!(
                "SDU {} on {vc:?} delivered twice, out of order, or never sent",
                id.seq
            )),
        }
    }

    /// Count a `ReceiveError` event.
    pub fn receive_error(&mut self, f: &ReassemblyFailure) {
        self.fates.receive_errors[reason_index(f.error)] += 1;
    }

    /// Count an `UnknownVc` event.
    pub fn unknown_vc(&mut self) {
        self.fates.unknown_vc += 1;
    }

    /// Count an OAM loopback reply event.
    pub fn oam_reply(&mut self) {
        self.fates.oam_replies += 1;
    }

    /// SDU octets delivered intact so far.
    pub fn delivered_octets(&self) -> u64 {
        self.fates.delivered_octets
    }

    /// Resolve the outstanding SDUs as lost: call once the program has
    /// drained and every partial frame has been expired.
    pub fn fail_outstanding(&mut self) {
        for q in &mut self.outstanding {
            self.fates.failed += q.len() as u64;
            q.clear();
        }
    }

    /// Current totals, with everything unresolved counted in flight.
    /// The fates partition the offered SDUs; that is checked here.
    pub fn fates(&self) -> Result<Fates, String> {
        let mut f = self.fates.clone();
        f.in_flight = self.outstanding.iter().map(|q| q.len() as u64).sum();
        if f.delivered + f.failed + f.in_flight != f.offered {
            return Err(format!(
                "SDU fates do not partition the offered SDUs: {f:?}"
            ));
        }
        Ok(f)
    }
}
