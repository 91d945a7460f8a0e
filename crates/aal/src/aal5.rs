//! AAL5 — the Simple and Efficient Adaptation Layer (ITU-T I.363.5).
//!
//! The CPCS-PDU is the SDU followed by 0–47 pad octets and an 8-octet
//! trailer, sized to a multiple of 48:
//!
//! ```text
//! ┌────────────┬─────────┬────┬─────┬────────┬────────┐
//! │  SDU data  │   PAD   │ UU │ CPI │ Length │ CRC-32 │
//! │  0..65535  │  0..47  │ 1  │  1  │   2    │   4    │
//! └────────────┴─────────┴────┴─────┴────────┴────────┘
//! ```
//!
//! Segmentation slices the CPCS-PDU into 48-octet cell payloads; the only
//! per-cell marking is the PTI user-indication bit on the final cell.
//! This is why AAL5 won: zero per-cell overhead, trivial segmentation
//! hardware — and why its failure mode is coarse: *any* lost or corrupted
//! cell is only discovered at frame end, by the CRC-32/Length check, and
//! costs the whole frame.
//!
//! The reassembler here is per-VC. Cell interleaving across frames on one
//! VC is impossible in AAL5 by construction (no MID field), which the
//! error taxonomy reflects.

use crate::crc::{crc32, Crc32Accumulator};
use crate::{ReassembledSdu, ReassemblyError, ReassemblyFailure, ReassemblyOutcome};
use hni_atm::{Cell, CellRef, CellSlab, HeaderRepr, VcId, VcTable, PAYLOAD_SIZE};
use hni_sim::{Duration, Time};

/// CPCS trailer size in octets.
pub const TRAILER_SIZE: usize = 8;
/// Largest SDU AAL5 can carry (16-bit length field; 0 means 65536 is NOT
/// used here — we follow the common convention that 0 marks an abort).
pub const MAX_SDU: usize = 65535;
/// Cells in the largest possible CPCS-PDU.
pub const MAX_CELLS: usize = (MAX_SDU + TRAILER_SIZE).div_ceil(PAYLOAD_SIZE); // 1366

/// All-zero pad source (the pad is at most 47 octets).
const ZERO_PAD: [u8; PAYLOAD_SIZE] = [0u8; PAYLOAD_SIZE];

/// Reassembly buffers kept for reuse; beyond this they are dropped.
const SPARE_POOL_LIMIT: usize = 64;

/// Segment an SDU into ATM cells on `vc`.
///
/// Returns the cell sequence; the final cell has the PTI end-of-frame
/// bit set. `uu` is the CPCS user-to-user octet carried transparently.
///
/// ```
/// use hni_aal::aal5::{segment, Aal5Reassembler};
/// use hni_atm::VcId;
/// use hni_sim::{Duration, Time};
///
/// let vc = VcId::new(0, 42);
/// let cells = segment(vc, b"a small packet", 0x00);
/// assert_eq!(cells.len(), 1); // 14 B + 8 B trailer fits one cell
///
/// let mut reasm = Aal5Reassembler::new(65535, Duration::from_ms(10));
/// let sdu = reasm.push(&cells[0], Time::ZERO).unwrap().unwrap();
/// assert_eq!(sdu.data, b"a small packet");
/// ```
///
/// # Panics
/// If `sdu.len() > MAX_SDU`.
pub fn segment(vc: VcId, sdu: &[u8], uu: u8) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(crate::AalType::Aal5.cells_for_sdu(sdu.len()));
    segment_with(vc, sdu, uu, |header, payload| {
        cells.push(Cell::new(header, payload).expect("UNI header for user VC is always encodable"));
    });
    cells
}

/// Segment an SDU into slab-backed cells on `vc`, appending one
/// [`CellRef`] handle per cell to `out`.
///
/// Byte-identical to [`segment`] — the same core builds both — but on a
/// warmed-up slab the steady state performs zero heap allocations per
/// cell. This is the fast-path form the batched pipeline uses.
pub fn segment_into(vc: VcId, sdu: &[u8], uu: u8, slab: &mut CellSlab, out: &mut Vec<CellRef>) {
    segment_with(vc, sdu, uu, |header, payload| {
        let (r, cell) = slab.alloc_mut();
        cell.set_header(header)
            .expect("UNI header for user VC is always encodable");
        cell.payload_mut().copy_from_slice(payload);
        out.push(r);
    });
}

/// Segment a burst of SDUs on `vc` into the slab in one call,
/// amortizing per-call dispatch the way the paper's hardware assists
/// amortize per-cell protocol processing. Handles are appended to `out`
/// in SDU order.
pub fn segment_burst(
    vc: VcId,
    sdus: &[&[u8]],
    uu: u8,
    slab: &mut CellSlab,
    out: &mut Vec<CellRef>,
) {
    for sdu in sdus {
        segment_into(vc, sdu, uu, slab, out);
    }
}

/// The segmentation core: computes the CPCS trailer and emits each
/// 48-octet payload (with its header repr) through `emit`. Both the
/// `Vec<Cell>` path and the slab path share this, which is what makes
/// them byte-identical by construction.
fn segment_with(
    vc: VcId,
    sdu: &[u8],
    uu: u8,
    mut emit: impl FnMut(&HeaderRepr, &[u8; PAYLOAD_SIZE]),
) {
    assert!(sdu.len() <= MAX_SDU, "SDU exceeds AAL5 maximum");
    let total = cpcs_pdu_len(sdu.len());
    let n_cells = total / PAYLOAD_SIZE;
    let pad = total - sdu.len() - TRAILER_SIZE;

    // Build the trailer; CRC covers SDU ∥ pad ∥ first 4 trailer octets.
    let mut crc = Crc32Accumulator::new();
    crc.update(sdu);
    crc.update(&ZERO_PAD[..pad]);
    let mut trailer = [0u8; TRAILER_SIZE];
    trailer[0] = uu;
    trailer[1] = 0; // CPI: must be 0
    trailer[2] = (sdu.len() >> 8) as u8;
    trailer[3] = sdu.len() as u8;
    crc.update(&trailer[..4]);
    let c = crc.finish();
    trailer[4..].copy_from_slice(&c.to_be_bytes());

    let mut payload = [0u8; PAYLOAD_SIZE];
    for i in 0..n_cells {
        let start = i * PAYLOAD_SIZE;
        // Assemble this cell's 48 octets from SDU/pad/trailer regions.
        for (j, slot) in payload.iter_mut().enumerate() {
            let pos = start + j;
            *slot = if pos < sdu.len() {
                sdu[pos]
            } else if pos < sdu.len() + pad {
                0
            } else {
                trailer[pos - sdu.len() - pad]
            };
        }
        let last = i == n_cells - 1;
        emit(&HeaderRepr::data(vc, last), &payload);
    }
}

/// Total CPCS-PDU length (a multiple of 48) for an SDU of `len` octets.
pub fn cpcs_pdu_len(len: usize) -> usize {
    (len + TRAILER_SIZE).div_ceil(PAYLOAD_SIZE) * PAYLOAD_SIZE
}

/// Per-VC reassembly state.
struct VcState {
    buf: Vec<u8>,
    cells: usize,
    started_at: Time,
}

/// AAL5 reassembler for any number of VCs.
///
/// Offer every user-data cell via [`Aal5Reassembler::push`]; call
/// [`Aal5Reassembler::expire`] periodically to enforce the reassembly
/// timeout. Statistics count completions and every failure class.
pub struct Aal5Reassembler {
    /// Per-VC frame state in the sharded open-addressing table, keyed
    /// on the packed 24-bit cam key — the same structure the CAM model
    /// uses, so a million in-progress VCs cost flat lookups and ~bytes,
    /// not `HashMap` buckets.
    vcs: VcTable<VcState>,
    max_sdu: usize,
    timeout: Duration,
    completed: u64,
    failed: u64,
    /// Retired frame buffers kept warm for reuse: a steady-state stream
    /// of frames allocates nothing per frame once the pool has seen the
    /// working set. Completed SDUs leave with their buffer; callers on
    /// the fast path hand it back via [`Aal5Reassembler::recycle`].
    spare: Vec<Vec<u8>>,
}

impl Aal5Reassembler {
    /// A reassembler accepting SDUs up to `max_sdu` octets and abandoning
    /// frames older than `timeout`.
    pub fn new(max_sdu: usize, timeout: Duration) -> Self {
        Aal5Reassembler {
            vcs: VcTable::new(),
            max_sdu: max_sdu.min(MAX_SDU),
            timeout,
            completed: 0,
            failed: 0,
            spare: Vec::new(),
        }
    }

    /// Hand an SDU buffer (from a delivered [`ReassembledSdu`]) back for
    /// reuse. Optional — dropping the buffer is always correct — but the
    /// zero-alloc steady state needs the working set to circulate.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.stash(buf);
    }

    fn stash(&mut self, mut buf: Vec<u8>) {
        if self.spare.len() < SPARE_POOL_LIMIT {
            buf.clear();
            self.spare.push(buf);
        }
    }

    /// Frames successfully delivered.
    pub fn completed(&self) -> u64 {
        self.completed
    }
    /// Frames abandoned (all causes).
    pub fn failed(&self) -> u64 {
        self.failed
    }
    /// VCs with a frame currently in progress.
    pub fn in_progress(&self) -> usize {
        self.vcs.len()
    }
    /// Octets currently buffered across all VCs.
    pub fn buffered_octets(&self) -> usize {
        self.vcs.iter().map(|(_, s)| s.buf.len()).sum()
    }

    /// Probe/memory statistics of the backing [`VcTable`].
    pub fn table_stats(&self) -> hni_atm::TableStats {
        self.vcs.stats()
    }

    /// Offer one cell. Returns a completed SDU, a failure report, or
    /// nothing (mid-frame).
    pub fn push(&mut self, cell: &Cell, now: Time) -> ReassemblyOutcome {
        let header = match cell.header() {
            Ok(h) => h,
            Err(_) => return None, // undecodable header: not ours to count
        };
        if !header.pti.is_user_data() {
            return None; // OAM/RM cells don't participate in reassembly
        }
        let vc = header.vc();
        let key = vc.cam_key() as u64;
        let spare = &mut self.spare;
        let (_, state) = self
            .vcs
            .get_or_insert_with(key, || VcState {
                buf: spare.pop().unwrap_or_default(),
                cells: 0,
                started_at: now,
            })
            .expect("unbounded table never refuses");
        state.buf.extend_from_slice(cell.payload());
        state.cells += 1;

        // Oversize guard: largest legal CPCS-PDU for our max_sdu.
        let limit = cpcs_pdu_len(self.max_sdu);
        if state.buf.len() > limit {
            let state = self.vcs.remove(key).expect("state just inserted");
            let discarded = state.buf.len();
            self.stash(state.buf);
            self.failed += 1;
            return Some(Err(ReassemblyFailure {
                vc,
                mid: 0,
                error: ReassemblyError::TooLong,
                discarded_octets: discarded,
            }));
        }

        if !header.pti.is_last() {
            return None;
        }

        // Final cell: validate the CPCS-PDU.
        let state = self.vcs.remove(key).expect("state just inserted");
        let mut pdu = state.buf;
        debug_assert!(pdu.len().is_multiple_of(PAYLOAD_SIZE));

        let trailer = &pdu[pdu.len() - TRAILER_SIZE..];
        let uu = trailer[0];
        let length = ((trailer[2] as usize) << 8) | trailer[3] as usize;
        let stored_crc = u32::from_be_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);

        let computed = crc32(&pdu[..pdu.len() - 4]);
        if computed != stored_crc {
            self.failed += 1;
            let discarded = pdu.len();
            self.stash(pdu);
            return Some(Err(ReassemblyFailure {
                vc,
                mid: 0,
                error: ReassemblyError::Crc32,
                discarded_octets: discarded,
            }));
        }
        // Length must reconstruct the same number of cells: the pad is
        // 0..47, i.e. length + 8 must round up to exactly pdu.len().
        if length > self.max_sdu || cpcs_pdu_len(length) != pdu.len() {
            self.failed += 1;
            let discarded = pdu.len();
            self.stash(pdu);
            return Some(Err(ReassemblyFailure {
                vc,
                mid: 0,
                error: ReassemblyError::LengthMismatch,
                discarded_octets: discarded,
            }));
        }

        self.completed += 1;
        // Truncate in place: the SDU leaves with the frame buffer (same
        // bytes as a copy, no allocation); `recycle` brings it back.
        pdu.truncate(length);
        Some(Ok(ReassembledSdu {
            vc,
            mid: 0,
            data: pdu,
            user_to_user: uu,
        }))
    }

    /// Offer a burst of slab-backed cells, appending every completed SDU
    /// or failure report to `out` in arrival order. Mid-frame cells
    /// produce nothing, exactly as with per-cell [`Aal5Reassembler::push`].
    pub fn deliver_burst(
        &mut self,
        refs: &[CellRef],
        slab: &CellSlab,
        now: Time,
        out: &mut Vec<Result<ReassembledSdu, ReassemblyFailure>>,
    ) {
        for &r in refs {
            if let Some(outcome) = self.push(slab.get(r), now) {
                out.push(outcome);
            }
        }
    }

    /// Abandon `vc`'s in-progress frame, if any — the connection is
    /// closing, and its cells must not be glued onto the first frame of
    /// whatever connection reuses the VC next.
    pub fn abandon(&mut self, vc: VcId) -> Option<ReassemblyFailure> {
        let s = self.vcs.remove(vc.cam_key() as u64)?;
        self.failed += 1;
        let discarded = s.buf.len();
        self.stash(s.buf);
        Some(ReassemblyFailure {
            vc,
            mid: 0,
            error: ReassemblyError::ConnectionClosed,
            discarded_octets: discarded,
        })
    }

    /// Abandon every frame whose first cell arrived more than the timeout
    /// ago. Returns one failure report per abandoned frame.
    pub fn expire(&mut self, now: Time) -> Vec<ReassemblyFailure> {
        let timeout = self.timeout;
        let expired: Vec<u64> = self
            .vcs
            .iter()
            .filter(|(_, s)| now.saturating_since(s.started_at) > timeout)
            .map(|(key, _)| key)
            .collect();
        expired
            .into_iter()
            .map(|key| {
                let s = self.vcs.remove(key).expect("key from iteration");
                self.failed += 1;
                let discarded = s.buf.len();
                self.stash(s.buf);
                ReassemblyFailure {
                    vc: VcId::new((key >> 16) as u16, key as u16),
                    mid: 0,
                    error: ReassemblyError::Timeout,
                    discarded_octets: discarded,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc() -> VcId {
        VcId::new(1, 100)
    }

    fn reasm() -> Aal5Reassembler {
        Aal5Reassembler::new(MAX_SDU, Duration::from_ms(10))
    }

    fn roundtrip(sdu: &[u8]) -> ReassembledSdu {
        let cells = segment(vc(), sdu, 0x5A);
        let mut r = reasm();
        let mut done = None;
        for c in &cells {
            if let Some(out) = r.push(c, Time::ZERO) {
                done = Some(out);
            }
        }
        done.expect("frame should complete")
            .expect("frame should be valid")
    }

    #[test]
    fn roundtrip_small() {
        let sdu = b"hello, aurora";
        let out = roundtrip(sdu);
        assert_eq!(out.data, sdu);
        assert_eq!(out.user_to_user, 0x5A);
        assert_eq!(out.vc, vc());
    }

    #[test]
    fn roundtrip_empty_sdu() {
        let out = roundtrip(&[]);
        assert!(out.data.is_empty());
    }

    #[test]
    fn roundtrip_exact_cell_boundaries() {
        for len in [39, 40, 41, 47, 48, 95, 96, 97] {
            let sdu: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert_eq!(roundtrip(&sdu).data, sdu, "len {len}");
        }
    }

    #[test]
    fn roundtrip_large() {
        let sdu: Vec<u8> = (0..40_000).map(|i| (i * 7 % 256) as u8).collect();
        assert_eq!(roundtrip(&sdu).data, sdu);
    }

    #[test]
    fn cell_count_matches_formula() {
        for len in [0, 1, 40, 41, 1000, 9180, 65535] {
            let cells = segment(vc(), &vec![0xAB; len], 0);
            assert_eq!(
                cells.len(),
                crate::AalType::Aal5.cells_for_sdu(len),
                "len {len}"
            );
        }
    }

    #[test]
    fn only_final_cell_marked() {
        let cells = segment(vc(), &[1; 200], 0);
        for (i, c) in cells.iter().enumerate() {
            let last = c.header().unwrap().pti.is_last();
            assert_eq!(last, i == cells.len() - 1);
        }
    }

    #[test]
    fn lost_middle_cell_detected() {
        let sdu: Vec<u8> = (0..500).map(|i| i as u8).collect();
        let cells = segment(vc(), &sdu, 0);
        let mut r = reasm();
        let mut outcome = None;
        for (i, c) in cells.iter().enumerate() {
            if i == 3 {
                continue; // lose one cell
            }
            if let Some(o) = r.push(c, Time::ZERO) {
                outcome = Some(o);
            }
        }
        let failure = outcome.unwrap().unwrap_err();
        // A lost 48-octet chunk shifts everything: either CRC or length
        // catches it. (CRC virtually always.)
        assert!(
            matches!(
                failure.error,
                ReassemblyError::Crc32 | ReassemblyError::LengthMismatch
            ),
            "got {:?}",
            failure.error
        );
        assert_eq!(r.failed(), 1);
    }

    #[test]
    fn lost_final_cell_merges_frames() {
        // Losing the last cell of frame A makes frame A's cells prepend
        // frame B — the classic AAL5 failure. The combined frame must be
        // rejected when B completes.
        let a = segment(vc(), &[1u8; 100], 0);
        let b = segment(vc(), &[2u8; 100], 0);
        let mut r = reasm();
        let mut outcome = None;
        for c in a.iter().take(a.len() - 1).chain(b.iter()) {
            if let Some(o) = r.push(c, Time::ZERO) {
                outcome = Some(o);
            }
        }
        assert!(outcome.unwrap().is_err());
    }

    #[test]
    fn corrupted_payload_detected() {
        let sdu: Vec<u8> = (0..300).map(|i| i as u8).collect();
        let mut cells = segment(vc(), &sdu, 0);
        cells[2].payload_mut()[10] ^= 0x01;
        let mut r = reasm();
        let mut outcome = None;
        for c in &cells {
            if let Some(o) = r.push(c, Time::ZERO) {
                outcome = Some(o);
            }
        }
        assert_eq!(outcome.unwrap().unwrap_err().error, ReassemblyError::Crc32);
    }

    #[test]
    fn interleaved_vcs_reassemble_independently() {
        let vc_a = VcId::new(0, 32);
        let vc_b = VcId::new(0, 33);
        let sdu_a: Vec<u8> = vec![0xAA; 200];
        let sdu_b: Vec<u8> = vec![0xBB; 200];
        let ca = segment(vc_a, &sdu_a, 0);
        let cb = segment(vc_b, &sdu_b, 0);
        let mut r = reasm();
        let mut got = Vec::new();
        // Interleave cell streams.
        for i in 0..ca.len().max(cb.len()) {
            for cells in [&ca, &cb] {
                if let Some(c) = cells.get(i) {
                    if let Some(Ok(sdu)) = r.push(c, Time::ZERO) {
                        got.push(sdu);
                    }
                }
            }
        }
        assert_eq!(got.len(), 2);
        let a = got.iter().find(|s| s.vc == vc_a).unwrap();
        let b = got.iter().find(|s| s.vc == vc_b).unwrap();
        assert_eq!(a.data, sdu_a);
        assert_eq!(b.data, sdu_b);
    }

    #[test]
    fn timeout_expires_stalled_frames() {
        let cells = segment(vc(), &[9u8; 500], 0);
        let mut r = Aal5Reassembler::new(MAX_SDU, Duration::from_us(100));
        r.push(&cells[0], Time::ZERO);
        r.push(&cells[1], Time::from_us(10));
        assert!(r.expire(Time::from_us(50)).is_empty());
        let failures = r.expire(Time::from_us(200));
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].error, ReassemblyError::Timeout);
        assert_eq!(failures[0].discarded_octets, 96);
        assert_eq!(r.in_progress(), 0);
    }

    #[test]
    fn oversize_frame_rejected_midstream() {
        // Max SDU 100 → limit = cpcs_pdu_len(100) = 144 octets = 3 cells.
        let mut r = Aal5Reassembler::new(100, Duration::from_ms(1));
        let cells = segment(vc(), &[1u8; 500], 0); // 11 cells, never "last" early
        let mut failure = None;
        for c in &cells {
            if let Some(Err(f)) = r.push(c, Time::ZERO) {
                failure = Some(f);
                break;
            }
        }
        assert_eq!(failure.unwrap().error, ReassemblyError::TooLong);
    }

    #[test]
    fn oam_cells_ignored() {
        let mut r = reasm();
        let cell = Cell::new(
            &HeaderRepr {
                pti: hni_atm::Pti::OamSegment,
                ..HeaderRepr::data(vc(), false)
            },
            &[0u8; PAYLOAD_SIZE],
        )
        .unwrap();
        assert!(r.push(&cell, Time::ZERO).is_none());
        assert_eq!(r.in_progress(), 0);
    }

    #[test]
    fn slab_path_matches_vec_path_byte_for_byte() {
        for len in [0usize, 1, 40, 41, 96, 500, 9180] {
            let sdu: Vec<u8> = (0..len).map(|i| (i * 13 % 256) as u8).collect();
            let vec_cells = segment(vc(), &sdu, 0x77);
            let mut slab = CellSlab::new();
            let mut refs = Vec::new();
            segment_into(vc(), &sdu, 0x77, &mut slab, &mut refs);
            assert_eq!(vec_cells.len(), refs.len(), "len {len}");
            for (c, &r) in vec_cells.iter().zip(&refs) {
                assert_eq!(c.as_bytes(), slab.get(r).as_bytes(), "len {len}");
            }
        }
    }

    #[test]
    fn deliver_burst_roundtrip_and_recycle() {
        let sdu: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        let mut slab = CellSlab::new();
        let mut refs = Vec::new();
        segment_burst(vc(), &[&sdu, &sdu], 0x01, &mut slab, &mut refs);
        let mut r = reasm();
        let mut out = Vec::new();
        r.deliver_burst(&refs, &slab, Time::ZERO, &mut out);
        assert_eq!(out.len(), 2);
        for o in out {
            let got = o.expect("valid frame");
            assert_eq!(got.data, sdu);
            r.recycle(got.data);
        }
        assert_eq!(r.completed(), 2);
    }

    #[test]
    fn steady_state_reuses_frame_buffers() {
        let sdu = vec![0x42u8; 1000];
        let mut slab = CellSlab::new();
        let mut r = reasm();
        let mut refs = Vec::new();
        let mut out = Vec::new();
        for _ in 0..20 {
            refs.clear();
            segment_into(vc(), &sdu, 0, &mut slab, &mut refs);
            r.deliver_burst(&refs, &slab, Time::ZERO, &mut out);
            slab.free_all(&refs);
            let got = out.pop().unwrap().unwrap();
            assert_eq!(got.data, sdu);
            r.recycle(got.data);
        }
        // Slab warmed on the first frame, then constant.
        assert_eq!(slab.growth_events(), refs.len() as u64);
        assert_eq!(r.completed(), 20);
    }

    #[test]
    fn buffered_octets_accounting() {
        let cells = segment(vc(), &[1u8; 500], 0);
        let mut r = reasm();
        r.push(&cells[0], Time::ZERO);
        r.push(&cells[1], Time::ZERO);
        assert_eq!(r.buffered_octets(), 96);
    }
}
