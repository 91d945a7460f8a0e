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
//! Reassembly is per-VC. Cell interleaving across frames on one VC is
//! impossible in AAL5 by construction (no MID field), which the error
//! taxonomy reflects. The per-frame work is one kernel, [`Aal5Kernel`]
//! over [`Aal5Frame`]; [`Aal5Reassembler`] keeps its frames by VC, and a
//! NIC can keep them by the connection index its CAM returns.

use crate::crc::Crc32Accumulator;
use crate::{ReassembledSdu, ReassemblyError, ReassemblyFailure, ReassemblyOutcome};
use hni_atm::{
    Cell, CellRef, CellSlab, HeaderRepr, Pti, VcId, VcTable, CELL_SIZE, HEADER_SIZE, PAYLOAD_SIZE,
};
use hni_sim::{Duration, Time};

/// CPCS trailer size in octets.
pub const TRAILER_SIZE: usize = 8;
/// Largest SDU AAL5 can carry (16-bit length field; 0 means 65536 is NOT
/// used here — we follow the common convention that 0 marks an abort).
pub const MAX_SDU: usize = 65535;
/// Cells in the largest possible CPCS-PDU.
pub const MAX_CELLS: usize = (MAX_SDU + TRAILER_SIZE).div_ceil(PAYLOAD_SIZE); // 1366

/// Reassembly buffers the pool may keep even if fewer were ever out at
/// once.
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
        let mut bytes = [0u8; CELL_SIZE];
        bytes[..HEADER_SIZE].copy_from_slice(header);
        bytes[HEADER_SIZE..].copy_from_slice(payload);
        cells.push(Cell::from_bytes(bytes));
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
        let bytes = cell.as_bytes_mut();
        bytes[..HEADER_SIZE].copy_from_slice(header);
        bytes[HEADER_SIZE..].copy_from_slice(payload);
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

/// The segmentation core: emits each cell as its 5 header octets and
/// 48 payload octets through `emit`. Both the `Vec<Cell>` path and the
/// slab path share this, which is what makes them byte-identical by
/// construction.
///
/// Per-SDU work is done once, as the paper's transmit assists do it:
/// both headers (mid-frame, and end-of-frame with the PTI user bit set)
/// are encoded with their HEC before the first cell. Every full cell
/// of SDU octets then goes out as one 48-octet slice, its CRC-32 folded
/// on the way; only the last one or two cells are assembled, from the
/// SDU tail, the zero pad and the trailer.
fn segment_with(
    vc: VcId,
    sdu: &[u8],
    uu: u8,
    mut emit: impl FnMut(&[u8; HEADER_SIZE], &[u8; PAYLOAD_SIZE]),
) {
    assert!(sdu.len() <= MAX_SDU, "SDU exceeds AAL5 maximum");
    let [mid, end] = [false, true].map(|last| {
        let mut h = [0u8; HEADER_SIZE];
        HeaderRepr::data(vc, last)
            .emit(&mut h)
            .expect("UNI header for user VC is always encodable");
        h
    });

    // Whole cells of SDU octets: never the last cell, which always
    // holds the trailer.
    let mut crc = Crc32Accumulator::new();
    let mut cells = sdu.chunks_exact(PAYLOAD_SIZE);
    for chunk in &mut cells {
        crc.update(chunk);
        emit(
            &mid,
            chunk.try_into().expect("chunks_exact yields whole cells"),
        );
    }

    // The SDU tail, zero pad and trailer fill one or two more cells.
    // CRC covers SDU ∥ pad ∥ the first 4 trailer octets.
    let tail = cells.remainder();
    let n = (tail.len() + TRAILER_SIZE).div_ceil(PAYLOAD_SIZE) * PAYLOAD_SIZE;
    let mut last = [0u8; 2 * PAYLOAD_SIZE];
    last[..tail.len()].copy_from_slice(tail);
    let trailer = &mut last[n - TRAILER_SIZE..n];
    trailer[0] = uu;
    trailer[1] = 0; // CPI: must be 0
    trailer[2..4].copy_from_slice(&(sdu.len() as u16).to_be_bytes());
    crc.update(&last[..n - 4]);
    last[n - 4..n].copy_from_slice(&crc.finish().to_be_bytes());
    let (first, second) = last.split_at(PAYLOAD_SIZE);
    if n == PAYLOAD_SIZE {
        emit(&end, first.try_into().expect("one cell"));
    } else {
        emit(&mid, first.try_into().expect("one cell"));
        emit(&end, second.try_into().expect("one cell"));
    }
}

/// Total CPCS-PDU length (a multiple of 48) for an SDU of `len` octets.
pub fn cpcs_pdu_len(len: usize) -> usize {
    (len + TRAILER_SIZE).div_ceil(PAYLOAD_SIZE) * PAYLOAD_SIZE
}

/// One AAL5 frame under reassembly: the CPCS-PDU octets received so
/// far, the CRC-32 folded over them one cell at a time, and when the
/// first cell arrived.
///
/// Frames are created by [`Aal5Kernel::open`] and fed by
/// [`Aal5Kernel::push`]; where they live — keyed by VC in an
/// [`Aal5Reassembler`], or by connection index in a NIC's own arena —
/// is the container's business.
#[derive(Debug)]
pub struct Aal5Frame {
    buf: Vec<u8>,
    crc: Crc32Accumulator,
    started_at: Time,
}

impl Aal5Frame {
    /// Octets buffered so far.
    pub fn buffered_octets(&self) -> usize {
        self.buf.len()
    }
}

/// The AAL5 receive kernel every frame container shares: the size
/// limit, the timeout, completion and failure counts, a pool of spare
/// frame buffers, and the per-cell step.
///
/// The per-cell step is tiny, as in the paper's receive engine: copy
/// the payload, fold it into the frame's CRC-32 while it is hot, and
/// only on the end-of-frame cell read the trailer. Failures are ranked
/// as they always were: an oversize frame fails `TooLong` as soon as it
/// passes the limit, before any CRC check, and a bad CRC-32 wins over a
/// bad length.
#[derive(Debug)]
pub struct Aal5Kernel {
    max_sdu: usize,
    /// Largest legal CPCS-PDU for `max_sdu`.
    limit: usize,
    timeout: Duration,
    completed: u64,
    failed: u64,
    /// Retired frame buffers kept warm for reuse: a steady-state stream
    /// of frames allocates nothing per frame once the pool has seen the
    /// working set. Completed SDUs leave with their buffer; callers on
    /// the fast path hand it back via [`Aal5Kernel::recycle`].
    spare: Vec<Vec<u8>>,
    /// Buffers out of the pool — in frames, or with delivered SDUs not
    /// yet recycled — and the most ever out at once. The pool keeps up
    /// to that many (at least [`SPARE_POOL_LIMIT`]), so it settles at
    /// the working set instead of dropping buffers a later burst needs.
    lent: usize,
    peak_lent: usize,
}

impl Aal5Kernel {
    /// A kernel accepting SDUs up to `max_sdu` octets and abandoning
    /// frames older than `timeout`.
    pub fn new(max_sdu: usize, timeout: Duration) -> Self {
        let max_sdu = max_sdu.min(MAX_SDU);
        Aal5Kernel {
            max_sdu,
            limit: cpcs_pdu_len(max_sdu),
            timeout,
            completed: 0,
            failed: 0,
            spare: Vec::new(),
            lent: 0,
            peak_lent: 0,
        }
    }

    /// Start a frame whose first cell arrives at `now`.
    pub fn open(&mut self, now: Time) -> Aal5Frame {
        self.lent += 1;
        self.peak_lent = self.peak_lent.max(self.lent);
        Aal5Frame {
            buf: self.spare.pop().unwrap_or_default(),
            crc: Crc32Accumulator::new(),
            started_at: now,
        }
    }

    /// Fold one user-data cell's 48-octet `payload` into `frame`; `last`
    /// is the cell's PTI end-of-frame bit. Returns `None` while the
    /// frame goes on. `Some` means the frame has ended, delivered or
    /// failed: its buffer has left with the SDU or gone back to the pool,
    /// and the caller must drop `frame`.
    ///
    /// # Panics
    /// If `payload` is not 48 octets.
    pub fn push(
        &mut self,
        frame: &mut Aal5Frame,
        vc: VcId,
        payload: &[u8],
        last: bool,
    ) -> ReassemblyOutcome {
        let payload: &[u8; PAYLOAD_SIZE] = payload.try_into().expect("a cell payload is 48 octets");
        frame.buf.extend_from_slice(payload);
        if frame.buf.len() > self.limit {
            return Some(Err(self.fail(frame, vc, ReassemblyError::TooLong)));
        }
        if !last {
            frame.crc.update(payload);
            return None;
        }

        // End of frame: the CRC covers all but its own 4 octets.
        frame.crc.update(&payload[..PAYLOAD_SIZE - 4]);
        let trailer = &payload[PAYLOAD_SIZE - TRAILER_SIZE..];
        let uu = trailer[0];
        let length = u16::from_be_bytes([trailer[2], trailer[3]]) as usize;
        let stored_crc = u32::from_be_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);
        if frame.crc.finish() != stored_crc {
            return Some(Err(self.fail(frame, vc, ReassemblyError::Crc32)));
        }
        // Length must reconstruct the same number of cells: the pad is
        // 0..47, i.e. length + 8 must round up to exactly the PDU.
        if length > self.max_sdu || cpcs_pdu_len(length) != frame.buf.len() {
            return Some(Err(self.fail(frame, vc, ReassemblyError::LengthMismatch)));
        }
        self.completed += 1;
        // Truncate in place: the SDU leaves with the frame buffer (same
        // bytes as a copy, no allocation); `recycle` brings it back.
        let mut data = std::mem::take(&mut frame.buf);
        data.truncate(length);
        Some(Ok(ReassembledSdu {
            vc,
            mid: 0,
            data,
            user_to_user: uu,
        }))
    }

    /// Abandon `frame` for `error` (a timeout, or its connection
    /// closing), returning its buffer to the pool.
    pub fn abandon(
        &mut self,
        mut frame: Aal5Frame,
        vc: VcId,
        error: ReassemblyError,
    ) -> ReassemblyFailure {
        self.fail(&mut frame, vc, error)
    }

    fn fail(
        &mut self,
        frame: &mut Aal5Frame,
        vc: VcId,
        error: ReassemblyError,
    ) -> ReassemblyFailure {
        self.failed += 1;
        let buf = std::mem::take(&mut frame.buf);
        let discarded_octets = buf.len();
        self.recycle(buf);
        ReassemblyFailure {
            vc,
            mid: 0,
            error,
            discarded_octets,
        }
    }

    /// Whether `frame`'s first cell arrived more than the timeout
    /// before `now`.
    pub fn is_expired(&self, frame: &Aal5Frame, now: Time) -> bool {
        now.saturating_since(frame.started_at) > self.timeout
    }

    /// Hand an SDU buffer (from a delivered [`ReassembledSdu`]) back for
    /// reuse. Optional — dropping the buffer is always correct — but the
    /// zero-alloc steady state needs the working set to circulate.
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        self.lent = self.lent.saturating_sub(1);
        if self.spare.len() < self.peak_lent.max(SPARE_POOL_LIMIT) {
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
}

/// AAL5 reassembler for any number of VCs: [`Aal5Kernel`] frames kept
/// per VC.
///
/// Offer every user-data cell via [`Aal5Reassembler::push`]; call
/// [`Aal5Reassembler::expire`] periodically to enforce the reassembly
/// timeout. Statistics count completions and every failure class.
pub struct Aal5Reassembler {
    /// Per-VC frame state in the sharded open-addressing table, keyed
    /// on the packed 24-bit cam key — the same structure the CAM model
    /// uses, so a million in-progress VCs cost flat lookups and ~bytes,
    /// not `HashMap` buckets.
    vcs: VcTable<Aal5Frame>,
    kernel: Aal5Kernel,
}

impl Aal5Reassembler {
    /// A reassembler accepting SDUs up to `max_sdu` octets and abandoning
    /// frames older than `timeout`.
    pub fn new(max_sdu: usize, timeout: Duration) -> Self {
        Aal5Reassembler {
            vcs: VcTable::new(),
            kernel: Aal5Kernel::new(max_sdu, timeout),
        }
    }

    /// Hand an SDU buffer (from a delivered [`ReassembledSdu`]) back for
    /// reuse; see [`Aal5Kernel::recycle`].
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.kernel.recycle(buf);
    }

    /// Frames successfully delivered.
    pub fn completed(&self) -> u64 {
        self.kernel.completed()
    }
    /// Frames abandoned (all causes).
    pub fn failed(&self) -> u64 {
        self.kernel.failed()
    }
    /// VCs with a frame currently in progress.
    pub fn in_progress(&self) -> usize {
        self.vcs.len()
    }
    /// Octets currently buffered across all VCs.
    pub fn buffered_octets(&self) -> usize {
        self.vcs.iter().map(|(_, f)| f.buffered_octets()).sum()
    }

    /// Probe/memory statistics of the backing [`VcTable`].
    pub fn table_stats(&self) -> hni_atm::TableStats {
        self.vcs.stats()
    }

    /// Offer one cell. Returns a completed SDU, a failure report, or
    /// nothing (mid-frame).
    pub fn push(&mut self, cell: &Cell, now: Time) -> ReassemblyOutcome {
        let Ok(header) = cell.header() else {
            return None; // undecodable header: not ours to count
        };
        let Pti::UserData { last, .. } = header.pti else {
            return None; // OAM/RM cells don't participate in reassembly
        };
        let vc = header.vc();
        let key = vc.cam_key() as u64;
        let kernel = &mut self.kernel;
        let (_, frame) = self
            .vcs
            .get_or_insert_with(key, || kernel.open(now))
            .expect("unbounded table never refuses");
        let outcome = kernel.push(frame, vc, cell.payload(), last);
        if outcome.is_some() {
            self.vcs.remove(key);
        }
        outcome
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
        let frame = self.vcs.remove(vc.cam_key() as u64)?;
        Some(
            self.kernel
                .abandon(frame, vc, ReassemblyError::ConnectionClosed),
        )
    }

    /// Abandon every frame whose first cell arrived more than the timeout
    /// ago. Returns one failure report per abandoned frame, in ascending
    /// cam-key order ([`VcId::cam_key`]).
    pub fn expire(&mut self, now: Time) -> Vec<ReassemblyFailure> {
        let kernel = &self.kernel;
        let mut expired: Vec<u64> = self
            .vcs
            .iter()
            .filter(|(_, f)| kernel.is_expired(f, now))
            .map(|(key, _)| key)
            .collect();
        expired.sort_unstable();
        expired
            .into_iter()
            .map(|key| {
                let frame = self.vcs.remove(key).expect("key from iteration");
                let vc = VcId::new((key >> 16) as u16, key as u16);
                self.kernel.abandon(frame, vc, ReassemblyError::Timeout)
            })
            .collect()
    }
}

/// The octet-by-octet segmenter and the whole-PDU-CRC reassembler that
/// [`segment_with`] and [`Aal5Kernel`] replaced, kept as oracles.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::crc::crc32;

    /// All-zero pad source (the pad is at most 47 octets).
    const ZERO_PAD: [u8; PAYLOAD_SIZE] = [0u8; PAYLOAD_SIZE];

    /// Segmentation with a header encode per cell and every payload
    /// octet chosen through a three-way branch.
    pub fn segment(vc: VcId, sdu: &[u8], uu: u8) -> Vec<Cell> {
        assert!(sdu.len() <= MAX_SDU, "SDU exceeds AAL5 maximum");
        let total = cpcs_pdu_len(sdu.len());
        let n_cells = total / PAYLOAD_SIZE;
        let pad = total - sdu.len() - TRAILER_SIZE;

        let mut crc = Crc32Accumulator::new();
        crc.update(sdu);
        crc.update(&ZERO_PAD[..pad]);
        let mut trailer = [0u8; TRAILER_SIZE];
        trailer[0] = uu;
        trailer[1] = 0;
        trailer[2] = (sdu.len() >> 8) as u8;
        trailer[3] = sdu.len() as u8;
        crc.update(&trailer[..4]);
        let c = crc.finish();
        trailer[4..].copy_from_slice(&c.to_be_bytes());

        let mut cells = Vec::new();
        let mut payload = [0u8; PAYLOAD_SIZE];
        for i in 0..n_cells {
            let start = i * PAYLOAD_SIZE;
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
            cells.push(Cell::new(&HeaderRepr::data(vc, last), &payload).unwrap());
        }
        cells
    }

    struct VcState {
        buf: Vec<u8>,
        started_at: Time,
    }

    /// Reassembly that buffers the whole PDU and runs CRC-32 over it at
    /// end of frame.
    pub struct Reassembler {
        vcs: VcTable<VcState>,
        max_sdu: usize,
        timeout: Duration,
        pub completed: u64,
        pub failed: u64,
    }

    impl Reassembler {
        pub fn new(max_sdu: usize, timeout: Duration) -> Self {
            Reassembler {
                vcs: VcTable::new(),
                max_sdu: max_sdu.min(MAX_SDU),
                timeout,
                completed: 0,
                failed: 0,
            }
        }

        pub fn in_progress(&self) -> usize {
            self.vcs.len()
        }

        pub fn buffered_octets(&self) -> usize {
            self.vcs.iter().map(|(_, s)| s.buf.len()).sum()
        }

        fn failure(
            &mut self,
            vc: VcId,
            error: ReassemblyError,
            discarded: usize,
        ) -> ReassemblyFailure {
            self.failed += 1;
            ReassemblyFailure {
                vc,
                mid: 0,
                error,
                discarded_octets: discarded,
            }
        }

        pub fn push(&mut self, cell: &Cell, now: Time) -> ReassemblyOutcome {
            let header = cell.header().ok()?;
            if !header.pti.is_user_data() {
                return None;
            }
            let vc = header.vc();
            let key = vc.cam_key() as u64;
            let (_, state) = self
                .vcs
                .get_or_insert_with(key, || VcState {
                    buf: Vec::new(),
                    started_at: now,
                })
                .unwrap();
            state.buf.extend_from_slice(cell.payload());
            if state.buf.len() > cpcs_pdu_len(self.max_sdu) {
                let n = self.vcs.remove(key).unwrap().buf.len();
                return Some(Err(self.failure(vc, ReassemblyError::TooLong, n)));
            }
            if !header.pti.is_last() {
                return None;
            }
            let mut pdu = self.vcs.remove(key).unwrap().buf;
            let trailer = &pdu[pdu.len() - TRAILER_SIZE..];
            let uu = trailer[0];
            let length = ((trailer[2] as usize) << 8) | trailer[3] as usize;
            let stored_crc = u32::from_be_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);
            if crc32(&pdu[..pdu.len() - 4]) != stored_crc {
                return Some(Err(self.failure(vc, ReassemblyError::Crc32, pdu.len())));
            }
            if length > self.max_sdu || cpcs_pdu_len(length) != pdu.len() {
                let n = pdu.len();
                return Some(Err(self.failure(vc, ReassemblyError::LengthMismatch, n)));
            }
            self.completed += 1;
            pdu.truncate(length);
            Some(Ok(ReassembledSdu {
                vc,
                mid: 0,
                data: pdu,
                user_to_user: uu,
            }))
        }

        pub fn abandon(&mut self, vc: VcId) -> Option<ReassemblyFailure> {
            let s = self.vcs.remove(vc.cam_key() as u64)?;
            Some(self.failure(vc, ReassemblyError::ConnectionClosed, s.buf.len()))
        }

        /// Timeouts in ascending cam-key order, the order the reassembler
        /// documents (table order, before).
        pub fn expire(&mut self, now: Time) -> Vec<ReassemblyFailure> {
            let timeout = self.timeout;
            let mut expired: Vec<u64> = self
                .vcs
                .iter()
                .filter(|(_, s)| now.saturating_since(s.started_at) > timeout)
                .map(|(key, _)| key)
                .collect();
            expired.sort_unstable();
            expired
                .into_iter()
                .map(|key| {
                    let n = self.vcs.remove(key).unwrap().buf.len();
                    let vc = VcId::new((key >> 16) as u16, key as u16);
                    self.failure(vc, ReassemblyError::Timeout, n)
                })
                .collect()
        }
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

    /// Every length up to 2100 octets (all tail shapes, many times
    /// over), the boundary cases, and 40 random lengths up to the
    /// maximum, each with a random `uu` and VC: `segment` and
    /// `segment_into` both equal the per-octet reference, byte for byte.
    #[test]
    fn segmentation_matches_the_per_octet_reference() {
        let mut rng = hni_sim::Rng::new(0xA115);
        let mut lens: Vec<usize> = (0..=2100).collect();
        lens.extend([9180, 65_534, MAX_SDU]);
        lens.extend((0..40).map(|_| rng.below(MAX_SDU as u64 + 1) as usize));
        let mut slab = CellSlab::new();
        let mut refs = Vec::new();
        for len in lens {
            let sdu: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let uu = rng.next_u64() as u8;
            let vc = VcId::new(rng.below(256) as u16, rng.next_u64() as u16);
            let want = reference::segment(vc, &sdu, uu);
            assert!(segment(vc, &sdu, uu) == want, "segment, len {len}");
            refs.clear();
            segment_into(vc, &sdu, uu, &mut slab, &mut refs);
            assert_eq!(refs.len(), want.len(), "segment_into, len {len}");
            for (i, (&r, w)) in refs.iter().zip(&want).enumerate() {
                assert_eq!(slab.get(r), w, "segment_into, len {len}, cell {i}");
            }
            slab.free_all(&refs);
        }
    }

    /// Re-encode the frame in `cells` with `length` in its trailer and a
    /// CRC-32 that matches, so only the length check can refuse it.
    fn forge_length(cells: &mut [Cell], length: u16) {
        let mut pdu: Vec<u8> = cells.iter().flat_map(|c| c.payload().to_vec()).collect();
        let n = pdu.len();
        pdu[n - 6..n - 4].copy_from_slice(&length.to_be_bytes());
        let crc = crate::crc::crc32(&pdu[..n - 4]);
        pdu[n - 4..].copy_from_slice(&crc.to_be_bytes());
        for (c, p) in cells.iter_mut().zip(pdu.chunks_exact(PAYLOAD_SIZE)) {
            c.payload_mut().copy_from_slice(p);
        }
    }

    /// One frame's cells on `vc` with a seeded hazard: a lost cell, a
    /// lost end-of-frame cell (the frame merges with the next), payload
    /// damage, a forged length, an OAM or RM cell in the middle, or a
    /// header damaged past decoding. One frame in eight is oversize.
    fn hazard_frame(rng: &mut hni_sim::Rng, vc: VcId, max_sdu: usize) -> Vec<Cell> {
        let len = match rng.below(8) {
            0 => max_sdu + 1 + rng.below(600) as usize,
            1 => rng.below(100) as usize,
            _ => rng.below(max_sdu as u64 + 1) as usize,
        };
        let sdu: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut cells = segment(vc, &sdu, rng.next_u64() as u8);
        let at = rng.below(cells.len() as u64) as usize;
        match rng.below(12) {
            0 => {
                cells.remove(at);
            }
            1 => {
                cells.pop();
            }
            2 => cells[at].payload_mut()[rng.below(48) as usize] ^= 1 << rng.below(8),
            3 => forge_length(&mut cells, rng.next_u64() as u16),
            4 | 5 => {
                let pti = [Pti::OamSegment, Pti::OamEndToEnd, Pti::ResourceManagement]
                    [rng.below(3) as usize];
                let header = HeaderRepr {
                    pti,
                    ..HeaderRepr::data(vc, false)
                };
                cells.insert(at, Cell::new(&header, &[0x6A; PAYLOAD_SIZE]).unwrap());
            }
            6 => cells[at].as_bytes_mut()[rng.below(5) as usize] ^= 1 << rng.below(8),
            _ => {}
        }
        cells
    }

    /// Interleaved hazard frames on four VCs, with connection closes and
    /// timeout scans between cells: the kernel-backed reassembler and
    /// the whole-PDU reference agree on every outcome, every failure
    /// report (reason, VC, octets) and every counter, and each outcome
    /// class occurs.
    #[test]
    fn kernel_matches_the_whole_pdu_reference_under_hazards() {
        let vcs = [
            VcId::new(0, 32),
            VcId::new(0, 33),
            VcId::new(1, 32),
            VcId::new(200, 65_000),
        ];
        let (max_sdu, timeout) = (1500, Duration::from_us(300));
        let mut seen = std::collections::BTreeMap::new();
        for seed in 0..24 {
            let mut rng = hni_sim::Rng::new(seed);
            let mut fast = Aal5Reassembler::new(max_sdu, timeout);
            let mut slow = reference::Reassembler::new(max_sdu, timeout);
            let mut queues: Vec<Vec<Cell>> = vec![Vec::new(); vcs.len()];
            let mut now = Time::ZERO;
            for step in 0..2500 {
                let what = format!("seed {seed} step {step}");
                let v = rng.below(vcs.len() as u64) as usize;
                while queues[v].is_empty() {
                    queues[v] = hazard_frame(&mut rng, vcs[v], max_sdu);
                    queues[v].reverse();
                }
                let cell = queues[v].pop().expect("refilled");
                now += Duration::from_ns(rng.below(4000));
                let got = fast.push(&cell, now);
                assert_eq!(got, slow.push(&cell, now), "{what}");
                let class = match &got {
                    None => "mid-frame".to_string(),
                    Some(Ok(_)) => "delivered".to_string(),
                    Some(Err(f)) => format!("{:?}", f.error),
                };
                *seen.entry(class).or_insert(0u32) += 1;
                if let Some(Ok(sdu)) = got {
                    fast.recycle(sdu.data);
                }
                match rng.below(300) {
                    0 => {
                        let vc = vcs[rng.below(vcs.len() as u64) as usize];
                        let got = fast.abandon(vc);
                        assert_eq!(got, slow.abandon(vc), "{what}");
                        if got.is_some() {
                            *seen.entry("ConnectionClosed".into()).or_insert(0) += 1;
                        }
                    }
                    1..=3 => {
                        let got = fast.expire(now);
                        assert_eq!(got, slow.expire(now), "{what}");
                        *seen.entry("Timeout".into()).or_insert(0) += got.len() as u32;
                    }
                    _ => {}
                }
                assert_eq!(fast.in_progress(), slow.in_progress(), "{what}");
                assert_eq!(fast.buffered_octets(), slow.buffered_octets(), "{what}");
            }
            assert_eq!(fast.completed(), slow.completed, "seed {seed}");
            assert_eq!(fast.failed(), slow.failed, "seed {seed}");
        }
        for class in [
            "delivered",
            "Crc32",
            "LengthMismatch",
            "TooLong",
            "Timeout",
            "ConnectionClosed",
        ] {
            assert!(
                seen.get(class).copied().unwrap_or(0) > 0,
                "{class} never occurred: {seen:?}"
            );
        }
    }

    /// Timeouts come out in ascending cam-key order, whatever order the
    /// frames were opened in.
    #[test]
    fn expire_reports_in_cam_key_order() {
        let mut r = Aal5Reassembler::new(MAX_SDU, Duration::from_us(10));
        let vcs = [
            VcId::new(3, 1),
            VcId::new(0, 900),
            VcId::new(0, 2),
            VcId::new(1, 0),
        ];
        for &vc in &vcs {
            r.push(&segment(vc, &[0; 100], 0)[0], Time::ZERO);
        }
        let order: Vec<VcId> = r.expire(Time::from_us(20)).iter().map(|f| f.vc).collect();
        let mut want = vcs.to_vec();
        want.sort_by_key(|vc| vc.cam_key());
        assert_eq!(order, want);
    }
}
