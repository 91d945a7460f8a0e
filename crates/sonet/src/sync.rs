//! Receiver frame alignment: finding the 125 µs frame boundary in a raw
//! octet stream by hunting for the A1…A1 A2…A2 pattern.
//!
//! Mirrors the cell-delineation philosophy one layer down: HUNT scans
//! octet-by-octet for the framing pattern; PRESYNC demands the pattern
//! repeat at exactly one frame spacing before trusting it; SYNC slices
//! frames and tolerates occasional pattern misses (the pattern octets are
//! not error-protected) up to a loss-of-frame threshold.
//!
//! This model is octet-aligned (a real SONET receiver also resolves bit
//! alignment; our links deliver octets, so bit-phase is out of scope).

use crate::frame::{A1, A2};
use crate::rates::LineRate;

/// Consecutive confirmed frames in PRESYNC before declaring SYNC.
pub const PRESYNC_CONFIRM: u32 = 2;
/// Consecutive missed patterns in SYNC before declaring loss of frame.
pub const LOF_THRESHOLD: u32 = 4;

/// Frame alignment state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameSyncState {
    /// Scanning for the framing pattern.
    Hunt,
    /// Pattern found once; confirming at frame spacing.
    Presync {
        /// Confirmations so far.
        confirmed: u32,
    },
    /// In frame. `misses` is the current run of absent patterns.
    Sync {
        /// Consecutive frames whose pattern octets did not match.
        misses: u32,
    },
}

/// Octet-stream frame aligner. Feed arbitrary chunks; complete aligned
/// frames come out.
pub struct FrameAligner {
    rate: LineRate,
    state: FrameSyncState,
    buf: Vec<u8>,
    acquisitions: u64,
    losses: u64,
    frames_emitted: u64,
}

impl FrameAligner {
    /// An aligner for `rate`, in HUNT.
    pub fn new(rate: LineRate) -> Self {
        FrameAligner {
            rate,
            state: FrameSyncState::Hunt,
            buf: Vec::new(),
            acquisitions: 0,
            losses: 0,
            frames_emitted: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> FrameSyncState {
        self.state
    }
    /// Whether frame alignment is established.
    pub fn is_synced(&self) -> bool {
        matches!(self.state, FrameSyncState::Sync { .. })
    }
    /// Times alignment has been acquired.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }
    /// Times alignment has been lost.
    pub fn losses(&self) -> u64 {
        self.losses
    }
    /// Frames emitted.
    pub fn frames_emitted(&self) -> u64 {
        self.frames_emitted
    }

    fn pattern_at(&self, pos: usize) -> bool {
        pattern_at(&self.buf, pos, self.rate.sts_n())
    }

    /// The SYNC step for one frame-length slice: check its pattern and
    /// update the state. Returns whether the frame is delivered; it is
    /// consumed either way.
    fn sync_step(&mut self, misses: u32, frame: &[u8]) -> bool {
        if pattern_at(frame, 0, self.rate.sts_n()) {
            self.state = FrameSyncState::Sync { misses: 0 };
        } else if misses + 1 >= LOF_THRESHOLD {
            self.losses += 1;
            self.state = FrameSyncState::Hunt;
            return false;
        } else {
            // Tolerate the miss: slice on last known alignment and
            // still deliver.
            self.state = FrameSyncState::Sync { misses: misses + 1 };
        }
        self.frames_emitted += 1;
        true
    }

    /// Feed octets; complete frames (each exactly one frame long,
    /// starting at the first A1) are appended to `out`.
    pub fn push(&mut self, bytes: &[u8], out: &mut Vec<Vec<u8>>) {
        self.push_each(bytes, |frame| out.push(frame.to_vec()));
    }

    /// [`FrameAligner::push`] without a copy per frame: each complete
    /// frame is handed to `emit` as a slice. In SYNC with nothing
    /// buffered — the steady state when whole frames arrive — frames are
    /// sliced straight out of `bytes`, and only what is left over is
    /// buffered.
    pub(crate) fn push_each(&mut self, mut bytes: &[u8], mut emit: impl FnMut(&[u8])) {
        let flen = self.rate.frame_octets();
        if self.buf.is_empty() {
            while let FrameSyncState::Sync { misses } = self.state {
                if bytes.len() < flen {
                    break;
                }
                let (frame, rest) = bytes.split_at(flen);
                if self.sync_step(misses, frame) {
                    emit(frame);
                }
                bytes = rest;
            }
        }
        self.buf.extend_from_slice(bytes);
        loop {
            match self.state {
                FrameSyncState::Hunt => {
                    let n = self.rate.sts_n();
                    // Scan for the pattern.
                    let mut found = None;
                    if self.buf.len() >= 2 * n {
                        for pos in 0..=(self.buf.len() - 2 * n) {
                            if self.pattern_at(pos) {
                                found = Some(pos);
                                break;
                            }
                        }
                    }
                    match found {
                        Some(pos) => {
                            self.buf.drain(..pos);
                            self.state = FrameSyncState::Presync { confirmed: 0 };
                        }
                        None => {
                            // Keep only a tail that could prefix a pattern.
                            let keep = (2 * n).saturating_sub(1).min(self.buf.len());
                            let cut = self.buf.len() - keep;
                            self.buf.drain(..cut);
                            return;
                        }
                    }
                }
                FrameSyncState::Presync { confirmed } => {
                    // Need the candidate frame plus the next pattern.
                    if self.buf.len() < flen + 2 * self.rate.sts_n() {
                        return;
                    }
                    if self.pattern_at(flen) {
                        let confirmed = confirmed + 1;
                        // The candidate frame is consumed without delivery
                        // (alignment not yet trusted).
                        self.buf.drain(..flen);
                        if confirmed >= PRESYNC_CONFIRM {
                            self.state = FrameSyncState::Sync { misses: 0 };
                            self.acquisitions += 1;
                        } else {
                            self.state = FrameSyncState::Presync { confirmed };
                        }
                    } else {
                        // False alignment: slip one octet and re-hunt.
                        self.buf.drain(..1);
                        self.state = FrameSyncState::Hunt;
                    }
                }
                FrameSyncState::Sync { misses } => {
                    if self.buf.len() < flen {
                        return;
                    }
                    let buf = std::mem::take(&mut self.buf);
                    if self.sync_step(misses, &buf[..flen]) {
                        emit(&buf[..flen]);
                    }
                    self.buf = buf;
                    self.buf.drain(..flen);
                }
            }
        }
    }
}

/// Whether the A1…A1 A2…A2 pattern of an STS-`n` frame starts at
/// `buf[pos]`.
fn pattern_at(buf: &[u8], pos: usize, n: usize) -> bool {
    if pos + 2 * n > buf.len() {
        return false;
    }
    buf[pos..pos + n].iter().all(|&b| b == A1) && buf[pos + n..pos + 2 * n].iter().all(|&b| b == A2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBuilder;

    fn frames(rate: LineRate, count: usize) -> Vec<Vec<u8>> {
        let mut b = FrameBuilder::new(rate);
        (0..count)
            .map(|i| {
                let payload: Vec<u8> = (0..rate.payload_octets_per_frame())
                    .map(|j| ((i * 7 + j) % 256) as u8)
                    .collect();
                b.build(&payload, 0)
            })
            .collect()
    }

    #[test]
    fn aligns_on_clean_stream() {
        let rate = LineRate::Oc3;
        let fs = frames(rate, 8);
        let stream: Vec<u8> = fs.iter().flatten().copied().collect();
        let mut a = FrameAligner::new(rate);
        let mut out = Vec::new();
        a.push(&stream, &mut out);
        assert!(a.is_synced());
        // Each PRESYNC confirmation peeks the NEXT frame's pattern and
        // consumes the current frame, so exactly PRESYNC_CONFIRM frames
        // are eaten; frames 2..7 delivered.
        assert_eq!(out.len(), 8 - PRESYNC_CONFIRM as usize);
        assert_eq!(out[0], fs[PRESYNC_CONFIRM as usize]);
    }

    #[test]
    fn aligns_from_mid_stream_offset() {
        let rate = LineRate::Oc3;
        let fs = frames(rate, 10);
        let mut stream: Vec<u8> = fs.iter().flatten().copied().collect();
        // Chop 1000 octets off the front: we start mid-frame.
        stream.drain(..1000);
        let mut a = FrameAligner::new(rate);
        let mut out = Vec::new();
        a.push(&stream, &mut out);
        assert!(a.is_synced());
        assert!(!out.is_empty());
        // Every delivered frame must start with the pattern.
        for f in &out {
            assert_eq!(&f[..3], &[A1, A1, A1]);
            assert_eq!(&f[3..6], &[A2, A2, A2]);
        }
    }

    #[test]
    fn delivery_in_arbitrary_chunks() {
        let rate = LineRate::Oc3;
        let fs = frames(rate, 8);
        let stream: Vec<u8> = fs.iter().flatten().copied().collect();
        let mut a = FrameAligner::new(rate);
        let mut out = Vec::new();
        // Push in awkward chunk sizes.
        for chunk in stream.chunks(731) {
            a.push(chunk, &mut out);
        }
        assert!(a.is_synced());
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn tolerates_sub_threshold_pattern_misses() {
        let rate = LineRate::Oc3;
        let mut fs = frames(rate, 10);
        // Corrupt the A1 octets of one mid-stream frame.
        fs[6][0] ^= 0xFF;
        let stream: Vec<u8> = fs.iter().flatten().copied().collect();
        let mut a = FrameAligner::new(rate);
        let mut out = Vec::new();
        a.push(&stream, &mut out);
        assert!(a.is_synced(), "one miss must not drop alignment");
        assert_eq!(out.len(), 8); // frames 2..9 delivered, incl. the damaged one
        assert_eq!(a.losses(), 0);
    }

    #[test]
    fn loses_frame_after_threshold_and_reacquires() {
        let rate = LineRate::Oc3;
        let fs = frames(rate, 6);
        let stream: Vec<u8> = fs.iter().flatten().copied().collect();
        let mut a = FrameAligner::new(rate);
        let mut out = Vec::new();
        a.push(&stream, &mut out);
        assert!(a.is_synced());
        // Garbage with no pattern, longer than LOF_THRESHOLD frames.
        let garbage = vec![0x55u8; rate.frame_octets() * (LOF_THRESHOLD as usize + 1)];
        a.push(&garbage, &mut out);
        assert!(!a.is_synced());
        assert_eq!(a.losses(), 1);
        // Clean frames again: reacquire.
        let fs2 = frames(rate, 6);
        let stream2: Vec<u8> = fs2.iter().flatten().copied().collect();
        a.push(&stream2, &mut out);
        assert!(a.is_synced());
        assert_eq!(a.acquisitions(), 2);
    }

    #[test]
    fn hunt_keeps_pattern_prefix_across_chunks() {
        // The pattern split across two pushes must still be found.
        let rate = LineRate::Oc3;
        let fs = frames(rate, 5);
        let stream: Vec<u8> = fs.iter().flatten().copied().collect();
        let mut a = FrameAligner::new(rate);
        let mut out = Vec::new();
        // Push garbage ending with half the pattern, then the rest.
        let mut part1 = vec![0x11u8; 97];
        part1.extend_from_slice(&stream[..4]); // A1 A1 A1 A2
        a.push(&part1, &mut out);
        a.push(&stream[4..], &mut out);
        assert!(a.is_synced());
    }

    /// The aligner as it was before frames were sliced out of the input:
    /// every octet is copied into the buffer, and frames are emitted
    /// from it and drained.
    fn reference_push(a: &mut FrameAligner, bytes: &[u8], out: &mut Vec<Vec<u8>>) {
        a.buf.extend_from_slice(bytes);
        loop {
            match a.state {
                FrameSyncState::Hunt => {
                    let n = a.rate.sts_n();
                    let mut found = None;
                    if a.buf.len() >= 2 * n {
                        for pos in 0..=(a.buf.len() - 2 * n) {
                            if a.pattern_at(pos) {
                                found = Some(pos);
                                break;
                            }
                        }
                    }
                    match found {
                        Some(pos) => {
                            a.buf.drain(..pos);
                            a.state = FrameSyncState::Presync { confirmed: 0 };
                        }
                        None => {
                            let keep = (2 * n).saturating_sub(1).min(a.buf.len());
                            let cut = a.buf.len() - keep;
                            a.buf.drain(..cut);
                            return;
                        }
                    }
                }
                FrameSyncState::Presync { confirmed } => {
                    let flen = a.rate.frame_octets();
                    if a.buf.len() < flen + 2 * a.rate.sts_n() {
                        return;
                    }
                    if a.pattern_at(flen) {
                        let confirmed = confirmed + 1;
                        a.buf.drain(..flen);
                        if confirmed >= PRESYNC_CONFIRM {
                            a.state = FrameSyncState::Sync { misses: 0 };
                            a.acquisitions += 1;
                        } else {
                            a.state = FrameSyncState::Presync { confirmed };
                        }
                    } else {
                        a.buf.drain(..1);
                        a.state = FrameSyncState::Hunt;
                    }
                }
                FrameSyncState::Sync { misses } => {
                    let flen = a.rate.frame_octets();
                    if a.buf.len() < flen {
                        return;
                    }
                    if a.pattern_at(0) {
                        a.state = FrameSyncState::Sync { misses: 0 };
                        a.frames_emitted += 1;
                        out.push(a.buf[..flen].to_vec());
                    } else {
                        let misses = misses + 1;
                        if misses >= LOF_THRESHOLD {
                            a.losses += 1;
                            a.state = FrameSyncState::Hunt;
                        } else {
                            a.state = FrameSyncState::Sync { misses };
                            a.frames_emitted += 1;
                            out.push(a.buf[..flen].to_vec());
                        }
                    }
                    a.buf.drain(..flen);
                }
            }
        }
    }

    /// A tiny xorshift generator (the crate has no RNG dependency).
    struct Xs(u64);

    impl Xs {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Seeded line streams with damaged framing octets, slips (octets
    /// lost or inserted), garbage long enough to lose frame, and random
    /// chunkings, including whole-frame chunks on and off the frame
    /// boundary: the slicing aligner emits the same frames and keeps
    /// the same state and counters as the copying reference after every
    /// push. The slice path is taken and frame alignment is lost.
    #[test]
    fn slicing_aligner_matches_the_copying_reference() {
        let (mut sliced_pushes, mut losses) = (0, 0);
        for (r, rate) in [LineRate::Oc3, LineRate::Oc12].into_iter().enumerate() {
            let flen = rate.frame_octets();
            for seed in 0..6u64 {
                let mut rng = Xs((seed * 2 + r as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut stream = Vec::new();
                for f in frames(rate, 40) {
                    let mut f = f;
                    match rng.below(10) {
                        0 => f[rng.below(2 * rate.sts_n())] ^= 1 << rng.below(8),
                        1 => {
                            let at = rng.below(f.len());
                            f.drain(at..at + 1 + rng.below(4).min(f.len() - at - 1));
                        }
                        2 => {
                            let at = rng.below(f.len());
                            f.splice(at..at, (0..1 + rng.below(4)).map(|i| i as u8));
                        }
                        3 if rng.below(4) == 0 => {
                            stream.extend((0..flen * (LOF_THRESHOLD as usize + 1)).map(|i| i as u8))
                        }
                        _ => {}
                    }
                    stream.extend_from_slice(&f);
                }
                let (mut fast, mut slow) = (FrameAligner::new(rate), FrameAligner::new(rate));
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let mut at = 0;
                while at < stream.len() {
                    let len = match rng.below(4) {
                        // Up to a frame boundary of the aligner's buffer,
                        // so the next chunk can take the slice path.
                        0 => flen * (1 + rng.below(2)) - fast.buf.len() % flen,
                        1 => flen * (1 + rng.below(3)),
                        _ => 1 + rng.below(3 * flen),
                    };
                    let chunk = &stream[at..(at + len).min(stream.len())];
                    at += chunk.len();
                    sliced_pushes +=
                        (fast.is_synced() && fast.buf.is_empty() && chunk.len() >= flen) as u32;
                    fast.push(chunk, &mut got);
                    reference_push(&mut slow, chunk, &mut want);
                    let what = format!("{rate:?} seed {seed} at {at}");
                    assert!(got == want, "frames differ, {what}");
                    assert_eq!(fast.state(), slow.state(), "{what}");
                    assert_eq!(fast.buf, slow.buf, "{what}");
                    assert_eq!(
                        (fast.acquisitions(), fast.losses(), fast.frames_emitted()),
                        (slow.acquisitions(), slow.losses(), slow.frames_emitted()),
                        "{what}"
                    );
                }
                losses += fast.losses();
            }
        }
        assert!(sliced_pushes > 0, "the slice path never ran");
        assert!(losses > 0, "no stream lost frame alignment");
    }
}
