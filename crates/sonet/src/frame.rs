//! STS-Nc frame construction and parsing.
//!
//! A frame is 9 rows × 90·N columns of octets, transmitted row-major,
//! every 125 µs. Column layout (this model, locked SPE):
//!
//! ```text
//!  cols 0..3N-1        : transport overhead (TOH)
//!  col  3N             : path overhead (POH): J1,B3,C2,G1,F2,H4,Z3..Z5
//!  cols 3N+1..3N+stuff : fixed stuff (N/3−1 columns, pattern 0x00)
//!  remaining columns   : ATM cell payload
//! ```
//!
//! TOH rows: A1·N, A2·N, J0/Z0·N (row 0 — never scrambled); B1/E1/F1
//! (row 1); D1–D3 (row 2); H1·N, H2·N, H3·N pointer (row 3); B2·N, K1,
//! K2 (row 4); D4–D12 (rows 5–7); S1/M1/E2 (row 8).
//!
//! Parity (computed here exactly as GR-253 defines the coverage):
//!
//! * **B1** — BIP-8 over the *previous* frame after scrambling.
//! * **B2\[i\]** — BIP-8 per STS-1 slice (columns ≡ i mod N) over the
//!   previous frame minus the section-overhead region, before scrambling.
//! * **B3** — BIP-8 over the previous SPE (POH + stuff + payload),
//!   before scrambling.
//!
//! C2 carries 0x13, the code point for ATM cell mapping; H4 carries the
//! offset to the next cell boundary so a receiver *could* shortcut
//! delineation (ours delineates by HEC, as real interfaces did —
//! trusting H4 couples you to the far framer's honesty).

use crate::rates::LineRate;
use crate::scramble::{xor_in, FrameScrambler};
use core::fmt;

/// A1 framing octet.
pub const A1: u8 = 0xF6;
/// A2 framing octet.
pub const A2: u8 = 0x28;
/// C2 code point for ATM mapping.
pub const C2_ATM: u8 = 0x13;
/// H1 octet, first STS-1: normal NDF, pointer value 0 (locked SPE).
pub const H1_LOCKED: u8 = 0x60;
/// H2 octet, first STS-1.
pub const H2_LOCKED: u8 = 0x00;
/// H1 concatenation indication (STS-1s 2..N of an STS-Nc).
pub const H1_CONCAT: u8 = 0x93;
/// H2 concatenation indication.
pub const H2_CONCAT: u8 = 0xFF;

/// Geometry helpers for one line rate.
#[derive(Clone, Copy, Debug)]
pub struct FrameGeometry {
    /// The line rate this geometry describes.
    pub rate: LineRate,
}

impl FrameGeometry {
    /// Geometry for `rate`.
    pub fn new(rate: LineRate) -> Self {
        FrameGeometry { rate }
    }

    /// Octet index of (row, col) in the serialized frame.
    #[inline]
    pub fn index(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < 9 && col < self.rate.columns());
        row * self.rate.columns() + col
    }

    /// Whether `col` is a transport-overhead column.
    #[inline]
    pub fn is_toh(&self, col: usize) -> bool {
        col < self.rate.toh_columns()
    }

    /// The path-overhead column.
    #[inline]
    pub fn poh_col(&self) -> usize {
        self.rate.toh_columns()
    }

    /// Whether `col` is a fixed-stuff column.
    #[inline]
    pub fn is_fixed_stuff(&self, col: usize) -> bool {
        let start = self.poh_col() + 1;
        col >= start && col < start + self.rate.fixed_stuff_columns()
    }

    /// The first payload column; payload runs from here to the end of
    /// every row.
    #[inline]
    pub fn payload_col(&self) -> usize {
        self.poh_col() + 1 + self.rate.fixed_stuff_columns()
    }

    /// Whether `col` carries ATM payload.
    #[inline]
    pub fn is_payload(&self, col: usize) -> bool {
        col >= self.payload_col() && col < self.rate.columns()
    }

    /// Whether octet (row, col) is in the section-overhead region
    /// (rows 0–2 of the TOH columns) — excluded from B2 coverage.
    #[inline]
    pub fn is_soh(&self, row: usize, col: usize) -> bool {
        row < 3 && self.is_toh(col)
    }

    /// Whether octet (row, col) escapes scrambling (row 0 of TOH:
    /// A1/A2/J0 octets).
    #[inline]
    pub fn is_unscrambled(&self, row: usize, col: usize) -> bool {
        row == 0 && self.is_toh(col)
    }

    /// Whether (row, col) is part of the SPE (POH + stuff + payload).
    #[inline]
    pub fn is_spe(&self, col: usize) -> bool {
        col >= self.poh_col()
    }
}

/// BIP-8 of `octets`: their XOR, folded a u64 word at a time.
fn bip8(octets: &[u8]) -> u8 {
    let mut words = octets.chunks_exact(8);
    let wide = words.by_ref().fold(0u64, |acc, w| {
        acc ^ u64::from_le_bytes(w.try_into().expect("8-octet chunk"))
    });
    let tail = words.remainder().iter().fold(0u8, |acc, &b| acc ^ b);
    wide.to_le_bytes().iter().fold(tail, |acc, &b| acc ^ b)
}

/// B3 of an unscrambled frame: BIP-8 over the SPE columns of every row.
fn spe_bip8(geo: FrameGeometry, f: &[u8]) -> u8 {
    let cols = geo.rate.columns();
    f.chunks_exact(cols)
        .fold(0, |acc, row| acc ^ bip8(&row[geo.poh_col()..]))
}

/// Octets in the wide accumulator of [`b2_fold`]: 32 STS-1 slices' worth
/// at the largest rate.
const B2_WIDE: usize = 32 * LineRate::Oc192.sts_n();

/// B2 of an unscrambled frame into `b2` (one octet per STS-1 slice):
/// BIP-8 of the octets in columns ≡ i mod N outside the section
/// overhead. Every covered run starts on a multiple of N, so the runs
/// fold into one accumulator of 32·N octets (octet `j` belongs to slice
/// `j mod N`), which then folds down to N.
fn b2_fold(geo: FrameGeometry, f: &[u8], b2: &mut [u8]) {
    let n = geo.rate.sts_n();
    let toh = geo.rate.toh_columns();
    let cols = geo.rate.columns();
    let mut wide = [0u8; B2_WIDE];
    let wide = &mut wide[..32 * n];
    let mut fold = |run: &[u8]| {
        for chunk in run.chunks(wide.len()) {
            xor_in(wide, chunk);
        }
    };
    // Rows 0–2 minus their TOH columns (the SOH), then rows 3–8 whole.
    for row in f.chunks_exact(cols).take(3) {
        fold(&row[toh..]);
    }
    fold(&f[geo.index(3, 0)..]);
    b2.fill(0);
    for slices in wide.chunks_exact(n) {
        xor_in(b2, slices);
    }
}

/// Apply the frame scrambler to everything but row 0 of the TOH (the
/// first 3N octets, which it clocks past without touching).
fn scramble_frame(rate: LineRate, f: &mut [u8]) {
    let clear = rate.toh_columns();
    FrameScrambler::at(clear).apply(&mut f[clear..]);
}

/// Errors a [`FrameParser`] can report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer length is not one frame at this rate.
    BadSize { expected: usize, got: usize },
    /// A1/A2 pattern not found where expected (out-of-frame).
    BadAlignment,
    /// The pointer octets are neither locked value nor concatenation.
    BadPointer,
    /// C2 does not indicate ATM mapping.
    BadSignalLabel(u8),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadSize { expected, got } => {
                write!(f, "frame size {got}, expected {expected}")
            }
            FrameError::BadAlignment => write!(f, "A1/A2 alignment lost"),
            FrameError::BadPointer => write!(f, "unexpected H1/H2 pointer"),
            FrameError::BadSignalLabel(c2) => write!(f, "C2 {c2:#04x} is not ATM"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Builds successive frames around caller-supplied payload octets.
///
/// Stateful across frames: parity octets describe the *previous* frame,
/// and the J1 path trace increments.
pub struct FrameBuilder {
    geo: FrameGeometry,
    frame_count: u64,
    b1_next: u8,
    b2_next: Vec<u8>,
    b3_next: u8,
}

impl FrameBuilder {
    /// A builder for `rate`. The first frame carries zero parity octets
    /// (nothing preceded it), as a freshly enabled framer would.
    pub fn new(rate: LineRate) -> Self {
        FrameBuilder {
            geo: FrameGeometry::new(rate),
            frame_count: 0,
            b1_next: 0,
            b2_next: vec![0; rate.sts_n()],
            b3_next: 0,
        }
    }

    /// Frames built so far.
    pub fn frames_built(&self) -> u64 {
        self.frame_count
    }

    /// Build one frame. `payload` must be exactly
    /// [`LineRate::payload_octets_per_frame`] octets; `h4_cell_offset` is
    /// the octet offset from the first payload octet of the *next* frame
    /// to the next cell boundary (mod 53).
    pub fn build(&mut self, payload: &[u8], h4_cell_offset: u8) -> Vec<u8> {
        let mut f = Vec::new();
        self.build_into(payload, h4_cell_offset, &mut f);
        f
    }

    /// [`FrameBuilder::build`] into a caller's buffer: `f` is overwritten
    /// with the frame, so a buffer reused frame after frame never
    /// reallocates.
    pub fn build_into(&mut self, payload: &[u8], h4_cell_offset: u8, f: &mut Vec<u8>) {
        let geo = self.geo;
        let rate = geo.rate;
        assert_eq!(
            payload.len(),
            rate.payload_octets_per_frame(),
            "payload must fill the frame exactly"
        );

        f.clear();
        f.resize(rate.frame_octets(), 0);
        self.write_overhead(f, h4_cell_offset);

        // Payload columns: the tail of every row, one slice per row.
        let first = geo.payload_col();
        for (row, src) in f
            .chunks_exact_mut(rate.columns())
            .zip(payload.chunks_exact(rate.payload_columns()))
        {
            row[first..].copy_from_slice(src);
        }

        // Parity for the NEXT frame: B3 over this SPE, B2 per slice over
        // non-SOH octets — both pre-scrambling.
        self.b3_next = spe_bip8(geo, f);
        b2_fold(geo, f, &mut self.b2_next);

        scramble_frame(rate, f);

        // B1 for the next frame: over this frame post-scrambling.
        self.b1_next = bip8(f);
        self.frame_count += 1;
    }

    /// Write the TOH and POH octets of the frame being built into `f`
    /// (all zero on entry).
    fn write_overhead(&self, f: &mut [u8], h4_cell_offset: u8) {
        let geo = self.geo;
        let n = geo.rate.sts_n();

        // Row 0: A1 ×N, A2 ×N, J0/Z0.
        for i in 0..n {
            f[geo.index(0, i)] = A1;
            f[geo.index(0, n + i)] = A2;
            // J0 carries a section trace; Z0 growth octets numbered.
            f[geo.index(0, 2 * n + i)] = if i == 0 { 0x01 } else { 0xCC };
        }
        // Row 1: B1 (parity of previous scrambled frame).
        f[geo.index(1, 0)] = self.b1_next;
        // Row 3: pointer.
        f[geo.index(3, 0)] = H1_LOCKED;
        f[geo.index(3, n)] = H2_LOCKED;
        for i in 1..n {
            f[geo.index(3, i)] = H1_CONCAT;
            f[geo.index(3, n + i)] = H2_CONCAT;
        }
        // Row 4: B2 ×N.
        for i in 0..n {
            f[geo.index(4, i)] = self.b2_next[i];
        }

        // POH column.
        let poh = geo.poh_col();
        f[geo.index(0, poh)] = (self.frame_count & 0x3F) as u8 | 0x40; // J1 trace tick
        f[geo.index(1, poh)] = self.b3_next;
        f[geo.index(2, poh)] = C2_ATM;
        f[geo.index(5, poh)] = h4_cell_offset;
    }
}

/// What a parsed frame yields.
#[derive(Clone, Debug)]
pub struct ParsedFrame {
    /// The extracted ATM payload octets.
    pub payload: Vec<u8>,
    /// Bits mismatching in B1 (0–8); section-layer errors.
    pub b1_errors: u32,
    /// Bits mismatching across all B2 octets; line-layer errors.
    pub b2_errors: u32,
    /// Bits mismatching in B3; path-layer errors.
    pub b3_errors: u32,
    /// The H4 cell-offset octet as received.
    pub h4: u8,
}

/// What a parsed frame's overhead reports: [`ParsedFrame`] without the
/// payload, as [`FrameParser::parse_into`] returns it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FrameOverhead {
    /// Bits mismatching in B1 (0–8); section-layer errors.
    pub b1_errors: u32,
    /// Bits mismatching across all B2 octets; line-layer errors.
    pub b2_errors: u32,
    /// Bits mismatching in B3; path-layer errors.
    pub b3_errors: u32,
    /// The H4 cell-offset octet as received.
    pub h4: u8,
}

/// Parses successive frames, tracking parity across them.
pub struct FrameParser {
    geo: FrameGeometry,
    frames: u64,
    /// Whether a previous frame has set the parity expectations below,
    /// which are compared with the B1/B2/B3 octets the current frame
    /// carries.
    primed: bool,
    b1_expect: u8,
    b2_expect: Vec<u8>,
    b3_expect: u8,
    total_b1_errors: u64,
    total_b2_errors: u64,
    total_b3_errors: u64,
    /// The descrambled frame, reused across frames.
    scratch: Vec<u8>,
}

impl FrameParser {
    /// A parser for `rate`.
    pub fn new(rate: LineRate) -> Self {
        FrameParser {
            geo: FrameGeometry::new(rate),
            frames: 0,
            primed: false,
            b1_expect: 0,
            b2_expect: vec![0; rate.sts_n()],
            b3_expect: 0,
            total_b1_errors: 0,
            total_b2_errors: 0,
            total_b3_errors: 0,
            scratch: Vec::new(),
        }
    }

    /// Frames parsed.
    pub fn frames_parsed(&self) -> u64 {
        self.frames
    }
    /// Cumulative B1 bit errors.
    pub fn total_b1_errors(&self) -> u64 {
        self.total_b1_errors
    }
    /// Cumulative B2 bit errors.
    pub fn total_b2_errors(&self) -> u64 {
        self.total_b2_errors
    }
    /// Cumulative B3 bit errors.
    pub fn total_b3_errors(&self) -> u64 {
        self.total_b3_errors
    }

    /// Parse one aligned frame.
    pub fn parse(&mut self, frame: &[u8]) -> Result<ParsedFrame, FrameError> {
        let mut payload = Vec::new();
        let o = self.parse_into(frame, &mut payload)?;
        Ok(ParsedFrame {
            payload,
            b1_errors: o.b1_errors,
            b2_errors: o.b2_errors,
            b3_errors: o.b3_errors,
            h4: o.h4,
        })
    }

    /// [`FrameParser::parse`] into a caller-owned buffer: the payload is
    /// appended to `payload` (left untouched on error), so a receiver
    /// reusing one buffer parses without allocating.
    pub(crate) fn parse_into(
        &mut self,
        frame: &[u8],
        payload: &mut Vec<u8>,
    ) -> Result<FrameOverhead, FrameError> {
        let geo = self.geo;
        let rate = geo.rate;
        let n = rate.sts_n();
        if frame.len() != rate.frame_octets() {
            return Err(FrameError::BadSize {
                expected: rate.frame_octets(),
                got: frame.len(),
            });
        }

        // Alignment check on the unscrambled row 0.
        if frame[..n].iter().any(|&b| b != A1) || frame[n..2 * n].iter().any(|&b| b != A2) {
            return Err(FrameError::BadAlignment);
        }

        // B1 compares against the received (still-scrambled) previous
        // frame; compute over this frame as received for the next round.
        let b1_of_this = bip8(frame);

        // Descramble into the reused working copy.
        let f = &mut self.scratch;
        f.clear();
        f.extend_from_slice(frame);
        scramble_frame(rate, f);

        // Pointer sanity.
        let h1 = f[geo.index(3, 0)];
        let h2 = f[geo.index(3, n)];
        if (h1, h2) != (H1_LOCKED, H2_LOCKED) {
            return Err(FrameError::BadPointer);
        }
        for i in 1..n {
            if (f[geo.index(3, i)], f[geo.index(3, n + i)]) != (H1_CONCAT, H2_CONCAT) {
                return Err(FrameError::BadPointer);
            }
        }

        let poh = geo.poh_col();
        let c2 = f[geo.index(2, poh)];
        if c2 != C2_ATM {
            return Err(FrameError::BadSignalLabel(c2));
        }
        let h4 = f[geo.index(5, poh)];

        // Parity comparison with what the previous frame predicted.
        let (b1_errors, b2_errors, b3_errors) = if self.primed {
            let b2_at = geo.index(4, 0);
            (
                (self.b1_expect ^ f[geo.index(1, 0)]).count_ones(),
                self.b2_expect
                    .iter()
                    .zip(&f[b2_at..b2_at + n])
                    .map(|(e, b)| (e ^ b).count_ones())
                    .sum(),
                (self.b3_expect ^ f[geo.index(1, poh)]).count_ones(),
            )
        } else {
            (0, 0, 0)
        };

        // This frame's parity, for the next comparison.
        self.primed = true;
        self.b1_expect = b1_of_this;
        self.b3_expect = spe_bip8(geo, f);
        b2_fold(geo, f, &mut self.b2_expect);

        // Extract payload: the tail of every row.
        let first = geo.payload_col();
        payload.reserve(rate.payload_octets_per_frame());
        for row in f.chunks_exact(rate.columns()) {
            payload.extend_from_slice(&row[first..]);
        }

        self.frames += 1;
        self.total_b1_errors += b1_errors as u64;
        self.total_b2_errors += b2_errors as u64;
        self.total_b3_errors += b3_errors as u64;
        Ok(FrameOverhead {
            b1_errors,
            b2_errors,
            b3_errors,
            h4,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scramble::{KEYSTREAM, PERIOD};

    /// The per-octet reference for [`FrameBuilder::build`]: every
    /// octet's class tested against the geometry, parity and scrambling
    /// one octet at a time.
    fn reference_build(b: &mut FrameBuilder, payload: &[u8], h4_cell_offset: u8) -> Vec<u8> {
        let geo = b.geo;
        let rate = geo.rate;
        let n = rate.sts_n();
        let cols = rate.columns();
        assert_eq!(payload.len(), rate.payload_octets_per_frame());
        let mut f = vec![0u8; rate.frame_octets()];
        b.write_overhead(&mut f, h4_cell_offset);

        let mut p = 0;
        for row in 0..9 {
            for col in 0..cols {
                if geo.is_payload(col) {
                    f[geo.index(row, col)] = payload[p];
                    p += 1;
                }
            }
        }
        assert_eq!(p, payload.len());

        let mut b3 = 0u8;
        let mut b2 = vec![0u8; n];
        for row in 0..9 {
            for col in 0..cols {
                let o = f[geo.index(row, col)];
                if geo.is_spe(col) {
                    b3 ^= o;
                }
                if !geo.is_soh(row, col) {
                    b2[col % n] ^= o;
                }
            }
        }
        b.b3_next = b3;
        b.b2_next = b2;

        let mut scr = FrameScrambler::new();
        for row in 0..9 {
            for col in 0..cols {
                let key = scr.next_octet();
                if !geo.is_unscrambled(row, col) {
                    f[geo.index(row, col)] ^= key;
                }
            }
        }

        b.b1_next = f.iter().fold(0, |a, &o| a ^ o);
        b.frame_count += 1;
        f
    }

    /// The per-octet reference for [`FrameParser::parse`].
    fn reference_parse(p: &mut FrameParser, frame: &[u8]) -> Result<ParsedFrame, FrameError> {
        let geo = p.geo;
        let rate = geo.rate;
        let n = rate.sts_n();
        let cols = rate.columns();
        if frame.len() != rate.frame_octets() {
            return Err(FrameError::BadSize {
                expected: rate.frame_octets(),
                got: frame.len(),
            });
        }
        for i in 0..n {
            if frame[geo.index(0, i)] != A1 || frame[geo.index(0, n + i)] != A2 {
                return Err(FrameError::BadAlignment);
            }
        }
        let b1_of_this = frame.iter().fold(0, |a, &o| a ^ o);

        let mut f = frame.to_vec();
        let mut scr = FrameScrambler::new();
        for row in 0..9 {
            for col in 0..cols {
                let key = scr.next_octet();
                if !geo.is_unscrambled(row, col) {
                    f[geo.index(row, col)] ^= key;
                }
            }
        }

        if (f[geo.index(3, 0)], f[geo.index(3, n)]) != (H1_LOCKED, H2_LOCKED) {
            return Err(FrameError::BadPointer);
        }
        for i in 1..n {
            if (f[geo.index(3, i)], f[geo.index(3, n + i)]) != (H1_CONCAT, H2_CONCAT) {
                return Err(FrameError::BadPointer);
            }
        }
        let poh = geo.poh_col();
        let c2 = f[geo.index(2, poh)];
        if c2 != C2_ATM {
            return Err(FrameError::BadSignalLabel(c2));
        }
        let h4 = f[geo.index(5, poh)];

        let (b1_errors, b2_errors, b3_errors) = if p.primed {
            (
                (p.b1_expect ^ f[geo.index(1, 0)]).count_ones(),
                (0..n)
                    .map(|i| (p.b2_expect[i] ^ f[geo.index(4, i)]).count_ones())
                    .sum(),
                (p.b3_expect ^ f[geo.index(1, poh)]).count_ones(),
            )
        } else {
            (0, 0, 0)
        };

        let mut b3 = 0u8;
        let mut b2 = vec![0u8; n];
        for row in 0..9 {
            for col in 0..cols {
                let o = f[geo.index(row, col)];
                if geo.is_spe(col) {
                    b3 ^= o;
                }
                if !geo.is_soh(row, col) {
                    b2[col % n] ^= o;
                }
            }
        }
        p.primed = true;
        p.b1_expect = b1_of_this;
        p.b2_expect = b2;
        p.b3_expect = b3;

        let mut payload = Vec::new();
        for row in 0..9 {
            for col in 0..cols {
                if geo.is_payload(col) {
                    payload.push(f[geo.index(row, col)]);
                }
            }
        }

        p.frames += 1;
        p.total_b1_errors += b1_errors as u64;
        p.total_b2_errors += b2_errors as u64;
        p.total_b3_errors += b3_errors as u64;
        Ok(ParsedFrame {
            payload,
            b1_errors,
            b2_errors,
            b3_errors,
            h4,
        })
    }

    /// Tiny deterministic generator (xorshift).
    struct Xs(u64);

    impl Xs {
        fn new(seed: u64) -> Self {
            Xs(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
        }
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn assert_same_builder(a: &FrameBuilder, b: &FrameBuilder, what: &str) {
        assert_eq!(a.frame_count, b.frame_count, "{what}");
        assert_eq!(a.b1_next, b.b1_next, "B1 {what}");
        assert_eq!(a.b2_next, b.b2_next, "B2 {what}");
        assert_eq!(a.b3_next, b.b3_next, "B3 {what}");
    }

    fn assert_same_parser(a: &FrameParser, b: &FrameParser, what: &str) {
        assert_eq!(a.frames, b.frames, "{what}");
        assert_eq!(a.primed, b.primed, "{what}");
        assert_eq!(a.b1_expect, b.b1_expect, "B1 {what}");
        assert_eq!(a.b2_expect, b.b2_expect, "B2 {what}");
        assert_eq!(a.b3_expect, b.b3_expect, "B3 {what}");
        assert_eq!(a.total_b1_errors, b.total_b1_errors, "B1 total {what}");
        assert_eq!(a.total_b2_errors, b.total_b2_errors, "B2 total {what}");
        assert_eq!(a.total_b3_errors, b.total_b3_errors, "B3 total {what}");
    }

    /// Damage `frame`: random octets anywhere, or aimed at the A1/A2,
    /// pointer, C2, B1/B2/B3 and H4 octets so every error path and
    /// parity counter is reached.
    fn corrupt(rng: &mut Xs, geo: FrameGeometry, frame: &mut [u8]) {
        let n = geo.rate.sts_n();
        let poh = geo.poh_col();
        for _ in 0..1 + rng.below(3) {
            let idx = match rng.below(8) {
                0 => geo.index(0, rng.below(2 * n)),
                1 => geo.index(3, rng.below(2 * n)),
                2 => geo.index(2, poh),
                3 => geo.index(1, 0),
                4 => geo.index(4, rng.below(n)),
                5 => geo.index(1 + 4 * rng.below(2), poh),
                _ => rng.below(frame.len()),
            };
            frame[idx] ^= (1 << rng.below(8)) | (rng.next() as u8 & rng.next() as u8);
        }
    }

    #[test]
    fn slice_build_and_parse_match_the_per_octet_reference() {
        let rates = [
            LineRate::Oc3,
            LineRate::Oc12,
            LineRate::Oc48,
            LineRate::Oc192,
        ];
        // Outcomes seen: parity errors reported, then each error variant.
        let mut seen = [0u32; 5];
        for (r, &rate) in rates.iter().enumerate() {
            let geo = FrameGeometry::new(rate);
            let frames = if rate == LineRate::Oc192 { 6 } else { 24 };
            for seed in 0..3u64 {
                let mut rng = Xs::new(seed * 10 + r as u64);
                let (mut fast_b, mut ref_b) = (FrameBuilder::new(rate), FrameBuilder::new(rate));
                let (mut fast_p, mut ref_p) = (FrameParser::new(rate), FrameParser::new(rate));
                let mut into = Vec::new();
                for k in 0..frames {
                    let what = format!("{rate:?} seed {seed} frame {k}");
                    let payload: Vec<u8> = (0..rate.payload_octets_per_frame())
                        .map(|_| rng.next() as u8)
                        .collect();
                    let h4 = rng.below(53) as u8;
                    let frame = fast_b.build(&payload, h4);
                    assert_eq!(frame, reference_build(&mut ref_b, &payload, h4), "{what}");
                    assert_same_builder(&fast_b, &ref_b, &what);

                    let mut rx = frame;
                    match rng.below(4) {
                        0 => corrupt(&mut rng, geo, &mut rx),
                        1 if k % 7 == 3 => rx.truncate(rng.below(rx.len())),
                        _ => {}
                    }
                    let fast = fast_p.parse(&rx);
                    let slow = reference_parse(&mut ref_p, &rx);
                    match (&fast, &slow) {
                        (Ok(a), Ok(b)) => {
                            seen[0] += (a.b1_errors + a.b2_errors + a.b3_errors > 0) as u32;
                            assert_eq!(a.payload, b.payload, "{what}");
                            assert_eq!(
                                (a.b1_errors, a.b2_errors, a.b3_errors, a.h4),
                                (b.b1_errors, b.b2_errors, b.b3_errors, b.h4),
                                "{what}"
                            );
                        }
                        (Err(a), Err(b)) => {
                            seen[1 + match a {
                                FrameError::BadSize { .. } => 0,
                                FrameError::BadAlignment => 1,
                                FrameError::BadPointer => 2,
                                FrameError::BadSignalLabel(_) => 3,
                            }] += 1;
                            assert_eq!(a, b, "{what}");
                        }
                        _ => panic!("{what}: {fast:?} vs {slow:?}"),
                    }
                    assert_same_parser(&fast_p, &ref_p, &what);

                    // `parse_into` appends the same payload and leaves the
                    // buffer alone on error.
                    let mut again = FrameParser::new(rate);
                    into.clear();
                    into.push(0xA5);
                    match again.parse_into(&rx, &mut into) {
                        Ok(_) => assert_eq!(&into[1..], &fast.as_ref().unwrap().payload[..]),
                        Err(e) => {
                            assert_eq!(Err(e), fast.as_ref().map(|_| ()).map_err(|e| *e));
                            assert_eq!(into, [0xA5]);
                        }
                    }
                }
            }
        }
        assert!(
            seen.iter().all(|&k| k > 0),
            "outcomes not all reached: {seen:?}"
        );
    }

    fn payload_for(rate: LineRate, seed: u8) -> Vec<u8> {
        (0..rate.payload_octets_per_frame())
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn roundtrip_payload_oc3() {
        roundtrip_payload(LineRate::Oc3);
    }

    #[test]
    fn roundtrip_payload_oc12() {
        roundtrip_payload(LineRate::Oc12);
    }

    fn roundtrip_payload(rate: LineRate) {
        let mut b = FrameBuilder::new(rate);
        let mut p = FrameParser::new(rate);
        for seed in 0..5u8 {
            let payload = payload_for(rate, seed);
            let frame = b.build(&payload, seed);
            let parsed = p.parse(&frame).expect("clean frame parses");
            assert_eq!(parsed.payload, payload, "seed {seed}");
            assert_eq!(parsed.h4, seed);
            assert_eq!(parsed.b1_errors, 0);
            assert_eq!(parsed.b2_errors, 0);
            assert_eq!(parsed.b3_errors, 0);
        }
        assert_eq!(p.frames_parsed(), 5);
    }

    #[test]
    fn frame_has_framing_pattern_in_clear() {
        let mut b = FrameBuilder::new(LineRate::Oc3);
        let frame = b.build(&payload_for(LineRate::Oc3, 0), 0);
        assert_eq!(&frame[0..3], &[A1, A1, A1]);
        assert_eq!(&frame[3..6], &[A2, A2, A2]);
    }

    #[test]
    fn scrambled_region_differs_from_plaintext() {
        // Statistical smoke test: payload octets on the wire should not
        // equal the plaintext payload (except rare coincidences).
        let mut b = FrameBuilder::new(LineRate::Oc3);
        let payload = vec![0u8; LineRate::Oc3.payload_octets_per_frame()];
        let frame = b.build(&payload, 0);
        let nonzero = frame[270..].iter().filter(|&&x| x != 0).count();
        assert!(
            nonzero > 1500,
            "scrambling must whiten zeros, got {nonzero}"
        );
    }

    #[test]
    fn corrupted_payload_bit_shows_in_b1_b2_b3() {
        let rate = LineRate::Oc3;
        let mut b = FrameBuilder::new(rate);
        let mut p = FrameParser::new(rate);
        let f0 = b.build(&payload_for(rate, 0), 0);
        p.parse(&f0).unwrap();
        // Corrupt one payload bit of frame 1, then parse frame 2 to see
        // the parity report (parity for frame k is carried in frame k+1).
        let mut f1 = b.build(&payload_for(rate, 1), 0);
        let geo = FrameGeometry::new(rate);
        let idx = geo.index(5, geo.poh_col() + 5); // a payload octet
        f1[idx] ^= 0x10;
        p.parse(&f1).unwrap();
        let f2 = b.build(&payload_for(rate, 2), 0);
        let parsed = p.parse(&f2).unwrap();
        assert_eq!(parsed.b1_errors, 1, "B1 covers everything");
        assert_eq!(parsed.b2_errors, 1, "payload is in B2 coverage");
        assert_eq!(parsed.b3_errors, 1, "payload is in the SPE");
    }

    #[test]
    fn corrupted_soh_octet_shows_only_in_b1() {
        let rate = LineRate::Oc3;
        let mut b = FrameBuilder::new(rate);
        let mut p = FrameParser::new(rate);
        p.parse(&b.build(&payload_for(rate, 0), 0)).unwrap();
        let mut f1 = b.build(&payload_for(rate, 1), 0);
        let geo = FrameGeometry::new(rate);
        f1[geo.index(2, 1)] ^= 0x01; // D-channel octet in SOH (scrambled, but B2/B3-exempt)
        p.parse(&f1).unwrap();
        let parsed = p.parse(&b.build(&payload_for(rate, 2), 0)).unwrap();
        assert_eq!(parsed.b1_errors, 1);
        assert_eq!(parsed.b2_errors, 0, "SOH is outside B2 coverage");
        assert_eq!(parsed.b3_errors, 0, "SOH is outside the SPE");
    }

    #[test]
    fn bad_alignment_detected() {
        let mut b = FrameBuilder::new(LineRate::Oc3);
        let mut frame = b.build(&payload_for(LineRate::Oc3, 0), 0);
        frame[0] = 0x00;
        let mut p = FrameParser::new(LineRate::Oc3);
        assert!(matches!(p.parse(&frame), Err(FrameError::BadAlignment)));
    }

    #[test]
    fn bad_size_detected() {
        let mut p = FrameParser::new(LineRate::Oc3);
        let err = p.parse(&[0u8; 100]).unwrap_err();
        assert!(matches!(
            err,
            FrameError::BadSize {
                expected: 2430,
                got: 100
            }
        ));
    }

    #[test]
    fn c2_must_be_atm() {
        let rate = LineRate::Oc3;
        let mut b = FrameBuilder::new(rate);
        let mut frame = b.build(&payload_for(rate, 0), 0);
        // Set C2 to 0xFF pre-scramble: XOR in the keystream octet of its
        // position.
        let geo = FrameGeometry::new(rate);
        let idx = geo.index(2, geo.poh_col());
        frame[idx] = 0xFF ^ KEYSTREAM[idx % PERIOD];
        let mut p = FrameParser::new(rate);
        assert!(matches!(
            p.parse(&frame),
            Err(FrameError::BadSignalLabel(0xFF))
        ));
    }

    #[test]
    fn geometry_classification_partitions_columns() {
        for rate in [LineRate::Oc3, LineRate::Oc12] {
            let geo = FrameGeometry::new(rate);
            let mut toh = 0;
            let mut poh = 0;
            let mut stuff = 0;
            let mut pay = 0;
            for col in 0..rate.columns() {
                let classes = [
                    geo.is_toh(col),
                    col == geo.poh_col(),
                    geo.is_fixed_stuff(col),
                    geo.is_payload(col),
                ];
                assert_eq!(
                    classes.iter().filter(|&&c| c).count(),
                    1,
                    "column {col} must be exactly one class"
                );
                if classes[0] {
                    toh += 1
                } else if classes[1] {
                    poh += 1
                } else if classes[2] {
                    stuff += 1
                } else {
                    pay += 1
                }
            }
            assert_eq!(toh, rate.toh_columns());
            assert_eq!(poh, 1);
            assert_eq!(stuff, rate.fixed_stuff_columns());
            assert_eq!(pay, rate.payload_columns());
        }
    }
}
