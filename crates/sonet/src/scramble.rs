//! The frame-synchronous section scrambler, 1 + x⁶ + x⁷ (GR-253 §5.3).
//!
//! Unlike the self-synchronising cell-payload scrambler, this one is a
//! free-running PRBS of period 127 that restarts with every frame;
//! everything except the first row of section overhead (A1/A2/J0) is
//! scrambled. In this model the sequence starts from all-ones at the
//! frame's first octet and runs past the 3·N row-0 TOH octets without
//! touching them (GR-253 restarts it at the octet after the last J0/Z0;
//! both ends of the model agree, so only the phase differs). Because it
//! is frame-synchronous, transmitter and receiver apply the *same*
//! sequence — scrambling and descrambling are the same operation.

/// Period of the 1 + x⁶ + x⁷ sequence in bits. Since it restarts at
/// every frame and 8·127 is a multiple of 127, it is also the period of
/// the octet keystream.
pub(crate) const PERIOD: usize = 127;

/// One period of the keystream, octet by octet, starting from the
/// all-ones state: octet `i` of a frame's sequence is
/// `KEYSTREAM[i % PERIOD]`. No LFSR runs at line rate; the tests
/// regenerate the table with the bit-serial register.
pub(crate) const KEYSTREAM: [u8; PERIOD] = [
    0xFE, 0x04, 0x18, 0x51, 0xE4, 0x59, 0xD4, 0xFA, 0x1C, 0x49, 0xB5, 0xBD, 0x8D, 0x2E, 0xE6, 0x55,
    0xFC, 0x08, 0x30, 0xA3, 0xC8, 0xB3, 0xA9, 0xF4, 0x38, 0x93, 0x6B, 0x7B, 0x1A, 0x5D, 0xCC, 0xAB,
    0xF8, 0x10, 0x61, 0x47, 0x91, 0x67, 0x53, 0xE8, 0x71, 0x26, 0xD6, 0xF6, 0x34, 0xBB, 0x99, 0x57,
    0xF0, 0x20, 0xC2, 0x8F, 0x22, 0xCE, 0xA7, 0xD0, 0xE2, 0x4D, 0xAD, 0xEC, 0x69, 0x77, 0x32, 0xAF,
    0xE0, 0x41, 0x85, 0x1E, 0x45, 0x9D, 0x4F, 0xA1, 0xC4, 0x9B, 0x5B, 0xD8, 0xD2, 0xEE, 0x65, 0x5F,
    0xC0, 0x83, 0x0A, 0x3C, 0x8B, 0x3A, 0x9F, 0x43, 0x89, 0x36, 0xB7, 0xB1, 0xA5, 0xDC, 0xCA, 0xBF,
    0x81, 0x06, 0x14, 0x79, 0x16, 0x75, 0x3E, 0x87, 0x12, 0x6D, 0x6F, 0x63, 0x4B, 0xB9, 0x95, 0x7F,
    0x02, 0x0C, 0x28, 0xF2, 0x2C, 0xEA, 0x7D, 0x0E, 0x24, 0xDA, 0xDE, 0xC6, 0x97, 0x73, 0x2A,
];

/// Frame-synchronous scrambler/descrambler: a position in one period
/// of the keystream, which is a constant table.
#[derive(Clone, Debug, Default)]
pub struct FrameScrambler {
    pos: usize,
}

impl FrameScrambler {
    /// A scrambler ready for the start of a frame's scrambled region
    /// (state = all ones).
    pub fn new() -> Self {
        Self::at(0)
    }

    /// A scrambler `offset` octets into a frame's sequence.
    pub(crate) fn at(offset: usize) -> Self {
        FrameScrambler {
            pos: offset % PERIOD,
        }
    }

    /// Reset to the all-ones state (do this at each frame boundary).
    pub fn reset(&mut self) {
        self.pos = 0;
    }

    /// Next octet of the scrambling sequence.
    #[inline]
    pub fn next_octet(&mut self) -> u8 {
        let key = KEYSTREAM[self.pos];
        self.pos = (self.pos + 1) % PERIOD;
        key
    }

    /// Scramble (or descramble — same operation) a buffer in place.
    pub fn apply(&mut self, buf: &mut [u8]) {
        // Up to the end of the current period, then whole periods.
        let head = (PERIOD - self.pos).min(buf.len());
        let (head, rest) = buf.split_at_mut(head);
        xor_in(head, &KEYSTREAM[self.pos..]);
        self.pos = (self.pos + head.len()) % PERIOD;
        for chunk in rest.chunks_mut(PERIOD) {
            xor_in(chunk, &KEYSTREAM);
            self.pos = chunk.len() % PERIOD;
        }
    }
}

/// `buf[i] ^= key[i]` over the shorter of the two.
#[inline]
pub(crate) fn xor_in(buf: &mut [u8], key: &[u8]) {
    for (b, k) in buf.iter_mut().zip(key) {
        *b ^= k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-serial reference: the 7-bit 1 + x⁶ + x⁷ register from
    /// the all-ones state, one clock per bit. Returns `octets` octets.
    fn reference_sequence(octets: usize) -> Vec<u8> {
        let mut state = 0x7Fu8;
        (0..octets)
            .map(|_| {
                let mut out = 0u8;
                for _ in 0..8 {
                    // Output bit is the MSB of the state; feedback
                    // x⁷+x⁶+1: new bit = bit6 ⊕ bit5.
                    out = (out << 1) | ((state >> 6) & 1);
                    let fb = ((state >> 6) ^ (state >> 5)) & 1;
                    state = ((state << 1) | fb) & 0x7F;
                }
                out
            })
            .collect()
    }

    #[test]
    fn keystream_table_matches_the_register() {
        // Three periods: the table, read cyclically, is the register's
        // output octet for octet.
        let reference = reference_sequence(3 * PERIOD);
        let mut s = FrameScrambler::new();
        let table: Vec<u8> = (0..3 * PERIOD).map(|_| s.next_octet()).collect();
        assert_eq!(table, reference);
        assert_eq!(&reference[..PERIOD], &KEYSTREAM);
    }

    #[test]
    fn apply_matches_octet_by_octet_from_any_offset() {
        let data: Vec<u8> = (0..2000).map(|i| (i * 89 % 256) as u8).collect();
        let reference = reference_sequence(4000);
        for offset in [0, 1, 9, 126, 127, 128, 300] {
            for len in [0, 1, 7, 126, 127, 128, 254, 1000, 2000] {
                let mut buf = data[..len].to_vec();
                let mut s = FrameScrambler::at(offset);
                s.apply(&mut buf);
                let want: Vec<u8> = data[..len]
                    .iter()
                    .zip(&reference[offset..])
                    .map(|(d, k)| d ^ k)
                    .collect();
                assert_eq!(buf, want, "offset {offset} len {len}");
                // The position carries across calls.
                assert_eq!(
                    s.next_octet(),
                    reference[offset + len],
                    "offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn involution() {
        let original: Vec<u8> = (0..300).map(|i| (i * 89 % 256) as u8).collect();
        let mut buf = original.clone();
        let mut s = FrameScrambler::new();
        s.apply(&mut buf);
        assert_ne!(buf, original);
        let mut d = FrameScrambler::new();
        d.apply(&mut buf);
        assert_eq!(buf, original);
    }

    #[test]
    fn sequence_period_127() {
        // The register's bit sequence repeats every 127 clocks, and it
        // is maximal length: 2^(n-1) = 64 ones per period.
        let bits: Vec<u8> = reference_sequence(254 / 8 + 1)
            .iter()
            .flat_map(|&o| (0..8).rev().map(move |i| (o >> i) & 1))
            .take(254)
            .collect();
        assert_eq!(&bits[..127], &bits[127..254]);
        let ones: u32 = bits[..127].iter().map(|&b| b as u32).sum();
        assert_eq!(ones, 64);
        // So the octet keystream repeats every 127 octets.
        let octets = reference_sequence(2 * PERIOD);
        assert_eq!(&octets[..PERIOD], &octets[PERIOD..]);
    }

    #[test]
    fn first_octet_known_value() {
        // State all-ones: first 8 output bits are 1111111 then the 8th
        // from feedback; the canonical first scrambler octet is 0xFE.
        let mut s = FrameScrambler::new();
        assert_eq!(s.next_octet(), 0xFE);
    }

    #[test]
    fn reset_restarts_sequence() {
        let mut s = FrameScrambler::new();
        let a = s.next_octet();
        s.next_octet();
        s.reset();
        assert_eq!(s.next_octet(), a);
    }
}
