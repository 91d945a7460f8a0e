//! The x⁴³ + 1 self-synchronising payload scrambler (ITU-T I.432.1).
//!
//! In SDH-based transmission the 48-octet cell *payload* is scrambled
//! before transmission so that user data cannot counterfeit the header
//! patterns that cell delineation locks onto, and to guarantee bit
//! transitions for the line. The scrambler is *self-synchronising*: the
//! transmitter XORs each input bit with its own output from 43 bits ago;
//! the descrambler XORs each received bit with the *received* stream from
//! 43 bits ago. After any corruption or resynchronisation, the
//! descrambler recovers as soon as 43 clean bits have passed — no state
//! exchange required. The price of self-synchronisation is error
//! multiplication: one line bit error corrupts two descrambled bits
//! (the direct hit, and its echo 43 bits later).
//!
//! Bits are processed MSB-first within each octet, matching the ATM/SONET
//! transmission order.

/// Length of the scrambler shift register, in bits.
pub const REGISTER_BITS: u32 = 43;

/// The register's live bits.
const MASK: u64 = (1 << REGISTER_BITS) - 1;

/// How far the register sits below the top of a 64-bit word: the first
/// 43 bits of a word take their keys from the register, the last 21
/// from the word's own first 21 bits, 43 positions earlier.
const WORD_LAG: u32 = 64 - REGISTER_BITS;

/// 43-bit shift register: bit 0 is the most recent bit, bit 42 the bit
/// from 43 clocks ago (the feedback tap).
///
/// Each output bit is its input XORed with the bit 43 clocks back, so
/// the keys for the next `k ≤ 43` bits (first-transmitted first) are the
/// register's top `k` bits in order, and for a 64-bit word the register
/// shifted up by [`WORD_LAG`]. The scrambler and the descrambler both
/// read their keys here, so register width and tap position can never
/// diverge between the two sides.
#[derive(Clone, Copy, Debug, Default)]
struct Register(u64);

impl Register {
    /// The keys for the next 8 bits, first-transmitted bit most
    /// significant.
    #[inline]
    fn octet_key(self) -> u8 {
        (self.0 >> (REGISTER_BITS - 8)) as u8
    }

    /// The keys for the first 43 bits of the next 64-bit word, in its
    /// top 43 bits.
    #[inline]
    fn word_key(self) -> u64 {
        self.0 << WORD_LAG
    }

    /// Shift 8 new bits in, first-transmitted bit most significant.
    #[inline]
    fn shift_in_octet(&mut self, octet: u8) {
        self.0 = ((self.0 << 8) | octet as u64) & MASK;
    }

    /// Shift a whole 64-bit word in: only its last 43 bits remain.
    #[inline]
    fn shift_in_word(&mut self, word: u64) {
        self.0 = word & MASK;
    }
}

/// Transmit-side scrambler.
#[derive(Clone, Debug, Default)]
pub struct Scrambler {
    reg: Register,
}

impl Scrambler {
    /// New scrambler with an all-zero register.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scramble a buffer in place: output = input ⊕ (own output 43 bits
    /// ago), a 64-bit word per step, then octet by octet for the tail.
    pub fn scramble(&mut self, buf: &mut [u8]) {
        let mut words = buf.chunks_exact_mut(8);
        for word in &mut words {
            let w = u64::from_be_bytes((&*word).try_into().expect("8-octet chunk"));
            // First 43 bits against the register; the last 21 against
            // the word's own first 21 output bits, which `t` already
            // holds final.
            let t = w ^ self.reg.word_key();
            let out = t ^ (t >> REGISTER_BITS);
            self.reg.shift_in_word(out);
            word.copy_from_slice(&out.to_be_bytes());
        }
        for byte in words.into_remainder() {
            let out = *byte ^ self.reg.octet_key();
            self.reg.shift_in_octet(out);
            *byte = out;
        }
    }
}

/// Receive-side descrambler.
#[derive(Clone, Debug, Default)]
pub struct Descrambler {
    reg: Register,
}

impl Descrambler {
    /// New descrambler with an all-zero register.
    pub fn new() -> Self {
        Self::default()
    }

    /// Descramble a buffer in place: output = received ⊕ (received 43
    /// bits ago) — the register holds the *received* stream, so every
    /// key is known before the word is touched.
    pub fn descramble(&mut self, buf: &mut [u8]) {
        let mut words = buf.chunks_exact_mut(8);
        for word in &mut words {
            let rx = u64::from_be_bytes((&*word).try_into().expect("8-octet chunk"));
            let key = self.reg.word_key() | (rx >> REGISTER_BITS);
            self.reg.shift_in_word(rx);
            word.copy_from_slice(&(rx ^ key).to_be_bytes());
        }
        for byte in words.into_remainder() {
            let rx = *byte;
            *byte = rx ^ self.reg.octet_key();
            self.reg.shift_in_octet(rx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-serial reference: one register clock per bit, as I.432.1
    /// draws the circuit. The word-step paths must match it bit for bit.
    impl Register {
        /// The feedback tap: the bit shifted in [`REGISTER_BITS`] clocks
        /// ago.
        fn tap(&self) -> u8 {
            ((self.0 >> (REGISTER_BITS - 1)) & 1) as u8
        }

        /// Shift in a new bit, returning the tap observed before the
        /// shift.
        fn clock(&mut self, bit: u8) -> u8 {
            let tap = self.tap();
            self.0 = ((self.0 << 1) | bit as u64) & MASK;
            tap
        }
    }

    fn reference_scramble(reg: &mut Register, buf: &mut [u8]) {
        for byte in buf {
            let mut out = 0u8;
            for bit_idx in (0..8).rev() {
                let in_bit = (*byte >> bit_idx) & 1;
                // Output = input ⊕ (own output 43 bits ago), the tap read
                // before the output bit is clocked in.
                let out_bit = in_bit ^ reg.tap();
                reg.clock(out_bit);
                out = (out << 1) | out_bit;
            }
            *byte = out;
        }
    }

    fn reference_descramble(reg: &mut Register, buf: &mut [u8]) {
        for byte in buf {
            let mut out = 0u8;
            for bit_idx in (0..8).rev() {
                let rx_bit = (*byte >> bit_idx) & 1;
                let tap = reg.clock(rx_bit);
                out = (out << 1) | (rx_bit ^ tap);
            }
            *byte = out;
        }
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

    /// Split `len` octets into random chunks, zero-length and odd
    /// lengths included.
    fn random_chunks(rng: &mut Xs, len: usize) -> Vec<usize> {
        let mut sizes = Vec::new();
        let mut left = len;
        while left > 0 {
            let n = match rng.below(4) {
                0 => 0,
                1 => rng.below(8),
                2 => 48,
                _ => rng.below(200),
            }
            .min(left);
            sizes.push(n);
            left -= n;
        }
        sizes
    }

    #[test]
    fn word_paths_match_the_bit_serial_reference() {
        for seed in 0..300u64 {
            let mut rng = Xs::new(seed);
            let len = rng.below(1200);
            let data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            // Both sides may start anywhere: a garbage register is what
            // a descrambler joining mid-stream holds.
            let start = Register(rng.next() & MASK);
            let chunks = random_chunks(&mut rng, len);

            let mut fast = Scrambler { reg: start };
            let mut slow = start;
            let (mut tx_fast, mut tx_slow) = (data.clone(), data.clone());
            let mut at = 0;
            for &n in &chunks {
                fast.scramble(&mut tx_fast[at..at + n]);
                reference_scramble(&mut slow, &mut tx_slow[at..at + n]);
                at += n;
                assert_eq!(fast.reg.0, slow.0, "scrambler register, seed {seed}");
            }
            assert_eq!(tx_fast, tx_slow, "scrambled octets, seed {seed}");

            let garbage = Register(rng.next() & MASK);
            let mut fast = Descrambler { reg: garbage };
            let mut slow = garbage;
            let (mut rx_fast, mut rx_slow) = (tx_slow.clone(), tx_slow);
            let mut at = 0;
            for &n in &random_chunks(&mut rng, len) {
                fast.descramble(&mut rx_fast[at..at + n]);
                reference_descramble(&mut slow, &mut rx_slow[at..at + n]);
                at += n;
                assert_eq!(fast.reg.0, slow.0, "descrambler register, seed {seed}");
            }
            assert_eq!(rx_fast, rx_slow, "descrambled octets, seed {seed}");
        }
    }

    #[test]
    fn roundtrip_restores_data() {
        let original: Vec<u8> = (0..480).map(|i| (i * 37 % 251) as u8).collect();
        let mut buf = original.clone();
        let mut s = Scrambler::new();
        let mut d = Descrambler::new();
        s.scramble(&mut buf);
        assert_ne!(buf, original, "scrambling must change the data");
        d.descramble(&mut buf);
        assert_eq!(buf, original);
    }

    #[test]
    fn roundtrip_across_multiple_calls() {
        // Scrambler state must carry across cell boundaries.
        let cells: Vec<Vec<u8>> = (0..10)
            .map(|c| (0..48).map(|i| ((c * 48 + i) % 256) as u8).collect())
            .collect();
        let mut s = Scrambler::new();
        let mut d = Descrambler::new();
        for cell in &cells {
            let mut buf = cell.clone();
            s.scramble(&mut buf);
            d.descramble(&mut buf);
            assert_eq!(&buf, cell);
        }
    }

    #[test]
    fn all_zeros_becomes_nonzero_eventually() {
        // A long run of zeros must not stay all-zero once the register has
        // non-zero content (the point of scrambling). Prime the register
        // with some data first.
        let mut s = Scrambler::new();
        let mut primer = vec![0xFFu8; 8];
        s.scramble(&mut primer);
        let mut zeros = vec![0u8; 48];
        s.scramble(&mut zeros);
        assert!(zeros.iter().any(|&b| b != 0));
    }

    #[test]
    fn zero_register_passes_zeros_through() {
        // With an all-zero register and all-zero input, output is zero —
        // the scrambler is linear with no additive constant.
        let mut s = Scrambler::new();
        let mut buf = vec![0u8; 16];
        s.scramble(&mut buf);
        assert_eq!(buf, vec![0u8; 16]);
    }

    #[test]
    fn descrambler_self_synchronises() {
        // Start the descrambler with a garbage register; after 43 clean
        // bits (6 octets) it must track exactly.
        let data: Vec<u8> = (0..64).map(|i| (i * 11 % 256) as u8).collect();
        let mut s = Scrambler::new();
        let mut tx = data.clone();
        s.scramble(&mut tx);

        let mut d = Descrambler::new();
        d.reg.0 = 0x3FF_FFFF_FFFF; // garbage state
        let mut rx = tx.clone();
        d.descramble(&mut rx);
        // First ⌈43/8⌉ = 6 octets may be corrupt; everything after must match.
        assert_eq!(&rx[6..], &data[6..]);
        assert_ne!(
            &rx[..6],
            &data[..6],
            "garbage state should corrupt the prefix"
        );
    }

    #[test]
    fn single_bit_error_multiplies_to_two() {
        let data = vec![0u8; 32];
        let mut s = Scrambler::new();
        // Prime with nonzero so the stream isn't degenerate.
        let mut primer = vec![0xA5u8; 8];
        s.scramble(&mut primer);
        let mut tx = data.clone();
        s.scramble(&mut tx);

        // Matching descrambler state: feed it the primer too.
        let mut d = Descrambler::new();
        let mut p = primer.clone();
        d.descramble(&mut p);

        // Flip one bit in flight: bit 40 of the payload (octet 5, MSB).
        tx[5] ^= 0x80;
        let mut rx = tx.clone();
        d.descramble(&mut rx);
        let error_bits: u32 = rx
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(
            error_bits, 2,
            "self-sync scrambler doubles isolated bit errors"
        );
    }
}
