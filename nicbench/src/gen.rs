//! Seeded input generation. Everything a workload feeds the program is
//! derived from the `--seed` argument through the generators here, which
//! are the benchmark's own: a change to the program's RNG cannot change
//! the benchmark's inputs.

use hni_atm::VcId;
use std::collections::HashSet;

/// Distinct seeded input sets of the workloads whose outputs are pinned
/// (`line_errored_oc3`, `sim_mix`); `seed % VARIANTS` picks one.
pub const VARIANTS: u64 = 16;

/// SplitMix64 — small, fast, and good enough for input generation.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

/// The SplitMix64 output function: a bijective 64-bit mix.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix {
    /// A stream for `seed`, salted so that unrelated streams drawn from
    /// the same seed do not coincide.
    pub fn new(seed: u64, salt: u64) -> Self {
        SplitMix(mix64(seed ^ mix64(salt)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift: bias is below 2^-32 for the bounds used here.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// `n` distinct VCs with seeded VPI (0–255) and VCI (32–65535; 0–31
/// are reserved for signalling and OAM).
pub fn distinct_vcs(seed: u64, n: usize) -> Vec<VcId> {
    let mut rng = SplitMix::new(seed, 0x7663);
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let vc = VcId::new(rng.below(256) as u16, 32 + rng.below(65536 - 32) as u16);
        if seen.insert(vc.cam_key()) {
            out.push(vc);
        }
    }
    out
}

/// Octets of seed-derived filler every SDU body is cut from.
pub const POOL_LEN: usize = 1 << 18;
/// SDU header: sequence number (u64 LE) then connection slot (u32 LE).
pub const HEADER_LEN: usize = 12;

/// Seed-derived SDU contents. SDU `seq` on connection slot `slot`
/// carries its header followed by a body cut from the pool at an offset
/// that is a pure function of `seq`, so a receiver can check every
/// delivered octet without keeping copies of what was sent.
pub struct Payloads {
    pool: Vec<u8>,
}

/// What a delivered SDU claims to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SduId {
    /// Global sequence number.
    pub seq: u64,
    /// Connection slot (index into the workload's VC list).
    pub slot: u32,
}

impl Payloads {
    /// The pool for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix::new(seed, 0x706f_6f6c);
        let mut pool = Vec::with_capacity(POOL_LEN);
        while pool.len() < POOL_LEN {
            pool.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        Payloads { pool }
    }

    fn body(&self, seq: u64, body_len: usize) -> &[u8] {
        let off = (mix64(seq ^ 0xB0D7) % (POOL_LEN - body_len + 1) as u64) as usize;
        &self.pool[off..off + body_len]
    }

    /// Write SDU `seq` for `slot`, `len` octets long (`HEADER_LEN..=POOL_LEN`).
    pub fn fill(&self, id: SduId, len: usize, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&id.seq.to_le_bytes());
        out.extend_from_slice(&id.slot.to_le_bytes());
        out.extend_from_slice(self.body(id.seq, len - HEADER_LEN));
    }

    /// SDU `seq` for `slot` as a fresh buffer.
    pub fn make(&self, id: SduId, len: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(len);
        self.fill(id, len, &mut v);
        v
    }

    /// Parse a delivered SDU's header; `None` if it is too short to carry one.
    pub fn id_of(data: &[u8]) -> Option<SduId> {
        let seq = u64::from_le_bytes(data.get(0..8)?.try_into().ok()?);
        let slot = u32::from_le_bytes(data.get(8..12)?.try_into().ok()?);
        Some(SduId { seq, slot })
    }

    /// True if `data` is exactly SDU `id` of length `len`.
    pub fn matches(&self, id: SduId, len: usize, data: &[u8]) -> bool {
        data.len() == len
            && Self::id_of(data) == Some(id)
            && data[HEADER_LEN..] == *self.body(id.seq, len - HEADER_LEN)
    }
}

/// Rates of the seeded line-damage process between two NICs. Each rate
/// is exact per block of frames, and the seed picks the frame within the
/// block and the octet within the frame. A pass therefore always meets
/// the same amount of damage, which keeps its SDU losses from swinging
/// with the luck of the draw from one seed to the next.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DamageSpec {
    /// One error burst in each block of this many frames.
    pub burst_every: u64,
    /// Octets each burst corrupts (every one changed, by a nonzero XOR).
    pub burst_octets: usize,
    /// One one-octet slip (an octet deleted or an extra one inserted,
    /// equally likely) in each block of this many frames.
    pub slip_every: u64,
}

/// Damages line octets frame by frame per a [`DamageSpec`].
pub struct LineDamage {
    spec: DamageSpec,
    rng: SplitMix,
    /// Frames seen.
    pub frames: u64,
    /// Bursts applied.
    pub bursts: u64,
    /// Slips applied.
    pub slips: u64,
    burst_at: u64,
    slip_at: u64,
}

impl LineDamage {
    /// A damage process for `seed`.
    pub fn new(spec: DamageSpec, seed: u64) -> Self {
        LineDamage {
            spec,
            rng: SplitMix::new(seed, 0xDA3A6E),
            frames: 0,
            bursts: 0,
            slips: 0,
            burst_at: 0,
            slip_at: 0,
        }
    }

    /// Copy `frame` into `out`, damaged. Frames must be longer than a burst.
    pub fn apply(&mut self, frame: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(frame);
        let f = self.frames;
        self.frames += 1;
        if f.is_multiple_of(self.spec.burst_every) {
            self.burst_at = f + self.rng.below(self.spec.burst_every);
        }
        if f.is_multiple_of(self.spec.slip_every) {
            self.slip_at = f + self.rng.below(self.spec.slip_every);
        }
        if f == self.burst_at {
            let n = self.spec.burst_octets;
            let at = self.rng.below((out.len() - n) as u64) as usize;
            for b in &mut out[at..at + n] {
                *b ^= 1 + self.rng.below(255) as u8;
            }
            self.bursts += 1;
        }
        if f == self.slip_at {
            let at = self.rng.below(out.len() as u64) as usize;
            if self.rng.chance(0.5) {
                out.remove(at);
            } else {
                out.insert(at, self.rng.next_u64() as u8);
            }
            self.slips += 1;
        }
    }
}
