//! Always-on tail exemplar reservoir.
//!
//! Histograms answer "how slow is p99"; they cannot answer "*which*
//! packets were the p99, so I can go look at them". This reservoir
//! retains packet identities at a fixed, small cost so every report can
//! name its tail:
//!
//! * the **slowest-N** packets seen (exact top-N by latency), and
//! * a **deterministic 1-in-M sample** of packet identities (top-K by
//!   latency among the sampled), from which the p99+ cohort is carved
//!   at read time against a histogram-derived threshold.
//!
//! Both sets are selected by a *total order* on `(latency, vc, pkt)`
//! and the sample membership is a pure seeded hash of the packet
//! identity (same splitmix64 mix as [`TraceSampler`]) — so the
//! retained sets are byte-identical across reruns and across
//! `HNI_JOBS` worker counts, exactly like the sampled trace.
//!
//! Capacities are fixed at construction and both vectors are
//! preallocated: after the reservoir warms up, recording is
//! **zero-alloc** (gated by the counting-allocator test) and O(N+K)
//! scans of two tiny arrays — cheap enough to leave on in every run,
//! next to `latency_hist`.
//!
//! [`TraceSampler`]: crate::sampler::TraceSampler

use crate::sampler::mix64;
use hni_sim::{Duration, Time};

/// One retained packet identity with its measured latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exemplar {
    /// VC key of the packet (the same key `VcMetrics` uses).
    pub vc: u32,
    /// Packet sequence id — joins back to `PacketSpans` / waterfalls.
    pub pkt: u32,
    /// Measured latency, in picoseconds.
    pub latency_ps: u64,
    /// Completion timestamp, in picoseconds since run start.
    pub done_ps: u64,
}

impl Exemplar {
    /// Total-order rank: latency first, identity as tiebreak. Makes
    /// top-N selection independent of insertion order.
    #[inline]
    fn rank(&self) -> (u64, u32, u32) {
        (self.latency_ps, self.vc, self.pkt)
    }

    /// Measured latency as a [`Duration`].
    pub fn latency(&self) -> Duration {
        Duration::from_ps(self.latency_ps)
    }
}

/// Fixed-capacity, deterministic tail exemplar reservoir.
#[derive(Clone, Debug)]
pub struct TailReservoir {
    slowest: Vec<Exemplar>,
    sampled: Vec<Exemplar>,
    n: usize,
    k: usize,
    one_in: u64,
    seed: u64,
    recorded: u64,
}

impl TailReservoir {
    /// Default always-on configuration: 8 slowest exemplars, a 16-deep
    /// 1-in-8 identity sample, fixed seed (reports are reproducible).
    pub fn paper() -> TailReservoir {
        TailReservoir::with(8, 16, 8, 0x5eed_1991)
    }

    /// Build a reservoir keeping the slowest `n` packets exactly and
    /// the slowest `k` of a deterministic 1-in-`one_in` identity
    /// sample under `seed`. Both capacities are allocated up front.
    pub fn with(n: usize, k: usize, one_in: u64, seed: u64) -> TailReservoir {
        TailReservoir {
            slowest: Vec::with_capacity(n),
            sampled: Vec::with_capacity(k),
            n,
            k,
            one_in: one_in.max(1),
            seed,
            recorded: 0,
        }
    }

    /// Pure keep/drop decision for a packet identity under this
    /// reservoir's seed and rate — order- and worker-independent,
    /// mirroring `TraceSampler::keeps`.
    #[inline]
    pub fn keeps(&self, vc: u32, pkt: u32) -> bool {
        if self.one_in == 1 {
            return true;
        }
        let id = ((vc as u64) << 32) | pkt as u64;
        mix64(self.seed ^ mix64(id)).is_multiple_of(self.one_in)
    }

    /// Offer one completed packet. Zero-alloc once both sets are warm.
    #[inline]
    pub fn record(&mut self, vc: u32, pkt: u32, latency: Duration, done: Time) {
        self.recorded += 1;
        let ex = Exemplar {
            vc,
            pkt,
            latency_ps: latency.as_ps(),
            done_ps: done.as_ps(),
        };
        keep_top(&mut self.slowest, self.n, ex);
        if self.keeps(vc, pkt) {
            keep_top(&mut self.sampled, self.k, ex);
        }
    }

    /// The slowest packets seen, slowest first. Allocates (read path).
    pub fn slowest(&self) -> Vec<Exemplar> {
        sorted_desc(&self.slowest)
    }

    /// The retained identity sample, slowest first. Allocates.
    pub fn sampled(&self) -> Vec<Exemplar> {
        sorted_desc(&self.sampled)
    }

    /// The sampled exemplars at or above `threshold_ps` (pass a p99
    /// bound from `HdrHist::quantile`), slowest first. Allocates.
    pub fn cohort(&self, threshold_ps: u64) -> Vec<Exemplar> {
        let mut v: Vec<Exemplar> = self
            .sampled
            .iter()
            .copied()
            .filter(|e| e.latency_ps >= threshold_ps)
            .collect();
        v.sort_unstable_by_key(|e| std::cmp::Reverse(e.rank()));
        v
    }

    /// Packets offered so far.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The sampling rate denominator for the identity sample.
    pub fn one_in(&self) -> u64 {
        self.one_in
    }

    /// Fold another reservoir (same configuration) into this one, as
    /// if its packets had been offered here.
    pub fn merge(&mut self, other: &TailReservoir) {
        for ex in &other.slowest {
            keep_top(&mut self.slowest, self.n, *ex);
        }
        for ex in &other.sampled {
            keep_top(&mut self.sampled, self.k, *ex);
        }
        self.recorded += other.recorded;
    }
}

impl Default for TailReservoir {
    fn default() -> Self {
        TailReservoir::paper()
    }
}

/// Keep the `cap` highest-ranked exemplars in `v` without reordering
/// it (and without allocating: `v` was reserved to `cap` up front).
#[inline]
fn keep_top(v: &mut Vec<Exemplar>, cap: usize, ex: Exemplar) {
    if v.len() < cap {
        v.push(ex);
        return;
    }
    let Some((idx, min)) = v
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| e.rank())
        .map(|(i, e)| (i, *e))
    else {
        return; // cap == 0
    };
    if ex.rank() > min.rank() {
        v[idx] = ex;
    }
}

fn sorted_desc(v: &[Exemplar]) -> Vec<Exemplar> {
    let mut out = v.to_vec();
    out.sort_unstable_by_key(|e| std::cmp::Reverse(e.rank()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(r: &mut TailReservoir, lats_ns: &[(u32, u64)]) {
        for &(pkt, ns) in lats_ns {
            r.record(64, pkt, Duration::from_ns(ns), Time::from_ns(10 * ns));
        }
    }

    #[test]
    fn slowest_n_is_exact_and_sorted() {
        let mut r = TailReservoir::with(3, 8, 1, 7);
        fill(&mut r, &[(0, 50), (1, 900), (2, 10), (3, 700), (4, 800)]);
        let s = r.slowest();
        let pkts: Vec<u32> = s.iter().map(|e| e.pkt).collect();
        assert_eq!(pkts, [1, 4, 3], "top-3 by latency, slowest first");
        assert_eq!(s[0].latency(), Duration::from_ns(900));
        assert_eq!(r.recorded(), 5);
    }

    #[test]
    fn retained_sets_are_insertion_order_independent() {
        let pkts: Vec<(u32, u64)> = (0..500u32)
            .map(|p| (p, 100 + (p as u64 * 37) % 400))
            .collect();
        let mut fwd = TailReservoir::paper();
        fill(&mut fwd, &pkts);
        let mut rev_order = pkts.clone();
        rev_order.reverse();
        let mut rev = TailReservoir::paper();
        fill(&mut rev, &rev_order);
        assert_eq!(fwd.slowest(), rev.slowest());
        assert_eq!(fwd.sampled(), rev.sampled());
    }

    #[test]
    fn sample_membership_is_a_pure_identity_hash() {
        let r = TailReservoir::paper();
        let kept: Vec<u32> = (0..2000).filter(|&p| r.keeps(64, p)).collect();
        let again: Vec<u32> = (0..2000).filter(|&p| r.keeps(64, p)).collect();
        assert_eq!(kept, again);
        // ~1-in-8 of 2000: mean 250, sd ~15. Allow ±6 sd.
        assert!(
            (160..=340).contains(&kept.len()),
            "kept {} of 2000 at 1-in-8",
            kept.len()
        );
        // one_in=1 keeps every identity.
        let all = TailReservoir::with(4, 4, 1, 0);
        assert!((0..100).all(|p| all.keeps(1, p)));
    }

    #[test]
    fn cohort_filters_sampled_by_threshold() {
        let mut r = TailReservoir::with(4, 32, 1, 0);
        fill(&mut r, &[(0, 100), (1, 400), (2, 900), (3, 200)]);
        let cohort = r.cohort(Duration::from_ns(400).as_ps());
        let pkts: Vec<u32> = cohort.iter().map(|e| e.pkt).collect();
        assert_eq!(pkts, [2, 1]);
        assert!(r.cohort(u64::MAX).is_empty());
    }

    #[test]
    fn merge_equals_single_stream() {
        let pkts: Vec<(u32, u64)> = (0..200u32)
            .map(|p| (p, 50 + (p as u64 * 13) % 300))
            .collect();
        let mut whole = TailReservoir::paper();
        fill(&mut whole, &pkts);
        let mut left = TailReservoir::paper();
        let mut right = TailReservoir::paper();
        fill(&mut left, &pkts[..100]);
        fill(&mut right, &pkts[100..]);
        left.merge(&right);
        assert_eq!(left.slowest(), whole.slowest());
        assert_eq!(left.sampled(), whole.sampled());
        assert_eq!(left.recorded(), whole.recorded());
    }

    #[test]
    fn ties_break_deterministically() {
        let mut a = TailReservoir::with(2, 2, 1, 0);
        let mut b = TailReservoir::with(2, 2, 1, 0);
        fill(&mut a, &[(0, 100), (1, 100), (2, 100)]);
        fill(&mut b, &[(2, 100), (0, 100), (1, 100)]);
        // Equal latencies: identity tiebreak keeps the same pair.
        assert_eq!(a.slowest(), b.slowest());
        let pkts: Vec<u32> = a.slowest().iter().map(|e| e.pkt).collect();
        assert_eq!(pkts, [2, 1]);
    }
}
