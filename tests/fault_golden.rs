//! Golden proofs for the fault-injection layer:
//!
//! 1. **Faultless means free** — with `FaultPlan::NONE` every injection
//!    point (link, bus, receive pipeline, end-to-end composition) makes
//!    *zero* RNG draws: the clean path never pays for the machinery.
//! 2. **Faultless means identical** — a `NONE`-plan run produces
//!    byte-identical reports to the plain entry points, so enabling the
//!    fault layer cannot perturb any published number; and it skips the
//!    fault pass outright, so it allocates no copy of the workload.
//! 3. **Seeds pin everything** — a faulted run is a pure function of
//!    (plan, seed): same inputs, same ledger, same report; different
//!    seeds genuinely differ.

use hni_atm::VcId;
use hni_core::e2esim::{run_e2e, run_e2e_faulted, run_e2e_with};
use hni_core::rxsim::{run_rx, run_rx_with, LinkFaults, RxConfig, RxWorkload};
use hni_core::txsim::{greedy_workload, TxConfig};
use hni_core::{Bus, BusConfig};
use hni_sim::{BusFaultPlan, Duration, FaultInjector, FaultPlan, Link, LinkDelivery, Rng, Time};
use hni_sonet::LineRate;
use hni_telemetry::{Component, Observer};

#[path = "common/count_alloc.rs"]
mod count_alloc;
use count_alloc::allocs_during;

#[test]
fn faultless_injector_never_touches_the_rng() {
    let mut inj = FaultInjector::seeded(FaultPlan::NONE, 1234);
    for _ in 0..10_000 {
        let fate = inj.fate(424);
        assert!(!fate.lost && !fate.duplicated);
        assert_eq!(fate.displaced, 0);
        assert!(fate.flipped_bits.is_empty());
    }
    assert_eq!(inj.rng_draws(), 0);
}

#[test]
fn faultless_link_never_touches_the_rng() {
    let mut link = Link::new(
        622.08e6,
        Duration::from_us(25),
        FaultPlan::NONE,
        Rng::new(99),
    );
    let mut t = Time::ZERO;
    for _ in 0..5_000 {
        assert!(matches!(link.send(t, 424), LinkDelivery::Delivered { .. }));
        t = link.next_free();
    }
    assert_eq!(link.rng_draws(), 0);
    assert_eq!(link.lost_units(), 0);
}

#[test]
fn faultless_bus_never_touches_the_rng() {
    let cfg = BusConfig::default();
    let mut plain = Bus::new(cfg);
    let mut gated = Bus::with_faults(cfg, BusFaultPlan::NONE);
    let mut obs = Observer::default();
    let mut now = Time::ZERO;
    for i in 0..2_000u32 {
        let a = plain.grant(now, 32, 128, Component::RxBus, &mut obs);
        let b = gated.grant(now, 32, 128, Component::RxBus, &mut obs);
        assert_eq!(a, b, "grant {i} diverged");
        now = a;
    }
    assert_eq!(gated.fault_rng_draws(), 0);
    assert_eq!(gated.stalls(), 0);
    assert_eq!(gated.retries(), 0);
}

#[test]
fn faultless_rx_run_is_byte_identical_and_draw_free() {
    let cfg = RxConfig::paper(LineRate::Oc12);
    let wl = RxWorkload::uniform(LineRate::Oc12, hni_aal::AalType::Aal5, 8, 6, 9180, 0.95);
    let with = || run_rx_with(&cfg, &wl, &FaultPlan::NONE, 7, &mut Observer::default());
    // Warm both paths once (first-touch growth), then count.
    let _ = (run_rx(&cfg, &wl), with());
    let (plain, plain_allocs) = allocs_during(|| run_rx(&cfg, &wl));
    let ((faulted, done, lf), with_allocs) = allocs_during(with);
    assert_eq!(lf.rng_draws, 0, "faultless rx path drew randomness");
    assert_eq!(
        lf,
        LinkFaults {
            offered: wl.arrivals.len() as u64,
            ..LinkFaults::default()
        }
    );
    assert_eq!(format!("{plain:?}"), format!("{faulted:?}"));
    assert!(faulted.ledger.reconciles(), "{:?}", faulted.ledger);
    assert_eq!(
        done.iter().flatten().count() as u64,
        faulted.delivered_packets
    );
    // No fault pass: the only extra allocation is the completion
    // vector the `_with` entry returns.
    assert_eq!(
        with_allocs,
        plain_allocs + 1,
        "NONE-plan rx run allocated {with_allocs} vs plain {plain_allocs}"
    );
}

#[test]
fn faultless_e2e_run_is_byte_identical_and_draw_free() {
    let txc = TxConfig::paper(LineRate::Oc12);
    let rxc = RxConfig::paper(LineRate::Oc12);
    let pkts = greedy_workload(16, 9180, VcId::new(0, 32));
    let prop = Duration::from_us(5);
    let plain = run_e2e(&txc, &rxc, &pkts, prop);
    let none = &FaultPlan::NONE;
    let (faulted, lf) = run_e2e_faulted(&txc, &rxc, &pkts, prop, none, 3);
    assert_eq!(lf.rng_draws, 0, "faultless e2e path drew randomness");
    assert_eq!(format!("{plain:?}"), format!("{faulted:?}"));
    let (with, lf_with) = run_e2e_with(&txc, &rxc, &pkts, prop, none, 3, &mut Observer::default());
    assert_eq!(lf_with, lf);
    assert_eq!(format!("{plain:?}"), format!("{with:?}"));
}

#[test]
fn faulted_runs_are_pure_functions_of_plan_and_seed() {
    let cfg = RxConfig::paper(LineRate::Oc12);
    let wl = RxWorkload::uniform(LineRate::Oc12, hni_aal::AalType::Aal5, 8, 6, 9180, 0.95);
    let plan = FaultPlan::iid(0.01, 1e-6)
        .with_duplication(0.01)
        .with_reorder(0.02, 4);
    let run = |seed| run_rx_with(&cfg, &wl, &plan, seed, &mut Observer::default());
    let (a, _, la) = run(42);
    let (b, _, lb) = run(42);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(la, lb);
    let (_, _, lc) = run(43);
    assert_ne!(la, lc, "different seeds must produce different faults");
    assert!(a.ledger.reconciles(), "{:?}", a.ledger);
}
