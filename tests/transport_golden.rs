//! Golden proofs for the closed-loop transport and the delay/jitter
//! link models, mirroring `tests/fault_golden.rs`:
//!
//! 1. **Jitterless means free** — a fixed-delay (or zero-delay) line
//!    makes *zero* RNG draws, and a faultless, jitterless closed-loop
//!    run draws no randomness anywhere (fault fates, jitter, timers).
//! 2. **Seeds pin everything** — a transport run is a pure function of
//!    (config, seed): byte-identical reports across reruns, on every
//!    delay preset, including the ≥ 560 ms-RTT satellite path.
//! 3. **Worker counts are invisible** — the R-W1 sweep is identical
//!    under `HNI_JOBS` 1 and 4: parallelism must never leak into a
//!    published number.

use hni_bench::experiments::rw1_transport;
use hni_sim::faults::scenarios;
use hni_sim::{DelayLine, DelayModel, Duration, FaultPlan};
use hni_sonet::LineRate;
use hni_transport::{run_transport, TransportConfig};

fn small_cfg() -> TransportConfig {
    let mut cfg = TransportConfig::paper(LineRate::Oc3);
    cfg.n_vcs = 2;
    cfg.frames_per_vc = 8;
    cfg.frame_len = 512;
    cfg
}

#[test]
fn jitterless_delay_lines_never_touch_the_rng() {
    for model in [
        DelayModel::NONE,
        DelayModel::fixed(Duration::from_us(5)),
        scenarios::lan_path(), // fixed 5 µs: the LAN preset is jitterless
    ] {
        let mut line = DelayLine::seeded(model, 1234);
        for _ in 0..10_000 {
            assert_eq!(line.delay(), model.base);
        }
        assert_eq!(line.rng_draws(), 0, "{model:?} drew randomness");
    }
}

#[test]
fn jittered_delay_lines_are_pure_functions_of_model_and_seed() {
    for model in [scenarios::wan_path(), scenarios::satellite_path()] {
        let mut a = DelayLine::seeded(model, 42);
        let mut b = DelayLine::seeded(model, 42);
        let mut c = DelayLine::seeded(model, 43);
        let mut diverged = false;
        for _ in 0..10_000 {
            let da = a.delay();
            assert_eq!(da, b.delay(), "same seed must replay the same jitter");
            assert!(da >= model.base && da <= model.max_delay());
            diverged |= da != c.delay();
        }
        assert!(a.rng_draws() > 0, "jitter without randomness");
        assert!(diverged, "different seeds must produce different jitter");
    }
}

#[test]
fn faultless_jitterless_transport_draws_nothing() {
    for path in [DelayModel::NONE, scenarios::lan_path()] {
        let cfg = small_cfg().with_path(path);
        let r = run_transport(&cfg);
        assert_eq!(r.rng_draws, 0, "{path:?}: clean path drew randomness");
        assert_eq!(r.retransmits, 0);
        assert_eq!(r.delivered_frames, r.offered_frames);
        assert!(r.ledger.reconciles(), "{:?}", r.ledger);
        assert_eq!(r.ledger.injected_retx, 0);
    }
}

#[test]
fn transport_runs_are_pure_functions_of_config_and_seed() {
    for path in [
        scenarios::lan_path(),
        scenarios::wan_path(),
        scenarios::satellite_path(),
    ] {
        let mut cfg = small_cfg();
        cfg.fwd_plan = FaultPlan::loss(0.02);
        cfg.rev_plan = FaultPlan::loss(0.02);
        let cfg = cfg.with_path(path);
        let a = run_transport(&cfg);
        let b = run_transport(&cfg);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{path:?}: reruns diverged"
        );
        let mut other = cfg;
        other.seed = cfg.seed ^ 1;
        let c = run_transport(&other);
        assert_ne!(
            format!("{a:?}"),
            format!("{c:?}"),
            "{path:?}: seeds do not matter"
        );
    }
}

#[test]
fn wan_sweep_is_identical_across_worker_counts() {
    let serial = rw1_transport::sweep_wan_with_jobs(1);
    let parallel = rw1_transport::sweep_wan_with_jobs(4);
    assert_eq!(serial, parallel, "HNI_JOBS leaked into the R-W1 WAN sweep");
}

#[test]
fn overload_point_is_identical_across_worker_counts() {
    // One overload point exercised both ways; ci.sh compares the whole
    // rendered report across HNI_JOBS on top of this.
    let a = rw1_transport::measure_overload(rw1_transport::OVERLOAD_LOSSES[0], 8);
    let b = rw1_transport::measure_overload(rw1_transport::OVERLOAD_LOSSES[0], 8);
    assert_eq!(a, b, "overload measurement is not reproducible");
}
