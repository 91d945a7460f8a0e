//! The benchmark's own tests: seeded inputs, the damage process, replica
//! equivalence, and agreement between the code and `BENCHMARK.json`.

use nicbench::gen::{distinct_vcs, DamageSpec, LineDamage, Payloads, SduId};
use nicbench::line::{self, LineSpec};
use nicbench::sim::{self, SimInputs};
use nicbench::trace::{self, Tracer};
use nicbench::{burst, run_pass, PassResult, Workload};

/// The line workloads, cut short for a debug build.
fn short(spec: LineSpec, frames: usize) -> LineSpec {
    LineSpec {
        frames_per_pass: frames,
        ..spec
    }
}

fn sim_digests(seed: u64) -> Vec<u64> {
    let (_, stats) = sim::calls(&SimInputs::new(seed), &mut Tracer::off()).unwrap();
    stats.iter().map(|s| s.digest()).collect()
}

#[test]
fn same_seed_same_inputs_different_seed_different_inputs() {
    let id = SduId { seq: 17, slot: 3 };
    assert_eq!(
        Payloads::new(5).make(id, 1500),
        Payloads::new(5).make(id, 1500)
    );
    assert_ne!(
        Payloads::new(5).make(id, 1500),
        Payloads::new(6).make(id, 1500)
    );
    assert_eq!(distinct_vcs(5, 64), distinct_vcs(5, 64));
    assert_ne!(distinct_vcs(5, 64), distinct_vcs(6, 64));
    assert_eq!(sim_digests(1), sim_digests(1));
    // The canonical R-F3 call takes no seed; the seeded calls differ.
    let (a, b) = (sim_digests(1), sim_digests(2));
    assert_eq!(a[0], b[0]);
    assert!(a[1..].iter().zip(&b[1..]).all(|(x, y)| x != y));
}

#[test]
fn payload_check_catches_any_changed_octet() {
    let p = Payloads::new(9);
    let id = SduId { seq: 4, slot: 1 };
    let good = p.make(id, 600);
    assert!(p.matches(id, 600, &good));
    for at in [0, 8, 11, 12, 599] {
        let mut bad = good.clone();
        bad[at] ^= 0x40;
        assert!(!p.matches(id, 600, &bad), "octet {at}");
    }
    assert!(!p.matches(id, 600, &good[..599]));
}

fn same_pass_twice(spec: LineSpec, seed: u64) -> (PassResult, PassResult) {
    let a = line::pass(spec, seed, &mut Tracer::off()).unwrap();
    let b = line::pass(spec, seed, &mut Tracer::off()).unwrap();
    (a, b)
}

#[test]
fn same_seed_same_fates_and_counters() {
    let spec = short(line::ERRORED_OC3, 400);
    let (a, b) = same_pass_twice(spec, 3);
    assert_eq!(a.fates, b.fates);
    assert_eq!(a.counters, b.counters);
    let c = line::pass(spec, 4, &mut Tracer::off()).unwrap();
    assert!(
        a.fates != c.fates || a.counters != c.counters,
        "another seed damages other octets"
    );
    let x = burst::pass(8, 30, &mut Tracer::off()).unwrap();
    let y = burst::pass(8, 30, &mut Tracer::off()).unwrap();
    assert_eq!((x.fates, x.counters), (y.fates, y.counters));
}

#[test]
fn damage_hits_the_requested_rates() {
    let spec = DamageSpec {
        burst_every: 8,
        burst_octets: 16,
        slip_every: 97,
    };
    let frame = vec![0u8; 2430];
    let mut d = LineDamage::new(spec, 11);
    let mut out = Vec::new();
    let n: u64 = 80_000;
    for _ in 0..n {
        let (bursts, slips) = (d.bursts, d.slips);
        d.apply(&frame, &mut out);
        let slipped = d.slips - slips;
        assert_eq!(out.len().abs_diff(frame.len()), slipped as usize);
        if slipped == 0 {
            // A burst changes exactly `burst_octets` consecutive octets.
            let changed: Vec<usize> = (0..out.len()).filter(|&i| out[i] != 0).collect();
            let want = if d.bursts > bursts { 16 } else { 0 };
            assert_eq!(changed.len(), want);
            if want > 0 {
                assert_eq!(changed[15] - changed[0], 15);
            }
        }
    }
    // One per block; the last, partial block of 97 may or may not have
    // reached its slip.
    assert_eq!(d.bursts, n / 8);
    assert!(
        (n / 97..=n / 97 + 1).contains(&d.slips),
        "slips {}",
        d.slips
    );
}

/// A traced pass checks, after every step, that the replica's line
/// octets equal Nic A's and its events equal Nic B's; it fails on any
/// difference.
fn traced_layers(pass: impl FnOnce(&mut Tracer) -> Result<PassResult, String>) -> Tracer {
    let mut tr = Tracer::new();
    pass(&mut tr).unwrap();
    tr
}

#[test]
fn replica_matches_the_nics_on_line_bulk() {
    let tr = traced_layers(|tr| line::pass(short(line::BULK_OC12, 12), 1, tr));
    for id in trace::LAYERS {
        assert!(tr.ns(id) > 0, "{} not timed", trace::NAMES[id as usize]);
    }
}

#[test]
fn replica_matches_the_nics_on_line_errored() {
    let mut tr = Tracer::new();
    let p = line::pass(short(line::ERRORED_OC3, 300), 2, &mut tr).unwrap();
    assert!(p.fates.failed > 0, "damage must cost SDUs: {:?}", p.fates);
    for id in trace::LAYERS {
        assert!(tr.ns(id) > 0, "{} not timed", trace::NAMES[id as usize]);
    }
}

#[test]
fn replica_matches_the_nic_on_atm_burst_mix() {
    let tr = traced_layers(|tr| burst::pass(3, 20, tr));
    for id in [
        trace::AAL5_SEGMENT,
        trace::CORE_CAM_LOOKUP,
        trace::AAL5_REASSEMBLE,
    ] {
        assert!(tr.ns(id) > 0, "{} not timed", trace::NAMES[id as usize]);
    }
    assert_eq!(tr.ns(trace::SONET_FRAME_BUILD), 0);
}

#[test]
fn a_wrong_delivery_fails_the_check() {
    let p = Payloads::new(1);
    let vcs = distinct_vcs(1, 2);
    let id = SduId { seq: 0, slot: 1 };
    let ledger = || {
        let mut l = nicbench::ledger::Ledger::new(vcs.clone());
        l.offer(id, 100);
        l
    };
    let sdu = p.make(id, 100);
    let mut corrupt = sdu.clone();
    corrupt[50] ^= 1;
    assert!(ledger().deliver(&p, vcs[1], &corrupt).is_err(), "corrupted");
    assert!(ledger().deliver(&p, vcs[0], &sdu).is_err(), "wrong VC");
    let mut l = ledger();
    assert!(l.deliver(&p, vcs[1], &sdu).is_ok());
    assert!(l.deliver(&p, vcs[1], &sdu).is_err(), "delivered twice");
}

#[test]
fn sim_mix_pass_matches_its_pins() {
    let (p, cells) = run_pass(Workload::SimMix, 21, &mut Tracer::off()).unwrap();
    assert_eq!(p.step_ns.len(), sim::CALLS);
    assert!(cells.iter().all(|&c| c > 0));
}

#[test]
fn line_errored_pass_matches_its_pins_and_any_change_fails() {
    // Seed 21 is variant 5: the pins cover every seed.
    let (p, _) = run_pass(Workload::LineErroredOc3, 21, &mut Tracer::off()).unwrap();
    assert_eq!(line::pin_row(&p), line::ERRORED_PINS[5]);
    line::check_errored_pins(5, &p).unwrap();
    let mut one_more_lost = p.clone();
    one_more_lost.fates.delivered -= 1;
    one_more_lost.fates.failed += 1;
    assert!(line::check_errored_pins(5, &one_more_lost).is_err());
    assert!(line::check_errored_pins(6, &p).is_err(), "another variant");
}

#[test]
fn benchmark_json_names_every_metric_the_code_reports() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let declared = json.matches("\"name\":").count();
    let r = nicbench::run(Workload::SimMix, 1, 0.001, true).unwrap();
    let (e2e, _) = nicbench::end_to_end(&r);
    let (layers, _) = nicbench::per_layer(&r);
    for m in e2e.iter().chain(&layers) {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", m.name)),
            "{} missing from BENCHMARK.json",
            m.name
        );
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    assert_eq!(declared, e2e.len() + layers.len() + Workload::ALL.len());
}
