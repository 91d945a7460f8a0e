//! Fault injection: what each protection layer catches.
//!
//! ```text
//! cargo run -p hni-bench --example fault_injection --release
//! ```
//!
//! Pushes traffic through the byte-exact path while injecting (a) whole
//! cell loss and (b) line bit errors, then prints what the HEC machine,
//! the delineator, the SONET parity bytes and the AAL reassembler each
//! saw — the full error-detection stack doing its job.

use hni_atm::VcId;
use hni_core::{Nic, NicConfig, NicEvent};
use hni_sim::faults::scenarios;
use hni_sim::{link::apply_bit_errors, FaultPlan, Link, LinkDelivery, Rng, Time};
use hni_sonet::LineRate;

fn main() {
    cell_loss_run(
        "scenario A: 0.5% i.i.d. cell loss (switch congestion)",
        FaultPlan::loss(0.005),
    );
    bit_error_run();
    cell_loss_run(
        "scenario C: bursty cell loss (Gilbert\u{2013}Elliott, ~0.5% long-run)",
        scenarios::bursty_congestion(0.005, 12.0),
    );
}

/// A congested switch drops cells according to `plan` — i.i.d. or
/// bursty; the downstream protection stack neither knows nor cares.
fn cell_loss_run(title: &str, plan: FaultPlan) {
    println!("=== {title} ===");
    let cfg = NicConfig::paper(LineRate::Oc3);
    let mut a = Nic::new(cfg.clone());
    let mut b = Nic::new(cfg);
    let vc = VcId::new(0, 50);
    a.open_vc(vc).unwrap();
    b.open_vc(vc).unwrap();
    for _ in 0..12 {
        let f = a.frame_tick();
        b.receive_line_octets(&f, Time::ZERO);
    }

    let mut link = Link::new(1e9, hni_sim::Duration::ZERO, plan, Rng::new(7));
    let n_frames = 200;
    let len = 4096;
    let mut t = Time::ZERO;
    for i in 0..n_frames {
        let payload: Vec<u8> = (0..len).map(|j| ((i + j) % 256) as u8).collect();
        for cell in hni_aal::aal5::segment(vc, &payload, 0) {
            if !matches!(link.send(t, 424), LinkDelivery::Lost) {
                a.inject_cell(&cell);
            }
            t = link.next_free();
        }
    }
    let mut ok = 0;
    let mut errors = Vec::new();
    for _ in 0..(n_frames * 87 * 53 / 2340 + 4) {
        let f = a.frame_tick();
        b.receive_line_octets(&f, Time::ZERO);
        while let Some(ev) = b.poll() {
            match ev {
                NicEvent::PacketReceived { .. } => ok += 1,
                NicEvent::ReceiveError(f) => errors.push(f.error),
                _ => {}
            }
        }
    }
    println!("  cells lost on the link : {}", link.lost_units());
    println!("  frames delivered intact: {ok}/{n_frames}");
    let mut counts = std::collections::BTreeMap::new();
    for e in &errors {
        *counts.entry(format!("{e}")).or_insert(0u32) += 1;
    }
    println!(
        "  reassembly failures    : {errors_len}",
        errors_len = errors.len()
    );
    for (e, n) in counts {
        println!("    {n:>4} × {e}");
    }
    println!();
}

/// Scenario B: a noisy line at BER 1e-5.
fn bit_error_run() {
    println!("=== scenario B: line BER 1e-5 (dirty fibre) ===");
    let cfg = NicConfig::paper(LineRate::Oc3);
    let mut a = Nic::new(cfg.clone());
    let mut b = Nic::new(cfg);
    let vc = VcId::new(0, 60);
    a.open_vc(vc).unwrap();
    b.open_vc(vc).unwrap();

    let mut rng = Rng::new(99);
    let ber = 1e-5;
    let n_frames = 150;
    let len = 9180;
    let mut ok = 0;
    let mut failures = 0;
    let mut frames_sent = 0u32;
    for i in 0..n_frames {
        let payload: Vec<u8> = (0..len).map(|j| ((i * 3 + j) % 256) as u8).collect();
        a.send(vc, payload, Time::ZERO).unwrap();
        // Drain enough SONET frames for this packet, damaging each on
        // the "line".
        while a.tx_backlog_cells() > 0 {
            let mut frame = a.frame_tick();
            frames_sent += 1;
            // i.i.d. bit errors at the given BER.
            let bits = frame.len() as u64 * 8;
            let mut pos = 0u64;
            let mut flips = Vec::new();
            loop {
                let gap = rng.geometric(ber);
                pos += gap;
                if pos > bits {
                    break;
                }
                flips.push(pos - 1);
            }
            apply_bit_errors(&mut frame, &flips);
            b.receive_line_octets(&frame, Time::ZERO);
        }
        while let Some(ev) = b.poll() {
            match ev {
                NicEvent::PacketReceived { .. } => ok += 1,
                NicEvent::ReceiveError(_) => failures += 1,
                _ => {}
            }
        }
    }
    let rx = b.tc_receiver();
    println!("  SONET frames sent       : {frames_sent}");
    println!(
        "  B1/B2/B3 parity errors  : {}/{}/{}",
        rx.parser().total_b1_errors(),
        rx.parser().total_b2_errors(),
        rx.parser().total_b3_errors()
    );
    println!(
        "  HEC: corrected {} headers, discarded {} cells",
        rx.delineator().hec_receiver().corrected(),
        rx.delineator().hec_receiver().discarded()
    );
    println!("  delineation losses      : {}", rx.delineator().losses());
    println!("  frames intact           : {ok}/{n_frames} ({failures} reassembly failures)");
    println!(
        "\nReading: parity counts the damage, the HEC machine repairs single-bit\n\
         header hits and sheds the rest, and whatever reaches reassembly with\n\
         damaged payload dies on the AAL5 CRC-32 — nothing corrupt is delivered."
    );
}
