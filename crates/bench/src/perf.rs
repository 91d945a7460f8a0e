//! Wall-clock perf harness: how fast the *implementation* runs, as
//! opposed to the simulated-cycle numbers every `R-*` experiment
//! reports.
//!
//! Seven hot loops are timed with the criterion shim's calibrated
//! sampler ([`criterion::measure`]) and normalised to cells per second
//! of real CPU time:
//!
//! * `aal5_sar_slab` — AAL5 segmentation of a 9180-octet SDU burst
//!   through the zero-alloc [`CellSlab`] fast path.
//! * `hec_delineation` — HEC checking + cell delineation over a synced
//!   byte stream.
//! * `rx_reassembly` — AAL5 reassembly of slab cells via
//!   `deliver_burst`, with SDU buffers recycled to the spare pool.
//! * `e2e_cells` — AAL5 segment plus reassemble per burst; no cell
//!   crosses the ATM header, scrambler or SONET layers, so this is not
//!   the byte-exact `Nic` path (`nic_line_oc12` times that).
//! * `vc_lookup` — the per-cell "which connection?" probe against a
//!   fully-populated sharded [`VcTable`], Zipf-distributed keys — the
//!   wall-clock companion of R-S1's deterministic probe counts.
//! * `nic_line_oc12` — the whole byte-exact path of a [`Nic`] pair at
//!   STS-12c: 9180-octet SDUs keep every payload slot full, and each
//!   frame goes `send` → `frame_tick` → `receive_line_octets` → `poll`
//!   (segmentation, x⁴³ scrambling, SONET framing, alignment, parsing,
//!   delineation, descrambling, CAM and reassembly). One op is 53
//!   frames, which carry exactly 9360 cells.
//! * `nic_line_oc48` — the same pair and loop at STS-48c (37,440 cells
//!   per op). Its target is the STS-48c payload slot rate,
//!   2396.16e6 / 424 = 5.65M cells/s; it is recorded, not gated.
//!
//! An eighth measurement times the R-F1 report sweep serially
//! (`jobs = 1`) and under the `HNI_JOBS` worker pool, reporting the
//! observed speedup **and the machine's core count** — the speedup is a
//! property of the host, not the code; on a single-core machine it is
//! ~1× by physics (see README "Performance").
//!
//! Results are written as `BENCH_PERF.json` (schema
//! `hni-bench-perf/2`, hand-rolled writer — the workspace has no JSON
//! dependency). Wall-clock numbers are hardware-dependent and are NOT
//! golden: CI validates the schema and the serial/parallel report
//! equality, never the timings themselves.

use crate::experiments::rf1_tx_throughput;
use crate::par_sweep::{available_cores, jobs_from_env};
use criterion::{measure, BenchResult};
use hni_aal::aal5::{self, Aal5Reassembler};
use hni_atm::{CellSlab, Delineator, VcId, VcTable, CELL_SIZE};
use hni_core::{Nic, NicConfig, NicEvent};
use hni_sim::{Duration, Rng, Time, Zipf};
use hni_sonet::LineRate;
use hni_telemetry::{json, LoopSample, SentinelRecord};

/// One hot loop's timing, normalised to cell rate.
pub struct HotLoop {
    /// The shim's raw stats (median/min/max ns per op).
    pub result: BenchResult,
    /// Cells processed per timed op.
    pub cells_per_op: usize,
    /// Median cells per second of wall-clock time.
    pub cells_per_sec: f64,
}

/// Serial-vs-parallel sweep timing.
pub struct SweepTiming {
    /// Median wall time of the serial (`jobs = 1`) R-F1 sweep, ns.
    pub serial_ns: f64,
    /// Median wall time under `jobs` workers, ns.
    pub parallel_ns: f64,
    /// Worker count used for the parallel run.
    pub jobs: usize,
    /// serial / parallel (≥ 1 means the pool helped).
    pub speedup: f64,
}

/// The full perf report.
pub struct PerfReport {
    /// `"fast"` (CI smoke) or `"full"`.
    pub mode: &'static str,
    /// Cores the machine exposes — the ceiling on any speedup.
    pub cores: usize,
    /// Timed hot loops.
    pub hot_loops: Vec<HotLoop>,
    /// R-F1 sweep serial vs parallel.
    pub sweep: SweepTiming,
}

const SDU_LEN: usize = 9180;
const BURST_SDUS: usize = 8;

fn hot_loop(result: BenchResult, cells_per_op: usize) -> HotLoop {
    let cells_per_sec = cells_per_op as f64 * 1e9 / result.median_ns.max(1e-9);
    HotLoop {
        result,
        cells_per_op,
        cells_per_sec,
    }
}

/// Run every measurement. `fast` cuts samples and per-sample time so a
/// CI smoke finishes in seconds; timings then carry more noise, which
/// is fine — nothing gates on them.
pub fn run_perf(fast: bool) -> PerfReport {
    let (samples, sample_s) = if fast { (5, 2e-4) } else { (20, 5e-3) };
    let vc = VcId::new(0, 32);
    let cells_per_sdu = hni_aal::AalType::Aal5.cells_for_sdu(SDU_LEN);
    let burst_cells = cells_per_sdu * BURST_SDUS;
    let sdu: Vec<u8> = (0..SDU_LEN).map(|i| (i % 251) as u8).collect();
    let sdus: Vec<&[u8]> = (0..BURST_SDUS).map(|_| sdu.as_slice()).collect();

    // --- AAL5 SAR through the slab fast path ---
    let mut slab = CellSlab::with_capacity(burst_cells);
    let mut refs = Vec::with_capacity(burst_cells);
    let sar = measure("aal5_sar_slab", samples, sample_s, || {
        refs.clear();
        aal5::segment_burst(vc, &sdus, 0, &mut slab, &mut refs);
        slab.free_all(&refs);
        refs.len()
    });
    let sar = hot_loop(sar, burst_cells);

    // --- HEC + delineation over a synced stream ---
    refs.clear();
    aal5::segment_burst(vc, &sdus, 0, &mut slab, &mut refs);
    let mut stream = Vec::with_capacity(refs.len() * CELL_SIZE);
    for &r in &refs {
        stream.extend_from_slice(slab.get(r).as_bytes());
    }
    let mut delin = Delineator::new();
    let mut cells = Vec::with_capacity(refs.len());
    // Acquire SYNC once; the timed loop runs in steady state on the
    // burst fast path (whole-cell copies + fused HEC fold — the bit
    // loop only runs during HUNT/PRESYNC and at bit-shifted phases).
    delin.push_slice(&stream, &mut cells);
    assert!(delin.is_synced(), "delineator must sync on a clean stream");
    let hec = measure("hec_delineation", samples, sample_s, || {
        cells.clear();
        delin.push_slice(&stream, &mut cells);
        cells.len()
    });
    let hec = hot_loop(hec, burst_cells);

    // --- AAL5 reassembly via deliver_burst (slab path) ---
    let mut reasm = Aal5Reassembler::new(65_535, Duration::from_ms(100));
    let mut done = Vec::with_capacity(BURST_SDUS);
    let rx = measure("rx_reassembly", samples, sample_s, || {
        done.clear();
        reasm.deliver_burst(&refs, &slab, Time::ZERO, &mut done);
        let n = done.len();
        for sdu in done.drain(..).flatten() {
            reasm.recycle(sdu.data);
        }
        n
    });
    let rx = hot_loop(rx, burst_cells);
    slab.free_all(&refs);

    // --- AAL5 segment → reassemble round trip ---
    let e2e = measure("e2e_cells", samples, sample_s, || {
        refs.clear();
        aal5::segment_burst(vc, &sdus, 0, &mut slab, &mut refs);
        done.clear();
        reasm.deliver_burst(&refs, &slab, Time::ZERO, &mut done);
        slab.free_all(&refs);
        for sdu in done.drain(..).flatten() {
            reasm.recycle(sdu.data);
        }
    });
    let e2e = hot_loop(e2e, burst_cells);

    // --- VC-table lookup under a Zipf key mix ---
    // One `get_by_key` per "cell" against a fully-populated table (2^20
    // VCs full mode, 2^16 fast), keys pre-drawn outside the timed loop
    // so the measurement prices the probe, not the sampler. The same
    // table shape R-S1 proves deterministic properties of; this loop is
    // its wall-clock ns/cell.
    let table_vcs: usize = if fast { 1 << 16 } else { 1 << 20 };
    let mut vct: VcTable<u32> = VcTable::with_capacity(table_vcs);
    for i in 0..table_vcs {
        vct.insert(i as u64, i as u32);
    }
    let lookup_keys: Vec<u64> = {
        let zipf = Zipf::new(table_vcs, 1.1);
        let mut rng = Rng::new(0x5157);
        (0..16_384).map(|_| zipf.sample(&mut rng) as u64).collect()
    };
    let vcl = measure("vc_lookup", samples, sample_s, || {
        let mut hits = 0usize;
        for &k in &lookup_keys {
            if std::hint::black_box(vct.get_by_key(k)).is_some() {
                hits += 1;
            }
        }
        hits
    });
    let vcl = hot_loop(vcl, lookup_keys.len());

    let oc12 = nic_line(LineRate::Oc12, vc, &sdu, samples, sample_s);
    let oc48 = nic_line(LineRate::Oc48, vc, &sdu, samples, sample_s);

    // --- serial vs parallel R-F1 sweep ---
    let pkts = if fast { 3 } else { 12 };
    let sweep_samples = if fast { 3 } else { 7 };
    let jobs = jobs_from_env().max(2);
    let serial = measure("sweep_serial", sweep_samples, 0.0, || {
        rf1_tx_throughput::sweep_with_jobs(pkts, 1).len()
    });
    let parallel = measure("sweep_parallel", sweep_samples, 0.0, || {
        rf1_tx_throughput::sweep_with_jobs(pkts, jobs).len()
    });
    let sweep = SweepTiming {
        serial_ns: serial.median_ns,
        parallel_ns: parallel.median_ns,
        jobs,
        speedup: serial.median_ns / parallel.median_ns.max(1e-9),
    };

    PerfReport {
        mode: if fast { "fast" } else { "full" },
        cores: available_cores(),
        hot_loops: vec![sar, hec, rx, e2e, vcl, oc12, oc48],
        sweep,
    }
}

/// Time a `Nic` pair joined back to back at `rate` (the loop is named
/// `nic_line_oc<N>`), the sender topped up with `sdu` so that no frame
/// carries an idle cell. Every frame is checked: each event must be an
/// intact SDU.
fn nic_line(rate: LineRate, vc: VcId, sdu: &[u8], samples: usize, sample_s: f64) -> HotLoop {
    let cfg = NicConfig::paper(rate);
    let (mut a, mut b) = (Nic::new(cfg.clone()), Nic::new(cfg));
    a.open_vc(vc).expect("open at A");
    b.open_vc(vc).expect("open at B");
    let mut now = Time::ZERO;
    for _ in 0..64 {
        let frame = a.frame_tick();
        b.receive_line_octets(&frame, now);
        now += rate.frame_time();
        if b.tc_receiver().delineator().is_synced() {
            break;
        }
    }
    assert!(
        b.tc_receiver().delineator().is_synced(),
        "B must delineate on idle frames"
    );
    let need = rate.payload_octets_per_frame();
    let idle_before = a.tc_transmitter().idle_cells();
    let name = format!("nic_line_oc{}", rate.sts_n());
    let r = measure(&name, samples, sample_s, || {
        let mut delivered = 0usize;
        // 53 frames carry a whole number of cells: `need` of them.
        for _ in 0..CELL_SIZE {
            while a.tx_backlog_cells() * CELL_SIZE < need {
                a.send(vc, sdu.to_vec(), now).expect("send");
            }
            let frame = a.frame_tick();
            b.receive_line_octets(&frame, now);
            while let Some(ev) = b.poll() {
                match ev {
                    NicEvent::PacketReceived { data, .. } if data == sdu => {
                        delivered += 1;
                        b.recycle_sdu_buffer(data);
                    }
                    other => panic!("clean line delivered {other:?}"),
                }
            }
            now += rate.frame_time();
        }
        delivered
    });
    assert_eq!(
        a.tc_transmitter().idle_cells(),
        idle_before,
        "every slot must carry data"
    );
    hot_loop(r, need)
}

/// Format an `f64` for JSON: finite, fixed-point, no NaN/inf leakage.
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "0.0".to_string()
    }
}

impl PerfReport {
    /// Serialise as the `hni-bench-perf/2` JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"hni-bench-perf/2\",\n");
        s.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        s.push_str(&format!("  \"cores\": {},\n", self.cores));
        s.push_str("  \"hot_loops\": [\n");
        for (i, h) in self.hot_loops.iter().enumerate() {
            s.push_str("    {");
            // One escaper for every JSON writer in the workspace.
            s.push_str(&format!("\"name\": {}, ", json::quote(&h.result.name)));
            s.push_str(&format!(
                "\"median_ns_per_op\": {}, ",
                jnum(h.result.median_ns)
            ));
            s.push_str(&format!("\"min_ns_per_op\": {}, ", jnum(h.result.min_ns)));
            s.push_str(&format!("\"max_ns_per_op\": {}, ", jnum(h.result.max_ns)));
            s.push_str(&format!("\"samples\": {}, ", h.result.samples));
            s.push_str(&format!("\"cells_per_op\": {}, ", h.cells_per_op));
            s.push_str(&format!("\"cells_per_sec\": {}", jnum(h.cells_per_sec)));
            s.push_str(if i + 1 < self.hot_loops.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        s.push_str("  ],\n");
        s.push_str("  \"sweep\": {\n");
        s.push_str("    \"name\": \"r-f1\",\n");
        s.push_str(&format!(
            "    \"serial_ns\": {},\n",
            jnum(self.sweep.serial_ns)
        ));
        s.push_str(&format!(
            "    \"parallel_ns\": {},\n",
            jnum(self.sweep.parallel_ns)
        ));
        s.push_str(&format!("    \"jobs\": {},\n", self.sweep.jobs));
        s.push_str(&format!("    \"speedup\": {}\n", jnum(self.sweep.speedup)));
        s.push_str("  }\n");
        s.push_str("}\n");
        s
    }

    /// Human-readable summary for the terminal.
    pub fn render(&self) -> String {
        let mut t = crate::Table::new(["hot loop", "median ns/op", "cells/op", "cells/sec"]);
        for h in &self.hot_loops {
            t.row([
                h.result.name.clone(),
                format!("{:.0}", h.result.median_ns),
                h.cells_per_op.to_string(),
                format!("{:.2e}", h.cells_per_sec),
            ]);
        }
        format!(
            "Wall-clock perf ({} mode, {} core{})\n\n{}\n\
             R-F1 sweep: serial {:.1} ms, parallel {:.1} ms at {} jobs → {:.2}x speedup\n\
             (speedup is bounded by the host's core count; simulated results\n\
              are byte-identical either way — see README \"Performance\")\n",
            self.mode,
            self.cores,
            if self.cores == 1 { "" } else { "s" },
            t.render(),
            self.sweep.serial_ns / 1e6,
            self.sweep.parallel_ns / 1e6,
            self.sweep.jobs,
            self.sweep.speedup,
        )
    }

    /// This run as a perf-sentinel history record: every hot loop's
    /// median, keyed by name, plus the serial sweep time. Appended to
    /// `BENCH_HISTORY.jsonl` by `report perf`; compared against the
    /// last same-mode record by `report perf --check`.
    pub fn sentinel_record(&self) -> SentinelRecord {
        let mut samples: Vec<LoopSample> = self
            .hot_loops
            .iter()
            .map(|h| LoopSample {
                name: h.result.name.clone(),
                median_ns: h.result.median_ns,
            })
            .collect();
        samples.push(LoopSample {
            name: "sweep_serial".into(),
            median_ns: self.sweep.serial_ns,
        });
        SentinelRecord {
            mode: self.mode.to_string(),
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_perf_runs_and_serialises() {
        let r = run_perf(true);
        assert_eq!(r.mode, "fast");
        assert_eq!(r.hot_loops.len(), 7);
        for h in &r.hot_loops {
            assert!(h.cells_per_sec > 0.0, "{}", h.result.name);
            assert!(h.result.median_ns > 0.0, "{}", h.result.name);
        }
        assert!(r.sweep.speedup > 0.0);
        let json = r.to_json();
        for key in [
            "\"schema\": \"hni-bench-perf/2\"",
            "\"hot_loops\"",
            "\"cells_per_sec\"",
            "\"speedup\"",
            "\"cores\"",
            "aal5_sar_slab",
            "hec_delineation",
            "rx_reassembly",
            "e2e_cells",
            "vc_lookup",
            "nic_line_oc12",
            "nic_line_oc48",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Balanced braces/brackets — the writer is hand-rolled.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
        let text = r.render();
        assert!(text.contains("speedup"), "{text}");
        // The sentinel record round-trips through its own line format.
        let rec = r.sentinel_record();
        assert_eq!(rec.samples.len(), 8, "7 hot loops + sweep_serial");
        let parsed = SentinelRecord::parse_line(&rec.to_line()).expect("own line parses");
        assert_eq!(parsed.mode, "fast");
        assert_eq!(parsed.samples.len(), rec.samples.len());
    }

    #[test]
    fn jnum_never_emits_non_finite() {
        assert_eq!(jnum(f64::NAN), "0.0");
        assert_eq!(jnum(f64::INFINITY), "0.0");
        assert_eq!(jnum(1.25), "1.2");
    }
}
