//! The repository benchmark: byte-exact NIC cell rate against the line
//! budget, per-layer cell costs, and the timing simulators' host cost.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run it. In short, one run is a sequence of *passes*. A pass
//! builds its workload from the seed (timed as set-up), runs a fixed
//! number of measured steps, drains, and checks every output; passes
//! repeat until the run's time is up. Every pass of a run gets the same
//! inputs, so their fates and counters must agree exactly, and that is
//! checked too. A traced run alternates untraced and traced passes: the
//! untraced ones give the reference step time, the traced ones time each
//! `Nic` call and re-drive the same octets through each layer function.

pub mod alloc;
pub mod burst;
pub mod gen;
pub mod ledger;
pub mod line;
pub mod replica;
pub mod sim;
pub mod trace;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

use ledger::{Fates, FAIL_REASONS};
use std::fmt::Write as _;
use std::time::Instant;
use trace::*;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Two `Nic`s at STS-12c, 9180-octet SDUs, clean line.
    LineBulkOc12,
    /// Seeded small AAL5 SDUs over 16,384 VCs into `Nic::rx_burst`.
    AtmBurstMix,
    /// Two `Nic`s at STS-3c, 1500-octet SDUs, damaged line.
    LineErroredOc3,
    /// The timing simulators, no byte path.
    SimMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::LineBulkOc12,
        Workload::AtmBurstMix,
        Workload::LineErroredOc3,
        Workload::SimMix,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LineBulkOc12 => "line_bulk_oc12",
            Workload::AtmBurstMix => "atm_burst_mix",
            Workload::LineErroredOc3 => "line_errored_oc3",
            Workload::SimMix => "sim_mix",
        }
    }

    /// Parse a workload name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Per-cell time budget: one cell's time on the line (424 bits at
    /// the line rate) — 681.6 ns at OC-12, 2726 ns at OC-3.
    pub fn budget_ns(self) -> f64 {
        let rate = match self {
            Workload::LineErroredOc3 => hni_sonet::LineRate::Oc3,
            _ => hni_sonet::LineRate::Oc12,
        };
        rate.cell_line_time().as_ns_f64()
    }
}

/// What one pass measured and checked.
#[derive(Clone, Debug)]
pub struct PassResult {
    /// Set-up time, s.
    pub setup_s: f64,
    /// Wall time of each measured step, ns.
    pub step_ns: Vec<u64>,
    /// Cells carried by the measured steps (line workloads: cell slots).
    pub cells: f64,
    /// SDU octets delivered intact during the measured steps.
    pub goodput_octets: u64,
    /// SDUs delivered during the measured steps.
    pub sdus: u64,
    /// Fates of every SDU the pass offered, after its drain.
    pub fates: Fates,
    /// Counters, named as per-layer metrics.
    pub counters: Vec<(&'static str, f64)>,
    /// Mean CAM probes per lookup (traced passes of the byte-path workloads).
    pub probes_per_lookup: Option<f64>,
}

/// Run one pass of `w`.
pub fn run_pass(
    w: Workload,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(PassResult, sim::SimCells), String> {
    match w {
        Workload::LineBulkOc12 => Ok((line::pass(line::BULK_OC12, seed, tr)?, [0; 4])),
        Workload::LineErroredOc3 => {
            let variant = seed % gen::VARIANTS;
            let p = line::pass(line::ERRORED_OC3, variant, tr)?;
            line::check_errored_pins(variant, &p)?;
            Ok((p, [0; 4]))
        }
        Workload::AtmBurstMix => Ok((burst::pass(seed, burst::BURSTS_PER_PASS, tr)?, [0; 4])),
        Workload::SimMix => sim::pass(seed, tr),
    }
}

/// Totals over a set of passes.
#[derive(Default)]
pub struct Totals {
    /// Passes.
    pub passes: usize,
    /// Set-up times, s.
    pub setup_s: Vec<f64>,
    /// Step times.
    pub steps: StepStats,
    /// Cells carried.
    pub cells: f64,
    /// SDU octets delivered intact in measured steps.
    pub goodput_octets: u64,
    /// SDUs delivered in measured steps.
    pub sdus: u64,
    /// SDUs offered over whole passes.
    pub offered: u64,
    /// SDUs delivered intact over whole passes.
    pub delivered: u64,
    /// Simulated cells per simulator entry point (`sim_mix`).
    pub sim_cells: sim::SimCells,
}

impl Totals {
    fn add(&mut self, p: &PassResult, sim_cells: sim::SimCells) {
        self.passes += 1;
        self.setup_s.push(p.setup_s);
        for &ns in &p.step_ns {
            self.steps.push(ns);
        }
        self.cells += p.cells;
        self.goodput_octets += p.goodput_octets;
        self.sdus += p.sdus;
        self.offered += p.fates.offered;
        self.delivered += p.fates.delivered;
        for (t, c) in self.sim_cells.iter_mut().zip(sim_cells) {
            *t += c;
        }
    }

    /// Wall seconds spent in measured steps.
    pub fn step_s(&self) -> f64 {
        self.steps.total_ns as f64 / 1e9
    }
}

/// Linear-interpolated quantile `q` of `xs` (sorted or not).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Consecutive steps per percentile window.
pub const WINDOW_STEPS: usize = 100;

/// Step times, folded as they arrive so that a run's memory does not
/// grow with the number of steps (a faster host would otherwise show a
/// larger `rss_peak_mb`).
///
/// The step percentiles are taken within each window of
/// [`WINDOW_STEPS`] consecutive steps and averaged over the windows; a
/// trailing partial window counts only when it is the only one. On a
/// shared host, speed can drift between fast and slow phases that last
/// seconds. A percentile pooled over the whole run jumps from one
/// phase's value to the other's as the slow share of the run crosses
/// it; the mean of per-window percentiles moves in proportion to that
/// share instead, as the throughput metrics do.
#[derive(Default)]
pub struct StepStats {
    /// Steps seen.
    pub count: usize,
    /// Their total wall time, ns.
    pub total_ns: u64,
    window: Vec<f64>,
    /// p50 and p90 (µs) of each full window.
    windows: Vec<[f64; 2]>,
}

impl StepStats {
    fn push(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.window.push(ns as f64 / 1e3);
        if self.window.len() == WINDOW_STEPS {
            self.windows.push(Self::percentiles(&self.window));
            self.window.clear();
        }
    }

    fn percentiles(us: &[f64]) -> [f64; 2] {
        [quantile(us, 0.5), quantile(us, 0.9)]
    }

    fn mean_of(&self, i: usize) -> f64 {
        if self.windows.is_empty() {
            return Self::percentiles(&self.window)[i];
        }
        self.windows.iter().map(|w| w[i]).sum::<f64>() / self.windows.len() as f64
    }

    /// Median step time, µs.
    pub fn p50_us(&self) -> f64 {
        self.mean_of(0)
    }

    /// 90th-percentile step time, µs.
    pub fn p90_us(&self) -> f64 {
        self.mean_of(1)
    }

    /// Full windows seen.
    pub fn windows(&self) -> usize {
        self.windows.len()
    }
}

/// A finished run.
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// Untraced passes.
    pub plain: Totals,
    /// Traced passes (empty unless traced).
    pub traced: Totals,
    /// The spans of the traced passes.
    pub tracer: Tracer,
    /// The first pass (its fates and counters every pass matched).
    pub first: PassResult,
    /// Probes per lookup from the first traced pass.
    pub probes_per_lookup: Option<f64>,
    /// Peak resident memory when the first pass ended, MiB.
    pub rss_peak_mb: f64,
}

/// Run `w` for about `seconds`: whole passes until the time is up, at
/// least one (two when traced: one untraced, one traced).
pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Run, String> {
    let start = Instant::now();
    let mut plain = Totals::default();
    let mut tr_totals = Totals::default();
    let mut tracer = Tracer::new();
    let mut off = Tracer::off();
    let mut first: Option<PassResult> = None;
    let mut rss_peak_mb = 0.0;
    let mut probes = None;
    for i in 0.. {
        let trace_this = traced && i % 2 == 1;
        let (p, sim_cells) = run_pass(w, seed, if trace_this { &mut tracer } else { &mut off })?;
        match &first {
            None => {
                // Later passes repeat the same set-up; the allocator's
                // fragmentation across those repeats belongs to this
                // loop, not to the workload, so the peak is read here.
                rss_peak_mb = alloc::peak_rss_mb()?;
                first = Some(p.clone());
            }
            Some(f) if f.fates != p.fates || f.counters != p.counters => {
                return Err(format!(
                    "pass {i} disagrees with pass 0 on the same inputs: fates {:?} vs {:?}, \
                     counters {:?} vs {:?}",
                    p.fates, f.fates, p.counters, f.counters
                ))
            }
            Some(_) => {}
        }
        if trace_this {
            probes = probes.or(p.probes_per_lookup);
            tr_totals.add(&p, sim_cells);
        } else {
            plain.add(&p, sim_cells);
        }
        let done = plain.passes + tr_totals.passes;
        if start.elapsed().as_secs_f64() >= seconds && (!traced || done >= 2) {
            break;
        }
    }
    Ok(Run {
        workload: w,
        plain,
        traced: tr_totals,
        tracer,
        first: first.expect("at least one pass ran"),
        probes_per_lookup: probes,
        rss_peak_mb,
    })
}

/// One reported metric.
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.into(),
        value,
        unit,
    });
}

/// The end-to-end metrics of an untraced run, and a human-readable
/// report of them.
pub fn end_to_end(r: &Run) -> (Vec<Metric>, String) {
    let t = &r.plain;
    let secs = t.step_s();
    let mut m = Vec::new();
    metric(&mut m, "cells_per_s", t.cells / secs, "cells/s");
    metric(
        &mut m,
        "goodput_mbps",
        t.goodput_octets as f64 * 8.0 / secs / 1e6,
        "Mb/s",
    );
    metric(&mut m, "step_us_p50", t.steps.p50_us(), "us");
    metric(&mut m, "step_us_p90", t.steps.p90_us(), "us");
    metric(
        &mut m,
        "sdu_intact_ratio",
        t.delivered as f64 / t.offered as f64,
        "ratio",
    );
    metric(&mut m, "setup_s", quantile(&t.setup_s, 0.5), "s");
    metric(&mut m, "rss_peak_mb", r.rss_peak_mb, "MB");

    let mut text = String::new();
    let _ = writeln!(
        text,
        "{}: {} passes, {} steps measured over {:.3} s; SDUs offered {} delivered {} \
         (sdu_fail_ratio {})",
        r.workload.name(),
        t.passes,
        t.steps.count,
        secs,
        t.offered,
        t.delivered,
        1.0 - t.delivered as f64 / t.offered as f64
    );
    for x in &m {
        let _ = writeln!(text, "  {:<18} {:>16.4} {}", x.name, x.value, x.unit);
    }
    let _ = writeln!(
        text,
        "  (step percentiles: within each of {} windows of {WINDOW_STEPS} steps, averaged; \
         n = {} steps; setup_s is the median of {} set-ups)",
        t.steps.windows(),
        t.steps.count,
        t.setup_s.len()
    );
    (m, text)
}

/// The per-layer metrics of a traced run, and the budget table.
pub fn per_layer(r: &Run) -> (Vec<Metric>, String) {
    let tr = &r.tracer;
    let t = &r.traced;
    let cells = t.cells.max(1.0);
    let per_cell = |id: u8| tr.ns(id) as f64 / cells;
    let budget = r.workload.budget_ns();
    let mut m = Vec::new();
    for id in [NIC_SEND, NIC_FRAME_TICK, NIC_RECEIVE, NIC_RX_BURST] {
        metric(
            &mut m,
            format!("{}.ns_per_cell", NAMES[id as usize]),
            per_cell(id),
            "ns/cell",
        );
    }
    metric(
        &mut m,
        "nic.poll.ns_per_sdu",
        tr.ns(NIC_POLL) as f64 / t.sdus.max(1) as f64,
        "ns/sdu",
    );

    let mut table = String::new();
    let _ = writeln!(
        table,
        "{}: per-cell budget table, {} traced steps, {:.0} cells; budget {:.1} ns/cell",
        r.workload.name(),
        t.steps.count,
        t.cells,
        budget
    );
    let _ = writeln!(
        table,
        "  {:<24} {:>10} {:>9} {:>12}",
        "layer", "ns/cell", "budget%", "allocs/cell"
    );
    let mut layer_sum = 0.0;
    for id in LAYERS {
        let name = NAMES[id as usize];
        let ns = per_cell(id);
        let allocs = tr.allocs(id) as f64 / cells;
        layer_sum += ns;
        metric(&mut m, format!("{name}.ns_per_cell"), ns, "ns/cell");
        metric(
            &mut m,
            format!("{name}.budget_pct"),
            ns / budget * 100.0,
            "%",
        );
        metric(
            &mut m,
            format!("{name}.allocs_per_cell"),
            allocs,
            "allocs/cell",
        );
        let _ = writeln!(
            table,
            "  {name:<24} {ns:>10.1} {:>9.1} {allocs:>12.4}",
            ns / budget * 100.0
        );
    }
    let line = matches!(
        r.workload,
        Workload::LineBulkOc12 | Workload::LineErroredOc3
    );
    let tx_nic = per_cell(NIC_SEND) + per_cell(NIC_FRAME_TICK);
    let tx_layers: f64 = TX_LAYERS.iter().map(|&id| per_cell(id)).sum();
    // Off the line workloads nothing calls a Nic transmit entry point:
    // segmentation is the harness's own call, so there is no residual.
    let tx_res = if line { tx_nic - tx_layers } else { 0.0 };
    let rx_nic = per_cell(NIC_RECEIVE) + per_cell(NIC_RX_BURST) + per_cell(NIC_POLL);
    let rx_layers: f64 = LAYERS
        .iter()
        .filter(|id| !TX_LAYERS.contains(id))
        .map(|&id| per_cell(id))
        .sum();
    let rx_res = if r.workload == Workload::SimMix {
        0.0
    } else {
        rx_nic - rx_layers
    };
    metric(&mut m, "tx.residual.ns_per_cell", tx_res, "ns/cell");
    metric(&mut m, "rx.residual.ns_per_cell", rx_res, "ns/cell");
    let frame_scramble = per_cell(SONET_FRAME_SCRAMBLE);
    metric(
        &mut m,
        "sonet.frame_scramble.ns_per_cell",
        frame_scramble,
        "ns/cell",
    );

    let plain_step = if r.plain.cells > 0.0 {
        r.plain.steps.total_ns as f64 / r.plain.cells
    } else {
        0.0
    };
    let unexplained = plain_step - (layer_sum + tx_res + rx_res);
    metric(&mut m, "reconcile.step.ns_per_cell", plain_step, "ns/cell");
    metric(
        &mut m,
        "reconcile.unexplained.ns_per_cell",
        unexplained,
        "ns/cell",
    );
    for (name, v) in [("tx.residual", tx_res), ("rx.residual", rx_res)] {
        let _ = writeln!(table, "  {name:<24} {v:>10.1} {:>9.1}", v / budget * 100.0);
    }
    let total = layer_sum + tx_res + rx_res;
    let _ = writeln!(
        table,
        "  {:<24} {total:>10.1} {:>9.1}",
        "sum (layers + residuals)",
        total / budget * 100.0
    );
    let _ = writeln!(
        table,
        "  reconciliation: untraced step {plain_step:.1} ns/cell = layers {layer_sum:.1} \
         + tx residual {tx_res:.1} + rx residual {rx_res:.1} + unexplained {unexplained:.1}"
    );
    let _ = writeln!(
        table,
        "  kernel, not summed: sonet.frame_scramble {frame_scramble:.1} ns/cell"
    );

    let counter = |name: &str| {
        r.first
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    for name in [
        "tc.idle_cells",
        "sonet.b1_errors",
        "sonet.b2_errors",
        "sonet.b3_errors",
        "sonet.frame_errors",
        "sonet.align_losses",
        "atm.hec_corrected",
        "atm.hec_discarded",
        "atm.delineation_losses",
        "core.cam_misses",
    ] {
        metric(&mut m, name, counter(name), "count");
    }
    metric(
        &mut m,
        "core.vc_probes_per_lookup",
        r.probes_per_lookup.unwrap_or(0.0),
        "probes/lookup",
    );
    for (i, reason) in FAIL_REASONS.iter().enumerate() {
        metric(
            &mut m,
            format!("aal5.fail.{reason}"),
            r.first.fates.receive_errors[i] as f64,
            "count",
        );
    }
    let sc = t.sim_cells;
    for (i, id) in [TXSIM, E2ESIM, E2ESIM_FAULTED, TRANSPORT]
        .into_iter()
        .enumerate()
    {
        let v = if sc[i] > 0 {
            tr.ns(id) as f64 / sc[i] as f64
        } else {
            0.0
        };
        metric(
            &mut m,
            format!("{}.ns_per_cell", NAMES[id as usize]),
            v,
            "ns/cell",
        );
    }
    metric(&mut m, "sim.cells", counter("sim.cells"), "count");
    metric(&mut m, "sim.packets", counter("sim.packets"), "count");
    let (traced_p50, plain_p50) = (t.steps.p50_us(), r.plain.steps.p50_us());
    let overhead = (traced_p50 / plain_p50 - 1.0) * 100.0;
    metric(&mut m, "trace.overhead_pct", overhead, "%");
    let _ = writeln!(
        table,
        "  trace overhead: traced step p50 {:.2} us vs untraced {:.2} us ({overhead:+.2}%)",
        traced_p50, plain_p50
    );
    let _ = writeln!(table, "  counts per pass:");
    for x in m
        .iter()
        .filter(|x| x.unit == "count" || x.unit == "probes/lookup")
    {
        let _ = writeln!(table, "    {:<26} {}", x.name, x.value);
    }
    (m, table)
}

/// The result line: one JSON object.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
