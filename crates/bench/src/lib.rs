//! # hni-bench — the evaluation harness
//!
//! One module per reconstructed experiment (see DESIGN.md §4 for the
//! index). Each `run()` returns a rendered text table/figure **and** the
//! underlying numbers, so the `report` binary prints them and the
//! Criterion benches time reduced versions of the same code paths.
//!
//! ```text
//! cargo run -p hni-bench --bin report --release            # all experiments
//! cargo run -p hni-bench --bin report --release -- r-f1    # one experiment
//! ```

pub mod experiments;
pub mod par_sweep;
pub mod perf;
pub mod table;

pub use par_sweep::{jobs_from_env, par_sweep, par_sweep_with_jobs};
pub use table::Table;

use experiments::*;
use hni_core::E2eReport;
use hni_telemetry::{HdrHist, Observer, Profile, TraceEvent, VcMetrics};

/// A run's report together with the event trace of the same run.
pub type Traced<R> = (R, Vec<TraceEvent>);

/// A titled set of always-on latency series: `(stage label, histogram)`
/// pairs from one canonical run.
pub type HistSeries = (&'static str, Vec<(&'static str, HdrHist)>);

/// One experiment: its report, plus a hook per `report` view family
/// its canonical run can feed (`None` = view unsupported). `report
/// list`, every view and every "supported ids" message read this one
/// table, so a capability is declared exactly once.
pub struct Experiment {
    /// Report id, e.g. `r-f1`.
    pub id: &'static str,
    /// Render the experiment's report.
    pub run: fn() -> String,
    /// `trace` / `metrics`: the structured event trace.
    pub trace: Option<fn() -> Vec<TraceEvent>>,
    /// `profile` / `bottleneck` / `prom`: the cycle profile and the
    /// run's goodput (the attribution ceiling's denominator).
    pub profile: Option<fn() -> (Profile, f64)>,
    /// `hist` / `diff`: the always-on latency series.
    pub hist: Option<fn() -> HistSeries>,
    /// `topvc`: a title and the per-VC cell metrics.
    pub topvc: Option<fn() -> (&'static str, VcMetrics)>,
    /// `tail` / `exemplars`: a loaded end-to-end report with the trace
    /// of the same run. Only runs traced through *both* pipeline halves
    /// qualify — the cohort attributor needs complete
    /// descriptor→completion lives.
    pub tail: Option<fn() -> Traced<E2eReport>>,
}

impl Experiment {
    /// An experiment with a report and no view hooks.
    const fn report_only(id: &'static str, run: fn() -> String) -> Self {
        Experiment {
            id,
            run,
            trace: None,
            profile: None,
            hist: None,
            topvc: None,
            tail: None,
        }
    }

    /// The `report` views this experiment supports, in `report list`
    /// order.
    pub fn views(&self) -> Vec<&'static str> {
        let mut views = Vec::new();
        if self.trace.is_some() {
            views.extend(["trace", "metrics"]);
        }
        if self.profile.is_some() {
            views.extend(["profile", "bottleneck", "prom"]);
        }
        if self.hist.is_some() {
            views.push("hist");
        }
        if self.topvc.is_some() {
            views.push("topvc");
        }
        if self.tail.is_some() {
            views.extend(["tail", "exemplars"]);
        }
        views
    }
}

/// Every experiment, in report order.
pub static EXPERIMENTS: [Experiment; 20] = [
    Experiment::report_only("r-t1", rt1_budget::run),
    Experiment::report_only("r-t2", rt2_partition::run),
    Experiment::report_only("r-t3", rt3_memory::run),
    Experiment::report_only("r-t4", rt4_pacing::run),
    Experiment::report_only("r-t5", rt5_overhead::run),
    Experiment {
        trace: Some(|| {
            let mut obs = Observer::tracing();
            rf1_tx_throughput::canonical(&mut obs);
            obs.into_events()
        }),
        profile: Some(|| {
            let mut obs = Observer::profiling();
            let r = rf1_tx_throughput::canonical(&mut obs);
            (obs.snapshot(r.finished_at), r.goodput_bps)
        }),
        hist: Some(|| {
            let r = rf1_tx_throughput::canonical(&mut Observer::default());
            (
                "R-F1 canonical transmit run (descriptor -> last cell on line)",
                vec![("tx", r.latency_hist)],
            )
        }),
        topvc: Some(|| {
            let r = rf1_tx_throughput::canonical(&mut Observer::default());
            ("R-F1 canonical transmit run", r.vc_cells)
        }),
        ..Experiment::report_only("r-f1", rf1_tx_throughput::run)
    },
    Experiment {
        trace: Some(|| {
            let mut obs = Observer::tracing();
            rf2_rx_throughput::canonical(&mut obs);
            obs.into_events()
        }),
        profile: Some(|| {
            let mut obs = Observer::profiling();
            let r = rf2_rx_throughput::canonical(&mut obs);
            (obs.snapshot(r.run_end), r.goodput_bps)
        }),
        hist: Some(|| {
            let r = rf2_rx_throughput::canonical(&mut Observer::default());
            (
                "R-F2 canonical receive run (first cell -> completion)",
                vec![("rx", r.latency_hist)],
            )
        }),
        topvc: Some(|| {
            let r = rf2_rx_throughput::canonical(&mut Observer::default());
            ("R-F2 canonical receive run", r.vc_cells)
        }),
        ..Experiment::report_only("r-f2", rf2_rx_throughput::run)
    },
    Experiment {
        // The unloaded single-packet run: the waterfall's raw material.
        trace: Some(|| rf3_latency::trace_run(rf3_latency::TRACE_LEN)),
        profile: Some(|| {
            let mut obs = Observer::profiling();
            let r = rf3_latency::canonical(&mut obs);
            (obs.snapshot(r.rx.run_end), r.goodput_bps)
        }),
        hist: Some(|| {
            let r = rf3_latency::canonical(&mut Observer::default());
            (
                "R-F3 canonical loaded end-to-end run (descriptor at A -> completion at B)",
                vec![
                    ("tx", r.tx.latency_hist),
                    ("rx", r.rx.latency_hist),
                    ("e2e", r.latency_hist),
                ],
            )
        }),
        topvc: Some(|| {
            // End-to-end: the receive side saw every surviving cell.
            let r = rf3_latency::canonical(&mut Observer::default());
            (
                "R-F3 canonical end-to-end run (receive side)",
                r.rx.vc_cells,
            )
        }),
        tail: Some(|| {
            let mut obs = Observer::tracing();
            let r = rf3_latency::canonical(&mut obs);
            (r, obs.into_events())
        }),
        ..Experiment::report_only("r-f3", rf3_latency::run)
    },
    Experiment::report_only("r-f4", rf4_host_cpu::run),
    Experiment::report_only("r-f5", rf5_loss::run),
    Experiment::report_only("r-f6", rf6_bus::run),
    Experiment::report_only("r-f7", rf7_delineation::run),
    Experiment::report_only("r-f8", rf8_congestion::run),
    Experiment::report_only("r-a1", ra1_fifo_depth::run),
    Experiment::report_only("r-a2", ra2_mips::run),
    Experiment::report_only("r-o1", ro1_bottleneck::run),
    Experiment::report_only("r-o2", ro2_tail::run),
    Experiment::report_only("r-r1", rr1_discard::run),
    Experiment {
        hist: Some(|| {
            (
                "R-W1 canonical closed-loop run (satellite path, 1% loss; \
                 first transmission -> unique delivery)",
                vec![("frame", rw1_transport::canonical_run().frame_latency)],
            )
        }),
        ..Experiment::report_only("r-w1", rw1_transport::run)
    },
    Experiment::report_only("r-s1", rs1_scale::run),
];

/// Look an experiment up by (normalised) id.
pub fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// The ids whose canonical run supports `view`, in report order — the
/// list every "supported ids" message names.
pub fn ids_supporting(view: &str) -> Vec<&'static str> {
    EXPERIMENTS
        .iter()
        .filter(|e| e.views().contains(&view))
        .map(|e| e.id)
        .collect()
}

/// The `report list` text: one line per id in report order, followed by
/// the views its canonical run supports.
pub fn list_report() -> String {
    let mut out = String::new();
    for e in &EXPERIMENTS {
        let views = e.views();
        if views.is_empty() {
            out.push_str(e.id);
        } else {
            out.push_str(&format!("{}  [{}]", e.id, views.join(" ")));
        }
        out.push('\n');
    }
    out
}

/// Canonicalise a user-typed experiment id: lowercase, and accept the
/// hyphenless shorthand ("RF1", "ro1") for the `r-xN` family.
pub fn normalize_id(id: &str) -> String {
    let id = id.to_lowercase();
    if !id.contains('-') {
        if let Some(rest) = id.strip_prefix('r') {
            if !rest.is_empty() {
                return format!("r-{rest}");
            }
        }
    }
    id
}

/// Cycle-profile one experiment's canonical run. Returns the profile
/// and the run's goodput (bits/s), or `None` for unsupported ids.
pub fn profile_experiment(id: &str) -> Option<(Profile, f64)> {
    Some((experiment(id)?.profile?)())
}

/// Folded-stack rendering of an experiment's profile (one
/// `component;activity <ns>` line per charged pair — flamegraph food).
pub fn folded_report(id: &str) -> Option<String> {
    let (profile, _) = profile_experiment(id)?;
    Some(profile.folded_stacks())
}

/// Bottleneck-attribution rendering of an experiment's profile: the
/// utilization-ranked resource table plus implied throughput ceilings.
/// For R-F1 the attribution is additionally swept across every packet
/// size of the throughput figure, naming the saturating resource at
/// each point.
pub fn bottleneck_report(id: &str) -> Option<String> {
    let (profile, goodput) = profile_experiment(id)?;
    let a = hni_telemetry::attribute(&profile, goodput);
    let mut out = a.render();
    if id == "r-f1" {
        let mut t = Table::new(["pkt octets", "bottleneck", "utilization", "implied ceiling"]);
        for p in ro1_bottleneck::sweep_tx(20) {
            t.row([
                p.len.to_string(),
                p.measured.to_string(),
                table::fmt_pct(p.utilization),
                table::fmt_bps(p.ceiling_bps),
            ]);
        }
        out = format!(
            "{out}\nSaturating resource at each swept packet size:\n{}",
            t.render()
        );
    }
    Some(out)
}

/// Prometheus text-exposition rendering of an experiment's profile.
pub fn prom_report(id: &str) -> Option<String> {
    let (profile, _) = profile_experiment(id)?;
    Some(hni_telemetry::expfmt::expose(&profile))
}

/// Render one stage's percentile band as a table row (µs).
fn pct_row(stage: &str, h: &hni_telemetry::HdrHist) -> [String; 8] {
    let p = h.pcts();
    let us = |ps: u64| format!("{:.2}", ps as f64 / 1e6);
    [
        stage.to_string(),
        p.count.to_string(),
        format!("{:.2}", p.mean / 1e6),
        us(p.p50),
        us(p.p90),
        us(p.p99),
        us(p.p999),
        us(p.max),
    ]
}

/// The always-on latency series of an experiment's canonical run.
/// Shared by [`hist_report`] and [`diff_report`].
fn hist_series(id: &str) -> Option<HistSeries> {
    Some((experiment(id)?.hist?)())
}

/// Always-on latency-histogram report for an experiment's canonical
/// run: percentile bands per pipeline stage (µs), plus the same data
/// as a Prometheus histogram family (picosecond `le` bounds) that the
/// `promlint` conformance validator can check.
pub fn hist_report(id: &str) -> Option<String> {
    let mut t = Table::new([
        "latency", "n", "mean us", "p50<=", "p90<=", "p99<=", "p999<=", "max us",
    ]);
    let (title, series) = hist_series(id)?;
    for (stage, h) in &series {
        t.row(pct_row(stage, h));
    }
    let mut prom = String::new();
    let label_sets: Vec<[(&str, &str); 1]> = series.iter().map(|(s, _)| [("stage", *s)]).collect();
    let fam: Vec<(&[(&str, &str)], &hni_sim::Histogram)> = series
        .iter()
        .zip(&label_sets)
        .map(|((_, h), ls)| (&ls[..], h.as_histogram()))
        .collect();
    hni_telemetry::expfmt::expose_histogram_family(
        &mut prom,
        "hni_latency_ps",
        "always-on packet latency distribution (picoseconds)",
        &fam,
    );
    Some(format!(
        "{title}\n(percentiles are log2-bucket upper bounds — at most 2x the true\n\
         order statistic; max is exact; see EXPERIMENTS.md \"Percentile methodology\")\n\n{}\n{prom}",
        t.render()
    ))
}

/// Per-VC heavy-hitter report for an experiment's canonical run: the
/// space-saving top-K by cell count, with overestimate bounds, plus
/// the exact sharded totals.
pub fn topvc_report(id: &str) -> Option<String> {
    let (title, m) = (experiment(id)?.topvc?)();
    let total = m.shards.total_cells().max(1);
    let mut t = Table::new(["rank", "vc key", "cells (est)", "overest <=", "share"]);
    for (i, e) in m.top_cells.top().iter().enumerate() {
        t.row([
            (i + 1).to_string(),
            e.key.to_string(),
            e.count.to_string(),
            e.err.to_string(),
            table::fmt_pct(e.count as f64 / total as f64),
        ]);
    }
    Some(format!(
        "{title} — per-VC heavy hitters (top-{K} of unbounded VC space, O(K) memory)\n\
         exact totals: {cells} cells / {bytes} octets across {shards} shards (peak shard {peak})\n\
         guarantee: any VC with true count > {thr} is in the table;\n\
         each estimate overshoots its true count by at most its bound\n\n{}",
        t.render(),
        K = m.top_cells.k(),
        cells = m.shards.total_cells(),
        bytes = m.shards.total_bytes(),
        shards = hni_telemetry::topk::VC_SHARDS,
        peak = m.shards.max_shard_cells(),
        thr = m.top_cells.guaranteed_threshold(),
    ))
}

/// Tail-anatomy report: cohort critical-path attribution of an
/// experiment's canonical loaded run (`report tail <id>`). Renders the
/// blame headline, the tail-vs-median table, and the per-stage tail
/// shares as Prometheus gauges.
pub fn tail_report(id: &str) -> Option<String> {
    let (_, events) = (experiment(id)?.tail?)();
    let spans = hni_telemetry::PacketSpans::from_events(&events);
    let body = match hni_telemetry::attribute_tail(&spans) {
        Some(attr) => format!("{}\n{}", attr.render(), attr.prom()),
        None => "no attributable tail (uniform latency or <2 completed packets)\n".to_string(),
    };
    Some(format!(
        "R-F3 canonical loaded run — tail anatomy ({} packets indexed)\n\
         (cohorts are exact order statistics over traced totals; the\n\
          reservoir's p99+ cohort in `report exemplars` uses the log2-bucket\n\
          histogram bound instead — see EXPERIMENTS.md \"R-O2 methodology\")\n\n{body}",
        spans.len()
    ))
}

/// Tail exemplar report: the always-on reservoir's slowest-N packets
/// with their full span breakdowns, plus the deterministic p99+
/// cohort sample (`report exemplars <id>`).
pub fn exemplars_report(id: &str) -> Option<String> {
    let (report, events) = (experiment(id)?.tail?)();
    let spans = hni_telemetry::PacketSpans::from_events(&events);
    let mut t = Table::new(["rank", "vc key", "pkt", "latency us", "done us"]);
    let slowest = report.tail.slowest();
    for (i, e) in slowest.iter().enumerate() {
        t.row([
            (i + 1).to_string(),
            e.vc.to_string(),
            e.pkt.to_string(),
            format!("{:.3}", e.latency().as_us_f64()),
            format!("{:.3}", e.done_ps as f64 / 1e6),
        ]);
    }
    let mut out = format!(
        "R-F3 canonical loaded run — tail exemplars (always-on reservoir,\n\
         {} packets offered, identity sample 1-in-{})\n\n{}\n",
        report.tail.recorded(),
        report.tail.one_in(),
        t.render()
    );
    use std::fmt::Write as _;
    for e in &slowest {
        match spans.life(e.pkt).map(|l| l.breakdown()) {
            Some(b) if !b.is_empty() => {
                let _ = writeln!(out, "packet {} span breakdown (wait + service us):", e.pkt);
                for s in &b {
                    let _ = writeln!(
                        out,
                        "  {:<12} {:>10.3} + {:>10.3}",
                        s.label,
                        s.wait.as_us_f64(),
                        s.service.as_us_f64()
                    );
                }
            }
            _ => {
                let _ = writeln!(out, "packet {}: no spans indexed (not traced)", e.pkt);
            }
        }
    }
    // The p99+ cohort carved from the identity sample, using the
    // histogram's log2-bucket p99 bound as the threshold.
    let p99 = report.latency_hist.quantile(0.99);
    let cohort = report.tail.cohort(p99);
    let _ = writeln!(
        out,
        "\np99+ cohort (sampled identities >= histogram p99 bound {:.3} us): {}",
        p99 as f64 / 1e6,
        if cohort.is_empty() {
            "none sampled".to_string()
        } else {
            cohort
                .iter()
                .map(|e| format!("pkt {} ({:.3} us)", e.pkt, e.latency().as_us_f64()))
                .collect::<Vec<_>>()
                .join(", ")
        }
    );
    Some(out)
}

/// Side-by-side comparison of two run ids (`report diff <a> <b>`):
/// per-stage latency deltas from the always-on histograms, and the
/// profiled utilization/goodput deltas. `Err` on unsupported ids or
/// when the two runs' stage schemas differ (the caller exits 2).
pub fn diff_report(a: &str, b: &str) -> Result<String, String> {
    let (title_a, series_a) =
        hist_series(a).ok_or_else(|| format!("{a}: no always-on histogram support"))?;
    let (title_b, series_b) =
        hist_series(b).ok_or_else(|| format!("{b}: no always-on histogram support"))?;
    let stages_a: Vec<&str> = series_a.iter().map(|(s, _)| *s).collect();
    let stages_b: Vec<&str> = series_b.iter().map(|(s, _)| *s).collect();
    if stages_a != stages_b {
        return Err(format!(
            "schema mismatch: {a} reports stages {stages_a:?}, {b} reports {stages_b:?}"
        ));
    }
    let us = |ps: u64| ps as f64 / 1e6;
    let mut t = Table::new([
        "stage", "n a", "n b", "mean a", "mean b", "d mean", "p99 a", "p99 b", "d p99",
    ]);
    for ((stage, ha), (_, hb)) in series_a.iter().zip(&series_b) {
        let (pa, pb) = (ha.pcts(), hb.pcts());
        t.row([
            stage.to_string(),
            pa.count.to_string(),
            pb.count.to_string(),
            format!("{:.2}", pa.mean / 1e6),
            format!("{:.2}", pb.mean / 1e6),
            format!("{:+.2}", pb.mean / 1e6 - pa.mean / 1e6),
            format!("{:.2}", us(pa.p99)),
            format!("{:.2}", us(pb.p99)),
            format!("{:+.2}", us(pb.p99) - us(pa.p99)),
        ]);
    }
    let mut out = format!(
        "diff {a} vs {b}\n  a: {title_a}\n  b: {title_b}\n\n\
         Per-stage latency (us; log2-bucket p99 upper bounds):\n{}",
        t.render()
    );
    // Profiled side: goodput and per-resource utilization deltas.
    if let (Some((pa, ga)), Some((pb, gb))) = (profile_experiment(a), profile_experiment(b)) {
        let (ra, rb) = (
            hni_telemetry::attribute(&pa, ga),
            hni_telemetry::attribute(&pb, gb),
        );
        let mut p = Table::new(["resource", "util a", "util b", "d util"]);
        for sa in &ra.ranked {
            if let Some(sb) = ra_lookup(&rb, sa.component) {
                p.row([
                    sa.component.name().to_string(),
                    table::fmt_pct(sa.utilization),
                    table::fmt_pct(sb.utilization),
                    format!("{:+.1}pp", (sb.utilization - sa.utilization) * 100.0),
                ]);
            }
        }
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "\nProfiled utilization (resources charged in both runs):\n{}\
             goodput: a {} vs b {} ({:+.1}%)\n",
            p.render(),
            table::fmt_bps(ga),
            table::fmt_bps(gb),
            if ga > 0.0 {
                (gb / ga - 1.0) * 100.0
            } else {
                0.0
            },
        );
    }
    Ok(out)
}

fn ra_lookup(
    a: &hni_telemetry::Attribution,
    c: hni_telemetry::Component,
) -> Option<&hni_telemetry::ResourceShare> {
    a.ranked.iter().find(|s| s.component == c)
}

/// [`trace_experiment`] thinned by the deterministic sampler: keeps
/// events whose (vc, pkt, cell) identity hashes into the 1-in-`one_in`
/// keep set under `seed`. The decision is a pure function of identity,
/// so the sampled trace is byte-identical across reruns and
/// `HNI_JOBS` worker counts.
pub fn sampled_trace_experiment(
    id: &str,
    one_in: u64,
    seed: u64,
) -> Option<Vec<hni_telemetry::TraceEvent>> {
    let events = trace_experiment(id)?;
    let sampler = hni_telemetry::TraceSampler::new(one_in, seed);
    Some(
        events
            .into_iter()
            .filter(|e| sampler.keeps(e.vc, e.pkt, e.cell))
            .collect(),
    )
}

/// Capture the structured event trace of one experiment's canonical
/// run. Returns `None` for ids without trace support.
pub fn trace_experiment(id: &str) -> Option<Vec<TraceEvent>> {
    Some((experiment(id)?.trace?)())
}

/// Derive and dump the metrics registry from an experiment's trace.
pub fn metrics_experiment(id: &str) -> Option<String> {
    let events = trace_experiment(id)?;
    let end = events
        .last()
        .map(|e| e.time)
        .unwrap_or(hni_telemetry::Time::ZERO);
    Some(hni_telemetry::MetricsRegistry::from_trace(&events, end).dump(end))
}

/// Run one experiment by id, returning its rendered report.
pub fn run_experiment(id: &str) -> Option<String> {
    experiment(id).map(|e| (e.run)())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_runs_and_renders() {
        for id in EXPERIMENTS.iter().map(|e| e.id) {
            let out = run_experiment(id).unwrap_or_else(|| panic!("{id} missing"));
            assert!(out.len() > 100, "{id} output suspiciously short");
            assert!(out.contains(&id.to_uppercase()), "{id} header missing");
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_experiment("r-f99").is_none());
    }

    #[test]
    fn ids_normalize_with_or_without_hyphen() {
        assert_eq!(normalize_id("r-f1"), "r-f1");
        assert_eq!(normalize_id("RF1"), "r-f1");
        assert_eq!(normalize_id("ro1"), "r-o1");
        assert_eq!(normalize_id("rw1"), "r-w1");
        assert_eq!(normalize_id("RW1"), "r-w1");
        assert_eq!(normalize_id("list"), "list"); // non-id words untouched
        assert_eq!(normalize_id("r"), "r");
    }

    #[test]
    fn profile_ids_yield_profiles_and_renderings() {
        for id in ids_supporting("profile") {
            let (profile, goodput) =
                profile_experiment(id).unwrap_or_else(|| panic!("{id} unprofied"));
            assert!(profile.span() > hni_telemetry::Duration::ZERO, "{id}");
            assert!(goodput > 0.0, "{id}");
            let folded = folded_report(id).unwrap();
            assert!(
                folded.lines().count() >= 3,
                "{id} folded too thin:\n{folded}"
            );
            let bn = bottleneck_report(id).unwrap();
            assert!(bn.contains("bottleneck:"), "{id} verdict missing:\n{bn}");
            let prom = prom_report(id).unwrap();
            assert!(
                prom.contains("hni_component_utilization"),
                "{id} exposition missing family:\n{prom}"
            );
        }
        assert!(profile_experiment("r-t1").is_none());
        assert!(folded_report("nope").is_none());
        assert!(bottleneck_report("r-t1").is_none());
        assert!(prom_report("r-t1").is_none());
    }

    #[test]
    fn rf1_bottleneck_report_names_resource_at_every_size() {
        let bn = bottleneck_report("r-f1").unwrap();
        for size in rf1_tx_throughput::SIZES {
            assert!(bn.contains(&size.to_string()), "size {size} missing:\n{bn}");
        }
        assert!(bn.contains("engine") && bn.contains("link"), "{bn}");
    }

    #[test]
    fn hist_ids_render_bands_and_conformant_exposition() {
        for id in ids_supporting("hist") {
            let out = hist_report(id).unwrap_or_else(|| panic!("{id} missing hist"));
            for band in ["p50<=", "p90<=", "p99<=", "p999<=", "max us"] {
                assert!(out.contains(band), "{id} missing {band}:\n{out}");
            }
            // The embedded Prometheus family must pass the conformance
            // validator (the same one `report promlint` runs).
            let prom_start = out
                .find("# HELP")
                .unwrap_or_else(|| panic!("{id} no exposition"));
            hni_telemetry::expfmt::validate(&out[prom_start..])
                .unwrap_or_else(|v| panic!("{id} exposition violations: {v:?}"));
        }
        assert!(hist_report("r-t1").is_none());
    }

    #[test]
    fn rf3_hist_report_has_all_three_stages() {
        let out = hist_report("r-f3").unwrap();
        for stage in [r#"stage="tx""#, r#"stage="rx""#, r#"stage="e2e""#] {
            assert!(out.contains(stage), "missing {stage}:\n{out}");
        }
    }

    #[test]
    fn topvc_ids_render_heavy_hitters() {
        for id in ids_supporting("topvc") {
            let out = topvc_report(id).unwrap_or_else(|| panic!("{id} missing topvc"));
            assert!(out.contains("vc key"), "{id}:\n{out}");
            assert!(out.contains("exact totals:"), "{id}:\n{out}");
        }
        // R-F2's canonical run spreads cells across 4 VCs — all tracked.
        let rx = topvc_report("r-f2").unwrap();
        assert!(
            rx.lines()
                .filter(|l| l.trim_start().starts_with(['1', '2', '3', '4']))
                .count()
                >= 4,
            "expected >=4 ranked VCs:\n{rx}"
        );
        assert!(topvc_report("r-t1").is_none());
    }

    #[test]
    fn hist_and_topvc_accept_hyphenless_ids() {
        // Regression: capability ids must pass through the same
        // normalization as plain experiment ids (`RF1` == `r-f1`).
        for raw in ["RF1", "rf1"] {
            let id = normalize_id(raw);
            assert!(
                ids_supporting("hist").contains(&id.as_str()),
                "{raw} -> {id}"
            );
            assert!(
                ids_supporting("topvc").contains(&id.as_str()),
                "{raw} -> {id}"
            );
            assert!(hist_report(&id).is_some());
            assert!(topvc_report(&id).is_some());
        }
    }

    #[test]
    fn sampled_trace_is_deterministic_and_thinner() {
        let full = trace_experiment("r-f1").unwrap();
        let a = sampled_trace_experiment("r-f1", 64, 0xC0FFEE).unwrap();
        let b = sampled_trace_experiment("r-f1", 64, 0xC0FFEE).unwrap();
        assert_eq!(a, b, "sampling must be reproducible");
        assert!(a.len() < full.len(), "1-in-64 must actually thin the trace");
        assert!(!a.is_empty(), "some events must survive");
        // Sampling preserves relative order (it is a pure filter).
        let mut it = full.iter();
        for ev in &a {
            assert!(it.any(|e| e == ev), "sampled event out of order");
        }
        assert!(sampled_trace_experiment("r-t1", 64, 0).is_none());
    }

    #[test]
    fn traceable_ids_yield_events_and_metrics() {
        for id in ids_supporting("trace") {
            let events = trace_experiment(id).unwrap_or_else(|| panic!("{id} untraceable"));
            assert!(events.len() > 50, "{id}: only {} events", events.len());
            // Times arrive in simulation order within each pipeline half.
            let dump = metrics_experiment(id).expect("metrics derivable");
            assert!(
                dump.lines().count() >= 5,
                "{id} metrics dump too thin:\n{dump}"
            );
        }
        assert!(trace_experiment("r-t1").is_none());
        assert!(metrics_experiment("nope").is_none());
    }
}
