//! Regenerate the evaluation: every table and figure, as text.
//!
//! ```text
//! cargo run -p hni-bench --bin report --release             # everything
//! cargo run -p hni-bench --bin report --release -- r-f1     # one experiment
//! cargo run -p hni-bench --bin report --release -- list     # ids + capabilities
//! cargo run -p hni-bench --bin report --release -- --trace r-f3      # JSONL trace
//! cargo run -p hni-bench --bin report --release -- trace r-f3 --sample 1024
//! cargo run -p hni-bench --bin report --release -- metrics r-f3      # metrics dump
//! cargo run -p hni-bench --bin report --release -- profile r-f1     # folded stacks
//! cargo run -p hni-bench --bin report --release -- bottleneck r-f1  # attribution
//! cargo run -p hni-bench --bin report --release -- prom r-f1        # Prometheus text
//! cargo run -p hni-bench --bin report --release -- hist r-f3        # latency bands
//! cargo run -p hni-bench --bin report --release -- topvc r-f2      # per-VC top-K
//! cargo run -p hni-bench --bin report --release -- tail r-f3       # tail blame table
//! cargo run -p hni-bench --bin report --release -- exemplars r-f3  # slowest packets
//! cargo run -p hni-bench --bin report --release -- diff r-f3 r-f3  # side-by-side
//! cargo run -p hni-bench --bin report --release -- promlint r-f1   # expfmt check
//! cargo run -p hni-bench --bin report --release -- perf             # wall-clock bench
//! cargo run -p hni-bench --bin report --release -- perf --fast out.json
//! cargo run -p hni-bench --bin report --release -- perf --check --tolerance 0.2
//! ```
//!
//! `perf` times the implementation's hot loops and the serial-vs-
//! parallel report sweep, writing `BENCH_PERF.json` (or the given
//! path); `--fast` is the reduced CI smoke. Wall-clock numbers are
//! hardware-dependent and not golden — but `perf --check` compares the
//! run against the last same-mode record in `BENCH_HISTORY.jsonl`
//! (`--history <path>` to override) and exits 2 if any hot loop
//! regressed beyond `--tolerance` (default 0.2 = 20%). The record is
//! appended to the history only when no check was requested or the
//! check passed, so a regressed run never becomes the new baseline.
//!
//! `trace` accepts `--sample <N>` (with optional `--seed <S>`) to thin
//! the JSONL deterministically (`N >= 1`) — the kept set is a pure function of
//! each event's (vc, pkt, cell) identity, so it is byte-identical
//! across reruns and `HNI_JOBS` worker counts.
//!
//! Ids are case-insensitive and the hyphen is optional (`rf1` ≡ `r-f1`).

use hni_bench::{
    bottleneck_report, diff_report, exemplars_report, folded_report, hist_report, ids_supporting,
    list_report, metrics_experiment, normalize_id, prom_report, run_experiment,
    sampled_trace_experiment, tail_report, topvc_report, trace_experiment, EXPERIMENTS,
};
use hni_telemetry::SentinelRecord;

/// Resolve `args[1]` as the id a capability subcommand operates on, or
/// exit 2 with a usage line naming the ids that support it.
fn capability_id_or_exit(args: &[String], what: &str) -> String {
    match args.get(1) {
        Some(id) => normalize_id(id),
        None => {
            let supported = ids_supporting(supported_by(what));
            eprintln!("usage: report {what} <id>; supported ids: {supported:?}");
            std::process::exit(2);
        }
    }
}

/// Print a capability rendering, or exit 2 with the supported set.
fn print_or_exit(out: Option<String>, id: &str, what: &str) {
    match out {
        Some(text) => print!("{text}"),
        None => {
            let supported = ids_supporting(supported_by(what));
            eprintln!("experiment '{id}' does not support '{what}'; supported ids: {supported:?}");
            std::process::exit(2);
        }
    }
}

/// The view whose ids a subcommand's "supported ids" message names:
/// `promlint` checks the `prom` exposition ids.
fn supported_by(what: &str) -> &str {
    if what == "promlint" {
        "prom"
    } else {
        what
    }
}

/// Parse `--flag <value>` as a number, exiting 2 on malformed input.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let idx = args.iter().position(|a| a == flag)?;
    match args.get(idx + 1).and_then(|v| v.parse().ok()) {
        Some(v) => Some(v),
        None => {
            eprintln!("{flag} needs a numeric value");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("all") => {
            for e in &EXPERIMENTS {
                println!("{}", "=".repeat(78));
                println!("{}", (e.run)());
            }
        }
        Some("list") => print!("{}", list_report()),
        Some("--trace" | "trace") => {
            let id = capability_id_or_exit(&args, "trace");
            let events = match flag_value::<u64>(&args, "--sample") {
                Some(0) => {
                    eprintln!("--sample needs a value >= 1");
                    std::process::exit(2);
                }
                Some(one_in) => {
                    let seed = flag_value::<u64>(&args, "--seed").unwrap_or(0);
                    sampled_trace_experiment(&id, one_in, seed)
                }
                None => trace_experiment(&id),
            };
            print_or_exit(
                events.map(|ev| hni_telemetry::jsonl::to_jsonl(&ev)),
                &id,
                "trace",
            );
        }
        Some("metrics") => {
            let id = capability_id_or_exit(&args, "metrics");
            print_or_exit(metrics_experiment(&id), &id, "metrics");
        }
        Some("profile") => {
            let id = capability_id_or_exit(&args, "profile");
            print_or_exit(folded_report(&id), &id, "profile");
        }
        Some("bottleneck") => {
            let id = capability_id_or_exit(&args, "bottleneck");
            print_or_exit(bottleneck_report(&id), &id, "bottleneck");
        }
        Some("prom") => {
            let id = capability_id_or_exit(&args, "prom");
            print_or_exit(prom_report(&id), &id, "prom");
        }
        Some("hist") => {
            let id = capability_id_or_exit(&args, "hist");
            print_or_exit(hist_report(&id), &id, "hist");
        }
        Some("topvc") => {
            let id = capability_id_or_exit(&args, "topvc");
            print_or_exit(topvc_report(&id), &id, "topvc");
        }
        Some("tail") => {
            let id = capability_id_or_exit(&args, "tail");
            print_or_exit(tail_report(&id), &id, "tail");
        }
        Some("exemplars") => {
            let id = capability_id_or_exit(&args, "exemplars");
            print_or_exit(exemplars_report(&id), &id, "exemplars");
        }
        Some("diff") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                let hist_ids = ids_supporting("hist");
                eprintln!("usage: report diff <a> <b>; ids with histograms: {hist_ids:?}");
                std::process::exit(2);
            };
            match diff_report(&normalize_id(a), &normalize_id(b)) {
                Ok(out) => print!("{out}"),
                Err(e) => {
                    eprintln!("report diff: {e}");
                    std::process::exit(2);
                }
            }
        }
        Some("promlint") => {
            // Run every live exposition the id supports (`prom` profile
            // gauges, `hist` histogram families) through the expfmt
            // conformance validator; exit 2 on the first violation.
            let id = capability_id_or_exit(&args, "promlint");
            let mut checked = 0usize;
            if let Some(text) = prom_report(&id) {
                lint_or_exit(&id, "prom", &text);
                checked += 1;
            }
            if let Some(out) = hist_report(&id) {
                // The hist report is a table followed by the exposition.
                if let Some(start) = out.find("# HELP") {
                    lint_or_exit(&id, "hist", &out[start..]);
                    checked += 1;
                }
            }
            if let Some(out) = tail_report(&id) {
                // Likewise: blame table, then the tail-share gauges.
                if let Some(start) = out.find("# HELP") {
                    lint_or_exit(&id, "tail", &out[start..]);
                    checked += 1;
                }
            }
            if checked == 0 {
                let supported = ids_supporting("prom");
                eprintln!(
                    "experiment '{id}' exposes no Prometheus text; supported ids: {supported:?}"
                );
                std::process::exit(2);
            }
            println!("promlint {id}: {checked} exposition(s) conformant");
        }
        Some("perf") => {
            let fast = args.iter().any(|a| a == "--fast");
            let check = args.iter().any(|a| a == "--check");
            let tolerance: f64 = flag_value(&args, "--tolerance").unwrap_or(0.2);
            let history_path = {
                let idx = args.iter().position(|a| a == "--history");
                idx.and_then(|i| args.get(i + 1))
                    .cloned()
                    .unwrap_or_else(|| "BENCH_HISTORY.jsonl".to_string())
            };
            // First bare operand = output path; skip flags and the
            // values the value-taking flags swallow.
            let mut path = "BENCH_PERF.json";
            let mut i = 1;
            while i < args.len() {
                let a = args[i].as_str();
                if a == "--tolerance" || a == "--history" {
                    i += 2;
                } else if a.starts_with("--") {
                    i += 1;
                } else {
                    path = a;
                    break;
                }
            }
            let report = hni_bench::perf::run_perf(fast);
            std::fs::write(path, report.to_json())
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            print!("{}", report.render());
            println!("wrote {path}");

            let record = report.sentinel_record();
            let history = std::fs::read_to_string(&history_path).unwrap_or_default();
            if check {
                let Some(baseline) =
                    SentinelRecord::last_in_history(&history, record.mode.as_str())
                else {
                    eprintln!(
                        "perf --check: no '{}'-mode baseline in {history_path}; \
                         run `report perf{}` once to record one",
                        record.mode,
                        if fast { " --fast" } else { "" }
                    );
                    std::process::exit(2);
                };
                let regs = hni_telemetry::sentinel::check(&baseline, &record, tolerance);
                if !regs.is_empty() {
                    eprint!(
                        "{}",
                        hni_telemetry::sentinel::render_regressions(&regs, tolerance)
                    );
                    eprintln!("perf --check FAILED against {history_path}");
                    std::process::exit(2);
                }
                println!(
                    "perf --check OK: no hot loop regressed beyond {:.0}% of the last {} baseline",
                    tolerance * 100.0,
                    record.mode
                );
            }
            // Append only non-regressed runs: a failing run must never
            // ratchet the baseline down to its own slower numbers.
            let mut line = record.to_line();
            line.push('\n');
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&history_path)
                .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()))
                .unwrap_or_else(|e| panic!("appending {history_path}: {e}"));
            println!("appended {history_path}");
        }
        Some(id) => match run_experiment(&normalize_id(id)) {
            Some(out) => println!("{out}"),
            None => {
                eprintln!("unknown experiment '{id}'; try: list");
                std::process::exit(2);
            }
        },
    }
}

/// Validate one exposition body, exiting 2 with the violations if it
/// fails conformance.
fn lint_or_exit(id: &str, which: &str, text: &str) {
    if let Err(violations) = hni_telemetry::expfmt::validate(text) {
        eprintln!(
            "promlint {id} ({which}): {} violation(s):",
            violations.len()
        );
        for v in violations {
            eprintln!("  - {v}");
        }
        std::process::exit(2);
    }
}
