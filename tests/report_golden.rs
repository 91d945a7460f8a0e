//! Structural golden tests for the report: every experiment's rendering
//! must keep its identifying header, its table shape, and the invariant
//! facts the evaluation narrative quotes. Guards against silent
//! rendering regressions (a renamed column, a dropped row) that unit
//! tests of the underlying numbers would not catch.

use hni_bench::{list_report, run_experiment, EXPERIMENTS};

#[test]
fn all_experiments_render_with_headers_and_tables() {
    for id in EXPERIMENTS.iter().map(|e| e.id) {
        let out = run_experiment(id).unwrap_or_else(|| panic!("{id} missing"));
        assert!(
            out.starts_with(&id.to_uppercase()),
            "{id}: report must start with its id header"
        );
        assert!(out.contains("---"), "{id}: table separator missing");
        assert!(out.lines().count() >= 7, "{id}: suspiciously short");
    }
}

#[test]
fn rt1_quotes_the_headline_budgets() {
    let out = run_experiment("r-t1").unwrap();
    assert!(out.contains("681.6 ns"), "OC-12 cell time");
    assert!(out.contains("2726.3 ns"), "OC-3 cell time");
    assert!(out.contains("17.7"), "25 MIPS OC-12 budget");
}

#[test]
fn rt2_quotes_the_partition_verdicts() {
    let out = run_experiment("r-t2").unwrap();
    for needle in ["all-software", "paper-split", "full-hardware", "yes", "no"] {
        assert!(out.contains(needle), "missing {needle}");
    }
}

#[test]
fn rf1_has_every_size_and_partition() {
    let out = run_experiment("r-f1").unwrap();
    for size in ["64", "9180", "65000"] {
        assert!(out.contains(size), "missing size {size}");
    }
    assert!(
        out.contains("link") && out.contains("engine"),
        "bottleneck column"
    );
}

#[test]
fn rt5_quotes_the_waterfall_endpoints() {
    let out = run_experiment("r-t5").unwrap();
    assert!(out.contains("622.1 Mb/s"));
    assert!(out.contains("599.0 Mb/s"));
    assert!(out.contains("540.4 Mb/s"));
}

#[test]
fn ra2_quotes_the_mips_minimums() {
    let out = run_experiment("r-a2").unwrap();
    assert!(out.contains("21.2"), "paper-split OC-12 minimum MIPS");
    assert!(out.contains("285.4"), "all-software OC-12 minimum MIPS");
}

#[test]
fn experiment_list_is_complete_and_ordered() {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), 20);
    assert!(ids.starts_with(&["r-t1", "r-t2"]));
    assert!(ids.ends_with(&["r-w1", "r-s1"]));
}

#[test]
fn rw1_quotes_the_closed_loop_verdict() {
    let out = run_experiment("r-w1").unwrap();
    for needle in [
        "satellite",
        "Overload leg",
        "WAN leg",
        "retx",
        "golden verdict: PASS",
    ] {
        assert!(out.contains(needle), "missing {needle}:\n{out}");
    }
}

#[test]
fn rs1_quotes_the_scale_verdict() {
    let out = run_experiment("r-s1").unwrap();
    for needle in [
        "1000000",
        "B/idle VC",
        "probes/lookup",
        "golden verdict: PASS",
    ] {
        assert!(out.contains(needle), "missing {needle}:\n{out}");
    }
}

#[test]
fn rr1_quotes_the_policy_comparison() {
    let out = run_experiment("r-r1").unwrap();
    for needle in ["drop-tail", "EPD", "PPD", "pool demand", "cell loss"] {
        assert!(out.contains(needle), "missing {needle}");
    }
    // The collapse and the recovery must both be visible in the table:
    // drop-tail at zero in overload, graceful policies delivering.
    assert!(out.contains("0 b/s"), "drop-tail collapse missing");
    assert!(out.contains("Mb/s"), "graceful-policy goodput missing");
}

#[test]
fn ro2_quotes_the_blame_and_verdict() {
    let out = run_experiment("r-o2").unwrap();
    assert!(out.contains("baseline verdict"), "baseline row missing");
    assert!(out.contains("injected verdict"), "injected row missing");
    assert!(out.contains("deliver dma"), "planted stage missing");
    assert!(out.contains("analytic floor"), "cross-check missing");
    assert!(out.contains("PASS"), "machine check failed:\n{out}");
}

#[test]
fn ro1_quotes_the_saturation_order() {
    let out = run_experiment("r-o1").unwrap();
    assert!(out.contains("measured bottleneck"), "sweep tables missing");
    assert!(
        out.contains("saturates first"),
        "saturation-order statement missing"
    );
    assert!(out.contains("engine") && out.contains("link") && out.contains("bus"));
}

/// `report list` exactly as it renders: every id in report order, with
/// the views its canonical run supports.
const LIST: &str = "\
r-t1
r-t2
r-t3
r-t4
r-t5
r-f1  [trace metrics profile bottleneck prom hist topvc]
r-f2  [trace metrics profile bottleneck prom hist topvc]
r-f3  [trace metrics profile bottleneck prom hist topvc tail exemplars]
r-f4
r-f5
r-f6
r-f7
r-f8
r-a1
r-a2
r-o1
r-o2
r-r1
r-w1  [hist]
r-s1
";

/// Run the `report` binary; return (exit code, stdout, stderr).
fn report(args: &[&str]) -> (i32, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("report binary runs");
    (
        out.status.code().expect("exited normally"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

#[test]
fn report_list_text_is_pinned() {
    assert_eq!(list_report(), LIST);
    assert_eq!(report(&["list"]), (0, LIST.to_string(), String::new()));
}

#[test]
fn capability_views_exit_2_naming_their_supported_ids() {
    const F123: &str = r#"["r-f1", "r-f2", "r-f3"]"#;
    const HIST: &str = r#"["r-f1", "r-f2", "r-f3", "r-w1"]"#;
    const TAIL: &str = r#"["r-f3"]"#;
    for (view, ids) in [
        ("trace", F123),
        ("metrics", F123),
        ("profile", F123),
        ("bottleneck", F123),
        ("prom", F123),
        ("hist", HIST),
        ("topvc", F123),
        ("tail", TAIL),
        ("exemplars", TAIL),
    ] {
        assert_eq!(
            report(&[view]),
            (
                2,
                String::new(),
                format!("usage: report {view} <id>; supported ids: {ids}\n")
            ),
            "{view} without an id"
        );
        assert_eq!(
            report(&[view, "r-t1"]),
            (
                2,
                String::new(),
                format!("experiment 'r-t1' does not support '{view}'; supported ids: {ids}\n")
            ),
            "{view} on an unsupported id"
        );
    }
    assert_eq!(
        report(&["--trace", "r-t1"]).2,
        format!("experiment 'r-t1' does not support 'trace'; supported ids: {F123}\n")
    );
    assert_eq!(
        report(&["promlint"]),
        (
            2,
            String::new(),
            format!("usage: report promlint <id>; supported ids: {F123}\n")
        )
    );
    assert_eq!(
        report(&["promlint", "r-t1"]),
        (
            2,
            String::new(),
            format!("experiment 'r-t1' exposes no Prometheus text; supported ids: {F123}\n")
        )
    );
    assert_eq!(
        report(&["diff", "r-f1"]),
        (
            2,
            String::new(),
            format!("usage: report diff <a> <b>; ids with histograms: {HIST}\n")
        )
    );
    assert_eq!(
        report(&["diff", "r-t1", "r-f1"]).2,
        "report diff: r-t1: no always-on histogram support\n"
    );
    assert_eq!(
        report(&["trace", "r-f1", "--sample", "0"]),
        (
            2,
            String::new(),
            "--sample needs a value >= 1\n".to_string()
        )
    );
    assert_eq!(
        report(&["r-f99"]),
        (
            2,
            String::new(),
            "unknown experiment 'r-f99'; try: list\n".to_string()
        )
    );
}
