//! Prometheus-style text exposition of a [`Profile`].
//!
//! One deterministic snapshot render in the classic
//! `metric{label="…"} value` line format: activity time counters,
//! per-component utilization, occupancy gauges and windowed
//! high-watermark utilization. The output is stable across runs of the
//! same simulation (no timestamps, canonical ordering), so it can be
//! golden-tested and diffed.

use crate::profiler::{Activity, Component, Profile};
use hni_sim::stats::Histogram;
use hni_sim::Duration;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a label *value* per the text exposition format: backslash,
/// double-quote and newline are the only characters that need it.
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render one Prometheus **histogram** family from log₂-bucketed
/// [`Histogram`]s: cumulative `_bucket{le="…"}` samples at each
/// occupied bucket's upper bound, a terminal `le="+Inf"`, then `_sum`
/// and `_count`. Bucket bounds are picoseconds (the histograms'
/// convention throughout the workspace).
pub fn expose_histogram_family(
    out: &mut String,
    name: &str,
    help: &str,
    series: &[(&[(&str, &str)], &Histogram)],
) {
    writeln!(out, "# HELP {name} {}", escape_help(help)).unwrap();
    writeln!(out, "# TYPE {name} histogram").unwrap();
    for (labels, h) in series {
        let mut cum = 0u64;
        for (i, &c) in h.bucket_counts().iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            let le = Histogram::bucket_upper_bound(i).to_string();
            writeln!(
                out,
                "{name}_bucket{} {cum}",
                render_labels(labels, Some(("le", &le)))
            )
            .unwrap();
        }
        writeln!(
            out,
            "{name}_bucket{} {}",
            render_labels(labels, Some(("le", "+Inf"))),
            h.count()
        )
        .unwrap();
        writeln!(out, "{name}_sum{} {}", render_labels(labels, None), h.sum()).unwrap();
        writeln!(
            out,
            "{name}_count{} {}",
            render_labels(labels, None),
            h.count()
        )
        .unwrap();
    }
}

/// HELP text escaping: backslash and newline only (quotes are legal).
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn render_labels(labels: &[(&str, &str)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for &(k, v) in labels.iter().chain(extra.as_ref()) {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
    out
}

/// Render a profile snapshot in Prometheus text exposition format.
pub fn expose(profile: &Profile) -> String {
    let mut out = String::new();

    writeln!(out, "# TYPE hni_profile_span_seconds gauge").unwrap();
    writeln!(
        out,
        "hni_profile_span_seconds {:.9}",
        profile.span().as_s_f64()
    )
    .unwrap();

    writeln!(out, "# TYPE hni_activity_time_seconds counter").unwrap();
    for c in Component::ALL {
        for a in Activity::ALL {
            let t = profile.total(c, a);
            if t > Duration::ZERO {
                writeln!(
                    out,
                    "hni_activity_time_seconds{{component=\"{}\",activity=\"{}\"}} {:.9}",
                    c.name(),
                    a.name(),
                    t.as_s_f64()
                )
                .unwrap();
            }
        }
    }

    writeln!(out, "# TYPE hni_component_utilization gauge").unwrap();
    for c in Component::ALL {
        if profile.active_time(c) > Duration::ZERO {
            writeln!(
                out,
                "hni_component_utilization{{component=\"{}\"}} {:.6}",
                c.name(),
                profile.utilization(c)
            )
            .unwrap();
        }
    }

    writeln!(out, "# TYPE hni_window_utilization_max gauge").unwrap();
    for c in Component::ALL {
        if let Some((_, u)) = profile.high_watermark(c) {
            writeln!(
                out,
                "hni_window_utilization_max{{component=\"{}\"}} {:.6}",
                c.name(),
                u
            )
            .unwrap();
        }
    }

    writeln!(out, "# TYPE hni_occupancy_peak gauge").unwrap();
    writeln!(out, "# TYPE hni_occupancy_mean gauge").unwrap();
    for c in Component::ALL {
        let g = profile.gauge(c);
        if g.peak > 0 {
            writeln!(
                out,
                "hni_occupancy_peak{{component=\"{}\"}} {}",
                c.name(),
                g.peak
            )
            .unwrap();
            writeln!(
                out,
                "hni_occupancy_mean{{component=\"{}\"}} {:.6}",
                c.name(),
                g.mean
            )
            .unwrap();
        }
    }

    out
}

/// Conformance-check a text exposition document. Returns the list of
/// violations (empty = conformant). Checked rules:
///
/// * every line is blank, a `# HELP`/`# TYPE` comment, or a sample of
///   the form `name{labels} value`;
/// * metric and label names match the Prometheus grammar; label values
///   are properly quoted and use only the legal escapes (`\\`, `\"`,
///   `\n`);
/// * `# TYPE` appears at most once per family and before any of the
///   family's samples; `# HELP` likewise precedes the samples;
/// * sample values parse as floats (`+Inf`/`-Inf`/`NaN` allowed);
/// * for each `histogram`-typed family and label set: `le` ascends,
///   cumulative bucket counts never decrease, the terminal bucket is
///   `le="+Inf"`, and `_count` equals the `+Inf` bucket.
pub fn validate(text: &str) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    let mut type_of: BTreeMap<String, String> = BTreeMap::new();
    let mut help_seen: BTreeMap<String, bool> = BTreeMap::new();
    let mut sampled: BTreeMap<String, bool> = BTreeMap::new();
    // (family, non-le labels) -> [(le, cumulative count)]
    let mut buckets: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<(String, String), f64> = BTreeMap::new();
    let mut sums: BTreeMap<(String, String), bool> = BTreeMap::new();

    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let (kind, rest) = match rest.split_once(' ') {
                Some(p) => p,
                None => {
                    errs.push(format!("line {ln}: bare comment keyword"));
                    continue;
                }
            };
            let fam = rest.split(' ').next().unwrap_or("").to_string();
            if !valid_metric_name(&fam) {
                errs.push(format!("line {ln}: invalid metric name '{fam}'"));
                continue;
            }
            match kind {
                "HELP" => {
                    if help_seen.insert(fam.clone(), true).is_some() {
                        errs.push(format!("line {ln}: duplicate HELP for {fam}"));
                    }
                    if sampled.contains_key(&fam) {
                        errs.push(format!("line {ln}: HELP for {fam} after its samples"));
                    }
                }
                "TYPE" => {
                    let ty = rest[fam.len()..].trim().to_string();
                    if !["counter", "gauge", "histogram", "summary", "untyped"]
                        .contains(&ty.as_str())
                    {
                        errs.push(format!("line {ln}: unknown TYPE '{ty}' for {fam}"));
                    }
                    if type_of.insert(fam.clone(), ty).is_some() {
                        errs.push(format!("line {ln}: duplicate TYPE for {fam}"));
                    }
                    if sampled.contains_key(&fam) {
                        errs.push(format!("line {ln}: TYPE for {fam} after its samples"));
                    }
                }
                other => errs.push(format!("line {ln}: unknown comment '{other}'")),
            }
            continue;
        }
        if line.starts_with('#') {
            // Plain comments are legal and uninterpreted.
            continue;
        }
        let (name, labels, value) = match parse_sample(line) {
            Ok(t) => t,
            Err(e) => {
                errs.push(format!("line {ln}: {e}"));
                continue;
            }
        };
        let fam = family_of(&name, &type_of);
        sampled.insert(fam.clone(), true);
        if type_of.get(&fam).map(String::as_str) == Some("histogram") {
            let base: Vec<(String, String)> =
                labels.iter().filter(|(k, _)| k != "le").cloned().collect();
            let base_key = format!("{base:?}");
            let key = (fam.clone(), base_key);
            if name.ends_with("_bucket") {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.clone());
                match le.as_deref().map(parse_float) {
                    Some(Some(le)) => buckets.entry(key).or_default().push((le, value)),
                    Some(None) => errs.push(format!("line {ln}: unparseable le")),
                    None => errs.push(format!("line {ln}: _bucket sample without le")),
                }
            } else if name.ends_with("_count") {
                counts.insert(key, value);
            } else if name.ends_with("_sum") {
                sums.insert(key, true);
            } else {
                errs.push(format!(
                    "line {ln}: sample '{name}' in histogram family {fam} is not _bucket/_sum/_count"
                ));
            }
        }
    }

    for ((fam, base), series) in &buckets {
        for w in series.windows(2) {
            if w[1].0 <= w[0].0 {
                errs.push(format!("{fam}{base}: le not strictly ascending"));
            }
            if w[1].1 < w[0].1 {
                errs.push(format!("{fam}{base}: cumulative bucket count decreased"));
            }
        }
        match series.last() {
            Some(&(le, cum)) if le.is_infinite() && le > 0.0 => {
                if let Some(&c) = counts.get(&(fam.clone(), base.clone())) {
                    if c != cum {
                        errs.push(format!("{fam}{base}: _count {c} != +Inf bucket {cum}"));
                    }
                } else {
                    errs.push(format!("{fam}{base}: histogram missing _count"));
                }
            }
            _ => errs.push(format!("{fam}{base}: terminal bucket is not le=\"+Inf\"")),
        }
        if !sums.contains_key(&(fam.clone(), base.clone())) {
            errs.push(format!("{fam}{base}: histogram missing _sum"));
        }
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// The family a sample belongs to: for histogram-typed families the
/// `_bucket`/`_sum`/`_count` suffix is stripped; otherwise the sample
/// name is the family.
fn family_of(name: &str, type_of: &BTreeMap<String, String>) -> String {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if type_of.get(base).map(String::as_str) == Some("histogram") {
                return base.to_string();
            }
        }
    }
    name.to_string()
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_float(s: &str) -> Option<f64> {
    match s {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        s => s.parse().ok(),
    }
}

/// A parsed sample line: metric name, unescaped labels in document
/// order, and the sample value.
type Sample = (String, Vec<(String, String)>, f64);

/// Parse `name{labels} value` (labels optional).
fn parse_sample(line: &str) -> Result<Sample, String> {
    let name_end = line
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(line.len());
    let name = &line[..name_end];
    if !valid_metric_name(name) {
        return Err(format!("invalid metric name in '{line}'"));
    }
    let mut rest = &line[name_end..];
    let mut labels = Vec::new();
    if let Some(r) = rest.strip_prefix('{') {
        let mut chars = r.char_indices();
        loop {
            // label name
            let start = match chars.clone().next() {
                Some((i, '}')) => {
                    chars.next();
                    rest = &r[i + 1..];
                    break;
                }
                Some((i, _)) => i,
                None => return Err("unterminated label set".into()),
            };
            let eq = loop {
                match chars.next() {
                    Some((i, '=')) => break i,
                    Some((_, c)) if c.is_ascii_alphanumeric() || c == '_' => {}
                    _ => return Err(format!("bad label name in '{line}'")),
                }
            };
            let lname = &r[start..eq];
            if !valid_label_name(lname) {
                return Err(format!("invalid label name '{lname}'"));
            }
            match chars.next() {
                Some((_, '"')) => {}
                _ => return Err(format!("label value not quoted in '{line}'")),
            }
            let mut value = String::new();
            loop {
                match chars.next() {
                    Some((_, '"')) => break,
                    Some((_, '\\')) => match chars.next() {
                        Some((_, '\\')) => value.push('\\'),
                        Some((_, '"')) => value.push('"'),
                        Some((_, 'n')) => value.push('\n'),
                        other => {
                            return Err(format!("illegal escape {other:?} in '{line}'"));
                        }
                    },
                    Some((_, c)) => value.push(c),
                    None => return Err("unterminated label value".into()),
                }
            }
            labels.push((lname.to_string(), value));
            match chars.clone().next() {
                Some((_, ',')) => {
                    chars.next();
                }
                Some((i, '}')) => {
                    chars.next();
                    rest = &r[i + 1..];
                    break;
                }
                _ => return Err(format!("expected ',' or '}}' in '{line}'")),
            }
        }
    }
    let value_str = rest.trim();
    if value_str.is_empty() {
        return Err(format!("missing sample value in '{line}'"));
    }
    // A timestamp after the value is legal; take the first token.
    let value_tok = value_str.split(' ').next().unwrap();
    let value = parse_float(value_tok).ok_or_else(|| format!("bad sample value '{value_tok}'"))?;
    Ok((name.to_string(), labels, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::CycleProfiler;
    use hni_sim::Time;

    fn sample_profile() -> Profile {
        let mut p = CycleProfiler::with_window(Duration::from_us(10));
        p.charge(
            Component::TxEngine,
            Activity::Busy,
            Time::ZERO,
            Duration::from_us(4),
        );
        p.charge(
            Component::TxBus,
            Activity::Transfer,
            Time::from_us(1),
            Duration::from_us(2),
        );
        p.charge(
            Component::TxBus,
            Activity::Arbitration,
            Time::from_us(3),
            Duration::from_us(1),
        );
        p.gauge(Component::TxFifo, Time::ZERO, 3);
        p.gauge(Component::TxFifo, Time::from_us(5), 0);
        p.snapshot(Time::from_us(10))
    }

    #[test]
    fn exposition_contains_all_families_and_samples() {
        let text = expose(&sample_profile());
        assert!(text.contains("# TYPE hni_profile_span_seconds gauge"));
        assert!(text.contains("hni_profile_span_seconds 0.000010000"));
        assert!(
            text.contains("hni_activity_time_seconds{component=\"tx.engine\",activity=\"busy\"} ")
        );
        assert!(text
            .contains("hni_activity_time_seconds{component=\"tx.bus\",activity=\"arbitration\"} "));
        assert!(text.contains("hni_component_utilization{component=\"tx.engine\"} 0.400000"));
        // Bus: (2 + 1) µs over 10 µs.
        assert!(text.contains("hni_component_utilization{component=\"tx.bus\"} 0.300000"));
        assert!(text.contains("hni_occupancy_peak{component=\"tx.fifo\"} 3"));
        assert!(text.contains("hni_occupancy_mean{component=\"tx.fifo\"} 1.500000"));
        assert!(text.contains("hni_window_utilization_max{component=\"tx.engine\"} 0.400000"));
        // Uncharged components are absent.
        assert!(!text.contains("rx.engine"));
    }

    #[test]
    fn exposition_is_deterministic() {
        assert_eq!(expose(&sample_profile()), expose(&sample_profile()));
    }

    #[test]
    fn label_values_escape_quotes_backslashes_newlines() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
    }

    #[test]
    fn histogram_family_is_cumulative_with_inf_terminal() {
        let mut h = Histogram::new();
        for v in [100u64, 100, 1000, 50_000] {
            h.record(v);
        }
        let mut out = String::new();
        expose_histogram_family(
            &mut out,
            "hni_stage_latency_ps",
            "per-stage latency",
            &[(&[("stage", "tx")], &h)],
        );
        assert!(out.contains("# HELP hni_stage_latency_ps per-stage latency"));
        assert!(out.contains("# TYPE hni_stage_latency_ps histogram"));
        assert!(out.contains("hni_stage_latency_ps_bucket{stage=\"tx\",le=\"+Inf\"} 4"));
        assert!(out.contains("hni_stage_latency_ps_sum{stage=\"tx\"} 51200"));
        assert!(out.contains("hni_stage_latency_ps_count{stage=\"tx\"} 4"));
        // Cumulative counts never decrease along the le axis.
        let cums: Vec<u64> = out
            .lines()
            .filter(|l| l.contains("_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(cums.windows(2).all(|w| w[0] <= w[1]), "{cums:?}");
        validate(&out).expect("family must be conformant");
    }

    #[test]
    fn profile_exposition_is_conformant() {
        validate(&expose(&sample_profile())).expect("expose output must validate");
    }

    #[test]
    fn validator_accepts_escaped_labels_and_inf() {
        let doc = "# HELP m ok\n# TYPE m gauge\nm{path=\"C:\\\\x\",q=\"say \\\"hi\\\"\"} 1\nm{v=\"+Inf\"} +Inf\n";
        validate(doc).expect("legal escapes must pass");
    }

    #[test]
    fn validator_rejects_type_after_samples_and_duplicates() {
        let late = "m 1\n# TYPE m gauge\n";
        let errs = validate(late).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("after its samples")),
            "{errs:?}"
        );
        let dup = "# TYPE m gauge\n# TYPE m gauge\nm 1\n";
        let errs = validate(dup).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("duplicate TYPE")),
            "{errs:?}"
        );
    }

    #[test]
    fn validator_rejects_histogram_shape_violations() {
        // Missing +Inf terminal bucket.
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_sum 5\nh_count 1\n";
        let errs = validate(no_inf).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("+Inf")), "{errs:?}");
        // le not ascending.
        let bad_order =
            "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"5\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 5\nh_count 2\n";
        let errs = validate(bad_order).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("ascending")), "{errs:?}");
        // Cumulative count decreases.
        let decreasing =
            "# TYPE h histogram\nh_bucket{le=\"10\"} 3\nh_bucket{le=\"+Inf\"} 2\nh_sum 5\nh_count 2\n";
        let errs = validate(decreasing).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("decreased")), "{errs:?}");
        // _count disagrees with the +Inf bucket.
        let mismatch = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 5\nh_count 3\n";
        let errs = validate(mismatch).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("!= +Inf")), "{errs:?}");
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        for (doc, needle) in [
            ("9bad_name 1\n", "invalid metric name"),
            ("m{le=\"x} 1\n", "unterminated"),
            ("m{l=\"a\\q\"} 1\n", "illegal escape"),
            ("m{l=bare} 1\n", "not quoted"),
            ("m \n", "missing sample value"),
            ("m notanumber\n", "bad sample value"),
            ("# FOO m 1\n", "unknown comment"),
            ("# TYPE m sideways\nm 1\n", "unknown TYPE"),
        ] {
            let errs = validate(doc).unwrap_err();
            assert!(
                errs.iter().any(|e| e.contains(needle)),
                "{doc:?} -> {errs:?}"
            );
        }
    }
}
