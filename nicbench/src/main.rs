//! `nicbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! one JSON object: `correct`, `attempted` (measured steps), `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Any output-check failure prints
//! the reason on standard error, reports `"correct": false` and exits 1.
//!
//! `nicbench --pins` prints the pin tables of `sim_mix` and
//! `line_errored_oc3` for the current program.

use nicbench::{end_to_end, line, per_layer, result_json, run, sim, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: nicbench --workload <line_bulk_oc12|atm_burst_mix|line_errored_oc3|sim_mix> \
     --seed <n> --seconds <s> --trace <0|1>  |  nicbench --pins";

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--pins"] {
        return match sim::pin_table().and_then(|s| Ok(s + "\n" + &line::errored_pin_table()?)) {
            Ok(t) => {
                print!("{t}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("nicbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nicbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let r = match run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nicbench: output check failed: {e}");
            println!("{}", result_json(false, 1, 1, &[]));
            return ExitCode::FAILURE;
        }
    };
    let attempted = r.plain.steps.count + r.traced.steps.count;
    let (metrics, text) = if args.trace {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "nicbench/target".into());
        let path = std::path::Path::new(&dir).join("nicbench").join(format!(
            "spans-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = r.tracer.write_spans(&path) {
            eprintln!("nicbench: {e}");
            return ExitCode::FAILURE;
        }
        let (m, mut t) = per_layer(&r);
        t.push_str(&format!(
            "  {} spans written to {} ({} more timed but not kept)\n",
            r.tracer.spans().len(),
            path.display(),
            r.tracer.dropped()
        ));
        (m, t)
    } else {
        end_to_end(&r)
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("nicbench: metric {} is not a number", bad.name);
        println!("{}", result_json(false, attempted, attempted, &[]));
        return ExitCode::FAILURE;
    }
    print!("{text}");
    println!("{}", result_json(true, attempted, 0, &metrics));
    ExitCode::SUCCESS
}
