//! The `amgen-bench` command line.
//!
//! ```text
//! amgen-bench --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>] [--trace-out <file>]
//! amgen-bench compare <parent-dir> <change-dir> [--claim <workload>/<metric>] [--benchmark <file>]
//! ```
//!
//! A run prints two lines: the full report (every metric with its unit
//! and sample count, and the failures), then the result line
//! `{"correct","attempted","failed","metrics"}`. It exits 0 only when
//! every output checked out and every metric was measured.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use amgen_e2e_bench::compare::{compare, load_bounds, load_runs, Claim};
use amgen_e2e_bench::{run, Workload};

/// The measured window when `--seconds` is not given. BENCHMARK.json
/// runs pass its `run_seconds`, the same 30 s; `compare` refuses to
/// pair runs of different lengths.
const DEFAULT_SECONDS: u64 = 30;

const USAGE: &str =
    "usage: amgen-bench --workload <serve_warm|serve_sweep|native_signoff|chip_signoff|all> \
--seed <n> [--seconds <s>] [--trace <0|1>] [--trace-out <file>]\n       \
amgen-bench compare <parent-dir> <change-dir> [--claim <workload>/<metric>] [--benchmark <file>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare_cmd(&args[1..])
    } else {
        run_cmd(&args)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("amgen-bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Positional words and `(flag, value)` pairs.
type Args = (Vec<String>, Vec<(String, String)>);

/// Splits `--flag value` pairs off `args`; other words are positional.
fn flags(args: &[String]) -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut pairs = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(flag) = a.strip_prefix("--") {
            let value = it.next().ok_or(format!("--{flag} needs a value"))?;
            pairs.push((flag.to_string(), value.clone()));
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, pairs))
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (positional, pairs) = flags(args)?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, DEFAULT_SECONDS, false, None);
    for (flag, value) in &pairs {
        match flag.as_str() {
            "workload" => workload = Some(value.clone()),
            "seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "trace-out" => trace_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if workload == "all" {
        return run_all(seed, seconds, trace);
    }
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload `{workload}`"))?;
    let trace_file = trace.then(|| {
        trace_out.unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("{}-seed{seed}.trace.json", workload.name()))
        })
    });
    let report = run(
        workload,
        seed,
        Duration::from_secs(seconds),
        trace_file.as_deref(),
    )?;
    println!("{}", report.document());
    println!("{}", report.result_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload, each in its own process so that each reports
/// its own peak memory.
fn run_all(seed: u64, seconds: u64, trace: bool) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .status()
            .map_err(|e| e.to_string())?;
        ok &= status.success();
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (positional, pairs) = flags(args)?;
    let [parent, change] = positional.as_slice() else {
        return Err("compare takes a parent and a change directory".into());
    };
    let mut claim = None;
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    for (flag, value) in pairs {
        match flag.as_str() {
            "claim" => {
                let (workload, metric) = value
                    .split_once('/')
                    .ok_or("--claim takes <workload>/<metric>")?;
                claim = Some(Claim {
                    workload: workload.to_string(),
                    metric: metric.to_string(),
                });
            }
            "benchmark" => benchmark = PathBuf::from(value),
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    let bounds = load_bounds(&benchmark)?;
    let parent = load_runs(parent.as_ref())?;
    let change = load_runs(change.as_ref())?;
    let (table, pass) = compare(&bounds, &parent, &change, claim.as_ref())?;
    print!("{table}");
    Ok(if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
