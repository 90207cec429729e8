//! `pioeval-perf`: run the evaluation-trip benchmark.
//!
//! ```text
//! pioeval-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--traced]
//! ```
//!
//! Without `--workload` every workload runs, interleaved across rounds.
//! `--traced` (or `--trace 1`) runs the per-layer traced pass instead of
//! the end-to-end one. With `--workload`, the last line of stdout is the
//! JSON result. The exit status is 1 if any trip failed, 2 on bad usage.

use pioeval_perf::metrics::{bounded_end_to_end, result_line, PER_LAYER};
use pioeval_perf::pass::{render, traced, untraced, Plan};
use pioeval_perf::round::Child;
use pioeval_perf::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: pioeval-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--traced]";

/// With `--seconds`, each round keeps only this many timed trips (pairs,
/// when traced) as a floor and fills the rest of its time share.
const MIN_TRIPS_TIMED: u32 = 3;

struct Args {
    plan: Plan,
    traced: bool,
    single: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workloads = Workload::ALL.to_vec();
    let mut single = false;
    let mut seed = 42;
    let mut seconds = None;
    let mut traced = false;
    let mut i = 0;
    while i < args.len() {
        let key = args[i].as_str();
        if key == "--traced" {
            traced = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {key}"))?;
        match key {
            "--workload" => {
                let w =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?;
                workloads = vec![w];
                single = true;
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return Err(format!("bad --trace `{value}` (expected 0 or 1)")),
            },
            other => return Err(format!("unknown option {other}")),
        }
        i += 2;
    }
    let mut plan = Plan::new(workloads, seed);
    if seconds.is_some() {
        plan.seconds = seconds;
        plan.warm_trips = MIN_TRIPS_TIMED;
        plan.traced_pairs = MIN_TRIPS_TIMED;
    }
    Ok(Args {
        plan,
        traced,
        single,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        return match Child::from_args(&args) {
            Ok(child) => {
                child.run();
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("pioeval-perf: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Args {
        plan,
        traced: traced_pass,
        single,
    } = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pioeval-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pioeval-perf: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "pioeval-perf: {} pass, seed {}, {} core(s)",
        if traced_pass { "traced" } else { "untraced" },
        plan.seed,
        cores
    );
    let outcomes = if traced_pass {
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        let span_dir = PathBuf::from(target).join("perf");
        let outcomes = traced(&plan, &exe, &span_dir);
        println!("spans: {}/<workload>.spans.jsonl", span_dir.display());
        outcomes
    } else {
        untraced(&plan, &exe)
    };
    print!("{}", render(&outcomes));
    let failed: u64 = outcomes.iter().map(|o| o.failed()).sum();
    if single {
        let o = &outcomes[0];
        let defs = if traced_pass {
            PER_LAYER.to_vec()
        } else {
            bounded_end_to_end()
        };
        println!(
            "{}",
            result_line(o.attempted, o.failed(), &defs, &o.metrics)
        );
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
