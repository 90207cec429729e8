//! Runs experiments from DESIGN.md's experiment index at full scale and
//! prints their reports: every one (F1-F4, E1-E14, X1-X6; about 2 s for
//! a release build on a 2-vCPU VM) with no arguments, or only the listed
//! ids, e.g. `exp_all fig3 e2`.

use pioeval_bench::experiments::{Experiment, EXPERIMENTS};
use pioeval_bench::Scale;
use std::process::ExitCode;

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let mut selected: Vec<&Experiment> = Vec::new();
    for id in &ids {
        match EXPERIMENTS.iter().find(|(name, _)| name == id) {
            Some(exp) => selected.push(exp),
            None => {
                let valid: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
                eprintln!("unknown experiment `{id}`; valid ids: {}", valid.join(" "));
                return ExitCode::FAILURE;
            }
        }
    }
    if ids.is_empty() {
        selected = EXPERIMENTS.iter().collect();
    }
    for (_, run) in selected {
        run(Scale::Full).print();
        println!();
    }
    ExitCode::SUCCESS
}
