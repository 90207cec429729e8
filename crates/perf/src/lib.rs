#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # pioeval-perf
//!
//! The evaluation-trip benchmark: what one trip through the paper's
//! Fig. 4 cycle costs in host time, on five workloads that stress
//! different layers (see `README.md` for the workloads, metrics and
//! bounds).
//!
//! * [`workload`] — the five workloads and the [`workload::Case`] a trip
//!   runs.
//! * [`trip`] — a plain trip, a decomposed (span-per-stage) trip and a
//!   per-entity counted trip, plus the output oracles.
//! * [`round`] — one child process: a cold trip, then timed trips.
//! * [`pass`] — the parent: rounds one child at a time, metrics, report.
//! * [`metrics`] — metric definitions, quantiles and the result line.
//!
//! Load is a closed loop with one client: one trip at a time in one
//! process at a time, and at most two threads (the `ior_pfs_4096_t2`
//! executor's workers).

pub mod metrics;
pub mod pass;
pub mod round;
pub mod trip;
pub mod workload;
