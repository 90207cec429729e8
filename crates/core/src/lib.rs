#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # pioeval-core
//!
//! The paper's contribution as an executable system: the iterative
//! large-scale I/O evaluation process of Fig. 4, implemented as a
//! closed loop over the workspace's substrates.
//!
//! * [`mod@taxonomy`] — the taxonomy itself, as data: every phase and
//!   strategy of Fig. 4, each mapped to the crate/module implementing it.
//! * [`source`] — the IOWA-like workload abstraction (Snyder et al.):
//!   one [`source::WorkloadSource`] type covering the paper's three
//!   workload information sources — synthetic descriptions, I/O traces,
//!   and characterization profiles — all consumable by the same
//!   simulation/replay consumers. Includes the "innovative technique for
//!   synthesizing representative I/O workloads from Darshan logs":
//!   profile → synthetic workload reconstruction.
//! * [`pipeline`] — the measurement phase as one call
//!   ([`pipeline::measure`]): run a source on a cluster, collect the
//!   job-level profile, DXT trace, server-side statistics, and system
//!   analysis in one report; and [`pipeline::EvaluationLoop`], the
//!   measure → model → regenerate → re-measure feedback cycle.
//! * [`report`] — plain-text table rendering shared by the experiment
//!   binaries.

pub mod campaign;
pub mod pipeline;
pub mod report;
pub mod source;
pub mod taxonomy;

pub use campaign::{
    poisson_starts, Campaign, CampaignResult, InterferenceCampaign, InterferenceReport, Submission,
};
pub use pipeline::{
    measure, measure_target, measure_target_instrumented, measure_target_traced,
    measure_target_with_exec, measure_with_exec, EvaluationLoop, LoopIteration, MeasurementReport,
    TargetConfig,
};
pub use report::{bar_chart, sparkline, Table};
pub use source::WorkloadSource;
pub use taxonomy::{taxonomy, Phase, Strategy};
