#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # pioeval
//!
//! A parallel I/O evaluation framework: the complete toolchain of
//! Neuwirth & Paul's CLUSTER'21 taxonomy of large-scale I/O performance
//! evaluation, as one Rust workspace —
//!
//! * **Measure** — workload generators ([`workloads`]), an instrumented
//!   HDF5-like/MPI-IO-like/POSIX I/O stack ([`iostack`]), multi-level
//!   tracing and Darshan-style characterization ([`trace`]), server-side
//!   statistics and end-to-end monitoring ([`monitor`]).
//! * **Model & predict** — statistics, Markov chains, neural networks,
//!   random forests, grammar-based next-op prediction ([`model`]),
//!   record-and-replay, trace extrapolation and automatic benchmark
//!   generation ([`replay`]).
//! * **Simulate** — a deterministic discrete-event engine with a
//!   conservative parallel executor ([`des`]) and a storage-cluster
//!   simulator with striping, burst buffers, and dual fabrics ([`pfs`]).
//! * **Close the loop** — the IOWA-like workload abstraction and the
//!   measure→model→simulate feedback cycle ([`core`]).
//! * **Lint before you spend** — pre-flight static analysis of DSL
//!   workloads, cluster configurations, and workflow DAGs with stable
//!   `PIO0xx` diagnostic codes ([`lint`]).
//! * **Watch the watcher** — always-on self-telemetry of the framework
//!   itself: counters, gauges, histograms, and nested spans exported as
//!   metrics JSON or a Perfetto-loadable Chrome trace ([`obs`]).
//!
//! ## Quickstart
//!
//! ```
//! use pioeval::prelude::*;
//!
//! // An IOR-like benchmark on a simulated Lustre-class cluster.
//! let source = WorkloadSource::Synthetic(Box::new(IorLike::default()));
//! let report = measure(
//!     &ClusterConfig::default(),
//!     &source,
//!     4,                       // ranks
//!     StackConfig::default(),
//!     42,                      // seed
//! )
//! .unwrap();
//! assert!(report.makespan().is_some());
//! assert!(report.profile.bytes_written() > 0);
//! ```

pub use pioeval_core as core;
pub use pioeval_corpus as corpus;
pub use pioeval_des as des;
pub use pioeval_iostack as iostack;
pub use pioeval_lint as lint;
pub use pioeval_model as model;
pub use pioeval_monitor as monitor;
pub use pioeval_objstore as objstore;
pub use pioeval_obs as obs;
pub use pioeval_pfs as pfs;
pub use pioeval_replay as replay;
pub use pioeval_reqtrace as reqtrace;
pub use pioeval_resil as resil;
pub use pioeval_trace as trace;
pub use pioeval_types as types;
pub use pioeval_workloads as workloads;

/// The most common imports for framework users.
pub mod prelude {
    pub use pioeval_core::{
        measure, poisson_starts, Campaign, EvaluationLoop, Submission, Table, TargetConfig,
        WorkloadSource,
    };
    pub use pioeval_iostack::{collect, launch, CaptureConfig, JobSpec, StackConfig, StackOp};
    pub use pioeval_lint::{lint_config, lint_dag, lint_dsl_source, lint_program, LintReport};
    pub use pioeval_obs::export::{chrome_trace, human_summary, metrics_json, summary_line};
    pub use pioeval_pfs::{Cluster, ClusterConfig};
    pub use pioeval_trace::{DxtTrace, JobProfile};
    pub use pioeval_types::{bytes, FileId, IoKind, MetaOp, Rank, SimDuration, SimTime};
    pub use pioeval_workloads::{
        AnalyticsLike, BtIoLike, CheckpointLike, DlioLike, IorLike, MdtestLike, SkeletonApp,
        WorkflowDag, Workload,
    };
}
