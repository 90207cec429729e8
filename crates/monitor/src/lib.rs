#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # pioeval-monitor
//!
//! End-to-end, holistic I/O monitoring (paper Sec. IV-A2's
//! "all-encompassing and cohesive monitoring systems which can capture
//! end-to-end I/O behavior of jobs at each step along their I/O path"):
//!
//! * [`endtoend`] — UMAMI/TOKIO-style fusion of job-level profiles with
//!   server-side statistics and scheduler logs into one metrics panel.
//! * [`analysis`] — Patel-et-al-style temporal / spatial / correlative
//!   analysis of server timelines (burstiness, read:write mix over time,
//!   job–server correlation).
//! * [`interference`] — Yildiz-et-al-style cross-application
//!   interference quantification (co-run slowdown vs. isolated runs).
//! * [`loadbalance`] — iez-style OST load inspection and rebalancing
//!   recommendations.
//! * [`scheduler`] — workload-manager (Slurm-like) job logs, the third
//!   data source the paper lists alongside profiles and server stats.
//! * [`bottleneck`] — categorical queue/service/device/fabric diagnosis
//!   from the request tracer's per-layer latency attribution.
//! * [`durability`] — categorical durability verdicts from the
//!   resilience tier's byte accounting (ACKed vs. durable vs. lost).
//! * [`profiler`] — lost-parallelism attribution for the parallel DES
//!   engine's per-worker phase timelines (partition skew vs. lookahead
//!   limit, critical workers, what-if speedup ceilings).

pub mod analysis;
pub mod bottleneck;
pub mod classify;
pub mod durability;
pub mod endtoend;
pub mod interference;
pub mod loadbalance;
pub mod metadata;
pub mod profiler;
pub mod scheduler;
pub mod straggler;

pub use analysis::{SystemAnalysis, WindowMix};
pub use bottleneck::{classify_bottleneck, BottleneckClass, DOMINANCE_THRESHOLD};
pub use classify::{classify_jobs, signature, JobClasses, Signature};
pub use durability::{assess_durability, loss_fraction, DurabilityVerdict};
pub use endtoend::{EndToEndView, MetricRow};
pub use interference::{interference_report, InterferenceReport};
pub use loadbalance::{rebalance, LoadReport};
pub use metadata::MetadataActivity;
pub use profiler::{
    analyze_profile, append_profile_tracks, Cause, CriticalWorker, LostParallelism,
    ProfileAnalysis, WorkerBreakdown,
};
pub use scheduler::{JobLog, SchedulerLog};
pub use straggler::{find_stragglers, LaneHealth, StragglerReport};
