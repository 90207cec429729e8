//! The experiment implementations, indexed in DESIGN.md.

mod claims_a;
mod claims_b;
mod extensions;
mod figures;

pub use claims_a::{e1, e2, e3, e4, e5, e6, e7};
pub use claims_b::{e10, e11, e12, e13, e14, e8, e9};
pub use extensions::{x1, x2, x3, x4, x5, x6};
pub use figures::{fig1, fig2, fig3, fig4};

use crate::{ExpOutput, Scale};
use pioeval_core::{measure, MeasurementReport, WorkloadSource};
use pioeval_iostack::StackConfig;
use pioeval_pfs::ClusterConfig;
use pioeval_workloads::Workload;

/// The shared cluster preset: 64 clients, 4 OSS × 2 HDD OSTs, no burst
/// buffers unless an experiment adds them.
pub fn base_cluster() -> ClusterConfig {
    ClusterConfig {
        num_clients: 64,
        ..ClusterConfig::default()
    }
}

/// Run a synthetic workload on a cluster and collect the full report.
pub fn run(
    cluster: &ClusterConfig,
    workload: Box<dyn Workload>,
    nranks: u32,
    seed: u64,
) -> MeasurementReport {
    measure(
        cluster,
        &WorkloadSource::Synthetic(workload),
        nranks,
        StackConfig::default(),
        seed,
    )
    .expect("experiment simulation failed")
}

/// One experiment: its index id (the `exp_all` argument, e.g. `fig3`,
/// `e11`) and its entry point.
pub type Experiment = (&'static str, fn(Scale) -> ExpOutput);

/// Every experiment, in index order.
pub const EXPERIMENTS: [Experiment; 24] = [
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("e1", e1),
    ("e2", e2),
    ("e3", e3),
    ("e4", e4),
    ("e5", e5),
    ("e6", e6),
    ("e7", e7),
    ("e8", e8),
    ("e9", e9),
    ("e10", e10),
    ("e11", e11),
    ("e12", e12),
    ("e13", e13),
    ("e14", e14),
    ("x1", x1),
    ("x2", x2),
    ("x3", x3),
    ("x4", x4),
    ("x5", x5),
    ("x6", x6),
];

/// All experiments, in index order.
pub fn all(scale: Scale) -> Vec<ExpOutput> {
    EXPERIMENTS.iter().map(|(_, run)| run(scale)).collect()
}
