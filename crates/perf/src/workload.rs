//! The five benchmark workloads: what each one builds and runs.

use pioeval::core::{TargetConfig, WorkloadSource};
use pioeval::des::{Backend, ExecMode, ParallelConfig, Partitioner, WindowPolicy};
use pioeval::objstore::ObjStoreConfig;
use pioeval::pfs::ClusterConfig;
use pioeval::resil::{AckMode, FailureEvent, FailureKind, FailureSchedule, ResilConfig};
use pioeval::types::{split_seed, SimDuration};
use pioeval::workloads::{parse_program, IorLike, MdtestLike};

/// The DSL program `dl_obj_traced_64` runs, parsed and linted on every trip.
pub const DL_PROGRAM: &str = include_str!("../workloads/dl_read_ckpt.pio");

/// Seed stream for failure schedules, split off the workload seed exactly
/// as `pioeval run --seed` does.
const RESIL_SEED_STREAM: u64 = 0x5EED_FA11;

/// Base file id the CLI gives DSL programs.
const DSL_BASE_FILE: u32 = 100_000;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Shared-file IOR at 4096 ranks on the default PFS, sequential.
    IorPfs4096,
    /// The same model on the two-thread parallel executor.
    IorPfs4096T2,
    /// mdtest at 512 ranks: the metadata path.
    MdtestPfs512,
    /// The DSL training loop at 64 ranks on the object store, request
    /// tracing on.
    DlObjTraced64,
    /// IOR at 2048 ranks through 4 burst-buffer I/O nodes with geographic
    /// acks and an I/O-node loss at 2 ms.
    IorBbGeo2048,
}

impl Workload {
    /// Every workload, in the order a pass interleaves them.
    pub const ALL: [Workload; 5] = [
        Workload::IorPfs4096,
        Workload::IorPfs4096T2,
        Workload::MdtestPfs512,
        Workload::DlObjTraced64,
        Workload::IorBbGeo2048,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IorPfs4096 => "ior_pfs_4096",
            Workload::IorPfs4096T2 => "ior_pfs_4096_t2",
            Workload::MdtestPfs512 => "mdtest_pfs_512",
            Workload::DlObjTraced64 => "dl_obj_traced_64",
            Workload::IorBbGeo2048 => "ior_bb_geo_2048",
        }
    }

    /// Look a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rank count of the full-size workload.
    pub fn ranks(self) -> u32 {
        match self {
            Workload::IorPfs4096 | Workload::IorPfs4096T2 => 4096,
            Workload::MdtestPfs512 => 512,
            Workload::DlObjTraced64 => 64,
            Workload::IorBbGeo2048 => 2048,
        }
    }

    /// Does a trip trace requests (and write, summarize and classify them)?
    pub fn request_trace(self) -> bool {
        self == Workload::DlObjTraced64
    }

    /// Is the workload a DSL program, parsed and linted on every trip?
    pub fn is_dsl(self) -> bool {
        self == Workload::DlObjTraced64
    }

    /// Does the workload carry a resilience configuration?
    pub fn resilient(self) -> bool {
        self == Workload::IorBbGeo2048
    }

    /// The workload whose outputs this one must reproduce exactly: the
    /// parallel executor must match the sequential one.
    pub fn reference(self) -> Option<Workload> {
        (self == Workload::IorPfs4096T2).then_some(Workload::IorPfs4096)
    }

    /// The storage target, sized for `ranks` clients.
    pub fn target(self, ranks: u32, seed: u64) -> TargetConfig {
        let num_clients = ranks as usize;
        match self {
            Workload::DlObjTraced64 => TargetConfig::ObjStore(ObjStoreConfig {
                num_clients,
                ..ObjStoreConfig::default()
            }),
            Workload::IorBbGeo2048 => TargetConfig::Pfs(ClusterConfig {
                num_clients,
                num_ionodes: 4,
                resil: Some(ResilConfig {
                    ack_mode: AckMode::Geographic,
                    failures: FailureSchedule {
                        scripted: vec![FailureEvent {
                            kind: FailureKind::IoNodeLoss,
                            target: 0,
                            at: SimDuration::from_millis(2),
                        }],
                        seed: split_seed(seed, RESIL_SEED_STREAM),
                        ..FailureSchedule::default()
                    },
                    ..ResilConfig::default()
                }),
                ..ClusterConfig::default()
            }),
            _ => TargetConfig::Pfs(ClusterConfig {
                num_clients,
                ..ClusterConfig::default()
            }),
        }
    }

    /// The DES executor.
    pub fn exec(self) -> ExecMode {
        match self {
            Workload::IorPfs4096T2 => ExecMode::Parallel(ParallelConfig {
                threads: 2,
                window: WindowPolicy::Adaptive,
                partitioner: Partitioner::RoundRobin,
                backend: Backend::Threads,
            }),
            _ => ExecMode::Sequential,
        }
    }

    /// The workload source. For the DSL workload this is the trip's
    /// pre-flight: parse [`DL_PROGRAM`] and lint it, refusing any
    /// diagnostic (`--deny-warnings`).
    pub fn source(self) -> Result<WorkloadSource, String> {
        match self {
            Workload::IorPfs4096 | Workload::IorPfs4096T2 | Workload::IorBbGeo2048 => {
                Ok(WorkloadSource::Synthetic(Box::new(IorLike::default())))
            }
            Workload::MdtestPfs512 => {
                Ok(WorkloadSource::Synthetic(Box::new(MdtestLike::default())))
            }
            Workload::DlObjTraced64 => {
                let program =
                    parse_program(DL_PROGRAM, DSL_BASE_FILE).map_err(|e| e.to_string())?;
                let lint = pioeval::lint::lint_dsl_source(DL_PROGRAM);
                if !lint.diagnostics.is_empty() {
                    return Err(format!(
                        "DSL pre-flight found {} diagnostic(s)",
                        lint.diagnostics.len()
                    ));
                }
                let main = program.main.ok_or("DSL program has no main body")?;
                Ok(WorkloadSource::Synthetic(Box::new(main)))
            }
        }
    }
}

/// One workload at a chosen size and seed: everything a trip needs.
#[derive(Clone, Debug)]
pub struct Case {
    /// The workload.
    pub workload: Workload,
    /// Rank count.
    pub ranks: u32,
    /// Seed for workload generation, DSL offsets and failure schedules.
    pub seed: u64,
    /// The storage target to build on every trip.
    pub target: TargetConfig,
    /// The DES executor.
    pub exec: ExecMode,
}

impl Case {
    /// `workload` at `ranks` ranks (its full size when `None`).
    pub fn new(workload: Workload, ranks: Option<u32>, seed: u64) -> Case {
        let ranks = ranks.unwrap_or(workload.ranks());
        Case {
            workload,
            ranks,
            seed,
            target: workload.target(ranks, seed),
            exec: workload.exec(),
        }
    }
}
