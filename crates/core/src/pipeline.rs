//! The closed evaluation loop (Fig. 4).
//!
//! [`measure`] is one trip through the measurement phase: lower a
//! [`WorkloadSource`] to programs, execute them on a simulated cluster
//! through the instrumented I/O stack, and collect every data product
//! the paper's Sec. IV-A lists. [`EvaluationLoop`] then closes the
//! cycle: the measurement's *profile* becomes a new (characterization)
//! workload source, which is re-measured and compared against the
//! original — the feedback arrows of Fig. 4.

use crate::source::WorkloadSource;
use pioeval_des::ExecMode;
use pioeval_iostack::{
    collect_on, drain_request_events, enable_request_trace, launch_on, JobResult, JobSpec,
    StackConfig, StorageTarget,
};
use pioeval_monitor::SystemAnalysis;
use pioeval_objstore::{GatewayStats, ObjCluster, ObjStoreConfig};
use pioeval_pfs::{BurstBufferStats, Cluster, ClusterConfig, FabricStats, ServerStats};
use pioeval_replay::{compare, FidelityReport};
use pioeval_trace::{DxtTrace, JobProfile};
use pioeval_types::{Result, SimDuration, SimTime};

/// Which storage backend to build for a measurement or campaign: the
/// bottom layer of Fig. 2 as an evaluation axis.
#[derive(Clone, Debug)]
pub enum TargetConfig {
    /// A parallel file system cluster.
    Pfs(ClusterConfig),
    /// An S3-like object store.
    ObjStore(ObjStoreConfig),
}

impl TargetConfig {
    /// Build a fresh storage target from this configuration.
    pub fn build(&self) -> Result<StorageTarget> {
        match self {
            TargetConfig::Pfs(cfg) => Ok(StorageTarget::Pfs(Cluster::new(cfg.clone())?)),
            TargetConfig::ObjStore(cfg) => {
                Ok(StorageTarget::ObjStore(ObjCluster::new(cfg.clone())?))
            }
        }
    }

    /// Short backend name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            TargetConfig::Pfs(_) => "pfs",
            TargetConfig::ObjStore(_) => "objstore",
        }
    }
}

/// Everything one measurement trip produces.
pub struct MeasurementReport {
    /// The executed job's results (records, counters, completion).
    pub job: JobResult,
    /// Darshan-style characterization profile.
    pub profile: JobProfile,
    /// DXT-style extended trace.
    pub dxt: DxtTrace,
    /// Per-storage-server statistics (OSSes, or object storage nodes).
    pub servers: Vec<ServerStats>,
    /// Metadata operations served (MDS, or object metadata shards).
    pub mds_ops: u64,
    /// System-level temporal/spatial analysis of the server timelines.
    pub analysis: SystemAnalysis,
    /// Transfer statistics of the (compute, storage) fabrics.
    pub fabrics: (FabricStats, FabricStats),
    /// Burst-buffer statistics per I/O node (empty when tier disabled
    /// or on the object-store path).
    pub burst_buffers: Vec<BurstBufferStats>,
    /// Per-gateway statistics (empty on the PFS path).
    pub gateways: Vec<GatewayStats>,
    /// Assembled per-request trace (Some only when the measurement ran
    /// with request tracing enabled; see [`measure_target_instrumented`]).
    pub requests: Option<pioeval_reqtrace::Assembly>,
    /// Resilience metrics (Some only when the target carried a
    /// resilience configuration: write-ack policy, failure injection).
    pub resilience: Option<pioeval_resil::ResilienceReport>,
    /// The parallel executor's per-worker phase profile (Some only when
    /// the measurement ran with profiling enabled *and* the executor was
    /// genuinely parallel; see [`measure_target_instrumented`]).
    pub exec_profile: Option<pioeval_types::ExecProfile>,
}

impl MeasurementReport {
    /// Job makespan (None if a rank never finished).
    pub fn makespan(&self) -> Option<SimDuration> {
        self.job.makespan()
    }
}

/// Run one workload source on a fresh PFS cluster and collect all data
/// products, using the sequential executor. See
/// [`measure_target_instrumented`] for the object store, the parallel
/// engine, request tracing and execution profiling.
pub fn measure(
    cluster_cfg: &ClusterConfig,
    source: &WorkloadSource,
    nranks: u32,
    stack: StackConfig,
    seed: u64,
) -> Result<MeasurementReport> {
    measure_target_instrumented(
        &TargetConfig::Pfs(cluster_cfg.clone()),
        source,
        nranks,
        stack,
        seed,
        &ExecMode::Sequential,
        false,
        false,
    )
}

/// The measurement trip, generic over the storage backend: the same
/// lowered rank programs run against a PFS or an object store, and the
/// report's server/metadata fields are filled from whichever tier the
/// target has (OSS/MDS, or storage-node/shard plus gateway stats). The
/// DES engine is deterministic across executors, so every data product
/// is identical whichever `exec` runs; only wall-clock time differs.
///
/// With `request_trace` on, every client RPC (each carries a trace id)
/// is followed through fabrics, servers, and device queues in
/// simulated time; the assembled, latency-attributed requests land in
/// [`MeasurementReport::requests`]. Recording is per-entity and
/// contention-free, and the drained trace is deterministic across DES
/// executors.
///
/// With `profile` on (and a parallel `exec`), the DES workers record
/// per-window phase timelines — compute, mailbox-drain, barrier-wait,
/// horizon-stall — which land merged in
/// [`MeasurementReport::exec_profile`]. Like request tracing, recording
/// is per-worker and lock-free; a sequential run yields `None`.
#[allow(clippy::too_many_arguments)]
pub fn measure_target_instrumented(
    target_cfg: &TargetConfig,
    source: &WorkloadSource,
    nranks: u32,
    stack: StackConfig,
    seed: u64,
    exec: &ExecMode,
    request_trace: bool,
    profile: bool,
) -> Result<MeasurementReport> {
    use pioeval_obs::names;
    let _obs_span = pioeval_obs::span(names::SPAN_CORE_MEASURE, "core");
    pioeval_obs::global().counter(names::CORE_MEASURES).inc();

    let mut target = {
        let _s = pioeval_obs::span(names::SPAN_CORE_BUILD, "core");
        pioeval_obs::live::set_phase("measure:build");
        target_cfg.build()?
    };
    let programs = {
        let _s = pioeval_obs::span(names::SPAN_CORE_LOWER, "core");
        pioeval_obs::live::set_phase("measure:lower");
        source.programs(nranks, seed)
    };
    let spec = JobSpec {
        programs,
        stack,
        start: SimTime::ZERO,
    };
    let handle = launch_on(&mut target, &spec);
    drop(spec);
    if request_trace {
        enable_request_trace(&mut target, &handle);
    }
    let exec_profile = {
        let _s = pioeval_obs::span(names::SPAN_CORE_SIMULATE, "core");
        pioeval_obs::live::set_phase("measure:simulate");
        if profile {
            target.run_exec_profiled(exec).1
        } else {
            target.run_exec(exec);
            None
        }
    };
    let _collect_span = pioeval_obs::span(names::SPAN_CORE_COLLECT, "core");
    pioeval_obs::live::set_phase("measure:collect");
    let events = request_trace.then(|| drain_request_events(&mut target, &handle));
    let job = collect_on(&target, &handle);
    // Read everything the report needs from the simulated cluster, then
    // free it before the request assembly, the record copy and the trace
    // products are built: none of them needs to coexist with the cluster.
    let (servers, mds_ops, fabrics, burst_buffers, gateways) = match &mut target {
        StorageTarget::Pfs(cluster) => (
            cluster.oss_stats(),
            cluster.mds_requests(),
            cluster.fabric_stats(),
            cluster.ionode_stats(),
            Vec::new(),
        ),
        StorageTarget::ObjStore(cluster) => (
            cluster.storage_stats(),
            cluster.shard_requests(),
            cluster.fabric_stats(),
            Vec::new(),
            cluster.gateway_stats(),
        ),
    };
    let resilience = target.resilience();
    let analysis = {
        let timelines: Vec<_> = servers
            .iter()
            .flat_map(|s| s.timelines.iter().cloned())
            .collect();
        SystemAnalysis::from_timelines(&timelines)
    };
    drop(target);
    let requests = events.map(|events| pioeval_reqtrace::assemble(&events));
    // The profile comes from the ranks' always-on streaming counters, so
    // it is complete even when record capture is disabled.
    let profile = job.merged_profile();
    // The flattened record copy lives only as long as the DXT build.
    let dxt = DxtTrace::from_records(&job.all_records());
    Ok(MeasurementReport {
        job,
        profile,
        dxt,
        servers,
        mds_ops,
        analysis,
        fabrics,
        burst_buffers,
        gateways,
        requests,
        resilience,
        exec_profile,
    })
}

/// One iteration of the closed loop.
pub struct LoopIteration {
    /// Which source kind drove this iteration.
    pub source: &'static str,
    /// The measurement.
    pub report: MeasurementReport,
    /// Fidelity vs. the original measurement (None for the first trip).
    pub fidelity: Option<FidelityReport>,
}

/// The measure → model → regenerate → re-measure feedback cycle.
pub struct EvaluationLoop {
    cluster_cfg: ClusterConfig,
    stack: StackConfig,
    nranks: u32,
    seed: u64,
}

impl EvaluationLoop {
    /// Configure a loop.
    pub fn new(cluster_cfg: ClusterConfig, stack: StackConfig, nranks: u32, seed: u64) -> Self {
        EvaluationLoop {
            cluster_cfg,
            stack,
            nranks,
            seed,
        }
    }

    /// Run the full cycle for a synthetic source:
    ///
    /// 1. **Measure** the original workload (execution-driven).
    /// 2. **Model**: derive a trace source and a characterization source
    ///    from the measurement.
    /// 3. **Simulate** both derived sources on the same cluster.
    /// 4. **Feed back**: report each derived run's fidelity against the
    ///    original.
    pub fn run(&self, original: &WorkloadSource) -> Result<Vec<LoopIteration>> {
        let first = measure(
            &self.cluster_cfg,
            original,
            self.nranks,
            self.stack,
            self.seed,
        )?;

        // Derived sources from the measurement's data products.
        let trace_source = WorkloadSource::Trace {
            records: first.job.records.clone(),
            mode: pioeval_replay::ReplayMode::Timed,
        };
        let profile_source = WorkloadSource::Characterization {
            profile: first.profile.clone(),
            nranks: self.nranks,
        };

        let mut iterations = vec![LoopIteration {
            source: original.name(),
            report: first,
            fidelity: None,
        }];
        for derived in [trace_source, profile_source] {
            let name = derived.name();
            let report = measure(
                &self.cluster_cfg,
                &derived,
                self.nranks,
                self.stack,
                self.seed,
            )?;
            let fidelity = compare(&iterations[0].report.job, &report.job);
            iterations.push(LoopIteration {
                source: name,
                report,
                fidelity: Some(fidelity),
            });
        }
        Ok(iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioeval_types::bytes;
    use pioeval_workloads::{IorLike, Workload};

    fn small_cluster() -> ClusterConfig {
        ClusterConfig {
            num_clients: 8,
            ..ClusterConfig::default()
        }
    }

    fn small_ior() -> IorLike {
        IorLike {
            block_size: bytes::mib(4),
            transfer_size: bytes::mib(1),
            read: true,
            ..IorLike::default()
        }
    }

    #[test]
    fn measure_collects_every_data_product() {
        let source = WorkloadSource::Synthetic(Box::new(small_ior()));
        let report = measure(&small_cluster(), &source, 4, StackConfig::default(), 1).unwrap();
        assert!(report.makespan().is_some());
        assert_eq!(report.profile.bytes_written(), 4 * bytes::mib(4));
        assert_eq!(report.profile.bytes_read(), 4 * bytes::mib(4));
        assert!(report.dxt.num_segments() > 0);
        assert!(report.mds_ops > 0);
        assert!(report.analysis.bytes_written > 0);
        assert!(!report.servers.is_empty());
    }

    #[test]
    fn traced_measurement_attributes_latency_exactly() {
        let targets = [
            TargetConfig::Pfs(small_cluster()),
            TargetConfig::ObjStore(ObjStoreConfig {
                num_clients: 8,
                ..ObjStoreConfig::default()
            }),
        ];
        for target in targets {
            let source = WorkloadSource::Synthetic(Box::new(small_ior()));
            let run = |request_trace| {
                measure_target_instrumented(
                    &target,
                    &source,
                    4,
                    StackConfig::default(),
                    1,
                    &ExecMode::Sequential,
                    request_trace,
                    false,
                )
                .unwrap()
            };
            let report = run(true);
            let asm = report.requests.as_ref().unwrap();
            assert!(!asm.requests.is_empty(), "{} traced nothing", target.name());
            for r in &asm.requests {
                assert_eq!(
                    r.breakdown().iter().sum::<u64>(),
                    r.latency().as_nanos(),
                    "{}: request {:#x} segments must sum to latency",
                    target.name(),
                    r.tid
                );
            }
            // Untraced runs carry no request assembly.
            assert!(run(false).requests.is_none());
        }
    }

    #[test]
    fn resilience_surfaces_through_measurement_reports() {
        use pioeval_resil::{AckMode, FailureEvent, FailureKind, FailureSchedule, ResilConfig};
        let cfg = ClusterConfig {
            num_clients: 8,
            num_ionodes: 2,
            resil: Some(ResilConfig {
                ack_mode: AckMode::LocalOnly,
                failures: FailureSchedule {
                    scripted: vec![FailureEvent {
                        kind: FailureKind::IoNodeLoss,
                        target: 0,
                        at: SimDuration::from_millis(2),
                    }],
                    ..FailureSchedule::default()
                },
                ..ResilConfig::default()
            }),
            ..ClusterConfig::default()
        };
        let source = WorkloadSource::Synthetic(Box::new(small_ior()));
        let report = measure(&cfg, &source, 4, StackConfig::default(), 1).unwrap();
        let resil = report
            .resilience
            .expect("resil config must surface a report");
        assert!(resil.acked_bytes > 0);
        assert_eq!(resil.failures_injected, 1);
        assert!(resil.conserves_bytes());
        // Default runs keep the field empty.
        let plain = measure(&small_cluster(), &source, 4, StackConfig::default(), 1).unwrap();
        assert!(plain.resilience.is_none());
    }

    #[test]
    fn parallel_executor_reproduces_measurement() {
        use pioeval_des::{Backend, ParallelConfig};
        let source = WorkloadSource::Synthetic(Box::new(small_ior()));
        let stack = StackConfig::default;
        let seq = measure(&small_cluster(), &source, 4, stack(), 1).unwrap();
        for backend in [Backend::Threads, Backend::Cooperative] {
            let exec = ExecMode::Parallel(ParallelConfig {
                threads: 3,
                backend,
                ..ParallelConfig::default()
            });
            let par = measure_target_instrumented(
                &TargetConfig::Pfs(small_cluster()),
                &source,
                4,
                stack(),
                1,
                &exec,
                false,
                false,
            )
            .unwrap();
            assert_eq!(par.makespan(), seq.makespan(), "{backend:?}");
            assert_eq!(par.profile.bytes_written(), seq.profile.bytes_written());
            assert_eq!(par.profile.bytes_read(), seq.profile.bytes_read());
            assert_eq!(par.mds_ops, seq.mds_ops);
            assert_eq!(par.dxt.num_segments(), seq.dxt.num_segments());
        }
    }

    #[test]
    fn closed_loop_reproduces_volumes_across_sources() {
        let lp = EvaluationLoop::new(small_cluster(), StackConfig::default(), 4, 1);
        let iterations = lp
            .run(&WorkloadSource::Synthetic(Box::new(small_ior())))
            .unwrap();
        assert_eq!(iterations.len(), 3);
        assert_eq!(iterations[0].source, "synthetic");
        assert_eq!(iterations[1].source, "trace");
        assert_eq!(iterations[2].source, "characterization");
        // Trace replay preserves bytes exactly.
        let trace_fid = iterations[1].fidelity.as_ref().unwrap();
        assert!(trace_fid.bytes_exact(), "{trace_fid:?}");
        // Profile synthesis preserves byte volumes too (ordering may
        // differ, so only volumes are guaranteed).
        let prof_fid = iterations[2].fidelity.as_ref().unwrap();
        assert_eq!(prof_fid.original_bytes, prof_fid.replayed_bytes);
        // Timed trace replay should land near the original makespan.
        assert!(
            trace_fid.timing_within(0.35),
            "trace replay drifted: ratio {}",
            trace_fid.makespan_ratio
        );
    }

    #[test]
    fn derived_programs_match_original_shape() {
        // The characterization source must produce one program per rank.
        let source = WorkloadSource::Synthetic(Box::new(small_ior()));
        let report = measure(&small_cluster(), &source, 3, StackConfig::default(), 1).unwrap();
        let derived = WorkloadSource::Characterization {
            profile: report.profile,
            nranks: 3,
        };
        assert_eq!(derived.programs(3, 0).len(), 3);
        let ior_programs = small_ior().programs(3, 0);
        assert_eq!(ior_programs.len(), 3);
    }
}
