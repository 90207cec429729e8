//! Job launch and result collection.

use crate::config::StackConfig;
use crate::coordinator::JobCoordinator;
use crate::ops::StackOp;
use crate::plan::compile;
use crate::rank::{RankClient, RankCounters};
use crate::target::{StoragePort, StorageTarget};
use pioeval_des::{EntityId, Simulation};
use pioeval_pfs::msg::PfsMsg;
use pioeval_pfs::Cluster;
use pioeval_trace::JobProfile;
use pioeval_types::{LayerRecord, Rank, ReqEvent, SimDuration, SimTime};

/// A job: one program per rank plus stack configuration.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Per-rank programs. `programs.len()` is the rank count.
    pub programs: Vec<Vec<StackOp>>,
    /// I/O stack configuration.
    pub stack: StackConfig,
    /// Simulated submit time.
    pub start: SimTime,
}

impl JobSpec {
    /// A job where every rank runs the same program (SPMD).
    pub fn spmd(nranks: u32, program: Vec<StackOp>, stack: StackConfig) -> Self {
        JobSpec {
            programs: vec![program; nranks as usize],
            stack,
            start: SimTime::ZERO,
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> u32 {
        self.programs.len() as u32
    }
}

/// Handle to a launched job. A launch registers the coordinator and
/// then every rank in rank order, so the job's rank entities are the
/// contiguous range `first_rank..first_rank + nranks`
/// ([`JobHandle::rank`]); jobs launched onto one simulation get
/// disjoint ranges.
#[derive(Clone, Debug)]
pub struct JobHandle {
    /// The coordinator entity.
    pub coordinator: EntityId,
    /// The entity of rank 0.
    pub first_rank: EntityId,
    /// Number of ranks.
    pub nranks: u32,
    /// Submit time.
    pub start: SimTime,
}

impl JobHandle {
    /// The entity of rank `i` (`i < nranks`).
    pub fn rank(&self, i: u32) -> EntityId {
        debug_assert!(i < self.nranks, "rank {i} of a {}-rank job", self.nranks);
        EntityId(self.first_rank.0 + i)
    }
}

/// Collected results of a completed job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Captured layer records, per rank.
    pub records: Vec<Vec<LayerRecord>>,
    /// Always-on counters, per rank.
    pub counters: Vec<RankCounters>,
    /// Always-on streaming profiles, per rank.
    pub profiles: Vec<JobProfile>,
    /// Per-rank completion times (None = rank did not finish).
    pub finished: Vec<Option<SimTime>>,
    /// Submit time.
    pub start: SimTime,
}

impl JobResult {
    /// Job makespan: submit → last rank completion. None if any rank is
    /// unfinished.
    pub fn makespan(&self) -> Option<SimDuration> {
        let mut latest = SimTime::ZERO;
        for f in &self.finished {
            latest = latest.max((*f)?);
        }
        Some(latest.since(self.start))
    }

    /// All records across ranks, flattened (sorted by start time).
    pub fn all_records(&self) -> Vec<LayerRecord> {
        let mut out: Vec<LayerRecord> = self.records.iter().flatten().copied().collect();
        out.sort_by_key(|r| (r.start, r.rank));
        out
    }

    /// The job-level Darshan-style profile: merge of every rank's
    /// streaming profile (available in all capture modes).
    pub fn merged_profile(&self) -> JobProfile {
        let mut merged = JobProfile::new();
        for p in &self.profiles {
            merged.merge(p);
        }
        merged
    }

    /// Aggregate bytes written at the POSIX level.
    pub fn bytes_written(&self) -> u64 {
        self.counters.iter().map(|c| c.bytes_written).sum()
    }

    /// Aggregate bytes read at the POSIX level.
    pub fn bytes_read(&self) -> u64 {
        self.counters.iter().map(|c| c.bytes_read).sum()
    }

    /// Aggregate write throughput over the makespan, MiB/s.
    pub fn write_throughput_mib_s(&self) -> f64 {
        match self.makespan() {
            Some(m) if !m.is_zero() => {
                pioeval_types::throughput_mib_s(self.bytes_written(), m.as_secs_f64())
            }
            _ => 0.0,
        }
    }

    /// Aggregate read throughput over the makespan, MiB/s.
    pub fn read_throughput_mib_s(&self) -> f64 {
        match self.makespan() {
            Some(m) if !m.is_zero() => {
                pioeval_types::throughput_mib_s(self.bytes_read(), m.as_secs_f64())
            }
            _ => 0.0,
        }
    }
}

/// Backend-agnostic launch body: creates the coordinator and one rank
/// entity per program, and schedules their start messages.
/// `port_factory(me, client_index)` yields each rank's storage port.
fn launch_inner(
    sim: &mut Simulation<PfsMsg>,
    clients: &mut Vec<EntityId>,
    compute_fabric: EntityId,
    mut port_factory: impl FnMut(EntityId, usize) -> StoragePort,
    spec: &JobSpec,
) -> JobHandle {
    let _obs_span = pioeval_obs::span(pioeval_obs::names::SPAN_IOSTACK_LAUNCH, "iostack");
    let nranks = spec.nranks();
    assert!(nranks > 0, "job must have at least one rank");
    let mut total_actions = 0u64;

    // Entity ids are assigned sequentially, so the coordinator and the
    // ranks' ids are known before they are constructed: the coordinator,
    // then rank `i` at `first_rank + i` (ranks address each other by
    // that range for shuffle traffic). The asserts below pin it.
    let base = sim.num_entities() as u32;
    let coordinator_id = EntityId(base);
    let handle = JobHandle {
        coordinator: coordinator_id,
        first_rank: EntityId(base + 1),
        nranks,
        start: spec.start,
    };

    let coord = JobCoordinator::new(compute_fabric, handle.first_rank, nranks);
    let actual = sim.add_entity("coordinator", Box::new(coord));
    debug_assert_eq!(actual, coordinator_id);

    for (i, program) in spec.programs.iter().enumerate() {
        let me = handle.rank(i as u32);
        let client_index = clients.len();
        let port = port_factory(me, client_index);
        let actions = compile(i as u32, nranks, program, &spec.stack);
        total_actions += actions.len() as u64;
        let entity = RankClient::new(
            port,
            Rank::new(i as u32),
            coordinator_id,
            handle.first_rank,
            actions,
            spec.stack.capture,
        );
        let actual = sim.add_entity(format!("rank{i}"), Box::new(entity));
        debug_assert_eq!(actual, me);
        clients.push(me);
        sim.schedule(spec.start, me, PfsMsg::Start);
    }

    let obs = pioeval_obs::global();
    obs.counter(pioeval_obs::names::IOSTACK_RANKS)
        .add(nranks as u64);
    obs.counter(pioeval_obs::names::IOSTACK_ACTIONS)
        .add(total_actions);

    handle
}

/// Launch a job onto a PFS cluster: creates the coordinator and one
/// rank entity per program, and schedules their start messages.
pub fn launch(cluster: &mut Cluster, spec: &JobSpec) -> JobHandle {
    let handles = cluster.handles.clone();
    let compute_fabric = handles.compute_fabric;
    launch_inner(
        &mut cluster.sim,
        &mut cluster.clients,
        compute_fabric,
        |me, idx| StoragePort::Pfs(handles.port(me, idx)),
        spec,
    )
}

/// Launch a job onto either storage backend ([`StorageTarget`]): the
/// same compiled rank programs target the PFS or the object store.
pub fn launch_on(target: &mut StorageTarget, spec: &JobSpec) -> JobHandle {
    match target {
        StorageTarget::Pfs(c) => launch(c, spec),
        StorageTarget::ObjStore(c) => {
            let handles = c.handles.clone();
            let compute_fabric = handles.compute_fabric;
            launch_inner(
                &mut c.sim,
                &mut c.clients,
                compute_fabric,
                |me, idx| StoragePort::Obj(handles.port(me, idx)),
                spec,
            )
        }
    }
}

/// Backend-agnostic result collection.
fn collect_from(sim: &Simulation<PfsMsg>, handle: &JobHandle) -> JobResult {
    let _obs_span = pioeval_obs::span(pioeval_obs::names::SPAN_IOSTACK_COLLECT, "iostack");
    let mut records = Vec::new();
    let mut counters = Vec::new();
    let mut profiles = Vec::new();
    let mut finished = Vec::new();
    for i in 0..handle.nranks {
        let rank = sim
            .entity_ref::<RankClient>(handle.rank(i))
            .expect("job rank entity missing");
        records.push(rank.records.clone());
        counters.push(rank.counters);
        profiles.push(rank.profile.clone());
        finished.push(rank.finished_at);
    }
    JobResult {
        records,
        counters,
        profiles,
        finished,
        start: handle.start,
    }
}

/// Turn on end-to-end request tracing: the target's simulation records
/// the marks of every entity ([`Simulation::set_request_trace`]). Call
/// after [`launch_on`] and before running the simulation.
pub fn enable_request_trace(target: &mut StorageTarget, _handle: &JobHandle) {
    target.sim_mut().set_request_trace(true);
}

/// Drain every request-trace event of a completed run, entities in
/// ascending id ([`Simulation::drain_request_events`]). Ranks are
/// registered after every infrastructure entity, so this is the
/// infrastructure's marks by entity id, then each rank's in rank order,
/// under every DES executor.
pub fn drain_request_events(target: &mut StorageTarget, _handle: &JobHandle) -> Vec<ReqEvent> {
    target.sim_mut().drain_request_events()
}

/// Collect the results of a job after the simulation has run.
pub fn collect(cluster: &Cluster, handle: &JobHandle) -> JobResult {
    collect_from(&cluster.sim, handle)
}

/// Collect the results of a job launched via [`launch_on`].
pub fn collect_on(target: &StorageTarget, handle: &JobHandle) -> JobResult {
    match target {
        StorageTarget::Pfs(c) => collect_from(&c.sim, handle),
        StorageTarget::ObjStore(c) => collect_from(&c.sim, handle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::AccessSpec;
    use pioeval_pfs::{Cluster, ClusterConfig};
    use pioeval_types::{bytes, FileId, IoKind, Layer, MetaOp, RecordOp};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig {
            num_clients: 16,
            ..ClusterConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn spmd_posix_job_runs_to_completion() {
        let mut c = cluster();
        // File-per-process: rank programs differ, so build explicitly.
        let programs: Vec<Vec<StackOp>> = (0..4)
            .map(|r| {
                let f = FileId::new(r);
                vec![
                    StackOp::PosixMeta {
                        op: MetaOp::Create,
                        file: f,
                    },
                    StackOp::PosixData {
                        kind: IoKind::Write,
                        file: f,
                        offset: 0,
                        len: bytes::mib(4),
                    },
                    StackOp::PosixMeta {
                        op: MetaOp::Close,
                        file: f,
                    },
                ]
            })
            .collect();
        let spec = JobSpec {
            programs,
            stack: StackConfig::default(),
            start: SimTime::ZERO,
        };
        let handle = launch(&mut c, &spec);
        c.run();
        let result = collect(&c, &handle);
        assert!(result.makespan().is_some());
        assert_eq!(result.bytes_written(), 4 * bytes::mib(4));
        assert!(result.write_throughput_mib_s() > 0.0);
        // Each rank emitted posix records for create, write, close.
        for recs in &result.records {
            assert!(recs
                .iter()
                .any(|r| r.layer == Layer::Posix && r.op == RecordOp::Data(IoKind::Write)));
        }
    }

    #[test]
    fn barriers_synchronize_ranks() {
        let mut c = cluster();
        // Rank programs with asymmetric compute before a barrier: all
        // ranks leave the barrier at (or after) the slowest's arrival.
        let programs: Vec<Vec<StackOp>> = (0..4)
            .map(|r| {
                vec![
                    StackOp::Compute(SimDuration::from_millis(1 + r as u64 * 5)),
                    StackOp::Barrier,
                ]
            })
            .collect();
        let spec = JobSpec {
            programs,
            stack: StackConfig::default(),
            start: SimTime::ZERO,
        };
        let handle = launch(&mut c, &spec);
        c.run();
        let result = collect(&c, &handle);
        let finish: Vec<SimTime> = result.finished.iter().map(|f| f.unwrap()).collect();
        // Everyone finishes after the slowest rank's 16 ms compute.
        assert!(finish.iter().all(|&f| f >= SimTime::from_millis(16)));
        // And within a small window of each other (release fan-out).
        let spread = finish
            .iter()
            .max()
            .unwrap()
            .since(*finish.iter().min().unwrap());
        assert!(spread < SimDuration::from_millis(1), "spread {spread}");
    }

    #[test]
    fn collective_write_moves_all_bytes_through_aggregators() {
        let mut c = cluster();
        let file = FileId::new(40);
        let program = vec![
            StackOp::MpiOpen { file },
            StackOp::MpiCollective {
                kind: IoKind::Write,
                file,
                spec: AccessSpec::ContiguousBlocks {
                    base: 0,
                    block: bytes::mib(1),
                },
            },
            StackOp::MpiClose { file },
        ];
        let spec = JobSpec::spmd(8, program, StackConfig::default());
        let handle = launch(&mut c, &spec);
        c.run();
        let result = collect(&c, &handle);
        assert!(result.makespan().is_some(), "job did not finish");
        // All 8 MiB reach the file system, written only by aggregators
        // (2 of 8 ranks at the default ratio).
        assert_eq!(result.bytes_written(), 8 * bytes::mib(1));
        let writers = result
            .counters
            .iter()
            .filter(|cnt| cnt.bytes_written > 0)
            .count();
        assert_eq!(writers, 2);
        // Non-aggregators shipped their data over the fabric.
        let shuffled: u64 = result.counters.iter().map(|c| c.shuffle_bytes_sent).sum();
        assert_eq!(shuffled, 6 * bytes::mib(1));
        let stats = c.oss_stats();
        let written: u64 = stats.iter().map(|s| s.bytes_written).sum();
        assert_eq!(written, 8 * bytes::mib(1));
    }

    #[test]
    fn collective_read_distributes_data_back() {
        let mut c = cluster();
        let file = FileId::new(41);
        // Seed the file, then collectively read it back.
        let program = vec![
            StackOp::MpiOpen { file },
            StackOp::MpiCollective {
                kind: IoKind::Write,
                file,
                spec: AccessSpec::ContiguousBlocks {
                    base: 0,
                    block: bytes::mib(1),
                },
            },
            StackOp::Barrier,
            StackOp::MpiCollective {
                kind: IoKind::Read,
                file,
                spec: AccessSpec::ContiguousBlocks {
                    base: 0,
                    block: bytes::mib(1),
                },
            },
            StackOp::MpiClose { file },
        ];
        let spec = JobSpec::spmd(4, program, StackConfig::default());
        let handle = launch(&mut c, &spec);
        c.run();
        let result = collect(&c, &handle);
        assert!(result.makespan().is_some(), "job did not finish");
        assert_eq!(result.bytes_read(), 4 * bytes::mib(1));
    }

    #[test]
    fn profile_mode_captures_no_records_but_counts() {
        let mut c = cluster();
        let f = FileId::new(50);
        let program = vec![
            StackOp::PosixMeta {
                op: MetaOp::Create,
                file: f,
            },
            StackOp::PosixData {
                kind: IoKind::Write,
                file: f,
                offset: 0,
                len: 4096,
            },
        ];
        let stack = StackConfig {
            capture: crate::config::CaptureConfig::profile_only(),
            ..StackConfig::default()
        };
        let spec = JobSpec::spmd(1, program, stack);
        let handle = launch(&mut c, &spec);
        c.run();
        let result = collect(&c, &handle);
        assert!(result.records[0].is_empty());
        assert_eq!(result.counters[0].posix_writes, 1);
        assert_eq!(result.counters[0].bytes_written, 4096);
    }

    #[test]
    fn same_program_runs_on_the_object_store() {
        use pioeval_objstore::{ObjCluster, ObjStoreConfig};
        let c = ObjCluster::new(ObjStoreConfig {
            num_clients: 16,
            ..ObjStoreConfig::default()
        })
        .unwrap();
        let mut target = StorageTarget::ObjStore(c);
        let programs: Vec<Vec<StackOp>> = (0..4)
            .map(|r| {
                let f = FileId::new(r);
                vec![
                    StackOp::PosixMeta {
                        op: MetaOp::Create,
                        file: f,
                    },
                    StackOp::PosixData {
                        kind: IoKind::Write,
                        file: f,
                        offset: 0,
                        len: bytes::mib(4),
                    },
                    StackOp::PosixMeta {
                        op: MetaOp::Close,
                        file: f,
                    },
                    StackOp::PosixMeta {
                        op: MetaOp::Stat,
                        file: f,
                    },
                    StackOp::PosixData {
                        kind: IoKind::Read,
                        file: f,
                        offset: 0,
                        len: bytes::mib(1),
                    },
                ]
            })
            .collect();
        let spec = JobSpec {
            programs,
            stack: StackConfig::default(),
            start: SimTime::ZERO,
        };
        let handle = launch_on(&mut target, &spec);
        target.run();
        let result = collect_on(&target, &handle);
        assert!(result.makespan().is_some(), "job did not finish");
        assert_eq!(result.bytes_written(), 4 * bytes::mib(4));
        assert_eq!(result.bytes_read(), 4 * bytes::mib(1));
        // The bytes actually moved through the gateways...
        let StorageTarget::ObjStore(c) = &mut target else {
            unreachable!()
        };
        let gws = c.gateway_stats();
        let put: u64 = gws.iter().map(|g| g.put_bytes).sum();
        let get: u64 = gws.iter().map(|g| g.get_bytes).sum();
        assert_eq!(put, 4 * bytes::mib(4));
        assert_eq!(get, 4 * bytes::mib(1));
        // ...and landed on the storage nodes (replication factor 2).
        let written: u64 = c.storage_stats().iter().map(|s| s.bytes_written).sum();
        assert_eq!(written, 2 * 4 * bytes::mib(4));
    }

    #[test]
    fn tracing_overhead_slows_the_job() {
        let run = |capture: crate::config::CaptureConfig| {
            let mut c = cluster();
            let f = FileId::new(60);
            let mut program = vec![StackOp::PosixMeta {
                op: MetaOp::Create,
                file: f,
            }];
            for i in 0..50 {
                program.push(StackOp::PosixData {
                    kind: IoKind::Write,
                    file: f,
                    offset: i * 4096,
                    len: 4096,
                });
            }
            let stack = StackConfig {
                capture,
                ..StackConfig::default()
            };
            let spec = JobSpec::spmd(1, program, stack);
            let handle = launch(&mut c, &spec);
            c.run();
            collect(&c, &handle).makespan().unwrap()
        };
        let fast = run(crate::config::CaptureConfig::profile_only());
        let slow = run(crate::config::CaptureConfig::tracing(
            SimDuration::from_micros(50),
        ));
        assert!(slow > fast, "tracing {slow} should exceed profiling {fast}");
    }

    /// A one-file program: create `file`, write `write_mb` MB at offset
    /// 0, close it.
    fn create_write_close(file: u32, write_mb: u64) -> Vec<StackOp> {
        let f = FileId::new(file);
        vec![
            StackOp::PosixMeta {
                op: MetaOp::Create,
                file: f,
            },
            StackOp::PosixData {
                kind: IoKind::Write,
                file: f,
                offset: 0,
                len: write_mb * 1_000_000,
            },
            StackOp::PosixMeta {
                op: MetaOp::Close,
                file: f,
            },
        ]
    }

    /// Launch one rank per program at time zero, run, and collect.
    fn run_programs(c: &mut Cluster, programs: Vec<Vec<StackOp>>) -> JobResult {
        let spec = JobSpec {
            programs,
            stack: StackConfig::default(),
            start: SimTime::ZERO,
        };
        let handle = launch(c, &spec);
        c.run();
        collect(c, &handle)
    }

    /// Rank `rank`'s POSIX-level records.
    fn posix_records(result: &JobResult, rank: usize) -> Vec<LayerRecord> {
        result.records[rank]
            .iter()
            .filter(|r| r.layer == Layer::Posix)
            .copied()
            .collect()
    }

    #[test]
    fn end_to_end_write_completes() {
        let mut c = Cluster::new(ClusterConfig::default()).unwrap();
        let result = run_programs(&mut c, vec![create_write_close(1, 16)]);
        let finished = result.finished[0].expect("rank never finished");
        assert!(finished > SimTime::ZERO);
        let records = posix_records(&result, 0);
        assert_eq!(records.len(), 3);
        // The write moved 16 MB through two fabrics onto HDDs; the
        // end-to-end time must exceed the raw 10GbE serialization floor
        // (~12.8 ms) and the per-OST device time.
        let write = &records[1];
        assert_eq!(write.op, RecordOp::Data(IoKind::Write));
        assert!(write.elapsed() > SimDuration::from_millis(10));
        let total_written: u64 = c.oss_stats().iter().map(|s| s.bytes_written).sum();
        assert_eq!(total_written, 16_000_000);
    }

    #[test]
    fn striping_distributes_across_oss() {
        let mut c = Cluster::new(ClusterConfig {
            layout: pioeval_pfs::LayoutPolicy {
                stripe_size: bytes::mib(1),
                stripe_count: 8,
            },
            ..ClusterConfig::default()
        })
        .unwrap();
        let result = run_programs(&mut c, vec![create_write_close(1, 32)]);
        assert!(result.finished[0].is_some());
        // All 4 OSS (8 OSTs) should have received data.
        assert!(c.oss_stats().iter().all(|s| s.bytes_written > 0));
    }

    #[test]
    fn burst_buffer_tier_accelerates_app_visible_writes() {
        let write_time = |cfg: ClusterConfig| {
            let mut c = Cluster::new(cfg).unwrap();
            let result = run_programs(&mut c, vec![create_write_close(1, 64)]);
            assert!(result.finished[0].is_some());
            posix_records(&result, 0)[1].elapsed()
        };
        let direct_write = write_time(ClusterConfig::default());
        let bb_write = write_time(ClusterConfig {
            num_ionodes: 2,
            ..ClusterConfig::default()
        });
        // The SSD tier absorbs the 64 MB burst much faster than the
        // HDD-backed direct path.
        assert!(
            bb_write.as_nanos() * 2 < direct_write.as_nanos(),
            "burst buffer write {bb_write} not faster than direct {direct_write}"
        );
    }

    #[test]
    fn mds_sees_expected_op_mix() {
        let mut c = Cluster::new(ClusterConfig::default()).unwrap();
        run_programs(&mut c, (0..4).map(|i| create_write_close(i, 1)).collect());
        let mds = c.mds();
        assert_eq!(mds.op_counts[MetaOp::Create.index()], 4);
        assert_eq!(mds.op_counts[MetaOp::Close.index()], 4);
        assert_eq!(mds.num_files(), 4);
    }

    #[test]
    fn multiple_mds_share_the_namespace_load() {
        let mut c = Cluster::new(ClusterConfig {
            num_mds: 2,
            ..ClusterConfig::default()
        })
        .unwrap();
        // Files 0..8 hash across both MDSs (even ids → mds0, odd → mds1).
        let program = (0..8)
            .map(|i| StackOp::PosixMeta {
                op: MetaOp::Create,
                file: FileId::new(i),
            })
            .collect();
        run_programs(&mut c, vec![program]);
        let a = c.mds_at(0).stats.requests;
        let b = c.mds_at(1).stats.requests;
        assert_eq!(a + b, 8);
        assert_eq!(a, 4);
        assert_eq!(b, 4);
        assert_eq!(c.mds_requests(), 8);
        // Namespaces are disjoint.
        assert_eq!(c.mds_at(0).num_files() + c.mds_at(1).num_files(), 8);
    }

    #[test]
    fn clients_contend_on_shared_storage() {
        // One rank writing 8 MB alone vs. eight ranks doing the same:
        // the makespan must grow (the first rank is FIFO-protected, but
        // later arrivals queue behind it at the shared OSTs and fabrics).
        let makespan = |nranks: u32| {
            let mut c = Cluster::new(ClusterConfig::default()).unwrap();
            let programs = (0..nranks).map(|i| create_write_close(i, 8)).collect();
            run_programs(&mut c, programs)
                .makespan()
                .expect("a rank never finished")
        };
        let solo = makespan(1);
        let contended = makespan(8);
        assert!(
            contended.as_nanos() > 2 * solo.as_nanos(),
            "contended makespan {contended} should exceed 2x solo {solo}"
        );
    }
}
