//! Cluster assembly: builds the full Fig. 1 topology into a simulation.

use crate::client::{ClientPort, OpRecord, RawClient};
use crate::config::{ClusterConfig, FabricConfig};
use crate::fabric::Fabric;
use crate::ionode::IoNode;
use crate::mds::MetadataServer;
use crate::msg::PfsMsg;
use crate::oss::Oss;
use crate::stats::ServerStats;
use pioeval_des::{EntityId, ExecMode, RunResult, SimConfig, Simulation};
use pioeval_resil::{FailureKind, ResilienceReport, ResilienceStats};
use pioeval_types::{IoOp, Result, SimDuration, SimTime};

/// Entity ids of the cluster's fixed infrastructure.
#[derive(Clone, Debug)]
pub struct ClusterHandles {
    /// Compute-side fabric entity.
    pub compute_fabric: EntityId,
    /// Storage-side fabric entity.
    pub storage_fabric: EntityId,
    /// The metadata server entities (files hash across them).
    pub mds: Vec<EntityId>,
    /// I/O forwarding nodes (empty when the tier is disabled).
    pub ionodes: Vec<EntityId>,
    /// Object storage servers.
    pub oss: Vec<EntityId>,
    /// Global OST index → hosting OSS entity.
    pub ost_route: Vec<EntityId>,
    /// Replication fabric between I/O nodes (present when the ack mode
    /// waits for replicas; geo-stretched under `geographic`).
    pub repl_fabric: Option<EntityId>,
    /// The configuration the cluster was built from.
    pub config: ClusterConfig,
}

impl ClusterHandles {
    /// Build a protocol port for client entity `me`, the `index`-th client
    /// (used to assign an I/O forwarding node round-robin).
    pub fn port(&self, me: EntityId, index: usize) -> ClientPort {
        let ionode = if self.ionodes.is_empty() {
            None
        } else {
            Some(self.ionodes[index % self.ionodes.len()])
        };
        ClientPort::new(
            me,
            self.compute_fabric,
            self.storage_fabric,
            ionode,
            self.mds.clone(),
            self.ost_route.clone(),
            self.config.max_rpc_size,
        )
    }
}

/// A fully assembled storage cluster plus its simulation.
pub struct Cluster {
    /// The underlying discrete-event simulation.
    pub sim: Simulation<PfsMsg>,
    /// Infrastructure entity ids.
    pub handles: ClusterHandles,
    /// Raw clients registered via [`Cluster::add_raw_client`].
    pub clients: Vec<EntityId>,
    stats_bin: SimDuration,
    /// Failure events scheduled into this run (expanded at build time).
    failures_injected: u64,
}

impl Cluster {
    /// Build a cluster with the default statistics bin width (100 ms) and
    /// engine configuration.
    pub fn new(config: ClusterConfig) -> Result<Self> {
        Self::with_sim_config(config, SimConfig::default(), SimDuration::from_millis(100))
    }

    /// Build a cluster with explicit engine configuration and server
    /// statistics bin width.
    pub fn with_sim_config(
        config: ClusterConfig,
        sim_config: SimConfig,
        stats_bin: SimDuration,
    ) -> Result<Self> {
        config.validate(sim_config.lookahead)?;
        let mut sim = Simulation::new(sim_config);

        let compute_fabric = sim.add_entity(
            "compute-fabric",
            Box::new(Fabric::new(config.compute_fabric)),
        );
        let storage_fabric = sim.add_entity(
            "storage-fabric",
            Box::new(Fabric::new(config.storage_fabric)),
        );
        let mds: Vec<EntityId> = (0..config.num_mds)
            .map(|i| {
                sim.add_entity(
                    format!("mds{i}"),
                    Box::new(MetadataServer::new(
                        config.mds,
                        config.layout,
                        config.total_osts() as u32,
                        stats_bin,
                    )),
                )
            })
            .collect();
        let mut oss = Vec::new();
        let mut ost_route = Vec::new();
        for i in 0..config.num_oss {
            let first_ost = (i * config.osts_per_oss) as u32;
            let devices: Vec<_> = (0..config.osts_per_oss)
                .map(|j| {
                    let global = first_ost + j as u32;
                    config
                        .ost_overrides
                        .iter()
                        .find(|&&(o, _)| o == global)
                        .map(|&(_, d)| d)
                        .unwrap_or(config.ost_device)
                })
                .collect();
            let id = sim.add_entity(
                format!("oss{i}"),
                Box::new(Oss::with_devices(first_ost, devices, stats_bin)),
            );
            oss.push(id);
            for _ in 0..config.osts_per_oss {
                ost_route.push(id);
            }
        }
        let mut ionodes = Vec::new();
        for i in 0..config.num_ionodes {
            let id = sim.add_entity(
                format!("ionode{i}"),
                Box::new(IoNode::new(
                    config.bb_device,
                    config.bb_capacity,
                    config.bb_drain_streams,
                    storage_fabric,
                    ost_route.clone(),
                )),
            );
            ionodes.push(id);
        }

        // Resilience tier: replication fabric, ack-policy wiring on the
        // I/O nodes, and the expanded failure schedule as plain initial
        // events (so sequential and parallel executors see the same run).
        let mut repl_fabric = None;
        let mut failures_injected = 0u64;
        if let Some(resil) = config.resil.clone() {
            if !ionodes.is_empty() && resil.ack_mode.waits_for_replica() {
                repl_fabric = Some(sim.add_entity(
                    "repl-fabric",
                    Box::new(Fabric::new(FabricConfig {
                        latency: resil.geo.replica_latency(resil.ack_mode),
                        link_bw: resil.geo.link_bw,
                        agg_bw: 0,
                    })),
                ));
            }
            for (i, &id) in ionodes.iter().enumerate() {
                let peers: Vec<EntityId> = ionodes
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &p)| p)
                    .collect();
                let node = sim.entity_mut::<IoNode>(id).expect("I/O node missing");
                node.set_resil(
                    resil.ack_mode,
                    resil.replicas(),
                    resil.rebuild_time,
                    peers,
                    repl_fabric,
                );
            }
            for ev in resil.failures.expand(ionodes.len() as u32) {
                // Only I/O-node loss applies to the PFS tier; other kinds
                // target the object store and are linted if present here.
                if ev.kind == FailureKind::IoNodeLoss && (ev.target as usize) < ionodes.len() {
                    // Failure control events are scheduled directly at the
                    // node, never routed through a fabric.
                    sim.schedule(
                        SimTime::ZERO + ev.at,
                        ionodes[ev.target as usize],
                        PfsMsg::Fail {
                            kind: ev.kind,
                            target: ev.target,
                        },
                    );
                    failures_injected += 1;
                }
            }
        }

        Ok(Cluster {
            sim,
            handles: ClusterHandles {
                compute_fabric,
                storage_fabric,
                mds,
                ionodes,
                oss,
                ost_route,
                repl_fabric,
                config,
            },
            clients: Vec::new(),
            stats_bin,
            failures_injected,
        })
    }

    /// The statistics bin width servers were built with.
    pub fn stats_bin(&self) -> SimDuration {
        self.stats_bin
    }

    /// Register a [`RawClient`] that executes `program`, starting at
    /// `start`. Returns its entity id.
    pub fn add_raw_client(&mut self, start: SimTime, program: Vec<IoOp>) -> EntityId {
        let index = self.clients.len();
        // Reserve the id first so the port can carry it.
        let me = EntityId(self.sim.num_entities() as u32);
        let port = self.handles.port(me, index);
        let id = self.sim.add_entity(
            format!("client{index}"),
            Box::new(RawClient::new(port, program)),
        );
        debug_assert_eq!(id, me);
        self.clients.push(id);
        self.sim.schedule(start, id, PfsMsg::Start);
        id
    }

    /// Run the simulation to completion (sequential executor).
    ///
    /// The run is recorded as a `pfs.cluster.run` span on the global
    /// [`pioeval_obs`] registry, and per-server service statistics are
    /// published to it afterwards (see [`Cluster::publish_telemetry`]).
    pub fn run(&mut self) -> RunResult {
        self.run_exec(&ExecMode::Sequential)
    }

    /// Run the simulation to completion with an explicit executor choice
    /// (sequential, or the conservative parallel engine with its window /
    /// partitioner / backend knobs). Same span and telemetry behaviour as
    /// [`Cluster::run`]; results are bit-identical across executors (see
    /// the determinism notes in `pioeval-des`).
    pub fn run_exec(&mut self, exec: &ExecMode) -> RunResult {
        let res = {
            let _obs_span = pioeval_obs::span(pioeval_obs::names::SPAN_PFS_RUN, "pfs");
            exec.run(&mut self.sim)
        };
        self.publish_telemetry();
        res
    }

    /// [`Cluster::run_exec`] with the parallel executor's scaling
    /// observatory enabled: also returns the merged per-worker phase
    /// profile (`None` when the run executed sequentially).
    pub fn run_exec_profiled(
        &mut self,
        exec: &ExecMode,
    ) -> (RunResult, Option<pioeval_types::ExecProfile>) {
        let out = {
            let _obs_span = pioeval_obs::span(pioeval_obs::names::SPAN_PFS_RUN, "pfs");
            exec.run_profiled(&mut self.sim)
        };
        self.publish_telemetry();
        out
    }

    /// Run sequentially while attributing processed events to entities.
    /// Returns the run result plus per-entity event counts.
    pub fn run_counted(&mut self) -> (RunResult, Vec<u64>) {
        let out = {
            let _obs_span = pioeval_obs::span(pioeval_obs::names::SPAN_PFS_RUN, "pfs");
            self.sim.run_counted()
        };
        self.publish_telemetry();
        out
    }

    /// Publish per-OSS/MDS service-time and queue-occupancy metrics to
    /// the global [`pioeval_obs`] registry. Called automatically by
    /// [`Cluster::run`]; safe to call again (stats finalization is
    /// idempotent, though counters accumulate per call by design).
    pub fn publish_telemetry(&mut self) {
        let obs = pioeval_obs::global();
        obs.counter(pioeval_obs::names::PFS_RUNS).inc();
        let mut peak_bin = 0u64;
        for stats in self.oss_stats() {
            obs.counter(pioeval_obs::names::PFS_OSS_REQUESTS)
                .add(stats.requests);
            obs.histogram(pioeval_obs::names::PFS_OSS_BUSY_US)
                .observe(stats.busy.as_nanos() / 1_000);
            obs.histogram(pioeval_obs::names::PFS_OSS_SERVICE_US)
                .observe(stats.mean_service_time().as_nanos() / 1_000);
            obs.histogram(pioeval_obs::names::PFS_OSS_QUEUE_WAIT_US)
                .observe(stats.mean_queue_wait().as_nanos() / 1_000);
            peak_bin = peak_bin.max(
                stats
                    .timelines
                    .iter()
                    .map(|t| t.peak_bin_bytes())
                    .max()
                    .unwrap_or(0),
            );
        }
        obs.gauge(pioeval_obs::names::PFS_OSS_PEAK_BIN_BYTES)
            .record(peak_bin);
        for i in 0..self.handles.mds.len() {
            let stats = &self.mds_at(i).stats;
            obs.counter(pioeval_obs::names::PFS_MDS_REQUESTS)
                .add(stats.requests);
            obs.histogram(pioeval_obs::names::PFS_MDS_SERVICE_US)
                .observe(stats.mean_service_time().as_nanos() / 1_000);
        }
        if let Some(r) = self.resilience() {
            obs.counter(pioeval_obs::names::RESIL_ACKED_BYTES)
                .add(r.acked_bytes);
            obs.counter(pioeval_obs::names::RESIL_REPLICATED_BYTES)
                .add(r.replicated_bytes);
            obs.counter(pioeval_obs::names::RESIL_DATA_LOSS_BYTES)
                .add(r.data_loss_bytes);
            obs.counter(pioeval_obs::names::RESIL_FAILURES)
                .add(r.failures_injected);
            obs.counter(pioeval_obs::names::RESIL_REQUEUED)
                .add(r.requeued);
            obs.gauge(pioeval_obs::names::RESIL_RECOVERY_US)
                .record(r.recovery.as_nanos() / 1_000);
            obs.histogram(pioeval_obs::names::RESIL_REPL_LAG_US)
                .observe(r.repl_lag_p99.as_nanos() / 1_000);
        }
        // Freshly published server stats deserve a frame now, not at the
        // next interval tick (a fast run may finish before one fires).
        pioeval_obs::live::pulse();
    }

    /// Aggregate the resilience report for this run. `Some` only when a
    /// resilience configuration was supplied (so default runs keep their
    /// reports unchanged); stats are folded in I/O-node index order.
    pub fn resilience(&self) -> Option<ResilienceReport> {
        let resil = self.handles.config.resil.as_ref()?;
        let stats: Vec<ResilienceStats> = self
            .handles
            .ionodes
            .iter()
            .map(|&id| {
                self.sim
                    .entity_ref::<IoNode>(id)
                    .expect("I/O node entity missing")
                    .resil
                    .clone()
            })
            .collect();
        // The PFS tier serves no degraded reads (that path lives on the
        // object store), so the amplification baseline is zero bytes.
        Some(ResilienceReport::from_stats(
            resil.ack_mode,
            self.failures_injected,
            0,
            &stats,
        ))
    }

    /// Completion records of a raw client.
    pub fn client_records(&self, id: EntityId) -> &[OpRecord] {
        &self
            .sim
            .entity_ref::<RawClient>(id)
            .expect("not a RawClient entity")
            .records
    }

    /// When a raw client finished its program (None = incomplete).
    pub fn client_finished(&self, id: EntityId) -> Option<SimTime> {
        self.sim
            .entity_ref::<RawClient>(id)
            .expect("not a RawClient entity")
            .finished_at
    }

    /// Borrow the primary metadata server (post-run inspection).
    pub fn mds(&self) -> &MetadataServer {
        self.mds_at(0)
    }

    /// Borrow metadata server `i`.
    pub fn mds_at(&self, i: usize) -> &MetadataServer {
        self.sim
            .entity_ref::<MetadataServer>(self.handles.mds[i])
            .expect("MDS entity missing")
    }

    /// Total metadata requests served across all metadata servers.
    pub fn mds_requests(&self) -> u64 {
        (0..self.handles.mds.len())
            .map(|i| self.mds_at(i).stats.requests)
            .sum()
    }

    /// Finalize and collect per-OSS server statistics.
    pub fn oss_stats(&mut self) -> Vec<ServerStats> {
        let ids = self.handles.oss.clone();
        ids.iter()
            .map(|&id| {
                let oss = self.sim.entity_mut::<Oss>(id).expect("OSS entity missing");
                oss.finalize_stats();
                oss.stats.clone()
            })
            .collect()
    }

    /// Transfer statistics of the (compute, storage) fabrics.
    pub fn fabric_stats(&self) -> (crate::fabric::FabricStats, crate::fabric::FabricStats) {
        let get = |id| {
            self.sim
                .entity_ref::<crate::fabric::Fabric>(id)
                .expect("fabric entity missing")
                .stats
        };
        (
            get(self.handles.compute_fabric),
            get(self.handles.storage_fabric),
        )
    }

    /// Burst-buffer statistics per I/O node (empty when tier disabled).
    pub fn ionode_stats(&self) -> Vec<crate::ionode::BurstBufferStats> {
        self.handles
            .ionodes
            .iter()
            .map(|&id| {
                self.sim
                    .entity_ref::<IoNode>(id)
                    .expect("I/O node entity missing")
                    .stats
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioeval_types::{bytes, FileId, MetaOp};

    fn simple_program(file: u32, write_mb: u64) -> Vec<IoOp> {
        let f = FileId::new(file);
        let mut ops = vec![IoOp::meta(MetaOp::Create, f)];
        ops.push(IoOp::write(f, 0, write_mb * 1_000_000));
        ops.push(IoOp::meta(MetaOp::Close, f));
        ops
    }

    #[test]
    fn end_to_end_write_completes() {
        let mut cluster = Cluster::new(ClusterConfig::default()).unwrap();
        let c = cluster.add_raw_client(SimTime::ZERO, simple_program(1, 16));
        cluster.run();
        let finished = cluster.client_finished(c).expect("client never finished");
        assert!(finished > SimTime::ZERO);
        let records = cluster.client_records(c);
        assert_eq!(records.len(), 3);
        // The write moved 16 MB through two fabrics onto HDDs; the
        // end-to-end time must exceed the raw 10GbE serialization floor
        // (~12.8 ms) and the per-OST device time.
        let write = &records[1];
        assert!(write.end.since(write.start) > SimDuration::from_millis(10));
        let stats = cluster.oss_stats();
        let total_written: u64 = stats.iter().map(|s| s.bytes_written).sum();
        assert_eq!(total_written, 16_000_000);
    }

    #[test]
    fn striping_distributes_across_oss() {
        let cfg = ClusterConfig {
            layout: crate::config::LayoutPolicy {
                stripe_size: bytes::mib(1),
                stripe_count: 8,
            },
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(cfg).unwrap();
        let c = cluster.add_raw_client(SimTime::ZERO, simple_program(1, 32));
        cluster.run();
        assert!(cluster.client_finished(c).is_some());
        let stats = cluster.oss_stats();
        // All 4 OSS (8 OSTs) should have received data.
        assert!(stats.iter().all(|s| s.bytes_written > 0));
    }

    #[test]
    fn burst_buffer_tier_accelerates_app_visible_writes() {
        let base = ClusterConfig::default();
        let with_bb = ClusterConfig {
            num_ionodes: 2,
            ..base.clone()
        };

        let run = |cfg: ClusterConfig| -> (SimDuration, SimTime) {
            let mut cluster = Cluster::new(cfg).unwrap();
            let c = cluster.add_raw_client(SimTime::ZERO, simple_program(1, 64));
            cluster.run();
            let records = cluster.client_records(c);
            let write = &records[1];
            (
                write.end.since(write.start),
                cluster.client_finished(c).unwrap(),
            )
        };

        let (direct_write, _) = run(base);
        let (bb_write, _) = run(with_bb);
        // The SSD tier absorbs the 64 MB burst much faster than the
        // HDD-backed direct path.
        assert!(
            bb_write.as_nanos() * 2 < direct_write.as_nanos(),
            "burst buffer write {bb_write} not faster than direct {direct_write}"
        );
    }

    #[test]
    fn mds_sees_expected_op_mix() {
        let mut cluster = Cluster::new(ClusterConfig::default()).unwrap();
        for i in 0..4 {
            cluster.add_raw_client(SimTime::ZERO, simple_program(i, 1));
        }
        cluster.run();
        let mds = cluster.mds();
        assert_eq!(mds.op_counts[MetaOp::Create.index()], 4);
        assert_eq!(mds.op_counts[MetaOp::Close.index()], 4);
        assert_eq!(mds.num_files(), 4);
    }

    #[test]
    fn multiple_mds_share_the_namespace_load() {
        let cfg = ClusterConfig {
            num_mds: 2,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(cfg).unwrap();
        // Files 0..8 hash across both MDSs (even ids → mds0, odd → mds1).
        let program: Vec<IoOp> = (0..8)
            .map(|i| IoOp::meta(MetaOp::Create, FileId::new(i)))
            .collect();
        cluster.add_raw_client(SimTime::ZERO, program);
        cluster.run();
        let a = cluster.mds_at(0).stats.requests;
        let b = cluster.mds_at(1).stats.requests;
        assert_eq!(a + b, 8);
        assert_eq!(a, 4);
        assert_eq!(b, 4);
        assert_eq!(cluster.mds_requests(), 8);
        // Namespaces are disjoint.
        assert_eq!(
            cluster.mds_at(0).num_files() + cluster.mds_at(1).num_files(),
            8
        );
    }

    #[test]
    fn clients_contend_on_shared_storage() {
        // One client writing 8 MB alone vs. eight clients doing the same:
        // the makespan must grow (the first client is FIFO-protected, but
        // later arrivals queue behind it at the shared OSTs and fabrics).
        let solo = {
            let mut cluster = Cluster::new(ClusterConfig::default()).unwrap();
            let c = cluster.add_raw_client(SimTime::ZERO, simple_program(0, 8));
            cluster.run();
            cluster.client_finished(c).unwrap()
        };
        let contended = {
            let mut cluster = Cluster::new(ClusterConfig::default()).unwrap();
            let clients: Vec<_> = (0..8)
                .map(|i| cluster.add_raw_client(SimTime::ZERO, simple_program(i, 8)))
                .collect();
            cluster.run();
            clients
                .iter()
                .map(|&c| cluster.client_finished(c).unwrap())
                .max()
                .unwrap()
        };
        assert!(
            contended.as_nanos() > 2 * solo.as_nanos(),
            "contended makespan {contended} should exceed 2x solo {solo}"
        );
    }
}
