//! Cluster assembly: builds the full Fig. 1 topology into a simulation.

use crate::client::ClientPort;
use crate::config::{ClusterConfig, FabricConfig};
use crate::fabric::Fabric;
use crate::ionode::IoNode;
use crate::mds::MetadataServer;
use crate::msg::PfsMsg;
use crate::oss::Oss;
use crate::stats::ServerStats;
use pioeval_des::{EntityId, ExecMode, RunResult, SimConfig, Simulation};
use pioeval_resil::{FailureKind, ResilienceReport, ResilienceStats};
use pioeval_types::{Result, SimDuration, SimTime};

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
    /// Client entities launched onto the cluster, in launch order; a
    /// client's index here picks its I/O forwarding node
    /// ([`ClusterHandles::port`]).
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
