//! Object-store assembly: builds the gateway/shard/storage topology
//! into a simulation.
//!
//! Entity order matters for routing: fabrics first, then shards and
//! storage nodes (so the gateways can carry complete routing tables),
//! then gateways, then clients. Storage nodes are plain
//! [`pioeval_pfs::oss::Oss`] entities — the object tier swaps the
//! protocol in front of the same device and fabric models.

use crate::client::ObjClientPort;
use crate::config::ObjStoreConfig;
use crate::gateway::{Gateway, GatewayStats};
use crate::shard::MetaShard;
use pioeval_des::{EntityId, ExecMode, RunResult, SimConfig, Simulation};
use pioeval_pfs::fabric::Fabric;
use pioeval_pfs::oss::Oss;
use pioeval_pfs::{PfsMsg, ServerStats};
use pioeval_resil::{FailureKind, ResilienceReport, ResilienceStats};
use pioeval_types::{Result, SimDuration, SimTime};

/// Entity ids of the store's fixed infrastructure.
#[derive(Clone, Debug)]
pub struct ObjHandles {
    /// Compute-side fabric entity.
    pub compute_fabric: EntityId,
    /// Storage-side fabric entity (gateways, shards, nodes behind it).
    pub storage_fabric: EntityId,
    /// Metadata KV shards (keys hash across them).
    pub shards: Vec<EntityId>,
    /// Storage-node entities, indexed by node id.
    pub nodes: Vec<EntityId>,
    /// Protocol gateways (clients assigned round-robin).
    pub gateways: Vec<EntityId>,
    /// The configuration the store was built from.
    pub config: ObjStoreConfig,
}

impl ObjHandles {
    /// Build a protocol port for client entity `me`, the `index`-th
    /// client (used to assign its gateway round-robin).
    pub fn port(&self, me: EntityId, index: usize) -> ObjClientPort {
        ObjClientPort::new(
            me,
            self.compute_fabric,
            self.storage_fabric,
            self.gateways[index % self.gateways.len()],
            self.config.part_size,
        )
    }
}

/// A fully assembled object store plus its simulation.
pub struct ObjCluster {
    /// The underlying discrete-event simulation.
    pub sim: Simulation<PfsMsg>,
    /// Infrastructure entity ids.
    pub handles: ObjHandles,
    /// Client entities registered by the caller (the I/O stack).
    pub clients: Vec<EntityId>,
    stats_bin: SimDuration,
    /// Failure events scheduled into this run (expanded at build time).
    failures_injected: u64,
}

impl ObjCluster {
    /// Build a store with the default statistics bin width (100 ms) and
    /// engine configuration.
    pub fn new(config: ObjStoreConfig) -> Result<Self> {
        Self::with_sim_config(config, SimConfig::default(), SimDuration::from_millis(100))
    }

    /// Build a store with explicit engine configuration and server
    /// statistics bin width.
    pub fn with_sim_config(
        config: ObjStoreConfig,
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
        let shards: Vec<EntityId> = (0..config.num_shards)
            .map(|i| {
                sim.add_entity(
                    format!("shard{i}"),
                    Box::new(MetaShard::new(config.shard, stats_bin)),
                )
            })
            .collect();
        let nodes: Vec<EntityId> = (0..config.num_storage)
            .map(|i| {
                sim.add_entity(
                    format!("node{i}"),
                    Box::new(Oss::new(
                        (i * config.devices_per_node) as u32,
                        config.devices_per_node,
                        config.device,
                        stats_bin,
                    )),
                )
            })
            .collect();
        let gateways: Vec<EntityId> = (0..config.num_gateways)
            .map(|i| {
                // Reserve the id first so the gateway can carry it.
                let me = EntityId(sim.num_entities() as u32);
                let id = sim.add_entity(
                    format!("gateway{i}"),
                    Box::new(Gateway::new(
                        me,
                        config.clone(),
                        storage_fabric,
                        nodes.clone(),
                        shards.clone(),
                        stats_bin,
                    )),
                );
                debug_assert_eq!(id, me);
                id
            })
            .collect();

        // Resilience tier: peer-gateway failover ring and the expanded
        // failure schedule as plain initial events (so sequential and
        // parallel executors see the same run). Node failures go to
        // every gateway (shared membership view); gateway failovers go
        // to the failing gateway only.
        let mut failures_injected = 0u64;
        if let Some(resil) = config.resil.clone() {
            for (g, &id) in gateways.iter().enumerate() {
                let peers: Vec<EntityId> = (1..gateways.len())
                    .map(|step| gateways[(g + step) % gateways.len()])
                    .collect();
                let gw = sim.entity_mut::<Gateway>(id).expect("gateway missing");
                gw.set_resil(resil.rebuild_time, peers);
            }
            let pool = match resil.failures.mtbf.map(|m| m.kind) {
                Some(FailureKind::GatewayFailover) => gateways.len(),
                _ => nodes.len(),
            };
            for ev in resil.failures.expand(pool as u32) {
                let at = SimTime::ZERO + ev.at;
                let fail = PfsMsg::Fail {
                    kind: ev.kind,
                    target: ev.target,
                };
                match ev.kind {
                    FailureKind::IoNodeLoss | FailureKind::DegradedRead
                        if (ev.target as usize) < nodes.len() =>
                    {
                        for &gw in &gateways {
                            sim.schedule(at, gw, fail.clone());
                        }
                        failures_injected += 1;
                    }
                    FailureKind::GatewayFailover if (ev.target as usize) < gateways.len() => {
                        sim.schedule(at, gateways[ev.target as usize], fail);
                        failures_injected += 1;
                    }
                    // Out-of-range targets are linted; skip them here.
                    _ => {}
                }
            }
        }

        Ok(ObjCluster {
            sim,
            handles: ObjHandles {
                compute_fabric,
                storage_fabric,
                shards,
                nodes,
                gateways,
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
    pub fn run(&mut self) -> RunResult {
        self.run_exec(&ExecMode::Sequential)
    }

    /// Run the simulation to completion with an explicit executor
    /// choice. The run is recorded as an `obj.cluster.run` span and
    /// gateway/shard service statistics are published to the global
    /// [`pioeval_obs`] registry afterwards; results are bit-identical
    /// across executors.
    pub fn run_exec(&mut self, exec: &ExecMode) -> RunResult {
        let res = {
            let _obs_span = pioeval_obs::span(pioeval_obs::names::SPAN_OBJ_RUN, "obj");
            exec.run(&mut self.sim)
        };
        self.publish_telemetry();
        res
    }

    /// [`ObjCluster::run_exec`] with the parallel executor's scaling
    /// observatory enabled: also returns the merged per-worker phase
    /// profile (`None` when the run executed sequentially).
    pub fn run_exec_profiled(
        &mut self,
        exec: &ExecMode,
    ) -> (RunResult, Option<pioeval_types::ExecProfile>) {
        let out = {
            let _obs_span = pioeval_obs::span(pioeval_obs::names::SPAN_OBJ_RUN, "obj");
            exec.run_profiled(&mut self.sim)
        };
        self.publish_telemetry();
        out
    }

    /// Run sequentially while attributing processed events to entities.
    /// Returns the run result plus per-entity event counts.
    pub fn run_counted(&mut self) -> (RunResult, Vec<u64>) {
        let out = {
            let _obs_span = pioeval_obs::span(pioeval_obs::names::SPAN_OBJ_RUN, "obj");
            self.sim.run_counted()
        };
        self.publish_telemetry();
        out
    }

    /// Publish gateway and shard service metrics to the global
    /// [`pioeval_obs`] registry. Called automatically by the run
    /// methods; counters accumulate per call by design.
    pub fn publish_telemetry(&mut self) {
        let obs = pioeval_obs::global();
        obs.counter(pioeval_obs::names::OBJ_RUNS).inc();
        let mut peak_queue = 0u64;
        for stats in self.gateway_stats() {
            obs.counter(pioeval_obs::names::OBJ_GATEWAY_REQUESTS)
                .add(stats.requests);
            obs.counter(pioeval_obs::names::OBJ_GET_BYTES)
                .add(stats.get_bytes);
            obs.counter(pioeval_obs::names::OBJ_PUT_BYTES)
                .add(stats.put_bytes);
            obs.histogram(pioeval_obs::names::OBJ_GATEWAY_QUEUE_WAIT_US)
                .observe(stats.mean_queue_wait().as_nanos() / 1_000);
            obs.histogram(pioeval_obs::names::OBJ_GATEWAY_SERVICE_US)
                .observe(stats.mean_service_time().as_nanos() / 1_000);
            peak_queue = peak_queue.max(stats.peak_queue_depth as u64);
        }
        obs.gauge(pioeval_obs::names::OBJ_GATEWAY_QUEUE_PEAK)
            .record(peak_queue);
        obs.counter(pioeval_obs::names::OBJ_SHARD_REQUESTS)
            .add(self.shard_requests());
        if let Some(r) = self.resilience() {
            obs.counter(pioeval_obs::names::RESIL_ACKED_BYTES)
                .add(r.acked_bytes);
            obs.counter(pioeval_obs::names::RESIL_REPLICATED_BYTES)
                .add(r.replicated_bytes);
            obs.counter(pioeval_obs::names::RESIL_DATA_LOSS_BYTES)
                .add(r.data_loss_bytes);
            obs.counter(pioeval_obs::names::RESIL_FAILURES)
                .add(r.failures_injected);
            obs.counter(pioeval_obs::names::RESIL_DEGRADED_READS)
                .add(r.degraded_reads);
            obs.counter(pioeval_obs::names::RESIL_REQUEUED)
                .add(r.requeued);
            obs.gauge(pioeval_obs::names::RESIL_RECOVERY_US)
                .record(r.recovery.as_nanos() / 1_000);
        }
        // Freshly published gateway stats deserve a frame now, not at
        // the next interval tick.
        pioeval_obs::live::pulse();
    }

    /// Aggregate the resilience report for this run. `Some` only when a
    /// resilience configuration was supplied (so default runs keep their
    /// reports unchanged); stats are folded in gateway index order.
    pub fn resilience(&self) -> Option<ResilienceReport> {
        let resil = self.handles.config.resil.as_ref()?;
        let mut read_bytes = 0u64;
        let stats: Vec<ResilienceStats> = self
            .handles
            .gateways
            .iter()
            .map(|&id| {
                let gw = self
                    .sim
                    .entity_ref::<Gateway>(id)
                    .expect("gateway entity missing");
                read_bytes += gw.get_bytes;
                gw.resil.clone()
            })
            .collect();
        Some(ResilienceReport::from_stats(
            resil.ack_mode,
            self.failures_injected,
            read_bytes,
            &stats,
        ))
    }

    /// Snapshot per-gateway service counters.
    pub fn gateway_stats(&self) -> Vec<GatewayStats> {
        self.handles
            .gateways
            .iter()
            .map(|&id| {
                self.sim
                    .entity_ref::<Gateway>(id)
                    .expect("gateway entity missing")
                    .snapshot()
            })
            .collect()
    }

    /// Finalize and collect per-storage-node service statistics.
    pub fn storage_stats(&mut self) -> Vec<ServerStats> {
        let ids = self.handles.nodes.clone();
        ids.iter()
            .map(|&id| {
                let oss = self
                    .sim
                    .entity_mut::<Oss>(id)
                    .expect("storage node entity missing");
                oss.finalize_stats();
                oss.stats.clone()
            })
            .collect()
    }

    /// Borrow metadata shard `i` (post-run inspection).
    pub fn shard_at(&self, i: usize) -> &MetaShard {
        self.sim
            .entity_ref::<MetaShard>(self.handles.shards[i])
            .expect("shard entity missing")
    }

    /// Total requests served across all metadata shards.
    pub fn shard_requests(&self) -> u64 {
        (0..self.handles.shards.len())
            .map(|i| self.shard_at(i).stats.requests)
            .sum()
    }

    /// Transfer statistics of the (compute, storage) fabrics.
    pub fn fabric_stats(&self) -> (pioeval_pfs::FabricStats, pioeval_pfs::FabricStats) {
        let get = |id| {
            self.sim
                .entity_ref::<Fabric>(id)
                .expect("fabric entity missing")
                .stats
        };
        (
            get(self.handles.compute_fabric),
            get(self.handles.storage_fabric),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Placement;
    use pioeval_des::{Ctx, Entity, Envelope};
    use pioeval_pfs::ObjVerb;
    use pioeval_types::{FileId, IoKind, MetaOp, SimTime};

    /// A minimal object client: create, write `len` bytes, close, head.
    struct ObjWriter {
        port: ObjClientPort,
        key: FileId,
        len: u64,
        pending: std::collections::HashSet<u64>,
        stage: usize,
        /// Size reported by the final HEAD.
        pub head_size: Option<u64>,
        pub finished_at: Option<SimTime>,
    }

    impl ObjWriter {
        fn advance(&mut self, ctx: &mut Ctx<'_, PfsMsg>) {
            while self.pending.is_empty() {
                let stage = self.stage;
                self.stage += 1;
                match stage {
                    0 => {
                        let (hop, msg, id) = self.port.meta(MetaOp::Create, self.key);
                        self.pending.insert(id);
                        ctx.send(hop, ctx.lookahead(), msg);
                    }
                    1 => {
                        let rpcs = self
                            .port
                            .data(IoKind::Write, self.key, 0, self.len)
                            .unwrap();
                        for (hop, msg, id) in rpcs {
                            self.pending.insert(id);
                            ctx.send(hop, ctx.lookahead(), msg);
                        }
                    }
                    2 => {
                        let (hop, msg, id) = self.port.meta(MetaOp::Close, self.key);
                        self.pending.insert(id);
                        ctx.send(hop, ctx.lookahead(), msg);
                    }
                    3 => {
                        let (hop, msg, id) = self.port.meta(MetaOp::Stat, self.key);
                        self.pending.insert(id);
                        ctx.send(hop, ctx.lookahead(), msg);
                    }
                    _ => {
                        if self.finished_at.is_none() {
                            self.finished_at = Some(ctx.now());
                        }
                        return;
                    }
                }
            }
        }
    }

    impl Entity<PfsMsg> for ObjWriter {
        fn on_event(&mut self, ev: Envelope<PfsMsg>, ctx: &mut Ctx<'_, PfsMsg>) {
            match ev.msg {
                PfsMsg::Start => self.advance(ctx),
                PfsMsg::ObjDone(rep) => {
                    self.port.on_obj_reply(&rep);
                    if rep.verb == ObjVerb::Head {
                        self.head_size = Some(rep.size);
                    }
                    if self.pending.remove(&rep.id) && self.pending.is_empty() {
                        self.advance(ctx);
                    }
                }
                other => panic!("writer received unexpected message: {other:?}"),
            }
        }
    }

    fn add_writer(cluster: &mut ObjCluster, key: u32, len: u64) -> EntityId {
        let index = cluster.clients.len();
        let me = EntityId(cluster.sim.num_entities() as u32);
        let port = cluster.handles.port(me, index);
        let id = cluster.sim.add_entity(
            format!("client{index}"),
            Box::new(ObjWriter {
                port,
                key: FileId::new(key),
                len,
                pending: Default::default(),
                stage: 0,
                head_size: None,
                finished_at: None,
            }),
        );
        debug_assert_eq!(id, me);
        cluster.clients.push(id);
        cluster.sim.schedule(SimTime::ZERO, id, PfsMsg::Start);
        id
    }

    #[test]
    fn end_to_end_multipart_write_lands_replicated() {
        let cfg = ObjStoreConfig {
            placement: Placement::Replicate(2),
            ..ObjStoreConfig::default()
        };
        let mut cluster = ObjCluster::new(cfg).unwrap();
        // 3 MiB at 1 MiB parts → 3 parts × 2 replicas.
        let c = add_writer(&mut cluster, 7, 3 << 20);
        cluster.run();
        let writer = cluster.sim.entity_ref::<ObjWriter>(c).unwrap();
        assert!(writer.finished_at.is_some(), "writer never finished");
        assert_eq!(writer.head_size, Some(3 << 20));
        let written: u64 = cluster
            .storage_stats()
            .iter()
            .map(|s| s.bytes_written)
            .sum();
        assert_eq!(written, 2 * (3 << 20));
        let gw: u64 = cluster.gateway_stats().iter().map(|s| s.put_bytes).sum();
        assert_eq!(gw, 3 << 20);
        assert!(cluster.shard_requests() >= 3);
    }

    #[test]
    fn erasure_reads_touch_data_shards_only() {
        let cfg = ObjStoreConfig {
            num_storage: 6,
            placement: Placement::Erasure { data: 4, parity: 2 },
            ..ObjStoreConfig::default()
        };
        let mut cluster = ObjCluster::new(cfg).unwrap();
        let c = add_writer(&mut cluster, 3, 2 << 20);
        cluster.run();
        assert!(cluster
            .sim
            .entity_ref::<ObjWriter>(c)
            .unwrap()
            .finished_at
            .is_some());
        let stats = cluster.storage_stats();
        let written: u64 = stats.iter().map(|s| s.bytes_written).sum();
        // 2 parts × 6 shards × (1 MiB / 4) = 3 MiB of encoded writes.
        assert_eq!(written, 6 * (2 << 20) / 4);
    }

    #[test]
    fn clients_spread_across_gateways() {
        let cfg = ObjStoreConfig::default();
        let mut cluster = ObjCluster::new(cfg).unwrap();
        for i in 0..4 {
            add_writer(&mut cluster, i, 1 << 20);
        }
        cluster.run();
        let stats = cluster.gateway_stats();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.requests > 0));
    }

    #[test]
    fn seq_and_parallel_executors_agree() {
        use pioeval_des::{Backend, ParallelConfig};
        let run = |exec: &ExecMode| {
            let mut cluster = ObjCluster::new(ObjStoreConfig::default()).unwrap();
            for i in 0..4 {
                add_writer(&mut cluster, i, 2 << 20);
            }
            let res = cluster.run_exec(exec);
            let finished: Vec<_> = cluster
                .clients
                .iter()
                .map(|&c| {
                    cluster
                        .sim
                        .entity_ref::<ObjWriter>(c)
                        .unwrap()
                        .finished_at
                        .unwrap()
                })
                .collect();
            (res.events, res.end_time, finished)
        };
        let seq = run(&ExecMode::Sequential);
        let par = run(&ExecMode::Parallel(ParallelConfig {
            threads: 4,
            backend: Backend::Threads,
            ..ParallelConfig::default()
        }));
        assert_eq!(seq, par);
    }
}
