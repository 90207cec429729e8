//! Protocol gateway nodes.
//!
//! A gateway is the object store's front door: it owns a *bounded* pool
//! of request slots (`GatewayConfig::slots`). A request occupies its
//! slot from admission until the last backend access acknowledges, so
//! slot exhaustion — not fabric bandwidth — is the first thing
//! concurrent clients contend on, and the resulting queue wait is
//! echoed to clients and telemetry.
//!
//! Data verbs fan out to storage nodes ([`pioeval_pfs::oss::Oss`]
//! entities) according to the bucket's [`crate::config::Placement`];
//! metadata verbs forward to the key's hash-assigned
//! [`crate::shard::MetaShard`]. Multipart manifests live here: the
//! gateway sees every PutPart acknowledgment, commits the extent, and
//! forwards the assembled size when the client completes the upload.

use crate::config::{GatewayConfig, ObjStoreConfig, Placement};
use crate::object::ExtentMap;
use crate::placement::{self, read_targets, write_targets, Target};
use pioeval_des::{Ctx, Entity, EntityId, Envelope};
use pioeval_pfs::msg::route;
use pioeval_pfs::{IoRequest, ObjReply, ObjRequest, ObjVerb, PfsMsg, RequestId, ServerStats};
use pioeval_resil::{FailureKind, ResilienceStats};
use pioeval_types::{
    percentile_u64, tid_for, FileId, IoKind, ReqMark, ServerKind, SimDuration, SimTime,
};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// One admitted request awaiting its backend fan-out.
struct InFlight {
    req: ObjRequest,
    /// Backend acknowledgments still outstanding.
    remaining: usize,
    /// Time spent waiting for a slot.
    queue_delay: SimDuration,
    /// When the request first arrived at the gateway (before any slot wait).
    arrived: SimTime,
    /// Size reported by the metadata shard (meta verbs).
    size_result: u64,
}

/// Snapshot of one gateway's service counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct GatewayStats {
    /// Requests admitted.
    pub requests: u64,
    /// Bytes served by range GETs.
    pub get_bytes: u64,
    /// Bytes ingested by part uploads.
    pub put_bytes: u64,
    /// Total slot-queue wait across requests.
    pub queue_wait: SimDuration,
    /// Total protocol-processing (service) time.
    pub busy: SimDuration,
    /// High-water mark of the slot wait queue.
    pub peak_queue_depth: usize,
    /// Median per-request slot-queue wait (nearest-rank).
    pub queue_p50: SimDuration,
    /// 95th-percentile per-request slot-queue wait.
    pub queue_p95: SimDuration,
    /// 99th-percentile per-request slot-queue wait.
    pub queue_p99: SimDuration,
    /// 99.9th-percentile per-request slot-queue wait.
    pub queue_p999: SimDuration,
}

impl GatewayStats {
    /// Mean slot-queue wait per request.
    pub fn mean_queue_wait(&self) -> SimDuration {
        if self.requests == 0 {
            SimDuration::ZERO
        } else {
            self.queue_wait / self.requests
        }
    }

    /// Mean protocol service time per request.
    pub fn mean_service_time(&self) -> SimDuration {
        if self.requests == 0 {
            SimDuration::ZERO
        } else {
            self.busy / self.requests
        }
    }
}

/// An object-store gateway entity.
pub struct Gateway {
    me: EntityId,
    cfg: GatewayConfig,
    store: ObjStoreConfig,
    /// Fabric between the gateway and the storage/metadata nodes.
    storage_fabric: EntityId,
    /// Storage-node entities, indexed by node id.
    node_route: Vec<EntityId>,
    /// Metadata-shard entities, indexed by shard id.
    shard_route: Vec<EntityId>,
    /// Requests currently holding a slot.
    active: usize,
    /// Arrivals waiting for a slot, FIFO, with their arrival times.
    waitq: VecDeque<(ObjRequest, SimTime)>,
    inflight: HashMap<u64, InFlight>,
    /// Backend request id → in-flight token.
    backend_map: HashMap<RequestId, u64>,
    next_token: u64,
    next_backend_id: RequestId,
    /// Open multipart uploads keyed by object.
    uploads: HashMap<FileId, ExtentMap>,
    /// Aggregate service statistics (single timeline lane).
    pub stats: ServerStats,
    /// Bytes served by range GETs.
    pub get_bytes: u64,
    /// Bytes ingested by part uploads.
    pub put_bytes: u64,
    /// High-water mark of the slot wait queue.
    pub peak_queue_depth: usize,
    /// Per-request slot-queue waits in admission order (nanoseconds),
    /// the population behind the snapshot's queue-wait percentiles.
    queue_wait_samples: Vec<u64>,
    // --- resilience tier ---
    /// Peer gateways, ring order starting after this one (failover
    /// re-drains through `peers[0]`).
    peers: Vec<EntityId>,
    rebuild_time: SimDuration,
    /// Storage nodes currently failed or degraded (node → failure kind);
    /// reads touching them are served degraded.
    lost: BTreeMap<u32, FailureKind>,
    /// Pending recoveries in injection order (`None` = this gateway).
    recovering: VecDeque<(Option<u32>, SimTime)>,
    /// This gateway is failed over; arrivals re-drain through a peer.
    failed: bool,
    /// Bytes this gateway ACKed whose placement width is 1, per node —
    /// the only objstore bytes a single node loss can take out.
    sole_bytes: HashMap<u32, u64>,
    /// Durability accounting for the resilience report.
    pub resil: ResilienceStats,
}

impl Gateway {
    /// A new gateway with routing tables into the storage tier.
    pub fn new(
        me: EntityId,
        store: ObjStoreConfig,
        storage_fabric: EntityId,
        node_route: Vec<EntityId>,
        shard_route: Vec<EntityId>,
        stats_bin: SimDuration,
    ) -> Self {
        Gateway {
            me,
            cfg: store.gateway,
            store,
            storage_fabric,
            node_route,
            shard_route,
            active: 0,
            waitq: VecDeque::new(),
            inflight: HashMap::new(),
            backend_map: HashMap::new(),
            next_token: 0,
            next_backend_id: 0,
            uploads: HashMap::new(),
            stats: ServerStats::new(1, stats_bin),
            get_bytes: 0,
            put_bytes: 0,
            peak_queue_depth: 0,
            queue_wait_samples: Vec::new(),
            peers: Vec::new(),
            rebuild_time: SimDuration::from_millis(500),
            lost: BTreeMap::new(),
            recovering: VecDeque::new(),
            failed: false,
            sole_bytes: HashMap::new(),
            resil: ResilienceStats::default(),
        }
    }

    /// Wire the resilience tier: rebuild time and the peer-gateway ring
    /// (failover re-drains through the first peer). Called by the
    /// cluster builder after all gateways exist.
    pub fn set_resil(&mut self, rebuild_time: SimDuration, peers: Vec<EntityId>) {
        self.rebuild_time = rebuild_time;
        self.peers = peers;
    }

    /// Snapshot of the service counters.
    pub fn snapshot(&self) -> GatewayStats {
        let q = |p: f64| SimDuration::from_nanos(percentile_u64(&self.queue_wait_samples, p));
        GatewayStats {
            requests: self.stats.requests,
            get_bytes: self.get_bytes,
            put_bytes: self.put_bytes,
            queue_wait: self.stats.queue_wait,
            busy: self.stats.busy,
            peak_queue_depth: self.peak_queue_depth,
            queue_p50: q(50.0),
            queue_p95: q(95.0),
            queue_p99: q(99.0),
            queue_p999: q(99.9),
        }
    }

    /// Protocol-processing time for one request (fixed cost plus the
    /// checksum/coding pipeline on data bytes).
    fn service_time(&self, req: &ObjRequest) -> SimDuration {
        let mut svc = self.cfg.per_op;
        if req.verb.is_data() && req.len > 0 {
            let ns = (req.len as u128 * 1_000_000_000u128).div_ceil(self.cfg.proc_bw as u128);
            svc += SimDuration::from_nanos(ns as u64);
        }
        svc
    }

    fn fresh_backend_id(&mut self, token: u64) -> RequestId {
        let id = self.next_backend_id;
        self.next_backend_id += 1;
        self.backend_map.insert(id, token);
        id
    }

    /// Admit `req` (which first arrived at `arrived`) into a slot and
    /// launch its backend fan-out.
    fn start(
        &mut self,
        req: ObjRequest,
        arrived: SimTime,
        queue_delay: SimDuration,
        ctx: &mut Ctx<'_, PfsMsg>,
    ) {
        let now = ctx.now();
        self.active += 1;
        let svc = self.service_time(&req);
        self.stats.requests += 1;
        self.stats.queue_wait += queue_delay;
        self.stats.busy += svc;
        self.queue_wait_samples.push(queue_delay.as_nanos());
        match req.verb {
            ObjVerb::PutPart => {
                self.put_bytes += req.len;
                self.stats.bytes_written += req.len;
                self.stats.timelines[0].record(now + svc, IoKind::Write, req.len);
            }
            ObjVerb::GetRange => {
                self.get_bytes += req.len;
                self.stats.bytes_read += req.len;
                self.stats.timelines[0].record(now + svc, IoKind::Read, req.len);
            }
            _ => self.stats.timelines[0].record(now + svc, IoKind::Write, 1),
        }
        // Backend sends depart when protocol processing finishes.
        let depart = svc.max(ctx.lookahead());

        let token = self.next_token;
        self.next_token += 1;

        let backends: usize = match req.verb {
            ObjVerb::PutPart | ObjVerb::GetRange => {
                let placement = self.store.placement_for(req.key);
                let targets = if req.verb == ObjVerb::PutPart {
                    write_targets(
                        req.key,
                        req.part,
                        req.offset,
                        req.len,
                        placement,
                        self.store.num_storage as u32,
                        self.store.devices_per_node as u32,
                    )
                } else {
                    self.read_targets_maybe_degraded(&req, placement)
                };
                let kind = if req.verb == ObjVerb::PutPart {
                    IoKind::Write
                } else {
                    IoKind::Read
                };
                let n = targets.len();
                for t in targets {
                    let id = self.fresh_backend_id(token);
                    let child_tid = if req.tid != 0 {
                        tid_for(self.me.0, id)
                    } else {
                        0
                    };
                    ctx.trace(
                        req.tid,
                        ReqMark::Spawn {
                            child: child_tid,
                            at: now,
                        },
                    );
                    let io = IoRequest {
                        id,
                        reply_to: self.me,
                        reply_via: vec![self.storage_fabric],
                        kind,
                        file: req.key,
                        ost: t.device,
                        obj_offset: t.obj_offset,
                        len: t.len,
                        tid: child_tid,
                    };
                    let wire = io.wire_size();
                    let (hop, msg) = route(
                        &[self.storage_fabric],
                        self.node_route[t.node as usize],
                        wire,
                        PfsMsg::Io(io),
                    );
                    ctx.send(hop, depart, msg);
                }
                n
            }
            _ => {
                // Metadata verbs forward to the key's hash-assigned shard.
                let shard =
                    placement::mix(req.key.index() as u64) as usize % self.shard_route.len();
                // CompleteUpload carries the assembled manifest size (or
                // the client's own size hint, whichever is larger) in
                // `offset` — the shard's size-hint convention.
                let offset = if req.verb == ObjVerb::CompleteUpload {
                    let manifest = self
                        .uploads
                        .remove(&req.key)
                        .map(|m| m.assembled_size())
                        .unwrap_or(0);
                    manifest.max(req.offset)
                } else {
                    req.offset
                };
                let id = self.fresh_backend_id(token);
                let child_tid = if req.tid != 0 {
                    tid_for(self.me.0, id)
                } else {
                    0
                };
                ctx.trace(
                    req.tid,
                    ReqMark::Spawn {
                        child: child_tid,
                        at: now,
                    },
                );
                let fwd = ObjRequest {
                    id,
                    reply_to: self.me,
                    reply_via: vec![self.storage_fabric],
                    verb: req.verb,
                    key: req.key,
                    offset,
                    len: 0,
                    part: 0,
                    tid: child_tid,
                };
                let wire = fwd.wire_size();
                let (hop, msg) = route(
                    &[self.storage_fabric],
                    self.shard_route[shard],
                    wire,
                    PfsMsg::Obj(fwd),
                );
                ctx.send(hop, depart, msg);
                1
            }
        };

        self.inflight.insert(
            token,
            InFlight {
                req,
                remaining: backends,
                queue_delay,
                arrived,
                size_result: 0,
            },
        );
    }

    /// Targets for a range GET, rerouting around failed/degraded
    /// storage nodes.
    ///
    /// Replicated buckets redirect to the first surviving replica (no
    /// extra bytes). Erasure buckets reconstruct from the full surviving
    /// stripe — surviving data shards plus parity — and the bytes beyond
    /// the healthy `data`-shard read are counted as degraded-read
    /// amplification. If nothing survives, the healthy targets are used
    /// unchanged (the range is unreadable in reality; the simulation
    /// still completes and the degraded counters record the event).
    fn read_targets_maybe_degraded(
        &mut self,
        req: &ObjRequest,
        placement: Placement,
    ) -> Vec<Target> {
        let healthy = read_targets(
            req.key,
            req.part,
            req.offset,
            req.len,
            placement,
            self.store.num_storage as u32,
            self.store.devices_per_node as u32,
        );
        if self.lost.is_empty() || healthy.iter().all(|t| !self.lost.contains_key(&t.node)) {
            return healthy;
        }
        let stripe = write_targets(
            req.key,
            req.part,
            req.offset,
            req.len,
            placement,
            self.store.num_storage as u32,
            self.store.devices_per_node as u32,
        );
        self.resil.degraded_reads += 1;
        match placement {
            Placement::Replicate(_) => stripe
                .iter()
                .copied()
                .find(|t| !self.lost.contains_key(&t.node))
                .map(|t| vec![t])
                .unwrap_or(healthy),
            Placement::Erasure { .. } => {
                let survivors: Vec<Target> = stripe
                    .into_iter()
                    .filter(|t| !self.lost.contains_key(&t.node))
                    .collect();
                if survivors.is_empty() {
                    return healthy;
                }
                let healthy_bytes: u64 = healthy.iter().map(|t| t.len).sum();
                let read_bytes: u64 = survivors.iter().map(|t| t.len).sum();
                self.resil.degraded_extra_bytes += read_bytes.saturating_sub(healthy_bytes);
                survivors
            }
        }
    }

    /// One backend acknowledgment arrived for `token`.
    fn backend_done(&mut self, token: u64, ctx: &mut Ctx<'_, PfsMsg>) {
        let fin = {
            let inflight = self
                .inflight
                .get_mut(&token)
                .expect("acknowledgment for unknown gateway token");
            inflight.remaining -= 1;
            inflight.remaining == 0
        };
        if !fin {
            return;
        }
        let InFlight {
            req,
            queue_delay,
            arrived,
            size_result,
            ..
        } = self.inflight.remove(&token).unwrap();

        // The gateway's span covers the whole slot residency: slot wait
        // (queue), protocol processing, and the backend fan-out, which
        // the spawned children let the analyzer break down further.
        ctx.trace(
            req.tid,
            ReqMark::Server {
                kind: ServerKind::Gateway,
                arrive: arrived,
                queue: queue_delay,
                depart: ctx.now(),
            },
        );

        // The manifest extent commits when the part is durable backend-side.
        if req.verb == ObjVerb::PutPart {
            self.uploads
                .entry(req.key)
                .or_default()
                .commit(req.part, req.offset, req.len);
            // Durability accounting: the part is on its placement width
            // of nodes when the client is ACKed. Width-1 parts sit on
            // exactly one node — remember which, so a later loss of that
            // node moves them from replicated to the data-loss window.
            let placement = self.store.placement_for(req.key);
            self.resil.acked_bytes += req.len;
            self.resil.replicated_bytes += req.len;
            if placement.width() < 2 {
                let t = write_targets(
                    req.key,
                    req.part,
                    req.offset,
                    req.len,
                    placement,
                    self.store.num_storage as u32,
                    self.store.devices_per_node as u32,
                );
                if let Some(t0) = t.first() {
                    *self.sole_bytes.entry(t0.node).or_default() += req.len;
                }
            }
        }

        let reply = ObjReply {
            id: req.id,
            verb: req.verb,
            key: req.key,
            len: req.len,
            size: size_result,
            queue_delay,
            tid: req.tid,
        };
        let wire = reply.wire_size();
        let (hop, msg) = route(&req.reply_via, req.reply_to, wire, PfsMsg::ObjDone(reply));
        ctx.send(hop, ctx.lookahead(), msg);

        self.active -= 1;
        if let Some((next, arrival)) = self.waitq.pop_front() {
            let waited = ctx.now().since(arrival);
            self.start(next, arrival, waited, ctx);
        }
    }

    /// The manifest of an open upload, if any (inspection/tests).
    pub fn upload(&self, key: FileId) -> Option<&ExtentMap> {
        self.uploads.get(&key)
    }
}

impl Entity<PfsMsg> for Gateway {
    fn on_event(&mut self, ev: Envelope<PfsMsg>, ctx: &mut Ctx<'_, PfsMsg>) {
        match ev.msg {
            PfsMsg::Obj(req) => {
                if self.failed && !self.peers.is_empty() {
                    // Failed over: arrivals re-drain through the peer
                    // (replies still carry the original reply route, so
                    // clients never notice which gateway served them).
                    self.resil.requeued += 1;
                    let wire = req.wire_size();
                    let (hop, msg) = route(
                        &[self.storage_fabric],
                        self.peers[0],
                        wire,
                        PfsMsg::Obj(req),
                    );
                    ctx.send(hop, ctx.lookahead(), msg);
                } else if self.active < self.cfg.slots {
                    self.start(req, ctx.now(), SimDuration::ZERO, ctx);
                } else {
                    self.waitq.push_back((req, ctx.now()));
                    self.peak_queue_depth = self.peak_queue_depth.max(self.waitq.len());
                }
            }
            PfsMsg::Fail { kind, target } => {
                match kind {
                    FailureKind::GatewayFailover => {
                        // Delivered only to the failing gateway itself.
                        if self.failed || self.peers.is_empty() {
                            return;
                        }
                        self.failed = true;
                        self.resil.failures += 1;
                        // Queued (not yet admitted) requests re-drain
                        // through the next gateway in the ring; admitted
                        // requests finish on their held slots.
                        let q: Vec<(ObjRequest, SimTime)> = self.waitq.drain(..).collect();
                        self.resil.requeued += q.len() as u64;
                        for (req, _) in q {
                            let wire = req.wire_size();
                            let (hop, msg) = route(
                                &[self.storage_fabric],
                                self.peers[0],
                                wire,
                                PfsMsg::Obj(req),
                            );
                            ctx.send(hop, ctx.lookahead(), msg);
                        }
                        self.recovering.push_back((None, ctx.now()));
                        ctx.send_self(self.rebuild_time, PfsMsg::Recover);
                    }
                    FailureKind::IoNodeLoss => {
                        // Delivered to every gateway (shared membership
                        // view). Width-1 bytes on the node move from
                        // replicated to the data-loss window.
                        let lost_sole = self.sole_bytes.remove(&target).unwrap_or(0);
                        self.resil.data_loss_bytes += lost_sole;
                        self.resil.replicated_bytes =
                            self.resil.replicated_bytes.saturating_sub(lost_sole);
                        self.lost.insert(target, kind);
                        self.recovering.push_back((Some(target), ctx.now()));
                        ctx.send_self(self.rebuild_time, PfsMsg::Recover);
                    }
                    FailureKind::DegradedRead => {
                        // Data intact, reads served degraded until the
                        // node recovers.
                        self.lost.insert(target, kind);
                        self.recovering.push_back((Some(target), ctx.now()));
                        ctx.send_self(self.rebuild_time, PfsMsg::Recover);
                    }
                }
            }
            PfsMsg::Recover => {
                if let Some((what, since)) = self.recovering.pop_front() {
                    match what {
                        Some(node) => {
                            self.lost.remove(&node);
                        }
                        None => self.failed = false,
                    }
                    let span = ctx.now().since(since).as_nanos();
                    self.resil.recovery_ns = self.resil.recovery_ns.max(span);
                }
            }
            PfsMsg::IoDone(rep) => {
                let token = self
                    .backend_map
                    .remove(&rep.id)
                    .expect("IoDone for unknown backend id");
                self.backend_done(token, ctx);
            }
            PfsMsg::ObjDone(rep) => {
                let token = self
                    .backend_map
                    .remove(&rep.id)
                    .expect("ObjDone for unknown backend id");
                if let Some(inflight) = self.inflight.get_mut(&token) {
                    inflight.size_result = rep.size;
                }
                self.backend_done(token, ctx);
            }
            other => panic!("gateway received unexpected message: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Placement;
    use pioeval_des::{SimConfig, Simulation};
    use pioeval_pfs::fabric::Fabric;
    use pioeval_pfs::oss::Oss;
    use pioeval_pfs::{DeviceConfig, FabricConfig};

    struct Collector {
        replies: Vec<(SimTime, ObjReply)>,
    }
    impl Entity<PfsMsg> for Collector {
        fn on_event(&mut self, ev: Envelope<PfsMsg>, ctx: &mut Ctx<'_, PfsMsg>) {
            if let PfsMsg::ObjDone(rep) = ev.msg {
                self.replies.push((ctx.now(), rep));
            }
        }
    }

    /// A tiny store: 1 gateway, 1 shard, `nodes` storage nodes, 1 device
    /// each, direct client delivery.
    fn setup(store: ObjStoreConfig) -> (Simulation<PfsMsg>, EntityId, EntityId) {
        let mut sim = Simulation::new(SimConfig::default());
        let fabric = sim.add_entity(
            "storage-fabric",
            Box::new(Fabric::new(FabricConfig::ten_gbe())),
        );
        let bin = SimDuration::from_secs(1);
        let shard = sim.add_entity(
            "shard0",
            Box::new(crate::shard::MetaShard::new(store.shard, bin)),
        );
        let mut nodes = Vec::new();
        for i in 0..store.num_storage {
            let id = sim.add_entity(
                format!("node{i}"),
                Box::new(Oss::new(
                    (i * store.devices_per_node) as u32,
                    store.devices_per_node,
                    DeviceConfig::nvme(),
                    bin,
                )),
            );
            nodes.push(id);
        }
        let gw_id = EntityId(sim.num_entities() as u32);
        let gw = sim.add_entity(
            "gw0",
            Box::new(Gateway::new(gw_id, store, fabric, nodes, vec![shard], bin)),
        );
        assert_eq!(gw, gw_id);
        let client = sim.add_entity("client", Box::new(Collector { replies: vec![] }));
        (sim, gw, client)
    }

    fn obj(
        id: u64,
        client: EntityId,
        verb: ObjVerb,
        key: u32,
        offset: u64,
        len: u64,
        part: u32,
    ) -> PfsMsg {
        PfsMsg::Obj(ObjRequest {
            id,
            reply_to: client,
            reply_via: vec![],
            verb,
            key: FileId::new(key),
            offset,
            len,
            part,
            tid: 0,
        })
    }

    #[test]
    fn multipart_put_complete_reports_assembled_size() {
        let store = ObjStoreConfig {
            num_storage: 3,
            devices_per_node: 1,
            placement: Placement::Replicate(2),
            ..ObjStoreConfig::default()
        };
        let (mut sim, gw, client) = setup(store);
        sim.schedule(
            SimTime::ZERO,
            gw,
            obj(1, client, ObjVerb::CreateUpload, 5, 0, 0, 0),
        );
        // Parts land out of order.
        sim.schedule(
            SimTime::from_millis(1),
            gw,
            obj(2, client, ObjVerb::PutPart, 5, 1 << 20, 1 << 20, 1),
        );
        sim.schedule(
            SimTime::from_millis(1),
            gw,
            obj(3, client, ObjVerb::PutPart, 5, 0, 1 << 20, 0),
        );
        sim.run();
        assert!(sim
            .entity_ref::<Gateway>(gw)
            .unwrap()
            .upload(FileId::new(5))
            .unwrap()
            .is_contiguous());
        sim.schedule(
            sim_time_after(&sim),
            gw,
            obj(4, client, ObjVerb::CompleteUpload, 5, 0, 0, 0),
        );
        sim.schedule(
            sim_time_after(&sim) + SimDuration::from_millis(1),
            gw,
            obj(5, client, ObjVerb::Head, 5, 0, 0, 0),
        );
        sim.run();
        let replies = &sim.entity_ref::<Collector>(client).unwrap().replies;
        let complete = replies.iter().find(|(_, r)| r.id == 4).unwrap();
        let head = replies.iter().find(|(_, r)| r.id == 5).unwrap();
        assert_eq!(complete.1.size, 2 << 20);
        assert_eq!(head.1.size, 2 << 20);
        let g = sim.entity_ref::<Gateway>(gw).unwrap();
        assert_eq!(g.put_bytes, 2 << 20);
        assert!(g.upload(FileId::new(5)).is_none());
    }

    #[test]
    fn replication_multiplies_backend_writes() {
        let store = ObjStoreConfig {
            num_storage: 4,
            devices_per_node: 1,
            placement: Placement::Replicate(3),
            ..ObjStoreConfig::default()
        };
        let (mut sim, gw, client) = setup(store);
        sim.schedule(
            SimTime::ZERO,
            gw,
            obj(1, client, ObjVerb::PutPart, 9, 0, 3_000_000, 0),
        );
        sim.run();
        // 3 MB written to each of 3 replicas.
        let written: u64 = (0..4)
            .filter_map(|i| {
                // Entities: fabric=0, shard=1, nodes=2..6, gw, client.
                sim.entity_mut::<Oss>(EntityId(2 + i)).map(|oss| {
                    oss.finalize_stats();
                    oss.stats.bytes_written
                })
            })
            .sum();
        assert_eq!(written, 9_000_000);
    }

    #[test]
    fn bounded_slots_queue_and_report_wait() {
        let store = ObjStoreConfig {
            num_storage: 2,
            devices_per_node: 1,
            placement: Placement::Replicate(1),
            gateway: GatewayConfig {
                slots: 1,
                ..GatewayConfig::default()
            },
            ..ObjStoreConfig::default()
        };
        let (mut sim, gw, client) = setup(store);
        for i in 0..4u64 {
            sim.schedule(
                SimTime::ZERO,
                gw,
                obj(i, client, ObjVerb::GetRange, 1, i * 4096, 4096, 0),
            );
        }
        sim.run();
        let replies = &sim.entity_ref::<Collector>(client).unwrap().replies;
        assert_eq!(replies.len(), 4);
        // With one slot the later requests report growing queue waits.
        let mut waits: Vec<SimDuration> = replies.iter().map(|(_, r)| r.queue_delay).collect();
        waits.sort();
        assert_eq!(waits[0], SimDuration::ZERO);
        assert!(waits[3] > waits[1]);
        let g = sim.entity_ref::<Gateway>(gw).unwrap();
        assert_eq!(g.peak_queue_depth, 3);
        assert_eq!(g.get_bytes, 4 * 4096);
    }

    /// Next free instant strictly after everything processed so far.
    fn sim_time_after(sim: &Simulation<PfsMsg>) -> SimTime {
        sim.now() + SimDuration::from_millis(1)
    }

    #[test]
    fn node_loss_takes_out_single_copy_bytes() {
        let store = ObjStoreConfig {
            num_storage: 3,
            devices_per_node: 1,
            placement: Placement::Replicate(1),
            ..ObjStoreConfig::default()
        };
        let (mut sim, gw, client) = setup(store);
        sim.entity_mut::<Gateway>(gw)
            .unwrap()
            .set_resil(SimDuration::from_millis(500), vec![]);
        sim.schedule(
            SimTime::ZERO,
            gw,
            obj(1, client, ObjVerb::PutPart, 9, 0, 1 << 20, 0),
        );
        sim.run();
        // The part landed on exactly one node; losing all three nodes
        // is guaranteed to include it.
        let t = sim_time_after(&sim);
        for n in 0..3u32 {
            sim.schedule(
                t,
                gw,
                PfsMsg::Fail {
                    kind: FailureKind::IoNodeLoss,
                    target: n,
                },
            );
        }
        sim.run();
        let g = sim.entity_ref::<Gateway>(gw).unwrap();
        assert_eq!(g.resil.acked_bytes, 1 << 20);
        assert_eq!(g.resil.data_loss_bytes, 1 << 20);
        assert_eq!(
            g.resil.acked_bytes,
            g.resil.replicated_bytes + g.resil.data_loss_bytes,
            "conservation: acked = replicated + lost"
        );
        assert!(g.resil.recovery_ns >= 500_000_000);
    }

    #[test]
    fn degraded_erasure_read_amplifies_and_recovers() {
        let store = ObjStoreConfig {
            num_storage: 4,
            devices_per_node: 1,
            placement: Placement::Erasure { data: 2, parity: 2 },
            ..ObjStoreConfig::default()
        };
        let (mut sim, gw, client) = setup(store.clone());
        sim.entity_mut::<Gateway>(gw)
            .unwrap()
            .set_resil(SimDuration::from_millis(500), vec![]);
        sim.schedule(
            SimTime::ZERO,
            gw,
            obj(1, client, ObjVerb::PutPart, 4, 0, 1 << 20, 0),
        );
        sim.run();
        // Degrade the node serving the part's first data shard.
        let victim = crate::placement::read_targets(
            FileId::new(4),
            0,
            0,
            1 << 20,
            store.placement,
            store.num_storage as u32,
            store.devices_per_node as u32,
        )[0]
        .node;
        let t = sim_time_after(&sim);
        sim.schedule(
            t,
            gw,
            PfsMsg::Fail {
                kind: FailureKind::DegradedRead,
                target: victim,
            },
        );
        sim.schedule(
            t + SimDuration::from_micros(1),
            gw,
            obj(2, client, ObjVerb::GetRange, 4, 0, 1 << 20, 0),
        );
        sim.run();
        let g = sim.entity_ref::<Gateway>(gw).unwrap();
        assert_eq!(g.resil.degraded_reads, 1);
        // Reconstruction reads the 3 surviving shards instead of the 2
        // healthy data shards: one extra shard of amplification.
        assert_eq!(g.resil.degraded_extra_bytes, (1 << 20) / 2);
        // No data was lost — the node only served reads degraded.
        assert_eq!(g.resil.data_loss_bytes, 0);
        // After the rebuild time the node recovers; reads are healthy.
        let t2 = sim_time_after(&sim) + SimDuration::from_secs(1);
        sim.schedule(t2, gw, obj(3, client, ObjVerb::GetRange, 4, 0, 1 << 20, 0));
        sim.run();
        let g = sim.entity_ref::<Gateway>(gw).unwrap();
        assert_eq!(g.resil.degraded_reads, 1, "recovered reads are healthy");
    }

    #[test]
    fn gateway_failover_redrains_queue_through_peer() {
        // Two gateways, one slot each: queue up requests on gw0, then
        // fail it over — the queue must re-drain through gw1 and every
        // client still gets its reply.
        let store = ObjStoreConfig {
            num_storage: 2,
            devices_per_node: 1,
            placement: Placement::Replicate(1),
            gateway: GatewayConfig {
                slots: 1,
                ..GatewayConfig::default()
            },
            ..ObjStoreConfig::default()
        };
        let mut sim = Simulation::new(SimConfig::default());
        let fabric = sim.add_entity(
            "storage-fabric",
            Box::new(Fabric::new(FabricConfig::ten_gbe())),
        );
        let bin = SimDuration::from_secs(1);
        let shard = sim.add_entity(
            "shard0",
            Box::new(crate::shard::MetaShard::new(store.shard, bin)),
        );
        let nodes: Vec<EntityId> = (0..store.num_storage)
            .map(|i| {
                sim.add_entity(
                    format!("node{i}"),
                    Box::new(Oss::new(i as u32, 1, DeviceConfig::nvme(), bin)),
                )
            })
            .collect();
        let mut gws = Vec::new();
        for i in 0..2 {
            let me = EntityId(sim.num_entities() as u32);
            let id = sim.add_entity(
                format!("gw{i}"),
                Box::new(Gateway::new(
                    me,
                    store.clone(),
                    fabric,
                    nodes.clone(),
                    vec![shard],
                    bin,
                )),
            );
            assert_eq!(id, me);
            gws.push(id);
        }
        sim.entity_mut::<Gateway>(gws[0])
            .unwrap()
            .set_resil(SimDuration::from_millis(500), vec![gws[1]]);
        sim.entity_mut::<Gateway>(gws[1])
            .unwrap()
            .set_resil(SimDuration::from_millis(500), vec![gws[0]]);
        let client = sim.add_entity("client", Box::new(Collector { replies: vec![] }));
        // Four arrivals fill the single slot and queue three; the
        // failover (scheduled after them at the same instant) re-drains
        // the queued three through gw1.
        for i in 0..4u64 {
            sim.schedule(
                SimTime::ZERO,
                gws[0],
                obj(i, client, ObjVerb::GetRange, 1, i * 4096, 4096, 0),
            );
        }
        sim.schedule(
            SimTime::ZERO,
            gws[0],
            PfsMsg::Fail {
                kind: FailureKind::GatewayFailover,
                target: 0,
            },
        );
        sim.run();
        let replies = &sim.entity_ref::<Collector>(client).unwrap().replies;
        assert_eq!(replies.len(), 4, "every request still gets its reply");
        let g0 = sim.entity_ref::<Gateway>(gws[0]).unwrap();
        assert_eq!(g0.resil.failures, 1);
        assert_eq!(g0.resil.requeued, 3);
        assert!(g0.resil.recovery_ns >= 500_000_000);
        let g1 = sim.entity_ref::<Gateway>(gws[1]).unwrap();
        assert_eq!(g1.stats.requests, 3, "peer served the re-drained queue");
    }
}
