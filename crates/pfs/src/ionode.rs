//! I/O forwarding node with burst buffer.
//!
//! The paper's Fig. 1 describes I/O nodes that "handle requests forwarded
//! by the scientific applications" and "integrate a tier of solid-state
//! devices to absorb the burst of random or high volume operations, so
//! that transfers to/from the staging area from/to the traditional
//! parallel file system can be done more efficiently". This entity
//! implements exactly that:
//!
//! * **Writes** are absorbed into the node's SSD when capacity allows; the
//!   client is acknowledged at SSD speed, and the data drains to the OSS
//!   over the storage fabric in the background (bounded drain streams).
//! * **Reads** are served from the SSD when they hit not-yet-drained data,
//!   and forwarded to the OSS otherwise.
//! * When the buffer is full, writes degrade to write-through forwarding —
//!   the "absorption limit" that burst-buffer sizing studies measure.
//!
//! # Write-ack policies and failure injection
//!
//! The node additionally implements the `pioeval-resil` write-back tier:
//! under [`AckMode::LocalOnly`] the client is ACKed as soon as the local
//! SSD write lands (the historical behavior); under
//! [`AckMode::LocalPlusOne`] / [`AckMode::Geographic`] the ACK is *held*
//! until peer I/O nodes confirm replication copies shipped over the
//! replication fabric. Every absorbed chunk is tracked from ACK to its
//! first durable home (background drain to the OSS, or a stored replica),
//! maintaining the conservation identity `acked = replicated + lost`:
//! when a [`PfsMsg::Fail`] event kills the node, ACKed-but-unreplicated
//! bytes are counted into the data-loss window, held client ACKs are
//! flushed, surviving peers re-drain the replicas they hold for this
//! node ([`PfsMsg::Takeover`]), and the node rejoins empty after the
//! rebuild time, forwarding write-through while down.
//!
//! Approximations (documented for DESIGN.md): the SSD read performed by a
//! drain is not charged (SSD read bandwidth is an order of magnitude above
//! OST write bandwidth), a region re-written while its first copy is
//! draining may be conservatively treated as clean after the first drain
//! completes, and replica copies held for peers are charged SSD device
//! time but not buffer capacity (they live in a separate replica
//! partition).

use crate::config::DeviceConfig;
use crate::device::DeviceModel;
use crate::msg::{route, IoReply, IoRequest, PfsMsg, ReplicaAck, ReplicaChunk, RequestId};
use pioeval_des::{Ctx, Entity, EntityId, Envelope};
use pioeval_resil::{AckMode, FailureKind, ResilienceStats};
use pioeval_types::{tid_for, FileId, IoKind, OstId, ReqMark, ServerKind, SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// A unit of data awaiting drain to the PFS. `token` links the drain
/// back to the chunk's durability accounting; `0` marks a re-drain of a
/// replica held for a failed peer (accounted at the failed primary).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct DrainChunk {
    file: FileId,
    ost: OstId,
    obj_offset: u64,
    len: u64,
    token: u64,
}

/// Why a local SSD completion is pending.
enum SsdPending {
    /// A client write absorbed into the buffer; reply when SSD finishes.
    Absorb {
        req: IoRequest,
        queue_delay: SimDuration,
    },
    /// A client write absorbed under a replica-waiting ack mode; the SSD
    /// completion releases half of the ack gate keyed by the same token.
    AbsorbGated,
    /// A client read served from the buffer; reply when SSD finishes.
    CachedRead {
        req: IoRequest,
        queue_delay: SimDuration,
    },
    /// A replication copy landing on this (peer) SSD; acknowledge the
    /// primary when it finishes.
    ReplicaWrite { chunk: ReplicaChunk },
}

/// Why a reply from the OSS is pending.
enum OssPending {
    /// A forwarded client request; relay the reply to the original client.
    Forwarded { orig: IoRequest, arrived: SimTime },
    /// A background drain write; free buffer space on completion.
    Drain { chunk: DrainChunk },
}

/// A held client ACK waiting on SSD completion plus replica
/// confirmations (ack modes that wait for replicas).
struct AckGate {
    req: IoRequest,
    queue_delay: SimDuration,
    ssd_done: bool,
    awaiting: u32,
}

/// Durability lifecycle of one absorbed chunk, from absorb to its first
/// durable home. Maintains `acked = replicated + lost` exactly: a chunk
/// leaves the map once it has been ACKed *and* either replicated or
/// counted into the loss window.
struct ChunkState {
    len: u64,
    absorbed_at: SimTime,
    acked: bool,
    durable: bool,
    /// Set when the node failed before the chunk reached a durable home:
    /// its eventual ACK counts into the data-loss window.
    doomed: bool,
}

/// Burst-buffer occupancy and traffic counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct BurstBufferStats {
    /// Writes absorbed into the SSD.
    pub absorbed_writes: u64,
    /// Bytes absorbed.
    pub absorbed_bytes: u64,
    /// Reads served from not-yet-drained data.
    pub cached_reads: u64,
    /// Requests forwarded to the OSS (reads missing + writes while full).
    pub forwarded: u64,
    /// Drain writes completed.
    pub drains_completed: u64,
    /// High-water mark of buffer occupancy, bytes.
    pub peak_used: u64,
}

/// The I/O forwarding node entity.
pub struct IoNode {
    ssd: DeviceModel,
    capacity: u64,
    used: u64,
    /// Dirty (absorbed, not yet drained) extents per (file, ost).
    dirty: HashMap<(FileId, OstId), Vec<(u64, u64)>>,
    drain_queue: VecDeque<DrainChunk>,
    active_drains: usize,
    drain_streams: usize,
    /// Route from this node to each OST's OSS entity (index = global OST).
    ost_route: Vec<EntityId>,
    /// The storage fabric between this node and the storage cluster.
    storage_fabric: EntityId,
    ssd_pending: HashMap<u64, SsdPending>,
    oss_pending: HashMap<RequestId, OssPending>,
    next_token: u64,
    next_req_id: RequestId,
    // --- resilience tier ---
    ack_mode: AckMode,
    /// Replication copies to place beyond the local one.
    replicas: u32,
    /// Peer I/O nodes replication copies are spread over.
    peers: Vec<EntityId>,
    /// Fabric replication traffic rides (geo or local replication
    /// fabric); falls back to the storage fabric when unset.
    repl_fabric: Option<EntityId>,
    rebuild_time: SimDuration,
    failed: bool,
    fail_time: SimTime,
    /// Held client ACKs (BTreeMap: failure-time flushes iterate in
    /// deterministic token order).
    gates: BTreeMap<u64, AckGate>,
    /// Replication-leg request id → chunk token.
    repl_pending: HashMap<RequestId, u64>,
    /// Durability lifecycle per chunk token.
    chunks: BTreeMap<u64, ChunkState>,
    /// Replica chunks held on behalf of each primary (`EntityId.0`),
    /// re-drained to the OSS if that primary fails.
    held: BTreeMap<u32, Vec<DrainChunk>>,
    /// Takeover re-drains still in flight after a primary failed.
    takeover_outstanding: u64,
    takeover_started: SimTime,
    /// Traffic counters.
    pub stats: BurstBufferStats,
    /// Durability accounting for the resilience report.
    pub resil: ResilienceStats,
}

impl IoNode {
    /// A new I/O node with an empty buffer, local-only acks, and no
    /// failure wiring (use [`IoNode::set_resil`] after construction).
    pub fn new(
        device: DeviceConfig,
        capacity: u64,
        drain_streams: usize,
        storage_fabric: EntityId,
        ost_route: Vec<EntityId>,
    ) -> Self {
        IoNode {
            ssd: DeviceModel::new(device),
            capacity,
            used: 0,
            dirty: HashMap::new(),
            drain_queue: VecDeque::new(),
            active_drains: 0,
            drain_streams: drain_streams.max(1),
            ost_route,
            storage_fabric,
            ssd_pending: HashMap::new(),
            oss_pending: HashMap::new(),
            // Chunk tokens start at 1: token 0 marks replica re-drains,
            // which are accounted at the failed primary, not here.
            next_token: 1,
            next_req_id: 0,
            ack_mode: AckMode::LocalOnly,
            replicas: 0,
            peers: Vec::new(),
            repl_fabric: None,
            rebuild_time: SimDuration::from_millis(500),
            failed: false,
            fail_time: SimTime::ZERO,
            gates: BTreeMap::new(),
            repl_pending: HashMap::new(),
            chunks: BTreeMap::new(),
            held: BTreeMap::new(),
            takeover_outstanding: 0,
            takeover_started: SimTime::ZERO,
            stats: BurstBufferStats::default(),
            resil: ResilienceStats::default(),
        }
    }

    /// Wire the resilience tier: ack policy, replica count, rebuild
    /// time, peer nodes, and the fabric replication traffic rides.
    /// Called by the cluster builder after all entities exist.
    pub fn set_resil(
        &mut self,
        ack_mode: AckMode,
        replicas: u32,
        rebuild_time: SimDuration,
        peers: Vec<EntityId>,
        repl_fabric: Option<EntityId>,
    ) {
        self.ack_mode = ack_mode;
        self.replicas = replicas;
        self.rebuild_time = rebuild_time;
        self.peers = peers;
        self.repl_fabric = repl_fabric;
    }

    /// Bytes currently buffered (absorbed, not yet drained).
    pub fn used(&self) -> u64 {
        self.used
    }

    /// True when all absorbed data has drained to the PFS.
    pub fn fully_drained(&self) -> bool {
        self.used == 0 && self.drain_queue.is_empty() && self.active_drains == 0
    }

    fn dirty_covers(&self, file: FileId, ost: OstId, offset: u64, len: u64) -> bool {
        let Some(extents) = self.dirty.get(&(file, ost)) else {
            return false;
        };
        // Merge-and-check over a sorted copy: extents lists are short
        // (bounded by in-flight chunks for one file on one OST).
        let mut sorted = extents.clone();
        sorted.sort_unstable();
        let (start, end) = (offset, offset + len);
        let mut covered_to = start;
        for (o, l) in sorted {
            if o > covered_to {
                break;
            }
            covered_to = covered_to.max(o + l);
            if covered_to >= end {
                return true;
            }
        }
        covered_to >= end
    }

    fn remove_dirty(&mut self, chunk: &DrainChunk) {
        if let Some(extents) = self.dirty.get_mut(&(chunk.file, chunk.ost)) {
            if let Some(pos) = extents
                .iter()
                .position(|&(o, l)| o == chunk.obj_offset && l == chunk.len)
            {
                extents.swap_remove(pos);
            }
            if extents.is_empty() {
                self.dirty.remove(&(chunk.file, chunk.ost));
            }
        }
    }

    /// The chunk reached its first durable home (drained to the OSS or
    /// stored on a replica). Counts replicated bytes and the
    /// replication-lag sample exactly once per chunk.
    fn mark_durable(&mut self, token: u64, now: SimTime) {
        let Some(st) = self.chunks.get_mut(&token) else {
            return;
        };
        if st.doomed || st.durable {
            return;
        }
        st.durable = true;
        self.resil.replicated_bytes += st.len;
        self.resil
            .repl_lag_ns
            .push(now.since(st.absorbed_at).as_nanos());
        if st.acked {
            self.chunks.remove(&token);
        }
    }

    /// The chunk's client ACK went out. Doomed chunks (node failed
    /// before they reached a durable home) count into the loss window
    /// here, closing the `acked = replicated + lost` identity.
    fn mark_acked(&mut self, token: u64) {
        let Some(st) = self.chunks.get_mut(&token) else {
            return;
        };
        if st.acked {
            return;
        }
        st.acked = true;
        self.resil.acked_bytes += st.len;
        if st.doomed {
            self.resil.data_loss_bytes += st.len;
            self.chunks.remove(&token);
        } else if st.durable {
            self.chunks.remove(&token);
        }
    }

    /// Release a held ACK once both the SSD write and all replica
    /// confirmations are in.
    fn try_release(&mut self, token: u64, ctx: &mut Ctx<'_, PfsMsg>) {
        let ready = self
            .gates
            .get(&token)
            .is_some_and(|g| g.ssd_done && g.awaiting == 0);
        if !ready {
            return;
        }
        let gate = self.gates.remove(&token).expect("gate vanished");
        self.reply_to_client(&gate.req, true, gate.queue_delay, ctx);
        self.mark_acked(token);
    }

    /// Ship replication copies of an absorbed chunk to peer nodes over
    /// the replication fabric; returns how many copies were sent.
    fn replicate(&mut self, req: &IoRequest, token: u64, ctx: &mut Ctx<'_, PfsMsg>) -> u32 {
        let copies = (self.replicas as usize).min(self.peers.len());
        let fabric = self.repl_fabric.unwrap_or(self.storage_fabric);
        for r in 0..copies {
            let peer = self.peers[(token as usize + r) % self.peers.len()];
            let id = self.next_req_id;
            self.next_req_id += 1;
            // Traced parents spawn a traced replication leg so `pioeval
            // requests` can attribute replication tails.
            let child_tid = if req.tid != 0 {
                tid_for(ctx.me().0, id)
            } else {
                0
            };
            ctx.trace(
                req.tid,
                ReqMark::Spawn {
                    child: child_tid,
                    at: ctx.now(),
                },
            );
            let chunk = ReplicaChunk {
                id,
                reply_to: ctx.me(),
                reply_via: vec![fabric],
                file: req.file,
                ost: req.ost,
                obj_offset: req.obj_offset,
                len: req.len,
                tid: child_tid,
            };
            self.repl_pending.insert(id, token);
            let size = chunk.wire_size();
            let (hop, msg) = route(&[fabric], peer, size, PfsMsg::Replicate(chunk));
            ctx.send(hop, ctx.lookahead(), msg);
        }
        copies as u32
    }

    /// Enact an injected I/O-node loss: count the data-loss window,
    /// flush held ACKs, drop the buffer, hand replicas to peers, and
    /// schedule the rebuild.
    fn fail_node(&mut self, ctx: &mut Ctx<'_, PfsMsg>) {
        if self.failed {
            return;
        }
        self.failed = true;
        self.fail_time = ctx.now();
        self.resil.failures += 1;
        // Chunks that never reached a durable home are the loss window:
        // count ACKed ones now; doom un-ACKed ones so their eventual ACK
        // (in-flight SSD completion or the gate flush below) counts too.
        let tokens: Vec<u64> = self.chunks.keys().copied().collect();
        for token in tokens {
            let st = self.chunks.get_mut(&token).expect("chunk vanished");
            if st.durable {
                continue;
            }
            if st.acked {
                self.resil.data_loss_bytes += st.len;
                self.chunks.remove(&token);
            } else {
                st.doomed = true;
            }
        }
        // Flush held ACKs: clients must not hang on a dead node. A
        // chunk that already reached a durable home ACKs normally (the
        // gate was only waiting on slower replicas). For the rest the
        // durability promise was never made, so the reply reports
        // write-through-style service and the bytes count neither as
        // ACKed nor as lost — failing mid-replication under a gated
        // policy shrinks the loss window instead of widening it, which
        // is exactly what the ack policy buys.
        let gated: Vec<u64> = self.gates.keys().copied().collect();
        for token in gated {
            let gate = self.gates.remove(&token).expect("gate vanished");
            let durable = self.chunks.get(&token).is_some_and(|st| st.durable);
            self.reply_to_client(&gate.req, durable, gate.queue_delay, ctx);
            if durable {
                self.mark_acked(token);
            } else {
                self.chunks.remove(&token);
            }
        }
        self.repl_pending.clear();
        // The buffer content is gone; in-flight drain completions are
        // tolerated (their chunks are doomed or already durable).
        self.used = 0;
        self.dirty.clear();
        self.drain_queue.clear();
        // Replicas held for other primaries died with the SSD.
        self.held.clear();
        // Surviving peers re-drain the replicas they hold for us.
        if self.ack_mode.waits_for_replica() {
            let fabric = self.repl_fabric.unwrap_or(self.storage_fabric);
            let me = ctx.me().0;
            for peer in self.peers.clone() {
                let (hop, msg) = route(
                    &[fabric],
                    peer,
                    crate::msg::HEADER_BYTES,
                    PfsMsg::Takeover { primary: me },
                );
                ctx.send(hop, ctx.lookahead(), msg);
            }
        }
        ctx.send_self(self.rebuild_time, PfsMsg::Recover);
    }

    fn forward(&mut self, req: IoRequest, ctx: &mut Ctx<'_, PfsMsg>) {
        self.stats.forwarded += 1;
        let now = ctx.now();
        let id = self.next_req_id;
        self.next_req_id += 1;
        // Traced parents spawn a traced child request so the downstream
        // OSS/fabric segments can be re-attributed to the original request.
        let child_tid = if req.tid != 0 {
            tid_for(ctx.me().0, id)
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
        let oss = self.ost_route[req.ost.index()];
        let fwd = IoRequest {
            id,
            reply_to: ctx.me(),
            reply_via: vec![self.storage_fabric],
            kind: req.kind,
            file: req.file,
            ost: req.ost,
            obj_offset: req.obj_offset,
            len: req.len,
            tid: child_tid,
        };
        self.oss_pending.insert(
            id,
            OssPending::Forwarded {
                orig: req,
                arrived: now,
            },
        );
        let size = fwd.wire_size();
        let (hop, msg) = route(&[self.storage_fabric], oss, size, PfsMsg::Io(fwd));
        ctx.send(hop, ctx.lookahead(), msg);
    }

    fn start_drains(&mut self, ctx: &mut Ctx<'_, PfsMsg>) {
        while self.active_drains < self.drain_streams {
            let Some(chunk) = self.drain_queue.pop_front() else {
                break;
            };
            self.active_drains += 1;
            let id = self.next_req_id;
            self.next_req_id += 1;
            let oss = self.ost_route[chunk.ost.index()];
            // Background drains are never traced: they are decoupled from
            // any client request's latency.
            let req = IoRequest {
                id,
                reply_to: ctx.me(),
                reply_via: vec![self.storage_fabric],
                kind: IoKind::Write,
                file: chunk.file,
                ost: chunk.ost,
                obj_offset: chunk.obj_offset,
                len: chunk.len,
                tid: 0,
            };
            self.oss_pending.insert(id, OssPending::Drain { chunk });
            let size = req.wire_size();
            let (hop, msg) = route(&[self.storage_fabric], oss, size, PfsMsg::Io(req));
            ctx.send(hop, ctx.lookahead(), msg);
        }
    }

    fn reply_to_client(
        &self,
        req: &IoRequest,
        from_burst_buffer: bool,
        queue_delay: SimDuration,
        ctx: &mut Ctx<'_, PfsMsg>,
    ) {
        let reply = IoReply {
            id: req.id,
            kind: req.kind,
            file: req.file,
            ost: req.ost,
            len: req.len,
            from_burst_buffer,
            queue_delay,
            tid: req.tid,
        };
        let size = reply.wire_size();
        let (hop, msg) = route(&req.reply_via, req.reply_to, size, PfsMsg::IoDone(reply));
        ctx.send(hop, ctx.lookahead(), msg);
    }
}

impl Entity<PfsMsg> for IoNode {
    fn on_event(&mut self, ev: Envelope<PfsMsg>, ctx: &mut Ctx<'_, PfsMsg>) {
        match ev.msg {
            PfsMsg::Io(req) => {
                let now = ctx.now();
                match req.kind {
                    IoKind::Write if !self.failed && self.used + req.len <= self.capacity => {
                        // Absorb into the burst buffer.
                        self.used += req.len;
                        self.stats.peak_used = self.stats.peak_used.max(self.used);
                        self.stats.absorbed_writes += 1;
                        self.stats.absorbed_bytes += req.len;
                        self.dirty
                            .entry((req.file, req.ost))
                            .or_default()
                            .push((req.obj_offset, req.len));
                        let queue_delay = self.ssd.queue_delay(now);
                        let completion =
                            self.ssd.access(now, IoKind::Write, req.obj_offset, req.len);
                        ctx.trace(
                            req.tid,
                            ReqMark::Server {
                                kind: ServerKind::IoNodeSsd,
                                arrive: now,
                                queue: queue_delay,
                                depart: completion,
                            },
                        );
                        let token = self.next_token;
                        self.next_token += 1;
                        self.drain_queue.push_back(DrainChunk {
                            file: req.file,
                            ost: req.ost,
                            obj_offset: req.obj_offset,
                            len: req.len,
                            token,
                        });
                        self.chunks.insert(
                            token,
                            ChunkState {
                                len: req.len,
                                absorbed_at: now,
                                acked: false,
                                durable: false,
                                doomed: false,
                            },
                        );
                        if self.ack_mode.waits_for_replica() {
                            // Hold the client ACK for replica copies.
                            let awaiting = self.replicate(&req, token, ctx);
                            self.gates.insert(
                                token,
                                AckGate {
                                    req,
                                    queue_delay,
                                    ssd_done: false,
                                    awaiting,
                                },
                            );
                            self.ssd_pending.insert(token, SsdPending::AbsorbGated);
                        } else {
                            self.ssd_pending
                                .insert(token, SsdPending::Absorb { req, queue_delay });
                        }
                        ctx.send_self(completion.since(now), PfsMsg::DeviceDone { token });
                        self.start_drains(ctx);
                    }
                    IoKind::Read
                        if !self.failed
                            && self.dirty_covers(req.file, req.ost, req.obj_offset, req.len) =>
                    {
                        // Serve from the buffer.
                        self.stats.cached_reads += 1;
                        let queue_delay = self.ssd.queue_delay(now);
                        let completion =
                            self.ssd.access(now, IoKind::Read, req.obj_offset, req.len);
                        ctx.trace(
                            req.tid,
                            ReqMark::Server {
                                kind: ServerKind::IoNodeSsd,
                                arrive: now,
                                queue: queue_delay,
                                depart: completion,
                            },
                        );
                        let token = self.next_token;
                        self.next_token += 1;
                        self.ssd_pending
                            .insert(token, SsdPending::CachedRead { req, queue_delay });
                        ctx.send_self(completion.since(now), PfsMsg::DeviceDone { token });
                    }
                    _ => self.forward(req, ctx),
                }
            }
            PfsMsg::DeviceDone { token } => {
                match self
                    .ssd_pending
                    .remove(&token)
                    .expect("SSD completion for unknown token")
                {
                    SsdPending::Absorb { req, queue_delay } => {
                        self.reply_to_client(&req, true, queue_delay, ctx);
                        self.mark_acked(token);
                    }
                    SsdPending::AbsorbGated => {
                        if let Some(gate) = self.gates.get_mut(&token) {
                            gate.ssd_done = true;
                            self.try_release(token, ctx);
                        }
                        // No gate: it was flushed when the node failed.
                    }
                    SsdPending::CachedRead { req, queue_delay } => {
                        self.reply_to_client(&req, true, queue_delay, ctx);
                    }
                    SsdPending::ReplicaWrite { chunk } => {
                        // Copy landed: remember it for takeover and ack
                        // the primary.
                        let stored = !self.failed;
                        if stored {
                            self.held
                                .entry(chunk.reply_to.0)
                                .or_default()
                                .push(DrainChunk {
                                    file: chunk.file,
                                    ost: chunk.ost,
                                    obj_offset: chunk.obj_offset,
                                    len: chunk.len,
                                    token: 0,
                                });
                        }
                        let ack = ReplicaAck {
                            id: chunk.id,
                            len: chunk.len,
                            stored,
                            tid: chunk.tid,
                        };
                        let size = crate::msg::HEADER_BYTES;
                        let (hop, msg) = route(
                            &chunk.reply_via,
                            chunk.reply_to,
                            size,
                            PfsMsg::ReplicaDone(ack),
                        );
                        ctx.send(hop, ctx.lookahead(), msg);
                    }
                }
            }
            PfsMsg::IoDone(rep) => {
                match self
                    .oss_pending
                    .remove(&rep.id)
                    .expect("OSS reply for unknown request")
                {
                    OssPending::Forwarded { orig, arrived } => {
                        // Close the forwarding interval on the parent
                        // request; the spawned child's own marks let the
                        // analyzer re-attribute this span into fabric /
                        // queue / device portions.
                        ctx.trace(
                            orig.tid,
                            ReqMark::Server {
                                kind: ServerKind::IoNodeSsd,
                                arrive: arrived,
                                queue: SimDuration::ZERO,
                                depart: ctx.now(),
                            },
                        );
                        // A write-through reply means the bytes are
                        // durable on the OSS at the moment of the ACK.
                        if orig.kind == IoKind::Write {
                            self.resil.acked_bytes += orig.len;
                            self.resil.replicated_bytes += orig.len;
                        }
                        self.reply_to_client(&orig, false, rep.queue_delay, ctx);
                    }
                    OssPending::Drain { chunk } => {
                        self.stats.drains_completed += 1;
                        self.active_drains -= 1;
                        if chunk.token == 0 {
                            // Takeover re-drain on behalf of a failed
                            // primary: its recovery completes when the
                            // last held replica reaches the OSS.
                            self.takeover_outstanding = self.takeover_outstanding.saturating_sub(1);
                            if self.takeover_outstanding == 0 {
                                let span = ctx.now().since(self.takeover_started).as_nanos();
                                self.resil.recovery_ns = self.resil.recovery_ns.max(span);
                            }
                        } else {
                            self.used = self.used.saturating_sub(chunk.len);
                            self.remove_dirty(&chunk);
                            self.mark_durable(chunk.token, ctx.now());
                        }
                        self.start_drains(ctx);
                    }
                }
            }
            PfsMsg::Replicate(chunk) => {
                let now = ctx.now();
                if self.failed {
                    // A dead peer stores nothing; tell the primary so it
                    // does not count the copy as durable.
                    let ack = ReplicaAck {
                        id: chunk.id,
                        len: chunk.len,
                        stored: false,
                        tid: chunk.tid,
                    };
                    let size = crate::msg::HEADER_BYTES;
                    let (hop, msg) = route(
                        &chunk.reply_via,
                        chunk.reply_to,
                        size,
                        PfsMsg::ReplicaDone(ack),
                    );
                    ctx.send(hop, ctx.lookahead(), msg);
                    return;
                }
                // Charge the peer SSD for the copy (device time only;
                // replicas live outside the absorb capacity).
                let queue_delay = self.ssd.queue_delay(now);
                let completion = self
                    .ssd
                    .access(now, IoKind::Write, chunk.obj_offset, chunk.len);
                ctx.trace(
                    chunk.tid,
                    ReqMark::Server {
                        kind: ServerKind::Replica,
                        arrive: now,
                        queue: queue_delay,
                        depart: completion,
                    },
                );
                let token = self.next_token;
                self.next_token += 1;
                self.ssd_pending
                    .insert(token, SsdPending::ReplicaWrite { chunk });
                ctx.send_self(completion.since(now), PfsMsg::DeviceDone { token });
            }
            PfsMsg::ReplicaDone(ack) => {
                if let Some(token) = self.repl_pending.remove(&ack.id) {
                    if ack.stored {
                        self.mark_durable(token, ctx.now());
                    }
                    if let Some(gate) = self.gates.get_mut(&token) {
                        gate.awaiting = gate.awaiting.saturating_sub(1);
                        self.try_release(token, ctx);
                    }
                }
                // Unknown id: the gate was flushed by a failure; the
                // chunk's accounting is already settled.
            }
            PfsMsg::Takeover { primary } => {
                if let Some(chunks) = self.held.remove(&primary) {
                    if !chunks.is_empty() {
                        if self.takeover_outstanding == 0 {
                            self.takeover_started = ctx.now();
                        }
                        self.takeover_outstanding += chunks.len() as u64;
                        self.resil.requeued += chunks.len() as u64;
                        self.drain_queue.extend(chunks);
                        self.start_drains(ctx);
                    }
                }
            }
            PfsMsg::Fail { kind, .. } => {
                if kind == FailureKind::IoNodeLoss {
                    self.fail_node(ctx);
                }
                // Other kinds target the object store; the cluster
                // builder never schedules them here.
            }
            PfsMsg::Recover => {
                self.failed = false;
                let span = ctx.now().since(self.fail_time).as_nanos();
                self.resil.recovery_ns = self.resil.recovery_ns.max(span);
            }
            other => panic!("I/O node received unexpected message: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::fabric::Fabric;
    use crate::msg::IoRequest;
    use crate::oss::Oss;
    use pioeval_des::{SimConfig, Simulation};
    use pioeval_types::SimTime;

    struct Collector {
        replies: Vec<(SimTime, IoReply)>,
    }
    impl Entity<PfsMsg> for Collector {
        fn on_event(&mut self, ev: Envelope<PfsMsg>, ctx: &mut Ctx<'_, PfsMsg>) {
            if let PfsMsg::IoDone(rep) = ev.msg {
                self.replies.push((ctx.now(), rep));
            }
        }
    }

    /// A tiny world: client-side collector, one I/O node, storage fabric,
    /// one OSS with one HDD OST.
    fn setup(capacity: u64) -> (Simulation<PfsMsg>, EntityId, EntityId, EntityId) {
        let mut sim = Simulation::new(SimConfig::default());
        let sfab = sim.add_entity(
            "storage-fabric",
            Box::new(Fabric::new(crate::config::FabricConfig::ten_gbe())),
        );
        let oss = sim.add_entity(
            "oss0",
            Box::new(Oss::new(
                0,
                1,
                DeviceConfig::hdd(),
                SimDuration::from_secs(1),
            )),
        );
        let ionode = sim.add_entity(
            "ionode0",
            Box::new(IoNode::new(
                DeviceConfig::nvme(),
                capacity,
                2,
                sfab,
                vec![oss],
            )),
        );
        let client = sim.add_entity("client", Box::new(Collector { replies: vec![] }));
        (sim, ionode, client, oss)
    }

    /// Two I/O nodes sharing the fabric/OSS, wired as replication peers
    /// under the given ack mode.
    fn setup_pair(mode: AckMode) -> (Simulation<PfsMsg>, EntityId, EntityId, EntityId) {
        let mut sim = Simulation::new(SimConfig::default());
        let sfab = sim.add_entity(
            "storage-fabric",
            Box::new(Fabric::new(crate::config::FabricConfig::ten_gbe())),
        );
        let oss = sim.add_entity(
            "oss0",
            Box::new(Oss::new(
                0,
                1,
                DeviceConfig::hdd(),
                SimDuration::from_secs(1),
            )),
        );
        let mk = || IoNode::new(DeviceConfig::nvme(), 1 << 30, 2, sfab, vec![oss]);
        let n0 = sim.add_entity("ionode0", Box::new(mk()));
        let n1 = sim.add_entity("ionode1", Box::new(mk()));
        let rebuild = SimDuration::from_millis(500);
        sim.entity_mut::<IoNode>(n0)
            .unwrap()
            .set_resil(mode, 1, rebuild, vec![n1], None);
        sim.entity_mut::<IoNode>(n1)
            .unwrap()
            .set_resil(mode, 1, rebuild, vec![n0], None);
        let client = sim.add_entity("client", Box::new(Collector { replies: vec![] }));
        (sim, n0, n1, client)
    }

    fn write_req(id: u64, client: EntityId, offset: u64, len: u64) -> PfsMsg {
        PfsMsg::Io(IoRequest {
            id,
            reply_to: client,
            reply_via: vec![],
            kind: IoKind::Write,
            file: FileId::new(0),
            ost: OstId::new(0),
            obj_offset: offset,
            len,
            tid: 0,
        })
    }

    fn read_req(id: u64, client: EntityId, offset: u64, len: u64) -> PfsMsg {
        PfsMsg::Io(IoRequest {
            id,
            reply_to: client,
            reply_via: vec![],
            kind: IoKind::Read,
            file: FileId::new(0),
            ost: OstId::new(0),
            obj_offset: offset,
            len,
            tid: 0,
        })
    }

    #[test]
    fn absorbed_write_acks_at_ssd_speed_then_drains() {
        let (mut sim, ionode, client, _) = setup(1 << 30);
        // 20 MB write: SSD (2 GB/s) acks in ~10 ms; HDD (140 MB/s) drain
        // takes ~143 ms.
        sim.schedule(SimTime::ZERO, ionode, write_req(1, client, 0, 20_000_000));
        sim.run();
        let replies = &sim.entity_ref::<Collector>(client).unwrap().replies;
        assert_eq!(replies.len(), 1);
        assert!(replies[0].1.from_burst_buffer);
        assert!(
            replies[0].0 < SimTime::from_millis(30),
            "ack too slow: {}",
            replies[0].0
        );
        let node = sim.entity_ref::<IoNode>(ionode).unwrap();
        assert!(node.fully_drained());
        assert_eq!(node.stats.absorbed_writes, 1);
        assert_eq!(node.stats.drains_completed, 1);
        // Local-only accounting: the byte was ACKed and became durable
        // when the drain landed.
        assert_eq!(node.resil.acked_bytes, 20_000_000);
        assert_eq!(node.resil.replicated_bytes, 20_000_000);
        assert_eq!(node.resil.data_loss_bytes, 0);
        assert_eq!(node.resil.repl_lag_ns.len(), 1);
        // Simulation end time reflects the drain reaching the HDD.
        assert!(sim.now() >= SimTime::from_millis(100));
    }

    #[test]
    fn full_buffer_degrades_to_write_through() {
        let (mut sim, ionode, client, _) = setup(1_000_000); // 1 MB buffer
        sim.schedule(SimTime::ZERO, ionode, write_req(1, client, 0, 900_000));
        sim.schedule(
            SimTime::from_micros(1),
            ionode,
            write_req(2, client, 900_000, 900_000),
        );
        sim.run();
        let replies = &sim.entity_ref::<Collector>(client).unwrap().replies;
        assert_eq!(replies.len(), 2);
        let r1 = &replies.iter().find(|(_, r)| r.id == 1).unwrap().1;
        let r2 = &replies.iter().find(|(_, r)| r.id == 2).unwrap().1;
        assert!(r1.from_burst_buffer);
        assert!(
            !r2.from_burst_buffer,
            "second write should bypass the full buffer"
        );
        let node = sim.entity_ref::<IoNode>(ionode).unwrap();
        assert_eq!(node.stats.forwarded, 1);
        // Write-through bytes are durable at ACK time.
        assert_eq!(node.resil.acked_bytes, 1_800_000);
        assert_eq!(node.resil.replicated_bytes, 1_800_000);
    }

    #[test]
    fn read_hits_buffered_data_misses_go_to_oss() {
        let (mut sim, ionode, client, _) = setup(1 << 30);
        sim.schedule(SimTime::ZERO, ionode, write_req(1, client, 0, 4096));
        // Read of buffered region shortly after the write (before the
        // ~4 ms HDD drain completes): served from SSD.
        sim.schedule(
            SimTime::from_micros(100),
            ionode,
            read_req(2, client, 0, 4096),
        );
        // Read of an unbuffered region: forwarded.
        sim.schedule(
            SimTime::from_micros(100),
            ionode,
            read_req(3, client, 1 << 20, 4096),
        );
        sim.run();
        let replies = &sim.entity_ref::<Collector>(client).unwrap().replies;
        let r2 = &replies.iter().find(|(_, r)| r.id == 2).unwrap().1;
        let r3 = &replies.iter().find(|(_, r)| r.id == 3).unwrap().1;
        assert!(r2.from_burst_buffer);
        assert!(!r3.from_burst_buffer);
    }

    #[test]
    fn dirty_coverage_requires_full_overlap() {
        let node = {
            let (mut sim, ionode, client, _) = setup(1 << 30);
            sim.schedule(SimTime::ZERO, ionode, write_req(1, client, 0, 4096));
            sim.schedule(SimTime::ZERO, ionode, write_req(2, client, 8192, 4096));
            // Stop before drains complete so extents are still dirty.
            let cfg = SimConfig {
                time_limit: Some(SimTime::from_millis(1)),
                ..SimConfig::default()
            };
            let _ = cfg;
            sim.run();
            let n = sim.entity_ref::<IoNode>(ionode).unwrap();
            (
                n.dirty_covers(FileId::new(0), OstId::new(0), 0, 4096),
                n.dirty_covers(FileId::new(0), OstId::new(0), 4096, 4096),
                n.dirty_covers(FileId::new(0), OstId::new(0), 0, 12288),
            )
        };
        // After full drain nothing is covered.
        assert_eq!(node, (false, false, false));
    }

    #[test]
    fn coverage_merges_adjacent_extents() {
        let mut n = IoNode::new(
            DeviceConfig::nvme(),
            1 << 30,
            1,
            EntityId(0),
            vec![EntityId(0)],
        );
        let key = (FileId::new(1), OstId::new(0));
        n.dirty.insert(key, vec![(4096, 4096), (0, 4096)]);
        assert!(n.dirty_covers(FileId::new(1), OstId::new(0), 0, 8192));
        assert!(n.dirty_covers(FileId::new(1), OstId::new(0), 1000, 2000));
        assert!(!n.dirty_covers(FileId::new(1), OstId::new(0), 0, 8193));
        assert!(!n.dirty_covers(FileId::new(1), OstId::new(0), 10000, 10));
    }

    #[test]
    fn gated_ack_waits_for_replica_confirmation() {
        // Same write under local_only vs local_plus_one: the gated ACK
        // must land strictly later (it waits for the peer round trip)
        // but still well before the HDD drain.
        let ack_at = |mode: AckMode| {
            let (mut sim, n0, _, client) = setup_pair(mode);
            sim.schedule(SimTime::ZERO, n0, write_req(1, client, 0, 20_000_000));
            sim.run();
            let replies = &sim.entity_ref::<Collector>(client).unwrap().replies;
            assert_eq!(replies.len(), 1);
            assert!(replies[0].1.from_burst_buffer);
            replies[0].0
        };
        let local = ack_at(AckMode::LocalOnly);
        let plus_one = ack_at(AckMode::LocalPlusOne);
        assert!(
            plus_one > local,
            "gated ack ({plus_one}) must wait for the replica ({local})"
        );
        assert!(
            plus_one < SimTime::from_millis(60),
            "ack stalled: {plus_one}"
        );
    }

    #[test]
    fn replica_ack_marks_bytes_durable_before_drain() {
        let (mut sim, n0, n1, client) = setup_pair(AckMode::LocalPlusOne);
        sim.schedule(SimTime::ZERO, n0, write_req(1, client, 0, 20_000_000));
        sim.run();
        let primary = sim.entity_ref::<IoNode>(n0).unwrap();
        assert_eq!(primary.resil.acked_bytes, 20_000_000);
        assert_eq!(primary.resil.replicated_bytes, 20_000_000);
        assert_eq!(primary.resil.data_loss_bytes, 0);
        // The replica landed on the peer's SSD and is held for takeover.
        let peer = sim.entity_ref::<IoNode>(n1).unwrap();
        assert_eq!(peer.held.get(&n0.0).map(Vec::len), Some(1));
    }

    #[test]
    fn node_loss_under_local_only_opens_a_loss_window() {
        let (mut sim, n0, _, client) = setup_pair(AckMode::LocalOnly);
        // 20 MB absorbs in ~10 ms (SSD) but needs ~143 ms to drain to
        // the HDD; kill the node at 50 ms — after the ACK, mid-drain.
        sim.schedule(SimTime::ZERO, n0, write_req(1, client, 0, 20_000_000));
        sim.schedule(
            SimTime::from_millis(50),
            n0,
            PfsMsg::Fail {
                kind: FailureKind::IoNodeLoss,
                target: 0,
            },
        );
        sim.run();
        let node = sim.entity_ref::<IoNode>(n0).unwrap();
        assert_eq!(node.resil.failures, 1);
        assert_eq!(node.resil.acked_bytes, 20_000_000);
        assert_eq!(
            node.resil.data_loss_bytes, 20_000_000,
            "local_only exposes ACKed-but-undrained bytes"
        );
        assert_eq!(
            node.resil.acked_bytes,
            node.resil.replicated_bytes + node.resil.data_loss_bytes,
            "conservation: acked = replicated + lost"
        );
        assert!(
            node.resil.recovery_ns >= 500_000_000,
            "rebuild span recorded"
        );
    }

    #[test]
    fn node_loss_under_plus_one_loses_nothing_and_peer_redrains() {
        let (mut sim, n0, n1, client) = setup_pair(AckMode::LocalPlusOne);
        sim.schedule(SimTime::ZERO, n0, write_req(1, client, 0, 20_000_000));
        sim.schedule(
            SimTime::from_millis(50),
            n0,
            PfsMsg::Fail {
                kind: FailureKind::IoNodeLoss,
                target: 0,
            },
        );
        sim.run();
        let primary = sim.entity_ref::<IoNode>(n0).unwrap();
        assert_eq!(primary.resil.acked_bytes, 20_000_000);
        assert_eq!(
            primary.resil.data_loss_bytes, 0,
            "replicated bytes survive the node loss"
        );
        assert_eq!(
            primary.resil.acked_bytes,
            primary.resil.replicated_bytes + primary.resil.data_loss_bytes
        );
        // The surviving peer re-drained the replica to the OSS.
        let peer = sim.entity_ref::<IoNode>(n1).unwrap();
        assert_eq!(peer.resil.requeued, 1);
        assert_eq!(peer.takeover_outstanding, 0);
        assert!(peer.resil.recovery_ns > 0, "takeover span recorded");
        assert!(!peer.held.contains_key(&n0.0));
    }

    #[test]
    fn failed_node_forwards_writes_until_recovery() {
        let (mut sim, n0, _, client) = setup_pair(AckMode::LocalOnly);
        sim.schedule(
            SimTime::ZERO,
            n0,
            PfsMsg::Fail {
                kind: FailureKind::IoNodeLoss,
                target: 0,
            },
        );
        // While down (rebuild = 500 ms): write-through.
        sim.schedule(SimTime::from_millis(10), n0, write_req(1, client, 0, 4096));
        // After recovery: absorbed again.
        sim.schedule(SimTime::from_secs(2), n0, write_req(2, client, 0, 4096));
        sim.run();
        let replies = &sim.entity_ref::<Collector>(client).unwrap().replies;
        let r1 = &replies.iter().find(|(_, r)| r.id == 1).unwrap().1;
        let r2 = &replies.iter().find(|(_, r)| r.id == 2).unwrap().1;
        assert!(!r1.from_burst_buffer, "failed node must write through");
        assert!(r2.from_burst_buffer, "recovered node absorbs again");
        let node = sim.entity_ref::<IoNode>(n0).unwrap();
        assert_eq!(
            node.resil.acked_bytes,
            node.resil.replicated_bytes + node.resil.data_loss_bytes
        );
    }
}
