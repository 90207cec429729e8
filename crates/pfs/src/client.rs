//! Client-side protocol helper and a raw test client.
//!
//! [`ClientPort`] encapsulates everything a compute-node entity needs to
//! speak the PFS protocol: request-id allocation, layout caching, extent →
//! stripe-chunk → RPC splitting, and routing (directly to the storage
//! cluster, or through the node's assigned I/O forwarding node when the
//! burst-buffer tier is configured).
//!
//! [`RawClient`] is a minimal client entity that executes a
//! [`pioeval_types::RankProgram`]-style list
//! of logical operations one at a time — the workhorse for unit tests and
//! for experiments that need storage-side behaviour without the full
//! layered I/O stack of `pioeval-iostack`.

use crate::msg::{route, IoRequest, MetaReply, MetaRequest, PfsMsg, RequestId, HEADER_BYTES};
use crate::striping::Layout;
use pioeval_des::{Ctx, Entity, EntityId, Envelope};
use pioeval_types::{tid_for, Error, FileId, IoKind, IoOp, MetaOp, Result, SimTime};
use std::collections::{HashMap, HashSet};

/// Client-side protocol state for one compute client.
#[derive(Clone, Debug)]
pub struct ClientPort {
    me: EntityId,
    compute_fabric: EntityId,
    storage_fabric: EntityId,
    /// Assigned I/O forwarding node (None = address storage directly).
    ionode: Option<EntityId>,
    mds: Vec<EntityId>,
    /// Global OST index → hosting OSS entity.
    ost_route: Vec<EntityId>,
    total_osts: u32,
    max_rpc: u64,
    layouts: HashMap<FileId, Layout>,
    sizes: HashMap<FileId, u64>,
    next_id: RequestId,
}

impl ClientPort {
    /// Build a port for client entity `me`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: EntityId,
        compute_fabric: EntityId,
        storage_fabric: EntityId,
        ionode: Option<EntityId>,
        mds: Vec<EntityId>,
        ost_route: Vec<EntityId>,
        max_rpc: u64,
    ) -> Self {
        let total_osts = ost_route.len() as u32;
        ClientPort {
            me,
            compute_fabric,
            storage_fabric,
            ionode,
            mds,
            ost_route,
            total_osts,
            max_rpc,
            layouts: HashMap::new(),
            sizes: HashMap::new(),
            next_id: 0,
        }
    }

    fn fresh_id(&mut self) -> RequestId {
        self.next_id += 1;
        self.next_id
    }

    /// The request-trace id every outgoing request `id` carries.
    fn tid(&self, id: RequestId) -> u64 {
        tid_for(self.me.0, id)
    }

    /// The size this client believes `file` has (local view).
    pub fn file_size(&self, file: FileId) -> u64 {
        self.sizes.get(&file).copied().unwrap_or(0)
    }

    /// Cached layout for `file`, if an open/create reply delivered one.
    pub fn layout(&self, file: FileId) -> Option<Layout> {
        self.layouts.get(&file).copied()
    }

    /// The metadata server responsible for `file` (hash distribution,
    /// Lustre-DNE-style).
    fn mds_for(&self, file: FileId) -> EntityId {
        self.mds[file.index() % self.mds.len()]
    }

    /// Build a metadata request. Returns (first hop entity, message, id).
    /// The caller sends the message with at least the engine lookahead.
    pub fn meta(&mut self, op: MetaOp, file: FileId) -> (EntityId, PfsMsg, RequestId) {
        let id = self.fresh_id();
        let req = MetaRequest {
            id,
            reply_to: self.me,
            reply_via: vec![self.storage_fabric, self.compute_fabric],
            op,
            file,
            size_hint: self.file_size(file),
            tid: self.tid(id),
        };
        let (hop, msg) = route(
            &[self.compute_fabric, self.storage_fabric],
            self.mds_for(file),
            HEADER_BYTES,
            PfsMsg::Meta(req),
        );
        (hop, msg, id)
    }

    /// Build the data RPCs for a logical extent access: stripe-chunk the
    /// extent, split chunks at `max_rpc`, and route each RPC (through the
    /// I/O node when assigned, directly to the OSS otherwise).
    ///
    /// Fails with [`Error::UnknownFile`] if no layout is cached — the
    /// caller must open or create the file first, as a real client would.
    pub fn data(
        &mut self,
        kind: IoKind,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<Vec<(EntityId, PfsMsg, RequestId)>> {
        let layout = *self
            .layouts
            .get(&file)
            .ok_or_else(|| Error::UnknownFile(format!("{file} not opened")))?;
        if kind == IoKind::Write {
            let size = self.sizes.entry(file).or_insert(0);
            *size = (*size).max(offset + len);
        }
        let mut rpcs = Vec::new();
        for chunk in layout.map(offset, len, self.total_osts) {
            let mut pos = 0;
            while pos < chunk.len {
                let piece = (chunk.len - pos).min(self.max_rpc);
                let id = self.fresh_id();
                let (dst, via, reply_via) = match self.ionode {
                    Some(ionode) => (ionode, vec![self.compute_fabric], vec![self.compute_fabric]),
                    None => (
                        self.ost_route[chunk.ost.index()],
                        vec![self.compute_fabric, self.storage_fabric],
                        vec![self.storage_fabric, self.compute_fabric],
                    ),
                };
                let req = IoRequest {
                    id,
                    reply_to: self.me,
                    reply_via,
                    kind,
                    file,
                    ost: chunk.ost,
                    obj_offset: chunk.obj_offset + pos,
                    len: piece,
                    tid: self.tid(id),
                };
                let size = req.wire_size();
                let (hop, msg) = route(&via, dst, size, PfsMsg::Io(req));
                rpcs.push((hop, msg, id));
                pos += piece;
            }
        }
        Ok(rpcs)
    }

    /// Build an application-level message to another client entity,
    /// routed over the compute fabric. Returns (first hop, message).
    pub fn app(&self, dst: EntityId, tag: u64, bytes: u64) -> (EntityId, PfsMsg) {
        route(
            &[self.compute_fabric],
            dst,
            HEADER_BYTES + bytes,
            PfsMsg::App { tag, bytes },
        )
    }

    /// Digest a metadata reply (caches layouts from open/create).
    pub fn on_meta_reply(&mut self, rep: &MetaReply) {
        if let Some(layout) = rep.layout {
            self.layouts.insert(rep.file, layout);
        }
        if rep.op == MetaOp::Stat {
            let size = self.sizes.entry(rep.file).or_insert(0);
            *size = (*size).max(rep.size);
        }
    }
}

/// Completion record for one logical operation executed by a client.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// The operation.
    pub op: IoOp,
    /// When the client issued it.
    pub start: SimTime,
    /// When its last constituent RPC completed.
    pub end: SimTime,
    /// True if any constituent RPC was served by a burst buffer.
    pub burst_buffer: bool,
}

/// A minimal client entity: executes a program of logical operations
/// strictly one at a time (each op waits for the previous to complete).
pub struct RawClient {
    port: ClientPort,
    program: Vec<IoOp>,
    pc: usize,
    pending: HashSet<RequestId>,
    op_start: SimTime,
    op_hit_bb: bool,
    /// Per-operation completion records, in program order.
    pub records: Vec<OpRecord>,
    /// Set when the program has fully completed.
    pub finished_at: Option<SimTime>,
}

impl RawClient {
    /// A client that will execute `program` when it receives
    /// [`PfsMsg::Start`].
    pub fn new(port: ClientPort, program: Vec<IoOp>) -> Self {
        RawClient {
            port,
            program,
            pc: 0,
            pending: HashSet::new(),
            op_start: SimTime::ZERO,
            op_hit_bb: false,
            records: Vec::new(),
            finished_at: None,
        }
    }

    /// Read access to the protocol port (layout cache, sizes).
    pub fn port(&self) -> &ClientPort {
        &self.port
    }

    fn issue_next(&mut self, ctx: &mut Ctx<'_, PfsMsg>) {
        while self.pc < self.program.len() {
            let op = self.program[self.pc].clone();
            self.op_start = ctx.now();
            self.op_hit_bb = false;
            match op {
                IoOp::Compute { duration } => {
                    ctx.send_self(
                        duration,
                        PfsMsg::Timer {
                            token: self.pc as u64,
                        },
                    );
                    return;
                }
                IoOp::Barrier => {
                    // RawClient has no job-wide coordination; barriers are
                    // a no-op here (the iostack's job runtime implements
                    // them). Record and continue.
                    self.records.push(OpRecord {
                        op,
                        start: ctx.now(),
                        end: ctx.now(),
                        burst_buffer: false,
                    });
                    self.pc += 1;
                    continue;
                }
                IoOp::Meta { op: m, file } => {
                    let (hop, msg, id) = self.port.meta(m, file);
                    self.pending.insert(id);
                    ctx.send(hop, ctx.lookahead(), msg);
                    return;
                }
                IoOp::Data {
                    kind,
                    file,
                    offset,
                    size,
                } => {
                    let rpcs = self
                        .port
                        .data(kind, file, offset, size)
                        .expect("RawClient program accessed a file it never opened");
                    if rpcs.is_empty() {
                        // Zero-length access completes immediately.
                        self.records.push(OpRecord {
                            op,
                            start: ctx.now(),
                            end: ctx.now(),
                            burst_buffer: false,
                        });
                        self.pc += 1;
                        continue;
                    }
                    for (hop, msg, id) in rpcs {
                        self.pending.insert(id);
                        ctx.send(hop, ctx.lookahead(), msg);
                    }
                    return;
                }
            }
        }
        if self.finished_at.is_none() {
            self.finished_at = Some(ctx.now());
        }
    }

    fn complete_op(&mut self, ctx: &mut Ctx<'_, PfsMsg>) {
        let op = self.program[self.pc].clone();
        self.records.push(OpRecord {
            op,
            start: self.op_start,
            end: ctx.now(),
            burst_buffer: self.op_hit_bb,
        });
        self.pc += 1;
        self.issue_next(ctx);
    }
}

impl Entity<PfsMsg> for RawClient {
    fn on_event(&mut self, ev: Envelope<PfsMsg>, ctx: &mut Ctx<'_, PfsMsg>) {
        match ev.msg {
            PfsMsg::Start => self.issue_next(ctx),
            PfsMsg::Timer { .. } => self.complete_op(ctx),
            PfsMsg::MetaDone(rep) => {
                self.port.on_meta_reply(&rep);
                if self.pending.remove(&rep.id) && self.pending.is_empty() {
                    self.complete_op(ctx);
                }
            }
            PfsMsg::IoDone(rep) => {
                self.op_hit_bb |= rep.from_burst_buffer;
                if self.pending.remove(&rep.id) && self.pending.is_empty() {
                    self.complete_op(ctx);
                }
            }
            other => panic!("client received unexpected message: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_splits_extents_at_stripes_and_rpc_limit() {
        let mut port = ClientPort::new(
            EntityId(9),
            EntityId(0),
            EntityId(1),
            None,
            vec![EntityId(2)],
            vec![EntityId(3), EntityId(3), EntityId(4), EntityId(4)],
            1024, // max RPC 1 KiB
        );
        port.layouts.insert(
            FileId::new(1),
            Layout::new(4096, 2, 0, 4), // 4 KiB stripes over OSTs 0,1
        );
        // 8 KiB write at offset 0: two 4 KiB chunks, each split into 4 RPCs.
        let rpcs = port.data(IoKind::Write, FileId::new(1), 0, 8192).unwrap();
        assert_eq!(rpcs.len(), 8);
        // All first-hop sends go to the compute fabric.
        assert!(rpcs.iter().all(|(hop, _, _)| *hop == EntityId(0)));
        assert_eq!(port.file_size(FileId::new(1)), 8192);
    }

    #[test]
    fn data_without_open_fails() {
        let mut port = ClientPort::new(
            EntityId(9),
            EntityId(0),
            EntityId(1),
            None,
            vec![EntityId(2)],
            vec![EntityId(3)],
            1024,
        );
        assert!(port.data(IoKind::Read, FileId::new(5), 0, 10).is_err());
    }

    #[test]
    fn meta_reply_caches_layout() {
        let mut port = ClientPort::new(
            EntityId(9),
            EntityId(0),
            EntityId(1),
            None,
            vec![EntityId(2)],
            vec![EntityId(3)],
            1024,
        );
        let rep = MetaReply {
            id: 1,
            op: MetaOp::Open,
            file: FileId::new(5),
            layout: Some(Layout::new(1024, 1, 0, 1)),
            size: 0,
            queue_delay: pioeval_types::SimDuration::ZERO,
            tid: 0,
        };
        port.on_meta_reply(&rep);
        assert!(port.layout(FileId::new(5)).is_some());
        assert!(port.data(IoKind::Read, FileId::new(5), 0, 10).is_ok());
    }

    #[test]
    fn ionode_routing_targets_the_assigned_node() {
        let mut port = ClientPort::new(
            EntityId(9),
            EntityId(0),
            EntityId(1),
            Some(EntityId(7)),
            vec![EntityId(2)],
            vec![EntityId(3)],
            1 << 20,
        );
        port.layouts
            .insert(FileId::new(1), Layout::new(1 << 20, 1, 0, 1));
        let rpcs = port.data(IoKind::Write, FileId::new(1), 0, 4096).unwrap();
        assert_eq!(rpcs.len(), 1);
        // First hop is the compute fabric; the packet inside addresses the
        // I/O node.
        let (hop, msg, _) = &rpcs[0];
        assert_eq!(*hop, EntityId(0));
        let PfsMsg::Route(pkt) = msg else { panic!() };
        assert_eq!(pkt.dst, EntityId(7));
    }

    #[test]
    fn stat_reply_updates_size_view() {
        let mut port = ClientPort::new(
            EntityId(9),
            EntityId(0),
            EntityId(1),
            None,
            vec![EntityId(2)],
            vec![EntityId(3)],
            1024,
        );
        port.on_meta_reply(&MetaReply {
            id: 1,
            op: MetaOp::Stat,
            file: FileId::new(4),
            layout: None,
            size: 777,
            queue_delay: pioeval_types::SimDuration::ZERO,
            tid: 0,
        });
        assert_eq!(port.file_size(FileId::new(4)), 777);
    }
}
