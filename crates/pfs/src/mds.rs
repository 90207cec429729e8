//! The metadata server (MDS).
//!
//! A single FIFO service queue with per-operation costs, a namespace map,
//! and layout allocation. The MDS is deliberately a *serial* resource:
//! metadata-intensive workloads (mdtest-style trees, small-file deep
//! learning datasets, workflow stage-in/out) saturate it long before the
//! OSTs — the "metadata performance can be a limiting factor" observation
//! of Sec. IV-A1.

use crate::config::{LayoutPolicy, MdsConfig};
use crate::msg::{route, MetaReply, PfsMsg, HEADER_BYTES};
use crate::stats::ServerStats;
use crate::striping::Layout;
use pioeval_des::{Ctx, Entity, Envelope};
use pioeval_types::{FileId, IoKind, MetaOp, ReqMark, ServerKind, SimDuration, SimTime};
use std::collections::HashMap;

/// Per-file namespace entry.
#[derive(Clone, Debug)]
pub struct FileMeta {
    /// Striping layout allocated at create time.
    pub layout: Layout,
    /// Size as lazily reported by clients on close/fsync.
    pub size: u64,
    /// Creation timestamp.
    pub created: SimTime,
}

/// A metadata-change event, in the style of FSMonitor (Paul et al.):
/// the storage-system-level metadata event stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetaEvent {
    /// When the operation completed at the MDS.
    pub time: SimTime,
    /// The operation.
    pub op: MetaOp,
    /// The file it touched.
    pub file: FileId,
}

/// The metadata server entity.
pub struct MetadataServer {
    cfg: MdsConfig,
    layout_policy: LayoutPolicy,
    total_osts: u32,
    /// Round-robin start OST for newly created files.
    next_start_ost: u32,
    namespace: HashMap<FileId, FileMeta>,
    /// FIFO service queue tail.
    next_free: SimTime,
    /// Per-op-kind service counts.
    pub op_counts: [u64; 8],
    /// Aggregate service statistics (timeline lane 0 records op *counts*
    /// as "bytes" in the write lane — one unit per op).
    pub stats: ServerStats,
    /// Metadata event stream (FSMonitor-style), in completion order.
    pub events: Vec<MetaEvent>,
}

impl MetadataServer {
    /// A new MDS with an empty namespace.
    pub fn new(
        cfg: MdsConfig,
        layout_policy: LayoutPolicy,
        total_osts: u32,
        stats_bin: SimDuration,
    ) -> Self {
        MetadataServer {
            cfg,
            layout_policy,
            total_osts,
            next_start_ost: 0,
            namespace: HashMap::new(),
            next_free: SimTime::ZERO,
            op_counts: [0; 8],
            stats: ServerStats::new(1, stats_bin),
            events: Vec::new(),
        }
    }

    /// Number of files currently in the namespace.
    pub fn num_files(&self) -> usize {
        self.namespace.len()
    }

    fn allocate_layout(&mut self) -> Layout {
        let layout = Layout::new(
            self.layout_policy.stripe_size,
            self.layout_policy.stripe_count,
            self.next_start_ost,
            self.total_osts,
        );
        self.next_start_ost = (self.next_start_ost + 1) % self.total_osts;
        layout
    }

    /// Apply the namespace side effects of `op` and build the reply body.
    fn apply(
        &mut self,
        op: MetaOp,
        file: FileId,
        size_hint: u64,
        now: SimTime,
    ) -> (Option<Layout>, u64) {
        match op {
            MetaOp::Create => {
                let layout = self.allocate_layout();
                self.namespace.insert(
                    file,
                    FileMeta {
                        layout,
                        size: 0,
                        created: now,
                    },
                );
                (Some(layout), 0)
            }
            MetaOp::Open => {
                // Open with implicit create (O_CREAT semantics) keeps
                // workload generators simple.
                if let Some(meta) = self.namespace.get(&file) {
                    (Some(meta.layout), meta.size)
                } else {
                    let layout = self.allocate_layout();
                    self.namespace.insert(
                        file,
                        FileMeta {
                            layout,
                            size: 0,
                            created: now,
                        },
                    );
                    (Some(layout), 0)
                }
            }
            MetaOp::Close | MetaOp::Fsync => {
                let mut size = 0;
                if let Some(meta) = self.namespace.get_mut(&file) {
                    meta.size = meta.size.max(size_hint);
                    size = meta.size;
                }
                (None, size)
            }
            MetaOp::Stat => {
                let size = self.namespace.get(&file).map(|m| m.size).unwrap_or(0);
                (None, size)
            }
            MetaOp::Unlink => {
                self.namespace.remove(&file);
                (None, 0)
            }
            MetaOp::Mkdir | MetaOp::Readdir => (None, 0),
        }
    }
}

impl Entity<PfsMsg> for MetadataServer {
    fn on_event(&mut self, ev: Envelope<PfsMsg>, ctx: &mut Ctx<'_, PfsMsg>) {
        let PfsMsg::Meta(req) = ev.msg else {
            panic!("MDS received non-Meta message: {:?}", ev.msg);
        };
        let now = ctx.now();
        let start = now.max(self.next_free);
        let queue_delay = start.since(now);
        let cost = self.cfg.cost(req.op).max(ctx.lookahead());
        let completion = start + cost;
        self.next_free = completion;

        self.op_counts[req.op.index()] += 1;
        self.stats.requests += 1;
        self.stats.queue_wait += queue_delay;
        self.stats.busy += cost;
        self.stats.timelines[0].record(completion, IoKind::Write, 1);
        self.events.push(MetaEvent {
            time: completion,
            op: req.op,
            file: req.file,
        });

        ctx.trace(
            req.tid,
            ReqMark::Server {
                kind: ServerKind::Mds,
                arrive: now,
                queue: queue_delay,
                depart: completion,
            },
        );

        let (layout, size) = self.apply(req.op, req.file, req.size_hint, now);
        let reply = MetaReply {
            id: req.id,
            op: req.op,
            file: req.file,
            layout,
            size,
            queue_delay,
            tid: req.tid,
        };
        let (first_hop, msg) = route(
            &req.reply_via,
            req.reply_to,
            HEADER_BYTES,
            PfsMsg::MetaDone(reply),
        );
        ctx.send(first_hop, completion.since(now).max(ctx.lookahead()), msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LayoutPolicy, MdsConfig};
    use crate::msg::MetaRequest;
    use pioeval_des::{EntityId, SimConfig, Simulation};

    /// Collects metadata replies.
    struct Collector {
        replies: Vec<(SimTime, MetaReply)>,
    }
    impl Entity<PfsMsg> for Collector {
        fn on_event(&mut self, ev: Envelope<PfsMsg>, ctx: &mut Ctx<'_, PfsMsg>) {
            if let PfsMsg::MetaDone(rep) = ev.msg {
                self.replies.push((ctx.now(), rep));
            }
        }
    }

    fn setup() -> (Simulation<PfsMsg>, EntityId, EntityId) {
        let mut sim = Simulation::new(SimConfig::default());
        let mds = sim.add_entity(
            "mds",
            Box::new(MetadataServer::new(
                MdsConfig::default(),
                LayoutPolicy::default(),
                8,
                SimDuration::from_secs(1),
            )),
        );
        let client = sim.add_entity("client", Box::new(Collector { replies: vec![] }));
        (sim, mds, client)
    }

    fn meta_req(id: u64, client: EntityId, op: MetaOp, file: u32) -> PfsMsg {
        PfsMsg::Meta(MetaRequest {
            id,
            reply_to: client,
            reply_via: vec![],
            op,
            file: FileId::new(file),
            size_hint: 0,
            tid: 0,
        })
    }

    #[test]
    fn create_allocates_round_robin_layouts() {
        let (mut sim, mds, client) = setup();
        sim.schedule(SimTime::ZERO, mds, meta_req(1, client, MetaOp::Create, 1));
        sim.schedule(SimTime::ZERO, mds, meta_req(2, client, MetaOp::Create, 2));
        sim.run();
        let replies = &sim.entity_ref::<Collector>(client).unwrap().replies;
        assert_eq!(replies.len(), 2);
        let l1 = replies[0].1.layout.unwrap();
        let l2 = replies[1].1.layout.unwrap();
        assert_eq!(l1.start_ost, 0);
        assert_eq!(l2.start_ost, 1);
        let server = sim.entity_ref::<MetadataServer>(mds).unwrap();
        assert_eq!(server.num_files(), 2);
        assert_eq!(server.op_counts[MetaOp::Create.index()], 2);
    }

    #[test]
    fn serial_queue_accumulates_delay() {
        let (mut sim, mds, client) = setup();
        for i in 0..10 {
            sim.schedule(
                SimTime::ZERO,
                mds,
                meta_req(i, client, MetaOp::Create, i as u32),
            );
        }
        sim.run();
        let replies = &sim.entity_ref::<Collector>(client).unwrap().replies;
        // Creates cost 150us each and queue FIFO: the last completes at
        // ~1.5ms, and queue delays grow monotonically.
        let last = replies.last().unwrap();
        assert!(last.0 >= SimTime::from_micros(1500));
        assert!(replies
            .windows(2)
            .all(|w| w[0].1.queue_delay <= w[1].1.queue_delay));
    }

    #[test]
    fn close_updates_size_stat_reads_it() {
        let (mut sim, mds, client) = setup();
        sim.schedule(SimTime::ZERO, mds, meta_req(1, client, MetaOp::Create, 7));
        let close = PfsMsg::Meta(MetaRequest {
            id: 2,
            reply_to: client,
            reply_via: vec![],
            op: MetaOp::Close,
            file: FileId::new(7),
            size_hint: 4096,
            tid: 0,
        });
        sim.schedule(SimTime::from_millis(1), mds, close);
        sim.schedule(
            SimTime::from_millis(2),
            mds,
            meta_req(3, client, MetaOp::Stat, 7),
        );
        sim.run();
        let replies = &sim.entity_ref::<Collector>(client).unwrap().replies;
        assert_eq!(replies[2].1.size, 4096);
    }

    #[test]
    fn unlink_removes_and_events_stream_records() {
        let (mut sim, mds, client) = setup();
        sim.schedule(SimTime::ZERO, mds, meta_req(1, client, MetaOp::Create, 3));
        sim.schedule(
            SimTime::from_millis(1),
            mds,
            meta_req(2, client, MetaOp::Unlink, 3),
        );
        sim.run();
        let server = sim.entity_ref::<MetadataServer>(mds).unwrap();
        assert_eq!(server.num_files(), 0);
        assert_eq!(server.events.len(), 2);
        assert_eq!(server.events[0].op, MetaOp::Create);
        assert_eq!(server.events[1].op, MetaOp::Unlink);
        assert!(server.events[0].time < server.events[1].time);
    }

    #[test]
    fn open_implicitly_creates() {
        let (mut sim, mds, client) = setup();
        sim.schedule(SimTime::ZERO, mds, meta_req(1, client, MetaOp::Open, 9));
        sim.run();
        let replies = &sim.entity_ref::<Collector>(client).unwrap().replies;
        assert!(replies[0].1.layout.is_some());
        assert_eq!(
            sim.entity_ref::<MetadataServer>(mds).unwrap().num_files(),
            1
        );
    }
}
