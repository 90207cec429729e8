//! Metadata shards: the flat-namespace KV.
//!
//! There is no directory tree — an object record is a key → attributes
//! entry, and keys are hash-partitioned across shards by the gateways,
//! so metadata capacity scales with shard count (the contrast with the
//! deliberately-serial PFS MDS). Each shard is a single FIFO service
//! queue with per-verb costs, exactly the MDS service discipline.
//! Multipart manifests live at the gateways (which see part
//! completions); a shard only learns the final size when the gateway
//! forwards CompleteUpload with the assembled size as a hint.

use pioeval_des::{Ctx, Entity, Envelope};
use pioeval_pfs::msg::route;
use pioeval_pfs::{ObjReply, ObjVerb, PfsMsg};
use pioeval_types::{FileId, IoKind, ReqMark, ServerKind, SimDuration, SimTime};
use std::collections::HashMap;

use crate::config::ShardConfig;

/// One object record in the KV.
#[derive(Clone, Debug)]
pub struct ObjRecord {
    /// Committed object size (set by CompleteUpload, max-merged).
    pub size: u64,
    /// Creation timestamp (CreateUpload).
    pub created: SimTime,
}

/// A metadata KV shard entity.
pub struct MetaShard {
    cfg: ShardConfig,
    records: HashMap<FileId, ObjRecord>,
    /// FIFO service queue tail.
    next_free: SimTime,
    /// Aggregate service statistics (timeline lane 0 records one unit
    /// per verb in the write lane, mirroring the MDS convention).
    pub stats: pioeval_pfs::ServerStats,
}

impl MetaShard {
    /// A new, empty shard.
    pub fn new(cfg: ShardConfig, stats_bin: SimDuration) -> Self {
        MetaShard {
            cfg,
            records: HashMap::new(),
            next_free: SimTime::ZERO,
            stats: pioeval_pfs::ServerStats::new(1, stats_bin),
        }
    }

    /// Number of object records currently stored.
    pub fn num_objects(&self) -> usize {
        self.records.len()
    }

    /// Look up an object record (post-run inspection).
    pub fn record(&self, key: FileId) -> Option<&ObjRecord> {
        self.records.get(&key)
    }

    /// Apply the KV side effects of `verb` and return the size to echo.
    fn apply(&mut self, verb: ObjVerb, key: FileId, size_hint: u64, now: SimTime) -> u64 {
        match verb {
            ObjVerb::CreateUpload => {
                self.records.entry(key).or_insert(ObjRecord {
                    size: 0,
                    created: now,
                });
                0
            }
            ObjVerb::Head => self.records.get(&key).map(|r| r.size).unwrap_or(0),
            ObjVerb::CompleteUpload => {
                let rec = self.records.entry(key).or_insert(ObjRecord {
                    size: 0,
                    created: now,
                });
                rec.size = rec.size.max(size_hint);
                rec.size
            }
            ObjVerb::Delete => {
                self.records.remove(&key);
                0
            }
            ObjVerb::List => self.records.len() as u64,
            ObjVerb::PutPart | ObjVerb::GetRange => {
                panic!("metadata shard received data verb {verb:?}")
            }
        }
    }
}

impl Entity<PfsMsg> for MetaShard {
    fn on_event(&mut self, ev: Envelope<PfsMsg>, ctx: &mut Ctx<'_, PfsMsg>) {
        let PfsMsg::Obj(req) = ev.msg else {
            panic!("metadata shard received non-Obj message: {:?}", ev.msg);
        };
        let now = ctx.now();
        let start = now.max(self.next_free);
        let queue_delay = start.since(now);
        let cost = self.cfg.cost(req.verb).max(ctx.lookahead());
        let completion = start + cost;
        self.next_free = completion;

        self.stats.requests += 1;
        self.stats.queue_wait += queue_delay;
        self.stats.busy += cost;
        self.stats.timelines[0].record(completion, IoKind::Write, 1);

        ctx.trace(
            req.tid,
            ReqMark::Server {
                kind: ServerKind::Shard,
                arrive: now,
                queue: queue_delay,
                depart: completion,
            },
        );

        // `offset` doubles as the size hint on CompleteUpload (len is 0
        // for every metadata verb, so the field is otherwise unused).
        let size = self.apply(req.verb, req.key, req.offset, now);
        let reply = ObjReply {
            id: req.id,
            verb: req.verb,
            key: req.key,
            len: req.len,
            size,
            queue_delay,
            tid: req.tid,
        };
        let wire = reply.wire_size();
        let (first_hop, msg) = route(&req.reply_via, req.reply_to, wire, PfsMsg::ObjDone(reply));
        ctx.send(first_hop, completion.since(now).max(ctx.lookahead()), msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioeval_des::{EntityId, SimConfig, Simulation};
    use pioeval_pfs::ObjRequest;

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

    fn setup() -> (Simulation<PfsMsg>, EntityId, EntityId) {
        let mut sim = Simulation::new(SimConfig::default());
        let shard = sim.add_entity(
            "shard",
            Box::new(MetaShard::new(
                ShardConfig::default(),
                SimDuration::from_secs(1),
            )),
        );
        let client = sim.add_entity("client", Box::new(Collector { replies: vec![] }));
        (sim, shard, client)
    }

    fn obj_req(id: u64, client: EntityId, verb: ObjVerb, key: u32, offset: u64) -> PfsMsg {
        PfsMsg::Obj(ObjRequest {
            id,
            reply_to: client,
            reply_via: vec![],
            verb,
            key: FileId::new(key),
            offset,
            len: 0,
            part: 0,
            tid: 0,
        })
    }

    #[test]
    fn create_complete_head_round_trip() {
        let (mut sim, shard, client) = setup();
        sim.schedule(
            SimTime::ZERO,
            shard,
            obj_req(1, client, ObjVerb::CreateUpload, 7, 0),
        );
        sim.schedule(
            SimTime::from_millis(1),
            shard,
            obj_req(2, client, ObjVerb::CompleteUpload, 7, 4096),
        );
        sim.schedule(
            SimTime::from_millis(2),
            shard,
            obj_req(3, client, ObjVerb::Head, 7, 0),
        );
        sim.run();
        let replies = &sim.entity_ref::<Collector>(client).unwrap().replies;
        assert_eq!(replies.len(), 3);
        assert_eq!(replies[1].1.size, 4096);
        assert_eq!(replies[2].1.size, 4096);
        let s = sim.entity_ref::<MetaShard>(shard).unwrap();
        assert_eq!(s.num_objects(), 1);
        assert_eq!(s.record(FileId::new(7)).unwrap().size, 4096);
    }

    #[test]
    fn delete_removes_and_list_counts() {
        let (mut sim, shard, client) = setup();
        sim.schedule(
            SimTime::ZERO,
            shard,
            obj_req(1, client, ObjVerb::CreateUpload, 1, 0),
        );
        sim.schedule(
            SimTime::from_millis(1),
            shard,
            obj_req(2, client, ObjVerb::CreateUpload, 2, 0),
        );
        sim.schedule(
            SimTime::from_millis(2),
            shard,
            obj_req(3, client, ObjVerb::List, 0, 0),
        );
        sim.schedule(
            SimTime::from_millis(3),
            shard,
            obj_req(4, client, ObjVerb::Delete, 1, 0),
        );
        sim.schedule(
            SimTime::from_millis(4),
            shard,
            obj_req(5, client, ObjVerb::List, 0, 0),
        );
        sim.run();
        let replies = &sim.entity_ref::<Collector>(client).unwrap().replies;
        assert_eq!(replies[2].1.size, 2);
        assert_eq!(replies[4].1.size, 1);
    }

    #[test]
    fn fifo_queue_accumulates_delay() {
        let (mut sim, shard, client) = setup();
        for i in 0..8 {
            sim.schedule(
                SimTime::ZERO,
                shard,
                obj_req(i, client, ObjVerb::CreateUpload, i as u32, 0),
            );
        }
        sim.run();
        let replies = &sim.entity_ref::<Collector>(client).unwrap().replies;
        assert!(replies
            .windows(2)
            .all(|w| w[0].1.queue_delay <= w[1].1.queue_delay));
        assert!(replies.last().unwrap().1.queue_delay >= SimDuration::from_micros(7 * 80));
    }
}
