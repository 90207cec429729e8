//! Object storage server (OSS).
//!
//! Hosts a contiguous range of OSTs. Each OST is an independent FIFO
//! device ([`crate::device::DeviceModel`]); requests to different OSTs on
//! the same OSS proceed in parallel, requests to the same OST queue.

use crate::config::DeviceConfig;
use crate::device::DeviceModel;
use crate::msg::{route, IoReply, PfsMsg};
use crate::stats::ServerStats;
use pioeval_des::{Ctx, Entity, Envelope};
use pioeval_types::{OstId, ReqMark, ServerKind, SimDuration};
use std::collections::HashMap;

/// One pending device access awaiting its completion event.
struct Pending {
    req: crate::msg::IoRequest,
    queue_delay: SimDuration,
}

/// The object storage server entity.
pub struct Oss {
    /// Global id of the first OST hosted here.
    first_ost: u32,
    /// Backing devices, indexed by local OST index.
    pub osts: Vec<DeviceModel>,
    pending: HashMap<u64, Pending>,
    next_token: u64,
    /// Aggregate service statistics (one timeline lane per OST).
    pub stats: ServerStats,
}

impl Oss {
    /// A new OSS hosting `count` OSTs starting at global id `first_ost`,
    /// all with the same device model.
    pub fn new(first_ost: u32, count: usize, device: DeviceConfig, stats_bin: SimDuration) -> Self {
        Self::with_devices(first_ost, vec![device; count], stats_bin)
    }

    /// A new OSS with explicit per-OST device models (degraded-device
    /// injection).
    pub fn with_devices(
        first_ost: u32,
        devices: Vec<DeviceConfig>,
        stats_bin: SimDuration,
    ) -> Self {
        let count = devices.len();
        Oss {
            first_ost,
            osts: devices.into_iter().map(DeviceModel::new).collect(),
            pending: HashMap::new(),
            next_token: 0,
            stats: ServerStats::new(count, stats_bin),
        }
    }

    /// Does this OSS host `ost`?
    pub fn hosts(&self, ost: OstId) -> bool {
        (ost.0 as usize) >= self.first_ost as usize
            && (ost.0 as usize) < self.first_ost as usize + self.osts.len()
    }

    fn local_index(&self, ost: OstId) -> usize {
        assert!(self.hosts(ost), "OSS does not host {ost}");
        (ost.0 - self.first_ost) as usize
    }

    /// Refresh the aggregate counters from the per-device models.
    pub fn finalize_stats(&mut self) {
        self.stats.bytes_read = self.osts.iter().map(|d| d.bytes_read).sum();
        self.stats.bytes_written = self.osts.iter().map(|d| d.bytes_written).sum();
        self.stats.seeks = self.osts.iter().map(|d| d.seeks).sum();
        self.stats.busy = self
            .osts
            .iter()
            .fold(SimDuration::ZERO, |acc, d| acc + d.busy);
        self.stats.lane_busy = self.osts.iter().map(|d| d.busy).collect();
    }
}

impl Entity<PfsMsg> for Oss {
    fn on_event(&mut self, ev: Envelope<PfsMsg>, ctx: &mut Ctx<'_, PfsMsg>) {
        match ev.msg {
            PfsMsg::Io(req) => {
                let now = ctx.now();
                let local = self.local_index(req.ost);
                let device = &mut self.osts[local];
                let queue_delay = device.queue_delay(now);
                let completion = device.access(now, req.kind, req.obj_offset, req.len);
                self.stats.requests += 1;
                self.stats.queue_wait += queue_delay;
                self.stats.timelines[local].record(completion, req.kind, req.len);
                ctx.trace(
                    req.tid,
                    ReqMark::Server {
                        kind: ServerKind::OssDevice,
                        arrive: now,
                        queue: queue_delay,
                        depart: completion,
                    },
                );

                let token = self.next_token;
                self.next_token += 1;
                self.pending.insert(token, Pending { req, queue_delay });
                ctx.send_self(completion.since(now), PfsMsg::DeviceDone { token });
            }
            PfsMsg::DeviceDone { token } => {
                let Pending { req, queue_delay } = self
                    .pending
                    .remove(&token)
                    .expect("completion for unknown device token");
                let reply = IoReply {
                    id: req.id,
                    kind: req.kind,
                    file: req.file,
                    ost: req.ost,
                    len: req.len,
                    from_burst_buffer: false,
                    queue_delay,
                    tid: req.tid,
                };
                let size = reply.wire_size();
                let (first_hop, msg) =
                    route(&req.reply_via, req.reply_to, size, PfsMsg::IoDone(reply));
                ctx.send(first_hop, ctx.lookahead(), msg);
            }
            other => panic!("OSS received unexpected message: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::IoRequest;
    use pioeval_des::{EntityId, SimConfig, Simulation};
    use pioeval_types::{FileId, IoKind, SimTime};

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

    fn setup(osts: usize) -> (Simulation<PfsMsg>, EntityId, EntityId) {
        let mut sim = Simulation::new(SimConfig::default());
        let oss = sim.add_entity(
            "oss",
            Box::new(Oss::new(
                0,
                osts,
                DeviceConfig::hdd(),
                SimDuration::from_secs(1),
            )),
        );
        let client = sim.add_entity("client", Box::new(Collector { replies: vec![] }));
        (sim, oss, client)
    }

    fn io_req(id: u64, client: EntityId, ost: u32, offset: u64, len: u64) -> PfsMsg {
        PfsMsg::Io(IoRequest {
            id,
            reply_to: client,
            reply_via: vec![],
            kind: IoKind::Write,
            file: FileId::new(0),
            ost: OstId::new(ost),
            obj_offset: offset,
            len,
            tid: 0,
        })
    }

    #[test]
    fn write_completes_and_replies() {
        let (mut sim, oss, client) = setup(2);
        // 140 MB at 140 MB/s ≈ 1 s.
        sim.schedule(SimTime::ZERO, oss, io_req(1, client, 0, 0, 140_000_000));
        sim.run();
        let replies = &sim.entity_ref::<Collector>(client).unwrap().replies;
        assert_eq!(replies.len(), 1);
        assert!(replies[0].0 >= SimTime::from_secs(1));
        assert_eq!(replies[0].1.id, 1);
        assert_eq!(replies[0].1.len, 140_000_000);
        assert!(!replies[0].1.from_burst_buffer);
    }

    #[test]
    fn same_ost_serializes_different_osts_parallelize() {
        let (mut sim, oss, client) = setup(2);
        sim.schedule(SimTime::ZERO, oss, io_req(1, client, 0, 0, 14_000_000));
        sim.schedule(
            SimTime::ZERO,
            oss,
            io_req(2, client, 0, 14_000_000, 14_000_000),
        );
        sim.schedule(SimTime::ZERO, oss, io_req(3, client, 1, 0, 14_000_000));
        sim.run();
        let replies = &sim.entity_ref::<Collector>(client).unwrap().replies;
        assert_eq!(replies.len(), 3);
        let t = |id: u64| replies.iter().find(|(_, r)| r.id == id).unwrap().0;
        // Request 3 (other OST) finishes with request 1, well before 2.
        assert_eq!(t(1), t(3));
        assert!(t(2) > t(1));
        // Request 2 reports the queueing delay behind request 1.
        let r2 = &replies.iter().find(|(_, r)| r.id == 2).unwrap().1;
        assert!(r2.queue_delay >= SimDuration::from_millis(90));
    }

    #[test]
    fn stats_finalize_aggregates_devices() {
        let (mut sim, oss, client) = setup(2);
        sim.schedule(SimTime::ZERO, oss, io_req(1, client, 0, 0, 1000));
        sim.schedule(SimTime::ZERO, oss, io_req(2, client, 1, 0, 2000));
        sim.run();
        let server = sim.entity_mut::<Oss>(oss).unwrap();
        server.finalize_stats();
        assert_eq!(server.stats.bytes_written, 3000);
        assert_eq!(server.stats.requests, 2);
        assert!(server.hosts(OstId::new(1)));
        assert!(!server.hosts(OstId::new(2)));
    }
}
