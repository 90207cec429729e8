//! Network fabric entity.
//!
//! A fabric is a crossbar with per-destination-endpoint egress
//! serialization and an optional aggregate backplane cap. A packet for
//! destination `d` begins transmission when both `d`'s egress port and
//! (if capped) the backplane are free, transmits for `size / bandwidth`,
//! and is delivered one propagation latency after transmission completes.
//!
//! Fan-in congestion — many clients writing to one OSS — therefore
//! queues at the OSS's egress port, which is the dominant effect the
//! paper's storage-side experiments rely on.

use crate::config::FabricConfig;
use crate::msg::{payload_tid, PfsMsg};
use pioeval_des::{Ctx, Entity, Envelope};
use pioeval_types::{ReqMark, SimDuration, SimTime};
use std::collections::HashMap;

/// Running transfer statistics for a fabric.
#[derive(Clone, Copy, Debug, Default)]
pub struct FabricStats {
    /// Packets forwarded.
    pub packets: u64,
    /// Payload bytes forwarded.
    pub bytes: u64,
    /// Total queueing delay experienced by packets (serialization waits).
    pub queue_wait: SimDuration,
}

/// The fabric entity.
pub struct Fabric {
    cfg: FabricConfig,
    /// Egress port free time, per destination entity.
    egress_free: HashMap<u32, SimTime>,
    /// Backplane free time (aggregate cap).
    agg_free: SimTime,
    /// Transfer statistics.
    pub stats: FabricStats,
}

impl Fabric {
    /// A new idle fabric.
    pub fn new(cfg: FabricConfig) -> Self {
        Fabric {
            cfg,
            egress_free: HashMap::new(),
            agg_free: SimTime::ZERO,
            stats: FabricStats::default(),
        }
    }

    /// Serialization time for `size` bytes on one link.
    fn link_time(&self, size: u64) -> SimDuration {
        SimDuration::from_nanos(
            ((size as u128 * 1_000_000_000).div_ceil(self.cfg.link_bw as u128)) as u64,
        )
    }

    /// Serialization time for `size` bytes on the backplane (zero if
    /// uncapped).
    fn agg_time(&self, size: u64) -> SimDuration {
        if self.cfg.agg_bw == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(
            ((size as u128 * 1_000_000_000).div_ceil(self.cfg.agg_bw as u128)) as u64,
        )
    }
}

impl Entity<PfsMsg> for Fabric {
    fn on_event(&mut self, ev: Envelope<PfsMsg>, ctx: &mut Ctx<'_, PfsMsg>) {
        let PfsMsg::Route(packet) = ev.msg else {
            // Fabrics only understand routed packets; anything else is a
            // model bug.
            panic!("fabric received non-Route message: {:?}", ev.msg);
        };
        let now = ctx.now();
        let link_time = self.link_time(packet.size);
        let agg_time = self.agg_time(packet.size);
        let egress = self
            .egress_free
            .entry(packet.dst.0)
            .or_insert(SimTime::ZERO);

        // Backplane first (if capped), then the destination's egress port.
        let agg_start = now.max(self.agg_free);
        let agg_end = agg_start + agg_time;
        let tx_start = now.max(*egress);
        let tx_end = tx_start.max(agg_end) + link_time;
        *egress = tx_end;
        self.agg_free = agg_end;

        self.stats.packets += 1;
        self.stats.bytes += packet.size;
        self.stats.queue_wait += tx_start.since(now);

        let delivery = tx_end + self.cfg.latency;
        if ctx.tracing() {
            ctx.trace(
                payload_tid(&packet.payload),
                ReqMark::Hop {
                    arrive: now,
                    depart: delivery,
                },
            );
        }
        ctx.send(packet.dst, delivery.since(now), *packet.payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::NetPacket;
    use pioeval_des::{EntityId, SimConfig, Simulation};

    /// Records delivery times of everything it receives.
    struct Sink {
        deliveries: Vec<SimTime>,
    }
    impl Entity<PfsMsg> for Sink {
        fn on_event(&mut self, _ev: Envelope<PfsMsg>, ctx: &mut Ctx<'_, PfsMsg>) {
            self.deliveries.push(ctx.now());
        }
    }

    fn setup(cfg: FabricConfig) -> (Simulation<PfsMsg>, EntityId, EntityId, EntityId) {
        let mut sim = Simulation::new(SimConfig::default());
        let fabric = sim.add_entity("fabric", Box::new(Fabric::new(cfg)));
        let a = sim.add_entity("a", Box::new(Sink { deliveries: vec![] }));
        let b = sim.add_entity("b", Box::new(Sink { deliveries: vec![] }));
        (sim, fabric, a, b)
    }

    fn packet(dst: EntityId, size: u64) -> PfsMsg {
        PfsMsg::Route(NetPacket {
            dst,
            size,
            payload: Box::new(PfsMsg::Start),
        })
    }

    #[test]
    fn single_packet_pays_latency_plus_serialization() {
        let cfg = FabricConfig {
            latency: SimDuration::from_micros(5),
            link_bw: 1_000_000_000, // 1 GB/s
            agg_bw: 0,
        };
        let (mut sim, fabric, a, _) = setup(cfg);
        sim.schedule(SimTime::ZERO, fabric, packet(a, 1_000_000)); // 1 MB → 1 ms
        sim.run();
        let sink = sim.entity_ref::<Sink>(a).unwrap();
        assert_eq!(
            sink.deliveries,
            vec![SimTime::from_millis(1) + SimDuration::from_micros(5)]
        );
    }

    #[test]
    fn same_destination_serializes() {
        let cfg = FabricConfig {
            latency: SimDuration::from_micros(1),
            link_bw: 1_000_000_000,
            agg_bw: 0,
        };
        let (mut sim, fabric, a, _) = setup(cfg);
        sim.schedule(SimTime::ZERO, fabric, packet(a, 1_000_000));
        sim.schedule(SimTime::ZERO, fabric, packet(a, 1_000_000));
        sim.run();
        let d = &sim.entity_ref::<Sink>(a).unwrap().deliveries;
        assert_eq!(d.len(), 2);
        // Second delivery one full serialization later.
        assert_eq!(d[1].since(d[0]), SimDuration::from_millis(1));
    }

    #[test]
    fn different_destinations_transfer_in_parallel() {
        let cfg = FabricConfig {
            latency: SimDuration::from_micros(1),
            link_bw: 1_000_000_000,
            agg_bw: 0,
        };
        let (mut sim, fabric, a, b) = setup(cfg);
        sim.schedule(SimTime::ZERO, fabric, packet(a, 1_000_000));
        sim.schedule(SimTime::ZERO, fabric, packet(b, 1_000_000));
        sim.run();
        let da = sim.entity_ref::<Sink>(a).unwrap().deliveries[0];
        let db = sim.entity_ref::<Sink>(b).unwrap().deliveries[0];
        assert_eq!(da, db); // no shared bottleneck
    }

    #[test]
    fn aggregate_cap_throttles_parallel_transfers() {
        let cfg = FabricConfig {
            latency: SimDuration::from_micros(1),
            link_bw: 1_000_000_000,
            agg_bw: 1_000_000_000, // backplane == one link
        };
        let (mut sim, fabric, a, b) = setup(cfg);
        sim.schedule(SimTime::ZERO, fabric, packet(a, 1_000_000));
        sim.schedule(SimTime::ZERO, fabric, packet(b, 1_000_000));
        sim.run();
        let da = sim.entity_ref::<Sink>(a).unwrap().deliveries[0];
        let db = sim.entity_ref::<Sink>(b).unwrap().deliveries[0];
        // One of the two is pushed out by backplane contention.
        assert_ne!(da, db);
        assert!(da.max(db) >= SimTime::from_millis(2));
    }

    #[test]
    fn stats_accumulate() {
        let cfg = FabricConfig::infiniband();
        let (mut sim, fabric, a, _) = setup(cfg);
        sim.schedule(SimTime::ZERO, fabric, packet(a, 1000));
        sim.schedule(SimTime::ZERO, fabric, packet(a, 2000));
        sim.run();
        let f = sim.entity_ref::<Fabric>(fabric).unwrap();
        assert_eq!(f.stats.packets, 2);
        assert_eq!(f.stats.bytes, 3000);
    }
}
