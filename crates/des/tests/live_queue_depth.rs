//! `des.live.queue_depth` keeps its meaning under the in-place hold.
//!
//! The gauge lives on the process-wide registry, so this check has its
//! own test binary: no other run can record into the gauge meanwhile.

use pioeval_des::{Ctx, Entity, Envelope, SimConfig, Simulation};
use pioeval_obs::names::{DES_LIVE_EVENTS, DES_LIVE_QUEUE};
use pioeval_types::{SimDuration, SimTime};

/// Re-sends each token to itself until it has made `hops` hops.
struct Relay {
    hops: u64,
}

impl Entity<u64> for Relay {
    fn on_event(&mut self, ev: Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
        if ev.msg + 1 < self.hops {
            ctx.send_self(SimDuration::from_micros(1), ev.msg + 1);
        }
    }
}

/// A constant population of `TOKENS` events, each handler replacing its
/// own event, until every token dies in the last round. Mid-run samples
/// (every 8192 events) must read `TOKENS - 1`: the pending set without
/// the event being handled, as between a pop and the push of its
/// successor. The end-of-run sample reads the drained queue, 0.
#[test]
fn mid_run_queue_depth_excludes_the_held_event() {
    const TOKENS: u64 = 64;
    const HOPS: u64 = 1000;
    let mut sim = Simulation::new(SimConfig::default());
    for i in 0..TOKENS {
        let id = sim.add_entity(format!("relay{i}"), Box::new(Relay { hops: HOPS }));
        sim.schedule(SimTime::ZERO, id, 0);
    }
    let res = sim.run();
    assert_eq!(res.events, TOKENS * HOPS);
    assert_eq!(res.max_queue, TOKENS as usize);
    let obs = pioeval_obs::global();
    assert_eq!(obs.counter(DES_LIVE_EVENTS).get(), TOKENS * HOPS);
    let depth = obs.gauge(DES_LIVE_QUEUE).get();
    assert_eq!((depth.max, depth.last), (TOKENS - 1, 0));
}
