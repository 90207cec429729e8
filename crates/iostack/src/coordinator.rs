//! Job coordinator: barrier arbitration.
//!
//! One coordinator entity per job counts barrier arrivals (tag = barrier
//! sequence number) and, when all ranks have arrived, sends each rank a
//! release message (`RELEASE_TAG | tag`) over the compute fabric.

use crate::plan::RELEASE_TAG;
use pioeval_des::{Ctx, Entity, EntityId, Envelope};
use pioeval_pfs::msg::{route, PfsMsg, HEADER_BYTES};
use std::collections::HashMap;

/// The barrier coordinator entity.
pub struct JobCoordinator {
    compute_fabric: EntityId,
    /// Entity of rank 0; the job's ranks are `first_rank..first_rank + nranks`.
    first_rank: EntityId,
    nranks: u32,
    arrivals: HashMap<u64, u32>,
    /// Barriers completed (post-run inspection).
    pub barriers_released: u64,
    /// Cached handle to the global barrier counter: resolved once at
    /// construction so releases inside the event loop never take the
    /// registry lock.
    obs_barriers: pioeval_obs::Counter,
}

impl JobCoordinator {
    /// A coordinator for a job of `nranks` ranks whose entities are the
    /// contiguous range starting at `first_rank`. A barrier is released
    /// once all `nranks` have arrived, to every rank in the range.
    pub fn new(compute_fabric: EntityId, first_rank: EntityId, nranks: u32) -> Self {
        JobCoordinator {
            compute_fabric,
            first_rank,
            nranks,
            arrivals: HashMap::new(),
            barriers_released: 0,
            obs_barriers: pioeval_obs::global().counter(pioeval_obs::names::IOSTACK_BARRIERS),
        }
    }
}

impl Entity<PfsMsg> for JobCoordinator {
    fn on_event(&mut self, ev: Envelope<PfsMsg>, ctx: &mut Ctx<'_, PfsMsg>) {
        let PfsMsg::App { tag, .. } = ev.msg else {
            panic!("coordinator received unexpected message: {:?}", ev.msg);
        };
        let count = self.arrivals.entry(tag).or_insert(0);
        *count += 1;
        if *count == self.nranks {
            self.arrivals.remove(&tag);
            self.barriers_released += 1;
            self.obs_barriers.inc();
            for i in 0..self.nranks {
                let (hop, msg) = route(
                    &[self.compute_fabric],
                    EntityId(self.first_rank.0 + i),
                    HEADER_BYTES,
                    PfsMsg::App {
                        tag: RELEASE_TAG | tag,
                        bytes: 0,
                    },
                );
                ctx.send(hop, ctx.lookahead(), msg);
            }
        }
    }
}
