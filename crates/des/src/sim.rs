//! The simulation state and the sequential executor.

use crate::event::{EntityId, Envelope, EventKey, EXTERNAL};
use crate::queue::EventQueue;
use pioeval_types::{ReqEvent, ReqMark, ReqRecorder, SimDuration, SimTime, Tid};
use std::any::Any;

/// A logical process: owns private state and reacts to timestamped messages.
///
/// `Any` is a supertrait so callers can downcast entities back to their
/// concrete type after a run to read results out
/// (see [`Simulation::entity_ref`]).
pub trait Entity<M>: Send + Any {
    /// Handle one delivered event. Use `ctx` to read the clock and send
    /// further messages.
    fn on_event(&mut self, ev: Envelope<M>, ctx: &mut Ctx<'_, M>);
}

/// Handler-side view of the engine: clock, identity, message sending,
/// and request-trace recording.
pub struct Ctx<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) me: EntityId,
    pub(crate) lookahead: SimDuration,
    pub(crate) seq: &'a mut u64,
    pub(crate) emitted: &'a mut Vec<Envelope<M>>,
    pub(crate) halt: &'a mut bool,
    /// The handling entity's request-trace recorder; `None` while the
    /// simulation's trace switch is off.
    pub(crate) recorder: Option<&'a mut ReqRecorder>,
}

impl<M> Ctx<'_, M> {
    /// Current simulated time (the timestamp of the event being handled).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The identity of the handling entity.
    pub fn me(&self) -> EntityId {
        self.me
    }

    /// The engine's lookahead: the minimum legal delay for cross-entity
    /// messages.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Send `msg` to `dst`, arriving `delay` from now.
    ///
    /// # Panics
    ///
    /// Panics if `dst != me` and `delay` is below the engine lookahead.
    /// This is a programming error in the model: conservative parallel
    /// execution is only correct when every cross-entity message respects
    /// the lookahead, and we enforce it identically in the sequential
    /// executor so models cannot silently depend on zero-delay messages.
    pub fn send(&mut self, dst: EntityId, delay: SimDuration, msg: M) {
        if dst != self.me {
            assert!(
                delay >= self.lookahead,
                "cross-entity send {} -> {} with delay {} below lookahead {}",
                self.me,
                dst,
                delay,
                self.lookahead
            );
        }
        *self.seq += 1;
        self.emitted.push(Envelope {
            key: EventKey {
                time: self.now + delay,
                dst,
                src: self.me,
                seq: *self.seq,
            },
            msg,
        });
    }

    /// Send `msg` to the handling entity itself, arriving `delay` from now.
    /// Self-messages may use any delay, including zero.
    pub fn send_self(&mut self, delay: SimDuration, msg: M) {
        let me = self.me;
        self.send(me, delay, msg);
    }

    /// Request that the simulation stop. The sequential executor stops
    /// before the next event; the parallel executor stops at the end of
    /// the current synchronization window.
    pub fn halt(&mut self) {
        *self.halt = true;
    }

    /// Whether request tracing is on ([`Simulation::set_request_trace`]).
    /// Handlers check it before doing work only a mark needs.
    pub fn tracing(&self) -> bool {
        self.recorder.is_some()
    }

    /// Record `mark` for request `tid` under the handling entity, with
    /// that entity's own record sequence number. Returns at once when
    /// tracing is off; marks of internal traffic (`tid == 0`) are dropped.
    pub fn trace(&mut self, tid: Tid, mark: ReqMark) {
        if let Some(rec) = self.recorder.as_deref_mut() {
            rec.record(tid, self.me.0, mark);
        }
    }
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Minimum delay for cross-entity messages; also the conservative
    /// parallel synchronization window width.
    pub lookahead: SimDuration,
    /// Stop processing events with timestamps beyond this limit.
    pub time_limit: Option<SimTime>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            lookahead: SimDuration::from_micros(1),
            time_limit: None,
        }
    }
}

/// Summary of a completed run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Timestamp of the last processed event.
    pub end_time: SimTime,
    /// Number of events processed.
    pub events: u64,
    /// High-water mark of the pending-event set.
    ///
    /// The sequential executor samples once per event, after the
    /// handled event's emits are queued: the pending set without the
    /// handled event plus what it emitted (its first emit reuses the
    /// handled event's heap slot, see [`EventQueue::hold`]). The parallel
    /// executor samples the *global* pending count at synchronization
    /// window boundaries (all workers quiesced), so its value is a true
    /// concurrent occupancy — never the sum of independent per-worker
    /// peaks — and is at most the sequential value. For workloads whose
    /// population is constant between boundaries (PHOLD, token rings)
    /// the two agree exactly; `parallel::tests` pins this.
    pub max_queue: usize,
    /// Whether the run ended via [`Ctx::halt`].
    pub halted: bool,
}

/// A discrete-event simulation: entities plus pending events.
pub struct Simulation<M> {
    cfg: SimConfig,
    pub(crate) entities: Vec<Option<Box<dyn Entity<M>>>>,
    names: Vec<String>,
    pub(crate) queue: EventQueue<M>,
    /// Per-entity send sequence counters (index = entity id).
    pub(crate) seqs: Vec<u64>,
    /// Per-entity request-trace recorders (index = entity id).
    pub(crate) recs: Vec<ReqRecorder>,
    /// The request-trace switch: handlers see their recorder only while
    /// it is on.
    pub(crate) tracing: bool,
    /// Sequence counter for externally injected events.
    ext_seq: u64,
    now: SimTime,
}

impl<M: 'static> Default for Simulation<M> {
    fn default() -> Self {
        Self::new(SimConfig::default())
    }
}

impl<M: 'static> Simulation<M> {
    /// A new simulation with the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Simulation {
            cfg,
            entities: Vec::new(),
            names: Vec::new(),
            queue: EventQueue::new(),
            seqs: Vec::new(),
            recs: Vec::new(),
            tracing: false,
            ext_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Engine configuration.
    pub fn config(&self) -> SimConfig {
        self.cfg
    }

    /// The configured lookahead.
    pub fn lookahead(&self) -> SimDuration {
        self.cfg.lookahead
    }

    /// Register an entity; returns its id.
    pub fn add_entity(&mut self, name: impl Into<String>, entity: Box<dyn Entity<M>>) -> EntityId {
        let id = EntityId(self.entities.len() as u32);
        self.entities.push(Some(entity));
        self.names.push(name.into());
        self.seqs.push(0);
        self.recs.push(ReqRecorder::default());
        id
    }

    /// Number of registered entities.
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// The registered name of an entity.
    pub fn entity_name(&self, id: EntityId) -> &str {
        &self.names[id.index()]
    }

    /// Inject an event from outside the simulation (before or between runs).
    pub fn schedule(&mut self, time: SimTime, dst: EntityId, msg: M) {
        assert!(
            dst.index() < self.entities.len(),
            "schedule to unknown entity {dst}"
        );
        self.ext_seq += 1;
        self.queue.push(Envelope {
            key: EventKey {
                time,
                dst,
                src: EXTERNAL,
                seq: self.ext_seq,
            },
            msg,
        });
    }

    /// Current simulated time (timestamp of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Borrow an entity, downcast to its concrete type.
    ///
    /// Returns `None` if the id is out of range or the type does not match.
    pub fn entity_ref<T: Entity<M>>(&self, id: EntityId) -> Option<&T> {
        let boxed = self.entities.get(id.index())?.as_ref()?;
        (boxed.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    /// Mutably borrow an entity, downcast to its concrete type.
    pub fn entity_mut<T: Entity<M>>(&mut self, id: EntityId) -> Option<&mut T> {
        let boxed = self.entities.get_mut(id.index())?.as_mut()?;
        (boxed.as_mut() as &mut dyn Any).downcast_mut::<T>()
    }

    /// Turn request tracing on or off for every entity. While it is on,
    /// [`Ctx::trace`] appends to the handling entity's recorder; while
    /// it is off, nothing is recorded. Marks already recorded stay until
    /// [`Simulation::drain_request_events`].
    pub fn set_request_trace(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Take every recorded request-trace event: each entity's marks in
    /// recording order, entities in ascending id. Every recorder is
    /// appended only by its own entity, so this sequence is identical
    /// under every executor and thread count. The recorders are left
    /// empty (their sequence numbers keep counting).
    ///
    /// The output grows as it goes instead of reserving the summed
    /// length up front: a large `Vec` grows by `realloc`, which glibc
    /// serves by remapping pages, and a one-shot exact reservation made
    /// the process's peak RSS bimodal on the traced benchmark workload.
    pub fn drain_request_events(&mut self) -> Vec<ReqEvent> {
        let mut out = Vec::new();
        for rec in &mut self.recs {
            out.extend(rec.drain());
        }
        out
    }

    /// Change the time limit between runs.
    ///
    /// Useful for warmup profiling: run a bounded prefix (for example
    /// with [`Simulation::run_counted`]), then lift the limit and resume —
    /// pending events past the old limit stay queued and are picked up
    /// by the next run.
    pub fn set_time_limit(&mut self, limit: Option<SimTime>) {
        self.cfg.time_limit = limit;
    }

    /// Run to completion with the sequential executor.
    ///
    /// Processes events in global [`EventKey`] order until the queue is
    /// empty, the time limit is exceeded, or an entity halts the run.
    /// Each event is handled while it still holds the top of the queue,
    /// and its first emit takes that slot with one sift-down
    /// ([`EventQueue::hold`]) instead of a pop and a push.
    ///
    /// Telemetry: the run is recorded as a `des.run.seq` span on the
    /// global [`pioeval_obs`] registry, and the event count and queue
    /// high-water mark are published once at the end. Live progress
    /// (`des.live.events`, `des.live.queue_depth`) flushes in 8192-event
    /// chunks from pre-fetched handles — one local increment per event,
    /// no registry access — so the live sampler sees mid-run motion
    /// without the hot loop ever taking a lock.
    pub fn run(&mut self) -> RunResult {
        self.run_with(|_| {})
    }

    /// Run to completion with the sequential executor, additionally
    /// counting how many events each entity handled.
    ///
    /// The per-entity counts show where a run's events land, for
    /// example which layer of a storage model is hot.
    pub fn run_counted(&mut self) -> (RunResult, Vec<u64>) {
        let mut counts = vec![0u64; self.entities.len()];
        let res = self.run_with(|dst| counts[dst.index()] += 1);
        (res, counts)
    }

    /// The sequential event loop with a per-event hook (monomorphized, so
    /// [`Simulation::run`]'s empty hook costs nothing).
    fn run_with<F: FnMut(EntityId)>(&mut self, mut hook: F) -> RunResult {
        let _obs_span = pioeval_obs::span(pioeval_obs::names::SPAN_DES_RUN_SEQ, "des");
        // Live-progress instruments, pre-fetched so the loop below never
        // touches a registry map. Counts are flushed in chunks (and once
        // at the end), so `des.live.events` always totals `events` while
        // the per-event cost stays at one local increment + compare.
        const LIVE_CHUNK: u64 = 8192;
        let live_events = pioeval_obs::global().counter(pioeval_obs::names::DES_LIVE_EVENTS);
        let live_queue = pioeval_obs::global().gauge(pioeval_obs::names::DES_LIVE_QUEUE);
        let mut live_pending = 0u64;
        let mut events = 0u64;
        let mut halted = false;
        while let Some(key) = self.queue.peek_key() {
            if halted {
                break;
            }
            if let Some(limit) = self.cfg.time_limit {
                if key.time > limit {
                    break;
                }
            }
            self.now = key.time;
            let dst = key.dst;
            let entity = self.entities[dst.index()]
                .as_mut()
                .expect("entity checked out during sequential run");
            let seq = &mut self.seqs[dst.index()];
            let recorder = if self.tracing {
                Some(&mut self.recs[dst.index()])
            } else {
                None
            };
            let (now, lookahead, halt) = (self.now, self.cfg.lookahead, &mut halted);
            // The handler runs while its event holds the top of the
            // queue; its first emit then takes that slot in place.
            let settled = self
                .queue
                .hold(|ev, emitted| {
                    let mut ctx = Ctx {
                        now,
                        me: dst,
                        lookahead,
                        seq,
                        emitted,
                        halt,
                        recorder,
                    };
                    entity.on_event(ev, &mut ctx);
                })
                .expect("peeked event vanished");
            events += 1;
            live_pending += 1;
            if live_pending == LIVE_CHUNK {
                live_events.add(live_pending);
                live_pending = 0;
                // Depth without the handled event or its emits, as
                // between a pop and the push of what it emitted.
                live_queue.record((self.queue.len() - settled) as u64);
            }
            hook(dst);
        }
        if live_pending > 0 {
            live_events.add(live_pending);
        }
        live_queue.record(self.queue.len() as u64);
        let obs = pioeval_obs::global();
        obs.counter(pioeval_obs::names::DES_EVENTS).add(events);
        obs.counter(pioeval_obs::names::DES_RUNS_SEQ).inc();
        obs.gauge(pioeval_obs::names::DES_QUEUE_HWM)
            .record(self.queue.max_len as u64);
        RunResult {
            end_time: self.now,
            events,
            max_queue: self.queue.max_len,
            halted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ping-pong pair: counts volleys until a configured limit.
    struct Player {
        peer: Option<EntityId>,
        hits: u64,
        max_hits: u64,
    }

    impl Entity<u32> for Player {
        fn on_event(&mut self, ev: Envelope<u32>, ctx: &mut Ctx<'_, u32>) {
            self.hits += 1;
            if self.hits >= self.max_hits {
                ctx.halt();
                return;
            }
            if let Some(peer) = self.peer {
                ctx.send(peer, SimDuration::from_micros(10), ev.msg + 1);
            }
        }
    }

    fn ping_pong(max_hits: u64) -> (Simulation<u32>, EntityId, EntityId) {
        let mut sim = Simulation::new(SimConfig::default());
        let a = sim.add_entity(
            "a",
            Box::new(Player {
                peer: None,
                hits: 0,
                max_hits,
            }),
        );
        let b = sim.add_entity(
            "b",
            Box::new(Player {
                peer: Some(a),
                hits: 0,
                max_hits,
            }),
        );
        sim.entity_mut::<Player>(a).unwrap().peer = Some(b);
        (sim, a, b)
    }

    #[test]
    fn ping_pong_runs_and_halts() {
        let (mut sim, a, b) = ping_pong(10);
        sim.schedule(SimTime::ZERO, a, 0);
        let res = sim.run();
        assert!(res.halted);
        // Each player counts its own hits; the run halts when one of them
        // (player a, who started) reaches 10 — on overall volley 19.
        let ha = sim.entity_ref::<Player>(a).unwrap().hits;
        let hb = sim.entity_ref::<Player>(b).unwrap().hits;
        assert_eq!((ha, hb), (10, 9));
        assert_eq!(res.end_time, SimTime::from_micros(180));
        assert_eq!(res.events, 19);
    }

    #[test]
    fn run_counted_attributes_events_to_entities() {
        let (mut sim, a, b) = ping_pong(10);
        sim.schedule(SimTime::ZERO, a, 0);
        let (res, counts) = sim.run_counted();
        assert_eq!(res.events, 19);
        assert_eq!(counts[a.index()], 10);
        assert_eq!(counts[b.index()], 9);
        // Counted and plain runs report identical results.
        let (mut sim2, a2, _) = ping_pong(10);
        sim2.schedule(SimTime::ZERO, a2, 0);
        assert_eq!(sim2.run(), res);
    }

    #[test]
    fn time_limit_stops_run() {
        let (mut sim, a, _) = ping_pong(u64::MAX);
        sim.schedule(SimTime::ZERO, a, 0);
        let mut cfg = sim.config();
        cfg.time_limit = Some(SimTime::from_micros(55));
        let mut sim2 = Simulation::new(cfg);
        // Rebuild with the limit (config is fixed at construction).
        let a2 = sim2.add_entity(
            "a",
            Box::new(Player {
                peer: None,
                hits: 0,
                max_hits: u64::MAX,
            }),
        );
        let b2 = sim2.add_entity(
            "b",
            Box::new(Player {
                peer: Some(a2),
                hits: 0,
                max_hits: u64::MAX,
            }),
        );
        sim2.entity_mut::<Player>(a2).unwrap().peer = Some(b2);
        sim2.schedule(SimTime::ZERO, a2, 0);
        let res = sim2.run();
        assert!(!res.halted);
        // Events at t=0,10,20,30,40,50 processed; t=60 exceeds the limit.
        assert_eq!(res.events, 6);
        assert_eq!(res.end_time, SimTime::from_micros(50));
    }

    #[test]
    #[should_panic(expected = "below lookahead")]
    fn cross_entity_send_below_lookahead_panics() {
        struct Bad {
            other: EntityId,
        }
        impl Entity<u32> for Bad {
            fn on_event(&mut self, _ev: Envelope<u32>, ctx: &mut Ctx<'_, u32>) {
                ctx.send(self.other, SimDuration::ZERO, 0);
            }
        }
        let mut sim: Simulation<u32> = Simulation::new(SimConfig::default());
        let a = sim.add_entity("a", Box::new(Bad { other: EntityId(1) }));
        let _b = sim.add_entity("b", Box::new(Bad { other: EntityId(0) }));
        sim.schedule(SimTime::ZERO, a, 0);
        sim.run();
    }

    #[test]
    fn self_sends_may_use_zero_delay() {
        struct Counter {
            n: u64,
        }
        impl Entity<u32> for Counter {
            fn on_event(&mut self, _ev: Envelope<u32>, ctx: &mut Ctx<'_, u32>) {
                self.n += 1;
                if self.n < 5 {
                    ctx.send_self(SimDuration::ZERO, 0);
                }
            }
        }
        let mut sim: Simulation<u32> = Simulation::new(SimConfig::default());
        let a = sim.add_entity("c", Box::new(Counter { n: 0 }));
        sim.schedule(SimTime::ZERO, a, 0);
        let res = sim.run();
        assert_eq!(res.events, 5);
        assert_eq!(res.end_time, SimTime::ZERO);
        assert_eq!(sim.entity_ref::<Counter>(a).unwrap().n, 5);
    }

    /// Traces every event it handles (as internal `tid 0` traffic when
    /// the message is a multiple of five) and forwards until `left`
    /// runs out.
    struct Tracer {
        peer: EntityId,
        left: u32,
    }

    impl Entity<u32> for Tracer {
        fn on_event(&mut self, ev: Envelope<u32>, ctx: &mut Ctx<'_, u32>) {
            let tid = if ev.msg.is_multiple_of(5) {
                0
            } else {
                ev.msg as Tid
            };
            ctx.trace(tid, ReqMark::Done { at: ctx.now() });
            if self.left > 0 {
                self.left -= 1;
                ctx.send(self.peer, SimDuration::from_micros(1), ev.msg + 1);
            }
        }
    }

    /// Three tracers passing one message around a ring, 10 hops each.
    fn tracer_ring() -> Simulation<u32> {
        let mut sim = Simulation::new(SimConfig::default());
        for i in 0..3 {
            let peer = EntityId((i + 1) % 3);
            sim.add_entity(format!("t{i}"), Box::new(Tracer { peer, left: 10 }));
        }
        sim.schedule(SimTime::ZERO, EntityId(0), 1);
        sim
    }

    #[test]
    fn request_trace_off_records_and_allocates_nothing() {
        let mut sim = tracer_ring();
        assert_eq!(sim.run().events, 31);
        assert!(sim.recs.iter().all(|r| r.events.capacity() == 0));
        assert!(sim.drain_request_events().is_empty());
    }

    #[test]
    fn request_trace_drains_in_entity_order_with_per_entity_seqs() {
        let mut sim = tracer_ring();
        sim.set_request_trace(true);
        sim.run();
        let marks = sim.drain_request_events();
        // Message m is handled by entity (m - 1) % 3; of messages
        // 1..=31 the six multiples of five are internal traffic.
        assert_eq!(marks.len(), 25);
        assert!(marks.windows(2).all(|w| w[0].entity <= w[1].entity));
        for entity in 0..3u32 {
            let own: Vec<_> = marks.iter().filter(|e| e.entity == entity).collect();
            let want: Vec<Tid> = (1..=31u64)
                .filter(|m| (m - 1) % 3 == entity as u64 && !m.is_multiple_of(5))
                .collect();
            assert_eq!(own.iter().map(|e| e.tid).collect::<Vec<_>>(), want);
            let seqs: Vec<u32> = own.iter().map(|e| e.seq).collect();
            assert_eq!(seqs, (0..want.len() as u32).collect::<Vec<_>>());
        }
        assert!(sim.recs.iter().all(|r| r.events.is_empty()));
        assert!(sim.drain_request_events().is_empty());
    }

    #[test]
    fn entity_downcast_checks_type() {
        struct A;
        struct B;
        impl Entity<u32> for A {
            fn on_event(&mut self, _: Envelope<u32>, _: &mut Ctx<'_, u32>) {}
        }
        impl Entity<u32> for B {
            fn on_event(&mut self, _: Envelope<u32>, _: &mut Ctx<'_, u32>) {}
        }
        let mut sim: Simulation<u32> = Simulation::default();
        let a = sim.add_entity("a", Box::new(A));
        assert!(sim.entity_ref::<A>(a).is_some());
        assert!(sim.entity_ref::<B>(a).is_none());
        assert_eq!(sim.entity_name(a), "a");
    }
}
