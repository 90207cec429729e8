//! Conservative parallel executor (barrier-synchronized, YAWNS-style).
//!
//! Entity `i` runs on worker `i % threads`. Execution proceeds in
//! *windows*: each window processes every pending event with a timestamp
//! strictly below a per-worker horizon derived from the workers'
//! next-event times and the engine lookahead. Because cross-entity
//! messages carry at least the lookahead of delay, no event generated
//! inside a window can be destined for delivery inside that window on
//! another worker — the classical conservative-synchronization safety
//! argument.
//!
//! Two refinements over the textbook algorithm:
//!
//! * **Adaptive horizons**: worker *i* does not stop at the fixed horizon
//!   `T + lookahead` (`T` = global minimum). The earliest event another
//!   worker *j* can deliver to *i* is bounded below by `next_j +
//!   lookahead` (a direct send), and the earliest *reflected* event — *i*
//!   sends to some *j*, which reacts and sends back — by `next_i +
//!   2·lookahead`. So `H_i = min(min_{j≠i}(next_j) + la, next_i + 2·la)`
//!   is a safe horizon, and it fuses many lookahead quanta into one
//!   barrier crossing whenever the other workers' clocks have run ahead.
//!   When all workers' clocks are tied it is exactly the fixed window.
//! * **One barrier per window**: the min-reduction for the next window and
//!   the mailbox hand-off share a generation. Every worker publishes its
//!   next-event lower bound, its pending-count delta, and the minimum
//!   timestamp per outgoing mailbox *before* the barrier, into a
//!   parity-indexed slot; after the barrier everyone reads the same
//!   complete snapshot, so a second "everyone has published" wait is
//!   unnecessary. In-flight mailbox events are covered by the published
//!   per-destination minima, which keeps the bound conservative even
//!   though the destination drains its inbox after the decision point.
//!
//! Within a window each worker drains its local heap in
//! [`crate::event::EventKey`] order; the key depends only on the sending
//! action, so every entity observes its events in exactly the order the
//! sequential executor would deliver them, for any thread count and
//! either backend. `tests` assert this equivalence over the whole
//! configuration matrix.
//!
//! One worker is the sequential executor: [`run_parallel`] then calls
//! [`Simulation::run`]. With more, [`Backend::Auto`] selects on a
//! single-core host a *cooperative* backend that runs the same window
//! protocol on the calling thread with direct mailbox delivery — no
//! barriers, no atomics — analogous to ROSS's serial mode.

use crate::event::Envelope;
use crate::queue::EventQueue;
use crate::sim::{Ctx, Entity, RunResult, Simulation};
use pioeval_types::{
    ExecProfile, PhaseRecorder, ProfPhase, ReqRecorder, SimDuration, SimTime, WorkerProfile,
    NO_LIMITER,
};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Windows per cost epoch of the threaded backend: how often the workers
/// judge whether running threaded still pays (see [`Backend::Threads`]).
const EPOCH_WINDOWS: u64 = 1024;

/// Lock a mailbox. A poisoned lock means a worker panicked mid-hand-off;
/// that panic resurfaces at join, so the data is taken as-is.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How the executor chooses each window's per-worker horizon: always the
/// adaptive bound described in the module docs. The type has one value
/// and exists so that `ParallelConfig { window: WindowPolicy::Adaptive,
/// .. }` literals keep compiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WindowPolicy {
    /// `min(min_{j≠i}(next_j) + la, next_i + 2·la)` per worker.
    #[default]
    Adaptive,
}

/// How entities (LPs) are assigned to workers: always round-robin. The
/// type has one value and exists so that `ParallelConfig { partitioner:
/// Partitioner::RoundRobin, .. }` literals keep compiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Partitioner {
    /// Entity `i` goes to worker `i % threads`.
    #[default]
    RoundRobin,
}

/// Owner worker of each of `entities` ids under round-robin assignment.
fn round_robin(entities: usize, threads: usize) -> Vec<u32> {
    (0..entities).map(|i| (i % threads) as u32).collect()
}

/// Which execution backend carries the window protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Pick per host: [`Backend::Cooperative`] when only one hardware
    /// core is available, [`Backend::Threads`] otherwise. The default.
    #[default]
    Auto,
    /// One OS thread per worker with spin-barrier synchronization.
    ///
    /// The backend judges its own cost once per epoch of 1024 windows.
    /// When the workers' summed compute time over an epoch falls below
    /// the epoch's wall time — together they did less than one thread's
    /// worth of work, a speedup below 1 — every worker leaves the window
    /// loop at the same boundary and the calling thread finishes the run
    /// on the sequential event loop. Sparse models (about one causal
    /// step per window, as on the PFS and object-store models) hand off
    /// early; dense ones (PHOLD) stay threaded. The hand-off is one-way
    /// and results stay bit-identical; the profile reports the
    /// sequential stretch as [`ExecProfile::inline_events`].
    Threads,
    /// All workers multiplexed on the calling thread: same windows, same
    /// partitioning, direct mailbox delivery, zero synchronization cost.
    /// The profitable choice on single-core hosts, and useful for
    /// deterministic debugging of a partitioned run.
    Cooperative,
}

impl Backend {
    fn resolve(self) -> Backend {
        match self {
            Backend::Auto => {
                let cores = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                if cores == 1 {
                    Backend::Cooperative
                } else {
                    Backend::Threads
                }
            }
            other => other,
        }
    }
}

/// Parallel executor configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelConfig {
    /// Number of workers (clamped to `1..=entities`). Zero means 1.
    pub threads: usize,
    /// Horizon policy per window; see [`WindowPolicy`].
    pub window: WindowPolicy,
    /// Entity-to-worker assignment; see [`Partitioner`].
    pub partitioner: Partitioner,
    /// Execution backend; see [`Backend`].
    pub backend: Backend,
}

impl ParallelConfig {
    /// Default knobs with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig {
            threads,
            ..ParallelConfig::default()
        }
    }
}

/// How to execute a simulation: inline sequential, or parallel with a
/// given [`ParallelConfig`]. Carried by callers (CLI, pipeline) that are
/// generic over the executor choice.
#[derive(Clone, Copy, Debug, Default)]
pub enum ExecMode {
    /// [`Simulation::run`] on the calling thread.
    #[default]
    Sequential,
    /// [`run_parallel`] with the embedded configuration.
    Parallel(ParallelConfig),
}

impl ExecMode {
    /// Run `sim` to completion with the selected executor.
    pub fn run<M: Send + 'static>(&self, sim: &mut Simulation<M>) -> RunResult {
        match self {
            ExecMode::Sequential => sim.run(),
            ExecMode::Parallel(cfg) => run_parallel(sim, cfg),
        }
    }

    /// Run `sim` with the selected executor, recording per-worker phase
    /// timelines. The profile is `Some` only for a genuinely parallel
    /// run (parallel mode, more than one effective worker); sequential
    /// execution has no phases to attribute. When a threaded run hands
    /// its tail to the sequential loop, the worker timelines end at the
    /// hand-off and the tail is reported as
    /// [`ExecProfile::inline_events`] / [`ExecProfile::inline_ns`].
    pub fn run_profiled<M: Send + 'static>(
        &self,
        sim: &mut Simulation<M>,
    ) -> (RunResult, Option<ExecProfile>) {
        match self {
            ExecMode::Sequential => (sim.run(), None),
            ExecMode::Parallel(cfg) => run_parallel_profiled(sim, cfg),
        }
    }
}

/// A spin-then-yield generation barrier.
///
/// Synchronization windows are short (often well under a millisecond),
/// so an OS-parking barrier would spend more time in wake-ups than in
/// simulation. Waiters spin briefly (fast path when every thread has its
/// own core), then fall back to `yield_now`. On oversubscribed hosts —
/// more workers than cores — the spin budget is zero: spinning there only
/// steals the quantum from the thread everyone is waiting on.
struct SpinBarrier {
    total: usize,
    spins: u32,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(total: usize, spins: u32) -> Self {
        SpinBarrier {
            total,
            spins,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) == self.total - 1 {
            // Last arrival: reset and release the next generation.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::AcqRel);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                if spins < self.spins {
                    std::hint::spin_loop();
                    spins += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Pending-event store tuned for windowed draining — a lazy queue.
///
/// A global priority queue pays two O(log n) sifts per event. A windowed
/// executor does not need a total order at insertion time: it only ever
/// drains *the current window*. So appends go into an unsorted backlog
/// (`fresh`) as O(1) pushes; each window start makes one linear partition
/// pass over the backlog, sorts just the k events the window will
/// process, and drains them by `Vec::pop` (the window is kept sorted
/// descending, so the next event is always at the tail). Total
/// comparisons stay O(k log k) but with strictly sequential memory
/// traffic and no per-event sift, which is the point: the window fits in
/// cache, the backlog is touched once per window, and the sort runs over
/// a dense slice instead of a pointer-chasing sift path.
///
/// Events that survive two partitions (`fresh` → `stale` → old) are
/// *aged* into a real heap so long-delay tails — think a checkpoint
/// scheduled seconds ahead under a microsecond lookahead — are not
/// rescanned every window.
///
/// `overlay` holds own-chain events emitted *below* the current horizon
/// (possible only inside adaptively widened windows); it is merged with
/// the sorted window during the drain.
struct WindowStore<M> {
    /// Unsorted backlog appended since the last partition.
    fresh: Vec<Envelope<M>>,
    fresh_min: u64,
    /// Backlog that survived one partition.
    stale: Vec<Envelope<M>>,
    stale_min: u64,
    /// Long-delay tail: survived two partitions.
    aged: EventQueue<M>,
    /// Current window, sorted descending by key; next event at the tail.
    near: Vec<Envelope<M>>,
    /// Own-chain events below the current horizon (adaptive widening).
    overlay: EventQueue<M>,
    /// Reusable buffer for the stale → aged hand-off.
    scratch: Vec<Envelope<M>>,
}

impl<M> WindowStore<M> {
    fn new() -> Self {
        WindowStore {
            fresh: Vec::new(),
            fresh_min: u64::MAX,
            stale: Vec::new(),
            stale_min: u64::MAX,
            aged: EventQueue::new(),
            near: Vec::new(),
            overlay: EventQueue::new(),
            scratch: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.near.len() + self.overlay.len() + self.fresh.len() + self.stale.len() + self.aged.len()
    }

    /// Minimum pending timestamp in nanos (`u64::MAX` when empty).
    fn next_nanos(&self) -> u64 {
        let mut t = self.fresh_min.min(self.stale_min);
        if let Some(ev) = self.near.last() {
            t = t.min(ev.key.time.as_nanos());
        }
        if let Some(k) = self.overlay.peek_key() {
            t = t.min(k.time.as_nanos());
        }
        if let Some(n) = self.aged.next_time() {
            t = t.min(n.as_nanos());
        }
        t
    }

    fn push(&mut self, ev: Envelope<M>) {
        self.fresh_min = self.fresh_min.min(ev.key.time.as_nanos());
        self.fresh.push(ev);
    }

    /// Bulk append (mailbox flush); drains `batch`, keeping its capacity.
    fn append(&mut self, batch: &mut Vec<Envelope<M>>) {
        for ev in batch.iter() {
            self.fresh_min = self.fresh_min.min(ev.key.time.as_nanos());
        }
        self.fresh.append(batch);
    }

    /// Open the window `[.., h)`: one partition pass over the backlog,
    /// then sort the window's events. Caller guarantees the previous
    /// window was fully drained (the executor only halts between passes).
    fn begin_window(&mut self, h: u64) {
        debug_assert!(self.near.is_empty() && self.overlay.is_empty());
        while self
            .aged
            .next_time()
            .map(SimTime::as_nanos)
            .is_some_and(|t| t < h)
        {
            self.near
                .push(self.aged.pop().expect("peeked event vanished"));
        }
        // Second-chance survivors move to the heap...
        for ev in self.stale.drain(..) {
            if ev.key.time.as_nanos() < h {
                self.near.push(ev);
            } else {
                self.scratch.push(ev);
            }
        }
        self.aged.push_batch(&mut self.scratch);
        // ...and the fresh backlog gets its first chance.
        self.stale_min = u64::MAX;
        for ev in self.fresh.drain(..) {
            if ev.key.time.as_nanos() < h {
                self.near.push(ev);
            } else {
                self.stale_min = self.stale_min.min(ev.key.time.as_nanos());
                self.stale.push(ev);
            }
        }
        self.fresh_min = u64::MAX;
        self.near
            .sort_unstable_by_key(|ev| std::cmp::Reverse(ev.key));
    }

    /// Next event of the open window, merging the overlay; None when the
    /// window is drained.
    fn pop_window(&mut self) -> Option<Envelope<M>> {
        match (self.near.last(), self.overlay.peek_key()) {
            (Some(ev), Some(k)) if k < ev.key => self.overlay.pop(),
            (Some(_), _) => self.near.pop(),
            (None, Some(_)) => self.overlay.pop(),
            (None, None) => None,
        }
    }

    /// An own-chain event below the current horizon: joins the drain in
    /// key order. Rare (adaptively widened windows only).
    fn push_overlay(&mut self, ev: Envelope<M>) {
        self.overlay.push_untracked(ev);
    }

    /// Remove every pending event, in no particular order.
    fn take_all(&mut self) -> Vec<Envelope<M>> {
        let mut all = std::mem::take(&mut self.near);
        all.extend(self.overlay.take_all());
        all.append(&mut self.fresh);
        all.append(&mut self.stale);
        all.extend(self.aged.take_all());
        self.fresh_min = u64::MAX;
        self.stale_min = u64::MAX;
        all
    }
}

struct Worker<M> {
    /// (global entity index, entity) pairs owned by this worker.
    entities: Vec<(usize, Box<dyn Entity<M>>)>,
    /// Send sequence counters for owned entities, parallel to `entities`.
    seqs: Vec<u64>,
    /// Request-trace recorders for owned entities, parallel to
    /// `entities` while tracing is on and empty while it is off.
    recs: Vec<ReqRecorder>,
    /// Local slot lookup: global entity index → local slot (usize::MAX if
    /// not owned).
    slots: Vec<usize>,
    store: WindowStore<M>,
    processed: u64,
    null_windows: u64,
    busy: Duration,
    end_max: u64,
}

impl<M> Worker<M> {
    fn empty(total_entities: usize) -> Self {
        Worker {
            entities: Vec::new(),
            seqs: Vec::new(),
            recs: Vec::new(),
            slots: vec![usize::MAX; total_entities],
            store: WindowStore::new(),
            processed: 0,
            null_windows: 0,
            busy: Duration::ZERO,
            end_max: 0,
        }
    }
}

/// Whole-run statistics identical across workers (window count, boundary
/// queue occupancy) plus the summed wide-window count.
#[derive(Clone, Copy, Debug, Default)]
struct ExecStats {
    windows: u64,
    wide: u64,
    max_pending: usize,
    halted: bool,
    /// The threaded backend judged itself a loss and stopped at an epoch
    /// boundary; the caller finishes the run sequentially.
    demoted: bool,
}

/// Per-worker horizon for one window (two or more workers). Returns
/// `(horizon, widened)`; events strictly below the horizon are safe to
/// process, and `widened` says the horizon lies past the fixed window
/// `t + la`. `t` is the global minimum next-event time, `la` the
/// effective lookahead in nanos (≥ 1), `my_next`/`others_min` this
/// worker's and the other workers' minimum next-event times (both
/// including in-flight mail).
fn horizon(my_next: u64, others_min: u64, t: u64, la: u64, stop_at: Option<u64>) -> (u64, bool) {
    let direct = others_min.saturating_add(la);
    let reflected = my_next.saturating_add(la.saturating_mul(2));
    let mut h = direct.min(reflected);
    let wide = h > t.saturating_add(la);
    if let Some(limit) = stop_at {
        // Events at exactly `limit` are still processed.
        h = h.min(limit.saturating_add(1));
    }
    (h, wide)
}

/// Move entities, seq counters, trace recorders, and pending events out
/// of `sim` into per-worker state according to `owners`.
fn checkout<M: 'static>(sim: &mut Simulation<M>, owners: &[u32], threads: usize) -> Vec<Worker<M>> {
    let n = sim.num_entities();
    let mut workers: Vec<Worker<M>> = (0..threads).map(|_| Worker::empty(n)).collect();
    for (idx, &owner) in owners.iter().enumerate() {
        let w = &mut workers[owner as usize];
        let entity = sim.entities[idx]
            .take()
            .expect("entity checked out before parallel run");
        w.slots[idx] = w.entities.len();
        w.entities.push((idx, entity));
        w.seqs.push(sim.seqs[idx]);
        if sim.tracing {
            w.recs.push(std::mem::take(&mut sim.recs[idx]));
        }
    }
    for ev in sim.queue.take_all() {
        workers[owners[ev.dst().index()] as usize].store.push(ev);
    }
    workers
}

/// Reinstall entities, seq counters, trace recorders, and any
/// unprocessed events (time limit / halt may leave events pending, same
/// as the sequential path).
/// Returns (events processed, end-time nanos).
fn checkin<M: 'static>(sim: &mut Simulation<M>, workers: &mut [Worker<M>]) -> (u64, u64) {
    let mut events = 0u64;
    let mut end_max = 0u64;
    let mut leftovers: Vec<Envelope<M>> = Vec::new();
    for worker in workers.iter_mut() {
        events += worker.processed;
        end_max = end_max.max(worker.end_max);
        let mut recs = worker.recs.drain(..);
        for ((idx, entity), seq) in worker.entities.drain(..).zip(worker.seqs.drain(..)) {
            sim.entities[idx] = Some(entity);
            sim.seqs[idx] = seq;
            if let Some(rec) = recs.next() {
                sim.recs[idx] = rec;
            }
        }
        leftovers.extend(worker.store.take_all());
    }
    sim.queue.push_batch(&mut leftovers);
    (events, end_max)
}

/// Run the simulation to completion with the conservative parallel
/// executor. Produces the same entity state trajectories as
/// [`Simulation::run`] for every configuration.
///
/// Note: [`Ctx::halt`] takes effect at window granularity here (other
/// workers finish their current window), so halting runs may process
/// more events than the sequential executor would; all events processed
/// are still processed in the same per-entity order.
///
/// On [`Backend::Threads`] (and [`Backend::Auto`] when it resolves to
/// threads) a run whose threads stop paying for themselves is finished
/// on the calling thread by [`Simulation::run`]; the returned
/// [`RunResult`] covers both parts.
pub fn run_parallel<M: Send + 'static>(sim: &mut Simulation<M>, cfg: &ParallelConfig) -> RunResult {
    run_parallel_inner(sim, cfg, false).0
}

/// [`run_parallel`] with the scaling observatory enabled: every worker
/// records a per-window phase timeline (compute / mailbox-drain /
/// barrier / horizon-stall) into a private lock-free [`PhaseRecorder`],
/// merged in worker order at finalize. Returns the run result plus the
/// merged [`ExecProfile`] (`None` when the run degenerates to a single
/// worker and executes sequentially). The unprofiled path is untouched:
/// [`run_parallel`] passes `profile = false` and every mark site is a
/// single `Option` branch.
pub fn run_parallel_profiled<M: Send + 'static>(
    sim: &mut Simulation<M>,
    cfg: &ParallelConfig,
) -> (RunResult, Option<ExecProfile>) {
    run_parallel_inner(sim, cfg, true)
}

fn run_parallel_inner<M: Send + 'static>(
    sim: &mut Simulation<M>,
    cfg: &ParallelConfig,
    profile: bool,
) -> (RunResult, Option<ExecProfile>) {
    let _obs_span = pioeval_obs::span(pioeval_obs::names::SPAN_DES_RUN_PAR, "des");
    let n = sim.num_entities();
    let threads = cfg.threads.max(1).min(n.max(1));
    if threads == 1 {
        // One worker is definitionally the sequential executor: no
        // cross-worker hazard exists, so the horizon is unbounded and
        // the window machinery would only add overhead. Run inline.
        let res = sim.run();
        let obs = pioeval_obs::global();
        obs.counter(pioeval_obs::names::DES_RUNS_PAR).inc();
        obs.counter(pioeval_obs::names::DES_PAR_RUNS_COOP).inc();
        return (res, None);
    }
    let backend = cfg.backend.resolve();
    let lookahead = sim.lookahead();
    let stop_at = sim.config().time_limit.map(SimTime::as_nanos);
    let owners = round_robin(n, threads);
    let mut workers = checkout(sim, &owners, threads);

    let (stats, worker_profiles) = match backend {
        Backend::Cooperative => run_cooperative(lookahead, stop_at, &owners, &mut workers, profile),
        _ => run_threaded(lookahead, stop_at, &owners, &mut workers, profile),
    };
    let (events, end_max) = checkin(sim, &mut workers);

    let obs = pioeval_obs::global();
    obs.counter(pioeval_obs::names::DES_EVENTS).add(events);
    obs.counter(pioeval_obs::names::DES_RUNS_PAR).inc();
    if backend == Backend::Cooperative {
        obs.counter(pioeval_obs::names::DES_PAR_RUNS_COOP).inc();
    }
    obs.gauge(pioeval_obs::names::DES_QUEUE_HWM)
        .record(stats.max_pending as u64);
    obs.counter(pioeval_obs::names::DES_PAR_WINDOWS)
        .add(stats.windows);
    obs.counter(pioeval_obs::names::DES_PAR_WIDE_WINDOWS)
        .add(stats.wide);
    for worker in &workers {
        obs.counter(pioeval_obs::names::DES_PAR_NULL_WINDOWS)
            .add(worker.null_windows);
        obs.histogram(pioeval_obs::names::DES_PAR_THREAD_BUSY_US)
            .observe(worker.busy.as_micros() as u64);
        obs.histogram(pioeval_obs::names::DES_PAR_THREAD_EVENTS)
            .observe(worker.processed);
    }
    // Hand-off: free the workers' pending-event stores and slot tables
    // first, then finish through the same sequential loop the
    // one-worker case uses (it publishes its own events to
    // `des.events_processed`).
    drop(workers);
    let inline = stats.demoted.then(|| {
        let started = Instant::now();
        let res = sim.run();
        obs.counter(pioeval_obs::names::DES_PAR_INLINE_EVENTS)
            .add(res.events);
        (res, started.elapsed().as_nanos() as u64)
    });

    let profile_doc = worker_profiles.map(|ws| ExecProfile {
        threads: threads as u32,
        backend: match backend {
            Backend::Cooperative => "cooperative",
            _ => "threads",
        }
        .to_string(),
        window_policy: "adaptive".to_string(),
        partitioner: "round_robin".to_string(),
        lookahead_ns: lookahead.as_nanos().max(1),
        wall_ns: ws.iter().map(|w| w.span_ns).max().unwrap_or(0),
        windows: stats.windows,
        workers: ws,
        inline_events: inline.map_or(0, |(res, _)| res.events),
        inline_ns: inline.map_or(0, |(_, ns)| ns),
    });

    let mut result = RunResult {
        end_time: SimTime::from_nanos(end_max),
        events,
        max_queue: stats.max_pending,
        halted: stats.halted,
    };
    if let Some((tail, _)) = inline {
        result.events += tail.events;
        if tail.events > 0 {
            result.end_time = tail.end_time;
        }
        result.max_queue = result.max_queue.max(tail.max_queue);
        result.halted = tail.halted;
    }
    (result, profile_doc)
}

/// The peer worker whose published clock actually bounded a window's
/// horizon `h`, or [`NO_LIMITER`] when the worker was limited by its own
/// reflected-send bound or the stop time. `others` / `argmin` are the minimum next-event time among
/// peers and the (lowest) peer holding it.
fn window_limiter(my_next: u64, others: u64, argmin: u32, la: u64, h: u64) -> u32 {
    if others == u64::MAX {
        return NO_LIMITER;
    }
    let direct = others.saturating_add(la);
    // The peer binds when its direct bound is the tighter of the two, and
    // `direct <= h` rules out the stop-time clamp having tightened past it.
    if direct <= my_next.saturating_add(la.saturating_mul(2)) && direct <= h {
        argmin
    } else {
        NO_LIMITER
    }
}

/// Cooperative backend: the window protocol on the calling thread.
///
/// Two de-synchronization tricks beyond the threaded protocol, both
/// enabled by turns running *sequentially*:
///
/// * **Staged emissions.** The window invariant guarantees a cross send
///   is never below its destination's horizon, and an own send is below
///   the sender's horizon only inside an adaptively widened window — so
///   almost every emitted event is a plain append to a flat per-worker
///   staging vector, bulk-heapified by [`EventQueue::push_batch`]'s
///   rebuild path at the next flush point. The hot loop thus pops from
///   a monotonically shrinking (cache-hot) heap and never sifts into a
///   cold one, and the destination check compiles to a predictable
///   almost-never-taken branch instead of a data-dependent coin flip.
/// * **Live horizons.** Every stage is flushed before each turn, so a
///   worker computes its horizon from the *post-run* next-event times
///   of workers that already took their turn this pass. In steady state
///   that doubles the window width the snapshot protocol would allow
///   (the second worker sees the first already advanced by one
///   lookahead), halving flush, decide, and working-set-switch costs.
///   The reflected `next + 2·la` cap still bounds bounce chains: an
///   event of mine processed elsewhere can return no earlier than two
///   lookaheads after I emitted it, and anything a later-turn worker
///   emits is ≥ `min(next_j + la, next_me + 2·la)` ≥ my horizon.
fn run_cooperative<M: 'static>(
    lookahead: SimDuration,
    stop_at: Option<u64>,
    owners: &[u32],
    workers: &mut [Worker<M>],
    profile: bool,
) -> (ExecStats, Option<Vec<WorkerProfile>>) {
    let threads = workers.len();
    let la = lookahead.as_nanos().max(1);
    // Phase recorders, one per (multiplexed) worker. Under cooperative
    // scheduling the gap between a worker's turns is the other workers'
    // compute, so it is attributed as coordination: barrier-wait when
    // the worker then runs, horizon-stall when its turn is null with
    // work pending — the same classification the threaded backend uses.
    let mut recs: Option<Vec<PhaseRecorder>> = profile.then(|| {
        let epoch = pioeval_obs::global().epoch();
        (0..threads)
            .map(|i| PhaseRecorder::start(i as u32, epoch))
            .collect()
    });
    let mut stats = ExecStats::default();
    let mut emitted: Vec<Envelope<M>> = Vec::new();
    let mut halt_flag = false;
    let mut stage: Vec<Vec<Envelope<M>>> = (0..threads).map(|_| Vec::new()).collect();
    #[cfg(feature = "causality-check")]
    let mut guards: Vec<crate::causality::CausalityGuard> = (0..threads)
        .map(crate::causality::CausalityGuard::new)
        .collect();
    // Live-progress instruments, updated once per window/turn boundary
    // (never inside the event loop) from pre-fetched handles.
    let live_obs = pioeval_obs::global();
    let live_events = live_obs.counter(pioeval_obs::names::DES_LIVE_EVENTS);
    let live_windows = live_obs.counter(pioeval_obs::names::DES_LIVE_WINDOWS);
    let live_queue = live_obs.gauge(pioeval_obs::names::DES_LIVE_QUEUE);
    let live_horizon = live_obs.gauge(pioeval_obs::names::DES_LIVE_HORIZON_NS);
    loop {
        // Flush every staging vector so the decide step (and the first
        // turn's horizon) sees the complete pending set.
        for (worker, batch) in workers.iter_mut().zip(stage.iter_mut()) {
            worker.store.append(batch);
        }
        // Window decision: the minimum clock for termination plus the
        // total pending population (the boundary queue-occupancy
        // sample; stages are empty here, so store lengths are exact).
        let mut t = u64::MAX;
        let mut pending = 0usize;
        for worker in workers.iter() {
            t = t.min(worker.store.next_nanos());
            pending += worker.store.len();
        }
        stats.max_pending = stats.max_pending.max(pending);
        if t == u64::MAX || halt_flag || stop_at.is_some_and(|limit| t > limit) {
            break;
        }
        stats.windows += 1;
        live_windows.inc();
        live_queue.record(pending as u64);
        for i in 0..threads {
            if i > 0 {
                // Pick up what earlier turns staged, keeping every
                // store complete before any horizon is computed.
                for (worker, batch) in workers.iter_mut().zip(stage.iter_mut()) {
                    worker.store.append(batch);
                }
            }
            // Live clocks: already-run workers have advanced past their
            // own horizon, widening ours beyond the snapshot bound.
            let my_next = workers[i].store.next_nanos();
            let mut others = u64::MAX;
            let mut near_peer = NO_LIMITER;
            for (j, worker) in workers.iter().enumerate() {
                if j != i {
                    let nj = worker.store.next_nanos();
                    if nj < others {
                        others = nj;
                        near_peer = j as u32;
                    }
                }
            }
            let (h, wide) = horizon(my_next, others, t, la, stop_at);
            if wide {
                stats.wide += 1;
            }
            live_horizon.record(h);
            let limiter = if recs.is_some() {
                window_limiter(my_next, others, near_peer, la, h)
            } else {
                NO_LIMITER
            };
            if my_next >= h {
                // A pure synchronization round for this worker: the
                // conservative engine's null message.
                workers[i].null_windows += 1;
                if let Some(rs) = recs.as_mut() {
                    let r = &mut rs[i];
                    r.mark(if my_next < u64::MAX {
                        ProfPhase::HorizonStall
                    } else {
                        ProfPhase::Barrier
                    });
                    r.end_window(0, limiter);
                }
                continue;
            }
            if let Some(rs) = recs.as_mut() {
                rs[i].mark(ProfPhase::Barrier);
            }
            let started = Instant::now();
            let processed_before = workers[i].processed;
            let me = &mut workers[i];
            me.store.begin_window(h);
            if let Some(rs) = recs.as_mut() {
                rs[i].mark(ProfPhase::MailboxDrain);
            }
            #[cfg(feature = "causality-check")]
            guards[i].begin_window(h);
            while !halt_flag {
                let Some(ev) = me.store.pop_window() else {
                    break;
                };
                let dst = ev.dst();
                let now = ev.time();
                #[cfg(feature = "causality-check")]
                guards[i].check_execute(now.as_nanos());
                me.end_max = me.end_max.max(now.as_nanos());
                let slot = me.slots[dst.index()];
                let (_, entity) = &mut me.entities[slot];
                let mut ctx = Ctx {
                    now,
                    me: dst,
                    lookahead,
                    seq: &mut me.seqs[slot],
                    emitted: &mut emitted,
                    halt: &mut halt_flag,
                    recorder: me.recs.get_mut(slot),
                };
                entity.on_event(ev, &mut ctx);
                me.processed += 1;
                for out in emitted.drain(..) {
                    let w = owners[out.dst().index()] as usize;
                    // Non-short-circuiting `&`: both sides are pure, and
                    // the combined test is almost never true, so the
                    // branch predicts — unlike `w == i` alone, which is
                    // a coin flip under round-robin partitioning.
                    if (w == i) & (out.time().as_nanos() < h) {
                        // Own-chain event inside a widened window: must
                        // be processed before this window ends.
                        me.store.push_overlay(out);
                    } else {
                        stage[w].push(out);
                    }
                }
            }
            me.busy += started.elapsed();
            #[cfg(feature = "causality-check")]
            guards[i].end_window();
            let turn_events = me.processed - processed_before;
            if turn_events > 0 {
                live_events.add(turn_events);
            }
            if let Some(rs) = recs.as_mut() {
                let r = &mut rs[i];
                r.mark(ProfPhase::Compute);
                r.end_window(turn_events, limiter);
            }
        }
    }
    stats.halted = halt_flag;
    let profiles = recs.map(|rs| {
        rs.into_iter()
            .zip(workers.iter())
            .map(|(r, w)| r.finish(w.entities.len() as u64, w.processed))
            .collect()
    });
    (stats, profiles)
}

/// Threaded backend: one OS thread per worker, one spin barrier per
/// window. All shared state is parity-double-buffered: a thread
/// publishes window `k+1`'s snapshot into slot `k+1 mod 2` *before* the
/// barrier ending window `k`, and reads window `k`'s snapshot from slot
/// `k mod 2` after the barrier starting it — so the min-reduction and
/// the mailbox hand-off share a single generation. Atomic accesses are
/// `Relaxed`; the barrier's AcqRel handshake provides the
/// happens-before edge between publish and read.
///
/// Every [`EPOCH_WINDOWS`] windows the snapshot also carries each
/// worker's cumulative compute time and a clock reading, and every
/// worker judges the epoch from the same numbers: if the summed compute
/// is below the epoch's wall time, all of them stop at this boundary
/// with [`ExecStats::demoted`] set (their inboxes already drained), and
/// the caller finishes the run sequentially.
fn run_threaded<M: Send + 'static>(
    lookahead: SimDuration,
    stop_at: Option<u64>,
    owners: &[u32],
    workers: &mut Vec<Worker<M>>,
    profile: bool,
) -> (ExecStats, Option<Vec<WorkerProfile>>) {
    let threads = workers.len();
    let la = lookahead.as_nanos().max(1);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let spins = if cores >= threads { 256 } else { 0 };
    let barrier = SpinBarrier::new(threads, spins);
    // Per-thread published state, one slot per window parity.
    let next: [Vec<AtomicU64>; 2] =
        std::array::from_fn(|_| (0..threads).map(|_| AtomicU64::new(u64::MAX)).collect());
    let delta: [Vec<AtomicI64>; 2] =
        std::array::from_fn(|_| (0..threads).map(|_| AtomicI64::new(0)).collect());
    let halt: [Vec<AtomicBool>; 2] =
        std::array::from_fn(|_| (0..threads).map(|_| AtomicBool::new(false)).collect());
    // out_min[p][from * threads + to]: minimum timestamp among events
    // thread `from` staged for `to` in the window before parity `p`'s —
    // the in-flight component of `to`'s next-event lower bound.
    let out_min: [Vec<AtomicU64>; 2] = std::array::from_fn(|_| {
        (0..threads * threads)
            .map(|_| AtomicU64::new(u64::MAX))
            .collect()
    });
    // mailboxes[from * threads + to]: the staged events themselves.
    // Swap-buffer protocol: the sender swaps its full batch in under one
    // lock, the receiver swaps it out — O(1) critical sections, and the
    // Vec capacities circulate between the two sides.
    let mailboxes: Vec<Mutex<Vec<Envelope<M>>>> = (0..threads * threads)
        .map(|_| Mutex::new(Vec::new()))
        .collect();
    // Causality side-channel, parallel to `mailboxes`: every batch swap
    // is mirrored by a stamp push, validated on drain.
    #[cfg(feature = "causality-check")]
    let stamps: Vec<Mutex<Vec<crate::causality::CausalStamp>>> = (0..threads * threads)
        .map(|_| Mutex::new(Vec::new()))
        .collect();
    // Cost snapshot per worker, written at each epoch's last window and
    // read right after its barrier. One buffer suffices: the next write
    // is an epoch (at least one more barrier) after every read.
    let origin = Instant::now();
    let busy_ns: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let clock_ns: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();

    let mut joined: Vec<(Worker<M>, ExecStats, Option<WorkerProfile>)> =
        Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (tid, mut worker) in workers.drain(..).enumerate() {
            let barrier = &barrier;
            let next = &next;
            let delta = &delta;
            let halt = &halt;
            let out_min = &out_min;
            let mailboxes = &mailboxes;
            let busy_ns = &busy_ns;
            let clock_ns = &clock_ns;
            #[cfg(feature = "causality-check")]
            let stamps = &stamps;
            handles.push(scope.spawn(move || {
                // Telemetry spans are kept in thread-locals for the whole
                // run and merged once at the end: the window loop never
                // touches a shared lock outside the mailbox hand-off.
                let obs = pioeval_obs::global();
                let mut tbuf = obs.buffer(&format!("des-worker-{tid}"));
                tbuf.begin(pioeval_obs::names::SPAN_DES_WORKER, "des");
                // Phase recorder: worker-private, lock-free, merged in
                // worker order at join — the reqtrace discipline. Every
                // mark site below is a single `Option` branch when
                // profiling is off.
                let mut rec = profile.then(|| PhaseRecorder::start(tid as u32, obs.epoch()));
                // Live-progress handles, fetched once: each worker adds
                // its per-window event delta; thread 0 (whose decide-step
                // snapshot is canonical) also publishes window count,
                // boundary occupancy, and the horizon. All updates happen
                // at the window boundary, outside the event loop, so the
                // sampler thread can never contend with event processing.
                let live_events = obs.counter(pioeval_obs::names::DES_LIVE_EVENTS);
                let live_windows = obs.counter(pioeval_obs::names::DES_LIVE_WINDOWS);
                let live_queue = obs.gauge(pioeval_obs::names::DES_LIVE_QUEUE);
                let live_horizon = obs.gauge(pioeval_obs::names::DES_LIVE_HORIZON_NS);
                let mut stats = ExecStats::default();
                let mut pending: i64 = 0;
                let mut halt_flag = false;
                let mut emitted: Vec<Envelope<M>> = Vec::new();
                let mut staged: Vec<Vec<Envelope<M>>> = (0..threads).map(|_| Vec::new()).collect();
                let mut stage_min: Vec<u64> = vec![u64::MAX; threads];
                let mut inbox: Vec<Envelope<M>> = Vec::new();
                // Summed compute and latest clock at the last epoch
                // boundary: identical on every worker.
                let mut epoch_start = (0u64, 0u64);
                #[cfg(feature = "causality-check")]
                let mut guard = crate::causality::CausalityGuard::new(tid);
                #[cfg(feature = "causality-check")]
                let mut chan = crate::causality::ChannelCheck::new(tid, threads);
                #[cfg(feature = "causality-check")]
                let mut send_seq: Vec<u64> = vec![0; threads];
                // Publish the initial snapshot under parity 0.
                next[0][tid].store(worker.store.next_nanos(), Ordering::Relaxed);
                delta[0][tid].store(worker.store.len() as i64, Ordering::Relaxed);
                barrier.wait();
                if let Some(r) = rec.as_mut() {
                    r.mark(ProfPhase::Barrier);
                }
                let mut p = 0usize;
                loop {
                    // Read the window snapshot: identical on every thread,
                    // so every thread makes the same continue/stop call
                    // (divergence here would deadlock the barrier).
                    let mut t = u64::MAX;
                    let mut my_next = u64::MAX;
                    let mut others = u64::MAX;
                    let mut near_peer = NO_LIMITER;
                    let mut was_halted = false;
                    for j in 0..threads {
                        let mut nj = next[p][j].load(Ordering::Relaxed);
                        for k in 0..threads {
                            nj = nj.min(out_min[p][k * threads + j].load(Ordering::Relaxed));
                        }
                        pending += delta[p][j].load(Ordering::Relaxed);
                        was_halted |= halt[p][j].load(Ordering::Relaxed);
                        t = t.min(nj);
                        if j == tid {
                            my_next = nj;
                        } else if nj < others {
                            others = nj;
                            near_peer = j as u32;
                        }
                    }
                    stats.max_pending = stats.max_pending.max(pending.max(0) as usize);
                    // Drain inboxes staged during the previous window. A
                    // racing fast sender may already have staged *next*
                    // window's batch; draining it early is benign — its
                    // events sit at or beyond this worker's horizon, and
                    // the published minima already cover them.
                    for k in 0..threads {
                        let mut slot = lock(&mailboxes[k * threads + tid]);
                        if !slot.is_empty() {
                            std::mem::swap(&mut *slot, &mut inbox);
                            drop(slot);
                            worker.store.append(&mut inbox);
                        }
                    }
                    #[cfg(feature = "causality-check")]
                    for k in 0..threads {
                        let mut sl = lock(&stamps[k * threads + tid]);
                        for st in sl.drain(..) {
                            chan.on_deliver(&st, guard.committed());
                        }
                    }
                    if let Some(r) = rec.as_mut() {
                        // Snapshot read plus inbox intake: the window's
                        // mailbox-drain phase (marked before the
                        // termination check; `finish` folds the final
                        // one into the last window's sample).
                        r.mark(ProfPhase::MailboxDrain);
                    }
                    if t == u64::MAX || was_halted || stop_at.is_some_and(|limit| t > limit) {
                        stats.halted = was_halted;
                        break;
                    }
                    if stats.windows > 0 && stats.windows % EPOCH_WINDOWS == 0 {
                        // Judge the epoch just ended from the shared
                        // snapshot, so every worker decides alike.
                        let mut busy = 0u64;
                        let mut clock = 0u64;
                        for j in 0..threads {
                            busy += busy_ns[j].load(Ordering::Relaxed);
                            clock = clock.max(clock_ns[j].load(Ordering::Relaxed));
                        }
                        if busy - epoch_start.0 < clock - epoch_start.1 {
                            stats.demoted = true;
                            break;
                        }
                        epoch_start = (busy, clock);
                    }
                    stats.windows += 1;
                    let (h, wide) = horizon(my_next, others, t, la, stop_at);
                    if wide {
                        stats.wide += 1;
                    }
                    let limiter = if rec.is_some() {
                        window_limiter(my_next, others, near_peer, la, h)
                    } else {
                        NO_LIMITER
                    };
                    let mut generated: i64 = 0;
                    let processed_before = worker.processed;
                    if my_next < h {
                        let started = Instant::now();
                        worker.store.begin_window(h);
                        #[cfg(feature = "causality-check")]
                        guard.begin_window(h);
                        while !halt_flag {
                            let Some(ev) = worker.store.pop_window() else {
                                break;
                            };
                            let dst = ev.dst();
                            let now = ev.time();
                            #[cfg(feature = "causality-check")]
                            guard.check_execute(now.as_nanos());
                            worker.end_max = worker.end_max.max(now.as_nanos());
                            let slot = worker.slots[dst.index()];
                            let (_, entity) = &mut worker.entities[slot];
                            let mut ctx = Ctx {
                                now,
                                me: dst,
                                lookahead,
                                seq: &mut worker.seqs[slot],
                                emitted: &mut emitted,
                                halt: &mut halt_flag,
                                recorder: worker.recs.get_mut(slot),
                            };
                            entity.on_event(ev, &mut ctx);
                            worker.processed += 1;
                            for out in emitted.drain(..) {
                                generated += 1;
                                let w = owners[out.dst().index()] as usize;
                                if w == tid {
                                    if out.time().as_nanos() < h {
                                        // Own-chain event inside a widened
                                        // window (rare): joins this drain.
                                        worker.store.push_overlay(out);
                                    } else {
                                        worker.store.push(out);
                                    }
                                } else {
                                    stage_min[w] = stage_min[w].min(out.time().as_nanos());
                                    staged[w].push(out);
                                }
                            }
                        }
                        worker.busy += started.elapsed();
                        #[cfg(feature = "causality-check")]
                        guard.end_window();
                        if let Some(r) = rec.as_mut() {
                            r.mark(ProfPhase::Compute);
                        }
                    }
                    if worker.processed == processed_before {
                        // A pure synchronization round for this thread —
                        // the conservative engine's null message.
                        worker.null_windows += 1;
                    } else {
                        live_events.add(worker.processed - processed_before);
                    }
                    if tid == 0 {
                        live_windows.inc();
                        live_queue.record(pending.max(0) as u64);
                        live_horizon.record(h);
                    }
                    // Publish the next window's snapshot under the
                    // opposite parity, then cross the (single) barrier.
                    let q = p ^ 1;
                    for w in 0..threads {
                        if w == tid {
                            continue;
                        }
                        out_min[q][tid * threads + w].store(stage_min[w], Ordering::Relaxed);
                        #[cfg(feature = "causality-check")]
                        let batch_min = stage_min[w];
                        stage_min[w] = u64::MAX;
                        if !staged[w].is_empty() {
                            let mut slot = lock(&mailboxes[tid * threads + w]);
                            if slot.is_empty() {
                                std::mem::swap(&mut *slot, &mut staged[w]);
                            } else {
                                slot.append(&mut staged[w]);
                            }
                            drop(slot);
                            #[cfg(feature = "causality-check")]
                            {
                                let st = crate::causality::CausalStamp {
                                    from: tid,
                                    seq: send_seq[w],
                                    min_time: batch_min,
                                };
                                send_seq[w] += 1;
                                lock(&stamps[tid * threads + w]).push(st);
                            }
                        }
                    }
                    next[q][tid].store(worker.store.next_nanos(), Ordering::Relaxed);
                    delta[q][tid].store(
                        generated - (worker.processed - processed_before) as i64,
                        Ordering::Relaxed,
                    );
                    halt[q][tid].store(halt_flag, Ordering::Relaxed);
                    if stats.windows % EPOCH_WINDOWS == 0 {
                        busy_ns[tid].store(worker.busy.as_nanos() as u64, Ordering::Relaxed);
                        clock_ns[tid].store(origin.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    }
                    p = q;
                    barrier.wait();
                    if let Some(r) = rec.as_mut() {
                        // The wait segment: barrier coordination proper,
                        // unless this worker's whole window was excluded
                        // by the horizon while it still had work — the
                        // definition of a horizon stall.
                        r.mark(if my_next >= h && my_next < u64::MAX {
                            ProfPhase::HorizonStall
                        } else {
                            ProfPhase::Barrier
                        });
                        r.end_window(worker.processed - processed_before, limiter);
                    }
                }
                tbuf.end();
                obs.merge(tbuf);
                let worker_profile =
                    rec.map(|r| r.finish(worker.entities.len() as u64, worker.processed));
                (worker, stats, worker_profile)
            }));
        }
        for handle in handles {
            joined.push(handle.join().expect("parallel DES worker panicked"));
        }
    });

    let mut merged = ExecStats::default();
    let mut profiles: Vec<WorkerProfile> = Vec::with_capacity(if profile { threads } else { 0 });
    for (tid, (worker, stats, worker_profile)) in joined.into_iter().enumerate() {
        if tid == 0 {
            // Window count, boundary occupancy, and the halt decision are
            // computed from the same shared snapshots on every thread.
            merged.windows = stats.windows;
            merged.max_pending = stats.max_pending;
            merged.halted = stats.halted;
            merged.demoted = stats.demoted;
        }
        merged.wide += stats.wide;
        profiles.extend(worker_profile);
        workers.push(worker);
    }
    (merged, profile.then_some(profiles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EntityId;
    use crate::sim::{Entity, SimConfig};
    use pioeval_types::SimDuration;

    /// An entity that forwards tokens around a ring and records a running
    /// hash of everything it observes (event order fingerprint).
    struct RingNode {
        next: EntityId,
        fingerprint: u64,
        forwards_left: u32,
    }

    impl Entity<u64> for RingNode {
        fn on_event(&mut self, ev: Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
            // Order-sensitive fingerprint: combines payload and time.
            self.fingerprint =
                self.fingerprint.wrapping_mul(0x100000001B3) ^ ev.msg ^ ev.time().as_nanos();
            if self.forwards_left > 0 {
                self.forwards_left -= 1;
                let delay = SimDuration::from_micros(1 + (ev.msg % 7));
                ctx.send(self.next, delay, ev.msg.wrapping_mul(31).wrapping_add(1));
            }
        }
    }

    fn build_ring(nodes: u32, tokens: u32, forwards: u32) -> Simulation<u64> {
        let mut sim = Simulation::new(SimConfig::default());
        for i in 0..nodes {
            let next = EntityId((i + 1) % nodes);
            sim.add_entity(
                format!("ring{i}"),
                Box::new(RingNode {
                    next,
                    fingerprint: 0,
                    forwards_left: forwards,
                }),
            );
        }
        for t in 0..tokens {
            sim.schedule(
                SimTime::from_nanos(t as u64 * 100),
                EntityId(t % nodes),
                t as u64,
            );
        }
        sim
    }

    fn fingerprints(sim: &Simulation<u64>, nodes: u32) -> Vec<u64> {
        (0..nodes)
            .map(|i| sim.entity_ref::<RingNode>(EntityId(i)).unwrap().fingerprint)
            .collect()
    }

    /// Manual perf probe (run with `--ignored --nocapture` in release):
    /// splits cooperative-backend time into pop-loop "busy" vs window
    /// bookkeeping so regressions can be localized.
    #[test]
    #[ignore]
    fn probe_cooperative_overhead_split() {
        use crate::phold::{build_phold, PholdConfig};
        // Interleaved min-of-N: the host is shared and noisy, so
        // back-to-back single runs can swing ±20%. Minima of alternated
        // repeats are robust to intermittent background load.
        const REPS: usize = 3;
        for population in [2048u32, 8192, 16384] {
            let phold = PholdConfig {
                lps: 256,
                population,
                horizon: SimTime::from_millis(10),
                ..PholdConfig::default()
            };
            let mut seq_best = Duration::MAX;
            let mut par_best = Duration::MAX;
            let mut windows = 0u64;
            for _ in 0..REPS {
                let mut sim = build_phold(&phold);
                let t0 = Instant::now();
                sim.run();
                seq_best = seq_best.min(t0.elapsed());

                let mut sim = build_phold(&phold);
                let owners = round_robin(sim.num_entities(), 2);
                let lookahead = sim.lookahead();
                let stop_at = sim.config().time_limit.map(SimTime::as_nanos);
                let mut workers = checkout(&mut sim, &owners, 2);
                let t0 = Instant::now();
                let (stats, _) = run_cooperative(lookahead, stop_at, &owners, &mut workers, false);
                par_best = par_best.min(t0.elapsed());
                windows = stats.windows;
                checkin(&mut sim, &mut workers);
            }
            let pct = |d: Duration| (d.as_secs_f64() / seq_best.as_secs_f64() - 1.0) * 100.0;
            println!(
                "pop {population}: seq {seq_best:?} | cooperative {par_best:?} ({:+.1}%, {windows} w)",
                pct(par_best),
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let nodes = 13;
        let mut seq_sim = build_ring(nodes, 8, 50);
        let seq_res = seq_sim.run();
        let seq_fp = fingerprints(&seq_sim, nodes);

        for threads in [1, 2, 3, 4, 8] {
            let mut par_sim = build_ring(nodes, 8, 50);
            let par_res = run_parallel(&mut par_sim, &ParallelConfig::with_threads(threads));
            assert_eq!(
                fingerprints(&par_sim, nodes),
                seq_fp,
                "fingerprint mismatch at {threads} threads"
            );
            assert_eq!(par_res.events, seq_res.events);
            assert_eq!(par_res.end_time, seq_res.end_time);
        }
    }

    /// Every {backend × thread count} combination reproduces the
    /// sequential fingerprints and event count exactly.
    #[test]
    fn config_matrix_matches_sequential() {
        let nodes = 13;
        let mut seq_sim = build_ring(nodes, 8, 50);
        let seq_res = seq_sim.run();
        let seq_fp = fingerprints(&seq_sim, nodes);

        for backend in [Backend::Threads, Backend::Cooperative] {
            for threads in [1, 2, 3, 4, 8] {
                let cfg = ParallelConfig {
                    threads,
                    backend,
                    ..ParallelConfig::default()
                };
                let mut par_sim = build_ring(nodes, 8, 50);
                let par_res = run_parallel(&mut par_sim, &cfg);
                assert_eq!(
                    fingerprints(&par_sim, nodes),
                    seq_fp,
                    "fingerprint mismatch: {cfg:?}"
                );
                assert_eq!(par_res.events, seq_res.events, "event count: {cfg:?}");
                assert_eq!(par_res.end_time, seq_res.end_time, "end time: {cfg:?}");
            }
        }
    }

    /// A tight two-entity message bounce with a far-idle third entity:
    /// the case where a naive adaptive horizon `min_j(next_j) + la`
    /// (without the reflected-send bound `next_i + 2·la`) would let the
    /// busy pair overrun each other's replies.
    struct Bouncer {
        peer: EntityId,
        fingerprint: u64,
        left: u32,
    }

    impl Entity<u64> for Bouncer {
        fn on_event(&mut self, ev: Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
            self.fingerprint =
                self.fingerprint.wrapping_mul(0x100000001B3) ^ ev.msg ^ ev.time().as_nanos();
            if self.left > 0 {
                self.left -= 1;
                // Minimum legal cross-entity delay: exactly the lookahead.
                ctx.send(self.peer, ctx.lookahead, ev.msg.wrapping_add(1));
            }
        }
    }

    #[test]
    fn adaptive_window_survives_message_bounce() {
        let build = || {
            let mut sim: Simulation<u64> = Simulation::new(SimConfig::default());
            sim.add_entity(
                "a",
                Box::new(Bouncer {
                    peer: EntityId(1),
                    fingerprint: 0,
                    left: 40,
                }),
            );
            sim.add_entity(
                "b",
                Box::new(Bouncer {
                    peer: EntityId(0),
                    fingerprint: 0,
                    left: 40,
                }),
            );
            // Far-idle third entity: keeps the other workers' clocks way
            // ahead, which is exactly what tempts a naive widener.
            sim.add_entity(
                "sleeper",
                Box::new(Bouncer {
                    peer: EntityId(2),
                    fingerprint: 0,
                    left: 0,
                }),
            );
            sim.schedule(SimTime::ZERO, EntityId(0), 1);
            sim.schedule(SimTime::from_millis(500), EntityId(2), 99);
            sim
        };
        let mut seq = build();
        let seq_res = seq.run();
        let fp = |s: &Simulation<u64>| {
            (0..3u32)
                .map(|i| s.entity_ref::<Bouncer>(EntityId(i)).unwrap().fingerprint)
                .collect::<Vec<_>>()
        };
        let seq_fp = fp(&seq);
        for backend in [Backend::Threads, Backend::Cooperative] {
            for threads in [2, 3] {
                let cfg = ParallelConfig {
                    threads,
                    backend,
                    ..ParallelConfig::default()
                };
                let mut par = build();
                let par_res = run_parallel(&mut par, &cfg);
                assert_eq!(fp(&par), seq_fp, "bounce fingerprints: {cfg:?}");
                assert_eq!(par_res.events, seq_res.events, "bounce events: {cfg:?}");
            }
        }
    }

    /// `max_queue` boundary sampling agrees with the sequential
    /// high-water mark on a constant-population workload (every event
    /// regenerates exactly one successor).
    #[test]
    fn max_queue_matches_sequential_on_constant_population() {
        let cfg = SimConfig {
            time_limit: Some(SimTime::from_micros(200)),
            ..SimConfig::default()
        };
        let build = || {
            let mut sim = Simulation::new(cfg);
            for i in 0..8u32 {
                sim.add_entity(
                    format!("n{i}"),
                    Box::new(RingNode {
                        next: EntityId((i + 1) % 8),
                        fingerprint: 0,
                        forwards_left: u32::MAX,
                    }),
                );
            }
            for t in 0..4u32 {
                sim.schedule(SimTime::from_nanos(t as u64), EntityId(t), t as u64);
            }
            sim
        };
        let mut seq = build();
        let seq_res = seq.run();
        assert_eq!(seq_res.max_queue, 4);
        for backend in [Backend::Threads, Backend::Cooperative] {
            let mut par = build();
            let par_res = run_parallel(
                &mut par,
                &ParallelConfig {
                    threads: 2,
                    backend,
                    ..ParallelConfig::default()
                },
            );
            assert_eq!(
                par_res.max_queue, seq_res.max_queue,
                "boundary sample vs sequential HWM ({backend:?})"
            );
        }
    }

    #[test]
    fn round_robin_owner_shape() {
        assert_eq!(round_robin(5, 2), vec![0, 1, 0, 1, 0]);
        assert_eq!(round_robin(3, 4), vec![0, 1, 2]);
    }

    /// Profiling must not perturb results, and the recorded timelines
    /// must conserve (phase sums tile each worker's span exactly), cover
    /// every worker, and agree with the shared window count — on both
    /// backends.
    #[test]
    fn profiled_run_matches_and_conserves() {
        let nodes = 13;
        let mut seq_sim = build_ring(nodes, 8, 50);
        let seq_res = seq_sim.run();
        let seq_fp = fingerprints(&seq_sim, nodes);
        for backend in [Backend::Threads, Backend::Cooperative] {
            let cfg = ParallelConfig {
                threads: 3,
                backend,
                ..ParallelConfig::default()
            };
            let mut par_sim = build_ring(nodes, 8, 50);
            let (res, profile) = run_parallel_profiled(&mut par_sim, &cfg);
            assert_eq!(fingerprints(&par_sim, nodes), seq_fp, "{backend:?}");
            assert_eq!(res.events, seq_res.events);
            let profile = profile.expect("parallel run must yield a profile");
            assert_eq!(profile.threads, 3);
            assert_eq!(profile.workers.len(), 3);
            assert!(profile.conserves(), "{backend:?}: phase sums != spans");
            assert!(profile.windows > 0);
            assert!(profile.wall_ns > 0);
            let events: u64 = profile.workers.iter().map(|w| w.events).sum();
            assert_eq!(
                events + profile.inline_events,
                res.events,
                "{backend:?}: event attribution"
            );
            let entities: u64 = profile.workers.iter().map(|w| w.entities).sum();
            assert_eq!(entities, nodes as u64);
            for w in &profile.workers {
                assert_eq!(w.windows, profile.windows, "every worker sees every window");
                assert!(w.samples.len() as u64 + w.dropped_samples == w.windows);
            }
        }
    }

    /// Dense-then-sparse traffic: every token hops to a pseudo-random
    /// peer until `dense_until`; after that only token 0 keeps going, one
    /// lookahead per hop around the ring, until it has made `chain_hops`
    /// hops in total. Messages carry `token << 32 | hops`.
    struct Hopper {
        peers: u32,
        dense_until: SimTime,
        chain_hops: u64,
        fingerprint: u64,
    }

    impl Entity<u64> for Hopper {
        fn on_event(&mut self, ev: Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
            self.fingerprint =
                self.fingerprint.wrapping_mul(0x100000001B3) ^ ev.msg ^ ev.time().as_nanos();
            let (token, hops) = (ev.msg >> 32, ev.msg & 0xFFFF_FFFF);
            let msg = ev.msg + 1;
            if ctx.now() < self.dense_until {
                let h = (ev.msg ^ ev.time().as_nanos()).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
                let dst = EntityId((h % self.peers as u64) as u32);
                let delay = SimDuration::from_nanos(ctx.lookahead().as_nanos() * (1 + h % 3));
                ctx.send(dst, delay, msg);
            } else if token == 0 && hops < self.chain_hops {
                let dst = EntityId((ctx.me().0 + 1) % self.peers);
                ctx.send(dst, ctx.lookahead(), msg);
            }
        }
    }

    fn build_dense_then_chain(chain_hops: u64) -> Simulation<u64> {
        let peers = 12u32;
        let mut sim = Simulation::new(SimConfig::default());
        for i in 0..peers {
            sim.add_entity(
                format!("hop{i}"),
                Box::new(Hopper {
                    peers,
                    dense_until: SimTime::from_micros(150),
                    chain_hops,
                    fingerprint: 0,
                }),
            );
        }
        for token in 0..96u64 {
            sim.schedule(
                SimTime::from_nanos(token * 10),
                EntityId((token % peers as u64) as u32),
                token << 32,
            );
        }
        sim
    }

    fn hopper_fingerprints(sim: &Simulation<u64>) -> Vec<u64> {
        (0..sim.num_entities() as u32)
            .map(|i| sim.entity_ref::<Hopper>(EntityId(i)).unwrap().fingerprint)
            .collect()
    }

    /// A threaded run that turns sparse hands its tail to the sequential
    /// loop exactly once, at an epoch boundary, with results identical
    /// to the sequential run and every event attributed once.
    #[test]
    fn starved_threaded_run_hands_off_to_sequential() {
        let mut seq = build_dense_then_chain(6000);
        let seq_res = seq.run();
        let seq_fp = hopper_fingerprints(&seq);
        for threads in [2, 3] {
            let cfg = ParallelConfig {
                threads,
                backend: Backend::Threads,
                ..ParallelConfig::default()
            };
            let mut plain = build_dense_then_chain(6000);
            let plain_res = run_parallel(&mut plain, &cfg);
            assert_eq!(hopper_fingerprints(&plain), seq_fp, "{threads} threads");
            assert_eq!(
                (plain_res.events, plain_res.end_time),
                (seq_res.events, seq_res.end_time),
                "{threads} threads"
            );

            let mut par = build_dense_then_chain(6000);
            let (res, profile) = run_parallel_profiled(&mut par, &cfg);
            assert_eq!(
                hopper_fingerprints(&par),
                seq_fp,
                "{threads} threads, profiled"
            );
            assert_eq!(
                (res.events, res.end_time),
                (seq_res.events, seq_res.end_time)
            );
            let profile = profile.expect("a threaded run yields a profile");
            assert!(
                profile.inline_events > 0,
                "{threads} threads never handed off"
            );
            assert!(profile.inline_ns > 0);
            // One hand-off, at an epoch boundary: no window ran after it.
            assert_eq!(profile.windows % EPOCH_WINDOWS, 0, "{threads} threads");
            assert!(profile.conserves(), "{threads} threads: phases != spans");
            let threaded: u64 = profile.workers.iter().map(|w| w.events).sum();
            assert_eq!(threaded + profile.inline_events, res.events);
            for w in &profile.workers {
                assert_eq!(w.windows, profile.windows, "worker spans end together");
            }
        }
    }

    /// A time limit that falls after the hand-off is enforced by the
    /// sequential tail exactly as a sequential run would: same events,
    /// and the events past the limit stay pending for a later run.
    #[test]
    fn handoff_respects_time_limit() {
        let limit = Some(SimTime::from_micros(4000));
        let mut seq = build_dense_then_chain(6000);
        seq.set_time_limit(limit);
        let seq_res = seq.run();
        let mut par = build_dense_then_chain(6000);
        par.set_time_limit(limit);
        let cfg = ParallelConfig {
            threads: 2,
            backend: Backend::Threads,
            ..ParallelConfig::default()
        };
        let (res, profile) = run_parallel_profiled(&mut par, &cfg);
        assert!(profile.expect("threaded profile").inline_events > 0);
        assert_eq!(
            (res.events, res.end_time),
            (seq_res.events, seq_res.end_time)
        );
        assert_eq!(hopper_fingerprints(&par), hopper_fingerprints(&seq));
        seq.set_time_limit(None);
        par.set_time_limit(None);
        assert_eq!(par.run().events, seq.run().events);
        assert_eq!(hopper_fingerprints(&par), hopper_fingerprints(&seq));
    }

    /// Dense PHOLD keeps both threads busy through its epoch boundaries,
    /// so it stays threaded to the end. Whether two threads beat one is
    /// a property of the host at that moment, so the claim is checked on
    /// up to three runs and holds when one of them stays threaded; an
    /// inverted or mis-scaled rule hands off on all three.
    #[test]
    fn dense_phold_stays_threaded() {
        use crate::phold::{build_phold, phold_fingerprint, PholdConfig};
        let phold = PholdConfig {
            lps: 64,
            population: 2048,
            horizon: SimTime::from_millis(12),
            ..PholdConfig::default()
        };
        let mut seq = build_phold(&phold);
        let seq_res = seq.run();
        let cfg = ParallelConfig {
            threads: 2,
            backend: Backend::Threads,
            ..ParallelConfig::default()
        };
        let mut inline = Vec::new();
        for _ in 0..3 {
            let mut par = build_phold(&phold);
            let (res, profile) = run_parallel_profiled(&mut par, &cfg);
            assert_eq!(
                (res.events, res.end_time),
                (seq_res.events, seq_res.end_time)
            );
            assert_eq!(
                phold_fingerprint(&par, phold.lps),
                phold_fingerprint(&seq, phold.lps)
            );
            let profile = profile.expect("a threaded run yields a profile");
            let threaded: u64 = profile.workers.iter().map(|w| w.events).sum();
            assert_eq!(threaded + profile.inline_events, res.events);
            if profile.inline_events == 0 {
                assert!(
                    profile.windows > EPOCH_WINDOWS,
                    "the run must cross an epoch boundary to be judged"
                );
                return;
            }
            inline.push(profile.inline_events);
        }
        panic!("dense PHOLD handed off on every run: inline events {inline:?}");
    }

    /// A single effective worker runs sequentially: no profile.
    #[test]
    fn profiled_single_worker_degenerates_to_sequential() {
        let mut sim = build_ring(5, 3, 10);
        let (res, profile) = run_parallel_profiled(&mut sim, &ParallelConfig::with_threads(1));
        assert!(profile.is_none());
        assert!(res.events > 0);
    }

    /// Horizon-limiter attribution: self-looping tokens only on even ids
    /// put the whole load on worker 0 under round-robin. Worker 1 never
    /// has an event, so it can never be named as worker 0's limiter, and
    /// worker 1's windows are bounded by worker 0's clock (apart from a
    /// last turn after worker 0 has drained).
    #[test]
    fn limiter_points_at_the_loaded_partition() {
        let mut sim: Simulation<u64> = Simulation::new(SimConfig::default());
        for i in 0..8u32 {
            sim.add_entity(
                format!("n{i}"),
                Box::new(RingNode {
                    next: EntityId(i),
                    fingerprint: 0,
                    forwards_left: 60,
                }),
            );
        }
        for t in 0..4u32 {
            sim.schedule(
                SimTime::from_nanos(t as u64 * 100),
                EntityId(2 * t),
                t as u64,
            );
        }
        let cfg = ParallelConfig {
            threads: 2,
            backend: Backend::Cooperative,
            ..ParallelConfig::default()
        };
        let (_, profile) = run_parallel_profiled(&mut sim, &cfg);
        let profile = profile.unwrap();
        let (loaded, idle) = (&profile.workers[0], &profile.workers[1]);
        assert_eq!(idle.events, 0);
        assert!(loaded.samples.iter().all(|s| s.limiter == NO_LIMITER));
        assert!(idle.samples.iter().any(|s| s.limiter == 0));
        assert!(idle
            .samples
            .iter()
            .all(|s| s.limiter == 0 || s.limiter == NO_LIMITER));
    }

    #[test]
    fn exec_mode_selects_executor() {
        let nodes = 5;
        let mut a = build_ring(nodes, 3, 10);
        let ra = ExecMode::Sequential.run(&mut a);
        let mut b = build_ring(nodes, 3, 10);
        let rb = ExecMode::Parallel(ParallelConfig::with_threads(2)).run(&mut b);
        assert_eq!(ra.events, rb.events);
        assert_eq!(fingerprints(&a, nodes), fingerprints(&b, nodes));
    }

    #[test]
    fn parallel_respects_time_limit() {
        let cfg = SimConfig {
            time_limit: Some(SimTime::from_micros(20)),
            ..SimConfig::default()
        };
        let build = |cfg: SimConfig| {
            let mut sim = Simulation::new(cfg);
            for i in 0..4u32 {
                sim.add_entity(
                    format!("n{i}"),
                    Box::new(RingNode {
                        next: EntityId((i + 1) % 4),
                        fingerprint: 0,
                        forwards_left: u32::MAX,
                    }),
                );
            }
            sim.schedule(SimTime::ZERO, EntityId(0), 1);
            sim
        };
        let mut s = build(cfg);
        let seq = s.run();
        for backend in [Backend::Threads, Backend::Cooperative] {
            let mut p = build(cfg);
            let par = run_parallel(
                &mut p,
                &ParallelConfig {
                    threads: 2,
                    backend,
                    ..ParallelConfig::default()
                },
            );
            assert_eq!(seq.events, par.events);
            assert_eq!(fingerprints(&s, 4), fingerprints(&p, 4));
            assert!(par.end_time <= SimTime::from_micros(20));
        }
    }

    #[test]
    fn more_threads_than_entities_is_clamped() {
        // One token bouncing between two nodes, each willing to forward 10
        // times: 20 forwards plus the initial delivery = 21 events.
        let mut sim = build_ring(2, 1, 10);
        let res = run_parallel(&mut sim, &ParallelConfig::with_threads(16));
        assert_eq!(res.events, 21);
    }

    #[test]
    fn empty_simulation_terminates() {
        for backend in [Backend::Threads, Backend::Cooperative] {
            let mut sim: Simulation<u64> = Simulation::default();
            sim.add_entity(
                "lonely",
                Box::new(RingNode {
                    next: EntityId(0),
                    fingerprint: 0,
                    forwards_left: 0,
                }),
            );
            let res = run_parallel(
                &mut sim,
                &ParallelConfig {
                    threads: 2,
                    backend,
                    ..ParallelConfig::default()
                },
            );
            assert_eq!(res.events, 0);
            assert!(!res.halted);
        }
    }

    #[test]
    fn pending_events_survive_limit_and_rerun() {
        // Events past the limit stay queued; a second (sequential) run
        // with a raised limit picks them up.
        let cfg = SimConfig {
            time_limit: Some(SimTime::from_micros(5)),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(cfg);
        sim.add_entity(
            "n0",
            Box::new(RingNode {
                next: EntityId(0),
                fingerprint: 0,
                forwards_left: 0,
            }),
        );
        sim.schedule(SimTime::from_micros(2), EntityId(0), 1);
        sim.schedule(SimTime::from_micros(50), EntityId(0), 2);
        let res = run_parallel(&mut sim, &ParallelConfig::with_threads(1));
        assert_eq!(res.events, 1);
        // The t=50us event is still pending inside the simulation.
        let res2 = sim.run(); // same limit: still out of reach
        assert_eq!(res2.events, 0);
    }

    #[test]
    fn adaptive_handles_skewed_clocks() {
        // Two independent self-loop clusters far apart in virtual time:
        // the sparse regime where adaptive widening pays. Both backends
        // must still match the sequential run exactly.
        let build = || {
            let mut sim: Simulation<u64> = Simulation::new(SimConfig::default());
            for i in 0..4u32 {
                sim.add_entity(
                    format!("n{i}"),
                    Box::new(RingNode {
                        next: EntityId(i), // self-loop: no cross traffic
                        fingerprint: 0,
                        forwards_left: 30,
                    }),
                );
            }
            sim.schedule(SimTime::ZERO, EntityId(0), 1);
            sim.schedule(SimTime::from_millis(100), EntityId(1), 2);
            sim
        };
        let mut seq = build();
        let seq_res = seq.run();
        let seq_fp = fingerprints(&seq, 4);
        for backend in [Backend::Threads, Backend::Cooperative] {
            let mut par = build();
            let par_res = run_parallel(
                &mut par,
                &ParallelConfig {
                    threads: 2,
                    backend,
                    ..ParallelConfig::default()
                },
            );
            assert_eq!(fingerprints(&par, 4), seq_fp, "{backend:?}");
            assert_eq!(par_res.events, seq_res.events);
        }
    }
}
