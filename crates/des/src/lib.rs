#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # pioeval-des
//!
//! A discrete-event simulation (DES) engine in the spirit of ROSS
//! (Carothers et al.): logical processes ("entities") exchange timestamped
//! messages; the engine executes them in timestamp order.
//!
//! Two executors are provided over the same [`Simulation`] state:
//!
//! * [`Simulation::run`] — the sequential executor: a single event queue,
//!   events processed in global key order.
//! * [`parallel::run_parallel`] — a conservative (YAWNS-style)
//!   barrier-synchronized parallel executor: entities are dealt
//!   round-robin across threads, and each synchronization window
//!   processes all events below a per-worker horizon built from the
//!   workers' next-event times and the *lookahead*.
//!
//! **Determinism.** Events are totally ordered by
//! `(time, destination, source, per-source sequence number)`. All of these
//! are properties of the *sending* action, so the order in which a given
//! entity observes its events — and therefore every entity's state
//! trajectory — is identical under both executors and any thread count.
//! This property is load-bearing for the evaluation framework: the paper's
//! closed evaluation loop (Fig. 4) feeds measurements back into models, and
//! nondeterministic simulation would contaminate every downstream phase.
//!
//! **Lookahead.** Cross-entity messages must be sent with a delay of at
//! least [`Simulation::lookahead`]. Self-messages may use any delay. The
//! storage models in `pioeval-pfs` and `pioeval-objstore` meet the bound
//! by construction rather than naturally: fabric links are validated to
//! have at least the lookahead of latency, but a client or server
//! *injecting* a message into a fabric is a zero-latency hop in the model,
//! and it is padded up to the lookahead. So a window holds about one
//! causal step on those models, which is why the threaded backend hands
//! sparse runs to the sequential loop (see [`parallel::Backend::Threads`]).
//!
//! **Request tracing.** [`Simulation::set_request_trace`] is the one
//! switch: while it is on, [`Ctx::trace`] appends a mark to the handling
//! entity's own recorder, which travels with the entity under every
//! executor, and [`Simulation::drain_request_events`] collects the marks
//! in ascending entity id — the same sequence on every executor.
//!
//! **Causality sanitizer.** Building with `--features causality-check`
//! compiles per-worker Lamport-clock guards into both parallel backends
//! (the `causality` module, compiled only under that feature): every
//! executed event is asserted to lie inside its
//! worker's open window and at/above its committed horizon, and every
//! cross-worker mailbox delivery is checked for send ordering.
//! Violations abort with a diagnostic snapshot. The default build
//! carries zero overhead.

#[cfg(feature = "causality-check")]
pub mod causality;
pub mod event;
pub mod parallel;
pub mod phold;
pub mod queue;
pub mod sim;

pub use event::{EntityId, Envelope, EventKey, EXTERNAL};
pub use parallel::{
    run_parallel, run_parallel_profiled, Backend, ExecMode, ParallelConfig, Partitioner,
    WindowPolicy,
};
pub use phold::{build_phold, build_phold_traced, phold_fingerprint, PholdConfig};
pub use sim::{Ctx, Entity, RunResult, SimConfig, Simulation};
