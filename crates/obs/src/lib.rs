#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # pioeval-obs
//!
//! Self-telemetry for the framework itself. Everything else in this
//! workspace observes the *simulated* I/O system (Darshan-style profiles,
//! DXT traces, server statistics); this crate observes **pioeval**: where
//! wall-clock time goes inside the DES executors, how the event queue
//! behaves, what the PFS entities and the I/O-stack pipeline cost — the
//! "you can't optimize what you can't measure" substrate Recorder and the
//! multi-level-instrumentation literature argue every evaluation stack
//! needs for itself, too.
//!
//! The design constraints, in order:
//!
//! 1. **Always-on and cheap.** Hot paths (the per-event loop of the DES
//!    executors) pay *zero* telemetry cost: instrumentation accumulates
//!    into locals the engine already maintains and publishes once per run
//!    with a handful of atomic adds. Per-window and per-phase costs are a
//!    couple of `Instant` reads.
//! 2. **No global lock on parallel paths.** Worker threads record spans
//!    into private [`LocalBuffer`]s and merge them into the registry once,
//!    at finalize ([`Registry::merge`]).
//! 3. **Zero dependencies.** `std` only — no serde, no parking_lot; the
//!    exporters hand-roll the small amount of JSON they need.
//!
//! ## Vocabulary
//!
//! * [`Counter`] — monotonically increasing `u64` (events processed,
//!   barriers released).
//! * [`Gauge`] — last value + high-water mark (queue depth HWM).
//! * [`Histogram`] — log2-bucketed value distribution (per-thread busy
//!   microseconds, per-OSS service time).
//! * Spans — named wall-clock intervals with parent/child nesting,
//!   recorded per thread and exported as Chrome trace events
//!   (`chrome://tracing` / [Perfetto](https://ui.perfetto.dev)-loadable).
//! * [`perfetto::TraceWriter`] — the one Chrome trace-event writer; the
//!   span trace here (with the DES worker-phase tracks appended when a
//!   run is profiled) and `pioeval requests --chrome` are built on it,
//!   and every hand-written JSON document in the workspace escapes its
//!   strings with [`export::esc`].
//! * [`LiveExporter`] — a sampler thread streaming delta-encoded JSONL
//!   frames to a tailable file while the run is going
//!   (see [`mod@live`]), without ever locking a hot path.
//!
//! ## Quickstart
//!
//! ```
//! use pioeval_obs as obs;
//!
//! {
//!     let _run = obs::span("demo.outer", "demo");
//!     let _inner = obs::span("demo.inner", "demo");
//!     obs::global().counter("demo.widgets").add(3);
//! }
//! let json = obs::export::metrics_json(obs::global());
//! assert!(json.contains("demo.widgets"));
//! let trace = obs::export::chrome_trace(obs::global());
//! assert!(trace.contains("demo.outer"));
//! ```

pub mod export;
pub mod live;
pub mod metrics;
pub mod names;
pub mod perfetto;
pub mod registry;
pub mod span;

pub use live::{LiveConfig, LiveExporter};
pub use metrics::{Counter, Gauge, GaugeSnapshot, HistSnapshot, Histogram};
pub use registry::{InstrumentTotals, Registry, Snapshot};
pub use span::{LocalBuffer, SpanEvent, SpanGuard};

use std::sync::OnceLock;

/// The process-wide default registry that all built-in instrumentation
/// (DES executors, PFS cluster, I/O stack, evaluation pipeline) records
/// into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Open a span on the [`global`] registry, closed when the returned guard
/// drops. Spans on the same thread nest: a span opened while another is
/// live becomes its child in the exported trace.
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    SpanGuard::enter(global(), name, cat)
}
