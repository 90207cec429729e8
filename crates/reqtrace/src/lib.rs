#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # pioeval-reqtrace
//!
//! Simulated-time request tracing: turns the raw per-entity
//! [`pioeval_types::ReqEvent`] buffers recorded during a run into
//! per-request span timelines, attributes every nanosecond of each
//! request's end-to-end latency to one of four layers (queue wait,
//! server protocol service, storage-device service, fabric/wire), and
//! aggregates tail percentiles, per-operation statistics, tail-latency
//! attribution, and per-collective critical paths.
//!
//! The attribution is *exact by construction*: a request's spans tile
//! its `[issue, done]` interval with no gaps and no overlap, so the
//! per-layer components always sum to precisely the end-to-end latency
//! (property-tested against both storage backends). Nested child
//! requests (I/O-node forwards, gateway backend fan-out) are refined
//! through the *critical child* — the spawned sub-request that finishes
//! last — whose own hops and service intervals replace the parent
//! server's opaque residency where they overlap.
//!
//! The crate also defines the on-disk formats: the
//! [`file::FORMAT`]-tagged JSONL trace file written by
//! `pioeval run --request-trace`, and a simulated-time Chrome trace
//! (one track per server/gateway entity) for `chrome://tracing` — not
//! to be confused with the *wall-clock* self-telemetry Chrome trace
//! from `--trace-out`.

pub mod assemble;
pub mod file;
#[cfg(test)]
mod oracle;
pub mod report;

pub use assemble::{assemble, Assembly, Bucket, RequestRecord, Span, SpanLabel};
pub use file::{chrome_trace, read_jsonl, write_jsonl, write_jsonl_to, FORMAT};
pub use report::{
    collective_paths, summarize, tail_attribution, CollectivePath, LayerStats, OpStats,
    PercentileSet, TailAttribution, TraceSummary,
};
