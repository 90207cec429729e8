#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # pioeval-types
//!
//! Shared vocabulary for the `pioeval` parallel I/O evaluation framework.
//!
//! This crate defines the small set of types that every other crate in the
//! workspace speaks: simulated time ([`SimTime`], [`SimDuration`]), identity
//! newtypes ([`Rank`], [`FileId`], [`JobId`]), the I/O operation kinds
//! ([`IoKind`], [`MetaOp`]), per-layer call records ([`LayerRecord`]),
//! access-pattern classification ([`AccessPattern`]), byte-size helpers
//! ([`bytes`]), and deterministic RNG construction ([`fn@rng`]).
//!
//! The design follows the taxonomy of Neuwirth & Paul (CLUSTER 2021): the
//! *measurement*, *modeling*, and *simulation* phases of the I/O evaluation
//! cycle all exchange data expressed in these types, which is what allows
//! the closed feedback loop of the paper's Fig. 4 to be wired together
//! without per-phase translation layers.

pub mod error;
pub mod ids;
pub mod io;
pub mod layer;
pub mod pattern;
pub mod percentile;
pub mod profile;
pub mod reqtrace;
pub mod rng;
pub mod time;
pub mod units;

pub use error::{Error, Result};
pub use ids::{ClientId, FileId, JobId, NodeId, OstId, Rank};
pub use io::{IoKind, MetaOp};
pub use layer::{Layer, LayerRecord, RecordOp};
pub use pattern::{AccessPattern, PatternDetector};
pub use percentile::{percentile, percentile_sorted_u64, percentile_u64};
pub use profile::{
    ExecProfile, PhaseRecorder, ProfPhase, WindowSample, WorkerProfile, NO_LIMITER, PROF_PHASES,
    PROF_SAMPLE_CAP,
};
pub use reqtrace::{
    tid_for, tid_owner, ReqEvent, ReqMark, ReqOp, ReqRecorder, ServerKind, Tid, NO_COLLECTIVE,
};
pub use rng::{rng, split_seed};
pub use time::{SimDuration, SimTime};
pub use units::{
    bytes, size_bucket, throughput_mib_s, ByteSize, SIZE_BUCKET_BOUNDS, SIZE_BUCKET_LABELS,
};
