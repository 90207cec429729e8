#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # pioeval-pfs
//!
//! A discrete-event simulator of an HPC storage cluster, reproducing the
//! architecture of the paper's Fig. 1: compute nodes connected over a
//! fast compute fabric (InfiniBand-class), an optional tier of I/O
//! forwarding nodes with solid-state burst buffers, a slower storage
//! fabric (10GbE-class), and a storage cluster of one metadata server
//! (MDS) and several object storage servers (OSS), each hosting object
//! storage targets (OSTs, the backing devices).
//!
//! Files are striped across OSTs Lustre-style ([`striping`]); clients
//! obtain layouts from the MDS at create/open and address OSTs directly.
//! Every message traverses explicit fabric entities that model propagation
//! latency and per-endpoint serialization, so fan-in congestion (many
//! clients, one server) and the compute-vs-storage bandwidth gap emerge
//! from queueing rather than being asserted.
//!
//! The crate provides the *server side* plus a [`client::ClientPort`]
//! protocol helper; application-level clients (which run the layered I/O
//! software stack of Fig. 2) live in `pioeval-iostack`.

pub mod client;
pub mod cluster;
pub mod config;
pub mod device;
pub mod fabric;
pub mod ionode;
pub mod mds;
pub mod msg;
pub mod oss;
pub mod stats;
pub mod striping;

pub use client::ClientPort;
pub use cluster::{Cluster, ClusterHandles};
pub use config::{ClusterConfig, DeviceConfig, FabricConfig, LayoutPolicy, MdsConfig};
pub use fabric::FabricStats;
pub use ionode::BurstBufferStats;
pub use msg::{
    payload_bytes, payload_tid, IoReply, IoRequest, MetaReply, MetaRequest, NetPacket, ObjReply,
    ObjRequest, ObjVerb, PfsMsg, ReplicaAck, ReplicaChunk, RequestId, Tid,
};
pub use stats::{OstTimeline, ServerStats};
pub use striping::{Layout, StripeChunk};
