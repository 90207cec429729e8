//! Raw per-request trace events (simulated time).
//!
//! The request tracer follows each client-issued storage RPC through the
//! whole modeled stack — client issue, fabric hops, server queues and
//! device service — in *simulated* time (as opposed to the wall-clock
//! self-telemetry in `pioeval-obs`). The DES engine keeps one
//! [`ReqRecorder`] per entity and appends to it only while that entity
//! handles its own events, so recording is contention-free on the
//! parallel DES hot path; the engine drains the buffers in entity order
//! after the run (see `pioeval-reqtrace` for assembly and analytics).
//!
//! This module is the shared *vocabulary* only: it has no dependency on
//! the DES engine, so entity identity is carried as a raw `u32`.

use crate::io::MetaOp;
use crate::time::{SimDuration, SimTime};

/// A globally-unique trace id for one request.
///
/// Wire-level `RequestId`s are only unique per requester, so the tracer
/// widens them: `tid = ((owner_entity + 1) << 32) | request_id`
/// ([`tid_for`]). Client ports stamp every request they issue;
/// `tid == 0` marks internal traffic no client issued (write-back
/// flushes, replication copies), whose marks a recorder drops.
pub type Tid = u64;

/// Sentinel collective index for "not part of a collective".
pub const NO_COLLECTIVE: u32 = u32::MAX;

/// Compose a globally-unique trace id from the owning (issuing) entity
/// and its per-owner request id. The owner is offset by one so that a
/// valid tid is never 0 (the untraced sentinel), even for entity 0's
/// request 0.
pub fn tid_for(owner: u32, id: u64) -> Tid {
    ((owner as u64 + 1) << 32) | (id & 0xFFFF_FFFF)
}

/// The entity that issued (owns) `tid`. Inverse of [`tid_for`].
pub fn tid_owner(tid: Tid) -> u32 {
    ((tid >> 32) - 1) as u32
}

/// Request operation class, as seen at the issuing client.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReqOp {
    /// A data read RPC.
    Read,
    /// A data write RPC.
    Write,
    /// A metadata RPC (namespace / attribute operation).
    Meta(MetaOp),
}

impl ReqOp {
    /// Stable lower-case name (`read`, `write`, `meta:create`, ...).
    pub fn name(self) -> &'static str {
        match self {
            ReqOp::Read => "read",
            ReqOp::Write => "write",
            ReqOp::Meta(MetaOp::Create) => "meta:create",
            ReqOp::Meta(MetaOp::Open) => "meta:open",
            ReqOp::Meta(MetaOp::Close) => "meta:close",
            ReqOp::Meta(MetaOp::Stat) => "meta:stat",
            ReqOp::Meta(MetaOp::Unlink) => "meta:unlink",
            ReqOp::Meta(MetaOp::Mkdir) => "meta:mkdir",
            ReqOp::Meta(MetaOp::Readdir) => "meta:readdir",
            ReqOp::Meta(MetaOp::Fsync) => "meta:fsync",
        }
    }

    /// The coarse class (`read` / `write` / `meta`) for aggregation.
    pub fn class(self) -> &'static str {
        match self {
            ReqOp::Read => "read",
            ReqOp::Write => "write",
            ReqOp::Meta(_) => "meta",
        }
    }

    /// Parse a [`ReqOp::name`] back (used by the trace-file analyzer).
    pub fn parse(name: &str) -> Option<ReqOp> {
        match name {
            "read" => Some(ReqOp::Read),
            "write" => Some(ReqOp::Write),
            _ => {
                let op = name.strip_prefix("meta:")?;
                MetaOp::ALL
                    .iter()
                    .find(|m| m.name() == op)
                    .map(|&m| ReqOp::Meta(m))
            }
        }
    }
}

/// Which kind of server recorded a service interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServerKind {
    /// An OST device queue behind an OSS (PFS data path).
    OssDevice,
    /// The metadata server's serial service queue (PFS meta path).
    Mds,
    /// A burst-buffer SSD on an I/O forwarding node.
    IoNodeSsd,
    /// An object-store gateway (admission slot + protocol processing).
    Gateway,
    /// An object-store metadata KV shard.
    Shard,
    /// A peer burst-buffer SSD absorbing a replication copy (write-ack
    /// policies `local_plus_one` / `geographic`).
    Replica,
}

impl ServerKind {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            ServerKind::OssDevice => "oss",
            ServerKind::Mds => "mds",
            ServerKind::IoNodeSsd => "ionode",
            ServerKind::Gateway => "gateway",
            ServerKind::Shard => "shard",
            ServerKind::Replica => "replica",
        }
    }

    /// True when the non-queue part of the interval is *device* time
    /// (storage media) rather than protocol *service* time.
    pub fn is_device(self) -> bool {
        matches!(
            self,
            ServerKind::OssDevice | ServerKind::IoNodeSsd | ServerKind::Replica
        )
    }

    /// Parse a [`ServerKind::name`] back.
    pub fn parse(name: &str) -> Option<ServerKind> {
        match name {
            "oss" => Some(ServerKind::OssDevice),
            "mds" => Some(ServerKind::Mds),
            "ionode" => Some(ServerKind::IoNodeSsd),
            "gateway" => Some(ServerKind::Gateway),
            "shard" => Some(ServerKind::Shard),
            "replica" => Some(ServerKind::Replica),
            _ => None,
        }
    }
}

/// One timestamped observation about a traced request.
///
/// A root request's marks partition its `[issue, done]` interval:
/// consecutive marks tile the timeline, and every gap between them is
/// wire/lookahead time attributed to the fabric. That construction is
/// what makes per-segment attribution sum *exactly* to the end-to-end
/// latency (see the conservation property tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqMark {
    /// The issuing client sent the request.
    Issue {
        /// Issuing rank index (`u32::MAX` for non-rank clients).
        rank: u32,
        /// Operation class.
        op: ReqOp,
        /// Target file / object key.
        file: u32,
        /// Payload bytes (0 for metadata).
        bytes: u64,
        /// Collective-instance index, or [`NO_COLLECTIVE`].
        collective: u32,
        /// Send time.
        at: SimTime,
    },
    /// A fabric carried the request (or its reply) over one hop.
    Hop {
        /// When the packet reached the fabric.
        arrive: SimTime,
        /// When it was delivered to the next entity.
        depart: SimTime,
    },
    /// A server held the request from arrival to completion.
    Server {
        /// What kind of server.
        kind: ServerKind,
        /// Request arrival at the server.
        arrive: SimTime,
        /// Time spent waiting (FIFO queue / admission slot).
        queue: SimDuration,
        /// Service completion (reply leaves no earlier than this).
        depart: SimTime,
    },
    /// The request spawned a child request (I/O-node forward, gateway
    /// backend fan-out). The child's marks live under its own tid.
    Spawn {
        /// The child's trace id.
        child: Tid,
        /// Spawn time.
        at: SimTime,
    },
    /// The issuing client received the reply.
    Done {
        /// Delivery time.
        at: SimTime,
    },
}

impl ReqMark {
    /// The mark's position on the timeline (interval start for
    /// interval-shaped marks).
    pub fn start(&self) -> SimTime {
        match *self {
            ReqMark::Issue { at, .. } => at,
            ReqMark::Hop { arrive, .. } => arrive,
            ReqMark::Server { arrive, .. } => arrive,
            ReqMark::Spawn { at, .. } => at,
            ReqMark::Done { at } => at,
        }
    }
}

/// One recorded event: a mark, stamped with the recording entity and a
/// per-entity sequence number (the deterministic tiebreak when two
/// marks share a timestamp).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReqEvent {
    /// The request this observation belongs to.
    pub tid: Tid,
    /// The entity that recorded it.
    pub entity: u32,
    /// Per-entity record counter (recording order within the entity).
    pub seq: u32,
    /// The observation.
    pub mark: ReqMark,
}

/// A per-entity request-trace buffer.
///
/// The DES engine keeps exactly one recorder per entity and appends to
/// it only from that entity's `on_event` — no locks, no sharing, so the
/// parallel executor pays nothing for tracing beyond the per-entity
/// appends themselves. Whether anything is recorded at all is the
/// engine's switch, not the recorder's.
#[derive(Clone, Debug, Default)]
pub struct ReqRecorder {
    /// Recorded events, in recording order.
    pub events: Vec<ReqEvent>,
    seq: u32,
}

impl ReqRecorder {
    /// Append `mark` for `tid` as observed by `entity`. No-op for
    /// internal traffic (`tid == 0`).
    pub fn record(&mut self, tid: Tid, entity: u32, mark: ReqMark) {
        if tid == 0 {
            return;
        }
        self.events.push(ReqEvent {
            tid,
            entity,
            seq: self.seq,
            mark,
        });
        self.seq += 1;
    }

    /// Take the buffered events (merge-at-finalize).
    pub fn drain(&mut self) -> Vec<ReqEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tid_roundtrips_and_is_never_zero() {
        let t = tid_for(0, 0);
        assert_ne!(t, 0);
        assert_eq!(tid_owner(t), 0);
        let t = tid_for(41, 7);
        assert_eq!(tid_owner(t), 41);
        assert_eq!(t & 0xFFFF_FFFF, 7);
    }

    #[test]
    fn req_op_names_roundtrip() {
        for op in [ReqOp::Read, ReqOp::Write, ReqOp::Meta(MetaOp::Fsync)] {
            assert_eq!(ReqOp::parse(op.name()), Some(op));
        }
        assert_eq!(ReqOp::parse("bogus"), None);
        assert_eq!(ReqOp::Meta(MetaOp::Stat).class(), "meta");
    }

    #[test]
    fn server_kind_names_roundtrip() {
        for kind in [
            ServerKind::OssDevice,
            ServerKind::Mds,
            ServerKind::IoNodeSsd,
            ServerKind::Gateway,
            ServerKind::Shard,
            ServerKind::Replica,
        ] {
            assert_eq!(ServerKind::parse(kind.name()), Some(kind));
        }
        assert!(ServerKind::OssDevice.is_device());
        assert!(ServerKind::Replica.is_device());
        assert!(!ServerKind::Gateway.is_device());
    }

    #[test]
    fn recorder_drops_internal_traffic_and_drains() {
        let mut rec = ReqRecorder::default();
        rec.record(0, 0, ReqMark::Done { at: SimTime::ZERO });
        assert!(rec.events.is_empty(), "tid 0 stays untraced");
        rec.record(1, 0, ReqMark::Done { at: SimTime::ZERO });
        rec.record(1, 0, ReqMark::Done { at: SimTime::ZERO });
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.events[1].seq, 1);
        assert_eq!(rec.drain().len(), 2);
        assert!(rec.events.is_empty());
    }
}
