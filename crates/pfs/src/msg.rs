//! The simulated wire protocol.
//!
//! All entities in the storage simulation exchange [`PfsMsg`] values.
//! Data and metadata requests carry an explicit *reply route* (the chain
//! of fabric entities a reply must traverse), so servers need no routing
//! tables; forwarding layers (the burst-buffer I/O nodes) rewrite the
//! route when they proxy requests, exactly as an I/O forwarding daemon
//! would.

use crate::striping::Layout;
use pioeval_des::EntityId;
use pioeval_types::{FileId, IoKind, MetaOp, OstId, SimDuration};

/// Correlates replies with outstanding requests (unique per requester).
pub type RequestId = u64;

/// A globally-unique request-trace id ([`pioeval_types::reqtrace`]);
/// `0` marks internal traffic no client issued, whose marks are dropped.
pub type Tid = u64;

/// Fixed protocol header size added to every message, bytes.
pub const HEADER_BYTES: u64 = 256;

/// A data-path RPC: read or write one contiguous object extent on one OST.
#[derive(Clone, Debug)]
pub struct IoRequest {
    /// Requester-unique id echoed in the reply.
    pub id: RequestId,
    /// Entity to deliver the reply to.
    pub reply_to: EntityId,
    /// Fabric chain the reply traverses (outermost hop first).
    pub reply_via: Vec<EntityId>,
    /// Read or write.
    pub kind: IoKind,
    /// The logical file (for statistics and burst-buffer caching).
    pub file: FileId,
    /// Target OST (global index).
    pub ost: OstId,
    /// Offset within the file's backing object on that OST.
    pub obj_offset: u64,
    /// Transfer length in bytes.
    pub len: u64,
    /// Request-trace id (0 = internal traffic), echoed in the reply.
    pub tid: Tid,
}

impl IoRequest {
    /// Bytes this request occupies on the wire (header + payload for
    /// writes; header only for reads).
    pub fn wire_size(&self) -> u64 {
        match self.kind {
            IoKind::Write => HEADER_BYTES + self.len,
            IoKind::Read => HEADER_BYTES,
        }
    }
}

/// Completion of an [`IoRequest`].
#[derive(Clone, Debug)]
pub struct IoReply {
    /// Echoed request id.
    pub id: RequestId,
    /// Echoed direction.
    pub kind: IoKind,
    /// Echoed file.
    pub file: FileId,
    /// Echoed OST.
    pub ost: OstId,
    /// Echoed length.
    pub len: u64,
    /// True if a burst buffer absorbed/served this request.
    pub from_burst_buffer: bool,
    /// Time the request spent queued at the serving device.
    pub queue_delay: SimDuration,
    /// Echoed request-trace id (0 = internal traffic).
    pub tid: Tid,
}

impl IoReply {
    /// Bytes this reply occupies on the wire (header + payload for reads).
    pub fn wire_size(&self) -> u64 {
        match self.kind {
            IoKind::Read => HEADER_BYTES + self.len,
            IoKind::Write => HEADER_BYTES,
        }
    }
}

/// A metadata RPC against the MDS.
#[derive(Clone, Debug)]
pub struct MetaRequest {
    /// Requester-unique id echoed in the reply.
    pub id: RequestId,
    /// Entity to deliver the reply to.
    pub reply_to: EntityId,
    /// Fabric chain the reply traverses (outermost hop first).
    pub reply_via: Vec<EntityId>,
    /// Which namespace/attribute operation.
    pub op: MetaOp,
    /// Target file (or directory for `Mkdir`/`Readdir`).
    pub file: FileId,
    /// Size observed by the client (applied on `Close`/`Fsync`, mirroring
    /// Lustre's lazy size-on-MDS update).
    pub size_hint: u64,
    /// Request-trace id (0 = internal traffic), echoed in the reply.
    pub tid: Tid,
}

/// Completion of a [`MetaRequest`].
#[derive(Clone, Debug)]
pub struct MetaReply {
    /// Echoed request id.
    pub id: RequestId,
    /// Echoed operation.
    pub op: MetaOp,
    /// Echoed file.
    pub file: FileId,
    /// The file's layout (returned by `Create`/`Open`).
    pub layout: Option<Layout>,
    /// The file's size as known by the MDS (returned by `Stat`).
    pub size: u64,
    /// Time the request spent queued at the MDS.
    pub queue_delay: SimDuration,
    /// Echoed request-trace id (0 = internal traffic).
    pub tid: Tid,
}

/// One verb of the S3-like object protocol spoken between compute
/// clients and `pioeval-objstore` gateway nodes. The protocol lives in
/// this crate (next to the PFS verbs) because every entity in a storage
/// simulation shares one message type; the entities that *serve* these
/// verbs live in `pioeval-objstore`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjVerb {
    /// Begin a multipart upload (allocates the object record).
    CreateUpload,
    /// Upload one part of a multipart upload.
    PutPart,
    /// Read a byte range of an object (range GET).
    GetRange,
    /// Fetch object attributes (HEAD).
    Head,
    /// Commit a multipart upload (reassembles parts into the object).
    CompleteUpload,
    /// Remove an object (DELETE).
    Delete,
    /// List keys in a bucket (LIST; flat namespace, per-call cost).
    List,
}

impl ObjVerb {
    /// True for the verbs that move object payload bytes.
    pub fn is_data(self) -> bool {
        matches!(self, ObjVerb::PutPart | ObjVerb::GetRange)
    }
}

/// An object-protocol request from a client to a gateway node.
#[derive(Clone, Debug)]
pub struct ObjRequest {
    /// Requester-unique id echoed in the reply.
    pub id: RequestId,
    /// Entity to deliver the reply to.
    pub reply_to: EntityId,
    /// Fabric chain the reply traverses (outermost hop first).
    pub reply_via: Vec<EntityId>,
    /// The protocol verb.
    pub verb: ObjVerb,
    /// Object key (flat namespace — no directory tree).
    pub key: FileId,
    /// Byte offset within the object (range GET / part placement).
    pub offset: u64,
    /// Transfer length in bytes (zero for pure metadata verbs).
    pub len: u64,
    /// Part number for `PutPart` (offset / part size).
    pub part: u32,
    /// Request-trace id (0 = internal traffic), echoed in the reply.
    pub tid: Tid,
}

impl ObjRequest {
    /// Bytes this request occupies on the wire (header + payload for
    /// part uploads; header only otherwise).
    pub fn wire_size(&self) -> u64 {
        match self.verb {
            ObjVerb::PutPart => HEADER_BYTES + self.len,
            _ => HEADER_BYTES,
        }
    }
}

/// Completion of an [`ObjRequest`].
#[derive(Clone, Debug)]
pub struct ObjReply {
    /// Echoed request id.
    pub id: RequestId,
    /// Echoed verb.
    pub verb: ObjVerb,
    /// Echoed key.
    pub key: FileId,
    /// Echoed transfer length.
    pub len: u64,
    /// Object size as known by the metadata shard (HEAD / complete).
    pub size: u64,
    /// Time the request waited in the gateway's bounded queue.
    pub queue_delay: SimDuration,
    /// Echoed request-trace id (0 = internal traffic).
    pub tid: Tid,
}

impl ObjReply {
    /// Bytes this reply occupies on the wire (header + payload for
    /// range GETs).
    pub fn wire_size(&self) -> u64 {
        match self.verb {
            ObjVerb::GetRange => HEADER_BYTES + self.len,
            _ => HEADER_BYTES,
        }
    }
}

/// A burst-buffer replication copy: a primary I/O node ships one
/// absorbed chunk to a peer SSD so the client ACK can cover two copies
/// (write-ack policies `local_plus_one` / `geographic`).
#[derive(Clone, Debug)]
pub struct ReplicaChunk {
    /// Primary-unique id echoed in the [`PfsMsg::ReplicaDone`] ack.
    pub id: RequestId,
    /// The primary I/O node the ack goes back to.
    pub reply_to: EntityId,
    /// Fabric chain the ack traverses (the replication fabric).
    pub reply_via: Vec<EntityId>,
    /// The logical file the chunk belongs to.
    pub file: FileId,
    /// OST the primary will eventually drain the chunk to (echoed so a
    /// surviving peer can re-drain it after the primary fails).
    pub ost: OstId,
    /// Offset within the file's backing object on that OST.
    pub obj_offset: u64,
    /// Chunk length in bytes.
    pub len: u64,
    /// Request-trace id of the replication leg (0 = internal traffic).
    pub tid: Tid,
}

impl ReplicaChunk {
    /// Bytes this copy occupies on the wire (header + payload).
    pub fn wire_size(&self) -> u64 {
        HEADER_BYTES + self.len
    }
}

/// Acknowledgement of a [`ReplicaChunk`].
#[derive(Clone, Debug)]
pub struct ReplicaAck {
    /// Echoed replication id.
    pub id: RequestId,
    /// Echoed chunk length.
    pub len: u64,
    /// False when the peer was itself failed and dropped the copy; the
    /// primary must not count the chunk as replicated.
    pub stored: bool,
    /// Echoed request-trace id (0 = internal traffic).
    pub tid: Tid,
}

/// A message in transit through a fabric: deliver `payload` to `dst`,
/// charging `size` bytes of serialization.
#[derive(Clone, Debug)]
pub struct NetPacket {
    /// Next-hop destination entity (a server, client, or another fabric).
    pub dst: EntityId,
    /// Wire size in bytes.
    pub size: u64,
    /// The message to deliver.
    pub payload: Box<PfsMsg>,
}

/// Every message exchanged in the storage simulation.
#[derive(Clone, Debug)]
pub enum PfsMsg {
    /// To a fabric entity: forward this packet.
    Route(NetPacket),
    /// To an OSS or I/O node: a data request.
    Io(IoRequest),
    /// To a requester: data request completion.
    IoDone(IoReply),
    /// To the MDS: a metadata request.
    Meta(MetaRequest),
    /// To a requester: metadata completion.
    MetaDone(MetaReply),
    /// To an object-store gateway: an object-protocol request.
    Obj(ObjRequest),
    /// To a requester: object-protocol completion.
    ObjDone(ObjReply),
    /// To a peer I/O node: absorb a replication copy of a burst-buffer
    /// chunk (rides the replication fabric).
    Replicate(ReplicaChunk),
    /// To a primary I/O node: the peer's replication acknowledgement.
    ReplicaDone(ReplicaAck),
    /// To a surviving peer: the named primary I/O node failed — re-drain
    /// any replica chunks held on its behalf to backing storage.
    Takeover {
        /// Entity index (`EntityId.0`) of the failed primary.
        primary: u32,
    },
    /// Failure-injector control message, scheduled directly at build
    /// time (never routed through a fabric): the receiving entity
    /// enacts the failure.
    Fail {
        /// What breaks.
        kind: pioeval_resil::FailureKind,
        /// Component index the failure names (interpretation depends on
        /// the receiving entity: storage-node index for gateways, the
        /// receiver itself for I/O nodes).
        target: u32,
    },
    /// Self-scheduled recovery: the failed component rejoins.
    Recover,
    /// Server-internal: a device finished the access identified by `token`.
    DeviceDone {
        /// Correlation token chosen by the server.
        token: u64,
    },
    /// Generic client-side timer (application compute phases, retries).
    Timer {
        /// Correlation token chosen by the client.
        token: u64,
    },
    /// Application-level message between client entities (collective-I/O
    /// shuffles, barrier tokens). Opaque to the storage system; `bytes`
    /// is the logical payload size charged on the wire.
    App {
        /// Application-chosen correlation tag.
        tag: u64,
        /// Logical payload bytes.
        bytes: u64,
    },
    /// Kick-off message delivered to client entities at their start time.
    Start,
}

/// Build a routed message: wraps `msg` so that it traverses the fabric
/// chain `via` (in order) and is finally delivered to `dst`. Returns the
/// first-hop entity to send to and the message to send.
///
/// With an empty `via`, the message is addressed directly to `dst`
/// (useful for tests with co-located entities).
pub fn route(via: &[EntityId], dst: EntityId, size: u64, msg: PfsMsg) -> (EntityId, PfsMsg) {
    let mut current_dst = dst;
    let mut current = msg;
    for hop in via.iter().rev() {
        current = PfsMsg::Route(NetPacket {
            dst: current_dst,
            size,
            payload: Box::new(current),
        });
        current_dst = *hop;
    }
    (current_dst, current)
}

/// The request-trace id carried by `msg`, looking through any nested
/// `Route` wrapping to the innermost request/reply. Returns 0 (internal
/// traffic) for messages that carry no request.
pub fn payload_tid(msg: &PfsMsg) -> Tid {
    match msg {
        PfsMsg::Route(p) => payload_tid(&p.payload),
        PfsMsg::Io(r) => r.tid,
        PfsMsg::IoDone(r) => r.tid,
        PfsMsg::Meta(r) => r.tid,
        PfsMsg::MetaDone(r) => r.tid,
        PfsMsg::Obj(r) => r.tid,
        PfsMsg::ObjDone(r) => r.tid,
        PfsMsg::Replicate(r) => r.tid,
        PfsMsg::ReplicaDone(r) => r.tid,
        _ => 0,
    }
}

/// The logical transfer length (bytes) carried by `msg`, looking
/// through any nested `Route` wrapping. Returns 0 for metadata and
/// control messages.
pub fn payload_bytes(msg: &PfsMsg) -> u64 {
    match msg {
        PfsMsg::Route(p) => payload_bytes(&p.payload),
        PfsMsg::Io(r) => r.len,
        PfsMsg::IoDone(r) => r.len,
        PfsMsg::Obj(r) => r.len,
        PfsMsg::ObjDone(r) => r.len,
        PfsMsg::Replicate(r) => r.len,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_account_for_payload_direction() {
        let mut req = IoRequest {
            id: 1,
            reply_to: EntityId(0),
            reply_via: vec![],
            kind: IoKind::Write,
            file: FileId::new(0),
            ost: OstId::new(0),
            obj_offset: 0,
            len: 4096,
            tid: 0,
        };
        assert_eq!(req.wire_size(), HEADER_BYTES + 4096);
        req.kind = IoKind::Read;
        assert_eq!(req.wire_size(), HEADER_BYTES);

        let mut rep = IoReply {
            id: 1,
            kind: IoKind::Read,
            file: FileId::new(0),
            ost: OstId::new(0),
            len: 4096,
            from_burst_buffer: false,
            queue_delay: SimDuration::ZERO,
            tid: 0,
        };
        assert_eq!(rep.wire_size(), HEADER_BYTES + 4096);
        rep.kind = IoKind::Write;
        assert_eq!(rep.wire_size(), HEADER_BYTES);
    }

    #[test]
    fn obj_wire_sizes_follow_payload_direction() {
        let mut req = ObjRequest {
            id: 1,
            reply_to: EntityId(0),
            reply_via: vec![],
            verb: ObjVerb::PutPart,
            key: FileId::new(0),
            offset: 0,
            len: 8192,
            part: 0,
            tid: 0,
        };
        assert_eq!(req.wire_size(), HEADER_BYTES + 8192);
        req.verb = ObjVerb::GetRange;
        assert_eq!(req.wire_size(), HEADER_BYTES);
        req.verb = ObjVerb::Head;
        assert_eq!(req.wire_size(), HEADER_BYTES);

        let mut rep = ObjReply {
            id: 1,
            verb: ObjVerb::GetRange,
            key: FileId::new(0),
            len: 8192,
            size: 0,
            queue_delay: SimDuration::ZERO,
            tid: 0,
        };
        assert_eq!(rep.wire_size(), HEADER_BYTES + 8192);
        rep.verb = ObjVerb::PutPart;
        assert_eq!(rep.wire_size(), HEADER_BYTES);
        assert!(ObjVerb::PutPart.is_data() && ObjVerb::GetRange.is_data());
        assert!(!ObjVerb::List.is_data());
    }

    #[test]
    fn route_nests_hops_in_order() {
        let (first, msg) = route(
            &[EntityId(10), EntityId(20)],
            EntityId(30),
            512,
            PfsMsg::Start,
        );
        assert_eq!(first, EntityId(10));
        let PfsMsg::Route(p1) = msg else {
            panic!("expected outer Route")
        };
        assert_eq!(p1.dst, EntityId(20));
        let PfsMsg::Route(p2) = *p1.payload else {
            panic!("expected inner Route")
        };
        assert_eq!(p2.dst, EntityId(30));
        assert!(matches!(*p2.payload, PfsMsg::Start));
    }

    #[test]
    fn route_with_no_hops_is_direct() {
        let (first, msg) = route(&[], EntityId(5), 0, PfsMsg::Start);
        assert_eq!(first, EntityId(5));
        assert!(matches!(msg, PfsMsg::Start));
    }
}
