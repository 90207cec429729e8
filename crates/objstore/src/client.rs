//! Client-side protocol helper.
//!
//! [`ObjClientPort`] is the object-protocol twin of
//! [`pioeval_pfs::ClientPort`]: it allocates request ids, splits
//! transfers at multipart boundaries, and routes requests to the
//! client's assigned gateway. The big contrast with the PFS port is
//! that there is *no layout handshake* — objects need no open-before-
//! access, clients never learn placement, and every byte moves through
//! a gateway rather than straight to the storage servers.
//!
//! POSIX-flavoured metadata verbs (what the upper I/O stack speaks) map
//! onto object verbs here: create begins a multipart upload,
//! close/fsync completes it, stat/open are HEADs, unlink deletes, and
//! the directory verbs degenerate to bucket LISTs — the flat-namespace
//! translation layer every S3 adaptor implements.

use pioeval_des::EntityId;
use pioeval_pfs::msg::{route, HEADER_BYTES};
use pioeval_pfs::{ObjReply, ObjRequest, ObjVerb, PfsMsg, RequestId};
use pioeval_types::{tid_for, FileId, IoKind, MetaOp, Result};
use std::collections::HashMap;

/// Client-side protocol state for one compute client.
#[derive(Clone, Debug)]
pub struct ObjClientPort {
    me: EntityId,
    compute_fabric: EntityId,
    storage_fabric: EntityId,
    /// The gateway this client is assigned to (round-robin at build).
    gateway: EntityId,
    part_size: u64,
    sizes: HashMap<FileId, u64>,
    next_id: RequestId,
}

impl ObjClientPort {
    /// Build a port for client entity `me`, speaking to `gateway`.
    pub fn new(
        me: EntityId,
        compute_fabric: EntityId,
        storage_fabric: EntityId,
        gateway: EntityId,
        part_size: u64,
    ) -> Self {
        ObjClientPort {
            me,
            compute_fabric,
            storage_fabric,
            gateway,
            part_size: part_size.max(1),
            sizes: HashMap::new(),
            next_id: 0,
        }
    }

    fn fresh_id(&mut self) -> RequestId {
        self.next_id += 1;
        self.next_id
    }

    /// The size this client believes object `file` has (local view).
    pub fn file_size(&self, file: FileId) -> u64 {
        self.sizes.get(&file).copied().unwrap_or(0)
    }

    /// The object verb a POSIX-style metadata op translates to.
    pub fn verb_for(op: MetaOp) -> ObjVerb {
        match op {
            MetaOp::Create => ObjVerb::CreateUpload,
            MetaOp::Open | MetaOp::Stat => ObjVerb::Head,
            MetaOp::Close | MetaOp::Fsync => ObjVerb::CompleteUpload,
            MetaOp::Unlink => ObjVerb::Delete,
            MetaOp::Mkdir | MetaOp::Readdir => ObjVerb::List,
        }
    }

    fn request(
        &mut self,
        verb: ObjVerb,
        key: FileId,
        offset: u64,
        len: u64,
        part: u32,
    ) -> ObjRequest {
        let id = self.fresh_id();
        ObjRequest {
            id,
            reply_to: self.me,
            reply_via: vec![self.storage_fabric, self.compute_fabric],
            verb,
            key,
            offset,
            len,
            part,
            tid: tid_for(self.me.0, id),
        }
    }

    /// Build a metadata request. Returns (first hop entity, message, id).
    /// The caller sends the message with at least the engine lookahead.
    pub fn meta(&mut self, op: MetaOp, file: FileId) -> (EntityId, PfsMsg, RequestId) {
        let verb = Self::verb_for(op);
        // CompleteUpload carries the client's size view as a hint; the
        // gateway maxes it with its manifest before forwarding.
        let offset = if verb == ObjVerb::CompleteUpload {
            self.file_size(file)
        } else {
            0
        };
        let req = self.request(verb, file, offset, 0, 0);
        let id = req.id;
        let wire = req.wire_size();
        let (hop, msg) = route(
            &[self.compute_fabric, self.storage_fabric],
            self.gateway,
            wire,
            PfsMsg::Obj(req),
        );
        (hop, msg, id)
    }

    /// Build the object requests for a logical extent access: split the
    /// extent at absolute `part_size` boundaries (each part is placed —
    /// and queued at the gateway — independently).
    ///
    /// Never fails: the object protocol has no open-before-access, so
    /// the `Result` only mirrors the PFS port's signature.
    pub fn data(
        &mut self,
        kind: IoKind,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<Vec<(EntityId, PfsMsg, RequestId)>> {
        if kind == IoKind::Write {
            let size = self.sizes.entry(file).or_insert(0);
            *size = (*size).max(offset + len);
        }
        let verb = match kind {
            IoKind::Write => ObjVerb::PutPart,
            IoKind::Read => ObjVerb::GetRange,
        };
        let mut rpcs = Vec::new();
        let end = offset + len;
        let mut pos = offset;
        while pos < end {
            let part = pos / self.part_size;
            let boundary = (part + 1) * self.part_size;
            let piece = end.min(boundary) - pos;
            let req = self.request(verb, file, pos, piece, part as u32);
            let id = req.id;
            let wire = req.wire_size();
            let (hop, msg) = route(
                &[self.compute_fabric, self.storage_fabric],
                self.gateway,
                wire,
                PfsMsg::Obj(req),
            );
            rpcs.push((hop, msg, id));
            pos += piece;
        }
        Ok(rpcs)
    }

    /// Build an application-level message to another client entity,
    /// routed over the compute fabric. Returns (first hop, message).
    pub fn app(&self, dst: EntityId, tag: u64, bytes: u64) -> (EntityId, PfsMsg) {
        route(
            &[self.compute_fabric],
            dst,
            HEADER_BYTES + bytes,
            PfsMsg::App { tag, bytes },
        )
    }

    /// Digest an object reply (HEAD / CompleteUpload refresh the size view).
    pub fn on_obj_reply(&mut self, rep: &ObjReply) {
        if matches!(rep.verb, ObjVerb::Head | ObjVerb::CompleteUpload) {
            let size = self.sizes.entry(rep.key).or_insert(0);
            *size = (*size).max(rep.size);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port() -> ObjClientPort {
        // me=9, compute fabric=0, storage fabric=1, gateway=7, 1 KiB parts.
        ObjClientPort::new(EntityId(9), EntityId(0), EntityId(1), EntityId(7), 1024)
    }

    #[test]
    fn data_splits_at_absolute_part_boundaries() {
        let mut p = port();
        // 3000 bytes starting at 512: parts 0 (512), 1 (1024), 2 (1024), 3 (440).
        let rpcs = p.data(IoKind::Write, FileId::new(1), 512, 3000).unwrap();
        assert_eq!(rpcs.len(), 4);
        let parts: Vec<(u32, u64, u64)> = rpcs
            .iter()
            .map(|(_, msg, _)| {
                let PfsMsg::Route(pkt) = msg else { panic!() };
                let PfsMsg::Route(inner) = pkt.payload.as_ref() else {
                    panic!()
                };
                assert_eq!(inner.dst, EntityId(7));
                let PfsMsg::Obj(req) = inner.payload.as_ref() else {
                    panic!()
                };
                assert_eq!(req.verb, ObjVerb::PutPart);
                (req.part, req.offset, req.len)
            })
            .collect();
        assert_eq!(
            parts,
            vec![
                (0, 512, 512),
                (1, 1024, 1024),
                (2, 2048, 1024),
                (3, 3072, 440)
            ]
        );
        assert_eq!(p.file_size(FileId::new(1)), 3512);
    }

    #[test]
    fn reads_need_no_open() {
        let mut p = port();
        let rpcs = p.data(IoKind::Read, FileId::new(42), 0, 100).unwrap();
        assert_eq!(rpcs.len(), 1);
        // First hop is always the compute fabric.
        assert_eq!(rpcs[0].0, EntityId(0));
    }

    #[test]
    fn meta_ops_translate_to_object_verbs() {
        assert_eq!(
            ObjClientPort::verb_for(MetaOp::Create),
            ObjVerb::CreateUpload
        );
        assert_eq!(ObjClientPort::verb_for(MetaOp::Open), ObjVerb::Head);
        assert_eq!(
            ObjClientPort::verb_for(MetaOp::Close),
            ObjVerb::CompleteUpload
        );
        assert_eq!(
            ObjClientPort::verb_for(MetaOp::Fsync),
            ObjVerb::CompleteUpload
        );
        assert_eq!(ObjClientPort::verb_for(MetaOp::Unlink), ObjVerb::Delete);
        assert_eq!(ObjClientPort::verb_for(MetaOp::Readdir), ObjVerb::List);
    }

    #[test]
    fn complete_upload_carries_size_hint() {
        let mut p = port();
        p.data(IoKind::Write, FileId::new(3), 0, 5000).unwrap();
        let (_, msg, _) = p.meta(MetaOp::Close, FileId::new(3));
        let PfsMsg::Route(pkt) = msg else { panic!() };
        let PfsMsg::Route(inner) = pkt.payload.as_ref() else {
            panic!()
        };
        let PfsMsg::Obj(req) = inner.payload.as_ref() else {
            panic!()
        };
        assert_eq!(req.verb, ObjVerb::CompleteUpload);
        assert_eq!(req.offset, 5000);
    }

    #[test]
    fn head_reply_updates_size_view() {
        let mut p = port();
        p.on_obj_reply(&ObjReply {
            id: 1,
            verb: ObjVerb::Head,
            key: FileId::new(4),
            len: 0,
            size: 777,
            queue_delay: pioeval_types::SimDuration::ZERO,
            tid: 0,
        });
        assert_eq!(p.file_size(FileId::new(4)), 777);
    }
}
