//! Storage-target abstraction: the bottom layer of the stack.
//!
//! The layered I/O stack of Fig. 2 traditionally bottoms out in a
//! POSIX-speaking parallel file system; emerging workloads increasingly
//! target S3-like object stores instead. [`StorageTarget`] makes the
//! bottom layer a choice — the same compiled rank programs run
//! unchanged against either backend, so PFS-vs-objstore becomes an
//! evaluation axis rather than a code fork.

use pioeval_des::{EntityId, ExecMode, RunResult, Simulation};
use pioeval_objstore::{ObjClientPort, ObjCluster};
use pioeval_pfs::msg::PfsMsg;
use pioeval_pfs::{ClientPort, Cluster, MetaReply, ObjReply, RequestId};
use pioeval_types::{FileId, IoKind, MetaOp, Result};

/// A rank's protocol port onto whichever backend the job targets.
///
/// Wraps [`ClientPort`] (PFS: layouts, striping, OST addressing) or
/// [`ObjClientPort`] (object store: multipart splitting, gateway
/// routing) behind the four calls the rank interpreter makes.
#[derive(Clone, Debug)]
pub enum StoragePort {
    /// PFS protocol (metadata server + striped OSTs).
    Pfs(ClientPort),
    /// Object protocol (gateways + flat metadata KV).
    Obj(ObjClientPort),
}

impl StoragePort {
    /// Build a metadata request. Returns (first hop entity, message, id).
    pub fn meta(&mut self, op: MetaOp, file: FileId) -> (EntityId, PfsMsg, RequestId) {
        match self {
            StoragePort::Pfs(p) => p.meta(op, file),
            StoragePort::Obj(p) => p.meta(op, file),
        }
    }

    /// Build the data requests for a logical extent access.
    pub fn data(
        &mut self,
        kind: IoKind,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> Result<Vec<(EntityId, PfsMsg, RequestId)>> {
        match self {
            StoragePort::Pfs(p) => p.data(kind, file, offset, len),
            StoragePort::Obj(p) => p.data(kind, file, offset, len),
        }
    }

    /// Build an application-level message to another client entity.
    pub fn app(&self, dst: EntityId, tag: u64, bytes: u64) -> (EntityId, PfsMsg) {
        match self {
            StoragePort::Pfs(p) => p.app(dst, tag, bytes),
            StoragePort::Obj(p) => p.app(dst, tag, bytes),
        }
    }

    /// Digest a PFS metadata reply (no-op on the object port — the
    /// object protocol never sends `MetaDone`).
    pub fn on_meta_reply(&mut self, rep: &MetaReply) {
        if let StoragePort::Pfs(p) = self {
            p.on_meta_reply(rep);
        }
    }

    /// Digest an object reply (no-op on the PFS port — the PFS protocol
    /// never sends `ObjDone`).
    pub fn on_obj_reply(&mut self, rep: &ObjReply) {
        if let StoragePort::Obj(p) = self {
            p.on_obj_reply(rep);
        }
    }
}

/// A fully assembled storage backend for a job to run against.
pub enum StorageTarget {
    /// A parallel file system cluster.
    Pfs(Cluster),
    /// An S3-like object store.
    ObjStore(ObjCluster),
}

impl StorageTarget {
    /// Run the simulation to completion (sequential executor).
    pub fn run(&mut self) -> RunResult {
        match self {
            StorageTarget::Pfs(c) => c.run(),
            StorageTarget::ObjStore(c) => c.run(),
        }
    }

    /// Run the simulation to completion with an explicit executor.
    pub fn run_exec(&mut self, exec: &ExecMode) -> RunResult {
        match self {
            StorageTarget::Pfs(c) => c.run_exec(exec),
            StorageTarget::ObjStore(c) => c.run_exec(exec),
        }
    }

    /// [`StorageTarget::run_exec`] with per-worker phase profiling: also
    /// returns the parallel executor's merged [`pioeval_types::ExecProfile`]
    /// (`None` for sequential execution).
    pub fn run_exec_profiled(
        &mut self,
        exec: &ExecMode,
    ) -> (RunResult, Option<pioeval_types::ExecProfile>) {
        match self {
            StorageTarget::Pfs(c) => c.run_exec_profiled(exec),
            StorageTarget::ObjStore(c) => c.run_exec_profiled(exec),
        }
    }

    /// The compute-side fabric entity (job coordinators attach to it).
    pub fn compute_fabric(&self) -> EntityId {
        match self {
            StorageTarget::Pfs(c) => c.handles.compute_fabric,
            StorageTarget::ObjStore(c) => c.handles.compute_fabric,
        }
    }

    /// The backend's simulation.
    pub(crate) fn sim_mut(&mut self) -> &mut Simulation<PfsMsg> {
        match self {
            StorageTarget::Pfs(c) => &mut c.sim,
            StorageTarget::ObjStore(c) => &mut c.sim,
        }
    }

    /// Aggregate the backend's resilience report (`None` when no
    /// resilience configuration was supplied).
    pub fn resilience(&self) -> Option<pioeval_resil::ResilienceReport> {
        match self {
            StorageTarget::Pfs(c) => c.resilience(),
            StorageTarget::ObjStore(c) => c.resilience(),
        }
    }
}
