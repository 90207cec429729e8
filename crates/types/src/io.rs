//! The logical I/O operation vocabulary.
//!
//! Workload generators *produce* [`IoOp`]s, the I/O stack *executes* them,
//! tracers *record* them, and replay tools *re-issue* them. This single
//! vocabulary is what makes the paper's three workload sources (traces,
//! characterization profiles, synthetic descriptions) interchangeable
//! inputs to the same consumers.

use crate::ids::{FileId, Rank};
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Data-path operation kind.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum IoKind {
    /// Read bytes from a file region.
    Read,
    /// Write bytes to a file region.
    Write,
}

impl IoKind {
    /// Lower-case display name, matching trace-format conventions.
    pub fn name(self) -> &'static str {
        match self {
            IoKind::Read => "read",
            IoKind::Write => "write",
        }
    }
}

impl fmt::Display for IoKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Metadata operation kind (served by the metadata server, not the OSTs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum MetaOp {
    /// Create a file (namespace insert + layout allocation).
    Create,
    /// Open an existing file.
    Open,
    /// Close an open file.
    Close,
    /// Stat a file (attribute fetch).
    Stat,
    /// Remove a file from the namespace.
    Unlink,
    /// Create a directory.
    Mkdir,
    /// List a directory.
    Readdir,
    /// Flush dirty data and wait for stability.
    Fsync,
}

impl MetaOp {
    /// All metadata operation kinds, in a stable order (used by counters).
    pub const ALL: [MetaOp; 8] = [
        MetaOp::Create,
        MetaOp::Open,
        MetaOp::Close,
        MetaOp::Stat,
        MetaOp::Unlink,
        MetaOp::Mkdir,
        MetaOp::Readdir,
        MetaOp::Fsync,
    ];

    /// Lower-case display name, matching trace-format conventions.
    pub fn name(self) -> &'static str {
        match self {
            MetaOp::Create => "create",
            MetaOp::Open => "open",
            MetaOp::Close => "close",
            MetaOp::Stat => "stat",
            MetaOp::Unlink => "unlink",
            MetaOp::Mkdir => "mkdir",
            MetaOp::Readdir => "readdir",
            MetaOp::Fsync => "fsync",
        }
    }

    /// Stable index into [`MetaOp::ALL`] (used by fixed-size counter arrays).
    pub fn index(self) -> usize {
        match self {
            MetaOp::Create => 0,
            MetaOp::Open => 1,
            MetaOp::Close => 2,
            MetaOp::Stat => 3,
            MetaOp::Unlink => 4,
            MetaOp::Mkdir => 5,
            MetaOp::Readdir => 6,
            MetaOp::Fsync => 7,
        }
    }
}

impl fmt::Display for MetaOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One logical I/O operation, as issued by an application rank.
///
/// This is the unit exchanged between workload generators, the I/O stack,
/// tracers, and replay tools. `Compute` entries model the time an
/// application spends between I/O phases; preserving them is what lets
/// replay reproduce *burstiness*, not just byte counts.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum IoOp {
    /// Transfer `size` bytes at `offset` of `file`.
    Data {
        /// Read or write.
        kind: IoKind,
        /// Target file.
        file: FileId,
        /// Byte offset within the file.
        offset: u64,
        /// Transfer size in bytes.
        size: u64,
    },
    /// A metadata operation against `file`.
    Meta {
        /// Which namespace/attribute operation.
        op: MetaOp,
        /// Target file (for `Mkdir`/`Readdir` this is the directory id).
        file: FileId,
    },
    /// Application compute time between I/O phases.
    Compute {
        /// How long the rank computes before its next I/O.
        duration: SimDuration,
    },
    /// A synchronization barrier across all ranks of the job.
    Barrier,
}

impl IoOp {
    /// Convenience constructor for a read.
    pub fn read(file: FileId, offset: u64, size: u64) -> Self {
        IoOp::Data {
            kind: IoKind::Read,
            file,
            offset,
            size,
        }
    }
    /// Convenience constructor for a write.
    pub fn write(file: FileId, offset: u64, size: u64) -> Self {
        IoOp::Data {
            kind: IoKind::Write,
            file,
            offset,
            size,
        }
    }
    /// Convenience constructor for a metadata op.
    pub fn meta(op: MetaOp, file: FileId) -> Self {
        IoOp::Meta { op, file }
    }
    /// Convenience constructor for compute time.
    pub fn compute(duration: SimDuration) -> Self {
        IoOp::Compute { duration }
    }

    /// Bytes read (zero unless this is a data read).
    pub fn read_bytes(&self) -> u64 {
        match self {
            IoOp::Data {
                kind: IoKind::Read,
                size,
                ..
            } => *size,
            _ => 0,
        }
    }

    /// Bytes written (zero unless this is a data write).
    pub fn write_bytes(&self) -> u64 {
        match self {
            IoOp::Data {
                kind: IoKind::Write,
                size,
                ..
            } => *size,
            _ => 0,
        }
    }

    /// True for `Data` operations.
    pub fn is_data(&self) -> bool {
        matches!(self, IoOp::Data { .. })
    }

    /// True for `Meta` operations.
    pub fn is_meta(&self) -> bool {
        matches!(self, IoOp::Meta { .. })
    }
}

/// A per-rank program: the sequence of operations one rank issues.
///
/// This is the exchange format between the workload crate (producer) and
/// the iostack/replay crates (consumers).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RankProgram {
    /// Issuing rank.
    pub rank: Rank,
    /// Operations, in issue order.
    pub ops: Vec<IoOp>,
}

impl RankProgram {
    /// A new empty program for `rank`.
    pub fn new(rank: Rank) -> Self {
        RankProgram {
            rank,
            ops: Vec::new(),
        }
    }

    /// Total bytes read by this program.
    pub fn total_read(&self) -> u64 {
        self.ops.iter().map(IoOp::read_bytes).sum()
    }

    /// Total bytes written by this program.
    pub fn total_written(&self) -> u64 {
        self.ops.iter().map(IoOp::write_bytes).sum()
    }

    /// Number of data operations.
    pub fn data_ops(&self) -> usize {
        self.ops.iter().filter(|o| o.is_data()).count()
    }

    /// Number of metadata operations.
    pub fn meta_ops(&self) -> usize {
        self.ops.iter().filter(|o| o.is_meta()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_byte_accounting() {
        let r = IoOp::read(FileId::new(0), 0, 100);
        let w = IoOp::write(FileId::new(0), 100, 50);
        let m = IoOp::meta(MetaOp::Stat, FileId::new(0));
        assert_eq!(r.read_bytes(), 100);
        assert_eq!(r.write_bytes(), 0);
        assert_eq!(w.write_bytes(), 50);
        assert_eq!(m.read_bytes() + m.write_bytes(), 0);
        assert!(m.is_meta() && !m.is_data());
    }

    #[test]
    fn program_totals() {
        let mut p = RankProgram::new(Rank::new(0));
        p.ops.push(IoOp::write(FileId::new(1), 0, 1024));
        p.ops.push(IoOp::compute(SimDuration::from_millis(10)));
        p.ops.push(IoOp::read(FileId::new(1), 0, 512));
        p.ops.push(IoOp::meta(MetaOp::Close, FileId::new(1)));
        assert_eq!(p.total_written(), 1024);
        assert_eq!(p.total_read(), 512);
        assert_eq!(p.data_ops(), 2);
        assert_eq!(p.meta_ops(), 1);
    }

    #[test]
    fn meta_op_indices_are_consistent() {
        for (i, op) in MetaOp::ALL.iter().enumerate() {
            assert_eq!(op.index(), i, "index mismatch for {op}");
        }
    }
}
