//! The I/O operation kinds: data ([`IoKind`]) and metadata ([`MetaOp`]).
//!
//! Every layer speaks them: the I/O stack's programs, the storage
//! protocols, the layer records tracers capture, and the request traces.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_op_indices_are_consistent() {
        for (i, op) in MetaOp::ALL.iter().enumerate() {
            assert_eq!(op.index(), i, "index mismatch for {op}");
        }
    }
}
