//! Cluster configuration.
//!
//! Defaults approximate a small Lustre-class installation: a 100 Gb/s
//! compute fabric, a 10 GbE storage fabric (the "secondary, slower
//! fabric" of the paper's Fig. 1), HDD-backed OSTs, and SSD burst
//! buffers on the I/O nodes.

use pioeval_types::{bytes, Error, Result, SimDuration};
use serde::{Deserialize, Serialize};

/// A network fabric: propagation latency plus per-endpoint serialization
/// bandwidth. Older configurations may carry an `agg_bw` key; it is
/// ignored when loading.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FabricConfig {
    /// One-way propagation latency per message.
    pub latency: SimDuration,
    /// Per-endpoint link bandwidth, bytes/second.
    pub link_bw: u64,
}

impl FabricConfig {
    /// 100 Gb/s InfiniBand-class compute fabric.
    pub fn infiniband() -> Self {
        FabricConfig {
            latency: SimDuration::from_micros(1),
            link_bw: 12_500_000_000, // 100 Gb/s
        }
    }

    /// 10 GbE-class storage fabric.
    pub fn ten_gbe() -> Self {
        FabricConfig {
            latency: SimDuration::from_micros(10),
            link_bw: 1_250_000_000, // 10 Gb/s
        }
    }
}

/// A storage device service model: per-operation overhead, positioning
/// (seek) cost for non-contiguous access, and directional bandwidth.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Fixed cost charged to every operation (controller/firmware).
    pub per_op: SimDuration,
    /// Positioning cost when an access does not start where the previous
    /// one ended (zero for SSD-class devices).
    pub seek: SimDuration,
    /// Sequential read bandwidth, bytes/second.
    pub read_bw: u64,
    /// Sequential write bandwidth, bytes/second.
    pub write_bw: u64,
}

impl DeviceConfig {
    /// A nearline HDD: ~4 ms positioning, 150/140 MB/s.
    pub fn hdd() -> Self {
        DeviceConfig {
            per_op: SimDuration::from_micros(100),
            seek: SimDuration::from_millis(4),
            read_bw: 150_000_000,
            write_bw: 140_000_000,
        }
    }

    /// An NVMe SSD (burst-buffer class): no positioning cost, 2 GB/s.
    pub fn nvme() -> Self {
        DeviceConfig {
            per_op: SimDuration::from_micros(10),
            seek: SimDuration::ZERO,
            read_bw: 2_500_000_000,
            write_bw: 2_000_000_000,
        }
    }
}

/// Metadata server service costs. All costs must be at least the engine
/// lookahead (validated by [`ClusterConfig::validate`]).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MdsConfig {
    /// Cost of a create (namespace insert + layout allocation).
    pub create: SimDuration,
    /// Cost of an open (lookup + layout fetch).
    pub open: SimDuration,
    /// Cost of a close.
    pub close: SimDuration,
    /// Cost of a stat.
    pub stat: SimDuration,
    /// Cost of an unlink.
    pub unlink: SimDuration,
    /// Cost of a mkdir.
    pub mkdir: SimDuration,
    /// Cost of a readdir (per call, not per entry).
    pub readdir: SimDuration,
    /// Cost of coordinating an fsync.
    pub fsync: SimDuration,
}

impl Default for MdsConfig {
    fn default() -> Self {
        MdsConfig {
            create: SimDuration::from_micros(150),
            open: SimDuration::from_micros(60),
            close: SimDuration::from_micros(25),
            stat: SimDuration::from_micros(30),
            unlink: SimDuration::from_micros(100),
            mkdir: SimDuration::from_micros(150),
            readdir: SimDuration::from_micros(200),
            fsync: SimDuration::from_micros(50),
        }
    }
}

impl MdsConfig {
    /// The service cost of one metadata operation.
    pub fn cost(&self, op: pioeval_types::MetaOp) -> SimDuration {
        use pioeval_types::MetaOp::*;
        match op {
            Create => self.create,
            Open => self.open,
            Close => self.close,
            Stat => self.stat,
            Unlink => self.unlink,
            Mkdir => self.mkdir,
            Readdir => self.readdir,
            Fsync => self.fsync,
        }
    }
}

/// Default file layout policy applied by the MDS at create time.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LayoutPolicy {
    /// Stripe size in bytes.
    pub stripe_size: u64,
    /// Number of OSTs each file is striped over (clamped to the OST count).
    pub stripe_count: u32,
}

impl Default for LayoutPolicy {
    fn default() -> Self {
        LayoutPolicy {
            stripe_size: bytes::mib(1),
            stripe_count: 4,
        }
    }
}

/// Full cluster description (Fig. 1 of the paper).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of compute clients (the caller registers one client entity
    /// per slot; the cluster builder sizes routing tables from this).
    pub num_clients: usize,
    /// Number of I/O forwarding nodes with burst buffers (0 disables the
    /// tier; clients then address the storage cluster directly).
    pub num_ionodes: usize,
    /// Number of metadata servers (files are hashed across them,
    /// Lustre-DNE-style). Default 1 — the classic serial-MDS design.
    pub num_mds: usize,
    /// Number of object storage servers.
    pub num_oss: usize,
    /// OSTs (backing devices) per OSS.
    pub osts_per_oss: usize,
    /// Compute-side fabric.
    pub compute_fabric: FabricConfig,
    /// Storage-side fabric (typically slower — the paper's Fig. 1).
    pub storage_fabric: FabricConfig,
    /// Metadata service costs.
    pub mds: MdsConfig,
    /// OST device model.
    pub ost_device: DeviceConfig,
    /// Burst-buffer device model (I/O nodes).
    pub bb_device: DeviceConfig,
    /// Burst-buffer capacity per I/O node, bytes.
    pub bb_capacity: u64,
    /// Number of concurrent drain streams per I/O node.
    pub bb_drain_streams: usize,
    /// Maximum bytes per data RPC; clients split larger transfers.
    pub max_rpc_size: u64,
    /// Layout applied to newly created files.
    pub layout: LayoutPolicy,
    /// Per-OST device overrides (global OST index → device model), for
    /// degraded-device / straggler injection studies.
    pub ost_overrides: Vec<(u32, DeviceConfig)>,
    /// Resilience tier: write-ack policy, geo latency profile, and
    /// failure schedule for the burst buffers. `None` (the default, and
    /// what configs without the key deserialize to) keeps the historical
    /// local-only behavior with no failures.
    pub resil: Option<pioeval_resil::ResilConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_clients: 8,
            num_ionodes: 0,
            num_mds: 1,
            num_oss: 4,
            osts_per_oss: 2,
            compute_fabric: FabricConfig::infiniband(),
            storage_fabric: FabricConfig::ten_gbe(),
            mds: MdsConfig::default(),
            ost_device: DeviceConfig::hdd(),
            bb_device: DeviceConfig::nvme(),
            bb_capacity: bytes::gib(16),
            bb_drain_streams: 4,
            max_rpc_size: bytes::mib(1),
            layout: LayoutPolicy::default(),
            ost_overrides: Vec::new(),
            resil: None,
        }
    }
}

impl ClusterConfig {
    /// Total number of OSTs in the cluster.
    pub fn total_osts(&self) -> usize {
        self.num_oss * self.osts_per_oss
    }

    /// Validate invariants the simulator depends on.
    pub fn validate(&self, lookahead: SimDuration) -> Result<()> {
        if self.num_clients == 0 {
            return Err(Error::Config("num_clients must be > 0".into()));
        }
        if self.num_oss == 0 || self.osts_per_oss == 0 {
            return Err(Error::Config("need at least one OSS and OST".into()));
        }
        if self.num_mds == 0 {
            return Err(Error::Config("need at least one MDS".into()));
        }
        if self.max_rpc_size == 0 {
            return Err(Error::Config("max_rpc_size must be > 0".into()));
        }
        if self.layout.stripe_size == 0 || self.layout.stripe_count == 0 {
            return Err(Error::Config(
                "stripe_size and stripe_count must be > 0".into(),
            ));
        }
        for (name, f) in [
            ("compute", &self.compute_fabric),
            ("storage", &self.storage_fabric),
        ] {
            if f.link_bw == 0 {
                return Err(Error::Config(format!("{name} fabric link_bw is 0")));
            }
            if f.latency < lookahead {
                return Err(Error::Config(format!(
                    "{name} fabric latency {} below engine lookahead {}",
                    f.latency, lookahead
                )));
            }
        }
        for (name, d) in [("ost", &self.ost_device), ("bb", &self.bb_device)] {
            if d.read_bw == 0 || d.write_bw == 0 {
                return Err(Error::Config(format!("{name} device bandwidth is 0")));
            }
        }
        if self.num_ionodes > 0 && self.bb_drain_streams == 0 {
            return Err(Error::Config("bb_drain_streams must be > 0".into()));
        }
        for &(ost, d) in &self.ost_overrides {
            if ost as usize >= self.total_osts() {
                return Err(Error::Config(format!(
                    "ost override {ost} out of range (total {})",
                    self.total_osts()
                )));
            }
            if d.read_bw == 0 || d.write_bw == 0 {
                return Err(Error::Config(format!(
                    "ost override {ost} has zero bandwidth"
                )));
            }
        }
        if let Some(resil) = &self.resil {
            if resil.ack_mode.waits_for_replica() {
                if !resil.geo.is_square() {
                    return Err(Error::Config(
                        "resil geo latency matrix must be square over the site list".into(),
                    ));
                }
                if resil.geo.link_bw == 0 {
                    return Err(Error::Config("resil geo link_bw is 0".into()));
                }
                // The replication fabric is a real DES entity; its
                // latency must cover the lookahead like any other fabric.
                let lat = resil.geo.replica_latency(resil.ack_mode);
                if lat < lookahead {
                    return Err(Error::Config(format!(
                        "replication fabric latency {lat} below engine lookahead {lookahead}"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        let cfg = ClusterConfig::default();
        assert!(cfg.validate(SimDuration::from_micros(1)).is_ok());
        assert_eq!(cfg.total_osts(), 8);
    }

    #[test]
    fn zero_clients_rejected() {
        let cfg = ClusterConfig {
            num_clients: 0,
            ..ClusterConfig::default()
        };
        assert!(cfg.validate(SimDuration::ZERO).is_err());
    }

    #[test]
    fn fabric_latency_must_cover_lookahead() {
        let cfg = ClusterConfig::default();
        // Compute fabric latency is 1us; a 2us lookahead must be rejected.
        assert!(cfg.validate(SimDuration::from_micros(2)).is_err());
    }

    #[test]
    fn mds_costs_map_all_ops() {
        let mds = MdsConfig::default();
        for op in pioeval_types::MetaOp::ALL {
            assert!(mds.cost(op) > SimDuration::ZERO, "{op} has zero cost");
        }
    }

    #[test]
    fn storage_fabric_is_slower_than_compute() {
        // The paper's Fig. 1 shows the storage cluster behind a slower
        // secondary fabric; keep the defaults faithful to that.
        assert!(FabricConfig::ten_gbe().link_bw < FabricConfig::infiniband().link_bw);
    }
}
