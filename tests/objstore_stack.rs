//! Integration tests for the object-store bottom layer: the same HPC
//! workload driven through the full I/O stack onto the S3-like target
//! must behave identically under the sequential and the conservative
//! parallel DES executors, and multipart reassembly must be byte-exact
//! no matter in which order part commits land.

use pioeval::core::{measure_target_with_exec, TargetConfig, WorkloadSource};
use pioeval::des::{Backend, ExecMode, ParallelConfig};
use pioeval::iostack::StackConfig;
use pioeval::objstore::{ExtentMap, ObjStoreConfig, Placement};
use pioeval::workloads::{DlioLike, IorLike};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Everything observable about one measurement trip, folded into a
/// comparable value: job-level results, metadata traffic, and the
/// gateway-side view. Any divergence between executors shows up here.
fn fingerprint(target: &TargetConfig, source: &WorkloadSource, exec: &ExecMode) -> String {
    let report =
        measure_target_with_exec(target, source, 8, StackConfig::default(), 7, exec).unwrap();
    let mut fp = format!(
        "makespan={:?} written={} read={} mds={}",
        report.makespan(),
        report.profile.bytes_written(),
        report.profile.bytes_read(),
        report.mds_ops,
    );
    for g in &report.gateways {
        fp.push_str(&format!(
            " gw[req={} get={} put={} wait={} peak={}]",
            g.requests, g.get_bytes, g.put_bytes, g.queue_wait, g.peak_queue_depth
        ));
    }
    fp
}

#[test]
fn objstore_executors_agree_through_the_full_stack() {
    let target = TargetConfig::ObjStore(ObjStoreConfig {
        num_clients: 8,
        num_gateways: 2,
        num_shards: 2,
        ..ObjStoreConfig::default()
    });
    let sources = [
        WorkloadSource::Synthetic(Box::new(IorLike::default())),
        WorkloadSource::Synthetic(Box::new(DlioLike {
            num_samples: 64,
            epochs: 2,
            ..DlioLike::default()
        })),
    ];
    for source in &sources {
        let seq = fingerprint(&target, source, &ExecMode::Sequential);
        for threads in [2, 4] {
            let par = fingerprint(
                &target,
                source,
                &ExecMode::Parallel(ParallelConfig {
                    threads,
                    backend: Backend::Threads,
                    ..ParallelConfig::default()
                }),
            );
            assert_eq!(seq, par, "threads={threads}");
        }
    }
}

#[test]
fn erasure_coded_target_executors_agree() {
    let target = TargetConfig::ObjStore(ObjStoreConfig {
        num_clients: 8,
        num_storage: 6,
        placement: Placement::Erasure { data: 4, parity: 2 },
        ..ObjStoreConfig::default()
    });
    let source = WorkloadSource::Synthetic(Box::new(IorLike::default()));
    let seq = fingerprint(&target, &source, &ExecMode::Sequential);
    let par = fingerprint(
        &target,
        &source,
        &ExecMode::Parallel(ParallelConfig {
            threads: 4,
            backend: Backend::Cooperative,
            ..ParallelConfig::default()
        }),
    );
    assert_eq!(seq, par);
}

proptest! {
    /// Multipart reassembly is order-independent: committing the same
    /// parts in any completion order yields the same assembled object —
    /// same size, same contiguity, same content fingerprint.
    #[test]
    fn multipart_reassembly_is_byte_exact_under_shuffled_commits(
        lens in proptest::collection::vec(1u64..=1 << 20, 1..32),
        shuffle_seed in 0u64..1 << 48,
    ) {
        // Parts laid out back to back, as the client splitter emits them.
        let mut parts = Vec::new();
        let mut offset = 0u64;
        for (i, &len) in lens.iter().enumerate() {
            parts.push((i as u32, offset, len));
            offset += len;
        }
        let total: u64 = lens.iter().sum();

        let mut in_order = ExtentMap::new();
        for &(part, off, len) in &parts {
            in_order.commit(part, off, len);
        }

        let mut shuffled = parts.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
        let mut out_of_order = ExtentMap::new();
        for &(part, off, len) in &shuffled {
            out_of_order.commit(part, off, len);
        }

        prop_assert_eq!(out_of_order.num_parts(), parts.len());
        prop_assert_eq!(out_of_order.assembled_size(), total);
        prop_assert!(out_of_order.is_contiguous());
        prop_assert_eq!(out_of_order.fingerprint(), in_order.fingerprint());
    }

    /// A hole (a part that never completes) is visible: the map reports
    /// non-contiguous and a different fingerprint than the full object.
    #[test]
    fn missing_part_is_detected(
        lens in proptest::collection::vec(1u64..=1 << 16, 2..16),
        drop_idx in 0usize..16,
    ) {
        let drop_idx = drop_idx % lens.len();
        let mut full = ExtentMap::new();
        let mut holey = ExtentMap::new();
        let mut offset = 0u64;
        for (i, &len) in lens.iter().enumerate() {
            full.commit(i as u32, offset, len);
            if i != drop_idx {
                holey.commit(i as u32, offset, len);
            }
            offset += len;
        }
        prop_assert_eq!(holey.num_parts(), lens.len() - 1);
        prop_assert_ne!(holey.fingerprint(), full.fingerprint());
        // A dropped *interior* part always breaks contiguity; dropping
        // the tail part still assembles a shorter contiguous object.
        if drop_idx + 1 < lens.len() {
            prop_assert!(!holey.is_contiguous());
        }
    }
}
