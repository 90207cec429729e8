//! Extension experiments X1–X6: ablations of the framework's design
//! choices (DESIGN.md) and the paper's future-work directions (Sec. VI).

use super::{base_cluster, run};
use crate::{ExpOutput, Scale};
use pioeval_core::{Campaign, Submission, Table, TargetConfig, WorkloadSource};
use pioeval_iostack::{MpiConfig, StackConfig};
use pioeval_monitor::{classify_jobs, find_stragglers};
use pioeval_pfs::{ClusterConfig, DeviceConfig, LayoutPolicy};
use pioeval_types::{bytes, ByteSize, SimDuration, SimTime};
use pioeval_workloads::{
    AnalyticsLike, BtIoLike, CheckpointLike, DlioLike, IorApi, IorLike, WorkflowDag, Workload,
};

/// X1 — straggler OST injection and detection (Lockwood et al.'s
/// "year in the life" variability; iez's motivation).
pub fn x1(scale: Scale) -> ExpOutput {
    let nranks = scale.pick(16, 2);
    // Degrade OST 3 to one tenth of its peers.
    let degraded = DeviceConfig {
        read_bw: DeviceConfig::hdd().read_bw / 10,
        write_bw: DeviceConfig::hdd().write_bw / 10,
        ..DeviceConfig::hdd()
    };
    let mut table = Table::new(vec![
        "cluster",
        "makespan",
        "stragglers found",
        "median OST MiB/s",
        "slowest OST MiB/s",
    ]);
    for (name, overrides) in [
        ("healthy", vec![]),
        ("OST 3 degraded 10x", vec![(3u32, degraded)]),
    ] {
        let cluster = ClusterConfig {
            ost_overrides: overrides,
            layout: LayoutPolicy {
                stripe_size: bytes::mib(1),
                stripe_count: 8, // touch every OST
            },
            ..base_cluster()
        };
        let w = IorLike {
            block_size: scale.pick(bytes::mib(16), bytes::mib(2)),
            fsync: false,
            ..IorLike::default()
        };
        let report = run(&cluster, Box::new(w), nranks, 1);
        let stragglers = find_stragglers(&report.servers, 0.5);
        let slowest = stragglers
            .lanes
            .iter()
            .filter(|l| l.bytes > 0)
            .map(|l| l.effective_mib_s)
            .fold(f64::INFINITY, f64::min);
        table.row(vec![
            name.to_string(),
            format!("{}", report.makespan().unwrap()),
            format!("{:?}", stragglers.stragglers()),
            format!("{:.0}", stragglers.median_mib_s),
            format!("{slowest:.0}"),
        ]);
    }
    ExpOutput {
        id: "X1",
        title: "degraded-OST injection and server-side detection",
        paper: "variability studies ([47]): a single slow OST drags whole \
                striped jobs; server-side statistics localize it",
        table,
        notes: vec!["detection threshold: effective bandwidth < 0.5x median".into()],
    }
}

/// X2 — ablation: data sieving on/off for strided independent reads.
pub fn x2(scale: Scale) -> ExpOutput {
    let nranks = scale.pick(8, 2);
    let count = scale.pick(64u64, 8);
    let mut table = Table::new(vec!["sieving", "makespan", "posix reads", "bytes read"]);
    for sieving in [false, true] {
        let stack = StackConfig {
            mpi: MpiConfig {
                sieving,
                ..MpiConfig::default()
            },
            ..StackConfig::default()
        };
        // Strided 4 KiB reads every 64 KiB: the sieving poster child.
        let segments: Vec<(u64, u64)> = (0..count)
            .map(|k| (k * bytes::kib(64), bytes::kib(4)))
            .collect();
        let file = pioeval_types::FileId::new(90_000);
        let mut program = vec![
            pioeval_iostack::StackOp::MpiOpen { file },
            // Seed the file first so reads hit allocated extents.
            pioeval_iostack::StackOp::MpiIndependent {
                kind: pioeval_types::IoKind::Write,
                file,
                segments: vec![(0, count * bytes::kib(64))],
            },
        ];
        program.push(pioeval_iostack::StackOp::MpiIndependent {
            kind: pioeval_types::IoKind::Read,
            file,
            segments,
        });
        program.push(pioeval_iostack::StackOp::MpiClose { file });
        let spec = pioeval_iostack::JobSpec::spmd(nranks, program, stack);
        let mut cluster = pioeval_pfs::Cluster::new(base_cluster()).expect("cluster");
        let handle = pioeval_iostack::launch(&mut cluster, &spec);
        cluster.run();
        let job = pioeval_iostack::collect(&cluster, &handle);
        let reads: u64 = job.counters.iter().map(|c| c.posix_reads).sum();
        table.row(vec![
            sieving.to_string(),
            format!("{}", job.makespan().unwrap()),
            reads.to_string(),
            format!("{}", ByteSize(job.bytes_read())),
        ]);
    }
    ExpOutput {
        id: "X2",
        title: "ablation: data sieving for strided reads",
        paper: "ROMIO's design premise: one large sieved read beats many \
                small strided reads on seek-bound devices, at the price of \
                reading the holes",
        table,
        notes: vec![],
    }
}

/// X3 — ablation: collective (two-phase) vs. independent I/O for the
/// interleaved BT-IO pattern.
pub fn x3(scale: Scale) -> ExpOutput {
    let nranks = scale.pick(16, 4);
    let mut table = Table::new(vec![
        "api",
        "makespan",
        "posix writers",
        "posix write calls",
        "shuffle bytes",
    ]);
    for api in [IorApi::MpiIndependent, IorApi::MpiCollective] {
        // Interleaved cells: the pattern two-phase I/O exists for. Use
        // BtIoLike for the collective path and the same pattern lowered
        // to per-rank segments for the independent path.
        let report = if api == IorApi::MpiCollective {
            let w = BtIoLike {
                timesteps: scale.pick(3, 1),
                cells_per_rank: 16,
                cell_bytes: bytes::kib(64),
                compute: SimDuration::ZERO,
                verify: false,
                ..BtIoLike::default()
            };
            run(&base_cluster(), Box::new(w), nranks, 1)
        } else {
            let file = pioeval_types::FileId::new(91_000);
            let steps = scale.pick(3u32, 1);
            let programs: Vec<Vec<pioeval_iostack::StackOp>> = (0..nranks)
                .map(|r| {
                    let mut ops = vec![pioeval_iostack::StackOp::MpiOpen { file }];
                    for step in 0..steps {
                        let spec = pioeval_iostack::AccessSpec::Interleaved {
                            base: step as u64 * (16 * bytes::kib(64) * nranks as u64),
                            block: bytes::kib(64),
                            count: 16,
                        };
                        ops.push(pioeval_iostack::StackOp::MpiIndependent {
                            kind: pioeval_types::IoKind::Write,
                            file,
                            segments: spec.segments_for(r, nranks),
                        });
                        ops.push(pioeval_iostack::StackOp::Barrier);
                    }
                    ops.push(pioeval_iostack::StackOp::MpiClose { file });
                    ops
                })
                .collect();
            let spec = pioeval_iostack::JobSpec {
                programs,
                stack: StackConfig::default(),
                start: SimTime::ZERO,
            };
            let mut cluster = pioeval_pfs::Cluster::new(base_cluster()).expect("cluster");
            let handle = pioeval_iostack::launch(&mut cluster, &spec);
            cluster.run();
            let job = pioeval_iostack::collect(&cluster, &handle);
            // Wrap into a MeasurementReport-like row directly.
            let writers = job.counters.iter().filter(|c| c.bytes_written > 0).count();
            let calls: u64 = job.counters.iter().map(|c| c.posix_writes).sum();
            table.row(vec![
                "independent".to_string(),
                format!("{}", job.makespan().unwrap()),
                writers.to_string(),
                calls.to_string(),
                "0".to_string(),
            ]);
            continue;
        };
        let writers = report
            .job
            .counters
            .iter()
            .filter(|c| c.bytes_written > 0)
            .count();
        let calls: u64 = report.job.counters.iter().map(|c| c.posix_writes).sum();
        let shuffle: u64 = report
            .job
            .counters
            .iter()
            .map(|c| c.shuffle_bytes_sent)
            .sum();
        table.row(vec![
            "collective".to_string(),
            format!("{}", report.makespan().unwrap()),
            writers.to_string(),
            calls.to_string(),
            format!("{}", ByteSize(shuffle)),
        ]);
    }
    ExpOutput {
        id: "X3",
        title: "ablation: two-phase collective vs. independent I/O",
        paper: "two-phase I/O trades fabric shuffle traffic for large \
                contiguous file accesses by few aggregators — fewer, \
                bigger POSIX calls",
        table,
        notes: vec![],
    }
}

/// X4 — ablation: stripe-count sweep for a shared-file write.
pub fn x4(scale: Scale) -> ExpOutput {
    let nranks = scale.pick(16, 2);
    let mut table = Table::new(vec![
        "stripe count",
        "makespan",
        "agg MiB/s",
        "OSTs used",
        "imbalance",
    ]);
    for stripe_count in [1u32, 2, 4, 8] {
        let cluster = ClusterConfig {
            layout: LayoutPolicy {
                stripe_size: bytes::mib(1),
                stripe_count,
            },
            ..base_cluster()
        };
        let w = IorLike {
            block_size: scale.pick(bytes::mib(16), bytes::mib(2)),
            fsync: false,
            ..IorLike::default()
        };
        let mut report = run(&cluster, Box::new(w), nranks, 1);
        let used = report
            .servers
            .iter()
            .flat_map(|s| s.timelines.iter())
            .filter(|t| t.total_bytes() > 0)
            .count();
        let imbalance = report
            .servers
            .iter_mut()
            .map(|s| s.imbalance())
            .fold(0.0f64, f64::max);
        table.row(vec![
            stripe_count.to_string(),
            format!("{}", report.makespan().unwrap()),
            format!("{:.0}", report.job.write_throughput_mib_s()),
            used.to_string(),
            format!("{imbalance:.2}"),
        ]);
    }
    ExpOutput {
        id: "X4",
        title: "ablation: stripe count for a shared-file write",
        paper: "striping's core premise: more OSTs per file spreads load \
                and raises aggregate bandwidth — until every OST is busy",
        table,
        notes: vec![],
    }
}

/// X5 — job classification over a mixed campaign (IOMiner-style,
/// Sec. VI's call for characterizing emerging workloads).
pub fn x5(scale: Scale) -> ExpOutput {
    let nranks = scale.pick(4u32, 2);
    let mut campaign = Campaign::new(TargetConfig::Pfs(base_cluster()), 9);
    // Two of each behaviour class, interleaved in submission order.
    type WorkloadFactory = Box<dyn Fn(u32) -> Box<dyn Workload>>;
    let mk: Vec<(&str, WorkloadFactory)> = vec![
        (
            "writer",
            Box::new(move |i| {
                Box::new(CheckpointLike {
                    bytes_per_rank: bytes::mib(8),
                    steps: 1,
                    compute: SimDuration::ZERO,
                    collective: false,
                    base_file: 2000 + i * 100,
                    ..CheckpointLike::default()
                })
            }),
        ),
        (
            "dl-reader",
            Box::new(move |i| {
                Box::new(DlioLike {
                    num_samples: 128,
                    compute_per_batch: SimDuration::ZERO,
                    base_file: 20_000 + i * 2000,
                    ..DlioLike::default()
                })
            }),
        ),
        (
            "workflow",
            Box::new(move |i| {
                let mut w = WorkflowDag::three_stage_default(bytes::kib(256));
                w.base_file = 40_000 + i * 2000;
                Box::new(w)
            }),
        ),
        (
            "analytics",
            Box::new(move |i| {
                Box::new(AnalyticsLike {
                    partition_bytes: bytes::mib(8),
                    base_file: 60_000 + i * 2000,
                    ..AnalyticsLike::default()
                })
            }),
        ),
    ];
    let mut labels = Vec::new();
    for round in 0..2u32 {
        for (label, make) in &mk {
            labels.push(*label);
            campaign.submit(Submission::new(
                WorkloadSource::Synthetic(make(round * 10 + labels.len() as u32)),
                nranks,
                SimTime::from_millis(labels.len() as u64 * 20),
            ));
        }
    }
    let result = campaign.run().expect("campaign failed");
    let classes = classify_jobs(&result.profiles, 4, 3).expect("clustering failed");

    let mut table = Table::new(vec![
        "job",
        "true class",
        "cluster",
        "read frac",
        "meta intensity",
        "files scale",
    ]);
    for (i, label) in labels.iter().enumerate() {
        let s = &classes.signatures[i];
        table.row(vec![
            i.to_string(),
            label.to_string(),
            classes.assignments[i].to_string(),
            format!("{:.2}", s.read_fraction),
            format!("{:.2}", s.meta_intensity),
            format!("{:.2}", s.file_scale),
        ]);
    }
    // Purity: does each true class map to exactly one cluster?
    let mut pure = true;
    for label in ["writer", "dl-reader", "workflow", "analytics"] {
        let clusters: Vec<usize> = labels
            .iter()
            .enumerate()
            .filter(|&(_, l)| *l == label)
            .map(|(i, _)| classes.assignments[i])
            .collect();
        if clusters.windows(2).any(|w| w[0] != w[1]) {
            pure = false;
        }
    }
    ExpOutput {
        id: "X5",
        title: "unsupervised job classification over a mixed campaign",
        paper: "IOMiner [49] / Sec. VI: log mining separates behaviour \
                classes without labels — the characterization foundation \
                for emerging-workload-aware storage design",
        table,
        notes: vec![
            format!("class purity (same label → same cluster): {pure}"),
            format!(
                "campaign: {} jobs, system read fraction {:.2}, MDS ops {}",
                labels.len(),
                result.analysis.read_fraction(),
                result.mds_ops
            ),
        ],
    }
}

/// X6 — ablation: distributed metadata (multiple MDS, DNE-style) under
/// an mdtest-like storm — the paper's Sec. VI metadata-scaling question.
pub fn x6(scale: Scale) -> ExpOutput {
    let nranks = scale.pick(16u32, 2);
    let files = scale.pick(64u32, 8);
    let mut table = Table::new(vec![
        "MDS count",
        "makespan",
        "aggregate ops/s",
        "worst MDS queue",
        "peak meta rate /s",
    ]);
    for num_mds in [1usize, 2, 4] {
        let cluster = ClusterConfig {
            num_mds,
            ..base_cluster()
        };
        let w = pioeval_workloads::MdtestLike {
            files_per_rank: files,
            write_bytes: 0,
            read_bytes: 0,
            ..pioeval_workloads::MdtestLike::default()
        };
        let source = WorkloadSource::Synthetic(Box::new(w));
        let mut c = pioeval_pfs::Cluster::new(cluster).expect("cluster");
        let programs = source.programs(nranks, 1);
        let handle = pioeval_iostack::launch(
            &mut c,
            &pioeval_iostack::JobSpec {
                programs,
                stack: StackConfig::default(),
                start: SimTime::ZERO,
            },
        );
        c.run();
        let job = pioeval_iostack::collect(&c, &handle);
        let makespan = job.makespan().unwrap();
        let total_ops = c.mds_requests();
        let rate = total_ops as f64 / makespan.as_secs_f64();
        let worst_queue = (0..num_mds)
            .map(|i| c.mds_at(i).stats.mean_queue_wait())
            .max()
            .unwrap();
        // FSMonitor-style activity over the union of MDS event streams.
        let mut events: Vec<pioeval_pfs::mds::MetaEvent> = (0..num_mds)
            .flat_map(|i| c.mds_at(i).events.iter().copied())
            .collect();
        events.sort_by_key(|e| e.time);
        let activity = pioeval_monitor::MetadataActivity::from_events(
            &events,
            pioeval_types::SimDuration::from_millis(10),
        );
        table.row(vec![
            num_mds.to_string(),
            format!("{makespan}"),
            format!("{rate:.0}"),
            format!("{worst_queue}"),
            format!("{:.0}", activity.peak_rate()),
        ]);
    }
    ExpOutput {
        id: "X6",
        title: "ablation: distributed metadata service (DNE-style)",
        paper: "Sec. VI: future HPC I/O subsystems must address \
                metadata-intensive emerging workloads — hashing the \
                namespace over multiple MDSs scales the op rate",
        table,
        notes: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straggler_experiment_detects_injection() {
        let out = x1(Scale::Quick);
        // Second row flags OST 3.
        assert!(out.render().contains("ost3"));
    }

    #[test]
    fn classification_experiment_is_pure_at_quick_scale() {
        let out = x5(Scale::Quick);
        assert!(
            out.notes
                .iter()
                .any(|n| n.contains("purity") && n.contains("true")),
            "{:?}",
            out.notes
        );
    }
}
