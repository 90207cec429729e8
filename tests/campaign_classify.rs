//! Integration: Poisson-arrival campaigns, scheduler accounting, and
//! IOMiner-style classification across crates.

use pioeval::core::{poisson_starts, Campaign, Submission, WorkloadSource};
use pioeval::monitor::classify_jobs;
use pioeval::prelude::*;
use pioeval::types::bytes;

#[test]
fn poisson_campaign_runs_and_classifies() {
    let cluster = ClusterConfig {
        num_clients: 32,
        ..ClusterConfig::default()
    };
    let starts = poisson_starts(6, SimDuration::from_millis(50), 11);
    let mut campaign = Campaign::new(TargetConfig::Pfs(cluster), 11);
    for (i, &start) in starts.iter().enumerate() {
        // Alternate writers and DL readers.
        let source: WorkloadSource = if i % 2 == 0 {
            WorkloadSource::Synthetic(Box::new(CheckpointLike {
                bytes_per_rank: bytes::mib(4),
                steps: 1,
                compute: SimDuration::ZERO,
                collective: false,
                base_file: 2_000 + i as u32 * 100,
                ..CheckpointLike::default()
            }))
        } else {
            WorkloadSource::Synthetic(Box::new(DlioLike {
                num_samples: 64,
                compute_per_batch: SimDuration::ZERO,
                base_file: 20_000 + i as u32 * 1_000,
                ..DlioLike::default()
            }))
        };
        campaign.submit(Submission::new(source, 2, start));
    }
    let result = campaign.run().expect("campaign failed");

    // Every job completed and the scheduler log is consistent.
    assert_eq!(result.jobs.len(), 6);
    for (log, &start) in result.scheduler.jobs.iter().zip(&starts) {
        assert_eq!(log.start, start);
        assert!(log.end > log.start);
    }
    let makespan = result.makespan().expect("campaign incomplete");
    assert!(makespan > *starts.last().unwrap());

    // Classification separates the two behaviour classes.
    let classes = classify_jobs(&result.profiles, 2, 5).expect("clustering failed");
    let writer_class = classes.assignments[0];
    for (i, &a) in classes.assignments.iter().enumerate() {
        if i % 2 == 0 {
            assert_eq!(a, writer_class, "writer job {i} misclassified");
        } else {
            assert_ne!(a, writer_class, "reader job {i} misclassified");
        }
    }

    // System-level mix reflects both classes.
    assert!(result.analysis.bytes_written > 0);
    assert!(result.analysis.bytes_read > 0);
}

#[test]
fn overlapping_campaign_jobs_interfere() {
    // Two identical write jobs: submitted apart → faster makespans than
    // submitted together.
    // Stripe every file over all 8 OSTs so the two jobs genuinely share
    // devices (with narrow striping the MDS's round-robin start-OST can
    // hand the jobs disjoint OST sets).
    let cluster = || ClusterConfig {
        num_clients: 16,
        layout: pioeval::pfs::LayoutPolicy {
            stripe_size: bytes::mib(1),
            stripe_count: 8,
        },
        ..ClusterConfig::default()
    };
    // One full-block transfer per rank: 32 concurrent RPCs saturate the
    // OSTs (with small sequential transfers each rank keeps only one RPC
    // in flight, devices sit ~30% utilized, and a second job simply
    // slots into the idle capacity — no interference to observe).
    let job = |base: u32| CheckpointLike {
        bytes_per_rank: bytes::mib(32),
        transfer_size: bytes::mib(32),
        steps: 1,
        compute: SimDuration::ZERO,
        collective: false,
        base_file: base,
        ..CheckpointLike::default()
    };
    let run = |gap_ms: u64| -> f64 {
        let mut campaign = Campaign::new(TargetConfig::Pfs(cluster()), 3);
        campaign.submit(Submission::new(
            WorkloadSource::Synthetic(Box::new(job(2_000))),
            4,
            SimTime::ZERO,
        ));
        campaign.submit(Submission::new(
            WorkloadSource::Synthetic(Box::new(job(3_000))),
            4,
            SimTime::from_millis(gap_ms),
        ));
        let result = campaign.run().unwrap();
        // Sum of per-job runtimes (not wall makespan, which the gap
        // dominates).
        result
            .scheduler
            .jobs
            .iter()
            .map(|j| j.runtime().as_secs_f64())
            .sum()
    };
    let together = run(0);
    let apart = run(2_000);
    assert!(
        together > apart * 1.3,
        "co-running jobs should interfere: together {together:.3}s vs apart {apart:.3}s"
    );
}

#[test]
fn ior_random_offsets_hurt_hdd_throughput() {
    // IOR -z on HDD OSTs: shuffled transfer order pays seeks.
    let run = |random_offsets: bool| -> f64 {
        let ior = IorLike {
            shared_file: false,
            block_size: bytes::mib(8),
            transfer_size: bytes::kib(256),
            fsync: false,
            random_offsets,
            ..IorLike::default()
        };
        let report = measure(
            &ClusterConfig::default(),
            &WorkloadSource::Synthetic(Box::new(ior)),
            2,
            StackConfig::default(),
            3,
        )
        .unwrap();
        report.makespan().unwrap().as_secs_f64()
    };
    let seq = run(false);
    let rand = run(true);
    assert!(
        rand > seq * 1.5,
        "random offsets should be slower: {rand:.3}s vs {seq:.3}s"
    );
}
