//! Multi-job campaigns: a stream of jobs sharing one storage system.
//!
//! Production log studies (Patel et al.'s year of NERSC logs, Lockwood's
//! "year in the life") analyze *campaigns* — many jobs arriving over
//! time on one shared system — not single runs. [`Campaign`] submits a
//! set of jobs with staggered start times to one cluster, runs them to
//! completion, and produces every system-level data product: per-job
//! results and profiles, the scheduler log, server statistics, and the
//! temporal/spatial analysis over the whole window.

use crate::pipeline::TargetConfig;
use crate::source::WorkloadSource;
use pioeval_iostack::{
    collect_on, launch_on, JobHandle, JobResult, JobSpec, StackConfig, StorageTarget,
};
use pioeval_monitor::{JobLog, SchedulerLog, SystemAnalysis};
use pioeval_objstore::GatewayStats;
use pioeval_pfs::ServerStats;
use pioeval_trace::JobProfile;
use pioeval_types::{Error, JobId, Result, SimDuration, SimTime};

/// One job submission in a campaign.
pub struct Submission {
    /// Workload source for the job.
    pub source: WorkloadSource,
    /// Ranks.
    pub nranks: u32,
    /// Submit (= start) time.
    pub start: SimTime,
    /// Stack configuration.
    pub stack: StackConfig,
}

impl Submission {
    /// A submission with default stack configuration.
    pub fn new(source: WorkloadSource, nranks: u32, start: SimTime) -> Self {
        Submission {
            source,
            nranks,
            start,
            stack: StackConfig::default(),
        }
    }
}

/// Results of a completed campaign.
pub struct CampaignResult {
    /// Per-job results, in submission order.
    pub jobs: Vec<JobResult>,
    /// Per-job merged profiles.
    pub profiles: Vec<JobProfile>,
    /// The workload-manager log.
    pub scheduler: SchedulerLog,
    /// Per-storage-server statistics over the whole campaign (OSSes, or
    /// object storage nodes).
    pub servers: Vec<ServerStats>,
    /// System-level analysis over the whole campaign window.
    pub analysis: SystemAnalysis,
    /// Total metadata operations served (MDS, or object metadata
    /// shards).
    pub mds_ops: u64,
}

impl CampaignResult {
    /// Campaign makespan: first submit to last completion.
    pub fn makespan(&self) -> Option<SimTime> {
        let mut latest = SimTime::ZERO;
        for job in &self.jobs {
            for f in &job.finished {
                latest = latest.max((*f)?);
            }
        }
        Some(latest)
    }
}

/// Draw `n` Poisson-process arrival times with the given mean
/// inter-arrival gap (exponential sampling via inverse CDF) — the
/// standard arrival model for synthetic job streams.
pub fn poisson_starts(
    n: usize,
    mean_interarrival: pioeval_types::SimDuration,
    seed: u64,
) -> Vec<SimTime> {
    use rand::Rng;
    let mut r = pioeval_types::rng(pioeval_types::split_seed(seed, 4242));
    let mean = mean_interarrival.as_secs_f64();
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = r.gen_range(f64::EPSILON..1.0);
            t += -mean * u.ln();
            SimTime::from_nanos((t * 1e9) as u64)
        })
        .collect()
}

/// Per-job interference of a shared run against solo baselines.
///
/// The quantity production studies report: how much slower did each job
/// run because it shared gateways/servers with the others, versus
/// having the whole system to itself.
pub struct InterferenceReport {
    /// Backend name ("pfs" or "objstore").
    pub target: &'static str,
    /// Solo makespans: each job alone on a fresh system, submitted at
    /// time zero, in submission order.
    pub solo: Vec<SimDuration>,
    /// Shared makespans: all jobs together (staggered starts honored),
    /// each measured from its own submit time.
    pub shared: Vec<SimDuration>,
    /// Per-gateway statistics from the shared run (empty on PFS).
    pub gateways: Vec<GatewayStats>,
    /// Resilience metrics from the shared run (Some only when the
    /// target carried a resilience configuration). Solo baselines run
    /// with failure injection stripped, so slowdowns attribute both
    /// contention *and* failure-recovery cost to the shared system.
    pub resilience: Option<pioeval_resil::ResilienceReport>,
}

impl InterferenceReport {
    /// Per-job slowdown: shared makespan over solo makespan (1.0 = no
    /// interference). Zero-length solo runs report 1.0.
    pub fn slowdowns(&self) -> Vec<f64> {
        self.solo
            .iter()
            .zip(&self.shared)
            .map(|(s, sh)| {
                let solo = s.as_secs_f64();
                if solo > 0.0 {
                    sh.as_secs_f64() / solo
                } else {
                    1.0
                }
            })
            .collect()
    }

    /// The worst per-job slowdown.
    pub fn max_slowdown(&self) -> f64 {
        self.slowdowns().into_iter().fold(1.0, f64::max)
    }
}

/// A set of jobs to run against one shared storage target, on either
/// backend.
///
/// [`Campaign::run`] runs every job together (staggered starts honored)
/// and collects the campaign's data products; [`Campaign::interference`]
/// also runs each job alone on a fresh, healthy target and reports
/// per-job slowdown.
pub struct Campaign {
    target: TargetConfig,
    submissions: Vec<Submission>,
    seed: u64,
}

impl Campaign {
    /// A new campaign against the given storage target.
    pub fn new(target: TargetConfig, seed: u64) -> Self {
        Campaign {
            target,
            submissions: Vec::new(),
            seed,
        }
    }

    /// Add a job.
    pub fn submit(&mut self, submission: Submission) -> &mut Self {
        self.submissions.push(submission);
        self
    }

    /// Number of submitted jobs.
    pub fn len(&self) -> usize {
        self.submissions.len()
    }

    /// True when no jobs were submitted.
    pub fn is_empty(&self) -> bool {
        self.submissions.is_empty()
    }

    /// Build a fresh target from `cfg`, launch each `(submission index,
    /// start)` job onto it, and run it to completion.
    fn launch_and_run(
        &self,
        cfg: &TargetConfig,
        jobs: impl IntoIterator<Item = (usize, SimTime)>,
    ) -> Result<(StorageTarget, Vec<JobHandle>)> {
        let mut target = cfg.build()?;
        let handles = jobs
            .into_iter()
            .map(|(i, start)| {
                let sub = &self.submissions[i];
                let spec = JobSpec {
                    programs: sub
                        .source
                        .programs(sub.nranks, pioeval_types::split_seed(self.seed, i as u64)),
                    stack: sub.stack,
                    start,
                };
                launch_on(&mut target, &spec)
            })
            .collect();
        target.run();
        Ok((target, handles))
    }

    /// Every submission at its own start time on one target.
    fn run_shared(&self) -> Result<(StorageTarget, Vec<JobHandle>)> {
        self.launch_and_run(
            &self.target,
            self.submissions.iter().map(|s| s.start).enumerate(),
        )
    }

    /// Launch everything, run to completion, and collect the campaign's
    /// data products.
    pub fn run(&self) -> Result<CampaignResult> {
        let (mut target, handles) = self.run_shared()?;
        let mut jobs = Vec::new();
        let mut profiles = Vec::new();
        let mut scheduler = SchedulerLog::default();
        for (i, handle) in handles.iter().enumerate() {
            let job = collect_on(&target, handle);
            let end = job
                .finished
                .iter()
                .filter_map(|f| *f)
                .max()
                .unwrap_or(handle.start);
            scheduler.push(JobLog {
                job: JobId::new(i as u32),
                nodes: self.submissions[i].nranks,
                ranks: self.submissions[i].nranks,
                submit: handle.start,
                start: handle.start,
                end,
            });
            profiles.push(job.merged_profile());
            jobs.push(job);
        }
        let (servers, mds_ops) = match &mut target {
            StorageTarget::Pfs(c) => (c.oss_stats(), c.mds_requests()),
            StorageTarget::ObjStore(c) => (c.storage_stats(), c.shard_requests()),
        };
        let timelines: Vec<_> = servers
            .iter()
            .flat_map(|s| s.timelines.iter().cloned())
            .collect();
        let analysis = SystemAnalysis::from_timelines(&timelines);
        Ok(CampaignResult {
            jobs,
            profiles,
            scheduler,
            servers,
            analysis,
            mds_ops,
        })
    }

    /// The target configuration with failure injection stripped: solo
    /// baselines measure each job on a *healthy* system, so the shared
    /// run's slowdown captures failures as interference.
    fn healthy_target(&self) -> TargetConfig {
        let mut cfg = self.target.clone();
        let resil = match &mut cfg {
            TargetConfig::Pfs(c) => c.resil.as_mut(),
            TargetConfig::ObjStore(c) => c.resil.as_mut(),
        };
        if let Some(r) = resil {
            r.failures = pioeval_resil::FailureSchedule::default();
        }
        cfg
    }

    /// Run each job alone on a fresh, healthy target (submitted at time
    /// zero), then all together, and report per-job slowdown. Needs at
    /// least two jobs.
    pub fn interference(&self) -> Result<InterferenceReport> {
        if self.submissions.len() < 2 {
            return Err(Error::Config(
                "interference campaign needs at least 2 jobs".into(),
            ));
        }
        let makespan = |job: &JobResult| {
            job.makespan()
                .ok_or_else(|| Error::Config("campaign job did not finish".into()))
        };

        let healthy = self.healthy_target();
        let mut solo = Vec::new();
        for i in 0..self.submissions.len() {
            pioeval_obs::live::set_phase(&format!("campaign:solo:{i}"));
            let (target, handles) = self.launch_and_run(&healthy, [(i, SimTime::ZERO)])?;
            solo.push(makespan(&collect_on(&target, &handles[0]))?);
        }

        pioeval_obs::live::set_phase("campaign:shared");
        let (target, handles) = self.run_shared()?;
        let shared = handles
            .iter()
            .map(|h| makespan(&collect_on(&target, h)))
            .collect::<Result<Vec<_>>>()?;
        let gateways = match &target {
            StorageTarget::ObjStore(c) => c.gateway_stats(),
            StorageTarget::Pfs(_) => Vec::new(),
        };
        let resilience = target.resilience();
        Ok(InterferenceReport {
            target: self.target.name(),
            solo,
            shared,
            gateways,
            resilience,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioeval_objstore::ObjStoreConfig;
    use pioeval_pfs::ClusterConfig;
    use pioeval_types::{bytes, SimDuration};
    use pioeval_workloads::{CheckpointLike, DlioLike, IorLike};

    fn cluster() -> TargetConfig {
        TargetConfig::Pfs(ClusterConfig {
            num_clients: 32,
            ..ClusterConfig::default()
        })
    }

    #[test]
    fn staggered_jobs_all_complete() {
        let mut campaign = Campaign::new(cluster(), 5);
        campaign.submit(Submission::new(
            WorkloadSource::Synthetic(Box::new(IorLike {
                block_size: bytes::mib(4),
                ..IorLike::default()
            })),
            4,
            SimTime::ZERO,
        ));
        campaign.submit(Submission::new(
            WorkloadSource::Synthetic(Box::new(CheckpointLike {
                bytes_per_rank: bytes::mib(2),
                steps: 2,
                collective: false,
                base_file: 5000,
                ..CheckpointLike::default()
            })),
            4,
            SimTime::from_millis(100),
        ));
        let result = campaign.run().unwrap();
        assert_eq!(result.jobs.len(), 2);
        assert!(result.makespan().is_some());
        // Scheduler log reflects the stagger.
        assert_eq!(result.scheduler.jobs.len(), 2);
        assert_eq!(result.scheduler.jobs[1].start, SimTime::from_millis(100));
        assert!(result.scheduler.jobs[1].end > result.scheduler.jobs[1].start);
        // Per-job profiles are separable.
        assert!(result.profiles[0].bytes_written() > 0);
        assert!(result.profiles[1].bytes_written() > 0);
    }

    #[test]
    fn campaign_analysis_covers_whole_window() {
        let mut campaign = Campaign::new(cluster(), 6);
        for i in 0..3u32 {
            campaign.submit(Submission::new(
                WorkloadSource::Synthetic(Box::new(DlioLike {
                    num_samples: 32,
                    compute_per_batch: SimDuration::from_millis(5),
                    base_file: 20_000 + i * 1000,
                    ..DlioLike::default()
                })),
                2,
                SimTime::from_millis(i as u64 * 50),
            ));
        }
        let result = campaign.run().unwrap();
        let total_read: u64 = result.profiles.iter().map(|p| p.bytes_read()).sum();
        assert_eq!(result.analysis.bytes_read, total_read);
        assert!(result.mds_ops > 0);
        // Scheduler utilization is computable over the window.
        let horizon = result.makespan().unwrap();
        let util = result.scheduler.utilization(32, horizon);
        assert!(util > 0.0 && util <= 1.0, "utilization {util}");
    }

    #[test]
    fn object_store_campaign_collects_storage_nodes_and_shards() {
        let target = TargetConfig::ObjStore(ObjStoreConfig {
            num_clients: 16,
            ..ObjStoreConfig::default()
        });
        let mut campaign = Campaign::new(target, 8);
        for i in 0..2u32 {
            campaign.submit(Submission::new(
                WorkloadSource::Synthetic(Box::new(IorLike {
                    block_size: bytes::mib(2),
                    base_file: 700 + i * 500,
                    ..IorLike::default()
                })),
                2,
                SimTime::from_millis(i as u64 * 20),
            ));
        }
        let result = campaign.run().unwrap();
        assert_eq!(result.jobs.len(), 2);
        assert!(result.jobs.iter().all(|j| j.makespan().is_some()));
        assert_eq!(result.scheduler.jobs[1].start, SimTime::from_millis(20));
        // Server statistics come from the object storage nodes, metadata
        // operations from the shards.
        assert_eq!(result.servers.len(), ObjStoreConfig::default().num_storage);
        let written: u64 = result.servers.iter().map(|s| s.bytes_written).sum();
        let posix: u64 = result.jobs.iter().map(|j| j.bytes_written()).sum();
        assert_eq!(posix, 2 * 2 * bytes::mib(2));
        // The default placement stores two replicas of every object.
        assert_eq!(written, 2 * posix);
        assert!(result.mds_ops > 0);
    }

    #[test]
    fn poisson_starts_are_monotone_and_scale_with_mean() {
        let fast = poisson_starts(50, SimDuration::from_millis(10), 1);
        let slow = poisson_starts(50, SimDuration::from_millis(100), 1);
        assert!(fast.windows(2).all(|w| w[0] <= w[1]));
        assert!(slow.last().unwrap() > fast.last().unwrap());
        // Mean inter-arrival within 3x of the target (50 samples).
        let span = fast.last().unwrap().as_secs_f64();
        let mean = span / 50.0;
        assert!(mean > 0.003 && mean < 0.03, "mean {mean}");
        // Deterministic.
        assert_eq!(
            poisson_starts(10, SimDuration::from_millis(10), 7),
            poisson_starts(10, SimDuration::from_millis(10), 7)
        );
    }

    #[test]
    fn empty_campaign_is_detectable() {
        let campaign = Campaign::new(cluster(), 0);
        assert!(campaign.is_empty());
        assert_eq!(campaign.len(), 0);
    }

    #[test]
    fn two_jobs_on_shared_gateways_slow_each_other_down() {
        let target = TargetConfig::ObjStore(ObjStoreConfig {
            num_clients: 16,
            num_gateways: 1,
            ..ObjStoreConfig::default()
        });
        let mut campaign = Campaign::new(target, 3);
        campaign.submit(Submission::new(
            WorkloadSource::Synthetic(Box::new(IorLike {
                block_size: bytes::mib(8),
                transfer_size: bytes::mib(1),
                ..IorLike::default()
            })),
            4,
            SimTime::ZERO,
        ));
        campaign.submit(Submission::new(
            WorkloadSource::Synthetic(Box::new(CheckpointLike {
                bytes_per_rank: bytes::mib(8),
                steps: 1,
                collective: false,
                base_file: 9000,
                ..CheckpointLike::default()
            })),
            4,
            SimTime::ZERO,
        ));
        let report = campaign.interference().unwrap();
        assert_eq!(report.target, "objstore");
        assert_eq!(report.solo.len(), 2);
        assert_eq!(report.shared.len(), 2);
        let slowdowns = report.slowdowns();
        // Sharing never speeds a job up...
        assert!(
            slowdowns.iter().all(|&s| s >= 1.0 - 1e-9),
            "slowdowns {slowdowns:?}"
        );
        // ...and contending for one gateway measurably hurts.
        assert!(
            report.max_slowdown() > 1.0,
            "expected interference, slowdowns {slowdowns:?}"
        );
        assert_eq!(report.gateways.len(), 1);
        assert!(report.gateways[0].put_bytes > 0);
    }

    #[test]
    fn interference_works_on_the_pfs_path_too() {
        let mut campaign = Campaign::new(cluster(), 4);
        for i in 0..2u32 {
            campaign.submit(Submission::new(
                WorkloadSource::Synthetic(Box::new(IorLike {
                    block_size: bytes::mib(4),
                    base_file: 100 + i * 500,
                    ..IorLike::default()
                })),
                4,
                SimTime::ZERO,
            ));
        }
        let report = campaign.interference().unwrap();
        assert_eq!(report.target, "pfs");
        assert!(report.gateways.is_empty());
        assert!(report.slowdowns().iter().all(|&s| s >= 1.0 - 1e-9));
    }

    #[test]
    fn interference_shared_run_carries_resilience() {
        use pioeval_resil::{AckMode, FailureEvent, FailureKind, FailureSchedule, ResilConfig};
        let target = TargetConfig::Pfs(ClusterConfig {
            num_clients: 16,
            num_ionodes: 2,
            resil: Some(ResilConfig {
                ack_mode: AckMode::LocalOnly,
                failures: FailureSchedule {
                    scripted: vec![FailureEvent {
                        kind: FailureKind::IoNodeLoss,
                        target: 1,
                        at: SimDuration::from_millis(1),
                    }],
                    ..FailureSchedule::default()
                },
                ..ResilConfig::default()
            }),
            ..ClusterConfig::default()
        });
        let mut campaign = Campaign::new(target, 11);
        for i in 0..2u32 {
            campaign.submit(Submission::new(
                WorkloadSource::Synthetic(Box::new(IorLike {
                    block_size: bytes::mib(4),
                    base_file: 300 + i * 500,
                    ..IorLike::default()
                })),
                4,
                SimTime::ZERO,
            ));
        }
        let report = campaign.interference().unwrap();
        // The shared run keeps the injected failure; solo baselines ran
        // on a healthy system (stripped schedule) yet still complete.
        let resil = report.resilience.expect("shared run must carry resilience");
        assert_eq!(resil.failures_injected, 1);
        assert!(resil.acked_bytes > 0);
        assert!(resil.conserves_bytes());
        assert_eq!(report.solo.len(), 2);
    }

    #[test]
    fn interference_requires_two_jobs() {
        let mut campaign = Campaign::new(cluster(), 0);
        assert!(campaign.is_empty());
        assert!(campaign.interference().is_err());
        campaign.submit(Submission::new(
            WorkloadSource::Synthetic(Box::new(IorLike::default())),
            2,
            SimTime::ZERO,
        ));
        assert_eq!(campaign.len(), 1);
        assert!(campaign.interference().is_err());
    }
}
