//! Lost-parallelism attribution for the parallel DES scaling
//! observatory.
//!
//! The parallel executor records per-worker, per-window phase timelines
//! (`pioeval_types::profile`); this module turns them into an
//! actionable diagnosis, in the spirit the tool-survey literature
//! (Kunkel et al.; Recorder) argues for: *attribution*, not raw
//! counters. [`analyze_profile`] produces:
//!
//! * a blocked-time breakdown per worker (barrier / horizon-stall /
//!   mailbox shares of each worker's span),
//! * the critical-worker histogram: how often each worker was the one
//!   whose published clock bounded someone else's horizon,
//! * a classification of the dominant loss mechanism — partition skew
//!   vs. lookahead limit vs. coordination overhead,
//! * what-if speedup ceilings: ideal partitioning (skew removed,
//!   windowing kept) and infinite lookahead (synchronization removed,
//!   partition kept),
//! * the sequential hand-off: when the threaded executor judged itself
//!   a loss and finished on the calling thread, every figure above
//!   covers the threaded section only and the hand-off is named as a
//!   cause of its own.
//!
//! The ceilings are deliberately simple closed forms over the recorded
//! totals (documented on [`ProfileAnalysis`]); they bound what the
//! corresponding engineering fix could buy, which is exactly the
//! evidence the optimistic-DES roadmap item needs.

use pioeval_obs::perfetto::TraceWriter;
use pioeval_types::{ExecProfile, ProfPhase, NO_LIMITER, PROF_PHASES};
use serde::{Deserialize, Serialize};

/// Blocked-share threshold below which a run is called [`LostParallelism::Balanced`].
pub const BALANCED_BLOCKED_SHARE: f64 = 0.10;

/// Compute-imbalance ratio (max/mean) above which partition skew is in
/// play.
pub const SKEW_RATIO_THRESHOLD: f64 = 1.25;

/// The dominant mechanism behind a run's lost parallelism.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LostParallelism {
    /// Compute is spread unevenly across workers: the fat partition
    /// sets the pace and the rest wait at barriers.
    PartitionSkew,
    /// Compute is balanced but the conservative horizon keeps excluding
    /// pending work: workers stall on each other's `next + lookahead`.
    LookaheadLimit,
    /// Neither skew nor stalls dominate — the per-window coordination
    /// itself (barrier crossings, mailbox hand-off) is the cost.
    CoordinationBound,
    /// Blocked time is a small fraction of the run; the engine is
    /// scaling about as well as the workload allows.
    Balanced,
}

impl LostParallelism {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            LostParallelism::PartitionSkew => "partition-skew",
            LostParallelism::LookaheadLimit => "lookahead-limit",
            LostParallelism::CoordinationBound => "coordination-bound",
            LostParallelism::Balanced => "balanced",
        }
    }
}

/// One named cause of lost parallelism, with its share of total worker
/// wall-clock (of the whole run's wall clock for `sequential-handoff`)
/// and a human-readable detail line.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Cause {
    /// Stable cause name (`partition-skew`, `lookahead-limit`,
    /// `barrier-coordination`, `mailbox-drain`, `sequential-handoff`).
    pub name: String,
    /// Share of summed worker spans this cause accounts for (0..1).
    pub share: f64,
    /// Human-readable elaboration.
    pub detail: String,
}

/// Per-worker blocked-time breakdown.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkerBreakdown {
    /// Worker index.
    pub worker: u32,
    /// Entities owned.
    pub entities: u64,
    /// Events processed.
    pub events: u64,
    /// Recorded span (ns).
    pub span_ns: u64,
    /// Phase nanoseconds (compute, mailbox, barrier, stall).
    pub phase_ns: [u64; PROF_PHASES],
    /// Fraction of the span not spent computing.
    pub blocked_share: f64,
    /// Fraction of windows in which this worker processed nothing.
    pub null_share: f64,
}

/// How often one worker's clock bounded other workers' horizons.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CriticalWorker {
    /// Worker index.
    pub worker: u32,
    /// (worker, window) samples naming this worker as the limiter.
    pub windows_limiting: u64,
    /// Share of all peer-limited samples (0..1).
    pub share: f64,
}

/// The full attribution report over one [`ExecProfile`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProfileAnalysis {
    /// Worker count.
    pub threads: u32,
    /// Wall clock of the parallel section (longest worker span, ns).
    pub wall_ns: u64,
    /// Committed windows.
    pub windows: u64,
    /// Total compute across workers (ns).
    pub total_compute_ns: u64,
    /// `total_compute / (threads * wall)` over the threaded section
    /// only — 1.0 means perfect scaling.
    pub parallel_efficiency: f64,
    /// Events finished on the calling thread's sequential loop after
    /// the hand-off (0 when the run stayed threaded).
    pub inline_events: u64,
    /// Share of the run's wall clock (threaded section plus sequential
    /// stretch) spent after the hand-off.
    pub inline_share: f64,
    /// Max/mean ratio of per-worker compute totals (1.0 = balanced).
    pub compute_imbalance: f64,
    /// Horizon-stall share of summed worker spans.
    pub stall_share: f64,
    /// Barrier share of summed worker spans.
    pub barrier_share: f64,
    /// Mailbox-drain share of summed worker spans.
    pub mailbox_share: f64,
    /// Per-worker breakdowns, in worker order.
    pub workers: Vec<WorkerBreakdown>,
    /// Critical-worker histogram, sorted by `windows_limiting`
    /// descending (ties by worker index).
    pub critical: Vec<CriticalWorker>,
    /// The dominant loss mechanism.
    pub classification: LostParallelism,
    /// Named causes, largest share first. Non-empty whenever any worker
    /// recorded blocked time.
    pub causes: Vec<Cause>,
    /// What-if speedup factor from ideal partitioning: skew removed
    /// (every window's compute spread evenly), windowing kept. Estimate:
    /// `wall / (total_compute/threads + min_worker(barrier+mailbox))`.
    pub ceiling_ideal_partition: f64,
    /// What-if speedup factor from infinite lookahead: synchronization
    /// removed, partition kept. Estimate: `wall / max_worker(compute)`.
    pub ceiling_infinite_lookahead: f64,
}

/// Analyze one execution profile into a lost-parallelism attribution.
pub fn analyze_profile(p: &ExecProfile) -> ProfileAnalysis {
    let threads = p.threads.max(1);
    let compute = ProfPhase::Compute.index();
    let mailbox = ProfPhase::MailboxDrain.index();
    let barrier = ProfPhase::Barrier.index();
    let stall = ProfPhase::HorizonStall.index();

    let total_span: u64 = p.workers.iter().map(|w| w.span_ns).sum();
    let total_compute: u64 = p.workers.iter().map(|w| w.phase_ns[compute]).sum();
    let total_stall: u64 = p.workers.iter().map(|w| w.phase_ns[stall]).sum();
    let total_barrier: u64 = p.workers.iter().map(|w| w.phase_ns[barrier]).sum();
    let total_mailbox: u64 = p.workers.iter().map(|w| w.phase_ns[mailbox]).sum();
    let span_f = (total_span as f64).max(1.0);

    let workers: Vec<WorkerBreakdown> = p
        .workers
        .iter()
        .map(|w| WorkerBreakdown {
            worker: w.worker,
            entities: w.entities,
            events: w.events,
            span_ns: w.span_ns,
            phase_ns: w.phase_ns,
            blocked_share: w.blocked_ns() as f64 / (w.span_ns as f64).max(1.0),
            null_share: w.null_windows as f64 / (w.windows as f64).max(1.0),
        })
        .collect();

    // Critical-worker histogram from the per-window limiter fields.
    let mut limit_counts = vec![0u64; threads as usize];
    let mut limited_total = 0u64;
    for w in &p.workers {
        for s in &w.samples {
            if s.limiter != NO_LIMITER && (s.limiter as usize) < limit_counts.len() {
                limit_counts[s.limiter as usize] += 1;
                limited_total += 1;
            }
        }
    }
    let mut critical: Vec<CriticalWorker> = limit_counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| CriticalWorker {
            worker: i as u32,
            windows_limiting: c,
            share: c as f64 / (limited_total as f64).max(1.0),
        })
        .collect();
    critical.sort_by(|a, b| {
        b.windows_limiting
            .cmp(&a.windows_limiting)
            .then(a.worker.cmp(&b.worker))
    });

    let max_compute = p
        .workers
        .iter()
        .map(|w| w.phase_ns[compute])
        .max()
        .unwrap_or(0);
    let mean_compute = total_compute as f64 / threads as f64;
    let compute_imbalance = if mean_compute > 0.0 {
        max_compute as f64 / mean_compute
    } else {
        1.0
    };
    let parallel_efficiency = total_compute as f64 / (threads as f64 * (p.wall_ns as f64).max(1.0));
    let stall_share = total_stall as f64 / span_f;
    let barrier_share = total_barrier as f64 / span_f;
    let mailbox_share = total_mailbox as f64 / span_f;
    let blocked_share = 1.0 - total_compute as f64 / span_f;

    // What-if ceilings (documented on the fields above). Floors keep
    // the divisions meaningful on degenerate profiles.
    let coord_floor = p
        .workers
        .iter()
        .map(|w| w.phase_ns[barrier] + w.phase_ns[mailbox])
        .min()
        .unwrap_or(0);
    let ideal_partition_wall =
        (total_compute as f64 / threads as f64 + coord_floor as f64).max(1.0);
    let infinite_lookahead_wall = (max_compute as f64).max(1.0);
    let wall_f = (p.wall_ns as f64).max(1.0);
    let ceiling_ideal_partition = wall_f / ideal_partition_wall;
    let ceiling_infinite_lookahead = wall_f / infinite_lookahead_wall;

    // Named causes, largest first; every nonzero mechanism is listed so
    // blocked time always has at least one named cause. Skew and
    // barrier time partition the same waiting: peers waiting for the
    // fat worker *show up* as barrier time, so the skew cause takes
    // `sum_peers(max - compute_peer)` (the classic imbalance loss,
    // capped at the barrier time actually observed) and the
    // barrier-coordination cause keeps only the residual.
    let mut causes: Vec<Cause> = Vec::new();
    let skew_ns = ((threads as f64) * max_compute as f64 - total_compute as f64)
        .min(total_barrier as f64)
        .max(0.0);
    if compute_imbalance > 1.0 + 1e-9 && total_compute > 0 && skew_ns > 0.0 {
        let fat = p
            .workers
            .iter()
            .max_by_key(|w| w.phase_ns[compute])
            .expect("nonzero compute implies a worker");
        causes.push(Cause {
            name: "partition-skew".into(),
            share: (skew_ns / span_f).clamp(0.0, 1.0),
            detail: format!(
                "worker {} holds {:.1}% of compute ({} of {} entities); imbalance ratio {:.2}",
                fat.worker,
                100.0 * fat.phase_ns[compute] as f64 / (total_compute as f64).max(1.0),
                fat.entities,
                p.workers.iter().map(|w| w.entities).sum::<u64>(),
                compute_imbalance
            ),
        });
    }
    if total_stall > 0 {
        let top = critical.first();
        causes.push(Cause {
            name: "lookahead-limit".into(),
            share: stall_share,
            detail: match top {
                Some(c) => format!(
                    "{:.1}% of worker time stalled on the conservative horizon; \
                     worker {} limited {:.1}% of peer-bounded windows (lookahead {} ns)",
                    100.0 * stall_share,
                    c.worker,
                    100.0 * c.share,
                    p.lookahead_ns
                ),
                None => format!(
                    "{:.1}% of worker time stalled on the conservative horizon \
                     (lookahead {} ns)",
                    100.0 * stall_share,
                    p.lookahead_ns
                ),
            },
        });
    }
    let residual_barrier = (total_barrier as f64 - skew_ns).max(0.0);
    if residual_barrier > 0.0 {
        causes.push(Cause {
            name: "barrier-coordination".into(),
            share: residual_barrier / span_f,
            detail: format!(
                "{:.1}% of worker time at window barriers across {} windows \
                 (net of partition-skew waiting)",
                100.0 * residual_barrier / span_f,
                p.windows
            ),
        });
    }
    if total_mailbox > 0 {
        causes.push(Cause {
            name: "mailbox-drain".into(),
            share: mailbox_share,
            detail: format!(
                "{:.1}% of worker time draining cross-partition mailboxes",
                100.0 * mailbox_share
            ),
        });
    }
    let inline_share = p.inline_ns as f64 / ((p.wall_ns + p.inline_ns) as f64).max(1.0);
    if p.inline_events > 0 {
        let threaded_events: u64 = p.workers.iter().map(|w| w.events).sum();
        causes.push(Cause {
            name: "sequential-handoff".into(),
            share: inline_share,
            detail: format!(
                "the workers' summed compute fell below the epoch's wall time after {} \
                 windows; {} of {} events ({:.1}%) finished on the sequential loop in \
                 {:.2} ms ({:.1}% of run wall)",
                p.windows,
                p.inline_events,
                threaded_events + p.inline_events,
                100.0 * p.inline_events as f64 / (threaded_events + p.inline_events) as f64,
                p.inline_ns as f64 / 1e6,
                100.0 * inline_share
            ),
        });
    }
    causes.sort_by(|a, b| {
        b.share
            .partial_cmp(&a.share)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let classification = if blocked_share < BALANCED_BLOCKED_SHARE {
        LostParallelism::Balanced
    } else if compute_imbalance > SKEW_RATIO_THRESHOLD
        && ceiling_ideal_partition >= ceiling_infinite_lookahead
    {
        LostParallelism::PartitionSkew
    } else if total_stall >= total_barrier.max(total_mailbox) {
        LostParallelism::LookaheadLimit
    } else {
        LostParallelism::CoordinationBound
    };

    ProfileAnalysis {
        threads,
        wall_ns: p.wall_ns,
        windows: p.windows,
        total_compute_ns: total_compute,
        parallel_efficiency,
        inline_events: p.inline_events,
        inline_share,
        compute_imbalance,
        stall_share,
        barrier_share,
        mailbox_share,
        workers,
        critical,
        classification,
        causes,
        ceiling_ideal_partition,
        ceiling_infinite_lookahead,
    }
}

/// Append a profile's phase timelines to a Chrome trace as process 2,
/// `des-workers` (the `--trace-out` document holds the framework's spans
/// and counters in process 1): one named track per worker, per-window
/// phase slices on it (stall slices carry the limiting worker in
/// `args`), and a window-boundary track from worker 0's samples. The
/// executor stamps samples on the telemetry registry's clock, so the
/// slices share the spans' time axis. Time after a worker's last
/// retained sample (windows past the sample cap) is drawn as one
/// trailing slice per phase, so each worker's slices sum to its phase
/// totals exactly.
pub fn append_profile_tracks(w: &mut TraceWriter, p: &ExecProfile) {
    const PID: u32 = 2;
    w.process_name(PID, "des-workers");
    for wp in &p.workers {
        let track = format!(
            "worker {} ({} LPs, {} events)",
            wp.worker, wp.entities, wp.events
        );
        w.thread_name(PID, wp.worker, &track);
        // Without a sample there is no start time to place the rest at.
        let Some(first) = wp.samples.first() else {
            continue;
        };
        let mut rest = wp.phase_ns;
        let mut at = first.start_ns;
        for s in &wp.samples {
            at = s.start_ns;
            for phase in ProfPhase::ALL {
                let dur = s.phase_ns[phase.index()];
                rest[phase.index()] = rest[phase.index()].saturating_sub(dur);
                if dur == 0 {
                    continue;
                }
                let limiter = [("limiter", u64::from(s.limiter))];
                let args: &[_] = if phase == ProfPhase::HorizonStall && s.limiter != NO_LIMITER {
                    &limiter
                } else {
                    &[]
                };
                w.complete(PID, wp.worker, phase.name(), "des", at..at + dur, args);
                at += dur;
            }
        }
        for phase in ProfPhase::ALL {
            let dur = rest[phase.index()];
            if dur > 0 {
                w.complete(PID, wp.worker, phase.name(), "des", at..at + dur, &[]);
                at += dur;
            }
        }
    }
    // Window-boundary track from worker 0 (windows are shared).
    if let Some(w0) = p.workers.first() {
        let tid = p.threads;
        w.thread_name(PID, tid, "windows");
        for (i, s) in w0.samples.iter().enumerate() {
            let dur: u64 = s.phase_ns.iter().sum();
            let args = [("events", s.events)];
            w.complete(
                PID,
                tid,
                &format!("w{i}"),
                "des",
                s.start_ns..s.start_ns + dur,
                &args,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioeval_types::{PhaseRecorder, WindowSample, WorkerProfile};

    fn worker(id: u32, phase_ns: [u64; PROF_PHASES], samples: Vec<WindowSample>) -> WorkerProfile {
        WorkerProfile {
            worker: id,
            entities: 4,
            events: 100,
            windows: samples.len() as u64,
            null_windows: samples.iter().filter(|s| s.events == 0).count() as u64,
            span_ns: phase_ns.iter().sum(),
            phase_ns,
            samples,
            dropped_samples: 0,
        }
    }

    fn sample(phase_ns: [u64; PROF_PHASES], events: u64, limiter: u32) -> WindowSample {
        WindowSample {
            start_ns: 0,
            phase_ns,
            events,
            limiter,
        }
    }

    fn profile(workers: Vec<WorkerProfile>) -> ExecProfile {
        ExecProfile {
            threads: workers.len() as u32,
            backend: "threads".into(),
            window_policy: "adaptive".into(),
            partitioner: "block".into(),
            lookahead_ns: 10_000,
            wall_ns: workers.iter().map(|w| w.span_ns).max().unwrap_or(0),
            windows: workers.first().map_or(0, |w| w.windows),
            workers,
            ..ExecProfile::default()
        }
    }

    #[test]
    fn skewed_compute_classifies_as_partition_skew() {
        // Worker 0 computes 10x worker 1; worker 1 waits at barriers.
        let p = profile(vec![
            worker(
                0,
                [1000, 10, 40, 0],
                vec![sample([1000, 10, 40, 0], 90, NO_LIMITER)],
            ),
            worker(1, [100, 10, 940, 0], vec![sample([100, 10, 940, 0], 10, 0)]),
        ]);
        let a = analyze_profile(&p);
        assert_eq!(a.classification, LostParallelism::PartitionSkew);
        assert!(a.compute_imbalance > 1.5);
        assert!(!a.causes.is_empty());
        assert_eq!(a.causes[0].name, "partition-skew");
        assert!(a.ceiling_ideal_partition > 1.0);
        // Worker 0 is the limiter in worker 1's only sample.
        assert_eq!(a.critical[0].worker, 0);
    }

    #[test]
    fn stall_dominated_classifies_as_lookahead_limit() {
        // Balanced compute, but both workers spend most time stalled.
        let p = profile(vec![
            worker(
                0,
                [100, 10, 20, 870],
                vec![sample([100, 10, 20, 870], 0, 1)],
            ),
            worker(
                1,
                [110, 10, 20, 860],
                vec![sample([110, 10, 20, 860], 0, 0)],
            ),
        ]);
        let a = analyze_profile(&p);
        assert_eq!(a.classification, LostParallelism::LookaheadLimit);
        assert!(a.stall_share > 0.5);
        assert_eq!(a.causes[0].name, "lookahead-limit");
        assert_eq!(a.critical.len(), 2);
    }

    #[test]
    fn efficient_run_classifies_as_balanced() {
        let p = profile(vec![
            worker(
                0,
                [950, 10, 40, 0],
                vec![sample([950, 10, 40, 0], 50, NO_LIMITER)],
            ),
            worker(
                1,
                [940, 10, 50, 0],
                vec![sample([940, 10, 50, 0], 50, NO_LIMITER)],
            ),
        ]);
        let a = analyze_profile(&p);
        assert_eq!(a.classification, LostParallelism::Balanced);
        assert!(a.parallel_efficiency > 0.9);
        // Even balanced runs name their (small) residual costs.
        assert!(!a.causes.is_empty());
    }

    #[test]
    fn analysis_of_a_real_recorder_profile_is_consistent() {
        let mut rec = PhaseRecorder::start(0, std::time::Instant::now());
        for i in 0..10u64 {
            rec.mark(ProfPhase::MailboxDrain);
            rec.mark(ProfPhase::Compute);
            rec.mark(ProfPhase::Barrier);
            rec.end_window(i, NO_LIMITER);
        }
        let p = profile(vec![rec.finish(4, 45)]);
        let a = analyze_profile(&p);
        assert_eq!(a.windows, 10);
        let share_sum = a.stall_share
            + a.barrier_share
            + a.mailbox_share
            + a.total_compute_ns as f64 / (p.workers[0].span_ns as f64).max(1.0);
        assert!((share_sum - 1.0).abs() < 1e-9, "shares tile: {share_sum}");
    }

    #[test]
    fn handoff_is_named_and_efficiency_stays_threaded() {
        let threaded = profile(vec![
            worker(
                0,
                [100, 10, 880, 10],
                vec![sample([100, 10, 880, 10], 5, 1)],
            ),
            worker(1, [90, 10, 890, 10], vec![sample([90, 10, 890, 10], 3, 0)]),
        ]);
        let before = analyze_profile(&threaded);
        assert_eq!(before.inline_events, 0);
        assert!(before.causes.iter().all(|c| c.name != "sequential-handoff"));
        let handed_off = ExecProfile {
            inline_events: 800,
            inline_ns: 9_000,
            ..threaded
        };
        let after = analyze_profile(&handed_off);
        assert_eq!(after.inline_events, 800);
        assert!((after.inline_share - 0.9).abs() < 1e-9);
        assert_eq!(after.causes[0].name, "sequential-handoff");
        assert!(after.causes[0].detail.contains("800 of 1000 events"));
        // The threaded section's figures do not see the tail.
        assert_eq!(after.parallel_efficiency, before.parallel_efficiency);
        assert_eq!(after.classification, before.classification);
    }

    #[test]
    fn appended_tracks_name_workers_and_tile_phase_totals() {
        let p = profile(vec![
            worker(0, [100, 10, 20, 5], vec![sample([100, 10, 20, 5], 7, 1)]),
            // A final partial window outside every sample: 4 ns of mailbox.
            worker(1, [90, 14, 30, 5], vec![sample([90, 10, 30, 5], 3, 0)]),
        ]);
        let mut w = TraceWriter::default();
        append_profile_tracks(&mut w, &p);
        let trace = w.finish();
        assert!(trace.contains("\"name\": \"des-workers\""));
        assert!(trace.contains("\"name\": \"worker 0 (4 LPs, 100 events)\""));
        assert!(trace.contains("\"name\": \"worker 1 (4 LPs, 100 events)\""));
        assert!(trace.contains("\"name\": \"stall\""));
        assert!(trace.contains("\"limiter\": 0"));
        assert!(trace.contains("\"name\": \"windows\""));
        assert!(trace.contains("\"name\": \"w0\""));
        assert!(trace.contains(
            "\"tid\": 1, \"name\": \"mailbox\", \"cat\": \"des\", \"ts\": 0.135, \"dur\": 0.004"
        ));
    }
}
