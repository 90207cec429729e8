//! The threaded executor's sequential hand-off on a real storage model.
//!
//! IOR on the PFS model is the sparse case the hand-off exists for: after
//! job launch its windows hold about one causal step, so two threads do
//! less than one thread's worth of compute and the executor finishes the
//! run on the calling thread's sequential loop. The measurement must be
//! the sequential one, exactly, and every event must be counted once.
//!
//! This file holds a single test on purpose: it reads deltas of the
//! process-global telemetry counters, which no concurrently running test
//! may move.

use pioeval::core::{measure_target_instrumented, MeasurementReport, TargetConfig, WorkloadSource};
use pioeval::des::{Backend, ExecMode, ParallelConfig};
use pioeval::iostack::StackConfig;
use pioeval::obs::names;
use pioeval::pfs::ClusterConfig;
use pioeval::workloads::IorLike;

const RANKS: u32 = 512;

/// Events, makespan, POSIX bytes and captured records of one trip, plus
/// the `des.events_processed` and `des.par.inline_events` deltas it made.
fn trip(exec: &ExecMode) -> (MeasurementReport, [u64; 6]) {
    let counter = |name| pioeval::obs::global().counter(name).get();
    let before = (
        counter(names::DES_EVENTS),
        counter(names::DES_PAR_INLINE_EVENTS),
    );
    let report = measure_target_instrumented(
        &TargetConfig::Pfs(ClusterConfig {
            num_clients: RANKS as usize,
            ..ClusterConfig::default()
        }),
        &WorkloadSource::Synthetic(Box::new(IorLike::default())),
        RANKS,
        StackConfig::default(),
        42,
        exec,
        false,
        true,
    )
    .expect("IOR measures");
    let fingerprint = [
        counter(names::DES_EVENTS) - before.0,
        report.makespan().expect("every rank finishes").as_nanos(),
        report.job.bytes_read(),
        report.job.bytes_written(),
        report.job.records.iter().map(Vec::len).sum::<usize>() as u64,
        counter(names::DES_PAR_INLINE_EVENTS) - before.1,
    ];
    (report, fingerprint)
}

#[test]
fn sparse_threaded_ior_hands_off_and_matches_sequential() {
    let (_, seq) = trip(&ExecMode::Sequential);
    assert_eq!(seq[5], 0, "a sequential run hands nothing off");
    let (report, par) = trip(&ExecMode::Parallel(ParallelConfig {
        threads: 2,
        backend: Backend::Threads,
        ..ParallelConfig::default()
    }));
    assert_eq!(
        par[..5],
        seq[..5],
        "events, makespan, bytes read/written, records"
    );
    let profile = report
        .exec_profile
        .expect("a threaded run yields a profile");
    assert!(profile.inline_events > 0, "sparse IOR stayed threaded");
    assert_eq!(par[5], profile.inline_events, "des.par.inline_events");
    assert!(profile.conserves(), "worker phases tile their spans");
    let threaded: u64 = profile.workers.iter().map(|w| w.events).sum();
    assert_eq!(
        threaded + profile.inline_events,
        par[0],
        "des.events_processed counts each event once"
    );
}
