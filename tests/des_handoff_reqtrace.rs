//! Request tracing across the threaded executor's sequential hand-off.
//!
//! The engine's per-entity trace recorders leave the simulation with
//! their entities when the threaded backend checks them out, and come
//! back when it checks them in before handing the sparse tail of a run
//! to the sequential loop. Marks recorded on either side of the
//! hand-off must all survive, in the order a sequential run records
//! them: the serialized request trace is byte-identical.

use pioeval::core::{measure_target_instrumented, TargetConfig, WorkloadSource};
use pioeval::des::{Backend, ExecMode, ParallelConfig};
use pioeval::iostack::StackConfig;
use pioeval::pfs::ClusterConfig;
use pioeval::workloads::IorLike;

const RANKS: u32 = 512;

#[test]
fn traced_threaded_ior_hands_off_and_keeps_every_mark() {
    let trace_of = |exec: &ExecMode| {
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
            true,
            true,
        )
        .expect("traced IOR measures");
        let asm = report.requests.expect("request assembly");
        let doc = pioeval::reqtrace::write_jsonl(&asm.requests, asm.incomplete);
        (doc, report.exec_profile)
    };
    let (seq_doc, _) = trace_of(&ExecMode::Sequential);
    let (par_doc, profile) = trace_of(&ExecMode::Parallel(ParallelConfig {
        threads: 2,
        backend: Backend::Threads,
        ..ParallelConfig::default()
    }));
    let profile = profile.expect("a threaded run yields a profile");
    assert!(profile.inline_events > 0, "sparse IOR stayed threaded");
    let threaded: u64 = profile.workers.iter().map(|w| w.events).sum();
    assert!(threaded > 0, "no event ran before the hand-off");
    assert!(seq_doc.lines().count() > RANKS as usize, "too few requests");
    assert!(
        par_doc == seq_doc,
        "request trace diverged across the hand-off"
    );
}
