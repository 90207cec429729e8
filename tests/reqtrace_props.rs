//! Property tests for the simulated-time request tracer: every traced
//! request's per-layer segments must tile its end-to-end latency
//! *exactly* (conservation — no nanosecond is dropped or double
//! counted), on both storage targets and across workload shapes.

use pioeval::core::{measure_target_instrumented, TargetConfig};
use pioeval::des::ExecMode;
use pioeval::objstore::ObjStoreConfig;
use pioeval::prelude::*;
use proptest::prelude::*;

fn target_for(objstore: bool) -> TargetConfig {
    if objstore {
        TargetConfig::ObjStore(ObjStoreConfig {
            num_clients: 8,
            ..ObjStoreConfig::default()
        })
    } else {
        TargetConfig::Pfs(ClusterConfig {
            num_clients: 8,
            ..ClusterConfig::default()
        })
    }
}

fn workload_for(which: usize) -> Box<dyn Workload> {
    match which {
        0 => Box::new(IorLike::default()),
        1 => Box::new(MdtestLike::default()),
        _ => Box::new(CheckpointLike::default()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Per-request segment durations sum exactly to the end-to-end
    /// latency, and the span sequence tiles `[issue, done]` without
    /// gaps or overlap.
    #[test]
    fn segments_tile_latency_exactly(
        ranks in 1u32..5,
        seed in 0u64..1000,
        which in 0usize..3,
        objstore in any::<bool>(),
    ) {
        let source = WorkloadSource::Synthetic(workload_for(which));
        let target = target_for(objstore);
        let report = measure_target_instrumented(
            &target,
            &source,
            ranks,
            StackConfig::default(),
            seed,
            &ExecMode::Sequential,
            true,
            false,
        )
        .expect("traced measurement");
        let asm = report.requests.expect("traced run must assemble requests");
        prop_assert!(!asm.requests.is_empty(), "no requests traced");
        prop_assert_eq!(asm.incomplete, 0, "requests left in flight");
        for r in &asm.requests {
            let sum: u64 = r.breakdown().iter().sum();
            prop_assert_eq!(
                sum,
                r.latency().as_nanos(),
                "request {} segments do not sum to its latency",
                r.tid
            );
            // Contiguous tiling: each span starts where the previous
            // ended, from issue all the way to the reply delivery.
            let mut cursor = r.issue;
            for s in &r.spans {
                prop_assert_eq!(s.start, cursor, "gap/overlap in request {}", r.tid);
                prop_assert!(s.end > s.start, "empty span survived assembly");
                cursor = s.end;
            }
            prop_assert_eq!(cursor, r.done, "spans stop short of done");
        }
    }

    /// The trace file format round-trips: parsing the JSONL written
    /// from an assembly reproduces the records exactly.
    #[test]
    fn trace_file_round_trips(
        ranks in 1u32..4,
        seed in 0u64..1000,
        objstore in any::<bool>(),
    ) {
        let source = WorkloadSource::Synthetic(Box::new(IorLike::default()));
        let report = measure_target_instrumented(
            &target_for(objstore),
            &source,
            ranks,
            StackConfig::default(),
            seed,
            &ExecMode::Sequential,
            true,
            false,
        )
        .expect("traced measurement");
        let asm = report.requests.expect("assembly");
        let doc = pioeval::reqtrace::write_jsonl(&asm.requests, asm.incomplete);
        let (parsed, incomplete) =
            pioeval::reqtrace::read_jsonl(&doc).expect("written trace must parse");
        prop_assert_eq!(incomplete, asm.incomplete);
        prop_assert_eq!(parsed, asm.requests);
    }
}
