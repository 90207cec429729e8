//! Property-based conservation tests for the parallel engine's
//! per-worker phase profiler (proptest, vendored shim).
//!
//! Random PHOLD topologies run under both parallel backends with the
//! phase recorder on; the recorder's telescoping-timestamp discipline
//! promises that each worker's compute + mailbox + barrier + stall
//! nanoseconds tile its recorded wall-clock span *exactly* — no gaps,
//! no overlap, no rounding slack — and that every committed window is
//! accounted for (retained sample or counted drop). Profiling must
//! also never perturb results: the profiled run's event totals match
//! an unprofiled twin.

use pioeval::des::{
    build_phold, run_parallel, run_parallel_profiled, Backend, ParallelConfig, PholdConfig,
};
use pioeval::types::SimTime;
use proptest::prelude::*;

fn phold(lps: u32, population: u32, horizon_us: u64, seed: u64) -> PholdConfig {
    PholdConfig {
        lps,
        population,
        horizon: SimTime::from_micros(horizon_us),
        seed,
        ..PholdConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Phase durations tile each worker's span exactly, windows are
    /// fully accounted, and profiling leaves results untouched — on
    /// random PHOLD topologies and both backends.
    #[test]
    fn phase_durations_tile_worker_spans(
        lps in 4u32..40,
        population in 8u32..120,
        horizon_us in 100u64..2000,
        threads in 2usize..=4,
        seed in 0u64..1 << 32,
        backend in prop::sample::select(vec![Backend::Cooperative, Backend::Threads]),
    ) {
        let pc = phold(lps, population, horizon_us, seed);
        let cfg = ParallelConfig {
            threads,
            backend,
            ..ParallelConfig::default()
        };

        let mut plain = build_phold(&pc);
        let plain_res = run_parallel(&mut plain, &cfg);

        let mut sim = build_phold(&pc);
        let (res, prof) = run_parallel_profiled(&mut sim, &cfg);
        prop_assert_eq!(res.events, plain_res.events, "profiling changed results");
        prop_assert_eq!(res.end_time, plain_res.end_time);

        let prof = prof.expect("threads >= 2 always yields a profile");
        prop_assert_eq!(prof.threads as usize, threads);
        prop_assert!(prof.conserves(), "phase sums must tile worker spans exactly");
        for w in &prof.workers {
            let phase_sum: u64 = w.phase_ns.iter().sum();
            prop_assert_eq!(
                phase_sum, w.span_ns,
                "worker {} phases leak wall-clock", w.worker
            );
            prop_assert_eq!(
                w.samples.len() as u64 + w.dropped_samples,
                w.windows,
                "worker {} lost window samples", w.worker
            );
            // Window samples never over-claim: their per-phase totals
            // are bounded by the worker totals, and every phase matches
            // exactly when nothing was dropped.
            let sample_totals = w
                .samples
                .iter()
                .fold([0u64; pioeval::types::PROF_PHASES], |mut acc, s| {
                    for (a, v) in acc.iter_mut().zip(s.phase_ns.iter()) {
                        *a += v;
                    }
                    acc
                });
            for (p, total) in sample_totals.into_iter().enumerate() {
                prop_assert!(total <= w.phase_ns[p], "samples over-claim phase {p}");
            }
            if w.dropped_samples == 0 {
                prop_assert_eq!(sample_totals, w.phase_ns);
            }
            if w.dropped_samples == 0 {
                prop_assert_eq!(
                    w.null_windows,
                    w.samples.iter().filter(|s| s.events == 0).count() as u64
                );
            }
        }
        // Event attribution is complete: per-worker events plus any
        // sequential tail after a hand-off sum to the run total.
        let attributed: u64 = prof.workers.iter().map(|w| w.events).sum();
        prop_assert_eq!(attributed + prof.inline_events, res.events);
        prop_assert_eq!(prof.workers.iter().map(|w| w.entities).sum::<u64>(), lps as u64);
    }
}
