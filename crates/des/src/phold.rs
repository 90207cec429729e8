//! PHOLD: the standard parallel discrete-event simulation benchmark.
//!
//! PHOLD (after Fujimoto's HOLD model) is what ROSS and every PDES
//! system report speedups on: `n` logical processes each start with a
//! share of `population` messages in flight; on receipt, an LP forwards
//! the message to a uniformly random LP after a random delay of at least
//! the lookahead. The event population is constant and dense, which is
//! the regime where conservative windows amortize their barrier cost —
//! the property experiment E11 measures.

use crate::event::EntityId;
use crate::sim::{Ctx, Entity, SimConfig, Simulation};
use pioeval_types::{rng, split_seed, tid_for, ReqMark, SimDuration, SimTime};
use rand::Rng;

/// Record one mark every this many handled events in the traced PHOLD
/// variant. PHOLD events are ~100 ns apiece — orders of magnitude
/// cheaper than any modeled I/O event — and real traced runs record
/// marks per RPC hop, a small fraction of engine events. Sampling keeps
/// the probe's mark:event ratio in that realistic range while the
/// [`Ctx::tracing`] branch (the tracer's true always-on per-event cost)
/// still executes on every event.
const TRACE_SAMPLE: u64 = 64;

/// One PHOLD logical process.
pub struct PholdLp {
    n: u32,
    rng: rand::rngs::StdRng,
    min_delay: SimDuration,
    max_extra: u64,
    /// Events this LP has handled.
    pub handled: u64,
    /// Order-sensitive fingerprint of everything observed (determinism
    /// checks).
    pub fingerprint: u64,
}

impl Entity<u64> for PholdLp {
    fn on_event(&mut self, ev: crate::event::Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
        self.handled += 1;
        self.fingerprint =
            self.fingerprint.wrapping_mul(0x100000001B3) ^ ev.msg ^ ev.time().as_nanos();
        if ctx.tracing() && self.handled.is_multiple_of(TRACE_SAMPLE) {
            let tid = tid_for(ctx.me().0, self.handled);
            ctx.trace(tid, ReqMark::Done { at: ev.time() });
        }
        let dst = EntityId(self.rng.gen_range(0..self.n));
        let delay =
            self.min_delay + SimDuration::from_nanos(self.rng.gen_range(0..=self.max_extra));
        ctx.send(dst, delay, ev.msg.wrapping_mul(31).wrapping_add(1));
    }
}

/// PHOLD parameters.
#[derive(Clone, Copy, Debug)]
pub struct PholdConfig {
    /// Logical processes.
    pub lps: u32,
    /// Messages in flight (constant population).
    pub population: u32,
    /// Engine lookahead (= minimum forward delay).
    pub lookahead: SimDuration,
    /// Extra random delay on top of the lookahead, as a multiple of it.
    pub delay_spread: u64,
    /// Virtual-time horizon.
    pub horizon: SimTime,
    /// Seed.
    pub seed: u64,
}

impl Default for PholdConfig {
    fn default() -> Self {
        PholdConfig {
            lps: 512,
            population: 8192,
            lookahead: SimDuration::from_micros(10),
            delay_spread: 1,
            horizon: SimTime::from_millis(100),
            seed: 1,
        }
    }
}

/// Build a PHOLD simulation ready to run.
pub fn build_phold(cfg: &PholdConfig) -> Simulation<u64> {
    let mut sim = Simulation::new(SimConfig {
        lookahead: cfg.lookahead,
        time_limit: Some(cfg.horizon),
    });
    for i in 0..cfg.lps {
        sim.add_entity(
            format!("lp{i}"),
            Box::new(PholdLp {
                n: cfg.lps,
                rng: rng(split_seed(cfg.seed, i as u64)),
                min_delay: cfg.lookahead,
                max_extra: cfg.lookahead.as_nanos() * cfg.delay_spread.max(1),
                handled: 0,
                fingerprint: 0,
            }),
        );
    }
    // Seed the message population round-robin with staggered start times
    // inside the first window.
    let mut seed_rng = rng(split_seed(cfg.seed, u64::MAX));
    for m in 0..cfg.population {
        let t = SimTime::from_nanos(seed_rng.gen_range(0..=cfg.lookahead.as_nanos()));
        sim.schedule(t, EntityId(m % cfg.lps), m as u64);
    }
    sim
}

/// Build a PHOLD simulation with request tracing switched on: the
/// [`Ctx::tracing`] check runs on every handled event (the tracer's
/// always-on cost) and every `TRACE_SAMPLE`-th event records a full
/// mark with a non-zero tid (tid build + `Vec` push), matching the
/// mark:event ratio of a traced measurement run. Benchmarking this
/// against [`build_phold`] pins the overhead the tracer adds to a
/// simulation.
pub fn build_phold_traced(cfg: &PholdConfig) -> Simulation<u64> {
    let mut sim = build_phold(cfg);
    sim.set_request_trace(true);
    sim
}

/// Fingerprint of a completed PHOLD run (determinism comparisons).
pub fn phold_fingerprint(sim: &Simulation<u64>, lps: u32) -> u64 {
    (0..lps).fold(0u64, |acc, i| {
        let lp = sim
            .entity_ref::<PholdLp>(EntityId(i))
            .expect("PHOLD LP missing");
        acc.wrapping_mul(0x9E3779B97F4A7C15) ^ lp.fingerprint ^ lp.handled
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{run_parallel, ParallelConfig};

    fn small() -> PholdConfig {
        PholdConfig {
            lps: 32,
            population: 256,
            horizon: SimTime::from_millis(2),
            ..PholdConfig::default()
        }
    }

    #[test]
    fn population_stays_in_flight() {
        let cfg = small();
        let mut sim = build_phold(&cfg);
        let res = sim.run();
        // Every message forwards repeatedly until the horizon; with a
        // 2 ms horizon and ~15 us mean delay, each of the 256 messages
        // is handled ~130 times.
        assert!(res.events > 10_000, "only {} events", res.events);
        assert!(res.end_time <= cfg.horizon);
    }

    #[test]
    fn parallel_phold_is_deterministic() {
        let cfg = small();
        let mut seq = build_phold(&cfg);
        let seq_res = seq.run();
        let seq_fp = phold_fingerprint(&seq, cfg.lps);
        for threads in [2, 4] {
            let mut par = build_phold(&cfg);
            let par_res = run_parallel(&mut par, &ParallelConfig::with_threads(threads));
            assert_eq!(par_res.events, seq_res.events, "{threads} threads");
            assert_eq!(
                phold_fingerprint(&par, cfg.lps),
                seq_fp,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn traced_phold_matches_untraced() {
        let cfg = small();
        let mut plain = build_phold(&cfg);
        let plain_res = plain.run();
        let mut traced = build_phold_traced(&cfg);
        let traced_res = traced.run();
        assert_eq!(traced_res.events, plain_res.events);
        assert_eq!(
            phold_fingerprint(&traced, cfg.lps),
            phold_fingerprint(&plain, cfg.lps)
        );
        let marks = traced.drain_request_events();
        assert!(marks.iter().any(|e| e.entity == 0), "no marks recorded");
        // One mark per TRACE_SAMPLE handled events, per LP.
        let sampled: u64 = (0..cfg.lps)
            .map(|i| traced.entity_ref::<PholdLp>(EntityId(i)).unwrap().handled / TRACE_SAMPLE)
            .sum();
        assert_eq!(marks.len() as u64, sampled);
        assert!(plain.drain_request_events().is_empty());
    }

    #[test]
    fn traced_phold_marks_identical_across_executors() {
        use crate::parallel::Backend;
        let cfg = small();
        let mut seq = build_phold_traced(&cfg);
        seq.run();
        let seq_marks = seq.drain_request_events();
        assert!(!seq_marks.is_empty());
        for backend in [Backend::Threads, Backend::Cooperative] {
            for threads in [2, 3] {
                let mut par = build_phold_traced(&cfg);
                let pcfg = ParallelConfig {
                    threads,
                    backend,
                    ..ParallelConfig::default()
                };
                run_parallel(&mut par, &pcfg);
                assert!(
                    par.drain_request_events() == seq_marks,
                    "{backend:?}, {threads} threads"
                );
            }
        }
    }

    #[test]
    #[ignore = "timing probe, run manually with --release"]
    fn reqtrace_overhead_probe() {
        let cfg = PholdConfig {
            lps: 256,
            population: 8192,
            horizon: SimTime::from_millis(10),
            ..PholdConfig::default()
        };
        let t0 = std::time::Instant::now();
        let mut plain = build_phold(&cfg);
        let plain_res = plain.run();
        let plain_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = std::time::Instant::now();
        let mut traced = build_phold_traced(&cfg);
        let traced_res = traced.run();
        let traced_ms = t1.elapsed().as_secs_f64() * 1e3;
        println!(
            "plain {} events {plain_ms:.1} ms | traced {} events {traced_ms:.1} ms | +{:.1}%",
            plain_res.events,
            traced_res.events,
            (traced_ms / plain_ms - 1.0) * 100.0
        );
    }

    #[test]
    fn event_count_scales_with_population() {
        let base = small();
        let double = PholdConfig {
            population: base.population * 2,
            ..base
        };
        let mut a = build_phold(&base);
        let mut b = build_phold(&double);
        let ra = a.run();
        let rb = b.run();
        let ratio = rb.events as f64 / ra.events as f64;
        assert!((1.8..=2.2).contains(&ratio), "ratio {ratio}");
    }
}
