//! Per-worker phase timelines for the parallel DES executor (wall clock).
//!
//! The scaling observatory instruments both parallel backends with a
//! four-phase accounting of each worker's wall-clock time: event
//! *compute*, *mailbox-drain* (cross-partition message intake plus the
//! shared-state snapshot), *barrier* coordination, and *horizon-stall*
//! (the worker had events pending but the conservative window excluded
//! them — it was blocked on another worker's `next_j + lookahead`).
//!
//! Recording follows the same discipline as the request tracer
//! ([`crate::reqtrace`]): every worker owns a private [`PhaseRecorder`]
//! it appends to without locks, and the per-worker buffers are merged
//! deterministically (worker order) after the run into an
//! [`ExecProfile`].
//!
//! ## Conservation by construction
//!
//! A recorder keeps a single *last stamp*. Every [`PhaseRecorder::mark`]
//! reads the clock once, attributes the entire segment since the last
//! stamp to exactly one phase, and advances the stamp. The worker's
//! recorded span runs from construction to the final stamp, so
//!
//! ```text
//! sum(phase_ns) == span_ns        (exactly, in integer nanoseconds)
//! ```
//!
//! holds by telescoping — there is no second clock read that could
//! disagree. The property tests in `tests/des_profile_props.rs` pin
//! this invariant across random PHOLD topologies and both backends.
//!
//! This module is shared *vocabulary*: it has no dependency on the DES
//! engine, so `pioeval-des` (the producer) and `pioeval-monitor` (the
//! attribution analyzer) both speak it without a dependency cycle.

use pioeval_obs::export::esc;
use std::time::Instant;

/// Number of profiled phases (the length of every `phase_ns` array).
pub const PROF_PHASES: usize = 4;

/// Sentinel for "this window was not limited by a peer worker"
/// (the horizon was bound by the worker's own queue or the stop time).
pub const NO_LIMITER: u32 = u32::MAX;

/// Default cap on retained per-window samples per worker. Totals stay
/// exact past the cap; only the per-window timeline is truncated (the
/// drop is counted in [`WorkerProfile::dropped_samples`], never silent).
pub const PROF_SAMPLE_CAP: usize = 1 << 16;

/// One of the four profiled wall-clock phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProfPhase {
    /// Processing events inside the committed window.
    Compute,
    /// Draining cross-partition mailboxes and snapshotting shared state.
    MailboxDrain,
    /// Waiting at the window barrier (coordination cost proper).
    Barrier,
    /// Waiting with work pending that the conservative horizon excluded.
    HorizonStall,
}

impl ProfPhase {
    /// All phases, in `phase_ns` index order.
    pub const ALL: [ProfPhase; PROF_PHASES] = [
        ProfPhase::Compute,
        ProfPhase::MailboxDrain,
        ProfPhase::Barrier,
        ProfPhase::HorizonStall,
    ];

    /// The phase's slot in a `phase_ns` array.
    pub fn index(self) -> usize {
        match self {
            ProfPhase::Compute => 0,
            ProfPhase::MailboxDrain => 1,
            ProfPhase::Barrier => 2,
            ProfPhase::HorizonStall => 3,
        }
    }

    /// Stable lower-case name (`compute`, `mailbox`, `barrier`, `stall`).
    pub fn name(self) -> &'static str {
        match self {
            ProfPhase::Compute => "compute",
            ProfPhase::MailboxDrain => "mailbox",
            ProfPhase::Barrier => "barrier",
            ProfPhase::HorizonStall => "stall",
        }
    }
}

/// One worker's phase breakdown for a single committed window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSample {
    /// Window start, in ns since the epoch the recorder was started
    /// with. The parallel executor passes the telemetry registry's
    /// epoch, so samples share the time axis of the `--trace-out` spans;
    /// a worker's first window starts when its recorder was built.
    pub start_ns: u64,
    /// Wall-clock nanoseconds per phase, indexed by [`ProfPhase::index`].
    /// A worker's last window also holds time marked after its commit
    /// ([`PhaseRecorder::finish`]).
    pub phase_ns: [u64; PROF_PHASES],
    /// Events this worker processed in the window (0 = null window).
    pub events: u64,
    /// The peer worker whose `next + lookahead` bounded this worker's
    /// horizon, or [`NO_LIMITER`] when self- or stop-time-bound.
    pub limiter: u32,
}

/// One worker's merged phase timeline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Worker index (partition id).
    pub worker: u32,
    /// Entities owned by this worker's partition.
    pub entities: u64,
    /// Events processed across the whole run.
    pub events: u64,
    /// Windows this worker participated in.
    pub windows: u64,
    /// Windows in which this worker processed no events.
    pub null_windows: u64,
    /// Total recorded span (ns); equals the sum of `phase_ns` exactly.
    pub span_ns: u64,
    /// Whole-run wall-clock nanoseconds per phase.
    pub phase_ns: [u64; PROF_PHASES],
    /// Per-window samples, in window order (capped; see
    /// [`WorkerProfile::dropped_samples`]). With no drops they tile
    /// `phase_ns` exactly.
    pub samples: Vec<WindowSample>,
    /// Windows whose samples were dropped by the retention cap. Phase
    /// totals above still include them.
    pub dropped_samples: u64,
}

impl WorkerProfile {
    /// Total time this worker was not computing (ns).
    pub fn blocked_ns(&self) -> u64 {
        self.span_ns
            .saturating_sub(self.phase_ns[ProfPhase::Compute.index()])
    }

    /// True when the phase totals tile the span exactly.
    pub fn conserves(&self) -> bool {
        self.phase_ns.iter().sum::<u64>() == self.span_ns
    }
}

/// The merged profile of one parallel execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecProfile {
    /// Worker thread count.
    pub threads: u32,
    /// Backend that ran (`threads` or `cooperative`).
    pub backend: String,
    /// Window policy: `adaptive` (documents from before the fixed
    /// policy was removed may say `fixed`).
    pub window_policy: String,
    /// Partitioner: `round_robin` (documents from before the block and
    /// greedy partitioners were removed may say `block` or `greedy`).
    pub partitioner: String,
    /// Conservative lookahead, in *simulated* nanoseconds.
    pub lookahead_ns: u64,
    /// Wall clock of the parallel section: the longest worker span (ns).
    pub wall_ns: u64,
    /// Committed windows (shared across workers).
    pub windows: u64,
    /// Per-worker timelines, in worker order.
    pub workers: Vec<WorkerProfile>,
    /// Events the executor ran on the calling thread's sequential loop
    /// after handing the rest of a losing threaded run over (0 when the
    /// run stayed threaded). Worker spans end at the hand-off, so these
    /// events are outside every worker's `events`.
    pub inline_events: u64,
    /// Wall clock of that sequential stretch (ns); not part of
    /// [`ExecProfile::wall_ns`].
    pub inline_ns: u64,
}

impl ExecProfile {
    /// Schema tag written into the JSON document.
    pub const SCHEMA: &'static str = "pioeval-profile/1";

    /// True when every worker's phase totals tile its span exactly.
    pub fn conserves(&self) -> bool {
        self.workers.iter().all(WorkerProfile::conserves)
    }

    /// Total compute across workers (ns).
    pub fn total_compute_ns(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.phase_ns[ProfPhase::Compute.index()])
            .sum()
    }

    /// Serialize to the `pioeval-profile/1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096 + 128 * self.workers.len());
        out.push_str(&format!(
            "{{\"schema\": \"{}\", \"threads\": {}, \"backend\": \"{}\", \
             \"window_policy\": \"{}\", \"partitioner\": \"{}\", \
             \"lookahead_ns\": {}, \"wall_ns\": {}, \"windows\": {}, \
             \"inline_events\": {}, \"inline_ns\": {}, \"workers\": [",
            Self::SCHEMA,
            self.threads,
            esc(&self.backend),
            esc(&self.window_policy),
            esc(&self.partitioner),
            self.lookahead_ns,
            self.wall_ns,
            self.windows,
            self.inline_events,
            self.inline_ns
        ));
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"worker\": {}, \"entities\": {}, \"events\": {}, \
                 \"windows\": {}, \"null_windows\": {}, \"span_ns\": {}, \
                 \"dropped_samples\": {}",
                w.worker,
                w.entities,
                w.events,
                w.windows,
                w.null_windows,
                w.span_ns,
                w.dropped_samples
            ));
            for p in ProfPhase::ALL {
                out.push_str(&format!(", \"{}_ns\": {}", p.name(), w.phase_ns[p.index()]));
            }
            out.push_str(", \"samples\": [");
            for (j, s) in w.samples.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{{\"start_ns\": {}", s.start_ns));
                for p in ProfPhase::ALL {
                    out.push_str(&format!(", \"{}_ns\": {}", p.name(), s.phase_ns[p.index()]));
                }
                out.push_str(&format!(
                    ", \"events\": {}, \"limiter\": {}}}",
                    s.events,
                    if s.limiter == NO_LIMITER {
                        -1i64
                    } else {
                        s.limiter as i64
                    }
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Parse a document written by [`ExecProfile::to_json`]. Fields added
    /// within schema 1 (`inline_events`, `inline_ns`) read as 0 when
    /// absent, and a `limiter` of `-1` reads as [`NO_LIMITER`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        use serde_json::Value;
        let doc = serde_json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
        let u64_of = |v: &Value, key: &str| -> Result<u64, String> {
            match v.get(key) {
                Some(Value::U64(u)) => Ok(*u),
                Some(Value::I64(i)) if *i >= 0 => Ok(*i as u64),
                Some(Value::F64(f)) if *f >= 0.0 => Ok(*f as u64),
                _ => Err(format!("field \"{key}\": expected an unsigned integer")),
            }
        };
        let str_of = |v: &Value, key: &str| -> Result<String, String> {
            match v.get(key) {
                Some(Value::Str(s)) => Ok(s.clone()),
                other => Err(format!("field \"{key}\": expected a string, got {other:?}")),
            }
        };
        let opt_u64_of = |v: &Value, key: &str| match v.get(key) {
            None => Ok(0),
            Some(_) => u64_of(v, key),
        };
        let phases_of = |v: &Value| -> Result<[u64; PROF_PHASES], String> {
            let mut out = [0u64; PROF_PHASES];
            for p in ProfPhase::ALL {
                out[p.index()] = u64_of(v, &format!("{}_ns", p.name()))?;
            }
            Ok(out)
        };
        let schema = str_of(&doc, "schema")?;
        if schema != Self::SCHEMA {
            return Err(format!(
                "unsupported profile schema {schema:?} (want {:?})",
                Self::SCHEMA
            ));
        }
        let mut workers = Vec::new();
        if let Some(Value::Seq(items)) = doc.get("workers") {
            for w in items {
                let mut samples = Vec::new();
                if let Some(Value::Seq(ss)) = w.get("samples") {
                    for s in ss {
                        let limiter = match s.get("limiter") {
                            Some(Value::I64(i)) if *i < 0 => NO_LIMITER,
                            Some(_) => u64_of(s, "limiter")
                                .map_err(|_| "field \"limiter\": expected an integer")?
                                as u32,
                            None => NO_LIMITER,
                        };
                        samples.push(WindowSample {
                            start_ns: u64_of(s, "start_ns")?,
                            phase_ns: phases_of(s)?,
                            events: u64_of(s, "events")?,
                            limiter,
                        });
                    }
                }
                workers.push(WorkerProfile {
                    worker: u64_of(w, "worker")? as u32,
                    entities: u64_of(w, "entities")?,
                    events: u64_of(w, "events")?,
                    windows: u64_of(w, "windows")?,
                    null_windows: u64_of(w, "null_windows")?,
                    span_ns: u64_of(w, "span_ns")?,
                    phase_ns: phases_of(w)?,
                    samples,
                    dropped_samples: u64_of(w, "dropped_samples")?,
                });
            }
        }
        if workers.is_empty() {
            return Err("profile has no workers".to_string());
        }
        Ok(ExecProfile {
            threads: u64_of(&doc, "threads")? as u32,
            backend: str_of(&doc, "backend")?,
            window_policy: str_of(&doc, "window_policy")?,
            partitioner: str_of(&doc, "partitioner")?,
            lookahead_ns: u64_of(&doc, "lookahead_ns")?,
            wall_ns: u64_of(&doc, "wall_ns")?,
            windows: u64_of(&doc, "windows")?,
            workers,
            // Added within schema 1: documents written before the threaded
            // executor could hand off to the sequential loop read as 0.
            inline_events: opt_u64_of(&doc, "inline_events")?,
            inline_ns: opt_u64_of(&doc, "inline_ns")?,
        })
    }
}

/// A per-worker lock-free phase recorder (telescoping timestamps).
///
/// Owned exclusively by one worker; never shared, never locked. The
/// parallel executor holds `Option<PhaseRecorder>` per worker, so the
/// unprofiled path pays a single branch per mark site.
#[derive(Debug)]
pub struct PhaseRecorder {
    epoch: Instant,
    last_ns: u64,
    window_start_ns: u64,
    cur_phase_ns: [u64; PROF_PHASES],
    profile: WorkerProfile,
    cap: usize,
}

impl PhaseRecorder {
    /// Start recording for `worker` now. Timestamps count from `epoch`
    /// (the caller's time origin); the span starts at construction, so
    /// the time before it is attributed to no phase.
    pub fn start(worker: u32, epoch: Instant) -> Self {
        let now_ns = epoch.elapsed().as_nanos() as u64;
        PhaseRecorder {
            epoch,
            last_ns: now_ns,
            window_start_ns: now_ns,
            cur_phase_ns: [0; PROF_PHASES],
            profile: WorkerProfile {
                worker,
                ..WorkerProfile::default()
            },
            cap: PROF_SAMPLE_CAP,
        }
    }

    /// Close the open segment, attributing everything since the last
    /// stamp to `phase`. One clock read; exact telescoping.
    pub fn mark(&mut self, phase: ProfPhase) {
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        let delta = now_ns - self.last_ns;
        self.last_ns = now_ns;
        self.cur_phase_ns[phase.index()] += delta;
        self.profile.phase_ns[phase.index()] += delta;
        self.profile.span_ns += delta;
    }

    /// Commit the current window: fold the open per-window phase
    /// accumulators into a [`WindowSample`] and reset them. `events` is
    /// the number of events this worker processed in the window;
    /// `limiter` identifies the peer that bounded the horizon (or
    /// [`NO_LIMITER`]).
    pub fn end_window(&mut self, events: u64, limiter: u32) {
        self.profile.windows += 1;
        if events == 0 {
            self.profile.null_windows += 1;
        }
        if self.profile.samples.len() < self.cap {
            self.profile.samples.push(WindowSample {
                start_ns: self.window_start_ns,
                phase_ns: self.cur_phase_ns,
                events,
                limiter,
            });
        } else {
            self.profile.dropped_samples += 1;
        }
        self.cur_phase_ns = [0; PROF_PHASES];
        self.window_start_ns = self.last_ns;
    }

    /// Finish recording: stamp final bookkeeping and return the merged
    /// per-worker profile. `entities`/`events` are the run totals the
    /// executor already tracks.
    ///
    /// Time marked after the last committed window (the threaded
    /// backend's final mailbox drain before its termination check) is
    /// folded into the last sample when that sample is the last window,
    /// so with no dropped samples the samples tile the phase totals.
    pub fn finish(mut self, entities: u64, events: u64) -> WorkerProfile {
        if self.profile.dropped_samples == 0 {
            if let Some(last) = self.profile.samples.last_mut() {
                for (s, open) in last.phase_ns.iter_mut().zip(self.cur_phase_ns) {
                    *s += open;
                }
            }
        }
        self.profile.entities = entities;
        self.profile.events = events;
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indexes_are_stable_and_distinct() {
        for (i, p) in ProfPhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let names: Vec<_> = ProfPhase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["compute", "mailbox", "barrier", "stall"]);
    }

    #[test]
    fn recorder_phase_totals_tile_span_exactly() {
        let mut rec = PhaseRecorder::start(3, Instant::now());
        for w in 0..100u64 {
            rec.mark(ProfPhase::MailboxDrain);
            if w % 3 == 0 {
                std::thread::yield_now();
            }
            rec.mark(ProfPhase::Compute);
            rec.mark(if w % 4 == 0 {
                ProfPhase::HorizonStall
            } else {
                ProfPhase::Barrier
            });
            rec.end_window(w % 5, if w % 7 == 0 { NO_LIMITER } else { 1 });
        }
        // A segment marked after the last window (a termination probe).
        std::thread::yield_now();
        rec.mark(ProfPhase::MailboxDrain);
        let prof = rec.finish(8, 200);
        assert_eq!(prof.worker, 3);
        assert_eq!(prof.entities, 8);
        assert_eq!(prof.events, 200);
        assert_eq!(prof.windows, 100);
        assert_eq!(prof.null_windows, 20, "events == 0 every 5th window");
        assert!(prof.conserves(), "phase sum must equal span exactly");
        assert_eq!(prof.samples.len(), 100);
        assert_eq!(prof.dropped_samples, 0);
        // Per-window samples tile every phase total too: each segment,
        // the trailing one included, went to exactly one window.
        for p in ProfPhase::ALL {
            let sampled: u64 = prof.samples.iter().map(|s| s.phase_ns[p.index()]).sum();
            assert_eq!(sampled, prof.phase_ns[p.index()], "{}", p.name());
        }
    }

    #[test]
    fn sample_cap_counts_drops_but_keeps_totals() {
        let mut rec = PhaseRecorder::start(0, Instant::now());
        rec.cap = 4;
        for _ in 0..10 {
            rec.mark(ProfPhase::Compute);
            rec.end_window(1, NO_LIMITER);
        }
        let prof = rec.finish(1, 10);
        assert_eq!(prof.samples.len(), 4);
        assert_eq!(prof.dropped_samples, 6);
        assert_eq!(prof.windows, 10);
        assert!(prof.conserves());
    }

    #[test]
    fn exec_profile_json_has_schema_and_workers() {
        let mut rec = PhaseRecorder::start(0, Instant::now());
        rec.mark(ProfPhase::Compute);
        rec.end_window(5, 1);
        let prof = ExecProfile {
            threads: 2,
            backend: "threads".into(),
            window_policy: "adaptive".into(),
            partitioner: "block".into(),
            lookahead_ns: 10_000,
            wall_ns: 123,
            windows: 1,
            workers: vec![rec.finish(4, 5)],
            inline_events: 7,
            inline_ns: 456,
        };
        assert!(prof.conserves());
        let json = prof.to_json();
        assert!(json.contains("\"schema\": \"pioeval-profile/1\""));
        assert!(json.contains("\"backend\": \"threads\""));
        assert!(json.contains("\"compute_ns\""));
        assert!(json.contains("\"limiter\": 1"));
        assert!(json.contains("\"inline_events\": 7, \"inline_ns\": 456"));
    }

    #[test]
    fn no_limiter_serializes_as_minus_one() {
        let mut rec = PhaseRecorder::start(0, Instant::now());
        rec.mark(ProfPhase::Compute);
        rec.end_window(0, NO_LIMITER);
        let prof = ExecProfile {
            threads: 1,
            backend: "cooperative".into(),
            window_policy: "fixed".into(),
            partitioner: "round_robin".into(),
            lookahead_ns: 1,
            wall_ns: 1,
            windows: 1,
            workers: vec![rec.finish(1, 0)],
            ..ExecProfile::default()
        };
        assert!(prof.to_json().contains("\"limiter\": -1"));
    }

    #[test]
    fn from_json_inverts_to_json() {
        let sample = |start_ns, limiter| WindowSample {
            start_ns,
            phase_ns: [5, 1, 2, 3],
            events: 4,
            limiter,
        };
        let prof = ExecProfile {
            threads: 2,
            backend: "thr\"ea\\ds".into(),
            window_policy: "adap\ttive\"".into(),
            partitioner: "\\block\u{1}".into(),
            lookahead_ns: 1000,
            wall_ns: 22,
            windows: 2,
            workers: vec![WorkerProfile {
                worker: 1,
                entities: 3,
                events: 8,
                windows: 2,
                null_windows: 0,
                span_ns: 22,
                phase_ns: [10, 2, 4, 6],
                samples: vec![sample(0, NO_LIMITER), sample(11, 0)],
                dropped_samples: 0,
            }],
            inline_events: 97,
            inline_ns: 400,
        };
        let text = prof.to_json();
        assert!(text.contains("\"limiter\": -1"), "{text}");
        assert_eq!(ExecProfile::from_json(&text), Ok(prof.clone()));
        // Documents written before the sequential hand-off existed.
        let old = text.replace("\"inline_events\": 97, \"inline_ns\": 400, ", "");
        assert_ne!(old, text);
        let back = ExecProfile::from_json(&old).unwrap();
        assert_eq!((back.inline_events, back.inline_ns), (0, 0));
        assert_eq!(back.workers, prof.workers);
        let err = ExecProfile::from_json(&text.replace("profile/1", "profile/9"));
        assert!(err.unwrap_err().contains("unsupported profile schema"));
        // Documents from executors that had more window policies and
        // partitioners read back with their fields as written.
        for (window_policy, partitioner) in [("fixed", "greedy"), ("fixed", "block")] {
            let older = ExecProfile {
                window_policy: window_policy.into(),
                partitioner: partitioner.into(),
                ..prof.clone()
            };
            assert_eq!(ExecProfile::from_json(&older.to_json()), Ok(older));
        }
    }

    #[test]
    fn blocked_time_excludes_compute() {
        let w = WorkerProfile {
            span_ns: 100,
            phase_ns: [60, 10, 20, 10],
            ..WorkerProfile::default()
        };
        assert!(w.conserves());
        assert_eq!(w.blocked_ns(), 40);
    }
}
