//! Live telemetry streaming: periodic delta-encoded snapshot frames.
//!
//! The registry (see [`crate::Registry`]) is finalize-then-export by
//! design: exporters run after the workload. For long campaigns that is
//! exactly wrong — operators want to *watch* the run. This module adds a
//! [`LiveExporter`]: a sampler thread that takes non-destructive
//! [`Registry::snapshot_instruments`] snapshots on a configurable
//! interval, delta-encodes each against the previous one, and appends the
//! result as timestamped JSONL frames to a tailable file (`pioeval watch
//! FILE` is the consumer).
//!
//! ## Lock discipline
//!
//! The sampler must never block the hot DES/PFS/objstore paths. It reads
//! only through [`Registry::snapshot_instruments`]: three brief
//! instrument-map mutexes (the same ones `counter()`/`gauge()` take at
//! *registration*, never per update — updates are lock-free atomics on
//! `Arc`'d instruments the engines cache up front) plus the event-log
//! length. Per-thread span buffers stay private to their workers until
//! finalize, so the sampler cannot contend with a worker's window loop at
//! all; engines publish live progress by bumping plain counters/gauges at
//! window/chunk boundaries, never by calling into this module.
//!
//! ## Delta encoding
//!
//! Each frame carries only what changed since the previous frame:
//! counters as increments, gauges as absolute `{last,max}` when changed,
//! histograms as `{count,sum}` increments plus per-bucket increments.
//! Summing a stream's counter deltas reproduces the post-mortem totals
//! exactly (the round-trip equivalence the CLI's `watch` relies on). A
//! final `done` frame marks completion.
//!
//! Frames are JSON objects, one per line, schema `pioeval-live/1`:
//!
//! ```json
//! {"schema":"pioeval-live/1","run":"r1","seq":3,"t_us":152034,
//!  "kind":"delta","phase":"measure:simulate","open_spans":2,
//!  "counters":{"des.live.events":8192},
//!  "gauges":{"des.live.queue_depth":{"last":40,"max":96}},
//!  "hists":{"des.par.thread_busy_us":{"count":2,"sum":810,"buckets":{"9":2}}}}
//! ```
//!
//! `t_us` is microseconds since the registry epoch (monotonic, and on the
//! same clock as span timestamps so live counter tracks line up with
//! spans in a Chrome trace).

use crate::export::esc;
use crate::metrics::{GaugeSnapshot, HistSnapshot};
use crate::registry::{InstrumentTotals, Registry};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default sampling interval (also the CLI default for `--live-interval`).
pub const DEFAULT_INTERVAL_MS: u64 = 250;

/// Cap on retained per-counter time-series points; when reached, every
/// other point is dropped (halving), so long runs keep a bounded,
/// progressively coarser history instead of growing without limit.
const SERIES_CAP: usize = 4096;

/// Where and how a [`LiveExporter`] publishes frames.
#[derive(Clone, Debug, Default)]
pub struct LiveConfig {
    /// Sampling interval; `None` = [`DEFAULT_INTERVAL_MS`].
    pub interval: Option<Duration>,
    /// Append frames to this file (created/truncated at start; flushed
    /// per frame so `tail -f` and `pioeval watch` see them promptly).
    pub file: Option<PathBuf>,
    /// Run identifier stamped into every frame.
    pub run_id: String,
}

/// One histogram's increment within a frame:
/// `(name, count_inc, sum_inc, bucket_incs)` where `bucket_incs` holds
/// `(bucket_index, increment)` pairs for buckets that grew.
pub type HistDelta = (String, u64, u64, Vec<(usize, u64)>);

/// One frame's payload: what changed since the previous sample.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FrameDelta {
    /// Counter increments, name-sorted; zero-increment names omitted.
    pub counters: Vec<(String, u64)>,
    /// Gauges whose `{last,max}` changed, as absolute snapshots.
    pub gauges: Vec<(String, GaugeSnapshot)>,
    /// Histogram increments for histograms that grew.
    pub hists: Vec<HistDelta>,
    /// Completed-span increment.
    pub spans_done: u64,
}

impl FrameDelta {
    /// True when nothing changed between the two samples.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.spans_done == 0
    }
}

/// Delta-encode `cur` against `prev` (both name-sorted, as produced by
/// [`Registry::snapshot_instruments`]). Counters and histograms encode as
/// saturating increments — a counter that somehow shrank (registry reset
/// mid-run) encodes as 0 rather than wrapping.
pub fn delta(prev: &InstrumentTotals, cur: &InstrumentTotals) -> FrameDelta {
    let lookup_c = |name: &str| -> u64 {
        prev.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| prev.counters[i].1)
            .unwrap_or(0)
    };
    let counters: Vec<(String, u64)> = cur
        .counters
        .iter()
        .filter_map(|(n, v)| {
            let inc = v.saturating_sub(lookup_c(n));
            (inc > 0).then(|| (n.clone(), inc))
        })
        .collect();
    let lookup_g = |name: &str| -> Option<GaugeSnapshot> {
        prev.gauges
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| prev.gauges[i].1)
            .ok()
    };
    let gauges: Vec<(String, GaugeSnapshot)> = cur
        .gauges
        .iter()
        .filter(|(n, g)| lookup_g(n) != Some(*g))
        .cloned()
        .collect();
    let lookup_h = |name: &str| -> Option<&HistSnapshot> {
        prev.hists
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| &prev.hists[i].1)
            .ok()
    };
    let hists: Vec<HistDelta> = cur
        .hists
        .iter()
        .filter_map(|(n, h)| {
            let empty = HistSnapshot::default();
            let p = lookup_h(n).unwrap_or(&empty);
            if h.count == p.count && h.sum == p.sum {
                return None;
            }
            let buckets: Vec<(usize, u64)> = h
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, &c)| {
                    let pc = p.buckets.get(i).copied().unwrap_or(0);
                    let inc = c.saturating_sub(pc);
                    (inc > 0).then_some((i, inc))
                })
                .collect();
            Some((
                n.clone(),
                h.count.saturating_sub(p.count),
                h.sum.saturating_sub(p.sum),
                buckets,
            ))
        })
        .collect();
    FrameDelta {
        counters,
        gauges,
        hists,
        spans_done: cur.spans_done.saturating_sub(prev.spans_done),
    }
}

/// Serialize one frame as a single JSON line (no trailing newline).
pub fn frame_json(
    run_id: &str,
    seq: u64,
    t_us: u64,
    kind: &str,
    phase: &str,
    open_spans: u64,
    d: &FrameDelta,
) -> String {
    let mut s = String::with_capacity(160);
    let _ = write!(
        s,
        "{{\"schema\":\"pioeval-live/1\",\"run\":\"{}\",\"seq\":{},\"t_us\":{},\"kind\":\"{}\",\"phase\":\"{}\",\"open_spans\":{}",
        esc(run_id),
        seq,
        t_us,
        esc(kind),
        esc(phase),
        open_spans
    );
    if !d.counters.is_empty() {
        s.push_str(",\"counters\":{");
        for (i, (n, v)) in d.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{}", esc(n), v);
        }
        s.push('}');
    }
    if !d.gauges.is_empty() {
        s.push_str(",\"gauges\":{");
        for (i, (n, g)) in d.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"last\":{},\"max\":{}}}",
                esc(n),
                g.last,
                g.max
            );
        }
        s.push('}');
    }
    if !d.hists.is_empty() {
        s.push_str(",\"hists\":{");
        for (i, (n, count, sum, buckets)) in d.hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{{\"count\":{},\"sum\":{}", esc(n), count, sum);
            if !buckets.is_empty() {
                s.push_str(",\"buckets\":{");
                for (j, (idx, inc)) in buckets.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "\"{idx}\":{inc}");
                }
                s.push('}');
            }
            s.push('}');
        }
        s.push('}');
    }
    if d.spans_done > 0 {
        let _ = write!(s, ",\"spans_done\":{}", d.spans_done);
    }
    s.push('}');
    s
}

/// One counter's retained time series: `(t_us, cumulative value)` points
/// in frame order. Feed these to
/// [`crate::export::chrome_trace_with_counters`] for Perfetto counter
/// tracks.
pub type CounterSeries = (String, Vec<(u64, u64)>);

/// What a finished exporter hands back.
#[derive(Debug, Default)]
pub struct FinishReport {
    /// Frames written (including the final `done` frame).
    pub frames: u64,
    /// Cumulative per-counter samples retained across the run.
    pub series: Vec<CounterSeries>,
}

enum Cmd {
    /// Sample now (phase change or explicit progress pulse).
    Pulse,
    /// Sample one last time, emit the `done` frame, and exit.
    Stop,
}

/// A running live-telemetry sampler. Construct with
/// [`LiveExporter::start`]; stop (and retrieve the counter series) with
/// [`LiveExporter::finish`]. Dropping without `finish` stops the sampler
/// and still writes the `done` frame, but discards the report.
pub struct LiveExporter {
    tx: Sender<Cmd>,
    join: Option<JoinHandle<FinishReport>>,
    phase: Arc<Mutex<String>>,
}

impl LiveExporter {
    /// Start sampling `registry` per `cfg` on a background thread.
    ///
    /// Fails if the output file can't be created. Without a file the
    /// sampler still runs (the counter series still feed the Chrome
    /// trace), it just writes no frames anywhere.
    pub fn start(registry: &'static Registry, cfg: LiveConfig) -> io::Result<LiveExporter> {
        let file = match &cfg.file {
            Some(p) => Some(File::create(p)?),
            None => None,
        };
        let phase = Arc::new(Mutex::new(String::from("start")));
        let (tx, rx) = mpsc::channel::<Cmd>();
        let interval = cfg
            .interval
            .unwrap_or(Duration::from_millis(DEFAULT_INTERVAL_MS));
        let run_id = cfg.run_id.clone();
        let phase_for_thread = Arc::clone(&phase);
        let join = std::thread::Builder::new()
            .name("obs-live".to_string())
            .spawn(move || {
                let mut s = Sampler {
                    registry,
                    run_id,
                    phase: phase_for_thread,
                    file,
                    prev: InstrumentTotals::default(),
                    seq: 0,
                    frames: 0,
                    last_phase: String::new(),
                    series: Vec::new(),
                };
                loop {
                    match rx.recv_timeout(interval) {
                        Ok(Cmd::Stop) => {
                            s.sample("done");
                            break;
                        }
                        Ok(Cmd::Pulse) | Err(RecvTimeoutError::Timeout) => s.sample("delta"),
                        Err(RecvTimeoutError::Disconnected) => {
                            // Exporter dropped without finish(): still
                            // terminate the stream cleanly.
                            s.sample("done");
                            break;
                        }
                    }
                }
                FinishReport {
                    frames: s.frames,
                    series: s.series,
                }
            })?;
        Ok(LiveExporter {
            tx,
            join: Some(join),
            phase,
        })
    }

    /// Tag subsequent frames with `phase` and sample immediately, so
    /// every phase yields at least one frame however short it is.
    pub fn set_phase(&self, phase: &str) {
        *self.phase.lock().expect("live phase poisoned") = phase.to_string();
        let _ = self.tx.send(Cmd::Pulse);
    }

    /// Request an immediate sample (progress checkpoints between ticks).
    pub fn pulse(&self) {
        let _ = self.tx.send(Cmd::Pulse);
    }

    /// Stop the sampler: takes a final snapshot, writes the `done` frame,
    /// joins the thread, and returns the retained counter series.
    pub fn finish(mut self) -> FinishReport {
        let _ = self.tx.send(Cmd::Stop);
        match self.join.take() {
            Some(j) => j.join().unwrap_or_default(),
            None => FinishReport::default(),
        }
    }
}

impl Drop for LiveExporter {
    fn drop(&mut self) {
        if let Some(j) = self.join.take() {
            let _ = self.tx.send(Cmd::Stop);
            let _ = j.join();
        }
    }
}

/// Sampler-thread state (everything the tick loop touches).
struct Sampler {
    registry: &'static Registry,
    run_id: String,
    phase: Arc<Mutex<String>>,
    file: Option<File>,
    prev: InstrumentTotals,
    seq: u64,
    frames: u64,
    last_phase: String,
    series: Vec<CounterSeries>,
}

impl Sampler {
    fn now_us(&self) -> u64 {
        self.registry.since_epoch_ns(Instant::now()) / 1_000
    }

    fn sample(&mut self, kind: &str) {
        let cur = self.registry.snapshot_instruments();
        let d = delta(&self.prev, &cur);
        let phase = self.phase.lock().expect("live phase poisoned").clone();
        let phase_changed = phase != self.last_phase;
        // Quiet ticks produce no frame — except the first (stream header),
        // a phase transition (every stage gets ≥1 frame), and `done`.
        if d.is_empty() && !phase_changed && kind != "done" && self.frames > 0 {
            self.prev = cur;
            return;
        }
        let t_us = self.now_us();
        self.record_series(t_us, &cur);
        let line = frame_json(
            &self.run_id,
            self.seq,
            t_us,
            kind,
            &phase,
            cur.open_spans,
            &d,
        );
        if let Some(f) = &mut self.file {
            let _ = f.write_all(line.as_bytes());
            let _ = f.write_all(b"\n");
            let _ = f.flush();
        }
        self.seq += 1;
        self.frames += 1;
        self.last_phase = phase;
        self.prev = cur;
    }

    /// Retain cumulative counter samples for post-run Chrome counter
    /// tracks. A point is recorded when the value changed (or the counter
    /// is new); each series halves once it hits the cap.
    fn record_series(&mut self, t_us: u64, cur: &InstrumentTotals) {
        for (name, v) in &cur.counters {
            let entry = match self.series.iter_mut().find(|(n, _)| n == name) {
                Some(e) => e,
                None => {
                    self.series.push((name.clone(), Vec::new()));
                    self.series.last_mut().expect("just pushed")
                }
            };
            if entry.1.last().map(|&(_, pv)| pv) != Some(*v) {
                if entry.1.len() >= SERIES_CAP {
                    let mut i = 0;
                    entry.1.retain(|_| {
                        i += 1;
                        i % 2 == 0
                    });
                }
                entry.1.push((t_us, *v));
            }
        }
    }
}

/// The process-wide active exporter (what the `live::` free functions
/// talk to). The CLI installs one at startup; instrumented code calls
/// [`set_phase`]/[`pulse`] unconditionally — they no-op when inactive.
fn active() -> &'static Mutex<Option<LiveExporter>> {
    static ACTIVE: Mutex<Option<LiveExporter>> = Mutex::new(None);
    &ACTIVE
}

/// Install `exporter` as the process-wide live exporter, replacing (and
/// finishing) any previous one.
pub fn install(exporter: LiveExporter) {
    let prev = active()
        .lock()
        .expect("live exporter poisoned")
        .replace(exporter);
    drop(prev);
}

/// Tag frames with a phase label and sample immediately (no-op when no
/// exporter is installed). Called at stage boundaries only — never from
/// per-event loops.
pub fn set_phase(phase: &str) {
    if let Some(e) = active().lock().expect("live exporter poisoned").as_ref() {
        e.set_phase(phase);
    }
}

/// Request an immediate sample (no-op when no exporter is installed).
pub fn pulse() {
    if let Some(e) = active().lock().expect("live exporter poisoned").as_ref() {
        e.pulse();
    }
}

/// Finish and uninstall the process-wide exporter, returning its report
/// (`None` when none was installed). Call *after* the workload published
/// its final instrument values so the `done` frame captures them.
pub fn finish() -> Option<FinishReport> {
    active()
        .lock()
        .expect("live exporter poisoned")
        .take()
        .map(LiveExporter::finish)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::NUM_BUCKETS;

    fn totals(counters: &[(&str, u64)]) -> InstrumentTotals {
        InstrumentTotals {
            counters: counters.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            ..Default::default()
        }
    }

    #[test]
    fn counter_deltas_are_increments_and_skip_unchanged() {
        let prev = totals(&[("a", 5), ("b", 7)]);
        let cur = totals(&[("a", 9), ("b", 7), ("c", 2)]);
        let d = delta(&prev, &cur);
        assert_eq!(d.counters, vec![("a".to_string(), 4), ("c".to_string(), 2)]);
        assert!(d.gauges.is_empty() && d.hists.is_empty());
    }

    #[test]
    fn shrunken_counter_saturates_to_zero_increment() {
        let d = delta(&totals(&[("a", 9)]), &totals(&[("a", 3)]));
        assert!(d.counters.is_empty(), "no negative/wrapped increments");
    }

    #[test]
    fn gauge_included_only_when_changed() {
        let g = GaugeSnapshot { last: 3, max: 9 };
        let mut prev = InstrumentTotals::default();
        prev.gauges.push(("q".to_string(), g));
        let mut cur = prev.clone();
        assert!(delta(&prev, &cur).is_empty());
        cur.gauges[0].1.last = 5;
        let d = delta(&prev, &cur);
        assert_eq!(d.gauges.len(), 1);
        assert_eq!(d.gauges[0].1.last, 5);
    }

    #[test]
    fn hist_delta_carries_bucket_increments() {
        let mut prev_h = HistSnapshot {
            count: 2,
            sum: 10,
            buckets: vec![0; NUM_BUCKETS],
        };
        prev_h.buckets[3] = 2;
        let mut cur_h = prev_h.clone();
        cur_h.count = 5;
        cur_h.sum = 40;
        cur_h.buckets[3] = 3;
        cur_h.buckets[7] = 2;
        let mut prev = InstrumentTotals::default();
        prev.hists.push(("h".to_string(), prev_h));
        let mut cur = InstrumentTotals::default();
        cur.hists.push(("h".to_string(), cur_h));
        let d = delta(&prev, &cur);
        assert_eq!(d.hists.len(), 1);
        let (_, count, sum, buckets) = &d.hists[0];
        assert_eq!((*count, *sum), (3, 30));
        assert_eq!(buckets, &vec![(3usize, 1u64), (7usize, 2u64)]);
    }

    #[test]
    fn frame_json_shape() {
        let d = FrameDelta {
            counters: vec![("des.live.events".to_string(), 8)],
            gauges: vec![("q".to_string(), GaugeSnapshot { last: 1, max: 2 })],
            hists: vec![("h".to_string(), 1, 4, vec![(2, 1)])],
            spans_done: 3,
        };
        let s = frame_json("r1", 2, 99, "delta", "measure:simulate", 1, &d);
        assert!(s.starts_with("{\"schema\":\"pioeval-live/1\""));
        assert!(s.contains("\"run\":\"r1\""));
        assert!(s.contains("\"seq\":2"));
        assert!(s.contains("\"t_us\":99"));
        assert!(s.contains("\"phase\":\"measure:simulate\""));
        assert!(s.contains("\"counters\":{\"des.live.events\":8}"));
        assert!(s.contains("\"gauges\":{\"q\":{\"last\":1,\"max\":2}}"));
        assert!(s.contains("\"hists\":{\"h\":{\"count\":1,\"sum\":4,\"buckets\":{\"2\":1}}}"));
        assert!(s.contains("\"spans_done\":3"));
        assert!(!s.contains('\n'));
    }

    #[test]
    fn empty_frame_omits_sections() {
        let s = frame_json("r", 0, 0, "done", "", 0, &FrameDelta::default());
        assert!(!s.contains("counters"));
        assert!(!s.contains("gauges"));
        assert!(!s.contains("hists"));
        assert!(!s.contains("spans_done"));
    }

    #[test]
    fn exporter_writes_replayable_frames_to_file() {
        let reg: &'static Registry = Box::leak(Box::new(Registry::new()));
        let path =
            std::env::temp_dir().join(format!("pioeval_live_test_{}.jsonl", std::process::id()));
        let start = || {
            LiveExporter::start(
                reg,
                LiveConfig {
                    interval: Some(Duration::from_millis(5)),
                    file: Some(path.clone()),
                    run_id: "t".to_string(),
                },
            )
            .expect("start live exporter")
        };
        let exporter = start();
        reg.counter("x").add(3);
        exporter.set_phase("one");
        std::thread::sleep(Duration::from_millis(20));
        reg.counter("x").add(4);
        reg.gauge("g").record(11);
        exporter.set_phase("two");
        std::thread::sleep(Duration::from_millis(20));
        let report = exporter.finish();
        assert!(report.frames >= 2, "expected >=2 frames");
        let x = report
            .series
            .iter()
            .find(|(n, _)| n == "x")
            .expect("series for x");
        assert_eq!(x.1.last().map(|&(_, v)| v), Some(7));

        let text = std::fs::read_to_string(&path).expect("read frames");
        let mut total_x = 0u64;
        let mut last_t = 0u64;
        let mut saw_done = false;
        for line in text.lines() {
            assert!(line.starts_with("{\"schema\":\"pioeval-live/1\""));
            // Hand-rolled extraction (this crate has no JSON parser):
            // counters appear exactly as `"x":N` inside the counters map.
            if let Some(i) = line.find("\"counters\":{") {
                let rest = &line[i..];
                if let Some(j) = rest.find("\"x\":") {
                    let tail = &rest[j + 4..];
                    let end = tail
                        .find(|c: char| !c.is_ascii_digit())
                        .unwrap_or(tail.len());
                    total_x += tail[..end].parse::<u64>().expect("counter delta");
                }
            }
            let i = line.find("\"t_us\":").expect("t_us present");
            let tail = &line[i + 7..];
            let end = tail
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(tail.len());
            let t: u64 = tail[..end].parse().expect("t_us value");
            assert!(t >= last_t, "timestamps must be monotonic");
            last_t = t;
            saw_done |= line.contains("\"kind\":\"done\"");
        }
        assert_eq!(total_x, 7, "summed deltas reproduce the total");
        assert!(saw_done, "stream must end with a done frame");

        // Dropping (not finishing) an exporter still writes `done`.
        let exporter = start();
        reg.counter("x").add(1);
        exporter.pulse();
        drop(exporter);
        let text = std::fs::read_to_string(&path).expect("read frames");
        let _ = std::fs::remove_file(&path);
        let last = text.lines().last().expect("frames after drop");
        assert!(last.contains("\"kind\":\"done\""), "{text}");
    }
}
