//! The telemetry registry: named instruments plus the merged span log.

use crate::metrics::{
    Counter, CounterInner, Gauge, GaugeInner, GaugeSnapshot, HistInner, HistSnapshot, Histogram,
};
use crate::span::{LocalBuffer, SpanEvent};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cap on buffered span events: a runaway-instrumentation backstop far
/// above any real run (spans are per phase/run, not per event). Events
/// beyond the cap are counted in [`Snapshot::dropped_events`].
const MAX_EVENTS: usize = 1 << 20;

/// A telemetry registry: the sink all instruments and spans record into.
///
/// Most code uses the process-wide [`crate::global`] registry; tests and
/// embedders can own private instances.
pub struct Registry {
    epoch: Instant,
    counters: Mutex<HashMap<String, Arc<CounterInner>>>,
    gauges: Mutex<HashMap<String, Arc<GaugeInner>>>,
    hists: Mutex<HashMap<String, Arc<HistInner>>>,
    events: Mutex<EventLog>,
    threads: Mutex<Vec<String>>,
    /// Currently open [`crate::SpanGuard`]s (the live sampler's
    /// span-depth signal; buffer-recorded worker spans are merged only
    /// at finalize and so never appear here mid-run).
    open_spans: AtomicU64,
}

#[derive(Default)]
struct EventLog {
    events: Vec<SpanEvent>,
    dropped: u64,
}

/// A point-in-time, deterministic view of a registry: instruments sorted
/// by name, span events sorted by `(start_ns, tid, seq)`.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Counters as `(name, value)`, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauges as `(name, snapshot)`, name-sorted.
    pub gauges: Vec<(String, GaugeSnapshot)>,
    /// Histograms as `(name, snapshot)`, name-sorted.
    pub hists: Vec<(String, HistSnapshot)>,
    /// Completed spans in deterministic order.
    pub spans: Vec<SpanEvent>,
    /// Registered thread names, indexed by tid.
    pub threads: Vec<String>,
    /// Span events discarded because the log hit its cap.
    pub dropped_events: u64,
}

/// A lightweight, spans-free view of a registry's instruments — what the
/// live sampler reads on every tick. Taking one clones the three
/// instrument maps (name strings plus lock-free atomic reads) but never
/// the span log, so its cost is bounded by the instrument count, not by
/// how long the run has been going.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InstrumentTotals {
    /// Counters as `(name, value)`, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauges as `(name, snapshot)`, name-sorted.
    pub gauges: Vec<(String, GaugeSnapshot)>,
    /// Histograms as `(name, snapshot)`, name-sorted.
    pub hists: Vec<(String, HistSnapshot)>,
    /// Spans currently open on the guard path (nesting depth signal).
    pub open_spans: u64,
    /// Completed spans merged into the registry so far.
    pub spans_done: u64,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A fresh, empty registry whose epoch is "now".
    pub fn new() -> Self {
        Registry {
            epoch: Instant::now(),
            counters: Mutex::new(HashMap::new()),
            gauges: Mutex::new(HashMap::new()),
            hists: Mutex::new(HashMap::new()),
            events: Mutex::new(EventLog::default()),
            threads: Mutex::new(Vec::new()),
            open_spans: AtomicU64::new(0),
        }
    }

    /// The instant span and live-frame timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds between the registry epoch and `t` (0 if `t` precedes
    /// the epoch).
    pub fn since_epoch_ns(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.epoch)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("counter map poisoned");
        Counter(Arc::clone(map.entry(name.to_string()).or_default()))
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("gauge map poisoned");
        Gauge(Arc::clone(map.entry(name.to_string()).or_default()))
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.hists.lock().expect("histogram map poisoned");
        Histogram(Arc::clone(map.entry(name.to_string()).or_default()))
    }

    /// Note that a guard-path span just opened (see [`crate::SpanGuard`]).
    pub(crate) fn span_opened(&self) {
        self.open_spans.fetch_add(1, Ordering::Relaxed);
    }

    /// Note that a guard-path span just closed.
    pub(crate) fn span_closed(&self) {
        // Saturating: reset() may race a guard drop in tests; never wrap.
        let _ = self
            .open_spans
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Register a recording thread; returns its tid.
    pub fn register_thread(&self, name: &str) -> u32 {
        let mut threads = self.threads.lock().expect("thread table poisoned");
        threads.push(name.to_string());
        (threads.len() - 1) as u32
    }

    /// A private span buffer for one thread, tagged with a fresh tid.
    pub fn buffer(&self, thread_name: &str) -> LocalBuffer {
        LocalBuffer::new(self.register_thread(thread_name), self.epoch)
    }

    /// Append one completed span event (the [`crate::SpanGuard`] path).
    pub fn push_event(&self, ev: SpanEvent) {
        let mut log = self.events.lock().expect("event log poisoned");
        if log.events.len() >= MAX_EVENTS {
            log.dropped += 1;
        } else {
            log.events.push(ev);
        }
    }

    /// Merge a thread's buffered spans into the registry — the finalize
    /// step of the per-thread recording path. One lock acquisition per
    /// buffer, regardless of how many events it holds.
    pub fn merge(&self, buf: LocalBuffer) {
        let mut log = self.events.lock().expect("event log poisoned");
        for ev in buf.events {
            if log.events.len() >= MAX_EVENTS {
                log.dropped += 1;
            } else {
                log.events.push(ev);
            }
        }
    }

    /// A spans-free instrument snapshot: the live sampler's read path.
    ///
    /// Lock discipline: acquires each instrument-map mutex briefly (map
    /// iteration plus atomic loads) and the event-log mutex just long
    /// enough to read its length — never the per-thread span buffers,
    /// which are private to their workers until merged at finalize. The
    /// engines' hot loops hold none of these locks (they update cached
    /// `Arc`'d atomics), so sampling can never block them.
    pub fn snapshot_instruments(&self) -> InstrumentTotals {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), Counter(Arc::clone(v)).get()))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, GaugeSnapshot)> = self
            .gauges
            .lock()
            .expect("gauge map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), Gauge(Arc::clone(v)).get()))
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut hists: Vec<(String, HistSnapshot)> = self
            .hists
            .lock()
            .expect("histogram map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), Histogram(Arc::clone(v)).get()))
            .collect();
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        let spans_done = {
            let log = self.events.lock().expect("event log poisoned");
            log.events.len() as u64 + log.dropped
        };
        InstrumentTotals {
            counters,
            gauges,
            hists,
            open_spans: self.open_spans.load(Ordering::Relaxed),
            spans_done,
        }
    }

    /// Deterministic snapshot of everything recorded so far.
    ///
    /// Span order depends only on event content — `(start_ns, tid, seq)`
    /// — never on merge order, so N buffers merged in any order produce
    /// the same snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), Counter(Arc::clone(v)).get()))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, GaugeSnapshot)> = self
            .gauges
            .lock()
            .expect("gauge map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), Gauge(Arc::clone(v)).get()))
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut hists: Vec<(String, HistSnapshot)> = self
            .hists
            .lock()
            .expect("histogram map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), Histogram(Arc::clone(v)).get()))
            .collect();
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        let log = self.events.lock().expect("event log poisoned");
        let mut spans = log.events.clone();
        let dropped_events = log.dropped;
        drop(log);
        spans.sort_by_key(|e| (e.start_ns, e.tid, e.seq));
        Snapshot {
            counters,
            gauges,
            hists,
            spans,
            threads: self.threads.lock().expect("thread table poisoned").clone(),
            dropped_events,
        }
    }

    /// Clear all instruments and spans (tests; the epoch is preserved).
    pub fn reset(&self) {
        self.counters.lock().expect("counter map poisoned").clear();
        self.gauges.lock().expect("gauge map poisoned").clear();
        self.hists.lock().expect("histogram map poisoned").clear();
        let mut log = self.events.lock().expect("event log poisoned");
        log.events.clear();
        log.dropped = 0;
        drop(log);
        self.threads.lock().expect("thread table poisoned").clear();
        self.open_spans.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_are_shared_by_name() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.counter("a").add(3);
        r.counter("b").inc();
        let snap = r.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a".to_string(), 5), ("b".to_string(), 1)]
        );
    }

    #[test]
    fn span_nesting_order_is_preserved() {
        let r = Registry::new();
        let mut buf = r.buffer("t0");
        buf.begin("outer", "test");
        buf.begin("inner", "test");
        buf.end();
        buf.end();
        r.merge(buf);
        let spans = r.snapshot().spans;
        assert_eq!(spans.len(), 2);
        // Sorted by start: outer opened first, at depth 0; inner nests
        // inside it at depth 1.
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].depth, 1);
        // The parent interval encloses the child interval.
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(
            spans[0].start_ns + spans[0].dur_ns >= spans[1].start_ns + spans[1].dur_ns,
            "outer must enclose inner"
        );
    }

    #[test]
    fn merge_order_does_not_change_snapshot() {
        let make_buffers = |r: &Registry| {
            let mut a = r.buffer("a");
            let mut b = r.buffer("b");
            a.push_raw("a0", "t", 10, 5, 0);
            a.push_raw("a1", "t", 30, 5, 0);
            b.push_raw("b0", "t", 10, 5, 0);
            b.push_raw("b1", "t", 20, 5, 0);
            (a, b)
        };
        let r1 = Registry::new();
        let (a, b) = make_buffers(&r1);
        r1.merge(a);
        r1.merge(b);
        let r2 = Registry::new();
        let (a, b) = make_buffers(&r2);
        r2.merge(b); // reversed merge order
        r2.merge(a);
        let names = |r: &Registry| -> Vec<String> {
            r.snapshot().spans.into_iter().map(|e| e.name).collect()
        };
        assert_eq!(names(&r1), names(&r2));
        // Ties on start_ns break by tid: a0 (tid 0) before b0 (tid 1).
        assert_eq!(names(&r1), vec!["a0", "b0", "b1", "a1"]);
    }

    #[test]
    fn reset_clears_everything() {
        let r = Registry::new();
        r.counter("x").inc();
        r.gauge("g").record(7);
        r.histogram("h").observe(1);
        let mut buf = r.buffer("t");
        buf.push_raw("s", "t", 0, 1, 0);
        r.merge(buf);
        r.reset();
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.hists.is_empty());
        assert!(snap.spans.is_empty());
        assert!(snap.threads.is_empty());
    }
}
