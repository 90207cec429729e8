//! Exporters: human summary, flat metrics JSON, Chrome trace-event JSON.
//!
//! The JSON is hand-rolled (this crate is dependency-free); both
//! documents are plain standard JSON, parseable by any library. The
//! Chrome trace document loads directly in `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) (open the UI, drag the file in).

use crate::names;
use crate::perfetto::TraceWriter;
use crate::registry::{Registry, Snapshot};
use std::fmt::{self, Write as _};

/// Escape `s` as the body of a JSON string literal; the workspace's one
/// JSON string escaper for hand-written documents. `"` and `\`
/// take a backslash, newline/CR/tab their short forms, every other
/// character below U+0020 a `\u00XX` escape; the rest passes through.
///
/// The result is [`fmt::Display`], so `write!`/`format!` escape straight
/// into their output buffer; `esc(s).to_string()` gives an owned copy.
pub fn esc(s: &str) -> Esc<'_> {
    Esc(s)
}

/// A string rendered as the body of a JSON string literal; see [`esc`].
#[derive(Clone, Copy, Debug)]
pub struct Esc<'a>(&'a str);

impl fmt::Display for Esc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        let mut clean = 0;
        // Every byte that needs escaping is ASCII, so each one is a
        // whole char and the slices below stay on char boundaries.
        for (i, b) in s.bytes().enumerate() {
            let short = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            f.write_str(&s[clean..i])?;
            if short.is_empty() {
                write!(f, "\\u{b:04x}")?;
            } else {
                f.write_str(short)?;
            }
            clean = i + 1;
        }
        f.write_str(&s[clean..])
    }
}

/// Render an `f64` as a JSON number (finite values only; callers pass
/// derived ratios which are finite by construction, but be safe).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_string()
    }
}

/// The run-level headline figures derived from a snapshot.
#[derive(Clone, Copy, Debug)]
pub struct RunSummary {
    /// Wall-clock milliseconds of the outermost recorded interval: the
    /// `pioeval.run` span when present, else the longest span, else 0.
    pub wall_ms: f64,
    /// DES events processed (all executors).
    pub events_processed: u64,
    /// Events per wall-clock second (0 when no wall time was recorded).
    pub events_per_sec: f64,
    /// Pending-event-set high-water mark.
    pub queue_hwm: u64,
}

/// Derive the headline figures from a snapshot.
pub fn run_summary(snap: &Snapshot) -> RunSummary {
    let span_ms = |name: &str| -> Option<f64> {
        snap.spans
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.dur_ns)
            .max()
            .map(|ns| ns as f64 / 1e6)
    };
    let wall_ms = span_ms(names::SPAN_RUN)
        .or_else(|| {
            snap.spans
                .iter()
                .map(|e| e.dur_ns)
                .max()
                .map(|ns| ns as f64 / 1e6)
        })
        .unwrap_or(0.0);
    let events_processed = snap
        .counters
        .iter()
        .find(|(n, _)| n == names::DES_EVENTS)
        .map(|&(_, v)| v)
        .unwrap_or(0);
    let queue_hwm = snap
        .gauges
        .iter()
        .find(|(n, _)| n == names::DES_QUEUE_HWM)
        .map(|(_, g)| g.max)
        .unwrap_or(0);
    let events_per_sec = if wall_ms > 0.0 {
        events_processed as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };
    RunSummary {
        wall_ms,
        events_processed,
        events_per_sec,
        queue_hwm,
    }
}

/// The always-printed one-line run summary. Runs that moved bytes
/// through object-store gateways append PUT/GET totals; PFS-only runs
/// keep the original four fields.
pub fn summary_line(reg: &Registry) -> String {
    let snap = reg.snapshot();
    let s = run_summary(&snap);
    let mut line = format!(
        "telemetry: wall {:.1} ms | {} events | {:.0} events/s | queue hwm {}",
        s.wall_ms, s.events_processed, s.events_per_sec, s.queue_hwm
    );
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    let put = counter(names::OBJ_PUT_BYTES);
    let get = counter(names::OBJ_GET_BYTES);
    if put > 0 || get > 0 {
        line.push_str(&format!(" | obj put {put} B / get {get} B"));
    }
    line
}

/// Flat metrics JSON: headline keys at the top level plus every
/// instrument, suitable for `jq` and benchmark trajectories.
pub fn metrics_json(reg: &Registry) -> String {
    let snap = reg.snapshot();
    let s = run_summary(&snap);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"pioeval-obs/1\",");
    let _ = writeln!(out, "  \"wall_ms\": {},", num(s.wall_ms));
    let _ = writeln!(out, "  \"events_processed\": {},", s.events_processed);
    let _ = writeln!(out, "  \"events_per_sec\": {},", num(s.events_per_sec));
    let _ = writeln!(out, "  \"queue_hwm\": {},", s.queue_hwm);
    out.push_str("  \"counters\": {");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {}", esc(name), v);
    }
    out.push_str(if snap.counters.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    out.push_str("  \"gauges\": {");
    for (i, (name, g)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    \"{}\": {{\"last\": {}, \"max\": {}}}",
            esc(name),
            g.last,
            g.max
        );
    }
    out.push_str(if snap.gauges.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    out.push_str("  \"histograms\": {");
    for (i, (name, h)) in snap.hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"buckets\": [",
            esc(name),
            h.count,
            h.sum,
            num(h.mean())
        );
        for (j, (lo, hi, c)) in h.occupied().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{lo}, {hi}, {c}]");
        }
        out.push_str("]}");
    }
    out.push_str(if snap.hists.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    out.push_str("  \"spans\": {");
    // Aggregate spans by name: count + total duration.
    let mut agg: Vec<(String, u64, u64)> = Vec::new();
    for ev in &snap.spans {
        match agg.iter_mut().find(|(n, _, _)| *n == ev.name) {
            Some((_, count, total)) => {
                *count += 1;
                *total += ev.dur_ns;
            }
            None => agg.push((ev.name.clone(), 1, ev.dur_ns)),
        }
    }
    agg.sort();
    for (i, (name, count, total_ns)) in agg.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    \"{}\": {{\"count\": {}, \"total_ms\": {}}}",
            esc(name),
            count,
            num(*total_ns as f64 / 1e6)
        );
    }
    out.push_str(if agg.is_empty() { "},\n" } else { "\n  },\n" });
    let _ = writeln!(out, "  \"dropped_span_events\": {}", snap.dropped_events);
    out.push('}');
    out
}

/// Chrome trace-event JSON (see [`crate::perfetto`]): one complete
/// (`"ph": "X"`) event per span plus thread-name metadata, timestamps in
/// microseconds since the registry epoch. Counters render as Perfetto
/// counter tracks (`"ph": "C"`): with no live time series available,
/// each nonzero counter gets a two-point 0 → final ramp across the run.
pub fn chrome_trace(reg: &Registry) -> String {
    chrome_trace_with_counters(reg, &[]).finish()
}

/// [`chrome_trace`] with explicit counter time series (as retained by a
/// [`crate::live::LiveExporter`]): each `(name, points)` series becomes a
/// Perfetto counter track with one `"ph": "C"` event per sample, so the
/// counter's trajectory lines up with the span tracks. An empty `series`
/// falls back to two-point ramps from the final snapshot.
///
/// The writer comes back unfinished, so a caller can append more tracks
/// on the same time axis (process 1 is taken) before
/// [`TraceWriter::finish`].
pub fn chrome_trace_with_counters(
    reg: &Registry,
    series: &[(String, Vec<(u64, u64)>)],
) -> TraceWriter {
    let snap = reg.snapshot();
    let mut w = TraceWriter::default();
    // Perfetto groups tracks by process; without a process_name metadata
    // event the UI shows a bare "pid 1" header. Emit it whenever the
    // trace has any content at all (an empty registry stays empty).
    if !snap.threads.is_empty() || !snap.spans.is_empty() {
        w.process_name(1, "pioeval");
    }
    for (tid, name) in snap.threads.iter().enumerate() {
        w.thread_name(1, tid as u32, name);
    }
    for ev in &snap.spans {
        let end = ev.start_ns.saturating_add(ev.dur_ns);
        let depth = [("depth", u64::from(ev.depth))];
        w.complete(1, ev.tid, &ev.name, &ev.cat, ev.start_ns..end, &depth);
    }
    if series.is_empty() {
        // Post-mortem fallback: a flat-to-final ramp per nonzero counter
        // spanning the outermost recorded interval.
        let end_us = snap
            .spans
            .iter()
            .map(|e| e.start_ns.saturating_add(e.dur_ns))
            .max()
            .unwrap_or(0)
            / 1_000;
        for (name, v) in snap.counters.iter().filter(|(_, v)| *v > 0) {
            w.counter(1, name, 0, 0);
            w.counter(1, name, end_us.max(1), *v);
        }
    } else {
        for (name, points) in series {
            for &(ts_us, v) in points {
                w.counter(1, name, ts_us, v);
            }
        }
    }
    w
}

/// Human-readable metrics table.
pub fn human_summary(reg: &Registry) -> String {
    let snap = reg.snapshot();
    let s = run_summary(&snap);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run: wall {:.1} ms | {} events | {:.0} events/s | queue hwm {}",
        s.wall_ms, s.events_processed, s.events_per_sec, s.queue_hwm
    );
    if !snap.counters.is_empty() {
        out.push_str("\ncounters\n");
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "  {name:<32} {v}");
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("\ngauges (last / max)\n");
        for (name, g) in &snap.gauges {
            let _ = writeln!(out, "  {name:<32} {} / {}", g.last, g.max);
        }
    }
    if !snap.hists.is_empty() {
        out.push_str("\nhistograms\n");
        for (name, h) in &snap.hists {
            let _ = writeln!(
                out,
                "  {name:<32} n={} mean={:.1} max_bucket={}",
                h.count,
                h.mean(),
                h.occupied()
                    .last()
                    .map(|&(lo, hi, _)| format!("[{lo}, {hi}]"))
                    .unwrap_or_else(|| "-".to_string())
            );
        }
    }
    let mut agg: Vec<(String, u64, u64)> = Vec::new();
    for ev in &snap.spans {
        match agg.iter_mut().find(|(n, _, _)| *n == ev.name) {
            Some((_, count, total)) => {
                *count += 1;
                *total += ev.dur_ns;
            }
            None => agg.push((ev.name.clone(), 1, ev.dur_ns)),
        }
    }
    agg.sort();
    if !agg.is_empty() {
        out.push_str("\nspans (count, total)\n");
        for (name, count, total_ns) in &agg {
            let _ = writeln!(
                out,
                "  {name:<32} x{count:<6} {:.2} ms",
                *total_ns as f64 / 1e6
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde_json::Value;

    fn as_u64(v: &Value) -> u64 {
        match v {
            Value::U64(n) => *n,
            Value::I64(n) => *n as u64,
            Value::F64(f) => *f as u64,
            other => panic!("expected number, got {other:?}"),
        }
    }

    fn as_f64(v: &Value) -> f64 {
        match v {
            Value::U64(n) => *n as f64,
            Value::I64(n) => *n as f64,
            Value::F64(f) => *f,
            other => panic!("expected number, got {other:?}"),
        }
    }

    fn as_str(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }

    fn as_seq(v: &Value) -> &[Value] {
        match v {
            Value::Seq(items) => items,
            other => panic!("expected array, got {other:?}"),
        }
    }

    fn loaded_registry() -> Registry {
        let r = Registry::new();
        r.counter(names::DES_EVENTS).add(1000);
        r.gauge(names::DES_QUEUE_HWM).record(37);
        r.histogram("h.\"quoted\"").observe(5);
        let mut buf = r.buffer("main");
        buf.push_raw(names::SPAN_RUN, "cli", 0, 2_000_000, 0);
        buf.push_raw("child\nspan", "cli", 100, 1_000_000, 1);
        r.merge(buf);
        r
    }

    #[test]
    fn metrics_json_parses_and_has_headline_keys() {
        let r = loaded_registry();
        let json = metrics_json(&r);
        let v = serde_json::parse(&json).expect("metrics JSON must parse");
        assert_eq!(as_str(v.get("schema").unwrap()), "pioeval-obs/1");
        assert_eq!(as_u64(v.get("events_processed").unwrap()), 1000);
        assert!(as_f64(v.get("wall_ms").unwrap()) >= 2.0);
        assert!(as_f64(v.get("events_per_sec").unwrap()) > 0.0);
        assert_eq!(as_u64(v.get("queue_hwm").unwrap()), 37);
        // Escaped names survive the round trip.
        assert!(v.get("histograms").unwrap().get("h.\"quoted\"").is_some());
    }

    #[test]
    fn chrome_trace_parses_and_nests() {
        let r = loaded_registry();
        let json = chrome_trace(&r);
        let v = serde_json::parse(&json).expect("trace JSON must parse");
        let events = as_seq(v.get("traceEvents").unwrap());
        // 1 process-name + 1 thread-name metadata event + 2 spans + a
        // 2-point fallback counter ramp for the single nonzero counter.
        assert_eq!(events.len(), 6);
        let meta: Vec<_> = events
            .iter()
            .filter(|e| as_str(e.get("ph").unwrap()) == "M")
            .collect();
        assert_eq!(as_str(meta[0].get("name").unwrap()), "process_name");
        assert_eq!(
            as_str(meta[0].get("args").unwrap().get("name").unwrap()),
            "pioeval"
        );
        assert_eq!(as_str(meta[1].get("name").unwrap()), "thread_name");
        let spans: Vec<_> = events
            .iter()
            .filter(|e| as_str(e.get("ph").unwrap()) == "X")
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(as_str(spans[0].get("name").unwrap()), names::SPAN_RUN);
        assert_eq!(as_str(spans[1].get("name").unwrap()), "child\nspan");
        let counters: Vec<_> = events
            .iter()
            .filter(|e| as_str(e.get("ph").unwrap()) == "C")
            .collect();
        assert_eq!(counters.len(), 2, "fallback ramp is exactly 2 points");
        assert_eq!(as_str(counters[0].get("name").unwrap()), names::DES_EVENTS);
        assert_eq!(
            as_u64(counters[0].get("args").unwrap().get("value").unwrap()),
            0
        );
        assert_eq!(
            as_u64(counters[1].get("args").unwrap().get("value").unwrap()),
            1000
        );
        // The ramp ends at the outermost span's end (2 ms = 2000 µs).
        assert_eq!(as_u64(counters[1].get("ts").unwrap()), 2000);
    }

    #[test]
    fn chrome_trace_renders_live_counter_series_as_c_events() {
        let r = loaded_registry();
        let series = vec![(
            names::DES_EVENTS.to_string(),
            vec![(0u64, 0u64), (500, 400), (1500, 900), (2000, 1000)],
        )];
        let json = chrome_trace_with_counters(&r, &series).finish();
        let v = serde_json::parse(&json).expect("trace JSON must parse");
        let events = as_seq(v.get("traceEvents").unwrap());
        let c: Vec<_> = events
            .iter()
            .filter(|e| as_str(e.get("ph").unwrap()) == "C")
            .collect();
        assert_eq!(c.len(), 4, "one C event per retained sample");
        let ts: Vec<u64> = c.iter().map(|e| as_u64(e.get("ts").unwrap())).collect();
        assert_eq!(ts, vec![0, 500, 1500, 2000]);
        let vals: Vec<u64> = c
            .iter()
            .map(|e| as_u64(e.get("args").unwrap().get("value").unwrap()))
            .collect();
        assert_eq!(vals, vec![0, 400, 900, 1000]);
    }

    #[test]
    fn summary_derives_events_per_sec() {
        let r = loaded_registry();
        let s = run_summary(&r.snapshot());
        // 1000 events over the 2 ms pioeval.run span = 500k events/s.
        assert_eq!(s.events_processed, 1000);
        assert!((s.wall_ms - 2.0).abs() < 1e-9);
        assert!((s.events_per_sec - 500_000.0).abs() < 1.0);
        assert!(summary_line(&r).contains("1000 events"));
    }

    #[test]
    fn summary_line_appends_object_bytes_only_when_present() {
        // PFS-only runs keep the original format.
        let r = loaded_registry();
        assert!(!summary_line(&r).contains("obj"));
        // Gateway byte counters extend the line.
        r.counter(names::OBJ_PUT_BYTES).add(4096);
        r.counter(names::OBJ_GET_BYTES).add(1024);
        let line = summary_line(&r);
        assert!(line.contains("obj put 4096 B / get 1024 B"), "{line}");
    }

    /// A registry shaped like a PR 4 object-store run: gateway counters,
    /// byte totals, queue-wait/service histograms, queue-peak gauge.
    fn objstore_registry() -> Registry {
        let r = Registry::new();
        r.counter(names::DES_EVENTS).add(5000);
        r.counter(names::OBJ_RUNS).inc();
        r.counter(names::OBJ_GATEWAY_REQUESTS).add(640);
        r.counter(names::OBJ_SHARD_REQUESTS).add(128);
        r.counter(names::OBJ_PUT_BYTES).add(1 << 20);
        r.counter(names::OBJ_GET_BYTES).add(1 << 19);
        r.gauge(names::OBJ_GATEWAY_QUEUE_PEAK).record(17);
        r.histogram(names::OBJ_GATEWAY_QUEUE_WAIT_US).observe(250);
        r.histogram(names::OBJ_GATEWAY_QUEUE_WAIT_US).observe(900);
        r.histogram(names::OBJ_GATEWAY_SERVICE_US).observe(40);
        let mut buf = r.buffer("main");
        buf.push_raw(names::SPAN_RUN, "cli", 0, 4_000_000, 0);
        buf.push_raw(names::SPAN_OBJ_RUN, "objstore", 10, 3_000_000, 1);
        r.merge(buf);
        r
    }

    #[test]
    fn run_summary_ignores_gateway_counters_for_headline_figures() {
        let r = objstore_registry();
        let s = run_summary(&r.snapshot());
        // The headline events figure is DES events, not obj.* traffic.
        assert_eq!(s.events_processed, 5000);
        assert!(
            (s.wall_ms - 4.0).abs() < 1e-9,
            "pioeval.run wins over obj span"
        );
        assert_eq!(s.queue_hwm, 0, "gateway queue peak is not the DES hwm");
    }

    #[test]
    fn metrics_json_round_trips_obj_gateway_names() {
        let r = objstore_registry();
        let v = serde_json::parse(&metrics_json(&r)).expect("metrics JSON must parse");
        let counters = v.get("counters").unwrap();
        assert_eq!(
            as_u64(counters.get(names::OBJ_GATEWAY_REQUESTS).unwrap()),
            640
        );
        assert_eq!(as_u64(counters.get(names::OBJ_PUT_BYTES).unwrap()), 1 << 20);
        assert_eq!(as_u64(counters.get(names::OBJ_GET_BYTES).unwrap()), 1 << 19);
        assert_eq!(
            as_u64(counters.get(names::OBJ_SHARD_REQUESTS).unwrap()),
            128
        );
        let peak = v.get("gauges").unwrap().get(names::OBJ_GATEWAY_QUEUE_PEAK);
        assert_eq!(as_u64(peak.unwrap().get("max").unwrap()), 17);
        let wait = v
            .get("histograms")
            .unwrap()
            .get(names::OBJ_GATEWAY_QUEUE_WAIT_US)
            .expect("queue-wait histogram exported");
        assert_eq!(as_u64(wait.get("count").unwrap()), 2);
        assert_eq!(as_u64(wait.get("sum").unwrap()), 1150);
        let spans = v.get("spans").unwrap();
        assert_eq!(
            as_u64(
                spans
                    .get(names::SPAN_OBJ_RUN)
                    .unwrap()
                    .get("count")
                    .unwrap()
            ),
            1
        );
    }

    #[test]
    fn summary_line_formats_gateway_byte_totals() {
        let r = objstore_registry();
        let line = summary_line(&r);
        assert!(line.contains("5000 events"), "{line}");
        assert!(
            line.contains(&format!("obj put {} B / get {} B", 1 << 20, 1 << 19)),
            "{line}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever the input, the escaped body reads back as the input.
        #[test]
        fn escaped_strings_parse_back_unchanged(
            chars in prop::collection::vec(
                prop::sample::select(
                    (0u8..0x80)
                        .map(char::from)
                        .chain(['"', '\\', 'é', '€', '\u{2028}', '\u{ffff}', '😀'])
                        .collect::<Vec<char>>(),
                ),
                0..48,
            ),
        ) {
            let s: String = chars.into_iter().collect();
            let doc = format!("\"{}\"", esc(&s));
            prop_assert!(!doc.bytes().any(|b| b < 0x20), "raw control byte in {doc:?}");
            let back = serde_json::parse(&doc).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(back, Value::Str(s));
        }
    }

    #[test]
    fn empty_registry_exports_cleanly() {
        let r = Registry::new();
        let v = serde_json::parse(&metrics_json(&r)).unwrap();
        assert_eq!(as_u64(v.get("events_processed").unwrap()), 0);
        let t = serde_json::parse(&chrome_trace(&r)).unwrap();
        assert_eq!(as_seq(t.get("traceEvents").unwrap()).len(), 0);
        assert!(human_summary(&r).contains("0 events"));
    }
}
