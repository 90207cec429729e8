//! The one Chrome trace-event writer behind every trace export.
//!
//! Two documents are built on [`TraceWriter`]: the wall-clock
//! self-telemetry trace (`--trace-out`,
//! [`crate::export::chrome_trace_with_counters`]) and the simulated-time
//! request trace (`pioeval requests --chrome`). When a run is profiled,
//! the per-worker DES phase tracks are appended to the wall-clock trace
//! as a second process, on the same axis as the spans. Both load in
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
//!
//! The layout lives here and nowhere else: the object form with
//! `displayTimeUnit` `"ms"`, one event per line, `": "`/`", "`
//! separators, keys in the order `ph, pid, tid, name, cat, ts, dur,
//! args`, and every string escaped by [`crate::export::esc`]. Slice
//! times are integer nanoseconds printed as microseconds with exactly
//! three decimals, computed in integers so no nanosecond is lost to
//! float rounding at any magnitude.

use crate::export::esc;
use std::fmt::{self, Write as _};
use std::ops::Range;

/// Integer nanoseconds rendered as microseconds with three decimals
/// (`1500` → `1.500`).
struct Micros(u64);

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1000, self.0 % 1000)
    }
}

/// Everything before the first event.
const HEAD: &str = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";

/// Streams trace events into one JSON document, in call order; start
/// one with `TraceWriter::default()`.
///
/// Perfetto names a process or thread track from the first metadata
/// event it sees for it, so emit [`TraceWriter::process_name`] and
/// [`TraceWriter::thread_name`] before the slices that land on it.
#[derive(Debug, Default)]
pub struct TraceWriter {
    out: String,
}

impl TraceWriter {
    /// Open the next event: the document head before the first one, a
    /// separator before every later one.
    fn event(&mut self) -> &mut String {
        self.out
            .push_str(if self.out.is_empty() { HEAD } else { ",\n" });
        &mut self.out
    }

    /// Metadata event naming process `pid`.
    pub fn process_name(&mut self, pid: u32, name: &str) {
        let _ = write!(
            self.event(),
            "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \"name\": \"process_name\", \
             \"args\": {{\"name\": \"{}\"}}}}",
            esc(name)
        );
    }

    /// Metadata event naming thread track `tid` of process `pid`.
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        let _ = write!(
            self.event(),
            "{{\"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"name\": \"thread_name\", \
             \"args\": {{\"name\": \"{}\"}}}}",
            esc(name)
        );
    }

    /// Complete (`"ph": "X"`) slice on track `(pid, tid)` covering `ns`
    /// (an end before the start reads as zero duration). `args` are
    /// written in order; an empty list writes no `args` object.
    pub fn complete(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        cat: &str,
        ns: Range<u64>,
        args: &[(&str, u64)],
    ) {
        let out = self.event();
        let _ = write!(
            out,
            "{{\"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \"name\": \"{}\", \"cat\": \"{}\", \
             \"ts\": {}, \"dur\": {}",
            esc(name),
            esc(cat),
            Micros(ns.start),
            Micros(ns.end.saturating_sub(ns.start))
        );
        if !args.is_empty() {
            out.push_str(", \"args\": {");
            for (i, (key, v)) in args.iter().enumerate() {
                let sep = if i > 0 { ", " } else { "" };
                let _ = write!(out, "{sep}\"{}\": {v}", esc(key));
            }
            out.push('}');
        }
        out.push('}');
    }

    /// Counter (`"ph": "C"`) sample of track `name` in process `pid`.
    /// Counter series are sampled at whole microseconds, so `ts_us` is
    /// written as an integer.
    pub fn counter(&mut self, pid: u32, name: &str, ts_us: u64, value: u64) {
        let _ = write!(
            self.event(),
            "{{\"ph\": \"C\", \"pid\": {pid}, \"tid\": 0, \"name\": \"{}\", \
             \"ts\": {ts_us}, \"args\": {{\"value\": {value}}}}}",
            esc(name)
        );
    }

    /// Close the document and return it.
    pub fn finish(mut self) -> String {
        if self.out.is_empty() {
            self.out.push_str(HEAD);
        }
        self.out.push_str("\n]}");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn events(doc: &str) -> Vec<Value> {
        let v = serde_json::parse(doc).expect("trace document must parse");
        match v.get("traceEvents") {
            Some(Value::Seq(items)) => items.clone(),
            other => panic!("missing event list: {other:?}"),
        }
    }

    fn s<'a>(e: &'a Value, key: &str) -> &'a str {
        match e.get(key) {
            Some(Value::Str(s)) => s,
            other => panic!("{key}: expected string, got {other:?}"),
        }
    }

    #[test]
    fn empty_trace_has_no_events() {
        let doc = TraceWriter::default().finish();
        assert_eq!(
            doc,
            "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n\n]}"
        );
        assert!(events(&doc).is_empty());
    }

    #[test]
    fn metadata_keeps_call_order_and_escapes_names() {
        let mut w = TraceWriter::default();
        w.process_name(2, "servers \"b\"");
        w.thread_name(2, 7, "oss\\7");
        w.process_name(1, "ranks");
        let ev = events(&w.finish());
        let shape: Vec<(&str, &str, &str)> = ev
            .iter()
            .map(|e| {
                let name = match e.get("args").and_then(|a| a.get("name")) {
                    Some(Value::Str(n)) => n.as_str(),
                    other => panic!("metadata without args.name: {other:?}"),
                };
                (s(e, "ph"), s(e, "name"), name)
            })
            .collect();
        assert_eq!(
            shape,
            [
                ("M", "process_name", "servers \"b\""),
                ("M", "thread_name", "oss\\7"),
                ("M", "process_name", "ranks"),
            ]
        );
        assert_eq!(ev[1].get("tid"), Some(&Value::U64(7)));
        assert_eq!(ev[2].get("pid"), Some(&Value::U64(1)));
    }

    #[test]
    fn complete_slices_escape_name_cat_and_arg_keys() {
        let mut w = TraceWriter::default();
        w.complete(
            1,
            3,
            "a\"b\n",
            "c\\d",
            1000..3500,
            &[("k\"ey", 9), ("n", 1)],
        );
        w.complete(1, 3, "bare", "x", 10..10, &[]);
        let doc = w.finish();
        let ev = events(&doc);
        assert_eq!(s(&ev[0], "ph"), "X");
        assert_eq!(s(&ev[0], "name"), "a\"b\n");
        assert_eq!(s(&ev[0], "cat"), "c\\d");
        let args = ev[0].get("args").expect("args written");
        assert_eq!(args.get("k\"ey"), Some(&Value::U64(9)));
        assert_eq!(args.get("n"), Some(&Value::U64(1)));
        assert!(doc.contains("\"ts\": 1.000, \"dur\": 2.500"), "{doc}");
        assert!(ev[1].get("args").is_none(), "no args object when empty");
    }

    #[test]
    fn counter_samples_carry_integer_microseconds() {
        let mut w = TraceWriter::default();
        w.counter(1, "des.\"events\"", 0, 0);
        w.counter(1, "des.\"events\"", 2000, 1000);
        let doc = w.finish();
        let ev = events(&doc);
        assert_eq!(ev.len(), 2);
        assert_eq!(s(&ev[1], "ph"), "C");
        assert_eq!(s(&ev[1], "name"), "des.\"events\"");
        assert_eq!(ev[1].get("ts"), Some(&Value::U64(2000)));
        let value = ev[1].get("args").and_then(|a| a.get("value"));
        assert_eq!(value, Some(&Value::U64(1000)));
    }

    #[test]
    fn nanoseconds_print_as_exact_microseconds() {
        for (ns, text) in [
            (0, "0.000"),
            (999, "0.999"),
            (1000, "1.000"),
            (u64::MAX / 2, "9223372036854775.807"),
        ] {
            assert_eq!(Micros(ns).to_string(), text);
            let mut w = TraceWriter::default();
            w.complete(1, 0, "s", "c", ns..ns, &[]);
            let doc = w.finish();
            assert!(
                doc.contains(&format!("\"ts\": {text}, \"dur\": 0.000")),
                "{doc}"
            );
        }
    }
}
