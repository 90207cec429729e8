//! On-disk trace formats: the JSONL request-trace file and the
//! simulated-time Chrome trace export.
//!
//! All timestamps in both formats are **simulated** nanoseconds (the
//! DES clock), not wall-clock time — the wall-clock self-telemetry
//! Chrome trace comes from `--trace-out` instead.

use crate::assemble::{Bucket, RequestRecord, Span};
use pioeval_obs::export::esc;
use pioeval_obs::perfetto::TraceWriter;
use pioeval_types::{ReqOp, SimTime, NO_COLLECTIVE};
use std::fmt::Write as _;

/// Format tag carried by the JSONL header line.
pub const FORMAT: &str = "pioeval-reqtrace/1";

/// Render the JSONL trace file: one header line
/// (`{"format":"pioeval-reqtrace/1",...}`) followed by one line per
/// completed request, in (issue time, tid) order.
pub fn write_jsonl(requests: &[RequestRecord], incomplete: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"format\":\"{FORMAT}\",\"requests\":{},\"incomplete\":{}}}\n",
        requests.len(),
        incomplete
    ));
    for r in requests {
        let b = r.breakdown();
        out.push_str(&format!(
            "{{\"tid\":{},\"rank\":{},\"op\":\"{}\",\"file\":{},\"bytes\":{},\"collective\":{},\
             \"issue_ns\":{},\"done_ns\":{},\"latency_ns\":{},\
             \"queue_ns\":{},\"service_ns\":{},\"device_ns\":{},\"fabric_ns\":{},\"spans\":[",
            r.tid,
            r.rank,
            r.op.name(),
            r.file,
            r.bytes,
            if r.in_collective() {
                r.collective.to_string()
            } else {
                "null".to_string()
            },
            r.issue.as_nanos(),
            r.done.as_nanos(),
            r.latency().as_nanos(),
            b[0],
            b[1],
            b[2],
            b[3],
        ));
        for (i, s) in r.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"entity\":{},\"label\":\"{}\",\"bucket\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.entity,
                esc(&s.label),
                s.bucket.name(),
                s.start.as_nanos(),
                s.end.as_nanos(),
            );
        }
        out.push_str("]}\n");
    }
    out
}

fn get_u64(v: &serde_json::Value, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(serde_json::Value::U64(n)) => Ok(*n),
        Some(serde_json::Value::I64(n)) if *n >= 0 => Ok(*n as u64),
        Some(serde_json::Value::F64(f)) if *f >= 0.0 => Ok(*f as u64),
        other => Err(format!("field {key:?}: expected number, got {other:?}")),
    }
}

fn get_str<'a>(v: &'a serde_json::Value, key: &str) -> Result<&'a str, String> {
    match v.get(key) {
        Some(serde_json::Value::Str(s)) => Ok(s),
        other => Err(format!("field {key:?}: expected string, got {other:?}")),
    }
}

/// Parse a JSONL trace file back into request records. Verifies the
/// header's format tag; returns `(requests, incomplete)`.
pub fn read_jsonl(text: &str) -> Result<(Vec<RequestRecord>, usize), String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or("empty trace file")?;
    let header = serde_json::parse(header_line).map_err(|e| format!("header: {e}"))?;
    let format = get_str(&header, "format")?;
    if format != FORMAT {
        return Err(format!(
            "unsupported trace format {format:?} (want {FORMAT:?})"
        ));
    }
    let incomplete = get_u64(&header, "incomplete").unwrap_or(0) as usize;

    let mut requests = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let v = serde_json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 2))?;
        let op_name = get_str(&v, "op")?;
        let op = ReqOp::parse(op_name).ok_or_else(|| format!("unknown op {op_name:?}"))?;
        let collective = match v.get("collective") {
            Some(serde_json::Value::Null) | None => NO_COLLECTIVE,
            Some(serde_json::Value::U64(n)) => *n as u32,
            other => return Err(format!("field \"collective\": bad value {other:?}")),
        };
        let mut spans = Vec::new();
        if let Some(serde_json::Value::Seq(items)) = v.get("spans") {
            for s in items {
                let bucket_name = get_str(s, "bucket")?;
                let bucket = Bucket::parse(bucket_name)
                    .ok_or_else(|| format!("unknown bucket {bucket_name:?}"))?;
                spans.push(Span {
                    entity: get_u64(s, "entity")? as u32,
                    label: get_str(s, "label")?.to_string(),
                    bucket,
                    start: SimTime::from_nanos(get_u64(s, "start_ns")?),
                    end: SimTime::from_nanos(get_u64(s, "end_ns")?),
                });
            }
        }
        requests.push(RequestRecord {
            tid: get_u64(&v, "tid")?,
            rank: get_u64(&v, "rank")? as u32,
            op,
            file: get_u64(&v, "file")? as u32,
            bytes: get_u64(&v, "bytes")?,
            collective,
            issue: SimTime::from_nanos(get_u64(&v, "issue_ns")?),
            done: SimTime::from_nanos(get_u64(&v, "done_ns")?),
            spans,
        });
    }
    Ok((requests, incomplete))
}

/// Render a simulated-time Chrome trace (`chrome://tracing` /
/// Perfetto): one track per server/gateway/fabric entity carrying its
/// attributed spans, plus one track per rank carrying each request's
/// whole `[issue, done]` interval. Timestamps are simulated
/// microseconds.
pub fn chrome_trace(requests: &[RequestRecord]) -> String {
    let ns = |a: SimTime, b: SimTime| a.as_nanos()..b.as_nanos();
    let mut w = TraceWriter::default();
    // Metadata events first, so Perfetto names the two process groups
    // and every track inside them instead of showing bare pid/tid
    // numbers. Ranks live under pid 1, server/gateway entities under
    // pid 2 (named by the label attributed spans carry).
    if !requests.is_empty() {
        w.process_name(1, "ranks");
        w.process_name(2, "servers");
        let mut ranks: Vec<u32> = requests.iter().map(|r| r.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        for rank in ranks {
            w.thread_name(1, rank, &format!("rank {rank}"));
        }
        let mut entities: Vec<(u32, &str)> = requests
            .iter()
            .flat_map(|r| r.spans.iter())
            .filter(|s| s.entity != crate::assemble::WIRE_ENTITY)
            .map(|s| (s.entity, s.label.as_str()))
            .collect();
        entities.sort_unstable();
        entities.dedup_by_key(|(e, _)| *e);
        for (entity, label) in entities {
            w.thread_name(2, entity, &format!("{label} ({entity})"));
        }
    }
    for r in requests {
        let op = r.op.name();
        let args = [("tid", r.tid), ("bytes", r.bytes)];
        w.complete(1, r.rank, op, "request", ns(r.issue, r.done), &args);
        for s in &r.spans {
            if s.entity == crate::assemble::WIRE_ENTITY {
                continue;
            }
            let name = format!("{} {op}", s.label);
            let cat = s.bucket.name();
            w.complete(
                2,
                s.entity,
                &name,
                cat,
                ns(s.start, s.end),
                &[("tid", r.tid)],
            );
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioeval_types::SimDuration;

    fn sample() -> Vec<RequestRecord> {
        let t = SimTime::from_nanos;
        vec![RequestRecord {
            tid: (5u64 + 1) << 32 | 9,
            rank: 4,
            op: ReqOp::Read,
            file: 2,
            bytes: 4096,
            collective: 1,
            issue: t(100),
            done: t(400),
            spans: vec![
                Span {
                    entity: crate::assemble::WIRE_ENTITY,
                    label: "wire".into(),
                    bucket: Bucket::Fabric,
                    start: t(100),
                    end: t(150),
                },
                Span {
                    entity: 12,
                    label: "oss".into(),
                    bucket: Bucket::Device,
                    start: t(150),
                    end: t(400),
                },
            ],
        }]
    }

    #[test]
    fn jsonl_round_trips() {
        let reqs = sample();
        let text = write_jsonl(&reqs, 3);
        assert!(text.starts_with(&format!("{{\"format\":\"{FORMAT}\"")));
        let (back, incomplete) = read_jsonl(&text).unwrap();
        assert_eq!(incomplete, 3);
        assert_eq!(back, reqs);
        assert_eq!(back[0].latency(), SimDuration::from_nanos(300));
    }

    #[test]
    fn jsonl_rejects_wrong_format() {
        let err = read_jsonl("{\"format\":\"bogus/9\"}\n").unwrap_err();
        assert!(err.contains("bogus"), "{err}");
    }

    #[test]
    fn chrome_export_skips_wire_gaps_and_is_json() {
        let text = chrome_trace(&sample());
        let v = serde_json::parse(text.trim()).unwrap();
        let Some(serde_json::Value::Seq(events)) = v.get("traceEvents") else {
            panic!("missing traceEvents");
        };
        // 2 process_name + 1 rank thread_name + 1 entity thread_name
        // metadata events, then one request-level event + one server
        // span (wire gap skipped).
        assert_eq!(events.len(), 6);
        let meta: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.get("ph"), Some(serde_json::Value::Str(s)) if s == "M"))
            .collect();
        assert_eq!(meta.len(), 4);
        let named = |e: &serde_json::Value| match e.get("args").and_then(|a| a.get("name")) {
            Some(serde_json::Value::Str(s)) => s.clone(),
            other => panic!("metadata event without args.name: {other:?}"),
        };
        assert_eq!(named(meta[0]), "ranks");
        assert_eq!(named(meta[1]), "servers");
        assert_eq!(named(meta[2]), "rank 4");
        assert_eq!(named(meta[3]), "oss (12)");
    }

    #[test]
    fn chrome_export_of_empty_trace_has_no_events() {
        let v = serde_json::parse(chrome_trace(&[]).trim()).unwrap();
        let Some(serde_json::Value::Seq(events)) = v.get("traceEvents") else {
            panic!("missing traceEvents");
        };
        assert!(events.is_empty());
    }
}
