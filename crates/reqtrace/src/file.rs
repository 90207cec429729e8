//! On-disk trace formats: the JSONL request-trace file and the
//! simulated-time Chrome trace export.
//!
//! All timestamps in both formats are **simulated** nanoseconds (the
//! DES clock), not wall-clock time — the wall-clock self-telemetry
//! Chrome trace comes from `--trace-out` instead.

use crate::assemble::{Bucket, RequestRecord, Span, SpanLabel};
use pioeval_obs::perfetto::TraceWriter;
use pioeval_types::{ReqOp, SimTime, NO_COLLECTIVE};
use std::io::{self, Write};

/// Format tag carried by the JSONL header line.
pub const FORMAT: &str = "pioeval-reqtrace/1";

/// Render the JSONL trace file into one string; see [`write_jsonl_to`].
pub fn write_jsonl(requests: &[RequestRecord], incomplete: usize) -> String {
    // A size hint a little above the typical ~220 bytes per request
    // line plus ~95 per span, so the buffer is not regrown and copied.
    let spans: usize = requests.iter().map(|r| r.spans.len()).sum();
    let mut out = Vec::with_capacity(128 + requests.len() * 256 + spans * 112);
    write_jsonl_to(&mut out, requests, incomplete).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("the trace writer emits ASCII")
}

/// Stream the JSONL trace file to `w`: one header line
/// (`{"format":"pioeval-reqtrace/1",...}`) followed by one line per
/// completed request, in (issue time, tid) order.
///
/// Integers are formatted by hand. Span labels, op and bucket names are
/// written raw: each is the name of an enum variant ([`SpanLabel`],
/// [`ReqOp`], [`Bucket`]), a plain ASCII word, so nothing on a line
/// needs escaping.
pub fn write_jsonl_to<W: Write>(
    w: &mut W,
    requests: &[RequestRecord],
    incomplete: usize,
) -> io::Result<()> {
    w.write_all(b"{\"format\":\"")?;
    w.write_all(FORMAT.as_bytes())?;
    w.write_all(b"\",\"requests\":")?;
    put_u64(w, requests.len() as u64)?;
    w.write_all(b",\"incomplete\":")?;
    put_u64(w, incomplete as u64)?;
    w.write_all(b"}\n")?;
    for r in requests {
        let b = r.breakdown();
        w.write_all(b"{\"tid\":")?;
        put_u64(w, r.tid)?;
        w.write_all(b",\"rank\":")?;
        put_u64(w, r.rank.into())?;
        w.write_all(b",\"op\":\"")?;
        w.write_all(r.op.name().as_bytes())?;
        w.write_all(b"\",\"file\":")?;
        put_u64(w, r.file.into())?;
        w.write_all(b",\"bytes\":")?;
        put_u64(w, r.bytes)?;
        w.write_all(b",\"collective\":")?;
        if r.in_collective() {
            put_u64(w, r.collective.into())?;
        } else {
            w.write_all(b"null")?;
        }
        w.write_all(b",\"issue_ns\":")?;
        put_u64(w, r.issue.as_nanos())?;
        w.write_all(b",\"done_ns\":")?;
        put_u64(w, r.done.as_nanos())?;
        w.write_all(b",\"latency_ns\":")?;
        put_u64(w, r.latency().as_nanos())?;
        w.write_all(b",\"queue_ns\":")?;
        put_u64(w, b[0])?;
        w.write_all(b",\"service_ns\":")?;
        put_u64(w, b[1])?;
        w.write_all(b",\"device_ns\":")?;
        put_u64(w, b[2])?;
        w.write_all(b",\"fabric_ns\":")?;
        put_u64(w, b[3])?;
        w.write_all(b",\"spans\":[")?;
        for (i, s) in r.spans.iter().enumerate() {
            w.write_all(if i > 0 {
                b",{\"entity\":"
            } else {
                b"{\"entity\":"
            })?;
            put_u64(w, s.entity.into())?;
            w.write_all(b",\"label\":\"")?;
            w.write_all(s.label.name().as_bytes())?;
            w.write_all(b"\",\"bucket\":\"")?;
            w.write_all(s.bucket.name().as_bytes())?;
            w.write_all(b"\",\"start_ns\":")?;
            put_u64(w, s.start.as_nanos())?;
            w.write_all(b",\"end_ns\":")?;
            put_u64(w, s.end.as_nanos())?;
            w.write_all(b"}")?;
        }
        w.write_all(b"]}\n")?;
    }
    Ok(())
}

/// `"00" "01" … "99"`: two decimal digits per table lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Write `n` in decimal.
fn put_u64<W: Write>(w: &mut W, mut n: u64) -> io::Result<()> {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    w.write_all(&buf[i..])
}

/// A non-negative JSON integer. Fractions and exponents are rejected
/// rather than truncated.
fn get_u64(v: &serde_json::Value, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(serde_json::Value::U64(n)) => Ok(*n),
        other => Err(format!(
            "field {key:?}: expected unsigned integer, got {other:?}"
        )),
    }
}

/// A [`get_u64`] that must also fit in 32 bits.
fn get_u32(v: &serde_json::Value, key: &str) -> Result<u32, String> {
    let n = get_u64(v, key)?;
    u32::try_from(n).map_err(|_| format!("field {key:?}: {n} does not fit in 32 bits"))
}

fn get_str<'a>(v: &'a serde_json::Value, key: &str) -> Result<&'a str, String> {
    match v.get(key) {
        Some(serde_json::Value::Str(s)) => Ok(s),
        other => Err(format!("field {key:?}: expected string, got {other:?}")),
    }
}

/// Parse a JSONL trace file back into request records. Verifies the
/// header's format tag; returns `(requests, incomplete)`. Errors name
/// the 1-based line (and the span index for span fields).
pub fn read_jsonl(text: &str) -> Result<(Vec<RequestRecord>, usize), String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header_line) = lines.next().ok_or("empty trace file")?;
    let header = serde_json::parse(header_line).map_err(|e| format!("header: {e}"))?;
    let format = get_str(&header, "format")?;
    if format != FORMAT {
        return Err(format!(
            "unsupported trace format {format:?} (want {FORMAT:?})"
        ));
    }
    let incomplete = match header.get("incomplete") {
        None => 0,
        Some(_) => get_u64(&header, "incomplete").map_err(|e| format!("header: {e}"))? as usize,
    };

    let mut requests = Vec::new();
    for (index, line) in lines {
        let record = serde_json::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|v| read_record(&v))
            .map_err(|e| format!("line {}: {e}", index + 1))?;
        requests.push(record);
    }
    Ok((requests, incomplete))
}

/// One request line of a JSONL trace file.
fn read_record(v: &serde_json::Value) -> Result<RequestRecord, String> {
    let op_name = get_str(v, "op")?;
    let op = ReqOp::parse(op_name).ok_or_else(|| format!("unknown op {op_name:?}"))?;
    let collective = match v.get("collective") {
        Some(serde_json::Value::Null) | None => NO_COLLECTIVE,
        Some(_) => get_u32(v, "collective")?,
    };
    let mut spans = Vec::new();
    if let Some(serde_json::Value::Seq(items)) = v.get("spans") {
        spans.reserve_exact(items.len());
        for (i, s) in items.iter().enumerate() {
            spans.push(read_span(s).map_err(|e| format!("span {i}: {e}"))?);
        }
    }
    Ok(RequestRecord {
        tid: get_u64(v, "tid")?,
        rank: get_u32(v, "rank")?,
        op,
        file: get_u32(v, "file")?,
        bytes: get_u64(v, "bytes")?,
        collective,
        issue: SimTime::from_nanos(get_u64(v, "issue_ns")?),
        done: SimTime::from_nanos(get_u64(v, "done_ns")?),
        spans,
    })
}

/// One element of a request line's `spans` array.
fn read_span(s: &serde_json::Value) -> Result<Span, String> {
    let bucket_name = get_str(s, "bucket")?;
    let bucket =
        Bucket::parse(bucket_name).ok_or_else(|| format!("unknown bucket {bucket_name:?}"))?;
    let label_name = get_str(s, "label")?;
    let label =
        SpanLabel::parse(label_name).ok_or_else(|| format!("unknown label {label_name:?}"))?;
    Ok(Span {
        entity: get_u32(s, "entity")?,
        label,
        bucket,
        start: SimTime::from_nanos(get_u64(s, "start_ns")?),
        end: SimTime::from_nanos(get_u64(s, "end_ns")?),
    })
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
            .map(|s| (s.entity, s.label.name()))
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
            let name = format!("{} {op}", s.label.name());
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
    use pioeval_types::{ServerKind, SimDuration};

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
                    label: SpanLabel::Wire,
                    bucket: Bucket::Fabric,
                    start: t(100),
                    end: t(150),
                },
                Span {
                    entity: 12,
                    label: SpanLabel::Server(ServerKind::OssDevice),
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

    /// The sample's trace text with `from` replaced by `to` (which must
    /// occur), and the error reading it gives.
    fn read_error(from: &str, to: &str) -> String {
        let text = write_jsonl(&sample(), 0);
        assert!(text.contains(from), "{from} not in {text}");
        read_jsonl(&text.replacen(from, to, 1)).unwrap_err()
    }

    #[test]
    fn jsonl_rejects_fractional_numbers() {
        let err = read_error("\"start_ns\":150", "\"start_ns\":1.5");
        assert!(err.contains("start_ns"), "{err}");
        let err = read_error("\"bytes\":4096", "\"bytes\":4096.0");
        assert!(err.contains("bytes"), "{err}");
    }

    #[test]
    fn jsonl_rejects_32_bit_fields_that_overflow() {
        let err = read_error("\"entity\":12", "\"entity\":4294967296");
        assert!(err.contains("entity") && err.contains("32 bits"), "{err}");
        let err = read_error("\"rank\":4", "\"rank\":4294967300");
        assert!(err.contains("rank"), "{err}");
        let err = read_error("\"file\":2", "\"file\":8589934594");
        assert!(err.contains("file"), "{err}");
        let err = read_error("\"collective\":1", "\"collective\":4294967297");
        assert!(err.contains("collective"), "{err}");
    }

    #[test]
    fn jsonl_header_count_must_be_an_integer() {
        let err = read_error("\"incomplete\":0", "\"incomplete\":2.5");
        assert!(
            err.starts_with("header: ") && err.contains("incomplete"),
            "{err}"
        );
        // A header without the count still reads as zero in flight.
        let text = write_jsonl(&sample(), 0).replacen(",\"incomplete\":0", "", 1);
        assert_eq!(read_jsonl(&text).unwrap().1, 0);
    }

    #[test]
    fn jsonl_rejects_unknown_span_labels() {
        let err = read_error("\"label\":\"oss\"", "\"label\":\"tape\"");
        assert!(err.contains("unknown label \"tape\""), "{err}");
    }

    #[test]
    fn jsonl_errors_name_the_line_and_span() {
        // Line 1 is the header, line 2 the request; its span 1 is the
        // OSS one.
        let err = read_error("\"label\":\"oss\"", "\"label\":7");
        assert!(err.starts_with("line 2: span 1: "), "{err}");
        let err = read_error("\"tid\":", "\"tid\":-");
        assert!(err.starts_with("line 2: "), "{err}");
        // Blank lines still count.
        let text = write_jsonl(&sample(), 0).replacen('\n', "\n\n", 1);
        let err = read_jsonl(&text.replacen("\"rank\":4", "\"rank\":-4", 1)).unwrap_err();
        assert!(err.starts_with("line 3: "), "{err}");
    }

    #[test]
    fn span_labels_round_trip_as_plain_words() {
        use ServerKind::*;
        let servers = [OssDevice, Mds, IoNodeSsd, Gateway, Shard, Replica].map(SpanLabel::Server);
        for label in [SpanLabel::Wire, SpanLabel::Fabric]
            .into_iter()
            .chain(servers)
        {
            let name = label.name();
            assert_eq!(SpanLabel::parse(name), Some(label));
            assert!(name.bytes().all(|b| b.is_ascii_lowercase()), "{name}");
        }
    }

    #[test]
    fn integers_format_like_display() {
        for n in [
            0,
            7,
            9,
            10,
            42,
            99,
            100,
            101,
            999,
            1000,
            12_345,
            u32::MAX.into(),
            u64::MAX,
        ] {
            let mut out = Vec::new();
            put_u64(&mut out, n).unwrap();
            assert_eq!(String::from_utf8(out).unwrap(), n.to_string());
        }
    }

    #[test]
    fn streamed_and_buffered_traces_are_identical() {
        let reqs = sample();
        let mut streamed = Vec::new();
        write_jsonl_to(&mut streamed, &reqs, 2).unwrap();
        assert_eq!(streamed, write_jsonl(&reqs, 2).into_bytes());
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
