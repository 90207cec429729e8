//! Offline vendored stand-in for `serde_json`.
//!
//! Renders and parses JSON through the serde shim's [`Value`] tree.
//! Covers the API surface the workspace uses: [`to_string`],
//! [`to_string_pretty`], and [`from_str`].

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::fmt;

pub use serde::Value;

/// JSON serialization/deserialization failure.
#[derive(Clone, Debug)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Serialize a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serialize a value to human-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Deserialize a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    T::from_value(&value).map_err(|e| Error(e.0))
}

/// Parse JSON text into the shim's [`Value`] tree.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut pos = 0usize;
    let value = parse_value(s, &mut pos)?;
    skip_ws(s.as_bytes(), &mut pos);
    if pos != s.len() {
        return Err(Error(format!("trailing input at byte {pos}")));
    }
    Ok(value)
}

fn render(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    let (nl, pad, pad_in) = match indent {
        Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
        None => ("", String::new(), String::new()),
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => {
            if f.is_finite() {
                out.push_str(&format!("{f}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => render_string(s, out),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                render(item, out, indent, depth + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                render_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(val, out, indent, depth + 1);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push('}');
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse the value at `*pos`. Takes the input as `&str` so string
/// bodies are sliced out of already-validated UTF-8 rather than decoded
/// again.
fn parse_value(s: &str, pos: &mut usize) -> Result<Value, Error> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(Error("unexpected end of input".into())),
        Some(b'n') => expect_lit(b, pos, "null", Value::Null),
        Some(b't') => expect_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => expect_lit(b, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(s, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Seq(items));
            }
            loop {
                items.push(parse_value(s, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Seq(items));
                    }
                    _ => return Err(Error(format!("expected , or ] at {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Map(entries));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(s, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(Error(format!("expected : at {pos}")));
                }
                *pos += 1;
                let value = parse_value(s, pos)?;
                entries.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Map(entries));
                    }
                    _ => return Err(Error(format!("expected , or }} at {pos}"))),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn expect_lit(b: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, Error> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(Error(format!("invalid literal at byte {pos}")))
    }
}

/// Parse the string literal at `*pos`. Runs without escapes are copied
/// in bulk: `"` and `\` are ASCII, so they always fall on character
/// boundaries of the (valid UTF-8) input and the run is a valid slice.
fn parse_string(s: &str, pos: &mut usize) -> Result<String, Error> {
    let b = s.as_bytes();
    if b.get(*pos) != Some(&b'"') {
        return Err(Error(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let run = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .unwrap_or(b.len() - *pos);
        out.push_str(&s[*pos..*pos + run]);
        *pos += run;
        match b.get(*pos) {
            None => return Err(Error("unterminated string".into())),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error("bad \\u escape".into()))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| Error("bad \\u escape".into()))?,
                            16,
                        )
                        .map_err(|_| Error("bad \\u escape".into()))?;
                        out.push(
                            char::from_u32(code).ok_or_else(|| Error("bad \\u escape".into()))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(Error("bad escape".into())),
                }
                *pos += 1;
            }
            Some(_) => unreachable!("a run stops only at a quote, a backslash, or the end"),
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| Error("invalid number".into()))?;
    if text.is_empty() {
        return Err(Error(format!("expected value at byte {start}")));
    }
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::U64(n));
        }
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Value::I64(n));
        }
    }
    text.parse::<f64>()
        .map(Value::F64)
        .map_err(|_| Error(format!("invalid number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_nested_values() {
        let v = Value::Map(vec![
            ("a".into(), Value::U64(1)),
            ("b".into(), Value::Seq(vec![Value::Bool(true), Value::Null])),
            ("c".into(), Value::Str("x\"y".into())),
        ]);
        let text = {
            let mut s = String::new();
            render(&v, &mut s, None, 0);
            s
        };
        assert_eq!(text, r#"{"a":1,"b":[true,null],"c":"x\"y"}"#);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_numbers() {
        assert_eq!(parse("42").unwrap(), Value::U64(42));
        assert_eq!(parse("-7").unwrap(), Value::I64(-7));
        assert_eq!(parse("1.5").unwrap(), Value::F64(1.5));
        assert!(parse("bogus").is_err());
    }

    #[test]
    fn strings_decode_escapes_and_multibyte_text() {
        let v = parse(r#"["a\"b\\c\/d\n\t\u00e9", "π ≈ 3.14 — ok", "", "tail\u0041"]"#).unwrap();
        let want = ["a\"b\\c/d\n\té", "π ≈ 3.14 — ok", "", "tailA"];
        assert_eq!(
            v,
            Value::Seq(want.iter().map(|s| Value::Str(s.to_string())).collect())
        );
        assert!(parse(r#""unterminated"#).is_err());
        assert!(parse(r#""bad \q escape""#).is_err());
    }

    /// String reading is linear in the input: a 20 MB document made
    /// almost entirely of strings parses in well under the limit even
    /// unoptimized (the former per-character re-validation of the whole
    /// remaining input never finished on it).
    #[test]
    fn large_string_heavy_document_parses_in_linear_time() {
        let item = r#"{"name": "worker-π-0123456789", "detail": "stalled on the horizon \"limiter\" \u00e9 — mailbox drained"},"#;
        let n = 20_000_000 / item.len() + 1;
        let doc = format!("[{}\"end\"]", item.repeat(n));
        let started = std::time::Instant::now();
        let Value::Seq(items) = parse(&doc).unwrap() else {
            panic!("expected an array");
        };
        let elapsed = started.elapsed();
        assert_eq!(items.len(), n + 1);
        assert_eq!(
            items[0].get("detail"),
            Some(&Value::Str(
                "stalled on the horizon \"limiter\" é — mailbox drained".into()
            ))
        );
        assert!(elapsed.as_secs_f64() < 10.0, "parse took {elapsed:?}");
    }

    #[test]
    fn typed_round_trip() {
        let v: Vec<(u32, bool)> = vec![(1, true), (2, false)];
        let text = to_string(&v).unwrap();
        let back: Vec<(u32, bool)> = from_str(&text).unwrap();
        assert_eq!(v, back);
    }
}
