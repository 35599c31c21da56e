//! Exporters for recorded trace events: JSONL (one event per line) and
//! the Chrome `trace_event` format loadable in `chrome://tracing` or
//! Perfetto; for a metrics snapshot, [`value_to_json`]; plus a minimal
//! JSON validator used by the CI gate.
//!
//! All of them hand-roll JSON (the workspace carries no JSON crate)
//! through one escaper. In the Chrome export each *trace id* becomes a
//! process (`pid`) and each host a thread (`tid`), so one problem's
//! lifecycle lines up as a single row group with per-host lanes; async
//! begin/end events are keyed by the trace id and tolerate interleaved
//! problems on a host.

use std::fmt::Write as _;

use crate::metrics::Value;
use crate::trace::{trace_id_label, Detail, SpanPhase, TraceEvent};

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a [`Value`] tree as compact JSON — what a metrics
/// scrape prints for a [`crate::MetricsRegistry::snapshot`].
pub fn value_to_json(value: &Value) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Unit => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(v) => out.push_str(&v.to_string()),
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (key, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match key {
                    Value::Str(s) => write_string(s, out),
                    other => write_string(&value_to_json(other), out),
                }
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    out.push_str(&escape_json(s));
    out.push('"');
}

/// Renders events as JSONL: one `{ts_us, host, trace, name, ph, dur_us,
/// detail}` object per line, in the order given.
pub fn to_jsonl<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> String {
    let mut out = String::new();
    for e in events {
        let _ = writeln!(
            out,
            "{{\"ts_us\": {}, \"host\": {}, \"trace\": {}, \"name\": \"{}\", \
             \"ph\": \"{}\", \"dur_us\": {}, \"detail\": \"{}\"}}",
            e.at_us,
            e.host,
            e.trace,
            escape_json(e.name),
            e.phase.tag(),
            e.dur_us,
            escape_json(&e.detail.to_string()),
        );
    }
    out
}

/// Renders events as a Chrome `trace_event` JSON document. Load the
/// output in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut emit = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("  ");
        out.push_str(&line);
    };

    // Metadata: label each trace-id process with the problem identity
    // and each host thread with its host name.
    let mut seen_pids: Vec<u64> = Vec::new();
    let mut seen_lanes: Vec<(u64, u32)> = Vec::new();
    for e in events {
        if !seen_pids.contains(&e.trace) {
            seen_pids.push(e.trace);
            emit(
                format!(
                    "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {}, \"tid\": 0, \
                     \"args\": {{\"name\": \"{}\"}}}}",
                    e.trace,
                    escape_json(&trace_id_label(e.trace)),
                ),
                &mut out,
            );
        }
        if !seen_lanes.contains(&(e.trace, e.host)) {
            seen_lanes.push((e.trace, e.host));
            emit(
                format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {}, \"tid\": {}, \
                     \"args\": {{\"name\": \"host{}\"}}}}",
                    e.trace, e.host, e.host,
                ),
                &mut out,
            );
        }
    }

    for e in events {
        let detail = match &e.detail {
            Detail::None => String::new(),
            d => format!(
                ", \"args\": {{\"detail\": \"{}\"}}",
                escape_json(&d.to_string())
            ),
        };
        let line = match e.phase {
            SpanPhase::Begin | SpanPhase::End => format!(
                "{{\"name\": \"{}\", \"cat\": \"workflow\", \"ph\": \"{}\", \
                 \"id\": \"0x{:x}\", \"ts\": {}, \"pid\": {}, \"tid\": {}{}}}",
                escape_json(e.name),
                if e.phase == SpanPhase::Begin {
                    "b"
                } else {
                    "e"
                },
                e.trace,
                e.at_us,
                e.trace,
                e.host,
                detail,
            ),
            SpanPhase::Instant => format!(
                "{{\"name\": \"{}\", \"cat\": \"workflow\", \"ph\": \"i\", \"s\": \"t\", \
                 \"ts\": {}, \"pid\": {}, \"tid\": {}{}}}",
                escape_json(e.name),
                e.at_us,
                e.trace,
                e.host,
                detail,
            ),
            SpanPhase::Complete => format!(
                "{{\"name\": \"{}\", \"cat\": \"workflow\", \"ph\": \"X\", \
                 \"ts\": {}, \"dur\": {}, \"pid\": {}, \"tid\": {}{}}}",
                escape_json(e.name),
                e.at_us,
                e.dur_us,
                e.trace,
                e.host,
                detail,
            ),
        };
        emit(line, &mut out);
    }
    out.push_str("\n]}\n");
    out
}

/// Minimal recursive-descent JSON validator: checks `s` is one
/// well-formed JSON value (with nothing but whitespace after it).
/// Returns the byte offset of the first error.
pub fn validate_json(s: &str) -> Result<(), usize> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Ok(())
    } else {
        Err(pos)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<(), usize> {
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                skip_ws(b, pos);
                value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(*pos),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(*pos),
                }
            }
        }
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, b"true"),
        Some(b'f') => literal(b, pos, b"false"),
        Some(b'n') => literal(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        _ => Err(*pos),
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), usize> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(*pos)
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), usize> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(*pos)
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), usize> {
    expect(b, pos, b'"')?;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !b.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(*pos);
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(*pos),
                }
            }
            0x00..=0x1F => return Err(*pos),
            _ => *pos += 1,
        }
    }
    Err(*pos)
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), usize> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    if !digits(b, pos) {
        return Err(start);
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(*pos);
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(*pos);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::pack_trace_id;
    use crate::MetricsRegistry;

    #[test]
    fn renders_nested_values_as_valid_json() {
        let v = Value::Map(vec![
            (
                Value::Str("counters".into()),
                Value::Map(vec![(Value::Str("net.rx\"x\"".into()), Value::U64(3))]),
            ),
            (
                Value::Str("seq".into()),
                Value::Seq(vec![Value::I64(-1), Value::Bool(true), Value::Unit]),
            ),
        ]);
        let json = value_to_json(&v);
        assert_eq!(
            json,
            r#"{"counters":{"net.rx\"x\"":3},"seq":[-1,true,null]}"#
        );
        validate_json(&json).expect("valid json");

        // The line `owms-serve --metrics` prints: `owms-bench` reads
        // counters as `"name":N` and histograms by their `"buckets":[…]`.
        let registry = MetricsRegistry::new();
        registry.counter("net.rx_frames").add(3);
        registry.histogram("net.tx_queue_depth").record(5);
        assert_eq!(
            value_to_json(&registry.snapshot()),
            concat!(
                r#"{"counters":{"net.rx_frames":3},"gauges":{},"#,
                r#""histograms":{"net.tx_queue_depth":{"count":1,"sum":5,"#,
                r#""buckets":[0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}}"#
            )
        );
    }

    fn sample() -> Vec<TraceEvent> {
        let trace = pack_trace_id(2, 1, 0);
        vec![
            TraceEvent {
                at_us: 10,
                host: 2,
                trace,
                name: "problem",
                phase: SpanPhase::Begin,
                dur_us: 0,
                detail: Detail::None,
            },
            TraceEvent {
                at_us: 20,
                host: 3,
                trace,
                name: "bid",
                phase: SpanPhase::Instant,
                dur_us: 0,
                detail: Detail::Text("task \"t0\"".into()),
            },
            TraceEvent {
                at_us: 30,
                host: 3,
                trace,
                name: "task",
                phase: SpanPhase::Complete,
                dur_us: 500,
                detail: Detail::None,
            },
            TraceEvent {
                at_us: 40,
                host: 2,
                trace,
                name: "problem",
                phase: SpanPhase::End,
                dur_us: 0,
                detail: Detail::None,
            },
        ]
    }

    #[test]
    fn jsonl_emits_one_valid_object_per_line() {
        let jsonl = to_jsonl(&sample());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in lines {
            validate_json(line).unwrap_or_else(|at| panic!("bad JSONL at byte {at}: {line}"));
        }
        assert!(jsonl.contains("\"ph\": \"X\""));
        assert!(jsonl.contains("task \\\"t0\\\""));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_metadata_and_phases() {
        let chrome = to_chrome_trace(&sample());
        validate_json(&chrome).unwrap_or_else(|at| panic!("bad chrome trace at byte {at}"));
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"process_name\""));
        assert!(chrome.contains("\"thread_name\""));
        assert!(chrome.contains("\"ph\": \"b\""));
        assert!(chrome.contains("\"ph\": \"e\""));
        assert!(chrome.contains("\"ph\": \"i\""));
        assert!(chrome.contains("\"dur\": 500"));
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let chrome = to_chrome_trace(&[]);
        validate_json(&chrome).expect("empty trace document must parse");
        assert_eq!(to_jsonl(&[]), "");
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate_json("{\"a\": [1, -2.5e3, true, null, \"x\\n\"]}").expect("valid");
        assert!(validate_json("{\"a\": }").is_err());
        assert!(validate_json("[1, 2,]").is_err());
        assert!(validate_json("{} trailing").is_err());
        assert!(validate_json("\"unterminated").is_err());
    }
}
