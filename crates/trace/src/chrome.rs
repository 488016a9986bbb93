//! Chrome `trace_event` JSON exporter.
//!
//! Emits the *JSON Object Format* (`{"traceEvents": [...]}`) understood
//! by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): one
//! `B`/`E` pair per span, `i` for instants (thread scope), and `M`
//! metadata records naming the process and each named thread track.
//! Timestamps are microseconds with nanosecond precision kept in the
//! fractional part. The output is a pure function of the [`Trace`], so
//! golden tests compare it byte-for-byte.

use std::fmt::Write as _;

use crate::{ArgValue, Event, Phase, Trace};

/// The fixed pid used for all events — one process, many tracks.
const PID: u32 = 1;

/// Serializes a drained trace to Chrome JSON. See the module docs.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(64 + trace.events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;

    // Process metadata first, then named thread tracks, then the events.
    let mut records: Vec<String> = Vec::new();
    records.push(format!(
        "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"amgen\"}}}}"
    ));
    for th in &trace.threads {
        if let Some(name) = &th.name {
            let mut rec = format!(
                "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":",
                th.tid
            );
            push_json_string(&mut rec, name);
            rec.push_str("}}");
            records.push(rec);
        }
    }
    for ev in &trace.events {
        records.push(event_record(ev));
    }
    for rec in records {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&rec);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn event_record(ev: &Event) -> String {
    let ph = match ev.phase {
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Instant => "i",
    };
    let mut rec = format!(
        "{{\"ph\":\"{ph}\",\"pid\":{PID},\"tid\":{},\"ts\":{},\"cat\":",
        ev.tid,
        micros(ev.t_ns),
    );
    push_json_string(&mut rec, ev.cat);
    rec.push_str(",\"name\":");
    push_json_string(&mut rec, &ev.name);
    if ev.phase == Phase::Instant {
        rec.push_str(",\"s\":\"t\""); // thread-scoped instant
    }
    if !ev.args.is_empty() {
        rec.push_str(",\"args\":{");
        for (i, (key, value)) in ev.args.iter().enumerate() {
            if i > 0 {
                rec.push(',');
            }
            push_json_string(&mut rec, key);
            rec.push(':');
            push_arg(&mut rec, value);
        }
        rec.push('}');
    }
    rec.push('}');
    rec
}

/// Nanoseconds → microsecond timestamp string, nanosecond precision
/// preserved in three fixed decimals (deterministic formatting).
fn micros(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1_000, t_ns % 1_000)
}

fn push_arg(out: &mut String, value: &ArgValue) {
    match value {
        ArgValue::Int(i) => {
            let _ = write!(out, "{i}");
        }
        ArgValue::Float(f) => {
            if f.is_finite() {
                // `{:?}` keeps a decimal point (1.0, not 1) and round-trips.
                let _ = write!(out, "{f:?}");
            } else {
                // JSON has no Inf/NaN — degrade to a string.
                let _ = write!(out, "\"{f}\"");
            }
        }
        ArgValue::Str(s) => push_json_string(out, s),
    }
}

/// Appends `s` to `out` as a JSON string literal: quoted, with quotes,
/// backslashes and control characters escaped. The workspace's one JSON
/// string escaper: Chrome traces, lint certificates and served payloads
/// write their strings through it.
///
/// ```
/// let mut out = String::new();
/// amgen_trace::chrome::push_json_string(&mut out, "a\"b\n");
/// assert_eq!(out, r#""a\"b\n""#);
/// ```
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, Phase, ThreadInfo, Trace};

    #[test]
    fn timestamps_are_fractional_micros() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1_234), "1.234");
        assert_eq!(micros(1_000_007), "1000.007");
    }

    #[test]
    fn escaping() {
        let escaped = |s: &str| {
            let mut out = String::new();
            push_json_string(&mut out, s);
            out
        };
        assert_eq!(escaped("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escaped("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn instants_carry_thread_scope_and_args() {
        let trace = Trace {
            events: vec![
                Event::new(500, 2, Phase::Instant, "opt", "prune").with_arg("bound", 12.5f64)
            ],
            threads: vec![ThreadInfo {
                tid: 2,
                name: Some("opt-worker-2".into()),
            }],
        };
        let json = to_chrome_json(&trace);
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("\"bound\":12.5"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"opt-worker-2\""));
    }
}
