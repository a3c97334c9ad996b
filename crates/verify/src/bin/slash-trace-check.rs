//! `slash-trace-check` — validate Chrome trace-event JSON files.
//!
//! ```text
//! slash-trace-check FILE...
//! ```
//!
//! Checks, without any JSON library, that the trace an example or harness
//! emitted is actually loadable and well-behaved:
//!
//! 1. the document is structurally well-formed JSON — balanced brackets
//!    of matching kinds, valid string escapes, no stray bytes after the
//!    closing brace (a char-level tokenizer, not a regex);
//! 2. it contains a non-empty `traceEvents` array;
//! 3. the `"ts"` values appear in monotone non-decreasing file order,
//!    which `slash_obs::export::chrome_trace_json` guarantees by sorting
//!    on `(virtual time, sequence)`.
//!
//! Exit codes: 0 valid, 1 invalid, 2 usage/IO error.

use std::process::ExitCode;

/// A structural defect found while scanning the document.
#[derive(Debug)]
struct Defect(String);

/// Parse the decimal-microsecond literal starting at `bytes[i]` (e.g.
/// `12.345`) into integer nanoseconds; returns `(ns, next_index)`.
fn parse_ts(bytes: &[u8], mut i: usize) -> Result<(u64, usize), Defect> {
    let start = i;
    let mut us: u64 = 0;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        us = us * 10 + u64::from(bytes[i] - b'0');
        i += 1;
    }
    if i == start {
        return Err(Defect(format!(
            "byte {start}: \"ts\" value is not a number"
        )));
    }
    let mut ns = us * 1_000;
    if i < bytes.len() && bytes[i] == b'.' {
        i += 1;
        let mut scale = 100u64;
        let frac_start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            ns += u64::from(bytes[i] - b'0') * scale;
            scale /= 10;
            i += 1;
            if scale == 0 {
                break;
            }
        }
        if i == frac_start {
            return Err(Defect(format!(
                "byte {start}: \"ts\" has a bare decimal point"
            )));
        }
    }
    Ok((ns, i))
}

/// Scan the whole document once: validate structure and collect the
/// `"ts"` values (outside strings, in file order) and whether a
/// non-empty `traceEvents` array was seen.
fn check(doc: &str) -> Result<(usize, Vec<u64>), Defect> {
    let bytes = doc.as_bytes();
    let mut stack: Vec<u8> = Vec::new();
    let mut seen_root = false;
    let mut events = 0usize;
    let mut ts_values = Vec::new();
    // Depth of the `traceEvents` array, once entered; events are the
    // elements directly inside it.
    let mut trace_events_depth: Option<usize> = None;
    // Set when the string just closed was a key we care about.
    let mut last_string: Option<&str> = None;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'"' => {
                let start = i + 1;
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(Defect(format!("byte {start}: unterminated string")));
                    }
                    match bytes[i] {
                        b'"' => break,
                        b'\\' => {
                            let esc = bytes.get(i + 1).copied();
                            match esc {
                                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                                    i += 2
                                }
                                Some(b'u') => {
                                    let hex = bytes.get(i + 2..i + 6);
                                    let ok =
                                        hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit));
                                    if !ok {
                                        return Err(Defect(format!("byte {i}: bad \\u escape")));
                                    }
                                    i += 6;
                                }
                                _ => {
                                    return Err(Defect(format!("byte {i}: bad escape")));
                                }
                            }
                        }
                        c if c < 0x20 => {
                            return Err(Defect(format!(
                                "byte {i}: raw control character {c:#04x} inside string"
                            )));
                        }
                        _ => i += 1,
                    }
                }
                last_string = std::str::from_utf8(&bytes[start..i]).ok();
                i += 1;
                continue;
            }
            b'{' | b'[' => {
                if stack.is_empty() && seen_root {
                    return Err(Defect(format!("byte {i}: content after root value")));
                }
                if b == b'[' && last_string == Some("traceEvents") && stack.len() == 1 {
                    trace_events_depth = Some(stack.len() + 1);
                }
                if b == b'{' && trace_events_depth == Some(stack.len()) {
                    events += 1;
                }
                stack.push(b);
                seen_root = true;
            }
            b'}' => {
                if stack.pop() != Some(b'{') {
                    return Err(Defect(format!("byte {i}: unbalanced `}}`")));
                }
            }
            b']' => {
                if stack.pop() != Some(b'[') {
                    return Err(Defect(format!("byte {i}: unbalanced `]`")));
                }
                if trace_events_depth == Some(stack.len() + 1) {
                    trace_events_depth = None;
                }
            }
            b':' => {
                if last_string == Some("ts") {
                    let mut j = i + 1;
                    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                        j += 1;
                    }
                    let (ns, next) = parse_ts(bytes, j)?;
                    ts_values.push(ns);
                    i = next;
                    last_string = None;
                    continue;
                }
            }
            b' ' | b'\t' | b'\n' | b'\r' | b',' => {}
            _ => {
                // Numbers, literals, signs: structural validity only, so
                // accept the value characters JSON allows.
                let ok = b.is_ascii_digit()
                    || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                    || matches!(b, b't' | b'r' | b'u' | b'f' | b'a' | b'l' | b's' | b'n');
                if !ok {
                    return Err(Defect(format!("byte {i}: unexpected byte {b:#04x}")));
                }
                if stack.is_empty() && !seen_root {
                    return Err(Defect(format!("byte {i}: root is not an object")));
                }
            }
        }
        // Any token other than whitespace or the key's own colon
        // invalidates the pending key string.
        if !matches!(b, b':' | b' ' | b'\t' | b'\n' | b'\r') {
            last_string = None;
        }
        i += 1;
    }
    if !stack.is_empty() {
        return Err(Defect(format!(
            "{} unclosed bracket(s) at end of file",
            stack.len()
        )));
    }
    if !seen_root {
        return Err(Defect("empty document".to_string()));
    }
    Ok((events, ts_values))
}

fn run(path: &str, doc: &str) -> Result<String, Defect> {
    let (events, ts) = check(doc)?;
    if events == 0 {
        return Err(Defect("traceEvents array is missing or empty".to_string()));
    }
    for w in ts.windows(2) {
        if w[1] < w[0] {
            return Err(Defect(format!(
                "\"ts\" not monotone: {}ns after {}ns",
                w[1], w[0]
            )));
        }
    }
    Ok(format!(
        "slash-trace-check: {path}: {events} event(s), {} ts value(s) monotone, JSON well-formed — PASS",
        ts.len()
    ))
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: slash-trace-check FILE...");
        return ExitCode::SUCCESS;
    }
    if paths.is_empty() || paths.iter().any(|a| a.starts_with('-')) {
        eprintln!("usage: slash-trace-check FILE...");
        return ExitCode::from(2);
    }
    for p in &paths {
        let doc = match std::fs::read_to_string(p) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("slash-trace-check: cannot read {p}: {e}");
                return ExitCode::from(2);
            }
        };
        match run(p, &doc) {
            Ok(msg) => println!("{msg}"),
            Err(Defect(d)) => {
                eprintln!("slash-trace-check: {p}: FAIL — {d}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_real_export() {
        let obs = slash_obs::Obs::enabled(64);
        for i in 0..10u64 {
            obs.instant(
                slash_obs::Cat::Verb,
                "write",
                0,
                1,
                slash_desim::SimTime::from_nanos(i * 700),
                &[("seq", i)],
            );
        }
        let json = obs.chrome_trace_json();
        let (events, ts) = check(&json).expect("valid");
        assert_eq!(events, 10);
        assert_eq!(ts.len(), 10);
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ts[1], 700);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(check("{\"traceEvents\":[").is_err(), "unclosed");
        assert!(check("{\"a\":\"b").is_err(), "unterminated string");
        assert!(check("{\"a\":1}]").is_err(), "unbalanced close");
        assert!(check("{\"a\":\"\\q\"}").is_err(), "bad escape");
        let (events, _) = check("{\"traceEvents\":[]}").expect("well-formed");
        assert_eq!(events, 0, "empty traceEvents counts zero events");
    }

    #[test]
    fn ts_parsing_handles_fractional_microseconds() {
        let doc = "{\"traceEvents\":[{\"ts\":1.001},{\"ts\":2.5},{\"ts\":13}]}";
        let (events, ts) = check(doc).expect("valid");
        assert_eq!(events, 3);
        assert_eq!(ts, vec![1_001, 2_500, 13_000]);
    }

    #[test]
    fn non_monotone_ts_detected_by_run_order() {
        let doc = "{\"traceEvents\":[{\"ts\":5.000},{\"ts\":4.999}]}";
        let (_, ts) = check(doc).expect("well-formed");
        assert!(ts.windows(2).any(|w| w[1] < w[0]));
    }
}
