//! `slash-trace-check` — validate a Chrome trace-event JSON file, or a
//! `latency-bench` report.
//!
//! ```text
//! slash-trace-check FILE            # Chrome trace-event document
//! slash-trace-check --latency FILE  # BENCH_latency.json schema
//! ```
//!
//! Trace mode checks, without any JSON library, that the trace an example
//! or harness emitted is actually loadable and well-behaved:
//!
//! 1. the document is structurally well-formed JSON — balanced brackets
//!    of matching kinds, valid string escapes, no stray bytes after the
//!    closing brace (a char-level tokenizer, not a regex);
//! 2. it contains a non-empty `traceEvents` array;
//! 3. the `"ts"` values appear in monotone non-decreasing file order,
//!    which `slash_obs::export::chrome_trace_json` guarantees by sorting
//!    on `(virtual time, sequence)`.
//!
//! Latency mode validates the report `latency-bench` writes:
//!
//! 1. every row's quantiles are monotone (p50 ≤ p99 ≤ p99.9 ≤ p99.99 ≤ max);
//! 2. per workload, the record-path stage means sum to at most the
//!    end-to-end mean — the stage segments partition the worker's busy
//!    window, so attribution can never exceed what it attributes (means
//!    compose linearly; quantiles would not);
//! 3. heat top-k entries per `(workload, label)` have contiguous ranks
//!    and non-increasing counts.
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

// ---------------------------------------------------------------------
// Latency-report mode.
// ---------------------------------------------------------------------

/// Extract a string field from a single-line JSON row.
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// Extract an unsigned integer field from a single-line JSON row.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Validate a `latency-bench` report (see module doc, latency mode).
fn check_latency(doc: &str) -> Result<String, Defect> {
    let mut rows = 0usize;
    let mut heat_rows = 0usize;
    // (workload, record_path, stage, mean) of stage rows; end_to_end mean
    // kept separately per workload.
    let mut stage_means: Vec<(String, String, u64)> = Vec::new();
    let mut e2e_means: Vec<(String, u64)> = Vec::new();
    // (workload, label) -> (last rank, last count) for heat ordering.
    let mut heat_last: Vec<(String, String, u64, u64)> = Vec::new();
    for (ln, line) in doc.lines().enumerate() {
        let n = ln + 1;
        if let (Some(wl), Some(stage)) = (json_str(line, "workload"), json_str(line, "stage")) {
            rows += 1;
            let mut vals = Vec::new();
            for key in ["p50", "p99", "p99.9", "p99.99", "max"] {
                let Some(v) = json_u64(line, key) else {
                    return Err(Defect(format!("line {n}: row missing \"{key}\"")));
                };
                vals.push((key, v));
            }
            for w in vals.windows(2) {
                if w[1].1 < w[0].1 {
                    return Err(Defect(format!(
                        "line {n}: {wl}.{stage} quantiles not monotone: {}={} < {}={}",
                        w[1].0, w[1].1, w[0].0, w[0].1
                    )));
                }
            }
            let Some(mean) = json_u64(line, "mean") else {
                return Err(Defect(format!("line {n}: row missing \"mean\"")));
            };
            if stage == "end_to_end" {
                e2e_means.push((wl.to_string(), mean));
            } else if line.contains("\"record_path\": true") {
                stage_means.push((wl.to_string(), stage.to_string(), mean));
            }
        } else if let (Some(wl), Some(label)) =
            (json_str(line, "workload"), json_str(line, "label"))
        {
            heat_rows += 1;
            let (Some(rank), Some(count)) = (json_u64(line, "rank"), json_u64(line, "count"))
            else {
                return Err(Defect(format!("line {n}: heat row missing rank/count")));
            };
            match heat_last
                .iter_mut()
                .find(|(w, l, _, _)| w == wl && l == label)
            {
                None => {
                    if rank != 0 {
                        return Err(Defect(format!(
                            "line {n}: heat {wl}/{label} starts at rank {rank}, not 0"
                        )));
                    }
                    heat_last.push((wl.to_string(), label.to_string(), rank, count));
                }
                Some((_, _, last_rank, last_count)) => {
                    if rank != *last_rank + 1 {
                        return Err(Defect(format!(
                            "line {n}: heat {wl}/{label} rank {rank} after {last_rank}"
                        )));
                    }
                    if count > *last_count {
                        return Err(Defect(format!(
                            "line {n}: heat {wl}/{label} count {count} increases past {last_count}"
                        )));
                    }
                    *last_rank = rank;
                    *last_count = count;
                }
            }
        }
    }
    if rows == 0 {
        return Err(Defect("no latency rows found".to_string()));
    }
    for (wl, e2e) in &e2e_means {
        let sum: u64 = stage_means
            .iter()
            .filter(|(w, _, _)| w == wl)
            .map(|(_, _, m)| m)
            .sum();
        // The stage segments partition the busy window exactly and each
        // per-record value floors, so the sum can never exceed the
        // end-to-end mean; +1 absorbs the e2e mean's own final floor.
        if sum > e2e + 1 {
            return Err(Defect(format!(
                "{wl}: record-path stage means sum to {sum}ns > end-to-end mean {e2e}ns"
            )));
        }
    }
    Ok(format!(
        "{rows} latency row(s) monotone, {} workload(s) stage-sum-consistent, {heat_rows} heat row(s) ordered — PASS",
        e2e_means.len()
    ))
}

fn run_latency(path: &str) -> Result<String, Defect> {
    let doc =
        std::fs::read_to_string(path).map_err(|e| Defect(format!("cannot read {path}: {e}")))?;
    check_latency(&doc).map(|msg| format!("slash-trace-check: {path}: {msg}"))
}

fn run(path: &str) -> Result<String, Defect> {
    let doc =
        std::fs::read_to_string(path).map_err(|e| Defect(format!("cannot read {path}: {e}")))?;
    let (events, ts) = check(&doc)?;
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
    // (path, latency mode) pairs, in argument order.
    let mut jobs: Vec<(String, bool)> = Vec::new();
    let mut latency_next = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--help" | "-h" => {
                println!("usage: slash-trace-check [--latency] FILE...");
                return ExitCode::SUCCESS;
            }
            "--latency" => latency_next = true,
            _ => {
                jobs.push((a, latency_next));
                latency_next = false;
            }
        }
    }
    if jobs.is_empty() || latency_next {
        eprintln!("slash-trace-check: expected at least one trace file");
        return ExitCode::from(2);
    }
    for (p, latency) in &jobs {
        let res = if *latency { run_latency(p) } else { run(p) };
        match res {
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

    fn lat_row(wl: &str, stage: &str, rp: bool, mean: u64, q: [u64; 5]) -> String {
        format!(
            "{{\"workload\": \"{wl}\", \"stage\": \"{stage}\", \"record_path\": {rp}, \
             \"count\": 10, \"mean\": {mean}, \"p50\": {}, \"p99\": {}, \"p99.9\": {}, \
             \"p99.99\": {}, \"max\": {}}}\n",
            q[0], q[1], q[2], q[3], q[4]
        )
    }

    fn heat_row(wl: &str, label: &str, rank: u64, count: u64) -> String {
        format!(
            "{{\"workload\": \"{wl}\", \"label\": \"{label}\", \"rank\": {rank}, \
             \"key\": 7, \"count\": {count}, \"err\": 0}}\n"
        )
    }

    #[test]
    fn latency_mode_accepts_a_consistent_report() {
        let mut doc = String::new();
        doc.push_str(&lat_row(
            "ysb",
            "end_to_end",
            true,
            20,
            [10, 20, 30, 40, 50],
        ));
        doc.push_str(&lat_row("ysb", "source", true, 6, [6, 6, 6, 6, 6]));
        doc.push_str(&lat_row("ysb", "ssb_apply", true, 10, [8, 12, 14, 16, 16]));
        // Off-record-path stages are excluded from the sum check.
        doc.push_str(&lat_row(
            "ysb",
            "channel_transit",
            false,
            9000,
            [1, 2, 3, 4, 5],
        ));
        doc.push_str(&heat_row("ysb", "node0", 0, 100));
        doc.push_str(&heat_row("ysb", "node0", 1, 100));
        doc.push_str(&heat_row("ysb", "node0", 2, 40));
        doc.push_str(&heat_row("ysb", "node1", 0, 7));
        let msg = check_latency(&doc).expect("valid report");
        assert!(msg.contains("4 latency row(s)"));
        assert!(msg.contains("4 heat row(s)"));
    }

    #[test]
    fn latency_mode_rejects_non_monotone_quantiles() {
        let doc = lat_row("ysb", "end_to_end", true, 20, [10, 9, 30, 40, 50]);
        let err = check_latency(&doc).unwrap_err();
        assert!(err.0.contains("not monotone"), "{}", err.0);
    }

    #[test]
    fn latency_mode_rejects_stage_sum_exceeding_end_to_end() {
        let mut doc = String::new();
        doc.push_str(&lat_row(
            "nb7",
            "end_to_end",
            true,
            20,
            [10, 20, 30, 40, 50],
        ));
        doc.push_str(&lat_row("nb7", "source", true, 15, [6, 6, 6, 6, 6]));
        doc.push_str(&lat_row("nb7", "ssb_apply", true, 15, [8, 12, 14, 16, 16]));
        let err = check_latency(&doc).unwrap_err();
        assert!(err.0.contains("sum to 30ns"), "{}", err.0);
    }

    #[test]
    fn latency_mode_rejects_heat_disorder() {
        let base = lat_row("ysb", "end_to_end", true, 20, [10, 20, 30, 40, 50]);
        let increasing = format!(
            "{base}{}{}",
            heat_row("ysb", "node0", 0, 10),
            heat_row("ysb", "node0", 1, 11)
        );
        assert!(check_latency(&increasing)
            .unwrap_err()
            .0
            .contains("increases"));
        let gap = format!(
            "{base}{}{}",
            heat_row("ysb", "node0", 0, 10),
            heat_row("ysb", "node0", 2, 5)
        );
        assert!(check_latency(&gap)
            .unwrap_err()
            .0
            .contains("rank 2 after 0"));
        let bad_start = format!("{base}{}", heat_row("ysb", "node1", 3, 5));
        assert!(check_latency(&bad_start).unwrap_err().0.contains("not 0"));
    }

    #[test]
    fn latency_mode_rejects_empty_reports() {
        assert!(check_latency("{}\n").is_err());
    }
}
