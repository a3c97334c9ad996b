//! The `slash-lint` engine: a dependency-free static-analysis pass.
//!
//! Works on a *code view* of each source file — comments, string/char
//! literals, and `#[cfg(test)]` item bodies blanked out (newlines kept, so
//! line numbers survive) — and then matches rule tokens per line. This is
//! deliberately a text/token-level scanner, not a parser: it cannot be
//! fooled by occurrences inside comments or strings, and it has zero
//! external dependencies, so it runs in the fully offline CI environment.
//!
//! ## Rules
//!
//! | rule | scope | what it catches |
//! |------|-------|-----------------|
//! | `no-panic` | library code of `net`, `state`, `rdma`, `core`, `obs` | `.unwrap()`, `.expect(`, `panic!`, `todo!` outside `#[cfg(test)]` |
//! | `no-truncating-cast` | wire-format files (`net/src/layout.rs`, `state/src/delta.rs`) | narrowing `as u8/u16/u32/...` casts |
//! | `crate-attrs` | every crate root | missing `#![forbid(unsafe_code)]` or `#![deny(missing_docs)]` |
//! | `no-debug-print` | library code of protocol crates + `desim` + `obs` | `dbg!`, `println!` |
//! | `metrics-facade` | library code of `net`, `state`, `core`, `baselines` | direct `=`/`+=`/`-=` writes to counter fields of a `*stats`/`*metrics` value outside the facade files — counters must go through the mutator methods so the observability registry sees them |
//! | `no-unordered-map` | library code of `core`, `net`, `state`, `desim` | std `HashMap`/`HashSet` — iteration order is nondeterministic across runs and could leak into schedules, digests, or wire bytes; use `BTreeMap`/`BTreeSet` |
//! | `no-wallclock` | library code of every crate except `bench` (file-scoped carve-out: `exec/src/threaded.rs`, whose hang watchdog must read host time) | `Instant::now`/`SystemTime` — simulation code must use virtual `SimTime`; host time breaks replay determinism |
//! | `latency-span-pairs` | library code of `core`, `net`, `state`, `obs` | per file, the multiset of `.span_open(<stage>, ..)` first-argument tokens must equal the `.span_close(<stage>, ..)` multiset — an unbalanced pair silently drops stage-histogram samples |
//!
//! ## Allowlist & burn-down
//!
//! `crates/verify/lint-allow.txt` holds grandfathered budgets as
//! `<path> <rule> <count>` lines. A file/rule pair may have **at most** its
//! budgeted number of violations; fewer is *also* an error ("stale
//! allowlist") so the budget must be shrunk in the same change — the
//! allowlist can only ever burn down. A single line can be exempted with a
//! justifying comment containing `lint:ok(<rule>)` — and a waiver whose
//! line no longer violates that rule is itself a failure ("stale waiver"),
//! so suppressions can't outlive the code they excused.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose library code must not panic (the protocol crates: a panic
/// there is a protocol bug, not an application choice).
const NO_PANIC_CRATES: &[&str] = &["net", "state", "rdma", "core", "obs"];

/// Crates whose library code must not debug-print.
const NO_PRINT_CRATES: &[&str] = &["net", "state", "rdma", "core", "desim", "obs"];

/// Crates whose library code must mutate performance counters through the
/// facade methods (so every bump is also visible to the metrics registry).
const METRICS_FACADE_CRATES: &[&str] = &["net", "state", "core", "baselines"];

/// The facade implementations themselves: the only files allowed to touch
/// counter fields directly.
const METRICS_FACADE_EXEMPT: &[&str] =
    &["crates/net/src/stats.rs", "crates/core/src/metrics.rs"];

/// Counter fields of `ChannelStats` / `EngineMetrics` that the
/// `metrics-facade` rule protects from direct writes.
const METRIC_FIELDS: &[&str] = &[
    "buffers",
    "payload_bytes",
    "credit_stalls",
    "empty_polls",
    "credit_msgs",
    "latency",
    "instructions",
    "records",
    "l1_misses",
    "l2_misses",
    "llc_misses",
    "mem_bytes",
    "net_bytes",
    "state_updates",
];

/// Crates whose library code must balance latency-span pairs: every
/// `.span_open(<stage>, ..)` call needs a matching `.span_close(<stage>,
/// ..)` in the same file, or the stage histogram silently loses samples
/// (an unmatched close only bumps the `span_mismatch` counter).
const SPAN_PAIR_CRATES: &[&str] = &["core", "net", "state", "obs"];

/// Crates whose library state is simulation-visible: the iteration order
/// of a std `HashMap`/`HashSet` differs across processes (random hasher
/// seed) and could leak into event schedules, state digests, or wire
/// bytes — breaking the determinism the whole verification stack rests
/// on. Ordered containers only.
const NO_UNORDERED_CRATES: &[&str] = &["core", "net", "state", "desim"];

/// The only crate allowed to read the host wall clock (`Instant::now`,
/// `SystemTime`); everything else must use virtual `SimTime`.
const WALLCLOCK_EXEMPT_CRATES: &[&str] = &["bench"];

/// File-scoped wall-clock exemptions inside otherwise-checked crates.
/// The threaded executor is the one place that legitimately straddles
/// both clocks: each node thread advances its own virtual `SimTime`, but
/// hang detection across *real* peer threads can only be wall-clock (a
/// peer stalling does not advance anyone's virtual time). Nothing
/// schedule-visible derives from the reading — it only arms a watchdog.
const WALLCLOCK_EXEMPT_FILES: &[&str] = &["crates/exec/src/threaded.rs"];

/// Wire-format files where a silently truncating `as` cast can corrupt
/// bytes on the wire.
const WIRE_FILES: &[&str] = &["crates/net/src/layout.rs", "crates/state/src/delta.rs"];

/// Narrowing `as` targets flagged in wire-format files.
const NARROWING: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Workspace-relative path of the allowlist.
pub const ALLOWLIST_PATH: &str = "crates/verify/lint-allow.txt";

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// No `unwrap`/`expect`/`panic!`/`todo!` in protocol library code.
    NoPanic,
    /// No narrowing `as` casts in wire-format files.
    NoTruncatingCast,
    /// Crate roots must forbid unsafe code and deny missing docs.
    CrateAttrs,
    /// No `dbg!`/`println!` in library code.
    NoDebugPrint,
    /// No direct writes to metric counter fields outside the facades.
    MetricsFacade,
    /// No std `HashMap`/`HashSet` in sim-visible library code.
    NoUnorderedMap,
    /// No host wall-clock reads outside the bench crate.
    NoWallclock,
    /// `span_open`/`span_close` stage tokens must balance per file.
    LatencySpanPairs,
}

impl Rule {
    /// Stable kebab-case name (used in the allowlist and in output).
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoPanic => "no-panic",
            Rule::NoTruncatingCast => "no-truncating-cast",
            Rule::CrateAttrs => "crate-attrs",
            Rule::NoDebugPrint => "no-debug-print",
            Rule::MetricsFacade => "metrics-facade",
            Rule::NoUnorderedMap => "no-unordered-map",
            Rule::NoWallclock => "no-wallclock",
            Rule::LatencySpanPairs => "latency-span-pairs",
        }
    }

    /// Parse a rule name as written in the allowlist.
    pub fn from_name(s: &str) -> Option<Rule> {
        match s {
            "no-panic" => Some(Rule::NoPanic),
            "no-truncating-cast" => Some(Rule::NoTruncatingCast),
            "crate-attrs" => Some(Rule::CrateAttrs),
            "no-debug-print" => Some(Rule::NoDebugPrint),
            "metrics-facade" => Some(Rule::MetricsFacade),
            "no-unordered-map" => Some(Rule::NoUnorderedMap),
            "no-wallclock" => Some(Rule::NoWallclock),
            "latency-span-pairs" => Some(Rule::LatencySpanPairs),
            _ => None,
        }
    }
}

/// One rule violation at a specific source line.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable description, including the offending token.
    pub message: String,
}

/// Result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Files scanned.
    pub checked_files: usize,
    /// Violations covered by the allowlist (budget exactly met).
    pub grandfathered: usize,
    /// Violations suppressed by an inline `lint:ok(<rule>)` waiver.
    pub waived: usize,
    /// Violations beyond (or absent from) the allowlist — failures.
    pub new_violations: Vec<Violation>,
    /// Allowlist entries whose budget exceeds the real count — failures
    /// (the budget must be shrunk: burn-down only).
    pub stale_allowlist: Vec<String>,
    /// Inline waivers on lines that no longer violate the waived rule —
    /// failures (the waiver must be removed with the code it excused).
    pub stale_waivers: Vec<String>,
}

impl Report {
    /// Whether the run passed.
    pub fn clean(&self) -> bool {
        self.new_violations.is_empty()
            && self.stale_allowlist.is_empty()
            && self.stale_waivers.is_empty()
    }

    /// Render the human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for v in &self.new_violations {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                v.file,
                v.line,
                v.rule.name(),
                v.message
            ));
        }
        for s in &self.stale_allowlist {
            out.push_str(&format!("allowlist: {s}\n"));
        }
        for s in &self.stale_waivers {
            out.push_str(&format!("stale waiver: {s}\n"));
        }
        out.push_str(&format!(
            "slash-lint: {} files checked, {} grandfathered, {} waived, {} new violation(s), {} stale allowlist entr(ies), {} stale waiver(s) — {}\n",
            self.checked_files,
            self.grandfathered,
            self.waived,
            self.new_violations.len(),
            self.stale_allowlist.len(),
            self.stale_waivers.len(),
            if self.clean() { "PASS" } else { "FAIL" }
        ));
        out
    }

    /// Render the report as JSON (hand-rolled; no serde in the tree).
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
        }
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"checked_files\": {},\n", self.checked_files));
        out.push_str(&format!("  \"grandfathered\": {},\n", self.grandfathered));
        out.push_str(&format!("  \"clean\": {},\n", self.clean()));
        out.push_str("  \"violations\": [\n");
        for (i, v) in self.new_violations.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{}\n",
                esc(&v.file),
                v.line,
                v.rule.name(),
                esc(&v.message),
                if i + 1 < self.new_violations.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"stale_allowlist\": [\n");
        for (i, s) in self.stale_allowlist.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\"{}\n",
                esc(s),
                if i + 1 < self.stale_allowlist.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"stale_waivers\": [\n");
        for (i, s) in self.stale_waivers.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\"{}\n",
                esc(s),
                if i + 1 < self.stale_waivers.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Blank out comments, string literals, and char literals with spaces,
/// preserving newlines so byte offsets map to the same lines.
fn code_view(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    let blank = |c: u8| if c == b'\n' { b'\n' } else { b' ' };
    while i < b.len() {
        let c = b[i];
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                out.push(blank(b[i]));
                i += 1;
            }
        } else if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            // Rust block comments nest.
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
        } else if c == b'r' || c == b'b' {
            // Possible raw/byte string start: r", r#", br", b".
            let mut j = i + 1;
            if c == b'b' && j < b.len() && b[j] == b'r' {
                j += 1;
            }
            let mut hashes = 0;
            while j < b.len() && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            let is_raw = j > i + 1 || (c == b'r' && hashes == 0);
            if j < b.len() && b[j] == b'"' && (is_raw || c == b'b') {
                // Copy the prefix verbatim, then blank to the terminator
                // `"` followed by `hashes` pound signs (raw) or an
                // unescaped `"` (plain byte string).
                while i < j {
                    out.push(b[i]);
                    i += 1;
                }
                out.push(b' '); // the opening quote
                i += 1;
                if hashes > 0 || is_raw {
                    'raw: while i < b.len() {
                        if b[i] == b'"' {
                            let mut k = 0;
                            while k < hashes && i + 1 + k < b.len() && b[i + 1 + k] == b'#' {
                                k += 1;
                            }
                            if k == hashes {
                                out.extend(std::iter::repeat_n(b' ', hashes + 1));
                                i += hashes + 1;
                                break 'raw;
                            }
                        }
                        out.push(blank(b[i]));
                        i += 1;
                    }
                } else {
                    while i < b.len() {
                        if b[i] == b'\\' && i + 1 < b.len() {
                            // An escaped newline (string line-continuation)
                            // must keep its newline or every later line
                            // number shifts.
                            out.push(b' ');
                            out.push(blank(b[i + 1]));
                            i += 2;
                        } else if b[i] == b'"' {
                            out.push(b' ');
                            i += 1;
                            break;
                        } else {
                            out.push(blank(b[i]));
                            i += 1;
                        }
                    }
                }
            } else {
                out.push(c);
                i += 1;
            }
        } else if c == b'"' {
            out.push(b' ');
            i += 1;
            while i < b.len() {
                if b[i] == b'\\' && i + 1 < b.len() {
                    // Keep escaped newlines: see the byte-string branch.
                    out.push(b' ');
                    out.push(blank(b[i + 1]));
                    i += 2;
                } else if b[i] == b'"' {
                    out.push(b' ');
                    i += 1;
                    break;
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
        } else if c == b'\'' {
            // Char literal vs lifetime: a char literal is 'x' or an escape.
            if i + 1 < b.len() && b[i + 1] == b'\\' {
                out.push(b' ');
                i += 1; // past '
                out.push(b' ');
                out.push(b' ');
                i += 2; // past \x
                while i < b.len() && b[i] != b'\'' {
                    out.push(blank(b[i]));
                    i += 1;
                }
                if i < b.len() {
                    out.push(b' ');
                    i += 1;
                }
            } else if i + 2 < b.len() && b[i + 2] == b'\'' && b[i + 1] != b'\'' {
                out.push(b' ');
                out.push(b' ');
                out.push(b' ');
                i += 3;
            } else {
                // A lifetime; copy the tick.
                out.push(c);
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    // `out` only ever contains bytes copied from valid UTF-8 or ASCII
    // spaces at char boundaries of removed regions; lossy keeps it total.
    String::from_utf8_lossy(&out).into_owned()
}

/// Blank the bodies of `#[cfg(test)]` items (mod/fn/impl) in a code view.
fn mask_cfg_test(code: &str) -> String {
    let marker = "#[cfg(test)]";
    let mut bytes = code.as_bytes().to_vec();
    let mut search_from = 0;
    loop {
        let hay = String::from_utf8_lossy(&bytes).into_owned();
        let Some(rel) = hay[search_from..].find(marker) else {
            break;
        };
        let start = search_from + rel;
        // Find the opening brace of the annotated item; give up at a `;`
        // at depth 0 (an item without a body, e.g. a gated `use`).
        let mut i = start + marker.len();
        let mut open = None;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => {
                    open = Some(i);
                    break;
                }
                b';' => break,
                _ => i += 1,
            }
        }
        let Some(open) = open else {
            search_from = start + marker.len();
            continue;
        };
        let mut depth = 0usize;
        let mut end = open;
        for (j, &c) in bytes.iter().enumerate().skip(open) {
            match c {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        for c in bytes.iter_mut().take(end + 1).skip(start) {
            if *c != b'\n' {
                *c = b' ';
            }
        }
        search_from = end + 1;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Whether byte `i` in `s` starts token `tok` at an identifier boundary
/// (the previous char must not be part of an identifier).
fn token_at(s: &str, i: usize, tok: &str) -> bool {
    if !s[i..].starts_with(tok) {
        return false;
    }
    if i == 0 {
        return true;
    }
    let prev = s.as_bytes()[i - 1];
    !(prev.is_ascii_alphanumeric() || prev == b'_')
}

/// Find all boundary-respecting occurrences of `tok` in `line`.
fn find_tokens(line: &str, tok: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(rel) = line[from..].find(tok) {
        let i = from + rel;
        if token_at(line, i, tok) {
            hits.push(i);
        }
        from = i + tok.len();
    }
    hits
}

/// Whether the original source line carries a `lint:ok(<rule>)` waiver.
fn line_waived(original_line: &str, rule: Rule) -> bool {
    original_line.contains(&format!("lint:ok({})", rule.name()))
}

/// All `lint:ok(<rule>)` markers in a file's original text (comments
/// included — that's where waivers live), as `(1-based line, rule)`.
/// Markers naming an unknown rule are ignored: they can't waive anything,
/// and doc prose legitimately writes placeholders like a bracketed rule.
fn waiver_markers(original: &str) -> Vec<(usize, Rule)> {
    let marker = "lint:ok(";
    let mut out = Vec::new();
    for (idx, line) in original.lines().enumerate() {
        let mut from = 0;
        while let Some(rel) = line[from..].find(marker) {
            let start = from + rel + marker.len();
            from = start;
            if let Some(len) = line[start..].find(')') {
                if let Some(rule) = Rule::from_name(&line[start..start + len]) {
                    out.push((idx + 1, rule));
                }
            }
        }
    }
    out
}

/// Which rule families apply to a given library file (derived from its
/// crate's membership in the scope consts).
#[derive(Debug, Clone, Copy, Default)]
struct Checks {
    panics: bool,
    prints: bool,
    metrics: bool,
    unordered: bool,
    wallclock: bool,
    span_pairs: bool,
}

impl Checks {
    fn for_crate(name: &str) -> Checks {
        Checks {
            panics: NO_PANIC_CRATES.contains(&name),
            prints: NO_PRINT_CRATES.contains(&name),
            metrics: METRICS_FACADE_CRATES.contains(&name),
            unordered: NO_UNORDERED_CRATES.contains(&name),
            wallclock: !WALLCLOCK_EXEMPT_CRATES.contains(&name),
            span_pairs: SPAN_PAIR_CRATES.contains(&name),
        }
    }

    fn any(self) -> bool {
        self.panics
            || self.prints
            || self.metrics
            || self.unordered
            || self.wallclock
            || self.span_pairs
    }
}

/// Collect `.{method}(` call sites in the code view, extracting each
/// call's first-argument token (whitespace/newline tolerant, so multi-line
/// calls resolve to the same token as single-line ones) and the 1-based
/// line of the call.
fn span_call_tokens(view: &str, method: &str) -> Vec<(String, usize)> {
    let pat = format!(".{method}(");
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = view[from..].find(&pat) {
        let i = from + rel;
        from = i + pat.len();
        let line = view[..i].bytes().filter(|b| *b == b'\n').count() + 1;
        let tok: String = view[i + pat.len()..]
            .chars()
            .take_while(|c| *c != ',' && *c != ')')
            .filter(|c| !c.is_whitespace())
            .collect();
        out.push((tok, line));
    }
    out
}

/// Whole-file check: every `.span_open(<stage>, ..)` must have a matching
/// `.span_close(<stage>, ..)` in the same file (and vice versa), compared
/// as a multiset per first-argument token. An unbalanced pair silently
/// loses stage-histogram samples (open) or only bumps `span_mismatch`
/// (close), so the imbalance is a bug at the call site, not at runtime.
fn scan_span_pairs(rel: &str, view: &str, out: &mut Vec<Violation>) {
    let opens = span_call_tokens(view, "span_open");
    let closes = span_call_tokens(view, "span_close");
    let mut tokens: Vec<&str> = opens.iter().chain(&closes).map(|(t, _)| t.as_str()).collect();
    tokens.sort_unstable();
    tokens.dedup();
    for tok in tokens {
        let n_open = opens.iter().filter(|(t, _)| t == tok).count();
        let n_close = closes.iter().filter(|(t, _)| t == tok).count();
        if n_open != n_close {
            let line = opens
                .iter()
                .chain(&closes)
                .find(|(t, _)| t == tok)
                .map_or(1, |(_, l)| *l);
            out.push(Violation {
                file: rel.to_owned(),
                line,
                rule: Rule::LatencySpanPairs,
                message: format!(
                    "stage `{tok}` has {n_open} span_open but {n_close} span_close in this \
                     file — latency spans must balance per file"
                ),
            });
        }
    }
}

/// Detect a direct write to a protected metric field on this line:
/// `<ident ending in stats|metrics>.<field>` followed by `=`, `+=` or
/// `-=` (not `==` / `=>`). Returns the offending fields.
fn metric_field_writes(line: &str) -> Vec<&'static str> {
    let bytes = line.as_bytes();
    let mut hits = Vec::new();
    for field in METRIC_FIELDS {
        let tok = format!(".{field}");
        // Raw find, not `find_tokens`: the leading `.` is always preceded
        // by the receiver identifier, so the start boundary is the dot
        // itself. Only the trailing boundary needs checking (`.records`
        // must not match inside `.records_total`).
        let mut from = 0;
        while let Some(rel) = line[from..].find(&tok) {
            let i = from + rel;
            from = i + tok.len();
            let mut j = i + tok.len();
            if bytes.get(j).is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_') {
                continue;
            }
            // The receiver identifier must end with `stats` or `metrics`.
            let ident_end = i;
            let mut ident_start = ident_end;
            while ident_start > 0 {
                let c = bytes[ident_start - 1];
                if c.is_ascii_alphanumeric() || c == b'_' {
                    ident_start -= 1;
                } else {
                    break;
                }
            }
            let ident = &line[ident_start..ident_end];
            if !(ident.ends_with("stats") || ident.ends_with("metrics")) {
                continue;
            }
            // What follows must be an assignment operator.
            while bytes.get(j).is_some_and(|c| *c == b' ' || *c == b'\t') {
                j += 1;
            }
            let rest = &line[j.min(line.len())..];
            let is_write = rest.starts_with("+=")
                || rest.starts_with("-=")
                || (rest.starts_with('=')
                    && !rest.starts_with("==")
                    && !rest.starts_with("=>"));
            if is_write {
                hits.push(*field);
            }
        }
    }
    hits
}

/// Scan one library file's code view for every token-level rule, pushing
/// raw violations (inline waivers are resolved by the caller, which also
/// detects waivers that no longer suppress anything).
fn scan_file(rel: &str, original: &str, checks: Checks, out: &mut Vec<Violation>) {
    let view = mask_cfg_test(&code_view(original));
    let is_wire = WIRE_FILES.contains(&rel);
    let check_metrics = checks.metrics && !METRICS_FACADE_EXEMPT.contains(&rel);
    let check_wallclock = checks.wallclock && !WALLCLOCK_EXEMPT_FILES.contains(&rel);
    if checks.span_pairs {
        scan_span_pairs(rel, &view, out);
    }
    for (idx, line) in view.lines().enumerate() {
        if checks.panics {
            for tok in [".unwrap()", ".expect(", "panic!", "todo!"] {
                let hits = if tok.starts_with('.') {
                    // Method tokens need no boundary check: the dot is one.
                    let mut h = Vec::new();
                    let mut from = 0;
                    while let Some(rel_i) = line[from..].find(tok) {
                        h.push(from + rel_i);
                        from += rel_i + tok.len();
                    }
                    h
                } else {
                    find_tokens(line, tok)
                };
                for _ in hits {
                    out.push(Violation {
                        file: rel.to_owned(),
                        line: idx + 1,
                        rule: Rule::NoPanic,
                        message: format!(
                            "`{}` in protocol library code — return an error or prove the invariant locally",
                            tok.trim_start_matches('.')
                        ),
                    });
                }
            }
        }
        if checks.prints {
            for tok in ["dbg!", "println!"] {
                for _ in find_tokens(line, tok) {
                    out.push(Violation {
                        file: rel.to_owned(),
                        line: idx + 1,
                        rule: Rule::NoDebugPrint,
                        message: format!("`{tok}` in library code — use a stats counter or return data"),
                    });
                }
            }
        }
        if checks.unordered {
            for tok in ["HashMap", "HashSet"] {
                for _ in find_tokens(line, tok) {
                    out.push(Violation {
                        file: rel.to_owned(),
                        line: idx + 1,
                        rule: Rule::NoUnorderedMap,
                        message: format!(
                            "std `{tok}` in sim-visible library code — iteration order is \
                             nondeterministic; use `BTree{}` instead",
                            tok.trim_start_matches("Hash")
                        ),
                    });
                }
            }
        }
        if check_wallclock {
            for tok in ["Instant::now", "SystemTime"] {
                for _ in find_tokens(line, tok) {
                    out.push(Violation {
                        file: rel.to_owned(),
                        line: idx + 1,
                        rule: Rule::NoWallclock,
                        message: format!(
                            "`{tok}` outside the bench crate — simulation code must use \
                             virtual `SimTime`; host time breaks replay determinism"
                        ),
                    });
                }
            }
        }
        if check_metrics {
            for field in metric_field_writes(line) {
                out.push(Violation {
                    file: rel.to_owned(),
                    line: idx + 1,
                    rule: Rule::MetricsFacade,
                    message: format!(
                        "direct write to metric field `{field}` — use the ChannelStats/EngineMetrics facade methods so the observability registry sees the update"
                    ),
                });
            }
        }
        if is_wire {
            for target in NARROWING {
                let tok = format!("as {target}");
                for i in find_tokens(line, &tok) {
                    // The char after the target must not extend the type
                    // name (`as u32` must not match inside `as u32x4`).
                    let after = i + tok.len();
                    let boundary = line
                        .as_bytes()
                        .get(after)
                        .is_none_or(|c| !(c.is_ascii_alphanumeric() || *c == b'_'));
                    if boundary {
                        out.push(Violation {
                            file: rel.to_owned(),
                            line: idx + 1,
                            rule: Rule::NoTruncatingCast,
                            message: format!(
                                "narrowing `{tok}` cast in wire-format code — use a checked conversion or waive with a masked-width justification"
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Check a crate root for the mandatory attributes.
fn scan_crate_root(rel: &str, original: &str, out: &mut Vec<Violation>) {
    for attr in ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"] {
        if !original.contains(attr) {
            out.push(Violation {
                file: rel.to_owned(),
                line: 1,
                rule: Rule::CrateAttrs,
                message: format!("crate root missing `{attr}`"),
            });
        }
    }
}

/// Recursively collect `.rs` files under `dir`, skipping `bin/` (binaries
/// may print and exit; the rules target library code).
fn rs_files(dir: &Path, skip_bin: bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().collect();
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            if skip_bin && p.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            rs_files(&p, skip_bin, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

fn rel_path(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Parse the allowlist into `(path, rule) -> budget`.
fn parse_allowlist(text: &str) -> Result<BTreeMap<(String, Rule), usize>, String> {
    let mut map = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(format!("allowlist line {}: expected `<path> <rule> <count>`", i + 1));
        }
        let rule = Rule::from_name(parts[1])
            .ok_or_else(|| format!("allowlist line {}: unknown rule `{}`", i + 1, parts[1]))?;
        let count: usize = parts[2]
            .parse()
            .map_err(|_| format!("allowlist line {}: bad count `{}`", i + 1, parts[2]))?;
        if count == 0 {
            return Err(format!(
                "allowlist line {}: zero-count entry — delete the line instead",
                i + 1
            ));
        }
        if map.insert((parts[0].to_owned(), rule), count).is_some() {
            return Err(format!("allowlist line {}: duplicate entry", i + 1));
        }
    }
    Ok(map)
}

/// Run the full lint pass over the workspace rooted at `root`.
pub fn run(root: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut raw: Vec<Violation> = Vec::new();

    // Crate roots: the root package plus every crate under crates/.
    let mut roots = vec![root.join("src/lib.rs")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            let lib = d.join("src/lib.rs");
            if lib.is_file() {
                roots.push(lib);
            }
        }
    }
    for p in &roots {
        let rel = rel_path(root, p);
        let src = fs::read_to_string(p).map_err(|e| format!("{rel}: {e}"))?;
        report.checked_files += 1;
        scan_crate_root(&rel, &src, &mut raw);
    }

    // Library sources of every crate with at least one applicable rule —
    // the wall-clock rule covers all crates except `bench`, so in practice
    // everything but `bench` is scanned.
    let mut lib_files: Vec<PathBuf> = Vec::new();
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            let name = d.file_name().map(|n| n.to_string_lossy().into_owned());
            let Some(name) = name else { continue };
            if Checks::for_crate(&name).any() {
                rs_files(&d.join("src"), true, &mut lib_files);
            }
        }
    }
    lib_files.sort();
    lib_files.dedup();
    let mut used_waivers: std::collections::BTreeSet<(String, usize, Rule)> =
        std::collections::BTreeSet::new();
    for p in &lib_files {
        let rel = rel_path(root, p);
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("");
        let src = fs::read_to_string(p).map_err(|e| format!("{rel}: {e}"))?;
        report.checked_files += 1;
        let mut raw_file: Vec<Violation> = Vec::new();
        scan_file(&rel, &src, Checks::for_crate(crate_name), &mut raw_file);
        // Resolve inline waivers: a waived violation is suppressed (and
        // marks its waiver as earning its keep); everything else proceeds
        // to the allowlist stage.
        let lines: Vec<&str> = src.lines().collect();
        for v in raw_file {
            let orig = lines.get(v.line.saturating_sub(1)).copied().unwrap_or("");
            if line_waived(orig, v.rule) {
                used_waivers.insert((rel.clone(), v.line, v.rule));
                report.waived += 1;
            } else {
                raw.push(v);
            }
        }
        // A waiver that suppressed nothing is stale: the line it guards no
        // longer violates the rule it names.
        for (line_no, rule) in waiver_markers(&src) {
            if !used_waivers.contains(&(rel.clone(), line_no, rule)) {
                report.stale_waivers.push(format!(
                    "{rel}:{line_no}: waiver for `{}` but the line no longer violates it — remove the lint:ok comment",
                    rule.name()
                ));
            }
        }
    }

    // Apply the allowlist with burn-down semantics.
    let allow_text = fs::read_to_string(root.join(ALLOWLIST_PATH)).unwrap_or_default();
    let budgets = parse_allowlist(&allow_text)?;
    let mut actual: BTreeMap<(String, Rule), Vec<Violation>> = BTreeMap::new();
    for v in raw {
        actual.entry((v.file.clone(), v.rule)).or_default().push(v);
    }
    for ((file, rule), vs) in &actual {
        let budget = budgets.get(&(file.clone(), *rule)).copied().unwrap_or(0);
        if vs.len() > budget {
            report.new_violations.extend(vs.iter().cloned());
            if budget > 0 {
                report.stale_allowlist.push(format!(
                    "{file} {} budget {budget} exceeded: {} found",
                    rule.name(),
                    vs.len()
                ));
            }
        } else if vs.len() < budget {
            report.grandfathered += vs.len();
            report.stale_allowlist.push(format!(
                "{file} {} budget {budget} but only {} found — shrink the budget (burn-down only)",
                rule.name(),
                vs.len()
            ));
        } else {
            report.grandfathered += vs.len();
        }
    }
    // Budgets for pairs with zero actual violations are stale too.
    for ((file, rule), budget) in &budgets {
        if !actual.contains_key(&(file.clone(), *rule)) {
            report.stale_allowlist.push(format!(
                "{file} {} budget {budget} but 0 found — delete the entry (burn-down only)",
                rule.name()
            ));
        }
    }
    report.new_violations.sort_by(|a, b| {
        (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule))
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_view_blanks_comments_and_strings() {
        let src = "let a = 1; // unwrap() in a comment\nlet s = \".unwrap()\";\n/* panic! */ let b = 2;\n";
        let v = code_view(src);
        assert!(!v.contains("unwrap"));
        assert!(!v.contains("panic"));
        assert!(v.contains("let a = 1;"));
        assert!(v.contains("let b = 2;"));
        assert_eq!(v.lines().count(), src.lines().count());
    }

    #[test]
    fn code_view_keeps_escaped_newlines_in_strings() {
        // A `\`-line-continuation inside a string spans two source lines;
        // blanking the escaped newline used to shift every later line
        // number, misattributing violations and breaking inline waivers.
        let src = "let s = \"a \\\n   b\";\nx.unwrap();\n";
        let v = code_view(src);
        assert_eq!(v.lines().count(), src.lines().count());
        let at = v
            .lines()
            .position(|l| l.contains(".unwrap()"))
            .expect("unwrap survives outside strings");
        assert_eq!(at + 1, 3, "violation must stay on its source line");
    }

    #[test]
    fn code_view_handles_raw_strings_and_chars() {
        let src = "let r = r#\"todo!()\"#;\nlet c = '\"';\nlet lt: &'static str = x;\n";
        let v = code_view(src);
        assert!(!v.contains("todo!"));
        assert!(v.contains("'static"));
    }

    #[test]
    fn cfg_test_bodies_are_masked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() { y.unwrap(); }\n";
        let masked = mask_cfg_test(&code_view(src));
        let hits: Vec<usize> = masked
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains(".unwrap()"))
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(hits, vec![6], "only the unwrap outside #[cfg(test)] remains");
    }

    #[test]
    fn token_boundaries_respected() {
        assert!(find_tokens("panic!(\"x\")", "panic!").len() == 1);
        assert!(find_tokens("debug_panic!()", "panic!").is_empty());
        assert!(find_tokens("eprintln!(\"x\")", "println!").is_empty());
        assert!(find_tokens("println!(\"x\")", "println!").len() == 1);
    }

    #[test]
    fn metric_writes_detected_and_reads_ignored() {
        // Direct writes through a stats/metrics-named receiver are flagged.
        assert_eq!(metric_field_writes("sh.metrics.records += n;"), vec!["records"]);
        assert_eq!(
            metric_field_writes("sh.sender_metrics.mem_bytes += m;"),
            vec!["mem_bytes"]
        );
        assert_eq!(metric_field_writes("rx.stats.buffers = 0;"), vec!["buffers"]);
        assert_eq!(metric_field_writes("stats.l1_misses -= x;"), vec!["l1_misses"]);
        // Reads, comparisons, and method calls are not writes.
        assert!(metric_field_writes("let n = sh.metrics.records;").is_empty());
        assert!(metric_field_writes("if sh.metrics.records == 0 {").is_empty());
        assert!(metric_field_writes("rx.stats.latency.merge(&h);").is_empty());
        assert!(metric_field_writes("match sh.metrics.records => {").is_empty());
        // Receivers not named *stats/*metrics are out of scope.
        assert!(metric_field_writes("report.records += sh.records;").is_empty());
        assert!(metric_field_writes("self.buffers += 1;").is_empty());
        // Field-name boundary: `.records_total` is not `.records`.
        assert!(metric_field_writes("sh.metrics.records_total = 1;").is_empty());
    }

    #[test]
    fn span_pairs_balance_per_stage_token() {
        // Balanced: same stage token opens and closes, multi-line call.
        let balanced = "pub fn f(o: &Obs) {\n\
                        \x20   o.span_open(Stage::Source, 0, 1, t0);\n\
                        \x20   o.span_close(\n\
                        \x20       Stage::Source,\n\
                        \x20       0, 1, t1, n,\n\
                        \x20   );\n\
                        }\n";
        let mut out = Vec::new();
        let checks = Checks { span_pairs: true, ..Checks::default() };
        scan_file("crates/core/src/x.rs", balanced, checks, &mut out);
        assert!(out.is_empty(), "{out:?}");

        // Unbalanced: the close names a different stage.
        let unbalanced = "pub fn f(o: &Obs) {\n\
                          \x20   o.span_open(Stage::Source, 0, 1, t0);\n\
                          \x20   o.span_close(Stage::SsbApply, 0, 1, t1, n);\n\
                          }\n";
        let mut out = Vec::new();
        scan_file("crates/core/src/x.rs", unbalanced, checks, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|v| v.rule == Rule::LatencySpanPairs));
        assert!(out[0].message.contains("Stage::Source"));

        // Defining the facade (`pub fn span_open(`) is not a call site,
        // and calls inside #[cfg(test)] are masked.
        let defs = "pub fn span_open(&self) {}\n\
                    #[cfg(test)]\nmod tests {\n\
                    \x20   fn t(o: &Obs) { o.span_open(Stage::Source, 0, 1, t0); }\n\
                    }\n";
        let mut out = Vec::new();
        scan_file("crates/obs/src/x.rs", defs, checks, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn span_pairs_rule_roundtrips_its_name() {
        assert_eq!(Rule::LatencySpanPairs.name(), "latency-span-pairs");
        assert_eq!(
            Rule::from_name("latency-span-pairs"),
            Some(Rule::LatencySpanPairs)
        );
    }

    #[test]
    fn waiver_markers_parse_known_rules_only() {
        // Markers are built at runtime so this test file cannot itself be
        // mistaken for carrying (stale) waivers.
        let w = |r: &str| format!("// lint:ok({r})");
        let src = format!(
            "fn a() {{}} {}\nfn b() {{}}\nfn c() {{}} {} {}\n",
            w("no-panic"),
            w("bogus-rule"),
            w("no-wallclock")
        );
        let m = waiver_markers(&src);
        assert_eq!(m, vec![(1, Rule::NoPanic), (3, Rule::NoWallclock)]);
    }

    #[test]
    fn unordered_and_wallclock_tokens_detected() {
        let src = "use std::collections::HashMap;\n\
                   pub fn f() { let _ = std::time::Instant::now(); }\n\
                   pub fn g() { let _ = FxHashMap::default(); }\n\
                   pub fn h() { let _ = std::time::SystemTime::now(); }\n\
                   pub fn i(s: &std::collections::HashSet<u8>) {}\n";
        let mut out = Vec::new();
        let checks = Checks {
            unordered: true,
            wallclock: true,
            ..Checks::default()
        };
        scan_file("crates/core/src/x.rs", src, checks, &mut out);
        let got: Vec<(usize, Rule)> = out.iter().map(|v| (v.line, v.rule)).collect();
        assert_eq!(
            got,
            vec![
                (1, Rule::NoUnorderedMap),
                (2, Rule::NoWallclock),
                (4, Rule::NoWallclock),
                (5, Rule::NoUnorderedMap),
            ],
            "FxHashMap must not match; std HashMap/HashSet and both clock tokens must"
        );
    }

    #[test]
    fn wallclock_exemption_is_scoped_to_the_threaded_executor_file() {
        // The watchdog in the threaded executor is the one sanctioned
        // wall-clock reader outside `bench`; a sibling file in the same
        // crate gets no such pass.
        let src = "pub fn f() { let _ = std::time::Instant::now(); }\n";
        let checks = Checks {
            wallclock: true,
            ..Checks::default()
        };
        let mut out = Vec::new();
        scan_file("crates/exec/src/threaded.rs", src, checks, &mut out);
        assert!(out.is_empty(), "exempt file flagged: {out:?}");
        let mut out = Vec::new();
        scan_file("crates/exec/src/lib.rs", src, checks, &mut out);
        assert_eq!(out.len(), 1, "sibling file must still be checked");
        assert_eq!(out[0].rule, Rule::NoWallclock);
    }

    #[test]
    fn unordered_tokens_in_test_code_are_exempt() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        let mut out = Vec::new();
        let checks = Checks {
            unordered: true,
            ..Checks::default()
        };
        scan_file("crates/core/src/x.rs", src, checks, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn allowlist_rejects_zero_and_duplicates() {
        assert!(parse_allowlist("a.rs no-panic 0").is_err());
        assert!(parse_allowlist("a.rs no-panic 1\na.rs no-panic 2").is_err());
        assert!(parse_allowlist("# comment\n\na.rs no-panic 3\n").is_ok());
        assert!(parse_allowlist("a.rs bogus-rule 3").is_err());
    }
}
