//! Ledger mode: every workload in a child process of this binary (so peak
//! memory and allocator state are per workload), collected into one file;
//! and `--selfcheck`, the A/A run that shows whether the bounds can be
//! resolved on this machine.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::catalog::{Clock, END_TO_END};
use crate::json::{self, quote, Value};
use crate::report::{artefact_dir, environment_json, write_file};
use crate::workload::{Workload, WORKLOADS};

/// Run one section of one workload in a child process; returns the path of
/// its detail file. The child's tables go straight to this process's stdout.
fn child(w: &Workload, seed: u64, seconds: u64, trace: bool, tag: &str) -> Result<PathBuf, String> {
    let out: PathBuf =
        artefact_dir().join(format!("{}.trace{}{tag}.json", w.name, u8::from(trace)));
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .status()
        .map_err(|e| format!("starting the {} child: {e}", w.name))?;
    if !status.success() {
        return Err(format!(
            "{} (trace {}) failed: {status}",
            w.name,
            u8::from(trace)
        ));
    }
    Ok(out)
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_detail(path: &Path) -> Result<Value, String> {
    json::parse(&read(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

fn num(v: &Value, metric: &str, field: &str) -> Result<f64, String> {
    v.get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get(field))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("detail file lacks {metric}.{field}"))
}

/// Inter-quartile range of a metric's samples inside one run, as a share of
/// its value.
fn iqr_share(run: &Value, metric: &str) -> Result<f64, String> {
    let spread = num(run, metric, "q3")? - num(run, metric, "q1")?;
    Ok(spread.abs() / num(run, metric, "value")?)
}

/// All four workloads, end-to-end then per-layer, into `out`.
pub fn run(seed: u64, seconds: u64, out: &Path) -> Result<(), String> {
    let mut sections = Vec::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            let detail = child(w, seed, seconds, trace, "")?;
            sections.push(read(&detail)?.trim_end().to_string());
        }
    }
    let ledger = format!(
        "{{\"benchmark\": \"perf-ledger\", \"seed\": {seed}, \"seconds\": {seconds}, {},\n\"runs\": [\n{}\n]}}\n",
        environment_json(),
        sections.join(",\n")
    );
    json::parse(&ledger).map_err(|e| format!("ledger does not parse: {e}"))?;
    write_file(out, &ledger)?;
    println!("# ledger written to {}", out.display());
    Ok(())
}

/// How two runs of one metric compare against the metric's bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    /// The medians agree, but the spread within a run is wider than the
    /// bound: a difference of the bound's size could not be told from noise.
    Unresolved,
    Disagree,
}

/// `a` and `b` are the two runs' values; `iqr` the wider of the two runs'
/// inter-quartile ranges as a share of the median. Neither run is "the
/// change", so a difference in either direction counts.
pub fn verdict(a: f64, b: f64, iqr: f64, clock: Clock, bound: f64) -> Verdict {
    if clock == Clock::Virtual {
        // Same seed, same code: the virtual clock must not move at all.
        return if a == b {
            Verdict::Agree
        } else {
            Verdict::Disagree
        };
    }
    if ((b - a) / a).abs() > bound {
        Verdict::Disagree
    } else if iqr > bound {
        Verdict::Unresolved
    } else {
        Verdict::Agree
    }
}

/// The end-to-end section twice on the same binary, second pass in reverse
/// workload order; fails unless every metric agrees within its own bound.
pub fn selfcheck(seed: u64, seconds: u64) -> Result<(), String> {
    let mut first = Vec::new();
    for w in &WORKLOADS {
        first.push(read_detail(&child(w, seed, seconds, false, ".a")?)?);
    }
    let mut second = Vec::new();
    for w in WORKLOADS.iter().rev() {
        second.push(read_detail(&child(w, seed, seconds, false, ".b")?)?);
    }
    second.reverse();

    println!("## selfcheck: two runs of the same binary, seed {seed}, {seconds} s windows");
    println!(
        "{:<12} {:<20} {:>16} {:>16} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "run A", "run B", "diff %", "IQR %", "bound %"
    );
    let mut disagreements = 0;
    for ((w, a), b) in WORKLOADS.iter().zip(&first).zip(&second) {
        for d in &END_TO_END {
            let (va, vb) = (num(a, d.name, "value")?, num(b, d.name, "value")?);
            let iqr = iqr_share(a, d.name)?.max(iqr_share(b, d.name)?);
            let bound = d.bound.unwrap_or(0.0);
            let v = verdict(va, vb, iqr, d.clock, bound);
            if v == Verdict::Disagree {
                disagreements += 1;
            }
            println!(
                "{:<12} {:<20} {:>16.4} {:>16.4} {:>8.2} {:>8.2} {:>7.1}  {}",
                w.name,
                d.name,
                va,
                vb,
                (vb - va) / va * 100.0,
                iqr * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Agree => "agree",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Disagree => "DISAGREE",
                }
            );
        }
        for r in [a, b] {
            if r.get("failed").and_then(Value::as_f64) != Some(0.0) {
                return Err(format!("{}: a job failed", w.name));
            }
        }
    }
    println!(
        "# IQR % is the spread of the samples inside one run (jobs, or set-up rounds); \
         'unresolved' marks a metric whose single samples spread wider than its bound"
    );
    if disagreements > 0 {
        return Err(format!(
            "{disagreements} metric(s) disagree between two runs of the same code"
        ));
    }
    Ok(())
}

/// `--out` default of ledger mode.
pub fn default_out() -> PathBuf {
    artefact_dir().join("ledger.json")
}

/// A short usage text naming every workload.
pub fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage:\n  perf-ledger --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out FILE]\n  \
         perf-ledger [--seed <n>] [--seconds <s>] [--selfcheck] [--out FILE]\n\
         The first form runs one section of one workload and ends with one JSON line; the second \
         runs every workload in child processes and writes {}.",
        names.join("|"),
        quote(&default_out().display().to_string())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_the_spread_and_the_clock() {
        use Clock::{Virtual, Wall};
        assert_eq!(verdict(100.0, 97.0, 0.01, Wall, 0.05), Verdict::Agree);
        assert_eq!(verdict(100.0, 94.0, 0.01, Wall, 0.05), Verdict::Disagree);
        assert_eq!(verdict(100.0, 106.0, 0.01, Wall, 0.05), Verdict::Disagree);
        assert_eq!(verdict(1.0, 1.2, 0.01, Wall, 0.15), Verdict::Disagree);
        assert_eq!(verdict(100.0, 99.0, 0.09, Wall, 0.05), Verdict::Unresolved);
        assert_eq!(verdict(5.0, 5.0, 0.0, Virtual, 0.03), Verdict::Agree);
        assert_eq!(
            verdict(5.0, 5.000001, 0.0, Virtual, 0.03),
            Verdict::Disagree
        );
    }
}
