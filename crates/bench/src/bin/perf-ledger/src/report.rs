//! What one run prints and writes: a table of every metric by name, the
//! cost-model reconciliation, the one-line result the driver reads, and
//! the detail file the ledger mode collects.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use slash_core::CostModel;

use crate::catalog::Measured;
use crate::e2e::Tally;
use crate::json::quote;

/// Where run artefacts go: under the cargo target directory, which the
/// repository's `.gitignore` already covers.
pub fn artefact_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("perf-ledger")
}

/// Write `text` to `path`, creating its directory.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every metric by name with unit, clock, sample count, median, quartiles,
/// MAD, and the inter-quartile range beside the bound (a bound tighter
/// than the spread of the samples cannot be resolved by one of them).
pub fn print_table(title: &str, metrics: &[Measured]) {
    println!("## {title}");
    println!(
        "{:<36} {:>6} {:<11} {:>5} {:>16} {:>16} {:>16} {:>12} {:>7} {:>8}",
        "metric", "unit", "clock", "n", "median", "q1", "q3", "mad", "IQR %", "bound %"
    );
    for m in metrics {
        let s = &m.summary;
        println!(
            "{:<36} {:>6} {:<11} {:>5} {:>16.4} {:>16.4} {:>16.4} {:>12.4} {:>7.2} {:>8}",
            m.def.name,
            m.def.unit,
            m.def.clock.label(),
            s.n,
            s.median,
            s.q1,
            s.q3,
            s.mad,
            s.iqr_share() * 100.0,
            m.def
                .bound
                .map_or("-".to_string(), |b| format!("{:.1}", b * 100.0)),
        );
    }
}

/// Each cost-model constant that models a probed operation beside the
/// probe's measured time. Report only: nothing is gated and no constant is
/// changed here.
pub fn print_reconciliation(probes: &[Measured]) {
    let cost = CostModel::default();
    let rows = [
        ("rmw_base_ns", cost.rmw_base_ns, "state.rmw_hot_ns"),
        ("append_base_ns", cost.append_base_ns, "state.lss_append_ns"),
        (
            "combine_hit_ns",
            cost.combine_hit_ns,
            "state.combiner_fold_ns",
        ),
        (
            "merge_entry_ns",
            cost.merge_entry_ns,
            "state.epoch_merge_entry_ns",
        ),
        ("queue_op_ns", cost.queue_op_ns, "net.spsc_msg_ns"),
        (
            "poll_empty_ns",
            cost.poll_empty_ns,
            "net.rdma_chan_empty_poll_ns",
        ),
        ("post_wr_ns", cost.post_wr_ns, "rdma.write_post_poll_ns"),
    ];
    println!("## cost model beside the probes (report only, no gate)");
    println!(
        "{:<16} {:>10} {:<30} {:>12} {:>16}",
        "CostModel", "model ns", "probe", "measured ns", "measured/model"
    );
    for (constant, model, probe) in rows {
        let Some(m) = probes.iter().find(|m| m.def.name == probe) else {
            continue;
        };
        println!(
            "{:<16} {:>10.1} {:<30} {:>12.2} {:>16.2}",
            constant,
            model,
            probe,
            m.summary.median,
            m.summary.median / model
        );
    }
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric a value and a unit.
pub fn result_line(tally: &Tally, metrics: &[Measured]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            quote(m.def.name),
            m.summary.median,
            quote(m.def.unit)
        );
    }
    out.push_str("}}");
    out
}

fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the numbers were taken, as JSON object members.
pub fn environment_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "\"nproc\": {nproc}, \"rustc\": {}, \"commit\": {}",
        quote(&tool_output("rustc", &["--version"])),
        quote(&tool_output("git", &["rev-parse", "HEAD"])),
    )
}

/// The detail file of one run: the result line's content plus, per metric,
/// its clock, direction, bound, sample count, quartiles and MAD.
pub fn detail_json(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    tally: &Tally,
    metrics: &[Measured],
) -> String {
    let mut out = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, {},\n \
         \"load_model\": \"closed loop: one job at a time over a fixed input, back to back, at most nproc engine threads\",\n \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{\n",
        quote(workload),
        u8::from(trace),
        environment_json(),
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let s = &m.summary;
        let bound = m.def.bound.map_or("null".to_string(), |b| b.to_string());
        let _ = write!(
            out,
            "  {}: {{\"value\": {}, \"unit\": {}, \"clock\": {}, \"better\": {}, \"bound\": {bound}, \
             \"n\": {}, \"q1\": {}, \"q3\": {}, \"mad\": {}}}",
            quote(m.def.name),
            s.median,
            quote(m.def.unit),
            quote(m.def.clock.label()),
            quote(m.def.better.label()),
            s.n,
            s.q1,
            s.q3,
            s.mad
        );
        out.push_str(if i + 1 < metrics.len() { ",\n" } else { "\n" });
    }
    out.push_str(" }}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{measured, END_TO_END};
    use crate::json::{self, Value};
    use crate::stats::Summary;

    fn sample() -> (Tally, Vec<Measured>) {
        let tally = Tally {
            attempted: 12,
            failed: 0,
        };
        let metrics = vec![
            measured(
                &END_TO_END,
                "wall_records_per_s",
                Summary::of(&[3.0e6, 3.1e6, 3.3e6]),
            ),
            measured(&END_TO_END, "setup_s", Summary::single(0.8127)),
        ];
        (tally, metrics)
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let (tally, metrics) = sample();
        let line = result_line(&tally, &metrics);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).expect("result line parses");
        let keys: Vec<&str> = v
            .as_obj()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(12.0));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(m.as_obj().map(|o| o.len()), Some(2));
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(0.8127));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn detail_file_parses_and_carries_the_spread() {
        let (tally, metrics) = sample();
        let v = json::parse(&detail_json("wide_thr2", 7, 15.0, false, &tally, &metrics))
            .expect("detail parses");
        assert_eq!(v.get("workload").and_then(Value::as_str), Some("wide_thr2"));
        assert!(v.get("nproc").and_then(Value::as_f64).is_some());
        let m = v
            .get("metrics")
            .and_then(|m| m.get("wall_records_per_s"))
            .expect("metric");
        assert_eq!(m.get("n").and_then(Value::as_f64), Some(3.0));
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(3.1e6));
        assert_eq!(m.get("bound").and_then(Value::as_f64), Some(0.25));
        assert_eq!(m.get("clock").and_then(Value::as_str), Some("host wall"));
    }
}
