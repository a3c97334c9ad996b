//! `latency-bench` — deterministic tail-latency attribution and SLO gate.
//!
//! Runs ysb and nb7 on the virtual cluster with full observability and
//! reports per-stage latency quantiles (p50/p99/p99.9/p99.99) for every
//! record-lifecycle stage, plus the per-key heat top-k. Everything is
//! virtual time from the deterministic simulator: same seed, same bytes —
//! the emitted JSON can be `cmp`'d against the checked-in baseline.
//!
//! ```text
//! latency-bench                          # run, write BENCH_latency.json
//! latency-bench --out FILE               # JSON destination
//! latency-bench --slo SLO.toml           # enforce tail budgets (exit 1 on breach)
//! latency-bench --baseline FILE          # regression gate vs a previous JSON
//! latency-bench --plant ssb_apply=10     # inflate a stage's cost knobs (CI self-test)
//! latency-bench --records N              # records per partition
//! ```
//!
//! On a budget breach or regression the tool captures a flight-recorder
//! dump from the breaching run (last trace events, schedule context, and
//! the full registry snapshot with the per-stage breakdown) and prints it
//! before exiting non-zero — a breach report is self-contained.

use slash_core::{RunConfig, SlashCluster};
use slash_obs::{Histogram, Obs, Stage, STAGE_HIST};
use slash_workloads::{nb7, ysb, GenConfig, Workload};

const NODES: usize = 2;
const WORKERS: usize = 2;

/// Quantiles reported per stage: `(q, json key, SLO.toml key suffix)`.
const QS: [(f64, &str, &str); 4] = [
    (0.5, "p50", "p50"),
    (0.99, "p99", "p99"),
    (0.999, "p99.9", "p99_9"),
    (0.9999, "p99.99", "p99_99"),
];

/// One reported row: a stage (or the end-to-end total) of one workload.
struct Row {
    workload: &'static str,
    stage: String,
    record_path: bool,
    count: u64,
    mean: u64,
    q: [u64; 4],
    max: u64,
}

impl Row {
    fn from_hist(workload: &'static str, stage: &str, record_path: bool, h: &Histogram) -> Row {
        let mut q = [0u64; 4];
        for (i, (quant, _, _)) in QS.iter().enumerate() {
            q[i] = h.quantile(*quant).unwrap_or(0);
        }
        Row {
            workload,
            stage: stage.to_string(),
            record_path,
            count: h.count(),
            mean: h.mean().unwrap_or(0),
            q,
            max: h.max().unwrap_or(0),
        }
    }

    /// Value for an SLO key suffix (`p50`, `p99`, `p99_9`, `p99_99`).
    fn value_of(&self, suffix: &str) -> Option<u64> {
        QS.iter()
            .position(|(_, _, s)| *s == suffix)
            .map(|i| self.q[i])
    }
}

/// One heat-sketch row: a top-k entry of one node's key sketch.
struct HeatRow {
    workload: &'static str,
    label: String,
    rank: usize,
    key: u64,
    count: u64,
    err: u64,
}

/// Results of one workload run, with its obs handle kept alive so a gate
/// failure can capture a flight-recorder dump from the breaching run.
struct WlRun {
    name: &'static str,
    obs: Obs,
    rows: Vec<Row>,
    heat: Vec<HeatRow>,
}

fn run_workload(w: &Workload, records: u64, plant: Option<&(String, f64)>) -> WlRun {
    let mut cfg = RunConfig::new(NODES, WORKERS);
    // Small epochs so the merge/close stages see real traffic at bench
    // scale (the default 64 MB would never close mid-run here).
    cfg.epoch_bytes = 1024 * 1024;
    if let Some((stage, factor)) = plant {
        apply_plant(&mut cfg, stage, *factor);
    }
    let obs = Obs::enabled(4096);
    let report = SlashCluster::run_with_obs(w.plan.clone(), w.partitions.clone(), cfg, obs.clone());
    assert_eq!(report.records, records * (NODES * WORKERS) as u64);

    let mut rows = Vec::new();
    let mut heat = Vec::new();
    obs.with_registry(|reg| {
        // End-to-end record latency, merged across node labels.
        let mut e2e = Histogram::new();
        for (name, _, h) in reg.hists() {
            if name == "record_latency_ns" {
                e2e.merge(h);
            }
        }
        rows.push(Row::from_hist(w.name, "end_to_end", true, &e2e));
        for stage in Stage::ALL {
            if let Some(h) = reg.hist(STAGE_HIST, stage.name()) {
                if h.count() > 0 {
                    rows.push(Row::from_hist(
                        w.name,
                        stage.name(),
                        stage.on_record_path(),
                        h,
                    ));
                }
            }
        }
        for (name, label, sketch) in reg.heats() {
            if name == "key_heat" {
                for (rank, e) in sketch.top(8).into_iter().enumerate() {
                    heat.push(HeatRow {
                        workload: w.name,
                        label: label.to_string(),
                        rank,
                        key: e.key,
                        count: e.count,
                        err: e.err,
                    });
                }
            }
        }
    });
    WlRun {
        name: w.name,
        obs,
        rows,
        heat,
    }
}

/// Inflate the cost-model knobs that feed one attribution stage — the CI
/// self-test plants a regression here and asserts the gate catches it.
fn apply_plant(cfg: &mut RunConfig, stage: &str, factor: f64) {
    match stage {
        "source" => {
            cfg.cost.record_pipeline_ns *= factor;
            cfg.cost.task_queue_ns *= factor;
            cfg.cost.source_per_byte_ns *= factor;
        }
        "ssb_apply" => {
            cfg.cost.rmw_base_ns *= factor;
            cfg.cost.append_base_ns *= factor;
            cfg.cost.combine_hit_ns *= factor;
        }
        "epoch_merge" => {
            cfg.cost.merge_entry_ns *= factor;
            cfg.cost.post_wr_ns *= factor;
        }
        other => {
            eprintln!("error: --plant supports source|ssb_apply|epoch_merge, got {other}");
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------------
// SLO.toml — hand-rolled parser for the subset the gate uses.
// ---------------------------------------------------------------------

/// Parsed SLO spec: a global regression factor plus per-workload budgets
/// keyed `(workload, "stage_quantile")` in nanoseconds.
struct Slo {
    regression_factor: f64,
    budgets: Vec<(String, String, u64)>,
}

fn parse_slo(path: &str) -> Slo {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: could not read {path}: {e}");
            std::process::exit(2);
        }
    };
    let mut slo = Slo {
        regression_factor: 1.5,
        budgets: Vec::new(),
    };
    let mut section = String::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = name.trim().to_string();
            continue;
        }
        // `[rescale]` budgets belong to the `repro rescale` gate, not to
        // this tool's per-stage quantiles.
        if section == "rescale" {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            eprintln!(
                "error: {path}:{}: expected `key = value`, got {line:?}",
                ln + 1
            );
            std::process::exit(2);
        };
        let (key, value) = (key.trim(), value.trim());
        if section.is_empty() && key == "regression_factor" {
            match value.parse::<f64>() {
                Ok(f) if f >= 1.0 => slo.regression_factor = f,
                _ => {
                    eprintln!("error: {path}:{}: bad regression_factor {value:?}", ln + 1);
                    std::process::exit(2);
                }
            }
            continue;
        }
        let Ok(ns) = value.parse::<u64>() else {
            eprintln!(
                "error: {path}:{}: budget must be integer ns, got {value:?}",
                ln + 1
            );
            std::process::exit(2);
        };
        if section.is_empty() {
            eprintln!(
                "error: {path}:{}: budget {key:?} outside a [workload] section",
                ln + 1
            );
            std::process::exit(2);
        }
        slo.budgets.push((section.clone(), key.to_string(), ns));
    }
    slo
}

// ---------------------------------------------------------------------
// Baseline JSON — reads back the flat rows this tool writes.
// ---------------------------------------------------------------------

/// Extract a string field from a single-line JSON row.
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// Extract an integer field from a single-line JSON row.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .ok()
}

/// Baseline quantiles per `(workload, stage)`, in [`QS`] order.
fn parse_baseline(path: &str) -> Vec<(String, String, [u64; 4])> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: could not read baseline {path}: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let (Some(wl), Some(stage)) = (json_str(line, "workload"), json_str(line, "stage")) else {
            continue;
        };
        let mut q = [0u64; 4];
        let mut ok = true;
        for (i, (_, key, _)) in QS.iter().enumerate() {
            match json_u64(line, key) {
                Some(v) => q[i] = v,
                None => ok = false,
            }
        }
        if ok {
            out.push((wl.to_string(), stage.to_string(), q));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

fn write_json(path: &str, runs: &[WlRun], records: u64, plant: Option<&(String, f64)>) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"latency-bench-v1\",\n");
    out.push_str(&format!("  \"records_per_partition\": {records},\n"));
    out.push_str(&format!("  \"nodes\": {NODES},\n"));
    out.push_str(&format!("  \"workers_per_node\": {WORKERS},\n"));
    match plant {
        Some((s, f)) => out.push_str(&format!("  \"plant\": \"{s}={f}\",\n")),
        None => out.push_str("  \"plant\": null,\n"),
    }
    out.push_str("  \"rows\": [\n");
    let total_rows: usize = runs.iter().map(|r| r.rows.len()).sum();
    let mut i = 0;
    for run in runs {
        for r in &run.rows {
            i += 1;
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"stage\": \"{}\", \"record_path\": {}, \
                 \"count\": {}, \"mean\": {}, \"p50\": {}, \"p99\": {}, \"p99.9\": {}, \
                 \"p99.99\": {}, \"max\": {}}}{}\n",
                r.workload,
                r.stage,
                r.record_path,
                r.count,
                r.mean,
                r.q[0],
                r.q[1],
                r.q[2],
                r.q[3],
                r.max,
                if i < total_rows { "," } else { "" }
            ));
        }
    }
    out.push_str("  ],\n  \"heat\": [\n");
    let total_heat: usize = runs.iter().map(|r| r.heat.len()).sum();
    let mut i = 0;
    for run in runs {
        for h in &run.heat {
            i += 1;
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"label\": \"{}\", \"rank\": {}, \
                 \"key\": {}, \"count\": {}, \"err\": {}}}{}\n",
                h.workload,
                h.label,
                h.rank,
                h.key,
                h.count,
                h.err,
                if i < total_heat { "," } else { "" }
            ));
        }
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, &out) {
        eprintln!("error: could not write {path}: {e}");
        std::process::exit(1);
    }
    out
}

fn print_table(runs: &[WlRun]) {
    for run in runs {
        println!(
            "{:<5} {:<16} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "query", "stage", "count", "mean", "p50", "p99", "p99.9", "p99.99", "max"
        );
        for r in &run.rows {
            println!(
                "{:<5} {:<16} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                r.workload, r.stage, r.count, r.mean, r.q[0], r.q[1], r.q[2], r.q[3], r.max
            );
        }
    }
}

fn main() {
    let mut out_path = String::from("BENCH_latency.json");
    let mut slo_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut plant: Option<(String, f64)> = None;
    let mut records = 100_000u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().unwrap_or(out_path),
            "--slo" => slo_path = args.next(),
            "--baseline" => baseline_path = args.next(),
            "--records" => records = args.next().and_then(|v| v.parse().ok()).unwrap_or(records),
            "--plant" => {
                let spec = args.next().unwrap_or_default();
                let Some((stage, factor)) = spec.split_once('=') else {
                    eprintln!("error: --plant expects STAGE=FACTOR, got {spec:?}");
                    std::process::exit(2);
                };
                let Ok(f) = factor.parse::<f64>() else {
                    eprintln!("error: bad --plant factor {factor:?}");
                    std::process::exit(2);
                };
                plant = Some((stage.to_string(), f));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: latency-bench [--out FILE] [--slo FILE] [--baseline FILE] \
                     [--plant STAGE=FACTOR] [--records N]"
                );
                std::process::exit(2);
            }
        }
    }

    println!(
        "latency-bench: ysb/nb7, {NODES} nodes x {WORKERS} workers, {records} records/partition{}",
        match &plant {
            Some((s, f)) => format!(", planted {s} x{f}"),
            None => String::new(),
        }
    );
    let gen = GenConfig::new(NODES * WORKERS, records);
    let runs = vec![
        run_workload(&ysb(&gen), records, plant.as_ref()),
        run_workload(&nb7(&gen), records, plant.as_ref()),
    ];
    print_table(&runs);
    write_json(&out_path, &runs, records, plant.as_ref());
    println!("  -> {out_path}");

    // ---------------- SLO gate ----------------
    let Some(slo_path) = slo_path else {
        return;
    };
    let slo = parse_slo(&slo_path);
    let mut breaches: Vec<(usize, String)> = Vec::new(); // (run index, message)

    for (wl, key, budget) in &slo.budgets {
        let Some(run_idx) = runs.iter().position(|r| r.name == wl) else {
            eprintln!("error: SLO budget for unknown workload {wl:?}");
            std::process::exit(2);
        };
        // Key is `{stage}_{quantile}`; quantile suffixes contain `_`, so
        // match against the known suffixes from the right.
        let Some((stage, suffix, value)) = QS.iter().find_map(|(_, _, s)| {
            let stage = key.strip_suffix(s)?.strip_suffix('_')?;
            let row = runs[run_idx].rows.iter().find(|r| r.stage == stage)?;
            Some((stage.to_string(), *s, row.value_of(s)?))
        }) else {
            eprintln!("error: SLO key {wl}.{key} names no reported stage/quantile");
            std::process::exit(2);
        };
        if value > *budget {
            breaches.push((
                run_idx,
                format!("{wl}.{stage} {suffix}={value}ns exceeds budget {budget}ns"),
            ));
        }
    }

    if let Some(bp) = &baseline_path {
        let baseline = parse_baseline(bp);
        for (run_idx, run) in runs.iter().enumerate() {
            for r in &run.rows {
                let Some((_, _, base)) = baseline
                    .iter()
                    .find(|(wl, st, _)| wl == r.workload && *st == r.stage)
                else {
                    continue; // new stage: no baseline yet
                };
                for (i, (_, key, _)) in QS.iter().enumerate() {
                    // Small absolute slack on top of the factor: single-ns
                    // baselines would otherwise flag ±1 rounding shifts.
                    let limit = (base[i] as f64 * slo.regression_factor) as u64 + 10;
                    if r.q[i] > limit {
                        breaches.push((
                            run_idx,
                            format!(
                                "{}.{} {key}={}ns regressed past {:.2}x baseline {}ns",
                                r.workload, r.stage, r.q[i], slo.regression_factor, base[i]
                            ),
                        ));
                    }
                }
            }
        }
    }

    if breaches.is_empty() {
        println!(
            "SLO gate: PASS ({} budgets from {slo_path}{})",
            slo.budgets.len(),
            match &baseline_path {
                Some(b) => format!(", baseline {b}"),
                None => String::new(),
            }
        );
        return;
    }

    // Breach: capture a flight-recorder dump per breaching run (the dump
    // carries the last trace events and the full registry snapshot with
    // the per-stage histograms) and print everything before failing.
    eprintln!("SLO gate: FAIL ({} breaches)", breaches.len());
    for (run_idx, run) in runs.iter().enumerate() {
        let msgs: Vec<&str> = breaches
            .iter()
            .filter(|(i, _)| *i == run_idx)
            .map(|(_, m)| m.as_str())
            .collect();
        if msgs.is_empty() {
            continue;
        }
        let stages: Vec<String> = run
            .rows
            .iter()
            .map(|r| format!("{}.p99.99={}ns", r.stage, r.q[3]))
            .collect();
        run.obs.record_failure(
            &format!("SLO breach: {}", run.name),
            &format!("{}; breakdown: {}", msgs.join("; "), stages.join(" ")),
        );
        for dump in run.obs.take_failures() {
            eprintln!("{}", dump.render());
        }
    }
    for (_, m) in &breaches {
        eprintln!("BREACH: {m}");
    }
    std::process::exit(1);
}
