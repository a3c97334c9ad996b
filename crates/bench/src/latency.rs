//! Tail-latency attribution and the SLO stage gate (`repro latency`).
//!
//! Runs ysb and nb7 on a fixed 2×2 virtual cluster (100,000 records per
//! partition, 1 MiB epochs, full observability) and reports per-stage
//! latency quantiles (p50/p99/p99.9/p99.99) for every record-lifecycle
//! stage, plus each node's per-key heat top-k. The scale ignores
//! `SLASH_WORKERS` / `SLASH_RECORDS`: everything is virtual time from the
//! deterministic simulator, so the report (`BENCH_latency.json`) is the
//! same bytes on every run and CI holds it to the checked-in file.
//!
//! Before the report is written, [`check`] holds each run to three
//! invariants: quantiles are monotone, record-path stage means sum to at
//! most the end-to-end mean, and heat ranks run from 0 with non-increasing
//! counts. [`gate`] then holds the quantiles to `SLO.toml`'s stage
//! budgets; a breaching run records a flight-recorder dump ([`dumps`]) with
//! the last trace events and the registry snapshot, so a breach report is
//! self-contained.

use slash_core::{RunConfig, SlashCluster};
use slash_obs::{Histogram, Obs, Stage, STAGE_HIST};
use slash_workloads::{nb7, ysb, GenConfig, Workload};

use crate::report::Table;

/// Nodes of the fixed cluster.
const NODES: usize = 2;
/// Workers per node.
const WORKERS: usize = 2;
/// Records per partition (one partition per worker).
const RECORDS: u64 = 100_000;

/// Quantiles reported per stage: `(q, json key, SLO.toml key suffix)`.
const QS: [(f64, &str, &str); 4] = [
    (0.5, "p50", "p50"),
    (0.99, "p99", "p99"),
    (0.999, "p99.9", "p99_9"),
    (0.9999, "p99.99", "p99_99"),
];

/// One reported row: a stage (or the end-to-end total) of one workload.
#[derive(Debug)]
struct Row {
    stage: String,
    /// On the record path: the mean counts toward the end-to-end mean.
    record_path: bool,
    count: u64,
    mean: u64,
    /// The [`QS`] quantiles, then the max.
    q: [u64; 5],
}

impl Row {
    fn from_hist(stage: &str, record_path: bool, h: &Histogram) -> Row {
        let [p50, p99, p999, p9999] = QS.map(|(quant, _, _)| h.quantile(quant).unwrap_or(0));
        Row {
            stage: stage.to_string(),
            record_path,
            count: h.count(),
            mean: h.mean().unwrap_or(0),
            q: [p50, p99, p999, p9999, h.max().unwrap_or(0)],
        }
    }
}

/// One heat-sketch row: a top-k entry of one node's key sketch.
#[derive(Debug)]
struct HeatRow {
    label: String,
    rank: usize,
    key: u64,
    count: u64,
    err: u64,
}

/// One workload's report, with its obs handle kept so a gate failure can
/// capture a flight-recorder dump from the breaching run.
pub struct WorkloadRun {
    name: &'static str,
    obs: Obs,
    /// End-to-end row first, then each stage that saw samples.
    rows: Vec<Row>,
    /// Heat top-k rows, node by node.
    heat: Vec<HeatRow>,
}

/// Run both workloads on the fixed cluster.
pub fn run() -> Vec<WorkloadRun> {
    run_with(|_| {})
}

/// [`run`], with `tune` applied to each run's config (tests inflate cost
/// knobs through it).
fn run_with(tune: impl Fn(&mut RunConfig)) -> Vec<WorkloadRun> {
    let gen = GenConfig::new(NODES * WORKERS, RECORDS);
    [ysb(&gen), nb7(&gen)]
        .iter()
        .map(|w| run_workload(w, &tune))
        .collect()
}

fn run_workload(w: &Workload, tune: &impl Fn(&mut RunConfig)) -> WorkloadRun {
    let mut cfg = RunConfig::new(NODES, WORKERS);
    // Small epochs so the merge/close stages see real traffic at bench
    // scale (the default 64 MB would never close mid-run here).
    cfg.epoch_bytes = 1024 * 1024;
    tune(&mut cfg);
    let obs = Obs::enabled(4096);
    let report = SlashCluster::run_with_obs(w.plan.clone(), w.partitions.clone(), cfg, obs.clone());
    assert_eq!(report.records, RECORDS * (NODES * WORKERS) as u64);

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
        rows.push(Row::from_hist("end_to_end", true, &e2e));
        for stage in Stage::ALL {
            if let Some(h) = reg.hist(STAGE_HIST, stage.name()) {
                if h.count() > 0 {
                    rows.push(Row::from_hist(stage.name(), stage.on_record_path(), h));
                }
            }
        }
        for (name, label, sketch) in reg.heats() {
            if name == "key_heat" {
                for (rank, e) in sketch.top(8).into_iter().enumerate() {
                    heat.push(HeatRow {
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
    WorkloadRun {
        name: w.name,
        obs,
        rows,
        heat,
    }
}

/// Hold each workload's report to its three invariants: every row's
/// quantiles are monotone (p50 ≤ p99 ≤ p99.9 ≤ p99.99 ≤ max); the
/// record-path stage means sum to at most the end-to-end mean (the stage
/// segments partition the worker's busy window, so attribution can never
/// exceed what it attributes; means compose linearly, quantiles would
/// not); and each node's heat ranks run 0, 1, 2, … with non-increasing
/// counts.
pub fn check(runs: &[WorkloadRun]) -> Result<(), String> {
    for run in runs {
        let (name, rows, heat) = (run.name, &run.rows, &run.heat);
        let Some(e2e) = rows.iter().find(|r| r.stage == "end_to_end") else {
            return Err(format!("{name}: no end_to_end row"));
        };
        if let Some(r) = rows.iter().find(|r| r.q.windows(2).any(|w| w[1] < w[0])) {
            return Err(format!(
                "{name}.{} quantiles not monotone: {:?} (p50, p99, p99.9, p99.99, max)",
                r.stage, r.q
            ));
        }
        let sum: u64 = rows
            .iter()
            .filter(|r| r.record_path && r.stage != "end_to_end")
            .map(|r| r.mean)
            .sum();
        // Each per-record value floors, so the sum can never exceed the
        // end-to-end mean; +1 absorbs the end-to-end mean's own final floor.
        if sum > e2e.mean + 1 {
            return Err(format!(
                "{name}: record-path stage means sum to {sum}ns > end-to-end mean {}ns",
                e2e.mean
            ));
        }
        for (i, h) in heat.iter().enumerate() {
            let (label, rank, count) = (&h.label, h.rank, h.count);
            let defect = match heat[..i].iter().rev().find(|p| p.label == h.label) {
                None if rank != 0 => format!("starts at rank {rank}, not 0"),
                Some(p) if rank != p.rank + 1 => format!("rank {rank} after {}", p.rank),
                Some(p) if count > p.count => format!("count {count} increases past {}", p.count),
                _ => continue,
            };
            return Err(format!("{name}: heat {label} {defect}"));
        }
    }
    Ok(())
}

/// Hold the runs to the stage budgets `(workload, "{stage}_{quantile}", ns)`
/// of `SLO.toml`. `Ok` lists the breaches as `(run index, message)`; `Err`
/// is a budget that names no reported workload, stage or quantile — a
/// broken spec, not a breach.
pub fn gate(
    runs: &[WorkloadRun],
    budgets: &[(String, String, u64)],
) -> Result<Vec<(usize, String)>, String> {
    let mut breaches = Vec::new();
    for (wl, key, budget) in budgets {
        let Some(run) = runs.iter().position(|r| r.name == wl) else {
            return Err(format!("SLO budget for unknown workload {wl:?}"));
        };
        // Key is `{stage}_{quantile}`; quantile suffixes contain `_`, so
        // match against the known suffixes from the right.
        let Some((stage, suffix, value)) = QS.iter().enumerate().find_map(|(i, (_, _, s))| {
            let stage = key.strip_suffix(s)?.strip_suffix('_')?;
            let row = runs[run].rows.iter().find(|r| r.stage == stage)?;
            Some((stage, *s, row.q[i]))
        }) else {
            return Err(format!(
                "SLO key {wl}.{key} names no reported stage/quantile"
            ));
        };
        if value > *budget {
            let msg = format!("{wl}.{stage} {suffix}={value}ns exceeds budget {budget}ns");
            breaches.push((run, msg));
        }
    }
    Ok(breaches)
}

/// Record a flight-recorder dump in each breaching run (its breaches plus
/// the run's p99.99 stage breakdown) and return the rendered dumps.
pub fn dumps(runs: &[WorkloadRun], breaches: &[(usize, String)]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let msgs: Vec<&str> = breaches
            .iter()
            .filter(|(r, _)| *r == i)
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
        out.extend(run.obs.take_failures().iter().map(|d| d.render()));
    }
    out
}

/// The quantile table, one row per (workload, stage), virtual ns.
pub fn table(runs: &[WorkloadRun]) -> Table {
    let mut t = Table::new(
        format!(
            "Tail latency: ysb/nb7, {NODES} nodes x {WORKERS} workers, \
             {RECORDS} records/partition (virtual ns)"
        ),
        &[
            "query", "stage", "count", "mean", "p50", "p99", "p99.9", "p99.99", "max",
        ],
    );
    for run in runs {
        for r in &run.rows {
            let mut cells = vec![run.name.to_string(), r.stage.clone()];
            cells.extend([r.count, r.mean].iter().chain(&r.q).map(u64::to_string));
            t.row(cells);
        }
    }
    t
}

/// Write the machine-readable report (`BENCH_latency.json`).
pub fn write_json(runs: &[WorkloadRun], path: &str) -> std::io::Result<()> {
    let (mut rows, mut heat) = (String::new(), String::new());
    for run in runs {
        let wl = run.name;
        for Row {
            stage,
            record_path,
            count,
            mean,
            q,
        } in &run.rows
        {
            let [p50, p99, p999, p9999, max] = q;
            rows += &format!(
                ",\n    {{\"workload\": \"{wl}\", \"stage\": \"{stage}\", \"record_path\": \
                 {record_path}, \"count\": {count}, \"mean\": {mean}, \"p50\": {p50}, \"p99\": \
                 {p99}, \"p99.9\": {p999}, \"p99.99\": {p9999}, \"max\": {max}}}"
            );
        }
        for HeatRow {
            label,
            rank,
            key,
            count,
            err,
        } in &run.heat
        {
            heat += &format!(
                ",\n    {{\"workload\": \"{wl}\", \"label\": \"{label}\", \"rank\": {rank}, \
                 \"key\": {key}, \"count\": {count}, \"err\": {err}}}"
            );
        }
    }
    // Each entry above starts with its separator; the first one's `,` goes.
    // `plant` stays in the schema, always null: planted regressions live
    // in the tests.
    let list = |s: String| format!("{}\n", s.get(1..).unwrap_or(""));
    let json = format!(
        "{{\n  \"schema\": \"latency-bench-v1\",\n  \"records_per_partition\": {RECORDS},\n  \
         \"nodes\": {NODES},\n  \"workers_per_node\": {WORKERS},\n  \"plant\": null,\n  \
         \"rows\": [{}  ],\n  \"heat\": [{}  ]\n}}\n",
        list(rows),
        list(heat)
    );
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo;

    fn checked_in_slo() -> slo::Slo {
        slo::read(concat!(env!("CARGO_MANIFEST_DIR"), "/../../SLO.toml")).unwrap()
    }

    /// Inflate the cost-model knobs that feed the `ssb_apply` stage.
    fn plant_ssb_apply(cfg: &mut RunConfig, factor: f64) {
        cfg.cost.rmw_base_ns *= factor;
        cfg.cost.append_base_ns *= factor;
        cfg.cost.combine_hit_ns *= factor;
    }

    /// Write the report to a scratch file named after the test and read it
    /// back.
    fn json(test: &str, runs: &[WorkloadRun]) -> String {
        let path = std::env::temp_dir().join(format!("slash_{test}_{}.json", std::process::id()));
        write_json(runs, path.to_str().unwrap()).unwrap();
        std::fs::read_to_string(&path).unwrap()
    }

    #[test]
    fn every_checked_in_budget_names_a_reported_stage_and_holds() {
        let runs = run();
        check(&runs).unwrap();
        // Every budget key names a stage and quantile its workload reports
        // (an `Err` here), and none is breached.
        let breaches = gate(&runs, &checked_in_slo().stage_budgets).unwrap();
        assert!(breaches.is_empty(), "{breaches:?}");
        for (wl, key) in [
            ("ysb", "no_such_stage_p99"),
            ("ysb", "source_p42"),
            ("q9", "source_p50"),
        ] {
            let budget = [(wl.to_string(), key.to_string(), 1)];
            assert!(gate(&runs, &budget).is_err(), "{wl}.{key}");
        }
        let checked_in = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_latency.json"
        ))
        .unwrap();
        assert!(
            json("latency_checked_in", &runs) == checked_in,
            "report moved: rerun `repro latency`"
        );
    }

    #[test]
    fn a_planted_ssb_apply_regression_breaches_with_a_flight_dump() {
        let runs = run_with(|cfg| plant_ssb_apply(cfg, 10.0));
        let breaches = gate(&runs, &checked_in_slo().stage_budgets).unwrap();
        assert!(
            breaches.iter().any(|(_, m)| m.contains(".ssb_apply ")),
            "{breaches:?}"
        );
        let dumps = dumps(&runs, &breaches);
        assert!(!dumps.is_empty());
        for d in &dumps {
            assert!(d.contains("flight-recorder dump"), "{d}");
            assert!(d.contains("registry snapshot"), "{d}");
        }
    }

    /// `check` on one workload's rows.
    fn check_one(rows: Vec<Row>, heat: Vec<HeatRow>) -> Result<(), String> {
        check(&[WorkloadRun {
            name: "ysb",
            obs: Obs::disabled(),
            rows,
            heat,
        }])
    }

    fn row(stage: &str, record_path: bool, mean: u64, q: [u64; 5]) -> Row {
        Row {
            stage: stage.into(),
            record_path,
            count: 10,
            mean,
            q,
        }
    }

    fn heat(label: &str, rank: usize, count: u64) -> HeatRow {
        HeatRow {
            label: label.into(),
            rank,
            key: 7,
            count,
            err: 0,
        }
    }

    fn e2e() -> Row {
        row("end_to_end", true, 20, [10, 20, 30, 40, 50])
    }

    #[test]
    fn check_accepts_a_consistent_report() {
        let rows = vec![
            e2e(),
            row("source", true, 6, [6, 6, 6, 6, 6]),
            row("ssb_apply", true, 10, [8, 12, 14, 16, 16]),
            // Off-record-path stages are excluded from the sum check.
            row("channel_transit", false, 9000, [1, 2, 3, 4, 5]),
        ];
        let heat = vec![
            heat("node0", 0, 100),
            heat("node0", 1, 100),
            heat("node1", 0, 7),
            // Interleaved labels: ranks continue per node.
            heat("node0", 2, 40),
        ];
        check_one(rows, heat).unwrap();
    }

    #[test]
    fn check_rejects_non_monotone_quantiles() {
        let err = check_one(
            vec![row("end_to_end", true, 20, [10, 9, 30, 40, 50])],
            vec![],
        );
        assert!(err.unwrap_err().contains("not monotone"));
        let err = check_one(vec![e2e(), row("source", true, 6, [6, 6, 6, 7, 6])], vec![]);
        assert!(err
            .unwrap_err()
            .contains("ysb.source quantiles not monotone"));
    }

    #[test]
    fn check_rejects_stage_sum_exceeding_end_to_end() {
        let rows = vec![
            e2e(),
            row("source", true, 15, [6, 6, 6, 6, 6]),
            row("ssb_apply", true, 15, [8, 12, 14, 16, 16]),
        ];
        let err = check_one(rows, vec![]).unwrap_err();
        assert!(err.contains("sum to 30ns"), "{err}");
    }

    #[test]
    fn check_rejects_heat_disorder() {
        for (heat, defect) in [
            (
                vec![heat("node0", 0, 10), heat("node0", 1, 11)],
                "increases",
            ),
            (
                vec![heat("node0", 0, 10), heat("node0", 2, 5)],
                "rank 2 after 0",
            ),
            (vec![heat("node1", 3, 5)], "not 0"),
        ] {
            let err = check_one(vec![e2e()], heat).unwrap_err();
            assert!(err.contains(defect), "{err}");
        }
    }

    #[test]
    fn check_rejects_empty_reports() {
        assert!(check_one(vec![], vec![]).is_err());
        assert!(check_one(vec![row("source", true, 6, [6, 6, 6, 6, 6])], vec![]).is_err());
    }

    #[test]
    fn an_empty_report_keeps_the_schema_layout() {
        let runs = [WorkloadRun {
            name: "ysb",
            obs: Obs::disabled(),
            rows: vec![],
            heat: vec![],
        }];
        assert!(
            json("latency_empty", &runs).ends_with("\"rows\": [\n  ],\n  \"heat\": [\n  ]\n}\n")
        );
    }
}
