//! The elastic-rescaling experiment (`repro rescale`).
//!
//! A diurnal load curve drives an eight-partition YSB job packed onto
//! four hosts: calm, then a surge the packed cluster cannot serve, then
//! calm again. The [`ScaleController`] must spread
//! partitions onto the parked hosts during the surge (4 → 8) and pack
//! them back once the surge passes (8 → 4), all through live planned
//! handoffs — no crash, no restart.
//!
//! Reported (and gated by `repro rescale`, exit 1 on violation):
//!
//! * **records lost** — elastic vs static run of the same curve (must be 0);
//! * **exactness** — every input record processed and every window result
//!   equal to the sequential oracle's (placement is semantically invisible);
//! * **aborted migrations** — must be 0 in a fault-free run;
//! * **max cutover stall** — worst halt → commit span across migrations,
//!   bounded by the `[rescale] migration_stall_ns` budget in `SLO.toml`;
//! * **full diurnal shape** — peak hosts must reach [`PARTITIONS`] and the
//!   cluster must pack back to [`PACKED_HOSTS`] by completion.
//!
//! Completion times are reported, not gated: the calm tail makes both
//! runs release-bound at the end, so the static run pays for the surge in
//! *backlog* rather than completion time (the closed-loop controller test,
//! `tests/closed_loop.rs`, proves the completion payoff on a
//! surge-dominated curve).
//!
//! Everything runs in virtual time and is fully deterministic; the curve
//! is calibrated from an unpaced probe so the experiment stays meaningful
//! across `SLASH_RECORDS` scales.

use slash_core::chaos::{ChaosConfig, FaultPlan, FtConfig};
use slash_core::source::RateCurve;
use slash_core::{
    ControllerConfig, Decision, ElasticConfig, RescaleReport, RunConfig, RunReport,
    ScaleController, ScaleDirector, SlashCluster, StaticDirector,
};
use slash_desim::SimTime;
use slash_verify::oracle::{check, oracle};
use slash_workloads::{ysb, GenConfig, Workload};

use crate::report::Table;
use crate::scale::Scale;

/// Logical partitions (== provisioned fabric ports).
pub const PARTITIONS: usize = 8;
/// Hosts the job is packed onto outside the surge.
pub const PACKED_HOSTS: usize = 4;

/// Outcome of the diurnal rescale run vs its static reference.
#[derive(Debug, Clone)]
pub struct RescaleOutcome {
    /// Calibrated packed-cluster service rate (records/s, virtual).
    pub cluster_rps: f64,
    /// Records processed by the elastic run.
    pub records: u64,
    /// Processed-record delta vs the static run (exactness: 0).
    pub records_lost: i64,
    /// Every input record processed, and the results equal to the
    /// sequential oracle's.
    pub exact: bool,
    /// Committed migrations.
    pub migrations: usize,
    /// Aborted migrations (fault-free run: 0).
    pub aborted: usize,
    /// Scale-out / scale-in decisions taken by the controller.
    pub decisions_out: usize,
    /// Scale-in decisions taken by the controller.
    pub decisions_in: usize,
    /// Most hosts ever in use (target: [`PARTITIONS`]).
    pub peak_hosts: usize,
    /// Hosts in use when the run finished (target: [`PACKED_HOSTS`]).
    pub final_hosts: usize,
    /// Worst halt → commit cutover stall across migrations.
    pub max_stall: Option<SimTime>,
    /// Completion time of the static packed run under the same curve.
    pub static_completion: SimTime,
    /// Completion time of the controller-driven run.
    pub elastic_completion: SimTime,
}

fn chaos() -> ChaosConfig {
    ChaosConfig {
        plan: FaultPlan::new(),
        ft: FtConfig {
            detect_timeout: SimTime::from_micros(300),
            ckpt_max_chunk: 16 * 1024,
            ckpt_copies: 2,
        },
    }
}

fn elastic_run(
    w: &Workload,
    pacing: Option<RateCurve>,
    director: &mut dyn ScaleDirector,
) -> (RunReport, RescaleReport) {
    let mut cfg = RunConfig::new(PARTITIONS, 1);
    cfg.collect_results = true;
    cfg.epoch_bytes = 16 * 1024;
    cfg.pacing = pacing;
    let out = SlashCluster::builder(w.plan.clone(), w.partitions.clone(), cfg)
        .chaos(&chaos())
        .elastic(&ElasticConfig::packed(PARTITIONS, PACKED_HOSTS), director)
        .run();
    (out.run, out.rescale)
}

/// Run the experiment: probe-calibrate, then static and controller-driven
/// passes of the same diurnal curve.
pub fn run(scale: Scale) -> RescaleOutcome {
    // Keep enough records that the surge and the pack-in tail each span
    // several controller confirmation windows even at tiny scales.
    let records = scale.records.max(40_000);
    let w = ysb(&GenConfig::new(PARTITIONS, records));

    // Probe: unpaced packed run calibrates the cluster service rate.
    let (probe, _) = elastic_run(&w, None, &mut StaticDirector);
    let cluster_rps = probe.records as f64 * 1.0e9 / probe.completion_time.as_nanos() as f64;
    let host_rps = cluster_rps / PACKED_HOSTS as f64;

    // Diurnal curve per source: calm at 30% of packed capacity, a surge
    // at 2.6x that the packed cluster cannot serve but eight spread hosts
    // can, then a low tail at 15% for the pack-in phase. The surge end is
    // placed so ~75% of all records are released by then, leaving a calm
    // tail long enough for the controller to pack all the way back.
    let per_source = |frac: f64| (frac * cluster_rps / PARTITIONS as f64) as u64;
    let surge_at = SimTime::from_micros(400);
    let total = (records * PARTITIONS as u64) as f64;
    let calm_released = 0.30 * cluster_rps * surge_at.as_nanos() as f64 / 1.0e9;
    let surge_ns = ((0.75 * total - calm_released).max(0.0) / (2.6 * cluster_rps) * 1.0e9) as u64;
    let calm_at = surge_at + SimTime::from_nanos(surge_ns.max(1));
    let curve = RateCurve::new(&[
        (SimTime::ZERO, per_source(0.30)),
        (surge_at, per_source(2.60)),
        (calm_at, per_source(0.15)),
    ]);

    // Static reference: same curve, no controller.
    let (base, _) = elastic_run(&w, Some(curve), &mut StaticDirector);

    // One scale-out step spreads a full partition per parked host; the
    // pack-in side still drains one host per action.
    let mut ctl_cfg = ControllerConfig::new(PACKED_HOSTS, PARTITIONS, host_rps);
    ctl_cfg.cooldown = SimTime::from_micros(100);
    ctl_cfg.backlog_high = 20_000;
    ctl_cfg.step_partitions = PARTITIONS - PACKED_HOSTS;
    let mut controller = ScaleController::new(ctl_cfg);
    let (run, rescale) = elastic_run(&w, Some(curve), &mut controller);

    RescaleOutcome {
        cluster_rps,
        records: run.records,
        records_lost: base.records as i64 - run.records as i64,
        exact: run.records == w.records
            && check(&oracle(&w.plan, &w.partitions), &run.results).is_ok(),
        migrations: rescale.migrations.iter().filter(|m| !m.aborted).count(),
        aborted: rescale.aborted(),
        decisions_out: controller
            .decisions()
            .iter()
            .filter(|d| matches!(d, Decision::Out { .. }))
            .count(),
        decisions_in: controller
            .decisions()
            .iter()
            .filter(|d| matches!(d, Decision::In { .. }))
            .count(),
        peak_hosts: rescale.peak_hosts,
        final_hosts: rescale.final_hosts,
        max_stall: rescale.max_stall(),
        static_completion: base.completion_time,
        elastic_completion: run.completion_time,
    }
}

/// Parse the `[rescale] migration_stall_ns` budget out of `SLO.toml`
/// (same hand-rolled subset as the latency gate). Returns `None` when the
/// file or the key is absent.
pub fn stall_budget(path: &str) -> Option<SimTime> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut in_section = false;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            in_section = name.trim() == "rescale";
            continue;
        }
        if !in_section {
            continue;
        }
        if let Some((key, value)) = line.split_once('=') {
            if key.trim() == "migration_stall_ns" {
                return value.trim().parse().ok().map(SimTime::from_nanos);
            }
        }
    }
    None
}

/// Gate violations for `repro rescale` (empty = pass). The stall budget
/// is only enforced when `SLO.toml` provides one.
pub fn gate(o: &RescaleOutcome, budget: Option<SimTime>) -> Vec<String> {
    let mut v = Vec::new();
    if o.records_lost != 0 {
        v.push(format!("lost {} records vs the static run", o.records_lost));
    }
    if !o.exact {
        v.push("results disagree with the sequential oracle".to_string());
    }
    if o.aborted != 0 {
        v.push(format!(
            "{} migrations aborted in a fault-free run",
            o.aborted
        ));
    }
    if o.peak_hosts != PARTITIONS {
        v.push(format!(
            "surge did not spread to all {PARTITIONS} hosts (peak {})",
            o.peak_hosts
        ));
    }
    if o.final_hosts != PACKED_HOSTS {
        v.push(format!(
            "cluster did not pack back to {PACKED_HOSTS} hosts (final {})",
            o.final_hosts
        ));
    }
    if let (Some(stall), Some(budget)) = (o.max_stall, budget) {
        if stall > budget {
            v.push(format!(
                "max cutover stall {}ns exceeds budget {}ns",
                stall.as_nanos(),
                budget.as_nanos()
            ));
        }
    }
    v
}

fn us(t: SimTime) -> String {
    format!("{:.1}", t.as_nanos() as f64 / 1_000.0)
}

/// Render the outcome as the experiment table.
pub fn table(o: &RescaleOutcome) -> Table {
    let mut t = Table::new(
        format!(
            "Rescale: diurnal load, {PARTITIONS} partitions, \
             {PACKED_HOSTS} -> {} -> {} hosts",
            o.peak_hosts, o.final_hosts
        ),
        &["metric", "value"],
    );
    t.row(vec![
        "cluster rate (records/s)".into(),
        format!("{:.0}", o.cluster_rps),
    ]);
    t.row(vec!["records".into(), o.records.to_string()]);
    t.row(vec!["records lost".into(), o.records_lost.to_string()]);
    t.row(vec![
        "exact".into(),
        if o.exact { "yes" } else { "NO" }.into(),
    ]);
    t.row(vec![
        "migrations committed".into(),
        o.migrations.to_string(),
    ]);
    t.row(vec!["migrations aborted".into(), o.aborted.to_string()]);
    t.row(vec![
        "decisions out/in".into(),
        format!("{}/{}", o.decisions_out, o.decisions_in),
    ]);
    t.row(vec!["peak hosts".into(), o.peak_hosts.to_string()]);
    t.row(vec!["final hosts".into(), o.final_hosts.to_string()]);
    t.row(vec![
        "max cutover stall us".into(),
        o.max_stall.map(us).unwrap_or_else(|| "-".into()),
    ]);
    t.row(vec!["static completion us".into(), us(o.static_completion)]);
    t.row(vec![
        "elastic completion us".into(),
        us(o.elastic_completion),
    ]);
    t
}

/// Write the machine-readable report (`BENCH_rescale.json`).
pub fn write_json(o: &RescaleOutcome, path: &str) -> std::io::Result<()> {
    let stall = o.max_stall.map(|t| t.as_nanos()).unwrap_or(0);
    let json = format!(
        "{{\n  \"schema\": \"rescale-bench-v1\",\n  \"partitions\": {PARTITIONS},\n  \
         \"packed_hosts\": {PACKED_HOSTS},\n  \"records\": {},\n  \
         \"records_lost\": {},\n  \"exact\": {},\n  \"migrations\": {},\n  \
         \"aborted\": {},\n  \"decisions_out\": {},\n  \"decisions_in\": {},\n  \
         \"peak_hosts\": {},\n  \"final_hosts\": {},\n  \"max_stall_ns\": {stall},\n  \
         \"static_completion_ns\": {},\n  \"elastic_completion_ns\": {}\n}}\n",
        o.records,
        o.records_lost,
        o.exact,
        o.migrations,
        o.aborted,
        o.decisions_out,
        o.decisions_in,
        o.peak_hosts,
        o.final_hosts,
        o.static_completion.as_nanos(),
        o.elastic_completion.as_nanos(),
    );
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_rescale_passes_its_own_gate() {
        let o = run(Scale::tiny());
        let budget = Some(SimTime::from_millis(1));
        let violations = gate(&o, budget);
        assert!(violations.is_empty(), "{violations:?}\n{o:?}");
    }

    #[test]
    fn stall_budget_parses_the_rescale_section() {
        let dir = std::env::temp_dir().join("slash_rescale_slo_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("SLO.toml");
        std::fs::write(
            &path,
            "regression_factor = 1.5\n[ysb]\nend_to_end_p99_99 = 2400\n\
             [rescale]\n# worst halt -> commit span\nmigration_stall_ns = 750000\n",
        )
        .unwrap();
        assert_eq!(
            stall_budget(path.to_str().unwrap()),
            Some(SimTime::from_micros(750))
        );
        assert_eq!(stall_budget("/nonexistent/SLO.toml"), None);
    }
}
