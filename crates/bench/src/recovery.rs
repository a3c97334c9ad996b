//! The recovery-latency experiment (`repro -- recovery`).
//!
//! For every built-in fault type — node crash, link flap, link
//! degradation, delayed completions — run YSB under fault tolerance with
//! exactly one fault injected mid-run, and compare against the same-seed
//! *no-fault* fault-tolerant baseline. Reported per fault:
//!
//! * **time-to-recover** — injection to repair completion, virtual time;
//! * **records lost** — processed-record delta vs the baseline (the paper's
//!   exactness story demands zero: epoch-aligned restore plus CRDT-idempotent
//!   delta replay neither drops nor double-counts);
//! * **exactness** — whether the per-window results digest *and* every
//!   node's final primary-state digest match the no-fault run bit-exactly.
//!
//! Fault times and detection timeouts are derived from the baseline's
//! completion time so the experiment stays meaningful across
//! `SLASH_RECORDS` scales; everything runs in virtual time and is fully
//! deterministic.

use slash_chaos::{ChaosConfig, FaultPlan, FtConfig};
use slash_core::{RecoveryAction, RecoveryReport, RunConfig, RunReport, SlashCluster};
use slash_desim::SimTime;
use slash_perfmodel::Table;
use slash_workloads::{ysb, GenConfig};

use crate::scale::Scale;

/// Logical nodes in the recovery experiment (one crashes).
const NODES: usize = 3;
/// The fault victim (a middle node: it both leads and helps partitions).
const VICTIM: usize = 1;

/// Outcome of one fault type vs the no-fault baseline.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    /// Kebab-case fault name (`node-crash`, `link-flap`, ...).
    pub fault: &'static str,
    /// When the fault was injected.
    pub injected_at: SimTime,
    /// Detection latency of the first repaired event (injection → stall
    /// noticed), if any fault was detected.
    pub detect_latency: Option<SimTime>,
    /// Worst-case injection → repair-complete latency.
    pub time_to_recover: Option<SimTime>,
    /// Human-readable summary of the repairs performed.
    pub action: String,
    /// Checkpoints that became durable during the run.
    pub checkpoints: u64,
    /// Records processed by this run.
    pub records: u64,
    /// Processed-record delta vs the no-fault baseline (exactness: 0).
    pub records_lost: i64,
    /// Results digest and all primary-state digests match the baseline.
    pub exact: bool,
    /// Completion time of the run (virtual).
    pub completion: SimTime,
}

/// Cluster shape of one run: node count, workers per node, checkpoint
/// copies. The compound-fault rows vary these; each shape gets its own
/// no-fault baseline for the exactness comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    nodes: usize,
    workers_per_node: usize,
    ckpt_copies: usize,
}

const BASE_SHAPE: Shape = Shape {
    nodes: NODES,
    workers_per_node: 1,
    ckpt_copies: 2,
};

fn run_config(scale: Scale, shape: Shape) -> (RunConfig, GenConfig) {
    let mut cfg = RunConfig::new(shape.nodes, shape.workers_per_node);
    cfg.collect_results = true;
    cfg.epoch_bytes = 16 * 1024;
    // One partition per worker; keep enough records that a mid-run fault
    // lands well before completion even at tiny scales.
    let gen = GenConfig::new(
        shape.nodes * shape.workers_per_node,
        scale.records.max(8_000),
    );
    (cfg, gen)
}

fn chaos_run(
    scale: Scale,
    shape: Shape,
    plan: &FaultPlan,
    detect_timeout: SimTime,
) -> (RunReport, RecoveryReport) {
    let (cfg, gen) = run_config(scale, shape);
    let w = ysb(&gen);
    let chaos = ChaosConfig {
        plan: plan.clone(),
        ft: FtConfig {
            detect_timeout,
            ckpt_max_chunk: 16 * 1024,
            ckpt_copies: shape.ckpt_copies,
        },
        pre_split: Vec::new(),
    };
    let out = SlashCluster::builder(w.plan, w.partitions, cfg)
        .chaos(&chaos)
        .run();
    (out.run, out.recovery)
}

fn describe(rec: &RecoveryReport) -> String {
    if rec.events.is_empty() {
        return "-".to_string();
    }
    let mut promoted = 0usize;
    let mut restarts = 0u32;
    let mut channels = 0usize;
    for e in &rec.events {
        match e.action {
            RecoveryAction::Promoted { restarts: r, .. } => {
                promoted += 1;
                restarts += r;
            }
            RecoveryAction::ChannelsReset { channels: c } => channels += c,
        }
    }
    let mut parts = Vec::new();
    if promoted > 0 && restarts > 0 {
        parts.push(format!("promote x{promoted} ({restarts} restart)"));
    } else if promoted > 0 {
        parts.push(format!("promote x{promoted}"));
    }
    if channels > 0 {
        parts.push(format!("reset {channels} ch"));
    }
    if parts.is_empty() {
        parts.push(format!("{} events", rec.events.len()));
    }
    parts.join(", ")
}

fn point(
    fault: &'static str,
    injected_at: SimTime,
    report: &RunReport,
    rec: &RecoveryReport,
    base_report: &RunReport,
    base_rec: &RecoveryReport,
) -> RecoveryPoint {
    let exact = rec.results_digest == base_rec.results_digest
        && rec.state_digests == base_rec.state_digests;
    RecoveryPoint {
        fault,
        injected_at,
        detect_latency: rec
            .events
            .first()
            .map(|e| e.detected_at - e.injected_at),
        time_to_recover: rec.max_time_to_recover(),
        action: describe(rec),
        checkpoints: rec.checkpoints_durable,
        records: report.records,
        records_lost: base_report.records as i64 - report.records as i64,
        exact,
        completion: report.completion_time,
    }
}

/// Run the experiment: the no-fault fault-tolerant baseline plus one run
/// per built-in fault type, all compared against the baseline for
/// exactness. Returns one point per run (baseline first).
pub fn run(scale: Scale) -> Vec<RecoveryPoint> {
    // Baseline pass 1: learn the completion time so fault times and the
    // detection timeout can be placed proportionally. The driver advances
    // in detection-timeout slices and reports completion rounded up to
    // one, so probe with a small timeout to keep the overshoot small.
    let probe_timeout = SimTime::from_micros(200);
    let (probe_report, _) = chaos_run(scale, BASE_SHAPE, &FaultPlan::new(), probe_timeout);
    let span = probe_report.completion_time;
    let inject_at = SimTime::from_nanos(span.as_nanos() * 2 / 5);
    let detect_timeout = SimTime::from_nanos((span.as_nanos() / 8).max(50_000));
    let flap_for = SimTime::from_nanos((span.as_nanos() / 16).max(10_000));
    let degrade_extra = SimTime::from_micros(2);
    let degrade_for = SimTime::from_nanos((span.as_nanos() / 8).max(20_000));

    // Baseline pass 2 with the final detection timeout: the exactness
    // reference every fault run is compared against.
    let (base_report, base_rec) = chaos_run(scale, BASE_SHAPE, &FaultPlan::new(), detect_timeout);

    let mut points = vec![point(
        "none (baseline)",
        SimTime::ZERO,
        &base_report,
        &base_rec,
        &base_report,
        &base_rec,
    )];

    let plans: Vec<(&'static str, FaultPlan)> = vec![
        ("node-crash", FaultPlan::new().crash(inject_at, VICTIM)),
        (
            "link-flap",
            FaultPlan::new().link_flap(inject_at, VICTIM, flap_for),
        ),
        (
            "link-degrade",
            FaultPlan::new().degrade(inject_at, VICTIM, degrade_extra, degrade_for),
        ),
        (
            "delayed-completions",
            FaultPlan::new().delay_completions(inject_at, VICTIM, degrade_extra, degrade_for),
        ),
    ];
    for (fault, plan) in plans {
        let (report, rec) = chaos_run(scale, BASE_SHAPE, &plan, detect_timeout);
        points.push(point(fault, inject_at, &report, &rec, &base_report, &base_rec));
    }

    // ---- Compound faults (cascading failures). Shapes that differ from
    // the base run get their own no-fault baseline for exactness.

    // Two nodes die on the same virtual nanosecond; four nodes so two
    // survivors remain to host both promotions.
    let shape4 = Shape {
        nodes: 4,
        ..BASE_SHAPE
    };
    let (b4_report, b4_rec) = chaos_run(scale, shape4, &FaultPlan::new(), detect_timeout);
    let conc = FaultPlan::new().concurrent(inject_at, &[1, 2]);
    let (report, rec) = chaos_run(scale, shape4, &conc, detect_timeout);
    points.push(point("concurrent-crash", inject_at, &report, &rec, &b4_report, &b4_rec));

    // The victim's designated ring buddy dies first. A single checkpoint
    // copy makes the buddy's death destroy the victim's only live copy,
    // forcing the shipper to re-select a buddy before the victim crashes.
    let shape1c = Shape {
        ckpt_copies: 1,
        ..BASE_SHAPE
    };
    let buddy_at = SimTime::from_nanos(span.as_nanos() / 5);
    let owner_at = SimTime::from_nanos(span.as_nanos() * 7 / 10);
    let buddy = FaultPlan::new().crash(buddy_at, 2).crash(owner_at, VICTIM);
    let (report, rec) = chaos_run(scale, shape1c, &buddy, detect_timeout);
    points.push(point("buddy-dead", buddy_at, &report, &rec, &base_report, &base_rec));

    // A crash aimed into the first crash's recovery window: probe the
    // single-crash run for its detection→commit span, then kill the
    // in-flight promotion's host at the midpoint (virtual-time precision).
    let (_, probe_rec) = chaos_run(
        scale,
        BASE_SHAPE,
        &FaultPlan::new().crash(inject_at, VICTIM),
        detect_timeout,
    );
    if let Some((host, mid)) = probe_rec.events.iter().find_map(|e| match e.action {
        RecoveryAction::Promoted { host, .. } => Some((
            host,
            SimTime::from_nanos((e.detected_at.as_nanos() + e.recovered_at.as_nanos()) / 2),
        )),
        _ => None,
    }) {
        let dr = FaultPlan::new().during_recovery(inject_at, VICTIM, mid - inject_at, host);
        let (report, rec) = chaos_run(scale, BASE_SHAPE, &dr, detect_timeout);
        points.push(point(
            "crash-during-recovery",
            inject_at,
            &report,
            &rec,
            &base_report,
            &base_rec,
        ));
    }

    // A crash with two worker partitions per node: promotion resurrects
    // both of the dead node's partitions.
    let shape_w2 = Shape {
        workers_per_node: 2,
        ..BASE_SHAPE
    };
    let (bw2_report, bw2_rec) = chaos_run(scale, shape_w2, &FaultPlan::new(), detect_timeout);
    let crash = FaultPlan::new().crash(inject_at, VICTIM);
    let (report, rec) = chaos_run(scale, shape_w2, &crash, detect_timeout);
    points.push(point(
        "multi-worker-crash",
        inject_at,
        &report,
        &rec,
        &bw2_report,
        &bw2_rec,
    ));

    points
}

fn us(t: SimTime) -> String {
    format!("{:.1}", t.as_nanos() as f64 / 1_000.0)
}

/// Render the recovery points as the experiment table.
pub fn table(points: &[RecoveryPoint]) -> Table {
    let mut t = Table::new(
        format!(
            "Recovery: time-to-recover and exactness per fault type \
             (YSB, {NODES} nodes, fault on node {VICTIM})"
        ),
        &[
            "fault",
            "inject us",
            "detect us",
            "recover us",
            "action",
            "ckpts",
            "records",
            "lost",
            "exact",
            "complete us",
        ],
    );
    for p in points {
        t.row(vec![
            p.fault.to_string(),
            if p.injected_at == SimTime::ZERO {
                "-".to_string()
            } else {
                us(p.injected_at)
            },
            p.detect_latency.map(us).unwrap_or_else(|| "-".to_string()),
            p.time_to_recover.map(us).unwrap_or_else(|| "-".to_string()),
            p.action.clone(),
            p.checkpoints.to_string(),
            p.records.to_string(),
            p.records_lost.to_string(),
            if p.exact { "yes" } else { "NO" }.to_string(),
            us(p.completion),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fault_type_recovers_exactly() {
        let points = run(Scale::tiny());
        assert_eq!(
            points.len(),
            9,
            "baseline + four fault types + four compound faults"
        );
        for p in &points {
            assert!(p.exact, "{} diverged from the no-fault run", p.fault);
            assert_eq!(p.records_lost, 0, "{} lost records", p.fault);
        }
        let crash = points.iter().find(|p| p.fault == "node-crash").unwrap();
        assert!(
            crash.time_to_recover.is_some_and(|t| t > SimTime::ZERO),
            "crash must be detected and repaired"
        );
        let during = points
            .iter()
            .find(|p| p.fault == "crash-during-recovery")
            .expect("probe promotion must exist so the aimed crash runs");
        assert!(
            during.action.contains("restart"),
            "mid-promotion crash must restart the promotion: {}",
            during.action
        );
    }
}
