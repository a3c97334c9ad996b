//! The recovery-latency experiment (`repro -- recovery`).
//!
//! For every built-in fault type — node crash, link flap, link
//! degradation, delayed completions — and four compound faults, run the
//! matching row of the fault matrix (`slash_verify::catalogue`) at the
//! bench's own size, with the fault injected mid-run. Reported per fault:
//!
//! * **time-to-recover** — injection to repair completion, virtual time;
//! * **records lost** — input records minus processed records (the paper's
//!   exactness story demands zero: epoch-aligned restore plus CRDT-idempotent
//!   delta replay neither drops nor double-counts);
//! * **exactness** — whether the run emitted exactly what a sequential
//!   fold of its input emits (`slash_verify::oracle`).
//!
//! Fault times and detection timeouts are derived from the no-fault run's
//! completion time so the experiment stays meaningful across
//! `SLASH_RECORDS` scales; everything runs in virtual time and is fully
//! deterministic.

use crate::report::Table;
use slash_core::{Outcome, RecoveryAction, RecoveryReport};
use slash_desim::{Sim, SimTime};
use slash_obs::Obs;
use slash_verify::catalogue::{case, Case, Faults, Size};
use slash_verify::oracle;

use crate::scale::Scale;

/// Logical nodes of the base rows (one crashes).
const NODES: usize = 3;
/// The fault victim (a middle node: it both leads and helps partitions).
const VICTIM: usize = 1;

/// The catalogue rows the experiment reports, in table order.
const ROWS: [&str; 8] = [
    "node-crash",
    "link-flap",
    "link-degrade",
    "delayed-completions",
    "concurrent-crash",
    "buddy-dead",
    "crash-during-recovery",
    "multi-worker-crash",
];

/// Outcome of one fault type.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    /// Kebab-case fault name (`node-crash`, `link-flap`, ...).
    pub fault: &'static str,
    /// When the (first) fault was injected.
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
    /// Input records minus processed records (exactness: 0).
    pub records_lost: i64,
    /// The emitted results equal the sequential fold of the input.
    pub exact: bool,
    /// Completion time of the run (virtual).
    pub completion: SimTime,
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

/// Run `case` under `faults` and judge it against the oracle.
fn point(case: &Case, faults: &Faults) -> (RecoveryPoint, Outcome) {
    let input = case.input();
    let (out, _) = case.run(&input, faults, None, Obs::disabled(), Sim::new());
    let expected = oracle::oracle(&input.plan, &input.partitions);
    let rec = &out.recovery;
    let point = RecoveryPoint {
        fault: case.name,
        injected_at: faults.plan.events().first().map_or(SimTime::ZERO, |e| e.at),
        detect_latency: rec.events.first().map(|e| e.detected_at - e.injected_at),
        time_to_recover: rec.max_time_to_recover(),
        action: describe(rec),
        checkpoints: rec.checkpoints_durable,
        records: out.run.records,
        records_lost: input.records as i64 - out.run.records as i64,
        exact: oracle::check(&expected, &out.run.results).is_ok(),
        completion: out.run.completion_time,
    };
    (point, out)
}

/// Run the experiment: the no-fault fault-tolerant baseline plus one run
/// per reported catalogue row. Returns one point per run (baseline first).
pub fn run(scale: Scale) -> Vec<RecoveryPoint> {
    // The bench's own size: full-speed cores, default batches, 16 KiB
    // epochs, and enough records that a mid-run fault lands well before
    // completion even at tiny scales.
    let sized = |name: &str, detect_timeout: SimTime| -> Case {
        let size = Size {
            records: scale.records.max(8_000),
            epoch_bytes: 16 * 1024,
            batch_records: 512,
            cpu_slowdown: 1.0,
            detect_timeout,
        };
        Case {
            size,
            ..case(name).expect("catalogue row")
        }
    };
    // Pass 1: learn the completion time so fault times and the detection
    // timeout can be placed proportionally. The driver advances in
    // detection-timeout slices and reports completion rounded up to one,
    // so probe with a small timeout to keep the overshoot small.
    let probe = sized(ROWS[0], SimTime::from_micros(200));
    let span = point(&probe, &Faults::default()).1.run.completion_time;
    let inject_at = SimTime::from_nanos(span.as_nanos() * 2 / 5);
    let detect_timeout = SimTime::from_nanos((span.as_nanos() / 8).max(50_000));

    // Pass 2 with the final detection timeout: the baseline row.
    let mut baseline = point(&sized(ROWS[0], detect_timeout), &Faults::default()).0;
    baseline.fault = "none (baseline)";
    let mut points = vec![baseline];
    for name in ROWS {
        let c = sized(name, detect_timeout);
        // Every row's explored fault lands at two fifths of the span,
        // except: the buddy's owner dies late (the buddy itself at a
        // fifth), and the promotion host dies at the midpoint of the
        // first crash's detection → commit span.
        let at = match name {
            "buddy-dead" => SimTime::from_nanos(span.as_nanos() * 7 / 10),
            "crash-during-recovery" => {
                let (_, first) = point(&c, &c.faults(span, None));
                let e = first
                    .recovery
                    .events
                    .first()
                    .expect("the first crash is repaired");
                SimTime::from_nanos((e.detected_at.as_nanos() + e.recovered_at.as_nanos()) / 2)
            }
            _ => inject_at,
        };
        points.push(point(&c, &c.faults(span, Some(at))).0);
    }
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
        assert_eq!(points.len(), 1 + ROWS.len(), "baseline + one point per row");
        for p in &points {
            assert!(p.exact, "{} diverged from the sequential fold", p.fault);
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
