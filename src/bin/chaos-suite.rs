//! `chaos-suite` — the CI fault-injection gate.
//!
//! Runs the YSB pipeline under fault tolerance with every built-in fault
//! type injected mid-run — node crash, link flap, link degradation,
//! delayed completions — plus seeded multi-fault plans over fixed seeds,
//! and requires each run to *recover and verify*: the processed-record
//! count, the per-window results digest, and every node's final
//! primary-state digest must match the same-seed no-fault run bit-exactly.
//! Crashes must additionally be detected and repaired by promotion.
//!
//! A second section runs the cascading-fault matrix: concurrent crashes on
//! distinct nodes, a crash whose designated checkpoint buddy is already
//! dead (single-copy shipping, forcing buddy re-selection), a crash aimed
//! mid-promotion (probed to virtual-time precision, requiring a promotion
//! restart), a crash under `workers_per_node = 2`, and a same-seed golden
//! determinism check over a three-crash cascade.
//!
//! Everything is virtual-time deterministic; exit 0 when every case
//! verifies, 1 otherwise.

use std::process::ExitCode;

use slash::chaos::{ChaosConfig, FaultPlan, FtConfig};
use slash::core::{RecoveryAction, RecoveryReport, RunConfig, RunReport, SlashCluster};
use slash::desim::SimTime;
use slash::workloads::{ysb, GenConfig};

const NODES: usize = 3;
const RECORDS_PER_PARTITION: u64 = 20_000;
/// Seeds for the multi-fault plans; fixed so CI is reproducible.
const SEEDS: [u64; 3] = [11, 23, 47];

fn run_with(
    nodes: usize,
    workers_per_node: usize,
    ckpt_copies: usize,
    plan: &FaultPlan,
) -> (RunReport, RecoveryReport) {
    let mut cfg = RunConfig::new(nodes, workers_per_node);
    cfg.collect_results = true;
    cfg.epoch_bytes = 16 * 1024;
    let w = ysb(&GenConfig::new(nodes * workers_per_node, RECORDS_PER_PARTITION));
    let chaos = ChaosConfig {
        plan: plan.clone(),
        ft: FtConfig {
            detect_timeout: SimTime::from_micros(300),
            ckpt_max_chunk: 16 * 1024,
            ckpt_copies,
        },
        pre_split: Vec::new(),
    };
    let out = SlashCluster::builder(w.plan, w.partitions, cfg)
        .chaos(&chaos)
        .run();
    (out.run, out.recovery)
}

fn run(plan: &FaultPlan) -> (RunReport, RecoveryReport) {
    run_with(NODES, 1, 2, plan)
}

/// One case: compare an already-run plan against its baseline, print a
/// verdict line. Returns whether the case verified.
fn case(
    name: &str,
    plan: &FaultPlan,
    out: &(RunReport, RecoveryReport),
    base: &(RunReport, RecoveryReport),
    require_promotion: bool,
) -> bool {
    let (report, rec) = out;
    let exact = report.records == base.0.records
        && rec.results_digest == base.1.results_digest
        && rec.state_digests == base.1.state_digests;
    let promoted = rec
        .events
        .iter()
        .any(|e| matches!(e.action, RecoveryAction::Promoted { .. }));
    let ok = exact && (!require_promotion || promoted);
    let ttr = rec
        .max_time_to_recover()
        .map(|t| format!("{:.1} us", t.as_nanos() as f64 / 1_000.0))
        .unwrap_or_else(|| "-".to_string());
    println!(
        "  {:<28} faults={} repaired={} ttr={:<10} exact={} {}",
        name,
        plan.events().len(),
        rec.events.len(),
        ttr,
        if exact { "yes" } else { "NO" },
        if ok { "PASS" } else { "FAIL" }
    );
    if !ok && require_promotion && !promoted {
        println!("    crash was never detected/promoted");
    }
    ok
}

/// The restart counter of node `victim`'s promotion, if it was promoted.
fn promotion_restarts(rec: &RecoveryReport, victim: usize) -> Option<u32> {
    rec.events.iter().find_map(|e| match e.action {
        RecoveryAction::Promoted { restarts, .. } if e.node == victim => Some(restarts),
        _ => None,
    })
}

/// The cascading-fault matrix: compound faults whose recovery paths
/// overlap. Each shape (node count, workers-per-node) gets its own
/// no-fault baseline; exactness is judged against that.
fn cascade_matrix(base3: &(RunReport, RecoveryReport)) -> bool {
    println!("cascade matrix:");
    let at = SimTime::from_micros(200);
    let mut ok = true;

    // Two nodes die on the same virtual nanosecond (4-node cluster).
    let base4 = run_with(4, 1, 2, &FaultPlan::new());
    let conc = FaultPlan::new().concurrent(at, &[1, 2]);
    ok &= case("concurrent-crash [1,2] (4n)", &conc, &run_with(4, 1, 2, &conc), &base4, true);

    // The victim's designated ring buddy dies first; with a single
    // checkpoint copy the shipper must re-select a buddy before the
    // owner's own crash lands.
    let buddy = FaultPlan::new()
        .crash(SimTime::from_micros(150), 2)
        .crash(SimTime::from_micros(900), 1);
    ok &= case(
        "buddy-dead (copies=1)",
        &buddy,
        &run_with(NODES, 1, 1, &buddy),
        base3,
        true,
    );

    // Crash aimed mid-promotion: probe a plain single-crash run for its
    // detection→commit span, then kill the in-flight promotion's host at
    // the midpoint. The promotion must restart (restarts >= 1).
    let probe = run(&FaultPlan::new().crash(at, 1));
    let probe_evt = probe
        .1
        .events
        .iter()
        .find_map(|e| match e.action {
            RecoveryAction::Promoted { host, .. } => {
                Some((host, e.detected_at, e.recovered_at))
            }
            _ => None,
        });
    match probe_evt {
        Some((host, detected, recovered)) => {
            let mid = SimTime::from_nanos((detected.as_nanos() + recovered.as_nanos()) / 2);
            let dr = FaultPlan::new().during_recovery(at, 1, mid - at, host);
            let out = run(&dr);
            let restarted = promotion_restarts(&out.1, 1).is_some_and(|r| r >= 1);
            ok &= case("crash-during-recovery", &dr, &out, base3, true);
            if !restarted {
                println!("    promotion was never interrupted/restarted");
                ok = false;
            }
        }
        None => {
            println!("  crash-during-recovery        probe promotion missing  FAIL");
            ok = false;
        }
    }

    // Crash with two worker partitions per node: promotion must resurrect
    // both of the dead node's partitions.
    let base_w2 = run_with(NODES, 2, 2, &FaultPlan::new());
    let crash = FaultPlan::new().crash(at, 1);
    ok &= case(
        "multi-worker (wpn=2)",
        &crash,
        &run_with(NODES, 2, 2, &crash),
        &base_w2,
        true,
    );

    // Golden determinism over a three-crash cascade: two same-seed runs
    // must agree on every count and digest.
    let casc = FaultPlan::new()
        .concurrent(at, &[1, 2])
        .crash(SimTime::from_micros(900), 3);
    let a = run_with(5, 1, 2, &casc);
    let b = run_with(5, 1, 2, &casc);
    let golden = a.0.records == b.0.records
        && a.1.state_digests == b.1.state_digests
        && a.1.results_digest == b.1.results_digest
        && a.1.events.len() == b.1.events.len();
    println!(
        "  {:<28} two same-seed runs {} {}",
        "cascade-golden x3 (5n)",
        if golden { "agree" } else { "DIVERGED" },
        if golden { "PASS" } else { "FAIL" }
    );
    ok &= golden;
    let base5 = run_with(5, 1, 2, &FaultPlan::new());
    ok &= case("cascade x3 (5n)", &casc, &a, &base5, true);

    ok
}

fn main() -> ExitCode {
    println!(
        "chaos-suite: YSB, {NODES} nodes, {RECORDS_PER_PARTITION} records/partition, \
         exactness vs the no-fault fault-tolerant baseline"
    );
    let base = run(&FaultPlan::new());
    if !base.1.events.is_empty() || base.1.checkpoints_durable == 0 {
        println!("  baseline unhealthy: events={}, durable ckpts={}", base.1.events.len(), base.1.checkpoints_durable);
        return ExitCode::FAILURE;
    }
    println!(
        "  baseline: {} records, {} durable checkpoints, completion {:.1} us",
        base.0.records,
        base.1.checkpoints_durable,
        base.0.completion_time.as_nanos() as f64 / 1_000.0
    );

    let at = SimTime::from_micros(200);
    let down = SimTime::from_micros(60);
    let extra = SimTime::from_micros(2);
    let span = SimTime::from_micros(120);
    let mut ok = true;
    let crash = FaultPlan::new().crash(at, 1);
    ok &= case("node-crash", &crash, &run(&crash), &base, true);
    let flap = FaultPlan::new().link_flap(at, 1, down);
    ok &= case("link-flap", &flap, &run(&flap), &base, false);
    let deg = FaultPlan::new().degrade(at, 1, extra, span);
    ok &= case("link-degrade", &deg, &run(&deg), &base, false);
    let delay = FaultPlan::new().delay_completions(at, 1, extra, span);
    ok &= case("delayed-completions", &delay, &run(&delay), &base, false);
    for seed in SEEDS {
        let plan = FaultPlan::seeded(seed, NODES, 3, SimTime::from_micros(500));
        ok &= case(&format!("seeded({seed}) x3"), &plan, &run(&plan), &base, false);
        let with_crash = plan.crash(SimTime::from_micros(250), 1);
        ok &= case(
            &format!("seeded({seed}) x3 + crash"),
            &with_crash,
            &run(&with_crash),
            &base,
            true,
        );
    }

    ok &= cascade_matrix(&base);

    if ok {
        println!("chaos-suite: PASS (every fault recovered to the no-fault state)");
        ExitCode::SUCCESS
    } else {
        println!("chaos-suite: FAIL");
        ExitCode::FAILURE
    }
}
