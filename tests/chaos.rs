//! Chaos golden tests: fault injection and recovery must be exactly as
//! deterministic as the healthy engine. Two runs with the same seed and
//! the same [`FaultPlan`] share every virtual-time decision — injection,
//! detection, promotion, replay — so their exported traces must be
//! *byte-identical* and their post-recovery state digests equal. And a
//! crash–restore–replay run must converge to exactly the state of the
//! fault-free run: the CRDT merges plus epoch-id dedup make replayed
//! deltas idempotent, so recovery is exact, not best-effort.

use slash::chaos::{ChaosConfig, FaultPlan, FtConfig};
use slash::core::{RecoveryAction, RecoveryReport, RunConfig, RunReport, SlashCluster};
use slash::desim::SimTime;
use slash::obs::Obs;
use slash::workloads::{ysb, GenConfig};

const NODES: usize = 3;

fn run_config_n(nodes: usize, workers_per_node: usize) -> RunConfig {
    let mut cfg = RunConfig::new(nodes, workers_per_node);
    cfg.collect_results = true;
    cfg.epoch_bytes = 16 * 1024;
    cfg
}

fn chaos_config_copies(plan: FaultPlan, ckpt_copies: usize) -> ChaosConfig {
    ChaosConfig {
        plan,
        ft: FtConfig {
            detect_timeout: SimTime::from_micros(300),
            ckpt_max_chunk: 16 * 1024,
            ckpt_copies,
        },
        pre_split: Vec::new(),
    }
}

fn chaos_config(plan: FaultPlan) -> ChaosConfig {
    chaos_config_copies(plan, 2)
}

fn chaos_run_cfg(
    nodes: usize,
    workers_per_node: usize,
    chaos: &ChaosConfig,
    obs: Obs,
) -> (RunReport, RecoveryReport) {
    let w = ysb(&GenConfig::new(nodes * workers_per_node, 20_000));
    let out = SlashCluster::builder(w.plan, w.partitions, run_config_n(nodes, workers_per_node))
        .chaos(chaos)
        .obs(obs)
        .run();
    (out.run, out.recovery)
}

fn chaos_run(plan: &FaultPlan, obs: Obs) -> (RunReport, RecoveryReport) {
    chaos_run_cfg(NODES, 1, &chaos_config(plan.clone()), obs)
}

/// Collect the hosts of all `Promoted` events, keyed by crashed node.
fn promotions(rec: &RecoveryReport) -> Vec<(usize, usize, u32)> {
    rec.events
        .iter()
        .filter_map(|e| match e.action {
            RecoveryAction::Promoted { host, restarts } => Some((e.node, host, restarts)),
            RecoveryAction::ChannelsReset { .. } => None,
        })
        .collect()
}

/// Assert the faulted run converged bit-exactly to the reference run.
fn assert_exact(
    (report, rec): &(RunReport, RecoveryReport),
    (base, base_rec): &(RunReport, RecoveryReport),
) {
    assert_eq!(report.records, base.records, "records lost or duplicated");
    assert_eq!(
        rec.results_digest, base_rec.results_digest,
        "window results diverged from the no-fault run"
    );
    assert_eq!(
        rec.state_digests, base_rec.state_digests,
        "post-recovery state diverged from the no-fault run"
    );
}

#[test]
fn same_seed_same_fault_plan_is_byte_identical() {
    let plan = FaultPlan::new().crash(SimTime::from_micros(200), 1);
    let run = || {
        let obs = Obs::enabled(16_384);
        let (report, rec) = chaos_run(&plan, obs.clone());
        (obs.chrome_trace_json(), report.records, rec)
    };
    let (json_a, records_a, rec_a) = run();
    let (json_b, records_b, rec_b) = run();
    assert_eq!(records_a, records_b);
    assert_eq!(
        rec_a.state_digests, rec_b.state_digests,
        "post-recovery state digests must be identical"
    );
    assert_eq!(rec_a.results_digest, rec_b.results_digest);
    assert_eq!(rec_a.events.len(), rec_b.events.len());
    assert_eq!(json_a, json_b, "chaos trace must be byte-identical");
    // The outage window is visible in the trace: injected fault events and
    // the recovery span both ride the fault category.
    assert!(json_a.contains("\"cat\":\"fault\""), "fault events traced");
    assert!(json_a.contains("\"name\":\"recovery\""), "recovery span traced");
}

#[test]
fn seeded_fault_plans_are_reproducible() {
    let within = SimTime::from_millis(2);
    let a = FaultPlan::seeded(42, NODES, 4, within);
    let b = FaultPlan::seeded(42, NODES, 4, within);
    assert_eq!(a, b, "same seed must build the same plan");
    assert_eq!(a.digest(), b.digest());
    let c = FaultPlan::seeded(43, NODES, 4, within);
    assert_ne!(a.digest(), c.digest(), "different seeds must diverge");
    assert_eq!(a.events().len(), 4);
}

/// The epoch-convergence-style exactness check: crash a leader mid-run,
/// restore from the durable epoch-aligned checkpoint, replay deltas from
/// the surviving helpers — and end bit-exactly where the no-fault run
/// ends. Replayed epochs are deduplicated by id and merged through CRDTs,
/// so nothing is lost and nothing is double-counted.
#[test]
fn crash_restore_replay_converges_to_no_fault_state() {
    let (base_report, base_rec) = chaos_run(&FaultPlan::new(), Obs::disabled());
    assert!(base_rec.events.is_empty(), "no-fault baseline repairs nothing");
    assert!(base_rec.checkpoints_durable > 0, "checkpoints must ship");
    let crash_at = SimTime::from_micros(200);
    assert!(
        base_report.completion_time > crash_at,
        "fault must land mid-run, not after completion"
    );

    let plan = FaultPlan::new().crash(crash_at, 1);
    let (report, rec) = chaos_run(&plan, Obs::disabled());
    let promoted = rec
        .events
        .iter()
        .find(|e| matches!(e.action, RecoveryAction::Promoted { .. }))
        .expect("the crash must be detected and repaired by promotion");
    assert_eq!(promoted.fault, "node-crash");
    assert_eq!(promoted.node, 1);
    assert!(promoted.time_to_recover() > SimTime::ZERO);

    // Exactness: same records processed, same per-window results, same
    // final primary state on every logical node.
    assert_eq!(report.records, base_report.records, "records lost or duplicated");
    assert_eq!(
        rec.results_digest, base_rec.results_digest,
        "window results diverged from the no-fault run"
    );
    assert_eq!(
        rec.state_digests, base_rec.state_digests,
        "post-recovery state diverged from the no-fault run"
    );
}

// ---------------------------------------------------------------------------
// Cascading-fault matrix: compound faults must converge exactly too.
// ---------------------------------------------------------------------------

/// Two nodes die on the same virtual nanosecond in a 4-node cluster. Both
/// partitions must be promoted onto survivors — each promotion installing
/// retaining endpoints toward the *other* dead peer until that peer's own
/// promotion commits and swaps them out — and the result must still be
/// bit-exact against the fault-free run.
#[test]
fn concurrent_crashes_on_distinct_nodes_converge_exactly() {
    let nodes = 4;
    let base = chaos_run_cfg(nodes, 1, &chaos_config(FaultPlan::new()), Obs::disabled());
    let crash_at = SimTime::from_micros(200);
    assert!(base.0.completion_time > crash_at, "faults must land mid-run");

    let plan = FaultPlan::new().concurrent(crash_at, &[1, 2]);
    let out = chaos_run_cfg(nodes, 1, &chaos_config(plan), Obs::disabled());

    let promoted = promotions(&out.1);
    let victims: Vec<usize> = promoted.iter().map(|&(v, _, _)| v).collect();
    assert!(victims.contains(&1) && victims.contains(&2), "both crashed partitions promoted: {promoted:?}");
    for &(victim, host, _) in &promoted {
        assert!(host != 1 && host != 2, "node {victim} promoted onto dead host {host}");
    }
    assert_exact(&out, &base);
}

/// The crashed node's designated buddy is itself dead. With a single
/// checkpoint copy, node 1 ships to its ring buddy (node 2); crashing node
/// 2 first invalidates that copy, forcing the shipper to re-select a new
/// buddy (node 0) and re-ship — or recovery to fall back to an older
/// surviving copy. Either way node 1's later crash must still promote and
/// converge exactly.
#[test]
fn buddy_crash_forces_reselection_and_owner_crash_still_converges() {
    let base = chaos_run(&FaultPlan::new(), Obs::disabled());

    let plan = FaultPlan::new()
        .crash(SimTime::from_micros(150), 2)
        .crash(SimTime::from_micros(900), 1);
    let out = chaos_run_cfg(NODES, 1, &chaos_config_copies(plan, 1), Obs::disabled());

    let promoted = promotions(&out.1);
    let victims: Vec<usize> = promoted.iter().map(|&(v, _, _)| v).collect();
    assert!(victims.contains(&2), "buddy crash repaired: {promoted:?}");
    assert!(victims.contains(&1), "owner crash repaired: {promoted:?}");
    let (_, host1, _) = promoted.iter().find(|&&(v, _, _)| v == 1).unwrap();
    assert_eq!(*host1, 0, "node 1 must promote onto the only fully-alive node");
    assert_exact(&out, &base);
}

/// A second crash lands while the first promotion is mid-flight: the
/// promotion's restore/reconnect host dies under it. The state machine
/// must restart against a re-selected host and copy (surfaced in the
/// `restarts` counter) and the run must still converge exactly.
#[test]
fn crash_during_recovery_restarts_promotion_and_converges() {
    let base = chaos_run(&FaultPlan::new(), Obs::disabled());

    // Probe pass: time a plain single-crash promotion with this seed so
    // the second fault can be aimed mid-recovery with virtual-time
    // precision (determinism makes the probe exact, not approximate).
    let crash_at = SimTime::from_micros(200);
    let probe = chaos_run(&FaultPlan::new().crash(crash_at, 1), Obs::disabled());
    let evt = probe
        .1
        .events
        .iter()
        .find(|e| matches!(e.action, RecoveryAction::Promoted { .. }))
        .expect("probe promotion");
    let (_, probe_host, _) = promotions(&probe.1)[0];
    let midpoint = SimTime::from_nanos(
        (evt.detected_at.as_nanos() + evt.recovered_at.as_nanos()) / 2,
    );
    assert!(midpoint > crash_at);

    // Real pass: crash the in-flight promotion's host at the midpoint.
    let plan = FaultPlan::new().during_recovery(crash_at, 1, midpoint - crash_at, probe_host);
    let out = chaos_run(&plan, Obs::disabled());

    let promoted = promotions(&out.1);
    let (_, final_host, restarts) = *promoted
        .iter()
        .find(|&&(v, _, _)| v == 1)
        .expect("node 1 must still be promoted");
    assert!(restarts >= 1, "promotion must have been interrupted and restarted");
    assert_ne!(final_host, probe_host, "restart must re-select a live host");
    assert!(promoted.iter().any(|&(v, _, _)| v == probe_host), "second victim repaired too");
    assert_exact(&out, &base);
}

/// Crash under `workers_per_node = 2`: promotion must resurrect *both* of
/// the dead node's worker partitions, seek each source to its checkpointed
/// byte position, and re-establish every per-worker channel — exactness
/// over the union of both workers' streams.
#[test]
fn multi_worker_promotion_resurrects_all_partitions_exactly() {
    let wpn = 2;
    let base = chaos_run_cfg(NODES, wpn, &chaos_config(FaultPlan::new()), Obs::disabled());
    assert!(base.1.checkpoints_durable > 0);

    let plan = FaultPlan::new().crash(SimTime::from_micros(200), 1);
    let out = chaos_run_cfg(NODES, wpn, &chaos_config(plan), Obs::disabled());

    let promoted = promotions(&out.1);
    assert!(promoted.iter().any(|&(v, _, _)| v == 1), "crash repaired: {promoted:?}");
    assert_exact(&out, &base);
}

/// Golden determinism for compound plans: same seed + same cascading
/// fault plan ⇒ byte-identical traces and equal digests, exactly like the
/// single-fault golden test.
#[test]
fn compound_fault_plan_same_seed_is_byte_identical() {
    let nodes = 4;
    let plan = FaultPlan::new()
        .concurrent(SimTime::from_micros(200), &[1, 2])
        .crash(SimTime::from_micros(900), 3);
    let run = || {
        let obs = Obs::enabled(16_384);
        let out = chaos_run_cfg(nodes, 1, &chaos_config(plan.clone()), obs.clone());
        (obs.chrome_trace_json(), out)
    };
    let (json_a, out_a) = run();
    let (json_b, out_b) = run();
    assert_eq!(out_a.0.records, out_b.0.records);
    assert_eq!(out_a.1.state_digests, out_b.1.state_digests);
    assert_eq!(out_a.1.results_digest, out_b.1.results_digest);
    assert_eq!(out_a.1.events.len(), out_b.1.events.len());
    assert_eq!(json_a, json_b, "cascading-fault trace must be byte-identical");
}

// ---------------------------------------------------------------------------
// Planned-handoff × crash interactions (DESIGN.md §18 interaction matrix).
// ---------------------------------------------------------------------------

use slash::core::{ElasticConfig, MigrationCmd, RescaleReport, ScriptedDirector};

fn elastic_run(
    nodes: usize,
    hosts: usize,
    script: Vec<(SimTime, MigrationCmd)>,
    plan: FaultPlan,
) -> (RunReport, RecoveryReport, RescaleReport) {
    let w = ysb(&GenConfig::new(nodes, 60_000));
    let mut director = ScriptedDirector::new(script);
    let out = SlashCluster::builder(w.plan, w.partitions, run_config_n(nodes, 1))
        .chaos(&chaos_config(plan))
        .elastic(&ElasticConfig::packed(nodes, hosts), &mut director)
        .run();
    (out.run, out.recovery, out.rescale)
}

/// The migration target dies mid-handoff. The plan must abort (or fall
/// back to a self-reinstall on the source host), the source must keep
/// leadership — partition and records intact — and the run must still
/// converge bit-exactly to the no-fault elastic run. No promotion may
/// fire: nothing actually died that hosted a partition.
#[test]
fn target_crash_mid_handoff_aborts_without_loss() {
    let (base, base_rec, _) = elastic_run(4, 2, vec![], FaultPlan::new());
    let crash_at = SimTime::from_micros(500);
    assert!(base.completion_time > crash_at, "fault must land mid-run");

    // Partition 2 lives on host 0 in packed(4, 2); host 2 is parked.
    let script = vec![(
        SimTime::from_micros(400),
        MigrationCmd { partition: 2, to_host: 2 },
    )];
    let plan = FaultPlan::new().crash(crash_at, 2);
    let (report, rec, rescale) = elastic_run(4, 2, script, plan);

    let aborted: Vec<_> = rescale.migrations.iter().filter(|m| m.aborted).collect();
    assert_eq!(aborted.len(), 1, "handoff must abort: {:?}", rescale.migrations);
    assert_eq!(aborted[0].partition, 2);
    assert_eq!(
        aborted[0].to_host, aborted[0].from_host,
        "source keeps (or re-installs) leadership on the source host"
    );
    assert!(
        promotions(&rec).is_empty(),
        "a dead parked target must not trigger promotion: {:?}",
        rec.events
    );
    assert_eq!(report.records, base.records, "no record lost to the abort");
    assert_eq!(rec.results_digest, base_rec.results_digest);
    assert_eq!(rec.state_digests, base_rec.state_digests);
}

/// The migration *source* dies mid-handoff, killing both partitions it
/// hosts (packed topology). The handoff plan is void; the ordinary §15
/// crash machinery must take over — buddy promotion from durable copies
/// for both co-located partitions — and the run must still converge
/// exactly.
#[test]
fn source_crash_mid_handoff_falls_back_to_buddy_promotion() {
    let (base, base_rec, _) = elastic_run(4, 2, vec![], FaultPlan::new());
    let crash_at = SimTime::from_micros(500);
    assert!(base.completion_time > crash_at, "fault must land mid-run");

    // Partition 2's leadership is mid-flight from host 0 to parked host
    // 2 when host 0 (also hosting partition 0) dies.
    let script = vec![(
        SimTime::from_micros(400),
        MigrationCmd { partition: 2, to_host: 2 },
    )];
    let plan = FaultPlan::new().crash(crash_at, 0);
    let (report, rec, rescale) = elastic_run(4, 2, script, plan);

    assert!(
        rescale.migrations.iter().any(|m| m.partition == 2 && m.aborted),
        "the in-flight plan must be recorded as aborted: {:?}",
        rescale.migrations
    );
    let promoted: Vec<usize> = promotions(&rec).iter().map(|&(n, _, _)| n).collect();
    assert!(
        promoted.contains(&0) && promoted.contains(&2),
        "both co-located partitions must be promoted: {:?}",
        rec.events
    );
    assert_eq!(report.records, base.records, "exactly-once across the fallback");
    assert_eq!(rec.results_digest, base_rec.results_digest);
    assert_eq!(rec.state_digests, base_rec.state_digests);
}

/// Elastic golden determinism: the full stack — packed topology, a
/// scripted migration, a mid-run crash — replayed twice must be
/// byte-identical in every observable.
#[test]
fn elastic_chaos_runs_are_deterministic() {
    let go = || {
        let script = vec![(
            SimTime::from_micros(400),
            MigrationCmd { partition: 2, to_host: 2 },
        )];
        let plan = FaultPlan::new().crash(SimTime::from_micros(700), 1);
        let (report, rec, rescale) = elastic_run(4, 2, script, plan);
        (
            report.records,
            report.completion_time,
            rec.results_digest,
            rec.state_digests.clone(),
            rescale.migrations.len(),
            rescale.max_stall(),
            rescale.peak_hosts,
        )
    };
    assert_eq!(go(), go(), "same script + same faults => identical run");
}
