//! Write-combining must be invisible in every output: for each of the
//! five evaluation workloads, a combiner-on run and a combiner-off run
//! must produce identical window results and bit-identical final SSB
//! state — healthy, and under fault injection.
//!
//! The combiner regroups per-record updates as `merge(state, fold(records
//! of an epoch))` and only engages for exactly-associative CRDTs, so
//! equality here is exact (`f64::to_bits`), not approximate. Emission
//! *order* may differ — counting a key once per epoch paces epochs
//! differently than per-record writes — so results are compared as sorted
//! multisets and state via the order-independent per-node digests.

use slash::chaos::{ChaosConfig, FaultPlan, FtConfig};
use slash::core::{RunConfig, RunReport, SinkResult, SlashCluster};
use slash::desim::SimTime;
use slash::obs::Obs;
use slash::workloads::{cm, nb11, nb7, nb8, ysb, ysb_hot, GenConfig, Workload};

const NODES: usize = 2;
const WORKERS: usize = 2;

fn run_config(combine: bool) -> RunConfig {
    let mut cfg = RunConfig::new(NODES, WORKERS);
    cfg.collect_results = true;
    cfg.epoch_bytes = 64 * 1024; // frequent epochs stress the flush path
    cfg.combine = combine;
    cfg
}

fn run(w: Workload, combine: bool) -> RunReport {
    SlashCluster::run(w.plan, w.partitions, run_config(combine))
}

/// Results as a sorted multiset, exact to the bit for aggregate values.
fn result_multiset(results: &[SinkResult]) -> Vec<(u64, u64, u64)> {
    let mut out: Vec<(u64, u64, u64)> = results
        .iter()
        .map(|r| match r {
            SinkResult::Agg {
                window_id,
                key,
                value,
            } => (*window_id, *key, value.to_bits()),
            SinkResult::Join {
                window_id,
                key,
                pairs,
            } => (*window_id, *key, *pairs),
        })
        .collect();
    out.sort_unstable();
    out
}

fn assert_on_off_equal(gen: impl Fn() -> Workload, name: &str) {
    let on = run(gen(), true);
    let off = run(gen(), false);
    assert_eq!(on.records, off.records, "{name}: records diverged");
    assert_eq!(
        result_multiset(&on.results),
        result_multiset(&off.results),
        "{name}: window results diverged between combiner on/off"
    );
    assert_eq!(
        on.state_digests, off.state_digests,
        "{name}: final SSB state diverged between combiner on/off"
    );
    assert_eq!(off.metrics.combiner_folds, 0, "{name}: off run must not fold");
}

#[test]
fn ysb_combiner_on_off_equivalent() {
    assert_on_off_equal(|| ysb(&GenConfig::new(NODES * WORKERS, 5_000)), "ysb");
}

/// "The combiner turned itself off" is read from telemetry: on reuse-free
/// `ysb` every worker's table trips the cold-stream probe at its 1,024th
/// survivor — one counter bump and one trace instant each — and on
/// `ysb_hot` none ever does.
#[test]
fn the_cold_stream_exit_is_a_counter_and_a_trace_instant() {
    let traced = |w: Workload| {
        let obs = Obs::enabled(1 << 16);
        let builder = SlashCluster::builder(w.plan, w.partitions, run_config(true));
        (builder.obs(obs.clone()).run().run, obs)
    };
    let (report, obs) = traced(ysb(&GenConfig::new(NODES * WORKERS, 5_000)));
    assert_eq!(report.metrics.combiner_off, (NODES * WORKERS) as u64);
    let exits: Vec<_> = obs.events().into_iter().filter(|e| e.name == "combiner_off").collect();
    let mut lanes: Vec<(u32, u32)> = exits.iter().map(|e| (e.pid, e.tid)).collect();
    lanes.sort_unstable();
    assert_eq!(lanes, [(0, 0), (0, 1), (1, 0), (1, 1)], "one instant per worker");
    for e in &exits {
        assert_eq!(e.args[..2], [("survivors", 1024), ("distinct", 1024)]);
    }
    let counted = |node| obs.with_registry(|r| r.counter("combiner_off", node));
    assert_eq!((counted("node0"), counted("node1")), (Some(2), Some(2)));
    assert!(report.metrics.combiner_folds <= 1024 * (NODES * WORKERS) as u64);

    let (report, obs) = traced(ysb_hot(&GenConfig::new(NODES * WORKERS, 20_000)));
    assert_eq!(report.metrics.combiner_off, 0);
    assert!(obs.events().iter().all(|e| e.name != "combiner_off"));
    assert_eq!(report.metrics.combiner_folds, report.metrics.state_updates);
}

#[test]
fn ysb_hot_combiner_engages_and_stays_equivalent() {
    let gen = || ysb_hot(&GenConfig::new(NODES * WORKERS, 5_000));
    let on = run(gen(), true);
    // The hot key domain must actually exercise the combiner (the
    // adaptive bypass only fires on reuse-free streams).
    assert!(
        on.metrics.combiner_folds > 0,
        "combiner never engaged on the hot-key workload"
    );
    assert!(
        on.metrics.combiner_flushes < on.metrics.combiner_folds,
        "pre-aggregation collapsed nothing"
    );
    assert_on_off_equal(gen, "ysb_hot");
}

#[test]
fn cm_combiner_on_off_equivalent() {
    // CM's float mean is not exactly associative: the combiner must
    // decline (stay bit-identical) rather than engage.
    let gen = || cm(&GenConfig::new(NODES * WORKERS, 4_000));
    let on = run(gen(), true);
    assert_eq!(
        on.metrics.combiner_folds, 0,
        "float-mean state must never be pre-aggregated"
    );
    assert_on_off_equal(gen, "cm");
}

#[test]
fn nb7_combiner_on_off_equivalent() {
    assert_on_off_equal(|| nb7(&GenConfig::new(NODES * WORKERS, 4_000)), "nb7");
}

#[test]
fn nb8_combiner_on_off_equivalent() {
    assert_on_off_equal(|| nb8(&GenConfig::new(NODES * WORKERS, 2_500)), "nb8");
}

#[test]
fn nb11_combiner_on_off_equivalent() {
    assert_on_off_equal(|| nb11(&GenConfig::new(NODES * WORKERS, 2_000)), "nb11");
}

/// The combiner must also be invisible across a crash-and-recover run:
/// same fault plan, combiner on vs off, identical post-recovery results
/// and state. Uses a 3-node cluster so a crashed node has helpers to
/// promote, and the hot-key workload so the combiner genuinely engages
/// before and after the fault.
#[test]
fn chaos_crash_recovery_is_combiner_invariant() {
    let chaos = |combine: bool| {
        let w = ysb_hot(&GenConfig::new(3, 10_000));
        let mut cfg = RunConfig::new(3, 1);
        cfg.collect_results = true;
        cfg.epoch_bytes = 16 * 1024;
        cfg.combine = combine;
        let chaos_cfg = ChaosConfig {
            plan: FaultPlan::new().crash(SimTime::from_micros(200), 1),
            ft: FtConfig {
                detect_timeout: SimTime::from_micros(300),
                ckpt_max_chunk: 16 * 1024,
                ckpt_copies: 2,
            },
            pre_split: Vec::new(),
        };
        let out = SlashCluster::builder(w.plan, w.partitions, cfg)
            .chaos(&chaos_cfg)
            .run();
        (out.run, out.recovery)
    };
    let (report_on, rec_on) = chaos(true);
    let (report_off, rec_off) = chaos(false);
    assert!(
        report_on.metrics.combiner_folds > 0,
        "combiner must engage in the chaos run"
    );
    assert!(
        !rec_on.events.is_empty(),
        "the fault must actually trigger recovery"
    );
    assert_eq!(report_on.records, report_off.records);
    assert_eq!(
        rec_on.results_digest, rec_off.results_digest,
        "post-recovery window results diverged between combiner on/off"
    );
    assert_eq!(
        rec_on.state_digests, rec_off.state_digests,
        "post-recovery state diverged between combiner on/off"
    );
}
