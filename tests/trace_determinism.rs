//! Golden determinism test for the observability layer: the whole engine
//! runs on virtual time with seeded randomness only, so two identical
//! runs must produce *byte-identical* trace JSON and `slash-top`
//! summaries — not merely equivalent ones. Any nondeterminism smuggled in
//! (wall clock, hash-order iteration, address-keyed IDs) fails here. The
//! telemetry itself must say what shaped a run: the write combiner turning
//! itself off is a counter and a trace instant.

use slash::core::{RunConfig, SlashCluster};
use slash::obs::Obs;
use slash::workloads::{ysb, ysb_hot, GenConfig, Workload};

/// One traced YSB run on a small cluster; returns every observable
/// artifact the obs layer can emit.
fn traced_run() -> (String, String, u64, Vec<u64>) {
    let nodes = 2;
    let workers = 2;
    let w = ysb(&GenConfig::new(nodes * workers, 4_000));
    let obs = Obs::enabled(16_384);
    let report =
        SlashCluster::run_with_obs(w.plan, w.partitions, RunConfig::new(nodes, workers), obs.clone());
    let quantiles = [0.5, 0.9, 0.99, 0.999, 0.9999]
        .iter()
        .filter_map(|&q| obs.quantile("record_latency_ns", "node0", q))
        .collect();
    (obs.chrome_trace_json(), obs.summary(), report.records, quantiles)
}

#[test]
fn same_seed_produces_byte_identical_traces() {
    let (json_a, top_a, records_a, q_a) = traced_run();
    let (json_b, top_b, records_b, q_b) = traced_run();
    assert_eq!(records_a, records_b);
    assert_eq!(q_a, q_b);
    assert_eq!(top_a, top_b, "slash-top summary must be byte-identical");
    assert_eq!(json_a, json_b, "chrome trace must be byte-identical");
}

#[test]
fn trace_json_has_events_and_monotone_timestamps() {
    let (json, top, _, quantiles) = traced_run();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""), "at least one span event");
    assert!(json.contains("\"cat\":\"operator\""));
    assert!(json.contains("\"cat\":\"verb\""));
    assert!(json.contains("\"cat\":\"epoch\""));
    assert!(json.contains("\"cat\":\"stage\""), "stage attribution spans present");
    // `ts` values appear in non-decreasing file order (export sorts them).
    let mut last = 0f64;
    for chunk in json.split("\"ts\":").skip(1) {
        let num: String = chunk
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        let ts: f64 = num.parse().expect("ts literal");
        assert!(ts >= last, "ts went backwards: {ts} < {last}");
        last = ts;
    }
    assert_eq!(quantiles.len(), 5, "record-latency quantiles all present");
    assert!(top.contains("record_latency_ns"));
    assert!(top.contains("epoch_merge_latency_ns"));
    assert!(top.contains("stage_latency_ns"), "per-stage attribution in summary");
    assert!(top.contains("p99.99"));
}

/// The disabled handle must not change engine results — tracing is an
/// observer, never a participant.
#[test]
fn tracing_does_not_perturb_the_engine() {
    let nodes = 2;
    let workers = 2;
    let run = |obs: Obs| {
        let w = ysb(&GenConfig::new(nodes * workers, 4_000));
        SlashCluster::run_with_obs(w.plan, w.partitions, RunConfig::new(nodes, workers), obs)
    };
    let traced = run(Obs::enabled(16_384));
    let dark = run(Obs::disabled());
    assert_eq!(traced.records, dark.records);
    assert_eq!(traced.emitted, dark.emitted);
    assert_eq!(traced.net_tx_bytes, dark.net_tx_bytes);
    assert_eq!(traced.completion_time, dark.completion_time);
}

/// "The combiner turned itself off" is read from telemetry: on reuse-free
/// `ysb` every worker's table trips the cold-stream probe at its 1,024th
/// survivor — one counter bump and one trace instant each — and on
/// `ysb_hot` none ever does.
#[test]
fn the_cold_stream_exit_is_a_counter_and_a_trace_instant() {
    const NODES: usize = 2;
    const WORKERS: usize = 2;
    let traced = |w: Workload| {
        let obs = Obs::enabled(1 << 16);
        let mut cfg = RunConfig::new(NODES, WORKERS);
        cfg.collect_results = true;
        cfg.epoch_bytes = 64 * 1024;
        let builder = SlashCluster::builder(w.plan, w.partitions, cfg);
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
