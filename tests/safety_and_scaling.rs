//! Safety (property P1), determinism, and scaling-shape tests across the
//! whole stack.

use std::rc::Rc;

use slash::core::{
    AggSpec, QueryPlan, RecordSchema, RunConfig, RunReport, SinkResult, SlashCluster, StreamDef,
    WindowAssigner,
};
use slash::workloads::{ysb, GenConfig};
use slash_verify::oracle;

fn gen(n: u64, dt: u64, keys: u64, seed: u64) -> Rc<Vec<u8>> {
    let mut buf = Vec::with_capacity((n * 16) as usize);
    for i in 0..n {
        buf.extend_from_slice(&(1 + i * dt).to_le_bytes());
        buf.extend_from_slice(&((i + seed) % keys).to_le_bytes());
    }
    Rc::new(buf)
}

fn count_plan(window: u64) -> QueryPlan {
    QueryPlan::Aggregate {
        input: StreamDef::new(RecordSchema::plain(16)),
        window: WindowAssigner::Tumbling { size: window },
        agg: AggSpec::Count,
    }
}

/// Run `plan` over `parts` under `cfg`, collecting results, and hold them
/// to the sequential fold: every `(window, key)` exactly once, each with
/// its exact count.
fn run_exact(
    plan: QueryPlan,
    parts: Vec<Rc<Vec<u8>>>,
    mut cfg: RunConfig,
    what: &str,
) -> RunReport {
    cfg.collect_results = true;
    let expected = oracle::oracle(&plan, &parts);
    let report = SlashCluster::run(plan, parts, cfg);
    let verdict = oracle::check(&expected, &report);
    assert!(verdict.is_ok(), "{what}: {verdict:?}");
    report
}

/// P1: no result at timestamp t may be computed from records with
/// timestamps greater than t. Observable consequence: every window's
/// count is complete — if a window fired early, late-arriving records for
/// it would be lost and the counts would not match the sequential fold
/// (the backend also panics on double triggers).
#[test]
fn p1_no_partial_windows_under_aggressive_epochs() {
    for epoch_bytes in [512u64, 4 * 1024, 1024 * 1024] {
        let mut cfg = RunConfig::new(3, 2);
        cfg.epoch_bytes = epoch_bytes;
        let parts: Vec<Rc<Vec<u8>>> = (0..6).map(|s| gen(2_000, 3, 16, s)).collect();
        run_exact(
            count_plan(500),
            parts,
            cfg,
            &format!("epoch_bytes={epoch_bytes}"),
        );
    }
}

/// Tiny delta channels (2 credits, 256-byte buffers) force the epoch
/// protocol through heavy chunking and credit stalls; results must be
/// unaffected.
#[test]
fn epoch_protocol_survives_tiny_channels() {
    let mut cfg = RunConfig::new(2, 2);
    cfg.epoch_bytes = 2 * 1024;
    cfg.channel = slash::net::ChannelConfig {
        credits: 2,
        buffer_size: 256,
        credit_batch: 1,
    };
    let parts: Vec<Rc<Vec<u8>>> = (0..4).map(|s| gen(1_500, 2, 32, s)).collect();
    run_exact(count_plan(400), parts, cfg, "tiny channels");
}

/// Virtual time makes runs bit-reproducible, including all counters.
#[test]
fn full_runs_are_deterministic() {
    let run = || {
        let w = ysb(&GenConfig::new(4, 3_000));
        let report = SlashCluster::run(w.plan, w.partitions, RunConfig::new(2, 2));
        (
            report.records,
            report.emitted,
            report.processing_time,
            report.completion_time,
            report.net_tx_bytes,
            report.metrics.instructions,
        )
    };
    assert_eq!(run(), run());
}

/// Weak scaling: doubling nodes with fixed per-node input should roughly
/// double Slash's throughput (Fig. 6's headline scaling claim).
#[test]
fn slash_weak_scaling_is_nearly_linear() {
    let tp = |nodes: usize| {
        let w = ysb(&GenConfig::new(nodes * 2, 10_000));
        SlashCluster::run(w.plan, w.partitions, RunConfig::new(nodes, 2)).throughput()
    };
    let t2 = tp(2);
    let t4 = tp(4);
    let t8 = tp(8);
    assert!(t4 > 1.6 * t2, "2->4 nodes: {t2:.3e} -> {t4:.3e}");
    assert!(t8 > 1.6 * t4, "4->8 nodes: {t4:.3e} -> {t8:.3e}");
}

/// Sliding windows via slices: counts over overlapping windows must each
/// cover the full window span (slice merging at trigger time).
#[test]
fn sliding_windows_merge_slices() {
    let plan = QueryPlan::Aggregate {
        input: StreamDef::new(RecordSchema::plain(16)),
        window: WindowAssigner::Sliding {
            size: 300,
            slide: 100,
        },
        agg: AggSpec::Count,
    };
    let mut cfg = RunConfig::new(1, 1);
    cfg.collect_results = true;
    // One record per ms, single key, ts 1..=1200.
    let report = SlashCluster::run(plan, vec![gen(1200, 1, 1, 0)], cfg);
    // Interior windows hold exactly `size` records.
    let mut interior = 0;
    for r in &report.results {
        if let SinkResult::Agg {
            window_id, value, ..
        } = r
        {
            if (2..=8).contains(window_id) {
                assert_eq!(*value as u64, 300, "window {window_id}");
                interior += 1;
            }
        }
    }
    assert!(interior >= 5, "expected interior sliding windows");
}

/// Session-bucket windows: records within the same gap-sized bucket join
/// the same session; every record is attributed exactly once.
#[test]
fn session_windows_count_everything_once() {
    let plan = QueryPlan::Aggregate {
        input: StreamDef::new(RecordSchema::plain(16)),
        window: WindowAssigner::Session { gap: 250 },
        agg: AggSpec::Count,
    };
    let parts = vec![gen(1_000, 4, 8, 0), gen(1_000, 4, 8, 3)];
    run_exact(plan, parts, RunConfig::new(2, 1), "session buckets");
}

/// The run must also work with a single node and a single worker — the
/// degenerate cluster is the scale-up engine.
#[test]
fn single_node_degenerates_to_scale_up() {
    let parts = vec![gen(1_000, 1, 4, 0)];
    let report = run_exact(count_plan(100), parts, RunConfig::new(1, 1), "one node");
    assert_eq!(report.records, 1_000);
    assert_eq!(report.net_tx_bytes, 0, "no fabric traffic on one node");
}
