//! Cross-validation: the closed-form performance model
//! (`slash_bench::analytic`) against the discrete-event simulation.
//! Agreement within a tolerance means the simulator's emergent throughput
//! really is produced by the structural bottlenecks the model names —
//! there is no hidden fudge factor. The bounds — 15 % on throughput, 0.05
//! on the memory-stall share — sit just above the measured gaps (4–12 %
//! and 0.025), so a simulator cost the model does not name fails here.

use slash::core::{CostModel, RunConfig, SlashCluster};
use slash::workloads::{ro, GenConfig};
use slash_bench::analytic::{predict_micro_direct, predict_slash_agg, AggWorkloadShape};
use slash_bench::micro::{run_micro, MicroConfig, RouteMode};

fn relative_error(predicted: f64, measured: f64) -> f64 {
    (predicted - measured).abs() / measured
}

#[test]
fn slash_node_throughput_matches_the_closed_form() {
    let workers = 2;
    let records = 30_000u64;
    // RO on a single node: no filter, no network — the cleanest case.
    let w = ro(&GenConfig::new(workers, records));
    let cfg = RunConfig::new(1, workers);
    let report = SlashCluster::run(w.plan, w.partitions, cfg);
    let measured = report.throughput();

    // The working set at steady state: keys touched × (entry header 32 +
    // value 8) per fragment. With 30k uniform keys from a 100M domain,
    // essentially every record creates a key.
    let working_set = report.metrics.records * 40;
    let shape = AggWorkloadShape {
        record_size: 16,
        selectivity: 1.0,
        working_set,
        workers,
    };
    let predicted = predict_slash_agg(&CostModel::default(), &shape).throughput();
    let err = relative_error(predicted, measured);
    assert!(
        err < 0.15,
        "closed form {predicted:.3e} vs simulated {measured:.3e} ({:.0}% off)",
        err * 100.0
    );
}

#[test]
fn micro_direct_goodput_matches_the_closed_form() {
    for threads in [1usize, 2, 4] {
        let mut cfg = MicroConfig::new(RouteMode::Direct, threads);
        cfg.records_per_thread = 40_000;
        let measured = run_micro(cfg).throughput_gbs();
        let predicted = predict_micro_direct(&CostModel::default(), threads, 11.8);
        let err = relative_error(predicted, measured);
        assert!(
            err < 0.15,
            "{threads} threads: closed form {predicted:.2} vs simulated {measured:.2} GB/s"
        );
    }
}

#[test]
fn memory_stall_fraction_predicts_the_breakdown() {
    // A DRAM-sized working set: the model says memory-bound; the
    // simulator's top-down counters must agree.
    let workers = 2;
    let w = ro(&GenConfig::new(workers, 50_000));
    let cfg = RunConfig::new(1, workers);
    let report = SlashCluster::run(w.plan, w.partitions, cfg);
    let shape = AggWorkloadShape {
        record_size: 16,
        selectivity: 1.0,
        working_set: report.metrics.records * 40,
        workers,
    };
    let prediction = predict_slash_agg(&CostModel::default(), &shape);
    let breakdown = report.metrics.breakdown(); // [ret, fe, mem, core, bad]
    let simulated_mem_share = breakdown[2];
    assert!(
        (prediction.memory_stall_fraction - simulated_mem_share).abs() < 0.05,
        "model {:.2} vs simulated {simulated_mem_share:.2}",
        prediction.memory_stall_fraction
    );
}
