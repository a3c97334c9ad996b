//! Closed-form throughput predictions.
//!
//! The simulation is structural: throughput emerges from per-operation
//! costs, a shared memory link, and paced NICs. For the steady-state
//! cases those bottlenecks compose analytically, which gives an
//! independent prediction to validate the simulator against (see
//! `tests/model_validation.rs`): if simulation and closed form diverge,
//! one of them mis-models the structure.

use slash_core::{CostCategory, CostModel};

// Re-exported so callers can build breakdown expectations too.
pub use slash_core::metrics::CATEGORIES;

/// Inputs describing a steady-state aggregation workload on one node.
#[derive(Debug, Clone, Copy)]
pub struct AggWorkloadShape {
    /// Record size in bytes.
    pub record_size: usize,
    /// Fraction of records surviving the filter.
    pub selectivity: f64,
    /// Steady-state working set of the node's state fragments, bytes.
    pub working_set: u64,
    /// Worker threads on the node.
    pub workers: usize,
}

/// Predicted per-node throughput decomposition.
#[derive(Debug, Clone, Copy)]
pub struct NodePrediction {
    /// CPU-pipeline ceiling, records/s (all workers; includes memory
    /// *latency* stalls, which top-down analysis attributes to
    /// memory-bound time even when bandwidth is not saturated).
    pub cpu_bound: f64,
    /// Memory-*bandwidth* ceiling, records/s.
    pub mem_bound: f64,
    /// Fraction of per-record time spent waiting on memory latency.
    pub memory_stall_fraction: f64,
}

impl NodePrediction {
    /// The binding constraint.
    pub fn throughput(&self) -> f64 {
        self.cpu_bound.min(self.mem_bound)
    }

    /// Top-down classification of the binding resource: memory-bound when
    /// either bandwidth saturates or memory latency dominates the
    /// per-record time (Slash's case in Table 1); retiring otherwise.
    pub fn bottleneck(&self) -> CostCategory {
        if self.mem_bound < self.cpu_bound || self.memory_stall_fraction > 0.5 {
            CostCategory::MemoryBound
        } else {
            CostCategory::Retiring
        }
    }
}

/// Predict a Slash node's aggregation throughput: every worker runs
/// `pipeline + selectivity × (rmw + cache penalty)` per record, and the
/// node's memory link carries the stream plus the state cache misses.
pub fn predict_slash_agg(cost: &CostModel, shape: &AggWorkloadShape) -> NodePrediction {
    let access = cost.cache.random_access(shape.working_set);
    let per_rec_cpu_ns =
        cost.record_pipeline_ns + shape.selectivity * (cost.rmw_base_ns + access.penalty_ns);
    let cpu_bound = shape.workers as f64 / (per_rec_cpu_ns * 1e-9);
    let per_rec_mem_bytes = shape.record_size as f64 + shape.selectivity * access.mem_bytes();
    let mem_bound = cost.mem_bandwidth as f64 / per_rec_mem_bytes;
    NodePrediction {
        cpu_bound,
        mem_bound,
        // The state access itself (index probe + load/store) plus its
        // cache penalty is what the engine's top-down accounting files
        // under memory-bound time.
        memory_stall_fraction: shape.selectivity * (cost.rmw_base_ns + access.penalty_ns)
            / per_rec_cpu_ns,
    }
}

/// Predict a Slash node's aggregation throughput with the write-combining
/// hot path: every survivor folds into the L1-resident combiner at
/// `combine_hit_ns`, and only `flush_fraction` of them (distinct keys per
/// batch ÷ survivors per batch) pay the full SSB probe with its cache
/// penalty. `flush_fraction = 1` degenerates to the per-record path plus
/// the (small) combiner overhead; hot key domains drive it toward
/// `distinct_keys / batch_records`.
pub fn predict_slash_agg_combined(
    cost: &CostModel,
    shape: &AggWorkloadShape,
    flush_fraction: f64,
) -> NodePrediction {
    let f = flush_fraction.clamp(0.0, 1.0);
    let access = cost.cache.random_access(shape.working_set);
    let ssb_ns = f * (cost.rmw_base_ns + access.penalty_ns);
    let per_rec_cpu_ns =
        cost.record_pipeline_ns + shape.selectivity * (cost.combine_hit_ns + ssb_ns);
    let cpu_bound = shape.workers as f64 / (per_rec_cpu_ns * 1e-9);
    // Only flushed probes walk the index, so state cache misses scale by
    // the flush fraction too; the stream itself still streams.
    let per_rec_mem_bytes = shape.record_size as f64 + shape.selectivity * f * access.mem_bytes();
    let mem_bound = cost.mem_bandwidth as f64 / per_rec_mem_bytes;
    NodePrediction {
        cpu_bound,
        mem_bound,
        memory_stall_fraction: shape.selectivity * ssb_ns / per_rec_cpu_ns,
    }
}

/// Predict the partitioned engine's sender-side per-node throughput:
/// `senders` threads each paying pipeline + selectivity × (partition +
/// queue + copy) per record.
pub fn predict_partitioned_sender(
    cost: &CostModel,
    shape: &AggWorkloadShape,
    senders: usize,
    runtime_factor: f64,
) -> f64 {
    let per_rec_ns = runtime_factor
        * (cost.record_pipeline_ns
            + shape.selectivity
                * (cost.partition_ns
                    + cost.queue_op_ns
                    + shape.record_size as f64 * cost.copy_per_byte_ns));
    senders as f64 / (per_rec_ns * 1e-9)
}

/// Predict the partitioned engine's receiver-side per-node throughput
/// (in records *arriving at receivers*, i.e. post-filter).
pub fn predict_partitioned_receiver(
    cost: &CostModel,
    shape: &AggWorkloadShape,
    receivers: usize,
    runtime_factor: f64,
) -> f64 {
    let access = cost.cache.random_access(shape.working_set);
    let per_rec_ns = runtime_factor * (cost.queue_op_ns + cost.rmw_base_ns) + access.penalty_ns;
    receivers as f64 / (per_rec_ns * 1e-9)
}

/// Predict the direct (Slash-style) channel goodput of the drill-down
/// micro-benchmark in GB/s: producers copy records at `copy_per_byte_ns`,
/// consumers tally at ~2 ns/record, everything capped by the line rate.
pub fn predict_micro_direct(cost: &CostModel, threads: usize, line_rate: f64) -> f64 {
    let record = 16.0;
    let producer_gbs = threads as f64 / (cost.copy_per_byte_ns * 1e-9) / 1e9;
    let consumer_gbs = threads as f64 * record / (2.0e-9) / 1e9;
    producer_gbs.min(consumer_gbs).min(line_rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(ws: u64) -> AggWorkloadShape {
        AggWorkloadShape {
            record_size: 16,
            selectivity: 1.0,
            working_set: ws,
            workers: 4,
        }
    }

    #[test]
    fn large_working_sets_become_memory_bound() {
        let cost = CostModel::default();
        let small = predict_slash_agg(&cost, &shape(16 * 1024));
        let huge = predict_slash_agg(&cost, &shape(8 << 30));
        assert!(small.throughput() > huge.throughput());
        assert_eq!(huge.bottleneck(), CostCategory::MemoryBound);
    }

    #[test]
    fn combining_helps_most_when_flushes_are_rare() {
        let cost = CostModel::default();
        let s = shape(1 << 30);
        let plain = predict_slash_agg(&cost, &s).throughput();
        let hot = predict_slash_agg_combined(&cost, &s, 0.05).throughput();
        let cold = predict_slash_agg_combined(&cost, &s, 1.0).throughput();
        assert!(hot > 2.0 * plain, "hot keys {hot:.3e} vs plain {plain:.3e}");
        // With every survivor flushing, combining only adds its fold cost.
        assert!(cold < plain);
        assert!(cold > 0.8 * plain, "cold {cold:.3e} vs plain {plain:.3e}");
    }

    #[test]
    fn slash_prediction_beats_partitioned_prediction() {
        let cost = CostModel::default();
        let s = shape(1 << 30);
        let slash = predict_slash_agg(&cost, &s).throughput();
        let sender = predict_partitioned_sender(&cost, &s, 2, 1.0);
        let receiver = predict_partitioned_receiver(&cost, &s, 2, 1.0);
        let partitioned = sender.min(receiver);
        assert!(
            slash > 2.0 * partitioned,
            "slash {slash:.3e} vs partitioned {partitioned:.3e}"
        );
        // And the managed runtime makes it worse still.
        let flink = predict_partitioned_sender(&cost, &s, 2, 3.5)
            .min(predict_partitioned_receiver(&cost, &s, 2, 3.5));
        assert!(partitioned > 2.0 * flink);
    }

    #[test]
    fn micro_direct_saturates_with_two_threads() {
        let cost = CostModel::default();
        let one = predict_micro_direct(&cost, 1, 11.8);
        let two = predict_micro_direct(&cost, 2, 11.8);
        assert!(one < 11.8);
        assert!((two - 11.8).abs() < 1e-9, "2 threads hit line rate: {two}");
    }
}
