//! Closed-form throughput predictions.
//!
//! The simulation is structural: throughput emerges from per-operation
//! costs, a shared memory link, and paced NICs. For the steady-state
//! cases those bottlenecks compose analytically, which gives an
//! independent prediction to validate the simulator against (see
//! `tests/model_validation.rs`): if simulation and closed form diverge,
//! one of them mis-models the structure.

use slash_core::CostModel;

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
        assert!(huge.memory_stall_fraction > 0.5);
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
