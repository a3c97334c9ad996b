//! Flink-sim — the plug-and-play integration (paper §3.1, §8.1.1).
//!
//! Models Apache Flink 1.9 deployed on IPoIB: the same re-partitioning
//! topology as UpPar, but with socket-style channels (kernel copies,
//! syscalls, degraded goodput) and a managed-runtime multiplier on every
//! CPU cost. Per the paper's configuration, half of each node's cores do
//! network I/O + partitioning and half process.

use std::rc::Rc;

use slash_core::{QueryPlan, RunReport};

use crate::partitioned::{run_partitioned, PartitionedConfig, Transport};

/// Flink-sim's configuration: socket transport + managed-runtime factor.
pub fn flink_config(nodes: usize, workers_per_node: usize) -> PartitionedConfig {
    let mut cfg = PartitionedConfig::new(nodes, workers_per_node, Transport::Socket);
    cfg.runtime_factor = cfg.cost.managed_runtime_factor;
    cfg
}

/// Run a query on Flink-sim.
pub fn run_flink(
    plan: QueryPlan,
    partitions: Vec<Rc<Vec<u8>>>,
    cfg: PartitionedConfig,
) -> RunReport {
    assert_eq!(
        cfg.transport,
        Transport::Socket,
        "Flink-sim uses IPoIB sockets"
    );
    assert!(
        cfg.runtime_factor > 1.0,
        "Flink-sim models a managed runtime"
    );
    run_partitioned(plan, partitions, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slash_core::{AggSpec, RecordSchema, StreamDef, WindowAssigner};

    #[test]
    fn flink_runs_and_reports() {
        let gen = |n: u64| -> Rc<Vec<u8>> {
            let mut buf = Vec::new();
            for i in 0..n {
                buf.extend_from_slice(&(1 + i).to_le_bytes());
                buf.extend_from_slice(&(i % 16).to_le_bytes());
            }
            Rc::new(buf)
        };
        let plan = QueryPlan::Aggregate {
            input: StreamDef::new(RecordSchema::plain(16)),
            window: WindowAssigner::Tumbling { size: 500 },
            agg: AggSpec::Count,
        };
        let report = run_flink(plan, vec![gen(1000), gen(1000)], flink_config(2, 2));
        assert_eq!(report.records, 2000);
        assert!(report.throughput() > 0.0);
    }
}
