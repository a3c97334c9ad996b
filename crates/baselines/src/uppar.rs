//! RDMA UpPar — the lightweight-integration straw man (paper §3.1).
//!
//! "We implement and evaluate a data re-partitioning component that uses
//! RDMA QPs instead of sockets. […] Note that we use Slash's RDMA channel
//! to implement RDMA UpPar." — the generic partitioned engine over the
//! RDMA transport, native code (runtime factor 1.0).

use std::rc::Rc;

use slash_core::{QueryPlan, RunReport};

use crate::partitioned::{run_partitioned, PartitionedConfig, Transport};

/// UpPar's configuration is the partitioned engine pinned to RDMA.
pub fn uppar_config(nodes: usize, workers_per_node: usize) -> PartitionedConfig {
    PartitionedConfig::new(nodes, workers_per_node, Transport::Rdma)
}

/// Run a query on RDMA UpPar. `partitions` are node-major per *sender*
/// thread (`workers_per_node / 2` senders per node).
pub fn run_uppar(
    plan: QueryPlan,
    partitions: Vec<Rc<Vec<u8>>>,
    cfg: PartitionedConfig,
) -> RunReport {
    assert_eq!(cfg.transport, Transport::Rdma, "UpPar runs over RDMA");
    assert_eq!(cfg.runtime_factor, 1.0, "UpPar is native C++-grade code");
    run_partitioned(plan, partitions, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slash_core::{AggSpec, RecordSchema, StreamDef, WindowAssigner};

    #[test]
    fn uppar_runs_and_reports() {
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
        let cfg = uppar_config(2, 2);
        let report = run_uppar(plan, vec![gen(2000), gen(2000)], cfg);
        assert_eq!(report.records, 4000);
        assert!(report.throughput() > 0.0);
        assert!(report.partitioner.instructions > 0);
        assert!(report.metrics.instructions > 0);
    }
}
