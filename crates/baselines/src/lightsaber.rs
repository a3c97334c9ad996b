//! LightSaber-sim — the scale-up SPE of the COST analysis (paper §8.2.4).
//!
//! LightSaber targets a single multi-core node: task-based parallelism
//! over a **single shared task queue**, fused operator pipelines, and late
//! merge of thread-local partials — no networking, no epochs. Slash's
//! single-node execution already *is* a late-merge scale-up engine (its
//! epoch machinery is a no-op with one node: there are no remote
//! partitions to ship), so LightSaber-sim reuses the core engine on one
//! node and adds the shared-queue acquisition cost the paper contrasts
//! with Slash's per-worker queues (§5.3).
//!
//! LightSaber does not support joins (the paper's COST analysis therefore
//! uses YSB, CM, and NB7); this runner enforces that.

use std::rc::Rc;

use slash_core::{QueryPlan, RunConfig, RunReport, SlashCluster};

/// Per-batch shared-task-queue cost. Scales with contending threads
/// (cache-line ping-pong on the queue head).
fn queue_contention_ns(threads: usize) -> f64 {
    18.0 * (threads as f64).log2().max(1.0)
}

/// LightSaber's run configuration for one node with `threads` workers.
pub fn lightsaber_config(threads: usize) -> RunConfig {
    let mut cfg = RunConfig::new(1, threads);
    cfg.cost.task_queue_ns = queue_contention_ns(threads);
    cfg
}

/// Run an aggregation query on LightSaber-sim (one node, `cfg.workers_per_node`
/// threads, one partition per thread).
pub fn run_lightsaber(plan: QueryPlan, partitions: Vec<Rc<Vec<u8>>>, cfg: RunConfig) -> RunReport {
    assert_eq!(cfg.nodes, 1, "LightSaber is a single-node engine");
    assert!(
        matches!(plan, QueryPlan::Aggregate { .. }),
        "LightSaber does not support joins (paper §8.2.4)"
    );
    SlashCluster::run(plan, partitions, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slash_core::{AggSpec, RecordSchema, SinkResult, StreamDef, WindowAssigner};

    fn gen(n: u64) -> Rc<Vec<u8>> {
        let mut buf = Vec::new();
        for i in 0..n {
            buf.extend_from_slice(&(1 + i).to_le_bytes());
            buf.extend_from_slice(&(i % 8).to_le_bytes());
        }
        Rc::new(buf)
    }

    fn plan() -> QueryPlan {
        QueryPlan::Aggregate {
            input: StreamDef::new(RecordSchema::plain(16)),
            window: WindowAssigner::Tumbling { size: 1000 },
            agg: AggSpec::Count,
        }
    }

    #[test]
    fn lightsaber_counts_correctly() {
        let mut cfg = lightsaber_config(2);
        cfg.collect_results = true;
        let report = run_lightsaber(plan(), vec![gen(2000), gen(2000)], cfg);
        assert_eq!(report.records, 4000);
        let total: f64 = report
            .results
            .iter()
            .map(|r| match r {
                SinkResult::Agg { value, .. } => *value,
                _ => 0.0,
            })
            .sum();
        assert_eq!(total as u64, 4000);
        assert_eq!(report.net_tx_bytes, 0, "no network on a single node");
    }

    #[test]
    #[should_panic(expected = "does not support joins")]
    fn joins_are_rejected() {
        let join = QueryPlan::Join {
            input: StreamDef::new(RecordSchema::plain(32)),
            side_off: 16,
            window: WindowAssigner::Tumbling { size: 1000 },
            retain_bytes: 16,
        };
        run_lightsaber(join, vec![gen(10)], lightsaber_config(1));
    }

    #[test]
    fn shared_queue_costs_grow_with_threads() {
        assert!(queue_contention_ns(10) > queue_contention_ns(2));
    }
}
