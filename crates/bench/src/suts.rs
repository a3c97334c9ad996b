//! Uniform system-under-test runners over the workload generators.

use slash_baselines::flinksim::flink_config;
use slash_baselines::partitioned::run_partitioned;
use slash_baselines::run_lightsaber;
use slash_baselines::uppar::uppar_config;
use slash_core::{RunConfig, RunReport, SlashCluster};
use slash_workloads::{GenConfig, Workload};

use crate::scale::Scale;

/// Which workload to generate for a given number of source threads.
pub type WorkloadGen = fn(&GenConfig) -> Workload;

/// Run Slash: every thread both ingests and processes (paper §8.2.2:
/// "Slash runs filter, projection, and windowing on all threads").
pub fn slash(gen: WorkloadGen, nodes: usize, scale: Scale) -> RunReport {
    let w = gen(&GenConfig::new(nodes * scale.workers, scale.records));
    let cfg = RunConfig::new(nodes, scale.workers);
    SlashCluster::run(w.plan, w.partitions, cfg)
}

/// Run RDMA UpPar: half the threads partition, half process; the same
/// total input volume is spread over the sender threads.
pub fn uppar(gen: WorkloadGen, nodes: usize, scale: Scale) -> RunReport {
    let senders = (scale.workers / 2).max(1);
    let per_sender = scale.records * scale.workers as u64 / senders as u64;
    let w = gen(&GenConfig::new(nodes * senders, per_sender));
    run_partitioned(w.plan, w.partitions, uppar_config(nodes, scale.workers))
}

/// Run Flink-sim with the same thread split as UpPar.
pub fn flink(gen: WorkloadGen, nodes: usize, scale: Scale) -> RunReport {
    let senders = (scale.workers / 2).max(1);
    let per_sender = scale.records * scale.workers as u64 / senders as u64;
    let w = gen(&GenConfig::new(nodes * senders, per_sender));
    run_partitioned(w.plan, w.partitions, flink_config(nodes, scale.workers))
}

/// Run LightSaber-sim on one node.
pub fn lightsaber(gen: WorkloadGen, scale: Scale) -> RunReport {
    let w = gen(&GenConfig::new(scale.workers, scale.records));
    let cfg = slash_baselines::lightsaber::lightsaber_config(scale.workers);
    run_lightsaber(w.plan, w.partitions, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slash_workloads::ysb;

    #[test]
    fn all_suts_process_the_same_volume() {
        let scale = Scale::tiny();
        let s = slash(ysb, 2, scale);
        let u = uppar(ysb, 2, scale);
        let f = flink(ysb, 2, scale);
        assert_eq!(s.records, u.records);
        assert_eq!(u.records, f.records);
        let l = lightsaber(ysb, scale);
        assert_eq!(l.records, scale.records * scale.workers as u64);
    }
}
