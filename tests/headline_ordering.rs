//! Cross-crate integration test: the paper's headline result must hold —
//! on identical workloads over the identical fabric, Slash outperforms
//! RDMA UpPar, which outperforms Flink-sim (Fig. 6).

use slash::baselines::partitioned::PartitionedConfig;
use slash::baselines::{run_flink, run_uppar};
use slash::core::{RunConfig, SlashCluster};
use slash::workloads::{ysb, GenConfig};

#[test]
fn slash_beats_uppar_beats_flink_on_ysb() {
    let nodes = 2;
    let workers = 4;
    let rec_per_part = 20_000;

    // Slash: all threads process.
    let w = ysb(&GenConfig::new(nodes * workers, rec_per_part));
    let slash_cfg = RunConfig::new(nodes, workers);
    let slash = SlashCluster::run(w.plan, w.partitions, slash_cfg);
    let slash_tp = slash.throughput();

    // Partitioned SUTs: half the threads are senders, so the same input
    // volume is spread over `nodes * workers/2` source partitions.
    let w = ysb(&GenConfig::new(nodes * workers / 2, rec_per_part * 2));
    let uppar = run_uppar(
        w.plan,
        w.partitions,
        slash::baselines::uppar::uppar_config(nodes, workers),
    );
    let uppar_tp = uppar.throughput();

    let w = ysb(&GenConfig::new(nodes * workers / 2, rec_per_part * 2));
    let flink_cfg: PartitionedConfig = slash::baselines::flinksim::flink_config(nodes, workers);
    let flink = run_flink(w.plan, w.partitions, flink_cfg);
    let flink_tp = flink.throughput();

    println!("YSB @2 nodes: slash={slash_tp:.3e} uppar={uppar_tp:.3e} flink={flink_tp:.3e}");
    println!(
        "ratios: slash/uppar={:.1} slash/flink={:.1}",
        slash_tp / uppar_tp,
        slash_tp / flink_tp
    );
    assert!(
        slash_tp > uppar_tp,
        "slash {slash_tp:.3e} <= uppar {uppar_tp:.3e}"
    );
    assert!(
        uppar_tp > flink_tp,
        "uppar {uppar_tp:.3e} <= flink {flink_tp:.3e}"
    );
}
