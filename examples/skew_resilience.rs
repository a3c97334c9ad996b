//! Skew resilience — the paper's headline robustness claim (Fig. 8d):
//! hash re-partitioning collapses under skewed keys because the hot key's
//! receiver becomes the bottleneck, while Slash's shared state is
//! skew-agnostic (and windowed aggregation actually gets *faster*: fewer
//! distinct keys = smaller working set = better cache behaviour).
//!
//! ```sh
//! cargo run --release --example skew_resilience
//! ```

use slash::baselines::partitioned::run_partitioned;
use slash::baselines::uppar::uppar_config;
use slash::core::{RunConfig, SlashCluster};
use slash::workloads::{ysb_zipf, GenConfig};

fn main() {
    let nodes = 2;
    let workers = 4;
    let records = 20_000u64;

    println!("YSB at {nodes} nodes, Zipf-skewed campaign keys\n");
    println!("   z   | Slash (M rec/s) | UpPar (M rec/s) | Slash/UpPar");
    println!("-------+-----------------+-----------------+------------");

    let mut first: Option<(f64, f64)> = None;
    let mut last = (0.0, 0.0);
    for z in [0.2, 0.8, 1.4, 2.0] {
        // Slash: all workers ingest + process; shared state via SSB.
        let w = ysb_zipf(&GenConfig::new(nodes * workers, records), z);
        let slash =
            SlashCluster::run(w.plan, w.partitions, RunConfig::new(nodes, workers)).throughput();

        // UpPar: hash partition on the campaign key.
        let senders = workers / 2;
        let w = ysb_zipf(
            &GenConfig::new(nodes * senders, records * workers as u64 / senders as u64),
            z,
        );
        let uppar =
            run_partitioned(w.plan, w.partitions, uppar_config(nodes, workers)).throughput();

        println!(
            " {z:>5.1} | {:>15.1} | {:>15.1} | {:>9.1}x",
            slash / 1e6,
            uppar / 1e6,
            slash / uppar
        );
        if first.is_none() {
            first = Some((slash, uppar));
        }
        last = (slash, uppar);
    }

    let (slash_lo, uppar_lo) = first.unwrap();
    let (slash_hi, uppar_hi) = last;
    println!(
        "\nfrom z=0.2 to z=2.0: Slash {}{:.0}%, UpPar {}{:.0}%",
        if slash_hi >= slash_lo { "+" } else { "-" },
        (slash_hi / slash_lo - 1.0).abs() * 100.0,
        if uppar_hi >= uppar_lo { "+" } else { "-" },
        (uppar_hi / uppar_lo - 1.0).abs() * 100.0,
    );
    assert!(
        slash_hi > slash_lo,
        "skew should help Slash (smaller working set)"
    );
    assert!(
        uppar_hi < uppar_lo,
        "skew should hurt UpPar (hot-receiver imbalance)"
    );
    println!("Slash is skew-agnostic; re-partitioning is not — the paper's guideline #2.");
}
