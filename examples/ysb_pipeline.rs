//! The Yahoo! Streaming Benchmark on a 4-node Slash cluster, with the
//! RDMA UpPar and Flink-sim baselines run on the identical workload for
//! comparison — a miniature of the paper's Fig. 6a.
//!
//! The Slash run is fully traced: a Chrome trace-event JSON (load it at
//! <https://ui.perfetto.dev>) is written to `results/ysb_trace.json`
//! (override with `SLASH_TRACE_OUT=path`), and the `slash-top` summary —
//! tail latencies included — is printed after the run. Same seed, same
//! bytes: the trace is deterministic.
//!
//! ```sh
//! cargo run --release --example ysb_pipeline
//! ```

use slash::baselines::flinksim::flink_config;
use slash::baselines::partitioned::run_partitioned;
use slash::baselines::uppar::uppar_config;
use slash::core::{RunConfig, SlashCluster};
use slash::obs::{Histogram, Obs};
use slash::workloads::{ysb, GenConfig};

/// Merge every registry histogram called `name` (across node/channel
/// labels) into one distribution for the headline quantiles.
fn merged_hist(obs: &Obs, name: &str) -> Histogram {
    obs.with_registry(|reg| {
        let mut all = Histogram::new();
        for (n, _, h) in reg.hists() {
            if n == name {
                all.merge(h);
            }
        }
        all
    })
    .unwrap_or_default()
}

fn print_quantiles(what: &str, h: &Histogram) {
    match (h.quantile(0.5), h.quantile(0.99), h.quantile(0.999)) {
        (Some(p50), Some(p99), Some(p999)) => println!(
            "{what}: p50 {p50} ns   p99 {p99} ns   p99.9 {p999} ns   ({} samples)",
            h.count()
        ),
        _ => println!("{what}: no samples recorded"),
    }
}

fn main() {
    let nodes = 4;
    let workers = 4;
    let records_per_worker = 25_000u64;

    // --- Slash: every thread runs filter → project → window-update. ---
    let w = ysb(&GenConfig::new(nodes * workers, records_per_worker));
    println!(
        "YSB: {} records ({} MB), filter(1/3) -> project -> 10min tumbling count per campaign",
        w.records,
        w.records * 78 / 1_000_000
    );
    let obs = Obs::enabled(65_536);
    let slash = SlashCluster::run_with_obs(
        w.plan,
        w.partitions,
        RunConfig::new(nodes, workers),
        obs.clone(),
    );
    println!(
        "\nSlash      @{nodes} nodes: {:>8.1} M records/s   ({} windows emitted, {} KiB state traffic)",
        slash.throughput() / 1e6,
        slash.emitted,
        slash.net_tx_bytes / 1024
    );

    // --- RDMA UpPar: half the threads partition, half process. ---
    let senders = workers / 2;
    let w = ysb(&GenConfig::new(
        nodes * senders,
        records_per_worker * workers as u64 / senders as u64,
    ));
    let uppar = run_partitioned(w.plan, w.partitions, uppar_config(nodes, workers));
    println!(
        "RDMA UpPar @{nodes} nodes: {:>8.1} M records/s   ({} windows emitted, {} MiB re-partitioned)",
        uppar.throughput() / 1e6,
        uppar.emitted,
        uppar.net_tx_bytes / 1024 / 1024
    );

    // --- Flink-sim: same topology over IPoIB sockets + managed runtime. ---
    let w = ysb(&GenConfig::new(
        nodes * senders,
        records_per_worker * workers as u64 / senders as u64,
    ));
    let flink = run_partitioned(w.plan, w.partitions, flink_config(nodes, workers));
    println!(
        "Flink-sim  @{nodes} nodes: {:>8.1} M records/s   ({} windows emitted)",
        flink.throughput() / 1e6,
        flink.emitted
    );

    println!(
        "\nSlash vs UpPar: {:.1}x    Slash vs Flink: {:.1}x",
        slash.throughput() / uppar.throughput(),
        slash.throughput() / flink.throughput()
    );
    assert!(slash.throughput() > uppar.throughput());
    assert!(uppar.throughput() > flink.throughput());

    // --- Observability artifacts from the traced Slash run. ---
    println!("\n{}", obs.summary());
    print_quantiles("record latency ", &merged_hist(&obs, "record_latency_ns"));
    print_quantiles(
        "epoch merge    ",
        &merged_hist(&obs, "epoch_merge_latency_ns"),
    );

    let out = std::env::var("SLASH_TRACE_OUT").unwrap_or_else(|_| "results/ysb_trace.json".into());
    let json = obs.chrome_trace_json();
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&out, &json) {
        Ok(()) => println!(
            "\ntrace: {} events -> {out} ({} KiB, load at https://ui.perfetto.dev)",
            obs.events().len(),
            json.len() / 1024
        ),
        Err(e) => eprintln!("trace: failed to write {out}: {e}"),
    }
}
