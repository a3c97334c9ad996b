//! Quickstart: a windowed count query on a 2-node Slash virtual cluster.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a tiny stream of `(timestamp, key)` records, runs
//! `COUNT(*) GROUP BY key, TUMBLE(1s)` on two simulated nodes whose
//! workers share window state through the RDMA-backed Slash State
//! Backend, and prints the triggered windows.

use std::rc::Rc;

use slash::core::{
    AggSpec, QueryPlan, RecordSchema, RunConfig, SinkResult, SlashCluster, StreamDef,
    WindowAssigner,
};

fn main() {
    // 1. Describe the input: 16-byte records, timestamp at offset 0 and
    //    key at offset 8 (the `plain` layout).
    let schema = RecordSchema::plain(16);

    // 2. Build the query: count records per key over 1-second (1000 ms)
    //    tumbling event-time windows.
    let plan = QueryPlan::Aggregate {
        input: StreamDef::new(schema),
        window: WindowAssigner::Tumbling { size: 1_000 },
        agg: AggSpec::Count,
    };

    // 3. Generate one in-memory partition per worker. Keys overlap across
    //    partitions on purpose: Slash shares state instead of
    //    re-partitioning records.
    let gen = |seed: u64| -> Rc<Vec<u8>> {
        let mut buf = Vec::new();
        for i in 0..5_000u64 {
            let ts = 1 + i; // strictly monotone event time, ms
            let key = (i * 7 + seed) % 5; // five hot keys, on every node
            buf.extend_from_slice(&ts.to_le_bytes());
            buf.extend_from_slice(&key.to_le_bytes());
        }
        Rc::new(buf)
    };

    // 4. Run on a virtual cluster: 2 nodes × 2 workers.
    let mut cfg = RunConfig::new(2, 2);
    cfg.collect_results = true;
    let partitions = vec![gen(0), gen(1), gen(2), gen(3)];
    let report = SlashCluster::run(plan, partitions, cfg);

    // 5. Inspect the results.
    println!(
        "processed {} records in {} of virtual time ({:.1} M records/s)",
        report.records,
        report.processing_time,
        report.throughput() / 1e6
    );
    println!(
        "state deltas moved {} KiB across the simulated fabric",
        report.net_tx_bytes / 1024
    );

    let mut results = report.results.clone();
    results.sort_by_key(|r| match r {
        SinkResult::Agg { window_id, key, .. } => (*window_id, *key),
        SinkResult::Join { window_id, key, .. } => (*window_id, *key),
    });
    println!("\nwindow  key  count");
    let mut total = 0.0;
    for r in &results {
        if let SinkResult::Agg {
            window_id,
            key,
            value,
        } = r
        {
            println!("{window_id:>6}  {key:>3}  {value:>5}");
            total += value;
        }
    }
    assert_eq!(
        total as u64, report.records,
        "every record lands in exactly one window"
    );
    println!("\ntotal counted: {total} (matches input — exactly-once triggers)");
}
