//! Leader failover on the Yahoo! Streaming Benchmark: crash a node
//! mid-run and watch the cluster recover *exactly*.
//!
//! Two fault-tolerant runs of the same seed: one healthy, one where node 1
//! — leader of its primary partition, helper for the others — dies at
//! t = 200 µs. The driver detects the missed epoch tokens, promotes the
//! orphaned partition onto a surviving node from the durable epoch-aligned
//! checkpoint, replays the retained deltas from the surviving helpers, and
//! finishes the query. The example prints the time-to-recover and proves
//! the final window counts match the no-fault run bit-exactly (CRDT merges
//! plus epoch-id dedup make the replay idempotent).
//!
//! The faulted run is fully traced: the Chrome trace-event JSON (load at
//! <https://ui.perfetto.dev>) shows the outage window — fault instants and
//! the recovery span ride the `fault` category — and is written to
//! `results/failover_trace.json` (override with `SLASH_TRACE_OUT=path`).
//! Same seed, same plan, same bytes: the trace is deterministic.
//!
//! ```sh
//! cargo run --release --example failover
//! ```

use slash::core::chaos::{ChaosConfig, FaultPlan, FtConfig};
use slash::core::{
    RecoveryAction, RecoveryReport, RunConfig, RunReport, SlashCluster,
};
use slash::desim::SimTime;
use slash::obs::Obs;
use slash::workloads::{ysb, GenConfig};

const NODES: usize = 3;
const VICTIM: usize = 1;

fn run(plan: &FaultPlan, obs: Obs) -> (RunReport, RecoveryReport) {
    let mut cfg = RunConfig::new(NODES, 1);
    cfg.collect_results = true;
    cfg.epoch_bytes = 16 * 1024;
    let w = ysb(&GenConfig::new(NODES, 25_000));
    let chaos = ChaosConfig {
        plan: plan.clone(),
        ft: FtConfig {
            detect_timeout: SimTime::from_micros(300),
            ckpt_max_chunk: 16 * 1024,
            ckpt_copies: 2,
        },
    };
    let out = SlashCluster::builder(w.plan, w.partitions, cfg)
        .chaos(&chaos)
        .obs(obs)
        .run();
    (out.run, out.recovery)
}

fn main() {
    println!(
        "YSB failover: {NODES} nodes, fault-tolerant (epoch checkpoints to a \
         buddy, durability-gated commits), node {VICTIM} crashes at 200 us\n"
    );

    // --- The no-fault reference run (same seed, same FT overheads). ---
    let (base, base_rec) = run(&FaultPlan::new(), Obs::disabled());
    println!(
        "no-fault run : {} records, {} windows, completion {:7.1} us, {} durable ckpts",
        base.records,
        base.results.len(),
        base.completion_time.as_nanos() as f64 / 1e3,
        base_rec.checkpoints_durable
    );

    // --- The failover run: crash the leader mid-stream, traced. ---
    let crash_at = SimTime::from_micros(200);
    let plan = FaultPlan::new().crash(crash_at, VICTIM);
    let obs = Obs::enabled(65_536);
    let (run_rep, rec) = run(&plan, obs.clone());
    println!(
        "failover run : {} records, {} windows, completion {:7.1} us, {} durable ckpts",
        run_rep.records,
        run_rep.results.len(),
        run_rep.completion_time.as_nanos() as f64 / 1e3,
        rec.checkpoints_durable
    );

    let promotion = rec
        .events
        .iter()
        .find(|e| matches!(e.action, RecoveryAction::Promoted { .. }))
        .expect("the crash must be detected and repaired by promotion");
    let host = match promotion.action {
        RecoveryAction::Promoted { host, .. } => host,
        RecoveryAction::ChannelsReset { .. } => unreachable!(),
    };
    println!(
        "\nrecovery     : node {} crashed @{:.1} us, detected @{:.1} us, \
         partition promoted onto node {host}, repaired @{:.1} us",
        promotion.node,
        promotion.injected_at.as_nanos() as f64 / 1e3,
        promotion.detected_at.as_nanos() as f64 / 1e3,
        promotion.recovered_at.as_nanos() as f64 / 1e3,
    );
    println!(
        "time-to-recover: {:.1} us (detect {:.1} us + repair {:.1} us)",
        promotion.time_to_recover().as_nanos() as f64 / 1e3,
        (promotion.detected_at - promotion.injected_at).as_nanos() as f64 / 1e3,
        (promotion.recovered_at - promotion.detected_at).as_nanos() as f64 / 1e3,
    );

    // --- Exactness: not best-effort — bit-exact. ---
    assert_eq!(run_rep.records, base.records, "records lost or duplicated");
    assert_eq!(
        run_rep.results.len(),
        base.results.len(),
        "window count diverged"
    );
    assert_eq!(
        rec.results_digest, base_rec.results_digest,
        "window results diverged from the no-fault run"
    );
    assert_eq!(
        rec.state_digests, base_rec.state_digests,
        "final primary state diverged from the no-fault run"
    );
    println!(
        "\nexactness    : {} window counts and {} per-node state digests match \
         the no-fault run bit-exactly (records lost: 0)",
        run_rep.results.len(),
        rec.state_digests.len()
    );

    // --- Trace artifact: the outage window, visible in Perfetto. ---
    let out =
        std::env::var("SLASH_TRACE_OUT").unwrap_or_else(|_| "results/failover_trace.json".into());
    let json = obs.chrome_trace_json();
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&out, &json) {
        Ok(()) => println!(
            "trace        : {} events -> {out} ({} KiB, load at https://ui.perfetto.dev)",
            obs.events().len(),
            json.len() / 1024
        ),
        Err(e) => eprintln!("trace        : failed to write {out}: {e}"),
    }
}
