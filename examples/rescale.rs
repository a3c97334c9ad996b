//! Elastic rescaling on the Yahoo! Streaming Benchmark: a live planned
//! handoff moves a partition between hosts *without a crash* and without
//! losing a record.
//!
//! Four logical partitions start packed two-per-host on two hosts; two
//! provisioned hosts sit parked. A diurnal load curve surges past the
//! packed cluster's capacity at t = 400 µs; the load-reactive
//! [`slash::core::ScaleController`] confirms the overload across several
//! telemetry ticks, then spreads the hottest partitions onto the parked
//! hosts through the planned-handoff path: warm checkpoint pre-ship while
//! the source keeps serving, a bounded cutover stall for the tail, one
//! reconnect handshake, done. The example prints the migration timeline,
//! the `slash-top` ownership table, and proves the final results match a
//! static run of the same curve bit-exactly.
//!
//! The elastic run is fully traced: handoff spans and instants ride the
//! trace alongside the usual engine categories, and the Chrome
//! trace-event JSON is written to `results/rescale_trace.json` (override
//! with `SLASH_TRACE_OUT=path`; load at <https://ui.perfetto.dev>). Same
//! seed, same curve: the trace is deterministic.
//!
//! ```sh
//! cargo run --release --example rescale
//! ```

use slash::core::chaos::{ChaosConfig, FaultPlan, FtConfig};
use slash::core::source::RateCurve;
use slash::core::{
    ControllerConfig, ElasticConfig, RecoveryReport, RescaleReport, RunConfig, RunReport,
    ScaleController, ScaleDirector, SlashCluster, StaticDirector,
};
use slash::desim::SimTime;
use slash::obs::Obs;
use slash::workloads::{ysb, GenConfig};

const PARTITIONS: usize = 4;
const PACKED_HOSTS: usize = 2;
const RECORDS: u64 = 100_000;

fn run(
    pacing: Option<RateCurve>,
    director: &mut dyn ScaleDirector,
    obs: Obs,
) -> (RunReport, RecoveryReport, RescaleReport) {
    let mut cfg = RunConfig::new(PARTITIONS, 1);
    cfg.collect_results = true;
    cfg.epoch_bytes = 16 * 1024;
    cfg.pacing = pacing;
    let w = ysb(&GenConfig::new(PARTITIONS, RECORDS));
    let chaos = ChaosConfig {
        plan: FaultPlan::new(),
        ft: FtConfig {
            detect_timeout: SimTime::from_micros(300),
            ckpt_max_chunk: 16 * 1024,
            ckpt_copies: 2,
        },
    };
    let out = SlashCluster::builder(w.plan, w.partitions, cfg)
        .chaos(&chaos)
        .elastic(&ElasticConfig::packed(PARTITIONS, PACKED_HOSTS), director)
        .obs(obs)
        .run();
    (out.run, out.recovery, out.rescale)
}

fn main() {
    println!(
        "YSB elastic rescale: {PARTITIONS} partitions packed on {PACKED_HOSTS} hosts, \
         {} parked; surge at 400 us\n",
        PARTITIONS - PACKED_HOSTS
    );

    // --- Calibrate: an unpaced packed run measures the service rate. ---
    let (probe, _, _) = run(None, &mut StaticDirector, Obs::disabled());
    let cluster_rps = probe.records as f64 * 1.0e9 / probe.completion_time.as_nanos() as f64;
    let host_rps = cluster_rps / PACKED_HOSTS as f64;
    let per_source = |frac: f64| (frac * cluster_rps / PARTITIONS as f64) as u64;
    let curve = RateCurve::new(&[
        (SimTime::ZERO, per_source(0.30)),
        (SimTime::from_micros(400), per_source(2.60)),
    ]);

    // --- Static reference: same curve, nobody reacts. ---
    let (base, base_rec, _) = run(Some(curve), &mut StaticDirector, Obs::disabled());
    println!(
        "static run   : {} records, completion {:7.1} us on {PACKED_HOSTS} hosts (overloaded)",
        base.records,
        base.completion_time.as_nanos() as f64 / 1e3
    );

    // --- Elastic run: the controller reacts to the surge, traced. ---
    let mut ctl_cfg = ControllerConfig::new(PACKED_HOSTS, PARTITIONS, host_rps);
    ctl_cfg.cooldown = SimTime::from_micros(200);
    ctl_cfg.backlog_high = 20_000;
    // This demo ends at the surge — disable scale-in so the drain tail
    // stays quiet. `repro rescale` drives the full out-and-back diurnal.
    ctl_cfg.low_util = 0.0;
    let mut controller = ScaleController::new(ctl_cfg);
    let obs = Obs::enabled(65_536);
    let (rep, rec, rescale) = run(Some(curve), &mut controller, obs.clone());
    println!(
        "elastic run  : {} records, completion {:7.1} us, peak {} hosts\n",
        rep.records,
        rep.completion_time.as_nanos() as f64 / 1e3,
        rescale.peak_hosts
    );

    // --- The migration timeline: planned handoffs, not crashes. ---
    for m in &rescale.migrations {
        println!(
            "migration    : partition {} host {} -> {} | planned @{:.1} us, \
             halted @{:.1} us, committed @{:.1} us (stall {:.1} us){}",
            m.partition,
            m.from_host,
            m.to_host,
            m.planned_at.as_nanos() as f64 / 1e3,
            m.halted_at.as_nanos() as f64 / 1e3,
            m.committed_at.as_nanos() as f64 / 1e3,
            m.stall().as_nanos() as f64 / 1e3,
            if m.aborted { " ABORTED" } else { "" }
        );
    }
    assert!(
        rescale.peak_hosts > PACKED_HOSTS,
        "the controller must scale out under the surge"
    );
    assert_eq!(rescale.aborted(), 0, "no aborts in a fault-free run");

    // --- Exactness: placement is semantically invisible. ---
    assert_eq!(rep.records, base.records, "records lost or duplicated");
    assert_eq!(
        rec.results_digest, base_rec.results_digest,
        "window results diverged from the static run"
    );
    assert_eq!(
        rec.state_digests, base_rec.state_digests,
        "final primary state diverged from the static run"
    );
    println!(
        "\nexactness    : {} windows and {} state digests match the static \
         run bit-exactly (records lost: 0, max cutover stall {:.1} us)",
        rep.results.len(),
        rec.state_digests.len(),
        rescale
            .max_stall()
            .map(|t| t.as_nanos() as f64 / 1e3)
            .unwrap_or(0.0)
    );

    // --- slash-top: live ownership and migration telemetry. ---
    println!("\n{}", obs.summary());

    // --- Trace artifact: handoff spans, visible in Perfetto. ---
    let out =
        std::env::var("SLASH_TRACE_OUT").unwrap_or_else(|_| "results/rescale_trace.json".into());
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
