//! Closed-loop integration: the [`ScaleController`] policy driving the
//! elastic mechanism end to end. A paced diurnal load curve
//! overloads the packed cluster; the controller must spread partitions
//! onto parked hosts, the run must stay *exact* (same results digest as
//! a static run of the same curve), and no record may be lost.

use std::rc::Rc;

use slash::core::chaos::{ChaosConfig, FaultPlan, FtConfig};
use slash::core::source::RateCurve;
use slash::core::window::WindowAssigner;
use slash::core::{
    AggSpec, ControllerConfig, Decision, ElasticConfig, QueryPlan, RecordSchema, RecoveryReport,
    RescaleReport, RunConfig, RunReport, ScaleController, ScaleDirector, SlashCluster,
    StaticDirector, StreamDef,
};
use slash::desim::SimTime;

fn gen(n: u64, keys: u64) -> Rc<Vec<u8>> {
    let mut buf = Vec::with_capacity((n * 16) as usize);
    for i in 0..n {
        buf.extend_from_slice(&i.to_le_bytes());
        buf.extend_from_slice(&(i % keys).to_le_bytes());
    }
    Rc::new(buf)
}

fn count_plan() -> QueryPlan {
    QueryPlan::Aggregate {
        input: StreamDef::new(RecordSchema::plain(16)),
        window: WindowAssigner::Tumbling { size: 4_000 },
        agg: AggSpec::Count,
    }
}

fn cfg(nodes: usize) -> RunConfig {
    let mut cfg = RunConfig::new(nodes, 1);
    cfg.collect_results = true;
    cfg.epoch_bytes = 16 * 1024;
    // A host whose two packed partitions are bound by its one memory link
    // (16 B/record of input at ~160 M records/s wants 2.5 GB/s): spreading
    // them is then a real capacity gain, which is what the controller is
    // for. At the default 40 GB/s this 32-key count is CPU-bound, packing
    // is free and no scale-out can pay off.
    cfg.cost.mem_bandwidth = 1_500_000_000;
    cfg
}

fn chaos() -> ChaosConfig {
    ChaosConfig {
        plan: FaultPlan::new(),
        ft: FtConfig {
            detect_timeout: SimTime::from_micros(300),
            ckpt_max_chunk: 16 * 1024,
            ckpt_copies: 2,
        },
    }
}

fn parts(nodes: usize) -> Vec<Rc<Vec<u8>>> {
    (0..nodes).map(|_| gen(150_000, 32)).collect()
}

const NODES: usize = 4;
const PACKED: usize = 2;

/// One packed elastic run of the shared input under `director`.
fn run_elastic(
    cfg: RunConfig,
    director: &mut dyn ScaleDirector,
) -> (RunReport, RecoveryReport, RescaleReport) {
    let out = SlashCluster::builder(count_plan(), parts(NODES), cfg)
        .chaos(&chaos())
        .elastic(&ElasticConfig::packed(NODES, PACKED), director)
        .run();
    (out.run, out.recovery, out.rescale)
}

#[test]
fn controller_scales_out_under_diurnal_load_exactly() {
    // Probe: unpaced packed run calibrates the per-host service rate.
    let (probe, _, _) = run_elastic(cfg(NODES), &mut StaticDirector);
    let cluster_rps =
        probe.records as f64 * 1.0e9 / probe.completion_time.as_nanos() as f64;
    let host_rps = cluster_rps / PACKED as f64;

    // Diurnal curve per source: calm at 30% of packed capacity, then a
    // surge the packed cluster cannot serve that four spread hosts can.
    let per_source = |frac: f64| (frac * cluster_rps / NODES as f64) as u64;
    let curve = RateCurve::new(&[
        (SimTime::ZERO, per_source(0.30)),
        (SimTime::from_micros(400), per_source(2.60)),
    ]);
    let mut paced_cfg = cfg(NODES);
    paced_cfg.pacing = Some(curve);

    // Static reference: same curve, no controller — the exactness and
    // completion-time baseline.
    let (base, base_rec, base_rescale) = run_elastic(paced_cfg, &mut StaticDirector);
    assert!(base_rescale.migrations.is_empty());

    let mut ctl_cfg = ControllerConfig::new(PACKED, NODES, host_rps);
    ctl_cfg.cooldown = SimTime::from_micros(200);
    ctl_cfg.backlog_high = 20_000;
    let mut controller = ScaleController::new(ctl_cfg);
    let (run, rec, rescale) = run_elastic(paced_cfg, &mut controller);

    // The surge must have forced a spread onto parked hosts...
    assert!(
        rescale.peak_hosts > PACKED,
        "controller never scaled out: {:?}",
        controller.decisions()
    );
    assert!(controller
        .decisions()
        .iter()
        .any(|d| matches!(d, Decision::Out { .. })));
    // ...without losing or duplicating a single record.
    assert_eq!(run.records, base.records, "exactly-once across migrations");
    assert_eq!(rec.results_digest, base_rec.results_digest);
    assert_eq!(rec.state_digests, base_rec.state_digests);
    assert_eq!(rescale.aborted(), 0, "{:?}", rescale.migrations);
    // The elastic run must beat the overloaded static cluster.
    assert!(
        run.completion_time < base.completion_time,
        "scale-out must pay off: {:?} vs {:?}",
        run.completion_time,
        base.completion_time
    );
    // Every cutover stall is bounded (well under the detection timeout).
    let stall = rescale.max_stall().expect("at least one migration");
    assert!(
        stall < SimTime::from_millis(1),
        "cutover stall must stay bounded: {stall:?}"
    );
}
