//! The traced run: jobs with `Obs::enabled`, alternating with untraced
//! jobs so that the difference between the two is the tracing overhead.
//! Counts are read from the traced job's `RunReport` and metric registry —
//! the engine's own counters at its layer boundaries.

use std::time::Instant;

use slash_core::RunReport;
use slash_obs::{Obs, Stage, STAGE_HIST};

use crate::catalog::{layer_value, Measured};
use crate::e2e::{verify, Ready, Tally};
use crate::stats::{percentile, Summary};
use crate::workload::Workload;

/// Trace-ring capacity of a traced job (events; the ring keeps the tail).
pub const RING: usize = 1 << 16;

pub struct TracedWindow {
    pub metrics: Vec<Measured>,
    /// Median wall seconds of the untraced jobs (the replay's yardstick).
    pub untraced_job_s: f64,
}

/// Alternate untraced and traced jobs until `seconds` have passed; at
/// least one pair.
pub fn run(
    w: &Workload,
    ready: &Ready,
    ref_obs: &Obs,
    seconds: f64,
    tally: &mut Tally,
) -> TracedWindow {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut last: Option<(RunReport, Obs)> = None;
    let window = Instant::now();
    loop {
        for obs in [Obs::disabled(), Obs::enabled(RING)] {
            let input = ready.partitions.clone();
            let start = Instant::now();
            let report = w.run(w.backend, input, w.cfg(), obs.clone());
            let dt = start.elapsed().as_secs_f64();
            let problem = verify(report.as_ref(), &ready.expected);
            let what = if obs.is_enabled() {
                "traced job"
            } else {
                "untraced job"
            };
            match (report, &problem) {
                (Some(r), None) if obs.is_enabled() => {
                    traced.push(dt);
                    last = Some((r, obs));
                }
                (Some(_), None) => untraced.push(dt),
                _ => {}
            }
            tally.note(what, problem);
        }
        if window.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let Some((report, obs)) = last else {
        eprintln!("FAILED {}: no traced job verified", w.name);
        std::process::exit(1);
    };
    if untraced.is_empty() {
        eprintln!("FAILED {}: no untraced job verified", w.name);
        std::process::exit(1);
    }

    let job_ms: Vec<f64> = untraced.iter().map(|s| s * 1e3).collect();
    let untraced_job_s = Summary::of(&untraced).median;
    let overhead = (Summary::of(&traced).median / untraced_job_s - 1.0) * 100.0;
    let mut metrics = counts(&report, &obs);
    let mut one = |name: &str, v: f64| metrics.push(layer_value(name, v));
    one(
        "exec.virt_drain_us",
        virt_drain_us(&ready.reference, ref_obs),
    );
    one("exec.job_ms_p50", percentile(&job_ms, 50.0));
    one("exec.job_ms_p90", percentile(&job_ms, 90.0));
    one("obs.overhead_pct", overhead);
    println!(
        "# {}: {} untraced and {} traced jobs alternated; exec.job_ms_p90 has {} samples{}",
        w.name,
        untraced.len(),
        traced.len(),
        job_ms.len(),
        if job_ms.len() >= 100 {
            ""
        } else {
            " (fewer than the 100 a p90 needs: read it as indicative)"
        },
    );
    TracedWindow {
        metrics,
        untraced_job_s,
    }
}

/// Virtual time from the last record ingested to the last delta installed
/// at a leader (the final trigger sweep runs in that same worker step).
/// `RunReport::completion_time` cannot be used for this: the cluster loop
/// advances the clock in 10 ms horizons, so it is rounded up to one.
fn virt_drain_us(reference: &RunReport, ref_obs: &Obs) -> f64 {
    let last_install = ref_obs
        .events()
        .iter()
        .filter(|e| e.name == "epoch-install")
        .map(|e| e.ts.as_nanos())
        .max()
        .unwrap_or(0);
    last_install.saturating_sub(reference.processing_time.as_nanos()) as f64 / 1e3
}

/// The engine's counters for one traced job.
fn counts(report: &RunReport, obs: &Obs) -> Vec<Measured> {
    let records = report.records as f64;
    let m = &report.metrics;
    // Both ends of a channel publish under one label, so `chan_buffers`
    // sums buffers sent and buffers consumed: halve it.
    let (mut buffers2, mut stalls, mut empty) = (0u64, 0u64, 0u64);
    let mut per_partition: Vec<u64> = Vec::new();
    let mut stage_mean = [0.0; Stage::ALL.len()];
    obs.with_registry(|r| {
        for (name, label, v) in r.counters() {
            match name {
                "chan_buffers" => buffers2 += v,
                "chan_credit_stalls" => stalls += v,
                "chan_empty_polls" => empty += v,
                "partition_updates" => {
                    let part = label
                        .rsplit("part=")
                        .next()
                        .and_then(|p| p.parse::<usize>().ok());
                    if let Some(p) = part {
                        if per_partition.len() <= p {
                            per_partition.resize(p + 1, 0);
                        }
                        per_partition[p] += v;
                    }
                }
                _ => {}
            }
        }
        for (slot, stage) in stage_mean.iter_mut().zip(Stage::ALL) {
            // Sum over count, not `Histogram::mean`, which truncates to
            // whole nanoseconds — a fifth of a 5 ns stage.
            *slot = r
                .hist(STAGE_HIST, stage.name())
                .filter(|h| h.count() > 0)
                .map_or(0.0, |h| h.sum() as f64 / h.count() as f64);
        }
    });
    let buffers = buffers2 as f64 / 2.0;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let updates: f64 = per_partition.iter().sum::<u64>() as f64;
    let skew = ratio(
        per_partition.iter().copied().max().unwrap_or(0) as f64,
        updates / per_partition.len().max(1) as f64,
    );

    let mut out = Vec::new();
    let mut one = |name: &str, v: f64| out.push(layer_value(name, v));
    one("core.records", records);
    one("core.state_updates", m.state_updates as f64);
    one("core.combiner_folds", m.combiner_folds as f64);
    one("core.combiner_flushes", m.combiner_flushes as f64);
    one(
        "core.combiner_hit_ratio",
        ratio(
            m.combiner_folds.saturating_sub(m.combiner_flushes) as f64,
            m.combiner_folds as f64,
        ),
    );
    one("core.emitted", report.emitted as f64);
    one("core.join_pairs", report.total_pairs as f64);
    one("net.tx_bytes", report.net_tx_bytes as f64);
    one(
        "net.tx_bytes_per_record",
        ratio(report.net_tx_bytes as f64, records),
    );
    one("net.chan_buffers", buffers);
    one("net.chan_credit_stalls", stalls as f64);
    one("net.chan_empty_polls", empty as f64);
    one(
        "net.poll_useful_ratio",
        ratio(buffers, buffers + empty as f64),
    );
    one("state.partition_skew", skew);
    for (stage, mean) in Stage::ALL.iter().zip(stage_mean) {
        one(&format!("core.stage.{}.mean_ns", stage.name()), mean);
    }
    out
}
