//! The names, units, clocks and bounds of every metric the ledger emits.
//! `BENCHMARK.json` lists the same names; a unit test holds the two equal.

use crate::stats::Summary;

/// What a metric was measured against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall clock (`std::time::Instant`).
    Wall,
    /// The simulator's virtual clock: deterministic for a fixed seed.
    Virtual,
    /// A count or a size; no clock involved.
    None,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "host wall",
            Clock::Virtual => "sim virtual",
            Clock::None => "none",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// End-to-end metrics only: the share of the baseline median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Clock::{Virtual, Wall};

pub const END_TO_END: [MetricDef; 4] = [
    e2e("wall_records_per_s", "1/s", Higher, Wall, 0.25),
    e2e("virt_records_per_s", "1/s", Higher, Virtual, 0.04),
    e2e("peak_rss_mb", "MB", Lower, Clock::None, 0.2),
    e2e("setup_s", "s", Lower, Wall, 0.25),
];

pub const PER_LAYER: [MetricDef; 61] = [
    // (a) Probes: host-clock time per operation of one layer's public call.
    layer("desim.event_dispatch_ns", "ns", Lower, Wall),
    layer("desim.proc_step_ns", "ns", Lower, Wall),
    layer("rdma.write_post_poll_ns", "ns", Lower, Wall),
    layer("net.rdma_chan_msg_ns", "ns", Lower, Wall),
    layer("net.rdma_chan_empty_poll_ns", "ns", Lower, Wall),
    layer("net.spsc_msg_ns", "ns", Lower, Wall),
    layer("net.spsc_xthread_msg_ns", "ns", Lower, Wall),
    layer("state.delta_encode_entry_ns", "ns", Lower, Wall),
    layer("state.delta_decode_entry_ns", "ns", Lower, Wall),
    layer("state.epoch_close_key_ns", "ns", Lower, Wall),
    layer("state.epoch_merge_entry_ns", "ns", Lower, Wall),
    layer("state.crdt_merge_ns", "ns", Lower, Wall),
    layer("state.index_probe_cold_ns", "ns", Lower, Wall),
    layer("state.rmw_cold_ns", "ns", Lower, Wall),
    layer("state.drain_scan_key_ns", "ns", Lower, Wall),
    layer("state.drain_emit_key_ns", "ns", Lower, Wall),
    layer("state.lss_append_ns", "ns", Lower, Wall),
    layer("state.append_batch_elem_ns", "ns", Lower, Wall),
    layer("state.index_probe_hot_ns", "ns", Lower, Wall),
    layer("state.rmw_hot_ns", "ns", Lower, Wall),
    layer("state.combiner_fold_ns", "ns", Lower, Wall),
    layer("state.combiner_flush_key_ns", "ns", Lower, Wall),
    layer("core.window_assign_ns", "ns", Lower, Wall),
    layer("core.hotpath_record_ns", "ns", Lower, Wall),
    layer("exec.thread_job_fixed_us", "us", Lower, Wall),
    layer("exec.sim_job_fixed_us", "us", Lower, Wall),
    layer("obs.hist_record_ns", "ns", Lower, Wall),
    layer("obs.span_ns", "ns", Lower, Wall),
    layer("workloads.gen_record_ns", "ns", Lower, Wall),
    // (b) Traced run: counts at the layer boundaries of one traced job.
    layer("core.records", "count", Higher, Clock::None),
    layer("core.state_updates", "count", Lower, Clock::None),
    layer("core.combiner_folds", "count", Higher, Clock::None),
    layer("core.combiner_flushes", "count", Lower, Clock::None),
    layer("core.combiner_hit_ratio", "ratio", Higher, Clock::None),
    layer("core.emitted", "count", Higher, Clock::None),
    layer("core.join_pairs", "count", Higher, Clock::None),
    layer("net.tx_bytes", "B", Lower, Clock::None),
    layer("net.tx_bytes_per_record", "B", Lower, Clock::None),
    layer("net.chan_buffers", "count", Lower, Clock::None),
    layer("net.chan_credit_stalls", "count", Lower, Clock::None),
    layer("net.chan_empty_polls", "count", Lower, Clock::None),
    layer("net.poll_useful_ratio", "ratio", Higher, Clock::None),
    layer("state.partition_skew", "ratio", Lower, Clock::None),
    layer("core.stage.source.mean_ns", "ns", Lower, Virtual),
    layer("core.stage.ssb_apply.mean_ns", "ns", Lower, Virtual),
    layer("core.stage.window_close.mean_ns", "ns", Lower, Virtual),
    layer("core.stage.epoch_merge.mean_ns", "ns", Lower, Virtual),
    layer("core.stage.result_emit.mean_ns", "ns", Lower, Virtual),
    layer("core.stage.channel_transit.mean_ns", "ns", Lower, Virtual),
    layer("exec.virt_drain_us", "us", Lower, Virtual),
    layer("exec.job_ms_p50", "ms", Lower, Wall),
    layer("exec.job_ms_p90", "ms", Lower, Wall),
    layer("obs.overhead_pct", "%", Lower, Wall),
    // (c) Traced replay: self-time shares of the ledger's own driver.
    layer("replay.hotpath_share", "ratio", Lower, Wall),
    layer("replay.close_epoch_share", "ratio", Lower, Wall),
    layer("replay.pump_share", "ratio", Lower, Wall),
    layer("replay.sim_run_share", "ratio", Lower, Wall),
    layer("replay.drain_share", "ratio", Lower, Wall),
    layer("replay.other_share", "ratio", Lower, Wall),
    layer("replay.coverage", "ratio", Lower, Wall),
    layer("replay.job_ms", "ms", Lower, Wall),
];

/// Names are made of letters, digits, `_`, `.` and `-`, start with a
/// letter or digit, and are at most 64 long.
#[cfg(test)]
pub fn is_plain_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured metric: its definition plus the samples' summary. The
/// summary's median is the value reported.
#[derive(Debug, Clone)]
pub struct Measured {
    pub def: &'static MetricDef,
    pub summary: Summary,
}

/// Look `name` up in `defs` and attach the summary. Emitting a name the
/// catalogue does not list is a bug in the ledger.
pub fn measured(defs: &'static [MetricDef], name: &str, summary: Summary) -> Measured {
    let def = defs
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
    Measured { def, summary }
}

/// A per-layer metric read once (a count, a share, a deterministic time).
pub fn layer_value(name: &str, value: f64) -> Measured {
    measured(&PER_LAYER, name, Summary::single(value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workload::WORKLOADS;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
    }

    #[test]
    fn metric_names_are_plain_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        for n in &names {
            assert!(is_plain_name(n), "{n}");
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used twice");
        assert!(!is_plain_name(".hidden") && !is_plain_name("a b") && !is_plain_name(""));
    }

    /// The names, units, directions and bounds the ledger emits are
    /// exactly the ones BENCHMARK.json lists, in the same order.
    #[test]
    fn catalogue_equals_benchmark_json() {
        let b = benchmark_json();
        let listed = |section: &str| -> Vec<Value> {
            b.get(section)
                .and_then(Value::as_arr)
                .expect(section)
                .to_vec()
        };
        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, d) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), d.name);
            assert_eq!(field(j, "unit"), d.unit, "{}", d.name);
            assert_eq!(field(j, "better"), d.better.label(), "{}", d.name);
            assert_eq!(
                j.get("bound").and_then(Value::as_f64),
                d.bound,
                "{}",
                d.name
            );
        }
        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, d) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), d.name);
            assert_eq!(field(j, "unit"), d.unit, "{}", d.name);
            assert_eq!(field(j, "better"), d.better.label(), "{}", d.name);
        }
        let workloads = listed("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
        }
    }
}
