//! Figure 8: the drill-down sweeps — buffer size vs throughput (a) and
//! latency (b), parallelism vs throughput (c), and skew vs throughput (d).

use crate::report::Table;
use slash_desim::SimTime;
use slash_workloads::{ysb_zipf, GenConfig, Workload};

use crate::micro::{run_micro, KeyDist, MicroConfig, RouteMode};
use crate::scale::Scale;

/// The measured network ceiling the paper marks in red (GB/s).
pub const LINE_RATE_GBS: f64 = 11.8;

/// The paper's buffer-size sweep.
pub const BUFFER_SIZES: [usize; 6] = [
    4 * 1024,
    16 * 1024,
    64 * 1024,
    256 * 1024,
    1024 * 1024,
    4 * 1024 * 1024,
];

/// One point of the buffer-size sweep.
#[derive(Debug, Clone, Copy)]
pub struct BufferPoint {
    /// Buffer size in bytes.
    pub buffer: usize,
    /// Slash-style (direct) goodput, GB/s.
    pub slash_gbs: f64,
    /// UpPar-style (fanout) goodput, GB/s.
    pub uppar_gbs: f64,
    /// Slash mean buffer latency.
    pub slash_latency: SimTime,
    /// UpPar mean buffer latency.
    pub uppar_latency: SimTime,
}

fn micro_cfg(mode: RouteMode, threads: usize, scale: Scale) -> MicroConfig {
    let mut cfg = MicroConfig::new(mode, threads);
    cfg.records_per_thread = scale.records.max(20_000);
    cfg
}

/// Fig. 8a/8b: sweep the channel buffer size on the 2-server RO setup.
pub fn run_buffer_sweep(scale: Scale, threads: usize) -> Vec<BufferPoint> {
    BUFFER_SIZES
        .iter()
        .map(|&buffer| {
            let mut d = micro_cfg(RouteMode::Direct, threads, scale);
            d.buffer_size = buffer;
            let direct = run_micro(d);
            let mut f = micro_cfg(RouteMode::HashFanout, threads, scale);
            f.buffer_size = buffer;
            let fanout = run_micro(f);
            BufferPoint {
                buffer,
                slash_gbs: direct.throughput_gbs(),
                uppar_gbs: fanout.throughput_gbs(),
                slash_latency: direct.mean_latency.unwrap_or(SimTime::ZERO),
                uppar_latency: fanout.mean_latency.unwrap_or(SimTime::ZERO),
            }
        })
        .collect()
}

/// Render Fig. 8a.
pub fn table_8a(points: &[BufferPoint]) -> Table {
    let mut t = Table::new(
        format!("Fig. 8a: buffer size vs throughput (GB/s; line rate {LINE_RATE_GBS})"),
        &["buffer", "slash", "uppar", "slash %line", "uppar %line"],
    );
    for p in points {
        t.row(vec![
            human_bytes(p.buffer),
            format!("{:.2}", p.slash_gbs),
            format!("{:.2}", p.uppar_gbs),
            format!("{:.0}%", 100.0 * p.slash_gbs / LINE_RATE_GBS),
            format!("{:.0}%", 100.0 * p.uppar_gbs / LINE_RATE_GBS),
        ]);
    }
    t
}

/// Render Fig. 8b.
pub fn table_8b(points: &[BufferPoint]) -> Table {
    let mut t = Table::new(
        "Fig. 8b: buffer size vs mean buffer latency",
        &["buffer", "slash", "uppar"],
    );
    for p in points {
        t.row(vec![
            human_bytes(p.buffer),
            p.slash_latency.to_string(),
            p.uppar_latency.to_string(),
        ]);
    }
    t
}

/// One point of the parallelism sweep (Fig. 8c).
#[derive(Debug, Clone, Copy)]
pub struct ParallelismPoint {
    /// Producer threads.
    pub threads: usize,
    /// Node pairs.
    pub pairs: usize,
    /// Direct goodput, GB/s (per pair).
    pub slash_gbs: f64,
    /// Fanout goodput, GB/s (per pair).
    pub uppar_gbs: f64,
}

/// Fig. 8c: scale producer threads (and node pairs).
pub fn run_parallelism_sweep(scale: Scale, thread_counts: &[usize]) -> Vec<ParallelismPoint> {
    thread_counts
        .iter()
        .map(|&threads| {
            let direct = run_micro(micro_cfg(RouteMode::Direct, threads, scale));
            let fanout = run_micro(micro_cfg(RouteMode::HashFanout, threads, scale));
            ParallelismPoint {
                threads,
                pairs: 1,
                slash_gbs: direct.throughput_gbs(),
                uppar_gbs: fanout.throughput_gbs(),
            }
        })
        .collect()
}

/// Render Fig. 8c.
pub fn table_8c(points: &[ParallelismPoint]) -> Table {
    let mut t = Table::new(
        format!("Fig. 8c: parallelism vs throughput (GB/s; line rate {LINE_RATE_GBS})"),
        &["threads", "slash", "uppar"],
    );
    for p in points {
        t.row(vec![
            p.threads.to_string(),
            format!("{:.2}", p.slash_gbs),
            format!("{:.2}", p.uppar_gbs),
        ]);
    }
    t
}

/// One point of the skew sweep (Fig. 8d).
#[derive(Debug, Clone, Copy)]
pub struct SkewPoint {
    /// Zipf exponent.
    pub z: f64,
    /// RO via direct channels (Slash), GB/s.
    pub ro_slash_gbs: f64,
    /// RO via hash fanout (UpPar), GB/s.
    pub ro_uppar_gbs: f64,
    /// YSB on the Slash engine, records/s.
    pub ysb_slash: f64,
    /// YSB on the UpPar engine, records/s.
    pub ysb_uppar: f64,
}

/// The paper's skew sweep.
pub const SKEW_Z: [f64; 6] = [0.2, 0.6, 1.0, 1.4, 1.8, 2.0];

/// Fig. 8d: sweep the Zipf exponent of the partitioning key.
pub fn run_skew_sweep(scale: Scale, zs: &[f64]) -> Vec<SkewPoint> {
    zs.iter()
        .map(|&z| {
            // RO on the 2-server micro setup.
            let mut d = micro_cfg(RouteMode::Direct, scale.workers, scale);
            d.keys = KeyDist::Zipf(100_000_000, z);
            let mut f = micro_cfg(RouteMode::HashFanout, scale.workers, scale);
            f.keys = KeyDist::Zipf(100_000_000, z);
            // YSB on the full engines at 2 nodes.
            let ysb_gen = move |cfg: &GenConfig| -> Workload { ysb_zipf(cfg, z) };
            let slash = suts_run_ysb(ysb_gen, true, scale);
            let uppar = suts_run_ysb(ysb_gen, false, scale);
            SkewPoint {
                z,
                ro_slash_gbs: run_micro(d).throughput_gbs(),
                ro_uppar_gbs: run_micro(f).throughput_gbs(),
                ysb_slash: slash,
                ysb_uppar: uppar,
            }
        })
        .collect()
}

fn suts_run_ysb(gen: impl Fn(&GenConfig) -> Workload, slash: bool, scale: Scale) -> f64 {
    let nodes = 2;
    if slash {
        let w = gen(&GenConfig::new(nodes * scale.workers, scale.records));
        let cfg = slash_core::RunConfig::new(nodes, scale.workers);
        slash_core::SlashCluster::run(w.plan, w.partitions, cfg).throughput()
    } else {
        let senders = (scale.workers / 2).max(1);
        let per = scale.records * scale.workers as u64 / senders as u64;
        let w = gen(&GenConfig::new(nodes * senders, per));
        let cfg = slash_baselines::uppar::uppar_config(nodes, scale.workers);
        slash_baselines::partitioned::run_partitioned(w.plan, w.partitions, cfg).throughput()
    }
}

/// Render Fig. 8d.
pub fn table_8d(points: &[SkewPoint]) -> Table {
    let mut t = Table::new(
        "Fig. 8d: skew (Zipf z) vs throughput",
        &[
            "z",
            "RO slash GB/s",
            "RO uppar GB/s",
            "YSB slash rec/s",
            "YSB uppar rec/s",
        ],
    );
    for p in points {
        t.row(vec![
            format!("{:.1}", p.z),
            format!("{:.2}", p.ro_slash_gbs),
            format!("{:.2}", p.ro_uppar_gbs),
            format!("{:.3e}", p.ysb_slash),
            format!("{:.3e}", p.ysb_uppar),
        ]);
    }
    t
}

/// Pretty-print a byte count.
pub fn human_bytes(b: usize) -> String {
    if b >= 1024 * 1024 {
        format!("{}MiB", b / (1024 * 1024))
    } else {
        format!("{}KiB", b / 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(4096), "4KiB");
        assert_eq!(human_bytes(4 * 1024 * 1024), "4MiB");
    }

    #[test]
    fn buffer_sweep_shape() {
        let mut scale = Scale::tiny();
        scale.records = 20_000;
        let points = run_buffer_sweep(scale, 2);
        // Slash beats UpPar at every buffer size.
        for p in &points {
            assert!(p.slash_gbs > p.uppar_gbs, "{p:?}");
            assert!(p.slash_gbs <= LINE_RATE_GBS + 0.2);
        }
        // Latency grows with buffer size.
        assert!(points.last().unwrap().slash_latency > points[0].slash_latency);
    }
}
