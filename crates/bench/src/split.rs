//! Online hot-key splitting under keyed zipfian ingress (`repro split`).
//!
//! Fig. 8d (§8.3.2) shows Slash tolerating value skew under balanced
//! ingress; here keyed ingress funnels a hot key's records and deltas into
//! one node. `ysb_zipf_keyed(θ)` runs without and with the split director
//! (online detection plus record forwarding) for θ ∈ [`THETAS`] on
//! [`NODES`] nodes, in virtual time. `repro split` fails when split-on is
//! below [`FLOOR`]× split-off at θ = [`GATE_THETA`]; exactness is the
//! exactness matrix's (`tests/exactness/mod.rs`).

use slash_core::{HeatPolicy, RunConfig, SlashCluster, SplitRunConfig};
use slash_desim::SimTime;
use slash_workloads::{ysb_zipf_keyed, GenConfig};

use crate::report::Table;

/// Cluster size (the paper's testbed has 16 nodes; 12 keeps the sweep
/// short while leaving the hot node's share far above 1/n).
pub const NODES: usize = 12;
/// Records per node. Fixed, not scaled by `SLASH_RECORDS`: the floor is
/// calibrated at this size.
pub const RECORDS_PER_NODE: u64 = 60_000;
/// Zipf θ of the sweep: 0 (uniform control) through 1.5 (extreme skew,
/// hot key ≈ 38 % of the stream).
pub const THETAS: [f64; 5] = [0.0, 0.5, 0.9, 1.1, 1.5];
/// The θ the gate reads.
pub const GATE_THETA: f64 = 1.1;
/// Split-on over split-off rate the gate requires at [`GATE_THETA`].
pub const FLOOR: f64 = 1.5;

/// One θ of the sweep, split-on vs split-off.
#[derive(Debug, Clone, Copy)]
pub struct SplitPoint {
    /// Zipf θ of the key distribution.
    pub theta: f64,
    /// Largest partition's share of the input — the load the hot node
    /// carries without splitting (1/[`NODES`] is balanced).
    pub hot_node_share: f64,
    /// Virtual-time rate with online splitting and forwarding (records/s).
    pub on_rps: f64,
    /// Virtual-time rate of the plain engine (records/s).
    pub off_rps: f64,
    /// Keys split.
    pub splits: usize,
    /// Records forwarded off their ingress node.
    pub forwarded_records: u64,
}

impl SplitPoint {
    /// Split-on over split-off rate.
    pub fn speedup(&self) -> f64 {
        if self.off_rps > 0.0 {
            self.on_rps / self.off_rps
        } else {
            0.0
        }
    }
}

fn run_point(theta: f64) -> SplitPoint {
    let w = ysb_zipf_keyed(&GenConfig::new(NODES, RECORDS_PER_NODE), theta);
    let total_bytes: usize = w.partitions.iter().map(|p| p.len()).sum();
    let hot_node_share = w.partitions.iter().map(|p| p.len()).max().unwrap_or(0) as f64
        / (total_bytes.max(1)) as f64;
    let mut cfg = RunConfig::new(NODES, 1);
    cfg.collect_results = true;
    cfg.epoch_bytes = 64 * 1024;
    // The write combiner is off on both sides: with it on, a hot
    // count-key is nearly free locally (§8.3.2), and what splitting and
    // forwarding fix — the per-record pipeline and state work keyed
    // ingress piles onto one node — would be hidden.
    cfg.combine = false;

    let off = SlashCluster::run(w.plan.clone(), w.partitions.clone(), cfg);
    let scfg = SplitRunConfig {
        auto: Some(HeatPolicy {
            // Provably hot at 4 % of observed updates: in the 10 k-key
            // domain only skewed heads qualify (uniform keys sit at 0.01 %).
            hot_ppm: 40_000,
            min_total: 2_000,
            max_splits: 8,
        }),
        sample_every: SimTime::from_micros(20),
        forward: true,
        ..SplitRunConfig::default()
    };
    let on = SlashCluster::builder(w.plan.clone(), w.partitions.clone(), cfg)
        .split(&scfg)
        .run();
    SplitPoint {
        theta,
        hot_node_share,
        on_rps: on.run.throughput(),
        off_rps: off.throughput(),
        splits: on.split.splits.len(),
        forwarded_records: on.split.forwarded_records,
    }
}

/// Run the sweep, one point per θ of [`THETAS`].
pub fn run() -> Vec<SplitPoint> {
    THETAS.iter().map(|&theta| run_point(theta)).collect()
}

/// The gate's verdict: `Some(reason)` when split-on is below [`FLOOR`]×
/// split-off at θ = [`GATE_THETA`], or that point is missing.
pub fn gate(points: &[SplitPoint]) -> Option<String> {
    match points.iter().find(|p| p.theta == GATE_THETA) {
        None => Some(format!("no point at theta = {GATE_THETA}")),
        Some(p) if p.speedup() < FLOOR => Some(format!(
            "split-on at theta = {GATE_THETA} is {:.2}x split-off, below the {FLOOR}x floor",
            p.speedup()
        )),
        Some(_) => None,
    }
}

/// Render the sweep as the figure's table.
pub fn table(points: &[SplitPoint]) -> Table {
    let mut t = Table::new(
        format!(
            "Hot-key splitting: keyed ysb_zipf_keyed, {NODES} nodes x \
             {RECORDS_PER_NODE} records, virtual time"
        ),
        &[
            "theta",
            "hot_node_share",
            "split_on_rps",
            "split_off_rps",
            "speedup",
            "splits",
            "forwarded",
        ],
    );
    for p in points {
        t.row(vec![
            format!("{:.2}", p.theta),
            format!("{:.4}", p.hot_node_share),
            format!("{:.0}", p.on_rps),
            format!("{:.0}", p.off_rps),
            format!("{:.3}", p.speedup()),
            p.splits.to_string(),
            p.forwarded_records.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(theta: f64, on_rps: f64) -> SplitPoint {
        SplitPoint {
            theta,
            hot_node_share: 0.0,
            on_rps,
            off_rps: 1.0,
            splits: 0,
            forwarded_records: 0,
        }
    }

    #[test]
    fn the_floor_reads_the_gate_theta_only() {
        // Below the floor at 1.1 fails, however well the others do.
        let under = [point(0.9, 9.0), point(GATE_THETA, 1.49), point(1.5, 9.0)];
        assert!(gate(&under).is_some());
        // At or above it passes, however the others do.
        let at = [point(0.9, 1.0), point(GATE_THETA, FLOOR), point(1.5, 1.0)];
        assert_eq!(gate(&at), None);
        assert_eq!(gate(&[point(GATE_THETA, 2.0)]), None);
        // A sweep without the gated point fails.
        assert!(gate(&[point(1.5, 9.0)]).is_some());
    }
}
