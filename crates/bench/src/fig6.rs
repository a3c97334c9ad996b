//! Figure 6: end-to-end throughput of Flink, RDMA UpPar, and Slash on
//! YSB (a), CM (b), NB7 (c), NB8 (d), NB11 (e), weak-scaled over
//! 2, 4, 8, and 16 nodes.

use crate::report::Table;
use slash_workloads::{cm, nb11, nb7, nb8, ysb};

use crate::scale::Scale;
use crate::suts::{self, WorkloadGen};

/// The node counts of the paper's weak-scaling sweep.
pub const NODE_COUNTS: [usize; 4] = [2, 4, 8, 16];

/// Throughput of the three SUTs at one node count.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Point {
    /// Cluster size.
    pub nodes: usize,
    /// Flink-sim records/s.
    pub flink: f64,
    /// RDMA UpPar records/s.
    pub uppar: f64,
    /// Slash records/s.
    pub slash: f64,
}

/// The generator for one of the five sub-figures.
pub fn query_gen(query: &str) -> WorkloadGen {
    match query {
        "ysb" => ysb,
        "cm" => cm,
        "nb7" => nb7,
        "nb8" => nb8,
        "nb11" => nb11,
        other => panic!("unknown fig6 query {other:?} (ysb|cm|nb7|nb8|nb11)"),
    }
}

/// Run one sub-figure across the node sweep.
pub fn run(query: &str, scale: Scale, node_counts: &[usize]) -> Vec<Fig6Point> {
    let gen = query_gen(query);
    node_counts
        .iter()
        .map(|&nodes| Fig6Point {
            nodes,
            flink: suts::flink(gen, nodes, scale).throughput(),
            uppar: suts::uppar(gen, nodes, scale).throughput(),
            slash: suts::slash(gen, nodes, scale).throughput(),
        })
        .collect()
}

/// Render one sub-figure as a table.
pub fn table(query: &str, points: &[Fig6Point]) -> Table {
    let mut t = Table::new(
        format!("Fig. 6 ({query}): throughput in records/s"),
        &[
            "nodes",
            "flink",
            "uppar",
            "slash",
            "slash/uppar",
            "slash/flink",
        ],
    );
    for p in points {
        t.row(vec![
            p.nodes.to_string(),
            format!("{:.3e}", p.flink),
            format!("{:.3e}", p.uppar),
            format!("{:.3e}", p.slash),
            format!("{:.1}x", p.slash / p.uppar),
            format!("{:.1}x", p.slash / p.flink),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ysb_shape_holds_at_small_scale() {
        let points = run("ysb", Scale::tiny(), &[2, 4]);
        for p in &points {
            assert!(p.slash > p.uppar, "{p:?}");
            assert!(p.uppar > p.flink, "{p:?}");
        }
        // Weak scaling: Slash throughput grows with nodes.
        assert!(points[1].slash > 1.5 * points[0].slash);
    }

    #[test]
    #[should_panic(expected = "unknown fig6 query")]
    fn unknown_query_rejected() {
        query_gen("nope");
    }
}
