//! Figure 7: COST analysis — LightSaber (single node) against Slash on
//! 2–16 nodes, on the aggregation workloads both support (YSB, CM, NB7).

use crate::report::Table;

use crate::fig6::query_gen;
use crate::scale::Scale;
use crate::suts;

/// One workload's COST sweep.
#[derive(Debug, Clone)]
pub struct Fig7Series {
    /// Workload name.
    pub query: &'static str,
    /// LightSaber single-node throughput.
    pub lightsaber: f64,
    /// Slash throughput at 2, 4, 8, 16 nodes.
    pub slash: Vec<(usize, f64)>,
}

impl Fig7Series {
    /// The COST headline: Slash's best speedup over LightSaber.
    pub fn max_speedup(&self) -> f64 {
        self.slash
            .iter()
            .map(|(_, t)| t / self.lightsaber)
            .fold(0.0, f64::max)
    }
}

/// The queries of the paper's COST comparison (LightSaber has no joins).
pub const QUERIES: [&str; 3] = ["ysb", "cm", "nb7"];

/// Run the COST sweep for one query.
pub fn run(query: &'static str, scale: Scale, node_counts: &[usize]) -> Fig7Series {
    let gen = query_gen(query);
    Fig7Series {
        query,
        lightsaber: suts::lightsaber(gen, scale).throughput(),
        slash: node_counts
            .iter()
            .map(|&n| (n, suts::slash(gen, n, scale).throughput()))
            .collect(),
    }
}

/// Render the COST table.
pub fn table(series: &[Fig7Series]) -> Table {
    let mut t = Table::new(
        "Fig. 7: COST comparison against LightSaber (records/s)",
        &[
            "query",
            "lightsaber(1)",
            "slash(2)",
            "slash(4)",
            "slash(8)",
            "slash(16)",
            "max speedup",
        ],
    );
    for s in series {
        let mut row = vec![s.query.to_string(), format!("{:.3e}", s.lightsaber)];
        for n in [2usize, 4, 8, 16] {
            match s.slash.iter().find(|(nn, _)| *nn == n) {
                Some((_, tp)) => row.push(format!("{tp:.3e}")),
                None => row.push("-".to_string()),
            }
        }
        row.push(format!("{:.1}x", s.max_speedup()));
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slash_overtakes_lightsaber_by_scaling_out() {
        let s = run("ysb", Scale::tiny(), &[2, 4]);
        // A single LightSaber node is competitive, but Slash on 4 nodes
        // must already be well ahead (the paper's COST conclusion).
        let slash4 = s.slash.iter().find(|(n, _)| *n == 4).unwrap().1;
        assert!(
            slash4 > 1.5 * s.lightsaber,
            "slash(4)={slash4:.3e} ls={:.3e}",
            s.lightsaber
        );
        assert!(s.max_speedup() > 1.5);
    }
}
