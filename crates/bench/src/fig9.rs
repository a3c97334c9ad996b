//! Figures 9 & 10 and Table 1: the micro-architecture drill-down.
//!
//! Fig. 9 breaks down the RO benchmark's execution into top-down
//! categories for UpPar's sender/receiver (2 and 10 threads) and Slash;
//! Fig. 10 does the same for YSB; Table 1 reports per-record resource
//! utilization on YSB at 2 nodes. All values are software proxies (see
//! [`crate::uarch`]); the paper's *relative* claims are what the
//! integration tests assert.

use slash_workloads::ysb;

use crate::micro::{run_micro, MicroConfig, RouteMode};
use crate::report::Table;
use crate::scale::Scale;
use crate::suts;
use crate::uarch::{breakdown_row, table1_row, BreakdownRow, Table1Row};

/// Fig. 9: execution breakdown of RO at two thread counts.
pub fn run_fig9(scale: Scale) -> Vec<BreakdownRow> {
    let mut rows = Vec::new();
    for threads in [2usize, scale.workers.max(4)] {
        let mut cfg = MicroConfig::new(RouteMode::HashFanout, threads);
        cfg.records_per_thread = scale.records.max(20_000);
        let fanout = run_micro(cfg);
        rows.push(breakdown_row(
            format!("uppar snd ({threads}thr)"),
            &fanout.sender_metrics,
        ));
        rows.push(breakdown_row(
            format!("uppar rcv ({threads}thr)"),
            &fanout.receiver_metrics,
        ));
        let mut cfg = MicroConfig::new(RouteMode::Direct, threads);
        cfg.records_per_thread = scale.records.max(20_000);
        let direct = run_micro(cfg);
        rows.push(breakdown_row(
            format!("slash snd ({threads}thr)"),
            &direct.sender_metrics,
        ));
        rows.push(breakdown_row(
            format!("slash rcv ({threads}thr)"),
            &direct.receiver_metrics,
        ));
    }
    rows
}

/// Fig. 10: execution breakdown of YSB on the full engines at 2 nodes.
pub fn run_fig10(scale: Scale) -> Vec<BreakdownRow> {
    let u = suts::uppar(ysb, 2, scale);
    let s = suts::slash(ysb, 2, scale);
    vec![
        breakdown_row("uppar sender", &u.partitioner),
        breakdown_row("uppar receiver", &u.metrics),
        breakdown_row("slash", &s.metrics),
    ]
}

/// Table 1: per-record resource utilization on YSB at 2 nodes.
pub fn run_table1(scale: Scale) -> Vec<Table1Row> {
    let u = suts::uppar(ysb, 2, scale);
    let s = suts::slash(ysb, 2, scale);
    vec![
        table1_row("uppar sender", &u.partitioner, u.processing_time),
        table1_row("uppar receiver", &u.metrics, u.processing_time),
        table1_row("slash", &s.metrics, s.processing_time),
    ]
}

/// Render breakdown rows.
pub fn breakdown_table(title: &str, rows: &[BreakdownRow]) -> Table {
    let mut t = Table::new(
        title.to_string(),
        &[
            "role",
            "retiring",
            "front-end",
            "mem-bound",
            "core-bound",
            "bad-spec",
            "dominant",
        ],
    );
    for r in rows {
        t.row(vec![
            r.label.clone(),
            format!("{:.0}%", r.retiring * 100.0),
            format!("{:.0}%", r.front_end * 100.0),
            format!("{:.0}%", r.memory_bound * 100.0),
            format!("{:.0}%", r.core_bound * 100.0),
            format!("{:.0}%", r.bad_speculation * 100.0),
            r.dominant().to_string(),
        ]);
    }
    t
}

/// Render Table 1.
pub fn table1_table(rows: &[Table1Row]) -> Table {
    let mut t = Table::new(
        "Table 1: resource utilization on YSB, 2 nodes (software proxies)",
        &[
            "role",
            "IPC",
            "instr/rec",
            "cyc/rec",
            "L1d/rec",
            "L2/rec",
            "LLC/rec",
            "mem GB/s",
        ],
    );
    for r in rows {
        t.row(vec![
            r.label.clone(),
            format!("{:.2}", r.ipc),
            format!("{:.0}", r.instr_per_rec),
            format!("{:.0}", r.cyc_per_rec),
            format!("{:.2}", r.l1_per_rec),
            format!("{:.2}", r.l2_per_rec),
            format!("{:.2}", r.llc_per_rec),
            format!("{:.1}", r.mem_bw_gbs),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_relative_claims_hold() {
        let rows = run_fig10(Scale::tiny());
        let uppar_snd = &rows[0];
        let slash = &rows[2];
        // The paper: UpPar's sender suffers front-end stalls; Slash is
        // primarily memory-bound and barely mispredicts.
        assert!(
            uppar_snd.front_end > slash.front_end,
            "uppar snd FE {:.2} vs slash {:.2}",
            uppar_snd.front_end,
            slash.front_end
        );
        assert_eq!(slash.dominant(), "memory-bound");
        assert!(slash.bad_speculation < 0.05);
    }

    #[test]
    fn table1_relative_claims_hold() {
        let rows = run_table1(Scale::tiny());
        let uppar_snd = &rows[0];
        let slash = &rows[2];
        // Slash needs far fewer instructions and cycles per record and
        // has a much higher aggregate memory bandwidth. (The paper's
        // Table 1 ratio is ~4x; the proxy counters land >1.6x because the
        // sender's filter drops 2/3 of YSB records before partitioning.)
        assert!(slash.instr_per_rec < uppar_snd.instr_per_rec / 1.6);
        assert!(slash.cyc_per_rec < uppar_snd.cyc_per_rec);
        assert!(slash.mem_bw_gbs > uppar_snd.mem_bw_gbs);
        assert!(slash.ipc > uppar_snd.ipc);
    }
}
