//! Micro-architecture proxies: top-down breakdown rows (Fig. 9/10) and
//! Table 1 resource-utilization rows, derived from the software counters
//! the engines accumulate.
//!
//! The mapping from engine actions to top-down categories is documented on
//! [`slash_core::metrics::CostCategory`]; this module only *presents* those
//! counters. No hardware PMU is read anywhere — see DESIGN.md for why this
//! substitution preserves the paper's (relative) conclusions.

use slash_core::metrics::EngineMetrics;
use slash_desim::SimTime;

/// One bar of the execution-breakdown figures: the fraction of execution
/// time per top-down category for one engine role.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// Label, e.g. "UpPar sender (2 thr)".
    pub label: String,
    /// Fraction of time retiring µ-ops.
    pub retiring: f64,
    /// Front-end-bound fraction.
    pub front_end: f64,
    /// Memory-bound fraction.
    pub memory_bound: f64,
    /// Core-bound fraction.
    pub core_bound: f64,
    /// Bad-speculation fraction.
    pub bad_speculation: f64,
}

impl BreakdownRow {
    /// Dominant category name.
    pub fn dominant(&self) -> &'static str {
        let cats = [
            (self.retiring, "retiring"),
            (self.front_end, "front-end"),
            (self.memory_bound, "memory-bound"),
            (self.core_bound, "core-bound"),
            (self.bad_speculation, "bad-speculation"),
        ];
        cats.iter()
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .expect("non-empty")
            .1
    }

    /// Stall fraction = everything that is not retiring.
    pub fn stalls(&self) -> f64 {
        1.0 - self.retiring
    }
}

/// Derive a breakdown row from engine counters.
pub fn breakdown_row(label: impl Into<String>, m: &EngineMetrics) -> BreakdownRow {
    let b = m.breakdown();
    BreakdownRow {
        label: label.into(),
        retiring: b[0],
        front_end: b[1],
        memory_bound: b[2],
        core_bound: b[3],
        bad_speculation: b[4],
    }
}

/// One row of Table 1: resource utilization per record.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Label, e.g. "Slash".
    pub label: String,
    /// Instructions per cycle (proxy).
    pub ipc: f64,
    /// Instructions per record.
    pub instr_per_rec: f64,
    /// Cycles per record (at the metrics' configured clock; testbed
    /// default [`slash_core::TESTBED_CLOCK_GHZ`]).
    pub cyc_per_rec: f64,
    /// L1d misses per record.
    pub l1_per_rec: f64,
    /// L2 misses per record.
    pub l2_per_rec: f64,
    /// LLC misses per record.
    pub llc_per_rec: f64,
    /// Aggregate memory bandwidth, GB/s.
    pub mem_bw_gbs: f64,
}

/// Derive a Table 1 row from engine counters over a run of `elapsed`
/// virtual time.
pub fn table1_row(label: impl Into<String>, m: &EngineMetrics, elapsed: SimTime) -> Table1Row {
    let (instr, cyc, l1, l2, llc) = m.per_record();
    Table1Row {
        label: label.into(),
        ipc: m.ipc(),
        instr_per_rec: instr,
        cyc_per_rec: cyc,
        l1_per_rec: l1,
        l2_per_rec: l2,
        llc_per_rec: llc,
        mem_bw_gbs: m.mem_bandwidth(elapsed) / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slash_core::metrics::CostCategory;

    fn metrics(retiring: f64, fe: f64, mem: f64, core: f64, bad: f64) -> EngineMetrics {
        let mut m = EngineMetrics::default();
        m.charge(CostCategory::Retiring, retiring);
        m.charge(CostCategory::FrontEnd, fe);
        m.charge(CostCategory::MemoryBound, mem);
        m.charge(CostCategory::CoreBound, core);
        m.charge(CostCategory::BadSpeculation, bad);
        m
    }

    #[test]
    fn breakdown_fractions_and_dominant() {
        let m = metrics(10.0, 60.0, 20.0, 5.0, 5.0);
        let row = breakdown_row("uppar sender", &m);
        assert!((row.front_end - 0.6).abs() < 1e-9);
        assert_eq!(row.dominant(), "front-end");
        assert!((row.stalls() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn table1_per_record_math() {
        let mut m = metrics(1000.0, 0.0, 0.0, 0.0, 0.0); // 2400 cycles
        m.instructions = 420;
        m.records = 10;
        m.l1_misses = 17.5;
        m.mem_bytes = 700_000_000;
        let row = table1_row("slash", &m, SimTime::from_millis(100));
        assert!((row.instr_per_rec - 42.0).abs() < 1e-9);
        assert!((row.cyc_per_rec - 240.0).abs() < 1e-9);
        assert!((row.l1_per_rec - 1.75).abs() < 1e-9);
        assert!((row.mem_bw_gbs - 7.0).abs() < 1e-9);
        assert!((row.ipc - 420.0 / 2400.0).abs() < 1e-9);
    }
}
