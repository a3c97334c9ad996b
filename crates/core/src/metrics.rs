//! Software performance counters — the substitute for hardware PMUs.
//!
//! The paper's drill-down (§8.3.3–8.3.4, Fig. 9/10, Tab. 1) uses top-down
//! micro-architecture analysis from hardware counters. Without PMUs we
//! account the same quantities in software: every charged cost carries a
//! [`CostCategory`] matching the top-down taxonomy, instruction counts are
//! attributed per operation class, and cache misses come from the cache
//! model. The mapping is structural, not measured — but so are the paper's
//! conclusions (partitioning is front-end-heavy, state access is
//! memory-bound), which is what the reproduction checks.

use slash_desim::SimTime;

use crate::cost::TESTBED_CLOCK_GHZ;

/// Top-down execution categories (Yasin's taxonomy, as used in Fig. 9/10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostCategory {
    /// Useful work: µ-ops that retire.
    Retiring,
    /// Instruction-supply stalls (big code footprint, branchy partitioning).
    FrontEnd,
    /// Data-supply stalls (cache misses, atomics on state).
    MemoryBound,
    /// Execution-resource stalls (pause-loop polling, waiting on peers).
    CoreBound,
    /// Wasted work from branch mispredictions.
    BadSpeculation,
}

/// All categories, in display order.
pub const CATEGORIES: [CostCategory; 5] = [
    CostCategory::Retiring,
    CostCategory::FrontEnd,
    CostCategory::MemoryBound,
    CostCategory::CoreBound,
    CostCategory::BadSpeculation,
];

/// Accumulated counters for one engine (node or thread group).
///
/// Counter fields stay public for *reading* (figures and tables consume
/// them directly), but all mutation goes through the facade methods below
/// — `slash-lint`'s `metrics-facade` rule flags direct field writes, so
/// every counter bump is also visible to the observability registry.
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    /// Virtual nanoseconds per category.
    ns: [f64; 5],
    /// Instruction-count proxy.
    pub instructions: u64,
    /// Records fully processed.
    pub records: u64,
    /// Cache-line misses (fractional expectation, from the cache model).
    pub l1_misses: f64,
    /// L2 misses.
    pub l2_misses: f64,
    /// LLC misses.
    pub llc_misses: f64,
    /// Bytes of memory-bandwidth consumed.
    pub mem_bytes: u64,
    /// Bytes sent over the network by this engine.
    pub net_bytes: u64,
    /// Updates folded into per-worker write combiners (batch-local
    /// pre-aggregation hits that never reached the SSB index).
    pub combiner_folds: u64,
    /// Distinct-key partials flushed from write combiners into the SSB.
    pub combiner_flushes: u64,
    /// Workers whose write combiner turned itself off on a reuse verdict
    /// (each also leaves a `combiner_off` trace instant).
    pub combiner_off: u64,
    /// SSB state updates applied (RMW/append survivors) — the per-key heat
    /// sketch and per-partition telemetry normalize against this.
    pub state_updates: u64,
    /// Clock used for ns↔cycle conversion, GHz.
    clock_ghz: f64,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        EngineMetrics {
            ns: [0.0; 5],
            instructions: 0,
            records: 0,
            l1_misses: 0.0,
            l2_misses: 0.0,
            llc_misses: 0.0,
            mem_bytes: 0,
            net_bytes: 0,
            combiner_folds: 0,
            combiner_flushes: 0,
            combiner_off: 0,
            state_updates: 0,
            clock_ghz: TESTBED_CLOCK_GHZ,
        }
    }
}

fn idx(c: CostCategory) -> usize {
    match c {
        CostCategory::Retiring => 0,
        CostCategory::FrontEnd => 1,
        CostCategory::MemoryBound => 2,
        CostCategory::CoreBound => 3,
        CostCategory::BadSpeculation => 4,
    }
}

impl EngineMetrics {
    /// Charge `ns` of virtual time to a category.
    #[inline]
    pub fn charge(&mut self, cat: CostCategory, ns: f64) {
        self.ns[idx(cat)] += ns;
    }

    /// Charge an instruction-count proxy.
    #[inline]
    pub fn instr(&mut self, n: u64) {
        self.instructions += n;
    }

    /// Set the clock used for cycle accounting (defaults to the testbed's
    /// [`TESTBED_CLOCK_GHZ`]).
    pub fn set_clock_ghz(&mut self, ghz: f64) {
        self.clock_ghz = ghz;
    }

    /// Clock used for cycle accounting, GHz.
    pub fn clock_ghz(&self) -> f64 {
        self.clock_ghz
    }

    /// Overwrite the processed-record count (the cluster driver sets the
    /// aggregate after absorbing per-node counters).
    #[inline]
    pub fn set_records(&mut self, n: u64) {
        self.records = n;
    }

    /// Count `n` more fully processed records.
    #[inline]
    pub fn add_records(&mut self, n: u64) {
        self.records += n;
    }

    /// Charge bytes of memory-bandwidth traffic.
    #[inline]
    pub fn add_mem_bytes(&mut self, bytes: u64) {
        self.mem_bytes += bytes;
    }

    /// Charge bytes sent over the network.
    #[inline]
    pub fn add_net_bytes(&mut self, bytes: u64) {
        self.net_bytes += bytes;
    }

    /// Charge expected cache misses (fractional, from the cache model).
    #[inline]
    pub fn add_cache_misses(&mut self, l1: f64, l2: f64, llc: f64) {
        self.l1_misses += l1;
        self.l2_misses += l2;
        self.llc_misses += llc;
    }

    /// Count write-combiner activity: `folds` batch-local update
    /// absorptions, of which `flushes` distinct partials reached the SSB.
    #[inline]
    pub fn add_combiner_ops(&mut self, folds: u64, flushes: u64) {
        self.combiner_folds += folds;
        self.combiner_flushes += flushes;
    }

    /// Count one worker's write combiner turning itself off.
    #[inline]
    pub fn note_combiner_off(&mut self) {
        self.combiner_off += 1;
    }

    /// Count `n` more SSB state updates (filter survivors applied to state).
    #[inline]
    pub fn add_state_updates(&mut self, n: u64) {
        self.state_updates += n;
    }

    /// Nanoseconds charged to a category.
    pub fn ns_of(&self, cat: CostCategory) -> f64 {
        self.ns[idx(cat)]
    }

    /// Total charged nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.ns.iter().sum()
    }

    /// Fraction of time per category, in [`CATEGORIES`] order.
    pub fn breakdown(&self) -> [f64; 5] {
        let total = self.total_ns().max(1e-9);
        let mut out = [0.0; 5];
        for (i, v) in self.ns.iter().enumerate() {
            out[i] = v / total;
        }
        out
    }

    /// Cycles proxy at the configured clock (testbed default: 2.4 GHz).
    pub fn cycles(&self) -> f64 {
        self.total_ns() * self.clock_ghz
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles() == 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles()
        }
    }

    /// Per-record derived metrics `(instr, cycles, l1, l2, llc)`.
    pub fn per_record(&self) -> (f64, f64, f64, f64, f64) {
        let r = self.records.max(1) as f64;
        (
            self.instructions as f64 / r,
            self.cycles() / r,
            self.l1_misses / r,
            self.l2_misses / r,
            self.llc_misses / r,
        )
    }

    /// Aggregate memory bandwidth over a run duration.
    pub fn mem_bandwidth(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            0.0
        } else {
            self.mem_bytes as f64 / elapsed.as_secs_f64()
        }
    }

    /// Merge another engine's counters into this one.
    pub fn absorb(&mut self, other: &EngineMetrics) {
        for i in 0..5 {
            self.ns[i] += other.ns[i];
        }
        self.instructions += other.instructions;
        self.records += other.records;
        self.l1_misses += other.l1_misses;
        self.l2_misses += other.l2_misses;
        self.llc_misses += other.llc_misses;
        self.mem_bytes += other.mem_bytes;
        self.net_bytes += other.net_bytes;
        self.combiner_folds += other.combiner_folds;
        self.combiner_flushes += other.combiner_flushes;
        self.combiner_off += other.combiner_off;
        self.state_updates += other.state_updates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_sums_to_one() {
        let mut m = EngineMetrics::default();
        m.charge(CostCategory::Retiring, 30.0);
        m.charge(CostCategory::MemoryBound, 50.0);
        m.charge(CostCategory::CoreBound, 20.0);
        let b = m.breakdown();
        assert!((b.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((b[0] - 0.3).abs() < 1e-9);
        assert!((b[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ipc_and_per_record() {
        let mut m = EngineMetrics::default();
        m.charge(CostCategory::Retiring, 100.0); // 240 cycles
        m.instr(120);
        m.records = 10;
        assert!((m.ipc() - 0.5).abs() < 1e-9);
        let (ins, cyc, ..) = m.per_record();
        assert!((ins - 12.0).abs() < 1e-9);
        assert!((cyc - 24.0).abs() < 1e-9);
    }

    #[test]
    fn cycles_follow_the_configured_clock() {
        let mut m = EngineMetrics::default();
        m.charge(CostCategory::Retiring, 100.0);
        // Default is the testbed constant, not a local hardcode.
        assert!((m.clock_ghz() - TESTBED_CLOCK_GHZ).abs() < 1e-12);
        assert!((m.cycles() - 100.0 * TESTBED_CLOCK_GHZ).abs() < 1e-9);
        m.set_clock_ghz(3.0);
        assert!((m.cycles() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn facade_mutators_accumulate() {
        let mut m = EngineMetrics::default();
        m.add_records(3);
        m.add_records(4);
        m.add_mem_bytes(100);
        m.add_net_bytes(50);
        m.add_cache_misses(1.0, 0.5, 0.25);
        assert_eq!(m.records, 7);
        m.set_records(9);
        assert_eq!(m.records, 9);
        assert_eq!(m.mem_bytes, 100);
        assert_eq!(m.net_bytes, 50);
        assert!((m.l1_misses - 1.0).abs() < 1e-12);
        assert!((m.llc_misses - 0.25).abs() < 1e-12);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = EngineMetrics::default();
        a.charge(CostCategory::FrontEnd, 10.0);
        a.records = 5;
        let mut b = EngineMetrics::default();
        b.charge(CostCategory::FrontEnd, 15.0);
        b.records = 7;
        b.mem_bytes = 100;
        a.absorb(&b);
        assert_eq!(a.ns_of(CostCategory::FrontEnd), 25.0);
        assert_eq!(a.records, 12);
        assert_eq!(a.mem_bytes, 100);
    }

    #[test]
    fn mem_bandwidth_over_elapsed() {
        let m = EngineMetrics {
            mem_bytes: 4_000_000_000,
            ..EngineMetrics::default()
        };
        let bw = m.mem_bandwidth(SimTime::from_secs(2));
        assert!((bw - 2e9).abs() < 1.0);
        assert_eq!(m.mem_bandwidth(SimTime::ZERO), 0.0);
    }
}
