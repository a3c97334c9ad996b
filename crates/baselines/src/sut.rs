//! Common report type for all systems under test.

use slash_core::{EngineMetrics, SinkResult};
use slash_desim::SimTime;

/// What every SUT run reports; the harness compares these across systems.
#[derive(Debug, Default)]
pub struct CommonReport {
    /// Source records processed.
    pub records: u64,
    /// Virtual time when ingestion/processing of source data finished.
    pub processing_time: SimTime,
    /// Virtual time when all output was emitted.
    pub completion_time: SimTime,
    /// Window results emitted.
    pub emitted: u64,
    /// Join pairs across all results.
    pub total_pairs: u64,
    /// Collected results (when requested).
    pub results: Vec<SinkResult>,
    /// Counters of the partitioning/sender role (empty for systems
    /// without one).
    pub sender_metrics: EngineMetrics,
    /// Counters of the processing/receiver role.
    pub receiver_metrics: EngineMetrics,
    /// Bytes moved across the fabric.
    pub net_tx_bytes: u64,
}

impl CommonReport {
    /// Sustained throughput in records per second of virtual time.
    pub fn throughput(&self) -> f64 {
        if self.processing_time == SimTime::ZERO {
            return 0.0;
        }
        self.records as f64 / self.processing_time.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let r = CommonReport {
            records: 1_000_000,
            processing_time: SimTime::from_millis(500),
            ..Default::default()
        };
        assert!((r.throughput() - 2e6).abs() < 1.0);
        assert_eq!(CommonReport::default().throughput(), 0.0);
    }
}
