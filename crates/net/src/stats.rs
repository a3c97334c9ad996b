//! Per-channel transfer statistics, used by the drill-down experiments
//! (paper §8.3) to report throughput, latency, and stall behaviour.
//!
//! The endpoints bump plain fields (`on_send`, `on_consume`,
//! `record_latency_ns`, ...); the `slash-obs` registry sees them only when
//! [`ChannelStats::publish`] copies them in at the end of a run.
//! Buffer-residence latency is kept as a full log-bucketed [`Histogram`]
//! rather than a lossy sum/count pair, so tail quantiles (p99, p99.9)
//! survive.

use slash_desim::SimTime;
use slash_obs::Histogram;

/// Counters kept by both endpoints of a channel.
#[derive(Debug, Clone, Default)]
pub struct ChannelStats {
    /// Data buffers sent (producer) / consumed (receiver).
    pub buffers: u64,
    /// Payload bytes moved (excludes footers and credit messages).
    pub payload_bytes: u64,
    /// Times the producer wanted a slot but had zero credits.
    pub credit_stalls: u64,
    /// Times the consumer polled and found nothing ready.
    pub empty_polls: u64,
    /// Credit-return messages sent by the consumer.
    pub credit_msgs: u64,
    /// Per-buffer residence latency (send → consume), nanoseconds.
    pub latency: Histogram,
}

impl ChannelStats {
    /// Account one buffer sent (or consumed) carrying `payload` bytes.
    pub fn on_buffer(&mut self, payload: usize) {
        self.buffers += 1;
        self.payload_bytes += payload as u64;
    }

    /// Account a send attempt rejected for lack of credit.
    pub fn on_credit_stall(&mut self) {
        self.credit_stalls += 1;
    }

    /// Account a poll that found no buffer ready.
    pub fn on_empty_poll(&mut self) {
        self.empty_polls += 1;
    }

    /// Account one credit-return message.
    pub fn on_credit_msg(&mut self) {
        self.credit_msgs += 1;
    }

    /// Record one buffer-residence latency sample in nanoseconds.
    pub fn record_latency_ns(&mut self, ns: u64) {
        self.latency.record(ns);
    }

    /// Number of latency samples taken.
    pub fn latency_samples(&self) -> u64 {
        self.latency.count()
    }

    /// Mean buffer latency, if any samples were taken.
    pub fn mean_latency(&self) -> Option<SimTime> {
        self.latency.mean().map(SimTime::from_nanos)
    }

    /// Latency quantile (`q` in `[0, 1]`), if any samples were taken.
    pub fn latency_quantile(&self, q: f64) -> Option<SimTime> {
        self.latency.quantile(q).map(SimTime::from_nanos)
    }

    /// Publish these counters and the latency histogram into an obs
    /// registry under `label` (e.g. `chan=0->1`).
    pub fn publish(&self, obs: &slash_obs::Obs, label: &str) {
        obs.counter_add("chan_buffers", label, self.buffers);
        obs.counter_add("chan_payload_bytes", label, self.payload_bytes);
        obs.counter_add("chan_credit_stalls", label, self.credit_stalls);
        obs.counter_add("chan_empty_polls", label, self.empty_polls);
        obs.counter_add("chan_credit_msgs", label, self.credit_msgs);
        if self.latency.count() > 0 {
            obs.hist_merge("buffer_residence_ns", label, &self.latency);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_latency() {
        let mut s = ChannelStats::default();
        assert_eq!(s.mean_latency(), None);
        s.record_latency_ns(50);
        s.record_latency_ns(150);
        s.record_latency_ns(100);
        assert_eq!(s.latency_samples(), 3);
        assert_eq!(s.mean_latency(), Some(SimTime::from_nanos(100)));
        let p100 = s.latency_quantile(1.0).unwrap();
        assert!(p100.as_nanos() >= 150);
    }

    #[test]
    fn publish_lands_in_registry() {
        let mut s = ChannelStats::default();
        s.on_buffer(512);
        s.on_credit_stall();
        s.record_latency_ns(2_000);
        let obs = slash_obs::Obs::enabled(16);
        s.publish(&obs, "chan=0->1");
        obs.with_registry(|r| {
            assert_eq!(r.counter("chan_buffers", "chan=0->1"), 1);
            assert_eq!(r.counter("chan_payload_bytes", "chan=0->1"), 512);
            assert_eq!(r.counter("chan_credit_stalls", "chan=0->1"), 1);
            assert_eq!(
                r.hist("buffer_residence_ns", "chan=0->1").unwrap().count(),
                1
            );
        });
    }
}
