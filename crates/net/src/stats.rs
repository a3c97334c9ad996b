//! Per-channel transfer statistics, used by the drill-down experiments
//! (paper §8.3) to report throughput, latency, and stall behaviour.
//!
//! The endpoints bump plain fields (`on_send`, `on_consume`,
//! `record_latency_ns`, ...); the `slash-obs` registry sees them only when
//! [`ChannelStats::publish`] copies them in at the end of a run.
//! Buffer-residence latency is kept as a full log-bucketed [`Histogram`]
//! rather than a lossy sum/count pair, so tail quantiles (p99, p99.9)
//! survive.
//!
//! [`Violations`] counts, by kind, failures of the protocol checks the
//! shipped code runs on every event in every build (DESIGN §8).

use slash_desim::SimTime;
use slash_obs::{Histogram, Obs};

/// A protocol invariant checked in the code that ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// A consumed buffer's footer `seq32` is not the next expected one
    /// (§6: FIFO delivery; a slot overwritten before it was read).
    Fifo,
    /// After a post, `acked ≤ next_seq ≤ acked + credits` does not hold
    /// at the sender (§6 credit window).
    CreditWindow,
    /// A delta chunk arrived out of epoch order on its FIFO channel (§7).
    EpochOrder,
    /// A delta chunk names another partition than its leader's.
    Partition,
    /// A vector-clock update carried a watermark below its slot's (§5.1).
    StaleWatermark,
    /// The nodes' split-ledger copies disagreed on activating a key.
    SplitLedger,
}

impl Violation {
    /// Every kind, in declaration order.
    pub(crate) const ALL: [Violation; 6] = [
        Violation::Fifo,
        Violation::CreditWindow,
        Violation::EpochOrder,
        Violation::Partition,
        Violation::StaleWatermark,
        Violation::SplitLedger,
    ];

    /// The kind's label in reports and flight dumps.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Violation::Fifo => "fifo",
            Violation::CreditWindow => "credit-window",
            Violation::EpochOrder => "epoch-order",
            Violation::Partition => "partition",
            Violation::StaleWatermark => "stale-watermark",
            Violation::SplitLedger => "split-ledger",
        }
    }
}

/// Protocol violations counted by kind. Each endpoint and node keeps its
/// own; a run's report adds them up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Violations([u32; Violation::ALL.len()]);

impl Violations {
    /// Count one violation of `kind`. The first one this holder counts
    /// also takes a flight-recorder dump on `obs`, with `context`.
    #[cold]
    pub fn note(&mut self, kind: Violation, obs: &Obs, context: impl FnOnce() -> String) {
        if self.total() == 0 {
            let reason = format!("protocol violation: {}", kind.label());
            obs.record_failure(&reason, &context());
        }
        self.0[kind as usize] = self.0[kind as usize].saturating_add(1);
    }

    /// Violations of `kind` counted.
    pub fn get(&self, kind: Violation) -> u64 {
        self.0[kind as usize].into()
    }

    /// Violations of every kind counted.
    pub fn total(&self) -> u64 {
        self.0.iter().map(|&n| u64::from(n)).sum()
    }

    /// Add `other`'s counts to these.
    pub fn absorb(&mut self, other: &Violations) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a = a.saturating_add(b);
        }
    }
}

impl std::fmt::Display for Violations {
    /// The non-zero counts as `kind=n`, space-separated.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let counted = Violation::ALL.into_iter().filter(|&k| self.get(k) > 0);
        for (i, kind) in counted.enumerate() {
            let sep = if i > 0 { " " } else { "" };
            write!(f, "{sep}{}={}", kind.label(), self.get(kind))?;
        }
        Ok(())
    }
}

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
    /// Protocol violations this endpoint's checks counted.
    pub violations: Violations,
}

impl ChannelStats {
    /// Account one buffer sent (or consumed) carrying `payload` bytes.
    pub(crate) fn on_buffer(&mut self, payload: usize) {
        self.buffers += 1;
        self.payload_bytes += payload as u64;
    }

    /// Mean buffer latency, if any samples were taken.
    pub fn mean_latency(&self) -> Option<SimTime> {
        self.latency.mean().map(SimTime::from_nanos)
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
        s.latency.record(50);
        s.latency.record(150);
        s.latency.record(100);
        assert_eq!(s.latency.count(), 3);
        assert_eq!(s.mean_latency(), Some(SimTime::from_nanos(100)));
    }

    #[test]
    fn publish_lands_in_registry() {
        let mut s = ChannelStats::default();
        s.on_buffer(512);
        s.credit_stalls += 1;
        s.latency.record(2_000);
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
