//! Channel setup (the protocol's *setup phase*, paper §6.2).

use slash_desim::SimTime;
use slash_rdma::{CqHandle, Fabric, NodeId};

use crate::layout::FOOTER_SIZE;
use crate::receiver::ChannelReceiver;
use crate::sender::ChannelSender;

/// Channel parameters fixed for the lifetime of a query (the paper keeps
/// `c` constant during execution because its choice is hardware-sensitive
/// and sets the pipelining depth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelConfig {
    /// Number of slots in the circular queue == initial credits == maximum
    /// pipelining depth. The paper finds `c = 8` best on its testbed.
    pub credits: usize,
    /// Size of one slot in bytes, including the 16-byte footer. The paper
    /// sweeps 4 KiB – 4 MiB and settles on 64 KiB as the throughput sweet
    /// spot (Fig. 8a).
    pub buffer_size: usize,
    /// Return credit every `credit_batch` consumed buffers (1 = per-buffer,
    /// as in the paper's description).
    pub credit_batch: usize,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            credits: 8,
            buffer_size: 64 * 1024,
            credit_batch: 1,
        }
    }
}

impl ChannelConfig {
    /// Validate invariants; panics on nonsense configurations (these are
    /// build-time decisions, not runtime data).
    pub fn validated(self) -> Self {
        assert!(self.credits >= 1, "need at least one credit");
        assert!(
            self.buffer_size > FOOTER_SIZE,
            "buffer must fit payload + footer"
        );
        assert!(self.credit_batch >= 1);
        assert!(
            self.credit_batch <= self.credits,
            "batching credits beyond the queue depth deadlocks the channel"
        );
        self
    }

    /// Payload capacity per buffer.
    pub fn payload_capacity(&self) -> usize {
        self.buffer_size - FOOTER_SIZE
    }
}

/// Create a unidirectional RDMA channel from `producer` to `consumer`.
///
/// Allocates the consumer-side ring (`c × m` bytes, flat layout), a
/// mirrored producer-side staging ring, the producer's credit counter, and
/// a reliable QP connecting the two nodes.
pub fn create_channel(
    fabric: &Fabric,
    producer: NodeId,
    consumer: NodeId,
    cfg: ChannelConfig,
) -> (ChannelSender, ChannelReceiver) {
    let cfg = cfg.validated();
    let ring_len = cfg.credits * cfg.buffer_size;

    let staging = fabric.register(producer, ring_len);
    let credit = fabric.register(producer, 8);
    let ring = fabric.register(consumer, ring_len);
    let credit_staging = fabric.register(consumer, 8);

    let (qp_p, qp_c) = fabric.connect(
        producer,
        CqHandle::new(),
        CqHandle::new(),
        consumer,
        CqHandle::new(),
        CqHandle::new(),
    );

    let sender = ChannelSender::new(qp_p, staging, ring.remote_key(), credit, cfg);
    let receiver =
        ChannelReceiver::new(qp_c, ring, sender.credit_remote_key(), credit_staging, cfg);
    (sender, receiver)
}

/// Suggested per-poll CPU cost when a poll comes up empty (the `pause`
/// spin the paper's micro-architecture analysis attributes to core-bound
/// stalls). Engines charge this to their virtual CPU.
pub const EMPTY_POLL_COST: SimTime = SimTime::from_nanos(8);

/// Control-plane messages exchanged to bring a *replacement* channel to
/// ready-to-send during recovery: connect request, queue-pair attribute
/// exchange (the INIT→RTR→RTS analog), and the commit-horizon handshake
/// that tells the producer which epoch to resume replay from. Recovery
/// drivers charge this many wire round trips before a re-established
/// channel set may carry deltas — channel *creation* itself is free in the
/// model (registration is local), so this constant is where reconnect
/// latency lives.
pub const RECONNECT_HANDSHAKE_MSGS: u64 = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::MsgFlags;
    use slash_desim::Sim;
    use slash_rdma::FabricConfig;

    fn setup(cfg: ChannelConfig) -> (Sim, ChannelSender, ChannelReceiver) {
        let sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let a = fabric.add_node();
        let b = fabric.add_node();
        let (tx, rx) = create_channel(&fabric, a, b, cfg);
        (sim, tx, rx)
    }

    #[test]
    fn single_buffer_roundtrip() {
        let (mut sim, mut tx, mut rx) = setup(ChannelConfig::default());
        assert!(tx
            .try_send(&mut sim, MsgFlags::DATA, b"records go here")
            .unwrap());
        assert!(
            rx.try_recv(&mut sim).unwrap().is_none(),
            "not delivered yet"
        );
        sim.run();
        let (flags, data) = rx.try_recv(&mut sim).unwrap().expect("delivered");
        assert_eq!(flags, MsgFlags::DATA);
        assert_eq!(data, b"records go here");
    }

    #[test]
    fn fifo_order_over_many_wraps() {
        let cfg = ChannelConfig {
            credits: 4,
            buffer_size: 64,
            credit_batch: 1,
        };
        let (mut sim, mut tx, mut rx) = setup(cfg);
        let total = 100u64;
        let mut sent = 0u64;
        let mut got = Vec::new();
        while (got.len() as u64) < total {
            while sent < total
                && tx
                    .try_send(&mut sim, MsgFlags::DATA, &sent.to_le_bytes())
                    .unwrap()
            {
                sent += 1;
            }
            sim.run();
            while let Some((_, data)) = rx.try_recv(&mut sim).unwrap() {
                got.push(u64::from_le_bytes(data.try_into().unwrap()));
            }
            sim.run();
        }
        let expect: Vec<u64> = (0..total).collect();
        assert_eq!(got, expect, "FIFO delivery across wrap-arounds");
    }

    #[test]
    fn producer_stalls_at_zero_credits() {
        let cfg = ChannelConfig {
            credits: 2,
            buffer_size: 64,
            credit_batch: 1,
        };
        let (mut sim, mut tx, mut rx) = setup(cfg);
        assert!(tx.try_send(&mut sim, MsgFlags::DATA, b"a").unwrap());
        assert!(tx.try_send(&mut sim, MsgFlags::DATA, b"b").unwrap());
        // Third send must fail: no credit, consumer hasn't processed.
        assert!(!tx.try_send(&mut sim, MsgFlags::DATA, b"c").unwrap());
        assert_eq!(tx.stats.credit_stalls, 1);
        sim.run();
        // Consume one buffer; its credit must re-enable the producer.
        assert!(rx.try_recv(&mut sim).unwrap().is_some());
        sim.run();
        assert!(tx.try_send(&mut sim, MsgFlags::DATA, b"c").unwrap());
    }

    #[test]
    fn unread_buffers_are_never_overwritten() {
        let cfg = ChannelConfig {
            credits: 2,
            buffer_size: 64,
            credit_batch: 1,
        };
        let (mut sim, mut tx, mut rx) = setup(cfg);
        assert!(tx.try_send(&mut sim, MsgFlags::DATA, b"first").unwrap());
        assert!(tx.try_send(&mut sim, MsgFlags::DATA, b"sixth").unwrap());
        sim.run();
        // Producer wants to send more but must not clobber slot 0.
        for _ in 0..10 {
            assert!(!tx.try_send(&mut sim, MsgFlags::DATA, b"evil!").unwrap());
        }
        sim.run();
        let (_, d0) = rx.try_recv(&mut sim).unwrap().unwrap();
        assert_eq!(d0, b"first");
        let (_, d1) = rx.try_recv(&mut sim).unwrap().unwrap();
        assert_eq!(d1, b"sixth");
    }

    #[test]
    fn eos_terminates_the_stream() {
        let (mut sim, mut tx, mut rx) = setup(ChannelConfig::default());
        assert!(tx.try_send(&mut sim, MsgFlags::DATA, b"last data").unwrap());
        assert!(tx.try_send_eos(&mut sim).unwrap());
        assert!(tx.eos_sent());
        sim.run();
        assert!(rx.try_recv(&mut sim).unwrap().is_some());
        assert!(!rx.eos());
        let (flags, data) = rx.try_recv(&mut sim).unwrap().unwrap();
        assert!(flags.contains(MsgFlags::EOS));
        assert!(data.is_empty());
        assert!(rx.eos());
    }

    #[test]
    fn credit_batching_reduces_credit_messages() {
        let mk = |batch| {
            let cfg = ChannelConfig {
                credits: 8,
                buffer_size: 64,
                credit_batch: batch,
            };
            let (mut sim, mut tx, mut rx) = setup(cfg);
            let mut sent = 0;
            while sent < 64 {
                while sent < 64 && tx.try_send(&mut sim, MsgFlags::DATA, b"x").unwrap() {
                    sent += 1;
                }
                sim.run();
                while rx.try_recv(&mut sim).unwrap().is_some() {}
                sim.run();
            }
            rx.stats.credit_msgs
        };
        let per_buffer = mk(1);
        let batched = mk(4);
        assert_eq!(per_buffer, 64);
        assert!(batched <= per_buffer / 3, "batched={batched}");
    }

    #[test]
    fn latency_is_measured() {
        let (mut sim, mut tx, mut rx) = setup(ChannelConfig::default());
        tx.try_send(&mut sim, MsgFlags::DATA, &vec![0u8; 4096])
            .unwrap();
        sim.run();
        rx.try_recv(&mut sim).unwrap().unwrap();
        assert_eq!(rx.stats.latency_samples(), 1);
        // 4 KiB at ~11.8 GB/s + 600ns latency: about 1µs.
        let lat = rx.stats.mean_latency().unwrap();
        assert!(lat.as_nanos() >= 1_000, "{lat}");
        assert!(lat.as_nanos() < 1_000_000, "{lat}");
    }

    #[test]
    fn reset_reestablishes_channel_after_link_flap() {
        let mut sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let a = fabric.add_node();
        let b = fabric.add_node();
        let (mut tx, mut rx) = create_channel(&fabric, a, b, ChannelConfig::default());

        assert!(tx.try_send(&mut sim, MsgFlags::DATA, b"before").unwrap());
        sim.run();
        assert_eq!(rx.try_recv(&mut sim).unwrap().unwrap().1, b"before");
        sim.run();

        // Link goes down; the next send is flushed and errors the QP.
        fabric.set_link_down(b, true);
        let _ = tx.try_send(&mut sim, MsgFlags::DATA, b"lost");
        sim.run();
        assert!(tx.is_error(), "post over a dead link errors the QP");
        assert!(matches!(
            tx.try_send(&mut sim, MsgFlags::DATA, b"rejected"),
            Err(slash_rdma::RdmaError::QpError)
        ));

        // Link restored: both endpoints reset, sequence + credit rewound.
        fabric.set_link_down(b, false);
        tx.reset();
        rx.reset();
        assert!(!tx.is_error());
        assert_eq!(tx.next_seq(), 0);
        assert_eq!(rx.next_seq(), 0);

        assert!(tx.try_send(&mut sim, MsgFlags::DATA, b"after").unwrap());
        sim.run();
        assert_eq!(rx.try_recv(&mut sim).unwrap().unwrap().1, b"after");
    }

    #[test]
    #[should_panic(expected = "deadlocks")]
    fn overbatching_credits_is_rejected() {
        ChannelConfig {
            credits: 2,
            buffer_size: 64,
            credit_batch: 4,
        }
        .validated();
    }
}
