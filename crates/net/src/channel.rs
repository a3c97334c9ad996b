//! Channel setup (the protocol's *setup phase*, paper §6.2) and the
//! simulated memory the ring protocol runs over: the fabric's registered
//! regions, written with one-sided WRITEs over a reliable QP.

use slash_desim::{Sim, SimTime};
use slash_rdma::{CqHandle, Fabric, LocalSlice, Mr, NodeId, Qp, RdmaError, RemoteKey};
use slash_rdma::{RemoteSlice, WorkRequest};

use crate::layout::{footer_offset, FOOTER_SIZE};
use crate::receiver::{ChannelReceiver, RxMemory};
use crate::sender::{ChannelSender, Trace, TxMemory};

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
    pub(crate) fn validated(self) -> Self {
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

/// An unsignaled one-sided WRITE of `local` to `offset` in region `key`.
fn write(wr_id: u64, local: LocalSlice, key: RemoteKey, offset: usize) -> WorkRequest {
    let remote = RemoteSlice { key, offset };
    WorkRequest::Write {
        wr_id,
        local,
        remote,
        signaled: false,
    }
}

/// The simulated memory under a producer: a local *staging ring* that
/// mirrors the consumer's, shipped slot by slot with a single one-sided
/// WRITE of payload and footer, and the 8-byte region the consumer writes
/// its cumulative consumed count into.
pub struct FabricTx {
    qp: Qp,
    staging: Mr,
    remote_ring: RemoteKey,
    credit: Mr,
    buffer_size: usize,
    trace: Trace,
}

impl TxMemory<Sim> for FabricTx {
    fn acked(&self) -> u64 {
        self.credit.read_u64(0)
    }

    fn post(
        &mut self,
        sim: &mut Sim,
        seq: u64,
        slot: usize,
        len: usize,
        [lo, hi]: [u64; 2],
        fill: &mut dyn FnMut(&mut [u8]),
    ) -> Result<(), RdmaError> {
        // `[padding | payload | footer]`: the payload is right-aligned
        // against the footer, so one contiguous WRITE carries both.
        let foot_off = footer_offset(slot, self.buffer_size);
        let payload_off = foot_off - len;
        self.staging.with_mut(payload_off, len, fill)?;
        self.staging.write_u64(foot_off, lo);
        self.staging.write_u64(foot_off + 8, hi);
        let local = LocalSlice::range(&self.staging, payload_off, len + FOOTER_SIZE);
        let write = write(seq, local, self.remote_ring, payload_off);
        self.qp.post_send(sim, write)
    }

    fn is_error(&self) -> bool {
        self.qp.is_error()
    }

    /// Reset the QP, bumping the connection incarnation so stale
    /// in-flight writes are fenced, and zero the credit counter.
    fn reset(&mut self) {
        self.qp.reset();
        self.credit.write_u64(0, 0);
    }

    fn lane(&self, sim: &Sim) -> Option<(&Trace, SimTime)> {
        Some((&self.trace, sim.now()))
    }

    fn instrument(&mut self, trace: Trace) {
        self.trace = trace;
    }
}

/// The simulated memory under a consumer: the ring the producer writes
/// into, and an 8-byte staging region for the credit WRITE.
pub struct FabricRx {
    qp: Qp,
    ring: Mr,
    remote_credit: RemoteKey,
    credit_staging: Mr,
    buffer_size: usize,
    trace: Trace,
}

impl RxMemory<Sim> for FabricRx {
    fn generation(&self, slot: usize) -> u8 {
        let foot_off = footer_offset(slot, self.buffer_size);
        self.ring.poll_byte(foot_off + FOOTER_SIZE - 1)
    }

    fn footer(&self, slot: usize) -> [u64; 2] {
        let at = footer_offset(slot, self.buffer_size);
        [self.ring.read_u64(at), self.ring.read_u64(at + 8)]
    }

    fn payload(
        &mut self,
        slot: usize,
        len: usize,
        f: &mut dyn FnMut(&[u8]),
    ) -> Result<(), RdmaError> {
        let foot_off = footer_offset(slot, self.buffer_size);
        self.ring.with(foot_off - len, len, f)
    }

    /// An 8-byte one-sided WRITE — the "credit transfer" of §6.2.
    fn return_credit(&mut self, sim: &mut Sim, acked: u64) -> Result<(), RdmaError> {
        self.credit_staging.write_u64(0, acked);
        let local = LocalSlice::range(&self.credit_staging, 0, 8);
        // A control message; its id is never inspected.
        self.qp
            .post_send(sim, write(u64::MAX, local, self.remote_credit, 0))
    }

    fn is_error(&self) -> bool {
        self.qp.is_error()
    }

    fn reset(&mut self) {
        self.qp.reset();
        for slot in 0..self.ring.len() / self.buffer_size {
            // In bounds by construction; reset stays infallible.
            let gen_off = footer_offset(slot, self.buffer_size) + FOOTER_SIZE - 1;
            let _ = self.ring.write(gen_off, &[0]);
        }
    }

    fn lane(&self, sim: &Sim) -> Option<(&Trace, SimTime)> {
        Some((&self.trace, sim.now()))
    }

    fn instrument(&mut self, trace: Trace) {
        self.trace = trace;
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

    let (ring_key, credit_key) = (ring.remote_key(), credit.remote_key());
    let tx = FabricTx {
        qp: qp_p,
        staging,
        remote_ring: ring_key,
        credit,
        buffer_size: cfg.buffer_size,
        trace: Trace::default(),
    };
    let rx = FabricRx {
        qp: qp_c,
        ring,
        remote_credit: credit_key,
        credit_staging,
        buffer_size: cfg.buffer_size,
        trace: Trace::default(),
    };
    (ChannelSender::new(tx, cfg), ChannelReceiver::new(rx, cfg))
}

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
    use crate::stats::Violation;
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
        let counted = tx.stats.violations.total() + rx.stats.violations.total();
        assert_eq!(counted, 0, "a correct stream counts no violation");
    }

    /// The receiver's FIFO check runs in every build, `--release`
    /// included: two buffers consumed in swapped order are both counted.
    #[test]
    fn a_reordered_slot_is_counted_in_every_build() {
        let (mut sim, mut tx, mut rx) = setup(ChannelConfig::default());
        rx.fault_reorder_once();
        for m in [b"k0", b"k1", b"k2"] {
            assert!(tx.try_send(&mut sim, MsgFlags::DATA, m).unwrap());
        }
        sim.run();
        let mut got = Vec::new();
        while let Some((_, data)) = rx.try_recv(&mut sim).unwrap() {
            got.push(data);
        }
        assert_eq!(got, [b"k1", b"k0", b"k2"]);
        assert_eq!(rx.stats.violations.get(Violation::Fifo), 2);
        assert_eq!(rx.stats.violations.total(), 2);
    }

    /// The sender's credit-window check runs in every build: the post that
    /// overruns the window is counted.
    #[test]
    fn a_post_past_the_credit_window_is_counted_in_every_build() {
        let cfg = ChannelConfig {
            credits: 2,
            buffer_size: 64,
            credit_batch: 1,
        };
        let (mut sim, mut tx, _rx) = setup(cfg);
        tx.fault_ignore_credit_window();
        for m in [b"a", b"b"] {
            assert!(tx.try_send(&mut sim, MsgFlags::DATA, m).unwrap());
        }
        assert_eq!(
            tx.stats.violations.total(),
            0,
            "the window is full, not overrun"
        );
        assert!(tx.try_send(&mut sim, MsgFlags::DATA, b"c").unwrap());
        assert_eq!(tx.stats.violations.get(Violation::CreditWindow), 1);
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
        assert_eq!(rx.stats.latency.count(), 1);
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
