//! The producer endpoint of an RDMA channel.

use slash_desim::Sim;
use slash_obs::{Cat, Obs};
use slash_rdma::{LocalSlice, Mr, Qp, RdmaError, RemoteKey, RemoteSlice, WorkRequest};

use crate::channel::ChannelConfig;
use crate::layout::{footer_offset, generation, payload_capacity, Footer, MsgFlags, FOOTER_SIZE};
use crate::stats::{ChannelStats, Violation};

/// Producer endpoint.
///
/// The sender owns a local *staging ring* that mirrors the consumer's ring:
/// slot `seq % c` is filled in place (zero-copy for the engine, which
/// serializes records directly into registered memory) and shipped with a
/// single one-sided WRITE. The sender may pipeline up to `c` buffers before
/// it must observe returned credit (paper §6.2, "transfer phase").
pub struct ChannelSender {
    qp: Qp,
    staging: Mr,
    /// Consumer's ring region.
    remote_ring: RemoteKey,
    /// Local 8-byte region the consumer writes its cumulative consumed
    /// count into.
    credit_mr: Mr,
    cfg: ChannelConfig,
    next_seq: u64,
    eos_sent: bool,
    /// Fault injection (verification only): send without observing credit.
    fault_ignore_credits: bool,
    /// Statistics (throughput/latency drill-down).
    pub stats: ChannelStats,
    /// Trace handle (disabled by default); `(pid, tid)` lanes for events.
    obs: Obs,
    obs_pid: u32,
    obs_tid: u32,
}

impl ChannelSender {
    pub(crate) fn new(
        qp: Qp,
        staging: Mr,
        remote_ring: RemoteKey,
        credit_mr: Mr,
        cfg: ChannelConfig,
    ) -> Self {
        ChannelSender {
            qp,
            staging,
            remote_ring,
            credit_mr,
            cfg,
            next_seq: 0,
            eos_sent: false,
            fault_ignore_credits: false,
            stats: ChannelStats::default(),
            obs: Obs::disabled(),
            obs_pid: 0,
            obs_tid: 0,
        }
    }

    /// Attach a trace handle. `pid`/`tid` are the Perfetto lanes the verb
    /// events of this endpoint render under (node id / peer id by
    /// convention).
    pub fn instrument(&mut self, obs: Obs, pid: u32, tid: u32) {
        self.obs = obs;
        self.obs_pid = pid;
        self.obs_tid = tid;
    }

    /// Remote key of this sender's credit counter region (the consumer
    /// writes its cumulative consumed count there).
    pub(crate) fn credit_remote_key(&self) -> RemoteKey {
        self.credit_mr.remote_key()
    }

    /// Maximum payload per buffer.
    pub fn payload_capacity(&self) -> usize {
        payload_capacity(self.cfg.buffer_size)
    }

    /// Cumulative count of buffers the consumer has acknowledged.
    fn consumed(&self) -> u64 {
        self.credit_mr.read_u64(0)
    }

    /// Sequence number of the next buffer to be sent.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Cumulative count of buffers the consumer has acknowledged via credit
    /// writes, as currently visible on this side. Exposed so the
    /// `slash-verify` race checker can require credits to converge at
    /// quiescence without reaching into the credit region.
    pub fn acked(&self) -> u64 {
        self.consumed()
    }

    /// Fault injection (verification only): make every subsequent send
    /// ignore the credit window, so the sender overwrites ring slots the
    /// consumer has not yet drained. Used by `slash-verify` mutation tests
    /// to prove the credit-window check in [`ChannelSender::try_send_with`]
    /// fires. Never call this from protocol code.
    #[doc(hidden)]
    pub fn fault_ignore_credit_window(&mut self) {
        self.fault_ignore_credits = true;
    }

    /// Whether end-of-stream was already sent.
    pub fn eos_sent(&self) -> bool {
        self.eos_sent
    }

    /// Whether the underlying QP is in the error state (a work request was
    /// flushed by a fault). Sends are rejected until [`ChannelSender::reset`].
    pub fn is_error(&self) -> bool {
        self.qp.is_error()
    }

    /// Re-establish this endpoint after a fault: reset the QP (bumping the
    /// connection incarnation so stale in-flight writes are fenced), reset
    /// the footer sequence to zero, and zero the credit counter so the full
    /// credit window is available again. The peer receiver must call
    /// [`crate::receiver::ChannelReceiver::reset`] for traffic to resume — and the engine
    /// must re-enqueue whatever epochs the receiver had not committed.
    pub fn reset(&mut self) {
        self.qp.reset();
        self.next_seq = 0;
        self.eos_sent = false;
        self.credit_mr.write_u64(0, 0);
    }

    /// Try to send one buffer. `len` is the payload size and `fill` writes
    /// exactly that many bytes into the slot (in place, zero-copy).
    ///
    /// Returns `Ok(false)` — without calling `fill` — when no credit is
    /// available; the caller should retry after making progress elsewhere
    /// (this is where Slash parks the RDMA coroutine).
    pub fn try_send_with<F>(
        &mut self,
        sim: &mut Sim,
        flags: MsgFlags,
        len: usize,
        fill: F,
    ) -> Result<bool, RdmaError>
    where
        F: FnOnce(&mut [u8]),
    {
        assert!(!self.eos_sent, "send after EOS is a protocol bug");
        assert!(
            len <= self.payload_capacity(),
            "payload {len} exceeds buffer capacity {}",
            self.payload_capacity()
        );
        // Saturating: a broken window is counted below, not an underflow.
        let acked = self.consumed();
        let in_flight = self.next_seq.saturating_sub(acked);
        if in_flight >= self.cfg.credits as u64 && !self.fault_ignore_credits {
            self.stats.on_credit_stall();
            self.obs.instant(
                Cat::Verb,
                "credit-stall",
                self.obs_pid,
                self.obs_tid,
                sim.now(),
                &[("seq", self.next_seq), ("in_flight", in_flight)],
            );
            return Ok(false);
        }
        let seq = self.next_seq;
        let slot = (seq % self.cfg.credits as u64) as usize;
        let m = self.cfg.buffer_size;
        let foot_off = footer_offset(slot, m);
        let payload_off = foot_off - len;

        self.staging.with_mut(payload_off, len, fill)?;
        let mut footer = Footer {
            len: len as u32,
            seq32: seq as u32,
            flags,
            gen: generation(seq, self.cfg.credits),
        }
        .encode();
        // Stamp the send time (µs, 40 bits) into the reserved footer bytes
        // so the consumer can measure buffer residence latency.
        let micros = sim.now().as_nanos() / 1_000;
        footer[10..15].copy_from_slice(&micros.to_le_bytes()[..5]);
        self.staging.write(foot_off, &footer)?;

        self.qp.post_send(
            sim,
            WorkRequest::Write {
                wr_id: seq,
                local: LocalSlice::range(&self.staging, payload_off, len + FOOTER_SIZE),
                remote: RemoteSlice {
                    key: self.remote_ring,
                    offset: payload_off,
                },
                signaled: false,
            },
        )?;
        self.next_seq += 1;
        // §6 credit window, in every build: acked ≤ next_seq ≤ acked + c.
        // (Wrapping: `acked > next_seq` reads as a huge distance.)
        if self.next_seq.wrapping_sub(acked) > self.cfg.credits as u64 {
            let (next, c) = (self.next_seq, self.cfg.credits);
            let context = || format!("acked={acked} next_seq={next} credits={c}");
            let (v, obs) = (&mut self.stats.violations, &self.obs);
            v.note(Violation::CreditWindow, obs, context);
        }
        self.stats.on_buffer(len);
        self.obs.instant(
            Cat::Verb,
            "write",
            self.obs_pid,
            self.obs_tid,
            sim.now(),
            &[("seq", seq), ("len", len as u64)],
        );
        Ok(true)
    }

    /// Convenience: send a byte slice.
    pub fn try_send(
        &mut self,
        sim: &mut Sim,
        flags: MsgFlags,
        data: &[u8],
    ) -> Result<bool, RdmaError> {
        self.try_send_with(sim, flags, data.len(), |slot| slot.copy_from_slice(data))
    }

    /// Try to send the end-of-stream marker. Returns false when no credit
    /// is available yet.
    pub fn try_send_eos(&mut self, sim: &mut Sim) -> Result<bool, RdmaError> {
        let sent = self.try_send_with(sim, MsgFlags::EOS, 0, |_| {})?;
        if sent {
            self.eos_sent = true;
        }
        Ok(sent)
    }
}

impl std::fmt::Debug for ChannelSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelSender")
            .field("node", &self.qp.local_node())
            .field("peer", &self.qp.peer_node())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}
