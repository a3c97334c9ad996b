//! The consumer endpoint of an RDMA channel.

use slash_desim::{Sim, SimTime};
use slash_obs::{Cat, Obs, Stage};
use slash_rdma::{LocalSlice, Mr, Qp, RdmaError, RemoteKey, RemoteSlice, WorkRequest};

use crate::channel::ChannelConfig;
use crate::layout::{footer_offset, generation, Footer, MsgFlags, FOOTER_SIZE};
use crate::stats::{ChannelStats, Violation};

/// Consumer endpoint.
///
/// Polls the footer byte of the next expected slot in its *local* ring
/// memory (remote producers push with WRITEs, so polling costs no network
/// traffic — the paper's argument for a push model, §6.3), processes the
/// payload in place, and returns credit by writing its cumulative consumed
/// count into the producer's credit counter.
pub struct ChannelReceiver {
    qp: Qp,
    /// Local ring the producer writes into.
    ring: Mr,
    /// Producer-side credit counter region.
    remote_credit: RemoteKey,
    /// 8-byte staging region for credit writes.
    credit_staging: Mr,
    cfg: ChannelConfig,
    next_seq: u64,
    /// Consumed buffers not yet covered by a credit message.
    unreturned: usize,
    eos_seen: bool,
    /// Fault injection (verification only): consume without returning credit.
    fault_drop_credits: bool,
    /// Fault injection (verification only): 1 while armed to consume slot
    /// k+1 before slot k, 2 once slot k+1 went first and slot k is next.
    fault_swap: u8,
    /// Statistics (throughput/latency drill-down).
    pub stats: ChannelStats,
    /// Trace handle (disabled by default); `(pid, tid)` lanes for events.
    obs: Obs,
    obs_pid: u32,
    obs_tid: u32,
}

impl ChannelReceiver {
    pub(crate) fn new(
        qp: Qp,
        ring: Mr,
        remote_credit: RemoteKey,
        credit_staging: Mr,
        cfg: ChannelConfig,
    ) -> Self {
        ChannelReceiver {
            qp,
            ring,
            remote_credit,
            credit_staging,
            cfg,
            next_seq: 0,
            unreturned: 0,
            eos_seen: false,
            fault_drop_credits: false,
            fault_swap: 0,
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

    /// Whether the producer has signalled end-of-stream and everything
    /// before it was consumed.
    pub fn eos(&self) -> bool {
        self.eos_seen
    }

    /// Sequence number of the next buffer expected.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Consumed buffers not yet covered by a credit message. Exposed so
    /// external checkers (the `slash-verify` race checker) can account for
    /// credit currently held on the consumer side.
    pub fn unreturned(&self) -> usize {
        self.unreturned
    }

    /// Fault injection (verification only): stop returning credit for
    /// consumed buffers, starving the producer. Used by `slash-verify`
    /// mutation tests to prove the credit-conservation invariant check
    /// actually fires. Never call this from protocol code.
    #[doc(hidden)]
    pub fn fault_skip_credit_return(&mut self) {
        self.fault_drop_credits = true;
    }

    /// Fault injection (verification only): the first time two
    /// consecutive buffers are ready, consume slot k+1 before slot k, so
    /// `slash-verify` mutation tests see the FIFO check fire. Never call
    /// this from protocol code.
    #[doc(hidden)]
    pub fn fault_reorder_once(&mut self) {
        self.fault_swap = 1;
    }

    /// Whether the underlying QP is in the error state (a work request was
    /// flushed by a fault). Credit writes are rejected until
    /// [`ChannelReceiver::reset`].
    pub fn is_error(&self) -> bool {
        self.qp.is_error()
    }

    /// Re-establish this endpoint after a fault: reset the QP (bumping the
    /// connection incarnation so stale in-flight writes are fenced), rewind
    /// the expected footer sequence to zero, and clear every slot's
    /// generation byte so half-written buffers from the previous incarnation
    /// can never satisfy [`ChannelReceiver::ready`]. The peer sender must
    /// call `ChannelSender::reset` for traffic to resume.
    pub fn reset(&mut self) {
        self.qp.reset();
        self.next_seq = 0;
        self.unreturned = 0;
        self.eos_seen = false;
        let m = self.cfg.buffer_size;
        for slot in 0..self.cfg.credits {
            let gen_off = footer_offset(slot, m) + FOOTER_SIZE - 1;
            // The ring was sized by `create_channel`, so this cannot be out
            // of bounds; ignore the Result to keep reset infallible.
            let _ = self.ring.write(gen_off, &[0]);
        }
    }

    /// Whether a buffer is ready without consuming it.
    pub fn ready(&self) -> bool {
        self.slot_ready(self.next_seq)
    }

    /// Whether the buffer with sequence number `seq` has landed.
    fn slot_ready(&self, seq: u64) -> bool {
        let slot = (seq % self.cfg.credits as u64) as usize;
        let foot_off = footer_offset(slot, self.cfg.buffer_size);
        self.ring.poll_byte(foot_off + FOOTER_SIZE - 1) == generation(seq, self.cfg.credits)
    }

    /// Fault injection: the sequence number the reorder plant consumes
    /// next — slot k+1 while armed and it has landed, then slot k.
    #[cold]
    fn fault_swapped_seq(&mut self) -> u64 {
        let (seq, next) = match self.fault_swap {
            1 if self.slot_ready(self.next_seq + 1) => (self.next_seq + 1, 2),
            2 => (self.next_seq - 1, 0),
            armed => (self.next_seq, armed),
        };
        self.fault_swap = next;
        seq
    }

    /// Poll for the next buffer; if one is ready, run `f` over
    /// `(flags, payload)` in place and return its result. Consuming the
    /// buffer returns credit to the producer (possibly batched).
    pub fn poll_with<R>(
        &mut self,
        sim: &mut Sim,
        f: impl FnOnce(MsgFlags, &[u8]) -> R,
    ) -> Result<Option<R>, RdmaError> {
        if !self.ready() {
            self.stats.on_empty_poll();
            return Ok(None);
        }
        let seq = match self.fault_swap {
            0 => self.next_seq,
            _ => self.fault_swapped_seq(),
        };
        let slot = (seq % self.cfg.credits as u64) as usize;
        let m = self.cfg.buffer_size;
        let foot_off = footer_offset(slot, m);
        let footer_read = self.ring.with(foot_off, FOOTER_SIZE, |b| {
            let mut us = [0u8; 8];
            us[..5].copy_from_slice(&b[10..15]);
            (Footer::decode(b), u64::from_le_bytes(us))
        });
        let (footer, sent_us) = match footer_read {
            Ok(v) => v,
            Err(e) => {
                // Decode error: the slot layout disagrees with the ring
                // bounds. Capture a flight-recorder dump and surface the
                // error instead of panicking.
                self.obs.record_failure(
                    &format!("channel footer decode out of ring bounds: {e:?}"),
                    &format!("seq={} slot={slot} foot_off={foot_off}", self.next_seq),
                );
                return Err(e);
            }
        };
        // §6 FIFO, in every build: the footer carries the sequence number
        // so that one compare catches a reordered or overwritten slot.
        if footer.seq32 != self.next_seq as u32 {
            let (obs, want, got) = (&self.obs, self.next_seq, footer.seq32);
            let context = || format!("footer seq32={got} in slot {slot}, expected seq {want}");
            self.stats.violations.note(Violation::Fifo, obs, context);
        }
        let len = footer.len as usize;
        let payload_off = foot_off - len;
        let out = match self
            .ring
            .with(payload_off, len, |payload| f(footer.flags, payload))
        {
            Ok(v) => v,
            Err(e) => {
                self.obs.record_failure(
                    &format!("channel payload decode out of ring bounds: {e:?}"),
                    &format!("seq={} len={len} payload_off={payload_off}", self.next_seq),
                );
                return Err(e);
            }
        };

        // Latency sample: send stamp (µs) → now. The same interval feeds
        // the channel-transit stage histogram (per buffer, not per record:
        // transit is a channel-level quantity).
        let now_ns = sim.now().as_nanos();
        let sent_ns = sent_us.saturating_mul(1_000);
        if now_ns >= sent_ns {
            self.stats.record_latency_ns(now_ns - sent_ns);
            self.obs.span_open(
                Stage::ChannelTransit,
                self.obs_pid,
                self.obs_tid,
                SimTime::from_nanos(sent_ns),
            );
            self.obs.span_close(
                Stage::ChannelTransit,
                self.obs_pid,
                self.obs_tid,
                sim.now(),
                1,
            );
        }

        if footer.flags.contains(MsgFlags::EOS) {
            self.eos_seen = true;
        }
        self.next_seq += 1;
        self.unreturned += 1;
        self.stats.on_buffer(len);
        self.obs.instant(
            Cat::Verb,
            "consume",
            self.obs_pid,
            self.obs_tid,
            sim.now(),
            &[("seq", self.next_seq - 1), ("len", len as u64)],
        );
        if (self.unreturned >= self.cfg.credit_batch || self.eos_seen) && !self.fault_drop_credits {
            self.return_credit(sim)?;
        }
        Ok(Some(out))
    }

    /// Convenience: copy the next buffer out, if ready.
    pub fn try_recv(&mut self, sim: &mut Sim) -> Result<Option<(MsgFlags, Vec<u8>)>, RdmaError> {
        self.poll_with(sim, |flags, payload| (flags, payload.to_vec()))
    }

    /// Write the cumulative consumed count into the producer's credit
    /// region (an 8-byte one-sided WRITE — the "credit transfer" of §6.2).
    fn return_credit(&mut self, sim: &mut Sim) -> Result<(), RdmaError> {
        self.credit_staging.write_u64(0, self.next_seq);
        self.qp.post_send(
            sim,
            WorkRequest::Write {
                wr_id: u64::MAX, // control message; never inspected
                local: LocalSlice::range(&self.credit_staging, 0, 8),
                remote: RemoteSlice {
                    key: self.remote_credit,
                    offset: 0,
                },
                signaled: false,
            },
        )?;
        self.unreturned = 0;
        self.stats.on_credit_msg();
        self.obs.instant(
            Cat::Verb,
            "credit-return",
            self.obs_pid,
            self.obs_tid,
            sim.now(),
            &[("acked", self.next_seq)],
        );
        Ok(())
    }
}

impl std::fmt::Debug for ChannelReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelReceiver")
            .field("node", &self.qp.local_node())
            .field("peer", &self.qp.peer_node())
            .field("next_seq", &self.next_seq)
            .field("eos", &self.eos_seen)
            .finish()
    }
}
