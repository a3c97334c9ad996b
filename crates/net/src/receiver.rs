//! The consumer endpoint of a channel: the receiving half of the §6 ring
//! protocol, over an [`RxMemory`].

use slash_desim::{Sim, SimTime};
use slash_obs::{Obs, Stage};
use slash_rdma::RdmaError;

use crate::channel::{ChannelConfig, FabricRx};
use crate::layout::{generation, Footer, MsgFlags};
use crate::sender::Trace;
use crate::stats::{ChannelStats, Violation};

/// The memory under a consumer: its own ring, which the producer writes,
/// and the way back to the producer's credit counter (§6.2). `C` is what a
/// credit write needs besides the memory, as for [`crate::TxMemory`].
pub trait RxMemory<C> {
    /// The poll byte of slot `slot`: its footer's generation.
    fn generation(&self, slot: usize) -> u8;

    /// Slot `slot`'s footer words.
    fn footer(&self, slot: usize) -> [u64; 2];

    /// Run `f` over the `len` payload bytes of slot `slot`.
    fn payload(
        &mut self,
        slot: usize,
        len: usize,
        f: &mut dyn FnMut(&[u8]),
    ) -> Result<(), RdmaError>;

    /// Write the cumulative consumed count `acked` into the producer's
    /// credit counter.
    fn return_credit(&mut self, ctx: &mut C, acked: u64) -> Result<(), RdmaError>;

    /// Whether the link is down; a thread-shared ring never is.
    fn is_error(&self) -> bool {
        false
    }

    /// Re-establish after a fault: clear every slot's generation byte, so
    /// half-written buffers from the previous incarnation can never look
    /// ready.
    fn reset(&mut self);

    /// The trace lanes and `ctx`'s virtual now, if this memory has them.
    fn lane(&self, _ctx: &C) -> Option<(&Trace, SimTime)> {
        None
    }

    /// Attach a trace; a memory without lanes drops it.
    fn instrument(&mut self, _trace: Trace) {}
}

/// Consumer endpoint.
///
/// Polls the footer byte of the next expected slot in its *local* ring
/// memory (remote producers push with WRITEs, so polling costs no network
/// traffic — the paper's argument for a push model, §6.3), processes the
/// payload in place, and returns credit by writing its cumulative consumed
/// count into the producer's credit counter. Like the sender, it ends in
/// its memory, so a boxed endpoint coerces to one over `dyn RxMemory<Sim>`.
pub struct ChannelReceiver<M: ?Sized = FabricRx> {
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
    mem: M,
}

impl<M: ?Sized> ChannelReceiver<M> {
    pub(crate) fn new(mem: M, cfg: ChannelConfig) -> Self
    where
        M: Sized,
    {
        ChannelReceiver {
            cfg,
            next_seq: 0,
            unreturned: 0,
            eos_seen: false,
            fault_drop_credits: false,
            fault_swap: 0,
            stats: ChannelStats::default(),
            mem,
        }
    }

    /// Sequence number of the next buffer expected.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Whether the producer has signalled end-of-stream and everything
    /// before it was consumed.
    #[cfg(test)]
    pub(crate) fn eos(&self) -> bool {
        self.eos_seen
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

    fn slot(&self, seq: u64) -> usize {
        (seq % self.cfg.credits as u64) as usize
    }

    /// Whether the buffer with sequence number `seq` has landed.
    fn slot_ready<C>(&self, seq: u64) -> bool
    where
        M: RxMemory<C>,
    {
        self.mem.generation(self.slot(seq)) == generation(seq, self.cfg.credits)
    }

    /// Fault injection: the sequence number the reorder plant consumes
    /// next — slot k+1 while armed and it has landed, then slot k.
    #[cold]
    fn fault_swapped_seq<C>(&mut self) -> u64
    where
        M: RxMemory<C>,
    {
        let (seq, next) = match self.fault_swap {
            1 if self.slot_ready::<C>(self.next_seq + 1) => (self.next_seq + 1, 2),
            2 => (self.next_seq - 1, 0),
            armed => (self.next_seq, armed),
        };
        self.fault_swap = next;
        seq
    }

    /// Poll for the next buffer; if one is ready, run `f` over
    /// `(flags, payload)` in place and return its result. Consuming the
    /// buffer returns credit to the producer (possibly batched).
    pub fn poll_with<C, R>(
        &mut self,
        ctx: &mut C,
        f: impl FnOnce(MsgFlags, &[u8]) -> R,
    ) -> Result<Option<R>, RdmaError>
    where
        M: RxMemory<C>,
    {
        if !self.slot_ready::<C>(self.next_seq) {
            self.stats.empty_polls += 1;
            return Ok(None);
        }
        let seq = match self.fault_swap {
            0 => self.next_seq,
            _ => self.fault_swapped_seq::<C>(),
        };
        let slot = self.slot(seq);
        let footer = Footer::decode(self.mem.footer(slot));
        let lane = self.mem.lane(ctx);
        // §6 FIFO, in every build: the footer carries the sequence number
        // so that one compare catches a reordered or overwritten slot.
        if footer.seq32 != self.next_seq as u32 {
            let (want, got) = (self.next_seq, footer.seq32);
            let context = || format!("footer seq32={got} in slot {slot}, expected seq {want}");
            let off = Obs::disabled();
            let obs = lane.map_or(&off, |(trace, _)| &trace.obs);
            self.stats.violations.note(Violation::Fifo, obs, context);
        }
        let len = footer.len as usize;
        let (mut once, mut out) = (Some(f), None);
        let run = &mut |payload: &[u8]| out = once.take().map(|f| f(footer.flags, payload));
        if let Err(e) = self.mem.payload(slot, len, run) {
            // The footer's length disagrees with the ring bounds: capture a
            // flight-recorder dump and surface the error, not a panic.
            if let Some((trace, _)) = self.mem.lane(ctx) {
                let reason = format!("channel payload decode out of ring bounds: {e:?}");
                let context = format!("seq={} len={len} slot={slot}", self.next_seq);
                trace.obs.record_failure(&reason, &context);
            }
            return Err(e);
        }
        if let Some((trace, now)) = self.mem.lane(ctx) {
            // Latency sample: send stamp (µs) → now. The same interval
            // feeds the channel-transit stage histogram (per buffer, not
            // per record: transit is a channel-level quantity).
            let sent = SimTime::from_nanos(footer.sent_us.saturating_mul(1_000));
            if now >= sent {
                self.stats.latency.record(now.as_nanos() - sent.as_nanos());
                let (obs, pid, tid) = (&trace.obs, trace.pid, trace.tid);
                obs.span_open(Stage::ChannelTransit, pid, tid, sent);
                obs.span_close(Stage::ChannelTransit, pid, tid, now, 1);
            }
            trace.instant(
                now,
                "consume",
                &[("seq", self.next_seq), ("len", len as u64)],
            );
        }
        self.eos_seen |= footer.flags.contains(MsgFlags::EOS);
        self.next_seq += 1;
        self.unreturned += 1;
        self.stats.on_buffer(len);
        if (self.unreturned >= self.cfg.credit_batch || self.eos_seen) && !self.fault_drop_credits {
            self.mem.return_credit(ctx, self.next_seq)?;
            self.unreturned = 0;
            self.stats.credit_msgs += 1;
            if let Some((trace, now)) = self.mem.lane(ctx) {
                trace.instant(now, "credit-return", &[("acked", self.next_seq)]);
            }
        }
        Ok(out)
    }
}

impl<M: ?Sized + RxMemory<Sim>> ChannelReceiver<M> {
    /// Attach a trace handle, its verb events under lanes `pid`/`tid`.
    pub fn instrument(&mut self, obs: Obs, pid: u32, tid: u32) {
        self.mem.instrument(Trace { obs, pid, tid });
    }

    /// Whether the link is down (a work request was flushed by a fault).
    /// Credit writes are rejected until [`ChannelReceiver::reset`].
    pub fn is_error(&self) -> bool {
        self.mem.is_error()
    }

    /// Re-establish this endpoint after a fault: reset the link and its
    /// generation bytes and rewind the expected sequence to zero. The peer
    /// sender must call [`crate::ChannelSender::reset`] for traffic to resume.
    pub fn reset(&mut self) {
        self.mem.reset();
        self.next_seq = 0;
        self.unreturned = 0;
        self.eos_seen = false;
    }
}

impl ChannelReceiver {
    /// Copy the next buffer out of the simulated fabric, if ready.
    pub fn try_recv(&mut self, sim: &mut Sim) -> Result<Option<(MsgFlags, Vec<u8>)>, RdmaError> {
        self.poll_with(sim, |flags, payload| (flags, payload.to_vec()))
    }
}
