//! The producer endpoint of a channel: the sending half of the §6 ring
//! protocol, over a [`TxMemory`].

use slash_desim::{Sim, SimTime};
use slash_obs::{Cat, Obs};
use slash_rdma::RdmaError;

use crate::channel::{ChannelConfig, FabricTx};
use crate::layout::{generation, Footer, MsgFlags};
use crate::stats::{ChannelStats, Violation};

/// Where an endpoint's verb events render: a trace handle and its
/// Perfetto lanes (node id / peer id by convention). Only the simulated
/// fabric has one: threads share no clock, and an [`Obs`] never leaves its
/// thread.
#[derive(Default)]
pub struct Trace {
    pub(crate) obs: Obs,
    pub(crate) pid: u32,
    pub(crate) tid: u32,
}

impl Trace {
    pub(crate) fn instant(&self, at: SimTime, name: &'static str, args: &[(&'static str, u64)]) {
        self.obs
            .instant(Cat::Verb, name, self.pid, self.tid, at, args);
    }
}

/// The memory under a producer: the consumer's ring as the producer writes
/// it, and the credit counter the consumer writes back (§6.2). `C` is what
/// a write needs besides the memory: the simulator, for the fabric's
/// one-sided WRITE; a thread-shared ring needs nothing and takes any `C`.
pub trait TxMemory<C> {
    /// The consumer's cumulative consumed count, as last written back.
    fn acked(&self) -> u64;

    /// Write slot `slot` for sequence number `seq`: `fill` writes its `len`
    /// payload bytes, `footer` follows them, and the slot reaches the
    /// consumer no earlier than its payload.
    fn post(
        &mut self,
        ctx: &mut C,
        seq: u64,
        slot: usize,
        len: usize,
        footer: [u64; 2],
        fill: &mut dyn FnMut(&mut [u8]),
    ) -> Result<(), RdmaError>;

    /// Whether the link is down: a flushed QP, or a consumer thread gone.
    fn is_error(&self) -> bool;

    /// Re-establish after a fault: zero the credit counter.
    fn reset(&mut self);

    /// The trace lanes and `ctx`'s virtual now, if this memory has them.
    fn lane(&self, _ctx: &C) -> Option<(&Trace, SimTime)> {
        None
    }

    /// Attach a trace; a memory without lanes drops it.
    fn instrument(&mut self, _trace: Trace) {}
}

/// Producer endpoint.
///
/// Slot `seq % c` is filled in place (zero-copy for the engine, which
/// serializes records directly into the slot) and made visible to the
/// consumer footer last. The sender may pipeline up to `c` buffers before
/// it must observe returned credit (paper §6.2, "transfer phase").
///
/// The memory is the last field, so a boxed endpoint over any memory
/// coerces to one over `dyn TxMemory<Sim>`, which is how the engine holds
/// both kinds.
pub struct ChannelSender<M: ?Sized = FabricTx> {
    cfg: ChannelConfig,
    next_seq: u64,
    eos_sent: bool,
    /// Fault injection (verification only): send without observing credit.
    fault_ignore_credits: bool,
    /// Statistics (throughput/latency drill-down).
    pub stats: ChannelStats,
    mem: M,
}

impl<M: ?Sized> ChannelSender<M> {
    pub(crate) fn new(mem: M, cfg: ChannelConfig) -> Self
    where
        M: Sized,
    {
        ChannelSender {
            cfg,
            next_seq: 0,
            eos_sent: false,
            fault_ignore_credits: false,
            stats: ChannelStats::default(),
            mem,
        }
    }

    /// Maximum payload per buffer.
    pub fn payload_capacity(&self) -> usize {
        self.cfg.payload_capacity()
    }

    /// Sequence number of the next buffer to be sent.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
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

    /// Try to send one buffer. `len` is the payload size and `fill` writes
    /// exactly that many bytes into the slot (in place, zero-copy).
    ///
    /// Returns `Ok(false)` — without calling `fill` — when no credit is
    /// available; the caller should retry after making progress elsewhere
    /// (this is where Slash parks the RDMA coroutine).
    pub fn try_send_with<C, F>(
        &mut self,
        ctx: &mut C,
        flags: MsgFlags,
        len: usize,
        fill: F,
    ) -> Result<bool, RdmaError>
    where
        M: TxMemory<C>,
        F: FnOnce(&mut [u8]),
    {
        assert!(!self.eos_sent, "send after EOS is a protocol bug");
        assert!(
            len <= self.payload_capacity(),
            "payload {len} exceeds buffer capacity {}",
            self.payload_capacity()
        );
        // Saturating: a broken window is counted below, not an underflow.
        let acked = self.mem.acked();
        let in_flight = self.next_seq.saturating_sub(acked);
        let lane = self.mem.lane(ctx);
        if in_flight >= self.cfg.credits as u64 && !self.fault_ignore_credits {
            self.stats.credit_stalls += 1;
            if let Some((trace, now)) = lane {
                let args = [("seq", self.next_seq), ("in_flight", in_flight)];
                trace.instant(now, "credit-stall", &args);
            }
            return Ok(false);
        }
        let seq = self.next_seq;
        let footer = Footer {
            len: len as u32,
            seq32: seq as u32,
            flags,
            // The send time, so the consumer can measure buffer residence.
            sent_us: lane.map_or(0, |(_, now)| now.as_nanos() / 1_000),
            gen: generation(seq, self.cfg.credits),
        };
        let slot = (seq % self.cfg.credits as u64) as usize;
        let mut once = Some(fill);
        let fill = &mut |buf: &mut [u8]| once.take().map_or((), |f| f(buf));
        self.mem.post(ctx, seq, slot, len, footer.encode(), fill)?;
        self.next_seq += 1;
        // §6 credit window, in every build: acked ≤ next_seq ≤ acked + c.
        // (Wrapping: `acked > next_seq` reads as a huge distance.)
        let lane = self.mem.lane(ctx);
        if self.next_seq.wrapping_sub(acked) > self.cfg.credits as u64 {
            let (next, c) = (self.next_seq, self.cfg.credits);
            let context = || format!("acked={acked} next_seq={next} credits={c}");
            let off = Obs::disabled();
            let obs = lane.map_or(&off, |(trace, _)| &trace.obs);
            self.stats
                .violations
                .note(Violation::CreditWindow, obs, context);
        }
        self.stats.on_buffer(len);
        if let Some((trace, now)) = lane {
            trace.instant(now, "write", &[("seq", seq), ("len", len as u64)]);
        }
        Ok(true)
    }

    /// Try to send the end-of-stream marker. Returns false when no credit
    /// is available yet.
    pub fn try_send_eos<C>(&mut self, ctx: &mut C) -> Result<bool, RdmaError>
    where
        M: TxMemory<C>,
    {
        let sent = self.try_send_with(ctx, MsgFlags::EOS, 0, |_| {})?;
        self.eos_sent |= sent;
        Ok(sent)
    }
}

impl<M: ?Sized + TxMemory<Sim>> ChannelSender<M> {
    /// Attach a trace handle, its verb events under lanes `pid`/`tid`.
    pub fn instrument(&mut self, obs: Obs, pid: u32, tid: u32) {
        self.mem.instrument(Trace { obs, pid, tid });
    }

    /// Cumulative count of buffers the consumer has acknowledged via credit
    /// writes, as currently visible on this side. Exposed so the
    /// `slash-verify` race checker can require credits to converge at
    /// quiescence without reaching into the credit region.
    pub fn acked(&self) -> u64 {
        self.mem.acked()
    }

    /// Whether the link is down (a work request was flushed by a fault, or
    /// the consumer thread is gone). Sends are rejected until
    /// [`ChannelSender::reset`].
    pub fn is_error(&self) -> bool {
        self.mem.is_error()
    }

    /// Re-establish this endpoint after a fault: reset the link and its
    /// credit counter and the footer sequence to zero. The peer receiver
    /// must call [`crate::ChannelReceiver::reset`] for traffic to resume —
    /// and the engine must re-enqueue what the receiver had not committed.
    pub fn reset(&mut self) {
        self.mem.reset();
        self.next_seq = 0;
        self.eos_sent = false;
    }
}

impl ChannelSender {
    /// Send a byte slice over the simulated fabric.
    pub fn try_send(
        &mut self,
        sim: &mut Sim,
        flags: MsgFlags,
        data: &[u8],
    ) -> Result<bool, RdmaError> {
        self.try_send_with(sim, flags, data.len(), |slot| slot.copy_from_slice(data))
    }
}
