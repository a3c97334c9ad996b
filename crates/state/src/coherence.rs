//! Helper→leader delta shipping over RDMA channels (§7.2.2).
//!
//! A [`DeltaSender`] lives on a helper and owns the RDMA channel to one
//! leader; it queues encoded chunks and pushes them as channel credits
//! allow (the engine's scheduler pumps it between compute tasks, which is
//! how Slash "interleaves reception and merging of delta changes with
//! query processing"). A [`DeltaReceiver`] lives on the leader and merges
//! inbound chunks into the primary partition, advancing the vector clock
//! when an epoch's final chunk lands.

use slash_desim::{Sim, SimTime};
use slash_net::{ChannelReceiver, ChannelSender, MsgFlags, SpscReceiver, SpscSender};
use slash_obs::{Cat, Obs};
use slash_rdma::RdmaError;

use crate::delta::{try_parse_runs, ChunkBuilder, DeltaDecodeError};
use crate::entry::EntryKind;
use crate::hash::StateKey;
use crate::partition::Partition;
use crate::vclock::VectorClock;

/// Errors surfaced by the coherence protocol: transport failures from the
/// RDMA layer, or a delta chunk that failed strict wire validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The underlying RDMA channel failed.
    Rdma(RdmaError),
    /// An inbound delta chunk was malformed.
    Decode(DeltaDecodeError),
}

impl From<RdmaError> for StateError {
    fn from(e: RdmaError) -> Self {
        StateError::Rdma(e)
    }
}

impl From<DeltaDecodeError> for StateError {
    fn from(e: DeltaDecodeError) -> Self {
        StateError::Decode(e)
    }
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Rdma(e) => write!(f, "rdma channel error: {e:?}"),
            StateError::Decode(e) => write!(f, "delta decode error: {e}"),
        }
    }
}

/// One closed epoch retained for possible replay (fault tolerance).
///
/// Recovery resends the *original* encoded chunks rather than regenerating
/// them: the fragment's log was invalidated at epoch close, and replaying
/// verbatim is what makes a recovered run bit-identical to the no-fault
/// run. Retention is opt-in (see [`DeltaSender::set_retention`]) and
/// pruned once the epoch is covered by the leader's durable checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetainedEpoch {
    /// Epoch id (the fragment's epoch counter when it closed).
    pub epoch: u64,
    /// Helper watermark shipped with the epoch.
    pub watermark: u64,
    /// The exact encoded chunks, final chunk carrying the `fin` marker.
    pub chunks: Vec<Vec<u8>>,
}

/// The transport a delta endpoint ships over. The deterministic
/// simulator uses the modeled RDMA channel (costs, faults, credit
/// messages on the virtual wire); the threaded executor uses an
/// in-process SPSC link with the same FIFO + credit-bound semantics.
/// The coherence protocol above this enum is byte-identical either way —
/// that is what makes sim and threaded runs converge to the same state.
enum SenderPort {
    /// Simulated RDMA channel (deterministic backend).
    Rdma(ChannelSender),
    /// In-process SPSC link (threaded backend).
    Spsc(SpscSender),
}

impl SenderPort {
    fn payload_capacity(&self) -> usize {
        match self {
            SenderPort::Rdma(c) => c.payload_capacity(),
            SenderPort::Spsc(c) => c.payload_capacity(),
        }
    }

    /// Try to push one chunk; `Ok(false)` means "no credit, retry later".
    fn try_send(&mut self, sim: &mut Sim, chunk: &[u8]) -> Result<bool, RdmaError> {
        match self {
            SenderPort::Rdma(c) => c.try_send(sim, MsgFlags::STATE_DELTA, chunk),
            SenderPort::Spsc(c) => {
                if c.try_send(MsgFlags::STATE_DELTA, chunk) {
                    Ok(true)
                } else if c.is_error() {
                    Err(RdmaError::QpError)
                } else {
                    Ok(false)
                }
            }
        }
    }
}

/// Helper-side shipping endpoint for one (helper, leader) pair.
pub struct DeltaSender {
    port: SenderPort,
    outbox: std::collections::VecDeque<Vec<u8>>,
    /// Retain closed epochs for replay (fault-tolerant runs only).
    retain: bool,
    retained: Vec<RetainedEpoch>,
    /// Chunks shipped (stats).
    pub chunks_sent: u64,
    /// High-water mark of the outbox depth (queue-depth telemetry).
    peak_backlog: usize,
    obs: Obs,
    obs_pid: u32,
    obs_tid: u32,
}

impl DeltaSender {
    /// Wrap a channel whose consumer is the partition's leader.
    pub fn new(chan: ChannelSender) -> Self {
        DeltaSender::with_port(SenderPort::Rdma(chan))
    }

    /// Wrap an in-process SPSC link (threaded executor).
    pub fn over_spsc(link: SpscSender) -> Self {
        DeltaSender::with_port(SenderPort::Spsc(link))
    }

    fn with_port(port: SenderPort) -> Self {
        DeltaSender {
            port,
            outbox: std::collections::VecDeque::new(),
            retain: false,
            retained: Vec::new(),
            chunks_sent: 0,
            peak_backlog: 0,
            obs: Obs::disabled(),
            obs_pid: 0,
            obs_tid: 0,
        }
    }

    /// Attach a trace handle; `pid` is the helper node, `tid` the leader.
    /// Also instruments the underlying channel's verb events.
    pub fn instrument(&mut self, obs: Obs, pid: u32, tid: u32) {
        if let SenderPort::Rdma(chan) = &mut self.port {
            chan.instrument(obs.clone(), pid, tid);
        }
        self.obs = obs;
        self.obs_pid = pid;
        self.obs_tid = tid;
    }

    /// Close the fragment's open epoch and queue its delta for shipping.
    /// `watermark` is this helper's low watermark at the token; `now` is
    /// stamped into the chunk headers so the leader can measure merge
    /// latency (epoch-coherence "propose" phase).
    pub fn enqueue_epoch(&mut self, fragment: &mut Partition, watermark: u64, now: SimTime) {
        let epoch = fragment.epoch();
        let mut builder = ChunkBuilder::new(
            fragment.id as u32,
            epoch,
            watermark,
            now.as_nanos() / 1_000,
            self.port.payload_capacity(),
        );
        fragment.close_epoch(|h, v| builder.push_run(h.key, h.kind, h.stride, v));
        let chunks = builder.finish();
        self.obs.instant(
            Cat::Epoch,
            "epoch-propose",
            self.obs_pid,
            self.obs_tid,
            now,
            &[
                ("epoch", epoch),
                ("watermark", watermark),
                ("chunks", chunks.len() as u64),
            ],
        );
        if self.retain {
            self.retained.push(RetainedEpoch {
                epoch,
                watermark,
                chunks: chunks.clone(),
            });
        }
        self.outbox.extend(chunks);
        self.peak_backlog = self.peak_backlog.max(self.outbox.len());
    }

    /// Enable (or disable) epoch retention for replay-based recovery.
    /// Fault-tolerant runs enable this before any epoch closes; the
    /// default path keeps the zero-copy, zero-retention behavior.
    pub fn set_retention(&mut self, retain: bool) {
        self.retain = retain;
    }

    /// Epochs retained for replay, oldest first.
    pub fn retained(&self) -> &[RetainedEpoch] {
        &self.retained
    }

    /// Install a retained-epoch list recovered from a checkpoint (the
    /// promoted replacement of a crashed helper starts from here). Enables
    /// retention as a side effect.
    pub(crate) fn restore_retained(&mut self, retained: Vec<RetainedEpoch>) {
        self.retain = true;
        self.retained = retained;
    }

    /// Drop retained epochs with id below `epoch` — they are covered by
    /// the leader's durable checkpoint and can never be asked for again.
    /// This is what bounds retention memory.
    pub fn prune_retained_below(&mut self, epoch: u64) {
        self.retained.retain(|r| r.epoch >= epoch);
    }

    /// Discard the outbox and re-queue the original chunks of every
    /// retained epoch with id ≥ `from_epoch` (channel re-establishment:
    /// resend exactly what the receiver has not committed). Returns the
    /// number of epochs queued.
    pub(crate) fn requeue_from(&mut self, from_epoch: u64) -> usize {
        self.outbox.clear();
        let mut n = 0;
        for r in &self.retained {
            if r.epoch >= from_epoch {
                self.outbox.extend(r.chunks.iter().cloned());
                n += 1;
            }
        }
        self.peak_backlog = self.peak_backlog.max(self.outbox.len());
        n
    }

    /// Whether the underlying channel's QP (or SPSC peer) is in the
    /// error state.
    pub fn is_error(&self) -> bool {
        match &self.port {
            SenderPort::Rdma(c) => c.is_error(),
            SenderPort::Spsc(c) => c.is_error(),
        }
    }

    /// Reset the underlying channel endpoint after a fault (the peer
    /// receiver must reset too). The outbox is kept: pumping resumes once
    /// both ends are re-established. SPSC links have no reset protocol —
    /// fault injection belongs to the simulated backend.
    pub(crate) fn reset_channel(&mut self) {
        if let SenderPort::Rdma(chan) = &mut self.port {
            chan.reset();
        }
    }

    /// Push queued chunks while channel credits allow. Returns the number
    /// of chunks sent this call.
    pub fn pump(&mut self, sim: &mut Sim) -> Result<usize, RdmaError> {
        let mut sent = 0;
        while let Some(chunk) = self.outbox.front() {
            if !self.port.try_send(sim, chunk)? {
                break;
            }
            self.outbox.pop_front();
            sent += 1;
            self.chunks_sent += 1;
        }
        Ok(sent)
    }

    /// Chunks still waiting for credit.
    pub fn backlog(&self) -> usize {
        self.outbox.len()
    }

    /// Deepest the outbox has ever been (queue-depth telemetry).
    pub fn peak_backlog(&self) -> usize {
        self.peak_backlog
    }

    /// Channel statistics.
    pub fn channel_stats(&self) -> &slash_net::ChannelStats {
        match &self.port {
            SenderPort::Rdma(c) => &c.stats,
            SenderPort::Spsc(c) => c.stats(),
        }
    }
}

/// Received entries awaiting commit, flat: the values back to back in one
/// byte arena and one `(key, kind, stride, len)` row per entry — per run,
/// for appended state — so staging an entry allocates nothing and
/// un-staging a chunk is two truncates.
#[derive(Default)]
struct Staged {
    rows: Vec<(StateKey, EntryKind, u8, u32)>,
    bytes: Vec<u8>,
}

impl Staged {
    /// Drop every entry past the first `rows`, whose values end at `bytes`.
    fn truncate(&mut self, (rows, bytes): (usize, usize)) {
        self.rows.truncate(rows);
        self.bytes.truncate(bytes);
    }
}

/// A fully-received epoch staged until its source's checkpoint makes it
/// durable (commit gating, see [`DeltaReceiver::set_durable_epochs`]).
struct PendingEpoch {
    epoch: u64,
    watermark: u64,
    sent_us: u64,
    entries: Staged,
}

/// Receiver-side transport, mirroring [`SenderPort`].
enum ReceiverPort {
    /// Simulated RDMA channel (deterministic backend).
    Rdma(ChannelReceiver),
    /// In-process SPSC link (threaded backend).
    Spsc(SpscReceiver),
}

impl ReceiverPort {
    /// Poll one delivered chunk's payload, if any.
    fn poll_payload(&mut self, sim: &mut Sim) -> Result<Option<Vec<u8>>, RdmaError> {
        match self {
            ReceiverPort::Rdma(c) => c.poll_with(sim, |flags, payload| {
                debug_assert!(flags.contains(MsgFlags::STATE_DELTA));
                payload.to_vec()
            }),
            ReceiverPort::Spsc(c) => Ok(c.try_recv().map(|(flags, payload)| {
                debug_assert!(flags.contains(MsgFlags::STATE_DELTA));
                payload
            })),
        }
    }
}

/// Leader-side merge endpoint for one inbound helper.
///
/// Merging is *epoch-atomic*: chunks are staged until the epoch's final
/// chunk arrives, then the whole epoch is applied at once. A partially
/// received epoch from a crashed or flapped helper is simply discarded and
/// replayed — and because every epoch carries its fragment's epoch id,
/// replayed epochs the receiver already committed are deduplicated, which
/// is what makes non-idempotent CRDT merges (counters *add*) safe to
/// replay at epoch granularity.
pub struct DeltaReceiver {
    port: ReceiverPort,
    /// Which executor the deltas come from (vector-clock slot).
    helper: usize,
    /// Entries of the in-progress (not yet `fin`) epoch.
    staged: Staged,
    /// The malformed chunk that poisoned this receiver, if one arrived:
    /// nothing commits after it and every [`Self::pump`] reports it.
    rejected: Option<DeltaDecodeError>,
    /// Fully received epochs awaiting the durability gate, oldest first.
    pending: std::collections::VecDeque<PendingEpoch>,
    /// Next epoch id expected to commit (epochs `< next_epoch` are
    /// committed; replays of them are discarded).
    next_epoch: u64,
    /// Commit gate: only epochs `< durable_epochs` may merge. `u64::MAX`
    /// (the default) disables gating for non-fault-tolerant runs.
    durable_epochs: u64,
    /// Entries merged (stats).
    pub entries_merged: u64,
    obs: Obs,
    obs_pid: u32,
    /// Registry label for epoch-merge latency (`chan=<helper>-><leader>`).
    obs_label: String,
}

impl DeltaReceiver {
    /// Wrap a channel whose producer is helper executor `helper`.
    pub fn new(chan: ChannelReceiver, helper: usize) -> Self {
        DeltaReceiver::with_port(ReceiverPort::Rdma(chan), helper)
    }

    /// Wrap an in-process SPSC link (threaded executor).
    pub fn over_spsc(link: SpscReceiver, helper: usize) -> Self {
        DeltaReceiver::with_port(ReceiverPort::Spsc(link), helper)
    }

    fn with_port(port: ReceiverPort, helper: usize) -> Self {
        DeltaReceiver {
            port,
            helper,
            staged: Staged::default(),
            rejected: None,
            pending: std::collections::VecDeque::new(),
            next_epoch: 0,
            durable_epochs: u64::MAX,
            entries_merged: 0,
            obs: Obs::disabled(),
            obs_pid: 0,
            obs_label: String::new(),
        }
    }

    /// Attach a trace handle; `leader` is the node this receiver merges
    /// into. Also instruments the underlying channel's verb events.
    pub fn instrument(&mut self, obs: Obs, leader: u32) {
        if let ReceiverPort::Rdma(chan) = &mut self.port {
            chan.instrument(obs.clone(), leader, self.helper as u32);
        }
        self.obs = obs;
        self.obs_pid = leader;
        self.obs_label = format!("chan={}->{}", self.helper, leader);
    }

    /// The helper executor this receiver listens to.
    pub fn helper(&self) -> usize {
        self.helper
    }

    /// Channel statistics.
    pub fn channel_stats(&self) -> &slash_net::ChannelStats {
        match &self.port {
            ReceiverPort::Rdma(c) => &c.stats,
            ReceiverPort::Spsc(c) => c.stats(),
        }
    }

    /// Registry label used by this receiver's instrumentation.
    pub fn obs_label(&self) -> &str {
        &self.obs_label
    }

    /// Next epoch id this receiver expects to commit (== number of epochs
    /// from its helper already merged into the primary, counting from 0).
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Seed the committed-epoch horizon (recovery: a restored primary
    /// already contains the helper's epochs `< next_epoch`, so replays of
    /// them must be discarded, not re-merged).
    pub(crate) fn seed_next_epoch(&mut self, next_epoch: u64) {
        self.next_epoch = next_epoch;
    }

    /// Set the commit gate: epochs with id `< durable_epochs` may merge.
    ///
    /// Fault-tolerant runs advance this as the helper's checkpoints become
    /// durable, guaranteeing that every committed epoch is replayable from
    /// a checkpoint if *this* node later crashes. `u64::MAX` disables the
    /// gate.
    pub fn set_durable_epochs(&mut self, durable_epochs: u64) {
        self.durable_epochs = durable_epochs;
    }

    /// Fully received epochs currently blocked on the durability gate.
    pub fn pending_epochs(&self) -> usize {
        self.pending.len()
    }

    /// Discard everything not yet committed: the in-progress epoch's
    /// staged entries and all gated pending epochs. Called when the
    /// channel is torn down — the helper (or its replacement) will replay
    /// these epochs verbatim.
    pub(crate) fn abort_uncommitted(&mut self) {
        self.staged.truncate((0, 0));
        self.pending.clear();
    }

    /// Whether the underlying channel's QP is in the error state. SPSC
    /// links never error on the receive side (a vanished producer just
    /// stops producing).
    pub fn is_error(&self) -> bool {
        match &self.port {
            ReceiverPort::Rdma(c) => c.is_error(),
            ReceiverPort::Spsc(_) => false,
        }
    }

    /// Reset the underlying channel endpoint after a fault and discard
    /// uncommitted epochs (the peer sender must reset and requeue).
    pub(crate) fn reset_channel(&mut self) {
        if let ReceiverPort::Rdma(chan) = &mut self.port {
            chan.reset();
        }
        self.abort_uncommitted();
    }

    /// Drain every delivered chunk, staging entries until an epoch's final
    /// chunk arrives, then commit complete epochs (in order) as far as the
    /// durability gate allows: merge into `primary` and advance `vclock`.
    /// Returns entries merged this call.
    ///
    /// A malformed chunk (strict wire validation) is rejected whole and
    /// for good: the entries it staged before the error are rolled back, a
    /// flight-recorder dump with vector-clock context is captured, and this
    /// and every later call return [`StateError::Decode`] without
    /// committing anything more, epochs still waiting in this receiver
    /// included — the epoch it belonged to can no longer be told complete
    /// from torn, so neither it nor its successors merge and the helper's
    /// vector-clock slot stays where it was. An error, never a partial
    /// epoch in the primary.
    pub fn pump(
        &mut self,
        sim: &mut Sim,
        primary: &mut Partition,
        vclock: &mut VectorClock,
    ) -> Result<u64, StateError> {
        if let Some(e) = &self.rejected {
            return Err(e.clone().into());
        }
        loop {
            let polled = self.port.poll_payload(sim)?;
            let Some(payload) = polled else { break };
            let staged = &mut self.staged;
            let before = (staged.rows.len(), staged.bytes.len());
            let parsed = try_parse_runs(&payload, |key, kind, stride, value| {
                // A value fits one channel buffer, far below 4 GiB.
                staged.rows.push((key, kind, stride, value.len() as u32));
                staged.bytes.extend_from_slice(value);
            });
            let header = match parsed {
                Ok(h) => h,
                Err(e) => {
                    self.staged.truncate(before);
                    self.rejected = Some(e.clone());
                    self.obs.record_failure(
                        &format!("delta chunk decode failed: {e}"),
                        &format!(
                            "helper={} partition={} vclock={:?}",
                            self.helper,
                            primary.id,
                            vclock.snapshot()
                        ),
                    );
                    return Err(e.into());
                }
            };
            debug_assert_eq!(header.partition as usize, primary.id);
            if header.fin {
                if header.epoch < self.next_epoch {
                    // Replay of an epoch already merged into the primary:
                    // discard whole (epoch-granularity idempotence).
                    self.staged.truncate((0, 0));
                    self.obs.instant(
                        Cat::Epoch,
                        "epoch-dup-discard",
                        self.obs_pid,
                        self.helper as u32,
                        sim.now(),
                        &[("epoch", header.epoch), ("committed", self.next_epoch)],
                    );
                } else {
                    debug_assert!(
                        self.pending.back().is_none_or(|p| header.epoch > p.epoch),
                        "epochs arrive in order on a FIFO channel"
                    );
                    self.pending.push_back(PendingEpoch {
                        epoch: header.epoch,
                        watermark: header.watermark,
                        sent_us: header.sent_us,
                        entries: std::mem::take(&mut self.staged),
                    });
                }
            }
        }
        let merged = self.commit_ready(sim, primary, vclock);
        self.entries_merged += merged;
        Ok(merged)
    }

    /// Commit pending epochs allowed by the durability gate, in order.
    fn commit_ready(
        &mut self,
        sim: &mut Sim,
        primary: &mut Partition,
        vclock: &mut VectorClock,
    ) -> u64 {
        let mut merged = 0;
        while self
            .pending
            .front()
            .is_some_and(|p| p.epoch < self.durable_epochs)
        {
            let Some(mut ep) = self.pending.pop_front() else {
                break;
            };
            let mut rest = &ep.entries.bytes[..];
            for &(key, kind, stride, len) in &ep.entries.rows {
                let (value, tail) = rest.split_at(len as usize);
                match kind {
                    EntryKind::Fixed => primary.merge_fixed(key, value),
                    // One probe and one copy into the primary's newest run.
                    EntryKind::Appended => primary.append_run(key, stride, value),
                }
                rest = tail;
            }
            merged += ep.entries.rows.len() as u64;
            // Hand the buffers back for the next epoch unless one is
            // already being staged.
            if self.staged.rows.capacity() == 0 {
                ep.entries.truncate((0, 0));
                self.staged = ep.entries;
            }
            // Epoch "merge" completes here; the vclock update below is
            // the "install" phase the rest of the node observes.
            let now = sim.now();
            let sent = SimTime::from_nanos(ep.sent_us.saturating_mul(1_000));
            self.obs.span(
                Cat::Epoch,
                "epoch-merge",
                self.obs_pid,
                self.helper as u32,
                sent.min(now),
                now,
                &[("epoch", ep.epoch), ("watermark", ep.watermark)],
            );
            if ep.sent_us > 0 {
                let lat = now.as_nanos().saturating_sub(sent.as_nanos());
                self.obs
                    .hist_record("epoch_merge_latency_ns", &self.obs_label, lat);
            }
            vclock.update(self.helper, ep.watermark);
            self.next_epoch = ep.epoch + 1;
            self.obs.instant(
                Cat::Epoch,
                "epoch-install",
                self.obs_pid,
                self.helper as u32,
                now,
                &[("epoch", ep.epoch), ("watermark", ep.watermark)],
            );
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crdts::CounterCrdt;
    use crate::delta::{entry_wire_size, DELTA_HEADER_SIZE};
    use slash_desim::Sim;
    use slash_net::{create_channel, ChannelConfig};
    use slash_rdma::{Fabric, FabricConfig};

    fn pair(cfg: ChannelConfig) -> (Sim, DeltaSender, DeltaReceiver) {
        let sim = Sim::new();
        let fabric = Fabric::new(FabricConfig::default());
        let helper = fabric.add_node();
        let leader = fabric.add_node();
        let (tx, rx) = create_channel(&fabric, helper, leader, cfg);
        (sim, DeltaSender::new(tx), DeltaReceiver::new(rx, 1))
    }

    #[test]
    fn ship_and_merge_counters() {
        let (mut sim, mut tx, mut rx) = pair(ChannelConfig::default());
        let desc = CounterCrdt::descriptor();
        let mut fragment = Partition::new(0, desc);
        let mut primary = Partition::new(0, desc);
        let mut vclock = VectorClock::new(2);

        // Leader already has local counts; helper contributes more.
        primary.rmw(7, |v| CounterCrdt::add(v, 100));
        fragment.rmw(7, |v| CounterCrdt::add(v, 11));
        fragment.rmw(8, |v| CounterCrdt::add(v, 22));

        tx.enqueue_epoch(&mut fragment, 5_000, sim.now());
        tx.pump(&mut sim).unwrap();
        sim.run();
        let merged = rx.pump(&mut sim, &mut primary, &mut vclock).unwrap();
        assert_eq!(merged, 2);
        assert_eq!(primary.get(7).map(CounterCrdt::get), Some(111));
        assert_eq!(primary.get(8).map(CounterCrdt::get), Some(22));
        assert_eq!(vclock.get(1), 5_000, "watermark piggybacked");
        assert_eq!(vclock.get(0), 0, "leader's own slot untouched");
    }

    #[test]
    fn empty_epoch_still_advances_the_clock() {
        let (mut sim, mut tx, mut rx) = pair(ChannelConfig::default());
        let desc = CounterCrdt::descriptor();
        let mut fragment = Partition::new(0, desc);
        let mut primary = Partition::new(0, desc);
        let mut vclock = VectorClock::new(2);

        tx.enqueue_epoch(&mut fragment, 777, sim.now());
        tx.pump(&mut sim).unwrap();
        sim.run();
        assert_eq!(rx.pump(&mut sim, &mut primary, &mut vclock).unwrap(), 0);
        assert_eq!(vclock.get(1), 777);
    }

    #[test]
    fn backlog_drains_across_credit_stalls() {
        // A tiny channel forces the sender to stall on credits mid-epoch;
        // repeated pumps (as the scheduler would do) must drain everything.
        let cfg = ChannelConfig {
            credits: 2,
            buffer_size: 128,
            credit_batch: 1,
        };
        let (mut sim, mut tx, mut rx) = pair(cfg);
        let desc = CounterCrdt::descriptor();
        let mut fragment = Partition::new(0, desc);
        let mut primary = Partition::new(0, desc);
        let mut vclock = VectorClock::new(2);

        for k in 0..50u128 {
            fragment.rmw(k, |v| CounterCrdt::add(v, 1));
        }
        tx.enqueue_epoch(&mut fragment, 42, sim.now());
        assert!(tx.backlog() > 2, "must not fit in one credit window");

        let mut spins = 0;
        while tx.backlog() > 0 || vclock.get(1) < 42 {
            spins += 1;
            assert!(spins < 10_000, "shipping deadlocked");
            tx.pump(&mut sim).unwrap();
            sim.run();
            rx.pump(&mut sim, &mut primary, &mut vclock).unwrap();
            sim.run();
        }
        for k in 0..50u128 {
            assert_eq!(primary.get(k).map(CounterCrdt::get), Some(1));
        }
        assert_eq!(rx.entries_merged, 50);
    }

    #[test]
    fn durability_gate_defers_commits() {
        let (mut sim, mut tx, mut rx) = pair(ChannelConfig::default());
        let desc = CounterCrdt::descriptor();
        let mut fragment = Partition::new(0, desc);
        let mut primary = Partition::new(0, desc);
        let mut vclock = VectorClock::new(2);

        rx.set_durable_epochs(0); // nothing durable yet
        fragment.rmw(3, |v| CounterCrdt::add(v, 9));
        tx.enqueue_epoch(&mut fragment, 10, sim.now());
        tx.pump(&mut sim).unwrap();
        sim.run();
        assert_eq!(rx.pump(&mut sim, &mut primary, &mut vclock).unwrap(), 0);
        assert_eq!(rx.pending_epochs(), 1, "epoch staged, not committed");
        assert_eq!(primary.get(3), None);
        assert_eq!(vclock.get(1), 0, "clock must not advance early");

        rx.set_durable_epochs(1); // helper's checkpoint covers epoch 0
        assert_eq!(rx.pump(&mut sim, &mut primary, &mut vclock).unwrap(), 1);
        assert_eq!(primary.get(3).map(CounterCrdt::get), Some(9));
        assert_eq!(vclock.get(1), 10);
        assert_eq!(rx.next_epoch(), 1);
    }

    #[test]
    fn replayed_epochs_are_discarded_not_remerged() {
        let (mut sim, mut tx, mut rx) = pair(ChannelConfig::default());
        let desc = CounterCrdt::descriptor();
        let mut fragment = Partition::new(0, desc);
        let mut primary = Partition::new(0, desc);
        let mut vclock = VectorClock::new(2);

        tx.set_retention(true);
        fragment.rmw(1, |v| CounterCrdt::add(v, 5));
        tx.enqueue_epoch(&mut fragment, 10, sim.now());
        fragment.rmw(1, |v| CounterCrdt::add(v, 7));
        tx.enqueue_epoch(&mut fragment, 20, sim.now());
        while tx.backlog() > 0 {
            tx.pump(&mut sim).unwrap();
            sim.run();
            rx.pump(&mut sim, &mut primary, &mut vclock).unwrap();
        }
        sim.run();
        rx.pump(&mut sim, &mut primary, &mut vclock).unwrap();
        assert_eq!(primary.get(1).map(CounterCrdt::get), Some(12));
        assert_eq!(rx.next_epoch(), 2);

        // Replay everything (as channel re-establishment would after the
        // receiver reported nothing committed-since): counters must NOT
        // double — epoch ids 0 and 1 are already committed.
        assert_eq!(tx.requeue_from(0), 2);
        while tx.backlog() > 0 {
            tx.pump(&mut sim).unwrap();
            sim.run();
            rx.pump(&mut sim, &mut primary, &mut vclock).unwrap();
        }
        sim.run();
        rx.pump(&mut sim, &mut primary, &mut vclock).unwrap();
        assert_eq!(
            primary.get(1).map(CounterCrdt::get),
            Some(12),
            "replayed epochs deduplicated"
        );
        // Pruning below the committed horizon bounds retention memory.
        tx.prune_retained_below(rx.next_epoch());
        assert!(tx.retained().is_empty());
    }

    #[test]
    fn partial_epoch_is_aborted_and_replayed_after_reset() {
        // Tiny buffers force one epoch across many chunks so a link flap
        // can strand a *partial* epoch at the receiver.
        let cfg = ChannelConfig {
            credits: 2,
            buffer_size: 128,
            credit_batch: 1,
        };
        let mut sim = Sim::new();
        let fabric = slash_rdma::Fabric::new(FabricConfig::default());
        let helper = fabric.add_node();
        let leader = fabric.add_node();
        let (ctx, crx) = create_channel(&fabric, helper, leader, cfg);
        let mut tx = DeltaSender::new(ctx);
        let mut rx = DeltaReceiver::new(crx, 1);
        tx.set_retention(true);

        let desc = CounterCrdt::descriptor();
        let mut fragment = Partition::new(0, desc);
        let mut primary = Partition::new(0, desc);
        let mut vclock = VectorClock::new(2);
        for k in 0..40u128 {
            fragment.rmw(k, |v| CounterCrdt::add(v, 1));
        }
        tx.enqueue_epoch(&mut fragment, 10, sim.now());
        assert!(tx.backlog() > 2);

        // Ship a couple of chunks, then the link goes down mid-epoch.
        tx.pump(&mut sim).unwrap();
        sim.run();
        rx.pump(&mut sim, &mut primary, &mut vclock).unwrap();
        sim.run(); // deliver the credit return
        fabric.set_link_down(leader, true);
        let _ = tx.pump(&mut sim); // flushed; QP errors
        sim.run();
        assert!(tx.is_error());
        assert_eq!(primary.key_count(), 0, "no partial merge");

        // Recovery: link back, both endpoints reset, replay from the
        // receiver's committed horizon.
        fabric.set_link_down(leader, false);
        tx.reset_channel();
        rx.reset_channel();
        assert_eq!(tx.requeue_from(rx.next_epoch()), 1);
        let mut spins = 0;
        while tx.backlog() > 0 || vclock.get(1) < 10 {
            spins += 1;
            assert!(spins < 10_000, "recovery deadlocked");
            tx.pump(&mut sim).unwrap();
            sim.run();
            rx.pump(&mut sim, &mut primary, &mut vclock).unwrap();
            sim.run();
        }
        for k in 0..40u128 {
            assert_eq!(primary.get(k).map(CounterCrdt::get), Some(1), "key {k}");
        }
        assert_eq!(vclock.get(1), 10);
    }

    /// A malformed chunk in the middle of an epoch: its own leading entries,
    /// the chunks before it and everything after it stay out of the
    /// primary, the error repeats, and the clock slot does not move.
    #[test]
    fn a_rejected_chunk_poisons_its_epoch_and_every_later_one() {
        let cfg = ChannelConfig {
            credits: 8,
            buffer_size: 128, // two 32-byte entries per chunk
            credit_batch: 1,
        };
        let (mut sim, mut tx, mut rx) = pair(cfg);
        let desc = CounterCrdt::descriptor();
        let mut fragment = Partition::new(0, desc);
        let mut primary = Partition::new(0, desc);
        let mut vclock = VectorClock::new(2);

        // Epoch 0 is clean and commits.
        fragment.rmw(100, |v| CounterCrdt::add(v, 1));
        tx.enqueue_epoch(&mut fragment, 10, sim.now());
        tx.pump(&mut sim).unwrap();
        sim.run();
        assert_eq!(rx.pump(&mut sim, &mut primary, &mut vclock), Ok(1));
        // Epoch 1 spans three chunks; the *second* entry of its second
        // chunk gets an unknown kind byte, so one entry of that chunk
        // decodes before the error. Epoch 2 is clean again.
        for k in 0..6u128 {
            fragment.rmw(k, |v| CounterCrdt::add(v, 1));
        }
        tx.enqueue_epoch(&mut fragment, 20, sim.now());
        assert_eq!(tx.backlog(), 3);
        tx.outbox[1][DELTA_HEADER_SIZE + entry_wire_size(8) + 20] = 9;
        fragment.rmw(200, |v| CounterCrdt::add(v, 1));
        tx.enqueue_epoch(&mut fragment, 30, sim.now());

        let mut errors = Vec::new();
        for _ in 0..8 {
            tx.pump(&mut sim).unwrap();
            sim.run();
            errors.extend(rx.pump(&mut sim, &mut primary, &mut vclock).err());
            sim.run();
        }
        let bad = StateError::Decode(DeltaDecodeError::BadKind(9));
        assert_eq!(errors.len(), 8, "every pump from the bad chunk on fails");
        assert!(errors.iter().all(|e| *e == bad));
        assert_eq!(
            rx.staged.rows.len(),
            2,
            "chunk 1 staged, chunk 2 rolled back"
        );
        assert_eq!(rx.staged.bytes.len(), 16);
        assert_eq!(primary.key_count(), 1, "only epoch 0 ever merged");
        assert_eq!(primary.get(100).map(CounterCrdt::get), Some(1));
        assert_eq!((rx.next_epoch(), vclock.get(1)), (1, 10));
    }

    #[test]
    fn spsc_port_ships_and_merges_like_the_rdma_channel() {
        // Same protocol exercise as `ship_and_merge_counters`, but over
        // the threaded executor's in-process link. The sim here only
        // provides timestamps — no events are scheduled.
        let mut sim = Sim::new();
        let (ltx, lrx) = slash_net::spsc_channel(ChannelConfig::default());
        let mut tx = DeltaSender::over_spsc(ltx);
        let mut rx = DeltaReceiver::over_spsc(lrx, 1);
        let desc = CounterCrdt::descriptor();
        let mut fragment = Partition::new(0, desc);
        let mut primary = Partition::new(0, desc);
        let mut vclock = VectorClock::new(2);

        primary.rmw(7, |v| CounterCrdt::add(v, 100));
        fragment.rmw(7, |v| CounterCrdt::add(v, 11));
        fragment.rmw(8, |v| CounterCrdt::add(v, 22));

        tx.enqueue_epoch(&mut fragment, 5_000, sim.now());
        tx.pump(&mut sim).unwrap();
        let merged = rx.pump(&mut sim, &mut primary, &mut vclock).unwrap();
        assert_eq!(merged, 2);
        assert_eq!(primary.get(7).map(CounterCrdt::get), Some(111));
        assert_eq!(primary.get(8).map(CounterCrdt::get), Some(22));
        assert_eq!(vclock.get(1), 5_000);
        assert_eq!(tx.channel_stats().buffers, rx.channel_stats().buffers);
    }

    #[test]
    fn spsc_port_backpressures_and_drains() {
        // A 2-credit link with tiny buffers forces multi-chunk epochs to
        // stall mid-flight; repeated pumps must drain everything in FIFO
        // order, exactly like `backlog_drains_across_credit_stalls`.
        let cfg = ChannelConfig {
            credits: 2,
            buffer_size: 128,
            credit_batch: 1,
        };
        let mut sim = Sim::new();
        let (ltx, lrx) = slash_net::spsc_channel(cfg);
        let mut tx = DeltaSender::over_spsc(ltx);
        let mut rx = DeltaReceiver::over_spsc(lrx, 1);
        let desc = CounterCrdt::descriptor();
        let mut fragment = Partition::new(0, desc);
        let mut primary = Partition::new(0, desc);
        let mut vclock = VectorClock::new(2);

        for k in 0..50u128 {
            fragment.rmw(k, |v| CounterCrdt::add(v, 1));
        }
        tx.enqueue_epoch(&mut fragment, 42, sim.now());
        assert!(tx.backlog() > 2, "must not fit in one credit window");

        let mut spins = 0;
        while tx.backlog() > 0 || vclock.get(1) < 42 {
            spins += 1;
            assert!(spins < 10_000, "shipping deadlocked");
            tx.pump(&mut sim).unwrap();
            rx.pump(&mut sim, &mut primary, &mut vclock).unwrap();
        }
        for k in 0..50u128 {
            assert_eq!(primary.get(k).map(CounterCrdt::get), Some(1));
        }
        assert!(tx.channel_stats().credit_stalls > 0, "bound exercised");
    }

    #[test]
    fn epochs_merge_in_order() {
        let (mut sim, mut tx, mut rx) = pair(ChannelConfig::default());
        let desc = CounterCrdt::descriptor();
        let mut fragment = Partition::new(0, desc);
        let mut primary = Partition::new(0, desc);
        let mut vclock = VectorClock::new(2);

        for epoch in 0..5u64 {
            fragment.rmw(1, |v| CounterCrdt::add(v, epoch + 1));
            tx.enqueue_epoch(&mut fragment, (epoch + 1) * 10, sim.now());
        }
        let mut spins = 0;
        while tx.backlog() > 0 {
            spins += 1;
            assert!(spins < 1000);
            tx.pump(&mut sim).unwrap();
            sim.run();
            rx.pump(&mut sim, &mut primary, &mut vclock).unwrap();
        }
        sim.run();
        rx.pump(&mut sim, &mut primary, &mut vclock).unwrap();
        assert_eq!(
            primary.get(1).map(CounterCrdt::get),
            Some(1 + 2 + 3 + 4 + 5)
        );
        assert_eq!(vclock.get(1), 50);
    }
}
