//! Replayable protocol scenarios for the race checker.
//!
//! Each scenario builds a fresh simulation under a given
//! [`TieBreak`] policy, drives the protocol with *actors* — closures
//! rescheduled at a fixed tick period, so every tick all actors land on
//! the same virtual nanosecond and the tie-break policy decides their
//! order — and checks the protocol invariants both during the run and at
//! quiescence. The op sequence itself is drawn from fixed-seed
//! [`DetRng`]s, so across policies only the *interleaving* varies, never
//! the workload.
//!
//! Most scenarios use the default single-port NIC configuration on
//! purpose: with one port per direction, two WRITEs on the same queue
//! pair always serialize on the link and can never land on the same
//! nanosecond, so permuting same-timestamp events cannot violate RC
//! ordering — every explored schedule is one real hardware could produce.
//! The **multi-port family** ([`ChannelScenario::multi_port`]) flips that
//! deliberately: with two rails per node, messages striped across ports
//! genuinely tie at the receiver, and the tie-break policy decides which
//! delivery lands first — the multi-rail races a bonded NIC would expose.
//!
//! The **SSB family** ([`RecoveryScenario`]) is one world: an epoch-
//! coherence workload that, given a crash or handoff schedule, crashes a
//! node in the middle of epoch traffic, rebuilds it through the recovery
//! surface `slash-state` ships ([`SsbNode::checkpoint`],
//! [`SsbNode::restored`], [`rejoin`]), replays its deterministic op
//! stream, and asserts [`Invariant::RecoveryConvergence`]: the cluster
//! ends in exactly the no-fault state, with no epoch applied twice. What
//! the scenario owns is the orchestration — when to capture, whom to
//! crash, what to replay — not the rewire.
//!
//! [`Mutation`]s inject protocol bugs (via `#[doc(hidden)]` fault hooks in
//! `slash-net`/`slash-state`, or scenario-level tampering) so tests can
//! prove each invariant check actually fires instead of passing vacuously.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use slash_desim::{ChoicePoint, DetRng, EventLabel, Sim, SimTime, TieBreak};
use slash_net::{create_channel, ChannelConfig, ChannelReceiver, ChannelSender, MsgFlags};
use slash_obs::Obs;
use slash_rdma::{Fabric, FabricConfig, NicConfig, NodeId};
use slash_state::backend::{build_cluster_obs, SsbConfig, SsbNode};
use slash_state::hash::{pack_key, partition_of};
use slash_state::{rejoin, CounterCrdt, Rejoin, SsbCheckpoint};

use crate::race::{Invariant, Outcome};

/// An injected protocol bug for mutation testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The receiver of channel 0 consumes buffers but never returns
    /// credit (net fault hook) → credit conservation must fire.
    SkipCreditReturn,
    /// The sender of channel 0 ignores the credit window and overwrites
    /// unconsumed slots (net fault hook) → no-overwrite must fire.
    IgnoreCreditWindow,
    /// The consumer of channel 0 processes one polled batch out of order
    /// (detector-level tamper) → FIFO must fire.
    ReorderDelivered,
    /// Node 0's vector clock is forced backwards mid-run (state fault
    /// hook) → vclock monotonicity must fire.
    RegressVclock,
    /// One update is counted in the sequential oracle but never applied
    /// to the backend → epoch convergence must fire.
    DropUpdate,
    /// The checkpoint a crashed node is restored from overstates, for one
    /// helper, how much of that helper's history it holds (a commit
    /// horizon moved past the helper's retained range), so the rejoin
    /// replays nothing from it → recovery convergence must fire.
    SkipReplay,
}

// ---------------------------------------------------------------------------
// Channel scenario
// ---------------------------------------------------------------------------

const PAYLOAD: usize = 64;
const TICK_NS: u64 = 5_000;
const MAX_TICKS: u64 = 600;

/// Fold one value into a running SplitMix64 digest. Used by the scenario
/// state-digest hooks the exhaustive explorer deduplicates prefixes with.
pub(crate) fn fold_digest(h: u64, v: u64) -> u64 {
    let mut z = h
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(v)
        .wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Configuration of the channel scenario: one producer node fanning out to
/// `channels` consumer nodes over credit-limited channels that share the
/// producer's NIC port(s).
#[derive(Debug, Clone)]
pub struct ChannelScenario {
    /// Messages sent per channel before EOS.
    pub messages: u64,
    /// Channel credit budget (small, to stress the window).
    pub credits: usize,
    /// Full-duplex NIC ports per node (1 = the paper's testbed; 2 =
    /// multi-rail striping, where deliveries can genuinely tie).
    pub ports: usize,
    /// Fan-out: number of consumer nodes, one channel each.
    pub channels: usize,
    /// Optional injected bug.
    pub mutation: Option<Mutation>,
}

impl Default for ChannelScenario {
    fn default() -> Self {
        ChannelScenario {
            messages: 24,
            credits: 4,
            ports: 1,
            channels: 2,
            mutation: None,
        }
    }
}

impl ChannelScenario {
    /// The multi-port fabric family: two full-duplex ports per node, so
    /// the producer's channels stripe across rails and deliveries to the
    /// two consumers can land on the same nanosecond — ties the
    /// single-port configuration can never produce. The tie-break policy
    /// then decides which delivery is processed first; FIFO-per-channel,
    /// credit conservation and no-overwrite must hold under every
    /// resolution.
    pub fn multi_port() -> Self {
        ChannelScenario {
            ports: 2,
            ..ChannelScenario::default()
        }
    }

    /// The exhaustive-enumeration family: two nodes, one channel, a
    /// handful of messages through a two-slot credit window. Small enough
    /// that the DFS explorer can enumerate *every* distinct same-instant
    /// schedule within its budget, turning the FIFO/credit invariants from
    /// spot-checked into checked-on-all-schedules.
    pub fn small() -> Self {
        ChannelScenario {
            messages: 3,
            credits: 2,
            ports: 1,
            channels: 1,
            mutation: None,
        }
    }
}

fn fill_byte(ch: usize, id: u64) -> u8 {
    (id as u8) ^ ((ch as u8) << 4) ^ 0x5A
}

struct ChanWorld {
    txs: Vec<ChannelSender>,
    rxs: Vec<ChannelReceiver>,
    nchan: usize,
    msgs: u64,
    credits: usize,
    mutation: Option<Mutation>,
    sent: Vec<u64>,
    eos_sent: Vec<bool>,
    expected: Vec<u64>,
    eos_seen: Vec<bool>,
    reordered: bool,
    violations: Vec<(Invariant, String)>,
    flagged: HashSet<(&'static str, usize)>,
    obs: Obs,
    cur_fp: u64,
}

impl ChanWorld {
    /// Record a violation once per (invariant, channel) pair, capturing a
    /// flight-recorder dump (verb-event tail + schedule fingerprint) the
    /// moment the invariant trips.
    fn flag(&mut self, inv: Invariant, ch: usize, detail: String) {
        if self.flagged.insert((inv.name(), ch)) {
            self.obs.record_failure(
                &format!("[{}] channel {ch}: {detail}", inv.name()),
                &format!("schedule fingerprint={:#018x}", self.cur_fp),
            );
            self.violations.push((inv, format!("channel {ch}: {detail}")));
        }
    }

    fn check_credits(&mut self, ch: usize) {
        let acked = self.txs[ch].acked();
        let txn = self.txs[ch].next_seq();
        let rxn = self.rxs[ch].next_seq();
        if !(acked <= rxn && rxn <= txn) {
            self.flag(
                Invariant::CreditConservation,
                ch,
                format!("counter order broken: acked={acked} rx={rxn} tx={txn}"),
            );
        }
        if txn.saturating_sub(acked) > self.credits as u64 {
            self.flag(
                Invariant::NoOverwrite,
                ch,
                format!(
                    "window overrun: {} buffers in flight > {} credits (slot reused before ack)",
                    txn - acked,
                    self.credits
                ),
            );
        }
    }

    /// Order-insensitive digest of every protocol-visible counter: sender
    /// and receiver sequence numbers, acked credit, per-channel detector
    /// progress, and the violation count. Two explored prefixes with equal
    /// digests have converged to the same channel state.
    fn digest(&self) -> u64 {
        let mut h = 0xC4A2_17E5_D00D_F00Du64;
        for ch in 0..self.nchan {
            h = fold_digest(h, self.txs[ch].next_seq());
            h = fold_digest(h, self.txs[ch].acked());
            h = fold_digest(h, self.rxs[ch].next_seq());
            h = fold_digest(h, self.rxs[ch].unreturned() as u64);
            h = fold_digest(h, self.sent[ch]);
            h = fold_digest(h, self.expected[ch]);
            let bits = (self.eos_sent[ch] as u64) | ((self.eos_seen[ch] as u64) << 1);
            h = fold_digest(h, bits);
        }
        fold_digest(h, self.violations.len() as u64)
    }

    fn producer_tick(&mut self, sim: &mut Sim) -> bool {
        self.cur_fp = sim.schedule_fingerprint();
        for ch in 0..self.nchan {
            // Bursty producer: each tick it offers more messages than the
            // credit window holds, so a healthy sender must stall on
            // credits mid-burst; one that ignores the window overruns the
            // ring within a single tick (acks need at least one link RTT).
            for _ in 0..self.credits + 2 {
                if self.sent[ch] < self.msgs {
                    let id = self.sent[ch];
                    let res = self.txs[ch].try_send_with(sim, MsgFlags::DATA, PAYLOAD, |buf| {
                        buf[..8].copy_from_slice(&id.to_le_bytes());
                        for b in &mut buf[8..] {
                            *b = fill_byte(ch, id);
                        }
                    });
                    match res {
                        Ok(true) => self.sent[ch] += 1,
                        Ok(false) => break,
                        Err(e) => {
                            self.flag(Invariant::Fifo, ch, format!("transport error: {e:?}"));
                            break;
                        }
                    }
                } else if !self.eos_sent[ch] {
                    if let Ok(true) = self.txs[ch].try_send_eos(sim) {
                        self.eos_sent[ch] = true;
                    }
                    break;
                } else {
                    break;
                }
            }
            self.check_credits(ch);
        }
        self.eos_sent.iter().all(|&e| e)
    }

    fn observe(&mut self, ch: usize, flags: MsgFlags, payload: &[u8]) {
        if flags.contains(MsgFlags::EOS) {
            self.eos_seen[ch] = true;
            if self.expected[ch] != self.msgs {
                let (got, want) = (self.expected[ch], self.msgs);
                self.flag(Invariant::Fifo, ch, format!("EOS after {got} of {want} messages"));
            }
            return;
        }
        if payload.len() != PAYLOAD {
            let len = payload.len();
            self.flag(Invariant::NoOverwrite, ch, format!("payload length {len} ≠ {PAYLOAD}"));
            return;
        }
        let mut idb = [0u8; 8];
        idb.copy_from_slice(&payload[..8]);
        let id = u64::from_le_bytes(idb);
        if id != self.expected[ch] {
            let want = self.expected[ch];
            self.flag(Invariant::Fifo, ch, format!("received message {id}, expected {want}"));
        }
        let fb = fill_byte(ch, id);
        if payload[8..].iter().any(|&b| b != fb) {
            self.flag(
                Invariant::NoOverwrite,
                ch,
                format!("message {id} payload corrupted (expected fill {fb:#04x})"),
            );
        }
        self.expected[ch] = id + 1;
    }

    fn consumer_tick(&mut self, sim: &mut Sim, ch: usize) -> bool {
        self.cur_fp = sim.schedule_fingerprint();
        let mut batch: Vec<(MsgFlags, Vec<u8>)> = Vec::new();
        loop {
            match self.rxs[ch].try_recv(sim) {
                Ok(Some(m)) => {
                    let eos = m.0.contains(MsgFlags::EOS);
                    batch.push(m);
                    if eos {
                        break;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    self.flag(Invariant::Fifo, ch, format!("transport error: {e:?}"));
                    break;
                }
            }
        }
        if self.mutation == Some(Mutation::ReorderDelivered)
            && ch == 0
            && !self.reordered
            && batch.len() >= 2
        {
            batch.swap(0, 1);
            self.reordered = true;
        }
        for (flags, payload) in batch {
            self.observe(ch, flags, &payload);
        }
        self.check_credits(ch);
        self.eos_seen[ch]
    }

    fn quiescence(&mut self) {
        for ch in 0..self.nchan {
            if !self.eos_seen[ch] {
                let (got, want) = (self.expected[ch], self.msgs);
                self.flag(
                    Invariant::Fifo,
                    ch,
                    format!("stream incomplete at quiescence: {got} of {want}, no EOS"),
                );
            }
            let acked = self.txs[ch].acked();
            let txn = self.txs[ch].next_seq();
            let rxn = self.rxs[ch].next_seq();
            let unret = self.rxs[ch].unreturned();
            if !(acked == rxn && rxn == txn && unret == 0) {
                self.flag(
                    Invariant::CreditConservation,
                    ch,
                    format!(
                        "credits not conserved at quiescence: acked={acked} rx={rxn} tx={txn} unreturned={unret}"
                    ),
                );
            }
        }
    }
}

#[derive(Clone, Copy)]
enum ChanActor {
    Producer,
    Consumer(usize),
}

fn schedule_chan_actor(
    sim: &mut Sim,
    world: Rc<RefCell<ChanWorld>>,
    actor: ChanActor,
    at: SimTime,
    tick: u64,
) {
    // Node labels are informational only (actors touch shared world state,
    // so the explorer treats them as dependent with everything); they make
    // minimized counterexample schedules readable.
    let label = match actor {
        ChanActor::Producer => EventLabel::node(0),
        ChanActor::Consumer(ch) => EventLabel::node(ch as u32 + 1),
    };
    sim.schedule_at_labeled(at, label, move |sim| {
        let done = {
            let mut w = world.borrow_mut();
            match actor {
                ChanActor::Producer => w.producer_tick(sim),
                ChanActor::Consumer(ch) => w.consumer_tick(sim, ch),
            }
        };
        if !done && tick < MAX_TICKS {
            let next = sim.now() + SimTime::from_nanos(TICK_NS);
            schedule_chan_actor(sim, world, actor, next, tick + 1);
        }
    });
}

/// A replayable protocol scenario. The one required method builds the
/// world on a given simulator, runs it to quiescence and checks the
/// invariants; sweeping tie-break policies, replaying an explicit choice
/// schedule and exhaustive enumeration all follow from it.
pub trait Scenario {
    /// Build the world on `sim`, run it to quiescence, check invariants.
    fn run_sim(&self, sim: Sim) -> (Outcome, Sim);

    /// Run the scenario under one tie-break policy.
    fn run(&self, policy: TieBreak) -> Outcome {
        self.run_sim(Sim::with_tie_break(policy)).0
    }

    /// Run the scenario in explore mode under an explicit same-instant
    /// choice schedule (see [`Sim::with_schedule`]), returning the outcome
    /// plus the recorded branch-point trace the explorer branches on.
    fn run_schedule(&self, choices: &[u32]) -> (Outcome, Vec<ChoicePoint>) {
        let (out, mut sim) = self.run_sim(Sim::with_schedule(choices));
        let trace = sim.take_choice_trace();
        (out, trace)
    }

    /// Exhaustively enumerate this scenario's same-instant schedules (see
    /// [`crate::explorer::explore_exhaustive`]).
    fn exhaustive(
        &self,
        name: &'static str,
        budget: crate::explorer::Budget,
        minimize: bool,
    ) -> crate::explorer::ExhaustiveReport {
        crate::explorer::explore_exhaustive(name, budget, minimize, |c| {
            let (outcome, trace) = self.run_schedule(c);
            crate::explorer::ScheduleRun { outcome, trace }
        })
    }
}

impl Scenario for ChannelScenario {
    fn run_sim(&self, mut sim: Sim) -> (Outcome, Sim) {
        let nchan = self.channels.max(1);
        let fabric = Fabric::new(FabricConfig {
            nic: NicConfig {
                ports: self.ports.max(1),
                ..NicConfig::default()
            },
        });
        let a = fabric.add_node();
        let chan_cfg = ChannelConfig {
            credits: self.credits,
            buffer_size: 256,
            credit_batch: 1,
        };
        // The flight recorder rides along on every run: channel verb events
        // stream into a bounded ring, and any invariant failure snapshots
        // the tail together with the schedule fingerprint.
        let obs = Obs::enabled(4096);
        let mut txs = Vec::with_capacity(nchan);
        let mut rxs = Vec::with_capacity(nchan);
        for ch in 0..nchan {
            let consumer = fabric.add_node();
            let (mut tx, mut rx) = create_channel(&fabric, a, consumer, chan_cfg);
            tx.instrument(obs.clone(), 0, ch as u32 + 1);
            rx.instrument(obs.clone(), ch as u32 + 1, 0);
            txs.push(tx);
            rxs.push(rx);
        }
        match self.mutation {
            Some(Mutation::SkipCreditReturn) => rxs[0].fault_skip_credit_return(),
            Some(Mutation::IgnoreCreditWindow) => txs[0].fault_ignore_credit_window(),
            _ => {}
        }
        let world = Rc::new(RefCell::new(ChanWorld {
            txs,
            rxs,
            nchan,
            msgs: self.messages,
            credits: self.credits,
            mutation: self.mutation,
            sent: vec![0; nchan],
            eos_sent: vec![false; nchan],
            expected: vec![0; nchan],
            eos_seen: vec![false; nchan],
            reordered: false,
            violations: Vec::new(),
            flagged: HashSet::new(),
            obs: obs.clone(),
            cur_fp: 0,
        }));
        // State-digest hook (explore mode only): lets the explorer
        // recognize converged prefixes. Sampled between events, so no
        // borrow of the world can be live.
        let digest_world = Rc::clone(&world);
        sim.set_state_digest(move || digest_world.borrow().digest());
        // All actors land on the same nanosecond every tick; the tie-break
        // policy (or the explored schedule) decides who runs first.
        let t0 = SimTime::from_nanos(TICK_NS);
        schedule_chan_actor(&mut sim, Rc::clone(&world), ChanActor::Producer, t0, 0);
        for ch in 0..nchan {
            schedule_chan_actor(&mut sim, Rc::clone(&world), ChanActor::Consumer(ch), t0, 0);
        }
        sim.run();
        // Bounded final drain: late deliveries may still be in flight when
        // the last scheduled tick fires.
        for _ in 0..64 {
            {
                let mut w = world.borrow_mut();
                for ch in 0..nchan {
                    w.consumer_tick(&mut sim, ch);
                }
                w.producer_tick(&mut sim);
            }
            sim.run();
            if world.borrow().eos_seen.iter().all(|&e| e) {
                break;
            }
        }
        let mut w = world.borrow_mut();
        w.cur_fp = sim.schedule_fingerprint();
        w.quiescence();
        let outcome = Outcome {
            fingerprint: sim.schedule_fingerprint(),
            violations: std::mem::take(&mut w.violations),
            dumps: obs.take_failures().iter().map(|d| d.render()).collect(),
        };
        drop(w);
        (outcome, sim)
    }
}

// ---------------------------------------------------------------------------
// SSB scenario: epoch coherence, with or without crashes and handoffs
// ---------------------------------------------------------------------------

const C_TICK_NS: u64 = 5_000;
const OP_TICKS: u64 = 16;
const SETTLE_TICKS: u64 = 10;
const KEYS: u64 = 16;
const OPS_PER_TICK: usize = 4;
const EPOCH_EVERY: u64 = 4;
const FINAL_WM: u64 = 10_000;
const CRASH_TICK: u64 = 9;
const VICTIM: usize = 1;

/// Configuration of the SSB scenario: an `n`-node cluster where every
/// node updates random keys, periodically closes epochs and pumps delta
/// shipping — all per-node actors tying on every tick — with epoch
/// retention on.
///
/// With an empty crash and handoff schedule
/// ([`RecoveryScenario::coherence`]) that is the whole scenario, and at
/// quiescence [`Invariant::EpochConvergence`] requires the merged state to
/// equal the sequential oracle.
///
/// With a schedule, every node named in it checkpoints at each of its
/// epoch closes ([`SsbNode::checkpoint`] plus its op-stream RNG). At its
/// scheduled tick a victim crashes and is rebuilt in place from its last
/// checkpoint through the shipped recovery surface —
/// [`SsbNode::restored`], then one [`rejoin`] per survivor — and its
/// deterministic op stream is replayed, all while the survivors keep
/// closing and shipping epochs. At quiescence
/// [`Invariant::RecoveryConvergence`] requires the merged state to equal
/// the sequential oracle exactly: nothing lost, no epoch applied twice.
///
/// The schedule makes this a *family*: the default is the single crash of
/// node `VICTIM` at `CRASH_TICK`; [`RecoveryScenario::concurrent_crash`]
/// crashes two nodes on the same tick (the tie-break policy orders the
/// overlapping restores); [`RecoveryScenario::reentrant`] crashes the same
/// node twice, so the second restore starts from a checkpoint captured by
/// the first restored incarnation.
#[derive(Debug, Clone)]
pub struct RecoveryScenario {
    /// Cluster size (must be ≥ 2 so every victim has surviving helpers).
    pub nodes: usize,
    /// Crash schedule: `(tick, node)` pairs, in any order. Two entries
    /// with the same tick on distinct nodes crash *concurrently* — the
    /// tie-break policy decides which crash-and-restore runs first, so
    /// the sweep explores every ordering of overlapping recoveries. Two
    /// entries for the same node crash it *again* after its first
    /// recovery.
    pub crashes: Vec<(u64, usize)>,
    /// Planned-handoff schedule: `(tick, node)` pairs. A handoff is a
    /// *promotion without a crash* — the elastic-rescaling cutover: at
    /// its tick the node halts, closes an epoch (the cutover point),
    /// captures the epoch-aligned checkpoint at that very instant, and
    /// is rebuilt from it with an **empty** replay range — channels
    /// re-established and requeued from committed horizons exactly like
    /// a crash restore, but nothing was lost, so epoch-id dedup is the
    /// only thing standing between the reconnect and double-apply. An
    /// entry sharing its tick with a `crashes` entry on another node
    /// interleaves a live migration with a concurrent crash recovery;
    /// the tie-break policy orders the two rebuilds.
    pub handoffs: Vec<(u64, usize)>,
    /// Canonical group keys hot-split before any traffic: every node's
    /// ledger copy activates these at build, so each replica's updates
    /// for a split key land under its own salted sub-key (the oracle
    /// keeps counting the canonical key). Convergence then checks the
    /// *fold* — canonical plus every sub-key entry at the leader — and a
    /// crash or handoff of any node must commute with the split: the
    /// restored incarnation adopts a survivor's ledger copy exactly like
    /// production promotion does.
    pub pre_split: Vec<u64>,
    /// Optional injected bug.
    pub mutation: Option<Mutation>,
}

impl Default for RecoveryScenario {
    fn default() -> Self {
        RecoveryScenario {
            nodes: 3,
            crashes: vec![(CRASH_TICK, VICTIM)],
            handoffs: vec![],
            pre_split: vec![],
            mutation: None,
        }
    }
}

impl RecoveryScenario {
    /// The epoch-coherence family: three nodes, nobody crashes, nobody
    /// migrates. Reports [`Invariant::EpochConvergence`].
    pub fn coherence() -> Self {
        RecoveryScenario {
            crashes: vec![],
            ..RecoveryScenario::default()
        }
    }

    /// The concurrent-crash family: nodes 1 and 2 of a 4-node cluster
    /// crash on the same tick. Whichever restore the tie-break policy
    /// runs first reads the other victim's pre-crash endpoints and has
    /// its freshly-built channels toward that victim torn down again by
    /// the second restore; the later restore must re-ship from the
    /// earlier one's checkpointed horizons. Convergence must hold under
    /// every ordering.
    pub fn concurrent_crash() -> Self {
        RecoveryScenario {
            nodes: 4,
            crashes: vec![(CRASH_TICK, 1), (CRASH_TICK, 2)],
            ..RecoveryScenario::default()
        }
    }

    /// The re-entrant recovery family: node `VICTIM` crashes at
    /// `CRASH_TICK` and again four ticks later — after its restored
    /// incarnation has replayed its op stream, shipped fresh epochs, and
    /// captured a new checkpoint of its own. The second restore composes
    /// with the first: two generations of requeued deltas land at the
    /// survivors, and epoch-id dedup must keep the merge exactly-once.
    pub fn reentrant() -> Self {
        RecoveryScenario {
            crashes: vec![(CRASH_TICK, VICTIM), (CRASH_TICK + 4, VICTIM)],
            ..RecoveryScenario::default()
        }
    }

    /// The minimal recovery family for exhaustive exploration: two nodes,
    /// one crash. Its literal schedule space is combinatorially deep (two
    /// actors tie on every tick for dozens of ticks); state-digest dedup
    /// collapses the converged interleavings and the explorer drains it.
    pub fn small() -> Self {
        RecoveryScenario {
            nodes: 2,
            ..RecoveryScenario::default()
        }
    }

    /// The planned-handoff family: node `VICTIM` of a 3-node cluster
    /// migrates at `CRASH_TICK` — cutover close, checkpoint at that
    /// instant, rebuild with empty replay — while the other two nodes
    /// keep closing and shipping epochs. Exactly-once across the
    /// reconnect must hold under every interleaving of the cutover with
    /// the survivors' in-flight deltas.
    pub fn planned_handoff() -> Self {
        RecoveryScenario {
            crashes: vec![],
            handoffs: vec![(CRASH_TICK, VICTIM)],
            ..RecoveryScenario::default()
        }
    }

    /// The handoff-vs-crash family: in a 4-node cluster, node 1 starts a
    /// planned handoff on the same tick node 2 crashes. The tie-break
    /// policy decides whether the migration cutover or the crash restore
    /// rebuilds first; each rebuild tears down and re-establishes
    /// channels toward the other's current incarnation, and both
    /// convergence and exactly-once must hold under every ordering.
    pub fn handoff_vs_crash() -> Self {
        RecoveryScenario {
            nodes: 4,
            crashes: vec![(CRASH_TICK, 2)],
            handoffs: vec![(CRASH_TICK, 1)],
            ..RecoveryScenario::default()
        }
    }

    /// The minimal handoff family for exhaustive exploration: two nodes,
    /// one planned handoff. The state-digest dedup collapses converged
    /// tick interleavings the same way `small()` does, so the explorer
    /// drains the frontier and turns the reconnect-dedup invariant into
    /// checked-on-all-schedules.
    pub fn rescale_small() -> Self {
        RecoveryScenario {
            nodes: 2,
            ..RecoveryScenario::planned_handoff()
        }
    }

    /// The hot-split crash family: the default single-crash schedule with
    /// two keys split across every replica. Salted sub-key deltas ride
    /// the same epochs the crash interrupts, the victim's checkpoint and
    /// replay cover sub-key entries like any other state, and the
    /// restored incarnation must adopt split custody from a survivor —
    /// convergence checks the canonical-plus-sub-keys fold against the
    /// unsalted oracle under every interleaving.
    pub fn hot_split() -> Self {
        RecoveryScenario {
            pre_split: vec![1, 3],
            ..RecoveryScenario::default()
        }
    }

    /// The hot-split handoff family: a planned cutover (promotion without
    /// a crash) while two keys are split. The cutover checkpoint captures
    /// sub-key entries mid-window; exactly-once across the reconnect must
    /// keep the fold exact with zero replayed ops.
    pub fn hot_split_handoff() -> Self {
        RecoveryScenario {
            pre_split: vec![1, 3],
            ..RecoveryScenario::planned_handoff()
        }
    }

    /// The minimal hot-split family for exhaustive exploration: two
    /// nodes, one crash, one split key — [`RecoveryScenario::small`] with
    /// split/fold in the schedule space, so the model checker proves the
    /// fold commutes with crash promotion on *every* schedule it drains.
    pub fn hot_split_small() -> Self {
        RecoveryScenario {
            pre_split: vec![1],
            ..RecoveryScenario::small()
        }
    }
}

/// A victim's epoch-aligned checkpoint, captured at every epoch close
/// before the crash — exactly the state a durable buddy copy would hold.
struct RecCkpt {
    ssb: SsbCheckpoint,
    /// Clone of the victim's op-stream RNG: replaying from here
    /// regenerates the exact same updates and epoch contents.
    rng: DetRng,
    resume_tick: u64,
}

struct SsbWorld {
    ssb: Vec<SsbNode>,
    fabric: Fabric,
    fab: Vec<NodeId>,
    cfg: SsbConfig,
    oracle: HashMap<u64, u64>,
    rngs: Vec<DetRng>,
    prev_vc: Vec<Vec<u64>>,
    /// The injected bug, taken when it fires (each fires once).
    mutation: Option<Mutation>,
    /// What a lost or doubled update violates: epoch convergence without
    /// a crash schedule, recovery convergence with one.
    convergence: Invariant,
    /// Latest checkpoint per node (only victims capture).
    ckpts: Vec<Option<RecCkpt>>,
    /// Crash events not yet executed.
    pending: Vec<(u64, usize)>,
    /// Planned handoffs not yet executed.
    pending_handoffs: Vec<(u64, usize)>,
    /// Nodes that appear anywhere in the crash schedule.
    victims: Vec<usize>,
    /// Crash-and-restore cycles completed.
    recovered: usize,
    crashes_total: usize,
    final_closed: Vec<bool>,
    violations: Vec<(Invariant, String)>,
    flagged: HashSet<(&'static str, usize)>,
    obs: Obs,
    cur_fp: u64,
}

impl SsbWorld {
    /// Record a violation once per (invariant, node) pair, capturing a
    /// flight-recorder dump with the schedule fingerprint and the failing
    /// node's vector clock.
    fn flag(&mut self, inv: Invariant, node: usize, detail: String) {
        if self.flagged.insert((inv.name(), node)) {
            let vc = self.ssb[node].vclock().snapshot();
            self.obs.record_failure(
                &format!("[{}] node {node}: {detail}", inv.name()),
                &format!("schedule fingerprint={:#018x} vclock[{node}]={vc:?}", self.cur_fp),
            );
            self.violations.push((inv, format!("node {node}: {detail}")));
        }
    }

    fn check_vclock(&mut self, i: usize) {
        let n = self.ssb.len();
        for j in 0..n {
            let cur = self.ssb[i].vclock().get(j);
            let prev = self.prev_vc[i][j];
            if cur < prev {
                self.flag(
                    Invariant::VclockMonotonic,
                    i,
                    format!("vclock slot {j} regressed from {prev} to {cur}"),
                );
            }
            self.prev_vc[i][j] = cur;
        }
    }

    /// Whether the injected bug is `m`; if so it is spent.
    fn fire(&mut self, m: Mutation) -> bool {
        let hit = self.mutation == Some(m);
        if hit {
            self.mutation = None;
        }
        hit
    }

    /// One tick of workload for node `i`. Replayed ops skip the oracle:
    /// they were counted in their first life, and the RNG clone makes the
    /// replayed stream identical.
    fn do_ops(&mut self, i: usize, count_oracle: bool) {
        for _ in 0..OPS_PER_TICK {
            let k = self.rngs[i].next_below(KEYS);
            let v = 1 + self.rngs[i].next_below(5);
            if count_oracle {
                *self.oracle.entry(k).or_insert(0) += v;
                if i == 1 && self.fire(Mutation::DropUpdate) {
                    continue; // counted in the oracle, never applied
                }
            }
            // A split key's update lands under this replica's salted
            // sub-key (the hot-path routing); the oracle keeps counting
            // the canonical key, so convergence checks the fold.
            let gk = self.ssb[i]
                .split_ledger()
                .and_then(|l| l.sub_for(k, i))
                .unwrap_or(k);
            self.ssb[i].rmw(pack_key(1, gk), |buf| CounterCrdt::add(buf, v));
        }
    }

    fn close_epoch(&mut self, sim: &mut Sim, i: usize, watermark: u64) {
        self.ssb[i].note_progress(watermark);
        if let Err(e) = self.ssb[i].close_epoch(sim) {
            self.flag(self.convergence, i, format!("close_epoch failed: {e:?}"));
        }
    }

    fn close_if_due(&mut self, sim: &mut Sim, i: usize, tick: u64) -> bool {
        let due = (tick + 1).is_multiple_of(EPOCH_EVERY);
        if due {
            self.close_epoch(sim, i, (tick + 1) * 100);
        }
        due
    }

    /// Checkpoint a victim at an epoch close — the epoch-aligned
    /// consistency point. Victims keep capturing after a recovery, so a
    /// second crash of the same node restores from its restored
    /// incarnation's checkpoint.
    fn capture(&mut self, victim: usize, tick: u64) {
        self.ckpts[victim] = Some(RecCkpt {
            ssb: self.ssb[victim].checkpoint(4096),
            rng: self.rngs[victim].clone(),
            resume_tick: tick + 1,
        });
    }

    /// Crash a victim and rebuild it from its last checkpoint while the
    /// survivors' epoch traffic is still in flight: restore, rejoin every
    /// survivor, then replay the op stream lost since the checkpoint.
    ///
    /// Under a concurrent-crash schedule the "survivor" loop may visit
    /// the *other* victim in whatever incarnation it currently holds —
    /// pre-crash if this restore was ordered first, post-restore
    /// otherwise. Both are correct sources: the later restore replaces
    /// any channel built here and re-ships from its own checkpointed
    /// horizons, and retention means every epoch id at or past those
    /// horizons is still requeue-able.
    fn crash_restore(&mut self, sim: &mut Sim, victim: usize, crash_tick: u64) {
        let Some(mut ckpt) = self.ckpts[victim].take() else {
            let detail = "no checkpoint captured before crash".into();
            self.flag(self.convergence, victim, detail);
            return;
        };
        let n = self.ssb.len();
        let survivors = (0..n).filter(|&s| s != victim);
        let ledger = survivors.clone().find_map(|s| self.ssb[s].split_ledger().cloned());
        let mut repl =
            SsbNode::restored(victim, CounterCrdt::descriptor(), self.cfg, &ckpt.ssb, ledger);
        for s in survivors {
            if self.fire(Mutation::SkipReplay) {
                // Planted bug, as tampered input: the checkpoint claims
                // to hold everything `s` ever shipped, so nothing replays.
                ckpt.ssb.receiver_next[s] = self.ssb[s].epochs_closed();
            }
            let at = Rejoin {
                fabric: &self.fabric,
                port: self.fab[victim],
                peer: s,
                peer_port: self.fab[s],
                durable: u64::MAX,
                peer_durable: u64::MAX,
                obs: &self.obs,
            };
            rejoin(&mut repl, Some(&mut self.ssb[s]), &ckpt.ssb, &at);
        }
        repl.instrument(self.obs.clone());
        self.ssb[victim] = repl;
        // Monotonicity restarts with the new incarnation: the restored
        // vector clock legitimately sits behind the crashed one's.
        self.prev_vc[victim] = vec![0; n];
        // Deterministic replay of the lost op stream.
        self.rngs[victim] = ckpt.rng;
        for t in ckpt.resume_tick..crash_tick {
            self.do_ops(victim, false);
            self.close_if_due(sim, victim, t);
        }
        self.recovered += 1;
    }

    /// Execute a planned handoff: the elastic cutover. Halt, close the
    /// cutover epoch at an off-cycle watermark, capture the checkpoint at
    /// that exact instant, and rebuild through the *same* restore surface
    /// a crash uses — except the replay range `resume_tick..crash_tick`
    /// is empty by construction, because nothing ran between the capture
    /// and the "crash". Promotion without a crash, literally: the crash
    /// path minus staleness.
    fn handoff(&mut self, sim: &mut Sim, i: usize, tick: u64) {
        self.close_epoch(sim, i, tick * 100 + 50);
        self.capture(i, tick);
        self.crash_restore(sim, i, tick);
    }

    fn node_tick(&mut self, sim: &mut Sim, i: usize, tick: u64) -> bool {
        self.cur_fp = sim.schedule_fingerprint();
        if let Some(pos) = self.pending.iter().position(|&(t, v)| t == tick && v == i) {
            self.pending.remove(pos);
            self.crash_restore(sim, i, tick);
        }
        if let Some(pos) = self
            .pending_handoffs
            .iter()
            .position(|&(t, v)| t == tick && v == i)
        {
            self.pending_handoffs.remove(pos);
            self.handoff(sim, i, tick);
        }
        if tick < OP_TICKS {
            self.do_ops(i, true);
            let closed = self.close_if_due(sim, i, tick);
            if closed && self.victims.contains(&i) {
                self.capture(i, tick);
            }
        } else if !self.final_closed[i] {
            self.close_epoch(sim, i, FINAL_WM);
            self.final_closed[i] = true;
        }
        if i == 0 && tick == 6 && self.fire(Mutation::RegressVclock) {
            self.ssb[0].fault_vclock_mut().fault_force_set(0, 1);
        }
        if let Err(e) = self.ssb[i].pump(sim) {
            self.flag(self.convergence, i, format!("pump failed: {e:?}"));
        }
        self.check_vclock(i);
        tick >= OP_TICKS + SETTLE_TICKS
    }

    /// Leader-side read of a group key's total: the canonical entry
    /// merged with every sub-key entry when the key is split — the same
    /// fold the engine's trigger path applies at window close. `None`
    /// only when no constituent entry exists at all.
    fn folded_get(&self, leader: usize, k: u64) -> Option<u64> {
        let node = &self.ssb[leader];
        let mut parts: Vec<u64> = node
            .local_get(pack_key(1, k))
            .map(CounterCrdt::get)
            .into_iter()
            .collect();
        if let Some(ledger) = node.split_ledger().filter(|l| l.is_split(k)) {
            for r in 0..ledger.nodes() {
                if let Some(sub) = ledger.sub_for(k, r) {
                    if let Some(v) = node.local_get(pack_key(1, sub)).map(CounterCrdt::get) {
                        parts.push(v);
                    }
                }
            }
        }
        if parts.is_empty() {
            None
        } else {
            Some(parts.iter().sum())
        }
    }

    fn check_convergence(&mut self) {
        if self.recovered != self.crashes_total {
            let (got, want) = (self.recovered, self.crashes_total);
            self.flag(
                self.convergence,
                VICTIM,
                format!("only {got} of {want} scheduled crash/restores executed"),
            );
        }
        let n = self.ssb.len();
        let oracle: Vec<(u64, u64)> = self.oracle.iter().map(|(&k, &v)| (k, v)).collect();
        for (k, total) in oracle {
            let leader = partition_of(pack_key(1, k), n);
            let got = self.folded_get(leader, k);
            if got != Some(total) {
                self.flag(
                    self.convergence,
                    leader,
                    format!(
                        "key {k}: leader holds {got:?}, sequential oracle says {total} \
                         (lost or double-applied update)"
                    ),
                );
            }
        }
        for i in 0..n {
            for j in 0..n {
                let got = self.ssb[i].vclock().get(j);
                if got != FINAL_WM {
                    self.flag(
                        self.convergence,
                        i,
                        format!("vclock slot {j} = {got} ≠ final watermark {FINAL_WM}"),
                    );
                }
            }
        }
    }

    /// Order-insensitive digest of the cluster's protocol-visible state —
    /// every node's backend digest and vector clock, plus a commutative
    /// fold of the oracle (its `HashMap` iteration order must not leak
    /// into the digest) — and of recovery progress (checkpoints captured,
    /// crashes and handoffs still pending, cycles completed).
    fn digest(&self) -> u64 {
        let mut h = 0xFA11_BACC_D16E_5721u64;
        for (i, node) in self.ssb.iter().enumerate() {
            h = fold_digest(h, node.state_digest());
            for v in node.vclock().snapshot() {
                h = fold_digest(h, v);
            }
            h = fold_digest(h, i as u64);
        }
        let mut acc = 0u64;
        for (&k, &v) in &self.oracle {
            acc ^= fold_digest(fold_digest(0x0AC1_E0AC_1E0A_C1E0, k), v);
        }
        h = fold_digest(h, acc);
        h = fold_digest(h, self.ckpts.iter().filter(|c| c.is_some()).count() as u64);
        h = fold_digest(h, self.pending.len() as u64);
        h = fold_digest(h, self.pending_handoffs.len() as u64);
        h = fold_digest(h, self.recovered as u64);
        fold_digest(h, self.violations.len() as u64)
    }
}

fn schedule_ssb_actor(sim: &mut Sim, world: Rc<RefCell<SsbWorld>>, node: usize, at: SimTime, tick: u64) {
    sim.schedule_at_labeled(at, EventLabel::node(node as u32), move |sim| {
        let done = world.borrow_mut().node_tick(sim, node, tick);
        if !done {
            let next = sim.now() + SimTime::from_nanos(C_TICK_NS);
            schedule_ssb_actor(sim, world, node, next, tick + 1);
        }
    });
}

impl Scenario for RecoveryScenario {
    fn run_sim(&self, mut sim: Sim) -> (Outcome, Sim) {
        let n = self.nodes.max(2);
        let fabric = Fabric::new(FabricConfig::default());
        let nodes = fabric.add_nodes(n);
        let cfg = SsbConfig {
            nodes: n,
            epoch_bytes: u64::MAX, // epochs closed explicitly by the actors
            channel: ChannelConfig {
                credits: 8,
                buffer_size: 4096,
                credit_batch: 1,
            },
        };
        // Instrumented cluster: delta-channel verbs and epoch phase spans
        // stream into the flight recorder's ring.
        let obs = Obs::enabled(4096);
        let mut ssb = build_cluster_obs(&fabric, &nodes, CounterCrdt::descriptor(), cfg, obs.clone());
        // Fault-tolerant run: every sender retains closed epochs so the
        // recovery can replay them.
        for node in &mut ssb {
            node.set_retention(true);
        }
        // Hot-split families: activate the scheduled keys on every
        // node's ledger copy before any traffic, so each replica salts
        // its updates from the first op.
        if !self.pre_split.is_empty() {
            for node in &mut ssb {
                node.split_enable();
                for &gk in &self.pre_split {
                    node.split_activate(gk);
                }
            }
        }
        let mut victims: Vec<usize> = self.crashes.iter().map(|&(_, v)| v).collect();
        victims.sort_unstable();
        victims.dedup();
        let crashes_total = self.crashes.len() + self.handoffs.len();
        let world = Rc::new(RefCell::new(SsbWorld {
            ssb,
            fabric: fabric.clone(),
            fab: nodes,
            cfg,
            oracle: HashMap::new(),
            // Fixed per-node op seeds: the workload is identical across
            // policies; only the interleaving varies.
            rngs: (0..n).map(|i| DetRng::new(0xFA11 ^ (i as u64) << 8)).collect(),
            prev_vc: vec![vec![0; n]; n],
            mutation: self.mutation,
            convergence: if crashes_total == 0 {
                Invariant::EpochConvergence
            } else {
                Invariant::RecoveryConvergence
            },
            ckpts: (0..n).map(|_| None).collect(),
            pending: self.crashes.clone(),
            pending_handoffs: self.handoffs.clone(),
            victims,
            recovered: 0,
            crashes_total,
            final_closed: vec![false; n],
            violations: Vec::new(),
            flagged: HashSet::new(),
            obs: obs.clone(),
            cur_fp: 0,
        }));
        let digest_world = Rc::clone(&world);
        sim.set_state_digest(move || digest_world.borrow().digest());
        let t0 = SimTime::from_nanos(C_TICK_NS);
        for i in 0..n {
            schedule_ssb_actor(&mut sim, Rc::clone(&world), i, t0, 0);
        }
        sim.run();
        // Settle: pump everything until fully quiescent (same pattern the
        // backend's own tests use, bounded).
        for _ in 0..10_000 {
            let mut progress = 0u64;
            {
                let mut w = world.borrow_mut();
                for i in 0..n {
                    if let Ok((s, m)) = w.ssb[i].pump(&mut sim) {
                        progress += s + m;
                    }
                }
            }
            sim.run();
            let flushed = world.borrow().ssb.iter().all(|nd| nd.flushed());
            if progress == 0 && flushed {
                break;
            }
        }
        let mut w = world.borrow_mut();
        w.cur_fp = sim.schedule_fingerprint();
        w.check_convergence();
        let outcome = Outcome {
            fingerprint: sim.schedule_fingerprint(),
            violations: std::mem::take(&mut w.violations),
            dumps: obs.take_failures().iter().map(|d| d.render()).collect(),
        };
        drop(w);
        (outcome, sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_scenario_clean_under_fifo_and_lifo() {
        for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(7)] {
            let out = ChannelScenario::default().run(policy);
            assert!(
                out.violations.is_empty(),
                "unexpected violations under {policy:?}: {:?}",
                out.violations
            );
            assert_ne!(out.fingerprint, 0);
        }
    }

    #[test]
    fn coherence_scenario_clean_under_fifo_and_lifo() {
        for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(7)] {
            let out = RecoveryScenario::coherence().run(policy);
            assert!(
                out.violations.is_empty(),
                "unexpected violations under {policy:?}: {:?}",
                out.violations
            );
        }
    }

    #[test]
    fn multi_port_scenario_clean_under_policies() {
        for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(7)] {
            let out = ChannelScenario::multi_port().run(policy);
            assert!(
                out.violations.is_empty(),
                "unexpected violations under {policy:?}: {:?}",
                out.violations
            );
        }
    }

    #[test]
    fn recovery_scenario_clean_under_policies() {
        for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(7)] {
            let out = RecoveryScenario::default().run(policy);
            assert!(
                out.violations.is_empty(),
                "unexpected violations under {policy:?}: {:?}",
                out.violations
            );
        }
    }

    #[test]
    fn concurrent_crash_scenario_clean_under_policies() {
        for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(7)] {
            let out = RecoveryScenario::concurrent_crash().run(policy);
            assert!(
                out.violations.is_empty(),
                "unexpected violations under {policy:?}: {:?}",
                out.violations
            );
        }
    }

    #[test]
    fn reentrant_recovery_scenario_clean_under_policies() {
        for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(7)] {
            let out = RecoveryScenario::reentrant().run(policy);
            assert!(
                out.violations.is_empty(),
                "unexpected violations under {policy:?}: {:?}",
                out.violations
            );
        }
    }

    #[test]
    fn planned_handoff_scenario_clean_under_policies() {
        for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(7)] {
            let out = RecoveryScenario::planned_handoff().run(policy);
            assert!(
                out.violations.is_empty(),
                "unexpected violations under {policy:?}: {:?}",
                out.violations
            );
        }
    }

    #[test]
    fn handoff_vs_crash_scenario_clean_under_policies() {
        for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(7)] {
            let out = RecoveryScenario::handoff_vs_crash().run(policy);
            assert!(
                out.violations.is_empty(),
                "unexpected violations under {policy:?}: {:?}",
                out.violations
            );
        }
    }

    #[test]
    fn rescale_small_scenario_clean_under_policies() {
        for policy in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Seeded(7)] {
            let out = RecoveryScenario::rescale_small().run(policy);
            assert!(
                out.violations.is_empty(),
                "unexpected violations under {policy:?}: {:?}",
                out.violations
            );
        }
    }

    #[test]
    fn unreached_crash_tick_trips_the_executed_check() {
        // A crash scheduled past the end of the run must not silently
        // vacuously pass: the convergence check counts executed cycles.
        let s = RecoveryScenario {
            crashes: vec![(CRASH_TICK, VICTIM), (10_000, VICTIM)],
            ..RecoveryScenario::default()
        };
        let out = s.run(TieBreak::Fifo);
        assert!(
            out.violations
                .iter()
                .any(|(inv, d)| *inv == Invariant::RecoveryConvergence && d.contains("1 of 2")),
            "missing-crash check did not fire: {:?}",
            out.violations
        );
    }

    #[test]
    fn skip_replay_mutation_trips_recovery_convergence() {
        let s = RecoveryScenario {
            mutation: Some(Mutation::SkipReplay),
            ..RecoveryScenario::default()
        };
        let out = s.run(TieBreak::Fifo);
        assert!(
            out.violations
                .iter()
                .any(|(inv, _)| *inv == Invariant::RecoveryConvergence),
            "skip-replay mutation not detected: {:?}",
            out.violations
        );
        assert!(!out.dumps.is_empty(), "flight recorder did not dump");
    }

    #[test]
    fn different_policies_yield_different_fingerprints() {
        let a = ChannelScenario::default().run(TieBreak::Fifo).fingerprint;
        let b = ChannelScenario::default().run(TieBreak::Lifo).fingerprint;
        let c = ChannelScenario::default().run(TieBreak::Seeded(3)).fingerprint;
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And reruns are bit-identical.
        assert_eq!(a, ChannelScenario::default().run(TieBreak::Fifo).fingerprint);
    }
}
