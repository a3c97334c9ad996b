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
//! The **coherence scenario** ([`CoherenceScenario`]) is the fault-free SSB
//! epoch protocol: per-node actors update, close epochs and pump deltas in
//! lock step, and the merged state must equal a sequential oracle. Crashes,
//! handoffs and their repairs are *not* modelled here — they run on the
//! shipped cluster driver, through [`crate::catalogue`].
//!
//! [`Mutation`]s inject protocol bugs (via `#[doc(hidden)]` fault hooks in
//! `slash-net`/`slash-state`/`slash-core`, or scenario-level tampering) so
//! tests can prove each invariant check actually fires instead of passing
//! vacuously.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use slash_core::Plant;
use slash_desim::{ChoicePoint, DetRng, EventLabel, Sim, SimTime, TieBreak};
use slash_net::{create_channel, ChannelConfig, ChannelReceiver, ChannelSender, MsgFlags};
use slash_obs::Obs;
use slash_rdma::{Fabric, FabricConfig, NicConfig};
use slash_state::backend::{build_cluster_obs, SsbConfig, SsbNode};
use slash_state::hash::{pack_key, partition_of};
use slash_state::CounterCrdt;

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
    /// The checkpoint a promotion commits from overstates, by one epoch
    /// per survivor, how much of their history it holds — tampered input
    /// to the shipped `rejoin`, planted in `core/recovery.rs`
    /// ([`Plant::SkipReplay`]) → recovery convergence must fire.
    SkipReplay,
    /// A planned handoff captures its cutover checkpoint without closing
    /// the cutover epoch, planted in `core/elastic.rs`
    /// ([`Plant::SkipCutoverClose`]) → recovery convergence must fire.
    SkipCutoverClose,
}

impl Mutation {
    /// Every mutation, with its CLI name.
    pub const ALL: [(&'static str, Mutation); 7] = [
        ("skip-credit-return", Mutation::SkipCreditReturn),
        ("ignore-credit-window", Mutation::IgnoreCreditWindow),
        ("reorder-delivered", Mutation::ReorderDelivered),
        ("regress-vclock", Mutation::RegressVclock),
        ("drop-update", Mutation::DropUpdate),
        ("skip-replay", Mutation::SkipReplay),
        ("skip-cutover-close", Mutation::SkipCutoverClose),
    ];

    /// The bug to plant in the shipped driver, for the two mutations that
    /// live there.
    pub fn plant(self) -> Option<Plant> {
        match self {
            Mutation::SkipReplay => Some(Plant::SkipReplay),
            Mutation::SkipCutoverClose => Some(Plant::SkipCutoverClose),
            _ => None,
        }
    }
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
            self.violations
                .push((inv, format!("channel {ch}: {detail}")));
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
                self.flag(
                    Invariant::Fifo,
                    ch,
                    format!("EOS after {got} of {want} messages"),
                );
            }
            return;
        }
        if payload.len() != PAYLOAD {
            let len = payload.len();
            self.flag(
                Invariant::NoOverwrite,
                ch,
                format!("payload length {len} ≠ {PAYLOAD}"),
            );
            return;
        }
        let mut idb = [0u8; 8];
        idb.copy_from_slice(&payload[..8]);
        let id = u64::from_le_bytes(idb);
        if id != self.expected[ch] {
            let want = self.expected[ch];
            self.flag(
                Invariant::Fifo,
                ch,
                format!("received message {id}, expected {want}"),
            );
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
// Coherence scenario: the fault-free SSB epoch protocol under lock-step ties
// ---------------------------------------------------------------------------

const C_TICK_NS: u64 = 5_000;
const OP_TICKS: u64 = 16;
const SETTLE_TICKS: u64 = 10;
const KEYS: u64 = 16;
const OPS_PER_TICK: usize = 4;
const EPOCH_EVERY: u64 = 4;
const FINAL_WM: u64 = 10_000;

/// Configuration of the coherence scenario: an `n`-node cluster where
/// every node updates random keys, periodically closes epochs and pumps
/// delta shipping — all per-node actors tying on every tick. At quiescence
/// [`Invariant::EpochConvergence`] requires the merged state to equal the
/// sequential oracle and every vector clock to sit at the final watermark;
/// [`Invariant::VclockMonotonic`] is checked at every tick.
///
/// This is a *protocol* scenario like [`ChannelScenario`]: its lock-step
/// ticks manufacture a tie on every tick, which the shipped driver — where
/// virtual-time physics orders almost everything — never produces. Faults
/// and repairs are not its business; those run on the production driver
/// ([`crate::catalogue`]).
#[derive(Debug, Clone)]
pub struct CoherenceScenario {
    /// Cluster size.
    pub nodes: usize,
    /// Optional injected bug.
    pub mutation: Option<Mutation>,
}

impl Default for CoherenceScenario {
    fn default() -> Self {
        CoherenceScenario {
            nodes: 3,
            mutation: None,
        }
    }
}

struct SsbWorld {
    ssb: Vec<SsbNode>,
    oracle: HashMap<u64, u64>,
    rngs: Vec<DetRng>,
    prev_vc: Vec<Vec<u64>>,
    /// The injected bug, taken when it fires (each fires once).
    mutation: Option<Mutation>,
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
                &format!(
                    "schedule fingerprint={:#018x} vclock[{node}]={vc:?}",
                    self.cur_fp
                ),
            );
            self.violations
                .push((inv, format!("node {node}: {detail}")));
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

    /// One tick of workload for node `i`.
    fn do_ops(&mut self, i: usize) {
        for _ in 0..OPS_PER_TICK {
            let k = self.rngs[i].next_below(KEYS);
            let v = 1 + self.rngs[i].next_below(5);
            *self.oracle.entry(k).or_insert(0) += v;
            if i == 1 && self.fire(Mutation::DropUpdate) {
                continue; // counted in the oracle, never applied
            }
            self.ssb[i].rmw(pack_key(1, k), |buf| CounterCrdt::add(buf, v));
        }
    }

    fn close_epoch(&mut self, sim: &mut Sim, i: usize, watermark: u64) {
        self.ssb[i].note_progress(watermark);
        if let Err(e) = self.ssb[i].close_epoch(sim) {
            self.flag(
                Invariant::EpochConvergence,
                i,
                format!("close_epoch failed: {e:?}"),
            );
        }
    }

    fn node_tick(&mut self, sim: &mut Sim, i: usize, tick: u64) -> bool {
        self.cur_fp = sim.schedule_fingerprint();
        if tick < OP_TICKS {
            self.do_ops(i);
            if (tick + 1).is_multiple_of(EPOCH_EVERY) {
                self.close_epoch(sim, i, (tick + 1) * 100);
            }
        } else if !self.final_closed[i] {
            self.close_epoch(sim, i, FINAL_WM);
            self.final_closed[i] = true;
        }
        if i == 0 && tick == 6 && self.fire(Mutation::RegressVclock) {
            self.ssb[0].fault_vclock_mut().fault_force_set(0, 1);
        }
        if let Err(e) = self.ssb[i].pump(sim) {
            self.flag(
                Invariant::EpochConvergence,
                i,
                format!("pump failed: {e:?}"),
            );
        }
        self.check_vclock(i);
        tick >= OP_TICKS + SETTLE_TICKS
    }

    fn check_convergence(&mut self) {
        let n = self.ssb.len();
        let oracle: Vec<(u64, u64)> = self.oracle.iter().map(|(&k, &v)| (k, v)).collect();
        for (k, total) in oracle {
            let leader = partition_of(pack_key(1, k), n);
            let got = self.ssb[leader]
                .local_get(pack_key(1, k))
                .map(CounterCrdt::get);
            if got != Some(total) {
                self.flag(
                    Invariant::EpochConvergence,
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
                        Invariant::EpochConvergence,
                        i,
                        format!("vclock slot {j} = {got} ≠ final watermark {FINAL_WM}"),
                    );
                }
            }
        }
    }

    /// Order-insensitive digest of the cluster's protocol-visible state:
    /// every node's backend digest and vector clock, plus a commutative
    /// fold of the oracle (its `HashMap` iteration order must not leak
    /// into the digest).
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
        fold_digest(h, self.violations.len() as u64)
    }
}

fn schedule_ssb_actor(
    sim: &mut Sim,
    world: Rc<RefCell<SsbWorld>>,
    node: usize,
    at: SimTime,
    tick: u64,
) {
    sim.schedule_at_labeled(at, EventLabel::node(node as u32), move |sim| {
        let done = world.borrow_mut().node_tick(sim, node, tick);
        if !done {
            let next = sim.now() + SimTime::from_nanos(C_TICK_NS);
            schedule_ssb_actor(sim, world, node, next, tick + 1);
        }
    });
}

impl Scenario for CoherenceScenario {
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
        let ssb = build_cluster_obs(&fabric, &nodes, CounterCrdt::descriptor(), cfg, obs.clone());
        let world = Rc::new(RefCell::new(SsbWorld {
            ssb,
            oracle: HashMap::new(),
            // Fixed per-node op seeds: the workload is identical across
            // policies; only the interleaving varies.
            rngs: (0..n)
                .map(|i| DetRng::new(0xFA11 ^ (i as u64) << 8))
                .collect(),
            prev_vc: vec![vec![0; n]; n],
            mutation: self.mutation,
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
    fn different_policies_yield_different_fingerprints() {
        let a = ChannelScenario::default().run(TieBreak::Fifo).fingerprint;
        let b = ChannelScenario::default().run(TieBreak::Lifo).fingerprint;
        let c = ChannelScenario::default()
            .run(TieBreak::Seeded(3))
            .fingerprint;
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And reruns are bit-identical.
        assert_eq!(
            a,
            ChannelScenario::default().run(TieBreak::Fifo).fingerprint
        );
    }
}
